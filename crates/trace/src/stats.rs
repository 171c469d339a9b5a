//! Gap-size statistics (Figs. 5 and 7).
//!
//! The paper visualises traces as *gap-size timelines*: for each faultable
//! instruction, a point at (instruction index, log₁₀ of the gap since the
//! previous faultable instruction). Horizontal runs are quiet stretches;
//! vertical drops are bursts. [`GapHistogram`] is the log-bucketed
//! distribution of those gaps.

use crate::event::Burst;

/// A histogram of gap sizes in decade buckets: bucket `i` counts gaps in
/// `[10^i, 10^(i+1))`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct GapHistogram {
    buckets: [u64; 12],
    total: u64,
}

impl GapHistogram {
    /// Builds a histogram over all per-event gaps of a burst stream.
    pub fn from_bursts<I: IntoIterator<Item = Burst>>(bursts: I) -> Self {
        let mut h = GapHistogram::default();
        for b in bursts {
            h.record(b.gap_insts);
            for _ in 1..b.events {
                h.record(u64::from(b.within_gap_insts));
            }
        }
        h
    }

    /// Records one gap.
    pub fn record(&mut self, gap: u64) {
        let bucket = if gap == 0 {
            0
        } else {
            (gap as f64).log10().floor() as usize
        };
        self.buckets[bucket.min(self.buckets.len() - 1)] += 1;
        self.total += 1;
    }

    /// Count in decade bucket `i` (gaps in `[10^i, 10^(i+1))`).
    pub fn bucket(&self, i: usize) -> u64 {
        self.buckets[i]
    }

    /// Total recorded gaps.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Whether the distribution is bimodal in the burst sense: mass both
    /// below 10³ (within-burst) and at or above 10^`quiet_decade`
    /// (between bursts) — the visual signature of Figs. 5 and 7.
    pub fn is_bursty(&self, quiet_decade: usize) -> bool {
        let dense: u64 = self.buckets[..3].iter().sum();
        let quiet: u64 = self.buckets[quiet_decade..].iter().sum();
        dense > 0 && quiet > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::TraceGen;
    use crate::profile;

    #[test]
    fn histogram_buckets() {
        let mut h = GapHistogram::default();
        h.record(5); // decade 0
        h.record(50); // decade 1
        h.record(5_000_000); // decade 6
        assert_eq!(h.bucket(0), 1);
        assert_eq!(h.bucket(1), 1);
        assert_eq!(h.bucket(6), 1);
        assert_eq!(h.total(), 3);
    }

    #[test]
    fn vlc_trace_shows_fig7_bimodality() {
        // Fig. 7: AES instructions during VLC streaming execute in bursts —
        // dense within-burst gaps coexisting with ≥10⁵-instruction quiet
        // stretches.
        let p = profile::by_name("VLC").unwrap();
        let h = GapHistogram::from_bursts(TraceGen::new(p, 1).take(200));
        assert!(h.is_bursty(5), "expected bimodal gap distribution");
        // Within-burst gaps dominate by count (tens of thousands per burst).
        assert!(h.bucket(1) + h.bucket(2) > h.total() / 2);
    }
}
