//! A PC-indexed stride prefetcher for the data-cache hierarchy.
//!
//! gem5's classic cache configurations attach a stride prefetcher to the
//! L1D; without one, streaming benchmarks (519.lbm, 503.bwaves) pay a
//! DRAM round trip per line and the model's baseline CPI drifts far from
//! hardware. The design is the textbook RPT (reference prediction table):
//! per load PC, remember the last address and stride; after two
//! confirmations, prefetch `degree` lines ahead.

use crate::cache::{Hierarchy, LINE_BYTES};

/// One reference-prediction-table entry.
#[derive(Debug, Clone, Copy, Default)]
struct RptEntry {
    tag: u64,
    last_addr: u64,
    stride: i64,
    confidence: u8,
}

/// A stride prefetcher in front of a [`Hierarchy`].
#[derive(Debug, Clone)]
pub struct StridePrefetcher {
    table: Vec<RptEntry>,
    mask: u64,
    degree: u32,
    issued: u64,
}

impl StridePrefetcher {
    /// Creates a prefetcher with `2^index_bits` RPT entries fetching
    /// `degree` lines ahead.
    pub fn new(index_bits: u32, degree: u32) -> Self {
        assert!((4..=16).contains(&index_bits));
        assert!((1..=8).contains(&degree));
        StridePrefetcher {
            table: vec![RptEntry::default(); 1 << index_bits],
            mask: (1 << index_bits) - 1,
            degree,
            issued: 0,
        }
    }

    /// Observes a demand load at (`pc`, `addr`) and issues prefetches into
    /// the hierarchy when the stride is confirmed.
    pub fn observe(&mut self, hier: &mut Hierarchy, pc: u64, addr: u64) {
        let idx = ((pc >> 2) & self.mask) as usize;
        let e = &mut self.table[idx];
        let tag = pc >> 2;
        if e.tag != tag {
            *e = RptEntry {
                tag,
                last_addr: addr,
                stride: 0,
                confidence: 0,
            };
            return;
        }
        let stride = addr as i64 - e.last_addr as i64;
        if stride == e.stride && stride != 0 {
            e.confidence = (e.confidence + 1).min(3);
        } else {
            e.stride = stride;
            e.confidence = 0;
        }
        e.last_addr = addr;

        if e.confidence >= 2 {
            for k in 1..=self.degree as i64 {
                let target = addr as i64 + e.stride * k;
                if target >= 0 {
                    // Fill the hierarchy; latency is hidden (off the
                    // demand path).
                    self.issued += 1;
                    if !hier.l1d.access(target as u64) {
                        let _ = hier.llc.access(target as u64);
                    }
                }
            }
        }
    }

    /// Prefetches issued so far.
    pub fn issued(&self) -> u64 {
        self.issued
    }
}

/// Default prefetcher geometry: 256-entry RPT, 2 lines ahead — the gem5
/// `StridePrefetcher` defaults, roughly.
impl Default for StridePrefetcher {
    fn default() -> Self {
        StridePrefetcher::new(8, 2)
    }
}

/// Convenience constant used by tests.
pub const LINE: u64 = LINE_BYTES;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::O3Config;

    fn hierarchy() -> Hierarchy {
        Hierarchy::new(&O3Config::default())
    }

    #[test]
    fn sequential_stream_gets_covered() {
        let mut h = hierarchy();
        let mut pf = StridePrefetcher::default();
        let pc = 0x400100;
        let mut misses = 0;
        for i in 0..2_000u64 {
            let addr = i * LINE;
            let lat = h.load_latency(addr);
            if lat > 4 {
                misses += 1;
            }
            pf.observe(&mut h, pc, addr);
        }
        // After warm-up the stream hits prefetched lines.
        assert!(misses < 2_000 / 3, "{misses} misses with prefetching");
        assert!(pf.issued() > 1_000);
    }

    #[test]
    fn without_prefetcher_the_stream_always_misses() {
        let mut h = hierarchy();
        let mut misses = 0;
        for i in 0..2_000u64 {
            if h.load_latency(i * LINE) > 4 {
                misses += 1;
            }
        }
        assert_eq!(misses, 2_000, "cold stream misses every line");
    }

    #[test]
    fn random_accesses_do_not_trigger_prefetch() {
        let mut h = hierarchy();
        let mut pf = StridePrefetcher::default();
        let pc = 0x400200;
        // Pseudo-random addresses: strides never repeat.
        let mut addr = 0x12345u64;
        for _ in 0..1_000 {
            addr = addr
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            pf.observe(&mut h, pc, addr & 0xFFFFFF);
        }
        assert_eq!(pf.issued(), 0, "no confirmed stride, no prefetch");
    }

    #[test]
    fn negative_strides_work() {
        let mut h = hierarchy();
        let mut pf = StridePrefetcher::default();
        let pc = 0x400300;
        let base = 1 << 20;
        let mut misses_late = 0;
        for i in 0..500u64 {
            let addr = base - i * LINE;
            let lat = h.load_latency(addr);
            if i > 50 && lat > 4 {
                misses_late += 1;
            }
            pf.observe(&mut h, pc, addr);
        }
        assert!(misses_late < 450 / 2, "{misses_late}");
    }

    #[test]
    fn distinct_pcs_track_independent_strides() {
        let mut h = hierarchy();
        let mut pf = StridePrefetcher::default();
        // PCs chosen not to collide in the 256-entry RPT.
        for i in 0..200u64 {
            pf.observe(&mut h, 0x1004, i * LINE);
            pf.observe(&mut h, 0x2008, (1 << 22) + i * 4 * LINE);
        }
        assert!(pf.issued() > 300, "both streams confirmed: {}", pf.issued());
    }

    #[test]
    #[should_panic]
    fn rejects_degenerate_geometry() {
        let _ = StridePrefetcher::new(2, 1);
    }
}
