//! Deterministic synthetic trace generation.
//!
//! [`TraceGen`] turns a [`WorkloadProfile`] into a lazy stream of
//! [`Burst`]s: burst intervals are lognormally distributed around the
//! profile mean (matching the heavy-tailed gap-size spread of Figs. 5
//! and 7), burst sizes are geometric, and opcodes are drawn from the
//! profile's mix. Everything is seeded, so a (profile, seed) pair always
//! produces the identical trace — the property the simulator's regression
//! tests rely on.

use suit_rng::{Rng, SuitRng};

use crate::event::Burst;
use crate::profile::WorkloadProfile;
use suit_isa::Opcode;

/// A standard-normal variate via Box–Muller (shared by the generators and
/// the fault model; avoids a `rand_distr` dependency).
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// A seeded iterator of [`Burst`]s for one workload.
#[derive(Debug, Clone)]
pub struct TraceGen<'p> {
    profile: &'p WorkloadProfile,
    rng: SuitRng,
    /// Instructions emitted so far (including gaps).
    pos_insts: u64,
    /// Cumulative opcode weights for sampling.
    opcode_cdf: Vec<(Opcode, f64)>,
    weight_total: f64,
}

impl<'p> TraceGen<'p> {
    /// Creates a generator for `profile` with a deterministic `seed`.
    pub fn new(profile: &'p WorkloadProfile, seed: u64) -> Self {
        let weights = profile.opcode_mix.weights();
        let mut acc = 0.0;
        let opcode_cdf: Vec<(Opcode, f64)> = weights
            .into_iter()
            .map(|(op, w)| {
                acc += w;
                (op, acc)
            })
            .collect();
        TraceGen {
            profile,
            rng: SuitRng::seed_from_u64(seed ^ hash_name(profile.name)),
            pos_insts: 0,
            weight_total: acc,
            opcode_cdf,
        }
    }

    /// Lognormal sample with the given *mean* (not median) and log-space σ.
    fn lognormal(&mut self, mean: f64, log_sigma: f64) -> f64 {
        // E[lognormal(µ, σ)] = exp(µ + σ²/2) → µ = ln(mean) − σ²/2.
        let mu = mean.ln() - 0.5 * log_sigma * log_sigma;
        (mu + log_sigma * standard_normal(&mut self.rng)).exp()
    }

    /// Geometric sample with the given mean (support ≥ 1).
    fn geometric(&mut self, mean: f64) -> u32 {
        if mean <= 1.0 {
            return 1;
        }
        let p = 1.0 / mean;
        let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        let k = (u.ln() / (1.0 - p).ln()).floor() as u64 + 1;
        k.min(u32::MAX as u64) as u32
    }

    fn sample_opcode(&mut self) -> Opcode {
        let x = self.rng.gen_range(0.0..self.weight_total);
        for (op, cum) in &self.opcode_cdf {
            if x < *cum {
                return *op;
            }
        }
        self.opcode_cdf.last().expect("non-empty mix").0
    }
}

fn hash_name(name: &str) -> u64 {
    // FNV-1a, so different profiles with the same user seed diverge.
    let mut h: u64 = 0xcbf29ce484222325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

impl Iterator for TraceGen<'_> {
    type Item = Burst;

    fn next(&mut self) -> Option<Burst> {
        if self.pos_insts >= self.profile.total_insts {
            return None;
        }
        let p = self.profile;
        // The leading gap is the lognormal interval minus the previous
        // burst's span; clamp at a small positive floor.
        let interval = self.lognormal(p.burst_interval_insts, p.interval_log_sigma);
        let span = p.events_per_burst * p.within_gap_insts;
        let gap = (interval - span).max(p.within_gap_insts * 4.0).round() as u64;

        let events = self.geometric(p.events_per_burst);
        let within = p.within_gap_insts.round().max(1.0) as u32;
        let opcode = self.sample_opcode();

        let burst = Burst::new(gap, events, within, opcode);
        self.pos_insts += burst.total_insts();
        Some(burst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceSummary;
    use crate::profile;

    #[test]
    fn generation_is_deterministic() {
        let p = profile::by_name("502.gcc").unwrap();
        let a: Vec<Burst> = TraceGen::new(p, 42).take(500).collect();
        let b: Vec<Burst> = TraceGen::new(p, 42).take(500).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let p = profile::by_name("502.gcc").unwrap();
        let a: Vec<Burst> = TraceGen::new(p, 1).take(100).collect();
        let b: Vec<Burst> = TraceGen::new(p, 2).take(100).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn same_seed_different_profiles_differ() {
        let xz = profile::by_name("557.xz").unwrap();
        let gcc = profile::by_name("502.gcc").unwrap();
        let a: Vec<u64> = TraceGen::new(xz, 7).take(50).map(|b| b.gap_insts).collect();
        let b: Vec<u64> = TraceGen::new(gcc, 7)
            .take(50)
            .map(|b| b.gap_insts)
            .collect();
        assert_ne!(a, b);
    }

    #[test]
    fn mean_interval_converges_to_profile() {
        let p = profile::by_name("511.povray").unwrap();
        let bursts: Vec<Burst> = TraceGen::new(p, 9).take(4000).collect();
        let mean_total: f64 =
            bursts.iter().map(|b| b.total_insts() as f64).sum::<f64>() / bursts.len() as f64;
        let rel = mean_total / p.burst_interval_insts;
        assert!((0.85..1.15).contains(&rel), "interval ratio {rel:.3}");
    }

    #[test]
    fn mean_events_per_burst_converges() {
        let p = profile::by_name("502.gcc").unwrap();
        let bursts: Vec<Burst> = TraceGen::new(p, 5).take(4000).collect();
        let mean: f64 =
            bursts.iter().map(|b| f64::from(b.events)).sum::<f64>() / bursts.len() as f64;
        let rel = mean / p.events_per_burst;
        assert!((0.85..1.15).contains(&rel), "events ratio {rel:.3}");
    }

    #[test]
    fn trace_terminates_at_total_insts() {
        let mut p = profile::by_name("505.mcf").unwrap().clone();
        p.total_insts = 50_000_000;
        let s = TraceSummary::from_bursts(TraceGen::new(&p, 3));
        assert!(s.insts >= p.total_insts, "stream ended early: {}", s.insts);
        // One burst of overshoot at most.
        assert!(s.insts < p.total_insts + 20 * p.burst_interval_insts as u64);
    }

    #[test]
    fn crypto_profiles_emit_aes() {
        let p = profile::by_name("Nginx").unwrap();
        let bursts: Vec<Burst> = TraceGen::new(p, 11).take(200).collect();
        let aes = bursts
            .iter()
            .filter(|b| b.opcode == suit_isa::Opcode::Aesenc)
            .count();
        assert!(
            aes > bursts.len() / 2,
            "AES should dominate Nginx ({aes}/200)"
        );
        // Dense bursts: tens of thousands of events (62 500 AESENC per
        // 100 kB request).
        let mean_events: f64 =
            bursts.iter().map(|b| f64::from(b.events)).sum::<f64>() / bursts.len() as f64;
        assert!(mean_events > 10_000.0, "{mean_events}");
    }

    #[test]
    fn gaps_are_heavy_tailed() {
        // Lognormal σ = 0.6 ⇒ p95/p50 ≈ e^(1.65·0.6) ≈ 2.7; check spread.
        let p = profile::by_name("526.blender").unwrap();
        let mut gaps: Vec<u64> = TraceGen::new(p, 13)
            .take(2000)
            .map(|b| b.gap_insts)
            .collect();
        gaps.sort_unstable();
        let p50 = gaps[gaps.len() / 2] as f64;
        let p95 = gaps[gaps.len() * 95 / 100] as f64;
        assert!(p95 / p50 > 1.8, "p95/p50 = {:.2}", p95 / p50);
    }
}
