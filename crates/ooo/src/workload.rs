//! Synthetic per-benchmark µop streams.
//!
//! gem5 executed real SPEC CPU2017 binaries (via SPECcast's representative
//! slices); we have no binaries, so each benchmark is modelled as a
//! statistical µop stream with the properties that matter to the §6.1
//! question — *how visible is one extra IMUL cycle?*:
//!
//! * the instruction **mix** (IMUL density: 0.99 % in 525.x264_r, 0.07 %
//!   elsewhere — §6.1; load/store/branch/FP/SIMD shares by suite),
//! * the **dependency-distance** distribution (how soon a result is
//!   consumed — short distances put latency on the critical path),
//! * **IMUL chaining** (x264's motion-estimation kernels chain multiplies;
//!   sparse IMULs elsewhere are mostly independent),
//! * the **memory footprint** and streaming behaviour (drives cache
//!   misses, which dominate the baseline CPI),
//! * **branch predictability** (drives pipeline flushes).

use suit_isa::opcode::{SPEC_AVG_IMUL_FRACTION, X264_IMUL_FRACTION};
use suit_isa::{Inst, Opcode};
use suit_rng::{Rng, SuitRng};

/// Number of rotating architectural registers used by the generator.
/// Registers above the ring are reserved; 63 is the IMUL accumulator.
const REG_RING: u64 = 56;

/// The loop-carried multiply accumulator register (never recycled by the
/// ring, so multiply chains survive arbitrarily long gaps).
pub const IMUL_ACC: u8 = 63;

/// One micro-op: a decoded instruction plus its dynamic context.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Uop {
    /// The decoded instruction (registers encode true dependencies).
    pub inst: Inst,
    /// Effective address for loads/stores.
    pub addr: Option<u64>,
    /// Actual branch outcome for branches.
    pub taken: Option<bool>,
    /// Program counter (for the branch predictor).
    pub pc: u64,
}

/// Statistical description of one benchmark's µop stream.
#[derive(Debug, Clone, PartialEq)]
pub struct UopProfile {
    /// Benchmark name.
    pub name: &'static str,
    /// Fraction of instructions that are IMUL.
    pub imul_frac: f64,
    /// Load fraction.
    pub load_frac: f64,
    /// Store fraction.
    pub store_frac: f64,
    /// Branch fraction.
    pub branch_frac: f64,
    /// Scalar FP fraction.
    pub fp_frac: f64,
    /// SIMD fraction.
    pub simd_frac: f64,
    /// Mean register dependency distance (geometric).
    pub dep_distance_mean: f64,
    /// Probability that an IMUL reads the previous IMUL's result
    /// (multiply chains).
    pub imul_chain_frac: f64,
    /// Mean length of consecutive dependent-IMUL runs (1 = isolated
    /// multiplies).
    pub imul_run_mean: f64,
    /// Fraction of instructions spent inside dense multiply kernels
    /// (525.x264's motion-estimation phases; 0 elsewhere).
    pub imul_phase_frac: f64,
    /// Local IMUL density inside a multiply kernel.
    pub imul_phase_density: f64,
    /// Data working-set size in bytes.
    pub working_set: u64,
    /// Fraction of memory accesses that stream sequentially.
    pub stream_frac: f64,
    /// Fraction of non-streaming accesses that hit a hot, L1-resident
    /// 16 kB region (temporal locality; low for pointer-chasers like mcf).
    pub hot_frac: f64,
    /// Fraction of branches with data-dependent (random) outcomes.
    pub branch_random_frac: f64,
}

impl UopProfile {
    fn int(name: &'static str, dep: f64, ws_kb: u64, brnd: f64) -> Self {
        UopProfile {
            name,
            imul_frac: SPEC_AVG_IMUL_FRACTION,
            load_frac: 0.25,
            store_frac: 0.10,
            branch_frac: 0.20,
            fp_frac: 0.0,
            simd_frac: 0.02,
            dep_distance_mean: dep,
            imul_chain_frac: 0.25,
            imul_run_mean: 1.0,
            imul_phase_frac: 0.0,
            imul_phase_density: 0.0,
            working_set: ws_kb * 1024,
            stream_frac: 0.3,
            hot_frac: 0.85,
            branch_random_frac: brnd,
        }
    }

    fn fp(name: &'static str, dep: f64, ws_kb: u64, stream: f64) -> Self {
        UopProfile {
            name,
            imul_frac: SPEC_AVG_IMUL_FRACTION,
            load_frac: 0.28,
            store_frac: 0.12,
            branch_frac: 0.06,
            fp_frac: 0.25,
            simd_frac: 0.15,
            dep_distance_mean: dep,
            imul_chain_frac: 0.25,
            imul_run_mean: 1.0,
            imul_phase_frac: 0.0,
            imul_phase_density: 0.0,
            working_set: ws_kb * 1024,
            stream_frac: stream,
            hot_frac: 0.75,
            branch_random_frac: 0.02,
        }
    }
}

/// The 23 SPEC CPU2017 µop profiles.
pub fn spec_profiles() -> Vec<UopProfile> {
    let mut v = vec![
        UopProfile::int("500.perlbench", 9.0, 128, 0.05),
        UopProfile::int("502.gcc", 8.0, 4096, 0.08),
        UopProfile {
            hot_frac: 0.45,                                   // pointer chasing: poor locality
            ..UopProfile::int("505.mcf", 6.0, 1 << 16, 0.12)  // 64 MB
        },
        UopProfile {
            hot_frac: 0.60,
            ..UopProfile::int("520.omnetpp", 7.0, 1 << 15, 0.10)
        },
        UopProfile::int("523.xalancbmk", 9.0, 2048, 0.06),
        // 525.x264: multiplies concentrate in motion-estimation kernels —
        // compute-dense phases (~10 % of execution) where every tenth
        // instruction is an IMUL chained through a loop-carried cost
        // accumulator. Inside the kernel the multiply chain *is* the
        // critical path, which is what makes Fig. 14's large-latency
        // slowdowns possible while the 3 → 4 step stays small.
        UopProfile {
            name: "525.x264",
            imul_frac: X264_IMUL_FRACTION,
            imul_chain_frac: 1.0,
            imul_phase_frac: 0.066,
            imul_phase_density: 0.15,
            dep_distance_mean: 14.0, // heavily unrolled encoder loops
            load_frac: 0.22,
            stream_frac: 0.05,
            hot_frac: 0.95, // macroblock data is cache-resident
            ..UopProfile::int("525.x264", 14.0, 512, 0.03)
        },
        UopProfile::int("531.deepsjeng", 8.0, 4096, 0.10),
        UopProfile::int("541.leela", 8.0, 1024, 0.09),
        UopProfile::int("548.exchange2", 12.0, 64, 0.01),
        UopProfile::int("557.xz", 7.0, 1 << 14, 0.09),
        UopProfile::fp("503.bwaves", 14.0, 1 << 14, 0.8),
        UopProfile::fp("507.cactuBSSN", 12.0, 1 << 13, 0.7),
        UopProfile::fp("508.namd", 10.0, 512, 0.5),
        UopProfile::fp("510.parest", 12.0, 1 << 13, 0.6),
        UopProfile::fp("511.povray", 10.0, 256, 0.3),
        UopProfile::fp("519.lbm", 16.0, 1 << 15, 0.9),
        UopProfile::fp("521.wrf", 13.0, 1 << 13, 0.7),
        UopProfile::fp("526.blender", 11.0, 2048, 0.4),
        UopProfile::fp("527.cam4", 12.0, 1 << 13, 0.6),
        UopProfile::fp("538.imagick", 10.0, 1024, 0.6),
        UopProfile::fp("544.nab", 11.0, 512, 0.4),
        UopProfile::fp("549.fotonik3d", 14.0, 1 << 14, 0.8),
        UopProfile::fp("554.roms", 14.0, 1 << 14, 0.8),
    ];
    v.sort_by_key(|p| p.name);
    v
}

/// Looks up a SPEC µop profile by name.
pub fn by_name(name: &str) -> Option<UopProfile> {
    spec_profiles().into_iter().find(|p| p.name == name)
}

/// A deterministic generator of [`Uop`]s for one profile.
#[derive(Debug, Clone)]
pub struct UopStream {
    p: UopProfile,
    rng: SuitRng,
    i: u64,
    last_imul_dst: Option<u8>,
    imul_run_left: u32,
    /// Instructions left in the current multiply kernel (0 = regular code).
    kernel_left: u64,
    /// Instructions until the next multiply kernel starts.
    until_kernel: u64,
    stream_addr: u64,
    kernel_addr: u64,
    pc: u64,
}

/// Length of one multiply kernel, instructions.
const KERNEL_LEN: u64 = 2_000;

impl UopStream {
    /// Creates a seeded stream.
    pub fn new(profile: UopProfile, seed: u64) -> Self {
        let until_kernel = if profile.imul_phase_frac > 0.0 {
            (KERNEL_LEN as f64 * (1.0 - profile.imul_phase_frac) / profile.imul_phase_frac) as u64
        } else {
            u64::MAX
        };
        UopStream {
            p: profile,
            rng: SuitRng::seed_from_u64(seed),
            i: 0,
            last_imul_dst: None,
            imul_run_left: 0,
            kernel_left: 0,
            until_kernel,
            stream_addr: 0,
            kernel_addr: 0,
            pc: 0x40_0000,
        }
    }

    fn in_kernel(&self) -> bool {
        self.kernel_left > 0
    }

    fn step_phase(&mut self) {
        if self.kernel_left > 0 {
            self.kernel_left -= 1;
        } else if self.until_kernel != u64::MAX {
            if self.until_kernel == 0 {
                self.kernel_left = KERNEL_LEN - 1;
                self.until_kernel = (KERNEL_LEN as f64 * (1.0 - self.p.imul_phase_frac)
                    / self.p.imul_phase_frac) as u64;
            } else {
                self.until_kernel -= 1;
            }
        }
    }

    // Same inverse-CDF sampler as suit_trace::gen (kept local so the
    // µop substrate stays independent of the trace crate), with the
    // result clamped against pathological draws at extreme means.
    fn geometric(&mut self, mean: f64) -> u64 {
        if mean <= 1.0 {
            return 1;
        }
        let q = 1.0 - 1.0 / mean;
        let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        let k = (u.ln() / q.ln()).floor();
        if k.is_finite() && k >= 0.0 {
            (k as u64).saturating_add(1).min(1 << 32)
        } else {
            1
        }
    }

    /// Mix inside a multiply kernel: compute-dense, cache-resident,
    /// predictable — the multiply chain is the only long dependency.
    fn sample_kernel_opcode(&mut self) -> Opcode {
        let x: f64 = self.rng.f64();
        if x < self.p.imul_phase_density {
            Opcode::Imul
        } else if x < self.p.imul_phase_density + 0.10 {
            Opcode::Load
        } else if x < self.p.imul_phase_density + 0.15 {
            Opcode::Branch
        } else {
            Opcode::Alu
        }
    }

    fn sample_opcode(&mut self) -> Opcode {
        if self.in_kernel() {
            return self.sample_kernel_opcode();
        }
        // A pending multiply run forces consecutive dependent IMULs.
        if self.imul_run_left > 0 {
            self.imul_run_left -= 1;
            return Opcode::Imul;
        }
        let x: f64 = self.rng.f64();
        let p = &self.p;
        // Run starts are rarer by the run length so the *overall* IMUL
        // density still matches `imul_frac` (kernel IMULs count toward it).
        let background = (p.imul_frac - p.imul_phase_frac * p.imul_phase_density).max(0.0);
        let mut acc = background / p.imul_run_mean.max(1.0);
        if x < acc {
            if p.imul_run_mean > 1.0 {
                self.imul_run_left = self.geometric(p.imul_run_mean).min(32) as u32;
                self.imul_run_left = self.imul_run_left.saturating_sub(1);
            }
            return Opcode::Imul;
        }
        acc += p.load_frac;
        if x < acc {
            return Opcode::Load;
        }
        acc += p.store_frac;
        if x < acc {
            return Opcode::Store;
        }
        acc += p.branch_frac;
        if x < acc {
            return Opcode::Branch;
        }
        acc += p.fp_frac;
        if x < acc {
            return Opcode::Fp;
        }
        acc += p.simd_frac;
        if x < acc {
            return Opcode::SimdOther;
        }
        Opcode::Alu
    }

    fn src_at_distance(&mut self) -> u8 {
        // Kernels unroll heavily: dependencies are farther apart than in
        // regular code.
        let mean = if self.in_kernel() {
            16.0
        } else {
            self.p.dep_distance_mean
        };
        let d = self.geometric(mean).min(REG_RING - 1);
        ((self.i + REG_RING - d) % REG_RING) as u8
    }

    fn never_written(&mut self) -> u8 {
        // Registers 56..62 are never destinations: always-ready operands.
        56 + (self.rng.u8() % 7)
    }

    fn address(&mut self) -> u64 {
        if self.in_kernel() {
            // Reference blocks live in an L1-resident 16 kB buffer.
            self.kernel_addr = (self.kernel_addr + 64) % (16 * 1024);
            return self.kernel_addr;
        }
        if self.rng.f64() < self.p.stream_frac {
            self.stream_addr = self.stream_addr.wrapping_add(64) % self.p.working_set.max(64);
            self.stream_addr
        } else if self.rng.f64() < self.p.hot_frac {
            // Hot, L1-resident 16 kB region.
            self.rng.gen_range(0..16 * 1024u64) & !7
        } else {
            self.rng.gen_range(0..self.p.working_set.max(64)) & !7
        }
    }
}

impl Iterator for UopStream {
    type Item = Uop;

    fn next(&mut self) -> Option<Uop> {
        let op = self.sample_opcode();
        // Chained multiplies read *and* write the loop-carried accumulator,
        // so the dependency survives ring recycling — the x264 pattern.
        let chained_imul = op == Opcode::Imul && self.rng.f64() < self.p.imul_chain_frac;
        let dst = if chained_imul {
            IMUL_ACC
        } else {
            (self.i % REG_RING) as u8
        };
        let src1 = if chained_imul {
            IMUL_ACC
        } else {
            self.src_at_distance()
        };
        let _ = self.never_written(); // keep RNG stream shape stable
        let src2 = self.src_at_distance();

        let (inst, addr, taken) = match op {
            Opcode::Load => (Inst::load(dst, src1), Some(self.address()), None),
            Opcode::Store => (Inst::store(src1, src2), Some(self.address()), None),
            Opcode::Branch => {
                let random = !self.in_kernel() && self.rng.f64() < self.p.branch_random_frac;
                let taken = if random {
                    self.rng.bool()
                } else {
                    // Predictable loop back-edge behaviour.
                    self.i % 16 != 0
                };
                (Inst::branch(src1), None, Some(taken))
            }
            op => (Inst::new(op, dst, src1, src2), None, None),
        };

        if op == Opcode::Imul {
            self.last_imul_dst = Some(dst);
        }
        self.step_phase();
        self.pc = self.pc.wrapping_add(4) & 0xff_ffff;
        self.i += 1;
        Some(Uop {
            inst,
            addr,
            taken,
            pc: self.pc,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn there_are_23_profiles() {
        assert_eq!(spec_profiles().len(), 23);
        assert!(by_name("525.x264").is_some());
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn x264_has_paper_imul_density() {
        let p = by_name("525.x264").unwrap();
        assert!((p.imul_frac - 0.0099).abs() < 1e-9);
        for other in spec_profiles().iter().filter(|p| p.name != "525.x264") {
            assert!((other.imul_frac - 0.0007).abs() < 1e-9, "{}", other.name);
        }
    }

    #[test]
    fn stream_is_deterministic() {
        let p = by_name("502.gcc").unwrap();
        let a: Vec<Uop> = UopStream::new(p.clone(), 7).take(1000).collect();
        let b: Vec<Uop> = UopStream::new(p, 7).take(1000).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn mix_fractions_converge() {
        let p = by_name("525.x264").unwrap();
        let n = 400_000;
        let uops: Vec<Uop> = UopStream::new(p, 3).take(n).collect();
        let imuls = uops
            .iter()
            .filter(|u| u.inst.opcode == Opcode::Imul)
            .count();
        let loads = uops
            .iter()
            .filter(|u| u.inst.opcode == Opcode::Load)
            .count();
        let f_imul = imuls as f64 / n as f64;
        let f_load = loads as f64 / n as f64;
        assert!((f_imul - 0.0099).abs() < 0.002, "imul {f_imul:.4}");
        // Global load share blends the regular mix (0.22) with the
        // load-lighter multiply kernels (0.10 over 6.6 % of the stream).
        assert!((f_load - 0.21).abs() < 0.02, "load {f_load:.3}");
    }

    #[test]
    fn dependencies_point_backwards() {
        let p = by_name("502.gcc").unwrap();
        for (i, u) in UopStream::new(p, 5).take(5000).enumerate() {
            let ring_dst = (i as u64 % REG_RING) as u8;
            let dst = u.inst.dst.unwrap_or(ring_dst);
            assert!(dst == ring_dst || dst == IMUL_ACC, "unexpected dst {dst}");
            for s in u.inst.sources() {
                // Only the multiply accumulator may read its own name
                // (a true loop-carried dependency on the previous value).
                if s == dst {
                    assert_eq!(dst, IMUL_ACC, "ring self-dependency at {i}");
                }
            }
        }
    }

    #[test]
    fn x264_multiplies_chain_through_the_accumulator() {
        let p = by_name("525.x264").unwrap();
        let imuls: Vec<Uop> = UopStream::new(p, 5)
            .take(300_000)
            .filter(|u| u.inst.opcode == Opcode::Imul)
            .collect();
        assert!(!imuls.is_empty());
        let chained = imuls
            .iter()
            .filter(|u| u.inst.dst == Some(IMUL_ACC))
            .count();
        assert!(
            chained as f64 / imuls.len() as f64 > 0.95,
            "{chained}/{} chained",
            imuls.len()
        );
    }

    #[test]
    fn addresses_stay_in_working_set() {
        let p = by_name("505.mcf").unwrap();
        let ws = p.working_set;
        for u in UopStream::new(p, 9).take(20_000) {
            if let Some(a) = u.addr {
                assert!(a < ws, "{a} outside working set {ws}");
            }
        }
    }
}
