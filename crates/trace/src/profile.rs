//! Per-application workload profiles (§5.1, §6.2).
//!
//! Each [`WorkloadProfile`] describes one of the paper's 25 traced
//! applications: all 23 SPEC CPU2017 benchmarks, the Nginx HTTPS server,
//! and VLC streaming. Since the original QEMU traces are not available,
//! the profiles encode the *burst statistics* the paper reports or implies
//! and the generator reproduces them synthetically.
//!
//! ## Calibration
//!
//! Burst intervals are derived from each benchmark's **target residency**
//! — the fraction of time SUIT keeps it on the efficient DVFS curve under
//! the 𝑓𝑉 strategy on CPU 𝒞 at −97 mV. The paper pins three of these
//! directly (557.xz 97.1 %, 502.gcc 76.6 %, 520.omnetpp 3.2 %; average
//! 72.7 %, §6.4) and orders the rest by efficiency gain in Fig. 16; the
//! remaining targets are interpolated along that order. Given a residency
//! `r` and a burst span `s`, the mean burst interval is
//! `(s + c) / (1 − r)` where `c ≈ 84 µs` is the per-episode conservative
//! overhead at the Table 7 parameters (switch stalls + deadline).
//!
//! IMUL density comes from §6.1 (0.99 % for 525.x264, 0.07 % average
//! elsewhere); the no-SIMD recompile overheads from Table 4 (per-CPU
//! vendor); IPC values are representative per-benchmark figures used only
//! to convert instruction counts to time.

use std::sync::OnceLock;

use suit_isa::opcode::{SPEC_AVG_IMUL_FRACTION, X264_IMUL_FRACTION};
use suit_isa::Opcode;

/// Which application group a profile belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Suite {
    /// SPEC CPU2017 integer suite.
    SpecInt,
    /// SPEC CPU2017 floating-point suite.
    SpecFp,
    /// Network applications (Nginx server, VLC client).
    Network,
}

/// A weighted mix of faultable opcodes appearing in a workload's bursts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpcodeMix {
    /// General SIMD mix in Table 1 proportions (SPEC benchmarks).
    SpecSimd,
    /// AES-heavy crypto mix: `AESENC` with some `VPCLMULQDQ` (GCM) and
    /// `VXOR` (Nginx / VLC HTTPS traffic).
    Crypto,
    /// A single opcode (used by targeted tests and ablations).
    Only(Opcode),
}

impl OpcodeMix {
    /// The weighted opcode table for this mix. Weights follow the Table 1
    /// fault-count proportions for [`OpcodeMix::SpecSimd`] (excluding IMUL,
    /// which is hardened rather than trapped).
    pub fn weights(&self) -> Vec<(Opcode, f64)> {
        match self {
            OpcodeMix::SpecSimd => vec![
                (Opcode::Vor, 47.0),
                (Opcode::Vxor, 40.0),
                (Opcode::Vandn, 30.0),
                (Opcode::Vand, 28.0),
                (Opcode::Vsqrtpd, 24.0),
                (Opcode::Vpsrad, 9.0),
                (Opcode::Vpcmp, 5.0),
                (Opcode::Vpmax, 3.0),
                (Opcode::Vpaddq, 1.0),
            ],
            OpcodeMix::Crypto => vec![
                (Opcode::Aesenc, 10.0),
                (Opcode::Vpclmulqdq, 1.0),
                (Opcode::Vxor, 2.0),
            ],
            OpcodeMix::Only(op) => vec![(*op, 1.0)],
        }
    }
}

/// Reference frequency used to convert between µs-denominated burst
/// statistics and instruction counts, GHz (the i9-9900K / Xeon SPEC mean).
pub const REFERENCE_FREQ_GHZ: f64 = 4.5;

/// Per-episode conservative overhead at the Table 7 parameters, µs:
/// two 27 µs switch stalls plus the 30 µs deadline tail.
pub const EPISODE_OVERHEAD_US: f64 = 84.0;

/// A traced application's burst statistics and metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadProfile {
    /// Benchmark name as the paper prints it (e.g. `"557.xz"`).
    pub name: &'static str,
    /// Suite membership.
    pub suite: Suite,
    /// Mean instructions per cycle (for instruction ↔ time conversion,
    /// mirroring the paper's INSTRUCTIONS_RETIRED calibration).
    pub ipc: f64,
    /// Virtual trace length in instructions.
    pub total_insts: u64,
    /// Fraction of instructions that are IMUL (§6.1).
    pub imul_fraction: f64,
    /// Score change when compiled without SSE/AVX on Intel (Table 4;
    /// negative = slower without SIMD).
    pub no_simd_intel: f64,
    /// Score change when compiled without SSE/AVX on AMD (Table 4).
    pub no_simd_amd: f64,
    /// Calibration target: efficient-curve residency under 𝑓𝑉 on CPU 𝒞 at
    /// −97 mV.
    pub target_residency: f64,
    /// Mean instructions between burst starts.
    pub burst_interval_insts: f64,
    /// Log-space σ of the lognormal burst-interval distribution.
    pub interval_log_sigma: f64,
    /// Mean faultable instructions per burst (geometric distribution).
    pub events_per_burst: f64,
    /// Mean non-faultable instructions between events inside a burst.
    pub within_gap_insts: f64,
    /// Which faultable opcodes the bursts contain.
    pub opcode_mix: OpcodeMix,
}

impl WorkloadProfile {
    /// Instructions executed per microsecond at the reference frequency.
    pub fn insts_per_us(&self) -> f64 {
        self.ipc * REFERENCE_FREQ_GHZ * 1e3
    }

    /// Mean burst interval in µs at the reference frequency.
    pub fn burst_interval_us(&self) -> f64 {
        self.burst_interval_insts / self.insts_per_us()
    }

    /// Mean instructions between faultable instructions over the whole
    /// trace (the §1 "one every N instructions" metric).
    pub fn mean_event_gap_insts(&self) -> f64 {
        self.burst_interval_insts / self.events_per_burst
    }

    /// The no-SIMD recompile overhead for a CPU vendor (`true` = Intel).
    pub fn no_simd_overhead(&self, intel: bool) -> f64 {
        if intel {
            self.no_simd_intel
        } else {
            self.no_simd_amd
        }
    }
}

/// Builds one SPEC profile from calibration targets.
///
/// `span_us` is the burst duration; the interval is derived from the
/// target residency as described in the module docs. `within_gap_insts`
/// sets the *density* of faultable instructions inside a burst — dense
/// vectorized loops (25–250 instructions between faultable SIMD ops, e.g.
/// 519.lbm, 508.namd) are the workloads the paper finds catastrophic under
/// the emulation strategy, while sparse ones (thousands of instructions)
/// emulate almost for free.
#[allow(clippy::too_many_arguments)]
fn spec(
    name: &'static str,
    suite: Suite,
    ipc: f64,
    imul_fraction: f64,
    no_simd_intel: f64,
    no_simd_amd: f64,
    target_residency: f64,
    span_us: f64,
    within_gap_insts: f64,
) -> WorkloadProfile {
    assert!((0.0..1.0).contains(&target_residency));
    let insts_per_us = ipc * REFERENCE_FREQ_GHZ * 1e3;
    let interval_us = (span_us + EPISODE_OVERHEAD_US) / (1.0 - target_residency);
    let span_insts = span_us * insts_per_us;
    WorkloadProfile {
        name,
        suite,
        ipc,
        total_insts: 20_000_000_000,
        imul_fraction,
        no_simd_intel,
        no_simd_amd,
        target_residency,
        burst_interval_insts: interval_us * insts_per_us,
        interval_log_sigma: 0.6,
        events_per_burst: span_insts / within_gap_insts,
        within_gap_insts,
        opcode_mix: OpcodeMix::SpecSimd,
    }
}

/// All 25 profiles, in the Fig. 16 presentation order (decreasing
/// efficiency gain), network applications last.
pub fn all() -> &'static [WorkloadProfile] {
    static PROFILES: OnceLock<Vec<WorkloadProfile>> = OnceLock::new();
    PROFILES.get_or_init(build_profiles)
}

fn build_profiles() -> Vec<WorkloadProfile> {
    let avg_imul = SPEC_AVG_IMUL_FRACTION;
    let mut v = vec![
        // name, suite, ipc, imul, noSIMD(intel), noSIMD(amd), residency, span µs, within-gap insts
        spec(
            "523.xalancbmk",
            Suite::SpecInt,
            1.3,
            avg_imul,
            -0.002,
            -0.003,
            0.975,
            120.0,
            330.0,
        ),
        spec(
            "557.xz",
            Suite::SpecInt,
            1.1,
            avg_imul,
            -0.005,
            -0.007,
            0.971,
            300.0,
            10_000.0,
        ),
        spec(
            "549.fotonik3d",
            Suite::SpecFp,
            1.6,
            avg_imul,
            -0.030,
            -0.042,
            0.960,
            200.0,
            5_000.0,
        ),
        spec(
            "505.mcf",
            Suite::SpecInt,
            0.5,
            avg_imul,
            0.000,
            0.000,
            0.955,
            150.0,
            250.0,
        ),
        spec(
            "531.deepsjeng",
            Suite::SpecInt,
            1.5,
            avg_imul,
            -0.005,
            -0.007,
            0.945,
            180.0,
            1_000.0,
        ),
        spec(
            "548.exchange2",
            Suite::SpecInt,
            2.3,
            avg_imul,
            0.077,
            0.068,
            0.935,
            150.0,
            10_000.0,
        ),
        spec(
            "519.lbm",
            Suite::SpecFp,
            1.0,
            avg_imul,
            -0.030,
            -0.042,
            0.925,
            250.0,
            25.0,
        ),
        spec(
            "541.leela",
            Suite::SpecInt,
            1.4,
            avg_imul,
            -0.003,
            -0.004,
            0.910,
            200.0,
            1_500.0,
        ),
        spec(
            "538.imagick",
            Suite::SpecFp,
            2.0,
            avg_imul,
            -0.120,
            -0.090,
            0.890,
            300.0,
            2_000.0,
        ),
        spec(
            "525.x264",
            Suite::SpecInt,
            2.2,
            X264_IMUL_FRACTION,
            0.070,
            0.220,
            0.870,
            250.0,
            20_000.0,
        ),
        spec(
            "510.parest",
            Suite::SpecFp,
            1.6,
            avg_imul,
            -0.020,
            -0.028,
            0.820,
            280.0,
            20_000.0,
        ),
        spec(
            "502.gcc",
            Suite::SpecInt,
            1.2,
            avg_imul,
            -0.008,
            -0.011,
            0.766,
            300.0,
            3_000.0,
        ),
        spec(
            "508.namd",
            Suite::SpecFp,
            2.2,
            avg_imul,
            -0.220,
            -0.350,
            0.750,
            350.0,
            150.0,
        ),
        spec(
            "526.blender",
            Suite::SpecFp,
            1.7,
            avg_imul,
            -0.020,
            -0.028,
            0.710,
            320.0,
            34_000.0,
        ),
        spec(
            "511.povray",
            Suite::SpecFp,
            1.9,
            avg_imul,
            -0.010,
            -0.014,
            0.670,
            300.0,
            42_000.0,
        ),
        spec(
            "507.cactuBSSN",
            Suite::SpecFp,
            1.3,
            avg_imul,
            -0.020,
            -0.028,
            0.630,
            350.0,
            4_000.0,
        ),
        spec(
            "500.perlbench",
            Suite::SpecInt,
            1.8,
            avg_imul,
            -0.010,
            -0.014,
            0.590,
            280.0,
            40_000.0,
        ),
        spec(
            "503.bwaves",
            Suite::SpecFp,
            1.9,
            avg_imul,
            -0.015,
            -0.021,
            0.540,
            400.0,
            250.0,
        ),
        spec(
            "554.roms",
            Suite::SpecFp,
            1.5,
            avg_imul,
            -0.033,
            -0.190,
            0.490,
            380.0,
            180.0,
        ),
        spec(
            "544.nab",
            Suite::SpecFp,
            1.7,
            avg_imul,
            -0.020,
            -0.028,
            0.430,
            360.0,
            9_000.0,
        ),
        spec(
            "527.cam4",
            Suite::SpecFp,
            1.4,
            avg_imul,
            -0.020,
            -0.028,
            0.330,
            400.0,
            9_000.0,
        ),
        spec(
            "520.omnetpp",
            Suite::SpecInt,
            0.8,
            avg_imul,
            -0.003,
            -0.004,
            0.032,
            20.0,
            3_500.0,
        ),
        spec(
            "521.wrf",
            Suite::SpecFp,
            1.5,
            avg_imul,
            -0.014,
            -0.053,
            0.100,
            60.0,
            190.0,
        ),
    ];
    // Nginx: wrk-driven HTTPS serving of 100 kB files. Each request
    // encrypts ~6 250 AES blocks (62 500 AESENC rounds) plus GCM GHASH
    // carry-less multiplies — one dense crypto burst per request.
    v.push(WorkloadProfile {
        name: "Nginx",
        suite: Suite::Network,
        ipc: 1.2,
        total_insts: 20_000_000_000,
        imul_fraction: SPEC_AVG_IMUL_FRACTION,
        no_simd_intel: -0.30, // bit-sliced AES is far slower than AES-NI
        no_simd_amd: -0.30,
        target_residency: 0.45,
        burst_interval_insts: {
            let insts_per_us = 1.2 * REFERENCE_FREQ_GHZ * 1e3;
            let span_us = 800.0; // pipelined requests: ≈ 108 000 crypto ops
            (span_us + EPISODE_OVERHEAD_US) / (1.0 - 0.45) * insts_per_us
        },
        interval_log_sigma: 0.4,
        events_per_burst: 800.0 * 1.2 * REFERENCE_FREQ_GHZ * 1e3 / 40.0,
        within_gap_insts: 40.0,
        opcode_mix: OpcodeMix::Crypto,
    });
    // VLC: streaming a 1080p video over HTTPS (Fig. 7's AES timeline):
    // periodic decrypt bursts as network buffers drain.
    v.push(WorkloadProfile {
        name: "VLC",
        suite: Suite::Network,
        ipc: 1.5,
        total_insts: 20_000_000_000,
        imul_fraction: SPEC_AVG_IMUL_FRACTION,
        no_simd_intel: -0.25,
        no_simd_amd: -0.25,
        target_residency: 0.48,
        burst_interval_insts: {
            let insts_per_us = 1.5 * REFERENCE_FREQ_GHZ * 1e3;
            let span_us = 600.0; // decrypt burst per network-buffer drain
            (span_us + EPISODE_OVERHEAD_US) / (1.0 - 0.48) * insts_per_us
        },
        interval_log_sigma: 0.8,
        events_per_burst: 600.0 * 1.5 * REFERENCE_FREQ_GHZ * 1e3 / 150.0,
        within_gap_insts: 150.0,
        opcode_mix: OpcodeMix::Crypto,
    });
    v
}

/// The 23 SPEC CPU2017 profiles.
pub fn spec_suite() -> impl Iterator<Item = &'static WorkloadProfile> {
    all().iter().filter(|p| p.suite != Suite::Network)
}

/// Looks a profile up by its paper name.
pub fn by_name(name: &str) -> Option<&'static WorkloadProfile> {
    all().iter().find(|p| p.name == name)
}

/// Checks that `name` names a profile (see `suit-cli list`).
pub fn check_name(name: &str) -> Result<(), String> {
    match by_name(name) {
        Some(_) => Ok(()),
        None => Err(format!("unknown workload '{name}'")),
    }
}

/// Named multi-core workload mixes for consolidation studies (§3.1's
/// "laptop CPUs often only have up to 4 cores that tend to be
/// underutilized given typical office or web browsing usage" and the
/// data-center scenarios of §6.4).
pub fn mix(name: &str) -> Option<Vec<&'static WorkloadProfile>> {
    let names: &[&str] = match name {
        // A laptop doing office work next to a media stream.
        "office" => &["523.xalancbmk", "500.perlbench", "557.xz", "VLC"],
        // A web server: TLS front end plus application logic.
        "webserver" => &["Nginx", "502.gcc", "520.omnetpp", "557.xz"],
        // A compute node: dense FP kernels.
        "hpc" => &["519.lbm", "503.bwaves", "554.roms", "549.fotonik3d"],
        // Video pipeline: encode + decode + housekeeping.
        "media" => &["525.x264", "VLC", "538.imagick", "541.leela"],
        _ => return None,
    };
    names.iter().map(|n| by_name(n)).collect()
}

/// The available [`mix`] names.
pub const MIX_NAMES: [&str; 4] = ["office", "webserver", "hpc", "media"];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn there_are_25_profiles_23_spec() {
        assert_eq!(all().len(), 25);
        assert_eq!(spec_suite().count(), 23);
        let ints = all().iter().filter(|p| p.suite == Suite::SpecInt).count();
        let fps = all().iter().filter(|p| p.suite == Suite::SpecFp).count();
        assert_eq!(ints, 10, "SPECint 2017 has 10 rate benchmarks");
        assert_eq!(fps, 13, "SPECfp 2017 has 13 rate benchmarks");
    }

    #[test]
    fn names_are_unique_and_lookup_works() {
        let mut names: Vec<_> = all().iter().map(|p| p.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 25);
        assert!(by_name("557.xz").is_some());
        assert!(by_name("nonexistent").is_none());
    }

    #[test]
    fn paper_pinned_residencies() {
        assert!((by_name("557.xz").unwrap().target_residency - 0.971).abs() < 1e-9);
        assert!((by_name("502.gcc").unwrap().target_residency - 0.766).abs() < 1e-9);
        assert!((by_name("520.omnetpp").unwrap().target_residency - 0.032).abs() < 1e-9);
    }

    #[test]
    fn mean_spec_residency_near_72_7_percent() {
        let mean: f64 = spec_suite().map(|p| p.target_residency).sum::<f64>() / 23.0;
        assert!((mean - 0.727).abs() < 0.05, "mean residency {mean:.3}");
    }

    #[test]
    fn x264_imul_density_matches_section_6_1() {
        assert!((by_name("525.x264").unwrap().imul_fraction - 0.0099).abs() < 1e-9);
        let others: Vec<_> = spec_suite().filter(|p| p.name != "525.x264").collect();
        for p in others {
            assert!((p.imul_fraction - 0.0007).abs() < 1e-9, "{}", p.name);
        }
    }

    #[test]
    fn table4_no_simd_anchors() {
        assert_eq!(by_name("508.namd").unwrap().no_simd_intel, -0.22);
        assert_eq!(by_name("508.namd").unwrap().no_simd_amd, -0.35);
        assert_eq!(by_name("525.x264").unwrap().no_simd_intel, 0.07);
        assert_eq!(by_name("525.x264").unwrap().no_simd_amd, 0.22);
        assert_eq!(by_name("548.exchange2").unwrap().no_simd_intel, 0.077);
        assert_eq!(by_name("554.roms").unwrap().no_simd_amd, -0.19);
    }

    #[test]
    fn no_simd_suite_means_match_table4() {
        // Table 4: fprate −4.1 % / intrate +0.5 % on the i9-9900K.
        let fp: Vec<_> = all().iter().filter(|p| p.suite == Suite::SpecFp).collect();
        let int: Vec<_> = all().iter().filter(|p| p.suite == Suite::SpecInt).collect();
        let fp_mean = fp.iter().map(|p| p.no_simd_intel).sum::<f64>() / fp.len() as f64;
        let int_mean = int.iter().map(|p| p.no_simd_intel).sum::<f64>() / int.len() as f64;
        assert!((fp_mean - (-0.041)).abs() < 0.015, "fp mean {fp_mean:.3}");
        assert!((int_mean - 0.005).abs() < 0.01, "int mean {int_mean:.3}");
    }

    #[test]
    fn derived_intervals_follow_residency_formula() {
        let p = by_name("557.xz").unwrap();
        let expected_interval_us = (300.0 + EPISODE_OVERHEAD_US) / (1.0 - 0.971);
        assert!((p.burst_interval_us() - expected_interval_us).abs() < 1.0);
        // xz spends multi-millisecond stretches without faultable
        // instructions — the §5.1 pattern.
        assert!(p.burst_interval_us() > 10_000.0);
    }

    #[test]
    fn average_faultable_gap_is_billions_of_instructions_for_quiet_apps() {
        // §1: on SPEC average, one *infrequent* faultable instruction every
        // ~5 × 10⁹ instructions. Our quietest profiles must be in the 10⁵+
        // range of mean event gaps and dominate the time-weighted picture;
        // sanity-check order of magnitude spread.
        let xz = by_name("557.xz").unwrap();
        let omnetpp = by_name("520.omnetpp").unwrap();
        assert!(xz.mean_event_gap_insts() > 50_000.0);
        assert!(omnetpp.mean_event_gap_insts() < xz.mean_event_gap_insts());
    }

    #[test]
    fn within_burst_gaps_stay_under_deadline() {
        // The deadline (30 µs) must not expire inside a burst, or a burst
        // would fragment into many episodes.
        for p in all() {
            let within_us = p.within_gap_insts / p.insts_per_us();
            assert!(within_us < 30.0, "{}: within-gap {within_us} µs", p.name);
        }
    }

    #[test]
    fn named_mixes_resolve() {
        for name in MIX_NAMES {
            let m = mix(name).unwrap_or_else(|| panic!("{name}"));
            assert_eq!(m.len(), 4, "{name}");
        }
        assert!(mix("nope").is_none());
    }

    #[test]
    fn opcode_mixes_are_well_formed() {
        for p in all() {
            let w = p.opcode_mix.weights();
            assert!(!w.is_empty());
            for (op, weight) in w {
                assert!(op.is_faultable(), "{op}");
                assert!(weight > 0.0);
            }
        }
    }
}
