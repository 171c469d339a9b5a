//! Closed-form evaluation of the emulation and no-SIMD modes.
//!
//! Neither mode ever leaves the efficient curve, so no event interleaving
//! matters and the paper evaluates them arithmetically (§6.2):
//!
//! * **Emulation** — the run is slowed by the benchmark's *no-SIMD
//!   recompile overhead* (the emulated instructions execute scalar code,
//!   §5.8) and each disabled instruction additionally pays the
//!   emulation-call round trip of §5.3 (0.77 µs Intel / 0.27 µs AMD, two
//!   kernel transitions).
//! * **No-SIMD** — the application was compiled without SSE/AVX, contains
//!   no faultable instructions at all (IMUL is hardened in hardware), and
//!   runs permanently on the efficient curve at the recompile overhead.
//!
//! Both still carry the 4-cycle-IMUL penalty, like everything on a SUIT
//! CPU.
//!
//! Callers need not pick the path: [`crate::engine::simulate`] hands a
//! [`crate::engine::SimConfig`] whose strategy is `e` to
//! [`simulate_emulation`], and runs every other strategy on the engine.

use suit_hw::{CpuKind, CpuModel, Point, UndervoltLevel};
use suit_isa::SimDuration;
use suit_trace::{TraceGen, WorkloadProfile};

use crate::engine::{imul_penalty, point_table};
use crate::result::RunResult;
use suit_core::OperatingStrategy;

fn is_intel(cpu: &CpuModel) -> bool {
    !matches!(cpu.kind, CpuKind::AmdRyzen7700X)
}

/// The shared closed form of both always-on-E modes: the run is the
/// baseline slowed by the no-SIMD recompile factor and the hardened-IMUL
/// penalty, plus `events` emulation round trips.
fn analytic_run(
    cpu: &CpuModel,
    profile: &WorkloadProfile,
    level: UndervoltLevel,
    cap: u64,
    events: u64,
) -> RunResult {
    assert!(cap > 0, "instruction budget must be positive");
    let pen = 1.0 - imul_penalty(profile);
    let e = point_table(cpu, level, OperatingStrategy::Emulation)[Point::E as usize];
    let no_simd = profile.no_simd_overhead(is_intel(cpu));
    let base_rate = profile.ipc * cpu.steady.base_freq_ghz * 1e9;
    let base_secs = cap as f64 / base_rate;

    let exec_secs = base_secs / (e.perf * (1.0 + no_simd) * pen);
    let emu_secs = events as f64 * cpu.emulation_call_delay().as_secs_f64();
    let duration = SimDuration::from_secs_f64(exec_secs + emu_secs);

    RunResult {
        workload: profile.name.to_string(),
        duration,
        baseline_duration: SimDuration::from_secs_f64(base_secs),
        energy_rel: e.power * duration.as_secs_f64(),
        time_e: duration,
        time_cf: SimDuration::ZERO,
        time_cv: SimDuration::ZERO,
        time_stall: SimDuration::from_secs_f64(emu_secs),
        events,
        exceptions: events,
        timer_fires: 0,
        thrash_hits: 0,
    }
}

/// Simulates the emulation strategy (𝑒) for one workload.
///
/// `max_insts` caps the virtual trace like [`crate::engine::SimConfig`].
pub fn simulate_emulation(
    cpu: &CpuModel,
    profile: &WorkloadProfile,
    level: UndervoltLevel,
    seed: u64,
    max_insts: Option<u64>,
) -> RunResult {
    let cap = max_insts
        .unwrap_or(profile.total_insts)
        .min(profile.total_insts);

    // Count the disabled instructions the trace executes.
    let mut events: u64 = 0;
    let mut insts: u64 = 0;
    for b in TraceGen::new(profile, seed) {
        insts += b.total_insts();
        if insts > cap {
            break;
        }
        events += u64::from(b.events);
    }

    analytic_run(cpu, profile, level, cap, events)
}

/// Simulates a workload recompiled without SIMD instructions (§5.8, the
/// SPECnoSIMD column of Table 6): no faultable instructions exist, so the
/// CPU never leaves the efficient curve.
pub fn simulate_no_simd(
    cpu: &CpuModel,
    profile: &WorkloadProfile,
    level: UndervoltLevel,
    max_insts: Option<u64>,
) -> RunResult {
    let cap = max_insts
        .unwrap_or(profile.total_insts)
        .min(profile.total_insts);
    analytic_run(cpu, profile, level, cap, 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use suit_trace::profile;

    const CAP: Option<u64> = Some(2_000_000_000);

    #[test]
    fn nginx_emulation_is_catastrophic() {
        // Table 6 𝒜∞ 𝑒: Nginx performance −98 % — every AES instruction of
        // every HTTPS request traps into the kernel twice.
        let cpu = CpuModel::i9_9900k();
        let p = profile::by_name("Nginx").unwrap();
        let r = simulate_emulation(&cpu, p, UndervoltLevel::Mv97, 1, CAP);
        assert!(r.perf() < -0.90, "perf {:.3}", r.perf());
        assert!(r.residency() > 0.999, "emulation never leaves E");
    }

    #[test]
    fn quiet_benchmark_emulates_for_free() {
        // 557.xz executes faultable instructions so rarely that emulation
        // keeps nearly the whole efficient-curve benefit.
        let cpu = CpuModel::i9_9900k();
        let p = profile::by_name("557.xz").unwrap();
        let r = simulate_emulation(&cpu, p, UndervoltLevel::Mv97, 1, CAP);
        assert!(r.perf() > 0.0, "perf {:.3}", r.perf());
        assert!(r.efficiency() > 0.15, "eff {:.3}", r.efficiency());
    }

    #[test]
    fn dense_simd_benchmark_dies_under_emulation() {
        // 519.lbm: a faultable SIMD op every ~25 instructions.
        let cpu = CpuModel::i9_9900k();
        let p = profile::by_name("519.lbm").unwrap();
        let r = simulate_emulation(&cpu, p, UndervoltLevel::Mv97, 1, CAP);
        assert!(r.perf() < -0.70, "perf {:.3}", r.perf());
    }

    #[test]
    fn amd_emulates_cheaper_than_intel() {
        // §6.6: emulation is more efficient on ℬ "due to the shorter
        // exception delay" (0.27 µs vs 0.77 µs round trip).
        let a = CpuModel::i9_9900k();
        let b = CpuModel::ryzen_7700x();
        let p = profile::by_name("502.gcc").unwrap();
        let ra = simulate_emulation(&a, p, UndervoltLevel::Mv97, 1, CAP);
        let rb = simulate_emulation(&b, p, UndervoltLevel::Mv97, 1, CAP);
        // Compare the pure emulation-call overhead (stall share).
        let oa = ra.time_stall.as_secs_f64() / ra.baseline_duration.as_secs_f64();
        let ob = rb.time_stall.as_secs_f64() / rb.baseline_duration.as_secs_f64();
        assert!(ob < oa, "AMD {ob:.4} vs Intel {oa:.4}");
    }

    #[test]
    fn x264_gains_from_no_simd_on_amd() {
        // Table 6 ℬ∞ 𝑒: 525.x264 performance +19 % — compiling without
        // SIMD makes it 22 % faster on the 7700X (Table 4), which emulation
        // inherits.
        let cpu = CpuModel::ryzen_7700x();
        let p = profile::by_name("525.x264").unwrap();
        let r = simulate_emulation(&cpu, p, UndervoltLevel::Mv97, 1, CAP);
        assert!(r.perf() > 0.10, "perf {:.3}", r.perf());
    }

    #[test]
    fn no_simd_mode_has_no_events() {
        let cpu = CpuModel::xeon_4208();
        let p = profile::by_name("508.namd").unwrap();
        let r = simulate_no_simd(&cpu, p, UndervoltLevel::Mv97, CAP);
        assert_eq!(r.events, 0);
        assert_eq!(r.exceptions, 0);
        // namd loses 22 % from dropping SIMD — worse than its SUIT result.
        assert!(r.perf() < -0.15, "perf {:.3}", r.perf());
    }

    #[test]
    fn no_simd_emulation_relationship() {
        // §6.7: "Emulation is always worse [than no-SIMD] as it incurs the
        // same overhead plus the emulation call overhead."
        let cpu = CpuModel::i9_9900k();
        for p in profile::spec_suite() {
            let e = simulate_emulation(&cpu, p, UndervoltLevel::Mv97, 1, Some(500_000_000));
            let n = simulate_no_simd(&cpu, p, UndervoltLevel::Mv97, Some(500_000_000));
            assert!(e.perf() <= n.perf() + 1e-9, "{}", p.name);
        }
    }
}
