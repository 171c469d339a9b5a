//! Determinism regression tests for the parallel campaigns.
//!
//! The contract: every random draw in a sharded campaign derives from the
//! top-level seed through [`suit_rng::SuitRng::fork`] keyed by the shard
//! index — a pure function of `(seed, index)`, independent of which worker
//! thread executes the shard and of when it is scheduled. Hence the same
//! seed must produce **byte-identical** results at every thread count.
//! These tests pin that property at the public-API level so a future
//! refactor cannot silently trade reproducibility for speed.

use suit::exec::Threads;
use suit::faults::inject::Campaign;
use suit::faults::vmin::ChipVminModel;
use suit::hw::{CpuModel, UndervoltLevel};
use suit::sim::engine::{simulate, simulate_telemetry, SimConfig};
use suit::sim::experiment::run_table6;
use suit::sim::montecarlo::{monte_carlo_telemetry, monte_carlo_with_threads};
use suit::telemetry::Telemetry;
use suit::trace::profile;

#[test]
fn monte_carlo_values_are_byte_identical_across_thread_counts() {
    let cpu = CpuModel::xeon_4208();
    let p = profile::by_name("502.gcc").unwrap();
    let cfg = SimConfig::fv_intel(UndervoltLevel::Mv97).with_max_insts(200_000_000);

    let reference = monte_carlo_with_threads(&cpu, p, &cfg, 8, 1);
    for threads in [4, 8] {
        let parallel = monte_carlo_with_threads(&cpu, p, &cfg, 8, threads);
        // Compare the raw sorted per-run vectors bit-for-bit: f64 -> bits
        // so even a ±0.0 or ULP difference fails loudly.
        for (name, a, b) in [
            ("perf", &reference.perf, &parallel.perf),
            ("power", &reference.power, &parallel.power),
            ("eff", &reference.eff, &parallel.eff),
            ("residency", &reference.residency, &parallel.residency),
        ] {
            let bits = |d: &suit::sim::montecarlo::Distribution| {
                d.values.iter().map(|v| v.to_bits()).collect::<Vec<u64>>()
            };
            assert_eq!(bits(a), bits(b), "{name} diverged at {threads} threads");
        }
    }
}

#[test]
fn monte_carlo_is_invariant_to_oversubscription() {
    // More workers than runs: some threads get empty shards. The chunked
    // index arithmetic must still place run i's metrics in slot i.
    let cpu = CpuModel::xeon_4208();
    let p = profile::by_name("Nginx").unwrap();
    let cfg = SimConfig::fv_intel(UndervoltLevel::Mv70).with_max_insts(100_000_000);

    let serial = monte_carlo_with_threads(&cpu, p, &cfg, 3, 1);
    let oversubscribed = monte_carlo_with_threads(&cpu, p, &cfg, 3, 16);
    assert_eq!(serial, oversubscribed);
}

#[test]
fn fault_campaign_reports_are_identical_across_thread_counts() {
    let chip = ChipVminModel::sample(2, 12.0, 7);
    let campaign = Campaign::standard(chip, 1234);
    let reference = campaign.run(Threads::Fixed(1), &Telemetry::off());
    for threads in [2, 4, 8] {
        assert_eq!(
            campaign.run(Threads::Fixed(threads), &Telemetry::off()),
            reference,
            "campaign diverged at {threads} threads"
        );
    }
}

#[test]
fn merged_telemetry_is_byte_identical_across_thread_counts() {
    // Telemetry from a sharded Monte-Carlo campaign: per-run recorders are
    // merged in run-index order after the parallel scope, so counters,
    // histogram buckets and the event stream — and therefore the serialized
    // Perfetto trace — must be byte-identical at every thread count.
    let cpu = CpuModel::xeon_4208();
    let p = profile::by_name("502.gcc").unwrap();
    let cfg = SimConfig::fv_intel(UndervoltLevel::Mv97).with_max_insts(100_000_000);

    let (reference_mc, reference) = monte_carlo_telemetry(&cpu, p, &cfg, 8, 1);
    assert!(reference.counter(suit::telemetry::Counter::DoTraps) > 0);
    for threads in [4, 8, 16] {
        let (mc, snap) = monte_carlo_telemetry(&cpu, p, &cfg, 8, threads);
        assert_eq!(reference_mc, mc, "metrics diverged at {threads} threads");
        assert_eq!(reference, snap, "telemetry diverged at {threads} threads");
        assert_eq!(
            reference.to_perfetto_json(),
            snap.to_perfetto_json(),
            "serialized trace diverged at {threads} threads"
        );
    }
}

#[test]
fn table6_sweep_is_byte_identical_across_thread_counts() {
    // The full Table 6 sweep — every (row, level) cell — goes through the
    // suit-exec fan-out. PartialEq on RowResult compares every per-workload
    // f64, so any scheduling-dependent divergence fails here.
    let reference = run_table6(Threads::Fixed(1), Some(20_000_000));
    assert_eq!(reference.len(), 12, "6 rows x 2 levels");
    for threads in [4, 8] {
        assert_eq!(
            run_table6(Threads::Fixed(threads), Some(20_000_000)),
            reference,
            "Table 6 sweep diverged at {threads} threads"
        );
    }
}

#[test]
fn fault_campaign_telemetry_is_identical_across_thread_counts() {
    // The refactored campaign shares one recorder across workers and
    // restricts itself to commutative telemetry (counters/histograms), so
    // both the report and the merged snapshot must match at any width.
    let chip = ChipVminModel::sample(2, 12.0, 3);
    let campaign = Campaign::standard(chip, 99);
    let reference_tele = Telemetry::recording();
    let reference = campaign.run(Threads::Fixed(1), &reference_tele);
    for threads in [4, 8] {
        let tele = Telemetry::recording();
        let report = campaign.run(Threads::Fixed(threads), &tele);
        assert_eq!(report, reference, "report diverged at {threads} threads");
        assert_eq!(
            tele.snapshot(),
            reference_tele.snapshot(),
            "telemetry diverged at {threads} threads"
        );
    }
}

#[test]
fn telemetry_recording_does_not_change_results() {
    // The recorder is strictly observational: a run with telemetry on must
    // produce bit-for-bit the same RunResult as one with it off.
    let cpu = CpuModel::xeon_4208();
    let p = profile::by_name("Nginx").unwrap();
    for level in [UndervoltLevel::Mv70, UndervoltLevel::Mv97] {
        let cfg = SimConfig::fv_intel(level).with_max_insts(150_000_000);
        let plain = simulate(&cpu, p, &cfg);
        let traced = simulate_telemetry(&cpu, p, &cfg, &Telemetry::recording());
        assert_eq!(plain, traced, "telemetry perturbed the run at {level}");
    }
}

#[test]
fn distinct_top_level_seeds_decorrelate() {
    // Guards against a fork() regression that ignores the root seed.
    let cpu = CpuModel::xeon_4208();
    let p = profile::by_name("502.gcc").unwrap();
    let mut cfg = SimConfig::fv_intel(UndervoltLevel::Mv97).with_max_insts(100_000_000);

    let a = monte_carlo_with_threads(&cpu, p, &cfg, 4, 4);
    cfg.seed = cfg.seed.wrapping_add(1);
    let b = monte_carlo_with_threads(&cpu, p, &cfg, 4, 4);
    assert_ne!(a, b, "different seeds must give different campaigns");
}
