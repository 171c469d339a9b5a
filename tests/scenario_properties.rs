//! Cross-crate properties of the scenario subsystem.
//!
//! Three contracts, each swept over seeds rather than pinned to one
//! lucky sample:
//!
//! 1. **Bank-Vmin monotonicity** — undervolting deeper can only grow
//!    the set of faulting SRAM banks: for any array and offsets
//!    `a >= b` (b deeper), `faulted_banks(a) ⊆ faulted_banks(b)`.
//! 2. **Scrooge determinism** — the economic search returns
//!    byte-identical reports at 1 and 4 `suit-exec` workers.
//! 3. **Extended §6.9 audit** — at offsets deep enough to fault, every
//!    SUIT-defended configuration (traps-only, hardened `IMUL`, the
//!    SRAM bank guard) reports *zero* silent errors under both fault
//!    classes, while the naive undervolt does not get through clean.

use suit::exec::Threads;
use suit::faults::{
    audit_naive_undervolt, audit_sram_guarded, audit_sram_naive, audit_suit_system,
    audit_suit_traps_only, AuditSequence, ChipVminModel, SramArrayModel,
};
use suit::scenarios::{scrooge, sram, ScroogeConfig, SramScenarioConfig};
use suit::telemetry::Telemetry;

#[test]
fn deeper_offsets_fault_a_superset_of_banks() {
    let offsets = [-40.0, -80.0, -110.0, -130.0, -150.0, -200.0];
    for seed in 0..20u64 {
        let array = SramArrayModel::sample(6, 3, 14.0, seed);
        for pair in offsets.windows(2) {
            let (shallow, deep) = (pair[0], pair[1]);
            let at_shallow = array.faulted_banks(shallow);
            let at_deep = array.faulted_banks(deep);
            for bank in &at_shallow {
                assert!(
                    at_deep.contains(bank),
                    "seed {seed}: bank {bank} faults at {shallow} mV but not at {deep} mV"
                );
            }
        }
    }
}

#[test]
fn scrooge_search_is_byte_identical_across_thread_counts() {
    for seed in [3u64, 0x5017] {
        let cfg = ScroogeConfig {
            seed,
            epoch_insts: 200_000,
            audit_len: 300,
            ..ScroogeConfig::default()
        };
        let one = scrooge::search(&cfg, 1, &Telemetry::off()).unwrap();
        let four = scrooge::search(&cfg, 4, &Telemetry::off()).unwrap();
        assert_eq!(
            one.to_json(),
            four.to_json(),
            "seed {seed}: search diverged across thread counts"
        );
        assert!(one.chosen.offset_mv < 0.0);
        assert!(one.chosen.freq_scale > 0.0 && one.chosen.freq_scale <= 1.0);
    }
}

/// The sram scenario report's audit matrix holds the SRAM-aware
/// invariant over seeds: no silent error in any defended row, both
/// fault classes covered, and the naive rows actually exercised the
/// fault models (deep sweep ⇒ corruption without the defences).
#[test]
fn defended_audits_are_silent_error_free_across_seeds() {
    let mut naive_instruction_failures = 0u32;
    let mut naive_sram_failures = 0u32;
    for seed in 0..8u64 {
        let cfg = SramScenarioConfig {
            seed,
            reads: 256,
            audit_len: 1000,
            ..SramScenarioConfig::default()
        };
        let report = sram::run(&cfg, 2, &Telemetry::off());
        let classes: Vec<&str> = report.audits.iter().map(|r| r.fault_class).collect();
        assert!(classes.contains(&"instruction") && classes.contains(&"sram"));
        assert!(
            report.defended_rows_secure(),
            "seed {seed}: a defended row leaked silent errors: {:#?}",
            report.audits
        );
        for row in &report.audits {
            if row.defence == "naive" && !row.outcome.is_secure() {
                match row.fault_class {
                    "instruction" => naive_instruction_failures += 1,
                    _ => naive_sram_failures += 1,
                }
            }
        }
    }
    // The deep sweep (to -180 mV) must corrupt the undefended system in
    // both fault classes for most seeds — otherwise the audit is not
    // actually distinguishing SUIT from doing nothing.
    assert!(
        naive_instruction_failures >= 6,
        "naive instruction audit almost never failed ({naive_instruction_failures}/8)"
    );
    assert!(
        naive_sram_failures >= 6,
        "naive sram audit almost never failed ({naive_sram_failures}/8)"
    );
}

/// The same invariant straight at the `suit-faults` audit layer, at a
/// spread of depths: SUIT configurations never execute a faulted
/// result silently, at any offset.
#[test]
fn suit_audits_hold_at_every_depth() {
    for seed in 0..6u64 {
        let chip = ChipVminModel::sample(2, 12.0, seed);
        let array = SramArrayModel::sample(4, 2, 12.0, seed);
        let seq = AuditSequence::draw(seed, 600);
        for offset in [-60.0, -100.0, -140.0, -180.0] {
            for (label, outcome) in [
                ("traps", audit_suit_traps_only(&chip, 0, offset, &seq)),
                ("hardened", audit_suit_system(&chip, 0, offset, &seq)),
                ("guarded", audit_sram_guarded(&array, offset, seed, 600)),
            ] {
                assert!(
                    outcome.is_secure(),
                    "seed {seed}, {offset} mV: {label} leaked {} silent errors",
                    outcome.silent_errors
                );
            }
        }
        // And the naive paths do fault somewhere in that range.
        let naive_faults = [-60.0, -100.0, -140.0, -180.0].iter().any(|&o| {
            audit_naive_undervolt(&chip, 0, o, &seq).silent_errors > 0
                || audit_sram_naive(&array, o, seed, 600).silent_errors > 0
        });
        assert!(naive_faults, "seed {seed}: naive audits never faulted");
    }
}

/// The two scenario runners agree with the service/CLI JSON contract:
/// reports parse as JSON and carry the discriminator.
#[test]
fn reports_serialize_with_discriminators() {
    let sram_cfg = SramScenarioConfig {
        reads: 128,
        audit_len: 200,
        ..SramScenarioConfig::default()
    };
    let r = sram::run(&sram_cfg, 1, &Telemetry::off());
    let doc = suit::telemetry::json::parse(&r.to_json()).expect("valid JSON");
    assert_eq!(doc.get("scenario").and_then(|s| s.as_str()), Some("sram"));

    let scrooge_cfg = ScroogeConfig {
        epoch_insts: 100_000,
        audit_len: 200,
        ..ScroogeConfig::default()
    };
    let r = scrooge::search(&scrooge_cfg, 2, &Telemetry::off()).unwrap();
    let doc = suit::telemetry::json::parse(&r.to_json()).expect("valid JSON");
    assert_eq!(
        doc.get("scenario").and_then(|s| s.as_str()),
        Some("scrooge")
    );
    // Threads::parse is the shared CLI surface the scenario subcommand
    // uses; pin that the fixed policy the tests rely on round-trips.
    assert_eq!(Threads::parse("4").unwrap().count(), 4);
}
