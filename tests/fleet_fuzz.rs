//! Fuzz target for the fleet-scenario config parser.
//!
//! `FleetConfig::from_json` feeds `suit-cli fleet --config` and shares
//! the `SUITTRC` readers' totality contract: any input — byte soup,
//! truncations, single-byte mutations of valid documents, or documents
//! with hostile counts (`"racks": 1e308`, `"epochs": -3`,
//! `"epoch_insts": 1e18`) — must come back as a structured `Err`
//! string, never a panic, and never an allocation proportional to a
//! hostile count. Accepted documents must validate, and unknown keys
//! must be rejected so config typos fail loudly. The documents come from
//! the same table-driven generator as `scenario_fuzz`, so every row of
//! `FleetConfig::FIELDS` is fuzzed; the round-trip properties of the
//! fleet table live with the other tables' in `scenario_fuzz`.
//!
//! CI drives the `total` property with `SUIT_CHECK_CASES=100000` as the
//! fuzz-smoke gate; corpus seeds in `tests/corpus/` replay first.

use suit::check::gen::Gen;
use suit::check::{corpus_dir, Checker};
use suit::sim::fleet::FleetConfig;

#[path = "config_gen.rs"]
mod config_gen;

use config_gen::{doc_stream, keys, revalidates, valid, TYPOS};

fn fleet_stream() -> Gen<String> {
    let keys = [keys(FleetConfig::FIELDS), TYPOS.to_vec()].concat();
    doc_stream(keys, valid(FleetConfig::FIELDS, &[]))
}

/// Totality: the parser never panics, and whatever it accepts
/// revalidates cleanly (parse and validate can never disagree).
#[test]
fn fleet_config_parser_is_total() {
    Checker::new("fleet_fuzz::total")
        .cases_from_env_or(20_000)
        .corpus(corpus_dir!())
        .check(&fleet_stream(), |doc: &String| {
            revalidates(FleetConfig::from_json(doc), FleetConfig::validate)
        });
}

/// The hostile shapes the contract calls out, pinned explicitly.
#[test]
fn hostile_counts_are_rejected_before_allocation() {
    for doc in [
        r#"{"racks": 1e308}"#,
        r#"{"racks": 4096, "domains_per_rack": 4096, "cores_per_domain": 4096}"#,
        r#"{"epochs": -3}"#,
        r#"{"epoch_insts": 1e18}"#,
        r#"{"epochs": 100000, "epoch_insts": 1000000000000}"#,
        r#"{"seed": 0.5}"#,
        r#"{"utilization": 1e308}"#,
        r#"{"workloads": []}"#,
        r#"{"rack_fan_rpm": [1]}"#,
        r#"{"rakcs": 2}"#,
        "{",
        "",
        "[]",
        "null",
    ] {
        let err = FleetConfig::from_json(doc).expect_err(doc);
        assert!(!err.is_empty(), "empty error for {doc}");
    }
}

/// A round-trip sanity anchor: the documented example parses and the
/// parsed values land where they should.
#[test]
fn canonical_document_parses() {
    let cfg = FleetConfig::from_json(
        r#"{"racks": 2, "domains_per_rack": 8, "cores_per_domain": 4,
            "epochs": 3, "epoch_insts": 5000000, "utilization": 0.75,
            "workloads": ["502.gcc", "Nginx"], "rack_fan_rpm": [1800, 600],
            "rack_age_years": [0.5, 5.0], "cpu": "c", "strategy": "fv",
            "offset": 97, "seed": 7}"#,
    )
    .expect("canonical doc is valid");
    assert_eq!(cfg.racks, 2);
    assert_eq!(cfg.domains_per_rack, 8);
    assert_eq!(cfg.rack_fan_rpm, vec![1800.0, 600.0]);
    assert_eq!(cfg.workloads, vec!["502.gcc", "Nginx"]);
}
