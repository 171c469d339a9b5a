//! Table-driven fuzz target for the scenario configs (`suit-cli scenario
//! --config`, `POST /v1/scenario`) and, through their field tables, the
//! round-trip properties of every config table: these two plus the
//! fleet config (whose parser `fleet_fuzz` fuzzes from the same
//! generator) and the service's request configs.
//!
//! Every parser shares the `SUITTRC` readers' totality contract: any
//! input — byte soup, truncations, single-byte mutations of valid
//! documents, or documents with hostile counts (`"cache_banks": 1e308`,
//! `"reads": 4294967297`, `"offset_steps": 1e18`) — must come back as a
//! structured `Err` string, never a panic, and never an allocation
//! proportional to a hostile count. Accepted documents must validate,
//! and unknown keys must be rejected so config typos fail loudly. The
//! generator draws its keys and boundary values from the field tables
//! themselves, so a new row is fuzzed the moment it exists.
//!
//! The round-trip properties pin the tables' canonical form, which is
//! the service's cache key: `parse(canonical(x)) == x`, canonicalising
//! is idempotent, and moving any single field off its default moves the
//! key — a field the parser reads but the key leaves out fails here.
//!
//! CI drives the totality properties with `SUIT_CHECK_CASES=100000` as
//! the fuzz-smoke gate; corpus seeds in `tests/corpus/` replay first.

use std::fmt::Debug;

use suit::check::gen::{self, Gen};
use suit::check::{corpus_dir, Checker};
use suit::scenarios::{ScenarioConfig, ScroogeConfig, SramScenarioConfig};
use suit::serve::api::{FaultsSpec, SimPoint, Table6Spec, TraceSpec};
use suit::sim::fleet::FleetConfig;
use suit::telemetry::fields::{self, Field};
use suit::telemetry::json;

#[path = "config_gen.rs"]
mod config_gen;

use config_gen::{doc_stream, keys, revalidates, valid, values, TYPOS};

fn scenario_stream() -> Gen<String> {
    let keys = [
        keys(SramScenarioConfig::FIELDS),
        keys(ScroogeConfig::FIELDS),
        vec!["scenario"],
        TYPOS.to_vec(),
    ]
    .concat();
    let sram = valid(SramScenarioConfig::FIELDS, &[("scenario", "\"sram\"")]);
    let scrooge = valid(ScroogeConfig::FIELDS, &[("scenario", "\"scrooge\"")]);
    doc_stream(keys, gen::one_of(vec![sram, scrooge]))
}

/// Totality: the discriminated parser never panics, and whatever it
/// accepts revalidates cleanly (parse and validate can never disagree).
#[test]
fn scenario_config_parser_is_total() {
    Checker::new("scenario_fuzz::total")
        .cases_from_env_or(20_000)
        .corpus(corpus_dir!())
        .check(&scenario_stream(), |doc: &String| {
            revalidates(ScenarioConfig::from_json(doc), |cfg| match cfg {
                ScenarioConfig::Sram(c) => c.validate(),
                ScenarioConfig::Scrooge(c) => c.validate(),
            })
        });
}

/// The undirected per-type parsers (what `suit-cli scenario` calls: no
/// discriminator required) are total over the same stream.
#[test]
fn per_type_parsers_are_total() {
    Checker::new("scenario_fuzz::per_type")
        .cases_from_env_or(10_000)
        .corpus(corpus_dir!())
        .check(&scenario_stream(), |doc: &String| {
            revalidates(
                SramScenarioConfig::from_json(doc),
                SramScenarioConfig::validate,
            )?;
            revalidates(ScroogeConfig::from_json(doc), ScroogeConfig::validate)
        });
}

/// The hostile shapes the contract calls out, pinned explicitly.
#[test]
fn hostile_counts_are_rejected_before_allocation() {
    for doc in [
        r#"{"scenario": "sram", "cache_banks": 1e308}"#,
        r#"{"scenario": "sram", "cache_banks": 99999999}"#,
        r#"{"scenario": "sram", "reads": -3}"#,
        r#"{"scenario": "sram", "reads": 0.5}"#,
        // 2^32 + 1: read as 1 if narrowed to u32 before its bounds check.
        r#"{"scenario": "sram", "reads": 4294967297}"#,
        r#"{"scenario": "sram", "offsets_mv": []}"#,
        r#"{"scenario": "sram", "offsets_mv": [1e999]}"#,
        r#"{"scenario": "sram", "audit_len": 1e18}"#,
        r#"{"scenario": "scrooge", "offset_steps": 1e18}"#,
        r#"{"scenario": "scrooge", "offset_steps": 1}"#,
        r#"{"scenario": "scrooge", "freq_min": -1}"#,
        r#"{"scenario": "scrooge", "epoch_insts": 1e18}"#,
        r#"{"scenario": "scrooge", "workload": "zzz"}"#,
        r#"{"scenario": "scrooge", "cache_bankz": 2}"#,
        r#"{"scenario": "warp"}"#,
        r#"{"seed": 1}"#,
        "{",
        "",
        "[]",
        "null",
    ] {
        let err = ScenarioConfig::from_json(doc).expect_err(doc);
        assert!(!err.is_empty(), "empty error for {doc}");
    }
}

/// Round-trip sanity anchors: the documented examples parse and the
/// parsed values land where they should.
#[test]
fn canonical_documents_parse() {
    let sram = ScenarioConfig::from_json(
        r#"{"scenario": "sram", "cache_banks": 8, "rob_banks": 4,
            "sigma_mv": 12.0, "offsets_mv": [-100, -140, -180],
            "reads": 4096, "audit_len": 2000, "cores": 2, "seed": 7}"#,
    )
    .expect("canonical sram doc is valid");
    let ScenarioConfig::Sram(cfg) = sram else {
        panic!("discriminator routed wrongly");
    };
    assert_eq!(cfg.cache_banks, 8);
    assert_eq!(cfg.offsets_mv, vec![-100.0, -140.0, -180.0]);
    assert_eq!(cfg.seed, 7);

    let scrooge = ScenarioConfig::from_json(
        r#"{"scenario": "scrooge", "racks": 2, "domains_per_rack": 2,
            "offset_min_mv": -180, "offset_steps": 13, "freq_min": 0.7,
            "freq_steps": 7, "refine_rounds": 3, "energy_price": 80,
            "sdc_cost": 500, "workload": "502.gcc", "seed": 7}"#,
    )
    .expect("canonical scrooge doc is valid");
    let ScenarioConfig::Scrooge(cfg) = scrooge else {
        panic!("discriminator routed wrongly");
    };
    assert_eq!(cfg.offset_steps, 13);
    assert_eq!(cfg.workload, "502.gcc");
    assert_eq!(cfg.energy_price, 80.0);
}

/// For every `x` the table parse accepts, `parse(canonical(x)) == x`
/// and canonicalising twice is stable. And moving any one field off its
/// default moves the canonical key: the property a field the parser reads
/// but the cache key and ETag leave out fails.
fn canonical_form_properties<C: Default + PartialEq + Debug + 'static>(
    name: &str,
    table: &'static [Field<C>],
) {
    let parse = move |src: &str| fields::parse(table, &json::parse(src)?, &[]);
    let stream = doc_stream(keys(table), valid(table, &[]));
    Checker::new(name)
        .cases_from_env_or(5_000)
        .check(&stream, move |doc: &String| {
            let Ok(x) = parse(doc) else {
                return Ok(());
            };
            let canon = fields::canonical(table, &x, &[]);
            let back = parse(&canon).map_err(|e| format!("{canon} does not re-parse: {e}"))?;
            let again = fields::canonical(table, &back, &[]);
            match (back == x, again == canon) {
                (true, true) => Ok(()),
                (false, _) => Err(format!("{canon} re-parses to {back:?}, not {x:?}")),
                (_, false) => Err(format!("canonicalising twice moved {canon} to {again}")),
            }
        });
    let base = fields::canonical(table, &C::default(), &[]);
    for f in table {
        let docs = values()
            .into_iter()
            .map(|v| format!("{{\"{}\": {v}}}", f.name));
        let moved: Vec<C> = docs.filter_map(|doc| parse(&doc).ok()).collect();
        let moved: Vec<C> = moved.into_iter().filter(|x| *x != C::default()).collect();
        assert!(!moved.is_empty(), "no candidate value moves '{}'", f.name);
        for x in moved {
            assert_ne!(
                fields::canonical(table, &x, &[]),
                base,
                "{x:?} kept its key"
            );
        }
    }
}

#[test]
fn canonical_forms_round_trip_and_cover_every_field() {
    canonical_form_properties("config_fuzz::fleet", FleetConfig::FIELDS);
    canonical_form_properties("config_fuzz::sram", SramScenarioConfig::FIELDS);
    canonical_form_properties("config_fuzz::scrooge", ScroogeConfig::FIELDS);
    canonical_form_properties("config_fuzz::point", SimPoint::FIELDS);
    canonical_form_properties("config_fuzz::faults", FaultsSpec::FIELDS);
    canonical_form_properties("config_fuzz::trace", TraceSpec::FIELDS);
    canonical_form_properties("config_fuzz::table6", Table6Spec::FIELDS);
}
