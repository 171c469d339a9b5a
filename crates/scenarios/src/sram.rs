//! The SRAM fault-domain scenario: campaign sweep + dual-class audit.
//!
//! One scenario run is (a) the thread-count-invariant
//! [`SramCampaign`] sweep of a sampled
//! per-bank array over the configured offsets, and (b) the extended
//! §6.9 audit matrix at the *deepest* configured offset, covering both
//! fault classes: instruction-Vmin datapath faults (naive undervolt,
//! SUIT traps-only, SUIT with hardened `IMUL`) and per-bank SRAM
//! retention flips (naive vs the bank-quarantine guard). The SRAM-aware
//! invariant under audit is *no live bank operates below its bank-Vmin,
//! or its contents are treated as untrusted*.

use suit_exec::Threads;
use suit_faults::{
    audit_naive_undervolt, audit_sram_guarded, audit_sram_naive, audit_suit_system,
    audit_suit_traps_only, AuditOutcome, AuditSequence, ChipVminModel, SramArrayModel,
    SramCampaign,
};
use suit_telemetry::json::{escape, json_num};
use suit_telemetry::Telemetry;

use crate::config::SramScenarioConfig;

/// One bank of the report: its sampled parameters and sweep results.
#[derive(Debug, Clone, PartialEq)]
pub struct BankRow {
    /// `"cache"` or `"rob"`.
    pub kind: &'static str,
    /// Sampled retention margin, mV.
    pub margin_mv: f64,
    /// Offset points at which the bank flipped.
    pub faults: u32,
    /// Shallowest faulting offset, mV (`-inf` if the bank never flipped;
    /// serialized as `null`).
    pub first_fault_offset_mv: f64,
    /// Weak cells in the bank's fixed flip mask.
    pub weak_cells: u32,
}

/// One row of the dual-class audit matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditRow {
    /// `"instruction"` or `"sram"`.
    pub fault_class: &'static str,
    /// Defence configuration label.
    pub defence: &'static str,
    /// The audit outcome.
    pub outcome: AuditOutcome,
}

/// Results of one SRAM scenario run.
#[derive(Debug, Clone, PartialEq)]
pub struct SramScenarioReport {
    /// Per-bank sweep results, cache banks first.
    pub banks: Vec<BankRow>,
    /// Total faulting (bank, offset) points.
    pub total_faults: u64,
    /// Total weak-cell bits flipped across the sweep.
    pub bits_flipped: u64,
    /// The deepest configured offset, mV — where the audits run.
    pub deepest_offset_mv: f64,
    /// The audit matrix: both fault classes × defence configurations.
    pub audits: Vec<AuditRow>,
}

/// Runs the scenario: campaign sweep over `threads` workers (recording
/// into `tele`), then the audit matrix at the deepest offset. The report
/// is byte-identical at every thread count.
///
/// # Panics
///
/// Panics if the config is invalid — validate with
/// [`SramScenarioConfig::validate`] first (the JSON parsers always do).
pub fn run(cfg: &SramScenarioConfig, threads: Threads, tele: &Telemetry) -> SramScenarioReport {
    let array = SramArrayModel::sample(cfg.cache_banks, cfg.rob_banks, cfg.sigma_mv, cfg.seed);
    let campaign = SramCampaign {
        array: array.clone(),
        offsets_mv: cfg.offsets_mv.clone(),
        reads: cfg.reads,
        seed: cfg.seed,
    };
    let sweep = campaign.run(threads, tele);
    let banks = (0..array.bank_count())
        .map(|i| BankRow {
            kind: array.bank(i).kind.label(),
            margin_mv: array.margin_mv(i),
            faults: sweep.faults(i),
            first_fault_offset_mv: sweep.first_fault_offset_mv(i),
            weak_cells: array.bank(i).flip_mask.count_ones(),
        })
        .collect();

    let deepest = cfg.offsets_mv.iter().copied().fold(f64::INFINITY, f64::min);
    let chip = ChipVminModel::sample(cfg.cores, cfg.sigma_mv, cfg.seed);
    let len = cfg.audit_len;
    let seq = AuditSequence::draw(cfg.seed, len);
    let audits = vec![
        AuditRow {
            fault_class: "instruction",
            defence: "naive",
            outcome: audit_naive_undervolt(&chip, 0, deepest, &seq),
        },
        AuditRow {
            fault_class: "instruction",
            defence: "suit_traps",
            outcome: audit_suit_traps_only(&chip, 0, deepest, &seq),
        },
        AuditRow {
            fault_class: "instruction",
            defence: "suit_hardened_imul",
            outcome: audit_suit_system(&chip, 0, deepest, &seq),
        },
        AuditRow {
            fault_class: "sram",
            defence: "naive",
            outcome: audit_sram_naive(&array, deepest, cfg.seed, len),
        },
        AuditRow {
            fault_class: "sram",
            defence: "guarded",
            outcome: audit_sram_guarded(&array, deepest, cfg.seed, len),
        },
    ];

    SramScenarioReport {
        banks,
        total_faults: sweep.total_faults(),
        bits_flipped: sweep.bits_flipped(),
        deepest_offset_mv: deepest,
        audits,
    }
}

impl SramScenarioReport {
    /// Whether every SUIT-defended row (everything but the two `naive`
    /// rows) came back with zero silent errors.
    pub fn defended_rows_secure(&self) -> bool {
        self.audits
            .iter()
            .filter(|r| r.defence != "naive")
            .all(|r| r.outcome.is_secure())
    }

    /// Serializes the report as deterministic JSON (sorted keys).
    pub fn to_json(&self) -> String {
        let banks: Vec<String> = self
            .banks
            .iter()
            .map(|b| {
                format!(
                    "{{\"faults\":{},\"first_fault_offset_mv\":{},\"kind\":{},\
                     \"margin_mv\":{},\"weak_cells\":{}}}",
                    b.faults,
                    json_num(b.first_fault_offset_mv),
                    escape(b.kind),
                    json_num(b.margin_mv),
                    b.weak_cells
                )
            })
            .collect();
        let audits: Vec<String> = self.audits.iter().map(audit_row_json).collect();
        format!(
            "{{\"audits\":[{}],\"banks\":[{}],\"bits_flipped\":{},\
             \"deepest_offset_mv\":{},\"scenario\":\"sram\",\"total_faults\":{}}}",
            audits.join(","),
            banks.join(","),
            self.bits_flipped,
            json_num(self.deepest_offset_mv),
            self.total_faults
        )
    }

    /// Renders the report as human-readable text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "SRAM fault-domain scenario ({} banks, sweep to {} mV):\n",
            self.banks.len(),
            self.deepest_offset_mv
        ));
        for (i, b) in self.banks.iter().enumerate() {
            let first = if b.first_fault_offset_mv.is_finite() {
                format!("{:.0} mV", b.first_fault_offset_mv)
            } else {
                "never".to_string()
            };
            out.push_str(&format!(
                "  bank {i:>3} {:<5} margin {:>6.1} mV  faults {:>3}  first {:>8}  weak cells {}\n",
                b.kind, b.margin_mv, b.faults, first, b.weak_cells
            ));
        }
        out.push_str(&format!(
            "  total: {} faulting points, {} bits flipped\n",
            self.total_faults, self.bits_flipped
        ));
        out.push_str(&format!(
            "  audit matrix at {} mV (any silent error is a security failure):\n",
            self.deepest_offset_mv
        ));
        for r in &self.audits {
            out.push_str(&format!(
                "    {:<11} {:<18} executed {:>6}  trapped {:>6}  silent errors {:>4}  {}\n",
                r.fault_class,
                r.defence,
                r.outcome.executed,
                r.outcome.trapped,
                r.outcome.silent_errors,
                if r.outcome.is_secure() {
                    "secure"
                } else {
                    "INSECURE"
                }
            ));
        }
        out
    }
}

/// Shared audit-row serializer (also used by the Scrooge report).
pub(crate) fn audit_row_json(r: &AuditRow) -> String {
    format!(
        "{{\"defence\":{},\"executed\":{},\"fault_class\":{},\"secure\":{},\
         \"silent_errors\":{},\"trapped\":{}}}",
        escape(r.defence),
        r.outcome.executed,
        escape(r.fault_class),
        r.outcome.is_secure(),
        r.outcome.silent_errors,
        r.outcome.trapped
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_is_thread_count_invariant() {
        let cfg = SramScenarioConfig::default();
        let one = run(&cfg, Threads::Fixed(1), &Telemetry::off());
        for threads in [2, 4] {
            let many = run(&cfg, Threads::Fixed(threads), &Telemetry::off());
            assert_eq!(one, many, "{threads} threads diverged");
            assert_eq!(one.to_json(), many.to_json());
        }
    }

    #[test]
    fn default_scenario_faults_naive_and_clears_defences() {
        // One seed can be lucky; the property test sweeps more. Here,
        // pin the default: the sweep reaches −180 mV, far below every
        // bank margin, so the naive SRAM audit must corrupt.
        let r = run(
            &SramScenarioConfig::default(),
            Threads::Fixed(2),
            &Telemetry::off(),
        );
        assert!(r.total_faults > 0);
        assert!(r.defended_rows_secure(), "{:#?}", r.audits);
        let sram_naive = r
            .audits
            .iter()
            .find(|a| a.fault_class == "sram" && a.defence == "naive")
            .unwrap();
        assert!(sram_naive.outcome.silent_errors > 0);
    }

    #[test]
    fn json_is_valid_and_discriminated() {
        let r = run(
            &SramScenarioConfig::default(),
            Threads::Fixed(1),
            &Telemetry::off(),
        );
        let doc = suit_telemetry::json::parse(&r.to_json()).expect("valid JSON");
        assert_eq!(doc.get("scenario").and_then(|s| s.as_str()), Some("sram"));
        assert_eq!(
            doc.get("banks").and_then(|b| b.as_arr()).map(|a| a.len()),
            Some(12)
        );
        assert!(!r.render().is_empty());
    }
}
