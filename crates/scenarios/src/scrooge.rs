//! The Scrooge attacker-economics scenario.
//!
//! A Scrooge attacker ("Scrooge Attack: Undervolting ARM Processors for
//! Profit") operates someone else's fleet below spec and pockets the
//! energy difference, accepting some risk of crashes and silent data
//! corruption. This module makes that attacker executable: a
//! deterministic seeded search over the fleet's voltage/frequency space
//! for the operating point with the best *net profit*
//!
//! ```text
//! net = energy saved · price  −  E[SDC] · sdc_cost  −  E[crash] · crash_cost
//!       −  throughput lost · sla_cost
//! ```
//!
//! where the fault expectations come from the same per-domain
//! [`ChipVminModel`] / [`SramArrayModel`] instances the §6.9 audits use
//! (per-domain process variation forked from the root seed). Lowering
//! frequency buys back voltage margin ([`FREQ_MARGIN_MV_PER_UNIT`]), so
//! the offset and frequency axes genuinely trade off.
//!
//! The search is a grid pass plus coordinate refinement, fanned out over
//! [`suit_exec`] — every point is a pure function of its index, so the
//! chosen point (and the whole report) is byte-identical at any thread
//! count. The chosen point is then validated with a [`FleetSim`] run and
//! the defence matrix (naive, SUIT traps, SUIT + hardened `IMUL`,
//! SRAM-guarded) is audited *at the attacker's chosen point*.

use suit_exec::Threads;
use suit_faults::{
    audit_naive_undervolt, audit_sram_guarded, audit_sram_naive, audit_suit_system,
    audit_suit_traps_only, AuditSequence, ChipVminModel, SramArrayModel,
};
use suit_hw::UndervoltLevel;
use suit_isa::{Opcode, TABLE1};
use suit_rng::SuitRng;
use suit_sim::fleet::FleetSim;
use suit_telemetry::{json::json_num, Counter, Telemetry};

use crate::config::ScroogeConfig;
use crate::sram::{audit_row_json, AuditRow};

/// Voltage margin bought back per unit of frequency scaling, mV: at
/// `freq_scale = 0.8` every path has 25 % more time, worth ≈ 50 mV of
/// the 250 mV guardband between the conservative curve and the deepest
/// modeled margins.
pub const FREQ_MARGIN_MV_PER_UNIT: f64 = 250.0;

/// Nominal supply voltage, mV — converts offsets into relative voltage.
pub const V_NOM_MV: f64 = 1000.0;

/// Modeled faultable-instruction executions (per core/op) and bank
/// accesses over the horizon when composing survival probabilities.
const EXECUTIONS_PER_POINT: i32 = 10_000;

/// One evaluated operating point of the search space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointEval {
    /// Voltage offset, mV (non-positive).
    pub offset_mv: f64,
    /// Frequency scale in `(0, 1]`.
    pub freq_scale: f64,
    /// Energy cost saved over the horizon, $.
    pub savings: f64,
    /// Expected crash/SDC/SLA penalty over the horizon, $.
    pub penalty: f64,
    /// `savings − penalty`, $ — the attacker's objective.
    pub net: f64,
}

/// One fleet domain's fault models, forked from the root seed.
struct DomainModels {
    chip: ChipVminModel,
    array: SramArrayModel,
}

/// Results of one Scrooge search.
#[derive(Debug, Clone, PartialEq)]
pub struct ScroogeReport {
    /// The attacker's chosen operating point.
    pub chosen: PointEval,
    /// Operating points evaluated (grid + refinement).
    pub points_evaluated: u64,
    /// Domains in the attacked fleet.
    pub domains: usize,
    /// Undervolt level of the validation fleet run, mV (70 or 97).
    pub level_mv: u32,
    /// Fleet performance delta at the chosen level.
    pub fleet_perf: f64,
    /// Fleet power delta at the chosen level.
    pub fleet_power: f64,
    /// Fleet efficiency delta at the chosen level.
    pub fleet_efficiency: f64,
    /// The defence matrix at the chosen point: for each defence
    /// configuration, the instruction-class and SRAM-class audits.
    pub defences: Vec<AuditRow>,
}

/// Runs the Scrooge search over `threads` workers, recording the
/// evaluated-points counter into `tele`. The report is byte-identical at
/// every thread count. Errors only if the fleet config is rejected —
/// [`ScroogeConfig::validate`] beforehand makes that unreachable.
pub fn search(
    cfg: &ScroogeConfig,
    threads: Threads,
    tele: &Telemetry,
) -> Result<ScroogeReport, String> {
    let domains = cfg.racks * cfg.domains_per_rack;
    let root = SuitRng::seed_from_u64(cfg.seed);
    let models: Vec<DomainModels> = (0..domains)
        .map(|d| DomainModels {
            chip: ChipVminModel::sample(
                cfg.cores_per_domain,
                cfg.sigma_mv,
                root.fork(2 * d as u64).root_seed(),
            ),
            array: SramArrayModel::sample(
                cfg.cache_banks,
                cfg.rob_banks,
                cfg.sigma_mv,
                root.fork(2 * d as u64 + 1).root_seed(),
            ),
        })
        .collect();

    // Grid pass: every point is a pure function of its index, so the
    // fan-out is thread-count invariant; the arg-max scan is serial and
    // keeps the *first* best point (index order) on ties.
    let grid_points = cfg.offset_steps * cfg.freq_steps;
    let grid = suit_exec::run(grid_points, threads, |k| {
        let (i, j) = (k / cfg.freq_steps, k % cfg.freq_steps);
        let offset = cfg.offset_min_mv * i as f64 / (cfg.offset_steps - 1) as f64;
        let freq = 1.0 - (1.0 - cfg.freq_min) * j as f64 / (cfg.freq_steps - 1) as f64;
        eval_point(cfg, &models, offset, freq)
    });
    let mut best = grid[0];
    for p in &grid[1..] {
        if p.net > best.net {
            best = *p;
        }
    }
    let mut points_evaluated = grid_points as u64;

    // Coordinate refinement: probe the four axis neighbours at halving
    // deltas, moving only on strict improvement.
    let base_doff = -cfg.offset_min_mv / (cfg.offset_steps - 1) as f64;
    let base_dfreq = (1.0 - cfg.freq_min) / (cfg.freq_steps - 1) as f64;
    for round in 0..cfg.refine_rounds {
        let scale = 0.5f64.powi(round as i32 + 1);
        let (doff, dfreq) = (base_doff * scale, base_dfreq * scale);
        let candidates = [
            (
                (best.offset_mv - doff).max(cfg.offset_min_mv),
                best.freq_scale,
            ),
            ((best.offset_mv + doff).min(0.0), best.freq_scale),
            (best.offset_mv, (best.freq_scale - dfreq).max(cfg.freq_min)),
            (best.offset_mv, (best.freq_scale + dfreq).min(1.0)),
        ];
        let evals = suit_exec::run(candidates.len(), threads, |k| {
            let (offset, freq) = candidates[k];
            eval_point(cfg, &models, offset, freq)
        });
        points_evaluated += candidates.len() as u64;
        for e in &evals {
            if e.net > best.net {
                best = *e;
            }
        }
    }
    tele.add(Counter::ScroogePointsEvaluated, points_evaluated);

    // Validate the chosen point with a fleet run at the nearest modeled
    // undervolt level, then audit every defence configuration at the
    // effective offset the attacker's point exposes the circuits to.
    let level = if best.offset_mv <= -83.5 {
        UndervoltLevel::Mv97
    } else {
        UndervoltLevel::Mv70
    };
    let fleet = FleetSim::new(cfg.fleet_config(level))?.run(threads);
    let eff_offset = (best.offset_mv + (1.0 - best.freq_scale) * FREQ_MARGIN_MV_PER_UNIT).min(0.0);
    let m0 = &models[0];
    let len = cfg.audit_len;
    // Eight rows, five distinct audits. Each audit is a pure function of
    // its arguments, so it runs once and fills every row that shows it.
    let seq = AuditSequence::draw(cfg.seed, len);
    let naive = audit_naive_undervolt(&m0.chip, 0, eff_offset, &seq);
    let traps = audit_suit_traps_only(&m0.chip, 0, eff_offset, &seq);
    let suit = audit_suit_system(&m0.chip, 0, eff_offset, &seq);
    let sram_naive = audit_sram_naive(&m0.array, eff_offset, cfg.seed, len);
    let sram_guarded = audit_sram_guarded(&m0.array, eff_offset, cfg.seed, len);
    let row = |fault_class, defence, outcome| AuditRow {
        fault_class,
        defence,
        outcome,
    };
    let defences = vec![
        row("instruction", "naive", naive),
        row("sram", "naive", sram_naive),
        row("instruction", "suit_traps", traps),
        row("sram", "suit_traps", sram_naive),
        row("instruction", "suit_hardened_imul", suit),
        row("sram", "suit_hardened_imul", sram_naive),
        row("instruction", "sram_guarded", suit),
        row("sram", "sram_guarded", sram_guarded),
    ];

    Ok(ScroogeReport {
        chosen: best,
        points_evaluated,
        domains,
        level_mv: (-level.offset_mv()) as u32,
        fleet_perf: fleet.perf(),
        fleet_power: fleet.power(),
        fleet_efficiency: fleet.efficiency(),
        defences,
    })
}

/// The attacker's objective at one `(offset, freq)` point: pure f64
/// arithmetic over the pre-sampled models, evaluated in a fixed order —
/// deterministic for any parallel schedule.
fn eval_point(
    cfg: &ScroogeConfig,
    models: &[DomainModels],
    offset_mv: f64,
    freq: f64,
) -> PointEval {
    // Frequency scaling relaxes every timing path: the circuits behave
    // as if the offset were this much shallower (never above nominal).
    let eff_offset = (offset_mv + (1.0 - freq) * FREQ_MARGIN_MV_PER_UNIT).min(0.0);
    let v_rel = (V_NOM_MV + offset_mv) / V_NOM_MV;
    let rel_power = freq * v_rel * v_rel; // P ∝ f·V²
    let mwh_per_domain = cfg.domain_power_w * cfg.horizon_hours / 1e6;
    let savings = (1.0 - rel_power) * mwh_per_domain * cfg.energy_price * models.len() as f64;

    let mut penalty = 0.0;
    for m in models {
        // Survival against silent data corruption: every faultable
        // instruction on every core, plus every SRAM bank, must hold.
        let mut sdc_survive = 1.0f64;
        for core in 0..m.chip.core_count() {
            for row in TABLE1.iter() {
                let p = m.chip.fault_probability(core, row.opcode, eff_offset);
                if p > 0.0 {
                    sdc_survive *= (1.0 - p).powi(EXECUTIONS_PER_POINT);
                }
            }
        }
        for bank in 0..m.array.bank_count() {
            let p = m.array.fault_probability(bank, eff_offset);
            if p > 0.0 {
                sdc_survive *= (1.0 - p).powi(EXECUTIONS_PER_POINT);
            }
        }
        // Crashes: the non-faultable scalar core logic giving out.
        let mut crash_survive = 1.0f64;
        for core in 0..m.chip.core_count() {
            let p = m.chip.fault_probability(core, Opcode::Alu, eff_offset);
            if p > 0.0 {
                crash_survive *= (1.0 - p).powi(EXECUTIONS_PER_POINT);
            }
        }
        penalty += (1.0 - sdc_survive) * cfg.sdc_cost + (1.0 - crash_survive) * cfg.crash_cost;
    }
    // Lost throughput is an SLA cost: 1/freq − 1 extra hours per hour.
    penalty += (1.0 / freq - 1.0) * cfg.sla_cost * cfg.horizon_hours * models.len() as f64;

    PointEval {
        offset_mv,
        freq_scale: freq,
        savings,
        penalty,
        net: savings - penalty,
    }
}

impl ScroogeReport {
    /// Whether every SUIT-defended row (everything but the `naive`
    /// defence) survived both fault classes at the chosen point.
    pub fn defended_rows_secure(&self) -> bool {
        self.defences
            .iter()
            .filter(|r| r.defence != "naive")
            .all(|r| r.outcome.is_secure())
    }

    /// Serializes the report as deterministic JSON (sorted keys).
    pub fn to_json(&self) -> String {
        let defences: Vec<String> = self.defences.iter().map(audit_row_json).collect();
        format!(
            "{{\"chosen\":{{\"freq_scale\":{},\"net\":{},\"offset_mv\":{},\"penalty\":{},\
             \"savings\":{}}},\"defences\":[{}],\"domains\":{},\
             \"fleet\":{{\"efficiency\":{},\"perf\":{},\"power\":{}}},\"level_mv\":{},\
             \"points_evaluated\":{},\"scenario\":\"scrooge\"}}",
            json_num(self.chosen.freq_scale),
            json_num(self.chosen.net),
            json_num(self.chosen.offset_mv),
            json_num(self.chosen.penalty),
            json_num(self.chosen.savings),
            defences.join(","),
            self.domains,
            json_num(self.fleet_efficiency),
            json_num(self.fleet_perf),
            json_num(self.fleet_power),
            self.level_mv,
            self.points_evaluated
        )
    }

    /// Renders the report as human-readable text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "Scrooge attack on a {}-domain fleet ({} points evaluated):\n",
            self.domains, self.points_evaluated
        ));
        out.push_str(&format!(
            "  chosen point : {:.1} mV at {:.3}x frequency\n",
            self.chosen.offset_mv, self.chosen.freq_scale
        ));
        out.push_str(&format!(
            "  economics    : ${:.2} saved − ${:.2} expected penalty = ${:.2} net\n",
            self.chosen.savings, self.chosen.penalty, self.chosen.net
        ));
        out.push_str(&format!(
            "  fleet check  : −{} mV level, perf {:+.2}%  power {:+.2}%  efficiency {:+.2}%\n",
            self.level_mv,
            self.fleet_perf * 100.0,
            self.fleet_power * 100.0,
            self.fleet_efficiency * 100.0
        ));
        out.push_str("  defences at the chosen point:\n");
        for r in &self.defences {
            out.push_str(&format!(
                "    {:<18} {:<11} executed {:>6}  trapped {:>6}  silent errors {:>4}  {}\n",
                r.defence,
                r.fault_class,
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn search_is_thread_count_invariant() {
        let cfg = ScroogeConfig::default();
        let one = search(&cfg, Threads::Fixed(1), &Telemetry::off()).unwrap();
        for threads in [2, 4] {
            let many = search(&cfg, Threads::Fixed(threads), &Telemetry::off()).unwrap();
            assert_eq!(one.to_json(), many.to_json(), "{threads} threads diverged");
        }
    }

    #[test]
    fn chosen_point_is_in_bounds_and_profitable() {
        let cfg = ScroogeConfig::default();
        let r = search(&cfg, Threads::Fixed(2), &Telemetry::off()).unwrap();
        assert!((cfg.offset_min_mv..=0.0).contains(&r.chosen.offset_mv));
        assert!((cfg.freq_min..=1.0).contains(&r.chosen.freq_scale));
        // The grid contains the do-nothing point (offset 0, freq 1, net
        // 0), so the optimum can never be negative — and with the
        // default economics the attacker actually profits.
        assert!(r.chosen.net > 0.0, "{:?}", r.chosen);
        assert!(r.chosen.offset_mv < 0.0, "attacker must undervolt");
        assert_eq!(
            r.points_evaluated,
            (cfg.offset_steps * cfg.freq_steps + 4 * cfg.refine_rounds) as u64
        );
    }

    #[test]
    fn objective_prefers_safe_depths() {
        let cfg = ScroogeConfig::default();
        let root = SuitRng::seed_from_u64(cfg.seed);
        let models: Vec<DomainModels> = (0..2)
            .map(|d| DomainModels {
                chip: ChipVminModel::sample(2, cfg.sigma_mv, root.fork(2 * d).root_seed()),
                array: SramArrayModel::sample(4, 2, cfg.sigma_mv, root.fork(2 * d + 1).root_seed()),
            })
            .collect();
        let shallow = eval_point(&cfg, &models, -40.0, 1.0);
        let reckless = eval_point(&cfg, &models, -180.0, 1.0);
        assert!(shallow.net > 0.0, "{shallow:?}");
        assert!(reckless.net < shallow.net, "{reckless:?} vs {shallow:?}");
        // Frequency scaling trades SLA cost for margin: at −120 mV the
        // fleet is past its IMUL margins at full speed, but freq_min
        // buys back (1 − 0.7) · 250 = 75 mV, pulling the effective
        // offset back inside them — the penalty must drop.
        let risky = eval_point(&cfg, &models, -120.0, 1.0);
        let slowed = eval_point(&cfg, &models, -120.0, cfg.freq_min);
        assert!(slowed.penalty < risky.penalty, "{slowed:?} vs {risky:?}");
    }

    #[test]
    fn defences_hold_at_the_chosen_point_and_telemetry_counts() {
        let tele = Telemetry::recording();
        let r = search(&ScroogeConfig::default(), Threads::Fixed(2), &tele).unwrap();
        assert!(r.defended_rows_secure(), "{:#?}", r.defences);
        assert_eq!(
            tele.snapshot().counter(Counter::ScroogePointsEvaluated),
            r.points_evaluated
        );
        let doc = suit_telemetry::json::parse(&r.to_json()).expect("valid JSON");
        assert_eq!(
            doc.get("scenario").and_then(|s| s.as_str()),
            Some("scrooge")
        );
        assert!(!r.render().is_empty());
    }
}
