//! Fault-injection campaigns — the Minefield-style sweep behind Table 1.
//!
//! Kogler et al. built a framework that executes each instruction many
//! times while sweeping core, frequency and voltage offset, counting a
//! *fault* for every (core, frequency, offset) combination in which the
//! instruction ever produced a wrong result. Table 1 is the per-opcode
//! tally. [`Campaign`] reproduces that methodology against the
//! [`ChipVminModel`], including the actual wrong-value generation (bit
//! flips in the architectural result): [`fault_mask`] draws the flips the
//! security audit counts, and [`execute_with_faults`] applies them to an
//! emulated result for the RSA-CRT attack.

use suit_emu::{emulate, EmuOperands};
use suit_exec::Threads;
use suit_isa::{FaultableSet, Opcode, Vec128, TABLE1};
use suit_rng::{Rng, SuitRng};
use suit_telemetry::{Counter, Hist, Telemetry};

use crate::vmin::ChipVminModel;

/// A fault-injection campaign configuration.
#[derive(Debug, Clone)]
pub struct Campaign {
    /// The chip under test.
    pub chip: ChipVminModel,
    /// Voltage offsets to sweep (mV, negative).
    pub offsets_mv: Vec<f64>,
    /// Frequencies to sweep, GHz (frequency mainly multiplies the number
    /// of tested combinations, as in the original framework).
    pub freqs_ghz: Vec<f64>,
    /// Executions per (combination, instruction).
    pub executions: u32,
    /// RNG seed.
    pub seed: u64,
}

impl Campaign {
    /// The default sweep: offsets from −80 mV to −180 mV in 10 mV steps,
    /// four frequencies, 10 000 executions per point.
    pub fn standard(chip: ChipVminModel, seed: u64) -> Self {
        Campaign {
            chip,
            offsets_mv: (8..=18).map(|i| -10.0 * i as f64).collect(),
            freqs_ghz: vec![3.6, 4.0, 4.4, 4.8],
            executions: 10_000,
            seed,
        }
    }

    /// Runs the campaign over `threads` workers and tallies faults per
    /// opcode, recording per-shard injection counts and first-fault
    /// depths into `tele`. One job per (core, frequency) shard on the
    /// [`suit_exec`] executor; shard `s` draws from `fork(s)` of the
    /// campaign seed, so the merged report is a pure function of the
    /// configuration no matter how shards land on workers. Shards are
    /// claimed in scheduling-dependent order, so only commutative
    /// telemetry operations (counters, histograms) are recorded here —
    /// no timeline events — keeping the shared-recorder snapshot
    /// thread-count invariant like the report.
    pub fn run(&self, threads: Threads, tele: &Telemetry) -> CampaignReport {
        let shards = self.chip.core_count() * self.freqs_ghz.len();
        let partials = suit_exec::run_seeded(shards, threads, self.seed, |s, mut rng: SuitRng| {
            let core = s / self.freqs_ghz.len();
            self.run_shard(core, &mut rng, tele)
        });
        let mut report = CampaignReport::empty();
        for p in &partials {
            report.merge(p);
        }
        report
    }

    /// One shard: the offset × instruction sweep of a single
    /// (core, frequency) combination.
    fn run_shard(&self, core: usize, rng: &mut SuitRng, tele: &Telemetry) -> CampaignReport {
        let mut report = CampaignReport::empty();
        let mut shard_faults = 0u64;
        for &offset in &self.offsets_mv {
            for row in TABLE1 {
                let op = row.opcode;
                let p = self.chip.fault_probability(core, op, offset);
                if p <= 0.0 {
                    continue;
                }
                // Probability that at least one of `executions` runs
                // faults.
                let p_any = 1.0 - (1.0 - p).powi(self.executions as i32);
                if rng.f64() < p_any {
                    report.faults[op.index()] += 1;
                    let e = &mut report.first_fault_offset[op.index()];
                    *e = e.max(offset);
                    shard_faults += 1;
                }
            }
        }
        tele.count(Counter::CampaignShards);
        tele.add(Counter::FaultsInjected, shard_faults);
        tele.observe(Hist::FaultsPerShard, shard_faults);
        for op in TABLE1.iter().map(|r| r.opcode) {
            let first = report.first_fault_offset[op.index()];
            if first.is_finite() {
                tele.observe(Hist::FirstFaultDepthMv, (-first) as u64);
            }
        }
        report
    }
}

/// Results of a campaign: Table 1-style per-opcode fault counts.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    faults: Vec<u32>,
    first_fault_offset: Vec<f64>,
}

impl CampaignReport {
    fn empty() -> Self {
        CampaignReport {
            faults: vec![0; Opcode::COUNT],
            first_fault_offset: vec![f64::NEG_INFINITY; Opcode::COUNT],
        }
    }

    /// Folds another (disjoint-shard) report into this one. Counts add;
    /// first-fault offsets take the shallowest. Commutative and
    /// associative, so merge order cannot affect the result.
    fn merge(&mut self, other: &CampaignReport) {
        for i in 0..Opcode::COUNT {
            self.faults[i] += other.faults[i];
            self.first_fault_offset[i] =
                self.first_fault_offset[i].max(other.first_fault_offset[i]);
        }
    }

    /// Fault count for an opcode (the Table 1 number-of-faults row).
    pub fn faults(&self, op: Opcode) -> u32 {
        self.faults[op.index()]
    }

    /// The shallowest offset at which the opcode faulted, mV
    /// (−∞ if it never faulted).
    pub fn first_fault_offset_mv(&self, op: Opcode) -> f64 {
        self.first_fault_offset[op.index()]
    }

    /// Opcodes ordered by descending fault count — Table 1's column order.
    pub fn ranking(&self) -> Vec<Opcode> {
        let mut ops: Vec<Opcode> = TABLE1.iter().map(|r| r.opcode).collect();
        ops.sort_by_key(|op| std::cmp::Reverse(self.faults(*op)));
        ops
    }
}

/// Draws whether one execution of `op` at a voltage offset faults, and
/// if so the result bits it flips (1–3 set): [`execute_with_faults`]
/// without the value. `rng` is touched only when a fault is possible.
pub fn fault_mask(
    chip: &ChipVminModel,
    core: usize,
    op: Opcode,
    offset_mv: f64,
    rng: &mut SuitRng,
) -> Option<u128> {
    let p = chip.fault_probability(core, op, offset_mv);
    if p > 0.0 && rng.f64() < p {
        // Undervolting faults flip a small number of data bits (§2.1:
        // late-arriving data on the critical path).
        let flips = rng.gen_range(1u32..=3);
        let mut mask = 0u128;
        for _ in 0..flips {
            mask |= 1u128 << rng.gen_range(0u32..128);
        }
        Some(mask)
    } else {
        None
    }
}

/// Executes one instruction at a voltage offset, injecting a silent data
/// error (the [`fault_mask`] bit flips in the architectural result) with
/// the model's fault probability — the primitive the RSA-CRT attack
/// builds on.
///
/// Returns `(result, faulted)`.
pub fn execute_with_faults(
    chip: &ChipVminModel,
    core: usize,
    op: Opcode,
    operands: EmuOperands,
    offset_mv: f64,
    rng: &mut SuitRng,
) -> (Vec128, bool) {
    let correct = emulate(op, operands)
        .expect("faultable opcodes are emulatable")
        .value;
    match fault_mask(chip, core, op, offset_mv, rng) {
        Some(mask) => (Vec128::from_u128(correct.as_u128() ^ mask), true),
        None => (correct, false),
    }
}

/// Convenience: the faultable set that must be disabled for the sweep's
/// deepest offset to be safe on every core.
pub fn required_disable_set(chip: &ChipVminModel, offset_mv: f64) -> FaultableSet {
    let mut set = FaultableSet::new();
    for row in TABLE1 {
        for core in 0..chip.core_count() {
            if chip.can_fault(core, row.opcode, offset_mv) {
                set.insert(row.opcode);
                break;
            }
        }
    }
    set
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chip() -> ChipVminModel {
        ChipVminModel::sample(4, 12.0, 42)
    }

    #[test]
    fn imul_tops_the_fault_ranking() {
        let report = Campaign::standard(chip(), 1).run(Threads::Auto, &Telemetry::off());
        let ranking = report.ranking();
        assert_eq!(ranking[0], Opcode::Imul, "{ranking:?}");
        // And VPADDQ (1 fault in the paper) is at or near the bottom.
        let pos = ranking.iter().position(|&o| o == Opcode::Vpaddq).unwrap();
        assert!(pos >= 9, "VPADDQ ranked {pos}");
    }

    #[test]
    fn fault_counts_follow_margin_order_broadly() {
        let report = Campaign::standard(chip(), 1).run(Threads::Auto, &Telemetry::off());
        // Rarely-faulting instructions fault at deeper offsets on average
        // (Table 1 caption).
        assert!(report.faults(Opcode::Imul) > report.faults(Opcode::Vpcmp));
        assert!(report.faults(Opcode::Vor) > report.faults(Opcode::Vpaddq));
        assert!(
            report.first_fault_offset_mv(Opcode::Imul)
                > report.first_fault_offset_mv(Opcode::Vpaddq),
            "IMUL faults at shallower undervolt"
        );
    }

    #[test]
    fn campaign_is_deterministic() {
        let a = Campaign::standard(chip(), 9).run(Threads::Auto, &Telemetry::off());
        let b = Campaign::standard(chip(), 9).run(Threads::Auto, &Telemetry::off());
        assert_eq!(a, b);
    }

    #[test]
    fn campaign_is_thread_count_invariant() {
        let serial = Campaign::standard(chip(), 9).run(Threads::Fixed(1), &Telemetry::off());
        for threads in [2, 4, 8] {
            let parallel =
                Campaign::standard(chip(), 9).run(Threads::Fixed(threads), &Telemetry::off());
            assert_eq!(serial, parallel, "{threads} threads diverged");
        }
    }

    #[test]
    fn campaign_telemetry_is_thread_count_invariant() {
        let campaign = Campaign::standard(chip(), 9);
        let tele = Telemetry::recording();
        let serial = campaign.run(Threads::Fixed(1), &tele);
        let reference = tele.snapshot();
        let shards = (campaign.chip.core_count() * campaign.freqs_ghz.len()) as u64;
        assert_eq!(reference.counter(Counter::CampaignShards), shards);
        let total: u32 = TABLE1.iter().map(|r| serial.faults(r.opcode)).sum();
        assert_eq!(reference.counter(Counter::FaultsInjected), u64::from(total));
        assert_eq!(reference.hist(Hist::FaultsPerShard).count(), shards);
        assert!(reference.hist(Hist::FirstFaultDepthMv).count() > 0);
        for threads in [2, 4, 8] {
            let tele = Telemetry::recording();
            let parallel = campaign.run(Threads::Fixed(threads), &tele);
            assert_eq!(serial, parallel, "{threads} threads diverged");
            assert_eq!(
                reference,
                tele.snapshot(),
                "{threads}-thread telemetry diverged"
            );
        }
    }

    #[test]
    fn no_faults_at_conservative_voltage() {
        let c = chip();
        let mut campaign = Campaign::standard(c, 1);
        campaign.offsets_mv = vec![0.0, -20.0, -50.0];
        let report = campaign.run(Threads::Auto, &Telemetry::off());
        for row in TABLE1 {
            assert_eq!(report.faults(row.opcode), 0, "{}", row.opcode);
        }
    }

    #[test]
    fn injected_faults_corrupt_results() {
        let c = ChipVminModel::sample(1, 0.0, 5);
        let mut rng = SuitRng::seed_from_u64(3);
        let ops = EmuOperands::new(Vec128::from_u128(7), Vec128::from_u128(9));
        // Deep below IMUL's margin: always faults.
        let (bad, faulted) = execute_with_faults(&c, 0, Opcode::Imul, ops, -150.0, &mut rng);
        assert!(faulted);
        assert_ne!(bad.as_u128(), 63, "result must be corrupted");
        // At stock voltage: never faults, result exact.
        let (good, faulted) = execute_with_faults(&c, 0, Opcode::Imul, ops, 0.0, &mut rng);
        assert!(!faulted);
        assert_eq!(good.as_u128(), 63);
    }

    #[test]
    fn required_disable_set_grows_with_depth() {
        let c = chip();
        let shallow = required_disable_set(&c, -105.0);
        let deep = required_disable_set(&c, -175.0);
        assert!(shallow.len() <= deep.len());
        assert!(shallow.contains(Opcode::Imul), "IMUL binds first");
        assert_eq!(deep.intersection(FaultableSet::table1()), deep);
    }
}
