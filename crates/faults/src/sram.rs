//! Per-bank SRAM minimum-voltage fault model — the second fault domain.
//!
//! The instruction-Vmin model ([`crate::vmin`]) covers datapath timing
//! faults: wrong results out of a live execution unit. Soyturk et al.
//! ("Hardware Versus Software Fault Injection of Modern Undervolted
//! SRAMs") measured a *different* failure family in the on-die SRAM
//! arrays: each cache/ROB bank has its own minimum retention voltage,
//! the distribution across banks is much tighter than the Fig. 2
//! instruction spread, the onset is sharper, and — crucially — the
//! failures are *repeatable*: the same handful of weak cells flip in the
//! same bank every time the bank drops below its Vmin. This module
//! reproduces that family:
//!
//! * [`SramArrayModel`] samples per-bank margins from a lower-variance
//!   distribution than the instruction curves (bank sigma is
//!   [`SRAM_SIGMA_SCALE`] of the datapath sigma, onset width
//!   [`SRAM_ONSET_WIDTH_MV`] is half the instruction band) and fixes each
//!   bank's weak-cell positions at sampling time, so a faulting bank
//!   corrupts words with a *deterministic* per-bank flip mask.
//! * [`SramCampaign`] sweeps banks × offsets with thread-count-invariant
//!   per-shard counts merged over [`suit_exec`], mirroring
//!   [`crate::inject::Campaign`].
//! * [`audit_sram_naive`] / [`audit_sram_guarded`] extend the §6.9 audit
//!   to the new class: the SRAM-aware invariant is *no live bank operates
//!   below its bank-Vmin, or its contents are treated as untrusted* — the
//!   guarded system quarantines every bank whose margin the offset
//!   crosses and re-fetches through it at the conservative voltage.

use suit_exec::Threads;
use suit_rng::{Rng, SuitRng};
use suit_telemetry::{Counter, Hist, Telemetry};
use suit_trace::gen::standard_normal;

use crate::security::AuditOutcome;
use crate::vmin::onset_probability;

/// Which microarchitectural array a bank belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SramBankKind {
    /// A data/instruction cache bank (6T cells, larger retention margin).
    Cache,
    /// A reorder-buffer bank (denser, ages first under undervolt).
    Rob,
}

impl SramBankKind {
    /// Short lowercase label for reports.
    pub fn label(self) -> &'static str {
        match self {
            SramBankKind::Cache => "cache",
            SramBankKind::Rob => "rob",
        }
    }
}

/// Mean retention margin (mV below the conservative-curve voltage) at
/// which a bank of the given kind starts flipping its weak cells.
/// The SRAM family sits *above* IMUL's 95 mV datapath margin — caches
/// keep retaining after the first instructions fault — but below the
/// −250 mV horizon, matching Soyturk et al.'s observation that SRAM
/// failures appear between the first datapath faults and a full crash.
pub fn mean_bank_margin_mv(kind: SramBankKind) -> f64 {
    match kind {
        SramBankKind::Cache => 150.0,
        SramBankKind::Rob => 138.0,
    }
}

/// Width of the SRAM fault-onset band, mV. Retention failure is much
/// sharper than datapath timing: half the instruction onset band
/// ([`crate::vmin::ONSET_WIDTH_MV`]).
pub const SRAM_ONSET_WIDTH_MV: f64 = 6.0;

/// Bank-to-bank sigma as a fraction of the datapath process-variation
/// sigma — the "distinct, lower-variance family" of Soyturk et al.
pub const SRAM_SIGMA_SCALE: f64 = 0.35;

/// One SRAM bank: its sampled retention margin and its fixed weak-cell
/// flip mask (1–3 bit positions within a 128-bit word, chosen at
/// sampling time — below Vmin, the *same* cells flip on every access).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SramBank {
    /// Array this bank belongs to.
    pub kind: SramBankKind,
    /// Margin below the conservative curve at which retention fails, mV.
    pub margin_mv: f64,
    /// The weak cells: XOR-ed into every word read below the margin.
    pub flip_mask: u128,
}

/// A sampled SRAM array instance: cache banks first, then ROB banks.
#[derive(Debug, Clone, PartialEq)]
pub struct SramArrayModel {
    banks: Vec<SramBank>,
}

impl SramArrayModel {
    /// Samples an array with `cache_banks` + `rob_banks` banks.
    /// `sigma_mv` is the *datapath* process-variation sigma — the SRAM
    /// family scales it down by [`SRAM_SIGMA_SCALE`]; `seed` makes the
    /// array (margins *and* weak-cell positions) reproducible.
    pub fn sample(cache_banks: usize, rob_banks: usize, sigma_mv: f64, seed: u64) -> Self {
        assert!(cache_banks + rob_banks >= 1, "need at least one bank");
        assert!(sigma_mv >= 0.0);
        let mut rng = SuitRng::seed_from_u64(seed);
        let bank_sigma = sigma_mv * SRAM_SIGMA_SCALE;
        // Array-wide shift (die-to-die), tighter than the datapath's.
        let array_shift: f64 = standard_normal(&mut rng) * bank_sigma * 0.7;
        let mut banks = Vec::with_capacity(cache_banks + rob_banks);
        for i in 0..cache_banks + rob_banks {
            let kind = if i < cache_banks {
                SramBankKind::Cache
            } else {
                SramBankKind::Rob
            };
            let noise = standard_normal(&mut rng) * bank_sigma;
            let flips = rng.gen_range(1u32..=3);
            let mut flip_mask = 0u128;
            for _ in 0..flips {
                flip_mask |= 1u128 << rng.gen_range(0u32..128);
            }
            banks.push(SramBank {
                kind,
                margin_mv: (mean_bank_margin_mv(kind) + array_shift + noise).max(40.0),
                flip_mask,
            });
        }
        SramArrayModel { banks }
    }

    /// Number of banks (cache + ROB).
    pub fn bank_count(&self) -> usize {
        self.banks.len()
    }

    /// The bank at `index`.
    pub fn bank(&self, index: usize) -> SramBank {
        self.banks[index]
    }

    /// Retention margin of bank `index`, mV below the conservative curve.
    pub fn margin_mv(&self, index: usize) -> f64 {
        self.banks[index].margin_mv
    }

    /// Probability that one access to bank `index` at `offset_mv`
    /// (negative) returns the weak cells flipped. Same quadratic onset
    /// shape as the instruction model, over the sharper
    /// [`SRAM_ONSET_WIDTH_MV`] band.
    pub fn fault_probability(&self, index: usize, offset_mv: f64) -> f64 {
        onset_probability(self.margin_mv(index), offset_mv, SRAM_ONSET_WIDTH_MV)
    }

    /// Whether bank `index` can flip at all at `offset_mv`.
    pub fn can_fault(&self, index: usize, offset_mv: f64) -> bool {
        self.fault_probability(index, offset_mv) > 0.0
    }

    /// Indices of every bank that can fault at `offset_mv`, ascending.
    /// Monotone in depth: a deeper offset yields a superset — the basis
    /// of the guarded audit's quarantine.
    pub fn faulted_banks(&self, offset_mv: f64) -> Vec<usize> {
        (0..self.banks.len())
            .filter(|&i| self.can_fault(i, offset_mv))
            .collect()
    }

    /// Reads `word` through bank `index` at `offset_mv`: with the bank's
    /// fault probability the fixed weak cells flip. Returns
    /// `(value, flipped)`.
    pub fn read_word(
        &self,
        index: usize,
        word: u128,
        offset_mv: f64,
        rng: &mut SuitRng,
    ) -> (u128, bool) {
        let p = self.fault_probability(index, offset_mv);
        if p > 0.0 && rng.f64() < p {
            (word ^ self.banks[index].flip_mask, true)
        } else {
            (word, false)
        }
    }
}

/// An SRAM injection campaign: sweep every bank over a set of offsets,
/// counting retention faults — the Soyturk-style analogue of the
/// Minefield instruction sweep.
#[derive(Debug, Clone)]
pub struct SramCampaign {
    /// The array under test.
    pub array: SramArrayModel,
    /// Voltage offsets to sweep (mV, negative).
    pub offsets_mv: Vec<f64>,
    /// Accesses per (bank, offset) point.
    pub reads: u32,
    /// RNG seed.
    pub seed: u64,
}

impl SramCampaign {
    /// The default sweep: offsets from −100 mV to −180 mV in 10 mV
    /// steps, 4096 accesses per point.
    pub fn standard(array: SramArrayModel, seed: u64) -> Self {
        SramCampaign {
            array,
            offsets_mv: (10..=18).map(|i| -10.0 * i as f64).collect(),
            reads: 4096,
            seed,
        }
    }

    /// Runs the campaign over `threads` workers, recording per-shard
    /// counts into `tele`: one shard per bank on the [`suit_exec`]
    /// executor, shard `s` drawing from `fork(s)` of the campaign seed,
    /// partials merged with commutative ops. Telemetry records only
    /// commutative operations (counters, histograms), so the snapshot is
    /// thread-count invariant like the report.
    pub fn run(&self, threads: Threads, tele: &Telemetry) -> SramCampaignReport {
        let shards = self.array.bank_count();
        let partials =
            suit_exec::run_seeded(shards, threads, self.seed, |bank, mut rng: SuitRng| {
                self.run_shard(bank, &mut rng, tele)
            });
        let mut report = SramCampaignReport::empty(shards);
        for p in &partials {
            report.merge(p);
        }
        report
    }

    /// One shard: the offset sweep of a single bank.
    fn run_shard(&self, bank: usize, rng: &mut SuitRng, tele: &Telemetry) -> SramCampaignReport {
        let mut report = SramCampaignReport::empty(self.array.bank_count());
        let mut shard_faults = 0u64;
        for &offset in &self.offsets_mv {
            let p = self.array.fault_probability(bank, offset);
            if p <= 0.0 {
                continue;
            }
            // Probability that at least one of `reads` accesses flips.
            let p_any = 1.0 - (1.0 - p).powi(self.reads as i32);
            if rng.f64() < p_any {
                report.faults[bank] += 1;
                report.bits_flipped += u64::from(self.array.bank(bank).flip_mask.count_ones());
                let e = &mut report.first_fault_offset[bank];
                *e = e.max(offset);
                shard_faults += 1;
            }
        }
        tele.count(Counter::SramBanksSwept);
        tele.add(Counter::SramBitFlips, report.bits_flipped);
        tele.observe(Hist::SramFaultsPerBank, shard_faults);
        report
    }
}

/// Results of an SRAM campaign: per-bank fault counts and first-fault
/// depths.
#[derive(Debug, Clone, PartialEq)]
pub struct SramCampaignReport {
    faults: Vec<u32>,
    first_fault_offset: Vec<f64>,
    bits_flipped: u64,
}

impl SramCampaignReport {
    fn empty(banks: usize) -> Self {
        SramCampaignReport {
            faults: vec![0; banks],
            first_fault_offset: vec![f64::NEG_INFINITY; banks],
            bits_flipped: 0,
        }
    }

    /// Folds another (disjoint-shard) report in. Counts add, first-fault
    /// offsets take the shallowest — commutative and associative.
    fn merge(&mut self, other: &SramCampaignReport) {
        for i in 0..self.faults.len() {
            self.faults[i] += other.faults[i];
            self.first_fault_offset[i] =
                self.first_fault_offset[i].max(other.first_fault_offset[i]);
        }
        self.bits_flipped += other.bits_flipped;
    }

    /// Fault count (offset points with ≥ 1 flip) for a bank.
    pub fn faults(&self, bank: usize) -> u32 {
        self.faults[bank]
    }

    /// The shallowest offset at which the bank flipped, mV (−∞ if never).
    pub fn first_fault_offset_mv(&self, bank: usize) -> f64 {
        self.first_fault_offset[bank]
    }

    /// Total faulting (bank, offset) points.
    pub fn total_faults(&self) -> u64 {
        self.faults.iter().map(|&f| u64::from(f)).sum()
    }

    /// Total weak-cell bits flipped across the sweep.
    pub fn bits_flipped(&self) -> u64 {
        self.bits_flipped
    }
}

/// Audits a **naive undervolt** against the SRAM class: every access
/// goes straight to a bank at the full offset, so any bank below its
/// retention margin silently corrupts the data it returns — the SRAM
/// analogue of the Plundervolt scenario.
pub fn audit_sram_naive(
    array: &SramArrayModel,
    offset_mv: f64,
    seed: u64,
    accesses: usize,
) -> AuditOutcome {
    let mut rng = SuitRng::seed_from_u64(seed ^ 0x50AD);
    let mut out = AuditOutcome::default();
    for _ in 0..accesses {
        let bank = rng.gen_range(0..array.bank_count());
        let word = rng.u128();
        let (got, _) = array.read_word(bank, word, offset_mv, &mut rng);
        out.executed += 1;
        if got != word {
            out.silent_errors += 1;
        }
    }
    out
}

/// Audits an **SRAM-guarded** system at the same offset. The SRAM-aware
/// §6.9 invariant is: *no live bank operates below its bank-Vmin, or its
/// contents are treated as untrusted*. The guard quarantines every bank
/// whose margin the offset crosses ([`SramArrayModel::faulted_banks`]);
/// an access to a quarantined bank counts as trapped and is re-fetched
/// at the conservative voltage (offset 0), where retention is qualified.
/// Any silent error disproves the extended invariant.
pub fn audit_sram_guarded(
    array: &SramArrayModel,
    offset_mv: f64,
    seed: u64,
    accesses: usize,
) -> AuditOutcome {
    let mut rng = SuitRng::seed_from_u64(seed ^ 0x6A4D);
    let untrusted = array.faulted_banks(offset_mv);
    let mut out = AuditOutcome::default();
    for _ in 0..accesses {
        let bank = rng.gen_range(0..array.bank_count());
        let word = rng.u128();
        let effective_offset = if untrusted.binary_search(&bank).is_ok() {
            // Untrusted bank: discard its contents, re-fetch on the
            // conservative curve.
            out.trapped += 1;
            0.0
        } else {
            offset_mv
        };
        let (got, _) = array.read_word(bank, word, effective_offset, &mut rng);
        out.executed += 1;
        if got != word {
            out.silent_errors += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vmin::{ChipVminModel, ONSET_WIDTH_MV};

    fn array() -> SramArrayModel {
        SramArrayModel::sample(8, 4, 12.0, 42)
    }

    #[test]
    fn sampling_is_reproducible_and_varies_by_seed() {
        let a = SramArrayModel::sample(4, 2, 12.0, 1);
        let b = SramArrayModel::sample(4, 2, 12.0, 1);
        let c = SramArrayModel::sample(4, 2, 12.0, 2);
        assert_eq!(a, b);
        assert_ne!(a.margin_mv(0), c.margin_mv(0));
        assert_eq!(a.bank_count(), 6);
        assert_eq!(a.bank(0).kind, SramBankKind::Cache);
        assert_eq!(a.bank(5).kind, SramBankKind::Rob);
    }

    #[test]
    fn weak_cell_masks_are_nonzero_and_small() {
        let m = array();
        for i in 0..m.bank_count() {
            let ones = m.bank(i).flip_mask.count_ones();
            assert!((1..=3).contains(&ones), "bank {i}: {ones} weak cells");
        }
    }

    #[test]
    fn sram_family_has_lower_variance_than_instruction_curves() {
        // Same sigma, many seeds: the spread of bank margins must be well
        // below the spread of per-core instruction margins.
        let sigma = 15.0;
        let (mut sram_dev, mut inst_dev, mut n) = (0.0, 0.0, 0);
        for seed in 0..40 {
            let m = SramArrayModel::sample(6, 0, sigma, seed);
            let mean: f64 = (0..6).map(|i| m.margin_mv(i)).sum::<f64>() / 6.0;
            sram_dev += (0..6).map(|i| (m.margin_mv(i) - mean).powi(2)).sum::<f64>() / 6.0;
            let chip = ChipVminModel::sample(6, sigma, seed);
            let imul_mean: f64 = (0..6)
                .map(|c| chip.margin_mv(c, suit_isa::Opcode::Imul))
                .sum::<f64>()
                / 6.0;
            inst_dev += (0..6)
                .map(|c| (chip.margin_mv(c, suit_isa::Opcode::Imul) - imul_mean).powi(2))
                .sum::<f64>()
                / 6.0;
            n += 1;
        }
        let (sram_sd, inst_sd) = ((sram_dev / n as f64).sqrt(), (inst_dev / n as f64).sqrt());
        assert!(
            sram_sd < inst_sd * 0.6,
            "SRAM family not tighter: {sram_sd:.1} vs {inst_sd:.1} mV"
        );
        // And the onset band is sharper by construction.
        const _: () = assert!(SRAM_ONSET_WIDTH_MV < ONSET_WIDTH_MV);
    }

    #[test]
    fn rob_banks_fail_before_cache_banks_on_average() {
        let mut cache = 0.0;
        let mut rob = 0.0;
        for seed in 0..40 {
            let m = SramArrayModel::sample(4, 4, 12.0, seed);
            cache += (0..4).map(|i| m.margin_mv(i)).sum::<f64>();
            rob += (4..8).map(|i| m.margin_mv(i)).sum::<f64>();
        }
        assert!(rob < cache, "ROB margins must sit below cache margins");
    }

    #[test]
    fn fault_probability_shape() {
        let m = SramArrayModel::sample(1, 0, 0.0, 7); // no variation
        let margin = m.margin_mv(0);
        assert_eq!(margin, mean_bank_margin_mv(SramBankKind::Cache));
        assert_eq!(m.fault_probability(0, -(margin - 1.0)), 0.0);
        assert_eq!(m.fault_probability(0, -(margin + 10.0)), 1.0);
        let mid = m.fault_probability(0, -(margin + 3.0));
        assert!((0.0..1.0).contains(&mid) && mid > 0.0, "{mid}");
        assert!(m.fault_probability(0, -(margin + 5.0)) > mid);
    }

    #[test]
    fn faulted_banks_grow_monotonically_with_depth() {
        let m = array();
        let shallow = m.faulted_banks(-140.0);
        let deep = m.faulted_banks(-200.0);
        for b in &shallow {
            assert!(deep.contains(b), "bank {b} vanished at deeper offset");
        }
        assert!(deep.len() >= shallow.len());
        assert_eq!(deep.len(), m.bank_count(), "−200 mV is below every bank");
        assert!(m.faulted_banks(0.0).is_empty());
    }

    #[test]
    fn flips_are_deterministic_per_bank() {
        let m = array();
        let mut rng = SuitRng::seed_from_u64(1);
        // Far below every margin: always flips, always the same cells.
        let (a, fa) = m.read_word(3, 0xFFFF, -400.0, &mut rng);
        let (b, fb) = m.read_word(3, 0xFFFF, -400.0, &mut rng);
        assert!(fa && fb);
        assert_eq!(a, b);
        assert_eq!(a, 0xFFFF ^ m.bank(3).flip_mask);
    }

    #[test]
    fn campaign_is_deterministic_and_thread_count_invariant() {
        let serial = SramCampaign::standard(array(), 9).run(Threads::Fixed(1), &Telemetry::off());
        for threads in [2, 4, 8] {
            let parallel =
                SramCampaign::standard(array(), 9).run(Threads::Fixed(threads), &Telemetry::off());
            assert_eq!(serial, parallel, "{threads} threads diverged");
        }
        assert!(serial.total_faults() > 0, "standard sweep must fault");
        assert!(serial.bits_flipped() > 0);
    }

    #[test]
    fn campaign_telemetry_is_thread_count_invariant() {
        let campaign = SramCampaign::standard(array(), 9);
        let tele = Telemetry::recording();
        let serial = campaign.run(Threads::Fixed(1), &tele);
        let reference = tele.snapshot();
        let banks = campaign.array.bank_count() as u64;
        assert_eq!(reference.counter(Counter::SramBanksSwept), banks);
        assert_eq!(
            reference.counter(Counter::SramBitFlips),
            serial.bits_flipped()
        );
        assert_eq!(reference.hist(Hist::SramFaultsPerBank).count(), banks);
        for threads in [2, 4] {
            let tele = Telemetry::recording();
            let parallel = campaign.run(Threads::Fixed(threads), &tele);
            assert_eq!(serial, parallel, "{threads} threads diverged");
            assert_eq!(reference, tele.snapshot(), "{threads}-thread telemetry");
        }
    }

    #[test]
    fn no_faults_at_conservative_voltage() {
        let mut campaign = SramCampaign::standard(array(), 1);
        campaign.offsets_mv = vec![0.0, -50.0, -100.0];
        let report = campaign.run(Threads::Auto, &Telemetry::off());
        // −100 mV sits below every bank margin in this family.
        assert_eq!(report.total_faults(), 0);
    }

    #[test]
    fn guarded_audit_is_clean_where_naive_is_not() {
        let mut naive_errors = 0;
        for seed in 0..10 {
            let m = SramArrayModel::sample(8, 4, 12.0, seed);
            let naive = audit_sram_naive(&m, -160.0, seed, 3000);
            naive_errors += naive.silent_errors;
            let guarded = audit_sram_guarded(&m, -160.0, seed, 3000);
            assert!(guarded.is_secure(), "seed {seed}: {guarded:?}");
            assert!(guarded.trapped > 0, "audit must exercise the quarantine");
        }
        assert!(
            naive_errors > 0,
            "naive SRAM undervolt must eventually flip"
        );
    }

    #[test]
    fn guard_traps_nothing_above_every_margin() {
        let m = array();
        let out = audit_sram_guarded(&m, -50.0, 3, 1000);
        assert!(out.is_secure());
        assert_eq!(out.trapped, 0, "no bank is below margin at −50 mV");
    }
}
