//! The discrete-event simulation engine (Fig. 15).
//!
//! One engine instance simulates one DVFS *domain*: a set of cores that
//! share the curve state (one core for the per-core-domain CPUs ℬ and 𝒞 or
//! single-core runs of 𝒜; up to the full core count for 𝒜's single shared
//! domain, where a `#DO` on any core drags every core to the conservative
//! curve and back — §6.2, "a DVFS curve change subsequently impacts all
//! cores").
//!
//! Time advances from event to event:
//!
//! 1. a core reaches its next faultable instruction (trap or execute),
//! 2. the deadline timer expires (switch back to the efficient curve),
//! 3. a pending asynchronous p-state change arrives (e.g. the 𝑓𝑉
//!    strategy's voltage raise completing 335 µs after it was requested).
//!
//! Between events, every core executes instructions at
//! `IPC × f_base × perf(point)` and the domain draws `power(point)`
//! relative package power; stalls (switch waits, exception entries) burn
//! time and power without instruction progress. The engine implements
//! [`CpuControl`], so the *unmodified* Listing 1 policy from `suit-core`
//! drives it.

use suit_core::adaptive::AdaptiveConfig;
use suit_core::deadline::DeadlineTimer;
use suit_core::strategy::StrategyParams;
use suit_core::{
    CpuControl, CurveSelect, CurveTarget, DisabledOpcode, HandlerAction, OperatingStrategy,
    StrategyKey, SuitMsrs, SuitOs,
};
use suit_hw::{CpuModel, DelayTable, OperatingPoint, PointKind, UndervoltLevel};
use suit_isa::{SimDuration, SimTime};
use suit_telemetry::{Counter, EventKind, Hist, Telemetry};
use suit_trace::io::TraceMeta;
use suit_trace::{Burst, TraceGen, WorkloadProfile};

use crate::result::RunResult;

/// Upper bound on cores sharing one simulated DVFS domain: the engine
/// builds one instruction stream per core up front.
pub const MAX_DOMAIN_CORES: usize = 1024;

/// Configuration of one simulation run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Operating strategy (must be a curve-switching one for the engine;
    /// use [`crate::analytic`] for emulation / no-SIMD).
    pub strategy: OperatingStrategy,
    /// Strategy parameters (Table 7).
    pub params: StrategyParams,
    /// Undervolt level of the efficient curve.
    pub level: UndervoltLevel,
    /// Cores sharing this DVFS domain, each running one copy of the
    /// workload (SPECrate style).
    pub cores: usize,
    /// RNG seed for trace generation (per-core streams use `seed + core`).
    pub seed: u64,
    /// Optional cap on simulated instructions per core (tests use small
    /// caps; `None` runs the profile's full virtual length).
    pub max_insts: Option<u64>,
    /// Record p-state changes for timeline figures.
    pub record_timeline: bool,
    /// §6.8 dynamic strategy selection: when set, the OS starts in
    /// emulation mode and flips between emulation and 𝑓𝑉 per the observed
    /// `#DO` traffic (the `strategy` field then only shapes the operating
    /// points; use [`OperatingStrategy::FreqVolt`]).
    pub adaptive: Option<AdaptiveConfig>,
}

impl SimConfig {
    /// A single-core 𝑓𝑉 run at −97 mV with Intel Table 7 parameters.
    pub fn fv_intel(level: UndervoltLevel) -> Self {
        SimConfig {
            strategy: OperatingStrategy::FreqVolt,
            params: StrategyParams::intel(),
            level,
            cores: 1,
            seed: 0x5017,
            max_insts: None,
            record_timeline: false,
            adaptive: None,
        }
    }

    /// The single-core run of one named evaluation point: `strategy`'s
    /// operating strategy (with §6.8's chooser for `adaptive`) under
    /// `cpu`'s Table 7 parameters. `e` is closed-form
    /// ([`crate::analytic::simulate_emulation`]), never an engine run.
    pub fn for_point(cpu: &CpuModel, strategy: StrategyKey, level: UndervoltLevel) -> Self {
        SimConfig {
            strategy: strategy.strategy(),
            params: crate::experiment::params_for(cpu),
            adaptive: (strategy == StrategyKey::Adaptive)
                .then(|| AdaptiveConfig::for_cpu(&cpu.delays)),
            ..SimConfig::fv_intel(level)
        }
    }

    /// A single-core run with the §6.8 adaptive emulation/𝑓𝑉 chooser.
    pub fn adaptive_intel(level: UndervoltLevel) -> Self {
        let mut cfg = Self::fv_intel(level);
        cfg.adaptive = Some(AdaptiveConfig::intel());
        cfg
    }

    /// A single-core frequency-only run with AMD Table 7 parameters.
    pub fn f_amd(level: UndervoltLevel) -> Self {
        SimConfig {
            strategy: OperatingStrategy::Frequency,
            params: StrategyParams::amd(),
            level,
            cores: 1,
            seed: 0x5017,
            max_insts: None,
            record_timeline: false,
            adaptive: None,
        }
    }

    /// Returns a copy capped to `max_insts` simulated instructions.
    pub fn with_max_insts(mut self, max_insts: u64) -> Self {
        self.max_insts = Some(max_insts);
        self
    }

    /// Returns a copy with `cores` cores sharing the domain.
    pub fn with_cores(mut self, cores: usize) -> Self {
        self.cores = cores;
        self
    }
}

/// Performance penalty of the SUIT-hardened 4-cycle `IMUL` for a workload
/// (§6.1 / Fig. 14): the extra cycle is mostly hidden by out-of-order
/// execution; dense multiply code (525.x264, 0.99 % IMUL) exposes ~70 % of
/// it, sparse code ~30 %. Evaluates to ≈1.5 % for x264 and ≈0.03 % on
/// SPEC average — the paper's measured 1.60 % / 0.03 %.
pub fn imul_penalty(profile: &WorkloadProfile) -> f64 {
    let exposure = if profile.imul_fraction > 0.005 {
        0.7
    } else {
        0.3
    };
    profile.imul_fraction * profile.ipc * exposure
}

/// The three operating points of Fig. 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Point {
    /// Efficient curve.
    E,
    /// Conservative by frequency.
    Cf,
    /// Conservative by voltage.
    Cv,
}

impl Point {
    /// The telemetry payload identifying this point in curve-switch and
    /// residency events.
    fn arg(self) -> u64 {
        match self {
            Point::E => 0,
            Point::Cf => 1,
            Point::Cv => 2,
        }
    }

    /// The delay-table row for transitions targeting this point.
    fn kind(self) -> PointKind {
        match self {
            Point::E => PointKind::Efficient,
            Point::Cf => PointKind::ConservativeFreq,
            Point::Cv => PointKind::ConservativeVolt,
        }
    }
}

/// One recorded p-state change (for Figs. 5 and 6).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointChange {
    /// When the domain reached the point.
    pub at: SimTime,
    /// The point reached.
    pub point: Point,
}

pub(crate) struct PointTable {
    e: OperatingPoint,
    cf: OperatingPoint,
    cv: OperatingPoint,
}

impl PointTable {
    fn get(&self, p: Point) -> OperatingPoint {
        match p {
            Point::E => self.e,
            Point::Cf => self.cf,
            Point::Cv => self.cv,
        }
    }

    /// The efficient operating point (used by the analytic modes, which
    /// never leave `E`).
    pub(crate) fn e_point(&self) -> OperatingPoint {
        self.e
    }
}

/// Hardware-side state: everything the OS policy manipulates through
/// [`CpuControl`], plus the accounting. Shared between the arena
/// scheduler in [`crate::arena`] and the legacy scan loop kept for the
/// differential equivalence suite.
pub(crate) struct Hw {
    pub(crate) now: SimTime,
    pub(crate) point: Point,
    pub(crate) pending: Option<(Point, SimTime)>,
    /// The architectural MSR pair: the engine drives the *real* register
    /// model from `suit-core`, so the §3.2 invariant (efficient curve ⇒
    /// faultable set disabled) is enforced on every simulated transition,
    /// not just asserted in unit tests.
    msrs: SuitMsrs,
    pub(crate) timer: DeadlineTimer,
    /// Transition delays precomputed per (target point, transition kind)
    /// at boot — the hot path does one table lookup where it used to
    /// re-derive sums from the µs-valued [`suit_hw::TransitionDelays`].
    pub(crate) dtab: DelayTable,
    points: PointTable,
    // Accounting.
    energy_rel: f64,
    time_e: SimDuration,
    time_cf: SimDuration,
    time_cv: SimDuration,
    time_stall: SimDuration,
    timeline: Option<Vec<PointChange>>,
    // Observability (never feeds back into simulation state, so results
    // are identical with telemetry on or off).
    tele: Telemetry,
    /// When the current operating point was entered (residency spans).
    point_since: SimTime,
    /// Start of the conservative episode in progress, if any (the span
    /// from leaving `E` to arriving back on it).
    conservative_since: Option<SimTime>,
}

impl Hw {
    pub(crate) fn disabled(&self) -> bool {
        // The engine's opcode check: is the (shared) faultable set armed?
        self.msrs.is_disabled(suit_isa::Opcode::Aesenc)
    }

    pub(crate) fn perf(&self) -> f64 {
        self.points.get(self.point).perf
    }

    fn power(&self) -> f64 {
        self.points.get(self.point).power
    }

    /// Advances time with execution: instructions flow, state time and
    /// energy accumulate.
    pub(crate) fn run_for(&mut self, dt: SimDuration) {
        self.energy_rel += self.power() * dt.as_secs_f64();
        // The telemetry time counters accumulate the *same* dt as the
        // engine aggregates, so residency re-derived from telemetry is
        // exact, not approximate.
        match self.point {
            Point::E => {
                self.time_e += dt;
                self.tele.add(Counter::TimeEfficientPs, dt.as_picos());
            }
            Point::Cf => {
                self.time_cf += dt;
                self.tele
                    .add(Counter::TimeConservativeFreqPs, dt.as_picos());
            }
            Point::Cv => {
                self.time_cv += dt;
                self.tele
                    .add(Counter::TimeConservativeVoltPs, dt.as_picos());
            }
        }
        self.now += dt;
    }

    /// Advances `n` identical execution quanta of `dt` in one call — the
    /// batched form of [`run_for`](Self::run_for) behind the arena
    /// engine's intra-burst fast path. f64 addition is not associative,
    /// so energy is not `n · p`: [`crate::accum::add_n`] gives the
    /// result of `n` sequential additions bit for bit without doing
    /// them. The integer time accounting is plain multiplication.
    pub(crate) fn run_for_n(&mut self, dt: SimDuration, n: u64) {
        let p = self.power() * dt.as_secs_f64();
        self.energy_rel = crate::accum::add_n(self.energy_rel, p, n);
        let total = dt * n;
        match self.point {
            Point::E => {
                self.time_e += total;
                self.tele.add(Counter::TimeEfficientPs, total.as_picos());
            }
            Point::Cf => {
                self.time_cf += total;
                self.tele
                    .add(Counter::TimeConservativeFreqPs, total.as_picos());
            }
            Point::Cv => {
                self.time_cv += total;
                self.tele
                    .add(Counter::TimeConservativeVoltPs, total.as_picos());
            }
        }
        self.now += total;
    }

    /// Advances time without execution (switch waits, exception entries).
    fn stall_for(&mut self, dt: SimDuration) {
        self.energy_rel += self.power() * dt.as_secs_f64();
        self.time_stall += dt;
        self.tele.count(Counter::Stalls);
        self.tele.add(Counter::TimeStallPs, dt.as_picos());
        self.tele.observe(Hist::StallPs, dt.as_picos());
        self.tele.span(EventKind::Stall, self.now, self.now + dt, 0);
        self.now += dt;
    }

    fn set_point(&mut self, p: Point) {
        self.write_curve_for(p);
        // Close the residency span of the outgoing point, mark the
        // switch, and track conservative episodes (E → … → E).
        self.tele.span(
            EventKind::Residency,
            self.point_since,
            self.now,
            self.point.arg(),
        );
        self.tele.instant(EventKind::CurveSwitch, self.now, p.arg());
        self.tele.count(Counter::CurveSwitches);
        match p {
            Point::E => self.tele.count(Counter::CurveSwitchToEfficient),
            Point::Cf | Point::Cv => self.tele.count(Counter::CurveSwitchToConservative),
        }
        if self.point == Point::E && p != Point::E {
            self.conservative_since = Some(self.now);
        } else if p == Point::E {
            if let Some(t0) = self.conservative_since.take() {
                self.tele
                    .observe(Hist::ConservativeEpisodePs, self.now.since(t0).as_picos());
            }
        }
        self.point_since = self.now;
        self.point = p;
        if let Some(tl) = &mut self.timeline {
            tl.push(PointChange {
                at: self.now,
                point: p,
            });
        }
    }

    fn target_point(t: CurveTarget) -> Point {
        match t {
            CurveTarget::E => Point::E,
            CurveTarget::Cf => Point::Cf,
            CurveTarget::Cv => Point::Cv,
        }
    }

    /// Applies a pending asynchronous p-state arrival. Frequency raises
    /// toward a conservative point stall Intel cores briefly (§5.2,
    /// Fig. 11); the return to the efficient curve is charged wait-free,
    /// following §4.1: "SUIT only has to delay execution when switching
    /// from the efficient to the conservative curve; in the other
    /// direction ... it does not need to wait".
    pub(crate) fn apply_pending(&mut self, target: Point) {
        if target != Point::E {
            self.stall_for(self.dtab.freq_stall());
        }
        self.set_point(target);
    }

    /// Reflects a point change into the curve-select MSR, enforcing the
    /// §3.2 ordering (a rejected write is a simulator bug: the Listing 1
    /// policy must never produce one).
    fn write_curve_for(&mut self, p: Point) {
        let curve = match p {
            Point::E => CurveSelect::Efficient,
            Point::Cf | Point::Cv => CurveSelect::Conservative,
        };
        self.msrs
            .write_curve(curve)
            .expect("Listing 1 must satisfy the Section 3.2 MSR invariant");
        self.tele.count(Counter::MsrCurveWrites);
        debug_assert!(self.msrs.invariant_holds());
    }
}

impl CpuControl for Hw {
    fn now(&self) -> SimTime {
        self.now
    }

    fn change_pstate_wait(&mut self, target: CurveTarget) {
        // A synchronous change supersedes any in-flight request.
        self.pending = None;
        let raw_target = target;
        let target = Self::target_point(target);
        if self.point == target {
            return;
        }
        // The handler only has to *wait* when the current point is unsafe
        // for the faulting instruction — i.e. the efficient curve. From an
        // already-conservative point (e.g. a #DO at C_V racing a pending
        // return to E), the instruction can execute immediately and the
        // p-state change completes in the background.
        if self.point != Point::E {
            self.change_pstate_async(raw_target);
            return;
        }
        // Frequency-only moves (→ `C_f`, → `E`) wait for the clock; a
        // full p-state move (→ `C_V`) waits voltage-then-frequency (§5.2,
        // Xeon PCPS behaviour). The table rows encode exactly those sums.
        let wait = self.dtab.sync_wait(target.kind());
        self.stall_for(wait);
        self.set_point(target);
    }

    fn change_pstate_async(&mut self, target: CurveTarget) {
        let target = Self::target_point(target);
        if self.point == target {
            // Reaching the current point cancels any pending move —
            // §4.3: returning to E "cancels the voltage change".
            self.pending = None;
            return;
        }
        // Frequency-only targets arrive after the clock settles; a
        // background voltage raise (→ `C_V`) after the rail settles.
        let delay = self.dtab.async_delay(target.kind());
        self.pending = Some((target, self.now + delay));
    }

    fn set_instructions_disabled(&mut self, disabled: bool) {
        if disabled {
            self.msrs.disable_faultable();
        } else {
            self.msrs
                .enable_all()
                .expect("instructions are only re-enabled on the conservative curve");
        }
        debug_assert!(self.msrs.invariant_holds());
    }

    fn set_timer_interrupt(&mut self, deadline: SimDuration) {
        self.timer.arm(self.now, deadline);
    }
}

/// One core's *cold* identity: the burst source plus everything the hot
/// loop never touches. Generic over the burst source: a profile-driven
/// [`TraceGen`] for synthetic runs, or any plain `Iterator<Item = Burst>`
/// (e.g. a `suit-store` streaming reader) for recorded-trace replay — the
/// event loop is identical either way. The per-instruction scheduling
/// state lives in [`CoreArena`], struct-of-arrays style, so the quantum
/// loop strides over dense `f64` columns instead of these fat structs.
pub(crate) struct CoreStream<I> {
    source: I,
    /// Workload name reported in per-core outcomes.
    name: String,
    /// This core's instruction rate at `point.perf = 1`, insts/sec
    /// (IPC × base frequency × IMUL-hardening penalty). Seeds the
    /// arena's `rate` column.
    pub(crate) base_rate: f64,
    /// Instruction cap of this core's trace; seeds the arena's
    /// `rem_total` column.
    cap: f64,
    /// Baseline (no-SUIT) duration of this core's trace.
    baseline: SimDuration,
    /// The stream's dominant opcode, cached for exception records.
    dominant_opcode: suit_isa::Opcode,
}

/// Hot per-core scheduling state in struct-of-arrays layout, indexed by
/// domain core id. One arena is (re)used across runs — see
/// [`crate::arena`] for the thread-local scratch — and [`reset`] seeds it
/// from the cold [`CoreStream`]s, so the inner quantum loop touches only
/// these flat columns and allocates nothing.
///
/// [`reset`]: CoreArena::reset
#[derive(Debug, Default)]
pub(crate) struct CoreArena {
    /// Instructions until the next faultable instruction (∞ when the
    /// source is exhausted).
    pub(crate) rem_event: Vec<f64>,
    /// Instructions until the core's trace ends.
    pub(crate) rem_total: Vec<f64>,
    /// Instruction rate at `point.perf = 1` (copied from the stream).
    pub(crate) rate: Vec<f64>,
    /// Events left in the current burst after the upcoming one.
    pub(crate) burst_left: Vec<u32>,
    /// Intra-burst event stride of the current burst.
    pub(crate) within: Vec<f64>,
    /// When the core finished its trace (`Some` ⇒ finished).
    pub(crate) finish_time: Vec<Option<SimTime>>,
    /// Faultable instructions the core has executed.
    pub(crate) events: Vec<u64>,
}

impl<'p> CoreStream<TraceGen<'p>> {
    fn new(profile: &'p WorkloadProfile, cpu: &CpuModel, seed: u64, cap: u64) -> Self {
        let pen = 1.0 - imul_penalty(profile);
        let nominal = profile.ipc * cpu.steady.base_freq_ghz * 1e9;
        Self::from_source(
            TraceGen::new(profile, seed),
            profile.name.to_string(),
            profile
                .opcode_mix
                .weights()
                .first()
                .map(|(op, _)| *op)
                .expect("non-empty mix"),
            nominal,
            nominal * pen,
            cap,
        )
    }
}

impl<I: Iterator<Item = Burst>> CoreStream<I> {
    /// Builds a stream from raw parts: `nominal` is the no-SUIT
    /// instruction rate (baseline), `rate` the SUIT-hardened one.
    fn from_source(
        source: I,
        name: String,
        dominant_opcode: suit_isa::Opcode,
        nominal: f64,
        rate: f64,
        cap: u64,
    ) -> Self {
        CoreStream {
            source,
            name,
            base_rate: rate,
            cap: cap as f64,
            baseline: SimDuration::from_secs_f64(cap as f64 / nominal),
            dominant_opcode,
        }
    }
}

impl CoreArena {
    /// Reseeds the arena for a fresh run over `cores`, reusing the
    /// column allocations. A reset that had to grow the columns ticks
    /// [`Counter::EngineScratchAllocs`] once — the equivalence suite
    /// asserts a warmed-up quantum loop never does.
    pub(crate) fn reset<I: Iterator<Item = Burst>>(
        &mut self,
        cores: &mut [CoreStream<I>],
        tele: &Telemetry,
    ) {
        let n = cores.len();
        if self.rem_event.capacity() < n {
            // The seven columns grow in lockstep; one tick per
            // allocating reset keeps the signal simple.
            tele.count(Counter::EngineScratchAllocs);
        }
        self.rem_event.clear();
        self.rem_event.resize(n, 0.0);
        self.rem_total.clear();
        self.rem_total.resize(n, 0.0);
        self.rate.clear();
        self.rate.resize(n, 0.0);
        self.burst_left.clear();
        self.burst_left.resize(n, 0);
        self.within.clear();
        self.within.resize(n, 0.0);
        self.finish_time.clear();
        self.finish_time.resize(n, None);
        self.events.clear();
        self.events.resize(n, 0);
        for (i, c) in cores.iter_mut().enumerate() {
            self.rem_total[i] = c.cap;
            self.rate[i] = c.base_rate;
            self.load_next_gap(i, &mut c.source);
        }
    }

    /// Sets `rem_event[i]` to the distance of the next faultable
    /// instruction, called when an event executes. Strides match the
    /// canonical [`Burst::event_offsets`] layout: the consumed event
    /// occupies one instruction slot, so the next event is `within + 1`
    /// (intra-burst) or `gap + 1` (next burst) instructions ahead.
    fn load_next_gap<I: Iterator<Item = Burst>>(&mut self, i: usize, source: &mut I) {
        if self.burst_left[i] > 0 {
            self.burst_left[i] -= 1;
            self.rem_event[i] = self.within[i] + 1.0;
        } else if let Some(b) = source.next() {
            self.burst_left[i] = b.events - 1;
            self.within[i] = f64::from(b.within_gap_insts);
            self.rem_event[i] = b.gap_insts as f64 + 1.0;
        } else {
            self.rem_event[i] = f64::INFINITY;
        }
    }

    pub(crate) fn finished(&self, i: usize) -> bool {
        self.finish_time[i].is_some()
    }

    pub(crate) fn advance(&mut self, i: usize, insts: f64) {
        self.rem_event[i] -= insts;
        self.rem_total[i] -= insts;
    }

    /// Charges a core-local stall (exception entry, user-space emulation)
    /// as *instruction debt*: the core makes no progress for `dt` while
    /// the rest of the domain keeps executing — unlike a frequency-change
    /// stall, which freezes the whole domain.
    fn stall_local(&mut self, i: usize, dt: SimDuration, rate: f64) {
        let debt = dt.as_secs_f64() * rate;
        self.rem_event[i] += debt;
        self.rem_total[i] += debt;
    }

    /// Instructions until core `i`'s next point of interest.
    pub(crate) fn rem_next(&self, i: usize) -> f64 {
        self.rem_total[i].min(self.rem_event[i])
    }
}

/// The kind of event a scheduler selected. Ties are resolved pending →
/// timer → lowest core index; both schedulers encode that priority in
/// the order and strictness of their comparisons.
pub(crate) enum NextEvent {
    Pending,
    Timer,
    Core(usize),
    Idle, // all cores finished
}

/// Per-core outcome of a (possibly heterogeneous) multi-core run.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreOutcome {
    /// The workload this core ran.
    pub workload: String,
    /// When the core finished its trace.
    pub finish: SimDuration,
    /// The no-SUIT baseline duration of the same trace.
    pub baseline: SimDuration,
    /// Faultable instructions this core executed.
    pub events: u64,
}

impl CoreOutcome {
    /// Performance change vs. this core's own baseline.
    pub fn perf(&self) -> f64 {
        self.baseline.as_secs_f64() / self.finish.as_secs_f64() - 1.0
    }
}

/// Result of a heterogeneous multi-core simulation: the shared-domain
/// aggregate plus per-core outcomes.
#[derive(Debug, Clone, PartialEq)]
pub struct MixedResult {
    /// Domain-level aggregate (duration = last core's finish; power and
    /// residency are domain properties).
    pub domain: RunResult,
    /// One outcome per core, in input order.
    pub per_core: Vec<CoreOutcome>,
}

/// Simulates `profile` on `cpu` under `cfg` and returns the run result.
///
/// # Panics
///
/// Panics if `cfg.strategy` is [`OperatingStrategy::Emulation`] (use
/// [`crate::analytic::simulate_emulation`]) or `cfg.cores` is zero.
pub fn simulate(cpu: &CpuModel, profile: &WorkloadProfile, cfg: &SimConfig) -> RunResult {
    simulate_telemetry(cpu, profile, cfg, &Telemetry::off())
}

/// Like [`simulate`], recording counters, histograms and timeline events
/// through `tele` (see `suit-telemetry`). Telemetry is strictly
/// observational: the returned result is byte-identical to [`simulate`]'s.
pub fn simulate_telemetry(
    cpu: &CpuModel,
    profile: &WorkloadProfile,
    cfg: &SimConfig,
    tele: &Telemetry,
) -> RunResult {
    let profiles: Vec<&WorkloadProfile> = (0..cfg.cores).map(|_| profile).collect();
    run(cpu, &profiles, cfg, tele).0.domain
}

/// Simulates a *heterogeneous* mix: one workload per core, all sharing the
/// domain (`cfg.cores` is ignored; the slice length sets the core count).
/// This is the consolidation scenario §6.4 alludes to — office cores next
/// to a crypto-serving core on one laptop DVFS domain.
pub fn simulate_mixed(
    cpu: &CpuModel,
    profiles: &[&WorkloadProfile],
    cfg: &SimConfig,
) -> MixedResult {
    run(cpu, profiles, cfg, &Telemetry::off()).0
}

/// [`simulate_mixed`] with a telemetry handle attached.
pub fn simulate_mixed_telemetry(
    cpu: &CpuModel,
    profiles: &[&WorkloadProfile],
    cfg: &SimConfig,
    tele: &Telemetry,
) -> MixedResult {
    run(cpu, profiles, cfg, tele).0
}

/// Like [`simulate`], but also returns the p-state change timeline
/// (recording is forced on), for the Fig. 5 / Fig. 6 experiments.
pub fn simulate_with_timeline(
    cpu: &CpuModel,
    profile: &WorkloadProfile,
    cfg: &SimConfig,
) -> (RunResult, Vec<PointChange>) {
    simulate_with_timeline_telemetry(cpu, profile, cfg, &Telemetry::off())
}

/// [`simulate_with_timeline`] with a telemetry handle attached.
pub fn simulate_with_timeline_telemetry(
    cpu: &CpuModel,
    profile: &WorkloadProfile,
    cfg: &SimConfig,
    tele: &Telemetry,
) -> (RunResult, Vec<PointChange>) {
    let mut cfg = cfg.clone();
    cfg.record_timeline = true;
    let profiles: Vec<&WorkloadProfile> = (0..cfg.cores).map(|_| profile).collect();
    let (result, timeline) = run(cpu, &profiles, &cfg, tele);
    (result.domain, timeline.unwrap_or_default())
}

pub(crate) fn run(
    cpu: &CpuModel,
    profiles: &[&WorkloadProfile],
    cfg: &SimConfig,
    tele: &Telemetry,
) -> (MixedResult, Option<Vec<PointChange>>) {
    let (cores, workload) = build_cores(cpu, profiles, cfg);
    run_cores(cpu, cores, workload, cfg, tele)
}

/// Builds the per-core streams and the aggregate workload label for a
/// profile-driven run. Shared by the arena engine and the legacy
/// reference loop so both simulate the identical instruction streams.
pub(crate) fn build_cores<'p>(
    cpu: &CpuModel,
    profiles: &[&'p WorkloadProfile],
    cfg: &SimConfig,
) -> (Vec<CoreStream<TraceGen<'p>>>, String) {
    assert!(!profiles.is_empty(), "need at least one core");
    let cores: Vec<CoreStream<TraceGen>> = profiles
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let cap = cfg.max_insts.unwrap_or(p.total_insts).min(p.total_insts);
            CoreStream::new(p, cpu, cfg.seed.wrapping_add(i as u64), cap)
        })
        .collect();
    let workload = if profiles.len() == 1 || profiles.iter().all(|p| p.name == profiles[0].name) {
        profiles[0].name.to_string()
    } else {
        let names: Vec<&str> = profiles.iter().map(|p| p.name).collect();
        format!("mix({})", names.join("+"))
    };
    (cores, workload)
}

/// Simulates a *recorded* trace streamed from `bursts` on a single core
/// — the out-of-core replay entry point. The source can be anything that
/// yields [`Burst`]s (a `suit-store` streaming reader, an in-memory
/// vector, a generator); the event loop is the same code path
/// as [`simulate`], so results are byte-identical for identical burst
/// sequences regardless of how they are stored.
///
/// `meta` supplies the instruction rate (`ipc`) and the virtual trace
/// length; `cfg.max_insts` caps the replay as usual. Recorded traces
/// already embody the recorded machine's IMUL behaviour, so no
/// profile-model hardening penalty is applied. `cfg.cores` is ignored:
/// one recorded stream drives one core.
pub fn run_stream<I>(cpu: &CpuModel, meta: &TraceMeta, bursts: I, cfg: &SimConfig) -> RunResult
where
    I: IntoIterator<Item = Burst>,
{
    run_stream_telemetry(cpu, meta, bursts, cfg, &Telemetry::off())
}

/// [`run_stream`] with a telemetry handle attached.
pub fn run_stream_telemetry<I>(
    cpu: &CpuModel,
    meta: &TraceMeta,
    bursts: I,
    cfg: &SimConfig,
    tele: &Telemetry,
) -> RunResult
where
    I: IntoIterator<Item = Burst>,
{
    let core = build_stream_core(cpu, meta, bursts.into_iter(), cfg);
    run_cores(cpu, vec![core], meta.name.clone(), cfg, tele)
        .0
        .domain
}

/// Builds the single replay core for a recorded-trace stream. Shared by
/// the arena engine and the legacy reference loop.
pub(crate) fn build_stream_core<I: Iterator<Item = Burst>>(
    cpu: &CpuModel,
    meta: &TraceMeta,
    bursts: I,
    cfg: &SimConfig,
) -> CoreStream<std::iter::Peekable<I>> {
    assert!(
        meta.ipc.is_finite() && meta.ipc > 0.0,
        "trace IPC must be positive"
    );
    let cap = cfg
        .max_insts
        .unwrap_or(meta.total_insts)
        .min(meta.total_insts);
    assert!(cap > 0, "trace virtual length must be positive");
    let mut source = bursts.peekable();
    // The exception record needs *a* faultable opcode (the policy never
    // branches on it); use the trace's first burst, like the profile path
    // uses the mix's dominant entry.
    let dominant = source
        .peek()
        .map(|b| b.opcode)
        .unwrap_or(suit_isa::Opcode::Aesenc);
    let nominal = meta.ipc * cpu.steady.base_freq_ghz * 1e9;
    CoreStream::from_source(source, meta.name.clone(), dominant, nominal, nominal, cap)
}

/// Runs a set of cores sharing one DVFS domain to completion on the
/// arena scheduler ([`crate::arena`]) and collects the results. This is
/// the single production entry point behind every `simulate*` and
/// `run_stream*` adapter; the hot state lives in the thread-local
/// [`CoreArena`] scratch, so back-to-back runs (Monte-Carlo, fleet
/// epochs) reuse one set of allocations.
pub(crate) fn run_cores<I: Iterator<Item = Burst>>(
    cpu: &CpuModel,
    mut cores: Vec<CoreStream<I>>,
    workload: String,
    cfg: &SimConfig,
    tele: &Telemetry,
) -> (MixedResult, Option<Vec<PointChange>>) {
    assert!(!cores.is_empty(), "need at least one core");
    let (mut hw, mut os) = boot(cpu, cfg, tele);
    crate::arena::with_scratch(|scratch| {
        scratch.arena.reset(&mut cores, tele);
        crate::arena::run_domain(
            &mut cores,
            &mut scratch.arena,
            &mut scratch.live,
            &mut hw,
            &mut os,
            tele,
        );
        collect(&cores, &scratch.arena, hw, &os, workload)
    })
}

/// Boots the hardware-side state and the OS policy for one domain run:
/// validates the configuration, builds the operating-point table, and
/// performs the §3.2 boot write order (disable the faultable set, then
/// select the efficient curve).
pub(crate) fn boot(cpu: &CpuModel, cfg: &SimConfig, tele: &Telemetry) -> (Hw, SuitOs) {
    assert!(
        cfg.max_insts != Some(0),
        "instruction budget must be positive (got max_insts = Some(0))"
    );
    assert!(
        cfg.strategy != OperatingStrategy::Emulation,
        "the engine models curve switching; emulation is closed-form (analytic module)"
    );
    // §6.2 note: the analytic emulation path also charges the no-SIMD
    // recompile overhead; the engine's adaptive mode charges only the
    // per-event call (the handler emulates just the one instruction).

    let points = point_table(cpu, cfg.level, cfg.strategy, 1.0);

    let os = match cfg.adaptive {
        Some(adaptive) => SuitOs::new_adaptive(cfg.params, adaptive),
        None => SuitOs::new(cfg.strategy, cfg.params),
    }
    .with_telemetry(tele.clone());
    // Boot like the OS would: disable the faultable set, then select the
    // efficient curve — the only write order the MSRs accept (§3.2).
    let mut msrs = SuitMsrs::suit_cpu();
    msrs.disable_faultable();
    msrs.write_curve(CurveSelect::Efficient)
        .expect("faultable set disabled at boot");
    let hw = Hw {
        now: SimTime::ZERO,
        point: Point::E, // boots already on the efficient curve
        pending: None,
        msrs,
        timer: DeadlineTimer::new(),
        // Precomputed per-(point, transition) delays; Monte-Carlo runs
        // mutate the CPU's µs-valued delays *before* boot, so jittered
        // samples flow through the table automatically.
        dtab: DelayTable::new(&cpu.delays),
        points,
        energy_rel: 0.0,
        time_e: SimDuration::ZERO,
        time_cf: SimDuration::ZERO,
        time_cv: SimDuration::ZERO,
        time_stall: SimDuration::ZERO,
        timeline: cfg.record_timeline.then(Vec::new),
        tele: tele.clone(),
        point_since: SimTime::ZERO,
        conservative_since: None,
    };
    (hw, os)
}

/// Reacts to one scheduler-selected event. Shared verbatim between the
/// arena engine and the legacy scan loop: the two schedulers may only
/// differ in how they *find* the next event, never in how they process
/// it, so the differential suite checks pure scheduling.
pub(crate) fn dispatch_event<I: Iterator<Item = Burst>>(
    kind: NextEvent,
    arena: &mut CoreArena,
    cores: &mut [CoreStream<I>],
    hw: &mut Hw,
    os: &mut SuitOs,
    tele: &Telemetry,
) {
    match kind {
        NextEvent::Pending => {
            let (target, _) = hw.pending.take().expect("pending checked above");
            hw.apply_pending(target);
        }
        NextEvent::Timer => {
            if hw.timer.take_expired(hw.now) {
                os.on_timer_interrupt(hw);
            }
        }
        NextEvent::Core(i) => arena.core_event(i, &mut cores[i], hw, os, tele),
        NextEvent::Idle => unreachable!("loop guard handles completion"),
    }
}

impl CoreArena {
    /// Processes core `i` reaching its next point of interest: trace
    /// end, or a faultable instruction at the head of the pipeline.
    /// `core` is the matching cold stream (burst source + identity).
    pub(crate) fn core_event<I: Iterator<Item = Burst>>(
        &mut self,
        i: usize,
        core: &mut CoreStream<I>,
        hw: &mut Hw,
        os: &mut SuitOs,
        tele: &Telemetry,
    ) {
        if self.rem_total[i] <= self.rem_event[i] {
            // Trace end for this core.
            self.rem_total[i] = 0.0;
            self.finish_time[i] = Some(hw.now);
            return;
        }
        // A faultable instruction is at the head of the pipeline.
        self.rem_event[i] = 0.0;
        if hw.disabled() {
            // #DO: exception entry is core-local — the faulting
            // core loses the time, the rest of the domain keeps
            // executing.
            let rate_i = self.rate[i] * hw.perf();
            self.stall_local(i, hw.dtab.exception(), rate_i);
            let ex = DisabledOpcode::new(core.peek_opcode(), i, hw.now);
            match os.on_disabled_opcode(hw, &ex) {
                HandlerAction::SwitchedToConservative => {}
                HandlerAction::Emulated => {
                    // §5.3: the measured emulation round trip
                    // *includes* the exception entry already
                    // charged above — charge only the remainder,
                    // again core-locally.
                    let remainder = hw.dtab.emulation_remainder();
                    self.stall_local(i, remainder, rate_i);
                    let call = hw.dtab.emulation_call();
                    tele.span(EventKind::EmulationCall, hw.now, hw.now + call, i as u64);
                    tele.observe(Hist::EmulationCallPs, call.as_picos());
                }
            }
        }
        // The instruction completes (natively post-switch, or via
        // emulation) and resets the hardware deadline timer (§4.1).
        self.events[i] += 1;
        hw.timer.reset(hw.now);
        self.load_next_gap(i, &mut core.source);
    }
}

/// Collects the per-core outcomes and the domain aggregate after a run.
pub(crate) fn collect<I>(
    cores: &[CoreStream<I>],
    arena: &CoreArena,
    hw: Hw,
    os: &SuitOs,
    workload: String,
) -> (MixedResult, Option<Vec<PointChange>>) {
    // Close the final residency span so the exported timeline covers the
    // whole run.
    hw.tele
        .span(EventKind::Residency, hw.point_since, hw.now, hw.point.arg());

    let stats = os.stats();
    let per_core: Vec<CoreOutcome> = cores
        .iter()
        .enumerate()
        .map(|(i, c)| CoreOutcome {
            workload: c.name.clone(),
            finish: arena.finish_time[i].unwrap_or(hw.now).since(SimTime::ZERO),
            baseline: c.baseline,
            events: arena.events[i],
        })
        .collect();
    let domain = RunResult {
        workload,
        duration: hw.now.since(SimTime::ZERO),
        baseline_duration: per_core
            .iter()
            .map(|c| c.baseline)
            .max()
            .expect("at least one core"),
        energy_rel: hw.energy_rel,
        time_e: hw.time_e,
        time_cf: hw.time_cf,
        time_cv: hw.time_cv,
        time_stall: hw.time_stall,
        events: per_core.iter().map(|c| c.events).sum(),
        exceptions: stats.exceptions,
        timer_fires: stats.timer_fires,
        thrash_hits: stats.thrash_hits,
    };
    (MixedResult { domain, per_core }, hw.timeline)
}

impl<I> CoreStream<I> {
    /// The opcode of the faultable instruction currently at the head.
    /// The engine only needs *a* faultable opcode for the exception
    /// record (per-event opcode fidelity matters to the fault model,
    /// which consumes traces directly), so this is cached at stream
    /// construction rather than rebuilt per exception.
    fn peek_opcode(&self) -> suit_isa::Opcode {
        self.dominant_opcode
    }
}

fn scale_perf(mut p: OperatingPoint, factor: f64) -> OperatingPoint {
    p.perf *= factor;
    p
}

/// Fraction of the Table 2 package-power reduction attributed to the DVFS
/// domain the trace simulator models. The Table 2 measurements are
/// whole-package deltas including TDP-feedback effects accumulated over a
/// full benchmark run; the per-domain instantaneous reduction the paper's
/// simulator charges on the efficient curve is smaller (its per-benchmark
/// results — e.g. 557.xz +16.9 % efficiency at 97.1 % residency — imply
/// ≈ −12 % rather than the −16 % package figure at −97 mV).
const TRACE_POWER_ATTENUATION: f64 = 0.8;

/// Builds the engine's operating-point table for a CPU, level and
/// strategy.
///
/// * `E` — perf from the Table 2 score response, power attenuated per
///   [`TRACE_POWER_ATTENUATION`].
/// * `C_V` — the 1.0/1.0 baseline by definition.
/// * `C_f` — performance from the conservative curve's frequency at the
///   efficient voltage. Its *power* depends on the strategy: under 𝑓𝑉 the
///   `C_f` point only exists while the requested voltage raise is ramping
///   (Fig. 6), so the average supply sits between efficient and nominal —
///   we charge the midpoint; under the pure-frequency strategy `C_f` is a
///   steady state at the low voltage and gets the physical (low) power of
///   the package model.
pub(crate) fn point_table(
    cpu: &CpuModel,
    level: UndervoltLevel,
    strategy: OperatingStrategy,
    pen: f64,
) -> PointTable {
    let mut e = cpu.point_e(level);
    e.power = 1.0 + TRACE_POWER_ATTENUATION * (e.power - 1.0);
    let cv = cpu.point_cv();
    let mut cf = cpu.point_cf(level);
    match strategy {
        OperatingStrategy::FreqVolt => {
            cf.power = 0.5 * (e.power + cv.power);
        }
        // Steady C_f under the pure-frequency strategy: on a CPU whose
        // cores share one voltage rail (ℬ), the rail stays sized for the
        // other cores and the package reduction is diluted. CPUs with
        // per-core voltage domains (𝒞) keep the full physical reduction.
        OperatingStrategy::Frequency if cpu.domains == suit_hw::DomainLayout::PerCoreFreq => {
            cf.power = 1.0 + 0.55 * (cf.power - 1.0);
        }
        _ => {}
    }
    PointTable {
        e: scale_perf(e, pen),
        cf: scale_perf(cf, pen),
        cv: scale_perf(cv, pen),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use suit_trace::profile;

    fn xeon_cfg() -> SimConfig {
        SimConfig::fv_intel(UndervoltLevel::Mv97).with_max_insts(2_000_000_000)
    }

    #[test]
    fn quiet_workload_lives_on_the_efficient_curve() {
        let cpu = CpuModel::xeon_4208();
        let p = profile::by_name("557.xz").unwrap();
        let r = simulate(&cpu, p, &xeon_cfg());
        // §6.4: 557.xz is on the efficient curve 97.1 % of the time.
        assert!(
            (r.residency() - 0.971).abs() < 0.03,
            "residency {:.3}",
            r.residency()
        );
        assert!(r.efficiency() > 0.10, "eff {:.3}", r.efficiency());
    }

    #[test]
    fn bursty_workload_parks_on_conservative() {
        let cpu = CpuModel::xeon_4208();
        let p = profile::by_name("520.omnetpp").unwrap();
        let r = simulate(&cpu, p, &xeon_cfg());
        // §6.4: 520.omnetpp is on the efficient curve only 3.2 % of the
        // time, with negligible performance impact.
        assert!(r.residency() < 0.10, "residency {:.3}", r.residency());
        assert!(r.perf() > -0.02, "perf {:.3}", r.perf());
        assert!(r.thrash_hits > 0, "thrashing prevention must engage");
    }

    #[test]
    fn gcc_matches_paper_residency() {
        let cpu = CpuModel::xeon_4208();
        let p = profile::by_name("502.gcc").unwrap();
        let r = simulate(&cpu, p, &xeon_cfg());
        // §6.4: 76.6 % residency, −2.89 % performance, +9.67 % efficiency.
        assert!(
            (r.residency() - 0.766).abs() < 0.06,
            "residency {:.3}",
            r.residency()
        );
        assert!((-0.06..0.0).contains(&r.perf()), "perf {:.3}", r.perf());
        assert!(r.efficiency() > 0.04, "eff {:.3}", r.efficiency());
    }

    #[test]
    fn deterministic_across_runs() {
        let cpu = CpuModel::xeon_4208();
        let p = profile::by_name("502.gcc").unwrap();
        let cfg = xeon_cfg().with_max_insts(200_000_000);
        let a = simulate(&cpu, p, &cfg);
        let b = simulate(&cpu, p, &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn four_cores_sharing_a_domain_lose_efficiency() {
        // §6.4: 𝒜₁ +12 % average efficiency shrinks to +5.8 % on 𝒜₄.
        let cpu = CpuModel::i9_9900k();
        let p = profile::by_name("502.gcc").unwrap();
        let cfg1 = xeon_cfg().with_max_insts(500_000_000);
        let cfg4 = cfg1.clone().with_cores(4);
        let r1 = simulate(&cpu, p, &cfg1);
        let r4 = simulate(&cpu, p, &cfg4);
        assert!(
            r4.residency() < r1.residency(),
            "shared domain must reduce residency: {:.3} vs {:.3}",
            r4.residency(),
            r1.residency()
        );
        assert!(r4.efficiency() < r1.efficiency());
    }

    #[test]
    fn deeper_undervolt_roughly_doubles_efficiency() {
        let cpu = CpuModel::xeon_4208();
        let p = profile::by_name("557.xz").unwrap();
        let r70 = simulate(
            &cpu,
            p,
            &SimConfig::fv_intel(UndervoltLevel::Mv70).with_max_insts(1_000_000_000),
        );
        let r97 = simulate(
            &cpu,
            p,
            &SimConfig::fv_intel(UndervoltLevel::Mv97).with_max_insts(1_000_000_000),
        );
        let ratio = r97.efficiency() / r70.efficiency();
        assert!((1.5..3.0).contains(&ratio), "ratio {ratio:.2}");
    }

    #[test]
    fn timer_and_exception_counts_are_consistent() {
        let cpu = CpuModel::xeon_4208();
        let p = profile::by_name("502.gcc").unwrap();
        let r = simulate(&cpu, p, &xeon_cfg().with_max_insts(500_000_000));
        assert!(r.exceptions > 0);
        // Every conservative episode ends with exactly one timer fire
        // (modulo the final, possibly unfinished episode).
        assert!(r.timer_fires <= r.exceptions);
        assert!(r.timer_fires + 1 >= r.exceptions / 2, "episodes must close");
        // Each burst is one episode: exceptions ≈ bursts ≪ events.
        assert!(r.events > r.exceptions);
    }

    #[test]
    fn amd_frequency_strategy_pays_long_switches() {
        let cpu = CpuModel::ryzen_7700x();
        let p = profile::by_name("502.gcc").unwrap();
        let cfg = SimConfig::f_amd(UndervoltLevel::Mv97).with_max_insts(2_000_000_000);
        let r = simulate(&cpu, p, &cfg);
        // Table 6 ℬ∞ f: ~−10 % performance at −97 mV (SPEC gmean); gcc is
        // mid-pack. The 668 µs switch delay must visibly hurt.
        assert!(r.perf() < -0.02, "perf {:.3}", r.perf());
    }

    #[test]
    fn adaptive_mode_tracks_the_better_strategy() {
        // §6.8: the dynamic chooser should approximate fV on burst-heavy
        // Nginx and approximate (cheap) emulation on sparse 557.xz.
        let cpu = CpuModel::xeon_4208();

        let nginx = profile::by_name("Nginx").unwrap();
        let fv = simulate(&cpu, nginx, &xeon_cfg());
        let ad = simulate(
            &cpu,
            nginx,
            &SimConfig::adaptive_intel(UndervoltLevel::Mv97).with_max_insts(2_000_000_000),
        );
        assert!(
            ad.perf() > fv.perf() - 0.02,
            "adaptive {:+.3} must not collapse vs fV {:+.3}",
            ad.perf(),
            fv.perf()
        );
        assert!(
            ad.perf() > -0.10,
            "adaptive must avoid the -98% emulation cliff"
        );

        let xz = profile::by_name("557.xz").unwrap();
        let ad_xz = simulate(
            &cpu,
            xz,
            &SimConfig::adaptive_intel(UndervoltLevel::Mv97).with_max_insts(2_000_000_000),
        );
        let fv_xz = simulate(&cpu, xz, &xeon_cfg());
        // Sparse workload: adaptive emulates the rare instructions and
        // stays on E even more than fV does.
        assert!(ad_xz.residency() >= fv_xz.residency() - 0.01);
        assert!(ad_xz.efficiency() >= fv_xz.efficiency() - 0.01);
    }

    #[test]
    fn adaptive_mode_emulates_singleton_instructions() {
        // A workload whose faultable instructions come alone (§4.1: "for
        // single instructions, emulation is faster than switching"): the
        // chooser must handle every one in software and never arm the
        // curve-switch machinery.
        let cpu = CpuModel::xeon_4208();
        let mut p = profile::by_name("557.xz").unwrap().clone();
        p.events_per_burst = 1.0;
        p.within_gap_insts = 1.0;
        let cfg = SimConfig::adaptive_intel(UndervoltLevel::Mv97).with_max_insts(2_000_000_000);
        let r = simulate(&cpu, &p, &cfg);
        assert!(r.exceptions > 0);
        assert_eq!(r.timer_fires, 0, "{r:?}");
        assert!(r.residency() > 0.999, "never leaves the efficient curve");
        // And it beats plain fV on the same workload.
        let fv = simulate(&cpu, &p, &xeon_cfg().with_max_insts(2_000_000_000));
        assert!(
            r.perf() > fv.perf(),
            "{:+.4} vs {:+.4}",
            r.perf(),
            fv.perf()
        );
    }

    #[test]
    fn mixed_domain_noisy_neighbor() {
        // A quiet workload (557.xz) sharing the i9's single DVFS domain
        // with thrash-prone 520.omnetpp: the neighbour parks the *domain*
        // on the conservative curve, and xz loses its efficient-curve
        // residency through no fault of its own.
        let cpu = CpuModel::i9_9900k();
        let xz = profile::by_name("557.xz").unwrap();
        let omnetpp = profile::by_name("520.omnetpp").unwrap();
        let cfg = SimConfig::fv_intel(UndervoltLevel::Mv97).with_max_insts(1_000_000_000);

        let solo = simulate(&cpu, xz, &cfg);
        let mixed = simulate_mixed(&cpu, &[xz, omnetpp], &cfg);

        assert_eq!(mixed.per_core.len(), 2);
        assert_eq!(mixed.per_core[0].workload, "557.xz");
        assert!(
            mixed.domain.residency() < solo.residency() - 0.3,
            "neighbour must drag residency: {:.2} vs {:.2}",
            mixed.domain.residency(),
            solo.residency()
        );
        assert!(mixed.domain.workload.starts_with("mix("));
        // xz still finishes (perf near baseline — the conservative curve
        // is the no-SUIT operating point).
        let xz_core = &mixed.per_core[0];
        assert!(xz_core.perf() > -0.05, "{:+.3}", xz_core.perf());
    }

    #[test]
    fn mixed_with_identical_profiles_matches_homogeneous() {
        let cpu = CpuModel::i9_9900k();
        let gcc = profile::by_name("502.gcc").unwrap();
        let cfg = SimConfig::fv_intel(UndervoltLevel::Mv97)
            .with_max_insts(500_000_000)
            .with_cores(2);
        let homo = simulate(&cpu, gcc, &cfg);
        let mixed = simulate_mixed(&cpu, &[gcc, gcc], &cfg);
        assert_eq!(homo, mixed.domain);
        for c in &mixed.per_core {
            assert!(c.finish <= mixed.domain.duration);
            assert!(c.events > 0);
        }
    }

    #[test]
    fn telemetry_is_observational_and_exact() {
        let cpu = CpuModel::xeon_4208();
        let p = profile::by_name("502.gcc").unwrap();
        let cfg = xeon_cfg().with_max_insts(200_000_000);
        let off = simulate(&cpu, p, &cfg);
        let tele = Telemetry::recording();
        let on = simulate_telemetry(&cpu, p, &cfg, &tele);
        assert_eq!(off, on, "telemetry must not perturb simulation results");

        let snap = tele.snapshot();
        // Counters re-derive the engine aggregates exactly.
        assert_eq!(snap.counter(Counter::DoTraps), on.exceptions);
        assert_eq!(snap.counter(Counter::DeadlineFires), on.timer_fires);
        assert_eq!(snap.counter(Counter::ThrashLockouts), on.thrash_hits);
        assert_eq!(snap.counter(Counter::TimeEfficientPs), on.time_e.as_picos());
        assert_eq!(
            snap.counter(Counter::TimeConservativeFreqPs),
            on.time_cf.as_picos()
        );
        assert_eq!(
            snap.counter(Counter::TimeConservativeVoltPs),
            on.time_cv.as_picos()
        );
        assert_eq!(snap.counter(Counter::TimeStallPs), on.time_stall.as_picos());
        assert!(snap.counter(Counter::CurveSwitches) > 0);
        assert!(snap.hist(Hist::StallPs).count() > 0);

        // The exported trace validates and carries the acceptance events.
        let json = snap.to_perfetto_json();
        let stats = suit_telemetry::validate_perfetto(&json).expect("trace must validate");
        assert!(stats.count("curve_switch") > 0);
        assert!(stats.count("do_trap") > 0);
        assert!(stats.count("stall") > 0);
    }

    #[test]
    fn run_stream_replays_recorded_bursts_deterministically() {
        let cpu = CpuModel::xeon_4208();
        let p = profile::by_name("502.gcc").unwrap();
        let bursts: Vec<Burst> = suit_trace::TraceGen::new(p, 11).collect();
        let meta = TraceMeta {
            name: "recorded".into(),
            ipc: p.ipc,
            total_insts: p.total_insts,
        };
        let cfg = xeon_cfg().with_max_insts(200_000_000);
        // Identical burst sequences through different iterator types must
        // produce identical results — the storage layer is transparent.
        let a = run_stream(&cpu, &meta, bursts.iter().copied(), &cfg);
        let b = run_stream(&cpu, &meta, bursts.clone(), &cfg);
        assert_eq!(a, b);
        assert_eq!(a.workload, "recorded");
        assert!(a.events > 0);
        assert!(a.exceptions > 0);
    }

    #[test]
    fn run_stream_with_an_empty_source_idles_to_the_cap() {
        let cpu = CpuModel::xeon_4208();
        let meta = TraceMeta {
            name: "silence".into(),
            ipc: 1.0,
            total_insts: 1_000_000,
        };
        let r = run_stream(&cpu, &meta, Vec::new(), &xeon_cfg());
        assert_eq!(r.events, 0);
        assert_eq!(r.exceptions, 0);
        // No faultable instructions ⇒ the whole run stays on E.
        assert!(r.residency() > 0.999);
    }

    #[test]
    #[should_panic(expected = "emulation is closed-form")]
    fn engine_rejects_emulation_strategy() {
        let cpu = CpuModel::xeon_4208();
        let p = profile::by_name("557.xz").unwrap();
        let mut cfg = xeon_cfg();
        cfg.strategy = OperatingStrategy::Emulation;
        let _ = simulate(&cpu, p, &cfg);
    }
}
