//! The recorder, the cheap [`Telemetry`] handle, and mergeable snapshots.
//!
//! Identity is fixed at compile time: counters, histograms, and event
//! kinds are enums with dense indices, so a hook is an array index plus a
//! relaxed atomic — no string hashing, no registration, no allocation.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use suit_isa::SimTime;

use crate::hist::{AtomicHistogram, HistSnapshot};
use crate::ring::{Event, EventRing};

/// Default event-ring capacity for [`Telemetry::recording`].
pub const DEFAULT_EVENT_CAPACITY: usize = 1 << 16;

/// Defines a dense-index id enum with `COUNT`, `ALL`, `index()` and a
/// stable snake_case `name()` used by the summary table and trace export.
macro_rules! id_enum {
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident {
            $( $(#[$vmeta:meta])* $variant:ident => $label:literal, )*
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        $vis enum $name {
            $( $(#[$vmeta])* $variant, )*
        }

        impl $name {
            /// Number of variants.
            pub const COUNT: usize = [$( $name::$variant ),*].len();

            /// Every variant, in declaration order.
            pub const ALL: [$name; Self::COUNT] = [$( $name::$variant ),*];

            /// Dense positional index (declaration order).
            #[inline]
            pub fn index(self) -> usize {
                self as usize
            }

            /// Stable snake_case label.
            pub fn name(self) -> &'static str {
                match self { $( $name::$variant => $label, )* }
            }
        }
    };
}

id_enum! {
    /// Monotonic `u64` tallies. The `Time*Ps` counters accumulate the
    /// same per-step durations the engine adds to its own aggregates, so
    /// residency re-derived from telemetry matches `RunResult` exactly.
    pub enum Counter {
        /// `#DO` (disabled-opcode) exceptions taken.
        DoTraps => "do_traps",
        /// Instructions emulated by the `#DO` handler.
        Emulations => "emulations",
        /// Deadline-timer expiries that returned to the efficient curve.
        DeadlineFires => "deadline_fires",
        /// Thrash-prevention lockouts (trap bursts pinning the
        /// conservative curve).
        ThrashLockouts => "thrash_lockouts",
        /// Per-burst operating-strategy decisions taken in the handler.
        StrategyDecisions => "strategy_decisions",
        /// DVFS curve switches requested (any target).
        CurveSwitches => "curve_switches",
        /// Curve switches targeting the efficient curve.
        CurveSwitchToEfficient => "curve_switch_to_efficient",
        /// Curve switches targeting a conservative curve.
        CurveSwitchToConservative => "curve_switch_to_conservative",
        /// MSR writes that reprogram a DVFS curve.
        MsrCurveWrites => "msr_curve_writes",
        /// MSR writes that change the disabled-instruction-class mask.
        MsrDisableWrites => "msr_disable_writes",
        /// Adaptive-chooser probe windows opened (§6.8).
        AdaptiveProbes => "adaptive_probes",
        /// Adaptive-chooser strategy flips committed (§6.8).
        AdaptiveFlips => "adaptive_flips",
        /// Voltage/frequency transition stalls.
        Stalls => "stalls",
        /// Simulated picoseconds spent on the efficient curve.
        TimeEfficientPs => "time_efficient_ps",
        /// Simulated picoseconds on the conservative curve at reduced
        /// frequency.
        TimeConservativeFreqPs => "time_conservative_freq_ps",
        /// Simulated picoseconds on the conservative curve at raised
        /// voltage.
        TimeConservativeVoltPs => "time_conservative_volt_ps",
        /// Simulated picoseconds stalled in V/f transitions.
        TimeStallPs => "time_stall_ps",
        /// Faults injected across the fault campaign.
        FaultsInjected => "faults_injected",
        /// Campaign shards executed.
        CampaignShards => "campaign_shards",
        /// Out-of-order core: branch mispredictions.
        OooMispredicts => "ooo_mispredicts",
        /// Out-of-order core: L1D misses.
        OooL1dMisses => "ooo_l1d_misses",
        /// Out-of-order core: cycles stalled with the ROB full.
        OooRobStallCycles => "ooo_rob_stall_cycles",
        /// `suit-serve`: requests admitted to an endpoint handler.
        ServeRequests => "serve_requests",
        /// `suit-serve`: requests rejected with `429` (admission queue
        /// full — explicit backpressure).
        ServeRejected => "serve_rejected",
        /// `suit-serve`: requests refused with a `4xx` validation or
        /// parse error (`400`/`404`/`405`/`413`/`431`).
        ServeBadRequests => "serve_bad_requests",
        /// `suit-serve`: requests whose deadline expired (`408`).
        ServeDeadlineExpired => "serve_deadline_expired",
        /// `suit-serve`: compute requests answered from the result cache
        /// (including `304` revalidations).
        ServeCacheHits => "serve_cache_hits",
        /// `suit-serve`: compute requests that missed the cache and led
        /// a computation.
        ServeCacheMisses => "serve_cache_misses",
        /// `suit-serve`: requests coalesced onto an identical in-flight
        /// computation (N identical requests, one computation).
        ServeCacheCoalesced => "serve_cache_coalesced",
        /// `suit-serve`: cache entries evicted by the LRU bounds.
        ServeCacheEvictions => "serve_cache_evictions",
        /// `suit-serve`: `304 Not Modified` answers to `If-None-Match`
        /// revalidations.
        ServeNotModified => "serve_not_modified",
        /// `suit-serve`: trace containers accepted into the trace store
        /// (idempotent re-uploads count separately — see
        /// `serve_trace_dedup`).
        ServeTraceUploads => "serve_trace_uploads",
        /// `suit-serve`: uploads answered with the existing entry (the
        /// content hash already names a stored trace).
        ServeTraceDedup => "serve_trace_dedup",
        /// `suit-serve`: uploads refused with `413` because the bounded
        /// trace store is full (entries or bytes).
        ServeTraceStoreFull => "serve_trace_store_full",
        /// Engine: event-loop quanta that advanced time (a non-zero `dt`
        /// between consecutive scheduler events).
        EngineQuanta => "engine_quanta",
        /// Engine: per-core advance steps across all quanta. Finished
        /// (idle-parked) cores are skipped by the scheduler, so an idle
        /// window contributes zero steps — `core_steps` counts only
        /// cores that actually executed during a quantum.
        CoreSteps => "core_steps",
        /// Engine: heap (re)allocations of the scheduler's reusable
        /// scratch state. Counted only when a buffer grows, so a steady
        /// inner quantum loop must keep this at its warm-up value — the
        /// equivalence suite asserts the loop is allocation-free. A
        /// worker-*thread* fact, not a simulation fact: it is dropped by
        /// [`TelemetrySnapshot::merge_shard`], so only serial
        /// same-thread snapshots carry it.
        EngineScratchAllocs => "engine_scratch_allocs",
        /// SRAM campaign: bank shards swept.
        SramBanksSwept => "sram_banks_swept",
        /// SRAM campaign: weak-cell bits flipped across all faulting
        /// (bank, offset) points.
        SramBitFlips => "sram_bit_flips",
        /// Scrooge search: economic-objective points evaluated (grid +
        /// refinement candidates).
        ScroogePointsEvaluated => "scrooge_points_evaluated",
    }
}

id_enum! {
    /// Log₂-bucketed distributions with p50/p90/p99/max readout.
    pub enum Hist {
        /// Duration of each V/f transition stall, in picoseconds.
        StallPs => "stall_ps",
        /// Length of each conservative-curve episode (switch-away to
        /// switch-back), in picoseconds.
        ConservativeEpisodePs => "conservative_episode_ps",
        /// Duration of each emulation call, in picoseconds.
        EmulationCallPs => "emulation_call_ps",
        /// Faults injected per campaign shard.
        FaultsPerShard => "faults_per_shard",
        /// Undervolting depth (millivolts below nominal) at each run's
        /// first fault.
        FirstFaultDepthMv => "first_fault_depth_mv",
        /// `suit-serve`: `POST /v1/simulate` wall-clock latency, µs
        /// (queue wait + execution).
        ServeSimulateUs => "serve_simulate_us",
        /// `suit-serve`: `POST /v1/batch` wall-clock latency, µs.
        ServeBatchUs => "serve_batch_us",
        /// `suit-serve`: `POST /v1/faults` wall-clock latency, µs.
        ServeFaultsUs => "serve_faults_us",
        /// `suit-serve`: `GET /v1/metrics` wall-clock latency, µs.
        ServeMetricsUs => "serve_metrics_us",
        /// `suit-serve`: wall-clock latency of cache *hits* (lookup +
        /// serialization), µs — the microseconds-not-seconds pin for
        /// hot repeated queries.
        ServeCacheHitUs => "serve_cache_hit_us",
        /// `suit-serve`: `POST /v1/trace` wall-clock latency, µs
        /// (container validation + store insert).
        ServeTraceUploadUs => "serve_trace_upload_us",
        /// `suit-serve`: `POST /v1/simulate-trace` wall-clock latency,
        /// µs (queue wait + streamed replay).
        ServeSimulateTraceUs => "serve_simulate_trace_us",
        /// SRAM campaign: retention faults observed per bank shard.
        SramFaultsPerBank => "sram_faults_per_bank",
        /// `suit-serve`: `POST /v1/scenario` wall-clock latency, µs
        /// (queue wait + scenario execution).
        ServeScenarioUs => "serve_scenario_us",
    }
}

id_enum! {
    /// Typed timeline events (ring-buffered; see [`crate::ring`]).
    pub enum EventKind {
        /// Instant: a DVFS curve switch was requested (`arg` = target
        /// operating-point index).
        CurveSwitch => "curve_switch",
        /// Span: contiguous residency at one operating point (`arg` =
        /// point index).
        Residency => "residency",
        /// Instant: `#DO` exception entry.
        DoTrap => "do_trap",
        /// Instant: `#DO` exception exit.
        DoTrapExit => "do_trap_exit",
        /// Span: a V/f transition stall.
        Stall => "stall",
        /// Instant: the deadline timer fired.
        DeadlineFire => "deadline_fire",
        /// Instant: thrash prevention locked the conservative curve in.
        ThrashLockout => "thrash_lockout",
        /// Instant: a per-burst operating-strategy decision (`arg` =
        /// strategy index).
        StrategyDecision => "strategy_decision",
        /// Span: one emulated instruction inside the `#DO` handler.
        EmulationCall => "emulation_call",
    }
}

/// The shared recording state behind an enabled [`Telemetry`] handle.
///
/// All counter/histogram mutation is relaxed-atomic and commutative;
/// the event ring takes a mutex (events are ordered, so only use a
/// *shared* recorder from one thread — give each worker its own recorder
/// and [merge](TelemetrySnapshot::merge_shard) position-ordered, or only
/// record commutative counters/histograms on a shared one).
#[derive(Debug)]
pub struct Recorder {
    counters: [AtomicU64; Counter::COUNT],
    hists: [AtomicHistogram; Hist::COUNT],
    ring: Mutex<EventRing>,
}

impl Recorder {
    /// Creates a recorder whose event ring holds `event_capacity` events.
    pub fn new(event_capacity: usize) -> Self {
        Recorder {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            hists: std::array::from_fn(|_| AtomicHistogram::default()),
            ring: Mutex::new(EventRing::new(event_capacity)),
        }
    }

    fn push_event(&self, e: Event) {
        self.ring.lock().expect("event ring poisoned").push(e);
    }
}

/// The hook handle every instrumented subsystem holds.
///
/// Cloning is an `Arc` bump (or a no-op when disabled). A disabled
/// handle contains no recorder, so each hook below is one `Option`
/// branch — the no-op fast path the `telemetry_overhead` bench pins.
#[derive(Debug, Clone, Default)]
pub struct Telemetry(Option<Arc<Recorder>>);

impl Telemetry {
    /// The disabled handle: every hook is a single not-taken branch.
    #[inline]
    pub fn off() -> Self {
        Telemetry(None)
    }

    /// An enabled handle with the default event-ring capacity.
    pub fn recording() -> Self {
        Self::with_capacity(DEFAULT_EVENT_CAPACITY)
    }

    /// An enabled handle whose event ring holds `events` events.
    pub fn with_capacity(events: usize) -> Self {
        Telemetry(Some(Arc::new(Recorder::new(events))))
    }

    /// Whether this handle records anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Increments `c` by one.
    #[inline]
    pub fn count(&self, c: Counter) {
        self.add(c, 1);
    }

    /// Increments `c` by `n`.
    #[inline]
    pub fn add(&self, c: Counter, n: u64) {
        if let Some(r) = &self.0 {
            r.counters[c.index()].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Records one histogram observation.
    #[inline]
    pub fn observe(&self, h: Hist, v: u64) {
        if let Some(r) = &self.0 {
            r.hists[h.index()].observe(v);
        }
    }

    /// Records an instant event at `at`.
    #[inline]
    pub fn instant(&self, kind: EventKind, at: SimTime, arg: u64) {
        if let Some(r) = &self.0 {
            r.push_event(Event {
                kind,
                start: at,
                dur: None,
                arg,
            });
        }
    }

    /// Records a span event from `start` to `end`.
    ///
    /// # Panics
    ///
    /// Panics if `end` precedes `start` (simulated time never reverses).
    #[inline]
    pub fn span(&self, kind: EventKind, start: SimTime, end: SimTime, arg: u64) {
        if let Some(r) = &self.0 {
            r.push_event(Event {
                kind,
                start,
                dur: Some(end.since(start)),
                arg,
            });
        }
    }

    /// A plain-data copy of everything recorded so far (empty for a
    /// disabled handle).
    pub fn snapshot(&self) -> TelemetrySnapshot {
        match &self.0 {
            None => TelemetrySnapshot::default(),
            Some(r) => {
                let ring = r.ring.lock().expect("event ring poisoned");
                TelemetrySnapshot {
                    counters: r
                        .counters
                        .iter()
                        .map(|c| c.load(Ordering::Relaxed))
                        .collect(),
                    hists: r.hists.iter().map(AtomicHistogram::snapshot).collect(),
                    events: ring.to_vec(),
                    events_dropped: ring.dropped(),
                }
            }
        }
    }
}

/// Plain-data telemetry state: comparable, mergeable, exportable.
///
/// Obtained from [`Telemetry::snapshot`]; shard snapshots fold together
/// with [`merge_shard`](TelemetrySnapshot::merge_shard).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetrySnapshot {
    /// One slot per [`Counter`], in declaration order.
    counters: Vec<u64>,
    /// One slot per [`Hist`], in declaration order.
    hists: Vec<HistSnapshot>,
    /// Retained events, oldest first (concatenated shard-ordered after a
    /// merge).
    pub events: Vec<Event>,
    /// Events lost to ring overwrite (summed across merged shards).
    pub events_dropped: u64,
}

impl Default for TelemetrySnapshot {
    fn default() -> Self {
        TelemetrySnapshot {
            counters: vec![0; Counter::COUNT],
            hists: vec![HistSnapshot::default(); Hist::COUNT],
            events: Vec::new(),
            events_dropped: 0,
        }
    }
}

impl TelemetrySnapshot {
    /// The value of counter `c`.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c.index()]
    }

    /// The state of histogram `h`.
    pub fn hist(&self, h: Hist) -> &HistSnapshot {
        &self.hists[h.index()]
    }

    /// Number of retained events of `kind`.
    pub fn event_count(&self, kind: EventKind) -> usize {
        self.events.iter().filter(|e| e.kind == kind).count()
    }

    /// Folds a shard's snapshot into this one. Counters and bucket
    /// counts add, maxima max — commutative and associative — and events
    /// concatenate in call order, so merging shards **position-ordered**
    /// (shard 0 first, then 1, …) yields the same bytes at any worker
    /// thread count.
    ///
    /// One exception: [`Counter::EngineScratchAllocs`] is dropped at
    /// merge. It records a *worker-thread* fact (this thread's reusable
    /// scratch had to grow), not a simulation fact — under dynamic work
    /// stealing, which shard's run lands on a cold thread is scheduling
    /// noise, so summing it would break the thread-count-invariance
    /// contract above. Read it from a serial, same-thread snapshot (as
    /// the engine-equivalence suite does), never from a merged one.
    pub fn merge_shard(&mut self, shard: &TelemetrySnapshot) {
        for (i, (a, b)) in self
            .counters
            .iter_mut()
            .zip(shard.counters.iter())
            .enumerate()
        {
            if i != Counter::EngineScratchAllocs.index() {
                *a += b;
            }
        }
        for (a, b) in self.hists.iter_mut().zip(shard.hists.iter()) {
            a.merge(b);
        }
        self.events.extend_from_slice(&shard.events);
        self.events_dropped += shard.events_dropped;
    }

    /// A deterministic human-readable summary table (nonzero counters,
    /// nonempty histograms, event tallies).
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        out.push_str("== telemetry summary ==\ncounters:\n");
        for c in Counter::ALL {
            let v = self.counter(c);
            if v != 0 {
                let _ = writeln!(out, "  {:<28} {v}", c.name());
            }
        }
        out.push_str("histograms:\n");
        for h in Hist::ALL {
            let s = self.hist(h);
            if s.count() != 0 {
                let _ = writeln!(
                    out,
                    "  {:<24} n={} mean={:.1} p50={} p90={} p99={} max={}",
                    h.name(),
                    s.count(),
                    s.mean(),
                    s.quantile(0.5),
                    s.quantile(0.9),
                    s.quantile(0.99),
                    s.max,
                );
            }
        }
        let _ = writeln!(
            out,
            "events: {} retained, {} dropped",
            self.events.len(),
            self.events_dropped
        );
        for k in EventKind::ALL {
            let n = self.event_count(k);
            if n != 0 {
                let _ = writeln!(out, "  {:<24} {n}", k.name());
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use suit_isa::SimDuration;

    #[test]
    fn disabled_handle_records_nothing() {
        let tele = Telemetry::off();
        assert!(!tele.is_enabled());
        tele.count(Counter::DoTraps);
        tele.observe(Hist::StallPs, 42);
        tele.instant(EventKind::DoTrap, SimTime::ZERO, 0);
        let snap = tele.snapshot();
        assert_eq!(snap, TelemetrySnapshot::default());
        assert_eq!(snap.counter(Counter::DoTraps), 0);
    }

    #[test]
    fn enabled_handle_records_everything() {
        let tele = Telemetry::recording();
        assert!(tele.is_enabled());
        tele.count(Counter::DoTraps);
        tele.add(Counter::FaultsInjected, 5);
        tele.observe(Hist::StallPs, 27_000_000);
        let t0 = SimTime::from_picos(100);
        tele.instant(EventKind::CurveSwitch, t0, 2);
        tele.span(EventKind::Stall, t0, t0 + SimDuration::from_micros(27), 0);
        let snap = tele.snapshot();
        assert_eq!(snap.counter(Counter::DoTraps), 1);
        assert_eq!(snap.counter(Counter::FaultsInjected), 5);
        assert_eq!(snap.hist(Hist::StallPs).count(), 1);
        assert_eq!(snap.hist(Hist::StallPs).max, 27_000_000);
        assert_eq!(snap.events.len(), 2);
        assert_eq!(snap.event_count(EventKind::CurveSwitch), 1);
        assert_eq!(snap.events[1].dur, Some(SimDuration::from_micros(27)));
    }

    #[test]
    fn clones_share_the_recorder() {
        let tele = Telemetry::recording();
        let clone = tele.clone();
        clone.count(Counter::Emulations);
        assert_eq!(tele.snapshot().counter(Counter::Emulations), 1);
    }

    #[test]
    fn merge_is_position_ordered_and_counter_commutative() {
        let mk = |n: u64, ps: u64| {
            let t = Telemetry::recording();
            t.add(Counter::DoTraps, n);
            t.observe(Hist::StallPs, ps);
            t.instant(EventKind::DoTrap, SimTime::from_picos(ps), n);
            t.snapshot()
        };
        let shards = [mk(1, 10), mk(2, 20), mk(3, 30)];

        // Position-ordered merge, two different groupings (as different
        // thread counts would chunk it): identical results.
        let mut flat = TelemetrySnapshot::default();
        for s in &shards {
            flat.merge_shard(s);
        }
        let mut grouped = TelemetrySnapshot::default();
        let mut left = TelemetrySnapshot::default();
        left.merge_shard(&shards[0]);
        left.merge_shard(&shards[1]);
        grouped.merge_shard(&left);
        grouped.merge_shard(&shards[2]);
        assert_eq!(flat, grouped);
        assert_eq!(flat.summary(), grouped.summary());
        assert_eq!(flat.counter(Counter::DoTraps), 6);
        assert_eq!(flat.events.len(), 3);
        assert_eq!(
            flat.events.iter().map(|e| e.arg).collect::<Vec<_>>(),
            [1, 2, 3]
        );
    }

    #[test]
    fn merge_drops_worker_thread_scratch_counter() {
        // EngineScratchAllocs records which worker thread ran cold — a
        // scheduling fact, so it must not survive into merged snapshots.
        let t = Telemetry::recording();
        t.add(Counter::EngineScratchAllocs, 3);
        t.add(Counter::DoTraps, 5);
        let shard = t.snapshot();
        let mut merged = TelemetrySnapshot::default();
        merged.merge_shard(&shard);
        merged.merge_shard(&shard);
        assert_eq!(merged.counter(Counter::DoTraps), 10);
        assert_eq!(merged.counter(Counter::EngineScratchAllocs), 0);
    }

    #[test]
    fn id_enums_are_dense_and_named() {
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
            assert!(!c.name().is_empty());
        }
        for (i, h) in Hist::ALL.iter().enumerate() {
            assert_eq!(h.index(), i);
        }
        for (i, k) in EventKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
        }
        assert_eq!(Counter::ALL.len(), Counter::COUNT);
    }

    #[test]
    fn summary_lists_only_touched_ids() {
        let tele = Telemetry::recording();
        tele.count(Counter::DeadlineFires);
        let s = tele.snapshot().summary();
        assert!(s.contains("deadline_fires"));
        assert!(!s.contains("ooo_mispredicts"));
    }
}
