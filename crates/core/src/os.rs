//! The SUIT operating-system component — Listing 1 in Rust.
//!
//! [`SuitOs`] holds the policy state (strategy, parameters, thrashing
//! guard) and drives an abstract [`CpuControl`] — in the simulator that is
//! the simulated core; on real SUIT silicon it would be the MSR writes of
//! [`crate::msr`]. The two entry points mirror the paper's pseudo code:
//!
//! * [`SuitOs::on_disabled_opcode`] — the `#DO` exception handler;
//! * [`SuitOs::on_timer_interrupt`] — the deadline-timer handler.
//!
//! The hardware-side deadline *reset* on every faultable execution (§4.1)
//! does not involve the OS; the simulator performs it directly on its
//! [`crate::deadline::DeadlineTimer`].

use suit_hw::Point;
use suit_isa::{SimDuration, SimTime};
use suit_telemetry::{Counter, EventKind, Telemetry};

use crate::adaptive::{AdaptiveChooser, AdaptiveConfig};
use crate::exception::DisabledOpcode;
use crate::strategy::{OperatingStrategy, StrategyParams};
use crate::thrash::ThrashGuard;

/// The hardware controls the OS drives — the `cpu.*` calls of Listing 1.
/// P-state targets are Fig. 4's operating points.
pub trait CpuControl {
    /// Current time (the OS reads the clock for thrashing detection).
    fn now(&self) -> SimTime;

    /// Requests a p-state change and blocks until it takes effect
    /// (`cpu.change_pstate_wait`).
    fn change_pstate_wait(&mut self, target: Point);

    /// Requests a p-state change and returns immediately
    /// (`cpu.change_pstate_async`). A later request supersedes a pending
    /// one — §4.3: returning to `E` "cancels the voltage change".
    fn change_pstate_async(&mut self, target: Point);

    /// Writes the disable-opcode MSR for the whole vendor faultable set
    /// (`cpu.set_instructions_disabled`).
    fn set_instructions_disabled(&mut self, disabled: bool);

    /// Arms the deadline timer (`cpu.set_timer_interrupt`).
    fn set_timer_interrupt(&mut self, deadline: SimDuration);
}

/// What the `#DO` handler decided, so the caller can charge the right cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HandlerAction {
    /// The instruction set was re-enabled on the conservative curve; the
    /// faulting instruction re-executes natively.
    SwitchedToConservative,
    /// The instruction was emulated in user space; execution continues
    /// after it, still on the efficient curve.
    Emulated,
}

/// Counters the OS keeps (reported by the `residency` experiment and used
/// by the thrashing ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OsStats {
    /// `#DO` exceptions handled.
    pub exceptions: u64,
    /// Deadline-timer interrupts handled.
    pub timer_fires: u64,
    /// Instructions emulated.
    pub emulated: u64,
    /// Exceptions handled while thrashing was detected.
    pub thrash_hits: u64,
}

/// The SUIT OS policy: strategy + parameters + thrashing state.
#[derive(Debug, Clone)]
pub struct SuitOs {
    strategy: OperatingStrategy,
    params: StrategyParams,
    thrash: ThrashGuard,
    stats: OsStats,
    current_deadline: SimDuration,
    chooser: Option<AdaptiveChooser>,
    tele: Telemetry,
}

/// The telemetry payload identifying an operating strategy in
/// `strategy_decision` events.
fn strategy_arg(s: OperatingStrategy) -> u64 {
    match s {
        OperatingStrategy::Frequency => 0,
        OperatingStrategy::Voltage => 1,
        OperatingStrategy::FreqVolt => 2,
        OperatingStrategy::Emulation => 3,
    }
}

impl SuitOs {
    /// Creates the OS policy.
    pub fn new(strategy: OperatingStrategy, params: StrategyParams) -> Self {
        SuitOs {
            strategy,
            params,
            thrash: ThrashGuard::new(params.timespan, params.max_exceptions),
            current_deadline: params.deadline,
            stats: OsStats::default(),
            chooser: None,
            tele: Telemetry::off(),
        }
    }

    /// Attaches a telemetry handle: the handlers record `#DO` entries and
    /// exits, MSR disable-mask writes, deadline fires, thrash lockouts,
    /// and adaptive-chooser activity through it. The default is
    /// [`Telemetry::off`], which costs one branch per hook.
    pub fn with_telemetry(mut self, tele: Telemetry) -> Self {
        self.tele = tele;
        self
    }

    /// Creates the OS policy with the §6.8 dynamic strategy chooser: it
    /// starts in emulation mode and flips between emulation and 𝑓𝑉 based
    /// on the observed `#DO` traffic.
    pub fn new_adaptive(params: StrategyParams, adaptive: AdaptiveConfig) -> Self {
        let mut os = Self::new(OperatingStrategy::Emulation, params);
        os.chooser = Some(AdaptiveChooser::new(adaptive));
        os
    }

    /// The configured strategy.
    pub fn strategy(&self) -> OperatingStrategy {
        self.strategy
    }

    /// The deadline currently in force (p_dl, or p_dl · p_df while
    /// thrashing) — the value hardware resets the timer to on faultable
    /// executions.
    pub fn current_deadline(&self) -> SimDuration {
        self.current_deadline
    }

    /// OS statistics so far.
    pub fn stats(&self) -> OsStats {
        self.stats
    }

    /// The `#DO` exception handler (Listing 1,
    /// `disabled_instruction_exception_handler`).
    pub fn on_disabled_opcode(
        &mut self,
        cpu: &mut impl CpuControl,
        exception: &DisabledOpcode,
    ) -> HandlerAction {
        self.stats.exceptions += 1;
        self.tele.count(Counter::DoTraps);
        self.tele
            .instant(EventKind::DoTrap, cpu.now(), exception.core as u64);

        // §6.8: dynamic strategy selection re-evaluates on every trap.
        if let Some(chooser) = &mut self.chooser {
            let was_probing = chooser.is_probing();
            let prev_mode = chooser.mode();
            self.strategy = chooser.on_exception(cpu.now());
            if chooser.is_probing() && !was_probing {
                self.tele.count(Counter::AdaptiveProbes);
            }
            if chooser.mode() != prev_mode {
                self.tele.count(Counter::AdaptiveFlips);
            }
        }

        self.tele.count(Counter::StrategyDecisions);
        self.tele.instant(
            EventKind::StrategyDecision,
            cpu.now(),
            strategy_arg(self.strategy),
        );

        if self.strategy == OperatingStrategy::Emulation {
            // No curve change: the handler returns into mapped user-space
            // emulation code (§3.4). Instructions stay disabled.
            self.stats.emulated += 1;
            self.tele.count(Counter::Emulations);
            self.tele.instant(EventKind::DoTrapExit, cpu.now(), 0);
            return HandlerAction::Emulated;
        }

        // Switch to the conservative curve; we wait for the part of the
        // p-state that makes execution safe.
        match self.strategy {
            OperatingStrategy::Frequency => cpu.change_pstate_wait(Point::Cf),
            OperatingStrategy::Voltage => cpu.change_pstate_wait(Point::Cv),
            OperatingStrategy::FreqVolt => {
                // Listing 1: wait for the (fast) frequency change, request
                // the (slow) voltage change asynchronously.
                cpu.change_pstate_wait(Point::Cf);
                cpu.change_pstate_async(Point::Cv);
            }
            OperatingStrategy::Emulation => unreachable!("handled above"),
        }

        cpu.set_instructions_disabled(false);
        self.tele.count(Counter::MsrDisableWrites);

        // Thrashing prevention (Listing 1, lines 10-14).
        let now = cpu.now();
        let thrashing = self.thrash.record_exception(now);
        self.current_deadline = if thrashing {
            self.stats.thrash_hits += 1;
            self.tele.count(Counter::ThrashLockouts);
            self.tele.instant(EventKind::ThrashLockout, now, 0);
            self.params.extended_deadline()
        } else {
            self.params.deadline
        };
        cpu.set_timer_interrupt(self.current_deadline);

        self.tele.instant(EventKind::DoTrapExit, cpu.now(), 0);
        HandlerAction::SwitchedToConservative
    }

    /// The deadline-timer handler (Listing 1, `timer_interrupt_handler`).
    pub fn on_timer_interrupt(&mut self, cpu: &mut impl CpuControl) {
        self.stats.timer_fires += 1;
        self.tele.count(Counter::DeadlineFires);
        self.tele.instant(EventKind::DeadlineFire, cpu.now(), 0);
        cpu.set_instructions_disabled(true);
        self.tele.count(Counter::MsrDisableWrites);
        cpu.change_pstate_async(Point::E);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use suit_isa::Opcode;

    /// Records the call sequence the OS makes.
    #[derive(Debug, Default)]
    struct MockCpu {
        now: SimTime,
        calls: Vec<String>,
    }

    impl CpuControl for MockCpu {
        fn now(&self) -> SimTime {
            self.now
        }
        fn change_pstate_wait(&mut self, t: Point) {
            self.calls.push(format!("wait:{t:?}"));
        }
        fn change_pstate_async(&mut self, t: Point) {
            self.calls.push(format!("async:{t:?}"));
        }
        fn set_instructions_disabled(&mut self, d: bool) {
            self.calls.push(format!("disable:{d}"));
        }
        fn set_timer_interrupt(&mut self, d: SimDuration) {
            self.calls
                .push(format!("timer:{}us", d.as_micros_f64().round()));
        }
    }

    fn exception(at_us: u64) -> DisabledOpcode {
        DisabledOpcode::new(
            Opcode::Aesenc,
            0,
            SimTime::ZERO + SimDuration::from_micros(at_us),
        )
    }

    #[test]
    fn fv_handler_follows_listing_1() {
        let mut os = SuitOs::new(OperatingStrategy::FreqVolt, StrategyParams::intel());
        let mut cpu = MockCpu::default();
        let act = os.on_disabled_opcode(&mut cpu, &exception(0));
        assert_eq!(act, HandlerAction::SwitchedToConservative);
        assert_eq!(
            cpu.calls,
            vec!["wait:Cf", "async:Cv", "disable:false", "timer:30us"],
            "exact Listing 1 order"
        );
    }

    #[test]
    fn timer_handler_follows_listing_1() {
        let mut os = SuitOs::new(OperatingStrategy::FreqVolt, StrategyParams::intel());
        let mut cpu = MockCpu::default();
        os.on_timer_interrupt(&mut cpu);
        assert_eq!(cpu.calls, vec!["disable:true", "async:E"]);
        assert_eq!(os.stats().timer_fires, 1);
    }

    #[test]
    fn frequency_strategy_skips_voltage() {
        let mut os = SuitOs::new(OperatingStrategy::Frequency, StrategyParams::amd());
        let mut cpu = MockCpu::default();
        os.on_disabled_opcode(&mut cpu, &exception(0));
        assert_eq!(cpu.calls, vec!["wait:Cf", "disable:false", "timer:700us"]);
    }

    #[test]
    fn voltage_strategy_waits_for_voltage() {
        let mut os = SuitOs::new(OperatingStrategy::Voltage, StrategyParams::intel());
        let mut cpu = MockCpu::default();
        os.on_disabled_opcode(&mut cpu, &exception(0));
        assert_eq!(cpu.calls, vec!["wait:Cv", "disable:false", "timer:30us"]);
    }

    #[test]
    fn emulation_strategy_touches_nothing() {
        let mut os = SuitOs::new(OperatingStrategy::Emulation, StrategyParams::intel());
        let mut cpu = MockCpu::default();
        let act = os.on_disabled_opcode(&mut cpu, &exception(0));
        assert_eq!(act, HandlerAction::Emulated);
        assert!(cpu.calls.is_empty(), "no curve or MSR activity");
        assert_eq!(os.stats().emulated, 1);
    }

    #[test]
    fn thrashing_extends_the_deadline() {
        let mut os = SuitOs::new(OperatingStrategy::FreqVolt, StrategyParams::intel());
        let mut cpu = MockCpu::default();
        // Three exceptions within 450 µs trip the guard (p_ec = 3).
        for t in [0u64, 100, 200] {
            cpu.now = SimTime::ZERO + SimDuration::from_micros(t);
            os.on_disabled_opcode(&mut cpu, &exception(t));
        }
        assert_eq!(
            os.current_deadline(),
            SimDuration::from_micros(420),
            "30 µs · 14"
        );
        assert_eq!(os.stats().thrash_hits, 1);
        let last = cpu.calls.last().unwrap();
        assert_eq!(last, "timer:420us");
    }

    #[test]
    fn deadline_recovers_after_quiet_period() {
        let mut os = SuitOs::new(OperatingStrategy::FreqVolt, StrategyParams::intel());
        let mut cpu = MockCpu::default();
        for t in [0u64, 100, 200] {
            cpu.now = SimTime::ZERO + SimDuration::from_micros(t);
            os.on_disabled_opcode(&mut cpu, &exception(t));
        }
        assert_eq!(os.current_deadline(), SimDuration::from_micros(420));
        // A lone exception long after the storm uses the normal deadline.
        cpu.now = SimTime::ZERO + SimDuration::from_micros(10_000);
        os.on_disabled_opcode(&mut cpu, &exception(10_000));
        assert_eq!(os.current_deadline(), SimDuration::from_micros(30));
    }

    #[test]
    fn telemetry_hooks_record_handler_activity() {
        let tele = Telemetry::recording();
        let mut os = SuitOs::new(OperatingStrategy::FreqVolt, StrategyParams::intel())
            .with_telemetry(tele.clone());
        let mut cpu = MockCpu::default();
        os.on_disabled_opcode(&mut cpu, &exception(0));
        os.on_timer_interrupt(&mut cpu);
        let snap = tele.snapshot();
        assert_eq!(snap.counter(Counter::DoTraps), 1);
        assert_eq!(snap.counter(Counter::StrategyDecisions), 1);
        assert_eq!(snap.counter(Counter::DeadlineFires), 1);
        // One disable-mask write per handler (re-enable, then re-disable).
        assert_eq!(snap.counter(Counter::MsrDisableWrites), 2);
        assert_eq!(snap.event_count(EventKind::DoTrap), 1);
        assert_eq!(snap.event_count(EventKind::DoTrapExit), 1);
        assert_eq!(snap.event_count(EventKind::DeadlineFire), 1);
        // The default handle records nothing and changes no behaviour.
        let mut quiet = SuitOs::new(OperatingStrategy::FreqVolt, StrategyParams::intel());
        let mut cpu2 = MockCpu::default();
        quiet.on_disabled_opcode(&mut cpu2, &exception(0));
        assert_eq!(cpu.calls[..4], cpu2.calls[..]);
    }

    #[test]
    fn stats_accumulate() {
        let mut os = SuitOs::new(OperatingStrategy::FreqVolt, StrategyParams::intel());
        let mut cpu = MockCpu::default();
        os.on_disabled_opcode(&mut cpu, &exception(0));
        os.on_timer_interrupt(&mut cpu);
        os.on_disabled_opcode(&mut cpu, &exception(1));
        let s = os.stats();
        assert_eq!(s.exceptions, 2);
        assert_eq!(s.timer_fires, 1);
        assert_eq!(s.emulated, 0);
    }
}
