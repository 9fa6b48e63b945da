//! Run budgets: bounds a supervisor can place on a simulation before it
//! starts, checked cooperatively as simulated time advances.
//!
//! A budget carries up to four limits:
//!
//! * **max simulated cycles** — deterministic: the same scenario with the
//!   same cycle budget aborts at the same simulated time on every run;
//! * **max DES events** — deterministic: bounds the discrete-event loop by
//!   pop count, independent of how far the clock has advanced;
//! * **wall-clock deadline** — operational only: protects the host from a
//!   runaway simulation at the price of nondeterministic abort points;
//! * **cooperative cancel flag** — operational only: lets a supervisor
//!   (e.g. a shutting-down server) ask an in-flight run to stop.
//!
//! The deterministic limits are part of a job's identity and may be hashed;
//! the operational ones never are. `MachineConfig` deliberately does *not*
//! carry a budget: its serialized form participates in content hashes, so
//! budgets thread through scenario/run APIs as runtime parameters instead.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::Cycles;

/// Why a budgeted run stopped early.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AbortCause {
    /// The simulated clock passed the cycle budget.
    CyclesExceeded,
    /// The DES loop popped more events than the budget allows.
    EventsExceeded,
    /// The host wall-clock deadline passed.
    WallDeadline,
    /// The cooperative cancel flag was raised.
    Cancelled,
    /// A fault cut off a cluster the run needs: a message had no live
    /// route, exhausted its retransmit budget, or found no surviving PE.
    Unreachable,
    /// A memory-bank fault left a cluster's arena too small for an
    /// allocation the run needs.
    MemoryExhausted,
}

impl AbortCause {
    /// Stable lower-case name, used in registry records and client JSON.
    pub fn name(&self) -> &'static str {
        match self {
            AbortCause::CyclesExceeded => "cycles_exceeded",
            AbortCause::EventsExceeded => "events_exceeded",
            AbortCause::WallDeadline => "wall_deadline",
            AbortCause::Cancelled => "cancelled",
            AbortCause::Unreachable => "unreachable",
            AbortCause::MemoryExhausted => "memory_exhausted",
        }
    }
}

/// A budgeted run that stopped before completing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunAborted {
    /// Which limit fired.
    pub cause: AbortCause,
    /// Simulated time when the abort was detected.
    pub sim_cycles: Cycles,
    /// DES events processed when the abort was detected (0 for runs that
    /// never touch an event queue).
    pub des_events: u64,
}

impl std::fmt::Display for RunAborted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "run aborted ({}) at {} sim cycles, {} DES events",
            self.cause.name(),
            self.sim_cycles,
            self.des_events
        )
    }
}

/// Limits for one run. `Default` is unlimited: no field set, nothing ever
/// aborts, and the budgeted run APIs behave exactly like their unbudgeted
/// counterparts.
#[derive(Clone, Debug, Default)]
pub struct RunBudget {
    /// Abort once the simulated clock passes this many cycles.
    pub max_sim_cycles: Option<Cycles>,
    /// Abort once the DES loop has popped this many events.
    pub max_des_events: Option<u64>,
    /// Abort once this much host wall-clock time has elapsed since the
    /// meter was started.
    pub wall_limit: Option<Duration>,
    /// Abort when this flag is raised (checked cooperatively).
    pub cancel: Option<Arc<AtomicBool>>,
}

impl RunBudget {
    /// An unlimited budget.
    pub fn unlimited() -> Self {
        RunBudget::default()
    }

    /// A budget bounding only simulated cycles (fully deterministic).
    pub fn max_cycles(cycles: Cycles) -> Self {
        RunBudget {
            max_sim_cycles: Some(cycles),
            ..RunBudget::default()
        }
    }

    /// True if no limit is set (the common case; checks short-circuit).
    pub fn is_unlimited(&self) -> bool {
        self.max_sim_cycles.is_none()
            && self.max_des_events.is_none()
            && self.wall_limit.is_none()
            && self.cancel.is_none()
    }

    /// Start metering this budget now (captures the wall-clock anchor).
    #[expect(
        clippy::disallowed_methods,
        reason = "RunBudget wall_limit is an operational deadline by design; hash-neutral and quarantine-exempt"
    )]
    pub fn start(&self) -> BudgetMeter {
        BudgetMeter {
            budget: self.clone(),
            started: Instant::now(),
            wall_checks: AtomicU64::new(0),
        }
    }
}

/// How often (in calls to [`BudgetMeter::check`]) the wall clock is
/// consulted; the deterministic limits are checked on every call. The
/// gate is the meter's own call counter — not the caller-supplied event
/// count, which some polling paths (the navm charge polls) always pass as
/// 0 — so `Instant::now` stays off every hot path while bounding
/// wall-deadline overshoot to a fraction of a millisecond of work.
const WALL_CHECK_PERIOD: u64 = 512;

/// A started budget: the limits plus the wall-clock anchor.
#[derive(Debug)]
pub struct BudgetMeter {
    budget: RunBudget,
    started: Instant,
    /// Calls to `check` with a wall limit armed; gates the clock consult.
    wall_checks: AtomicU64,
}

impl Clone for BudgetMeter {
    fn clone(&self) -> Self {
        BudgetMeter {
            budget: self.budget.clone(),
            started: self.started,
            wall_checks: AtomicU64::new(self.wall_checks.load(Ordering::Relaxed)),
        }
    }
}

impl Default for BudgetMeter {
    fn default() -> Self {
        RunBudget::unlimited().start()
    }
}

impl BudgetMeter {
    /// The limits being metered.
    pub fn budget(&self) -> &RunBudget {
        &self.budget
    }

    /// Check every limit against the given progress counters. Deterministic
    /// limits (cycles, events) are checked first and on every call, so runs
    /// that abort on them abort identically across repeats; the wall clock
    /// is only consulted every `WALL_CHECK_PERIOD` calls (keyed off the
    /// meter's own call counter) and the cancel flag on every call.
    pub fn check(&self, sim_cycles: Cycles, des_events: u64) -> Result<(), RunAborted> {
        if self.budget.is_unlimited() {
            return Ok(());
        }
        let abort = |cause| RunAborted {
            cause,
            sim_cycles,
            des_events,
        };
        if let Some(max) = self.budget.max_sim_cycles {
            if sim_cycles > max {
                return Err(abort(AbortCause::CyclesExceeded));
            }
        }
        if let Some(max) = self.budget.max_des_events {
            if des_events > max {
                return Err(abort(AbortCause::EventsExceeded));
            }
        }
        if let Some(flag) = &self.budget.cancel {
            if flag.load(Ordering::Relaxed) {
                return Err(abort(AbortCause::Cancelled));
            }
        }
        if let Some(limit) = self.budget.wall_limit {
            let n = self.wall_checks.fetch_add(1, Ordering::Relaxed);
            if n.is_multiple_of(WALL_CHECK_PERIOD) && self.started.elapsed() > limit {
                return Err(abort(AbortCause::WallDeadline));
            }
        }
        Ok(())
    }

    /// [`check`](Self::check) as an `Option`, for call sites that poll
    /// rather than propagate.
    pub fn exceeded(&self, sim_cycles: Cycles, des_events: u64) -> Option<RunAborted> {
        self.check(sim_cycles, des_events).err()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_aborts() {
        let meter = RunBudget::unlimited().start();
        assert!(meter.check(u64::MAX, u64::MAX).is_ok());
    }

    #[test]
    fn cycle_budget_fires_deterministically() {
        let meter = RunBudget::max_cycles(100).start();
        assert!(meter.check(100, 0).is_ok(), "at the limit is still in");
        let err = meter.check(101, 7).unwrap_err();
        assert_eq!(err.cause, AbortCause::CyclesExceeded);
        assert_eq!(err.sim_cycles, 101);
        assert_eq!(err.des_events, 7);
        // Repeat checks agree bit-for-bit.
        assert_eq!(meter.check(101, 7).unwrap_err(), err);
    }

    #[test]
    fn event_budget_fires_on_pop_count() {
        let budget = RunBudget {
            max_des_events: Some(10),
            ..RunBudget::default()
        };
        let meter = budget.start();
        assert!(meter.check(0, 10).is_ok());
        assert_eq!(
            meter.check(0, 11).unwrap_err().cause,
            AbortCause::EventsExceeded
        );
    }

    #[test]
    fn cancel_flag_aborts_cooperatively() {
        let flag = Arc::new(AtomicBool::new(false));
        let budget = RunBudget {
            cancel: Some(Arc::clone(&flag)),
            ..RunBudget::default()
        };
        let meter = budget.start();
        assert!(meter.check(5, 5).is_ok());
        flag.store(true, Ordering::Relaxed);
        assert_eq!(meter.check(5, 5).unwrap_err().cause, AbortCause::Cancelled);
    }

    #[test]
    fn wall_deadline_fires_once_elapsed() {
        let budget = RunBudget {
            wall_limit: Some(Duration::from_millis(1)),
            ..RunBudget::default()
        };
        let meter = budget.start();
        std::thread::sleep(Duration::from_millis(5));
        // The meter's first check consults the clock (call count 0).
        assert_eq!(
            meter.check(0, 0).unwrap_err().cause,
            AbortCause::WallDeadline
        );
        // Further checks inside the same period skip the clock — even at
        // event count 0, which the navm polling paths always pass.
        assert!(meter.check(0, 0).is_ok());
        assert!(meter.check(0, 1).is_ok());
    }

    #[test]
    fn deterministic_limits_outrank_the_wall_clock() {
        let budget = RunBudget {
            max_sim_cycles: Some(10),
            wall_limit: Some(Duration::from_nanos(1)),
            ..RunBudget::default()
        };
        let meter = budget.start();
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(
            meter.check(11, 0).unwrap_err().cause,
            AbortCause::CyclesExceeded,
            "cycles checked before wall"
        );
    }
}
