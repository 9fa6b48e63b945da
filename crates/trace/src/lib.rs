//! # fem2-trace — event-level tracing for the simulated plane
//!
//! The FEM-2 design method rests on *measuring* storage, processing, and
//! communication patterns of candidate organizations. Aggregate counters
//! (`fem2-machine::stats`) say how much; this crate records **when, where,
//! and in what order**: every DES dispatch, PE busy span, kernel message,
//! window-protocol stage, heap operation, and network transfer, stamped
//! with simulated cycle time, cluster/PE, and scenario phase.
//!
//! Design points:
//! - **Observation only.** Instrumentation never changes simulated state or
//!   timing; with the sink disabled the simulated plane is bit-identical to
//!   an uninstrumented build.
//! - **Zero cost when off.** Instrumented code holds a [`TraceHandle`]; a
//!   disabled handle is a `None` and [`TraceHandle::emit`] never builds the
//!   event (the closure is not called).
//! - **Bounded memory.** [`RingRecorder`] keeps the newest `capacity`
//!   events and counts what it dropped; per-phase metrics are aggregated
//!   from *every* event, including dropped ones.
//! - **Deterministic.** Recording is in simulation order; identical runs
//!   retain equal [`RingRecorder::events`] and drop the same count.
//!
//! Export with [`chrome::trace_json`] (loadable in `chrome://tracing` /
//! Perfetto) or [`chrome::phase_table`] (plain text).

pub mod chrome;
pub mod event;
pub(crate) mod metrics;
pub mod report;
pub mod sink;

pub use event::{
    CostKind, EventKind, MsgKind, TaskStage, TraceEvent, WindowStage, NO_CLUSTER, NO_PE,
};
pub use report::DegradationReport;
pub use sink::{RingRecorder, SharedRecorder, TraceHandle};

/// Simulated time in machine cycles (mirrors `fem2_machine::Cycles`; this
/// crate sits below the machine crate so it declares its own alias).
pub(crate) type Cycles = u64;
