//! # fem2-machine — the FEM-2 hardware, simulated
//!
//! A deterministic discrete-event simulator of the hardware organization the
//! FEM-2 design method arrived at:
//!
//! > "an architecture … configured as clusters of processing elements
//! > organized around a shared memory. Sets of clusters communicate through
//! > a common communication network. Within each cluster, one PE runs the
//! > operating system kernel, which fields incoming messages and assigns
//! > available PE's to process them. Messages arriving in the input queue of
//! > any cluster can be processed by any available PE."
//!
//! The crate models:
//!
//! * [`config`] — machine configurations (cluster count, PEs per cluster,
//!   memory, network topology, instruction cost model), including the
//!   clustered FEM-2 default and a flat FEM-1-style array baseline;
//! * [`pe`] — processing elements with an abstract instruction cost model;
//! * `memory` — per-cluster shared memories with capacity accounting and
//!   high-water tracking;
//! * [`network`] — the common communication network: bus, ring, 2-D mesh and
//!   crossbar topologies with per-link contention and large-message
//!   segmentation;
//! * [`sim`] — a generic discrete-event engine with deterministic
//!   tie-breaking;
//! * [`index`] — the fixed-hash and paged indexes behind every keyed
//!   table the engine holds, and the one FNV-1a;
//! * [`fault`] — the fault plan: PE, link and memory-bank faults and their
//!   repairs, applied through [`Machine::apply_fault`] ("reconfigurability
//!   to isolate faulty hardware components");
//! * [`stats`] — cycle/flop/message/byte/storage counters, grouped into
//!   named phases, which feed the design method's processing / storage /
//!   communication requirement tables.
//!
//! Everything is cycle-denominated and deterministic: no wall clock, no OS
//! scheduling, no randomness. Two runs over the same inputs produce the same
//! event trace (property-tested in `tests/`).

pub mod budget;
pub mod config;
pub mod fault;
pub mod index;
pub(crate) mod memory;
pub mod network;
pub mod pe;
pub mod sim;
pub mod stats;

mod machine;

pub use budget::{AbortCause, BudgetMeter, RunAborted, RunBudget};
pub use config::{DesQueue, MachineConfig, Topology};
pub use machine::Machine;
pub use network::{Flight, Network, Record};
pub use pe::{CostClass, Pe, PeId, WorkProfile};
pub use sim::EventQueue;
pub use stats::PhaseCounters;

/// Simulation time, in PE clock cycles.
pub type Cycles = u64;

/// Storage quantities, in 64-bit words (the machine's allocation unit).
pub type Words = u64;

/// Retransmissions a reliable layer — the kernel's and the NA-VM's alike —
/// makes of a message lost in flight before it gives the message up as a
/// dead letter.
pub const MAX_RETRANSMITS: u32 = 4;
