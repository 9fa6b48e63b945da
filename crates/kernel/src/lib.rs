//! # fem2-kernel — the system programmer's virtual machine
//!
//! The layer that implements the numerical analyst's machine on the
//! hardware: run-time representation of tasks, their scheduling, the
//! communication between them, and the storage representation of data.
//!
//! From the paper, this layer's data objects are code blocks / constants
//! blocks, task and procedure activation records, window descriptors, and
//! storage representations; its messages are **exactly seven**:
//!
//! 1. initiate K replications of a task of type T,
//! 2. pause and notify parent task,
//! 3. resume a child task,
//! 4. terminate and notify parent,
//! 5. remote procedure call,
//! 6. remote procedure return,
//! 7. load code/constants;
//!
//! its storage management is "a general heap with variable size blocks".
//!
//! Modules:
//!
//! * [`message`] — the seven kernel message types and their wire sizes;
//! * [`codeblock`] — code/constants blocks and per-activation work profiles;
//! * [`activation`] — task activation records and the task state machine;
//! * [`heap`] — the variable-size-block heap (first-fit free list with
//!   coalescing and fragmentation statistics);
//! * [`window_desc`] — window descriptors, the storage representation of the
//!   numerical analyst's windows;
//! * [`kernel`] — [`kernel::KernelSim`]: the per-cluster kernel loop over
//!   the simulated machine — fields incoming messages on the kernel PE and
//!   assigns available PEs to process them, with fault reconfiguration;
//! * [`protocol`] — the message protocol as a finite automaton, for static
//!   conformance checking of scenario message sequences.

pub mod activation;
pub mod codeblock;
pub mod heap;
pub mod kernel;
pub mod message;
pub mod protocol;
pub mod window_desc;

pub use activation::{ActivationRecord, TaskId, TaskState};
pub use codeblock::{CodeBlock, CodeId, CodeStore, WorkProfile};
pub use heap::{Block, Heap, HeapError};
pub use kernel::{DropCounts, KernelSim, KernelStats};
pub use message::{KernelMessage, MessageKind};
pub use protocol::{ProtocolAutomaton, ProtocolState, ProtocolViolation};
pub use window_desc::{WindowDescriptor, WindowKind};
