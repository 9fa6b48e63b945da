//! # fem2-navm — the numerical analyst's virtual machine
//!
//! The high-level machine a research user programs: tasks, **windows on
//! arrays**, broadcast, forall/pardo parallel loops, remote procedure calls
//! routed by data location, and linear-algebra operations. From the paper:
//!
//! * *data objects*: windows on arrays (row, column, block descriptors, for
//!   remote access to non-local data);
//! * *operations*: tasks, window operations, broadcast, linear algebra;
//! * *sequence control*: forall loops, pardo, task control, remote procedure
//!   call — "location determined by location of data visible in a window";
//! * *data control*: all data owned by a single task, accessible non-locally
//!   **only** via windows;
//! * *storage management*: dynamic creation of data objects by tasks, data
//!   lifetime = owner-task lifetime.
//!
//! ## Two execution planes
//!
//! Every program runs on either plane with **identical numerical results**:
//!
//! * [`NaVm::native`] — the same program on the calling thread with no
//!   cost accounting: the second, charge-free execution the plane-identity
//!   tests compare the simulated plane against;
//! * [`NaVm::simulated`] — the `fem2-machine` cost model: every forall,
//!   window access, broadcast, and RPC charges cycles, messages, and words
//!   to the simulated FEM-2 hardware, producing the processing / storage /
//!   communication requirement numbers the design method calls for.
//!
//! ```
//! use fem2_navm::{NaVm, TaskHandle};
//! use fem2_machine::MachineConfig;
//!
//! let mut vm = NaVm::simulated(MachineConfig::fem2_default(), 8);
//! let x = vm.vector(1000);
//! let y = vm.vector(1000);
//! vm.fill(x, |i, _| i as f64);
//! vm.fill(y, |_, _| 2.0);
//! let dot = vm.inner(x, y);
//! assert_eq!(dot, 2.0 * (999.0 * 1000.0 / 2.0));
//! assert!(vm.elapsed() > 0, "simulated plane charged cycles");
//! let _ = TaskHandle(0);
//! ```

pub mod linalg;
pub mod runtime;
pub mod task;
pub mod window;

pub use runtime::{ArrayId, NaVm, PlaneKind};
pub use task::{TaskHandle, TaskSet};
pub use window::Window;

// Re-exported so downstream users can size work profiles without importing
// the machine crate directly.
pub use fem2_machine::WorkProfile;
