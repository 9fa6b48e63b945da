//! fem2-serve: a multi-tenant simulation service over the FEM-2 stack.
//!
//! The library behind the `fem2-serve` binary. Submissions are JSON job
//! specs ([`job::JobSpec`]); every one is:
//!
//! 1. **content-hashed** over the fully resolved (scenario, machine,
//!    seed) document via [`fem2_core::hash`] — identical submissions,
//!    however spelled, hit the result cache instead of re-simulating;
//! 2. **gated**, when the cache has never seen that content, through the
//!    fem2-verify static analyzer — scenarios that would deadlock or
//!    overflow cluster memory are rejected with a 422 carrying the
//!    structured diagnostics, before any cycle is simulated;
//! 3. **scheduled** onto a bounded FIFO that the server's own worker
//!    threads pop — submissions past the queue cap are shed with a 503;
//! 4. **persisted** to an append-only, crash-safe JSONL registry
//!    ([`registry`]) that survives restarts and feeds the static report
//!    site ([`report`]).
//!
//! The HTTP layer ([`http`]) is a deliberate minimum over
//! `std::net::TcpListener`: the build is offline, so there is no server
//! framework to lean on — and none needed for seven routes.
//!
//! Job execution is **supervised** ([`server`]): panics are isolated with
//! `catch_unwind` and recorded as failures, run budgets
//! ([`fem2_machine::RunBudget`], wired through the job spec's `budget`
//! object) turn runaway simulations into structured aborts, specs whose
//! latest record failed are quarantined, and a deterministic chaos
//! harness ([`chaos`]) injects worker panics, stalls, and registry write
//! errors to prove all of it under test.

pub(crate) mod util {
    //! Two absorbers that keep call sites infallible: JSON text of an
    //! already-built `Value` tree (the vendored `serde_json` signatures
    //! return `Result` even where that cannot fail), and the server's
    //! state locks.
    use serde::json::Value;
    use std::sync::{Mutex, MutexGuard, PoisonError};

    pub(crate) fn json_compact(v: &Value) -> String {
        serde_json::to_string(v).unwrap_or_else(|e| format!("{{\"error\":\"serialize: {e}\"}}"))
    }

    pub(crate) fn json_pretty(v: &Value) -> String {
        serde_json::to_string_pretty(v)
            .unwrap_or_else(|e| format!("{{\"error\":\"serialize: {e}\"}}"))
    }

    /// Lock `m` whether or not a thread panicked while holding it. Jobs
    /// run under `catch_unwind` outside the state locks, so a panic under
    /// one is a bug in a single request's handler; passing the poison on
    /// would turn that one failed request into a server that answers
    /// nothing until it is restarted.
    pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
        m.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

pub mod chaos;
pub mod client;
pub mod http;
pub mod job;
pub mod registry;
pub mod report;
pub mod server;

pub use chaos::{ChaosPlan, ChaosState};
pub use job::{JobOutcome, JobSpec, RunStatus};
pub use registry::{Registry, RunRecord};
pub use server::{start, ServeOptions, ServerHandle};
