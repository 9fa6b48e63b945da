//! Deterministic fault injection for the serve layer.
//!
//! A [`ChaosPlan`] is a small JSON document naming exactly which faults to
//! arm, keyed by *run ordinal* (the 1-based count of jobs dispatched to
//! workers since the server started). Because injection points are counted
//! rather than sampled, a plan reproduces the same fault sequence on every
//! run — the chaos harness is a deterministic test fixture, not a fuzzer.
//!
//! Plan document (all fields optional):
//!
//! ```json
//! {
//!   "seed": 7,
//!   "panic_on_run": [2],
//!   "stall_ms_on_run": [[3, 250]],
//!   "registry_error_on_write": [1]
//! }
//! ```
//!
//! * `panic_on_run` — the Nth dispatched runs panic inside the worker
//!   (exercising panic isolation, failure records, and quarantine).
//! * `stall_ms_on_run` — the Nth dispatched runs sleep that many
//!   milliseconds before executing (exercising wall budgets and the
//!   health probes under load).
//! * `registry_error_on_write` — the Nth registry log appends fail with a
//!   simulated IO error (exercising the persist retry path).
//! * `seed` — reserved for future stochastic plans; today it only labels
//!   the plan.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use serde::json::Value;
use serde::Deserialize;

use crate::job::field;

/// Parsed fault plan; see the module docs for the document format.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChaosPlan {
    /// Label for the plan (reserved for stochastic extensions).
    pub(crate) seed: u64,
    /// 1-based run ordinals that panic in the worker.
    pub(crate) panic_on_run: Vec<u64>,
    /// `(run ordinal, milliseconds)` pairs: stall before executing.
    pub(crate) stall_ms_on_run: Vec<(u64, u64)>,
    /// 1-based registry append ordinals that fail.
    pub(crate) registry_error_on_write: Vec<u64>,
}

/// Plan field `name`; absent or `null` arms nothing.
fn optional<T: Deserialize + Default>(v: &Value, name: &str) -> Result<T, String> {
    let value = field::<Option<T>>(v, name).map_err(|e| format!("chaos plan: {e}"))?;
    Ok(value.flatten().unwrap_or_default())
}

impl ChaosPlan {
    /// Parse a plan from its JSON text. Unknown fields are rejected so a
    /// typoed fault name fails loudly instead of silently arming nothing.
    pub fn parse(text: &str) -> Result<ChaosPlan, String> {
        let v = serde_json::parse_value(text).map_err(|e| format!("chaos plan: {e}"))?;
        let Value::Obj(pairs) = &v else {
            return Err("chaos plan must be a JSON object".into());
        };
        for (k, _) in pairs {
            if !matches!(
                k.as_str(),
                "seed" | "panic_on_run" | "stall_ms_on_run" | "registry_error_on_write"
            ) {
                return Err(format!("chaos plan: unknown field `{k}`"));
            }
        }
        Ok(ChaosPlan {
            seed: optional(&v, "seed")?,
            panic_on_run: optional(&v, "panic_on_run")?,
            stall_ms_on_run: optional(&v, "stall_ms_on_run")?,
            registry_error_on_write: optional(&v, "registry_error_on_write")?,
        })
    }

    /// Load a plan from either inline JSON (argument starts with `{`) or
    /// a file path — the two forms `fem2-serve --chaos` accepts.
    pub fn load(arg: &str) -> Result<ChaosPlan, String> {
        if arg.trim_start().starts_with('{') {
            ChaosPlan::parse(arg)
        } else {
            let text =
                std::fs::read_to_string(arg).map_err(|e| format!("chaos plan {arg}: {e}"))?;
            ChaosPlan::parse(&text)
        }
    }

    /// Whether the plan arms any fault at all.
    pub fn is_armed(&self) -> bool {
        !self.panic_on_run.is_empty()
            || !self.stall_ms_on_run.is_empty()
            || !self.registry_error_on_write.is_empty()
    }
}

/// Runtime state of an armed plan: the dispatch counter plus the faults
/// not yet fired. Shared by every worker thread.
#[derive(Debug, Default)]
pub(crate) struct ChaosState {
    plan: Mutex<ChaosPlan>,
    dispatched: AtomicU64,
}

impl ChaosState {
    /// Arm `plan`.
    pub(crate) fn new(plan: ChaosPlan) -> ChaosState {
        ChaosState {
            plan: Mutex::new(plan),
            dispatched: AtomicU64::new(0),
        }
    }

    /// Count one job dispatch and return the faults armed for it:
    /// `(panic, stall_ms)`. Each fault fires at most once.
    pub(crate) fn on_dispatch(&self) -> (bool, Option<u64>) {
        let run = self.dispatched.fetch_add(1, Ordering::Relaxed) + 1;
        let mut plan = self.plan.lock().expect("chaos plan lock");
        let panic = match plan.panic_on_run.iter().position(|&r| r == run) {
            Some(i) => {
                plan.panic_on_run.swap_remove(i);
                true
            }
            None => false,
        };
        let stall = plan
            .stall_ms_on_run
            .iter()
            .position(|&(r, _)| r == run)
            .map(|i| plan.stall_ms_on_run.swap_remove(i).1);
        (panic, stall)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_parse_and_faults_fire_once_in_order() {
        let plan = ChaosPlan::parse(
            r#"{"seed":7,"panic_on_run":[2],"stall_ms_on_run":[[3,250]],
                "registry_error_on_write":[1]}"#,
        )
        .unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.registry_error_on_write, vec![1]);
        assert!(plan.is_armed());
        let state = ChaosState::new(plan);
        assert_eq!(state.on_dispatch(), (false, None), "run 1 clean");
        assert_eq!(state.on_dispatch(), (true, None), "run 2 panics");
        assert_eq!(state.on_dispatch(), (false, Some(250)), "run 3 stalls");
        assert_eq!(state.on_dispatch(), (false, None), "run 4 clean again");
    }

    #[test]
    fn unknown_fields_and_bad_shapes_are_rejected() {
        assert!(ChaosPlan::parse(r#"{"panic_on_runz":[1]}"#).is_err());
        assert!(ChaosPlan::parse(r#"{"panic_on_run":3}"#).is_err());
        assert!(ChaosPlan::parse(r#"{"stall_ms_on_run":[[1]]}"#).is_err());
        assert!(ChaosPlan::parse(r#"[1,2,3]"#).is_err());
        assert!(ChaosPlan::parse("not json").is_err());
    }

    #[test]
    fn empty_plan_is_unarmed_and_inline_load_round_trips() {
        let empty = ChaosPlan::parse("{}").unwrap();
        assert!(!empty.is_armed());
        let inline = ChaosPlan::load(r#"{"panic_on_run":[1]}"#).unwrap();
        assert!(inline.is_armed());
        assert!(ChaosPlan::load("/nonexistent/plan.json").is_err());
    }
}
