//! The kernel message protocol as a finite automaton.
//!
//! The seven-message vocabulary ([`MessageKind`]) is not free-form: the
//! kernel loop in [`crate::kernel`] only accepts each message when the task
//! it concerns is in the right lifecycle state (pause only a running task,
//! resume only a paused one, terminate once, never address a task that was
//! never initiated). This module states those rules *statically*, as a
//! per-task automaton over [`ProtocolState`], so that analyzers can check a
//! scenario's message sequences without executing the simulation.
//!
//! The automaton deliberately abstracts [`crate::activation::TaskState`]:
//! `Ready` and `Running` collapse into [`ProtocolState::Active`] because the
//! distinction is a scheduling artifact (which PE holds the task right now),
//! not a protocol fact a sender can rely on.

use crate::message::MessageKind;
use std::fmt;

/// Per-task lifecycle state as observable through the message protocol.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum ProtocolState {
    /// No `InitiateTask` for this task has been sent yet.
    Uninitiated,
    /// Initiated and not paused or terminated (kernel `Ready` or `Running`).
    Active,
    /// Paused via `PauseNotify`; locals retained, parent notified.
    Paused,
    /// Terminated via `TerminateNotify`; the activation record is gone.
    Done,
}

impl ProtocolState {
    /// Short name for diagnostics.
    pub(crate) fn name(self) -> &'static str {
        match self {
            ProtocolState::Uninitiated => "uninitiated",
            ProtocolState::Active => "active",
            ProtocolState::Paused => "paused",
            ProtocolState::Done => "terminated",
        }
    }
}

impl fmt::Display for ProtocolState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A protocol violation: message `kind` is not acceptable for a task in
/// `state`. `expected` lists the states in which it would have been.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ProtocolViolation {
    /// The offending message kind.
    pub(crate) kind: MessageKind,
    /// The state the subject task was actually in.
    pub(crate) state: ProtocolState,
    /// States in which `kind` would have been legal.
    pub(crate) expected: Vec<ProtocolState>,
}

impl fmt::Display for ProtocolViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let expected: Vec<&str> = self.expected.iter().map(|s| s.name()).collect();
        write!(
            f,
            "message '{}' illegal for a task in state '{}' (requires {})",
            self.kind.name(),
            self.state,
            expected.join(" or ")
        )
    }
}

impl std::error::Error for ProtocolViolation {}

/// The seven-message protocol automaton.
///
/// A zero-sized rule table: [`step`](ProtocolAutomaton::step) is the
/// transition function for the task a message *concerns* (the initiated,
/// paused, resumed, or terminated task; the caller for RPC traffic), and
/// `accepts` / `successor`
/// expose the table for exhaustive checks.
#[derive(Clone, Copy, Default, Debug)]
pub struct ProtocolAutomaton;

impl ProtocolAutomaton {
    /// States in which a message of `kind` is acceptable for its subject
    /// task, mirroring the kernel loop's dispatch rules.
    pub(crate) fn accepting_states(kind: MessageKind) -> &'static [ProtocolState] {
        use ProtocolState::*;
        match kind {
            MessageKind::InitiateTask => &[Uninitiated],
            MessageKind::PauseNotify => &[Active],
            MessageKind::Resume => &[Paused],
            MessageKind::TerminateNotify => &[Active, Paused],
            // RPC traffic concerns a live caller; a paused or dead task
            // cannot issue a call nor receive a return.
            MessageKind::RemoteCall => &[Active],
            MessageKind::RemoteReturn => &[Active],
            // Code loading is cluster-level and task-agnostic.
            MessageKind::LoadCode => &[Uninitiated, Active, Paused, Done],
        }
    }

    /// Whether `kind` is acceptable when the subject task is in `state`.
    pub(crate) fn accepts(state: ProtocolState, kind: MessageKind) -> bool {
        Self::accepting_states(kind).contains(&state)
    }

    /// The state the subject task ends in after an accepted `kind`.
    pub(crate) fn successor(state: ProtocolState, kind: MessageKind) -> ProtocolState {
        match kind {
            MessageKind::InitiateTask => ProtocolState::Active,
            MessageKind::PauseNotify => ProtocolState::Paused,
            MessageKind::Resume => ProtocolState::Active,
            MessageKind::TerminateNotify => ProtocolState::Done,
            MessageKind::RemoteCall | MessageKind::RemoteReturn | MessageKind::LoadCode => state,
        }
    }

    /// The transition function: apply `kind` to a task in `state`,
    /// returning the new state or the violation.
    pub fn step(
        state: ProtocolState,
        kind: MessageKind,
    ) -> Result<ProtocolState, ProtocolViolation> {
        if Self::accepts(state, kind) {
            Ok(Self::successor(state, kind))
        } else {
            Err(ProtocolViolation {
                kind,
                state,
                expected: Self::accepting_states(kind).to_vec(),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ProtocolState::*;

    #[test]
    fn happy_lifecycle_initiate_pause_resume_terminate() {
        let s = ProtocolAutomaton::step(Uninitiated, MessageKind::InitiateTask).unwrap();
        assert_eq!(s, Active);
        let s = ProtocolAutomaton::step(s, MessageKind::PauseNotify).unwrap();
        assert_eq!(s, Paused);
        let s = ProtocolAutomaton::step(s, MessageKind::Resume).unwrap();
        assert_eq!(s, Active);
        let s = ProtocolAutomaton::step(s, MessageKind::TerminateNotify).unwrap();
        assert_eq!(s, Done);
    }

    #[test]
    fn terminate_from_paused_is_legal() {
        let s = ProtocolAutomaton::step(Uninitiated, MessageKind::InitiateTask).unwrap();
        let s = ProtocolAutomaton::step(s, MessageKind::PauseNotify).unwrap();
        assert_eq!(
            ProtocolAutomaton::step(s, MessageKind::TerminateNotify).unwrap(),
            Done
        );
    }

    #[test]
    fn double_initiate_rejected() {
        let s = ProtocolAutomaton::step(Uninitiated, MessageKind::InitiateTask).unwrap();
        let err = ProtocolAutomaton::step(s, MessageKind::InitiateTask).unwrap_err();
        assert_eq!(err.kind, MessageKind::InitiateTask);
        assert_eq!(err.state, Active);
        assert_eq!(err.expected, vec![Uninitiated]);
    }

    #[test]
    fn messages_to_uninitiated_task_rejected() {
        for kind in [
            MessageKind::PauseNotify,
            MessageKind::Resume,
            MessageKind::TerminateNotify,
            MessageKind::RemoteCall,
            MessageKind::RemoteReturn,
        ] {
            let err = ProtocolAutomaton::step(Uninitiated, kind).unwrap_err();
            assert!(!err.to_string().is_empty());
        }
    }

    #[test]
    fn no_traffic_after_terminate_except_load() {
        for kind in MessageKind::ALL {
            let ok = ProtocolAutomaton::accepts(Done, kind);
            assert_eq!(ok, kind == MessageKind::LoadCode, "{kind:?}");
        }
    }

    #[test]
    fn resume_requires_paused() {
        assert!(ProtocolAutomaton::step(Active, MessageKind::Resume).is_err());
        assert!(ProtocolAutomaton::step(Paused, MessageKind::Resume).is_ok());
    }

    #[test]
    fn rpc_requires_active_caller_and_preserves_state() {
        assert_eq!(
            ProtocolAutomaton::step(Active, MessageKind::RemoteCall).unwrap(),
            Active
        );
        assert!(ProtocolAutomaton::step(Paused, MessageKind::RemoteCall).is_err());
        assert_eq!(
            ProtocolAutomaton::step(Active, MessageKind::RemoteReturn).unwrap(),
            Active
        );
    }

    #[test]
    fn load_code_is_task_agnostic() {
        for s in [Uninitiated, Active, Paused, Done] {
            assert_eq!(
                ProtocolAutomaton::step(s, MessageKind::LoadCode).unwrap(),
                s
            );
        }
    }

    #[test]
    fn table_is_total_over_all_kinds() {
        for kind in MessageKind::ALL {
            assert!(!ProtocolAutomaton::accepting_states(kind).is_empty());
        }
    }
}
