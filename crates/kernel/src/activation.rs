//! Task and procedure activation records.
//!
//! An [`ActivationRecord`] is the run-time representation of one task: its
//! code, its cluster, whom it answers to, its local storage, and its state. The
//! state machine follows the paper's task control vocabulary: initiate,
//! pause, resume, terminate — with "local data of a task retained over
//! pause/resume" (locals are freed only at termination).

use crate::codeblock::CodeId;
use fem2_machine::{Cycles, Words};
use std::fmt;

/// Identifier of a task activation, unique within one kernel run.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub u64);

impl fmt::Debug for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "task{}", self.0)
    }
}

/// Whom a task answers to when it pauses or terminates: a parent receives
/// a notification, a remote caller a `RemoteReturn`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ReplyTo {
    /// Nobody is told.
    Nobody,
    /// The parent task, notified of a pause or a termination.
    Parent(TaskId),
    /// The remote call this task serves: its reply goes to `cluster`
    /// tagged `call_id` when the task completes.
    Caller {
        /// Correlation id of the call.
        call_id: u64,
        /// Cluster the reply is delivered to.
        cluster: u32,
    },
}

/// Task lifecycle states.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TaskState {
    /// Created, waiting in the ready queue for a PE.
    Ready,
    /// Executing on a PE.
    Running,
    /// Paused (parent notified); locals retained.
    Paused,
    /// Terminated (parent notified); locals reclaimed.
    Done,
}

impl TaskState {
    /// Whether `self -> next` is a legal lifecycle transition.
    pub(crate) fn can_transition_to(self, next: TaskState) -> bool {
        use TaskState::*;
        matches!(
            (self, next),
            (Ready, Running)
                | (Running, Paused)
                | (Running, Done)
                | (Paused, Ready)
                // A failed PE sends its running task back to the queue.
                | (Running, Ready)
                // Forced termination (a TerminateNotify aimed at a task that
                // has not yet run to completion).
                | (Ready, Done)
                | (Paused, Done)
        )
    }
}

/// The run-time representation of one task.
#[derive(Clone, Debug)]
pub struct ActivationRecord {
    /// This task's id.
    pub(crate) id: TaskId,
    /// The code block it executes.
    pub(crate) code: CodeId,
    /// Cluster whose ready queue owns it.
    pub cluster: u32,
    /// Whom the task notifies or replies to.
    pub reply_to: ReplyTo,
    /// Current lifecycle state.
    pub state: TaskState,
    /// Local storage (activation record body), in words.
    pub(crate) locals_words: Words,
    /// Time the task was created.
    pub created_at: Cycles,
    /// Assignment epoch: bumped each time the task is (re)assigned to a PE,
    /// so completion events from a pre-fault assignment can be recognized
    /// as stale.
    pub(crate) epoch: u32,
    /// Whether the task's locals allocation is live in cluster memory.
    /// Cleared when a memory-bank fault invalidates the allocation; the
    /// dispatcher re-allocates before the task runs again.
    pub(crate) locals_held: bool,
}

impl ActivationRecord {
    /// A fresh record in the `Ready` state.
    pub(crate) fn new(
        id: TaskId,
        code: CodeId,
        cluster: u32,
        reply_to: ReplyTo,
        locals_words: Words,
        created_at: Cycles,
    ) -> Self {
        ActivationRecord {
            id,
            code,
            cluster,
            reply_to,
            state: TaskState::Ready,
            locals_words,
            created_at,
            epoch: 0,
            locals_held: true,
        }
    }

    /// Transition to `next`, panicking on an illegal transition (kernel
    /// logic errors, not user errors).
    pub(crate) fn transition(&mut self, next: TaskState) {
        assert!(
            self.state.can_transition_to(next),
            "illegal task transition {:?} -> {:?} for {:?}",
            self.state,
            next,
            self.id
        );
        self.state = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> ActivationRecord {
        ActivationRecord::new(TaskId(1), CodeId(0), 0, ReplyTo::Nobody, 16, 100)
    }

    #[test]
    fn fresh_record_is_ready() {
        let r = record();
        assert_eq!(r.state, TaskState::Ready);
        assert_eq!(r.created_at, 100);
        assert_eq!(r.epoch, 0);
    }

    #[test]
    fn legal_lifecycle() {
        let mut r = record();
        r.transition(TaskState::Running);
        r.transition(TaskState::Paused);
        r.transition(TaskState::Ready);
        r.transition(TaskState::Running);
        r.transition(TaskState::Done);
        assert_eq!(r.state, TaskState::Done);
    }

    #[test]
    fn fault_requeue_is_legal() {
        let mut r = record();
        r.transition(TaskState::Running);
        r.transition(TaskState::Ready); // PE failed under it
        assert_eq!(r.state, TaskState::Ready);
    }

    #[test]
    #[should_panic(expected = "illegal task transition")]
    fn done_is_terminal() {
        let mut r = record();
        r.transition(TaskState::Running);
        r.transition(TaskState::Done);
        r.transition(TaskState::Ready);
    }

    #[test]
    #[should_panic(expected = "illegal task transition")]
    fn paused_to_running_is_illegal() {
        let mut r = record();
        r.transition(TaskState::Running);
        r.transition(TaskState::Paused);
        r.transition(TaskState::Running); // must go through Ready
    }

    #[test]
    fn task_id_debug() {
        assert_eq!(format!("{:?}", TaskId(9)), "task9");
    }

    #[test]
    fn transition_matrix() {
        use TaskState::*;
        let all = [Ready, Running, Paused, Done];
        let legal = [
            (Ready, Running),
            (Running, Paused),
            (Running, Done),
            (Running, Ready),
            (Paused, Ready),
            (Ready, Done),
            (Paused, Done),
        ];
        for &a in &all {
            for &b in &all {
                assert_eq!(
                    a.can_transition_to(b),
                    legal.contains(&(a, b)),
                    "{a:?} -> {b:?}"
                );
            }
        }
    }
}
