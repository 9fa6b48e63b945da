//! The seven kernel message types.
//!
//! > "Messages from tasks: initiate K replications of a task of type T;
//! > pause and notify parent task; resume a child task; terminate and notify
//! > parent; remote procedure call; remote procedure return; load
//! > code/constants"
//!
//! Each message has a wire size in words (header plus payload), which is
//! what the network charges for it; the "large messages" requirement shows
//! up as the `args_words` / `result_words` payloads, which the navm layer
//! sizes from real argument data.

use crate::activation::TaskId;
use crate::codeblock::CodeId;
use fem2_machine::Words;

/// Discriminant of [`KernelMessage`], used for per-kind statistics.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum MessageKind {
    /// Initiate K replications of a task of type T.
    InitiateTask,
    /// Pause and notify parent task.
    PauseNotify,
    /// Resume a child task.
    Resume,
    /// Terminate and notify parent.
    TerminateNotify,
    /// Remote procedure call.
    RemoteCall,
    /// Remote procedure return.
    RemoteReturn,
    /// Load code/constants.
    LoadCode,
}

impl MessageKind {
    /// All seven kinds, in the paper's order.
    pub const ALL: [MessageKind; 7] = [
        MessageKind::InitiateTask,
        MessageKind::PauseNotify,
        MessageKind::Resume,
        MessageKind::TerminateNotify,
        MessageKind::RemoteCall,
        MessageKind::RemoteReturn,
        MessageKind::LoadCode,
    ];

    /// The trace-vocabulary equivalent of this message kind.
    pub(crate) fn trace_kind(self) -> fem2_trace::MsgKind {
        use fem2_trace::MsgKind as T;
        match self {
            MessageKind::InitiateTask => T::InitiateTask,
            MessageKind::PauseNotify => T::PauseNotify,
            MessageKind::Resume => T::Resume,
            MessageKind::TerminateNotify => T::TerminateNotify,
            MessageKind::RemoteCall => T::RemoteCall,
            MessageKind::RemoteReturn => T::RemoteReturn,
            MessageKind::LoadCode => T::LoadCode,
        }
    }

    /// Short name for reports.
    pub(crate) fn name(self) -> &'static str {
        match self {
            MessageKind::InitiateTask => "initiate",
            MessageKind::PauseNotify => "pause",
            MessageKind::Resume => "resume",
            MessageKind::TerminateNotify => "terminate",
            MessageKind::RemoteCall => "call",
            MessageKind::RemoteReturn => "return",
            MessageKind::LoadCode => "load",
        }
    }
}

/// A kernel message, one of the seven types of the system programmer's VM.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum KernelMessage {
    /// Initiate `replications` tasks of type `code`, children of `parent`.
    /// `args_words` of arguments are copied into each activation record.
    InitiateTask {
        /// Code block to execute.
        code: CodeId,
        /// Number of task replications (K).
        replications: u32,
        /// Parent task to notify on termination.
        parent: Option<TaskId>,
        /// Argument payload carried to each replication, in words.
        args_words: Words,
    },
    /// A task pauses itself; the parent is notified. Local data is retained
    /// over pause/resume.
    PauseNotify {
        /// The pausing task.
        task: TaskId,
    },
    /// Resume a paused child task.
    Resume {
        /// The task to resume.
        task: TaskId,
    },
    /// A task terminates; the parent is notified and the activation record
    /// is reclaimed.
    TerminateNotify {
        /// The terminating task.
        task: TaskId,
    },
    /// Call procedure `code` remotely (location determined by the location
    /// of the data visible in a window); reply goes back to `caller`.
    RemoteCall {
        /// Correlation id chosen by the caller.
        call_id: u64,
        /// Procedure code block.
        code: CodeId,
        /// Argument payload, in words.
        args_words: Words,
        /// The calling task.
        caller: TaskId,
        /// Cluster the reply should be delivered to.
        reply_cluster: u32,
    },
    /// Return from a remote procedure call.
    RemoteReturn {
        /// Correlation id of the matching call.
        call_id: u64,
        /// Result payload, in words.
        result_words: Words,
    },
    /// Load a code/constants block into the receiving cluster's memory.
    LoadCode {
        /// The block to load.
        code: CodeId,
    },
}

impl KernelMessage {
    /// Fixed header size of every kernel message, in words.
    pub(crate) const HEADER_WORDS: Words = 4;

    /// The message's kind.
    pub(crate) fn kind(&self) -> MessageKind {
        match self {
            KernelMessage::InitiateTask { .. } => MessageKind::InitiateTask,
            KernelMessage::PauseNotify { .. } => MessageKind::PauseNotify,
            KernelMessage::Resume { .. } => MessageKind::Resume,
            KernelMessage::TerminateNotify { .. } => MessageKind::TerminateNotify,
            KernelMessage::RemoteCall { .. } => MessageKind::RemoteCall,
            KernelMessage::RemoteReturn { .. } => MessageKind::RemoteReturn,
            KernelMessage::LoadCode { .. } => MessageKind::LoadCode,
        }
    }

    /// Wire size in words: header plus payload. This is what the network
    /// transfer is charged for.
    pub(crate) fn wire_words(&self, code_words: impl Fn(CodeId) -> Words) -> Words {
        let payload = match self {
            KernelMessage::InitiateTask { args_words, .. } => 3 + args_words,
            KernelMessage::PauseNotify { .. } => 1,
            KernelMessage::Resume { .. } => 1,
            KernelMessage::TerminateNotify { .. } => 1,
            KernelMessage::RemoteCall { args_words, .. } => 4 + args_words,
            KernelMessage::RemoteReturn { result_words, .. } => 2 + result_words,
            KernelMessage::LoadCode { code } => 1 + code_words(*code),
        };
        Self::HEADER_WORDS + payload
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_code(_: CodeId) -> Words {
        0
    }

    #[test]
    fn exactly_seven_kinds() {
        assert_eq!(MessageKind::ALL.len(), 7);
        let names: Vec<&str> = MessageKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(
            names,
            vec![
                "initiate",
                "pause",
                "resume",
                "terminate",
                "call",
                "return",
                "load"
            ]
        );
    }

    #[test]
    fn kind_discrimination() {
        let m = KernelMessage::InitiateTask {
            code: CodeId(0),
            replications: 4,
            parent: None,
            args_words: 10,
        };
        assert_eq!(m.kind(), MessageKind::InitiateTask);
        assert_eq!(
            KernelMessage::PauseNotify { task: TaskId(1) }.kind(),
            MessageKind::PauseNotify
        );
        assert_eq!(
            KernelMessage::Resume { task: TaskId(1) }.kind(),
            MessageKind::Resume
        );
        assert_eq!(
            KernelMessage::TerminateNotify { task: TaskId(1) }.kind(),
            MessageKind::TerminateNotify
        );
        assert_eq!(
            KernelMessage::RemoteCall {
                call_id: 1,
                code: CodeId(0),
                args_words: 0,
                caller: TaskId(0),
                reply_cluster: 0
            }
            .kind(),
            MessageKind::RemoteCall
        );
        assert_eq!(
            KernelMessage::RemoteReturn {
                call_id: 1,
                result_words: 0
            }
            .kind(),
            MessageKind::RemoteReturn
        );
        assert_eq!(
            KernelMessage::LoadCode { code: CodeId(0) }.kind(),
            MessageKind::LoadCode
        );
    }

    #[test]
    fn wire_size_scales_with_payload() {
        let small = KernelMessage::InitiateTask {
            code: CodeId(0),
            replications: 1,
            parent: None,
            args_words: 0,
        };
        let large = KernelMessage::InitiateTask {
            code: CodeId(0),
            replications: 1,
            parent: None,
            args_words: 1000,
        };
        assert_eq!(large.wire_words(no_code) - small.wire_words(no_code), 1000);
    }

    #[test]
    fn load_code_carries_block_body() {
        let m = KernelMessage::LoadCode { code: CodeId(7) };
        let w = m.wire_words(|c| {
            assert_eq!(c, CodeId(7));
            500
        });
        assert_eq!(w, KernelMessage::HEADER_WORDS + 1 + 500);
    }

    #[test]
    fn control_messages_are_small() {
        for m in [
            KernelMessage::PauseNotify { task: TaskId(0) },
            KernelMessage::Resume { task: TaskId(0) },
            KernelMessage::TerminateNotify { task: TaskId(0) },
        ] {
            assert_eq!(m.wire_words(no_code), KernelMessage::HEADER_WORDS + 1);
        }
    }
}
