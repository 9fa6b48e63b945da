//! The scenario script: a static, analyzable description of what a scenario
//! will ask of the kernel and the machine.
//!
//! Scenarios in this repository are Rust code, so they cannot be analyzed
//! directly; instead each scenario *lowers* to a [`ScenarioScript`] — a flat
//! list of [`Op`]s in global program order, one textual line per op. Ops
//! name tasks, windows and allocations by [`NameId`] into the script's one
//! name table, so building and analyzing a script copies no string. The
//! text is the scenario description the analyzer's diagnostics span into
//! (line N of the rendered description is op N), so a finding always points
//! at a concrete, human-readable step.
//!
//! Per-task program order is the order of a task's ops within the global
//! list; ops of different tasks are concurrent unless a rendezvous orders
//! them.

use crate::diag::Span;
use fem2_machine::index::{fnv1a_64, OpenIndex};

/// A name in a script's name table: an index into it (see
/// [`ScenarioScript::intern`] and [`ScenarioScript::name`]). Task names,
/// window names and allocation labels share the one table, so two ops name
/// the same thing exactly when their ids are equal.
pub type NameId = u32;

/// One step of a scenario, as seen by the kernel/machine layers. Names are
/// [`NameId`]s into the owning [`ScenarioScript`]'s name table.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Op {
    /// Initiate `replications` replications of `task` on `cluster`.
    Initiate {
        /// Task name (unique per script).
        task: NameId,
        /// Hosting cluster.
        cluster: u32,
        /// Replication count K of the initiate message.
        replications: u32,
    },
    /// `task` pauses itself (parent notified).
    Pause {
        /// The pausing task.
        task: NameId,
    },
    /// Resume the paused `task`.
    Resume {
        /// The resumed task.
        task: NameId,
    },
    /// `task` terminates (parent notified, activation record reclaimed).
    Terminate {
        /// The terminating task.
        task: NameId,
    },
    /// `caller` issues a remote procedure call with correlation `call_id`.
    RemoteCall {
        /// The calling task.
        caller: NameId,
        /// Correlation id; must be returned exactly once.
        call_id: u64,
    },
    /// The remote procedure return matching `call_id`.
    RemoteReturn {
        /// Correlation id of the matching call.
        call_id: u64,
    },
    /// `task` opens window `window` over some array.
    WindowOpen {
        /// The opening task.
        task: NameId,
        /// Window name.
        window: NameId,
    },
    /// `from` sends `words` through `window` to `to` and blocks until the
    /// matching receive (rendezvous).
    WindowSend {
        /// Sending task.
        from: NameId,
        /// Receiving task.
        to: NameId,
        /// Window name.
        window: NameId,
        /// Payload size.
        words: u64,
    },
    /// `task` receives from `from` through `window`, blocking until the
    /// matching send (rendezvous).
    WindowRecv {
        /// Receiving task.
        task: NameId,
        /// Expected sender.
        from: NameId,
        /// Window name.
        window: NameId,
    },
    /// `task` closes `window`.
    WindowClose {
        /// The closing task.
        task: NameId,
        /// Window name.
        window: NameId,
    },
    /// Allocate `words` words of heap on `cluster` (live for the rest of
    /// the scenario: the analyzer's worst-case storage model).
    Alloc {
        /// Hosting cluster.
        cluster: u32,
        /// Demand in words.
        words: u64,
        /// What the storage is for (named in diagnostics).
        what: NameId,
    },
}

/// A lowered scenario: ops over one name table, plus the description text
/// diagnostics span into. Names are text only where text is produced:
/// `describe`, `source` and the
/// diagnostics that quote them.
#[derive(Clone, Debug)]
pub struct ScenarioScript {
    /// Scenario name (shown in diagnostics as the "file" of a span).
    pub name: String,
    /// Every name's text back to back: name `i` ends at byte `ends[i]`.
    text: String,
    ends: Vec<u32>,
    /// Name -> id, from the FNV-1a of the text.
    index: OpenIndex,
    ops: Vec<Op>,
}

impl ScenarioScript {
    /// An empty script named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        ScenarioScript {
            name: name.into(),
            text: String::new(),
            ends: Vec::new(),
            index: OpenIndex::default(),
            ops: Vec::new(),
        }
    }

    /// The id of `name`, added to the name table on first sight.
    pub fn intern(&mut self, name: &str) -> NameId {
        let (text, ends) = (&self.text, &self.ends);
        let id = self
            .index
            .entry(
                fnv1a_64(name.as_bytes()),
                |id| name_in(text, ends, id) == name,
                |id| fnv1a_64(name_in(text, ends, id).as_bytes()),
            )
            .unwrap_or_else(|id| {
                self.text.push_str(name);
                let end = u32::try_from(self.text.len()).expect("name table exceeds 4 GiB");
                self.ends.push(end);
                id
            });
        id as NameId
    }

    /// The text of name `id`.
    ///
    /// # Panics
    /// Panics if `id` did not come from this script's [`intern`](Self::intern).
    pub fn name(&self, id: NameId) -> &str {
        name_in(&self.text, &self.ends, id as usize)
    }

    /// Size of the name table: every [`NameId`] in the script is below it,
    /// so passes keep per-name state in vectors of this length.
    pub(crate) fn name_count(&self) -> usize {
        self.ends.len()
    }

    /// Append an op whose names come from this script's
    /// [`intern`](Self::intern); returns the span of its description line.
    pub fn push(&mut self, op: Op) -> Span {
        self.ops.push(op);
        Span::line(self.ops.len() as u32)
    }

    /// The ops with their spans, in global program order.
    pub fn ops(&self) -> impl Iterator<Item = (&Op, Span)> {
        self.ops
            .iter()
            .enumerate()
            .map(|(i, op)| (op, Span::line(i as u32 + 1)))
    }

    /// Number of ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the script has no ops.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The one-line scenario-description rendering of `op`.
    pub(crate) fn describe(&self, op: &Op) -> String {
        let n = |id: NameId| self.name(id);
        match *op {
            Op::Initiate {
                task,
                cluster,
                replications,
            } => format!("initiate {} x{replications} on cluster {cluster}", n(task)),
            Op::Pause { task } => format!("pause {}", n(task)),
            Op::Resume { task } => format!("resume {}", n(task)),
            Op::Terminate { task } => format!("terminate {}", n(task)),
            Op::RemoteCall { caller, call_id } => {
                format!("remote call #{call_id} by {}", n(caller))
            }
            Op::RemoteReturn { call_id } => format!("remote return #{call_id}"),
            Op::WindowOpen { task, window } => {
                format!("{} opens window {}", n(task), n(window))
            }
            Op::WindowSend {
                from,
                to,
                window,
                words,
            } => format!(
                "window {}: {} -> {} ({words} words)",
                n(window),
                n(from),
                n(to)
            ),
            Op::WindowRecv { task, from, window } => {
                format!("window {}: {} <- {}", n(window), n(task), n(from))
            }
            Op::WindowClose { task, window } => {
                format!("{} closes window {}", n(task), n(window))
            }
            Op::Alloc {
                cluster,
                words,
                what,
            } => format!("alloc {words} words on cluster {cluster} for {}", n(what)),
        }
    }

    /// The scenario description: one line per op, in order. Line `n`
    /// (1-based) describes op `n`, which is what diagnostic spans index.
    pub(crate) fn source(&self) -> String {
        let mut out = String::new();
        for op in &self.ops {
            out.push_str(&self.describe(op));
            out.push('\n');
        }
        out
    }
}

/// Name `id` of a table whose names sit back to back in `text`, name `i`
/// ending at byte `ends[i]`.
fn name_in<'a>(text: &'a str, ends: &[u32], id: usize) -> &'a str {
    let start = id.checked_sub(1).map_or(0, |prev| ends[prev] as usize);
    &text[start..ends[id] as usize]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_match_source_lines() {
        let mut s = ScenarioScript::new("t");
        let w0 = s.intern("w0");
        let a = s.push(Op::Initiate {
            task: w0,
            cluster: 0,
            replications: 1,
        });
        let b = s.push(Op::Terminate { task: w0 });
        assert_eq!(a, Span::line(1));
        assert_eq!(b, Span::line(2));
        let src = s.source();
        let lines: Vec<&str> = src.lines().collect();
        assert_eq!(lines[0], "initiate w0 x1 on cluster 0");
        assert_eq!(lines[1], "terminate w0");
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
    }

    /// Ids are dense in first-sight order and stable across the index
    /// growing under them, and each name is stored once.
    #[test]
    fn names_are_interned_once_in_first_sight_order() {
        let mut s = ScenarioScript::new("t");
        let names: Vec<String> = (0..1000).rev().map(|i| format!("n{i}")).collect();
        for (i, name) in names.iter().enumerate() {
            assert_eq!(s.intern(name), i as NameId);
        }
        s.intern("");
        for (i, name) in names.iter().enumerate() {
            assert_eq!(
                s.intern(name),
                i as NameId,
                "a second sight returns the first id"
            );
            assert_eq!(s.name(i as NameId), name);
        }
        assert_eq!(s.name(1000), "");
        assert_eq!(s.name_count(), 1001);
    }

    #[test]
    fn describe_covers_all_ops() {
        let mut s = ScenarioScript::new("t");
        let [a, b, halo, vectors] = ["a", "b", "halo", "vectors"].map(|n| s.intern(n));
        let ops = [
            (Op::Pause { task: a }, "pause a"),
            (Op::Resume { task: a }, "resume a"),
            (
                Op::RemoteCall {
                    caller: a,
                    call_id: 7,
                },
                "remote call #7 by a",
            ),
            (Op::RemoteReturn { call_id: 7 }, "remote return #7"),
            (
                Op::WindowOpen {
                    task: a,
                    window: halo,
                },
                "a opens window halo",
            ),
            (
                Op::WindowSend {
                    from: a,
                    to: b,
                    window: halo,
                    words: 8,
                },
                "window halo: a -> b (8 words)",
            ),
            (
                Op::WindowRecv {
                    task: b,
                    from: a,
                    window: halo,
                },
                "window halo: b <- a",
            ),
            (
                Op::WindowClose {
                    task: a,
                    window: halo,
                },
                "a closes window halo",
            ),
            (
                Op::Alloc {
                    cluster: 1,
                    words: 100,
                    what: vectors,
                },
                "alloc 100 words on cluster 1 for vectors",
            ),
        ];
        for (op, line) in ops {
            assert_eq!(s.describe(&op), line);
        }
    }
}
