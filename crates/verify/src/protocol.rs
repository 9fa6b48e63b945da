//! Pass 1: kernel-protocol conformance.
//!
//! Replays a scenario script's message sequence through the
//! [`ProtocolAutomaton`] exported by `fem2-kernel`, tracking one
//! [`ProtocolState`] per task: Initiate/Terminate pairing, pause/resume
//! legality, no traffic to (or from) tasks that were never initiated, and
//! the window open → exchange → close ordering. Remote call/return
//! correlation ids must pair exactly.

use crate::diag::{Report, Severity, Span};
use crate::script::{NameId, Op, ScenarioScript};
use fem2_kernel::{MessageKind, ProtocolAutomaton, ProtocolState};
use fem2_machine::MachineConfig;
use std::collections::BTreeMap;

const PASS: &str = "protocol";

/// Per-name state of the replay, in vectors indexed by [`NameId`].
struct Replay<'s> {
    script: &'s ScenarioScript,
    /// Automaton state per task; `None` for a task never stepped, which
    /// reads as [`ProtocolState::Uninitiated`].
    states: Vec<Option<ProtocolState>>,
    /// Open windows per task, each with the line it was opened on.
    windows: Vec<Vec<(NameId, Span)>>,
}

/// Run the protocol pass, appending findings to `report`.
pub(crate) fn check(script: &ScenarioScript, machine: &MachineConfig, report: &mut Report) {
    let mut r = Replay {
        script,
        states: vec![None; script.name_count()],
        windows: vec![Vec::new(); script.name_count()],
    };
    // call_id -> (caller, line) of the open remote call.
    let mut calls: BTreeMap<u64, (NameId, Span)> = BTreeMap::new();
    let name = |id: NameId| script.name(id);

    for (op, span) in script.ops() {
        match *op {
            Op::Initiate {
                task,
                cluster,
                replications,
            } => {
                if cluster >= machine.clusters {
                    report.push(
                        Severity::Error,
                        PASS,
                        Some(span),
                        format!(
                            "task '{}' initiated on cluster {cluster}, but the machine \
                             has only clusters 0..{}",
                            name(task),
                            machine.clusters
                        ),
                    );
                }
                if replications == 0 {
                    report.push(
                        Severity::Warning,
                        PASS,
                        Some(span),
                        format!("task '{}' initiated with zero replications", name(task)),
                    );
                }
                r.step(task, MessageKind::InitiateTask, span, report);
            }
            Op::Pause { task } => r.step(task, MessageKind::PauseNotify, span, report),
            Op::Resume { task } => r.step(task, MessageKind::Resume, span, report),
            Op::Terminate { task } => r.step(task, MessageKind::TerminateNotify, span, report),
            Op::RemoteCall { caller, call_id } => {
                r.step(caller, MessageKind::RemoteCall, span, report);
                if let Some((prev_caller, prev)) = calls.insert(call_id, (caller, span)) {
                    report.push(
                        Severity::Error,
                        PASS,
                        Some(span),
                        format!(
                            "remote call #{call_id} by '{}' reuses a correlation id \
                             still open from '{}' (line {})",
                            name(caller),
                            name(prev_caller),
                            prev.line
                        ),
                    );
                }
            }
            Op::RemoteReturn { call_id } => match calls.remove(&call_id) {
                Some((caller, _)) => {
                    r.step(caller, MessageKind::RemoteReturn, span, report);
                }
                None => report.push(
                    Severity::Error,
                    PASS,
                    Some(span),
                    format!("remote return #{call_id} has no matching open remote call"),
                ),
            },
            Op::WindowOpen { task, window } => {
                r.require_active(task, "open a window", span, report);
                let open = &mut r.windows[task as usize];
                match open.iter_mut().find(|(w, _)| *w == window) {
                    // The later open's line is the one a leak warning cites.
                    Some(opened) => {
                        opened.1 = span;
                        report.push(
                            Severity::Error,
                            PASS,
                            Some(span),
                            format!(
                                "task '{}' opens window '{}' twice",
                                name(task),
                                name(window)
                            ),
                        );
                    }
                    None => open.push((window, span)),
                }
            }
            Op::WindowSend {
                from, to, window, ..
            } => {
                r.require_active(from, "exchange through a window", span, report);
                r.require_open(from, window, span, report);
                r.require_open(to, window, span, report);
            }
            Op::WindowRecv { task, from, window } => {
                r.require_active(task, "exchange through a window", span, report);
                r.require_open(task, window, span, report);
                r.require_open(from, window, span, report);
            }
            Op::WindowClose { task, window } => {
                let open = &mut r.windows[task as usize];
                match open.iter().position(|&(w, _)| w == window) {
                    Some(at) => {
                        open.swap_remove(at);
                    }
                    None => report.push(
                        Severity::Error,
                        PASS,
                        Some(span),
                        format!(
                            "task '{}' closes window '{}' it never opened",
                            name(task),
                            name(window)
                        ),
                    ),
                }
            }
            Op::Alloc { .. } => {}
        }
    }

    // End-of-scenario hygiene, in name order.
    let mut open: Vec<(NameId, NameId, Span)> = (0..)
        .zip(&r.windows)
        .flat_map(|(task, open)| open.iter().map(move |&(window, span)| (task, window, span)))
        .collect();
    open.sort_unstable_by_key(|&(task, window, _)| (name(task), name(window)));
    for (task, window, span) in open {
        report.push(
            Severity::Warning,
            PASS,
            Some(span),
            format!(
                "task '{}' leaves window '{}' open at scenario end",
                name(task),
                name(window)
            ),
        );
    }
    for (call_id, (caller, span)) in &calls {
        report.push(
            Severity::Warning,
            PASS,
            Some(*span),
            format!(
                "remote call #{call_id} by '{}' is never returned",
                name(*caller)
            ),
        );
    }
    let mut live: Vec<(NameId, ProtocolState)> = (0..)
        .zip(&r.states)
        .filter_map(|(task, st)| match st {
            Some(st @ (ProtocolState::Active | ProtocolState::Paused)) => Some((task, *st)),
            _ => None,
        })
        .collect();
    live.sort_unstable_by_key(|&(task, _)| name(task));
    for (task, st) in live {
        report.push(
            Severity::Warning,
            PASS,
            None,
            format!(
                "task '{}' is never terminated (ends the scenario {st})",
                name(task)
            ),
        );
    }
}

impl Replay<'_> {
    fn state(&self, task: NameId) -> ProtocolState {
        self.states[task as usize].unwrap_or(ProtocolState::Uninitiated)
    }

    /// Apply `kind` to the automaton state of `task`, reporting a violation
    /// as an error that names the task.
    fn step(&mut self, task: NameId, kind: MessageKind, span: Span, report: &mut Report) {
        match ProtocolAutomaton::step(self.state(task), kind) {
            Ok(next) => self.states[task as usize] = Some(next),
            Err(v) => report.push(
                Severity::Error,
                PASS,
                Some(span),
                format!("task '{}': {v}", self.script.name(task)),
            ),
        }
    }

    fn require_active(&self, task: NameId, what: &str, span: Span, report: &mut Report) {
        let st = self.state(task);
        if st != ProtocolState::Active {
            report.push(
                Severity::Error,
                PASS,
                Some(span),
                format!("task '{}' cannot {what} while {st}", self.script.name(task)),
            );
        }
    }

    fn require_open(&self, task: NameId, window: NameId, span: Span, report: &mut Report) {
        if !self.windows[task as usize]
            .iter()
            .any(|&(w, _)| w == window)
        {
            report.push(
                Severity::Error,
                PASS,
                Some(span),
                format!(
                    "task '{}' exchanges through window '{}' without opening it",
                    self.script.name(task),
                    self.script.name(window)
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(script: &ScenarioScript) -> Report {
        let mut r = Report::new(script.name.clone(), script.source());
        check(script, &MachineConfig::fem2_default(), &mut r);
        r
    }

    fn msgs(r: &Report) -> Vec<&str> {
        r.diagnostics.iter().map(|d| d.message.as_str()).collect()
    }

    fn initiate(s: &mut ScenarioScript, task: NameId, cluster: u32) {
        s.push(Op::Initiate {
            task,
            cluster,
            replications: 1,
        });
    }

    #[test]
    fn clean_lifecycle_with_window() {
        let mut s = ScenarioScript::new("ok");
        let [a, b, w] = ["a", "b", "w"].map(|n| s.intern(n));
        for t in [a, b] {
            initiate(&mut s, t, 0);
        }
        for t in [a, b] {
            s.push(Op::WindowOpen { task: t, window: w });
        }
        s.push(Op::WindowSend {
            from: a,
            to: b,
            window: w,
            words: 4,
        });
        s.push(Op::WindowRecv {
            task: b,
            from: a,
            window: w,
        });
        for t in [a, b] {
            s.push(Op::WindowClose { task: t, window: w });
            s.push(Op::Terminate { task: t });
        }
        let r = run(&s);
        assert!(r.is_clean(), "{}", r.render());
    }

    #[test]
    fn send_to_never_initiated_task_is_an_error() {
        let mut s = ScenarioScript::new("ghost");
        let [a, ghost] = ["a", "ghost"].map(|n| s.intern(n));
        initiate(&mut s, a, 0);
        s.push(Op::Resume { task: ghost });
        s.push(Op::Terminate { task: a });
        let r = run(&s);
        assert_eq!(r.error_count(), 1);
        assert!(msgs(&r)[0].contains("ghost"), "{}", r.render());
        assert!(msgs(&r)[0].contains("uninitiated"));
    }

    #[test]
    fn double_initiate_and_double_terminate_rejected() {
        let mut s = ScenarioScript::new("dup");
        let a = s.intern("a");
        for _ in 0..2 {
            initiate(&mut s, a, 0);
        }
        for _ in 0..2 {
            s.push(Op::Terminate { task: a });
        }
        let r = run(&s);
        assert_eq!(r.error_count(), 2, "{}", r.render());
    }

    #[test]
    fn pause_resume_ordering_enforced() {
        let mut s = ScenarioScript::new("pr");
        let a = s.intern("a");
        initiate(&mut s, a, 0);
        s.push(Op::Resume { task: a }); // not paused: error
        s.push(Op::Pause { task: a });
        s.push(Op::Resume { task: a }); // fine
        s.push(Op::Terminate { task: a });
        let r = run(&s);
        assert_eq!(r.error_count(), 1);
        assert_eq!(r.diagnostics[0].span, Some(Span::line(2)));
    }

    #[test]
    fn window_ordering_enforced() {
        let mut s = ScenarioScript::new("w");
        let [a, w] = ["a", "w"].map(|n| s.intern(n));
        initiate(&mut s, a, 0);
        s.push(Op::WindowSend {
            from: a,
            to: a,
            window: w,
            words: 1,
        }); // never opened (2 findings: from + to are the same closed window)
        s.push(Op::WindowClose { task: a, window: w }); // never opened
        s.push(Op::Terminate { task: a });
        let r = run(&s);
        assert!(r.error_count() >= 2, "{}", r.render());
    }

    #[test]
    fn unterminated_task_and_open_window_warn() {
        let mut s = ScenarioScript::new("leak");
        let [a, w] = ["a", "w"].map(|n| s.intern(n));
        initiate(&mut s, a, 0);
        s.push(Op::WindowOpen { task: a, window: w });
        let r = run(&s);
        assert_eq!(r.error_count(), 0);
        assert_eq!(r.warning_count(), 2, "{}", r.render());
    }

    /// End-of-scenario warnings come in name order, whatever order the
    /// names were interned or the windows opened in, and a window opened
    /// twice is reported at its later open.
    #[test]
    fn end_of_scenario_warnings_are_in_name_order() {
        let mut s = ScenarioScript::new("order");
        let [zed, amy, w2, w1] = ["zed", "amy", "w2", "w1"].map(|n| s.intern(n));
        for t in [zed, amy] {
            initiate(&mut s, t, 0);
            for w in [w2, w1] {
                s.push(Op::WindowOpen { task: t, window: w });
            }
        }
        let reopen = s.push(Op::WindowOpen {
            task: amy,
            window: w2,
        });
        s.push(Op::WindowClose {
            task: zed,
            window: w2,
        });
        let r = run(&s);
        assert_eq!(
            msgs(&r),
            [
                "task 'amy' opens window 'w2' twice",
                "task 'amy' leaves window 'w1' open at scenario end",
                "task 'amy' leaves window 'w2' open at scenario end",
                "task 'zed' leaves window 'w1' open at scenario end",
                "task 'amy' is never terminated (ends the scenario active)",
                "task 'zed' is never terminated (ends the scenario active)",
            ]
        );
        assert_eq!(r.diagnostics[2].span, Some(reopen));
    }

    #[test]
    fn remote_call_return_pairing() {
        let mut s = ScenarioScript::new("rpc");
        let a = s.intern("a");
        initiate(&mut s, a, 0);
        s.push(Op::RemoteCall {
            caller: a,
            call_id: 1,
        });
        s.push(Op::RemoteReturn { call_id: 1 });
        s.push(Op::RemoteReturn { call_id: 9 }); // no matching call
        s.push(Op::RemoteCall {
            caller: a,
            call_id: 2,
        }); // never returned
        s.push(Op::Terminate { task: a });
        let r = run(&s);
        assert_eq!(r.error_count(), 1, "{}", r.render());
        assert_eq!(r.warning_count(), 1);
    }

    #[test]
    fn initiate_on_missing_cluster_rejected() {
        let mut s = ScenarioScript::new("cluster");
        let a = s.intern("a");
        initiate(&mut s, a, 99);
        s.push(Op::Terminate { task: a });
        let r = run(&s);
        assert_eq!(r.error_count(), 1);
        assert!(msgs(&r)[0].contains("cluster 99"));
    }
}
