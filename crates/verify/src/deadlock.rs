//! Pass 2: static window-exchange deadlock detection.
//!
//! Window exchanges are rendezvous: a [`Op::WindowSend`] blocks its sender
//! until the matching [`Op::WindowRecv`] runs, and vice versa. The pass
//! first matches sends with receives — the k-th send from A to B through
//! window W pairs with the k-th receive by B from A through W; leftovers
//! are *unmatched pairs*, reported as errors because the blocked task can
//! never proceed.
//!
//! Each matched pair is one rendezvous *event*. Both halves complete
//! simultaneously, so event `e` must wait for every event that precedes
//! either half in its task's program order: the pass draws an edge
//! `e1 -> e2` whenever some task participates in both with `e1` first. A
//! cycle in this event graph is a set of rendezvous all waiting on each
//! other — a guaranteed deadlock — and the diagnostic spells out the
//! shortest such cycle as a wait chain naming the tasks involved.
//!
//! The pass builds no string per op: the script's names are already
//! interned, so program order and participation live in vectors indexed
//! by [`NameId`], and names are looked up only for the diagnostics. A
//! linear Kahn pass decides whether the event graph is acyclic; the
//! shortest-cycle search, O(events × edges), runs only on a graph that has
//! a cycle — a script the pass rejects.

use crate::diag::{Report, Severity, Span};
use crate::script::{NameId, Op, ScenarioScript};
use std::collections::{BTreeMap, VecDeque};

const PASS: &str = "deadlock";

/// One half of a rendezvous, as collected from the script.
#[derive(Clone, Copy, Debug)]
struct Half {
    /// Position in the participant's program order (index into its op list).
    seq: usize,
    span: Span,
}

/// `(from, to, window)` a rendezvous's two halves match under.
type Channel = (NameId, NameId, NameId);

/// A channel's unmatched halves, oldest first: all sends or all receives,
/// since a send and a receive on one channel match as soon as both exist.
struct Pending {
    sends: bool,
    halves: VecDeque<Half>,
}

/// A matched rendezvous event: its channel and the line of its send.
#[derive(Clone, Copy, Debug)]
struct Event {
    channel: Channel,
    send: Span,
}

/// Per task, indexed by [`NameId`]: the ops seen so far (the next op's
/// position in its program order) and its `(seq, event)` participations.
struct Tasks {
    next_seq: Vec<usize>,
    participation: Vec<Vec<(usize, usize)>>,
}

impl Tasks {
    /// Advance `task`'s program order: the position of this op.
    fn bump(&mut self, task: NameId) -> usize {
        let seq = &mut self.next_seq[task as usize];
        *seq += 1;
        *seq - 1
    }
}

/// Run the deadlock pass, appending findings to `report`.
pub fn check(script: &ScenarioScript, report: &mut Report) {
    let name = |id: NameId| script.name(id);
    let mut tasks = Tasks {
        next_seq: vec![0; script.name_count()],
        participation: vec![Vec::new(); script.name_count()],
    };
    let mut pending: BTreeMap<Channel, Pending> = BTreeMap::new();
    let mut events: Vec<Event> = Vec::new();
    let mut meet = |channel: Channel, half: Half, sends: bool, tasks: &mut Tasks| {
        let fifo = pending.entry(channel).or_insert(Pending {
            sends,
            halves: VecDeque::new(),
        });
        if fifo.sends != sends {
            if let Some(other) = fifo.halves.pop_front() {
                let (send, recv) = if sends { (half, other) } else { (other, half) };
                push_event(&mut events, tasks, channel, send, recv);
                return;
            }
            fifo.sends = sends;
        }
        fifo.halves.push_back(half);
    };

    for (op, span) in script.ops() {
        match *op {
            Op::WindowSend {
                from, to, window, ..
            } => {
                let seq = tasks.bump(from);
                if from == to {
                    report.push(
                        Severity::Error,
                        PASS,
                        Some(span),
                        format!(
                            "task '{}' exchanges with itself through window '{}': \
                             the rendezvous can never complete",
                            name(from),
                            name(window)
                        ),
                    );
                    continue;
                }
                meet((from, to, window), Half { seq, span }, true, &mut tasks);
            }
            Op::WindowRecv { task, from, window } => {
                let seq = tasks.bump(task);
                if task == from {
                    report.push(
                        Severity::Error,
                        PASS,
                        Some(span),
                        format!(
                            "task '{}' receives from itself through window '{}': \
                             the rendezvous can never complete",
                            name(task),
                            name(window)
                        ),
                    );
                    continue;
                }
                meet((from, task, window), Half { seq, span }, false, &mut tasks);
            }
            // Every other op advances its task's program order so that
            // rendezvous positions stay comparable.
            Op::Pause { task }
            | Op::Resume { task }
            | Op::Terminate { task }
            | Op::WindowOpen { task, .. }
            | Op::WindowClose { task, .. }
            | Op::Initiate { task, .. }
            | Op::Message { from: task, .. }
            | Op::RemoteCall { caller: task, .. } => {
                tasks.bump(task);
            }
            Op::RemoteReturn { .. } | Op::Alloc { .. } => {}
        }
    }

    // Wait-for edges between events sharing a participant.
    for parts in &mut tasks.participation {
        parts.sort_unstable();
    }
    let ids = 0..script.name_count() as NameId;
    let acyclic = is_acyclic(&wait_for(&tasks, ids.clone(), events.len()));

    // Unmatched halves: the blocked task can never proceed. Sends first,
    // then receives, each in (from, to, window) name order.
    let names = |(f, t, w): Channel| (name(f), name(t), name(w));
    for sent in [true, false] {
        let mut unmatched: Vec<_> = pending
            .iter()
            .filter(|(_, fifo)| fifo.sends == sent && !fifo.halves.is_empty())
            .map(|(&channel, fifo)| (names(channel), &fifo.halves))
            .collect();
        unmatched.sort_unstable_by_key(|&(names, _)| names);
        for ((from, to, window), halves) in unmatched {
            for h in halves {
                let message = if sent {
                    format!(
                        "unmatched window send: '{from}' -> '{to}' through '{window}' has no \
                         matching receive; '{from}' blocks forever"
                    )
                } else {
                    format!(
                        "unmatched window receive: '{to}' <- '{from}' through '{window}' has \
                         no matching send; '{to}' blocks forever"
                    )
                };
                report.push(Severity::Error, PASS, Some(h.span), message);
            }
        }
    }

    // Which shortest cycle the search finds depends on edge order: it
    // takes the tasks' edges in name order.
    let cycle = if acyclic {
        None
    } else {
        let mut by_name: Vec<NameId> = ids.collect();
        by_name.sort_unstable_by_key(|&t| name(t));
        shortest_cycle(&wait_for(&tasks, by_name, events.len()))
    };
    if let Some(cycle) = cycle {
        let first = &events[cycle[0]];
        let mut chain = String::new();
        for (i, &e) in cycle.iter().enumerate() {
            let ev = &events[e];
            let (from, to, window) = names(ev.channel);
            if i > 0 {
                chain.push_str(", then ");
            }
            chain.push_str(&format!(
                "'{from}' -> '{to}' through '{window}' (line {})",
                ev.send.line
            ));
        }
        let involved: Vec<&str> = {
            let mut t: Vec<&str> = cycle
                .iter()
                .flat_map(|&e| {
                    let (from, to, _) = events[e].channel;
                    [name(from), name(to)]
                })
                .collect();
            t.sort_unstable();
            t.dedup();
            t
        };
        report.push(
            Severity::Error,
            PASS,
            Some(first.send),
            format!(
                "window-exchange deadlock among tasks {}: each rendezvous waits on the \
                 next: {chain}, which waits on the first",
                involved
                    .iter()
                    .map(|t| format!("'{t}'"))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        );
    }
}

fn push_event(
    events: &mut Vec<Event>,
    tasks: &mut Tasks,
    channel: Channel,
    send: Half,
    recv: Half,
) {
    let idx = events.len();
    let (from, to, _) = channel;
    tasks.participation[from as usize].push((send.seq, idx));
    tasks.participation[to as usize].push((recv.seq, idx));
    events.push(Event {
        channel,
        send: send.span,
    });
}

/// The wait-for graph over `events` rendezvous: an edge from each of a
/// task's events to its next, the tasks taken in `order`.
fn wait_for(
    tasks: &Tasks,
    order: impl IntoIterator<Item = NameId>,
    events: usize,
) -> Vec<Vec<usize>> {
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); events];
    for t in order {
        for w in tasks.participation[t as usize].windows(2) {
            adj[w[0].1].push(w[1].1);
        }
    }
    adj
}

/// Whether `adj` has no directed cycle: Kahn's algorithm, O(nodes + edges).
fn is_acyclic(adj: &[Vec<usize>]) -> bool {
    let mut indegree = vec![0usize; adj.len()];
    for &v in adj.iter().flatten() {
        indegree[v] += 1;
    }
    let mut ready: Vec<usize> = (0..adj.len()).filter(|&v| indegree[v] == 0).collect();
    let mut removed = 0;
    while let Some(u) = ready.pop() {
        removed += 1;
        for &v in &adj[u] {
            indegree[v] -= 1;
            if indegree[v] == 0 {
                ready.push(v);
            }
        }
    }
    removed == adj.len()
}

/// Shortest directed cycle in `adj`, as the list of nodes in order, or
/// `None` for an acyclic graph. BFS from each node: O(nodes × edges), so
/// [`check`] calls it only once [`is_acyclic`] has found a cycle.
fn shortest_cycle(adj: &[Vec<usize>]) -> Option<Vec<usize>> {
    let n = adj.len();
    let mut best: Option<Vec<usize>> = None;
    for start in 0..n {
        // BFS over successors looking for a path back to `start`.
        let mut prev: Vec<Option<usize>> = vec![None; n];
        let mut seen = vec![false; n];
        let mut queue = VecDeque::new();
        seen[start] = true;
        queue.push_back(start);
        'bfs: while let Some(u) = queue.pop_front() {
            for &v in &adj[u] {
                if v == start {
                    // Reconstruct start -> ... -> u, cycle closes u -> start.
                    let mut path = vec![u];
                    let mut cur = u;
                    while let Some(p) = prev[cur] {
                        path.push(p);
                        cur = p;
                    }
                    if cur != start {
                        path.push(start);
                    }
                    path.reverse();
                    if best.as_ref().is_none_or(|b| path.len() < b.len()) {
                        best = Some(path);
                    }
                    break 'bfs;
                }
                if !seen[v] {
                    seen[v] = true;
                    prev[v] = Some(u);
                    queue.push_back(v);
                }
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn run(script: &ScenarioScript) -> Report {
        let mut r = Report::new(script.name.clone(), script.source());
        check(script, &mut r);
        r
    }

    fn send(s: &mut ScenarioScript, from: &str, to: &str) {
        let [from, to, window] = [from, to, "w"].map(|n| s.intern(n));
        s.push(Op::WindowSend {
            from,
            to,
            window,
            words: 1,
        });
    }

    fn recv(s: &mut ScenarioScript, task: &str, from: &str) {
        let [task, from, window] = [task, from, "w"].map(|n| s.intern(n));
        s.push(Op::WindowRecv { task, from, window });
    }

    #[test]
    fn matched_exchange_is_clean() {
        let mut s = ScenarioScript::new("ok");
        send(&mut s, "a", "b");
        recv(&mut s, "b", "a");
        send(&mut s, "b", "a");
        recv(&mut s, "a", "b");
        let r = run(&s);
        assert!(r.is_clean(), "{}", r.render());
    }

    #[test]
    fn two_task_head_to_head_send_deadlocks() {
        // Both send first, then receive: the classic exchange deadlock.
        let mut s = ScenarioScript::new("dl");
        send(&mut s, "a", "b");
        send(&mut s, "b", "a");
        recv(&mut s, "b", "a");
        recv(&mut s, "a", "b");
        let r = run(&s);
        assert_eq!(r.error_count(), 1, "{}", r.render());
        let m = &r.diagnostics[0].message;
        assert!(m.contains("deadlock"), "{m}");
        assert!(m.contains("'a'") && m.contains("'b'"), "names tasks: {m}");
    }

    #[test]
    fn three_task_ring_deadlocks() {
        // a waits on b, b waits on c, c waits on a.
        let mut s = ScenarioScript::new("ring");
        send(&mut s, "a", "b");
        send(&mut s, "b", "c");
        send(&mut s, "c", "a");
        recv(&mut s, "b", "a");
        recv(&mut s, "c", "b");
        recv(&mut s, "a", "c");
        let r = run(&s);
        assert_eq!(r.error_count(), 1, "{}", r.render());
        let m = &r.diagnostics[0].message;
        assert!(m.contains("'a'") && m.contains("'b'") && m.contains("'c'"));
    }

    #[test]
    fn red_black_ordering_is_clean() {
        // Even tasks send first; odd tasks receive first. Acyclic.
        let mut s = ScenarioScript::new("rb");
        send(&mut s, "t0", "t1");
        recv(&mut s, "t1", "t0");
        send(&mut s, "t1", "t0");
        recv(&mut s, "t0", "t1");
        send(&mut s, "t2", "t1");
        recv(&mut s, "t1", "t2");
        send(&mut s, "t1", "t2");
        recv(&mut s, "t2", "t1");
        let r = run(&s);
        assert!(r.is_clean(), "{}", r.render());
    }

    #[test]
    fn unmatched_send_and_recv_reported() {
        let mut s = ScenarioScript::new("orphan");
        send(&mut s, "a", "b"); // no recv
        recv(&mut s, "c", "d"); // no send
        let r = run(&s);
        assert_eq!(r.error_count(), 2, "{}", r.render());
        assert!(r.diagnostics[0].message.contains("unmatched window send"));
        assert!(r.diagnostics[1]
            .message
            .contains("unmatched window receive"));
    }

    #[test]
    fn self_exchange_rejected() {
        let mut s = ScenarioScript::new("selfie");
        send(&mut s, "a", "a");
        let r = run(&s);
        assert_eq!(r.error_count(), 1);
        assert!(r.diagnostics[0].message.contains("itself"));
    }

    #[test]
    fn shortest_cycle_prefers_small_cycles() {
        // Graph: 0->1->2->0 and 3->4->3; shortest is the 2-cycle.
        let adj = vec![vec![1], vec![2], vec![0], vec![4], vec![3]];
        assert!(!is_acyclic(&adj));
        let c = shortest_cycle(&adj).unwrap();
        assert_eq!(c.len(), 2);
        assert!(is_acyclic(&[vec![1, 2], vec![2], vec![]]));
    }

    /// The pass as first written, kept as the oracle: `String` keys cloned
    /// per op and per half, `Vec` FIFOs popped from the front, and the
    /// all-sources BFS run on every event graph. It reads each op's names
    /// back as owned strings, as the ops carried them before the script
    /// interned its names.
    mod oracle {
        use super::super::{shortest_cycle, Half, PASS};
        use crate::diag::{Report, Severity};
        use crate::script::{Op, ScenarioScript};
        use std::collections::BTreeMap;

        struct Event {
            from: String,
            to: String,
            window: String,
            send: Half,
            recv: Half,
        }

        pub fn check(script: &ScenarioScript, report: &mut Report) {
            let mut sends: BTreeMap<(String, String, String), Vec<Half>> = BTreeMap::new();
            let mut recvs: BTreeMap<(String, String, String), Vec<Half>> = BTreeMap::new();
            let mut events: Vec<Event> = Vec::new();
            let mut participation: BTreeMap<String, Vec<(usize, usize)>> = BTreeMap::new();
            let bump = |task: &str, map: &mut BTreeMap<String, usize>| -> usize {
                let c = map.entry(task.to_string()).or_insert(0);
                let v = *c;
                *c += 1;
                v
            };
            let mut counters: BTreeMap<String, usize> = BTreeMap::new();

            let name = |id: u32| script.name(id).to_string();
            for (op, span) in script.ops() {
                match *op {
                    Op::WindowSend {
                        from, to, window, ..
                    } => {
                        let (from, to, window) = (&name(from), &name(to), &name(window));
                        let seq = bump(from, &mut counters);
                        if from == to {
                            report.push(
                                Severity::Error,
                                PASS,
                                Some(span),
                                format!(
                                    "task '{from}' exchanges with itself through window \
                                     '{window}': the rendezvous can never complete"
                                ),
                            );
                            continue;
                        }
                        let key = (from.clone(), to.clone(), window.clone());
                        let half = Half { seq, span };
                        if let Some(r) = recvs.get_mut(&key).and_then(pop_front) {
                            push_event(
                                &mut events,
                                &mut participation,
                                Event {
                                    from: from.clone(),
                                    to: to.clone(),
                                    window: window.clone(),
                                    send: half,
                                    recv: r,
                                },
                            );
                        } else {
                            sends.entry(key).or_default().push(half);
                        }
                    }
                    Op::WindowRecv { task, from, window } => {
                        let (task, from, window) = (&name(task), &name(from), &name(window));
                        let seq = bump(task, &mut counters);
                        if task == from {
                            report.push(
                                Severity::Error,
                                PASS,
                                Some(span),
                                format!(
                                    "task '{task}' receives from itself through window \
                                     '{window}': the rendezvous can never complete"
                                ),
                            );
                            continue;
                        }
                        let key = (from.clone(), task.clone(), window.clone());
                        let half = Half { seq, span };
                        if let Some(s) = sends.get_mut(&key).and_then(pop_front) {
                            push_event(
                                &mut events,
                                &mut participation,
                                Event {
                                    from: from.clone(),
                                    to: task.clone(),
                                    window: window.clone(),
                                    send: s,
                                    recv: half,
                                },
                            );
                        } else {
                            recvs.entry(key).or_default().push(half);
                        }
                    }
                    Op::Pause { task }
                    | Op::Resume { task }
                    | Op::Terminate { task }
                    | Op::WindowOpen { task, .. }
                    | Op::WindowClose { task, .. } => {
                        bump(&name(task), &mut counters);
                    }
                    Op::Initiate { task, .. } => {
                        bump(&name(task), &mut counters);
                    }
                    Op::Message { from, .. } => {
                        bump(&name(from), &mut counters);
                    }
                    Op::RemoteCall { caller, .. } => {
                        bump(&name(caller), &mut counters);
                    }
                    Op::RemoteReturn { .. } | Op::Alloc { .. } => {}
                }
            }

            for ((from, to, window), halves) in &sends {
                for h in halves {
                    report.push(
                        Severity::Error,
                        PASS,
                        Some(h.span),
                        format!(
                            "unmatched window send: '{from}' -> '{to}' through '{window}' \
                             has no matching receive; '{from}' blocks forever"
                        ),
                    );
                }
            }
            for ((from, to, window), halves) in &recvs {
                for h in halves {
                    report.push(
                        Severity::Error,
                        PASS,
                        Some(h.span),
                        format!(
                            "unmatched window receive: '{to}' <- '{from}' through '{window}' \
                             has no matching send; '{to}' blocks forever"
                        ),
                    );
                }
            }

            let n = events.len();
            let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
            for parts in participation.values_mut() {
                parts.sort_unstable();
                for w in parts.windows(2) {
                    adj[w[0].1].push(w[1].1);
                }
            }

            if let Some(cycle) = shortest_cycle(&adj) {
                let first = &events[cycle[0]];
                let mut chain = String::new();
                for (i, &e) in cycle.iter().enumerate() {
                    let ev = &events[e];
                    if i > 0 {
                        chain.push_str(", then ");
                    }
                    chain.push_str(&format!(
                        "'{}' -> '{}' through '{}' (line {})",
                        ev.from, ev.to, ev.window, ev.send.span.line
                    ));
                }
                let tasks: Vec<&str> = {
                    let mut t: Vec<&str> = cycle
                        .iter()
                        .flat_map(|&e| [events[e].from.as_str(), events[e].to.as_str()])
                        .collect();
                    t.sort_unstable();
                    t.dedup();
                    t
                };
                report.push(
                    Severity::Error,
                    PASS,
                    Some(first.send.span),
                    format!(
                        "window-exchange deadlock among tasks {}: each rendezvous waits on \
                         the next: {chain}, which waits on the first",
                        tasks
                            .iter()
                            .map(|t| format!("'{t}'"))
                            .collect::<Vec<_>>()
                            .join(", ")
                    ),
                );
            }
        }

        fn pop_front(v: &mut Vec<Half>) -> Option<Half> {
            if v.is_empty() {
                None
            } else {
                Some(v.remove(0))
            }
        }

        fn push_event(
            events: &mut Vec<Event>,
            participation: &mut BTreeMap<String, Vec<(usize, usize)>>,
            ev: Event,
        ) {
            let idx = events.len();
            participation
                .entry(ev.from.clone())
                .or_default()
                .push((ev.send.seq, idx));
            participation
                .entry(ev.to.clone())
                .or_default()
                .push((ev.recv.seq, idx));
            events.push(ev);
        }
    }

    /// Scripts of at most 64 ops over up to 8 tasks and two windows. Each
    /// drawn item is an exchange (both halves), an orphaned send or
    /// receive, or an op that only advances a task's program order (or,
    /// for an alloc, not even that); the ops are then shuffled, so a
    /// task's halves land in random order. Names are interned in drawing
    /// order, so their ids are not in name order.
    fn random_script() -> impl Strategy<Value = ScenarioScript> {
        let item = (
            0u8..8,
            0u32..8,
            0u32..8,
            0u32..2,
            any::<u64>(),
            any::<u64>(),
        );
        (1u32..=8, proptest::collection::vec(item, 0..33)).prop_map(|(tasks, items)| {
            let mut s = ScenarioScript::new("random");
            let mut keyed: Vec<(u64, Op)> = Vec::new();
            for (kind, a, b, w, send_key, recv_key) in items {
                let [a, b] = [a, b].map(|t| s.intern(&format!("t{}", t % tasks)));
                let window = s.intern(&format!("w{w}"));
                let send = Op::WindowSend {
                    from: a,
                    to: b,
                    window,
                    words: 1,
                };
                let recv = Op::WindowRecv {
                    task: b,
                    from: a,
                    window,
                };
                match kind {
                    0 if w == 0 => keyed.push((send_key, Op::Pause { task: a })),
                    0 => {
                        let what = s.intern("scratch");
                        keyed.push((
                            send_key,
                            Op::Alloc {
                                cluster: 0,
                                words: 1,
                                what,
                            },
                        ));
                    }
                    1 => keyed.push((send_key, send)),
                    2 => keyed.push((recv_key, recv)),
                    _ => {
                        keyed.push((send_key, send));
                        keyed.push((recv_key, recv));
                    }
                }
            }
            keyed.sort_by_key(|(key, _)| *key);
            for (_, op) in keyed {
                s.push(op);
            }
            s
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The id-keyed pass renders every report byte for byte as the
        /// oracle does: the same unmatched halves in the same order, and
        /// the same shortest cycle.
        #[test]
        fn pass_renders_exactly_as_the_oracle(script in random_script()) {
            let mut want = Report::new(script.name.clone(), script.source());
            oracle::check(&script, &mut want);
            prop_assert_eq!(run(&script).render(), want.render());
        }
    }

    /// The generator reaches both kinds of finding the oracle test must
    /// compare: wait-for cycles and unmatched halves.
    #[test]
    fn random_scripts_cover_cycles_and_unmatched_halves() {
        let mut rng = TestRng::deterministic("random_scripts_cover_cycles_and_unmatched_halves");
        let (mut cyclic, mut unmatched) = (0, 0);
        for _ in 0..256 {
            let r = run(&random_script().generate(&mut rng));
            let has = |what: &str| r.diagnostics.iter().any(|d| d.message.contains(what));
            cyclic += usize::from(has("window-exchange deadlock"));
            unmatched += usize::from(has("unmatched window"));
        }
        assert!(
            cyclic >= 16 && unmatched >= 16,
            "{cyclic} cyclic and {unmatched} unmatched of 256"
        );
    }
}
