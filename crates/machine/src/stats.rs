//! Measurement counters: the numbers the FEM-2 design method exists to
//! produce.
//!
//! The paper's simulations "measure the storage, processing, and
//! communication patterns in typical FEM-2 applications". [`Stats`] gathers
//! exactly those three families — processing (flops, integer ops, memory
//! words), communication (messages, words), and storage (allocation
//! high-water, via `crate::ClusterMemory`) — and groups them into named
//! *phases* (e.g. `assembly`, `solve`, `stress`) so per-phase requirement
//! tables can be printed.

use crate::pe::WorkProfile;

/// Counters for one phase of an application.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseCounters {
    /// Floating-point operations charged.
    pub flops: u64,
    /// Integer / control operations charged.
    pub(crate) int_ops: u64,
    /// Shared-memory words read or written.
    pub mem_words: u64,
    /// Remote (inter-cluster) messages sent.
    pub(crate) messages: u64,
    /// Payload words carried by remote messages.
    pub(crate) msg_words: u64,
    /// Task activations created.
    pub(crate) tasks_created: u64,
    /// Kernel messages of any type processed.
    pub kernel_msgs: u64,
}

impl PhaseCounters {
    fn add(&mut self, other: &PhaseCounters) {
        self.flops += other.flops;
        self.int_ops += other.int_ops;
        self.mem_words += other.mem_words;
        self.messages += other.messages;
        self.msg_words += other.msg_words;
        self.tasks_created += other.tasks_created;
        self.kernel_msgs += other.kernel_msgs;
    }

    /// What was added to `before` to make `self`, field by field.
    pub(crate) fn since(&self, before: &PhaseCounters) -> PhaseCounters {
        PhaseCounters {
            flops: self.flops - before.flops,
            int_ops: self.int_ops - before.int_ops,
            mem_words: self.mem_words - before.mem_words,
            messages: self.messages - before.messages,
            msg_words: self.msg_words - before.msg_words,
            tasks_created: self.tasks_created - before.tasks_created,
            kernel_msgs: self.kernel_msgs - before.kernel_msgs,
        }
    }
}

/// Name of the implicit phase active before the first [`Stats::phase`]
/// call (matches `fem2_trace`'s startup phase).
pub(crate) const STARTUP_PHASE: &str = "startup";

/// Phase-grouped measurement counters for one run.
#[derive(Clone, Debug, Default)]
pub struct Stats {
    /// Phase names in first-use order; `counters` runs parallel to it.
    order: Vec<String>,
    counters: Vec<PhaseCounters>,
    /// Index of the current phase. `None` is the implicit
    /// [`STARTUP_PHASE`] before anything has been counted in it: a run
    /// that names a phase first never lists a startup row.
    current: Option<usize>,
}

impl Stats {
    /// Fresh stats; counts accrue to the implicit [`STARTUP_PHASE`] until
    /// [`Stats::phase`] is called.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Index of phase `name`, entering it into the table on first use.
    fn index_of(&mut self, name: &str) -> usize {
        self.order
            .iter()
            .position(|n| n == name)
            .unwrap_or_else(|| {
                self.order.push(name.to_string());
                self.counters.push(PhaseCounters::default());
                self.order.len() - 1
            })
    }

    /// Switch the current phase; counters accrue to it until the next call.
    pub(crate) fn phase(&mut self, name: impl Into<String>) {
        self.current = Some(self.index_of(&name.into()));
    }

    /// Counters of the current phase. Every charge and message lands
    /// here, so it is an index, not a lookup by name.
    fn cur(&mut self) -> &mut PhaseCounters {
        let i = match self.current {
            Some(i) => i,
            None => {
                let i = self.index_of(STARTUP_PHASE);
                self.current = Some(i);
                i
            }
        };
        &mut self.counters[i]
    }

    /// The current phase's index and counters; `None` before anything has
    /// been counted in the implicit startup phase.
    pub(crate) fn current(&self) -> Option<(usize, PhaseCounters)> {
        self.current.map(|i| (i, self.counters[i]))
    }

    /// Add `delta` to the current phase, as the charges it sums would.
    pub(crate) fn add_current(&mut self, delta: &PhaseCounters) {
        self.cur().add(delta);
    }

    /// Record `n` floating-point operations.
    pub(crate) fn flops(&mut self, n: u64) {
        self.cur().flops += n;
    }

    /// Record `n` integer operations.
    pub(crate) fn int_ops(&mut self, n: u64) {
        self.cur().int_ops += n;
    }

    /// Record `n` shared-memory word accesses.
    pub fn mem_words(&mut self, n: u64) {
        self.cur().mem_words += n;
    }

    /// Record one remote message carrying `words` of payload.
    pub(crate) fn message(&mut self, words: u64) {
        let c = self.cur();
        c.messages += 1;
        c.msg_words += words;
    }

    /// Record `n` task creations.
    pub(crate) fn tasks_created(&mut self, n: u64) {
        self.cur().tasks_created += n;
    }

    /// Record the integer ops, memory words and flops of one task's work.
    pub(crate) fn task_work(&mut self, work: &WorkProfile) {
        let c = self.cur();
        c.int_ops += work.int_ops;
        c.mem_words += work.mem_words;
        c.flops += work.flops;
    }

    /// Record one kernel message processed.
    pub fn kernel_msg(&mut self) {
        self.cur().kernel_msgs += 1;
    }

    /// Counters for a phase, if it exists.
    pub fn get(&self, phase: &str) -> Option<&PhaseCounters> {
        let i = self.order.iter().position(|n| n == phase)?;
        Some(&self.counters[i])
    }

    /// Phase names in first-use order.
    pub fn phase_names(&self) -> &[String] {
        &self.order
    }

    /// Sum of all phases.
    pub fn total(&self) -> PhaseCounters {
        let mut t = PhaseCounters::default();
        for c in &self.counters {
            t.add(c);
        }
        t
    }

    /// Render the per-phase requirement table (one row per phase plus a
    /// total row), in the style of the design method's scenario analyses.
    pub fn table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<12} {:>12} {:>10} {:>12} {:>9} {:>12} {:>7}",
            "phase", "flops", "int_ops", "mem_words", "messages", "msg_words", "tasks"
        );
        let mut render = |name: &str, c: &PhaseCounters| {
            let _ = writeln!(
                out,
                "{:<12} {:>12} {:>10} {:>12} {:>9} {:>12} {:>7}",
                name, c.flops, c.int_ops, c.mem_words, c.messages, c.msg_words, c.tasks_created
            );
        };
        for (name, c) in self.order.iter().zip(&self.counters) {
            render(name, c);
        }
        render("TOTAL", &self.total());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accrue_to_current_phase() {
        let mut s = Stats::new();
        s.phase("assembly");
        s.flops(100);
        s.mem_words(50);
        s.phase("solve");
        s.flops(900);
        s.message(32);
        let a = s.get("assembly").unwrap();
        assert_eq!(a.flops, 100);
        assert_eq!(a.mem_words, 50);
        assert_eq!(a.messages, 0);
        let v = s.get("solve").unwrap();
        assert_eq!(v.flops, 900);
        assert_eq!(v.messages, 1);
        assert_eq!(v.msg_words, 32);
    }

    #[test]
    fn startup_phase_collects_early_counts() {
        let mut s = Stats::new();
        s.int_ops(5);
        s.phase("work");
        s.int_ops(7);
        assert_eq!(s.get(STARTUP_PHASE).unwrap().int_ops, 5);
        assert_eq!(s.get("work").unwrap().int_ops, 7);
        assert_eq!(
            s.phase_names(),
            &["startup".to_string(), "work".to_string()]
        );
    }

    #[test]
    fn returning_to_a_phase_keeps_accumulating() {
        let mut s = Stats::new();
        s.phase("a");
        s.flops(1);
        s.phase("b");
        s.flops(10);
        s.phase("a");
        s.flops(2);
        assert_eq!(s.get("a").unwrap().flops, 3);
        assert_eq!(s.phase_names(), &["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn total_sums_all_phases() {
        let mut s = Stats::new();
        s.phase("a");
        s.flops(1);
        s.tasks_created(1);
        s.kernel_msg();
        s.phase("b");
        s.flops(2);
        s.message(10);
        let t = s.total();
        assert_eq!(t.flops, 3);
        assert_eq!(t.tasks_created, 1);
        assert_eq!(t.kernel_msgs, 1);
        assert_eq!(t.messages, 1);
        assert_eq!(t.msg_words, 10);
    }

    #[test]
    fn table_has_phase_rows_and_total() {
        let mut s = Stats::new();
        s.phase("assembly");
        s.flops(42);
        let table = s.table();
        assert!(table.contains("assembly"));
        assert!(table.contains("TOTAL"));
        assert!(table.contains("42"));
    }

    #[test]
    fn current_phase_reports_name() {
        let mut s = Stats::new();
        assert_eq!(s.current, None);
        s.phase("x");
        assert_eq!(s.current.map(|i| s.order[i].as_str()), Some("x"));
    }
}
