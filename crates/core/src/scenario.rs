//! Scenario analyses: the "typical large-scale application" of the design
//! method, run end-to-end through the numerical analyst's VM.
//!
//! The workload is the one the paper's applications imply (and that
//! Adams–Voigt analyze in reference \[8\]): a plate model — assemble element
//! stiffnesses, solve the resulting SPD system by conjugate gradients with a
//! 5-point-stencil operator, recover stresses. On the simulated machine the
//! run produces the paper's three requirement families per phase:
//! processing (flops), storage (allocation high-water), and communication
//! (messages, words).

use fem2_kernel::WorkProfile;
use fem2_machine::stats::PhaseCounters;
use fem2_machine::{Cycles, MachineConfig, RunAborted, RunBudget};
use fem2_navm::{plate_cg, NaVm};
use fem2_trace::{EventKind, TraceEvent, TraceHandle, NO_CLUSTER, NO_PE};

/// Per-element assembly work of a Quad4 plane-stress element (four Gauss
/// points of `BᵀDB` products plus bookkeeping), as charged on the simulated
/// machine.
pub const ASSEMBLY_PROFILE_PER_ELEMENT: WorkProfile = WorkProfile {
    flops: 1200,
    int_ops: 300,
    mem_words: 160,
};

/// Per-element stress-recovery work (gather, centre-point `B·u`, `D·ε`).
pub const STRESS_PROFILE_PER_ELEMENT: WorkProfile = WorkProfile {
    flops: 120,
    int_ops: 40,
    mem_words: 24,
};

/// A plate scenario: grid size, task count, machine, solver controls.
#[derive(Clone, Debug)]
pub struct PlateScenario {
    /// Grid points in x.
    pub nx: usize,
    /// Grid points in y.
    pub ny: usize,
    /// NA-VM task count.
    pub tasks: u32,
    /// The machine organization under evaluation.
    pub machine: MachineConfig,
    /// CG relative tolerance.
    pub tol: f64,
    /// CG iteration cap.
    pub max_iters: usize,
    /// Trace sink threaded into the simulated machine (disabled by
    /// default; tracing is observation-only and never changes results).
    pub(crate) trace: TraceHandle,
    /// Let warning-severity verification findings through the pre-dispatch
    /// gate ([`PlateScenario::run`] still hard-fails on errors).
    pub allow_warnings: bool,
    /// Run budget enforced by [`run_budgeted`](Self::run_budgeted)
    /// (unlimited by default). Like `trace`, this is an execution control,
    /// not part of the scenario's identity: it lives outside the machine
    /// config so armed budgets never perturb content hashes.
    pub budget: RunBudget,
}

impl PlateScenario {
    /// An `n × n` plate on `machine`, one task per worker PE.
    pub fn square(n: usize, machine: MachineConfig) -> Self {
        let tasks = machine.total_workers().max(1);
        PlateScenario {
            nx: n,
            ny: n,
            tasks,
            machine,
            tol: 1e-6,
            max_iters: 5000,
            trace: TraceHandle::disabled(),
            allow_warnings: false,
            budget: RunBudget::unlimited(),
        }
    }

    /// The same scenario with a trace sink attached.
    pub fn with_trace(mut self, trace: TraceHandle) -> Self {
        self.trace = trace;
        self
    }

    /// Statically verify this scenario without running it: protocol
    /// conformance, window-exchange deadlock freedom, and storage bounds
    /// over the lowered scenario script.
    pub fn verify(&self) -> fem2_verify::Report {
        let script = crate::verify::scenario_script(self);
        fem2_verify::check_script(&script, &self.machine)
    }

    /// Verify, then run on the simulated machine. Scenarios the analyzer
    /// rejects are returned as `Err` with the full diagnostic report;
    /// warnings also reject unless [`allow_warnings`](Self::allow_warnings)
    /// is set.
    pub fn try_run(&self) -> Result<ScenarioReport, Box<fem2_verify::Report>> {
        let report = self.verify();
        if report.blocks(self.allow_warnings) {
            return Err(Box::new(report));
        }
        Ok(self.run_unchecked())
    }

    /// Run on the simulated machine and collect the requirement tables.
    /// The static verifier runs first and a rejected scenario panics with
    /// its diagnostics; use [`try_run`](Self::try_run) to handle rejection,
    /// or [`run_unchecked`](Self::run_unchecked) to skip the gate.
    pub fn run(&self) -> ScenarioReport {
        match self.try_run() {
            Ok(report) => report,
            Err(diagnostics) => {
                panic!("scenario rejected by static verification:\n{diagnostics}")
            }
        }
    }

    /// Run without the pre-dispatch verification gate.
    pub fn run_unchecked(&self) -> ScenarioReport {
        self.run_supervised(&RunBudget::unlimited())
            .unwrap_or_else(|abort| panic!("an unbudgeted plate run stopped: {abort}"))
    }

    /// Run under the scenario's armed [`budget`](Self::budget): the same
    /// execution as [`run_unchecked`](Self::run_unchecked), but a run that
    /// exceeds a deterministic limit (sim cycles, DES events) or blows its
    /// wall-clock deadline winds down and returns a structured
    /// [`RunAborted`] instead of a report.
    ///
    /// Abort points are checked at phase and solver-iteration granularity,
    /// so for the deterministic limits the abort (cause and observed
    /// progress) is itself deterministic: two budgeted runs of the same
    /// scenario abort identically.
    pub fn run_budgeted(&self) -> Result<ScenarioReport, RunAborted> {
        self.run_supervised(&self.budget)
    }

    fn run_supervised(&self, budget: &RunBudget) -> Result<ScenarioReport, RunAborted> {
        let vm = &mut NaVm::simulated(self.machine.clone(), self.tasks);
        vm.set_trace(self.trace.clone());
        vm.set_budget(budget.clone());
        let elements = (self.nx - 1).max(1) * (self.ny - 1).max(1);
        // A pardo of `per` element work over each task's share.
        let per_element = |vm: &mut NaVm, per: WorkProfile| {
            let tasks = vm.tasks();
            let share = |t| tasks.share(elements, t).len() as u64;
            let stmts: Vec<_> = tasks.iter().map(|t| (t, per.scaled(share(t)))).collect();
            vm.pardo(&stmts);
        };

        vm.phase("assembly");
        per_element(vm, ASSEMBLY_PROFILE_PER_ELEMENT);
        self.check_abort(vm)?;

        vm.phase("solve");
        let cg = plate_cg(vm, self.nx, self.ny, self.tol, self.max_iters);
        self.check_abort(vm)?;

        vm.phase("stress");
        per_element(vm, STRESS_PROFILE_PER_ELEMENT);
        self.check_abort(vm)?;

        let elapsed = vm.elapsed();
        let machine = vm.machine();
        let stats = &machine.stats;
        let phases: Vec<(String, PhaseCounters)> = stats
            .phase_names()
            .iter()
            .map(|n| {
                (
                    n.clone(),
                    *stats.get(n).expect("phase_names lists existing phases"),
                )
            })
            .collect();
        let total = stats.total();
        Ok(ScenarioReport {
            elapsed,
            engine_events: machine.events,
            iterations: cg.iterations,
            residual: cg.residual,
            converged: cg.converged,
            phases,
            peak_memory_words: machine.peak_memory(),
            total_memory_words: machine.total_memory_high_water(),
            total_messages: machine.network.messages,
            total_words_moved: machine.network.total_words_moved(),
            total_flops: total.flops,
            table: stats.table(),
            unknowns: self.nx * self.ny,
            alloc_link_records: machine.network.allocated_link_records() as u64,
            alloc_cluster_records: machine.allocated_cluster_records() as u64,
        })
    }

    /// If the VM's budget has been exceeded, record a [`EventKind::RunAbort`]
    /// instant in the trace and surface the structured abort.
    fn check_abort(&self, vm: &mut NaVm) -> Result<(), RunAborted> {
        if let Some(abort) = vm.budget_exceeded() {
            let cause = abort.cause as u8;
            let at = vm.elapsed();
            self.trace
                .emit(|| TraceEvent::instant(at, NO_CLUSTER, NO_PE, EventKind::RunAbort { cause }));
            return Err(abort);
        }
        Ok(())
    }
}

/// The requirement tables of one scenario run.
#[derive(Clone, Debug)]
pub struct ScenarioReport {
    /// Simulated makespan in cycles.
    pub elapsed: Cycles,
    /// Machine-level events the engine processed (PE charges and remote
    /// transfers). Always recorded — unlike trace-derived counts this does
    /// not require a sink, so throughput is measurable for every run.
    pub engine_events: u64,
    /// CG iterations taken.
    pub iterations: usize,
    /// Final CG residual.
    pub residual: f64,
    /// Whether CG met its tolerance.
    pub converged: bool,
    /// Per-phase counters in phase order.
    pub phases: Vec<(String, PhaseCounters)>,
    /// Largest single-cluster memory high-water, words.
    pub peak_memory_words: u64,
    /// Sum of cluster memory high-waters, words.
    pub total_memory_words: u64,
    /// Remote messages sent.
    pub total_messages: u64,
    /// Total words moved (payload + headers).
    pub total_words_moved: u64,
    /// Total floating-point operations charged.
    pub total_flops: u64,
    /// Rendered per-phase table.
    pub table: String,
    /// Number of unknowns solved.
    pub unknowns: usize,
    /// Link records the sparse network slab materialized — the memory the
    /// run actually paid for, versus the topology's full link id space.
    pub alloc_link_records: u64,
    /// Cluster PE lanes materialized (clusters that ran work or faulted).
    pub alloc_cluster_records: u64,
}

impl ScenarioReport {
    /// One summary row: problem size, cycles, flops, messages, words,
    /// memory.
    pub fn row(&self) -> String {
        format!(
            "{:>8} {:>14} {:>14} {:>9} {:>12} {:>12} {:>6}",
            self.unknowns,
            self.elapsed,
            self.total_flops,
            self.total_messages,
            self.total_words_moved,
            self.total_memory_words,
            self.iterations
        )
    }

    /// Header matching [`ScenarioReport::row`].
    pub fn header() -> String {
        format!(
            "{:>8} {:>14} {:>14} {:>9} {:>12} {:>12} {:>6}",
            "n", "cycles", "flops", "messages", "words", "mem_words", "iters"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_produces_all_three_requirement_families() {
        let r = PlateScenario::square(16, MachineConfig::fem2_default()).run();
        assert!(
            r.converged,
            "{} iters, residual {}",
            r.iterations, r.residual
        );
        // Processing.
        assert!(r.total_flops > 0);
        let flops = |name: &str| r.phases.iter().find(|(n, _)| n == name).unwrap().1.flops;
        assert!(flops("solve") > flops("stress"));
        // Storage.
        assert!(r.peak_memory_words > 0);
        // Communication.
        assert!(r.total_messages > 0);
        assert!(r.total_words_moved > 0);
        // Phases in order.
        let names: Vec<&str> = r.phases.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["assembly", "solve", "stress"]);
        assert!(r.table.contains("TOTAL"));
        // Engine throughput is measurable without a trace sink.
        assert!(r.engine_events > 0);
    }

    #[test]
    fn bigger_plates_need_more_of_everything() {
        let small = PlateScenario::square(8, MachineConfig::fem2_default()).run();
        let large = PlateScenario::square(24, MachineConfig::fem2_default()).run();
        assert!(large.total_flops > small.total_flops);
        assert!(large.total_memory_words > small.total_memory_words);
        assert!(large.elapsed > small.elapsed);
        assert!(large.iterations >= small.iterations, "CG iteration growth");
    }

    #[test]
    fn more_workers_reduce_makespan() {
        let one = PlateScenario::square(
            24,
            MachineConfig::clustered(1, 2, fem2_machine::Topology::Crossbar),
        )
        .run();
        let many = PlateScenario::square(24, MachineConfig::fem2_default()).run();
        assert!(
            many.elapsed < one.elapsed,
            "28 workers {} < 1 worker {}",
            many.elapsed,
            one.elapsed
        );
    }

    #[test]
    fn four_thousand_cluster_torus_plate_stays_o_active() {
        // The headline sparse-state regression guard: a 64x64 torus of
        // 4096 clusters running a 128-task plate must materialize link
        // and cluster records proportional to the *active* set, not the
        // machine size (link id space 16384; a dense or quadratic
        // allocation would show up orders of magnitude above the bound).
        let cfg = MachineConfig::clustered(
            4096,
            2,
            fem2_machine::Topology::Torus { dims: vec![64, 64] },
        );
        let mut scenario = PlateScenario::square(32, cfg);
        scenario.tasks = 128;
        let r = scenario.run();
        assert!(
            r.converged,
            "{} iters, residual {}",
            r.iterations, r.residual
        );
        assert!(
            r.alloc_cluster_records <= 256,
            "cluster records must track the 128 active clusters, got {}",
            r.alloc_cluster_records
        );
        // Each active cluster's traffic touches at most ~2·diameter
        // directional links of dimension-order route (~8.7k here); a
        // dense network would pin all 16384 records before the first
        // message moved.
        assert!(
            r.alloc_link_records <= 10_000,
            "link records must stay below the 16384-link id space, got {}",
            r.alloc_link_records
        );
    }

    #[test]
    fn report_row_and_header_align() {
        let r = PlateScenario::square(8, MachineConfig::fem2_default()).run();
        let h = ScenarioReport::header();
        let row = r.row();
        assert_eq!(h.split_whitespace().count(), row.split_whitespace().count());
    }

    #[test]
    fn unlimited_budget_matches_run_unchecked() {
        let scenario = PlateScenario::square(12, MachineConfig::fem2_default());
        let plain = scenario.run_unchecked();
        let budgeted = scenario.run_budgeted().expect("unlimited budget");
        assert_eq!(plain.elapsed, budgeted.elapsed);
        assert_eq!(plain.iterations, budgeted.iterations);
        assert_eq!(plain.residual.to_bits(), budgeted.residual.to_bits());
        assert_eq!(plain.total_flops, budgeted.total_flops);
    }

    /// A plate that meets its tolerance on its last allowed iteration
    /// has converged: the 8×8 plate on the default machine takes exactly
    /// 10 (E1). With one iteration fewer it has not.
    #[test]
    fn a_plate_converged_on_its_last_allowed_iteration_says_so() {
        let mut scenario = PlateScenario::square(8, MachineConfig::fem2_default());
        scenario.max_iters = 10;
        let r = scenario.run();
        assert_eq!(r.iterations, 10);
        assert!(r.converged, "residual {}", r.residual);
        scenario.max_iters = 9;
        assert!(!scenario.run().converged);
    }

    #[test]
    fn cycle_budget_aborts_deterministically() {
        let full = PlateScenario::square(16, MachineConfig::fem2_default()).run_unchecked();
        let limit = full.elapsed / 4;
        let mut scenario = PlateScenario::square(16, MachineConfig::fem2_default());
        scenario.budget = RunBudget::max_cycles(limit);
        let first = scenario.run_budgeted().expect_err("budget must fire");
        let second = scenario.run_budgeted().expect_err("budget must fire");
        assert_eq!(first, second, "aborts are bitwise-repeatable");
        assert_eq!(first.cause, crate::machine::AbortCause::CyclesExceeded);
        assert!(
            first.sim_cycles >= limit,
            "abort observed past the limit: {} vs {}",
            first.sim_cycles,
            limit
        );
    }
}
