//! `plate_xbar` and `plate_torus`: the paper's "typical large-scale
//! application" — assemble, CG-solve, recover stresses — on the reference
//! crossbar and on a 1024-cluster torus. Same driver, opposite bottleneck.

use crate::harness::{diff, push_fields, Digest, Layers, Rep, Workload};
use crate::replay::{replay, ReplayTimes, Stream, RING_CAPACITY};
use crate::rng::Rng;
use fem2_core::scenario::{
    PlateScenario, ScenarioReport, ASSEMBLY_PROFILE_PER_ELEMENT, STRESS_PROFILE_PER_ELEMENT,
};
use fem2_core::verify::{scenario_cost, scenario_script};
use fem2_machine::{MachineConfig, Topology};
use fem2_navm::{NaVm, WorkProfile};
use fem2_trace::TraceHandle;
use std::hint::black_box;
use std::time::Instant;

pub struct Plates {
    name: &'static str,
    scenarios: Vec<PlateScenario>,
}

/// One plate per `side`, in seeded order. The seed picks each plate's
/// `nx` (and with it the halo width) 1 to `stretch` points off `side`;
/// `ny_for` then picks the `ny` that keeps the plate's work where `side`
/// put it, so every seed does the same amount of work on differently
/// shaped inputs. No plate is square: with `b ≡ 1` a square grid's
/// symmetry saves CG a fifth of its iterations (101 against 126 at 64
/// rows), which would make the work depend on the seed after all.
fn plates(
    rng: &mut Rng,
    sides: &[usize],
    stretch: i64,
    ny_for: fn(usize, usize) -> usize,
    machine: &MachineConfig,
) -> Vec<PlateScenario> {
    let mut sides = sides.to_vec();
    rng.shuffle(&mut sides);
    sides
        .into_iter()
        .map(|side| {
            let off = rng.range(1, stretch) * if rng.below(2) == 0 { 1 } else { -1 };
            let nx = (side as i64 + off) as usize;
            let mut s = PlateScenario::square(nx, machine.clone());
            s.ny = ny_for(side, nx);
            s
        })
        .collect()
}

impl Plates {
    fn build(name: &'static str, scenarios: Vec<PlateScenario>) -> Self {
        // Admission is part of set-up: nothing runs unverified, and a
        // change that moves work into lowering or the static passes shows
        // in `setup_s`.
        for s in &scenarios {
            assert!(
                !s.verify().blocks(false),
                "{name}: generated plate must verify"
            );
            black_box(scenario_cost(s));
        }
        Plates { name, scenarios }
    }

    /// 16 plates of 96²..160² unknowns on the 4x8 crossbar. Every task
    /// owns rows, so the work follows the unknown count: `ny = side²/nx`.
    pub fn xbar(seed: u64) -> Self {
        let sides: Vec<usize> = (0..16).map(|k| 96 + (64 * k + 7) / 15).collect();
        let machine = MachineConfig::fem2_default();
        let fixed_area = |side: usize, nx: usize| (side * side + nx / 2) / nx;
        let scenarios = plates(&mut Rng::new(seed), &sides, 6, fixed_area, &machine);
        Self::build("plate_xbar", scenarios)
    }

    /// 3 plates of 56..72 rows as 128 tasks on a 32x32 torus. Rows are
    /// dealt to tasks whole, so the row count sets how many tasks exchange
    /// halos and the work follows it: `ny = side`.
    pub fn torus(seed: u64) -> Self {
        let machine = MachineConfig::clustered(1024, 2, Topology::Torus { dims: vec![32, 32] });
        let fixed_rows = |side: usize, _nx: usize| side;
        let mut scenarios = plates(&mut Rng::new(seed), &[56, 64, 72], 4, fixed_rows, &machine);
        for s in &mut scenarios {
            s.tasks = 128;
        }
        Self::build("plate_torus", scenarios)
    }

    #[cfg(test)]
    pub fn shapes(&self) -> Vec<(usize, usize)> {
        self.scenarios.iter().map(|s| (s.nx, s.ny)).collect()
    }
}

fn digest_into(d: &mut Digest, op: usize, r: &ScenarioReport) {
    let fields = [
        ("cycles", r.elapsed),
        ("events", r.engine_events),
        ("messages", r.total_messages),
        ("words_moved", r.total_words_moved),
        ("iterations", r.iterations as u64),
        ("residual_bits", r.residual.to_bits()),
    ];
    push_fields(d, op, &fields);
}

/// Run every plate through `run`, timing each as one operation.
fn run_all(
    plates: &Plates,
    mut run: impl FnMut(&PlateScenario) -> Result<ScenarioReport, String>,
) -> (Rep, Vec<ScenarioReport>) {
    let mut rep = Rep::default();
    let mut reports = Vec::new();
    let t_all = Instant::now();
    for (i, s) in plates.scenarios.iter().enumerate() {
        let t = Instant::now();
        let outcome = run(s);
        rep.op_ms.push(t.elapsed().as_secs_f64() * 1e3);
        match outcome {
            Ok(r) if r.converged => {
                rep.work += r.engine_events;
                digest_into(&mut rep.digest, i, &r);
                reports.push(r);
            }
            Ok(r) => rep.failures.push(format!(
                "{}: plate {i} ({}x{}) did not converge in {} iterations",
                plates.name, s.nx, s.ny, r.iterations
            )),
            Err(why) => rep
                .failures
                .push(format!("{}: plate {i} rejected: {why}", plates.name)),
        }
    }
    rep.wall_s = t_all.elapsed().as_secs_f64();
    (rep, reports)
}

fn try_run(s: &PlateScenario) -> Result<ScenarioReport, String> {
    s.try_run().map_err(|report| report.to_string())
}

/// Host seconds inside each class of public NA-VM operation.
#[derive(Default)]
struct OpSpans {
    pardo: f64,
    stencil5: f64,
    inner: f64,
    axpy: f64,
    fill_copy: f64,
    ops: u64,
}

impl OpSpans {
    fn total(&self) -> f64 {
        self.pardo + self.stencil5 + self.inner + self.axpy + self.fill_copy
    }
}

fn span<T>(slot: &mut f64, ops: &mut u64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *slot += t.elapsed().as_secs_f64();
    *ops += 1;
    out
}

/// The benchmark's own copy of `PlateScenario::run_unchecked` +
/// `plate_cg`, with a span around every public `NaVm` operation. Returns
/// `(cycles, iterations, residual)`, which must equal the program's.
fn instrumented_run(s: &PlateScenario, sp: &mut OpSpans) -> (u64, usize, f64) {
    let mut vm = NaVm::simulated(s.machine.clone(), s.tasks);
    let elements = (s.nx - 1).max(1) * (s.ny - 1).max(1);
    let shares = |vm: &NaVm, profile: WorkProfile| -> Vec<_> {
        let tasks = vm.tasks();
        tasks
            .iter()
            .map(|t| (t, profile.scaled(tasks.share(elements, t).len() as u64)))
            .collect()
    };

    vm.phase("assembly");
    let stmts = shares(&vm, ASSEMBLY_PROFILE_PER_ELEMENT);
    span(&mut sp.pardo, &mut sp.ops, || vm.pardo(&stmts));

    vm.phase("solve");
    let n = s.nx * s.ny;
    let (b, x, r, p, ap) = span(&mut sp.fill_copy, &mut sp.ops, || {
        let b = vm.vector(n);
        vm.fill(b, |_, _| 1.0);
        let x = vm.vector(n);
        let r = vm.vector(n);
        vm.copy(b, r);
        let p = vm.vector(n);
        vm.copy(r, p);
        (b, x, r, p, vm.vector(n))
    });
    black_box(b);
    let mut rr = span(&mut sp.inner, &mut sp.ops, || vm.inner(r, r));
    let target = s.tol * rr.sqrt();
    let mut res = rr.sqrt();
    let mut iters = 0;
    while iters < s.max_iters && res > target {
        span(&mut sp.stencil5, &mut sp.ops, || {
            vm.stencil5(p, ap, s.nx, s.ny)
        });
        let pap = span(&mut sp.inner, &mut sp.ops, || vm.inner(p, ap));
        if pap <= 0.0 {
            break;
        }
        let alpha = rr / pap;
        span(&mut sp.axpy, &mut sp.ops, || {
            vm.axpy(alpha, p, x);
            vm.axpy(-alpha, ap, r);
        });
        let rr_new = span(&mut sp.inner, &mut sp.ops, || vm.inner(r, r));
        res = rr_new.sqrt();
        let beta = rr_new / rr;
        rr = rr_new;
        span(&mut sp.axpy, &mut sp.ops, || vm.xpby(r, beta, p));
        iters += 1;
    }

    vm.phase("stress");
    let stmts = shares(&vm, STRESS_PROFILE_PER_ELEMENT);
    span(&mut sp.pardo, &mut sp.ops, || vm.pardo(&stmts));
    (vm.elapsed(), iters, res)
}

impl Workload for Plates {
    fn repetition(&mut self) -> Rep {
        run_all(self, try_run).0
    }

    fn layers(&mut self, reference: &Rep, out: &mut Layers) -> Vec<String> {
        let mut failures = Vec::new();

        // Static passes, one sample per plate. `try_run` pays the check.
        let (mut predicted_cycles, mut predicted_events, mut check_s) = (0u64, 0u64, 0.0);
        for s in &self.scenarios {
            let t = Instant::now();
            black_box(scenario_script(s));
            out.add("core.lower_us", t.elapsed().as_secs_f64() * 1e6);
            let t = Instant::now();
            black_box(s.verify());
            let check = t.elapsed().as_secs_f64();
            check_s += check;
            out.add("verify.check_us", check * 1e6);
            let t = Instant::now();
            let cost = scenario_cost(s);
            out.add("verify.cost_us", t.elapsed().as_secs_f64() * 1e6);
            predicted_cycles += cost.sim_cycles;
            predicted_events += cost.des_events;
        }

        // Untraced pass of this traced pass: the base of the overhead.
        let (untraced, reports) = run_all(self, try_run);
        failures.extend(untraced.failures.iter().cloned());
        failures.extend(diff(
            self.name,
            "the untraced pass",
            &reference.digest,
            &untraced.digest,
        ));

        // The span-timed copy of the driver, tracing off.
        let mut spans = OpSpans::default();
        let mut cg_iters = 0u64;
        let t = Instant::now();
        for (i, (s, r)) in self.scenarios.iter().zip(&reports).enumerate() {
            let (cycles, iters, residual) = instrumented_run(s, &mut spans);
            cg_iters += iters as u64;
            if (cycles, iters, residual.to_bits())
                != (r.elapsed, r.iterations, r.residual.to_bits())
            {
                failures.push(format!(
                    "{}: operation op{i:03}: the benchmark's driver copy gives {cycles} cycles, \
                     {iters} iterations, the program's gives {} and {}",
                    self.name, r.elapsed, r.iterations
                ));
            }
        }
        let driver_wall = t.elapsed().as_secs_f64();

        // The traced pass: same plates with a ring attached, then the
        // recorded stream replayed against fresh machines.
        let mut replayed = ReplayTimes::default();
        let (mut recorded, mut dropped) = (0u64, 0u64);
        let mut streams = Vec::new();
        let mut traced_wall = 0.0;
        let (traced, _) = run_all(self, |s| {
            let (handle, ring) = TraceHandle::ring(RING_CAPACITY);
            let traced_plate = s.clone().with_trace(handle);
            let t = Instant::now();
            let outcome = traced_plate.try_run().map_err(|r| r.to_string());
            traced_wall += t.elapsed().as_secs_f64();
            let ring = ring.lock().unwrap_or_else(|e| e.into_inner());
            recorded += ring.metrics().total_events();
            dropped += ring.dropped();
            streams.push(Stream::harvest(&ring));
            outcome
        });
        failures.extend(traced.failures.iter().cloned());
        failures.extend(diff(
            self.name,
            "the untraced pass",
            &reference.digest,
            &traced.digest,
        ));
        for ((s, stream), r) in self.scenarios.iter().zip(&streams).zip(&reports) {
            let (times, events) = replay(&s.machine, stream);
            replayed.add(&times);
            if events != r.engine_events || stream.machine_events() != r.engine_events {
                failures.push(format!(
                    "{}: replay issued {events} machine events, the run made {}",
                    self.name, r.engine_events
                ));
            }
        }
        if dropped > 0 {
            failures.push(format!(
                "{}: the trace ring dropped {dropped} events",
                self.name
            ));
        }

        let sum = |f: fn(&ScenarioReport) -> u64| reports.iter().map(f).sum::<u64>() as f64;
        let sim_cycles = sum(|r| r.elapsed);
        out.add("core.driver_self_s", driver_wall - spans.total());
        out.add("verify.predicted_cycles", predicted_cycles as f64);
        out.add("verify.predicted_events", predicted_events as f64);
        out.add(
            "verify.bound_tightness",
            predicted_cycles as f64 / sim_cycles,
        );
        out.add("navm.pardo_s", spans.pardo);
        out.add("navm.stencil5_s", spans.stencil5);
        out.add("navm.inner_s", spans.inner);
        out.add("navm.axpy_s", spans.axpy);
        out.add("navm.fill_copy_s", spans.fill_copy);
        out.add("navm.self_s", spans.total() - replayed.total_s());
        out.add("navm.ops", spans.ops as f64);
        out.add("navm.cg_iters", cg_iters as f64);
        out.add("machine.replay_s", replayed.total_s());
        out.add("machine.transmit_ns", replayed.transmit_ns());
        out.add("machine.charge_ns", replayed.charge_ns());
        out.add("machine.pick_worker_ns", replayed.pick_ns());
        out.add("machine.queue_ns_per_op", replayed.queue_ns());
        out.add("machine.sim_cycles", sim_cycles);
        out.add("machine.events", sum(|r| r.engine_events));
        out.add("machine.messages", sum(|r| r.total_messages));
        out.add("machine.words_moved", sum(|r| r.total_words_moved));
        out.add("machine.alloc_links", sum(|r| r.alloc_link_records));
        out.add("machine.alloc_clusters", sum(|r| r.alloc_cluster_records));
        out.add("machine.peak_queue_depth", 0.0);
        out.add(
            "trace.overhead_pct",
            (traced_wall / untraced.wall_s - 1.0) * 100.0,
        );
        // Check + the span-timed driver (ops + its own time) against what
        // the program's own driver took for the same plates.
        out.add(
            "trace.attributed_pct",
            (check_s + driver_wall) / untraced.wall_s * 100.0,
        );
        out.add("trace.events_recorded", recorded as f64);
        out.add("trace.dropped", dropped as f64);
        failures
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_plates_and_seeds_differ() {
        assert_eq!(Plates::xbar(7).shapes(), Plates::xbar(7).shapes());
        assert_ne!(Plates::xbar(7).shapes(), Plates::xbar(8).shapes());
        assert_eq!(Plates::torus(7).shapes(), Plates::torus(7).shapes());
        assert_ne!(Plates::torus(7).shapes(), Plates::torus(8).shapes());
    }

    #[test]
    fn every_seed_solves_nearly_the_same_number_of_unknowns() {
        let unknowns = |p: &Plates| p.shapes().iter().map(|(nx, ny)| nx * ny).sum::<usize>() as f64;
        let base = unknowns(&Plates::xbar(1));
        assert_eq!(Plates::xbar(1).shapes().len(), 16);
        for seed in 2..20 {
            let u = unknowns(&Plates::xbar(seed));
            assert!((u / base - 1.0).abs() < 0.01, "seed {seed}: {u} vs {base}");
            let shapes = [Plates::xbar(seed).shapes(), Plates::torus(seed).shapes()].concat();
            assert!(
                shapes.iter().all(|(nx, ny)| nx != ny),
                "seed {seed}: a square plate"
            );
        }
    }

    #[test]
    fn the_driver_copy_matches_the_program() {
        let s = PlateScenario::square(12, MachineConfig::fem2_default());
        let r = s.run_unchecked();
        let (cycles, iters, residual) = instrumented_run(&s, &mut OpSpans::default());
        assert_eq!((cycles, iters), (r.elapsed, r.iterations));
        assert_eq!(residual.to_bits(), r.residual.to_bits());
    }
}
