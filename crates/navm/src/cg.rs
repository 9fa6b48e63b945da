//! The plate program: conjugate gradients in NA-VM operations, and the
//! operations it charges, which `fem2-core`'s `scenario_cost` walks.

use crate::linalg::VectorOp as Op;
use crate::runtime::{ArrayId, NaVm};

/// [`plate_cg`]'s operations before its loop: `fill(b)`, `copy(b, r)`,
/// `copy(r, p)`, `inner(r, r)`.
pub const PLATE_CG_SETUP: [Op; 4] = [Op::Fill, Op::Copy, Op::Copy, Op::Inner];

/// The operations of one [`plate_cg`] iteration: `stencil5(p, Ap)`,
/// `inner(p, Ap)`, `axpy(α, p, x)`, `axpy(−α, Ap, r)`, `inner(r, r)`,
/// `xpby(r, β, p)`.
pub const PLATE_CG_ITERATION: [Op; 6] = [
    Op::Stencil,
    Op::Inner,
    Op::Update,
    Op::Update,
    Op::Inner,
    Op::Update,
];

/// The vectors [`plate_cg`] keeps live: b, x, r, p and Ap.
pub const PLATE_CG_VECTORS: u64 = 5;

/// What a [`plate_cg`] run leaves.
#[derive(Clone, Copy, Debug)]
pub struct CgOutcome {
    /// Iterations taken.
    pub iterations: usize,
    /// Final residual norm.
    pub residual: f64,
    /// Whether the residual met the tolerance.
    pub converged: bool,
    /// The solution vector.
    pub x: ArrayId,
}

/// Conjugate gradients on the 5-point-stencil operator of an `nx × ny`
/// grid, so every step of the solve is charged to the simulated machine.
/// Solves `A·x = b` with `b ≡ 1`, `x₀ = 0`, until the residual falls to
/// `tol` times the initial one or `max_iters` iterations have run.
pub fn plate_cg(vm: &mut NaVm, nx: usize, ny: usize, tol: f64, max_iters: usize) -> CgOutcome {
    let n = nx * ny;
    let b = vm.vector(n);
    vm.fill(b, |_, _| 1.0);
    let x = vm.vector(n);
    let r = vm.vector(n);
    vm.copy(b, r);
    let p = vm.vector(n);
    vm.copy(r, p);
    let ap = vm.vector(n);
    let mut rr = vm.inner(r, r);
    let target = tol * rr.sqrt();
    let mut iterations = 0;
    let mut residual = rr.sqrt();
    // The budget poll makes CG cooperatively abortable at iteration
    // granularity: an armed budget stops the loop at the first iteration
    // boundary past the limit (deterministically for the cycle budget);
    // unbudgeted runs never see it.
    while iterations < max_iters && residual > target && vm.budget_exceeded().is_none() {
        vm.stencil5(p, ap, nx, ny);
        let pap = vm.inner(p, ap);
        if pap <= 0.0 {
            break;
        }
        let alpha = rr / pap;
        vm.axpy(alpha, p, x);
        vm.axpy(-alpha, ap, r);
        let rr_new = vm.inner(r, r);
        residual = rr_new.sqrt();
        let beta = rr_new / rr;
        rr = rr_new;
        vm.xpby(r, beta, p);
        iterations += 1;
    }
    CgOutcome {
        iterations,
        residual,
        converged: residual <= target,
        x,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fem2_machine::{MachineConfig, Topology};
    use fem2_trace::TraceHandle;

    #[test]
    fn plate_cg_actually_solves_the_system() {
        let mut vm = NaVm::simulated(MachineConfig::fem2_default(), 4);
        let cg = plate_cg(&mut vm, 10, 10, 1e-10, 5000);
        assert!(cg.converged && cg.residual < 1e-8);
        // Verify A·x ≈ 1 directly.
        let ax = vm.vector(100);
        vm.stencil5(cg.x, ax, 10, 10);
        for v in vm.snapshot(ax) {
            assert!((v - 1.0).abs() < 1e-6, "A·x component {v}");
        }
    }

    /// The sequences are the program: after `k` iterations, the solve's
    /// flops and integer ops are the setup's per-item work plus `k` times
    /// the iteration's, over the `nx·ny` unknowns.
    #[test]
    fn plate_cg_charges_what_its_sequences_state() {
        let (nx, ny) = (13, 11);
        let n = (nx * ny) as u64;
        let sum = |ops: &[Op]| {
            ops.iter()
                .map(|op| op.work())
                .fold((0, 0), |(f, i), w| (f + w.flops, i + w.int_ops))
        };
        let (setup, iteration) = (sum(&PLATE_CG_SETUP), sum(&PLATE_CG_ITERATION));
        for k in [0, 1, 2, 7] {
            for cfg in [
                MachineConfig::fem2_default(),
                MachineConfig::clustered(16, 2, Topology::Torus { dims: vec![4, 4] }),
            ] {
                let mut vm = NaVm::simulated(cfg, 6);
                vm.phase("solve");
                let cg = plate_cg(&mut vm, nx, ny, 1e-12, k);
                assert_eq!(cg.iterations, k);
                let table = vm.machine().stats.table();
                let row: Vec<u64> = table
                    .lines()
                    .find_map(|l| l.strip_prefix("solve"))
                    .expect("a solve row")
                    .split_whitespace()
                    .map(|v| v.parse().unwrap())
                    .collect();
                let k = k as u64;
                let want = (
                    n * (setup.0 + k * iteration.0),
                    n * (setup.1 + k * iteration.1),
                );
                assert_eq!((row[0], row[1]), want, "{k} iterations\n{table}");
            }
        }
    }

    /// The replay of a settled CG iteration fires, and only where it may:
    /// on the 32×32 torus (128 tasks) and on the default machine, every
    /// iteration after the first two settles by replaying the one before;
    /// the same plates traced replay nothing and report the same figures.
    #[test]
    fn plate_iterations_settle_by_replay_and_traced_runs_agree() {
        let torus = MachineConfig::clustered(1024, 2, Topology::Torus { dims: vec![32, 32] });
        let default = MachineConfig::fem2_default();
        let workers = default.total_workers();
        for (cfg, tasks, nx, ny) in [(torus, 128, 48, 44), (default, workers, 64, 60)] {
            let run = |traced: bool| {
                let mut vm = NaVm::simulated(cfg.clone(), tasks);
                let (trace, _ring) = TraceHandle::ring(1 << 10);
                if traced {
                    vm.set_trace(trace);
                }
                vm.phase("solve");
                let cg = plate_cg(&mut vm, nx, ny, 1e-6, 5000);
                let elapsed = vm.elapsed();
                let m = vm.machine();
                let figures = (
                    elapsed,
                    m.events,
                    m.network.messages,
                    m.network.total_words_moved(),
                    cg.iterations,
                    cg.residual.to_bits(),
                    m.stats.table(),
                );
                (figures, vm.sim.replays)
            };
            let (untraced, replays) = run(false);
            let iterations = untraced.4 as u64;
            assert!(
                replays + 2 >= iterations && replays <= iterations,
                "{nx}x{ny}: {replays} of {iterations} iterations replayed"
            );
            let (traced, replays) = run(true);
            assert_eq!(replays, 0, "a traced run replays no settle");
            assert_eq!(traced, untraced, "{nx}x{ny}");
        }
    }
}
