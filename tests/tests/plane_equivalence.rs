//! Native plane ≡ simulated plane: the same NA-VM program produces
//! bitwise-identical numbers on the host thread and on the simulated FEM-2.

use fem2_core::scenario::plate_cg;
use fem2_machine::MachineConfig;
use fem2_navm::{NaVm, TaskHandle, WorkProfile};
use proptest::prelude::*;

fn both(ntasks: u32) -> (NaVm, NaVm) {
    (
        NaVm::simulated(MachineConfig::fem2_default(), ntasks),
        NaVm::native(ntasks),
    )
}

#[test]
fn windows_read_the_same_values() {
    let (mut vs, mut vn) = both(8);
    let a = vs.array(32, 8);
    let b = vn.array(32, 8);
    vs.fill(a, |r, c| (r * 31 + c * 7) as f64);
    vn.fill(b, |r, c| (r * 31 + c * 7) as f64);
    for (r0, r1, c0, c1) in [(0u32, 32u32, 0u32, 8u32), (5, 9, 1, 3), (30, 32, 0, 8)] {
        let ws = vs.window(a, r0, r1, c0, c1);
        let wn = vn.window(b, r0, r1, c0, c1);
        assert_eq!(
            vs.read_window(TaskHandle(0), &ws),
            vn.read_window(TaskHandle(0), &wn)
        );
    }
}

#[test]
fn window_writes_round_trip_identically() {
    let (mut vs, mut vn) = both(4);
    let a = vs.array(16, 4);
    let b = vn.array(16, 4);
    let w_s = vs.window(a, 3, 9, 1, 4);
    let w_n = vn.window(b, 3, 9, 1, 4);
    let vals: Vec<f64> = (0..w_s.len()).map(|i| i as f64 * 0.5 - 3.0).collect();
    vs.write_window(TaskHandle(2), &w_s, &vals);
    vn.write_window(TaskHandle(2), &w_n, &vals);
    assert_eq!(vs.snapshot(a), vn.snapshot(b));
}

/// A whole CG solve, not one operation: every iteration feeds the rounding
/// of `stencil5`, `inner`, `axpy` and `xpby` into the next, so one differing
/// bit anywhere changes the iteration count or the residual. The 101×93
/// grid is not square and spans ten reduction chunks (nine whole ones and a
/// tail), so the reduction takes its widest step, single chunks and the tail.
#[test]
fn plate_cg_agrees_across_planes() {
    let (nx, ny) = (101, 93);
    let vms = [
        NaVm::simulated(MachineConfig::fem2_default(), 8),
        NaVm::native(8),
    ];
    let runs: Vec<(usize, u64, Vec<u64>)> = vms
        .into_iter()
        .map(|mut vm| {
            let (iters, res, x) = plate_cg(&mut vm, nx, ny, 1e-8, 2000);
            let bits = vm.snapshot(x).iter().map(|v| v.to_bits()).collect();
            (iters, res.to_bits(), bits)
        })
        .collect();
    assert!(
        runs[0].0 > 100 && runs[0].0 < 2000,
        "CG converged: {}",
        runs[0].0
    );
    for (p, run) in runs.iter().enumerate().skip(1) {
        assert_eq!(run.0, runs[0].0, "plane {p}: iterations");
        assert_eq!(run.1, runs[0].1, "plane {p}: residual bits");
        assert!(run.2 == runs[0].2, "plane {p}: solution bits");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A random sequence of vector operations produces bitwise-identical
    /// arrays on both planes.
    #[test]
    fn random_vector_programs_agree(
        n in 16usize..400,
        ops in proptest::collection::vec(0u8..5, 1..12),
        seed in 0u64..1000,
    ) {
        let (mut vs, mut vn) = both(6);
        let xs = vs.vector(n);
        let ys = vs.vector(n);
        let xn = vn.vector(n);
        let yn = vn.vector(n);
        let init = |i: usize, _c: usize| (((i as u64 + seed) * 2654435761) % 997) as f64 * 1e-3;
        vs.fill(xs, init);
        vn.fill(xn, init);
        vs.fill(ys, |i, _| i as f64 * 0.25);
        vn.fill(yn, |i, _| i as f64 * 0.25);
        for op in ops {
            match op {
                0 => {
                    vs.axpy(1.5, xs, ys);
                    vn.axpy(1.5, xn, yn);
                }
                1 => {
                    vs.scale(ys, 0.75);
                    vn.scale(yn, 0.75);
                }
                2 => {
                    let a = vs.inner(xs, ys);
                    let b = vn.inner(xn, yn);
                    prop_assert_eq!(a.to_bits(), b.to_bits());
                }
                3 => {
                    vs.xpby(xs, -0.5, ys);
                    vn.xpby(xn, -0.5, yn);
                }
                _ => {
                    vs.copy(ys, xs);
                    vn.copy(yn, xn);
                }
            }
        }
        let a = vs.snapshot(ys);
        let b = vn.snapshot(yn);
        for (p, q) in a.iter().zip(&b) {
            prop_assert_eq!(p.to_bits(), q.to_bits());
        }
    }

    /// Stencil application agrees bitwise for arbitrary grid shapes.
    #[test]
    fn stencil_agrees(nx in 2usize..24, ny in 2usize..24, seed in 0u64..100) {
        let (mut vs, mut vn) = both(5);
        let n = nx * ny;
        let xs = vs.vector(n);
        let ys = vs.vector(n);
        let xn = vn.vector(n);
        let yn = vn.vector(n);
        let init = |i: usize, _c: usize| (((i as u64 * 37 + seed) % 101) as f64 - 50.0) * 0.02;
        vs.fill(xs, init);
        vn.fill(xn, init);
        vs.stencil5(xs, ys, nx, ny);
        vn.stencil5(xn, yn, nx, ny);
        let a = vs.snapshot(ys);
        let b = vn.snapshot(yn);
        for (p, q) in a.iter().zip(&b) {
            prop_assert_eq!(p.to_bits(), q.to_bits());
        }
    }

    /// Simulated runs are deterministic: identical programs give identical
    /// cycle counts and statistics.
    #[test]
    fn simulated_plane_is_deterministic(n in 8usize..200, tasks in 1u32..16) {
        let run = || {
            let mut vm = NaVm::simulated(MachineConfig::fem2_default(), tasks);
            let x = vm.vector(n);
            let y = vm.vector(n);
            vm.fill(x, |i, _| i as f64);
            vm.fill(y, |_, _| 1.0);
            vm.axpy(2.0, x, y);
            let d = vm.inner(x, y);
            vm.pardo(&[(TaskHandle(0), WorkProfile::flops(500))]);
            (vm.elapsed(), d.to_bits(), vm.machine().unwrap().stats.total())
        };
        prop_assert_eq!(run(), run());
    }
}
