//! The NA-VM's answers against a direct solve: the plate CG (`plate_cg`),
//! run on the simulated FEM-2, against `fem2-fem`'s skyline Cholesky of the
//! same 5-point operator. The two share no arithmetic: the CG is NA-VM
//! slice kernels under the reduction contract; the direct solve is a sparse
//! assembly and an envelope factorization.

use fem2_fem::solver::skyline;
use fem2_fem::{Coo, Csr};
use fem2_machine::{MachineConfig, Topology};
use fem2_navm::{plate_cg, NaVm, TaskHandle, WorkProfile};
use proptest::prelude::*;

/// The 5-point operator of an `nx × ny` grid, row-major, with homogeneous
/// Dirichlet boundaries: 4 on the diagonal, −1 to each in-grid neighbour.
fn five_point(nx: usize, ny: usize) -> Csr {
    let mut a = Coo::new(nx * ny);
    for j in 0..ny {
        for i in 0..nx {
            let k = j * nx + i;
            a.add(k, k, 4.0);
            if i > 0 {
                a.add(k, k - 1, -1.0);
            }
            if i + 1 < nx {
                a.add(k, k + 1, -1.0);
            }
            if j > 0 {
                a.add(k, k - nx, -1.0);
            }
            if j + 1 < ny {
                a.add(k, k + nx, -1.0);
            }
        }
    }
    a.to_csr()
}

/// Every shape on 1, 3, 8 and 40 tasks of the paper's crossbar and of a
/// 4×4 torus: within relative ℓ2 1e-6 of the direct solve at tol 1e-8, and
/// bitwise the same iterations, residual and solution on all of them, since
/// the reduction contract makes the answer a function of the grid alone.
/// 1×17 and 17×1 are one grid row or column, 2×2 has fewer rows than most
/// crews have tasks, and 101×93 spans ten reduction chunks (nine whole ones
/// and a tail).
#[test]
fn plate_cg_matches_the_skyline_solve() {
    let machines = [
        ("fem2_default", MachineConfig::fem2_default()),
        (
            "4x4 torus",
            MachineConfig::clustered(16, 2, Topology::Torus { dims: vec![4, 4] }),
        ),
    ];
    let shapes = [
        (1, 17),
        (17, 1),
        (2, 2),
        (12, 12),
        (33, 7),
        (64, 64),
        (101, 93),
    ];
    for (nx, ny) in shapes {
        let n = nx * ny;
        let direct = skyline::solve(&five_point(nx, ny), &vec![1.0; n]).expect("SPD operator");
        let norm = direct.iter().map(|v| v * v).sum::<f64>().sqrt();
        let mut first: Option<(usize, u64, Vec<u64>)> = None;
        for (name, cfg) in &machines {
            for ntasks in [1, 3, 8, 40] {
                let what = format!("{nx}x{ny} on {ntasks} tasks of {name}");
                let mut vm = NaVm::simulated(cfg.clone(), ntasks);
                let cg = plate_cg(&mut vm, nx, ny, 1e-8, 5000);
                let (iters, res, x) = (cg.iterations, cg.residual, vm.snapshot(cg.x));
                assert!(cg.converged, "{what}: CG did not converge");
                let err = x
                    .iter()
                    .zip(&direct)
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum::<f64>()
                    .sqrt()
                    / norm;
                assert!(err <= 1e-6, "{what}: relative error {err:e}");
                let run = (
                    iters,
                    res.to_bits(),
                    x.iter().map(|v| v.to_bits()).collect(),
                );
                let want = first.get_or_insert_with(|| run.clone());
                assert_eq!(run.0, want.0, "{what}: iterations");
                assert_eq!(run.1, want.1, "{what}: residual bits");
                assert!(run.2 == want.2, "{what}: solution bits");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

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
            (vm.elapsed(), d.to_bits(), vm.machine().stats.total())
        };
        prop_assert_eq!(run(), run());
    }
}
