//! Successive over-relaxation (Gauss–Seidel for ω = 1).

use crate::solver::{IterControls, SolveLog};
use crate::sparse::Csr;

/// Solve `K·u = f` by SOR with relaxation factor `omega ∈ (0, 2)`, zero
/// initial guess.
pub fn solve(k: &Csr, f: &[f64], omega: f64, ctl: IterControls) -> (Vec<f64>, SolveLog) {
    let n = k.order();
    assert_eq!(f.len(), n, "f length");
    assert!(omega > 0.0 && omega < 2.0, "omega outside (0, 2)");
    let d = k.diagonal();
    assert!(
        d.iter().all(|&x| x != 0.0),
        "SOR requires a nonzero diagonal"
    );
    let fnorm = f.iter().map(|x| x * x).sum::<f64>().sqrt();
    let target = ctl.rel_tol * fnorm.max(f64::MIN_POSITIVE);
    let mut u = vec![0.0; n];
    let mut flops: u64 = 0;
    let mut iters = 0;
    let mut res = fnorm;
    while iters < ctl.max_iter {
        // As in Jacobi: a diverged sweep (ω too large for this matrix)
        // stops at its first non-finite residual, not at the cap.
        if res <= target || !res.is_finite() {
            break;
        }
        // One forward sweep.
        for i in 0..n {
            let mut sigma = 0.0;
            for p in k.rowptr[i]..k.rowptr[i + 1] {
                let j = k.colidx[p];
                if j != i {
                    sigma += k.vals[p] * u[j];
                }
            }
            u[i] += omega * ((f[i] - sigma) / d[i] - u[i]);
        }
        flops += 2 * k.nnz() as u64 + 4 * n as u64;
        // Residual (costed like a matvec).
        res = crate::solver::residual_norm(k, &u, f);
        flops += 2 * k.nnz() as u64 + 3 * n as u64;
        iters += 1;
    }
    let converged = res <= target;
    (
        u,
        SolveLog {
            iterations: iters,
            residual: res,
            converged,
            flops,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::residual_norm;
    use crate::solver::testmat::{laplacian_2d, rhs};

    #[test]
    fn gauss_seidel_converges() {
        let a = laplacian_2d(8);
        let f = rhs(64);
        let (u, log) = solve(&a, &f, 1.0, IterControls::default());
        assert!(log.converged);
        assert!(residual_norm(&a, &u, &f) < 1e-6);
    }

    #[test]
    fn over_relaxation_accelerates() {
        let a = laplacian_2d(16);
        let f = rhs(256);
        let ctl = IterControls::default();
        let (_, gs) = solve(&a, &f, 1.0, ctl);
        let (_, sor) = solve(&a, &f, 1.7, ctl);
        assert!(
            sor.iterations < gs.iterations,
            "sor {} < gs {}",
            sor.iterations,
            gs.iterations
        );
    }

    #[test]
    fn divergence_stops_at_the_first_non_finite_residual() {
        // Not positive definite (eigenvalues 4 and -2): Gauss-Seidel's
        // iteration matrix has spectral radius 9, so the iterate overflows
        // after a few hundred sweeps.
        let mut coo = crate::sparse::Coo::new(2);
        for (r, c, v) in [(0, 0, 1.0), (0, 1, 3.0), (1, 0, 3.0), (1, 1, 1.0)] {
            coo.add(r, c, v);
        }
        let ctl = IterControls {
            rel_tol: 1e-8,
            max_iter: 500_000,
        };
        let (_, log) = solve(&coo.to_csr(), &[1.0, 1.0], 1.0, ctl);
        assert!(!log.converged && !log.residual.is_finite(), "{log:?}");
        assert!(log.iterations > 0 && log.iterations < 1_000, "{log:?}");
    }

    #[test]
    #[should_panic(expected = "omega outside")]
    fn omega_range_checked() {
        let a = laplacian_2d(2);
        solve(&a, &[1.0; 4], 2.5, IterControls::default());
    }

    #[test]
    fn cap_respected() {
        let a = laplacian_2d(16);
        let f = rhs(256);
        let ctl = IterControls {
            rel_tol: 1e-15,
            max_iter: 3,
        };
        let (_, log) = solve(&a, &f, 1.0, ctl);
        assert_eq!(log.iterations, 3);
        assert!(!log.converged);
    }
}
