//! Jacobi iteration: `u⁽ᵏ⁺¹⁾ = u⁽ᵏ⁾ + D⁻¹(f − K·u⁽ᵏ⁾)`.
//!
//! The method the original Finite Element Machine was organized around —
//! every PE can update its own unknowns from neighbour values — and the
//! slow-but-parallel baseline of the solver comparison (E9).

use crate::solver::{IterControls, SolveLog};
use crate::sparse::Csr;

/// Solve `K·u = f` by Jacobi iteration from a zero initial guess.
///
/// Jacobi diverges when `D⁻¹K` has an eigenvalue above 2 (a Quad4
/// plane-stress plate does this). The solve then returns at the first
/// non-finite residual: `converged` is false, `residual` is the ∞ or NaN it
/// reached, and `iterations` is the sweep that produced it.
///
/// # Panics
/// Panics if the matrix has a zero diagonal entry.
pub fn solve(k: &Csr, f: &[f64], ctl: IterControls) -> (Vec<f64>, SolveLog) {
    let n = k.order();
    assert_eq!(f.len(), n, "f length");
    let d = k.diagonal();
    assert!(
        d.iter().all(|&x| x != 0.0),
        "Jacobi requires a nonzero diagonal"
    );
    let fnorm = f.iter().map(|x| x * x).sum::<f64>().sqrt();
    let target = ctl.rel_tol * fnorm.max(f64::MIN_POSITIVE);
    let mut u = vec![0.0; n];
    let mut ku = vec![0.0; n];
    let mut flops: u64 = 0;
    let mut res = fnorm;
    let mut iters = 0;
    while iters < ctl.max_iter {
        // A non-finite residual never compares `<= target`: a diverged
        // iteration stops here, at the sweep that overflowed, not at the cap.
        if res <= target || !res.is_finite() {
            break;
        }
        k.matvec(&u, &mut ku);
        flops += 2 * k.nnz() as u64;
        let mut r2 = 0.0;
        for i in 0..n {
            let r = f[i] - ku[i];
            r2 += r * r;
            u[i] += r / d[i];
        }
        flops += 4 * n as u64;
        res = r2.sqrt();
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
    use crate::solver::testmat::{laplacian_2d, reduced_cantilever, rhs};

    #[test]
    fn converges_on_spd_system() {
        let a = laplacian_2d(8);
        let f = rhs(64);
        let (u, log) = solve(&a, &f, IterControls::default());
        assert!(log.converged, "{log:?}");
        assert!(residual_norm(&a, &u, &f) <= 1e-6);
        assert!(log.flops > 0);
    }

    #[test]
    fn zero_rhs_converges_immediately() {
        let a = laplacian_2d(4);
        let (u, log) = solve(&a, &[0.0; 16], IterControls::default());
        assert_eq!(log.iterations, 0);
        assert!(u.iter().all(|&x| x == 0.0));
        assert!(log.converged);
    }

    #[test]
    fn iteration_cap_respected() {
        let a = laplacian_2d(16);
        let f = rhs(256);
        let ctl = IterControls {
            rel_tol: 1e-14,
            max_iter: 5,
        };
        let (_, log) = solve(&a, &f, ctl);
        assert_eq!(log.iterations, 5);
        assert!(!log.converged);
    }

    #[test]
    fn divergence_stops_at_the_first_non_finite_residual() {
        // The Quad4 cantilever's D⁻¹K has eigenvalues above 2: the iterate
        // grows geometrically and overflows within a few thousand sweeps.
        let (k, f) = reduced_cantilever(12, 7);
        let ctl = IterControls {
            rel_tol: 1e-8,
            max_iter: 500_000,
        };
        let (_, log) = solve(&k, &f, ctl);
        assert!(!log.converged, "{log:?}");
        assert!(!log.residual.is_finite(), "{log:?}");
        assert!(
            log.iterations > 0 && log.iterations < 20_000,
            "stopped at the overflow, not the cap: {log:?}"
        );
        // The log says which sweep: one fewer still had a finite residual.
        let before = IterControls {
            max_iter: log.iterations - 1,
            ..ctl
        };
        let (_, earlier) = solve(&k, &f, before);
        assert!(earlier.residual.is_finite(), "{earlier:?}");
        assert_eq!(earlier.iterations, log.iterations - 1);
    }

    #[test]
    #[should_panic(expected = "nonzero diagonal")]
    fn zero_diagonal_rejected() {
        let mut coo = crate::sparse::Coo::new(2);
        coo.add(0, 1, 1.0);
        coo.add(1, 0, 1.0);
        let a = coo.to_csr();
        solve(&a, &[1.0, 1.0], IterControls::default());
    }
}
