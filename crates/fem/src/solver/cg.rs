//! Conjugate gradients, optionally Jacobi-preconditioned.

use crate::solver::{IterControls, SolveLog};
use crate::sparse::Csr;

/// Solve `K·u = f` by (preconditioned) CG from a zero initial guess.
/// `jacobi_precond` enables the diagonal preconditioner.
pub fn solve(k: &Csr, f: &[f64], ctl: IterControls, jacobi_precond: bool) -> (Vec<f64>, SolveLog) {
    let n = k.order();
    assert_eq!(f.len(), n, "f length");
    let dinv: Option<Vec<f64>> = if jacobi_precond {
        let d = k.diagonal();
        assert!(
            d.iter().all(|&x| x > 0.0),
            "preconditioner needs positive diagonal"
        );
        Some(d.iter().map(|&x| 1.0 / x).collect())
    } else {
        None
    };
    let fnorm = f.iter().map(|x| x * x).sum::<f64>().sqrt();
    let target = ctl.rel_tol * fnorm.max(f64::MIN_POSITIVE);

    let mut u = vec![0.0; n];
    let mut r = f.to_vec();
    // z = M⁻¹r. Plain CG has z = r: r stands in for it, and r·z is r·r.
    let mut z: Vec<f64> = match &dinv {
        Some(di) => r.iter().zip(di).map(|(a, b)| a * b).collect(),
        None => Vec::new(),
    };
    let mut p = if dinv.is_some() { z.clone() } else { r.clone() };
    let mut rz: f64 = r.iter().zip(&p).map(|(a, b)| a * b).sum();
    let mut kp = vec![0.0; n];
    let mut flops: u64 = 2 * n as u64;
    let mut iters = 0;
    let mut res = fnorm;

    // `res > target` already ends the loop on NaN; `is_finite` ends it on
    // an overflowed r·r too, one step before the NaN it would turn into.
    while iters < ctl.max_iter && res > target && res.is_finite() {
        let pkp = k.matvec_dot(&p, &mut kp);
        flops += 2 * k.nnz() as u64;
        flops += 2 * n as u64;
        if pkp <= 0.0 {
            break; // not SPD (or breakdown)
        }
        let alpha = rz / pkp;
        // One pass moves u and r (and z with r); r·r and r·z are two
        // chains of their own, each summed from 0.0 in index order.
        let mut rr = 0.0;
        let mut rz_new = 0.0;
        let moved = u.iter_mut().zip(&p).zip(r.iter_mut().zip(&kp));
        match &dinv {
            Some(di) => {
                for (((ui, pi), (ri, kpi)), (zi, di)) in moved.zip(z.iter_mut().zip(di)) {
                    *ui += alpha * pi;
                    *ri -= alpha * kpi;
                    rr += *ri * *ri;
                    *zi = *ri * di;
                    rz_new += *ri * *zi;
                }
                flops += n as u64;
            }
            None => {
                for ((ui, pi), (ri, kpi)) in moved {
                    *ui += alpha * pi;
                    *ri -= alpha * kpi;
                    rr += *ri * *ri;
                }
                rz_new = rr;
            }
        }
        res = rr.sqrt();
        // The count is the algorithm's, whatever the host skips: two
        // updates, r·r, and r·z (for plain CG the same sum, not redone).
        flops += (4 + 2 + 2) * n as u64;
        let beta = rz_new / rz;
        rz = rz_new;
        for (pi, zi) in p.iter_mut().zip(if dinv.is_some() { &z } else { &r }) {
            *pi = zi + beta * *pi;
        }
        flops += 2 * n as u64;
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
    use crate::solver::testmat::{assert_bits_eq, laplacian_2d, reduced_cantilever, rhs, values};

    /// Oracle: the loop as it ran before the reductions were folded into
    /// the passes that produce their operands — a one-row matvec into a
    /// fresh `kp`, then `p·Kp`, `r·r` and `r·z` each as a walk of its own
    /// (plain CG keeping `z` as a copy of `r`).
    fn solve_oracle(
        k: &Csr,
        f: &[f64],
        ctl: IterControls,
        jacobi_precond: bool,
    ) -> (Vec<f64>, SolveLog) {
        let n = k.order();
        let dinv: Option<Vec<f64>> =
            jacobi_precond.then(|| k.diagonal().iter().map(|&x| 1.0 / x).collect());
        let fnorm = f.iter().map(|x| x * x).sum::<f64>().sqrt();
        let target = ctl.rel_tol * fnorm.max(f64::MIN_POSITIVE);
        let mut u = vec![0.0; n];
        let mut r = f.to_vec();
        let mut z: Vec<f64> = match &dinv {
            Some(di) => r.iter().zip(di).map(|(a, b)| a * b).collect(),
            None => r.clone(),
        };
        let mut p = z.clone();
        let mut rz: f64 = r.iter().zip(&z).map(|(a, b)| a * b).sum();
        let mut flops: u64 = 2 * n as u64;
        let mut iters = 0;
        let mut res = fnorm;
        while iters < ctl.max_iter && res > target {
            let mut kp = vec![0.0; n];
            for (row, out) in kp.iter_mut().enumerate() {
                for e in k.rowptr[row]..k.rowptr[row + 1] {
                    *out += k.vals[e] * p[k.colidx[e]];
                }
            }
            flops += 2 * k.nnz() as u64;
            let pkp: f64 = p.iter().zip(&kp).map(|(a, b)| a * b).sum();
            flops += 2 * n as u64;
            if pkp <= 0.0 {
                break;
            }
            let alpha = rz / pkp;
            for i in 0..n {
                u[i] += alpha * p[i];
                r[i] -= alpha * kp[i];
            }
            flops += 4 * n as u64;
            res = r.iter().map(|x| x * x).sum::<f64>().sqrt();
            flops += 2 * n as u64;
            match &dinv {
                Some(di) => {
                    for i in 0..n {
                        z[i] = r[i] * di[i];
                    }
                    flops += n as u64;
                }
                None => z.copy_from_slice(&r),
            }
            let rz_new: f64 = r.iter().zip(&z).map(|(a, b)| a * b).sum();
            flops += 2 * n as u64;
            let beta = rz_new / rz;
            rz = rz_new;
            for i in 0..n {
                p[i] = z[i] + beta * p[i];
            }
            flops += 2 * n as u64;
            iters += 1;
        }
        let log = SolveLog {
            iterations: iters,
            residual: res,
            converged: res <= target,
            flops,
        };
        (u, log)
    }

    /// Plain and Jacobi CG against the oracle: the same iteration count,
    /// residual bits, flops and displacement bits.
    fn assert_matches_oracle(k: &Csr, f: &[f64], ctl: IterControls, what: &str) {
        for precond in [false, true] {
            let (u, log) = solve(k, f, ctl, precond);
            let (u_want, want) = solve_oracle(k, f, ctl, precond);
            let what = format!("{what} (jacobi {precond})");
            assert_eq!(log.iterations, want.iterations, "{what}: iterations");
            assert_eq!(
                log.residual.to_bits(),
                want.residual.to_bits(),
                "{what}: residual"
            );
            assert_eq!(log.flops, want.flops, "{what}: flops");
            assert_eq!(log.converged, want.converged, "{what}: converged");
            assert_bits_eq(&u, &u_want, &what);
        }
    }

    #[test]
    fn matches_separate_reduction_oracle_bitwise() {
        let ctl = IterControls::default();
        let a = laplacian_2d(16);
        assert_matches_oracle(&a, &rhs(256), ctl, "laplacian");
        assert_matches_oracle(&a, &values(9, 256), ctl, "laplacian, rough rhs");
        let (kr, fr) = reduced_cantilever(12, 7);
        let log = solve(&kr, &fr, ctl, false).1;
        assert!(log.converged && log.iterations > 50, "{log:?}");
        assert_matches_oracle(&kr, &fr, ctl, "cantilever 12x7");
        // Stopped by the iteration cap, mid-descent.
        let capped = IterControls { max_iter: 7, ..ctl };
        assert_matches_oracle(&kr, &fr, capped, "cantilever, 7 iterations");
        // Nothing to do.
        assert_matches_oracle(&a, &[0.0; 256], ctl, "zero rhs");
    }

    #[test]
    fn breakdown_matches_separate_reduction_oracle_bitwise() {
        // p·Kp < 0 on the first step, on the second, and p·Kp = 0 exactly
        // (positive diagonals, so the Jacobi arm runs too): the same
        // break, the same log.
        let sym2 = |offdiag: f64| {
            let mut coo = crate::sparse::Coo::new(2);
            for (r, c, v) in [(0, 0, 1.0), (0, 1, offdiag), (1, 0, offdiag), (1, 1, 1.0)] {
                coo.add(r, c, v);
            }
            coo.to_csr()
        };
        let ctl = IterControls::default();
        assert_matches_oracle(&sym2(2.0), &[1.0, -1.0], ctl, "negative at once");
        assert_matches_oracle(&sym2(2.0), &[1.0, 0.0], ctl, "negative on step two");
        assert_matches_oracle(&sym2(1.0), &[1.0, -1.0], ctl, "p·Kp = 0");
        let (_, log) = solve(&sym2(2.0), &[1.0, 0.0], ctl, false);
        assert!(!log.converged && log.iterations == 1, "{log:?}");
    }

    #[test]
    fn converges_fast_on_laplacian() {
        let a = laplacian_2d(16);
        let f = rhs(256);
        let (u, log) = solve(&a, &f, IterControls::default(), false);
        assert!(log.converged);
        assert!(log.iterations <= 100, "{} iterations", log.iterations);
        assert!(residual_norm(&a, &u, &f) < 1e-5);
    }

    #[test]
    fn preconditioning_never_worse_much() {
        let a = laplacian_2d(16);
        let f = rhs(256);
        let ctl = IterControls::default();
        let (_, plain) = solve(&a, &f, ctl, false);
        let (_, pre) = solve(&a, &f, ctl, true);
        assert!(pre.converged && plain.converged);
        // Jacobi preconditioning on a constant-diagonal matrix is a no-op
        // up to scaling — iterations should be comparable.
        assert!(pre.iterations <= plain.iterations + 2);
    }

    #[test]
    fn exact_after_n_iterations_in_theory() {
        // Tiny system: CG converges in at most n steps.
        let a = laplacian_2d(3);
        let f = rhs(9);
        let ctl = IterControls {
            rel_tol: 1e-12,
            max_iter: 9,
        };
        let (u, log) = solve(&a, &f, ctl, false);
        assert!(log.converged, "{log:?}");
        assert!(residual_norm(&a, &u, &f) < 1e-9);
    }

    #[test]
    fn indefinite_matrix_breaks_down_gracefully() {
        let mut coo = crate::sparse::Coo::new(2);
        coo.add(0, 0, 1.0);
        coo.add(0, 1, 2.0);
        coo.add(1, 0, 2.0);
        coo.add(1, 1, 1.0);
        let a = coo.to_csr();
        let (_, log) = solve(&a, &[1.0, 0.0], IterControls::default(), false);
        assert!(!log.converged || log.residual.is_finite());
    }

    #[test]
    fn zero_rhs_zero_solution() {
        let a = laplacian_2d(4);
        let (u, log) = solve(&a, &[0.0; 16], IterControls::default(), false);
        assert_eq!(log.iterations, 0);
        assert!(u.iter().all(|&x| x == 0.0));
    }
}
