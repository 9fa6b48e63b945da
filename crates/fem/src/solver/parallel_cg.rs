//! Conjugate gradients with the matvec, dots, and vector updates on a
//! `fem2-par` pool.
//!
//! No product path calls this: as a `SolverChoice` it ran at 0.33× the
//! sequential [`crate::solver::cg`] on two threads (EXPERIMENTS.md A7,
//! PR 15 — a fork per vector operation) and was removed in PR 24. The
//! module, [`Csr::matvec_par`] and the `fem2-par` crate under them stay,
//! with their unit tests, solely because the repo benchmark's `par.cg_s` /
//! `par.cg_speedup` probe (`benchmark/src/fem.rs`) calls [`solve`]; they
//! go together once a `benchmark` issue moves that probe (ROADMAP 1(c),
//! (e)).
//!
//! Dot products use the pool's deterministic chunk-ordered reduction, so a
//! parallel solve and [`crate::solver::cg`] with the same inputs walk the
//! same iteration path up to the reduction tree difference (chunked vs
//! strictly sequential); the tests bound the divergence.

use crate::solver::{IterControls, SolveLog};
use crate::sparse::Csr;
use fem2_par::Pool;

const GRAIN: usize = 512;

fn par_dot(pool: &Pool, a: &[f64], b: &[f64]) -> f64 {
    let n = a.len();
    pool.map_reduce_index(
        0..n.div_ceil(GRAIN),
        1,
        |chunk| {
            let s = chunk * GRAIN;
            let e = (s + GRAIN).min(n);
            let mut acc = 0.0;
            for i in s..e {
                acc += a[i] * b[i];
            }
            acc
        },
        |x, y| x + y,
        0.0,
    )
}

/// Solve `K·u = f` by CG with all vector kernels parallel on `pool`.
pub fn solve(pool: &Pool, k: &Csr, f: &[f64], ctl: IterControls) -> (Vec<f64>, SolveLog) {
    let n = k.order();
    assert_eq!(f.len(), n, "f length");
    let fnorm = par_dot(pool, f, f).sqrt();
    let target = ctl.rel_tol * fnorm.max(f64::MIN_POSITIVE);

    let mut u = vec![0.0; n];
    let mut r = f.to_vec();
    let mut p = r.clone();
    let mut kp = vec![0.0; n];
    let mut rr = par_dot(pool, &r, &r);
    let mut flops: u64 = 2 * n as u64;
    let mut iters = 0;
    let mut res = rr.sqrt();

    while iters < ctl.max_iter && res > target {
        k.matvec_par(pool, &p, &mut kp);
        flops += 2 * k.nnz() as u64;
        let pkp = par_dot(pool, &p, &kp);
        flops += 2 * n as u64;
        if pkp <= 0.0 {
            break;
        }
        let alpha = rr / pkp;
        {
            let p_ref = &p;
            fem2_par::chunks_mut(pool, &mut u, GRAIN, |c, piece| {
                let base = c * GRAIN;
                for (i, v) in piece.iter_mut().enumerate() {
                    *v += alpha * p_ref[base + i];
                }
            });
            let kp_ref = &kp;
            fem2_par::chunks_mut(pool, &mut r, GRAIN, |c, piece| {
                let base = c * GRAIN;
                for (i, v) in piece.iter_mut().enumerate() {
                    *v -= alpha * kp_ref[base + i];
                }
            });
        }
        flops += 4 * n as u64;
        let rr_new = par_dot(pool, &r, &r);
        flops += 2 * n as u64;
        res = rr_new.sqrt();
        let beta = rr_new / rr;
        rr = rr_new;
        {
            let r_ref = &r;
            fem2_par::chunks_mut(pool, &mut p, GRAIN, |c, piece| {
                let base = c * GRAIN;
                for (i, v) in piece.iter_mut().enumerate() {
                    *v = r_ref[base + i] + beta * *v;
                }
            });
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
    use crate::solver::testmat::{laplacian_2d, rhs};

    #[test]
    fn parallel_cg_converges() {
        let a = laplacian_2d(24);
        let f = rhs(24 * 24);
        let pool = Pool::new(4);
        let (u, log) = solve(&pool, &a, &f, IterControls::default());
        assert!(log.converged, "{log:?}");
        assert!(residual_norm(&a, &u, &f) < 1e-5);
    }

    #[test]
    fn matches_sequential_cg_solution() {
        let a = laplacian_2d(16);
        let f = rhs(256);
        let ctl = IterControls {
            rel_tol: 1e-10,
            max_iter: 10_000,
        };
        let pool = Pool::new(4);
        let (u_par, _) = solve(&pool, &a, &f, ctl);
        let (u_seq, _) = crate::solver::cg::solve(&a, &f, ctl, false);
        for i in 0..256 {
            assert!(
                (u_par[i] - u_seq[i]).abs() < 1e-6,
                "at {i}: {} vs {}",
                u_par[i],
                u_seq[i]
            );
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let a = laplacian_2d(12);
        let f = rhs(144);
        let pool = Pool::new(4);
        let run = || solve(&pool, &a, &f, IterControls::default());
        let (u1, l1) = run();
        let (u2, l2) = run();
        assert_eq!(l1.iterations, l2.iterations);
        // Deterministic reductions: bitwise-identical solutions.
        for (a, b) in u1.iter().zip(&u2) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn thread_count_does_not_change_convergence() {
        let a = laplacian_2d(12);
        let f = rhs(144);
        let (u1, l1) = solve(&Pool::new(1), &a, &f, IterControls::default());
        let (u8, l8) = solve(&Pool::new(8), &a, &f, IterControls::default());
        assert_eq!(l1.iterations, l8.iterations);
        for (a, b) in u1.iter().zip(&u8) {
            assert_eq!(a.to_bits(), b.to_bits(), "grain-fixed reductions");
        }
    }
}
