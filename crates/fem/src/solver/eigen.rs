//! Smallest-eigenpair extraction by inverse power iteration.
//!
//! The structural question behind it: the fundamental vibration mode and
//! frequency of the model (with a unit mass matrix, `K·φ = λ·φ` and
//! `f = √λ / 2π`). Inverse iteration reuses the skyline factorization —
//! one factorization, one back-solve per iteration — which is exactly how
//! 1983-era FEM codes did it.

use crate::solver::skyline::Skyline;
use crate::sparse::Csr;

/// Result of an inverse-iteration run.
#[derive(Clone, Debug)]
pub(crate) struct EigenResult {
    /// The smallest eigenvalue of `K` (unit mass).
    pub(crate) lambda: f64,
    /// The corresponding eigenvector, normalized to unit 2-norm.
    pub(crate) mode: Vec<f64>,
}

/// Compute the smallest eigenpair of the SPD matrix `k` by inverse power
/// iteration. `tol` bounds the relative eigenvalue change between
/// iterations; an `Err` if it is not met within `max_iter` iterations.
pub(crate) fn smallest_eigenpair(
    k: &Csr,
    tol: f64,
    max_iter: usize,
) -> Result<EigenResult, String> {
    let n = k.order();
    if n == 0 {
        return Err("empty system".into());
    }
    let mut sky = Skyline::from_csr(k);
    sky.factorize()?;
    // Deterministic, non-degenerate start vector.
    let mut v: Vec<f64> = (0..n)
        .map(|i| 1.0 + ((i * 2654435761_usize) % 97) as f64 / 97.0)
        .collect();
    normalize(&mut v);
    let mut lambda = rayleigh(k, &v);
    let mut rel = f64::INFINITY;
    for _ in 0..max_iter {
        let mut w = sky.solve(&v);
        normalize(&mut w);
        let new_lambda = rayleigh(k, &w);
        rel = (new_lambda - lambda).abs() / new_lambda.abs().max(f64::MIN_POSITIVE);
        v = w;
        lambda = new_lambda;
        if rel < tol {
            return Ok(EigenResult { lambda, mode: v });
        }
    }
    Err(format!(
        "solver did not converge: {max_iter} iterations, eigenvalue change {rel:.3e}"
    ))
}

fn normalize(v: &mut [f64]) {
    let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
    if norm > 0.0 {
        for x in v.iter_mut() {
            *x /= norm;
        }
    }
}

fn rayleigh(k: &Csr, v: &[f64]) -> f64 {
    let mut kv = vec![0.0; v.len()];
    k.matvec(v, &mut kv);
    v.iter().zip(&kv).map(|(a, b)| a * b).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::testmat::laplacian_2d;

    #[test]
    fn laplacian_smallest_eigenvalue_matches_theory() {
        // 5-point Laplacian on an nx×nx grid (Dirichlet):
        // λmin = 8 sin²(π / (2(nx+1))).
        for nx in [4usize, 8, 12] {
            let a = laplacian_2d(nx);
            let r = smallest_eigenpair(&a, 1e-12, 500).unwrap();
            let theory = 8.0
                * (std::f64::consts::PI / (2.0 * (nx as f64 + 1.0)))
                    .sin()
                    .powi(2);
            assert!(
                (r.lambda - theory).abs() < 1e-8 * theory.max(1e-10),
                "nx={nx}: {} vs {}",
                r.lambda,
                theory
            );
            let mut kv = vec![0.0; a.order()];
            a.matvec(&r.mode, &mut kv);
            let residual = kv
                .iter()
                .zip(&r.mode)
                .map(|(k, v)| (k - r.lambda * v).powi(2))
                .sum::<f64>()
                .sqrt();
            assert!(residual < 1e-6, "residual {residual}");
        }
    }

    #[test]
    fn mode_is_normalized_and_positive_shape() {
        let a = laplacian_2d(6);
        let r = smallest_eigenpair(&a, 1e-12, 500).unwrap();
        let norm: f64 = r.mode.iter().map(|x| x * x).sum::<f64>().sqrt();
        assert!((norm - 1.0).abs() < 1e-12);
        // Fundamental mode of the Laplacian has one sign.
        let signs_positive = r.mode.iter().filter(|&&x| x > 0.0).count();
        assert!(
            signs_positive == 0 || signs_positive == r.mode.len(),
            "fundamental mode changes sign"
        );
    }

    #[test]
    fn indefinite_matrix_rejected() {
        let mut coo = crate::sparse::Coo::new(2);
        coo.add(0, 0, 1.0);
        coo.add(0, 1, 2.0);
        coo.add(1, 0, 2.0);
        coo.add(1, 1, 1.0);
        assert!(smallest_eigenpair(&coo.to_csr(), 1e-10, 100).is_err());
    }

    #[test]
    fn converges_quickly_on_well_separated_spectrum() {
        let a = laplacian_2d(8);
        assert!(smallest_eigenpair(&a, 1e-12, 100).is_ok());
    }

    #[test]
    fn running_out_of_iterations_is_an_error() {
        let a = laplacian_2d(8);
        let err = smallest_eigenpair(&a, 1e-12, 1).unwrap_err();
        assert!(err.starts_with("solver did not converge"), "{err}");
    }
}
