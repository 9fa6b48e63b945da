//! Solvers for the assembled (reduced) system `K·u = f`.
//!
//! Each solver reports a [`SolveLog`] so the benchmark harness can compare
//! iteration counts and flop estimates across methods (experiment E9, the
//! Adams–Voigt solver scenario).

pub mod cg;
pub(crate) mod ebe;
pub(crate) mod eigen;
pub mod jacobi;
pub mod parallel_cg;
pub mod skyline;
pub mod sor;

/// Convergence report of an iterative solve (or the cost summary of a
/// direct one).
#[derive(Clone, Debug, PartialEq)]
pub struct SolveLog {
    /// Iterations taken (1 for direct methods).
    pub iterations: usize,
    /// Final residual norm `‖f − K·u‖₂`.
    pub residual: f64,
    /// Whether the tolerance was met (always true for direct methods that
    /// succeed).
    pub converged: bool,
    /// Estimated floating-point operations performed.
    pub flops: u64,
}

/// Iteration controls shared by the iterative solvers.
#[derive(Clone, Copy, Debug)]
pub struct IterControls {
    /// Stop when `‖r‖₂ ≤ tol · ‖f‖₂`.
    pub rel_tol: f64,
    /// Hard iteration cap.
    pub max_iter: usize,
}

impl Default for IterControls {
    fn default() -> Self {
        IterControls {
            rel_tol: 1e-8,
            max_iter: 10_000,
        }
    }
}

/// Residual norm `‖f − K·u‖₂`.
pub fn residual_norm(k: &crate::sparse::Csr, u: &[f64], f: &[f64]) -> f64 {
    let mut ku = vec![0.0; u.len()];
    k.matvec(u, &mut ku);
    f.iter()
        .zip(&ku)
        .map(|(a, b)| (a - b) * (a - b))
        .sum::<f64>()
        .sqrt()
}

#[cfg(test)]
pub(crate) mod testmat {
    use crate::sparse::{Coo, Csr};

    /// The 2-D 5-point Laplacian on an `nx × nx` grid (SPD).
    pub(crate) fn laplacian_2d(nx: usize) -> Csr {
        let n = nx * nx;
        let mut coo = Coo::new(n);
        for j in 0..nx {
            for i in 0..nx {
                let r = j * nx + i;
                coo.add(r, r, 4.0);
                if i > 0 {
                    coo.add(r, r - 1, -1.0);
                }
                if i + 1 < nx {
                    coo.add(r, r + 1, -1.0);
                }
                if j > 0 {
                    coo.add(r, r - nx, -1.0);
                }
                if j + 1 < nx {
                    coo.add(r, r + nx, -1.0);
                }
            }
        }
        coo.to_csr()
    }

    /// A right-hand side with a known-ish rough shape.
    pub(crate) fn rhs(n: usize) -> Vec<f64> {
        (0..n).map(|i| ((i * 31 + 7) % 17) as f64 - 8.0).collect()
    }

    /// SplitMix64: the generator behind the bitwise-oracle tests' inputs.
    pub(crate) fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// `n` values of either sign with full mantissas and exponents spread
    /// over 2⁻⁶…2⁶, so that a sum taken in another order rounds differently.
    pub(crate) fn values(seed: u64, n: usize) -> Vec<f64> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                let z = splitmix(&mut state);
                let sign = if z & 1 == 0 { 1.0 } else { -1.0 };
                let exponent = ((z >> 1) % 13) as i32 - 6;
                let mantissa = 1.0 + (z >> 12) as f64 / (1u64 << 52) as f64;
                sign * mantissa * 2f64.powi(exponent)
            })
            .collect()
    }

    /// `got` and `want` equal bit for bit, entry by entry.
    pub(crate) fn assert_bits_eq(got: &[f64], want: &[f64], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "{what}: entry {i}: {g:e} vs {w:e}"
            );
        }
    }

    /// The reduced stiffness and load vector of `cantilever_plate(nx, ny)`:
    /// the plane-stress system `analyze` hands its solvers.
    pub(crate) fn reduced_cantilever(nx: usize, ny: usize) -> (Csr, Vec<f64>) {
        let m = crate::model::cantilever_plate(nx, ny, -1e4);
        let free = m.constraints.free_dofs(m.dof_count());
        let kr = crate::assembly::assemble_free(&m.mesh, &m.material, &free);
        let fr = m
            .constraints
            .restrict(&m.load_sets[0].to_vector(m.dof_count()));
        (kr, fr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use testmat::{laplacian_2d, rhs};

    #[test]
    fn residual_norm_zero_for_exact_solution() {
        let a = laplacian_2d(4);
        let x = vec![1.0; 16];
        let mut f = vec![0.0; 16];
        a.matvec(&x, &mut f);
        assert!(residual_norm(&a, &x, &f) < 1e-14);
    }

    #[test]
    fn all_iterative_solvers_agree() {
        let a = laplacian_2d(8);
        let f = rhs(64);
        let ctl = IterControls {
            rel_tol: 1e-10,
            max_iter: 100_000,
        };
        let (x_cg, _) = cg::solve(&a, &f, ctl, false);
        let (x_j, _) = jacobi::solve(&a, &f, ctl);
        let (x_sor, _) = sor::solve(&a, &f, 1.5, ctl);
        let x_sky = skyline::solve(&a, &f).unwrap();
        for i in 0..64 {
            assert!((x_cg[i] - x_sky[i]).abs() < 1e-6, "cg vs direct at {i}");
            assert!((x_j[i] - x_sky[i]).abs() < 1e-5, "jacobi vs direct at {i}");
            assert!((x_sor[i] - x_sky[i]).abs() < 1e-6, "sor vs direct at {i}");
        }
    }

    #[test]
    fn iteration_ordering_cg_beats_sor_beats_jacobi() {
        let a = laplacian_2d(16);
        let f = rhs(256);
        let ctl = IterControls::default();
        let (_, log_cg) = cg::solve(&a, &f, ctl, false);
        let (_, log_sor) = sor::solve(&a, &f, 1.7, ctl);
        let (_, log_j) = jacobi::solve(&a, &f, ctl);
        assert!(log_cg.converged && log_sor.converged && log_j.converged);
        assert!(
            log_cg.iterations < log_sor.iterations,
            "cg {} < sor {}",
            log_cg.iterations,
            log_sor.iterations
        );
        assert!(
            log_sor.iterations < log_j.iterations,
            "sor {} < jacobi {}",
            log_sor.iterations,
            log_j.iterations
        );
    }
}
