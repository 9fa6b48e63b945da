//! Element-by-element CG: matrix-free `K·p` evaluated as
//! `Σₑ scatter(Kₑ · gather(p))` — nothing is assembled.
//!
//! The variant suited to small-memory PEs (each PE holds only its element
//! matrices), and the memory/compute trade-off arm of the solver experiment:
//! it re-does the gather/scatter every iteration but stores `O(ne)` small
//! dense blocks instead of a global sparse matrix.

use crate::assembly::element_matrix;
use crate::element::ElementMatrix;
use crate::material::Material;
use crate::mesh::Mesh;
use crate::solver::{IterControls, SolveLog};
use crate::DOF_PER_NODE;

/// The element-by-element operator: element matrices plus the constraint
/// map from reduced (free) dofs to full dofs.
pub(crate) struct EbeOperator {
    elements: Vec<ElementMatrix>,
    /// Full dof count.
    full_dofs: usize,
    /// For each full dof, its reduced index or `usize::MAX` if fixed.
    to_reduced: Vec<usize>,
    /// Reduced dof count.
    reduced_dofs: usize,
}

impl EbeOperator {
    /// Build the operator from a mesh, material, and a set of fixed dofs
    /// (ascending `free` list as produced by
    /// [`crate::bc::Constraints::free_dofs`]).
    pub(crate) fn new(mesh: &Mesh, mat: &Material, free: &[usize]) -> Self {
        let full = mesh.node_count() * DOF_PER_NODE;
        let mut to_reduced = vec![usize::MAX; full];
        for (newi, &old) in free.iter().enumerate() {
            to_reduced[old] = newi;
        }
        let elements = (0..mesh.element_count())
            .map(|e| element_matrix(mesh, e, mat))
            .collect();
        EbeOperator {
            elements,
            full_dofs: full,
            to_reduced,
            reduced_dofs: free.len(),
        }
    }

    /// Reduced system order.
    pub(crate) fn order(&self) -> usize {
        self.reduced_dofs
    }

    /// `y ← K·x` on the reduced dofs, element by element.
    pub(crate) fn apply(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.reduced_dofs, "x length");
        assert_eq!(y.len(), self.reduced_dofs, "y length");
        // Expand to full, multiply per element, contract.
        let mut xf = vec![0.0; self.full_dofs];
        for (full, &red) in self.to_reduced.iter().enumerate() {
            if red != usize::MAX {
                xf[full] = x[red];
            }
        }
        y.fill(0.0);
        for em in &self.elements {
            let nd = em.dofs.len();
            for i in 0..nd {
                let gi = em.dofs[i];
                let ri = self.to_reduced[gi];
                if ri == usize::MAX {
                    continue;
                }
                let mut acc = 0.0;
                for j in 0..nd {
                    acc += em.k[(i, j)] * xf[em.dofs[j]];
                }
                y[ri] += acc;
            }
        }
    }
}

/// Solve the constrained system by CG with the EBE operator.
pub(crate) fn solve(op: &EbeOperator, f: &[f64], ctl: IterControls) -> (Vec<f64>, SolveLog) {
    let n = op.order();
    assert_eq!(f.len(), n, "f length");
    let fnorm = f.iter().map(|x| x * x).sum::<f64>().sqrt();
    let target = ctl.rel_tol * fnorm.max(f64::MIN_POSITIVE);
    let mut u = vec![0.0; n];
    let mut r = f.to_vec();
    let mut p = r.clone();
    let mut kp = vec![0.0; n];
    let mut rr: f64 = r.iter().map(|x| x * x).sum();
    let mut iters = 0;
    let mut res = rr.sqrt();
    let mut flops: u64 = 0;
    let per_apply: u64 = op
        .elements
        .iter()
        .map(|e| 2 * (e.dofs.len() * e.dofs.len()) as u64)
        .sum();
    while iters < ctl.max_iter && res > target {
        op.apply(&p, &mut kp);
        flops += per_apply;
        let pkp: f64 = p.iter().zip(&kp).map(|(a, b)| a * b).sum();
        if pkp <= 0.0 {
            break;
        }
        let alpha = rr / pkp;
        for i in 0..n {
            u[i] += alpha * p[i];
            r[i] -= alpha * kp[i];
        }
        let rr_new: f64 = r.iter().map(|x| x * x).sum();
        res = rr_new.sqrt();
        let beta = rr_new / rr;
        rr = rr_new;
        for i in 0..n {
            p[i] = r[i] + beta * p[i];
        }
        flops += 10 * n as u64;
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
    use crate::assembly::assemble_free;
    use crate::bc::Constraints;
    use crate::mesh::Mesh;

    fn cantilever() -> (Mesh, Material, Constraints) {
        let mesh = Mesh::grid_quad(6, 2, 3.0, 1.0);
        let mat = Material::steel();
        let mut c = Constraints::new();
        for n in mesh.left_edge_nodes(1e-9) {
            c.fix_node(n);
        }
        (mesh, mat, c)
    }

    #[test]
    fn ebe_apply_matches_assembled_matvec() {
        let (mesh, mat, c) = cantilever();
        let full = mesh.node_count() * crate::DOF_PER_NODE;
        let free = c.free_dofs(full);
        let op = EbeOperator::new(&mesh, &mat, &free);
        let k = assemble_free(&mesh, &mat, &free);
        let x: Vec<f64> = (0..op.order())
            .map(|i| ((i * 11) % 7) as f64 - 3.0)
            .collect();
        let mut y_ebe = vec![0.0; op.order()];
        op.apply(&x, &mut y_ebe);
        let mut y_csr = vec![0.0; op.order()];
        k.matvec(&x, &mut y_csr);
        for (a, b) in y_ebe.iter().zip(&y_csr) {
            assert!((a - b).abs() < 1e-3 * mat.e, "{a} vs {b}");
        }
    }

    #[test]
    fn ebe_cg_matches_assembled_cg() {
        let (mesh, mat, c) = cantilever();
        let full = mesh.node_count() * crate::DOF_PER_NODE;
        let free = c.free_dofs(full);
        let op = EbeOperator::new(&mesh, &mat, &free);
        let k = assemble_free(&mesh, &mat, &free);
        // Tip load.
        let tip = mesh.nearest_node(3.0, 0.5);
        let mut f_full = vec![0.0; full];
        f_full[2 * tip + 1] = -1000.0;
        let f = c.restrict(&f_full);
        let ctl = IterControls {
            rel_tol: 1e-10,
            max_iter: 50_000,
        };
        let (u_ebe, log_e) = solve(&op, &f, ctl);
        let (u_csr, log_c) = crate::solver::cg::solve(&k, &f, ctl, false);
        assert!(log_e.converged && log_c.converged);
        let scale = u_csr.iter().fold(0.0f64, |m, x| m.max(x.abs()));
        for (a, b) in u_ebe.iter().zip(&u_csr) {
            assert!((a - b).abs() < 1e-5 * scale);
        }
    }

    #[test]
    fn one_block_per_element() {
        let (mesh, mat, c) = cantilever();
        let full = mesh.node_count() * crate::DOF_PER_NODE;
        let free = c.free_dofs(full);
        let op = EbeOperator::new(&mesh, &mat, &free);
        assert_eq!(op.elements.len(), 12);
    }
}
