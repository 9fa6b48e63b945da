//! Structural models: the application user's top-level data object, tying a
//! grid, a material, supports, and load sets into one analyzable unit.

use crate::assembly::assemble;
use crate::bc::{Constraints, LoadSet};
use crate::material::Material;
use crate::mesh::Mesh;
use crate::solver::{self, IterControls, SolveLog};
use crate::stress::{all_stresses, Stress};
use crate::DOF_PER_NODE;
use serde::{Deserialize, Serialize};

/// Solver selection for [`StructuralModel::analyze`].
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
pub enum SolverChoice {
    /// Skyline Cholesky (direct).
    Skyline,
    /// Conjugate gradients with relative tolerance `tol`.
    Cg {
        /// Relative residual tolerance.
        tol: f64,
    },
    /// Jacobi-preconditioned CG.
    PreconditionedCg {
        /// Relative residual tolerance.
        tol: f64,
    },
    /// Point Jacobi iteration. [`StructuralModel::analyze`] refuses it
    /// ([`JACOBI_ON_PLANE_STRESS`]); the variant stays so a console
    /// `SOLVE WITH JACOBI` gets that answer rather than a parse error.
    Jacobi {
        /// Relative residual tolerance.
        tol: f64,
    },
    /// SOR with relaxation factor `omega`.
    Sor {
        /// Relaxation factor in (0, 2).
        omega: f64,
        /// Relative residual tolerance.
        tol: f64,
    },
    /// Element-by-element CG (matrix-free; nothing assembled).
    ElementByElement {
        /// Relative residual tolerance.
        tol: f64,
    },
}

/// What [`StructuralModel::analyze`] answers to [`SolverChoice::Jacobi`]. A
/// model is always 2-dof plane stress, whose stiffness is not diagonally
/// dominant: the iteration diverged on every Quad4 plate tried (2×1 …
/// 40×12), and only said so after running to a non-finite residual.
/// [`solver::jacobi::solve`] stays for systems it suits (E9's scalar
/// 5-point Laplacian).
pub const JACOBI_ON_PLANE_STRESS: &str =
    "point Jacobi refused: it diverges on plane-stress stiffness; use SOR, CG, PCG, EBE or SKYLINE";

/// The result of one analysis: displacements, stresses, and the solve log.
#[derive(Clone, Debug)]
pub struct Analysis {
    /// Full-length nodal displacements (zeros at supports).
    pub displacements: Vec<f64>,
    /// Per-element stresses.
    pub stresses: Vec<Stress>,
    /// Solver report.
    pub log: SolveLog,
}

impl Analysis {
    /// Displacement `(u, v)` of a node.
    pub fn node_displacement(&self, node: usize) -> (f64, f64) {
        (
            self.displacements[DOF_PER_NODE * node],
            self.displacements[DOF_PER_NODE * node + 1],
        )
    }

    /// Largest displacement magnitude over all nodes.
    pub fn max_displacement(&self) -> f64 {
        self.displacements
            .chunks(DOF_PER_NODE)
            .map(|uv| (uv[0] * uv[0] + uv[1] * uv[1]).sqrt())
            .fold(0.0, f64::max)
    }

    /// Largest von Mises stress over all elements.
    pub fn max_von_mises(&self) -> f64 {
        self.stresses
            .iter()
            .map(|s| s.von_mises())
            .fold(0.0, f64::max)
    }
}

/// A complete structural model: the "structure model" data object of the
/// application user's virtual machine.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct StructuralModel {
    /// Model name (database key).
    pub name: String,
    /// The grid.
    pub mesh: Mesh,
    /// Material/section properties.
    pub material: Material,
    /// Support conditions.
    pub constraints: Constraints,
    /// Load sets, by name.
    pub load_sets: Vec<LoadSet>,
}

impl StructuralModel {
    /// A new, empty model ("define structure model").
    pub fn new(name: impl Into<String>) -> Self {
        StructuralModel {
            name: name.into(),
            mesh: Mesh::new(),
            material: Material::steel(),
            constraints: Constraints::new(),
            load_sets: Vec::new(),
        }
    }

    /// Total degrees of freedom.
    pub fn dof_count(&self) -> usize {
        self.mesh.node_count() * DOF_PER_NODE
    }

    /// Add a load set; returns its index.
    pub fn add_load_set(&mut self, ls: LoadSet) -> usize {
        self.load_sets.push(ls);
        self.load_sets.len() - 1
    }

    /// Look up a load set by name.
    pub fn load_set(&self, name: &str) -> Option<&LoadSet> {
        self.load_sets.iter().find(|ls| ls.name == name)
    }

    /// Structural validity: mesh connectivity, material, and at least one
    /// support (otherwise the stiffness is singular).
    pub fn validate(&self) -> Result<(), String> {
        self.mesh.validate()?;
        self.material.validate()?;
        if self.mesh.element_count() == 0 {
            return Err("model has no elements".into());
        }
        if self.constraints.fixed_count() == 0 {
            return Err("model has no supports (singular stiffness)".into());
        }
        Ok(())
    }

    /// "Solve structure model/load set for displacements; calculate
    /// stresses": assemble, reduce, solve with `choice`, recover stresses.
    pub fn analyze(&self, load_set: usize, choice: SolverChoice) -> Result<Analysis, String> {
        self.validate()?;
        let ls = self
            .load_sets
            .get(load_set)
            .ok_or_else(|| format!("no load set {load_set}"))?;
        let f_full = ls.to_vector(self.dof_count());
        let free = self.constraints.free_dofs(self.dof_count());
        let fr = self.constraints.restrict(&f_full);
        // The reduced stiffness, for the solvers that read one; the
        // unreduced K is dropped as soon as it has been reduced.
        let reduced = || assemble(&self.mesh, &self.material).submatrix(&free);
        let (ur, log) = match choice {
            SolverChoice::Skyline => {
                let kr = reduced();
                let x = solver::skyline::solve(&kr, &fr)?;
                let res = solver::residual_norm(&kr, &x, &fr);
                let n = kr.order() as u64;
                (
                    x,
                    SolveLog {
                        iterations: 1,
                        residual: res,
                        converged: true,
                        flops: n * n, // envelope-dependent; order-of-magnitude
                    },
                )
            }
            SolverChoice::Cg { tol } => solver::cg::solve(
                &reduced(),
                &fr,
                IterControls {
                    rel_tol: tol,
                    max_iter: 100_000,
                },
                false,
            ),
            SolverChoice::PreconditionedCg { tol } => solver::cg::solve(
                &reduced(),
                &fr,
                IterControls {
                    rel_tol: tol,
                    max_iter: 100_000,
                },
                true,
            ),
            // Before anything is assembled or iterated.
            SolverChoice::Jacobi { .. } => return Err(JACOBI_ON_PLANE_STRESS.into()),
            SolverChoice::Sor { omega, tol } => solver::sor::solve(
                &reduced(),
                &fr,
                omega,
                IterControls {
                    rel_tol: tol,
                    max_iter: 200_000,
                },
            ),
            SolverChoice::ElementByElement { tol } => {
                let op = solver::ebe::EbeOperator::new(&self.mesh, &self.material, &free);
                solver::ebe::solve(
                    &op,
                    &fr,
                    IterControls {
                        rel_tol: tol,
                        max_iter: 100_000,
                    },
                )
            }
        };
        if !log.converged {
            return Err(format!(
                "solver did not converge: {} iterations, residual {:.3e}",
                log.iterations, log.residual
            ));
        }
        let u = self.constraints.expand(&ur, self.dof_count());
        let stresses = all_stresses(&self.mesh, &self.material, &u);
        Ok(Analysis {
            displacements: u,
            stresses,
            log,
        })
    }
}

impl StructuralModel {
    /// Solve by substructuring: partition into `parts` vertical strips,
    /// condense each, solve the interface system, back-substitute, and
    /// recover stresses.
    pub fn analyze_substructured(&self, load_set: usize, parts: usize) -> Result<Analysis, String> {
        self.validate()?;
        let ls = self
            .load_sets
            .get(load_set)
            .ok_or_else(|| format!("no load set {load_set}"))?;
        let f = ls.to_vector(self.dof_count());
        let part = crate::partition::Partition::strips_x(&self.mesh, parts);
        let sol = crate::substructure::analyze_substructures(
            &self.mesh,
            &self.material,
            &self.constraints,
            &part,
            &f,
        );
        let k = assemble(&self.mesh, &self.material);
        let free = self.constraints.free_dofs(self.dof_count());
        let kr = k.submatrix(&free);
        let fr = self.constraints.restrict(&f);
        let ur = self.constraints.restrict(&sol.displacements);
        let res = solver::residual_norm(&kr, &ur, &fr);
        let stresses = all_stresses(&self.mesh, &self.material, &sol.displacements);
        Ok(Analysis {
            displacements: sol.displacements,
            stresses,
            log: SolveLog {
                iterations: 1,
                residual: res,
                converged: true,
                flops: 0,
            },
        })
    }

    /// The fundamental (smallest) stiffness eigenvalue of the constrained
    /// model with a unit mass matrix, and its mode expanded to full length.
    /// The associated frequency is `sqrt(lambda) / 2 pi` in consistent
    /// units.
    pub fn fundamental_mode(&self) -> Result<(f64, Vec<f64>), String> {
        self.validate()?;
        let k = assemble(&self.mesh, &self.material);
        let free = self.constraints.free_dofs(self.dof_count());
        let kr = k.submatrix(&free);
        let r = solver::eigen::smallest_eigenpair(&kr, 1e-10, 1000)?;
        Ok((r.lambda, self.constraints.expand(&r.mode, self.dof_count())))
    }

    /// Renumber the model's mesh by RCM, rewriting constraints and load
    /// sets to the new numbering. Returns the bandwidth before and after.
    pub fn renumber_rcm(&mut self) -> (usize, usize) {
        let before = self.mesh.half_bandwidth();
        let (mesh, perm) = self.mesh.rcm();
        let mut newpos = vec![0usize; perm.len()];
        for (new, &old) in perm.iter().enumerate() {
            newpos[old] = new;
        }
        // Rewrite constraints.
        let mut cons = Constraints::new();
        for dof in 0..self.dof_count() {
            if self.constraints.is_fixed(dof) {
                let (node, comp) = (dof / crate::DOF_PER_NODE, dof % crate::DOF_PER_NODE);
                cons.fix_component(newpos[node], comp);
            }
        }
        // Rewrite load sets.
        let mut load_sets = Vec::with_capacity(self.load_sets.len());
        for ls in &self.load_sets {
            let f = ls.to_vector(self.dof_count());
            let mut nls = LoadSet::new(&ls.name);
            for (dof, &v) in f.iter().enumerate() {
                if v != 0.0 {
                    let (node, comp) = (dof / crate::DOF_PER_NODE, dof % crate::DOF_PER_NODE);
                    nls.add_dof(crate::DOF_PER_NODE * newpos[node] + comp, v);
                }
            }
            load_sets.push(nls);
        }
        self.mesh = mesh;
        self.constraints = cons;
        self.load_sets = load_sets;
        (before, self.mesh.half_bandwidth())
    }
}

/// A ready-made cantilever plate model: left edge clamped, tip load at the
/// free corner. The canonical workload of the experiments.
pub fn cantilever_plate(nx: usize, ny: usize, tip_load: f64) -> StructuralModel {
    let mut m = StructuralModel::new(format!("cantilever_{nx}x{ny}"));
    m.mesh = Mesh::grid_quad(nx, ny, nx as f64, ny as f64);
    m.material = Material::steel();
    for n in m.mesh.left_edge_nodes(1e-9) {
        m.constraints.fix_node(n);
    }
    let mut ls = LoadSet::new("tip");
    let tip = m.mesh.nearest_node(nx as f64, ny as f64);
    ls.add_node(tip, 0.0, tip_load);
    m.add_load_set(ls);
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cantilever_analyzes_with_every_solver() {
        let m = cantilever_plate(6, 2, -1e4);
        let choices = [
            SolverChoice::Skyline,
            SolverChoice::Cg { tol: 1e-10 },
            SolverChoice::PreconditionedCg { tol: 1e-10 },
            SolverChoice::Sor {
                omega: 1.6,
                tol: 1e-10,
            },
        ];
        let reference = m.analyze(0, SolverChoice::Skyline).unwrap();
        let scale = reference.max_displacement();
        assert!(scale > 0.0);
        for c in choices {
            let a = m.analyze(0, c).unwrap();
            for (x, y) in a.displacements.iter().zip(&reference.displacements) {
                assert!((x - y).abs() < 1e-4 * scale, "{c:?}");
            }
        }
    }

    #[test]
    fn tip_deflects_downward_under_downward_load() {
        let m = cantilever_plate(8, 2, -1e4);
        let a = m.analyze(0, SolverChoice::Skyline).unwrap();
        let tip = m.mesh.nearest_node(8.0, 2.0);
        let (_, v) = a.node_displacement(tip);
        assert!(v < 0.0, "tip v = {v}");
        // Clamped edge does not move.
        for n in m.mesh.left_edge_nodes(1e-9) {
            assert_eq!(a.node_displacement(n), (0.0, 0.0));
        }
    }

    #[test]
    fn deflection_grows_with_span() {
        let short = cantilever_plate(4, 2, -1e4)
            .analyze(0, SolverChoice::Skyline)
            .unwrap();
        let long = cantilever_plate(12, 2, -1e4)
            .analyze(0, SolverChoice::Skyline)
            .unwrap();
        assert!(long.max_displacement() > 5.0 * short.max_displacement());
    }

    #[test]
    fn stress_concentrates_at_the_root() {
        let m = cantilever_plate(10, 3, -1e5);
        let a = m.analyze(0, SolverChoice::Skyline).unwrap();
        // Highest-stress element should sit in the clamped third.
        let (worst, _) = a
            .stresses
            .iter()
            .enumerate()
            .max_by(|(_, s), (_, t)| s.von_mises().partial_cmp(&t.von_mises()).unwrap())
            .unwrap();
        let el = &m.mesh.elements[worst];
        let cx = el.nodes.iter().map(|&n| m.mesh.nodes[n].x).sum::<f64>() / 4.0;
        assert!(cx < 10.0 / 3.0, "worst element centroid x = {cx}");
    }

    #[test]
    fn unsupported_model_rejected() {
        let mut m = StructuralModel::new("floating");
        m.mesh = Mesh::grid_quad(2, 2, 1.0, 1.0);
        m.add_load_set(LoadSet::new("none"));
        assert!(m.analyze(0, SolverChoice::Skyline).is_err());
    }

    #[test]
    fn missing_load_set_rejected() {
        let m = cantilever_plate(2, 2, -1.0);
        assert!(m.analyze(5, SolverChoice::Skyline).is_err());
    }

    #[test]
    fn load_set_lookup_by_name() {
        let m = cantilever_plate(2, 2, -1.0);
        assert!(m.load_set("tip").is_some());
        assert!(m.load_set("gust").is_none());
    }

    #[test]
    fn ebe_solver_choice_matches_direct() {
        let m = cantilever_plate(5, 2, -1e4);
        let direct = m.analyze(0, SolverChoice::Skyline).unwrap();
        let ebe = m
            .analyze(0, SolverChoice::ElementByElement { tol: 1e-10 })
            .unwrap();
        let scale = direct.max_displacement();
        for (a, b) in ebe.displacements.iter().zip(&direct.displacements) {
            assert!((a - b).abs() < 1e-5 * scale);
        }
    }

    #[test]
    fn ebe_cg_matches_assembled_cg_through_analyze() {
        // The matrix-free arm assembles no global K, yet walks the path
        // the assembled CG walks: the same operator summed in another
        // order.
        let m = cantilever_plate(9, 4, -2e4);
        let tol = 1e-10;
        let cg = m.analyze(0, SolverChoice::Cg { tol }).unwrap();
        let ebe = m
            .analyze(0, SolverChoice::ElementByElement { tol })
            .unwrap();
        assert!(cg.log.converged && ebe.log.converged);
        assert!(cg.log.iterations.abs_diff(ebe.log.iterations) <= 2);
        let scale = cg.max_displacement();
        for (a, b) in ebe.displacements.iter().zip(&cg.displacements) {
            assert!((a - b).abs() < 1e-7 * scale, "{a} vs {b}");
        }
    }

    #[test]
    fn substructured_analysis_matches_direct() {
        let m = cantilever_plate(8, 2, -1e4);
        let direct = m.analyze(0, SolverChoice::Skyline).unwrap();
        let sub = m.analyze_substructured(0, 4).unwrap();
        let scale = direct.max_displacement();
        for (a, b) in sub.displacements.iter().zip(&direct.displacements) {
            assert!((a - b).abs() < 1e-7 * scale);
        }
        assert!(sub.log.converged);
        assert!(sub.log.residual < 1e-5 * scale * m.material.e);
    }

    #[test]
    fn fundamental_mode_positive_and_supported() {
        let m = cantilever_plate(6, 2, -1.0);
        let (lambda, mode) = m.fundamental_mode().unwrap();
        assert!(lambda > 0.0, "SPD stiffness");
        // Mode vanishes at supports.
        for n in m.mesh.left_edge_nodes(1e-9) {
            assert_eq!(mode[2 * n], 0.0);
            assert_eq!(mode[2 * n + 1], 0.0);
        }
        // Longer cantilever is more flexible: smaller lambda.
        let long = cantilever_plate(12, 2, -1.0);
        let (lambda_long, _) = long.fundamental_mode().unwrap();
        assert!(lambda_long < lambda);
    }

    #[test]
    fn renumber_rcm_preserves_the_solution() {
        let mut m = cantilever_plate(8, 3, -2e4);
        let before = m.analyze(0, SolverChoice::Skyline).unwrap();
        let (hb_before, hb_after) = m.renumber_rcm();
        assert!(hb_after <= 2 * hb_before);
        let after = m.analyze(0, SolverChoice::Skyline).unwrap();
        // Physical invariants survive renumbering.
        assert!(
            (before.max_displacement() - after.max_displacement()).abs()
                < 1e-9 * before.max_displacement()
        );
        assert!(
            (before.max_von_mises() - after.max_von_mises()).abs() < 1e-6 * before.max_von_mises()
        );
    }

    /// The constant-stress patch test through `analyze`, on `mesh` (4 m ×
    /// 3 m on a 1 m lattice) with every interior node moved up to 0.15 m
    /// off the lattice: left edge on rollers, the bottom-left node pinned
    /// against vertical movement, a uniform traction `s` on the right edge
    /// as consistent nodal forces. Every element must carry σxx = s and no
    /// other stress, and every node sit where plane stress puts it:
    /// u = s·x/E, v = −ν·s·y/E.
    fn assert_passes_patch_test(mut mesh: Mesh) {
        for (i, n) in mesh.nodes.iter_mut().enumerate() {
            if n.x > 0.0 && n.x < 4.0 && n.y > 0.0 && n.y < 3.0 {
                n.x += 0.075 * ((i * 7 % 5) as f64 - 2.0);
                n.y += 0.075 * ((i * 3 % 5) as f64 - 2.0);
            }
        }
        let s = 1e6;
        let mut m = StructuralModel::new("patch");
        m.mesh = mesh;
        for n in m.mesh.left_edge_nodes(1e-12) {
            m.constraints.fix_component(n, 0);
        }
        m.constraints
            .fix_component(m.mesh.nearest_node(0.0, 0.0), 1);
        let mut edge = m.mesh.right_edge_nodes(1e-12);
        edge.sort_by(|&a, &b| m.mesh.nodes[a].y.total_cmp(&m.mesh.nodes[b].y));
        let mut ls = LoadSet::new("traction");
        for pair in edge.windows(2) {
            let h = m.mesh.nodes[pair[1]].y - m.mesh.nodes[pair[0]].y;
            ls.add_node(pair[0], s * m.material.thickness * h / 2.0, 0.0);
            ls.add_node(pair[1], s * m.material.thickness * h / 2.0, 0.0);
        }
        m.add_load_set(ls);

        let a = m.analyze(0, SolverChoice::Skyline).unwrap();
        let near = |got: f64, want: f64, scale: f64| (got - want).abs() <= 1e-9 * scale;
        for (e, st) in a.stresses.iter().enumerate() {
            let exact = near(st.sx, s, s) && near(st.sy, 0.0, s) && near(st.txy, 0.0, s);
            assert!(exact, "element {e}: {st:?}");
        }
        let (e, nu, scale) = (m.material.e, m.material.nu, s * 4.0 / m.material.e);
        for (i, n) in m.mesh.nodes.iter().enumerate() {
            let (u, v) = a.node_displacement(i);
            let exact = near(u, s * n.x / e, scale) && near(v, -nu * s * n.y / e, scale);
            assert!(exact, "node {i} at ({}, {}): ({u:e}, {v:e})", n.x, n.y);
        }
    }

    #[test]
    fn quad4_passes_the_constant_stress_patch_test() {
        assert_passes_patch_test(Mesh::grid_quad(4, 3, 4.0, 3.0));
    }

    #[test]
    fn tri3_passes_the_constant_stress_patch_test() {
        assert_passes_patch_test(Mesh::grid_tri(4, 3, 4.0, 3.0));
    }

    #[test]
    fn model_serde_roundtrip() {
        let m = cantilever_plate(3, 2, -5.0);
        let json = serde_json::to_string(&m).unwrap();
        let back: StructuralModel = serde_json::from_str(&json).unwrap();
        assert_eq!(m, back);
    }
}
