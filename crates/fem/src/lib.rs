//! # fem2-fem — the finite element substrate
//!
//! Everything the FEM-2 application user's virtual machine needs from the
//! finite element method, built from scratch: structure models, grid
//! generation, an element library, load sets, sparse assembly, direct and
//! iterative solvers (sequential and parallel), stress recovery,
//! substructuring, and mesh partitioning.
//!
//! The paper's application-level data objects map directly:
//!
//! | paper                       | here                          |
//! |-----------------------------|-------------------------------|
//! | structure/substructure model| [`model::StructuralModel`], [`substructure`] |
//! | grid description            | [`mesh::Mesh`] generators     |
//! | node/element description    | [`mesh::Node`], `element`     |
//! | load set                    | [`bc::LoadSet`]               |
//! | displacements of nodes      | [`model::Analysis::displacements`] |
//! | stresses on elements        | [`stress`]                    |
//!
//! and its operations (define model, generate grid, define elements, solve,
//! calculate stresses) are the methods of [`model::StructuralModel`].
//!
//! ## Solvers
//!
//! * [`solver::skyline`] — skyline (envelope) Cholesky, the direct method of
//!   choice on 1983-era FEM systems;
//! * [`solver::jacobi`], [`solver::sor`] — classic stationary iterations
//!   (the original Finite Element Machine ran Jacobi-style sweeps);
//! * [`solver::cg`] — conjugate gradients with optional Jacobi
//!   preconditioning;
//! * [`solver::parallel_cg`] — CG with matvec, dots and updates on a
//!   `fem2-par` pool; no solver choice reaches it, it stays for the repo
//!   benchmark's `par.cg_*` probe;
//! * `solver::ebe` — element-by-element CG: matrix-free, assembling
//!   nothing, the variant suited to small-memory PEs.

pub mod assembly;
pub mod bc;
pub(crate) mod dense;
pub(crate) mod element;
pub mod material;
pub mod mesh;
pub mod model;
pub mod partition;
pub(crate) mod renumber;
pub mod solver;
pub mod sparse;
pub mod stress;
pub mod substructure;

pub use assembly::{assemble, assemble_free};
pub use bc::{Constraints, LoadSet};
pub use material::Material;
pub use mesh::{Mesh, Node};
pub use model::{
    cantilever_plate, Analysis, SolverChoice, StructuralModel, JACOBI_ON_PLANE_STRESS,
};
pub use sparse::{Coo, Csr};

/// Degrees of freedom per node in the plane problems this crate solves.
pub(crate) const DOF_PER_NODE: usize = 2;
