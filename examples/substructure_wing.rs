//! Substructure analysis of a wing-like plate.
//!
//! The paper's conclusion names "parallelism in the substructure analysis
//! of a larger structure" as one of the levels its design method exposes.
//! This example carves a long plate (a crude wing skin) into substructures,
//! condenses them by static condensation (two host threads share the
//! parts), solves the interface system, and verifies against the
//! monolithic direct solve.
//!
//! Run with: `cargo run --release --example substructure_wing`

// Demo binary: unwrap on infallible demo setup keeps the walkthrough readable.
#![allow(clippy::unwrap_used)]

use fem2_core::fem::bc::{Constraints, LoadSet};
use fem2_core::fem::partition::Partition;
use fem2_core::fem::solver::skyline;
use fem2_core::fem::substructure::analyze_substructures;
use fem2_core::fem::{assemble_free, Material, Mesh};
use std::time::Instant;

#[expect(
    clippy::disallowed_methods,
    reason = "the example prints host solve times beside its answers; nothing simulated reads them"
)]
fn main() {
    // A slender "wing" plate: 48 x 6 quads, clamped at the root.
    let mesh = Mesh::grid_quad(48, 6, 12.0, 1.5);
    let mat = Material::aluminum().with_thickness(0.004);
    let mut cons = Constraints::new();
    for n in mesh.left_edge_nodes(1e-9) {
        cons.fix_node(n);
    }
    // Lift-like load along the tip edge.
    let mut loads = LoadSet::new("lift");
    for n in mesh.right_edge_nodes(1e-9) {
        loads.add_node(n, 0.0, 800.0);
    }
    let ndof = mesh.node_count() * 2;
    let f = loads.to_vector(ndof);
    println!(
        "wing model: {} nodes, {} elements, {} dofs\n",
        mesh.node_count(),
        mesh.element_count(),
        ndof
    );

    // ---- Monolithic direct reference ------------------------------------
    let t0 = Instant::now();
    let free = cons.free_dofs(ndof);
    let kr = assemble_free(&mesh, &mat, &free);
    let fr = cons.restrict(&f);
    let ur = skyline::solve(&kr, &fr).expect("SPD");
    let u_ref = cons.expand(&ur, ndof);
    let t_direct = t0.elapsed();
    println!("monolithic skyline solve: {t_direct:.2?}");

    // ---- Substructured analyses -----------------------------------------
    println!(
        "\n{:>6} {:>12} {:>14} {:>12} {:>12}",
        "parts", "iface dofs", "max interior", "time", "max err"
    );
    for parts in [2, 4, 8, 12] {
        let part = Partition::strips_x(&mesh, parts);
        let t0 = Instant::now();
        let sol = analyze_substructures(&mesh, &mat, &cons, &part, &f);
        let dt = t0.elapsed();
        let scale = u_ref.iter().fold(0.0f64, |m, x| m.max(x.abs()));
        let err = sol
            .displacements
            .iter()
            .zip(&u_ref)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max)
            / scale.max(1e-30);
        println!(
            "{parts:>6} {:>12} {:>14} {:>12.2?} {:>12.2e}",
            sol.interface_dofs, sol.max_interior, dt, err
        );
    }

    // Tip deflection summary.
    let tip = mesh.nearest_node(12.0, 1.5);
    println!(
        "\ntip deflection (reference): v = {:.5e} m",
        u_ref[2 * tip + 1]
    );
}
