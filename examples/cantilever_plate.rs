//! Cantilever plate: the library API end-to-end, with a solver comparison.
//!
//! Builds a clamped plate under a tip load through `fem2-fem` directly,
//! solves it with every solver in the library (the Adams–Voigt solver
//! comparison of E9) and checks they agree. Speedup curves come from the
//! *simulated* FEM-2 plane — see the design_space example and
//! `fem2-report e2`.
//!
//! Run with: `cargo run --release --example cantilever_plate`

// Demo binary: unwrap on infallible demo setup keeps the walkthrough readable.
#![allow(clippy::unwrap_used)]

use fem2_core::fem::solver::skyline;
use fem2_core::fem::{assemble_free, cantilever_plate, SolverChoice};

fn main() {
    let model = cantilever_plate(40, 12, -50e3);
    println!(
        "cantilever plate: {} nodes, {} elements, {} dofs\n",
        model.mesh.node_count(),
        model.mesh.element_count(),
        model.dof_count()
    );

    // ---- Solver comparison on the same model ---------------------------
    println!(
        "{:<22} {:>10} {:>13} {:>14} {:>12}",
        "solver", "iters", "residual", "flops", "tip v"
    );
    let choices: Vec<(&str, SolverChoice)> = vec![
        ("skyline (direct)", SolverChoice::Skyline),
        ("cg", SolverChoice::Cg { tol: 1e-8 }),
        ("jacobi-pcg", SolverChoice::PreconditionedCg { tol: 1e-8 }),
        (
            "sor (w=1.6)",
            SolverChoice::Sor {
                omega: 1.6,
                tol: 1e-8,
            },
        ),
        (
            "element-by-element cg",
            SolverChoice::ElementByElement { tol: 1e-8 },
        ),
    ];
    let tip = model.mesh.nearest_node(40.0, 12.0);
    for (name, choice) in choices {
        match model.analyze(0, choice) {
            Ok(a) => {
                let (_, v) = a.node_displacement(tip);
                println!(
                    "{:<22} {:>10} {:>13.3e} {:>14} {:>12.5e}",
                    name, a.log.iterations, a.log.residual, a.log.flops, v
                );
            }
            Err(e) => println!("{name:<22} failed: {e}"),
        }
    }

    let free = model.constraints.free_dofs(model.dof_count());
    let kr = assemble_free(&model.mesh, &model.material, &free);
    let f = {
        let full = model.load_sets[0].to_vector(model.dof_count());
        model.constraints.restrict(&full)
    };
    // Direct solve residual as a cross-check.
    let x = skyline::solve(&kr, &f).expect("SPD system");
    let res = fem2_core::fem::solver::residual_norm(&kr, &x, &f);
    println!("\nskyline residual cross-check: {res:.3e}");
}
