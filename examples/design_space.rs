//! The FEM-2 design method, end to end.
//!
//! Prints the formal four-layer design document (every layer's data
//! objects, operations, control, and storage management, as the paper lists
//! them), then runs the design-iteration loop: every candidate hardware
//! organization is simulated against the plate workload, scored by
//! time × cost, and the trace shows the method converging on a clustered
//! organization — the paper's own outcome.
//!
//! Run with: `cargo run --release --example design_space`

// Demo binary: unwrap on infallible demo setup keeps the walkthrough readable.
#![allow(clippy::unwrap_used)]

use fem2_core::layers::design_document;
use fem2_core::DesignSpace;

fn main() {
    // ---- The formal design: four layers of virtual machine --------------
    println!("{}", design_document());

    // ---- The iteration loop ---------------------------------------------
    let space = DesignSpace::standard_sweep();
    let req = space.requirements;
    println!(
        "== design iteration: {0} user problems ({1}x{1}) + one {2}x{2} machine-wide problem, budget {3} ==\n",
        req.users, req.small_n, req.large_n, req.budget
    );
    println!(
        "evaluating {} candidate organizations...\n",
        space.candidates.len()
    );
    let trace = space.iterate();
    println!("{}", trace.table());

    let best = trace.best();
    println!(
        "selected organization: {}  (makespan {} cycles at cost {:.1})",
        best.config.describe(),
        best.makespan,
        best.cost
    );
    println!(
        "clusters: {}, PEs/cluster: {}, network: {}",
        best.config.clusters,
        best.config.pes_per_cluster,
        best.config.topology.name()
    );
    println!("\nconvergence of best-so-far makespan:");
    for (i, s) in trace.best_so_far.iter().enumerate() {
        if s.is_finite() {
            println!("  after candidate {:>2}: {:.3e} cycles", i + 1, s);
        } else {
            println!(
                "  after candidate {:>2}: (no feasible candidate yet)",
                i + 1
            );
        }
    }
}
