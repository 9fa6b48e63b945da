//! The formal-specification machinery, visibly at work.
//!
//! Prints each layer's data-object grammar as BNF (the design document's
//! formal appendix), renders a live structural model as an H-graph —
//! textual and Graphviz DOT — checks it against the application layer's
//! grammar, then corrupts it and shows the conformance checker catching the
//! corruption. Ends with an H-graph *transform* (the formal model of an
//! operation) applied under pre/postconditions.
//!
//! Run with: `cargo run --example formal_spec`

// Demo binary: unwrap on infallible demo setup keeps the walkthrough readable.
#![allow(clippy::unwrap_used)]

use fem2_core::hgraph::prelude::*;
use fem2_core::hgraph::{to_dot, Transform};
use fem2_core::spec;
use fem2_core::Layer;
use fem2_fem::cantilever_plate;

fn main() {
    // ---- 1. Every layer's grammar, as BNF ------------------------------
    for layer in Layer::ALL {
        println!("== {} ==", layer.name());
        println!("{}", layer.grammar().to_bnf());
    }

    // ---- 2. A live model as an H-graph ----------------------------------
    let model = cantilever_plate(4, 2, -1e4);
    let h = spec::model_to_hgraph(&model);
    let g = h.root().expect("model graph");
    println!("== the model {:?} as an H-graph ==\n", model.name);
    println!("{}", h.render(g));
    println!("(Graphviz DOT, first lines)");
    for line in to_dot(&h, g).lines().take(8) {
        println!("  {line}");
    }
    println!();

    // ---- 3. Conformance, and corruption detection -----------------------
    let grammar = Layer::ApplicationUser.grammar();
    match grammar.graph_conforms(&h, g, "Model") {
        Ok(()) => println!("conformance: the live model parses as Model — OK"),
        Err(e) => println!("conformance: UNEXPECTED failure: {e}"),
    }
    let mut bad = h.clone();
    let entry = bad.entry(g).unwrap();
    let name = bad.follow(g, entry, &Selector::name("name")).unwrap();
    bad.set_value(name, Value::int(-1)); // a name must be a string
    match grammar.graph_conforms(&bad, g, "Model") {
        Ok(()) => println!("corruption: NOT detected (bug!)"),
        Err(e) => println!("corruption detected as expected: {e}"),
    }
    println!();

    // ---- 4. An operation as an H-graph transform ------------------------
    // "add a load set" modeled formally: pre Model, post Model.
    let add_load_set = Transform::new("add_load_set", |h| {
        let g = h.root().unwrap();
        let entry = h.entry(g).unwrap();
        let hub = h.follow(g, entry, &Selector::name("loads")).unwrap();
        let next_index = h.out_arcs(g, hub).count() as u64;
        let ls = h.add_node(g, Value::str("gust"));
        let count = h.add_node(g, Value::int(0));
        h.add_arc(g, ls, Selector::name("count"), count).unwrap();
        h.add_arc(g, hub, Selector::index(next_index), ls).unwrap();
        Ok(())
    })
    .with_pre(grammar.clone(), "Model")
    .with_post(grammar, "Model");
    let mut state = h.clone();
    match add_load_set.apply(&mut state) {
        Ok(()) => {
            println!(
                "transform {} applied under pre/post Model",
                add_load_set.name()
            );
            let hub = state
                .follow(g, state.entry(g).unwrap(), &Selector::name("loads"))
                .unwrap();
            println!(
                "load sets after transform: {} (was {})",
                state.out_arcs(g, hub).count(),
                h.out_arcs(g, hub).count()
            );
        }
        Err(e) => println!("transform failed: {e}"),
    }
}
