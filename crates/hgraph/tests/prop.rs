//! Property tests for the H-graph substrate.

// Test-only binary: unwrap is fine here, but the proptest! macro expands
// helpers outside #[test] fns, past `allow-unwrap-in-tests` detection.
#![allow(clippy::unwrap_used)]

use fem2_hgraph::prelude::*;
use proptest::prelude::*;

/// Build a random chain of `vals.len()` integer nodes linked by `next`.
fn chain(vals: &[i64]) -> (HGraph, GraphId, Vec<NodeId>) {
    let mut h = HGraph::new();
    let g = h.new_graph("chain");
    let nodes: Vec<NodeId> = vals.iter().map(|&v| h.add_node(g, Value::int(v))).collect();
    for w in nodes.windows(2) {
        h.add_arc(g, w[0], Selector::name("next"), w[1]).unwrap();
    }
    if let Some(&first) = nodes.first() {
        h.set_entry(g, first).unwrap();
    }
    (h, g, nodes)
}

fn list_grammar() -> Grammar {
    Grammar::builder("list")
        .rule("List", Shape::node(AtomKind::Int).arc_opt("next", "List"))
        .build()
        .unwrap()
}

proptest! {
    /// Every integer chain, of any length, is in the List language.
    #[test]
    fn any_int_chain_conforms(vals in proptest::collection::vec(any::<i64>(), 1..64)) {
        let (h, g, nodes) = chain(&vals);
        let gram = list_grammar();
        for &n in &nodes {
            prop_assert!(gram.node_conforms(&h, g, n, "List").is_ok());
        }
    }

    /// Corrupting any single node of the chain to a string breaks
    /// conformance for that node and every predecessor, but not successors.
    #[test]
    fn corruption_localizes(vals in proptest::collection::vec(any::<i64>(), 2..32),
                            idx in 0usize..31) {
        prop_assume!(idx < vals.len());
        let (mut h, g, nodes) = chain(&vals);
        h.set_value(nodes[idx], Value::str("corrupt"));
        let gram = list_grammar();
        for (i, &n) in nodes.iter().enumerate() {
            let ok = gram.node_conforms(&h, g, n, "List").is_ok();
            prop_assert_eq!(ok, i > idx, "node {} (corrupt at {})", i, idx);
        }
    }

    /// Rings of any size conform to the (required-arc) Ring production.
    #[test]
    fn any_ring_conforms(len in 1usize..48) {
        let mut h = HGraph::new();
        let g = h.new_graph("ring");
        let nodes: Vec<NodeId> = (0..len).map(|i| h.add_node(g, Value::int(i as i64))).collect();
        for i in 0..len {
            h.add_arc(g, nodes[i], Selector::name("next"), nodes[(i + 1) % len]).unwrap();
        }
        let gram = Grammar::builder("ring")
            .rule("Ring", Shape::node(AtomKind::Int).arc("next", "Ring"))
            .build()
            .unwrap();
        prop_assert!(gram.node_conforms(&h, g, nodes[0], "Ring").is_ok());
    }

    /// Dense indexed fans conform; a fan missing an interior index does not.
    #[test]
    fn indexed_fan_density(n in 2usize..32, gap in 1usize..31) {
        prop_assume!(gap < n - 1 || n == 2 && gap == 1);
        prop_assume!(gap < n);
        let gram = Grammar::builder("fan")
            .rule("Fan", Shape::node(AtomKind::Sym).arcs_indexed("Leaf"))
            .rule("Leaf", Shape::node(AtomKind::Int))
            .build()
            .unwrap();
        // A hub with indexed arcs to leaves 0..n, leaving out `skip`.
        let fan = |skip: Option<usize>| {
            let mut h = HGraph::new();
            let g = h.new_graph("fan");
            let hub = h.add_node(g, Value::sym("hub"));
            for i in (0..n).filter(|&i| Some(i) != skip) {
                let leaf = h.add_node(g, Value::int(i as i64));
                h.add_arc(g, hub, Selector::index(i as u64), leaf).unwrap();
            }
            (h, g, hub)
        };
        let (h, g, hub) = fan(None);
        prop_assert!(gram.node_conforms(&h, g, hub, "Fan").is_ok());
        // An interior index (never the last) left out -> gap -> fails.
        if gap < n - 1 {
            let (h, g, hub) = fan(Some(gap));
            prop_assert!(gram.node_conforms(&h, g, hub, "Fan").is_err());
        }
    }

    /// Grammar membership is stable under isomorphic relabeling: building
    /// the same logical structure with nodes allocated in any order gives
    /// the same conformance verdict.
    #[test]
    fn membership_stable_under_relabeling(
        vals in proptest::collection::vec(any::<i64>(), 2..24),
        seed in 0u64..1000,
    ) {
        let n = vals.len();
        // A pseudo-random allocation order (Fisher-Yates with xorshift).
        let mut order: Vec<usize> = (0..n).collect();
        let mut rng = seed.wrapping_mul(0x9E3779B97F4A7C15).max(1);
        for i in (1..n).rev() {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            order.swap(i, (rng % (i as u64 + 1)) as usize);
        }
        // Build the chain with nodes created in `order`, arcs by logical
        // position.
        let mut h = HGraph::new();
        let g = h.new_graph("perm");
        let mut ids = vec![None; n];
        for &logical in &order {
            ids[logical] = Some(h.add_node(g, Value::int(vals[logical])));
        }
        let ids: Vec<NodeId> = ids.into_iter().map(|x| x.unwrap()).collect();
        for w in ids.windows(2) {
            h.add_arc(g, w[0], Selector::name("next"), w[1]).unwrap();
        }
        let gram = list_grammar();
        // Same verdicts as the canonical build.
        let (hc, gc, idc) = chain(&vals);
        for k in 0..n {
            let a = gram.node_conforms(&h, g, ids[k], "List").is_ok();
            let b = gram.node_conforms(&hc, gc, idc[k], "List").is_ok();
            prop_assert_eq!(a, b, "position {}", k);
            prop_assert!(a, "chains always conform");
        }
    }

    /// Transform application is deterministic: applying the same transform
    /// sequence to equal states yields equal states.
    #[test]
    fn transforms_deterministic(vals in proptest::collection::vec(-1000i64..1000, 1..16),
                                reps in 1usize..8) {
        let double_all = Transform::new("double_all", |h| {
            let g = h.root().unwrap();
            let nodes: Vec<_> = h.nodes(g).to_vec();
            for n in nodes {
                if let Value::Atom(fem2_hgraph::Atom::Int(i)) = h.value(n).clone() {
                    h.set_value(n, Value::int(i.wrapping_mul(2)));
                }
            }
            Ok(())
        });
        let (mut h1, _, n1) = chain(&vals);
        let (mut h2, _, _) = chain(&vals);
        for _ in 0..reps {
            double_all.apply(&mut h1).unwrap();
            double_all.apply(&mut h2).unwrap();
        }
        for (i, &n) in n1.iter().enumerate() {
            let expect = vals[i].wrapping_mul(1i64.wrapping_shl(reps as u32));
            prop_assert_eq!(h1.value(n), &Value::int(expect));
            prop_assert_eq!(h1.value(n), h2.value(n));
        }
    }
}
