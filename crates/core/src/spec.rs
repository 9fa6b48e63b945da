//! Formal specifications: H-graph grammars per layer, and converters that
//! render *live* runtime state as H-graphs.
//!
//! This is the step the paper calls out as novel: "each layer of virtual
//! machine is formally specified during the design process, using the
//! methods of H-graph semantics". Here the specification is also *checked*:
//! integration tests take real objects — a [`StructuralModel`], a
//! [`WindowDescriptor`], a [`KernelSim`] task population, a
//! [`MachineConfig`] — convert them to H-graphs, and require conformance to
//! the layer grammar.

use fem2_appvm as _; // layer realized by the appvm crate; models come from fem
use fem2_fem::StructuralModel;
use fem2_hgraph::{AtomKind, Grammar, HGraph, Selector, Shape, Value};
use fem2_kernel::window_desc::WindowDescriptor;
use fem2_kernel::{KernelSim, ReplyTo, TaskState};
use fem2_machine::MachineConfig;
use std::sync::Arc;

/// Grammar of the application user's data objects: the structural model as
/// stored in the workspace/database.
pub(crate) fn app_grammar() -> Arc<Grammar> {
    Arc::new(
        Grammar::builder("app-user data objects")
            .rule("Model", Shape::graph_entry("ModelNode"))
            .rule(
                "ModelNode",
                Shape::node(AtomKind::SymExact("model".into()))
                    .arc("name", "Name")
                    .arc("nodes", "Count")
                    .arc("elements", "Count")
                    .arc("fixed_dofs", "Count")
                    .arc("loads", "LoadsHub"),
            )
            .rule("Name", Shape::node(AtomKind::Str))
            .rule("Count", Shape::node(AtomKind::Int))
            .rule(
                "LoadsHub",
                Shape::node(AtomKind::SymExact("loads".into())).arcs_indexed("LoadSetNode"),
            )
            .rule(
                "LoadSetNode",
                Shape::node(AtomKind::Str).arc("count", "Count"),
            )
            .build()
            .expect("app grammar well-formed"),
    )
}

/// Render a structural model as an H-graph in the app-layer shape.
pub fn model_to_hgraph(m: &StructuralModel) -> HGraph {
    let mut h = HGraph::new();
    let g = h.new_graph(format!("model:{}", m.name));
    let root = h.add_node(g, Value::sym("model"));
    h.set_entry(g, root)
        .expect("fresh graph construction cannot collide");
    let name = h.add_node(g, Value::str(m.name.clone()));
    let nodes = h.add_node(g, Value::int(m.mesh.node_count() as i64));
    let elems = h.add_node(g, Value::int(m.mesh.element_count() as i64));
    let fixed = h.add_node(g, Value::int(m.constraints.fixed_count() as i64));
    let hub = h.add_node(g, Value::sym("loads"));
    h.add_arc(g, root, Selector::name("name"), name)
        .expect("fresh graph construction cannot collide");
    h.add_arc(g, root, Selector::name("nodes"), nodes)
        .expect("fresh graph construction cannot collide");
    h.add_arc(g, root, Selector::name("elements"), elems)
        .expect("fresh graph construction cannot collide");
    h.add_arc(g, root, Selector::name("fixed_dofs"), fixed)
        .expect("fresh graph construction cannot collide");
    h.add_arc(g, root, Selector::name("loads"), hub)
        .expect("fresh graph construction cannot collide");
    for (i, ls) in m.load_sets.iter().enumerate() {
        let lsn = h.add_node(g, Value::str(ls.name.clone()));
        let count = h.add_node(g, Value::int(ls.len() as i64));
        h.add_arc(g, lsn, Selector::name("count"), count)
            .expect("fresh graph construction cannot collide");
        h.add_arc(g, hub, Selector::index(i as u64), lsn)
            .expect("fresh graph construction cannot collide");
    }
    h
}

/// Grammar of the numerical analyst's data objects: window descriptors.
pub(crate) fn navm_grammar() -> Arc<Grammar> {
    Arc::new(
        Grammar::builder("numerical-analyst data objects")
            .rule("Window", Shape::graph_entry("WinNode"))
            .rule(
                "WinNode",
                Shape::node(AtomKind::SymExact("window".into()))
                    .arc("array", "Count")
                    .arc("row0", "Count")
                    .arc("row1", "Count")
                    .arc("col0", "Count")
                    .arc("col1", "Count")
                    .arc("owner", "Count")
                    .arc("cluster", "Count"),
            )
            .rule("Count", Shape::node(AtomKind::Int))
            .build()
            .expect("navm grammar well-formed"),
    )
}

/// Render a window descriptor as an H-graph.
pub fn window_to_hgraph(w: &WindowDescriptor) -> HGraph {
    let mut h = HGraph::new();
    let g = h.new_graph("window");
    let root = h.add_node(g, Value::sym("window"));
    h.set_entry(g, root)
        .expect("fresh graph construction cannot collide");
    let fields: [(&str, i64); 7] = [
        ("array", w.array as i64),
        ("row0", w.row0 as i64),
        ("row1", w.row1 as i64),
        ("col0", w.col0 as i64),
        ("col1", w.col1 as i64),
        ("owner", w.owner.0 as i64),
        ("cluster", w.owner_cluster as i64),
    ];
    for (name, v) in fields {
        let n = h.add_node(g, Value::int(v));
        h.add_arc(g, root, Selector::name(name), n)
            .expect("fresh graph construction cannot collide");
    }
    h
}

/// Grammar of the system programmer's data objects: the task population
/// (activation records with legal states).
pub(crate) fn kernel_grammar() -> Arc<Grammar> {
    Arc::new(
        Grammar::builder("system-programmer data objects")
            .rule("Tasks", Shape::graph_entry("TaskHub"))
            .rule(
                "TaskHub",
                Shape::node(AtomKind::SymExact("tasks".into())).arcs_indexed("TaskNode"),
            )
            .rule("TaskNode", task_shape("ready"))
            .rule("TaskNode", task_shape("running"))
            .rule("TaskNode", task_shape("paused"))
            .rule("TaskNode", task_shape("done"))
            .rule("Count", Shape::node(AtomKind::Int))
            .build()
            .expect("kernel grammar well-formed"),
    )
}

fn task_shape(state: &str) -> Shape {
    Shape::node(AtomKind::SymExact(state.into()))
        .arc("cluster", "Count")
        .arc_opt("parent", "Count")
}

/// Render a kernel's task population as an H-graph.
pub fn kernel_tasks_to_hgraph(k: &KernelSim) -> HGraph {
    let mut h = HGraph::new();
    let g = h.new_graph("tasks");
    let hub = h.add_node(g, Value::sym("tasks"));
    h.set_entry(g, hub)
        .expect("fresh graph construction cannot collide");
    for i in 0..k.task_count() {
        let rec = k.task(fem2_kernel::TaskId(i as u64));
        let state = match rec.state {
            TaskState::Ready => "ready",
            TaskState::Running => "running",
            TaskState::Paused => "paused",
            TaskState::Done => "done",
        };
        let tn = h.add_node(g, Value::sym(state));
        let cl = h.add_node(g, Value::int(rec.cluster as i64));
        h.add_arc(g, tn, Selector::name("cluster"), cl)
            .expect("fresh graph construction cannot collide");
        if let ReplyTo::Parent(p) = rec.reply_to {
            let pn = h.add_node(g, Value::int(p.0 as i64));
            h.add_arc(g, tn, Selector::name("parent"), pn)
                .expect("fresh graph construction cannot collide");
        }
        h.add_arc(g, hub, Selector::index(i as u64), tn)
            .expect("fresh graph construction cannot collide");
    }
    h
}

/// Grammar of the hardware layer: the machine organization.
pub(crate) fn hw_grammar() -> Arc<Grammar> {
    Arc::new(
        Grammar::builder("hardware organization")
            .rule("Machine", Shape::graph_entry("MachineNode"))
            .rule(
                "MachineNode",
                Shape::node(AtomKind::SymExact("machine".into()))
                    .arc("topology", "Tag")
                    .arcs_indexed("ClusterNode"),
            )
            .rule(
                "ClusterNode",
                Shape::node(AtomKind::SymExact("cluster".into()))
                    .arc("pes", "Count")
                    .arc("memory", "Count"),
            )
            .rule("Tag", Shape::node(AtomKind::Sym))
            .rule("Count", Shape::node(AtomKind::Int))
            .build()
            .expect("hw grammar well-formed"),
    )
}

/// Render a machine configuration as an H-graph.
pub fn machine_to_hgraph(cfg: &MachineConfig) -> HGraph {
    let mut h = HGraph::new();
    let g = h.new_graph("machine");
    let root = h.add_node(g, Value::sym("machine"));
    h.set_entry(g, root)
        .expect("fresh graph construction cannot collide");
    let topo = h.add_node(g, Value::sym(cfg.topology.name()));
    h.add_arc(g, root, Selector::name("topology"), topo)
        .expect("fresh graph construction cannot collide");
    for c in 0..cfg.clusters {
        let cn = h.add_node(g, Value::sym("cluster"));
        let pes = h.add_node(g, Value::int(cfg.pes_per_cluster as i64));
        let mem = h.add_node(g, Value::int(cfg.memory_per_cluster as i64));
        h.add_arc(g, cn, Selector::name("pes"), pes)
            .expect("fresh graph construction cannot collide");
        h.add_arc(g, cn, Selector::name("memory"), mem)
            .expect("fresh graph construction cannot collide");
        h.add_arc(g, root, Selector::index(c as u64), cn)
            .expect("fresh graph construction cannot collide");
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use fem2_fem::cantilever_plate;
    use fem2_kernel::{CodeBlock, TaskId, WorkProfile};
    use fem2_machine::{Machine, Topology};

    #[test]
    fn structural_model_conforms_to_app_grammar() {
        let m = cantilever_plate(4, 2, -1e3);
        let h = model_to_hgraph(&m);
        let g = h.root().unwrap();
        app_grammar().graph_conforms(&h, g, "Model").unwrap();
    }

    #[test]
    fn model_without_loads_still_conforms() {
        let m = StructuralModel::new("bare");
        let h = model_to_hgraph(&m);
        app_grammar()
            .graph_conforms(&h, h.root().unwrap(), "Model")
            .unwrap();
    }

    #[test]
    fn corrupted_model_hgraph_fails() {
        let m = cantilever_plate(2, 2, -1.0);
        let mut h = model_to_hgraph(&m);
        // Break it: the name becomes an int.
        let g = h.root().unwrap();
        let entry = h.entry(g).unwrap();
        let name = h.follow(g, entry, &Selector::name("name")).unwrap();
        h.set_value(name, Value::int(42));
        assert!(app_grammar().graph_conforms(&h, g, "Model").is_err());
    }

    #[test]
    fn window_descriptor_conforms() {
        let w = WindowDescriptor::block(3, 0, 8, 2, 6, TaskId(5), 1);
        let h = window_to_hgraph(&w);
        navm_grammar()
            .graph_conforms(&h, h.root().unwrap(), "Window")
            .unwrap();
    }

    #[test]
    fn live_kernel_task_population_conforms() {
        let machine = Machine::new(MachineConfig::clustered(2, 4, Topology::Crossbar));
        let mut k = KernelSim::new(machine);
        let code = k.register_code(CodeBlock::new("w", 32, WorkProfile::flops(100), 8));
        k.initiate(0, 0, code, 5, None, 0);
        k.run();
        let h = kernel_tasks_to_hgraph(&k);
        kernel_grammar()
            .graph_conforms(&h, h.root().unwrap(), "Tasks")
            .unwrap();
    }

    #[test]
    fn empty_task_population_conforms() {
        let machine = Machine::new(MachineConfig::fem1_style(2));
        let k = KernelSim::new(machine);
        let h = kernel_tasks_to_hgraph(&k);
        kernel_grammar()
            .graph_conforms(&h, h.root().unwrap(), "Tasks")
            .unwrap();
    }

    #[test]
    fn machine_configs_conform() {
        for cfg in [
            MachineConfig::fem2_default(),
            MachineConfig::fem1_style(8),
            MachineConfig::clustered(3, 2, Topology::Ring),
        ] {
            let h = machine_to_hgraph(&cfg);
            hw_grammar()
                .graph_conforms(&h, h.root().unwrap(), "Machine")
                .unwrap();
        }
    }

    #[test]
    fn illegal_task_state_rejected() {
        // Hand-build a hub with a bogus state symbol.
        let mut h = HGraph::new();
        let g = h.new_graph("tasks");
        let hub = h.add_node(g, Value::sym("tasks"));
        h.set_entry(g, hub).unwrap();
        let t = h.add_node(g, Value::sym("zombie"));
        let c = h.add_node(g, Value::int(0));
        h.add_arc(g, t, Selector::name("cluster"), c).unwrap();
        h.add_arc(g, hub, Selector::index(0), t).unwrap();
        assert!(kernel_grammar().graph_conforms(&h, g, "Tasks").is_err());
    }
}
