//! The formal-specification pillar: live runtime state at every layer
//! parses under that layer's H-graph grammar.

use fem2_core::layers::design_document;
use fem2_core::spec;
use fem2_core::Layer;
use fem2_fem::cantilever_plate;
use fem2_kernel::{CodeBlock, KernelSim, TaskId, WindowDescriptor, WorkProfile};
use fem2_machine::{Machine, MachineConfig, Topology};

#[test]
fn application_layer_state_conforms() {
    let model = cantilever_plate(6, 4, -1e4);
    let h = spec::model_to_hgraph(&model);
    Layer::ApplicationUser
        .grammar()
        .graph_conforms(&h, h.root().unwrap(), "Model")
        .unwrap();
}

#[test]
fn numerical_analyst_layer_state_conforms() {
    let w = WindowDescriptor::row(2, 7, 0, 64, TaskId(3), 1);
    let h = spec::window_to_hgraph(&w);
    Layer::NumericalAnalyst
        .grammar()
        .graph_conforms(&h, h.root().unwrap(), "Window")
        .unwrap();
}

#[test]
fn system_programmer_layer_state_conforms_mid_run() {
    let machine = Machine::new(MachineConfig::clustered(2, 4, Topology::Crossbar));
    let mut k = KernelSim::new(machine);
    let code = k.register_code(CodeBlock::new("w", 32, WorkProfile::flops(1000), 8));
    k.initiate(0, 0, code, 6, None, 0);
    k.initiate(0, 1, code, 6, Some(TaskId(0)), 0);
    k.run();
    let h = spec::kernel_tasks_to_hgraph(&k);
    Layer::SystemProgrammer
        .grammar()
        .graph_conforms(&h, h.root().unwrap(), "Tasks")
        .unwrap();
}

#[test]
fn hardware_layer_state_conforms_for_all_presets() {
    for cfg in [
        MachineConfig::fem2_default(),
        MachineConfig::fem1_style(16),
        MachineConfig::clustered(6, 3, Topology::Mesh2D { width: 3 }),
    ] {
        let h = spec::machine_to_hgraph(&cfg);
        Layer::Hardware
            .grammar()
            .graph_conforms(&h, h.root().unwrap(), "Machine")
            .unwrap();
    }
}

#[test]
fn layer_models_catalog_the_whole_design() {
    // Each layer is implemented on the next one down, ending at hardware.
    let mut layer = Layer::ApplicationUser;
    let mut chain = vec![layer];
    while let Some(lower) = layer.implemented_on() {
        chain.push(lower);
        layer = lower;
    }
    assert_eq!(chain.len(), 4);
    assert_eq!(chain.last(), Some(&Layer::Hardware));
    // The design document names all four crates.
    let doc = design_document();
    for l in Layer::ALL {
        assert!(doc.contains(l.crate_name()), "missing {}", l.crate_name());
    }
}

#[test]
fn design_document_matches_committed_golden_file() {
    // The design document followed by every layer's grammar as BNF, byte
    // for byte: the catalog and the grammars are the formal design.
    let golden = include_str!("../golden/design_document.txt");
    let mut rendered = design_document();
    for layer in Layer::ALL {
        rendered.push_str(&layer.grammar().to_bnf());
    }
    assert_eq!(
        rendered, golden,
        "design document drifted from tests/golden/design_document.txt"
    );
}
