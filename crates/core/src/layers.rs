//! The four layers of virtual machine and their formal catalog.
//!
//! > "Four layers of virtual machine are currently conceived: (1) The
//! > applications user's machine …, (2) the applications
//! > programmer/numerical analyst's machine …, (3) the systems programmer's
//! > machine …, and (4) the hardware itself."
//!
//! Each [`Layer`] carries its formal specification: the data-object grammar
//! (from [`crate::spec`]) and its feature catalog under the five
//! `VmComponent`s. Each layer knows the layer it is implemented on — the
//! top-down refinement chain the design method walks — and
//! [`design_document`] writes the whole design out.

use crate::spec;
use fem2_hgraph::Grammar;
use std::fmt;
use std::fmt::Write as _;
use std::sync::Arc;

/// The five components of a virtual machine, as enumerated in the paper.
///
/// > "A virtual machine is composed of (1) various types of data objects,
/// > (2) various operations on those data objects, (3) various sequence
/// > control mechanisms …, (4) various data control mechanisms …, and (5)
/// > storage management mechanisms …"
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub(crate) enum VmComponent {
    /// Types of data objects.
    DataObjects,
    /// Operations on those data objects.
    Operations,
    /// Mechanisms specifying the order of operations.
    SequenceControl,
    /// Mechanisms controlling access to data objects by operations.
    DataControl,
    /// Placement and movement of data and code during execution.
    StorageManagement,
}

impl VmComponent {
    /// All five components, in the paper's order.
    pub(crate) const ALL: [VmComponent; 5] = [
        VmComponent::DataObjects,
        VmComponent::Operations,
        VmComponent::SequenceControl,
        VmComponent::DataControl,
        VmComponent::StorageManagement,
    ];
}

impl fmt::Display for VmComponent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            VmComponent::DataObjects => "data objects",
            VmComponent::Operations => "operations",
            VmComponent::SequenceControl => "sequence control",
            VmComponent::DataControl => "data control",
            VmComponent::StorageManagement => "storage management",
        };
        f.write_str(s)
    }
}

/// The four FEM-2 layers, top to bottom.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Layer {
    /// The structural engineer's interactive workstation.
    ApplicationUser,
    /// The research user's parallel programming machine.
    NumericalAnalyst,
    /// The operating-system implementation machine.
    SystemProgrammer,
    /// The clusters-of-PEs hardware.
    Hardware,
}

impl Layer {
    /// All four layers, top to bottom.
    pub const ALL: [Layer; 4] = [
        Layer::ApplicationUser,
        Layer::NumericalAnalyst,
        Layer::SystemProgrammer,
        Layer::Hardware,
    ];

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Layer::ApplicationUser => "application user's virtual machine",
            Layer::NumericalAnalyst => "numerical analyst's virtual machine",
            Layer::SystemProgrammer => "system programmer's virtual machine",
            Layer::Hardware => "hardware architecture",
        }
    }

    /// The layer this one is implemented on (the next lower layer), if any.
    pub fn implemented_on(self) -> Option<Layer> {
        match self {
            Layer::ApplicationUser => Some(Layer::NumericalAnalyst),
            Layer::NumericalAnalyst => Some(Layer::SystemProgrammer),
            Layer::SystemProgrammer => Some(Layer::Hardware),
            Layer::Hardware => None,
        }
    }

    /// The crate that realizes this layer in the reproduction.
    pub fn crate_name(self) -> &'static str {
        match self {
            Layer::ApplicationUser => "fem2-appvm",
            Layer::NumericalAnalyst => "fem2-navm",
            Layer::SystemProgrammer => "fem2-kernel",
            Layer::Hardware => "fem2-machine",
        }
    }

    /// The layer's data-object grammar.
    pub fn grammar(self) -> Arc<Grammar> {
        match self {
            Layer::ApplicationUser => spec::app_grammar(),
            Layer::NumericalAnalyst => spec::navm_grammar(),
            Layer::SystemProgrammer => spec::kernel_grammar(),
            Layer::Hardware => spec::hw_grammar(),
        }
    }

    /// The features the paper lists for this layer under `component`,
    /// sorted by name.
    pub(crate) fn features(self, component: VmComponent) -> Vec<&'static str> {
        let catalog = match self {
            Layer::ApplicationUser => APP_USER_CATALOG,
            Layer::NumericalAnalyst => NUMERICAL_ANALYST_CATALOG,
            Layer::SystemProgrammer => SYSTEM_PROGRAMMER_CATALOG,
            Layer::Hardware => HARDWARE_CATALOG,
        };
        let mut names: Vec<&str> = catalog
            .iter()
            .filter(|(c, _)| *c == component)
            .map(|(_, name)| *name)
            .collect();
        names.sort_unstable();
        names
    }
}

/// The full design document: every layer's component catalog and grammar
/// size, plus the refinement chain.
pub fn design_document() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "THE FEM-2 DESIGN — four layers of virtual machine\n");
    for layer in Layer::ALL {
        let name = layer.name();
        let _ = writeln!(out, "{name}\n{}", "=".repeat(name.len()));
        for c in VmComponent::ALL {
            let _ = writeln!(out, "{c}:");
            for feature in layer.features(c) {
                let _ = writeln!(out, "  {feature}");
            }
        }
        let grammar = layer.grammar();
        let _ = writeln!(
            out,
            "grammar: {} ({} productions)",
            grammar.name(),
            grammar.rule_count()
        );
        let _ = writeln!(out, "realized by: {}", layer.crate_name());
        match layer.implemented_on() {
            Some(lower) => {
                let _ = writeln!(
                    out,
                    "implemented on: {} ({})\n",
                    lower.name(),
                    lower.crate_name()
                );
            }
            None => {
                let _ = writeln!(out, "implemented on: (physical machine)\n");
            }
        }
    }
    out
}

use VmComponent::{DataControl, DataObjects, Operations, SequenceControl, StorageManagement};

const APP_USER_CATALOG: &[(VmComponent, &str)] = &[
    (DataObjects, "structure/substructure model"),
    (DataObjects, "grid description"),
    (DataObjects, "node/element description"),
    (DataObjects, "load set"),
    (DataObjects, "displacements of nodes"),
    (DataObjects, "stresses on elements"),
    (Operations, "define structure model"),
    (Operations, "generate grid"),
    (Operations, "define elements"),
    (Operations, "solve for displacements"),
    (Operations, "calculate stresses"),
    (Operations, "database store/retrieve"),
    (SequenceControl, "direct interpretation of user commands"),
    (DataControl, "workspace (user local data)"),
    (DataControl, "data base (long-term storage; shared data)"),
    (
        StorageManagement,
        "dynamic storage allocation for models/results/workspaces",
    ),
    (
        StorageManagement,
        "data movement between data base and workspace",
    ),
];

const NUMERICAL_ANALYST_CATALOG: &[(VmComponent, &str)] = &[
    (
        DataObjects,
        "windows on arrays (row/column/block descriptors)",
    ),
    (Operations, "tasks (programmer-defined parallel procedures)"),
    (Operations, "window operations: create/access/assign"),
    (Operations, "broadcast data to a set of tasks"),
    (Operations, "linear algebra operations"),
    (SequenceControl, "forall loops"),
    (SequenceControl, "pardo ... end"),
    (
        SequenceControl,
        "task control: initiate/pause/resume/terminate",
    ),
    (
        SequenceControl,
        "remote procedure call (routed by window location)",
    ),
    (DataControl, "all data owned by a single task"),
    (DataControl, "non-local access only via windows"),
    (DataControl, "windows transmissible/partitionable/storable"),
    (
        StorageManagement,
        "dynamic creation of data objects by a task",
    ),
    (StorageManagement, "data lifetime = owner task lifetime"),
    (StorageManagement, "dynamic task replication"),
    (StorageManagement, "locals retained over pause/resume"),
];

const SYSTEM_PROGRAMMER_CATALOG: &[(VmComponent, &str)] = &[
    (DataObjects, "code blocks/constants blocks"),
    (DataObjects, "task/procedure activation records"),
    (DataObjects, "window descriptors"),
    (DataObjects, "storage representations"),
    (DataObjects, "the seven kernel message types"),
    (Operations, "sequential operations"),
    (Operations, "linear algebra library routines"),
    (Operations, "format and send message"),
    (Operations, "decode and execute message"),
    (SequenceControl, "sequential control structures"),
    (DataControl, "sequential language data control"),
    (StorageManagement, "general heap with variable size blocks"),
];

const HARDWARE_CATALOG: &[(VmComponent, &str)] = &[
    (DataObjects, "clusters of PEs around a shared memory"),
    (DataObjects, "common communication network"),
    (DataObjects, "cluster input queues"),
    (Operations, "kernel PE fields incoming messages"),
    (Operations, "any available PE processes queued messages"),
    (Operations, "fault isolation / reconfiguration"),
    (SequenceControl, "message-driven dispatch"),
    (DataControl, "cluster-local shared memory access"),
    (StorageManagement, "per-cluster memory capacity"),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stack_has_four_layers_in_order() {
        // The design document walks the layers top to bottom.
        let doc = design_document();
        let at: Vec<usize> = Layer::ALL
            .iter()
            .map(|l| doc.find(&format!("{}\n=", l.name())).unwrap())
            .collect();
        assert_eq!(at.len(), 4);
        assert!(at.windows(2).all(|w| w[0] < w[1]), "{at:?}");
    }

    #[test]
    fn refinement_chain_is_linear() {
        assert_eq!(
            Layer::ApplicationUser.implemented_on(),
            Some(Layer::NumericalAnalyst)
        );
        assert_eq!(
            Layer::NumericalAnalyst.implemented_on(),
            Some(Layer::SystemProgrammer)
        );
        assert_eq!(
            Layer::SystemProgrammer.implemented_on(),
            Some(Layer::Hardware)
        );
        assert_eq!(Layer::Hardware.implemented_on(), None);
    }

    #[test]
    fn every_layer_declares_all_five_components() {
        for layer in Layer::ALL {
            for c in VmComponent::ALL {
                assert!(
                    !layer.features(c).is_empty(),
                    "{} missing {c}",
                    layer.name()
                );
            }
        }
    }

    #[test]
    fn catalog_by_component() {
        // Names come back sorted, whatever the table's order.
        assert_eq!(
            Layer::Hardware.features(VmComponent::DataObjects),
            [
                "cluster input queues",
                "clusters of PEs around a shared memory",
                "common communication network",
            ]
        );
        assert_eq!(
            Layer::SystemProgrammer.features(VmComponent::SequenceControl),
            ["sequential control structures"]
        );
        // Every catalog entry is listed under exactly one component.
        for layer in Layer::ALL {
            let mut all: Vec<&str> = VmComponent::ALL
                .iter()
                .flat_map(|&c| layer.features(c))
                .collect();
            let n = all.len();
            all.sort_unstable();
            all.dedup();
            assert_eq!(all.len(), n, "{} lists a feature twice", layer.name());
        }
    }

    #[test]
    fn component_display_strings() {
        assert_eq!(VmComponent::DataObjects.to_string(), "data objects");
        assert_eq!(
            VmComponent::StorageManagement.to_string(),
            "storage management"
        );
        assert_eq!(VmComponent::ALL.len(), 5);
    }

    #[test]
    fn paper_vocabulary_present() {
        let doc = design_document();
        for phrase in [
            "windows on arrays",
            "forall loops",
            "general heap with variable size blocks",
            "clusters of PEs around a shared memory",
            "direct interpretation of user commands",
            "remote procedure call",
        ] {
            assert!(doc.contains(phrase), "design document missing {phrase:?}");
        }
    }

    #[test]
    fn crate_mapping() {
        assert_eq!(Layer::Hardware.crate_name(), "fem2-machine");
        assert_eq!(Layer::ApplicationUser.crate_name(), "fem2-appvm");
    }
}
