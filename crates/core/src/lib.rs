//! # fem2-core — the FEM-2 system, assembled by its design method
//!
//! The paper's contribution is not a single algorithm but a *method*: design
//! a parallel FEM machine **top-down**, as four layers of virtual machine,
//! each **formally specified** (H-graph semantics), then **simulate** the
//! design to measure storage, processing, and communication, and **iterate**
//! until hardware and software fit. This crate is that method, executable:
//!
//! * [`layers`] — the four-layer stack ([`layers::Layer`]), each layer
//!   carrying its data-object grammar and the paper's component lists, the
//!   implemented-on mapping between layers, and the design document;
//! * [`spec`] — H-graph grammars for each layer's data objects plus
//!   converters from *live* runtime state (a structural model, a window
//!   descriptor, a machine configuration) into H-graphs, so conformance is
//!   checked against running code, not just on paper;
//! * [`scenario`] — the "typical large-scale application" analyses: a plate
//!   FEM workload (assembly → CG solve → stress recovery) run through the
//!   numerical analyst's VM on the simulated machine, producing the
//!   per-phase processing / storage / communication requirement tables the
//!   design method calls for (experiments E1/E2/E6);
//! * [`design`] — the design-space iteration loop: evaluate candidate
//!   machine organizations against a workload, score them, and converge to
//!   the "proper match of hardware and software organizations" (E10);
//! * [`hash`] — stable content hashing (canonical JSON + FNV-1a) for run
//!   descriptors, the key the serve layer's result cache and registry are
//!   indexed by;
//! * [`verify`] — the static analyzer wired into the system: every scenario
//!   is lowered to a script and checked (protocol conformance, deadlock
//!   freedom, storage bounds) *before* dispatch, and the layer grammars are
//!   checked for well-formedness — the formal specs used as analysis tools,
//!   as the design method promised.

pub mod design;
pub mod hash;
pub mod layers;
pub mod scenario;
pub mod spec;
pub mod verify;

pub use design::DesignSpace;
pub use layers::Layer;
pub use scenario::{PlateScenario, ScenarioReport};

// The full stack, re-exported for downstream users (the examples and
// `fem2-report`).
pub use fem2_appvm as appvm;
pub use fem2_fem as fem;
pub use fem2_hgraph as hgraph;
pub use fem2_kernel as kernel;
pub use fem2_machine as machine;
pub use fem2_navm as navm;
pub use fem2_verify as analyzer;
