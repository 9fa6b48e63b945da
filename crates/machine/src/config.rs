//! Machine configurations: the design parameters the top-down method
//! iterates over.
//!
//! A [`MachineConfig`] fixes the organization (clusters × PEs per cluster),
//! the per-cluster shared memory capacity, the network [`Topology`], and the
//! abstract [`CostModel`]. The design-iteration experiments (E10) sweep this
//! space; two presets matter throughout:
//!
//! * [`MachineConfig::fem2_default`] — the clustered organization the paper
//!   arrives at;
//! * [`MachineConfig::fem1_style`] — a flat array of single-PE nodes on a
//!   global bus, approximating the original Finite Element Machine's
//!   bottom-up organization, used as the baseline.

use crate::{Cycles, Words};
use serde::{Deserialize, Serialize};

/// Interconnection topology of the common communication network.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum Topology {
    /// Single shared medium: every transfer serializes on one resource.
    Bus,
    /// Bidirectional ring of clusters; hops = shortest ring distance.
    Ring,
    /// 2-D mesh, row-major over clusters; XY routing.
    Mesh2D {
        /// Mesh width in clusters. Height is derived from the cluster count.
        width: u32,
    },
    /// Full crossbar: dedicated path per (src, dst) pair, one hop.
    Crossbar,
    /// Multi-dimensional torus (2-D/3-D/4-D), row-major over clusters;
    /// dimension-order routing with per-dimension shortest wrap direction.
    Torus {
        /// Extent of each dimension, lowest-stride first. The product must
        /// equal the cluster count and each extent must be >= 2.
        dims: Vec<u32>,
    },
    /// Two-level fat tree: `radix`-wide edge pods of leaves under a rank
    /// of `radix` core switches; deterministic up/down routing.
    FatTree {
        /// Leaves per edge pod (and core switch count). Must divide the
        /// cluster count and be >= 2.
        radix: u32,
    },
}

impl Topology {
    /// A short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Topology::Bus => "bus",
            Topology::Ring => "ring",
            Topology::Mesh2D { .. } => "mesh2d",
            Topology::Crossbar => "crossbar",
            Topology::Torus { .. } => "torus",
            Topology::FatTree { .. } => "fattree",
        }
    }
}

/// Which backing store the discrete-event engine uses.
///
/// Both backends pop events in exactly the same `(time, scheduling
/// order)` sequence, so the choice is invisible to results — it only
/// moves wall time. The radix heap is the default; the binary heap is
/// kept as the reference path for determinism tests and the A4 ablation,
/// mirroring the `route_cache` toggle.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub enum DesQueue {
    /// The monotone radix heap (`sim.rs`). The name, and its serialized
    /// spelling `"Calendar"`, are from the calendar queue it replaced:
    /// both are in every content hash and in the serve report golden, so
    /// they stay until the field leaves `MachineConfig` (ROADMAP 2(c)).
    #[default]
    Calendar,
    /// The reference `BinaryHeap` path.
    Heap,
}

/// Abstract instruction costs, in cycles, for the PE model.
///
/// These are deliberately coarse (the 1983 design method worked with
/// order-of-magnitude estimates); what matters for the experiments is the
/// *ratios* between computation, memory traffic, and message handling.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct CostModel {
    /// One floating-point operation.
    pub flop: Cycles,
    /// One integer/control operation.
    pub(crate) int_op: Cycles,
    /// One shared-memory word access from a PE in the same cluster.
    pub(crate) mem_word: Cycles,
    /// Fixed kernel overhead to format-and-send one message.
    pub(crate) msg_send: Cycles,
    /// Fixed kernel overhead to decode-and-dispatch one received message.
    pub(crate) msg_dispatch: Cycles,
    /// Cost to create one task activation record (allocate + initialize).
    pub(crate) task_create: Cycles,
    /// Cost of one context switch (assign a PE to a ready task).
    pub(crate) context_switch: Cycles,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            flop: 4,
            int_op: 1,
            mem_word: 2,
            msg_send: 60,
            msg_dispatch: 80,
            task_create: 120,
            context_switch: 40,
        }
    }
}

/// A complete machine configuration.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct MachineConfig {
    /// Number of clusters.
    pub clusters: u32,
    /// PEs per cluster, *including* the kernel PE. Must be ≥ 1; with 1 PE
    /// the kernel PE also runs user work (FEM-1 style).
    pub pes_per_cluster: u32,
    /// Shared memory per cluster, in words.
    pub memory_per_cluster: Words,
    /// Network topology over clusters.
    pub topology: Topology,
    /// Per-hop network latency, in cycles.
    pub link_latency: Cycles,
    /// Link bandwidth, in words per cycle (applied per packet).
    pub words_per_cycle: u32,
    /// Maximum packet payload; larger messages are segmented.
    pub max_packet_words: Words,
    /// Message header size, in words, charged per packet.
    pub header_words: Words,
    /// Instruction cost model.
    pub cost: CostModel,
    /// Whether each cluster reserves PE 0 as a dedicated kernel PE.
    pub dedicated_kernel_pe: bool,
    /// Whether the network memoizes `(from, to)` routes between fault
    /// transitions. On by default; turning it off selects the reference
    /// recompute-per-message path (bitwise-identical results, slower) and
    /// exists for determinism tests and the A3 ablation.
    pub route_cache: bool,
    /// Discrete-event queue backend. [`DesQueue::Calendar`] by default;
    /// [`DesQueue::Heap`] selects the reference binary-heap path
    /// (identical pop order, slower) for determinism tests and the A4
    /// ablation.
    pub des_queue: DesQueue,
}

impl MachineConfig {
    /// The clustered FEM-2 organization the paper evolves: 4 clusters of 8
    /// PEs around shared memories, crossbar between clusters, dedicated
    /// kernel PE per cluster.
    pub fn fem2_default() -> Self {
        MachineConfig {
            clusters: 4,
            pes_per_cluster: 8,
            memory_per_cluster: 4 << 20, // 4 Mwords
            topology: Topology::Crossbar,
            link_latency: 20,
            words_per_cycle: 1,
            max_packet_words: 256,
            header_words: 4,
            cost: CostModel::default(),
            dedicated_kernel_pe: true,
            route_cache: true,
            des_queue: DesQueue::Calendar,
        }
    }

    /// A FEM-1-style flat array: `n` single-PE nodes with small private
    /// memories on a global bus, no dedicated kernel PE. This is the
    /// bottom-up baseline the paper contrasts against.
    pub fn fem1_style(n: u32) -> Self {
        MachineConfig {
            clusters: n,
            pes_per_cluster: 1,
            memory_per_cluster: 64 << 10, // 64 Kwords per node
            topology: Topology::Bus,
            link_latency: 20,
            words_per_cycle: 1,
            max_packet_words: 64,
            header_words: 4,
            cost: CostModel::default(),
            dedicated_kernel_pe: false,
            route_cache: true,
            des_queue: DesQueue::Calendar,
        }
    }

    /// A clustered machine with the given shape and the FEM-2 defaults for
    /// everything else.
    pub fn clustered(clusters: u32, pes_per_cluster: u32, topology: Topology) -> Self {
        MachineConfig {
            clusters,
            pes_per_cluster,
            topology,
            ..Self::fem2_default()
        }
    }

    /// Total PE count.
    pub fn total_pes(&self) -> u32 {
        self.clusters * self.pes_per_cluster
    }

    /// PEs per cluster available for user work (excludes a dedicated kernel
    /// PE when configured and the cluster has more than one PE).
    pub fn worker_pes_per_cluster(&self) -> u32 {
        if self.dedicated_kernel_pe && self.pes_per_cluster > 1 {
            self.pes_per_cluster - 1
        } else {
            self.pes_per_cluster
        }
    }

    /// Total user-work PEs across the machine.
    pub fn total_workers(&self) -> u32 {
        self.clusters * self.worker_pes_per_cluster()
    }

    /// Validate structural invariants; returns a description of the first
    /// violation.
    pub fn validate(&self) -> Result<(), String> {
        if self.clusters == 0 {
            return Err("clusters must be >= 1".into());
        }
        if self.pes_per_cluster == 0 {
            return Err("pes_per_cluster must be >= 1".into());
        }
        if self.words_per_cycle == 0 {
            return Err("words_per_cycle must be >= 1".into());
        }
        if self.max_packet_words == 0 {
            return Err("max_packet_words must be >= 1".into());
        }
        match &self.topology {
            Topology::Mesh2D { width } => {
                if *width == 0 {
                    return Err("mesh width must be >= 1".into());
                }
                if !self.clusters.is_multiple_of(*width) {
                    return Err(format!(
                        "mesh width {} does not divide cluster count {}",
                        width, self.clusters
                    ));
                }
            }
            Topology::Torus { dims } => {
                if !(2..=4).contains(&dims.len()) {
                    return Err(format!(
                        "torus dims must have 2 to 4 dimensions, got {}",
                        dims.len()
                    ));
                }
                if let Some(d) = dims.iter().find(|&&d| d < 2) {
                    return Err(format!("torus dims entries must be >= 2, got {d}"));
                }
                let product = dims.iter().try_fold(1u32, |p, &d| p.checked_mul(d));
                if product != Some(self.clusters) {
                    return Err(format!(
                        "torus dims {:?} do not factor cluster count {}",
                        dims, self.clusters
                    ));
                }
            }
            Topology::FatTree { radix } => {
                if *radix < 2 {
                    return Err(format!("fat-tree radix must be >= 2, got {radix}"));
                }
                if !self.clusters.is_multiple_of(*radix) {
                    return Err(format!(
                        "fat-tree radix {} does not divide cluster count {}",
                        radix, self.clusters
                    ));
                }
            }
            Topology::Bus | Topology::Ring | Topology::Crossbar => {}
        }
        // Routes hold link ids as `u32`; nothing else caps `clusters`.
        let links = crate::network::link_id_space(&self.topology, self.clusters);
        if links > u64::from(u32::MAX) {
            return Err(format!(
                "{} topology over {} clusters needs {} link ids, more than the {} supported",
                self.topology.name(),
                self.clusters,
                links,
                u32::MAX
            ));
        }
        Ok(())
    }

    /// A compact one-line description for reports.
    pub fn describe(&self) -> String {
        format!(
            "{}x{} {} ({} PEs, {} Kwords/cluster)",
            self.clusters,
            self.pes_per_cluster,
            self.topology.name(),
            self.total_pes(),
            self.memory_per_cluster >> 10
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fem2_default_is_valid_and_clustered() {
        let c = MachineConfig::fem2_default();
        c.validate().unwrap();
        assert!(c.clusters > 1);
        assert!(c.pes_per_cluster > 1);
        assert!(c.dedicated_kernel_pe);
        assert_eq!(c.total_pes(), 32);
        assert_eq!(c.worker_pes_per_cluster(), 7);
        assert_eq!(c.total_workers(), 28);
    }

    #[test]
    fn fem1_style_is_flat_single_pe_nodes() {
        let c = MachineConfig::fem1_style(16);
        c.validate().unwrap();
        assert_eq!(c.clusters, 16);
        assert_eq!(c.pes_per_cluster, 1);
        assert_eq!(c.topology, Topology::Bus);
        // With one PE per node, the PE both runs the kernel and user work.
        assert_eq!(c.worker_pes_per_cluster(), 1);
        assert_eq!(c.total_workers(), 16);
    }

    #[test]
    fn clustered_builder_overrides_shape() {
        let c = MachineConfig::clustered(8, 4, Topology::Ring);
        c.validate().unwrap();
        assert_eq!(c.clusters, 8);
        assert_eq!(c.pes_per_cluster, 4);
        assert_eq!(c.topology, Topology::Ring);
    }

    #[test]
    fn validate_rejects_degenerate_configs() {
        let mut c = MachineConfig::fem2_default();
        c.clusters = 0;
        assert!(c.validate().is_err());
        let mut c = MachineConfig::fem2_default();
        c.pes_per_cluster = 0;
        assert!(c.validate().is_err());
        let mut c = MachineConfig::fem2_default();
        c.words_per_cycle = 0;
        assert!(c.validate().is_err());
        let mut c = MachineConfig::fem2_default();
        c.max_packet_words = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn validate_checks_mesh_width() {
        let mut c = MachineConfig::fem2_default();
        c.clusters = 6;
        c.topology = Topology::Mesh2D { width: 4 };
        assert!(c.validate().is_err());
        c.topology = Topology::Mesh2D { width: 3 };
        assert!(c.validate().is_ok());
        c.topology = Topology::Mesh2D { width: 0 };
        assert!(c.validate().is_err());
    }

    #[test]
    fn dedicated_kernel_pe_only_reserved_when_multiple() {
        let mut c = MachineConfig::fem2_default();
        c.pes_per_cluster = 1;
        assert_eq!(c.worker_pes_per_cluster(), 1);
    }

    #[test]
    fn topology_names() {
        assert_eq!(Topology::Bus.name(), "bus");
        assert_eq!(Topology::Ring.name(), "ring");
        assert_eq!(Topology::Mesh2D { width: 2 }.name(), "mesh2d");
        assert_eq!(Topology::Crossbar.name(), "crossbar");
        assert_eq!(Topology::Torus { dims: vec![2, 2] }.name(), "torus");
        assert_eq!(Topology::FatTree { radix: 2 }.name(), "fattree");
    }

    #[test]
    fn validate_checks_torus_dims() {
        let mut c = MachineConfig::fem2_default();
        c.clusters = 64;
        c.topology = Topology::Torus { dims: vec![8, 8] };
        c.validate().unwrap();
        c.topology = Topology::Torus {
            dims: vec![4, 4, 4],
        };
        c.validate().unwrap();
        c.topology = Topology::Torus {
            dims: vec![2, 2, 4, 4],
        };
        c.validate().unwrap();
        // Product mismatch names the field.
        c.topology = Topology::Torus { dims: vec![8, 4] };
        let err = c.validate().unwrap_err();
        assert!(err.contains("torus dims"), "{err}");
        assert!(err.contains("64"), "{err}");
        // Too few / too many dimensions.
        c.topology = Topology::Torus { dims: vec![64] };
        assert!(c.validate().unwrap_err().contains("2 to 4"));
        c.topology = Topology::Torus {
            dims: vec![2, 2, 2, 2, 4],
        };
        assert!(c.validate().unwrap_err().contains("2 to 4"));
        // Degenerate extents (would alias +/- wrap links).
        c.topology = Topology::Torus { dims: vec![1, 64] };
        assert!(c.validate().unwrap_err().contains(">= 2"));
    }

    #[test]
    fn validate_checks_fat_tree_radix() {
        let mut c = MachineConfig::fem2_default();
        c.clusters = 64;
        c.topology = Topology::FatTree { radix: 8 };
        c.validate().unwrap();
        c.topology = Topology::FatTree { radix: 64 };
        c.validate().unwrap();
        c.topology = Topology::FatTree { radix: 5 };
        let err = c.validate().unwrap_err();
        assert!(err.contains("fat-tree radix"), "{err}");
        assert!(err.contains("does not divide"), "{err}");
        c.topology = Topology::FatTree { radix: 1 };
        assert!(c.validate().unwrap_err().contains(">= 2"));
        c.topology = Topology::FatTree { radix: 0 };
        assert!(c.validate().is_err());
    }

    #[test]
    fn validate_rejects_a_link_id_space_beyond_u32() {
        let mut c = MachineConfig::fem2_default();
        c.topology = Topology::Crossbar;
        c.clusters = 65_535; // n² = 4 294 836 225 still fits
        c.validate().unwrap();
        c.clusters = 70_000; // n² = 4.9e9 does not
        let err = c.validate().unwrap_err();
        assert!(err.contains("crossbar"), "{err}");
        assert!(err.contains("4900000000"), "{err}");
        // The same cluster count is fine where ids grow linearly.
        c.topology = Topology::Ring;
        c.validate().unwrap();
        // 4n ids overflow only past 2³⁰ clusters.
        c.topology = Topology::FatTree { radix: 2 };
        c.clusters = 1 << 30;
        assert!(c.validate().unwrap_err().contains("link ids"));
    }

    #[test]
    fn new_topologies_round_trip_through_serde() {
        let mut cfg = MachineConfig::clustered(
            64,
            4,
            Topology::Torus {
                dims: vec![4, 4, 4],
            },
        );
        let json = serde_json::to_string(&cfg).unwrap();
        let back: MachineConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, cfg);
        cfg.topology = Topology::FatTree { radix: 8 };
        let json = serde_json::to_string(&cfg).unwrap();
        let back: MachineConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, cfg);
    }

    /// Adding topology variants must not disturb the serialized bytes of
    /// existing configurations (content hashes key caches and registries).
    #[test]
    fn existing_topology_serialization_is_stable() {
        let json = serde_json::to_string(&MachineConfig::fem2_default()).unwrap();
        assert!(json.contains("\"topology\":\"Crossbar\""), "{json}");
        let json = serde_json::to_string(&MachineConfig::clustered(
            6,
            2,
            Topology::Mesh2D { width: 3 },
        ))
        .unwrap();
        assert!(
            json.contains("\"topology\":{\"Mesh2D\":{\"width\":3}}"),
            "{json}"
        );
    }

    #[test]
    fn describe_mentions_shape() {
        let c = MachineConfig::fem2_default();
        let d = c.describe();
        assert!(d.contains("4x8"));
        assert!(d.contains("crossbar"));
    }

    #[test]
    fn cost_model_default_ratios_sane() {
        let m = CostModel::default();
        assert!(m.flop > m.int_op);
        assert!(m.msg_send > m.mem_word, "messages dwarf local access");
        assert!(m.task_create > m.context_switch);
    }

    #[test]
    fn config_clone_eq() {
        let c = MachineConfig::fem2_default();
        assert_eq!(c.clone(), c);
    }

    #[test]
    fn des_queue_defaults_to_calendar_and_names() {
        assert_eq!(MachineConfig::fem2_default().des_queue, DesQueue::Calendar);
        assert_eq!(MachineConfig::fem1_style(4).des_queue, DesQueue::Calendar);
        assert_eq!(DesQueue::default(), DesQueue::Calendar);
    }

    #[test]
    fn des_queue_round_trips_through_serde() {
        let mut cfg = MachineConfig::fem2_default();
        cfg.des_queue = DesQueue::Heap;
        let json = serde_json::to_string(&cfg).unwrap();
        let back: MachineConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.des_queue, DesQueue::Heap);
        assert_eq!(back, cfg);
    }

    /// The serialized default is part of every content hash, and documents
    /// written while `des_shards` was a field must still load.
    #[test]
    fn default_bytes_are_pinned_and_a_des_shards_field_is_ignored() {
        const DEFAULT: &str = r#"{"clusters":4,"pes_per_cluster":8,"memory_per_cluster":4194304,"topology":"Crossbar","link_latency":20,"words_per_cycle":1,"max_packet_words":256,"header_words":4,"cost":{"flop":4,"int_op":1,"mem_word":2,"msg_send":60,"msg_dispatch":80,"task_create":120,"context_switch":40},"dedicated_kernel_pe":true,"route_cache":true,"des_queue":"Calendar"}"#;
        let cfg = MachineConfig::fem2_default();
        assert_eq!(serde_json::to_string(&cfg).unwrap(), DEFAULT);
        let old = format!(
            r#"{},"des_shards":4}}"#,
            DEFAULT.strip_suffix('}').expect("an object")
        );
        let back: MachineConfig = serde_json::from_str(&old).unwrap();
        assert_eq!(back, cfg);
    }
}
