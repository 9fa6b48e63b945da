//! The top-down design iteration loop.
//!
//! > "The entire design process may be iterated, adjusting the design of
//! > each virtual machine level, until the proper match of hardware and
//! > software organizations is found."
//!
//! The hardware-architecture section imposes the requirements the iteration
//! optimizes against: support large dynamic task initiation, large messages
//! and irregular communication, large storage, **multi-user access**, and
//! extensibility — all within a hardware budget. [`DesignRequirements`]
//! encodes that as a workload mix (several independent user problems plus
//! one machine-wide large problem) and a cost cap; [`DesignSpace::iterate`]
//! simulates every candidate organization against the mix and converges on
//! the best feasible one (experiment E10). On this objective the clustered
//! FEM-2 organization wins, which is the paper's own outcome.

use crate::scenario::PlateScenario;
use fem2_machine::{Cycles, MachineConfig, Topology};

/// Hardware cost model (abstract units). PEs dominate; networks scale with
/// their physical resource count.
#[derive(Clone, Copy, Debug)]
pub(crate) struct CostWeights {
    /// Cost per PE.
    pub(crate) pe: f64,
    /// Cost per cluster chassis (shared memory, kernel support).
    pub(crate) cluster: f64,
    /// Cost per network link.
    pub(crate) link: f64,
}

impl Default for CostWeights {
    fn default() -> Self {
        CostWeights {
            pe: 1.0,
            cluster: 2.0,
            link: 0.25,
        }
    }
}

impl CostWeights {
    /// The hardware cost of a configuration.
    pub(crate) fn cost(&self, cfg: &MachineConfig) -> f64 {
        let n = cfg.clusters as f64;
        let links = match &cfg.topology {
            Topology::Bus => 1.0,
            Topology::Ring => 2.0 * n,
            Topology::Mesh2D { .. } => 4.0 * n,
            Topology::Crossbar => n * n,
            Topology::Torus { dims } => 2.0 * dims.len() as f64 * n,
            Topology::FatTree { .. } => 4.0 * n,
        };
        self.pe * cfg.total_pes() as f64 + self.cluster * n + self.link * links
    }
}

/// The requirements the design iteration evaluates against.
#[derive(Clone, Copy, Debug)]
pub struct DesignRequirements {
    /// Hardware budget: candidates above it are infeasible.
    pub budget: f64,
    /// Simultaneous independent user problems (multi-user access).
    pub users: usize,
    /// Grid size of each user problem.
    pub small_n: usize,
    /// Grid size of the machine-wide large problem.
    pub large_n: usize,
}

impl Default for DesignRequirements {
    fn default() -> Self {
        DesignRequirements {
            budget: 60.0,
            users: 8,
            small_n: 16,
            large_n: 32,
        }
    }
}

/// One evaluated candidate.
#[derive(Clone, Debug)]
pub struct DesignCandidate {
    /// The organization evaluated.
    pub config: MachineConfig,
    /// Hardware cost.
    pub cost: f64,
    /// Within budget?
    pub feasible: bool,
    /// Makespan of the user-problem batch (cycles).
    pub(crate) batch_cycles: Cycles,
    /// Makespan of the machine-wide large problem (cycles).
    pub(crate) large_cycles: Cycles,
    /// Total workload makespan = batch + large (infeasible → `u64::MAX`).
    pub makespan: Cycles,
}

impl DesignCandidate {
    /// The score the iteration minimizes.
    pub fn score(&self) -> f64 {
        if self.feasible {
            self.makespan as f64
        } else {
            f64::INFINITY
        }
    }
}

/// The record of one design iteration run.
#[derive(Clone, Debug)]
pub struct DesignTrace {
    /// Every candidate, in evaluation order.
    pub evaluated: Vec<DesignCandidate>,
    /// Index of the best candidate in `evaluated`.
    pub(crate) best: usize,
    /// Best-so-far score after each evaluation (the convergence curve).
    pub best_so_far: Vec<f64>,
}

impl DesignTrace {
    /// The winning candidate.
    pub fn best(&self) -> &DesignCandidate {
        &self.evaluated[self.best]
    }

    /// Render the iteration table.
    pub fn table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<30} {:>8} {:>10} {:>12} {:>12} {:>12}",
            "configuration", "cost", "feasible", "batch", "large", "makespan"
        );
        for (i, c) in self.evaluated.iter().enumerate() {
            let marker = if i == self.best { " <== best" } else { "" };
            let _ = writeln!(
                out,
                "{:<30} {:>8.1} {:>10} {:>12} {:>12} {:>12}{}",
                c.config.describe(),
                c.cost,
                if c.feasible { "yes" } else { "OVER" },
                c.batch_cycles,
                c.large_cycles,
                if c.feasible {
                    c.makespan.to_string()
                } else {
                    "-".into()
                },
                marker
            );
        }
        out
    }
}

/// A set of candidate machine organizations plus the evaluation policy.
#[derive(Clone, Debug)]
pub struct DesignSpace {
    /// The candidates to evaluate.
    pub candidates: Vec<MachineConfig>,
    /// The cost model.
    pub(crate) weights: CostWeights,
    /// The requirements/workload mix.
    pub requirements: DesignRequirements,
}

impl DesignSpace {
    /// The standard sweep: clusters × PEs-per-cluster × topology, plus
    /// FEM-1-style flat arrays as baselines.
    pub fn standard_sweep() -> Self {
        let mut candidates = Vec::new();
        for &clusters in &[1u32, 2, 4, 8] {
            for &pes in &[2u32, 4, 8] {
                let mut topos = vec![Topology::Bus, Topology::Ring, Topology::Crossbar];
                if clusters == 4 {
                    topos.push(Topology::Mesh2D { width: 2 });
                } else if clusters == 8 {
                    topos.push(Topology::Mesh2D { width: 4 });
                }
                for topo in topos {
                    if clusters == 1 && topo != Topology::Bus {
                        continue; // one cluster: network choice is moot
                    }
                    candidates.push(MachineConfig::clustered(clusters, pes, topo));
                }
            }
        }
        candidates.push(MachineConfig::fem1_style(16));
        candidates.push(MachineConfig::fem1_style(32));
        DesignSpace {
            candidates,
            weights: CostWeights::default(),
            requirements: DesignRequirements::default(),
        }
    }

    /// Evaluate one configuration against the requirement mix.
    pub fn evaluate(&self, cfg: MachineConfig) -> DesignCandidate {
        let req = self.requirements;
        let cost = self.weights.cost(&cfg);
        let feasible = cost <= req.budget;
        if !feasible {
            return DesignCandidate {
                config: cfg,
                cost,
                feasible,
                batch_cycles: 0,
                large_cycles: 0,
                makespan: u64::MAX,
            };
        }
        // Independent user problems: each runs within one cluster; clusters
        // process their share of the batch serially, so the batch makespan
        // is ceil(users / clusters) sequential problems on one cluster.
        let one_cluster = MachineConfig {
            clusters: 1,
            topology: Topology::Bus,
            ..cfg.clone()
        };
        let t_small = PlateScenario::square(req.small_n, one_cluster)
            .run()
            .elapsed;
        let rounds = req.users.div_ceil(cfg.clusters as usize) as u64;
        let batch_cycles = rounds * t_small;
        // The large problem uses the whole machine.
        let large_cycles = PlateScenario::square(req.large_n, cfg.clone())
            .run()
            .elapsed;
        let makespan = batch_cycles + large_cycles;
        DesignCandidate {
            config: cfg,
            cost,
            feasible,
            batch_cycles,
            large_cycles,
            makespan,
        }
    }

    /// Run the full iteration and trace convergence of the best score.
    pub fn iterate(&self) -> DesignTrace {
        let mut evaluated: Vec<DesignCandidate> = Vec::with_capacity(self.candidates.len());
        let mut best = 0;
        let mut best_so_far = Vec::with_capacity(self.candidates.len());
        for (i, cfg) in self.candidates.iter().cloned().enumerate() {
            let cand = self.evaluate(cfg);
            if cand.score()
                < evaluated
                    .get(best)
                    .map(|c| c.score())
                    .unwrap_or(f64::INFINITY)
            {
                best = i;
            }
            evaluated.push(cand);
            best_so_far.push(evaluated[best].score());
        }
        DesignTrace {
            evaluated,
            best,
            best_so_far,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_space(candidates: Vec<MachineConfig>) -> DesignSpace {
        DesignSpace {
            candidates,
            weights: CostWeights::default(),
            requirements: DesignRequirements {
                budget: 60.0,
                users: 8,
                small_n: 10,
                large_n: 20,
            },
        }
    }

    #[test]
    fn cost_model_orders_sanely() {
        let w = CostWeights::default();
        let small = MachineConfig::clustered(2, 2, Topology::Bus);
        let big = MachineConfig::clustered(8, 8, Topology::Crossbar);
        assert!(w.cost(&big) > w.cost(&small));
    }

    #[test]
    fn over_budget_is_infeasible() {
        let space = quick_space(vec![MachineConfig::clustered(8, 8, Topology::Crossbar)]);
        let c = space.evaluate(space.candidates[0].clone());
        assert!(!c.feasible);
        assert_eq!(c.score(), f64::INFINITY);
    }

    #[test]
    fn iteration_converges_and_best_is_consistent() {
        let space = quick_space(vec![
            MachineConfig::clustered(1, 2, Topology::Bus),
            MachineConfig::clustered(4, 4, Topology::Crossbar),
            MachineConfig::fem1_style(16),
        ]);
        let trace = space.iterate();
        assert_eq!(trace.evaluated.len(), 3);
        for w in trace.best_so_far.windows(2) {
            assert!(w[1] <= w[0], "best-so-far non-increasing");
        }
        let min = trace
            .evaluated
            .iter()
            .map(|c| c.score())
            .fold(f64::INFINITY, f64::min);
        assert_eq!(trace.best().score(), min);
        assert!(trace.table().contains("<== best"));
    }

    #[test]
    fn multi_cluster_beats_single_cluster_on_the_mix() {
        let space = quick_space(vec![]);
        let single = space.evaluate(MachineConfig::clustered(1, 8, Topology::Bus));
        let four = space.evaluate(MachineConfig::clustered(4, 8, Topology::Crossbar));
        assert!(four.feasible && single.feasible);
        assert!(
            four.makespan < single.makespan,
            "clustered {} < single {}",
            four.makespan,
            single.makespan
        );
    }

    #[test]
    fn clustered_beats_flat_array_at_similar_cost() {
        let space = quick_space(vec![]);
        // fem1_style(16): cost 16 + 32 + 0.25 = 48.25; 4x4 crossbar:
        // 16 + 8 + 4 = 28. Both feasible; the clustered machine should win.
        let flat = space.evaluate(MachineConfig::fem1_style(16));
        let clustered = space.evaluate(MachineConfig::clustered(4, 4, Topology::Crossbar));
        assert!(flat.feasible && clustered.feasible);
        assert!(
            clustered.makespan < flat.makespan,
            "clustered {} < flat {}",
            clustered.makespan,
            flat.makespan
        );
    }

    #[test]
    fn standard_sweep_selects_a_clustered_organization() {
        let mut space = DesignSpace::standard_sweep();
        // Keep the test quick.
        space.requirements.small_n = 10;
        space.requirements.large_n = 20;
        let trace = space.iterate();
        let best = trace.best();
        assert!(best.feasible);
        assert!(
            best.config.clusters > 1,
            "the method should pick a clustered organization, got {}",
            best.config.describe()
        );
        assert!(
            best.config.pes_per_cluster > 1,
            "not a flat array: {}",
            best.config.describe()
        );
    }
}
