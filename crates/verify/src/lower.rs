//! Canonical lowering of a distributed solve to a [`ScenarioScript`].
//!
//! The plate scenarios (and the console's SOLVE commands) all share one
//! communication skeleton: a crew of tasks block-mapped over the clusters,
//! each owning a contiguous row share of the unknowns, exchanging halos
//! with its neighbours each sweep through a window. [`solve_script`]
//! produces exactly that skeleton — initiations, per-cluster worst-case
//! vector storage (mirroring `NaVm`'s row-block array distribution),
//! window open, a red-black halo exchange (even-indexed pairs first, so the
//! rendezvous order is provably acyclic), window close, terminations — so
//! the analyzer checks the same structure the runtime will execute.

use crate::script::{NameId, Op, ScenarioScript};
use fem2_machine::MachineConfig;
use fem2_navm::TaskSet;

/// The shape of a distributed solve, for lowering.
#[derive(Clone, Copy, Debug)]
pub struct SolveShape {
    /// Unknowns in the system (rows of the distributed vectors).
    pub unknowns: u64,
    /// Number of solver vectors simultaneously live (CG keeps five:
    /// b, x, r, p, Ap).
    pub vectors: u64,
    /// Words exchanged per halo (one boundary row).
    pub halo_words: u64,
}

/// Lower a `tasks`-way distributed solve on `machine` to a script.
pub fn solve_script(
    name: impl Into<String>,
    machine: &MachineConfig,
    tasks: u32,
    shape: SolveShape,
) -> ScenarioScript {
    let mut s = ScenarioScript::new(name);
    let tasks = tasks.max(1);
    let clusters = machine.clusters.max(1);
    let set = TaskSet::new(tasks, clusters);
    let unknowns = shape.unknowns as usize;
    // Every name is formatted and interned once, in first-use order: the
    // tasks, then the allocation label, then the window.
    let task: Vec<NameId> = set
        .iter()
        .map(|t| s.intern(&format!("task{}", t.0)))
        .collect();

    // 1. Initiate the crew, one task per replication on its home cluster.
    for t in set.iter() {
        s.push(Op::Initiate {
            task: task[t.0 as usize],
            cluster: set.cluster_of(t),
            replications: 1,
        });
    }

    // 2. Worst-case vector storage per cluster: each task's row share times
    //    the live vector count, exactly as `NaVm` row-block-allocates. One
    //    pass over the tasks: the block mapping is monotone, so each
    //    cluster's tasks are one run and clusters come out ascending.
    let mut cluster_rows: Vec<(u32, u64)> = Vec::new();
    for t in set.iter() {
        let (c, rows) = (set.cluster_of(t), set.share(unknowns, t).len() as u64);
        match cluster_rows.last_mut() {
            Some((last, sum)) if *last == c => *sum += rows,
            _ => cluster_rows.push((c, rows)),
        }
    }
    let mut label = None;
    for (cluster, rows) in cluster_rows {
        let words = rows * shape.vectors;
        if words > 0 {
            let what = *label.get_or_insert_with(|| {
                s.intern(&format!(
                    "{} solver vectors of {} unknowns",
                    shape.vectors, shape.unknowns
                ))
            });
            s.push(Op::Alloc {
                cluster,
                words,
                what,
            });
        }
    }

    // 3. Halo windows between neighbouring tasks with non-empty shares.
    let has_rows = |t: u32| !set.share(unknowns, fem2_navm::TaskHandle(t)).is_empty();
    let mut neighbours: Vec<(u32, u32)> = Vec::new();
    for t in 0..tasks.saturating_sub(1) {
        if has_rows(t) && has_rows(t + 1) {
            neighbours.push((t, t + 1));
        }
    }
    if !neighbours.is_empty() {
        let halo = s.intern("halo");
        let exchanging: Vec<u32> = {
            let mut v: Vec<u32> = neighbours.iter().flat_map(|&(a, b)| [a, b]).collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        for &t in &exchanging {
            s.push(Op::WindowOpen {
                task: task[t as usize],
                window: halo,
            });
        }
        // Red-black phasing: pairs starting at an even task, then the odd
        // ones. Within a pair, the lower task sends first and the upper
        // replies, so no task's rendezvous order can close a cycle.
        for parity in [0, 1] {
            for &(a, b) in neighbours.iter().filter(|(a, _)| a % 2 == parity) {
                let (a, b) = (task[a as usize], task[b as usize]);
                for (from, to) in [(a, b), (b, a)] {
                    s.push(Op::WindowSend {
                        from,
                        to,
                        window: halo,
                        words: shape.halo_words,
                    });
                    s.push(Op::WindowRecv {
                        task: to,
                        from,
                        window: halo,
                    });
                }
            }
        }
        for &t in &exchanging {
            s.push(Op::WindowClose {
                task: task[t as usize],
                window: halo,
            });
        }
    }

    // 4. Orderly shutdown.
    for &t in &task {
        s.push(Op::Terminate { task: t });
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check_script;

    fn shape(n: u64) -> SolveShape {
        SolveShape {
            unknowns: n,
            vectors: 5,
            halo_words: 32,
        }
    }

    #[test]
    fn lowered_solve_is_clean_on_the_default_machine() {
        let m = MachineConfig::fem2_default();
        let s = solve_script("plate", &m, m.total_workers(), shape(32 * 32));
        let r = check_script(&s, &m);
        assert!(r.is_clean(), "{}", r.render());
    }

    #[test]
    fn lowered_solve_is_clean_across_machines_and_sizes() {
        for m in [
            MachineConfig::fem1_style(16),
            MachineConfig::clustered(1, 8, fem2_machine::Topology::Crossbar),
            MachineConfig::clustered(8, 4, fem2_machine::Topology::Ring),
        ] {
            for n in [1u64, 9, 100, 1024] {
                let s = solve_script("sweep", &m, m.total_workers(), shape(n));
                let r = check_script(&s, &m);
                assert!(r.is_clean(), "machine {}: {}", m.describe(), r.render());
            }
        }
    }

    /// `(cluster, words)` of every `Alloc` in `s`.
    fn allocs(s: &ScenarioScript) -> Vec<(u32, u64)> {
        s.ops()
            .filter_map(|(op, _)| match op {
                Op::Alloc { cluster, words, .. } => Some((*cluster, *words)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn storage_mirrors_row_block_distribution() {
        let m = MachineConfig::fem2_default();
        let allocs = allocs(&solve_script("alloc", &m, 8, shape(100)));
        // 8 tasks over 4 clusters, 2 tasks each. 100 rows split 8 ways is
        // 13 rows for tasks 0..4 and 12 for tasks 4..8 (earlier tasks take
        // the remainder), so clusters get 26/26/24/24 rows, times 5 vectors.
        assert_eq!(allocs, vec![(0, 130), (1, 130), (2, 120), (3, 120)]);
    }

    /// The storage step as first written, one scan of every task per
    /// cluster (O(clusters × tasks)), against the one-pass step.
    #[test]
    fn one_pass_storage_matches_the_per_cluster_scan() {
        for tasks in [1u32, 2, 3, 7, 8, 28, 100, 257] {
            for clusters in [1u32, 2, 3, 4, 5, 16, 64, 300] {
                let m = MachineConfig::clustered(clusters, 8, fem2_machine::Topology::Crossbar);
                let set = TaskSet::new(tasks, clusters);
                for n in [0u64, 1, 3, 9, 100, 1024, 4099] {
                    let oracle: Vec<(u32, u64)> = (0..clusters)
                        .map(|c| {
                            let rows: u64 = set
                                .iter()
                                .filter(|&t| set.cluster_of(t) == c)
                                .map(|t| set.share(n as usize, t).len() as u64)
                                .sum();
                            (c, rows * shape(n).vectors)
                        })
                        .filter(|&(_, words)| words > 0)
                        .collect();
                    let lowered = allocs(&solve_script("s", &m, tasks, shape(n)));
                    assert_eq!(
                        lowered, oracle,
                        "{tasks} tasks, {clusters} clusters, {n} rows"
                    );
                }
            }
        }
    }

    /// The lowering as first written, formatting every task name and the
    /// window name afresh for each op (and interning it, now that ops
    /// carry name ids).
    fn solve_script_oracle(
        name: &str,
        machine: &MachineConfig,
        tasks: u32,
        shape: SolveShape,
    ) -> ScenarioScript {
        let mut s = ScenarioScript::new(name);
        let tasks = tasks.max(1);
        let clusters = machine.clusters.max(1);
        let set = TaskSet::new(tasks, clusters);
        let unknowns = shape.unknowns as usize;
        let task_name = |s: &mut ScenarioScript, t: u32| s.intern(&format!("task{t}"));
        for t in set.iter() {
            let task = task_name(&mut s, t.0);
            s.push(Op::Initiate {
                task,
                cluster: set.cluster_of(t),
                replications: 1,
            });
        }
        let mut cluster_rows: Vec<(u32, u64)> = Vec::new();
        for t in set.iter() {
            let (c, rows) = (set.cluster_of(t), set.share(unknowns, t).len() as u64);
            match cluster_rows.last_mut() {
                Some((last, sum)) if *last == c => *sum += rows,
                _ => cluster_rows.push((c, rows)),
            }
        }
        for (cluster, rows) in cluster_rows {
            let words = rows * shape.vectors;
            if words > 0 {
                let what = s.intern(&format!(
                    "{} solver vectors of {} unknowns",
                    shape.vectors, shape.unknowns
                ));
                s.push(Op::Alloc {
                    cluster,
                    words,
                    what,
                });
            }
        }
        let has_rows = |t: u32| !set.share(unknowns, fem2_navm::TaskHandle(t)).is_empty();
        let mut neighbours: Vec<(u32, u32)> = Vec::new();
        for t in 0..tasks.saturating_sub(1) {
            if has_rows(t) && has_rows(t + 1) {
                neighbours.push((t, t + 1));
            }
        }
        let exchanging: Vec<u32> = {
            let mut v: Vec<u32> = neighbours.iter().flat_map(|&(a, b)| [a, b]).collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        for &t in &exchanging {
            let (task, window) = (task_name(&mut s, t), s.intern("halo"));
            s.push(Op::WindowOpen { task, window });
        }
        for parity in [0, 1] {
            for &(a, b) in neighbours.iter().filter(|(a, _)| a % 2 == parity) {
                for (from, to) in [(a, b), (b, a)] {
                    let (from, to) = (task_name(&mut s, from), task_name(&mut s, to));
                    let window = s.intern("halo");
                    s.push(Op::WindowSend {
                        from,
                        to,
                        window,
                        words: shape.halo_words,
                    });
                    s.push(Op::WindowRecv {
                        task: to,
                        from,
                        window,
                    });
                }
            }
        }
        for &t in &exchanging {
            let (task, window) = (task_name(&mut s, t), s.intern("halo"));
            s.push(Op::WindowClose { task, window });
        }
        for t in set.iter() {
            let task = task_name(&mut s, t.0);
            s.push(Op::Terminate { task });
        }
        s
    }

    #[test]
    fn lowering_matches_the_per_op_format_oracle() {
        for tasks in [1u32, 2, 3, 7, 8, 28, 100, 257] {
            for clusters in [1u32, 2, 3, 4, 5, 16, 64, 300] {
                let m = MachineConfig::clustered(clusters, 8, fem2_machine::Topology::Crossbar);
                for n in [0u64, 1, 3, 9, 100, 1024, 4099] {
                    let lowered = solve_script("s", &m, tasks, shape(n));
                    let oracle = solve_script_oracle("s", &m, tasks, shape(n));
                    let case = format!("{tasks} tasks, {clusters} clusters, {n} rows");
                    assert!(lowered.ops().eq(oracle.ops()), "{case}");
                    assert_eq!(lowered.name_count(), oracle.name_count(), "{case}");
                    assert_eq!(lowered.source(), oracle.source(), "{case}");
                }
            }
        }
    }

    #[test]
    fn more_tasks_than_unknowns_still_clean() {
        let m = MachineConfig::fem2_default();
        let s = solve_script("tiny", &m, 28, shape(3));
        let r = check_script(&s, &m);
        assert!(r.is_clean(), "{}", r.render());
    }

    #[test]
    fn oversized_problem_rejected_with_cluster_named() {
        let m = MachineConfig::fem1_style(4); // 64 Kwords per cluster
        let s = solve_script("huge", &m, 4, shape(300 * 300));
        let r = check_script(&s, &m);
        assert!(r.error_count() >= 1, "{}", r.render());
        assert!(
            r.diagnostics
                .iter()
                .any(|d| d.message.contains("cluster") && d.message.contains("arena")),
            "{}",
            r.render()
        );
    }
}
