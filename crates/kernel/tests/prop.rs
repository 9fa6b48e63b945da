//! Property tests for the kernel: every initiated task terminates, the
//! simulation is deterministic, and accounting balances — under random
//! workloads, placements, and fault plans.

use fem2_kernel::{CodeBlock, KernelMessage, KernelSim, TaskId, TaskState, WorkProfile};
use fem2_machine::fault::{FaultEvent, FaultPlan};
use fem2_machine::{DesQueue, Machine, MachineConfig, PeId, Topology};
use fem2_trace::TraceHandle;
use proptest::prelude::*;

fn sim(clusters: u32, pes: u32) -> KernelSim {
    KernelSim::new(Machine::new(MachineConfig::clustered(
        clusters,
        pes,
        Topology::Crossbar,
    )))
}

/// Topologies for the 8-cluster engine-identity matrix, including the
/// multi-hop torus and fat-tree networks.
fn topo_strategy() -> impl Strategy<Value = Topology> {
    prop_oneof![
        Just(Topology::Crossbar),
        Just(Topology::Ring),
        Just(Topology::Torus { dims: vec![2, 4] }),
        Just(Topology::Torus {
            dims: vec![2, 2, 2],
        }),
        Just(Topology::FatTree { radix: 2 }),
        Just(Topology::FatTree { radix: 4 }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whatever the batch shape, every created task runs to completion and
    /// its locals are reclaimed.
    #[test]
    fn all_tasks_complete_and_memory_balances(
        batches in proptest::collection::vec((0u32..3, 1u32..20, 1u64..2000), 1..8),
    ) {
        let mut k = sim(3, 4);
        let code = k.register_code(CodeBlock::new(
            "w",
            32,
            WorkProfile { flops: 100, int_ops: 10, mem_words: 5 },
            16,
        ));
        let mut expected = 0u64;
        for &(cluster, reps, stagger) in &batches {
            k.initiate(stagger, cluster, code, reps, None, 4);
            expected += reps as u64;
        }
        k.run();
        prop_assert!(k.all_done());
        prop_assert_eq!(k.completions().len() as u64, expected);
        // Only loaded code images remain allocated.
        let code_words = k.code_store().get(code).words;
        for c in 0..3 {
            let used = k.machine.memory(c).used();
            prop_assert!(used == 0 || used == code_words, "cluster {c}: {used}");
        }
    }

    /// The kernel simulation replays identically.
    #[test]
    fn kernel_deterministic(
        batches in proptest::collection::vec((0u32..2, 1u32..10, 1u64..500), 1..6),
    ) {
        let run = || {
            let mut k = sim(2, 3);
            let code = k.register_code(CodeBlock::new(
                "w",
                16,
                WorkProfile { flops: 250, int_ops: 25, mem_words: 10 },
                8,
            ));
            for &(cluster, reps, at) in &batches {
                k.initiate(at, cluster, code, reps, None, 0);
            }
            let makespan = k.run();
            (makespan, k.completions().to_vec(), k.machine.stats.total())
        };
        prop_assert_eq!(run(), run());
    }

    /// Work conservation under faults: every task still completes as long
    /// as each cluster keeps at least one PE, and makespan never improves
    /// when PEs die.
    #[test]
    fn faults_never_lose_work(
        reps in 4u32..24,
        kill_idx in proptest::collection::btree_set(1u32..4, 0..3),
        kill_at in 1u64..50_000,
    ) {
        let build = |plan: &FaultPlan| {
            let mut k = sim(1, 4);
            let code = k.register_code(CodeBlock::new(
                "w",
                16,
                WorkProfile { flops: 2000, int_ops: 100, mem_words: 50 },
                8,
            ));
            k.initiate(0, 0, code, reps, None, 0);
            k.inject_faults(plan);
            let makespan = k.run();
            (makespan, k.completions().len(), k.all_done())
        };
        let (healthy, done_h, all_h) = build(&FaultPlan::none());
        prop_assert!(all_h);
        prop_assert_eq!(done_h as u32, reps);
        let events: Vec<FaultEvent> = kill_idx
            .iter()
            .map(|&i| FaultEvent::kill_pe(kill_at, PeId::new(0, i)))
            .collect();
        let (faulted, done_f, all_f) = build(&FaultPlan::new(events));
        prop_assert!(all_f, "all tasks complete despite faults");
        prop_assert_eq!(done_f as u32, reps);
        prop_assert!(faulted >= healthy, "faults cannot speed the batch up");
    }

    /// Two different executions of one simulation: the default engine
    /// (route cache, radix-heap queue — flights loss-checked by fault epoch
    /// out of cached, slot-resolved routes) against the oracle configuration
    /// (every route recomputed, binary-heap queue), on every topology, with
    /// remote calls and returns in flight while links are killed, degraded
    /// and recovered under them. Everything observable must agree, down to
    /// the bytes of the traced event stream.
    #[test]
    fn default_engine_matches_oracle_config_under_link_faults(
        topo in topo_strategy(),
        batches in proptest::collection::vec((0u32..8, 1u32..6, 1u64..2000), 1..4),
        calls in proptest::collection::vec((0u64..6000, 0u32..8, 1u32..8, 1u64..600), 4..24),
        faults in proptest::collection::vec((0u64..8000, 0usize..1024, 0u32..4), 2..10),
        heal_at in prop_oneof![Just(9_000u64), Just(400_000u64)],
    ) {
        let run = |oracle: bool| {
            let mut cfg = MachineConfig::clustered(8, 3, topo.clone());
            if oracle {
                cfg.route_cache = false;
                cfg.des_queue = DesQueue::Heap;
            }
            let mut k = KernelSim::new(Machine::new(cfg));
            let (trace, recorder) = TraceHandle::ring(1 << 16);
            k.set_trace(trace);
            let code = k.register_code(CodeBlock::new(
                "w",
                16,
                WorkProfile { flops: 120, int_ops: 12, mem_words: 6 },
                8,
            ));
            for &(cluster, reps, at) in &batches {
                k.initiate(at, cluster, code, reps, None, 4);
            }
            for (i, &(at, from, hop, args_words)) in calls.iter().enumerate() {
                k.send(
                    at,
                    from,
                    (from + hop) % 8,
                    KernelMessage::RemoteCall {
                        call_id: i as u64,
                        code,
                        args_words,
                        caller: TaskId(0),
                        reply_cluster: from,
                    },
                );
            }
            // Kill / degrade / recover, each aimed at a link some earlier
            // fault already touched about half the time, so recoveries
            // land on dead links and kills on degraded ones.
            let links = k.machine.network.link_count();
            let mut plan = FaultPlan::none();
            let mut touched: Vec<usize> = Vec::new();
            for &(at, pick, kind) in &faults {
                let link = match touched.get(pick % (2 * touched.len().max(1))) {
                    Some(&seen) => seen,
                    None => pick % links,
                };
                touched.push(link);
                plan = match kind {
                    0 | 1 => plan.kill_link(at, link),
                    2 => plan.degrade_link(at, link, 3),
                    _ => plan.recover_link(at, link),
                };
            }
            // Whatever died is repaired in the end: soon enough for the
            // retransmissions to get through, or after they have given up
            // and dead-lettered.
            for &link in &touched {
                plan = plan.recover_link(heal_at, link);
            }
            k.inject_faults(&plan);
            let makespan = k.run();
            let r = recorder.lock().expect("recorder lock");
            let trace = (r.len(), r.dropped(), r.events().copied().collect::<Vec<_>>());
            (
                makespan,
                k.completions().to_vec(),
                k.rpc_returns().clone(),
                k.stats,
                k.machine.stats.total(),
                k.machine.events,
                k.events_processed(),
                trace,
            )
        };
        let (default, oracle) = (run(false), run(true));
        prop_assert!(default.7.0 > 0, "the run was traced");
        prop_assert_eq!(default, oracle);
    }

    /// Completion timestamps are non-decreasing in completion order, and no
    /// task completes before it could have been created.
    #[test]
    fn completion_order_sane(reps in 1u32..40, at in 0u64..10_000) {
        let mut k = sim(2, 4);
        let code = k.register_code(CodeBlock::new(
            "w",
            16,
            WorkProfile { flops: 300, int_ops: 0, mem_words: 0 },
            8,
        ));
        k.initiate(at, 0, code, reps, None, 0);
        k.run();
        let comps = k.completions();
        prop_assert_eq!(comps.len() as u32, reps);
        for w in comps.windows(2) {
            prop_assert!(w[0].1 <= w[1].1, "completion times ordered");
        }
        for &(task, t) in comps {
            let rec = k.task(task);
            prop_assert_eq!(rec.state, TaskState::Done);
            prop_assert!(t >= rec.created_at);
            prop_assert!(t > at, "cannot finish before the batch arrived");
        }
    }
}
