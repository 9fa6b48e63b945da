//! `kernel_storm`: the only path that schedules through `EventQueue` and
//! the kernel's reliable-delivery layer — task initiation on every cluster
//! of an 8x8 torus, a storm of remote calls, and a link kill / degrade /
//! recover plan underneath them.

use crate::harness::{diff, push_fields, total, Digest, Layers, Rep, Workload};
use crate::replay::{replay, ReplayTimes, Stream, RING_CAPACITY};
use crate::rng::Rng;
use fem2_kernel::{CodeBlock, KernelMessage, KernelSim, MessageKind, TaskId, WorkProfile};
use fem2_machine::fault::FaultPlan;
use fem2_machine::{Machine, MachineConfig, Topology};
use fem2_trace::TraceHandle;
use std::time::Instant;

const CLUSTERS: u32 = 64;
const TASKS_PER_CLUSTER: u32 = 1000;
const CALLS: u64 = 2000;
const RUNS: u64 = 3;
/// Remote calls are issued over this many simulated cycles.
const CALL_WINDOW: u64 = 5_000_000;

fn config() -> MachineConfig {
    MachineConfig::clustered(CLUSTERS, 4, Topology::Torus { dims: vec![8, 8] })
}

#[derive(Clone, Debug, PartialEq)]
struct Call {
    at: u64,
    from: u32,
    to: u32,
    args_words: u64,
}

/// One kernel run's inputs.
#[derive(Clone, Debug, PartialEq)]
pub struct Storm {
    /// Sorted by issue time: the kernel charges a send when it is issued.
    calls: Vec<Call>,
    /// (link killed then recovered, link degraded 4x).
    links: (usize, usize),
}

impl Storm {
    fn generate(mut rng: Rng) -> Storm {
        let mut calls: Vec<Call> = (0..CALLS)
            .map(|_| {
                let from = rng.below(u64::from(CLUSTERS)) as u32;
                let hop = 1 + rng.below(u64::from(CLUSTERS) - 1) as u32;
                Call {
                    at: rng.below(CALL_WINDOW),
                    from,
                    to: (from + hop) % CLUSTERS,
                    args_words: rng.range(8, 520) as u64,
                }
            })
            .collect();
        calls.sort_by_key(|c| c.at);
        // Link ids on a 2-D torus: cluster·4 + 2·dimension + direction.
        let link_ids = u64::from(CLUSTERS) * 4;
        let killed = rng.below(link_ids) as usize;
        let degraded = (killed + 1 + rng.below(link_ids - 1) as usize) % link_ids as usize;
        Storm {
            calls,
            links: (killed, degraded),
        }
    }

    /// `register_code` + `initiate` + `send` + `inject_faults`.
    fn build(&self, trace: TraceHandle) -> KernelSim {
        let mut sim = KernelSim::new(Machine::new(config()));
        sim.set_trace(trace);
        let code = sim.register_code(CodeBlock::new(
            "work",
            32,
            WorkProfile {
                flops: 5000,
                int_ops: 100,
                mem_words: 200,
            },
            16,
        ));
        for c in 0..CLUSTERS {
            sim.initiate(0, c, code, TASKS_PER_CLUSTER, None, 0);
        }
        for (i, call) in self.calls.iter().enumerate() {
            sim.send(
                call.at,
                call.from,
                call.to,
                KernelMessage::RemoteCall {
                    call_id: i as u64,
                    code,
                    args_words: call.args_words,
                    caller: TaskId(0),
                    reply_cluster: call.from,
                },
            );
        }
        let (killed, degraded) = self.links;
        sim.inject_faults(
            &FaultPlan::none()
                .kill_link(1_000_000, killed)
                .degrade_link(1_500_000, degraded, 4)
                .recover_link(3_000_000, killed),
        );
        sim
    }
}

pub struct KernelStorm {
    storms: Vec<Storm>,
}

impl KernelStorm {
    pub fn setup(seed: u64) -> Self {
        let rng = Rng::new(seed);
        let storms: Vec<Storm> = (0..RUNS).map(|k| Storm::generate(rng.fork(k))).collect();
        // Building a kernel is set-up a user pays before the first event.
        drop(storms[0].build(TraceHandle::disabled()));
        KernelStorm { storms }
    }

    #[cfg(test)]
    pub fn storms(&self) -> &[Storm] {
        &self.storms
    }
}

fn digest_into(d: &mut Digest, op: usize, sim: &KernelSim, makespan: u64) {
    let decoded = |kind| sim.msg_counts().get(&kind).copied().unwrap_or(0);
    let fields = [
        ("makespan", makespan),
        ("events", sim.events_processed()),
        ("machine_events", sim.machine.events),
        ("messages", sim.machine.network.messages),
        ("words_moved", sim.machine.network.total_words_moved()),
        (
            "alloc_links",
            sim.machine.network.allocated_link_records() as u64,
        ),
        (
            "alloc_clusters",
            sim.machine.allocated_cluster_records() as u64,
        ),
        ("tasks", sim.task_count() as u64),
        ("remote_calls", decoded(MessageKind::RemoteCall)),
        ("remote_returns", decoded(MessageKind::RemoteReturn)),
        ("retransmits", sim.stats.retransmits),
        ("dead_letters", sim.stats.drops.dead_letter),
    ];
    push_fields(d, op, &fields);
}

/// A storm has run correctly when every task finished and every remote
/// call was answered.
fn check(op: usize, sim: &KernelSim, failures: &mut Vec<String>) {
    let expected_tasks = u64::from(CLUSTERS * TASKS_PER_CLUSTER) + CALLS;
    if !sim.all_done() || sim.task_count() as u64 != expected_tasks {
        failures.push(format!(
            "kernel_storm: run {op} left tasks unfinished ({} created, {expected_tasks} expected)",
            sim.task_count()
        ));
    }
    if sim.rpc_returns().len() as u64 != CALLS {
        failures.push(format!(
            "kernel_storm: run {op} answered {} of {CALLS} remote calls",
            sim.rpc_returns().len()
        ));
    }
}

impl Workload for KernelStorm {
    /// One operation = one kernel run, build included.
    fn repetition(&mut self) -> Rep {
        let mut rep = Rep::default();
        let t_all = Instant::now();
        for (i, storm) in self.storms.iter().enumerate() {
            let t = Instant::now();
            let mut sim = storm.build(TraceHandle::disabled());
            let makespan = sim.run();
            rep.op_ms.push(t.elapsed().as_secs_f64() * 1e3);
            rep.work += sim.events_processed();
            check(i, &sim, &mut rep.failures);
            digest_into(&mut rep.digest, i, &sim, makespan);
        }
        rep.wall_s = t_all.elapsed().as_secs_f64();
        rep
    }

    fn layers(&mut self, reference: &Rep, out: &mut Layers) -> Vec<String> {
        let mut failures = Vec::new();
        let (mut build_s, mut run_s, mut traced_s, mut replay_s) = (0.0, 0.0, 0.0, 0.0);
        let (mut untraced, mut traced) = (Digest::new(), Digest::new());
        let mut times = ReplayTimes::default();
        let (mut recorded, mut dropped, mut peak_depth) = (0u64, 0u64, 0u64);
        for (i, storm) in self.storms.iter().enumerate() {
            let t = Instant::now();
            let mut sim = storm.build(TraceHandle::disabled());
            build_s += t.elapsed().as_secs_f64();
            let t = Instant::now();
            let makespan = sim.run();
            run_s += t.elapsed().as_secs_f64();
            digest_into(&mut untraced, i, &sim, makespan);
            drop(sim);

            let (handle, ring) = TraceHandle::ring(RING_CAPACITY);
            let t = Instant::now();
            let mut sim = storm.build(handle);
            let makespan = sim.run();
            traced_s += t.elapsed().as_secs_f64();
            check(i, &sim, &mut failures);
            digest_into(&mut traced, i, &sim, makespan);
            let machine_events = sim.machine.events;
            drop(sim);
            let ring = ring.lock().unwrap_or_else(|e| e.into_inner());
            recorded += ring.metrics().total_events();
            dropped += ring.dropped();
            peak_depth = peak_depth.max(ring.metrics().peak_queue_depth());
            let stream = Stream::harvest(&ring);
            drop(ring);
            let (t, events) = replay(&config(), &stream);
            times.add(&t);
            replay_s += t.total_s();
            if events != machine_events {
                failures.push(format!(
                    "kernel_storm: replay issued {events} machine events, run {i} made {machine_events}"
                ));
            }
        }
        failures.extend(diff(
            "kernel_storm",
            "the untraced pass",
            &reference.digest,
            &untraced,
        ));
        failures.extend(diff(
            "kernel_storm",
            "the untraced pass",
            &reference.digest,
            &traced,
        ));
        if dropped > 0 {
            failures.push(format!(
                "kernel_storm: the trace ring dropped {dropped} events"
            ));
        }

        out.add("kernel.build_s", build_s);
        out.add("kernel.run_s", run_s);
        out.add("kernel.self_s", run_s - replay_s);
        out.add("machine.replay_s", replay_s);
        out.add("machine.transmit_ns", times.transmit_ns());
        out.add("machine.charge_ns", times.charge_ns());
        out.add("machine.queue_ns_per_op", times.queue_ns());
        out.add("machine.sim_cycles", total(&untraced, "makespan"));
        out.add("machine.events", total(&untraced, "machine_events"));
        out.add("machine.messages", total(&untraced, "messages"));
        out.add("machine.words_moved", total(&untraced, "words_moved"));
        out.add("machine.alloc_links", total(&untraced, "alloc_links"));
        out.add("machine.alloc_clusters", total(&untraced, "alloc_clusters"));
        out.add("machine.peak_queue_depth", peak_depth as f64);
        out.add("kernel.events", total(&untraced, "events"));
        out.add("kernel.tasks", total(&untraced, "tasks"));
        out.add("kernel.remote_calls", total(&untraced, "remote_calls"));
        out.add("kernel.remote_returns", total(&untraced, "remote_returns"));
        out.add("kernel.retransmits", total(&untraced, "retransmits"));
        out.add("kernel.dead_letters", total(&untraced, "dead_letters"));
        out.add(
            "trace.overhead_pct",
            (traced_s / (build_s + run_s) - 1.0) * 100.0,
        );
        out.add(
            "trace.attributed_pct",
            (build_s + run_s) / reference.wall_s * 100.0,
        );
        out.add("trace.events_recorded", recorded as f64);
        out.add("trace.dropped", dropped as f64);
        failures
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_storms_and_seeds_differ() {
        assert_eq!(
            KernelStorm::setup(7).storms(),
            KernelStorm::setup(7).storms()
        );
        assert_ne!(
            KernelStorm::setup(7).storms(),
            KernelStorm::setup(8).storms()
        );
        let storms = KernelStorm::setup(7);
        assert_ne!(storms.storms()[0], storms.storms()[1], "sub-seeds differ");
    }

    #[test]
    fn calls_are_sorted_remote_and_in_range() {
        for storm in KernelStorm::setup(5).storms() {
            assert_eq!(storm.calls.len() as u64, CALLS);
            assert!(storm.calls.windows(2).all(|w| w[0].at <= w[1].at));
            for c in &storm.calls {
                assert!(c.from != c.to && c.from < CLUSTERS && c.to < CLUSTERS);
                assert!((8..=520).contains(&c.args_words) && c.at < CALL_WINDOW);
            }
            assert_ne!(storm.links.0, storm.links.1);
        }
    }
}
