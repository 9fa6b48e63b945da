//! Microbench: the kernel's own bookkeeping on an 8x8 torus — what
//! `kernel_storm` spends outside the machine. A reliable send's round trip
//! (tracked transmit + back-leg estimate, arrival loss check, ack, dedup,
//! pending-table removal, stale timeout), healthy and across a link kill /
//! recover that moves the fault epoch under messages in flight; and the
//! `TaskComplete` + `Dispatch` pair every task costs. Prints
//! `KernelSim::EVENT_BYTES`, the record the event queue moves around.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use fem2_core::machine::fault::FaultPlan;
use fem2_core::machine::{Machine, MachineConfig, Topology};
use fem2_kernel::{CodeBlock, KernelMessage, KernelSim, WorkProfile};

const CLUSTERS: u32 = 64;
const WAVES: u64 = 250;
const WAVE: u64 = 16;
const TASKS_PER_CLUSTER: u32 = 250;
/// Node 27's +y link: on the dimension-order route of many pairs.
const FLAKY_LINK: usize = 4 * 27 + 2;

fn sim() -> KernelSim {
    let topo = Topology::Torus { dims: vec![8, 8] };
    KernelSim::new(Machine::new(MachineConfig::clustered(CLUSTERS, 4, topo)))
}

/// `WAVES` waves of `WAVE` remote messages between spread-out pairs, each
/// wave drained before the next is sent. A `RemoteReturn` is the cheapest
/// message to execute, so the round trip is what is timed. With `flaky`,
/// one link is killed or repaired in the middle of every wave: the fault
/// epoch moves under messages and acks in flight (the per-slot loss check
/// runs, some are lost and retransmitted) and every route is recomputed.
fn round_trips(flaky: bool) -> u64 {
    let mut k = sim();
    for wave in 0..WAVES {
        let now = k.now();
        if flaky {
            let plan = FaultPlan::none();
            k.inject_faults(&if wave % 2 == 0 {
                plan.kill_link(now + 800, FLAKY_LINK)
            } else {
                plan.recover_link(now + 800, FLAKY_LINK)
            });
        }
        for j in 0..WAVE {
            let i = wave * WAVE + j;
            let from = (i * 7 % u64::from(CLUSTERS)) as u32;
            let to = (from + 1 + (i * 13 % (u64::from(CLUSTERS) - 1)) as u32) % CLUSTERS;
            let msg = KernelMessage::RemoteReturn {
                call_id: i % 16,
                result_words: 2,
            };
            k.send(now + j * 100, from, to, msg);
        }
        k.run();
    }
    k.events_processed() + k.stats.lost_in_flight
}

fn bench(c: &mut Criterion) {
    println!("size_of::<KEvent>() = {} bytes", KernelSim::EVENT_BYTES);
    let mut g = c.benchmark_group("kernel_send");
    g.sample_size(10);
    let sends = WAVES * WAVE;
    g.bench_function(format!("round_trip_healthy_x{sends}"), |b| {
        b.iter(|| black_box(round_trips(false)))
    });
    g.bench_function(format!("round_trip_kill_recover_x{sends}"), |b| {
        b.iter(|| black_box(round_trips(true)))
    });
    g.bench_function(
        format!("complete_dispatch_x{}", CLUSTERS * TASKS_PER_CLUSTER),
        |b| {
            b.iter(|| {
                let mut k = sim();
                let code = k.register_code(CodeBlock::new(
                    "work",
                    32,
                    WorkProfile {
                        flops: 5000,
                        int_ops: 100,
                        mem_words: 200,
                    },
                    16,
                ));
                for cluster in 0..CLUSTERS {
                    k.initiate(0, cluster, code, TASKS_PER_CLUSTER, None, 0);
                }
                black_box(k.run())
            })
        },
    );
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
