//! `net_cold`: the network layer used the other way round. Fresh
//! 4096-cluster machines are swept once cold (every transmit is a
//! route-cache miss + insert and materialises link records) and once warm.
//! No event queue, no NA-VM.

use crate::harness::{diff, push_fields, total, Digest, Layers, Rep, Workload};
use crate::rng::Rng;
use fem2_machine::{CostClass, Machine, MachineConfig, Topology};
use fem2_trace::TraceHandle;
use std::hint::black_box;
use std::time::Instant;

const CLUSTERS: u32 = 4096;
/// Fresh machines per topology per repetition. Three topologies of equal
/// count keep `op_p50_ms` and `op_p90_ms` inside one topology's
/// operations instead of on the boundary between two.
const MACHINES_PER_TOPOLOGY: usize = 7;
const WORDS: u64 = 64;
const FLOPS: u64 = 64;

fn topologies() -> [Topology; 3] {
    [
        Topology::Torus { dims: vec![64, 64] },
        Topology::Torus {
            dims: vec![16, 16, 16],
        },
        Topology::FatTree { radix: 64 },
    ]
}

/// One machine to build and sweep: the clusters are visited in the order
/// `start + i·stride (mod 4096)`, a seeded permutation (`stride` is odd).
#[derive(Clone, Debug, PartialEq)]
pub struct Sweep {
    topology: Topology,
    start: u32,
    stride: u32,
    /// Each cluster's near partner is `near` clusters away (±1, seeded).
    near: u32,
}

impl Sweep {
    fn config(&self) -> MachineConfig {
        MachineConfig::clustered(CLUSTERS, 2, self.topology.clone())
    }

    fn clusters(&self) -> impl Iterator<Item = u32> + '_ {
        (0..CLUSTERS).map(move |i| self.start.wrapping_add(i.wrapping_mul(self.stride)) % CLUSTERS)
    }

    fn charge(&self, m: &mut Machine, makespan: &mut u64) {
        for c in self.clusters() {
            let pe = m.pick_worker(c).expect("two PEs per cluster");
            let done = m
                .charge(0, pe, CostClass::Flop, FLOPS)
                .expect("healthy machine");
            *makespan = (*makespan).max(done);
        }
    }

    /// One neighbour and one antipodal transmit per cluster.
    fn transmit(&self, m: &mut Machine, makespan: &mut u64) {
        for c in self.clusters() {
            let near = m.transmit(0, c, (c + self.near) % CLUSTERS, WORDS);
            let far = m.transmit(0, c, (c + CLUSTERS / 2) % CLUSTERS, WORDS);
            *makespan = (*makespan).max(near).max(far);
        }
    }

    /// The sweep as the end-to-end runs issue it: charge and transmits
    /// interleaved per cluster.
    fn interleaved(&self, m: &mut Machine, makespan: &mut u64) {
        for c in self.clusters() {
            let pe = m.pick_worker(c).expect("two PEs per cluster");
            let done = m
                .charge(0, pe, CostClass::Flop, FLOPS)
                .expect("healthy machine");
            let near = m.transmit(0, c, (c + self.near) % CLUSTERS, WORDS);
            let far = m.transmit(0, c, (c + CLUSTERS / 2) % CLUSTERS, WORDS);
            *makespan = (*makespan).max(done).max(near).max(far);
        }
    }
}

pub struct NetCold {
    sweeps: Vec<Sweep>,
}

impl NetCold {
    pub fn setup(seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        let mut sweeps = Vec::new();
        for topology in topologies() {
            // Building one machine of each shape is part of set-up, so a
            // change that makes `Machine::new` dearer shows in `setup_s`.
            black_box(Machine::new(MachineConfig::clustered(
                CLUSTERS,
                2,
                topology.clone(),
            )));
            for _ in 0..MACHINES_PER_TOPOLOGY {
                sweeps.push(Sweep {
                    topology: topology.clone(),
                    start: rng.below(u64::from(CLUSTERS)) as u32,
                    stride: (rng.below(u64::from(CLUSTERS) / 2) * 2 + 1) as u32,
                    near: if rng.below(2) == 0 { 1 } else { CLUSTERS - 1 },
                });
            }
        }
        rng.shuffle(&mut sweeps);
        NetCold { sweeps }
    }

    #[cfg(test)]
    pub fn sweeps(&self) -> &[Sweep] {
        &self.sweeps
    }
}

fn digest_into(d: &mut Digest, op: usize, m: &Machine, makespan: u64) {
    let fields = [
        ("makespan", makespan),
        ("events", m.events),
        ("messages", m.network.messages),
        ("words_moved", m.network.total_words_moved()),
        ("alloc_links", m.network.allocated_link_records() as u64),
        ("alloc_clusters", m.allocated_cluster_records() as u64),
    ];
    push_fields(d, op, &fields);
}

impl Workload for NetCold {
    /// One operation = one machine: build it, sweep it cold, sweep it warm.
    fn repetition(&mut self) -> Rep {
        let mut rep = Rep::default();
        let t_all = Instant::now();
        for (i, sweep) in self.sweeps.iter().enumerate() {
            let t = Instant::now();
            let mut m = Machine::new(sweep.config());
            let mut makespan = 0;
            sweep.interleaved(&mut m, &mut makespan);
            sweep.interleaved(&mut m, &mut makespan);
            rep.op_ms.push(t.elapsed().as_secs_f64() * 1e3);
            rep.work += m.events;
            digest_into(&mut rep.digest, i, &m, makespan);
        }
        rep.wall_s = t_all.elapsed().as_secs_f64();
        rep
    }

    fn layers(&mut self, reference: &Rep, out: &mut Layers) -> Vec<String> {
        let mut failures = Vec::new();
        let untraced = self.repetition();
        failures.extend(diff(
            "net_cold",
            "the untraced pass",
            &reference.digest,
            &untraced.digest,
        ));

        // The same calls issued class by class, so each class is timed as
        // one loop. The network never sees the charges, so the simulated
        // outcome is the interleaved sweep's.
        let mut split = Digest::new();
        let (mut new_s, mut charge_s, mut pick_s, mut cold_s, mut warm_s) =
            (0.0, 0.0, 0.0, 0.0, 0.0);
        for (i, sweep) in self.sweeps.iter().enumerate() {
            let mut makespan = 0;
            let t = Instant::now();
            let mut m = Machine::new(sweep.config());
            new_s += t.elapsed().as_secs_f64();
            let t = Instant::now();
            sweep.charge(&mut m, &mut makespan);
            charge_s += t.elapsed().as_secs_f64();
            let t = Instant::now();
            sweep.transmit(&mut m, &mut makespan);
            cold_s += t.elapsed().as_secs_f64();
            sweep.charge(&mut m, &mut makespan);
            let t = Instant::now();
            sweep.transmit(&mut m, &mut makespan);
            warm_s += t.elapsed().as_secs_f64();
            let t = Instant::now();
            for c in sweep.clusters() {
                black_box(m.pick_worker(c));
            }
            pick_s += t.elapsed().as_secs_f64();
            digest_into(&mut split, i, &m, makespan);
        }
        failures.extend(diff(
            "net_cold",
            "the interleaved sweep",
            &reference.digest,
            &split,
        ));

        // Traced: the interleaved repetition with a ring on every machine.
        let mut traced = Digest::new();
        let (mut traced_wall, mut recorded, mut dropped) = (0.0, 0u64, 0u64);
        for (i, sweep) in self.sweeps.iter().enumerate() {
            let (handle, ring) = TraceHandle::ring(1 << 16);
            let t = Instant::now();
            let mut m = Machine::new(sweep.config());
            m.set_trace(handle);
            let mut makespan = 0;
            sweep.interleaved(&mut m, &mut makespan);
            sweep.interleaved(&mut m, &mut makespan);
            traced_wall += t.elapsed().as_secs_f64();
            digest_into(&mut traced, i, &m, makespan);
            let ring = ring.lock().unwrap_or_else(|e| e.into_inner());
            recorded += ring.metrics().total_events();
            dropped += ring.dropped();
        }
        failures.extend(diff(
            "net_cold",
            "the untraced pass",
            &reference.digest,
            &traced,
        ));
        if dropped > 0 {
            failures.push(format!("net_cold: the trace ring dropped {dropped} events"));
        }

        let machines = self.sweeps.len() as f64;
        let per_cluster = machines * f64::from(CLUSTERS);
        out.add("machine.new_us", new_s * 1e6 / machines);
        out.add("machine.charge_ns", charge_s * 1e9 / per_cluster);
        out.add("machine.pick_worker_ns", pick_s * 1e9 / per_cluster);
        out.add(
            "machine.transmit_cold_ns",
            cold_s * 1e9 / (2.0 * per_cluster),
        );
        out.add(
            "machine.transmit_warm_ns",
            warm_s * 1e9 / (2.0 * per_cluster),
        );
        out.add(
            "machine.transmit_ns",
            (cold_s + warm_s) * 1e9 / (4.0 * per_cluster),
        );
        out.add("machine.replay_s", new_s + 2.0 * charge_s + cold_s + warm_s);
        out.add("machine.sim_cycles", total(&split, "makespan"));
        out.add("machine.events", total(&split, "events"));
        out.add("machine.messages", total(&split, "messages"));
        out.add("machine.words_moved", total(&split, "words_moved"));
        out.add("machine.alloc_links", total(&split, "alloc_links"));
        out.add("machine.alloc_clusters", total(&split, "alloc_clusters"));
        out.add(
            "trace.overhead_pct",
            (traced_wall / untraced.wall_s - 1.0) * 100.0,
        );
        out.add(
            "trace.attributed_pct",
            (new_s + 2.0 * charge_s + cold_s + warm_s) / untraced.wall_s * 100.0,
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
    fn same_seed_same_sweeps_and_seeds_differ() {
        assert_eq!(NetCold::setup(7).sweeps(), NetCold::setup(7).sweeps());
        assert_ne!(NetCold::setup(7).sweeps(), NetCold::setup(8).sweeps());
    }

    #[test]
    fn every_sweep_visits_every_cluster_once() {
        for sweep in NetCold::setup(3).sweeps() {
            let mut seen = vec![false; CLUSTERS as usize];
            for c in sweep.clusters() {
                assert!(!std::mem::replace(&mut seen[c as usize], true));
            }
        }
    }
}
