//! Microbench: `Network::transmit` on mesh and ring, healthy and with a
//! failed link — the route-cache hot path (lookup + contention update) —
//! and a 4096-cluster sweep cold (fresh network: route computed, table
//! entry inserted, link records materialised) and warm (the same network
//! swept again), so the cold/warm ratio of one transmit has a number here.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use fem2_core::machine::{MachineConfig, Network, Topology};

fn all_pairs(net: &mut Network, clusters: u32) -> u64 {
    let mut worst = 0;
    for from in 0..clusters {
        for to in 0..clusters {
            if from != to {
                // Fallible: a dead mesh link strands same-row pairs that
                // XY and YX routing both cross; the None lookup is itself
                // a cached hot path worth timing.
                if let Some(arrival) = net.try_transmit(0, from, to, 64) {
                    worst = worst.max(arrival);
                }
            }
        }
    }
    worst
}

/// One neighbour and one antipodal transmit per cluster, as the `net_cold`
/// benchmark workload sweeps a machine.
fn sweep(net: &mut Network, clusters: u32) -> u64 {
    let mut worst = 0;
    for from in 0..clusters {
        let near = net.transmit(0, from, (from + 1) % clusters, 64);
        let far = net.transmit(0, from, (from + clusters / 2) % clusters, 64);
        worst = worst.max(near).max(far);
    }
    worst
}

fn bench_4096(c: &mut Criterion) {
    let clusters = 4096u32;
    let machines = [
        ("torus_64x64", Topology::Torus { dims: vec![64, 64] }),
        (
            "torus_16x16x16",
            Topology::Torus {
                dims: vec![16, 16, 16],
            },
        ),
        ("fat_tree_64", Topology::FatTree { radix: 64 }),
    ]
    .map(|(name, topo)| (name, MachineConfig::clustered(clusters, 2, topo)));
    let mut cold = c.benchmark_group("cold_4096");
    cold.sample_size(10);
    for (name, cfg) in &machines {
        cold.bench_function(*name, |b| {
            b.iter(|| black_box(sweep(&mut Network::new(cfg), clusters)))
        });
    }
    cold.finish();
    let mut warm = c.benchmark_group("warm_4096");
    warm.sample_size(10);
    for (name, cfg) in &machines {
        let mut net = Network::new(cfg);
        sweep(&mut net, clusters);
        warm.bench_function(*name, |b| b.iter(|| black_box(sweep(&mut net, clusters))));
    }
    warm.finish();
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("network_transmit");
    g.sample_size(10);
    let clusters = 16u32;
    for (name, topo, broken) in [
        ("mesh", Topology::Mesh2D { width: 4 }, None),
        // +x link out of cluster 5: reroutes through the YX fallback.
        (
            "mesh_failed_link",
            Topology::Mesh2D { width: 4 },
            Some(5 * 4),
        ),
        ("ring", Topology::Ring, None),
        // Forward link out of cluster 3: forces the backward detour.
        ("ring_failed_link", Topology::Ring, Some(3)),
    ] {
        let cfg = MachineConfig::clustered(clusters, 2, topo);
        g.bench_function(name, |b| {
            b.iter(|| {
                let mut net = Network::new(&cfg);
                if let Some(link) = broken {
                    net.fail_link(link);
                }
                black_box(all_pairs(&mut net, clusters))
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench, bench_4096);
criterion_main!(benches);
