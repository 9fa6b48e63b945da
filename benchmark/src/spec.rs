//! The benchmark's contract in one place: workloads, end-to-end metrics
//! with their regression bounds, and per-layer metrics with the end-to-end
//! metric × workload pairs each is predicted to move. `BENCHMARK.json` at
//! the repo root states the same names, units and directions; the tests
//! below keep the two in step.

/// Written into every result file; `compare` refuses to mix versions.
pub const VERSION: &str = "fem2-benchmark/1";
/// The seed `benchmark/expected.json` pins.
pub const DEFAULT_SEED: u64 = 1983;
/// Measurement window of one run, seconds (`run_seconds` in the manifest).
pub const RUN_SECONDS: u64 = 15;

pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
    /// What `work_per_s` counts on this workload.
    pub work_unit: &'static str,
    /// Run the pass on one CPU (`taskset`), for a workload whose every
    /// operation crosses threads: on a shared VM a wake-up that must reach
    /// another vCPU costs whatever the hypervisor's scheduler makes it
    /// cost (README, "`serve_mix` runs on one CPU").
    pub one_cpu: bool,
}

pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "plate_xbar",
        why: "16 large plates on the paper's 4x8 crossbar: routing is trivial and cached, so NA-VM arithmetic, pick_worker and charge do the work; network and event queue do almost none",
        work_unit: "simulated machine events",
        one_cpu: false,
    },
    WorkloadDef {
        name: "plate_torus",
        why: "3 plates as 128 tasks on a 1024-cluster 32x32 torus: multi-hop routes, per-hop link reservation and the route cache on its hit path dominate (the ROADMAP's 4x-per-event row)",
        work_unit: "simulated machine events",
        one_cpu: false,
    },
    WorkloadDef {
        name: "net_cold",
        why: "fresh 4096-cluster machines (2-D torus, 3-D torus, fat tree) swept cold then warm: every first transmit is a route-cache miss + insert and materialises link records; no event queue, no NA-VM",
        work_unit: "simulated machine events",
        one_cpu: false,
    },
    WorkloadDef {
        name: "kernel_storm",
        why: "66000 tasks and 2000 remote calls under a link kill/degrade/recover plan on an 8x8 torus: the only path through EventQueue and the kernel's acks, retransmits and dedup",
        work_unit: "DES events dispatched",
        one_cpu: false,
    },
    WorkloadDef {
        name: "fem_native",
        why: "CG, Jacobi-PCG and skyline analyses of an 8450-dof cantilever with no simulator: assembly, CSR, SpMV, Cholesky, stress recovery; a simulator optimisation must leave it flat",
        work_unit: "solver flops",
        one_cpu: false,
    },
    WorkloadDef {
        name: "serve_mix",
        why: "closed loop, 1 client, 400 requests over TCP to an in-process fem2-serve: 30% cold runs, 60% cache hits, 10% refusals; HTTP accept to registry append with writes beside reads",
        work_unit: "HTTP requests answered",
        one_cpu: true,
    },
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

use Better::{Higher, Lower};

const fn metric(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

// The four timings and set-up sit at the contract's ceiling: on this host
// a noisy hour lifts even the fastest-operation figures of a CPU-bound
// workload by 20 % (README, "Measured spread").
pub const END_TO_END: &[EndToEnd] = &[
    metric("setup_s", "s", Lower, 0.25),
    metric("wall_s", "s", Lower, 0.25),
    metric("work_per_s", "1/s", Higher, 0.25),
    metric("op_p50_ms", "ms", Lower, 0.25),
    metric("op_p90_ms", "ms", Lower, 0.25),
    metric("peak_rss_mb", "MiB", Lower, 0.15),
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// A count that must repeat bit-for-bit between passes and commits.
    pub exact: bool,
    /// `(end-to-end metric, workload)` pairs a change to this number should
    /// move; empty for counts that must not move and for pure guards.
    pub moves: &'static [(&'static str, &'static str)],
}

const fn timing(
    name: &'static str,
    unit: &'static str,
    moves: &'static [(&'static str, &'static str)],
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Lower,
        exact: false,
        moves,
    }
}

/// A figure where more is better and nothing end-to-end follows from it.
const fn gauge(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Higher,
        exact: false,
        moves: NOTHING,
    }
}

const fn exact(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Lower,
        exact: true,
        moves: &[],
    }
}

const PLATES_WALL: &[(&str, &str)] = &[("wall_s", "plate_xbar"), ("wall_s", "plate_torus")];
const PLATES_SETUP: &[(&str, &str)] = &[
    ("setup_s", "plate_xbar"),
    ("setup_s", "plate_torus"),
    ("op_p50_ms", "serve_mix"),
];
const XBAR: &[(&str, &str)] = &[("wall_s", "plate_xbar"), ("work_per_s", "plate_xbar")];
const XBAR_AND_TORUS: &[(&str, &str)] = &[
    ("wall_s", "plate_xbar"),
    ("work_per_s", "plate_xbar"),
    ("wall_s", "plate_torus"),
];
const TRANSMIT: &[(&str, &str)] = &[
    ("work_per_s", "plate_torus"),
    ("wall_s", "plate_torus"),
    ("work_per_s", "kernel_storm"),
];
const COLD_NET: &[(&str, &str)] = &[
    ("work_per_s", "net_cold"),
    ("op_p90_ms", "net_cold"),
    ("setup_s", "net_cold"),
];
const WARM_NET: &[(&str, &str)] = &[("work_per_s", "net_cold"), ("work_per_s", "plate_torus")];
const STORM: &[(&str, &str)] = &[("wall_s", "kernel_storm"), ("work_per_s", "kernel_storm")];
const STORM_SETUP: &[(&str, &str)] = &[("setup_s", "kernel_storm"), ("wall_s", "kernel_storm")];
const FEM: &[(&str, &str)] = &[("wall_s", "fem_native"), ("work_per_s", "fem_native")];
const FEM_P50: &[(&str, &str)] = &[("wall_s", "fem_native"), ("op_p50_ms", "fem_native")];
const FEM_P90: &[(&str, &str)] = &[("wall_s", "fem_native"), ("op_p90_ms", "fem_native")];
const FEM_SETUP: &[(&str, &str)] = &[("setup_s", "fem_native")];
const SERVE_HIT: &[(&str, &str)] = &[("op_p50_ms", "serve_mix"), ("work_per_s", "serve_mix")];
const SERVE_COLD: &[(&str, &str)] = &[("op_p90_ms", "serve_mix"), ("work_per_s", "serve_mix")];
const SERVE_ALL: &[(&str, &str)] = &[
    ("op_p50_ms", "serve_mix"),
    ("op_p90_ms", "serve_mix"),
    ("work_per_s", "serve_mix"),
];
const SERVE_SETUP: &[(&str, &str)] = &[("setup_s", "serve_mix")];
const NOTHING: &[(&str, &str)] = &[];

pub const PER_LAYER: &[PerLayer] = &[
    // core: lowering, content hash, and the plate driver's own time.
    timing("core.lower_us", "us", PLATES_SETUP),
    timing("core.hash_us", "us", SERVE_HIT),
    timing("core.driver_self_s", "s", PLATES_WALL),
    // verify: the static passes and what they predict.
    timing("verify.check_us", "us", PLATES_SETUP),
    timing("verify.cost_us", "us", PLATES_SETUP),
    exact("verify.predicted_cycles", "cycles"),
    exact("verify.predicted_events", "count"),
    timing("verify.bound_tightness", "ratio", NOTHING),
    // navm: spans around the public NaVm ops of the plate driver.
    timing("navm.pardo_s", "s", XBAR),
    timing("navm.stencil5_s", "s", XBAR_AND_TORUS),
    timing("navm.inner_s", "s", XBAR_AND_TORUS),
    timing("navm.axpy_s", "s", XBAR),
    timing("navm.fill_copy_s", "s", XBAR),
    timing("navm.self_s", "s", XBAR),
    exact("navm.ops", "count"),
    exact("navm.cg_iters", "count"),
    // machine: the traced stream replayed against a fresh machine.
    timing("machine.replay_s", "s", XBAR_AND_TORUS),
    timing("machine.transmit_ns", "ns", TRANSMIT),
    timing("machine.charge_ns", "ns", XBAR),
    timing("machine.pick_worker_ns", "ns", XBAR),
    timing("machine.transmit_cold_ns", "ns", COLD_NET),
    timing("machine.transmit_warm_ns", "ns", WARM_NET),
    timing("machine.new_us", "us", COLD_NET),
    timing("machine.queue_ns_per_op", "ns", STORM),
    exact("machine.sim_cycles", "cycles"),
    exact("machine.events", "count"),
    exact("machine.messages", "count"),
    exact("machine.words_moved", "count"),
    exact("machine.alloc_links", "count"),
    exact("machine.alloc_clusters", "count"),
    exact("machine.peak_queue_depth", "count"),
    // kernel: build and run of the storm, and what is left after replays.
    timing("kernel.build_s", "s", STORM_SETUP),
    timing("kernel.run_s", "s", STORM),
    timing("kernel.self_s", "s", STORM),
    exact("kernel.events", "count"),
    exact("kernel.tasks", "count"),
    exact("kernel.remote_calls", "count"),
    exact("kernel.remote_returns", "count"),
    exact("kernel.retransmits", "count"),
    exact("kernel.dead_letters", "count"),
    // fem: the phases `analyze` is made of.
    timing("fem.mesh_s", "s", FEM_SETUP),
    timing("fem.assemble_s", "s", FEM),
    timing("fem.reduce_s", "s", FEM),
    timing("fem.cg_s", "s", FEM_P50),
    timing("fem.pcg_s", "s", FEM_P50),
    timing("fem.skyline_s", "s", FEM_P90),
    timing("fem.stress_s", "s", FEM),
    timing("fem.matvec_ns_per_nnz", "ns", FEM_P50),
    exact("fem.nnz", "count"),
    exact("fem.cg_iters", "count"),
    exact("fem.pcg_iters", "count"),
    exact("fem.flops", "count"),
    timing("fem.cg_vs_skyline_relerr", "ratio", NOTHING),
    // par: guard for the pool under parallel CG (ROADMAP 3c).
    timing("par.cg_s", "s", NOTHING),
    gauge("par.cg_speedup", "ratio"),
    // trace: the stated cost of the traced pass.
    timing("trace.overhead_pct", "%", NOTHING),
    gauge("trace.attributed_pct", "%"),
    exact("trace.events_recorded", "count"),
    exact("trace.dropped", "count"),
    // serve: one request from parse to registry append, and per-class
    // latencies of the mix.
    timing("serve.parse_us", "us", SERVE_ALL),
    timing("serve.http_rtt_us", "us", SERVE_ALL),
    timing("serve.lookup_us", "us", SERVE_HIT),
    timing("serve.execute_ms", "ms", SERVE_COLD),
    timing("serve.persist_first_us", "us", SERVE_COLD),
    timing("serve.persist_last_us", "us", SERVE_COLD),
    timing("serve.reopen_ms", "ms", SERVE_SETUP),
    timing("serve.polls_per_cold", "count", SERVE_COLD),
    timing("serve.cold_unattributed_ms", "ms", SERVE_COLD),
    timing("serve.cold_p50_ms", "ms", SERVE_COLD),
    timing("serve.cold_p90_ms", "ms", SERVE_COLD),
    timing("serve.hit_p50_ms", "ms", SERVE_HIT),
    timing("serve.hit_p90_ms", "ms", SERVE_HIT),
    timing("serve.reject_422_p50_ms", "ms", SERVE_HIT),
    timing("serve.reject_400_p50_ms", "ms", SERVE_HIT),
    exact("serve.sims_run", "count"),
    exact("serve.cache_hits", "count"),
    exact("serve.rejected", "count"),
    exact("serve.shed", "count"),
    exact("serve.auto_budgeted", "count"),
];

pub fn workload(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::json::Value;

    const MANIFEST: &str = include_str!("../../BENCHMARK.json");

    fn name_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    fn text(v: &Value, key: &str) -> String {
        match v.get_field(key) {
            Ok(Value::Str(s)) => s.clone(),
            other => panic!("`{key}` must be a string, found {other:?}"),
        }
    }

    fn items<'v>(v: &'v Value, key: &str) -> &'v [Value] {
        match v.get_field(key) {
            Ok(Value::Arr(a)) => a,
            other => panic!("`{key}` must be an array, found {other:?}"),
        }
    }

    #[test]
    fn tables_respect_the_contract_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &names {
            assert!(name_ok(n), "bad name {n}");
        }
        let unique: std::collections::BTreeSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in END_TO_END {
            assert!(unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = end_to_end("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        for m in PER_LAYER {
            assert!(unit_ok(m.unit), "{}", m.name);
        }
    }

    #[test]
    fn every_predicted_move_names_a_real_metric_and_workload() {
        for m in PER_LAYER {
            for (metric, on) in m.moves {
                assert!(
                    end_to_end(metric).is_some(),
                    "{}: no metric {metric}",
                    m.name
                );
                assert!(workload(on).is_some(), "{}: no workload {on}", m.name);
            }
            assert!(
                !m.exact || m.moves.is_empty(),
                "{}: exact counts must not move",
                m.name
            );
        }
    }

    #[test]
    fn manifest_matches_the_tables() {
        assert!(MANIFEST.len() <= 64 * 1024);
        let doc = serde_json::parse_value(MANIFEST).expect("BENCHMARK.json parses");
        let Value::Obj(pairs) = &doc else {
            panic!("manifest must be an object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(
            doc.get_field("run_seconds").unwrap(),
            &Value::UInt(RUN_SECONDS)
        );
        assert_eq!(items(&doc, "paths"), [Value::Str("benchmark".into())]);

        let workloads = items(&doc, "workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (got, want) in workloads.iter().zip(WORKLOADS) {
            assert_eq!(text(got, "name"), want.name);
            assert_eq!(text(got, "why"), want.why);
        }
        let e2e = items(&doc, "end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (got, want) in e2e.iter().zip(END_TO_END) {
            assert_eq!(text(got, "name"), want.name);
            assert_eq!(text(got, "unit"), want.unit);
            assert_eq!(text(got, "better"), want.better.name());
            assert_eq!(got.get_field("bound").unwrap(), &Value::Float(want.bound));
        }
        let layers = items(&doc, "per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (got, want) in layers.iter().zip(PER_LAYER) {
            assert_eq!(text(got, "name"), want.name);
            assert_eq!(text(got, "unit"), want.unit);
            assert_eq!(text(got, "better"), want.better.name());
        }
    }
}
