//! The E1–E10 experiment and A1/A2/A6 study implementations.
//!
//! Every function is deterministic (fixed seeds, simulated time), so tables
//! are reproducible run to run; see EXPERIMENTS.md for the paper-claim vs
//! measured discussion of each.

use fem2_core::fem::bc::{Constraints, LoadSet};
use fem2_core::fem::partition::Partition;
use fem2_core::fem::solver::{self, IterControls};
use fem2_core::fem::substructure::analyze_substructures;
use fem2_core::fem::{Material, Mesh};
use fem2_core::kernel::{CodeBlock, Heap, KernelMessage, KernelSim, TaskId, WorkProfile};
use fem2_core::machine::fault::FaultPlan;
use fem2_core::machine::{CostClass, Machine, MachineConfig, Network, PeId, Topology};
use fem2_core::navm::{plate_cg, NaVm, TaskHandle};
use fem2_core::scenario::{PlateScenario, ScenarioReport};
use fem2_core::DesignSpace;
use fem2_trace::DegradationReport;
use std::fmt::Write as _;

/// A deterministic pseudo-random stream (xorshift), so "irregular" traffic
/// patterns are reproducible without pulling `rand` into the tables.
struct XorShift(u64);

impl XorShift {
    /// Seeded generator.
    fn new(seed: u64) -> Self {
        XorShift(seed.max(1))
    }

    /// Next value.
    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    /// Uniform in `[0, n)`.
    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

// ---------------------------------------------------------------------
// E1 — processing / storage / communication requirements vs problem size
// ---------------------------------------------------------------------

/// E1: requirement tables for the plate application at several sizes.
pub fn e1_requirements(sizes: &[usize]) -> (String, Vec<ScenarioReport>) {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "E1 — requirements of the typical large-scale application (clustered FEM-2, {})",
        MachineConfig::fem2_default().describe()
    );
    let _ = writeln!(out, "{}", ScenarioReport::header());
    let mut reports = Vec::new();
    for &n in sizes {
        let r = PlateScenario::square(n, MachineConfig::fem2_default()).run();
        let _ = writeln!(out, "{}", r.row());
        reports.push(r);
    }
    // Per-phase detail at the largest size.
    if let Some(r) = reports.last() {
        let _ = writeln!(
            out,
            "\nper-phase detail at n = {}:",
            (r.unknowns as f64).sqrt() as usize
        );
        out.push_str(&r.table);
    }
    (out, reports)
}

// ---------------------------------------------------------------------
// E2 — speedup: clustered FEM-2 vs FEM-1-style flat array
// ---------------------------------------------------------------------

/// E2: fixed-size speedup of the plate solve on clustered vs flat machines.
pub fn e2_speedup(n: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "E2 — speedup on a {n}x{n} plate (fixed size)");
    let _ = writeln!(
        out,
        "{:>8} {:>14} {:>9} {:>7} {:>14} {:>9}",
        "workers", "clustered(cy)", "speedup", "eff", "flat-bus(cy)", "speedup"
    );
    // Baseline: one worker.
    let base_cfg = {
        let mut c = MachineConfig::clustered(1, 1, Topology::Crossbar);
        c.dedicated_kernel_pe = false;
        c
    };
    let t1 = PlateScenario::square(n, base_cfg).run().elapsed;
    for &(clusters, pes) in &[(1u32, 1u32), (1, 2), (1, 4), (1, 8), (2, 8), (4, 8), (8, 8)] {
        let mut cfg = MachineConfig::clustered(clusters, pes, Topology::Crossbar);
        cfg.dedicated_kernel_pe = false;
        let workers = cfg.total_workers();
        let tc = PlateScenario::square(n, cfg).run().elapsed;
        let flat = MachineConfig::fem1_style(workers);
        let tf = PlateScenario::square(n, flat).run().elapsed;
        let _ = writeln!(
            out,
            "{:>8} {:>14} {:>9.2} {:>7.2} {:>14} {:>9.2}",
            workers,
            tc,
            t1 as f64 / tc as f64,
            t1 as f64 / tc as f64 / workers as f64,
            tf,
            t1 as f64 / tf as f64
        );
    }
    out
}

// ---------------------------------------------------------------------
// E3 — window access: row / column / block, local vs remote
// ---------------------------------------------------------------------

/// E3: cycles per element moved through windows of each shape.
pub fn e3_windows() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "E3 — window access cost (256x256 array, 8 tasks on 4 clusters)"
    );
    let _ = writeln!(
        out,
        "{:>8} {:>10} {:>12} {:>14} {:>12}",
        "window", "elements", "locality", "cycles", "cy/element"
    );
    let mut vm = NaVm::simulated(MachineConfig::fem2_default(), 8);
    let a = vm.array(256, 256);
    vm.fill(a, |r, c| (r + c) as f64);

    // Rows 0..32 live on task 0/cluster 0; rows 224.. on cluster 3.
    let probes: Vec<(&str, fem2_core::navm::Window, &str)> = vec![
        ("row", vm.row_window(a, 4), "local"),
        ("row", vm.row_window(a, 250), "remote"),
        ("column", vm.col_window(a, 10), "spanning"),
        ("block", vm.window(a, 0, 16, 0, 16), "local"),
        ("block", vm.window(a, 232, 248, 0, 16), "remote"),
        ("block", vm.window(a, 0, 256, 0, 64), "spanning"),
    ];
    for (label, w, locality) in probes {
        let t0 = vm.elapsed();
        let vals = vm.read_window(TaskHandle(0), &w);
        let dt = vm.elapsed() - t0;
        let _ = writeln!(
            out,
            "{:>8} {:>10} {:>12} {:>14} {:>12.2}",
            label,
            vals.len(),
            locality,
            dt,
            dt as f64 / vals.len() as f64
        );
    }
    out
}

// ---------------------------------------------------------------------
// E4 — large-scale dynamic task initiation
// ---------------------------------------------------------------------

/// E4: initiate-K-replications scaling on the kernel.
pub fn e4_task_init(ks: &[u32]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "E4 — dynamic task initiation (4x8 clusters, 100-flop tasks)"
    );
    let _ = writeln!(
        out,
        "{:>8} {:>12} {:>12} {:>12} {:>10}",
        "K", "makespan", "cy/task", "completed", "kernelmsg"
    );
    for &k in ks {
        let machine = Machine::new(MachineConfig::fem2_default());
        let mut sim = KernelSim::new(machine);
        let code = sim.register_code(CodeBlock::new(
            "worklet",
            32,
            WorkProfile {
                flops: 100,
                int_ops: 20,
                mem_words: 10,
            },
            16,
        ));
        // Spread the initiations over the clusters, as the NA-VM would.
        let per_cluster = k / 4;
        let rem = k % 4;
        for c in 0..4u32 {
            let kc = per_cluster + u32::from(c < rem);
            if kc > 0 {
                sim.initiate(0, c, code, kc, None, 4);
            }
        }
        let makespan = sim.run();
        let done = sim.completions().len();
        let kernel_msgs = sim.machine.stats.total().kernel_msgs;
        let per_task = makespan as f64 / k.max(1) as f64;
        let _ = writeln!(
            out,
            "{:>8} {:>12} {:>12.1} {:>12} {:>10}",
            k, makespan, per_task, done, kernel_msgs
        );
    }
    out
}

// ---------------------------------------------------------------------
// E5 — communication patterns × topologies × message sizes
// ---------------------------------------------------------------------

fn run_pattern(net: &mut Network, now: u64, pattern: &str, clusters: u32, words: u64) -> u64 {
    let mut done = now;
    match pattern {
        "neighbor" => {
            for c in 0..clusters {
                let to = (c + 1) % clusters;
                done = done.max(net.transmit(now, c, to, words));
            }
        }
        "irregular" => {
            let mut rng = XorShift::new(42);
            for c in 0..clusters {
                let mut to = rng.below(clusters as u64) as u32;
                if to == c {
                    to = (to + 1) % clusters;
                }
                done = done.max(net.transmit(now, c, to, words));
            }
        }
        "all-to-one" => {
            for c in 1..clusters {
                done = done.max(net.transmit(now, c, 0, words));
            }
        }
        "broadcast" => {
            for c in 1..clusters {
                done = done.max(net.transmit(now, 0, c, words));
            }
        }
        other => panic!("unknown pattern {other}"),
    }
    done
}

/// E5: delivery makespan for each (pattern, topology, size).
pub fn e5_network() -> String {
    let clusters = 8;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "E5 — communication patterns on 8 clusters (cycles to deliver)"
    );
    let _ = writeln!(
        out,
        "{:>11} {:>7} | {:>9} {:>9} {:>9} {:>9}",
        "pattern", "words", "bus", "ring", "mesh2d", "crossbar"
    );
    for pattern in ["neighbor", "irregular", "all-to-one", "broadcast"] {
        for &words in &[8u64, 256, 4096] {
            let mut cells = Vec::new();
            for topo in [
                Topology::Bus,
                Topology::Ring,
                Topology::Mesh2D { width: 4 },
                Topology::Crossbar,
            ] {
                let mut cfg = MachineConfig::clustered(clusters, 2, topo);
                cfg.max_packet_words = 256;
                let mut net = Network::new(&cfg);
                cells.push(run_pattern(&mut net, 0, pattern, clusters, words));
            }
            let _ = writeln!(
                out,
                "{:>11} {:>7} | {:>9} {:>9} {:>9} {:>9}",
                pattern, words, cells[0], cells[1], cells[2], cells[3]
            );
        }
    }
    out
}

// ---------------------------------------------------------------------
// E6 — the three levels of parallelism
// ---------------------------------------------------------------------

/// E6: one table spanning the conclusion's three parallelism levels.
pub fn e6_levels() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "E6 — the three levels of parallelism (paper, Conclusion)"
    );

    // (a) independent user problems.
    let one_cluster = MachineConfig::clustered(1, 8, Topology::Crossbar);
    let t1 = PlateScenario::square(20, one_cluster).run().elapsed;
    let _ = writeln!(out, "\n(a) independent user problems (20x20 plate each):");
    let _ = writeln!(
        out,
        "{:>10} {:>14} {:>14} {:>10}",
        "problems", "1 cluster", "4 clusters", "gain"
    );
    for &m in &[1u64, 2, 4, 8] {
        let serial = m * t1;
        let rounds = m.div_ceil(4);
        let parallel = rounds * t1;
        let _ = writeln!(
            out,
            "{:>10} {:>14} {:>14} {:>10.2}",
            m,
            serial,
            parallel,
            serial as f64 / parallel as f64
        );
    }

    // (b) substructure parallelism: what the partition exposes (the
    // condensations are independent; the interface system is the serial
    // remainder). Host time is `benchmark/run.sh`'s business.
    let _ = writeln!(
        out,
        "\n(b) substructure analysis of a 32x4 wing (static condensation):"
    );
    let mesh = Mesh::grid_quad(32, 4, 8.0, 1.0);
    let mat = Material::aluminum();
    let mut cons = Constraints::new();
    for n in mesh.left_edge_nodes(1e-9) {
        cons.fix_node(n);
    }
    let mut loads = LoadSet::new("lift");
    for n in mesh.right_edge_nodes(1e-9) {
        loads.add_node(n, 0.0, 500.0);
    }
    let f = loads.to_vector(mesh.node_count() * 2);
    let _ = writeln!(
        out,
        "{:>8} {:>12} {:>14}",
        "parts", "iface dofs", "max interior"
    );
    for parts in [1, 2, 4, 8] {
        let part = Partition::strips_x(&mesh, parts);
        let sol = analyze_substructures(&mesh, &mat, &cons, &part, &f);
        let _ = writeln!(
            out,
            "{:>8} {:>12} {:>14}",
            parts, sol.interface_dofs, sol.max_interior
        );
    }

    // (c) parallelism within one solve.
    let _ = writeln!(
        out,
        "\n(c) within one system solve (28 workers vs 1, 32x32 plate):"
    );
    let wide = PlateScenario::square(32, MachineConfig::fem2_default()).run();
    let mut narrow_cfg = MachineConfig::clustered(1, 2, Topology::Crossbar);
    narrow_cfg.dedicated_kernel_pe = true;
    let narrow = PlateScenario::square(32, narrow_cfg).run();
    let _ = writeln!(out, "{:>12} {:>14} {:>10}", "workers", "cycles", "speedup");
    let _ = writeln!(out, "{:>12} {:>14} {:>10.2}", 1, narrow.elapsed, 1.0);
    let _ = writeln!(
        out,
        "{:>12} {:>14} {:>10.2}",
        28,
        wide.elapsed,
        narrow.elapsed as f64 / wide.elapsed as f64
    );
    out
}

// ---------------------------------------------------------------------
// E7 — fault isolation, reliable delivery, and degradation
// ---------------------------------------------------------------------

/// The E7 kernel workload on its reference machine, a 4x4 crossbar: 48
/// local tasks plus three staggered cross-cluster RPCs, so the reliable
/// layer carries real traffic.
fn e7_run(plan: &FaultPlan) -> (KernelSim, u64) {
    let machine = Machine::new(MachineConfig::clustered(4, 4, Topology::Crossbar));
    let mut sim = KernelSim::new(machine);
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
    for c in 0..4 {
        sim.initiate(0, c, code, 12, None, 0);
    }
    // Staggered RPCs from cluster 0 keep acked traffic in flight across the
    // sweep's fault times.
    for (i, c) in [1u32, 2, 3].into_iter().enumerate() {
        sim.send(
            5_000 * (i as u64 + 1),
            0,
            c,
            KernelMessage::RemoteCall {
                call_id: i as u64,
                code,
                args_words: 8,
                caller: TaskId(0),
                reply_cluster: 0,
            },
        );
    }
    sim.inject_faults(plan);
    let makespan = sim.run();
    (sim, makespan)
}

/// The E7 fault mixes. Link ids on the 4-cluster crossbar are
/// `from * 4 + to`; every dead link leaves a two-hop detour.
fn e7_mixes() -> Vec<(&'static str, FaultPlan)> {
    vec![
        ("healthy", FaultPlan::none()),
        (
            "pe",
            FaultPlan::none()
                .kill_pe(30_000, PeId::new(1, 1))
                .transient_pe(40_000, 120_000, PeId::new(2, 1))
                .kill_pe(60_000, PeId::new(3, 2)),
        ),
        (
            "link",
            FaultPlan::none()
                .kill_link(20_000, 1) // 0 -> 1 dies; detour via 2 or 3
                .degrade_link(25_000, 2, 4), // 0 -> 2 runs 4x slower
        ),
        (
            "mem",
            // Lose all but 128 words of cluster 1's memory mid-run: live
            // activation records are invalidated and their tasks re-queued.
            FaultPlan::none().fail_memory(35_000, 1, (4 << 20) - 128),
        ),
        (
            "combined",
            FaultPlan::none()
                .kill_link(20_000, 1)
                .degrade_link(25_000, 2, 4)
                .kill_pe(30_000, PeId::new(1, 1))
                .fail_memory(35_000, 3, (4 << 20) - 128)
                .transient_pe(40_000, 120_000, PeId::new(2, 1)),
        ),
    ]
}

/// E7: degradation under fault mixes — PE (incl. transient), link (dead and
/// degraded), memory-bank, and combined — with the reliable-delivery layer
/// keeping every task alive.
pub fn e7_fault() -> (String, Vec<DegradationReport>) {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "E7 — degradation under fault mixes (4x4 crossbar, 48 tasks + 3 RPCs)"
    );
    let (_, healthy_makespan) = e7_run(&FaultPlan::none());
    let mut rows = Vec::new();
    for (label, plan) in e7_mixes() {
        let (sim, makespan) = e7_run(&plan);
        rows.push(DegradationReport {
            label: label.to_string(),
            makespan,
            healthy_makespan,
            tasks: sim.task_count() as u64,
            completed: sim.completions().len() as u64,
            retransmits: sim.stats.retransmits,
            dead_letters: sim.stats.drops.dead_letter,
            rerouted_packets: sim.machine.network.rerouted_packets,
            reconfigurations: sim.machine.reconfigurations,
        });
    }
    out.push_str(&DegradationReport::render(&rows));

    // Numerical integrity: the same CG solve on the NA-VM plane, with links
    // dying and a PE blinking out mid-solve, must reproduce the healthy
    // run's solution bit for bit (faults perturb time, never values).
    let cg = |plan: Option<&FaultPlan>| {
        let mut vm = NaVm::simulated(MachineConfig::fem2_default(), 8);
        if let Some(p) = plan {
            vm.inject_faults(p);
        }
        let cg = plate_cg(&mut vm, 16, 16, 1e-8, 400);
        let x = vm.snapshot(cg.x);
        (
            cg.iterations,
            cg.residual,
            x,
            vm.retransmits(),
            vm.elapsed(),
        )
    };
    let (hi, hres, hx, _, ht) = cg(None);
    let plan = FaultPlan::none()
        .kill_link(2_000, 1)
        .degrade_link(3_000, 2, 4)
        .transient_pe(5_000, 50_000, PeId::new(3, 1));
    let (fi, fres, fx, fretrans, ft) = cg(Some(&plan));
    let bitwise = hx
        .iter()
        .zip(fx.iter())
        .all(|(a, b)| a.to_bits() == b.to_bits());
    let _ = writeln!(
        out,
        "\nnavm CG 16x16 under link+PE faults: iters {fi} (healthy {hi}), \
         residual bitwise-equal {}, solution bitwise-equal {bitwise}, \
         retransmits {fretrans}, cycles {ft} vs healthy {ht}",
        hres.to_bits() == fres.to_bits(),
    );
    (out, rows)
}

// ---------------------------------------------------------------------
// E8 — the variable-size-block heap
// ---------------------------------------------------------------------

/// Run an alloc/free trace and report.
fn heap_trace(label: &str, sizes: impl Fn(&mut XorShift) -> u64, out: &mut String) {
    let mut heap = Heap::new(1 << 20);
    let mut rng = XorShift::new(7);
    let mut live: Vec<fem2_core::kernel::Block> = Vec::new();
    let ops = 200_000;
    for i in 0..ops {
        // 60% alloc / 40% free once warm.
        let do_alloc = live.is_empty() || (i < 1000) || rng.below(10) < 6;
        if do_alloc {
            if let Ok(b) = heap.alloc(sizes(&mut rng).max(1)) {
                live.push(b);
            }
        } else {
            let idx = rng.below(live.len() as u64) as usize;
            let b = live.swap_remove(idx);
            heap.free(b).expect("block came from this heap");
        }
    }
    let _ = writeln!(
        out,
        "{:>10} {:>12} {:>10} {:>9.3} {:>8} {:>8}",
        label,
        heap.high_water(),
        heap.fragments(),
        heap.fragmentation(),
        heap.allocs,
        heap.failed_allocs
    );
}

/// E8: heap occupancy and fragmentation under three allocation shapes.
pub fn e8_heap() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "E8 — variable-size-block heap (1 Mword arena, 200k ops)"
    );
    let _ = writeln!(
        out,
        "{:>10} {:>12} {:>10} {:>9} {:>8} {:>8}",
        "trace", "high water", "frags", "fragm.", "allocs", "failed"
    );
    heap_trace("uniform", |r| 1 + r.below(256), &mut out);
    heap_trace(
        "bimodal",
        |r| {
            if r.below(10) < 8 {
                1 + r.below(32)
            } else {
                1024 + r.below(1024)
            }
        },
        &mut out,
    );
    // FEM-shaped: activation records (small), element blocks (72 words),
    // occasional window buffers (row-sized).
    heap_trace(
        "fem",
        |r| match r.below(100) {
            0..=49 => 16 + r.below(16), // activation records
            50..=89 => 72,              // Quad4 element blocks
            _ => 256 + r.below(256),    // window buffers
        },
        &mut out,
    );
    out
}

// ---------------------------------------------------------------------
// E9 — the solver comparison (Adams–Voigt scenario)
// ---------------------------------------------------------------------

/// E9: iterations / residual / flops of every solver on plate systems.
pub fn e9_solvers(sizes: &[usize]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "E9 — solver comparison on the 2-D plate system");
    let _ = writeln!(
        out,
        "{:>6} {:<14} {:>8} {:>13} {:>13}",
        "n", "solver", "iters", "residual", "flops"
    );
    for &nx in sizes {
        let a = solver_testmat(nx);
        let n = nx * nx;
        let f: Vec<f64> = (0..n).map(|i| ((i * 31 + 7) % 17) as f64 - 8.0).collect();
        let ctl = IterControls {
            rel_tol: 1e-8,
            max_iter: 200_000,
        };
        let mut row = |name: &str, iters: usize, residual: f64, flops: u64| {
            let _ = writeln!(
                out,
                "{n:>6} {name:<14} {iters:>8} {residual:>13.2e} {flops:>13}"
            );
        };
        let iterative = [
            ("jacobi", solver::jacobi::solve(&a, &f, ctl).1),
            ("sor(1.7)", solver::sor::solve(&a, &f, 1.7, ctl).1),
            ("cg", solver::cg::solve(&a, &f, ctl, false).1),
            ("jacobi-pcg", solver::cg::solve(&a, &f, ctl, true).1),
        ];
        for (name, log) in iterative {
            row(name, log.iterations, log.residual, log.flops);
        }
        let x = solver::skyline::solve(&a, &f).expect("benchmark system is SPD");
        row("skyline", 1, solver::residual_norm(&a, &x, &f), 0);
    }
    out
}

/// The 5-point Laplacian on an `nx` × `nx` grid: E9's test system.
fn solver_testmat(nx: usize) -> fem2_core::fem::Csr {
    let n = nx * nx;
    let mut coo = fem2_core::fem::Coo::new(n);
    for j in 0..nx {
        for i in 0..nx {
            let r = j * nx + i;
            coo.add(r, r, 4.0);
            if i > 0 {
                coo.add(r, r - 1, -1.0);
            }
            if i + 1 < nx {
                coo.add(r, r + 1, -1.0);
            }
            if j > 0 {
                coo.add(r, r - nx, -1.0);
            }
            if j + 1 < nx {
                coo.add(r, r + nx, -1.0);
            }
        }
    }
    coo.to_csr()
}

// ---------------------------------------------------------------------
// E10 — the design iteration
// ---------------------------------------------------------------------

/// E10: the full design-space iteration table.
pub fn e10_design_iter() -> String {
    let mut out = String::new();
    let space = DesignSpace::standard_sweep();
    let req = space.requirements;
    let _ = writeln!(
        out,
        "E10 — design iteration: {} users ({}x{} each) + one {}x{} problem, budget {}",
        req.users, req.small_n, req.small_n, req.large_n, req.large_n, req.budget
    );
    let trace = space.iterate();
    out.push_str(&trace.table());
    let best = trace.best();
    let _ = writeln!(
        out,
        "\nselected: {} — a clustered organization, as the paper's method concluded",
        best.config.describe()
    );
    out
}

// ---------------------------------------------------------------------
// A1 — ablation: node numbering vs the skyline envelope
// ---------------------------------------------------------------------

/// A1: skyline envelope on a badly-numbered mesh, before and after RCM
/// renumbering. The design choice under test: direct
/// solvers only work on this class of machine if numbering is managed.
pub fn a1_renumbering() -> String {
    use fem2_core::fem::solver::skyline::Skyline;
    let mut out = String::new();
    let _ = writeln!(out, "A1 — ablation: RCM renumbering vs skyline envelope");
    let _ = writeln!(
        out,
        "{:>10} {:>10} {:>12} {:>12}",
        "mesh", "ordering", "half-bw", "envelope"
    );
    for (label, nx, ny) in [("plate24x4", 24usize, 4usize), ("plate12x12", 12, 12)] {
        let mesh = Mesh::grid_quad(nx, ny, nx as f64, ny as f64);
        // Scatter the numbering with a multiplicative permutation.
        let total = mesh.node_count();
        let mut g = 13;
        while gcd(g, total) != 1 {
            g += 2;
        }
        let perm: Vec<usize> = (0..total).map(|new| (new * g) % total).collect();
        let bad = mesh.renumbered(&perm);
        let (good, _) = bad.rcm();
        for (ordering, m) in [("scattered", &bad), ("rcm", &good)] {
            let k = fem2_core::fem::assemble(m, &Material::unit());
            let sky = Skyline::from_csr(&k);
            let _ = writeln!(
                out,
                "{:>10} {:>10} {:>12} {:>12}",
                label,
                ordering,
                m.half_bandwidth(),
                sky.envelope()
            );
        }
    }
    out
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

// ---------------------------------------------------------------------
// A2 — ablation: initiate-once task crews vs per-section respawn
// ---------------------------------------------------------------------

/// A2: the cost of re-initiating the task crew at every parallel section
/// instead of once (the runtime design decision behind the E2 speedups).
pub fn a2_spawn_ablation() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "A2 — ablation: task crew initiate-once vs respawn per section"
    );
    let _ = writeln!(
        out,
        "{:>10} {:>8} {:>14} {:>14} {:>9}",
        "sections", "tasks", "once(cy)", "respawn(cy)", "overhead"
    );
    for &sections in &[10usize, 100] {
        for &tasks in &[8u32, 28] {
            let run = |respawn: bool| {
                let mut vm = NaVm::simulated(MachineConfig::fem2_default(), tasks);
                let stmts: Vec<(TaskHandle, WorkProfile)> = vm
                    .tasks()
                    .iter()
                    .map(|t| (t, WorkProfile::flops(2000)))
                    .collect();
                for _ in 0..sections {
                    if respawn {
                        vm.respawn_tasks();
                    }
                    vm.pardo(&stmts);
                }
                vm.elapsed()
            };
            let once = run(false);
            let respawn = run(true);
            let _ = writeln!(
                out,
                "{:>10} {:>8} {:>14} {:>14} {:>9.2}",
                sections,
                tasks,
                once,
                respawn,
                respawn as f64 / once as f64
            );
        }
    }
    out
}

// ---------------------------------------------------------------------
// A6 — weak scaling: torus and fat tree to 4096 clusters
// ---------------------------------------------------------------------

/// Cluster counts of the weak-scaling sweep: fixed work per cluster from
/// 32 to 4096 clusters, so perfect weak scaling is a flat makespan.
const WS_CLUSTERS: [u32; 8] = [32, 64, 128, 256, 512, 1024, 2048, 4096];
/// Payload words of each weak-scaling message.
const WS_WORDS: u64 = 64;
/// Flops charged per cluster per weak-scaling cell.
const WS_FLOPS: u64 = 64;

/// Side of the large-machine plate's 2-D torus.
const TORUS_PLATE_SIDE: u32 = 32;
/// Cluster count of the large-machine plate: the fixed plate workload on
/// three orders more clusters than the work needs.
const TORUS_PLATE_CLUSTERS: u32 = TORUS_PLATE_SIDE * TORUS_PLATE_SIDE;
/// Task count of the large-machine plate: enough parallelism for the
/// plate, far fewer than the machine's worker count, so most clusters
/// never dispatch work and must never materialize PE records.
const TORUS_PLATE_TASKS: u32 = 128;

/// One cell of the weak-scaling sweep. Every field is a simulated
/// quantity.
pub struct WeakScalingRow {
    /// `"torus"` or `"fattree"`.
    pub(crate) topology: &'static str,
    /// Clusters in the machine.
    pub(crate) clusters: u32,
    /// Simulated cycles until the last charge or delivery completes.
    pub(crate) makespan: u64,
    /// Machine events (charges and transfers).
    pub(crate) events: u64,
    /// Link records the sparse network slab materialized.
    pub(crate) alloc_links: u64,
    /// Cluster PE lanes materialized.
    pub(crate) alloc_clusters: u64,
    /// The smallest cluster count at which this row's topology saturates
    /// its bisection (makespan more than doubles the 32-cluster one); 0
    /// when it never does within the sweep.
    pub(crate) saturation_clusters: u64,
}

/// The topology of one weak-scaling cell. Both shapes factor every power
/// of two in [`WS_CLUSTERS`]: the torus as the near-square 2-D grid, the
/// fat tree with a `sqrt(n)`-ish radix.
fn ws_topology(kind: &str, n: u32) -> Topology {
    let k = n.trailing_zeros();
    match kind {
        "torus" => Topology::Torus {
            dims: vec![1 << (k / 2), 1 << (k - k / 2)],
        },
        "fattree" => Topology::FatTree {
            radix: 1 << (k / 2),
        },
        other => unreachable!("unknown weak-scaling topology {other}"),
    }
}

/// One weak-scaling cell: every cluster charges [`WS_FLOPS`] flops and
/// sends two [`WS_WORDS`]-word messages at time zero — one to its ring
/// neighbor, one to its antipode (the antipodal half crosses the bisection,
/// so a topology whose bisection bandwidth grows slower than the cluster
/// count congests as the sweep scales). `saturation_clusters` is left 0
/// for the sweep to stamp.
fn ws_cell(topology: &'static str, n: u32) -> WeakScalingRow {
    let mut m = Machine::new(MachineConfig::clustered(n, 2, ws_topology(topology, n)));
    let mut makespan = 0u64;
    for c in 0..n {
        let pe = m.pick_worker(c).expect("two PEs per cluster");
        let done = m
            .charge(0, pe, CostClass::Flop, WS_FLOPS)
            .expect("healthy machine");
        let near = m.transmit(0, c, (c + 1) % n, WS_WORDS);
        let far = m.transmit(0, c, (c + n / 2) % n, WS_WORDS);
        makespan = makespan.max(done).max(near).max(far);
    }
    WeakScalingRow {
        topology,
        clusters: n,
        makespan,
        events: m.events,
        alloc_links: m.network.allocated_link_records() as u64,
        alloc_clusters: m.allocated_cluster_records() as u64,
        saturation_clusters: 0,
    }
}

/// A6: the weak-scaling sweep (`ws_cell` per topology per cluster count,
/// each row stamped with its topology's saturation point) and the 32×32
/// plate as 128 tasks on a 1024-cluster torus. The allocation columns are
/// the footprint proxy: a dense machine would grow them with the id space,
/// the sparse one only with touched state. Reads no clock.
pub fn a6_weak_scaling() -> (String, Vec<WeakScalingRow>, ScenarioReport) {
    let mut rows = Vec::new();
    for topology in ["torus", "fattree"] {
        let mut cells: Vec<WeakScalingRow> =
            WS_CLUSTERS.iter().map(|&n| ws_cell(topology, n)).collect();
        let saturation = cells
            .iter()
            .find(|r| r.makespan > 2 * cells[0].makespan)
            .map_or(0, |r| u64::from(r.clusters));
        for r in &mut cells {
            r.saturation_clusters = saturation;
        }
        rows.extend(cells);
    }
    let mut cfg = MachineConfig::fem2_default();
    cfg.clusters = TORUS_PLATE_CLUSTERS;
    cfg.topology = Topology::Torus {
        dims: vec![TORUS_PLATE_SIDE, TORUS_PLATE_SIDE],
    };
    let mut scenario = PlateScenario::square(32, cfg);
    scenario.tasks = TORUS_PLATE_TASKS;
    let plate = scenario.run();

    let mut out = String::new();
    let _ = writeln!(
        out,
        "A6 — weak scaling: one flop charge, a ring-neighbor and an antipodal message per cluster"
    );
    let _ = writeln!(
        out,
        "{:>16} {:>10} {:>8} {:>13} {:>16} {:>5}",
        "record", "makespan", "events", "alloc_links", "alloc_clusters", "sat"
    );
    for r in &rows {
        let _ = writeln!(
            out,
            "{:>16} {:>10} {:>8} {:>13} {:>16} {:>5}",
            format!("ws_{}_{}", r.topology, r.clusters),
            r.makespan,
            r.events,
            r.alloc_links,
            r.alloc_clusters,
            r.saturation_clusters
        );
    }
    let _ = writeln!(
        out,
        "\n32x32 plate, {TORUS_PLATE_TASKS} tasks on a {TORUS_PLATE_SIDE}x{TORUS_PLATE_SIDE} torus \
         ({TORUS_PLATE_CLUSTERS} clusters):"
    );
    let _ = writeln!(
        out,
        "{:>12} {:>8} {:>13} {:>16}",
        "sim_cycles", "events", "alloc_links", "alloc_clusters"
    );
    let _ = writeln!(
        out,
        "{:>12} {:>8} {:>13} {:>16}",
        plate.elapsed, plate.engine_events, plate.alloc_link_records, plate.alloc_cluster_records
    );
    (out, rows, plate)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The numeric cells of a rendered table, one `Vec` per row after the
    /// `header` lines.
    fn table_rows(table: &str, header: usize) -> Vec<Vec<f64>> {
        table
            .lines()
            .skip(header)
            .map(|l| l.split_whitespace().map(|c| c.parse().unwrap()).collect())
            .collect()
    }

    #[test]
    fn e1_rows_monotone_in_size() {
        let (_, reports) = e1_requirements(&[8, 16]);
        assert!(reports[1].total_flops > reports[0].total_flops);
        assert!(reports[1].total_messages > 0);
    }

    #[test]
    fn e2_parallel_beats_serial_and_clustered_beats_flat() {
        let table = e2_speedup(32);
        // Columns: workers, clustered(cy), speedup, eff, flat-bus(cy), speedup.
        let rows = table_rows(&table, 2);
        let (first, last) = (rows.first().unwrap(), rows.last().unwrap());
        assert!(last[1] < first[1], "speedup with more workers");
        // At the largest machine, clustered beats the flat bus array.
        assert!(
            last[1] < last[4],
            "clustered {} < flat {}",
            last[1],
            last[4]
        );
    }

    #[test]
    fn e3_remote_costs_more_than_local() {
        let table = e3_windows();
        // The table renders; locality ordering is asserted in navm tests.
        assert!(table.contains("remote"));
        assert!(table.contains("local"));
    }

    #[test]
    fn e4_amortizes_initiation() {
        // Columns: K, makespan, cy/task, completed, kernelmsg.
        let rows = table_rows(&e4_task_init(&[8, 512]), 2);
        assert!(rows[1][2] < rows[0][2] * 4.0, "per-task cost stays bounded");
    }

    #[test]
    fn e5_table_shapes() {
        let t = e5_network();
        assert!(t.contains("broadcast"));
        assert!(t.contains("crossbar"));
    }

    #[test]
    fn e7_all_tasks_survive_every_fault_mix() {
        let (table, rows) = e7_fault();
        assert_eq!(rows.len(), 5);
        for r in &rows {
            assert_eq!(r.completed, r.tasks, "mix {}", r.label);
            assert!(r.dead_letters == 0, "mix {} dead-lettered", r.label);
        }
        let by = |l: &str| rows.iter().find(|r| r.label == l).unwrap();
        assert!(by("link").retransmits > 0 || by("link").rerouted_packets > 0);
        assert!(by("combined").reconfigurations >= 4);
        assert!(by("combined").makespan >= by("healthy").makespan);
        assert!(table.contains("solution bitwise-equal true"));
    }

    #[test]
    fn e7_report_is_byte_stable() {
        assert_eq!(e7_fault().0, e7_fault().0);
    }

    #[test]
    fn e8_and_e9_render() {
        assert!(e8_heap().contains("fem"));
        assert!(e9_solvers(&[8]).contains("jacobi-pcg"));
    }

    #[test]
    fn a1_rcm_shrinks_envelope() {
        let t = a1_renumbering();
        assert!(t.contains("rcm"));
        assert!(t.contains("scattered"));
    }

    #[test]
    fn a2_respawn_costs_more() {
        let t = a2_spawn_ablation();
        assert!(t.contains("overhead"));
        // Overhead ratios in the table must all exceed 1.
        for line in t.lines().skip(2) {
            let cols: Vec<&str> = line.split_whitespace().collect();
            if cols.len() == 5 {
                let ratio: f64 = cols[4].parse().unwrap();
                assert!(ratio > 1.0, "{line}");
            }
        }
    }

    #[test]
    fn weak_scaling_sweep_is_deterministic_and_sparse() {
        let (table, rows, _) = a6_weak_scaling();
        assert_eq!(
            table,
            a6_weak_scaling().0,
            "A6 is a pure simulated quantity"
        );
        assert_eq!(
            rows.len(),
            2 * WS_CLUSTERS.len(),
            "both topologies, all sizes"
        );
        for r in &rows {
            let n = u64::from(r.clusters);
            assert_eq!(r.events, 3 * n, "fixed work per cluster");
            assert_eq!(r.alloc_clusters, n, "every cluster ran work");
            assert!(
                r.alloc_links <= 6 * n,
                "ws_{}_{}: {} link records is not O(active)",
                r.topology,
                r.clusters,
                r.alloc_links
            );
        }
        // The 2-D torus bisection grows as sqrt(n) against antipodal
        // traffic that grows as n: the sweep must find its saturation
        // point. The fat tree's bisection grows with n: it must not.
        let last = |topology: &str| {
            rows.iter()
                .rfind(|r| r.topology == topology)
                .expect("both topologies swept")
        };
        let torus = last("torus");
        assert_eq!(torus.clusters, 4096);
        assert!(
            torus.saturation_clusters > 0,
            "torus antipodal traffic must saturate, makespan {}",
            torus.makespan
        );
        let fat = last("fattree");
        assert_eq!(
            fat.saturation_clusters, 0,
            "fat-tree bisection keeps up, makespan {}",
            fat.makespan
        );
    }

    #[test]
    fn torus_e1_row_is_o_active() {
        let (_, _, plate) = a6_weak_scaling();
        let n = u64::from(TORUS_PLATE_CLUSTERS);
        assert!(
            plate.alloc_link_records < 4 * n,
            "{} link records on a {n} cluster torus is not O(active)",
            plate.alloc_link_records
        );
        assert!(
            plate.alloc_cluster_records < n / 2,
            "{} cluster records: a {TORUS_PLATE_TASKS}-task plate must not touch most of \
             the {n}-cluster machine",
            plate.alloc_cluster_records
        );
    }

    #[test]
    fn xorshift_deterministic() {
        let mut a = XorShift::new(1);
        let mut b = XorShift::new(1);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}
