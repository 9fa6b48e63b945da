//! Property tests on cross-crate invariants: the heap never corrupts, the
//! solvers solve, substructuring equals the direct method, partitions
//! cover, window reads equal direct reads, and PEs beyond the crew and
//! faults on hardware the run never uses change nothing.

use fem2_core::PlateScenario;
use fem2_fem::bc::Constraints;
use fem2_fem::partition::Partition;
use fem2_fem::solver::{cg, skyline, IterControls};
use fem2_fem::substructure::analyze_substructures;
use fem2_fem::{assemble_free, cantilever_plate, Coo, Material, Mesh, SolverChoice};
use fem2_kernel::{Block, Heap};
use fem2_machine::fault::FaultPlan;
use fem2_machine::{MachineConfig, PeId, Topology};
use fem2_navm::{plate_cg, NaVm, TaskHandle};
use proptest::prelude::*;

fn norm(v: &[f64]) -> f64 {
    v.iter().map(|x| x * x).sum::<f64>().sqrt()
}

/// The answers, not only the bits: on a non-square plane-stress
/// cantilever the direct solve leaves a residual at rounding level, and
/// every `SolverChoice` that converges lands on it to a stated tolerance.
#[test]
fn every_solver_choice_agrees_with_skyline_on_a_cantilever() {
    let m = cantilever_plate(40, 12, -1e4);
    let direct = m.analyze(0, SolverChoice::Skyline).unwrap();

    let ndof = m.dof_count();
    let free = m.constraints.free_dofs(ndof);
    let kr = assemble_free(&m.mesh, &m.material, &free);
    let fr = m.constraints.restrict(&m.load_sets[0].to_vector(ndof));
    let ur = m.constraints.restrict(&direct.displacements);
    let mut ku = vec![0.0; ur.len()];
    kr.matvec(&ur, &mut ku);
    let residual: Vec<f64> = fr.iter().zip(&ku).map(|(f, k)| f - k).collect();
    let rel = norm(&residual) / norm(&fr);
    assert!(rel <= 1e-10, "skyline ‖f − K·u‖/‖f‖ = {rel:e}");
    assert_eq!(direct.log.residual.to_bits(), norm(&residual).to_bits());

    let tol = 1e-8;
    let relerr_of = |model: &fem2_fem::StructuralModel, reference: &[f64], choice| {
        let a = model.analyze(0, choice).unwrap();
        let delta: Vec<f64> = a
            .displacements
            .iter()
            .zip(reference)
            .map(|(x, y)| x - y)
            .collect();
        norm(&delta) / norm(reference)
    };
    for choice in [
        SolverChoice::Cg { tol },
        SolverChoice::PreconditionedCg { tol },
        SolverChoice::ElementByElement { tol },
    ] {
        let relerr = relerr_of(&m, &direct.displacements, choice);
        assert!(
            relerr <= 1e-6,
            "{choice:?}: {relerr:e} off the direct solve"
        );
    }

    // The stationary methods, on a plate a tenth the size: SOR needs
    // 36 000 sweeps for 1e-8 at 40×12, too many for an unoptimised test.
    let small = cantilever_plate(12, 4, -1e4);
    let small_direct = small.analyze(0, SolverChoice::Skyline).unwrap();
    let sor = SolverChoice::Sor { omega: 1.8, tol };
    let relerr = relerr_of(&small, &small_direct.displacements, sor);
    assert!(relerr <= 1e-6, "{sor:?}: {relerr:e} off the direct solve");
    // Point Jacobi has no tolerance of its own on plane stress: the Quad4
    // stiffness is not diagonally dominant and the iteration diverges at
    // every size tried (2×1 … 40×12). `analyze` refuses it by name, up
    // front: the whole message is the refusal, where a solve that ran and
    // failed reports its iteration count and residual.
    let refused = m.analyze(0, SolverChoice::Jacobi { tol: 1e-6 });
    assert_eq!(
        refused.map(|a| a.log).unwrap_err(),
        fem2_fem::JACOBI_ON_PLANE_STRESS
    );
}

/// Operations on the heap, for random traces.
#[derive(Clone, Debug)]
enum HeapOp {
    Alloc(u64),
    FreeIdx(usize),
}

/// Idle PEs: on every topology, a cluster with more PEs than the crew
/// places on it runs the plate exactly as one with fewer. A 16×16 plate on
/// 4 clusters, crews of 3, 4 and 7 tasks, 4, 8 or 16 PEs per cluster.
#[test]
fn idle_pes_change_nothing() {
    let topologies = [
        Topology::Bus,
        Topology::Ring,
        Topology::Mesh2D { width: 2 },
        Topology::Crossbar,
        Topology::Torus { dims: vec![2, 2] },
        Topology::FatTree { radix: 2 },
    ];
    for topology in topologies {
        for tasks in [3, 4, 7] {
            let run = |pes: u32| {
                let machine = MachineConfig::clustered(4, pes, topology.clone());
                let mut plate = PlateScenario::square(16, machine);
                plate.tasks = tasks;
                let r = plate.run();
                (
                    r.elapsed,
                    r.total_messages,
                    r.total_words_moved,
                    r.iterations,
                )
            };
            let base = run(4);
            for pes in [8, 16] {
                assert_eq!(run(pes), base, "{topology:?}, {tasks} tasks, {pes} PEs");
            }
        }
    }
}

/// Untouched faults (ROADMAP 19(d)): a fault, injected mid-run, on a link
/// no route of the plate uses, on a PE of a cluster that hosts no task, or
/// on that cluster's memory leaves the plate's cycles, messages, words,
/// iterations and residual bits where the healthy run has them. A 16×16
/// plate of 4 tasks on 16 clusters of 3 PEs, on all six topologies, with
/// every such link, PE and memory bank: 300 links (the bus and the ring
/// have none), 216 PEs and 72 banks. Each fault moves the fault
/// epoch, so the iteration it lands in is charged entry by entry and not
/// replayed, and the one after it records again.
#[test]
fn untouched_faults_change_nothing() {
    let topologies = [
        Topology::Bus,
        Topology::Ring,
        Topology::Mesh2D { width: 4 },
        Topology::Crossbar,
        Topology::Torus { dims: vec![4, 4] },
        Topology::FatTree { radix: 4 },
    ];
    for topology in topologies {
        let cfg = MachineConfig::clustered(16, 3, topology.clone());
        let run = |plan: &FaultPlan| {
            let mut vm = NaVm::simulated(cfg.clone(), 4);
            vm.inject_faults(plan);
            let cg = plate_cg(&mut vm, 16, 16, 1e-6, 5000);
            let elapsed = vm.elapsed();
            let net = &vm.machine().network;
            let words = net.total_words_moved();
            let residual = cg.residual.to_bits();
            (elapsed, net.messages, words, cg.iterations, residual)
        };
        let healthy = run(&FaultPlan::none());
        let mid = healthy.0 / 2;

        // What the plate uses: the routes between cluster 0 and every
        // cluster (initiation, the reduction) and between neighbouring
        // task clusters (halos), and the PEs and memory of those.
        let mut vm = NaVm::simulated(cfg.clone(), 4);
        let hosts: Vec<u32> = vm.tasks().by_cluster().map(|(c, _)| c).collect();
        let net = &vm.machine().network;
        let pairs = (0..16).flat_map(|c| [(c, 0), (0, c)]);
        let halos = hosts.windows(2).flat_map(|w| [(w[0], w[1]), (w[1], w[0])]);
        let used: std::collections::BTreeSet<usize> = pairs
            .chain(halos)
            .flat_map(|(a, b)| net.route_links(a, b).expect("a healthy route"))
            .collect();
        let links = (0..net.link_count()).filter(|l| !used.contains(l));
        let idle: Vec<u32> = (0..16).filter(|c| !hosts.contains(c)).collect();
        let pes = idle
            .iter()
            .flat_map(|&c| (0..3).map(move |i| PeId::new(c, i)));
        let words = cfg.memory_per_cluster / 2;
        let cases: Vec<(String, FaultPlan)> = links
            .map(|l| (format!("link {l}"), FaultPlan::none().kill_link(mid, l)))
            .chain(pes.map(|pe| (format!("{pe}"), FaultPlan::none().kill_pe(mid, pe))))
            .chain(idle.iter().map(|&c| {
                let plan = FaultPlan::none().fail_memory(mid, c, words);
                (format!("memory of cluster {c}"), plan)
            }))
            .collect();
        for (what, plan) in cases {
            assert_eq!(run(&plan), healthy, "{topology:?}: {what} killed mid-run");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Monotone resources (ROADMAP 19(e)): halving the link latency,
    /// doubling the words per cycle or doubling each cluster's memory
    /// never raises a plate's elapsed cycles. Grids up to 24×24 and crews
    /// of 1–24 tasks on 16 clusters of 3 PEs, each case on all six
    /// topologies.
    #[test]
    fn more_resources_never_slow_a_plate(
        nx in 1usize..=24,
        ny in 1usize..=24,
        tasks in 1u32..=24,
    ) {
        let topologies = [
            Topology::Bus,
            Topology::Ring,
            Topology::Mesh2D { width: 4 },
            Topology::Crossbar,
            Topology::Torus { dims: vec![4, 4] },
            Topology::FatTree { radix: 4 },
        ];
        for topology in topologies {
            let base = MachineConfig::clustered(16, 3, topology.clone());
            let elapsed = |machine: MachineConfig| {
                let mut plate = PlateScenario::square(nx, machine);
                (plate.ny, plate.tasks) = (ny, tasks);
                plate.run().elapsed
            };
            let before = elapsed(base.clone());
            let richer = [
                ("half the link latency", MachineConfig {
                    link_latency: base.link_latency / 2,
                    ..base.clone()
                }),
                ("twice the words per cycle", MachineConfig {
                    words_per_cycle: base.words_per_cycle * 2,
                    ..base.clone()
                }),
                ("twice the memory", MachineConfig {
                    memory_per_cluster: base.memory_per_cluster * 2,
                    ..base.clone()
                }),
            ];
            for (what, machine) in richer {
                let after = elapsed(machine);
                prop_assert!(
                    after <= before,
                    "{nx}x{ny}, {tasks} tasks, {topology:?}: {what} took {after} cycles, not {before}"
                );
            }
        }
    }
}

fn heap_ops() -> impl Strategy<Value = Vec<HeapOp>> {
    proptest::collection::vec(
        prop_oneof![
            (1u64..512).prop_map(HeapOp::Alloc),
            (0usize..64).prop_map(HeapOp::FreeIdx),
        ],
        1..200,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The heap's free list stays consistent, live blocks never overlap,
    /// and freeing everything coalesces back to one block.
    #[test]
    fn heap_never_corrupts(ops in heap_ops()) {
        let mut heap = Heap::new(16 * 1024);
        let mut live: Vec<Block> = Vec::new();
        for op in ops {
            match op {
                HeapOp::Alloc(len) => {
                    if let Ok(b) = heap.alloc(len) {
                        // No overlap with any live block.
                        for other in &live {
                            let disjoint = b.offset + b.len <= other.offset
                                || other.offset + other.len <= b.offset;
                            prop_assert!(disjoint, "{b:?} overlaps {other:?}");
                        }
                        live.push(b);
                    }
                }
                HeapOp::FreeIdx(i) => {
                    if !live.is_empty() {
                        let b = live.swap_remove(i % live.len());
                        heap.free(b).unwrap();
                    }
                }
            }
            heap.check_invariants().map_err(|e| {
                proptest::test_runner::TestCaseError::fail(e)
            })?;
        }
        // Drain: full coalescing.
        for b in live.drain(..) {
            heap.free(b).unwrap();
        }
        heap.check_invariants().map_err(|e| {
            proptest::test_runner::TestCaseError::fail(e)
        })?;
        prop_assert_eq!(heap.used(), 0);
        prop_assert!(heap.fragments() <= 1);
    }

    /// CG solves random diagonally-dominant SPD systems to tolerance, and
    /// agrees with the skyline direct solver.
    #[test]
    fn cg_and_skyline_agree_on_random_spd(
        n in 4usize..40,
        seed in 0u64..500,
    ) {
        // Build a random sparse symmetric diagonally-dominant matrix.
        let mut coo = Coo::new(n);
        let mut rng = seed.wrapping_mul(2654435761).wrapping_add(12345);
        let mut next = || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let mut rowsum = vec![0.0f64; n];
        for i in 0..n {
            for j in (i + 1)..n {
                if next() % 4 == 0 {
                    let v = -(((next() % 100) as f64) / 100.0 + 0.01);
                    coo.add(i, j, v);
                    coo.add(j, i, v);
                    rowsum[i] += v.abs();
                    rowsum[j] += v.abs();
                }
            }
        }
        for (i, rs) in rowsum.iter().enumerate() {
            coo.add(i, i, rs + 1.0);
        }
        let a = coo.to_csr();
        let f: Vec<f64> = (0..n).map(|i| ((i * 7 + 3) % 13) as f64 - 6.0).collect();
        let (x_cg, log) = cg::solve(&a, &f, IterControls { rel_tol: 1e-12, max_iter: 10_000 }, false);
        prop_assert!(log.converged);
        let x_direct = skyline::solve(&a, &f).unwrap();
        for (p, q) in x_cg.iter().zip(&x_direct) {
            prop_assert!((p - q).abs() < 1e-6, "{p} vs {q}");
        }
    }

    /// Substructuring equals the direct solve on arbitrary grids/partitions.
    #[test]
    fn substructuring_equals_direct(
        nx in 2usize..10,
        ny in 1usize..4,
        parts in 1usize..5,
    ) {
        let mesh = Mesh::grid_quad(nx, ny, nx as f64, ny as f64);
        let mat = Material::steel();
        let mut cons = Constraints::new();
        for n in mesh.left_edge_nodes(1e-9) {
            cons.fix_node(n);
        }
        let ndof = mesh.node_count() * 2;
        let mut f = vec![0.0; ndof];
        let tip = mesh.nearest_node(nx as f64, ny as f64);
        f[2 * tip + 1] = -1000.0;

        let part = Partition::strips_x(&mesh, parts);
        let sol = analyze_substructures(&mesh, &mat, &cons, &part, &f);

        let free = cons.free_dofs(ndof);
        let kr = assemble_free(&mesh, &mat, &free);
        let fr = cons.restrict(&f);
        let ur = skyline::solve(&kr, &fr).unwrap();
        let u_ref = cons.expand(&ur, ndof);
        let scale = u_ref.iter().fold(1e-30f64, |m, x| m.max(x.abs()));
        for (a, b) in sol.displacements.iter().zip(&u_ref) {
            prop_assert!((a - b).abs() < 1e-7 * scale, "{a} vs {b}");
        }
    }

    /// Every partition covers every element exactly once.
    #[test]
    fn partitions_cover_exactly(nx in 1usize..16, ny in 1usize..8, parts in 1usize..10) {
        let mesh = Mesh::grid_quad(nx, ny, 1.0, 1.0);
        let part = Partition::strips_x(&mesh, parts);
        part.validate().unwrap();
        let mut seen = vec![0u32; mesh.element_count()];
        for p in 0..parts {
            for e in part.elements_of(p) {
                seen[e] += 1;
            }
        }
        prop_assert!(seen.iter().all(|&c| c == 1));
    }

    /// Window reads equal direct element reads for arbitrary windows.
    #[test]
    fn window_reads_equal_direct_reads(
        rows in 2usize..40,
        cols in 1usize..12,
        sel in (0u32..40, 0u32..40, 0u32..12, 0u32..12),
        accessor in 0u32..6,
        tasks in 1u32..7,
    ) {
        let (r0, r1, c0, c1) = sel;
        prop_assume!((r0 as usize) < rows && (c0 as usize) < cols);
        let r1 = (r1 % rows as u32).max(r0) + 1;
        let c1 = (c1 % cols as u32).max(c0) + 1;
        prop_assume!(r1 as usize <= rows && c1 as usize <= cols);
        prop_assume!(accessor < tasks);
        let mut vm = NaVm::simulated(MachineConfig::fem2_default(), tasks);
        let a = vm.array(rows, cols);
        vm.fill(a, |r, c| (r * 1000 + c) as f64);
        let w = vm.window(a, r0, r1, c0, c1);
        let vals = vm.read_window(TaskHandle(accessor), &w);
        let mut k = 0;
        for r in r0..r1 {
            for c in c0..c1 {
                prop_assert_eq!(vals[k], (r * 1000 + c) as f64);
                k += 1;
            }
        }
        prop_assert_eq!(k, vals.len());
    }
}
