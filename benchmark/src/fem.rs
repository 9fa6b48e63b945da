//! `fem_native`: the answers themselves, no simulator — element matrices,
//! COO→CSR, reduction to the free dofs, CG / Jacobi-PCG / skyline
//! Cholesky, stress recovery — on an 8450-dof cantilever plate.

use crate::harness::{diff, push_fields, Layers, Rep, Workload};
use crate::rng::Rng;
use fem2_core::hash::fnv1a_64;
use fem2_fem::solver::{self, IterControls};
use fem2_fem::stress::all_stresses;
use fem2_fem::{assemble, cantilever_plate, SolverChoice, StructuralModel};
use fem2_par::Pool;
use std::hint::black_box;
use std::time::Instant;

const NX: usize = 64;
const NY: usize = 64;
const TOL: f64 = 1e-8;
/// `analyze` caps its iterative solvers here.
const MAX_ITER: usize = 100_000;

const CHOICES: [SolverChoice; 3] = [
    SolverChoice::Cg { tol: TOL },
    SolverChoice::PreconditionedCg { tol: TOL },
    SolverChoice::Skyline,
];

pub struct FemNative {
    model: StructuralModel,
    /// The seeded loads, kept for the generator tests.
    loads: [f64; 4],
}

impl FemNative {
    /// The 64x64 cantilever with a seeded tip load and a second seeded
    /// load at a seeded node: the system matrix (and so the work) is the
    /// same for every seed, the right-hand side is not.
    pub fn setup(seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        let tip = -500.0 - 1500.0 * rng.unit();
        let mut model = cantilever_plate(NX, NY, tip);
        let node = rng.below(model.mesh.node_count() as u64);
        let (fx, fy) = (400.0 * rng.unit() - 200.0, -100.0 - 400.0 * rng.unit());
        model.load_sets[0].add_node(node as usize, fx, fy);
        FemNative {
            model,
            loads: [tip, node as f64, fx, fy],
        }
    }
}

fn bits_hash(values: &[f64]) -> u64 {
    let bytes: Vec<u8> = values
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .collect();
    fnv1a_64(&bytes)
}

fn norm(v: &[f64]) -> f64 {
    v.iter().map(|x| x * x).sum::<f64>().sqrt()
}

impl Workload for FemNative {
    /// One operation = one `analyze` (assemble, reduce, solve, stresses).
    fn repetition(&mut self) -> Rep {
        let mut rep = Rep::default();
        let t_all = Instant::now();
        for (i, choice) in CHOICES.into_iter().enumerate() {
            let t = Instant::now();
            let outcome = self.model.analyze(0, choice);
            rep.op_ms.push(t.elapsed().as_secs_f64() * 1e3);
            match outcome {
                Ok(a) => {
                    rep.work += a.log.flops;
                    let fields = [
                        ("iterations", a.log.iterations as u64),
                        ("residual_bits", a.log.residual.to_bits()),
                        ("flops", a.log.flops),
                        ("displacement_hash", bits_hash(&a.displacements)),
                    ];
                    push_fields(&mut rep.digest, i, &fields);
                }
                Err(why) => rep
                    .failures
                    .push(format!("fem_native: {choice:?} failed: {why}")),
            }
        }
        rep.wall_s = t_all.elapsed().as_secs_f64();
        rep
    }

    fn layers(&mut self, reference: &Rep, out: &mut Layers) -> Vec<String> {
        let mut failures = Vec::new();
        let untraced = self.repetition();
        failures.extend(untraced.failures.iter().cloned());
        failures.extend(diff(
            "fem_native",
            "the untraced pass",
            &reference.digest,
            &untraced.digest,
        ));

        // The phases of `analyze`, called one by one.
        let m = &self.model;
        let t = Instant::now();
        black_box(cantilever_plate(NX, NY, self.loads[0]));
        out.add("fem.mesh_s", t.elapsed().as_secs_f64());
        let t = Instant::now();
        let k = assemble(&m.mesh, &m.material);
        out.add("fem.assemble_s", t.elapsed().as_secs_f64());
        let t = Instant::now();
        let f_full = m.load_sets[0].to_vector(m.dof_count());
        let free = m.constraints.free_dofs(m.dof_count());
        let kr = k.submatrix(&free);
        let fr = m.constraints.restrict(&f_full);
        out.add("fem.reduce_s", t.elapsed().as_secs_f64());

        let ctl = IterControls {
            rel_tol: TOL,
            max_iter: MAX_ITER,
        };
        let t = Instant::now();
        let (u_cg, cg) = solver::cg::solve(&kr, &fr, ctl, false);
        let cg_s = t.elapsed().as_secs_f64();
        out.add("fem.cg_s", cg_s);
        let t = Instant::now();
        let (_, pcg) = solver::cg::solve(&kr, &fr, ctl, true);
        out.add("fem.pcg_s", t.elapsed().as_secs_f64());
        let t = Instant::now();
        let sky = solver::skyline::solve(&kr, &fr);
        out.add("fem.skyline_s", t.elapsed().as_secs_f64());
        let t = Instant::now();
        let u = m.constraints.expand(&u_cg, m.dof_count());
        black_box(all_stresses(&m.mesh, &m.material, &u));
        out.add("fem.stress_s", t.elapsed().as_secs_f64());

        const MATVECS: usize = 50;
        let mut y = vec![0.0; kr.order()];
        let t = Instant::now();
        for _ in 0..MATVECS {
            kr.matvec(black_box(&u_cg), &mut y);
        }
        out.add(
            "fem.matvec_ns_per_nnz",
            t.elapsed().as_secs_f64() * 1e9 / (MATVECS * kr.nnz()) as f64,
        );

        // The direct call must walk the path `analyze` walked, and the
        // iterative answer must agree with the direct one.
        let field = |name: &str| {
            reference
                .digest
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| *v)
        };
        if field("op000.iterations") != Some(cg.iterations as u64)
            || field("op000.displacement_hash") != Some(bits_hash(&u))
        {
            failures.push("fem_native: solver::cg::solve differs from analyze(Cg)".to_string());
        }
        match sky {
            Ok(u_sky) => {
                let delta: Vec<f64> = u_cg.iter().zip(&u_sky).map(|(a, b)| a - b).collect();
                let relerr = norm(&delta) / norm(&u_sky);
                out.add("fem.cg_vs_skyline_relerr", relerr);
                if relerr.is_nan() || relerr > 1e-6 {
                    failures.push(format!(
                        "fem_native: CG is {relerr:e} off the skyline solve"
                    ));
                }
            }
            Err(why) => failures.push(format!("fem_native: skyline failed: {why}")),
        }

        let threads = std::thread::available_parallelism().map_or(1, usize::from);
        let pool = Pool::new(threads);
        let t = Instant::now();
        let (_, par) = solver::parallel_cg::solve(&pool, &kr, &fr, ctl);
        let par_s = t.elapsed().as_secs_f64();
        out.add("par.cg_s", par_s);
        out.add("par.cg_speedup", cg_s / par_s);
        if !par.converged {
            failures.push("fem_native: parallel CG did not converge".to_string());
        }

        // `analyze` assembles, reduces and recovers stresses once per solver.
        let phases = 3.0
            * (out.last("fem.assemble_s") + out.last("fem.reduce_s") + out.last("fem.stress_s"))
            + out.last("fem.cg_s")
            + out.last("fem.pcg_s")
            + out.last("fem.skyline_s");
        out.add("trace.attributed_pct", phases / untraced.wall_s * 100.0);
        out.add("fem.nnz", kr.nnz() as f64);
        out.add("fem.cg_iters", cg.iterations as f64);
        out.add("fem.pcg_iters", pcg.iterations as f64);
        out.add("fem.flops", untraced.work as f64);
        failures
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_loads_and_seeds_differ() {
        assert_eq!(FemNative::setup(7).loads, FemNative::setup(7).loads);
        assert_ne!(FemNative::setup(7).loads, FemNative::setup(8).loads);
        let w = FemNative::setup(7);
        assert_eq!(w.model.dof_count(), 2 * 65 * 65);
        assert!(w.model.load_sets[0].len() >= 2);
    }
}
