//! Conjugate gradients on a team of threads, bit for bit the chunked
//! sequential CG at any thread count.
//!
//! No product path calls this. It stays, with `fem2-par` under it, solely
//! because the repo benchmark's `par.cg_s` / `par.cg_speedup` probe
//! (`benchmark/src/fem.rs`) calls [`solve`]; both go once that probe
//! moves (ROADMAP 1(c), (e)). Against the sequential [`crate::solver::cg`]
//! at two threads it shows the 1.3× a parallel path must reach in the
//! median on `fem_native`'s 8 450-dof system, not run for run, and about
//! 2× on systems that leave the cache (EXPERIMENTS.md A7).
//!
//! One `std::thread::scope` team runs the whole solve: `pool.threads()`
//! members (no more than there are 512-row chunks), the calling
//! thread member 0. Whole chunks are dealt to members once, in
//! contiguous runs with about equal stored entries. Each member keeps its
//! own rows of `u`, `r` and `K·p`; only `p` is shared, as `f64` bits in
//! `AtomicU64`s. An iteration is three phases, each ended by one barrier:
//!
//! 1. copy the shared `p` into a local vector, multiply own rows of `K`
//!    by it, publish one `p·Kp` partial per chunk;
//! 2. fold `p·Kp`, step own rows of `u` and `r`, publish one `r·r` partial
//!    per chunk;
//! 3. fold `r·r`, publish own rows of `p ← r + β·p`.
//!
//! Every partial is summed from 0.0 in index order over its chunk, and
//! every member folds all of them itself, from 0.0 in chunk order. So
//! every member sees the same scalars and takes the same branch, and the
//! result — iterations, residual, flops, every bit of `u` — does not
//! depend on the thread count.
//!
//! A member that unwinds breaks the barrier on its way out; the others
//! panic at their next wait instead of waiting for it, and the scope
//! hands the panic to the caller. No member waits for one that is gone.

use crate::solver::{IterControls, SolveLog};
use crate::sparse::Csr;
use fem2_par::Pool;
use std::hint::spin_loop;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::*};
use std::thread;

/// Rows per reduction chunk: the unit dots are summed in and members are
/// dealt.
const GRAIN: usize = 512;

/// Barrier polls before a waiter starts yielding its core.
const SPINS: u32 = 1 << 10;

/// A spinning team barrier that a member's panic breaks.
struct Barrier {
    members: usize,
    /// Calls to `wait` so far, by every member: round `r` is complete at
    /// `(r + 1) · members`.
    arrivals: AtomicUsize,
    broken: AtomicBool,
}

impl Barrier {
    /// Return once every member has called `wait` as often as this one;
    /// everything a member wrote before its call is visible after. Each
    /// `fetch_add` releases its member's writes (the `Relaxed` stores of
    /// `p` and the partials among them); the `fetch_add`s form one release
    /// sequence, so the `Acquire` load that sees the round's last arrival
    /// acquires every member's. `broken` publishes nothing but itself.
    fn wait(&self) {
        let round_end = (self.arrivals.fetch_add(1, AcqRel) / self.members + 1) * self.members;
        let mut spins = 0;
        while self.arrivals.load(Acquire) < round_end {
            assert!(
                !self.broken.load(Relaxed),
                "parallel CG: another team member panicked"
            );
            if spins < SPINS {
                spins += 1;
                spin_loop();
            } else {
                thread::yield_now();
            }
        }
    }
}

/// Breaks the barrier if its thread unwinds.
struct Breaker<'a>(&'a Barrier);

impl Drop for Breaker<'_> {
    fn drop(&mut self) {
        if thread::panicking() {
            self.0.broken.store(true, Relaxed);
        }
    }
}

/// What one member ends with: its rows of `u`, and the scalars every
/// member agrees on.
struct Member {
    u: Vec<f64>,
    iterations: usize,
    residual: f64,
    converged: bool,
    /// Stopped at `p·Kp ≤ 0`, after that iteration's product.
    broke: bool,
}

/// Everything the team shares for one solve.
struct Team<'a> {
    k: &'a Csr,
    f: &'a [f64],
    ctl: IterControls,
    /// Member `m` owns chunks `starts[m]..starts[m + 1]`.
    starts: Vec<usize>,
    p: Vec<AtomicU64>,
    /// One partial per chunk for each of the two dots in flight.
    pkp: Vec<AtomicU64>,
    rr: Vec<AtomicU64>,
    barrier: Barrier,
}

/// `a·b` summed from 0.0 in index order.
fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).fold(0.0, |acc, (x, y)| acc + x * y)
}

/// Store `values` into `shared`, in order.
fn publish(shared: &[AtomicU64], values: impl IntoIterator<Item = f64>) {
    for (s, v) in shared.iter().zip(values) {
        s.store(v.to_bits(), Relaxed);
    }
}

/// The published partials folded from 0.0 in chunk order.
fn fold(parts: &[AtomicU64]) -> f64 {
    parts
        .iter()
        .fold(0.0, |sum, part| sum + f64::from_bits(part.load(Relaxed)))
}

/// Each member's first chunk, then the chunk count: contiguous runs with
/// about `nnz / members` stored entries each, none empty. Needs
/// `1 ≤ members ≤ chunks` unless there are no chunks at all.
fn deal(k: &Csr, members: usize, chunks: usize) -> Vec<usize> {
    let n = k.order();
    let before = |c: usize| k.rowptr[(c * GRAIN).min(n)];
    let total = k.rowptr[n];
    let mut starts = vec![0];
    for m in 1..members {
        let mut c = starts[m - 1] + 1;
        while c < chunks - (members - m) && before(c) * members < m * total {
            c += 1;
        }
        starts.push(c);
    }
    starts.push(chunks);
    starts
}

impl Team<'_> {
    fn run(&self, m: usize) -> Member {
        let (k, ctl, n) = (self.k, self.ctl, self.k.order());
        let chunks = self.starts[m]..self.starts[m + 1];
        let rows = (chunks.start * GRAIN).min(n)..(chunks.end * GRAIN).min(n);
        let mut u = vec![0.0; rows.len()];
        let mut r = self.f[rows.clone()].to_vec();
        let mut kp = vec![0.0; rows.len()];
        let mut p = vec![0.0; n];

        publish(&self.p[rows.clone()], r.iter().copied());
        publish(&self.rr[chunks.clone()], r.chunks(GRAIN).map(|c| dot(c, c)));
        self.barrier.wait();
        let mut rr = fold(&self.rr);
        let target = ctl.rel_tol * rr.sqrt().max(f64::MIN_POSITIVE);
        let mut res = rr.sqrt();
        let mut iterations = 0;
        let mut broke = false;

        while iterations < ctl.max_iter && res > target {
            // 1: K·p on own rows, p·Kp partials.
            for (local, shared) in p.iter_mut().zip(&self.p) {
                *local = f64::from_bits(shared.load(Relaxed));
            }
            k.matvec_rows(&p, rows.clone(), &mut kp);
            let own_p = &p[rows.clone()];
            let parts = own_p.chunks(GRAIN).zip(kp.chunks(GRAIN));
            publish(&self.pkp[chunks.clone()], parts.map(|(a, b)| dot(a, b)));
            self.barrier.wait();
            let pkp = fold(&self.pkp);
            if pkp <= 0.0 {
                broke = true;
                break;
            }

            // 2: step u and r, r·r partials.
            let alpha = rr / pkp;
            let steps = u.chunks_mut(GRAIN).zip(r.chunks_mut(GRAIN));
            let by = own_p.chunks(GRAIN).zip(kp.chunks(GRAIN));
            for (((uc, rc), (pc, kpc)), part) in steps.zip(by).zip(&self.rr[chunks.clone()]) {
                let mut acc = 0.0;
                for (((ui, ri), pi), kpi) in uc.iter_mut().zip(rc.iter_mut()).zip(pc).zip(kpc) {
                    *ui += alpha * pi;
                    *ri -= alpha * kpi;
                    acc += *ri * *ri;
                }
                part.store(acc.to_bits(), Relaxed);
            }
            self.barrier.wait();
            let rr_new = fold(&self.rr);
            res = rr_new.sqrt();
            let beta = rr_new / rr;
            rr = rr_new;

            // 3: own rows of the next p.
            let next = r.iter().zip(own_p).map(|(ri, pi)| ri + beta * pi);
            publish(&self.p[rows.clone()], next);
            self.barrier.wait();
            iterations += 1;
        }
        Member {
            u,
            iterations,
            residual: res,
            converged: res <= target,
            broke,
        }
    }
}

/// Solve `K·u = f` by CG on a team of `pool.threads()` threads started
/// for this solve alone.
pub fn solve(pool: &Pool, k: &Csr, f: &[f64], ctl: IterControls) -> (Vec<f64>, SolveLog) {
    let n = k.order();
    assert_eq!(f.len(), n, "f length");
    let chunks = n.div_ceil(GRAIN);
    let members = pool.threads().min(chunks).max(1);
    let atomics = |len: usize| (0..len).map(|_| AtomicU64::new(0)).collect();
    let team = Team {
        k,
        f,
        ctl,
        starts: deal(k, members, chunks),
        p: atomics(n),
        pkp: atomics(chunks),
        rr: atomics(chunks),
        barrier: Barrier {
            members,
            arrivals: AtomicUsize::new(0),
            broken: AtomicBool::new(false),
        },
    };
    let out: Vec<Member> = thread::scope(|s| {
        let _breaker = Breaker(&team.barrier);
        let team = &team;
        let others: Vec<_> = (1..members)
            .map(|m| {
                s.spawn(move || {
                    let _breaker = Breaker(&team.barrier);
                    team.run(m)
                })
            })
            .collect();
        let mut out = vec![team.run(0)];
        for member in others {
            out.push(
                member
                    .join()
                    .unwrap_or_else(|e| std::panic::resume_unwind(e)),
            );
        }
        out
    });

    let u = out.iter().flat_map(|member| &member.u).copied().collect();
    let &Member {
        iterations,
        residual,
        converged,
        broke,
        ..
    } = &out[0];
    // The sequential count: r·r up front; per iteration K·p and p·Kp, two
    // updates, r·r and p ← r + β·p; a breakdown stops after p·Kp.
    let (n, nnz) = (n as u64, k.nnz() as u64);
    let product = 2 * nnz + 2 * n;
    let flops = 2 * n + iterations as u64 * (product + 8 * n) + if broke { product } else { 0 };
    (
        u,
        SolveLog {
            iterations,
            residual,
            converged,
            flops,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::residual_norm;
    use crate::solver::testmat::{assert_bits_eq, laplacian_2d, reduced_cantilever, rhs};

    /// Oracle: CG on one thread, every vector operation its own pass, and
    /// every dot product summed per `GRAIN`-row chunk from 0.0, the
    /// partials folded from 0.0 in chunk order.
    fn solve_oracle(k: &Csr, f: &[f64], ctl: IterControls) -> (Vec<f64>, SolveLog) {
        let n = k.order();
        let dot = |a: &[f64], b: &[f64]| {
            let parts = a.chunks(GRAIN).zip(b.chunks(GRAIN)).map(|(a, b)| {
                let mut acc = 0.0;
                for i in 0..a.len() {
                    acc += a[i] * b[i];
                }
                acc
            });
            parts.fold(0.0, |sum, part| sum + part)
        };
        let target = ctl.rel_tol * dot(f, f).sqrt().max(f64::MIN_POSITIVE);
        let mut u = vec![0.0; n];
        let mut r = f.to_vec();
        let mut p = r.clone();
        let mut rr = dot(&r, &r);
        let mut flops = 2 * n as u64;
        let mut iters = 0;
        let mut res = rr.sqrt();
        while iters < ctl.max_iter && res > target {
            let mut kp = vec![0.0; n];
            for (row, out) in kp.iter_mut().enumerate() {
                for e in k.rowptr[row]..k.rowptr[row + 1] {
                    *out += k.vals[e] * p[k.colidx[e]];
                }
            }
            flops += 2 * k.nnz() as u64;
            let pkp = dot(&p, &kp);
            flops += 2 * n as u64;
            if pkp <= 0.0 {
                break;
            }
            let alpha = rr / pkp;
            for i in 0..n {
                u[i] += alpha * p[i];
                r[i] -= alpha * kp[i];
            }
            flops += 4 * n as u64;
            let rr_new = dot(&r, &r);
            flops += 2 * n as u64;
            res = rr_new.sqrt();
            let beta = rr_new / rr;
            rr = rr_new;
            for i in 0..n {
                p[i] = r[i] + beta * p[i];
            }
            flops += 2 * n as u64;
            iters += 1;
        }
        let log = SolveLog {
            iterations: iters,
            residual: res,
            converged: res <= target,
            flops,
        };
        (u, log)
    }

    /// [`solve`] on 1, 2, 3, 4 and 8 threads against the oracle: the same
    /// iterations, residual bits, flops and bits of `u`.
    fn assert_matches_oracle(k: &Csr, f: &[f64], ctl: IterControls, what: &str) {
        let (u_want, want) = solve_oracle(k, f, ctl);
        for threads in [1, 2, 3, 4, 8] {
            let (u, log) = solve(&Pool::new(threads), k, f, ctl);
            let what = format!("{what}, {threads} threads");
            assert_eq!(log.iterations, want.iterations, "{what}: iterations");
            assert_eq!(
                log.residual.to_bits(),
                want.residual.to_bits(),
                "{what}: residual"
            );
            assert_eq!(log.flops, want.flops, "{what}: flops");
            assert_eq!(log.converged, want.converged, "{what}: converged");
            assert_bits_eq(&u, &u_want, &what);
        }
    }

    #[test]
    fn matches_chunked_oracle_bitwise_at_any_thread_count() {
        let ctl = IterControls::default();
        let a = laplacian_2d(48);
        assert_matches_oracle(&a, &rhs(48 * 48), ctl, "laplacian 48x48");
        // fem_native's system: 17 chunks, dealt unevenly by entries.
        let (kr, fr) = reduced_cantilever(64, 64);
        assert_matches_oracle(&kr, &fr, ctl, "cantilever 64x64");
        let capped = IterControls { max_iter: 7, ..ctl };
        assert_matches_oracle(&kr, &fr, capped, "cantilever, 7 iterations");
        assert_matches_oracle(&a, &vec![0.0; 48 * 48], ctl, "zero rhs");
        // p·Kp < 0 on the second step: the same break, the same log.
        let indefinite = Csr {
            rowptr: vec![0, 2, 4],
            colidx: vec![0, 1, 0, 1],
            vals: vec![1.0, 2.0, 2.0, 1.0],
        };
        assert_matches_oracle(&indefinite, &[1.0, 0.0], ctl, "indefinite");
    }

    #[test]
    fn a_panicking_member_does_not_hang_the_team() {
        // Identity on 3 chunks, except that the last row names a column
        // past the end: the member that owns it panics in its product,
        // and the solve must return that panic rather than wait for it.
        let n = 3 * GRAIN;
        let mut a = Csr {
            rowptr: (0..=n).collect(),
            colidx: (0..n).collect(),
            vals: vec![1.0; n],
        };
        a.colidx[n - 1] = n;
        for threads in [1, 2, 3] {
            let out = std::panic::catch_unwind(|| {
                solve(
                    &Pool::new(threads),
                    &a,
                    &vec![1.0; n],
                    IterControls::default(),
                )
            });
            assert!(out.is_err(), "{threads} threads");
        }
    }

    #[test]
    fn parallel_cg_converges() {
        let a = laplacian_2d(24);
        let f = rhs(24 * 24);
        let pool = Pool::new(4);
        let (u, log) = solve(&pool, &a, &f, IterControls::default());
        assert!(log.converged, "{log:?}");
        assert!(residual_norm(&a, &u, &f) < 1e-5);
    }

    #[test]
    fn matches_sequential_cg_solution() {
        let a = laplacian_2d(16);
        let f = rhs(256);
        let ctl = IterControls {
            rel_tol: 1e-10,
            max_iter: 10_000,
        };
        let pool = Pool::new(4);
        let (u_par, _) = solve(&pool, &a, &f, ctl);
        let (u_seq, _) = crate::solver::cg::solve(&a, &f, ctl, false);
        for i in 0..256 {
            assert!(
                (u_par[i] - u_seq[i]).abs() < 1e-6,
                "at {i}: {} vs {}",
                u_par[i],
                u_seq[i]
            );
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let a = laplacian_2d(40);
        let f = rhs(1600);
        let pool = Pool::new(4);
        let run = || solve(&pool, &a, &f, IterControls::default());
        let (u1, l1) = run();
        let (u2, l2) = run();
        assert_eq!(l1, l2);
        assert_bits_eq(&u1, &u2, "two runs");
    }

    #[test]
    fn thread_count_does_not_change_convergence() {
        let a = laplacian_2d(40);
        let f = rhs(1600);
        let (u1, l1) = solve(&Pool::new(1), &a, &f, IterControls::default());
        let (u8, l8) = solve(&Pool::new(8), &a, &f, IterControls::default());
        assert_eq!(l1, l8);
        assert_bits_eq(&u1, &u8, "1 against 8 threads");
    }
}
