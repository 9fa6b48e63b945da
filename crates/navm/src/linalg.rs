//! Linear-algebra operations of the NA-VM.
//!
//! Inner products, vector updates, dense matrix–vector products, and the
//! 5-point-stencil operator the FEM scenarios lean on. Every operation
//! computes real values *and* charges the simulated machine when the VM
//! runs on the simulated plane.
//!
//! The host arithmetic of each operation is **one slice kernel** (the free
//! functions below) that both planes call, so they round the same way —
//! the plane-equivalence property the integration tests check. Two
//! contracts fix the bits:
//!
//! * **Reductions.** One partial per [`REDUCE_GRAIN`] chunk, each summed
//!   left to right from `0.0`; partials are folded in chunk order from
//!   `0.0`. The combination tree depends only on `n`. How many chunks a
//!   kernel advances together is an implementation detail no result depends
//!   on.
//! * **Stencil.** Every point is `4·c − l − r − u − d`, subtracted in that
//!   order, with the terms of out-of-grid neighbours skipped.

use crate::runtime::{ArrayId, NaVm, Plane};
use fem2_machine::{Words, WorkProfile};
use fem2_trace::{EventKind, MsgKind, TraceEvent, WindowStage, NO_PE};

/// Chunk size for deterministic reductions, elements.
pub const REDUCE_GRAIN: usize = 1024;

/// Chunks the widest step of [`dot_partials`] advances together.
const REDUCE_SPAN: usize = 8;

/// Advance `L` whole chunks together for as long as `L` remain: `L`
/// independent left-to-right add chains whose latencies overlap. Each
/// partial is exactly the sum a chunk-at-a-time loop produces. Returns the
/// number of chunks consumed.
fn dot_lanes<const L: usize>(
    x: &[[f64; REDUCE_GRAIN]],
    y: &[[f64; REDUCE_GRAIN]],
    out: &mut [f64],
) -> usize {
    let (xl, _) = x.as_chunks::<L>();
    let (yl, _) = y.as_chunks::<L>();
    let (ol, _) = out.as_chunks_mut::<L>();
    for ((x, y), o) in xl.iter().zip(yl).zip(ol) {
        let mut acc = [0.0; L];
        for i in 0..REDUCE_GRAIN {
            for l in 0..L {
                acc[l] += x[l][i] * y[l][i];
            }
        }
        *o = acc;
    }
    xl.len() * L
}

/// The reduction kernel: `out[c] = Σ x[i]·y[i]` over chunk `c` of
/// [`REDUCE_GRAIN`] elements, summed left to right from `0.0`. Whole chunks
/// advance 8, then 4, then 1 at a time; the short tail chunk comes last.
fn dot_partials(x: &[f64], y: &[f64], out: &mut [f64]) {
    assert_eq!(
        out.len(),
        x.len().div_ceil(REDUCE_GRAIN),
        "one partial per chunk"
    );
    let (xc, xt) = x.as_chunks::<REDUCE_GRAIN>();
    let (yc, yt) = y.as_chunks::<REDUCE_GRAIN>();
    let mut c = dot_lanes::<REDUCE_SPAN>(xc, yc, out);
    c += dot_lanes::<4>(&xc[c..], &yc[c..], &mut out[c..]);
    c += dot_lanes::<1>(&xc[c..], &yc[c..], &mut out[c..]);
    if let Some(tail) = out.get_mut(c) {
        *tail = dot_row(xt, yt);
    }
}

/// `y ← y + alpha·x`.
fn axpy_slice(alpha: f64, x: &[f64], y: &mut [f64]) {
    for (y, x) in y.iter_mut().zip(x) {
        *y += alpha * x;
    }
}

/// `y ← x + beta·y`.
fn xpby_slice(x: &[f64], beta: f64, y: &mut [f64]) {
    for (y, x) in y.iter_mut().zip(x) {
        *y = x + beta * *y;
    }
}

/// `x ← alpha·x`.
fn scale_slice(alpha: f64, x: &mut [f64]) {
    for v in x {
        *v *= alpha;
    }
}

/// `Σ row[c]·x[c]`, left to right from `0.0`.
fn dot_row(row: &[f64], x: &[f64]) -> f64 {
    row.iter().zip(x).fold(0.0, |acc, (a, b)| acc + a * b)
}

/// One grid row of the 5-point stencil: `out[i] = 4·c[i] − c[i−1] − c[i+1]
/// − up[i] − down[i]`, subtracted in that order, absent neighbours skipped.
/// `up`/`down` are the neighbouring rows, `None` at the grid edge.
fn stencil_row(out: &mut [f64], c: &[f64], up: Option<&[f64]>, down: Option<&[f64]>) {
    let nx = c.len();
    let point = |i: usize| {
        let mut v = 4.0 * c[i];
        if i > 0 {
            v -= c[i - 1];
        }
        if i + 1 < nx {
            v -= c[i + 1];
        }
        if let Some(u) = up {
            v -= u[i];
        }
        if let Some(d) = down {
            v -= d[i];
        }
        v
    };
    if nx < 3 {
        for (i, o) in out.iter_mut().enumerate() {
            *o = point(i);
        }
        return;
    }
    // Two peeled end points, then an interior of equal-length windows with
    // no edge test left in the loop.
    out[0] = point(0);
    out[nx - 1] = point(nx - 1);
    let horizontal = out[1..nx - 1]
        .iter_mut()
        .zip(&c[1..nx - 1])
        .zip(c[..nx - 2].iter().zip(&c[2..]));
    match (up, down) {
        (Some(u), Some(d)) => {
            let vertical = u[1..nx - 1].iter().zip(&d[1..nx - 1]);
            for (((o, c), (l, r)), (u, d)) in horizontal.zip(vertical) {
                *o = 4.0 * c - l - r - u - d;
            }
        }
        (Some(v), None) | (None, Some(v)) => {
            for (((o, c), (l, r)), v) in horizontal.zip(&v[1..nx - 1]) {
                *o = 4.0 * c - l - r - v;
            }
        }
        (None, None) => {
            for ((o, c), (l, r)) in horizontal {
                *o = 4.0 * c - l - r;
            }
        }
    }
}

impl NaVm {
    /// The elements of `src` (shared) beside those of `dst` (mutable).
    fn src_dst(&mut self, src: ArrayId, dst: ArrayId) -> (&[f64], &mut [f64]) {
        let [s, d] = self
            .arrays
            .get_disjoint_mut([src.0 as usize, dst.0 as usize])
            .expect("aliasing arrays");
        (&s.data, &mut d.data)
    }

    fn charge_elementwise(&mut self, n: usize, per_elem: WorkProfile) {
        if let Plane::Sim(s) = &mut self.plane {
            let tasks = self.tasks;
            let work = tasks
                .iter()
                .map(|t| (t, per_elem.scaled(tasks.share(n, t).len() as u64)));
            s.parallel_section(&tasks, work);
        }
    }

    /// Charge the tree reduction that combines per-task partials: one small
    /// message per cluster toward cluster 0, then a broadcast of the result.
    fn charge_reduction(&mut self) {
        if let Plane::Sim(s) = &mut self.plane {
            let start = s.now;
            let mut barrier = start;
            for c in 1..self.tasks.clusters() {
                let arrive = s.transmit(start, c, 0, 2, MsgKind::RemoteCall);
                barrier = barrier.max(arrive);
            }
            for c in 1..self.tasks.clusters() {
                let arrive = s.transmit(barrier, 0, c, 2, MsgKind::RemoteReturn);
                barrier = barrier.max(arrive);
            }
            s.now = barrier;
        }
    }

    /// Inner product `xᵀy`. Identical rounding on both planes.
    pub fn inner(&mut self, x: ArrayId, y: ArrayId) -> f64 {
        let n = self.len(x);
        assert_eq!(n, self.len(y), "length mismatch");
        let result = {
            let xd = &self.arrays[x.0 as usize].data;
            let yd = &self.arrays[y.0 as usize].data;
            let mut partials = vec![0.0; n.div_ceil(REDUCE_GRAIN)];
            dot_partials(xd, yd, &mut partials);
            // Folded in chunk order.
            partials.iter().fold(0.0, |total, p| total + p)
        };
        self.charge_elementwise(
            n,
            WorkProfile {
                flops: 2,
                int_ops: 0,
                mem_words: 2,
            },
        );
        self.charge_reduction();
        result
    }

    /// Euclidean norm `‖x‖₂`.
    pub fn norm2(&mut self, x: ArrayId) -> f64 {
        self.inner(x, x).sqrt()
    }

    /// `y ← y + alpha·x`.
    pub fn axpy(&mut self, alpha: f64, x: ArrayId, y: ArrayId) {
        let n = self.len(x);
        assert_eq!(n, self.len(y), "length mismatch");
        let (xd, yd) = self.src_dst(x, y);
        axpy_slice(alpha, xd, yd);
        self.charge_elementwise(
            n,
            WorkProfile {
                flops: 2,
                int_ops: 0,
                mem_words: 3,
            },
        );
    }

    /// `y ← x + beta·y` (the CG direction update).
    pub fn xpby(&mut self, x: ArrayId, beta: f64, y: ArrayId) {
        let n = self.len(x);
        assert_eq!(n, self.len(y), "length mismatch");
        let (xd, yd) = self.src_dst(x, y);
        xpby_slice(xd, beta, yd);
        self.charge_elementwise(
            n,
            WorkProfile {
                flops: 2,
                int_ops: 0,
                mem_words: 3,
            },
        );
    }

    /// `x ← alpha·x`.
    pub fn scale(&mut self, x: ArrayId, alpha: f64) {
        let n = self.len(x);
        scale_slice(alpha, &mut self.arrays[x.0 as usize].data);
        self.charge_elementwise(
            n,
            WorkProfile {
                flops: 1,
                int_ops: 0,
                mem_words: 2,
            },
        );
    }

    /// `y ← x`.
    pub fn copy(&mut self, x: ArrayId, y: ArrayId) {
        let n = self.len(x);
        assert_eq!(n, self.len(y), "length mismatch");
        {
            let (xd, yd) = self.src_dst(x, y);
            yd.copy_from_slice(xd);
        }
        self.charge_elementwise(
            n,
            WorkProfile {
                flops: 0,
                int_ops: 0,
                mem_words: 2,
            },
        );
    }

    /// Dense matrix–vector product `y ← A·x` with `A` row-block
    /// distributed. On the simulated plane the full `x` is allgathered
    /// (each cluster ships its share to every other) before the local rows
    /// multiply.
    pub fn matvec_dense(&mut self, a: ArrayId, x: ArrayId, y: ArrayId) {
        let (m, ncols) = (self.rows(a), self.cols(a));
        assert_eq!(self.len(x), ncols, "x length mismatch");
        assert_eq!(self.len(y), m, "y length mismatch");
        // Charge the allgather of x.
        if let Plane::Sim(_) = self.plane {
            let clusters = self.tasks.clusters();
            let share_words = (ncols as u64 / clusters.max(1) as u64).max(1);
            if let Plane::Sim(s) = &mut self.plane {
                let start = s.now;
                let mut barrier = start;
                for from in 0..clusters {
                    for to in 0..clusters {
                        if from != to {
                            let arrive =
                                s.transmit(start, from, to, share_words, MsgKind::RemoteCall);
                            barrier = barrier.max(arrive);
                        }
                    }
                }
                s.now = barrier;
            }
        }
        // Compute: y[r] = Σ_c A[r][c] x[c].
        {
            let [aa, xa, ya] = self
                .arrays
                .get_disjoint_mut([a.0 as usize, x.0 as usize, y.0 as usize])
                .expect("aliasing arrays");
            let (ad, xd, yd) = (&aa.data, &xa.data, &mut ya.data);
            for (r, out) in yd.iter_mut().enumerate() {
                *out = dot_row(&ad[r * ncols..(r + 1) * ncols], xd);
            }
        }
        self.charge_elementwise(
            m,
            WorkProfile {
                flops: 2 * ncols as u64,
                int_ops: ncols as u64,
                mem_words: ncols as u64 + 1,
            },
        );
    }

    /// 5-point-stencil operator on an `nx × ny` grid: for interior and
    /// boundary points alike,
    /// `y[i,j] = 4·x[i,j] − x[i−1,j] − x[i+1,j] − x[i,j−1] − x[i,j+1]`
    /// with out-of-grid neighbours treated as zero (homogeneous Dirichlet).
    /// `x` and `y` are `nx·ny` vectors, grid row-major.
    ///
    /// On the simulated plane each task owning a band of grid rows
    /// exchanges one halo row (`nx` words) with each neighbouring task:
    /// intra-cluster neighbours cost memory passes, inter-cluster ones cost
    /// messages — the nearest-neighbour pattern of E5.
    pub fn stencil5(&mut self, x: ArrayId, y: ArrayId, nx: usize, ny: usize) {
        assert_eq!(self.len(x), nx * ny, "x length mismatch");
        assert_eq!(self.len(y), nx * ny, "y length mismatch");
        // Halo exchange charges.
        if let Plane::Sim(s) = &mut self.plane {
            let tasks = self.tasks;
            let pairs = tasks
                .iter()
                .zip(tasks.iter().skip(1))
                .filter(|(a, b)| {
                    // Only adjacent tasks with non-empty shares exchange.
                    !tasks.share(ny, *a).is_empty() && !tasks.share(ny, *b).is_empty()
                })
                .map(|(a, b)| (tasks.cluster_of(a), tasks.cluster_of(b)));
            let start = s.now;
            let mut barrier = start;
            for (ca, cb) in pairs {
                if ca == cb {
                    // The MemWord charge records the words; counting
                    // them again here would double-book the pass.
                    let pe = s.machine.kernel_pe(ca);
                    let done = s
                        .machine
                        .charge(start, pe, fem2_machine::CostClass::MemWord, 2 * nx as u64)
                        .unwrap_or(start);
                    s.machine.trace.emit(|| {
                        TraceEvent::span(
                            start,
                            done - start,
                            ca,
                            NO_PE,
                            EventKind::Window {
                                stage: WindowStage::Gather,
                                peer_cluster: cb,
                                words: 2 * nx as u64,
                            },
                        )
                    });
                    barrier = barrier.max(done);
                } else {
                    let a1 = s.transmit(start, ca, cb, nx as Words, MsgKind::RemoteCall);
                    let a2 = s.transmit(start, cb, ca, nx as Words, MsgKind::RemoteCall);
                    s.machine.trace.emit(|| {
                        TraceEvent::span(
                            start,
                            a1 - start,
                            ca,
                            NO_PE,
                            EventKind::Window {
                                stage: WindowStage::Transit,
                                peer_cluster: cb,
                                words: nx as u64,
                            },
                        )
                    });
                    s.machine.trace.emit(|| {
                        TraceEvent::span(
                            start,
                            a2 - start,
                            cb,
                            NO_PE,
                            EventKind::Window {
                                stage: WindowStage::Transit,
                                peer_cluster: ca,
                                words: nx as u64,
                            },
                        )
                    });
                    barrier = barrier.max(a1).max(a2);
                }
            }
            s.now = barrier;
        }
        // Compute.
        {
            let (xd, yd) = self.src_dst(x, y);
            let grid_row = |j: usize| &xd[j * nx..(j + 1) * nx];
            for (j, out) in yd.chunks_mut(nx).enumerate() {
                let up = (j > 0).then(|| grid_row(j - 1));
                let down = (j + 1 < ny).then(|| grid_row(j + 1));
                stencil_row(out, grid_row(j), up, down);
            }
        }
        self.charge_elementwise(
            nx * ny,
            WorkProfile {
                flops: 8,
                int_ops: 6,
                mem_words: 6,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fem2_machine::MachineConfig;
    use proptest::prelude::*;

    fn sim(ntasks: u32) -> NaVm {
        NaVm::simulated(MachineConfig::fem2_default(), ntasks)
    }

    fn native() -> NaVm {
        NaVm::native(4)
    }

    fn vector_of(vm: &mut NaVm, data: &[f64]) -> ArrayId {
        let id = vm.vector(data.len());
        vm.fill(id, |i, _| data[i]);
        id
    }

    fn assert_bits_eq(got: &[f64], want: &[f64], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}: element {i}: {g} vs {w}");
        }
    }

    /// `n` values of mixed sign and magnitude (2⁻³⁰…2³⁰), one in sixteen a
    /// signed zero, from a SplitMix64 stream.
    fn mixed_values(seed: u64, n: usize) -> Vec<f64> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^= z >> 31;
                let sign = if z & 1 == 0 { 1.0 } else { -1.0 };
                if (z >> 1) & 15 == 0 {
                    return sign * 0.0;
                }
                let exponent = ((z >> 5) % 61) as i32 - 30;
                let mantissa = 1.0 + (z >> 12) as f64 / (1u64 << 52) as f64;
                sign * mantissa * 2f64.powi(exponent)
            })
            .collect()
    }

    /// Oracle: the element-by-element chunk fold `inner` ran before the
    /// slice kernels — the reduction contract written out.
    fn inner_oracle(x: &[f64], y: &[f64]) -> f64 {
        let n = x.len();
        let mut total = 0.0;
        let mut start = 0;
        while start < n {
            let end = (start + REDUCE_GRAIN).min(n);
            let mut acc = 0.0;
            for i in start..end {
                acc += x[i] * y[i];
            }
            total += acc;
            start = end;
        }
        total
    }

    /// Oracle: the per-point stencil with its four edge tests.
    fn stencil_oracle(x: &[f64], nx: usize, ny: usize) -> Vec<f64> {
        let mut y = vec![0.0; nx * ny];
        for j in 0..ny {
            for i in 0..nx {
                let idx = j * nx + i;
                let mut v = 4.0 * x[idx];
                if i > 0 {
                    v -= x[idx - 1];
                }
                if i + 1 < nx {
                    v -= x[idx + 1];
                }
                if j > 0 {
                    v -= x[idx - nx];
                }
                if j + 1 < ny {
                    v -= x[idx + nx];
                }
                y[idx] = v;
            }
        }
        y
    }

    fn assert_inner_matches_oracle(seed: u64, n: usize) {
        let x = mixed_values(seed, n);
        let y = mixed_values(seed ^ 0x5bd1_e995, n);
        let want = inner_oracle(&x, &y);
        let want_norm = inner_oracle(&x, &x);
        for (p, mut vm) in [sim(4), native()].into_iter().enumerate() {
            let (xa, ya) = (vector_of(&mut vm, &x), vector_of(&mut vm, &y));
            let got = vm.inner(xa, ya);
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "n {n} plane {p}: {got} vs {want}"
            );
            let got = vm.inner(xa, xa);
            assert_eq!(got.to_bits(), want_norm.to_bits(), "n {n} plane {p}: x·x");
        }
    }

    #[test]
    fn inner_matches_chunk_fold_oracle_at_lane_boundaries() {
        let g = REDUCE_GRAIN;
        let sizes = [
            1,
            g - 1,
            g,
            g + 1,
            4 * g - 1,
            4 * g + 1,
            8 * g - 1,
            8 * g + 1,
            12 * g + 7,
            25_600,
        ];
        for (k, n) in sizes.into_iter().enumerate() {
            assert_inner_matches_oracle(1983 + k as u64, n);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn inner_matches_chunk_fold_oracle(n in 1usize..=40_000, seed in any::<u64>()) {
            assert_inner_matches_oracle(seed, n);
        }
    }

    #[test]
    fn stencil5_matches_per_point_oracle() {
        let grids = (1..=6usize)
            .flat_map(|nx| (1..=6usize).map(move |ny| (nx, ny)))
            .chain([(131, 125)]);
        for (nx, ny) in grids {
            let x = mixed_values((nx * 1000 + ny) as u64, nx * ny);
            let want = stencil_oracle(&x, nx, ny);
            for (p, mut vm) in [sim(4), native()].into_iter().enumerate() {
                let xa = vector_of(&mut vm, &x);
                let ya = vm.vector(nx * ny);
                vm.stencil5(xa, ya, nx, ny);
                assert_bits_eq(&vm.snapshot(ya), &want, &format!("{nx}x{ny} plane {p}"));
            }
        }
    }

    #[test]
    fn vector_updates_match_per_element_oracle() {
        let n = 3 * REDUCE_GRAIN + 517;
        let x = mixed_values(7, n);
        let y = mixed_values(11, n);
        let (alpha, beta) = (-1.375e-3, 0.8125);
        let axpy: Vec<f64> = x.iter().zip(&y).map(|(x, y)| y + alpha * x).collect();
        let xpby: Vec<f64> = x.iter().zip(&axpy).map(|(x, y)| x + beta * y).collect();
        let scaled: Vec<f64> = xpby.iter().map(|y| y * alpha).collect();
        for (p, mut vm) in [sim(4), native()].into_iter().enumerate() {
            let (xa, ya) = (vector_of(&mut vm, &x), vector_of(&mut vm, &y));
            vm.axpy(alpha, xa, ya);
            assert_bits_eq(&vm.snapshot(ya), &axpy, &format!("axpy plane {p}"));
            vm.xpby(xa, beta, ya);
            assert_bits_eq(&vm.snapshot(ya), &xpby, &format!("xpby plane {p}"));
            vm.scale(ya, alpha);
            assert_bits_eq(&vm.snapshot(ya), &scaled, &format!("scale plane {p}"));
        }
    }

    #[test]
    fn inner_product_exact() {
        for mut vm in [sim(4), native()] {
            let x = vm.vector(100);
            let y = vm.vector(100);
            vm.fill(x, |i, _| i as f64);
            vm.fill(y, |_, _| 3.0);
            assert_eq!(vm.inner(x, y), 3.0 * (99.0 * 100.0 / 2.0));
        }
    }

    #[test]
    fn inner_bitwise_identical_across_planes() {
        let n = 5000; // spans multiple reduce chunks
        let mut vs = sim(4);
        let mut vn = native();
        let (xs, ys) = (vs.vector(n), vs.vector(n));
        let (xn, yn) = (vn.vector(n), vn.vector(n));
        let f = |i: usize, _: usize| ((i * 2654435761) % 1000) as f64 * 1e-3 + 0.1;
        let g = |i: usize, _: usize| ((i * 40503) % 777) as f64 * 1e-2 - 3.0;
        vs.fill(xs, f);
        vs.fill(ys, g);
        vn.fill(xn, f);
        vn.fill(yn, g);
        let a = vs.inner(xs, ys);
        let b = vn.inner(xn, yn);
        assert_eq!(a.to_bits(), b.to_bits(), "sim {a} vs native {b}");
    }

    #[test]
    fn axpy_and_xpby() {
        for mut vm in [sim(4), native()] {
            let x = vm.vector(10);
            let y = vm.vector(10);
            vm.fill(x, |i, _| i as f64);
            vm.fill(y, |_, _| 1.0);
            vm.axpy(2.0, x, y); // y = 1 + 2i
            assert_eq!(vm.get(y, 3, 0), 7.0);
            vm.xpby(x, 0.5, y); // y = i + 0.5(1 + 2i) = 2i + 0.5
            assert_eq!(vm.get(y, 3, 0), 6.5);
        }
    }

    #[test]
    fn scale_and_copy_and_norm() {
        for mut vm in [sim(4), native()] {
            let x = vm.vector(4);
            vm.fill(x, |_, _| 2.0);
            vm.scale(x, 1.5);
            assert_eq!(vm.get(x, 0, 0), 3.0);
            let y = vm.vector(4);
            vm.copy(x, y);
            assert_eq!(vm.snapshot(y), vec![3.0; 4]);
            assert_eq!(vm.norm2(y), (4.0f64 * 9.0).sqrt());
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn length_mismatch_panics() {
        let mut vm = sim(2);
        let x = vm.vector(4);
        let y = vm.vector(5);
        vm.axpy(1.0, x, y);
    }

    #[test]
    #[should_panic(expected = "aliasing arrays")]
    fn aliasing_rejected() {
        let mut vm = sim(2);
        let x = vm.vector(4);
        vm.axpy(1.0, x, x);
    }

    #[test]
    #[should_panic(expected = "aliasing arrays")]
    fn stencil5_aliasing_rejected() {
        let mut vm = sim(2);
        let x = vm.vector(16);
        vm.stencil5(x, x, 4, 4);
    }

    #[test]
    fn matvec_dense_identity() {
        for mut vm in [sim(4), native()] {
            let a = vm.array(5, 5);
            vm.fill(a, |r, c| if r == c { 1.0 } else { 0.0 });
            let x = vm.vector(5);
            vm.fill(x, |i, _| (i + 1) as f64);
            let y = vm.vector(5);
            vm.matvec_dense(a, x, y);
            assert_eq!(vm.snapshot(y), vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        }
    }

    #[test]
    fn matvec_dense_general() {
        for mut vm in [sim(4), native()] {
            let a = vm.array(2, 3);
            vm.fill(a, |r, c| (r * 3 + c + 1) as f64); // [[1,2,3],[4,5,6]]
            let x = vm.vector(3);
            vm.fill(x, |i, _| (i + 1) as f64); // [1,2,3]
            let y = vm.vector(2);
            vm.matvec_dense(a, x, y);
            assert_eq!(vm.snapshot(y), vec![14.0, 32.0]);
        }
    }

    #[test]
    fn stencil5_constant_interior() {
        // x ≡ 1: interior points give 0; edges lose missing neighbours.
        for mut vm in [sim(4), native()] {
            let (nx, ny) = (5, 5);
            let x = vm.vector(nx * ny);
            vm.fill(x, |_, _| 1.0);
            let y = vm.vector(nx * ny);
            vm.stencil5(x, y, nx, ny);
            // Interior (2,2): 4 - 4 = 0.
            assert_eq!(vm.get(y, 2 * nx + 2, 0), 0.0);
            // Corner (0,0): 4 - 2 = 2.
            assert_eq!(vm.get(y, 0, 0), 2.0);
            // Edge (2,0): 4 - 3 = 1.
            assert_eq!(vm.get(y, 2, 0), 1.0);
        }
    }

    #[test]
    fn stencil5_matches_dense_laplacian() {
        let (nx, ny) = (4, 3);
        let n = nx * ny;
        let mut vm = sim(4);
        // Build the dense 5-point matrix and compare products.
        let a = vm.array(n, n);
        vm.fill(a, |r, c| {
            let (ri, rj) = (r % nx, r / nx);
            let (ci, cj) = (c % nx, c / nx);
            if r == c {
                4.0
            } else if (ri == ci && rj.abs_diff(cj) == 1) || (rj == cj && ri.abs_diff(ci) == 1) {
                -1.0
            } else {
                0.0
            }
        });
        let x = vm.vector(n);
        vm.fill(x, |i, _| ((i * 7) % 5) as f64 - 2.0);
        let y_dense = vm.vector(n);
        vm.matvec_dense(a, x, y_dense);
        let y_sten = vm.vector(n);
        vm.stencil5(x, y_sten, nx, ny);
        assert_eq!(vm.snapshot(y_dense), vm.snapshot(y_sten));
    }

    #[test]
    fn sim_plane_charges_flops_for_linalg() {
        let mut vm = sim(4);
        let x = vm.vector(1000);
        let y = vm.vector(1000);
        vm.fill(x, |_, _| 1.0);
        vm.fill(y, |_, _| 1.0);
        let f0 = vm.machine().unwrap().stats.total().flops;
        let _ = vm.inner(x, y);
        let f1 = vm.machine().unwrap().stats.total().flops;
        assert_eq!(f1 - f0, 2000, "2 flops per element");
    }

    #[test]
    fn stencil_halo_crosses_clusters_as_messages() {
        // 4 tasks on 4 clusters: each task boundary is a cluster boundary.
        let mut cfg = MachineConfig::fem2_default();
        cfg.clusters = 4;
        let mut vm = NaVm::simulated(cfg, 4);
        vm.set_spawn_overhead(false); // isolate halo traffic from spawn messages
        let (nx, ny) = (8, 8);
        let x = vm.vector(nx * ny);
        let y = vm.vector(nx * ny);
        vm.fill(x, |_, _| 1.0);
        let m0 = vm.machine().unwrap().network.messages;
        vm.stencil5(x, y, nx, ny);
        let m1 = vm.machine().unwrap().network.messages;
        assert_eq!(m1 - m0, 6, "3 task boundaries × 2 directions");
    }

    #[test]
    fn stencil_halo_within_cluster_is_message_free() {
        // 4 tasks on 1 cluster: halos are memory passes.
        let mut cfg = MachineConfig::fem2_default();
        cfg.clusters = 1;
        let mut vm = NaVm::simulated(cfg, 4);
        let (nx, ny) = (8, 8);
        let x = vm.vector(nx * ny);
        let y = vm.vector(nx * ny);
        vm.fill(x, |_, _| 1.0);
        let m0 = vm.machine().unwrap().network.messages;
        vm.stencil5(x, y, nx, ny);
        let m1 = vm.machine().unwrap().network.messages;
        assert_eq!(m1 - m0, 0);
    }
}
