//! Sparse matrix storage: a COO builder for tests and tables, and CSR for
//! solves.

use std::ops::Range;

/// Coordinate-format builder: accumulate `(row, col, value)` triplets, then
/// compress to CSR (duplicates summed). Stiffness assembly does not use it
/// ([`crate::assembly`] scatters into the connectivity pattern); tests and
/// table builders do.
#[derive(Clone, Debug, Default)]
pub struct Coo {
    n: usize,
    entries: Vec<(usize, usize, f64)>,
}

impl Coo {
    /// An empty `n × n` builder.
    pub fn new(n: usize) -> Self {
        Coo {
            n,
            entries: Vec::new(),
        }
    }

    /// Accumulate `a[r][c] += v`.
    pub fn add(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.n && c < self.n, "triplet out of range");
        if v != 0.0 {
            self.entries.push((r, c, v));
        }
    }

    /// Compress to CSR, summing duplicates.
    ///
    /// O(nnz) counting build: a row histogram and prefix sum place every
    /// triplet into its row segment in one scatter pass (no clone + global
    /// sort of the triplet list); each row is then column-sorted with a
    /// stable in-place insertion sort (rows are short in FEM stencils) and
    /// duplicates are summed in insertion order as the row compacts.
    pub fn to_csr(&self) -> Csr {
        let n = self.n;
        let nnz = self.entries.len();
        // Pass 1: per-row triplet counts → segment starts.
        let mut start = vec![0usize; n + 1];
        for &(r, _, _) in &self.entries {
            start[r + 1] += 1;
        }
        for i in 0..n {
            start[i + 1] += start[i];
        }
        // Pass 2: scatter triplets into their row segments, preserving
        // insertion order within each row.
        let mut colidx = vec![0usize; nnz];
        let mut vals = vec![0.0f64; nnz];
        let mut cursor = start.clone();
        for &(r, c, v) in &self.entries {
            let k = cursor[r];
            cursor[r] += 1;
            colidx[k] = c;
            vals[k] = v;
        }
        // Pass 3: sort each row by column and sum duplicates, compacting
        // behind a global write cursor (merging only shrinks, so writes
        // never overtake unread segments).
        let mut rowptr = vec![0usize; n + 1];
        let mut w = 0usize;
        for r in 0..n {
            let (lo, hi) = (start[r], start[r + 1]);
            // Stable insertion sort on the (col, val) pairs: keeps
            // duplicate columns in insertion order so their sum
            // accumulates deterministically.
            for i in lo + 1..hi {
                let (c, v) = (colidx[i], vals[i]);
                let mut j = i;
                while j > lo && colidx[j - 1] > c {
                    colidx[j] = colidx[j - 1];
                    vals[j] = vals[j - 1];
                    j -= 1;
                }
                colidx[j] = c;
                vals[j] = v;
            }
            for i in lo..hi {
                if w > rowptr[r] && colidx[w - 1] == colidx[i] {
                    vals[w - 1] += vals[i];
                } else {
                    colidx[w] = colidx[i];
                    vals[w] = vals[i];
                    w += 1;
                }
            }
            rowptr[r + 1] = w;
        }
        colidx.truncate(w);
        vals.truncate(w);
        Csr {
            rowptr,
            colidx,
            vals,
        }
    }
}

/// Compressed sparse row matrix.
#[derive(Clone, PartialEq, Debug)]
pub struct Csr {
    /// Row pointers, length `n + 1`.
    pub rowptr: Vec<usize>,
    /// Column indices, length `nnz`.
    pub colidx: Vec<usize>,
    /// Values, length `nnz`.
    pub vals: Vec<f64>,
}

impl Csr {
    /// Matrix order.
    pub fn order(&self) -> usize {
        self.rowptr.len() - 1
    }

    /// Stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Entry `a[r][c]` (zero if not stored).
    #[cfg(test)]
    pub(crate) fn get(&self, r: usize, c: usize) -> f64 {
        let range = self.rowptr[r]..self.rowptr[r + 1];
        for k in range {
            if self.colidx[k] == c {
                return self.vals[k];
            }
        }
        0.0
    }

    /// The diagonal, as a vector (zeros where unstored). Single pass over
    /// stored entries, early-exiting each row at the sorted column order.
    pub(crate) fn diagonal(&self) -> Vec<f64> {
        let n = self.order();
        let mut d = vec![0.0; n];
        for (r, dr) in d.iter_mut().enumerate() {
            for k in self.rowptr[r]..self.rowptr[r + 1] {
                let c = self.colidx[k];
                if c >= r {
                    if c == r {
                        *dr = self.vals[k];
                    }
                    break;
                }
            }
        }
        d
    }

    /// `y ← A·x`, sequential. Every `y[r]` is summed from 0.0 over row
    /// `r`'s stored entries, left to right.
    pub fn matvec(&self, x: &[f64], y: &mut [f64]) {
        let n = self.order();
        assert_eq!(x.len(), n, "x length");
        assert_eq!(y.len(), n, "y length");
        self.rows_times::<false>(x, 0, y);
    }

    /// `y ← A·x` as [`Csr::matvec`] computes it, returning `x·y` summed
    /// from 0.0 in row order — CG's `p·Kp` without a second walk over
    /// both vectors.
    pub(crate) fn matvec_dot(&self, x: &[f64], y: &mut [f64]) -> f64 {
        let n = self.order();
        assert_eq!(x.len(), n, "x length");
        assert_eq!(y.len(), n, "y length");
        self.rows_times::<true>(x, 0, y)
    }

    /// Rows `rows` of `A·x` into `y`, each row as [`Csr::matvec`] sums
    /// it — how [`crate::solver::parallel_cg`]'s team members split one
    /// product.
    pub(crate) fn matvec_rows(&self, x: &[f64], rows: Range<usize>, y: &mut [f64]) {
        assert_eq!(x.len(), self.order(), "x length");
        assert!(rows.end <= self.order(), "rows past the last");
        assert_eq!(y.len(), rows.len(), "y length");
        self.rows_times::<false>(x, rows.start, y);
    }

    /// Rows `base..base + y.len()` of `A·x` into `y`; with `DOT`, also
    /// `Σ x[r]·y[r]` over those rows in row order from 0.0 (else 0.0).
    ///
    /// Four rows advance together over as many entries as the shortest
    /// has, then each finishes alone: four independent add chains in
    /// flight instead of one, and no chain reordered.
    fn rows_times<const DOT: bool>(&self, x: &[f64], base: usize, y: &mut [f64]) -> f64 {
        let (vals, colidx) = (&self.vals[..], &self.colidx[..]);
        // Stored entries `from..to` of one row, added to `acc` in order.
        let tail = |mut acc: f64, from: usize, to: usize| {
            for (v, c) in vals[from..to].iter().zip(&colidx[from..to]) {
                acc += v * x[*c];
            }
            acc
        };
        let mut dot = 0.0;
        let mut r = base;
        let mut blocks = y.chunks_exact_mut(4);
        for out in &mut blocks {
            let p = &self.rowptr[r..r + 5];
            let m = (p[1] - p[0])
                .min(p[2] - p[1])
                .min(p[3] - p[2])
                .min(p[4] - p[3]);
            let head = |q: usize| vals[p[q]..][..m].iter().zip(&colidx[p[q]..][..m]);
            let (mut a0, mut a1, mut a2, mut a3) = (0.0, 0.0, 0.0, 0.0);
            for ((((v0, c0), (v1, c1)), (v2, c2)), (v3, c3)) in
                head(0).zip(head(1)).zip(head(2)).zip(head(3))
            {
                a0 += v0 * x[*c0];
                a1 += v1 * x[*c1];
                a2 += v2 * x[*c2];
                a3 += v3 * x[*c3];
            }
            for (q, acc) in [a0, a1, a2, a3].into_iter().enumerate() {
                out[q] = tail(acc, p[q] + m, p[q + 1]);
                if DOT {
                    dot += x[r + q] * out[q];
                }
            }
            r += 4;
        }
        for out in blocks.into_remainder() {
            *out = tail(0.0, self.rowptr[r], self.rowptr[r + 1]);
            if DOT {
                dot += x[r] * *out;
            }
            r += 1;
        }
        dot
    }

    /// Structural + numerical symmetry check within `tol`. O(nnz): builds
    /// the transpose with a counting pass, then merge-compares each row of
    /// `A` against the matching row of `Aᵀ`, treating unstored entries as
    /// zero (no per-entry `get` scans).
    #[cfg(test)]
    pub(crate) fn is_symmetric(&self, tol: f64) -> bool {
        let n = self.order();
        let nnz = self.nnz();
        let mut tptr = vec![0usize; n + 1];
        for &c in &self.colidx {
            tptr[c + 1] += 1;
        }
        for i in 0..n {
            tptr[i + 1] += tptr[i];
        }
        let mut tcol = vec![0usize; nnz];
        let mut tval = vec![0.0f64; nnz];
        let mut cursor = tptr.clone();
        for r in 0..n {
            for k in self.rowptr[r]..self.rowptr[r + 1] {
                let c = self.colidx[k];
                let q = cursor[c];
                cursor[c] += 1;
                tcol[q] = r;
                tval[q] = self.vals[k];
            }
        }
        // Rows of the transpose come out column-sorted because the source
        // rows are visited in ascending order, so a two-pointer merge works.
        for r in 0..n {
            let (mut i, ei) = (self.rowptr[r], self.rowptr[r + 1]);
            let (mut j, ej) = (tptr[r], tptr[r + 1]);
            while i < ei || j < ej {
                let ci = if i < ei { self.colidx[i] } else { usize::MAX };
                let cj = if j < ej { tcol[j] } else { usize::MAX };
                match ci.cmp(&cj) {
                    std::cmp::Ordering::Equal => {
                        if (self.vals[i] - tval[j]).abs() > tol {
                            return false;
                        }
                        i += 1;
                        j += 1;
                    }
                    std::cmp::Ordering::Less => {
                        if self.vals[i].abs() > tol {
                            return false;
                        }
                        i += 1;
                    }
                    std::cmp::Ordering::Greater => {
                        if tval[j].abs() > tol {
                            return false;
                        }
                        j += 1;
                    }
                }
            }
        }
        true
    }

    /// Extract the principal submatrix on `keep` (sorted, deduplicated
    /// indices), renumbered densely, keeping only its nonzero entries:
    /// one O(nnz) filter. Rows keep their stored column order, so the rows
    /// of a matrix [`Coo::to_csr`] or [`crate::assembly::assemble`] built
    /// stay sorted.
    pub fn submatrix(&self, keep: &[usize]) -> Csr {
        self.clone().retain(keep, |v| v != 0.0)
    }

    /// `self` restricted in place to the rows and columns `keep` (sorted,
    /// deduplicated), renumbered densely, holding only the entries whose
    /// value `survives`. Writes never overtake reads: entries only drop
    /// out. The dropped entries' memory is given back, not held by the
    /// result.
    pub(crate) fn retain(mut self, keep: &[usize], survives: impl Fn(f64) -> bool) -> Csr {
        debug_assert!(keep.windows(2).all(|w| w[0] < w[1]), "keep not sorted");
        let mut map = vec![usize::MAX; self.order()];
        for (new, &old) in keep.iter().enumerate() {
            map[old] = new;
        }
        let (mut w, mut rows, mut lo) = (0, 0, 0);
        for (r, &kept) in map.iter().enumerate() {
            let hi = self.rowptr[r + 1];
            if kept != usize::MAX {
                for k in lo..hi {
                    let c = map[self.colidx[k]];
                    if c != usize::MAX && survives(self.vals[k]) {
                        self.colidx[w] = c;
                        self.vals[w] = self.vals[k];
                        w += 1;
                    }
                }
                rows += 1;
                self.rowptr[rows] = w;
            }
            lo = hi;
        }
        self.rowptr.truncate(rows + 1);
        self.colidx.truncate(w);
        self.vals.truncate(w);
        self.rowptr.shrink_to_fit();
        self.colidx.shrink_to_fit();
        self.vals.shrink_to_fit();
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::testmat::{assert_bits_eq, reduced_cantilever, splitmix, values};
    use proptest::prelude::*;

    /// Oracle: one row at a time, each summed from 0.0 left to right.
    fn matvec_oracle(a: &Csr, x: &[f64]) -> Vec<f64> {
        (0..a.order())
            .map(|r| {
                let mut acc = 0.0;
                for k in a.rowptr[r]..a.rowptr[r + 1] {
                    acc += a.vals[k] * x[a.colidx[k]];
                }
                acc
            })
            .collect()
    }

    /// Oracle: `x·y` from 0.0 in index order.
    fn dot_oracle(x: &[f64], y: &[f64]) -> f64 {
        let mut dot = 0.0;
        for (a, b) in x.iter().zip(y) {
            dot += a * b;
        }
        dot
    }

    /// `n` rows of 0..=`longest` stored entries each (unsorted columns,
    /// repeats allowed — `matvec` reads them as stored), about one value
    /// in eight an explicit signed zero; and an `x` with signed zeros too.
    fn ragged(n: usize, longest: usize, seed: u64) -> (Csr, Vec<f64>) {
        let mut state = seed;
        let spiked = |mut v: Vec<f64>, state: &mut u64| {
            for e in &mut v {
                match splitmix(state) % 8 {
                    0 => *e = 0.0,
                    1 => *e = -0.0,
                    _ => {}
                }
            }
            v
        };
        let mut rowptr = vec![0];
        let mut colidx = Vec::new();
        for _ in 0..n {
            let len = splitmix(&mut state) as usize % (longest + 1);
            colidx.extend((0..len).map(|_| splitmix(&mut state) as usize % n));
            rowptr.push(colidx.len());
        }
        let vals = spiked(values(seed ^ 1, colidx.len()), &mut state);
        let x = spiked(values(seed ^ 2, n), &mut state);
        (
            Csr {
                rowptr,
                colidx,
                vals,
            },
            x,
        )
    }

    /// `matvec`, `matvec_dot` and `matvec_rows` (two ranges cut at
    /// several rows) against the one-row loop, bit for bit.
    fn assert_matches_oracle(a: &Csr, x: &[f64], what: &str) {
        let n = a.order();
        let want = matvec_oracle(a, x);
        let mut y = vec![f64::NAN; n];
        a.matvec(x, &mut y);
        assert_bits_eq(&y, &want, &format!("{what}: matvec"));
        y.fill(f64::NAN);
        let dot = a.matvec_dot(x, &mut y);
        assert_bits_eq(&y, &want, &format!("{what}: matvec_dot"));
        assert_eq!(
            dot.to_bits(),
            dot_oracle(x, &want).to_bits(),
            "{what}: the dot of matvec_dot"
        );
        for cut in [0, 1, 3, n / 3, n / 2 + 1].map(|c| c.min(n)) {
            y.fill(f64::NAN);
            let (head, tail) = y.split_at_mut(cut);
            a.matvec_rows(x, 0..cut, head);
            a.matvec_rows(x, cut..n, tail);
            assert_bits_eq(&y, &want, &format!("{what}: matvec_rows cut at {cut}"));
        }
    }

    #[test]
    fn matvec_family_matches_one_row_oracle() {
        // Every n mod 4, rows from empty to longer than a block is wide,
        // and row ranges starting off a multiple of four.
        for n in [1usize, 2, 3, 4, 5, 6, 7, 8, 37, 130, 4003] {
            for longest in [0usize, 1, 3, 9, 24] {
                let (a, x) = ragged(n, longest, (n * 100 + longest) as u64);
                assert_matches_oracle(&a, &x, &format!("n {n} longest {longest}"));
            }
        }
        let (kr, fr) = reduced_cantilever(12, 7);
        assert_matches_oracle(&kr, &fr, "cantilever 12x7");
    }

    #[test]
    fn row_sums_start_from_positive_zero() {
        // Four rows whose every product is -0.0, and an empty one: a sum
        // started from 0.0 is +0.0, one started from its first term is not.
        let a = Csr {
            rowptr: vec![0, 2, 3, 3, 5, 6],
            colidx: vec![0, 1, 2, 3, 4, 0],
            vals: vec![-1.0, -2.0, 3.0, -0.0, -0.0, -5.0],
        };
        let x = [0.0, 0.0, -0.0, 1.0, 2.0];
        let mut y = vec![f64::NAN; 5];
        let dot = a.matvec_dot(&x, &mut y);
        assert_bits_eq(&y, &[0.0; 5], "rows of negative zeros");
        assert_eq!(dot.to_bits(), 0.0f64.to_bits());
        assert_matches_oracle(&a, &x, "negative zeros");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn matvec_family_matches_one_row_oracle_prop(
            n in 1usize..=300,
            longest in 0usize..=30,
            seed in any::<u64>(),
        ) {
            let (a, x) = ragged(n, longest, seed);
            assert_matches_oracle(&a, &x, &format!("n {n} longest {longest} seed {seed}"));
        }
    }

    fn sample() -> Csr {
        // [2 1 0]
        // [1 3 1]
        // [0 1 4]
        let mut coo = Coo::new(3);
        coo.add(0, 0, 2.0);
        coo.add(0, 1, 1.0);
        coo.add(1, 0, 1.0);
        coo.add(1, 1, 3.0);
        coo.add(1, 2, 1.0);
        coo.add(2, 1, 1.0);
        coo.add(2, 2, 4.0);
        coo.to_csr()
    }

    #[test]
    fn coo_to_csr_basic() {
        let a = sample();
        assert_eq!(a.order(), 3);
        assert_eq!(a.nnz(), 7);
        assert_eq!(a.get(0, 0), 2.0);
        assert_eq!(a.get(2, 0), 0.0);
        assert_eq!(a.rowptr, vec![0, 2, 5, 7]);
    }

    #[test]
    fn duplicates_are_summed() {
        let mut coo = Coo::new(2);
        coo.add(0, 0, 1.0);
        coo.add(0, 0, 2.5);
        coo.add(1, 1, 1.0);
        let a = coo.to_csr();
        assert_eq!(a.get(0, 0), 3.5);
        assert_eq!(a.nnz(), 2);
    }

    #[test]
    fn zero_entries_skipped() {
        let mut coo = Coo::new(2);
        coo.add(0, 0, 0.0);
        coo.add(1, 0, 1.0);
        assert_eq!(coo.entries.len(), 1);
    }

    #[test]
    fn empty_rows_handled() {
        let mut coo = Coo::new(4);
        coo.add(0, 0, 1.0);
        coo.add(3, 3, 2.0);
        let a = coo.to_csr();
        assert_eq!(a.rowptr, vec![0, 1, 1, 1, 2]);
        let mut y = vec![0.0; 4];
        a.matvec(&[1.0; 4], &mut y);
        assert_eq!(y, vec![1.0, 0.0, 0.0, 2.0]);
    }

    #[test]
    fn matvec_known() {
        let a = sample();
        let mut y = vec![0.0; 3];
        a.matvec(&[1.0, 2.0, 3.0], &mut y);
        assert_eq!(y, vec![4.0, 10.0, 14.0]);
    }

    #[test]
    fn symmetry_check() {
        let a = sample();
        assert!(a.is_symmetric(1e-14));
        let mut coo = Coo::new(2);
        coo.add(0, 1, 1.0);
        let b = coo.to_csr();
        assert!(!b.is_symmetric(1e-14));
    }

    #[test]
    fn diagonal_extraction() {
        let a = sample();
        assert_eq!(a.diagonal(), vec![2.0, 3.0, 4.0]);
    }

    #[test]
    fn submatrix_renumbers() {
        let a = sample();
        let s = a.submatrix(&[0, 2]);
        assert_eq!(s.order(), 2);
        assert_eq!(s.get(0, 0), 2.0);
        assert_eq!(s.get(1, 1), 4.0);
        assert_eq!(s.get(0, 1), 0.0, "coupling through dropped row vanishes");
        assert_eq!(s.nnz(), 2);
    }
}
