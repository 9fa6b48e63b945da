//! Skyline (envelope) storage and Cholesky factorization.
//!
//! The direct solver of choice on early FEM systems: only the column
//! envelope (from the first nonzero row down to the diagonal) is stored,
//! and the Cholesky factorization `A = UᵀU` (upper factor `U`, stored over
//! `A`) fills only within it. Storage is governed by the mesh bandwidth,
//! which is why 1983-vintage codes cared so much about node numbering.
//!
//! **Summation order is the contract.** Every stored entry is
//! `u[i][j] = (a[i][j] − Σₖ u[k][i]·u[k][j]) / u[i][i]`, the sum taken over
//! the rows `k < i` both columns store, starting from `a[i][j]` and
//! subtracting one product at a time in ascending `k`; the diagonal is
//! `√(a[j][j] − Σₖ u[k][j]²)` in the same order. `Skyline::factorize`
//! advances four such rows of a column side by side — four independent
//! chains — and never reorders a chain, so how many rows share a pass is
//! invisible in the result.

use crate::sparse::Csr;

/// A symmetric matrix in skyline (column envelope) storage.
#[derive(Clone, Debug)]
pub struct Skyline {
    n: usize,
    /// `colptr[j]` is the offset of column j's envelope in `vals`;
    /// `colptr[n]` is the total envelope size.
    colptr: Vec<usize>,
    /// First stored row of each column.
    first_row: Vec<usize>,
    /// Envelope values, column-major top-to-diagonal.
    vals: Vec<f64>,
}

impl Skyline {
    /// Build skyline storage from the upper triangle of a symmetric CSR
    /// matrix.
    pub fn from_csr(a: &Csr) -> Self {
        let n = a.order();
        // Envelope: first nonzero row per column (considering symmetry).
        let mut first_row: Vec<usize> = (0..n).collect();
        for r in 0..n {
            for k in a.rowptr[r]..a.rowptr[r + 1] {
                let c = a.colidx[k];
                if c >= r {
                    first_row[c] = first_row[c].min(r);
                } else {
                    first_row[r] = first_row[r].min(c);
                }
            }
        }
        let mut colptr = Vec::with_capacity(n + 1);
        colptr.push(0);
        for j in 0..n {
            let height = j - first_row[j] + 1;
            colptr.push(colptr[j] + height);
        }
        let mut vals = vec![0.0; colptr[n]];
        for r in 0..n {
            for k in a.rowptr[r]..a.rowptr[r + 1] {
                let c = a.colidx[k];
                if c >= r {
                    // Entry (r, c) sits in column c at depth r - first_row[c].
                    let off = colptr[c] + (r - first_row[c]);
                    vals[off] = a.vals[k];
                }
            }
        }
        Skyline {
            n,
            colptr,
            first_row,
            vals,
        }
    }

    /// Envelope size (stored entries).
    pub fn envelope(&self) -> usize {
        self.vals.len()
    }

    /// In-place Cholesky within the envelope: produces `U` with `A = UᵀU`
    /// (upper factor stored in the same skyline). Returns `Err` if a pivot
    /// is non-positive.
    pub(crate) fn factorize(&mut self) -> Result<(), String> {
        let Skyline {
            n,
            colptr,
            first_row,
            vals,
        } = self;
        for j in 0..*n {
            let fj = first_row[j];
            // Columns before `j` are finished and only read; column `j` is
            // written. `cj[k - fj]` is entry `(k, j)`.
            let (done, rest) = vals.split_at_mut(colptr[j]);
            let cj = &mut rest[..=j - fj];
            let mut i = fj;
            while i < j {
                // Rows i..i+4 share the range [h, i) of their own columns
                // and column j. Each row's own earlier terms come before
                // it and its terms against the rows just finished come
                // after, so every chain still runs in ascending k.
                let h = if i + 4 <= j {
                    first_row[i..i + 4].iter().fold(fj, |h, &f| h.max(f))
                } else {
                    usize::MAX
                };
                if h > i {
                    // Fewer than four rows left, or an envelope that starts
                    // inside the block: one row, lo..i.
                    let (ci, fi) = (&done[colptr[i]..colptr[i + 1]], first_row[i]);
                    let lo = fi.max(fj);
                    let s = minus_dot(cj[i - fj], &ci[lo - fi..i - fi], &cj[lo - fj..i - fj]);
                    cj[i - fj] = divide_by_pivot(s, ci[i - fi], i)?;
                    i += 1;
                    continue;
                }
                let f: [usize; 4] = std::array::from_fn(|q| first_row[i + q]);
                let c: [&[f64]; 4] =
                    std::array::from_fn(|q| &done[colptr[i + q]..colptr[i + q + 1]]);
                let mut s: [f64; 4] = std::array::from_fn(|q| cj[i + q - fj]);
                for q in 0..4 {
                    let lo = f[q].max(fj);
                    s[q] = minus_dot(s[q], &c[q][lo - f[q]..h - f[q]], &cj[lo - fj..h - fj]);
                }
                let [mut s0, mut s1, mut s2, mut s3] = s;
                let shared = |q: usize| &c[q][h - f[q]..i - f[q]];
                for ((((b, a0), a1), a2), a3) in cj[h - fj..i - fj]
                    .iter()
                    .zip(shared(0))
                    .zip(shared(1))
                    .zip(shared(2))
                    .zip(shared(3))
                {
                    s0 -= a0 * b;
                    s1 -= a1 * b;
                    s2 -= a2 * b;
                    s3 -= a3 * b;
                }
                for (q, s) in [s0, s1, s2, s3].into_iter().enumerate() {
                    let r = i + q;
                    let s = minus_dot(s, &c[q][i - f[q]..r - f[q]], &cj[i - fj..r - fj]);
                    cj[r - fj] = divide_by_pivot(s, c[q][r - f[q]], r)?;
                }
                i += 4;
            }
            let (above, diag) = cj.split_at_mut(j - fj);
            let d = minus_dot(diag[0], above, above);
            if d <= 0.0 {
                return Err(format!("non-positive pivot {d} at {j}"));
            }
            diag[0] = d.sqrt();
        }
        Ok(())
    }

    /// Column `j` of the envelope split at its diagonal: the entries
    /// `(first_row[j].., j)` above it, and `[(j, j)]`.
    fn column(&self, j: usize) -> (&[f64], &[f64]) {
        self.vals[self.colptr[j]..self.colptr[j + 1]].split_at(j - self.first_row[j])
    }

    /// Solve `A·x = b` given a factorized skyline (`UᵀU x = b`).
    pub(crate) fn solve(&self, b: &[f64]) -> Vec<f64> {
        let n = self.n;
        assert_eq!(b.len(), n, "b length");
        // Forward: Uᵀ y = b.
        let mut y = b.to_vec();
        for j in 0..n {
            let (above, diag) = self.column(j);
            let (head, tail) = y.split_at_mut(j);
            tail[0] = minus_dot(tail[0], above, &head[self.first_row[j]..]) / diag[0];
        }
        // Backward: U x = y.
        let mut x = y;
        for j in (0..n).rev() {
            let (above, diag) = self.column(j);
            x[j] /= diag[0];
            let xj = x[j];
            for (xk, u) in x[self.first_row[j]..j].iter_mut().zip(above) {
                *xk -= u * xj;
            }
        }
        x
    }
}

/// `s − Σ a[k]·b[k]`, one product subtracted at a time in index order.
fn minus_dot(mut s: f64, a: &[f64], b: &[f64]) -> f64 {
    for (a, b) in a.iter().zip(b) {
        s -= a * b;
    }
    s
}

/// `s / pivot`, refusing the zero pivot of row `i`.
fn divide_by_pivot(s: f64, pivot: f64, i: usize) -> Result<f64, String> {
    if pivot == 0.0 {
        return Err(format!("zero pivot at {i}"));
    }
    Ok(s / pivot)
}

/// Factor-and-solve convenience: `A·x = b` by skyline Cholesky.
pub fn solve(a: &Csr, b: &[f64]) -> Result<Vec<f64>, String> {
    let mut sky = Skyline::from_csr(a);
    sky.factorize()?;
    Ok(sky.solve(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::testmat::{assert_bits_eq, reduced_cantilever, splitmix, values};
    use crate::sparse::Coo;
    use proptest::prelude::*;

    /// Oracle: entry `(r, c)` with `r ≤ c`, zero outside the envelope.
    fn get(s: &Skyline, r: usize, c: usize) -> f64 {
        assert!(r <= c);
        if r < s.first_row[c] {
            0.0
        } else {
            s.vals[s.colptr[c] + (r - s.first_row[c])]
        }
    }

    fn set(s: &mut Skyline, r: usize, c: usize, v: f64) {
        assert!(r <= c && r >= s.first_row[c]);
        s.vals[s.colptr[c] + (r - s.first_row[c])] = v;
    }

    /// Oracle: the factorization one entry, one row at a time — the
    /// summation contract of the module doc written out.
    fn factorize_oracle(s: &mut Skyline) -> Result<(), String> {
        for j in 0..s.n {
            for i in s.first_row[j]..j {
                let mut sum = get(s, i, j);
                let lo = s.first_row[i].max(s.first_row[j]);
                for k in lo..i {
                    sum -= get(s, k, i) * get(s, k, j);
                }
                let uii = get(s, i, i);
                if uii == 0.0 {
                    return Err(format!("zero pivot at {i}"));
                }
                set(s, i, j, sum / uii);
            }
            let mut d = get(s, j, j);
            for k in s.first_row[j]..j {
                let u = get(s, k, j);
                d -= u * u;
            }
            if d <= 0.0 {
                return Err(format!("non-positive pivot {d} at {j}"));
            }
            set(s, j, j, d.sqrt());
        }
        Ok(())
    }

    /// Oracle: both triangular solves, entry at a time.
    fn solve_oracle(s: &Skyline, b: &[f64]) -> Vec<f64> {
        let n = s.n;
        let mut y = b.to_vec();
        for j in 0..n {
            for k in s.first_row[j]..j {
                y[j] -= get(s, k, j) * y[k];
            }
            y[j] /= get(s, j, j);
        }
        let mut x = y;
        for j in (0..n).rev() {
            x[j] /= get(s, j, j);
            let xj = x[j];
            let first = s.first_row[j];
            for (k, xk) in x[first..j].iter_mut().enumerate() {
                *xk -= get(s, first + k, j) * xj;
            }
        }
        x
    }

    /// A skyline with the given envelope, seeded off-diagonals and a
    /// diagonal `dominance` times what strict diagonal dominance needs
    /// (≥ 1 makes it SPD; a negative value makes it indefinite).
    fn skyline_with_profile(first_row: Vec<usize>, seed: u64, dominance: f64) -> Skyline {
        let n = first_row.len();
        let mut colptr = vec![0];
        for j in 0..n {
            assert!(first_row[j] <= j);
            colptr.push(colptr[j] + j - first_row[j] + 1);
        }
        let mut s = Skyline {
            n,
            vals: values(seed, colptr[n]),
            colptr,
            first_row,
        };
        let mut absrow = vec![0.0f64; n];
        for j in 0..n {
            for i in s.first_row[j]..j {
                let v = get(&s, i, j).abs();
                absrow[i] += v;
                absrow[j] += v;
            }
        }
        for (j, off) in absrow.iter().enumerate() {
            set(&mut s, j, j, dominance * (off + 1.0));
        }
        s
    }

    /// Ragged envelope: each column reaches up to `reach` rows back, and
    /// about one column in `lonely` stores its diagonal alone.
    fn ragged_profile(n: usize, reach: usize, lonely: u64, seed: u64) -> Vec<usize> {
        let mut state = seed;
        (0..n)
            .map(|j| {
                let z = splitmix(&mut state);
                if lonely > 0 && z.is_multiple_of(lonely) {
                    j
                } else {
                    j - ((z >> 8) as usize % (reach + 1)).min(j)
                }
            })
            .collect()
    }

    /// Factorize and solve `s` both ways; every stored entry, every
    /// solution component and any error must be the same.
    fn assert_matches_oracle(s: &Skyline, what: &str) {
        let (mut fast, mut slow) = (s.clone(), s.clone());
        let (got, want) = (fast.factorize(), factorize_oracle(&mut slow));
        assert_eq!(got, want, "{what}: factorize outcome");
        if want.is_err() {
            return;
        }
        assert_bits_eq(&fast.vals, &slow.vals, &format!("{what}: factor"));
        let b = values(s.n as u64 ^ 0x5bd1_e995, s.n);
        assert_bits_eq(
            &fast.solve(&b),
            &solve_oracle(&slow, &b),
            &format!("{what}: solution"),
        );
    }

    #[test]
    fn factorize_and_solve_match_entry_oracle_on_ragged_envelopes() {
        for n in [1usize, 2, 3, 4, 5, 7, 8, 9, 130] {
            // Dense, tridiagonal, diagonal, and three ragged profiles —
            // the last two with lonely columns, which put an envelope
            // start above the row block (h > i) and force the one-row path.
            assert_matches_oracle(&skyline_with_profile(vec![0; n], 1, 1.0), "dense");
            let tri = (0..n).map(|j| j.saturating_sub(1)).collect();
            assert_matches_oracle(&skyline_with_profile(tri, 2, 1.0), "tridiagonal");
            assert_matches_oracle(&skyline_with_profile((0..n).collect(), 3, 1.0), "diagonal");
            for (k, (reach, lonely)) in [(n, 0), (9, 5), (40, 3)].into_iter().enumerate() {
                let profile = ragged_profile(n, reach, lonely, 1983 + k as u64);
                let s = skyline_with_profile(profile, n as u64 + k as u64, 1.0);
                assert_matches_oracle(&s, &format!("n {n} reach {reach} lonely {lonely}"));
            }
        }
    }

    #[test]
    fn factorize_and_solve_match_entry_oracle_on_a_cantilever() {
        let (kr, fr) = reduced_cantilever(12, 7);
        let s = Skyline::from_csr(&kr);
        assert_matches_oracle(&s, "cantilever 12x7");
        let (mut fast, mut slow) = (s.clone(), s);
        fast.factorize().unwrap();
        factorize_oracle(&mut slow).unwrap();
        assert_bits_eq(&fast.solve(&fr), &solve_oracle(&slow, &fr), "tip load");
    }

    #[test]
    fn pivot_errors_name_the_same_index_as_the_oracle() {
        // Indefinite from some column on: the first bad pivot, and its
        // value, must be reported exactly as before.
        for n in [1usize, 4, 9, 33] {
            for bad in [0, n / 2, n - 1] {
                let mut s = skyline_with_profile(ragged_profile(n, 6, 4, 77), 5, 1.0);
                let d = get(&s, bad, bad);
                set(&mut s, bad, bad, -d);
                let (got, want) = (s.clone().factorize(), factorize_oracle(&mut s));
                assert!(want
                    .as_ref()
                    .is_err_and(|e| e.ends_with(&format!(" at {bad}"))));
                assert_eq!(got, want, "n {n} bad {bad}");
            }
        }
        // A stored diagonal is the square root of a positive number, so
        // the zero-pivot refusal can only be reached directly.
        assert_eq!(divide_by_pivot(1.0, 0.0, 7), Err("zero pivot at 7".into()));
        assert_eq!(divide_by_pivot(3.0, 2.0, 7), Ok(1.5));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn factorize_and_solve_match_entry_oracle(
            n in 1usize..=60,
            reach in 0usize..=20,
            lonely in 0u64..=6,
            seed in any::<u64>(),
            dominance in prop_oneof![Just(1.0), Just(1.0), Just(0.4), Just(-1.0)],
        ) {
            let s = skyline_with_profile(ragged_profile(n, reach, lonely, seed), seed ^ 1, dominance);
            assert_matches_oracle(&s, &format!("n {n} reach {reach} lonely {lonely} seed {seed}"));
        }
    }

    fn laplacian_1d(n: usize) -> Csr {
        let mut coo = Coo::new(n);
        for i in 0..n {
            coo.add(i, i, 2.0);
            if i > 0 {
                coo.add(i, i - 1, -1.0);
            }
            if i + 1 < n {
                coo.add(i, i + 1, -1.0);
            }
        }
        coo.to_csr()
    }

    #[test]
    fn envelope_of_tridiagonal_is_2n_minus_1() {
        let a = laplacian_1d(10);
        let s = Skyline::from_csr(&a);
        assert_eq!(s.n, 10);
        assert_eq!(s.envelope(), 19);
    }

    #[test]
    fn solves_tridiagonal_exactly() {
        let n = 50;
        let a = laplacian_1d(n);
        let x_true: Vec<f64> = (0..n).map(|i| ((i * 7) % 11) as f64 - 5.0).collect();
        let mut b = vec![0.0; n];
        a.matvec(&x_true, &mut b);
        let x = solve(&a, &b).unwrap();
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-9, "{xi} vs {ti}");
        }
    }

    #[test]
    fn matches_dense_cholesky() {
        use crate::dense::DenseMatrix;
        // A small SPD matrix with irregular envelope.
        let mut coo = Coo::new(4);
        let dense_vals = [
            10.0, 2.0, 0.0, 1.0, 2.0, 12.0, 3.0, 0.0, 0.0, 3.0, 14.0, 4.0, 1.0, 0.0, 4.0, 16.0,
        ];
        for r in 0..4 {
            for c in 0..4 {
                let v = dense_vals[r * 4 + c];
                if v != 0.0 {
                    coo.add(r, c, v);
                }
            }
        }
        let a = coo.to_csr();
        let dense = DenseMatrix::from_rows(4, 4, &dense_vals);
        let b = vec![1.0, -2.0, 3.0, -4.0];
        let x_sky = solve(&a, &b).unwrap();
        let x_dense = dense.solve_spd(&b).unwrap();
        for (s, d) in x_sky.iter().zip(&x_dense) {
            assert!((s - d).abs() < 1e-10);
        }
    }

    #[test]
    fn indefinite_matrix_rejected() {
        let mut coo = Coo::new(2);
        coo.add(0, 0, 1.0);
        coo.add(0, 1, 2.0);
        coo.add(1, 0, 2.0);
        coo.add(1, 1, 1.0);
        let a = coo.to_csr();
        assert!(solve(&a, &[1.0, 1.0]).is_err());
    }

    #[test]
    fn residual_small_on_grid_matrix() {
        // 2-D Laplacian on a 6x6 grid via Kronecker-style construction.
        let nx = 6;
        let n = nx * nx;
        let mut coo = Coo::new(n);
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
        let a = coo.to_csr();
        let b: Vec<f64> = (0..n).map(|i| (i % 3) as f64).collect();
        let x = solve(&a, &b).unwrap();
        let mut ax = vec![0.0; n];
        a.matvec(&x, &mut ax);
        let res: f64 = ax
            .iter()
            .zip(&b)
            .map(|(p, q)| (p - q) * (p - q))
            .sum::<f64>()
            .sqrt();
        assert!(res < 1e-9, "residual {res}");
    }
}
