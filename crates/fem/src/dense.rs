//! Small dense matrices: element stiffness blocks, condensation, and the
//! reference Cholesky factorization.

use std::fmt;

/// A row-major dense matrix of `f64`.
#[derive(Clone, PartialEq, Debug)]
pub(crate) struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// An all-zero `rows × cols` matrix.
    pub(crate) fn zeros(rows: usize, cols: usize) -> Self {
        DenseMatrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Build from a row-major slice.
    pub(crate) fn from_rows(rows: usize, cols: usize, vals: &[f64]) -> Self {
        assert_eq!(vals.len(), rows * cols, "value count mismatch");
        DenseMatrix {
            rows,
            cols,
            data: vals.to_vec(),
        }
    }

    /// Raw row-major data.
    pub(crate) fn data(&self) -> &[f64] {
        &self.data
    }

    /// Matrix–vector product `A·x`.
    pub(crate) fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "x length mismatch");
        let mut y = vec![0.0; self.rows];
        for (r, yr) in y.iter_mut().enumerate() {
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            let mut acc = 0.0;
            for (c, &v) in row.iter().enumerate() {
                acc += v * x[c];
            }
            *yr = acc;
        }
        y
    }

    /// Matrix–matrix product `A·B`.
    pub(crate) fn matmul(&self, b: &DenseMatrix) -> DenseMatrix {
        assert_eq!(self.cols, b.rows, "inner dimension mismatch");
        let mut out = DenseMatrix::zeros(self.rows, b.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self[(i, k)];
                if aik == 0.0 {
                    continue;
                }
                for j in 0..b.cols {
                    out[(i, j)] += aik * b[(k, j)];
                }
            }
        }
        out
    }

    /// Transpose.
    pub(crate) fn transpose(&self) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)];
            }
        }
        out
    }

    /// Maximum absolute asymmetry `max |A - Aᵀ|` (diagnostics).
    #[cfg(test)]
    pub(crate) fn asymmetry(&self) -> f64 {
        assert_eq!(self.rows, self.cols);
        let mut worst = 0.0f64;
        for i in 0..self.rows {
            for j in 0..i {
                worst = worst.max((self[(i, j)] - self[(j, i)]).abs());
            }
        }
        worst
    }

    /// Cholesky factorization `A = L·Lᵀ` of a symmetric positive-definite
    /// matrix. Returns the lower factor, or `None` if a pivot is not
    /// positive (A not SPD to working precision).
    pub(crate) fn cholesky(&self) -> Option<DenseMatrix> {
        assert_eq!(self.rows, self.cols, "cholesky needs a square matrix");
        let n = self.rows;
        let mut l = DenseMatrix::zeros(n, n);
        for j in 0..n {
            let mut d = self[(j, j)];
            for k in 0..j {
                d -= l[(j, k)] * l[(j, k)];
            }
            if d <= 0.0 {
                return None;
            }
            let dj = d.sqrt();
            l[(j, j)] = dj;
            for i in j + 1..n {
                let mut s = self[(i, j)];
                for k in 0..j {
                    s -= l[(i, k)] * l[(j, k)];
                }
                l[(i, j)] = s / dj;
            }
        }
        Some(l)
    }

    /// Solve `A·x = b` via Cholesky. `None` if A is not SPD.
    pub(crate) fn solve_spd(&self, b: &[f64]) -> Option<Vec<f64>> {
        let l = self.cholesky()?;
        Some(l.cholesky_solve(b))
    }

    /// Given `self = L` (lower triangular), solve `L Lᵀ x = b`.
    pub(crate) fn cholesky_solve(&self, b: &[f64]) -> Vec<f64> {
        let n = self.rows;
        assert_eq!(b.len(), n, "b length mismatch");
        // Forward: L y = b.
        let mut y = vec![0.0; n];
        for i in 0..n {
            let mut s = b[i];
            for k in 0..i {
                s -= self[(i, k)] * y[k];
            }
            y[i] = s / self[(i, i)];
        }
        // Backward: Lᵀ x = y.
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut s = y[i];
            for k in i + 1..n {
                s -= self[(k, i)] * x[k];
            }
            x[i] = s / self[(i, i)];
        }
        x
    }

    /// Invert an SPD matrix (used by static condensation on small interior
    /// blocks). `None` if not SPD.
    pub(crate) fn inverse_spd(&self) -> Option<DenseMatrix> {
        let l = self.cholesky()?;
        let n = self.rows;
        let mut inv = DenseMatrix::zeros(n, n);
        let mut e = vec![0.0; n];
        for j in 0..n {
            e[j] = 1.0;
            let col = l.cholesky_solve(&e);
            e[j] = 0.0;
            for i in 0..n {
                inv[(i, j)] = col[i];
            }
        }
        Some(inv)
    }
}

impl std::ops::Index<(usize, usize)> for DenseMatrix {
    type Output = f64;
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols, "index out of bounds");
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for DenseMatrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols, "index out of bounds");
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Display for DenseMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in 0..self.rows {
            for c in 0..self.cols {
                write!(f, "{:>12.4e} ", self[(r, c)])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> DenseMatrix {
        // A = M Mᵀ + I for a fixed M: certainly SPD.
        DenseMatrix::from_rows(3, 3, &[4.0, 1.0, 2.0, 1.0, 5.0, 0.5, 2.0, 0.5, 6.0])
    }

    #[test]
    fn identity_matvec() {
        let mut i = DenseMatrix::zeros(4, 4);
        for d in 0..4 {
            i[(d, d)] = 1.0;
        }
        let x = vec![1.0, -2.0, 3.5, 0.0];
        assert_eq!(i.matvec(&x), x);
    }

    #[test]
    fn matmul_known() {
        let a = DenseMatrix::from_rows(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = DenseMatrix::from_rows(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = DenseMatrix::from_rows(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose()[(2, 1)], 6.0);
    }

    #[test]
    fn cholesky_reconstructs() {
        let a = spd3();
        let l = a.cholesky().unwrap();
        let llt = l.matmul(&l.transpose());
        for i in 0..3 {
            for j in 0..3 {
                assert!((llt[(i, j)] - a[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn solve_spd_accurate() {
        let a = spd3();
        let x_true = vec![1.0, -2.0, 0.5];
        let b = a.matvec(&x_true);
        let x = a.solve_spd(&b).unwrap();
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-12);
        }
    }

    #[test]
    fn non_spd_detected() {
        let m = DenseMatrix::from_rows(2, 2, &[1.0, 2.0, 2.0, 1.0]); // indefinite
        assert!(m.cholesky().is_none());
        assert!(m.solve_spd(&[1.0, 1.0]).is_none());
    }

    #[test]
    fn inverse_spd_gives_identity() {
        let a = spd3();
        let inv = a.inverse_spd().unwrap();
        let prod = a.matmul(&inv);
        for i in 0..3 {
            for j in 0..3 {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((prod[(i, j)] - expect).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn asymmetry_measures() {
        let mut a = spd3();
        assert_eq!(a.asymmetry(), 0.0);
        a[(0, 1)] += 0.5;
        assert!((a.asymmetry() - 0.5).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "value count mismatch")]
    fn from_rows_checks_len() {
        DenseMatrix::from_rows(2, 2, &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn display_formats() {
        let a = DenseMatrix::from_rows(2, 2, &[1.0, 0.0, 0.0, 1.0]);
        let s = a.to_string();
        assert!(s.lines().count() == 2);
    }
}
