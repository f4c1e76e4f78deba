//! A minimal row-major `f32` matrix with the GEMM variants backpropagation
//! needs.
//!
//! This is deliberately not a general tensor library: DLRM training needs
//! exactly `C = A·B`, `C = A·Bᵀ`, `C = Aᵀ·B`, elementwise maps, and row
//! reductions. Keeping the surface small keeps every kernel obviously
//! correct and testable against finite differences.

use recsim_data::dist::SplitMix64;

/// Rows of the shared dimension consumed per pass by the unrolled GEMM
/// microkernels. Four rank-1 updates share one load/store of the output
/// row, and the combined inner loop is branch-free so the autovectorizer
/// turns it into packed FMAs.
const K_UNROLL: usize = 4;

/// Independent accumulators in the vectorized dot product. Eight running
/// sums break the loop-carried dependence of a sequential reduction, which
/// is what lets the compiler keep a full SIMD register of partial sums.
const DOT_LANES: usize = 8;

/// Vectorized dot product: [`DOT_LANES`] independent accumulators folded in
/// a fixed pairwise tree, with the sub-lane remainder summed sequentially
/// and added last. The summation order is a pure function of the slice
/// length — never of thread count — so results are deterministic at any
/// pool width (the order differs from a strict sequential sum, which is the
/// documented tolerance in the kernel-equivalence property tests).
///
/// # Panics
///
/// Panics if the slices have different lengths.
// detsan: reduction-order — fixed 8-lane pairwise fold + sequential tail
pub(crate) fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    let mut lanes = [0.0f32; DOT_LANES];
    let mut ac = a.chunks_exact(DOT_LANES);
    let mut bc = b.chunks_exact(DOT_LANES);
    for (av, bv) in (&mut ac).zip(&mut bc) {
        for l in 0..DOT_LANES {
            lanes[l] += av[l] * bv[l];
        }
    }
    let mut tail = 0.0f32;
    for (&x, &y) in ac.remainder().iter().zip(bc.remainder()) {
        tail += x * y;
    }
    let s01 = lanes[0] + lanes[1];
    let s23 = lanes[2] + lanes[3];
    let s45 = lanes[4] + lanes[5];
    let s67 = lanes[6] + lanes[7];
    ((s01 + s23) + (s45 + s67)) + tail
}

/// A dense row-major matrix of `f32`.
///
/// # Example
///
/// ```
/// use recsim_model::Matrix;
///
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
/// let c = a.matmul(&b);
/// assert_eq!(c.get(0, 0), 19.0);
/// assert_eq!(c.get(1, 1), 50.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

/// Model buffers in checkpoint order, as [`crate::DlrmModel::load_buffers`]
/// takes them: `None` for an optimizer state that was never allocated.
pub(crate) type Buffers = std::vec::IntoIter<Option<Vec<f32>>>;

/// Overwrites `dst` from the next buffer, which must hold exactly
/// `dst.len()` values.
pub(crate) fn load_values(dst: &mut [f32], buffers: &mut Buffers) -> Result<(), String> {
    match buffers.next() {
        Some(Some(values)) if values.len() == dst.len() => {
            dst.copy_from_slice(&values);
            Ok(())
        }
        _ => Err(format!("expected a parameter of {} values", dst.len())),
    }
}

/// The next buffer as the optimizer state of a parameter of `len` values.
pub(crate) fn load_state(len: usize, buffers: &mut Buffers) -> Result<Option<Vec<f32>>, String> {
    match buffers.next() {
        Some(None) => Ok(None),
        Some(Some(values)) if values.len() == len => Ok(Some(values)),
        _ => Err(format!("expected an optimizer state of {len} values")),
    }
}

impl Matrix {
    /// Creates a zero matrix.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols` or a dimension is zero.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        assert_eq!(data.len(), rows * cols, "buffer length mismatch");
        Self { rows, cols, data }
    }

    /// Creates a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if rows are empty or ragged.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        assert!(!rows.is_empty(), "need at least one row");
        let cols = rows[0].len();
        assert!(cols > 0, "rows must be non-empty");
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows");
            data.extend_from_slice(r);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Xavier/Glorot-uniform initialization for a layer with the given
    /// fan-in/fan-out, seeded deterministically.
    pub fn xavier(rows: usize, cols: usize, seed: u64) -> Self {
        let mut rng = SplitMix64::keyed(seed, "model/xavier");
        let limit = (6.0 / (rows + cols) as f64).sqrt();
        let data = (0..rows * cols)
            .map(|_| rng.uniform(-limit, limit) as f32)
            .collect();
        Self::from_vec(rows, cols, data)
    }

    /// The next buffer as an optimizer state shaped like `self`.
    pub(crate) fn load_state(&self, buffers: &mut Buffers) -> Result<Option<Matrix>, String> {
        Ok(load_state(self.data.len(), buffers)?.map(|data| Self { data, ..*self }))
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds access.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c]
    }

    /// Sets the element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds access.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c] = v;
    }

    /// Row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Row `r` as a mutable slice.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The flat row-major buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// The flat row-major buffer, mutably.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// `self · other`.
    ///
    /// i-k-j loop order with the `k` dimension unrolled by `K_UNROLL`:
    /// four rows of `B` are combined into the output row per pass through a
    /// branch-free inner loop (no data-dependent zero-skip), which the
    /// autovectorizer turns into packed multiply-adds. Per output element
    /// the `k` terms accumulate in groups of four left-to-right — an order
    /// fixed by the shapes alone, so results are identical at any thread
    /// count (see [`Matrix::matmul_naive`] for the sequential reference).
    ///
    /// # Panics
    ///
    /// Panics if inner dimensions disagree.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "matmul dimension mismatch");
        let mut out = Matrix::zeros(self.rows, other.cols);
        let n = other.cols;
        for i in 0..self.rows {
            let a_row = self.row(i);
            let out_row = &mut out.data[i * n..(i + 1) * n];
            let mut k = 0;
            // detsan: reduction-order — k-groups of 4 combined left-to-right,
            // fixed by shape, never thread-count-dependent
            while k + K_UNROLL <= self.cols {
                let (a0, a1, a2, a3) = (a_row[k], a_row[k + 1], a_row[k + 2], a_row[k + 3]);
                let b0 = &other.data[k * n..(k + 1) * n];
                let b1 = &other.data[(k + 1) * n..(k + 2) * n];
                let b2 = &other.data[(k + 2) * n..(k + 3) * n];
                let b3 = &other.data[(k + 3) * n..(k + 4) * n];
                let bs = b0.iter().zip(b1.iter().zip(b2.iter().zip(b3)));
                for (o, (&v0, (&v1, (&v2, &v3)))) in out_row.iter_mut().zip(bs) {
                    *o += a0 * v0 + a1 * v1 + a2 * v2 + a3 * v3;
                }
                k += K_UNROLL;
            }
            while k < self.cols {
                let a = a_row[k];
                let b_row = &other.data[k * n..(k + 1) * n];
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
                k += 1;
            }
        }
        out
    }

    /// Reference `self · other`: the textbook triple loop with strictly
    /// sequential accumulation over `k`. Retained off the hot path as the
    /// semantic baseline the unrolled [`Matrix::matmul`] is property-tested
    /// against (`crates/model/tests/kernel_equivalence.rs`).
    ///
    /// # Panics
    ///
    /// Panics if inner dimensions disagree.
    pub fn matmul_naive(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "matmul dimension mismatch");
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for j in 0..other.cols {
                let mut acc = 0.0f32;
                for k in 0..self.cols {
                    acc += self.get(i, k) * other.get(k, j);
                }
                out.set(i, j, acc);
            }
        }
        out
    }

    /// `self · otherᵀ`.
    ///
    /// Each output element is an inner product of two contiguous rows,
    /// computed by the multi-accumulator `dot` kernel (fixed pairwise
    /// lane fold; order depends only on the row length).
    ///
    /// # Panics
    ///
    /// Panics if column counts disagree.
    pub fn matmul_transposed(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.cols,
            "matmul_transposed dimension mismatch"
        );
        let mut out = Matrix::zeros(self.rows, other.rows);
        for i in 0..self.rows {
            let a_row = self.row(i);
            let out_row = &mut out.data[i * other.rows..(i + 1) * other.rows];
            for (j, o) in out_row.iter_mut().enumerate() {
                *o = dot(a_row, other.row(j));
            }
        }
        out
    }

    /// Reference `self · otherᵀ` with strictly sequential dot products,
    /// retained as the property-test baseline for [`Matrix::matmul_transposed`].
    ///
    /// # Panics
    ///
    /// Panics if column counts disagree.
    pub fn matmul_transposed_naive(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.cols,
            "matmul_transposed dimension mismatch"
        );
        let mut out = Matrix::zeros(self.rows, other.rows);
        for i in 0..self.rows {
            let a_row = self.row(i);
            for j in 0..other.rows {
                let b_row = other.row(j);
                let mut acc = 0.0f32;
                for (&a, &b) in a_row.iter().zip(b_row) {
                    acc += a * b;
                }
                out.set(i, j, acc);
            }
        }
        out
    }

    /// `selfᵀ · other`.
    ///
    /// The shared (batch) dimension is unrolled by `K_UNROLL`: four rows
    /// of `other` are scattered into each output row per pass through a
    /// branch-free combined inner loop. Like [`Matrix::matmul`], the
    /// accumulation order is fixed by the shapes alone.
    ///
    /// # Panics
    ///
    /// Panics if row counts disagree.
    pub fn transposed_matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, other.rows,
            "transposed_matmul dimension mismatch"
        );
        let m = self.cols;
        let n = other.cols;
        let mut out = Matrix::zeros(m, n);
        let mut k = 0;
        // detsan: reduction-order — k-groups of 4 combined left-to-right,
        // fixed by shape, never thread-count-dependent
        while k + K_UNROLL <= self.rows {
            let (a0, a1, a2, a3) = (
                self.row(k),
                self.row(k + 1),
                self.row(k + 2),
                self.row(k + 3),
            );
            let (b0, b1, b2, b3) = (
                other.row(k),
                other.row(k + 1),
                other.row(k + 2),
                other.row(k + 3),
            );
            for i in 0..m {
                let (c0, c1, c2, c3) = (a0[i], a1[i], a2[i], a3[i]);
                let out_row = &mut out.data[i * n..(i + 1) * n];
                let bs = b0.iter().zip(b1.iter().zip(b2.iter().zip(b3)));
                for (o, (&v0, (&v1, (&v2, &v3)))) in out_row.iter_mut().zip(bs) {
                    *o += c0 * v0 + c1 * v1 + c2 * v2 + c3 * v3;
                }
            }
            k += K_UNROLL;
        }
        while k < self.rows {
            let a_row = self.row(k);
            let b_row = other.row(k);
            for (i, &a) in a_row.iter().enumerate() {
                let out_row = &mut out.data[i * n..(i + 1) * n];
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
            k += 1;
        }
        out
    }

    /// Reference `selfᵀ · other` accumulating strictly sequentially over
    /// the shared dimension, retained as the property-test baseline for
    /// [`Matrix::transposed_matmul`].
    ///
    /// # Panics
    ///
    /// Panics if row counts disagree.
    pub fn transposed_matmul_naive(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, other.rows,
            "transposed_matmul dimension mismatch"
        );
        let mut out = Matrix::zeros(self.cols, other.cols);
        for k in 0..self.rows {
            let a_row = self.row(k);
            let b_row = other.row(k);
            for (i, &a) in a_row.iter().enumerate() {
                let out_row = out.row_mut(i);
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// The transpose.
    pub fn transposed(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.set(j, i, self.get(i, j));
            }
        }
        out
    }

    /// Elementwise map into a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// In-place `self += scale * other`.
    ///
    /// # Panics
    ///
    /// Panics if shapes disagree.
    pub fn add_scaled(&mut self, other: &Matrix, scale: f32) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "add_scaled shape mismatch"
        );
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += scale * b;
        }
    }

    /// Elementwise product (Hadamard) into a new matrix.
    ///
    /// # Panics
    ///
    /// Panics if shapes disagree.
    pub fn hadamard(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "hadamard shape mismatch"
        );
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| a * b)
                .collect(),
        }
    }

    /// Sum over rows, producing a length-`cols` vector (bias gradients).
    pub fn column_sums(&self) -> Vec<f32> {
        let mut sums = vec![0.0f32; self.cols];
        for r in 0..self.rows {
            for (s, &v) in sums.iter_mut().zip(self.row(r)) {
                *s += v;
            }
        }
        sums
    }

    /// Horizontal concatenation `[self | other]`.
    ///
    /// # Panics
    ///
    /// Panics if row counts disagree.
    pub fn hcat(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "hcat row mismatch");
        let cols = self.cols + other.cols;
        let mut data = Vec::with_capacity(self.rows * cols);
        for r in 0..self.rows {
            data.extend_from_slice(self.row(r));
            data.extend_from_slice(other.row(r));
        }
        Matrix {
            rows: self.rows,
            cols,
            data,
        }
    }

    /// Splits off the first `left_cols` columns, returning `(left, right)`.
    ///
    /// # Panics
    ///
    /// Panics if `left_cols` is zero or >= `cols`.
    pub fn hsplit(&self, left_cols: usize) -> (Matrix, Matrix) {
        assert!(
            left_cols > 0 && left_cols < self.cols,
            "split point must be interior"
        );
        let right_cols = self.cols - left_cols;
        let mut left = Vec::with_capacity(self.rows * left_cols);
        let mut right = Vec::with_capacity(self.rows * right_cols);
        for r in 0..self.rows {
            let row = self.row(r);
            left.extend_from_slice(&row[..left_cols]);
            right.extend_from_slice(&row[left_cols..]);
        }
        (
            Matrix::from_vec(self.rows, left_cols, left),
            Matrix::from_vec(self.rows, right_cols, right),
        )
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum::<f32>().sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: &Matrix, b: &Matrix, tol: f32) -> bool {
        a.rows() == b.rows()
            && a.cols() == b.cols()
            && a.as_slice()
                .iter()
                .zip(b.as_slice())
                .all(|(&x, &y)| (x - y).abs() <= tol)
    }

    #[test]
    fn matmul_identity() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let i = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        assert!(approx(&a.matmul(&i), &a, 0.0));
        assert!(approx(&i.matmul(&a), &a, 0.0));
    }

    #[test]
    fn matmul_rectangular() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0]]); // 1x3
        let b = Matrix::from_rows(&[&[1.0], &[2.0], &[3.0]]); // 3x1
        let c = a.matmul(&b);
        assert_eq!((c.rows(), c.cols()), (1, 1));
        assert_eq!(c.get(0, 0), 14.0);
    }

    #[test]
    fn transposed_variants_agree_with_explicit_transpose() {
        let a = Matrix::xavier(4, 3, 1);
        let b = Matrix::xavier(5, 3, 2);
        assert!(approx(
            &a.matmul_transposed(&b),
            &a.matmul(&b.transposed()),
            1e-6
        ));
        let c = Matrix::xavier(4, 6, 3);
        assert!(approx(
            &a.transposed_matmul(&c),
            &a.transposed().matmul(&c),
            1e-6
        ));
    }

    #[test]
    fn unrolled_kernels_match_naive_references() {
        // Shapes straddle the unroll/lane boundaries (K_UNROLL=4, DOT_LANES=8)
        // including ragged remainders; the property tests in
        // tests/kernel_equivalence.rs cover random shapes.
        for (r, k, c) in [(1, 1, 1), (3, 5, 7), (4, 8, 2), (6, 17, 9), (2, 32, 3)] {
            let a = Matrix::xavier(r, k, 11);
            let b = Matrix::xavier(k, c, 12);
            assert!(approx(&a.matmul(&b), &a.matmul_naive(&b), 1e-5));
            let bt = Matrix::xavier(c, k, 13);
            assert!(approx(
                &a.matmul_transposed(&bt),
                &a.matmul_transposed_naive(&bt),
                1e-5
            ));
            let o = Matrix::xavier(r, c, 14);
            assert!(approx(
                &a.transposed_matmul(&o),
                &a.transposed_matmul_naive(&o),
                1e-5
            ));
        }
    }

    #[test]
    fn transpose_is_involutive() {
        let a = Matrix::xavier(3, 7, 9);
        assert!(approx(&a.transposed().transposed(), &a, 0.0));
    }

    #[test]
    fn hcat_hsplit_roundtrip() {
        let a = Matrix::xavier(2, 3, 4);
        let b = Matrix::xavier(2, 5, 5);
        let joined = a.hcat(&b);
        assert_eq!(joined.cols(), 8);
        let (l, r) = joined.hsplit(3);
        assert!(approx(&l, &a, 0.0));
        assert!(approx(&r, &b, 0.0));
    }

    #[test]
    fn column_sums_match_manual() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        assert_eq!(a.column_sums(), vec![9.0, 12.0]);
    }

    #[test]
    fn add_scaled_accumulates() {
        let mut a = Matrix::zeros(2, 2);
        let b = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        a.add_scaled(&b, 0.5);
        a.add_scaled(&b, 0.5);
        assert!(approx(&a, &b, 1e-6));
    }

    #[test]
    fn xavier_is_bounded_and_seeded() {
        let a = Matrix::xavier(10, 10, 42);
        let b = Matrix::xavier(10, 10, 42);
        assert_eq!(a, b);
        let limit = (6.0f32 / 20.0).sqrt();
        assert!(a.as_slice().iter().all(|&x| x.abs() <= limit));
        assert!(a.norm() > 0.0);
    }

    #[test]
    fn xavier_does_not_replay_a_data_stream_of_the_same_seed() {
        let limit = (6.0f64 / 9.0).sqrt();
        for seed in [0, 7, 42] {
            let mut stream = SplitMix64::new(seed);
            let replay: Vec<f32> = (0..20)
                .map(|_| stream.uniform(-limit, limit) as f32)
                .collect();
            assert_ne!(
                Matrix::xavier(4, 5, seed).as_slice(),
                &replay[..],
                "seed {seed}"
            );
        }
    }

    #[test]
    fn map_and_hadamard() {
        let a = Matrix::from_rows(&[&[1.0, -2.0]]);
        assert_eq!(a.map(|x| x.max(0.0)).as_slice(), &[1.0, 0.0]);
        assert_eq!(a.hadamard(&a).as_slice(), &[1.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn matmul_shape_checked() {
        Matrix::zeros(2, 3).matmul(&Matrix::zeros(2, 3));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dims_rejected() {
        Matrix::zeros(0, 1);
    }
}
