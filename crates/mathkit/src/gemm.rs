//! Cache-blocked `f32` matrix kernels for the DNN inference hot path.
//!
//! The `optima_dnn` crate lowers its convolution (via im2col) and dense
//! layers onto the small set of BLAS-like primitives in this module:
//!
//! * [`gemm`] — `C += A·B`   (the workhorse behind im2col convolution),
//! * [`gemm_nt`] — `C += A·Bᵀ` (weight gradients),
//! * [`gemm_tn`] — `C += Aᵀ·B` (input gradients),
//! * [`gemv_t`] — transposed matrix-vector product (dense input gradients),
//! * [`ger`] — rank-1 update `A += x·yᵀ` (dense weight gradients).
//!
//! All matrices are dense, row-major `f32` slices.  The kernels are written
//! so that every inner loop runs over *contiguous* sub-slices with the
//! bounds checks hoisted out (one slice split per row, not one per element),
//! which lets the compiler keep the loops branch-free and auto-vectorized.
//! [`gemm`] and [`gemm_tn`] additionally block over the reduction dimension
//! so that the active panel of `B` stays cache-resident; [`gemm_nt`]
//! computes dot products of contiguous rows with a four-way unrolled
//! accumulator.
//!
//! # Packed-panel GEMM
//!
//! On top of the streaming kernels, [`PackedGemm`] provides the
//! pack-once/run-many plan used by the inference hot path: the weight matrix
//! `A` is repacked **once per layer** into 8-row panels (`[kk][r]` order, so
//! the micro-kernel reads 8 weights per cycle from one contiguous word), and
//! each call packs `B` into 8-column panels inside a caller-owned
//! [`GemmScratch`] arena that is reused across the whole batch.  The
//! micro-kernel is an 8×8 register tile in the same portable lane-array
//! style as `Polynomial::eval_many_into`: `[[f32; 8]; 8]` accumulators that
//! the compiler keeps in vector registers.
//!
//! Because the register tile accumulates each output element privately
//! (initialised to zero, `k` traversed in ascending order, added to `C` once
//! at writeback), the result is **exactly** — bit for bit — the
//! "lane-ordered scalar model" implemented by [`packed_gemm_model`]; the
//! property tests pin that equivalence over shapes that are not multiples of
//! the lane width.  Tails in `m`/`n` are handled by zero-padding the packed
//! panels (every micro-tile is full) and masking the writeback, so the tail
//! elements go through the same instruction sequence as the bulk.
//!
//! The kernels accumulate into `C`/`y` (callers zero- or bias-initialise the
//! output first), which is exactly the shape the layer code needs and avoids
//! a separate clearing pass.
//!
//! # Example
//!
//! ```rust
//! use optima_math::gemm::gemm;
//!
//! // [1 2] [5 6]   [19 22]
//! // [3 4]·[7 8] = [43 50]
//! let a = [1.0, 2.0, 3.0, 4.0];
//! let b = [5.0, 6.0, 7.0, 8.0];
//! let mut c = [0.0f32; 4];
//! gemm(2, 2, 2, &a, &b, &mut c);
//! assert_eq!(c, [19.0, 22.0, 43.0, 50.0]);
//! ```

/// Rows of `A` processed per outer block; keeps the written `C` panel small.
const BLOCK_M: usize = 64;
/// Reduction-depth slice per block; keeps the active `B` panel in L1/L2.
const BLOCK_K: usize = 256;
/// Lane width of the packed micro-kernel: 8 `f32` lanes fill one AVX2
/// register, and narrower targets split the lane array without changing the
/// arithmetic order.
pub const LANES: usize = 8;
/// Rows per packed-`A` panel (the register-tile height).
const MR: usize = 8;

#[inline]
fn check_dims(what: &str, rows: usize, cols: usize, len: usize) {
    assert_eq!(
        len,
        rows * cols,
        "{what} buffer holds {len} elements, expected {rows}x{cols}"
    );
}

// Everything from here to `end-hot` runs per-element inside DNN inference;
// R4 forbids allocation in this region.
// optima-lint: hot

/// `y += alpha * x` over equal-length slices (the vectorized inner loop of
/// the `NN`/`TN` kernels).
#[inline]
fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    for (yi, xi) in y.iter_mut().zip(x.iter()) {
        *yi += alpha * xi;
    }
}

/// Dot product with four independent accumulators (the inner loop of the
/// `NT` kernel); the unroll breaks the serial dependency chain so the
/// compiler can keep several FMAs in flight.
#[inline]
fn dot(x: &[f32], y: &[f32]) -> f32 {
    let n = x.len().min(y.len());
    let (x, y) = (&x[..n], &y[..n]);
    let mut acc = [0.0f32; 4];
    let mut chunks_x = x.chunks_exact(4);
    let mut chunks_y = y.chunks_exact(4);
    for (cx, cy) in chunks_x.by_ref().zip(chunks_y.by_ref()) {
        acc[0] += cx[0] * cy[0];
        acc[1] += cx[1] * cy[1];
        acc[2] += cx[2] * cy[2];
        acc[3] += cx[3] * cy[3];
    }
    let mut tail = 0.0f32;
    for (xi, yi) in chunks_x.remainder().iter().zip(chunks_y.remainder()) {
        tail += xi * yi;
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

/// `C += A·B` for row-major `A [m×k]`, `B [k×n]`, `C [m×n]`.
///
/// Blocked over `m` and `k`; the inner loop is an `axpy` over contiguous
/// rows of `B` and `C`, so no per-element bounds checks survive.
///
/// # Panics
///
/// Panics when a slice length does not match its `rows × cols` dimensions.
pub fn gemm(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    check_dims("A", m, k, a.len());
    check_dims("B", k, n, b.len());
    check_dims("C", m, n, c.len());
    if m == 0 || k == 0 || n == 0 {
        return;
    }
    for i0 in (0..m).step_by(BLOCK_M) {
        let i1 = (i0 + BLOCK_M).min(m);
        for k0 in (0..k).step_by(BLOCK_K) {
            let k1 = (k0 + BLOCK_K).min(k);
            for i in i0..i1 {
                let a_row = &a[i * k..i * k + k];
                let c_row = &mut c[i * n..(i + 1) * n];
                for kk in k0..k1 {
                    axpy(a_row[kk], &b[kk * n..kk * n + n], c_row);
                }
            }
        }
    }
}

/// `C += A·Bᵀ` for row-major `A [m×k]`, `B [n×k]`, `C [m×n]`.
///
/// Both operands are traversed along their contiguous rows; each output
/// element is one unrolled `dot` product.
///
/// # Panics
///
/// Panics when a slice length does not match its `rows × cols` dimensions.
pub fn gemm_nt(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    check_dims("A", m, k, a.len());
    check_dims("B", n, k, b.len());
    check_dims("C", m, n, c.len());
    if m == 0 || k == 0 || n == 0 {
        return;
    }
    for i in 0..m {
        let a_row = &a[i * k..i * k + k];
        let c_row = &mut c[i * n..(i + 1) * n];
        for (j, c_ij) in c_row.iter_mut().enumerate() {
            *c_ij += dot(a_row, &b[j * k..j * k + k]);
        }
    }
}

/// `C += Aᵀ·B` for row-major `A [k×m]`, `B [k×n]`, `C [m×n]`.
///
/// Iterates the reduction dimension outermost so `A` and `B` are both read
/// along contiguous rows; the inner loop is an `axpy` into rows of `C`.
///
/// # Panics
///
/// Panics when a slice length does not match its `rows × cols` dimensions.
pub fn gemm_tn(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    check_dims("A", k, m, a.len());
    check_dims("B", k, n, b.len());
    check_dims("C", m, n, c.len());
    if m == 0 || k == 0 || n == 0 {
        return;
    }
    for i0 in (0..m).step_by(BLOCK_M) {
        let i1 = (i0 + BLOCK_M).min(m);
        for kk in 0..k {
            let a_row = &a[kk * m..kk * m + m];
            let b_row = &b[kk * n..kk * n + n];
            for i in i0..i1 {
                axpy(a_row[i], b_row, &mut c[i * n..(i + 1) * n]);
            }
        }
    }
}

/// `y += Aᵀ·x` for row-major `A [m×k]`, `x [m]`, `y [k]`.
///
/// Traverses `A` along its contiguous rows, accumulating `axpy` updates.
///
/// # Panics
///
/// Panics when the slice lengths do not match the dimensions.
pub fn gemv_t(m: usize, k: usize, a: &[f32], x: &[f32], y: &mut [f32]) {
    check_dims("A", m, k, a.len());
    assert_eq!(x.len(), m, "x length {} != {m}", x.len());
    assert_eq!(y.len(), k, "y length {} != {k}", y.len());
    for (i, &x_i) in x.iter().enumerate() {
        axpy(x_i, &a[i * k..i * k + k], y);
    }
}

/// Rank-1 update `A += x·yᵀ` for row-major `A [m×n]`, `x [m]`, `y [n]`.
///
/// # Panics
///
/// Panics when the slice lengths do not match the dimensions.
pub fn ger(m: usize, n: usize, x: &[f32], y: &[f32], a: &mut [f32]) {
    check_dims("A", m, n, a.len());
    assert_eq!(x.len(), m, "x length {} != {m}", x.len());
    assert_eq!(y.len(), n, "y length {} != {n}", y.len());
    for (i, &x_i) in x.iter().enumerate() {
        axpy(x_i, y, &mut a[i * n..(i + 1) * n]);
    }
}

// optima-lint: end-hot

/// Reusable packing arena for [`PackedGemm`]: holds the packed `B` panels
/// between calls so the steady state performs no heap allocation.
///
/// One scratch per worker; it grows to the largest `k × n` seen and then
/// stays at that capacity.
#[derive(Debug, Clone, Default)]
pub struct GemmScratch {
    /// `B` packed into [`LANES`]-column panels, `[panel][kk][lane]` order.
    packed_b: Vec<f32>,
}

impl GemmScratch {
    /// Creates an empty scratch arena (no allocation until first use).
    pub fn new() -> Self {
        Self::default()
    }
}

/// A pack-once matrix-product plan: `A` repacked into `MR`-row panels for
/// the 8-wide register-tile micro-kernel.
///
/// Build one per weight matrix with [`PackedGemm::pack`], then run
/// [`PackedGemm::gemm_into`] / [`PackedGemm::gemv_into`] for every image in
/// the batch.  The packed layout stores, panel by panel, the `MR` row values
/// for each reduction index `kk` contiguously (`[panel][kk][r]`), with tail
/// rows zero-padded so the micro-kernel never branches on the row count.
///
/// Both kernels accumulate into the output and are bit-identical to the
/// lane-ordered scalar models [`packed_gemm_model`] / [`packed_gemv_model`].
#[derive(Debug, Clone)]
pub struct PackedGemm {
    m: usize,
    k: usize,
    /// `ceil(m / MR)` panels of `k × MR` floats, `[panel][kk][r]` order.
    panels: Vec<f32>,
}

impl PackedGemm {
    /// Packs row-major `A [m×k]` into the panel layout.
    ///
    /// # Panics
    ///
    /// Panics when `a.len() != m * k`.
    pub fn pack(m: usize, k: usize, a: &[f32]) -> Self {
        check_dims("A", m, k, a.len());
        if m == 0 || k == 0 {
            return PackedGemm {
                m,
                k,
                panels: Vec::new(),
            };
        }
        let panel_count = m.div_ceil(MR);
        let mut panels = vec![0.0f32; panel_count * k * MR];
        for (p, panel) in panels.chunks_exact_mut(k * MR).enumerate() {
            let row0 = p * MR;
            let rows = MR.min(m - row0);
            for r in 0..rows {
                let a_row = &a[(row0 + r) * k..(row0 + r) * k + k];
                for (kk, &value) in a_row.iter().enumerate() {
                    panel[kk * MR + r] = value;
                }
            }
        }
        PackedGemm { m, k, panels }
    }

    /// Number of rows in the packed matrix.
    pub fn rows(&self) -> usize {
        self.m
    }

    /// Reduction depth (columns of the packed matrix).
    pub fn depth(&self) -> usize {
        self.k
    }

    // The packing loop and the two micro-kernels below run per image inside
    // DNN inference; R4 forbids allocation in this region (the scratch arena
    // may `resize`, which reuses its capacity in the steady state).
    // optima-lint: hot

    /// `C += A·B` for the packed `A [m×k]`, row-major `B [k×n]`, `C [m×n]`.
    ///
    /// Packs `B` into `scratch` (reusing its capacity), then runs the 8×8
    /// register-tile micro-kernel over full panels; partial edge tiles are
    /// computed on zero padding and masked at writeback.  Exactly equivalent
    /// to [`packed_gemm_model`].
    ///
    /// # Panics
    ///
    /// Panics when a slice length does not match its dimensions.
    pub fn gemm_into(&self, n: usize, b: &[f32], c: &mut [f32], scratch: &mut GemmScratch) {
        let (m, k) = (self.m, self.k);
        check_dims("B", k, n, b.len());
        check_dims("C", m, n, c.len());
        if m == 0 || k == 0 || n == 0 {
            return;
        }

        // Pack B into LANES-column panels (inside the dispatched kernel so
        // the copies vectorize with the same feature set), zero-padding the
        // column tail.
        let col_panels = n.div_ceil(LANES);
        let packed_b = &mut scratch.packed_b;
        packed_b.clear();
        packed_b.resize(col_panels * k * LANES, 0.0);
        gemm_panels(m, k, n, &self.panels, b, packed_b, c);
    }

    /// `y += A·x` for the packed `A [m×k]`, `x [k]`, `y [m]`.
    ///
    /// The lane array runs *across the 8 panel rows* (the packed layout makes
    /// them contiguous per `kk`), so the kernel is the `n = 1` column of
    /// [`PackedGemm::gemm_into`] — and bit-identical to
    /// [`packed_gemv_model`].
    ///
    /// # Panics
    ///
    /// Panics when a slice length does not match its dimensions.
    pub fn gemv_into(&self, x: &[f32], y: &mut [f32]) {
        let (m, k) = (self.m, self.k);
        assert_eq!(x.len(), k, "x length {} != {k}", x.len());
        assert_eq!(y.len(), m, "y length {} != {m}", y.len());
        if m == 0 || k == 0 {
            return;
        }
        gemv_panels(m, k, &self.panels, x, y);
    }

    // optima-lint: end-hot
}

// The two panel kernels below exist in two compilations: the portable body
// and an AVX2 clone selected by a cached runtime feature check.  With AVX
// every `[f32; 8]` lane row is a single ymm register (the 8×8 tile is eight
// accumulator registers); the baseline build splits each row across two SSE
// registers and spills.  Both clones run the identical instruction *order*
// — plain multiply and add, no FMA contraction — so their results are
// bit-identical to each other and to the lane-ordered scalar models.
// optima-lint: hot

/// The 8×8 register-tile micro-kernel over full packed panels, with masked
/// writeback for the `m`/`n` tails.  Packs `B` into `packed_b` first (the
/// buffer arrives zeroed and sized by the caller); full-width panels take a
/// constant-length copy so the pack loop vectorizes.
#[inline(always)]
fn gemm_panels_body(
    m: usize,
    k: usize,
    n: usize,
    a_panels: &[f32],
    b: &[f32],
    packed_b: &mut [f32],
    c: &mut [f32],
) {
    for (jp, panel) in packed_b.chunks_exact_mut(k * LANES).enumerate() {
        let col0 = jp * LANES;
        if col0 + LANES <= n {
            for (kk, dst) in panel.chunks_exact_mut(LANES).enumerate() {
                dst.copy_from_slice(&b[kk * n + col0..kk * n + col0 + LANES]);
            }
        } else {
            let lanes = n - col0;
            for (kk, dst) in panel.chunks_exact_mut(LANES).enumerate() {
                dst[..lanes].copy_from_slice(&b[kk * n + col0..kk * n + col0 + lanes]);
            }
        }
    }
    for (jp, b_panel) in packed_b.chunks_exact(k * LANES).enumerate() {
        for (ip, a_panel) in a_panels.chunks_exact(k * MR).enumerate() {
            let mut acc = [[0.0f32; LANES]; MR];
            let a_steps = a_panel.chunks_exact(MR);
            let b_steps = b_panel.chunks_exact(LANES);
            for (a_step, b_step) in a_steps.zip(b_steps) {
                for (acc_row, &a_val) in acc.iter_mut().zip(a_step.iter()) {
                    for (lane, &b_val) in acc_row.iter_mut().zip(b_step.iter()) {
                        *lane += a_val * b_val;
                    }
                }
            }
            // Masked writeback: only rows < m and columns < n land in C.
            let row0 = ip * MR;
            let rows = MR.min(m - row0);
            let col0 = jp * LANES;
            let lanes = LANES.min(n - col0);
            for (r, acc_row) in acc.iter().enumerate().take(rows) {
                let c_row = &mut c[(row0 + r) * n + col0..(row0 + r) * n + col0 + lanes];
                for (c_val, &a_val) in c_row.iter_mut().zip(acc_row.iter()) {
                    *c_val += a_val;
                }
            }
        }
    }
}

/// The packed GEMV micro-kernel: one 8-lane accumulator per `A` panel.
#[inline(always)]
fn gemv_panels_body(m: usize, k: usize, a_panels: &[f32], x: &[f32], y: &mut [f32]) {
    for (ip, panel) in a_panels.chunks_exact(k * MR).enumerate() {
        let mut acc = [0.0f32; MR];
        for (step, &x_val) in panel.chunks_exact(MR).zip(x.iter()) {
            for (lane, &a_val) in acc.iter_mut().zip(step.iter()) {
                *lane += a_val * x_val;
            }
        }
        let row0 = ip * MR;
        let rows = MR.min(m - row0);
        for (y_val, &a_val) in y[row0..row0 + rows].iter_mut().zip(acc.iter()) {
            *y_val += a_val;
        }
    }
}

#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
unsafe fn gemm_panels_avx2(
    m: usize,
    k: usize,
    n: usize,
    a_panels: &[f32],
    b: &[f32],
    packed_b: &mut [f32],
    c: &mut [f32],
) {
    gemm_panels_body(m, k, n, a_panels, b, packed_b, c);
}

#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
unsafe fn gemv_panels_avx2(m: usize, k: usize, a_panels: &[f32], x: &[f32], y: &mut [f32]) {
    gemv_panels_body(m, k, a_panels, x, y);
}

fn gemm_panels(
    m: usize,
    k: usize,
    n: usize,
    a_panels: &[f32],
    b: &[f32],
    packed_b: &mut [f32],
    c: &mut [f32],
) {
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the AVX2 clone only runs after the (cached) runtime
        // feature check above confirmed the CPU supports it.
        return unsafe { gemm_panels_avx2(m, k, n, a_panels, b, packed_b, c) };
    }
    gemm_panels_body(m, k, n, a_panels, b, packed_b, c);
}

fn gemv_panels(m: usize, k: usize, a_panels: &[f32], x: &[f32], y: &mut [f32]) {
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the AVX2 clone only runs after the (cached) runtime
        // feature check above confirmed the CPU supports it.
        return unsafe { gemv_panels_avx2(m, k, a_panels, x, y) };
    }
    gemv_panels_body(m, k, a_panels, x, y);
}

// optima-lint: end-hot

/// The lane-ordered scalar model that [`PackedGemm::gemm_into`] reproduces
/// **bit for bit**: each output element accumulates its own `f32` sum over
/// ascending `kk` (plain multiply-add, no fused contraction, no blocking)
/// and is added to `C` once.
///
/// This is the equivalence oracle for the packed kernel — deliberately the
/// simplest possible implementation, kept far from the hot path.
///
/// # Panics
///
/// Panics when a slice length does not match its dimensions.
pub fn packed_gemm_model(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    check_dims("A", m, k, a.len());
    check_dims("B", k, n, b.len());
    check_dims("C", m, n, c.len());
    if m == 0 || k == 0 || n == 0 {
        return;
    }
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for kk in 0..k {
                acc += a[i * k + kk] * b[kk * n + j];
            }
            c[i * n + j] += acc;
        }
    }
}

/// The `n = 1` column of [`packed_gemm_model`]: the equivalence oracle for
/// [`PackedGemm::gemv_into`].
///
/// # Panics
///
/// Panics when a slice length does not match its dimensions.
pub fn packed_gemv_model(m: usize, k: usize, a: &[f32], x: &[f32], y: &mut [f32]) {
    check_dims("A", m, k, a.len());
    assert_eq!(x.len(), k, "x length {} != {k}", x.len());
    assert_eq!(y.len(), m, "y length {} != {m}", y.len());
    for i in 0..m {
        let mut acc = 0.0f32;
        for kk in 0..k {
            acc += a[i * k + kk] * x[kk];
        }
        y[i] += acc;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_gemm(m: usize, k: usize, n: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
        let mut c = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f64;
                for kk in 0..k {
                    acc += a[i * k + kk] as f64 * b[kk * n + j] as f64;
                }
                c[i * n + j] = acc as f32;
            }
        }
        c
    }

    /// Deterministic pseudo-random fill (SplitMix64-based, no rand dep).
    fn fill(seed: u64, len: usize) -> Vec<f32> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^= z >> 31;
                (z as f32 / u64::MAX as f32) * 2.0 - 1.0
            })
            .collect()
    }

    fn assert_close(actual: &[f32], expected: &[f32], tolerance: f32) {
        assert_eq!(actual.len(), expected.len());
        for (i, (&a, &e)) in actual.iter().zip(expected.iter()).enumerate() {
            assert!(
                (a - e).abs() <= tolerance * e.abs().max(1.0),
                "element {i}: {a} vs {e}"
            );
        }
    }

    #[test]
    fn gemm_matches_naive_over_random_shapes() {
        for (case, &(m, k, n)) in [
            (1, 1, 1),
            (2, 3, 4),
            (5, 1, 7),
            (17, 33, 9),
            (64, 65, 66),
            (70, 300, 31),
        ]
        .iter()
        .enumerate()
        {
            let a = fill(case as u64 + 1, m * k);
            let b = fill(case as u64 + 100, k * n);
            let mut c = vec![0.0f32; m * n];
            gemm(m, k, n, &a, &b, &mut c);
            assert_close(&c, &naive_gemm(m, k, n, &a, &b), 1e-4);
        }
    }

    #[test]
    fn gemm_accumulates_into_c() {
        let a = [1.0, 0.0, 0.0, 1.0];
        let b = [2.0, 3.0, 4.0, 5.0];
        let mut c = [10.0, 10.0, 10.0, 10.0];
        gemm(2, 2, 2, &a, &b, &mut c);
        assert_eq!(c, [12.0, 13.0, 14.0, 15.0]);
    }

    #[test]
    fn transposed_variants_match_explicit_transposes() {
        let (m, k, n) = (13, 29, 11);
        let a = fill(7, m * k);
        let b = fill(8, k * n);
        let expected = naive_gemm(m, k, n, &a, &b);

        // A·Bᵀ with B stored transposed [n×k].
        let mut b_t = vec![0.0f32; n * k];
        for kk in 0..k {
            for j in 0..n {
                b_t[j * k + kk] = b[kk * n + j];
            }
        }
        let mut c = vec![0.0f32; m * n];
        gemm_nt(m, k, n, &a, &b_t, &mut c);
        assert_close(&c, &expected, 1e-4);

        // Aᵀ·B with A stored transposed [k×m].
        let mut a_t = vec![0.0f32; k * m];
        for i in 0..m {
            for kk in 0..k {
                a_t[kk * m + i] = a[i * k + kk];
            }
        }
        let mut c = vec![0.0f32; m * n];
        gemm_tn(m, k, n, &a_t, &b, &mut c);
        assert_close(&c, &expected, 1e-4);
    }

    #[test]
    fn gemv_variants_match_gemm_with_one_column() {
        let (m, k) = (23, 57);
        let a = fill(3, m * k);
        let x_m = fill(5, m);
        let mut a_t = vec![0.0f32; k * m];
        for i in 0..m {
            for kk in 0..k {
                a_t[kk * m + i] = a[i * k + kk];
            }
        }
        let expected_t = naive_gemm(k, m, 1, &a_t, &x_m);
        let mut y_t = vec![0.0f32; k];
        gemv_t(m, k, &a, &x_m, &mut y_t);
        assert_close(&y_t, &expected_t, 1e-4);
    }

    #[test]
    fn ger_is_an_outer_product_update() {
        let x = [1.0, 2.0];
        let y = [3.0, 4.0, 5.0];
        let mut a = vec![1.0f32; 6];
        ger(2, 3, &x, &y, &mut a);
        assert_eq!(a, vec![4.0, 5.0, 6.0, 7.0, 9.0, 11.0]);
    }

    #[test]
    fn empty_dimensions_are_no_ops() {
        let mut c: Vec<f32> = Vec::new();
        gemm(0, 5, 0, &[], &fill(1, 0), &mut c);
        let mut c = vec![3.0f32; 4];
        gemm(2, 0, 2, &[], &[], &mut c);
        assert_eq!(c, vec![3.0; 4]);
    }

    #[test]
    #[should_panic(expected = "expected")]
    fn dimension_mismatch_panics() {
        let mut c = vec![0.0f32; 4];
        gemm(2, 2, 2, &[1.0, 2.0, 3.0], &[0.0; 4], &mut c);
    }

    #[test]
    fn packed_gemm_is_bit_identical_to_the_lane_ordered_model() {
        // Shapes straddling the 8-lane boundaries: exact multiples, one off
        // either side, degenerate single rows/columns and a large panel mix.
        for (case, &(m, k, n)) in [
            (1, 1, 1),
            (8, 8, 8),
            (7, 9, 8),
            (9, 8, 7),
            (16, 24, 32),
            (17, 33, 9),
            (3, 300, 31),
            (70, 13, 66),
        ]
        .iter()
        .enumerate()
        {
            let a = fill(case as u64 + 1, m * k);
            let b = fill(case as u64 + 100, k * n);
            let seed_c = fill(case as u64 + 200, m * n);

            let plan = PackedGemm::pack(m, k, &a);
            assert_eq!(plan.rows(), m);
            assert_eq!(plan.depth(), k);
            let mut scratch = GemmScratch::new();
            let mut c = seed_c.clone();
            plan.gemm_into(n, &b, &mut c, &mut scratch);

            let mut expected = seed_c.clone();
            packed_gemm_model(m, k, n, &a, &b, &mut expected);
            assert_eq!(c, expected, "case {case}: {m}x{k}x{n}");

            // Re-running through the same scratch must not change results.
            let mut c2 = seed_c;
            plan.gemm_into(n, &b, &mut c2, &mut scratch);
            assert_eq!(c2, expected, "case {case} (scratch reuse)");
        }
    }

    #[test]
    fn packed_gemv_is_bit_identical_to_the_lane_ordered_model() {
        for (case, &(m, k)) in [(1, 1), (8, 8), (7, 9), (23, 57), (64, 65)]
            .iter()
            .enumerate()
        {
            let a = fill(case as u64 + 10, m * k);
            let x = fill(case as u64 + 110, k);
            let seed_y = fill(case as u64 + 210, m);

            let plan = PackedGemm::pack(m, k, &a);
            let mut y = seed_y.clone();
            plan.gemv_into(&x, &mut y);

            let mut expected = seed_y.clone();
            packed_gemv_model(m, k, &a, &x, &mut expected);
            assert_eq!(y, expected, "case {case}: {m}x{k}");

            // gemv must be the n = 1 column of gemm on the same plan.
            let mut scratch = GemmScratch::new();
            let mut y_gemm = seed_y;
            plan.gemm_into(1, &x, &mut y_gemm, &mut scratch);
            assert_eq!(y_gemm, expected, "case {case} (gemm n=1)");
        }
    }

    #[test]
    fn packed_gemm_matches_naive_within_tolerance() {
        let (m, k, n) = (17, 33, 9);
        let a = fill(42, m * k);
        let b = fill(43, k * n);
        let plan = PackedGemm::pack(m, k, &a);
        let mut scratch = GemmScratch::new();
        let mut c = vec![0.0f32; m * n];
        plan.gemm_into(n, &b, &mut c, &mut scratch);
        assert_close(&c, &naive_gemm(m, k, n, &a, &b), 1e-4);
    }

    #[test]
    fn packed_empty_dimensions_are_no_ops() {
        let plan = PackedGemm::pack(0, 5, &[]);
        let mut c: Vec<f32> = Vec::new();
        plan.gemm_into(0, &[], &mut c, &mut GemmScratch::new());

        let plan = PackedGemm::pack(2, 0, &[]);
        let mut c = vec![3.0f32; 4];
        plan.gemm_into(2, &[], &mut c, &mut GemmScratch::new());
        assert_eq!(c, vec![3.0; 4]);
    }

    #[test]
    #[should_panic(expected = "expected")]
    fn packed_dimension_mismatch_panics() {
        let plan = PackedGemm::pack(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let mut c = vec![0.0f32; 4];
        plan.gemm_into(2, &[0.0; 3], &mut c, &mut GemmScratch::new());
    }
}
