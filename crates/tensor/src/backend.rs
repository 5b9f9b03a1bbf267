//! Inference-backend kernels for the fused decode fast path.
//!
//! Training builds autograd [`crate::Graph`]s; inference does not need a
//! tape, only raw matrix kernels. This module isolates those kernels behind
//! the [`InferenceBackend`] trait so the KV-cached decode path in
//! `lcrec-core` can swap implementations without touching model code:
//!
//! * [`ReferenceBackend`] — the exact loops the autograd engine uses
//!   ([`crate::matmul_acc`] plus a dense row-vector product). This is the
//!   semantics anchor: every other backend must match it **bit for bit**.
//! * [`BlockedBackend`] — the same arithmetic cut into 4 x 32 register
//!   tiles: a tile of `out` is loaded once, accumulated over the whole `k`
//!   range and stored once, so the inner loop reads one weight per four
//!   multiply-adds and never touches `out`. Per output element the
//!   accumulation order is unchanged (`k` ascending), so results are
//!   bit-identical to the reference — tiling only reorders *which
//!   elements* are computed when. From a few rows per call up it is bound
//!   by arithmetic, not memory (roofline table, `docs/PERFORMANCE.md`).
//!
//! Two kernels exist because the decode path has two accumulation
//! contracts (see `docs/PERFORMANCE.md`):
//!
//! * [`InferenceBackend::gemm_acc`] skips zero activations, exactly like
//!   [`crate::matmul_acc`] — the projection matmuls of the transformer
//!   block go through this and must match the training-path kernel bitwise.
//! * [`InferenceBackend::gemm_dense_acc`] never skips, exactly like the
//!   scalar dot product the tied LM head historically used — skipping a
//!   `0.0 * w` term would drop an addition of `-0.0`-signed zeros and can
//!   flip the sign bit of an all-zero accumulator, so the dense kernel
//!   keeps every term.
//!
//! The contracts differ only where `a` holds a zero, so
//! [`BlockedBackend`]'s `gemm_acc` scans `a` once (O(M·K) against
//! O(M·K·N) of work) and runs a zero-free `a` through the dense
//! instantiation of the tile: same bits, and no per-(row, `k`) branch
//! in the inner loop. SwiGLU and RMSNorm outputs are essentially never
//! exactly zero, so almost every projection of a decode step takes it.
//! The repository builds for the host CPU (`.cargo/config.toml`); the
//! branch-free tile is what lets the wide registers that target brings
//! pay off.
//!
//! Serving always runs [`BlockedBackend`] ([`active_backend`]): the two
//! backends give the same bits, so a switch could only make decode slower.
//! [`ReferenceBackend`] stays as the oracle the kernel tests compare against.

/// Rows of a [`BlockedBackend`] register tile (a lone `k = 4` request is
/// one tile high; 3/2/1-row tails run the same code).
const MR: usize = 4;
/// Columns of a tile: wide enough to amortise the skipping kernel's
/// per-(row, `k`) zero test. 4 x 32 was best or within 10% of it on every
/// model shape under the baseline target. Under the committed host-CPU
/// target (AVX-512 on the benchmark box: eight registers) an alternating
/// probe of the branch-free tile kept it: 6 x 32 was within 5% from 40
/// rows up but 12% slower at 20, and from 20 rows up 8 x 32, 4 x 64 and
/// 2 x 64 were 19–48% slower (docs/PERFORMANCE.md, "Roofline").
const NR: usize = 32;

/// Raw matrix kernels behind the KV-cached inference fast path.
///
/// All matrices are row-major flat slices; `a` is `[m, k]`, `b` is
/// `[k, n]` and `out` is `[m, n]`. Implementations must accumulate each
/// output element over `k` in ascending order so that every backend is
/// bit-identical to [`ReferenceBackend`] (the property
/// `tests/decode.rs` pins on random shapes).
///
/// # Examples
///
/// ```
/// use lcrec_tensor::{active_backend, BlockedBackend, InferenceBackend, ReferenceBackend};
///
/// let a = [1.0f32, 2.0, 3.0, 4.0]; // [2, 2]
/// let b = [0.5f32, 0.0, 1.5, -1.0]; // [2, 2]
/// let mut blocked = [0.0f32; 4];
/// let mut reference = [0.0f32; 4];
/// BlockedBackend.gemm_acc(&a, &b, &mut blocked, 2, 2, 2);
/// ReferenceBackend.gemm_acc(&a, &b, &mut reference, 2, 2, 2);
/// assert_eq!(blocked, reference, "backends agree bit for bit");
/// assert!(!active_backend().name().is_empty());
/// ```
pub trait InferenceBackend: std::fmt::Debug + Sync {
    /// A short stable identifier (`"reference"`, `"blocked"`), used in
    /// bench reports.
    fn name(&self) -> &'static str;

    /// `out += a @ b`, skipping zero elements of `a` — the exact contract
    /// of [`crate::matmul_acc`], which the transformer-block projections
    /// rely on for bit-identity with the training path.
    fn gemm_acc(&self, a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize);

    /// `out += a @ b` with **no** zero skipping — the exact contract of a
    /// scalar dot product per output element, which the tied LM head
    /// relies on for bit-identity with the per-token logit loop.
    fn gemm_dense_acc(&self, a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize);
}

/// The semantics anchor: plain row-major loops, identical to the kernels
/// the autograd engine records ([`crate::matmul_acc`] and a dense dot).
#[derive(Clone, Copy, Debug, Default)]
pub struct ReferenceBackend;

impl InferenceBackend for ReferenceBackend {
    fn name(&self) -> &'static str {
        "reference"
    }

    fn gemm_acc(&self, a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
        crate::matmul_acc(a, b, out, m, k, n);
    }

    fn gemm_dense_acc(&self, a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
        debug_assert_eq!(a.len(), m * k);
        debug_assert_eq!(b.len(), k * n);
        debug_assert_eq!(out.len(), m * n);
        for i in 0..m {
            let arow = &a[i * k..(i + 1) * k]; // lint: allow(panic, reason = "a.len() == m*k is debug-asserted and upheld by every caller's shape checks")
            let orow = &mut out[i * n..(i + 1) * n]; // lint: allow(panic, reason = "out.len() == m*n is debug-asserted and upheld by every caller's shape checks")
            for (kk, &av) in arow.iter().enumerate() {
                let brow = &b[kk * n..(kk + 1) * n]; // lint: allow(panic, reason = "b.len() == k*n is debug-asserted and kk < k from the arow loop")
                for (o, &bv) in orow.iter_mut().zip(brow) {
                    *o += av * bv;
                }
            }
        }
    }
}

/// Register-tiled kernels: `out` is cut into `MR` x `NR` (4 x 32) tiles, each
/// loaded into a local accumulator block once, updated over the whole `k`
/// range and stored back once. Every output element still starts from its
/// value in `out` and accumulates over `k` in ascending order, so the
/// result is bit-identical to [`ReferenceBackend`] (see the module docs).
#[derive(Clone, Copy, Debug, Default)]
pub struct BlockedBackend;

impl BlockedBackend {
    /// `out[.., j0..j0 + NR] += a @ b[.., j0..j0 + NR]` for the `R` rows
    /// `a` (`[R, k]`) and `out` (`[R, n]`) hold; `SKIP_ZERO` selects the
    /// contract, and the dense instantiation has no branch at all.
    #[inline]
    fn tile<const R: usize, const SKIP_ZERO: bool>(a: &[f32], b: &[f32], out: &mut [f32], k: usize, n: usize, j0: usize) {
        let mut acc = [[0.0f32; NR]; R];
        for (accr, orow) in acc.iter_mut().zip(out.chunks_exact(n)) {
            accr.copy_from_slice(&orow[j0..j0 + NR]); // lint: allow(panic, reason = "j0 + NR <= n: the caller only tiles the whole NR-column strips of an n-wide row")
        }
        for (kk, brow) in b.chunks_exact(n).enumerate() {
            let bseg = &brow[j0..j0 + NR]; // lint: allow(panic, reason = "j0 + NR <= n: the caller only tiles the whole NR-column strips of an n-wide row")
            for (accr, arow) in acc.iter_mut().zip(a.chunks_exact(k)) {
                let av = arow[kk]; // lint: allow(panic, reason = "kk enumerates the k rows of b and every a row is k long")
                if SKIP_ZERO && av == 0.0 {
                    continue;
                }
                for (o, &bv) in accr.iter_mut().zip(bseg) {
                    *o += av * bv;
                }
            }
        }
        for (accr, orow) in acc.iter().zip(out.chunks_exact_mut(n)) {
            orow[j0..j0 + NR].copy_from_slice(accr); // lint: allow(panic, reason = "j0 + NR <= n: the caller only tiles the whole NR-column strips of an n-wide row")
        }
    }

    #[inline]
    fn gemm_tiled<const SKIP_ZERO: bool>(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
        debug_assert_eq!(a.len(), m * k);
        debug_assert_eq!(b.len(), k * n);
        debug_assert_eq!(out.len(), m * n);
        if k == 0 || n == 0 {
            return;
        }
        let tiled = n - n % NR;
        for j0 in (0..tiled).step_by(NR) {
            for (ablk, oblk) in a.chunks(MR * k).zip(out.chunks_mut(MR * n)) {
                match ablk.len() / k {
                    1 => Self::tile::<1, SKIP_ZERO>(ablk, b, oblk, k, n, j0),
                    2 => Self::tile::<2, SKIP_ZERO>(ablk, b, oblk, k, n, j0),
                    3 => Self::tile::<3, SKIP_ZERO>(ablk, b, oblk, k, n, j0),
                    _ => Self::tile::<MR, SKIP_ZERO>(ablk, b, oblk, k, n, j0),
                }
            }
        }
        // The last `n % NR` columns: plain row-times-segment updates.
        if tiled < n {
            for (arow, orow) in a.chunks_exact(k).zip(out.chunks_exact_mut(n)) {
                let oseg = &mut orow[tiled..]; // lint: allow(panic, reason = "tiled <= n, the row's length")
                for (&av, brow) in arow.iter().zip(b.chunks_exact(n)) {
                    if SKIP_ZERO && av == 0.0 {
                        continue;
                    }
                    let bseg = &brow[tiled..]; // lint: allow(panic, reason = "tiled <= n, the row's length")
                    for (o, &bv) in oseg.iter_mut().zip(bseg) {
                        *o += av * bv;
                    }
                }
            }
        }
    }
}

impl InferenceBackend for BlockedBackend {
    fn name(&self) -> &'static str {
        "blocked"
    }

    fn gemm_acc(&self, a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
        // `== 0.0` also matches `-0.0`. With no zero in `a` the skip has
        // nothing to skip, so the branch-free tile gives the same bits.
        if a.contains(&0.0) {
            BlockedBackend::gemm_tiled::<true>(a, b, out, m, k, n);
        } else {
            BlockedBackend::gemm_tiled::<false>(a, b, out, m, k, n);
        }
    }

    fn gemm_dense_acc(&self, a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
        BlockedBackend::gemm_tiled::<false>(a, b, out, m, k, n);
    }
}

/// The inference backend the fused decode path runs: always
/// [`BlockedBackend`], bit-identical to [`ReferenceBackend`] and faster.
///
/// # Examples
///
/// ```
/// use lcrec_tensor::active_backend;
///
/// let backend = active_backend();
/// assert_eq!(backend.name(), "blocked");
///
/// // The fused decode path drives the whole transformer step through
/// // the two kernels on this handle:
/// let (a, b, mut out) = ([2.0f32, -1.0], [3.0f32, 0.25], [0.0f32; 1]);
/// backend.gemm_dense_acc(&a, &b, &mut out, 1, 2, 1);
/// assert_eq!(out[0], 2.0 * 3.0 + -1.0 * 0.25);
/// ```
pub fn active_backend() -> &'static dyn InferenceBackend {
    &BlockedBackend
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random fill (xorshift; no external RNG here).
    /// Without `with_zeros` no value is exactly zero.
    fn fill(seed: &mut u64, out: &mut [f32], with_zeros: bool) {
        for v in out {
            *seed ^= *seed << 13;
            *seed ^= *seed >> 7;
            *seed ^= *seed << 17;
            let r = (((*seed >> 16) & 0xffff) as f32 + 0.5) / 65536.0 - 0.5;
            *v = if with_zeros && (*seed & 7) == 0 { 0.0 } else { r };
        }
    }

    /// What a [`tile_cases`] sweep puts into `a`, and so which path of
    /// `BlockedBackend::gemm_acc` it drives.
    #[derive(Clone, Copy, Debug)]
    enum Activations {
        /// Scattered zeros, one `-0.0`, row 1 all zero (over an all-`-0.0`
        /// `out` row, which only the skipping kernel leaves so).
        Zeros,
        /// No zero anywhere: the branch-free path.
        ZeroFree,
        /// Zero-free but for a lone `-0.0` at `a[0]`, over an all-`-0.0`
        /// `out` row 0: still the skipping path. At `k = 1` skipping and
        /// not skipping give different bits there.
        LoneNegZero,
        /// Zero-free, with NaN, `+inf` and `-inf` leading rows in turn: one
        /// per row, so no `inf - inf` makes a NaN of its own.
        NonFinite,
    }

    const ACTIVATIONS: [Activations; 4] =
        [Activations::Zeros, Activations::ZeroFree, Activations::LoneNegZero, Activations::NonFinite];

    /// `(m, k, n, a, b, out)`.
    type Case = (usize, usize, usize, Vec<f32>, Vec<f32>, Vec<f32>);

    /// Every tile shape: full tiles, each row tail (M mod MR) and column
    /// tails on both sides of NR, as `(m, k, n, a, b, out)` with `a` as
    /// `acts` says, a zero-free `b` and a non-zero `out`.
    fn tile_cases(acts: Activations) -> Vec<Case> {
        let mut seed = 42u64;
        let mut cases = Vec::new();
        for m in 1..=9usize {
            for n in [1usize, 31, 32, 33, 70, 130, 200, 320] {
                for k in [1usize, 17, 128] {
                    let mut a = vec![0.0f32; m * k];
                    let mut b = vec![0.0f32; k * n];
                    let mut out = vec![0.0f32; m * n];
                    fill(&mut seed, &mut a, matches!(acts, Activations::Zeros));
                    fill(&mut seed, &mut b, false);
                    fill(&mut seed, &mut out, false);
                    match acts {
                        Activations::Zeros => {
                            if m > 1 {
                                a[k..2 * k].fill(0.0);
                                out[n..2 * n].fill(-0.0);
                            }
                            a[k / 2] = -0.0;
                        }
                        Activations::ZeroFree => {}
                        Activations::LoneNegZero => {
                            a[0] = -0.0;
                            out[..n].fill(-0.0);
                        }
                        Activations::NonFinite => {
                            let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
                            for (row, &v) in a.chunks_exact_mut(k).zip(specials.iter().cycle()) {
                                row[0] = v;
                            }
                        }
                    }
                    cases.push((m, k, n, a, b, out));
                }
            }
        }
        cases
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn blocked_matches_reference_bit_for_bit() {
        for acts in ACTIVATIONS {
            for (m, k, n, a, b, out) in tile_cases(acts) {
                let (mut r1, mut r2) = (out.clone(), out.clone());
                ReferenceBackend.gemm_acc(&a, &b, &mut r1, m, k, n);
                BlockedBackend.gemm_acc(&a, &b, &mut r2, m, k, n);
                assert_eq!(bits(&r1), bits(&r2), "gemm_acc {acts:?} {m}x{k}x{n}");
                if matches!(acts, Activations::LoneNegZero) && k == 1 {
                    // A dense kernel would add `-0.0 * w`, turning every
                    // column with a negative weight to `+0.0`.
                    assert!(r2[..n].iter().all(|v| v.to_bits() == (-0.0f32).to_bits()), "{m}x{k}x{n}");
                }
                let (mut d1, mut d2) = (out.clone(), out);
                ReferenceBackend.gemm_dense_acc(&a, &b, &mut d1, m, k, n);
                BlockedBackend.gemm_dense_acc(&a, &b, &mut d2, m, k, n);
                assert_eq!(bits(&d1), bits(&d2), "gemm_dense_acc {acts:?} {m}x{k}x{n}");
            }
        }
    }

    #[test]
    fn dense_kernel_matches_scalar_dot_bit_for_bit() {
        // The LM head contract: one output element == the scalar loop,
        // started from the element's initial value.
        for (m, k, n, a, b, init) in ACTIVATIONS.into_iter().flat_map(tile_cases) {
            let mut out = init.clone();
            BlockedBackend.gemm_dense_acc(&a, &b, &mut out, m, k, n);
            for i in 0..m {
                for j in 0..n {
                    let mut acc = init[i * n + j];
                    for kk in 0..k {
                        acc += a[i * k + kk] * b[kk * n + j];
                    }
                    assert_eq!(acc.to_bits(), out[i * n + j].to_bits(), "{m}x{k}x{n} at ({i}, {j})");
                }
            }
        }
    }
}
