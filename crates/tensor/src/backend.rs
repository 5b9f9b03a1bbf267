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
//! The active backend is resolved once per process from `LCREC_BACKEND`
//! (`blocked` by default, `reference` to pin the anchor; documented in
//! `docs/ENVIRONMENT.md`). Since both backends are bit-identical the switch
//! can never change results — it exists so the benchmark suite and any
//! future (e.g. SIMD-intrinsic) backend can be A/B'd under one flag.

use std::sync::atomic::{AtomicU8, Ordering};

/// Rows of a [`BlockedBackend`] register tile (a lone `k = 4` request is
/// one tile high; 3/2/1-row tails run the same code).
const MR: usize = 4;
/// Columns of a tile: wide enough to amortise `gemm_acc`'s per-(row, `k`)
/// zero test. 4 x 32 was best or within 10% of it on every model shape.
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
    /// bench reports and `LCREC_BACKEND`.
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
    /// `a` (`[R, k]`) and `out` (`[R, n]`) hold.
    #[inline]
    fn tile<const R: usize>(a: &[f32], b: &[f32], out: &mut [f32], k: usize, n: usize, j0: usize, skip_zero: bool) {
        let mut acc = [[0.0f32; NR]; R];
        for (accr, orow) in acc.iter_mut().zip(out.chunks_exact(n)) {
            accr.copy_from_slice(&orow[j0..j0 + NR]); // lint: allow(panic, reason = "j0 + NR <= n: the caller only tiles the whole NR-column strips of an n-wide row")
        }
        for (kk, brow) in b.chunks_exact(n).enumerate() {
            let bseg = &brow[j0..j0 + NR]; // lint: allow(panic, reason = "j0 + NR <= n: the caller only tiles the whole NR-column strips of an n-wide row")
            for (accr, arow) in acc.iter_mut().zip(a.chunks_exact(k)) {
                let av = arow[kk]; // lint: allow(panic, reason = "kk enumerates the k rows of b and every a row is k long")
                if skip_zero && av == 0.0 {
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
    fn gemm_tiled(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize, skip_zero: bool) {
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
                    1 => Self::tile::<1>(ablk, b, oblk, k, n, j0, skip_zero),
                    2 => Self::tile::<2>(ablk, b, oblk, k, n, j0, skip_zero),
                    3 => Self::tile::<3>(ablk, b, oblk, k, n, j0, skip_zero),
                    _ => Self::tile::<MR>(ablk, b, oblk, k, n, j0, skip_zero),
                }
            }
        }
        // The last `n % NR` columns: plain row-times-segment updates.
        if tiled < n {
            for (arow, orow) in a.chunks_exact(k).zip(out.chunks_exact_mut(n)) {
                let oseg = &mut orow[tiled..]; // lint: allow(panic, reason = "tiled <= n, the row's length")
                for (&av, brow) in arow.iter().zip(b.chunks_exact(n)) {
                    if skip_zero && av == 0.0 {
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
        BlockedBackend::gemm_tiled(a, b, out, m, k, n, true);
    }

    fn gemm_dense_acc(&self, a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
        BlockedBackend::gemm_tiled(a, b, out, m, k, n, false);
    }
}

static REFERENCE: ReferenceBackend = ReferenceBackend;
static BLOCKED: BlockedBackend = BlockedBackend;

/// 0 = undecided, 1 = reference, 2 = blocked.
static STATE: AtomicU8 = AtomicU8::new(0);

/// Looks a backend up by its [`InferenceBackend::name`].
pub fn backend_by_name(name: &str) -> Option<&'static dyn InferenceBackend> {
    match name.trim() {
        "reference" | "ref" => Some(&REFERENCE),
        "blocked" => Some(&BLOCKED),
        _ => None,
    }
}

/// The process-wide inference backend, resolved once from `LCREC_BACKEND`
/// (`blocked` unless the variable names another backend; unknown values
/// keep the default). Both built-in backends are bit-identical, so the
/// switch can never change decode results — only their speed.
///
/// # Examples
///
/// ```
/// use lcrec_tensor::active_backend;
///
/// let backend = active_backend();
/// assert!(matches!(backend.name(), "reference" | "blocked"));
///
/// // The fused decode path drives the whole transformer step through
/// // the two kernels on this handle:
/// let (a, b, mut out) = ([2.0f32, -1.0], [3.0f32, 0.25], [0.0f32; 1]);
/// backend.gemm_dense_acc(&a, &b, &mut out, 1, 2, 1);
/// assert_eq!(out[0], 2.0 * 3.0 + -1.0 * 0.25);
/// ```
pub fn active_backend() -> &'static dyn InferenceBackend {
    match STATE.load(Ordering::Relaxed) {
        1 => &REFERENCE,
        2 => &BLOCKED,
        _ => {
            // The env string maps straight to a state code (mirroring
            // `backend_by_name`'s table) rather than via a method call on
            // the chosen `dyn` backend, which static panic analysis could
            // not type precisely.
            let code = match std::env::var("LCREC_BACKEND").ok().as_deref().map(str::trim) {
                Some("reference") | Some("ref") => 1,
                _ => 2,
            };
            STATE.store(code, Ordering::Relaxed);
            if code == 1 {
                &REFERENCE
            } else {
                &BLOCKED
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random fill (xorshift; no external RNG here).
    fn fill(seed: &mut u64, out: &mut [f32], with_zeros: bool) {
        for v in out {
            *seed ^= *seed << 13;
            *seed ^= *seed >> 7;
            *seed ^= *seed << 17;
            let r = ((*seed >> 16) & 0xffff) as f32 / 65536.0 - 0.5;
            *v = if with_zeros && (*seed & 7) == 0 { 0.0 } else { r };
        }
    }

    /// Every tile shape: full tiles, each row tail (M mod MR) and column
    /// tails on both sides of NR, as `(m, k, n, a, b, out)` with
    /// zero-bearing `a` (one `-0.0`; row 1 all zero) and a non-zero `out`
    /// (row 1 all `-0.0`, which only the zero-skipping kernel leaves so).
    fn tile_cases() -> Vec<(usize, usize, usize, Vec<f32>, Vec<f32>, Vec<f32>)> {
        let mut seed = 42u64;
        let mut cases = Vec::new();
        for m in 1..=9usize {
            for n in [1usize, 31, 32, 33, 70, 130, 200, 320] {
                for k in [1usize, 17, 128] {
                    let mut a = vec![0.0f32; m * k];
                    let mut b = vec![0.0f32; k * n];
                    let mut out = vec![0.0f32; m * n];
                    fill(&mut seed, &mut a, true);
                    fill(&mut seed, &mut b, false);
                    fill(&mut seed, &mut out, false);
                    if m > 1 {
                        a[k..2 * k].fill(0.0);
                        out[n..2 * n].fill(-0.0);
                    }
                    a[k / 2] = -0.0;
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
        for (m, k, n, a, b, out) in tile_cases() {
            let (mut r1, mut r2) = (out.clone(), out.clone());
            ReferenceBackend.gemm_acc(&a, &b, &mut r1, m, k, n);
            BlockedBackend.gemm_acc(&a, &b, &mut r2, m, k, n);
            assert_eq!(bits(&r1), bits(&r2), "gemm_acc {m}x{k}x{n}");
            let (mut d1, mut d2) = (out.clone(), out);
            ReferenceBackend.gemm_dense_acc(&a, &b, &mut d1, m, k, n);
            BlockedBackend.gemm_dense_acc(&a, &b, &mut d2, m, k, n);
            assert_eq!(bits(&d1), bits(&d2), "gemm_dense_acc {m}x{k}x{n}");
        }
    }

    #[test]
    fn dense_kernel_matches_scalar_dot_bit_for_bit() {
        // The LM head contract: one output element == the scalar loop,
        // started from the element's initial value.
        for (m, k, n, a, b, init) in tile_cases() {
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

    #[test]
    fn lookup_and_active_backend() {
        assert_eq!(backend_by_name("reference").map(|b| b.name()), Some("reference"));
        assert_eq!(backend_by_name("ref").map(|b| b.name()), Some("reference"));
        assert_eq!(backend_by_name("blocked").map(|b| b.name()), Some("blocked"));
        assert!(backend_by_name("simd9000").is_none());
        let active = active_backend().name();
        assert!(active == "reference" || active == "blocked");
    }
}
