//! The decoder-only causal language model — the LLaMA substitute.
//!
//! Architecture (LLaMA-flavoured at reduced scale): token + learned absolute
//! position embeddings, pre-RMSNorm blocks with multi-head causal attention
//! and gated-SiLU feed-forward, a final RMSNorm, and a weight-tied LM head.
//! (The paper's backbone uses rotary embeddings; learned absolute positions
//! are an equivalent-capacity substitute at this scale — see DESIGN.md.)
//!
//! Two execution paths:
//! * **training** — define-by-run autograd graphs with teacher forcing and
//!   response-only loss (Eqn. 7);
//! * **inference** — a raw, allocation-light path with a per-sequence
//!   [`KvCache`], the optimization the paper highlights in §III-D2. There
//!   is one fused forward over a caller-owned [`DecodeScratch`], entered
//!   two ways: [`CausalLm::prefill_batch_fused`] (whole prompts) and
//!   [`CausalLm::advance_batch_fused`] (one token into each of many cache
//!   slots). A row never reads another row, so batched serving
//!   (`lcrec-serve`) is bit-identical to decoding one request alone.
//!
//! [`CausalLm::advance_batch`] is the unfused reference step the fused
//! forward is bit-compared against in tests; it is not a serving entry
//! point.

use lcrec_par::Pool;
use lcrec_tensor::{
    init, matmul_acc, softmax_rows, AdamW, Graph, ParamId, ParamStore, Schedule, Tensor, Var,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::borrow::BorrowMut;

/// LM hyperparameters.
#[derive(Clone, Debug)]
pub struct LmConfig {
    /// Vocabulary size (base words + index tokens).
    pub vocab: usize,
    /// Model width.
    pub dim: usize,
    /// Transformer blocks.
    pub layers: usize,
    /// Attention heads.
    pub heads: usize,
    /// FFN hidden width.
    pub ff_hidden: usize,
    /// Maximum sequence length.
    pub max_seq: usize,
    /// Dropout during training.
    pub dropout: f32,
    /// Seed for initialization.
    pub seed: u64,
}

impl LmConfig {
    /// A configuration sized for the small dataset presets.
    pub fn small(vocab: usize) -> Self {
        LmConfig { vocab, dim: 48, layers: 2, heads: 4, ff_hidden: 96, max_seq: 112, dropout: 0.1, seed: 1234 }
    }

    /// A micro configuration for unit tests.
    pub fn test(vocab: usize) -> Self {
        LmConfig { vocab, dim: 16, layers: 1, heads: 2, ff_hidden: 32, max_seq: 48, dropout: 0.0, seed: 5 }
    }

    /// The scale-tier configuration: wide and deep enough that the weight
    /// set (reported by [`CausalLm::param_bytes`]) exceeds a typical
    /// last-level cache, so every weight pass at this tier comes from
    /// memory — the regime `results/scale.md` measures. A batch's steps are
    /// bound by arithmetic, not bandwidth, even there: a pass is shared by
    /// every row of a step (docs/PERFORMANCE.md, roofline table).
    pub fn large(vocab: usize) -> Self {
        LmConfig { vocab, dim: 320, layers: 5, heads: 8, ff_hidden: 640, max_seq: 160, dropout: 0.1, seed: 1234 }
    }
}

#[derive(Debug)]
struct Block {
    norm1: ParamId,
    wq: ParamId,
    wk: ParamId,
    wv: ParamId,
    wo: ParamId,
    norm2: ParamId,
    w_gate: ParamId,
    w_up: ParamId,
    w_down: ParamId,
}

/// The causal LM.
#[derive(Debug)]
pub struct CausalLm {
    cfg: LmConfig,
    ps: ParamStore,
    tok_emb: ParamId,
    pos_emb: ParamId,
    blocks: Vec<Block>,
    final_norm: ParamId,
}

/// Per-sequence attention cache: keys/values for every layer and head.
#[derive(Clone)]
#[derive(Debug)]
pub struct KvCache {
    /// `k[layer]` is `[len, dim]` flattened (head-major within a row).
    k: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
    len: usize,
}

impl KvCache {
    /// Number of cached positions.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The cached `(keys, values)` of one layer, each `[len, dim]`
    /// flattened — what the bit-identity tests compare between decode
    /// paths. `None` past the model's last layer.
    pub fn layer(&self, layer: usize) -> Option<(&[f32], &[f32])> {
        Some((self.k.get(layer)?.as_slice(), self.v.get(layer)?.as_slice()))
    }
}

/// Preallocated working memory for the fused decode fast path
/// ([`CausalLm::advance_batch_fused`]).
///
/// The reference step ([`CausalLm::advance_batch`]) allocates every
/// intermediate (`x`, q/k/v, attention context, FFN activations, logits)
/// fresh on each call; profiling (`results/profile.md`) shows that decode
/// dominates end-to-end cost, so those allocations sit on the hottest loop
/// of the system. A `DecodeScratch` hoists all of them into buffers that
/// are reused across decode steps — after the first step at a given batch
/// size the fused path allocates nothing per row (a multi-lane step builds
/// one small descriptor per lane).
///
/// The scratch also caches the transpose of the tied LM head
/// (`tok_emb^T`), turning the per-token logit computation from
/// `vocab` scalar dot products into one dense matmul whose inner loop
/// runs contiguously over the vocabulary (see `docs/PERFORMANCE.md`).
///
/// # Lanes
///
/// The scratch carries the [`Pool`] the fused step may spread its rows
/// over: a step's cache slots are cut into contiguous **lanes**, one per
/// pool worker, and each lane runs the whole transformer step for its rows
/// on a buffer set of its own (`docs/PERFORMANCE.md`, "Lanes"). Rows never
/// interact inside a step, so the logits and caches are bit-identical at
/// any lane count. [`CausalLm::new_scratch`] takes [`Pool::from_env`]; the
/// beam search installs the pool it was called with for the duration of
/// the call ([`DecodeScratch::set_pool`]), so a search given
/// [`Pool::serial`] spawns nothing.
///
/// # Lifecycle
///
/// Create one with [`CausalLm::new_scratch`] *after* the model is trained
/// and reuse it for any number of decode calls against that model: the
/// cached head transpose is a snapshot of `tok_emb` taken at construction,
/// so a scratch must not outlive a parameter update (create a fresh one
/// after further training). The serving engine holds one scratch for its
/// whole lifetime — it borrows the model immutably, so the parameters
/// cannot change underneath it. [`CausalLm::sequence_logprob`] and
/// [`CausalLm::greedy`] make a scratch of their own per call.
#[derive(Clone, Debug)]
pub struct DecodeScratch {
    /// `tok_emb` transposed to `[dim, vocab]` for the tied-head matmul.
    head_t: Vec<f32>,
    /// The model's scalar parameter count: multiply-adds one row costs.
    row_work: usize,
    pool: Pool,
    /// One buffer set per lane, grown to the widest step seen.
    lanes: Vec<LaneScratch>,
    /// The packed logit rows [`CausalLm::advance_batch_fused`] returns.
    logits: Vec<f32>,
}

impl DecodeScratch {
    /// Replaces the pool the fused step spreads its lanes over and
    /// returns the previous one, so a caller can restore it.
    pub fn set_pool(&mut self, pool: Pool) -> Pool {
        std::mem::replace(&mut self.pool, pool)
    }

    /// How many lanes a fused step over `rows` rows (or a prefill of
    /// `rows` tokens) made of `parts` separable pieces — cache slots, or
    /// sequences — runs on: one per pool worker, as long as every lane
    /// carries at least `LANE_MIN_WORK` (rows × the model's parameter
    /// count). Decided from the step's own size, so a lone small request
    /// never pays a spawn; `1` means the step runs inline. The constant
    /// was re-measured under the committed `target-cpu=native` build and
    /// held: cheaper projections moved break-even only from 4–5 to 4–6
    /// rows.
    pub fn lanes_for(&self, parts: usize, rows: usize) -> usize {
        let by_work = rows.saturating_mul(self.row_work) / LANE_MIN_WORK;
        self.pool.threads().min(parts).min(by_work).max(1)
    }

    /// [`DecodeScratch::lanes_for`], with a buffer set ready for each lane.
    fn lanes_ready(&mut self, parts: usize, rows: usize) -> usize {
        let lanes = self.lanes_for(parts, rows);
        if self.lanes.len() < lanes {
            self.lanes.resize_with(lanes, LaneScratch::default);
        }
        lanes
    }
}

/// One lane's activation buffers: flat, row-major over the lane's rows.
#[derive(Clone, Debug, Default)]
struct LaneScratch {
    xs: Vec<f32>,
    xn: Vec<f32>,
    q: Vec<f32>,
    k: Vec<f32>,
    v: Vec<f32>,
    ctx: Vec<f32>,
    att: Vec<f32>,
    gate: Vec<f32>,
    up: Vec<f32>,
    hid: Vec<f32>,
    down: Vec<f32>,
    scores: Vec<f32>,
    probs: Vec<f32>,
    xf: Vec<f32>,
    /// Last-token logits of a prefill lane's current pass (decode lanes
    /// write straight into their slice of [`DecodeScratch::logits`]).
    logits: Vec<f32>,
}

/// The rows one decode lane owns: disjoint slices of the step's inputs and
/// of the packed logit buffer.
struct DecodeLane<'a, 'c> {
    scratch: &'a mut LaneScratch,
    caches: &'a mut [&'c mut KvCache],
    tokens: &'a [u32],
    logits: &'a mut [f32],
}

/// The sequences one prefill lane owns, with their output rows.
struct PrefillLane<'a> {
    scratch: &'a mut LaneScratch,
    caches: &'a mut [KvCache],
    seqs: &'a [&'a [u32]],
    outs: &'a mut [Vec<f32>],
}

/// Least work (rows × scalar parameters, i.e. multiply-adds) a lane must
/// carry to be worth its spawn. Measured on the 2-core benchmark box:
/// spawning and joining one scoped worker costs 53–66 µs
/// (`par.map_spawn_us`) and a 0.54 M-parameter row takes 97–152 µs with
/// the register-tiled kernel (148–181 µs on the panel kernel it replaced,
/// alternating runs), so this is about three rows — five to six spawns —
/// per lane. With the threshold forced to 1, two lanes against one on that
/// model read 0.93–1.10x at 4 rows, 0.87–1.25x at 6, 0.99–1.30x at 10 and
/// 1.28–1.43x at 20: break-even stayed at 4–5 rows when the kernel
/// changed, so the constant held. It held again under the host-CPU build
/// target: rows there cost 50–105 µs against 120–150 µs on the baseline
/// target, but only the projections got wider, and two lanes read
/// 0.78–1.12x at 4 rows, 0.87–1.37x at 6 and 1.19–1.30x at 10, so
/// break-even sits at 4–6 rows. A lone request's `k = 4` rows (2.2 M)
/// stay inline and six rows and up split. See
/// [`DecodeScratch::lanes_for`] and docs/PERFORMANCE.md.
const LANE_MIN_WORK: usize = 1_500_000;

/// Most prompt tokens a prefill lane feeds through the fused forward at
/// once: its buffers are `rows x ff_hidden` and stay allocated, and past
/// 64 rows a weight pass buys nothing more (docs/PERFORMANCE.md, "Lanes").
const PREFILL_PASS_ROWS: usize = 64;

/// Cuts `weights` into `lanes` contiguous runs of near-equal total weight
/// and returns each run's length: run `i` ends at the first element where
/// the running total reaches `(i + 1) / lanes` of the whole, and the last
/// run takes whatever is left. Unit weights give lengths that differ by at
/// most one.
fn lane_lens(weights: impl Iterator<Item = usize> + Clone, lanes: usize) -> Vec<usize> {
    let total: usize = weights.clone().sum();
    let mut lens = vec![0usize; lanes];
    let (mut lane, mut seen) = (0usize, 0usize);
    for w in weights {
        if let Some(len) = lens.get_mut(lane) {
            *len += 1;
        }
        seen += w;
        while lane + 1 < lanes && seen * lanes >= (lane + 1) * total {
            lane += 1;
        }
    }
    lens
}

/// Grows `buf` to `len` elements, all zero, without shrinking its
/// capacity — after warm-up this never allocates.
fn ensure_zeroed(buf: &mut Vec<f32>, len: usize) {
    buf.clear();
    buf.resize(len, 0.0);
}

impl CausalLm {
    /// Builds an untrained LM.
    pub fn new(cfg: LmConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut ps = ParamStore::new();
        let tok_emb = ps.add_no_decay("tok_emb", init::lm_default(&[cfg.vocab, cfg.dim], &mut rng));
        let pos_emb = ps.add_no_decay("pos_emb", init::lm_default(&[cfg.max_seq, cfg.dim], &mut rng));
        let blocks = (0..cfg.layers)
            .map(|l| Block {
                norm1: ps.add_no_decay(&format!("b{l}.norm1"), Tensor::full(&[cfg.dim], 1.0)),
                wq: ps.add(&format!("b{l}.wq"), init::xavier(&[cfg.dim, cfg.dim], &mut rng)),
                wk: ps.add(&format!("b{l}.wk"), init::xavier(&[cfg.dim, cfg.dim], &mut rng)),
                wv: ps.add(&format!("b{l}.wv"), init::xavier(&[cfg.dim, cfg.dim], &mut rng)),
                wo: ps.add(&format!("b{l}.wo"), init::xavier(&[cfg.dim, cfg.dim], &mut rng)),
                norm2: ps.add_no_decay(&format!("b{l}.norm2"), Tensor::full(&[cfg.dim], 1.0)),
                w_gate: ps.add(&format!("b{l}.w_gate"), init::xavier(&[cfg.dim, cfg.ff_hidden], &mut rng)),
                w_up: ps.add(&format!("b{l}.w_up"), init::xavier(&[cfg.dim, cfg.ff_hidden], &mut rng)),
                w_down: ps.add(&format!("b{l}.w_down"), init::xavier(&[cfg.ff_hidden, cfg.dim], &mut rng)),
            })
            .collect();
        let final_norm = ps.add_no_decay("final_norm", Tensor::full(&[cfg.dim], 1.0));
        CausalLm { cfg, ps, tok_emb, pos_emb, blocks, final_norm }
    }

    /// The configuration.
    pub fn config(&self) -> &LmConfig {
        &self.cfg
    }

    /// Total scalar parameters.
    pub fn num_params(&self) -> usize {
        self.ps.num_scalars()
    }

    /// Resident weight size in bytes (f32 scalars). The scale benchmark
    /// reports this to show whether a tier's weights fit in cache.
    pub fn param_bytes(&self) -> usize {
        self.num_params() * std::mem::size_of::<f32>()
    }

    /// The token-embedding matrix (for Figure 4's visualization).
    pub fn token_embeddings(&self) -> &Tensor {
        self.ps.value(self.tok_emb)
    }

    // ---------------------------------------------------------------- train

    /// Graph forward over `[b, t]` right-padded token rows → logits
    /// `[b*t, vocab]`.
    pub fn forward_logits(&self, g: &mut Graph, tokens: &[u32], b: usize, t: usize) -> Var {
        assert!(t <= self.cfg.max_seq, "sequence {t} exceeds max_seq {}", self.cfg.max_seq);
        let table = g.param(&self.ps, self.tok_emb);
        let x = g.embedding(table, tokens);
        let pos_table = g.param(&self.ps, self.pos_emb);
        let pos_ids: Vec<u32> = (0..b).flat_map(|_| 0..t as u32).collect();
        let p = g.embedding(pos_table, &pos_ids);
        let x = g.add(x, p);
        let mut x = g.dropout(x, self.cfg.dropout);
        let mask = crate::mask_cache(t);
        for blk in &self.blocks {
            x = self.block_forward(g, blk, x, b, t, &mask);
        }
        let gamma = g.param(&self.ps, self.final_norm);
        let x = g.rms_norm(x, gamma, 1e-6);
        g.matmul_nt(x, table)
    }

    fn block_forward(&self, g: &mut Graph, blk: &Block, x: Var, b: usize, t: usize, mask: &Tensor) -> Var {
        let h = self.cfg.heads;
        let dh = self.cfg.dim / h;
        let g1 = g.param(&self.ps, blk.norm1);
        let xn = g.rms_norm(x, g1, 1e-6);
        let wq = g.param(&self.ps, blk.wq);
        let wk = g.param(&self.ps, blk.wk);
        let wv = g.param(&self.ps, blk.wv);
        let q = g.matmul(xn, wq);
        let k = g.matmul(xn, wk);
        let v = g.matmul(xn, wv);
        let qh = g.split_heads(q, b, t, h);
        let kh = g.split_heads(k, b, t, h);
        let vh = g.split_heads(v, b, t, h);
        let scores = g.bmm_nt(qh, kh);
        let scores = g.scale(scores, 1.0 / (dh as f32).sqrt());
        let flat = g.reshape(scores, &[b * h * t, t]);
        let masked = g.add_cycle_const(flat, mask);
        let resh = g.reshape(masked, &[b * h, t, t]);
        let probs = g.softmax(resh);
        let probs = g.dropout(probs, self.cfg.dropout);
        let ctx = g.bmm(probs, vh);
        let merged = g.merge_heads(ctx, b, t, h);
        let wo = g.param(&self.ps, blk.wo);
        let att = g.matmul(merged, wo);
        let att = g.dropout(att, self.cfg.dropout);
        let x = g.add(x, att);
        // Gated FFN.
        let g2 = g.param(&self.ps, blk.norm2);
        let xn2 = g.rms_norm(x, g2, 1e-6);
        let wg = g.param(&self.ps, blk.w_gate);
        let wu = g.param(&self.ps, blk.w_up);
        let wd = g.param(&self.ps, blk.w_down);
        let gate = g.matmul(xn2, wg);
        let gate = g.silu(gate);
        let up = g.matmul(xn2, wu);
        let hid = g.mul(gate, up);
        let down = g.matmul(hid, wd);
        let down = g.dropout(down, self.cfg.dropout);
        g.add(x, down)
    }

    /// Mutable parameter access (the trainer drives the optimizer).
    pub fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.ps
    }

    /// Immutable parameter access.
    pub fn store(&self) -> &ParamStore {
        &self.ps
    }

    // ------------------------------------------------------------- inference

    /// An empty cache.
    pub fn new_cache(&self) -> KvCache {
        KvCache {
            k: vec![Vec::new(); self.cfg.layers],
            v: vec![Vec::new(); self.cfg.layers],
            len: 0,
        }
    }

    /// The unfused **reference** step, kept as the semantics anchor the
    /// fused forward is bit-compared against (`tests/decode.rs`,
    /// `tests/properties.rs`); it is not a serving entry point and records
    /// no observability. Feeds one token into each of `b` independent
    /// sequences: `caches[i]` receives `tokens[i]`, and slots may sit at
    /// different positions. Returns one logit row per slot, in slot order.
    /// A prompt is referenced by feeding it one token at a time.
    ///
    /// Every intermediate is allocated fresh and each row's arithmetic
    /// (RMS norm, attention over the slot's own cache, gated FFN, tied-head
    /// logits as scalar dot products) reads no other row.
    pub fn advance_batch(&self, caches: &mut [&mut KvCache], tokens: &[u32]) -> Vec<Vec<f32>> {
        assert_eq!(caches.len(), tokens.len(), "one token per cache slot");
        let b = caches.len();
        if b == 0 {
            return Vec::new();
        }
        let d = self.cfg.dim;
        let h = self.cfg.heads;
        let dh = d / h;
        let tok_table = self.ps.value(self.tok_emb);
        let pos_table = self.ps.value(self.pos_emb);
        let mut xs = vec![0.0f32; b * d];
        for ((&token, cache), row) in
            tokens.iter().zip(caches.iter()).zip(xs.chunks_exact_mut(d))
        {
            let pos = cache.len.min(self.cfg.max_seq - 1);
            row.copy_from_slice(tok_table.row(token as usize));
            for (xi, pi) in row.iter_mut().zip(pos_table.row(pos)) {
                *xi += pi;
            }
        }
        for (l, blk) in self.blocks.iter().enumerate() {
            let xn = rms_rows(&xs, self.ps.value(blk.norm1).data(), b);
            let q = batmat(&xn, self.ps.value(blk.wq), b);
            let k = batmat(&xn, self.ps.value(blk.wk), b);
            let v = batmat(&xn, self.ps.value(blk.wv), b);
            let scale = 1.0 / (dh as f32).sqrt();
            let mut ctx = vec![0.0f32; b * d];
            for (r, cache) in caches.iter_mut().enumerate() {
                cache.k[l].extend_from_slice(&k[r * d..(r + 1) * d]);
                cache.v[l].extend_from_slice(&v[r * d..(r + 1) * d]);
                let t = cache.len + 1;
                for head in 0..h {
                    let qh = &q[r * d + head * dh..r * d + (head + 1) * dh];
                    // Scores over all of this slot's cached positions.
                    let mut scores = Vec::with_capacity(t);
                    for ti in 0..t {
                        let kh = &cache.k[l][ti * d + head * dh..ti * d + (head + 1) * dh];
                        let dot: f32 = qh.iter().zip(kh).map(|(qv, kv)| qv * kv).sum();
                        scores.push(dot * scale);
                    }
                    let mut probs = vec![0.0f32; t];
                    softmax_rows(&scores, &mut probs, t);
                    let out = &mut ctx[r * d + head * dh..r * d + (head + 1) * dh];
                    for (ti, &p) in probs.iter().enumerate() {
                        let vh = &cache.v[l][ti * d + head * dh..ti * d + (head + 1) * dh];
                        for (o, &vv) in out.iter_mut().zip(vh) {
                            *o += p * vv;
                        }
                    }
                }
            }
            let att = batmat(&ctx, self.ps.value(blk.wo), b);
            for (xi, a) in xs.iter_mut().zip(&att) {
                *xi += a;
            }
            let xn2 = rms_rows(&xs, self.ps.value(blk.norm2).data(), b);
            let gate = batmat(&xn2, self.ps.value(blk.w_gate), b);
            let up = batmat(&xn2, self.ps.value(blk.w_up), b);
            let hid: Vec<f32> = gate
                .iter()
                .zip(&up)
                .map(|(&gv, &uv)| gv * lcrec_tensor::sigmoid(gv) * uv)
                .collect();
            let down = batmat(&hid, self.ps.value(blk.w_down), b);
            for (xi, dv) in xs.iter_mut().zip(&down) {
                *xi += dv;
            }
        }
        let mut out = Vec::with_capacity(b);
        for (cache, xrow) in caches.iter_mut().zip(xs.chunks_exact(d)) {
            cache.len += 1;
            let xf = rms_vec(xrow, self.ps.value(self.final_norm).data());
            // Tied head: logits = xf @ tok_emb^T.
            let mut logits = vec![0.0f32; self.cfg.vocab];
            for (vi, logit) in logits.iter_mut().enumerate() {
                let row = tok_table.row(vi);
                let mut acc = 0.0;
                for (a, w) in xf.iter().zip(row) {
                    acc += a * w;
                }
                *logit = acc;
            }
            out.push(logits);
        }
        out
    }

    /// Allocates a [`DecodeScratch`] for this model's current parameters,
    /// caching the tied-head transpose, with [`Pool::from_env`] as its lane
    /// pool. See the scratch's lifecycle notes: create it after training,
    /// before decoding.
    pub fn new_scratch(&self) -> DecodeScratch {
        let tok_table = self.ps.value(self.tok_emb);
        DecodeScratch {
            head_t: tok_table.transposed().data().to_vec(),
            row_work: self.num_params(),
            pool: Pool::from_env(),
            lanes: Vec::new(),
            logits: Vec::new(),
        }
    }

    /// The fused decode step: one token into each of `b` cache slots,
    /// with every intermediate living in `scratch` (no per-row heap
    /// allocation after warm-up) and the matmuls routed through the
    /// process-wide [`lcrec_tensor::InferenceBackend`]. The slots are cut
    /// into contiguous lanes over the scratch's pool (see [`DecodeScratch`]);
    /// each lane runs the whole step for its rows — one weight pass per
    /// lane — and writes its own slice of the packed logits.
    ///
    /// Returns the `b * vocab` logit rows packed in slot order, borrowed
    /// from the scratch (they are overwritten by the next call).
    ///
    /// **Bit-identity contract:** for any cache states, batch size, lane
    /// count and backend, the returned logits and the updated caches are
    /// bit-identical to [`CausalLm::advance_batch`] — a row's arithmetic
    /// never reads another row, and the fused path keeps the reference
    /// path's per-element accumulation order everywhere (`tests/decode.rs`
    /// pins this, and transitively the graph-path equivalence). The
    /// reference implementation stays as the semantics anchor and the
    /// training path is untouched.
    pub fn advance_batch_fused<'s>(
        &self,
        scratch: &'s mut DecodeScratch,
        caches: &mut [&mut KvCache],
        tokens: &[u32],
    ) -> &'s [f32] {
        assert_eq!(caches.len(), tokens.len(), "one token per cache slot");
        let b = caches.len();
        let vocab = self.cfg.vocab;
        ensure_zeroed(&mut scratch.logits, b * vocab);
        if b == 0 {
            return &scratch.logits;
        }
        // Recorded once, on the calling thread: lanes record nothing, so
        // the counters cannot depend on the thread count.
        let obs_watch = lcrec_obs::stopwatch();
        let lanes = scratch.lanes_ready(b, b);
        let DecodeScratch { head_t, pool, lanes: lane_bufs, logits, .. } = scratch;
        debug_assert_eq!(head_t.len(), self.cfg.dim * vocab, "stale scratch: head transpose does not match the model (create the scratch after training)");
        let mut parts: Vec<DecodeLane<'_, '_>> = Vec::with_capacity(lanes);
        let (mut cache_rest, mut token_rest, mut logit_rest) = (caches, tokens, logits.as_mut_slice());
        for (lane, len) in lane_bufs.iter_mut().zip(lane_lens(tokens.iter().map(|_| 1), lanes)) {
            let (lane_caches, rest) = cache_rest.split_at_mut(len);
            cache_rest = rest;
            let (lane_tokens, rest) = token_rest.split_at(len);
            token_rest = rest;
            let (lane_logits, rest) = logit_rest.split_at_mut(len * vocab);
            logit_rest = rest;
            parts.push(DecodeLane { scratch: lane, caches: lane_caches, tokens: lane_tokens, logits: lane_logits });
        }
        pool.for_each_mut(&mut parts, |_, p| {
            self.step_rows(head_t, p.scratch, p.caches, p.tokens.chunks(1), p.logits);
        });
        if obs_watch.running() {
            lcrec_obs::counter_add("lm.decode_tokens", b as u64);
            obs_watch.stop("lm.decode_s");
        }
        &scratch.logits
    }

    /// The one fused forward: a run of tokens into each of `caches` through
    /// the whole transformer. Every token of every run is a row of one GEMM
    /// per projection per layer; a run's K/V rows are appended to its cache
    /// at once and row `t` of a run attends causally over cache rows
    /// `0..=base + t`; the final norm and tied head run on the last row of
    /// each non-empty run only, accumulating into `logits` (zeroed by the
    /// caller, one `vocab`-long row per non-empty run, in slot order). A
    /// decode step is the run-length-1 case. This is a lane's work: it
    /// touches nothing but its arguments and records no observability.
    fn step_rows<'t, C: BorrowMut<KvCache>>(
        &self,
        head_t: &[f32],
        scratch: &mut LaneScratch,
        caches: &mut [C],
        runs: impl Iterator<Item = &'t [u32]> + Clone,
        logits: &mut [f32],
    ) {
        let b: usize = runs.clone().map(<[u32]>::len).sum();
        if b == 0 {
            return;
        }
        let backend = lcrec_tensor::active_backend();
        let d = self.cfg.dim;
        let h = self.cfg.heads;
        let dh = d / h;
        let ff = self.cfg.ff_hidden;
        let tok_table = self.ps.value(self.tok_emb);
        let pos_table = self.ps.value(self.pos_emb);
        ensure_zeroed(&mut scratch.xs, b * d);
        ensure_zeroed(&mut scratch.xn, b * d);
        ensure_zeroed(&mut scratch.att, b * d);
        ensure_zeroed(&mut scratch.hid, b * ff);
        ensure_zeroed(&mut scratch.down, b * d);
        // Attention buffers sized to the deepest slot after this step (the
        // clamp to max_seq is positional only; callers may run longer).
        let depth = |(c, run): (&C, &[u32])| c.borrow().len + run.len();
        let tmax = caches.iter().zip(runs.clone()).map(depth).max().unwrap_or(1);
        ensure_zeroed(&mut scratch.scores, tmax);
        ensure_zeroed(&mut scratch.probs, tmax);
        let mut xrows = scratch.xs.chunks_exact_mut(d);
        for (cache, run) in caches.iter().zip(runs.clone()) {
            for ((t, &token), row) in run.iter().enumerate().zip(&mut xrows) {
                let pos = (cache.borrow().len + t).min(self.cfg.max_seq - 1);
                row.copy_from_slice(tok_table.row(token as usize));
                for (xi, pi) in row.iter_mut().zip(pos_table.row(pos)) {
                    *xi += pi;
                }
            }
        }
        for (l, blk) in self.blocks.iter().enumerate() {
            rms_rows_into(&scratch.xs, self.ps.value(blk.norm1).data(), &mut scratch.xn);
            ensure_zeroed(&mut scratch.q, b * d);
            ensure_zeroed(&mut scratch.k, b * d);
            ensure_zeroed(&mut scratch.v, b * d);
            backend.gemm_acc(&scratch.xn, self.ps.value(blk.wq).data(), &mut scratch.q, b, d, d);
            backend.gemm_acc(&scratch.xn, self.ps.value(blk.wk).data(), &mut scratch.k, b, d, d);
            backend.gemm_acc(&scratch.xn, self.ps.value(blk.wv).data(), &mut scratch.v, b, d, d);
            let scale = 1.0 / (dh as f32).sqrt();
            ensure_zeroed(&mut scratch.ctx, b * d);
            let mut r0 = 0;
            for (cache, run) in caches.iter_mut().zip(runs.clone()) {
                let cache: &mut KvCache = cache.borrow_mut();
                let r1 = r0 + run.len();
                cache.k[l].extend_from_slice(&scratch.k[r0 * d..r1 * d]); // lint: allow(panic, reason = "l enumerates self.blocks, which sized every cache; scratch.k holds b*d values and r1 <= b, the runs' total length")
                cache.v[l].extend_from_slice(&scratch.v[r0 * d..r1 * d]); // lint: allow(panic, reason = "l enumerates self.blocks, which sized every cache; scratch.v holds b*d values and r1 <= b, the runs' total length")
                for (r, t) in (r0..r1).zip(cache.len + 1..) {
                    for head in 0..h {
                        let qh = &scratch.q[r * d + head * dh..r * d + (head + 1) * dh]; // lint: allow(panic, reason = "head < h and h * dh == d, so the slice stays inside row r of the b*d buffer")
                        // Scores over the cached positions this row may see:
                        // the slot's earlier ones and its own run up to r.
                        let scores = &mut scratch.scores[..t]; // lint: allow(panic, reason = "the buffer was sized to the max of every slot's len + run length before the layer loop; t <= cache.len + run.len() for this slot")
                        for (ti, s) in scores.iter_mut().enumerate() {
                            let kh = &cache.k[l][ti * d + head * dh..ti * d + (head + 1) * dh]; // lint: allow(panic, reason = "cache.k[l] holds cache.len + run.len() rows of d values after the extend above; ti < t")
                            let dot: f32 = qh.iter().zip(kh).map(|(qv, kv)| qv * kv).sum();
                            *s = dot * scale;
                        }
                        let probs = &mut scratch.probs[..t]; // lint: allow(panic, reason = "sized with scores, to at least t")
                        softmax_rows(scores, probs, t);
                        let out = &mut scratch.ctx[r * d + head * dh..r * d + (head + 1) * dh]; // lint: allow(panic, reason = "ctx was sized to b*d zeros; r < b and head < h with h * dh == d")
                        for (ti, &p) in probs.iter().enumerate() {
                            let vh = &cache.v[l][ti * d + head * dh..ti * d + (head + 1) * dh]; // lint: allow(panic, reason = "cache.v[l] holds cache.len + run.len() rows of d values after the extend above; ti < t")
                            for (o, &vv) in out.iter_mut().zip(vh) {
                                *o += p * vv;
                            }
                        }
                    }
                }
                r0 = r1;
            }
            scratch.att.fill(0.0);
            backend.gemm_acc(&scratch.ctx, self.ps.value(blk.wo).data(), &mut scratch.att, b, d, d);
            for (xi, a) in scratch.xs.iter_mut().zip(&scratch.att) {
                *xi += a;
            }
            rms_rows_into(&scratch.xs, self.ps.value(blk.norm2).data(), &mut scratch.xn);
            ensure_zeroed(&mut scratch.gate, b * ff);
            ensure_zeroed(&mut scratch.up, b * ff);
            backend.gemm_acc(&scratch.xn, self.ps.value(blk.w_gate).data(), &mut scratch.gate, b, d, ff);
            backend.gemm_acc(&scratch.xn, self.ps.value(blk.w_up).data(), &mut scratch.up, b, d, ff);
            for ((hv, &gv), &uv) in scratch.hid.iter_mut().zip(&scratch.gate).zip(&scratch.up) {
                *hv = gv * lcrec_tensor::sigmoid(gv) * uv;
            }
            scratch.down.fill(0.0);
            backend.gemm_acc(&scratch.hid, self.ps.value(blk.w_down).data(), &mut scratch.down, b, ff, d);
            for (xi, dv) in scratch.xs.iter_mut().zip(&scratch.down) {
                *xi += dv;
            }
        }
        for (cache, run) in caches.iter_mut().zip(runs.clone()) {
            cache.borrow_mut().len += run.len();
        }
        // Final norm on each non-empty run's last row, packed run by run.
        let ended = runs.clone().filter(|run| !run.is_empty()).count();
        debug_assert_eq!(logits.len(), ended * self.cfg.vocab, "one logit row per non-empty run");
        ensure_zeroed(&mut scratch.xf, ended * d);
        let mut r1 = 0;
        for (run, xf) in runs.filter(|run| !run.is_empty()).zip(scratch.xf.chunks_exact_mut(d)) {
            r1 += run.len();
            rms_rows_into(&scratch.xs[(r1 - 1) * d..r1 * d], self.ps.value(self.final_norm).data(), xf); // lint: allow(panic, reason = "r1 <= b, the runs' total length, and xs holds b*d values")
        }
        // Tied head: logits = xf @ tok_emb^T, through the cached transpose
        // so the inner loop streams contiguously over the vocabulary. The
        // dense kernel keeps every `+ 0.0 * w` term, matching the scalar
        // dot loop of the reference path bit for bit.
        backend.gemm_dense_acc(&scratch.xf, head_t, logits, ended, d, self.cfg.vocab);
    }

    /// The fused prefill, **sequence-major**: `caches[i]` receives all of
    /// `seqs[i]`. The sequences are cut into contiguous lanes of
    /// near-equal token count over the scratch's pool (one spawn per
    /// prefill), and each lane feeds **its own** sequences through the fused
    /// forward whole — every prompt token a GEMM row, the weights walked
    /// once per pass instead of once per position, the head run on each
    /// sequence's last token only. Returns the logits after each
    /// sequence's last token, in slot order (empty rows for empty
    /// sequences). Logits and caches are bit-identical, at any lane count,
    /// to feeding each sequence one token at a time through
    /// [`CausalLm::advance_batch`]: a row's arithmetic never depends on its
    /// batch-mates, and attention reads the same cache values.
    pub fn prefill_batch_fused(
        &self,
        scratch: &mut DecodeScratch,
        caches: &mut [KvCache],
        seqs: &[&[u32]],
    ) -> Vec<Vec<f32>> {
        assert_eq!(caches.len(), seqs.len(), "one cache per sequence");
        let mut outs = vec![Vec::new(); seqs.len()];
        let tokens: usize = seqs.iter().map(|s| s.len()).sum();
        if tokens == 0 {
            return outs;
        }
        let obs_watch = lcrec_obs::stopwatch();
        let lanes = scratch.lanes_ready(seqs.len(), tokens);
        let DecodeScratch { head_t, pool, lanes: lane_bufs, .. } = scratch;
        let mut parts: Vec<PrefillLane<'_>> = Vec::with_capacity(lanes);
        let (mut cache_rest, mut seq_rest, mut out_rest) = (caches, seqs, outs.as_mut_slice());
        for (lane, len) in lane_bufs.iter_mut().zip(lane_lens(seqs.iter().map(|s| s.len()), lanes)) {
            let (lane_caches, rest) = cache_rest.split_at_mut(len);
            cache_rest = rest;
            let (lane_seqs, rest) = seq_rest.split_at(len);
            seq_rest = rest;
            let (lane_outs, rest) = out_rest.split_at_mut(len);
            out_rest = rest;
            parts.push(PrefillLane { scratch: lane, caches: lane_caches, seqs: lane_seqs, outs: lane_outs });
        }
        pool.for_each_mut(&mut parts, |_, p| self.prefill_lane(head_t, p));
        if obs_watch.running() {
            lcrec_obs::counter_add("lm.prefill_tokens", tokens as u64);
            obs_watch.stop("lm.prefill_s");
        }
        outs
    }

    /// Prefills one lane's sequences, in passes of whole sequences of at
    /// most [`PREFILL_PASS_ROWS`] tokens (a longer sequence is a pass of
    /// its own), so the lane's buffers stay bounded.
    fn prefill_lane(&self, head_t: &[f32], lane: &mut PrefillLane<'_>) {
        let vocab = self.cfg.vocab;
        let mut logits = std::mem::take(&mut lane.scratch.logits);
        while !lane.seqs.is_empty() {
            let mut rows = 0;
            let fits = |seq: &&&[u32]| {
                rows += seq.len();
                rows <= PREFILL_PASS_ROWS || rows == seq.len()
            };
            let pass = lane.seqs.iter().take_while(fits).count();
            let (seqs, seq_rest) = lane.seqs.split_at(pass);
            let (caches, cache_rest) = std::mem::take(&mut lane.caches).split_at_mut(pass);
            let (outs, out_rest) = std::mem::take(&mut lane.outs).split_at_mut(pass);
            (lane.seqs, lane.caches, lane.outs) = (seq_rest, cache_rest, out_rest);
            let ended = seqs.iter().filter(|seq| !seq.is_empty()).count();
            ensure_zeroed(&mut logits, ended * vocab);
            self.step_rows(head_t, lane.scratch, caches, seqs.iter().copied(), &mut logits);
            let ended = outs.iter_mut().zip(seqs).filter(|(_, seq)| !seq.is_empty());
            for ((out, _), row) in ended.zip(logits.chunks_exact(vocab.max(1))) {
                out.extend_from_slice(row);
            }
        }
        lane.scratch.logits = logits;
    }

    /// One sequence through the fused forward on a scratch of its own:
    /// `prefix` prefilled into a fresh cache, and the logits after it
    /// (empty for an empty prefix). A single sequence is one part, so the
    /// prefill and every step after it run inline.
    fn prefill_one(&self, prefix: &[u32]) -> (DecodeScratch, KvCache, Vec<f32>) {
        let mut scratch = self.new_scratch();
        let mut cache = self.new_cache();
        let logits = self
            .prefill_batch_fused(&mut scratch, std::slice::from_mut(&mut cache), &[prefix])
            .pop()
            .unwrap_or_default();
        (scratch, cache, logits)
    }

    /// Log-probability of `continuation` given `prefix` (sums per-token
    /// log-softmax scores). Used for pairwise scoring (Table V).
    pub fn sequence_logprob(&self, prefix: &[u32], continuation: &[u32]) -> f32 {
        let (mut scratch, mut cache, mut logits) = self.prefill_one(prefix);
        let mut total = 0.0;
        for &tok in continuation {
            total += log_softmax_pick(&logits, tok);
            logits = self.advance_batch_fused(&mut scratch, &mut [&mut cache], &[tok]).to_vec();
        }
        total
    }

    /// Greedy decoding until `stop` returns true or `max_new` tokens. An
    /// empty `prefix` has no next-token distribution and decodes nothing.
    ///
    /// # Examples
    ///
    /// ```
    /// use lcrec_core::{CausalLm, LmConfig};
    ///
    /// let lm = CausalLm::new(LmConfig::test(16));
    /// let out = lm.greedy(&[1, 2, 3], 4, |_| false);
    /// assert_eq!(out.len(), 4, "no stop token: decode all 4 requested");
    /// assert!(out.iter().all(|&t| (t as usize) < lm.config().vocab));
    /// ```
    pub fn greedy(&self, prefix: &[u32], max_new: usize, stop: impl Fn(u32) -> bool) -> Vec<u32> {
        let (mut scratch, mut cache, mut logits) = self.prefill_one(prefix);
        let mut out = Vec::new();
        while out.len() < max_new && !logits.is_empty() {
            let next = argmax(&logits) as u32;
            if stop(next) {
                break;
            }
            out.push(next);
            if cache.len >= self.cfg.max_seq - 1 {
                break;
            }
            logits = self.advance_batch_fused(&mut scratch, &mut [&mut cache], &[next]).to_vec();
        }
        out
    }

    /// Full-graph logits for a single sequence without a cache — the
    /// independent oracle the cached decode is compared against
    /// (§III-D2). An empty sequence yields an empty row, as
    /// [`CausalLm::prefill_batch_fused`] does.
    pub fn logits_uncached(&self, tokens: &[u32]) -> Vec<f32> {
        let t = tokens.len().min(self.cfg.max_seq);
        if t == 0 {
            return Vec::new();
        }
        let toks = &tokens[tokens.len() - t..];
        let mut g = Graph::inference();
        let logits = self.forward_logits(&mut g, toks, 1, t);
        let all = g.value(logits);
        all.row(t - 1).to_vec()
    }
}

fn rms_vec(x: &[f32], gamma: &[f32]) -> Vec<f32> {
    let ms = x.iter().map(|v| v * v).sum::<f32>() / x.len() as f32;
    let r = 1.0 / (ms + 1e-6).sqrt();
    x.iter().zip(gamma).map(|(&v, &g)| v * r * g).collect()
}

/// Row-wise [`rms_vec`] over `b` packed rows of width `gamma.len()`.
fn rms_rows(xs: &[f32], gamma: &[f32], b: usize) -> Vec<f32> {
    let d = gamma.len();
    debug_assert_eq!(xs.len(), b * d);
    let mut out = Vec::with_capacity(b * d);
    for row in xs.chunks_exact(d.max(1)) {
        out.extend(rms_vec(row, gamma));
    }
    out
}

/// Allocation-free [`rms_rows`]: normalizes each packed row of `xs` into
/// the matching row of `out`, with exactly [`rms_vec`]'s arithmetic (same
/// mean-square reduction order, same per-element `v * r * g`), so the
/// fused decode path stays bit-identical to the reference path.
fn rms_rows_into(xs: &[f32], gamma: &[f32], out: &mut [f32]) {
    let d = gamma.len().max(1);
    debug_assert_eq!(xs.len(), out.len());
    for (row, orow) in xs.chunks_exact(d).zip(out.chunks_exact_mut(d)) {
        let ms = row.iter().map(|v| v * v).sum::<f32>() / row.len() as f32;
        let r = 1.0 / (ms + 1e-6).sqrt();
        for ((o, &v), &g) in orow.iter_mut().zip(row).zip(gamma) {
            *o = v * r * g;
        }
    }
}

/// `b` packed row-vectors times one weight matrix in a single `matmul_acc`
/// call. The kernel accumulates each output row independently, in the same
/// element order as the `m = 1` case, so a batch of `b` rows is
/// bit-identical to `b` separate single-row multiplies — the foundation of
/// the batched-equals-sequential decoding contract.
fn batmat(xs: &[f32], w: &Tensor, b: usize) -> Vec<f32> {
    let (rows, cols) = (w.dim(0), w.dim(1));
    debug_assert_eq!(xs.len(), b * rows);
    let mut out = vec![0.0f32; b * cols];
    matmul_acc(xs, w.data(), &mut out, b, rows, cols);
    out
}

fn argmax(xs: &[f32]) -> usize {
    let mut best = 0;
    let mut bv = f32::NEG_INFINITY;
    for (i, &x) in xs.iter().enumerate() {
        if x > bv {
            bv = x;
            best = i;
        }
    }
    best
}

/// `log softmax(logits)[pick]` computed stably.
pub fn log_softmax_pick(logits: &[f32], pick: u32) -> f32 {
    let mx = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let z: f32 = logits.iter().map(|&v| (v - mx).exp()).sum();
    logits[pick as usize] - mx - z.ln()
}

/// Training configuration for instruction tuning.
#[derive(Clone, Debug)]
pub struct LmTrainConfig {
    /// Peak learning rate.
    pub lr: f32,
    /// Epochs over the instruction data.
    pub epochs: usize,
    /// Sequences per optimizer step.
    ///
    /// Batches are **not** i.i.d. draws from the epoch: each epoch the
    /// examples are shuffled and then *stably* sorted by token length (see
    /// [`dense_batch_order`]), and consecutive ranks form a batch. Batches
    /// therefore pack examples of similar length — "dense batches" with
    /// minimal padding, since the padded width is the longest example in
    /// the batch — while the shuffle still moves equal-length examples
    /// between batches from epoch to epoch.
    pub batch: usize,
    /// Warmup steps of the cosine schedule.
    pub warmup: usize,
    /// Optional hard cap on optimizer steps (budget control).
    pub max_steps: Option<usize>,
    /// Seed for shuffling.
    pub seed: u64,
}

impl LmTrainConfig {
    /// Defaults for the small presets (the paper uses lr 5e-5 at 7B scale;
    /// a model this small wants a proportionally larger rate).
    pub fn small() -> Self {
        LmTrainConfig { lr: 1.5e-3, epochs: 4, batch: 16, warmup: 30, max_steps: None, seed: 99 }
    }
}

/// One tokenized training example: tokens plus the prompt length whose
/// positions are excluded from the loss.
pub type LmExample = (Vec<u32>, usize);

/// The epoch ordering used by [`train_lm_epochs`]: a Fisher–Yates shuffle
/// followed by a **stable** sort on example length. Consecutive ranks form
/// a batch (see [`LmTrainConfig::batch`]), so batches stay *dense* —
/// examples of similar length share a batch and little padding is wasted —
/// while equal-length examples keep a fresh random order every epoch.
///
/// The returned vector is a permutation of `0..lengths.len()` with
/// `lengths[order[j]]` non-decreasing in `j`.
pub fn dense_batch_order(lengths: &[usize], rng: &mut StdRng) -> Vec<usize> {
    let mut order: Vec<usize> = (0..lengths.len()).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.random_range(0..=i));
    }
    order.sort_by_key(|&i| lengths[i]);
    order
}

/// Instruction-tunes the LM on a fixed example set (Eqn. 7: next-token CE
/// on response positions only). Returns mean loss per epoch.
pub fn train_lm(lm: &mut CausalLm, examples: &[LmExample], cfg: &LmTrainConfig) -> Vec<f32> {
    train_lm_epochs(lm, cfg, examples.len(), |_| examples.to_vec())
}

/// Instruction-tunes with a per-epoch example provider — the paper pairs
/// each datum with **one sampled template per epoch**, so the example set
/// is regenerated every epoch.
pub fn train_lm_epochs(
    lm: &mut CausalLm,
    cfg: &LmTrainConfig,
    examples_per_epoch: usize,
    mut provider: impl FnMut(usize) -> Vec<LmExample>,
) -> Vec<f32> {
    let max_seq = lm.config().max_seq;
    let pad = lcrec_text::token::PAD;
    let total_steps = cfg
        .max_steps
        .unwrap_or(usize::MAX)
        .min(cfg.epochs * examples_per_epoch.div_ceil(cfg.batch));
    let mut opt = AdamW::new(cfg.lr).with_schedule(Schedule::CosineWarmup {
        warmup: cfg.warmup,
        total: total_steps.max(cfg.warmup + 1),
        min_ratio: 0.1,
    });
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut epoch_losses = Vec::new();
    let mut steps = 0usize;
    let _span = lcrec_obs::span("lm.train");
    'outer: for epoch in 0..cfg.epochs {
        let _epoch_span = lcrec_obs::span("epoch");
        let examples = provider(epoch);
        if examples.is_empty() {
            epoch_losses.push(0.0);
            continue;
        }
        let lengths: Vec<usize> = examples.iter().map(|e| e.0.len()).collect();
        let order = dense_batch_order(&lengths, &mut rng);
        let mut sum = 0.0;
        let mut nb = 0usize;
        for chunk in order.chunks(cfg.batch) {
            // chunks() never yields an empty slice, so the max exists.
            let t = chunk.iter().map(|&i| examples[i].0.len()).max().unwrap_or(1).min(max_seq);
            let b = chunk.len();
            let mut tokens = vec![pad; b * t];
            let mut targets = vec![u32::MAX; b * t];
            for (row, &i) in chunk.iter().enumerate() {
                let (ex, prompt_len) = &examples[i];
                // Overlong examples lose their oldest (prompt) tokens; the
                // prompt boundary shifts left by the same amount.
                let cut = ex.len().saturating_sub(t);
                let ex = &ex[cut..];
                let plen = prompt_len.saturating_sub(cut).min(ex.len());
                for (j, &tok) in ex.iter().enumerate() {
                    tokens[row * t + j] = tok;
                    // Position j predicts token j+1; supervise only when
                    // the *predicted* token is inside the response.
                    if j + 1 < ex.len() && j + 1 >= plen {
                        targets[row * t + j] = ex[j + 1];
                    }
                }
            }
            let mut g = Graph::new();
            g.seed(cfg.seed ^ (steps as u64) << 8);
            let logits = lm.forward_logits(&mut g, &tokens, b, t);
            let loss = g.cross_entropy(logits, &targets, u32::MAX);
            sum += g.value(loss).item();
            nb += 1;
            let ps = lm.store_mut();
            ps.zero_grads();
            g.backward(loss, ps);
            ps.clip_grad_norm(1.0);
            opt.step(ps);
            lcrec_obs::counter_add("lm.train_steps", 1);
            steps += 1;
            if steps >= total_steps {
                epoch_losses.push(sum / nb as f32);
                break 'outer;
            }
        }
        epoch_losses.push(sum / nb.max(1) as f32);
    }
    epoch_losses
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cached_and_uncached_logits_agree() {
        let lm = CausalLm::new(LmConfig::test(30));
        let tokens = [1u32, 7, 3, 9, 2];
        let (_, _, cached) = lm.prefill_one(&tokens);
        let uncached = lm.logits_uncached(&tokens);
        assert_eq!(cached.len(), uncached.len());
        for (a, b) in cached.iter().zip(&uncached) {
            assert!((a - b).abs() < 1e-3, "cached {a} vs graph {b}");
        }
    }

    #[test]
    fn empty_prefix_has_no_logits_and_decodes_nothing() {
        let lm = CausalLm::new(LmConfig::test(10));
        assert!(lm.logits_uncached(&[]).is_empty());
        assert!(lm.greedy(&[], 5, |_| false).is_empty());
    }

    #[test]
    fn lm_memorizes_a_tiny_mapping() {
        // Three prompt→response pairs; the LM must learn them exactly.
        let mut lm = CausalLm::new(LmConfig::test(20));
        let examples: Vec<LmExample> = vec![
            (vec![1, 10, 11, 5, 2], 3),
            (vec![1, 12, 13, 6, 2], 3),
            (vec![1, 14, 15, 7, 2], 3),
        ];
        let cfg = LmTrainConfig { lr: 5e-3, epochs: 120, batch: 3, warmup: 5, max_steps: None, seed: 1 };
        let losses = train_lm(&mut lm, &examples, &cfg);
        assert!(losses.last().expect("epochs") < &0.1, "final loss {:?}", losses.last());
        for (ex, plen) in &examples {
            let out = lm.greedy(&ex[..*plen], 1, |_| false);
            assert_eq!(out[0], ex[*plen], "wrong continuation for {ex:?}");
        }
    }

    #[test]
    fn sequence_logprob_prefers_trained_continuation() {
        let mut lm = CausalLm::new(LmConfig::test(20));
        let examples: Vec<LmExample> = vec![(vec![1, 10, 11, 5, 2], 3)];
        let cfg = LmTrainConfig { lr: 5e-3, epochs: 100, batch: 1, warmup: 5, max_steps: None, seed: 2 };
        train_lm(&mut lm, &examples, &cfg);
        let good = lm.sequence_logprob(&[1, 10, 11], &[5]);
        let bad = lm.sequence_logprob(&[1, 10, 11], &[6]);
        assert!(good > bad, "trained continuation should win: {good} vs {bad}");
    }

    #[test]
    fn greedy_stops_on_predicate() {
        let lm = CausalLm::new(LmConfig::test(10));
        let out = lm.greedy(&[1, 2], 20, |t| t == lcrec_text::token::EOS || true);
        assert!(out.is_empty(), "stop-on-first predicate halts immediately");
    }

    #[test]
    fn max_steps_caps_training() {
        let mut lm = CausalLm::new(LmConfig::test(20));
        let examples: Vec<LmExample> = (0..32).map(|i| (vec![1, 4 + (i % 8), 5, 2], 2)).collect();
        let cfg = LmTrainConfig { lr: 1e-3, epochs: 50, batch: 4, warmup: 2, max_steps: Some(3), seed: 3 };
        let losses = train_lm(&mut lm, &examples, &cfg);
        assert_eq!(losses.len(), 1, "training must stop within the first epoch");
    }

    #[test]
    fn advance_batch_with_empty_batch_is_a_no_op() {
        let lm = CausalLm::new(LmConfig::test(10));
        let mut slots: Vec<&mut KvCache> = Vec::new();
        assert!(lm.advance_batch(&mut slots, &[]).is_empty());
    }

    #[test]
    fn dense_batch_order_is_a_length_sorted_permutation() {
        let lengths: Vec<usize> = (0..40).map(|i| (i * 7 + 3) % 11).collect();
        let mut rng = StdRng::seed_from_u64(42);
        let order = dense_batch_order(&lengths, &mut rng);
        let mut seen = order.clone();
        seen.sort_unstable();
        assert_eq!(seen, (0..40).collect::<Vec<_>>(), "must be a permutation");
        for w in order.windows(2) {
            assert!(lengths[w[0]] <= lengths[w[1]], "lengths must be non-decreasing");
        }
    }

    #[test]
    fn dense_batch_order_shuffles_ties() {
        // All-equal lengths: the stable sort preserves the shuffle, so the
        // order must be a non-identity permutation (seeded, deterministic).
        let lengths = vec![5usize; 32];
        let mut rng = StdRng::seed_from_u64(7);
        let order = dense_batch_order(&lengths, &mut rng);
        assert_ne!(order, (0..32).collect::<Vec<_>>(), "ties must be shuffled");
        // Same seed → same order: the epoch ordering is reproducible.
        let mut rng2 = StdRng::seed_from_u64(7);
        assert_eq!(order, dense_batch_order(&lengths, &mut rng2));
    }

    #[test]
    fn num_params_counts_everything() {
        let lm = CausalLm::new(LmConfig::test(10));
        // tok 10*16 + pos 48*16 + block (norm 16*2 + 4*16*16 + gate/up 2*16*32 + down 32*16) + final 16
        let expect = 160 + 768 + (32 + 1024 + 1024 + 512) + 16;
        assert_eq!(lm.num_params(), expect);
    }
}
