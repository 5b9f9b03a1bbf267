//! The system under test: every call the benchmark makes into the repo's
//! crates is in this file, so the API that the benchmark pins is exactly
//! the list of `use` lines below (README.md repeats it). Everything here
//! is the shipped configuration: `RouterConfig::default()` shards and
//! hedging, `ServeConfig::default()` batching, the ambient
//! `Pool::from_env()` and backend, tracing off unless asked.

use crate::trace::now;
use lcrec_core::{
    multi_constrained_beam_search_scratch, CatalogTrie, CausalLm, DecodeScratch, ExtendedVocab,
    Hypothesis, KvCache, LmConfig,
};
use lcrec_data::{ScaleConfig, ZipfSampler};
use lcrec_par::Pool;
use lcrec_rqvae::{IndexTrie, ItemIndices};
use lcrec_serve::{Engine, Router, RouterConfig, RouterOutcome, ServeConfig};
use lcrec_tensor::active_backend;
use lcrec_tensor::serialize::{load_params_file, save_params_file};
use lcrec_text::Vocab;
use rand::rngs::StdRng;
use std::cell::OnceCell;
use std::path::Path;

/// Which language model a workload serves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Model {
    /// `LmConfig::large`: 20 MB of weights, far beyond L2.
    Large,
    /// dim 128, 3 layers, ff 256: 2 MB of weights, about L2.
    Medium,
    /// `LmConfig::test`, for `--smoke`.
    Test,
}

/// A ranking as the system returned it: `(item, log-prob bits)`, best first.
pub type Ranked = Vec<(u32, u32)>;

fn ranked_bits(hyps: &[Hypothesis]) -> Ranked {
    hyps.iter().map(|h| (h.item, h.logprob.to_bits())).collect()
}

/// Everything generated before the system starts: the catalog's semantic
/// indices, the user population, the vocabulary, the model's shape and
/// weights seed, and the traffic's seed.
#[derive(Debug)]
pub struct Inputs {
    /// The tier as shipped: its catalog and its user population are the
    /// same for every seed, so every seed's hot users are the same people.
    scale: ScaleConfig,
    /// The tier under the run's seed, for the traffic replay alone.
    traffic: ScaleConfig,
    popularity: ZipfSampler,
    vocab: ExtendedVocab,
    lm_cfg: LmConfig,
}

impl Inputs {
    /// `smoke` picks `ScaleConfig::tier_test()` over `tier_large()`.
    pub fn generate(model: Model, smoke: bool, seed: u64) -> Inputs {
        let scale = if smoke {
            ScaleConfig::tier_test()
        } else {
            ScaleConfig::tier_large()
        };
        let traffic = ScaleConfig {
            seed: scale.seed ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ..scale.clone()
        };
        let (sizes, codes) = scale.synthetic_codes().expect("tier presets validate");
        let popularity =
            ZipfSampler::new(scale.num_items, scale.zipf_exponent).expect("tier presets validate");
        let base = Vocab::build([ServeConfig::default().template.as_str()], 1);
        let vocab = ExtendedVocab::new(base, ItemIndices::new(sizes, codes));
        let shape = match model {
            Model::Large => LmConfig::large(vocab.len()),
            Model::Medium => LmConfig {
                vocab: vocab.len(),
                dim: 128,
                layers: 3,
                heads: 8,
                ff_hidden: 256,
                max_seq: 128,
                dropout: 0.1,
                seed: 0,
            },
            Model::Test => LmConfig::test(vocab.len()),
        };
        let lm_cfg = LmConfig {
            seed: 1234 ^ seed,
            ..shape
        };
        Inputs {
            scale,
            traffic,
            popularity,
            vocab,
            lm_cfg,
        }
    }

    pub fn num_users(&self) -> usize {
        self.scale.num_users
    }

    pub fn num_items(&self) -> usize {
        self.scale.num_items
    }

    pub fn levels(&self) -> usize {
        self.scale.levels
    }

    /// The first `n` users of the seeded Zipf traffic replay.
    pub fn replay_users(&self, n: usize) -> Vec<usize> {
        self.traffic
            .replay()
            .expect("tier presets validate")
            .take(n)
            .collect()
    }

    /// A user's stored interaction sequence (a pure function of the user).
    pub fn base_history(&self, user: usize) -> Vec<u32> {
        self.scale.generate_user(&self.popularity, user)
    }

    /// One item drawn by catalog popularity.
    pub fn draw_item(&self, rng: &mut StdRng) -> u32 {
        self.popularity.sample(rng) as u32
    }

    /// Item `item`'s semantic index: its id in base `codebook_size`, most
    /// significant level first. The synthetic catalog follows this rule, and
    /// items published later (`item >= num_items`) are admitted under it too.
    pub fn codes_of_item(&self, item: u32) -> Vec<u16> {
        let mut digits = vec![0u16; self.scale.levels];
        let mut rest = item as usize;
        for d in digits.iter_mut().rev() {
            *d = (rest % self.scale.codebook_size) as u16;
            rest /= self.scale.codebook_size;
        }
        digits
    }

    pub fn lm_shape(&self) -> LmShape {
        let c = &self.lm_cfg;
        LmShape {
            vocab: c.vocab,
            dim: c.dim,
            layers: c.layers,
            ff_hidden: c.ff_hidden,
        }
    }

    /// Writes the checkpoint every set-up then loads: the model's weights
    /// as `save_params_file` seals them. Returns the file's size in bytes.
    pub fn write_checkpoint(&self, path: &Path) -> u64 {
        let lm = CausalLm::new(self.lm_cfg.clone());
        save_params_file(lm.store(), path).expect("the checkpoint directory is writable");
        std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
    }
}

/// The model's tensor sizes, for the figures computed from shapes.
#[derive(Clone, Copy, Debug)]
pub struct LmShape {
    pub vocab: usize,
    pub dim: usize,
    pub layers: usize,
    pub ff_hidden: usize,
}

impl LmShape {
    /// Multiply-adds times two for one token through every block and the head.
    pub fn flop_per_row(&self) -> f64 {
        2.0 * (self.layers * self.block_weights() + self.dim * self.vocab) as f64
    }

    /// Weights one block's seven projections hold.
    pub fn block_weights(&self) -> usize {
        4 * self.dim * self.dim + 3 * self.dim * self.ff_hidden
    }
}

/// What one set-up built, and what it cost.
#[derive(Debug)]
pub struct Parts {
    lm: CausalLm,
    base_trie: IndexTrie,
    /// Tries published by catalog swaps. `Router::swap_catalog` borrows
    /// its trie for the router's lifetime, so the slots exist before the
    /// router does and are filled through a shared reference.
    published: Vec<OnceCell<IndexTrie>>,
}

/// Seconds each part of one set-up took.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    pub total_s: f64,
    pub load_s: f64,
    pub trie_build_s: f64,
}

impl Parts {
    /// What a serving process pays before its first request: a fresh
    /// model, its weights loaded from the checkpoint, the catalog's trie
    /// built, a router over both.
    pub fn cold_start(
        inputs: &Inputs,
        checkpoint: &Path,
        beam: usize,
        slots: usize,
    ) -> (Parts, SetupTimes) {
        let t0 = now();
        // Initialised from another seed, so the load is what sets the weights.
        let mut lm = CausalLm::new(LmConfig {
            seed: inputs.lm_cfg.seed ^ 0x5EED,
            ..inputs.lm_cfg.clone()
        });
        let t1 = now();
        let restored =
            load_params_file(lm.store_mut(), checkpoint).expect("the checkpoint was just written");
        assert!(restored > 0, "the checkpoint restored no tensor");
        let t2 = now();
        let base_trie = IndexTrie::build(inputs.vocab.indices());
        let t3 = now();
        let parts = Parts {
            lm,
            base_trie,
            published: (0..slots).map(|_| OnceCell::new()).collect(),
        };
        drop(Fleet::start(inputs, &parts, beam));
        let times = SetupTimes {
            total_s: now().duration_since(t0).as_secs_f64(),
            load_s: t2.duration_since(t1).as_secs_f64(),
            trie_build_s: t3.duration_since(t2).as_secs_f64(),
        };
        (parts, times)
    }

    pub fn weight_bytes(&self) -> usize {
        self.lm.param_bytes()
    }

    /// Slot 0 is the trie the fleet started on, slot `i` the `i`-th published.
    pub fn trie_in_slot(&self, slot: usize) -> &IndexTrie {
        match slot.checked_sub(1) {
            None => &self.base_trie,
            Some(i) => self
                .published
                .get(i)
                .and_then(OnceCell::get)
                .expect("slot was published"),
        }
    }
}

/// One ticket's terminal outcome as the router reported it.
#[derive(Clone, Debug)]
pub struct Resolved {
    pub ticket: u64,
    pub shard: usize,
    pub hops: u32,
    pub batch_size: usize,
    /// `None` when the router gave the request up (timed out).
    pub ranked: Option<Ranked>,
}

fn resolved_from(outcomes: Vec<RouterOutcome>) -> Vec<Resolved> {
    outcomes
        .into_iter()
        .map(|o| match o {
            RouterOutcome::Completed {
                shard,
                hops,
                response,
            } => Resolved {
                ticket: response.id,
                shard,
                hops,
                batch_size: response.batch_size,
                ranked: Some(ranked_bits(&response.ranked)),
            },
            RouterOutcome::TimedOut {
                id, shard, hops, ..
            } => Resolved {
                ticket: id,
                shard,
                hops,
                batch_size: 0,
                ranked: None,
            },
        })
        .collect()
}

/// The router and its shards, as shipped.
#[derive(Debug)]
pub struct Fleet<'a> {
    router: Router<'a>,
    inputs: &'a Inputs,
    parts: &'a Parts,
    slot: usize,
}

impl<'a> Fleet<'a> {
    /// `beam` is the one setting a workload changes: the engine decodes at
    /// `max(beam, k)`, so a workload with k below the default 10 lowers it.
    pub fn start(inputs: &'a Inputs, parts: &'a Parts, beam: usize) -> Fleet<'a> {
        let cfg = RouterConfig {
            shard: ServeConfig {
                beam,
                ..ServeConfig::default()
            },
            ..RouterConfig::default()
        };
        let router = Router::new(&parts.lm, &inputs.vocab, &parts.base_trie, cfg);
        Fleet {
            router,
            inputs,
            parts,
            slot: 0,
        }
    }

    pub fn shard_count() -> usize {
        RouterConfig::default().shards
    }

    pub fn max_batch() -> usize {
        ServeConfig::default().max_batch
    }

    /// The ticket, or `None` when the router refused the request.
    pub fn fleet_submit(&mut self, user: u64, history: &[u32], k: usize) -> Option<u64> {
        self.router.submit(user, history, k).ok()
    }

    pub fn fleet_step(&mut self) -> Vec<Resolved> {
        resolved_from(self.router.step_outcomes())
    }

    pub fn fleet_flush(&mut self) -> Vec<Resolved> {
        resolved_from(self.router.flush_outcomes())
    }

    /// Publishes `trie` to every shard as catalog epoch `epoch`; tickets
    /// the swap itself resolved come back like a step's.
    pub fn fleet_swap(&mut self, trie: IndexTrie, epoch: u64) -> Vec<Resolved> {
        let cell = self
            .parts
            .published
            .get(self.slot)
            .expect("a slot was reserved for every planned swap");
        let trie = cell.get_or_init(|| trie);
        self.slot += 1;
        resolved_from(
            self.router
                .swap_catalog(&self.parts.lm, &self.inputs.vocab, trie, epoch),
        )
    }

    /// The slot of the trie new admissions decode against.
    pub fn trie_slot(&self) -> usize {
        self.slot
    }

    pub fn fleet_epoch(&self) -> u64 {
        self.router.catalog_epoch()
    }

    pub fn fleet_pending(&self) -> usize {
        self.router.pending_len()
    }

    pub fn fleet_queue_depth(&self) -> usize {
        self.router.queue_depth()
    }
}

/// The catalog's copy-on-write trie, the write side of a publish.
#[derive(Debug)]
pub struct Publisher {
    catalog: CatalogTrie,
}

impl Publisher {
    pub fn open(inputs: &Inputs) -> Publisher {
        let catalog =
            CatalogTrie::from_indices(inputs.vocab.indices()).expect("synthetic codes are unique");
        Publisher { catalog }
    }

    /// Binds a new item; the catalog epoch after the insert.
    pub fn catalog_insert(&mut self, codes: &[u16], item: u32) -> u64 {
        self.catalog
            .insert(codes, item)
            .expect("a new item's path is free")
    }

    pub fn catalog_materialize(&self) -> IndexTrie {
        self.catalog.materialize()
    }

    pub fn arena_nodes(&self) -> usize {
        self.catalog.num_nodes()
    }
}

/// Per-request prefill caches of a replayed batch.
#[derive(Debug)]
pub struct Caches(Vec<KvCache>);

impl Caches {
    /// `widths[i]` copies of request `i`'s cache: the rows a beam level advances.
    pub fn fan_out(&self, widths: &[usize]) -> Caches {
        Caches(
            self.0
                .iter()
                .zip(widths)
                .flat_map(|(c, &w)| std::iter::repeat_with(move || c.clone()).take(w))
                .collect(),
        )
    }

    pub fn rows(&self) -> usize {
        self.0.len()
    }
}

/// Each layer's public functions called directly, for the answer check
/// and the layer replay.
#[derive(Debug)]
pub struct Direct<'a> {
    inputs: &'a Inputs,
    lm: &'a CausalLm,
    /// Only for `render_prompt`; it never admits a request.
    engine: Engine<'a>,
    scratch: DecodeScratch,
}

impl<'a> Direct<'a> {
    pub fn open(inputs: &'a Inputs, parts: &'a Parts, beam: usize) -> Direct<'a> {
        let cfg = ServeConfig {
            beam,
            ..ServeConfig::default()
        };
        Direct {
            inputs,
            lm: &parts.lm,
            engine: Engine::new(&parts.lm, &inputs.vocab, &parts.base_trie, cfg),
            scratch: parts.lm.new_scratch(),
        }
    }

    pub fn direct_render(&self, history: &[u32]) -> Vec<u32> {
        self.engine.render_prompt(history)
    }

    /// The search the engine runs per batch. `serial` takes
    /// `Pool::serial()` for the answer check, else the ambient pool.
    pub fn direct_search(
        &mut self,
        serial: bool,
        trie: &IndexTrie,
        prompts: &[Vec<u32>],
        widths: &[usize],
    ) -> Vec<Ranked> {
        let pool = if serial {
            Pool::serial()
        } else {
            Pool::from_env()
        };
        multi_constrained_beam_search_scratch(
            &pool,
            self.lm,
            &self.inputs.vocab,
            trie,
            prompts,
            widths,
            &mut self.scratch,
        )
        .iter()
        .map(|hyps| ranked_bits(hyps))
        .collect()
    }

    pub fn direct_prefill(&mut self, prompts: &[Vec<u32>]) -> Caches {
        let mut caches: Vec<KvCache> = prompts.iter().map(|_| self.lm.new_cache()).collect();
        let seqs: Vec<&[u32]> = prompts.iter().map(Vec::as_slice).collect();
        std::hint::black_box(
            self.lm
                .prefill_batch_fused(&mut self.scratch, &mut caches, &seqs),
        );
        Caches(caches)
    }

    /// One decode step over every row, each fed a level-`level` index token.
    pub fn direct_advance(&mut self, caches: &mut Caches, level: usize) {
        let codebook = self.inputs.scale.codebook_size;
        let tokens: Vec<u32> = (0..caches.0.len())
            .map(|row| {
                self.inputs
                    .vocab
                    .index_token(level, (row % codebook) as u16)
            })
            .collect();
        let mut slots: Vec<&mut KvCache> = caches.0.iter_mut().collect();
        std::hint::black_box(
            self.lm
                .advance_batch_fused(&mut self.scratch, &mut slots, &tokens),
        );
    }
}

pub fn trie_allowed_len(trie: &IndexTrie, prefix: &[u16]) -> usize {
    trie.allowed_slice(prefix).len()
}

pub fn trie_item_at(trie: &IndexTrie, codes: &[u16]) -> Option<u32> {
    trie.item_at(codes)
}

pub fn trie_nodes(trie: &IndexTrie) -> usize {
    trie.num_nodes()
}

/// `out += a @ b` through the process's backend, zero-skipping kernel.
pub fn backend_gemm(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    active_backend().gemm_acc(a, b, out, m, k, n);
}

/// The dense kernel the tied LM head uses.
pub fn backend_gemm_dense(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    active_backend().gemm_dense_acc(a, b, out, m, k, n);
}

pub fn pool_threads() -> usize {
    Pool::from_env().threads()
}

/// `Pool::map` over `n` items that do nothing: what one call costs to spawn.
pub fn pool_map_noop(n: usize) -> usize {
    let items = vec![0u8; n];
    Pool::from_env().map(&items, |i, _| i).len()
}

pub fn obs_set(on: bool) {
    lcrec_obs::set_enabled(on);
}

pub fn obs_reset() {
    lcrec_obs::reset();
}

/// Counters and span totals (seconds) `lcrec-obs` holds right now; a name
/// absent from the snapshot is absent here, not zero.
pub fn obs_read(counters: &[&str], spans: &[&str]) -> (Vec<Option<u64>>, Vec<Option<f64>>) {
    let snap = lcrec_obs::snapshot();
    (
        counters
            .iter()
            .map(|c| snap.counters.get(*c).copied())
            .collect(),
        spans
            .iter()
            .map(|s| snap.span(s).map(|st| st.total_s()))
            .collect(),
    )
}
