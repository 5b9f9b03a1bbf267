//! LC-Rec: the paper's model. Combines learned item indices (from
//! `lcrec-rqvae`), an extended-vocabulary causal LM, multi-task alignment
//! tuning (§III-C) and trie-constrained beam search for full ranking.

use crate::beam::{constrained_beam_search_with, Hypothesis};
use crate::lm::{train_lm_epochs, CausalLm, LmConfig, LmExample, LmTrainConfig};
use crate::vocab::ExtendedVocab;
use lcrec_data::{Dataset, InstructionBuilder, Seg, TaskSet};
use lcrec_eval::Ranker;
use lcrec_par::Pool;
use lcrec_rqvae::{IndexTrie, ItemIndices};
use lcrec_tensor::Tensor;
use lcrec_text::Vocab;

/// Full LC-Rec configuration.
#[derive(Clone, Debug)]
pub struct LcRecConfig {
    /// Model width.
    pub dim: usize,
    /// Transformer blocks.
    pub layers: usize,
    /// Attention heads.
    pub heads: usize,
    /// FFN hidden width.
    pub ff_hidden: usize,
    /// Maximum token-sequence length.
    pub max_seq: usize,
    /// Dropout during tuning.
    pub dropout: f32,
    /// Alignment-task selection (Table IV's knob).
    pub tasks: TaskSet,
    /// Optimization settings.
    pub train: LmTrainConfig,
    /// Beam width at inference (paper: 20).
    pub beam: usize,
    /// History items kept when rendering instructions (context-window
    /// budget; the paper's 2048-token window scales down with the model).
    pub max_hist_items: usize,
    /// Seed.
    pub seed: u64,
}

impl LcRecConfig {
    /// Defaults for the small presets.
    pub fn small() -> Self {
        LcRecConfig {
            dim: 48,
            layers: 2,
            heads: 4,
            ff_hidden: 96,
            max_seq: 112,
            dropout: 0.1,
            tasks: TaskSet::full(),
            train: LmTrainConfig::small(),
            beam: 20,
            max_hist_items: 8,
            seed: 777,
        }
    }

    /// A micro configuration for tests.
    pub fn test() -> Self {
        let mut c = Self::small();
        c.dim = 24;
        c.layers = 1;
        c.heads = 2;
        c.ff_hidden = 48;
        c.max_seq = 96;
        c.dropout = 0.0;
        c.train = LmTrainConfig { lr: 3e-3, epochs: 2, batch: 16, warmup: 5, max_steps: Some(60), seed: 7 };
        c.beam = 10;
        c
    }
}

/// A trained (or trainable) LC-Rec model.
#[derive(Debug)]
pub struct LcRec {
    cfg: LcRecConfig,
    lm: CausalLm,
    vocab: ExtendedVocab,
    trie: IndexTrie,
}

impl LcRec {
    /// Assembles the model: builds the word vocabulary from the dataset's
    /// instruction corpus, appends the index tokens, and initializes the LM.
    pub fn build(ds: &Dataset, indices: ItemIndices, cfg: LcRecConfig) -> Self {
        let builder = InstructionBuilder::new(ds);
        let corpus = builder.vocabulary_corpus();
        let base = Vocab::build(corpus.iter().map(String::as_str), 1);
        let trie = IndexTrie::build(&indices);
        let vocab = ExtendedVocab::new(base, indices);
        let lm_cfg = LmConfig {
            vocab: vocab.len(),
            dim: cfg.dim,
            layers: cfg.layers,
            heads: cfg.heads,
            ff_hidden: cfg.ff_hidden,
            max_seq: cfg.max_seq,
            dropout: cfg.dropout,
            seed: cfg.seed,
        };
        LcRec { cfg, lm: CausalLm::new(lm_cfg), vocab, trie }
    }

    /// The configuration.
    pub fn config(&self) -> &LcRecConfig {
        &self.cfg
    }

    /// The extended vocabulary.
    pub fn vocab(&self) -> &ExtendedVocab {
        &self.vocab
    }

    /// The underlying LM (benchmarks, embedding analysis).
    pub fn lm(&self) -> &CausalLm {
        &self.lm
    }

    /// The index trie constraining generation (serving, benchmarks).
    pub fn trie(&self) -> &IndexTrie {
        &self.trie
    }

    /// Caps an `Items` segment to the configured history budget.
    fn cap_segs(&self, segs: &[Seg]) -> Vec<Seg> {
        segs.iter()
            .map(|s| match s {
                Seg::Items(items) if items.len() > self.cfg.max_hist_items => {
                    Seg::Items(items[items.len() - self.cfg.max_hist_items..].to_vec())
                }
                other => other.clone(),
            })
            .collect()
    }

    /// Renders a prompt to tokens (BOS-prefixed): history capped to
    /// `max_hist_items`, then [`ExtendedVocab::render_prompt`]'s
    /// context-window truncation.
    pub fn render_prompt(&self, segs: &[Seg]) -> Vec<u32> {
        self.vocab.render_prompt(&self.cap_segs(segs), self.cfg.max_seq)
    }

    /// Alignment tuning (Eqn. 7) over the configured task set. Each epoch
    /// regenerates instructions with freshly sampled templates, matching
    /// the paper's anti-overfitting strategy. Returns per-epoch losses.
    pub fn fit(&mut self, ds: &Dataset) -> Vec<f32> {
        let builder = InstructionBuilder::new(ds);
        let tasks = self.cfg.tasks;
        let probe = builder.epoch(tasks, 0).len();
        let cfg = self.cfg.train.clone();
        // Rendering borrows `self` immutably while training needs `&mut
        // self.lm`; pre-render per epoch through a local closure that only
        // touches vocab/config.
        let vocab = &self.vocab;
        let max_seq = self.cfg.max_seq;
        let max_hist = self.cfg.max_hist_items;
        let render = |prompt: &[Seg], response: &[Seg]| -> LmExample {
            let cap = |segs: &[Seg]| -> Vec<Seg> {
                segs.iter()
                    .map(|s| match s {
                        Seg::Items(items) if items.len() > max_hist => {
                            Seg::Items(items[items.len() - max_hist..].to_vec())
                        }
                        other => other.clone(),
                    })
                    .collect()
            };
            let (mut tokens, plen) = vocab.render_example(&cap(prompt), &cap(response));
            if tokens.len() > max_seq {
                let excess = tokens.len() - max_seq;
                let cut = excess.min(plen.saturating_sub(1));
                tokens.drain(1..1 + cut);
                tokens.truncate(max_seq);
                return (tokens, plen - cut);
            }
            (tokens, plen)
        };
        train_lm_epochs(&mut self.lm, &cfg, probe, |epoch| {
            builder
                .epoch(tasks, epoch as u64)
                .iter()
                .map(|ex| render(&ex.prompt, &ex.response))
                .collect()
        })
    }

    /// Full-ranking recommendation for an explicit prompt.
    pub fn recommend_prompt(&self, segs: &[Seg], beam: usize) -> Vec<Hypothesis> {
        let prompt = self.render_prompt(segs);
        let pool = Pool::from_env();
        constrained_beam_search_with(&pool, &self.lm, &self.vocab, &self.trie, &prompt, beam)
    }

    /// Greedy text generation for a prompt (case studies, Figure 5/6).
    pub fn generate_text(&self, segs: &[Seg], max_new: usize) -> String {
        let prompt = self.render_prompt(segs);
        let eos = lcrec_text::token::EOS;
        let out = self.lm.greedy(&prompt, max_new, |t| t == eos);
        self.vocab.decode(&out)
    }

    /// Log-probability of generating `item`'s indices after `prompt_segs`.
    pub fn score_item(&self, prompt_segs: &[Seg], item: u32) -> f32 {
        let prompt = self.render_prompt(prompt_segs);
        let cont = self.vocab.item_tokens(item);
        self.lm.sequence_logprob(&prompt, &cont)
    }

    /// Length-normalized log-probability of generating arbitrary text after
    /// a prompt (the "LC-Rec (Title)" scorer in Table V).
    pub fn score_text(&self, prompt_segs: &[Seg], text: &str) -> f32 {
        let prompt = self.render_prompt(prompt_segs);
        let cont = self.vocab.base().encode(text);
        if cont.is_empty() {
            return f32::NEG_INFINITY;
        }
        self.lm.sequence_logprob(&prompt, &cont) / cont.len() as f32
    }

    /// Saves the tuned LM weights (see `lcrec_tensor::serialize` for the
    /// format). The model must be rebuilt with the same configuration and
    /// indices before loading.
    pub fn save(&self, w: &mut impl std::io::Write) -> std::io::Result<()> {
        lcrec_tensor::serialize::save_params(self.lm.store(), w)
    }

    /// Restores LM weights saved by [`LcRec::save`]. Returns the number of
    /// parameters restored.
    pub fn load(&mut self, r: &mut impl std::io::Read) -> std::io::Result<usize> {
        lcrec_tensor::serialize::load_params(self.lm.store_mut(), r)
    }

    /// Token embeddings grouped for Figure 4: `(matrix, labels)` where
    /// label 0 = item-index token, 1 = word token used in item text.
    pub fn embedding_groups(&self, ds: &Dataset) -> (Tensor, Vec<u8>) {
        let emb = self.lm.token_embeddings();
        let base_len = self.vocab.index_base() as usize;
        // Word tokens that occur in item titles/descriptions.
        let mut is_item_word = vec![false; base_len];
        for item in &ds.catalog.items {
            for id in self.vocab.base().encode(&item.full_text()) {
                if (id as usize) < base_len {
                    is_item_word[id as usize] = true;
                }
            }
        }
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for t in 0..emb.rows() {
            if t >= base_len {
                rows.extend_from_slice(emb.row(t));
                labels.push(0u8);
            } else if is_item_word[t] {
                rows.extend_from_slice(emb.row(t));
                labels.push(1u8);
            }
        }
        (Tensor::new(&[labels.len(), emb.cols()], rows), labels)
    }
}

/// Bridges LC-Rec into the evaluation harness with a chosen SEQ template.
#[derive(Debug)]
pub struct LcRecRanker<'a> {
    /// The trained model.
    pub model: &'a LcRec,
    /// Instruction builder over the evaluation dataset.
    pub builder: InstructionBuilder<'a>,
    /// Which SEQ template to phrase prompts with.
    pub template: usize,
}

impl Ranker for LcRecRanker<'_> {
    fn rank(&self, _user: usize, history: &[u32], k: usize) -> Vec<u32> {
        let segs = self.builder.seq_eval_prompt_n(history, self.template);
        self.model
            .recommend_prompt(&segs, k.max(self.model.cfg.beam))
            .into_iter()
            .take(k)
            .map(|h| h.item)
            .collect()
    }

    fn name(&self) -> String {
        "LC-Rec".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcrec_data::DatasetConfig;
    use lcrec_rqvae::{build_indices, IndexerKind, RqVaeConfig};
    use lcrec_text::TextEncoder;

    fn tiny_model(trained: bool) -> (Dataset, LcRec) {
        let ds = Dataset::generate(&DatasetConfig::tiny());
        let mut enc = TextEncoder::new(24, 3);
        let texts: Vec<String> = ds.catalog.items.iter().map(|i| i.full_text()).collect();
        let emb = enc.encode_batch(texts.iter().map(String::as_str));
        let mut rq = RqVaeConfig::small(24, ds.num_items());
        rq.epochs = 6;
        rq.levels = 3;
        rq.codebook_size = 8;
        rq.latent_dim = 8;
        rq.hidden = vec![16];
        let indices = build_indices(IndexerKind::LcRec, &emb, &rq);
        let mut model = LcRec::build(&ds, indices, LcRecConfig::test());
        if trained {
            model.fit(&ds);
        }
        (ds, model)
    }

    #[test]
    fn fit_reduces_loss_and_recommends_real_items() {
        let (ds, model) = {
            let (ds, mut m) = tiny_model(false);
            let losses = m.fit(&ds);
            assert!(
                losses.last().expect("epochs") <= &losses[0],
                "loss should not increase: {losses:?}"
            );
            (ds, m)
        };
        let builder = InstructionBuilder::new(&ds);
        let (ctx, _) = ds.test_example(0);
        let segs = builder.seq_eval_prompt(ctx);
        let hyps = model.recommend_prompt(&segs, 10);
        assert!(!hyps.is_empty());
        for h in &hyps {
            assert!((h.item as usize) < ds.num_items());
        }
        // No duplicate items in the beam.
        let mut items: Vec<u32> = hyps.iter().map(|h| h.item).collect();
        items.sort_unstable();
        let before = items.len();
        items.dedup();
        assert_eq!(items.len(), before);
    }

    #[test]
    fn ranker_produces_k_results() {
        let (ds, model) = tiny_model(true);
        let ranker = LcRecRanker { model: &model, builder: InstructionBuilder::new(&ds), template: 0 };
        let (ctx, _) = ds.test_example(1);
        let ranked = ranker.rank(1, ctx, 5);
        assert_eq!(ranked.len(), 5);
    }

    #[test]
    fn score_item_is_finite_and_comparative() {
        let (ds, model) = tiny_model(true);
        let builder = InstructionBuilder::new(&ds);
        let (ctx, target) = ds.test_example(0);
        let segs = builder.seq_eval_prompt(ctx);
        let s = model.score_item(&segs, target);
        assert!(s.is_finite() && s < 0.0);
    }

    #[test]
    fn generate_text_emits_vocabulary_words() {
        let (_, model) = tiny_model(true);
        let out = model.generate_text(&[Seg::Text("please tell me what the following item is called".into()), Seg::Item(0)], 12);
        // Greedy decode may produce anything, but it must be decodable text.
        assert!(out.len() < 400);
    }

    #[test]
    fn history_capping_limits_prompt_length() {
        let (_, model) = tiny_model(false);
        let long: Vec<u32> = (0..40).map(|i| i % 5).collect();
        let tokens = model.render_prompt(&[Seg::Items(long)]);
        assert!(tokens.len() <= model.config().max_seq);
    }

    #[test]
    fn save_load_round_trips_recommendations() {
        let (ds, trained) = tiny_model(true);
        let builder = InstructionBuilder::new(&ds);
        let (ctx, _) = ds.test_example(0);
        let segs = builder.seq_eval_prompt(ctx);
        let before: Vec<u32> =
            trained.recommend_prompt(&segs, 8).into_iter().map(|h| h.item).collect();
        let mut buf = Vec::new();
        trained.save(&mut buf).expect("save");
        // A freshly built (untrained) model restores the trained weights.
        let (_, mut fresh) = tiny_model(false);
        let n = fresh.load(&mut buf.as_slice()).expect("load");
        assert!(n > 0);
        let after: Vec<u32> =
            fresh.recommend_prompt(&segs, 8).into_iter().map(|h| h.item).collect();
        assert_eq!(before, after, "checkpoint must reproduce the ranking");
    }

    #[test]
    fn embedding_groups_cover_index_tokens() {
        let (ds, model) = tiny_model(false);
        let (emb, labels) = model.embedding_groups(&ds);
        let idx_count = labels.iter().filter(|&&l| l == 0).count();
        assert_eq!(idx_count, model.vocab().indices().vocab_tokens());
        assert_eq!(emb.rows(), labels.len());
        assert!(labels.iter().any(|&l| l == 1), "some item-text words expected");
    }
}
