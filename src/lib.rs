//! # lc-rec
//!
//! A from-scratch Rust reproduction of **"Adapting Large Language Models by
//! Integrating Collaborative Semantics for Recommendation"** (LC-Rec,
//! ICDE 2024).
//!
//! LC-Rec bridges the semantic gap between language models and recommender
//! systems with two mechanisms:
//!
//! 1. **Item indexing** ([`rqvae`]): an RQ-VAE learns tree-structured
//!    semantic IDs from item text embeddings; a Sinkhorn-Knopp *uniform
//!    semantic mapping* guarantees conflict-free indices.
//! 2. **Alignment tuning** ([`core`]): the LM vocabulary is extended with
//!    the index tokens and instruction-tuned on five task families
//!    (sequential prediction, mutual index↔language prediction, asymmetric
//!    prediction, intention-based retrieval, preference inference), then
//!    recommends via trie-constrained beam search over the full item set.
//!
//! This facade re-exports all workspace crates. The typical pipeline:
//!
//! ```
//! use lc_rec::prelude::*;
//!
//! // 1. Data: a synthetic Amazon-like dataset (substitute documented in
//! //    DESIGN.md).
//! let ds = Dataset::generate(&DatasetConfig::tiny());
//!
//! // 2. Item text embeddings (LLaMA-encoder substitute).
//! let mut enc = TextEncoder::new(24, 7);
//! let texts: Vec<String> = ds.catalog.items.iter().map(|i| i.full_text()).collect();
//! let emb = enc.encode_batch(texts.iter().map(String::as_str));
//!
//! // 3. Semantic item indices via RQ-VAE + uniform semantic mapping.
//! let mut rq = RqVaeConfig::small(24, ds.num_items());
//! rq.epochs = 4; // doc-test budget
//! rq.levels = 3;
//! rq.codebook_size = 8;
//! rq.latent_dim = 8;
//! rq.hidden = vec![16];
//! let indices = build_indices(IndexerKind::LcRec, &emb, &rq);
//! assert!(indices.is_unique());
//!
//! // 4. Alignment-tune the LM and recommend.
//! let mut cfg = LcRecConfig::test();
//! cfg.train.max_steps = Some(8); // doc-test budget
//! let mut model = LcRec::build(&ds, indices, cfg);
//! model.fit(&ds);
//! let builder = InstructionBuilder::new(&ds);
//! let (history, _) = ds.test_example(0);
//! let recs = model.recommend_prompt(&builder.seq_eval_prompt(history), 5);
//! assert!(!recs.is_empty());
//! ```

#![warn(missing_docs)]

pub use lcrec_core as core;
pub use lcrec_data as data;
pub use lcrec_eval as eval;
pub use lcrec_fault as fault;
pub use lcrec_obs as obs;
pub use lcrec_par as par;
pub use lcrec_rqvae as rqvae;
pub use lcrec_seqrec as seqrec;
pub use lcrec_serve as serve;
pub use lcrec_tensor as tensor;
pub use lcrec_text as text;

/// The most common imports in one place.
pub mod prelude {
    pub use lcrec_core::{
        constrained_beam_search_with, CausalLm, LcRec, LcRecConfig, LcRecRanker, LmConfig, P5Cid,
        P5CidConfig, TextSimilarityScorer, Tiger, TigerConfig,
    };
    pub use lcrec_data::{Dataset, DatasetConfig, InstructionBuilder, Seg, Task, TaskSet};
    pub use lcrec_eval::{
        evaluate_test, evaluate_valid, NegativeKind, PairwiseScorer, Ranker, RankingMetrics,
    };
    pub use lcrec_fault::{Backoff, FaultPlan};
    pub use lcrec_par::Pool;
    pub use lcrec_rqvae::{
        build_indices, IndexTrie, IndexerKind, ItemIndices, RqVae, RqVaeConfig,
    };
    pub use lcrec_seqrec::{RecConfig, SasRec, ScoreModel, ScoreRanker, TrainingPairs};
    pub use lcrec_serve::{
        Engine, Outcome, Reject, Response, Ring, Router, RouterConfig, RouterOutcome,
        RouterReject, ServeConfig, TimeoutReason,
    };
    pub use lcrec_tensor::{Graph, ParamStore, Tensor};
    pub use lcrec_text::{TextEncoder, TextGen, Vocab};
}
