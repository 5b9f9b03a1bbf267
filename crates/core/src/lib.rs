//! # lcrec-core
//!
//! The paper's primary contribution: **LC-Rec**, an LLM-based generative
//! recommender that integrates language and collaborative semantics via
//! learned item indices and multi-task alignment tuning — plus the
//! generative baselines it is compared against (TIGER, P5-CID), the
//! zero-shot language-only scorers of Table V, and the Figure-5/6 case
//! study instrumentation.

#![warn(missing_docs)]

pub mod beam;
pub mod casestudy;
pub mod lcrec;
pub mod lm;
pub mod p5cid;
pub mod snapshot;
pub mod tiger;
pub mod vocab;
pub mod zeroshot;

pub use beam::{
    constrained_beam_search_graph, constrained_beam_search_with,
    multi_constrained_beam_search_scratch, Hypothesis,
};
pub use lcrec::{LcRec, LcRecConfig, LcRecRanker};
pub use lm::{
    dense_batch_order, train_lm, CausalLm, DecodeScratch, KvCache, LmConfig, LmTrainConfig,
};
pub use p5cid::{collaborative_indices, P5Cid, P5CidConfig};
pub use snapshot::{CatalogTrie, TrieSnapshot};
pub use tiger::{Tiger, TigerConfig};
pub use vocab::ExtendedVocab;
pub use zeroshot::TextSimilarityScorer;

use lcrec_tensor::Tensor;

/// A causal additive attention mask `[t, t]` (0 keep / −1e9 drop).
pub(crate) fn mask_cache(t: usize) -> Tensor {
    let mut m = Tensor::zeros(&[t, t]);
    for i in 0..t {
        for j in (i + 1)..t {
            m.data_mut()[i * t + j] = -1e9;
        }
    }
    m
}
