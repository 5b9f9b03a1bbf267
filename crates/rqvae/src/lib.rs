//! # lcrec-rqvae
//!
//! The paper's item-indexing contribution (§III-B): a Residual-Quantized
//! VAE that learns tree-structured semantic item indices from text
//! embeddings, with **uniform semantic mapping** (Sinkhorn-Knopp optimal
//! transport) on the last level to guarantee conflict-free indices — plus
//! the alternative indexing schemes used in the Figure-2 ablation and the
//! prefix trie that drives constrained beam search.

#![warn(missing_docs)]

pub mod catalog;
pub mod indexers;
pub mod indices;
pub mod kmeans;
pub mod model;
pub mod sinkhorn;

pub use catalog::{Admission, CatalogUpdater};
pub use indexers::{build_indices, IndexerKind};
pub use indices::{IndexError, IndexTrie, IndexTrieBuilder, ItemIndices};
pub use model::{RqVae, RqVaeConfig, TrainCursor, TrainReport};
pub use sinkhorn::{sinkhorn_plan, uniform_assign, SinkhornConfig};
