//! P5-CID (Hua et al., SIGIR-AP 2023): P5's sequential task with
//! **collaborative indexing** — item indices derived from interaction
//! co-occurrence (not text), used by a generative LM that maps index
//! sequences to target indices. Implemented here as hierarchical k-means
//! over co-occurrence embeddings feeding the same causal-LM substrate as
//! LC-Rec, trained only on the sequential task with a minimal prompt.

use crate::beam::constrained_beam_search_with;
use crate::lm::{train_lm, CausalLm, LmConfig, LmExample, LmTrainConfig};
use crate::vocab::ExtendedVocab;
use lcrec_data::{Dataset, Seg};
use lcrec_eval::Ranker;
use lcrec_par::Pool;
use lcrec_rqvae::kmeans::kmeans;
use lcrec_rqvae::{IndexTrie, ItemIndices};
use lcrec_tensor::Tensor;
use lcrec_text::Vocab;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Builds collaborative item indices: items are embedded by their
/// co-occurrence pattern (within a ±2 window, randomly projected to
/// `dim`), then recursively clustered with k-means into a `levels`-deep
/// tree of branching `k`; residual conflicts receive a suffix level, as
/// in the original collaborative-indexing scheme.
pub fn collaborative_indices(
    ds: &Dataset,
    levels: usize,
    k: usize,
    dim: usize,
    seed: u64,
) -> ItemIndices {
    let n = ds.num_items();
    let mut rng = StdRng::seed_from_u64(seed);
    // Random projection of co-occurrence rows: emb[i] += proj[j] whenever
    // i and j co-occur nearby (streaming, never materializing n×n).
    let proj: Vec<Vec<f32>> = (0..n)
        .map(|_| {
            let v = lcrec_tensor::init::normal(&[dim], 1.0, &mut rng);
            v.into_data()
        })
        .collect();
    let mut emb = vec![0.0f32; n * dim];
    for s in &ds.sequences {
        for (a, &ia) in s.iter().enumerate() {
            for &ib in &s[a + 1..(a + 3).min(s.len())] {
                if ia == ib {
                    continue;
                }
                for d in 0..dim {
                    emb[ia as usize * dim + d] += proj[ib as usize][d];
                    emb[ib as usize * dim + d] += proj[ia as usize][d];
                }
            }
        }
    }
    let mut embt = Tensor::new(&[n, dim], emb);
    lcrec_tensor::linalg::l2_normalize_rows(&mut embt);

    // Recursive k-means tree.
    let mut codes = vec![vec![0u16; levels]; n];
    let mut groups: Vec<Vec<usize>> = vec![(0..n).collect()];
    for level in 0..levels {
        let mut next = Vec::new();
        for group in groups {
            if group.is_empty() {
                continue;
            }
            let mut rows = Vec::with_capacity(group.len() * dim);
            for &i in &group {
                rows.extend_from_slice(embt.row(i));
            }
            let gx = Tensor::new(&[group.len(), dim], rows);
            let centers = kmeans(&gx, k.min(group.len().max(1)), 10, &mut rng);
            let mut sub: Vec<Vec<usize>> = vec![Vec::new(); k];
            for (slot, &i) in group.iter().enumerate() {
                let mut best = 0;
                let mut bd = f32::INFINITY;
                for c in 0..centers.rows() {
                    let d = lcrec_tensor::linalg::sq_dist(gx.row(slot), centers.row(c));
                    if d < bd {
                        bd = d;
                        best = c;
                    }
                }
                codes[i][level] = best as u16;
                sub[best].push(i);
            }
            next.extend(sub);
        }
        groups = next;
    }
    // Suffix level for uniqueness (the P5-CID conflict strategy).
    let mut by_full: std::collections::HashMap<Vec<u16>, usize> = Default::default();
    let mut suffix = vec![0u16; n];
    for i in 0..n {
        let e = by_full.entry(codes[i].clone()).or_insert(0);
        suffix[i] = *e as u16;
        *e += 1;
    }
    let max_suffix = suffix.iter().copied().max().unwrap_or(0) as usize + 1;
    let mut sizes = vec![k; levels];
    sizes.push(max_suffix);
    let full: Vec<Vec<u16>> = codes
        .into_iter()
        .enumerate()
        .map(|(i, mut c)| {
            c.push(suffix[i]);
            c
        })
        .collect();
    ItemIndices::new(sizes, full)
}

/// P5-CID configuration.
#[derive(Clone, Debug)]
pub struct P5CidConfig {
    /// Model width.
    pub dim: usize,
    /// Layers.
    pub layers: usize,
    /// Heads.
    pub heads: usize,
    /// Max history items.
    pub max_hist_items: usize,
    /// Training settings.
    pub train: LmTrainConfig,
    /// Beam width.
    pub beam: usize,
    /// Tree depth (before the suffix level).
    pub levels: usize,
    /// Branching factor.
    pub branch: usize,
    /// Seed.
    pub seed: u64,
}

impl P5CidConfig {
    /// Defaults for the small presets.
    pub fn small() -> Self {
        P5CidConfig {
            dim: 40,
            layers: 2,
            heads: 4,
            max_hist_items: 8,
            train: LmTrainConfig { lr: 1.5e-3, epochs: 12, batch: 32, warmup: 20, max_steps: None, seed: 41 },
            beam: 20,
            levels: 3,
            branch: 12,
            seed: 41,
        }
    }

    /// Micro config for tests.
    pub fn test() -> Self {
        let mut c = Self::small();
        c.dim = 16;
        c.layers = 1;
        c.heads = 2;
        c.branch = 6;
        c.train = LmTrainConfig { lr: 3e-3, epochs: 3, batch: 32, warmup: 4, max_steps: Some(50), seed: 2 };
        c.beam = 8;
        c
    }
}

/// The P5-CID model.
#[derive(Debug)]
pub struct P5Cid {
    cfg: P5CidConfig,
    lm: CausalLm,
    vocab: ExtendedVocab,
    trie: IndexTrie,
}

impl P5Cid {
    /// Builds the model (derives collaborative indices from the dataset).
    pub fn build(ds: &Dataset, cfg: P5CidConfig) -> Self {
        let indices = collaborative_indices(ds, cfg.levels, cfg.branch, 24, cfg.seed);
        // Minimal prompt vocabulary: P5's sequential prompt is a short fixed
        // phrase around the index sequence.
        let base = Vocab::build(["user history predict next item"], 1);
        let trie = IndexTrie::build(&indices);
        let vocab = ExtendedVocab::new(base, indices);
        let lm_cfg = LmConfig {
            vocab: vocab.len(),
            dim: cfg.dim,
            layers: cfg.layers,
            heads: cfg.heads,
            ff_hidden: cfg.dim * 2,
            max_seq: 8 + (cfg.max_hist_items + 1) * (cfg.levels + 1) + 4,
            dropout: 0.1,
            seed: cfg.seed,
        };
        P5Cid { cfg, lm: CausalLm::new(lm_cfg), vocab, trie }
    }

    /// The collaborative indices.
    pub fn indices(&self) -> &ItemIndices {
        self.vocab.indices()
    }

    fn example(&self, hist: &[u32], target: u32) -> LmExample {
        let h = if hist.len() > self.cfg.max_hist_items {
            &hist[hist.len() - self.cfg.max_hist_items..]
        } else {
            hist
        };
        let prompt = [
            Seg::Text("user history".into()),
            Seg::Items(h.to_vec()),
            Seg::Text("predict next item".into()),
        ];
        self.vocab.render_example(&prompt, &[Seg::Item(target)])
    }

    /// Trains on the sequential task with prefix augmentation.
    pub fn fit(&mut self, ds: &Dataset) -> Vec<f32> {
        let mut examples = Vec::new();
        for u in 0..ds.num_users() {
            let seq = ds.train_seq(u);
            for end in 1..seq.len() {
                examples.push(self.example(&seq[..end], seq[end]));
            }
        }
        let cfg = self.cfg.train.clone();
        train_lm(&mut self.lm, &examples, &cfg)
    }

    /// Constrained beam search for a history.
    pub fn recommend(&self, history: &[u32], beam: usize) -> Vec<(u32, f32)> {
        let (tokens, plen) = self.example(history, 0);
        let prompt = &tokens[..plen];
        let pool = Pool::from_env();
        constrained_beam_search_with(&pool, &self.lm, &self.vocab, &self.trie, prompt, beam)
            .into_iter()
            .map(|h| (h.item, h.logprob))
            .collect()
    }
}

impl Ranker for P5Cid {
    fn rank(&self, _user: usize, history: &[u32], k: usize) -> Vec<u32> {
        self.recommend(history, k.max(self.cfg.beam)).into_iter().take(k).map(|(i, _)| i).collect()
    }

    fn name(&self) -> String {
        "P5-CID".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcrec_data::DatasetConfig;

    #[test]
    fn collaborative_indices_are_unique_and_structured() {
        let ds = Dataset::generate(&DatasetConfig::tiny());
        let idx = collaborative_indices(&ds, 2, 4, 12, 1);
        assert!(idx.is_unique());
        assert_eq!(idx.levels, 3, "suffix level appended");
        // Co-occurring items should share prefixes more than random pairs:
        // level-1 sharing must be far above 1/k.
        assert!(idx.prefix_sharing(1) > 0.1);
    }

    #[test]
    fn p5cid_trains_and_recommends() {
        let ds = Dataset::generate(&DatasetConfig::tiny());
        let mut m = P5Cid::build(&ds, P5CidConfig::test());
        let losses = m.fit(&ds);
        assert!(losses.last().expect("epochs") <= &losses[0], "{losses:?}");
        let (ctx, _) = ds.test_example(0);
        let recs = m.recommend(ctx, 8);
        assert!(!recs.is_empty());
        assert!(recs.iter().all(|(i, _)| (*i as usize) < ds.num_items()));
    }
}
