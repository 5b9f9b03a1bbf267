//! Property-style tests on cross-crate invariants: the index trie,
//! constrained decoding, Sinkhorn balance, metrics, and the tokenizer round
//! trip.
//!
//! Each test draws 64 randomized cases from a fixed-seed generator (the
//! offline stand-in for the original proptest strategies), so failures are
//! reproducible by construction.

use lc_rec::prelude::*;
use lc_rec::rqvae::{uniform_assign, SinkhornConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

const CASES: usize = 64;

/// A non-empty set of unique multi-level codes, mimicking the original
/// `hash_set(vec(0..k, levels), 1..=n)` strategy.
fn arb_codes(rng: &mut StdRng, levels: usize, k: u16, n: usize) -> Vec<Vec<u16>> {
    let want = rng.random_range(1..=n);
    let mut set: BTreeSet<Vec<u16>> = BTreeSet::new();
    // Bounded attempts: duplicates are simply re-drawn, like hash_set does.
    for _ in 0..want * 8 {
        if set.len() == want {
            break;
        }
        set.insert((0..levels).map(|_| rng.random_range(0..k)).collect());
    }
    set.into_iter().collect()
}

#[test]
fn trie_accepts_exactly_its_items() {
    let mut rng = StdRng::seed_from_u64(0xC0DE5);
    for _ in 0..CASES {
        let codes = arb_codes(&mut rng, 3, 5, 40);
        let indices = ItemIndices::new(vec![5, 5, 5], codes.clone());
        let trie = IndexTrie::build(&indices);
        // Every inserted code path resolves to an item.
        for c in &codes {
            let item = trie.item_at(c).expect("inserted code must resolve");
            assert_eq!(indices.of(item), c.as_slice());
        }
        // Walking only allowed() transitions always ends at a real item.
        let mut prefix = Vec::new();
        for _ in 0..3 {
            let allowed = trie.allowed(&prefix);
            assert!(!allowed.is_empty());
            prefix.push(allowed[0]);
        }
        assert!(trie.item_at(&prefix).is_some());
    }
}

#[test]
fn trie_rejects_mutated_codes() {
    let mut rng = StdRng::seed_from_u64(0xBAD_C0DE);
    for _ in 0..CASES {
        let codes = arb_codes(&mut rng, 3, 5, 30);
        let indices = ItemIndices::new(vec![5, 5, 5], codes.clone());
        let trie = IndexTrie::build(&indices);
        // A code outside the codebook range can never resolve.
        let mut bad = codes[0].clone();
        bad[2] = 63; // out of the 0..5 range used at build time
        assert!(trie.item_at(&bad).is_none());
        // Wrong length never resolves.
        assert!(trie.item_at(&codes[0][..2]).is_none());
    }
}

#[test]
fn sinkhorn_assignment_is_balanced() {
    let mut rng = StdRng::seed_from_u64(0x51A7);
    for _ in 0..CASES {
        let rows = rng.random_range(2usize..30);
        let cols = rng.random_range(2usize..8);
        let data: Vec<f32> = (0..rows * cols).map(|_| rng.random_range(0.0..10.0)).collect();
        let cost = Tensor::new(&[rows, cols], data);
        let assign = uniform_assign(&cost, SinkhornConfig::default());
        assert_eq!(assign.len(), rows);
        let cap = rows.div_ceil(cols);
        let mut loads = vec![0usize; cols];
        for &a in &assign {
            assert!((a as usize) < cols);
            loads[a as usize] += 1;
        }
        assert!(loads.iter().all(|&l| l <= cap), "loads {loads:?} exceed cap {cap}");
    }
}

#[test]
fn hr_ndcg_are_bounded_and_consistent() {
    use lc_rec::eval::RankingMetrics;
    let mut rng = StdRng::seed_from_u64(0xAB);
    for _ in 0..CASES {
        let len = rng.random_range(1usize..20);
        let ranked: Vec<u32> = (0..len).map(|_| rng.random_range(0..100u32)).collect();
        let target = rng.random_range(0..100u32);
        let mut m = RankingMetrics::default();
        m.push(&ranked, target);
        let f = m.finalize();
        for v in f.as_row() {
            assert!((0.0..=1.0).contains(&v));
        }
        // HR@1 ≤ HR@5 ≤ HR@10 and NDCG@5 ≤ HR@5 (single relevant item).
        assert!(f.hr1 <= f.hr5 + 1e-12);
        assert!(f.hr5 <= f.hr10 + 1e-12);
        assert!(f.ndcg5 <= f.hr5 + 1e-12);
        assert!(f.ndcg10 <= f.hr10 + 1e-12);
    }
}

#[test]
fn vocab_round_trips_known_words() {
    let mut rng = StdRng::seed_from_u64(0x70C);
    for _ in 0..CASES {
        let nwords = rng.random_range(1usize..12);
        let words: Vec<String> = (0..nwords)
            .map(|_| {
                let len = rng.random_range(1usize..=8);
                (0..len).map(|_| (b'a' + rng.random_range(0..26u8)) as char).collect()
            })
            .collect();
        let corpus = words.join(" ");
        let vocab = Vocab::build([corpus.as_str()], 1);
        let ids = vocab.encode(&corpus);
        let decoded = vocab.decode(&ids);
        let original: Vec<&str> = corpus.split_whitespace().collect();
        let round: Vec<&str> = decoded.split_whitespace().collect();
        assert_eq!(original, round);
    }
}

#[test]
fn softmax_rows_is_a_distribution() {
    use lc_rec::tensor::softmax_rows;
    let mut rng = StdRng::seed_from_u64(0x50F7);
    for _ in 0..CASES {
        let len = rng.random_range(4usize..40);
        let vals: Vec<f32> = (0..len).map(|_| rng.random_range(-50.0f32..50.0)).collect();
        let cols = 4;
        let n = (vals.len() / cols) * cols;
        let mut out = vec![0.0; n];
        softmax_rows(&vals[..n], &mut out, cols);
        for row in out.chunks(cols) {
            let s: f32 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-4);
            assert!(row.iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
    }
}

/// `log(sum(exp(logits)))` computed with *exactly* the float-op sequence the
/// beam's scoring phase uses (`fold` max, `iter().map().sum()`, `z.ln() + mx`)
/// so oracle scores are bit-comparable to beam scores.
fn beam_log_z(logits: &[f32]) -> f32 {
    let mx = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let z: f32 = logits.iter().map(|&v| (v - mx).exp()).sum();
    z.ln() + mx
}

#[test]
fn beam_matches_exhaustive_oracle_when_width_covers_all_items() {
    use lc_rec::core::{
        constrained_beam_search_graph, constrained_beam_search_with, CausalLm, ExtendedVocab,
        KvCache, LmConfig,
    };

    let mut rng = StdRng::seed_from_u64(0x0BEA_04AC);
    for case in 0..12 {
        let codes = arb_codes(&mut rng, 3, 4, 10);
        let n_items = codes.len();
        let indices = ItemIndices::new(vec![4, 4, 4], codes);
        let trie = IndexTrie::build(&indices);
        let vocab = ExtendedVocab::new(Vocab::build(["recommend an item"], 1), indices);
        let mut lm_cfg = LmConfig::test(vocab.len());
        lm_cfg.seed = 0x5EED + case as u64;
        let lm = CausalLm::new(lm_cfg);
        let prompt = vocab.render(&[Seg::Text("recommend".into())]);

        // Oracle: score every stored item by full-sequence teacher forcing
        // through the unfused reference step, one token at a time,
        // replaying the beam's restricted log-softmax arithmetic verbatim.
        let step = |cache: &mut KvCache, tok: u32| {
            lm.advance_batch(&mut [cache], &[tok]).pop().expect("one logit row per slot")
        };
        let mut oracle: Vec<(u32, f32)> = Vec::with_capacity(n_items);
        for item in 0..n_items as u32 {
            let item_codes: Vec<u16> = vocab.indices().of(item).to_vec();
            let mut cache = lm.new_cache();
            let mut logits = prompt.iter().fold(Vec::new(), |_, &tok| step(&mut cache, tok));
            let mut lp = 0.0f32;
            for (level, &code) in item_codes.iter().enumerate() {
                let lz = beam_log_z(&logits);
                let tok = vocab.index_token(level, code);
                lp = lp + logits[tok as usize] - lz;
                logits = step(&mut cache, tok);
            }
            oracle.push((item, lp));
        }

        // Beam wide enough to hold every item: level-wise truncation can
        // never prune (candidates per level ≤ |items|), so the search is
        // exhaustive and must reproduce the oracle bit for bit.
        let pool = Pool::from_env();
        let hyps = constrained_beam_search_with(&pool, &lm, &vocab, &trie, &prompt, n_items);
        assert_eq!(hyps.len(), n_items, "case {case}: beam must surface every item");
        // The graph-backed baseline drives the same search through full
        // tape re-forwards; it must agree with the fused path bit for bit.
        let graph = constrained_beam_search_graph(&lm, &vocab, &trie, &prompt, n_items);
        let fused_bits: Vec<(u32, u32)> =
            hyps.iter().map(|h| (h.item, h.logprob.to_bits())).collect();
        let graph_bits: Vec<(u32, u32)> =
            graph.iter().map(|h| (h.item, h.logprob.to_bits())).collect();
        assert_eq!(graph_bits, fused_bits, "case {case}: graph baseline vs fused path");
        let mut got: Vec<(u32, u32)> = fused_bits.clone();
        let mut want: Vec<(u32, u32)> =
            oracle.iter().map(|&(i, lp)| (i, lp.to_bits())).collect();
        // Canonical order (score desc, item asc) on both sides: ranking and
        // scores must agree exactly; only tie order is normalized away.
        got.sort_by(|a, b| {
            f32::from_bits(b.1)
                .partial_cmp(&f32::from_bits(a.1))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        want.sort_by(|a, b| {
            f32::from_bits(b.1)
                .partial_cmp(&f32::from_bits(a.1))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        assert_eq!(got, want, "case {case}: beam ranking must equal exhaustive scoring");
        // And the beam's own order must already be sorted by score.
        for w in hyps.windows(2) {
            assert!(w[0].logprob >= w[1].logprob);
        }
    }
}

#[test]
fn extended_vocab_item_tokens_round_trip_for_all_items() {
    // Deterministic exhaustive check over a real learned index set.
    let ds = Dataset::generate(&DatasetConfig::tiny());
    let mut enc = TextEncoder::new(24, 9);
    let texts: Vec<String> = ds.catalog.items.iter().map(|i| i.full_text()).collect();
    let emb = enc.encode_batch(texts.iter().map(String::as_str));
    let mut rq = RqVaeConfig::small(24, ds.num_items());
    rq.epochs = 5;
    rq.levels = 3;
    rq.codebook_size = 8;
    rq.latent_dim = 8;
    rq.hidden = vec![16];
    let indices = build_indices(IndexerKind::LcRec, &emb, &rq);
    let trie = IndexTrie::build(&indices);
    for item in 0..ds.num_items() as u32 {
        assert_eq!(trie.item_at(indices.of(item)), Some(item), "item {item} must round-trip");
    }
}
