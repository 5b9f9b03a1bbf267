//! Decode fast-path contract tests: the fused KV-cached decode (scratch
//! buffers + inference-backend kernels + arena trie) must be a **pure
//! speedup** — bit-identical to the graph-backed baseline at every batch
//! size and thread count, with the arena trie node-for-node equivalent to
//! the pointer-node reference implementation on randomized ID sets.

#[path = "support/pointer_trie.rs"]
mod pointer_trie;

use lc_rec::core::lm::log_softmax_pick;
use lc_rec::core::{
    constrained_beam_search_graph, constrained_beam_search_with,
    multi_constrained_beam_search_scratch, CausalLm, ExtendedVocab, KvCache, LmConfig,
};
use lc_rec::data::Seg;
use lc_rec::par::Pool;
use lc_rec::rqvae::{IndexTrie, ItemIndices};
use lc_rec::tensor::{BlockedBackend, InferenceBackend, ReferenceBackend};
use lc_rec::text::Vocab;
use pointer_trie::PointerTrie;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// A 3-level, 12-item model big enough that beams diverge and pruning
/// actually cuts, small enough to decode in milliseconds.
fn setup() -> (CausalLm, ExtendedVocab, IndexTrie) {
    let base = Vocab::build(["the user bought several items recommend one more"], 1);
    let indices = ItemIndices::new(
        vec![4, 4, 4],
        vec![
            vec![0, 0, 0],
            vec![0, 0, 1],
            vec![0, 1, 2],
            vec![0, 3, 3],
            vec![1, 0, 0],
            vec![1, 2, 2],
            vec![1, 2, 3],
            vec![2, 0, 1],
            vec![2, 1, 1],
            vec![3, 0, 0],
            vec![3, 2, 0],
            vec![3, 3, 3],
        ],
    );
    let trie = IndexTrie::build(&indices);
    let vocab = ExtendedVocab::new(base, indices);
    let lm = CausalLm::new(LmConfig::test(vocab.len()));
    (lm, vocab, trie)
}

fn prompts(vocab: &ExtendedVocab, n: usize) -> Vec<Vec<u32>> {
    let texts = [
        "recommend one more",
        "the user bought items",
        "several items",
        "bought several items recommend",
        "the user",
        "recommend",
        "items recommend one",
        "user bought one",
    ];
    (0..n)
        .map(|i| vocab.render(&[Seg::Text(texts[i % texts.len()].into())]))
        .collect()
}

fn bits(hyps: &[lc_rec::core::Hypothesis]) -> Vec<(u32, u32)> {
    hyps.iter().map(|h| (h.item, h.logprob.to_bits())).collect()
}

/// One reference step for one cache: the unfused `advance_batch` on a
/// single slot.
fn reference_step(lm: &CausalLm, cache: &mut KvCache, token: u32) -> Vec<f32> {
    lm.advance_batch(&mut [cache], &[token]).pop().expect("one logit row per slot")
}

/// The reference prefill: each sequence fed one token at a time through
/// [`reference_step`] into its own cache. Returns the logits after each
/// sequence's last token (an empty row for an empty sequence).
fn reference_prefill(lm: &CausalLm, caches: &mut [KvCache], seqs: &[&[u32]]) -> Vec<Vec<f32>> {
    caches
        .iter_mut()
        .zip(seqs)
        .map(|(cache, seq)| seq.iter().fold(Vec::new(), |_, &tok| reference_step(lm, cache, tok)))
        .collect()
}

/// The tentpole contract: fused batched decode equals the graph-backed
/// baseline bit for bit at every batch size × thread count combination —
/// an empty prompt included, which yields no hypotheses on either path.
#[test]
fn fused_decode_matches_graph_baseline_at_every_batch_and_thread_count() {
    let (lm, vocab, trie) = setup();
    let mut all_prompts = prompts(&vocab, 7);
    all_prompts.insert(2, Vec::new());
    let width = 4usize;
    let oracle: Vec<Vec<(u32, u32)>> = all_prompts
        .iter()
        .map(|p| bits(&constrained_beam_search_graph(&lm, &vocab, &trie, p, width)))
        .collect();
    assert!(oracle[2].is_empty(), "an empty prompt has nothing to decode");
    let mut scratch = lm.new_scratch();
    for batch in [1usize, 3, 8] {
        for threads in [1usize, 4] {
            let pool = Pool::new(threads);
            let widths = vec![width; batch];
            let got = multi_constrained_beam_search_scratch(
                &pool,
                &lm,
                &vocab,
                &trie,
                &all_prompts[..batch],
                &widths,
                &mut scratch,
            );
            assert_eq!(got.len(), batch);
            for (pi, ranked) in got.iter().enumerate() {
                assert_eq!(
                    bits(ranked),
                    oracle[pi],
                    "batch {batch} × threads {threads}, prompt {pi}: fused batched decode \
                     must be bit-identical to the graph baseline"
                );
            }
            // The single-request fused path too, at this thread count.
            for (pi, p) in all_prompts[..batch].iter().enumerate() {
                let solo = constrained_beam_search_with(&pool, &lm, &vocab, &trie, p, width);
                assert_eq!(bits(&solo), oracle[pi], "single-request fused vs graph");
            }
        }
    }
}

/// The fused prefill and step must produce bit-identical logits to the
/// reference loop for every slot, across batch sizes and successive steps
/// on the same caches.
#[test]
fn fused_advance_matches_reference_advance_bitwise() {
    let (lm, vocab, _trie) = setup();
    let all_prompts = prompts(&vocab, 8);
    let mut scratch = lm.new_scratch();
    for batch in [1usize, 3, 8] {
        let seqs: Vec<&[u32]> = all_prompts[..batch].iter().map(Vec::as_slice).collect();
        let mut ref_caches: Vec<_> = (0..batch).map(|_| lm.new_cache()).collect();
        let ref_first = reference_prefill(&lm, &mut ref_caches, &seqs);
        let mut fused_caches: Vec<_> = (0..batch).map(|_| lm.new_cache()).collect();
        let fused_first = lm.prefill_batch_fused(&mut scratch, &mut fused_caches, &seqs);
        for (a, b) in ref_first.iter().zip(&fused_first) {
            let (ab, bb): (Vec<u32>, Vec<u32>) =
                (a.iter().map(|v| v.to_bits()).collect(), b.iter().map(|v| v.to_bits()).collect());
            assert_eq!(ab, bb, "prefill logits must be bit-identical (batch {batch})");
        }
        // Three decode steps, feeding each path the same tokens.
        for step in 0..3u32 {
            let toks: Vec<u32> = (0..batch as u32).map(|s| (s + step) % 4).collect();
            let mut ref_slots: Vec<_> = ref_caches.iter_mut().collect();
            let ref_rows = lm.advance_batch(&mut ref_slots, &toks);
            let mut fused_slots: Vec<_> = fused_caches.iter_mut().collect();
            let fused_flat = lm.advance_batch_fused(&mut scratch, &mut fused_slots, &toks);
            let vocab_n = lm.config().vocab;
            for (slot, (r, f)) in
                ref_rows.iter().zip(fused_flat.chunks_exact(vocab_n)).enumerate()
            {
                let (rb, fb): (Vec<u32>, Vec<u32>) = (
                    r.iter().map(|v| v.to_bits()).collect(),
                    f.iter().map(|v| v.to_bits()).collect(),
                );
                assert_eq!(
                    rb, fb,
                    "advance step {step}, batch {batch}, slot {slot}: fused logits must \
                     be bit-identical to the reference step"
                );
            }
        }
    }
}

/// A model wide enough that the fused step's spawn-cost threshold lets
/// rows split into lanes (`DecodeScratch::lanes_for`): 0.53 M parameters,
/// the benchmark's medium shape over a small vocabulary.
fn lane_sized_lm() -> CausalLm {
    CausalLm::new(LmConfig {
        vocab: 96,
        dim: 128,
        layers: 3,
        heads: 4,
        ff_hidden: 256,
        max_seq: 48,
        dropout: 0.0,
        seed: 11,
    })
}

fn f32_bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|v| v.to_bits()).collect()
}

/// Every layer's cached keys and values, as bit patterns.
fn cache_bits(lm: &CausalLm, cache: &lc_rec::core::KvCache) -> Vec<(Vec<u32>, Vec<u32>)> {
    (0..lm.config().layers)
        .map(|l| {
            let (k, v) = cache.layer(l).expect("one cache entry per layer");
            (f32_bits(k), f32_bits(v))
        })
        .collect()
}

/// Lanes are invisible in the bits: at every row count × thread count —
/// uneven partitions and the inline path included — the fused step's
/// logits **and** updated caches equal the reference `advance_batch`, on
/// caches of unequal length.
#[test]
fn lane_parallel_step_matches_reference_step_bitwise() {
    let lm = lane_sized_lm();
    let mut scratch = lm.new_scratch();
    for rows in [1usize, 7, 8, 16, 33] {
        // Row r starts from an (r % 5 + 1)-token prefix of its own.
        let mut ref_caches: Vec<_> = (0..rows)
            .map(|r| {
                let mut cache = lm.new_cache();
                for t in 0..r % 5 + 1 {
                    reference_step(&lm, &mut cache, ((r * 7 + t * 3) % 96) as u32);
                }
                cache
            })
            .collect();
        let start = ref_caches.clone();
        let toks: Vec<u32> = (0..rows).map(|r| ((r * 13 + 5) % 96) as u32).collect();
        let mut ref_slots: Vec<_> = ref_caches.iter_mut().collect();
        let ref_rows = lm.advance_batch(&mut ref_slots, &toks);
        let ref_logits: Vec<u32> = ref_rows.iter().flat_map(|row| f32_bits(row)).collect();
        let mut widest = 1;
        for threads in [1usize, 2, 4] {
            scratch.set_pool(Pool::new(threads));
            widest = widest.max(scratch.lanes_for(rows, rows));
            let mut caches = start.clone();
            let mut slots: Vec<_> = caches.iter_mut().collect();
            let logits = f32_bits(lm.advance_batch_fused(&mut scratch, &mut slots, &toks));
            assert_eq!(logits, ref_logits, "rows {rows} × threads {threads}: logits");
            for (r, (got, want)) in caches.iter().zip(&ref_caches).enumerate() {
                assert_eq!(got.len(), want.len(), "rows {rows} × threads {threads}, row {r}: cache length");
                assert_eq!(
                    cache_bits(&lm, got),
                    cache_bits(&lm, want),
                    "rows {rows} × threads {threads}, row {r}: cache contents"
                );
            }
        }
        // The matrix must cover real multi-lane steps, not only inline ones.
        let expect = match rows {
            1 => 1,
            7 | 8 => 2,
            _ => 4,
        };
        assert_eq!(widest, expect, "rows {rows}: lanes at 4 threads");
    }
}

/// Sequence-major, lane-parallel prefill equals the token-at-a-time
/// reference prefill in logits **and** caches at every thread count, from
/// every start state: onto empty caches and extending non-empty ones, on
/// ragged lengths with empty sequences, past `max_seq` (the position
/// clamp, and more rows than one pass holds), on all-empty input and on
/// one lone sequence — and three decode steps afterwards still agree.
#[test]
fn lane_parallel_prefill_matches_serial_prefill_bitwise() {
    let lm = lane_sized_lm();
    let vocab_n = lm.config().vocab;
    assert_eq!(lm.config().max_seq, 48);
    // Per case: the lengths of a first prefill and of a second one that
    // extends the caches the first left behind.
    let cases: [(&str, &[usize], &[usize]); 4] = [
        ("ragged", &[5, 0, 17, 1, 9, 12, 3], &[4, 6, 0, 11, 2, 1, 8]),
        ("past max_seq", &[60, 3, 50, 30], &[5, 70, 0, 19]),
        ("all empty", &[0, 0, 0], &[0, 7, 0]),
        ("lone sequence", &[21], &[9]),
    ];
    let mut scratch = lm.new_scratch();
    for (name, first, second) in cases {
        let rounds: Vec<Vec<Vec<u32>>> = [first, second]
            .iter()
            .enumerate()
            .map(|(round, lens)| {
                lens.iter()
                    .enumerate()
                    .map(|(i, &n)| (0..n).map(|t| ((round * 29 + i * 11 + t * 5 + 1) % 96) as u32).collect())
                    .collect()
            })
            .collect();
        let mut ref_caches: Vec<_> = first.iter().map(|_| lm.new_cache()).collect();
        let ref_logits: Vec<Vec<Vec<f32>>> = rounds
            .iter()
            .map(|prompts| {
                let seqs: Vec<&[u32]> = prompts.iter().map(Vec::as_slice).collect();
                reference_prefill(&lm, &mut ref_caches, &seqs)
            })
            .collect();
        let toks = |step: usize| -> Vec<u32> {
            (0..first.len()).map(|r| ((r * 13 + step * 7 + 5) % 96) as u32).collect()
        };
        let mut ref_decoded = ref_caches.clone();
        let ref_steps: Vec<Vec<u32>> = (0..3)
            .map(|step| {
                let mut slots: Vec<_> = ref_decoded.iter_mut().collect();
                lm.advance_batch(&mut slots, &toks(step)).iter().flat_map(|row| f32_bits(row)).collect()
            })
            .collect();
        for threads in [1usize, 2, 4] {
            scratch.set_pool(Pool::new(threads));
            if name == "ragged" {
                let tokens: usize = first.iter().sum();
                assert_eq!(scratch.lanes_for(first.len(), tokens), threads, "47 tokens split at this model size");
            }
            let mut caches: Vec<_> = first.iter().map(|_| lm.new_cache()).collect();
            for (round, prompts) in rounds.iter().enumerate() {
                let seqs: Vec<&[u32]> = prompts.iter().map(Vec::as_slice).collect();
                let logits = lm.prefill_batch_fused(&mut scratch, &mut caches, &seqs);
                assert_eq!(logits.len(), seqs.len());
                for (i, (got, want)) in logits.iter().zip(&ref_logits[round]).enumerate() {
                    assert_eq!(got.is_empty(), seqs[i].is_empty(), "an empty sequence yields an empty row");
                    assert_eq!(f32_bits(got), f32_bits(want), "{name}, threads {threads}, round {round}, sequence {i}: logits");
                }
            }
            let same_caches = |caches: &[lc_rec::core::KvCache], want: &[lc_rec::core::KvCache], what: &str| {
                for (i, (cache, ref_cache)) in caches.iter().zip(want).enumerate() {
                    assert_eq!(cache.len(), ref_cache.len(), "{name}, threads {threads}, sequence {i}: cache length {what}");
                    assert_eq!(
                        cache_bits(&lm, cache),
                        cache_bits(&lm, ref_cache),
                        "{name}, threads {threads}, sequence {i}: cache contents {what}"
                    );
                }
            };
            same_caches(&caches, &ref_caches, "after prefill");
            for (step, want) in ref_steps.iter().enumerate() {
                let mut slots: Vec<_> = caches.iter_mut().collect();
                let got = f32_bits(lm.advance_batch_fused(&mut scratch, &mut slots, &toks(step)));
                assert_eq!(got.len(), first.len() * vocab_n);
                assert_eq!(&got, want, "{name}, threads {threads}: decode step {step} after prefill");
            }
            same_caches(&caches, &ref_decoded, "after decode");
        }
    }
}

/// `greedy` and `sequence_logprob` run the fused forward on a scratch of
/// their own; called from pools of 1, 2 and 4 workers they equal the
/// reference loop — the same greedy tokens, the same log-probability bits.
#[test]
fn greedy_and_sequence_logprob_match_the_reference_loop() {
    let lm = lane_sized_lm();
    let prompts: Vec<Vec<u32>> = (0..6)
        .map(|i| (0..3 + i * 4).map(|t| ((i * 17 + t * 5 + 1) % 96) as u32).collect())
        .collect();
    let argmax = |row: &[f32]| {
        // The first maximal index, as `greedy` breaks ties.
        let first_max =
            |(bi, bv): (usize, f32), (i, &v): (usize, &f32)| if v > bv { (i, v) } else { (bi, bv) };
        row.iter().enumerate().fold((0, f32::NEG_INFINITY), first_max).0 as u32
    };
    // Reference: greedy-decode 8 tokens, summing their log-probabilities.
    let want: Vec<(Vec<u32>, u32)> = prompts
        .iter()
        .map(|p| {
            let mut cache = lm.new_cache();
            let mut logits =
                reference_prefill(&lm, std::slice::from_mut(&mut cache), &[p.as_slice()]).remove(0);
            let (mut tokens, mut logprob) = (Vec::new(), 0.0f32);
            for _ in 0..8 {
                let next = argmax(&logits);
                logprob += log_softmax_pick(&logits, next);
                tokens.push(next);
                logits = reference_step(&lm, &mut cache, next);
            }
            (tokens, logprob.to_bits())
        })
        .collect();
    for threads in [1usize, 2, 4] {
        let got = Pool::new(threads).map(&prompts, |_, p| {
            let tokens = lm.greedy(p, 8, |_| false);
            let logprob = lm.sequence_logprob(p, &tokens).to_bits();
            (tokens, logprob)
        });
        assert_eq!(got, want, "threads {threads}: greedy tokens and sequence_logprob bits");
    }
}

/// Reusing one scratch across many decodes (the serving engine's pattern)
/// must give the same bits as a fresh scratch per call.
#[test]
fn scratch_reuse_is_bit_deterministic() {
    let (lm, vocab, trie) = setup();
    let all_prompts = prompts(&vocab, 4);
    let widths = vec![3usize; all_prompts.len()];
    let pool = Pool::new(2);
    let fresh = multi_constrained_beam_search_scratch(
        &pool,
        &lm,
        &vocab,
        &trie,
        &all_prompts,
        &widths,
        &mut lm.new_scratch(),
    );
    let mut scratch = lm.new_scratch();
    for round in 0..3 {
        let reused = multi_constrained_beam_search_scratch(
            &pool,
            &lm,
            &vocab,
            &trie,
            &all_prompts,
            &widths,
            &mut scratch,
        );
        for (a, b) in fresh.iter().zip(&reused) {
            assert_eq!(bits(a), bits(b), "round {round}: reused scratch changed results");
        }
    }
}

/// Both inference-backend kernels must match the reference bit for bit on
/// randomized shapes and values (including exact zeros, where the two
/// kernel contracts differ).
#[test]
fn backend_kernels_are_bit_identical_on_random_shapes() {
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    for _ in 0..40 {
        let (m, k, n) =
            (rng.random_range(1..9), rng.random_range(1..70), rng.random_range(1..130));
        let fill = |rng: &mut StdRng, len: usize| -> Vec<f32> {
            (0..len)
                .map(|_| {
                    if rng.random_range(0..8) == 0 {
                        0.0
                    } else {
                        rng.random_range(-2.0f32..2.0)
                    }
                })
                .collect()
        };
        let a = fill(&mut rng, m * k);
        let b = fill(&mut rng, k * n);
        for dense in [false, true] {
            let mut blocked = vec![0.0f32; m * n];
            let mut reference = vec![0.0f32; m * n];
            if dense {
                BlockedBackend.gemm_dense_acc(&a, &b, &mut blocked, m, k, n);
                ReferenceBackend.gemm_dense_acc(&a, &b, &mut reference, m, k, n);
            } else {
                BlockedBackend.gemm_acc(&a, &b, &mut blocked, m, k, n);
                ReferenceBackend.gemm_acc(&a, &b, &mut reference, m, k, n);
            }
            let (bb, rb): (Vec<u32>, Vec<u32>) = (
                blocked.iter().map(|v| v.to_bits()).collect(),
                reference.iter().map(|v| v.to_bits()).collect(),
            );
            assert_eq!(bb, rb, "m={m} k={k} n={n} dense={dense}");
        }
    }
}

/// Randomized code set for the trie property tests.
fn arb_codes(rng: &mut StdRng, levels: usize, k: u16, max: usize) -> Vec<Vec<u16>> {
    let want = rng.random_range(1..=max);
    let mut set: BTreeSet<Vec<u16>> = BTreeSet::new();
    for _ in 0..want * 8 {
        if set.len() == want {
            break;
        }
        set.insert((0..levels).map(|_| rng.random_range(0..k)).collect());
    }
    set.into_iter().collect()
}

/// Every reachable prefix of the trie, by walking `allowed` transitions.
fn all_prefixes(trie: &IndexTrie, levels: usize) -> Vec<Vec<u16>> {
    let mut out = vec![Vec::new()];
    let mut frontier = vec![Vec::<u16>::new()];
    for _ in 0..levels {
        let mut next = Vec::new();
        for p in &frontier {
            for &c in trie.allowed_slice(p) {
                let mut q = p.clone();
                q.push(c);
                next.push(q);
            }
        }
        out.extend(next.iter().cloned());
        frontier = next;
    }
    out
}

/// The arena/CSR trie must be node-for-node equivalent to the pointer-node
/// reference on randomized ID sets: same allowed codes at every reachable
/// prefix (and at illegal ones), same item resolution, same node count —
/// and its text serialization must round-trip to an equivalent trie.
#[test]
fn arena_trie_is_node_for_node_equivalent_to_pointer_trie() {
    let mut rng = StdRng::seed_from_u64(0xA2E7A);
    for case in 0..64 {
        let levels = rng.random_range(2usize..5);
        let codes = arb_codes(&mut rng, levels, 6, 50);
        let indices = ItemIndices::new(vec![6; levels], codes.clone());
        let arena = IndexTrie::build(&indices);
        let pointer = PointerTrie::build(&indices);
        assert_eq!(arena.levels(), pointer.levels());
        assert_eq!(arena.num_nodes(), pointer.num_nodes(), "case {case}: node counts differ");
        let prefixes = all_prefixes(&arena, levels);
        for p in &prefixes {
            assert_eq!(
                arena.allowed(p),
                pointer.allowed(p),
                "case {case}: allowed({p:?}) differs"
            );
            assert_eq!(
                arena.allowed_slice(p).to_vec(),
                pointer.allowed(p),
                "case {case}: allowed_slice({p:?}) differs from pointer allowed"
            );
            assert_eq!(arena.item_at(p), pointer.item_at(p), "case {case}: item_at({p:?})");
        }
        // Illegal lookups agree too: mutate a real path out of the set.
        if let Some(path) = codes.first() {
            let mut bad = path.clone();
            bad[levels - 1] = bad[levels - 1].wrapping_add(7) % 6 + 6;
            assert_eq!(arena.allowed(&bad), pointer.allowed(&bad));
            assert_eq!(arena.item_at(&bad), pointer.item_at(&bad));
            assert!(arena.item_at(&bad).is_none());
        }
        // Serialization round trip preserves every lookup.
        let text = arena.to_text();
        let back = IndexTrie::from_text(&text).expect("round trip must parse");
        assert_eq!(back.num_nodes(), arena.num_nodes());
        for p in &prefixes {
            assert_eq!(back.allowed(p), arena.allowed(p), "case {case}: round-trip allowed");
            assert_eq!(back.item_at(p), arena.item_at(p), "case {case}: round-trip item_at");
        }
        assert_eq!(back.to_text(), text, "case {case}: serialization must be a fixed point");
    }
}
