//! Serving-path equivalence and edge cases: the batched engine must return
//! **bit-identical** rankings and log-probs to direct one-request-at-a-time
//! constrained beam search, at every batch size, over mixed request loads —
//! plus the admission edge cases (empty history, overlong history,
//! queue-full rejection).

use lc_rec::prelude::*;
use lc_rec::serve::Reject;
use rand::{rngs::StdRng, Rng, SeedableRng};

fn tiny_model() -> (Dataset, LcRec) {
    let ds = Dataset::generate(&DatasetConfig::tiny());
    let mut enc = TextEncoder::new(24, 42);
    let texts: Vec<String> = ds.catalog.items.iter().map(|i| i.full_text()).collect();
    let emb = enc.encode_batch(texts.iter().map(String::as_str));
    let mut rq = RqVaeConfig::small(24, ds.num_items());
    rq.levels = 3;
    rq.codebook_size = 8;
    rq.latent_dim = 8;
    rq.hidden = vec![16];
    rq.epochs = 6;
    let indices = build_indices(IndexerKind::LcRec, &emb, &rq);
    // Untrained weights are deterministic and exercise the same decode
    // arithmetic; training time would buy these tests nothing.
    let model = LcRec::build(&ds, indices, LcRecConfig::test());
    (ds, model)
}

/// A random mix of request histories (varying lengths, arbitrary items).
fn request_mix(ds: &Dataset, n: usize, seed: u64) -> Vec<(Vec<u32>, usize)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let len = rng.random_range(1..12);
            let hist: Vec<u32> =
                (0..len).map(|_| rng.random_range(0..ds.num_items() as u32)).collect();
            let k = rng.random_range(1..6);
            (hist, k)
        })
        .collect()
}

fn ranked_bits(ranked: &[lc_rec::core::Hypothesis]) -> Vec<(u32, u32)> {
    ranked.iter().map(|h| (h.item, h.logprob.to_bits())).collect()
}

/// The completed responses among `outcomes`, in admission order.
fn completed(outcomes: Vec<Outcome>) -> Vec<Response> {
    outcomes.into_iter().filter_map(Outcome::completed).collect()
}

#[test]
fn engine_matches_direct_beam_search_bit_for_bit() {
    let (ds, model) = tiny_model();
    let cfg = ServeConfig { max_batch: 4, beam: 6, ..ServeConfig::default() };
    let mut engine = Engine::for_model(&model, cfg.clone());
    let requests = request_mix(&ds, 6, 7);

    for (hist, k) in &requests {
        engine.submit(hist, *k).expect("queue has room");
    }
    let responses = completed(engine.flush_outcomes());
    assert_eq!(responses.len(), requests.len());

    // The reference path: render the same prompt, run single-request
    // constrained beam search at the same width, cut to top-k.
    let probe = Engine::for_model(&model, cfg.clone());
    for (resp, (hist, k)) in responses.iter().zip(&requests) {
        let prompt = probe.render_prompt(hist);
        let mut direct = lc_rec::core::constrained_beam_search_with(
            &Pool::new(1),
            model.lm(),
            model.vocab(),
            model.trie(),
            &prompt,
            k.max(&cfg.beam).to_owned(),
        );
        direct.truncate(*k);
        assert_eq!(
            ranked_bits(&resp.ranked),
            ranked_bits(&direct),
            "engine diverges from direct decode for history {hist:?} k={k}"
        );
        assert!(!resp.ranked.is_empty());
    }
}

#[test]
fn batch_size_never_changes_answers() {
    let (ds, model) = tiny_model();
    let requests = request_mix(&ds, 8, 13);

    let run = |max_batch: usize, threads: usize| -> Vec<Vec<(u32, u32)>> {
        let cfg = ServeConfig { max_batch, beam: 5, ..ServeConfig::default() };
        let mut engine = lc_rec::serve::Engine::with_pool(
            model.lm(),
            model.vocab(),
            model.trie(),
            cfg,
            Pool::new(threads),
        );
        for (hist, k) in &requests {
            engine.submit(hist, *k).expect("queue has room");
        }
        let responses = completed(engine.flush_outcomes());
        // flush_outcomes preserves admission order, so rows line up across runs.
        responses.iter().map(|r| ranked_bits(&r.ranked)).collect()
    };

    let sequential = run(1, 1);
    for max_batch in [3, 8] {
        for threads in [1, 4] {
            let batched = run(max_batch, threads);
            assert_eq!(
                sequential, batched,
                "rankings/log-probs diverge at max_batch={max_batch} threads={threads}"
            );
        }
    }
}

#[test]
fn empty_history_is_served() {
    let (_ds, model) = tiny_model();
    let mut engine = Engine::for_model(&model, ServeConfig::default());
    engine.submit(&[], 3).expect("queue has room");
    let out = completed(engine.flush_outcomes());
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].ranked.len(), 3, "an empty history still ranks the catalog");
}

#[test]
fn overlong_history_is_front_truncated_to_the_context_window() {
    let (ds, model) = tiny_model();
    let mut cfg = ServeConfig::default();
    // Let far more items through than the LM context can hold so the
    // token-level front-truncation (not just the item cap) must engage.
    cfg.max_hist_items = 512;
    let engine = Engine::for_model(&model, cfg.clone());
    let long: Vec<u32> = (0..600).map(|i| (i % ds.num_items()) as u32).collect();

    let prompt = engine.render_prompt(&long);
    let max_seq = model.lm().config().max_seq;
    let levels = model.vocab().indices().levels;
    assert_eq!(prompt.len(), max_seq - levels - 1, "prompt fills exactly the budget");
    assert_eq!(prompt[0], lc_rec::text::token::BOS, "BOS survives truncation");

    let mut engine = Engine::for_model(&model, cfg);
    engine.submit(&long, 4).expect("queue has room");
    let out = completed(engine.flush_outcomes());
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].ranked.len(), 4);
    // Identical to decoding the truncated prompt directly.
    let mut direct = lc_rec::core::constrained_beam_search_with(
        &Pool::new(1),
        model.lm(),
        model.vocab(),
        model.trie(),
        &prompt,
        10,
    );
    direct.truncate(4);
    assert_eq!(ranked_bits(&out[0].ranked), ranked_bits(&direct));
}

/// Regression: `LcRec::render_prompt` computed `max_seq - levels - 1`
/// unsaturated, which panics in debug builds (and wraps in release) once
/// the context window is no larger than one item index. It now shares the
/// engine's saturating budget, so both degrade to a BOS-only prompt.
#[test]
fn a_window_smaller_than_one_index_truncates_instead_of_underflowing() {
    let ds = Dataset::generate(&DatasetConfig::tiny());
    let codes: Vec<Vec<u16>> =
        (0..ds.num_items()).map(|i| vec![(i / 64) as u16, (i / 8 % 8) as u16, (i % 8) as u16]).collect();
    let indices = ItemIndices::new(vec![8, 8, 8], codes);
    for max_seq in [1usize, 2, 3, 4] {
        let mut cfg = LcRecConfig::test();
        cfg.max_seq = max_seq;
        let model = LcRec::build(&ds, indices.clone(), cfg);
        let bos = vec![lc_rec::text::token::BOS];
        let from_model = model.render_prompt(&[Seg::Text("recommend".into()), Seg::Items(vec![0, 1, 2])]);
        assert_eq!(from_model, bos, "max_seq {max_seq}");
        let engine = Engine::for_model(&model, ServeConfig::default());
        assert_eq!(engine.render_prompt(&[0, 1, 2]), bos, "max_seq {max_seq}");
    }
}

#[test]
fn k_zero_is_rejected_with_a_typed_error() {
    let (_ds, model) = tiny_model();
    let mut engine = Engine::for_model(&model, ServeConfig::default());
    assert_eq!(engine.submit(&[0, 1], 0), Err(Reject::InvalidK { k: 0 }));
    let err = engine.submit(&[0, 1], 0).unwrap_err();
    assert!(err.to_string().contains("k = 0"), "{err}");
    // The rejection admits nothing: the queue stays empty and later
    // well-formed submissions are unaffected.
    assert_eq!(engine.queue_len(), 0);
    assert!(engine.submit(&[0, 1], 2).is_ok());
    assert_eq!(completed(engine.flush_outcomes()).len(), 1);
}

#[test]
fn k_beyond_catalog_is_clamped_to_the_catalog() {
    let (ds, model) = tiny_model();
    let n_items = ds.num_items();
    let mut engine = Engine::for_model(&model, ServeConfig::default());
    engine.submit(&[0, 1], n_items + 50).expect("clamped, not rejected");
    engine.submit(&[0, 1], n_items).expect("exactly the catalog");
    let out = completed(engine.flush_outcomes());
    assert_eq!(out[0].ranked.len(), n_items, "never more results than items");
    // The clamped request ranks exactly what an exact-catalog request does.
    assert_eq!(ranked_bits(&out[0].ranked), ranked_bits(&out[1].ranked));
}

#[test]
fn shed_watermark_rejects_before_hard_capacity() {
    let (_ds, model) = tiny_model();
    let cfg =
        ServeConfig { queue_cap: 8, shed_watermark: Some(2), ..ServeConfig::default() };
    let mut engine = Engine::for_model(&model, cfg);
    engine.submit(&[0], 1).expect("below watermark");
    engine.submit(&[1], 1).expect("below watermark");
    assert_eq!(engine.submit(&[2], 1), Err(Reject::Shed { queued: 2 }));
    // Draining lowers the queue below the watermark again.
    assert_eq!(completed(engine.flush_outcomes()).len(), 2);
    assert!(engine.submit(&[2], 1).is_ok());
}

#[test]
fn deadlines_resolve_as_typed_timeouts_never_silence() {
    let (_ds, model) = tiny_model();
    let mut engine = Engine::for_model(&model, ServeConfig::default());
    // An already-expired deadline (0 ms) must surface as a typed timeout.
    let late = engine.submit_with_deadline(&[0, 1], 3, Some(0)).expect("admitted");
    // An effectively infinite deadline must complete normally.
    let fine = engine.submit_with_deadline(&[0, 1], 3, Some(u64::MAX)).expect("admitted");
    let outcomes = engine.flush_outcomes();
    assert_eq!(outcomes.len(), 2, "every ticket resolves exactly once");
    assert_eq!(outcomes[0].id(), late);
    match &outcomes[0] {
        lc_rec::serve::Outcome::TimedOut { reason, waited_s, .. } => {
            assert_eq!(*reason, TimeoutReason::Deadline);
            assert!(*waited_s >= 0.0);
        }
        other => panic!("expired deadline must time out, got {other:?}"),
    }
    assert_eq!(outcomes[1].id(), fine);
    assert!(outcomes[1].is_completed(), "u64::MAX deadline never expires");
}

#[test]
fn queue_full_rejection_reports_capacity_and_recovers() {
    let (_ds, model) = tiny_model();
    let cfg = ServeConfig { queue_cap: 3, ..ServeConfig::default() };
    let mut engine = Engine::for_model(&model, cfg);
    for i in 0..3 {
        engine.submit(&[i], 1).expect("under capacity");
    }
    assert_eq!(engine.submit(&[9], 1), Err(Reject::QueueFull { capacity: 3 }));
    // Draining restores capacity; rejected work can be resubmitted.
    assert_eq!(completed(engine.flush_outcomes()).len(), 3);
    assert!(engine.submit(&[9], 1).is_ok());
    assert_eq!(completed(engine.flush_outcomes()).len(), 1);
}
