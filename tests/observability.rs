//! Contract tests for the `lcrec-obs` observability subsystem: span
//! nesting, the off-by-default gate, and — the load-bearing property —
//! bit-identical deterministic sections across thread counts.
//!
//! The registry and its gate are process-global, so every test takes
//! `GUARD` and leaves the gate disabled on exit.

use lc_rec::core::{
    constrained_beam_search_graph, constrained_beam_search_with,
    multi_constrained_beam_search_scratch, CausalLm, ExtendedVocab, LmConfig,
};
use lc_rec::obs;
use lc_rec::prelude::*;
use std::sync::{Mutex, MutexGuard};

static GUARD: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    match GUARD.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

#[test]
fn spans_nest_by_thread_local_stack() {
    let _l = lock();
    obs::set_enabled(true);
    obs::reset();
    {
        let _outer = obs::span("outer");
        for _ in 0..2 {
            let _inner = obs::span("inner");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }
    let snap = obs::snapshot();
    obs::set_enabled(false);

    let outer = snap.span("outer").expect("outer span recorded");
    let inner = snap.span("outer/inner").expect("nested path recorded");
    assert_eq!(outer.count, 1);
    assert_eq!(inner.count, 2);
    assert!(snap.span("inner").is_none(), "nested span must not appear as a root");
    assert!(inner.total_ns > 0, "slept inside the span; elapsed must be non-zero");
    assert!(
        outer.total_ns >= inner.total_ns,
        "a parent span covers its children: outer {} < inner {}",
        outer.total_ns,
        inner.total_ns
    );
}

#[test]
fn gate_off_records_nothing() {
    let _l = lock();
    obs::set_enabled(false);
    obs::reset();
    {
        let _s = obs::span("ghost");
        obs::counter_add("ghost.counter", 7);
        obs::hist_record("ghost.hist", 3.0);
        obs::profile_record("ghost.profile", 0.5);
        let watch = obs::stopwatch();
        assert!(!watch.running());
        watch.stop("ghost.watch");
        // Instrumented library code must also record nothing while off.
        let pool = Pool::new(4);
        let sum: u64 = pool.map_reduce(64, |i| i as u64, 0, |a, b| a + b);
        assert_eq!(sum, 2016);
    }
    assert!(obs::snapshot().is_empty(), "LCREC_OBS off must record nothing at all");
}

/// Runs an instrumented workload — direct recording, pool fan-out with
/// worker-side recording, and a real constrained beam search — and returns
/// the deterministic section of the resulting snapshot.
fn instrumented_workload(threads: usize) -> String {
    obs::set_enabled(true);
    obs::reset();
    let pool = Pool::new(threads);

    // Worker-side counters/histograms through the pool's merge path.
    let sums = pool.map_range(100, |i| {
        obs::counter_add("test.work_items", 1);
        obs::hist_record("test.values", (i % 7) as f64);
        i as u64
    });
    assert_eq!(sums.len(), 100);

    // A real decode so beam/lm/par instrumentation all fire.
    let base = Vocab::build(["recommend something nice"], 1);
    let indices = ItemIndices::new(
        vec![3, 3],
        vec![vec![0, 0], vec![0, 1], vec![1, 2], vec![2, 2]],
    );
    let trie = IndexTrie::build(&indices);
    let vocab = ExtendedVocab::new(base, indices);
    let lm = CausalLm::new(LmConfig::test(vocab.len()));
    let prompt = vocab.render(&[Seg::Text("recommend".into())]);
    let hyps = constrained_beam_search_with(&pool, &lm, &vocab, &trie, &prompt, 4);
    assert_eq!(hyps.len(), 4);

    let snap = obs::snapshot();
    obs::set_enabled(false);
    snap.deterministic_json()
}

#[test]
fn deterministic_section_is_bit_identical_across_thread_counts() {
    let _l = lock();
    let serial = instrumented_workload(1);
    let parallel = instrumented_workload(4);
    assert!(!serial.is_empty());
    assert!(serial.contains("test.work_items"), "worker counters must merge");
    assert!(serial.contains("beam.expansions"), "beam counters must record");
    assert!(serial.contains("lm.decode_tokens"), "lm counters must record");
    assert_eq!(
        serial, parallel,
        "deterministic observability section must be bit-identical at 1 vs 4 threads"
    );
}

#[test]
fn full_snapshot_has_profile_but_deterministic_json_does_not() {
    let _l = lock();
    obs::set_enabled(true);
    obs::reset();
    let watch = obs::stopwatch();
    std::thread::sleep(std::time::Duration::from_millis(1));
    watch.stop("test.phase_s");
    obs::counter_add("test.count", 1);
    let snap = obs::snapshot();
    obs::set_enabled(false);

    let full = snap.to_json();
    assert!(full.contains("test.phase_s"));
    assert!(full.contains("test.count"));
    let det = snap.deterministic_json();
    assert!(det.contains("test.count"));
    assert!(
        !det.contains("test.phase_s"),
        "wall-clock records must stay out of the bit-compared section"
    );
    let table = snap.table();
    assert!(table.contains("test.phase_s") && table.contains("test.count"));
}

/// The last level is never advanced: a search that fills every beam runs
/// `Σ width × (levels − 1)` rows through the LM — at any thread count —
/// and still ranks exactly as the graph baseline, which re-forwards every
/// candidate of every level.
#[test]
fn last_level_is_not_advanced_and_rankings_match_the_graph_baseline() {
    let _l = lock();
    let base = Vocab::build(["the user bought several items recommend one more"], 1);
    // 3 levels, 12 items: every level offers each request at least `width`
    // candidates, so every beam fills.
    let indices = ItemIndices::new(
        vec![4, 4, 4],
        vec![
            vec![0, 0, 0], vec![0, 0, 1], vec![0, 1, 2], vec![0, 3, 3],
            vec![1, 0, 0], vec![1, 2, 2], vec![1, 2, 3], vec![2, 0, 1],
            vec![2, 1, 1], vec![3, 0, 0], vec![3, 2, 0], vec![3, 3, 3],
        ],
    );
    let trie = IndexTrie::build(&indices);
    let vocab = ExtendedVocab::new(base, indices);
    let lm = CausalLm::new(LmConfig::test(vocab.len()));
    let prompts: Vec<Vec<u32>> = ["recommend one more", "the user bought items", "several items"]
        .iter()
        .map(|t| vocab.render(&[Seg::Text((*t).into())]))
        .collect();
    let widths = [4usize, 2, 3];
    let bits = |hyps: &[lc_rec::core::Hypothesis]| -> Vec<(u32, u32)> {
        hyps.iter().map(|h| (h.item, h.logprob.to_bits())).collect()
    };
    let oracle: Vec<Vec<(u32, u32)>> = prompts
        .iter()
        .zip(&widths)
        .map(|(p, &w)| bits(&constrained_beam_search_graph(&lm, &vocab, &trie, p, w)))
        .collect();
    for threads in [1usize, 4] {
        obs::set_enabled(true);
        obs::reset();
        let got = multi_constrained_beam_search_scratch(
            &Pool::new(threads),
            &lm,
            &vocab,
            &trie,
            &prompts,
            &widths,
            &mut lm.new_scratch(),
        );
        let snap = obs::snapshot();
        obs::set_enabled(false);
        let rows: usize = widths.iter().map(|w| w * (trie.levels() - 1)).sum();
        assert_eq!(snap.counter("beam.cache_advances"), rows as u64, "threads {threads}");
        assert_eq!(snap.counter("lm.decode_tokens"), rows as u64, "threads {threads}");
        let prompt_tokens: usize = prompts.iter().map(Vec::len).sum();
        assert_eq!(snap.counter("lm.prefill_tokens"), prompt_tokens as u64, "threads {threads}");
        for (ranked, want) in got.iter().zip(&oracle) {
            assert_eq!(ranked.len(), want.len());
            assert_eq!(&bits(ranked), want, "threads {threads}: ranking vs graph baseline");
        }
    }
}
