//! Scale-invariance suite: the properties that keep the scale tier
//! honest as workloads grow (ISSUE 8, docs/PERFORMANCE.md "Scale tiers").
//!
//! * streaming vs materialized generation are **bit-identical** (compared
//!   as raw little-endian bytes, not just structurally);
//! * streaming generation is O(1)-memory per user, guarded by a
//!   self-sampled RSS high-water probe;
//! * the chunked checkpoint writer/reader are **byte-identical** to the
//!   whole-buffer paths, and 200 seeded corruptions of a large-tier
//!   checkpoint are all rejected with typed errors and zero mutation;
//! * Zipf traffic replay matches its analytic frequency ranking;
//! * small-tier serving outputs are bit-identical at batch {1, 8} ×
//!   threads {1, 4};
//! * the arena `IndexTrie` matches the pointer reference node-for-node on
//!   a 50k-item synthetic vocabulary, including text round-trips.

use lc_rec::core::{CausalLm, ExtendedVocab, LmConfig};
use lc_rec::data::{ScaleConfig, ScaleError, ZipfSampler};
use lc_rec::par::Pool;
use lc_rec::rqvae::{IndexTrie, ItemIndices, PointerTrie};
use lc_rec::serve::{Engine, Outcome, ServeConfig};
use lc_rec::tensor::serialize::{
    load_params, load_params_file, params_sealed_len, save_params, save_params_file,
};
use lc_rec::tensor::ParamStore;
use lc_rec::text::Vocab;
use lcrec_bench::setup::scale_lm_config;
use lcrec_bench::ScaleTier;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Mutex;

/// Serializes the tests in this binary. The RSS high-water probe samples
/// process-wide memory, so concurrent test bodies would pollute its
/// readings; everything else is fast enough that the lost parallelism is
/// noise.
static GATE: Mutex<()> = Mutex::new(());

fn gate() -> std::sync::MutexGuard<'static, ()> {
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("lcrec-scale-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

// ---------------------------------------------------------------------------
// Streaming generation
// ---------------------------------------------------------------------------

/// Length-prefixed little-endian flattening — the raw-bytes form the
/// bit-identity assertions compare.
fn seqs_as_bytes(seqs: impl Iterator<Item = Vec<u32>>) -> Vec<u8> {
    let mut out = Vec::new();
    for seq in seqs {
        out.extend_from_slice(&(seq.len() as u32).to_le_bytes());
        for v in seq {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
    out
}

#[test]
fn streaming_generation_is_bit_identical_to_materialized() {
    let _g = gate();
    for cfg in [ScaleConfig::tier_test(), ScaleConfig::tier_small()] {
        let streamed = seqs_as_bytes(cfg.stream_users().expect("valid tier"));
        let materialized = seqs_as_bytes(cfg.materialize().expect("valid tier").into_iter());
        assert!(!streamed.is_empty());
        assert_eq!(
            streamed, materialized,
            "streaming and materialized generation must emit identical bytes"
        );
    }
}

/// Resident-set size in KiB from `/proc/self/statm` (Linux); `None`
/// elsewhere, which skips the probe's memory assertion.
fn rss_kib() -> Option<i64> {
    let statm = std::fs::read_to_string("/proc/self/statm").ok()?;
    let pages: i64 = statm.split_whitespace().nth(1)?.parse().ok()?;
    Some(pages * 4)
}

#[test]
fn streaming_generation_memory_stays_flat() {
    let _g = gate();
    // A population whose materialized form is tens of MB: if streaming
    // secretly collected it, the RSS samples below would show it.
    let mut cfg = ScaleConfig::tier_test();
    cfg.num_items = 1_000;
    cfg.codebook_size = 32; // index capacity 1024 ≥ the catalog
    cfg.num_users = 400_000;
    let base = rss_kib();
    let mut peak_delta_kib: i64 = 0;
    let mut retained_bytes: u64 = 0;
    let mut checksum: u64 = 0;
    for (u, seq) in cfg.stream_users().expect("valid").enumerate() {
        // What materialize() would have to keep for this user: Vec header
        // + data. An underestimate (allocator slack, parent Vec ignored),
        // which only makes the assertion stricter.
        retained_bytes += 24 + 4 * seq.len() as u64;
        for &i in &seq {
            checksum = checksum.wrapping_mul(31).wrapping_add(i as u64);
        }
        if u % 20_000 == 0 {
            if let (Some(b), Some(now)) = (base, rss_kib()) {
                peak_delta_kib = peak_delta_kib.max(now - b);
            }
        }
    }
    assert!(checksum != 0, "the stream must actually emit data");
    let materialized_kib = (retained_bytes / 1024) as i64;
    assert!(
        materialized_kib > 8 * 1024,
        "probe workload too small to be meaningful: {materialized_kib} KiB"
    );
    if base.is_some() {
        assert!(
            peak_delta_kib < materialized_kib / 4,
            "streaming generation grew RSS by {peak_delta_kib} KiB against a \
             {materialized_kib} KiB materialized working set — is it buffering the population?"
        );
    }
}

#[test]
fn zipf_replay_matches_analytic_frequency_ranking() {
    let _g = gate();
    let mut cfg = ScaleConfig::tier_test();
    cfg.num_users = 200;
    cfg.zipf_exponent = 1.1;
    let draws = 300_000usize;
    let mut counts = vec![0u64; cfg.num_users];
    for user in cfg.replay().expect("valid").take(draws) {
        counts[user] += 1;
    }
    // Frequency must fall with rank: compare well-separated ranks so
    // sampling noise cannot flip the order.
    for (a, b) in [(0usize, 4usize), (4, 16), (16, 64), (64, 199)] {
        assert!(
            counts[a] > counts[b],
            "rank {a} ({}) should outdraw rank {b} ({})",
            counts[a],
            counts[b]
        );
    }
    // And the head frequencies must match the analytic law quantitatively.
    let sampler = ZipfSampler::new(cfg.num_users, cfg.zipf_exponent).expect("valid");
    let total_weight: f64 = (0..cfg.num_users).map(|r| sampler.analytic_weight(r)).sum();
    for rank in 0..10 {
        let expected = sampler.analytic_weight(rank) / total_weight;
        let observed = counts[rank] as f64 / draws as f64;
        assert!(
            (observed - expected).abs() / expected < 0.25,
            "rank {rank}: observed {observed:.4} vs analytic {expected:.4}"
        );
    }
}

#[test]
fn scale_config_edge_cases_are_typed_errors_never_panics() {
    let _g = gate();
    // Zero users: generation is legally empty, replay has no one to sample.
    let mut cfg = ScaleConfig::tier_test();
    cfg.num_users = 0;
    assert_eq!(cfg.stream_users().expect("valid").count(), 0);
    assert!(cfg.materialize().expect("valid").is_empty());
    assert_eq!(cfg.replay().err(), Some(ScaleError::NoUsers));

    // A single item is a valid (if dull) catalog: every draw is item 0.
    let mut cfg = ScaleConfig::tier_test();
    cfg.num_items = 1;
    for seq in cfg.stream_users().expect("valid").take(50) {
        assert!(seq.iter().all(|&i| i == 0));
    }

    // Exponent 0 is uniform: every rank of a small catalog gets sampled.
    let uniform = ZipfSampler::new(10, 0.0).expect("valid");
    let mut rng = StdRng::seed_from_u64(3);
    let mut seen = [0u32; 10];
    for _ in 0..10_000 {
        seen[uniform.sample(&mut rng)] += 1;
    }
    assert!(seen.iter().all(|&c| c > 500), "uniform sampling must cover every rank: {seen:?}");

    // Extreme skew stays valid and concentrates on the head.
    let skewed = ZipfSampler::new(1_000, 8.0).expect("valid");
    let mut head = 0u32;
    for _ in 0..2_000 {
        if skewed.sample(&mut rng) == 0 {
            head += 1;
        }
    }
    assert!(head > 1_900, "exponent 8 should put >95% of mass on rank 0, got {head}/2000");

    // Degenerate shapes are typed errors implementing std::error::Error.
    let mut cfg = ScaleConfig::tier_test();
    cfg.num_items = 0;
    assert_eq!(cfg.validate().err(), Some(ScaleError::NoItems));

    let mut cfg = ScaleConfig::tier_test();
    cfg.zipf_exponent = f64::NAN;
    assert!(matches!(cfg.validate().err(), Some(ScaleError::BadExponent { .. })));
    cfg.zipf_exponent = -1.0;
    assert!(matches!(cfg.validate().err(), Some(ScaleError::BadExponent { .. })));

    let mut cfg = ScaleConfig::tier_test();
    cfg.num_items = 100_000;
    cfg.levels = 2;
    cfg.codebook_size = 16; // capacity 256
    let err = cfg.synthetic_codes().expect_err("catalog exceeds index capacity");
    assert!(matches!(err, ScaleError::VocabExhausted { items: 100_000, capacity: 256 }));
    let dynerr: &dyn std::error::Error = &err;
    assert!(dynerr.to_string().contains("256"), "{dynerr}");
}

// ---------------------------------------------------------------------------
// Memory-bounded checkpoint I/O
// ---------------------------------------------------------------------------

fn store_bits(ps: &ParamStore) -> Vec<u32> {
    ps.ids().flat_map(|id| ps.value(id).data().iter().map(|x| x.to_bits())).collect()
}

/// An LM at the large serving tier — weights far beyond cache, the
/// checkpoint the chunked I/O exists for.
fn large_tier_lm(seed: u64) -> CausalLm {
    let mut cfg = LmConfig::large(256);
    cfg.seed = seed;
    CausalLm::new(cfg)
}

#[test]
fn chunked_checkpoint_io_is_byte_identical_to_whole_buffer_paths() {
    let _g = gate();
    let dir = temp_dir("bytes");
    let path = dir.join("large.lcr");
    let src = large_tier_lm(1);

    // Writer: the streamed file must be byte-for-byte what save_params
    // produces in memory.
    let mut whole = Vec::new();
    save_params(src.store(), &mut whole).expect("whole-buffer save");
    save_params_file(src.store(), &path).expect("streamed save");
    let streamed = std::fs::read(&path).expect("read back");
    assert_eq!(streamed.len() as u64, params_sealed_len(src.store()));
    assert_eq!(streamed, whole, "streamed and whole-buffer checkpoints must be identical bytes");

    // Reader: the chunked load restores bit-identical parameters, and the
    // two readers accept each other's files.
    let mut via_chunks = large_tier_lm(2);
    let n = load_params_file(via_chunks.store_mut(), &path).expect("chunked load");
    assert!(n > 0);
    assert_eq!(store_bits(via_chunks.store()), store_bits(src.store()));

    let mut via_buffer = large_tier_lm(3);
    load_params(via_buffer.store_mut(), &mut whole.as_slice()).expect("whole-buffer load");
    assert_eq!(store_bits(via_buffer.store()), store_bits(src.store()));

    // Round trip through the streamed writer again: a fixed point.
    let path2 = dir.join("resaved.lcr");
    save_params_file(via_chunks.store(), &path2).expect("re-save");
    assert_eq!(std::fs::read(&path2).expect("read"), whole);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn chunked_reader_rejects_200_seeded_corruptions_with_typed_errors() {
    let _g = gate();
    let dir = temp_dir("fuzz");
    let src = large_tier_lm(1);
    let good_path = dir.join("good.lcr");
    save_params_file(src.store(), &good_path).expect("save");
    let good = std::fs::read(&good_path).expect("read");

    // Sanity: the unmutated file round-trips.
    let mut dst = large_tier_lm(2);
    load_params_file(dst.store_mut(), &good_path).expect("clean load");

    let mut dst = large_tier_lm(3);
    let pristine = store_bits(dst.store());
    let mut rng = StdRng::seed_from_u64(0x5CA1E_F022);
    let bad_path = dir.join("bad.lcr");
    for case in 0..200 {
        let mut bytes = good.clone();
        match case % 5 {
            // Truncation anywhere (torn write).
            0 => bytes.truncate(rng.random_range(0..bytes.len())),
            // A single flipped bit anywhere (disk corruption).
            1 => {
                let i = rng.random_range(0..bytes.len());
                bytes[i] ^= 1 << rng.random_range(0..8);
            }
            // Corrupted magic.
            2 => bytes[rng.random_range(0..4)] = rng.random_range(0..=255),
            // A mangled count/shape field early in the payload.
            3 => {
                let i = rng.random_range(4..24);
                bytes[i] = 0xFF;
            }
            // Trailing garbage after the trailer.
            _ => bytes.extend_from_slice(&[0xAB; 3]),
        }
        if bytes == good {
            continue; // the mutation was an identity; nothing to assert
        }
        std::fs::write(&bad_path, &bytes).expect("write fuzz case");
        let err = load_params_file(dst.store_mut(), &bad_path)
            .expect_err("every corruption must be a typed error, not a panic");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "case {case}: {err}");
        assert_eq!(store_bits(dst.store()), pristine, "case {case} partially mutated the store");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Small-tier serving bit-identity
// ---------------------------------------------------------------------------

#[test]
fn small_tier_serving_is_bit_identical_across_batch_and_threads() {
    let _g = gate();
    let workload = ScaleConfig::tier_small();
    let (sizes, codes) = workload.synthetic_codes().expect("valid tier");
    let indices = ItemIndices::new(sizes, codes);
    let trie = IndexTrie::build(&indices);
    let base = Vocab::build([ServeConfig::default().template.as_str()], 1);
    let vocab = ExtendedVocab::new(base, indices);
    let lm = CausalLm::new(scale_lm_config(Some(ScaleTier::Small), vocab.len()));

    let popularity =
        ZipfSampler::new(workload.num_items, workload.zipf_exponent).expect("valid tier");
    let histories: Vec<Vec<u32>> = workload
        .replay()
        .expect("valid tier")
        .take(16)
        .map(|user| workload.generate_user(&popularity, user))
        .collect();

    let run = |max_batch: usize, threads: usize| -> Vec<Vec<(u32, u32)>> {
        let cfg = ServeConfig {
            max_batch,
            queue_cap: histories.len(),
            max_wait_ms: 0,
            ..ServeConfig::default()
        };
        let mut engine = Engine::with_pool(&lm, &vocab, &trie, cfg, Pool::new(threads));
        for hist in &histories {
            engine.submit(hist, 5).expect("queue sized to the load");
        }
        engine
            .flush_outcomes()
            .into_iter()
            .filter_map(Outcome::completed)
            .map(|r| r.ranked.iter().map(|h| (h.item, h.logprob.to_bits())).collect())
            .collect()
    };

    let reference = run(1, 1);
    assert_eq!(reference.len(), histories.len());
    assert!(
        reference.iter().any(|r| !r.is_empty()),
        "the scale workload must produce recommendations"
    );
    for batch in [1usize, 8] {
        for threads in [1usize, 4] {
            assert_eq!(
                run(batch, threads),
                reference,
                "serving diverged at batch {batch} × threads {threads}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Arena trie at scale
// ---------------------------------------------------------------------------

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

#[test]
fn arena_trie_matches_pointer_reference_on_50k_item_vocab() {
    let _g = gate();
    let mut cfg = ScaleConfig::tier_test();
    cfg.num_items = 50_000;
    cfg.levels = 3;
    cfg.codebook_size = 40; // capacity 64 000
    let (sizes, codes) = cfg.synthetic_codes().expect("valid shape");
    let indices = ItemIndices::new(sizes, codes);
    let arena = IndexTrie::build(&indices);
    let pointer = PointerTrie::build(&indices);

    assert_eq!(arena.levels(), pointer.levels());
    assert_eq!(arena.num_nodes(), pointer.num_nodes(), "node counts differ at 50k items");
    let prefixes = all_prefixes(&arena, cfg.levels);
    assert!(prefixes.len() > cfg.num_items, "walk must reach every leaf");
    for p in &prefixes {
        assert_eq!(arena.allowed_slice(p).to_vec(), pointer.allowed(p), "allowed({p:?}) differs");
        assert_eq!(arena.item_at(p), pointer.item_at(p), "item_at({p:?}) differs");
    }

    // Text round-trip at scale: parse back, spot-check lookups, and the
    // serialization must be a fixed point.
    let text = arena.to_text();
    let back = IndexTrie::from_text(&text).expect("round trip must parse");
    assert_eq!(back.num_nodes(), arena.num_nodes());
    for p in prefixes.iter().step_by(97) {
        assert_eq!(back.allowed_slice(p).to_vec(), arena.allowed_slice(p).to_vec());
        assert_eq!(back.item_at(p), arena.item_at(p));
    }
    assert_eq!(back.to_text(), text, "to_text must be a fixed point");
}
