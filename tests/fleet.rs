//! Fleet-level serving contracts: the consistent-hash router must be
//! **bit-identical** to a direct engine at any shard count, refuse a
//! saturated fleet with a typed rejection (never a hang), finish in-flight
//! work on the old snapshot across a hot swap with zero dropped outcomes,
//! and stay deterministic — and exhaustively accounted — under seeded
//! chaos. See `docs/FLEET.md`.

use lc_rec::core::{CausalLm, ExtendedVocab};
use lc_rec::data::{ScaleConfig, ZipfSampler};
use lc_rec::fault::Mode;
use lc_rec::prelude::*;
use lc_rec::rqvae::{IndexTrie, ItemIndices};
use lc_rec::serve::{Reject, RouterReject};
use lc_rec::tensor::serialize::{load_params_file, save_params_file};
use lc_rec::text::Vocab;
use lcrec_bench::setup::scale_lm_config;

/// The test tier's synthetic catalog: 64 items with unique semantic IDs,
/// plus the trie and extended vocabulary the engines decode against.
fn catalog() -> (ScaleConfig, ExtendedVocab, IndexTrie) {
    let workload = ScaleConfig::tier_test();
    let (sizes, codes) = workload.synthetic_codes().expect("test tier validates");
    let idx = ItemIndices::new(sizes, codes);
    let base = Vocab::build([ServeConfig::default().template.as_str()], 1);
    let vocab = ExtendedVocab::new(base, idx);
    let trie = IndexTrie::build(vocab.indices());
    (workload, vocab, trie)
}

/// Zipf-replayed traffic keyed by user id, exactly as the fleet bench
/// drives it.
fn traffic(workload: &ScaleConfig, n: usize) -> Vec<(u64, Vec<u32>)> {
    let popularity = ZipfSampler::new(workload.num_items, workload.zipf_exponent)
        .expect("test tier validates");
    workload
        .replay()
        .expect("test tier validates")
        .take(n)
        .map(|user| (user as u64, workload.generate_user(&popularity, user)))
        .collect()
}

fn ranked_bits(ranked: &[lc_rec::core::Hypothesis]) -> Vec<(u32, u32)> {
    ranked.iter().map(|h| (h.item, h.logprob.to_bits())).collect()
}

fn shard_cfg(queue_cap: usize) -> ServeConfig {
    ServeConfig { max_batch: 4, queue_cap, ..ServeConfig::default() }
}

/// Routes `traffic` through a router at `shards` and returns each
/// ticket's ranked bits, indexed by ticket (= arrival order).
fn route_bits(
    lm: &CausalLm,
    vocab: &ExtendedVocab,
    trie: &IndexTrie,
    traffic: &[(u64, Vec<u32>)],
    shards: usize,
    faults: Option<(Mode, u64, u64)>,
) -> Vec<Vec<(u32, u32)>> {
    let cfg = RouterConfig {
        shards,
        shard: shard_cfg(traffic.len()),
        ..RouterConfig::default()
    };
    let mut router = Router::new(lm, vocab, trie, cfg);
    if let Some((mode, seed, rate)) = faults {
        router = router.with_faults(mode, seed, rate);
    }
    for (user, hist) in traffic {
        router.submit(*user, hist, 5).expect("per-shard queues sized to the load");
    }
    let outcomes = router.flush_outcomes();
    assert_eq!(outcomes.len(), traffic.len(), "every ticket resolves exactly once");
    assert_eq!(router.pending_len(), 0);
    assert_eq!(router.queue_depth(), 0);
    let mut bits = vec![Vec::new(); traffic.len()];
    for o in outcomes {
        let id = o.id() as usize;
        let response = o.completed().expect("no deadlines, no chaos: all complete");
        *bits.get_mut(id).expect("tickets are dense arrival indices") =
            ranked_bits(&response.ranked);
    }
    bits
}

#[test]
fn one_shard_router_matches_bare_engine_bit_for_bit() {
    let (workload, vocab, trie) = catalog();
    let lm = CausalLm::new(scale_lm_config(None, vocab.len()));
    let reqs = traffic(&workload, 10);

    let mut engine = Engine::new(&lm, &vocab, &trie, shard_cfg(reqs.len()));
    for (_, hist) in &reqs {
        engine.submit(hist, 5).expect("queue sized to the load");
    }
    let direct: Vec<Vec<(u32, u32)>> = engine
        .flush_outcomes()
        .into_iter()
        .filter_map(Outcome::completed)
        .map(|r| ranked_bits(&r.ranked))
        .collect();

    let routed = route_bits(&lm, &vocab, &trie, &reqs, 1, None);
    assert_eq!(routed, direct, "a 1-shard router must be a bare engine, bit for bit");
}

#[test]
fn rankings_are_bit_identical_across_shard_counts() {
    let (workload, vocab, trie) = catalog();
    let lm = CausalLm::new(scale_lm_config(None, vocab.len()));
    let reqs = traffic(&workload, 12);
    let reference = route_bits(&lm, &vocab, &trie, &reqs, 1, None);
    for shards in [2usize, 4] {
        let bits = route_bits(&lm, &vocab, &trie, &reqs, shards, None);
        assert_eq!(bits, reference, "rankings changed at {shards} shards");
    }
}

#[test]
fn a_lone_request_resolves_on_the_first_step() {
    let (workload, vocab, trie) = catalog();
    let lm = CausalLm::new(scale_lm_config(None, vocab.len()));
    let mut router = Router::new(&lm, &vocab, &trie, RouterConfig::default());
    assert!(router.step_outcomes().is_empty(), "an idle fleet resolves nothing");
    let (user, hist) = traffic(&workload, 1).into_iter().next().expect("one request");
    let ticket = router.submit(user, &hist, 5).expect("fleet has room");
    // Default config, no clock: dispatch never waits for a batch to fill.
    let outcomes = router.step_outcomes();
    assert_eq!(outcomes.len(), 1);
    assert_eq!(outcomes[0].id(), ticket);
    let response = outcomes[0].clone().completed().expect("no deadline, no faults");
    assert_eq!(response.batch_size, 1);
    assert_eq!(router.pending_len(), 0);
    assert_eq!(router.queue_depth(), 0);
}

#[test]
fn all_shards_saturated_returns_typed_rejection_and_recovers() {
    let (workload, vocab, trie) = catalog();
    let lm = CausalLm::new(scale_lm_config(None, vocab.len()));
    let cfg = RouterConfig {
        shards: 2,
        shard: shard_cfg(1),
        ..RouterConfig::default()
    };
    let mut router = Router::new(&lm, &vocab, &trie, cfg);
    let reqs = traffic(&workload, 8);

    // Fill both one-slot queues (admission falls through the ring), then
    // every further submit must come back as a typed rejection — not a
    // hang, not a panic, not a silent drop.
    let mut admitted = Vec::new();
    let mut saturated = 0usize;
    for (user, hist) in &reqs {
        match router.submit(*user, hist, 3) {
            Ok(ticket) => admitted.push(ticket),
            Err(RouterReject::AllShardsSaturated { attempts }) => {
                saturated += 1;
                assert_eq!(attempts.len(), 2, "every shard was attempted: {attempts:?}");
                for (_, refusal) in &attempts {
                    assert_eq!(refusal, &Reject::QueueFull { capacity: 1 });
                }
            }
            Err(other) => panic!("unexpected rejection: {other:?}"),
        }
    }
    assert_eq!(admitted.len(), 2, "one slot per shard");
    assert_eq!(saturated, reqs.len() - 2);

    // Draining the fleet frees capacity again.
    let outcomes = router.flush_outcomes();
    assert_eq!(outcomes.len(), 2);
    assert!(outcomes.iter().all(RouterOutcome::is_completed));
    let (user, hist) = reqs.first().expect("traffic is non-empty");
    assert!(router.submit(*user, hist, 3).is_ok());
}

#[test]
fn hot_swap_completes_in_flight_on_old_snapshot_with_zero_drops() {
    let (workload, vocab, trie) = catalog();
    let lm_cfg = scale_lm_config(None, vocab.len());
    let lm_old = CausalLm::new(lm_cfg.clone());

    // The "new checkpoint": same architecture, different weights, loaded
    // through the chunked file path exactly as a production swap would be.
    let mut src_cfg = lm_cfg.clone();
    src_cfg.seed = lm_cfg.seed.wrapping_add(99);
    let src = CausalLm::new(src_cfg);
    let dir = std::env::temp_dir().join(format!("lcrec-fleet-swap-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let ckpt = dir.join("next.bin");
    save_params_file(src.store(), &ckpt).expect("save checkpoint");
    let mut lm_new = CausalLm::new(lm_cfg.clone());
    load_params_file(lm_new.store_mut(), &ckpt).expect("chunked load");
    std::fs::remove_dir_all(&dir).ok();

    let reqs = traffic(&workload, 12);
    let (pre, post) = reqs.split_at(6);

    // Reference bits for both snapshots via direct engines.
    let direct = |lm: &CausalLm, reqs: &[(u64, Vec<u32>)]| -> Vec<Vec<(u32, u32)>> {
        let mut engine = Engine::new(lm, &vocab, &trie, shard_cfg(reqs.len()));
        for (_, hist) in reqs {
            engine.submit(hist, 5).expect("queue sized to the load");
        }
        engine
            .flush_outcomes()
            .into_iter()
            .filter_map(Outcome::completed)
            .map(|r| ranked_bits(&r.ranked))
            .collect()
    };
    let old_bits = direct(&lm_old, pre);
    let new_bits = direct(&lm_new, post);
    let old_bits_of_post = direct(&lm_old, post);
    assert_ne!(
        new_bits, old_bits_of_post,
        "the checkpoint must actually change answers, or this test proves nothing"
    );

    let cfg = RouterConfig { shards: 2, shard: shard_cfg(reqs.len()), ..RouterConfig::default() };
    let mut router = Router::new(&lm_old, &vocab, &trie, cfg);
    let pre_tickets: Vec<u64> = pre
        .iter()
        .map(|(user, hist)| router.submit(*user, hist, 5).expect("fleet has room"))
        .collect();
    assert_eq!(router.queue_depth(), pre.len(), "pre-swap requests still queued");

    // Flip snapshots while those requests are in flight.
    let flushed = router.hot_swap(&lm_new, &vocab, &trie);
    assert!(flushed.is_empty(), "no previous standby generation existed");
    assert_eq!(router.epoch(), 1);
    assert_eq!(router.queue_depth(), pre.len(), "the swap cancels nothing");

    let post_tickets: Vec<u64> = post
        .iter()
        .map(|(user, hist)| router.submit(*user, hist, 5).expect("fleet has room"))
        .collect();
    let outcomes = router.flush_outcomes();

    // Zero dropped outcomes: every ticket resolves exactly once.
    assert_eq!(outcomes.len(), pre.len() + post.len());
    assert_eq!(router.pending_len(), 0);
    let mut seen: Vec<u64> = outcomes.iter().map(RouterOutcome::id).collect();
    seen.sort_unstable();
    let mut expected: Vec<u64> =
        pre_tickets.iter().chain(&post_tickets).copied().collect();
    expected.sort_unstable();
    assert_eq!(seen, expected);

    let bits_of = |ticket: u64| -> Vec<(u32, u32)> {
        let response = outcomes
            .iter()
            .find(|o| o.id() == ticket)
            .cloned()
            .and_then(RouterOutcome::completed)
            .expect("completed");
        ranked_bits(&response.ranked)
    };
    // In-flight (pre-swap) requests decoded on the OLD snapshot…
    for (ticket, want) in pre_tickets.iter().zip(&old_bits) {
        assert_eq!(&bits_of(*ticket), want, "pre-swap ticket {ticket} left the old snapshot");
    }
    // …while post-swap admissions decoded on the NEW one.
    for (ticket, want) in post_tickets.iter().zip(&new_bits) {
        assert_eq!(&bits_of(*ticket), want, "post-swap ticket {ticket} missed the new snapshot");
    }
}

#[test]
fn deadline_timeouts_hedge_until_the_budget_is_spent() {
    let (workload, vocab, trie) = catalog();
    let lm = CausalLm::new(scale_lm_config(None, vocab.len()));
    // A zero deadline expires at every shard, so the request hedges
    // through its whole budget and must still end in exactly one typed
    // terminal outcome.
    let cfg = RouterConfig {
        shards: 2,
        hedge_attempts: 2,
        shard: ServeConfig { deadline_ms: Some(0), ..shard_cfg(4) },
        ..RouterConfig::default()
    };
    let mut router = Router::new(&lm, &vocab, &trie, cfg);
    let (user, hist) = traffic(&workload, 1).into_iter().next().expect("one request");
    let ticket = router.submit(user, &hist, 3).expect("admission is fine; decoding expires");
    let outcomes = router.flush_outcomes();
    assert_eq!(outcomes.len(), 1);
    match outcomes.first() {
        Some(RouterOutcome::TimedOut { id, hops, reason, .. }) => {
            assert_eq!(*id, ticket);
            assert_eq!(*hops, 3, "first admission + 2 hedges");
            assert_eq!(*reason, TimeoutReason::Deadline);
        }
        other => panic!("expected a terminal timeout, got {other:?}"),
    }
    assert_eq!(router.pending_len(), 0);
    assert_eq!(router.queue_depth(), 0);
}

#[test]
fn transient_faults_never_change_fleet_results() {
    let (workload, vocab, trie) = catalog();
    let lm = CausalLm::new(scale_lm_config(None, vocab.len()));
    let reqs = traffic(&workload, 8);
    let clean = route_bits(&lm, &vocab, &trie, &reqs, 2, None);
    for seed in [1u64, 2] {
        let faulty =
            route_bits(&lm, &vocab, &trie, &reqs, 2, Some((Mode::Transient, seed, 2)));
        assert_eq!(faulty, clean, "transient faults leaked into results at seed {seed}");
    }
}

/// One run's observable fleet history, for chaos determinism comparison.
fn chaos_trace(
    lm: &CausalLm,
    vocab: &ExtendedVocab,
    trie: &IndexTrie,
    reqs: &[(u64, Vec<u32>)],
    seed: u64,
) -> Vec<String> {
    let cfg = RouterConfig {
        shards: 2,
        shard: shard_cfg(reqs.len()),
        ..RouterConfig::default()
    };
    let mut router =
        Router::new(lm, vocab, trie, cfg).with_faults(Mode::Chaos, seed, 4);
    let mut trace = Vec::new();
    let mut tickets = Vec::new();
    for (user, hist) in reqs {
        match router.submit(*user, hist, 3) {
            Ok(t) => tickets.push(t),
            Err(e) => trace.push(format!("rejected: {e}")),
        }
    }
    let mut outcomes = router.flush_outcomes();
    // Exhaustive accounting under chaos: exactly one terminal outcome per
    // admitted ticket, nothing pending, nothing queued.
    assert_eq!(outcomes.len(), tickets.len());
    assert_eq!(router.pending_len(), 0);
    assert_eq!(router.queue_depth(), 0);
    outcomes.sort_by_key(RouterOutcome::id);
    for o in &outcomes {
        match o {
            RouterOutcome::Completed { shard, hops, response } => trace.push(format!(
                "completed: id={} shard={shard} hops={hops} top={:?}",
                response.id,
                response.ranked.first().map(|h| h.item)
            )),
            RouterOutcome::TimedOut { id, shard, hops, reason, .. } => {
                trace.push(format!("timeout: id={id} shard={shard} hops={hops} reason={reason}"))
            }
        }
    }
    trace
}

#[test]
fn chaos_sweep_is_deterministic_and_exhaustively_accounted() {
    let (workload, vocab, trie) = catalog();
    let lm = CausalLm::new(scale_lm_config(None, vocab.len()));
    let reqs = traffic(&workload, 10);
    for seed in [1u64, 2] {
        let first = chaos_trace(&lm, &vocab, &trie, &reqs, seed);
        let second = chaos_trace(&lm, &vocab, &trie, &reqs, seed);
        assert_eq!(first, second, "chaos at seed {seed} must replay identically");
        assert!(!first.is_empty());
    }
    // Different seeds produce different fleet histories (otherwise the
    // sweep isn't sweeping).
    assert_ne!(
        chaos_trace(&lm, &vocab, &trie, &reqs, 1),
        chaos_trace(&lm, &vocab, &trie, &reqs, 2)
    );
}

#[test]
fn ring_reshard_moves_keys_only_to_the_new_shard() {
    for shards in 1..6usize {
        let before = Ring::new(shards, 16, 0xf1ee7);
        let after = Ring::new(shards + 1, 16, 0xf1ee7);
        let mut moved = 0usize;
        for user in 0..512u64 {
            let (b, a) = (before.primary(user), after.primary(user));
            assert!(
                a == b || a == shards,
                "user {user} moved {b} → {a} when shard {shards} joined"
            );
            if a != b {
                moved += 1;
            }
        }
        assert!(moved > 0, "the new shard must take over some keys");
        assert!(
            moved < 512 * 2 / (shards + 1),
            "consistent hashing moved {moved}/512 keys at {shards}→{} shards",
            shards + 1
        );
    }
}
