//! The traced pass: a layer replay that calls each layer's public functions
//! directly with a span around each, micro-timings of the small layers,
//! and the per-layer metrics computed from them. Everything is measured
//! from outside the program; figures computed from tensor shapes say so.

use crate::driver::{LoopStats, Phase, Run};
use crate::report::Metric;
use crate::stats::{mean, median, percentile};
use crate::sut::{
    backend_gemm, backend_gemm_dense, obs_read, pool_map_noop, pool_threads, trie_allowed_len,
    trie_item_at, trie_nodes, Direct, Fleet, Inputs, LmShape, Parts, SetupTimes,
};
use crate::trace::now;
use std::collections::BTreeMap;

/// What replaying recorded batches through each layer measured.
#[derive(Clone, Debug, Default)]
pub struct Replay {
    /// Per replayed batch, seconds.
    pub search_s: Vec<f64>,
    pub prefill_s: Vec<f64>,
    pub advance_s: Vec<f64>,
    /// Per rendered prompt, seconds.
    pub render_s: Vec<f64>,
    pub requests: usize,
    pub prompt_tokens: usize,
    /// Sum over batches of the longest prompt: prefill runs that many steps.
    pub prefill_steps: usize,
    /// Rows advanced by decode steps (levels x beam per request).
    pub advance_rows: usize,
    /// Bytes the per-row KV-cache clones copy, computed from shapes.
    pub kv_clone_bytes: f64,
    /// Code prefixes of the replayed rankings, for the trie timings.
    pub prefixes: Vec<Vec<u16>>,
}

/// Closed-phase arrivals regrouped into the batches that decoded them:
/// the arrivals one step resolved on one shard, in arrival order.
fn recorded_batches(run: &Run<'_>) -> Vec<Vec<usize>> {
    let mut groups: BTreeMap<(u64, usize), Vec<usize>> = BTreeMap::new();
    for (arrival, rec) in run.records.iter().enumerate() {
        if rec.phase == Phase::Closed && matches!(rec.ending, crate::driver::Ending::Done(_)) {
            groups
                .entry((rec.step, rec.shard))
                .or_default()
                .push(arrival);
        }
    }
    groups
        .into_values()
        .flat_map(|g| {
            g.chunks(Fleet::max_batch())
                .map(<[usize]>::to_vec)
                .collect::<Vec<_>>()
        })
        .collect()
}

/// `Engine::render_prompt`, `prefill_batch_fused`, the whole beam search,
/// then one `advance_batch_fused` per level on cloned caches at the rows
/// the search advances (beam x requests: the catalog fills every beam).
pub fn replay(
    run: &mut Run<'_>,
    parts: &Parts,
    inputs: &Inputs,
    direct: &mut Direct<'_>,
    shape: LmShape,
) -> Replay {
    let mut out = Replay::default();
    let batches = recorded_batches(run);
    // Evenly spaced through the phase, so hot and cold users both appear.
    let want = run.spec.replay_batches.min(batches.len());
    let levels = inputs.levels();
    run.tracer.open_span("replay", None);
    for b in 0..want {
        let batch = &batches[b * batches.len() / want];
        let trie = parts.trie_in_slot(run.records[batch[0]].slot);
        let widths = vec![run.spec.k; batch.len()];
        let mut prompts = Vec::with_capacity(batch.len());
        for &arrival in batch {
            let history = run.request_of(arrival).history.clone();
            let (prompt, s) = run.tracer.timed("engine.render", Some(arrival as u64), || {
                direct.direct_render(&history)
            });
            prompts.push(prompt);
            out.render_s.push(s);
        }
        let (rankings, s) = run.tracer.timed("beam.search", None, || {
            direct.direct_search(false, trie, &prompts, &widths)
        });
        out.search_s.push(s);
        let (prefilled, s) = run
            .tracer
            .timed("lm.prefill", None, || direct.direct_prefill(&prompts));
        out.prefill_s.push(s);
        let mut rows = prefilled.fan_out(&widths);
        let advance: f64 = (0..levels)
            .map(|level| {
                run.tracer
                    .timed("lm.advance", None, || {
                        direct.direct_advance(&mut rows, level)
                    })
                    .1
            })
            .sum();
        out.advance_s.push(advance);

        out.requests += batch.len();
        out.prompt_tokens += prompts.iter().map(Vec::len).sum::<usize>();
        out.prefill_steps += prompts.iter().map(Vec::len).max().unwrap_or(0);
        out.advance_rows += rows.rows() * levels;
        for (prompt, &w) in prompts.iter().zip(&widths) {
            // A row advanced at level l was cloned from a cache of
            // prompt + l positions: K and V, every layer, dim floats each.
            let positions: usize = (0..levels).map(|l| prompt.len() + l).sum();
            out.kv_clone_bytes += (w * positions * 2 * shape.layers * shape.dim * 4) as f64;
        }
        for ranked in rankings {
            for (item, _) in ranked {
                out.prefixes.push(inputs.codes_of_item(item));
            }
        }
    }
    run.tracer.close_span();
    out
}

/// Timings of the layers too small to see in a replayed batch.
#[derive(Clone, Copy, Debug, Default)]
pub struct Micro {
    pub gemm_gflops_prefill: f64,
    pub gemm_gflops_decode: f64,
    pub dense_gflops_head: f64,
    pub head_s_per_row: f64,
    pub allowed_ns: f64,
    pub item_at_ns: f64,
    pub map_spawn_us: f64,
}

/// Seconds per call of `f`, the median of `reps` timed calls.
fn median_call_s(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = now();
            f();
            now().duration_since(t).as_secs_f64()
        })
        .collect();
    median(&times)
}

pub fn micro(run: &mut Run<'_>, parts: &Parts, shape: LmShape, prefixes: &[Vec<u16>]) -> Micro {
    run.tracer.open_span("micro", None);
    let (d, ff, vocab) = (shape.dim, shape.ff_hidden, shape.vocab);
    let fill = |n: usize| -> Vec<f32> {
        (0..n)
            .map(|i| ((i * 37 % 101) as f32 - 50.0) / 64.0)
            .collect()
    };
    let (w_dd, w_dff, w_ffd, w_head) = (fill(d * d), fill(d * ff), fill(ff * d), fill(d * vocab));
    // One block's seven projections at `m` rows, as the fused step issues them.
    let block_gflops = |m: usize| {
        let (x, h) = (fill(m * d), fill(m * ff));
        let (mut o_d, mut o_ff) = (vec![0.0f32; m * d], vec![0.0f32; m * ff]);
        let s = median_call_s(9, || {
            for _ in 0..4 {
                backend_gemm(&x, &w_dd, &mut o_d, m, d, d);
            }
            for _ in 0..2 {
                backend_gemm(&x, &w_dff, &mut o_ff, m, d, ff);
            }
            backend_gemm(&h, &w_ffd, &mut o_d, m, ff, d);
            std::hint::black_box((&o_d, &o_ff));
        });
        2.0 * (m * shape.block_weights()) as f64 / s / 1e9
    };
    run.tracer.open_span("backend.gemm", None);
    let batch = Fleet::max_batch();
    let gemm_gflops_prefill = block_gflops(batch);
    let gemm_gflops_decode = block_gflops(batch * run.spec.k);
    let m = batch * run.spec.k;
    let (x, mut logits) = (fill(m * d), vec![0.0f32; m * vocab]);
    let head_s = median_call_s(9, || {
        backend_gemm_dense(&x, &w_head, &mut logits, m, d, vocab);
        std::hint::black_box(&logits);
    });
    run.tracer.close_span();

    run.tracer.open_span("trie.lookups", None);
    let trie = parts.trie_in_slot(0);
    let mut found = 0usize;
    let allowed_s = median_call_s(9, || {
        for p in prefixes {
            for cut in 0..p.len() {
                found += trie_allowed_len(trie, &p[..cut]);
            }
        }
    });
    let item_s = median_call_s(9, || {
        for p in prefixes {
            found += trie_item_at(trie, p).map_or(0, |i| i as usize);
        }
    });
    std::hint::black_box(found);
    run.tracer.close_span();
    let lookups = prefixes.iter().map(Vec::len).sum::<usize>().max(1);

    run.tracer.open_span("par.map", None);
    let spawn_s = median_call_s(31, || {
        std::hint::black_box(pool_map_noop(m));
    });
    run.tracer.close_span();
    run.tracer.close_span();
    Micro {
        gemm_gflops_prefill,
        gemm_gflops_decode,
        dense_gflops_head: 2.0 * (m * d * vocab) as f64 / head_s / 1e9,
        head_s_per_row: head_s / m as f64,
        allowed_ns: allowed_s * 1e9 / lookups as f64,
        item_at_ns: item_s * 1e9 / prefixes.len().max(1) as f64,
        map_spawn_us: spawn_s * 1e6,
    }
}

/// Share of the closed phase's prompt tokens that are the template, and
/// that repeat the same user's previous prompt from its first token:
/// exact counts, the ceiling of what prefix or session KV reuse can save.
fn token_shares(run: &Run<'_>, direct: &Direct<'_>) -> (f64, f64, f64) {
    let template = direct.direct_render(&[]).len();
    let mut last: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
    let (mut tokens, mut templated, mut repeated, mut n) = (0usize, 0usize, 0usize, 0usize);
    for (arrival, rec) in run.records.iter().enumerate() {
        let req = run.request_of(arrival);
        let prompt = direct.direct_render(&req.history);
        let shared = last.get(&req.user).map_or(0, |prev| {
            prev.iter().zip(&prompt).take_while(|(a, b)| a == b).count()
        });
        if rec.phase == Phase::Closed {
            n += 1;
            tokens += prompt.len();
            templated += template.min(prompt.len());
            repeated += shared;
        }
        last.insert(req.user, prompt);
    }
    let tokens_f = tokens.max(1) as f64;
    (
        tokens as f64 / n.max(1) as f64,
        templated as f64 / tokens_f,
        repeated as f64 / tokens_f,
    )
}

/// Everything the traced pass gathered, handed to [`layer_metrics`].
#[derive(Debug)]
pub struct Gathered<'r> {
    pub setup: &'r [SetupTimes],
    pub checkpoint_bytes: u64,
    pub untraced: &'r LoopStats,
    pub traced: &'r LoopStats,
    pub open: &'r LoopStats,
    pub ladder: &'r [LoopStats; 2],
    pub replay: &'r Replay,
    pub micro: Micro,
    pub shape: LmShape,
}

/// The `lcrec-obs` counters read beside the replay's own figure for the
/// same quantity; one the snapshot lacks is printed as missing.
const OBS_COUNTERS: [&str; 5] = [
    "beam.expansions",
    "beam.cache_advances",
    "lm.prefill_tokens",
    "lm.decode_tokens",
    "serve.batches",
];

/// The per-layer metrics, and lines to print beside them. Reads the
/// `lcrec-obs` snapshot, so call it before obs is reset.
pub fn layer_metrics(
    run: &Run<'_>,
    parts: &Parts,
    direct: &Direct<'_>,
    g: &Gathered<'_>,
) -> (Vec<Metric>, Vec<String>) {
    let mut out: Vec<Metric> = Vec::new();
    let mut lines: Vec<String> = Vec::new();
    let mut put =
        |name: &'static str, value: f64, note: String| out.push(Metric { name, value, note });
    let n_of = |v: &[f64]| format!("n={}", v.len());
    let closed_done = run.done_in(Phase::Closed).count().max(1) as f64;
    let (obs_counters, obs_spans) = obs_read(&OBS_COUNTERS, &["serve.batch"]);
    let obs = |name: &str| {
        OBS_COUNTERS
            .iter()
            .position(|c| *c == name)
            .and_then(|i| obs_counters[i])
    };

    // router
    let submits = run.tracer.durations("router.submit");
    let steps = run.tracer.durations("router.step");
    let swaps: Vec<f64> = run.publishes.iter().map(|p| p.swap_s).collect();
    put("router.submit_us", median(&submits) * 1e6, n_of(&submits));
    put(
        "router.step_ms",
        median(&steps) * 1e3,
        format!("{}, steps that resolved something", n_of(&steps)),
    );
    let engine_s = obs_spans[0];
    let router_s = g.traced.submit_s + g.traced.step_s;
    put(
        "router.self_share",
        engine_s.map_or(-1.0, |e| (router_s - e).max(0.0) / g.traced.wall_s),
        "submit + step time minus lcrec-obs serve.batch time, over the traced closed phase".into(),
    );
    let mut per_shard: BTreeMap<usize, usize> = BTreeMap::new();
    for rec in run.done_in(Phase::Closed) {
        *per_shard.entry(rec.shard).or_default() += 1;
    }
    let busiest = per_shard.values().copied().max().unwrap_or(0);
    put(
        "router.shard_share_max",
        busiest as f64 / closed_done,
        format!(
            "requests per shard {:?}",
            per_shard.values().collect::<Vec<_>>()
        ),
    );
    put(
        "router.queue_depth_max",
        g.open.queue_depth_max as f64,
        "open-loop base rate".into(),
    );
    let hops: Vec<f64> = run.done_in(Phase::Closed).map(|r| r.hops as f64).collect();
    put("router.hops_mean", mean(&hops), n_of(&hops));
    put(
        "router.admit_late_ms",
        mean(&g.open.late_s) * 1e3,
        format!(
            "mean, {}, p90 {:.3} ms",
            n_of(&g.open.late_s),
            percentile(&g.open.late_s, 90.0) * 1e3
        ),
    );
    put("router.swap_ms", median(&swaps) * 1e3, n_of(&swaps));
    let rates = [
        run.spec.phases.open_rps,
        run.spec.phases.ladder[0].0,
        run.spec.phases.ladder[1].0,
    ];
    let phases = [
        (Phase::Open, g.open),
        (Phase::Ladder(0), &g.ladder[0]),
        (Phase::Ladder(1), &g.ladder[1]),
    ];
    let mut slo_rate = 0.0f64;
    for ((phase, stats), rate) in phases.iter().zip(rates) {
        let lat = run.latencies_s(*phase);
        let (sent, _, failed) = run.tally(*phase);
        let p90 = percentile(&lat, 90.0) * 1e3;
        let met = failed == 0
            && p90 <= run.spec.slo_ms
            && stats.backlog_at_end <= Fleet::max_batch() * Fleet::shard_count();
        lines.push(format!(
            "rate {rate} rps: sent {sent} failed {failed} p50 {:.2} ms p90 {p90:.2} ms (n={}) backlog at end {} -> limit {} ms {}",
            median(&lat) * 1e3,
            lat.len(),
            stats.backlog_at_end,
            run.spec.slo_ms,
            if met { "met" } else { "missed" }
        ));
        if met {
            slo_rate = slo_rate.max(rate);
        }
        match phase {
            Phase::Ladder(0) => put(
                "router.ladder_p90_ms.r2",
                p90,
                format!("{rate} rps, {}", n_of(&lat)),
            ),
            Phase::Ladder(1) => put(
                "router.ladder_p90_ms.r3",
                p90,
                format!("{rate} rps, {}", n_of(&lat)),
            ),
            _ => {}
        }
    }
    put(
        "router.slo_rate_rps",
        slo_rate,
        format!(
            "highest of {rates:?} with p90 <= {} ms, no failure, backlog <= 16",
            run.spec.slo_ms
        ),
    );

    // engine
    let waits = run.queue_waits_s(Phase::Open);
    put(
        "engine.queue_wait_ms",
        median(&waits) * 1e3,
        format!("due -> start of the resolving step, {}", n_of(&waits)),
    );
    // Each of a batch's n responses reports n, so 1 / n per response counts batches.
    let batches: f64 = run
        .done_in(Phase::Closed)
        .map(|r| 1.0 / r.batch_size.max(1) as f64)
        .sum();
    put(
        "engine.batch_fill",
        closed_done / (batches.max(1.0) * Fleet::max_batch() as f64),
        format!(
            "{closed_done} requests in {batches:.0} batches of at most {}",
            Fleet::max_batch()
        ),
    );
    put(
        "engine.batches",
        batches,
        format!(
            "traced closed phase; lcrec-obs serve.batches: {}",
            shown(obs("serve.batches").map(|c| c as f64))
        ),
    );
    put(
        "engine.render_us",
        median(&g.replay.render_s) * 1e6,
        n_of(&g.replay.render_s),
    );
    let (prompt_mean, template_share, repeat_share) = token_shares(run, direct);
    put(
        "engine.prompt_tokens_mean",
        prompt_mean,
        "closed phase, exact count".into(),
    );
    put(
        "engine.template_token_share",
        template_share,
        "exact count".into(),
    );
    put(
        "engine.repeat_prefix_token_share",
        repeat_share,
        "tokens repeating the same user's previous prompt from its start, exact count".into(),
    );
    let ended = |want: fn(&crate::driver::Ending) -> bool| {
        run.records.iter().filter(|r| want(&r.ending)).count() as f64
    };
    put(
        "engine.refused",
        ended(|e| matches!(e, crate::driver::Ending::Refused)),
        "every phase".into(),
    );
    put(
        "engine.timed_out",
        ended(|e| matches!(e, crate::driver::Ending::TimedOut)),
        "every phase".into(),
    );

    // beam and lm, from the layer replay
    let r = g.replay;
    let (search, prefill, advance) = (
        r.search_s.iter().sum::<f64>(),
        r.prefill_s.iter().sum::<f64>(),
        r.advance_s.iter().sum::<f64>(),
    );
    let nb = r.search_s.len().max(1) as f64;
    let reqs = r.requests.max(1) as f64;
    let levels = (r.advance_rows as f64 / reqs / run.spec.k as f64)
        .round()
        .max(1.0);
    put(
        "beam.search_ms",
        median(&r.search_s) * 1e3,
        format!("per batch, {}", n_of(&r.search_s)),
    );
    put(
        "beam.self_ms",
        (search - prefill - advance) / nb * 1e3,
        "search - prefill - sum of advances, mean per batch".into(),
    );
    put(
        "beam.self_share",
        (search - prefill - advance) / search,
        "of the search".into(),
    );
    put(
        "beam.advance_rows",
        r.advance_rows as f64 / reqs,
        format!(
            "per request; lcrec-obs beam.cache_advances per request: {}",
            shown(obs("beam.cache_advances").map(|c| c as f64 / closed_done))
        ),
    );
    put(
        "beam.useful_advance_ratio",
        (levels - 1.0) / levels,
        "rows whose logits are read / rows advanced: the last level's are not".into(),
    );
    put(
        "beam.expansions",
        obs("beam.expansions").map_or(-1.0, |c| c as f64 / closed_done),
        "lcrec-obs counter per request; -1 = missing from the snapshot".into(),
    );
    put(
        "beam.kv_clone_mb",
        r.kv_clone_bytes / reqs / 1e6,
        "per request, computed from shapes".into(),
    );
    put(
        "lm.prefill_ms",
        median(&r.prefill_s) * 1e3,
        format!("per batch, {}", n_of(&r.prefill_s)),
    );
    put(
        "lm.prefill_us_per_token",
        prefill / r.prompt_tokens.max(1) as f64 * 1e6,
        format!(
            "{} tokens; lcrec-obs lm.prefill_tokens per request: {}",
            r.prompt_tokens,
            shown(obs("lm.prefill_tokens").map(|c| c as f64 / closed_done))
        ),
    );
    put(
        "lm.decode_ms",
        median(&r.advance_s) * 1e3,
        format!("all levels of a batch, {}", n_of(&r.advance_s)),
    );
    put(
        "lm.decode_us_per_row",
        advance / r.advance_rows.max(1) as f64 * 1e6,
        format!(
            "{} rows; lcrec-obs lm.decode_tokens per request: {}",
            r.advance_rows,
            shown(obs("lm.decode_tokens").map(|c| c as f64 / closed_done))
        ),
    );
    put("lm.prefill_share", prefill / search, "of the search".into());
    let lm_rows = (r.prompt_tokens + r.advance_rows) as f64;
    put(
        "lm.head_share",
        lm_rows * g.micro.head_s_per_row / (prefill + advance),
        "head kernel time per row x rows, over prefill + decode".into(),
    );
    put(
        "lm.prefill_head_useful_ratio",
        reqs / r.prompt_tokens.max(1) as f64,
        "prompt positions whose logits are read / positions run through the head".into(),
    );
    let weight_mb = parts.weight_bytes() as f64 / 1e6;
    put("lm.weight_mb", weight_mb, "param_bytes".into());
    let lm_steps = r.prefill_steps as f64 + nb * levels;
    put(
        "lm.weight_mb_streamed_per_request",
        weight_mb * lm_steps / reqs,
        "weights x LM steps of a batch / requests in it, computed".into(),
    );

    // backend
    put(
        "backend.gemm_gflops.prefill",
        g.micro.gemm_gflops_prefill,
        format!(
            "one block's projections at {} rows, flops computed from sizes",
            Fleet::max_batch()
        ),
    );
    put(
        "backend.gemm_gflops.decode",
        g.micro.gemm_gflops_decode,
        format!("at {} rows", Fleet::max_batch() * run.spec.k),
    );
    put(
        "backend.dense_gflops.head",
        g.micro.dense_gflops_head,
        format!(
            "[{} x {}] head at {} rows",
            g.shape.dim,
            g.shape.vocab,
            Fleet::max_batch() * run.spec.k
        ),
    );
    put(
        "backend.mflop_per_request",
        lm_rows / reqs * g.shape.flop_per_row() / 1e6,
        "rows x flops per row, computed from sizes".into(),
    );
    put(
        "backend.flop_per_weight_byte.decode",
        2.0 * (Fleet::max_batch() * run.spec.k) as f64 / 4.0,
        "2 x rows per f32 weight read once per step, computed".into(),
    );

    // trie, snapshot, serialize, par
    let builds: Vec<f64> = g.setup.iter().map(|s| s.trie_build_s).collect();
    let loads: Vec<f64> = g.setup.iter().map(|s| s.load_s).collect();
    put("trie.build_ms", median(&builds) * 1e3, n_of(&builds));
    put(
        "trie.allowed_ns",
        g.micro.allowed_ns,
        format!("{} recorded prefixes", r.prefixes.len()),
    );
    put(
        "trie.item_at_ns",
        g.micro.item_at_ns,
        format!("{} recorded indices", r.prefixes.len()),
    );
    put(
        "trie.nodes",
        trie_nodes(parts.trie_in_slot(0)) as f64,
        String::new(),
    );
    let inserts: Vec<f64> = run
        .publishes
        .iter()
        .map(|p| p.insert_s / run.spec.burst as f64)
        .collect();
    let mats: Vec<f64> = run.publishes.iter().map(|p| p.materialize_s).collect();
    put(
        "snapshot.insert_us",
        median(&inserts) * 1e6,
        format!("per insert, {} bursts of {}", inserts.len(), run.spec.burst),
    );
    put("snapshot.materialize_ms", median(&mats) * 1e3, n_of(&mats));
    put(
        "snapshot.arena_nodes",
        run.arena_nodes() as f64,
        "at the end of the run".into(),
    );
    put("serialize.load_ms", median(&loads) * 1e3, n_of(&loads));
    put(
        "serialize.load_mb_s",
        g.checkpoint_bytes as f64 / 1e6 / median(&loads),
        format!("{} bytes", g.checkpoint_bytes),
    );
    put(
        "par.threads",
        pool_threads() as f64,
        "Pool::from_env()".into(),
    );
    put(
        "par.map_spawn_us",
        g.micro.map_spawn_us,
        format!("Pool::map over {} no-ops", Fleet::max_batch() * run.spec.k),
    );

    // obs
    let rps = |s: &LoopStats| s.marks.last().map_or(0.0, |m| m.1 as f64) / s.wall_s;
    put(
        "obs.overhead_ratio",
        rps(g.traced) / rps(g.untraced),
        format!(
            "traced {:.2} / untraced {:.2} req/s",
            rps(g.traced),
            rps(g.untraced)
        ),
    );
    let t = g.traced;
    put(
        "obs.unattributed_share",
        (t.wall_s - t.submit_s - t.step_s - t.idle_s - t.publish_s).max(0.0) / t.wall_s,
        "closed-phase wall not in submit, step, idle or publish".into(),
    );

    for (name, value) in OBS_COUNTERS.iter().zip(&obs_counters) {
        lines.push(format!(
            "lcrec-obs {name}: {}",
            shown(value.map(|v| v as f64))
        ));
    }
    (out, lines)
}

fn shown(v: Option<f64>) -> String {
    v.map_or("missing".into(), |v| format!("{v:.2}"))
}
