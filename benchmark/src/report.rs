//! The metric tables, the result line and `BENCHMARK.json`. The tables are
//! the one place a metric's name, unit, direction and bound are written;
//! `BENCHMARK.json` at the repo root is [`manifest`] printed, and a test
//! holds the two together.

use crate::workload::{REF_SECONDS, WORKLOADS};

/// A metric's declaration.
#[derive(Clone, Copy, Debug)]
pub struct Decl {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` when a higher value is better.
    pub higher: bool,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> Decl {
    Decl {
        name,
        unit,
        higher,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, higher: bool) -> Decl {
    Decl {
        name,
        unit,
        higher,
        bound: 0.0,
    }
}

/// What a user of the serving system sees. Measured with tracing off.
pub const END_TO_END: [Decl; 6] = [
    e2e("setup_s", "s", false, 0.25),
    e2e("throughput_rps", "req/s", true, 0.25),
    e2e("latency_p50_ms", "ms", false, 0.25),
    e2e("latency_p95_ms", "ms", false, 0.25),
    e2e("peak_rss_mb", "MB", false, 0.2),
    e2e("publish_ms", "ms", false, 0.25),
];

/// Single layers, from the traced pass. No bounds: they explain, not gate.
pub const PER_LAYER: [Decl; 54] = [
    layer("router.submit_us", "us", false),
    layer("router.step_ms", "ms", false),
    layer("router.self_share", "share", false),
    layer("router.shard_share_max", "share", false),
    layer("router.queue_depth_max", "count", false),
    layer("router.hops_mean", "count", false),
    layer("router.admit_late_ms", "ms", false),
    layer("router.swap_ms", "ms", false),
    layer("router.slo_rate_rps", "req/s", true),
    layer("router.ladder_p90_ms.r2", "ms", false),
    layer("router.ladder_p90_ms.r3", "ms", false),
    layer("engine.queue_wait_ms", "ms", false),
    layer("engine.batch_fill", "share", true),
    layer("engine.batches", "count", false),
    layer("engine.render_us", "us", false),
    layer("engine.prompt_tokens_mean", "count", false),
    layer("engine.template_token_share", "share", true),
    layer("engine.repeat_prefix_token_share", "share", true),
    layer("engine.refused", "count", false),
    layer("engine.timed_out", "count", false),
    layer("beam.search_ms", "ms", false),
    layer("beam.self_ms", "ms", false),
    layer("beam.self_share", "share", false),
    layer("beam.advance_rows", "count", false),
    layer("beam.useful_advance_ratio", "share", true),
    layer("beam.expansions", "count", false),
    layer("beam.kv_clone_mb", "MB", false),
    layer("lm.prefill_ms", "ms", false),
    layer("lm.prefill_us_per_token", "us", false),
    layer("lm.decode_ms", "ms", false),
    layer("lm.decode_us_per_row", "us", false),
    layer("lm.prefill_share", "share", false),
    layer("lm.head_share", "share", false),
    layer("lm.prefill_head_useful_ratio", "share", true),
    layer("lm.weight_mb", "MB", false),
    layer("lm.weight_mb_streamed_per_request", "MB", false),
    layer("backend.gemm_gflops.prefill", "GFLOP/s", true),
    layer("backend.gemm_gflops.decode", "GFLOP/s", true),
    layer("backend.dense_gflops.head", "GFLOP/s", true),
    layer("backend.mflop_per_request", "MFLOP", false),
    layer("backend.flop_per_weight_byte.decode", "FLOP/B", true),
    layer("trie.build_ms", "ms", false),
    layer("trie.allowed_ns", "ns", false),
    layer("trie.item_at_ns", "ns", false),
    layer("trie.nodes", "count", false),
    layer("snapshot.insert_us", "us", false),
    layer("snapshot.materialize_ms", "ms", false),
    layer("snapshot.arena_nodes", "count", false),
    layer("serialize.load_ms", "ms", false),
    layer("serialize.load_mb_s", "MB/s", true),
    layer("par.threads", "count", true),
    layer("par.map_spawn_us", "us", false),
    layer("obs.overhead_ratio", "share", true),
    layer("obs.unattributed_share", "share", false),
];

/// One measured value. `note` is the sample count or how it was derived.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub note: String,
}

/// Values for every declared metric, in declaration order; a metric the
/// run did not produce is a bug in the benchmark and is named.
pub fn ordered(decls: &[Decl], got: &[Metric]) -> Result<Vec<(Decl, Metric)>, String> {
    decls
        .iter()
        .map(|d| {
            got.iter()
                .find(|m| m.name == d.name)
                .map(|m| (*d, m.clone()))
                .ok_or_else(|| format!("metric {} was not measured", d.name))
        })
        .collect()
}

/// The result line the contract asks for, as the last line of stdout.
pub fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(Decl, Metric)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(d, m)| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name,
                json_number(m.value),
                d.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Every digit of a finite value; JSON has no NaN or infinity, so a value
/// that is not finite is written as -1 (and fails the run beforehand).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "-1".into()
    }
}

/// `BENCHMARK.json`, generated from the tables above.
pub fn manifest() -> String {
    let decl_line = |d: &Decl, bounded: bool| {
        let better = if d.higher { "higher" } else { "lower" };
        let bound = if bounded {
            format!(", \"bound\": {}", d.bound)
        } else {
            String::new()
        };
        format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"{bound}}}",
            d.name, d.unit
        )
    };
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let e2e: Vec<String> = END_TO_END.iter().map(|d| decl_line(d, true)).collect();
    let layers: Vec<String> = PER_LAYER.iter().map(|d| decl_line(d, false)).collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {REF_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_is_the_manifest_printed() {
        assert_eq!(
            include_str!("../../BENCHMARK.json"),
            manifest(),
            "regenerate with: cargo run --release --manifest-path benchmark/Cargo.toml -- --manifest > BENCHMARK.json"
        );
    }

    #[test]
    fn the_tables_stay_inside_the_contract_limits() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|d| d.name)
            .chain(WORKLOADS.iter().map(|w| w.name))
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used once");
        for name in names {
            assert!(
                name.len() <= 64
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
        }
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(
                d.unit.len() <= 16
                    && d.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                d.unit
            );
        }
        assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s" && !d.higher));
        assert!(
            WORKLOADS
                .iter()
                .all(|w| w.why.len() <= 200 && !w.why.contains('\n')),
            "a why is one line of at most 200 characters"
        );
        assert!(manifest().len() < 64 * 1024);
    }

    #[test]
    fn the_result_line_keeps_every_digit_and_names_a_missing_metric() {
        let m = Metric {
            name: "setup_s",
            value: 0.123456789012,
            note: String::new(),
        };
        let line = result_line(true, 10, 0, &ordered(&END_TO_END[..1], &[m]).unwrap());
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.123456789012, \"unit\": \"s\"}}}"
        );
        assert!(ordered(&END_TO_END, &[]).unwrap_err().contains("setup_s"));
    }
}
