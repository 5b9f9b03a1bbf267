#!/usr/bin/env bash
# Single entry point for the repo's correctness gates:
#
#   1. release build of the whole workspace (warnings are lint-gated);
#   2. the full test suite with the runtime numerical sanitizer forced on
#      (gradcheck table + completeness, sanitizer, determinism, model and
#      pipeline tests), once serially and once on a 4-worker pool — the
#      two runs must both pass, which (together with the bit-identity
#      assertions in tests/parallelism.rs) pins the deterministic-
#      parallelism contract of lcrec-par;
#   3. the suite once more with the observability gate forced on
#      (LCREC_OBS=1) so the instrumented hot paths stay under test — the
#      results must not change when recording is active;
#   4. the fault matrix: the suite under transient fault injection
#      (LCREC_FAULT=1) at two seeds — injected worker hiccups, decode
#      retries and torn checkpoint writes must all be recovered
#      internally with zero observable result changes (the burst cap of
#      lcrec-fault sits below every retry budget, see docs/ROBUSTNESS.md);
#   5. a serve smoke-run: the batched-inference experiment end-to-end at
#      tiny scale (admission queue, batched prefill + decode, the
#      bit-identity column) into a scratch directory;
#   6. a decode smoke-run: the fused fast path vs the graph-backed
#      baseline at tiny scale — the run itself asserts repetition
#      determinism, and the grep below asserts the fused path stayed
#      bit-identical to the baseline (see docs/PERFORMANCE.md);
#   7. a scale smoke-run: Zipf-replayed traffic through the serve engine
#      at the smallest tier (tiny → the test tier) — the grep asserts
#      the batched run stayed bit-identical to the sequential baseline
#      (see docs/PERFORMANCE.md, "Scale tiers");
#   8. a fleet smoke-run: the same traffic through the consistent-hash
#      router at shard counts 1, 2 and 4 — the grep asserts every shard
#      count stayed bit-identical to the direct-engine baseline (see
#      docs/FLEET.md);
#   9. an evolve smoke-run: incremental catalog growth at tiny scale —
#      the greps assert the copy-on-write trie stayed bit-identical to a
#      full rebuild AND that the old snapshot still decodes bit-
#      identically after growth (see docs/CATALOG.md);
#  10. a benchmark leg: the standalone crate under benchmark/ (its own
#      workspace, so the legs above never build it) — its unit tests,
#      then `full --smoke`, every workload and phase on a micro model.
#      A break of the API the benchmark pins (`new_scratch`,
#      `advance_batch_fused`, `prefill_batch_fused`,
#      `multi_constrained_beam_search_scratch`, `Router`, …) fails the
#      build here, and a wrong ranking fails its answer check;
#  11. the dependency-free analysis passes (see docs/ANALYSIS.md): lint,
#      call-graph panic reachability (panicscan), determinism hazards
#      (detlint), public-API doc coverage and the env-var documentation
#      gate; and
#  12. a warning-free `cargo doc` build of the whole workspace.
#
# Usage: scripts/check.sh [analysis-only|scale-tests-only]
#
#   analysis-only     run only stage 11 (seconds instead of minutes) — the
#                     right loop when iterating on lint annotations or on
#                     the analysis passes themselves.
#   scale-tests-only  run only the scale-invariance suite (tests/scale.rs)
#                     — the fast loop when iterating on the scale tier
#                     (streaming generation, chunked checkpoint I/O, the
#                     tiered serving bench).
set -euo pipefail
cd "$(dirname "$0")/.."

mode="${1:-full}"

run_analysis() {
  echo "== lint =="
  cargo run --quiet -p lcrec-analysis -- lint

  echo "== panic reachability =="
  cargo run --quiet -p lcrec-analysis -- panicscan

  echo "== determinism hazards =="
  cargo run --quiet -p lcrec-analysis -- detlint

  echo "== doc coverage =="
  cargo run --quiet -p lcrec-analysis -- doccov

  echo "== env-var docs =="
  cargo run --quiet -p lcrec-analysis -- envdoc
}

if [ "$mode" = "analysis-only" ]; then
  run_analysis
  echo "All analysis passes clean."
  exit 0
fi

if [ "$mode" = "scale-tests-only" ]; then
  echo "== scale-invariance suite (tests/scale.rs) =="
  cargo test --quiet --test scale
  echo "Scale-invariance suite passed."
  exit 0
fi

echo "== build (release) =="
cargo build --release --workspace

echo "== tests (LCREC_SANITIZE=1, LCREC_THREADS=1) =="
LCREC_SANITIZE=1 LCREC_THREADS=1 cargo test --workspace --quiet

echo "== tests (LCREC_SANITIZE=1, LCREC_THREADS=4) =="
LCREC_SANITIZE=1 LCREC_THREADS=4 cargo test --workspace --quiet

echo "== tests (LCREC_OBS=1, LCREC_SANITIZE=1, LCREC_THREADS=4) =="
LCREC_OBS=1 LCREC_SANITIZE=1 LCREC_THREADS=4 cargo test --workspace --quiet

echo "== fault matrix (LCREC_FAULT=1, seeds 1 and 2) =="
LCREC_FAULT=1 LCREC_FAULT_SEED=1 cargo test --workspace --quiet
LCREC_FAULT=1 LCREC_FAULT_SEED=2 cargo test --workspace --quiet

echo "== serve smoke-run (tiny scale) =="
cargo run --release --quiet -p lcrec-bench --bin repro -- \
  --exp serve --scale tiny --out target/check-serve > /dev/null
grep -q "bit-identical" target/check-serve/serve.md
if grep -q "| NO |" target/check-serve/serve.md; then
  echo "serve smoke-run: batched decode diverged from the sequential baseline" >&2
  exit 1
fi

echo "== decode smoke-run (tiny scale) =="
cargo run --release --quiet -p lcrec-bench --bin repro -- \
  --exp decode --scale tiny --out target/check-decode > /dev/null
grep -q "bit-identical" target/check-decode/decode.md
if grep -q "| NO |" target/check-decode/decode.md; then
  echo "decode smoke-run: fused fast path diverged from the graph baseline" >&2
  exit 1
fi

echo "== scale smoke-run (smallest tier) =="
cargo run --release --quiet -p lcrec-bench --bin repro -- \
  --exp scale --scale tiny --out target/check-scale > /dev/null
grep -q "bit-identical" target/check-scale/scale.md
if grep -q "| NO |" target/check-scale/scale.md; then
  echo "scale smoke-run: batched serving diverged from the sequential baseline" >&2
  exit 1
fi

echo "== fleet smoke-run (shard counts 1, 2, 4) =="
cargo run --release --quiet -p lcrec-bench --bin repro -- \
  --exp fleet --scale tiny --out target/check-fleet > /dev/null
grep -q "bit-identical" target/check-fleet/fleet.md
if grep -q "| NO |" target/check-fleet/fleet.md; then
  echo "fleet smoke-run: sharded routing diverged from the direct-engine baseline" >&2
  exit 1
fi

echo "== evolve smoke-run (tiny scale) =="
cargo run --release --quiet -p lcrec-bench --bin repro -- \
  --exp evolve --scale tiny --out target/check-evolve > /dev/null
grep -q "bit-identical" target/check-evolve/evolve.md
if grep -q "| NO |" target/check-evolve/evolve.md; then
  echo "evolve smoke-run: incremental trie or old-snapshot decode diverged" >&2
  exit 1
fi

echo "== benchmark (crate tests + full --smoke) =="
cargo test --release --offline --quiet --manifest-path benchmark/Cargo.toml
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
  full --smoke --out-dir target/check-benchmark > /dev/null

run_analysis

echo "== cargo doc (deny warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

echo "All checks passed."
