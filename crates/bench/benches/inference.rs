//! Inference benchmarks (§III-D2): the paper argues constrained generation
//! is practical because the attention key/value tensors can be cached
//! ("After applying KV Cache, the time complexity can be optimized to
//! O(N²dL + HNdL)"). These benches measure exactly that claim on our
//! substrate: per-token decoding with and without the cache, prompt
//! prefill, and full constrained beam search.

use criterion::{criterion_group, criterion_main, Criterion};
use lcrec_bench::setup::{dataset, indices, item_embeddings, lcrec_config, Scale};
use lcrec_core::LcRec;
use lcrec_data::{InstructionBuilder, TaskSet};
use lcrec_rqvae::IndexerKind;
use std::hint::black_box;

fn build_model() -> (lcrec_data::Dataset, LcRec) {
    let ds = dataset(Scale::Tiny, "Games");
    let emb = item_embeddings(&ds);
    let idx = indices(Scale::Tiny, &ds, &emb, IndexerKind::LcRec);
    let mut cfg = lcrec_config(Scale::Tiny, TaskSet::seq_only());
    cfg.train.max_steps = Some(20); // weights don't matter for speed
    let mut model = LcRec::build(&ds, idx, cfg);
    model.fit(&ds);
    (ds, model)
}

fn bench_decoding(c: &mut Criterion) {
    let (ds, model) = build_model();
    let builder = InstructionBuilder::new(&ds);
    let (ctx, _) = ds.test_example(0);
    let prompt_tokens = model.render_prompt(&builder.seq_eval_prompt(ctx));

    let mut g = c.benchmark_group("decoding");
    let lm = model.lm();
    let mut scratch = lm.new_scratch();
    let prompt = [prompt_tokens.as_slice()];
    // The §III-D2 comparison: one next-token computation with a warm KV
    // cache (the fused step) vs recomputing the whole prefix.
    g.bench_function("next_token_with_kv_cache", |b| {
        let mut cache = lm.new_cache();
        lm.prefill_batch_fused(&mut scratch, std::slice::from_mut(&mut cache), &prompt);
        b.iter_batched(
            || cache.clone(),
            |mut warm| {
                let logits = lm.advance_batch_fused(&mut scratch, &mut [&mut warm], &[5]);
                black_box(logits.len())
            },
            criterion::BatchSize::SmallInput,
        )
    });
    g.bench_function("next_token_uncached", |b| {
        let mut with_next = prompt_tokens.clone();
        with_next.push(5);
        b.iter(|| black_box(lm.logits_uncached(&with_next)))
    });
    g.bench_function("prompt_prefill", |b| {
        b.iter(|| {
            let mut cache = lm.new_cache();
            black_box(lm.prefill_batch_fused(
                &mut scratch,
                std::slice::from_mut(&mut cache),
                &prompt,
            ))
        })
    });
    g.finish();
}

fn bench_beam_search(c: &mut Criterion) {
    let (ds, model) = build_model();
    let builder = InstructionBuilder::new(&ds);
    let (ctx, _) = ds.test_example(0);
    let segs = builder.seq_eval_prompt(ctx);
    let mut g = c.benchmark_group("beam_search");
    for beam in [5usize, 10, 20] {
        g.bench_function(format!("constrained_beam_{beam}"), |b| {
            b.iter(|| black_box(model.recommend_prompt(&segs, beam)))
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_decoding, bench_beam_search
}
criterion_main!(benches);
