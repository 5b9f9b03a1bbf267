//! One function per table/figure of the paper's evaluation section.
//! Each returns markdown (plus optional CSV artifacts) in the same
//! row/column layout as the paper, regenerated from scratch.

use crate::setup::{
    dataset, dataset_suite, indices, item_embeddings, rec_config, train_lcrec, train_lcrec_cached,
    train_p5cid, train_tiger, Scale, ScaleTier,
};
use lcrec_core::casestudy;
use lcrec_core::{LcRec, LcRecRanker, TextSimilarityScorer};
use lcrec_data::{Dataset, InstructionBuilder, Seg, TaskSet};
use lcrec_eval::{
    build_negatives, evaluate_test, pairwise_accuracy, NegativeKind, PairwiseScorer, Projection,
    Ranker, RankingMetrics,
};
use lcrec_eval::report::{fmt_metric, improvement_row, markdown_table, metrics_table};
use lcrec_rqvae::IndexerKind;
use lcrec_seqrec::{
    Bert4Rec, Caser, Dssm, DssmConfig, Fdsa, FmlpRec, Gru4Rec, Hgn, S3Rec, SasRec, ScoreModel,
    ScoreRanker, TrainingPairs,
};
use lcrec_tensor::Tensor;

/// A rendered experiment: markdown plus optional CSV artifacts.
#[derive(Debug)]
pub struct ExpOutput {
    /// Markdown report section.
    pub markdown: String,
    /// `(filename, contents)` artifacts (e.g. Figure-4 CSVs).
    pub artifacts: Vec<(String, String)>,
}

impl ExpOutput {
    fn text(markdown: String) -> Self {
        ExpOutput { markdown, artifacts: Vec::new() }
    }
}

/// How many evaluation templates LC-Rec metrics are averaged over
/// (the paper averages multiple instruction templates).
const EVAL_TEMPLATES: usize = 2;

fn eval_lcrec(model: &LcRec, ds: &Dataset, k: usize) -> RankingMetrics {
    let runs: Vec<RankingMetrics> = (0..EVAL_TEMPLATES)
        .map(|t| {
            let ranker = LcRecRanker { model, builder: InstructionBuilder::new(ds), template: t };
            evaluate_test(&ranker, ds, k)
        })
        .collect();
    RankingMetrics::average(&runs)
}

// ------------------------------------------------------------------ Table II

/// Table II: statistics of the preprocessed datasets.
pub fn table2(scale: Scale) -> ExpOutput {
    let mut rows = Vec::new();
    for ds in dataset_suite(scale) {
        let st = ds.stats();
        rows.push(vec![
            ds.catalog.taxonomy.name.to_string(),
            st.users.to_string(),
            st.items.to_string(),
            st.interactions.to_string(),
            format!("{:.2}%", st.sparsity * 100.0),
            format!("{:.2}", st.avg_len),
        ]);
    }
    let md = format!(
        "## Table II — dataset statistics\n\n{}",
        markdown_table(&["Dataset", "#Users", "#Items", "#Interactions", "Sparsity", "Avg. len"], &rows)
    );
    ExpOutput::text(md)
}

// ----------------------------------------------------------------- Table III

/// Trains and evaluates every baseline plus LC-Rec on one dataset.
pub fn table3_dataset(scale: Scale, ds: &Dataset) -> Vec<(String, RankingMetrics)> {
    eprintln!("[repro]  dataset {} ({} users, {} items)", ds.catalog.taxonomy.name, ds.num_users(), ds.num_items());
    let k = 20;
    let cfg = rec_config(scale);
    let pairs = TrainingPairs::build(ds, cfg.max_len);
    let mut results: Vec<(String, RankingMetrics)> = Vec::new();

    let mut caser = Caser::new(ds.num_items(), ds.num_users(), cfg.clone());
    caser.fit(ds);
    eprintln!("[repro]   Caser done");
    results.push(("Caser".into(), evaluate_test(&ScoreRanker(&caser), ds, k)));

    let mut hgn = Hgn::new(ds.num_items(), ds.num_users(), cfg.clone());
    hgn.fit(ds);
    eprintln!("[repro]   HGN done");
    results.push(("HGN".into(), evaluate_test(&ScoreRanker(&hgn), ds, k)));

    let mut gru = Gru4Rec::new(ds.num_items(), cfg.clone());
    gru.fit(&pairs);
    eprintln!("[repro]   GRU4Rec done");
    results.push(("GRU4Rec".into(), evaluate_test(&ScoreRanker(&gru), ds, k)));

    let mut bert = Bert4Rec::new(ds.num_items(), cfg.clone());
    bert.fit(&pairs);
    eprintln!("[repro]   BERT4Rec done");
    results.push(("BERT4Rec".into(), evaluate_test(&ScoreRanker(&bert), ds, k)));

    let mut sas = SasRec::new(ds.num_items(), cfg.clone());
    sas.fit(&pairs);
    eprintln!("[repro]   SASRec done");
    results.push(("SASRec".into(), evaluate_test(&ScoreRanker(&sas), ds, k)));

    let mut fmlp = FmlpRec::new(ds.num_items(), cfg.clone());
    fmlp.fit(&pairs);
    eprintln!("[repro]   FMLP-Rec done");
    results.push(("FMLP-Rec".into(), evaluate_test(&ScoreRanker(&fmlp), ds, k)));

    let mut fdsa = Fdsa::new(ds, cfg.clone());
    fdsa.fit(&pairs);
    eprintln!("[repro]   FDSA done");
    results.push(("FDSA".into(), evaluate_test(&ScoreRanker(&fdsa), ds, k)));

    let mut s3 = S3Rec::new(ds, cfg.clone());
    s3.fit(ds, &pairs);
    eprintln!("[repro]   S3-Rec done");
    results.push(("S3-Rec".into(), evaluate_test(&ScoreRanker(&s3), ds, k)));

    let p5 = train_p5cid(scale, ds);
    eprintln!("[repro]   P5-CID done");
    results.push(("P5-CID".into(), evaluate_test(&p5, ds, k)));

    let emb = item_embeddings(ds);
    let idx = indices(scale, ds, &emb, IndexerKind::LcRec);
    let tiger = train_tiger(scale, ds, idx.clone());
    eprintln!("[repro]   TIGER done");
    results.push(("TIGER".into(), evaluate_test(&tiger, ds, k)));

    let lcrec = train_lcrec(scale, ds, idx, TaskSet::full());
    eprintln!("[repro]   LC-Rec done");
    results.push(("LC-Rec".into(), eval_lcrec(&lcrec, ds, k)));

    results
}

/// Table III: overall performance comparison across the three datasets.
pub fn table3(scale: Scale) -> ExpOutput {
    let mut md = String::from("## Table III — overall performance (full ranking)\n\n");
    for ds in dataset_suite(scale) {
        let results = table3_dataset(scale, &ds);
        md.push_str(&metrics_table(ds.catalog.taxonomy.name, &results));
        if let Some(imp) = improvement_row(&results) {
            md.push_str(&format!(
                "\nImprovement of LC-Rec over best baseline: HR@1 {:+.1}%, HR@5 {:+.1}%, HR@10 {:+.1}%, NDCG@5 {:+.1}%, NDCG@10 {:+.1}%\n\n",
                imp[0], imp[1], imp[2], imp[3], imp[4]
            ));
        }
    }
    ExpOutput::text(md)
}

// ------------------------------------------------------------------ Table IV

/// Table IV: cumulative ablation of the alignment tasks on Arts and Games.
pub fn table4(scale: Scale) -> ExpOutput {
    // The paper ablates on Arts and Games; the single-CPU small-scale run
    // uses Games (the largest preset) — rerun with "Arts" added for both.
    let names = vec!["Games"];
    let _ = scale;
    let mut md = String::from("## Table IV — ablation of semantic alignment tasks\n\n");
    for name in names {
        let ds = dataset(scale, name);
        let emb = item_embeddings(&ds);
        let idx = indices(scale, &ds, &emb, IndexerKind::LcRec);
        let mut results = Vec::new();
        for (label, tasks) in TaskSet::ablation_ladder() {
            let model = train_lcrec_cached(scale, &ds, idx.clone(), tasks, "lcrec");
            results.push((label.to_string(), eval_lcrec(&model, &ds, 20)));
        }
        md.push_str(&metrics_table(ds.catalog.taxonomy.name, &results));
        md.push('\n');
    }
    ExpOutput::text(md)
}

// ------------------------------------------------------------------ Figure 2

/// Figure 2: indexing-method ablation (× SEQ-only / full alignment) on
/// Games; reports HR@5 and NDCG@5 as in the paper's bars.
pub fn fig2(scale: Scale) -> ExpOutput {
    let ds = dataset(scale, "Games");
    let emb = item_embeddings(&ds);
    let mut rows = Vec::new();
    for kind in IndexerKind::all() {
        let idx = indices(scale, &ds, &emb, kind);
        for (mode, tasks) in [("SEQ", TaskSet::seq_only()), ("w/ ALIGN", TaskSet::full())] {
            let model = train_lcrec_cached(scale, &ds, idx.clone(), tasks, &format!("{kind:?}"));
            let m = eval_lcrec(&model, &ds, 20);
            rows.push(vec![
                kind.label().to_string(),
                mode.to_string(),
                fmt_metric(m.hr5),
                fmt_metric(m.ndcg5),
            ]);
        }
    }
    let md = format!(
        "## Figure 2 — indexing methods × alignment (Games)\n\n{}",
        markdown_table(&["Indexing", "Tuning", "HR@5", "NDCG@5"], &rows)
    );
    ExpOutput::text(md)
}

// ------------------------------------------------------------------ Figure 3

struct IntentionRanker<'a> {
    model: &'a LcRec,
    builder: InstructionBuilder<'a>,
}

impl Ranker for IntentionRanker<'_> {
    fn rank(&self, user: usize, _history: &[u32], k: usize) -> Vec<u32> {
        let (segs, _) = self.builder.intention_eval_prompt(user);
        self.model.recommend_prompt(&segs, k).into_iter().take(k).map(|h| h.item).collect()
    }

    fn name(&self) -> String {
        "LC-Rec".into()
    }
}

struct DssmRanker<'a> {
    model: &'a Dssm,
    builder: InstructionBuilder<'a>,
}

impl Ranker for DssmRanker<'_> {
    fn rank(&self, user: usize, _history: &[u32], k: usize) -> Vec<u32> {
        let (query, _) = self.builder.intention_query(user);
        lcrec_eval::top_k(&self.model.score_query(&query), k)
    }

    fn name(&self) -> String {
        "DSSM".into()
    }
}

/// Figure 3: item prediction from user intentions — DSSM vs LC-Rec and
/// the zero-shot LC-Rec variant never trained on the intention task.
pub fn fig3(scale: Scale) -> ExpOutput {
    let ds = dataset(scale, "Games");
    let emb = item_embeddings(&ds);
    let idx = indices(scale, &ds, &emb, IndexerKind::LcRec);

    let mut dssm = Dssm::new(&ds, match scale {
        Scale::Small => DssmConfig::small(),
        Scale::Tiny => DssmConfig { dim: 16, hidden: 24, temperature: 0.1, lr: 3e-3, epochs: 4, batch: 32, seed: 3 },
    });
    dssm.fit(&ds);

    let full = train_lcrec_cached(scale, &ds, idx.clone(), TaskSet::full(), "lcrec");
    // Zero-shot: trained on everything except the intention task.
    let mut no_ite = TaskSet::full();
    no_ite.ite = false;
    let zero = train_lcrec_cached(scale, &ds, idx, no_ite, "lcrec");

    let k = 20;
    let results = vec![
        ("DSSM".to_string(), evaluate_test(&DssmRanker { model: &dssm, builder: InstructionBuilder::new(&ds) }, &ds, k)),
        ("LC-Rec (Zero-Shot)".to_string(),
         evaluate_test(&IntentionRanker { model: &zero, builder: InstructionBuilder::new(&ds) }, &ds, k)),
        ("LC-Rec".to_string(),
         evaluate_test(&IntentionRanker { model: &full, builder: InstructionBuilder::new(&ds) }, &ds, k)),
    ];
    let md = format!("## Figure 3 — item prediction from user intention (Games)\n\n{}",
        metrics_table("Games / intention retrieval", &results));
    ExpOutput::text(md)
}

// ------------------------------------------------------------------ Figure 4

/// Figure 4: PCA of token embeddings — SEQ-only vs full LC-Rec — plus the
/// quantitative separation between index tokens and item-text tokens.
pub fn fig4(scale: Scale) -> ExpOutput {
    let ds = dataset(scale, "Games");
    let emb = item_embeddings(&ds);
    let idx = indices(scale, &ds, &emb, IndexerKind::LcRec);
    let seq_only = train_lcrec_cached(scale, &ds, idx.clone(), TaskSet::seq_only(), "lcrec");
    let full = train_lcrec_cached(scale, &ds, idx, TaskSet::full(), "lcrec");

    let mut artifacts = Vec::new();
    let mut rows = Vec::new();
    for (label, model) in [("SEQ only", &*seq_only), ("LC-Rec", &*full)] {
        let (embm, labels) = model.embedding_groups(&ds);
        let proj = Projection::pca_2d(
            &embm,
            labels.clone(),
            vec!["item-index".into(), "item-text".into()],
        );
        let sep = proj.separation(0, 1);
        let cosine = lcrec_eval::viz::cross_group_cosine(&embm, &labels, 0, 1);
        rows.push(vec![label.to_string(), format!("{sep:.3}"), format!("{cosine:.4}")]);
        artifacts.push((
            format!("fig4_{}.csv", label.replace(' ', "_").to_lowercase()),
            proj.to_csv(),
        ));
    }
    let md = format!(
        "## Figure 4 — token-embedding integration (Games)\n\n\
         Lower separation / higher cross-group cosine = index tokens are\n\
         integrated into the LM's semantic space.\n\n{}",
        markdown_table(&["Tuning", "PCA separation (idx vs text)", "cross-group cosine"], &rows)
    );
    ExpOutput { markdown: md, artifacts }
}

// ------------------------------------------------------------------ Table V

struct SasRecPairwise<'a>(&'a SasRec);

impl PairwiseScorer for SasRecPairwise<'_> {
    fn score(&self, user: usize, history: &[u32], item: u32) -> f64 {
        self.0.score_all(user, history)[item as usize] as f64
    }
    fn name(&self) -> String {
        "SASRec".into()
    }
}

struct LcRecPairwise<'a> {
    model: &'a LcRec,
    builder: InstructionBuilder<'a>,
}

impl PairwiseScorer for LcRecPairwise<'_> {
    fn score(&self, _user: usize, history: &[u32], item: u32) -> f64 {
        let segs = self.builder.seq_eval_prompt(history);
        self.model.score_item(&segs, item) as f64
    }
    fn name(&self) -> String {
        "LC-Rec".into()
    }
}

struct LcRecTitlePairwise<'a> {
    model: &'a LcRec,
    ds: &'a Dataset,
}

impl PairwiseScorer for LcRecTitlePairwise<'_> {
    fn score(&self, _user: usize, history: &[u32], item: u32) -> f64 {
        let segs = [
            Seg::Text("based on the interaction history predict the title of the item the user may need next".into()),
            Seg::Items(history.to_vec()),
        ];
        self.model.score_text(&segs, &self.ds.catalog.item(item).title) as f64
    }
    fn name(&self) -> String {
        "LC-Rec (Title)".into()
    }
}

/// Table V: pairwise accuracy against language- / collaborative- / random-
/// similar negatives.
pub fn table5(scale: Scale) -> ExpOutput {
    let ds = dataset(scale, "Games");
    let text_emb = item_embeddings(&ds);
    let cfg = rec_config(scale);
    let pairs = TrainingPairs::build(&ds, cfg.max_len);
    let mut sas = SasRec::new(ds.num_items(), cfg);
    sas.fit(&pairs);
    let collab_emb: Tensor = sas.item_embeddings().expect("sasrec has item matrix");

    let idx = indices(scale, &ds, &text_emb, IndexerKind::LcRec);
    let lcrec = train_lcrec_cached(scale, &ds, idx, TaskSet::full(), "lcrec");

    let llama = TextSimilarityScorer::llama(&ds);
    let chatgpt = TextSimilarityScorer::chatgpt(&ds);
    let sas_scorer = SasRecPairwise(&sas);
    let lcrec_title = LcRecTitlePairwise { model: &lcrec, ds: &ds };
    let lcrec_scorer = LcRecPairwise { model: &lcrec, builder: InstructionBuilder::new(&ds) };
    let scorers: Vec<&dyn PairwiseScorer> =
        vec![&sas_scorer, &llama, &chatgpt, &lcrec_title, &lcrec_scorer];

    let kinds =
        [NegativeKind::Language, NegativeKind::Collaborative, NegativeKind::Random];
    let negatives: Vec<Vec<(usize, u32, u32)>> = kinds
        .iter()
        .map(|&k| build_negatives(&ds, k, &text_emb, &collab_emb, 0x7AB5))
        .collect();

    let mut rows = Vec::new();
    for s in &scorers {
        let mut row = vec![s.name()];
        for neg in &negatives {
            row.push(format!("{:.2}", pairwise_accuracy(*s, &ds, neg)));
        }
        rows.push(row);
    }
    let md = format!(
        "## Table V — accuracy on semantically similar negatives (Games)\n\n{}",
        markdown_table(
            &["Method", "Language Neg.", "Collaborative Neg.", "Random Neg."],
            &rows
        )
    );
    ExpOutput::text(md)
}

// ------------------------------------------------------------- Figures 5 & 6

/// Figure 5: case studies — titles generated from growing index prefixes,
/// and related-item generation vs text-similarity retrieval.
pub fn fig5(scale: Scale) -> ExpOutput {
    let ds = dataset(scale, "Games");
    let emb = item_embeddings(&ds);
    let idx = indices(scale, &ds, &emb, IndexerKind::LcRec);
    let model = train_lcrec_cached(scale, &ds, idx, TaskSet::full(), "lcrec");
    let levels = model.vocab().indices().levels;

    let mut md = String::from("## Figure 5 — case studies\n\n### (a) titles from index prefixes\n\n");
    for item in [0u32, 1, 2] {
        let truth = &ds.catalog.item(item).title;
        md.push_str(&format!("**item {item}** (`{}`), true title: *{truth}*\n\n", model.vocab().indices().format(item)));
        for used in 1..=levels {
            let gen = casestudy::title_from_prefix(&model, item, used);
            md.push_str(&format!("- {used} index level(s): {gen}\n"));
        }
        md.push('\n');
    }
    md.push_str("### (b) related items: generated vs text-similar\n\n");
    let mut rows = Vec::new();
    for source in [3u32, 4, 5] {
        let (generated, textual) = casestudy::related_items(&model, &ds, source);
        rows.push(vec![
            ds.catalog.item(source).title.clone(),
            generated.map_or("(none)".into(), |g| ds.catalog.item(g).title.clone()),
            ds.catalog.item(textual).title.clone(),
        ]);
    }
    md.push_str(&markdown_table(&["Source item", "LC-Rec generated", "Text-embedding nearest"], &rows));
    ExpOutput::text(md)
}

/// Figure 6: proportion of generated-content changes caused by each index
/// level (coarse-to-fine decay).
pub fn fig6(scale: Scale) -> ExpOutput {
    let ds = dataset(scale, "Games");
    let emb = item_embeddings(&ds);
    let idx = indices(scale, &ds, &emb, IndexerKind::LcRec);
    let model = train_lcrec_cached(scale, &ds, idx, TaskSet::full(), "lcrec");
    let sample = match scale {
        Scale::Small => 120,
        Scale::Tiny => 20,
    };
    let props = casestudy::level_change_proportions(&model, &ds, sample);
    let rows: Vec<Vec<String>> = props
        .iter()
        .enumerate()
        .map(|(l, p)| vec![format!("level {}", l + 1), format!("{:.3}", p)])
        .collect();
    let md = format!(
        "## Figure 6 — content changes caused by each index level (Games)\n\n{}",
        markdown_table(&["Index level", "Proportion of content change"], &rows)
    );
    ExpOutput::text(md)
}

/// Quick calibration: LC-Rec alone on Games with test-split metrics —
/// used while tuning hyperparameters without re-running all of Table III.
pub fn calib(scale: Scale) -> ExpOutput {
    let ds = dataset(scale, "Games");
    let emb = item_embeddings(&ds);
    let idx = indices(scale, &ds, &emb, IndexerKind::LcRec);
    eprintln!("[repro]  indices ready ({} conflicts)", idx.conflicts());
    let mut md = String::from("## calib — LC-Rec variants on Games\n\n");
    for (label, tasks) in [("SEQ-only", TaskSet::seq_only()), ("full", TaskSet::full())] {
        let t0 = std::time::Instant::now(); // lint: allow(det, reason = "training wall time is reported to stderr only, never fed into the model")
        let mut model = lcrec_core::LcRec::build(&ds, idx.clone(), crate::setup::lcrec_config(scale, tasks));
        let losses = model.fit(&ds);
        eprintln!("[repro]  {label} trained in {:.0}s, losses {losses:?}", t0.elapsed().as_secs_f32());
        let m = eval_lcrec(&model, &ds, 20);
        let line = format!(
            "{label}: HR@1 {:.4} HR@5 {:.4} HR@10 {:.4} NDCG@10 {:.4} ({} users)\n",
            m.hr1, m.hr5, m.hr10, m.ndcg10, m.count
        );
        eprintln!("[repro]  {line}");
        md.push_str(&line);
    }
    ExpOutput::text(md)
}

// ------------------------------------------------------- extra: design sweeps

/// Design-choice sweeps beyond the paper's figures: RQ-VAE codebook size
/// and depth (conflict rate, reconstruction error, vocabulary cost), and
/// beam-width sensitivity of LC-Rec's full ranking.
pub fn sweeps(scale: Scale) -> ExpOutput {
    let ds = dataset(scale, "Games");
    let emb = item_embeddings(&ds);
    let mut md = String::from("## Extra — design-choice sweeps (Games)\n\n### RQ-VAE codebook size K (H fixed)\n\n");

    let mut rows = Vec::new();
    for k in [8usize, 16, 32] {
        let mut cfg = crate::setup::rq_config(scale, ds.num_items());
        cfg.codebook_size = k;
        let mut usm_off = cfg.clone();
        usm_off.usm = false;
        let mut model = lcrec_rqvae::RqVae::new(usm_off);
        let report = model.train(&emb);
        let z = model.encode(&emb);
        let (codes, _) = model.quantize_greedy(&z);
        let greedy_conflicts = lcrec_rqvae::ItemIndices::new(
            vec![k; cfg.levels],
            codes,
        )
        .conflicts();
        let mut usm_model = lcrec_rqvae::RqVae::new(cfg.clone());
        usm_model.train(&emb);
        let usm_idx = usm_model.build_indices(&emb);
        rows.push(vec![
            k.to_string(),
            greedy_conflicts.to_string(),
            usm_idx.conflicts().to_string(),
            format!("{:.4}", report.final_recon),
            usm_idx.vocab_tokens().to_string(),
        ]);
    }
    md.push_str(&markdown_table(
        &["K", "conflicts (greedy)", "conflicts (USM)", "recon MSE", "extra vocab"],
        &rows,
    ));

    md.push_str("\n### index depth H (K fixed)\n\n");
    let mut rows = Vec::new();
    for h in [2usize, 3, 4] {
        let mut cfg = crate::setup::rq_config(scale, ds.num_items());
        cfg.levels = h;
        let mut model = lcrec_rqvae::RqVae::new(cfg.clone());
        let report = model.train(&emb);
        let idx = model.build_indices(&emb);
        rows.push(vec![
            h.to_string(),
            idx.conflicts().to_string(),
            format!("{:.4}", report.final_recon),
            format!("{:.3}", idx.prefix_sharing(1)),
        ]);
    }
    md.push_str(&markdown_table(&["H", "conflicts (USM)", "recon MSE", "level-1 sharing"], &rows));

    md.push_str("\n### beam-width sensitivity of LC-Rec\n\n");
    let idx = indices(scale, &ds, &emb, IndexerKind::LcRec);
    let model = train_lcrec_cached(scale, &ds, idx, TaskSet::full(), "lcrec");
    let mut rows = Vec::new();
    for beam in [1usize, 5, 10, 20] {
        let ranker = BeamRanker { model: &model, builder: InstructionBuilder::new(&ds), beam };
        let m = evaluate_test(&ranker, &ds, beam.min(20));
        rows.push(vec![
            beam.to_string(),
            fmt_metric(m.hr1),
            fmt_metric(if beam >= 10 { m.hr10 } else { f64::NAN }),
        ]);
    }
    md.push_str(&markdown_table(&["beam", "HR@1", "HR@10"], &rows));
    ExpOutput::text(md)
}

// ------------------------------------------------------- extra: thread scaling

/// Thread-count oracle check over the three parallel hot paths —
/// constrained beam search, RQ-VAE training and a full evaluation pass —
/// run at 1/2/4 worker threads with explicit [`lcrec_par::Pool`]s. Every
/// phase checks **bit-identity** across thread counts: the
/// deterministic-reduction contract of `lcrec-par` means `LCREC_THREADS`
/// must never change a score, a loss or a ranked list.
pub fn scaling(scale: Scale) -> ExpOutput {
    let threads = [1usize, 2, 4];
    let ds = dataset(scale, "Games");
    let emb = item_embeddings(&ds);
    let idx = indices(scale, &ds, &emb, IndexerKind::LcRec);
    let model = LcRec::build(&ds, idx, crate::setup::lcrec_config(scale, TaskSet::seq_only()));
    let trie = lcrec_rqvae::IndexTrie::build(model.vocab().indices());
    let builder = InstructionBuilder::new(&ds);

    let mut rows = Vec::new();

    // Beam search: full-ranking decode for a slice of test users.
    let prompts: Vec<Vec<u32>> = (0..ds.num_users().min(24))
        .map(|u| model.vocab().render(&builder.seq_eval_prompt(ds.test_example(u).0)))
        .collect();
    let identical = identical_across(&threads, |pool| {
        let hyps: Vec<Vec<(u32, u32)>> = prompts
            .iter()
            .map(|p| {
                lcrec_core::constrained_beam_search_with(pool, model.lm(), model.vocab(), &trie, p, 20)
                    .into_iter()
                    .map(|h| (h.item, h.logprob.to_bits()))
                    .collect()
            })
            .collect();
        hyps
    });
    rows.push(scaling_row("beam search (24 users, beam 20)", &threads, identical));

    // RQ-VAE training: a short run from a fresh model per thread count.
    let mut rq_cfg = crate::setup::rq_config(scale, ds.num_items());
    rq_cfg.epochs = rq_cfg.epochs.min(4);
    let identical = identical_across(&threads, |pool| {
        let mut rq = lcrec_rqvae::RqVae::new(rq_cfg.clone());
        let report = rq.train_with(pool, &emb);
        let bits: Vec<u32> = report.epoch_losses.iter().map(|l| l.to_bits()).collect();
        (bits, rq.build_indices(&emb).codes)
    });
    let phase = format!("RQ-VAE training ({} epochs)", rq_cfg.epochs);
    rows.push(scaling_row(&phase, &threads, identical));

    // Evaluation harness: full leave-one-out pass over every user.
    let ranker = LcRecRanker { model: &model, builder: InstructionBuilder::new(&ds), template: 0 };
    let identical = identical_across(&threads, |pool| {
        let m = lcrec_eval::evaluate_test_with(pool, &ranker, &ds, 20);
        let bits: Vec<u64> = m.as_row().iter().map(|v| v.to_bits()).collect();
        (bits, m.count)
    });
    rows.push(scaling_row("full evaluation (all users, k=20)", &threads, identical));

    let md = format!(
        "## Extra — thread-count bit-identity (`LCREC_THREADS`, Games)\n\n\
         Each phase runs at 1, 2 and 4 worker threads with an explicit\n\
         pool; `bit-identical` verifies that every thread count returned\n\
         byte-for-byte the same scores (the deterministic-reduction\n\
         contract of `lcrec-par`). The table reports no timings: speed is\n\
         the serving benchmark's job (`benchmark/`, see its README).\n\n{}",
        markdown_table(&["Phase", "threads", "bit-identical"], &rows)
    );
    ExpOutput::text(md)
}

// ------------------------------------------------------- extra: serving

/// Serving oracle check (`lcrec-serve`): real test-user histories are
/// pushed through the batched inference engine at max-batch 1, 2, 4 and
/// 8, each run twice and asserted deterministic. Every batched run is
/// bit-compared against the `max_batch = 1` baseline — batching must
/// amortize weight traffic, never change a ranking or a log-probability.
/// Serving speed is the serving benchmark's job (`benchmark/`), not this
/// table's.
pub fn serve(scale: Scale) -> ExpOutput {
    let ds = dataset(scale, "Games");
    let emb = item_embeddings(&ds);
    let idx = indices(scale, &ds, &emb, IndexerKind::LcRec);
    let model = LcRec::build(&ds, idx, crate::setup::lcrec_config(scale, TaskSet::seq_only()));

    // Cycle real user histories up to a fixed request count.
    let total = match scale {
        Scale::Small => 96,
        Scale::Tiny => 16,
    };
    let users = ds.num_users().min(24).max(1);
    let histories: Vec<Vec<u32>> =
        (0..total).map(|r| ds.test_example(r % users).0.to_vec()).collect();
    let n_requests = histories.len();
    let k = 10usize;

    // One run's responses as (largest batch, ranked bits per request).
    let run_once = |max_batch: usize| -> (usize, Vec<Vec<(u32, u32)>>) {
        let cfg = lcrec_serve::ServeConfig {
            max_batch,
            queue_cap: n_requests.max(1),
            ..lcrec_serve::ServeConfig::default()
        };
        let mut engine = lcrec_serve::Engine::for_model(&model, cfg);
        for hist in &histories {
            engine.submit(hist, k).expect("queue sized to the load");
        }
        let responses: Vec<lcrec_serve::Response> = engine
            .flush_outcomes()
            .into_iter()
            .filter_map(lcrec_serve::Outcome::completed)
            .collect();
        assert_eq!(responses.len(), n_requests, "no deadline, queue sized: all complete");
        let largest = responses.iter().map(|r| r.batch_size).max().unwrap_or(0);
        let bits = responses
            .iter()
            .map(|r| r.ranked.iter().map(|h| (h.item, h.logprob.to_bits())).collect())
            .collect();
        (largest, bits)
    };
    let run = |max_batch: usize| {
        let first = run_once(max_batch);
        assert_eq!(first, run_once(max_batch), "serving must be deterministic across repetitions");
        first
    };

    let (_, base_bits) = run(1);
    let mut rows = vec![vec![
        "1 (sequential)".to_string(),
        n_requests.to_string(),
        "1".to_string(),
        "—".to_string(),
    ]];
    for max_batch in [2usize, 4, 8] {
        let (largest, bits) = run(max_batch);
        rows.push(vec![
            max_batch.to_string(),
            n_requests.to_string(),
            largest.to_string(),
            if bits == base_bits { "yes".into() } else { "NO".into() },
        ]);
    }

    let md = format!(
        "## Extra — serving oracle check (`lcrec-serve`, Games)\n\n\
         {n_requests} test-user requests (top-{k} each) through the batched\n\
         inference engine at increasing max batch size: one admission queue,\n\
         batched prefill, multi-request trie-constrained beam decode. Each\n\
         row runs twice and must repeat itself bit for bit; `largest batch`\n\
         is the most requests one decode shared; `bit-identical` compares\n\
         every ranking and log-prob bit against the sequential\n\
         (`max_batch = 1`) baseline.\n\n\
         Serving speed — throughput, latency percentiles and the per-layer\n\
         split under replayed traffic — is measured by the serving\n\
         benchmark (`benchmark/`, see its README), not by this table.\n\n{}",
        markdown_table(&["max batch", "requests", "largest batch", "bit-identical"], &rows)
    );
    ExpOutput::text(md)
}

// ------------------------------------------------------ extra: decode

/// Decode oracle check (`repro --exp decode` → `results/decode.md`): the
/// same trie-constrained beam search driven by the autograd-graph oracle
/// ([`lcrec_core::constrained_beam_search_graph`], a full tape re-forward
/// per token) and by the fused KV-cached path
/// ([`lcrec_core::constrained_beam_search_with`]), bit-compared — the fast
/// path must never change an answer. Decode speed is the serving
/// benchmark's job (`benchmark/`: `lm.prefill_us_per_token`,
/// `lm.decode_us_per_row`, `trie.allowed_ns`), not this table's.
pub fn decode(scale: Scale) -> ExpOutput {
    use lcrec_core::{constrained_beam_search_graph, constrained_beam_search_with, Hypothesis};
    use lcrec_par::Pool;

    let ds = dataset(scale, "Games");
    let emb = item_embeddings(&ds);
    let idx = indices(scale, &ds, &emb, IndexerKind::LcRec);
    let model = LcRec::build(&ds, idx, crate::setup::lcrec_config(scale, TaskSet::seq_only()));
    let (lm, vocab, trie) = (model.lm(), model.vocab(), model.trie());
    let levels = trie.levels();
    let beam = 5usize;
    let n_requests = match scale {
        Scale::Small => 16,
        Scale::Tiny => 4,
    };
    let users = ds.num_users().min(16).max(1);
    // Short histories keep the graph oracle's O(T²)-per-token re-forwards
    // affordable; both paths see the identical prompts.
    let prompts: Vec<Vec<u32>> = (0..n_requests)
        .map(|r| {
            let hist = ds.test_example(r % users).0;
            let tail = hist[hist.len().saturating_sub(3)..].to_vec();
            model.render_prompt(&[
                Seg::Text("recommend the next item".into()),
                Seg::Items(tail),
            ])
        })
        .collect();
    let pool = Pool::from_env();
    let bits = |hyps: Vec<Hypothesis>| -> Vec<(u32, u32)> {
        hyps.iter().map(|h| (h.item, h.logprob.to_bits())).collect()
    };
    let graph: Vec<Vec<(u32, u32)>> = prompts
        .iter()
        .map(|p| bits(constrained_beam_search_graph(lm, vocab, trie, p, beam)))
        .collect();
    let fused = || -> Vec<Vec<(u32, u32)>> {
        prompts
            .iter()
            .map(|p| bits(constrained_beam_search_with(&pool, lm, vocab, trie, p, beam)))
            .collect()
    };
    let fused_bits = fused();
    assert_eq!(fused_bits, fused(), "decode must be deterministic across repetitions");
    let rows = vec![
        vec!["graph (tape re-forward)".to_string(), "— (oracle)".to_string()],
        vec![
            "fused (KV cache + scratch)".to_string(),
            if graph == fused_bits { "yes".into() } else { "NO".into() },
        ],
    ];

    let md = format!(
        "## Extra — constrained-decode oracle check (Games, beam {beam}, {levels} levels)\n\n\
         {n_requests} prompts decoded end-to-end by the two decode drivers.\n\
         `graph` re-runs the full autograd forward over the whole sequence\n\
         for every token (no KV cache, fresh tape nodes per step); `fused`\n\
         is the production path — KV-cached steps through preallocated\n\
         scratch buffers, `{backend}` inference-backend kernels, arena-trie\n\
         lookups, and exact top-k pre-pruning. `bit-identical` compares\n\
         every item **and** every log-probability bit against the graph\n\
         oracle — the fast path must never change an answer.\n\n\
         Decode speed is measured by the serving benchmark (`benchmark/`,\n\
         see its README), per layer under replayed traffic:\n\
         `lm.prefill_us_per_token`, `lm.decode_us_per_row` and\n\
         `trie.allowed_ns`.\n\n{}",
        markdown_table(&["path", "bit-identical"], &rows),
        backend = lcrec_tensor::active_backend().name(),
    );
    ExpOutput::text(md)
}

// ------------------------------------------------------- extra: chaos

/// Chaos experiment (`lcrec-fault` + `lcrec-serve`): pushes a fixed
/// request load through the serving engine under seeded chaos fault
/// plans — injected admission shedding, deadline expiries and decode
/// failures — and reports the typed-outcome mix per seed. Each seed is
/// run twice and the two outcome sequences (ids, rejections, rankings,
/// timeout reasons — everything except wall-clock) are bit-compared:
/// fault injection must be perfectly reproducible. The accounting
/// column checks that every admitted request resolved in exactly one
/// typed outcome — chaos may degrade answers, never lose one.
pub fn chaos(scale: Scale) -> ExpOutput {
    use lcrec_fault::FaultPlan;
    use lcrec_serve::Outcome;

    let ds = dataset(scale, "Games");
    let emb = item_embeddings(&ds);
    let idx = indices(scale, &ds, &emb, IndexerKind::LcRec);
    let model = LcRec::build(&ds, idx, crate::setup::lcrec_config(scale, TaskSet::seq_only()));

    let (total, seeds) = match scale {
        Scale::Small => (48usize, 8u64),
        Scale::Tiny => (12, 4),
    };
    let users = ds.num_users().min(24).max(1);
    let histories: Vec<Vec<u32>> =
        (0..total).map(|r| ds.test_example(r % users).0.to_vec()).collect();
    let k = 10usize;

    // One run's wall-clock-free canonical trace: per submission either the
    // typed rejection or the resolved outcome (rankings down to the bit).
    #[derive(PartialEq)]
    enum Ev {
        Rejected(String),
        Completed(u64, Vec<(u32, u32)>),
        TimedOut(u64, String),
    }
    let run = |seed: u64| -> Vec<Ev> {
        let cfg = lcrec_serve::ServeConfig {
            max_batch: 4,
            queue_cap: 8,
            ..lcrec_serve::ServeConfig::default()
        };
        let mut engine = lcrec_serve::Engine::for_model(&model, cfg)
            .with_fault_plan(FaultPlan::chaos(seed).with_rate(4));
        let mut events = Vec::new();
        let mut admitted = 0usize;
        for (i, hist) in histories.iter().enumerate() {
            match engine.submit(hist, k) {
                Ok(_) => admitted += 1,
                Err(e) => events.push(Ev::Rejected(format!("{e}"))),
            }
            if i % 6 == 5 {
                for o in engine.flush_outcomes() {
                    events.push(match o {
                        Outcome::Completed(r) => Ev::Completed(
                            r.id,
                            r.ranked.iter().map(|h| (h.item, h.logprob.to_bits())).collect(),
                        ),
                        Outcome::TimedOut { id, reason, .. } => {
                            Ev::TimedOut(id, format!("{reason}"))
                        }
                    });
                }
            }
        }
        for o in engine.flush_outcomes() {
            events.push(match o {
                Outcome::Completed(r) => Ev::Completed(
                    r.id,
                    r.ranked.iter().map(|h| (h.item, h.logprob.to_bits())).collect(),
                ),
                Outcome::TimedOut { id, reason, .. } => Ev::TimedOut(id, format!("{reason}")),
            });
        }
        let resolved =
            events.iter().filter(|e| !matches!(e, Ev::Rejected(_))).count();
        assert_eq!(resolved, admitted, "chaos lost a request (seed {seed})");
        events
    };

    let mut rows = Vec::new();
    for seed in 0..seeds {
        let a = run(seed);
        let b = run(seed);
        let deterministic = a == b;
        let shed = a.iter().filter(|e| matches!(e, Ev::Rejected(_))).count();
        let completed = a.iter().filter(|e| matches!(e, Ev::Completed(..))).count();
        let timeouts = a.iter().filter(|e| matches!(e, Ev::TimedOut(..))).count();
        rows.push(vec![
            seed.to_string(),
            total.to_string(),
            completed.to_string(),
            shed.to_string(),
            timeouts.to_string(),
            "yes".to_string(),
            if deterministic { "yes".into() } else { "NO".into() },
        ]);
    }

    let md = format!(
        "## Extra — chaos fault injection (`lcrec-fault` + `lcrec-serve`, Games)\n\n\
         {total} test-user requests (top-{k}) through the serving engine under\n\
         a seeded chaos fault plan (`FaultPlan::chaos(seed)`, 1-in-4 rate):\n\
         injected admission shedding, forced deadline expiries and transient\n\
         decode failures. `accounted` checks every admitted request resolved\n\
         in exactly one typed outcome; `deterministic` bit-compares two runs\n\
         of the same seed (ids, rejections, rankings, timeout reasons —\n\
         wall-clock excluded). See docs/ROBUSTNESS.md for the seam taxonomy.\n\n{}",
        markdown_table(
            &["seed", "requests", "completed", "shed", "timeouts", "accounted", "deterministic"],
            &rows
        )
    );
    ExpOutput::text(md)
}

// ------------------------------------------------------- extra: obs profile

/// Instrumentation profile (`LCREC_OBS`): forces the observability gate on,
/// runs every instrumented phase — RQ-VAE training, seqrec training, LM
/// alignment tuning, constrained beam decoding and a full evaluation pass —
/// at 1 and 4 worker threads, and emits the registry snapshot as the
/// `obs_profile.json` artifact plus a phase-breakdown table. Each parallel
/// phase also re-asserts the deterministic-parallelism contract *under
/// instrumentation*: recording must never perturb a loss, a score or a
/// ranked list.
pub fn profile(scale: Scale) -> ExpOutput {
    lcrec_obs::set_enabled(true);
    lcrec_obs::reset();
    let threads = [1usize, 4];
    let ds = dataset(scale, "Games");
    let emb = item_embeddings(&ds);
    let idx = indices(scale, &ds, &emb, IndexerKind::LcRec);

    // RQ-VAE training, fresh model per thread count.
    let mut rq_cfg = crate::setup::rq_config(scale, ds.num_items());
    rq_cfg.epochs = rq_cfg.epochs.min(4);
    let rq_identical = identical_across(&threads, |pool| {
        let mut rq = lcrec_rqvae::RqVae::new(rq_cfg.clone());
        let report = rq.train_with(pool, &emb);
        report.epoch_losses.iter().map(|l| l.to_bits()).collect::<Vec<u32>>()
    });

    // Sequential-recommender training (SASRec as the representative).
    let mut rc = rec_config(scale);
    rc.epochs = rc.epochs.min(2);
    let pairs = TrainingPairs::build(&ds, rc.max_len);
    let seqrec_identical = identical_across(&threads, |pool| {
        let mut m = SasRec::new(ds.num_items(), rc.clone());
        let losses = lcrec_seqrec::train_next_item_with(pool, &mut m, &pairs);
        losses.iter().map(|l| l.to_bits()).collect::<Vec<u32>>()
    });

    // A short alignment-tuning run (exercises the lm.train spans), then
    // beam decoding and a full evaluation pass on the tuned model.
    let mut lc_cfg = crate::setup::lcrec_config(scale, TaskSet::seq_only());
    lc_cfg.train.max_steps = Some(lc_cfg.train.max_steps.unwrap_or(40).min(40));
    let mut model = LcRec::build(&ds, idx, lc_cfg);
    model.fit(&ds);
    let trie = lcrec_rqvae::IndexTrie::build(model.vocab().indices());
    let builder = InstructionBuilder::new(&ds);

    let prompts: Vec<Vec<u32>> = (0..ds.num_users().min(16))
        .map(|u| model.vocab().render(&builder.seq_eval_prompt(ds.test_example(u).0)))
        .collect();
    let beam_identical = identical_across(&threads, |pool| {
        prompts
            .iter()
            .map(|p| {
                lcrec_core::constrained_beam_search_with(
                    pool,
                    model.lm(),
                    model.vocab(),
                    &trie,
                    p,
                    20,
                )
                .into_iter()
                .map(|h| (h.item, h.logprob.to_bits()))
                .collect::<Vec<(u32, u32)>>()
            })
            .collect::<Vec<_>>()
    });

    let ranker = LcRecRanker { model: &model, builder: InstructionBuilder::new(&ds), template: 0 };
    let eval_identical = identical_across(&threads, |pool| {
        let m = lcrec_eval::evaluate_test_with(pool, &ranker, &ds, 20);
        m.as_row().iter().map(|v| v.to_bits()).collect::<Vec<u64>>()
    });

    let snap = lcrec_obs::snapshot();
    lcrec_obs::set_enabled(false);

    let phases = [
        ("RQ-VAE training", "rqvae.train"),
        ("— warm start (k-means)", "rqvae.train/warm_start"),
        ("seqrec training (SASRec)", "seqrec.train"),
        ("LM alignment tuning", "lm.train"),
        ("beam decode", "beam.decode"),
        ("evaluation pass", "eval.split"),
    ];
    let rows: Vec<Vec<String>> = phases
        .iter()
        .map(|&(label, path)| {
            let st = snap.span(path).unwrap_or_default();
            vec![
                label.to_string(),
                format!("`{path}`"),
                st.count.to_string(),
                format!("{:.3}s", st.total_s()),
                format!("{:.1}ms", st.mean_s() * 1e3),
            ]
        })
        .collect();

    let hist_sum = |name: &str| snap.profile.get(name).map(|h| h.sum).unwrap_or(0.0);
    let rate = |tokens: u64, secs: f64| {
        if secs > 0.0 { tokens as f64 / secs } else { 0.0 }
    };
    let prefill_tps = rate(snap.counter("lm.prefill_tokens"), hist_sum("lm.prefill_s"));
    let decode_tps = rate(snap.counter("lm.decode_tokens"), hist_sum("lm.decode_s"));
    let users_ps = rate(snap.counter("eval.users"), hist_sum("eval.user_s"));
    let yn = |b: bool| if b { "yes" } else { "NO" };

    let md = format!(
        "## Extra — instrumentation profile (`LCREC_OBS`, Games)\n\n\
         Phase breakdown from the `lcrec-obs` registry after running every\n\
         instrumented phase at 1 and 4 worker threads (both runs aggregate\n\
         into the same snapshot); the full snapshot — spans, counters,\n\
         histograms, per-worker profile — is the `obs_profile.json`\n\
         artifact.\n\n{}\n\
         Throughput: prefill {:.0} tok/s, cached decode {:.0} tok/s,\n\
         evaluation {:.1} users/s; {} beam expansions over {} trie-node\n\
         visits, {} KV-cache advances (decode rows: `width × (levels − 1)`\n\
         per request — the last level's pruned candidates are finalized\n\
         without a cache clone or an LM step).\n\n\
         Bit-identity under instrumentation (1 vs 4 threads): RQ-VAE\n\
         losses {}, seqrec losses {}, beam rankings {}, eval metrics {}.\n",
        markdown_table(&["Phase", "span", "calls", "total", "mean"], &rows),
        prefill_tps,
        decode_tps,
        users_ps,
        snap.counter("beam.expansions"),
        snap.counter("beam.trie_visits"),
        snap.counter("beam.cache_advances"),
        yn(rq_identical),
        yn(seqrec_identical),
        yn(beam_identical),
        yn(eval_identical),
    );
    ExpOutput {
        markdown: md,
        artifacts: vec![("obs_profile.json".to_string(), snap.to_json())],
    }
}

/// Runs `work` once per thread count; true when every run produced an
/// identical result.
fn identical_across<R: PartialEq>(threads: &[usize], work: impl Fn(&lcrec_par::Pool) -> R) -> bool {
    let results: Vec<R> = threads.iter().map(|&t| work(&lcrec_par::Pool::new(t))).collect();
    results.windows(2).all(|w| w[0] == w[1])
}

fn scaling_row(phase: &str, threads: &[usize], identical: bool) -> Vec<String> {
    let threads: Vec<String> = threads.iter().map(usize::to_string).collect();
    vec![
        phase.to_string(),
        threads.join("/"),
        if identical { "yes".into() } else { "NO".into() },
    ]
}

// ------------------------------------------------------ extra: scale

/// Scale-tier serving oracle check (`repro --exp scale [--tier …]` →
/// `results/scale.md`): deterministic Zipf-replayed traffic
/// ([`lcrec_data::ScaleConfig`]) through the serve
/// [`Engine`](lcrec_serve::Engine) at each [`ScaleTier`] — synthetic
/// unique semantic indices over the tier's catalog, an untrained LM at
/// the tier's width/depth (serving cost does not depend on the weight
/// *values*), request histories drawn from the tier's streamed user
/// generator. Reports weight bytes per tier and bit-compares batched
/// (`max_batch = 8`) against sequential (`max_batch = 1`) responses —
/// scaling up must never change an answer. Speed at scale is the serving
/// benchmark's job (`benchmark/`).
pub fn scale_tiers(scale: Scale, tiers: &[ScaleTier]) -> ExpOutput {
    use lcrec_core::{CausalLm, ExtendedVocab};
    use lcrec_data::{ScaleConfig, ZipfSampler};
    use lcrec_rqvae::{IndexTrie, ItemIndices};
    use lcrec_text::Vocab;

    // Tiny is the smoke configuration: one micro tier, micro LM.
    let specs: Vec<(String, ScaleConfig, Option<ScaleTier>)> = match scale {
        Scale::Tiny => vec![("test".to_string(), ScaleConfig::tier_test(), None)],
        Scale::Small => tiers
            .iter()
            .map(|&t| (t.name().to_string(), t.workload(), Some(t)))
            .collect(),
    };

    let mut rows = Vec::new();
    for (name, workload, tier) in &specs {
        let (sizes, codes) = workload.synthetic_codes().expect("tier presets validate");
        let idx = ItemIndices::new(sizes, codes);
        let base = Vocab::build([lcrec_serve::ServeConfig::default().template.as_str()], 1);
        let vocab = ExtendedVocab::new(base, idx);
        let trie = IndexTrie::build(vocab.indices());
        let lm = CausalLm::new(crate::setup::scale_lm_config(*tier, vocab.len()));
        let weight_bytes = lm.param_bytes();

        // Replayed open-loop traffic: which users arrive follows the
        // tier's Zipf law; each arriving user's history comes from the
        // same per-user generator the streaming tests pin.
        let n_requests = match tier {
            None => 12,
            Some(ScaleTier::Small) => 48,
            Some(ScaleTier::Medium) => 24,
            Some(ScaleTier::Large) => 12,
        };
        let popularity = ZipfSampler::new(workload.num_items, workload.zipf_exponent)
            .expect("tier presets validate");
        let histories: Vec<Vec<u32>> = workload
            .replay()
            .expect("tier presets validate")
            .take(n_requests)
            .map(|user| workload.generate_user(&popularity, user))
            .collect();
        let k = 5usize;

        let run = |max_batch: usize| -> Vec<Vec<(u32, u32)>> {
            let cfg = lcrec_serve::ServeConfig {
                max_batch,
                queue_cap: n_requests.max(1),
                ..lcrec_serve::ServeConfig::default()
            };
            let mut engine = lcrec_serve::Engine::new(&lm, &vocab, &trie, cfg);
            for hist in &histories {
                engine.submit(hist, k).expect("queue sized to the load");
            }
            engine
                .flush_outcomes()
                .into_iter()
                .filter_map(lcrec_serve::Outcome::completed)
                .map(|r| r.ranked.iter().map(|h| (h.item, h.logprob.to_bits())).collect())
                .collect()
        };

        let seq_bits = run(1);
        let bits = run(8);
        assert_eq!(bits.len(), n_requests, "no deadline, queue sized: all complete");
        rows.push(vec![
            name.clone(),
            workload.num_items.to_string(),
            workload.num_users.to_string(),
            format!("{:.1} MB", weight_bytes as f64 / (1024.0 * 1024.0)),
            n_requests.to_string(),
            if bits == seq_bits { "yes".into() } else { "NO".into() },
        ]);
    }

    let md = format!(
        "## Extra — scale tiers (`lcrec-data::scale` + `lcrec-serve`)\n\n\
         Zipf-replayed traffic (deterministic under the tier seed) through\n\
         the batched inference engine at each scale tier: synthetic unique\n\
         semantic indices over the tier's catalog, an untrained LM at the\n\
         tier's width/depth, histories from the streamed user generator.\n\
         `weights` is the resident f32 parameter size — the small tier fits\n\
         in L2, the large tier exceeds it by an order of magnitude (see\n\
         docs/PERFORMANCE.md, \"Scale tiers\"). `bit-identical` compares\n\
         every ranking and log-prob bit of the `max_batch = 8` run against\n\
         the sequential (`max_batch = 1`) run of the same traffic.\n\n\
         Throughput and latency under this kind of traffic are measured by\n\
         the serving benchmark (`benchmark/`, see its README), not by this\n\
         table.\n\n{}",
        markdown_table(
            &["tier", "items", "users", "weights", "requests", "bit-identical"],
            &rows
        )
    );
    ExpOutput::text(md)
}

/// [`scale_tiers`] over every tier — the `repro --exp scale` default.
pub fn scale(scale: Scale) -> ExpOutput {
    scale_tiers(scale, &ScaleTier::ALL)
}

// ------------------------------------------------------ extra: fleet

/// Shard counts the `repro --exp fleet` default sweeps.
pub const DEFAULT_FLEET_SHARDS: &[usize] = &[1, 2, 4];

/// Sharded-fleet serving oracle check (`repro --exp fleet [--tier …]
/// [--shards …]` → `results/fleet.md`): the same Zipf-replayed traffic as
/// [`scale_tiers`], driven through the consistent-hash
/// [`Router`](lcrec_serve::Router) at each requested shard count. Reports
/// the per-shard admission split (from the `router.shard<N>.requests` obs
/// counters), and bit-compares every
/// ranking + log-prob against a direct single-[`Engine`](lcrec_serve::Engine)
/// run of the same traffic — the fleet-level determinism contract:
/// sharding must never change an answer.
pub fn fleet(scale: Scale, tiers: &[ScaleTier], shard_counts: &[usize]) -> ExpOutput {
    use lcrec_core::{CausalLm, ExtendedVocab};
    use lcrec_data::{ScaleConfig, ZipfSampler};
    use lcrec_rqvae::{IndexTrie, ItemIndices};
    use lcrec_text::Vocab;

    // Tiny is the smoke configuration: one micro tier, micro LM.
    let specs: Vec<(String, ScaleConfig, Option<ScaleTier>)> = match scale {
        Scale::Tiny => vec![("test".to_string(), ScaleConfig::tier_test(), None)],
        Scale::Small => tiers
            .iter()
            .map(|&t| (t.name().to_string(), t.workload(), Some(t)))
            .collect(),
    };
    let shard_counts: Vec<usize> =
        if shard_counts.is_empty() { DEFAULT_FLEET_SHARDS.to_vec() } else { shard_counts.to_vec() };

    let obs_was_on = lcrec_obs::enabled();
    lcrec_obs::set_enabled(true);

    let mut rows = Vec::new();
    for (name, workload, tier) in &specs {
        let (sizes, codes) = workload.synthetic_codes().expect("tier presets validate");
        let idx = ItemIndices::new(sizes, codes);
        let base = Vocab::build([lcrec_serve::ServeConfig::default().template.as_str()], 1);
        let vocab = ExtendedVocab::new(base, idx);
        let trie = IndexTrie::build(vocab.indices());
        let lm = CausalLm::new(crate::setup::scale_lm_config(*tier, vocab.len()));

        let n_requests = match tier {
            None => 12,
            Some(ScaleTier::Small) => 48,
            Some(ScaleTier::Medium) => 24,
            Some(ScaleTier::Large) => 12,
        };
        let popularity = ZipfSampler::new(workload.num_items, workload.zipf_exponent)
            .expect("tier presets validate");
        // Replayed open-loop traffic, keyed by user id — the router needs
        // the id to place each request on the ring.
        let traffic: Vec<(u64, Vec<u32>)> = workload
            .replay()
            .expect("tier presets validate")
            .take(n_requests)
            .map(|user| (user as u64, workload.generate_user(&popularity, user)))
            .collect();
        let k = 5usize;
        let shard_cfg = |queue_cap: usize| lcrec_serve::ServeConfig {
            max_batch: 8,
            queue_cap: queue_cap.max(1),
            ..lcrec_serve::ServeConfig::default()
        };

        // Direct-engine baseline: the same traffic through one bare
        // engine, in arrival order. Its per-request rankings are the
        // reference bits every shard count must reproduce.
        let direct_bits: Vec<Vec<(u32, u32)>> = {
            let mut engine =
                lcrec_serve::Engine::new(&lm, &vocab, &trie, shard_cfg(n_requests));
            for (_, hist) in &traffic {
                engine.submit(hist, k).expect("queue sized to the load");
            }
            engine
                .flush_outcomes()
                .into_iter()
                .filter_map(lcrec_serve::Outcome::completed)
                .map(|r| r.ranked.iter().map(|h| (h.item, h.logprob.to_bits())).collect())
                .collect()
        };

        for &shards in &shard_counts {
            lcrec_obs::reset();
            let cfg = lcrec_serve::RouterConfig {
                shards,
                shard: shard_cfg(n_requests),
                ..lcrec_serve::RouterConfig::default()
            };
            let mut router = lcrec_serve::Router::new(&lm, &vocab, &trie, cfg);
            for (user, hist) in &traffic {
                router.submit(*user, hist, k).expect("per-shard queues sized to the load");
            }
            let outcomes = router.flush_outcomes();

            // Tickets are issued in arrival order, so slotting responses
            // by ticket id aligns them with the baseline's arrival order.
            let mut bits: Vec<Vec<(u32, u32)>> = vec![Vec::new(); traffic.len()];
            let mut completed = 0usize;
            for o in &outcomes {
                if let lcrec_serve::RouterOutcome::Completed { response, .. } = o {
                    completed += 1;
                    if let Some(slot) = bits.get_mut(response.id as usize) {
                        *slot = response
                            .ranked
                            .iter()
                            .map(|h| (h.item, h.logprob.to_bits()))
                            .collect();
                    }
                }
            }
            assert_eq!(completed, traffic.len(), "no deadline, queues sized: all complete");
            assert_eq!(router.pending_len(), 0, "every ticket resolved exactly once");
            let snap = lcrec_obs::snapshot();
            let per_shard: Vec<String> = (0..shards)
                .map(|s| snap.counter(&format!("router.shard{s}.requests")).to_string())
                .collect();
            rows.push(vec![
                name.clone(),
                shards.to_string(),
                n_requests.to_string(),
                per_shard.join("/"),
                if bits == direct_bits { "yes".into() } else { "NO".into() },
            ]);
        }
    }
    lcrec_obs::set_enabled(obs_was_on);

    let md = format!(
        "## Extra — sharded serving fleet (`lcrec-serve::router`)\n\n\
         The scale tiers' Zipf-replayed traffic routed through the\n\
         consistent-hash `Router` at each shard count: every user id maps\n\
         to a shard via the seeded ring, each shard runs its own bounded\n\
         `Engine` (`max_batch = 8`), and `per-shard reqs` is the admission\n\
         split the `router.shard<N>.requests` obs counters recorded.\n\
         `bit-identical`: every ranking and log-prob bit must match a\n\
         direct single-`Engine` run of the same traffic, at every shard\n\
         count (see docs/FLEET.md; hedging and hot-swap semantics are\n\
         exercised by tests/fleet.rs). Fleet throughput and latency are\n\
         measured by the serving benchmark (`benchmark/`, see its README),\n\
         not by this table.\n\n{}",
        markdown_table(&["tier", "shards", "requests", "per-shard reqs", "bit-identical"], &rows)
    );
    ExpOutput::text(md)
}

// --------------------------------------------------------- catalog evolution

/// Env var overriding the absorb-step budget of the evolve experiment
/// (optimizer batches spent fine-tuning on the new items; default 24).
pub const ABSORB_STEPS_ENV: &str = "LCREC_ABSORB_STEPS";

/// Online catalog evolution (`docs/CATALOG.md`): hold out
/// the last ~20% of the catalog, train the RQ-VAE on the rest, then admit
/// the held-out items one by one through `CatalogUpdater` into a
/// copy-on-write `CatalogTrie` while the serving fleet rolls forward via
/// `Router::swap_catalog`. Two bit columns gate correctness: the
/// incrementally grown trie must equal a full rebuild from the union
/// catalog, and decodes against the pre-growth snapshot must be
/// bit-identical before and after the inserts. A bounded absorption pass
/// (`lcrec_seqrec::absorb_with`) then fine-tunes SASRec on the new-item
/// pairs, reporting recall@10 on new items before and after. Insert speed
/// is the serving benchmark's `snapshot.insert_us`, not this table's.
pub fn evolve(scale: Scale) -> ExpOutput {
    use lcrec_core::{CatalogTrie, CausalLm, ExtendedVocab};
    use lcrec_rqvae::{CatalogUpdater, IndexTrie, RqVae};
    use lcrec_seqrec::{absorb_with, score_single, train_next_item};
    use lcrec_text::Vocab;

    let ds = dataset(scale, "Instruments");
    let emb = item_embeddings(&ds);
    let n = ds.num_items();
    let n_new = (n / 5).max(1);
    let n_base = n - n_new;

    // The RQ-VAE only ever sees the base catalog; the held-out items are
    // admitted later against the frozen model.
    let base_emb = {
        let rows: Vec<Vec<f32>> = (0..n_base).map(|i| emb.row(i).to_vec()).collect();
        Tensor::from_rows(&rows)
    };
    let mut rq = RqVae::new(crate::setup::rq_config(scale, n_base));
    rq.train(&base_emb);
    let base_idx = rq.build_indices(&base_emb);
    assert!(base_idx.is_unique(), "USM leaves the base catalog conflict-free");

    let mut updater = CatalogUpdater::new(&rq, base_idx.clone());
    let mut ctrie = CatalogTrie::from_indices(&base_idx).expect("conflict-free base");
    let trie0 = ctrie.materialize();
    assert_eq!(trie0, IndexTrie::build(&base_idx), "epoch 0 is the plain CSR build");

    // Serving stack over the base snapshot. Admissions never change the
    // code space (H × K), so lm/vocab are shared across catalog epochs.
    let base_vocab = Vocab::build([lcrec_serve::ServeConfig::default().template.as_str()], 1);
    let vocab = ExtendedVocab::new(base_vocab, base_idx.clone());
    let tier = match scale {
        Scale::Tiny => None,
        Scale::Small => Some(ScaleTier::Small),
    };
    let lm = CausalLm::new(crate::setup::scale_lm_config(tier, vocab.len()));

    // Fixed decode requests over base items only — the probe both the
    // old and the grown snapshot must answer bit-identically.
    let k = 5usize;
    let traffic: Vec<(u64, Vec<u32>)> = (0..ds.num_users())
        .filter_map(|u| {
            let hist: Vec<u32> = ds
                .train_seq(u)
                .iter()
                .copied()
                .filter(|&i| (i as usize) < n_base)
                .take(8)
                .collect();
            if hist.is_empty() { None } else { Some((u as u64, hist)) }
        })
        .take(12)
        .collect();
    let serve_cfg = || lcrec_serve::ServeConfig {
        max_batch: 4,
        queue_cap: traffic.len().max(1),
        ..lcrec_serve::ServeConfig::default()
    };
    let decode_bits = |trie: &IndexTrie| -> Vec<Vec<(u32, u32)>> {
        let mut engine = lcrec_serve::Engine::new(&lm, &vocab, trie, serve_cfg());
        for (_, hist) in &traffic {
            engine.submit(hist, k).expect("queue sized to the load");
        }
        engine
            .flush_outcomes()
            .into_iter()
            .filter_map(lcrec_serve::Outcome::completed)
            .map(|r| r.ranked.iter().map(|h| (h.item, h.logprob.to_bits())).collect())
            .collect()
    };
    let bits_before = decode_bits(&trie0);

    // Admit the held-out items: one quantize→resolve→insert per item, one
    // copy-on-write epoch per insert.
    let obs_was_on = lcrec_obs::enabled();
    lcrec_obs::set_enabled(true);
    lcrec_obs::reset();
    let mut collisions = 0usize;
    let mut relocations = 0usize;
    for i in n_base..n {
        let adm = updater.admit(emb.row(i)).expect("code space is overprovisioned");
        let epoch = ctrie.insert(&adm.codes, adm.item).expect("admission paths are free");
        assert_eq!(adm.item as usize, i, "admissions extend the dense id space");
        assert_eq!(epoch, (i - n_base + 1) as u64, "one epoch per insert");
        collisions += usize::from(!adm.greedy);
        relocations += adm.relocations;
    }

    // Differential gate: the incrementally grown trie vs a full rebuild
    // from the union catalog — node-for-node and byte-for-byte.
    let trie_new = ctrie.materialize();
    let rebuild = IndexTrie::build(updater.indices());
    let rebuild_ok = trie_new == rebuild && ctrie.snapshot().to_text() == rebuild.to_text();

    // Snapshot gate: epoch 0 must still decode exactly as before growth.
    let trie0_after = ctrie.materialize_at(0).expect("old epochs stay valid");
    let old_ok = trie0_after == trie0 && decode_bits(&trie0_after) == bits_before;

    // Roll the fleet forward mid-traffic: in-flight requests finish on
    // the old snapshot, later admissions decode against the grown one.
    let router_cfg = lcrec_serve::RouterConfig {
        shards: 2,
        shard: serve_cfg(),
        ..lcrec_serve::RouterConfig::default()
    };
    let mut router = lcrec_serve::Router::new(&lm, &vocab, &trie0, router_cfg);
    let half = traffic.len() / 2;
    for (user, hist) in traffic.iter().take(half) {
        router.submit(*user, hist, k).expect("per-shard queues sized to the load");
    }
    let mut outcomes = router.swap_catalog(&lm, &vocab, &trie_new, ctrie.epoch());
    for (user, hist) in traffic.iter().skip(half) {
        router.submit(*user, hist, k).expect("per-shard queues sized to the load");
    }
    outcomes.extend(router.flush_outcomes());
    let completed = outcomes.iter().filter(|o| o.is_completed()).count();
    assert_eq!(completed, traffic.len(), "no deadline, queues sized: all complete");
    assert_eq!(router.catalog_epoch(), ctrie.epoch(), "fleet serves the latest epoch");
    let snap = lcrec_obs::snapshot();
    let admitted = snap.counter("catalog.admitted");
    let swaps = snap.counter("catalog.swaps");
    lcrec_obs::set_enabled(obs_was_on);

    let index_rows = vec![vec![
        format!("{n_base}→{n}"),
        ctrie.epoch().to_string(),
        ctrie.num_nodes().to_string(),
        rebuild.num_nodes().to_string(),
        collisions.to_string(),
        relocations.to_string(),
        if rebuild_ok { "yes".into() } else { "NO".into() },
        if old_ok { "yes".into() } else { "NO".into() },
    ]];

    // Absorption: bounded fine-tune of SASRec on the new-item pairs, with
    // recall@10 on new-item targets before and after.
    let rec_cfg = rec_config(scale);
    let all_pairs = TrainingPairs::build(&ds, rec_cfg.max_len);
    let mut base_pairs = Vec::new();
    let mut new_pairs = Vec::new();
    for (hist, target) in all_pairs.pairs {
        if (target as usize) < n_base {
            base_pairs.push((hist, target));
        } else {
            new_pairs.push((hist, target));
        }
    }
    let base_tp = TrainingPairs { pairs: base_pairs, num_items: n };
    let new_tp = TrainingPairs { pairs: new_pairs.clone(), num_items: n };
    let mut model = SasRec::new(n, rec_cfg);
    train_next_item(&mut model, &base_tp);
    let recall_new = |model: &SasRec| -> f64 {
        let mut hits = 0usize;
        let mut evals = 0usize;
        for (hist, target) in new_pairs.iter().take(64) {
            let scores = score_single(model, hist);
            hits += usize::from(lcrec_eval::top_k(&scores, 10).contains(target));
            evals += 1;
        }
        hits as f64 / evals.max(1) as f64
    };
    let recall_before = recall_new(&model);
    let steps: u64 = std::env::var(ABSORB_STEPS_ENV) // lint: allow(det, reason = "bench-only workload knob: it sizes the absorption budget reported in the table, and never feeds a bit-compared result")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(24);
    let cursor = absorb_with(&lcrec_par::Pool::from_env(), &mut model, &new_tp, steps);
    let recall_after = recall_new(&model);

    let absorb_rows = vec![vec![
        "SASRec".to_string(),
        n_new.to_string(),
        format!("{}/{}", cursor.steps_done(), cursor.max_steps()),
        format!("{recall_before:.3}"),
        format!("{recall_after:.3}"),
        completed.to_string(),
        format!("{admitted}/{swaps}"),
    ]];

    let md = format!(
        "## Extra — online catalog evolution (`repro -- evolve`)\n\n\
         The last ~20% of the catalog is held out, the RQ-VAE trains on\n\
         the rest, and the held-out items are then admitted one at a time:\n\
         `CatalogUpdater` quantizes each embedding against the frozen\n\
         model (Sinkhorn relocation on collisions) and a copy-on-write\n\
         `CatalogTrie` insert makes one new epoch per item. `bit-identical\n\
         (rebuild)` checks the grown trie against a full rebuild from the\n\
         union catalog, node-for-node and byte-for-byte; `bit-identical\n\
         (old snapshot)` re-decodes a fixed probe against epoch 0 after\n\
         growth. The fleet rolls forward mid-traffic via\n\
         `Router::swap_catalog` (in-flight requests drain on the old\n\
         snapshot). Absorption then spends a bounded step budget\n\
         (`LCREC_ABSORB_STEPS`, default 24) fine-tuning SASRec on the\n\
         new-item pairs; recall@10 is measured on new-item targets before\n\
         and after — a mechanism check that bounded fine-tuning moves the\n\
         needle, not a held-out metric (see docs/CATALOG.md).\n\n{}\n\n{}",
        markdown_table(
            &[
                "items",
                "epochs",
                "arena nodes",
                "rebuild nodes",
                "collisions",
                "relocations",
                "bit-identical (rebuild)",
                "bit-identical (old snapshot)",
            ],
            &index_rows
        ),
        markdown_table(
            &[
                "model",
                "new items",
                "absorb steps",
                "recall@10 new (before)",
                "recall@10 new (after)",
                "router completed",
                "admitted/swaps",
            ],
            &absorb_rows
        )
    );
    ExpOutput::text(md)
}

struct BeamRanker<'a> {
    model: &'a LcRec,
    builder: InstructionBuilder<'a>,
    beam: usize,
}

impl Ranker for BeamRanker<'_> {
    fn rank(&self, _user: usize, history: &[u32], k: usize) -> Vec<u32> {
        let segs = self.builder.seq_eval_prompt(history);
        self.model.recommend_prompt(&segs, self.beam).into_iter().take(k).map(|h| h.item).collect()
    }
    fn name(&self) -> String {
        format!("LC-Rec (beam {})", self.beam)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_lists_datasets() {
        let out = table2(Scale::Tiny);
        assert!(out.markdown.contains("Tiny"));
        assert!(out.markdown.contains("Sparsity"));
    }

    // The remaining experiment functions are exercised end-to-end (at tiny
    // scale) by the workspace integration tests; running them all here
    // would duplicate that cost in every `cargo test -p lcrec-bench`.
}
