//! Smoke tests for every experiment-reproduction function at tiny scale —
//! the same code paths `repro --scale small` runs for the checked-in
//! results, exercised end-to-end in minutes.

use lcrec_bench::experiments as exp;
use lcrec_bench::Scale;

#[test]
fn table2_renders() {
    let out = exp::table2(Scale::Tiny);
    assert!(out.markdown.contains("#Users"));
}

#[test]
fn table3_covers_all_eleven_methods() {
    let out = exp::table3(Scale::Tiny);
    for method in [
        "Caser", "HGN", "GRU4Rec", "BERT4Rec", "SASRec", "FMLP-Rec", "FDSA", "S3-Rec", "P5-CID",
        "TIGER", "LC-Rec",
    ] {
        assert!(out.markdown.contains(method), "missing {method}");
    }
    assert!(out.markdown.contains("Improvement of LC-Rec"));
}

#[test]
fn table4_ladder_has_five_rows() {
    let out = exp::table4(Scale::Tiny);
    for label in ["SEQ", "+MUT", "+ASY", "+ITE", "+PER"] {
        assert!(out.markdown.contains(label), "missing row {label}\n{}", out.markdown);
    }
}

#[test]
fn fig2_covers_all_indexing_schemes() {
    let out = exp::fig2(Scale::Tiny);
    for label in ["Vanilla ID", "Random Indices", "LC-Rec w/o USM", "LC-Rec"] {
        assert!(out.markdown.contains(label), "missing {label}");
    }
    assert!(out.markdown.contains("SEQ") && out.markdown.contains("w/ ALIGN"));
}

#[test]
fn fig3_compares_dssm_and_lcrec() {
    let out = exp::fig3(Scale::Tiny);
    assert!(out.markdown.contains("DSSM"));
    assert!(out.markdown.contains("Zero-Shot"));
}

#[test]
fn fig4_emits_csv_artifacts() {
    let out = exp::fig4(Scale::Tiny);
    assert_eq!(out.artifacts.len(), 2);
    for (name, csv) in &out.artifacts {
        assert!(name.ends_with(".csv"));
        assert!(csv.starts_with("x,y,group"));
        assert!(csv.lines().count() > 10);
    }
}

#[test]
fn table5_reports_three_negative_kinds() {
    let out = exp::table5(Scale::Tiny);
    for col in ["Language Neg.", "Collaborative Neg.", "Random Neg."] {
        assert!(out.markdown.contains(col));
    }
    for row in ["SASRec", "LLaMA", "ChatGPT", "LC-Rec (Title)"] {
        assert!(out.markdown.contains(row));
    }
}

#[test]
fn profile_emits_obs_artifact_with_nonzero_phases() {
    let out = exp::profile(Scale::Tiny);
    assert_eq!(out.artifacts.len(), 1);
    let (name, json) = &out.artifacts[0];
    assert_eq!(name, "obs_profile.json");
    for span in ["rqvae.train", "seqrec.train", "lm.train", "beam.decode", "eval.split"] {
        assert!(json.contains(span), "snapshot must cover the {span} phase\n{json}");
    }
    assert!(json.contains("par.chunks"), "pool counters must be recorded");
    assert!(
        !out.markdown.contains("NO"),
        "instrumented 1- vs 4-thread runs must stay bit-identical:\n{}",
        out.markdown
    );
}

#[test]
fn serve_stays_bit_identical_at_every_batch_size() {
    let out = exp::serve(Scale::Tiny);
    for col in ["max batch", "largest batch", "bit-identical"] {
        assert!(out.markdown.contains(col), "missing column {col}\n{}", out.markdown);
    }
    assert!(
        !out.markdown.contains("NO"),
        "batched serving must stay bit-identical to the sequential baseline:\n{}",
        out.markdown
    );
}

#[test]
fn fig5_and_fig6_render_case_studies() {
    let f5 = exp::fig5(Scale::Tiny);
    assert!(f5.markdown.contains("titles from index prefixes"));
    assert!(f5.markdown.contains("related items"));
    let f6 = exp::fig6(Scale::Tiny);
    assert!(f6.markdown.contains("level 1"));
}
