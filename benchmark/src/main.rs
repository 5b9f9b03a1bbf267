//! The repo's serving benchmark. One process runs one workload once:
//!
//! ```text
//! lcrec-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! and prints, as the last line of stdout, one JSON object with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).
//! Without `--workload` it runs every workload, both passes, each in a
//! process of its own; `--agree` runs the end-to-end set twice and compares.
//! See README.md.

mod driver;
mod layers;
mod report;
mod stats;
mod sut;
mod trace;
mod workload;

use driver::{LoopStats, Phase, Run};
use report::{Decl, Metric, END_TO_END, PER_LAYER};
use stats::{median, segment_rps, windowed_latency};
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use sut::{Direct, Inputs, Parts, SetupTimes};
use workload::{spec_named, Spec, REF_SECONDS, WORKLOADS};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

/// Segments the closed-loop phase is cut into for `throughput_rps`.
const SEGMENTS: usize = 10;

#[derive(Clone, Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    agree: bool,
    manifest: bool,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: REF_SECONDS,
        trace: false,
        smoke: false,
        agree: false,
        manifest: false,
        out_dir: PathBuf::from("target/benchmark"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&args.seconds) {
                    return Err("--seconds must be 1 to 60".into());
                }
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out-dir" => args.out_dir = PathBuf::from(value("a directory")?),
            "--smoke" => args.smoke = true,
            "--agree" => args.agree = true,
            "--manifest" => args.manifest = true,
            "full" => {}
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lcrec-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if args.manifest {
        print!("{}", report::manifest());
        return ExitCode::SUCCESS;
    }
    let ok = match (&args.workload, args.agree) {
        (Some(name), _) => match spec_named(name) {
            Some(spec) => run_workload(spec, &args),
            None => {
                eprintln!(
                    "lcrec-benchmark: no workload {name}; have {:?}",
                    WORKLOADS.map(|w| w.name)
                );
                return ExitCode::from(2);
            }
        },
        (None, false) => run_set(&args, &[false, true]).is_some(),
        (None, true) => agree(&args),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn rounded(values: &[f64], scale: f64) -> String {
    let shown: Vec<String> = values.iter().map(|v| format!("{:.1}", v * scale)).collect();
    format!("[{}]", shown.join(" "))
}

/// Peak resident set of this process so far, from `VmHWM`.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn print_phase(run: &Run<'_>, phase: Phase, stats: &LoopStats) {
    let (sent, ok, failed) = run.tally(phase);
    println!(
        "phase {:<16} sent {sent} succeeded {ok} failed {failed} wall {:.3} s (submit {:.3} step {:.3} idle {:.3} publish {:.3})",
        phase.label(),
        stats.wall_s,
        stats.submit_s,
        stats.step_s,
        stats.idle_s,
        stats.publish_s
    );
}

fn print_metrics(metrics: &[(Decl, Metric)]) {
    for (d, m) in metrics {
        println!(
            "metric {:<36} {:>14.4} {:<8} {}",
            d.name, m.value, d.unit, m.note
        );
    }
}

/// One workload, one pass, in this process. `false` when the answer check
/// or a metric failed; the result line is printed either way.
fn run_workload(base: Spec, args: &Args) -> bool {
    let mut spec = base.for_seconds(args.seconds);
    if args.smoke {
        spec = spec.smoke();
    }
    if args.trace {
        spec = spec.traced();
    }
    let p = spec.phases;
    println!(
        "workload {} seed {} seconds {} trace {} smoke {} | threads {} shards {} max_batch {}",
        spec.name,
        args.seed,
        args.seconds,
        args.trace as u8,
        args.smoke,
        sut::pool_threads(),
        sut::Fleet::shard_count(),
        sut::Fleet::max_batch()
    );

    // Inputs, from the seed alone.
    let inputs = Inputs::generate(spec.model, args.smoke, args.seed);
    let closed_runs = if args.trace { 2 } else { 1 };
    let ladder_n: usize = if args.trace {
        p.ladder.iter().map(|l| l.1).sum()
    } else {
        0
    };
    let total = p.warm + closed_runs * p.closed + p.open + ladder_n;
    let requests = workload::requests(&inputs, spec.traffic, args.seed, total);
    let swaps = spec
        .churn
        .map_or(0, |c| total / c.closed_every.min(c.open_every))
        + spec.idle_bursts
        + 1;

    // Set-up, several times; the last one serves.
    std::fs::create_dir_all(&args.out_dir).expect("the output directory can be created");
    let checkpoint = args
        .out_dir
        .join(format!("weights_{}_{}.lcr", spec.name, std::process::id()));
    let checkpoint_bytes = inputs.write_checkpoint(&checkpoint);
    let mut setups: Vec<SetupTimes> = Vec::new();
    let mut parts = None;
    for _ in 0..SETUP_REPS {
        drop(parts.take()); // the previous set-up is gone before the next starts
        let (built, times) = Parts::cold_start(&inputs, &checkpoint, spec.k, swaps);
        setups.push(times);
        parts = Some(built);
    }
    std::fs::remove_file(&checkpoint).ok();
    let parts = parts.expect("SETUP_REPS is at least 1");
    let setup_total: Vec<f64> = setups.iter().map(|s| s.total_s).collect();
    println!(
        "setup {:?} s, checkpoint {checkpoint_bytes} bytes",
        setup_total
    );

    let mut run = Run::begin(spec, args.seed, &inputs, &parts, requests);
    let warm = run.closed_loop(Phase::Warm, p.warm);
    print_phase(&run, Phase::Warm, &warm);

    let mut direct = Direct::open(&inputs, &parts, spec.k);
    let (decls, metrics, lines): (&[Decl], Vec<Metric>, Vec<String>) = if !args.trace {
        // A workload without churn publishes on the idle fleet, a third of
        // its bursts between each two phases, so no one stall of the
        // machine covers most of them.
        let idle_third = |run: &mut Run<'_>, third: usize| {
            for _ in spec.idle_bursts * third / 3..spec.idle_bursts * (third + 1) / 3 {
                run.publish();
            }
        };
        idle_third(&mut run, 0);
        let closed = run.closed_loop(Phase::Closed, p.closed);
        print_phase(&run, Phase::Closed, &closed);
        idle_third(&mut run, 1);
        let open = run.open_loop(Phase::Open, p.open_rps, p.open);
        print_phase(&run, Phase::Open, &open);
        idle_third(&mut run, 2);
        let lat = run.latencies_s(Phase::Open);
        let (mids, tails, tail) = windowed_latency(&lat, 95.0);
        let deciles: Vec<f64> = (1..=10)
            .map(|d| stats::percentile(&lat, f64::from(d) * 10.0))
            .collect();
        println!("open-loop latency deciles {} ms", rounded(&deciles, 1e3));
        let segments = segment_rps(&closed.marks, SEGMENTS);
        let publishes: Vec<f64> = run.publishes.iter().map(|t| t.total_s).collect();
        let m = |name, value, note| Metric { name, value, note };
        let metrics = vec![
            m("setup_s", median(&setup_total), format!("model, checkpoint load, trie, router; median of {SETUP_REPS}")),
            m("throughput_rps", median(&segments), format!("closed loop, {} requests, median of {} segments: {}", p.closed, segments.len(), rounded(&segments, 1.0))),
            m("latency_p50_ms", median(&mids) * 1e3, format!("open loop at {} rps, due -> completed, n={}, median of {} windows' medians: {}", p.open_rps, lat.len(), mids.len(), rounded(&mids, 1e3))),
            m("latency_p95_ms", median(&tails) * 1e3, format!("p{tail} (the highest with 20 of the n samples beyond it), median of {} windows: {}", tails.len(), rounded(&tails, 1e3))),
            m("peak_rss_mb", peak_rss_mb(), "VmHWM of this process".into()),
            m("publish_ms", stats::percentile(&publishes, 25.0) * 1e3, format!("{} inserts -> materialize -> swap_catalog, lower quartile of {}: {}", spec.burst, publishes.len(), rounded(&publishes, 1e3))),
        ];
        let late = format!(
            "admission ran late by mean {:.3} ms",
            stats::mean(&open.late_s) * 1e3
        );
        (&END_TO_END, metrics, vec![late])
    } else {
        let untraced = run.closed_loop(Phase::ClosedUntraced, p.closed);
        print_phase(&run, Phase::ClosedUntraced, &untraced);
        sut::obs_reset();
        sut::obs_set(true);
        run.tracer.set_on(true);
        let traced = run.closed_loop(Phase::Closed, p.closed);
        sut::obs_set(false);
        print_phase(&run, Phase::Closed, &traced);
        let open = run.open_loop(Phase::Open, p.open_rps, p.open);
        print_phase(&run, Phase::Open, &open);
        let ladder = [0, 1].map(|i| {
            let stats = run.open_loop(Phase::Ladder(i), p.ladder[i].0, p.ladder[i].1);
            print_phase(&run, Phase::Ladder(i), &stats);
            stats
        });
        for _ in 0..spec.idle_bursts {
            run.publish();
        }
        let shape = inputs.lm_shape();
        let replay = layers::replay(&mut run, &parts, &inputs, &mut direct, shape);
        let micro = layers::micro(&mut run, &parts, shape, &replay.prefixes);
        let gathered = layers::Gathered {
            setup: &setups,
            checkpoint_bytes,
            untraced: &untraced,
            traced: &traced,
            open: &open,
            ladder: &ladder,
            replay: &replay,
            micro,
            shape,
        };
        let (metrics, lines) = layers::layer_metrics(&run, &parts, &direct, &gathered);
        (&PER_LAYER, metrics, lines)
    };

    let decoded = run.verify(&mut direct);
    let attempted = run.records.len();
    let failed: usize = attempted
        - run
            .records
            .iter()
            .filter(|r| matches!(r.ending, driver::Ending::Done(_)))
            .count();
    for line in &lines {
        println!("{line}");
    }
    println!(
        "ranking_checksum {:#018x} (closed phase)",
        run.ranking_checksum(Phase::Closed)
    );
    println!(
        "check: {attempted} arrivals each ended once, {decoded} decoded again directly, {} swaps checked, {} violation(s)",
        run.publishes.len(),
        run.errors.len()
    );
    for e in run.errors.iter().take(20) {
        println!("check failed: {e}");
    }
    if args.trace {
        for (name, t) in run.tracer.totals() {
            println!(
                "span {name:<22} count {:>6} total {:>10.3} ms self {:>10.3} ms",
                t.count,
                t.total_s * 1e3,
                t.self_s * 1e3
            );
        }
        let path = args.out_dir.join(format!("trace_{}.json", spec.name));
        match std::fs::write(&path, run.tracer.to_json(spec.name, args.seed)) {
            Ok(()) => println!("trace written to {}", path.display()),
            Err(e) => run
                .errors
                .push(format!("trace file {}: {e}", path.display())),
        }
    }

    let ordered = report::ordered(decls, &metrics);
    let mut correct = run.errors.is_empty();
    let ordered = ordered.unwrap_or_else(|e| {
        println!("check failed: {e}");
        correct = false;
        Vec::new()
    });
    if let Some((d, _)) = ordered.iter().find(|(_, m)| !m.value.is_finite()) {
        println!("check failed: metric {} is not a finite number", d.name);
        correct = false;
    }
    print_metrics(&ordered);
    println!(
        "{}",
        report::result_line(correct, attempted, failed, &ordered)
    );
    correct
}

/// A workload's name and the `(metric, value)` pairs of its result line.
type RunValues = (&'static str, Vec<(&'static str, f64)>);

/// Runs this executable once per workload and pass; the metrics of each
/// run, or `None` if any run failed. Each workload gets a process of its
/// own, so its peak resident set is its own.
fn run_set(args: &Args, passes: &[bool]) -> Option<Vec<RunValues>> {
    let exe = std::env::current_exe().expect("the running executable has a path");
    let mut all = Vec::new();
    let mut ok = true;
    for spec in WORKLOADS {
        for &trace in passes {
            let mut cmd = Command::new(&exe);
            cmd.args([
                "--workload",
                spec.name,
                "--seed",
                &args.seed.to_string(),
                "--seconds",
                &args.seconds.to_string(),
            ]);
            cmd.args(["--trace", if trace { "1" } else { "0" }])
                .arg("--out-dir")
                .arg(&args.out_dir);
            if args.smoke {
                cmd.arg("--smoke");
            }
            let out = cmd.output().expect("the benchmark can start itself");
            let text = String::from_utf8_lossy(&out.stdout);
            print!("{text}");
            if !out.status.success() {
                eprint!("{}", String::from_utf8_lossy(&out.stderr));
                println!(
                    "run failed: {} trace {} exited with {}",
                    spec.name, trace as u8, out.status
                );
                ok = false;
            }
            let decls: &[Decl] = if trace { &PER_LAYER } else { &END_TO_END };
            let last = text.lines().last().unwrap_or("");
            let values = decls
                .iter()
                .filter_map(|d| Some((d.name, value_in(last, d.name)?)))
                .collect();
            all.push((spec.name, values));
            println!();
        }
    }
    ok.then_some(all)
}

/// The value of metric `name` in a result line.
fn value_in(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find(',')?].parse().ok()
}

/// `--agree`: the end-to-end set twice; every pair of values must differ
/// by no more than the metric's bound.
fn agree(args: &Args) -> bool {
    let (Some(first), Some(second)) = (run_set(args, &[false]), run_set(args, &[false])) else {
        return false;
    };
    let mut ok = true;
    println!(
        "{:<16} {:<18} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "differ", "bound"
    );
    for ((workload, a), (_, b)) in first.iter().zip(&second) {
        for d in END_TO_END {
            let get = |set: &[(&str, f64)]| set.iter().find(|(n, _)| *n == d.name).map(|(_, v)| *v);
            let (Some(x), Some(y)) = (get(a), get(b)) else {
                println!("{workload:<16} {:<18} missing from a result line", d.name);
                ok = false;
                continue;
            };
            let differ = (x - y).abs() / x.abs().max(f64::MIN_POSITIVE);
            let verdict = if differ <= d.bound { "" } else { "  OUTSIDE" };
            println!(
                "{workload:<16} {:<18} {x:>14.4} {y:>14.4} {:>8.2}% {:>6.0}%{verdict}",
                d.name,
                differ * 100.0,
                d.bound * 100.0
            );
            ok &= differ <= d.bound;
        }
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_result_line_gives_its_values_back() {
        let m = Metric {
            name: "setup_s",
            value: 0.25,
            note: String::new(),
        };
        let line = report::result_line(
            true,
            1,
            0,
            &report::ordered(&END_TO_END[..1], &[m]).unwrap(),
        );
        assert_eq!(value_in(&line, "setup_s"), Some(0.25));
        assert_eq!(value_in(&line, "publish_ms"), None);
    }
}
