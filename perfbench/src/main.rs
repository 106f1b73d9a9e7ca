//! `tsv3d-perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]`
//!
//! Runs one workload for `--seconds` and prints, as its last line, one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
//! they are the per-layer ones of a traced run. Exit status: 0 after a
//! run, 1 when set-up fails, 2 on a usage error.

use std::process::ExitCode;
use std::time::Instant;
use tsv3d_perfbench::metrics::{self, Metric, SetupWork};
use tsv3d_perfbench::pass::{self, Tally};
use tsv3d_perfbench::reference::{self, Reference};
use tsv3d_perfbench::trace::Tracer;
use tsv3d_perfbench::workload::{self, Inputs, Workload};
use tsv3d_perfbench::{host, verify};

/// The seed runs use unless told otherwise.
const DEFAULT_SEED: u64 = 1;

/// Set-ups per untraced run: at least this many, and more until they
/// have taken [`SETUP_MIN_S`] of wall time; `setup_s` is their median
/// at the reference speed.
const SETUP_REPS: usize = 5;
const SETUP_MIN_S: f64 = 2.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: tsv3d-perfbench --workload <long_trace|design_sweep|certify_small|link_sim> \
     [--seed <n>] [--seconds <s>] [--trace <0|1>]";

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, DEFAULT_SEED, 10.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or(format!("bad seconds {value}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                }
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!("{}", host::Stamp::current());
    println!(
        "workload: {} seed={} seconds={} trace={} (closed loop, one caller, one thread)",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let outcome = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    match outcome {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

fn untraced(args: &Args) -> Result<String, Box<dyn std::error::Error>> {
    let reference = Reference::new();
    let mut before = reference.time();
    let (mut walls, mut times) = (Vec::new(), Vec::new());
    let inputs = loop {
        let t0 = Instant::now();
        let inputs = workload::setup(args.workload, args.seed, &Tracer::off())?;
        let wall = t0.elapsed().as_secs_f64();
        let after = reference.time();
        walls.push(wall);
        times.push(wall * reference::scale(before, after));
        before = after;
        if walls.len() >= SETUP_REPS && walls.iter().sum::<f64>() >= SETUP_MIN_S {
            break inputs;
        }
    };
    let setup_s = pass::median(&times);
    describe_inputs(&inputs, pass::median(&walls));
    println!(
        "setup_s: median of {} set-ups, {setup_s:.6} s at the reference speed",
        times.len()
    );

    let tally = pass::timed(&inputs, args.seconds);
    let cross = cross_check(&inputs);
    let metrics = metrics::end_to_end(&tally, setup_s, host::peak_rss_mb());
    describe_tally(&tally);
    println!(
        "items: {} timed over {:.3} s; norm_item_p90_ms has {} samples above it",
        tally.latencies.len(),
        tally.elapsed,
        tally.latencies.len() - (0.9 * tally.latencies.len() as f64).ceil() as usize
    );
    println!(
        "wall: items_per_s {:.6}, item_p50_ms {:.6}, item_p90_ms {:.6}; \
         reference kernel: {} runs, median {:.6} ms, host at {:.3} of the reference speed",
        tally.items_per_s(),
        pass::percentile(&tally.latencies, 0.5) * 1e3,
        pass::percentile(&tally.latencies, 0.9) * 1e3,
        tally.reference_s.len(),
        pass::median(&tally.reference_s) * 1e3,
        reference::NOMINAL_S / pass::median(&tally.reference_s)
    );
    print_metrics(&metrics);
    let correct = tally.failed == 0 && cross && metrics.iter().all(|m| m.value.is_finite());
    Ok(metrics::result_line(
        correct,
        tally.attempted,
        tally.failed,
        &metrics,
    ))
}

fn traced(args: &Args) -> Result<String, Box<dyn std::error::Error>> {
    let tracer = Tracer::in_memory();
    let t0 = Instant::now();
    let inputs = workload::setup(args.workload, args.seed, &tracer)?;
    describe_inputs(&inputs, t0.elapsed().as_secs_f64());

    let run = pass::traced(&inputs, args.seconds, &tracer);
    let cross = cross_check(&inputs);
    let spans = tracer.text();
    let dir =
        std::path::PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or("target".into()))
            .join("perfbench");
    let path = dir.join(format!(
        "trace-{}-{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, &spans)) {
        Ok(()) => println!(
            "spans: {} lines written to {}",
            spans.lines().count(),
            path.display()
        ),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
    let setup = SetupWork {
        gen_words: inputs.gen_words,
        encode_words: inputs.encode_words,
        fits: inputs.arrays.len() as u64,
    };
    let metrics = metrics::layers(args.workload, &run, &spans, setup);
    describe_tally(&run.tally);
    println!(
        "traced: {} walks of {} items; traced {:.3} s vs untraced {:.3} s on the same items",
        run.tally.walk_s.len(),
        inputs.items.len(),
        run.traced_s,
        run.untraced_s
    );
    print_metrics(&metrics);
    let (dominant, predicted) = args.workload.dominant();
    let share = metrics
        .iter()
        .find(|m| m.name == "trace.dominant_share_pct")
        .map_or(0.0, |m| m.value);
    let coverage = metrics
        .iter()
        .find(|m| m.name == "trace.coverage_pct")
        .map_or(0.0, |m| m.value);
    println!(
        "prediction: {} hold {share:.1} % of item time (predicted >= {predicted} %): {}",
        dominant.join(" + "),
        if share >= predicted {
            "HOLDS"
        } else {
            "MISSED"
        }
    );
    println!(
        "coverage: layer spans cover {coverage:.1} % of item time (target >= 95 %): {}",
        if coverage >= 95.0 { "MET" } else { "MISSED" }
    );
    let correct = run.tally.failed == 0 && cross && metrics.iter().all(|m| m.value.is_finite());
    Ok(metrics::result_line(
        correct,
        run.tally.attempted,
        run.tally.failed,
        &metrics,
    ))
}

fn cross_check(inputs: &Inputs) -> bool {
    let index = verify::pick(inputs);
    match verify::cross_check(inputs, index) {
        Ok(()) => {
            println!(
                "cross-check: item {index} ({}) matches the library's entry points bit for bit",
                inputs.items[index].class
            );
            true
        }
        Err(e) => {
            println!("cross-check: item {index} FAILED: {e}");
            false
        }
    }
}

fn describe_inputs(inputs: &Inputs, setup_s: f64) {
    println!(
        "setup: {} items over {} arrays, {} generated and {} coded words, {setup_s:.6} s",
        inputs.items.len(),
        inputs.arrays.len(),
        inputs.gen_words,
        inputs.encode_words
    );
}

fn describe_tally(tally: &Tally) {
    let mut classes: Vec<&str> = tally.classes.clone();
    classes.sort_unstable();
    classes.dedup();
    for class in classes {
        let lat: Vec<f64> = tally
            .classes
            .iter()
            .zip(&tally.latencies)
            .filter(|(c, _)| **c == class)
            .map(|(_, &l)| l * 1e3)
            .collect();
        println!(
            "class {class:<20} n={:<5} share={:5.1}% p50={:10.3} ms max={:10.3} ms",
            lat.len(),
            lat.len() as f64 / tally.latencies.len() as f64 * 100.0,
            pass::median(&lat),
            lat.iter().copied().fold(0.0, f64::max)
        );
    }
    println!(
        "walks: {:?} s",
        tally
            .walk_s
            .iter()
            .map(|s| (s * 1e3).round() / 1e3)
            .collect::<Vec<_>>()
    );
    println!(
        "checks: {} attempted, {} failed (failed_ratio {})",
        tally.attempted,
        tally.failed,
        tally.failed_ratio()
    );
    for failure in &tally.failures {
        println!("  failure: {failure}");
    }
}

fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        println!("metric {:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
}
