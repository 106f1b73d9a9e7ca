//! The metrics the benchmark prints, and the result line.
//!
//! An untraced run prints every end-to-end metric; a traced run prints
//! every per-layer metric. Both lists must match `BENCHMARK.json`,
//! which the crate's tests check. The end-to-end timings are stated at
//! the reference speed of [`crate::reference`] (`norm_` names, and
//! `setup_s`); the per-layer ones are wall times.

use crate::pass::{self, Tally, TracedPass};
use crate::workload::Workload;
use std::fmt::Write as _;

/// End-to-end metrics: name and unit.
pub const END_TO_END: [(&str, &str); 6] = [
    ("norm_items_per_s", "1/s"),
    ("norm_item_p50_ms", "ms"),
    ("norm_item_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("reduction_pct", "%"),
];

/// Spans timed inside an item, in report order. `item.other` is the
/// item's own self time: item time outside every layer span.
pub const ITEM_LAYERS: [&str; 13] = [
    "stats.switching",
    "stats.windowed",
    "core.problem",
    "core.anneal",
    "core.anneal_xtalk",
    "core.bnb",
    "core.baseline",
    "model.extract",
    "circuit.link",
    "circuit.simulate",
    "experiments.assign_stream",
    "bench.check",
    "item.other",
];

/// Spans timed during set-up.
pub const SETUP_LAYERS: [&str; 3] = ["stats.gen", "codec.encode", "model.fit"];

/// Per-layer metrics other than the `<layer>.busy_s` and
/// `<layer>.share_pct` of every item layer and the `busy_s` of every
/// set-up layer: name and unit.
pub const PER_LAYER_EXTRA: [(&str, &str); 25] = [
    ("stats.switching.calls", "count"),
    ("stats.switching.words", "count"),
    ("stats.switching.mwords_per_s", "Mword/s"),
    ("stats.windowed.windows", "count"),
    ("core.anneal.calls", "count"),
    ("core.anneal.moves", "count"),
    ("core.anneal.ns_per_move", "ns"),
    ("core.anneal.optimal_ratio", "ratio"),
    ("core.anneal_xtalk.calls", "count"),
    ("core.anneal_xtalk.moves", "count"),
    ("core.anneal_xtalk.ns_per_move", "ns"),
    ("core.bnb.nodes", "count"),
    ("core.bnb.ns_per_node", "ns"),
    ("core.bnb.proven_ratio", "ratio"),
    ("core.bnb.anneal_gap_pct", "%"),
    ("model.extract.calls", "count"),
    ("model.fit.calls", "count"),
    ("circuit.simulate.cycles", "count"),
    ("circuit.simulate.us_per_cycle", "us"),
    ("circuit.simulate.reduction_pct", "%"),
    ("stats.gen.words", "count"),
    ("codec.encode.words", "count"),
    ("trace.coverage_pct", "%"),
    ("trace.overhead_pct", "%"),
    ("trace.dominant_share_pct", "%"),
];

/// Every per-layer metric: name and unit.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut all = Vec::new();
    for layer in ITEM_LAYERS {
        all.push((format!("{layer}.busy_s"), "s"));
        all.push((format!("{layer}.share_pct"), "%"));
    }
    for layer in SETUP_LAYERS {
        all.push((format!("{layer}.busy_s"), "s"));
    }
    all.extend(PER_LAYER_EXTRA.iter().map(|&(n, u)| (n.to_string(), u)));
    all
}

/// One printed metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .chain(per_layer())
        .find(|(n, _)| n == name)
        .map_or("", |(_, u)| u)
}

fn metric(name: &str, value: f64) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit: unit_of(name),
    }
}

/// The end-to-end metrics of an untraced run; `setup_s` is already at
/// the reference speed.
pub fn end_to_end(tally: &Tally, setup_s: f64, peak_rss_mb: f64) -> Vec<Metric> {
    let norm = &tally.norm_latencies;
    vec![
        metric("norm_items_per_s", tally.norm_items_per_s()),
        metric("norm_item_p50_ms", pass::percentile(norm, 0.5) * 1e3),
        metric("norm_item_p90_ms", pass::percentile(norm, 0.9) * 1e3),
        metric("setup_s", setup_s),
        metric("peak_rss_mb", peak_rss_mb),
        metric("reduction_pct", tally.quality.reduction_pct()),
    ]
}

/// Set-up figures of the traced run.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupWork {
    /// Words the generators produced.
    pub gen_words: u64,
    /// Words the coders produced.
    pub encode_words: u64,
    /// Distinct arrays fitted.
    pub fits: u64,
}

/// The per-layer metrics of a traced run, from the recorded spans.
/// Times and counts are per walk over the item list, so counts repeat
/// exactly for a seed; shares are of item wall time.
pub fn layers(workload: Workload, run: &TracedPass, spans: &str, setup: SetupWork) -> Vec<Metric> {
    let rollup = tsv3d_bench::trace::analyze_text(spans).spans;
    let self_s = |name: &str| {
        rollup
            .iter()
            .find(|r| r.name == name)
            .map_or(0.0, |r| r.self_s)
    };
    let walks = run.tally.walk_s.len().max(1) as f64;
    let item_total = rollup
        .iter()
        .find(|r| r.name == "item")
        .map_or(0.0, |r| r.total_s);
    let busy = |layer: &str| match layer {
        "item.other" => self_s("item"),
        _ => self_s(layer),
    };
    let share = |layer: &str| {
        if item_total > 0.0 {
            busy(layer) / item_total * 100.0
        } else {
            0.0
        }
    };
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let c = &run.tally.counts;
    let mut out = Vec::new();
    for layer in ITEM_LAYERS {
        out.push(metric(&format!("{layer}.busy_s"), busy(layer) / walks));
        out.push(metric(&format!("{layer}.share_pct"), share(layer)));
    }
    for layer in SETUP_LAYERS {
        out.push(metric(&format!("{layer}.busy_s"), self_s(layer)));
    }
    let (dominant, _) = workload.dominant();
    let q = run.tally.quality;
    let extra = [
        c.stats_calls as f64 / walks,
        c.stats_words as f64 / walks,
        ratio(c.stats_words as f64, busy("stats.switching") * 1e6),
        c.windows as f64 / walks,
        c.anneal_calls as f64 / walks,
        c.anneal_moves as f64 / walks,
        ratio(busy("core.anneal") * 1e9, c.anneal_moves as f64),
        ratio(c.anneal_optimal as f64, c.bnb_proven as f64),
        c.xtalk_calls as f64 / walks,
        c.xtalk_moves as f64 / walks,
        ratio(busy("core.anneal_xtalk") * 1e9, c.xtalk_moves as f64),
        c.bnb_nodes as f64 / walks,
        ratio(busy("core.bnb") * 1e9, c.bnb_nodes as f64),
        ratio(c.bnb_proven as f64, c.bnb_calls as f64),
        q.anneal_gap_pct(),
        c.extract_calls as f64 / walks,
        setup.fits as f64,
        c.sim_cycles as f64 / walks,
        ratio(busy("circuit.simulate") * 1e6, c.sim_cycles as f64),
        q.circuit_reduction_pct(),
        setup.gen_words as f64,
        setup.encode_words as f64,
        100.0 - share("item.other"),
        ratio(run.traced_s, run.untraced_s) * 100.0 - 100.0,
        dominant.iter().map(|layer| share(layer)).sum(),
    ];
    for (&(name, _), value) in PER_LAYER_EXTRA.iter().zip(extra) {
        out.push(metric(name, value));
    }
    out
}

/// The last line of the output: `{"correct", "attempted", "failed",
/// "metrics"}`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (k, m) in metrics.iter().enumerate() {
        let sep = if k == 0 { "" } else { ", " };
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            line,
            "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    line.push_str("}}");
    line
}
