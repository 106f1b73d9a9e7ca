//! The closed loop: one caller, one item at a time, one thread.
//!
//! The timed pass walks the whole item list, in its order, as many
//! times as fit in about `--seconds`. The quality figures come from the
//! first walk, so they are the same on every run of a seed. With one
//! caller nothing queues, so no layer ever waits: item latency is
//! service time.
//!
//! The untraced pass also states every latency at the reference speed
//! of [`crate::reference`]: it times the reference kernel between
//! stretches of at least [`SEGMENT_S`] of items and scales each item of
//! a stretch by the kernel's times on either side of it.

use crate::item::{self, Counts, ItemOutput};
use crate::reference::{self, Reference};
use crate::trace::Tracer;
use crate::workload::Inputs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// The result of one item: its output, or why it failed.
#[derive(Debug)]
pub struct Verdict {
    /// The output, when the item ran.
    pub output: Option<ItemOutput>,
    /// The error, panic or failed check, if any.
    pub error: Option<String>,
}

/// Runs item `index` of `inputs` and checks it. Errors and panics of
/// the layers and failed checks all end up in [`Verdict::error`]; none
/// of them stops the run.
pub fn execute(inputs: &Inputs, index: usize, tracer: &Tracer) -> Verdict {
    let _span = tracer.span("item");
    let item = &inputs.items[index];
    let output = catch_unwind(AssertUnwindSafe(|| item::run(inputs, item, tracer)))
        .map_err(|panic| {
            panic
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "panic".into())
        })
        .and_then(|result| result.map_err(|e| e.to_string()));
    judge(inputs, index, output, tracer)
}

/// Checks an item's output (under the `bench.check` span).
pub fn judge(
    inputs: &Inputs,
    index: usize,
    output: Result<ItemOutput, String>,
    tracer: &Tracer,
) -> Verdict {
    let _span = tracer.span("bench.check");
    match output {
        Ok(output) => Verdict {
            error: item::check(inputs.workload, &inputs.items[index], &output).err(),
            output: Some(output),
        },
        Err(error) => Verdict {
            output: None,
            error: Some(error),
        },
    }
}

/// Running totals of a pass.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Items attempted.
    pub attempted: u64,
    /// Items that failed (error, panic or check).
    pub failed: u64,
    /// Timed item latencies, seconds.
    pub latencies: Vec<f64>,
    /// The same latencies at the reference speed, seconds (untraced
    /// pass only).
    pub norm_latencies: Vec<f64>,
    /// Times of the reference kernel runs, seconds (untraced pass
    /// only).
    pub reference_s: Vec<f64>,
    /// Size class of each timed item, parallel to `latencies`.
    pub classes: Vec<&'static str>,
    /// Wall time of the pass, seconds.
    pub elapsed: f64,
    /// Wall time of each whole walk over the item list, seconds.
    pub walk_s: Vec<f64>,
    /// Work done by the timed items.
    pub counts: Counts,
    /// Quality of the first full walk.
    pub quality: Quality,
    /// The first few failure messages.
    pub failures: Vec<String>,
}

/// Means of the exact quality figures over the first full walk.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Quality {
    reduction: (f64, u64),
    gap: (f64, u64),
    circuit: (f64, u64),
}

impl Quality {
    fn add(&mut self, out: &ItemOutput) {
        let push = |(sum, n): &mut (f64, u64), v: f64| {
            *sum += v;
            *n += 1;
        };
        push(&mut self.reduction, out.reduction_pct());
        if let Some(gap) = out.anneal_gap_pct() {
            push(&mut self.gap, gap);
        }
        if let Some(red) = out.circuit_reduction_pct() {
            push(&mut self.circuit, red);
        }
    }

    fn mean((sum, n): (f64, u64)) -> f64 {
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }

    /// Mean reduction against the random mean, %.
    pub fn reduction_pct(&self) -> f64 {
        Self::mean(self.reduction)
    }

    /// Mean gap of the anneal over the proven optimum, % (0 without
    /// proofs).
    pub fn anneal_gap_pct(&self) -> f64 {
        Self::mean(self.gap)
    }

    /// Mean circuit-level reduction, % (0 without simulations).
    pub fn circuit_reduction_pct(&self) -> f64 {
        Self::mean(self.circuit)
    }
}

impl Tally {
    /// Records one verdict. `latency` is `None` for an item that ran
    /// outside the timed set (the untraced twin in a traced run);
    /// `first_walk` marks the items whose quality counts.
    pub fn record(
        &mut self,
        class: &'static str,
        verdict: &Verdict,
        latency: Option<Duration>,
        first_walk: bool,
    ) {
        self.attempted += 1;
        if let Some(error) = &verdict.error {
            self.failed += 1;
            if self.failures.len() < 5 {
                self.failures.push(format!("{class}: {error}"));
            }
        }
        if let Some(latency) = latency {
            self.latencies.push(latency.as_secs_f64());
            self.classes.push(class);
            if let Some(out) = &verdict.output {
                self.counts += out.counts;
            }
        }
        if let (true, None, Some(out)) = (first_walk, &verdict.error, &verdict.output) {
            self.quality.add(out);
        }
    }

    /// Failed items over attempted ones.
    pub fn failed_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// Checked items per second of item time, at wall speed.
    pub fn items_per_s(&self) -> f64 {
        self.rate(&self.latencies)
    }

    /// Checked items per second of item time, at the reference speed.
    pub fn norm_items_per_s(&self) -> f64 {
        self.rate(&self.norm_latencies)
    }

    fn rate(&self, latencies: &[f64]) -> f64 {
        let checked = (latencies.len() as u64).saturating_sub(self.failed) as f64;
        checked / latencies.iter().sum::<f64>()
    }
}

/// Items are timed against the reference kernel in stretches of at
/// least this much item time, seconds. The host's speed holds for
/// seconds at a time, so a stretch sees one speed, and the kernel runs
/// cost about 1 % of the pass.
pub const SEGMENT_S: f64 = 0.25;

/// Scales the latencies a pass records to the reference speed, one
/// stretch at a time.
struct Normaliser {
    reference: Reference,
    before: f64,
    from: usize,
    open_s: f64,
}

impl Normaliser {
    fn new(tally: &mut Tally) -> Self {
        let reference = Reference::new();
        let before = reference.time();
        tally.reference_s.push(before);
        Self {
            reference,
            before,
            from: 0,
            open_s: 0.0,
        }
    }

    /// Notes an item just recorded; closes the stretch once it is long
    /// enough.
    fn recorded(&mut self, tally: &mut Tally, latency: f64) {
        self.open_s += latency;
        if self.open_s >= SEGMENT_S {
            self.close(tally);
        }
    }

    /// Times the kernel and scales the open stretch's latencies by its
    /// times before and after the stretch.
    fn close(&mut self, tally: &mut Tally) {
        if self.from == tally.latencies.len() {
            return;
        }
        let after = self.reference.time();
        tally.reference_s.push(after);
        let scale = reference::scale(self.before, after);
        let stretch = &tally.latencies[self.from..];
        tally
            .norm_latencies
            .extend(stretch.iter().map(|l| l * scale));
        (self.before, self.from, self.open_s) = (after, tally.latencies.len(), 0.0);
    }
}

/// Runs `walk(w)` for w = 0, 1, … until the elapsed time is within
/// half a walk of `seconds` (at least one walk); returns the walks run
/// and the elapsed seconds. Whole walks keep every run's item mix the
/// same, so where the clock stops does not change the figures.
fn walks(seconds: f64, mut walk: impl FnMut(usize)) -> (Vec<f64>, f64) {
    let start = Instant::now();
    let mut walk_s = Vec::new();
    loop {
        let t0 = Instant::now();
        walk(walk_s.len());
        walk_s.push(t0.elapsed().as_secs_f64());
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed + walk_s[walk_s.len() - 1] / 2.0 >= seconds {
            return (walk_s, elapsed);
        }
    }
}

/// The untraced timed pass: whole walks over the item list for about
/// `seconds`, with every latency also stated at the reference speed.
pub fn timed(inputs: &Inputs, seconds: f64) -> Tally {
    let mut tally = Tally::default();
    let off = Tracer::off();
    let mut normaliser = Normaliser::new(&mut tally);
    let (walk_s, elapsed) = walks(seconds, |w| {
        for (index, item) in inputs.items.iter().enumerate() {
            let t0 = Instant::now();
            let verdict = execute(inputs, index, &off);
            let latency = t0.elapsed();
            tally.record(item.class, &verdict, Some(latency), w == 0);
            normaliser.recorded(&mut tally, latency.as_secs_f64());
        }
    });
    normaliser.close(&mut tally);
    tally.elapsed = elapsed;
    tally.walk_s = walk_s;
    tally
}

/// A traced pass and the untraced time of the same items.
#[derive(Debug, Clone)]
pub struct TracedPass {
    /// Totals of the traced runs; a walk's time covers both runs of
    /// every item.
    pub tally: Tally,
    /// Summed latency of the untraced twins, seconds.
    pub untraced_s: f64,
    /// Summed latency of the traced runs, seconds.
    pub traced_s: f64,
}

/// The traced pass: whole walks over the item list for about
/// `seconds`. Each item runs twice back to back, traced and untraced,
/// in alternating order, so the tracing overhead is measured on the
/// same items; the traced run is the one recorded.
pub fn traced(inputs: &Inputs, seconds: f64, tracer: &Tracer) -> TracedPass {
    let n = inputs.items.len();
    let off = Tracer::off();
    let mut tally = Tally::default();
    let (mut traced_s, mut untraced_s) = (0.0, 0.0);
    let (walk_s, elapsed) = walks(seconds, |w| {
        for (index, item) in inputs.items.iter().enumerate() {
            let k = w * n + index;
            let item_tracer = tracer.for_item(k);
            let run = |traced: bool| {
                let t0 = Instant::now();
                let verdict = execute(inputs, index, if traced { &item_tracer } else { &off });
                (verdict, t0.elapsed())
            };
            let ((traced, traced_t), (plain, plain_t)) = if k.is_multiple_of(2) {
                let plain = run(false);
                (run(true), plain)
            } else {
                let traced = run(true);
                (traced, run(false))
            };
            tally.record(item.class, &traced, Some(traced_t), w == 0);
            tally.record(item.class, &plain, None, false);
            traced_s += traced_t.as_secs_f64();
            untraced_s += plain_t.as_secs_f64();
        }
    });
    tally.elapsed = elapsed;
    tally.walk_s = walk_s;
    TracedPass {
        tally,
        untraced_s,
        traced_s,
    }
}

/// Nearest-rank percentile `q ∈ (0, 1]` of `values` (0 when empty).
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}
