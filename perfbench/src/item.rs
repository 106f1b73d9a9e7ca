//! One item: a stream taken through the layers to a checked assignment.
//!
//! The item is composed from the same public calls `Flow::analyze` and
//! `fig6::point` make, one layer call at a time, with a span around
//! each so the traced run can attribute the item's time:
//!
//! | span | call |
//! |---|---|
//! | `stats.switching` | `SwitchingStats::from_stream` |
//! | `stats.windowed` | `SwitchingStats::from_stream_windowed` |
//! | `core.problem` | `AssignmentProblem::new` |
//! | `core.anneal` | `optimize::anneal` |
//! | `core.anneal_xtalk` | `optimize::anneal_with_objective` over `P + λ·X` |
//! | `core.bnb` | `optimize::branch_and_bound` |
//! | `core.baseline` | Spiral, Sawtooth, `random_mean`, attribution |
//! | `model.extract` | `Extractor::extract` at the line probabilities |
//! | `circuit.link` | `TsvLink::new` |
//! | `circuit.simulate` | `TsvLink::simulate` |
//! | `experiments.assign_stream` | `common::assign_stream` |
//! | `bench.check` | [`check`] |
//!
//! Every call the program offers with telemetry gets a disabled handle:
//! tracing inside the program stays off.

use crate::trace::Tracer;
use crate::workload::{Inputs, Item, Workload};
use tsv3d_circuit::{DriverModel, EnergyReport, TsvLink};
use tsv3d_core::attribution::{ClassTotals, PowerBreakdown};
use tsv3d_core::optimize::{self, BnbOptions, Objective, OptimizeResult, PowerCrosstalkObjective};
use tsv3d_core::{systematic, AssignmentProblem, SignedPerm};
use tsv3d_experiments::{common, fig6};
use tsv3d_model::{Extractor, TsvArray, TsvRcNetlist};
use tsv3d_stats::{BitStream, SwitchingStats};

/// Crosstalk weight of `design_sweep`'s `P + λ·X` anneal (the middle of
/// the Pareto study's range).
pub const XTALK_LAMBDA: f64 = 0.5;

/// Random assignments averaged for the baseline (as in `Flow::analyze`).
pub const RANDOM_SAMPLES: usize = 300;

/// Windows per stream of `long_trace`'s windowed estimate (the nine
/// axis blocks of the sensor-sequential stream).
pub const WINDOWS: usize = 9;

/// Work an item did, counted at the layer boundaries.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counts {
    /// `from_stream` calls.
    pub stats_calls: u64,
    /// Words those calls read.
    pub stats_words: u64,
    /// Windows `from_stream_windowed` produced.
    pub windows: u64,
    /// `optimize::anneal` calls.
    pub anneal_calls: u64,
    /// Moves those calls made (iterations × restarts).
    pub anneal_moves: u64,
    /// `P + λ·X` anneal calls.
    pub xtalk_calls: u64,
    /// Moves those calls made.
    pub xtalk_moves: u64,
    /// Branch-and-bound calls.
    pub bnb_calls: u64,
    /// Search-tree nodes they expanded.
    pub bnb_nodes: u64,
    /// Calls that ended with a proof.
    pub bnb_proven: u64,
    /// Proofs whose optimum the anneal had already found.
    pub anneal_optimal: u64,
    /// Capacitance extractions.
    pub extract_calls: u64,
    /// Cycles simulated at circuit level.
    pub sim_cycles: u64,
}

impl std::ops::AddAssign for Counts {
    fn add_assign(&mut self, o: Counts) {
        self.stats_calls += o.stats_calls;
        self.stats_words += o.stats_words;
        self.windows += o.windows;
        self.anneal_calls += o.anneal_calls;
        self.anneal_moves += o.anneal_moves;
        self.xtalk_calls += o.xtalk_calls;
        self.xtalk_moves += o.xtalk_moves;
        self.bnb_calls += o.bnb_calls;
        self.bnb_nodes += o.bnb_nodes;
        self.bnb_proven += o.bnb_proven;
        self.anneal_optimal += o.anneal_optimal;
        self.extract_calls += o.extract_calls;
        self.sim_cycles += o.sim_cycles;
    }
}

/// The circuit-level half of a `link_sim` item.
#[derive(Debug, Clone)]
pub struct CircuitOutput {
    /// Simulation of the stream on its natural lines.
    pub plain: EnergyReport,
    /// Simulation of the assigned stream.
    pub assigned: EnergyReport,
    /// `plain`, scaled to 32 b per cycle, mW (Fig. 6's bar).
    pub plain_mw: f64,
    /// `assigned`, scaled the same way, mW.
    pub assigned_mw: f64,
}

/// Everything an item produces.
#[derive(Debug, Clone)]
pub struct ItemOutput {
    /// The assignment problem of the item's stream.
    pub problem: AssignmentProblem,
    /// The power anneal's result.
    pub anneal: OptimizeResult,
    /// The item's answer: the anneal's result, or the proven optimum on
    /// `certify_small`.
    pub best: OptimizeResult,
    /// Whether branch and bound proved `best` optimal.
    pub proven: bool,
    /// The `P + λ·X` anneal's result (`design_sweep`).
    pub xtalk: Option<OptimizeResult>,
    /// Spiral and Sawtooth powers (`long_trace`, `design_sweep`).
    pub systematic: Option<(f64, f64)>,
    /// Mean power over random assignments.
    pub random_power: f64,
    /// Per-class attribution of `best` (`design_sweep`).
    pub attribution: Option<ClassTotals>,
    /// Windows of the windowed estimate (`long_trace`).
    pub windows: usize,
    /// Circuit-level results (`link_sim`).
    pub circuit: Option<CircuitOutput>,
    /// Work done.
    pub counts: Counts,
}

impl ItemOutput {
    /// Reduction of the answer against the random mean, %.
    pub fn reduction_pct(&self) -> f64 {
        common::reduction_pct(self.best.power, self.random_power)
    }

    /// Gap of the anneal over the proven optimum, % (`certify_small`).
    pub fn anneal_gap_pct(&self) -> Option<f64> {
        (self.counts.bnb_calls > 0)
            .then(|| (self.anneal.power - self.best.power) / self.best.power * 100.0)
    }

    /// Circuit-level reduction, assigned against plain, % (`link_sim`).
    pub fn circuit_reduction_pct(&self) -> Option<f64> {
        self.circuit
            .as_ref()
            .map(|c| common::reduction_pct(c.assigned_mw, c.plain_mw))
    }
}

/// Runs item `item` of `inputs` through its workload's layers.
///
/// # Errors
///
/// Propagates errors of the layer calls.
pub fn run(
    inputs: &Inputs,
    item: &Item,
    tracer: &Tracer,
) -> Result<ItemOutput, Box<dyn std::error::Error>> {
    let workload = inputs.workload;
    let fitted = inputs.array(item);
    let stream = &item.stream;
    let mut counts = Counts::default();

    let stats = {
        let _span = tracer.span("stats.switching");
        SwitchingStats::from_stream(stream)
    };
    counts.stats_calls += 1;
    counts.stats_words += stream.len() as u64;

    let mut windows = 0;
    if workload == Workload::LongTrace {
        let _span = tracer.span("stats.windowed");
        windows = SwitchingStats::from_stream_windowed(stream, window_len(stream)).len();
        counts.windows += windows as u64;
    }

    let plain_link = if workload == Workload::LinkSim {
        Some(link_for(&fitted.array, &stats, tracer, &mut counts)?)
    } else {
        None
    };

    let problem = {
        let _span = tracer.span("core.problem");
        AssignmentProblem::new(stats, fitted.model.clone())?
    };

    let options = workload.anneal_options();
    let anneal = {
        let _span = tracer.span("core.anneal");
        optimize::anneal(&problem, &options)?
    };
    counts.anneal_calls += 1;
    counts.anneal_moves += (options.iterations * options.restarts) as u64;

    let xtalk = if workload == Workload::DesignSweep {
        let _span = tracer.span("core.anneal_xtalk");
        let objective = PowerCrosstalkObjective::new(&problem, XTALK_LAMBDA);
        let result = optimize::anneal_with_objective(&problem, &objective, &options)?;
        counts.xtalk_calls += 1;
        counts.xtalk_moves += (options.iterations * options.restarts) as u64;
        Some(result)
    } else {
        None
    };

    let (best, proven) = if workload == Workload::CertifySmall {
        let outcome = {
            let _span = tracer.span("core.bnb");
            optimize::branch_and_bound(&problem, &BnbOptions::default())?
        };
        counts.bnb_calls += 1;
        counts.bnb_nodes += outcome.nodes;
        counts.bnb_proven += u64::from(outcome.proven_optimal);
        counts.anneal_optimal += u64::from(
            outcome.proven_optimal && anneal.power <= outcome.result.power * (1.0 + 1e-12),
        );
        (outcome.result, outcome.proven_optimal)
    } else {
        (anneal.clone(), false)
    };

    let (systematic, random_power, attribution) = {
        let _span = tracer.span("core.baseline");
        let systematic =
            matches!(workload, Workload::LongTrace | Workload::DesignSweep).then(|| {
                (
                    problem.power(&systematic::spiral(&problem)),
                    problem.power(&systematic::sawtooth(&problem)),
                )
            });
        let random_power = optimize::random_mean(&problem, RANDOM_SAMPLES, options.seed)?;
        let attribution = (workload == Workload::DesignSweep).then(|| {
            PowerBreakdown::compute(&problem, &best.assignment)
                .class_totals(item.array.rows, item.array.cols)
        });
        (systematic, random_power, attribution)
    };

    let circuit = match plain_link {
        Some(plain_link) => {
            let assigned_stream = {
                let _span = tracer.span("experiments.assign_stream");
                common::assign_stream(stream, &best.assignment)
            };
            let assigned_stats = {
                let _span = tracer.span("stats.switching");
                SwitchingStats::from_stream(&assigned_stream)
            };
            counts.stats_calls += 1;
            counts.stats_words += assigned_stream.len() as u64;
            let assigned_link = link_for(&fitted.array, &assigned_stats, tracer, &mut counts)?;
            let plain = simulate(&plain_link, stream, tracer, &mut counts)?;
            let assigned = simulate(&assigned_link, &assigned_stream, tracer, &mut counts)?;
            let scale = |r: &EnergyReport| r.power_scaled_to(item.effective_bits, 32.0) * 1e3;
            Some(CircuitOutput {
                plain_mw: scale(&plain),
                assigned_mw: scale(&assigned),
                plain,
                assigned,
            })
        }
        None => None,
    };

    Ok(ItemOutput {
        problem,
        anneal,
        best,
        proven,
        xtalk,
        systematic,
        random_power,
        attribution,
        windows,
        circuit,
        counts,
    })
}

/// Window length of the windowed estimate: the stream in [`WINDOWS`]
/// equal blocks.
pub fn window_len(stream: &BitStream) -> usize {
    stream.len().div_ceil(WINDOWS).max(2)
}

/// Extracts the capacitances at the stream's line probabilities and
/// builds the link, as `fig6::simulate_power_mw` does.
fn link_for(
    array: &TsvArray,
    stats: &SwitchingStats,
    tracer: &Tracer,
    counts: &mut Counts,
) -> Result<TsvLink, Box<dyn std::error::Error>> {
    let cap = {
        let _span = tracer.span("model.extract");
        Extractor::new(array.clone()).extract(stats.bit_probabilities())?
    };
    counts.extract_calls += 1;
    let _span = tracer.span("circuit.link");
    Ok(TsvLink::new(
        TsvRcNetlist::from_extraction(array, cap),
        DriverModel::ptm_22nm_strength6(),
    )?)
}

fn simulate(
    link: &TsvLink,
    stream: &BitStream,
    tracer: &Tracer,
    counts: &mut Counts,
) -> Result<EnergyReport, Box<dyn std::error::Error>> {
    let _span = tracer.span("circuit.simulate");
    let report = link.simulate(stream, fig6::CLOCK)?;
    counts.sim_cycles += stream.len() as u64;
    Ok(report)
}

/// Checks an item's output. The error names the first check that
/// failed.
///
/// - every returned assignment is a signed permutation of the array's
///   size that the problem accepts;
/// - `problem.power` of the answer recomputes its power bit for bit
///   (and the `P + λ·X` objective its value);
/// - on `certify_small`, branch and bound proved its answer and the
///   answer is no worse than the anneal's, to 1e-12;
/// - simulated energies are finite and positive, and each report covers
///   every cycle of its stream;
/// - the windowed estimate has one window per block.
///
/// # Errors
///
/// A description of the failed check.
pub fn check(workload: Workload, item: &Item, out: &ItemOutput) -> Result<(), String> {
    let n = item.array.n();
    for (what, result) in [("answer", &out.best), ("anneal", &out.anneal)]
        .into_iter()
        .chain(out.xtalk.as_ref().map(|r| ("xtalk anneal", r)))
    {
        valid_signed_perm(&result.assignment, n).map_err(|e| format!("{what}: {e}"))?;
        if !out.problem.is_feasible(&result.assignment) {
            return Err(format!("{what}: assignment is infeasible"));
        }
    }
    for (what, result) in [("answer", &out.best), ("anneal", &out.anneal)] {
        let recomputed = out.problem.power(&result.assignment);
        if recomputed.to_bits() != result.power.to_bits() {
            return Err(format!(
                "{what}: power {:e} recomputes to {recomputed:e}",
                result.power
            ));
        }
    }
    if let Some(xtalk) = &out.xtalk {
        let recomputed =
            PowerCrosstalkObjective::new(&out.problem, XTALK_LAMBDA).eval(&xtalk.assignment);
        if recomputed.to_bits() != xtalk.power.to_bits() {
            return Err(format!(
                "xtalk anneal: objective {:e} recomputes to {recomputed:e}",
                xtalk.power
            ));
        }
    }
    if !(out.random_power.is_finite() && out.random_power > 0.0) {
        return Err(format!(
            "random mean {} is not a positive power",
            out.random_power
        ));
    }
    if workload == Workload::CertifySmall {
        if !out.proven {
            return Err("branch and bound ended without a proof".into());
        }
        if out.best.power > out.anneal.power * (1.0 + 1e-12) {
            return Err(format!(
                "proven optimum {:e} is worse than the anneal's {:e}",
                out.best.power, out.anneal.power
            ));
        }
    }
    if workload == Workload::LongTrace
        && out.windows != item.stream.len().div_ceil(window_len(&item.stream))
    {
        return Err(format!(
            "{} windows for a {}-word stream",
            out.windows,
            item.stream.len()
        ));
    }
    if workload == Workload::LinkSim {
        let circuit = out.circuit.as_ref().ok_or("no circuit-level result")?;
        for (what, report) in [("plain", &circuit.plain), ("assigned", &circuit.assigned)] {
            for energy in [
                report.dynamic_energy(),
                report.leakage_energy(),
                report.total_energy(),
            ] {
                if !(energy.is_finite() && energy > 0.0) {
                    return Err(format!(
                        "{what}: energy {energy} is not finite and positive"
                    ));
                }
            }
            if report.cycles() != item.stream.len() {
                return Err(format!(
                    "{what}: {} cycles simulated for a {}-cycle stream",
                    report.cycles(),
                    item.stream.len()
                ));
            }
        }
    }
    Ok(())
}

/// A signed permutation of size `n`: every bit on its own line, and the
/// line-to-bit map its inverse.
fn valid_signed_perm(a: &SignedPerm, n: usize) -> Result<(), String> {
    if a.n() != n
        || a.lines().len() != n
        || a.inversions().len() != n
        || a.bits_of_lines().len() != n
    {
        return Err(format!("assignment has size {} for {n} TSVs", a.n()));
    }
    let mut seen = vec![false; n];
    for bit in 0..n {
        let line = a.line_of_bit(bit);
        if line >= n || seen[line] || a.bit_of_line(line) != bit {
            return Err(format!(
                "bit {bit} maps to line {line}, which is not a permutation"
            ));
        }
        seen[line] = true;
    }
    Ok(())
}
