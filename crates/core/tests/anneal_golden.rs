//! Golden pin for every annealing entry point.
//!
//! `anneal`, `anneal_with_objective`, `anneal_objective` and
//! `worst_case` are seeded searches whose results feed the committed
//! figures and tables, so their exact output is an interface: this test
//! pins `power.to_bits()` and the assignment of each entry point on
//! Gaussian 2×3, 3×3 and 4×4 problems and on three degenerate shapes —
//! a 1×5 row, a 2×3 with two pins and partial invertibility, and a 1×2
//! with one pin (a single free line, so only inversion flips move).
//! Each case runs at one and three worker threads, which must agree.
//!
//! A refactor of the search loop must leave this table untouched; a
//! deliberate change of the search (moves, schedule, seed streams)
//! regenerates it together with the committed results.

use tsv3d_core::optimize::{
    anneal, anneal_objective, anneal_with_objective, worst_case, AnnealOptions, OptimizeResult,
    PowerCrosstalkObjective, PowerObjective,
};
use tsv3d_core::{AssignmentProblem, CoreError};
use tsv3d_model::{Extractor, LinearCapModel, TsvArray, TsvGeometry};
use tsv3d_stats::gen::GaussianSource;
use tsv3d_stats::SwitchingStats;

fn gaussian(rows: usize, cols: usize, sigma: f64) -> AssignmentProblem {
    let n = rows * cols;
    let cap = LinearCapModel::fit(&Extractor::new(
        TsvArray::new(rows, cols, TsvGeometry::wide_2018()).expect("array"),
    ))
    .expect("fit");
    let stream = GaussianSource::new(n, sigma)
        .with_correlation(0.4)
        .generate(7, 3_000)
        .expect("stream");
    AssignmentProblem::new(SwitchingStats::from_stream(&stream), cap).expect("problem")
}

/// The six problems, by name.
fn problems() -> Vec<(&'static str, AssignmentProblem)> {
    vec![
        ("2x3", gaussian(2, 3, 16.0)),
        ("3x3", gaussian(3, 3, 128.0)),
        ("4x4", gaussian(4, 4, 16384.0)),
        ("1x5", gaussian(1, 5, 8.0)),
        (
            "2x3-pinned",
            gaussian(2, 3, 16.0)
                .with_pinned(vec![Some(4), None, None, None, None, Some(0)])
                .expect("pins")
                .with_invertible(vec![true, false, true, false, true, false])
                .expect("flags"),
        ),
        (
            "1x2-flip-only",
            gaussian(1, 2, 1.5)
                .with_pinned(vec![None, Some(0)])
                .expect("pins"),
        ),
    ]
}

type EntryPoint = fn(&AssignmentProblem, &AnnealOptions) -> Result<OptimizeResult, CoreError>;

/// The five entry points, by name.
fn entry_points() -> [(&'static str, EntryPoint); 5] {
    [
        ("anneal", anneal),
        ("objective-power", |p, o| {
            anneal_with_objective(p, &PowerObjective::new(p), o)
        }),
        ("objective-xtalk", |p, o| {
            anneal_with_objective(p, &PowerCrosstalkObjective::new(p, 0.5), o)
        }),
        ("closure", |p, o| {
            anneal_objective(p, |a| p.power(a) + 0.25 * p.crosstalk_activity(a), o)
        }),
        ("worst-case", worst_case),
    ]
}

/// One line per (entry point, problem, seed):
/// `<entry> <problem> <seed> <power bits> <assignment>`.
const GOLDEN: &[&str] = &[
    "anneal 2x3 0x1 0x3d433ab63bcf1ac0 3-,0-,5-,4-,2-,1-",
    "anneal 2x3 0x5eed 0x3d433ab63bcf1ac0 3-,0-,5-,4-,2-,1-",
    "objective-power 2x3 0x1 0x3d433ab63bcf1ac0 5-,2-,3-,4-,0-,1-",
    "objective-power 2x3 0x5eed 0x3d433ab63bcf1ac0 3-,0-,5-,4-,2-,1-",
    "objective-xtalk 2x3 0x1 0x3d441e5313e1370b 2-,5-,0-,1-,3-,4-",
    "objective-xtalk 2x3 0x5eed 0x3d441e5313e1370b 2-,5-,0-,1-,3-,4-",
    "closure 2x3 0x1 0x3d43ac84a7d828e5 5-,2-,3-,4-,0-,1-",
    "closure 2x3 0x5eed 0x3d43ac84a7d828e6 0-,3-,2-,1-,5-,4-",
    "worst-case 2x3 0x1 0x3d4489f227b34483 5,1,4,3,0,2",
    "worst-case 2x3 0x5eed 0x3d4489f227b34483 5,1,4,3,0,2",
    "anneal 3x3 0x1 0x3d4dc7b5a82d6447 0-,3-,1-,5-,2-,8-,4-,6-,7-",
    "anneal 3x3 0x5eed 0x3d4dc7b5a82d6448 8-,5-,7-,3-,6-,0-,4-,2-,1-",
    "objective-power 3x3 0x1 0x3d4dc7b5a82d6448 0-,1-,3-,7-,6-,8-,4-,2-,5-",
    "objective-power 3x3 0x5eed 0x3d4dc7b5a82d6448 8-,7-,5-,1-,2-,0-,4-,6-,3-",
    "objective-xtalk 3x3 0x1 0x3d4f4eabc67c6ecb 0,3,5,1,2,8,4,6,7",
    "objective-xtalk 3x3 0x5eed 0x3d4f4eabc67c6ecd 8,7,1,5,2,0,4,6,3",
    "closure 3x3 0x1 0x3d4e844e6178dc95 0-,1-,7-,3-,6-,8-,4-,2-,5-",
    "closure 3x3 0x5eed 0x3d4e844e6178dc96 8-,7-,1-,5-,2-,0-,4-,6-,3-",
    "worst-case 3x3 0x1 0x3d4f380bb85554e7 1,6,3,4,8,7,2,5,0",
    "worst-case 3x3 0x5eed 0x3d4f380bb85554e7 1,8,5,4,6,7,0,3,2",
    "anneal 4x4 0x1 0x3d5b1d4f62185afb 12-,9-,13-,4-,15-,8-,1-,2-,6-,5-,14-,10-,0-,11-,3-,7-",
    "anneal 4x4 0x5eed 0x3d5b247f964401dc 0-,5-,1-,13-,15-,4-,3-,2-,7-,9-,12-,8-,14-,11-,6-,10-",
    "objective-power 4x4 0x1 0x3d5b1d81dc4e13cf 0,3,15,12,4,2,7,11,14,6,8,1,13,5,10,9",
    "objective-power 4x4 0x5eed 0x3d5b1de322b54569 15,2,11,0,3,14,1,13,10,5,7,6,4,9,12,8",
    "objective-xtalk 4x4 0x1 0x3d5c91f97565cc3f 3-,13-,2-,1-,7-,12-,4-,15-,5-,8-,6-,9-,0-,11-,14-,10-",
    "objective-xtalk 4x4 0x5eed 0x3d5c8b231287a4eb 0-,12-,15-,3-,1-,8-,13-,14-,11-,9-,2-,4-,7-,5-,10-,6-",
    "closure 4x4 0x1 0x3d5bdc90bded62a4 0-,15-,11-,3-,4-,1-,12-,14-,10-,2-,7-,6-,8-,5-,13-,9-",
    "closure 4x4 0x5eed 0x3d5bd85990233b71 15-,13-,12-,4-,11-,14-,1-,3-,5-,9-,8-,10-,0-,7-,2-,6-",
    "worst-case 4x4 0x1 0x3d5c162d43e696dd 8,4,2,7,13,1,14,6,0,9,10,15,5,3,11,12",
    "worst-case 4x4 0x5eed 0x3d5c14f1893cc1d2 5,7,13,14,8,15,4,10,3,9,0,2,6,11,1,12",
    "anneal 1x5 0x1 0x3d3eb289b87b05ed 0,4,1,3,2",
    "anneal 1x5 0x5eed 0x3d3eb289b87b05ed 0,4,1,3,2",
    "objective-power 1x5 0x1 0x3d3eb289b87b05ee 4,0,3,1,2",
    "objective-power 1x5 0x5eed 0x3d3eb289b87b05ee 4,0,3,1,2",
    "objective-xtalk 1x5 0x1 0x3d3fe88c135d1bbb 0,4,1,3,2",
    "objective-xtalk 1x5 0x5eed 0x3d3fe88c135d1bbc 4,0,3,1,2",
    "closure 1x5 0x1 0x3d3f4d8ae5ec10d4 0,4,1,3,2",
    "closure 1x5 0x5eed 0x3d3f4d8ae5ec10d5 4,0,3,1,2",
    "worst-case 1x5 0x1 0x3d414a4d7cb7e125 1,2,3,4,0",
    "worst-case 1x5 0x5eed 0x3d414a4d7cb7e125 1,2,3,4,0",
    "anneal 2x3-pinned 0x1 0x3d43712a04d173b8 4,5,2,1,3,0",
    "anneal 2x3-pinned 0x5eed 0x3d43712a04d173b8 4,5,2,1,3,0",
    "objective-power 2x3-pinned 0x1 0x3d43712a04d173b8 4,5,2,1,3,0",
    "objective-power 2x3-pinned 0x5eed 0x3d43712a04d173b8 4,5,2,1,3,0",
    "objective-xtalk 2x3-pinned 0x1 0x3d445cf905dcd84c 4,5,2,1,3,0",
    "objective-xtalk 2x3-pinned 0x5eed 0x3d445cf905dcd84c 4,5,2,1,3,0",
    "closure 2x3-pinned 0x1 0x3d43e71185572602 4,5,2,1,3,0",
    "closure 2x3-pinned 0x5eed 0x3d43e71185572602 4,5,2,1,3,0",
    "worst-case 2x3-pinned 0x1 0x3d445ed12418cbb0 4,3,1,2,5,0",
    "worst-case 2x3-pinned 0x5eed 0x3d445ed12418cbb0 4,3,1,2,5,0",
    "anneal 1x2-flip-only 0x1 0x3d2509fd189e6353 1-,0-",
    "anneal 1x2-flip-only 0x5eed 0x3d2509fd189e6353 1-,0-",
    "objective-power 1x2-flip-only 0x1 0x3d2509fd189e6353 1-,0-",
    "objective-power 1x2-flip-only 0x5eed 0x3d2509fd189e6353 1-,0-",
    "objective-xtalk 1x2-flip-only 0x1 0x3d25a42c6c895b92 1-,0-",
    "objective-xtalk 1x2-flip-only 0x5eed 0x3d25a42c6c895b92 1-,0-",
    "closure 1x2-flip-only 0x1 0x3d255714c293df73 1-,0-",
    "closure 1x2-flip-only 0x5eed 0x3d255714c293df73 1-,0-",
    "worst-case 1x2-flip-only 0x1 0x3d25326c5e383362 1,0",
    "worst-case 1x2-flip-only 0x5eed 0x3d25326c5e383362 1,0",
];

#[test]
fn every_entry_point_matches_its_golden_result() {
    let mut actual = Vec::new();
    for (problem_name, problem) in problems() {
        for (entry_name, entry) in entry_points() {
            for seed in [1, 0x5EED] {
                let run = |threads| {
                    let options = AnnealOptions {
                        iterations: 3_000,
                        restarts: 3,
                        seed,
                        threads,
                    };
                    entry(&problem, &options).expect("non-empty budget")
                };
                let serial = run(1);
                let parallel = run(3);
                assert_eq!(
                    (serial.power.to_bits(), &serial.assignment),
                    (parallel.power.to_bits(), &parallel.assignment),
                    "{entry_name} {problem_name} seed {seed:#x}: threads 1 and 3 differ"
                );
                assert!(problem.is_feasible(&serial.assignment));
                actual.push(format!(
                    "{entry_name} {problem_name} {seed:#x} {:#018x} {}",
                    serial.power.to_bits(),
                    serial.assignment
                ));
            }
        }
    }
    for (got, want) in actual.iter().zip(GOLDEN) {
        assert_eq!(got, want);
    }
    assert_eq!(actual.len(), GOLDEN.len(), "actual table:\n{actual:#?}");
}
