//! The four workloads: which streams each item carries, on which array,
//! and the set-up that generates them from the seed.
//!
//! Every input is generated here, before the timed pass, by the same
//! `tsv3d_stats::gen` sources and `tsv3d_codec` coders the figures use.
//! The item list of one seed is fixed: its classes, their counts and
//! every stream are a pure function of the seed, and the list is
//! shuffled (also from the seed) so that any prefix of it holds a
//! representative mix of size classes.

use crate::trace::Tracer;
use std::collections::BTreeMap;
use tsv3d_codec::{Correlator, CouplingInvert, GrayCodec};
use tsv3d_core::optimize::AnnealOptions;
use tsv3d_experiments::common;
use tsv3d_model::{Extractor, LinearCapModel, TsvArray, TsvGeometry};
use tsv3d_stats::gen::{
    all_sensors_mux, GaussianSource, ImageSensor, MemsSensor, SensorKind, SequentialSource,
    UniformSource,
};
use tsv3d_stats::BitStream;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Long sensor-style streams; statistics estimation dominates.
    LongTrace,
    /// Short streams over many arrays; the two annealers dominate.
    DesignSweep,
    /// Small arrays solved to a proof; branch and bound dominates.
    CertifySmall,
    /// Coded line streams simulated at circuit level; the transient
    /// simulation dominates.
    LinkSim,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::LongTrace,
        Workload::DesignSweep,
        Workload::CertifySmall,
        Workload::LinkSim,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LongTrace => "long_trace",
            Workload::DesignSweep => "design_sweep",
            Workload::CertifySmall => "certify_small",
            Workload::LinkSim => "link_sim",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The layer predicted to dominate item time, and the share (%) it
    /// is predicted to hold at least.
    pub fn dominant(self) -> (&'static [&'static str], f64) {
        match self {
            Workload::LongTrace => (&["stats.switching", "stats.windowed"], 80.0),
            Workload::DesignSweep => (&["core.anneal", "core.anneal_xtalk"], 50.0),
            Workload::CertifySmall => (&["core.bnb"], 95.0),
            Workload::LinkSim => (&["circuit.simulate"], 50.0),
        }
    }

    /// The annealing budget of the workload's items.
    pub fn anneal_options(self) -> AnnealOptions {
        match self {
            Workload::DesignSweep => common::anneal_options(),
            _ => common::anneal_options_quick(),
        }
    }
}

/// The two TSV geometries of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Geometry {
    /// `r = 2 µm, d = 8 µm` (Figs. 2–5).
    Wide,
    /// ITRS-2018 minimum, `r = 1 µm, d = 4 µm` (Fig. 6).
    Min,
}

impl Geometry {
    /// The model crate's geometry.
    pub fn tsv(self) -> TsvGeometry {
        match self {
            Geometry::Wide => TsvGeometry::wide_2018(),
            Geometry::Min => TsvGeometry::itrs_2018_min(),
        }
    }
}

/// A TSV array: its shape and geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct ArrayKey {
    /// Rows.
    pub rows: usize,
    /// Columns.
    pub cols: usize,
    /// Geometry.
    pub geometry: Geometry,
}

impl ArrayKey {
    const fn new(rows: usize, cols: usize, geometry: Geometry) -> Self {
        Self {
            rows,
            cols,
            geometry,
        }
    }

    /// Number of TSVs.
    pub fn n(&self) -> usize {
        self.rows * self.cols
    }
}

/// How an item's stream is generated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Source {
    /// MEMS axes sent one after another (`9 × samples` words, 16 b).
    MemsSeq { samples: usize },
    /// All MEMS axes multiplexed, optionally Gray coded (`9 × samples`
    /// words, 16 b).
    MemsMux { samples: usize, gray: bool },
    /// Bayer RGB multiplexed, optionally through the per-channel
    /// correlator, plus one redundant line (`3 × w × h` words, 9 b).
    RgbMux {
        width: usize,
        height: usize,
        correlator: bool,
    },
    /// Gaussian words; `sigma` is a share of full scale.
    Gauss {
        width: usize,
        sigma: f64,
        rho: f64,
        len: usize,
    },
    /// A counter with random branches.
    Sequential {
        width: usize,
        branch: f64,
        len: usize,
    },
    /// Uniform random words.
    Uniform { width: usize, len: usize },
    /// Random 7 b through coupling-invert plus a rarely set flag line
    /// (`4 × samples` words, 9 b) — Fig. 6's "CI Random 7 b".
    CouplingInvert { samples: usize },
}

/// One unit of work: a stream taken to a checked assignment.
#[derive(Debug, Clone)]
pub struct Item {
    /// Size class (for the per-class latency table).
    pub class: &'static str,
    /// The array the stream is carried on.
    pub array: ArrayKey,
    /// The generated (and coded) line stream.
    pub stream: BitStream,
    /// Payload bits per cycle, for Fig. 6's scaling to 32 b
    /// (`link_sim` only).
    pub effective_bits: f64,
}

/// A fitted array: the geometry and its linear `C(p)` model.
#[derive(Debug, Clone)]
pub struct FittedArray {
    /// The array.
    pub array: TsvArray,
    /// Its fitted linear capacitance model.
    pub model: LinearCapModel,
}

/// Everything set-up produces for one seed.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The workload.
    pub workload: Workload,
    /// The item list, in the order the timed pass runs it.
    pub items: Vec<Item>,
    /// One fitted model per distinct array.
    pub arrays: BTreeMap<ArrayKey, FittedArray>,
    /// Words the generators produced.
    pub gen_words: u64,
    /// Words the coders produced.
    pub encode_words: u64,
}

impl Inputs {
    /// The fitted array an item runs on.
    pub fn array(&self, item: &Item) -> &FittedArray {
        &self.arrays[&item.array]
    }
}

/// One size class of a workload: `count` items per walk, each with its
/// own stream. `source(i, n)` gives the generator of the workload's
/// `i`-th item on an array of `n` TSVs. Only stream contents and the item order depend on the seed;
/// lengths and generator parameters do not, so neither does an item's
/// cost.
struct Class {
    name: &'static str,
    count: usize,
    array: ArrayKey,
    effective_bits: f64,
    source: fn(usize, usize) -> Source,
}

/// Points of Fig. 3's grid (σ as a share of full scale, lag-1 ρ).
const GAUSS_GRID: [(f64, f64); 8] = [
    (1000.0 / 32768.0, 0.0),
    (4000.0 / 32768.0, -0.6),
    (250.0 / 32768.0, 0.3),
    (16000.0 / 32768.0, -0.3),
    (2000.0 / 32768.0, 0.6),
    (8000.0 / 32768.0, 0.0),
    (1000.0 / 32768.0, -0.3),
    (4000.0 / 32768.0, 0.6),
];
/// Branch probabilities of the sequential source (Fig. 2's range).
const BRANCHES: [f64; 5] = [0.01, 0.05, 0.1, 0.2, 0.5];

/// A Gaussian source at grid point `i`.
fn gauss(i: usize, width: usize, len: usize) -> Source {
    let (sigma, rho) = GAUSS_GRID[i % GAUSS_GRID.len()];
    Source::Gauss {
        width,
        sigma,
        rho,
        len,
    }
}

fn sequential(i: usize, width: usize, len: usize) -> Source {
    Source::Sequential {
        width,
        branch: BRANCHES[i % BRANCHES.len()],
        len,
    }
}

const W4: ArrayKey = ArrayKey::new(4, 4, Geometry::Wide);
const M4: ArrayKey = ArrayKey::new(4, 4, Geometry::Min);
const W6: ArrayKey = ArrayKey::new(6, 6, Geometry::Wide);
const M6: ArrayKey = ArrayKey::new(6, 6, Geometry::Min);
const W8: ArrayKey = ArrayKey::new(8, 8, Geometry::Wide);
const M8: ArrayKey = ArrayKey::new(8, 8, Geometry::Min);
const W3: ArrayKey = ArrayKey::new(3, 3, Geometry::Wide);
const M3: ArrayKey = ArrayKey::new(3, 3, Geometry::Min);
const W23: ArrayKey = ArrayKey::new(2, 3, Geometry::Wide);
const W24: ArrayKey = ArrayKey::new(2, 4, Geometry::Wide);

fn classes(workload: Workload) -> Vec<Class> {
    let class = |name, count, array, source| Class {
        name,
        count,
        array,
        effective_bits: 0.0,
        source,
    };
    match workload {
        Workload::LongTrace => vec![
            class("mems_seq_4x4", 4, W4, |_, _| Source::MemsSeq {
                samples: 4_000,
            }),
            class("mems_mux_4x4", 4, W4, |_, _| Source::MemsMux {
                samples: 4_000,
                gray: false,
            }),
            class("mems_mux_gray_4x4", 4, W4, |_, _| Source::MemsMux {
                samples: 4_000,
                gray: true,
            }),
            class("rgb_corr_red_3x3", 4, W3, |_, _| Source::RgbMux {
                width: 128,
                height: 96,
                correlator: true,
            }),
            class("gauss36_6x6", 4, W6, |i, _| gauss(i, 36, 100_000)),
        ],
        Workload::DesignSweep => [W4, M4, W6, M6, W8, M8]
            .into_iter()
            .flat_map(|array| {
                let name = match array.n() {
                    16 => "sweep_4x4",
                    36 => "sweep_6x6",
                    _ => "sweep_8x8",
                };
                [
                    class(name, 2, array, |i, n| gauss(i, n, 2_000)),
                    class(name, 1, array, |i, n| sequential(i, n, 2_000)),
                    class(name, 1, array, |_, n| Source::Uniform {
                        width: n,
                        len: 2_000,
                    }),
                ]
            })
            .collect(),
        Workload::CertifySmall => vec![
            class("certify_2x3", 32, W23, |i, n| gauss(i, n, 1_000)),
            class("certify_2x3", 16, W23, |i, n| sequential(i, n, 1_000)),
            class("certify_2x3", 16, W23, |_, n| Source::Uniform {
                width: n,
                len: 1_000,
            }),
            // One grid point for every 2×4 item: its proofs cost about
            // the same on every seed (±4 % over eight seeds), while across
            // the grid (and for uniform or sequential streams) they range
            // from 0.3 s to 2.7 s and node counts vary by up to 2×
            // between seeds.
            class("certify_2x4", 16, W24, |_, n| gauss(4, n, 1_000)),
        ],
        Workload::LinkSim => {
            let link = |name, count, array, effective_bits, source| Class {
                effective_bits,
                ..class(name, count, array, source)
            };
            // The 4×4 items (540 cycles) are the slowest short ones and
            // a fifth of the items, so p90 falls inside their class; the
            // 3×3 short items (300–864 cycles) hold p50. The two long
            // items (>= 10k cycles) are 2 of 38, above the p90 rank, and
            // about 40 % of a walk's time.
            vec![
                link("mux_gray_4x4", 8, M4, 16.0, |_, _| Source::MemsMux {
                    samples: 60,
                    gray: true,
                }),
                link("rgb_red_3x3", 8, M3, 8.0, |i, _| Source::RgbMux {
                    width: [16, 16, 24, 24][i % 4],
                    height: [8, 12, 8, 12][i % 4],
                    correlator: false,
                }),
                link("rgb_corr_3x3", 8, M3, 8.0, |i, _| Source::RgbMux {
                    width: [16, 16, 24, 24][i % 4],
                    height: [8, 12, 8, 12][i % 4],
                    correlator: true,
                }),
                link("ci_random_3x3", 12, M3, 7.0, |i, _| {
                    Source::CouplingInvert {
                        samples: 75 + 25 * (i % 6),
                    }
                }),
                link("long_ci_random_3x3", 1, M3, 7.0, |_, _| {
                    Source::CouplingInvert { samples: 2_500 }
                }),
                link("long_rgb_corr_3x3", 1, M3, 8.0, |_, _| Source::RgbMux {
                    width: 64,
                    height: 56,
                    correlator: true,
                }),
            ]
        }
    }
}

/// Generates a workload's inputs from `seed`: every item's stream and
/// the fitted model of every distinct array. Generation, coding and
/// fitting report `stats.gen`, `codec.encode` and `model.fit` spans on
/// `tracer`.
///
/// # Errors
///
/// Propagates generator, coder and extraction errors (none for the
/// built-in classes).
pub fn setup(
    workload: Workload,
    seed: u64,
    tracer: &Tracer,
) -> Result<Inputs, Box<dyn std::error::Error>> {
    let _span = tracer.span("setup");
    let mut rng = SplitMix::new(seed ^ 0x7E57_BE4C);
    let mut items = Vec::new();
    let mut arrays = BTreeMap::new();
    let (mut gen_words, mut encode_words) = (0, 0);
    for class in classes(workload) {
        if let std::collections::btree_map::Entry::Vacant(slot) = arrays.entry(class.array) {
            let _fit = tracer.span("model.fit");
            let array = TsvArray::new(
                class.array.rows,
                class.array.cols,
                class.array.geometry.tsv(),
            )?;
            let model = LinearCapModel::fit(&Extractor::new(array.clone()))?;
            slot.insert(FittedArray { array, model });
        }
        for _ in 0..class.count {
            let source = (class.source)(items.len(), class.array.n());
            let stream = generate(
                source,
                rng.next_u64(),
                tracer,
                &mut gen_words,
                &mut encode_words,
            )?;
            if stream.width() != class.array.n() {
                return Err(format!(
                    "class {} makes {}-bit words for a {}-TSV array",
                    class.name,
                    stream.width(),
                    class.array.n()
                )
                .into());
            }
            items.push(Item {
                class: class.name,
                array: class.array,
                stream,
                effective_bits: class.effective_bits,
            });
        }
    }
    rng.shuffle(&mut items);
    Ok(Inputs {
        workload,
        items,
        arrays,
        gen_words,
        encode_words,
    })
}

fn generate(
    source: Source,
    seed: u64,
    tracer: &Tracer,
    gen_words: &mut u64,
    encode_words: &mut u64,
) -> Result<BitStream, Box<dyn std::error::Error>> {
    let raw = {
        let _span = tracer.span("stats.gen");
        let raw = match source {
            Source::MemsSeq { samples } => {
                tsv3d_experiments::phases::sensor_seq_stream(samples, seed)
            }
            Source::MemsMux { samples, .. } => {
                let sensors = [
                    SensorKind::Magnetometer,
                    SensorKind::Accelerometer,
                    SensorKind::Gyroscope,
                ]
                .map(|kind| MemsSensor::new(kind).with_samples(samples));
                all_sensors_mux(&sensors, seed)?
            }
            Source::RgbMux { width, height, .. } => {
                ImageSensor::new(width, height).rgb_mux_stream(seed)?
            }
            Source::Gauss {
                width,
                sigma,
                rho,
                len,
            } => {
                let full_scale = (1u64 << (width - 1)) as f64;
                GaussianSource::new(width, sigma * full_scale)
                    .with_correlation(rho)
                    .generate(seed, len)?
            }
            Source::Sequential { width, branch, len } => {
                SequentialSource::new(width, branch)?.generate(seed, len)?
            }
            Source::Uniform { width, len } => UniformSource::new(width)?.generate(seed, len)?,
            Source::CouplingInvert { samples } => {
                UniformSource::new(7)?.generate(seed, samples * 4)?
            }
        };
        *gen_words += raw.len() as u64;
        raw
    };
    let coded = {
        let _span = tracer.span("codec.encode");
        let coded = match source {
            Source::MemsMux { gray: true, .. } => GrayCodec::new(16)?.encode(&raw)?,
            Source::RgbMux {
                correlator: true, ..
            } => Correlator::new(8, 4)?
                .encode(&raw)?
                .with_stable_lines(&[false])?,
            Source::RgbMux { .. } => raw.with_stable_lines(&[false])?,
            Source::CouplingInvert { .. } => {
                let coded = CouplingInvert::new(7)?.encode(&raw)?;
                // The rarely set control flag of Fig. 6: asserted once
                // every 10 000 cycles.
                let words = coded
                    .iter()
                    .enumerate()
                    .map(|(t, w)| w | u64::from(t % 10_000 == 9_999) << 8)
                    .collect();
                BitStream::from_words(9, words)?
            }
            _ => return Ok(raw),
        };
        *encode_words += coded.len() as u64;
        coded
    };
    Ok(coded)
}

/// SplitMix64: the benchmark's own deterministic generator for item
/// seeds, class parameters and the item order.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}
