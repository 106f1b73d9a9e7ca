//! `BENCH_<case>.json` artifacts: the machine-readable output of one
//! measured case, plus the combined baseline file CI diffs against.
//!
//! Schema (`tsv3d-bench/v2`):
//!
//! ```json
//! {
//!   "schema": "tsv3d-bench/v2",
//!   "case": "anneal_quick_3x3",
//!   "area": "core",
//!   "iters": 15,
//!   "warmup_iters": 3,
//!   "wall_ns": {"median": 0, "p95": 0, "mean": 0.0, "stddev": 0.0,
//!               "min": 0, "max": 0},
//!   "samples_ns": [0, 0],
//!   "counters": {"anneal.moves": 8000},
//!   "mem": {"alloc_count": 0, "dealloc_count": 0, "realloc_count": 0,
//!           "alloc_bytes": 0, "median_iter_bytes": 0, "peak_bytes": 0},
//!   "git_rev": "3e0d804",
//!   "unix_time_s": 1754400000
//! }
//! ```
//!
//! v2 over v1: the optional `mem` object (absent when the measuring
//! binary lacks the counting allocator) and a `stddev` of `null` for
//! single-iteration runs. The parser stays **backward compatible with
//! v1**: `mem` is optional on the read side and the schema tag is not
//! used for dispatch, so v1 artifacts and baselines keep gating.
//!
//! The baseline file (`tsv3d-bench-baseline/v2`) carries one
//! `{case, median_ns, p95_ns, alloc_bytes_per_iter}` row per case
//! (the last field absent for cases without memory stats);
//! [`crate::gate`] accepts either format on the `--baseline` side.

use crate::harness::Measurement;
use crate::json::{self, JsonValue, ObjectWriter};
use std::time::{SystemTime, UNIX_EPOCH};

/// Schema tag of a per-case artifact.
pub const CASE_SCHEMA: &str = "tsv3d-bench/v2";
/// Schema tag of a combined baseline file.
pub const BASELINE_SCHEMA: &str = "tsv3d-bench-baseline/v2";

/// One measurement stamped with provenance, ready to serialise.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// The measurement itself.
    pub measurement: Measurement,
    /// Abbreviated git revision of the working tree (or `unknown`).
    pub git_rev: String,
    /// Seconds since the Unix epoch when the report was stamped.
    pub unix_time_s: u64,
}

impl BenchReport {
    /// Stamps a measurement with the current revision and time.
    pub fn stamp(measurement: Measurement) -> Self {
        Self {
            measurement,
            git_rev: git_rev(),
            unix_time_s: unix_time_s(),
        }
    }

    /// The artifact filename for this case (`BENCH_<case>.json`).
    pub fn filename(&self) -> String {
        format!("BENCH_{}.json", self.measurement.case)
    }

    /// Serialises the `tsv3d-bench/v2` JSON document.
    pub fn to_json(&self) -> String {
        let m = &self.measurement;
        let wall = {
            let mut w = ObjectWriter::new();
            w.u64("median", m.wall.median_ns)
                .u64("p95", m.wall.p95_ns)
                .f64("mean", m.wall.mean_ns)
                // `None` (single-iteration run) serialises as `null`.
                .f64("stddev", m.wall.stddev_ns.unwrap_or(f64::NAN))
                .u64("min", m.wall.min_ns)
                .u64("max", m.wall.max_ns);
            w.finish()
        };
        let samples = format!(
            "[{}]",
            m.samples_ns
                .iter()
                .map(u64::to_string)
                .collect::<Vec<_>>()
                .join(",")
        );
        let counters =
            json::object_of_u64s(m.counters.iter().map(|(k, v)| (k.as_str(), *v)));
        let mut w = ObjectWriter::new();
        w.str("schema", CASE_SCHEMA)
            .str("case", &m.case)
            .str("area", &m.area)
            .u64("iters", u64::from(m.options.iters))
            .u64("warmup_iters", u64::from(m.options.warmup_iters))
            .raw("wall_ns", &wall)
            .raw("samples_ns", &samples)
            .raw("counters", &counters);
        if let Some(mem) = &m.mem {
            let mut mw = ObjectWriter::new();
            mw.u64("alloc_count", mem.alloc_count)
                .u64("dealloc_count", mem.dealloc_count)
                .u64("realloc_count", mem.realloc_count)
                .u64("alloc_bytes", mem.alloc_bytes)
                .u64("median_iter_bytes", mem.median_iter_bytes)
                .u64("peak_bytes", mem.peak_bytes);
            w.raw("mem", &mw.finish());
        }
        w.str("git_rev", &self.git_rev)
            .u64("unix_time_s", self.unix_time_s);
        w.finish()
    }
}

/// The per-case row both artifact formats reduce to for comparisons.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseSummary {
    /// Case name.
    pub case: String,
    /// Median iteration wall time, ns.
    pub median_ns: f64,
    /// p95 iteration wall time, ns (absent in minimal baselines).
    pub p95_ns: Option<f64>,
    /// Median per-iteration allocated bytes — the `--gate-mem`
    /// comparand. Absent in v1 artifacts and for cases measured
    /// without a counting allocator.
    pub mem_bytes: Option<f64>,
}

/// Extracts a [`CaseSummary`] from a parsed artifact of either schema
/// version (per-case file, or one row of a baseline file).
pub fn case_summary(value: &JsonValue) -> Option<CaseSummary> {
    let case = value.get("case")?.as_str()?.to_string();
    if let Some(wall) = value.get("wall_ns") {
        // Per-case artifact: stats live under `wall_ns`.
        Some(CaseSummary {
            case,
            median_ns: wall.get("median")?.as_f64()?,
            p95_ns: wall.get("p95").and_then(JsonValue::as_f64),
            mem_bytes: value
                .get("mem")
                .and_then(|m| m.get("median_iter_bytes"))
                .and_then(JsonValue::as_f64),
        })
    } else {
        // Baseline row: flat fields.
        Some(CaseSummary {
            case,
            median_ns: value.get("median_ns")?.as_f64()?,
            p95_ns: value.get("p95_ns").and_then(JsonValue::as_f64),
            mem_bytes: value
                .get("alloc_bytes_per_iter")
                .and_then(JsonValue::as_f64),
        })
    }
}

/// Serialises the combined `tsv3d-bench-baseline/v2` document.
pub fn baseline_to_json(reports: &[BenchReport]) -> String {
    let rows: Vec<String> = reports
        .iter()
        .map(|r| {
            let mut w = ObjectWriter::new();
            w.str("case", &r.measurement.case)
                .u64("median_ns", r.measurement.wall.median_ns)
                .u64("p95_ns", r.measurement.wall.p95_ns);
            if let Some(mem) = &r.measurement.mem {
                w.u64("alloc_bytes_per_iter", mem.median_iter_bytes);
            }
            w.finish()
        })
        .collect();
    let mut w = ObjectWriter::new();
    w.str("schema", BASELINE_SCHEMA)
        .str("git_rev", reports.first().map_or("unknown", |r| r.git_rev.as_str()))
        .u64(
            "unix_time_s",
            reports.first().map_or_else(unix_time_s, |r| r.unix_time_s),
        )
        .raw("cases", &format!("[{}]", rows.join(",")));
    w.finish()
}

/// Parses any artifact (baseline file or single per-case file) into
/// its case rows.
///
/// # Errors
///
/// A human-readable message when the text is not valid JSON or matches
/// neither schema.
pub fn parse_summaries(text: &str) -> Result<Vec<CaseSummary>, String> {
    let value = json::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
    if let Some(rows) = value.get("cases").and_then(JsonValue::as_array) {
        let summaries: Vec<CaseSummary> =
            rows.iter().filter_map(case_summary).collect();
        if summaries.is_empty() {
            return Err("baseline file contains no readable case rows".to_string());
        }
        return Ok(summaries);
    }
    match case_summary(&value) {
        Some(s) => Ok(vec![s]),
        None => Err(
            "not a tsv3d-bench artifact (expected `cases` array or `case` + stats fields)"
                .to_string(),
        ),
    }
}

/// The abbreviated git revision of the working tree, with `-dirty` when
/// tracked files differ from it: the same resolver as `/metrics`
/// ([`tsv3d_telemetry::export::build_git_rev`]), so a scrape and a
/// ledger row name the same code.
pub fn git_rev() -> String {
    tsv3d_telemetry::export::build_git_rev().to_string()
}

fn unix_time_s() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{BenchOptions, MemStats, WallStats};

    fn fake_measurement(case: &str, median: u64) -> Measurement {
        let samples = vec![median; 3];
        Measurement {
            case: case.to_string(),
            area: "core".to_string(),
            options: BenchOptions {
                warmup_iters: 1,
                iters: 3,
            },
            wall: WallStats::from_samples(&samples).unwrap(),
            samples_ns: samples,
            counters: vec![("k".to_string(), 7)],
            mem: None,
        }
    }

    fn fake_measurement_with_mem(case: &str, median: u64, iter_bytes: u64) -> Measurement {
        let mut m = fake_measurement(case, median);
        m.mem = Some(MemStats {
            alloc_count: 12,
            dealloc_count: 11,
            realloc_count: 1,
            alloc_bytes: iter_bytes * 3,
            median_iter_bytes: iter_bytes,
            peak_bytes: iter_bytes * 2,
        });
        m
    }

    #[test]
    fn report_json_round_trips_through_the_parser() {
        let report = BenchReport {
            measurement: fake_measurement("demo_case", 1234),
            git_rev: "abc1234".to_string(),
            unix_time_s: 1_754_400_000,
        };
        assert_eq!(report.filename(), "BENCH_demo_case.json");
        let text = report.to_json();
        let value = json::parse(&text).unwrap();
        assert_eq!(
            value.get("schema").and_then(JsonValue::as_str),
            Some(CASE_SCHEMA)
        );
        assert_eq!(value.get("iters").and_then(JsonValue::as_u64), Some(3));
        assert_eq!(
            value.get("git_rev").and_then(JsonValue::as_str),
            Some("abc1234")
        );
        let summary = case_summary(&value).unwrap();
        assert_eq!(summary.case, "demo_case");
        assert_eq!(summary.median_ns, 1234.0);
        assert_eq!(summary.p95_ns, Some(1234.0));
        assert_eq!(
            value
                .get("counters")
                .and_then(|c| c.get("k"))
                .and_then(JsonValue::as_u64),
            Some(7)
        );
    }

    #[test]
    fn baseline_json_parses_back_to_rows() {
        let reports = vec![
            BenchReport {
                measurement: fake_measurement("a", 100),
                git_rev: "r1".to_string(),
                unix_time_s: 5,
            },
            BenchReport {
                measurement: fake_measurement("b", 200),
                git_rev: "r1".to_string(),
                unix_time_s: 5,
            },
        ];
        let text = baseline_to_json(&reports);
        let rows = parse_summaries(&text).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].case, "a");
        assert_eq!(rows[1].median_ns, 200.0);
    }

    #[test]
    fn single_case_artifact_parses_as_one_row() {
        let report = BenchReport {
            measurement: fake_measurement("solo", 50),
            git_rev: "r".to_string(),
            unix_time_s: 1,
        };
        let rows = parse_summaries(&report.to_json()).unwrap();
        assert_eq!(rows, vec![CaseSummary {
            case: "solo".to_string(),
            median_ns: 50.0,
            p95_ns: Some(50.0),
            mem_bytes: None,
        }]);
    }

    #[test]
    fn mem_stats_round_trip_through_artifact_and_baseline() {
        let report = BenchReport {
            measurement: fake_measurement_with_mem("memy", 80, 4096),
            git_rev: "r".to_string(),
            unix_time_s: 1,
        };
        let value = json::parse(&report.to_json()).unwrap();
        let mem = value.get("mem").expect("mem object present");
        assert_eq!(
            mem.get("alloc_count").and_then(JsonValue::as_u64),
            Some(12)
        );
        assert_eq!(
            mem.get("peak_bytes").and_then(JsonValue::as_u64),
            Some(8192)
        );
        let summary = case_summary(&value).unwrap();
        assert_eq!(summary.mem_bytes, Some(4096.0));

        let baseline = baseline_to_json(&[report]);
        let rows = parse_summaries(&baseline).unwrap();
        assert_eq!(rows[0].mem_bytes, Some(4096.0));
        assert_eq!(rows[0].median_ns, 80.0);
    }

    #[test]
    fn v1_artifacts_without_mem_still_parse() {
        // A hand-written v1 per-case artifact and baseline: no `mem`
        // object, no `alloc_bytes_per_iter`, numeric stddev.
        let case_v1 = r#"{"schema":"tsv3d-bench/v1","case":"old","area":"core",
            "iters":3,"warmup_iters":1,
            "wall_ns":{"median":100,"p95":120,"mean":105.0,"stddev":2.5,
                       "min":90,"max":120},
            "samples_ns":[100,100,120],"counters":{},
            "git_rev":"deadbee","unix_time_s":1}"#;
        let rows = parse_summaries(case_v1).unwrap();
        assert_eq!(rows[0].case, "old");
        assert_eq!(rows[0].median_ns, 100.0);
        assert_eq!(rows[0].mem_bytes, None);

        let baseline_v1 = r#"{"schema":"tsv3d-bench-baseline/v1","git_rev":"x",
            "unix_time_s":1,
            "cases":[{"case":"a","median_ns":10,"p95_ns":12}]}"#;
        let rows = parse_summaries(baseline_v1).unwrap();
        assert_eq!(rows[0].case, "a");
        assert_eq!(rows[0].mem_bytes, None);
    }

    #[test]
    fn single_iteration_stddev_serialises_as_null() {
        let samples = vec![42u64];
        let report = BenchReport {
            measurement: Measurement {
                case: "one".to_string(),
                area: "core".to_string(),
                options: BenchOptions {
                    warmup_iters: 0,
                    iters: 1,
                },
                wall: WallStats::from_samples(&samples).unwrap(),
                samples_ns: samples,
                counters: Vec::new(),
                mem: None,
            },
            git_rev: "r".to_string(),
            unix_time_s: 1,
        };
        let text = report.to_json();
        assert!(
            text.contains("\"stddev\":null"),
            "n=1 stddev must be null, got: {text}"
        );
        // And the document still parses into a summary.
        assert!(parse_summaries(&text).is_ok());
    }

    #[test]
    fn junk_input_is_rejected_with_a_message() {
        assert!(parse_summaries("not json").is_err());
        assert!(parse_summaries("{\"cases\":[]}").is_err());
        assert!(parse_summaries("{\"x\":1}").is_err());
    }
}
