//! The benchmark's own tests: determinism of inputs and quality, the
//! metric names against `BENCHMARK.json`, failure counting and the
//! scaling of latencies to the reference speed.

use tsv3d_bench::json::{self, JsonValue};
use tsv3d_perfbench::item;
use tsv3d_perfbench::metrics::{self, SetupWork};
use tsv3d_perfbench::pass::{self, Tally};
use tsv3d_perfbench::trace::Tracer;
use tsv3d_perfbench::workload::{setup, Inputs, Workload};

/// `inputs` cut down to its `keep` cheapest items, so a full walk stays
/// quick in a test build.
fn cheapest(mut inputs: Inputs, keep: usize) -> Inputs {
    inputs
        .items
        .sort_by_key(|item| item.stream.len() * item.array.n() * item.array.n());
    inputs.items.truncate(keep);
    inputs
}

#[test]
fn the_same_seed_gives_the_same_inputs() {
    for workload in Workload::ALL {
        let a = setup(workload, 7, &Tracer::off()).unwrap();
        let b = setup(workload, 7, &Tracer::off()).unwrap();
        let c = setup(workload, 8, &Tracer::off()).unwrap();
        assert_eq!(a.items.len(), b.items.len());
        for (x, y) in a.items.iter().zip(&b.items) {
            assert_eq!((x.class, x.array), (y.class, y.array));
            assert_eq!(x.stream, y.stream, "{} differs between set-ups", x.class);
        }
        assert!(
            a.items
                .iter()
                .zip(&c.items)
                .any(|(x, y)| x.stream != y.stream),
            "{}: another seed must give other streams",
            workload.name()
        );
    }
}

#[test]
fn the_same_seed_gives_the_same_quality() {
    for workload in Workload::ALL {
        let run = || {
            let inputs = cheapest(setup(workload, 3, &Tracer::off()).unwrap(), 3);
            let tally = pass::timed(&inputs, 1e-9);
            assert_eq!(tally.failed, 0, "{:?}", tally.failures);
            tally.quality
        };
        let (a, b) = (run(), run());
        for (what, x, y) in [
            ("reduction_pct", a.reduction_pct(), b.reduction_pct()),
            ("anneal_gap_pct", a.anneal_gap_pct(), b.anneal_gap_pct()),
            (
                "circuit_reduction_pct",
                a.circuit_reduction_pct(),
                b.circuit_reduction_pct(),
            ),
        ] {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{}: {what} {x} vs {y}",
                workload.name()
            );
        }
        assert!(a.reduction_pct() > 0.0, "{}: no reduction", workload.name());
        if workload == Workload::LinkSim {
            assert!(a.circuit_reduction_pct() != 0.0);
        }
    }
}

fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(JsonValue::as_array)
        .expect("section is a list")
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(JsonValue::as_str).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn every_emitted_metric_is_declared() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    let expected: Vec<(String, String)> = metrics::END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(end_to_end, expected);
    let expected: Vec<(String, String)> = metrics::per_layer()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(per_layer, expected);

    // What a run actually prints, untraced and traced.
    let inputs = cheapest(setup(Workload::DesignSweep, 1, &Tracer::off()).unwrap(), 2);
    let tally = pass::timed(&inputs, 1e-9);
    let printed = metrics::end_to_end(&tally, 0.1, 1.0);
    let names: Vec<_> = printed
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect();
    assert_eq!(names, end_to_end);

    let tracer = Tracer::in_memory();
    let run = pass::traced(&inputs, 1e-9, &tracer);
    let printed = metrics::layers(
        Workload::DesignSweep,
        &run,
        &tracer.text(),
        SetupWork::default(),
    );
    let names: Vec<_> = printed
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect();
    assert_eq!(names, per_layer);
    let line = metrics::result_line(true, 2, 0, &printed);
    let parsed = json::parse(&line).expect("the result line is JSON");
    assert_eq!(
        parsed
            .get("metrics")
            .and_then(JsonValue::as_object)
            .unwrap()
            .len(),
        per_layer.len()
    );
}

#[test]
fn a_corrupted_result_counts_as_failed() {
    for workload in Workload::ALL {
        let inputs = cheapest(setup(workload, 5, &Tracer::off()).unwrap(), 1);
        let item = &inputs.items[0];
        let good = item::run(&inputs, item, &Tracer::off()).unwrap();
        assert_eq!(item::check(workload, item, &good), Ok(()));

        let mut corruptions = Vec::new();
        let mut power = good.clone();
        power.best.power = f64::from_bits(power.best.power.to_bits() + 1);
        corruptions.push(("power off by one ulp", power));
        let mut perm = good.clone();
        perm.best.assignment.swap_lines(0, 1);
        corruptions.push(("assignment changed after pricing", perm));
        if workload == Workload::CertifySmall {
            let mut unproven = good.clone();
            unproven.proven = false;
            corruptions.push(("no proof", unproven));
        }

        let mut tally = Tally::default();
        let ok = pass::judge(&inputs, 0, Ok(good), &Tracer::off());
        tally.record(item.class, &ok, None, false);
        for (what, bad) in corruptions {
            let verdict = pass::judge(&inputs, 0, Ok(bad), &Tracer::off());
            assert!(
                verdict.error.is_some(),
                "{}: {what} passed the check",
                workload.name()
            );
            tally.record(item.class, &verdict, None, false);
        }
        let errored = pass::judge(&inputs, 0, Err("layer error".into()), &Tracer::off());
        tally.record(item.class, &errored, None, false);
        assert_eq!(tally.failed, tally.attempted - 1);
        assert!(tally.failed_ratio() > 0.5);
    }
}

#[test]
fn every_timed_latency_is_stated_at_the_reference_speed() {
    let inputs = cheapest(setup(Workload::LinkSim, 1, &Tracer::off()).unwrap(), 4);
    let tally = pass::timed(&inputs, 0.3);
    assert_eq!(tally.norm_latencies.len(), tally.latencies.len());
    assert!(tally.reference_s.len() >= 2);
    for (wall, norm) in tally.latencies.iter().zip(&tally.norm_latencies) {
        let scale = norm / wall;
        assert!(scale.is_finite() && scale > 0.0, "scale {scale}");
    }
    let norm = metrics::end_to_end(&tally, 0.1, 1.0);
    assert!(norm.iter().all(|m| m.value.is_finite() && m.value > 0.0));
}
