//! Proof that the benchmark times the real pipeline: one item per run
//! is recomputed through the library's own entry points, outside the
//! timed pass, and must match the layer-by-layer result bit for bit.

use crate::item;
use crate::trace::Tracer;
use crate::workload::{Inputs, Workload};
use tsv3d_experiments::flow::Flow;
use tsv3d_experiments::{common, fig6};

/// Index of the item the cross-check recomputes: the cheapest one.
pub fn pick(inputs: &Inputs) -> usize {
    (0..inputs.items.len())
        .min_by_key(|&k| {
            let item = &inputs.items[k];
            (item.stream.len() * item.array.n() * item.array.n(), k)
        })
        .expect("a workload has items")
}

/// Recomputes item `index` through `Flow::analyze` (and, on
/// `link_sim`, `fig6::simulate_power_mw`) and compares.
///
/// # Errors
///
/// The first quantity that differs.
pub fn cross_check(inputs: &Inputs, index: usize) -> Result<(), String> {
    let item = &inputs.items[index];
    let ours = item::run(inputs, item, &Tracer::off()).map_err(|e| e.to_string())?;
    let flow = Flow::new(item.array.rows, item.array.cols, item.array.geometry.tsv())
        .map_err(|e| e.to_string())?
        .with_anneal_options(inputs.workload.anneal_options());
    let report = flow.analyze(&item.stream).map_err(|e| e.to_string())?;
    let same = |what: &str, a: f64, b: f64| {
        if a.to_bits() == b.to_bits() {
            Ok(())
        } else {
            Err(format!("{what}: benchmark {a:e} vs library {b:e}"))
        }
    };
    if report.optimal != ours.anneal.assignment {
        return Err("anneal assignment differs from Flow::analyze".into());
    }
    same("anneal power", ours.anneal.power, report.optimal_power)?;
    same("random mean", ours.random_power, report.random_power)?;
    if let Some((spiral, sawtooth)) = ours.systematic {
        same("spiral power", spiral, report.spiral_power)?;
        same("sawtooth power", sawtooth, report.sawtooth_power)?;
    }
    if let Some(attribution) = ours.attribution {
        if attribution != report.attribution {
            return Err("attribution differs from Flow::analyze".into());
        }
    }
    if inputs.workload == Workload::LinkSim {
        let circuit = ours.circuit.as_ref().ok_or("no circuit-level result")?;
        let (rows, cols) = (item.array.rows, item.array.cols);
        let plain = fig6::simulate_power_mw(&item.stream, rows, cols, item.effective_bits);
        let assigned_stream = common::assign_stream(&item.stream, &ours.best.assignment);
        let assigned = fig6::simulate_power_mw(&assigned_stream, rows, cols, item.effective_bits);
        same("plain circuit power", circuit.plain_mw, plain)?;
        same("assigned circuit power", circuit.assigned_mw, assigned)?;
    }
    Ok(())
}
