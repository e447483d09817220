//! **Tab. 2 / Tab. 9** — Weight clipping improves robustness; label
//! smoothing destroys the effect.
//!
//! Trains `CLIPPING` models across `wmax` with and without label smoothing
//! and reports clean Err, clean confidence, confidence under `p = 1%` bit
//! errors, and RErr at `p ∈ {0.1%, 1%}`.
//!
//! All eight models run as one durable sweep checkpointed to
//! `target/sweeps/tab2.jsonl` (`--fresh` recomputes).

use bitrobust_core::TrainMethod;
use bitrobust_experiments::{pct, pct_pm, zoo_sweep, DatasetKind, ExpOptions, Table};
use bitrobust_quant::QuantScheme;

fn main() {
    let opts = ExpOptions::from_args();
    let scheme = QuantScheme::rquant(8);
    let ps = [1e-3, 1e-2];

    let rows: Vec<(&str, TrainMethod, Option<f32>)> = vec![
        ("RQUANT", TrainMethod::Normal, None),
        ("CLIPPING 0.15", TrainMethod::Clipping { wmax: 0.15 }, None),
        ("CLIPPING 0.1", TrainMethod::Clipping { wmax: 0.1 }, None),
        ("CLIPPING 0.05", TrainMethod::Clipping { wmax: 0.05 }, None),
        ("CLIPPING 0.025", TrainMethod::Clipping { wmax: 0.025 }, None),
        ("CLIPPING 0.15 +LS", TrainMethod::Clipping { wmax: 0.15 }, Some(0.9)),
        ("CLIPPING 0.1 +LS", TrainMethod::Clipping { wmax: 0.1 }, Some(0.9)),
        ("CLIPPING 0.05 +LS", TrainMethod::Clipping { wmax: 0.05 }, Some(0.9)),
    ];
    let specs: Vec<_> = rows
        .iter()
        .map(|&(_, method, ls)| {
            let mut spec = opts.zoo_spec(DatasetKind::Cifar10, Some(scheme), method);
            spec.label_smoothing = ls;
            spec
        })
        .collect();
    let (reports, results) = zoo_sweep("tab2", &opts, &specs, &ps);

    let mut table =
        Table::new(&["model", "Err %", "Conf %", "Conf p=1%", "RErr p=0.1%", "RErr p=1%"]);
    for (mi, (name, _, _)) in rows.iter().enumerate() {
        let sweep = results.robust(mi, 0);
        let (small, large) = (&sweep[0], &sweep[1]);
        table.row_owned(vec![
            name.to_string(),
            pct(reports[mi].clean_error as f64),
            pct(reports[mi].clean_confidence as f64),
            pct(large.mean_confidence as f64),
            pct_pm(small.mean_error as f64, small.std_error as f64),
            pct_pm(large.mean_error as f64, large.std_error as f64),
        ]);
    }
    println!("Tab. 2 (CIFAR10 stand-in, m = 8 bit):\n{}", table.render());
    println!("Expected shape (paper): smaller wmax -> higher Err but much lower RErr;");
    println!("label smoothing keeps Err but loses the robustness gain (confidence pressure is");
    println!("what makes clipping work).");
    bitrobust_experiments::finish_obs();
}
