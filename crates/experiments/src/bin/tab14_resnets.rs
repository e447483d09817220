//! **Tab. 14 / App. G.7** — Clipping and RandBET work on ResNets too.
//!
//! The three models run as one durable sweep checkpointed to
//! `target/sweeps/tab14.jsonl` (`--fresh` recomputes).

use bitrobust_core::{ArchKind, RandBetVariant, TrainMethod};
use bitrobust_experiments::{rerr_row, zoo_sweep, DatasetKind, ExpOptions, Table};
use bitrobust_quant::QuantScheme;

fn main() {
    let opts = ExpOptions::from_args();
    let scheme = QuantScheme::rquant(8);
    let ps = [5e-3, 1.5e-2];

    let rows: Vec<(&str, TrainMethod)> = vec![
        ("RQUANT", TrainMethod::Normal),
        ("CLIPPING 0.1", TrainMethod::Clipping { wmax: 0.1 }),
        (
            "RANDBET 0.1 p=1%",
            TrainMethod::RandBet { wmax: Some(0.1), p: 0.01, variant: RandBetVariant::Standard },
        ),
    ];
    let specs: Vec<_> = rows
        .iter()
        .map(|&(_, method)| {
            let mut spec = opts.zoo_spec(DatasetKind::Cifar10, Some(scheme), method);
            spec.arch = ArchKind::ResNetMini;
            spec
        })
        .collect();
    let (reports, results) = zoo_sweep("tab14", &opts, &specs, &ps);

    let mut header = vec!["model (resnet-mini)".to_string(), "Err %".to_string()];
    header.extend(ps.iter().map(|p| format!("RErr p={:.1}%", 100.0 * p)));
    let mut table = Table::new(&header);
    for (mi, (name, _)) in rows.iter().enumerate() {
        table.row_owned(rerr_row(*name, reports[mi].clean_error, &results.robust(mi, 0)));
    }
    println!("Tab. 14 (CIFAR10 stand-in, ResNet with GroupNorm):\n{}", table.render());
    println!("Expected shape (paper): same ordering as SimpleNet — RANDBET < CLIPPING < RQUANT.");
    bitrobust_experiments::finish_obs();
}
