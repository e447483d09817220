//! **Tab. 4 / Tab. 12** — Random bit error training (`RANDBET`).
//!
//! RErr of `RQUANT`, `CLIPPING 0.1`, and `RANDBET 0.1 (p=1%)` at `m = 8`
//! and `m = 4` bits, for `p ∈ {0.5%, 1%, 1.5%}`, plus the symmetric
//! quantization ablation (Tab. 12).
//!
//! All seven models run as **one** durable sweep campaign
//! ([`bitrobust_core::run_sweep`]): the zoo is warmed once, every
//! (model, rate, chip) cell fans out together, and completed cells land in
//! `target/sweeps/tab4.jsonl` — interrupt and rerun to resume
//! (`--fresh` recomputes).

use bitrobust_core::{RandBetVariant, TrainMethod};
use bitrobust_experiments::{rerr_row, zoo_sweep, DatasetKind, ExpOptions, Table};
use bitrobust_quant::QuantScheme;

fn main() {
    let opts = ExpOptions::from_args();
    let ps = [5e-3, 1e-2, 1.5e-2];

    let runs: Vec<(&str, QuantScheme, TrainMethod)> = vec![
        ("8bit RQUANT", QuantScheme::rquant(8), TrainMethod::Normal),
        ("8bit CLIPPING 0.1", QuantScheme::rquant(8), TrainMethod::Clipping { wmax: 0.1 }),
        (
            "8bit RANDBET 0.1 p=1%",
            QuantScheme::rquant(8),
            TrainMethod::RandBet { wmax: Some(0.1), p: 0.01, variant: RandBetVariant::Standard },
        ),
        ("4bit CLIPPING 0.1", QuantScheme::rquant(4), TrainMethod::Clipping { wmax: 0.1 }),
        (
            "4bit RANDBET 0.1 p=1%",
            QuantScheme::rquant(4),
            TrainMethod::RandBet { wmax: Some(0.1), p: 0.01, variant: RandBetVariant::Standard },
        ),
        // Tab. 12: symmetric quantization instead of RQuant.
        ("8bit sym CLIPPING 0.1", QuantScheme::symmetric(8), TrainMethod::Clipping { wmax: 0.1 }),
        (
            "8bit sym RANDBET 0.1 p=1%",
            QuantScheme::symmetric(8),
            TrainMethod::RandBet { wmax: Some(0.1), p: 0.01, variant: RandBetVariant::Standard },
        ),
    ];

    let specs: Vec<_> = runs
        .iter()
        .map(|&(_, scheme, method)| opts.zoo_spec(DatasetKind::Cifar10, Some(scheme), method))
        .collect();
    let (reports, results) = zoo_sweep("tab4", &opts, &specs, &ps);

    let mut header = vec!["model".to_string(), "Err %".to_string()];
    header.extend(ps.iter().map(|p| format!("RErr p={:.1}%", 100.0 * p)));
    let mut table = Table::new(&header);
    for (mi, (name, _, _)) in runs.iter().enumerate() {
        table.row_owned(rerr_row(*name, reports[mi].clean_error, &results.robust(mi, 0)));
    }
    println!("Tab. 4 / Tab. 12 (CIFAR10 stand-in):\n{}", table.render());
    println!("Expected shape (paper): RANDBET < CLIPPING < RQUANT in RErr at p >= 0.5%,");
    println!("more pronounced at 4 bit; symmetric quantization is slightly worse than RQuant.");
    bitrobust_experiments::finish_obs();
}
