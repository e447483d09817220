//! **Tab. 13** — RandBET variants.
//!
//! Standard RandBET (Alg. 1) vs the curricular schedule (ramping the
//! training bit error rate) and the alternating two-update scheme. The
//! paper finds both variants slightly *worse* than the standard recipe.
//!
//! The three models run as one durable sweep checkpointed to
//! `target/sweeps/tab13.jsonl` (`--fresh` recomputes).

use bitrobust_core::{RandBetVariant, TrainMethod};
use bitrobust_experiments::{rerr_row, zoo_sweep, DatasetKind, ExpOptions, Table};
use bitrobust_quant::QuantScheme;

fn main() {
    let opts = ExpOptions::from_args();
    let scheme = QuantScheme::rquant(8);
    let ps = [1e-3, 1e-2];

    let rows = [
        ("RANDBET p=1% (standard)", RandBetVariant::Standard),
        ("Curricular RANDBET p=1%", RandBetVariant::Curricular),
        ("Alternating RANDBET p=1%", RandBetVariant::Alternating),
    ];
    let specs: Vec<_> = rows
        .iter()
        .map(|&(_, variant)| {
            let method = TrainMethod::RandBet { wmax: Some(0.1), p: 0.01, variant };
            opts.zoo_spec(DatasetKind::Cifar10, Some(scheme), method)
        })
        .collect();
    let (reports, results) = zoo_sweep("tab13", &opts, &specs, &ps);

    let mut header = vec!["model".to_string(), "Err %".to_string()];
    header.extend(ps.iter().map(|p| format!("RErr p={:.1}%", 100.0 * p)));
    let mut table = Table::new(&header);
    for (mi, (name, _)) in rows.iter().enumerate() {
        table.row_owned(rerr_row(*name, reports[mi].clean_error, &results.robust(mi, 0)));
    }
    println!("Tab. 13 (CIFAR10 stand-in, m = 8 bit, wmax = 0.1):\n{}", table.render());
    println!("Expected shape (paper): both variants perform slightly worse than standard RANDBET.");
    bitrobust_experiments::finish_obs();
}
