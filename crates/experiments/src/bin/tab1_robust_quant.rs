//! **Tab. 1 / Tab. 8** — Quantization choice impacts robustness.
//!
//! Trains one model per quantization scheme along the paper's lattice
//! (global → per-layer → +asymmetric → +unsigned → +rounding = RQuant) and
//! reports clean Err plus RErr across bit error rates. Also reproduces the
//! 4-bit truncation-vs-rounding contrast (trained with clipping 0.1, as in
//! the paper's footnote).
//!
//! All seven models run as **one** durable sweep checkpointed to
//! `target/sweeps/tab1.jsonl` — interrupt and rerun to resume (`--fresh`
//! recomputes).

use bitrobust_core::TrainMethod;
use bitrobust_experiments::{rerr_row, zoo_sweep, DatasetKind, ExpOptions, Table};
use bitrobust_quant::QuantScheme;

fn main() {
    let opts = ExpOptions::from_args();
    let ps = [1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 1.5e-2];
    let clip = TrainMethod::Clipping { wmax: 0.1 };

    // The m = 8 lattice, then the 4-bit truncation-vs-rounding contrast.
    let rows: Vec<(&str, QuantScheme, TrainMethod)> = vec![
        ("Eq.(1), global", QuantScheme::eq1_global(8), TrainMethod::Normal),
        ("Eq.(1), per-layer (NORMAL)", QuantScheme::normal(8), TrainMethod::Normal),
        ("+asymmetric", QuantScheme::asymmetric_signed(8), TrainMethod::Normal),
        ("+unsigned", QuantScheme::asymmetric_unsigned(8), TrainMethod::Normal),
        ("+rounding (RQUANT)", QuantScheme::rquant(8), TrainMethod::Normal),
        ("4 bit w/o rounding", QuantScheme::asymmetric_unsigned(4), clip),
        ("4 bit w/ rounding", QuantScheme::rquant(4), clip),
    ];
    let specs: Vec<_> = rows
        .iter()
        .map(|&(_, scheme, method)| opts.zoo_spec(DatasetKind::Cifar10, Some(scheme), method))
        .collect();
    let (reports, results) = zoo_sweep("tab1", &opts, &specs, &ps);

    let mut header = vec!["scheme (m=8)".to_string(), "Err %".to_string()];
    header.extend(ps.iter().map(|p| format!("RErr p={:.2}%", 100.0 * p)));
    let render = |models: std::ops::Range<usize>| {
        let mut table = Table::new(&header);
        for mi in models {
            table.row_owned(rerr_row(rows[mi].0, reports[mi].clean_error, &results.robust(mi, 0)));
        }
        table.render()
    };
    println!("Tab. 1 / Tab. 8 (m = 8 bit):\n{}", render(0..5));
    println!("Tab. 1 (m = 4 bit, trained with CLIPPING 0.1):\n{}", render(5..rows.len()));
    println!(
        "Expected shape (paper): global catastrophic even at tiny p; per-layer fixes small p;"
    );
    println!("asymmetric+signed degrades at large p; unsigned + rounding (RQuant) is most robust.");
    bitrobust_experiments::finish_obs();
}
