//! **Fig. 7 / Fig. 11 / Tab. 18–21** — Summary sweeps: RErr vs bit error
//! rate on all three datasets and across precisions.
//!
//! For each dataset, trains the method stack (`NORMAL`, `RQUANT`,
//! `+CLIPPING`, `+RANDBET`) at 8 bit and the best low-precision models
//! (`m ∈ {4, 3, 2}`), then prints the per-rate RErr series the paper plots.
//!
//! Each dataset's whole method stack evaluates as **one** durable sweep
//! campaign ([`bitrobust_core::run_sweep`]) checkpointed to
//! `target/sweeps/fig7_<dataset>.jsonl` — interrupt and rerun to resume
//! (`--fresh` recomputes).

use bitrobust_core::{RandBetVariant, TrainMethod};
use bitrobust_experiments::{
    p_grid_cifar, p_grid_cifar100, p_grid_mnist, rerr_row, zoo_sweep, DatasetKind, ExpOptions,
    Table,
};
use bitrobust_quant::QuantScheme;

fn main() {
    let opts = ExpOptions::from_args();
    for kind in [DatasetKind::Cifar10, DatasetKind::Cifar100, DatasetKind::Mnist] {
        run_dataset(kind, &opts);
    }
    println!("Expected shape (paper): per dataset, NORMAL < RQUANT < +CLIPPING < +RANDBET in");
    println!("robustness; tolerable rates are far higher on MNIST than CIFAR100; low precision");
    println!("costs clean Err but RANDBET keeps RErr from exploding.");
    bitrobust_experiments::finish_obs();
}

fn run_dataset(kind: DatasetKind, opts: &ExpOptions) {
    let ps = match kind {
        DatasetKind::Cifar10 => p_grid_cifar(),
        DatasetKind::Cifar100 => p_grid_cifar100(),
        DatasetKind::Mnist => p_grid_mnist(),
    };
    // RandBET training rate scales with what the dataset tolerates.
    let (p_train, p_train_low) = match kind {
        DatasetKind::Mnist => (0.1, 0.05),
        DatasetKind::Cifar10 => (0.01, 0.005),
        DatasetKind::Cifar100 => (0.005, 0.001),
    };

    let mut runs: Vec<(String, QuantScheme, TrainMethod)> = vec![
        ("NORMAL 8bit".into(), QuantScheme::normal(8), TrainMethod::Normal),
        ("RQUANT 8bit".into(), QuantScheme::rquant(8), TrainMethod::Normal),
        ("CLIPPING 0.1 8bit".into(), QuantScheme::rquant(8), TrainMethod::Clipping { wmax: 0.1 }),
        ("CLIPPING 0.05 8bit".into(), QuantScheme::rquant(8), TrainMethod::Clipping { wmax: 0.05 }),
        (
            format!("RANDBET 0.1 p={:.2}% 8bit", 100.0 * p_train_low),
            QuantScheme::rquant(8),
            TrainMethod::RandBet {
                wmax: Some(0.1),
                p: p_train_low,
                variant: RandBetVariant::Standard,
            },
        ),
        (
            format!("RANDBET 0.05 p={:.2}% 8bit", 100.0 * p_train),
            QuantScheme::rquant(8),
            TrainMethod::RandBet {
                wmax: Some(0.05),
                p: p_train,
                variant: RandBetVariant::Standard,
            },
        ),
    ];
    // Low-precision best models (skip for CIFAR100 to bound runtime; the
    // paper's Fig. 11 low-precision panels cover CIFAR10/MNIST).
    if kind != DatasetKind::Cifar100 {
        for m in [4u8, 3, 2] {
            runs.push((
                format!("RANDBET 0.05 p={:.2}% {m}bit", 100.0 * p_train),
                QuantScheme::rquant(m),
                TrainMethod::RandBet {
                    wmax: Some(0.05),
                    p: p_train,
                    variant: RandBetVariant::Standard,
                },
            ));
        }
    }

    // Warm the zoo for the whole method stack (parallel across models, or
    // sequential with full inner parallelism when the stack is small), then
    // evaluate every model's rate grid as one durable sweep campaign.
    let specs: Vec<_> =
        runs.iter().map(|&(_, scheme, method)| opts.zoo_spec(kind, Some(scheme), method)).collect();
    let (reports, results) = zoo_sweep(&format!("fig7_{}", kind.name()), opts, &specs, &ps);

    let mut header = vec!["model".to_string(), "Err %".to_string()];
    header.extend(ps.iter().map(|p| format!("p={:.3}%", 100.0 * p)));
    let mut table = Table::new(&header);
    for (mi, (name, _, _)) in runs.into_iter().enumerate() {
        table.row_owned(rerr_row(name, reports[mi].clean_error, &results.robust(mi, 0)));
    }
    println!("Fig. 7 — {}:\n{}", kind.name(), table.render());
}
