//! **Extension (design-choice ablations)** — Which parts of Alg. 1 matter?
//!
//! 1. *Clean + perturbed vs perturbed-only loss*: the paper keeps the clean
//!    term in Eq. (2) "to avoid an increase in (clean) test error and
//!    stabilize training". The `PerturbedOnly` ablation drops it.
//! 2. *Warm-up*: bit error injection normally starts once the clean loss
//!    falls below 1.75 ("introducing bit errors right from the start may
//!    prevent the DNN from converging"); the no-warm-up ablation injects
//!    from step one.
//!
//! The three models run as one durable sweep checkpointed to
//! `target/sweeps/exp_ablations.jsonl` (`--fresh` recomputes).

use bitrobust_core::{RandBetVariant, SweepAxis, SweepModel, TrainMethod};
use bitrobust_experiments::{
    dataset_pair, durable_sweep, protocol_axis, rerr_row, sweep_models, warm_zoo, DatasetKind,
    ExpOptions, Table,
};
use bitrobust_quant::QuantScheme;

fn main() {
    let opts = ExpOptions::from_args();
    let (train_ds, test_ds) = dataset_pair(DatasetKind::Cifar10, opts.seed);
    let scheme = QuantScheme::rquant(8);
    let ps = [1e-3, 1e-2];
    let p_train = 0.01;
    let randbet = |variant| {
        let method = TrainMethod::RandBet { wmax: Some(0.1), p: p_train, variant };
        opts.zoo_spec(DatasetKind::Cifar10, Some(scheme), method)
    };

    let zoo_rows = [
        ("RANDBET (Alg. 1)", RandBetVariant::Standard),
        ("perturbed-only loss", RandBetVariant::PerturbedOnly),
    ];
    let specs: Vec<_> = zoo_rows.iter().map(|&(_, variant)| randbet(variant)).collect();
    eprintln!("warming {} cifar10 zoo models...", specs.len());
    let warmed = warm_zoo(&specs, opts.seed, opts.no_cache);

    // The no-warm-up ablation: the zoo key does not encode the warm-up
    // override, so train it here, bypassing the cache.
    let spec = randbet(RandBetVariant::Standard);
    let (model, report) = {
        let mut cfg = bitrobust_core::TrainConfig::new(spec.scheme, spec.method);
        cfg.epochs = spec.epochs;
        cfg.warmup_loss = f32::INFINITY;
        cfg.augment = spec.dataset.augment();
        cfg.seed = spec.seed;
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(spec.seed ^ 0xA2C4);
        let built = bitrobust_core::build(
            spec.arch,
            spec.dataset.image_shape(),
            spec.dataset.n_classes(),
            spec.norm,
            &mut rng,
        );
        let mut model = built.model;
        let report = bitrobust_core::train(&mut model, &train_ds, &test_ds, &cfg);
        (model, report)
    };

    let mut models = sweep_models(&specs, &warmed);
    models.push(SweepModel::new(format!("{}-nowarmup", spec.key()), scheme, &model));
    let axes = [SweepAxis::new("uniform", protocol_axis(&ps, opts.chips))];
    let results = durable_sweep("exp_ablations", &opts, &models, &axes, &test_ds);

    let mut header = vec!["model".to_string(), "Err %".to_string(), "inject from".to_string()];
    header.extend(ps.iter().map(|p| format!("RErr p={:.1}%", 100.0 * p)));
    let mut table = Table::new(&header);
    let names = zoo_rows.iter().map(|&(name, _)| name).chain(["no warm-up"]);
    let reports = warmed.iter().map(|(_, report)| report).chain([&report]);
    for (mi, (name, report)) in names.zip(reports).enumerate() {
        let started =
            report.bit_errors_started_at.map_or("never".to_string(), |e| format!("epoch {e}"));
        let mut row = rerr_row(name, report.clean_error, &results.robust(mi, 0));
        row.insert(2, started);
        table.row_owned(row);
    }
    println!(
        "RandBET design-choice ablations (CIFAR10 stand-in, wmax=0.1, p=1%):\n{}",
        table.render()
    );
    println!("Expected shape: dropping the clean loss term costs clean Err; skipping the");
    println!("warm-up slows or destabilizes convergence.");
    bitrobust_experiments::finish_obs();
}
