//! Image-build accounting on the sweep path.
//!
//! `run_sweep` builds every cell's perturbed image inside the campaign
//! engine, out of the caller's reach, so the exactly-once guarantee is
//! read from the `campaign.images_built` counter. Counters are
//! process-wide; this binary holds this one test so no other campaign
//! adds to them.

use bitrobust_core::{
    build, robust_eval_uniform_serial, run_sweep, ArchKind, ChipAxis, NormKind, SweepAxis,
    SweepModel, SweepOptions,
};
use bitrobust_data::SynthDataset;
use bitrobust_nn::Mode;
use bitrobust_obs::{ObsConfig, ObsLevel};
use bitrobust_quant::QuantScheme;
use rand::SeedableRng;

#[test]
fn axis_streaming_builds_each_image_exactly_once() {
    bitrobust_obs::init(&ObsConfig { level: ObsLevel::Counters, ..Default::default() });
    let mut rng = rand::rngs::StdRng::seed_from_u64(0);
    let model = build(ArchKind::Mlp, [1, 14, 14], 10, NormKind::Group, &mut rng).model;
    let (_, test) = SynthDataset::Mnist.generate(0);
    let schemes = [QuantScheme::rquant(8), QuantScheme::rquant(4)];
    let (rates, n_chips, seed_base) = (vec![0.001, 0.01, 0.05], 4, 1000);
    let models: Vec<SweepModel> =
        schemes.iter().map(|&s| SweepModel::new(s.key(), s, &model)).collect();
    let axes = [SweepAxis::new("uniform", ChipAxis::uniform(rates.clone(), n_chips, seed_base))];

    // One batch per cell makes the waves as wide as the pool, so images
    // build in parallel.
    let batch = test.len();
    let opts = SweepOptions { batch_size: batch, mode: Mode::Eval };
    let mut streamed = Vec::new();
    let grid = run_sweep(&models, &axes, &test, &opts, None, |cell, _| {
        streamed.push((cell.model, cell.group, cell.point))
    });

    let n_points = axes[0].axis.n_points();
    let n_cells = schemes.len() * n_points;
    let built = bitrobust_obs::snapshot().counter("campaign.images_built");
    assert_eq!(built, n_cells as u64, "every cell's image must be built exactly once");
    // Every slot was filled (the scheduler panics on a missing or doubly
    // set one), so `n_cells` builds means one per cell.
    let expected: Vec<(usize, usize, usize)> = (0..schemes.len())
        .flat_map(|m| (0..n_points).map(move |point| (m, point / n_chips, point % n_chips)))
        .collect();
    assert_eq!(streamed, expected, "every cell must stream exactly once, in order");
    for (mi, scheme) in schemes.iter().enumerate() {
        for (&p, cell) in rates.iter().zip(grid.robust(mi, 0)) {
            let serial = robust_eval_uniform_serial(
                &model,
                *scheme,
                &test,
                p,
                n_chips,
                seed_base,
                batch,
                Mode::Eval,
            );
            assert_eq!(cell, serial, "sweep cell differs from the serial reference");
        }
    }
}
