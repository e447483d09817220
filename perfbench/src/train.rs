//! `randbet_train`: one epoch of RandBET training of SimpleNet on a
//! synth-cifar10 subset, data-parallel over the protocol shards.

use std::hint::black_box;

use bitrobust_biterror::UniformChip;
use bitrobust_core::{
    build, train, ArchKind, DataParallel, NormKind, QuantizedModel, RandBetVariant, TrainConfig,
    TrainMethod, TrainReport,
};
use bitrobust_data::{Dataset, SynthDataset};
use bitrobust_nn::{Mode, Model};
use bitrobust_quant::QuantScheme;
use rand::SeedableRng;

use crate::harness::{self, json_nums, median, span, timed, Outcome};
use crate::layers;

const MIN_REPS: usize = 3;
/// Training examples per epoch (the first ones of the synth-cifar10
/// training split).
const TRAIN_EXAMPLES: usize = 768;
/// Test examples for the end-of-training clean evaluation.
const TEST_EXAMPLES: usize = 200;
const BATCH: usize = 64;
/// RandBET's bit error rate.
const P: f64 = 0.01;
/// RandBET's weight clipping bound.
const WMAX: f32 = 0.1;

fn scheme() -> QuantScheme {
    QuantScheme::rquant(8)
}

fn config(seed: u64) -> TrainConfig {
    let mut cfg = TrainConfig::new(
        Some(scheme()),
        TrainMethod::RandBet { wmax: Some(WMAX), p: P, variant: RandBetVariant::Standard },
    );
    cfg.epochs = 1;
    cfg.batch_size = BATCH;
    // Inject from the first step: the warm-up latch would otherwise keep
    // a freshly built model on clean steps for the whole epoch.
    cfg.warmup_loss = f32::INFINITY;
    cfg.seed = seed;
    cfg.data_parallel = Some(DataParallel::protocol());
    cfg
}

fn subset(ds: &Dataset, n: usize) -> Dataset {
    let (x, y) = ds.batch_range(0, n.min(ds.len()));
    Dataset::new(ds.name(), x, y, ds.n_classes())
}

struct Setup {
    model: Model,
    train: Dataset,
    test: Dataset,
    data_s: f64,
}

fn setup(seed: u64) -> Setup {
    let ((train_full, test_full), data_s) = {
        let _s = span("data.generate");
        timed(|| SynthDataset::Cifar10.generate(seed))
    };
    let train = subset(&train_full, TRAIN_EXAMPLES);
    let test = subset(&test_full, TEST_EXAMPLES);
    let model = {
        let _s = span("nn.build");
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        build(
            ArchKind::SimpleNet,
            train.image_shape(),
            train.n_classes(),
            NormKind::Group,
            &mut rng,
        )
        .model
    };
    {
        let _s = span("nn.warmup");
        black_box(model.infer(&layers::first_batch(&train, BATCH).0, Mode::Eval));
    }
    Setup { model, train, test, data_s }
}

/// One epoch from the freshly built weights.
fn job(setup: &Setup, cfg: &TrainConfig) -> TrainReport {
    let mut model = setup.model.clone();
    train(&mut model, &setup.train, &setup.test, cfg)
}

fn check_reports(out: &mut Outcome, reports: &[&TrainReport]) {
    let first = reports[0];
    out.check(first.final_loss.is_finite(), "training loss is not finite");
    out.check(first.bit_errors_started_at == Some(0), "RandBET injection did not start at once");
    for (i, r) in reports.iter().enumerate().skip(1) {
        out.check(*r == first, format!("repetition {i} returned a different TrainReport"));
    }
}

/// The untraced run: `setup_s`, training examples per second and epoch
/// time, with bit-identical reports across repetitions.
pub fn measure(seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let (setup, setup_times) = harness::repeated_setup(|| setup(seed));
    let cfg = config(seed);
    let runs = harness::repeat_for(seconds, MIN_REPS, || job(&setup, &cfg));

    let epoch_s: Vec<f64> = runs.iter().map(|(_, dt)| *dt).collect();
    let rates: Vec<f64> = epoch_s.iter().map(|dt| setup.train.len() as f64 / dt).collect();
    out.metric("setup_s", median(&setup_times), "s");
    out.metric("throughput_per_s", median(&rates), "1/s");
    out.metric("latency_p50_ms", median(&epoch_s) * 1e3, "ms");
    check_reports(&mut out, &runs.iter().map(|(r, _)| r).collect::<Vec<_>>());

    out.detail("examples", format!("{}", setup.train.len()));
    out.detail("epoch_s", json_nums(&epoch_s));
    out.detail("setup_s", json_nums(&setup_times));
    out.detail("final_loss", harness::json_num(runs[0].0.final_loss as f64));
    out
}

/// The traced run: untraced and traced epochs (the tracing overhead), the
/// obs training spans, and the per-step RandBET perturbation timed from
/// outside.
pub fn trace(seed: u64) -> Outcome {
    let mut out = Outcome::default();
    harness::start_recording();
    {
        let _root = span("run");
        let setup = {
            let _s = span("bench.setup");
            setup(seed)
        };
        out.metric("data.generate_s", setup.data_s, "s");
        let cfg = config(seed);
        let (traced, untraced, snap) =
            layers::traced_job(&mut out, "train.epoch", || job(&setup, &cfg));
        layers::fold_obs(&mut out, &snap);

        let q0 = layers::quant(&mut out, &setup.model, scheme());
        let chips: Vec<(u64, f64)> = (0..8).map(|c| (seed.wrapping_add(c), P)).collect();
        layers::uniform_inject(&mut out, &q0, &chips);
        {
            // Alg. 1's per-step perturbation: quantize, inject a fresh
            // chip, write the perturbed weights back into a replica.
            let _s = span("train.randbet_perturb");
            let mut replica = setup.model.clone();
            let mut chip = seed;
            let perturb = harness::median_time(5, || {
                let mut q = QuantizedModel::quantize(&setup.model, scheme());
                q.inject(&UniformChip::new(chip).at_rate(P));
                q.write_to(&mut replica);
                chip += 1;
            });
            out.metric("train.randbet_perturb_s", perturb, "s");
        }
        let (x, y) = layers::first_batch(&setup.train, BATCH);
        layers::nn_infer(&mut out, &setup.model, &x);
        layers::nn_train_step(&mut out, &setup.model, &x, &y);
        let _s = span("check.reports");
        check_reports(&mut out, &[&untraced, &traced]);
    }
    layers::fold_self_times(&mut out, &harness::finish_recording());
    out
}
