//! End-to-end robust evaluation cost: quantize → inject → dequantize →
//! forward over a test set, per simulated chip — comparing the serial
//! reference path against the parallel fault-injection campaign engine,
//! plus clean (single-pattern) evaluation through the same engine,
//! single-model vs data-parallel RandBET training, and per-model
//! single-model sweeps vs the orchestrated multi-model sweep
//! (`run_sweep`).
//!
//! Running this bench writes a machine-readable `BENCH_robust_eval.json`
//! at the workspace root with serial vs parallel wall-clock and the
//! resulting speedups. CI uploads the file as an artifact and **fails the
//! build if the campaign path or data-parallel training regresses to
//! slower than serial** on multi-core runners (`speedup < 1.0`), with a
//! graded floor for the orchestrated sweep (its baseline is already
//! parallel).

use bitrobust_bench::{best_of_alternating, write_bench_json};
use bitrobust_biterror::UniformChip;
use bitrobust_core::{
    build, evaluate, evaluate_serial, run_sweep, train, ArchKind, Campaign, ChipAxis, DataParallel,
    NormKind, QuantizedModel, RandBetVariant, RobustEval, SweepAxis, SweepModel, SweepOptions,
    TrainConfig, TrainMethod, TrainReport,
};
use bitrobust_data::{AugmentConfig, Dataset, SynthDataset};
use bitrobust_nn::{Mode, Model};
use bitrobust_obs::json::JsonWriter;
use bitrobust_quant::QuantScheme;
use rand::SeedableRng;

const N_CHIPS: usize = 8;
const RATE: f64 = 0.01;
const BATCH: usize = 256;
const TRAIN_EPOCHS: usize = 2;
const TRAIN_BATCH: usize = 128;
/// Models in the orchestrated-sweep comparison.
const SWEEP_MODELS: usize = 2;
/// Chips per rate of the per-model grids the sweep orchestrates.
const SWEEP_CHIPS: usize = 4;

fn setup() -> (Model, Dataset) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0);
    let built = build(ArchKind::Mlp, [1, 14, 14], 10, NormKind::Group, &mut rng);
    let (_, test_ds) = SynthDataset::Mnist.generate(0);
    (built.model, test_ds)
}

/// A short RandBET training run, single-model (`data_parallel: None`) or
/// sharded; returns the report so callers can sanity-check determinism.
fn train_once(data_parallel: Option<DataParallel>) -> TrainReport {
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let built = build(ArchKind::Mlp, [1, 14, 14], 10, NormKind::Group, &mut rng);
    let mut model = built.model;
    let (train_src, test_src) = SynthDataset::Mnist.generate(0);
    let (xt, yt) = train_src.batch_range(0, 600);
    let (xe, ye) = test_src.batch_range(0, 300);
    let train_ds = Dataset::new("train", xt, yt, 10);
    let test_ds = Dataset::new("test", xe, ye, 10);
    let mut cfg = TrainConfig::new(
        Some(QuantScheme::rquant(8)),
        TrainMethod::RandBet { wmax: Some(0.1), p: 0.01, variant: RandBetVariant::Standard },
    );
    cfg.epochs = TRAIN_EPOCHS;
    cfg.batch_size = TRAIN_BATCH;
    cfg.augment = AugmentConfig::none();
    cfg.warmup_loss = 100.0;
    cfg.data_parallel = data_parallel;
    train(&mut model, &train_ds, &test_ds, &cfg)
}

/// The multi-model sweep comparison setup: `SWEEP_MODELS` distinct models
/// plus the shared rate grid their cells span.
fn sweep_setup() -> (Vec<Model>, Vec<f64>, Dataset) {
    let (_, test_ds) = SynthDataset::Mnist.generate(0);
    let models: Vec<Model> = (0..SWEEP_MODELS as u64)
        .map(|seed| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            build(ArchKind::Mlp, [1, 14, 14], 10, NormKind::Group, &mut rng).model
        })
        .collect();
    (models, vec![0.005, RATE], test_ds)
}

fn sweep_entry(i: usize, model: &Model) -> SweepModel<'_> {
    SweepModel::new(format!("bench-{i}"), QuantScheme::rquant(8), model)
}

/// One store-less sweep over `models` (pure compute), returning each
/// model's per-rate results.
fn sweep(models: &[SweepModel], rates: &[f64], test_ds: &Dataset) -> Vec<Vec<RobustEval>> {
    let axes = vec![SweepAxis::new("uniform", ChipAxis::uniform(rates.to_vec(), SWEEP_CHIPS, 42))];
    let opts = SweepOptions { batch_size: BATCH, mode: Mode::Eval };
    let results = run_sweep(models, &axes, test_ds, &opts, None, |_, _| {});
    (0..models.len()).map(|mi| results.robust(mi, 0)).collect()
}

/// The baseline the orchestrator replaces: one (already parallel)
/// single-model sweep per model, in sequence.
fn per_model_grids(models: &[Model], rates: &[f64], test_ds: &Dataset) -> Vec<Vec<RobustEval>> {
    models
        .iter()
        .enumerate()
        .flat_map(|(i, m)| sweep(&[sweep_entry(i, m)], rates, test_ds))
        .collect()
}

/// The orchestrated path: every model's cells in one fan-out.
fn orchestrated_sweep(models: &[Model], rates: &[f64], test_ds: &Dataset) -> Vec<Vec<RobustEval>> {
    let entries: Vec<SweepModel> =
        models.iter().enumerate().map(|(i, m)| sweep_entry(i, m)).collect();
    sweep(&entries, rates, test_ds)
}

fn chip_images(model: &Model) -> Vec<QuantizedModel> {
    let q0 = QuantizedModel::quantize(model, QuantScheme::rquant(8));
    (0..N_CHIPS)
        .map(|c| {
            let mut q = q0.clone();
            q.inject(&UniformChip::new(42 + c as u64).at_rate(RATE));
            q
        })
        .collect()
}

/// Measures serial vs parallel throughput (robust evaluation, clean
/// evaluation, and single-model vs data-parallel training) and writes the
/// comparison to `BENCH_robust_eval.json` at the workspace root.
fn main() {
    let (model, test_ds) = setup();
    let images = chip_images(&model);

    // Warm up the thread pool and verify the determinism guarantees once.
    let serial_ref = Campaign::new(&model, &test_ds).batch_size(BATCH).serial().run(&images);
    let campaign_ref = Campaign::new(&model, &test_ds).batch_size(BATCH).run(&images);
    assert_eq!(serial_ref, campaign_ref, "engine must be bit-identical to the serial path");
    let clean_serial_ref = evaluate_serial(&model, &test_ds, BATCH, Mode::Eval);
    let clean_campaign_ref = evaluate(&model, &test_ds, BATCH, Mode::Eval);
    assert_eq!(
        clean_serial_ref, clean_campaign_ref,
        "clean evaluate must be bit-identical to its serial reference"
    );

    // Data-parallel training must be bit-identical to its serial shard
    // reference; the shard count, not the thread count, defines the bits.
    let train_parallel_ref = train_once(Some(DataParallel::protocol()));
    let train_shard_serial_ref =
        train_once(Some(DataParallel { serial: true, ..DataParallel::protocol() }));
    assert_eq!(
        train_parallel_ref, train_shard_serial_ref,
        "data-parallel training must be bit-identical to its serial shard reference"
    );

    let reps = 3;
    let [serial_secs, campaign_secs] = best_of_alternating(
        reps,
        1,
        [
            &mut || drop(Campaign::new(&model, &test_ds).batch_size(BATCH).serial().run(&images)),
            &mut || drop(Campaign::new(&model, &test_ds).batch_size(BATCH).run(&images)),
        ],
    );
    let [clean_serial_secs, clean_campaign_secs] = best_of_alternating(
        reps,
        1,
        [
            &mut || {
                evaluate_serial(&model, &test_ds, BATCH, Mode::Eval);
            },
            &mut || {
                evaluate(&model, &test_ds, BATCH, Mode::Eval);
            },
        ],
    );
    let [train_serial_secs, train_parallel_secs] = best_of_alternating(
        reps,
        1,
        [&mut || drop(train_once(None)), &mut || drop(train_once(Some(DataParallel::protocol())))],
    );

    // Orchestrated multi-model sweep vs sequential per-model grids: the
    // cells must be byte-identical, the fused fan-out at least as fast.
    let (sweep_models, sweep_rates, sweep_ds) = sweep_setup();
    let per_model_ref = per_model_grids(&sweep_models, &sweep_rates, &sweep_ds);
    let sweep_ref = orchestrated_sweep(&sweep_models, &sweep_rates, &sweep_ds);
    assert_eq!(
        per_model_ref, sweep_ref,
        "orchestrated sweep must be bit-identical to per-model grids"
    );
    let [per_model_secs, sweep_secs] = best_of_alternating(
        reps,
        1,
        [&mut || drop(per_model_grids(&sweep_models, &sweep_rates, &sweep_ds)), &mut || {
            drop(orchestrated_sweep(&sweep_models, &sweep_rates, &sweep_ds))
        }],
    );

    // `threads` is the pool's *own* accounting of what it actually used
    // (`pool_parallelism()`), not the raw environment request:
    // BITROBUST_THREADS is clamped to the supported range and unset means
    // auto-detect, so only the pool knows the real worker count.
    // `threads_env` records the raw request (or null) so a `threads: 1`
    // row on a multi-core runner is attributable to its override instead
    // of reading like a regression.
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("bench").str("robust_eval").key("arch").str("mlp");
    w.key("dataset").str(test_ds.name()).key("examples").uint(test_ds.len() as u64);
    w.key("n_chips").uint(N_CHIPS as u64).key("rate").fixed(RATE, 3);
    w.key("batch_size").uint(BATCH as u64);
    w.key("threads").uint(bitrobust_tensor::pool_parallelism() as u64);
    w.key("threads_env");
    match std::env::var("BITROBUST_THREADS") {
        Ok(v) => w.str(&v),
        Err(_) => w.null(),
    };
    w.key("serial_secs").fixed(serial_secs, 6);
    w.key("campaign_secs").fixed(campaign_secs, 6);
    w.key("speedup").fixed(serial_secs / campaign_secs, 3);
    w.key("clean_serial_secs").fixed(clean_serial_secs, 6);
    w.key("clean_campaign_secs").fixed(clean_campaign_secs, 6);
    w.key("clean_speedup").fixed(clean_serial_secs / clean_campaign_secs, 3);
    w.key("train_serial_secs").fixed(train_serial_secs, 6);
    w.key("train_parallel_secs").fixed(train_parallel_secs, 6);
    w.key("train_speedup").fixed(train_serial_secs / train_parallel_secs, 3);
    w.key("train_shards").uint(bitrobust_core::TRAIN_SHARDS as u64);
    w.key("sweep_models").uint(SWEEP_MODELS as u64);
    w.key("per_model_secs").fixed(per_model_secs, 6);
    w.key("sweep_secs").fixed(sweep_secs, 6);
    w.key("sweep_speedup").fixed(per_model_secs / sweep_secs, 3);
    w.key("bit_identical").bool(true);
    w.end();
    write_bench_json("robust_eval", w);
}
