//! Experiment-side glue for the durable sweep orchestrator
//! ([`bitrobust_core::sweep`]): store locations under `target/sweeps/`,
//! zoo-spec → [`SweepModel`] wiring, and the one sweep entry point every
//! experiment binary shares.
//!
//! Binaries that evaluate a model × rate grid run it through
//! [`durable_sweep`] (or [`zoo_sweep`] on top of it), which opens the
//! binary's store — honoring `--fresh`/`--resume` — and hands it to
//! [`bitrobust_core::run_sweep`]; a killed run continues where it left
//! off on the next invocation, byte-identically.

use std::io::Write;
use std::path::PathBuf;

use bitrobust_core::{
    run_sweep, SweepAxis, SweepModel, SweepOptions, SweepResults, SweepStore, TrainReport,
};
use bitrobust_data::Dataset;
use bitrobust_nn::Model;

use crate::cli::ExpOptions;
use crate::protocol::protocol_axis;
use crate::zoo::{dataset_pair, warm_zoo, ZooSpec};

/// Directory holding the experiment binaries' sweep stores
/// (`$BITROBUST_SWEEPS`, or `target/sweeps/` in the workspace).
pub fn sweep_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("BITROBUST_SWEEPS") {
        return PathBuf::from(dir);
    }
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/sweeps")
}

/// Pairs warmed zoo models with their specs as sweep entries: the spec's
/// cache key is the model identity and its training scheme is the
/// evaluation scheme.
///
/// # Panics
///
/// Panics if a spec trains in float (`scheme: None`) — the evaluation
/// scheme would be ambiguous — or if `specs` and `warmed` differ in
/// length.
pub fn sweep_models<'a>(
    specs: &[ZooSpec],
    warmed: &'a [(Model, TrainReport)],
) -> Vec<SweepModel<'a>> {
    assert_eq!(specs.len(), warmed.len(), "one warmed model per spec");
    specs
        .iter()
        .zip(warmed)
        .map(|(spec, (model, _))| {
            let scheme = spec
                .scheme
                .expect("sweep entries need a quantization scheme (float specs are ambiguous)");
            SweepModel::new(spec.key(), scheme, model)
        })
        .collect()
}

/// Runs `models × axes` on `test_ds` as one durable sweep, checkpointed to
/// the named store `<sweep_dir>/<name>.jsonl`.
///
/// `--fresh` deletes the store first; otherwise its cells are replayed and
/// the resume position is reported. Progress goes to stderr: a
/// `sweep N models x M cells:` line, then one dot per cell (`.`
/// evaluated, `,` replayed from the store) and a newline after the last.
///
/// # Panics
///
/// Panics if the store cannot be opened or parsed — a corrupt store must
/// be inspected or deleted, never silently recomputed over — and on the
/// [`run_sweep`] conditions.
pub fn durable_sweep(
    name: &str,
    opts: &ExpOptions,
    models: &[SweepModel<'_>],
    axes: &[SweepAxis],
    test_ds: &Dataset,
) -> SweepResults {
    let path = sweep_dir().join(format!("{name}.jsonl"));
    if opts.fresh && path.exists() {
        std::fs::remove_file(&path).expect("remove sweep store for --fresh");
    }
    let mut store = SweepStore::open(&path).expect("open sweep store");
    if !store.is_empty() {
        eprintln!(
            "sweep store {}: resuming past {} stored cells (use --fresh to recompute)",
            store.path().display(),
            store.len()
        );
    }
    let per_model: usize = axes.iter().map(|a| a.axis.n_points()).sum();
    let total = models.len() * per_model;
    eprint!("sweep {} models x {per_model} cells: ", models.len());
    let mut done = 0usize;
    run_sweep(models, axes, test_ds, &SweepOptions::default(), Some(&mut store), |cell, _| {
        done += 1;
        let mut err = std::io::stderr();
        let _ = write!(err, "{}", if cell.resumed { ',' } else { '.' });
        if done == total {
            let _ = writeln!(err);
        }
        let _ = err.flush();
    })
}

/// Warms the zoo for `specs` (all on one dataset), then evaluates every
/// model on the shared protocol chips ([`protocol_axis`]) at the rates
/// `ps` as one [`durable_sweep`] named `name`.
///
/// Returns each spec's training report, in spec order, and the sweep
/// results: model `i` is `specs[i]`, axis 0 is the protocol axis.
///
/// # Panics
///
/// Panics if `specs` is empty or spans several datasets, and on the
/// [`sweep_models`] and [`durable_sweep`] conditions.
pub fn zoo_sweep(
    name: &str,
    opts: &ExpOptions,
    specs: &[ZooSpec],
    ps: &[f64],
) -> (Vec<TrainReport>, SweepResults) {
    let kind = specs.first().expect("zoo sweep needs at least one spec").dataset;
    assert!(specs.iter().all(|s| s.dataset == kind), "zoo sweep specs must share one dataset");
    let (_, test_ds) = dataset_pair(kind, opts.seed);
    eprintln!("warming {} {} zoo models...", specs.len(), kind.name());
    let warmed = warm_zoo(specs, opts.seed, opts.no_cache);
    let axes = [SweepAxis::new("uniform", protocol_axis(ps, opts.chips))];
    let results = durable_sweep(name, opts, &sweep_models(specs, &warmed), &axes, &test_ds);
    (warmed.into_iter().map(|(_, report)| report).collect(), results)
}
