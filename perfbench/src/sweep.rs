//! `sweep_cifar` and `chip_scan_mlp`: durable sweeps (`run_sweep` into a
//! fresh `SweepStore`) at two opposite balances of pattern build against
//! evaluation.

use std::hint::black_box;
use std::path::Path;

use bitrobust_biterror::{ChipKind, ProfiledAxis, ProfiledChip, UniformChip};
use bitrobust_core::{
    build, run_sweep, ArchKind, Campaign, ChipAxis, EvalResult, NormKind, QuantizedModel,
    SweepAxis, SweepModel, SweepOptions, SweepResults, SweepStore,
};
use bitrobust_data::{Dataset, SynthDataset};
use bitrobust_nn::{Mode, Model};
use bitrobust_quant::QuantScheme;
use rand::SeedableRng;

use crate::harness::{self, json_nums, median, span, timed, Outcome};
use crate::layers;

/// Repetitions a measured run makes at least, whatever `--seconds` says.
const MIN_REPS: usize = 3;
/// Sweep cells re-evaluated through `Campaign::serial()` per run.
const SERIAL_SAMPLE: usize = 3;

/// The two sweep workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// SimpleNet on the synth-cifar10 test set: a uniform axis and a
    /// profiled Chip1 axis, rquant 8-bit. Evaluation-bound.
    Cifar,
    /// The MLP on a synth-mnist subset at rquant 8 and 4 bits, many
    /// uniform chips over six rates. Pattern-build- and wave-bound.
    ChipScan,
}

/// Everything one sweep job needs besides the built model and data.
struct Plan {
    dataset: SynthDataset,
    test_examples: usize,
    arch: ArchKind,
    schemes: Vec<QuantScheme>,
    axes: Vec<SweepAxis>,
    batch_size: usize,
    model_tag: String,
}

impl Plan {
    fn new(kind: Kind, seed: u64) -> Self {
        // Chip seeds come from the workload seed, spaced so no two seeds
        // share a chip.
        let chip_base = seed.wrapping_mul(1 << 20);
        match kind {
            Kind::Cifar => Plan {
                dataset: SynthDataset::Cifar10,
                test_examples: 1000,
                arch: ArchKind::SimpleNet,
                schemes: vec![QuantScheme::rquant(8)],
                axes: vec![
                    SweepAxis::new("uniform", ChipAxis::uniform(vec![0.005, 0.025], 2, chip_base)),
                    SweepAxis::new(
                        "chip1",
                        ChipAxis::Profiled(ProfiledAxis::tab5(
                            ChipKind::Chip1,
                            chip_base,
                            vec![0.0086, 0.0275],
                            2,
                        )),
                    ),
                ],
                batch_size: 250,
                model_tag: format!("simplenet-gn-s{seed}"),
            },
            Kind::ChipScan => Plan {
                dataset: SynthDataset::Mnist,
                test_examples: 200,
                arch: ArchKind::Mlp,
                schemes: vec![QuantScheme::rquant(8), QuantScheme::rquant(4)],
                axes: vec![SweepAxis::new(
                    "uniform",
                    ChipAxis::uniform(vec![0.0005, 0.001, 0.005, 0.01, 0.05, 0.1], 12, chip_base),
                )],
                batch_size: 100,
                model_tag: format!("mlp-s{seed}"),
            },
        }
    }

    fn n_cells(&self) -> usize {
        self.schemes.len() * self.axes.iter().map(|a| a.axis.n_points()).sum::<usize>()
    }

    fn options(&self) -> SweepOptions {
        SweepOptions { batch_size: self.batch_size, mode: Mode::Eval }
    }

    fn models<'m>(&self, model: &'m Model) -> Vec<SweepModel<'m>> {
        self.schemes
            .iter()
            .map(|s| SweepModel::new(format!("{}-{}", self.model_tag, s.key()), *s, model))
            .collect()
    }

    /// Every cell as `(model, axis, point)`, in `SweepResults::cells` order.
    fn cells(&self) -> Vec<(usize, usize, usize)> {
        let mut cells = Vec::with_capacity(self.n_cells());
        for mi in 0..self.schemes.len() {
            for (ai, axis) in self.axes.iter().enumerate() {
                cells.extend((0..axis.axis.n_points()).map(|p| (mi, ai, p)));
            }
        }
        cells
    }
}

/// The built model and its evaluation set.
struct Setup {
    model: Model,
    test: Dataset,
    data_s: f64,
}

/// Data generation, model build and warm-up.
fn setup(plan: &Plan, seed: u64) -> Setup {
    let ((_, full), data_s) = {
        let _s = span("data.generate");
        timed(|| plan.dataset.generate(seed))
    };
    let (x, y) = full.batch_range(0, plan.test_examples.min(full.len()));
    let test = Dataset::new(full.name(), x, y, full.n_classes());
    let model = {
        let _s = span("nn.build");
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        build(plan.arch, test.image_shape(), test.n_classes(), NormKind::Group, &mut rng).model
    };
    {
        let _s = span("nn.warmup");
        let (x, _) = layers::first_batch(&test, plan.batch_size);
        black_box(model.infer(&x, Mode::Eval));
    }
    Setup { model, test, data_s }
}

/// What one sweep job leaves behind.
struct JobResult {
    results: SweepResults,
    fingerprint: u64,
    stored: usize,
}

/// One sweep job: a fresh store at `store_path`, every cell evaluated and
/// appended.
fn job(plan: &Plan, setup: &Setup, store_path: &Path) -> JobResult {
    let _ = std::fs::remove_file(store_path);
    let mut store = SweepStore::open(store_path).expect("open sweep store");
    let models = plan.models(&setup.model);
    let results =
        run_sweep(&models, &plan.axes, &setup.test, &plan.options(), Some(&mut store), |_, _| {});
    JobResult { results, fingerprint: store.fingerprint(), stored: store.len() }
}

/// The per-axis state image construction needs (a profiled chip and its
/// resolved voltages), prepared once.
struct Images<'p> {
    plan: &'p Plan,
    q0s: Vec<QuantizedModel>,
    chips: Vec<Option<(ProfiledChip, Vec<f64>)>>,
}

impl<'p> Images<'p> {
    fn new(plan: &'p Plan, model: &Model) -> Self {
        let q0s = plan.schemes.iter().map(|s| QuantizedModel::quantize(model, *s)).collect();
        let chips = plan
            .axes
            .iter()
            .map(|a| match &a.axis {
                ChipAxis::Profiled(axis) => {
                    let chip = axis.synthesize();
                    let voltages = axis.voltages(&chip);
                    Some((chip, voltages))
                }
                ChipAxis::Uniform { .. } => None,
            })
            .collect();
        Self { plan, q0s, chips }
    }

    /// The perturbed image of one sweep cell, built from outside the sweep
    /// through the public injectors.
    fn image(&self, (mi, ai, point): (usize, usize, usize)) -> QuantizedModel {
        let mut q = self.q0s[mi].clone();
        match (&self.plan.axes[ai].axis, &self.chips[ai]) {
            (ChipAxis::Uniform { rates, n_chips, chip_seed_base }, _) => {
                let chip = UniformChip::new(chip_seed_base + (point % n_chips) as u64);
                q.inject(&chip.at_rate(rates[point / n_chips]));
            }
            (ChipAxis::Profiled(axis), Some((chip, voltages))) => {
                q.inject(&axis.injector(chip, voltages, point));
            }
            (ChipAxis::Profiled(_), None) => unreachable!("profiled axes are prepared"),
        }
        q
    }
}

fn same_bits(a: &EvalResult, b: &EvalResult) -> bool {
    a.error.to_bits() == b.error.to_bits() && a.confidence.to_bits() == b.confidence.to_bits()
}

/// Re-evaluates a seed-chosen sample of cells through the serial
/// reference path and compares bits with the sweep's results.
fn check_serial_sample(
    out: &mut Outcome,
    plan: &Plan,
    setup: &Setup,
    results: &SweepResults,
    seed: u64,
) {
    let _s = span("check.serial_sample");
    let images = Images::new(plan, &setup.model);
    let cells = plan.cells();
    let first = seed as usize % cells.len();
    for k in 0..SERIAL_SAMPLE {
        let cell = cells[(first + k * cells.len() / SERIAL_SAMPLE) % cells.len()];
        let serial = Campaign::new(&setup.model, &setup.test)
            .batch_size(plan.batch_size)
            .serial()
            .run(&[images.image(cell)]);
        let (mi, ai, point) = cell;
        out.check(
            same_bits(&serial[0], &results.cell(mi, ai, point)),
            format!("cell {cell:?} differs from Campaign::serial()"),
        );
    }
}

/// The untraced run: `setup_s`, cells per second and job time over
/// repeated sweeps, with the output checks.
pub fn measure(kind: Kind, seed: u64, seconds: f64, workdir: &Path) -> Outcome {
    let plan = Plan::new(kind, seed);
    let mut out = Outcome::default();
    let (setup, setup_times) = harness::repeated_setup(|| setup(&plan, seed));
    let store_path = workdir.join("sweep.jsonl");
    let runs = harness::repeat_for(seconds, MIN_REPS, || job(&plan, &setup, &store_path));

    let cells = plan.n_cells() as f64;
    let job_s: Vec<f64> = runs.iter().map(|(_, dt)| *dt).collect();
    let rates: Vec<f64> = job_s.iter().map(|dt| cells / dt).collect();
    out.metric("setup_s", median(&setup_times), "s");
    out.metric("throughput_per_s", median(&rates), "1/s");
    out.metric("latency_p50_ms", median(&job_s) * 1e3, "ms");

    let first = &runs[0].0;
    out.check(
        runs.iter().all(|(r, _)| r.fingerprint == first.fingerprint && r.results == first.results),
        "store fingerprint or results differ across repetitions",
    );
    out.check(
        runs.iter()
            .all(|(r, _)| r.stored == plan.n_cells() && r.results.evaluated == plan.n_cells()),
        "a repetition did not evaluate and store every cell",
    );
    check_serial_sample(&mut out, &plan, &setup, &first.results, seed);

    out.detail("cells", format!("{}", plan.n_cells()));
    out.detail("examples", format!("{}", setup.test.len()));
    out.detail("job_s", json_nums(&job_s));
    out.detail("setup_s", json_nums(&setup_times));
    out.detail("store_fingerprint", harness::json_str(&format!("{:016x}", first.fingerprint)));
    out
}

/// The traced run: untraced and traced jobs (the tracing overhead), then
/// the per-layer probes, all under benchmark spans.
pub fn trace(kind: Kind, seed: u64, workdir: &Path) -> Outcome {
    let plan = Plan::new(kind, seed);
    let mut out = Outcome::default();
    let store_path = workdir.join("sweep.jsonl");
    harness::start_recording();
    {
        let _root = span("run");
        let setup = {
            let _s = span("bench.setup");
            setup(&plan, seed)
        };
        out.metric("data.generate_s", setup.data_s, "s");
        let (traced, untraced, snap) =
            layers::traced_job(&mut out, "sweep.run", || job(&plan, &setup, &store_path));
        layers::fold_obs(&mut out, &snap);
        layers::fold_campaign_obs(&mut out, &snap);
        out.check(
            traced.fingerprint == untraced.fingerprint && traced.results == untraced.results,
            "tracing changed the sweep's results or store",
        );

        let mut store = {
            let _s = span("store.open");
            let (store, dt) = timed(|| SweepStore::open(&store_path).expect("reopen store"));
            out.metric("store.open_s", dt, "s");
            store
        };
        {
            let _s = span("sweep.plan");
            let models = plan.models(&setup.model);
            let (resumed, dt) = timed(|| {
                run_sweep(
                    &models,
                    &plan.axes,
                    &setup.test,
                    &plan.options(),
                    Some(&mut store),
                    |_, _| {},
                )
            });
            out.metric("sweep.plan_s", dt, "s");
            out.check(
                resumed.resumed == plan.n_cells() && resumed.cells() == traced.results.cells(),
                "resume over the complete store did not replay every cell",
            );
        }

        let q0 = layers::quant(&mut out, &setup.model, plan.schemes[0]);
        probe_biterror(&mut out, &plan, &q0);
        probe_campaign(&mut out, &plan, &setup, &traced.results);
        let (x, y) = layers::first_batch(&setup.test, plan.batch_size);
        layers::nn_infer(&mut out, &setup.model, &x);
        layers::nn_train_step(&mut out, &setup.model, &x, &y);
        check_serial_sample(&mut out, &plan, &setup, &traced.results, seed);
    }
    layers::fold_self_times(&mut out, &harness::finish_recording());
    out
}

/// Uniform and profiled injection timed per image, with the flip yield.
fn probe_biterror(out: &mut Outcome, plan: &Plan, q0: &QuantizedModel) {
    for axis in &plan.axes {
        match &axis.axis {
            ChipAxis::Uniform { rates, n_chips, chip_seed_base } => {
                let images: Vec<(u64, f64)> = rates
                    .iter()
                    .flat_map(|&p| (0..*n_chips as u64).map(move |c| (chip_seed_base + c, p)))
                    .collect();
                layers::uniform_inject(out, q0, &images);
            }
            ChipAxis::Profiled(profiled) => {
                let _s = span("biterror.profiled");
                let synth = harness::median_time(3, || {
                    let chip = profiled.synthesize();
                    black_box(profiled.voltages(&chip));
                });
                out.metric("biterror.profiled_synth_s", synth, "s");
                let chip = profiled.synthesize();
                let voltages = profiled.voltages(&chip);
                let times: Vec<f64> = (0..profiled.n_points())
                    .map(|p| layers::inject_counted(q0, &profiled.injector(&chip, &voltages, p)).0)
                    .collect();
                out.metric("biterror.profiled_inject_s", median(&times), "s");
            }
        }
    }
}

/// `campaign.build_s` and `campaign.eval_s`: the same cells through
/// `run_cells` (images built lazily per wave) and through `run` over
/// images built beforehand, with the same wave sizes.
fn probe_campaign(out: &mut Outcome, plan: &Plan, setup: &Setup, results: &SweepResults) {
    let cells = plan.cells();
    let images = Images::new(plan, &setup.model);
    let campaign =
        || Campaign::new(&setup.model, &setup.test).batch_size(plan.batch_size).on_cell(|_, _| {});
    let (lazy, lazy_s) = {
        let _s = span("campaign.run_cells");
        timed(|| campaign().run_cells(cells.len(), |i| (0, images.image(cells[i]))))
    };
    let prebuilt: Vec<QuantizedModel> = cells.iter().map(|&c| images.image(c)).collect();
    let (eager, eager_s) = {
        let _s = span("campaign.run");
        timed(|| campaign().run(&prebuilt))
    };
    out.metric("campaign.build_s", lazy_s - eager_s, "s");
    out.metric("campaign.eval_s", eager_s, "s");
    out.check(
        lazy == eager && eager.as_slice() == results.cells(),
        "campaign over rebuilt images differs from the sweep",
    );
}
