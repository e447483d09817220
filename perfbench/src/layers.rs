//! Per-layer figures for the traced mode: timed calls into each layer's
//! public functions from outside, plus the program's own obs counters and
//! span histograms folded into named metrics.

use std::hint::black_box;

use bitrobust_biterror::{ErrorInjector, UniformChip};
use bitrobust_core::QuantizedModel;
use bitrobust_data::Dataset;
use bitrobust_nn::{CrossEntropyLoss, Mode, Model, Sgd};
use bitrobust_obs::Snapshot;
use bitrobust_quant::QuantScheme;

use crate::harness::{median, median_time, span, timed, Outcome};

/// Repetitions of each single-call probe (the median is reported).
const PROBE_REPS: usize = 5;

/// The layer kinds `nn.<kind>.infer_s` reports, by `Layer::layer_type`.
const NN_KINDS: [(&str, &[&str]); 5] = [
    ("conv", &["Conv2d"]),
    ("groupnorm", &["GroupNorm"]),
    ("linear", &["Linear"]),
    ("pool", &["MaxPool2d", "GlobalAvgPool"]),
    ("relu", &["Relu"]),
];

/// Every per-layer metric a traced run prints, with its unit. A workload
/// that does not exercise a layer reports 0 for it.
pub const PER_LAYER: [(&str, &str); 57] = [
    ("tensor.gemm.calls", "count"),
    ("tensor.gemm.busy_s", "s"),
    ("tensor.gemm.pack_b_s", "s"),
    ("tensor.pool.jobs", "count"),
    ("tensor.pool.inline", "count"),
    ("nn.conv.infer_s", "s"),
    ("nn.groupnorm.infer_s", "s"),
    ("nn.linear.infer_s", "s"),
    ("nn.pool.infer_s", "s"),
    ("nn.relu.infer_s", "s"),
    ("nn.forward_s", "s"),
    ("nn.backward_s", "s"),
    ("nn.optim_step_s", "s"),
    ("quant.quantize_s", "s"),
    ("quant.write_to_s", "s"),
    ("quant.weights", "count"),
    ("biterror.uniform_inject_s", "s"),
    ("biterror.profiled_synth_s", "s"),
    ("biterror.profiled_inject_s", "s"),
    ("biterror.flip_yield", "ratio"),
    ("campaign.build_s", "s"),
    ("campaign.eval_s", "s"),
    ("campaign.wave_cells", "count"),
    ("campaign.pool_idle_share", "ratio"),
    ("scheduler.replica_reuse_ratio", "ratio"),
    ("sweep.plan_s", "s"),
    ("store.open_s", "s"),
    ("store.append_s", "s"),
    ("store.appends", "count"),
    ("store.bytes", "bytes"),
    ("train.shard_s", "s"),
    ("train.forward_s", "s"),
    ("train.backward_s", "s"),
    ("train.reduce_s", "s"),
    ("train.randbet_perturb_s", "s"),
    ("serve.submit_us", "us"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.batch_size", "count"),
    ("serve.wave_size", "count"),
    ("serve.queue_depth_max", "count"),
    ("serve.generator_late_ms", "ms"),
    ("data.generate_s", "s"),
    ("bench.self_s", "s"),
    ("data.self_s", "s"),
    ("nn.self_s", "s"),
    ("quant.self_s", "s"),
    ("biterror.self_s", "s"),
    ("campaign.self_s", "s"),
    ("sweep.self_s", "s"),
    ("store.self_s", "s"),
    ("train.self_s", "s"),
    ("serve.self_s", "s"),
    ("check.self_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.reconcile_error_s", "s"),
    ("trace.overhead_ratio", "ratio"),
];

/// Switches the program's obs layer to counters + span histograms (or
/// back off). Counters level records everything the per-layer metrics
/// read without buffering one trace event per span.
pub fn program_obs(on: bool) {
    let level = if on { bitrobust_obs::ObsLevel::Counters } else { bitrobust_obs::ObsLevel::Off };
    bitrobust_obs::init(&bitrobust_obs::ObsConfig { level, ..Default::default() });
}

/// Runs `job` once to warm up, then untraced, traced, traced, untraced
/// (obs on for the traced ones only, each under a span named
/// `traced_span`), and reports the tracing overhead: the traced jobs'
/// total time over the untraced ones'. The symmetric order cancels drift
/// over the run. Returns the first traced result, the last untraced one,
/// and the obs snapshot taken right after the first traced job.
pub fn traced_job<R>(
    out: &mut Outcome,
    traced_span: &'static str,
    mut job: impl FnMut() -> R,
) -> (R, R, Snapshot) {
    {
        let _s = span("bench.warmup_job");
        drop(job());
    }
    let mut run = |name: &'static str| {
        let _s = span(name);
        timed(&mut job)
    };
    let (_, u1) = run("bench.untraced_job");
    program_obs(true);
    let (traced, t1) = run(traced_span);
    let snap = bitrobust_obs::snapshot();
    let (_, t2) = run(traced_span);
    program_obs(false);
    let (untraced, u2) = run("bench.untraced_job");
    out.metric("trace.overhead_ratio", (t1 + t2) / (u1 + u2), "ratio");
    (traced, untraced, snap)
}

fn hist_sum_s(snap: &Snapshot, name: &str) -> f64 {
    snap.hist(name).map_or(0.0, |h| h.sum as f64 * 1e-9)
}

fn hist_mean(snap: &Snapshot, name: &str) -> f64 {
    snap.hist(name).filter(|h| h.count > 0).map_or(0.0, |h| h.sum as f64 / h.count as f64)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Folds the program's obs snapshot (taken over the traced job alone)
/// into the per-layer metrics it backs.
pub fn fold_obs(out: &mut Outcome, snap: &Snapshot) {
    let gemm = ["gemm.f32", "gemm.i8"];
    let calls: u64 = gemm.iter().filter_map(|n| snap.hist(n)).map(|h| h.count).sum();
    out.metric("tensor.gemm.calls", calls as f64, "count");
    out.metric("tensor.gemm.busy_s", gemm.iter().map(|n| hist_sum_s(snap, n)).sum(), "s");
    out.metric("tensor.gemm.pack_b_s", hist_sum_s(snap, "gemm.pack_b"), "s");
    out.metric("tensor.pool.jobs", snap.counter("pool.jobs") as f64, "count");
    out.metric("tensor.pool.inline", snap.counter("pool.inline") as f64, "count");

    out.metric("store.append_s", hist_sum_s(snap, "store.append"), "s");
    out.metric("store.appends", snap.counter("store.appends") as f64, "count");
    out.metric("store.bytes", snap.counter("store.bytes_appended") as f64, "bytes");

    out.metric("train.shard_s", hist_sum_s(snap, "train.shard"), "s");
    out.metric("train.forward_s", hist_sum_s(snap, "train.forward"), "s");
    out.metric("train.backward_s", hist_sum_s(snap, "train.backward"), "s");
    out.metric("train.reduce_s", hist_sum_s(snap, "train.reduce"), "s");

    out.metric("serve.queue_wait_ms", hist_mean(snap, "serve.queue_wait_ns") * 1e-6, "ms");
    out.metric("serve.batch_size", hist_mean(snap, "serve.batch_size"), "count");
    out.metric("serve.wave_size", hist_mean(snap, "serve.wave_size"), "count");
}

/// The campaign engine's wave metrics, for workloads whose every
/// scheduler call runs inside a campaign wave: the pool's idle share is
/// the wave time the scheduler did not cover, spent building images on
/// the calling thread.
pub fn fold_campaign_obs(out: &mut Outcome, snap: &Snapshot) {
    out.metric("campaign.wave_cells", hist_mean(snap, "campaign.wave_cells"), "count");
    let wave = hist_sum_s(snap, "campaign.wave");
    let execute = hist_sum_s(snap, "scheduler.execute");
    out.metric("campaign.pool_idle_share", ratio(wave - execute, wave), "ratio");
    let reuse = snap.counter("scheduler.replica.checkout_reuse") as f64;
    let miss = snap.counter("scheduler.replica.checkout_miss") as f64;
    out.metric("scheduler.replica_reuse_ratio", ratio(reuse, reuse + miss), "ratio");
}

/// `nn.<kind>.infer_s`: one batch walked through the top-level layers of
/// `model`, each layer timed on its own (median of [`PROBE_REPS`] walks,
/// summed per kind).
pub fn nn_infer(out: &mut Outcome, model: &Model, x: &bitrobust_tensor::Tensor) {
    let _s = span("nn.layer_infer");
    let mut walks: Vec<[f64; NN_KINDS.len()]> = Vec::new();
    for _ in 0..PROBE_REPS {
        let mut per_kind = [0.0; NN_KINDS.len()];
        let mut h = x.clone();
        for layer in model.root().layers() {
            let (next, dt) = timed(|| layer.infer(&h, Mode::Eval));
            if let Some(k) =
                NN_KINDS.iter().position(|(_, types)| types.contains(&layer.layer_type()))
            {
                per_kind[k] += dt;
            }
            h = next;
        }
        walks.push(per_kind);
    }
    for (k, (kind, _)) in NN_KINDS.iter().enumerate() {
        let times: Vec<f64> = walks.iter().map(|w| w[k]).collect();
        out.metric(format!("nn.{kind}.infer_s"), median(&times), "s");
    }
}

/// `nn.forward_s`, `nn.backward_s`, `nn.optim_step_s`: one training step
/// on `(x, labels)` through a clone of `model`.
pub fn nn_train_step(
    out: &mut Outcome,
    model: &Model,
    x: &bitrobust_tensor::Tensor,
    labels: &[usize],
) {
    let _s = span("nn.train_step");
    let mut replica = model.clone();
    let loss_fn = CrossEntropyLoss::new();
    let mut sgd = Sgd::new(0.05, 0.9, 5e-4);
    let (mut fwd, mut bwd, mut step) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..PROBE_REPS {
        replica.zero_grads();
        let (logits, t) = timed(|| replica.forward(x, Mode::Train));
        fwd.push(t);
        let loss = loss_fn.compute(&logits, labels);
        bwd.push(timed(|| replica.backward(&loss.grad)).1);
        step.push(timed(|| sgd.step(&mut replica)).1);
    }
    out.metric("nn.forward_s", median(&fwd), "s");
    out.metric("nn.backward_s", median(&bwd), "s");
    out.metric("nn.optim_step_s", median(&step), "s");
}

/// `quant.quantize_s`, `quant.write_to_s` and `quant.weights` per image of
/// `model` under `scheme`; returns the clean image for the biterror
/// probes.
pub fn quant(out: &mut Outcome, model: &Model, scheme: QuantScheme) -> QuantizedModel {
    let q = {
        let _s = span("quant.quantize");
        out.metric(
            "quant.quantize_s",
            median_time(PROBE_REPS, || {
                black_box(QuantizedModel::quantize(model, scheme));
            }),
            "s",
        );
        QuantizedModel::quantize(model, scheme)
    };
    let _s = span("quant.write_to");
    let mut replica = model.clone();
    out.metric("quant.write_to_s", median_time(PROBE_REPS, || q.write_to(&mut replica)), "s");
    out.metric("quant.weights", q.total_weights() as f64, "count");
    q
}

/// Injects `injector` into a copy of `q0`: the injection seconds and the
/// bits it flipped (by `hamming_distance`).
pub fn inject_counted(q0: &QuantizedModel, injector: &impl ErrorInjector) -> (f64, usize) {
    let mut q = q0.clone();
    let ((), dt) = timed(|| q.inject(injector));
    let flipped = q.tensors().iter().zip(q0.tensors()).map(|(a, b)| a.hamming_distance(b)).sum();
    (dt, flipped)
}

/// `biterror.uniform_inject_s` (median over `(chip seed, rate)` images)
/// and `biterror.flip_yield`: bits flipped over bits hashed, which is
/// close to the rate `p` because `UniformChip` hashes every live bit.
pub fn uniform_inject(out: &mut Outcome, q0: &QuantizedModel, images: &[(u64, f64)]) {
    let _s = span("biterror.uniform_inject");
    let mut times = Vec::with_capacity(images.len());
    let mut flipped = 0usize;
    for &(chip_seed, p) in images {
        let (dt, f) = inject_counted(q0, &UniformChip::new(chip_seed).at_rate(p));
        times.push(dt);
        flipped += f;
    }
    let hashed = (q0.total_weights() * q0.scheme().bits() as usize * images.len()) as f64;
    out.metric("biterror.uniform_inject_s", median(&times), "s");
    out.metric("biterror.flip_yield", ratio(flipped as f64, hashed), "ratio");
}

/// `trace.*` and `<module>.self_s` from the folded span tree.
pub fn fold_self_times(out: &mut Outcome, times: &crate::harness::SelfTimes) {
    for (module, self_s) in &times.modules {
        out.metric(format!("{module}.self_s"), *self_s, "s");
    }
    out.metric("trace.unattributed_s", times.unattributed_s, "s");
    out.metric("trace.wall_s", times.wall_s, "s");
    out.metric("trace.reconcile_error_s", times.reconcile_error_s(), "s");
}

/// Orders the reported metrics as [`PER_LAYER`] lists them, filling the
/// ones the workload did not report with 0.
///
/// # Panics
///
/// Panics if a reported metric is missing from [`PER_LAYER`] (a span
/// module without its `<module>.self_s` entry, say).
pub fn complete(out: &mut Outcome) {
    for m in &out.metrics {
        assert!(PER_LAYER.iter().any(|(n, _)| *n == m.name), "{} is not in PER_LAYER", m.name);
    }
    let ordered = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = out.metrics.iter().rev().find(|m| m.name == name).map_or(0.0, |m| m.value);
            crate::harness::Metric { name: name.to_string(), value, unit }
        })
        .collect();
    out.metrics = ordered;
}

/// A batch of the first `n` examples of `ds`.
pub fn first_batch(ds: &Dataset, n: usize) -> (bitrobust_tensor::Tensor, Vec<usize>) {
    ds.batch_range(0, n.min(ds.len()))
}
