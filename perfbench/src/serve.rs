//! `serve_open_loop`: `InferenceService` serving SimpleNet to an
//! open-loop arrival schedule at three fixed rates.
//!
//! One generator (the calling thread) submits each request at its due
//! time whatever the service is doing; one redeemer thread waits on the
//! tickets in submission order. Latency runs from the due time, so a
//! stalled generator or a growing queue shows in every later request.

use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use bitrobust_core::{build, ArchKind, NormKind};
use bitrobust_data::SynthDataset;
use bitrobust_nn::Model;
use bitrobust_serve::{
    reference_response, InferenceService, ModelRegistry, ServeConfig, ServeResponse, Ticket,
};
use bitrobust_tensor::Tensor;
use rand::{Rng, SeedableRng};

use crate::harness::{self, json_num, json_nums, median, quantile_sorted, span, timed, Outcome};
use crate::layers;

const CONFIG: ServeConfig =
    ServeConfig { queue_capacity: 1024, max_batch: 32, max_delay: Duration::from_millis(2) };
const KEY: &str = "simplenet";
/// The offered rates (requests per second), each held for a third of the
/// run. All three sit below the service's capacity on a 2-vCPU host, so
/// no request is shed.
const RATES: [(&str, f64); 3] = [("low", 400.0), ("mid", 1000.0), ("high", 1600.0)];
/// A rate counts toward `max_rate_rps` only if its p99 latency stays
/// within this limit...
const P99_LIMIT_MS: f64 = 20.0;
/// ...and its backlog at the end of the step is at most two full batches.
const BACKLOG_LIMIT: u64 = 2 * CONFIG.max_batch as u64;
/// Distinct request images drawn from the test set.
const IMAGE_POOL: usize = 256;
/// Every this many requests, the response is checked against
/// `reference_response`.
const SAMPLE_EVERY: usize = 50;
const WARMUP_REQUESTS: usize = 64;

struct Setup {
    registry: Arc<ModelRegistry>,
    service: InferenceService,
    images: Vec<Tensor>,
    model: Model,
    /// One full micro-batch of test examples for the layer probes.
    batch: (Tensor, Vec<usize>),
    data_s: f64,
}

fn setup(seed: u64) -> Setup {
    let ((_, test), data_s) = {
        let _s = span("data.generate");
        timed(|| SynthDataset::Cifar10.generate(seed))
    };
    let images: Vec<Tensor> = (0..IMAGE_POOL.min(test.len())).map(|i| test.batch(&[i]).0).collect();
    let model = {
        let _s = span("nn.build");
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        build(ArchKind::SimpleNet, test.image_shape(), test.n_classes(), NormKind::Group, &mut rng)
            .model
    };
    let _s = span("serve.start");
    let registry = Arc::new(ModelRegistry::new());
    registry.publish(KEY, model.clone());
    let service = InferenceService::start(Arc::clone(&registry), CONFIG);
    let tickets: Vec<Ticket> = (0..WARMUP_REQUESTS)
        .map(|i| service.submit(KEY, images[i % images.len()].clone()).expect("warm-up submit"))
        .collect();
    tickets.into_iter().for_each(|t| drop(t.wait()));
    let batch = test.batch_range(0, CONFIG.max_batch);
    Setup { registry, service, images, model, batch, data_s }
}

/// One rate held for one step.
struct Step {
    name: &'static str,
    rate: f64,
    submitted: usize,
    rejected: u64,
    /// Sorted latencies from due time to response, ms.
    latency_ms: Vec<f64>,
    /// Sorted generator lateness (send time minus due time), ms.
    late_ms: Vec<f64>,
    submit_us: Vec<f64>,
    backlog_end: u64,
    queue_depth_max: u64,
    /// Responses per second from the first due time to the last response.
    served_per_s: f64,
    /// `(image index, response)` for every `SAMPLE_EVERY`-th request.
    samples: Vec<(usize, ServeResponse)>,
}

impl Step {
    fn p(&self, q: f64) -> f64 {
        quantile_sorted(&self.latency_ms, q)
    }

    fn passes(&self) -> bool {
        self.rejected == 0 && self.backlog_end <= BACKLOG_LIMIT && self.p(0.99) <= P99_LIMIT_MS
    }

    fn json(&self) -> String {
        let n = self.latency_ms.len();
        format!(
            "{{\"rate\":{},\"submitted\":{},\"rejected\":{},\"p50_ms\":{},\"p99_ms\":{},\
             \"beyond_p99\":{},\"late_p99_ms\":{},\"late_max_ms\":{},\"backlog_end\":{},\
             \"served_per_s\":{},\"passes\":{}}}",
            json_num(self.rate),
            self.submitted,
            self.rejected,
            json_num(self.p(0.5)),
            json_num(self.p(0.99)),
            n - (0.99 * n as f64).ceil() as usize,
            json_num(quantile_sorted(&self.late_ms, 0.99)),
            json_num(*self.late_ms.last().unwrap_or(&0.0)),
            self.backlog_end,
            json_num(self.served_per_s),
            self.passes(),
        )
    }
}

/// The seeded arrival schedule of one step: `rate × seconds` Poisson
/// arrivals conditioned on that count (exponential gaps rescaled to span
/// the step), as `(offset s, image index)`. Fixing the count keeps the
/// offered rate exact on every seed.
fn schedule(rate: f64, seconds: f64, n_images: usize, seed: u64) -> Vec<(f64, usize)> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let n = (rate * seconds).round() as usize;
    let mut at = 0.0;
    let mut arrivals: Vec<(f64, usize)> = (0..=n)
        .map(|_| {
            let u: f64 = rng.gen();
            at += -(1.0 - u).ln();
            (at, rng.gen_range(0..n_images))
        })
        .collect();
    let span_end = arrivals.pop().expect("n + 1 gaps").0;
    for arrival in &mut arrivals {
        arrival.0 *= seconds / span_end;
    }
    arrivals
}

/// Submits every request of `plan` at its due time and redeems the
/// tickets; `sample_depth` also samples the queue depth after each
/// submission.
fn run_step(
    service: &InferenceService,
    images: &[Tensor],
    (name, rate): (&'static str, f64),
    plan: &[(f64, usize)],
    sample_depth: bool,
) -> Step {
    let before = service.stats();
    let (tx, rx) = mpsc::channel::<(usize, Instant, Ticket)>();
    let mut late_ms = Vec::with_capacity(plan.len());
    let mut submit_us = Vec::with_capacity(plan.len());
    let (mut rejected, mut queue_depth_max) = (0u64, 0u64);
    let capacity = plan.len();
    let start = Instant::now() + Duration::from_millis(5);
    let (latency, samples, last, backlog_end) = std::thread::scope(|scope| {
        let redeemer = scope.spawn(move || {
            let mut latency = Vec::with_capacity(capacity);
            let mut samples = Vec::new();
            let mut last = start;
            for (i, due, ticket) in rx {
                let response = ticket.wait();
                last = Instant::now();
                latency.push(harness::ms(last - due));
                if i % SAMPLE_EVERY == 0 {
                    samples.push((i, response));
                }
            }
            (latency, samples, last)
        });
        for (i, &(offset, image)) in plan.iter().enumerate() {
            let due = start + Duration::from_secs_f64(offset);
            harness::sleep_until(due);
            late_ms.push(harness::ms(Instant::now() - due));
            let image = images[image].clone();
            let (submitted, dt) = timed(|| service.submit(KEY, image));
            submit_us.push(dt * 1e6);
            match submitted {
                Ok(ticket) => tx.send((i, due, ticket)).expect("redeemer alive"),
                Err(_) => rejected += 1,
            }
            if sample_depth {
                queue_depth_max = queue_depth_max.max(service.stats().queue_depth);
            }
        }
        let now = service.stats();
        let backlog_end = (now.submitted - before.submitted)
            - (now.completed - before.completed)
            - (now.shed - before.shed);
        drop(tx);
        let (latency, samples, last) = redeemer.join().expect("redeemer thread");
        (latency, samples, last, backlog_end)
    });
    let mut latency_ms = latency;
    latency_ms.sort_by(f64::total_cmp);
    late_ms.sort_by(f64::total_cmp);
    let served_per_s = latency_ms.len() as f64 / (last - start).as_secs_f64();
    let samples = samples.into_iter().map(|(i, r)| (plan[i].1, r)).collect();
    Step {
        name,
        rate,
        submitted: plan.len(),
        rejected,
        latency_ms,
        late_ms,
        submit_us,
        backlog_end,
        queue_depth_max,
        served_per_s,
        samples,
    }
}

/// Each rate of [`RATES`] held for `seconds`.
fn rate_steps(setup: &Setup, seconds: f64, seed: u64, traced: bool) -> Vec<Step> {
    RATES
        .iter()
        .map(|&(name, rate)| {
            let plan = schedule(rate, seconds, setup.images.len(), seed ^ rate.to_bits());
            run_step(&setup.service, &setup.images, (name, rate), &plan, traced)
        })
        .collect()
}

fn step_details(out: &mut Outcome, prefix: &str, steps: &[Step]) {
    for step in steps {
        out.detail(format!("{prefix}rate_{}", step.name), step.json());
    }
}

/// Counts requests, rejections and sampled responses that differ from the
/// single-request reference.
fn check_steps(out: &mut Outcome, setup: &Setup, steps: &[Step]) {
    let _s = span("check.responses");
    let served = setup.registry.get(KEY).expect("published model");
    for step in steps {
        out.attempted += step.submitted as u64;
        out.failed += step.rejected;
        if step.rejected > 0 {
            out.failures.push(format!("{} requests rejected at {}", step.rejected, step.name));
        }
        for (image, response) in &step.samples {
            let expected = reference_response(&served, &setup.images[*image]);
            if *response != expected
                || response.confidence.to_bits() != expected.confidence.to_bits()
            {
                out.failed += 1;
                out.failures.push(format!("response to image {image} differs from the reference"));
            }
        }
    }
}

fn check_shutdown(out: &mut Outcome, setup: Setup) {
    let stats = setup.service.shutdown();
    if stats.completed + stats.shed != stats.submitted {
        out.failed += 1;
        out.failures.push(format!(
            "completed {} + shed {} != submitted {}",
            stats.completed, stats.shed, stats.submitted
        ));
    }
}

/// `max_rate_rps`: responses per second at the highest rate that passes,
/// or 0 when none does.
fn max_rate(steps: &[Step]) -> f64 {
    steps.iter().rev().find(|s| s.passes()).map_or(0.0, |s| s.served_per_s)
}

/// The median latency at the `low` rate. Far below capacity, queueing
/// adds little there, so it reads the batching delay plus the service
/// time of a small batch; pooled over the steps, the busier rates would
/// swing it with the host's load.
fn low_rate_p50(steps: &[Step]) -> f64 {
    steps[0].p(0.5)
}

/// The median latency over every request of every rate step.
fn pooled_p50(steps: &[Step]) -> f64 {
    let all: Vec<f64> = steps.iter().flat_map(|s| s.latency_ms.iter().copied()).collect();
    median(&all)
}

/// Requests served per second over every rate step: the offered load
/// while the service keeps up, less once it falls behind.
fn served_rate(steps: &[Step]) -> f64 {
    let served: usize = steps.iter().map(|s| s.latency_ms.len()).sum();
    let busy: f64 = steps.iter().map(|s| s.latency_ms.len() as f64 / s.served_per_s).sum();
    served as f64 / busy
}

/// The untraced run.
pub fn measure(seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let (setup, setup_times) = harness::repeated_setup(|| setup(seed));
    let steps = rate_steps(&setup, seconds / 3.0, seed, false);

    out.metric("setup_s", median(&setup_times), "s");
    out.metric("throughput_per_s", served_rate(&steps), "1/s");
    out.metric("latency_p50_ms", low_rate_p50(&steps), "ms");
    check_steps(&mut out, &setup, &steps);
    step_details(&mut out, "", &steps);
    out.detail("max_rate_rps", json_num(max_rate(&steps)));
    out.detail("p99_limit_ms", json_num(P99_LIMIT_MS));
    out.detail("setup_s", json_nums(&setup_times));
    check_shutdown(&mut out, setup);
    out
}

/// The traced run: the three rate steps untraced, then again with the
/// program's obs on, then the per-layer probes.
pub fn trace(seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    harness::start_recording();
    {
        let _root = span("run");
        let setup = {
            let _s = span("bench.setup");
            setup(seed)
        };
        out.metric("data.generate_s", setup.data_s, "s");
        let untraced = {
            let _s = span("bench.untraced_job");
            rate_steps(&setup, seconds / 3.0, seed, false)
        };
        layers::program_obs(true);
        let traced = {
            let _s = span("serve.job");
            rate_steps(&setup, seconds / 3.0, seed, true)
        };
        let snap = bitrobust_obs::snapshot();
        layers::program_obs(false);
        step_details(&mut out, "untraced_", &untraced);
        step_details(&mut out, "traced_", &traced);
        layers::fold_obs(&mut out, &snap);
        out.metric("trace.overhead_ratio", pooled_p50(&traced) / pooled_p50(&untraced), "ratio");
        let submit_us: Vec<f64> = traced.iter().flat_map(|s| s.submit_us.iter().copied()).collect();
        out.metric("serve.submit_us", median(&submit_us), "us");
        let depth = traced.iter().map(|s| s.queue_depth_max).max().unwrap_or(0);
        out.metric("serve.queue_depth_max", depth as f64, "count");
        let mut late: Vec<f64> = traced.iter().flat_map(|s| s.late_ms.iter().copied()).collect();
        late.sort_by(f64::total_cmp);
        out.metric("serve.generator_late_ms", quantile_sorted(&late, 0.99), "ms");

        let (x, y) = &setup.batch;
        layers::nn_infer(&mut out, &setup.model, x);
        layers::nn_train_step(&mut out, &setup.model, x, y);
        check_steps(&mut out, &setup, &untraced);
        check_steps(&mut out, &setup, &traced);
        let _s = span("check.shutdown");
        check_shutdown(&mut out, setup);
    }
    layers::fold_self_times(&mut out, &harness::finish_recording());
    out
}
