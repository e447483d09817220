//! Open-loop load test for the `bitrobust-serve` inference service:
//! generator threads submit single-image requests as fast as admission
//! control lets them (never waiting on responses — submission rate is
//! decoupled from service rate), while a waiter thread redeems tickets
//! and records per-request latency.
//!
//! Running this bench writes a machine-readable `BENCH_serve.json` at the
//! workspace root with sustained requests/sec, p50/p99 latency, and the
//! shed count; CI uploads it as an artifact and sanity-gates the numbers.
//! Before measuring, a sample of responses is checked bit-for-bit against
//! the single-request `reference_response` — the load path must not cost
//! a single byte of the determinism contract.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bitrobust_bench::write_bench_json;
use bitrobust_core::{build, ArchKind, NormKind};
use bitrobust_data::SynthDataset;
use bitrobust_obs::json::JsonWriter;
use bitrobust_serve::{
    reference_response, InferenceService, ModelRegistry, ServeConfig, SubmitError, Ticket,
};
use bitrobust_tensor::Tensor;
use rand::SeedableRng;

/// Generator threads (concurrent synthetic clients).
const CLIENTS: usize = 4;
/// Requests attempted per client.
const REQUESTS_PER_CLIENT: usize = 500;
/// Distinct images cycled through by the generators.
const IMAGE_POOL: usize = 64;

const CONFIG: ServeConfig =
    ServeConfig { queue_capacity: 512, max_batch: 32, max_delay: Duration::from_millis(1) };

fn setup() -> (Arc<ModelRegistry>, Vec<Tensor>) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0);
    let model = build(ArchKind::Mlp, [1, 14, 14], 10, NormKind::Group, &mut rng).model;
    let registry = Arc::new(ModelRegistry::new());
    registry.publish("mlp", model);
    let (_, test) = SynthDataset::Mnist.generate(0);
    let images = (0..IMAGE_POOL).map(|i| test.batch(&[i % test.len()]).0).collect();
    (registry, images)
}

fn percentile_ms(sorted: &[Duration], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((pct / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)].as_secs_f64() * 1e3
}

fn main() {
    // `--obs <spec>` mirrors the experiments CLI (the bench harness is
    // `harness = false`, so arguments pass straight through).
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--obs") {
        let spec = args.get(i + 1).map(String::as_str).unwrap_or("");
        match bitrobust_obs::ObsConfig::parse(spec) {
            Ok(cfg) => bitrobust_obs::init(&cfg.with_env_paths()),
            Err(e) => {
                eprintln!("--obs: {e}");
                std::process::exit(2);
            }
        }
    }
    let (registry, images) = setup();

    // Correctness gate before the clock starts: served bytes == reference.
    {
        let service = InferenceService::start(Arc::clone(&registry), CONFIG);
        let reference_model = registry.get("mlp").unwrap();
        for image in images.iter().take(8) {
            let response = service.infer_blocking("mlp", image.clone()).expect("warm-up submit");
            let expected = reference_response(&reference_model, image);
            assert_eq!(response.prediction, expected.prediction);
            assert_eq!(
                response.confidence.to_bits(),
                expected.confidence.to_bits(),
                "served response must be bit-identical to the single-request reference"
            );
        }
        service.shutdown();
    }

    let service = Arc::new(InferenceService::start(Arc::clone(&registry), CONFIG));
    let (ticket_tx, ticket_rx) = mpsc::channel::<(Instant, Ticket)>();

    let start = Instant::now();
    let waiter = {
        std::thread::spawn(move || {
            let mut latencies: Vec<Duration> = Vec::new();
            while let Ok((submitted, ticket)) = ticket_rx.recv() {
                ticket.wait();
                latencies.push(submitted.elapsed());
            }
            latencies
        })
    };

    let shed = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let service = Arc::clone(&service);
                let ticket_tx = ticket_tx.clone();
                let images = &images;
                scope.spawn(move || {
                    let mut shed = 0u64;
                    for i in 0..REQUESTS_PER_CLIENT {
                        let image = images[(client + CLIENTS * i) % images.len()].clone();
                        match service.submit("mlp", image) {
                            Ok(ticket) => {
                                ticket_tx.send((Instant::now(), ticket)).expect("waiter alive")
                            }
                            Err(SubmitError::Overloaded) => {
                                // Stay open-loop (never wait on responses),
                                // but back off briefly so the run exercises
                                // sustained saturation, not one instant burst.
                                shed += 1;
                                std::thread::sleep(Duration::from_micros(200));
                            }
                            Err(other) => panic!("unexpected rejection: {other}"),
                        }
                    }
                    shed
                })
            })
            .collect();
        clients.into_iter().map(|h| h.join().expect("client thread")).sum::<u64>()
    });
    drop(ticket_tx);

    // Live gauges while the waiter is still redeeming the backlog: the
    // instantaneous view ServeStats now carries alongside the totals.
    let live = service.stats();
    println!(
        "end-of-run gauges: queue_depth={} in_flight={} versions={:?}",
        live.queue_depth, live.in_flight, live.versions
    );

    // Sustained throughput is submissions *through* responses: the clock
    // stops when the last admitted request has been redeemed.
    let mut latencies = waiter.join().expect("waiter thread");
    let elapsed = start.elapsed().as_secs_f64();
    latencies.sort_unstable();

    let stats = Arc::into_inner(service).expect("sole service owner").shutdown();
    assert_eq!(stats.shed, shed, "client-observed sheds must match service accounting");
    assert_eq!(stats.completed + stats.shed, stats.submitted, "no request may be silently dropped");
    assert_eq!(latencies.len() as u64, stats.completed);

    let requests = (CLIENTS * REQUESTS_PER_CLIENT) as u64;
    let rps = stats.completed as f64 / elapsed;
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("bench").str("serve_load").key("arch").str("mlp");
    w.key("clients").uint(CLIENTS as u64).key("requests").uint(requests);
    w.key("completed").uint(stats.completed).key("shed").uint(stats.shed);
    w.key("queue_capacity").uint(CONFIG.queue_capacity as u64);
    w.key("max_batch").uint(CONFIG.max_batch as u64);
    w.key("max_delay_ms").fixed(CONFIG.max_delay.as_secs_f64() * 1e3, 3);
    w.key("threads").uint(bitrobust_tensor::pool_parallelism() as u64);
    w.key("elapsed_secs").fixed(elapsed, 6);
    w.key("requests_per_sec").fixed(rps, 1);
    w.key("p50_ms").fixed(percentile_ms(&latencies, 50.0), 3);
    w.key("p99_ms").fixed(percentile_ms(&latencies, 99.0), 3);
    w.key("bit_identical").bool(true);
    w.end();
    write_bench_json("serve", w);
    for written in bitrobust_obs::finish().expect("write obs output") {
        println!("obs output written to {}", written.display());
    }
}
