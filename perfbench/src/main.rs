//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload (`sweep_cifar`, `chip_scan_mlp`, `randbet_train`,
//! `serve_open_loop`) on inputs generated from `--seed`, checks its
//! outputs, and prints two JSON lines: a record of the run (workload,
//! seed, machine, per-run details and failed checks), then the result
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones, measured with the program's
//! observability off; with `--trace 1` they are the per-layer ones. See
//! `README.md` beside this crate.

mod harness;
mod layers;
mod serve;
mod sweep;
mod train;

use std::path::PathBuf;

use harness::{json_num, json_str, Args, Outcome};

const WORKLOADS: [&str; 4] = ["sweep_cifar", "chip_scan_mlp", "randbet_train", "serve_open_loop"];

/// The end-to-end metrics every untraced run prints, in order.
const END_TO_END: [&str; 4] = ["setup_s", "throughput_per_s", "latency_p50_ms", "peak_rss_mb"];

fn run(args: &Args, workdir: &std::path::Path) -> Outcome {
    let (seed, seconds) = (args.seed, args.seconds);
    let mut out = match (args.workload.as_str(), args.trace) {
        ("sweep_cifar", false) => sweep::measure(sweep::Kind::Cifar, seed, seconds, workdir),
        ("sweep_cifar", true) => sweep::trace(sweep::Kind::Cifar, seed, workdir),
        ("chip_scan_mlp", false) => sweep::measure(sweep::Kind::ChipScan, seed, seconds, workdir),
        ("chip_scan_mlp", true) => sweep::trace(sweep::Kind::ChipScan, seed, workdir),
        ("randbet_train", false) => train::measure(seed, seconds),
        ("randbet_train", true) => train::trace(seed),
        ("serve_open_loop", false) => serve::measure(seed, seconds),
        ("serve_open_loop", true) => serve::trace(seed, seconds),
        (other, _) => unreachable!("workload {other:?} was validated"),
    };
    if args.trace {
        layers::complete(&mut out);
    } else {
        out.metric("peak_rss_mb", harness::peak_rss_mb(), "MiB");
    }
    out
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) if WORKLOADS.contains(&args.workload.as_str()) => args,
        Ok(args) => {
            eprintln!("unknown workload {:?}; expected one of {WORKLOADS:?}", args.workload);
            std::process::exit(2);
        }
        Err(e) => {
            eprintln!("{e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    // End-to-end figures are measured with the program's obs layer off,
    // whatever BITROBUST_OBS says; traced runs switch it on around the
    // traced job only.
    layers::program_obs(false);
    // Scratch files (sweep stores) live in the working directory, one
    // directory per process, removed before exit.
    let workdir = PathBuf::from(".perfbench_work").join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&workdir).expect("create the scratch directory");
    let mut out = run(&args, &workdir);
    let _ = std::fs::remove_dir_all(&workdir);
    let _ = std::fs::remove_dir(".perfbench_work");

    if !args.trace {
        for name in END_TO_END {
            let count = out.metrics.iter().filter(|m| m.name == name).count();
            if count != 1 {
                out.failed += 1;
                out.failures.push(format!("end-to-end metric {name} reported {count} times"));
            }
        }
    }
    for m in &out.metrics {
        let positive = m.value.is_finite() && (args.trace || m.value > 0.0);
        if !positive {
            out.failed += 1;
            out.failures.push(format!("metric {} is {}", m.name, m.value));
        }
    }
    let correct = out.failed == 0;

    let mut record = format!(
        "{{\"record\":{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"machine\":{}",
        json_str(&args.workload),
        args.seed,
        json_num(args.seconds),
        args.trace,
        harness::machine_record(),
    );
    for (key, json) in &out.details {
        record.push_str(&format!(",{}:{json}", json_str(key)));
    }
    let failures: Vec<String> = out.failures.iter().map(|f| json_str(f)).collect();
    record.push_str(&format!(",\"failures\":[{}]}}}}", failures.join(",")));
    println!("{record}");

    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(",")
    );
    if !correct {
        std::process::exit(1);
    }
}
