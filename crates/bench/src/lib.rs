//! # bitrobust-bench
//!
//! The harness shared by the benches in `benches/` (`gemm`,
//! `robust_eval`, `serve_load`): one timer for the sides of every gated
//! ratio, and one writer for the `BENCH_<name>.json` report CI gates.

#![forbid(unsafe_code)]

use std::time::Instant;

use bitrobust_obs::json::JsonWriter;

/// Best-of-`reps` wall-clock seconds per call for each of `sides`.
///
/// Every rep times each side once, in turn (A, B, A, B, …), so a drift
/// in host speed over the run lands on every side of a ratio alike
/// instead of on whichever side ran last. Each timing runs its side
/// `iters` times back to back and divides, to rise above timer
/// granularity on sub-millisecond kernels.
pub fn best_of_alternating<const N: usize>(
    reps: usize,
    iters: usize,
    mut sides: [&mut dyn FnMut(); N],
) -> [f64; N] {
    let mut best = [f64::INFINITY; N];
    for _ in 0..reps {
        for (side, best) in sides.iter_mut().zip(&mut best) {
            let start = Instant::now();
            for _ in 0..iters {
                side();
            }
            *best = best.min(start.elapsed().as_secs_f64() / iters as f64);
        }
    }
    best
}

/// Write the finished `doc` to `BENCH_<name>.json` at the workspace root
/// and print it.
pub fn write_bench_json(name: &str, doc: JsonWriter) {
    let path = format!("{}/../../BENCH_{name}.json", env!("CARGO_MANIFEST_DIR"));
    let json = doc.finish();
    std::fs::write(&path, &json).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("{name} bench report written to {path}:\n{json}");
}
