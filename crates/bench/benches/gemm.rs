//! Packed GEMM vs the naive reference kernels on the actual layer shapes of
//! the paper's scaled-down models.
//!
//! Shapes (all single-threaded — batch parallelism lives above the kernel):
//!
//! * `fc_head` — the MLP hidden layer as executed by `Linear::forward`
//!   (`x·Wᵀ`, `matmul_nt`): batch 256 × 196 features → 128.
//! * `conv_early/mid/late` — `W·cols` im2col products of the SimpleNet
//!   stack on 16×16 inputs (`matmul`): early layers are wide-and-shallow
//!   (large `oh*ow`, small K), late layers deep-and-narrow.
//!
//! Running this bench writes `BENCH_gemm.json` at the workspace root with
//! naive vs packed GFLOP/s per shape. CI uploads it
//! and fails the build if the packed kernel loses its edge (graded floors,
//! relaxed on 1-thread runners like the other gates).

use bitrobust_bench::{best_of_alternating, write_bench_json};
use bitrobust_obs::json::JsonWriter;
use bitrobust_tensor::{
    matmul, matmul_nt, matmul_nt_reference, matmul_reference, transpose, Tensor,
};
use rand::SeedableRng;

/// Which kernel pair a shape exercises.
#[derive(Clone, Copy, PartialEq)]
enum Variant {
    /// `C = A·B` (the im2col conv product).
    Nn,
    /// `C = A·Bᵀ` (the `Linear` forward product).
    Nt,
}

struct Shape {
    name: &'static str,
    variant: Variant,
    m: usize,
    k: usize,
    n: usize,
}

/// The gated shapes. `fc_head` carries the 2.0× floor; the conv shapes 1.5×.
const SHAPES: &[Shape] = &[
    Shape { name: "fc_head", variant: Variant::Nt, m: 256, k: 196, n: 128 },
    Shape { name: "conv_early", variant: Variant::Nn, m: 16, k: 144, n: 256 },
    Shape { name: "conv_mid", variant: Variant::Nn, m: 32, k: 288, n: 64 },
    Shape { name: "conv_late", variant: Variant::Nn, m: 96, k: 576, n: 16 },
];

/// Builds the operands for a shape: `A: [m, k]` and `B` in the layout the
/// variant's kernel expects (`[k, n]` for NN, `[n, k]` for NT).
fn operands(s: &Shape) -> (Tensor, Tensor) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(42);
    let a = Tensor::rand_uniform(&[s.m, s.k], -1.0, 1.0, &mut rng);
    let b = match s.variant {
        Variant::Nn => Tensor::rand_uniform(&[s.k, s.n], -1.0, 1.0, &mut rng),
        Variant::Nt => Tensor::rand_uniform(&[s.n, s.k], -1.0, 1.0, &mut rng),
    };
    (a, b)
}

fn run_packed(s: &Shape, a: &Tensor, b: &Tensor) -> Tensor {
    match s.variant {
        Variant::Nn => matmul(a, b),
        Variant::Nt => matmul_nt(a, b),
    }
}

fn run_naive(s: &Shape, a: &Tensor, b: &Tensor) -> Tensor {
    match s.variant {
        Variant::Nn => matmul_reference(a, b),
        Variant::Nt => matmul_nt_reference(a, b),
    }
}

/// What the *disabled* obs instrumentation costs relative to the packed
/// kernel: times a burst of off-level `span!` + `counter_add` calls
/// (each a relaxed atomic load and a branch) and scales by the number of
/// obs call sites one `gemm` call executes — the outer kernel span plus
/// one `pack_b` span per `(jc, pc)` cache block. CI gates this below 1%.
fn obs_off_overhead_pct(packed_secs: f64, s: &Shape) -> f64 {
    bitrobust_obs::init(&bitrobust_obs::ObsConfig::off());
    let [per_call_site] = best_of_alternating(
        1,
        1_000_000,
        [&mut || {
            let g = bitrobust_obs::span("bench.obs_off_probe");
            std::hint::black_box(&g);
            bitrobust_obs::counter_add("bench.obs_off_probe", std::hint::black_box(1));
        }],
    );
    let pack_spans =
        s.k.div_ceil(bitrobust_tensor::gemm::KC) * s.n.div_ceil(bitrobust_tensor::gemm::NC);
    per_call_site * (1 + pack_spans) as f64 / packed_secs * 100.0
}

/// Time naive against packed on `s` (sides alternating rep by rep),
/// append the row to the open `shapes` array, and return
/// `(speedup, packed_secs)`.
fn time_row(
    w: &mut JsonWriter,
    s: &Shape,
    naive: &mut dyn FnMut(),
    packed: &mut dyn FnMut(),
) -> (f64, f64) {
    let ops = 2.0 * s.m as f64 * s.k as f64 * s.n as f64;
    // Enough inner iterations to dodge timer granularity.
    let iters = (2e7 / ops).clamp(1.0, 500.0) as usize;
    let [naive_secs, packed_secs] = best_of_alternating(5, iters, [naive, packed]);
    let (naive_rate, packed_rate) = (ops / naive_secs / 1e9, ops / packed_secs / 1e9);
    let speedup = naive_secs / packed_secs;
    w.begin_object();
    w.key("name").str(s.name);
    w.key("variant").str(if s.variant == Variant::Nn { "nn" } else { "nt" });
    w.key("m").uint(s.m as u64).key("k").uint(s.k as u64).key("n").uint(s.n as u64);
    w.key("naive_secs").fixed(naive_secs, 9).key("packed_secs").fixed(packed_secs, 9);
    w.key("naive_gflops").fixed(naive_rate, 3);
    w.key("packed_gflops").fixed(packed_rate, 3);
    w.key("speedup").fixed(speedup, 3);
    w.end();
    (speedup, packed_secs)
}

fn main() {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("bench").str("gemm");
    w.key("threads").uint(bitrobust_tensor::pool_parallelism() as u64);
    w.key("tile").begin_object();
    for (k, v) in [
        ("mr", bitrobust_tensor::gemm::MR),
        ("nr", bitrobust_tensor::gemm::NR),
        ("mc", bitrobust_tensor::gemm::MC),
        ("kc", bitrobust_tensor::gemm::KC),
        ("nc", bitrobust_tensor::gemm::NC),
    ] {
        w.key(k).uint(v as u64);
    }
    w.end();

    let (mut fc_speedup, mut fc_packed_secs) = (f64::NAN, f64::NAN);
    let mut conv_min_speedup = f64::INFINITY;
    w.key("shapes").begin_array();
    for s in SHAPES {
        let (a, b) = operands(s);

        // Correctness first: the packed path must agree with the naive
        // reference (approximately — the reduction shapes differ) and with
        // itself bit-for-bit across repeated calls.
        let packed = run_packed(s, &a, &b);
        let naive = run_naive(s, &a, &b);
        for (x, y) in packed.data().iter().zip(naive.data()) {
            assert!((x - y).abs() <= 1e-3 * x.abs().max(1.0), "packed vs naive: {x} vs {y}");
        }
        assert_eq!(
            packed.data(),
            run_packed(s, &a, &b).data(),
            "packed kernel must be bit-stable across calls"
        );
        // And the explicit-transpose identity for the NT variant.
        if s.variant == Variant::Nt {
            let explicit = matmul(&a, &transpose(&b));
            for (x, y) in packed.data().iter().zip(explicit.data()) {
                assert!((x - y).abs() <= 1e-3 * x.abs().max(1.0), "nt vs explicit: {x} vs {y}");
            }
        }

        let (speedup, packed_secs) =
            time_row(&mut w, s, &mut || drop(run_naive(s, &a, &b)), &mut || {
                drop(run_packed(s, &a, &b))
            });
        if s.name == "fc_head" {
            (fc_speedup, fc_packed_secs) = (speedup, packed_secs);
        } else {
            conv_min_speedup = conv_min_speedup.min(speedup);
        }
    }
    w.end();

    let fc_shape = SHAPES.iter().find(|s| s.name == "fc_head").expect("fc_head shape");
    let obs_overhead = obs_off_overhead_pct(fc_packed_secs, fc_shape);

    w.key("fc_speedup").fixed(fc_speedup, 3);
    w.key("conv_min_speedup").fixed(conv_min_speedup, 3);
    w.key("obs_off_overhead_pct").fixed(obs_overhead, 4);
    w.key("packed_matches_reference").bool(true);
    w.end();
    write_bench_json("gemm", w);
}
