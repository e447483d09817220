//! Measurement plumbing shared by every workload: the command line, the
//! result record, order statistics, the in-memory span recorder of the
//! traced mode, and the machine record.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// The parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    /// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
    pub fn parse(args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut workload = None;
        let (mut seed, mut seconds, mut trace) = (0u64, 10.0f64, false);
        let mut args = args;
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
                "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(&"expected 0 or 1")),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if !(seconds > 0.0 && seconds.is_finite()) {
            return Err(format!("--seconds must be positive, got {seconds}"));
        }
        let workload = workload.ok_or("--workload is required")?;
        Ok(Self { workload, seed, seconds, trace })
    }
}

/// One named measurement with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload run returns: its output checks, its metrics, and the
/// details that go into the record line (per-rate figures and the like).
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Descriptions of the output checks that failed.
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Extra `"key": <json>` members of the record line.
    pub details: Vec<(String, String)>,
}

impl Outcome {
    /// Records one output check.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what.into());
        }
    }

    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name: name.into(), value, unit });
    }

    pub fn detail(&mut self, key: impl Into<String>, json: String) {
        self.details.push((key.into(), json));
    }
}

/// Renders a finite number for JSON; non-finite values become `null`,
/// which the result check in `main` treats as a failure.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Renders a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders a JSON array of numbers.
pub fn json_nums(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|&v| json_num(v)).collect();
    format!("[{}]", items.join(","))
}

/// The median (mean of the middle two for even lengths).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The nearest-rank `q`-quantile (`0 < q <= 1`) of an ascending slice.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of nothing");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Times `f`, returning its result and the elapsed seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed().as_secs_f64())
}

/// The median elapsed seconds of `reps` calls of `f`.
pub fn median_time(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps).map(|_| timed(&mut f).1).collect();
    median(&times)
}

/// Repeats `job` until at least `min_reps` runs and `seconds` of wall time
/// have passed, returning each run's result and seconds.
pub fn repeat_for<R>(seconds: f64, min_reps: usize, mut job: impl FnMut() -> R) -> Vec<(R, f64)> {
    let start = Instant::now();
    let mut runs = Vec::new();
    while runs.len() < min_reps || start.elapsed().as_secs_f64() < seconds {
        runs.push(timed(&mut job));
    }
    runs
}

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// Runs `setup` [`SETUPS`] times, keeping the last result (earlier ones
/// are dropped) and every run's seconds.
pub fn repeated_setup<S>(mut setup: impl FnMut() -> S) -> (S, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let (s, dt) = timed(&mut setup);
        times.push(dt);
        last = Some(s);
    }
    (last.expect("SETUPS > 0"), times)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

// ---------------------------------------------------------------------------
// Traced mode: spans recorded by the benchmark around its calls into each
// layer, kept in memory on the calling thread and folded at the end.

struct SpanRecord {
    name: &'static str,
    start: Instant,
    end: Option<Instant>,
    parent: Option<usize>,
}

#[derive(Default)]
struct Recorder {
    spans: Vec<SpanRecord>,
    open: Vec<usize>,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Starts recording spans on this thread (a no-op recorder is the default,
/// so untraced runs pay one thread-local check per span).
pub fn start_recording() {
    RECORDER.with(|r| *r.borrow_mut() = Some(Recorder::default()));
}

/// Ends the span when dropped.
pub struct Span {
    index: Option<usize>,
}

/// Opens a span named `<module>.<what>` under the innermost open span.
pub fn span(name: &'static str) -> Span {
    let index = RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let rec = r.as_mut()?;
        let index = rec.spans.len();
        let parent = rec.open.last().copied();
        rec.spans.push(SpanRecord { name, start: Instant::now(), end: None, parent });
        rec.open.push(index);
        Some(index)
    });
    Span { index }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(index) = self.index else { return };
        RECORDER.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                rec.spans[index].end = Some(Instant::now());
                let popped = rec.open.pop();
                debug_assert_eq!(popped, Some(index), "spans must close innermost first");
            }
        });
    }
}

/// Self time per module folded from the recorded spans.
#[derive(Debug)]
pub struct SelfTimes {
    /// Wall time of the root span.
    pub wall_s: f64,
    /// The root span's own time: work no layer span covers.
    pub unattributed_s: f64,
    /// `<module>` (the span name up to its first `.`) → summed self time.
    pub modules: BTreeMap<String, f64>,
}

impl SelfTimes {
    /// `wall - (unattributed + Σ module self times)`: zero up to rounding
    /// when every span nests inside the root.
    pub fn reconcile_error_s(&self) -> f64 {
        self.wall_s - self.unattributed_s - self.modules.values().sum::<f64>()
    }
}

/// Stops recording and folds the spans: each span's self time is its
/// duration minus the durations of its direct children (children never
/// overlap, since they run one after another on this thread). The first
/// span recorded must be the root, closed before this call.
///
/// # Panics
///
/// Panics if recording was not started or a span is still open.
pub fn finish_recording() -> SelfTimes {
    let rec = RECORDER.with(|r| r.borrow_mut().take()).expect("recording was not started");
    assert!(
        rec.open.is_empty(),
        "span {:?} still open",
        rec.open.last().map(|&i| rec.spans[i].name)
    );
    let dur: Vec<f64> = rec
        .spans
        .iter()
        .map(|s| s.end.expect("closed").duration_since(s.start).as_secs_f64())
        .collect();
    let mut own = dur.clone();
    for (i, s) in rec.spans.iter().enumerate() {
        if let Some(p) = s.parent {
            own[p] -= dur[i];
        }
    }
    let mut modules = BTreeMap::new();
    for (i, s) in rec.spans.iter().enumerate().skip(1) {
        assert!(s.parent.is_some(), "span {:?} lies outside the root span", s.name);
        let module = s.name.split('.').next().unwrap_or(s.name);
        *modules.entry(module.to_string()).or_insert(0.0) += own[i];
    }
    SelfTimes { wall_s: dur[0], unattributed_s: own[0], modules }
}

// ---------------------------------------------------------------------------
// The machine record.

/// CPU model, core counts, the pool's width, the raw thread override, the
/// SIMD extensions the kernels can dispatch to, and the commit measured —
/// as a JSON object.
pub fn machine_record() -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let field = |key: &str| {
        cpuinfo
            .lines()
            .find(|l| l.split(':').next().is_some_and(|k| k.trim() == key))
            .and_then(|l| l.split_once(':'))
            .map(|(_, v)| v.trim().to_string())
            .unwrap_or_default()
    };
    let flags = field("flags");
    let has = |flag: &str| flags.split_whitespace().any(|f| f == flag);
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let threads_env =
        std::env::var("BITROBUST_THREADS").map_or("null".to_string(), |v| json_str(&v));
    format!(
        "{{\"cpu\":{},\"nproc\":{},\"pool_parallelism\":{},\"bitrobust_threads\":{},\
         \"avx2\":{},\"avx512f\":{},\"avx_vnni\":{},\"avx512_vnni\":{},\"commit\":{}}}",
        json_str(&field("model name")),
        nproc,
        bitrobust_tensor::pool_parallelism(),
        threads_env,
        has("avx2"),
        has("avx512f"),
        has("avx_vnni"),
        has("avx512_vnni"),
        json_str(&commit()),
    )
}

/// The checked-out commit, read from `.git` without running git;
/// `"unknown"` outside a git checkout.
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(".git/HEAD") else { return "unknown".to_string() };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    if let Some(hash) = read(&format!(".git/{reference}")) {
        return hash;
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                l.strip_suffix(reference).map(|h| h.trim().to_string()).filter(|h| !h.is_empty())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Sleeps until `deadline` (returns at once if it has passed).
pub fn sleep_until(deadline: Instant) {
    let now = Instant::now();
    if deadline > now {
        std::thread::sleep(deadline - now);
    }
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
