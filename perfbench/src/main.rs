//! `perfbench` — the repository's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <train-wide|train-tall|serve-parse|serve-kernel> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! One process runs one workload. Inputs are generated from `--seed`
//! (default [`DEFAULT_SEED`]); the timed phases run for about
//! `--seconds`. With `--trace 0` the last stdout line carries every
//! end-to-end metric; with `--trace 1` a separate, traced run carries
//! every per-layer metric instead, timed from outside around the calls
//! into each layer's public functions. Earlier stdout lines record the
//! host, the seed, both peak-RSS readings and, for traced runs, span
//! coverage and tracing overhead. Why each workload exists and the split
//! it measured are in `perfbench/RATIONALE.md`.
//!
//! The run exits 1 when any output disagrees with its oracle (after
//! printing the result line with `"correct": false`) and 2 on bad usage.

mod host;
mod serve_wl;
mod sink;
mod trace;
mod train_wl;

use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The pinned default workload seed; pass `--seed` to recheck a claim
/// on an unseen one.
const DEFAULT_SEED: u64 = 20_080_407;

/// End-to-end metrics, reported by every untraced run.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("train_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("cold_start_s", "s"),
    ("throughput_rps", "req/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("success_frac", "ratio"),
];

/// Per-layer metrics, reported by every traced run. A layer the
/// workload never calls reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("microarray.synth_s", "s"),
    ("microarray.bmx_open_s", "s"),
    ("discretize.fit_s", "s"),
    ("discretize.transform_s", "s"),
    ("discretize.binarize_us", "us"),
    ("core.bst_build_s", "s"),
    ("core.bst_pairs", "count"),
    ("core.bst_distinct_lists", "count"),
    ("core.bst_arena_bytes", "bytes"),
    ("core.bst_intern_hit_ratio", "ratio"),
    ("core.resub_s", "s"),
    ("core.resub_queries", "count"),
    ("core.compile_s", "s"),
    ("core.compiled_mask_bytes", "bytes"),
    ("core.kernel_us", "us"),
    ("core.pool_lanes", "count"),
    ("core.model_json_s", "s"),
    ("core.model_json_bytes", "bytes"),
    ("serve.bundle_save_s", "s"),
    ("serve.bundle_bytes", "bytes"),
    ("serve.bundle_load_s", "s"),
    ("serde_json.bundle_parse_s", "s"),
    ("serde_json.decode_us", "us"),
    ("serve.encode_us", "us"),
    ("serve.http_other_us", "us"),
    ("serve.batch_size_mean", "jobs"),
    ("serve.batch_wait_us_mean", "us"),
    ("serve.server_p50_us", "us"),
    ("serve.request_errors", "count"),
    ("client.gen_lag_ms_p99", "ms"),
    ("trace.coverage_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// What one run was asked to do.
pub struct Run {
    pub seed: u64,
    /// Budget of the timed phases.
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory inside the checkout; the only place a run
    /// writes, and only during set-up. Removed when the run ends.
    pub workdir: PathBuf,
}

impl Run {
    /// A share of the run's time budget.
    pub fn budget(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * share)
    }
}

/// The operation ledger and metric values of one run.
#[derive(Default)]
pub struct Report {
    attempted: u64,
    failed: u64,
    mismatches: Vec<String>,
    metrics: Vec<(&'static str, f64)>,
}

impl Report {
    /// Records one operation whose output was checked against its
    /// oracle; a failed check is a mismatch, described by `what`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.mismatches.len() < 8 {
                self.mismatches.push(what());
            }
        }
    }

    /// Folds in a batch of operations counted elsewhere.
    pub fn add_ops(&mut self, attempted: u64, failed: u64, mismatches: Vec<String>) {
        self.attempted += attempted;
        self.failed += failed;
        self.mismatches.extend(mismatches);
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.metrics.retain(|(n, _)| *n != name);
        self.metrics.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    pub fn success_frac(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.attempted.max(1) as f64
    }

    /// The result line: exactly the metrics of `table`, in its order.
    fn render(&self, table: &[(&str, &str)]) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.mismatches.is_empty(),
            self.attempted,
            self.failed
        );
        for (i, (name, unit)) in table.iter().enumerate() {
            let value = self.get(name).unwrap_or_else(|| panic!("workload did not measure {name}"));
            let sep = if i == 0 { "" } else { ", " };
            out.push_str(&format!("{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
        }
        out.push_str("}}");
        out
    }
}

/// Median of a sample (upper median for even sizes); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted.get(sorted.len() / 2).copied().unwrap_or(0.0)
}

/// Runs `setup(rep)` several times and returns the last result with the
/// median wall time: at least three times, and more while the total
/// stays under a second, so a short set-up is still a steady median. A
/// traced run, which reports no `setup_s`, sets up once.
pub fn repeat_setup<T>(run: &Run, mut setup: impl FnMut(usize) -> T) -> (T, f64) {
    let least = if run.trace { 1 } else { 3 };
    let started = Instant::now();
    let mut times = Vec::new();
    loop {
        let t = Instant::now();
        let value = setup(times.len());
        times.push(t.elapsed().as_secs_f64());
        let enough = times.len() >= 15 || started.elapsed() >= Duration::from_secs(1);
        if times.len() >= least && (enough || run.trace) {
            return (value, median(&times));
        }
        drop(value);
    }
}

/// Peak resident set (VmHWM) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resets VmHWM to the current RSS, so the next reading is the peak of
/// the measured phase alone, not of set-up. Prints both readings.
pub fn reset_peak_rss() {
    let before = peak_rss_mb();
    if let Err(e) = std::fs::write("/proc/self/clear_refs", "5") {
        eprintln!("perfbench: cannot reset the RSS high-water mark ({e}); peak includes set-up");
    }
    println!("peak_rss_setup_mb {before:.1}");
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

const WORKLOADS: &[&str] = &["train-wide", "train-tall", "serve-parse", "serve-kernel"];

fn main() {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds: f64 = 14.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else { usage(&format!("{flag} needs a value")) };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => {
                seconds = value.parse().unwrap_or_else(|_| usage("bad --seconds"));
                if !seconds.is_finite() || seconds <= 0.0 {
                    usage("--seconds must be a positive number");
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if !WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload {workload}"));
    }

    let workdir = std::env::current_dir()
        .expect("current directory")
        .join(".perfbench-run")
        .join(format!("{workload}-{}", std::process::id()));
    std::fs::create_dir_all(&workdir)
        .unwrap_or_else(|e| panic!("create {}: {e}", workdir.display()));
    // Server logs go to a file in the run's directory: one info line
    // per request on stderr would measure the harness's pipe. Only
    // warnings and errors are written, because timed phases must not
    // touch the filesystem: even rate-limited to 50 lines/s, the
    // per-request info lines stalled requests for 5-40 ms on a 2-core
    // VM and moved serve-kernel's p99 from 2.8 ms to 5-18 ms.
    obs::log::set_file_sink(&workdir.join("server.log"), 8 << 20, 1).expect("open the log sink");
    obs::log::set_level(obs::Level::Warn);

    let run = Run { seed, seconds, trace, workdir };
    println!("host {}", host::record(&workload, seed, seconds, trace));
    let mut report = Report::default();
    match workload.as_str() {
        "train-wide" => train_wl::wide(&run, &mut report),
        "train-tall" => train_wl::tall(&run, &mut report),
        "serve-parse" => serve_wl::parse(&run, &mut report),
        "serve-kernel" => serve_wl::kernel(&run, &mut report),
        _ => unreachable!("workload validated above"),
    }
    obs::log::use_stderr();
    let _ = std::fs::remove_dir_all(&run.workdir);
    let _ = std::fs::remove_dir(run.workdir.parent().expect("workdir has a parent"));

    if trace {
        // A layer the workload never calls reads 0.
        for (name, _) in PER_LAYER {
            if report.get(name).is_none() {
                report.set(name, 0.0);
            }
        }
    } else {
        report.set("success_frac", report.success_frac());
    }
    for m in &report.mismatches {
        eprintln!("perfbench: MISMATCH {m}");
    }
    println!("{}", report.render(if trace { PER_LAYER } else { END_TO_END }));
    if !report.mismatches.is_empty() {
        std::process::exit(1);
    }
}
