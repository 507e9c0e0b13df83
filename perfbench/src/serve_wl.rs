//! The serving workloads: single-row `POST /classify` over loopback
//! keep-alive connections to an in-process `serve::serve` server.
//!
//! Load comes from at most two client threads, one connection each:
//! a closed loop (each client sends its next request when the previous
//! answer arrives) for `throughput_rps`, and an open loop at the
//! workload's fixed rate for `latency_*`, where each request is timed
//! from when it was due, so a stall also charges the requests queued
//! behind it. Every answer must carry the class that
//! the in-process `ModelBundle::classify_row` gives for that row.

use crate::sink::serialize;
use crate::trace::Tracer;
use crate::train_wl::{bst_counters, coverage, finish, generate_split, report_bst_counters};
use crate::{median, repeat_setup, reset_peak_rss, Report, Run};
use bstc::{ParBatchScratch, Scratch};
use microarray::synth::{presets, SynthConfig};
use serve::{serve, ModelBundle, Provenance, ServerConfig, ServerHandle};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};

/// Client threads and connections: one per core of the two-core host
/// the rates were set for; more clients would only measure the client.
const CLIENTS: usize = 2;

/// One workload's shape.
struct Shape {
    name: &'static str,
    cfg: SynthConfig,
    /// Held-out rows per class; they are the request bodies.
    rows_per_class: usize,
    /// Open-loop arrival rate: low enough that a request is usually
    /// answered before the next falls due. At half the closed-loop
    /// capacity a few milliseconds of host noise built a queue and the
    /// p99 swung by an order of magnitude; where requests still
    /// overlapped often, a run's p99 sat at one of two levels ~50 %
    /// apart by the luck of the two clients' phase.
    rate: f64,
    /// When set, the cold start loads a bundle file written in set-up,
    /// and set-up trains [`CANDIDATES`] models on data from seeds derived
    /// from `--seed`, keeping the one whose bundle size is closest to
    /// this many bytes. The bundle parse is quadratic in string bytes,
    /// so an uncontrolled size (±20 % across seeds at 30 samples) would
    /// swing the cold start by ±40 %.
    bundle_bytes: Option<u64>,
}

/// Rounds of (cold start, closed-loop slice, open-loop window).
const ROUNDS: usize = 5;

/// Candidate serving models a size-targeted set-up chooses among.
const CANDIDATES: u64 = 32;

/// `serve-parse`: all 7,129 ALL/AML genes per request (~126 KB bodies)
/// against a 30-sample model, so reading and decoding the request
/// dominate; the cold start loads the bundle file.
pub fn parse(run: &Run, report: &mut Report) {
    let mut cfg = presets::all_aml(run.seed);
    cfg.class_sizes = vec![10, 20];
    let shape = Shape {
        name: "serve-parse",
        cfg,
        rows_per_class: 8,
        rate: 600.0,
        bundle_bytes: Some(560_000),
    };
    workload(run, report, &shape);
}

/// `serve-kernel`: ~7 KB bodies (445 genes) against a 300-sample model,
/// so the batched compiled kernel dominates; the bundle is handed to
/// `serve()` in-process.
pub fn kernel(run: &Run, report: &mut Report) {
    let mut cfg = presets::all_aml(run.seed).scaled_down(16);
    cfg.class_sizes = vec![105, 195];
    let shape =
        Shape { name: "serve-kernel", cfg, rows_per_class: 32, rate: 320.0, bundle_bytes: None };
    workload(run, report, &shape);
}

/// A set-up candidate: how far its bundle is from the size target, the
/// bundle, its request rows, and the BST counters around its build.
struct Candidate {
    miss: u64,
    bundle: ModelBundle,
    rows: Vec<Vec<f64>>,
    counters: ([u64; 3], [u64; 3]),
}

/// Request rows, their ready-to-send HTTP requests and expected classes.
struct Pool {
    rows: Vec<Vec<f64>>,
    bodies: Vec<String>,
    requests: Vec<Vec<u8>>,
    expected: Vec<usize>,
}

impl Pool {
    /// Builds the requests and checks the compiled kernel against the
    /// reference BSTCE evaluator (Algorithm 5) on every row.
    fn new(bundle: &ModelBundle, rows: Vec<Vec<f64>>, report: &mut Report) -> Pool {
        let mut scratch = Scratch::new();
        let compiled = bundle.compiled();
        let mut expected = Vec::new();
        let mut bodies = Vec::new();
        let mut requests = Vec::new();
        for row in &rows {
            let query = bundle.query_for_row(row).expect("row width matches the model");
            let reference = bundle.model.class_values(&query);
            let fast = compiled.class_values(&query, &mut scratch);
            let same = reference.iter().zip(&fast).all(|(a, b)| a.to_bits() == b.to_bits());
            report.check(same && reference.len() == fast.len(), || {
                format!("compiled {fast:?} != reference {reference:?}")
            });
            expected.push(bundle.classify_row(row).expect("row width matches").class);
            let values: Vec<String> = row.iter().map(|v| v.to_string()).collect();
            let body = format!("{{\"values\":[{}]}}", values.join(","));
            let mut request = format!(
                "POST /classify HTTP/1.1\r\nhost: perfbench\r\ncontent-type: application/json\r\n\
                 content-length: {}\r\n\r\n",
                body.len()
            )
            .into_bytes();
            request.extend_from_slice(body.as_bytes());
            bodies.push(body);
            requests.push(request);
        }
        Pool { rows, bodies, requests, expected }
    }

    /// The row sent as request `i` of a phase: a fixed stride through
    /// the pool, so consecutive requests differ.
    fn pick(&self, i: usize) -> usize {
        (i * 7 + 3) % self.rows.len()
    }
}

fn start(bundle: ModelBundle) -> ServerHandle {
    serve(ServerConfig { addr: "127.0.0.1:0".into(), ..ServerConfig::default() }, bundle)
        .expect("start the server")
}

fn workload(run: &Run, report: &mut Report, shape: &Shape) {
    let tracer = Tracer::new(run.trace, shape.name);
    let mut train_times = Vec::new();
    let ((bundle, rows, path), setup_s) = repeat_setup(run, |i| {
        let seeds = match shape.bundle_bytes {
            Some(_) => (0..CANDIDATES).map(|j| run.seed.wrapping_mul(CANDIDATES) + j).collect(),
            None => vec![run.seed],
        };
        let mut best: Option<Candidate> = None;
        for seed in seeds {
            let cfg = SynthConfig { seed, ..shape.cfg.clone() };
            let (data, rows) =
                tracer.span("microarray.synth", i, || generate_split(&cfg, shape.rows_per_class));
            let t = Instant::now();
            let before = bst_counters();
            let bundle = tracer
                .span("serve.bundle_train", i, || {
                    ModelBundle::train(&data, Provenance::new(shape.name, Some(seed)))
                })
                .expect("the serving model trains");
            train_times.push(t.elapsed().as_secs_f64());
            let after = bst_counters();
            let miss = shape.bundle_bytes.map_or(0, |target| {
                let (bytes, _) = serialize(|w| bundle.save_to_writer(w).map_err(io::Error::other))
                    .expect("in-memory save");
                bytes.abs_diff(target)
            });
            if best.as_ref().is_none_or(|b| miss < b.miss) {
                best = Some(Candidate { miss, bundle, rows, counters: (before, after) });
            }
        }
        let Candidate { miss, bundle, rows, counters } = best.expect("at least one candidate");
        report_bst_counters(report, counters.0, counters.1);
        // A new file per set-up, as on `train-tall`.
        let path = run.workdir.join(format!("bundle-{i}.json"));
        if let Some(target) = shape.bundle_bytes {
            println!("serving bundle: {miss} bytes from the {target}-byte target");
            tracer.span("serve.bundle_save", i, || bundle.save(&path)).expect("save the bundle");
        }
        (bundle, rows, path)
    });
    report.set("setup_s", setup_s);
    report.set("train_s", median(&train_times));
    report.set("microarray.synth_s", median(&tracer.per_iter("microarray.synth")));
    let pool = Pool::new(&bundle, rows, report);
    reset_peak_rss();

    // Rounds interleave the phases, so a burst of host noise lands in
    // one round's share of each metric, and medians over rounds drop it.
    let server = start(bundle.clone());
    let addr = server.addr();
    closed_loop(addr, &pool, Duration::from_millis(500)).fold_into(report);
    let before = scrape(addr);
    let (mut cold, mut rates, mut open) = (Vec::new(), Vec::new(), Load::default());
    // An in-memory cold start takes milliseconds: repeat it per round.
    let cold_per_round = if shape.bundle_bytes.is_some() { 1 } else { 5 };
    for _ in 0..ROUNDS {
        for _ in 0..cold_per_round {
            cold.push(cold_start(report, shape, &bundle, &pool, &path));
        }
        if !run.trace {
            let closed = closed_loop(addr, &pool, run.budget(0.05));
            rates.push(closed.done as f64 / closed.elapsed.as_secs_f64());
            closed.fold_into(report);
        }
        open.merge(open_loop(addr, &pool, shape.rate, run.budget(0.2)));
    }
    let after = scrape(addr);
    server.shutdown();
    report.set("cold_start_s", median(&cold));
    report.set("throughput_rps", median(&rates));
    let (p50_ms, p99_ms, windows) = windowed_percentiles(&open.lat_ns);
    report.set("latency_p50_ms", p50_ms);
    report.set("latency_p99_ms", p99_ms);
    let mut lag = open.lag_ns.clone();
    lag.sort_unstable();
    let lag_p99_ms = obs::percentile_of_sorted(&lag, 0.99) as f64 * 1e-6;
    println!(
        "open loop at {} req/s: {} samples in {windows} windows, p50 {p50_ms:.4} ms, \
         p99 {p99_ms:.4} ms, generator lag p99 {lag_p99_ms:.4} ms",
        shape.rate,
        open.lat_ns.len()
    );
    open.fold_into(report);

    if run.trace {
        report.set("client.gen_lag_ms_p99", lag_p99_ms);
        server_side(report, &before, &after);
        traced_cold_starts(report, &tracer, shape, &bundle, &pool, &path, median(&cold));
        replay_layers(run, report, &tracer, &bundle, &pool, p50_ms * 1e3);
    }
    finish(run, report, &tracer, shape.name);
}

/// The cold start's first request, checked.
fn first_answer(report: &mut Report, server: &ServerHandle, pool: &Pool) {
    let answer = Conn::connect(server.addr()).and_then(|mut c| c.send(&pool.requests[0]));
    let ok = matches!(answer, Ok((200, Some(c))) if c == pool.expected[0]);
    report.check(ok, || format!("cold-start answer {answer:?}"));
}

/// A bundle for a cold start: loaded from the set-up file, or, for
/// the in-memory hand-off, a clone with its compiled form dropped
/// (cloned outside the timed region).
fn fresh_bundle(shape: &Shape, bundle: &ModelBundle, path: &Path) -> ModelBundle {
    if shape.bundle_bytes.is_some() {
        ModelBundle::load(path).expect("load the bundle")
    } else {
        let fresh = bundle.clone();
        fresh.evict_compiled();
        fresh
    }
}

/// One `cold_start_s` sample: from a bundle (the file written in
/// set-up, or the in-memory bundle) to the first correct `/classify`
/// answer, including the lazy compile.
fn cold_start(
    report: &mut Report,
    shape: &Shape,
    bundle: &ModelBundle,
    pool: &Pool,
    path: &Path,
) -> f64 {
    let in_memory = shape.bundle_bytes.is_none().then(|| fresh_bundle(shape, bundle, path));
    let t = Instant::now();
    let b = in_memory.unwrap_or_else(|| fresh_bundle(shape, bundle, path));
    let server = start(b);
    first_answer(report, &server, pool);
    let secs = t.elapsed().as_secs_f64();
    server.shutdown();
    secs
}

/// Cold starts with each layer in its own span (the compile called
/// explicitly before `serve()`), checked against the untraced median.
fn traced_cold_starts(
    report: &mut Report,
    tracer: &Tracer,
    shape: &Shape,
    bundle: &ModelBundle,
    pool: &Pool,
    path: &Path,
    cold: f64,
) {
    for i in 0..2 {
        let in_memory = shape.bundle_bytes.is_none().then(|| fresh_bundle(shape, bundle, path));
        let server = tracer.span("serve.cold_start", i, || {
            let b = in_memory.unwrap_or_else(|| {
                tracer.span("serve.bundle_load", i, || fresh_bundle(shape, bundle, path))
            });
            let compiled = tracer.span("core.compile", i, || b.compiled());
            report.set("core.compiled_mask_bytes", compiled.mask_bytes() as f64);
            let server = tracer.span("serve.start", i, || start(b));
            tracer.span("serve.first_request", i, || first_answer(report, &server, pool));
            server
        });
        server.shutdown();
    }
    report.set("core.compile_s", median(&tracer.per_iter("core.compile")));
    let traced = median(&tracer.total_per_iter("serve.cold_start"));
    report.set("trace.overhead_frac", traced / cold - 1.0);
    println!("tracing overhead: traced cold start {traced:.6} s vs untraced {cold:.6} s");
    let layers = ["serve.bundle_load", "core.compile", "serve.start", "serve.first_request"];
    let covered: f64 = layers.iter().map(|l| median(&tracer.per_iter(l))).sum();
    coverage(report, "cold_start_s", covered, cold);
    if shape.bundle_bytes.is_none() {
        // No file on this path: the bundle's size and save time, in memory.
        for i in 0..2 {
            let (bytes, _) = tracer
                .span("serve.bundle_save", i, || {
                    serialize(|w| bundle.save_to_writer(w).map_err(io::Error::other))
                })
                .expect("in-memory save");
            report.set("serve.bundle_bytes", bytes as f64);
        }
        report.set("serve.bundle_save_s", median(&tracer.per_iter("serve.bundle_save")));
    } else {
        report.set("serve.bundle_load_s", median(&tracer.per_iter("serve.bundle_load")));
        report.set("serve.bundle_bytes", std::fs::metadata(path).map_or(0, |m| m.len()) as f64);
        report.set("serve.bundle_save_s", median(&tracer.per_iter("serve.bundle_save")));
        // The JSON parse inside the load, replayed on its own.
        let text = std::fs::read_to_string(path).expect("read the bundle");
        for i in 0..2 {
            let parsed = tracer.span("serde_json.bundle_parse", i, || {
                serde_json::from_str::<serde_json::Value>(&text)
            });
            report.check(parsed.is_ok(), || "bundle text parses".into());
        }
        let parse_s = median(&tracer.per_iter("serde_json.bundle_parse"));
        report.set("serde_json.bundle_parse_s", parse_s);
        println!("cold start split: bundle_parse is {:.4} of cold_start_s", parse_s / cold);
    }
}

/// Replays each layer a `/classify` request crosses on the pool rows,
/// one span per layer per pass over the pool: JSON decode, binarize,
/// compiled kernel, response encode. What the client's p50 leaves over
/// is the event loop, socket I/O, queueing and the batcher.
fn replay_layers(
    run: &Run,
    report: &mut Report,
    tracer: &Tracer,
    bundle: &ModelBundle,
    pool: &Pool,
    client_p50_us: f64,
) {
    let compiled = bundle.compiled();
    let lanes = bstc::pool::global();
    let mut scratch = ParBatchScratch::new();
    let budget = run.budget(0.2);
    let started = Instant::now();
    let mut pass = 0;
    while pass < 3 || started.elapsed() < budget {
        let rows: Vec<Vec<f64>> = tracer.span("serde_json.decode", pass, || {
            pool.bodies.iter().map(|b| decode(b).expect("a pool body decodes")).collect()
        });
        let queries: Vec<_> = tracer.span("discretize.binarize", pass, || {
            rows.iter().map(|r| bundle.query_for_row(r).expect("row width matches")).collect()
        });
        let values: Vec<Vec<f64>> = tracer.span("core.kernel", pass, || {
            queries
                .iter()
                .map(|q| {
                    compiled.class_values_batch_par_into(
                        std::slice::from_ref(q),
                        lanes,
                        &mut scratch,
                    );
                    scratch.values_of(0).to_vec()
                })
                .collect()
        });
        let encoded: Vec<String> = tracer
            .span("serve.encode", pass, || values.iter().map(|v| encode(bundle, v)).collect());
        for (k, text) in encoded.iter().enumerate() {
            let class = class_of(text.as_bytes());
            report
                .check(class == Some(pool.expected[k]), || format!("replayed row {k}: {class:?}"));
        }
        pass += 1;
    }
    let n = pool.rows.len() as f64;
    let mut explicit = 0.0;
    for (span, metric) in [
        ("serde_json.decode", "serde_json.decode_us"),
        ("discretize.binarize", "discretize.binarize_us"),
        ("core.kernel", "core.kernel_us"),
        ("serve.encode", "serve.encode_us"),
    ] {
        let us = median(&tracer.per_iter(span)) / n * 1e6;
        explicit += us;
        report.set(metric, us);
    }
    let other = client_p50_us - explicit;
    report.set("serve.http_other_us", other);
    report.set("core.pool_lanes", lanes.lanes() as f64);
    println!("latency split: explicit layers {explicit:.2} us, http_other {other:.2} us");
    coverage(report, "latency_p50_ms", explicit + other.max(0.0), client_p50_us);
}

/// The server's request decode: JSON text to the row of values.
fn decode(body: &str) -> Option<Vec<f64>> {
    let value: serde_json::Value = serde_json::from_str(body).ok()?;
    value.get("values")?.as_array()?.iter().map(|v| v.as_f64()).collect()
}

/// The server's response encode for one prediction.
fn encode(bundle: &ModelBundle, values: &[f64]) -> String {
    let prediction = bundle.prediction_from_values(values);
    let body = serde_json::json!({ "prediction": prediction });
    serde_json::to_string(&body).expect("a prediction serializes")
}

/// Open-loop p50 and p99 in ms: split the requests, in send order, into
/// windows of at least 1,000 (so each p99 has ten samples beyond it),
/// and take the median of each percentile over the windows. A burst of
/// host noise then moves one window's p99, not the reported one.
fn windowed_percentiles(lat_ns: &[u64]) -> (f64, f64, usize) {
    let windows = (lat_ns.len() / 1000).max(1);
    let size = lat_ns.len().div_ceil(windows);
    let (mut p50, mut p99) = (Vec::new(), Vec::new());
    for window in lat_ns.chunks(size) {
        let mut sorted = window.to_vec();
        sorted.sort_unstable();
        p50.push(obs::percentile_of_sorted(&sorted, 0.5) as f64 * 1e-6);
        p99.push(obs::percentile_of_sorted(&sorted, 0.99) as f64 * 1e-6);
    }
    (median(&p50), median(&p99), windows)
}

/// Counters from the server's `/metrics`, differenced over the open loop.
fn server_side(report: &mut Report, before: &Scrape, after: &Scrape) {
    let delta = |series: &str| after.value(series) - before.value(series);
    let mean = |family: &str| {
        let n = delta(&format!("{family}_count"));
        if n > 0.0 {
            delta(&format!("{family}_sum")) / n
        } else {
            0.0
        }
    };
    report.set("serve.batch_size_mean", mean("bstc_batch_size"));
    report.set("serve.batch_wait_us_mean", mean("bstc_batch_wait_us"));
    report.set("serve.request_errors", delta("bstc_request_errors_total{route=\"/classify\"}"));
    let family = "bstc_request_duration_us_bucket{route=\"/classify\",le=\"";
    let buckets = |s: &Scrape| -> Vec<(f64, f64)> {
        s.lines_with(family)
            .filter_map(|(le, v)| {
                Some((if le == "+Inf" { f64::INFINITY } else { le.parse().ok()? }, v))
            })
            .collect()
    };
    let (b0, b1) = (buckets(before), buckets(after));
    let cum = |b: &[(f64, f64)], le: f64| {
        b.iter().filter(|(l, _)| *l <= le).map(|(_, v)| *v).fold(0.0, f64::max)
    };
    let total = cum(&b1, f64::INFINITY) - cum(&b0, f64::INFINITY);
    let p50 = b1
        .iter()
        .find(|(le, _)| cum(&b1, *le) - cum(&b0, *le) > total * 0.5)
        .map_or(0.0, |(le, _)| *le);
    report.set("serve.server_p50_us", if p50.is_finite() { p50 } else { 0.0 });
}

/// One scrape of `/metrics`.
struct Scrape {
    text: String,
}

impl Scrape {
    fn value(&self, series: &str) -> f64 {
        self.text
            .lines()
            .find_map(|l| l.strip_prefix(series).and_then(|v| v.strip_prefix(' ')))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0.0)
    }

    /// `(le, value)` of each bucket line starting with `prefix` (which
    /// ends just before the `le` value).
    fn lines_with<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = (&'a str, f64)> + 'a {
        self.text.lines().filter_map(move |l| {
            let rest = l.strip_prefix(prefix)?;
            let (le, value) = rest.split_once("\"} ")?;
            Some((le, value.trim().parse().ok()?))
        })
    }
}

fn scrape(addr: SocketAddr) -> Scrape {
    let fetch = || -> io::Result<String> {
        let mut stream = TcpStream::connect(addr)?;
        stream.write_all(b"GET /metrics HTTP/1.0\r\nhost: perfbench\r\n\r\n")?;
        let mut text = String::new();
        stream.read_to_string(&mut text)?;
        Ok(text)
    };
    Scrape { text: fetch().expect("scrape /metrics") }
}

/// A keep-alive client connection.
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Conn { stream, buf: Vec::with_capacity(64 << 10) })
    }

    /// Sends one request and reads the answer: `(status, class)`.
    fn send(&mut self, request: &[u8]) -> io::Result<(u16, Option<usize>)> {
        self.stream.write_all(request)?;
        self.buf.clear();
        let mut chunk = [0u8; 16 << 10];
        // (body length, body start, status) once the head is in.
        let mut head: Option<(usize, usize, u16)> = None;
        loop {
            if head.is_none() {
                if let Some(end) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                    let (len, status) = parse_head(&self.buf[..end])?;
                    head = Some((len, end + 4, status));
                }
            }
            if let Some((len, start, status)) = head {
                if self.buf.len() >= start + len {
                    return Ok((status, class_of(&self.buf[start..start + len])));
                }
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }
}

/// `(content length, status)` of a response head.
fn parse_head(head: &[u8]) -> io::Result<(usize, u16)> {
    let text = std::str::from_utf8(head).map_err(io::Error::other)?;
    let bad = || io::Error::other(format!("bad response head: {text}"));
    let status = text.split(' ').nth(1).and_then(|s| s.parse().ok()).ok_or_else(bad)?;
    let len = text
        .lines()
        .find_map(|l| {
            let (k, v) = l.split_once(':')?;
            k.eq_ignore_ascii_case("content-length").then(|| v.trim().parse().ok())?
        })
        .ok_or_else(bad)?;
    Ok((len, status))
}

/// The `class` field of a `/classify` answer.
fn class_of(body: &[u8]) -> Option<usize> {
    let key = b"\"class\":";
    let at = body.windows(key.len()).position(|w| w == key)? + key.len();
    let digits: Vec<u8> = body[at..].iter().copied().take_while(u8::is_ascii_digit).collect();
    std::str::from_utf8(&digits).ok()?.parse().ok()
}

/// Outcome of one load phase.
#[derive(Default)]
struct Load {
    done: u64,
    failed: u64,
    mismatches: Vec<String>,
    lat_ns: Vec<u64>,
    lag_ns: Vec<u64>,
    elapsed: Duration,
}

impl Load {
    fn fold_into(self, report: &mut Report) {
        report.add_ops(self.done + self.failed, self.failed, self.mismatches);
    }

    fn merge(&mut self, other: Load) {
        self.done += other.done;
        self.failed += other.failed;
        self.mismatches.extend(other.mismatches);
        self.lat_ns.extend(other.lat_ns);
        self.lag_ns.extend(other.lag_ns);
    }

    /// Sends request `i` on `conn` (reconnecting after an I/O error)
    /// and books the outcome; a wrong class is a mismatch. Returns
    /// whether the answer was correct.
    fn one(&mut self, conn: &mut Option<Conn>, addr: SocketAddr, pool: &Pool, i: usize) -> bool {
        let k = pool.pick(i);
        if conn.is_none() {
            *conn = Conn::connect(addr).ok();
        }
        let outcome = conn.as_mut().map(|c| c.send(&pool.requests[k]));
        match outcome {
            Some(Ok((200, class))) if class == Some(pool.expected[k]) => {
                self.done += 1;
                return true;
            }
            Some(Ok((200, class))) => {
                self.failed += 1;
                if self.mismatches.len() < 4 {
                    self.mismatches.push(format!(
                        "row {k}: served class {class:?}, in-process {}",
                        pool.expected[k]
                    ));
                }
            }
            Some(Ok(_)) => self.failed += 1,
            Some(Err(_)) | None => {
                self.failed += 1;
                *conn = None;
            }
        }
        false
    }
}

/// Each client sends its next request as soon as the previous answer
/// arrives, for `duration`.
fn closed_loop(addr: SocketAddr, pool: &Pool, duration: Duration) -> Load {
    let started = Instant::now();
    let mut total = std::thread::scope(|s| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                s.spawn(move || {
                    let mut load = Load::default();
                    let mut conn = None;
                    let mut i = c;
                    while started.elapsed() < duration {
                        load.one(&mut conn, addr, pool, i);
                        i += CLIENTS;
                    }
                    load
                })
            })
            .collect();
        let mut total = Load::default();
        for client in clients {
            total.merge(client.join().expect("client thread"));
        }
        total
    });
    total.elapsed = started.elapsed();
    total
}

/// Requests fall due at `rate` per second for `duration`; client `c`
/// sends every `CLIENTS`-th one. Latency runs from the due time, and a
/// failed request counts as slower than any answer; generator lag is
/// how late each send started.
fn open_loop(addr: SocketAddr, pool: &Pool, rate: f64, duration: Duration) -> Load {
    let n = (rate * duration.as_secs_f64()) as usize;
    let started = Instant::now() + Duration::from_millis(5);
    let mut total = std::thread::scope(|s| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                s.spawn(move || {
                    let mut load = Load::default();
                    let mut conn = Conn::connect(addr).ok();
                    for i in (c..n).step_by(CLIENTS) {
                        let due = started + Duration::from_secs_f64(i as f64 / rate);
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        load.lag_ns.push(due.elapsed().as_nanos() as u64);
                        let ok = load.one(&mut conn, addr, pool, i);
                        let ns = if ok { due.elapsed().as_nanos() as u64 } else { u64::MAX };
                        load.lat_ns.push(ns);
                    }
                    load
                })
            })
            .collect();
        let loads: Vec<Load> =
            clients.into_iter().map(|c| c.join().expect("client thread")).collect();
        // Interleave the clients' latencies back into send order.
        let longest = loads.iter().map(|l| l.lat_ns.len()).max().unwrap_or(0);
        let in_order: Vec<u64> = (0..longest)
            .flat_map(|k| loads.iter().filter_map(move |l| l.lat_ns.get(k)))
            .copied()
            .collect();
        let mut total = Load::default();
        for load in loads {
            total.merge(load);
        }
        total.lat_ns = in_order;
        total
    });
    total.elapsed = started.elapsed();
    total
}
