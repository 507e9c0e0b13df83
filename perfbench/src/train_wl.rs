//! The training workloads: the paper's build cost `O(|S|²·|G|)`
//! (§3.1.1) along the gene axis (`train-wide`) and the sample axis
//! (`train-tall`), each followed by the trained model answering
//! held-out queries in-process (§5.3.1 classification cost).

use crate::sink::serialize;
use crate::trace::Tracer;
use crate::{median, repeat_setup, reset_peak_rss, Report, Run};
use bstc::{BstcModel, ParBatchScratch, Scratch};
use discretize::Discretizer;
use microarray::synth::{presets, SynthConfig};
use microarray::{BitSet, BmxDataset, ContinuousDataset};
use serve::{ModelBundle, Provenance};
use std::time::Instant;

/// Held-out samples per class, generated with the training data and
/// kept out of it; they are the queries of the model phase. Per-query
/// cost varies by query, so `train-wide` holds out enough that the
/// percentiles across queries hold still from seed to seed (with 8 per
/// class its p50 spread 19 % over ten seeds); `train-tall` holds out
/// fewer because each of its queries costs ~85 ms.
const HELD_OUT: usize = 32;
const HELD_OUT_TALL: usize = 4;

/// Chunk budget of the streaming discretizer on `train-tall`: about a
/// dozen gene columns, so the streamed path evicts as it goes.
const TALL_CHUNK_BYTES: usize = 256 << 10;

/// Generates `cfg` with `held_out` extra samples per class and splits
/// them off: `(training data, held-out rows)`.
pub fn generate_split(cfg: &SynthConfig, held_out: usize) -> (ContinuousDataset, Vec<Vec<f64>>) {
    let mut grown = cfg.clone();
    grown.class_sizes = cfg.class_sizes.iter().map(|n| n + held_out).collect();
    let all = grown.generate();
    let mut train = Vec::new();
    let mut rest = Vec::new();
    let mut seen = vec![0usize; grown.class_sizes.len()];
    for s in 0..all.n_samples() {
        let c = all.label(s);
        seen[c] += 1;
        if seen[c] <= held_out {
            rest.push(all.row(s).to_vec());
        } else {
            train.push(s);
        }
    }
    (all.subset(&train), rest)
}

/// `(bytes, digest)` of one serialization, checked against the first.
struct Serialized {
    first: Option<(u64, u64)>,
}

impl Serialized {
    fn check(&mut self, report: &mut Report, iter: usize, got: (u64, u64)) {
        let first = *self.first.get_or_insert(got);
        report.check(got == first, || {
            format!("iteration {iter} serialized {got:?} (bytes, digest); the first gave {first:?}")
        });
    }
}

/// Median untraced and traced iteration times, and the coverage check.
fn report_iterations(
    report: &mut Report,
    tracer: &Tracer,
    untraced: &[f64],
    layers: &[&'static str],
) {
    let e2e = median(untraced);
    let traced = median(&tracer.total_per_iter("train.iteration"));
    let mut covered = 0.0;
    for &layer in layers {
        let secs = median(&tracer.per_iter(layer));
        covered += secs;
        let metric = match layer {
            "discretize.fit" => "discretize.fit_s",
            "discretize.transform" => "discretize.transform_s",
            "core.bst_build" => "core.bst_build_s",
            "core.resub" => "core.resub_s",
            "core.model_json" => "core.model_json_s",
            "serve.bundle_save" => "serve.bundle_save_s",
            "microarray.bmx_open" => "microarray.bmx_open_s",
            other => unreachable!("unmapped layer {other}"),
        };
        report.set(metric, secs);
    }
    coverage(report, "train_s", covered, e2e);
    report.set("trace.overhead_frac", traced / e2e - 1.0);
    println!("tracing overhead: traced iteration {traced:.4} s vs untraced {e2e:.4} s");
}

/// Prints how much of an untraced end-to-end figure the traced
/// per-layer self times cover; `trace.coverage_frac` keeps the lowest
/// share over the figures a workload checks.
pub fn coverage(report: &mut Report, figure: &str, covered: f64, e2e: f64) {
    let frac = covered / e2e;
    let verdict = if frac >= 0.95 { "ok" } else { "BELOW 0.95" };
    println!("coverage {figure}: layers {covered:.6} of untraced {e2e:.6} = {frac:.4} {verdict}");
    let lowest = report.get("trace.coverage_frac").map_or(frac, |f| f.min(frac));
    report.set("trace.coverage_frac", lowest);
}

/// The BST build counters the core crate keeps: pairs, distinct lists,
/// arena bytes.
pub fn bst_counters() -> [u64; 3] {
    let c = obs::counters();
    [
        c.get("bstc_bst_pairs_total"),
        c.get("bstc_bst_distinct_lists_total"),
        c.get("bstc_bst_arena_bytes_total"),
    ]
}

pub fn report_bst_counters(report: &mut Report, before: [u64; 3], after: [u64; 3]) {
    let pairs = (after[0] - before[0]) as f64;
    let distinct = (after[1] - before[1]) as f64;
    report.set("core.bst_pairs", pairs);
    report.set("core.bst_distinct_lists", distinct);
    report.set("core.bst_arena_bytes", (after[2] - before[2]) as f64);
    report.set("core.bst_intern_hit_ratio", if pairs > 0.0 { 1.0 - distinct / pairs } else { 0.0 });
}

/// `train-wide`: `ModelBundle::train` then `save_to_writer`, on the
/// ovarian gene axis with half its samples.
pub fn wide(run: &Run, report: &mut Report) {
    let tracer = Tracer::new(run.trace, "train-wide");
    let mut cfg = presets::ovarian(run.seed);
    cfg.class_sizes = vec![45, 81];
    let ((data, held_out), setup_s) = repeat_setup(run, |i| {
        tracer.span("microarray.synth", i, || generate_split(&cfg, HELD_OUT))
    });
    report.set("setup_s", setup_s);
    report.set("microarray.synth_s", median(&tracer.per_iter("microarray.synth")));
    reset_peak_rss();

    let provenance = Provenance::new("ovarian-wide", Some(run.seed));
    let mut bytes = Serialized { first: None };
    let iteration = |report: &mut Report, bytes: &mut Serialized, i: usize| {
        let t = Instant::now();
        let bundle = ModelBundle::train(&data, provenance.clone()).expect("train-wide trains");
        let out = serialize(|w| bundle.save_to_writer(w).map_err(std::io::Error::other))
            .expect("in-memory save");
        let secs = t.elapsed().as_secs_f64();
        bytes.check(report, i, out);
        (bundle, secs, out.0)
    };
    // The warm-up iteration is untimed; it fixes the reference bytes.
    let (warm, _, bundle_bytes) = iteration(report, &mut bytes, 0);
    let mut bundle = Some(warm);
    let untraced = timed_loop(run, |i| {
        bundle = None;
        let (b, secs, _) = iteration(report, &mut bytes, i);
        bundle = Some(b);
        secs
    });
    let mut bundle = bundle.expect("at least one iteration ran");
    report.set("train_s", median(&untraced));

    if run.trace {
        // The same work as `ModelBundle::train` + `save_to_writer`,
        // called layer by layer through public APIs; the bytes must
        // match the untraced iterations'.
        for i in 1..=2 {
            tracer.span("train.iteration", i, || {
                let disc = tracer.span("discretize.fit", i, || Discretizer::fit(&data));
                let boolean = tracer
                    .span("discretize.transform", i, || disc.transform(&data))
                    .expect("informative genes");
                let before = bst_counters();
                let model = tracer.span("core.bst_build", i, || BstcModel::train(&boolean));
                report_bst_counters(report, before, bst_counters());
                let correct = tracer.span("core.resub", i, || {
                    (0..boolean.n_samples())
                        .filter(|&s| model.classify(boolean.sample(s)) == boolean.label(s))
                        .count()
                });
                bundle.item_names = disc.item_names();
                bundle.discretizer = disc;
                bundle.model = model;
                bundle.provenance.train_accuracy =
                    Some(correct as f64 / boolean.n_samples() as f64);
                let out = tracer.span("serve.bundle_save", i, || {
                    serialize(|w| bundle.save_to_writer(w).map_err(std::io::Error::other))
                        .expect("in-memory save")
                });
                bytes.check(report, 100 + i, out);
                report.set("core.resub_queries", boolean.n_samples() as f64);
            });
        }
        report_iterations(
            report,
            &tracer,
            &untraced,
            &[
                "discretize.fit",
                "discretize.transform",
                "core.bst_build",
                "core.resub",
                "serve.bundle_save",
            ],
        );
        report.set("serve.bundle_bytes", bundle_bytes as f64);
    }

    let queries = tracer.span("discretize.binarize", 0, || {
        held_out
            .iter()
            .map(|row| bundle.discretizer.transform_row(row).expect("informative genes"))
            .collect::<Vec<_>>()
    });
    if run.trace {
        let per_row = median(&tracer.per_iter("discretize.binarize")) / queries.len() as f64;
        report.set("discretize.binarize_us", per_row * 1e6);
    }
    model_phase(run, report, &tracer, &bundle.model, &queries);
    finish(run, report, &tracer, "train-wide");
}

/// `train-tall`: open the `.bmx` written in set-up, stream-discretize it
/// under a chunk budget, build the BSTs and serialize the model, on the
/// 2,600-sample `sample-scale` preset.
pub fn tall(run: &Run, report: &mut Report) {
    let tracer = Tracer::new(run.trace, "train-tall");
    let cfg = presets::sample_scale(run.seed);
    // Each set-up writes a new file: `write_bmx` syncs, and syncing over
    // a truncated file waits on the journal (50-100 ms, noisy) where a
    // new file takes ~2 ms.
    let ((held_out, path), setup_s) = repeat_setup(run, |i| {
        tracer.span("microarray.synth", i, || {
            let (data, held_out) = generate_split(&cfg, HELD_OUT_TALL);
            let path = run.workdir.join(format!("tall-{i}.bmx"));
            microarray::write_bmx(&data, &path).expect("write the .bmx");
            (held_out, path)
        })
    });
    report.set("setup_s", setup_s);
    report.set("microarray.synth_s", median(&tracer.per_iter("microarray.synth")));
    reset_peak_rss();

    let mut bytes = Serialized { first: None };
    let iteration = |report: &mut Report, bytes: &mut Serialized, i: usize| {
        let t = Instant::now();
        let data = BmxDataset::open(&path).expect("open the .bmx");
        let disc = Discretizer::fit_source(&data, TALL_CHUNK_BYTES);
        let boolean = disc.transform_source(&data, TALL_CHUNK_BYTES).expect("informative genes");
        let model = BstcModel::train(&boolean);
        let out = serialize(|w| model.write_json_to(w)).expect("in-memory write");
        let secs = t.elapsed().as_secs_f64();
        bytes.check(report, i, out);
        (disc, model, secs, out.0)
    };
    let (mut disc, warm, _, json_bytes) = iteration(report, &mut bytes, 0);
    let mut model = Some(warm);
    let untraced = timed_loop(run, |i| {
        // Free the previous model first: two would double the peak.
        model = None;
        let (d, m, secs, _) = iteration(report, &mut bytes, i);
        disc = d;
        model = Some(m);
        secs
    });
    report.set("train_s", median(&untraced));

    if run.trace {
        for i in 1..=2 {
            model = None;
            tracer.span("train.iteration", i, || {
                let data = tracer
                    .span("microarray.bmx_open", i, || BmxDataset::open(&path))
                    .expect("open the .bmx");
                let d = tracer
                    .span("discretize.fit", i, || Discretizer::fit_source(&data, TALL_CHUNK_BYTES));
                let boolean = tracer
                    .span("discretize.transform", i, || d.transform_source(&data, TALL_CHUNK_BYTES))
                    .expect("informative genes");
                let before = bst_counters();
                let m = tracer.span("core.bst_build", i, || BstcModel::train(&boolean));
                report_bst_counters(report, before, bst_counters());
                let out = tracer.span("core.model_json", i, || {
                    serialize(|w| m.write_json_to(w)).expect("in-memory write")
                });
                bytes.check(report, 100 + i, out);
                disc = d;
                model = Some(m);
            });
        }
        report_iterations(
            report,
            &tracer,
            &untraced,
            &[
                "microarray.bmx_open",
                "discretize.fit",
                "discretize.transform",
                "core.bst_build",
                "core.model_json",
            ],
        );
        report.set("core.model_json_bytes", json_bytes as f64);
    }

    let queries = tracer.span("discretize.binarize", 0, || {
        held_out
            .iter()
            .map(|row| disc.transform_row(row).expect("informative genes"))
            .collect::<Vec<_>>()
    });
    if run.trace {
        let per_row = median(&tracer.per_iter("discretize.binarize")) / queries.len() as f64;
        report.set("discretize.binarize_us", per_row * 1e6);
    }
    let model = model.expect("at least one iteration ran");
    model_phase(run, report, &tracer, &model, &queries);
    finish(run, report, &tracer, "train-tall");
}

/// Runs `iteration` until the timed budget is spent, at least three
/// times (twice in a traced run); returns each iteration's seconds.
fn timed_loop(run: &Run, mut iteration: impl FnMut(usize) -> f64) -> Vec<f64> {
    let (share, least) = if run.trace { (0.3, 2) } else { (0.8, 3) };
    let budget = run.budget(share);
    let started = Instant::now();
    let mut times = Vec::new();
    while times.len() < least || started.elapsed() < budget {
        times.push(iteration(times.len() + 1));
    }
    times
}

/// The trained model answering held-out queries in-process: lowering
/// plus the first answer (`cold_start_s`), single queries through the
/// compiled kernel (`latency_*`), and batches over the worker pool
/// (`throughput_rps`). Every answer is checked against the reference
/// BSTCE evaluator (Algorithm 5).
fn model_phase(
    run: &Run,
    report: &mut Report,
    tracer: &Tracer,
    model: &BstcModel,
    queries: &[BitSet],
) {
    let reference: Vec<Vec<f64>> = queries.iter().map(|q| model.class_values(q)).collect();
    let same = |a: &[f64], b: &[f64]| {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    };

    let mut cold = Vec::new();
    let mut compiled = None;
    let started = Instant::now();
    for i in (0..15).take_while(|&i| i < 5 || started.elapsed().as_secs_f64() < 1.0) {
        drop(compiled.take());
        let t = Instant::now();
        let c = tracer.span("core.compile", i, || model.compile());
        let values = c.class_values(&queries[0], &mut Scratch::new());
        cold.push(t.elapsed().as_secs_f64());
        report.check(same(&values, &reference[0]), || "compiled cold-start answer".into());
        compiled = Some(c);
    }
    let compiled = compiled.expect("compiled at least once");
    report.set("cold_start_s", median(&cold));

    // Latency: each held-out query's median over at least three passes,
    // then p50 and p99 across queries — the spread of per-query cost,
    // which a stall of the host during one pass does not move.
    let mut scratch = Scratch::new();
    let mut lat_ns = vec![Vec::new(); queries.len()];
    let budget = run.budget(0.1);
    let started = Instant::now();
    let mut pass = 0;
    while pass < 3 || started.elapsed() < budget {
        tracer.span("core.kernel", pass, || {
            for ((q, want), samples) in queries.iter().zip(&reference).zip(&mut lat_ns) {
                let t = Instant::now();
                compiled.class_values_into(q, &mut scratch);
                samples.push(t.elapsed().as_secs_f64());
                report.check(same(scratch.values(), want), || "compiled single query".into());
            }
        });
        pass += 1;
    }
    let mut per_query: Vec<u64> = lat_ns.iter().map(|s| (median(s) * 1e9) as u64).collect();
    per_query.sort_unstable();
    report.set("latency_p50_ms", obs::percentile_of_sorted(&per_query, 0.5) as f64 * 1e-6);
    report.set("latency_p99_ms", obs::percentile_of_sorted(&per_query, 0.99) as f64 * 1e-6);
    println!("model phase: {} queries x {pass} passes", queries.len());

    // Throughput: the median rate of whole-probe-set batches over the
    // worker pool.
    let pool = bstc::pool::global();
    let mut batch = ParBatchScratch::new();
    let mut rates = Vec::new();
    let started = Instant::now();
    while rates.len() < 3 || started.elapsed() < budget {
        let t = Instant::now();
        compiled.class_values_batch_par_into(queries, pool, &mut batch);
        rates.push(queries.len() as f64 / t.elapsed().as_secs_f64());
        for (q, want) in reference.iter().enumerate() {
            report.check(same(batch.values_of(q), want), || "compiled batch query".into());
        }
    }
    report.set("throughput_rps", median(&rates));

    if run.trace {
        report.set("core.compile_s", median(&tracer.per_iter("core.compile")));
        report.set("core.compiled_mask_bytes", compiled.mask_bytes() as f64);
        let per_query = median(&tracer.per_iter("core.kernel")) / queries.len() as f64;
        report.set("core.kernel_us", per_query * 1e6);
        report.set("core.pool_lanes", pool.lanes() as f64);
    }
}

/// Records the measured-phase peak and writes the trace out.
pub fn finish(run: &Run, report: &mut Report, tracer: &Tracer, workload: &str) {
    let peak = crate::peak_rss_mb();
    println!("peak_rss_measured_mb {peak:.1} ({workload})");
    report.set("peak_rss_mb", peak);
    tracer.finish(run.workdir.parent().expect("workdir has a parent"));
}
