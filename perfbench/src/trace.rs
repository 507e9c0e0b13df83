//! Spans recorded from the benchmark's side of each layer boundary.
//!
//! A traced run wraps every call into a layer's public API in a span of
//! an [`obs::Trace`] (name, start, duration, parent, plus `workload` and
//! `iter` fields). Spans stay in memory until the run ends; then the
//! tree is written to `.perfbench-run/trace-<workload>.jsonl` and a
//! per-layer self-time table is printed. Untraced runs construct a
//! disabled tracer whose `span` is a plain call.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::Path;

pub struct Tracer {
    trace: Option<obs::Trace>,
    workload: String,
    open: RefCell<Vec<u64>>,
}

impl Tracer {
    pub fn new(enabled: bool, workload: &str) -> Tracer {
        Tracer {
            trace: enabled.then(obs::Trace::new),
            workload: workload.to_string(),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Runs `f` inside span `name`, a child of the innermost open span.
    pub fn span<T>(&self, name: &str, iter: usize, f: impl FnOnce() -> T) -> T {
        let Some(trace) = &self.trace else { return f() };
        let parent = self.open.borrow().last().copied();
        let id = trace.begin(name, parent);
        self.open.borrow_mut().push(id);
        let out = f();
        self.open.borrow_mut().pop();
        trace.end(id);
        trace.add_field(id, "workload", &self.workload);
        trace.add_field(id, "iter", &iter.to_string());
        out
    }

    fn records(&self) -> Vec<obs::SpanRecord> {
        self.trace.as_ref().map(obs::Trace::records).unwrap_or_default()
    }

    /// Seconds per `(name, iter)`, summed over spans sharing the key:
    /// each span's own time (its duration minus the part its direct
    /// children cover) or, with `total`, its whole duration.
    fn by_key(&self, total: bool) -> BTreeMap<(String, usize), f64> {
        let records = self.records();
        let mut child_us: BTreeMap<u64, u64> = BTreeMap::new();
        for r in &records {
            if let Some(p) = r.parent {
                *child_us.entry(p).or_default() += r.dur_us;
            }
        }
        let mut out = BTreeMap::new();
        for r in &records {
            let iter = r
                .fields
                .iter()
                .find(|(k, _)| k == "iter")
                .and_then(|(_, v)| v.parse().ok())
                .unwrap_or(0);
            let children = if total { 0 } else { child_us.get(&r.id).copied().unwrap_or(0) };
            let us = r.dur_us.saturating_sub(children);
            *out.entry((r.name.clone(), iter)).or_insert(0.0) += us as f64 * 1e-6;
        }
        out
    }

    /// Self time of span `name` in each iteration, in seconds.
    pub fn per_iter(&self, name: &str) -> Vec<f64> {
        self.by_key(false).into_iter().filter(|((n, _), _)| n == name).map(|(_, s)| s).collect()
    }

    /// Whole duration of span `name` in each iteration, in seconds.
    pub fn total_per_iter(&self, name: &str) -> Vec<f64> {
        self.by_key(true).into_iter().filter(|((n, _), _)| n == name).map(|(_, s)| s).collect()
    }

    /// Writes every span as one JSON line and prints each span name's
    /// total self time.
    pub fn finish(&self, dir: &Path) {
        if self.trace.is_none() {
            return;
        }
        let mut lines = String::new();
        for r in self.records() {
            let fields: Vec<String> =
                r.fields.iter().map(|(k, v)| format!("\"{k}\": \"{v}\"")).collect();
            lines.push_str(&format!(
                "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_us\": {}, \
                 \"end_us\": {}, {}}}\n",
                r.id,
                r.parent.map_or("null".to_string(), |p| p.to_string()),
                r.name,
                r.start_us,
                r.start_us + r.dur_us,
                fields.join(", ")
            ));
        }
        let path = dir.join(format!("trace-{}.jsonl", self.workload));
        if let Err(e) = std::fs::write(&path, lines) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
        let mut totals: BTreeMap<String, (usize, f64)> = BTreeMap::new();
        for ((name, _), s) in self.by_key(false) {
            let t = totals.entry(name).or_default();
            t.0 += 1;
            t.1 += s;
        }
        for (name, (iters, secs)) in totals {
            println!("span {name} iters={iters} self_s={secs:.6}");
        }
    }
}
