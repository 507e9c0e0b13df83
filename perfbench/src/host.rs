//! The host and seed record printed before every result.

use std::path::Path;

/// Size of the cpu0 cache at `level` (data or unified), e.g. `"1024K"`.
fn cache_size(level: &str) -> String {
    let base = Path::new("/sys/devices/system/cpu/cpu0/cache");
    let read = |dir: &Path, file: &str| {
        std::fs::read_to_string(dir.join(file)).map(|s| s.trim().to_string()).unwrap_or_default()
    };
    let mut entries: Vec<_> = std::fs::read_dir(base)
        .map(|it| it.filter_map(Result::ok).map(|e| e.path()).collect())
        .unwrap_or_default();
    entries.sort();
    entries
        .iter()
        .filter(|dir| read(dir, "level") == level && read(dir, "type") != "Instruction")
        .map(|dir| read(dir, "size"))
        .next()
        .unwrap_or_else(|| "unknown".into())
}

/// The largest cache level cpu0 reports (the last-level cache).
fn llc_level() -> String {
    let base = Path::new("/sys/devices/system/cpu/cpu0/cache");
    std::fs::read_dir(base)
        .map(|it| {
            it.filter_map(Result::ok)
                .filter_map(|e| std::fs::read_to_string(e.path().join("level")).ok())
                .filter_map(|l| l.trim().parse::<u32>().ok())
                .max()
                .unwrap_or(0)
        })
        .unwrap_or(0)
        .to_string()
}

/// One JSON object: workload, seed and the host facts a number depends
/// on (cores, SIMD tier, pool lanes, cache sizes, compiler).
pub fn record(workload: &str, seed: u64, seconds: f64, trace: bool) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"seconds\": {seconds}, \
         \"trace\": {trace}, \"nproc\": {nproc}, \"simd\": \"{}\", \"pool_lanes\": {}, \
         \"l2\": \"{}\", \"llc\": \"{}\", \"rustc\": \"{}\"}}",
        microarray::simd::active_path(),
        bstc::pool::global().lanes(),
        cache_size("2"),
        cache_size(&llc_level()),
        env!("PERFBENCH_RUSTC_VERSION"),
    )
}
