//! Metric values, summary statistics, the environment record and the
//! JSON the benchmark prints.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (1 for counts and one-shot timings).
    pub samples: usize,
}

/// Metrics in report order.
#[derive(Debug, Clone, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        samples: usize,
    ) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
            samples,
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// Nearest-rank percentile `p` (0..=100) of `xs`; 0 when empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Percentile `p` within each consecutive window of `window` samples,
/// then the median over windows: the tail a typical window sees. On a
/// shared machine a burst of interference lands in a few windows and
/// moves this far less than a percentile over the whole run.
pub fn windowed_percentile(xs: &[f64], window: usize, p: f64) -> f64 {
    let per: Vec<f64> = xs.chunks(window.max(1)).map(|w| percentile(w, p)).collect();
    median(&per)
}

/// Queries per second at the typical cycle: one over the median time a
/// closed-loop client spends on one query, from asking for it to holding
/// the answer. A shared host that deschedules the benchmark for a few
/// milliseconds stalls a few cycles, which the median passes over; a rate
/// over a phase's wall time would absorb the whole stall.
pub fn cycle_rate(cycle_s: &[f64]) -> f64 {
    let m = median(cycle_s);
    if m > 0.0 {
        1.0 / m
    } else {
        0.0
    }
}

/// A JSON number: non-finite values, which JSON cannot hold, print as 0.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// The final result line.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut body = String::new();
    for (i, m) in metrics.0.iter().enumerate() {
        if i > 0 {
            body.push_str(", ");
        }
        let _ = write!(
            body,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            escape(&m.name),
            num(m.value),
            m.unit
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    )
}

/// A flat JSON object of strings and numbers.
pub fn record_json(fields: &BTreeMap<String, String>, metrics: &Metrics) -> String {
    let mut out = String::from("{");
    for (k, v) in fields {
        let _ = write!(out, "\"{}\": \"{}\", ", escape(k), escape(v));
    }
    out.push_str("\"metrics\": [");
    for (i, m) in metrics.0.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "{{\"name\": \"{}\", \"value\": {}, \"unit\": \"{}\", \"samples\": {}}}",
            escape(&m.name),
            num(m.value),
            m.unit,
            m.samples
        );
    }
    out.push_str("]}");
    out
}

/// Human-readable metric table.
pub fn table(metrics: &Metrics) -> String {
    let w = metrics.0.iter().map(|m| m.name.len()).max().unwrap_or(0);
    let mut out = String::new();
    for m in &metrics.0 {
        let _ = writeln!(
            out,
            "  {:<w$}  {:>16.6}  {:<6}  n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    out
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Environment variables that change engine behaviour. They are
/// recorded, then removed, before any executor is built.
pub const PINNED_ENV: [&str; 3] = [
    "AMNESIA_TEST_THREADS",
    "AMNESIA_MORSEL_ROWS",
    "AMNESIA_PORTABLE_ONLY",
];

/// Record and clear [`PINNED_ENV`]; returns `name=value` (or
/// `name=<unset>`) per variable.
pub fn pin_env() -> Vec<String> {
    PINNED_ENV
        .iter()
        .map(|&k| {
            let was = std::env::var(k).unwrap_or_else(|_| "<unset>".into());
            std::env::remove_var(k);
            format!("{k}={was}")
        })
        .collect()
}

/// The heap's mmap and trim thresholds, in bytes, fixed before the
/// workload allocates. Left alone, glibc raises its mmap threshold to the
/// largest block freed so far, so whether a later multi-megabyte buffer
/// is mapped and faulted in afresh or reused from the heap turns on the
/// exact sizes a seed's data produced: peak RSS and reopen time then jump
/// between seeds by more than their bounds. At glibc's own starting
/// value, fixed, every large buffer is mapped on allocation and returned
/// on free, the same way on every seed.
pub const MALLOC_THRESHOLD: i32 = 128 * 1024;

/// Fix the allocator's thresholds at [`MALLOC_THRESHOLD`]; returns what
/// was set, for the record.
pub fn pin_allocator() -> String {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        // glibc's `mallopt` parameter numbers.
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_MMAP_THRESHOLD: i32 = -3;
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        // SAFETY: `mallopt` only sets allocator parameters, takes its
        // own arena lock, and accepts both values (it returns 1 when it
        // does).
        let ok = unsafe {
            mallopt(M_MMAP_THRESHOLD, MALLOC_THRESHOLD) == 1
                && mallopt(M_TRIM_THRESHOLD, MALLOC_THRESHOLD) == 1
        };
        if ok {
            return format!(
                "glibc mmap_threshold={MALLOC_THRESHOLD} trim_threshold={MALLOC_THRESHOLD}"
            );
        }
    }
    "default".into()
}

/// SIMD level the engine's mask kernels dispatch to on this CPU (the
/// same feature checks, with the portable override cleared).
pub fn simd_level() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            return "avx512";
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return "avx2";
        }
    }
    "portable"
}

pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit being measured: `git rev-parse HEAD` read straight from
/// `.git` when the checkout has one, else "unknown".
pub fn commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .or_else(|_| {
                std::fs::read_to_string(".git/packed-refs").map(|p| {
                    p.lines()
                        .find(|l| l.ends_with(r))
                        .and_then(|l| l.split_whitespace().next())
                        .unwrap_or("unknown")
                        .to_string()
                })
            })
            .unwrap_or_else(|_| "unknown".into()),
        None => head,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        let mut bursty: Vec<f64> = (0..1000).map(|i| f64::from(i % 100)).collect();
        bursty[..100].iter_mut().for_each(|x| *x = 1e6);
        assert_eq!(windowed_percentile(&bursty, 100, 99.0), 98.0);
    }

    #[test]
    fn result_line_shape() {
        let mut m = Metrics::default();
        m.push("latency_ms", 1.25, "ms", 10);
        let s = result_json(true, 3, 0, &m);
        assert_eq!(
            s,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }
}
