//! End-to-end and per-layer benchmark of the amnesia workspace.
//!
//! One closed-loop client drives the public APIs (`AmnesiacStore`,
//! `PolicyKind::build`, `PersistentTable`, `amnesia_sql::run_with`,
//! `Executor::execute_plan`) on one of three seeded workloads:
//!
//! * `amnesia_loop` — the paper's §2.3 loop (queries, then inserts, then
//!   the `Uniform` policy forgets back to DBSIZE) on uniform data with a
//!   tiered, durable store. Dominated by the `store.query` scan path.
//! * `sensor_ttl` — time-ordered data under the `Ttl` privacy policy at
//!   80 % volatility with narrow recent-range queries. Dominated by the
//!   write path: one WAL record per forget, then freeze, drop, snapshot
//!   and shred at every batch end.
//! * `sql_analytics` — a multi-column fact table plus a dimension table,
//!   loaded in durable batches, then five seeded SQL shapes run
//!   read-only on `ExecMode::Parallel(2)`.
//!
//! Every answer is checked against an oracle that never reads the
//! program under test. A run does a fixed amount of work for a given
//! seed and `--seconds`, so its counts repeat exactly; the timings are
//! what varies.

mod oracle;
pub mod report;
mod sql_wl;
mod store_wl;
mod trace;
mod vfs;

pub use sql_wl::WORKERS;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use amnesia_columnar::Table;

use report::Metrics;

/// The workloads, by command-line name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    AmnesiaLoop,
    SensorTtl,
    SqlAnalytics,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::AmnesiaLoop,
        Workload::SensorTtl,
        Workload::SqlAnalytics,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::AmnesiaLoop => "amnesia_loop",
            Workload::SensorTtl => "sensor_ttl",
            Workload::SqlAnalytics => "sql_analytics",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Input sizes: `Full` for measurement, `Tiny` for the benchmark's own
/// tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

/// One benchmark run.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    /// Sizes the run: the work done is proportional to it, tuned so a
    /// `Full` run measures about this many seconds on a 2-vCPU Xeon
    /// (the work is fixed by it, not by a clock, so counts repeat).
    pub seconds: u64,
    pub trace: bool,
    pub scale: Scale,
    /// Directory for the durable tables and the trace dump.
    pub work_dir: PathBuf,
    /// Corrupt the first answer before it is checked (the oracle's
    /// true-positive test).
    pub perturb: bool,
}

impl Config {
    /// Work multiplier from `--seconds` (a 20-second run is 1.0).
    pub fn work(&self) -> f64 {
        self.seconds.max(1) as f64 / 20.0
    }

    /// Scale a count by [`Config::work`], keeping at least `min`.
    pub fn scaled(&self, n: usize, min: usize) -> usize {
        ((n as f64 * self.work()).round() as usize).max(min)
    }
}

/// Operations attempted and failed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    /// Count one operation; `ok == false` counts it failed.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn add(&mut self, other: Ops) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// End-to-end metrics: `(name, unit)`, in report order.
pub const END_TO_END: [(&str, &str); 12] = [
    ("query_p50_us", "us"),
    ("query_p99_us", "us"),
    ("queries_per_s", "1/s"),
    ("batch_p50_ms", "ms"),
    ("batch_p90_ms", "ms"),
    ("loop_rows_per_s", "1/s"),
    ("recovery_s", "s"),
    ("resident_bytes_per_active_row", "B/row"),
    ("disk_bytes_per_user_byte", "B/B"),
    ("mean_precision", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: `(name, unit)`, in report order. Every run reports
/// all of them; one a workload never exercises reads 0.
pub const PER_LAYER: [(&str, &str); 64] = [
    ("workload.next_query.busy_s", "s"),
    ("policy.select_victims.busy_s", "s"),
    ("policy.victims", "count"),
    ("store.query.busy_s", "s"),
    ("store.query.range.p50_us", "us"),
    ("store.query.point.p50_us", "us"),
    ("store.query.avg.p50_us", "us"),
    ("store.insert_batch.busy_s", "s"),
    ("store.forget_batch.busy_s", "s"),
    ("store.end_batch.busy_s", "s"),
    ("store.metadata_bytes", "B"),
    ("engine.execute_plan.busy_s", "s"),
    ("engine.rows_scanned", "count"),
    ("engine.blocks_pruned", "count"),
    ("engine.words_pruned", "count"),
    ("engine.result_rows", "count"),
    ("engine.join_pairs", "count"),
    ("engine.groups", "count"),
    ("engine.blocks_refined", "count"),
    ("engine.useful_ratio", "ratio"),
    ("morsel.morsels", "count"),
    ("morsel.steals", "count"),
    ("morsel.merge_s", "s"),
    ("planner.max_q_error", "ratio"),
    ("sql.parse.busy_s", "s"),
    ("sql.bind.busy_s", "s"),
    ("sql.lower.busy_s", "s"),
    ("sql.grouped_selective.p50_us", "us"),
    ("sql.grouped_wide.p50_us", "us"),
    ("sql.global_agg.p50_us", "us"),
    ("sql.topk_projection.p50_us", "us"),
    ("sql.join_grouped.p50_us", "us"),
    ("compress.block_decodes", "count"),
    ("tier.frozen_blocks", "count"),
    ("tier.blocks_dropped", "count"),
    ("tier.blocks_recompressed", "count"),
    ("tier.bytes_frozen", "B"),
    ("tier.compression_ratio", "ratio"),
    ("tier.block_accesses", "count"),
    ("wal.records_appended", "count"),
    ("wal.bytes_appended", "B"),
    ("wal.segments_rotated", "count"),
    ("wal.segments_shredded", "count"),
    ("wal.bytes_shredded", "B"),
    ("wal.checkpoints", "count"),
    ("persist.open.busy_s", "s"),
    ("vfs.open.bytes_read", "B"),
    ("vfs.bytes_written", "B"),
    ("vfs.write_calls", "count"),
    ("vfs.fsyncs", "count"),
    ("vfs.dir_fsyncs", "count"),
    ("vfs.files_created", "count"),
    ("vfs.files_removed", "count"),
    ("vfs.fsync.busy_s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_pct", "%"),
    ("layer.workload.self_s", "s"),
    ("layer.policy.self_s", "s"),
    ("layer.store.self_s", "s"),
    ("layer.engine.self_s", "s"),
    ("layer.sql.self_s", "s"),
    ("layer.persist.self_s", "s"),
    ("layer.vfs.self_s", "s"),
    ("layer.bench.self_s", "s"),
];

/// What a run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub ops: Ops,
    /// End-to-end metrics (the `--trace 0` report).
    pub end_to_end: Metrics,
    /// Per-layer metrics (the `--trace 1` report). Timings in it are
    /// only meaningful on a traced run; counts are always filled.
    pub per_layer: Metrics,
    /// Digest of the generated inputs (seed sensitivity check).
    pub input_digest: u64,
    /// Self-time table of the traced run.
    pub self_time: String,
}

/// Metric values by name, with their sample counts.
#[derive(Debug, Default, Clone)]
pub struct Values(pub BTreeMap<&'static str, (f64, usize)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        self.0.insert(name, (value, samples));
    }

    /// A count or gauge.
    pub fn count(&mut self, name: &'static str, value: impl Into<f64>) {
        self.set(name, value.into(), 1);
    }

    /// The metrics of `spec`, in its order; missing ones read 0.
    pub fn ordered(&self, spec: &[(&'static str, &'static str)]) -> Metrics {
        let mut m = Metrics::default();
        for &(name, unit) in spec {
            let (v, n) = self.0.get(name).copied().unwrap_or((0.0, 0));
            m.push(name, v, unit, n);
        }
        m
    }
}

/// Fill the trace-derived per-layer metrics: busy time per span, self
/// time per layer, and the [`coverage`] of the loop `[from, to)`. The
/// oracle's own spans (`bench.oracle`) are benchmark work, not program
/// work: they are taken out of the loop time before the share is
/// computed.
pub fn trace_metrics(t: &trace::Trace, from: u64, to: u64, layer: &mut Values) {
    let by = t.by_name();
    for (name, _) in PER_LAYER {
        // The VFS counts its own fsync time, directory syncs included.
        if name == "vfs.fsync.busy_s" {
            continue;
        }
        if let Some(span) = name.strip_suffix(".busy_s") {
            if let Some(s) = by.get(span) {
                layer.set(name, s.busy_ns as f64 * 1e-9, s.calls as usize);
            }
        }
    }
    for (name, _) in PER_LAYER {
        if let Some(l) = name
            .strip_prefix("layer.")
            .and_then(|n| n.strip_suffix(".self_s"))
        {
            let ns: u64 = by
                .iter()
                .filter(|(n, _)| trace::layer_of(n) == l)
                .map(|(_, s)| s.self_ns)
                .sum();
            layer.set(name, ns as f64 * 1e-9, 1);
        }
    }
    layer.set("trace.coverage", coverage(t, from, to), 1);
}

/// Share of `[from, to)`, less the oracle's own spans, that top-level
/// program spans cover.
pub fn coverage(t: &trace::Trace, from: u64, to: u64) -> f64 {
    let covered = t.top_level_ns(from, to, &["bench.oracle"]);
    let oracle = t.top_level_ns(from, to, &[]) - covered;
    let wall = (to - from).saturating_sub(oracle);
    if wall == 0 {
        0.0
    } else {
        covered as f64 / wall as f64
    }
}

/// How many times set-up runs in one run; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 3;

/// Run one workload.
pub fn run(cfg: &Config) -> amnesia_util::Result<Outcome> {
    std::fs::create_dir_all(&cfg.work_dir)?;
    match cfg.workload {
        Workload::AmnesiaLoop | Workload::SensorTtl => store_wl::run(cfg),
        Workload::SqlAnalytics => sql_wl::run(cfg),
    }
}

/// FNV-1a over a stream of integers.
pub fn digest(values: impl IntoIterator<Item = i64>) -> u64 {
    values.into_iter().fold(0xcbf2_9ce4_8422_2325u64, |h, v| {
        (h ^ v as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Time `f`, returning its output and the elapsed seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Does a recovered table equal the table before the stop: rows, active
/// rows, insert epochs, and the exact tier layout of every column?
pub fn same_layout(a: &Table, b: &Table) -> bool {
    if a.num_rows() != b.num_rows()
        || a.active_rows() != b.active_rows()
        || a.activity_words() != b.activity_words()
        || a.insert_epochs() != b.insert_epochs()
        || a.schema().arity() != b.schema().arity()
    {
        return false;
    }
    (0..a.schema().arity()).all(|c| {
        let (ta, tb) = (a.col_tier(c), b.col_tier(c));
        ta.frozen_blocks() == tb.frozen_blocks()
            && ta.hot_values() == tb.hot_values()
            && (0..ta.frozen_blocks()).all(|blk| ta.frozen(blk) == tb.frozen(blk))
    })
}

/// Self-time table of a trace, grouped by layer.
pub fn self_time_table(t: &trace::Trace) -> String {
    use std::fmt::Write as _;
    let by = t.by_name();
    let mut layers: BTreeMap<&str, u64> = BTreeMap::new();
    for (name, s) in &by {
        *layers.entry(trace::layer_of(name)).or_default() += s.self_ns;
    }
    let mut out = String::from(
        "  layer      span                          calls        busy_s        self_s\n",
    );
    for (layer, self_ns) in &layers {
        for (name, s) in by.iter().filter(|(n, _)| trace::layer_of(n) == *layer) {
            let _ = writeln!(
                out,
                "  {:<10} {:<28} {:>7} {:>13.6} {:>13.6}",
                layer,
                name,
                s.calls,
                s.busy_ns as f64 * 1e-9,
                s.self_ns as f64 * 1e-9
            );
        }
        let _ = writeln!(
            out,
            "  {:<10} {:<28} {:>7} {:>13} {:>13.6}",
            layer,
            "(layer self time)",
            "",
            "",
            *self_ns as f64 * 1e-9
        );
    }
    out
}
