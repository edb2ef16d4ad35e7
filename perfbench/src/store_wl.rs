//! The single-attribute store workloads: `amnesia_loop` and
//! `sensor_ttl`.
//!
//! Both run the paper's §2.3 loop on a tiered `AmnesiacStore` whose
//! durability hook is a `PersistentTable`'s log with `PerBatch` sync,
//! over the counting VFS: a batch of queries, then a batch of inserts,
//! then the policy forgets back to DBSIZE and `end_batch` freezes,
//! drops, recompresses, shreds and commits. After the loop the store is
//! dropped without a checkpoint (an unclean stop) and the directory is
//! reopened.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use amnesia_columnar::persist::vfs::SharedVfs;
use amnesia_columnar::{PersistentTable, RowId, Schema, SyncPolicy, Table};
use amnesia_core::{AmnesiacStore, ForgetMode, PolicyContext, PolicyKind, TierConfig};
use amnesia_distrib::{DistributionKind, SerialDistribution};
use amnesia_engine::QueryOutput;
use amnesia_util::SimRng;
use amnesia_workload::query::AggKind;
use amnesia_workload::{Query, QueryGenKind, QueryGenerator, TableSnapshot, UpdateGenerator};

use crate::oracle::{answer_matches, Mirror};
use crate::report::{cycle_rate, mean, median, peak_rss_mb, percentile, windowed_percentile};
use crate::vfs::{CountingVfs, VfsCounters, VfsTotals};
use crate::{
    digest, same_layout, self_time_table, timed, trace, trace_metrics, Config, Ops, Outcome, Scale,
    Values, Workload, END_TO_END, PER_LAYER, SETUP_REPEATS,
};

/// Value distribution of the inserted stream.
#[derive(Debug, Clone, Copy)]
enum Data {
    /// Uniform over `0..=domain`.
    Uniform { domain: i64 },
    /// Auto-increment from a seeded start: time-ordered readings.
    Serial,
}

/// The shape of one store workload.
#[derive(Debug, Clone)]
struct Spec {
    dbsize: usize,
    /// Inserted (and forgotten) rows per batch, as a fraction of DBSIZE.
    volatility: f64,
    data: Data,
    policy: PolicyKind,
    queries: QueryGenKind,
    queries_per_batch: usize,
    /// Set-up batches, run before measuring to reach steady state.
    warmup_batches: usize,
    /// Measured batches.
    batches: usize,
}

fn spec(cfg: &Config) -> Spec {
    let tiny = cfg.scale == Scale::Tiny;
    match cfg.workload {
        Workload::AmnesiaLoop => {
            let range = QueryGenKind::paper_range();
            Spec {
                dbsize: if tiny { 2_000 } else { 30_000 },
                volatility: 0.2,
                data: Data::Uniform { domain: 10_000_000 },
                policy: PolicyKind::Uniform,
                queries: QueryGenKind::Mixed(vec![
                    (0.6, range.clone()),
                    (0.2, QueryGenKind::Point),
                    (
                        0.2,
                        QueryGenKind::Aggregate {
                            kind: AggKind::Avg,
                            over: Some(Box::new(range)),
                        },
                    ),
                ]),
                queries_per_batch: if tiny { 10 } else { 150 },
                warmup_batches: if tiny { 2 } else { 50 },
                batches: if tiny { 6 } else { cfg.scaled(100, 2) },
            }
        }
        _ => Spec {
            dbsize: if tiny { 2_000 } else { 25_000 },
            volatility: 0.8,
            data: Data::Serial,
            policy: PolicyKind::Ttl { max_age: 1 },
            queries: QueryGenKind::RecentRange {
                selectivity: 0.0005,
                recency_frac: 0.01,
            },
            queries_per_batch: if tiny { 10 } else { 200 },
            warmup_batches: if tiny { 2 } else { 20 },
            batches: if tiny { 6 } else { cfg.scaled(100, 2) },
        },
    }
}

/// The generator's view of the store's table.
struct Snap<'a>(&'a Table);

impl TableSnapshot for Snap<'_> {
    fn max_value_seen(&self) -> Option<i64> {
        self.0.max_seen(0)
    }

    fn random_active_value(&self, rng: &mut SimRng) -> Option<i64> {
        self.0.random_active(rng).map(|r| self.0.value(0, r))
    }

    fn active_count(&self) -> usize {
        self.0.active_rows()
    }
}

/// A set-up store, ready for the loop.
struct Live {
    store: AmnesiacStore,
    mirror: Mirror,
    vfs: SharedVfs,
    counters: Arc<VfsCounters>,
    dir: PathBuf,
    updates: UpdateGenerator,
    queries: Box<dyn QueryGenerator>,
    policy: Box<dyn amnesia_core::AmnesiaPolicy>,
    rng_data: SimRng,
    rng_queries: SimRng,
    rng_policy: SimRng,
    input_digest: u64,
    rows_inserted: usize,
    /// Operations checked during set-up (the warm-up batches).
    setup_ops: Ops,
}

/// Create the durable store, load DBSIZE rows, then run the warm-up
/// batches that grow the forgotten history to its steady state, so the
/// measured batches and queries all see a table of about one size.
fn setup(cfg: &Config, spec: &Spec, dir: &Path) -> amnesia_util::Result<Live> {
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    let mut master = SimRng::new(cfg.seed);
    let mut rng_data = master.fork();
    let rng_queries = master.fork();
    let rng_policy = master.fork();
    let mut updates = match spec.data {
        Data::Uniform { domain } => {
            UpdateGenerator::from_kind(&DistributionKind::Uniform, domain, cfg.seed)
        }
        Data::Serial => {
            // Small next to the stream, which the recent-range generator
            // assumes starts near 0.
            let start = rng_data.range_i64(0, 100_000);
            UpdateGenerator::new(Box::new(SerialDistribution::starting_at(i64::MAX, start)))
        }
    };
    let (vfs, counters) = CountingVfs::shared();
    let (table, log) =
        PersistentTable::create_with(vfs.clone(), dir, Schema::single("a"), SyncPolicy::PerBatch)?
            .into_parts();
    let mut store = AmnesiacStore::from_table(table, ForgetMode::MarkOnly)
        .with_tiering(TierConfig::default())
        .with_durability(Box::new(log));
    let initial = updates.batch(spec.dbsize, &mut rng_data);
    store.insert_batch(&initial, 0)?;
    store.end_batch()?;
    let mut mirror = Mirror::default();
    mirror.insert(&initial);
    let mut live = Live {
        store,
        mirror,
        vfs,
        counters,
        dir: dir.to_path_buf(),
        updates,
        queries: spec.queries.build(),
        policy: spec.policy.build(),
        rng_data,
        rng_queries,
        rng_policy,
        input_digest: digest(initial.iter().copied()),
        rows_inserted: spec.dbsize,
        setup_ops: Ops::default(),
    };
    for b in 1..=spec.warmup_batches as u64 {
        let (ok, _) = live.batch(spec, b);
        live.setup_ops.record(ok);
    }
    Ok(live)
}

/// What one write batch did.
struct Batch {
    /// Insert, policy, forget and `end_batch`, in milliseconds.
    ms: f64,
    /// Generating the inserted values, in seconds.
    gen_s: f64,
    rows: usize,
    victims: usize,
}

impl Live {
    /// One write batch at epoch `b`: generate the inserts, then insert,
    /// let the policy choose victims back down to DBSIZE, forget them,
    /// and end the batch. Returns whether every call succeeded and the
    /// store's row and active counts still match the mirror's.
    fn batch(&mut self, spec: &Spec, b: u64) -> (bool, Batch) {
        let rows = amnesia_workload::update::batch_size(spec.dbsize, spec.volatility);
        self.updates.on_epoch(b);
        let (values, gen_s) = timed(|| {
            trace::span("workload.next_batch", || {
                self.updates.batch(rows, &mut self.rng_data)
            })
        });
        let t0 = Instant::now();
        let mut ok =
            trace::span("store.insert_batch", || self.store.insert_batch(&values, b)).is_ok();
        let need = self.store.table().active_rows().saturating_sub(spec.dbsize);
        let victims = trace::span("policy.select_victims", || {
            let ctx = PolicyContext {
                table: self.store.table(),
                epoch: b,
            };
            self.policy.select_victims(&ctx, need, &mut self.rng_policy)
        });
        ok &= trace::span("store.forget_batch", || {
            self.store.forget_batch(&victims, b)
        })
        .is_ok();
        ok &= trace::span("store.end_batch", || self.store.end_batch()).is_ok();
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        self.rows_inserted += values.len();
        let ok = trace::span("bench.oracle", || {
            self.mirror.insert(&values);
            self.mirror.forget(&victims);
            ok && self.store.table().active_rows() == self.mirror.active_rows()
                && self.store.table().num_rows() == self.mirror.len()
        });
        let batch = Batch {
            ms,
            gen_s,
            rows: values.len(),
            victims: victims.len(),
        };
        (ok, batch)
    }
}

/// Per-kind latency metrics, indexed by [`kind_of`].
const KIND_METRICS: [&str; 3] = [
    "store.query.range.p50_us",
    "store.query.point.p50_us",
    "store.query.avg.p50_us",
];

fn kind_of(q: &Query) -> usize {
    match q {
        Query::Range(_) => 0,
        Query::Point(_) => 1,
        Query::Aggregate { .. } => 2,
    }
}

/// The share of each query kind ([`kind_of`]) a generator recipe asks
/// for.
fn kind_shares(gen: &QueryGenKind) -> [f64; 3] {
    let kind = |g: &QueryGenKind| match g {
        QueryGenKind::Point => 1,
        QueryGenKind::Aggregate { .. } => 2,
        _ => 0,
    };
    let mut shares = [0.0; 3];
    match gen {
        QueryGenKind::Mixed(parts) => {
            for (w, g) in parts {
                shares[kind(g)] += w.max(0.0);
            }
        }
        g => shares[kind(g)] = 1.0,
    }
    shares
}

/// PF averaged within each query kind, then over kinds by the share the
/// recipe asks for. A point query almost always scores near 1 and a
/// range query far lower, so a plain mean over queries would move with
/// how many of each kind a seed happened to draw; this one does not.
fn stratified_precision(per_kind: &[Vec<f64>; 3], shares: [f64; 3]) -> f64 {
    let (mut sum, mut weight) = (0.0, 0.0);
    for (p, w) in per_kind.iter().zip(shares) {
        if !p.is_empty() && w > 0.0 {
            sum += w * mean(p);
            weight += w;
        }
    }
    if weight > 0.0 {
        sum / weight
    } else {
        0.0
    }
}

pub fn run(cfg: &Config) -> amnesia_util::Result<Outcome> {
    let spec = spec(cfg);
    let dir = cfg
        .work_dir
        .join(format!("{}-{}", cfg.workload.name(), std::process::id()));
    let mut setup_s = Vec::new();
    let live = loop {
        let (live, s) = timed(|| setup(cfg, &spec, &dir));
        setup_s.push(s);
        let live = live?;
        if setup_s.len() == SETUP_REPEATS {
            break live;
        }
    };
    let out = run_loop(cfg, &spec, live, &setup_s);
    let _ = std::fs::remove_dir_all(&dir);
    out
}

fn run_loop(
    cfg: &Config,
    spec: &Spec,
    mut live: Live,
    setup_s: &[f64],
) -> amnesia_util::Result<Outcome> {
    let mut ops = live.setup_ops;
    let mut e2e = Values::default();
    let mut layer = Values::default();
    let mut query_us = Vec::new();
    let mut kind_us: [Vec<f64>; 3] = Default::default();
    let mut batch_ms = Vec::new();
    let mut precision: [Vec<f64>; 3] = Default::default();
    // Each query's full cycle (generate, then run), in seconds.
    let mut cycle_s = Vec::new();
    // Rows per second of each batch's whole loop iteration.
    let mut row_rates = Vec::new();
    let mut victims_total = 0usize;
    let mut sample = Vec::new();
    let mut engine = EngineTotals::default();
    let mut request = 0u64;

    let warmup = spec.warmup_batches as u64;
    if cfg.trace {
        trace::enable();
    }
    let loop_from = trace::now_ns();
    for b in 1..=spec.batches as u64 {
        // The batch's queries run back to back; their answers are checked
        // after the phase, so the oracle's own memory traffic stays out
        // of the timed queries. Nothing writes in between, so the mirror
        // answers for the same state either way.
        let mut answers = Vec::with_capacity(spec.queries_per_batch);
        let phase = Instant::now();
        for _ in 0..spec.queries_per_batch {
            request += 1;
            trace::set_request(request);
            let t0 = Instant::now();
            let q = trace::span("workload.next_query", || {
                live.queries
                    .next_query(&Snap(live.store.table()), &mut live.rng_queries)
            });
            let t1 = Instant::now();
            let res = trace::span("store.query", || live.store.query(&q));
            let t2 = Instant::now();
            let us = (t2 - t1).as_secs_f64() * 1e6;
            query_us.push(us);
            cycle_s.push((t2 - t0).as_secs_f64());
            kind_us[kind_of(&q)].push(us);
            answers.push((request, q, res));
        }
        let phase_s = phase.elapsed().as_secs_f64();
        for (req, q, mut res) in answers {
            trace::set_request(req);
            if cfg.perturb && req == 1 {
                res.output = match res.output {
                    QueryOutput::Rows(mut rows) => {
                        rows.push(RowId(u64::MAX >> 1));
                        QueryOutput::Rows(rows)
                    }
                    QueryOutput::Agg(v) => QueryOutput::Agg(Some(v.unwrap_or(0.0) + 1.0)),
                };
            }
            let ok = trace::span("bench.oracle", || {
                let exp = live.mirror.expect(&q);
                if let Some(p) = exp.precision() {
                    precision[kind_of(&q)].push(p);
                }
                answer_matches(&q, &res.output, &exp)
            });
            ops.record(ok);
            engine.add(&res.stats);
            if sample.len() < 400 {
                sample.push(q);
            }
        }

        request += 1;
        trace::set_request(request);
        let (ok, batch) = live.batch(spec, warmup + b);
        batch_ms.push(batch.ms);
        victims_total += batch.victims;
        row_rates.push(batch.rows as f64 / (phase_s + batch.gen_s + batch.ms * 1e-3));
        ops.record(ok);
    }
    let loop_to = trace::now_ns();

    // Tracing overhead: the same queries, against the final state, with
    // and without spans, alternating.
    if cfg.trace {
        let (mut on, mut off) = (Vec::new(), Vec::new());
        for q in &sample {
            let (_, s) = timed(|| trace::suspended(|| live.store.query(q)));
            off.push(s);
            let (_, s) = timed(|| trace::span("bench.overhead_probe", || live.store.query(q)));
            on.push(s);
        }
        layer.set(
            "trace.overhead_pct",
            (median(&on) / median(&off) - 1.0) * 100.0,
            sample.len(),
        );
    }

    let footprint = live.store.footprint();
    let snap = live.store.metrics_snapshot();
    let wal = live.store.durability_stats().unwrap_or_default();
    let written = live.counters.totals();
    let user_bytes = (live.rows_inserted * 8) as f64;

    // Unclean stop: drop the store without a checkpoint, then reopen.
    let before = live.store.table().clone();
    drop(live.store);
    let (recovery_s, open_bytes) = reopen(
        5,
        &live.vfs,
        &live.counters,
        &live.dir,
        &before,
        (snap.blocks_dropped, snap.blocks_recompressed),
        &mut ops,
    );

    e2e.set("query_p50_us", percentile(&query_us, 50.0), query_us.len());
    e2e.set(
        "query_p99_us",
        windowed_percentile(&query_us, spec.queries_per_batch, 99.0),
        query_us.len(),
    );
    e2e.set("queries_per_s", cycle_rate(&cycle_s), cycle_s.len());
    e2e.set("batch_p50_ms", percentile(&batch_ms, 50.0), batch_ms.len());
    e2e.set("batch_p90_ms", percentile(&batch_ms, 90.0), batch_ms.len());
    e2e.set("loop_rows_per_s", median(&row_rates), row_rates.len());
    e2e.set("recovery_s", median(&recovery_s), recovery_s.len());
    e2e.set(
        "resident_bytes_per_active_row",
        footprint.hot_bytes as f64 / footprint.active_rows.max(1) as f64,
        1,
    );
    e2e.set(
        "disk_bytes_per_user_byte",
        written.bytes_written as f64 / user_bytes,
        1,
    );
    e2e.set(
        "mean_precision",
        stratified_precision(&precision, kind_shares(&spec.queries)),
        precision.iter().map(Vec::len).sum(),
    );
    e2e.set("setup_s", median(setup_s), setup_s.len());
    e2e.set("peak_rss_mb", peak_rss_mb(), 1);

    layer.count("policy.victims", victims_total as f64);
    for (name, us) in KIND_METRICS.iter().zip(&kind_us) {
        layer.set(name, percentile(us, 50.0), us.len());
    }
    layer.count(
        "store.metadata_bytes",
        footprint.hot_bytes.saturating_sub(footprint.bytes_frozen) as f64,
    );
    engine.fill(&mut layer);
    layer.count("tier.frozen_blocks", snap.frozen_blocks as f64);
    layer.count("tier.blocks_dropped", snap.blocks_dropped as f64);
    layer.count("tier.blocks_recompressed", snap.blocks_recompressed as f64);
    layer.count("tier.bytes_frozen", snap.bytes_frozen as f64);
    layer.count("tier.compression_ratio", snap.compression_ratio);
    layer.count("tier.block_accesses", snap.block_accesses as f64);
    wal_metrics(&wal, &mut layer);
    vfs_metrics(&written, open_bytes, &mut layer);

    let mut self_time = String::new();
    if let Some(t) = trace::take() {
        trace_metrics(&t, loop_from, loop_to, &mut layer);
        self_time = self_time_table(&t);
        let path = cfg.work_dir.join(format!(
            "trace-{}-seed{}.jsonl",
            cfg.workload.name(),
            cfg.seed
        ));
        t.dump_jsonl(&path)?;
    }

    Ok(Outcome {
        ops,
        end_to_end: e2e.ordered(&END_TO_END),
        per_layer: layer.ordered(&PER_LAYER),
        input_digest: live.input_digest ^ digest(sample.iter().map(query_key)),
        self_time,
    })
}

fn query_key(q: &Query) -> i64 {
    match q {
        Query::Range(p) => p.lo ^ p.hi.rotate_left(17),
        Query::Point(v) => *v,
        Query::Aggregate { predicate, .. } => predicate.map_or(-1, |p| p.lo ^ p.hi.rotate_left(29)),
    }
}

/// Reopen `dir` `repeats` times after an unclean stop. Each open
/// is one operation; it fails unless the recovered table has exactly the
/// rows, active rows and tier layout of `before` and the same cumulative
/// tier counters. Returns the open times and the bytes the first open
/// read.
pub fn reopen(
    repeats: usize,
    vfs: &SharedVfs,
    counters: &VfsCounters,
    dir: &Path,
    before: &Table,
    tier_counters: (u64, u64),
    ops: &mut Ops,
) -> (Vec<f64>, u64) {
    let mut times = Vec::new();
    let mut bytes_read = None;
    for _ in 0..repeats {
        let read0 = counters.totals().bytes_read;
        let (opened, s) = timed(|| {
            trace::span("persist.open", || {
                PersistentTable::open_with(vfs.clone(), dir)
            })
        });
        times.push(s);
        bytes_read.get_or_insert(counters.totals().bytes_read - read0);
        let ok = opened.is_ok_and(|pt| {
            same_layout(pt.table(), before)
                && (pt.blocks_dropped(), pt.blocks_recompressed()) == tier_counters
        });
        ops.record(ok);
    }
    (times, bytes_read.unwrap_or(0))
}

/// Engine statistics summed over a run's queries.
#[derive(Debug, Default, Clone, Copy)]
pub struct EngineTotals {
    pub rows_scanned: usize,
    pub blocks_pruned: usize,
    pub words_pruned: usize,
    pub result_rows: usize,
    pub join_pairs: usize,
    pub groups: usize,
    pub blocks_refined: usize,
    pub morsels: usize,
    pub steals: usize,
    pub merge_ns: u64,
    pub max_q_error: f64,
}

impl EngineTotals {
    pub fn add(&mut self, s: &amnesia_engine::ExecStats) {
        self.rows_scanned += s.rows_scanned;
        self.blocks_pruned += s.blocks_pruned;
        self.words_pruned += s.words_pruned;
        self.result_rows += s.result_rows;
        self.join_pairs += s.join_pairs;
        self.groups += s.groups;
        self.blocks_refined += s.pred_stats.iter().map(|p| p.blocks_refined).sum::<usize>();
        self.morsels += s.morsels;
        self.steals += s.morsel_steals;
        self.merge_ns += s.merge_ns;
        for e in &s.stage_estimates {
            let q = amnesia_engine::q_error(e.est_rows, e.actual_rows as f64);
            self.max_q_error = self.max_q_error.max(q);
        }
    }

    pub fn fill(&self, layer: &mut Values) {
        layer.count("engine.rows_scanned", self.rows_scanned as f64);
        layer.count("engine.blocks_pruned", self.blocks_pruned as f64);
        layer.count("engine.words_pruned", self.words_pruned as f64);
        layer.count("engine.result_rows", self.result_rows as f64);
        layer.count("engine.join_pairs", self.join_pairs as f64);
        layer.count("engine.groups", self.groups as f64);
        layer.count("engine.blocks_refined", self.blocks_refined as f64);
        layer.count(
            "engine.useful_ratio",
            self.result_rows as f64 / self.rows_scanned.max(1) as f64,
        );
        layer.count("morsel.morsels", self.morsels as f64);
        layer.count("morsel.steals", self.steals as f64);
        layer.count("morsel.merge_s", self.merge_ns as f64 * 1e-9);
        layer.count("planner.max_q_error", self.max_q_error);
    }
}

pub fn wal_metrics(wal: &amnesia_columnar::WalStats, layer: &mut Values) {
    layer.count("wal.records_appended", wal.records_appended as f64);
    layer.count("wal.bytes_appended", wal.bytes_appended as f64);
    layer.count("wal.segments_rotated", wal.segments_rotated as f64);
    layer.count("wal.segments_shredded", wal.segments_shredded as f64);
    layer.count("wal.bytes_shredded", wal.bytes_shredded as f64);
    layer.count("wal.checkpoints", wal.checkpoints as f64);
}

pub fn vfs_metrics(t: &VfsTotals, open_bytes: u64, layer: &mut Values) {
    layer.count("vfs.open.bytes_read", open_bytes as f64);
    layer.count("vfs.bytes_written", t.bytes_written as f64);
    layer.count("vfs.write_calls", t.write_calls as f64);
    layer.count("vfs.fsyncs", t.fsyncs as f64);
    layer.count("vfs.dir_fsyncs", t.dir_fsyncs as f64);
    layer.count("vfs.files_created", t.files_created as f64);
    layer.count("vfs.files_removed", t.files_removed as f64);
    layer.set(
        "vfs.fsync.busy_s",
        t.fsync_ns as f64 * 1e-9,
        t.fsyncs as usize,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precision_weighs_kinds_by_the_mix_not_by_the_draw() {
        let mix = QueryGenKind::Mixed(vec![
            (0.6, QueryGenKind::paper_range()),
            (0.2, QueryGenKind::Point),
            (0.2, QueryGenKind::paper_avg_over_range()),
        ]);
        let shares = kind_shares(&mix);
        assert_eq!(shares, [0.6, 0.2, 0.2]);
        assert_eq!(kind_shares(&QueryGenKind::Point), [0.0, 1.0, 0.0]);
        // Ranges score 0.1 and points 1.0, however many of each were drawn.
        let few_points = [vec![0.1; 70], vec![1.0; 10], vec![0.1; 20]];
        let many_points = [vec![0.1; 50], vec![1.0; 30], vec![0.1; 20]];
        for draw in [&few_points, &many_points] {
            assert!((stratified_precision(draw, shares) - 0.28).abs() < 1e-12);
        }
        // A kind nobody drew does not count as zero precision.
        let no_avg = [vec![0.1; 70], vec![1.0; 10], vec![]];
        assert!((stratified_precision(&no_avg, shares) - 0.325).abs() < 1e-12);
    }
}
