//! The `sql_analytics` workload.
//!
//! Set-up generates the inputs and loads a fact table
//! `fact(ts, store, region, qty, price)` in durable batches through a
//! `PersistentTable`'s log (`PerBatch` sync, counting VFS); after each
//! batch the `Uniform` policy forgets a fifth of a batch's worth of rows
//! and the cold prefix is frozen. The batch metrics come from the last
//! set-up's load. The directory is then reopened after an unclean stop. A small hot
//! dimension table `dim(id, dregion, category)` joins on `fact.store`.
//!
//! The query phase is read-only: five SQL shapes, each with a seeded
//! pool of parameterisations, run through `amnesia_sql::run_with` on
//! `ExecMode::Parallel(2)`. A row-at-a-time reference over the
//! benchmark's own copy of the inputs answers every pool entry once,
//! before any timing.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use amnesia_columnar::compress::block_decodes;
use amnesia_columnar::persist::vfs::SharedVfs;
use amnesia_columnar::{
    DurabilityHook, DurableLog, PersistentTable, Schema, SyncPolicy, Table, WalStats,
};
use amnesia_core::{PolicyContext, PolicyKind, TierConfig};
use amnesia_engine::morsel::MORSEL_ROWS;
use amnesia_engine::{Aux, CostModel, ExecMode, Executor, ForgetVisibility, Scalar};
use amnesia_sql::parser::parse;
use amnesia_sql::plan::{bind, Catalog};
use amnesia_sql::{run_with, QueryOutcome, Statement};
use amnesia_util::SimRng;

use crate::report::{cycle_rate, mean, median, peak_rss_mb, percentile, windowed_percentile};
use crate::store_wl::{reopen, vfs_metrics, wal_metrics, EngineTotals};
use crate::vfs::{CountingVfs, VfsCounters, VfsTotals};
use crate::{
    coverage, digest, self_time_table, timed, trace, trace_metrics, Config, Ops, Outcome, Scale,
    Values, END_TO_END, PER_LAYER, SETUP_REPEATS,
};

/// Worker threads of the query executor.
pub const WORKERS: usize = 2;

/// Dimension rows (= distinct `fact.store` keys).
const STORES: i64 = 1_000;
const REGIONS: i64 = 16;
const DIM_REGIONS: i64 = 8;
const CATEGORIES: i64 = 20;
const MAX_QTY: i64 = 50;
const MAX_PRICE: i64 = 100_000;
/// Queries per window of the windowed p99.
const P99_WINDOW: usize = 200;
/// Rows forgotten per batch, as a fraction of the batch.
const FORGET_FRACTION: f64 = 0.2;

pub const SHAPES: [&str; 5] = [
    "grouped_selective",
    "grouped_wide",
    "global_agg",
    "topk_projection",
    "join_grouped",
];

/// `sql.<shape>.p50_us`, indexed like [`SHAPES`].
const SHAPE_METRICS: [&str; 5] = [
    "sql.grouped_selective.p50_us",
    "sql.grouped_wide.p50_us",
    "sql.global_agg.p50_us",
    "sql.topk_projection.p50_us",
    "sql.join_grouped.p50_us",
];

struct Sizes {
    batches: usize,
    batch_rows: usize,
    pool_per_shape: usize,
    queries: usize,
}

fn sizes(cfg: &Config) -> Sizes {
    match cfg.scale {
        Scale::Tiny => Sizes {
            batches: 4,
            batch_rows: 3_000,
            pool_per_shape: 3,
            queries: 30,
        },
        Scale::Full => Sizes {
            batches: 40,
            batch_rows: 30_000,
            pool_per_shape: 8,
            queries: cfg.scaled(1_200, 20),
        },
    }
}

/// The benchmark's copy of the fact table's inputs.
#[derive(Default)]
struct FactMirror {
    cols: [Vec<i64>; 5],
    active: Vec<bool>,
}

const TS: usize = 0;
const STORE: usize = 1;
const REGION: usize = 2;
const QTY: usize = 3;
const PRICE: usize = 4;

/// The two tables, by SQL name.
struct Tables {
    fact: Table,
    dim: Table,
}

impl Catalog for Tables {
    fn resolve(&self, name: &str) -> Option<&Table> {
        match name {
            "fact" => Some(&self.fact),
            "dim" => Some(&self.dim),
            _ => None,
        }
    }

    fn table_names(&self) -> Vec<String> {
        vec!["fact".into(), "dim".into()]
    }
}

/// Generated inputs: the fact rows batch by batch, the dimension rows.
struct Inputs {
    batches: Vec<Vec<Vec<i64>>>,
    dim: Vec<[i64; 3]>,
}

fn generate(seed: u64, sz: &Sizes) -> Inputs {
    let mut rng = SimRng::new(seed ^ 0x5157_4c5f_616e_616c);
    let ts0 = rng.range_i64(0, 1_000_000_000);
    let mut next_ts = ts0;
    let batches = (0..sz.batches)
        .map(|_| {
            (0..sz.batch_rows)
                .map(|_| {
                    next_ts += 1;
                    vec![
                        next_ts,
                        rng.range_i64(0, STORES),
                        rng.range_i64(0, REGIONS),
                        rng.range_i64(1, MAX_QTY + 1),
                        rng.range_i64(0, MAX_PRICE),
                    ]
                })
                .collect()
        })
        .collect();
    let dim = (0..STORES)
        .map(|id| {
            [
                id,
                rng.range_i64(0, DIM_REGIONS),
                rng.range_i64(0, CATEGORIES),
            ]
        })
        .collect();
    Inputs { batches, dim }
}

/// One parameterised query of the pool.
#[derive(Debug, Clone)]
struct PoolQuery {
    shape: usize,
    sql: String,
    params: [i64; 3],
}

fn pool(seed: u64, per_shape: usize, ts_lo: i64, ts_hi: i64) -> Vec<PoolQuery> {
    let mut rng = SimRng::new(seed ^ 0x706f_6f6c);
    let mut out = Vec::new();
    for _ in 0..per_shape {
        let a = rng.range_i64(0, MAX_PRICE - 2_000);
        let q = rng.range_i64(10, 40);
        out.push(PoolQuery {
            shape: 0,
            sql: format!(
                "SELECT region, COUNT(*), SUM(qty) FROM fact \
                 WHERE price BETWEEN {a} AND {} AND qty > {q} GROUP BY region",
                a + 2_000
            ),
            params: [a, a + 2_000, q],
        });
        let t = ts_lo + (ts_hi - ts_lo) * rng.range_i64(10, 50) / 100;
        out.push(PoolQuery {
            shape: 1,
            sql: format!(
                "SELECT store, COUNT(*), AVG(price), MAX(qty) FROM fact \
                 WHERE ts >= {t} GROUP BY store"
            ),
            params: [t, 0, 0],
        });
        let lo = rng.range_i64(1, 30);
        let hi = lo + rng.range_i64(5, 20);
        out.push(PoolQuery {
            shape: 2,
            sql: format!(
                "SELECT COUNT(*), SUM(price), MIN(price), MAX(price) FROM fact \
                 WHERE qty BETWEEN {lo} AND {hi}"
            ),
            params: [lo, hi, 0],
        });
        let p = rng.range_i64(90_000, 99_000);
        out.push(PoolQuery {
            shape: 3,
            sql: format!("SELECT ts, price FROM fact WHERE price > {p} ORDER BY ts DESC LIMIT 20"),
            params: [p, 0, 0],
        });
        let p = rng.range_i64(10_000, 50_000);
        let r = rng.range_i64(0, DIM_REGIONS);
        out.push(PoolQuery {
            shape: 4,
            sql: format!(
                "SELECT d.category, COUNT(*), SUM(f.qty) FROM fact AS f \
                 INNER JOIN dim AS d ON f.store = d.id \
                 WHERE f.price < {p} AND d.dregion = {r} GROUP BY d.category"
            ),
            params: [p, r, 0],
        });
    }
    out
}

/// Reference answer of a pool query, and its precision (active matches
/// over full-history matches of its filter).
fn reference(m: &FactMirror, dim: &[[i64; 3]], q: &PoolQuery) -> (Vec<Vec<Scalar>>, f64) {
    let [p0, p1, p2] = q.params;
    let c = &m.cols;
    let n = m.active.len();
    let matches = |r: usize| -> bool {
        match q.shape {
            0 => (p0..=p1).contains(&c[PRICE][r]) && c[QTY][r] > p2,
            1 => c[TS][r] >= p0,
            2 => (p0..=p1).contains(&c[QTY][r]),
            3 => c[PRICE][r] > p0,
            _ => c[PRICE][r] < p0 && dim[c[STORE][r] as usize][1] == p1,
        }
    };
    let (mut active, mut history) = (0usize, 0usize);
    let mut groups: BTreeMap<i64, (i64, i128, i64)> = BTreeMap::new();
    let mut global = (0i64, 0i128, i64::MAX, i64::MIN);
    let mut top: Vec<(i64, i64)> = Vec::new();
    for r in 0..n {
        if !matches(r) {
            continue;
        }
        history += 1;
        if !m.active[r] {
            continue;
        }
        active += 1;
        match q.shape {
            0 => {
                let g = groups.entry(c[REGION][r]).or_default();
                g.0 += 1;
                g.1 += i128::from(c[QTY][r]);
            }
            1 => {
                let g = groups.entry(c[STORE][r]).or_insert((0, 0, i64::MIN));
                g.0 += 1;
                g.1 += i128::from(c[PRICE][r]);
                g.2 = g.2.max(c[QTY][r]);
            }
            2 => {
                global.0 += 1;
                global.1 += i128::from(c[PRICE][r]);
                global.2 = global.2.min(c[PRICE][r]);
                global.3 = global.3.max(c[PRICE][r]);
            }
            3 => top.push((c[TS][r], c[PRICE][r])),
            _ => {
                let g = groups.entry(dim[c[STORE][r] as usize][2]).or_default();
                g.0 += 1;
                g.1 += i128::from(c[QTY][r]);
            }
        }
    }
    let int = |v: i128| Scalar::Int(v as i64);
    let rows = match q.shape {
        0 | 4 => groups
            .iter()
            .map(|(&k, g)| vec![Scalar::Int(k), Scalar::Int(g.0), int(g.1)])
            .collect(),
        1 => groups
            .iter()
            .map(|(&k, g)| {
                vec![
                    Scalar::Int(k),
                    Scalar::Int(g.0),
                    Scalar::Float(g.1 as f64 / g.0 as f64),
                    Scalar::Int(g.2),
                ]
            })
            .collect(),
        2 if global.0 == 0 => vec![vec![
            Scalar::Int(0),
            Scalar::Null,
            Scalar::Null,
            Scalar::Null,
        ]],
        2 => vec![vec![
            Scalar::Int(global.0),
            int(global.1),
            Scalar::Int(global.2),
            Scalar::Int(global.3),
        ]],
        _ => {
            top.sort_by_key(|t| std::cmp::Reverse(t.0));
            top.truncate(20);
            top.iter()
                .map(|&(ts, p)| vec![Scalar::Int(ts), Scalar::Int(p)])
                .collect()
        }
    };
    let precision = if history == 0 {
        1.0
    } else {
        active as f64 / history as f64
    };
    (rows, precision)
}

fn scalar_eq(a: &Scalar, b: &Scalar) -> bool {
    match (a, b) {
        (Scalar::Float(x), Scalar::Float(y)) => (x - y).abs() <= 1e-9 * y.abs().max(1.0),
        _ => a == b,
    }
}

/// Compare an answer with the reference. Grouped answers carry no
/// ORDER BY, so both sides are compared sorted by their group key.
fn answer_matches(shape: usize, got: &[Vec<Scalar>], want: &[Vec<Scalar>]) -> bool {
    let mut got = got.to_vec();
    if matches!(shape, 0 | 1 | 4) {
        got.sort_by(|a, b| a[0].total_cmp(&b[0]));
    }
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(g, w)| g.len() == w.len() && g.iter().zip(w).all(|(a, b)| scalar_eq(a, b)))
}

fn executor() -> Executor {
    Executor::new(ForgetVisibility::ActiveOnly, CostModel::default())
        .with_exec_mode(ExecMode::Parallel(WORKERS))
        .with_morsel_rows(MORSEL_ROWS)
}

/// Run one query the way a traced run sees it: parse, bind, lower and
/// execute as separate spans.
fn run_traced(
    tables: &Tables,
    exec: &Executor,
    sql: &str,
) -> Option<(Vec<Vec<Scalar>>, amnesia_engine::ExecStats)> {
    let stmt = trace::span("sql.parse", || parse(sql)).ok()?;
    let Statement::Select(select) = stmt else {
        return None;
    };
    let bound = trace::span("sql.bind", || bind(tables, &select)).ok()?;
    let plan = trace::span("sql.lower", || bound.lower());
    let resolved = bound
        .tables
        .iter()
        .map(|(name, _)| tables.resolve(name))
        .collect::<Option<Vec<&Table>>>()?;
    let auxes: Vec<Aux<'_>> = resolved.iter().map(|_| Aux::default()).collect();
    let res = trace::span("engine.execute_plan", || {
        exec.execute_plan(&resolved, &auxes, &plan)
    });
    Some((res.rows, res.stats))
}

fn run_plain(
    tables: &Tables,
    exec: &Executor,
    sql: &str,
) -> Option<(Vec<Vec<Scalar>>, amnesia_engine::ExecStats)> {
    match run_with(tables, sql, exec) {
        Ok(QueryOutcome::Rows(rs)) => Some((rs.rows, rs.stats)),
        _ => None,
    }
}

/// The fact table after its durable load and an unclean stop, with
/// everything the load measured.
struct Loaded {
    inputs: Inputs,
    fact: Table,
    vfs: SharedVfs,
    counters: Arc<VfsCounters>,
    mirror: FactMirror,
    batch_ms: Vec<f64>,
    victims_total: usize,
    rows_inserted: usize,
    ops: Ops,
    /// The load's interval on the trace clock.
    loop_from: u64,
    loop_to: u64,
    wal: WalStats,
    written: VfsTotals,
    tier_counters: (u64, u64),
}

/// Set-up: generate the inputs and load the fact table in durable
/// batches. After each batch the `Uniform` policy forgets a fifth of a
/// batch's worth of rows, and the batch ends with the same tier
/// transitions as a tiered store. The load ends in an unclean stop: the
/// log is dropped without a checkpoint. `traced` starts the span
/// recorder before the first batch.
fn load(cfg: &Config, sz: &Sizes, dir: &Path, traced: bool) -> amnesia_util::Result<Loaded> {
    let inputs = generate(cfg.seed, sz);
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    let schema = Schema::new(vec!["ts", "store", "region", "qty", "price"]);
    let (vfs, counters) = CountingVfs::shared();
    let (mut fact, mut log) =
        PersistentTable::create_with(vfs.clone(), dir, schema, SyncPolicy::PerBatch)?.into_parts();
    let tier = TierConfig::default();
    let mut policy = PolicyKind::Uniform.build();
    let mut rng_policy = SimRng::new(cfg.seed ^ 0x706f_6c69_6379);
    let mut mirror = FactMirror::default();
    let mut batch_ms = Vec::new();
    let mut victims_total = 0usize;
    let mut rows_inserted = 0usize;
    let mut ops = Ops::default();

    if traced {
        trace::enable();
    }
    let loop_from = trace::now_ns();
    for (i, rows) in inputs.batches.iter().enumerate() {
        let epoch = i as u64 + 1;
        trace::set_request(epoch);
        let t0 = Instant::now();
        let mut ok = trace::span("persist.insert_batch", || -> amnesia_util::Result<()> {
            log.log_insert_rows(rows, epoch)?;
            for row in rows {
                fact.insert(row, epoch)?;
            }
            Ok(())
        })
        .is_ok();
        let need = (rows.len() as f64 * FORGET_FRACTION).round() as usize;
        let victims = trace::span("policy.select_victims", || {
            let ctx = PolicyContext {
                table: &fact,
                epoch,
            };
            policy.select_victims(&ctx, need, &mut rng_policy)
        });
        ok &= trace::span("persist.forget_batch", || -> amnesia_util::Result<()> {
            for &v in &victims {
                log.log_forget(v, epoch)?;
                fact.forget(v, epoch)?;
            }
            Ok(())
        })
        .is_ok();
        ok &= trace::span("persist.end_batch", || end_batch(&mut fact, &mut log, tier)).is_ok();
        batch_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        victims_total += victims.len();
        rows_inserted += rows.len();
        let ok = trace::span("bench.oracle", || {
            for row in rows {
                for (c, &v) in row.iter().enumerate() {
                    mirror.cols[c].push(v);
                }
                mirror.active.push(true);
            }
            for v in &victims {
                mirror.active[v.0 as usize] = false;
            }
            ok && fact.active_rows() == mirror.active.iter().filter(|&&a| a).count()
        });
        ops.record(ok);
    }
    let loop_to = trace::now_ns();
    let wal = log.stats();
    let tier_counters = (log.blocks_dropped(), log.blocks_recompressed());
    drop(log);
    Ok(Loaded {
        inputs,
        fact,
        written: counters.totals(),
        vfs,
        counters,
        mirror,
        batch_ms,
        victims_total,
        rows_inserted,
        ops,
        loop_from,
        loop_to,
        wal,
        tier_counters,
    })
}

pub fn run(cfg: &Config) -> amnesia_util::Result<Outcome> {
    let sz = sizes(cfg);
    let dir = cfg
        .work_dir
        .join(format!("sql_analytics-{}", std::process::id()));
    // Every load is measured: its batches, and one reopen after its
    // unclean stop. Pooling the three spreads the write-side samples
    // over three stretches of the run.
    let mut loads = Measured::default();
    let loaded = loop {
        let last = loads.setup_s.len() + 1 == SETUP_REPEATS;
        let (loaded, s) = timed(|| load(cfg, &sz, &dir, cfg.trace && last));
        let loaded = loaded?;
        loads.setup_s.push(s);
        loads.batch_ms.extend_from_slice(&loaded.batch_ms);
        loads.ops.add(loaded.ops);
        let (open_s, open_bytes) = reopen(
            1,
            &loaded.vfs,
            &loaded.counters,
            &dir,
            &loaded.fact,
            loaded.tier_counters,
            &mut loads.ops,
        );
        loads.recovery_s.extend(open_s);
        loads.open_bytes = open_bytes;
        if last {
            break loaded;
        }
    };
    let out = run_loaded(cfg, &sz, loaded, loads);
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// What the set-up loads measured, pooled over all of them.
#[derive(Default)]
struct Measured {
    setup_s: Vec<f64>,
    batch_ms: Vec<f64>,
    recovery_s: Vec<f64>,
    /// Bytes the last reopen read.
    open_bytes: u64,
    ops: Ops,
}

fn run_loaded(
    cfg: &Config,
    sz: &Sizes,
    loaded: Loaded,
    loads: Measured,
) -> amnesia_util::Result<Outcome> {
    let Loaded {
        inputs,
        fact,
        mirror,
        victims_total,
        rows_inserted,
        loop_from,
        loop_to,
        wal,
        written,
        tier_counters,
        ..
    } = loaded;
    let Measured {
        setup_s,
        batch_ms,
        recovery_s,
        open_bytes,
        mut ops,
    } = loads;
    let mut e2e = Values::default();
    let mut layer = Values::default();

    let mut dim = Table::new(Schema::new(vec!["id", "dregion", "category"]));
    for row in &inputs.dim {
        dim.insert(row, 0)?;
    }
    let tables = Tables { fact, dim };
    let ts = &mirror.cols[TS];
    let queries = pool(
        cfg.seed,
        sz.pool_per_shape,
        ts.first().copied().unwrap_or(0),
        ts.last().copied().unwrap_or(0),
    );
    let (answers, precision): (Vec<_>, Vec<_>) = queries
        .iter()
        .map(|q| reference(&mirror, &inputs.dim, q))
        .unzip();

    // Query phase: read-only, round-robin over the shapes, seeded picks
    // from each shape's pool.
    let exec = executor();
    // Warm-up: every pool query once, checked but not timed, so the
    // timed queries do not pay first-touch page faults.
    for (q, want) in queries.iter().zip(&answers) {
        let got = trace::suspended(|| run_plain(&tables, &exec, &q.sql));
        ops.record(got.is_some_and(|(rows, _)| answer_matches(q.shape, &rows, want)));
    }
    let mut rng_pick = SimRng::new(cfg.seed ^ 0x7069_636b);
    let mut query_us = Vec::new();
    let mut shape_us: [Vec<f64>; 5] = Default::default();
    let mut engine = EngineTotals::default();
    let decodes0 = block_decodes();
    let query_from = trace::now_ns();
    for i in 0..sz.queries {
        let shape = i % SHAPES.len();
        let k = shape + SHAPES.len() * rng_pick.range_i64(0, sz.pool_per_shape as i64) as usize;
        let q = &queries[k];
        trace::set_request(1_000_000 + i as u64);
        let t0 = Instant::now();
        let got = if cfg.trace {
            trace::span("sql.run", || run_traced(&tables, &exec, &q.sql))
        } else {
            run_plain(&tables, &exec, &q.sql)
        };
        let us = t0.elapsed().as_secs_f64() * 1e6;
        query_us.push(us);
        shape_us[shape].push(us);
        let ok = trace::span("bench.oracle", || match got {
            Some((mut rows, stats)) => {
                engine.add(&stats);
                if cfg.perturb && i == 0 {
                    rows.push(vec![Scalar::Null]);
                }
                answer_matches(shape, &rows, &answers[k])
            }
            None => false,
        });
        ops.record(ok);
    }
    let query_to = trace::now_ns();
    // Every load inserts the same batches, in the same order.
    let row_rates: Vec<f64> = inputs
        .batches
        .iter()
        .cycle()
        .zip(&batch_ms)
        .map(|(rows, ms)| rows.len() as f64 / (ms * 1e-3))
        .collect();
    let mut decodes = block_decodes() - decodes0;

    if cfg.trace {
        // Worker threads keep their own decode counters: replay the pool
        // serially once so every decode lands on this thread's counter.
        let serial = executor().with_exec_mode(ExecMode::Serial);
        let d0 = block_decodes();
        for q in &queries {
            trace::suspended(|| run_plain(&tables, &serial, &q.sql));
        }
        decodes += block_decodes() - d0;
        // Tracing overhead: the same queries with and without spans.
        let (mut on, mut off) = (Vec::new(), Vec::new());
        for q in queries.iter().cycle().take(2 * queries.len()) {
            let (_, s) = timed(|| trace::suspended(|| run_plain(&tables, &exec, &q.sql)));
            off.push(s);
            let (_, s) = timed(|| {
                trace::span("bench.overhead_probe", || {
                    run_traced(&tables, &exec, &q.sql)
                })
            });
            on.push(s);
        }
        layer.set(
            "trace.overhead_pct",
            (median(&on) / median(&off) - 1.0) * 100.0,
            on.len(),
        );
    }

    let fact = &tables.fact;
    let user_bytes = (rows_inserted * 5 * 8) as f64;
    e2e.set("query_p50_us", percentile(&query_us, 50.0), query_us.len());
    e2e.set(
        "query_p99_us",
        windowed_percentile(&query_us, P99_WINDOW, 99.0),
        query_us.len(),
    );
    let cycle_s: Vec<f64> = query_us.iter().map(|us| us * 1e-6).collect();
    e2e.set("queries_per_s", cycle_rate(&cycle_s), cycle_s.len());
    e2e.set("batch_p50_ms", percentile(&batch_ms, 50.0), batch_ms.len());
    e2e.set("batch_p90_ms", percentile(&batch_ms, 90.0), batch_ms.len());
    e2e.set("loop_rows_per_s", median(&row_rates), row_rates.len());
    e2e.set("recovery_s", median(&recovery_s), recovery_s.len());
    e2e.set(
        "resident_bytes_per_active_row",
        fact.memory_bytes() as f64 / fact.active_rows().max(1) as f64,
        1,
    );
    e2e.set(
        "disk_bytes_per_user_byte",
        written.bytes_written as f64 / user_bytes,
        1,
    );
    e2e.set("mean_precision", mean(&precision), precision.len());
    e2e.set("setup_s", median(&setup_s), setup_s.len());
    e2e.set("peak_rss_mb", peak_rss_mb(), 1);

    layer.count("policy.victims", victims_total as f64);
    layer.count(
        "store.metadata_bytes",
        fact.memory_bytes().saturating_sub(fact.bytes_frozen()) as f64,
    );
    for (name, us) in SHAPE_METRICS.iter().zip(&shape_us) {
        layer.set(name, percentile(us, 50.0), us.len());
    }
    engine.fill(&mut layer);
    layer.count("compress.block_decodes", decodes as f64);
    layer.count("tier.frozen_blocks", fact.frozen_blocks() as f64);
    layer.count("tier.blocks_dropped", tier_counters.0 as f64);
    layer.count("tier.blocks_recompressed", tier_counters.1 as f64);
    layer.count("tier.bytes_frozen", fact.bytes_frozen() as f64);
    layer.count("tier.compression_ratio", fact.compression_ratio());
    layer.count("tier.block_accesses", fact.block_accesses() as f64);
    wal_metrics(&wal, &mut layer);
    vfs_metrics(&written, open_bytes, &mut layer);

    let mut self_time = String::new();
    if let Some(t) = trace::take() {
        // Coverage is the write loop's; the query phase is reported as
        // its own line of the self-time table.
        trace_metrics(&t, loop_from, loop_to, &mut layer);
        self_time = format!(
            "{}  query-phase coverage by top-level spans: {:.4}\n",
            self_time_table(&t),
            coverage(&t, query_from, query_to)
        );
        t.dump_jsonl(
            &cfg.work_dir
                .join(format!("trace-sql_analytics-seed{}.jsonl", cfg.seed)),
        )?;
    }

    Ok(Outcome {
        ops,
        end_to_end: e2e.ordered(&END_TO_END),
        per_layer: layer.ordered(&PER_LAYER),
        input_digest: digest(inputs.batches.iter().flatten().flatten().copied())
            ^ digest(queries.iter().flat_map(|q| q.params)),
        self_time,
    })
}

/// Batch end for the fact table: the same tier transitions, in the same
/// write-ahead order, as `AmnesiacStore::end_batch` with tiering on.
fn end_batch(fact: &mut Table, log: &mut DurableLog, tier: TierConfig) -> amnesia_util::Result<()> {
    let upto = fact.num_rows().saturating_sub(tier.hot_rows);
    log.log_freeze(upto)?;
    log.log_drop_blocks()?;
    log.log_recompress(tier.recompress_below)?;
    fact.freeze_upto(upto);
    let (dropped, _) = fact.drop_forgotten_blocks();
    let (recompressed, _) = fact.recompress_frozen(tier.recompress_below);
    log.note_transition_results(dropped as u64, recompressed as u64);
    if dropped > 0 {
        log.shred(fact)?;
    }
    log.commit()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_matches_a_hand_count() {
        let mut m = FactMirror::default();
        // ts, store, region, qty, price
        for (i, row) in [
            [1, 0, 3, 20, 500],
            [2, 1, 3, 30, 900],
            [3, 0, 4, 45, 1_500],
            [4, 1, 4, 5, 99_500],
        ]
        .iter()
        .enumerate()
        {
            for (c, &v) in row.iter().enumerate() {
                m.cols[c].push(v);
            }
            m.active.push(i != 1);
        }
        let q = PoolQuery {
            shape: 0,
            sql: String::new(),
            params: [0, 2_000, 10],
        };
        let (rows, precision) = reference(&m, &[], &q);
        assert_eq!(
            rows,
            vec![
                vec![Scalar::Int(3), Scalar::Int(1), Scalar::Int(20)],
                vec![Scalar::Int(4), Scalar::Int(1), Scalar::Int(45)],
            ]
        );
        assert!((precision - 2.0 / 3.0).abs() < 1e-12);
        let mut perturbed = rows.clone();
        perturbed[0][2] = Scalar::Int(21);
        assert!(answer_matches(0, &rows, &rows));
        assert!(!answer_matches(0, &perturbed, &rows));
    }
}
