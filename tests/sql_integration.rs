//! Cross-crate checks: the SQL surface must agree exactly with the
//! engine kernels on the amnesiac visibility semantics.
//!
//! The second half is the physical-plan equivalence suite: every SQL
//! query shape, executed over a half-frozen (and recompressed) table
//! through the lowered `PhysicalPlan`, must return exactly what (a) the
//! same query over a never-frozen flat twin returns and (b) a
//! row-at-a-time reference interpreter computes — across codecs × block
//! sizes — and frozen-only queries must finish with **zero** block
//! decodes.

use amnesia::columnar::compress::{block_decodes, Encoding};
use amnesia::engine::{kernels, ColPred};
use amnesia::prelude::*;
use amnesia::sql::plan::{BoundFilter, BoundItem, Catalog as SqlCatalog};
use amnesia::sql::{bind, parse, run, Datum, QueryOutcome, Statement};
use proptest::prelude::*;
use std::collections::HashMap;

/// One-table database plus a model vector of `(value, active)`.
fn build(values: &[i64], forget: &[usize]) -> (Database, Vec<(i64, bool)>) {
    let mut db = Database::new();
    let t = db.add_table("t", Schema::single("a"));
    db.table_mut(t).insert_batch(values, 0).unwrap();
    let mut model: Vec<(i64, bool)> = values.iter().map(|&v| (v, true)).collect();
    for &f in forget {
        if !values.is_empty() {
            let idx = f % values.len();
            db.table_mut(t).forget(RowId(idx as u64), 1).unwrap();
            model[idx].1 = false;
        }
    }
    (db, model)
}

fn sql_rows(db: &Database, sql: &str) -> Vec<Vec<Datum>> {
    match run(db, sql).unwrap() {
        QueryOutcome::Rows(rs) => rs.rows,
        QueryOutcome::Plan(p) => panic!("unexpected plan {p}"),
    }
}

fn sql_scalar(db: &Database, sql: &str) -> Datum {
    let rows = sql_rows(db, sql);
    assert_eq!(rows.len(), 1, "{sql}");
    rows[0][0]
}

#[test]
fn sql_count_matches_engine_kernel() {
    let values: Vec<i64> = (0..500).map(|i| (i * 37) % 1000).collect();
    let (db, _) = build(&values, &[1, 5, 9, 13, 200, 201, 499]);
    let table = db.table(db.table_id("t").unwrap());
    for (lo, hi) in [(0i64, 100i64), (250, 750), (990, 1000), (500, 500)] {
        let pred = [ColPred::from_range(0, RangePredicate::new(lo, hi))];
        let engine_count = kernels::selection_count(&kernels::selection_scan(table, &pred).0);
        // SQL BETWEEN is inclusive: [lo, hi-1] == [lo, hi).
        let sql = format!("SELECT COUNT(*) FROM t WHERE a BETWEEN {lo} AND {}", hi - 1);
        assert_eq!(
            sql_scalar(&db, &sql),
            Datum::Int(engine_count as i64),
            "range [{lo}, {hi})"
        );
    }
}

#[test]
fn sql_avg_matches_engine_kernel() {
    let values: Vec<i64> = (0..300).map(|i| (i * 13) % 777).collect();
    let (db, _) = build(&values, &[2, 4, 8, 16, 32, 64, 128, 256]);
    let table = db.table(db.table_id("t").unwrap());
    let (state, _) = kernels::aggregate_state_active(table, 0, Some(RangePredicate::new(100, 600)));
    let engine_avg = state.finalize(AggKind::Avg);
    match sql_scalar(&db, "SELECT AVG(a) FROM t WHERE a BETWEEN 100 AND 599") {
        Datum::Float(v) => {
            let expected = engine_avg.unwrap();
            assert!((v - expected).abs() < 1e-9, "sql {v} engine {expected}");
        }
        other => panic!("expected float, got {other:?}"),
    }
}

#[test]
fn forgotten_tuples_never_appear_in_sql_results() {
    let values: Vec<i64> = (0..100).collect();
    let (db, model) = build(&values, &[10, 20, 30, 40]);
    let rows = sql_rows(&db, "SELECT a FROM t ORDER BY a");
    let got: Vec<i64> = rows.iter().map(|r| r[0].as_int().unwrap()).collect();
    let expected: Vec<i64> = model
        .iter()
        .filter(|(_, active)| *active)
        .map(|(v, _)| *v)
        .collect();
    assert_eq!(got, expected);
}

#[test]
fn sql_sees_the_simulator_store() {
    // The simulator's table is a plain columnar table: wire it into a
    // database and query it through SQL mid-simulation.
    let cfg = SimConfig::builder()
        .dbsize(200)
        .domain(10_000)
        .update_fraction(0.2)
        .batches(4)
        .queries_per_batch(20)
        .distribution(DistributionKind::Uniform)
        .policy(PolicyKind::Uniform)
        .seed(7)
        .build()
        .unwrap();
    let mut sim = Simulator::new(cfg).unwrap();
    for _ in 0..4 {
        sim.step().unwrap();
    }
    assert_eq!(sim.table().active_rows(), 200);

    let mut db = Database::new();
    let t = db.add_table("t", Schema::single("a"));
    // Rebuild from the simulator table's physical rows.
    let table = sim.table();
    for r in 0..table.num_rows() {
        let id = RowId::from(r);
        db.table_mut(t).insert(&[table.value(0, id)], 0).unwrap();
        if !table.activity().is_active(id) {
            db.table_mut(t).forget(id, 1).unwrap();
        }
    }
    let n = sql_scalar(&db, "SELECT COUNT(*) FROM t");
    assert_eq!(n, Datum::Int(200), "SQL sees exactly the active budget");
}

// ---------------------------------------------------------------------
// Physical-plan equivalence: tiered == flat == row-at-a-time reference.
// ---------------------------------------------------------------------

/// A catalog over explicitly-built tables (block sizes and codecs the
/// `Database` constructor doesn't expose).
struct TestCatalog {
    tables: Vec<(String, Table)>,
}

impl SqlCatalog for TestCatalog {
    fn resolve(&self, name: &str) -> Option<&Table> {
        self.tables.iter().find(|(n, _)| n == name).map(|(_, t)| t)
    }

    fn table_names(&self) -> Vec<String> {
        self.tables.iter().map(|(n, _)| n.clone()).collect()
    }
}

/// Row-at-a-time reference interpreter for a bound query: `iter_active`
/// with per-row `Table::value` reads and a scalar `HashMap` — exactly
/// the execution shape the physical plan replaced, kept here as the
/// behavioral oracle.
fn reference_execute(catalog: &TestCatalog, sql: &str) -> Vec<Vec<Datum>> {
    let stmt = parse(sql).unwrap();
    let select = match stmt {
        Statement::Select(s) | Statement::Explain(s) => s,
    };
    let q = bind(catalog, &select).unwrap();
    let tables: Vec<&Table> = q
        .tables
        .iter()
        .map(|(n, _)| catalog.resolve(n).unwrap())
        .collect();

    let scan = |slot: usize| -> Vec<RowId> {
        let filters: Vec<&BoundFilter> = q
            .filters
            .iter()
            .filter(|f| f.column().slot == slot)
            .collect();
        tables[slot]
            .iter_active()
            .filter(|&r| {
                filters
                    .iter()
                    .all(|f| f.matches(tables[slot].value(f.column().col, r)))
            })
            .collect()
    };

    // Joined (or single-table) row stream: [left row, right row].
    let rows: Vec<[RowId; 2]> = match &q.join {
        Some((l, r)) => {
            let mut build: HashMap<i64, Vec<RowId>> = HashMap::new();
            for &lr in &scan(0) {
                build
                    .entry(tables[0].value(l.col, lr))
                    .or_default()
                    .push(lr);
            }
            let mut out = Vec::new();
            for &rr in &scan(1) {
                if let Some(ls) = build.get(&tables[1].value(r.col, rr)) {
                    out.extend(ls.iter().map(|&lr| [lr, rr]));
                }
            }
            out
        }
        None => scan(0).into_iter().map(|r| [r, RowId(0)]).collect(),
    };

    let value_of = |slot: usize, col: usize, row: &[RowId; 2]| tables[slot].value(col, row[slot]);

    let mut out: Vec<Vec<Datum>> = if q.has_aggregates() || q.group_by.is_some() {
        // (key, per-item (count, sum, min, max)) in first-seen order.
        type Acc = (u64, i128, i64, i64);
        let mut groups: Vec<(Option<i64>, Vec<Acc>)> = Vec::new();
        if q.group_by.is_none() {
            groups.push((None, vec![(0, 0, i64::MAX, i64::MIN); q.items.len()]));
        }
        for row in &rows {
            let key = q.group_by.as_ref().map(|g| value_of(g.slot, g.col, row));
            let slot = match groups.iter().position(|(k, _)| *k == key) {
                Some(s) => s,
                None => {
                    groups.push((key, vec![(0, 0, i64::MAX, i64::MIN); q.items.len()]));
                    groups.len() - 1
                }
            };
            for (i, item) in q.items.iter().enumerate() {
                let acc = &mut groups[slot].1[i];
                match item {
                    BoundItem::Aggregate { arg: Some(c), .. } => {
                        let v = value_of(c.slot, c.col, row);
                        acc.0 += 1;
                        acc.1 += v as i128;
                        acc.2 = acc.2.min(v);
                        acc.3 = acc.3.max(v);
                    }
                    BoundItem::Aggregate { arg: None, .. } => acc.0 += 1,
                    BoundItem::Column(_) => {}
                }
            }
        }
        groups
            .into_iter()
            .map(|(key, accs)| {
                q.items
                    .iter()
                    .zip(accs)
                    .map(|(item, (count, sum, min, max))| match item {
                        BoundItem::Column(_) => Datum::Int(key.expect("group key")),
                        BoundItem::Aggregate { func, .. } => {
                            use amnesia::sql::ast::AggFunc;
                            if count == 0 {
                                return match func {
                                    AggFunc::Count => Datum::Int(0),
                                    _ => Datum::Null,
                                };
                            }
                            match func {
                                AggFunc::Count => Datum::Int(count as i64),
                                AggFunc::Sum => match i64::try_from(sum) {
                                    Ok(v) => Datum::Int(v),
                                    Err(_) => Datum::Float(sum as f64),
                                },
                                AggFunc::Avg => Datum::Float(sum as f64 / count as f64),
                                AggFunc::Min => Datum::Int(min),
                                AggFunc::Max => Datum::Int(max),
                            }
                        }
                    })
                    .collect()
            })
            .collect()
    } else {
        rows.iter()
            .map(|row| {
                q.items
                    .iter()
                    .map(|item| match item {
                        BoundItem::Column(c) => Datum::Int(value_of(c.slot, c.col, row)),
                        BoundItem::Aggregate { .. } => unreachable!(),
                    })
                    .collect()
            })
            .collect()
    };

    if let Some((idx, order)) = q.order_by {
        out.sort_by(|a, b| {
            let ord = a[idx].total_cmp(&b[idx]);
            match order {
                amnesia::sql::ast::SortOrder::Asc => ord,
                amnesia::sql::ast::SortOrder::Desc => ord.reverse(),
            }
        });
    }
    if let Some(limit) = q.limit {
        out.truncate(limit as usize);
    }
    out
}

fn run_rows(catalog: &TestCatalog, sql: &str) -> Vec<Vec<Datum>> {
    match run(catalog, sql).unwrap() {
        QueryOutcome::Rows(rs) => rs.rows,
        QueryOutcome::Plan(p) => panic!("unexpected plan {p}"),
    }
}

/// The query shapes the suite sweeps: projections, conjunctions,
/// negation, grouped and global aggregates, join, order, limit.
fn query_shapes(lo: i64, hi: i64, ne: i64) -> Vec<String> {
    vec![
        "SELECT g, a, b FROM t".to_string(),
        format!("SELECT a FROM t WHERE a BETWEEN {lo} AND {hi} AND b > 40 AND g <> {ne}"),
        format!(
            "SELECT g, COUNT(*) AS n, SUM(a) AS s, MIN(b) AS lo, MAX(a) AS hi, AVG(a) AS m \
             FROM t WHERE a >= {lo} AND b <> 13 GROUP BY g ORDER BY g"
        ),
        format!("SELECT COUNT(*), SUM(b), AVG(b) FROM t WHERE a BETWEEN {lo} AND {hi}"),
        format!("SELECT a, b FROM t WHERE g = {ne} ORDER BY a DESC LIMIT 7"),
        format!(
            "SELECT t.g, SUM(u.w) AS tw FROM t JOIN u ON t.a = u.k \
             WHERE u.w BETWEEN 5 AND 90 AND t.b <= 50 GROUP BY t.g ORDER BY tw DESC LIMIT 9"
        ),
        "SELECT t.a, u.w FROM t JOIN u ON t.a = u.k WHERE u.w > 50".to_string(),
    ]
}

/// Build the tiered table + flat twin pair for one codec/block-size
/// configuration, with forgets on both sides of the freeze boundary and
/// an optional recompression pass.
fn tiered_and_flat(
    rows: &[(i64, i64, i64)],
    forget: &[usize],
    block_rows: usize,
    encoding: Option<Encoding>,
    freeze_frac: f64,
    recompress: bool,
) -> (Table, Table) {
    let schema = Schema::new(vec!["g", "a", "b"]);
    let mut tiered = Table::with_block_rows(schema.clone(), block_rows);
    let mut flat = Table::new(schema);
    for &(g, a, b) in rows {
        tiered.insert(&[g, a, b], 0).unwrap();
        flat.insert(&[g, a, b], 0).unwrap();
    }
    if let Some(enc) = encoding {
        for c in 0..3 {
            tiered.pin_encoding(c, Some(enc));
        }
    }
    for &f in forget {
        let r = RowId((f % rows.len().max(1)) as u64);
        tiered.forget(r, 1).unwrap();
        flat.forget(r, 1).unwrap();
    }
    tiered.freeze_upto((rows.len() as f64 * freeze_frac) as usize);
    if recompress {
        tiered.recompress_frozen(1.0);
    }
    (tiered, flat)
}

/// `u(k, w)` join partner table (kept hot in the flat twin, frozen in
/// the tiered one).
fn partner(n: usize, freeze: bool) -> Table {
    let mut t = Table::new(Schema::new(vec!["k", "w"]));
    for i in 0..n as i64 {
        t.insert(&[i % 97, (i * 31) % 100], 0).unwrap();
    }
    for r in (0..n as u64).step_by(6) {
        t.forget(RowId(r), 1).unwrap();
    }
    if freeze {
        t.freeze_upto(n);
    }
    t
}

#[test]
fn sql_over_tiered_tables_matches_flat_twin_and_reference() {
    let mut rng = SimRng::new(0x5EED);
    let rows: Vec<(i64, i64, i64)> = (0..3_000)
        .map(|i| ((i / 100) % 7, rng.range_i64(0, 120), rng.range_i64(0, 100)))
        .collect();
    let forget: Vec<usize> = (0..400).map(|_| rng.range_i64(0, 3_000) as usize).collect();
    for encoding in [
        None,
        Some(Encoding::Rle),
        Some(Encoding::Dict),
        Some(Encoding::ForPack),
        Some(Encoding::Delta),
    ] {
        for block_rows in [128usize, 1024] {
            for recompress in [false, true] {
                let (tiered, flat) =
                    tiered_and_flat(&rows, &forget, block_rows, encoding, 0.7, recompress);
                assert!(tiered.has_frozen(), "suite must cover frozen blocks");
                let tiered_cat = TestCatalog {
                    tables: vec![("t".into(), tiered), ("u".into(), partner(1_500, true))],
                };
                let flat_cat = TestCatalog {
                    tables: vec![("t".into(), flat), ("u".into(), partner(1_500, false))],
                };
                for q in query_shapes(20, 90, 3) {
                    let got = run_rows(&tiered_cat, &q);
                    let flat_rows = run_rows(&flat_cat, &q);
                    let want = reference_execute(&flat_cat, &q);
                    let ctx = format!(
                        "{encoding:?} block_rows={block_rows} recompress={recompress} q={q}"
                    );
                    assert_eq!(got, flat_rows, "tiered == flat: {ctx}");
                    assert_eq!(got, want, "tiered == reference: {ctx}");
                }
            }
        }
    }
}

#[test]
fn frozen_only_queries_decode_zero_blocks() {
    let mut rng = SimRng::new(7);
    let rows: Vec<(i64, i64, i64)> = (0..4_096)
        .map(|i| ((i / 512) % 8, rng.range_i64(0, 200), rng.range_i64(0, 50)))
        .collect();
    for encoding in [None, Some(Encoding::Rle), Some(Encoding::Dict)] {
        let (tiered, flat) =
            tiered_and_flat(&rows, &[1, 65, 1030, 2049], 1024, encoding, 1.0, false);
        assert_eq!(tiered.col_tier(0).hot_values().len(), 0, "fully frozen");
        let cat = TestCatalog {
            tables: vec![("t".into(), tiered)],
        };
        let flat_cat = TestCatalog {
            tables: vec![("t".into(), flat)],
        };
        let queries = [
            "SELECT g, COUNT(*) AS n, SUM(a) AS s FROM t \
             WHERE a BETWEEN 20 AND 150 AND b > 5 GROUP BY g ORDER BY s DESC",
            "SELECT COUNT(*), SUM(a), MIN(a), MAX(b), AVG(b) FROM t WHERE a >= 10 AND b <> 7",
            "SELECT a FROM t WHERE a BETWEEN 40 AND 45 AND b <= 20",
        ];
        for q in queries {
            let before = block_decodes();
            let got = run_rows(&cat, q);
            assert_eq!(
                block_decodes(),
                before,
                "{encoding:?} {q}: frozen SQL must not decode blocks"
            );
            assert_eq!(got, run_rows(&flat_cat, q), "{encoding:?} {q}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Randomized freeze/forget/recompress interleavings: SQL answers
    // over the mutating tiered table always equal the flat twin's and
    // the row-at-a-time reference's.
    #[test]
    fn sql_equivalence_under_random_tiering(
        seed in 0u64..1_000,
        n in 300usize..1_200,
        freeze_frac in 0.0f64..1.0,
        forget in proptest::collection::vec(0usize..4_096, 0..120),
        lo in 0i64..60,
        width in 1i64..80,
    ) {
        let recompress = seed % 2 == 0;
        let mut rng = SimRng::new(seed);
        let rows: Vec<(i64, i64, i64)> = (0..n)
            .map(|i| ((i as i64 / 50) % 5, rng.range_i64(0, 120), rng.range_i64(0, 100)))
            .collect();
        let (tiered, flat) =
            tiered_and_flat(&rows, &forget, 128, None, freeze_frac, recompress);
        let tiered_cat = TestCatalog { tables: vec![("t".into(), tiered), ("u".into(), partner(400, true))] };
        let flat_cat = TestCatalog { tables: vec![("t".into(), flat), ("u".into(), partner(400, false))] };
        for q in query_shapes(lo, lo + width, 2) {
            let got = run_rows(&tiered_cat, &q);
            prop_assert_eq!(&got, &run_rows(&flat_cat, &q), "tiered == flat: {}", &q);
            prop_assert_eq!(&got, &reference_execute(&flat_cat, &q), "tiered == reference: {}", &q);
            // Morsel-parallel dispatch rides the same random freeze/
            // forget/recompress interleavings (7 workers: deliberately
            // non-power-of-two).
            prop_assert_eq!(&got, &run_rows_at(&tiered_cat, &q, 7), "parallel == serial: {}", &q);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sql_range_count_agrees_with_model(
        values in proptest::collection::vec(-1000i64..1000, 1..120),
        forget in proptest::collection::vec(0usize..1000, 0..40),
        lo in -1100i64..1100,
        width in 0i64..800,
    ) {
        let (db, model) = build(&values, &forget);
        let hi = lo + width;
        let expected = model
            .iter()
            .filter(|(v, active)| *active && *v >= lo && *v <= hi)
            .count() as i64;
        let sql = format!("SELECT COUNT(*) FROM t WHERE a BETWEEN {lo} AND {hi}");
        prop_assert_eq!(sql_scalar(&db, &sql), Datum::Int(expected));
    }

    #[test]
    fn sql_sum_agrees_with_model(
        values in proptest::collection::vec(-500i64..500, 1..100),
        forget in proptest::collection::vec(0usize..500, 0..30),
    ) {
        let (db, model) = build(&values, &forget);
        let expected: i64 = model.iter().filter(|(_, a)| *a).map(|(v, _)| v).sum();
        let active = model.iter().filter(|(_, a)| *a).count();
        match sql_scalar(&db, "SELECT SUM(a) FROM t") {
            Datum::Int(v) => prop_assert_eq!(v, expected),
            Datum::Null => prop_assert_eq!(active, 0),
            other => prop_assert!(false, "unexpected {:?}", other),
        }
    }
}

// ---------------------------------------------------------------------
// Morsel scheduler: SQL through ExecMode::Parallel == serial.
// ---------------------------------------------------------------------

use amnesia::engine::{ExecMode, Executor};
use amnesia::sql::run_with;

/// Run `sql` through an executor pinned to `threads` workers with small
/// morsels, so the few-thousand-row suite tables split into many
/// morsels per stage.
fn run_rows_at(catalog: &TestCatalog, sql: &str, threads: usize) -> Vec<Vec<Datum>> {
    let mode = if threads <= 1 {
        ExecMode::Serial
    } else {
        ExecMode::Parallel(threads)
    };
    let executor = Executor::default()
        .with_exec_mode(mode)
        .with_morsel_rows(128);
    match run_with(catalog, sql, &executor).unwrap() {
        QueryOutcome::Rows(rs) => rs.rows,
        QueryOutcome::Plan(p) => panic!("unexpected plan {p}"),
    }
}

/// Every SQL query shape, over every codec × block size × recompress
/// configuration, at 1/2/7/8 worker threads (non-power-of-two on
/// purpose: uneven morsel partitions are where merge-order bugs live):
/// the parallel rows must be byte-identical to the serial rows and to
/// the row-at-a-time reference.
#[test]
fn sql_parallel_equals_serial_across_tiers() {
    let mut rng = SimRng::new(0xC0FFEE);
    let rows: Vec<(i64, i64, i64)> = (0..3_000)
        .map(|i| ((i / 100) % 7, rng.range_i64(0, 120), rng.range_i64(0, 100)))
        .collect();
    let forget: Vec<usize> = (0..400).map(|_| rng.range_i64(0, 3_000) as usize).collect();
    for encoding in [
        None,
        Some(Encoding::Rle),
        Some(Encoding::Dict),
        Some(Encoding::ForPack),
        Some(Encoding::Delta),
    ] {
        for block_rows in [128usize, 1024] {
            for recompress in [false, true] {
                let (tiered, _) =
                    tiered_and_flat(&rows, &forget, block_rows, encoding, 0.7, recompress);
                let cat = TestCatalog {
                    tables: vec![("t".into(), tiered), ("u".into(), partner(1_500, true))],
                };
                for q in query_shapes(20, 90, 3) {
                    let serial = run_rows_at(&cat, &q, 1);
                    let ctx = format!(
                        "{encoding:?} block_rows={block_rows} recompress={recompress} q={q}"
                    );
                    assert_eq!(
                        serial,
                        run_rows(&cat, &q),
                        "pinned serial == default: {ctx}"
                    );
                    for threads in [2usize, 7, 8] {
                        assert_eq!(
                            run_rows_at(&cat, &q, threads),
                            serial,
                            "parallel ({threads} threads) == serial: {ctx}"
                        );
                    }
                }
            }
        }
    }
}

/// The zero-decode invariant survives parallel dispatch: a frozen-only
/// query fanned out over morsel workers must not decode a single block
/// more than the serial path (which decodes none).
#[test]
fn parallel_frozen_queries_decode_zero_blocks() {
    let mut rng = SimRng::new(7);
    let rows: Vec<(i64, i64, i64)> = (0..4_096)
        .map(|i| ((i / 512) % 8, rng.range_i64(0, 200), rng.range_i64(0, 50)))
        .collect();
    for encoding in [None, Some(Encoding::Rle), Some(Encoding::Dict)] {
        let (tiered, _) = tiered_and_flat(&rows, &[1, 65, 1030, 2049], 1024, encoding, 1.0, false);
        assert_eq!(tiered.col_tier(0).hot_values().len(), 0, "fully frozen");
        let cat = TestCatalog {
            tables: vec![("t".into(), tiered)],
        };
        let queries = [
            "SELECT g, COUNT(*) AS n, SUM(a) AS s FROM t \
             WHERE a BETWEEN 20 AND 150 AND b > 5 GROUP BY g ORDER BY s DESC",
            "SELECT COUNT(*), SUM(a), MIN(a), MAX(b), AVG(b) FROM t WHERE a >= 10 AND b <> 7",
            "SELECT a FROM t WHERE a BETWEEN 40 AND 45 AND b <= 20",
        ];
        for q in queries {
            let serial = run_rows_at(&cat, q, 1);
            for threads in [2usize, 8] {
                let before = block_decodes();
                let got = run_rows_at(&cat, q, threads);
                assert_eq!(
                    block_decodes(),
                    before,
                    "{encoding:?} {q}: parallel ({threads} threads) frozen SQL must not \
                     decode blocks"
                );
                assert_eq!(got, serial, "{encoding:?} {q} at {threads} threads");
            }
        }
    }
}
