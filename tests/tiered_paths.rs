//! Regression suite for the flat-only panic paths tiering left behind.
//!
//! `Table::col_values` deliberately panics once a column holds frozen
//! blocks, so any engine entry point that forgot to go tier-aware fails
//! loudly instead of scanning stale data. This suite drives **every
//! public kernel, executor, auxiliary-structure and SQL path** over a
//! half-frozen table (frozen prefix + hot tail, forgets on both sides of
//! the boundary) and checks the answers against a never-frozen twin — if
//! a straggler still reaches for the flat slice, the panic surfaces
//! here, and if one silently materializes wrong data, the twin
//! comparison catches it.
//!
//! The second half is the recompression-safety property test: frozen
//! blocks squash *forgotten* rows' values onto active neighbours when
//! they re-encode, so every structure built **before** the squash — word
//! zone maps, sorted indexes, join hash tables — must either be
//! invalidated or keep answering exactly. They keep answering exactly,
//! because all of them consult the activity map before trusting a value;
//! the interleaved property test pins that contract.

use amnesia::columnar::vacuum::vacuum;
use amnesia::columnar::{Database, Imprints, SortedIndex, WordZoneMap, ZoneMap};
use amnesia::engine::batch::scalar;
use amnesia::engine::exec::PlanTag;
use amnesia::engine::join::{hash_join, hash_join_count, join_precision};
use amnesia::engine::physical::JoinSpec;
use amnesia::engine::{
    kernels, Aux, ColPred, CostModel, ExecMode, Executor, ForgetVisibility, PhysItem, PhysResult,
    PhysScan, PhysicalPlan, PlanHint, Scalar,
};
use amnesia::prelude::*;
use amnesia::sql;
use amnesia::workload::query::RangePredicate;
use amnesia::workload::Query as EngineQuery;

/// A half-frozen table (4 frozen blocks + hot tail) and its never-frozen
/// twin, with forgets scattered across both tiers.
fn half_frozen_pair() -> (Table, Table) {
    let mut rng = SimRng::new(97);
    let values: Vec<i64> = (0..6_000).map(|_| rng.range_i64(0, 900)).collect();
    let mut flat = Table::new(Schema::single("a"));
    flat.insert_batch(&values, 0).unwrap();
    let mut tiered = flat.clone();
    for r in (0..6_000u64).step_by(7) {
        flat.forget(RowId(r), 1).unwrap();
        tiered.forget(RowId(r), 1).unwrap();
    }
    tiered.freeze_upto(4_100); // rounds down to 4 blocks of 1024
    assert_eq!(tiered.frozen_blocks(), 4);
    assert!(!tiered.col_tier(0).hot_values().is_empty());
    (tiered, flat)
}

/// Run `plan` serially and on 3- and 8-worker pools with small morsels;
/// every mode must agree. Returns the serial result.
fn run_plan(ex: &Executor, tables: &[&Table], aux: Aux<'_>, plan: &PhysicalPlan) -> PhysResult {
    let serial = ex
        .clone()
        .with_exec_mode(ExecMode::Serial)
        .execute_plan(tables, &[aux], plan);
    for threads in [3usize, 8] {
        let par = ex
            .clone()
            .with_exec_mode(ExecMode::Parallel(threads))
            .with_morsel_rows(256)
            .execute_plan(tables, &[aux], plan);
        assert_eq!(par.rows, serial.rows, "{threads} threads");
        assert_eq!(par.row_ids, serial.row_ids, "{threads} threads");
        assert_eq!(par.stats.plan, serial.stats.plan, "{threads} threads");
    }
    serial
}

/// The equi-join `left.0 = right.0` projecting both keys.
fn join_plan() -> PhysicalPlan {
    PhysicalPlan {
        scans: vec![PhysScan::default(), PhysScan::default()],
        join: Some(JoinSpec {
            left_col: 0,
            right_col: 0,
            display: "l.a = r.a".into(),
        }),
        items: (0..2)
            .map(|slot| PhysItem::Column {
                slot,
                col: 0,
                display: format!("a{slot}"),
            })
            .collect(),
        group_by: None,
        order_by: None,
        limit: None,
        hint: PlanHint::SyntacticOrder,
    }
}

/// The keys of join `pairs` over `t`, in pair order.
fn pair_keys(t: &Table, pairs: &[(RowId, RowId)]) -> Vec<Vec<Scalar>> {
    pairs
        .iter()
        .map(|&(l, r)| vec![Scalar::Int(t.value(0, l)), Scalar::Int(t.value(0, r))])
        .collect()
}

#[test]
fn every_kernel_path_survives_a_half_frozen_table() {
    let (tiered, flat) = half_frozen_pair();
    let pred = RangePredicate::new(200, 500);
    let want_rows = kernels::range_scan_active(&flat, 0, pred);

    // Serial kernels.
    assert_eq!(kernels::range_scan_active(&tiered, 0, pred), want_rows);
    assert_eq!(kernels::range_scan_tiered(&tiered, 0, pred).0, want_rows);
    let preds = [ColPred::from_range(0, pred)];
    assert_eq!(
        kernels::selection_scan_all(&tiered, &preds),
        kernels::selection_scan_all(&flat, &preds)
    );
    let (sel, _) = kernels::selection_scan(&tiered, &preds);
    assert_eq!(kernels::selection_count(&sel), want_rows.len());
    let blocks: Vec<usize> = (0..6).collect();
    assert_eq!(
        kernels::range_scan_blocks(&tiered, 0, pred, &blocks, 1024),
        kernels::range_scan_blocks(&flat, 0, pred, &blocks, 1024)
    );
    assert_eq!(
        kernels::aggregate_selection(&tiered, &sel, 0).sum(),
        kernels::aggregate_selection(&flat, &sel, 0).sum()
    );
    for predicate in [None, Some(pred)] {
        let (got, _) = kernels::aggregate_state_active(&tiered, 0, predicate);
        for kind in AggKind::ALL {
            let (want, _) = scalar::aggregate_active(&flat, 0, predicate, kind);
            assert_eq!(got.finalize(kind), want, "{kind:?} {predicate:?}");
        }
        let (state, _) = kernels::aggregate_state_tiered(&tiered, 0, predicate);
        let (want_state, _) = kernels::aggregate_state_active(&flat, 0, predicate);
        assert_eq!(state.count(), want_state.count());
        assert_eq!(state.sum(), want_state.sum());
    }

    // Zone-map wrappers dispatch tiered once blocks are frozen; the zone
    // map itself is built (tier-aware) from the frozen table.
    let wz = WordZoneMap::build(&tiered, 0);
    assert_eq!(
        kernels::range_scan_active_zoned(&tiered, 0, &wz, pred).0,
        want_rows
    );
    let (zstate, _) = kernels::aggregate_state_active_zoned(&tiered, 0, &wz, Some(pred));
    let (want_state, _) = kernels::aggregate_state_active(&flat, 0, Some(pred));
    assert_eq!(zstate.count(), want_state.count());
    assert_eq!(zstate.count() as usize, want_rows.len());

    // Compressed-snapshot kernels materialize via the tier-aware dense
    // path, never the flat slice.
    let seg = tiered.compress_column(0);
    assert_eq!(
        kernels::range_scan_compressed(&tiered, &seg, pred),
        want_rows
    );
    assert_eq!(
        kernels::count_compressed(&tiered, &seg, pred),
        want_rows.len()
    );

    // Morsel-parallel plans split at tier boundaries.
    let ex = Executor::default();
    let scan = run_plan(
        &ex,
        &[&tiered],
        Aux::default(),
        &PhysicalPlan::from_query(0, &EngineQuery::Range(pred)),
    );
    assert_eq!(scan.row_ids, want_rows);
    for kind in AggKind::ALL {
        let (want, _) = scalar::aggregate_active(&flat, 0, Some(pred), kind);
        let q = EngineQuery::Aggregate {
            kind,
            predicate: Some(pred),
        };
        let got = run_plan(
            &ex,
            &[&tiered],
            Aux::default(),
            &PhysicalPlan::from_query(0, &q),
        );
        match (want, got.rows[0][0].as_f64()) {
            (Some(a), Some(b)) => assert!((a - b).abs() < 1e-9, "{kind:?}"),
            (a, b) => assert_eq!(a, b, "{kind:?}"),
        }
    }
}

#[test]
fn every_executor_path_survives_a_half_frozen_table() {
    let (tiered, flat) = half_frozen_pair();
    // Auxiliary structures all build tier-aware from the frozen table.
    let zm = ZoneMap::build(&tiered, 0);
    let wz = WordZoneMap::build(&tiered, 0);
    let mut idx = SortedIndex::build(&tiered, 0);
    idx.rebuild(&tiered);
    let imp = Imprints::build(&tiered, 0, 16);
    assert!(imp.memory_bytes() > 0);
    let auxes: Vec<Aux<'_>> = vec![
        Aux::default(),
        Aux {
            zonemap: Some(&zm),
            ..Default::default()
        },
        Aux {
            word_zones: Some(&wz),
            ..Default::default()
        },
        Aux {
            index: Some(&idx),
            ..Default::default()
        },
        Aux {
            zonemap: Some(&zm),
            word_zones: Some(&wz),
            index: Some(&idx),
            ..Default::default()
        },
    ];
    let queries = [
        EngineQuery::Range(RangePredicate::new(100, 260)),
        EngineQuery::Point(333),
        EngineQuery::Aggregate {
            kind: AggKind::Avg,
            predicate: Some(RangePredicate::new(50, 700)),
        },
        EngineQuery::Aggregate {
            kind: AggKind::Sum,
            predicate: None,
        },
    ];
    for mode in [
        ForgetVisibility::ActiveOnly,
        ForgetVisibility::ScanSeesForgotten,
    ] {
        let ex = Executor::new(mode, CostModel::default());
        for q in &queries {
            let plan = PhysicalPlan::from_query(0, q);
            let want = run_plan(&ex, &[&flat], Aux::default(), &plan);
            for (i, aux) in auxes.iter().enumerate() {
                let got = run_plan(&ex, &[&tiered], *aux, &plan);
                assert_eq!(got.rows, want.rows, "{mode:?} {q:?} aux#{i}");
                // An index probe returns value order where scans return
                // insertion order; the *set* must agree.
                let mut g = got.row_ids.clone();
                let mut w = want.row_ids.clone();
                g.sort();
                w.sort();
                assert_eq!(g, w, "{mode:?} {q:?} aux#{i}");
            }
        }
    }

    // The join surface: executor-level stats and the raw kernels.
    let ex = Executor::default();
    let want = hash_join(&flat, 0, &flat, 0, ForgetVisibility::ActiveOnly);
    let r = run_plan(&ex, &[&tiered, &flat], Aux::default(), &join_plan());
    assert_eq!(r.rows, pair_keys(&flat, &want.pairs), "frozen build side");
    assert_eq!(r.stats.plan, PlanTag::TieredJoin);
    assert_eq!(r.stats.result_rows, want.stats.output_pairs);
    let r2 = run_plan(&ex, &[&flat, &tiered], Aux::default(), &join_plan());
    assert_eq!(r2.rows, pair_keys(&flat, &want.pairs), "frozen probe side");
    assert_eq!(r2.stats.plan, PlanTag::TieredJoin);
    let flat_join = run_plan(&ex, &[&flat, &flat], Aux::default(), &join_plan());
    assert_eq!(
        flat_join.stats.plan,
        PlanTag::FullScan,
        "hot join is not tiered"
    );
    assert_eq!(
        hash_join_count(&tiered, 0, &tiered, 0, ForgetVisibility::ActiveOnly),
        want.stats.output_pairs
    );
    assert_eq!(
        join_precision(&tiered, 0, &flat, 0),
        join_precision(&flat, 0, &flat, 0),
        "precision mixes both visibility regimes over frozen blocks"
    );

    // Vacuum compacts through the codec point-read paths.
    let kept = vacuum(&tiered);
    assert_eq!(kept.table.num_rows(), flat.active_rows());
}

#[test]
fn sql_paths_survive_half_frozen_tables() {
    // Two-table SQL join + filters + aggregates over frozen storage: the
    // SQL executor reads through `Table::value`, which must hit the codec
    // point-access paths, never the flat slice.
    let mut db = Database::new();
    let parent = db.add_table("parent", Schema::new(vec!["key", "grp"]));
    let child = db.add_table("child", Schema::new(vec!["fk", "amount"]));
    for i in 0..3_000i64 {
        db.table_mut(parent).insert(&[i, i % 10], 0).unwrap();
    }
    for i in 0..3_000i64 {
        db.table_mut(child).insert(&[i % 500, i], 0).unwrap();
    }
    for r in (0..3_000u64).step_by(9) {
        db.table_mut(parent).forget(RowId(r), 1).unwrap();
    }
    let q = "SELECT p.grp, COUNT(*) AS n, SUM(c.amount) AS total \
             FROM parent p JOIN child c ON p.key = c.fk \
             WHERE c.amount BETWEEN 100 AND 2500 \
             GROUP BY p.grp ORDER BY total DESC LIMIT 5";
    let hot = match sql::run(&db, q).unwrap() {
        sql::QueryOutcome::Rows(rs) => rs,
        _ => unreachable!(),
    };
    db.table_mut(parent).freeze_upto(3_000);
    db.table_mut(child).freeze_upto(2_048);
    assert!(db.table(parent).has_frozen());
    let frozen = match sql::run(&db, q).unwrap() {
        sql::QueryOutcome::Rows(rs) => rs,
        _ => unreachable!(),
    };
    assert_eq!(frozen.rows, hot.rows, "SQL answers survive freezing");
}

/// Satellite: `recompress_frozen` mutates stored values at *forgotten*
/// positions (squashing them onto active neighbours). Structures built
/// before the squash — word zone maps, sorted indexes, join hash tables
/// (rebuilt per call but probing recompressed blocks) — must keep
/// answering exactly, because every one of them filters through the
/// activity map before trusting a value. Interleave recompression with
/// zoned scans, index probes and joins against a flat twin to prove it.
#[test]
fn recompress_keeps_zones_indexes_and_joins_correct() {
    for seed in [5u64, 6, 7] {
        let mut rng = SimRng::new(seed);
        let mut flat = Table::new(Schema::single("a"));
        let mut tiered = Table::with_block_rows(Schema::single("a"), 256);
        let ctx = format!("seed={seed}");
        // Aux structures built ONCE up front and deliberately left stale
        // across forgets and recompressions (note_forget only, no sync).
        let values: Vec<i64> = (0..4_096).map(|_| rng.range_i64(0, 300)).collect();
        flat.insert_batch(&values, 0).unwrap();
        tiered.insert_batch(&values, 0).unwrap();
        tiered.freeze_upto(4_096);
        let mut wz = WordZoneMap::build(&tiered, 0);
        let mut idx = SortedIndex::build(&tiered, 0);
        for step in 0..8 {
            // Forget a burst on both twins.
            for _ in 0..300 {
                if let Some(r) = flat.random_active(&mut rng) {
                    flat.forget(r, step).unwrap();
                    tiered.forget(r, step).unwrap();
                    wz.note_forget(r);
                    idx.note_forget();
                }
            }
            // Recompress rotten blocks: forgotten positions' values are
            // physically rewritten under the stale structures' feet.
            let (reencoded, _) = tiered.recompress_frozen(0.9);
            if step > 2 {
                assert!(
                    reencoded == 0 || tiered.bytes_frozen() > 0,
                    "recompression keeps payloads live {ctx}"
                );
            }
            for pred in [
                RangePredicate::new(0, 300),
                RangePredicate::new(rng.range_i64(0, 250), rng.range_i64(100, 300)),
            ] {
                let want = kernels::range_scan_active(&flat, 0, pred);
                // Zoned scan with the stale map: bounds are stale-wide,
                // never stale-narrow.
                let (got, _) = kernels::range_scan_active_zoned(&tiered, 0, &wz, pred);
                assert_eq!(got, want, "zoned {ctx} step {step} {pred:?}");
                // Index probe with stale entries: activity filtering
                // hides both forgotten rows and their squashed values.
                let mut via_index = idx.probe_range_active(&tiered, pred.lo, pred.hi_inclusive());
                via_index.sort();
                let mut want_sorted = want.clone();
                want_sorted.sort();
                assert_eq!(via_index, want_sorted, "index {ctx} step {step}");
            }
            // Joins rebuild their hash table per call, but build and
            // probe both stream the *recompressed* payloads.
            let want = hash_join(&flat, 0, &flat, 0, ForgetVisibility::ActiveOnly);
            let got = hash_join(&tiered, 0, &tiered, 0, ForgetVisibility::ActiveOnly);
            assert_eq!(got.pairs, want.pairs, "join {ctx} step {step}");
            assert_eq!(
                hash_join_count(&tiered, 0, &tiered, 0, ForgetVisibility::ActiveOnly),
                want.stats.output_pairs,
                "join count {ctx} step {step}"
            );
        }
    }
}
