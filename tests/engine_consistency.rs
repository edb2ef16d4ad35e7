//! Engine consistency: every physical plan must return the same answer,
//! and the executor must agree with a naive reference evaluation.

use amnesia::columnar::{SortedIndex, ZoneMap};
use amnesia::engine::{
    kernels, Aux, ColPred, CostModel, ExecMode, Executor, ForgetVisibility, PhysResult,
    PhysicalPlan,
};
use amnesia::prelude::*;
use proptest::prelude::*;

fn build(values: &[i64], forget: &[usize]) -> Table {
    let mut t = Table::new(Schema::single("a"));
    t.insert_batch(values, 0).unwrap();
    for &f in forget {
        if !values.is_empty() {
            let _ = t.forget(RowId((f % values.len()) as u64), 1);
        }
    }
    t
}

/// Reference implementation: naive loop over all rows.
fn reference_range(t: &Table, pred: RangePredicate, include_forgotten: bool) -> Vec<RowId> {
    (0..t.num_rows())
        .map(RowId::from)
        .filter(|&r| include_forgotten || t.activity().is_active(r))
        .filter(|&r| pred.matches(t.value(0, r)))
        .collect()
}

/// A workload query over column 0 through `execute_plan` under `vis`:
/// serially and on a 4-worker pool with 64-row morsels, which must
/// agree. Returns the serial result.
fn run(t: &Table, q: &Query, aux: Aux<'_>, vis: ForgetVisibility) -> PhysResult {
    let plan = PhysicalPlan::from_query(0, q);
    let ex = Executor::new(vis, CostModel::default()).with_morsel_rows(64);
    let serial = ex
        .clone()
        .with_exec_mode(ExecMode::Serial)
        .execute_plan(&[t], &[aux], &plan);
    let par = ex
        .with_exec_mode(ExecMode::Parallel(4))
        .execute_plan(&[t], &[aux], &plan);
    assert_eq!(par.rows, serial.rows, "{q:?}");
    assert_eq!(par.row_ids, serial.row_ids, "{q:?}");
    serial
}

/// A whole-table aggregate through [`run`].
fn aggregate(t: &Table, kind: AggKind) -> Option<f64> {
    let q = Query::Aggregate {
        kind,
        predicate: None,
    };
    run(t, &q, Aux::default(), ForgetVisibility::ActiveOnly).rows[0][0].as_f64()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn all_plans_agree_on_active_results(
        values in proptest::collection::vec(0i64..2000, 1..400),
        forget in proptest::collection::vec(0usize..1000, 0..100),
        lo in 0i64..2000,
        width in 1i64..500,
    ) {
        let t = build(&values, &forget);
        let pred = RangePredicate::new(lo, lo + width);

        let reference = reference_range(&t, pred, false);

        // Kernel: full active scan.
        let scan = kernels::range_scan_active(&t, 0, pred);
        prop_assert_eq!(&scan, &reference);

        // Kernel: zone-map pruned scan.
        let zm = ZoneMap::build_with_block_rows(&t, 0, 32);
        let blocks = zm.candidate_blocks(pred.lo, pred.hi_inclusive());
        let pruned = kernels::range_scan_blocks(&t, 0, pred, &blocks, 32);
        prop_assert_eq!(&pruned, &reference);

        // Index probe (value order) — same set of rows.
        let idx = SortedIndex::build(&t, 0);
        let mut probed = idx.probe_range_active(&t, pred.lo, pred.hi_inclusive());
        probed.sort_unstable();
        let mut sorted_ref = reference.clone();
        sorted_ref.sort_unstable();
        prop_assert_eq!(probed, sorted_ref);

        // The selection count agrees.
        let (sel, _) = kernels::selection_scan(&t, &[ColPred::from_range(0, pred)]);
        prop_assert_eq!(kernels::selection_count(&sel), reference.len());
    }

    #[test]
    fn executor_matches_reference_under_both_visibilities(
        values in proptest::collection::vec(0i64..500, 1..200),
        forget in proptest::collection::vec(0usize..500, 0..80),
        lo in 0i64..500,
        width in 1i64..200,
    ) {
        let t = build(&values, &forget);
        let pred = RangePredicate::new(lo, lo + width);
        let zm = ZoneMap::build_with_block_rows(&t, 0, 64);
        let idx = SortedIndex::build(&t, 0);
        let aux = Aux {
            zonemap: Some(&zm),
            index: Some(&idx),
            ..Default::default()
        };

        let mut got = run(&t, &Query::Range(pred), aux, ForgetVisibility::ActiveOnly).row_ids;
        got.sort_unstable();
        let mut expect = reference_range(&t, pred, false);
        expect.sort_unstable();
        prop_assert_eq!(got, expect);

        let got_all = run(&t, &Query::Range(pred), aux, ForgetVisibility::ScanSeesForgotten).row_ids;
        prop_assert_eq!(got_all, reference_range(&t, pred, true));
    }

    #[test]
    fn aggregates_match_reference(
        values in proptest::collection::vec(-1000i64..1000, 1..300),
        forget in proptest::collection::vec(0usize..600, 0..100),
    ) {
        let t = build(&values, &forget);
        let actives: Vec<i64> = t.iter_active().map(|r| t.value(0, r)).collect();

        let count = aggregate(&t, AggKind::Count);
        prop_assert_eq!(count, Some(actives.len() as f64));

        let sum = aggregate(&t, AggKind::Sum);
        if actives.is_empty() {
            prop_assert_eq!(sum, None);
        } else {
            prop_assert_eq!(sum, Some(actives.iter().sum::<i64>() as f64));
            let avg = aggregate(&t, AggKind::Avg);
            let expect = actives.iter().sum::<i64>() as f64 / actives.len() as f64;
            prop_assert!((avg.unwrap() - expect).abs() < 1e-9);
            let min = aggregate(&t, AggKind::Min);
            prop_assert_eq!(min, Some(*actives.iter().min().unwrap() as f64));
            let max = aggregate(&t, AggKind::Max);
            prop_assert_eq!(max, Some(*actives.iter().max().unwrap() as f64));
        }
    }

    #[test]
    fn zonemap_pruning_is_safe_under_staleness(
        values in proptest::collection::vec(0i64..5000, 32..300),
        forget in proptest::collection::vec(0usize..300, 1..60),
        lo in 0i64..5000,
        width in 1i64..1000,
    ) {
        // Build the zone map FIRST, then forget without syncing: stale
        // bounds may be loose but must never lose matches.
        let mut t = build(&values, &[]);
        let mut zm = ZoneMap::build_with_block_rows(&t, 0, 16);
        for &f in &forget {
            let row = RowId((f % values.len()) as u64);
            if t.activity().is_active(row) {
                t.forget(row, 1).unwrap();
                zm.note_forget(row);
            }
        }
        let pred = RangePredicate::new(lo, lo + width);
        let blocks = zm.candidate_blocks(pred.lo, pred.hi_inclusive());
        let pruned = kernels::range_scan_blocks(&t, 0, pred, &blocks, 16);
        let reference = reference_range(&t, pred, false);
        prop_assert_eq!(pruned, reference, "stale zone map lost matches");
    }
}

#[test]
fn summaries_make_whole_table_aggregates_exact() {
    // Deterministic cross-check of the Summarize path through the store.
    let mut store = AmnesiacStore::new(ForgetMode::Summarize);
    let values: Vec<i64> = (0..500).collect();
    store.insert_batch(&values, 0).unwrap();
    let victims: Vec<RowId> = (0..250).map(RowId).collect();
    store.forget_batch(&victims, 1).unwrap();
    store.end_batch().unwrap();

    for (kind, expect) in [
        (AggKind::Count, 500.0),
        (AggKind::Sum, (0..500).sum::<i64>() as f64),
        (AggKind::Avg, 249.5),
        (AggKind::Min, 0.0),
        (AggKind::Max, 499.0),
    ] {
        let got = store
            .query(&Query::Aggregate {
                kind,
                predicate: None,
            })
            .output
            .agg()
            .unwrap()
            .unwrap();
        assert!(
            (got - expect).abs() < 1e-9,
            "{:?}: got {got}, expected {expect}",
            kind
        );
    }
}
