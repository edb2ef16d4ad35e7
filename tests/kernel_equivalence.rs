//! Property tests: the word-at-a-time vectorized kernels, the
//! row-at-a-time scalar references, `execute_plan` serial and on morsel
//! pools, the fused compressed-block kernels (every codec), and the
//! word-zone-pruned kernels all compute identical answers — across
//! randomized tables, forget patterns (none / a quarter / everything),
//! and the word-boundary sizes where masking bugs live (0, 1, 63, 64, 65,
//! 1023, 1024, 1025).

use amnesia::columnar::compress::{block_decodes, Encoding};
use amnesia::columnar::vacuum::vacuum;
use amnesia::columnar::{SegmentedColumn, WordZoneMap};
use amnesia::engine::batch::{self, scalar};
use amnesia::engine::join::{hash_join, hash_join_count};
use amnesia::engine::kernels;
use amnesia::engine::{Aux, CostModel, ForgetVisibility, PhysResult, Scalar};
use amnesia::prelude::*;
use amnesia::workload::query::RangePredicate;
use proptest::prelude::*;

const THREAD_COUNTS: [usize; 4] = [1, 2, 8, 64];

/// Run `plan` through `execute_plan` under visibility `vis`: serially,
/// then on a small-morsel pool of every width in [`THREAD_COUNTS`].
/// Every mode must return the same output; returns the serial result.
fn run_plan(
    tables: &[&Table],
    aux: Aux<'_>,
    plan: &PhysicalPlan,
    vis: ForgetVisibility,
) -> PhysResult {
    let ex = Executor::new(vis, CostModel::default()).with_morsel_rows(SMALL_MORSEL);
    let serial = ex
        .clone()
        .with_exec_mode(ExecMode::Serial)
        .execute_plan(tables, &[aux], plan);
    for threads in THREAD_COUNTS {
        let par = ex
            .clone()
            .with_exec_mode(ExecMode::Parallel(threads))
            .execute_plan(tables, &[aux], plan);
        assert_eq!(par.row_ids, serial.row_ids, "row ids at {threads} threads");
        assert_eq!(par.rows, serial.rows, "rows at {threads} threads");
    }
    serial
}

/// A workload query over column 0 of `t` through [`run_plan`].
fn run_query(t: &Table, aux: Aux<'_>, q: &Query, vis: ForgetVisibility) -> PhysResult {
    run_plan(&[t], aux, &PhysicalPlan::from_query(0, q), vis)
}

/// Active rows matching `pred`, through `execute_plan`.
fn plan_scan(t: &Table, pred: RangePredicate) -> Vec<RowId> {
    run_query(
        t,
        Aux::default(),
        &Query::Range(pred),
        ForgetVisibility::ActiveOnly,
    )
    .row_ids
}

/// A workload aggregate through `execute_plan`, with its scan count.
fn plan_agg(t: &Table, kind: AggKind, predicate: Option<RangePredicate>) -> (Option<f64>, usize) {
    let q = Query::Aggregate { kind, predicate };
    let r = run_query(t, Aux::default(), &q, ForgetVisibility::ActiveOnly);
    (r.rows[0][0].as_f64(), r.stats.rows_scanned)
}

fn assert_close(want: Option<f64>, got: Option<f64>, ctx: &str) {
    match (want, got) {
        (Some(a), Some(b)) => assert!((a - b).abs() < 1e-9, "{ctx}: {a} vs {b}"),
        (a, b) => assert_eq!(a, b, "{ctx}"),
    }
}

/// The equi-join `left.0 = right.0` projecting both keys, through
/// [`run_plan`] (active-only, written order: build on `left`).
fn plan_join_keys(left: &Table, right: &Table) -> Vec<Vec<Scalar>> {
    let plan = PhysicalPlan {
        scans: vec![PhysScan::default(), PhysScan::default()],
        join: Some(JoinSpec {
            left_col: 0,
            right_col: 0,
            display: "l.k = r.k".into(),
        }),
        items: (0..2)
            .map(|slot| PhysItem::Column {
                slot,
                col: 0,
                display: format!("k{slot}"),
            })
            .collect(),
        group_by: None,
        order_by: None,
        limit: None,
        hint: PlanHint::SyntacticOrder,
    };
    let r = run_plan(
        &[left, right],
        Aux::default(),
        &plan,
        ForgetVisibility::ActiveOnly,
    );
    assert_eq!(r.stats.join_pairs, r.rows.len());
    r.rows
}

/// The keys of join `pairs`, in pair order — what [`plan_join_keys`]
/// returns for the same join.
fn pair_keys(left: &Table, right: &Table, pairs: &[(RowId, RowId)]) -> Vec<Vec<Scalar>> {
    pairs
        .iter()
        .map(|&(l, r)| {
            vec![
                Scalar::Int(left.value(0, l)),
                Scalar::Int(right.value(0, r)),
            ]
        })
        .collect()
}

/// How much of the table a forget pattern erases.
#[derive(Debug, Clone, Copy)]
enum ForgetPattern {
    None,
    Quarter,
    All,
}

fn forget_pattern() -> impl Strategy<Value = ForgetPattern> {
    prop_oneof![
        Just(ForgetPattern::None),
        Just(ForgetPattern::Quarter),
        Just(ForgetPattern::All),
    ]
}

fn build_table(values: &[i64], pattern: ForgetPattern, seed: u64) -> Table {
    let mut t = Table::new(Schema::single("a"));
    if !values.is_empty() {
        t.insert_batch(values, 0).unwrap();
    }
    match pattern {
        ForgetPattern::None => {}
        ForgetPattern::Quarter => {
            let mut rng = SimRng::new(seed);
            for _ in 0..values.len() / 4 {
                if let Some(r) = t.random_active(&mut rng) {
                    t.forget(r, 1).unwrap();
                }
            }
        }
        ForgetPattern::All => {
            for r in 0..values.len() {
                t.forget(RowId::from(r), 1).unwrap();
            }
        }
    }
    t
}

fn assert_all_kernels_agree(t: &Table, pred: RangePredicate, ctx: &str) {
    // Scans: vectorized == scalar == execute_plan (serial and every pool
    // width).
    let vectorized = kernels::range_scan_active(t, 0, pred);
    let reference = scalar::range_scan_active(t, 0, pred);
    assert_eq!(vectorized, reference, "scan {ctx}");
    assert_eq!(plan_scan(t, pred), reference, "plan scan {ctx}");

    // Full (forgotten-inclusive) scan.
    let all = run_query(
        t,
        Aux::default(),
        &Query::Range(pred),
        ForgetVisibility::ScanSeesForgotten,
    );
    assert_eq!(
        all.row_ids,
        scalar::range_scan_all(t, 0, pred),
        "scan-all {ctx}"
    );

    // Selection count.
    let (sel, _) = kernels::selection_scan(t, &[ColPred::from_range(0, pred)]);
    assert_eq!(
        kernels::selection_count(&sel),
        reference.len(),
        "count==scan-len {ctx}"
    );

    // Aggregates: every kind, with and without the predicate.
    for predicate in [None, Some(pred)] {
        let (state, got_scanned) = kernels::aggregate_state_active(t, 0, predicate);
        for kind in AggKind::ALL {
            let (want, want_scanned) = scalar::aggregate_active(t, 0, predicate, kind);
            assert_eq!(
                state.finalize(kind),
                want,
                "agg {kind:?} pred={predicate:?} {ctx}"
            );
            assert_eq!(got_scanned, want_scanned, "agg scanned {kind:?} {ctx}");
            let (plan, plan_scanned) = plan_agg(t, kind, predicate);
            assert_close(want, plan, &format!("plan agg {kind:?} {ctx}"));
            assert_eq!(
                plan_scanned, want_scanned,
                "plan agg scanned {kind:?} {ctx}"
            );
        }
    }

    // Blocked (zone-map shaped) scans cover every block partition of the
    // batch size.
    for block_rows in [batch::BATCH_ROWS, 64, 100] {
        let nblocks = t.num_rows().div_ceil(block_rows);
        let blocks: Vec<usize> = (0..nblocks).collect();
        assert_eq!(
            kernels::range_scan_blocks(t, 0, pred, &blocks, block_rows),
            scalar::range_scan_blocks(t, 0, pred, &blocks, block_rows),
            "blocks={block_rows} {ctx}"
        );
    }

    assert_compressed_kernels_agree(t, pred, ctx);
    assert_zoned_kernels_agree(t, pred, ctx);
}

/// Fused compressed scans == decompress-then-scalar-scan, for every codec
/// (pinned per block), the automatic chooser, word-aligned block sizes
/// that land frozen/tail boundaries on and off batch edges, and the
/// parallel block-chunked variant.
fn assert_compressed_kernels_agree(t: &Table, pred: RangePredicate, ctx: &str) {
    let reference = scalar::range_scan_active(t, 0, pred);
    let values = t.col_values(0);
    let mut segs: Vec<(String, SegmentedColumn)> = Vec::new();
    for block_rows in [64usize, 1024] {
        for enc in Encoding::ALL {
            let mut seg = SegmentedColumn::with_encoding(block_rows, enc);
            seg.extend_from_slice(values);
            segs.push((format!("{}@{block_rows}", enc.name()), seg));
        }
        let mut auto = SegmentedColumn::with_block_rows(block_rows);
        auto.extend_from_slice(values);
        segs.push((format!("auto@{block_rows}"), auto));
    }
    for (tag, seg) in &segs {
        // The compressed column must reconstruct the original exactly —
        // otherwise "equivalence" below would prove nothing.
        assert_eq!(seg.len(), values.len(), "{tag} {ctx}");
        let got = kernels::range_scan_compressed(t, seg, pred);
        assert_eq!(got, reference, "compressed {tag} {ctx}");
        assert_eq!(
            kernels::count_compressed(t, seg, pred),
            reference.len(),
            "compressed count {tag} {ctx}"
        );
    }
    // The same codecs frozen in place: execute_plan (serial and every
    // pool width) scans them in compressed space.
    for block_rows in [64usize, 1024] {
        for enc in Encoding::ALL.map(Some).into_iter().chain([None]) {
            let mut frozen = Table::with_block_rows(Schema::single("a"), block_rows);
            frozen.pin_encoding(0, enc);
            if !values.is_empty() {
                frozen.insert_batch(values, 0).unwrap();
            }
            for r in (0..t.num_rows()).map(RowId::from) {
                if !t.activity().is_active(r) {
                    frozen.forget(r, 1).unwrap();
                }
            }
            frozen.freeze_upto(frozen.num_rows());
            assert_eq!(
                plan_scan(&frozen, pred),
                reference,
                "plan frozen {enc:?}@{block_rows} {ctx}"
            );
        }
    }
}

/// Word-zone-pruned kernels == their unpruned counterparts, with fresh
/// and stale (forget-noted but unsynced) zone maps.
fn assert_zoned_kernels_agree(t: &Table, pred: RangePredicate, ctx: &str) {
    let reference = scalar::range_scan_active(t, 0, pred);
    let wz = WordZoneMap::build(t, 0);
    let (rows, _) = kernels::range_scan_active_zoned(t, 0, &wz, pred);
    assert_eq!(rows, reference, "zoned scan {ctx}");
    let aux = Aux {
        word_zones: Some(&wz),
        ..Default::default()
    };
    let zoned = run_query(t, aux, &Query::Range(pred), ForgetVisibility::ActiveOnly);
    assert_eq!(zoned.row_ids, reference, "plan zoned scan {ctx}");
    for predicate in [None, Some(pred)] {
        let (state, zs) = kernels::aggregate_state_active_zoned(t, 0, &wz, predicate);
        for kind in AggKind::ALL {
            let (want, want_scanned) = scalar::aggregate_active(t, 0, predicate, kind);
            assert_eq!(
                state.finalize(kind),
                want,
                "zoned agg {kind:?} pred={predicate:?} {ctx}"
            );
            assert!(
                zs.rows_scanned <= want_scanned,
                "zones may only shrink work {ctx}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn vectorized_equals_scalar_equals_parallel(
        values in proptest::collection::vec(-5_000i64..5_000, 0..700),
        pattern in forget_pattern(),
        lo in -6_000i64..6_000,
        width in 0i64..8_000,
        seed in any::<u64>(),
    ) {
        let t = build_table(&values, pattern, seed);
        let pred = RangePredicate::new(lo, lo.saturating_add(width));
        assert_all_kernels_agree(&t, pred, &format!("n={} {pattern:?}", values.len()));
    }
}

#[test]
fn boundary_sizes_and_forget_patterns() {
    // Deterministic sweep of the sizes where word masking goes wrong.
    for n in [0usize, 1, 63, 64, 65, 1023, 1024, 1025] {
        let mut rng = SimRng::new(n as u64 + 1);
        let values: Vec<i64> = (0..n).map(|_| rng.range_i64(0, 1_000)).collect();
        for pattern in [
            ForgetPattern::None,
            ForgetPattern::Quarter,
            ForgetPattern::All,
        ] {
            let t = build_table(&values, pattern, 99);
            for pred in [
                RangePredicate::new(0, 1_000), // everything
                RangePredicate::new(250, 500), // selective
                RangePredicate::new(900, 100), // empty (inverted)
            ] {
                assert_all_kernels_agree(&t, pred, &format!("n={n} {pattern:?}"));
            }
        }
    }
}

/// Assert a tiered table and its never-frozen twin answer every kernel
/// identically: scans (serial + parallel, all thread counts), counts,
/// aggregates of every kind with and without predicates, and — while no
/// lossy transition has run — the complete-scan regime. The twin's
/// scalar kernels are the ground truth. Runs under whichever SIMD mode
/// the process was started in — CI's matrix covers both native and
/// `AMNESIA_PORTABLE_ONLY`.
///
/// `scan_all_comparable` must be false once a recompression actually
/// re-encoded a block (or a block was dropped): both transitions destroy
/// *forgotten* rows' values by design, so the ScanSeesForgotten regime
/// legitimately diverges from the flat twin afterwards — active-only
/// answers are the invariant that survives every transition.
fn assert_tiered_equals_flat(
    tiered: &Table,
    flat: &Table,
    pred: RangePredicate,
    scan_all_comparable: bool,
    ctx: &str,
) {
    let reference = scalar::range_scan_active(flat, 0, pred);
    assert_eq!(
        kernels::range_scan_active(tiered, 0, pred),
        reference,
        "tiered scan {ctx}"
    );
    let (rows, _) = kernels::range_scan_tiered(tiered, 0, pred);
    assert_eq!(rows, reference, "tiered scan+stats {ctx}");
    let (sel, _) = kernels::selection_scan(tiered, &[ColPred::from_range(0, pred)]);
    assert_eq!(
        kernels::selection_count(&sel),
        reference.len(),
        "tiered count {ctx}"
    );
    assert_eq!(plan_scan(tiered, pred), reference, "plan tiered scan {ctx}");
    for predicate in [None, Some(pred)] {
        let (state, got_scanned) = kernels::aggregate_state_active(tiered, 0, predicate);
        for kind in AggKind::ALL {
            let (want, want_scanned) = scalar::aggregate_active(flat, 0, predicate, kind);
            assert_eq!(
                state.finalize(kind),
                want,
                "tiered agg {kind:?} pred={predicate:?} {ctx}"
            );
            assert!(
                got_scanned <= want_scanned,
                "tiered agg may only shrink work {ctx}"
            );
            let (plan, _) = plan_agg(tiered, kind, predicate);
            assert_close(want, plan, &format!("plan tiered agg {kind:?} {ctx}"));
        }
    }
    if scan_all_comparable {
        let all = run_query(
            tiered,
            Aux::default(),
            &Query::Range(pred),
            ForgetVisibility::ScanSeesForgotten,
        );
        assert_eq!(
            all.row_ids,
            scalar::range_scan_all(flat, 0, pred),
            "tiered scan-all {ctx}"
        );
    }
}

/// The tiered self-join must equal the dense twin's self-join *exactly* —
/// same pairs in the same order (build rows ascend per key, probe rows
/// right-major), same count, across serial and parallel probes. Active-only
/// answers survive every tier transition, so this runs even after lossy
/// recompressions.
fn assert_tiered_join_equals_flat(tiered: &Table, flat: &Table, ctx: &str) {
    let want = hash_join(flat, 0, flat, 0, ForgetVisibility::ActiveOnly);
    let got = hash_join(tiered, 0, tiered, 0, ForgetVisibility::ActiveOnly);
    assert_eq!(got.pairs, want.pairs, "tiered join pairs {ctx}");
    assert_eq!(
        got.stats.build_distinct_keys, want.stats.build_distinct_keys,
        "tiered join distinct keys {ctx}"
    );
    assert_eq!(got.stats.build_rows, want.stats.build_rows, "{ctx}");
    assert_eq!(got.stats.output_pairs, want.stats.output_pairs, "{ctx}");
    assert_eq!(
        hash_join_count(tiered, 0, tiered, 0, ForgetVisibility::ActiveOnly),
        want.stats.output_pairs,
        "tiered join count {ctx}"
    );
    assert_eq!(
        plan_join_keys(tiered, tiered),
        pair_keys(flat, flat, &want.pairs),
        "plan tiered join {ctx}"
    );
}

/// Randomized freeze/forget/thaw/drop/recompress/vacuum/query
/// interleavings: after every transition the tiered table must keep
/// answering exactly like its never-frozen twin, across block sizes and
/// every pinned codec plus the automatic chooser.
#[test]
fn tiered_interleavings_match_flat_storage() {
    for (block_rows, encoding, seed) in [
        (64usize, None, 1u64),
        (64, Some(Encoding::Rle), 2),
        // Seed 102 previously tripped the scan-all comparison after an
        // RLE recompression — kept as a regression case for the lossy
        // gating.
        (64, Some(Encoding::Rle), 102),
        (64, Some(Encoding::Dict), 3),
        (128, Some(Encoding::Delta), 4),
        (128, Some(Encoding::ForPack), 5),
        (1024, Some(Encoding::Plain), 6),
        (1024, None, 7),
    ] {
        let mut rng = SimRng::new(seed);
        let mut flat = Table::new(Schema::single("a"));
        let mut tiered = Table::with_block_rows(Schema::single("a"), block_rows);
        tiered.pin_encoding(0, encoding);
        let ctx = format!("block_rows={block_rows} enc={encoding:?} seed={seed}");
        // Set once a transition destroys forgotten rows' values (a
        // recompression that actually re-encoded): active-only answers
        // stay exact forever, but the complete-scan regime legitimately
        // diverges from the flat twin. Vacuum rebuilds both twins from
        // survivors only, which makes them byte-identical again.
        let mut lossy = false;
        for step in 0..12 {
            // Mutate: insert a batch, forget some rows, then a random
            // tier transition.
            let n = 100 + (rng.range_i64(0, 400) as usize);
            let values: Vec<i64> = (0..n).map(|_| rng.range_i64(-500, 500)).collect();
            flat.insert_batch(&values, step).unwrap();
            tiered.insert_batch(&values, step).unwrap();
            for _ in 0..n / 3 {
                if let Some(r) = flat.random_active(&mut rng) {
                    flat.forget(r, step).unwrap();
                    tiered.forget(r, step).unwrap();
                }
            }
            match rng.range_i64(0, 6) {
                0 | 1 => {
                    let upto = rng.range_i64(0, flat.num_rows() as i64 + 1) as usize;
                    tiered.freeze_upto(upto);
                }
                2 => {
                    tiered.freeze_upto(tiered.num_rows());
                }
                3 => {
                    let nb = tiered.frozen_blocks();
                    if nb > 0 {
                        tiered.thaw_block(rng.range_i64(0, nb as i64) as usize);
                    }
                }
                4 => {
                    let (reencoded, _) = tiered.recompress_frozen(0.9);
                    lossy |= reencoded > 0;
                }
                _ => {
                    // Vacuum both twins identically; the compacted tiered
                    // table comes back hot (survivor values only, so the
                    // twins are byte-identical again) and refreezes later.
                    let keep_flat = vacuum(&flat);
                    let keep_tiered = vacuum(&tiered);
                    assert_eq!(
                        keep_flat.removed, keep_tiered.removed,
                        "vacuum parity {ctx}"
                    );
                    flat = keep_flat.table;
                    tiered = keep_tiered.table;
                    lossy = false;
                }
            }
            tiered.check_invariants().unwrap();
            assert_eq!(tiered.num_rows(), flat.num_rows(), "{ctx} step {step}");
            // Query: a selective, a covering, and an empty predicate.
            for pred in [
                RangePredicate::new(rng.range_i64(-500, 400), rng.range_i64(-400, 500)),
                RangePredicate::new(-500, 500),
                RangePredicate::new(400, -400),
            ] {
                assert_tiered_equals_flat(
                    &tiered,
                    &flat,
                    pred,
                    !lossy,
                    &format!("{ctx} step {step}"),
                );
            }
            // Joins ride the same interleavings: build and probe must
            // read the exact tier layout this step produced.
            assert_tiered_join_equals_flat(&tiered, &flat, &format!("{ctx} step {step}"));
        }
        // Dropping fully-forgotten blocks keeps active answers intact.
        tiered.freeze_upto(tiered.num_rows());
        let (_, _) = tiered.drop_forgotten_blocks();
        for pred in [
            RangePredicate::new(-500, 500),
            RangePredicate::new(-100, 100),
        ] {
            let reference = scalar::range_scan_active(&flat, 0, pred);
            assert_eq!(
                kernels::range_scan_active(&tiered, 0, pred),
                reference,
                "{ctx} after drop"
            );
        }
    }
}

/// Tiered join == dense-materialized join across every codec × block
/// size × freeze/forget/recompress/drop interleaving, on a two-table
/// (parent/child) shape where the build and probe sides freeze
/// *independently* — left frozen/right hot, left hot/right frozen, both
/// frozen, recompressed, partially dropped. The flat twins are the
/// ground truth; pair order must match bit-for-bit.
#[test]
fn tiered_join_equals_dense_join_across_codecs() {
    for (block_rows, encoding, seed) in [
        (64usize, None, 41u64),
        (64, Some(Encoding::Rle), 42),
        (64, Some(Encoding::Dict), 43),
        (128, Some(Encoding::Delta), 44),
        (128, Some(Encoding::ForPack), 45),
        (1024, Some(Encoding::Plain), 46),
        (1024, None, 47),
    ] {
        let ctx = format!("block_rows={block_rows} enc={encoding:?} seed={seed}");
        let mut rng = SimRng::new(seed);
        // Parent: distinct-ish keys; child: skewed fks — a handful of hot
        // keys so dict/rle structure actually appears in frozen blocks.
        let parent_vals: Vec<i64> = (0..700).map(|i| i % 400).collect();
        let child_vals: Vec<i64> = (0..1_500)
            .map(|_| {
                let r = rng.f64();
                (r * r * 400.0) as i64
            })
            .collect();
        let mut flat_parent = Table::new(Schema::single("k"));
        flat_parent.insert_batch(&parent_vals, 0).unwrap();
        let mut flat_child = Table::new(Schema::single("fk"));
        flat_child.insert_batch(&child_vals, 0).unwrap();
        let mut parent = Table::with_block_rows(Schema::single("k"), block_rows);
        parent.pin_encoding(0, encoding);
        parent.insert_batch(&parent_vals, 0).unwrap();
        let mut child = Table::with_block_rows(Schema::single("fk"), block_rows);
        child.pin_encoding(0, encoding);
        child.insert_batch(&child_vals, 0).unwrap();
        for _ in 0..300 {
            if let Some(r) = flat_parent.random_active(&mut rng) {
                flat_parent.forget(r, 1).unwrap();
                parent.forget(r, 1).unwrap();
            }
            if let Some(r) = flat_child.random_active(&mut rng) {
                flat_child.forget(r, 1).unwrap();
                child.forget(r, 1).unwrap();
            }
        }

        let check = |flat_parent: &Table,
                     flat_child: &Table,
                     parent: &Table,
                     child: &Table,
                     stage: &str| {
            let want = hash_join(flat_parent, 0, flat_child, 0, ForgetVisibility::ActiveOnly);
            let got = hash_join(parent, 0, child, 0, ForgetVisibility::ActiveOnly);
            assert_eq!(got.pairs, want.pairs, "{ctx} {stage}");
            assert_eq!(
                got.stats.build_distinct_keys,
                want.stats.build_distinct_keys
            );
            assert_eq!(
                hash_join_count(parent, 0, child, 0, ForgetVisibility::ActiveOnly),
                want.stats.output_pairs,
                "{ctx} {stage} count"
            );
            assert_eq!(
                plan_join_keys(parent, child),
                pair_keys(flat_parent, flat_child, &want.pairs),
                "{ctx} {stage} plan"
            );
        };

        // Hot × hot (sanity), then every frozen combination.
        check(&flat_parent, &flat_child, &parent, &child, "hot/hot");
        parent.freeze_upto(parent.num_rows());
        check(&flat_parent, &flat_child, &parent, &child, "frozen/hot");
        child.freeze_upto(child.num_rows() / 2);
        check(&flat_parent, &flat_child, &parent, &child, "frozen/mixed");
        child.freeze_upto(child.num_rows());
        check(&flat_parent, &flat_child, &parent, &child, "frozen/frozen");
        // Ground truth (forgotten rows included) holds while no lossy
        // transition has run.
        let truth_want = hash_join(
            &flat_parent,
            0,
            &flat_child,
            0,
            ForgetVisibility::ScanSeesForgotten,
        );
        let truth_got = hash_join(&parent, 0, &child, 0, ForgetVisibility::ScanSeesForgotten);
        assert_eq!(truth_got.pairs, truth_want.pairs, "{ctx} ground truth");
        // Recompress squashes forgotten values; active answers must hold.
        parent.recompress_frozen(0.95);
        child.recompress_frozen(0.95);
        check(&flat_parent, &flat_child, &parent, &child, "recompressed");
        // Forget a whole child block and drop it: its pairs vanish from
        // both twins because the *flat* twin forgets the same rows.
        let doomed: Vec<RowId> = (0..block_rows.min(child.num_rows()))
            .map(RowId::from)
            .collect();
        for &r in &doomed {
            if flat_child.activity().is_active(r) {
                flat_child.forget(r, 2).unwrap();
                child.forget(r, 2).unwrap();
            }
        }
        child.drop_forgotten_blocks();
        check(&flat_parent, &flat_child, &parent, &child, "dropped");
    }
}

/// The acceptance gate for "zero dense materialization": a tiered join
/// over fully frozen RLE/dict tables must not decode a single block —
/// build streams runs/codes, probe stays in compressed space. The
/// per-thread decode counter pins it.
#[test]
fn tiered_join_never_decodes_frozen_blocks() {
    for encoding in [
        Encoding::Rle,
        Encoding::Dict,
        Encoding::ForPack,
        Encoding::Delta,
    ] {
        let mut left = Table::with_block_rows(Schema::single("k"), 256);
        left.pin_encoding(0, Some(encoding));
        left.insert_batch(&(0..2_048).map(|i| i / 8).collect::<Vec<i64>>(), 0)
            .unwrap();
        let mut right = Table::with_block_rows(Schema::single("fk"), 256);
        right.pin_encoding(0, Some(encoding));
        right
            .insert_batch(&(0..2_048).map(|i| i % 300).collect::<Vec<i64>>(), 0)
            .unwrap();
        for r in (0..2_048u64).step_by(5) {
            left.forget(RowId(r), 1).unwrap();
            right.forget(RowId(r), 1).unwrap();
        }
        left.freeze_upto(2_048);
        right.freeze_upto(2_048);
        let dense_want = {
            // Dense reference computed before the counter snapshot (it
            // decodes on purpose).
            let l: Vec<i64> = (0..2_048).map(|r| left.value(0, RowId::from(r))).collect();
            let r: Vec<i64> = (0..2_048)
                .map(|row| right.value(0, RowId::from(row)))
                .collect();
            let mut pairs = Vec::new();
            for probe in right.iter_active() {
                for build in left.iter_active() {
                    if l[build.as_usize()] == r[probe.as_usize()] {
                        pairs.push((build, probe));
                    }
                }
            }
            pairs.sort_by_key(|&(l, r)| (r, l));
            pairs
        };
        let before = block_decodes();
        let got = hash_join(&left, 0, &right, 0, ForgetVisibility::ActiveOnly);
        let count = hash_join_count(&left, 0, &right, 0, ForgetVisibility::ActiveOnly);
        assert_eq!(
            block_decodes() - before,
            0,
            "{encoding:?}: tiered join must not decode any frozen block"
        );
        let mut sorted = got.pairs.clone();
        sorted.sort_by_key(|&(l, r)| (r, l));
        assert_eq!(sorted, dense_want, "{encoding:?}");
        assert_eq!(count, got.pairs.len(), "{encoding:?}");
    }
}

#[test]
fn stale_word_zones_stay_safe() {
    // Build zones first, forget afterwards with note_forget only (no
    // sync): bounds are stale-but-wide, results must stay exact.
    let mut rng = SimRng::new(21);
    let values: Vec<i64> = (0..2_000).map(|_| rng.range_i64(0, 1_000)).collect();
    let mut t = Table::new(Schema::single("a"));
    t.insert_batch(&values, 0).unwrap();
    let mut wz = WordZoneMap::build(&t, 0);
    for _ in 0..1_200 {
        if let Some(r) = t.random_active(&mut rng) {
            t.forget(r, 1).unwrap();
            wz.note_forget(r);
        }
    }
    for pred in [
        RangePredicate::new(0, 1_000),
        RangePredicate::new(400, 600),
        RangePredicate::new(990, 2_000),
    ] {
        let (rows, _) = kernels::range_scan_active_zoned(&t, 0, &wz, pred);
        assert_eq!(rows, scalar::range_scan_active(&t, 0, pred), "{pred:?}");
    }
}

#[test]
fn word_zones_hit_the_ninety_percent_bar() {
    // Acceptance setting: sorted column, ~1 % selectivity — at least
    // 90 % of words must be zone-pruned.
    let n = 200_000usize;
    let values: Vec<i64> = (0..n as i64).collect();
    let mut t = Table::new(Schema::single("a"));
    t.insert_batch(&values, 0).unwrap();
    let wz = WordZoneMap::build(&t, 0);
    let pred = RangePredicate::new(100_000, 102_000);
    let (rows, stats) = kernels::range_scan_active_zoned(&t, 0, &wz, pred);
    assert_eq!(rows.len(), 2_000);
    let total_words = n.div_ceil(64);
    assert!(
        stats.words_pruned as f64 >= 0.9 * total_words as f64,
        "pruned {} of {} words",
        stats.words_pruned,
        total_words
    );
}

#[test]
fn join_kernels_agree_with_row_at_a_time_reference() {
    use amnesia::engine::join::{hash_join, hash_join_count};
    use amnesia::engine::ForgetVisibility;

    let mut rng = SimRng::new(77);
    let mut left = Table::new(Schema::single("k"));
    let left_vals: Vec<i64> = (0..500).map(|_| rng.range_i64(0, 50)).collect();
    left.insert_batch(&left_vals, 0).unwrap();
    let mut right = Table::new(Schema::single("k"));
    let right_vals: Vec<i64> = (0..800).map(|_| rng.range_i64(0, 50)).collect();
    right.insert_batch(&right_vals, 0).unwrap();
    for _ in 0..150 {
        if let Some(r) = left.random_active(&mut rng) {
            left.forget(r, 1).unwrap();
        }
        if let Some(r) = right.random_active(&mut rng) {
            right.forget(r, 1).unwrap();
        }
    }

    for vis in [
        ForgetVisibility::ActiveOnly,
        ForgetVisibility::ScanSeesForgotten,
    ] {
        let result = hash_join(&left, 0, &right, 0, vis);
        // Row-at-a-time reference join.
        let mut expect = Vec::new();
        let rows = |t: &Table| -> Vec<RowId> {
            match vis {
                ForgetVisibility::ActiveOnly => t.active_row_ids(),
                ForgetVisibility::ScanSeesForgotten => (0..t.num_rows()).map(RowId::from).collect(),
            }
        };
        for &r in &rows(&right) {
            for &l in &rows(&left) {
                if left_vals[l.as_usize()] == right_vals[r.as_usize()] {
                    expect.push((l, r));
                }
            }
        }
        let mut got = result.pairs.clone();
        got.sort();
        expect.sort();
        assert_eq!(got, expect, "{vis:?}");
        assert_eq!(
            hash_join_count(&left, 0, &right, 0, vis),
            expect.len(),
            "{vis:?} count"
        );
    }
}

// ===================================================================
// Morsel scheduler: PhysicalPlan execution, parallel == serial
// ===================================================================

use amnesia::engine::physical::JoinSpec;
use amnesia::engine::{
    ColPred, ExecMode, Executor, PhysItem, PhysScan, PhysicalPlan, PlanHint, SortDir,
};

/// Non-power-of-two worker counts included on purpose: uneven morsel
/// partitions are where merge-order bugs live.
const PLAN_THREADS: [usize; 3] = [2, 7, 8];

/// Small morsels so even the few-thousand-row test tables split into
/// many morsels per stage (the default 16K-row morsel would collapse
/// them all into the serial fallback).
const SMALL_MORSEL: usize = 128;

fn executor(threads: usize) -> Executor {
    let mode = if threads <= 1 {
        ExecMode::Serial
    } else {
        ExecMode::Parallel(threads)
    };
    Executor::default()
        .with_exec_mode(mode)
        .with_morsel_rows(SMALL_MORSEL)
}

/// Run `plan` serially and at every parallel width; the rows must be
/// byte-identical, and parallel execution must not add block decodes
/// beyond what the serial run performs.
fn assert_plan_parallel_equals_serial(tables: &[&Table], plan: &PhysicalPlan, ctx: &str) {
    let serial = executor(1).execute_plan(tables, &[], plan);
    for threads in PLAN_THREADS {
        let before = block_decodes();
        let par = executor(threads).execute_plan(tables, &[], plan);
        let decoded = block_decodes() - before;
        assert_eq!(
            par.rows, serial.rows,
            "plan output diverged at {threads} threads: {ctx}"
        );
        assert_eq!(
            par.stats.rows_scanned, serial.stats.rows_scanned,
            "scan accounting diverged at {threads} threads: {ctx}"
        );
        let fully_frozen = tables
            .iter()
            .all(|t| t.frozen_blocks() * t.block_rows() >= t.num_rows());
        if fully_frozen {
            assert_eq!(
                decoded, 0,
                "parallel plan over fully-frozen tables decoded {decoded} blocks \
                 at {threads} threads: {ctx}"
            );
        }
    }
}

/// The grouped-aggregate plan shape (scan → group → sort → limit).
fn grouped_plan() -> PhysicalPlan {
    PhysicalPlan {
        scans: vec![PhysScan {
            preds: vec![ColPred::range(1, 100, 700), ColPred::range(2, 10, 80)],
            label: "Scan t [active-only]".into(),
        }],
        join: None,
        items: vec![
            PhysItem::Column {
                slot: 0,
                col: 0,
                display: "g".into(),
            },
            PhysItem::Aggregate {
                kind: AggKind::Count,
                arg: None,
                display: "n".into(),
            },
            PhysItem::Aggregate {
                kind: AggKind::Sum,
                arg: Some((0, 1)),
                display: "s".into(),
            },
            PhysItem::Aggregate {
                kind: AggKind::Avg,
                arg: Some((0, 2)),
                display: "m".into(),
            },
            PhysItem::Aggregate {
                kind: AggKind::Min,
                arg: Some((0, 1)),
                display: "lo".into(),
            },
            PhysItem::Aggregate {
                kind: AggKind::Max,
                arg: Some((0, 1)),
                display: "hi".into(),
            },
        ],
        group_by: Some((0, 0, "g".into())),
        order_by: Some((2, SortDir::Desc)),
        limit: Some(16),
        hint: PlanHint::CostBased,
    }
}

/// Selective projection with an ORDER BY (exercises the parallel sort
/// merge) and no LIMIT (every surviving row must come back, in order).
fn projection_plan() -> PhysicalPlan {
    PhysicalPlan {
        scans: vec![PhysScan {
            preds: vec![ColPred::range(1, 0, 500)],
            label: "Scan t [active-only]".into(),
        }],
        join: None,
        items: vec![
            PhysItem::Column {
                slot: 0,
                col: 0,
                display: "g".into(),
            },
            PhysItem::Column {
                slot: 0,
                col: 2,
                display: "b".into(),
            },
        ],
        group_by: None,
        order_by: Some((1, SortDir::Asc)),
        limit: None,
        hint: PlanHint::CostBased,
    }
}

/// Global (ungrouped) aggregate — the per-chunk AggState merge path.
fn global_agg_plan() -> PhysicalPlan {
    PhysicalPlan {
        scans: vec![PhysScan {
            preds: vec![ColPred::range(1, 50, 900)],
            label: "Scan t [active-only]".into(),
        }],
        join: None,
        items: vec![
            PhysItem::Aggregate {
                kind: AggKind::Count,
                arg: None,
                display: "n".into(),
            },
            PhysItem::Aggregate {
                kind: AggKind::Sum,
                arg: Some((0, 2)),
                display: "s".into(),
            },
            PhysItem::Aggregate {
                kind: AggKind::Avg,
                arg: Some((0, 1)),
                display: "m".into(),
            },
        ],
        group_by: None,
        order_by: None,
        limit: None,
        hint: PlanHint::CostBased,
    }
}

/// A three-column table (`g`, `a`, `b`) under a pinned codec.
fn plan_table(block_rows: usize, encoding: Option<Encoding>, n: usize, seed: u64) -> Table {
    let mut rng = SimRng::new(seed);
    let mut t = Table::with_block_rows(Schema::new(vec!["g", "a", "b"]), block_rows);
    for c in 0..3 {
        t.pin_encoding(c, encoding);
    }
    for i in 0..n {
        // `g` cycles (dict/rle-friendly), `a` trends (delta-friendly),
        // `b` is noise (forpack-friendly).
        t.insert(
            &[
                (i % 23) as i64,
                (i as i64 / 4) % 1_000,
                rng.range_i64(0, 100),
            ],
            0,
        )
        .unwrap();
    }
    t
}

/// `execute_plan` under `ExecMode::Parallel` must match the serial path
/// byte-for-byte across codecs × block sizes × thread counts ×
/// freeze/forget/recompress interleavings, without extra block decodes
/// once the table is fully frozen.
#[test]
fn physical_plans_parallel_equals_serial_across_tiers() {
    for (block_rows, encoding, seed) in [
        (64usize, None, 11u64),
        (64, Some(Encoding::Rle), 12),
        (64, Some(Encoding::Dict), 13),
        (128, Some(Encoding::Delta), 14),
        (128, Some(Encoding::ForPack), 15),
        (256, Some(Encoding::Plain), 16),
        (1024, None, 17),
    ] {
        let ctx = format!("block_rows={block_rows} enc={encoding:?}");
        let mut rng = SimRng::new(seed);
        let mut t = plan_table(block_rows, encoding, 3_000, seed);
        let plans = [grouped_plan(), projection_plan(), global_agg_plan()];
        let check = |t: &Table, stage: &str| {
            for (i, plan) in plans.iter().enumerate() {
                assert_plan_parallel_equals_serial(&[t], plan, &format!("{ctx} plan#{i} {stage}"));
            }
        };
        check(&t, "hot");
        for _ in 0..700 {
            if let Some(r) = t.random_active(&mut rng) {
                t.forget(r, 1).unwrap();
            }
        }
        check(&t, "hot+forgets");
        t.freeze_upto(t.num_rows() / 2);
        check(&t, "half-frozen");
        t.freeze_upto(t.num_rows());
        check(&t, "frozen");
        for _ in 0..400 {
            if let Some(r) = t.random_active(&mut rng) {
                t.forget(r, 2).unwrap();
            }
        }
        check(&t, "frozen+forgets");
        t.recompress_frozen(0.9);
        check(&t, "recompressed");
        for i in 0..900 {
            t.insert(&[i % 23, 400 + (i % 300), rng.range_i64(0, 100)], 3)
                .unwrap();
        }
        check(&t, "regrown-tail");
    }
}

/// The two-table join plan: parallel build/probe/gather must reproduce
/// the serial pair stream exactly, across independent freeze states of
/// the two sides.
#[test]
fn join_plans_parallel_equals_serial_across_tiers() {
    let join_plan = PhysicalPlan {
        scans: vec![
            PhysScan {
                preds: vec![],
                label: "Scan parent [active-only]".into(),
            },
            PhysScan {
                preds: vec![ColPred::range(1, 0, 600)],
                label: "Scan child [active-only]".into(),
            },
        ],
        join: Some(JoinSpec {
            left_col: 0,
            right_col: 0,
            display: "parent.k = child.fk".into(),
        }),
        items: vec![
            PhysItem::Column {
                slot: 0,
                col: 1,
                display: "pa".into(),
            },
            PhysItem::Column {
                slot: 1,
                col: 2,
                display: "cb".into(),
            },
        ],
        group_by: None,
        order_by: None,
        limit: None,
        hint: PlanHint::CostBased,
    };
    let grouped_join_plan = PhysicalPlan {
        items: vec![
            PhysItem::Column {
                slot: 0,
                col: 0,
                display: "k".into(),
            },
            PhysItem::Aggregate {
                kind: AggKind::Count,
                arg: None,
                display: "n".into(),
            },
            PhysItem::Aggregate {
                kind: AggKind::Sum,
                arg: Some((1, 2)),
                display: "s".into(),
            },
        ],
        group_by: Some((0, 0, "k".into())),
        order_by: Some((2, SortDir::Desc)),
        limit: Some(8),
        ..join_plan.clone()
    };
    for (block_rows, encoding) in [
        (64usize, Some(Encoding::Dict)),
        (64, Some(Encoding::Rle)),
        (128, None),
    ] {
        let ctx = format!("block_rows={block_rows} enc={encoding:?}");
        let mut rng = SimRng::new(31);
        let mut parent = plan_table(block_rows, encoding, 1_200, 32);
        let mut child = plan_table(block_rows, encoding, 2_400, 33);
        for _ in 0..500 {
            if let Some(r) = parent.random_active(&mut rng) {
                parent.forget(r, 1).unwrap();
            }
            if let Some(r) = child.random_active(&mut rng) {
                child.forget(r, 1).unwrap();
            }
        }
        let check = |p: &Table, c: &Table, stage: &str| {
            assert_plan_parallel_equals_serial(&[p, c], &join_plan, &format!("{ctx} {stage}"));
            assert_plan_parallel_equals_serial(
                &[p, c],
                &grouped_join_plan,
                &format!("{ctx} grouped {stage}"),
            );
        };
        check(&parent, &child, "hot/hot");
        parent.freeze_upto(parent.num_rows());
        check(&parent, &child, "frozen/hot");
        child.freeze_upto(child.num_rows() / 2);
        check(&parent, &child, "frozen/mixed");
        child.freeze_upto(child.num_rows());
        check(&parent, &child, "frozen/frozen");
        parent.recompress_frozen(0.95);
        child.recompress_frozen(0.95);
        check(&parent, &child, "recompressed");
    }
}
