//! Engineering bench: scan and aggregate kernels.
//!
//! Quantifies what the execution regimes cost: full active scan vs
//! zone-map pruned scan vs sorted-index probe, and the streaming
//! aggregate kernel, at 20 % forgotten tuples. The `vectorized_vs_scalar`
//! group measures the word-at-a-time batch kernels against the
//! row-at-a-time references (`batch::scalar`) at 1M rows.

use std::hint::black_box;

use amnesia_bench::{forget_fraction, table_from_distribution};
use amnesia_columnar::{SortedIndex, ZoneMap};
use amnesia_distrib::DistributionKind;
use amnesia_engine::batch::scalar;
use amnesia_engine::{kernels, ColPred};
use amnesia_workload::query::{AggKind, RangePredicate};
use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;

/// Vectorized vs scalar at 1M rows: the selective scan and the fused
/// filter+aggregate, at two forgotten fractions.
/// The fused filter+aggregate over column 0, finalized as AVG.
fn avg(table: &amnesia_columnar::Table, pred: Option<RangePredicate>) -> Option<f64> {
    kernels::aggregate_state_active(table, 0, pred)
        .0
        .finalize(AggKind::Avg)
}

fn vectorized_vs_scalar(c: &mut Criterion) {
    const N: usize = 1_000_000;
    for forgotten in [0.2f64, 0.5] {
        let mut table = table_from_distribution(&DistributionKind::Uniform, N, 1_000_000, 3);
        forget_fraction(&mut table, forgotten, 4);
        // ~1 % selectivity predicate.
        let pred = RangePredicate::new(500_000, 510_000);
        let tag = format!("vectorized_vs_scalar_1m/forgotten_{forgotten}");

        let mut group = c.benchmark_group(&tag);
        group.bench_function("scan_scalar", |b| {
            b.iter(|| black_box(scalar::range_scan_active(&table, 0, black_box(pred))))
        });
        group.bench_function("scan_vectorized", |b| {
            b.iter(|| black_box(kernels::range_scan_active(&table, 0, black_box(pred))))
        });
        group.bench_function("filter_agg_scalar", |b| {
            b.iter(|| {
                black_box(scalar::aggregate_active(
                    &table,
                    0,
                    Some(black_box(pred)),
                    AggKind::Avg,
                ))
            })
        });
        group.bench_function("filter_agg_vectorized", |b| {
            b.iter(|| black_box(avg(&table, Some(black_box(pred)))))
        });
        group.bench_function("whole_table_agg_scalar", |b| {
            b.iter(|| black_box(scalar::aggregate_active(&table, 0, None, AggKind::Avg)))
        });
        group.bench_function("whole_table_agg_vectorized", |b| {
            b.iter(|| black_box(avg(&table, None)))
        });
        group.finish();
    }
}

fn scan_kernels(c: &mut Criterion) {
    const N: usize = 200_000;
    let mut table = table_from_distribution(&DistributionKind::Uniform, N, 1_000_000, 1);
    forget_fraction(&mut table, 0.2, 2);
    let zonemap = ZoneMap::build(&table, 0);
    let index = SortedIndex::build(&table, 0);
    // ~1 % selectivity predicate.
    let pred = RangePredicate::new(500_000, 510_000);

    let mut group = c.benchmark_group("scan_200k_rows");
    group.bench_function("full_active_scan", |b| {
        b.iter(|| black_box(kernels::range_scan_active(&table, 0, black_box(pred))))
    });
    let preds = [ColPred::from_range(0, pred)];
    group.bench_function("full_scan_with_forgotten", |b| {
        b.iter(|| {
            let sel = kernels::selection_scan_all(&table, black_box(&preds));
            black_box(kernels::selection_rows(&sel))
        })
    });
    group.bench_function("zonemap_pruned_scan", |b| {
        b.iter(|| {
            let blocks = zonemap.candidate_blocks(pred.lo, pred.hi_inclusive());
            black_box(kernels::range_scan_blocks(
                &table,
                0,
                black_box(pred),
                &blocks,
                zonemap.block_rows(),
            ))
        })
    });
    group.bench_function("index_probe_active", |b| {
        b.iter(|| black_box(index.probe_range_active(&table, pred.lo, pred.hi_inclusive())))
    });
    group.finish();

    let mut agg = c.benchmark_group("aggregate_200k_rows");
    agg.bench_function("avg_whole_table", |b| {
        b.iter(|| black_box(avg(&table, None)))
    });
    agg.bench_function("avg_with_predicate", |b| {
        b.iter(|| black_box(avg(&table, Some(black_box(pred)))))
    });
    agg.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(Duration::from_secs(2)).warm_up_time(Duration::from_millis(500));
    targets = scan_kernels, vectorized_vs_scalar
}
criterion_main!(benches);
