//! Parallel scan bench: scan and aggregate speedup vs thread count on a
//! large amnesiac table (30 % forgotten). The `threads/N` legs run the
//! workload query's physical plan through `Executor::execute_plan` on a
//! morsel pool of N workers.

use std::hint::black_box;
use std::time::Duration;

use amnesia_columnar::{Schema, Table};
use amnesia_engine::{kernels, Aux, ExecMode, Executor, PhysicalPlan};
use amnesia_util::SimRng;
use amnesia_workload::query::{AggKind, RangePredicate};
use amnesia_workload::Query;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn big_table(n: usize) -> Table {
    let mut rng = SimRng::new(13);
    let values: Vec<i64> = (0..n).map(|_| rng.range_i64(0, 1_000_000)).collect();
    let mut t = Table::new(Schema::single("a"));
    t.insert_batch(&values, 0).unwrap();
    for _ in 0..(n as f64 * 0.3) as usize {
        if let Some(r) = t.random_active(&mut rng) {
            t.forget(r, 1).unwrap();
        }
    }
    t
}

fn parallel(c: &mut Criterion) {
    let n = 2_000_000usize;
    let t = big_table(n);
    let pred = RangePredicate::new(250_000, 750_000);

    let mut scan = c.benchmark_group("parallel/range_scan");
    scan.throughput(Throughput::Elements(n as u64));
    scan.bench_function("serial_scalar", |b| {
        b.iter(|| {
            black_box(amnesia_engine::batch::scalar::range_scan_active(
                &t,
                0,
                black_box(pred),
            ))
        })
    });
    scan.bench_function("serial", |b| {
        b.iter(|| black_box(kernels::range_scan_active(&t, 0, black_box(pred))))
    });
    let scan_plan = PhysicalPlan::from_query(0, &Query::Range(pred));
    for threads in [2usize, 4, 8] {
        let ex = Executor::default().with_exec_mode(ExecMode::Parallel(threads));
        scan.bench_with_input(BenchmarkId::new("threads", threads), &threads, |b, _| {
            b.iter(|| black_box(ex.execute_plan(&[&t], &[Aux::default()], &scan_plan)))
        });
    }
    scan.finish();

    let mut agg = c.benchmark_group("parallel/aggregate_avg");
    agg.throughput(Throughput::Elements(n as u64));
    agg.bench_function("serial_scalar", |b| {
        b.iter(|| {
            black_box(amnesia_engine::batch::scalar::aggregate_active(
                &t,
                0,
                Some(black_box(pred)),
                AggKind::Avg,
            ))
        })
    });
    agg.bench_function("serial", |b| {
        b.iter(|| {
            let (state, _) = kernels::aggregate_state_active(&t, 0, Some(black_box(pred)));
            black_box(state.finalize(AggKind::Avg))
        })
    });
    let agg_plan = PhysicalPlan::from_query(
        0,
        &Query::Aggregate {
            kind: AggKind::Avg,
            predicate: Some(pred),
        },
    );
    for threads in [2usize, 4, 8] {
        let ex = Executor::default().with_exec_mode(ExecMode::Parallel(threads));
        agg.bench_with_input(BenchmarkId::new("threads", threads), &threads, |b, _| {
            b.iter(|| black_box(ex.execute_plan(&[&t], &[Aux::default()], &agg_plan)))
        });
    }
    agg.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(Duration::from_secs(3)).warm_up_time(Duration::from_millis(500));
    targets = parallel
}
criterion_main!(benches);
