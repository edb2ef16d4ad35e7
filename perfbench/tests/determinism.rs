//! The benchmark's own gates: fixed work per seed (its counts repeat
//! exactly), seed sensitivity, and an oracle that catches a wrong answer.

use std::path::PathBuf;

use perfbench::{run, Config, Outcome, Scale, Workload};

/// Metrics that depend only on the seed, never on timing.
const DETERMINISTIC: [&str; 10] = [
    "disk_bytes_per_user_byte",
    "resident_bytes_per_active_row",
    "mean_precision",
    "engine.rows_scanned",
    "wal.records_appended",
    "wal.bytes_appended",
    "wal.segments_rotated",
    "wal.segments_shredded",
    "wal.bytes_shredded",
    "wal.checkpoints",
];

fn tiny(workload: Workload, seed: u64, perturb: bool, tag: &str) -> Outcome {
    let work_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("perfbench-{}-{seed}-{tag}", workload.name()));
    let cfg = Config {
        workload,
        seed,
        seconds: 20,
        trace: false,
        scale: Scale::Tiny,
        work_dir,
        perturb,
    };
    run(&cfg).expect("tiny run")
}

fn counts(o: &Outcome) -> Vec<(String, f64)> {
    DETERMINISTIC
        .iter()
        .map(|&name| {
            let v = o
                .end_to_end
                .get(name)
                .or_else(|| o.per_layer.get(name))
                .expect("metric reported");
            (name.to_string(), v)
        })
        .collect()
}

#[test]
fn same_seed_repeats_counts_and_another_seed_changes_inputs() {
    for w in Workload::ALL {
        let a = tiny(w, 7, false, "a");
        let b = tiny(w, 7, false, "b");
        assert_eq!(a.ops.failed, 0, "{}: failed operations", w.name());
        assert_eq!(a.ops, b.ops, "{}", w.name());
        assert_eq!(counts(&a), counts(&b), "{}", w.name());
        assert_eq!(a.input_digest, b.input_digest, "{}", w.name());
        let c = tiny(w, 8, false, "c");
        assert_ne!(a.input_digest, c.input_digest, "{}: seed ignored", w.name());
        assert_eq!(c.ops.failed, 0, "{}", w.name());
    }
}

#[test]
fn a_perturbed_answer_counts_as_one_failed_operation() {
    for w in Workload::ALL {
        let clean = tiny(w, 11, false, "clean");
        let bad = tiny(w, 11, true, "bad");
        assert_eq!(clean.ops.failed, 0, "{}", w.name());
        assert_eq!(bad.ops.failed, 1, "{}", w.name());
        assert_eq!(bad.ops.attempted, clean.ops.attempted, "{}", w.name());
    }
}

#[test]
fn every_end_to_end_metric_is_reported_and_positive() {
    for w in Workload::ALL {
        let o = tiny(w, 3, false, "metrics");
        assert_eq!(o.end_to_end.0.len(), perfbench::END_TO_END.len());
        assert_eq!(o.per_layer.0.len(), perfbench::PER_LAYER.len());
        for m in &o.end_to_end.0 {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{}: {} = {}",
                w.name(),
                m.name,
                m.value
            );
        }
    }
}
