//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints a human-readable report, a JSON results
//! record, and, as the last line, the result object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! With `--trace 0` the metrics are the end-to-end ones; with
//! `--trace 1` they are the per-layer ones from the traced run.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::report::{self, pin_allocator, pin_env};
use perfbench::{run, Config, Scale, Workload};

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        Workload::ALL.map(|w| w.name()).join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    // Before anything builds an executor or dispatches a kernel.
    let env = pin_env();
    let malloc = pin_allocator();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = BTreeMap::new();
    for pair in args.chunks(2) {
        match pair {
            [k, v] if k.starts_with("--") => {
                flags.insert(k.trim_start_matches("--").to_string(), v.clone());
            }
            _ => return usage(),
        }
    }
    let get = |k: &str| flags.get(k).map(String::as_str);
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (
        get("workload").and_then(Workload::parse),
        get("seed").and_then(|s| s.parse::<u64>().ok()),
        get("seconds").and_then(|s| s.parse::<u64>().ok()),
        get("trace").and_then(|s| match s {
            "0" => Some(false),
            "1" => Some(true),
            _ => None,
        }),
    ) else {
        return usage();
    };
    let cfg = Config {
        workload,
        seed,
        seconds,
        trace,
        scale: Scale::Full,
        work_dir: PathBuf::from(".perfbench"),
        perturb: false,
    };
    let out = match run(&cfg) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", workload.name());
            return ExitCode::FAILURE;
        }
    };

    let metrics = if trace {
        &out.per_layer
    } else {
        &out.end_to_end
    };
    println!(
        "perfbench {} seed={} seconds={} trace={}",
        workload.name(),
        seed,
        seconds,
        u8::from(trace)
    );
    println!(
        "operations: {} attempted, {} failed",
        out.ops.attempted, out.ops.failed
    );
    print!("{}", report::table(metrics));
    if trace {
        println!("self time by layer (traced run):");
        print!("{}", out.self_time);
    }
    let mut fields = BTreeMap::new();
    fields.insert("workload".to_string(), workload.name().to_string());
    fields.insert("seed".to_string(), seed.to_string());
    fields.insert("seconds".to_string(), seconds.to_string());
    fields.insert("trace".to_string(), u8::from(trace).to_string());
    fields.insert("commit".to_string(), report::commit());
    fields.insert("nproc".to_string(), report::nproc().to_string());
    fields.insert("cpu".to_string(), report::cpu_model());
    fields.insert("simd".to_string(), report::simd_level().to_string());
    fields.insert("workers".to_string(), perfbench::WORKERS.to_string());
    fields.insert(
        "morsel_rows".to_string(),
        amnesia_engine::morsel::MORSEL_ROWS.to_string(),
    );
    fields.insert("env".to_string(), env.join(" "));
    fields.insert("malloc".to_string(), malloc);
    fields.insert(
        "input_digest".to_string(),
        format!("{:016x}", out.input_digest),
    );
    let record = report::record_json(&fields, metrics);
    let path = cfg.work_dir.join(format!(
        "result-{}-seed{}-trace{}.json",
        workload.name(),
        seed,
        u8::from(trace)
    ));
    if let Err(e) = std::fs::write(&path, format!("{record}\n")) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
    println!("record: {record}");
    println!(
        "{}",
        report::result_json(
            out.ops.failed == 0,
            out.ops.attempted,
            out.ops.failed,
            metrics
        )
    );
    ExitCode::SUCCESS
}
