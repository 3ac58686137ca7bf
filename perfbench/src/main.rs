//! The BOAT workspace benchmark: one workload per process.
//!
//! ```sh
//! perfbench --workload fit_disk --seed 1 --seconds 20 --trace 0 --scratch DIR
//! ```
//!
//! Prints human-readable lines starting with `#`, then, as the last line,
//! one JSON object with the keys `correct`, `attempted`, `failed` and
//! `metrics`: every end-to-end metric with `--trace 0`, every per-layer
//! metric with `--trace 1`. A failed correctness check prints the reason to
//! stderr and exits with code 1 and no result line. `perfbench/run.py`
//! builds this binary and is the command to run.

mod common;
mod fit_disk;
mod ingest_drift;
mod serve_swap;

use common::{Opts, Report};
use std::path::PathBuf;

/// End-to-end metrics every workload reports, each from its own work.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ok_ratio", "ratio"),
    ("ns_per_row", "ns/row"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
];

/// Per-layer metrics of the traced run, named `crate.module.metric`. A
/// layer a workload leaves idle reads 0 there.
const PER_LAYER: &[(&str, &str)] = &[
    // fit_disk
    ("data.dataset.scan_ns_per_row", "ns/row"),
    ("core.boat.sample_phase_s", "s"),
    ("core.boat.bootstrap_s", "s"),
    ("tree.columnar.grow_s", "s"),
    ("core.work.cleanup_s", "s"),
    ("core.work.cleanup_over_scan", "ratio"),
    ("core.verify.verify_s", "s"),
    ("core.boat.complete_s", "s"),
    ("core.verify.pass_ratio", "ratio"),
    ("core.boat.input_scans", "count"),
    ("data.spill.write_bytes_per_input_byte", "ratio"),
    ("core.work.parked_tuples", "count"),
    ("tree.subsample.prune_ratio", "ratio"),
    // ingest_drift
    ("data.wal.append_us_p50", "us"),
    ("data.wal.fsync_batches", "count"),
    ("core.incremental.insert_us_per_record", "us/record"),
    ("core.incremental.delete_us_per_record", "us/record"),
    ("core.incremental.maintain_ms_mean", "ms"),
    ("core.verify.verify_ms_per_maintain", "ms"),
    ("core.boat.regrow_ms_per_maintain", "ms"),
    ("core.verify.fail_per_maintain", "count"),
    ("core.jobs.reuse_ratio", "ratio"),
    ("data.spill.read_bytes_per_wal_byte", "ratio"),
    ("serve.compile.publish_us_mean", "us"),
    // serve_swap
    ("serve.compile.predict_ns_per_row", "ns/row"),
    ("serve.engine.submit_us_p50", "us"),
    ("serve.engine.score_us_mean", "us"),
    ("serve.engine.queue_wait_us_mean", "us"),
    ("serve.handle.publish_us_mean", "us"),
    // all workloads
    ("bench.process.peak_heap_mb", "MB"),
    ("bench.trace.overhead_pct", "%"),
];

fn usage_exit(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload fit_disk|ingest_drift|serve_swap --seed N --seconds S \
         --trace 0|1 --scratch DIR [--size full|tiny] [--sabotage 0|1]"
    );
    std::process::exit(2);
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some("--calibrate") {
        println!("{}", common::calibration_kernel());
        return;
    }
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut tiny = false;
    let mut sabotage = false;
    let mut scratch = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .unwrap_or_else(|| usage_exit(&format!("{flag} needs a value")));
        let bad = || -> ! { usage_exit(&format!("bad value {value:?} for {flag}")) };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().unwrap_or_else(|_| bad()),
            "--seconds" => seconds = value.parse().unwrap_or_else(|_| bad()),
            "--trace" => trace = value == "1",
            "--size" => tiny = value == "tiny",
            "--sabotage" => sabotage = value == "1",
            "--scratch" => scratch = Some(PathBuf::from(&value)),
            _ => usage_exit(&format!("unknown flag {flag}")),
        }
    }
    let scratch = scratch.unwrap_or_else(|| usage_exit("--scratch is required"));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).expect("create the scratch directory");
    let opts = Opts {
        seed,
        seconds,
        trace,
        tiny,
        sabotage,
        scratch: scratch.clone(),
    };
    let outcome = match workload.as_deref() {
        Some("fit_disk") => fit_disk::run(&opts),
        Some("ingest_drift") => ingest_drift::run(&opts),
        Some("serve_swap") => serve_swap::run(&opts),
        _ => usage_exit("--workload must be fit_disk, ingest_drift or serve_swap"),
    };
    let report = match outcome {
        Ok(r) => r,
        Err(common::CheckFailed(msg)) => {
            eprintln!("perfbench: correctness check failed: {msg}");
            std::process::exit(1);
        }
    };
    let line = if trace {
        complete(report, PER_LAYER, true)
    } else {
        complete(report, END_TO_END, false)
    }
    .json_line();
    // Leave only the trace behind: spill files, WAL and datasets go.
    if let Ok(entries) = std::fs::read_dir(&scratch) {
        for e in entries.flatten() {
            let name = e.file_name();
            if !name.to_string_lossy().starts_with("trace.") {
                let p = e.path();
                let _ = std::fs::remove_dir_all(&p).or_else(|_| std::fs::remove_file(&p));
            }
        }
    }
    println!("{line}");
}

/// Order the report's metrics as `names` lists them. With `idle_zero`, a
/// metric of a layer the workload left idle reads 0; otherwise every
/// metric must be reported. A metric outside `names`, or one reported
/// under the wrong unit, is a bug in the benchmark.
fn complete(report: Report, names: &[(&str, &'static str)], idle_zero: bool) -> Report {
    for (name, _, unit) in &report.metrics {
        let known = names.iter().find(|(n, _)| n == name);
        assert!(
            known.is_some_and(|(_, u)| u == unit),
            "metric {name} ({unit}) is not in the metric list"
        );
    }
    let metrics = names
        .iter()
        .map(|(name, unit)| {
            let value = report
                .metrics
                .iter()
                .find(|(n, _, _)| n == name)
                .map(|m| m.1);
            assert!(
                idle_zero || value.is_some(),
                "metric {name} was not measured"
            );
            (name.to_string(), value.unwrap_or(0.0), *unit)
        })
        .collect();
    Report { metrics, ..report }
}
