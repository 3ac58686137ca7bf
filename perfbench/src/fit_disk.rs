//! `fit_disk`: repeated `Boat::fit` over an on-disk `FileDataset` of F1
//! rows. Exercises the boat-data scan and the boat-core fit pipeline;
//! WAL, stream, incremental and serve do no work.

use crate::common::*;
use boat_core::{Boat, BoatConfig, BoatFit};
use boat_data::dataset::RecordSource;
use boat_data::{FileDataset, IoStats};
use boat_datagen::{GeneratorConfig, LabelFunction};
use boat_obs::{Registry, Snapshot};
use std::hint::black_box;
use std::time::Instant;

const ROWS: u64 = 1_000_000;
const TINY_ROWS: u64 = 30_000;
const SETUP_REPS: usize = 5;
/// Pinned cleanup-scan thread count (never 0 = auto).
const CLEANUP_THREADS: usize = 1;

fn hist_s(snap: &Snapshot, name: &str) -> f64 {
    snap.histogram(name).map_or(0.0, |h| h.sum as f64 / 1e9)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

pub fn run(opts: &Opts) -> Outcome {
    let rows = if opts.tiny { TINY_ROWS } else { ROWS };
    let path = opts.scratch.join("f1.boat");
    let gen = GeneratorConfig::new(LabelFunction::F1).with_seed(opts.seed);

    // Set-up: materialize the input file (the last copy is the one fitted).
    let (setup_times, dataset) = repeat_setup(SETUP_REPS, || {
        gen.materialize_with_stats(&path, rows, IoStats::new())
            .expect("materialize the F1 dataset")
    });
    let input_bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
    println!(
        "# fit_disk: {rows} F1 rows, {:.1} MB on disk, cleanup threads {CLEANUP_THREADS}",
        input_bytes as f64 / 1e6
    );

    // Two sampling seeds: BOAT's exactness makes the tree independent of
    // the sample, so every fit must serialize to the same bytes.
    let base = BoatConfig::scaled_for(rows)
        .with_cleanup_threads(CLEANUP_THREADS)
        .with_spill_dir(&opts.scratch);
    let metrics = Registry::new();
    let algos = [
        Boat::new(base.clone().with_seed(opts.seed ^ 0x5A17)).with_metrics(metrics.clone()),
        Boat::new(base.with_seed(opts.seed.rotate_left(17) ^ 0xC0FFEE))
            .with_metrics(metrics.clone()),
    ];

    let mut tracer = Tracer::new(false);
    // Calibrate before the first fit and after every fit, and scale each
    // fit by the mean of the kernel runs on either side of it: the host's
    // speed drifts over tens of seconds (see `calibrate`).
    let mut calibration_ms = vec![calibrate()];
    let mut ref_ms = Vec::new();
    let mut reference: Option<Vec<u8>> = None;
    let mut untraced_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut traced_fits: Vec<BoatFit> = Vec::new();
    let mut scan_ns_per_row = Vec::new();
    let mut attempted = 0u64;
    let start = Instant::now();
    // At least one fit under each sampling seed, then fit until the
    // budget is spent. In a traced run the fits alternate untraced and
    // traced, so drift cancels out of the tracing overhead.
    while attempted < 2 || start.elapsed() < opts.budget() {
        let traced = opts.trace && attempted % 2 == 1;
        tracer.set_on(traced);
        if traced {
            let ns = tracer.span("data.dataset.scan", |_| raw_scan(&dataset));
            scan_ns_per_row.push(ns / rows as f64);
        }
        let algo = &algos[attempted as usize % 2];
        let t = Instant::now();
        let fit = tracer
            .span("core.boat.fit", |_| algo.fit(&dataset))
            .map_err(|e| CheckFailed(format!("fit failed: {e}")))?;
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let before = calibration_ms[calibration_ms.len() - 1];
        let after = calibrate();
        calibration_ms.push(after);
        let cal = (before + after) / 2.0;
        attempted += 1;

        check(fit.stats.scans_over_input == 2, || {
            format!(
                "fit made {} scans over the input, BOAT promises 2",
                fit.stats.scans_over_input
            )
        })?;
        let mut bytes = fit.tree.to_bytes();
        if opts.sabotage && attempted == 2 {
            bytes[0] ^= 1;
        }
        match &reference {
            None => reference = Some(bytes),
            Some(r) => check(*r == bytes, || {
                format!(
                    "fit {attempted} (sampling seed {}) is not byte-identical to the first fit",
                    (attempted - 1) % 2
                )
            })?,
        }
        if traced {
            traced_ms.push(ms);
            traced_fits.push(fit);
        } else {
            untraced_ms.push(ms);
            ref_ms.push(ms * CALIBRATION_REF_MS / cal);
        }
    }
    let peak_heap_mb = peak_heap_mb();

    let fit_ref = quartiles(&ref_ms).median;
    let mut report = Report {
        attempted,
        failed: 0,
        ..Default::default()
    };
    print_quartiles("setup_s", "s", &setup_times);
    print_quartiles("calibration_ms", "ms", &calibration_ms);
    print_quartiles("fit_ms", "ms", &untraced_ms);
    print_quartiles("fit_ms on ref host", "ms", &ref_ms);
    print_value("fit_input_scans", "count", 2.0, "(checked on every fit)");
    println!("# fits: {attempted}, all byte-identical across two sampling seeds");

    if !opts.trace {
        report.put("setup_s", quartiles(&setup_times).median, "s");
        report.put("ok_ratio", 1.0, "ratio");
        report.put("ns_per_row", fit_ref * 1e6 / rows as f64, "ns/row");
        report.put("p50_ms", fit_ref, "ms");
        report.put("tail_ms", quartiles(&ref_ms).q3, "ms");
        return Ok(report);
    }

    // Per-layer metrics: medians over the traced fits.
    let per = |f: &dyn Fn(&BoatFit) -> f64| -> f64 {
        quartiles(&traced_fits.iter().map(f).collect::<Vec<_>>()).median
    };
    let scan_floor = quartiles(&scan_ns_per_row).median;
    let cleanup_s = per(&|f| f.stats.cleanup_time.as_secs_f64());
    report.put("data.dataset.scan_ns_per_row", scan_floor, "ns/row");
    report.put(
        "core.boat.sample_phase_s",
        per(&|f| f.stats.sampling_time.as_secs_f64()),
        "s",
    );
    report.put(
        "core.boat.bootstrap_s",
        per(&|f| hist_s(&f.stats.metrics, "boat.phase.bootstrap")),
        "s",
    );
    report.put(
        "tree.columnar.grow_s",
        per(&|f| hist_s(&f.stats.metrics, "boat.sample.grow")),
        "s",
    );
    report.put("core.work.cleanup_s", cleanup_s, "s");
    report.put(
        "core.work.cleanup_over_scan",
        ratio(cleanup_s * 1e9 / rows as f64, scan_floor),
        "ratio",
    );
    report.put(
        "core.verify.verify_s",
        per(&|f| hist_s(&f.stats.metrics, "boat.phase.verify")),
        "s",
    );
    report.put(
        "core.boat.complete_s",
        per(&|f| {
            hist_s(&f.stats.metrics, "boat.phase.rebuild")
                + hist_s(&f.stats.metrics, "boat.phase.inmem_build")
        }),
        "s",
    );
    report.put(
        "core.verify.pass_ratio",
        per(&|f| {
            let m = &f.stats.metrics;
            let pass = m.counter("boat.verify.pass") as f64;
            ratio(pass, pass + m.counter("boat.verify.fail") as f64)
        }),
        "ratio",
    );
    report.put(
        "core.boat.input_scans",
        per(&|f| f.stats.scans_over_input as f64),
        "count",
    );
    report.put(
        "data.spill.write_bytes_per_input_byte",
        per(&|f| {
            ratio(
                f.stats.spill_io.bytes_written as f64,
                f.stats.io.bytes_read as f64,
            )
        }),
        "ratio",
    );
    report.put(
        "core.work.parked_tuples",
        per(&|f| f.stats.parked_tuples as f64),
        "count",
    );
    report.put(
        "tree.subsample.prune_ratio",
        per(&|f| {
            let m = &f.stats.metrics;
            let pruned = m.counter("boat.sample.subsample.pruned") as f64;
            ratio(
                pruned,
                pruned + m.counter("boat.sample.subsample.swept") as f64,
            )
        }),
        "ratio",
    );
    let off = quartiles(&untraced_ms).median;
    let on = quartiles(&traced_ms).median;
    report.put("bench.process.peak_heap_mb", peak_heap_mb, "MB");
    report.put("bench.trace.overhead_pct", (on / off - 1.0) * 100.0, "%");
    tracer
        .write(&opts.scratch)
        .map_err(|e| CheckFailed(format!("write trace: {e}")))?;
    Ok(report)
}

/// One sequential scan-and-decode pass over the file; returns its ns.
fn raw_scan(dataset: &FileDataset) -> f64 {
    let t = Instant::now();
    let mut n = 0u64;
    for r in dataset.scan().expect("open a scan") {
        black_box(r.expect("decode a record"));
        n += 1;
    }
    assert_eq!(n, dataset.len(), "scan yields every row");
    t.elapsed().as_nanos() as f64
}
