//! Serving-path benchmark: interpreted `Tree::predict` vs the compiled
//! SoA tree's scalar `predict`, plus the sharded [`boat_serve::ServeEngine`]
//! swept across worker counts, with end-to-end latency percentiles and
//! snapshot-swap latency under scoring load.
//!
//! ```sh
//! cargo run --release -p boat-bench --bin serve -- --tuples 16000
//! ```
//!
//! Every variant scores the **same probe set against the same tree**, and
//! the run aborts unless all prediction vectors are identical — the
//! speedups below are only meaningful because the outputs are
//! bit-identical. Gates:
//!
//! * `--min-speedup` (default 2.0): compiled scalar `predict` must beat
//!   per-record interpreted scoring by at least this factor.
//! * `--min-engine-speedup` (default 0.0 = off): the **single-worker**
//!   engine path (zero-copy `submit_shared`, engine reused across reps)
//!   must beat interpreted by this factor — the regression tripwire for
//!   the shard intake's hot-path cost.
//! * `--max-p99-ns` (default 0 = off): ceiling on the single-worker
//!   end-to-end p99 latency read from the `serve.latency_ns` histogram.
//!
//! CI runs a reduced grid with conservative floors; the dev-container
//! reference run in `BENCH_serve.json` carries the honest numbers.

use boat_bench::table::fmt_duration;
use boat_bench::{materialize_cached, Args, BenchReport, Table};
use boat_core::{Boat, BoatConfig};
use boat_data::{IoStats, Record, Schema};
use boat_datagen::{GeneratorConfig, LabelFunction};
use boat_serve::{compile, publish_on_maintain, ModelHandle, ServeConfig, ServeEngine};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Best-of-`reps` wall time of `inner` back-to-back runs of `f`
/// (returning `f`'s last result). The inner loop stretches the measured
/// region well past timer resolution; the reported duration is per inner
/// run.
fn best_of<T>(reps: u64, inner: u64, mut f: impl FnMut() -> T) -> (Duration, T) {
    let mut best = Duration::MAX;
    let mut result = None;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        for _ in 0..inner.max(1) {
            result = Some(f());
        }
        best = best.min(t.elapsed() / inner.max(1) as u32);
    }
    (best, result.expect("reps >= 1"))
}

fn rps(n: usize, d: Duration) -> f64 {
    n as f64 / d.as_secs_f64().max(1e-9)
}

/// One worker count's engine measurements.
struct EngineRun {
    workers: usize,
    time: Duration,
    p50_ns: u64,
    p99_ns: u64,
    p999_ns: u64,
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = Args::parse();
    let n = args.get::<u64>("tuples", 16_000);
    // Training set size; defaults to 4x the probe count so the fitted
    // tree has serving-realistic depth (a model is trained once on bulk
    // data and then scored on traffic — the scored workload is `tuples`).
    let train = args.get::<u64>("train", n * 4);
    // Engine micro-batch: small enough that the latency histogram collects
    // a few samples per sweep, large enough that per-ticket overhead does
    // not dominate the throughput comparison.
    let engine_batch = args.get::<usize>("engine-batch", 4_000).max(1);
    let worker_counts: Vec<usize> = args
        .get_str("worker-counts", "1,2,4")
        .split(',')
        .filter(|s| !s.trim().is_empty())
        .map(|s| {
            s.trim()
                .parse::<usize>()
                .expect("--worker-counts: usize list")
        })
        .map(|w| w.max(1))
        .collect();
    let reps = args.get::<u64>("reps", 3);
    let seed = args.get::<u64>("seed", 424_242);
    let swaps = args.get::<u64>("swaps", 50);
    let noise = args.get::<f64>("noise", 0.08);
    let min_speedup = args.get::<f64>("min-speedup", 2.0);
    let min_engine_speedup = args.get::<f64>("min-engine-speedup", 0.0);
    let max_p99_ns = args.get::<u64>("max-p99-ns", 0);
    let out = args.get_str("out", "BENCH_serve.json");
    assert!(
        !worker_counts.is_empty(),
        "--worker-counts must be non-empty"
    );

    let metrics = boat_obs::Registry::global().clone();

    // --- Build the model the way a serving deployment would: BOAT fit,
    //     then compile + publish through the snapshot handle.
    // Label noise grows a realistically deep tree (the no-noise F1 tree
    // is a handful of nodes, which no serving bench should be scored on).
    let gen = GeneratorConfig::new(LabelFunction::F1)
        .with_seed(seed)
        .with_noise(noise);
    let schema: Arc<Schema> = gen.schema();
    let noise_pct = (noise * 100.0) as u64;
    let data = materialize_cached(
        &gen,
        train,
        &format!("serve-f1-n{noise_pct}-t{train}-{seed}"),
        IoStats::new(),
    )?;
    let config = BoatConfig::scaled_for(train).with_seed(seed ^ 0x5E7);
    let algo = Boat::new(BoatConfig {
        limits: boat_tree::GrowthLimits::default(), // grow to purity
        ..config
    })
    .with_metrics(metrics.clone());
    let t_fit = Instant::now();
    let (mut model, _) = algo.fit_model(&data)?;
    let fit_time = t_fit.elapsed();
    let handle =
        ModelHandle::with_metrics(compile(&boat_tree::Tree::leaf(vec![1, 0])), metrics.clone());
    publish_on_maintain(&mut model, &handle)?;
    let tree = model.tree()?.clone();
    let compiled = handle.snapshot();
    println!(
        "# serve bench: {n} probes, {train} training tuples, tree = {} nodes \
         ({} compiled bytes), fit {}\n",
        tree.n_nodes(),
        compiled.table_size_bytes(),
        fmt_duration(fit_time),
    );

    // Probe set: fresh draw from the same distribution, Arc'd so engine
    // submissions can share it zero-copy.
    let probes: Arc<Vec<Record>> = Arc::new(
        GeneratorConfig::new(LabelFunction::F1)
            .with_seed(seed + 1)
            .generate_vec(n as usize),
    );
    let n_probes = probes.len();

    let inner = args.get::<u64>("inner", 16);
    let engine_inner = args.get::<u64>("engine-inner", 8);

    // --- 1. Interpreted per-record (the pre-PR serving story).
    let (t_interp, interp) = best_of(reps, inner, || {
        probes.iter().map(|r| tree.predict(r)).collect::<Vec<u16>>()
    });

    // --- 2. Compiled per-record.
    let (t_scalar, scalar) = best_of(reps, inner, || {
        probes
            .iter()
            .map(|r| compiled.predict(r))
            .collect::<Vec<u16>>()
    });

    // --- 3. Sharded serving engine, swept across worker counts. The
    //        engine is created once per count (startup is not the thing
    //        being measured) and batches go in via zero-copy
    //        `submit_shared`, the replay-style hot path. Latency
    //        percentiles come from the `serve.latency_ns` histogram
    //        delta across the sweep (all reps — more samples, honest
    //        tails).
    let mut engine_runs: Vec<EngineRun> = Vec::new();
    for &w in &worker_counts {
        let engine = ServeEngine::start(
            handle.clone(),
            schema.clone(),
            ServeConfig {
                workers: w,
                queue_depth: 64,
            },
        );
        let snap_before = metrics.snapshot();
        let (t_engine, engine_preds) = best_of(reps, engine_inner, || {
            let mut tickets = Vec::with_capacity(n_probes / engine_batch + 1);
            let mut start = 0usize;
            while start < n_probes {
                let end = (start + engine_batch).min(n_probes);
                tickets.push(
                    engine
                        .submit_shared(Arc::clone(&probes), start..end)
                        .expect("engine is running"),
                );
                start = end;
            }
            let mut preds = Vec::with_capacity(n_probes);
            for t in tickets {
                preds.extend(t.wait());
            }
            preds
        });
        let delta = metrics.snapshot().since(&snap_before);
        engine.shutdown();
        assert_eq!(
            interp, engine_preds,
            "serve engine ({w} workers) diverges from interpreted"
        );
        let hist = delta
            .histogram("serve.latency_ns")
            .expect("engine records serve.latency_ns");
        engine_runs.push(EngineRun {
            workers: w,
            time: t_engine,
            p50_ns: hist.quantile(0.50).unwrap_or(0),
            p99_ns: hist.quantile(0.99).unwrap_or(0),
            p999_ns: hist.quantile(0.999).unwrap_or(0),
        });
    }

    // --- Differential gate: the offline paths must agree exactly (the
    //     per-worker-count engine sweeps asserted above, inline).
    assert_eq!(interp, scalar, "compiled scalar diverges from interpreted");
    println!(
        "all {n_probes} predictions identical across scalar/engine \
         at every worker count\n"
    );

    // --- 4. Snapshot swaps under load: publish repeatedly while an
    //        engine keeps scoring; measures publish latency (the write
    //        side of the epoch swap) with a reader hammering the handle.
    let epoch_before = handle.epoch();
    let publish_time = {
        let engine = ServeEngine::start(
            handle.clone(),
            schema.clone(),
            ServeConfig {
                workers: 1,
                queue_depth: 64,
            },
        );
        let stop = std::sync::atomic::AtomicBool::new(false);
        let mut total = Duration::ZERO;
        let feed_span = n_probes.saturating_sub(engine_batch).max(1);
        std::thread::scope(|s| {
            let feeder = s.spawn(|| {
                let mut i = 0usize;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let start = (i * engine_batch) % feed_span;
                    let end = (start + engine_batch).min(n_probes);
                    match engine.submit_shared(Arc::clone(&probes), start..end) {
                        Ok(t) => drop(t.wait()),
                        Err(_) => break,
                    }
                    i += 1;
                }
            });
            for _ in 0..swaps {
                let fresh = compile(&tree);
                let t = Instant::now();
                handle.publish(fresh);
                total += t.elapsed();
            }
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
            feeder.join().unwrap();
        });
        engine.shutdown();
        total
    };
    assert_eq!(handle.epoch(), epoch_before + swaps);
    let publish_mean = publish_time / swaps.max(1) as u32;

    // --- Report.
    let speedup_scalar = rps(n_probes, t_scalar) / rps(n_probes, t_interp);
    let mut table = Table::new(&["path", "time", "records/s", "vs interpreted"]);
    for (name, t, s) in [
        ("interpreted per-record".to_string(), t_interp, 1.0),
        ("compiled per-record".to_string(), t_scalar, speedup_scalar),
    ] {
        table.row(vec![
            name,
            fmt_duration(t),
            format!("{:.0}", rps(n_probes, t)),
            format!("{s:.2}x"),
        ]);
    }
    for run in &engine_runs {
        table.row(vec![
            format!("serve engine ({} workers)", run.workers),
            fmt_duration(run.time),
            format!("{:.0}", rps(n_probes, run.time)),
            format!("{:.2}x", rps(n_probes, run.time) / rps(n_probes, t_interp)),
        ]);
    }
    table.print(false);

    println!("\nend-to-end batch latency (engine intake -> ticket fulfilled):");
    let mut lat = Table::new(&["workers", "p50", "p99", "p99.9"]);
    for run in &engine_runs {
        lat.row(vec![
            run.workers.to_string(),
            fmt_duration(Duration::from_nanos(run.p50_ns)),
            fmt_duration(Duration::from_nanos(run.p99_ns)),
            fmt_duration(Duration::from_nanos(run.p999_ns)),
        ]);
    }
    lat.print(false);
    println!(
        "\nsnapshot swaps under load: {swaps} publishes, mean {} each",
        fmt_duration(publish_mean),
    );

    // --- Gates.
    assert!(
        speedup_scalar >= min_speedup,
        "compiled scalar speedup {speedup_scalar:.2}x is below the --min-speedup \
         gate of {min_speedup:.2}x"
    );
    // The first requested worker count anchors the engine gates (the
    // default sweep leads with 1, the honest number on a small host).
    let lead = &engine_runs[0];
    let lead_speedup = rps(n_probes, lead.time) / rps(n_probes, t_interp);
    if min_engine_speedup > 0.0 {
        assert!(
            lead_speedup >= min_engine_speedup,
            "engine speedup at {} workers is {lead_speedup:.2}x, below the \
             --min-engine-speedup gate of {min_engine_speedup:.2}x",
            lead.workers
        );
    }
    if max_p99_ns > 0 {
        assert!(
            lead.p99_ns <= max_p99_ns,
            "engine p99 latency at {} workers is {}ns, above the --max-p99-ns \
             gate of {max_p99_ns}ns",
            lead.workers,
            lead.p99_ns
        );
    }

    let snapshot = metrics.snapshot();
    let mut report = BenchReport::new("serve");
    report
        .field_u64("tuples", n)
        .field_u64("train_tuples", train)
        .field_u64("engine_batch", engine_batch as u64)
        .field_str(
            "worker_counts",
            &worker_counts
                .iter()
                .map(|w| w.to_string())
                .collect::<Vec<_>>()
                .join(","),
        )
        .field_u64("reps", reps)
        .field_u64("seed", seed)
        .field_u64("tree_nodes", tree.n_nodes() as u64)
        .field_u64("compiled_bytes", compiled.table_size_bytes() as u64)
        .field_f64("interpreted_rps", rps(n_probes, t_interp))
        .field_f64("compiled_scalar_rps", rps(n_probes, t_scalar))
        // Back-compat headline fields: the lead worker count's numbers.
        .field_f64("engine_rps", rps(n_probes, lead.time))
        .field_f64("speedup_scalar", speedup_scalar)
        .field_f64("speedup_engine", lead_speedup)
        .field_u64("latency_p50_ns", lead.p50_ns)
        .field_u64("latency_p99_ns", lead.p99_ns)
        .field_u64("latency_p999_ns", lead.p999_ns);
    for run in &engine_runs {
        let w = run.workers;
        report
            .field_f64(&format!("engine_rps_w{w}"), rps(n_probes, run.time))
            .field_u64(&format!("latency_p50_ns_w{w}"), run.p50_ns)
            .field_u64(&format!("latency_p99_ns_w{w}"), run.p99_ns)
            .field_u64(&format!("latency_p999_ns_w{w}"), run.p999_ns);
    }
    report
        .field_u64("swaps", swaps)
        .field_f64("publish_mean_seconds", publish_mean.as_secs_f64())
        .field_bool("predictions_identical", true)
        .metrics(&snapshot);
    report.write(&out)?;
    Ok(())
}
