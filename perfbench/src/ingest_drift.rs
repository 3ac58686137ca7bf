//! `ingest_drift`: a base model on F1 rows is handed to the streaming
//! daemon; one producer appends F1Drift insert chunks through the durable
//! WAL, and every fourth operation deletes a chunk of the oldest base
//! rows instead. Exercises boat-data::wal, boat-core::stream and
//! boat-core::incremental; the fit scan path and serving are idle.

use crate::common::*;
use boat_core::stream::{StalenessBound, StreamConfig};
use boat_core::{
    reference_tree, Boat, BoatConfig, BoatModel, DriftTrigger, MaintainReport, MaintainTrigger,
    RecordCountTrigger, Staleness,
};
use boat_data::wal::WalConfig;
use boat_data::{MemoryDataset, Record, Schema};
use boat_datagen::{GeneratorConfig, LabelFunction};
use boat_obs::{Registry, Snapshot};
use boat_serve::{compile, publish_on_maintain, spawn_streaming, ModelHandle};
use boat_tree::{Gini, GrowthLimits, Tree};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

const BASE_ROWS: usize = 20_000;
const CHUNK: usize = 200;
/// Maintain once this many records are unmaintained; the staleness bound
/// allows twice that. Drift halves the threshold (`DriftTrigger`).
const MAINTAIN_RECORDS: u64 = 2 * CHUNK as u64;
/// Operations per second of `--seconds`: at 25 s, 105 operations and as
/// many maintains, so the p90 has ten samples beyond it. A run takes
/// 25–35 s on a shared 2-vCPU machine.
const OPS_PER_SECOND: f64 = 4.2;
const SETUP_REPS: usize = 5;
/// Seed of the base rows and of the base fit's sample. The base model is
/// a fixed fixture and `--seed` varies the operation stream: on about a
/// third of base seeds the base fit fails verification and builds a
/// different structure whose deletes cost twice as much, which would
/// turn every figure of this workload into a coin flip on the seed.
const BASE_SEED: u64 = 1;
/// Parked records a node buffers in memory before spilling. Small enough
/// that every base model spills, so deletes rewrite spill files on every
/// seed rather than on some.
const SPILL_BUDGET: usize = 1_024;
const CLEANUP_THREADS: usize = 1;

enum Op {
    Insert(Vec<Record>),
    Delete(Vec<Record>),
}

impl Op {
    fn len(&self) -> usize {
        match self {
            Op::Insert(r) | Op::Delete(r) => r.len(),
        }
    }
}

/// The inputs of one run, all derived from the seed.
struct Inputs {
    schema: Arc<Schema>,
    base: Vec<Record>,
    ops: Vec<Op>,
}

fn inputs(opts: &Opts) -> Inputs {
    let (base_rows, n_ops) = if opts.tiny {
        (4_000, 12)
    } else {
        (
            BASE_ROWS,
            // A traced run streams the operations twice and replays them
            // once, so it takes half as many to stay near the same time.
            (opts.seconds * OPS_PER_SECOND / if opts.trace { 2.0 } else { 1.0 })
                .round()
                .max(8.0) as usize,
        )
    };
    let gen = GeneratorConfig::new(LabelFunction::F1).with_seed(BASE_SEED);
    let base = gen.generate_vec(base_rows);
    let n_deletes = n_ops / 4;
    assert!(
        n_deletes * CHUNK <= base_rows,
        "deletes stay within the base rows"
    );
    let drift = GeneratorConfig::new(LabelFunction::F1Drift)
        .with_seed(opts.seed ^ 0xD21F7)
        .generate_vec((n_ops - n_deletes) * CHUNK);
    let mut inserts = drift.chunks(CHUNK);
    let mut deletes = base.chunks(CHUNK);
    let ops = (0..n_ops)
        .map(|i| {
            if i % 4 == 3 {
                Op::Delete(deletes.next().expect("enough base rows").to_vec())
            } else {
                Op::Insert(inserts.next().expect("enough drift rows").to_vec())
            }
        })
        .collect();
    Inputs {
        schema: gen.schema(),
        base,
        ops,
    }
}

fn base_model(inputs: &Inputs, opts: &Opts, metrics: &Registry) -> BoatModel {
    let config = BoatConfig {
        spill_budget: SPILL_BUDGET,
        ..BoatConfig::scaled_for(inputs.base.len() as u64)
    }
    .with_seed(BASE_SEED ^ 0xB0A7)
    .with_cleanup_threads(CLEANUP_THREADS)
    .with_spill_dir(&opts.scratch);
    let algo = Boat::new(config).with_metrics(metrics.clone());
    let data = MemoryDataset::new(inputs.schema.clone(), inputs.base.clone());
    algo.fit_model(&data).expect("fit the base model").0
}

/// Records every maintain the daemon runs; never asks for one.
struct Recorder(Arc<Mutex<Vec<MaintainReport>>>);

impl MaintainTrigger for Recorder {
    fn name(&self) -> &'static str {
        "bench_recorder"
    }
    fn due(&self, _: &Staleness) -> bool {
        false
    }
    fn observe(&mut self, report: &MaintainReport) {
        self.0.lock().expect("recorder lock").push(report.clone());
    }
}

/// The scheduling triggers the daemon runs with (the recorder aside).
fn triggers() -> Vec<Box<dyn MaintainTrigger>> {
    vec![
        Box::new(RecordCountTrigger {
            threshold: MAINTAIN_RECORDS,
        }),
        Box::new(DriftTrigger::new(MAINTAIN_RECORDS)),
    ]
}

fn stream_config(wal_dir: &Path, recorder: Arc<Mutex<Vec<MaintainReport>>>) -> StreamConfig {
    let mut triggers = triggers();
    triggers.push(Box::new(Recorder(recorder)));
    StreamConfig {
        staleness: StalenessBound {
            max_records: 2 * MAINTAIN_RECORDS,
            max_age: None,
        },
        wal: WalConfig {
            dir: Some(wal_dir.to_path_buf()),
            ..WalConfig::default()
        },
        triggers: Some(triggers),
        ..StreamConfig::default()
    }
}

/// What one streamed pass over the operations produced.
struct StreamRun {
    wall_s: f64,
    records: u64,
    failed: u64,
    tree_bytes: Vec<u8>,
    maintains: Vec<MaintainReport>,
    metrics: Snapshot,
}

fn stream(
    inputs: &Inputs,
    opts: &Opts,
    tag: &str,
    tracer: &mut Tracer,
) -> Result<(StreamRun, f64), CheckFailed> {
    let metrics = Registry::new();
    let wal_dir = opts.scratch.join(format!("wal-{tag}"));
    std::fs::create_dir_all(&wal_dir).expect("create the WAL directory");
    let recorder = Arc::new(Mutex::new(Vec::new()));
    let t_setup = Instant::now();
    let model = base_model(inputs, opts, &metrics);
    let daemon = spawn_streaming(model, stream_config(&wal_dir, recorder.clone()))
        .map_err(|e| CheckFailed(format!("spawn the stream daemon: {e}")))?;
    let setup_s = t_setup.elapsed().as_secs_f64();
    let before = metrics.snapshot();

    let writer = daemon.writer();
    let mut failed = 0u64;
    let mut records = 0u64;
    let t = Instant::now();
    for op in &inputs.ops {
        records += op.len() as u64;
        let appended = match op {
            Op::Insert(r) => tracer.span("data.wal.append", |_| writer.insert(r.clone())),
            Op::Delete(r) => tracer.span("data.wal.append", |_| writer.delete(r.clone())),
        };
        if appended.is_err() {
            failed += 1;
        }
    }
    let quiesce = tracer
        .span("core.stream.quiesce", |_| daemon.quiesce())
        .map_err(|e| CheckFailed(format!("quiesce: {e}")))?;
    let wall_s = t.elapsed().as_secs_f64();
    let (_, stats) = daemon
        .finish()
        .map_err(|e| CheckFailed(format!("finish the stream: {e}")))?;
    let snap = metrics.snapshot().since(&before);

    failed += snap.counter("boat.stream.ingest_errors");
    check(stats.bound_violations == 0, || {
        format!("{} staleness-bound violations", stats.bound_violations)
    })?;
    check(quiesce.stats.first_error.is_none(), || {
        format!("daemon error: {:?}", quiesce.stats.first_error)
    })?;
    check(
        quiesce.stats.ops_absorbed == inputs.ops.len() as u64,
        || {
            format!(
                "daemon absorbed {} of {} operations",
                quiesce.stats.ops_absorbed,
                inputs.ops.len()
            )
        },
    )?;
    let maintains = recorder.lock().expect("recorder lock").clone();
    Ok((
        StreamRun {
            wall_s,
            records,
            failed,
            tree_bytes: quiesce.tree_bytes,
            maintains,
            metrics: snap,
        },
        setup_s,
    ))
}

/// The tree a from-scratch build gives on the final net rows.
fn reference(inputs: &Inputs) -> Vec<u8> {
    let deleted = inputs
        .ops
        .iter()
        .filter(|o| matches!(o, Op::Delete(_)))
        .count();
    let mut net: Vec<Record> = inputs.base[deleted * CHUNK..].to_vec();
    for op in &inputs.ops {
        if let Op::Insert(r) = op {
            net.extend_from_slice(r);
        }
    }
    let data = MemoryDataset::new(inputs.schema.clone(), net);
    reference_tree(&data, Gini, GrowthLimits::default())
        .expect("reference build")
        .to_bytes()
}

/// Per-call costs of the synchronous replay.
#[derive(Default)]
struct Replay {
    insert_ns: f64,
    inserted: u64,
    delete_ns: f64,
    deleted: u64,
    maintain_ms: Vec<f64>,
    failed_nodes: Vec<f64>,
    metrics: Snapshot,
    tree_bytes: Vec<u8>,
}

/// Apply the identical operation sequence through `BoatModel`'s blocking
/// calls, maintaining on the daemon's schedule (the same triggers, the
/// same pre-absorb staleness bound, a final maintain at the quiesce cut).
fn replay(inputs: &Inputs, opts: &Opts, tracer: &mut Tracer) -> Replay {
    let metrics = Registry::new();
    let mut model = base_model(inputs, opts, &metrics);
    let handle = ModelHandle::with_metrics(compile(&Tree::leaf(vec![1, 0])), metrics.clone());
    publish_on_maintain(&mut model, &handle).expect("publish the base model");
    let before = metrics.snapshot();
    let mut triggers = triggers();
    let mut staleness = Staleness::default();
    let mut out = Replay::default();
    let maintain = |model: &mut BoatModel,
                    triggers: &mut Vec<Box<dyn MaintainTrigger>>,
                    tracer: &mut Tracer,
                    out: &mut Replay| {
        let t = Instant::now();
        let report = tracer
            .span("core.incremental.maintain", |_| model.maintain())
            .expect("replay maintain");
        out.maintain_ms.push(t.elapsed().as_secs_f64() * 1e3);
        out.failed_nodes.push(report.failed_nodes as f64);
        for trig in triggers.iter_mut() {
            trig.observe(&report);
        }
    };
    for op in &inputs.ops {
        let n = op.len() as u64;
        if staleness.ops > 0 && staleness.records + n > 2 * MAINTAIN_RECORDS {
            maintain(&mut model, &mut triggers, tracer, &mut out);
            staleness = Staleness::default();
        }
        let (records, delete) = match op {
            Op::Insert(r) => (r, false),
            Op::Delete(r) => (r, true),
        };
        let chunk = MemoryDataset::new(inputs.schema.clone(), records.clone());
        let t = Instant::now();
        if delete {
            let r = tracer
                .span("core.incremental.delete", |_| model.delete(&chunk))
                .expect("replay delete");
            out.delete_ns += t.elapsed().as_nanos() as f64;
            out.deleted += r.deleted;
        } else {
            let r = tracer
                .span("core.incremental.insert", |_| model.insert(&chunk))
                .expect("replay insert");
            out.insert_ns += t.elapsed().as_nanos() as f64;
            out.inserted += r.inserted;
        }
        staleness.records += n;
        staleness.ops += 1;
        if triggers.iter().any(|t| t.due(&staleness)) {
            maintain(&mut model, &mut triggers, tracer, &mut out);
            staleness = Staleness::default();
        }
    }
    if staleness.ops > 0 {
        maintain(&mut model, &mut triggers, tracer, &mut out);
    }
    out.metrics = metrics.snapshot().since(&before);
    out.tree_bytes = model.tree().expect("replay tree").to_bytes();
    out
}

pub fn run(opts: &Opts) -> Outcome {
    let inputs = inputs(opts);
    let records: usize = inputs.ops.iter().map(Op::len).sum();
    println!(
        "# ingest_drift: base {} F1 rows, {} ops of {CHUNK} rows ({records} records, every 4th a delete), \
         maintain at {MAINTAIN_RECORDS} records (drift halves it), bound {} records, no age bound",
        inputs.base.len(),
        inputs.ops.len(),
        2 * MAINTAIN_RECORDS
    );
    let mut tracer = Tracer::new(false);

    // Set-up (base fit + daemon spawn) is timed inside `stream`; extra
    // set-ups are made and discarded so set-up time is a median.
    let mut setup_times = Vec::new();
    for rep in 1..SETUP_REPS {
        let metrics = Registry::new();
        let t = Instant::now();
        let model = base_model(&inputs, opts, &metrics);
        let wal_dir = opts.scratch.join(format!("wal-setup{rep}"));
        std::fs::create_dir_all(&wal_dir).expect("create the WAL directory");
        let daemon = spawn_streaming(model, stream_config(&wal_dir, Default::default()))
            .map_err(|e| CheckFailed(format!("spawn the stream daemon: {e}")))?;
        setup_times.push(t.elapsed().as_secs_f64());
        daemon
            .finish()
            .map_err(|e| CheckFailed(format!("finish the stream: {e}")))?;
    }

    let (run, setup_s) = stream(&inputs, opts, "main", &mut tracer)?;
    // Before the reference build below, whose memory is the check's.
    let peak_heap_mb = peak_heap_mb();
    setup_times.push(setup_s);
    let reference = reference(&inputs);
    let mut daemon_bytes = run.tree_bytes.clone();
    if opts.sabotage {
        daemon_bytes[0] ^= 1;
    }
    check(daemon_bytes == reference, || {
        "quiesced daemon tree differs from a from-scratch build on the net rows".to_string()
    })?;
    let maintain_ms: Vec<f64> = run
        .maintains
        .iter()
        .map(|r| r.time.as_secs_f64() * 1e3)
        .collect();
    let sorted_ms = sorted(&maintain_ms);
    let ns_per_row = run.wall_s * 1e9 / run.records as f64;
    let attempted = inputs.ops.len() as u64;
    print_quartiles("setup_s", "s", &setup_times);
    print_quartiles("maintain_ms", "ms", &maintain_ms);
    print_value(
        "maintain_p90_ms",
        "ms",
        percentile(&sorted_ms, 0.9),
        &format!("(n={}, {} beyond)", sorted_ms.len(), sorted_ms.len() / 10),
    );
    print_value(
        "ingest_rps",
        "records/s",
        run.records as f64 / run.wall_s,
        "",
    );
    println!(
        "# {} maintains took {:.2} s of the {:.2} s stream",
        maintain_ms.len(),
        maintain_ms.iter().sum::<f64>() / 1e3,
        run.wall_s
    );
    println!("# quiesced tree equals a from-scratch build on the net rows; 0 bound violations");

    let mut report = Report {
        attempted,
        failed: run.failed,
        ..Default::default()
    };
    if !opts.trace {
        report.put("setup_s", quartiles(&setup_times).median, "s");
        report.put(
            "ok_ratio",
            1.0 - run.failed as f64 / attempted as f64,
            "ratio",
        );
        report.put("ns_per_row", ns_per_row, "ns/row");
        report.put("p50_ms", quartiles(&maintain_ms).median, "ms");
        report.put("tail_ms", percentile(&sorted_ms, 0.9), "ms");
        return Ok(report);
    }

    // Traced run: the same operations streamed again with spans around
    // every append, then replayed synchronously for per-call costs.
    tracer.set_on(true);
    let (traced, _) = stream(&inputs, opts, "traced", &mut tracer)?;
    check(traced.tree_bytes == reference, || {
        "traced daemon tree differs from a from-scratch build".to_string()
    })?;
    let replay = tracer.span("bench.replay", |t| replay(&inputs, opts, t));
    check(replay.tree_bytes == run.tree_bytes, || {
        "synchronous replay differs from the quiesced daemon tree".to_string()
    })?;
    println!(
        "# replay: {} maintains, tree equals the daemon's",
        replay.maintain_ms.len()
    );

    let m = &traced.metrics;
    let append_us = sorted(&tracer.durations("data.wal.append"));
    report.put(
        "data.wal.append_us_p50",
        percentile(&append_us, 0.5) / 1e3,
        "us",
    );
    report.put(
        "data.wal.fsync_batches",
        m.counter("data.wal.fsync_batches") as f64,
        "count",
    );
    report.put(
        "data.spill.read_bytes_per_wal_byte",
        m.counter("data.spill.bytes_read") as f64
            / m.counter("data.wal.bytes_written").max(1) as f64,
        "ratio",
    );
    report.put(
        "serve.compile.publish_us_mean",
        m.histogram("serve.compile")
            .and_then(|h| h.mean())
            .unwrap_or(0.0)
            / 1e3,
        "us",
    );
    let r = &replay;
    let maintains = r.maintain_ms.len().max(1) as f64;
    let hist_ms = |name: &str| {
        r.metrics
            .histogram(name)
            .map_or(0.0, |h| h.sum as f64 / 1e6)
    };
    report.put(
        "core.incremental.insert_us_per_record",
        r.insert_ns / 1e3 / r.inserted.max(1) as f64,
        "us/record",
    );
    report.put(
        "core.incremental.delete_us_per_record",
        r.delete_ns / 1e3 / r.deleted.max(1) as f64,
        "us/record",
    );
    report.put(
        "core.incremental.maintain_ms_mean",
        mean(&r.maintain_ms),
        "ms",
    );
    report.put(
        "core.verify.verify_ms_per_maintain",
        hist_ms("boat.phase.verify") / maintains,
        "ms",
    );
    report.put(
        "core.boat.regrow_ms_per_maintain",
        hist_ms("boat.phase.rebuild") / maintains,
        "ms",
    );
    report.put(
        "core.verify.fail_per_maintain",
        mean(&r.failed_nodes),
        "count",
    );
    let reused = r.metrics.counter("boat.jobs.reused") as f64;
    let executed = r.metrics.counter("boat.jobs.executed") as f64;
    report.put(
        "core.jobs.reuse_ratio",
        if reused + executed > 0.0 {
            reused / (reused + executed)
        } else {
            0.0
        },
        "ratio",
    );
    let traced_ns = traced.wall_s * 1e9 / traced.records as f64;
    report.put("bench.process.peak_heap_mb", peak_heap_mb, "MB");
    report.put(
        "bench.trace.overhead_pct",
        (traced_ns / ns_per_row - 1.0) * 100.0,
        "%",
    );
    tracer
        .write(&opts.scratch)
        .map_err(|e| CheckFailed(format!("write trace: {e}")))?;
    Ok(report)
}
