//! `serve_swap`: one client keeps a fixed number of 64-row requests
//! outstanding on a one-worker `ServeEngine` (a closed loop) and every
//! `SWAP_EVERY` requests publishes the other of two precompiled models
//! through the snapshot handle. Exercises boat-serve; fit and maintain
//! are idle.

use crate::common::*;
use boat_core::{Boat, BoatConfig};
use boat_data::{MemoryDataset, Record, Schema};
use boat_datagen::{GeneratorConfig, LabelFunction};
use boat_obs::Registry;
use boat_serve::{compile, CompiledTree, ModelHandle, ServeConfig, ServeEngine, Ticket};
use boat_tree::GrowthLimits;
use std::collections::{HashMap, VecDeque};
use std::hint::black_box;
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

const TRAIN_ROWS: u64 = 64_000;
const NOISE: f64 = 0.08;
const PROBE_ROWS: usize = 16_384;
const REQUEST_ROWS: usize = 64;
/// Requests the client keeps in flight.
const OUTSTANDING: usize = 4;
/// Publish the other model after this many requests.
const SWAP_EVERY: u64 = 256;
/// Requests per block; a traced run alternates untraced and traced blocks.
const BLOCK: u64 = 4_096;
const SETUP_REPS: usize = 3;
const WORKERS: usize = 1;

/// Fit a noisy-F1 tree grown to purity and compile it.
fn model(seed: u64, rows: u64) -> (CompiledTree, usize) {
    let gen = GeneratorConfig::new(LabelFunction::F1)
        .with_seed(seed)
        .with_noise(NOISE);
    let data = MemoryDataset::new(gen.schema(), gen.generate_vec(rows as usize));
    let config = BoatConfig {
        limits: GrowthLimits::default(),
        ..BoatConfig::scaled_for(rows).with_seed(seed ^ 0x5E7)
    }
    .with_cleanup_threads(1);
    let fit = Boat::new(config)
        .with_metrics(Registry::new())
        .fit(&data)
        .expect("fit a serving model");
    (compile(&fit.tree), fit.tree.n_nodes())
}

struct InFlight {
    ticket: Ticket,
    range: Range<usize>,
    sent: Instant,
}

/// Rows scored and CPU time spent, over the untraced or the traced blocks.
#[derive(Default)]
struct Work {
    rows: u64,
    cpu: Duration,
}

/// Request latencies in 100 ns buckets up to 10 ms (slower requests land
/// in the last bucket), so the benchmark's memory, and with it the peak
/// heap it reports, does not grow with the number of requests.
struct Latencies {
    buckets: Vec<u32>,
    n: u64,
}

impl Latencies {
    const BUCKET_NS: u64 = 100;

    fn new() -> Self {
        Latencies {
            buckets: vec![0; 100_000],
            n: 0,
        }
    }

    fn clear(&mut self) {
        self.buckets.fill(0);
        self.n = 0;
    }

    fn record(&mut self, ns: u64) {
        let i = ((ns / Self::BUCKET_NS) as usize).min(self.buckets.len() - 1);
        self.buckets[i] += 1;
        self.n += 1;
    }

    /// The `q`-quantile in µs, interpolated within its bucket.
    fn quantile_us(&self, q: f64) -> f64 {
        let rank = q.clamp(0.0, 1.0) * self.n.saturating_sub(1) as f64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c > 0 && (seen + c as u64) as f64 > rank {
                let within = (rank - seen as f64 + 0.5) / c as f64;
                return (i as f64 + within) * Self::BUCKET_NS as f64 / 1e3;
            }
            seen += c as u64;
        }
        0.0
    }
}

pub fn run(opts: &Opts) -> Outcome {
    let train = if opts.tiny { 8_000 } else { TRAIN_ROWS };
    let probe_rows = if opts.tiny { 2_048 } else { PROBE_ROWS };
    let schema: Arc<Schema> = GeneratorConfig::new(LabelFunction::F1).schema();

    // Set-up: fit and compile both models.
    let (setup_times, (models, nodes)) = repeat_setup(SETUP_REPS, || {
        let (a, na) = model(opts.seed, train);
        let (b, nb) = model(opts.seed.wrapping_add(1), train);
        ([a, b], [na, nb])
    });
    let probes: Arc<Vec<Record>> = Arc::new(
        GeneratorConfig::new(LabelFunction::F1)
            .with_seed(opts.seed ^ 0x9E0B)
            .generate_vec(probe_rows),
    );
    // The answers each model must give, for the per-response check.
    let expected: Vec<Vec<u16>> = models
        .iter()
        .map(|m| probes.iter().map(|r| m.predict(r)).collect())
        .collect();
    check(expected[0] != expected[1], || {
        "the two models agree on every probe row; swaps would be unobservable".into()
    })?;
    println!(
        "# serve_swap: trees of {} and {} nodes, {WORKERS} worker, {OUTSTANDING} requests of \
         {REQUEST_ROWS} rows in flight, swap every {SWAP_EVERY} requests",
        nodes[0], nodes[1]
    );

    let metrics = Registry::new();
    let handle = ModelHandle::with_metrics(models[0].clone(), metrics.clone());
    let mut model_of_epoch: HashMap<u64, usize> = HashMap::from([(handle.epoch(), 0)]);
    let engine = ServeEngine::start(
        handle.clone(),
        schema,
        ServeConfig {
            workers: WORKERS,
            queue_depth: 64,
        },
    );
    let before = metrics.snapshot();
    let mut tracer = Tracer::new(false);
    let mut untraced = Work::default();
    let mut traced = Work::default();
    let mut latencies = Latencies::new();
    let mut block_latencies = Latencies::new();
    let mut block_p90_us = Vec::new();
    let mut predict_ns_per_row = Vec::new();
    let mut next_row = 0usize;
    let mut submitted = 0u64;
    let mut completed = 0u64;
    let mut failed = 0u64;
    let mut current = 0usize;
    let mut sabotage = opts.sabotage;

    let start = Instant::now();
    let mut block_no = 0u64;
    while block_no < 2 || start.elapsed() < opts.budget() {
        let on = opts.trace && block_no % 2 == 1;
        tracer.set_on(on);
        if on {
            let m = &models[current];
            let t = Instant::now();
            for r in probes.iter() {
                black_box(m.predict(r));
            }
            predict_ns_per_row.push(t.elapsed().as_nanos() as f64 / probes.len() as f64);
        }
        // A block sends BLOCK requests and waits for every one, so its
        // rows and its CPU time cover the same work.
        let cpu0 = cpu_time();
        let mut rows = 0u64;
        block_latencies.clear();
        let mut sent_in_block = 0u64;
        let mut in_flight: VecDeque<InFlight> = VecDeque::new();
        loop {
            while in_flight.len() < OUTSTANDING && sent_in_block < BLOCK {
                let range = next_row..next_row + REQUEST_ROWS;
                next_row = (next_row + REQUEST_ROWS) % (probe_rows - REQUEST_ROWS);
                let sent = Instant::now();
                let ticket = tracer.span("serve.engine.submit", |_| {
                    engine.submit_shared(Arc::clone(&probes), range.clone())
                });
                submitted += 1;
                sent_in_block += 1;
                match ticket {
                    Ok(ticket) => in_flight.push_back(InFlight {
                        ticket,
                        range,
                        sent,
                    }),
                    Err(_) => failed += 1,
                }
                if submitted.is_multiple_of(SWAP_EVERY) {
                    current = 1 - current;
                    let fresh = models[current].clone();
                    let epoch = tracer.span("serve.handle.publish", |_| handle.publish(fresh));
                    model_of_epoch.insert(epoch, current);
                }
            }
            let Some(req) = in_flight.pop_front() else {
                break;
            };
            let (mut labels, epoch) =
                tracer.span("serve.engine.wait", |_| req.ticket.wait_with_epoch());
            if !on {
                let ns = req.sent.elapsed().as_nanos() as u64;
                latencies.record(ns);
                block_latencies.record(ns);
            }
            rows += labels.len() as u64;
            completed += 1;
            if sabotage {
                labels[0] ^= 1;
                sabotage = false;
            }
            let m = model_of_epoch.get(&epoch).copied();
            check(
                m.is_some_and(|m| labels[..] == expected[m][req.range.clone()]),
                || format!("response at epoch {epoch} differs from that epoch's model"),
            )?;
        }
        let into = if on { &mut traced } else { &mut untraced };
        into.rows += rows;
        into.cpu += cpu_time() - cpu0;
        if !on {
            block_p90_us.push(block_latencies.quantile_us(0.9));
        }
        block_no += 1;
    }
    engine.shutdown();
    let snap = metrics.snapshot().since(&before);
    failed += snap.counter("serve.rejected");
    let swaps = handle.epoch() - 1;

    let rows_per_cpu_s = untraced.rows as f64 / untraced.cpu.as_secs_f64();
    print_quartiles("setup_s", "s", &setup_times);
    println!(
        "# {:<24} median {:>12.4} {:<9} q1 {:>12.4}  q3 {:>12.4}  n={}",
        "request_us",
        latencies.quantile_us(0.5),
        "us",
        latencies.quantile_us(0.25),
        latencies.quantile_us(0.75),
        latencies.n
    );
    for (name, q) in [
        ("serve_p90_us", 0.9),
        ("serve_p99_us", 0.99),
        ("serve_p999_us", 0.999),
    ] {
        let beyond = ((1.0 - q) * latencies.n as f64) as u64;
        let note = format!("(n={}, {beyond} beyond)", latencies.n);
        print_value(name, "us", latencies.quantile_us(q), &note);
    }
    print_quartiles("block_p90_us", "us", &block_p90_us);
    print_value("serve_rows_per_cpu_s", "rows/s", rows_per_cpu_s, "");
    println!("# {completed} responses checked against the model of their epoch, {swaps} swaps");

    let mut report = Report {
        attempted: submitted,
        failed,
        ..Default::default()
    };
    if !opts.trace {
        report.put("setup_s", quartiles(&setup_times).median, "s");
        report.put("ok_ratio", 1.0 - failed as f64 / submitted as f64, "ratio");
        report.put("ns_per_row", 1e9 / rows_per_cpu_s, "ns/row");
        report.put("p50_ms", latencies.quantile_us(0.5) / 1e3, "ms");
        // The tail is the median over blocks of each block's p90: the p99
        // is set by the host's wake-up stalls (0.21 to 1.15 ms over ten
        // runs), and so is the whole run's p90 when a stall spell covers
        // part of it (0.13 to 0.22 ms).
        report.put("tail_ms", quartiles(&block_p90_us).median / 1e3, "ms");
        return Ok(report);
    }

    let hist = |name: &str| snap.histogram(name).and_then(|h| h.mean()).unwrap_or(0.0);
    let submit_us = sorted(&tracer.durations("serve.engine.submit"));
    report.put(
        "serve.compile.predict_ns_per_row",
        quartiles(&predict_ns_per_row).median,
        "ns/row",
    );
    report.put(
        "serve.engine.submit_us_p50",
        percentile(&submit_us, 0.5) / 1e3,
        "us",
    );
    report.put(
        "serve.engine.score_us_mean",
        hist("serve.score_ns") / 1e3,
        "us",
    );
    report.put(
        "serve.engine.queue_wait_us_mean",
        (hist("serve.latency_ns") - hist("serve.score_ns")) / 1e3,
        "us",
    );
    report.put(
        "serve.handle.publish_us_mean",
        mean(&tracer.durations("serve.handle.publish")) / 1e3,
        "us",
    );
    let traced_rate = traced.rows as f64 / traced.cpu.as_secs_f64();
    report.put("bench.process.peak_heap_mb", peak_heap_mb(), "MB");
    report.put(
        "bench.trace.overhead_pct",
        (rows_per_cpu_s / traced_rate - 1.0) * 100.0,
        "%",
    );
    tracer
        .write(&opts.scratch)
        .map_err(|e| CheckFailed(format!("write trace: {e}")))?;
    Ok(report)
}
