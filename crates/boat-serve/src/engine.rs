//! The serving harness: shard-per-core scorer workers with lock-free
//! intake rings and a multi-model registry.
//!
//! Shape: N scorer workers each own one [`ShardQueue`] — a bounded
//! lock-free ring plus a parking doorbell (see [`crate::shard`]).
//! Producers [`ServeEngine::submit`] micro-batches; the submit path
//! round-robins each batch to a shard with **no shared `Mutex` +
//! `Condvar` queue on the hot path** (a push is one CAS + one release
//! store). Each worker scores its batches against a per-thread
//! [`SnapshotReader`], so picking up the current tree is **one atomic
//! load** in steady state — a concurrently published tree takes effect
//! at the next batch boundary, and one batch is always scored against
//! one consistent snapshot (never torn across an epoch swap).
//!
//! Many models can live behind one engine: a [`ModelRegistry`] maps keys
//! to `(ModelHandle, Schema)` entries, [`ServeEngine::submit_to`] scores
//! against a named model, and submits that disagree with the target
//! schema are rejected up front with [`DataError::Schema`]. The default
//! model (the one the engine was started with) is pinned outside the
//! registry, so its submit path never takes the registry's read lock.
//!
//! Flow control:
//!
//! * **Backpressure** — each shard's ring is bounded (`queue_depth`
//!   split across shards); `submit` parks on the shard's doorbell when
//!   its scorer falls behind, so an overloaded engine slows producers
//!   down instead of growing without bound.
//! * **Graceful drain** — [`ServeEngine::drain`] blocks until every
//!   accepted ticket has been fulfilled (event-driven: workers ring a
//!   drain doorbell, no polling); [`ServeEngine::shutdown`] closes the
//!   intake, lets workers drain their rings, joins them, and finally
//!   sweeps any straggler ring items inline — **no accepted ticket is
//!   ever dropped**. Submissions after shutdown fail fast.
//!
//! Every stage records into `serve.*` metrics: accepted/rejected
//! batches, record counts, batch-size and end-to-end latency histograms
//! (fine-grained [`boat_obs::latency_bounds_ns`] buckets, so
//! p50/p99/p999 reads are meaningful), per-batch scoring time, and the
//! per-shard intake depths (`serve.queue_depth` = sum over shards,
//! `serve.shard.depth_max` = deepest shard).

use crate::handle::{ModelHandle, SnapshotReader};
use crate::provenance::record_values;
use crate::registry::{ModelEntry, ModelRegistry};
use crate::shard::ShardQueue;
use boat_data::{DataError, Record, Result, Schema};
use boat_obs::{latency_bounds_ns, Counter, Gauge, Histogram, Registry};
use boat_proof::{Hash256, PredictionProof};
use std::ops::Range;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs for a [`ServeEngine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Scorer worker threads (= intake shards). `0` resolves to the
    /// machine's available parallelism.
    pub workers: usize,
    /// Total queued (accepted, unscored) batches across all shards
    /// before `submit` blocks. Split evenly across shards and rounded up
    /// to a power of two per shard, so the effective bound can be
    /// somewhat higher — see [`ServeEngine::queue_capacity`].
    pub queue_depth: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 0,
            queue_depth: 64,
        }
    }
}

impl ServeConfig {
    /// The worker count actually spawned (`0` → available parallelism).
    pub fn effective_workers(&self) -> usize {
        match self.workers {
            0 => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            w => w,
        }
    }
}

/// A batch's record storage: owned rows, or a shared slice of a larger
/// `Arc`'d buffer (zero-copy submission for replay/bench workloads).
enum Payload {
    Owned(Vec<Record>),
    Shared(Arc<Vec<Record>>, Range<usize>),
}

impl Payload {
    fn records(&self) -> &[Record] {
        match self {
            Payload::Owned(v) => v,
            Payload::Shared(buf, range) => &buf[range.clone()],
        }
    }
}

/// One queued scoring request, pinned to the model entry it was
/// validated against at submit time (an eviction cannot strand it).
struct Job {
    payload: Payload,
    entry: Arc<ModelEntry>,
    ticket: Arc<TicketState>,
    enqueued: Instant,
    /// Generate per-record Merkle path proofs against the scoring
    /// snapshot's commit ([`ServeEngine::submit_with_proofs`]).
    want_proofs: bool,
}

struct TicketState {
    slot: Mutex<TicketSlot>,
    done: Condvar,
}

/// Per-record Merkle path proofs for one scored batch, bound to the
/// commitment of the snapshot the batch was scored against. Each proof
/// verifies standalone via [`boat_proof::verify_prediction`] — no tree
/// access required.
#[derive(Debug, Clone)]
pub struct ScoredProofs {
    /// The Merkle root of the scoring snapshot (its model commitment).
    pub commitment: Hash256,
    /// One proof per submitted record, in submission order.
    pub proofs: Vec<PredictionProof>,
}

/// `result` holds `(labels, epoch, proofs)` once fulfilled — written
/// together so [`Ticket::wait_with_epoch`] never observes a torn tuple.
/// `waiting` is set (under the same mutex) before a waiter parks, so
/// fulfillment only pays the condvar-notify syscall when someone is
/// actually parked — on a busy engine most tickets are fulfilled before
/// anyone waits on them.
#[derive(Default)]
struct TicketSlot {
    result: Option<(Vec<u16>, u64, Option<ScoredProofs>)>,
    waiting: bool,
}

/// A handle to one submitted batch's eventual predictions.
///
/// Returned by [`ServeEngine::submit`]; [`Ticket::wait`] blocks until a
/// scorer fulfills the batch (shutdown drains the rings, so every issued
/// ticket is eventually fulfilled).
pub struct Ticket {
    state: Arc<TicketState>,
}

impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let fulfilled = self.state.slot.lock().unwrap().result.is_some();
        f.debug_struct("Ticket")
            .field("fulfilled", &fulfilled)
            .finish()
    }
}

impl Ticket {
    /// Block until the batch is scored; returns one label per submitted
    /// record, in submission order.
    pub fn wait(self) -> Vec<u16> {
        self.wait_with_proofs().0
    }

    /// Like [`Ticket::wait`], additionally returning the publication
    /// epoch of the snapshot the batch was scored against.
    pub fn wait_with_epoch(self) -> (Vec<u16>, u64) {
        let (labels, epoch, _) = self.wait_with_proofs();
        (labels, epoch)
    }

    /// Like [`Ticket::wait_with_epoch`], additionally returning the
    /// batch's [`ScoredProofs`]. `None` unless the batch was submitted
    /// via [`ServeEngine::submit_with_proofs`] *and* the scoring
    /// snapshot was published with a commit
    /// ([`ModelHandle::publish_committed`]).
    pub fn wait_with_proofs(self) -> (Vec<u16>, u64, Option<ScoredProofs>) {
        let mut slot = self.state.slot.lock().unwrap();
        while slot.result.is_none() {
            slot.waiting = true;
            slot = self.state.done.wait(slot).unwrap();
        }
        slot.result.take().expect("fulfilled above")
    }
}

/// Metric handles resolved once (registry lookups take a lock; updates
/// on these handles are lock-free).
struct EngineMetrics {
    batches_submitted: Counter,
    rejected: Counter,
    batches: Counter,
    records: Counter,
    batch_size: Histogram,
    latency_ns: Histogram,
    score_ns: Histogram,
    depth_sum: Gauge,
    depth_max: Gauge,
    proofs: Counter,
    proof_bytes: Counter,
    proof_failures: Counter,
}

impl EngineMetrics {
    fn resolve(registry: &Registry) -> EngineMetrics {
        EngineMetrics {
            batches_submitted: registry.counter("serve.batches_submitted"),
            rejected: registry.counter("serve.rejected"),
            batches: registry.counter("serve.batches"),
            records: registry.counter("serve.records"),
            batch_size: registry.histogram_with("serve.batch_size", &batch_size_bounds()),
            latency_ns: registry.histogram_with("serve.latency_ns", &latency_bounds_ns()),
            score_ns: registry.histogram_with("serve.score_ns", &latency_bounds_ns()),
            depth_sum: registry.gauge("serve.queue_depth"),
            depth_max: registry.gauge("serve.shard.depth_max"),
            proofs: registry.counter("boat.proof.proofs"),
            proof_bytes: registry.counter("boat.proof.proof_bytes"),
            proof_failures: registry.counter("boat.proof.proof_failures"),
        }
    }
}

struct Shared {
    shards: Vec<ShardQueue<Job>>,
    closed: AtomicBool,
    /// Round-robin cursor for shard selection.
    next_shard: AtomicUsize,
    /// Tickets accepted (incremented before the ring push; rolled back
    /// if the push is refused because the engine closed).
    accepted: AtomicU64,
    /// Tickets fulfilled. `drain` waits for `completed == accepted`.
    completed: AtomicU64,
    /// Drain doorbell (same fence protocol as the shard doorbells).
    drain_gate: Mutex<()>,
    drain_cv: Condvar,
    drain_parked: AtomicUsize,
    registry: ModelRegistry,
    /// The model the engine was started with; its submit path skips the
    /// registry's read lock entirely.
    default_entry: Arc<ModelEntry>,
    metrics: Registry,
    m: EngineMetrics,
}

impl Shared {
    fn update_depth_gauges(&self) {
        let mut sum = 0usize;
        let mut max = 0usize;
        for s in &self.shards {
            let d = s.len();
            sum += d;
            max = max.max(d);
        }
        self.m.depth_sum.set(sum as u64);
        self.m.depth_max.set(max as u64);
    }

    fn notify_drain(&self) {
        // Pairs with the SeqCst fence in `drain`: either we see its
        // parked count, or its re-check sees our `completed` bump.
        fence(Ordering::SeqCst);
        if self.drain_parked.load(Ordering::Relaxed) > 0 {
            let _guard = self.drain_gate.lock().unwrap();
            self.drain_cv.notify_all();
        }
    }
}

/// A running serving engine: shard-per-core scorer threads + lock-free
/// intake rings + multi-model registry.
///
/// Dropping the engine without calling [`ServeEngine::shutdown`] also
/// drains gracefully (shutdown is invoked from `Drop`).
pub struct ServeEngine {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl ServeEngine {
    /// Spawn the scorer pool with `handle`/`schema` as the **default
    /// model** (also registered under the key `"default"`). Metrics go
    /// to the handle's registry.
    pub fn start(handle: ModelHandle, schema: Arc<Schema>, config: ServeConfig) -> ServeEngine {
        let workers = config.effective_workers().max(1);
        let metrics = handle.metrics().clone();
        metrics.gauge("serve.workers").set(workers as u64);
        let per_shard = config.queue_depth.max(1).div_ceil(workers);
        let registry = ModelRegistry::new();
        let default_entry = registry.register("default", handle, schema);
        let m = EngineMetrics::resolve(&metrics);
        let shared = Arc::new(Shared {
            shards: (0..workers)
                .map(|_| ShardQueue::with_capacity(per_shard))
                .collect(),
            closed: AtomicBool::new(false),
            next_shard: AtomicUsize::new(0),
            accepted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            drain_gate: Mutex::new(()),
            drain_cv: Condvar::new(),
            drain_parked: AtomicUsize::new(0),
            registry,
            default_entry,
            metrics,
            m,
        });
        let threads = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared, i))
            })
            .collect();
        ServeEngine {
            shared,
            workers: Mutex::new(threads),
        }
    }

    /// Submit one micro-batch against the default model. Blocks while
    /// the target shard's ring is full (backpressure); fails fast once
    /// the engine is shut down. The returned [`Ticket`] resolves to one
    /// label per record.
    pub fn submit(&self, records: Vec<Record>) -> Result<Ticket> {
        let entry = Arc::clone(&self.shared.default_entry);
        self.submit_job(entry, Payload::Owned(records), false)
    }

    /// Like [`ServeEngine::submit`], additionally asking the scorer to
    /// generate a Merkle path proof per record against the scoring
    /// snapshot's commitment. The ticket's
    /// [`Ticket::wait_with_proofs`] returns them as [`ScoredProofs`];
    /// `None` if the current snapshot was published without a commit.
    pub fn submit_with_proofs(&self, records: Vec<Record>) -> Result<Ticket> {
        let entry = Arc::clone(&self.shared.default_entry);
        self.submit_job(entry, Payload::Owned(records), true)
    }

    /// Zero-copy submit against the default model: score `buf[range]`
    /// without cloning the records. The engine holds the `Arc` until the
    /// batch is fulfilled; the caller keeps ownership of the buffer.
    pub fn submit_shared(&self, buf: Arc<Vec<Record>>, range: Range<usize>) -> Result<Ticket> {
        if range.start > range.end || range.end > buf.len() {
            return Err(DataError::Invalid(format!(
                "batch range {}..{} out of bounds for buffer of {} records",
                range.start,
                range.end,
                buf.len()
            )));
        }
        let entry = Arc::clone(&self.shared.default_entry);
        self.submit_job(entry, Payload::Shared(buf, range), false)
    }

    /// Submit one micro-batch against the model registered under `key`.
    /// Unknown keys fail with [`DataError::Invalid`]; batches that do
    /// not conform to the model's schema fail with [`DataError::Schema`].
    pub fn submit_to(&self, key: &str, records: Vec<Record>) -> Result<Ticket> {
        let entry = self.shared.registry.resolve(key)?;
        self.submit_job(entry, Payload::Owned(records), false)
    }

    fn submit_job(
        &self,
        entry: Arc<ModelEntry>,
        payload: Payload,
        want_proofs: bool,
    ) -> Result<Ticket> {
        if self.shared.closed.load(Ordering::Acquire) {
            self.shared.m.rejected.inc();
            return Err(DataError::Invalid("serve engine is shut down".into()));
        }
        if let Err(e) = entry.validate(payload.records()) {
            self.shared.m.rejected.inc();
            return Err(e);
        }
        let ticket_state = Arc::new(TicketState {
            slot: Mutex::new(TicketSlot::default()),
            done: Condvar::new(),
        });
        let job = Job {
            payload,
            entry,
            ticket: Arc::clone(&ticket_state),
            enqueued: Instant::now(),
            want_proofs,
        };
        // Count the ticket as accepted *before* it becomes visible to a
        // worker, so `drain` can never observe `completed > accepted`;
        // rolled back below if the push is refused.
        self.shared.accepted.fetch_add(1, Ordering::AcqRel);
        let shard =
            self.shared.next_shard.fetch_add(1, Ordering::Relaxed) % self.shared.shards.len();
        if self.shared.shards[shard]
            .push_or_park(job, &self.shared.closed)
            .is_err()
        {
            self.shared.accepted.fetch_sub(1, Ordering::AcqRel);
            self.shared.m.rejected.inc();
            self.shared.notify_drain();
            return Err(DataError::Invalid("serve engine is shut down".into()));
        }
        self.shared.m.batches_submitted.inc();
        self.shared.update_depth_gauges();
        Ok(Ticket {
            state: ticket_state,
        })
    }

    /// Register a model under `key` (replacing any previous entry —
    /// in-flight tickets against the old entry still complete). Keyed
    /// submits via [`ServeEngine::submit_to`] become visible
    /// immediately.
    pub fn register_model(&self, key: &str, handle: ModelHandle, schema: Arc<Schema>) {
        self.shared.registry.register(key, handle, schema);
        self.shared
            .metrics
            .gauge("serve.models")
            .set(self.shared.registry.len() as u64);
    }

    /// Evict the model registered under `key`; returns whether it
    /// existed. Accepted tickets against it still complete (the job
    /// pinned the entry); subsequent keyed submits fail.
    pub fn evict_model(&self, key: &str) -> bool {
        let existed = self.shared.registry.evict(key).is_some();
        self.shared
            .metrics
            .gauge("serve.models")
            .set(self.shared.registry.len() as u64);
        existed
    }

    /// The publication epoch of the model under `key`, if registered.
    pub fn model_epoch(&self, key: &str) -> Option<u64> {
        self.shared.registry.get(key).map(|e| e.handle().epoch())
    }

    /// Registered model keys, sorted.
    pub fn model_keys(&self) -> Vec<String> {
        self.shared.registry.keys()
    }

    /// Total live occupancy across all shard rings (approximate under
    /// concurrency).
    pub fn queue_depth(&self) -> usize {
        self.shared.shards.iter().map(|s| s.len()).sum()
    }

    /// Total ring capacity across shards — the effective backpressure
    /// bound (per-shard capacities round up to powers of two).
    pub fn queue_capacity(&self) -> usize {
        self.shared.shards.iter().map(|s| s.capacity()).sum()
    }

    /// Block until every accepted ticket has been fulfilled. Event
    /// driven: workers ring a doorbell per completion; no polling loop.
    /// Does **not** close the intake — concurrent submitters can keep
    /// the engine busy past this call's snapshot of `accepted`.
    pub fn drain(&self) {
        loop {
            let accepted = self.shared.accepted.load(Ordering::Acquire);
            let completed = self.shared.completed.load(Ordering::Acquire);
            if completed >= accepted {
                break;
            }
            let guard = self.shared.drain_gate.lock().unwrap();
            self.shared.drain_parked.fetch_add(1, Ordering::Relaxed);
            fence(Ordering::SeqCst);
            let accepted = self.shared.accepted.load(Ordering::Acquire);
            let completed = self.shared.completed.load(Ordering::Acquire);
            if completed < accepted {
                // Bounded wait is defense-in-depth; the fence protocol
                // already forbids a lost wakeup.
                let (guard, _) = self
                    .shared
                    .drain_cv
                    .wait_timeout(guard, Duration::from_millis(2))
                    .unwrap();
                drop(guard);
            } else {
                drop(guard);
            }
            self.shared.drain_parked.fetch_sub(1, Ordering::Relaxed);
        }
        self.shared.update_depth_gauges();
    }

    /// Close the intake, wait for the rings to drain, and join every
    /// scorer thread. All accepted tickets are fulfilled before return;
    /// idempotent (later calls are no-ops). Submissions after shutdown
    /// fail fast with a typed error.
    pub fn shutdown(&self) {
        self.shared.closed.store(true, Ordering::Release);
        for shard in &self.shared.shards {
            shard.wake_all();
        }
        let threads: Vec<JoinHandle<()>> = self.workers.lock().unwrap().drain(..).collect();
        for t in threads {
            let _ = t.join();
        }
        // Final sweep: score any straggler that raced into a ring as it
        // closed. A submitter that passed the closed check may still be
        // mid-push, so sweep until the accepted/completed ledger
        // balances (every in-flight submit either lands its job — we
        // score it — or observes `closed` and rolls its count back).
        // No accepted ticket is ever dropped.
        let mut readers: Vec<(u64, SnapshotReader)> = Vec::new();
        loop {
            for shard in &self.shared.shards {
                while let Some(job) = shard.try_pop() {
                    score_job(&self.shared, &mut readers, job);
                }
            }
            let accepted = self.shared.accepted.load(Ordering::Acquire);
            let completed = self.shared.completed.load(Ordering::Acquire);
            if completed >= accepted {
                break;
            }
            std::thread::yield_now();
        }
        self.shared.update_depth_gauges();
    }
}

impl Drop for ServeEngine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Cap on per-worker cached snapshot readers: enough for every live
/// tenant of a realistic engine; overflowing (a register/evict churn
/// test) just resets the cache.
const READER_CACHE_CAP: usize = 16;

fn reader_for<'a>(
    readers: &'a mut Vec<(u64, SnapshotReader)>,
    entry: &ModelEntry,
) -> &'a mut SnapshotReader {
    match readers.iter().position(|(id, _)| *id == entry.id()) {
        Some(pos) => &mut readers[pos].1,
        None => {
            if readers.len() >= READER_CACHE_CAP {
                readers.clear();
            }
            readers.push((entry.id(), entry.handle().reader()));
            &mut readers.last_mut().expect("just pushed").1
        }
    }
}

/// Score one job and fulfill its ticket. Shared between the worker loop
/// and shutdown's final straggler sweep.
fn score_job(shared: &Shared, readers: &mut Vec<(u64, SnapshotReader)>, job: Job) {
    let records = job.payload.records();
    // One reader refresh per batch: the whole batch scores against one
    // consistent snapshot; a concurrent publish takes effect at the next
    // batch boundary. Steady state, this is a single atomic load.
    let (tree, epoch, commit) = reader_for(readers, &job.entry).current();
    let t0 = Instant::now();
    let labels: Vec<u16> = records.iter().map(|r| tree.predict(r)).collect();
    // Proof generation rides the same snapshot as the labels: the commit
    // came out of the same publication record, so every proof verifies
    // against the commitment of the tree that produced the batch's labels.
    let proofs = match (job.want_proofs, commit) {
        (true, Some(commit)) => {
            let mut out = Vec::with_capacity(records.len());
            let mut bytes = 0u64;
            for record in records {
                match commit.prove(&record_values(record)) {
                    Ok((_, proof)) => {
                        bytes += proof.wire_len() as u64;
                        out.push(proof);
                    }
                    Err(_) => break,
                }
            }
            if out.len() == records.len() {
                shared.m.proofs.add(out.len() as u64);
                shared.m.proof_bytes.add(bytes);
                Some(ScoredProofs {
                    commitment: commit.root(),
                    proofs: out,
                })
            } else {
                // A record the scorer accepted but the prover rejects
                // (submit validation already bars out-of-domain codes) —
                // surface as a counted miss, not a torn half-proved batch.
                shared.m.proof_failures.inc();
                None
            }
        }
        _ => None,
    };
    shared.m.score_ns.record(t0.elapsed().as_nanos() as u64);
    shared.m.batches.inc();
    shared.m.records.add(records.len() as u64);
    shared.m.batch_size.record(records.len() as u64);
    shared
        .m
        .latency_ns
        .record(job.enqueued.elapsed().as_nanos() as u64);
    {
        let mut slot = job.ticket.slot.lock().unwrap();
        slot.result = Some((labels, epoch, proofs));
        if slot.waiting {
            job.ticket.done.notify_all();
        }
    }
    shared.completed.fetch_add(1, Ordering::AcqRel);
    shared.notify_drain();
}

fn worker_loop(shared: &Shared, shard_idx: usize) {
    // Per-worker snapshot readers, reused across every batch this worker
    // ever scores.
    let mut readers: Vec<(u64, SnapshotReader)> = Vec::new();
    let shard = &shared.shards[shard_idx];
    while let Some(job) = shard.pop_or_park(&shared.closed) {
        score_job(shared, &mut readers, job);
        shared.update_depth_gauges();
    }
}

/// Histogram bounds for batch sizes: powers of two, 1 … 64 Ki records.
fn batch_size_bounds() -> Vec<u64> {
    (0..17u32).map(|k| 1u64 << k).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use boat_data::{Attribute, Field};
    use boat_tree::{Predicate, Split, Tree};

    fn schema() -> Arc<Schema> {
        Arc::new(Schema::new(vec![Attribute::numeric("x")], 2).unwrap())
    }

    /// x <= 5 → class 0 else class 1.
    fn threshold_tree() -> Tree {
        let mut t = Tree::leaf(vec![5, 5]);
        t.split_node(
            t.root(),
            Split {
                attr: 0,
                predicate: Predicate::NumLe(5.0),
            },
            vec![5, 0],
            vec![0, 5],
        );
        t
    }

    fn rec(x: f64) -> Record {
        Record::new(vec![Field::Num(x)], 0)
    }

    #[test]
    fn scores_batches_in_submission_order() {
        let handle = ModelHandle::new(compile(&threshold_tree()));
        let engine = ServeEngine::start(
            handle,
            schema(),
            ServeConfig {
                workers: 2,
                queue_depth: 8,
            },
        );
        let t1 = engine.submit(vec![rec(1.0), rec(9.0), rec(5.0)]).unwrap();
        let t2 = engine.submit(vec![rec(6.0)]).unwrap();
        assert_eq!(t1.wait(), vec![0, 1, 0]);
        assert_eq!(t2.wait(), vec![1]);
        engine.shutdown();
    }

    #[test]
    fn shutdown_drains_pending_tickets_then_rejects() {
        let handle = ModelHandle::new(compile(&threshold_tree()));
        let engine = ServeEngine::start(
            handle,
            schema(),
            ServeConfig {
                workers: 1,
                queue_depth: 32,
            },
        );
        let tickets: Vec<Ticket> = (0..16)
            .map(|i| engine.submit(vec![rec(i as f64)]).unwrap())
            .collect();
        engine.shutdown();
        for (i, t) in tickets.into_iter().enumerate() {
            assert_eq!(t.wait(), vec![u16::from(i as f64 > 5.0)]);
        }
        // Post-shutdown submissions fail fast with a typed error.
        let err = engine.submit(vec![rec(0.0)]).unwrap_err();
        assert!(matches!(err, DataError::Invalid(_)));
        assert_eq!(engine.queue_depth(), 0);
    }

    #[test]
    fn submit_shared_scores_without_cloning() {
        let handle = ModelHandle::new(compile(&threshold_tree()));
        let engine = ServeEngine::start(handle, schema(), ServeConfig::default());
        let buf = Arc::new((0..10).map(|i| rec(i as f64)).collect::<Vec<_>>());
        let t1 = engine.submit_shared(Arc::clone(&buf), 0..4).unwrap();
        let t2 = engine.submit_shared(Arc::clone(&buf), 4..10).unwrap();
        assert_eq!(t1.wait(), vec![0, 0, 0, 0]);
        assert_eq!(t2.wait(), vec![0, 0, 1, 1, 1, 1]);
        // Out-of-bounds ranges are rejected up front.
        assert!(engine.submit_shared(Arc::clone(&buf), 4..11).is_err());
        engine.shutdown();
        // The engine released its clones of the buffer.
        assert_eq!(Arc::strong_count(&buf), 1);
    }

    #[test]
    fn backpressure_bounds_the_queue() {
        // While submitting many one-record batches from several producer
        // threads, the observed total ring occupancy never exceeds the
        // engine's capacity bound.
        let handle = ModelHandle::new(compile(&threshold_tree()));
        let engine = ServeEngine::start(
            handle,
            schema(),
            ServeConfig {
                workers: 1,
                queue_depth: 4,
            },
        );
        let cap = engine.queue_capacity();
        assert!(cap >= 4);
        std::thread::scope(|s| {
            for p in 0..3 {
                let engine = &engine;
                s.spawn(move || {
                    for i in 0..50 {
                        let t = engine.submit(vec![rec((p * 50 + i) as f64)]).unwrap();
                        let _ = t.wait();
                        assert!(engine.queue_depth() <= cap);
                    }
                });
            }
        });
        engine.shutdown();
    }

    #[test]
    fn epoch_reported_per_batch_and_swaps_take_effect() {
        let handle = ModelHandle::new(compile(&threshold_tree()));
        let engine = ServeEngine::start(
            handle.clone(),
            schema(),
            ServeConfig {
                workers: 1,
                queue_depth: 8,
            },
        );
        let (labels, epoch) = engine.submit(vec![rec(1.0)]).unwrap().wait_with_epoch();
        assert_eq!((labels, epoch), (vec![0], 0));
        // Publish an inverted tree: x <= 5 → class 1.
        let mut inverted = Tree::leaf(vec![5, 5]);
        inverted.split_node(
            inverted.root(),
            Split {
                attr: 0,
                predicate: Predicate::NumLe(5.0),
            },
            vec![0, 5],
            vec![5, 0],
        );
        handle.publish(compile(&inverted));
        let (labels, epoch) = engine.submit(vec![rec(1.0)]).unwrap().wait_with_epoch();
        assert_eq!((labels, epoch), (vec![1], 1));
        engine.shutdown();
    }

    #[test]
    fn proof_submissions_verify_against_the_published_commitment() {
        let reg = Registry::new();
        let compiled = compile(&threshold_tree());
        let commit = Arc::new(crate::provenance::tree_commit(&compiled).unwrap());
        let handle = ModelHandle::with_metrics_committed(compiled, commit, reg.clone());
        let commitment = handle.commitment().unwrap();
        let engine = ServeEngine::start(
            handle,
            schema(),
            ServeConfig {
                workers: 2,
                queue_depth: 8,
            },
        );
        let records = vec![rec(1.0), rec(9.0), rec(5.0)];
        let ticket = engine.submit_with_proofs(records.clone()).unwrap();
        let (labels, _, proofs) = ticket.wait_with_proofs();
        assert_eq!(labels, vec![0, 1, 0]);
        let scored = proofs.expect("committed snapshot must yield proofs");
        assert_eq!(scored.commitment, commitment);
        for ((record, label), proof) in records.iter().zip(&labels).zip(&scored.proofs) {
            let values = crate::provenance::record_values(record);
            boat_proof::verify_prediction(&commitment, &values, *label, proof).unwrap();
        }
        // A plain submit against the same snapshot carries no proofs.
        let (_, _, none) = engine.submit(vec![rec(2.0)]).unwrap().wait_with_proofs();
        assert!(none.is_none());
        engine.shutdown();
        let snap = reg.snapshot();
        assert_eq!(snap.counter("boat.proof.proofs"), 3);
        assert!(snap.counter("boat.proof.proof_bytes") > 0);
        assert_eq!(snap.counter("boat.proof.proof_failures"), 0);
    }

    #[test]
    fn proofs_are_absent_when_the_snapshot_has_no_commit() {
        let handle = ModelHandle::new(compile(&threshold_tree()));
        let engine = ServeEngine::start(handle, schema(), ServeConfig::default());
        let (labels, _, proofs) = engine
            .submit_with_proofs(vec![rec(1.0)])
            .unwrap()
            .wait_with_proofs();
        assert_eq!(labels, vec![0]);
        assert!(proofs.is_none(), "uncommitted snapshot cannot prove");
        engine.shutdown();
    }

    #[test]
    fn metrics_count_batches_and_records() {
        let reg = Registry::new();
        let handle = ModelHandle::with_metrics(compile(&threshold_tree()), reg.clone());
        let engine = ServeEngine::start(
            handle,
            schema(),
            ServeConfig {
                workers: 2,
                queue_depth: 8,
            },
        );
        for _ in 0..5 {
            engine.submit(vec![rec(1.0), rec(9.0)]).unwrap().wait();
        }
        engine.shutdown();
        let snap = reg.snapshot();
        assert_eq!(snap.counter("serve.batches"), 5);
        assert_eq!(snap.counter("serve.batches_submitted"), 5);
        assert_eq!(snap.counter("serve.records"), 10);
        assert_eq!(snap.counter("serve.rejected"), 0);
        let h = snap.histogram("serve.batch_size").unwrap();
        assert_eq!((h.count, h.sum), (5, 10));
        assert_eq!(snap.histogram("serve.latency_ns").unwrap().count, 5);
        assert_eq!(snap.gauge("serve.workers"), Some(2));
        assert_eq!(snap.gauge("serve.queue_depth"), Some(0));
        assert_eq!(snap.gauge("serve.shard.depth_max"), Some(0));
    }

    #[test]
    fn drain_waits_for_accepted_tickets() {
        let handle = ModelHandle::new(compile(&threshold_tree()));
        let engine = ServeEngine::start(
            handle,
            schema(),
            ServeConfig {
                workers: 2,
                queue_depth: 16,
            },
        );
        let tickets: Vec<Ticket> = (0..32)
            .map(|i| engine.submit(vec![rec(i as f64)]).unwrap())
            .collect();
        engine.drain();
        assert_eq!(engine.queue_depth(), 0);
        // Every ticket is already fulfilled: waits return immediately.
        for (i, t) in tickets.into_iter().enumerate() {
            assert_eq!(t.wait(), vec![u16::from(i as f64 > 5.0)]);
        }
        engine.shutdown();
    }

    #[test]
    fn drop_without_shutdown_drains() {
        let handle = ModelHandle::new(compile(&threshold_tree()));
        let engine = ServeEngine::start(
            handle,
            schema(),
            ServeConfig {
                workers: 1,
                queue_depth: 8,
            },
        );
        let t = engine.submit(vec![rec(2.0)]).unwrap();
        drop(engine); // Drop impl drains and joins
        assert_eq!(t.wait(), vec![0]);
    }

    #[test]
    fn keyed_submit_and_wrong_schema_rejection() {
        let handle = ModelHandle::new(compile(&threshold_tree()));
        let engine = ServeEngine::start(handle, schema(), ServeConfig::default());
        // "default" is pre-registered.
        assert_eq!(engine.model_keys(), vec!["default".to_string()]);
        let t = engine.submit_to("default", vec![rec(9.0)]).unwrap();
        assert_eq!(t.wait(), vec![1]);
        // Unknown key.
        assert!(matches!(
            engine.submit_to("nope", vec![rec(1.0)]).unwrap_err(),
            DataError::Invalid(_)
        ));
        // Wrong schema: two fields into a one-attribute model.
        assert!(matches!(
            engine
                .submit(vec![Record::new(vec![Field::Num(1.0), Field::Num(2.0)], 0)])
                .unwrap_err(),
            DataError::Schema(_)
        ));
        engine.shutdown();

        // A category code outside the model's `< 64` domain is rejected
        // at submit, before a worker ever shifts the split mask by it.
        let cat_schema = Arc::new(Schema::new(vec![Attribute::categorical("c", 4)], 2).unwrap());
        let engine = ServeEngine::start(
            ModelHandle::new(compile(&Tree::leaf(vec![1, 0]))),
            cat_schema,
            ServeConfig {
                workers: 1,
                queue_depth: 8,
            },
        );
        assert!(matches!(
            engine
                .submit(vec![Record::new(vec![Field::Cat(65)], 0)])
                .unwrap_err(),
            DataError::Schema(_)
        ));
        engine.shutdown();
    }
}
