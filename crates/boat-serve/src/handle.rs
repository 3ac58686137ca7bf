//! Snapshot publication: epoch-stamped atomic swapping of compiled
//! trees between one maintainer and any number of scorer threads.
//!
//! The serving invariant is the read-path mirror of BOAT's exact-tree
//! guarantee: **every prediction is computed against one consistent
//! compiled tree** — either the pre-maintenance or the post-maintenance
//! snapshot, never a torn mix — while `BoatModel::maintain` runs
//! concurrently and publishes its result the instant it materializes.
//!
//! ## Publication protocol
//!
//! The handle keeps two pieces of state:
//!
//! * `current: Mutex<(Arc<CompiledTree>, u64)>` — the **publication
//!   record**: the snapshot and its epoch, swapped together under the
//!   lock so the pair is never torn. Only writers and *refreshing*
//!   readers touch it.
//! * `epoch_hint: AtomicU64` — a monotone mirror of the published epoch,
//!   stored (release) while the publication lock is still held, so
//!   `hint == N` implies the epoch-`N` record is already visible to
//!   anyone who subsequently takes the lock.
//!
//! The steady-state read path never touches the lock: a
//! [`SnapshotReader`] caches `(Arc<CompiledTree>, epoch)` per reader
//! thread and its [`SnapshotReader::current`] is **one atomic load** of
//! `epoch_hint` — no `Arc` refcount traffic, no shared cache-line writes
//! at all while the model is stable. Only when the hint moves past the
//! cached epoch does the reader briefly take the lock to re-read the
//! publication record (one `Arc` clone per *publication*, not per
//! batch). Epochs a reader observes are monotone: the hint only grows,
//! and a refresh always lands on a record at least as new as the hint
//! that triggered it.
//!
//! Old snapshots stay alive exactly as long as some reader still holds
//! them and are freed by the last `Arc` drop — the classic RCU shape
//! with reference counting as the grace period.

use crate::compile::{compile, CompiledTree};
use boat_core::BoatModel;
use boat_obs::Registry;
use boat_proof::{Hash256, TreeCommit};
use boat_tree::Impurity;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One published state: the snapshot, its epoch, and (when provenance is
/// wired) the Merkle commit the snapshot was published under. Swapped as
/// a unit so readers never see a tree paired with another epoch's commit.
#[derive(Clone)]
struct Publication {
    tree: Arc<CompiledTree>,
    epoch: u64,
    commit: Option<Arc<TreeCommit>>,
}

struct HandleInner {
    /// The publication record: current snapshot plus its epoch, swapped
    /// together. Writers and refreshing readers only.
    current: Mutex<Publication>,
    /// Monotone mirror of the published epoch; the lock-free fast path.
    /// Stored (release) while `current`'s lock is held.
    epoch_hint: AtomicU64,
    /// Metrics sink (`serve.snapshot_swaps`, `serve.epoch`,
    /// `serve.model_bytes`, `serve.compile` span).
    metrics: Registry,
}

/// A cheaply clonable handle to the currently published [`CompiledTree`].
///
/// Clone freely into scorer threads, the serving engine, and the
/// maintenance thread — all clones observe the same publication state.
/// Hot read loops should attach a per-thread [`SnapshotReader`] instead
/// of calling [`ModelHandle::snapshot`] per batch.
#[derive(Clone)]
pub struct ModelHandle {
    inner: Arc<HandleInner>,
}

impl std::fmt::Debug for ModelHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (tree, epoch) = self.snapshot_with_epoch();
        f.debug_struct("ModelHandle")
            .field("epoch", &epoch)
            .field("n_nodes", &tree.n_nodes())
            .finish()
    }
}

impl ModelHandle {
    /// Publish `initial` as epoch 0 with a private metrics registry.
    pub fn new(initial: CompiledTree) -> ModelHandle {
        Self::with_metrics(initial, Registry::new())
    }

    /// Publish `initial` as epoch 0, recording swap/epoch metrics into
    /// `metrics` (pass `boat_obs::Registry::global().clone()` for one
    /// process-wide namespace).
    pub fn with_metrics(initial: CompiledTree, metrics: Registry) -> ModelHandle {
        Self::with_publication(initial, None, metrics)
    }

    /// Publish `initial` as epoch 0 together with its Merkle commit, so
    /// readers can verify predictions against the genesis commitment
    /// (see [`crate::provenance`]).
    pub fn with_metrics_committed(
        initial: CompiledTree,
        commit: Arc<TreeCommit>,
        metrics: Registry,
    ) -> ModelHandle {
        Self::with_publication(initial, Some(commit), metrics)
    }

    fn with_publication(
        initial: CompiledTree,
        commit: Option<Arc<TreeCommit>>,
        metrics: Registry,
    ) -> ModelHandle {
        metrics.gauge("serve.epoch").set(0);
        metrics
            .gauge("serve.model_bytes")
            .set(initial.table_size_bytes() as u64);
        ModelHandle {
            inner: Arc::new(HandleInner {
                current: Mutex::new(Publication {
                    tree: Arc::new(initial),
                    epoch: 0,
                    commit,
                }),
                epoch_hint: AtomicU64::new(0),
                metrics,
            }),
        }
    }

    /// The current snapshot. Takes the publication lock for one `Arc`
    /// clone; scoring against the returned tree happens entirely outside
    /// it. Per-batch callers should use a [`SnapshotReader`] instead.
    #[inline]
    pub fn snapshot(&self) -> Arc<CompiledTree> {
        self.inner.current.lock().unwrap().tree.clone()
    }

    /// The current snapshot together with its epoch, read atomically
    /// (both under the same lock acquisition — the pair is never torn).
    #[inline]
    pub fn snapshot_with_epoch(&self) -> (Arc<CompiledTree>, u64) {
        let guard = self.inner.current.lock().unwrap();
        (guard.tree.clone(), guard.epoch)
    }

    /// The current Merkle commit, if the current epoch was published with
    /// one ([`ModelHandle::publish_committed`]).
    pub fn commit(&self) -> Option<Arc<TreeCommit>> {
        self.inner.current.lock().unwrap().commit.clone()
    }

    /// The current model commitment (the commit's Merkle root), if any.
    pub fn commitment(&self) -> Option<Hash256> {
        self.inner
            .current
            .lock()
            .unwrap()
            .commit
            .as_ref()
            .map(|c| c.root())
    }

    /// The current epoch: 0 at creation, +1 per [`ModelHandle::publish`].
    /// Lock-free (reads the epoch mirror).
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.inner.epoch_hint.load(Ordering::Acquire)
    }

    /// Attach a per-thread [`SnapshotReader`] whose steady-state read is
    /// one atomic load (no lock, no refcount traffic).
    pub fn reader(&self) -> SnapshotReader {
        let cached = self.inner.current.lock().unwrap().clone();
        SnapshotReader {
            handle: self.clone(),
            cached,
        }
    }

    /// Atomically publish `tree` as the new snapshot; returns the new
    /// epoch. Readers that already hold the previous snapshot keep
    /// scoring against it; every subsequent [`ModelHandle::snapshot`] or
    /// [`SnapshotReader::current`] observes the new tree.
    pub fn publish(&self, tree: CompiledTree) -> u64 {
        self.publish_record(tree, None)
    }

    /// Like [`ModelHandle::publish`], additionally carrying the snapshot's
    /// Merkle commit so proofs served at the new epoch verify against its
    /// root ([`ModelHandle::commitment`]). Swapped in the same lock
    /// acquisition as the tree — the pair is never torn.
    pub fn publish_committed(&self, tree: CompiledTree, commit: Arc<TreeCommit>) -> u64 {
        self.publish_record(tree, Some(commit))
    }

    fn publish_record(&self, tree: CompiledTree, commit: Option<Arc<TreeCommit>>) -> u64 {
        let bytes = tree.table_size_bytes() as u64;
        let fresh = Arc::new(tree);
        let epoch = {
            let mut guard = self.inner.current.lock().unwrap();
            guard.tree = fresh;
            guard.commit = commit;
            guard.epoch += 1;
            // Mirror the epoch while still holding the lock: a reader
            // that observes the new hint and refreshes is guaranteed to
            // find a record at least this new.
            self.inner.epoch_hint.store(guard.epoch, Ordering::Release);
            guard.epoch
        };
        self.inner.metrics.counter("serve.snapshot_swaps").inc();
        self.inner.metrics.gauge("serve.epoch").set(epoch);
        self.inner.metrics.gauge("serve.model_bytes").set(bytes);
        epoch
    }

    /// The metrics registry this handle records into.
    pub fn metrics(&self) -> &Registry {
        &self.inner.metrics
    }
}

/// A per-thread cached view of a [`ModelHandle`]'s publication state.
///
/// [`SnapshotReader::current`] costs one atomic load while the published
/// epoch is unchanged and re-reads the publication record (under the
/// briefly-held lock) only when a publish happened — so a scorer thread
/// in steady state shares **no** mutable cache lines with other readers
/// or the publisher. Epochs returned by one reader are monotone, and
/// causally ordered work observes monotone epochs across readers too:
/// if ticket B is submitted after ticket A's result was received, B's
/// scorer reads the hint after A's scorer did (the ticket hand-off
/// synchronizes), so coherence forbids it from reading an older value.
pub struct SnapshotReader {
    handle: ModelHandle,
    cached: Publication,
}

impl std::fmt::Debug for SnapshotReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotReader")
            .field("epoch", &self.cached.epoch)
            .field("committed", &self.cached.commit.is_some())
            .finish()
    }
}

impl SnapshotReader {
    #[inline]
    fn refresh(&mut self) {
        let hint = self.handle.inner.epoch_hint.load(Ordering::Acquire);
        if hint != self.cached.epoch {
            let fresh = self.handle.inner.current.lock().unwrap().clone();
            debug_assert!(
                fresh.epoch >= hint,
                "publication record older than its hint"
            );
            self.cached = fresh;
        }
    }

    /// The current `(snapshot, epoch, commit)` triple — the epoch's
    /// Merkle commit is present when the publisher supplied one. All
    /// three come from the same publication record, never torn. One
    /// atomic load on the fast path; refreshes from the publication
    /// record when the epoch moved.
    #[inline]
    pub fn current(&mut self) -> (&Arc<CompiledTree>, u64, Option<&Arc<TreeCommit>>) {
        self.refresh();
        (
            &self.cached.tree,
            self.cached.epoch,
            self.cached.commit.as_ref(),
        )
    }

    /// The epoch of the cached snapshot (no refresh).
    pub fn cached_epoch(&self) -> u64 {
        self.cached.epoch
    }

    /// The handle this reader is attached to.
    pub fn handle(&self) -> &ModelHandle {
        &self.handle
    }
}

/// Wire a maintained [`BoatModel`] to a [`ModelHandle`]: compile and
/// publish the model's *current* exact tree immediately (running any
/// pending maintenance first), then install a publish hook so every
/// future [`BoatModel::maintain`] that materializes a fresh tree
/// compiles it (timed under the `serve.compile` span) and atomically
/// publishes it to the handle.
///
/// After this call, reader threads holding clones of `handle` always
/// observe either the pre- or the post-maintenance tree while `maintain`
/// runs — never an intermediate state — because publication happens in
/// one swap after the exact tree is fully materialized.
pub fn publish_on_maintain<I: Impurity + Clone>(
    model: &mut BoatModel<I>,
    handle: &ModelHandle,
) -> boat_data::Result<u64> {
    let initial = {
        let span = handle.metrics().span("serve.compile");
        let compiled = compile(model.tree()?);
        span.finish();
        compiled
    };
    let epoch = handle.publish(initial);
    let hook_handle = handle.clone();
    model.set_publish_hook(move |tree| {
        let span = hook_handle.metrics().span("serve.compile");
        let compiled = compile(tree);
        span.finish();
        hook_handle.publish(compiled);
    });
    Ok(epoch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use boat_tree::Tree;

    fn leaf(counts: Vec<u64>) -> CompiledTree {
        compile(&Tree::leaf(counts))
    }

    #[test]
    fn publish_bumps_epoch_and_swaps() {
        let handle = ModelHandle::new(leaf(vec![5, 1]));
        assert_eq!(handle.epoch(), 0);
        let snap0 = handle.snapshot();
        let e = handle.publish(leaf(vec![0, 9]));
        assert_eq!(e, 1);
        assert_eq!(handle.epoch(), 1);
        // The old snapshot is unaffected; the new one predicts class 1.
        let r = boat_data::Record::new(vec![boat_data::Field::Num(0.0)], 0);
        assert_eq!(snap0.predict(&r), 0);
        assert_eq!(handle.snapshot().predict(&r), 1);
    }

    #[test]
    fn snapshot_with_epoch_is_consistent() {
        let handle = ModelHandle::new(leaf(vec![1, 0]));
        let (snap, epoch) = handle.snapshot_with_epoch();
        assert_eq!(epoch, 0);
        assert_eq!(snap.n_nodes(), 1);
    }

    #[test]
    fn clones_share_publication_state() {
        let a = ModelHandle::new(leaf(vec![1, 0]));
        let b = a.clone();
        a.publish(leaf(vec![0, 1]));
        assert_eq!(b.epoch(), 1);
    }

    #[test]
    fn reader_fast_path_tracks_publishes() {
        let handle = ModelHandle::new(leaf(vec![1, 0]));
        let mut reader = handle.reader();
        let r = boat_data::Record::new(vec![boat_data::Field::Num(0.0)], 0);
        {
            let (tree, epoch, _) = reader.current();
            assert_eq!((tree.predict(&r), epoch), (0, 0));
        }
        // Unchanged hint: repeated reads stay on the cached snapshot.
        assert_eq!(reader.current().1, 0);
        handle.publish(leaf(vec![0, 1]));
        let (tree, epoch, _) = reader.current();
        assert_eq!((tree.predict(&r), epoch), (1, 1));
        assert_eq!(reader.cached_epoch(), 1);
    }

    #[test]
    fn reader_epochs_are_monotone_under_concurrent_publishes() {
        let handle = ModelHandle::new(leaf(vec![1, 0]));
        std::thread::scope(|s| {
            let publisher = {
                let handle = handle.clone();
                s.spawn(move || {
                    for i in 0..500u64 {
                        handle.publish(leaf(vec![i % 3, 1]));
                    }
                })
            };
            for _ in 0..4 {
                let handle = handle.clone();
                s.spawn(move || {
                    let mut reader = handle.reader();
                    let mut last = 0u64;
                    for _ in 0..2_000 {
                        let (_, epoch, _) = reader.current();
                        assert!(epoch >= last, "reader epoch went backwards");
                        last = epoch;
                    }
                });
            }
            publisher.join().unwrap();
        });
        assert_eq!(handle.epoch(), 500);
    }

    #[test]
    fn committed_publications_expose_their_commitment() {
        let first = leaf(vec![5, 1]);
        let commit = Arc::new(crate::provenance::tree_commit(&first).unwrap());
        let root = commit.root();
        let handle = ModelHandle::with_metrics_committed(first, commit, Registry::new());
        assert_eq!(handle.commitment(), Some(root));
        let mut reader = handle.reader();
        assert_eq!(reader.current().2.map(|c| c.root()), Some(root));

        // A plain publish drops the commitment (no stale root survives).
        handle.publish(leaf(vec![0, 9]));
        assert_eq!(handle.commitment(), None);
        assert_eq!(reader.current().2.map(|c| c.root()), None);

        // A committed publish swaps tree + commit together.
        let next = leaf(vec![2, 2]);
        let next_commit = Arc::new(crate::provenance::tree_commit(&next).unwrap());
        let next_root = next_commit.root();
        let epoch = handle.publish_committed(next, next_commit);
        assert_eq!(epoch, 2);
        let (_, epoch, commit) = reader.current();
        assert_eq!((epoch, commit.map(|c| c.root())), (2, Some(next_root)));
    }

    #[test]
    fn metrics_track_swaps() {
        let reg = Registry::new();
        let handle = ModelHandle::with_metrics(leaf(vec![1, 0]), reg.clone());
        handle.publish(leaf(vec![0, 1]));
        handle.publish(leaf(vec![2, 1]));
        let snap = reg.snapshot();
        assert_eq!(snap.counter("serve.snapshot_swaps"), 2);
        assert_eq!(snap.gauge("serve.epoch"), Some(2));
        assert!(snap.gauge("serve.model_bytes").unwrap() > 0);
    }
}
