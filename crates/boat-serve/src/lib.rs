//! Compiled-tree inference subsystem for maintained BOAT models.
//!
//! `boat-serve` is the read path of the workspace: it takes the exact
//! decision trees that `boat-core` constructs and maintains, lowers them
//! into a cache-friendly immutable form, and serves predictions from
//! many threads while maintenance keeps running in the background.
//!
//! Four layers, composable but independently usable:
//!
//! 1. **Compiler** ([`compile`] → [`CompiledTree`]): flattens a
//!    [`boat_tree::Tree`] into structure-of-arrays node tables in
//!    preorder (left child adjacent at `i + 1`, only the right child
//!    stored), with categorical splits as 64-bit subset masks.
//!    [`CompiledTree::predict`] replicates `Tree::predict` exactly —
//!    including the pinned NaN / unseen-category routing contract —
//!    and is the one compiled scoring path.
//! 2. **Publication** ([`ModelHandle`]): epoch-stamped atomic snapshot
//!    swapping. A per-thread [`SnapshotReader`]'s steady-state read is
//!    **one atomic load** — no lock, no refcount traffic;
//!    [`publish_on_maintain`] wires a [`boat_core::BoatModel`] so every
//!    maintenance cycle that materializes a fresh exact tree compiles
//!    and publishes it.
//! 3. **Serving** ([`ServeEngine`]): shard-per-core scorer workers,
//!    each owning a bounded lock-free intake ring (submits round-robin
//!    across shards — no shared queue lock on the hot path), with
//!    backpressure, graceful drain, a multi-model [`ModelRegistry`]
//!    for keyed submits, and `serve.*` metrics into `boat-obs`.
//! 4. **Provenance** ([`provenance`], optional): Merkle commitments over
//!    compiled trees ([`tree_commit`]), committed publication
//!    ([`ModelHandle::publish_committed`]), per-prediction path proofs
//!    ([`ServeEngine::submit_with_proofs`] → [`ScoredProofs`], verified
//!    standalone by `boat_proof::verify_prediction`), and a chained
//!    epoch ledger over the streaming write path
//!    ([`spawn_streaming_committed`] → [`ProvenanceLedger`]).
//!
//! The subsystem invariant mirrors BOAT's exact-tree guarantee on the
//! write path: **every prediction is computed against one consistent
//! compiled snapshot** — pre- or post-maintenance, never a torn mix —
//! and compiled predictions are bit-identical to interpreted
//! `Tree::predict` on every input.
#![warn(missing_docs)]

pub mod compile;
pub mod engine;
pub mod handle;
pub mod provenance;
pub mod registry;
mod shard;
pub mod streaming;

pub use compile::{compile, CompiledTree, NodeOp};
pub use engine::{ScoredProofs, ServeConfig, ServeEngine, Ticket};
pub use handle::{publish_on_maintain, ModelHandle, SnapshotReader};
pub use provenance::{
    record_values, tree_commit, tree_commit_reusing, LedgerSink, ProvenanceLedger,
};
pub use registry::{ModelEntry, ModelRegistry};
pub use streaming::{spawn_streaming, spawn_streaming_committed, ProvenanceConfig};
