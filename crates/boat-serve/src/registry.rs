//! Multi-model registry: many schemas/tenants behind one serve engine.
//!
//! Each registered model pairs a [`ModelHandle`] (its epoch-stamped
//! publication slot) with the [`Schema`] its batches must conform to.
//! Submits resolve the key to an [`Arc<ModelEntry>`] **once** and pin the
//! entry into the job, so a concurrent evict never strands an accepted
//! ticket — the worker scores against the pinned entry and the model's
//! memory is freed by the last `Arc` drop. Epochs are per-handle, so
//! publishing model A never moves model B's epoch.
//!
//! Entries carry a registry-unique `id` that survives evict/re-register
//! cycles; scorer workers key their per-thread [`SnapshotReader`] caches
//! on it, which makes cache hits a linear scan over a couple of integers
//! and never aliases a stale reader onto a re-registered key.

use crate::handle::ModelHandle;
use boat_data::{DataError, Field, Record, Result, Schema};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// One registered model: publication handle + the schema its batches
/// must match.
#[derive(Debug)]
pub struct ModelEntry {
    /// Registry-unique id (never reused, even across evict/re-register).
    id: u64,
    key: String,
    handle: ModelHandle,
    schema: Arc<Schema>,
}

impl ModelEntry {
    /// Registry-unique id for this registration.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The key this entry was registered under.
    pub fn key(&self) -> &str {
        &self.key
    }

    /// The model's publication handle.
    pub fn handle(&self) -> &ModelHandle {
        &self.handle
    }

    /// The schema submitted batches must conform to.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Check `records` against this entry's schema: every record must
    /// have one field per attribute with matching types, and every
    /// category code must lie in the model's domain (`< 64`, the
    /// splitting-subset mask width). Codes `< 64` above the attribute's
    /// cardinality are accepted — they route right like any code unseen
    /// at training time. Returns [`DataError::Schema`] naming the first
    /// offending record.
    pub fn validate(&self, records: &[Record]) -> Result<()> {
        let attrs = self.schema.attributes();
        for (row, r) in records.iter().enumerate() {
            let fields = r.fields();
            if fields.len() != attrs.len() {
                return Err(DataError::Schema(format!(
                    "model '{}': record {row} has {} fields, schema expects {}",
                    self.key,
                    fields.len(),
                    attrs.len()
                )));
            }
            for (col, (field, attr)) in fields.iter().zip(attrs).enumerate() {
                let ok = match field {
                    Field::Num(_) => attr.ty().is_numeric(),
                    Field::Cat(_) => attr.ty().is_categorical(),
                };
                if !ok {
                    return Err(DataError::Schema(format!(
                        "model '{}': record {row} field {col} type disagrees with \
                         attribute '{}'",
                        self.key,
                        attr.name()
                    )));
                }
                if let Field::Cat(c @ 64..) = field {
                    return Err(DataError::Schema(format!(
                        "model '{}': record {row} field {col} has category code {c}, \
                         outside the model's domain (codes must be < 64)",
                        self.key
                    )));
                }
            }
        }
        Ok(())
    }
}

/// A concurrent key → model map shared by submitters and the engine.
///
/// Lookups take a read lock (uncontended in steady state — the engine's
/// default-model fast path bypasses the registry entirely); register and
/// evict take the write lock briefly.
#[derive(Debug, Default)]
pub struct ModelRegistry {
    models: RwLock<HashMap<String, Arc<ModelEntry>>>,
    next_id: AtomicU64,
}

impl ModelRegistry {
    /// An empty registry.
    pub fn new() -> ModelRegistry {
        ModelRegistry::default()
    }

    /// Register `handle` under `key`, replacing any previous entry with
    /// that key (in-flight tickets against the old entry still complete
    /// — they pinned it at submit time). Returns the new entry.
    pub fn register(&self, key: &str, handle: ModelHandle, schema: Arc<Schema>) -> Arc<ModelEntry> {
        let entry = Arc::new(ModelEntry {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            key: key.to_string(),
            handle,
            schema,
        });
        self.models
            .write()
            .unwrap()
            .insert(key.to_string(), Arc::clone(&entry));
        entry
    }

    /// Remove `key`; returns the evicted entry if it existed. Tickets
    /// already accepted against it are unaffected.
    pub fn evict(&self, key: &str) -> Option<Arc<ModelEntry>> {
        self.models.write().unwrap().remove(key)
    }

    /// Resolve `key` to its entry.
    pub fn get(&self, key: &str) -> Option<Arc<ModelEntry>> {
        self.models.read().unwrap().get(key).cloned()
    }

    /// Resolve `key` or fail with a typed error naming it.
    pub fn resolve(&self, key: &str) -> Result<Arc<ModelEntry>> {
        self.get(key)
            .ok_or_else(|| DataError::Invalid(format!("no model registered under key '{key}'")))
    }

    /// Registered keys, sorted (diagnostics).
    pub fn keys(&self) -> Vec<String> {
        let mut keys: Vec<String> = self.models.read().unwrap().keys().cloned().collect();
        keys.sort();
        keys
    }

    /// Number of registered models.
    pub fn len(&self) -> usize {
        self.models.read().unwrap().len()
    }

    /// Whether no models are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use boat_data::Attribute;
    use boat_tree::Tree;

    fn schema_num() -> Arc<Schema> {
        Arc::new(Schema::new(vec![Attribute::numeric("x")], 2).unwrap())
    }

    fn schema_cat() -> Arc<Schema> {
        Arc::new(Schema::new(vec![Attribute::categorical("c", 4)], 2).unwrap())
    }

    fn handle() -> ModelHandle {
        ModelHandle::new(compile(&Tree::leaf(vec![1, 0])))
    }

    #[test]
    fn register_get_evict_roundtrip() {
        let reg = ModelRegistry::new();
        assert!(reg.is_empty());
        let entry = reg.register("a", handle(), schema_num());
        assert_eq!(reg.get("a").unwrap().id(), entry.id());
        assert_eq!(reg.keys(), vec!["a".to_string()]);
        assert!(reg.evict("a").is_some());
        assert!(reg.get("a").is_none());
        assert!(reg.evict("a").is_none());
    }

    #[test]
    fn reregister_gets_fresh_id() {
        let reg = ModelRegistry::new();
        let first = reg.register("a", handle(), schema_num());
        reg.evict("a");
        let second = reg.register("a", handle(), schema_num());
        assert_ne!(first.id(), second.id());
    }

    #[test]
    fn resolve_unknown_key_is_typed_error() {
        let reg = ModelRegistry::new();
        let err = reg.resolve("missing").unwrap_err();
        assert!(matches!(err, DataError::Invalid(_)));
    }

    #[test]
    fn validate_rejects_wrong_width_and_type() {
        let reg = ModelRegistry::new();
        let entry = reg.register("a", handle(), schema_num());
        // Conforming record passes.
        entry
            .validate(&[Record::new(vec![Field::Num(1.0)], 0)])
            .unwrap();
        // Wrong width.
        let err = entry
            .validate(&[Record::new(vec![Field::Num(1.0), Field::Num(2.0)], 0)])
            .unwrap_err();
        assert!(matches!(err, DataError::Schema(_)));
        // Wrong field type (categorical into numeric attribute).
        let err = entry
            .validate(&[Record::new(vec![Field::Cat(1)], 0)])
            .unwrap_err();
        assert!(matches!(err, DataError::Schema(_)));
        // And the mirror image against a categorical schema.
        let cat = reg.register("c", handle(), schema_cat());
        let err = cat
            .validate(&[Record::new(vec![Field::Num(0.5)], 0)])
            .unwrap_err();
        assert!(matches!(err, DataError::Schema(_)));
        // Category code outside the 64-bit mask domain; codes above the
        // cardinality but below 64 stay accepted (they route right).
        cat.validate(&[Record::new(vec![Field::Cat(63)], 0)])
            .unwrap();
        let err = cat
            .validate(&[Record::new(vec![Field::Cat(64)], 0)])
            .unwrap_err();
        assert!(matches!(err, DataError::Schema(_)));
    }
}
