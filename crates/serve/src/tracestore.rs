//! The bounded, content-addressed server-side trace store behind
//! `POST /v1/trace`.
//!
//! Uploaded `SUITTRC3` containers are kept in memory under a **hard**
//! double bound — at most `max_traces` entries and `max_bytes` of
//! container bytes. Unlike the result cache there is no eviction: a
//! stored trace is an input other requests depend on (a client that
//! uploaded a trace expects `/v1/simulate-trace` to find it), so
//! silently dropping one would turn a previously valid request into a
//! `404`. A full store refuses new uploads with a structured `413`
//! instead; `DELETE` semantics can be layered on later if needed.
//!
//! Identity is content-addressed with the same word-at-a-time 128-bit
//! hash the result cache uses ([`crate::cache::content_hash`]): the
//! trace ID is the 32-hex-digit digest of the container bytes, so
//! re-uploading the same bytes is idempotent — it answers with the
//! existing entry (even when the store is full) and never copies the
//! bytes a second time. Correctness does not ride on the hash alone: an
//! insert whose ID collides with a stored entry holding *different*
//! bytes is refused rather than aliased.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use suit_store::ContainerInfo;

use crate::cache::content_hash;

/// One stored trace: the exact uploaded container bytes plus the
/// summary the upload response and `GET /v1/trace/<id>` report.
#[derive(Debug, Clone)]
pub struct StoredTrace {
    /// The container bytes (shared, so a replay job holds them uncopied).
    pub bytes: Arc<Vec<u8>>,
    /// Workload name from the container header.
    pub workload: String,
    /// Instructions per cycle from the container header.
    pub ipc: f64,
    /// Virtual trace length in instructions.
    pub total_insts: u64,
    /// Bursts across all chunks.
    pub bursts: u64,
    /// Chunk count.
    pub chunks: u64,
}

/// Outcome of an insert attempt.
#[derive(Debug, Clone)]
pub enum Inserted {
    /// The trace was stored; this upload created the entry.
    Created(StoredTrace),
    /// The identical trace was already stored (idempotent re-upload).
    Existing(StoredTrace),
    /// The store is full (entries or bytes) and the trace is new → `413`.
    Full,
    /// The ID is taken by an entry with different bytes (a content-hash
    /// collision) → refused, never aliased.
    IdCollision,
}

struct Inner {
    map: HashMap<String, StoredTrace>,
    bytes: usize,
}

/// The bounded trace store. Both bounds are enforced on every insert;
/// either bound at zero disables uploads entirely (every new trace is
/// [`Inserted::Full`]).
pub struct TraceStore {
    max_traces: usize,
    max_bytes: usize,
    inner: Mutex<Inner>,
}

impl TraceStore {
    /// A store bounded by `max_traces` entries and `max_bytes` of
    /// container bytes.
    pub fn new(max_traces: usize, max_bytes: usize) -> TraceStore {
        TraceStore {
            max_traces,
            max_bytes,
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                bytes: 0,
            }),
        }
    }

    /// The content-addressed ID for `bytes`: 32 lowercase hex digits of
    /// [`content_hash`].
    pub fn id_for(bytes: &[u8]) -> String {
        format!("{:032x}", content_hash(bytes))
    }

    /// Inserts the validated container `bytes`, summarised by `info`,
    /// under its content ID. Idempotent: the same bytes answer
    /// [`Inserted::Existing`] with the stored entry, even when the store
    /// is full. The bytes are compared borrowed and copied only when this
    /// upload creates the entry. Never evicts.
    pub fn insert(&self, id: &str, bytes: &[u8], info: &ContainerInfo) -> Inserted {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(existing) = inner.map.get(id) {
            return if existing.bytes.as_slice() == bytes {
                Inserted::Existing(existing.clone())
            } else {
                Inserted::IdCollision
            };
        }
        if inner.map.len() >= self.max_traces
            || inner.bytes.saturating_add(bytes.len()) > self.max_bytes
        {
            return Inserted::Full;
        }
        let stored = StoredTrace {
            bytes: Arc::new(bytes.to_vec()),
            workload: info.meta.name.clone(),
            ipc: info.meta.ipc,
            total_insts: info.meta.total_insts,
            bursts: info.bursts,
            chunks: info.chunks,
        };
        inner.bytes += bytes.len();
        inner.map.insert(id.to_string(), stored.clone());
        Inserted::Created(stored)
    }

    /// Looks a stored trace up by ID.
    pub fn get(&self, id: &str) -> Option<StoredTrace> {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.map.get(id).cloned()
    }

    /// Current entry count and container-byte total (for `/v1/metrics`).
    pub fn usage(&self) -> (usize, usize) {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        (inner.map.len(), inner.bytes)
    }

    /// The configured bounds, `(traces, bytes)`.
    pub fn capacity(&self) -> (usize, usize) {
        (self.max_traces, self.max_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use suit_trace::io::TraceMeta;

    fn info() -> ContainerInfo {
        ContainerInfo {
            meta: TraceMeta {
                name: "w".into(),
                ipc: 1.0,
                total_insts: 1,
            },
            chunks: 1,
            bursts: 1,
            chunk_bursts: 1,
            packed_bytes: 1,
        }
    }

    fn insert(store: &TraceStore, id: &str, bytes: &[u8]) -> Inserted {
        store.insert(id, bytes, &info())
    }

    #[test]
    fn insert_is_content_addressed_and_idempotent() {
        let store = TraceStore::new(4, 1 << 20);
        let bytes = b"container".to_vec();
        let id = TraceStore::id_for(&bytes);
        let Inserted::Created(created) = insert(&store, &id, &bytes) else {
            panic!("first upload must create");
        };
        let Inserted::Existing(existing) = insert(&store, &id, &bytes) else {
            panic!("re-upload must find the entry");
        };
        assert_eq!(store.usage().0, 1, "re-upload must not store a copy");
        assert!(
            Arc::ptr_eq(&created.bytes, &existing.bytes),
            "re-upload must answer with the stored bytes"
        );
        assert_eq!(*store.get(&id).unwrap().bytes, bytes);
    }

    #[test]
    fn bounds_refuse_new_traces_but_not_reuploads() {
        let store = TraceStore::new(1, 1 << 20);
        let a = b"aaaa".to_vec();
        let b = b"bbbb".to_vec();
        let (id_a, id_b) = (TraceStore::id_for(&a), TraceStore::id_for(&b));
        assert!(matches!(insert(&store, &id_a, &a), Inserted::Created(_)));
        assert!(matches!(insert(&store, &id_b, &b), Inserted::Full));
        // Idempotent re-upload still answers Existing at capacity.
        assert!(matches!(insert(&store, &id_a, &a), Inserted::Existing(_)));

        let tight = TraceStore::new(8, 6);
        assert!(matches!(insert(&tight, &id_a, &a), Inserted::Created(_)));
        assert!(
            matches!(insert(&tight, &id_b, &b), Inserted::Full),
            "byte budget must hold"
        );
    }

    #[test]
    fn colliding_ids_with_different_bytes_are_refused() {
        let store = TraceStore::new(4, 1 << 20);
        let id = TraceStore::id_for(b"one");
        assert!(matches!(insert(&store, &id, b"one"), Inserted::Created(_)));
        assert!(matches!(insert(&store, &id, b"two"), Inserted::IdCollision));
        assert_eq!(*store.get(&id).unwrap().bytes, b"one".to_vec());
    }

    #[test]
    fn zero_bounds_disable_uploads() {
        let store = TraceStore::new(0, 1 << 20);
        let id = TraceStore::id_for(b"x");
        assert!(matches!(insert(&store, &id, b"x"), Inserted::Full));
    }
}
