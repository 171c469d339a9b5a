//! Deterministic result cache and request coalescing.
//!
//! Every compute endpoint is a *pure function* of its validated request:
//! per-point seeding is `fork(i)` by index and `suit_exec` returns
//! results in index order, so the same request body always produces the
//! same response bytes — at any worker-thread count. That property makes
//! content-addressed caching trivially correct: cache the exact response
//! bytes of the first computation and every later hit is byte-identical
//! to what a fresh run would have produced (`tests/serve_e2e.rs` pins
//! cache-on == cache-off at 1 and 4 workers).
//!
//! Three pieces live here:
//!
//! * **Canonicalization** ([`canonical_job`]) — maps every *accepted*
//!   request body onto a single canonical JSON form: validated fields
//!   only, defaults filled in, keys sorted, floats in Rust's shortest
//!   round-trip form. Two bodies that differ in key order, whitespace,
//!   or spelled-out defaults canonicalize identically and share a cache
//!   entry. The request deadline is deliberately excluded: it bounds
//!   *when* a job may run, never *what* it computes.
//! * **Content hash** ([`content_hash`] / [`etag_for`]) — FNV-1a 128
//!   over the canonical bytes, zero dependencies. The hex digest is the
//!   strong `ETag` advertised on cacheable responses; the cache itself
//!   is keyed by the canonical string, so a (vanishingly unlikely) hash
//!   collision can never serve the wrong body — it could only make an
//!   `If-None-Match` revalidation spuriously succeed.
//! * **Bounded LRU store + in-flight coalescing** ([`Cache`],
//!   [`FlightTable`]) — response bytes are retained under both an entry
//!   count and a byte budget (strict LRU eviction, oldest access first),
//!   and N concurrent identical requests trigger exactly *one*
//!   computation whose outcome — including `429`/`408`/`500` failures —
//!   fans out to every waiter.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Condvar, Mutex};

use crate::api::{BatchSpec, FaultsSpec, Job, SimPoint, Table6Spec, TraceSpec};
use crate::http::Response;
use suit_scenarios::{ScenarioConfig, ScroogeConfig, SramScenarioConfig};
use suit_telemetry::fields::canonical;
use suit_telemetry::json::escape_into;

// ---------------------------------------------------------------------------
// Canonicalization
// ---------------------------------------------------------------------------

/// The canonical JSON form of a validated job: its config re-serialised
/// through the field table it was parsed with (every field, defaults
/// filled, keys sorted, canonical floats), plus an `endpoint`
/// discriminator so the endpoints can never alias. This string *is* the
/// cache key.
pub fn canonical_job(job: &Job) -> String {
    match job {
        Job::Simulate(point) => canonical(SimPoint::FIELDS, point, &[("endpoint", "\"simulate\"")]),
        Job::Batch(BatchSpec::Table6(spec)) => canonical(
            Table6Spec::FIELDS,
            spec,
            &[("endpoint", "\"batch\""), ("sweep", "\"table6\"")],
        ),
        Job::Batch(BatchSpec::Workloads {
            workloads,
            template,
        }) => {
            let mut names = String::from("[");
            for (i, w) in workloads.iter().enumerate() {
                if i > 0 {
                    names.push(',');
                }
                escape_into(&mut names, w);
            }
            names.push(']');
            let extra = [("endpoint", "\"batch\""), ("workloads", names.as_str())];
            canonical(SimPoint::FIELDS, template, &extra)
        }
        Job::Faults(spec) => canonical(FaultsSpec::FIELDS, spec, &[("endpoint", "\"faults\"")]),
        // The trace ID is itself content-addressed over the container
        // bytes, so `(id, config)` fully determines the response and the
        // stored bytes never need to enter the key.
        Job::SimulateTrace(tj) => canonical(
            TraceSpec::FIELDS,
            &tj.spec,
            &[("endpoint", "\"simulate-trace\"")],
        ),
        Job::Scenario(cfg) => match cfg.as_ref() {
            ScenarioConfig::Sram(c) => canonical(
                SramScenarioConfig::FIELDS,
                c,
                &[("endpoint", "\"scenario\""), ("scenario", "\"sram\"")],
            ),
            ScenarioConfig::Scrooge(c) => canonical(
                ScroogeConfig::FIELDS,
                c,
                &[("endpoint", "\"scenario\""), ("scenario", "\"scrooge\"")],
            ),
        },
    }
}

// ---------------------------------------------------------------------------
// Content hash → ETag
// ---------------------------------------------------------------------------

const FNV128_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
const FNV128_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

/// FNV-1a 128-bit over `bytes` — the in-tree content hash. Not
/// cryptographic; it addresses cache entries and names ETags, while
/// correctness is anchored on full-key comparison in [`Cache`].
pub fn content_hash(bytes: &[u8]) -> u128 {
    let mut h = FNV128_OFFSET;
    for &b in bytes {
        h ^= b as u128;
        h = h.wrapping_mul(FNV128_PRIME);
    }
    h
}

/// The strong entity tag for a canonical request: `"suit-<32 hex>"`,
/// quotes included (an ETag *is* a quoted string on the wire).
pub fn etag_for(canonical: &str) -> String {
    format!("\"suit-{:032x}\"", content_hash(canonical.as_bytes()))
}

// ---------------------------------------------------------------------------
// Bounded LRU store
// ---------------------------------------------------------------------------

/// One cached response: the exact body bytes of the first computation
/// plus the strong ETag minted for its canonical request.
#[derive(Debug, Clone)]
pub struct CachedResponse {
    /// The entity tag (quoted form).
    pub etag: String,
    /// The response body bytes.
    pub body: String,
}

struct Entry {
    etag: String,
    body: String,
    tick: u64,
}

struct LruInner {
    map: HashMap<String, Entry>,
    /// Access order: tick → key. Ticks are unique (monotonic counter),
    /// so this is a strict LRU index; the smallest tick is the coldest.
    order: BTreeMap<u64, String>,
    tick: u64,
    bytes: usize,
}

/// A bounded, content-addressed LRU store of response bytes.
///
/// Both bounds are enforced on every insert: at most `max_entries`
/// entries and at most `max_bytes` of body bytes (keys and ETags ride
/// along for free — the budget tracks the dominant cost). An entry
/// larger than the whole byte budget is simply not cached. Either bound
/// at zero disables the cache (`enabled()` is false and the server
/// bypasses this module entirely).
pub struct Cache {
    max_entries: usize,
    max_bytes: usize,
    inner: Mutex<LruInner>,
}

impl Cache {
    /// A cache bounded by `max_entries` entries and `max_bytes` of body.
    pub fn new(max_entries: usize, max_bytes: usize) -> Cache {
        Cache {
            max_entries,
            max_bytes,
            inner: Mutex::new(LruInner {
                map: HashMap::new(),
                order: BTreeMap::new(),
                tick: 0,
                bytes: 0,
            }),
        }
    }

    /// Whether caching is enabled at all (both bounds nonzero).
    pub fn enabled(&self) -> bool {
        self.max_entries > 0 && self.max_bytes > 0
    }

    /// Looks `key` up, refreshing its recency on a hit.
    pub fn get(&self, key: &str) -> Option<CachedResponse> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.tick += 1;
        let tick = inner.tick;
        let entry = inner.map.get_mut(key)?;
        let old = std::mem::replace(&mut entry.tick, tick);
        let found = CachedResponse {
            etag: entry.etag.clone(),
            body: entry.body.clone(),
        };
        inner.order.remove(&old);
        inner.order.insert(tick, key.to_string());
        Some(found)
    }

    /// Inserts a response, evicting least-recently-used entries until
    /// both bounds hold. Returns how many entries were evicted. Bodies
    /// larger than the byte budget are not cached (returns 0, no state
    /// change); re-inserting an existing key refreshes it in place.
    pub fn insert(&self, key: &str, etag: String, body: String) -> u64 {
        if !self.enabled() || body.len() > self.max_bytes {
            return 0;
        }
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(old) = inner.map.remove(key) {
            inner.order.remove(&old.tick);
            inner.bytes -= old.body.len();
        }
        inner.bytes += body.len();
        inner
            .map
            .insert(key.to_string(), Entry { etag, body, tick });
        inner.order.insert(tick, key.to_string());
        let mut evicted = 0;
        while inner.map.len() > self.max_entries || inner.bytes > self.max_bytes {
            // The freshly inserted entry has the largest tick, so the
            // bounds always become satisfiable before it would go.
            let (&coldest, _) = inner
                .order
                .iter()
                .next()
                .expect("bounds exceeded ⇒ nonempty");
            let key = inner.order.remove(&coldest).expect("index entry");
            let entry = inner.map.remove(&key).expect("map entry");
            inner.bytes -= entry.body.len();
            evicted += 1;
        }
        evicted
    }

    /// Current entry count and body-byte total (for `/v1/metrics`).
    pub fn usage(&self) -> (usize, usize) {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        (inner.map.len(), inner.bytes)
    }

    /// The configured bounds, `(entries, bytes)`.
    pub fn capacity(&self) -> (usize, usize) {
        (self.max_entries, self.max_bytes)
    }
}

// ---------------------------------------------------------------------------
// In-flight coalescing
// ---------------------------------------------------------------------------

/// One in-flight computation. The leader publishes exactly one
/// [`Response`] — success *or* failure (`429`/`408`/`500`) — and every
/// follower blocks on [`Flight::wait`] until it lands.
pub struct Flight {
    slot: Mutex<Option<Response>>,
    done: Condvar,
}

impl Flight {
    fn new() -> Flight {
        Flight {
            slot: Mutex::new(None),
            done: Condvar::new(),
        }
    }

    /// Blocks until the leader publishes, then returns a clone of the
    /// outcome.
    pub fn wait(&self) -> Response {
        let mut slot = self.slot.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(resp) = slot.as_ref() {
                return resp.clone();
            }
            slot = self.done.wait(slot).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn publish(&self, resp: Response) {
        let mut slot = self.slot.lock().unwrap_or_else(|e| e.into_inner());
        *slot = Some(resp);
        self.done.notify_all();
    }
}

/// The role [`FlightTable::join`] assigned to a request.
pub enum Role {
    /// First in: run the computation, then [`FlightTable::publish`].
    Leader(Arc<Flight>),
    /// An identical request is already in flight: wait on it.
    Follower(Arc<Flight>),
}

/// The coalescing table: canonical key → in-flight computation.
#[derive(Default)]
pub struct FlightTable {
    flights: Mutex<HashMap<String, Arc<Flight>>>,
}

impl FlightTable {
    /// An empty table.
    pub fn new() -> FlightTable {
        FlightTable::default()
    }

    /// Joins the flight for `key`, creating it (→ [`Role::Leader`]) if
    /// none is in progress.
    pub fn join(&self, key: &str) -> Role {
        let mut flights = self.flights.lock().unwrap_or_else(|e| e.into_inner());
        match flights.get(key) {
            Some(flight) => Role::Follower(Arc::clone(flight)),
            None => {
                let flight = Arc::new(Flight::new());
                flights.insert(key.to_string(), Arc::clone(&flight));
                Role::Leader(flight)
            }
        }
    }

    /// Leader only: retires the flight *before* waking the waiters, so a
    /// request arriving after publication starts a fresh computation (or
    /// hits the cache) instead of latching onto a finished flight.
    pub fn publish(&self, key: &str, flight: &Arc<Flight>, resp: Response) {
        {
            let mut flights = self.flights.lock().unwrap_or_else(|e| e.into_inner());
            flights.remove(key);
        }
        flight.publish(resp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{parse_batch, parse_scenario, parse_simulate};

    fn canon(body: &str) -> String {
        let (job, _) = parse_simulate(body).expect("valid body");
        canonical_job(&job)
    }

    #[test]
    fn scenario_canonicalization_fills_defaults_and_separates_kinds() {
        let (a, _) = parse_scenario("{\"scenario\":\"sram\"}").unwrap();
        let (b, _) = parse_scenario(
            "{\"scenario\":\"sram\",\"seed\":20503,\"cache_banks\":8,\"rob_banks\":4,\
             \"deadline_ms\":75}",
        )
        .unwrap();
        assert_eq!(
            canonical_job(&a),
            canonical_job(&b),
            "defaults spelled out (and deadlines) must canonicalize identically"
        );
        let (s, _) = parse_scenario("{\"scenario\":\"scrooge\"}").unwrap();
        assert_ne!(canonical_job(&a), canonical_job(&s));
        for key in [canonical_job(&a), canonical_job(&s)] {
            assert!(key.contains("\"endpoint\":\"scenario\""), "{key}");
        }
    }

    #[test]
    fn canonicalization_ignores_key_order_whitespace_and_spelled_defaults() {
        let a = canon("{\"workload\":\"557.xz\"}");
        let b = canon(
            " { \"seed\" : 20503 , \"cpu\" : \"c\" , \"strategy\" : \"fv\" ,\
             \"cores\" : 1 , \"offset\" : 97 , \"workload\" : \"557.xz\" } ",
        );
        assert_eq!(a, b, "defaults spelled out must canonicalize identically");
        // deadline_ms bounds scheduling, not the result: same cache key.
        let c = canon("{\"workload\":\"557.xz\",\"deadline_ms\":5000}");
        assert_eq!(a, c);
        // ...and a different seed is a different key.
        let d = canon("{\"workload\":\"557.xz\",\"seed\":9}");
        assert_ne!(a, d);
    }

    #[test]
    fn canonical_form_separates_endpoints_and_modes() {
        let (sim, _) = parse_simulate("{\"workload\":\"557.xz\"}").unwrap();
        let (batch, _) = parse_batch("{\"workloads\":[\"557.xz\"]}").unwrap();
        let (table6, _) = parse_batch("{\"sweep\":\"table6\"}").unwrap();
        let keys = [
            canonical_job(&sim),
            canonical_job(&batch),
            canonical_job(&table6),
        ];
        for (i, a) in keys.iter().enumerate() {
            for b in &keys[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn table_keys_keep_the_faults_table6_scenario_and_trace_bytes() {
        use crate::api::{parse_faults, parse_simulate_trace, TraceJob};
        use crate::StoredTrace;
        let id = "0123456789abcdef0123456789abcdef";
        let body = format!(
            "{{\"trace\":\"{id}\",\"strategies\":[\"fv\",\"adaptive\"],\"cpu\":\"a\",\
             \"offset\":70,\"insts\":5,\"seed\":9}}"
        );
        let (spec, _) = parse_simulate_trace(&body).unwrap();
        let stored = StoredTrace {
            bytes: Arc::new(Vec::new()),
            workload: String::new(),
            ipc: 1.0,
            total_insts: 1,
            bursts: 1,
            chunks: 1,
        };
        let trace = Job::SimulateTrace(Box::new(TraceJob { spec, stored }));
        let faults = "{\"cores\":2,\"executions\":500,\"seed\":3,\"sigma_mv\":4.0}";
        let sram = "{\"scenario\":\"sram\",\"offsets_mv\":[-100.5,-150],\"sigma_mv\":7.25,\
                    \"reads\":64,\"seed\":11}";
        for (job, key) in [
            (
                parse_faults(faults).unwrap().0,
                r#"{"cores":2,"endpoint":"faults","executions":500,"seed":3,"sigma_mv":4}"#,
            ),
            (
                parse_batch("{\"sweep\":\"table6\"}").unwrap().0,
                r#"{"endpoint":"batch","max_insts":null,"sweep":"table6"}"#,
            ),
            (
                parse_scenario(sram).unwrap().0,
                r#"{"audit_len":2000,"cache_banks":8,"cores":2,"endpoint":"scenario","offsets_mv":[-100.5,-150],"reads":64,"rob_banks":4,"scenario":"sram","seed":11,"sigma_mv":7.25}"#,
            ),
            (
                trace,
                r#"{"cpu":"a","endpoint":"simulate-trace","insts":5,"offset":70,"seed":9,"strategies":["fv","adaptive"],"trace":"0123456789abcdef0123456789abcdef"}"#,
            ),
        ] {
            assert_eq!(canonical_job(&job), key);
        }
    }

    #[test]
    fn etags_are_stable_quoted_and_content_addressed() {
        let e1 = etag_for("{\"endpoint\":\"simulate\"}");
        let e2 = etag_for("{\"endpoint\":\"simulate\"}");
        let e3 = etag_for("{\"endpoint\":\"faults\"}");
        assert_eq!(e1, e2);
        assert_ne!(e1, e3);
        assert!(e1.starts_with("\"suit-") && e1.ends_with('"'));
        assert_eq!(e1.len(), "\"suit-\"".len() + 32);
        // Pin the FNV-1a 128 constants: the empty hash is the offset.
        assert_eq!(content_hash(b""), FNV128_OFFSET);
    }

    #[test]
    fn lru_evicts_by_entry_count_in_recency_order() {
        let cache = Cache::new(2, 1 << 20);
        assert_eq!(cache.insert("a", "ea".into(), "1".into()), 0);
        assert_eq!(cache.insert("b", "eb".into(), "2".into()), 0);
        // Touch `a` so `b` is the coldest…
        assert!(cache.get("a").is_some());
        assert_eq!(cache.insert("c", "ec".into(), "3".into()), 1);
        assert!(cache.get("b").is_none(), "b was LRU and must be gone");
        assert!(cache.get("a").is_some());
        assert!(cache.get("c").is_some());
    }

    #[test]
    fn lru_enforces_the_byte_budget() {
        let cache = Cache::new(16, 10);
        cache.insert("a", "e".into(), "aaaa".into()); // 4 bytes
        cache.insert("b", "e".into(), "bbbb".into()); // 8 bytes total
        let evicted = cache.insert("c", "e".into(), "cccc".into()); // would be 12
        assert_eq!(evicted, 1);
        let (entries, bytes) = cache.usage();
        assert_eq!((entries, bytes), (2, 8));
        // A body over the whole budget is refused outright.
        assert_eq!(cache.insert("huge", "e".into(), "x".repeat(11)), 0);
        assert!(cache.get("huge").is_none());
    }

    #[test]
    fn reinserting_a_key_replaces_in_place() {
        let cache = Cache::new(4, 100);
        cache.insert("k", "e1".into(), "1234".into());
        cache.insert("k", "e2".into(), "56".into());
        let (entries, bytes) = cache.usage();
        assert_eq!((entries, bytes), (1, 2));
        assert_eq!(cache.get("k").unwrap().etag, "e2");
    }

    #[test]
    fn zero_bounds_disable_the_cache() {
        for cache in [Cache::new(0, 100), Cache::new(4, 0)] {
            assert!(!cache.enabled());
            cache.insert("k", "e".into(), "body".into());
            assert!(cache.get("k").is_none());
        }
    }

    #[test]
    fn coalescing_fans_one_outcome_to_all_waiters() {
        let table = Arc::new(FlightTable::new());
        let Role::Leader(flight) = table.join("k") else {
            panic!("first join must lead");
        };
        let waiters: Vec<_> = (0..4)
            .map(|_| {
                let table = Arc::clone(&table);
                std::thread::spawn(move || match table.join("k") {
                    Role::Follower(f) => f.wait().status,
                    Role::Leader(_) => panic!("joined an in-flight key as leader"),
                })
            })
            .collect();
        // Give the waiters a moment to block, then publish a failure —
        // errors propagate to every coalesced waiter too.
        std::thread::sleep(std::time::Duration::from_millis(20));
        table.publish("k", &flight, Response::error(429, "queue full"));
        for w in waiters {
            assert_eq!(w.join().expect("waiter"), 429);
        }
        // The flight retired: the next join leads again.
        assert!(matches!(table.join("k"), Role::Leader(_)));
    }
}
