//! Seeded inputs. Every byte the server receives — request bodies, trace
//! containers, the order of operations — is a pure function of `--seed`;
//! the server only ever sees the bytes.

use std::collections::HashMap;
use std::sync::Arc;

use suit_exec::Threads;
use suit_rng::{Rng, SuitRng};
use suit_serve::api::{self, Deadline, Job, TraceJob};
use suit_serve::cache;
use suit_serve::{StoredTrace, TraceStore};
use suit_trace::io::TraceMeta;
use suit_trace::{profile, Burst, TraceGen};

/// Profiles recorded into the store workloads' traces. Event-dense
/// profiles stay out: a 20k-burst Nginx trace holds ~2.2e9 faultable
/// events, which trips the engine's 2e9-step convergence guard and turns
/// every replay into a `500`.
pub const TRACE_WORKLOADS: [&str; 4] = ["502.gcc", "557.xz", "505.mcf", "525.x264"];
/// Bursts per recorded trace (~150 KB containers).
pub const TRACE_BURSTS: usize = 20_000;
/// Strategies a recorded trace can replay under.
pub const STRATEGIES: [&str; 4] = ["fv", "f", "v", "adaptive"];
/// `serve_hot` working-set size; each entry has two spellings.
pub const HOT_ENTRIES: usize = 64;

const HOT_INSTS: u64 = 1_000_000_000;
const COLD_INSTS: u64 = 2_000_000_000;
const BATCH_INSTS: u64 = 1_000_000_000;
const BATCH_WORKLOADS: usize = 4;
const FAULT_EXECUTIONS: u64 = 10_000_000;

/// Fork ids separating the seeded streams.
const HOT_SET: u64 = 1 << 40;
const TRACE_SET: u64 = 2 << 40;
const MC_SET: u64 = 3 << 40;
const DECK_SET: u64 = 1 << 50;

/// One recorded trace, packed the way a client would upload it.
pub struct Trace {
    /// Header metadata; `total_insts` is the bursts' own total, so the
    /// whole trace replays.
    pub meta: TraceMeta,
    /// The bursts, in memory.
    pub bursts: Vec<Burst>,
    /// The packed `SUITTRC2` container.
    pub container: Vec<u8>,
    /// The store's content-addressed ID for the container.
    pub id: String,
    /// Σ `Burst::events` — what a full replay must report.
    pub events: u64,
    /// Wall time `pack_to_vec` took, seconds.
    pub pack_s: f64,
}

/// The four recorded traces of `seed`.
pub fn traces(seed: u64) -> Vec<Trace> {
    let root = SuitRng::seed_from_u64(seed).fork(TRACE_SET);
    TRACE_WORKLOADS
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let p = profile::by_name(name).expect("trace workloads are built-in profiles");
            let base = root.fork(i as u64).u64();
            // One generator pass is finite (a few thousand bursts), so
            // chain reseeded passes up to the target length.
            let bursts: Vec<Burst> = (0u64..)
                .flat_map(|pass| TraceGen::new(p, base.wrapping_add(pass)))
                .take(TRACE_BURSTS)
                .collect();
            // The virtual length must cover every burst: a header that
            // claims one profile pass (as `suit-bench`'s trace_replay
            // does) silently replays only its first few thousand.
            let meta = TraceMeta {
                name: p.name.to_string(),
                ipc: p.ipc,
                total_insts: bursts.iter().map(Burst::total_insts).sum(),
            };
            let started = std::time::Instant::now();
            let container = suit_store::pack_to_vec(
                &meta,
                bursts.iter().copied(),
                suit_store::DEFAULT_CHUNK_BURSTS,
            )
            .expect("generated traces pack");
            let pack_s = started.elapsed().as_secs_f64();
            Trace {
                id: TraceStore::id_for(&container),
                events: bursts.iter().map(|b| u64::from(b.events)).sum(),
                meta,
                bursts,
                container,
                pack_s,
            }
        })
        .collect()
}

/// The store entry the server builds for an uploaded container.
pub fn stored(container: &[u8]) -> StoredTrace {
    let info = suit_store::open_bytes(container)
        .expect("generated containers open")
        .info();
    StoredTrace {
        bytes: Arc::new(container.to_vec()),
        workload: info.meta.name,
        ipc: info.meta.ipc,
        total_insts: info.meta.total_insts,
        bursts: info.bursts,
        chunks: info.chunks,
    }
}

/// The body `POST /v1/trace` answers for `container`.
pub fn upload_body(container: &[u8], created: bool) -> String {
    let id = TraceStore::id_for(container);
    format!(
        "{{\"created\":{created},\"trace\":{}}}",
        api::trace_info_json(&id, &stored(container))
    )
}

/// A complete `POST` request on a keep-alive connection.
pub fn post(path: &str, extra_headers: &str, body: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "POST {path} HTTP/1.1\r\nhost: bench\r\ncontent-length: {}\r\n{extra_headers}\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

/// The generator for op `k` of `client`: its own fork, so the request
/// sequence is fixed however the clients interleave.
pub fn op_rng(seed: u64, client: usize, k: u64) -> SuitRng {
    SuitRng::seed_from_u64(seed).fork(client as u64).fork(k)
}

/// The slot op `k` of `client` draws from a deck of `n` slots: each block
/// of `n` consecutive ops is a seeded shuffle of `0..n`. A run's mix is
/// then fixed however long it lasts and only the order follows the seed;
/// drawing kinds at random instead moved throughput by ~8% between seeds.
fn deck(seed: u64, client: usize, k: u64, n: usize) -> usize {
    let mut order: Vec<usize> = (0..n).collect();
    let block = k / n as u64;
    let mut rng = SuitRng::seed_from_u64(seed)
        .fork(client as u64)
        .fork(DECK_SET + block);
    rng.shuffle(&mut order);
    order[(k % n as u64) as usize]
}

/// A job seed unique to `(client, k)` within a run, so no two requests
/// share a cache entry; the high bits follow `--seed`.
fn job_seed(rng: &mut SuitRng, client: usize, k: u64) -> u64 {
    assert!(
        k < 1 << 32 && client < 2,
        "op index out of the unique-seed range"
    );
    ((rng.u64() >> 44) << 33) | ((client as u64) << 32) | k
}

fn pick<'a>(rng: &mut SuitRng, items: &[&'a str]) -> &'a str {
    items[rng.gen_range(0..items.len())]
}

/// `serve_hot`'s working set: every profile in turn (so warming it costs
/// the same for every seed), each entry as two bodies that differ in key
/// order and whitespace but canonicalise to one cache key.
pub fn hot_bodies(seed: u64) -> Vec<[String; 2]> {
    let mut rng = SuitRng::seed_from_u64(seed).fork(HOT_SET);
    let all = profile::all();
    (0..HOT_ENTRIES)
        .map(|e| {
            let workload = all[e % all.len()].name;
            let strategy = pick(&mut rng, &STRATEGIES);
            let seed = rng.gen_range(0..1u64 << 32);
            [
                format!(
                    "{{\"workload\":\"{workload}\",\"strategy\":\"{strategy}\",\
                     \"insts\":{HOT_INSTS},\"seed\":{seed}}}"
                ),
                format!(
                    " {{ \"seed\" : {seed} ,\n  \"insts\" : {HOT_INSTS} , \"strategy\" : \
                     \"{strategy}\" , \"workload\" : \"{workload}\" }} "
                ),
            ]
        })
        .collect()
}

/// The strong ETag the service mints for a `/v1/simulate` body.
pub fn simulate_etag(body: &str) -> String {
    let (job, _) = api::parse_simulate(body).expect("generated bodies are valid");
    cache::etag_for(&cache::canonical_job(&job))
}

/// One `serve_hot` op: which entry, which spelling, and whether it
/// revalidates with `If-None-Match` (1 in 4).
pub fn hot_op(seed: u64, client: usize, k: u64) -> (usize, usize, bool) {
    let x = op_rng(seed, client, k).u64();
    (
        (x % HOT_ENTRIES as u64) as usize,
        ((x >> 8) & 1) as usize,
        (x >> 16).is_multiple_of(4),
    )
}

/// One `serve_cold` request. A deck of ten slots per profile holds six
/// `/v1/simulate` (that profile at 2e9 instructions, strategy fv, f, v or
/// adaptive), and one each of the SRAM scenario, the Scrooge scenario, a
/// 1e7-execution fault campaign, and a 4-workload batch at 1e9 (batches
/// cover every profile four times). Every request carries a distinct
/// seed, so all miss.
pub fn cold_request(seed: u64, client: usize, k: u64) -> (&'static str, String) {
    let all = profile::all();
    let n = all.len();
    let slot = deck(seed, client, k, 10 * n);
    let mut rng = op_rng(seed, client, k);
    let s = job_seed(&mut rng, client, k);
    match slot / n {
        0..=5 => {
            let workload = all[slot % n].name;
            let strategy = pick(&mut rng, &STRATEGIES);
            (
                "/v1/simulate",
                format!(
                    "{{\"workload\":\"{workload}\",\"strategy\":\"{strategy}\",\
                     \"insts\":{COLD_INSTS},\"seed\":{s}}}"
                ),
            )
        }
        6 => (
            "/v1/scenario",
            format!("{{\"scenario\":\"sram\",\"seed\":{s}}}"),
        ),
        7 => (
            "/v1/scenario",
            format!("{{\"scenario\":\"scrooge\",\"seed\":{s}}}"),
        ),
        8 => (
            "/v1/faults",
            format!("{{\"executions\":{FAULT_EXECUTIONS},\"seed\":{s}}}"),
        ),
        _ => {
            let names: Vec<String> = (0..BATCH_WORKLOADS)
                .map(|j| format!("\"{}\"", all[(BATCH_WORKLOADS * (slot % n) + j) % n].name))
                .collect();
            (
                "/v1/batch",
                format!(
                    "{{\"workloads\":[{}],\"insts\":{BATCH_INSTS},\"seed\":{s}}}",
                    names.join(",")
                ),
            )
        }
    }
}

/// One `trace_ingest` op: which stored container to re-upload.
pub fn ingest_op(seed: u64, client: usize, k: u64) -> usize {
    deck(seed, client, k, TRACE_WORKLOADS.len())
}

/// `trace_replay`'s deck: trace index per slot (strategy = slot mod 4).
/// 502.gcc holds half the slots so the median falls inside its latency
/// mode; with equal shares it sat on the boundary between the fast
/// (557.xz, 525.x264) and slow (502.gcc, 505.mcf) halves and jumped
/// between runs. 505.mcf, the slowest, sets the tail.
const REPLAY_DECK: [usize; 16] = [0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 2, 2, 3, 3, 3];

/// One `trace_replay` request: a trace × strategy with a distinct seed.
pub fn replay_request(seed: u64, client: usize, k: u64, traces: &[Trace]) -> (usize, String) {
    let slot = deck(seed, client, k, REPLAY_DECK.len());
    let t = REPLAY_DECK[slot];
    let s = job_seed(&mut op_rng(seed, client, k), client, k);
    (
        t,
        format!(
            "{{\"trace\":\"{}\",\"strategy\":\"{}\",\"seed\":{s}}}",
            traces[t].id,
            STRATEGIES[slot % STRATEGIES.len()]
        ),
    )
}

/// The Monte-Carlo campaign's root seed.
pub fn mc_seed(seed: u64) -> u64 {
    SuitRng::seed_from_u64(seed).fork(MC_SET).u64()
}

/// Validates a compute request body the way the server does.
pub fn parse_job(
    path: &str,
    body: &str,
    store: &HashMap<String, StoredTrace>,
) -> Result<Job, String> {
    let parsed = match path {
        "/v1/simulate" => api::parse_simulate(body),
        "/v1/batch" => api::parse_batch(body),
        "/v1/faults" => api::parse_faults(body),
        "/v1/scenario" => api::parse_scenario(body),
        "/v1/simulate-trace" => api::parse_simulate_trace(body).and_then(|(spec, d)| {
            let stored = store
                .get(&spec.trace)
                .cloned()
                .ok_or_else(|| api::BadRequest(format!("no stored trace '{}'", spec.trace)))?;
            Ok((Job::SimulateTrace(Box::new(TraceJob { spec, stored })), d))
        }),
        other => return Err(format!("no compute endpoint '{other}'")),
    };
    parsed.map(|(job, _)| job).map_err(|e| e.0)
}

/// Runs a job in process with the server's worker policy — the oracle a
/// served body must equal byte for byte.
pub fn execute(job: &Job) -> Result<String, String> {
    api::execute(job, Threads::Fixed(2), Deadline(None)).map_err(|e| format!("{e:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Workload;

    /// The engine's convergence guard (`suit-sim` arena loop steps).
    const ENGINE_STEP_GUARD: u64 = 2_000_000_000;

    /// Digest of everything `w` sends for `seed`: set-up uploads or warm-up
    /// bodies plus the first `ops` requests of each client.
    fn stream_digest(w: Workload, seed: u64, ops: u64) -> u128 {
        let mut bytes: Vec<u8> = Vec::new();
        match w {
            Workload::ServeHot => {
                for [a, b] in hot_bodies(seed) {
                    bytes.extend_from_slice(a.as_bytes());
                    bytes.extend_from_slice(b.as_bytes());
                }
                for c in 0..w.clients() {
                    for k in 0..ops {
                        let (e, s, inm) = hot_op(seed, c, k);
                        bytes.extend_from_slice(format!("{e}/{s}/{inm};").as_bytes());
                    }
                }
            }
            Workload::ServeCold => {
                for c in 0..w.clients() {
                    for k in 0..ops {
                        let (path, body) = cold_request(seed, c, k);
                        bytes.extend_from_slice(&post(path, "", body.as_bytes()));
                    }
                }
            }
            Workload::TraceIngest | Workload::TraceReplay => {
                let traces = traces(seed);
                for t in &traces {
                    bytes.extend_from_slice(&t.container);
                }
                for c in 0..w.clients() {
                    for k in 0..ops {
                        if w == Workload::TraceIngest {
                            bytes.push(ingest_op(seed, c, k) as u8);
                        } else {
                            bytes.extend_from_slice(
                                replay_request(seed, c, k, &traces).1.as_bytes(),
                            );
                        }
                    }
                }
            }
            Workload::McSweep => bytes.extend_from_slice(&mc_seed(seed).to_le_bytes()),
        }
        cache::content_hash(&bytes)
    }

    #[test]
    fn request_streams_are_a_pure_function_of_the_seed() {
        for w in Workload::ALL {
            let a = stream_digest(w, 7, 64);
            assert_eq!(
                a,
                stream_digest(w, 7, 64),
                "{}: same seed, other bytes",
                w.name()
            );
            assert_ne!(a, stream_digest(w, 8, 64), "{}: seed ignored", w.name());
        }
    }

    #[test]
    fn traces_replay_whole_and_stay_below_the_engine_guard() {
        for seed in [1, 2, 3] {
            for t in traces(seed) {
                assert_eq!(t.bursts.len(), TRACE_BURSTS);
                let total: u64 = t.bursts.iter().map(Burst::total_insts).sum();
                assert_eq!(
                    t.meta.total_insts, total,
                    "{}: header truncates replay",
                    t.meta.name
                );
                // The guard counts engine steps, about one per event
                // (Nginx's 2.16e9 events trip it); keep a 10x margin.
                assert!(
                    t.events < ENGINE_STEP_GUARD / 10,
                    "{}: {} events approach the engine's step guard",
                    t.meta.name,
                    t.events
                );
            }
        }
    }

    #[test]
    fn hot_spellings_share_one_cache_key() {
        for [a, b] in hot_bodies(3) {
            assert_ne!(a, b);
            assert_eq!(simulate_etag(&a), simulate_etag(&b));
        }
    }

    #[test]
    fn cold_requests_validate_and_never_repeat() {
        let store = HashMap::new();
        let mut keys = std::collections::HashSet::new();
        for c in 0..2 {
            for k in 0..300 {
                let (path, body) = cold_request(5, c, k);
                let job = parse_job(path, &body, &store).expect("valid request");
                assert!(
                    keys.insert(cache::canonical_job(&job)),
                    "repeated request {body}"
                );
            }
        }
    }
}
