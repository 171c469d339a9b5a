//! End-to-end tests for the out-of-core trace pipeline: bounded-memory
//! streaming replay out of `SUITTRC3` containers, index seeks, and the
//! `/v1/trace` + `/v1/simulate-trace` service path.
//!
//! The load-bearing assertions are the byte-identity ones: a simulation
//! fed bursts streamed chunk-by-chunk out of a container —
//! one decoded chunk at a time, across a 64+-chunk trace — must produce
//! exactly the result of the same simulation fed the fully-loaded burst
//! vector, and the `/v1/simulate-trace` response must equal the JSON the
//! direct API produces, at one worker and at four.

use std::sync::Arc;
use std::time::Duration;

use suit::core::strategy::StrategyParams;
use suit::core::StrategyKey;
use suit::exec::Threads;
use suit::hw::{CpuModel, UndervoltLevel};
use suit::serve::api;
use suit::serve::{
    request_bytes, request_text, ServeConfig, Server, ShutdownHandle, StoredTrace, TraceStore,
};
use suit::sim::engine::{run_stream, SimConfig};
use suit::store;
use suit::trace::event::Burst;
use suit::trace::io::TraceMeta;
use suit::trace::{profile, TraceGen};
use suit_rng::SuitRng;

const TIMEOUT: Duration = Duration::from_secs(120);

/// The shared test trace: the full (finite) 502.gcc burst stream.
fn test_trace() -> (TraceMeta, Vec<Burst>) {
    let p = profile::by_name("502.gcc").expect("502.gcc profile");
    let meta = TraceMeta {
        name: p.name.into(),
        ipc: p.ipc,
        total_insts: p.total_insts,
    };
    (meta, TraceGen::new(p, 0x7AC3).collect())
}

/// One replay configuration used across the identity tests.
fn replay_cfg(strategy: StrategyKey, seed: u64) -> SimConfig {
    SimConfig {
        strategy,
        params: StrategyParams::intel(),
        level: UndervoltLevel::Mv97,
        cores: 1,
        seed,
        max_insts: None,
    }
}

#[test]
fn streaming_replay_matches_full_load_byte_for_byte() {
    let (meta, bursts) = test_trace();
    let cpu = CpuModel::xeon_4208();

    // Small chunks so the trace spans well over 64 chunks: the decoded
    // chunk is genuinely replaced many times.
    let chunk_bursts = 32;
    let packed = store::pack_to_vec(&meta, bursts.iter().copied(), chunk_bursts).expect("pack");
    let chunks = store::open_bytes(&packed).expect("open").info().chunks;
    assert!(
        chunks >= 64,
        "need a 64+-chunk trace to exercise chunk replacement, got {chunks}"
    );

    for strategy in [
        StrategyKey::FreqVolt,
        StrategyKey::Frequency,
        StrategyKey::Voltage,
    ] {
        let cfg = replay_cfg(strategy, 0xD15C);
        let full = run_stream(&cpu, &meta, bursts.iter().copied(), &cfg);

        // Stream out of the container and compare the result.
        let reader = store::open_bytes(&packed).expect("open");
        let meta2 = reader.meta().clone();
        let it = reader.bursts();
        let streamed = run_stream(&cpu, &meta2, it, &cfg);

        assert_eq!(
            api::run_result_json(&full),
            api::run_result_json(&streamed),
            "streaming replay diverged from full-load replay under {strategy:?}"
        );
    }

    // The memory bound, observed directly: drain the whole container
    // and check that at most one chunk was ever resident.
    let mut reader = store::open_bytes(&packed).expect("open");
    while reader.next_burst().expect("decode").is_some() {}
    assert!(
        reader.peak_resident_bursts() <= chunk_bursts,
        "reader leaked: {} resident bursts across {chunks} chunks (cap {chunk_bursts})",
        reader.peak_resident_bursts(),
    );
    assert!(
        reader.chunk_decodes() >= chunks,
        "every chunk must have been decoded at least once"
    );
}

#[test]
fn seek_matches_skip_from_start_on_a_recorded_trace() {
    let (meta, bursts) = test_trace();
    let packed = store::pack_to_vec(&meta, bursts.iter().copied(), 64).expect("pack");

    // Burst start offsets by the skip-from-start definition.
    let mut starts = Vec::with_capacity(bursts.len());
    let mut v = 0u64;
    for b in &bursts {
        starts.push(v);
        v += b.total_insts();
    }
    let total = v;

    for target in [
        0,
        1,
        total / 7,
        total / 3,
        total / 2,
        total - 1,
        total,
        total + 12345,
    ] {
        let mut reader = store::open_bytes(&packed).expect("open");
        let start = reader.seek_to_vtime(target).expect("seek");
        let landed = reader.next_burst().expect("read");
        let expect = starts
            .iter()
            .zip(&bursts)
            .enumerate()
            .find(|(_, (&s, b))| s + b.total_insts() > target)
            .map(|(i, (&s, _))| (i, s));
        match (expect, landed) {
            (Some((i, s)), Some(b)) => {
                assert_eq!(start, s, "seek({target}) start vtime");
                assert_eq!(b, bursts[i], "seek({target}) landed burst");
                // O(log n) seek: at most one chunk decoded.
                assert!(reader.chunk_decodes() <= 2, "seek decoded too many chunks");
            }
            (None, None) => assert_eq!(start, total, "past-end seek reports total"),
            (want, got) => panic!("seek({target}): expected {want:?}, landed {got:?}"),
        }
    }
}

// ---------------------------------------------------------------------
// Service path
// ---------------------------------------------------------------------

fn start(
    cfg: ServeConfig,
) -> (
    String,
    ShutdownHandle,
    std::thread::JoinHandle<std::io::Result<()>>,
) {
    let server = Server::bind("127.0.0.1:0", cfg).expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr").to_string();
    let handle = server.shutdown_handle();
    let join = std::thread::spawn(move || server.run());
    (addr, handle, join)
}

fn stop(handle: ShutdownHandle, join: std::thread::JoinHandle<std::io::Result<()>>) {
    handle.shutdown();
    join.join().expect("server thread").expect("server run");
}

/// The trace store's entry and byte counts, as `/v1/metrics` reports them.
fn trace_store_usage(addr: &str) -> (f64, f64) {
    let metrics = request_text(addr, "GET", "/v1/metrics", None, TIMEOUT).expect("metrics");
    let doc = suit::telemetry::json::parse(&metrics).expect("metrics JSON");
    let traces = doc.get("traces").expect("traces section");
    let count = |key| traces.get(key).and_then(|v| v.as_f64()).expect(key);
    (count("entries"), count("bytes"))
}

/// The exact response `/v1/simulate-trace` must produce, computed with
/// the direct API: same seed forking, same configs, same serializers.
fn expected_simulate_trace_body(
    packed: &[u8],
    id: &str,
    strategies: &[&str],
    cpu: &CpuModel,
    seed: u64,
) -> String {
    let reader = store::open_bytes(packed).expect("open");
    let info = reader.info();
    let root = SuitRng::seed_from_u64(seed);
    let items: Vec<String> = strategies
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let strategy: StrategyKey = s.parse().expect("strategy key");
            let cfg = replay_cfg(strategy, root.fork(i as u64).root_seed());
            let reader = store::open_bytes(packed).expect("open");
            let meta = reader.meta().clone();
            let r = run_stream(cpu, &meta, reader.bursts(), &cfg);
            format!(
                "{{\"strategy\":\"{s}\",\"result\":{}}}",
                api::run_result_json(&r)
            )
        })
        .collect();
    let stored = StoredTrace {
        bytes: Arc::new(packed.to_vec()),
        workload: info.meta.name.clone(),
        ipc: info.meta.ipc,
        total_insts: info.meta.total_insts,
        bursts: info.bursts,
        chunks: info.chunks,
    };
    format!(
        "{{\"trace\":{},\"results\":[{}]}}",
        api::trace_info_json(id, &stored),
        items.join(",")
    )
}

#[test]
fn served_trace_replay_is_byte_identical_to_the_direct_api_at_any_worker_count() {
    let (meta, bursts) = test_trace();
    let packed = store::pack_to_vec(&meta, bursts.iter().copied(), 256).expect("pack");
    let id = TraceStore::id_for(&packed);
    let cpu = CpuModel::xeon_4208();
    let strategies = ["fv", "f", "v", "adaptive"];
    let expect = expected_simulate_trace_body(&packed, &id, &strategies, &cpu, 0x5017);
    let body = format!(
        "{{\"trace\":\"{id}\",\"strategies\":[\"fv\",\"f\",\"v\",\"adaptive\"],\
         \"cpu\":\"c\",\"offset\":97}}"
    );

    for workers in [1, 4] {
        let (addr, handle, join) = start(ServeConfig {
            threads: Threads::Fixed(workers),
            ..ServeConfig::default()
        });

        // Upload: created on first sight…
        let up = request_bytes(&addr, "POST", "/v1/trace", &packed, TIMEOUT).expect("upload");
        assert_eq!(up.status, 200, "upload failed: {:?}", up.text());
        let up_text = up.text().expect("upload body").to_string();
        assert!(
            up_text.starts_with("{\"created\":true,"),
            "first upload must create: {up_text}"
        );
        assert!(up_text.contains(&id), "upload response must carry the id");

        // …idempotent on the second.
        let again = request_bytes(&addr, "POST", "/v1/trace", &packed, TIMEOUT).expect("re-upload");
        assert!(
            again
                .text()
                .expect("body")
                .starts_with("{\"created\":false,"),
            "re-upload must dedup"
        );

        // Info endpoint sees it.
        let info =
            request_text(&addr, "GET", &format!("/v1/trace/{id}"), None, TIMEOUT).expect("info");
        assert!(info.contains(&id) && info.contains("502.gcc"), "{info}");

        // Replay is byte-identical to the direct API.
        let got = request_text(&addr, "POST", "/v1/simulate-trace", Some(&body), TIMEOUT)
            .expect("simulate-trace");
        assert_eq!(
            got, expect,
            "/v1/simulate-trace diverged from the direct API at {workers} worker(s)"
        );

        stop(handle, join);
    }
}

#[test]
fn trace_store_full_corrupt_and_missing_are_structured_errors() {
    let (meta, bursts) = test_trace();
    let packed = store::pack_to_vec(&meta, bursts.iter().copied(), 256).expect("pack");
    let id = TraceStore::id_for(&packed);

    let (addr, handle, join) = start(ServeConfig {
        trace_entries: 1,
        ..ServeConfig::default()
    });

    // Fill the single-entry store.
    let up = request_bytes(&addr, "POST", "/v1/trace", &packed, TIMEOUT).expect("upload");
    assert_eq!(up.status, 200);

    // A different trace is refused with a structured 413.
    let other = store::pack_to_vec(&meta, bursts.iter().rev().copied(), 256).expect("pack other");
    let full = request_bytes(&addr, "POST", "/v1/trace", &other, TIMEOUT).expect("post");
    assert_eq!(full.status, 413, "{:?}", full.text());
    assert!(
        full.text().expect("body").contains("trace store is full"),
        "413 must explain itself"
    );

    // Re-uploading the stored trace stays idempotent even when full, and
    // stores nothing: the store's entry and byte counts do not move.
    let usage = trace_store_usage(&addr);
    let again = request_bytes(&addr, "POST", "/v1/trace", &packed, TIMEOUT).expect("re-upload");
    assert_eq!(again.status, 200);
    assert!(again
        .text()
        .expect("body")
        .starts_with("{\"created\":false,"));
    assert_eq!(trace_store_usage(&addr), usage);
    assert_eq!(usage, (1.0, packed.len() as f64));

    // Every chunk is checked, the last one included.
    let last = *store::open_bytes(&packed)
        .expect("open")
        .index()
        .last()
        .expect("a chunk");
    let mut bad = packed.clone();
    bad[(last.offset + u64::from(last.body_len) / 2) as usize] ^= 0x01;
    let resp = request_bytes(&addr, "POST", "/v1/trace", &bad, TIMEOUT).expect("post bad tail");
    assert_eq!(resp.status, 400, "{:?}", resp.text());
    assert!(
        resp.text()
            .expect("body")
            .contains("invalid trace container: corrupt container: chunk checksum mismatch"),
        "{:?}",
        resp.text()
    );

    // Corruption in any region — header, chunk payload, index — is a
    // structured 400, never a panic.
    for at in [0, 9, packed.len() / 2, packed.len() - 5] {
        let mut bad = packed.clone();
        bad[at] ^= 0xFF;
        let resp = request_bytes(&addr, "POST", "/v1/trace", &bad, TIMEOUT).expect("post corrupt");
        assert!(
            resp.status == 400 || resp.status == 413,
            "corrupt byte {at}: expected 400 (or 413 for a still-valid container), got {}",
            resp.status
        );
    }
    let resp = request_bytes(&addr, "POST", "/v1/trace", b"", TIMEOUT).expect("post empty");
    assert_eq!(resp.status, 400, "empty upload must be a 400");

    // Simulating a trace that is not stored is a 404 with a hint.
    let missing = format!("{{\"trace\":\"{}\"}}", "0".repeat(32));
    let err = request_text(&addr, "POST", "/v1/simulate-trace", Some(&missing), TIMEOUT)
        .expect_err("unknown trace must fail");
    assert!(err.starts_with("HTTP 404"), "{err}");
    assert!(
        err.contains("/v1/trace"),
        "404 must point at the upload path"
    );

    // And the happy replay still works on the stored one.
    let ok = request_text(
        &addr,
        "POST",
        "/v1/simulate-trace",
        Some(&format!("{{\"trace\":\"{id}\"}}")),
        TIMEOUT,
    )
    .expect("replay stored trace");
    assert!(ok.contains("\"results\":["), "{ok}");

    stop(handle, join);
}
