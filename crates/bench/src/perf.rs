//! The performance benches: the bodies of the [`crate::PERF`] rows.
//! Four write the committed `BENCH_*.json` baselines; the rest only
//! print.
//!
//! Every document is written through [`crate::emit::BenchDoc`], so all
//! baselines share the one schema and are validated with the in-tree
//! JSON parser before they touch disk.

use std::hint::black_box;
use std::time::Instant;

use suit_emu::aes::{bitsliced, reference, Aes128Key};
use suit_emu::{emulate, EmuOperands};
use suit_exec::Threads;
use suit_hw::{CpuModel, UndervoltLevel};
use suit_isa::{Opcode, Vec128};
use suit_ooo::config::O3Config;
use suit_ooo::core::O3Core;
use suit_ooo::workload::UopStream;
use suit_rng::{Rng, SuitRng};
use suit_scenarios::{scrooge, sram, ScroogeConfig, SramScenarioConfig};
use suit_sim::engine::{run_stream, simulate, SimConfig};
use suit_sim::fleet::{FleetConfig, FleetSim};
use suit_sim::legacy;
use suit_sim::montecarlo::monte_carlo_with_threads;
use suit_store as store;
use suit_telemetry::{Counter, Telemetry};
use suit_trace::event::TraceSummary;
use suit_trace::io::TraceMeta;
use suit_trace::{profile, TraceGen};

use crate::emit::{read_section, BenchDoc, Val};
use crate::harness::{bench, bench_per_call, bench_with_throughput, Measurement};
use crate::{Opts, Scale, ARTEFACTS};

/// Options shared by the perf benches.
#[derive(Debug, Clone, Default)]
pub struct PerfOpts {
    /// Shrink the scenario and assert sanity bounds (the CI mode).
    pub test_mode: bool,
    /// Write the measurement document to this path.
    pub json_path: Option<String>,
}

fn ms(m: &Measurement) -> f64 {
    m.median.as_secs_f64() * 1e3
}

/// The engine hot-path bench: single-thread Monte-Carlo throughput,
/// quantum-loop ns per faultable-instruction event, and bit-sliced AES
/// blocks/s — the headline numbers of the data-layout refactor — plus
/// one campaign-length Nginx run. 502.gcc averages ~550 events per
/// burst, Nginx ~50k, so only the Nginx cell shows what the lone-core
/// fast path's closed-form batching buys.
///
/// The emitted `BENCH_engine.json` carries a `baseline` section and a
/// `current` section. On the first run both are the fresh measurement;
/// on every later run the existing file's `baseline` (falling back to
/// its `current`) is carried forward verbatim, so the committed document
/// always shows the pre-refactor numbers next to today's.
pub fn engine_hotpath(opts: &PerfOpts) {
    let cpu = CpuModel::xeon_4208();
    let p = profile::by_name("502.gcc").expect("502.gcc profile");

    let mc_insts: u64 = if opts.test_mode {
        20_000_000
    } else {
        1_000_000_000
    };
    let mc_runs: usize = if opts.test_mode { 2 } else { 8 };
    let quantum_insts: u64 = if opts.test_mode {
        50_000_000
    } else {
        2_000_000_000
    };
    let nginx_insts: u64 = if opts.test_mode {
        200_000_000
    } else {
        2_000_000_000
    };

    println!(
        "engine_hotpath: 502.gcc fv -97 mV, mc {mc_runs} runs x {mc_insts} insts (1 thread), \
         quantum loop {quantum_insts} insts, Nginx {nginx_insts} insts, bit-sliced AES\n"
    );

    // (1) Single-thread Monte-Carlo throughput: the metric the ROADMAP
    // speed item targets. Per-run sampled delays + trace seeds, exactly
    // the production campaign, pinned to one worker.
    let mc_cfg = SimConfig::fv_intel(UndervoltLevel::Mv97).with_max_insts(mc_insts);
    let mc = bench_with_throughput("monte_carlo (1 thread)", Some(mc_runs as u64), || {
        monte_carlo_with_threads(&cpu, p, &mc_cfg, mc_runs, 1)
    });
    let mc_runs_per_s = mc_runs as f64 / mc.median.as_secs_f64().max(1e-12);

    // (2) Quantum-loop cost: one deterministic engine run, normalised to
    // ns per faultable-instruction event.
    let q_cfg = SimConfig::fv_intel(UndervoltLevel::Mv97).with_max_insts(quantum_insts);
    let q_result = simulate(&cpu, p, &q_cfg);
    let quantum = bench_with_throughput("quantum_loop (events)", Some(q_result.events), || {
        simulate(&cpu, p, &q_cfg)
    });
    let quantum_ns_per_event = quantum.median.as_secs_f64() * 1e9 / q_result.events.max(1) as f64;

    // (3) A campaign-length crypto run: Nginx's AES bursts, tens of
    // thousands of events each, are where the fast path batches.
    let nginx = profile::by_name("Nginx").expect("Nginx profile");
    let n_cfg = SimConfig::fv_intel(UndervoltLevel::Mv97).with_max_insts(nginx_insts);
    let n_result = simulate(&cpu, nginx, &n_cfg);
    let nginx_run = bench_with_throughput("nginx_campaign (events)", Some(n_result.events), || {
        simulate(&cpu, nginx, &n_cfg)
    });
    let nginx_ns_per_event = nginx_run.median.as_secs_f64() * 1e9 / n_result.events.max(1) as f64;

    // (4) Bit-sliced AES block throughput through the 4-wide kernel
    // (`aes_width` blocks per invocation), the batch the GCM keystream
    // uses — the same kernel the committed baseline timed.
    let key = Aes128Key::expand([0x42; 16]);
    let blocks: [Vec128; 4] =
        std::array::from_fn(|i| Vec128::from_u128(0x0123_4567_89ab_cdef ^ ((i as u128) << 96)));
    let aes_width: u64 = 4;
    let aes = bench_with_throughput("aes_encrypt128_x4 (blocks)", Some(aes_width), || {
        bitsliced::encrypt128_x4(&key, black_box(blocks))
    });
    let aes_blocks_per_s = aes_width as f64 / aes.median.as_secs_f64().max(1e-12);

    println!(
        "\nmc {mc_runs_per_s:.2} runs/s (1 thread), quantum {quantum_ns_per_event:.1} ns/event \
         ({} events), nginx {:.3} ms ({nginx_ns_per_event:.4} ns/event over {} events), \
         aes {aes_blocks_per_s:.3e} blocks/s (x{aes_width})",
        q_result.events,
        ms(&nginx_run),
        n_result.events
    );

    if let Some(path) = &opts.json_path {
        let mut doc = BenchDoc::new("engine_hotpath");
        doc.config("workload", Val::Str("502.gcc".into()));
        doc.config("strategy", Val::Str("fv".into()));
        doc.config("mc_runs", Val::U64(mc_runs as u64));
        doc.config("mc_insts", Val::U64(mc_insts));
        doc.config("mc_threads", Val::U64(1));
        doc.config("quantum_insts", Val::U64(quantum_insts));
        doc.config("nginx_insts", Val::U64(nginx_insts));

        // Carry the committed baseline forward; first run seeds it with
        // the fresh measurement.
        let prior = std::fs::read_to_string(path).ok();
        let baseline = prior
            .as_deref()
            .and_then(|doc| read_section(doc, "baseline").or_else(|| read_section(doc, "current")));
        // `median_ms` is the headline metric of the document: the wall
        // time of one single-thread Monte-Carlo batch.
        let current: Vec<(String, Val)> = vec![
            ("median_ms".into(), Val::F64(ms(&mc), 3)),
            ("mc_runs_per_s".into(), Val::F64(mc_runs_per_s, 2)),
            ("quantum_median_ms".into(), Val::F64(ms(&quantum), 3)),
            (
                "quantum_ns_per_event".into(),
                Val::F64(quantum_ns_per_event, 2),
            ),
            ("quantum_events".into(), Val::U64(q_result.events)),
            ("nginx_median_ms".into(), Val::F64(ms(&nginx_run), 3)),
            ("nginx_ns_per_event".into(), Val::F64(nginx_ns_per_event, 4)),
            ("nginx_events".into(), Val::U64(n_result.events)),
            (
                "aes_median_ns".into(),
                Val::F64(aes.median.as_nanos() as f64, 0),
            ),
            ("aes_blocks_per_s".into(), Val::F64(aes_blocks_per_s, 0)),
            ("aes_width".into(), Val::U64(aes_width)),
        ];
        let baseline = baseline.unwrap_or_else(|| current.clone());
        if let Some((_, Val::F64(base_rate, _))) =
            baseline.iter().find(|(k, _)| k == "mc_runs_per_s")
        {
            println!(
                "speedup vs committed baseline: mc {:.2}x",
                mc_runs_per_s / base_rate.max(1e-12)
            );
        }
        doc.section_from("baseline", &baseline);
        doc.section_from("current", &current);
        doc.write(path);
    }

    if opts.test_mode {
        // Determinism contract first, sanity floors second.
        let a = monte_carlo_with_threads(&cpu, p, &mc_cfg, mc_runs, 1);
        let b = monte_carlo_with_threads(&cpu, p, &mc_cfg, mc_runs, 4);
        assert_eq!(a, b, "monte carlo must be thread-invariant");
        assert_eq!(
            q_result,
            simulate(&cpu, p, &q_cfg),
            "engine must be deterministic"
        );
        assert_eq!(
            format!("{n_result:?}"),
            format!("{:?}", legacy::simulate(&cpu, nginx, &n_cfg)),
            "batched Nginx run must equal the per-event legacy loop"
        );
        assert!(
            mc_runs_per_s > 0.05,
            "mc below floor: {mc_runs_per_s:.3} runs/s"
        );
        assert!(
            quantum_ns_per_event < 100_000.0,
            "quantum loop implausibly slow: {quantum_ns_per_event:.0} ns/event"
        );
        assert!(
            aes_blocks_per_s > 1_000.0,
            "aes below floor: {aes_blocks_per_s:.0}"
        );
        println!("OK: engine hot-path deterministic and within sanity bounds");
    }
}

/// The fleet-engine throughput bench: core·epoch slices per second for
/// the fleet driver on one thread and on every available thread.
pub fn fleet_throughput(opts: &PerfOpts) {
    let cfg = FleetConfig {
        racks: if opts.test_mode { 4 } else { 16 },
        domains_per_rack: 4,
        cores_per_domain: 4,
        epochs: if opts.test_mode { 2 } else { 4 },
        epoch_insts: if opts.test_mode {
            2_000_000
        } else {
            10_000_000
        },
        ..FleetConfig::default()
    };
    let sim = FleetSim::new(cfg.clone()).expect("bench scenario is valid");
    let slices = (sim.active_domains() * cfg.cores_per_domain * cfg.epochs) as u64;
    println!(
        "fleet_throughput: {} racks x {} domains x {} cores, {} epochs ({} core-epoch slices)\n",
        cfg.racks, cfg.domains_per_rack, cfg.cores_per_domain, cfg.epochs, slices
    );

    let serial = bench_with_throughput("serial (1 thread)", Some(slices), || {
        sim.run(Threads::Fixed(1))
    });
    let sharded = bench_with_throughput("sharded (auto threads)", Some(slices), || {
        sim.run(Threads::Auto)
    });

    let rate = |m: &Measurement| slices as f64 / m.median.as_secs_f64().max(1e-12);
    let (serial_sps, sharded_sps) = (rate(&serial), rate(&sharded));
    println!(
        "\nserial {serial_sps:.0} slices/s, sharded {sharded_sps:.0} slices/s ({:.2}x)",
        sharded_sps / serial_sps.max(1e-12)
    );

    if let Some(path) = &opts.json_path {
        let mut doc = BenchDoc::new("fleet_throughput");
        doc.config("racks", Val::U64(cfg.racks as u64));
        doc.config("domains_per_rack", Val::U64(cfg.domains_per_rack as u64));
        doc.config("cores_per_domain", Val::U64(cfg.cores_per_domain as u64));
        doc.config("epochs", Val::U64(cfg.epochs as u64));
        doc.config("epoch_insts", Val::U64(cfg.epoch_insts));
        doc.config("slices", Val::U64(slices));
        for (name, m, sps) in [
            ("serial", &serial, serial_sps),
            ("sharded", &sharded, sharded_sps),
        ] {
            doc.metric(name, "median_ms", Val::F64(ms(m), 3));
            doc.metric(name, "slices_per_s", Val::F64(sps, 0));
        }
        doc.write(path);
    }

    if opts.test_mode {
        // Sanity floors, not perf gates — plus the determinism contract:
        // serial and sharded runs must agree bit for bit.
        assert!(
            sim.run(Threads::Fixed(1)) == sim.run(Threads::Auto),
            "fleet result depends on thread count"
        );
        assert!(
            serial_sps > 10.0,
            "serial below 10 slices/s: {serial_sps:.1}"
        );
        println!("OK: fleet runs agree across threads and throughput is sane");
    }
}

/// Chunk size for the trace-replay benchmark container: small enough
/// that the test trace spans many chunks, large enough to amortize
/// per-chunk costs.
const CHUNK_BURSTS: usize = 1024;

/// The out-of-core trace pipeline bench (`SUITTRC3` pack, decode, and
/// streaming replay) over one multi-chunk 502.gcc container.
pub fn trace_replay(opts: &PerfOpts) {
    let n_bursts: usize = if opts.test_mode { 20_000 } else { 200_000 };
    let p = profile::by_name("502.gcc").expect("502.gcc profile");
    // One TraceGen pass is finite (~2.3k bursts for 502.gcc), so chain
    // reseeded generators until the target length.
    let bursts: Vec<suit_trace::Burst> = (0u64..)
        .flat_map(|s| TraceGen::new(p, 0xBE7C + s))
        .take(n_bursts)
        .collect();
    // The virtual length is the whole chain, not one profile pass, so
    // the replay runs every burst.
    let summary = TraceSummary::from_bursts(bursts.iter().copied());
    let meta = TraceMeta {
        name: p.name.into(),
        ipc: p.ipc,
        total_insts: summary.insts,
    };

    let packed =
        store::pack_to_vec(&meta, bursts.iter().copied(), CHUNK_BURSTS).expect("pack bench trace");
    let info = store::open_bytes(&packed).expect("open").info();
    let bits_per_burst = info.packed_bytes as f64 * 8.0 / info.bursts.max(1) as f64;
    println!(
        "trace_replay: {} bursts, {} chunks, {} container bytes ({bits_per_burst:.2} bits/burst)\n",
        info.bursts, info.chunks, info.packed_bytes,
    );

    let pack = bench_with_throughput("pack (bursts)", Some(info.bursts), || {
        store::pack_to_vec(&meta, bursts.iter().copied(), CHUNK_BURSTS).expect("pack")
    });

    let decode = bench_with_throughput("decode (container bytes)", Some(info.packed_bytes), || {
        let mut reader = store::open_bytes(&packed).expect("open");
        let mut n = 0u64;
        while reader.next_burst().expect("decode").is_some() {
            n += 1;
        }
        n
    });

    let cpu = CpuModel::xeon_4208();
    let cfg = SimConfig::fv_intel(UndervoltLevel::Mv97);
    let replay_once = || {
        let reader = store::open_bytes(&packed).expect("open");
        let meta = reader.meta().clone();
        run_stream(&cpu, &meta, reader.bursts(), &cfg)
    };
    let replay = bench_with_throughput("replay (bursts)", Some(info.bursts), replay_once);

    let per_s = |n: u64, m: &Measurement| n as f64 / m.median.as_secs_f64().max(1e-12);
    let pack_bps = per_s(info.bursts, &pack);
    let decode_mbs = per_s(info.packed_bytes, &decode) / 1e6;
    let replay_bps = per_s(info.bursts, &replay);
    println!(
        "\npack {pack_bps:.3e} bursts/s, decode {decode_mbs:.1} MB/s container, \
         replay {replay_bps:.3e} bursts/s"
    );

    if let Some(path) = &opts.json_path {
        let mut doc = BenchDoc::new("trace_replay");
        doc.config("workload", Val::Str("502.gcc".into()));
        doc.config("bursts", Val::U64(info.bursts));
        doc.config("chunks", Val::U64(info.chunks as u64));
        doc.config("chunk_bursts", Val::U64(CHUNK_BURSTS as u64));
        doc.config("container_bytes", Val::U64(info.packed_bytes));
        doc.config("bits_per_burst", Val::F64(bits_per_burst, 2));
        doc.metric("pack", "median_ms", Val::F64(ms(&pack), 3));
        doc.metric("pack", "bursts_per_s", Val::F64(pack_bps, 0));
        doc.metric("decode", "median_ms", Val::F64(ms(&decode), 3));
        doc.metric("decode", "container_mb_per_s", Val::F64(decode_mbs, 1));
        doc.metric("replay", "median_ms", Val::F64(ms(&replay), 3));
        doc.metric("replay", "bursts_per_s", Val::F64(replay_bps, 0));
        doc.write(path);
    }

    if opts.test_mode {
        assert_eq!(
            replay_once().events,
            summary.events,
            "replay stopped short of the trace"
        );
        // Generous sanity floors, not perf gates: the point is that the
        // pipeline streams at all on CI hardware.
        assert!(decode_mbs > 1.0, "decode below 1 MB/s: {decode_mbs:.2}");
        assert!(
            replay_bps > 1_000.0,
            "replay below 1k bursts/s: {replay_bps:.0}"
        );
        println!("OK: trace pipeline throughput within sanity bounds");
    }
}

/// The scenario-subsystem bench: the SRAM fault-domain campaign (bank ×
/// offset sweep + dual-class audit matrix) and the Scrooge economic
/// search (grid + refinement + fleet validation + defence audits), each
/// timed end to end on one `suit-exec` worker.
pub fn scenario_sweep(opts: &PerfOpts) {
    let mut sram_cfg = SramScenarioConfig::default();
    let mut scrooge_cfg = ScroogeConfig::default();
    if opts.test_mode {
        sram_cfg.reads = 512;
        sram_cfg.audit_len = 500;
        scrooge_cfg.epoch_insts = 200_000;
        scrooge_cfg.audit_len = 500;
    }
    let sram_points =
        ((sram_cfg.cache_banks + sram_cfg.rob_banks) * sram_cfg.offsets_mv.len()) as u64;
    let scrooge_points =
        (scrooge_cfg.offset_steps * scrooge_cfg.freq_steps + 4 * scrooge_cfg.refine_rounds) as u64;
    println!(
        "scenario_sweep: sram {} banks x {} offsets x {} reads, scrooge {} grid+refine points \
         over {} domains (1 thread)\n",
        sram_cfg.cache_banks + sram_cfg.rob_banks,
        sram_cfg.offsets_mv.len(),
        sram_cfg.reads,
        scrooge_points,
        scrooge_cfg.racks * scrooge_cfg.domains_per_rack
    );

    let sram_bench = bench_with_throughput(
        "sram_campaign (bank-offset points)",
        Some(sram_points),
        || sram::run(&sram_cfg, 1, &Telemetry::off()),
    );
    let sram_report = sram::run(&sram_cfg, 1, &Telemetry::off());
    let sram_pps = sram_points as f64 / sram_bench.median.as_secs_f64().max(1e-12);

    let scrooge_bench =
        bench_with_throughput("scrooge_search (grid points)", Some(scrooge_points), || {
            scrooge::search(&scrooge_cfg, 1, &Telemetry::off()).expect("bench scenario is valid")
        });
    let scrooge_report =
        scrooge::search(&scrooge_cfg, 1, &Telemetry::off()).expect("bench scenario is valid");
    let scrooge_pps = scrooge_points as f64 / scrooge_bench.median.as_secs_f64().max(1e-12);

    println!(
        "\nsram {sram_pps:.0} points/s ({} faults, {} bits), scrooge {scrooge_pps:.0} points/s \
         (chosen {} mV @ {:.3}x, net ${:.2})",
        sram_report.total_faults,
        sram_report.bits_flipped,
        scrooge_report.chosen.offset_mv,
        scrooge_report.chosen.freq_scale,
        scrooge_report.chosen.net
    );

    if let Some(path) = &opts.json_path {
        let mut doc = BenchDoc::new("scenario_sweep");
        doc.config(
            "sram_banks",
            Val::U64((sram_cfg.cache_banks + sram_cfg.rob_banks) as u64),
        );
        doc.config("sram_offsets", Val::U64(sram_cfg.offsets_mv.len() as u64));
        doc.config("sram_reads", Val::U64(sram_cfg.reads as u64));
        doc.config("scrooge_points", Val::U64(scrooge_points));
        doc.config(
            "scrooge_domains",
            Val::U64((scrooge_cfg.racks * scrooge_cfg.domains_per_rack) as u64),
        );
        doc.metric("sram", "median_ms", Val::F64(ms(&sram_bench), 3));
        doc.metric("sram", "points_per_s", Val::F64(sram_pps, 0));
        doc.metric("sram", "total_faults", Val::U64(sram_report.total_faults));
        doc.metric("scrooge", "median_ms", Val::F64(ms(&scrooge_bench), 3));
        doc.metric("scrooge", "points_per_s", Val::F64(scrooge_pps, 0));
        doc.metric(
            "scrooge",
            "points_evaluated",
            Val::U64(scrooge_report.points_evaluated),
        );
        doc.write(path);
    }

    if opts.test_mode {
        // Determinism contract first (both reports byte-identical at 1
        // and 4 workers), sanity floors second.
        for threads in [1, 4] {
            assert_eq!(
                sram_report.to_json(),
                sram::run(&sram_cfg, threads, &Telemetry::off()).to_json(),
                "sram scenario diverged at {threads} threads"
            );
            assert_eq!(
                scrooge_report.to_json(),
                scrooge::search(&scrooge_cfg, threads, &Telemetry::off())
                    .expect("bench scenario is valid")
                    .to_json(),
                "scrooge search diverged at {threads} threads"
            );
        }
        assert!(sram_report.total_faults > 0, "sweep found no faults");
        assert!(
            sram_report.defended_rows_secure(),
            "a defended audit row leaked silent errors"
        );
        assert!(sram_pps > 1.0, "sram below 1 point/s: {sram_pps:.2}");
        assert!(
            scrooge_pps > 1.0,
            "scrooge below 1 point/s: {scrooge_pps:.2}"
        );
        println!("OK: scenario campaigns deterministic and within sanity bounds");
    }
}

fn time_ns_per_op<F: FnMut(u64)>(iters: u64, mut f: F) -> f64 {
    let t0 = Instant::now();
    for i in 0..iters {
        f(i);
    }
    t0.elapsed().as_nanos() as f64 / iters as f64
}

/// The cost of a disabled telemetry hook: the one-branch no-op fast path
/// that lets hooks stay compiled into the hot simulator loops.
///
/// Three loops over the same hook site: no call at all (baseline), a
/// disabled handle (`Telemetry::off()`, one `Option` branch), and a
/// recording handle (relaxed atomic add). The disabled column is what
/// every run without `--telemetry` pays. `--test` shrinks the iteration
/// count and asserts the disabled hook stays within a generous per-op
/// bound.
pub fn telemetry_overhead(opts: &PerfOpts) {
    let iters: u64 = if opts.test_mode {
        5_000_000
    } else {
        100_000_000
    };

    // Warm up the allocator/timer paths once.
    let _ = time_ns_per_op(100_000, |i| {
        black_box(i);
    });

    let baseline = time_ns_per_op(iters, |i| {
        black_box(i);
    });

    let off = Telemetry::off();
    let disabled = time_ns_per_op(iters, |i| {
        black_box(&off).count(Counter::DoTraps);
        black_box(i);
    });

    let on = Telemetry::recording();
    let enabled = time_ns_per_op(iters, |i| {
        black_box(&on).count(Counter::DoTraps);
        black_box(i);
    });
    assert_eq!(on.snapshot().counter(Counter::DoTraps), iters);

    println!("telemetry hook overhead ({iters} iterations per loop)");
    println!("{:<26} {:>12}", "variant", "ns/op");
    println!("{:<26} {:>12.3}", "no hook (baseline)", baseline);
    println!("{:<26} {:>12.3}", "disabled (Option branch)", disabled);
    println!("{:<26} {:>12.3}", "recording (atomic add)", enabled);
    println!(
        "\ndisabled-hook overhead vs baseline: {:.3} ns/op",
        (disabled - baseline).max(0.0)
    );

    if opts.test_mode {
        let overhead = (disabled - baseline).max(0.0);
        assert!(
            overhead < 20.0,
            "disabled hook costs {overhead:.3} ns/op — more than a branch should"
        );
        println!("OK: disabled hook within the no-op budget");
    }
}

/// Emulation-cost microbenchmarks: the bit-sliced (side-channel
/// resilient) AES the paper prescribes vs. the table-based reference —
/// the ablation of DESIGN.md item 5 — plus the `#DO` emulation
/// dispatcher itself.
pub fn aes(_: &PerfOpts) {
    let key = Aes128Key::expand([0x42; 16]);
    let block = Vec128::from_u128(0x0123_4567_89ab_cdef_0011_2233_4455_6677);
    let rk = key.round_key(5);

    println!("# aes_round");
    bench_with_throughput("aesenc_reference_table", Some(1), || {
        reference::aesenc(black_box(block), black_box(rk))
    });
    bench_with_throughput("aesenc_bitsliced_single", Some(1), || {
        bitsliced::aesenc(black_box(block), black_box(rk))
    });

    println!("# aes_round_x4");
    let blocks = [block; 4];
    bench_with_throughput("aesenc_bitsliced_x4", Some(4), || {
        bitsliced::aesenc4(black_box(blocks), black_box(rk))
    });

    println!("# aes_block (16 bytes each)");
    bench_with_throughput("encrypt128_reference", Some(16), || {
        reference::encrypt128(&key, black_box(block))
    });
    bench_with_throughput("encrypt128_bitsliced", Some(16), || {
        bitsliced::encrypt128(&key, black_box(block))
    });

    // One call is a few nanoseconds for the cheap opcodes, below what
    // one harness iteration can time, so each iteration dispatches a
    // fixed batch of operands and the rows report the cost per call.
    let mut rng = SuitRng::seed_from_u64(0xd15);
    let operands: Vec<EmuOperands> = (0..DISPATCH_BATCH)
        .map(|_| {
            let a = Vec128::from_u128(rng.u128());
            EmuOperands::new(a, Vec128::from_u128(rng.u128()))
        })
        .collect();
    println!("# do_emulation_dispatch (per call, {DISPATCH_BATCH} operands per iteration)");
    for op in [
        Opcode::Vor,
        Opcode::Vpclmulqdq,
        Opcode::Aesenc,
        Opcode::Imul,
    ] {
        bench_per_call(&format!("{op}"), DISPATCH_BATCH as u64, || {
            for &o in &operands {
                let _ = black_box(emulate(black_box(op), o));
            }
        });
    }
}

/// Operands per timed iteration of the dispatch rows.
const DISPATCH_BATCH: usize = 256;

/// Simulator throughput: the event-based system simulator, the trace
/// generator, and the out-of-order core model.
pub fn simulator(_: &PerfOpts) {
    let cpu = CpuModel::xeon_4208();
    println!("# trace_engine (500M simulated instructions per iteration)");
    for name in ["557.xz", "502.gcc", "520.omnetpp", "Nginx"] {
        let p = profile::by_name(name).expect("profile");
        let cfg = SimConfig::fv_intel(UndervoltLevel::Mv97).with_max_insts(500_000_000);
        bench_with_throughput(&format!("fv_{name}"), Some(500_000_000), || {
            simulate(&cpu, p, &cfg)
        });
    }

    let p = profile::by_name("502.gcc").expect("profile");
    println!("# trace_generation");
    bench_with_throughput("gcc_10k_bursts", Some(10_000), || {
        let gen = TraceGen::new(p, 1);
        black_box(gen.take(10_000).map(|b| b.gap_insts).sum::<u64>())
    });

    println!("# ooo_core (200k uops per iteration)");
    for name in ["525.x264", "505.mcf"] {
        let p = suit_ooo::workload::by_name(name).expect("profile");
        bench_with_throughput(&format!("o3_{name}_200k_uops"), Some(200_000), || {
            let mut core = O3Core::new(O3Config::default());
            black_box(core.run(UopStream::new(p.clone(), 1), 200_000))
        });
    }
}

/// Wall-clock cost of regenerating each artefact row, at the `--test`
/// scale on one worker so a full pass stays in minutes.
pub fn paper_tables(_: &PerfOpts) {
    let opts = Opts {
        scale: Scale::Test,
        threads: Threads::Fixed(1),
        telemetry: false,
    };
    println!("# paper_tables (--test scale, 1 thread)");
    for (id, render) in ARTEFACTS {
        bench(id, || render(&opts));
    }
}
