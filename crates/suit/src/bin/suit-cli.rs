//! `suit-cli` — drive the SUIT reproduction from the command line.
//!
//! ```text
//! suit-cli list
//! suit-cli simulate --workload 557.xz --cpu c --strategy fv --offset 97
//! suit-cli simulate --workload Nginx --cpu a --strategy adaptive --insts 2000000000
//! suit-cli profile Nginx --trace-out trace.json --insts 200000000
//! suit-cli validate-trace trace.json
//! suit-cli trace record --workload 502.gcc --out gcc.suittrc3 --bursts 5000
//! suit-cli trace seek gcc.suittrc3 --vtime 1000000
//! suit-cli trace info gcc.suittrc3
//! suit-cli bench table6 --threads 2
//! suit-cli bench all --test --out artifacts
//! ```
//!
//! Unknown subcommands and unknown flags print the usage text and exit
//! nonzero — they are never silently ignored.

use std::process::ExitCode;

use suit::core::StrategyKey;
use suit::hw::{CpuKind, CpuModel, UndervoltLevel};
use suit::serve::api::SimPoint;
use suit::sim::engine::{simulate_telemetry, SimConfig};
use suit::telemetry::{fields, validate_perfetto, Telemetry};
use suit::trace::io::TraceMeta;
use suit::trace::{profile, TraceGen};

const USAGE: &str =
    "usage: suit-cli <list|simulate|profile|validate-trace|mix|fleet|trace|analyze|scenario|serve|client|bench> [options]\n\
\x20 simulate --workload <name[,name...]|all> [--cpu a|b|c] [--strategy fv|f|v|e|adaptive]\n\
\x20          [--offset 70|97] [--cores N] [--insts N] [--seed N] [--threads N]\n\
\x20 profile <workload> [--trace-out <file>] [--cpu a|b|c] [--strategy fv|f|v|adaptive]\n\
\x20          [--offset 70|97] [--cores N] [--insts N] [--seed N] [--events N] [--threads N]\n\
\x20 validate-trace <file|->          (- reads the trace from stdin)\n\
\x20 mix <office|webserver|hpc|media|all> [--cpu a|b|c] [--insts N] [--threads N]\n\
\x20 fleet [--config <file.json>] [--racks N] [--domains N | --cores N] [--cores-per-domain N]\n\
\x20       [--workload name[,name...]] [--epochs N] [--insts N] [--utilization F]\n\
\x20       [--cpu a|b|c] [--strategy fv|f|v] [--offset 70|97] [--seed N] [--threads N]\n\
\x20 trace record --workload <name> --out <file> [--bursts N] [--seed N]\n\
\x20       [--chunk-bursts N]                   (streams into a SUITTRC3 container)\n\
\x20 trace info <file>\n\
\x20 trace seek <file> --vtime N\n\
\x20 scenario <sram|scrooge> [--config <file.json>] [--seed N] [--threads N] [--json]\n\
\x20          (SRAM fault-domain sweep / Scrooge attacker-economics search)\n\
\x20 serve [--addr HOST:PORT] [--threads N] [--queue-depth N] [--deadline-ms N]\n\
\x20       [--cache-entries N] [--cache-bytes N]   (0 disables the result cache)\n\
\x20       [--trace-entries N] [--trace-bytes N]   (bounds the /v1/trace store)\n\
\x20 client <path> [--addr HOST:PORT] [--method GET|POST] [--body <json>|-]\n\
\x20        [--body-file <file>] [--timeout-ms N] [--expect-json] [--etag TAG] [--show-etag]\n\
\x20 bench <id>... [--full|--test] [--threads N] [--telemetry]   (paper tables and figures)\n\
\x20 bench <perf id> [--test] [--json <file>]                    (perf benches)\n\
\x20 bench all [--full|--test] [--threads N] [--out DIR]   (every artefact + BENCH_*.json)\n\
\x20 bench check-bench                      (validate the committed BENCH_*.json)\n\
\x20 --threads N fans workloads out over N workers; results are identical for every N";

fn main() -> ExitCode {
    // `suit-cli ... | head` is normal usage; `println!` panics on EPIPE,
    // so treat a broken pipe as a clean exit instead of a crash.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let broken_pipe = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|s| s.contains("Broken pipe"));
        if broken_pipe {
            std::process::exit(0);
        }
        default_hook(info);
    }));

    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("list") => cmd_list(&args[1..]),
        Some("simulate") => cmd_simulate(&args[1..]),
        Some("profile") => cmd_profile(&args[1..]),
        Some("validate-trace") => cmd_validate_trace(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("scenario") => cmd_scenario(&args[1..]),
        Some("analyze") => cmd_analyze(&args[1..]),
        Some("mix") => cmd_mix(&args[1..]),
        Some("fleet") => cmd_fleet(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("client") => cmd_client(&args[1..]),
        Some("bench") => cmd_bench(&args[1..]),
        Some(other) => Err(format!("unknown subcommand '{other}'")),
        None => Err("missing subcommand".into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            if e.contains("unknown subcommand")
                || e.contains("missing subcommand")
                || e.contains("unknown flag")
                || e.contains("unexpected argument")
                || e.contains("needs a value")
                || e.contains("bench id")
                || e.contains("does not take")
                || e.contains("--threads")
                || e.contains("--addr")
                || e.contains("--queue-depth")
                || e.contains("expected sram or scrooge")
            {
                eprintln!("{USAGE}");
            }
            ExitCode::FAILURE
        }
    }
}

type CliResult = Result<(), String>;

fn opt(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

/// Parses `--threads N` into an executor policy. Absent means
/// sequential; `0` or junk is rejected with the parse error (which names
/// the flag, so `main` prints the usage text).
fn parse_threads(args: &[String]) -> Result<suit::exec::Threads, String> {
    match opt(args, "--threads") {
        Some(v) => suit::exec::Threads::parse(&v),
        None => Ok(suit::exec::Threads::Fixed(1)),
    }
}

/// Strict argument validation: every `--flag` must be in `value_flags`
/// (which consume the following token, never another `--flag`) or
/// `bool_flags`, and at most `max_positionals` non-flag tokens may
/// remain. Anything else is an error, so typos fail loudly instead of
/// being silently ignored. Returns the positionals in order.
fn check_args<'a>(
    args: &'a [String],
    value_flags: &[&str],
    bool_flags: &[&str],
    max_positionals: usize,
) -> Result<Vec<&'a str>, String> {
    let mut positionals = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        if a.starts_with("--") {
            if value_flags.contains(&a) {
                match args.get(i + 1) {
                    Some(v) if !v.starts_with("--") => i += 2,
                    _ => return Err(format!("flag '{a}' needs a value")),
                }
            } else if bool_flags.contains(&a) {
                i += 1;
            } else {
                return Err(format!("unknown flag '{a}'"));
            }
        } else {
            if positionals.len() == max_positionals {
                return Err(format!("unexpected argument '{a}'"));
            }
            positionals.push(a);
            i += 1;
        }
    }
    Ok(positionals)
}

fn cmd_list(args: &[String]) -> CliResult {
    check_args(args, &[], &[], 0)?;
    println!("Workloads (25):");
    for p in profile::all() {
        println!(
            "  {:<16} {:?}  ipc {:.1}  target residency {:>5.1}%",
            p.name,
            p.suite,
            p.ipc,
            p.target_residency * 100.0
        );
    }
    println!("\nCPUs: a = i9-9900K (shared domain), b = Ryzen 7 7700X (per-core freq), c = Xeon 4208 (per-core p-states)");
    println!("Strategies: fv (default), f, v, e (emulation), adaptive (Section 6.8)");
    Ok(())
}

/// The simulation point the `--cpu`, `--strategy`, `--offset`,
/// `--cores`, `--insts` and `--seed` flags describe, bounded by the same
/// table rows as `POST /v1/simulate`.
fn point_from_flags(args: &[String]) -> Result<SimPoint, String> {
    let mut point = SimPoint::default();
    fields::apply_flags(SimPoint::FIELDS, &mut point, |flag| opt(args, flag))?;
    Ok(point)
}

/// The value flags a subcommand takes: its config table's, then `extra`.
fn table_flags<C>(table: &[fields::Field<C>], extra: &[&'static str]) -> Vec<&'static str> {
    fields::flags(table).chain(extra.iter().copied()).collect()
}

fn cmd_simulate(args: &[String]) -> CliResult {
    let flags = table_flags(SimPoint::FIELDS, &["--workload", "--threads"]);
    check_args(args, &flags, &[], 0)?;
    let name = opt(args, "--workload")
        .ok_or("missing --workload <name[,name...]|all> (see `suit-cli list`)")?;
    // A comma list or `all` fans out over the executor; a single name
    // degenerates to one job on one worker.
    let profiles: Vec<&profile::WorkloadProfile> = if name == "all" {
        profile::all().iter().collect()
    } else {
        name.split(',')
            .map(str::trim)
            .map(|n| profile::by_name(n).ok_or_else(|| format!("unknown workload '{n}'")))
            .collect::<Result<_, _>>()?
    };
    let threads = parse_threads(args)?;
    let point = point_from_flags(args)?;
    let results = suit::exec::run(profiles.len(), threads, |i| {
        point.simulate(profiles[i], point.seed)
    });

    for (p, r) in profiles.iter().zip(&results) {
        println!(
            "{} on {} at {} ({} strategy, {} core(s))",
            p.name,
            point.cpu.name,
            point.level,
            point.strategy.key(),
            point.cores
        );
        println!("  performance : {:+.2} %", r.perf() * 100.0);
        println!("  power       : {:+.2} %", r.power() * 100.0);
        println!("  efficiency  : {:+.2} %", r.efficiency() * 100.0);
        println!(
            "  residency   : {:.1} % on the efficient curve",
            r.residency() * 100.0
        );
        println!(
            "  activity    : {} faultable instructions, {} #DO, {} timer fires, {} thrash hits",
            r.events, r.exceptions, r.timer_fires, r.thrash_hits
        );
    }
    Ok(())
}

/// Parses `--chunk-bursts N` (bursts per chunk in a `SUITTRC3`
/// container), defaulting to the format's standard size.
fn parse_chunk_bursts(args: &[String]) -> Result<usize, String> {
    match opt(args, "--chunk-bursts") {
        None => Ok(suit::store::DEFAULT_CHUNK_BURSTS),
        Some(v) => match v.parse() {
            Ok(n) if (1..=suit::store::MAX_CHUNK_BURSTS).contains(&n) => Ok(n),
            _ => Err(format!(
                "--chunk-bursts must be in 1..={}, got '{v}'",
                suit::store::MAX_CHUNK_BURSTS
            )),
        },
    }
}

/// Container size per burst, header and index included.
fn bits_per_burst(bytes: u64, bursts: u64) -> f64 {
    bytes as f64 * 8.0 / bursts.max(1) as f64
}

/// Opens a `SUITTRC3` container file for streaming.
fn open_container(
    path: &str,
) -> Result<suit::store::StreamingReader<std::io::BufReader<std::fs::File>>, String> {
    let f = std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
    suit::store::StreamingReader::open(std::io::BufReader::new(f))
        .map_err(|e| format!("{path}: {e}"))
}

fn cmd_trace(args: &[String]) -> CliResult {
    match args.first().map(String::as_str) {
        Some("record") => {
            check_args(
                args,
                &[
                    "--workload",
                    "--out",
                    "--bursts",
                    "--seed",
                    "--chunk-bursts",
                ],
                &[],
                1,
            )?;
            let name = opt(args, "--workload").ok_or("missing --workload")?;
            let p = profile::by_name(&name).ok_or_else(|| format!("unknown workload '{name}'"))?;
            let out = opt(args, "--out").ok_or("missing --out <file>")?;
            // An empty container is one no reader accepts.
            let bursts: usize = match opt(args, "--bursts") {
                None => 10_000,
                Some(v) => match v.parse() {
                    Ok(n) if n > 0 => n,
                    _ => return Err(format!("--bursts must be a positive integer, got '{v}'")),
                },
            };
            let seed: u64 = opt(args, "--seed").map_or(Ok(0x5017), |v| {
                v.parse().map_err(|e| format!("--seed: {e}"))
            })?;
            let chunk_bursts = parse_chunk_bursts(args)?;
            // The header must not claim more instructions than the kept
            // bursts cover, or a replay runs the rest with no faultable
            // instruction. A counting pass of the deterministic generator
            // sizes it without holding the bursts.
            let covered: u64 = TraceGen::new(p, seed)
                .take(bursts)
                .map(|b| b.total_insts())
                .sum();
            let meta = TraceMeta {
                name: p.name.into(),
                ipc: p.ipc,
                total_insts: p.total_insts.min(covered),
            };
            let f = std::fs::File::create(&out).map_err(|e| format!("{out}: {e}"))?;
            let mut w = std::io::BufWriter::new(f);
            // Generator → packer → disk: memory stays O(chunk) no matter
            // how long the recording runs.
            let stats = suit::store::pack(
                &mut w,
                &meta,
                TraceGen::new(p, seed).take(bursts),
                chunk_bursts,
            )
            .map_err(|e| e.to_string())?;
            use std::io::Write;
            w.flush().map_err(|e| format!("{out}: {e}"))?;
            println!(
                "packed {} bursts of {} into {out} ({} chunks, {} bytes, {:.1} bits/burst)",
                stats.bursts,
                p.name,
                stats.chunks,
                stats.packed_bytes,
                bits_per_burst(stats.packed_bytes, stats.bursts)
            );
            Ok(())
        }
        Some("info") => {
            let path = *check_args(args, &[], &[], 2)?
                .get(1)
                .ok_or("missing <file>")?;
            let reader = open_container(path)?;
            let info = reader.info();
            // One streaming pass over the bursts, O(chunk) memory.
            let mut bursts = reader.bursts();
            let summary = suit::trace::event::TraceSummary::from_bursts(bursts.by_ref());
            bursts.finish().map_err(|e| format!("{path}: {e}"))?;
            println!(
                "{path}: SUITTRC3 container, workload {} (ipc {:.1})",
                info.meta.name, info.meta.ipc
            );
            println!("  bursts: {}", info.bursts);
            println!(
                "  chunks: {} ({} bursts per full chunk)",
                info.chunks, info.chunk_bursts
            );
            println!(
                "  bytes: {} ({:.1} bits/burst)",
                info.packed_bytes,
                bits_per_burst(info.packed_bytes, info.bursts)
            );
            println!("  virtual length: {} instructions", info.meta.total_insts);
            println!("  faultable instructions: {}", summary.events);
            println!("  instructions covered: {}", summary.insts);
            println!("  mean gap: {:.0} instructions", summary.insts_per_event());
            println!("  largest burst gap: {}", summary.max_gap);
            Ok(())
        }
        Some("seek") => {
            let path = *check_args(args, &["--vtime"], &[], 2)?
                .get(1)
                .ok_or("usage: trace seek <file> --vtime N")?;
            let vtime: u64 = opt(args, "--vtime")
                .ok_or("missing --vtime <instructions>")?
                .parse()
                .map_err(|e| format!("--vtime: {e}"))?;
            let mut reader = open_container(path)?;
            let start = reader
                .seek_to_vtime(vtime)
                .map_err(|e| format!("{path}: {e}"))?;
            match reader.next_burst().map_err(|e| format!("{path}: {e}"))? {
                Some(b) => {
                    println!(
                        "vtime {vtime}: burst starting at {start} (gap {}, {} events, \
                         {} within-gap, opcode {})",
                        b.gap_insts,
                        b.events,
                        b.within_gap_insts,
                        b.opcode.mnemonic()
                    );
                    println!("  chunks decoded to get here: {}", reader.chunk_decodes());
                }
                None => println!("vtime {vtime}: past the end of the trace (length {start})"),
            }
            Ok(())
        }
        _ => Err("usage: trace <record|info|seek> ...".into()),
    }
}

/// `fleet`: rack-scale scenario over the event engine — racks of DVFS
/// domains with per-rack cooling/age governors, sharded between thermal
/// sync points. Output is byte-identical at every `--threads`.
fn cmd_fleet(args: &[String]) -> CliResult {
    use suit::sim::fleet::{FleetConfig, FleetSim};
    let flags = table_flags(FleetConfig::FIELDS, &["--config", "--cores", "--threads"]);
    check_args(args, &flags, &[], 0)?;
    let mut cfg = match opt(args, "--config") {
        Some(path) => {
            let src = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
            FleetConfig::from_json(&src).map_err(|e| format!("{path}: {e}"))?
        }
        None => FleetConfig::default(),
    };
    fields::apply_flags(FleetConfig::FIELDS, &mut cfg, |flag| opt(args, flag))?;
    // `--cores N` sizes the fleet by total core count: with racks and
    // cores-per-domain fixed, N must split evenly into domains.
    if let Some(v) = opt(args, "--cores") {
        if opt(args, "--domains").is_some() {
            return Err("--cores and --domains are mutually exclusive".to_string());
        }
        let total: usize = v.parse().map_err(|e| format!("--cores: {e}"))?;
        let per = cfg
            .racks
            .checked_mul(cfg.cores_per_domain)
            .filter(|&p| p > 0)
            .ok_or_else(|| "--cores: racks x cores-per-domain overflows".to_string())?;
        if total == 0 || total % per != 0 {
            return Err(format!(
                "--cores {total} must be a positive multiple of racks x cores-per-domain ({per})"
            ));
        }
        cfg.domains_per_rack = total / per;
    }
    let threads = parse_threads(args)?;
    print!("{}", FleetSim::new(cfg)?.run(threads).render());
    Ok(())
}

fn cmd_mix(args: &[String]) -> CliResult {
    use suit::sim::engine::simulate_mixed;
    let name = *check_args(args, &["--cpu", "--insts", "--threads"], &[], 1)?
        .first()
        .ok_or_else(|| {
            format!(
                "usage: mix <{}|all> [--cpu a|b|c] [--insts N] [--threads N]",
                suit::trace::profile::MIX_NAMES.join("|")
            )
        })?;
    // `all` fans every named mix out over the executor.
    let names: Vec<&str> = if name == "all" {
        suit::trace::profile::MIX_NAMES.to_vec()
    } else {
        vec![name]
    };
    let mixes: Vec<Vec<&suit::trace::profile::WorkloadProfile>> = names
        .iter()
        .map(|n| {
            suit::trace::profile::mix(n).ok_or_else(|| {
                format!(
                    "unknown mix '{n}' (try {}, all)",
                    suit::trace::profile::MIX_NAMES.join(", ")
                )
            })
        })
        .collect::<Result<_, _>>()?;
    let threads = parse_threads(args)?;
    // Mixes model consolidation on ONE shared DVFS domain — only the
    // i9-9900K class has that topology (CPU C's per-core p-states would
    // never couple the workloads), so default to CPU a.
    let mut point = SimPoint {
        cpu: CpuModel::i9_9900k(),
        insts: Some(1_000_000_000),
        ..SimPoint::default()
    };
    fields::apply_flags(SimPoint::FIELDS, &mut point, |flag| opt(args, flag))?;
    let cpu = point.cpu;
    if !matches!(cpu.domains, suit::hw::DomainLayout::SharedAll) {
        eprintln!(
            "note: {} has per-core DVFS domains; a shared-domain mix is a what-if here",
            cpu.name
        );
    }
    // ℬ's cores share no voltage domain worth switching: it runs 𝑓.
    let strategy = match cpu.kind {
        CpuKind::AmdRyzen7700X => StrategyKey::Frequency,
        _ => StrategyKey::FreqVolt,
    };
    let cfg = SimConfig {
        max_insts: point.insts,
        ..SimConfig::for_point(&cpu, strategy, UndervoltLevel::Mv97)
    };
    let results = suit::exec::run(mixes.len(), threads, |i| {
        simulate_mixed(&cpu, &mixes[i], &cfg)
    });
    for (name, m) in names.iter().zip(&results) {
        println!(
            "mix '{name}' on {} (one shared domain, {} strategy, -97 mV):",
            cpu.name,
            strategy.strategy()
        );
        println!(
            "  domain: residency {:.1}%  power {:+.2}%  efficiency {:+.2}%",
            m.domain.residency() * 100.0,
            m.domain.power() * 100.0,
            m.domain.efficiency() * 100.0
        );
        for c in &m.per_core {
            println!(
                "  core {:<16} perf {:+.2}%  ({} faultable instructions)",
                c.workload,
                c.perf() * 100.0,
                c.events
            );
        }
    }
    Ok(())
}

fn cmd_analyze(args: &[String]) -> CliResult {
    let pos = check_args(args, &[], &[], 2)?;
    let name = *pos.first().ok_or("usage: analyze <workload> [bursts]")?;
    let p = profile::by_name(name).ok_or_else(|| format!("unknown workload '{name}'"))?;
    let bursts: usize = pos
        .get(1)
        .map_or(Ok(2_000), |v| v.parse().map_err(|e| format!("bursts: {e}")))?;
    let report = suit::trace::analyze::TraceReport::from_bursts(
        TraceGen::new(p, 0x5017).take(bursts),
        suit::trace::analyze::AnalyzeParams::xeon(p.ipc),
    );
    println!(
        "{} — Section 5.1 characterisation over {} bursts:",
        p.name, report.bursts
    );
    println!("  faultable instructions : {}", report.events);
    println!("  instructions covered   : {}", report.insts);
    println!(
        "  mean event gap         : {:.0} instructions",
        report.mean_event_gap
    );
    println!("  deadline episodes      : {}", report.episodes);
    println!(
        "  predicted residency    : {:.1}% (profile target {:.1}%)",
        report.predicted_residency * 100.0,
        p.target_residency * 100.0
    );
    println!("  (the prediction models the deadline only; thrashing prevention can park");
    println!("   borderline workloads lower — compare with `suit-cli simulate`)");
    print!("  gap decades            :");
    for d in 0..10 {
        print!(" 1e{d}:{}", report.histogram.bucket(d));
    }
    println!();
    Ok(())
}

/// `scenario <sram|scrooge>`: the suit-scenarios campaigns — an SRAM
/// fault-domain sweep with the dual-class §6.9 audit matrix, or the
/// Scrooge attacker-economics search. `--config` takes the same JSON
/// document `POST /v1/scenario` accepts (the `"scenario"` discriminator
/// is optional here — the subcommand names it); `--json` prints the
/// service's canonical JSON report instead of the text rendering.
fn cmd_scenario(args: &[String]) -> CliResult {
    use suit::scenarios::{ScroogeConfig, SramScenarioConfig};
    let kind = match args.first().map(String::as_str) {
        Some(k @ ("sram" | "scrooge")) => k,
        Some(other) => {
            return Err(format!(
                "unknown scenario '{other}' (expected sram or scrooge)"
            ))
        }
        None => return Err("missing scenario (expected sram or scrooge)".into()),
    };
    let rest = &args[1..];
    let extra = ["--config", "--threads"];
    let flags = match kind {
        "sram" => table_flags(SramScenarioConfig::FIELDS, &extra),
        _ => table_flags(ScroogeConfig::FIELDS, &extra),
    };
    check_args(rest, &flags, &["--json"], 0)?;
    let threads = parse_threads(rest)?;
    let as_json = rest.iter().any(|a| a == "--json");
    let src = match opt(rest, "--config") {
        Some(path) => Some(std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?),
        None => None,
    };
    let tele = suit::telemetry::Telemetry::off();
    match kind {
        "sram" => {
            let mut cfg = match &src {
                Some(s) => SramScenarioConfig::from_json(s)?,
                None => SramScenarioConfig::default(),
            };
            fields::apply_flags(SramScenarioConfig::FIELDS, &mut cfg, |f| opt(rest, f))?;
            let report = suit::scenarios::sram::run(&cfg, threads.count(), &tele);
            if as_json {
                println!("{}", report.to_json());
            } else {
                print!("{}", report.render());
            }
        }
        _ => {
            let mut cfg = match &src {
                Some(s) => ScroogeConfig::from_json(s)?,
                None => ScroogeConfig::default(),
            };
            fields::apply_flags(ScroogeConfig::FIELDS, &mut cfg, |f| opt(rest, f))?;
            let report = suit::scenarios::scrooge::search(&cfg, threads.count(), &tele)?;
            if as_json {
                println!("{}", report.to_json());
            } else {
                print!("{}", report.render());
            }
        }
    }
    Ok(())
}

/// `profile <workload>`: one instrumented simulation — telemetry summary
/// on stdout, optional Chrome/Perfetto trace via `--trace-out`.
fn cmd_profile(args: &[String]) -> CliResult {
    let flags = table_flags(SimPoint::FIELDS, &["--trace-out", "--events", "--threads"]);
    let name = *check_args(args, &flags, &[], 1)?
        .first()
        .ok_or("missing <workload> (see `suit-cli list`)")?;
    // A profile run is one instrumented simulation, so `--threads` has
    // nothing to fan out — but every subcommand accepts the flag through
    // the same strict parse-and-usage path, so a bad value fails the
    // same way everywhere instead of being silently ignored here.
    let _ = parse_threads(args)?;
    let p = profile::by_name(name).ok_or_else(|| format!("unknown workload '{name}'"))?;
    let events: usize = opt(args, "--events").map_or(Ok(1 << 16), |v| {
        v.parse().map_err(|e| format!("--events: {e}"))
    })?;
    let point = point_from_flags(args)?;
    if point.strategy == StrategyKey::Emulation {
        return Err(
            "profile needs a curve-switching strategy (fv, f, v or adaptive), got 'e'".into(),
        );
    }
    let cfg = point.config();

    let tele = Telemetry::with_capacity(events);
    let r = simulate_telemetry(&point.cpu, p, &cfg, &tele);
    let snap = tele.snapshot();

    println!(
        "profiled {} on {} at {} ({} strategy, {} core(s))",
        p.name,
        point.cpu.name,
        point.level,
        point.strategy.key(),
        point.cores
    );
    println!(
        "  performance {:+.2} %  efficiency {:+.2} %  residency {:.1} %\n",
        r.perf() * 100.0,
        r.efficiency() * 100.0,
        r.residency() * 100.0
    );
    println!("{}", snap.summary());

    if let Some(out) = opt(args, "--trace-out") {
        let json = snap.to_perfetto_json();
        let stats = validate_perfetto(&json)
            .map_err(|e| format!("internal: emitted invalid trace: {e}"))?;
        std::fs::write(&out, &json).map_err(|e| format!("{out}: {e}"))?;
        println!(
            "\nwrote {out}: {} trace events ({} spans, {} instants; {} dropped) — open in ui.perfetto.dev",
            stats.total - stats.metadata,
            stats.spans,
            stats.instants,
            snap.events_dropped
        );
    }
    Ok(())
}

/// `validate-trace <file|->`: parse a Chrome/Perfetto trace with the
/// in-tree JSON parser and check the event-stream invariants. `-` reads
/// the trace from stdin, so `suit-cli profile ... --trace-out /dev/stdout`
/// style pipelines work without a temp file.
fn cmd_validate_trace(args: &[String]) -> CliResult {
    let path = *check_args(args, &[], &[], 1)?
        .first()
        .ok_or("missing <file|-> (- reads stdin)")?;
    let src = if path == "-" {
        let mut s = String::new();
        use std::io::Read;
        std::io::stdin()
            .read_to_string(&mut s)
            .map_err(|e| format!("stdin: {e}"))?;
        s
    } else {
        std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?
    };
    let stats = validate_perfetto(&src).map_err(|e| format!("{path}: invalid trace: {e}"))?;
    println!(
        "{path}: valid Perfetto trace — {} events ({} spans, {} instants, {} metadata)",
        stats.total, stats.spans, stats.instants, stats.metadata
    );
    let mut names: Vec<(&String, &usize)> = stats.names.iter().collect();
    names.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
    for (name, n) in names {
        println!("  {n:>8}  {name}");
    }
    Ok(())
}

/// `serve`: run the resident simulation service until `POST /v1/shutdown`.
///
/// All flags are validated *before* the socket is bound, so a bad
/// `--addr` or `--queue-depth` fails with the usage text and never opens
/// a port.
fn cmd_serve(args: &[String]) -> CliResult {
    check_args(
        args,
        &[
            "--addr",
            "--threads",
            "--queue-depth",
            "--deadline-ms",
            "--cache-entries",
            "--cache-bytes",
            "--trace-entries",
            "--trace-bytes",
        ],
        &[],
        0,
    )?;
    let addr = opt(args, "--addr").unwrap_or_else(|| "127.0.0.1:8017".into());
    let sock: std::net::SocketAddr = addr
        .parse()
        .map_err(|e| format!("--addr must be HOST:PORT, got '{addr}' ({e})"))?;
    let threads = parse_threads(args)?;
    let queue_depth: usize = match opt(args, "--queue-depth") {
        None => 32,
        Some(v) => match v.parse() {
            Ok(n) if n >= 1 => n,
            _ => {
                return Err(format!(
                    "--queue-depth must be a positive integer, got '{v}'"
                ))
            }
        },
    };
    let deadline_ms: Option<u64> = opt(args, "--deadline-ms")
        .map(|v| v.parse().map_err(|e| format!("--deadline-ms: {e}")))
        .transpose()?;
    let default_cfg = suit::serve::ServeConfig::default();
    // `0` on either bound disables the result cache (and coalescing).
    let cache_entries: usize = match opt(args, "--cache-entries") {
        None => default_cfg.cache_entries,
        Some(v) => v
            .parse()
            .map_err(|_| format!("--cache-entries must be a non-negative integer, got '{v}'"))?,
    };
    let cache_bytes: usize = match opt(args, "--cache-bytes") {
        None => default_cfg.cache_bytes,
        Some(v) => v
            .parse()
            .map_err(|_| format!("--cache-bytes must be a non-negative integer, got '{v}'"))?,
    };
    // `0` on either bound disables the trace store (uploads get 413).
    let trace_entries: usize = match opt(args, "--trace-entries") {
        None => default_cfg.trace_entries,
        Some(v) => v
            .parse()
            .map_err(|_| format!("--trace-entries must be a non-negative integer, got '{v}'"))?,
    };
    let trace_bytes: usize = match opt(args, "--trace-bytes") {
        None => default_cfg.trace_bytes,
        Some(v) => v
            .parse()
            .map_err(|_| format!("--trace-bytes must be a non-negative integer, got '{v}'"))?,
    };
    let cfg = suit::serve::ServeConfig {
        threads,
        queue_depth,
        default_deadline_ms: deadline_ms,
        cache_entries,
        cache_bytes,
        trace_entries,
        trace_bytes,
        ..default_cfg
    };
    let server = suit::serve::Server::bind(&sock.to_string(), cfg).map_err(|e| e.to_string())?;
    let local = server.local_addr().map_err(|e| e.to_string())?;
    // The CI smoke step (and anyone using `--addr 127.0.0.1:0`) reads the
    // resolved port off this line, so keep its shape stable and flushed.
    let cache_desc = if cache_entries == 0 || cache_bytes == 0 {
        "cache off".to_string()
    } else {
        format!("cache {cache_entries} entries / {cache_bytes} bytes")
    };
    println!(
        "suit-serve listening on {local} ({} worker(s), queue depth {queue_depth}, {cache_desc})",
        threads.count()
    );
    use std::io::Write;
    let _ = std::io::stdout().flush();
    server.run().map_err(|e| e.to_string())?;
    println!("suit-serve drained and stopped");
    Ok(())
}

/// `client <path>`: one request against a running service; prints the
/// response body to stdout and fails (nonzero exit) on any non-2xx
/// status, so shell pipelines and the CI smoke step can chain on it.
/// `--expect-json` additionally parses the body with the in-tree JSON
/// parser and fails on anything malformed. `--etag TAG` sends
/// `If-None-Match` (quoting the tag if needed) and treats a bodiless
/// `304 not modified` as success; `--show-etag` appends the response's
/// `etag` header as a final `etag: …` line so scripts can capture it.
/// `--body-file <file>` POSTs the file's raw bytes as
/// `application/octet-stream` — the upload path for `/v1/trace`.
fn cmd_client(args: &[String]) -> CliResult {
    let path = *check_args(
        args,
        &[
            "--addr",
            "--method",
            "--body",
            "--body-file",
            "--timeout-ms",
            "--etag",
        ],
        &["--expect-json", "--show-etag"],
        1,
    )?
    .first()
    .ok_or("missing <path> (e.g. /v1/healthz)")?;
    if !path.starts_with('/') {
        return Err(format!("path must start with '/', got '{path}'"));
    }
    let addr = opt(args, "--addr").unwrap_or_else(|| "127.0.0.1:8017".into());
    let _sock: std::net::SocketAddr = addr
        .parse()
        .map_err(|e| format!("--addr must be HOST:PORT, got '{addr}' ({e})"))?;
    let body = match opt(args, "--body") {
        // `--body -` reads the request body from stdin, mirroring
        // `validate-trace -`.
        Some(b) if b == "-" => {
            let mut s = String::new();
            use std::io::Read;
            std::io::stdin()
                .read_to_string(&mut s)
                .map_err(|e| format!("stdin: {e}"))?;
            Some(s)
        }
        other => other,
    };
    let body_file = opt(args, "--body-file");
    if body_file.is_some() && body.is_some() {
        return Err("--body and --body-file are mutually exclusive".into());
    }
    if body_file.is_some() && opt(args, "--etag").is_some() {
        return Err("--etag does not apply to binary uploads (--body-file)".into());
    }
    // POST whenever a body is supplied; an explicit --method wins.
    let default_method = if body.is_some() || body_file.is_some() {
        "POST"
    } else {
        "GET"
    };
    let method = opt(args, "--method").unwrap_or_else(|| default_method.into());
    match method.as_str() {
        "GET" | "POST" => {}
        other => {
            return Err(format!(
                "unsupported method '{other}' (expected GET or POST)"
            ))
        }
    }
    let timeout_ms: u64 = opt(args, "--timeout-ms").map_or(Ok(30_000), |v| {
        v.parse().map_err(|e| format!("--timeout-ms: {e}"))
    })?;
    // `--etag x` sends `If-None-Match: "x"`; a tag already quoted (or
    // the `*` wildcard) passes through verbatim.
    let if_none_match = opt(args, "--etag").map(|t| {
        if t == "*" || t.starts_with('"') || t.starts_with("W/") {
            t
        } else {
            format!("\"{t}\"")
        }
    });
    let headers: Vec<(&str, &str)> = if_none_match
        .as_deref()
        .map(|t| vec![("if-none-match", t)])
        .unwrap_or_default();
    let timeout = std::time::Duration::from_millis(timeout_ms);
    let resp = match body_file {
        Some(file) => {
            let bytes = std::fs::read(&file).map_err(|e| format!("{file}: {e}"))?;
            suit::serve::request_bytes(&addr, &method, path, &bytes, timeout)
        }
        None => suit::serve::request_with_headers(
            &addr,
            &method,
            path,
            body.as_deref(),
            &headers,
            timeout,
        ),
    }
    .map_err(|e| e.to_string())?;
    let text = resp
        .text()
        .map_err(|e| format!("response body: {e}"))?
        .to_string();
    let ok = (200..300).contains(&resp.status) || (resp.status == 304 && if_none_match.is_some());
    if !ok {
        return Err(format!("HTTP {}: {text}", resp.status));
    }
    if resp.status == 304 {
        println!("304 not modified");
        return Ok(());
    }
    if args.iter().any(|a| a == "--expect-json") {
        suit::telemetry::json::parse(&text)
            .map_err(|e| format!("response body is not valid JSON: {e}"))?;
    }
    println!("{text}");
    if args.iter().any(|a| a == "--show-etag") {
        if let Some(etag) = resp.header("etag") {
            println!("etag: {etag}");
        }
    }
    Ok(())
}

/// `bench <id>...`: the paper's tables and figures and the perf benches,
/// one row each in `suit::bench`'s [`ARTEFACTS`](suit::bench::ARTEFACTS)
/// and [`PERF`](suit::bench::PERF) tables. `bench all` renders every
/// artefact and baseline; `bench check-bench` validates the committed
/// `BENCH_*.json`. Each id takes only the flags that mean something to
/// it, so a flag it would ignore is an error.
fn cmd_bench(args: &[String]) -> CliResult {
    use suit::bench::{perf::PerfOpts, render_all, Opts, Scale, ARTEFACTS, PERF};
    let ids = check_args(
        args,
        &["--threads", "--json", "--out"],
        &["--full", "--test", "--telemetry"],
        usize::MAX,
    )?;
    // `check_args` refuses a value that looks like a flag, so every
    // `--` token here is a flag.
    let flags: Vec<&str> = args
        .iter()
        .map(String::as_str)
        .filter(|a| a.starts_with("--"))
        .collect();
    let has = |flag: &str| flags.contains(&flag);
    let takes = |id: &str| -> Option<&[&str]> {
        match id {
            "all" => Some(&["--full", "--test", "--threads", "--out"]),
            "check-bench" => Some(&[]),
            _ if ARTEFACTS.iter().any(|(a, _)| *a == id) => {
                Some(&["--full", "--test", "--threads", "--telemetry"])
            }
            _ => PERF.iter().find(|(p, _, _)| *p == id).map(|(_, file, _)| {
                if file.is_some() {
                    &["--test", "--json"][..]
                } else {
                    &["--test"][..]
                }
            }),
        }
    };
    let known = || {
        let rows = ARTEFACTS.iter().map(|(id, _)| *id);
        let perf = PERF.iter().map(|(id, _, _)| *id);
        let ids: Vec<&str> = rows.chain(perf).chain(["all", "check-bench"]).collect();
        ids.join(", ")
    };
    if ids.is_empty() {
        return Err(format!("missing bench id (one of: {})", known()));
    }
    for id in &ids {
        let allowed =
            takes(id).ok_or_else(|| format!("unknown bench id '{id}' (one of: {})", known()))?;
        if let Some(flag) = flags.iter().find(|f| !allowed.contains(f)) {
            return Err(format!("bench {id} does not take {flag}"));
        }
    }
    if ids.len() > 1 {
        if let Some(id) = ids.iter().find(|id| matches!(**id, "all" | "check-bench")) {
            return Err(format!("bench {id} does not take another id"));
        }
        if has("--json") {
            return Err("bench --json does not take more than one id".into());
        }
    }
    let scale = match (has("--full"), has("--test")) {
        (true, true) => return Err("--full and --test are mutually exclusive".into()),
        (true, false) => Scale::Full,
        (false, true) => Scale::Test,
        (false, false) => Scale::Quick,
    };
    let threads = match opt(args, "--threads") {
        Some(v) => suit::exec::Threads::parse(&v)?,
        None => suit::exec::Threads::Auto,
    };

    match ids[0] {
        "check-bench" => {
            let report = render_all::check_bench_files(std::path::Path::new("."))
                .map_err(|e| format!("{e}\nregenerate with: suit-cli bench all"))?;
            for line in report {
                println!("{line}");
            }
            println!("all committed BENCH_*.json files match the emitter schema");
        }
        "all" => {
            let out = opt(args, "--out").unwrap_or_else(|| "artifacts".into());
            render_all::render_all(std::path::Path::new(&out), scale, threads);
        }
        _ => {
            let opts = Opts {
                scale,
                threads,
                telemetry: has("--telemetry"),
            };
            let perf = PerfOpts {
                test_mode: has("--test"),
                json_path: opt(args, "--json"),
            };
            for id in ids {
                match ARTEFACTS.iter().find(|(a, _)| *a == id) {
                    Some((_, render)) => println!("{}", render(&opts)),
                    None => {
                        let (_, _, run) = PERF
                            .iter()
                            .find(|(p, _, _)| *p == id)
                            .expect("every id was checked above");
                        run(&perf);
                    }
                }
            }
        }
    }
    Ok(())
}
