//! `suit-cli` — drive the SUIT reproduction from the command line.
//!
//! ```text
//! suit-cli list
//! suit-cli simulate --workload 557.xz --cpu c --strategy fv --offset 97
//! suit-cli simulate --workload Nginx --cpu a --strategy adaptive --insts 2000000000
//! suit-cli profile Nginx --trace-out trace.json --insts 200000000
//! suit-cli validate-trace trace.json
//! suit-cli analyze 557.xz 5000
//! suit-cli trace record --workload 502.gcc --out gcc.suittrc3 --bursts 5000
//! suit-cli trace seek gcc.suittrc3 --vtime 1000000
//! suit-cli trace info gcc.suittrc3
//! suit-cli bench table6 --threads 2
//! suit-cli bench all --test --out artifacts
//! ```
//!
//! Every command is one row of [`COMMANDS`]: its line of the usage text,
//! which is also the grammar its command line is checked against, once,
//! before its handler runs. An unknown subcommand or flag, a missing or
//! extra argument, or a bad value of a flag outside every config table
//! is a [`CliError::Usage`] and prints the usage text. A bad value of a
//! config-table flag (`--cpu`, `--insts`, `--racks`, ...) prints exactly
//! the message the service answers `400` with.

use std::ops::RangeInclusive;
use std::process::ExitCode;

use suit::core::StrategyKey;
use suit::exec::Threads;
use suit::hw::{CpuKind, CpuModel, UndervoltLevel};
use suit::serve::api::SimPoint;
use suit::sim::engine::{simulate_telemetry, SimConfig};
use suit::telemetry::{fields, validate_perfetto, Telemetry};
use suit::trace::io::TraceMeta;
use suit::trace::profile::{self, WorkloadProfile, MIX_NAMES};
use suit::trace::TraceGen;

/// One command: its usage line and its handler.
///
/// The line is the grammar. Its leading lowercase words name the command
/// (`trace record`). The words after them up to the first flag are its
/// positional arguments: `<x>` is required, `[x]` optional, and a last
/// `...` takes any number. Every `--flag` it names is accepted: one that
/// a space follows takes a value (`[--seed N]`), any other is a switch
/// (`[--json]`, `[--full|--test]`). Later lines are indented under the
/// first in the usage text.
struct Command(&'static str, fn(&Args) -> CliResult);

/// Every command, in usage-text order.
const COMMANDS: &[Command] = &[
    Command("list", cmd_list),
    Command(
        "simulate --workload <name[,name...]|all> [--cpu a|b|c] [--strategy fv|f|v|e|adaptive]\n\
         [--offset 70|97] [--cores N] [--insts N] [--seed N] [--threads N]",
        cmd_simulate,
    ),
    Command(
        "profile <workload> [--trace-out <file>] [--cpu a|b|c] [--strategy fv|f|v|adaptive]\n\
         [--offset 70|97] [--cores N] [--insts N] [--seed N] [--events N] [--threads N]",
        cmd_profile,
    ),
    Command("validate-trace <file|->   (- reads the trace from stdin)", cmd_validate_trace),
    Command(
        "mix <office|webserver|hpc|media|all> [--cpu a|b|c] [--insts N] [--threads N]",
        cmd_mix,
    ),
    Command(
        "fleet [--config <file.json>] [--racks N] [--domains N | --cores N] [--cores-per-domain N]\n\
         [--workload name[,name...]] [--epochs N] [--insts N] [--utilization F]\n\
         [--cpu a|b|c] [--strategy fv|f|v] [--offset 70|97] [--seed N] [--threads N]",
        cmd_fleet,
    ),
    Command(
        "trace record --workload <name> --out <file> [--bursts N] [--seed N]\n\
         [--chunk-bursts N]   (streams into a SUITTRC3 container)",
        cmd_trace_record,
    ),
    Command("trace info <file>", cmd_trace_info),
    Command("trace seek <file> --vtime N", cmd_trace_seek),
    Command("analyze <workload> [bursts]   (Section 5.1 trace characterisation)", cmd_analyze),
    Command(
        "scenario sram [--config <file.json>] [--seed N] [--threads N] [--json]\n\
         (SRAM fault-domain sweep)",
        |args| cmd_scenario(args, "sram"),
    ),
    Command(
        "scenario scrooge [--config <file.json>] [--seed N] [--threads N] [--json]\n\
         (Scrooge attacker-economics search)",
        |args| cmd_scenario(args, "scrooge"),
    ),
    Command(
        "serve [--addr HOST:PORT] [--threads N] [--queue-depth N] [--deadline-ms N]\n\
         [--cache-entries N] [--cache-bytes N]   (0 disables the result cache)\n\
         [--trace-entries N] [--trace-bytes N]   (bounds the /v1/trace store)",
        cmd_serve,
    ),
    Command(
        "client <path> [--addr HOST:PORT] [--method GET|POST] [--body <json>|-]\n\
         [--body-file <file>] [--timeout-ms N] [--expect-json] [--etag TAG] [--show-etag]",
        cmd_client,
    ),
    Command(
        "bench <id>... [--full|--test] [--threads N] [--telemetry]   (paper tables and figures)\n\
         <perf id> [--test] [--json <file>]                    (perf benches)\n\
         all [--full|--test] [--threads N] [--out DIR]         (every artefact + BENCH_*.json)\n\
         check-bench                                           (validate the committed BENCH_*.json)",
        cmd_bench,
    ),
];

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

    let argv: Vec<String> = std::env::args().skip(1).collect();
    match find(&argv).and_then(|(cmd, rest)| (cmd.1)(&cmd.parse(rest)?)) {
        Ok(()) => return ExitCode::SUCCESS,
        Err(CliError::Usage(msg)) => eprintln!("error: {msg}\n{}", usage_text()),
        Err(CliError::Failed(msg)) => eprintln!("error: {msg}"),
    }
    ExitCode::FAILURE
}

/// Why a command failed.
enum CliError {
    /// The command line does not fit its row: the usage text follows the
    /// message.
    Usage(String),
    /// The command could not do its work, or a config-table field was
    /// refused: the message alone.
    Failed(String),
}

impl From<String> for CliError {
    fn from(msg: String) -> Self {
        CliError::Failed(msg)
    }
}

fn usage(msg: impl Into<String>) -> CliError {
    CliError::Usage(msg.into())
}

type CliResult = Result<(), CliError>;

/// The usage text, built from [`COMMANDS`].
fn usage_text() -> String {
    let mut groups: Vec<&str> = COMMANDS
        .iter()
        .map(|c| c.words().next().unwrap_or(""))
        .collect();
    groups.dedup();
    let mut text = format!("usage: suit-cli <{}> [options]", groups.join("|"));
    for c in COMMANDS {
        let name_len: usize = c.words().map(|w| w.len() + 1).sum();
        let indent = format!("\n{:1$}", "", name_len + 2);
        text = text + "\n  " + &c.0.replace('\n', &indent);
    }
    text + "\n  --threads N fans work out over N workers; results are identical for every N"
}

/// The row `argv` names, and the words after its name.
fn find(argv: &[String]) -> Result<(&'static Command, &[String]), CliError> {
    for c in COMMANDS {
        let n = c.words().count();
        let head = argv.get(..n).unwrap_or_default();
        if head.iter().map(String::as_str).eq(c.words()) {
            return Ok((c, &argv[n..]));
        }
    }
    let first = argv.first().ok_or_else(|| usage("missing subcommand"))?;
    // A group such as `trace` names its rows with a second word.
    let kinds: Vec<&str> = COMMANDS
        .iter()
        .filter(|c| c.words().next() == Some(first.as_str()))
        .filter_map(|c| c.words().nth(1))
        .collect();
    let Some((last, rest)) = kinds.split_last() else {
        return Err(usage(format!("unknown subcommand '{first}'")));
    };
    let expected = format!("expected {} or {last}", rest.join(", "));
    Err(usage(match argv.get(1) {
        Some(kind) => format!("unknown {first} '{kind}' ({expected})"),
        None => format!("missing {first} ({expected})"),
    }))
}

impl Command {
    /// The words that name the command.
    fn words(&self) -> impl Iterator<Item = &'static str> {
        let line = self.0;
        line.split(' ')
            .take_while(|w| w.starts_with(|c: char| c.is_ascii_lowercase()))
    }

    /// Every flag the line names, with whether it takes a value.
    fn flags(&self) -> impl Iterator<Item = (&'static str, bool)> {
        let line = self.0;
        line.match_indices("--").map(move |(at, _)| {
            let rest = &line[at..];
            let end = rest[2..]
                .find(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                .map_or(rest.len(), |n| n + 2);
            (&rest[..end], rest[end..].starts_with(' '))
        })
    }

    /// Checks `argv`, the words after the name, against the line. A value
    /// flag takes the next word, which may not be a flag.
    fn parse<'a>(&self, argv: &'a [String]) -> Result<Args<'a>, CliError> {
        let after_name = self.0.split_whitespace().skip(self.words().count());
        let slots: Vec<&str> = after_name
            .take_while(|w| w.starts_with('<') || (w.starts_with('[') && !w.starts_with("[--")))
            .collect();
        let max = match slots.last() {
            Some(s) if s.ends_with("...") => usize::MAX,
            _ => slots.len(),
        };
        let mut args = Args::default();
        let mut words = argv.iter().map(String::as_str);
        while let Some(word) = words.next() {
            if !word.starts_with("--") {
                if args.pos.len() == max {
                    return Err(usage(format!("unexpected argument '{word}'")));
                }
                args.pos.push(word);
                continue;
            }
            let value = match self.flags().find(|(flag, _)| *flag == word) {
                None => return Err(usage(format!("unknown flag '{word}'"))),
                Some((_, false)) => None,
                Some((_, true)) => match words.next() {
                    Some(v) if !v.starts_with("--") => Some(v),
                    _ => return Err(usage(format!("flag '{word}' needs a value"))),
                },
            };
            args.flags.push((word, value));
        }
        let missing = slots.get(args.pos.len());
        if let Some(slot) = missing.filter(|s| s.starts_with('<') && !s.ends_with("...")) {
            return Err(usage(format!("missing {slot}")));
        }
        let threads = args.value("--threads").map(Threads::parse);
        args.threads = threads.transpose().map_err(usage)?;
        Ok(args)
    }
}

/// A command line checked against its row.
#[derive(Default)]
struct Args<'a> {
    /// The positional arguments, as many as the row requires at least.
    pos: Vec<&'a str>,
    /// Each flag given, with its value if it takes one.
    flags: Vec<(&'a str, Option<&'a str>)>,
    /// `--threads`, if given.
    threads: Option<Threads>,
}

impl<'a> Args<'a> {
    /// The value given for `flag` (the first, if given twice).
    fn value(&self, flag: &str) -> Option<&'a str> {
        let given = self.flags.iter().find(|(f, _)| *f == flag);
        given.and_then(|(_, v)| *v)
    }

    fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(f, _)| *f == flag)
    }

    /// The value of a flag the command cannot run without.
    fn need(&self, flag: &str) -> Result<&'a str, CliError> {
        self.value(flag)
            .ok_or_else(|| usage(format!("missing {flag}")))
    }

    /// The value of integer flag `flag`, if given, which must be in `range`.
    fn num<T: TryFrom<u64>>(&self, flag: &str, range: Range) -> Result<Option<T>, CliError> {
        self.value(flag)
            .map(|v| bounded(flag, v, range))
            .transpose()
    }

    /// The `--threads` policy; one worker if absent.
    fn threads(&self) -> Threads {
        self.threads.unwrap_or(Threads::Fixed(1))
    }

    /// Applies the flags of `table`'s rows to `cfg`, refusing a bad value
    /// with the message the service's `400` gives.
    fn apply<C>(&self, table: &[fields::Field<C>], cfg: &mut C) -> Result<(), String> {
        fields::apply_flags(table, cfg, |flag| self.value(flag).map(str::to_string))
    }
}

type Range = RangeInclusive<u64>;
const ANY: Range = 0..=u64::MAX;
const POSITIVE: Range = 1..=u64::MAX;

/// Parses `text`, given for `name`, as an integer in `range`. Every
/// integer argument outside a config table goes through here.
fn bounded<T: TryFrom<u64>>(name: &str, text: &str, range: Range) -> Result<T, CliError> {
    let want = match (*range.start(), *range.end()) {
        (0, u64::MAX) => "a non-negative integer".to_string(),
        (1, u64::MAX) => "a positive integer".to_string(),
        (lo, hi) => format!("in {lo}..={hi}"),
    };
    let n = text.parse().ok().filter(|n| range.contains(n));
    let n = n.and_then(|n| T::try_from(n).ok());
    n.ok_or_else(|| usage(format!("{name} must be {want}, got '{text}'")))
}

/// The profile `name` names; an unknown name is a usage error.
fn workload(name: &str) -> Result<&'static WorkloadProfile, CliError> {
    profile::by_name(name).ok_or_else(|| usage(format!("unknown workload '{name}'")))
}

/// The text of file `path`, or of stdin if `path` is `-`.
fn read(path: &str) -> Result<String, String> {
    if path == "-" {
        let mut s = String::new();
        std::io::Read::read_to_string(&mut std::io::stdin(), &mut s)
            .map_err(|e| format!("stdin: {e}"))?;
        return Ok(s);
    }
    std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
}

/// `--addr`, 127.0.0.1:8017 if absent.
fn socket_addr(args: &Args) -> Result<std::net::SocketAddr, CliError> {
    let addr = args.value("--addr").unwrap_or("127.0.0.1:8017");
    addr.parse()
        .map_err(|e| usage(format!("--addr must be HOST:PORT, got '{addr}' ({e})")))
}

fn cmd_list(_: &Args) -> CliResult {
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

/// `simulate`: one point, `--cpu` to `--seed` bounded by the same table
/// rows as `POST /v1/simulate`, over each named workload.
fn cmd_simulate(args: &Args) -> CliResult {
    let name = args.need("--workload")?;
    // A comma list or `all` fans out over the executor; a single name
    // degenerates to one job on one worker.
    let profiles: Vec<&WorkloadProfile> = if name == "all" {
        profile::all().iter().collect()
    } else {
        name.split(',')
            .map(|n| workload(n.trim()))
            .collect::<Result<_, _>>()?
    };
    let mut point = SimPoint::default();
    args.apply(SimPoint::FIELDS, &mut point)?;
    let results = suit::exec::run(profiles.len(), args.threads(), |i| {
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

fn cmd_trace_record(args: &Args) -> CliResult {
    use suit::store::{DEFAULT_CHUNK_BURSTS, MAX_CHUNK_BURSTS};
    let p = workload(args.need("--workload")?)?;
    let out = args.need("--out")?;
    // An empty container is one no reader accepts.
    let bursts: usize = args.num("--bursts", POSITIVE)?.unwrap_or(10_000);
    let seed: u64 = args.num("--seed", ANY)?.unwrap_or(0x5017);
    let chunk_bursts = args
        .num("--chunk-bursts", 1..=MAX_CHUNK_BURSTS as u64)?
        .unwrap_or(DEFAULT_CHUNK_BURSTS);
    // The header must not claim more instructions than the kept bursts
    // cover, or a replay runs the rest with no faultable instruction. A
    // counting pass of the deterministic generator sizes it without
    // holding the bursts.
    let covered: u64 = TraceGen::new(p, seed)
        .take(bursts)
        .map(|b| b.total_insts())
        .sum();
    let meta = TraceMeta {
        name: p.name.into(),
        ipc: p.ipc,
        total_insts: p.total_insts.min(covered),
    };
    let f = std::fs::File::create(out).map_err(|e| format!("{out}: {e}"))?;
    let mut w = std::io::BufWriter::new(f);
    // Generator → packer → disk: memory stays O(chunk) no matter how long
    // the recording runs.
    let stats = suit::store::pack(
        &mut w,
        &meta,
        TraceGen::new(p, seed).take(bursts),
        chunk_bursts,
    )
    .map_err(|e| e.to_string())?;
    std::io::Write::flush(&mut w).map_err(|e| format!("{out}: {e}"))?;
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

fn cmd_trace_info(args: &Args) -> CliResult {
    let path = args.pos[0];
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

fn cmd_trace_seek(args: &Args) -> CliResult {
    let path = args.pos[0];
    let vtime: u64 = bounded("--vtime", args.need("--vtime")?, ANY)?;
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

/// `fleet`: rack-scale scenario over the event engine — racks of DVFS
/// domains with per-rack cooling/age governors, sharded between thermal
/// sync points. Output is byte-identical at every `--threads`.
fn cmd_fleet(args: &Args) -> CliResult {
    use suit::sim::fleet::{FleetConfig, FleetSim};
    let mut cfg = match args.value("--config") {
        Some(path) => FleetConfig::from_json(&read(path)?).map_err(|e| format!("{path}: {e}"))?,
        None => FleetConfig::default(),
    };
    args.apply(FleetConfig::FIELDS, &mut cfg)?;
    // `--cores N` sizes the fleet by total core count: with racks and
    // cores-per-domain fixed, N must split evenly into domains.
    if let Some(total) = args.num::<usize>("--cores", POSITIVE)? {
        if args.has("--domains") {
            return Err(usage("--cores and --domains are mutually exclusive"));
        }
        let per = cfg
            .racks
            .checked_mul(cfg.cores_per_domain)
            .filter(|&p| p > 0)
            .ok_or_else(|| usage("--cores: racks x cores-per-domain overflows"))?;
        if total % per != 0 {
            return Err(usage(format!(
                "--cores {total} must be a positive multiple of racks x cores-per-domain ({per})"
            )));
        }
        cfg.domains_per_rack = total / per;
    }
    print!("{}", FleetSim::new(cfg)?.run(args.threads()).render());
    Ok(())
}

fn cmd_mix(args: &Args) -> CliResult {
    use suit::sim::engine::simulate_mixed;
    // `all` fans every named mix out over the executor.
    let names: Vec<&str> = match args.pos[0] {
        "all" => MIX_NAMES.to_vec(),
        name => vec![name],
    };
    let mixes: Vec<Vec<&WorkloadProfile>> = names
        .iter()
        .map(|n| profile::mix(n))
        .collect::<Option<_>>()
        .ok_or_else(|| {
            let names = MIX_NAMES.join(", ");
            usage(format!("unknown mix '{}' (try {names}, all)", args.pos[0]))
        })?;
    // Mixes model consolidation on ONE shared DVFS domain — only the
    // i9-9900K class has that topology (CPU C's per-core p-states would
    // never couple the workloads), so default to CPU a.
    let mut point = SimPoint {
        cpu: CpuModel::i9_9900k(),
        insts: Some(1_000_000_000),
        ..SimPoint::default()
    };
    args.apply(SimPoint::FIELDS, &mut point)?;
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
    let results = suit::exec::run(mixes.len(), args.threads(), |i| {
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

fn cmd_analyze(args: &Args) -> CliResult {
    let p = workload(args.pos[0])?;
    let bursts: usize = match args.pos.get(1) {
        Some(v) => bounded("bursts", v, POSITIVE)?,
        None => 2_000,
    };
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
fn cmd_scenario(args: &Args, kind: &str) -> CliResult {
    let config = |doc: &str| {
        let doc = suit::telemetry::json::parse(doc)?;
        suit::scenarios::ScenarioConfig::of_kind(kind, &doc, &[])
    };
    let mut cfg = match args.value("--config") {
        Some(path) => config(&read(path)?).map_err(|e| format!("{path}: {e}"))?,
        None => config("{}")?,
    };
    cfg.apply_flags(|flag| args.value(flag).map(str::to_string))?;
    let report = cfg.run(args.threads(), &Telemetry::off())?;
    if args.has("--json") {
        println!("{}", report.to_json());
    } else {
        print!("{}", report.render());
    }
    Ok(())
}

/// `profile <workload>`: one instrumented simulation — telemetry summary
/// on stdout, optional Chrome/Perfetto trace via `--trace-out`.
fn cmd_profile(args: &Args) -> CliResult {
    let p = workload(args.pos[0])?;
    let events: usize = args.num("--events", ANY)?.unwrap_or(1 << 16);
    let mut point = SimPoint::default();
    args.apply(SimPoint::FIELDS, &mut point)?;
    if point.strategy == StrategyKey::Emulation {
        return Err(usage(
            "profile needs a curve-switching strategy (fv, f, v or adaptive), got 'e'",
        ));
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

    if let Some(out) = args.value("--trace-out") {
        let json = snap.to_perfetto_json();
        let stats = validate_perfetto(&json)
            .map_err(|e| format!("internal: emitted invalid trace: {e}"))?;
        std::fs::write(out, &json).map_err(|e| format!("{out}: {e}"))?;
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
fn cmd_validate_trace(args: &Args) -> CliResult {
    let path = args.pos[0];
    let src = read(path)?;
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
/// Every flag is checked before the socket is bound, so a bad value
/// never opens a port.
fn cmd_serve(args: &Args) -> CliResult {
    let addr = socket_addr(args)?;
    let d = suit::serve::ServeConfig::default();
    let cfg = suit::serve::ServeConfig {
        threads: args.threads(),
        queue_depth: args
            .num("--queue-depth", POSITIVE)?
            .unwrap_or(d.queue_depth),
        default_deadline_ms: args.num("--deadline-ms", ANY)?,
        // `0` on either bound disables the result cache (and coalescing).
        cache_entries: args.num("--cache-entries", ANY)?.unwrap_or(d.cache_entries),
        cache_bytes: args.num("--cache-bytes", ANY)?.unwrap_or(d.cache_bytes),
        // `0` on either bound disables the trace store (uploads get 413).
        trace_entries: args.num("--trace-entries", ANY)?.unwrap_or(d.trace_entries),
        trace_bytes: args.num("--trace-bytes", ANY)?.unwrap_or(d.trace_bytes),
        ..d
    };
    let cache = if cfg.cache_entries == 0 || cfg.cache_bytes == 0 {
        "cache off".to_string()
    } else {
        format!(
            "cache {} entries / {} bytes",
            cfg.cache_entries, cfg.cache_bytes
        )
    };
    let shape = format!(
        "{} worker(s), queue depth {}, {cache}",
        cfg.threads.count(),
        cfg.queue_depth
    );
    let server = suit::serve::Server::bind(&addr.to_string(), cfg).map_err(|e| e.to_string())?;
    let local = server.local_addr().map_err(|e| e.to_string())?;
    // The CI smoke step (and anyone using `--addr 127.0.0.1:0`) reads the
    // resolved port off this line, so keep its shape stable and flushed.
    println!("suit-serve listening on {local} ({shape})");
    let _ = std::io::Write::flush(&mut std::io::stdout());
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
fn cmd_client(args: &Args) -> CliResult {
    let path = args.pos[0];
    if !path.starts_with('/') {
        return Err(usage(format!("path must start with '/', got '{path}'")));
    }
    let addr = socket_addr(args)?.to_string();
    let timeout_ms = args.num("--timeout-ms", POSITIVE)?.unwrap_or(30_000);
    let body_file = args.value("--body-file");
    if body_file.is_some() && args.has("--body") {
        return Err(usage("--body and --body-file are mutually exclusive"));
    }
    if body_file.is_some() && args.has("--etag") {
        return Err(usage(
            "--etag does not apply to binary uploads (--body-file)",
        ));
    }
    // POST whenever a body is supplied; an explicit --method wins.
    let post = body_file.is_some() || args.has("--body");
    let method = args
        .value("--method")
        .unwrap_or(if post { "POST" } else { "GET" });
    if !matches!(method, "GET" | "POST") {
        return Err(usage(format!(
            "unsupported method '{method}' (expected GET or POST)"
        )));
    }
    // `--body -` reads the request body from stdin, mirroring
    // `validate-trace -`.
    let body = match args.value("--body") {
        Some("-") => Some(read("-")?),
        other => other.map(str::to_string),
    };
    // `--etag x` sends `If-None-Match: "x"`; a tag already quoted (or
    // the `*` wildcard) passes through verbatim.
    let if_none_match = args.value("--etag").map(|t| {
        if t == "*" || t.starts_with('"') || t.starts_with("W/") {
            t.to_string()
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
            let bytes = std::fs::read(file).map_err(|e| format!("{file}: {e}"))?;
            suit::serve::request_bytes(&addr, method, path, &bytes, timeout)
        }
        None => suit::serve::request_with_headers(
            &addr,
            method,
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
        return Err(format!("HTTP {}: {text}", resp.status).into());
    }
    if resp.status == 304 {
        println!("304 not modified");
        return Ok(());
    }
    if args.has("--expect-json") {
        suit::telemetry::json::parse(&text)
            .map_err(|e| format!("response body is not valid JSON: {e}"))?;
    }
    println!("{text}");
    if args.has("--show-etag") {
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
fn cmd_bench(args: &Args) -> CliResult {
    use suit::bench::{perf::PerfOpts, render_all, Opts, Scale, ARTEFACTS, PERF};
    let ids = &args.pos;
    let known = || {
        let rows = ARTEFACTS.iter().map(|(id, _)| *id);
        let perf = PERF.iter().map(|(id, _, _)| *id);
        let ids: Vec<&str> = rows.chain(perf).chain(["all", "check-bench"]).collect();
        ids.join(", ")
    };
    if ids.is_empty() {
        return Err(usage(format!("missing bench id (one of: {})", known())));
    }
    for id in ids {
        let takes: &[&str] = match *id {
            "all" => &["--full", "--test", "--threads", "--out"],
            "check-bench" => &[],
            _ if ARTEFACTS.iter().any(|(a, _)| a == id) => {
                &["--full", "--test", "--threads", "--telemetry"]
            }
            _ => match PERF.iter().find(|(p, _, _)| p == id) {
                Some((_, Some(_), _)) => &["--test", "--json"],
                Some((_, None, _)) => &["--test"],
                None => {
                    return Err(usage(format!(
                        "unknown bench id '{id}' (one of: {})",
                        known()
                    )))
                }
            },
        };
        if let Some((flag, _)) = args.flags.iter().find(|(f, _)| !takes.contains(f)) {
            return Err(usage(format!("bench {id} does not take {flag}")));
        }
    }
    if ids.len() > 1 {
        if let Some(id) = ids.iter().find(|id| matches!(**id, "all" | "check-bench")) {
            return Err(usage(format!("bench {id} does not take another id")));
        }
        if args.has("--json") {
            return Err(usage("bench --json does not take more than one id"));
        }
    }
    let scale = match (args.has("--full"), args.has("--test")) {
        (true, true) => return Err(usage("--full and --test are mutually exclusive")),
        (true, false) => Scale::Full,
        (false, true) => Scale::Test,
        (false, false) => Scale::Quick,
    };
    let threads = args.threads.unwrap_or(Threads::Auto);

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
            let out = args.value("--out").unwrap_or("artifacts");
            render_all::render_all(std::path::Path::new(out), scale, threads);
        }
        _ => {
            let opts = Opts {
                scale,
                threads,
                telemetry: args.has("--telemetry"),
            };
            let perf = PerfOpts {
                test_mode: args.has("--test"),
                json_path: args.value("--json").map(str::to_string),
            };
            for id in ids {
                match ARTEFACTS.iter().find(|(a, _)| a == id) {
                    Some((_, render)) => println!("{}", render(&opts)),
                    None => {
                        let (_, _, run) = PERF
                            .iter()
                            .find(|(p, _, _)| p == id)
                            .expect("every id was checked above");
                        run(&perf);
                    }
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use suit::scenarios::{ScroogeConfig, SramScenarioConfig};
    use suit::sim::fleet::FleetConfig;

    /// The usage error `c` gives for `argv`, or an empty string.
    fn refusal(c: &Command, argv: &[&str]) -> String {
        let argv: Vec<String> = argv.iter().map(|w| w.to_string()).collect();
        match c.parse(&argv) {
            Err(CliError::Usage(msg)) => msg,
            _ => String::new(),
        }
    }

    #[test]
    fn every_row_refuses_unknown_flags_and_names_every_flag_it_takes() {
        let point: Vec<&str> = fields::flags(SimPoint::FIELDS).collect();
        let tables = [
            ("simulate", point.clone()),
            ("profile", point),
            ("fleet", fields::flags(FleetConfig::FIELDS).collect()),
            (
                "scenario sram",
                fields::flags(SramScenarioConfig::FIELDS).collect(),
            ),
            (
                "scenario scrooge",
                fields::flags(ScroogeConfig::FIELDS).collect(),
            ),
        ];
        let text = usage_text();
        for c in COMMANDS {
            let unknown = refusal(c, &["--no-such-flag"]);
            assert_eq!(unknown, "unknown flag '--no-such-flag'", "{}", c.0);
            // Every flag the line names parses, with a value if it takes one.
            let named = c
                .flags()
                .flat_map(|(flag, value)| [Some(flag), value.then_some("1")]);
            let named: Vec<&str> = named.flatten().collect();
            assert!(!refusal(c, &named).contains("flag '"), "{}", c.0);
            // A command names every flag of the config table it applies.
            for (_, table) in tables
                .iter()
                .filter(|(name, _)| c.words().eq(name.split(' ')))
            {
                for flag in table {
                    assert!(c.flags().any(|f| f == (*flag, true)), "{}: {flag}", c.0);
                }
            }
            assert!(text.contains(c.0.lines().next().unwrap_or("")), "{}", c.0);
        }
        assert!(text.contains("\n  list\n") && text.contains("\n  analyze <workload>"));
        assert!(MIX_NAMES.iter().all(|mix| text.contains(mix)), "{text}");
    }
}
