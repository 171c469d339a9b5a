//! Smoke tests for the `suit-cli` binary: strict argument handling
//! (unknown subcommands and flags must print usage and exit nonzero, not
//! panic or get silently ignored) and the `profile` → `validate-trace`
//! round trip.

use std::process::{Command, Output};

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_suit-cli"))
        .args(args)
        .output()
        .expect("spawn suit-cli")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn unknown_subcommand_prints_usage_and_fails() {
    let out = cli(&["frobnicate"]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(err.contains("unknown subcommand 'frobnicate'"), "{err}");
    assert!(err.contains("usage: suit-cli"), "{err}");
}

#[test]
fn no_arguments_prints_usage_and_fails() {
    let out = cli(&[]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("usage: suit-cli"));
}

#[test]
fn unknown_flag_prints_usage_and_fails() {
    let out = cli(&["simulate", "--workload", "557.xz", "--bogus"]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(err.contains("unknown flag '--bogus'"), "{err}");
    assert!(err.contains("usage: suit-cli"), "{err}");
}

#[test]
fn unexpected_positional_fails() {
    let out = cli(&["simulate", "stray", "--workload", "557.xz"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("unexpected argument 'stray'"));
}

#[test]
fn a_value_flag_without_a_value_prints_usage_and_fails() {
    for (args, flag) in [
        (
            ["simulate", "--workload", "557.xz", "--seed"].as_slice(),
            "--seed",
        ),
        (
            ["simulate", "--seed", "--workload", "557.xz"].as_slice(),
            "--seed",
        ),
        (["fleet", "--racks"].as_slice(), "--racks"),
        (["bench", "engine_hotpath", "--json"].as_slice(), "--json"),
    ] {
        let out = cli(args);
        assert!(!out.status.success(), "{args:?} should fail");
        let err = stderr(&out);
        assert!(
            err.contains(&format!("flag '{flag}' needs a value")),
            "{args:?}: {err}"
        );
        assert!(err.contains("usage: suit-cli"), "{args:?}: {err}");
    }
}

#[test]
fn list_succeeds() {
    let out = cli(&["list"]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("557.xz"));
}

#[test]
fn bad_flag_values_fail_cleanly() {
    for args in [
        ["simulate", "--workload", "no-such-workload"].as_slice(),
        ["simulate", "--workload", "557.xz", "--cpu", "z"].as_slice(),
        ["simulate", "--workload", "557.xz", "--insts", "many"].as_slice(),
        ["simulate", "--workload", "557.xz", "--cores", "0"].as_slice(),
        [
            "simulate",
            "--workload",
            "557.xz",
            "--cores",
            "100000000000",
        ]
        .as_slice(),
        ["profile", "Nginx", "--cores", "0"].as_slice(),
        ["profile", "Nginx", "--insts", "0"].as_slice(),
        ["mix", "all", "--insts", "0"].as_slice(),
        [
            "trace",
            "record",
            "--workload",
            "557.xz",
            "--out",
            "/dev/null",
            "--bursts",
            "0",
        ]
        .as_slice(),
        ["validate-trace", "/no/such/file.json"].as_slice(),
    ] {
        let out = cli(args);
        assert!(!out.status.success(), "{args:?} should fail");
        let err = stderr(&out);
        assert!(err.starts_with("error:"), "{args:?}: {err}");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
    }
}

#[test]
fn cli_and_http_reject_a_bad_field_with_the_same_message() {
    for (flag, cli_value, json_value) in [
        ("cpu", "z", "\"z\""),
        ("strategy", "warp", "\"warp\""),
        ("offset", "80", "80"),
        ("cores", "0", "0"),
        ("insts", "0", "0"),
        ("seed", "-1", "-1"),
    ] {
        let body = format!("{{\"workload\":\"557.xz\",\"{flag}\":{json_value}}}");
        let http = suit::serve::api::parse_simulate(&body).expect_err(&body).0;
        let out = cli(&[
            "simulate",
            "--workload",
            "557.xz",
            &format!("--{flag}"),
            cli_value,
        ]);
        assert!(!out.status.success(), "--{flag} {cli_value} should fail");
        assert_eq!(
            stderr(&out),
            format!("error: {http}\n"),
            "--{flag} {cli_value}"
        );
    }
}

#[test]
fn bad_threads_values_print_usage_and_fail() {
    for bad in ["0", "-1", "many", ""] {
        let out = cli(&["simulate", "--workload", "557.xz", "--threads", bad]);
        assert!(!out.status.success(), "--threads {bad:?} should fail");
        let err = stderr(&out);
        assert!(
            err.contains("--threads must be a positive integer"),
            "--threads {bad:?}: {err}"
        );
        assert!(err.contains("usage: suit-cli"), "--threads {bad:?}: {err}");
    }
}

#[test]
fn simulate_fans_out_a_workload_list_deterministically() {
    let args = |threads: &'static str| {
        [
            "simulate",
            "--workload",
            "557.xz,Nginx,502.gcc",
            "--insts",
            "50000000",
            "--threads",
            threads,
        ]
    };
    let parallel = cli(&args("2"));
    assert!(parallel.status.success(), "{}", stderr(&parallel));
    let log = stdout(&parallel);
    // Output is in list order, one block per workload, at any width.
    let xz = log.find("557.xz on").expect("xz block");
    let nginx = log.find("Nginx on").expect("nginx block");
    let gcc = log.find("502.gcc on").expect("gcc block");
    assert!(xz < nginx && nginx < gcc, "{log}");
    let sequential = cli(&args("1"));
    assert_eq!(stdout(&sequential), log, "output diverged across widths");
}

#[test]
fn mix_all_runs_every_mix() {
    let out = cli(&["mix", "all", "--insts", "50000000", "--threads", "2"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let log = stdout(&out);
    for name in ["office", "webserver", "hpc", "media"] {
        assert!(
            log.contains(&format!("mix '{name}'")),
            "missing {name}: {log}"
        );
    }
}

#[test]
fn scenario_rejects_bad_kinds_and_flags() {
    let out = cli(&["scenario"]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(err.contains("expected sram or scrooge"), "{err}");
    assert!(err.contains("usage: suit-cli"), "{err}");

    let out = cli(&["scenario", "warp"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("unknown scenario 'warp'"));

    let out = cli(&["scenario", "sram", "--bogus"]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(err.contains("unknown flag '--bogus'"), "{err}");
    assert!(err.contains("usage: suit-cli"), "{err}");

    let out = cli(&["scenario", "sram", "--threads", "0"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("--threads must be a positive integer"));
}

#[test]
fn scenario_runs_both_kinds_deterministically() {
    // --json output must be byte-identical across worker counts; the
    // human rendering must carry the audit verdicts.
    let json = |threads: &'static str, kind: &'static str| {
        let out = cli(&["scenario", kind, "--json", "--threads", threads]);
        assert!(out.status.success(), "{}", stderr(&out));
        stdout(&out)
    };
    for kind in ["sram", "scrooge"] {
        let one = json("1", kind);
        assert_eq!(one, json("2", kind), "{kind} diverged across threads");
        assert!(one.contains(&format!("\"scenario\":\"{kind}\"")), "{one}");
    }
    let out = cli(&["scenario", "sram"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let log = stdout(&out);
    assert!(log.contains("audit matrix"), "{log}");
    assert!(log.contains("INSECURE"), "{log}");
    assert!(log.contains("secure"), "{log}");
}

#[test]
fn scenario_config_file_overrides_and_bad_configs_fail() {
    let path = std::env::temp_dir().join(format!("suit-cli-scenario-{}.json", std::process::id()));
    let path = path.to_str().expect("utf-8 temp path");
    std::fs::write(
        path,
        r#"{"scenario": "sram", "cache_banks": 2, "rob_banks": 1}"#,
    )
    .expect("write config");
    let out = cli(&["scenario", "sram", "--config", path, "--json"]);
    assert!(out.status.success(), "{}", stderr(&out));
    // 3 banks -> 3 bank rows in the JSON report.
    assert_eq!(stdout(&out).matches("\"margin_mv\"").count(), 3);

    // A config naming the other scenario must be refused, as must junk.
    let out = cli(&["scenario", "scrooge", "--config", path]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("error:"));
    std::fs::write(path, "not json").expect("write config");
    let out = cli(&["scenario", "sram", "--config", path]);
    std::fs::remove_file(path).ok();
    assert!(!out.status.success());
    assert!(stderr(&out).contains("error:"));
}

#[test]
fn serve_flag_validation_prints_usage_and_fails() {
    // Bad values must fail *before* any socket is bound: validation is
    // fast, loud, and routed through the same usage path as --threads.
    for (args, needle) in [
        (
            ["serve", "--addr", "not-an-address"].as_slice(),
            "--addr must be HOST:PORT",
        ),
        (
            ["serve", "--queue-depth", "0"].as_slice(),
            "--queue-depth must be a positive integer",
        ),
        (
            ["serve", "--queue-depth", "lots"].as_slice(),
            "--queue-depth must be a positive integer",
        ),
        (
            ["serve", "--threads", "0"].as_slice(),
            "--threads must be a positive integer",
        ),
        (
            ["serve", "--port", "80"].as_slice(),
            "unknown flag '--port'",
        ),
    ] {
        let out = cli(args);
        assert!(!out.status.success(), "{args:?} should fail");
        let err = stderr(&out);
        assert!(err.contains(needle), "{args:?}: {err}");
        assert!(err.contains("usage: suit-cli"), "{args:?}: {err}");
    }
}

#[test]
fn client_flag_validation_fails_cleanly() {
    for args in [
        ["client"].as_slice(),
        ["client", "v1/healthz"].as_slice(),
        ["client", "/v1/healthz", "--addr", "nope"].as_slice(),
        ["client", "/v1/healthz", "--method", "PUT"].as_slice(),
    ] {
        let out = cli(args);
        assert!(!out.status.success(), "{args:?} should fail");
        assert!(stderr(&out).contains("error:"), "{args:?}");
    }
    // A boolean flag before the path must not swallow it.
    let out = cli(&["client", "--expect-json", "v1/healthz"]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(err.contains("path must start with '/'"), "{err}");
}

#[test]
fn bench_rejects_bad_ids_flags_and_values() {
    for (args, needle) in [
        (["bench"].as_slice(), "missing bench id"),
        (["bench", "table9"].as_slice(), "unknown bench id 'table9'"),
        (
            ["bench", "table1", "--bogus"].as_slice(),
            "unknown flag '--bogus'",
        ),
        (
            ["bench", "table2", "--threads", "0"].as_slice(),
            "--threads must be a positive integer",
        ),
        (
            ["bench", "table2", "--json", "t.json"].as_slice(),
            "bench table2 does not take --json",
        ),
        (
            ["bench", "aes", "--json", "a.json"].as_slice(),
            "bench aes does not take --json",
        ),
        (
            ["bench", "engine_hotpath", "--threads", "2"].as_slice(),
            "bench engine_hotpath does not take --threads",
        ),
        (
            ["bench", "all", "table1"].as_slice(),
            "bench all does not take another id",
        ),
    ] {
        let out = cli(args);
        assert!(!out.status.success(), "{args:?} should fail");
        let err = stderr(&out);
        assert!(err.contains(needle), "{args:?}: {err}");
        assert!(err.contains("usage: suit-cli"), "{args:?}: {err}");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
    }
}

#[test]
fn bench_renders_the_named_rows_in_order() {
    let out = cli(&["bench", "table5", "delays"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let log = stdout(&out);
    let table5 = log.find("Table 5").expect("table5");
    let delays = log.find("transition delays").expect("delays");
    assert!(table5 < delays, "{log}");
}

#[test]
fn profile_validates_threads_like_every_other_subcommand() {
    let out = cli(&["profile", "Nginx", "--insts", "50000000", "--threads", "0"]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(
        err.contains("--threads must be a positive integer"),
        "{err}"
    );
    assert!(err.contains("usage: suit-cli"), "{err}");

    let out = cli(&["profile", "Nginx", "--insts", "50000000", "--threads", "2"]);
    assert!(out.status.success(), "{}", stderr(&out));
}

#[test]
fn validate_trace_reads_stdin_with_dash() {
    use std::io::Write;
    let path = std::env::temp_dir().join(format!("suit-cli-stdin-{}.json", std::process::id()));
    let path = path.to_str().expect("utf-8 temp path");
    let out = cli(&[
        "profile",
        "Nginx",
        "--insts",
        "50000000",
        "--trace-out",
        path,
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let trace = std::fs::read(path).expect("trace file");
    std::fs::remove_file(path).ok();

    let mut child = Command::new(env!("CARGO_BIN_EXE_suit-cli"))
        .args(["validate-trace", "-"])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn suit-cli");
    child.stdin.take().expect("stdin").write_all(&trace).ok();
    let out = child.wait_with_output().expect("wait suit-cli");
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(
        stdout(&out).contains("valid Perfetto trace"),
        "{}",
        stdout(&out)
    );

    // Without the trace on stdin nothing changes for files: a missing
    // path still fails strictly.
    let out = cli(&["validate-trace"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("missing <file|->"));
}

#[test]
fn profile_trace_round_trips_through_validate_trace() {
    let path = std::env::temp_dir().join(format!("suit-cli-smoke-{}.json", std::process::id()));
    let path = path.to_str().expect("utf-8 temp path");

    let out = cli(&[
        "profile",
        "Nginx",
        "--insts",
        "50000000",
        "--trace-out",
        path,
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let log = stdout(&out);
    assert!(log.contains("telemetry summary"), "{log}");
    assert!(log.contains("do_traps"), "{log}");

    let out = cli(&["validate-trace", path]);
    let report = stdout(&out);
    std::fs::remove_file(path).ok();
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(report.contains("valid Perfetto trace"), "{report}");
    for required in ["curve_switch", "do_trap", "stall"] {
        assert!(report.contains(required), "missing {required}: {report}");
    }
}

/// A per-test temp path for a trace container.
fn temp_trace(tag: &str) -> String {
    std::env::temp_dir()
        .join(format!("suit-cli-{tag}-{}.suittrc2", std::process::id()))
        .to_str()
        .expect("utf-8 temp path")
        .to_string()
}

#[test]
fn trace_record_info_and_seek_round_trip() {
    use suit::trace::{event::TraceSummary, profile, TraceGen};
    let path = temp_trace("record");
    let out = cli(&[
        "trace",
        "record",
        "--workload",
        "502.gcc",
        "--out",
        &path,
        "--bursts",
        "500",
        "--seed",
        "3",
        "--chunk-bursts",
        "64",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(
        stdout(&out).contains("packed 500 bursts of 502.gcc"),
        "{}",
        stdout(&out)
    );

    let p = profile::by_name("502.gcc").expect("502.gcc profile");
    let want = TraceSummary::from_bursts(TraceGen::new(p, 3).take(500));
    let out = cli(&["trace", "info", &path]);
    assert!(out.status.success(), "{}", stderr(&out));
    let info = stdout(&out);
    for line in [
        "SUITTRC2 container, workload 502.gcc".to_string(),
        "  bursts: 500\n".to_string(),
        "  chunks: 8 (64 bursts per full chunk)\n".to_string(),
        format!("  faultable instructions: {}\n", want.events),
        format!("  instructions covered: {}\n", want.insts),
        format!("  mean gap: {:.0} instructions\n", want.insts_per_event()),
        format!("  largest burst gap: {}\n", want.max_gap),
    ] {
        assert!(info.contains(&line), "missing {line:?} in {info}");
    }

    let out = cli(&["trace", "seek", &path, "--vtime", "1000000"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let seek = stdout(&out);
    assert!(seek.contains("vtime 1000000: burst starting at"), "{seek}");
    assert!(seek.contains("chunks decoded to get here: 1"), "{seek}");
    let out = cli(&["trace", "seek", "--vtime", &u64::MAX.to_string(), &path]);
    std::fs::remove_file(&path).ok();
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(
        stdout(&out).contains(&format!(
            "past the end of the trace (length {})",
            want.insts
        )),
        "{}",
        stdout(&out)
    );
}

#[test]
fn trace_record_header_never_claims_more_than_its_bursts_cover() {
    use suit::trace::profile;
    let gcc = profile::by_name("502.gcc").expect("502.gcc profile");
    let record_and_inspect = |bursts: &str| {
        let path = temp_trace(&format!("header-{bursts}"));
        let out = cli(&[
            "trace",
            "record",
            "--workload",
            "502.gcc",
            "--out",
            &path,
            "--bursts",
            bursts,
            "--seed",
            "7",
        ]);
        assert!(out.status.success(), "{}", stderr(&out));
        let out = cli(&["trace", "info", &path]);
        std::fs::remove_file(&path).ok();
        assert!(out.status.success(), "{}", stderr(&out));
        let info = stdout(&out);
        let field = |name: &str| -> u64 {
            info.lines()
                .find_map(|l| l.trim().strip_prefix(name))
                .and_then(|v| v.split_whitespace().next())
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("no {name:?} in {info}"))
        };
        (
            field("virtual length:"),
            field("instructions covered:"),
            field("bursts:"),
        )
    };

    // 100 bursts cover about 5% of 502.gcc's pass: the header declares
    // exactly what they cover, not the profile's 2·10¹⁰.
    let (declared, covered, bursts) = record_and_inspect("100");
    assert_eq!(bursts, 100);
    assert_eq!(covered, 1_030_362_753);
    assert_eq!(declared, covered);

    // A full pass (the generator stops at the profile's length, 2,285
    // bursts) keeps the profile's length in its header.
    let (declared, covered, bursts) = record_and_inspect("100000");
    assert_eq!(bursts, 2_285);
    assert_eq!(declared, gcc.total_insts);
    assert!(covered >= declared, "{covered} < {declared}");
}

#[test]
fn removed_trace_verbs_and_flags_fail() {
    let path = temp_trace("removed");
    for (args, needle) in [
        (
            ["trace", "pack", "a.suittrc", "b.suittrc2"].as_slice(),
            "usage",
        ),
        (
            ["trace", "unpack", "a.suittrc2", "b.suittrc"].as_slice(),
            "usage",
        ),
        (
            [
                "trace",
                "record",
                "--workload",
                "502.gcc",
                "--out",
                &path,
                "--format",
                "v2",
            ]
            .as_slice(),
            "unknown flag '--format'",
        ),
    ] {
        let out = cli(args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let err = stderr(&out);
        assert!(err.contains(needle), "{args:?}: {err}");
    }
    assert!(
        !std::path::Path::new(&path).exists(),
        "a rejected record must not create its output"
    );
}
