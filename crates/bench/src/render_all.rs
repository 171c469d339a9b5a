//! The parallel render-all driver: one run that regenerates every
//! artefact in [`ARTEFACTS`] and every committed `BENCH_*.json` baseline
//! in [`PERF`].
//!
//! The artefact rows fan out over the [`suit_exec`] executor at the
//! caller's `--threads`, each row rendering with a single-threaded inner
//! executor so the outer driver owns all parallelism. Rendering is a
//! pure function of the models, so the artefacts are byte-identical at
//! every worker count.
//!
//! The perf rows that write a baseline then run **serially after** the
//! render fan-out: timings must not share the machine with other jobs,
//! or the medians would measure scheduler contention instead of the
//! code.

use std::path::Path;

use suit_exec::Threads;

use crate::perf::PerfOpts;
use crate::{emit, Opts, Scale, ARTEFACTS, PERF};

/// The committed benchmark baselines as `(file, bench id)`: the
/// [`PERF`] rows that write one, and the name each file must carry —
/// the contract [`check_bench_files`] enforces.
pub fn bench_files() -> impl Iterator<Item = (&'static str, &'static str)> {
    PERF.iter()
        .filter_map(|&(id, file, _)| file.map(|file| (file, id)))
}

/// Validates every committed `BENCH_*.json` against the shared emitter
/// schema ([`emit::validate`]), including the bench name each file must
/// declare. Returns the per-file report lines, or the first failure —
/// which is how CI fails the build when a schema change lands without
/// regenerated baselines.
pub fn check_bench_files(dir: &Path) -> Result<Vec<String>, String> {
    let mut report = Vec::new();
    for (file, bench) in bench_files() {
        let path = dir.join(file);
        let src = std::fs::read_to_string(&path)
            .map_err(|e| format!("{file}: cannot read committed baseline: {e}"))?;
        emit::validate(&src, Some(bench)).map_err(|e| format!("{file}: {e}"))?;
        report.push(format!("{file}: ok ({bench})"));
    }
    Ok(report)
}

/// Runs the full driver: fans the artefact rows out over `threads`,
/// writes one `<out_dir>/<id>.txt` per artefact plus an `INDEX.txt`,
/// then runs the baseline perf rows serially. At [`Scale::Test`] the
/// perf rows shrink, assert their sanity bounds and write their
/// `BENCH_*.json` into `out_dir`, so CI never dirties the committed
/// baselines; otherwise they refresh the baselines in the current
/// directory.
pub fn render_all(out_dir: &Path, scale: Scale, threads: Threads) {
    let n_bench = bench_files().count();
    println!(
        "render_all: {} artefacts over {} worker(s), then {n_bench} serial perf benches\n",
        ARTEFACTS.len(),
        threads.count().min(ARTEFACTS.len()),
    );

    let inner = Opts {
        scale,
        threads: Threads::Fixed(1),
        telemetry: false,
    };
    let rendered = suit_exec::run(ARTEFACTS.len(), threads, |i| (ARTEFACTS[i].1)(&inner));

    std::fs::create_dir_all(out_dir).expect("create artefact directory");
    let mut index = String::from("EXPERIMENTS.md artefact set, one file per regenerator:\n");
    for ((id, _), text) in ARTEFACTS.iter().zip(&rendered) {
        let path = out_dir.join(format!("{id}.txt"));
        std::fs::write(&path, text).expect("write artefact");
        index.push_str(&format!("  {id}.txt\n"));
        println!("wrote {}", path.display());
    }
    for (file, _) in bench_files() {
        index.push_str(&format!("  {file} (perf baseline)\n"));
    }
    std::fs::write(out_dir.join("INDEX.txt"), index).expect("write index");

    // Serial perf phase: the medians must not time other jobs' cache and
    // scheduler pressure.
    let test_mode = scale == Scale::Test;
    let bench_dir = if test_mode { out_dir } else { Path::new(".") };
    std::fs::create_dir_all(bench_dir).expect("create bench directory");
    for (_, file, run) in PERF {
        if let Some(file) = file {
            println!();
            run(&PerfOpts {
                test_mode,
                json_path: Some(bench_dir.join(file).to_string_lossy().into_owned()),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emit::{BenchDoc, Val};
    use std::path::PathBuf;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("suit-render-all-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write_doc(dir: &Path, file: &str, bench: &str) {
        let mut d = BenchDoc::new(bench);
        d.config("k", Val::U64(1));
        d.metric("main", "median_ms", Val::F64(1.0, 3));
        d.write(&dir.join(file).to_string_lossy());
    }

    #[test]
    fn check_accepts_schema_valid_baselines() {
        let dir = tmp_dir("ok");
        for (file, bench) in bench_files() {
            write_doc(&dir, file, bench);
        }
        let report = check_bench_files(&dir).expect("all valid");
        assert_eq!(report.len(), bench_files().count());
    }

    #[test]
    fn check_rejects_stale_and_misnamed_baselines() {
        let dir = tmp_dir("stale");
        // Missing file.
        assert!(check_bench_files(&dir).is_err());
        for (file, bench) in bench_files() {
            write_doc(&dir, file, bench);
        }
        let (first, _) = bench_files().next().expect("a baseline");
        // Pre-schema shape (no schema_version) is stale.
        std::fs::write(
            dir.join(first),
            r#"{"bench": "engine_hotpath", "results": {}}"#,
        )
        .unwrap();
        assert!(check_bench_files(&dir)
            .unwrap_err()
            .contains("schema_version"));
        // Wrong bench name in the right envelope is also rejected.
        write_doc(&dir, first, "something_else");
        assert!(check_bench_files(&dir).is_err());
    }

    /// The ids a document cites as `bench <id>`: in backticks, after
    /// `suit-cli`, or after cargo's `--`. A placeholder such as `<id>`
    /// cites nothing.
    fn cited_ids(doc: &str) -> Vec<&str> {
        ["`bench ", "suit-cli bench ", "-- bench "]
            .iter()
            .flat_map(|prefix| doc.match_indices(prefix).map(|(at, p)| at + p.len()))
            .map(|start| {
                let rest = &doc[start..];
                let end = rest
                    .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == '-'))
                    .unwrap_or(rest.len());
                &rest[..end]
            })
            .filter(|id| !id.is_empty())
            .collect()
    }

    #[test]
    fn job_list_covers_the_experiments_set() {
        let experiments = include_str!("../../../EXPERIMENTS.md");
        let docs = [
            ("README.md", include_str!("../../../README.md")),
            ("EXPERIMENTS.md", experiments),
            ("DESIGN.md", include_str!("../../../DESIGN.md")),
        ];
        let known = |id: &str| {
            ARTEFACTS.iter().any(|(a, _)| *a == id)
                || PERF.iter().any(|(p, _, _)| *p == id)
                || id == "all"
                || id == "check-bench"
        };
        for (name, doc) in docs {
            for id in cited_ids(doc) {
                assert!(known(id), "{name} cites `bench {id}`, which names no row");
            }
        }
        let cited = cited_ids(experiments);
        for (id, _) in ARTEFACTS {
            assert!(
                cited.contains(&id),
                "EXPERIMENTS.md never cites `bench {id}`"
            );
        }
    }

    /// The `|`-separated cells of a table line, trimmed, without the
    /// empty cell before a leading `|`.
    fn cells(line: &str) -> Vec<&str> {
        let line = line.trim_start();
        let line = line.strip_prefix('|').unwrap_or(line);
        line.split('|').map(str::trim).collect()
    }

    /// The cells of the first line of `text` whose first cell is `key`.
    fn row<'t>(text: &'t str, key: &str) -> Vec<&'t str> {
        text.lines()
            .map(cells)
            .find(|c| c[0] == key)
            .unwrap_or_else(|| panic!("no '{key}' row"))
    }

    /// A cell such as `+18.1%` as a number.
    fn percent(cell: &str) -> f64 {
        cell.trim_end_matches('%').parse().expect("a percentage")
    }

    /// EXPERIMENTS.md from `heading` to the next section, with "−" and
    /// " %" spelled as the goldens spell them.
    fn experiments_section(heading: &str) -> String {
        let doc = include_str!("../../../EXPERIMENTS.md");
        let section = &doc[doc.find(heading).unwrap_or_else(|| panic!("no {heading}"))..];
        let end = section.find("\n## ").unwrap_or(section.len());
        section[..end].replace('−', "-").replace(" %", "%")
    }

    /// The body rows of the first Markdown table in `section`.
    fn table_rows(section: &str) -> Vec<&str> {
        let rows = section.lines().skip_while(|l| !l.starts_with("|---"));
        rows.skip(1).take_while(|l| l.starts_with('|')).collect()
    }

    /// Each row of EXPERIMENTS.md's Table 6 reports, as its Measured
    /// triple, the SPECgmean Pwr / Perf / Eff that the committed
    /// default-cap golden prints for that row at −97 mV.
    #[test]
    fn experiments_table6_matches_the_default_golden() {
        let golden = include_str!("../../../goldens/default/table6.txt");
        let golden = &golden[golden.find("at -97 mV").expect("a -97 mV block")..];
        let section = experiments_section("## Table 6");
        let rows = table_rows(&section);
        assert_eq!(rows.len(), 6, "{section}");
        // The golden spells the configs in ASCII.
        let ascii = [("𝒜", "A"), ("ℬ", "B"), ("𝒞", "C"), ("₁", "1"), ("₄", "4")]
            .into_iter()
            .chain([("∞", "inf"), ("𝑓", "f"), ("𝑉", "V"), ("𝑒", "e")]);
        for line in rows {
            let doc = cells(line);
            let config = ascii
                .clone()
                .fold(doc[0].to_string(), |s, (a, b)| s.replace(a, b));
            let gmean = |metric: &str| {
                golden
                    .lines()
                    .map(cells)
                    .find(|c| c.len() > 2 && c[0] == config && c[1] == metric)
                    .map(|c| c[2].to_string())
                    .unwrap_or_else(|| panic!("no {config} {metric} row in the golden"))
            };
            let want = format!("{} / {} / {}", gmean("Pwr"), gmean("Perf"), gmean("Eff"));
            assert_eq!(doc[2], want, "EXPERIMENTS.md Table 6 row {}", doc[0]);
        }
    }

    /// The numbers EXPERIMENTS.md quotes for Figs. 12, 14 and 16, §6.4's
    /// residency table, the thrashing, IMUL-trap and noisy-neighbour
    /// ablations and the Monte-Carlo error bars are the ones their
    /// committed goldens print: the default-cap goldens, and the `--test`
    /// ones for Fig. 12, whose closed-form model ignores the cap, and the
    /// Monte-Carlo report, which prints the same at both sizes.
    #[test]
    fn experiments_numbers_match_the_goldens() {
        // Prose wraps anywhere, so it is compared with whitespace folded.
        let prose = |heading| {
            let section = experiments_section(heading);
            section.split_whitespace().collect::<Vec<_>>().join(" ")
        };
        let fig12 = row(include_str!("../../../goldens/test/fig12.txt"), "-97");
        let text = prose("## Fig. 12");
        for want in [
            format!("score {}", fig12[1]),
            format!("→ {} W", fig12[2]),
            format!("→ {} GHz", fig12[3]),
        ] {
            assert!(text.contains(&want), "Fig. 12 should say '{want}': {text}");
        }

        // Fig. 16: the two best SPEC efficiencies at −97 mV, and the ones
        // within a point of zero, in the golden's row order.
        let fig16 = include_str!("../../../goldens/default/fig16.txt");
        let spec: Vec<(&str, f64)> = fig16
            .lines()
            .map(cells)
            .filter(|c| c.len() == 5 && c[0].starts_with(|d: char| d.is_ascii_digit()))
            .map(|c| (c[0].split_once('.').expect("NNN.name").1, percent(c[4])))
            .collect();
        assert_eq!(spec.len(), 23, "{fig16}");
        let mut best = spec.clone();
        best.sort_by(|a, b| b.1.total_cmp(&a.1));
        let level = best[0].1.round();
        assert_eq!(best[1].1.round(), level, "{best:?}");
        let near_zero: Vec<&str> = spec
            .iter()
            .filter(|(_, eff)| eff.abs() < 1.0)
            .map(|(name, _)| *name)
            .collect();
        let text = prose("## Fig. 16");
        for want in [
            format!("{}/{} best at ≈ +{level}%", best[0].0, best[1].0),
            format!("{} ≈ 0", near_zero.join("/")),
        ] {
            assert!(text.contains(&want), "Fig. 16 should say '{want}': {text}");
        }
        // −70 mV against −97 mV efficiency: three rows quoted, and every
        // gain at −70 mV under half its −97 mV bar.
        for name in ["523.xalancbmk", "502.gcc", "554.roms"] {
            let golden = row(fig16, name);
            let want = format!("{name} {} against {}", golden[2], golden[4]);
            assert!(text.contains(&want), "Fig. 16 should say '{want}': {text}");
        }
        for c in fig16.lines().map(cells).filter(|c| c.len() == 5) {
            if let (Ok(eff70), Ok(eff97)) = (
                c[2].trim_end_matches('%').parse::<f64>(),
                c[4].trim_end_matches('%').parse::<f64>(),
            ) {
                assert!(eff97 <= 0.0 || eff70 < eff97 / 2.0, "Fig. 16 row {c:?}");
            }
        }

        // Table 6 at −70 mV against −97 mV: 𝒜₁ 𝑓𝑉's gmean power about
        // half, the gmean efficiencies about a third.
        let table6 = include_str!("../../../goldens/default/table6.txt");
        let (mv70, mv97) = table6.split_at(table6.find("at -97 mV").expect("a -97 mV block"));
        let gmean = |block: &str, config: &str, metric: &str| {
            let line = block
                .lines()
                .map(cells)
                .find(|c| c[0] == config && c[1] == metric);
            line.unwrap_or_else(|| panic!("no {config} {metric} row"))[2].to_string()
        };
        let text = prose("## Table 6");
        for (config, metric, doc, share) in [
            ("A1 fV", "Pwr", "𝒜₁ 𝑓𝑉 gmean", 0.4..0.6),
            ("A1 fV", "Eff", "𝒜₁ 𝑓𝑉", 0.25..0.4),
            ("Cinf fV", "Eff", "𝒞∞ 𝑓𝑉", 0.25..0.4),
        ] {
            let (at70, at97) = (gmean(mv70, config, metric), gmean(mv97, config, metric));
            let want = format!("{doc} {at70} against {at97}");
            assert!(text.contains(&want), "Table 6 should say '{want}': {text}");
            let ratio = percent(&at70) / percent(&at97);
            assert!(share.contains(&ratio), "{config} {metric}: {at70} / {at97}");
        }

        let fig14 = include_str!("../../../goldens/default/fig14.txt");
        let text = experiments_section("## Fig. 14");
        for latency in ["4 cycles", "30 cycles"] {
            let golden = row(fig14, latency);
            let want = format!("{} / {}", golden[1], golden[2]);
            assert_eq!(row(&text, latency)[2], want, "Fig. 14 at {latency}");
        }

        let residency = include_str!("../../../goldens/default/residency.txt");
        let section = experiments_section("## §6.4 residency");
        let rows = table_rows(&section);
        assert_eq!(rows.len(), 4, "{section}");
        for line in rows {
            let doc = cells(line);
            let golden = row(residency, doc[0]);
            assert_eq!(doc[1], golden[2], "§6.4 paper residency of {}", doc[0]);
            let measured = doc[2].split(' ').next();
            assert_eq!(measured, Some(golden[1]), "§6.4 residency of {}", doc[0]);
        }

        let ablations = include_str!("../../../goldens/default/ablations.txt");
        let omnetpp = row(ablations, "520.omnetpp");
        let (on, off) = omnetpp[5].split_once('/').expect("switches on/off");
        let (on, off): (u32, u32) = (on.parse().unwrap(), off.parse().unwrap());
        let grouped = |n: u32| match n {
            1000.. => format!("{} {:03}", n / 1000, n % 1000),
            _ => n.to_string(),
        };
        let hardened = row(ablations, "hardened IMUL (SUIT)");
        let text = prose("## Ablations");
        for want in [
            format!(
                "takes {}× the curve switches",
                (off as f64 / on as f64).round()
            ),
            format!("({} → {})", grouped(on), grouped(off)),
            format!("loses {} performance", omnetpp[3].trim_start_matches('-')),
            format!("parks conservative at {} perf", omnetpp[1]),
            format!("residency collapses from {} to", hardened[1]),
        ] {
            assert!(
                text.contains(&want),
                "Ablations should say '{want}': {text}"
            );
        }

        // Noisy neighbours: "from ~A% to < B%", A the golden's whole
        // percent alone and B a bound on the residency beside 520.omnetpp.
        let alone = percent(row(ablations, "557.xz alone")[1]);
        let paired = percent(row(ablations, "557.xz + 520.omnetpp")[1]);
        let claim = text
            .split("residency from ~")
            .nth(1)
            .expect("the noisy-neighbour sentence");
        let (from, rest) = claim.split_once("% to < ").expect("from ~A% to < B%");
        let below: f64 = rest[..rest.find('%').expect("B%")].parse().expect("B");
        assert_eq!(from, alone.trunc().to_string(), "residency alone, {alone}%");
        assert!(paired < below, "residency beside 520.omnetpp, {paired}%");

        // Monte-Carlo: 502.gcc's efficiency mean and deviation, and the
        // run count, from the `--test` report.
        let montecarlo = include_str!("../../../goldens/test/montecarlo.txt");
        let runs = montecarlo
            .strip_prefix("Monte-Carlo (")
            .and_then(|r| r.split_once(' '))
            .expect("the run count")
            .0;
        let gcc: Vec<&str> = montecarlo
            .lines()
            .find(|l| l.starts_with("502.gcc "))
            .expect("a 502.gcc row")
            .split_whitespace()
            .collect();
        let sign = if gcc[1].starts_with('-') { "" } else { "+" };
        let want = format!(
            "502.gcc efficiency {sign}{} ± {} over {runs} runs",
            gcc[1], gcc[3]
        );
        assert!(
            text.contains(&want),
            "Ablations should say '{want}': {text}"
        );
    }
}
