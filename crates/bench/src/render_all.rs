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
}
