//! The property runner: corpus replay, random exploration, shrinking,
//! and failure reporting.

use std::fmt::Debug;
use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use suit_rng::SuitRng;

use crate::gen::Gen;
use crate::shrink::shrink;
use crate::source::Source;

/// What a property body may return. `()` passes unless the body panics;
/// `bool` fails on `false`; `Result` fails on `Err` with its message.
pub trait Outcome {
    /// `Some(reason)` if the property failed.
    fn failure(self) -> Option<String>;
}

impl Outcome for () {
    fn failure(self) -> Option<String> {
        None
    }
}

impl Outcome for bool {
    fn failure(self) -> Option<String> {
        if self {
            None
        } else {
            Some("property returned false".into())
        }
    }
}

impl Outcome for Result<(), String> {
    fn failure(self) -> Option<String> {
        self.err()
    }
}

/// A minimised property failure: everything needed to report, replay and
/// regression-pin it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Failure {
    /// The property name.
    pub property: String,
    /// The case seed that produced the failure. Re-running the property
    /// with this seed (via corpus or `SUIT_CHECK_SEED`) re-fails
    /// standalone and re-shrinks identically.
    pub seed: u64,
    /// `Debug` form of the originally generated counterexample.
    pub original_debug: String,
    /// Failure message of the original case.
    pub original_msg: String,
    /// `Debug` form of the shrunk, minimal counterexample.
    pub minimal_debug: String,
    /// Failure message of the minimal counterexample.
    pub minimal_msg: String,
    /// The accepted shrink steps, in order (deterministic per seed).
    pub trace: Vec<String>,
    /// Total shrink candidates evaluated.
    pub candidates: u64,
}

impl Failure {
    /// The full human-readable report the runner panics with.
    pub fn report(&self) -> String {
        format!(
            "suit-check: property '{}' failed\n\
             \x20 replay seed: {:#018x} (set SUIT_CHECK_SEED or commit a corpus .seed file)\n\
             \x20 original: {}\n\
             \x20   reason: {}\n\
             \x20 minimal:  {}\n\
             \x20   reason: {}\n\
             \x20 shrink: {} accepted steps / {} candidates\n{}",
            self.property,
            self.seed,
            self.original_debug,
            self.original_msg,
            self.minimal_debug,
            self.minimal_msg,
            self.trace.len(),
            self.candidates,
            self.trace
                .iter()
                .map(|s| format!("    {s}\n"))
                .collect::<String>()
        )
    }
}

/// Serialises shrinking (and its panic-hook silencing) across test
/// threads so concurrent failing properties do not interleave hooks.
static SHRINK_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` with the global panic hook silenced (shrinking evaluates
/// hundreds of intentionally panicking candidates).
fn with_quiet_panics<R>(f: impl FnOnce() -> R) -> R {
    let _guard = SHRINK_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let prev = panic::take_hook();
    panic::set_hook(Box::new(|_| {}));
    let out = f();
    panic::set_hook(prev);
    out
}

/// One case evaluation: sample, run the property, catch panics.
/// Returns the value's `Debug` form (if the generator completed) and the
/// failure message (if any).
fn run_case<T: Debug + 'static>(
    gen: &Gen<T>,
    prop: &dyn Fn(&T) -> Option<String>,
    src: &mut Source,
) -> (Option<String>, Option<String>) {
    // The value's Debug form is stashed outside the unwind boundary so a
    // panicking property still reports what input triggered it.
    let debug_cell = std::cell::RefCell::new(None);
    let result = panic::catch_unwind(AssertUnwindSafe(|| {
        let value = gen.sample(src);
        *debug_cell.borrow_mut() = Some(format!("{value:?}"));
        prop(&value)
    }));
    let debug = debug_cell.into_inner();
    match result {
        Ok(failure) => (debug, failure),
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
                .unwrap_or_else(|| "panicked with a non-string payload".into());
            (debug, Some(format!("panic: {msg}")))
        }
    }
}

/// A named property check: replays its regression corpus, explores random
/// cases, and shrinks + reports the first failure.
///
/// ```
/// use suit_check::{gen, Checker};
///
/// Checker::new("arith::add_commutes").cases(200).check(
///     &gen::pair(&gen::u64_any(), &gen::u64_any()),
///     |&(a, b)| a.wrapping_add(b) == b.wrapping_add(a),
/// );
/// ```
pub struct Checker {
    name: String,
    cases: u64,
    seed: u64,
    corpus: Option<PathBuf>,
}

/// Default number of random cases per property.
const DEFAULT_CASES: u64 = 256;
/// Default base seed for exploration (overridden by `SUIT_CHECK_SEED`).
const DEFAULT_SEED: u64 = 0x5017_C43C_0000_0001;

fn env_u64(name: &str) -> Option<u64> {
    let raw = std::env::var(name).ok()?;
    let raw = raw.trim();
    let parsed = if let Some(hex) = raw.strip_prefix("0x") {
        u64::from_str_radix(hex, 16)
    } else {
        raw.parse()
    };
    parsed.ok()
}

impl Checker {
    /// A checker for the property `name` (used in reports and corpus file
    /// names). The base seed honours `SUIT_CHECK_SEED` when set.
    pub fn new(name: &str) -> Self {
        Checker {
            name: name.to_string(),
            cases: DEFAULT_CASES,
            seed: env_u64("SUIT_CHECK_SEED").unwrap_or(DEFAULT_SEED),
            corpus: None,
        }
    }

    /// Sets the number of random cases to explore.
    pub fn cases(mut self, n: u64) -> Self {
        self.cases = n;
        self
    }

    /// Sets the case count to `SUIT_CHECK_CASES` when that is set (the CI
    /// fuzz-smoke dial), else `default_n`.
    pub fn cases_from_env_or(mut self, default_n: u64) -> Self {
        self.cases = env_u64("SUIT_CHECK_CASES").unwrap_or(default_n);
        self
    }

    /// Attaches a regression corpus directory. Seeds committed there as
    /// `<name>-<seed>.seed` are replayed *before* random exploration, and
    /// new failures found by [`Checker::check`] are persisted to it.
    pub fn corpus(mut self, dir: impl AsRef<Path>) -> Self {
        self.corpus = Some(dir.as_ref().to_path_buf());
        self
    }

    /// Runs the property; on failure, shrinks it, persists the failing
    /// seed to the corpus (if configured) and panics with the report.
    pub fn check<T: Debug + 'static, R: Outcome>(&self, gen: &Gen<T>, prop: impl Fn(&T) -> R) {
        if let Some(failure) = self.check_report(gen, prop) {
            self.persist(failure.seed);
            panic!("{}", failure.report());
        }
    }

    /// Differential oracle: generates inputs and requires `impl_a` and
    /// `impl_b` to agree exactly; mismatches shrink like any failure.
    pub fn check_diff<T: Debug + 'static, O: Debug + PartialEq>(
        &self,
        gen: &Gen<T>,
        impl_a: impl Fn(&T) -> O,
        impl_b: impl Fn(&T) -> O,
    ) {
        self.check(gen, move |v| {
            let (a, b) = (impl_a(v), impl_b(v));
            if a == b {
                Ok(())
            } else {
                Err(format!("implementations disagree: a={a:?} vs b={b:?}"))
            }
        });
    }

    /// Like [`Checker::check`] but returns the failure instead of
    /// panicking and never writes to the corpus — for meta-tests that
    /// assert on shrink behaviour itself.
    pub fn check_report<T: Debug + 'static, R: Outcome>(
        &self,
        gen: &Gen<T>,
        prop: impl Fn(&T) -> R,
    ) -> Option<Failure> {
        let prop = move |v: &T| prop(v).failure();
        // Regression corpus first: committed seeds replay before any
        // random exploration.
        for seed in self.corpus_seeds() {
            if let Some(f) = self.run_seed(gen, &prop, seed) {
                return Some(f);
            }
        }
        // Random exploration: per-case seeds are forked from the base
        // seed so any single case replays standalone from its own seed.
        let root = SuitRng::seed_from_u64(self.seed);
        for case in 0..self.cases {
            let case_seed = root.fork(case).root_seed();
            if let Some(f) = self.run_seed(gen, &prop, case_seed) {
                return Some(f);
            }
        }
        None
    }

    /// Replays exactly one seed (no corpus, no exploration).
    pub fn replay<T: Debug + 'static, R: Outcome>(
        &self,
        gen: &Gen<T>,
        prop: impl Fn(&T) -> R,
        seed: u64,
    ) -> Option<Failure> {
        let prop = move |v: &T| prop(v).failure();
        self.run_seed(gen, &prop, seed)
    }

    fn run_seed<T: Debug + 'static>(
        &self,
        gen: &Gen<T>,
        prop: &dyn Fn(&T) -> Option<String>,
        seed: u64,
    ) -> Option<Failure> {
        let mut src = Source::fresh(seed);
        let (debug, failure) = run_case(gen, prop, &mut src);
        let original_msg = failure?;
        let recorded = src.recorded().to_vec();

        let shrunk = with_quiet_panics(|| {
            shrink(&recorded, |choices| {
                let mut replay = Source::replay(choices);
                run_case(gen, prop, &mut replay).1.is_some()
            })
        });

        // Re-run the minimal candidate once to name it in the report.
        let mut replay = Source::replay(&shrunk.choices);
        let (min_debug, min_failure) = with_quiet_panics(|| run_case(gen, prop, &mut replay));
        Some(Failure {
            property: self.name.clone(),
            seed,
            original_debug: debug.unwrap_or_else(|| "<generator panicked>".into()),
            original_msg,
            minimal_debug: min_debug.unwrap_or_else(|| "<generator panicked>".into()),
            minimal_msg: min_failure.unwrap_or_else(|| "property passed on re-run".into()),
            trace: shrunk.trace,
            candidates: shrunk.candidates,
        })
    }

    /// Seeds committed for this property, in sorted file order.
    fn corpus_seeds(&self) -> Vec<u64> {
        let Some(dir) = &self.corpus else {
            return Vec::new();
        };
        let prefix = format!("{}-", sanitise(&self.name));
        let Ok(entries) = std::fs::read_dir(dir) else {
            return Vec::new();
        };
        let mut names: Vec<String> = entries
            .filter_map(|e| e.ok())
            .filter_map(|e| e.file_name().into_string().ok())
            .filter(|n| n.starts_with(&prefix) && n.ends_with(".seed"))
            .collect();
        names.sort();
        names
            .iter()
            .filter_map(|n| {
                let path = dir.join(n);
                let text = std::fs::read_to_string(path).ok()?;
                text.lines()
                    .map(str::trim)
                    .find(|l| !l.is_empty() && !l.starts_with('#'))
                    .and_then(|l| {
                        l.strip_prefix("0x")
                            .and_then(|h| u64::from_str_radix(h, 16).ok())
                            .or_else(|| l.parse().ok())
                    })
            })
            .collect()
    }

    /// Best-effort persistence of a failing seed to the corpus.
    fn persist(&self, seed: u64) {
        let Some(dir) = &self.corpus else { return };
        let name = format!("{}-{seed:016x}.seed", sanitise(&self.name));
        let body = format!(
            "# suit-check regression seed for property '{}'\n\
             # auto-replayed before random exploration; commit to pin the regression\n\
             {seed:#018x}\n",
            self.name
        );
        let _ = std::fs::create_dir_all(dir);
        let _ = std::fs::write(dir.join(name), body);
    }
}

/// Maps a property name onto a filesystem-safe corpus file stem.
fn sanitise(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn passing_property_reports_nothing() {
        let ok = Checker::new("meta::tautology")
            .cases(64)
            .check_report(&gen::u64_any(), |_| true);
        assert!(ok.is_none());
    }

    #[test]
    fn failure_shrinks_to_the_boundary() {
        let f = Checker::new("meta::ge_1000")
            .cases(64)
            .check_report(&gen::u64_in(0..=100_000), |&v| v < 1_000)
            .expect("property must fail");
        assert_eq!(f.minimal_debug, "1000");
        assert!(f.minimal_msg.contains("false"));
    }

    #[test]
    fn shrinking_is_deterministic_and_replayable() {
        let run = || {
            Checker::new("meta::sum")
                .cases(128)
                .check_report(&gen::u64_in(0..=500).vec_up_to(12), |v| {
                    v.iter().sum::<u64>() < 700
                })
                .expect("property must fail")
        };
        let (a, b) = (run(), run());
        assert_eq!(a, b, "same seed must give a byte-identical failure");
        assert!(!a.trace.is_empty());
        // The failing seed re-fails standalone, with the same shrink.
        let replayed = Checker::new("meta::sum")
            .replay(
                &gen::u64_in(0..=500).vec_up_to(12),
                |v: &Vec<u64>| v.iter().sum::<u64>() < 700,
                a.seed,
            )
            .expect("seed must re-fail");
        assert_eq!(replayed, a);
    }

    #[test]
    fn panics_are_caught_and_shrunk() {
        let f = Checker::new("meta::panics")
            .cases(64)
            .check_report(&gen::u64_in(0..=9999), |&v| {
                assert!(v < 500, "too big: {v}");
            })
            .expect("property must fail");
        assert!(f.original_msg.starts_with("panic:"), "{}", f.original_msg);
        assert_eq!(f.minimal_debug, "500");
    }

    #[test]
    fn check_diff_finds_the_divergence_point() {
        let f =
            Checker::new("meta::diff")
                .cases(64)
                .check_report(&gen::u64_in(0..=100_000), |&v| {
                    let broken = if v >= 4_321 { v + 1 } else { v };
                    let reference = v;
                    if broken == reference {
                        Ok(())
                    } else {
                        Err(format!("implementations disagree: {broken} vs {reference}"))
                    }
                });
        assert_eq!(f.expect("must fail").minimal_debug, "4321");
    }

    #[test]
    fn corpus_roundtrip() {
        let dir = std::env::temp_dir().join(format!("suit-check-test-{}", std::process::id()));
        let checker = Checker::new("meta::corpus").cases(0).corpus(&dir);
        checker.persist(0xABCD);
        assert_eq!(checker.corpus_seeds(), vec![0xABCD]);
        // cases(0) means only the corpus is replayed.
        let f = checker.check_report(&gen::u64_any(), |_| false);
        assert_eq!(f.expect("corpus seed must fail").seed, 0xABCD);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
