//! The one shared `BENCH_*.json` emitter.
//!
//! Every committed benchmark baseline in the repository root
//! (`BENCH_engine.json`, `BENCH_fleet.json`, `BENCH_trace_replay.json`,
//! `BENCH_scenarios.json`) is written through [`BenchDoc`], so all four
//! share one schema:
//!
//! ```json
//! {
//!   "schema_version": 1,
//!   "bench": "<name>",
//!   "config": { "<scalar or string>": ... },
//!   "results": { "<section>": { "median_ms": ..., "<rate>": ... } }
//! }
//! ```
//!
//! `config` holds the fixed scenario knobs (workload, sizes, seeds);
//! `results` holds one object per measured section, each with at least a
//! median. The rendered document is round-tripped through the in-tree
//! JSON parser (`suit_telemetry::json`) and schema-checked **before** it
//! is written, so a malformed emitter can never commit a malformed
//! baseline. [`validate`] is the same check over an already-written file
//! — CI runs it over every committed `BENCH_*.json` so a schema change
//! without regenerated baselines fails the build.

use std::fmt::Write as _;

use suit_telemetry::json::{self, Value};

/// Current schema version of the committed `BENCH_*.json` documents.
/// Bump it when the envelope shape changes; CI then forces the committed
/// baselines to be regenerated.
pub const SCHEMA_VERSION: u64 = 1;

/// One scalar value in a bench document.
#[derive(Debug, Clone, PartialEq)]
pub enum Val {
    /// An exact integer (counts, byte sizes, seeds).
    U64(u64),
    /// A float rendered with the given number of decimals.
    F64(f64, usize),
    /// A string (workload names, mode labels).
    Str(String),
}

impl Val {
    fn render(&self) -> String {
        match self {
            Val::U64(v) => format!("{v}"),
            Val::F64(v, p) => {
                assert!(v.is_finite(), "bench metrics must be finite: {v}");
                format!("{v:.p$}", p = *p)
            }
            Val::Str(s) => json::escape(s),
        }
    }
}

fn render_obj(out: &mut String, indent: &str, fields: &[(String, Val)]) {
    out.push_str("{\n");
    for (i, (k, v)) in fields.iter().enumerate() {
        let comma = if i + 1 == fields.len() { "" } else { "," };
        let _ = writeln!(out, "{indent}  {}: {}{comma}", json::escape(k), v.render());
    }
    let _ = write!(out, "{indent}}}");
}

/// A benchmark document under construction: name, config scalars, and
/// named result sections, each a flat object of metrics.
#[derive(Debug, Clone, Default)]
pub struct BenchDoc {
    name: String,
    config: Vec<(String, Val)>,
    sections: Vec<(String, Vec<(String, Val)>)>,
}

impl BenchDoc {
    /// Starts a document for benchmark `name`.
    pub fn new(name: &str) -> Self {
        BenchDoc {
            name: name.to_string(),
            ..Default::default()
        }
    }

    /// Adds (or replaces) a config scalar.
    pub fn config(&mut self, key: &str, value: Val) -> &mut Self {
        self.config.retain(|(k, _)| k != key);
        self.config.push((key.to_string(), value));
        self
    }

    /// Adds a metric to result section `section` (created on first use;
    /// an existing key in the section is replaced).
    pub fn metric(&mut self, section: &str, key: &str, value: Val) -> &mut Self {
        let sec = match self.sections.iter_mut().find(|(s, _)| s == section) {
            Some((_, fields)) => fields,
            None => {
                self.sections.push((section.to_string(), Vec::new()));
                &mut self.sections.last_mut().expect("just pushed").1
            }
        };
        sec.retain(|(k, _)| k != key);
        sec.push((key.to_string(), value));
        self
    }

    /// Copies every metric of `fields` into section `section` — used to
    /// carry a previously committed baseline section forward verbatim.
    pub fn section_from(&mut self, section: &str, fields: &[(String, Val)]) -> &mut Self {
        for (k, v) in fields {
            self.metric(section, k, v.clone());
        }
        self
    }

    /// Renders the document. Key order is insertion order, so reruns of
    /// the same emitter produce byte-identical files.
    pub fn render(&self) -> String {
        assert!(!self.sections.is_empty(), "bench doc needs >= 1 section");
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema_version\": {SCHEMA_VERSION},");
        let _ = writeln!(out, "  \"bench\": {},", json::escape(&self.name));
        out.push_str("  \"config\": ");
        render_obj(&mut out, "  ", &self.config);
        out.push_str(",\n  \"results\": {\n");
        for (i, (sec, fields)) in self.sections.iter().enumerate() {
            let _ = write!(out, "    {}: ", json::escape(sec));
            render_obj(&mut out, "    ", fields);
            out.push_str(if i + 1 == self.sections.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        out.push_str("  }\n}\n");
        out
    }

    /// Renders, validates against the schema with the in-tree JSON
    /// parser, and writes to `path`. Panics (rather than committing a
    /// bad baseline) if the document does not round-trip.
    pub fn write(&self, path: &str) {
        let doc = self.render();
        validate(&doc, Some(&self.name)).expect("emitter produced a schema-invalid document");
        std::fs::write(path, &doc).expect("write bench JSON");
        println!("wrote {path}");
    }
}

/// Parses a section of an already-validated document back into `(key,
/// value)` pairs, preserving exact integer/float/string rendering where
/// possible — used to carry a committed baseline forward.
pub fn read_section(doc_src: &str, section: &str) -> Option<Vec<(String, Val)>> {
    let v = json::parse(doc_src).ok()?;
    let results = v.get("results")?;
    let sec = results.get(section)?;
    let fields = match sec {
        Value::Obj(fields) => fields,
        _ => return None,
    };
    Some(
        fields
            .iter()
            .filter_map(|(k, v)| {
                let val = match v {
                    Value::Num(n) if n.fract() == 0.0 && n.abs() < 9e15 && *n >= 0.0 => {
                        Val::U64(*n as u64)
                    }
                    Value::Num(n) => Val::F64(*n, 3),
                    Value::Str(s) => Val::Str(s.clone()),
                    _ => return None,
                };
                Some((k.clone(), val))
            })
            .collect(),
    )
}

/// Schema check for a rendered or committed `BENCH_*.json`: parses with
/// the in-tree JSON parser and requires the shared envelope —
/// `schema_version == `[`SCHEMA_VERSION`], a `bench` name (matching
/// `expect_bench` when given), a `config` object, and a non-empty
/// `results` object whose sections each carry a finite `median_ms` or
/// `median_ns`.
pub fn validate(doc_src: &str, expect_bench: Option<&str>) -> Result<(), String> {
    let v = json::parse(doc_src).map_err(|e| format!("not valid JSON: {e}"))?;
    let ver = v
        .get("schema_version")
        .and_then(Value::as_f64)
        .ok_or("missing schema_version (stale pre-schema baseline?)")?;
    if ver != SCHEMA_VERSION as f64 {
        return Err(format!(
            "schema_version {ver} != current {SCHEMA_VERSION}: regenerate the baseline"
        ));
    }
    let bench = v
        .get("bench")
        .and_then(Value::as_str)
        .ok_or("missing bench name")?;
    if let Some(expect) = expect_bench {
        if bench != expect {
            return Err(format!("bench \"{bench}\" != expected \"{expect}\""));
        }
    }
    match v.get("config") {
        Some(Value::Obj(_)) => {}
        _ => return Err("missing config object".into()),
    }
    let results = match v.get("results") {
        Some(Value::Obj(sections)) if !sections.is_empty() => sections,
        Some(Value::Obj(_)) => return Err("results object is empty".into()),
        _ => return Err("missing results object".into()),
    };
    for (name, sec) in results {
        let fields = match sec {
            Value::Obj(fields) => fields,
            _ => return Err(format!("results.{name} is not an object")),
        };
        let median = fields
            .iter()
            .find(|(k, _)| k == "median_ms" || k == "median_ns")
            .and_then(|(_, v)| v.as_f64());
        match median {
            Some(m) if m.is_finite() && m >= 0.0 => {}
            _ => return Err(format!("results.{name} lacks a finite median_ms/median_ns")),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchDoc {
        let mut d = BenchDoc::new("unit");
        d.config("workload", Val::Str("502.gcc".into()));
        d.config("insts", Val::U64(1000));
        d.metric("main", "median_ms", Val::F64(1.25, 3));
        d.metric("main", "rate_per_s", Val::F64(800.0, 1));
        d
    }

    #[test]
    fn rendered_doc_validates_and_roundtrips() {
        let doc = sample().render();
        validate(&doc, Some("unit")).unwrap();
        validate(&doc, None).unwrap();
        assert!(validate(&doc, Some("other")).is_err());
        // Byte-stable across reruns.
        assert_eq!(doc, sample().render());
    }

    #[test]
    fn stale_documents_are_rejected() {
        // The pre-schema shape (no schema_version) must fail.
        assert!(validate(r#"{"bench": "fleet", "serial": {}}"#, None)
            .unwrap_err()
            .contains("schema_version"));
        // A wrong version must fail.
        let doc = sample().render().replace(
            &format!("\"schema_version\": {SCHEMA_VERSION}"),
            "\"schema_version\": 999",
        );
        assert!(validate(&doc, None).unwrap_err().contains("regenerate"));
        // A section without a median must fail.
        let mut d = BenchDoc::new("x");
        d.metric("s", "rate", Val::U64(3));
        assert!(validate(&d.render(), None).is_err());
    }

    #[test]
    fn sections_carry_forward() {
        let doc = sample().render();
        let fields = read_section(&doc, "main").expect("section exists");
        let mut d2 = BenchDoc::new("unit");
        d2.config("workload", Val::Str("502.gcc".into()));
        d2.config("insts", Val::U64(1000));
        d2.section_from("baseline", &fields);
        d2.metric("current", "median_ms", Val::F64(0.5, 3));
        let doc2 = d2.render();
        validate(&doc2, Some("unit")).unwrap();
        assert!(doc2.contains("\"baseline\""));
        // Whole-valued floats may re-render as integers; the JSON value
        // is identical either way.
        assert!(doc2.contains("\"rate_per_s\": 800"));
        assert!(read_section(&doc, "nope").is_none());
    }
}
