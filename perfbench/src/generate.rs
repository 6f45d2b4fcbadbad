//! `--generate-expected`: computes every workload's answers and writes the
//! expected-verdict files, refusing to write any answer an independent
//! oracle disputes. The oracles are `cr_core::certify_check` certificates
//! (every check verdict), the Lenzerini–Nobili baseline (ISA-free
//! schemas) and the Theorem 3.4 `Z ⊆ V_C` enumeration (schemas of at most
//! three classes); edit verdicts are also re-derived from scratch.

use std::collections::BTreeMap;
use std::path::Path;

use cr_bench::SchemaShape;
use cr_core::sat::zenum::satisfiable_by_z_enumeration;
use cr_core::sat::Reasoner;
use cr_core::{Budget, Schema, Stage};

use crate::corpus;
use crate::edits;
use crate::expected;
use crate::serve;
use crate::spans::Spans;

/// Z-enumeration steps certify_check may spend on one corpus schema, and
/// on one schema of the edit pool and the server probe.
pub const Z_CAP: u64 = 1 << 12;
pub const Z_CAP_POOL: u64 = 1 << 8;

/// How many answers each oracle confirmed.
#[derive(Default, Debug)]
pub struct OracleStats {
    pub certified: u64,
    pub witness_only: u64,
    pub baseline: u64,
    pub enumerated: u64,
}

/// Unsat class names by the oracles that apply to `schema`; errors when
/// any two disagree.
pub fn oracle_unsat(
    schema: &Schema,
    flat: bool,
    label: &str,
    z_cap: u64,
    stats: &mut OracleStats,
) -> Result<Vec<String>, String> {
    let names = |ids: Vec<cr_core::ClassId>| -> Vec<String> {
        let mut v: Vec<String> = ids
            .into_iter()
            .map(|c| schema.class_name(c).to_string())
            .collect();
        v.sort();
        v
    };
    let r = Reasoner::new(schema).map_err(|e| format!("{label}: {e}"))?;
    let unsat = names(r.unsatisfiable_classes());
    // certify_check also re-runs the Z-enumeration per class, which is
    // exponential in the compound classes; past the cap, only the witness
    // half of the certificate is re-validated.
    let budget = Budget::unlimited().with_stage_limit(Stage::ZEnumeration, z_cap);
    match cr_core::certify_check(schema, &budget) {
        Ok(cert) => {
            if !cert.ok() {
                return Err(format!(
                    "{label}: certificates refuted the verdict: {:?}",
                    cert.failures
                ));
            }
            let mut certified = cert.unsat_classes.clone();
            certified.sort();
            if certified != unsat {
                return Err(format!(
                    "{label}: certify says {certified:?}, reasoner says {unsat:?}"
                ));
            }
            stats.certified += 1;
        }
        Err(cr_core::CrError::BudgetExceeded { .. }) => {
            if let Some(w) = r.witness() {
                if !w.verify(r.system()) {
                    return Err(format!("{label}: witness fails re-validation"));
                }
            }
            stats.witness_only += 1;
        }
        Err(e) => return Err(format!("{label}: {e}")),
    }
    if flat {
        let base =
            cr_baseline::BaselineReasoner::new(schema).map_err(|e| format!("{label}: {e:?}"))?;
        let by_ln90 = names(base.unsatisfiable_classes(schema));
        if by_ln90 != unsat {
            return Err(format!(
                "{label}: LN90 baseline says {by_ln90:?}, reasoner says {unsat:?}"
            ));
        }
        stats.baseline += 1;
    }
    if schema.num_classes() <= 3 {
        let mut by_z = Vec::new();
        for c in schema.classes() {
            let sat = satisfiable_by_z_enumeration(r.expansion(), r.system(), c)
                .map_err(|e| format!("{label}: {e}"))?;
            if !sat {
                by_z.push(c);
            }
        }
        let by_z = names(by_z);
        if by_z != unsat {
            return Err(format!(
                "{label}: Z-enumeration says {by_z:?}, reasoner says {unsat:?}"
            ));
        }
        stats.enumerated += 1;
    }
    Ok(unsat)
}

fn generate_corpus(root: &Path, dir: &Path, stats: &mut OracleStats) -> Result<(), String> {
    let entries = corpus::corpus(root).map_err(|e| e.to_string())?;
    let mut answers = BTreeMap::new();
    for e in &entries {
        let schema = cr_lang::parse_schema(&e.text).map_err(|err| format!("{}: {err}", e.key))?;
        let unsat = oracle_unsat(
            &schema,
            e.shape == Some(SchemaShape::Flat),
            &e.key,
            Z_CAP,
            stats,
        )?;
        let got = corpus::check_entry(e, 0, &mut Spans::new(false), None)?;
        let verdict = &got[0].1;
        if !verdict_classes_match(verdict, &unsat) {
            return Err(format!(
                "{}: check verdict {verdict:?} disagrees with oracles {unsat:?}",
                e.key
            ));
        }
        for (k, v) in got {
            answers.insert(format!("corpus/{k}"), v);
        }
    }
    expected::write(
        &dir.join("verify-corpus.txt"),
        "verify-corpus expected answers: `crsat check` verdicts (finitely unsat classes | rels,\n\
         plus the count of unrestrictedly unsat classes) and `crsat bounds` windows of the\n\
         three-class draws. Written by `perfbench --generate-expected`; class verdicts\n\
         cross-checked against certify_check, the LN90 baseline (flat) and Z-enumeration (<=3 classes).",
        &answers,
    )
}

/// Whether the class part of a verdict text names exactly `unsat`.
pub fn verdict_classes_match(verdict: &str, unsat: &[String]) -> bool {
    if verdict == "sat" || verdict.starts_with("sat ") {
        return unsat.is_empty();
    }
    let classes = verdict
        .strip_prefix("unsat ")
        .and_then(|rest| rest.split(" | ").next())
        .unwrap_or("");
    let mut got: Vec<&str> = classes.split(',').filter(|s| !s.is_empty()).collect();
    got.sort_unstable();
    got == unsat.iter().map(String::as_str).collect::<Vec<_>>()
}

fn generate_edits(dir: &Path, stats: &mut OracleStats) -> Result<(), String> {
    let st = edits::setup(None)?;
    let mut answers = BTreeMap::new();
    let mut out = crate::util::Outcome::default();
    for k in 0..edits::STREAMS {
        let (_, texts) = edits::stream(k);
        let session = edits::session(&st, k, &mut Spans::new(false), None, &mut out);
        if session.results.len() != texts.len() {
            return Err(format!("stream {k} stopped early: {:?}", out.problems));
        }
        for (j, (res, text)) in session.results.iter().zip(&texts).enumerate() {
            let schema = cr_lang::parse_schema(text).map_err(|e| e.to_string())?;
            let unsat = oracle_unsat(&schema, false, &format!("edit/{k}/{j}"), Z_CAP_POOL, stats)?;
            let scratch = corpus::check_schema(&schema, &Budget::unlimited())?;
            let scratch = scratch
                .split(" | unrestricted")
                .next()
                .unwrap_or("")
                .to_string();
            if scratch != res.verdict || !verdict_classes_match(&res.verdict, &unsat) {
                return Err(format!(
                    "edit/{k}/{j}: delta says {:?}, from scratch {scratch:?}, oracles {unsat:?}",
                    res.verdict
                ));
            }
            answers.insert(format!("edit/{k}/{j}"), res.verdict.clone());
        }
    }
    expected::write(
        &dir.join("edit-session.txt"),
        "edit-session expected verdicts, one per edit of each pooled session (edit/<stream>/<step>).\n\
         Written by `perfbench --generate-expected`; each verdict re-derived from scratch and\n\
         cross-checked against certify_check (and Z-enumeration where <=3 classes).",
        &answers,
    )
}

/// Writes the expected file of `only` (every workload when empty).
pub fn run(root: &Path, dir: &Path, only: &str) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let mut stats = OracleStats::default();
    if only.is_empty() || only == "verify-corpus" {
        generate_corpus(root, dir, &mut stats)?;
        eprintln!("verify-corpus answers written: {stats:?}");
    }
    if only.is_empty() || only == "edit-session" {
        generate_edits(dir, &mut stats)?;
        eprintln!("edit-session answers written: {stats:?}");
    }
    if only.is_empty() || only == "server-probe" {
        serve::generate(dir, &mut stats)?;
        eprintln!("server-probe answers written: {stats:?}");
    }
    Ok(())
}
