//! `verify-corpus`: a closed loop on one thread that parses and checks a
//! fixed corpus in-process, the way `crsat check` does, plus implied-bound
//! probes on the three-class draws.

use std::path::Path;
use std::time::Instant;

use cr_bench::{SchemaGen, SchemaShape};
use cr_core::expansion::ExpansionConfig;
use cr_core::implication::{
    implied_maxc_governed, implied_minc_governed, BoundVerdict, ImpliedBound,
};
use cr_core::sat::{Reasoner, Strategy};
use cr_core::{Budget, Schema};

use crate::counters::Counters;
use crate::expected::Expected;
use crate::spans::Spans;
use crate::util::{self, median, quantile, Outcome};

/// Search cap for implied maxima, as `crsat report` uses.
const MAXC_CAP: u64 = 1 << 12;

pub const SHAPES: [(SchemaShape, &str); 3] = [
    (SchemaShape::Flat, "flat"),
    (SchemaShape::IsaModerate, "moderate"),
    (SchemaShape::IsaHeavy, "heavy"),
];

/// One corpus schema: its expected-verdict key, its source text and
/// whether it gets implied-bound probes.
pub struct Entry {
    pub key: String,
    pub text: String,
    pub shape: Option<SchemaShape>,
    pub classes: usize,
}

impl Entry {
    /// Three-class draws also get `implied_minc`/`implied_maxc` probes.
    pub fn probes(&self) -> bool {
        self.shape.is_some() && self.classes == 3
    }
}

/// The fixed corpus: one SchemaGen draw per shape × 3–6 classes × 2–3
/// relationships, plus the schema files shipped with the repository. The
/// run's seed only orders it.
pub fn corpus(root: &Path) -> std::io::Result<Vec<Entry>> {
    let mut out = Vec::new();
    for (si, &(shape, name)) in SHAPES.iter().enumerate() {
        for classes in 3..=6 {
            for rels in 2..=3 {
                let seed = 1000 * si as u64 + 10 * classes as u64 + rels as u64;
                let schema = SchemaGen::shaped(shape, classes, rels, seed).build();
                out.push(Entry {
                    key: format!("{name}-c{classes}-r{rels}"),
                    text: cr_lang::print_schema(&schema),
                    shape: Some(shape),
                    classes,
                });
            }
        }
    }
    for file in ["figure1", "meeting", "shapes", "university"] {
        let text = std::fs::read_to_string(root.join("schemas").join(format!("{file}.cr")))?;
        out.push(Entry {
            key: format!("file-{file}"),
            text,
            shape: None,
            classes: 0,
        });
    }
    Ok(out)
}

/// The canonical verdict text shared by every workload and the expected
/// files: finitely unsatisfiable classes, then relationships, by name.
pub fn verdict_text(mut classes: Vec<String>, mut rels: Vec<String>) -> String {
    if classes.is_empty() && rels.is_empty() {
        return "sat".to_string();
    }
    classes.sort();
    rels.sort();
    format!("unsat {} | {}", classes.join(","), rels.join(","))
}

/// The answers one check produces, keyed as in the expected file.
pub type Answers = Vec<(String, String)>;

/// Parses and checks `entry` like `crsat check` (finite and unrestricted
/// satisfiability of every class, finite satisfiability of every
/// relationship), then runs the implied-bound probes.
pub fn check_entry(
    entry: &Entry,
    op: u64,
    spans: &mut Spans,
    mut counters: Option<&mut Counters>,
) -> Result<Answers, String> {
    let s = spans.enter("lang.parse", op);
    let schema = cr_lang::parse_schema(&entry.text).map_err(|e| format!("{}: {e}", entry.key));
    spans.exit(s);
    let schema = schema?;

    let (tracer, budget) = traced_budget(spans.enabled());
    let s = spans.enter("core.reasoner", op);
    let r = reasoner(&schema, &budget);
    attach_stages(spans, s, &budget);
    spans.exit(s);
    let s = spans.enter("core.queries", op);
    let verdict = r.map(|r| verdict_of(&schema, &r));
    spans.exit(s);
    if let (Some(c), Some(t)) = (counters.as_deref_mut(), &tracer) {
        c.add_report(&t.report("check", "ok"));
    }
    let mut answers = vec![(entry.key.clone(), verdict?)];

    if entry.probes() {
        let (tracer, budget) = traced_budget(spans.enabled());
        let s = spans.enter("implication", op);
        let probes = implied_probes(&schema, &budget);
        attach_stages(spans, s, &budget);
        spans.exit(s);
        if let (Some(c), Some(t)) = (counters, &tracer) {
            c.add_report(&t.report("bounds", "ok"));
        }
        for (k, v) in probes? {
            answers.push((format!("{}/{k}", entry.key), v));
        }
    }
    Ok(answers)
}

/// An unlimited budget, with a fresh tracer of its own when tracing is on
/// (so each call's stage times and counters are its own).
pub fn traced_budget(on: bool) -> (Option<cr_trace::Tracer>, Budget) {
    if on {
        let t = cr_trace::Tracer::new(Box::new(cr_trace::NullSink));
        let b = Budget::unlimited().with_tracer(&t);
        (Some(t), b)
    } else {
        (None, Budget::unlimited())
    }
}

/// Moves the program's own stage times for the run behind `budget` onto
/// span `s`.
pub fn attach_stages(spans: &mut Spans, s: crate::spans::SpanId, budget: &Budget) {
    if !spans.enabled() {
        return;
    }
    let report = cr_core::run_report(budget, "check", "ok");
    for stage in ["expansion", "fixpoint"] {
        if let Some(st) = report.stage(stage) {
            spans.attach(s, stage, st.duration_ns);
        }
    }
}

pub fn check_schema(schema: &Schema, budget: &Budget) -> Result<String, String> {
    Ok(verdict_of(schema, &reasoner(schema, budget)?))
}

fn reasoner<'s>(schema: &'s Schema, budget: &Budget) -> Result<Reasoner<'s>, String> {
    Reasoner::with_budget(
        schema,
        &ExpansionConfig::default(),
        Strategy::default(),
        budget,
    )
    .map_err(|e| e.to_string())
}

/// The per-class and per-relationship answers `crsat check` prints: the
/// relationship and unrestricted queries run LPs of their own.
fn verdict_of(schema: &Schema, r: &Reasoner<'_>) -> String {
    let viable = cr_core::unrestricted::viable_compound_classes(r.expansion());
    let mut unsat = Vec::new();
    let mut unres = 0usize;
    for c in schema.classes() {
        if !r.is_class_satisfiable(c) {
            unsat.push(schema.class_name(c).to_string());
        }
        if !r
            .expansion()
            .compound_classes_containing(c)
            .iter()
            .any(|&cc| viable[cc])
        {
            unres += 1;
        }
    }
    let rels = schema
        .rels()
        .filter(|&rel| !r.is_rel_satisfiable(rel))
        .map(|rel| schema.rel_name(rel).to_string())
        .collect();
    let mut v = verdict_text(unsat, rels);
    if unres > 0 {
        v.push_str(&format!(" | unrestricted-unsat {unres}"));
    }
    v
}

/// Tightest implied window of every declared cardinality, as `crsat
/// bounds` reports it.
fn implied_probes(schema: &Schema, budget: &Budget) -> Result<Answers, String> {
    let config = ExpansionConfig::default();
    let bound = |b: BoundVerdict| match b {
        BoundVerdict::Known(ImpliedBound::Bound(v)) => Ok(v.to_string()),
        BoundVerdict::Known(ImpliedBound::NoBoundUpTo(_)) => Ok("inf".to_string()),
        BoundVerdict::Known(ImpliedBound::Unsatisfiable) => Ok("unsat".to_string()),
        BoundVerdict::Unknown { reason } => Err(reason),
    };
    let mut out = Vec::new();
    for d in schema.card_declarations() {
        let role = format!(
            "{}.{}",
            schema.rel_name(schema.rel_of_role(d.role)),
            schema.role_name(d.role)
        );
        let class = schema.class_name(d.class);
        let min = implied_minc_governed(schema, d.class, d.role, &config, budget)
            .map_err(|e| e.to_string())?;
        let max = implied_maxc_governed(schema, d.class, d.role, &config, MAXC_CAP, budget)
            .map_err(|e| e.to_string())?;
        out.push((
            format!("bounds/{class}/{role}"),
            format!("{}..{}", bound(min)?, bound(max)?),
        ));
    }
    Ok(out)
}

/// Compares a check's answers with the expected file; returns how many
/// answers were checked and how many disagreed.
pub fn compare(answers: &Answers, expected: &Expected, out: &mut Outcome) -> (u64, u64) {
    let mut failed = 0;
    for (k, v) in answers {
        if let Err(msg) = expected.check(&format!("corpus/{k}"), v) {
            failed += 1;
            out.problem(msg);
        }
    }
    (answers.len() as u64, failed)
}

struct Setup {
    entries: Vec<Entry>,
    expected: Expected,
}

fn setup(root: &Path, expected_dir: &Path) -> Result<Setup, String> {
    let entries = corpus(root).map_err(|e| format!("cannot read schemas/: {e}"))?;
    let expected = Expected::load(&expected_dir.join("verify-corpus.txt"))?;
    Ok(Setup { entries, expected })
}

/// One pass over the corpus in `order`. Returns milliseconds per schema,
/// indexed like the corpus, as measured and as calibrated: scaled to the reference machine's speed by
/// the median of the calibration readings taken before the pass and after
/// each schema. One scale per pass follows the machine's slow phases, which
/// last tens of seconds, without the jitter of any single reading.
fn pass(
    st: &Setup,
    order: &[usize],
    spans: &mut Spans,
    mut counters: Option<&mut Counters>,
    out: &mut Outcome,
) -> (Vec<f64>, Vec<f64>) {
    let mut raw = vec![0.0; st.entries.len()];
    let mut scales = vec![util::calibration_scale()];
    for (n, &i) in order.iter().enumerate() {
        let t = Instant::now();
        let op = spans.enter("verdict", n as u64);
        let result = check_entry(&st.entries[i], n as u64, spans, counters.as_deref_mut());
        spans.exit(op);
        raw[i] = util::ms_since(t);
        scales.push(util::calibration_scale());
        match result {
            Ok(answers) => {
                let (a, f) = compare(&answers, &st.expected, out);
                out.attempted += a;
                out.failed += f;
            }
            Err(e) => {
                out.attempted += 1;
                out.failed += 1;
                out.problem(format!("{}: {e}", st.entries[i].key));
            }
        }
    }
    let scale = median(&scales);
    let calibrated = raw.iter().map(|ms| ms * scale).collect();
    (raw, calibrated)
}

pub struct Ctx<'a> {
    pub root: &'a Path,
    pub expected_dir: &'a Path,
    pub seed: u64,
    pub seconds: f64,
}

/// The seeded order of pass `k`.
fn pass_order(n: usize, seed: u64, k: usize) -> Vec<usize> {
    util::seeded_order(n, seed, &format!("verify-corpus/order/{k}"))
}

/// Wall seconds of one corpus pass on the reference VM.
const NOMINAL_PASS_S: f64 = 14.0;

/// Untraced run: as many whole corpus passes as fit in `seconds` at the
/// reference VM's speed, at least two. The count depends on `seconds`
/// alone, so every run takes the best of equally many passes, however fast
/// the program or the machine is that day. Each pass runs the corpus in its
/// own seeded order, and each schema's time is its best over the passes.
/// The passes run seconds apart, so a slow phase of a shared machine during
/// one of them does not move the figures. A schema's time also depends on
/// the schema run before it (a large one leaves the heap and caches cold),
/// and across the orders each schema meets different predecessors. A change
/// to the program moves every pass.
pub fn run(ctx: &Ctx<'_>) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (setup_s, st) = util::timed_setup(21, || setup(ctx.root, ctx.expected_dir));
    let st = st?;
    let mut spans = Spans::new(false);
    let mut raw = Vec::new();
    let mut calibrated = Vec::new();
    let mut corpus_s = Vec::new();
    let passes = ((ctx.seconds / NOMINAL_PASS_S) as usize).max(2);
    for k in 0..passes {
        let order = pass_order(st.entries.len(), ctx.seed, k);
        let t = Instant::now();
        let (r, c) = pass(&st, &order, &mut spans, None, &mut out);
        raw.push(r);
        calibrated.push(c);
        corpus_s.push(t.elapsed().as_secs_f64());
    }
    let raw = util::best_of(&raw);
    let best = util::best_of(&calibrated);
    let p50 = median(&best);
    let p90 = quantile(&best, 0.9);
    let best_s = best.iter().sum::<f64>() / 1e3;
    out.notes.push(format!(
        "verify-corpus: {} schemas x {} passes; per-schema times are the best of the passes",
        st.entries.len(),
        corpus_s.len()
    ));
    out.notes
        .push(format!("passes_s = {} (wall)", util::join(&corpus_s, 3)));
    out.notes.push(format!(
        "corpus_s = {:.4} s (median pass, wall); best-of sum {:.4} s as measured, {best_s:.4} s calibrated",
        median(&corpus_s),
        raw.iter().sum::<f64>() / 1e3
    ));
    out.notes.push(format!(
        "check_p50_ms = {p50:.3} ms calibrated, {:.3} ms as measured",
        median(&raw)
    ));
    out.notes.push(format!(
        "check_p90_ms = {p90:.3} ms calibrated, {:.3} ms as measured",
        quantile(&raw, 0.9)
    ));
    out.metric("setup_s", setup_s, "s");
    out.metric("peak_rss_mb", util::peak_rss_mb(), "MB");
    out.metric("p50_ms", p50, "ms");
    out.metric("tail_ms", p90, "ms");
    out.metric("rate_per_s", st.entries.len() as f64 / best_s, "1/s");
    Ok(out)
}

/// What the traced run hands to the per-layer report.
pub struct Traced {
    pub untraced_s: f64,
    pub traced_s: f64,
    pub spans: Spans,
    pub counters: Counters,
    pub schemas: Vec<Schema>,
}

/// Traced run: one untraced pass for the overhead baseline, then one pass
/// with spans and the program's counters on.
pub fn run_traced(ctx: &Ctx<'_>, out: &mut Outcome) -> Result<Traced, String> {
    let st = setup(ctx.root, ctx.expected_dir)?;
    let order = pass_order(st.entries.len(), ctx.seed, 0);
    // Calibrated sums, so a slow phase of the machine during one pass is
    // not read as tracing overhead.
    let mut off = Spans::new(false);
    let untraced_s = pass(&st, &order, &mut off, None, out).1.iter().sum::<f64>() / 1e3;
    let mut spans = Spans::new(true);
    let mut counters = Counters::default();
    let (_, traced) = pass(&st, &order, &mut spans, Some(&mut counters), out);
    let traced_s = traced.iter().sum::<f64>() / 1e3;
    let schemas = st
        .entries
        .iter()
        .filter_map(|e| cr_lang::parse_schema(&e.text).ok())
        .collect();
    Ok(Traced {
        untraced_s,
        traced_s,
        spans,
        counters,
        schemas,
    })
}
