//! The traced run: per-layer metrics, self-time shares and tracing
//! overhead for one workload, plus the layer ladder.
//!
//! Each layer metric is read from the workload's own traced traffic when
//! the workload calls into that layer; otherwise from a small fixed probe
//! of that layer, so every traced run reports every layer. The notes name
//! each metric's source.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use crate::corpus;
use crate::counters::Counters;
use crate::edits;
use crate::ladder;
use crate::serve;
use crate::spans::Spans;
use crate::util::Outcome;

/// Layer metrics gathered so far: value, unit and where it came from.
#[derive(Default)]
struct Layers(BTreeMap<String, (f64, &'static str, &'static str)>);

impl Layers {
    /// Sets `name` unless an earlier (workload) source already did.
    fn offer(&mut self, source: &'static str, name: &str, value: f64, unit: &'static str) {
        self.0
            .entry(name.to_string())
            .or_insert((value, unit, source));
    }

    fn has(&self, name: &str) -> bool {
        self.0.contains_key(name)
    }
}

/// Span names and the share each one's self time is booked to.
const SHARES: [(&str, &str); 12] = [
    ("lang.parse", "share.lang"),
    ("lang.canon", "share.lang"),
    ("lang.diff", "share.lang"),
    ("expansion", "share.expansion"),
    ("fixpoint", "share.fixpoint_lp"),
    ("implication", "share.implication"),
    ("core.reasoner", "share.core_other"),
    ("core.fallback", "share.core_other"),
    ("core.queries", "share.core_queries"),
    ("delta.check", "share.delta"),
    ("verdict", "share.bench"),
    ("edit", "share.bench"),
];

/// Books each layer's self time to its share of `selfs`' total.
fn book(selfs: &BTreeMap<&'static str, u64>) -> BTreeMap<&'static str, f64> {
    let total: u64 = selfs.values().sum();
    let mut booked: BTreeMap<&str, u64> = SHARES.iter().map(|&(_, k)| (k, 0)).collect();
    for (name, ns) in selfs {
        let key = SHARES
            .iter()
            .find(|(n, _)| n == name)
            .map_or("share.bench", |&(_, k)| k);
        *booked.entry(key).or_default() += ns;
    }
    booked
        .into_iter()
        .map(|(k, ns)| (k, ns as f64 / total.max(1) as f64))
        .collect()
}

/// Self-time shares over the whole traced unit, and the make-up of the
/// median operation (`root` spans: one per schema, edit or request).
fn shares(spans: &Spans, root: &str, out: &mut Outcome) {
    for (k, v) in book(&spans.self_times()) {
        out.metric(k, v, "frac");
    }
    let median = book(&spans.median_op_self_times(root));
    let get = |k: &str| median.get(k).copied().unwrap_or(0.0);
    out.metric(
        "median_op.lang_delta_frac",
        get("share.lang") + get("share.delta"),
        "frac",
    );
    out.metric(
        "median_op.fixpoint_lp_frac",
        get("share.fixpoint_lp"),
        "frac",
    );
}

/// Core-layer metrics per operation from spans (stage times) and counters.
fn core_layers(layers: &mut Layers, source: &'static str, spans: &Spans, c: &Counters, ops: f64) {
    let selfs = spans.self_times();
    let ns = |k: &str| selfs.get(k).copied().unwrap_or(0) as f64;
    layers.offer(source, "expansion.ms", ns("expansion") / 1e6 / ops, "ms");
    layers.offer(
        source,
        "expansion.compound_classes",
        c.get("compound_classes_consistent") as f64 / ops,
        "count",
    );
    layers.offer(
        source,
        "expansion.compound_rels",
        c.get("compound_rels_emitted") as f64 / ops,
        "count",
    );
    layers.offer(source, "fixpoint.ms", ns("fixpoint") / 1e6 / ops, "ms");
    layers.offer(
        source,
        "fixpoint.iterations",
        c.get("fixpoint_iterations") as f64 / ops,
        "count",
    );
    layers.offer(
        source,
        "fixpoint.simplex_solves",
        c.get("simplex_solves") as f64 / ops,
        "count",
    );
    layers.offer(
        source,
        "fixpoint.simplex_pivots",
        c.get("simplex_pivots") as f64 / ops,
        "count",
    );
}

/// Implied-bound metrics per bounds query (one `implication` span per
/// probed schema).
fn implication_layers(layers: &mut Layers, source: &'static str, spans: &Spans, c: &Counters) {
    let (ns, n) = spans.total("implication");
    let n = n.max(1) as f64;
    layers.offer(source, "implication.ms", ns as f64 / 1e6 / n, "ms");
    layers.offer(
        source,
        "implication.probes",
        c.get("implication_probes") as f64 / n,
        "count",
    );
}

fn lang_layers(layers: &mut Layers, source: &'static str, spans: &Spans) {
    for (span, metric) in [
        ("lang.parse", "lang.parse_us"),
        ("lang.canon", "lang.canon_us"),
        ("lang.diff", "lang.diff_us"),
    ] {
        let (ns, n) = spans.total(span);
        if n > 0 {
            layers.offer(source, metric, ns as f64 / 1e3 / n as f64, "us");
        }
    }
}

fn delta_layers(layers: &mut Layers, source: &'static str, t: &edits::Traced) {
    let (ns, n) = t.spans.total("delta.check");
    let edits = t.edits.max(1) as f64;
    layers.offer(
        source,
        "delta.check_us",
        ns as f64 / 1e3 / n.max(1) as f64,
        "us",
    );
    layers.offer(source, "delta.fast_frac", t.zero_lp as f64 / edits, "frac");
    layers.offer(
        source,
        "delta.fallback_frac",
        t.fallbacks as f64 / edits,
        "frac",
    );
    layers.offer(
        source,
        "delta.atoms_invalidated",
        t.atoms_invalidated as f64 / edits,
        "count",
    );
}

fn server_layers(layers: &mut Layers, source: &'static str, t: &serve::Probe) {
    layers.offer(source, "server.compute_ms", t.compute_ms, "ms");
    layers.offer(source, "server.wait_ms", t.wait_ms, "ms");
    layers.offer(source, "server.cache_hit_frac", t.cache_hit_frac, "frac");
    layers.offer(source, "server.shed_frac", t.shed_frac, "frac");
}

/// The corpus's three-class draws and the paper's Figure 1: the schemas
/// the implication and certification probes run on.
fn probe_entries(root: &Path) -> Result<Vec<corpus::Entry>, String> {
    let entries = corpus::corpus(root).map_err(|e| e.to_string())?;
    Ok(entries
        .into_iter()
        .filter(|e| e.probes() || e.key == "file-figure1")
        .collect())
}

/// Checks and implied-bound probes of the probe schemas, for workloads
/// that do not query implied bounds themselves.
fn implication_probe(root: &Path, layers: &mut Layers) -> Result<(), String> {
    let picked = probe_entries(root)?;
    let mut spans = Spans::new(true);
    let mut counters = Counters::default();
    for (n, e) in picked.iter().enumerate() {
        corpus::check_entry(e, n as u64, &mut spans, Some(&mut counters))?;
    }
    implication_layers(layers, "probe", &spans, &counters);
    core_layers(layers, "probe", &spans, &counters, picked.len() as f64);
    Ok(())
}

/// `certify_check` of the probe schemas; no workload certifies.
fn certify_probe(root: &Path, layers: &mut Layers) -> Result<(), String> {
    let picked = probe_entries(root)?;
    let mut ns = 0u128;
    let mut farkas = 0u64;
    for e in &picked {
        let schema = cr_lang::parse_schema(&e.text).map_err(|err| err.to_string())?;
        let t = Instant::now();
        let report = cr_core::certify_check(&schema, &cr_core::Budget::unlimited())
            .map_err(|err| err.to_string())?;
        ns += t.elapsed().as_nanos();
        if !report.ok() {
            return Err(format!("{}: certificates refuted the verdict", e.key));
        }
        farkas += report.farkas_certificates;
    }
    let n = picked.len().max(1) as f64;
    layers.offer("probe", "certify.ms", ns as f64 / 1e6 / n, "ms");
    layers.offer("probe", "certify.farkas_steps", farkas as f64 / n, "count");
    Ok(())
}

pub struct Ctx<'a> {
    pub workload: &'a str,
    pub root: &'a Path,
    pub expected_dir: &'a Path,
    pub state_dir: &'a Path,
    pub crsat: &'a Path,
    pub seed: u64,
    pub seconds: f64,
}

pub fn run(ctx: &Ctx<'_>) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut layers = Layers::default();
    let work_dir = ctx.state_dir.join(format!("work-{}", std::process::id()));
    let (spans, counters, systems, overhead) = match ctx.workload {
        "verify-corpus" => {
            let c = corpus::Ctx {
                root: ctx.root,
                expected_dir: ctx.expected_dir,
                seed: ctx.seed,
                seconds: ctx.seconds,
            };
            let t = corpus::run_traced(&c, &mut out)?;
            let ops = t.schemas.len() as f64;
            core_layers(&mut layers, "workload", &t.spans, &t.counters, ops);
            implication_layers(&mut layers, "workload", &t.spans, &t.counters);
            lang_layers(&mut layers, "workload", &t.spans);
            let systems = t.schemas.iter().filter_map(ladder::capture).collect();
            (
                t.spans,
                t.counters,
                systems,
                t.traced_s / t.untraced_s - 1.0,
            )
        }
        "edit-session" => {
            let t = edits::run_traced(ctx.expected_dir, ctx.seed, &mut out)?;
            lang_layers(&mut layers, "workload", &t.spans);
            delta_layers(&mut layers, "workload", &t);
            core_layers(
                &mut layers,
                "workload",
                &t.spans,
                &t.counters,
                t.edits.max(1) as f64,
            );
            let mut systems = Vec::new();
            for &g in &edits::BASE_CHAINS {
                let s = cr_lang::parse_schema(&edits::Model::base(g).render())
                    .map_err(|e| e.to_string())?;
                systems.extend(ladder::capture(&s));
            }
            for k in 0..6 {
                let (_, texts) = edits::stream(k);
                if let Some(last) = texts.last() {
                    let s = cr_lang::parse_schema(last).map_err(|e| e.to_string())?;
                    systems.extend(ladder::capture(&s));
                }
            }
            let overhead = t.traced_s / t.untraced_s - 1.0;
            (t.spans, t.counters, systems, overhead)
        }
        other => return Err(format!("unknown workload {other:?}")),
    };

    // No workload calls the daemon: its layer comes from the probe, whose
    // cache hits join the run's work counters.
    let probe = serve::probe(ctx.crsat, &work_dir.join("probe"), ctx.expected_dir)?;
    server_layers(&mut layers, "probe", &probe);
    let mut counters = counters;
    counters.bump("cache_hits", probe.cache_hits);

    let key = format!(
        "{}-{}-{}",
        ctx.workload,
        ctx.seed,
        crate::counters::build_id(&[ctx.crsat])
    );
    for drift in counters.check_repeat(ctx.state_dir, &key)? {
        out.problem(format!(
            "work counter differs from an earlier run with seed {}: {drift}",
            ctx.seed
        ));
    }
    spans
        .write(
            &ctx.state_dir
                .join(format!("spans-{}-{}.jsonl", ctx.workload, ctx.seed)),
        )
        .map_err(|e| format!("cannot write spans: {e}"))?;
    let root = if ctx.workload == "edit-session" {
        "edit"
    } else {
        "verdict"
    };
    shares(&spans, root, &mut out);
    out.metric("trace.overhead_frac", overhead, "frac");
    for (name, c) in [
        ("count.simplex_pivots", "simplex_pivots"),
        ("count.simplex_solves", "simplex_solves"),
        ("count.fixpoint_iterations", "fixpoint_iterations"),
        ("count.compound_classes", "compound_classes_consistent"),
        ("count.compound_rels", "compound_rels_emitted"),
        ("count.disequations", "disequations_emitted"),
        ("count.max_tableau_rows", "max_tableau_rows"),
        ("count.max_tableau_cols", "max_tableau_cols"),
        ("count.delta_fallbacks", "delta_fallbacks"),
        ("count.cache_hits", "cache_hits"),
    ] {
        out.metric(name, counters.get(c) as f64, "count");
    }

    // Probes for the layers this workload does not call into.
    if !layers.has("lang.canon_us") || !layers.has("delta.check_us") {
        let mut probe_out = Outcome::default();
        let t = edits::probe(ctx.expected_dir, &mut probe_out)?;
        absorb(&mut out, probe_out, "edit probe");
        lang_layers(&mut layers, "probe", &t.spans);
        delta_layers(&mut layers, "probe", &t);
    }
    if !layers.has("implication.ms") {
        implication_probe(ctx.root, &mut layers)?;
    }
    if !layers.has("certify.ms") {
        certify_probe(ctx.root, &mut layers)?;
    }
    let _ = std::fs::remove_dir_all(&work_dir);
    for (name, (value, unit, source)) in layers.0 {
        out.notes.push(format!("{name} from {source}"));
        out.metric(name, value, unit);
    }
    ladder::arithmetic(&mut out);
    ladder::linear(&systems, &mut out);
    ladder::store(&work_dir.join("store"), &mut out)?;
    let _ = std::fs::remove_dir_all(&work_dir);
    Ok(out)
}

fn absorb(out: &mut Outcome, probe: Outcome, what: &str) {
    out.attempted += probe.attempted;
    out.failed += probe.failed;
    out.problems
        .extend(probe.problems.into_iter().map(|p| format!("{what}: {p}")));
}
