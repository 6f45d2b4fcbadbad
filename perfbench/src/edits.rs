//! `edit-session`: a closed loop on one thread that replays seeded editor
//! sessions over pinned bases shaped like the D-series schemas. Each edit
//! re-parses the edited text, diffs its canonical form against the current
//! base, runs `cr_delta::check_delta` and chains `verdict.next` into the
//! next edit. Structural edits fall back to a full check, which becomes
//! the next base.
//!
//! The traffic follows the repository's own edit streams rather than a
//! measured editor trace (there is none): the bases and the 64-wide
//! starting windows are the D-series' (`reproduce bench`), and each session
//! is the stream of `ci/delta_client.py` — 50 seeded tighten/loosen edits
//! of one chain's C-side window, two directed edits that make a chain
//! unsatisfiable and restore it, and one structural edit — with the flip
//! pair and the structural edit at seeded positions instead of at the end.
//! At least one edit in 53 falls back, so the 99th-percentile edit time is
//! a fallback's full check.

use std::time::Instant;

use cr_core::expansion::ExpansionConfig;
use cr_delta::{check_delta, DeltaConfig, DeltaContext, DeltaOutcome};
use cr_lang::diff::SchemaDiff;

use crate::corpus::{attach_stages, traced_budget, verdict_text};
use crate::counters::Counters;
use crate::expected::Expected;
use crate::spans::Spans;
use crate::util::{self, median, quantile, Outcome, Rng, SeedableRng, StdRng};

/// Sessions in the fixed pool the expected-verdict file covers; a run's
/// seed orders them. 20 sessions make 1,060 edits, so at least ten lie
/// beyond the 99th percentile that `tail_ms` reports.
pub const STREAMS: usize = 20;
/// Window edits per session, as in `ci/delta_client.py`.
const WINDOW_EDITS: usize = 50;
/// Edits per session: the window edits, a flip to unsat and back, and one
/// structural edit.
pub const EDITS: usize = WINDOW_EDITS + 3;
/// Chains per base: the pool cycles through bases of 2, 3 and 4 chains
/// (6, 9 and 12 classes), between the quick D-series (2, 3) and its full
/// one (2, 4, 6); `ci/delta_client.py` uses 3.
pub const BASE_CHAINS: [usize; 3] = [2, 3, 4];
/// Upper end of the windows the bases start with, as in the D-series.
const START_MAX: u64 = 64;

#[derive(Clone)]
struct Card {
    class: String,
    rel: usize,
    role: &'static str,
    min: u64,
    max: u64,
}

/// An editor's view of the schema: what it renders to text after each
/// edit.
#[derive(Clone)]
pub struct Model {
    classes: Vec<(String, Vec<String>)>,
    rels: Vec<(String, String)>,
    cards: Vec<Card>,
    disjoint: Vec<String>,
    chains: usize,
}

impl Model {
    /// `g` pairwise-disjoint ISA chains C ≼ B ≼ A, each with a relationship
    /// whose windows have min ≥ 1 and a wide max.
    pub fn base(g: usize) -> Model {
        let mut m = Model {
            classes: Vec::new(),
            rels: Vec::new(),
            cards: Vec::new(),
            disjoint: Vec::new(),
            chains: g,
        };
        for i in 0..g {
            m.classes.push((format!("A{i}"), vec![]));
            m.classes.push((format!("B{i}"), vec![format!("A{i}")]));
            m.classes.push((format!("C{i}"), vec![format!("B{i}")]));
            m.rels.push((format!("A{i}"), format!("C{i}")));
            m.cards.push(Card {
                class: format!("A{i}"),
                rel: i,
                role: "U1",
                min: 1,
                max: START_MAX,
            });
            m.cards.push(Card {
                class: format!("C{i}"),
                rel: i,
                role: "U2",
                min: 1,
                max: START_MAX,
            });
            m.disjoint.push(format!("A{i}"));
        }
        m
    }

    pub fn render(&self) -> String {
        let mut s = String::new();
        for (c, parents) in &self.classes {
            if parents.is_empty() {
                s.push_str(&format!("class {c};\n"));
            } else {
                s.push_str(&format!("class {c} isa {};\n", parents.join(", ")));
            }
        }
        for (i, (u1, u2)) in self.rels.iter().enumerate() {
            s.push_str(&format!("relationship R{i} (U1: {u1}, U2: {u2});\n"));
        }
        for c in &self.cards {
            s.push_str(&format!(
                "card {} in R{}.{}: {}..{};\n",
                c.class, c.rel, c.role, c.min, c.max
            ));
        }
        if self.disjoint.len() >= 2 {
            s.push_str(&format!("disjoint {};\n", self.disjoint.join(", ")));
        }
        s
    }

    /// One seeded structural edit: a new class, a root (as in
    /// `ci/delta_client.py`) or under a random parent. A new class can grow
    /// the atom set, so the delta path declines it.
    fn structural_edit(&mut self, rng: &mut StdRng) {
        let parents = if rng.gen_bool(0.5) {
            vec![]
        } else {
            vec![self.classes[rng.gen_range(0..self.classes.len())].0.clone()]
        };
        self.classes.push(("X".to_string(), parents));
    }

    /// Demands more A-side tuples of one chain than its C side can take,
    /// which empties the chain; returns the A-side window to restore.
    fn flip(&mut self, rng: &mut StdRng) -> (usize, u64, u64) {
        let chain = rng.gen_range(0..self.chains);
        let need = self.cards[2 * chain + 1].max + 1;
        let a = &mut self.cards[2 * chain];
        let saved = (2 * chain, a.min, a.max);
        a.min = need;
        a.max = a.max.max(need);
        saved
    }

    fn restore(&mut self, (k, min, max): (usize, u64, u64)) {
        self.cards[k].min = min;
        self.cards[k].max = max;
    }

    /// Tightens or loosens one chain's C-side window by one, with the odds
    /// of `ci/delta_client.py`: raise the minimum (1 in 4), grow the
    /// maximum (1 in 4), shrink the maximum (1 in 2); a move that would
    /// empty the window grows the maximum instead.
    fn window_edit(&mut self, rng: &mut StdRng) {
        let chain = rng.gen_range(0..self.chains);
        let c = &mut self.cards[2 * chain + 1];
        match rng.gen_range(0..4) {
            0 if c.min < c.max => c.min += 1,
            1 => c.max += 1,
            _ if c.max > c.min => c.max -= 1,
            _ => c.max += 1,
        }
    }
}

/// The texts of stream `k`: its base and the text after each edit.
pub fn stream(k: usize) -> (usize, Vec<String>) {
    let g = BASE_CHAINS[k % BASE_CHAINS.len()];
    let mut rng = StdRng::seed_from_u64(0xed17 + k as u64);
    let mut m = Model::base(g);
    #[derive(Clone, Copy)]
    enum Edit {
        Window,
        Flip,
        FlipBack,
        Structural,
    }
    let mut plan = vec![Edit::Window; WINDOW_EDITS];
    let at = rng.gen_range(0..=plan.len());
    plan.splice(at..at, [Edit::Flip, Edit::FlipBack]);
    let at = rng.gen_range(0..=plan.len());
    plan.insert(at, Edit::Structural);
    let mut saved = None;
    let texts = plan
        .into_iter()
        .map(|e| {
            match e {
                Edit::Window => m.window_edit(&mut rng),
                Edit::Flip => saved = Some(m.flip(&mut rng)),
                Edit::FlipBack => m.restore(saved.take().expect("flip comes first")),
                Edit::Structural => m.structural_edit(&mut rng),
            }
            m.render()
        })
        .collect();
    (g, texts)
}

/// What one edit did.
pub struct EditResult {
    pub verdict: String,
    pub fallback: bool,
    pub zero_lp: bool,
    pub atoms_invalidated: usize,
}

/// One edit against `ctx`: parse, canonicalise, diff, delta-check, and a
/// full check when the delta path declines. Returns the next base.
pub fn apply(
    ctx: &DeltaContext,
    text: &str,
    op: u64,
    spans: &mut Spans,
    mut counters: Option<&mut Counters>,
) -> Result<(EditResult, DeltaContext), String> {
    let expansion = ExpansionConfig::default();
    let (tracer, budget) = traced_budget(spans.enabled());
    let s = spans.enter("lang.parse", op);
    let edited = cr_lang::parse_schema(text).map_err(|e| e.to_string());
    spans.exit(s);
    let edited = edited?;
    let s = spans.enter("lang.canon", op);
    let canonical = edited.canonical_form();
    spans.exit(s);
    let s = spans.enter("lang.diff", op);
    let diff = cr_lang::diff_canonical(ctx.canonical(), &canonical);
    spans.exit(s);

    let s = spans.enter("delta.check", op);
    let outcome = check_delta(ctx, &diff, &DeltaConfig::default(), &expansion, &budget);
    attach_stages(spans, s, &budget);
    spans.exit(s);
    let result = match outcome.map_err(|e| e.to_string())? {
        DeltaOutcome::Checked(v) => (
            EditResult {
                verdict: verdict_text(v.unsat_classes, v.unsat_rels),
                fallback: false,
                zero_lp: v.support_reused,
                atoms_invalidated: v.atoms_invalidated,
            },
            v.next,
        ),
        DeltaOutcome::Fallback {
            edited_canonical, ..
        } => {
            let (full_tracer, full_budget) = traced_budget(spans.enabled());
            let s = spans.enter("core.fallback", op);
            let next = DeltaContext::from_canonical(&edited_canonical, &expansion, &full_budget)
                .map_err(|e| e.to_string());
            attach_stages(spans, s, &full_budget);
            spans.exit(s);
            let next = next?;
            // The fresh base answers for itself through an empty diff, which
            // reuses its whole state.
            let verdict = match check_delta(
                &next,
                &SchemaDiff::default(),
                &DeltaConfig::default(),
                &expansion,
                &full_budget,
            )
            .map_err(|e| e.to_string())?
            {
                DeltaOutcome::Checked(v) => verdict_text(v.unsat_classes, v.unsat_rels),
                DeltaOutcome::Fallback { reason, .. } => {
                    return Err(format!("empty diff fell back: {reason}"))
                }
            };
            if let (Some(c), Some(t)) = (counters.as_deref_mut(), &full_tracer) {
                c.add_report(&t.report("check", "ok"));
            }
            (
                EditResult {
                    verdict,
                    fallback: true,
                    zero_lp: false,
                    atoms_invalidated: 0,
                },
                next,
            )
        }
    };
    if let (Some(c), Some(t)) = (counters, &tracer) {
        c.add_report(&t.report("check_delta", "ok"));
    }
    Ok(result)
}

/// The pinned bases and the session texts, built before timing starts.
pub struct Setup {
    bases: Vec<DeltaContext>,
    streams: Vec<(usize, Vec<String>)>,
    /// `None` while the expected file itself is being generated.
    expected: Option<Expected>,
}

pub fn setup(expected_dir: Option<&std::path::Path>) -> Result<Setup, String> {
    let expansion = ExpansionConfig::default();
    let bases = BASE_CHAINS
        .iter()
        .map(|&g| {
            let schema =
                cr_lang::parse_schema(&Model::base(g).render()).map_err(|e| e.to_string())?;
            DeltaContext::from_schema(&schema, &expansion, &cr_core::Budget::unlimited())
                .map_err(|e| e.to_string())
        })
        .collect::<Result<_, String>>()?;
    Ok(Setup {
        bases,
        streams: (0..STREAMS).map(stream).collect(),
        expected: expected_dir
            .map(|d| Expected::load(&d.join("edit-session.txt")))
            .transpose()?,
    })
}

/// Per-edit figures of one session.
pub struct Session {
    pub edit_ms: Vec<f64>,
    pub results: Vec<EditResult>,
}

/// Replays stream `k` from its pinned base, comparing every verdict with
/// the expected file.
pub fn session(
    st: &Setup,
    k: usize,
    spans: &mut Spans,
    mut counters: Option<&mut Counters>,
    out: &mut Outcome,
) -> Session {
    let (g, texts) = &st.streams[k];
    let base_idx = BASE_CHAINS
        .iter()
        .position(|b| b == g)
        .expect("stream base is pinned");
    let mut owned: Option<DeltaContext> = None;
    let mut edit_ms = Vec::with_capacity(texts.len());
    let mut results = Vec::with_capacity(texts.len());
    for (j, text) in texts.iter().enumerate() {
        let op = (k * EDITS + j) as u64;
        let ctx = owned.as_ref().unwrap_or(&st.bases[base_idx]);
        let t = Instant::now();
        let sp = spans.enter("edit", op);
        let r = apply(ctx, text, op, spans, counters.as_deref_mut());
        spans.exit(sp);
        edit_ms.push(util::ms_since(t));
        out.attempted += 1;
        match r {
            Ok((res, next)) => {
                if let Some(Err(msg)) = st
                    .expected
                    .as_ref()
                    .map(|e| e.check(&format!("edit/{k}/{j}"), &res.verdict))
                {
                    out.failed += 1;
                    out.problem(msg);
                }
                results.push(res);
                owned = Some(next);
            }
            Err(e) => {
                out.failed += 1;
                out.problem(format!("edit/{k}/{j}: {e}"));
                break;
            }
        }
    }
    Session { edit_ms, results }
}

/// One session's result with its wall time and its cycle's calibration
/// scale.
struct Timed {
    session: Session,
    secs: f64,
    scale: f64,
}

/// Replays the sessions of `order` once, timing each, and returns them by
/// session index. The cycle's scale is
/// the median of the calibration readings taken before it and after each
/// session: one scale per cycle follows the machine's slow phases, which
/// last tens of seconds, without the jitter of any single reading.
fn cycle(
    st: &Setup,
    order: &[usize],
    spans: &mut Spans,
    mut counters: Option<&mut Counters>,
    out: &mut Outcome,
) -> Vec<Timed> {
    let mut timed = Vec::with_capacity(order.len());
    let mut scales = vec![util::calibration_scale()];
    for &k in order {
        let t = Instant::now();
        let session = session(st, k, spans, counters.as_deref_mut(), out);
        let secs = t.elapsed().as_secs_f64();
        scales.push(util::calibration_scale());
        timed.push((
            k,
            Timed {
                session,
                secs,
                scale: 0.0,
            },
        ));
    }
    timed.sort_by_key(|&(k, _)| k);
    let mut timed: Vec<Timed> = timed.into_iter().map(|(_, x)| x).collect();
    let scale = median(&scales);
    for x in &mut timed {
        x.scale = scale;
    }
    timed
}

/// The seeded session order of cycle `c`.
fn cycle_order(seed: u64, c: usize) -> Vec<usize> {
    util::seeded_order(STREAMS, seed, &format!("edit-session/order/{c}"))
}

/// Wall seconds of one cycle of the pool on the reference VM.
const NOMINAL_CYCLE_S: f64 = 10.5;

/// Untraced run: as many whole cycles of the pool as fit in `seconds` at
/// the reference VM's speed, at least three. The count depends on
/// `seconds` alone, so every run takes the best of equally many cycles.
/// Each cycle replays the sessions in its own seeded order, and each
/// edit's time, and each session's, is its best over the cycles: the
/// cycles run seconds apart, so a slow phase of a shared machine during one
/// of them does not move the figures, and each session meets different
/// predecessors. A change to the program moves every cycle.
pub fn run(expected_dir: &std::path::Path, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (setup_s, st) = util::timed_setup(11, || setup(Some(expected_dir)));
    let st = st?;
    let mut spans = Spans::new(false);
    let mut raw_rows = Vec::new();
    let mut edit_rows = Vec::new();
    let mut session_rows = Vec::new();
    let mut cycle_s = Vec::new();
    let cycles = ((seconds / NOMINAL_CYCLE_S) as usize).max(3);
    for c in 0..cycles {
        let order = cycle_order(seed, c);
        let t = Instant::now();
        let mut raw = Vec::new();
        let mut edits = Vec::new();
        let mut sessions = Vec::new();
        for x in cycle(&st, &order, &mut spans, None, &mut out) {
            sessions.push(x.secs * x.scale);
            edits.extend(x.session.edit_ms.iter().map(|ms| ms * x.scale));
            raw.extend(x.session.edit_ms);
        }
        raw_rows.push(raw);
        edit_rows.push(edits);
        session_rows.push(sessions);
        cycle_s.push(t.elapsed().as_secs_f64());
    }
    let raw = util::best_of(&raw_rows);
    let edit_ms = util::best_of(&edit_rows);
    let session_s = util::best_of(&session_rows);
    let p50 = median(&edit_ms);
    let p99 = quantile(&edit_ms, 0.99);
    out.notes.push(format!(
        "edit-session: {} sessions of {EDITS} edits x {} cycles; times are the best of the cycles",
        STREAMS,
        cycle_s.len()
    ));
    out.notes
        .push(format!("cycles_s = {} (wall)", util::join(&cycle_s, 3)));
    out.notes.push(format!(
        "session_s = {:.5} s (median session, calibrated)",
        median(&session_s)
    ));
    out.notes.push(format!(
        "edit_p50_ms = {p50:.4} ms calibrated, {:.4} ms as measured",
        median(&raw)
    ));
    out.notes.push(format!(
        "edit_p99_ms = {p99:.4} ms calibrated, {:.4} ms as measured",
        quantile(&raw, 0.99)
    ));
    out.notes.push(format!(
        "edit ms at p95 p98 p99 p99.5 (calibrated) = {}",
        util::join(&[0.95, 0.98, 0.99, 0.995].map(|q| quantile(&edit_ms, q)), 3)
    ));
    out.metric("setup_s", setup_s, "s");
    out.metric("peak_rss_mb", util::peak_rss_mb(), "MB");
    out.metric("p50_ms", p50, "ms");
    out.metric("tail_ms", p99, "ms");
    out.metric(
        "rate_per_s",
        edit_ms.len() as f64 / session_s.iter().sum::<f64>(),
        "1/s",
    );
    Ok(out)
}

/// What the traced run hands to the per-layer report.
pub struct Traced {
    /// Calibrated seconds of the untraced and the traced cycle.
    pub untraced_s: f64,
    pub traced_s: f64,
    pub spans: Spans,
    pub counters: Counters,
    pub edits: u64,
    pub fallbacks: u64,
    pub zero_lp: u64,
    pub atoms_invalidated: u64,
}

/// Traced run: one untraced cycle of the pool for the overhead baseline,
/// then one traced cycle.
pub fn run_traced(
    expected_dir: &std::path::Path,
    seed: u64,
    out: &mut Outcome,
) -> Result<Traced, String> {
    traced_sessions(expected_dir, &cycle_order(seed, 0), out)
}

/// The lang and delta probe of other workloads' traced runs: the first
/// three pooled sessions.
pub fn probe(expected_dir: &std::path::Path, out: &mut Outcome) -> Result<Traced, String> {
    traced_sessions(expected_dir, &[0, 1, 2], out)
}

fn traced_sessions(
    expected_dir: &std::path::Path,
    order: &[usize],
    out: &mut Outcome,
) -> Result<Traced, String> {
    let st = setup(Some(expected_dir))?;
    let calibrated = |timed: &[Timed]| timed.iter().map(|x| x.secs * x.scale).sum::<f64>();
    let untraced_s = calibrated(&cycle(&st, order, &mut Spans::new(false), None, out));
    let mut spans = Spans::new(true);
    let mut counters = Counters::default();
    let mut tr = Traced {
        untraced_s,
        traced_s: 0.0,
        spans: Spans::new(false),
        counters: Counters::default(),
        edits: 0,
        fallbacks: 0,
        zero_lp: 0,
        atoms_invalidated: 0,
    };
    let timed = cycle(&st, order, &mut spans, Some(&mut counters), out);
    tr.traced_s = calibrated(&timed);
    for x in timed {
        for r in &x.session.results {
            tr.edits += 1;
            tr.fallbacks += u64::from(r.fallback);
            tr.zero_lp += u64::from(r.zero_lp);
            tr.atoms_invalidated += r.atoms_invalidated as u64;
        }
    }
    counters.bump("edits", tr.edits);
    counters.bump("zero_lp_edits", tr.zero_lp);
    tr.spans = spans;
    tr.counters = counters;
    Ok(tr)
}
