//! The benchmark's own span recorder for traced runs.
//!
//! Spans are opened in the benchmark's code around calls into each layer's
//! public functions; nothing is added inside the program. Where the program
//! already reports stage times through its `RunReport` (expansion,
//! fixpoint), those are attached to the enclosing span as inner stages. A
//! layer's self time is its spans' time minus what child spans and inner
//! stages cover. Spans stay in memory and are written out when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::util::quantile;

struct Span {
    name: &'static str,
    parent: Option<usize>,
    /// Identifies the operation (schema, edit, request) the span served.
    op: u64,
    start_ns: u64,
    end_ns: u64,
    /// Program-reported stage times inside this span.
    inner: Vec<(&'static str, u64)>,
}

pub struct Spans {
    enabled: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

/// Handle of an open span (`usize::MAX` when recording is off).
#[derive(Clone, Copy)]
pub struct SpanId(usize);

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn enter(&mut self, name: &'static str, op: u64) -> SpanId {
        if !self.enabled {
            return SpanId(usize::MAX);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied(),
            op,
            start_ns,
            end_ns: start_ns,
            inner: Vec::new(),
        });
        self.stack.push(idx);
        SpanId(idx)
    }

    pub fn exit(&mut self, id: SpanId) {
        if !self.enabled {
            return;
        }
        let end = self.now_ns();
        self.spans[id.0].end_ns = end;
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(id.0), "spans close in LIFO order");
    }

    /// Attaches a program-reported stage time to span `id`.
    pub fn attach(&mut self, id: SpanId, stage: &'static str, ns: u64) {
        if self.enabled && ns > 0 {
            self.spans[id.0].inner.push((stage, ns));
        }
    }

    /// Self time per layer name, in nanoseconds. Inner stages count as
    /// layers of their own.
    pub fn self_times(&self) -> BTreeMap<&'static str, u64> {
        self.self_times_where(|_| true)
    }

    /// [`Spans::self_times`] over the operations whose `root` span took
    /// between the 45th and 55th percentile of all of them: the median
    /// operation's make-up.
    pub fn median_op_self_times(&self, root: &str) -> BTreeMap<&'static str, u64> {
        let durs: Vec<(u64, f64)> = self
            .spans
            .iter()
            .filter(|s| s.name == root)
            .map(|s| (s.op, s.end_ns.saturating_sub(s.start_ns) as f64))
            .collect();
        let all: Vec<f64> = durs.iter().map(|&(_, d)| d).collect();
        let (lo, hi) = (quantile(&all, 0.45), quantile(&all, 0.55));
        let ops: std::collections::BTreeSet<u64> = durs
            .iter()
            .filter(|&&(_, d)| d >= lo && d <= hi)
            .map(|&(op, _)| op)
            .collect();
        self.self_times_where(|op| ops.contains(&op))
    }

    fn self_times_where(&self, keep: impl Fn(u64) -> bool) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate().filter(|(_, s)| keep(s.op)) {
            let inner: u64 = s.inner.iter().map(|&(_, ns)| ns).sum();
            for &(stage, ns) in &s.inner {
                *out.entry(stage).or_default() += ns;
            }
            let dur = s.end_ns.saturating_sub(s.start_ns);
            *out.entry(s.name).or_default() += dur.saturating_sub(child_ns[i] + inner);
        }
        out
    }

    /// Total duration of the spans named `name`, and how many there were.
    pub fn total(&self, name: &str) -> (u64, usize) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(ns, n), s| {
                (ns + s.end_ns.saturating_sub(s.start_ns), n + 1)
            })
    }

    /// Writes every span as one JSON line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"parent\":{},\"op\":{},\"start_ns\":{},\"end_ns\":{},\"inner\":{{",
                s.name,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.op,
                s.start_ns,
                s.end_ns
            );
            for (k, (stage, ns)) in s.inner.iter().enumerate() {
                let sep = if k > 0 { "," } else { "" };
                let _ = write!(out, "{sep}\"{stage}\":{ns}");
            }
            out.push_str("}}\n");
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
