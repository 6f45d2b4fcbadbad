//! Small shared helpers: seeded randomness, quantiles, memory readings and
//! the result record every workload fills in.

use std::time::Instant;

pub use rand::rngs::StdRng;
pub use rand::{Rng, SeedableRng};

/// A generator for `label` under the run's seed: each input family gets its
/// own stream, so changing how one family is drawn never shifts another.
pub fn rng(seed: u64, label: &str) -> StdRng {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in label.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    StdRng::seed_from_u64(seed ^ h.rotate_left(17))
}

/// Fisher–Yates shuffle driven by `rng`.
pub fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..=i);
        items.swap(i, j);
    }
}

/// `0..n` in an order drawn from the run's seed.
pub fn seeded_order(n: usize, seed: u64, label: &str) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    shuffle(&mut order, &mut rng(seed, label));
    order
}

/// The `q`-quantile (0 ≤ q ≤ 1) of `values`, interpolating linearly
/// between the closest ranks. Empty input reads as 0.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Peak resident set size of this process in MB (MiB), read from
/// `/proc/self/status`, less the calibration loop's chase table, which is
/// the benchmark's own and always resident.
pub fn peak_rss_mb() -> f64 {
    let text = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let table_mb = (CHASE_ENTRIES * std::mem::size_of::<u32>()) as f64 / (1 << 20) as f64;
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0 - table_mb)
}

/// One metric as printed: name, value, unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one run reports: verdict correctness, operation counts and the
/// metrics of the requested mode (end-to-end untraced, per-layer traced).
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable problems (verdict mismatches, counter drift, generator
    /// lag); any entry makes the run incorrect.
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Extra lines printed before the result (per-step tables, mappings).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn problem(&mut self, text: impl Into<String>) {
        self.problems.push(text.into());
    }
}

/// Runs `f` `times` times and returns the median of the seconds each took,
/// calibrated like every gated time, with the last result. Set-up is
/// repeated so one slow start cannot move `setup_s`.
pub fn timed_setup<T>(times: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut secs = Vec::with_capacity(times);
    let mut last = None;
    let mut before = calibration_scale();
    for _ in 0..times {
        let t = Instant::now();
        let v = f();
        let s = t.elapsed().as_secs_f64();
        let after = calibration_scale();
        secs.push(s * (before + after) / 2.0);
        before = after;
        last = Some(v);
    }
    (median(&secs), last.expect("at least one set-up"))
}

/// Elementwise minimum of equally long rows of timings.
pub fn best_of(rows: &[Vec<f64>]) -> Vec<f64> {
    let mut best = rows.first().cloned().unwrap_or_default();
    for row in &rows[1.min(rows.len())..] {
        for (b, &v) in best.iter_mut().zip(row) {
            *b = b.min(v);
        }
    }
    best
}

/// Space-separated values with `digits` decimals.
pub fn join(values: &[f64], digits: usize) -> String {
    values
        .iter()
        .map(|v| format!("{v:.digits$}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Nanoseconds one round of the calibration loop takes on the reference
/// machine (2-vCPU VM, Intel Xeon); measured timings are scaled by this
/// over the loop's time in the same run.
pub const CALIBRATION_NOMINAL_NS: f64 = 110_000.0;

/// Entries of the calibration loop's chase table: 8 MiB, more than a
/// core's private caches hold, so the chase runs from the shared cache and
/// memory as the program's LP tableaux and bigint limbs do.
const CHASE_ENTRIES: usize = 1 << 21;

/// A single cycle through `0..CHASE_ENTRIES` in a fixed pseudo-random
/// order (Sattolo's algorithm), built once before any timing.
fn chase_table() -> &'static [u32] {
    static TABLE: std::sync::OnceLock<Vec<u32>> = std::sync::OnceLock::new();
    TABLE.get_or_init(|| {
        let mut t: Vec<u32> = (0..CHASE_ENTRIES as u32).collect();
        let mut x: u64 = 0x2545_f491_4f6c_dd1d;
        for i in (1..CHASE_ENTRIES).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            t.swap(i, (x % i as u64) as usize);
        }
        t
    })
}

/// Nanoseconds for one round of a fixed loop of schoolbook limb
/// multiplication and Euclid's algorithm on stack arrays, plus a chase of
/// dependent loads through a fixed table. It is written here rather than
/// taken from the repository and allocates nothing while timed, so no
/// change to the program (its code or the state of its heap) moves it.
/// Timing it next to each measured operation tracks how fast the machine,
/// its caches and its memory run at that moment.
pub fn calibration_ns() -> f64 {
    const LIMBS: usize = 8;
    const CHASE_STEPS: usize = 4000;
    let table = chase_table();
    let t = Instant::now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut next = || {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (x >> 32) as u32
    };
    let mut acc = 0u64;
    for i in 0..400usize {
        let n = 2 + i % 7;
        let mut a = [0u32; LIMBS];
        let mut b = [0u32; LIMBS];
        for k in 0..n {
            a[k] = next();
            b[k] = next();
        }
        let mut prod = [0u32; 2 * LIMBS];
        for (i, &ai) in a[..n].iter().enumerate() {
            let mut carry = 0u64;
            for (j, &bj) in b[..n].iter().enumerate() {
                let t = u64::from(prod[i + j]) + u64::from(ai) * u64::from(bj) + carry;
                prod[i + j] = t as u32;
                carry = t >> 32;
            }
            prod[i + n] = carry as u32;
        }
        let (mut p, mut q) = (u64::from(prod[0]) | 1, u64::from(prod[1]) | 1);
        while q != 0 {
            (p, q) = (q, p % q);
        }
        acc = acc.wrapping_add(p).wrapping_add(prod[n] as u64);
    }
    let mut at = (acc % CHASE_ENTRIES as u64) as u32;
    for _ in 0..CHASE_STEPS {
        at = table[at as usize];
    }
    std::hint::black_box((acc, at));
    t.elapsed().as_nanos() as f64
}

/// The factor that scales a timing taken now to the reference machine's
/// speed: the nominal calibration time over the median of nine rounds
/// timed now.
pub fn calibration_scale() -> f64 {
    let rounds: Vec<f64> = (0..9).map(|_| calibration_ns()).collect();
    CALIBRATION_NOMINAL_NS / median(&rounds)
}
