//! The layer ladder of the traced run: fixed-size rows for the arithmetic
//! under the simplex, one LP per captured Ψ_S system, and the durable
//! store's write path. Every row is timed by the benchmark around public
//! calls; nothing is measured inside the program.

use std::cell::Cell;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use cr_bigint::{BigInt, Uint};
use cr_core::agg::AggSystem;
use cr_core::expansion::{Expansion, ExpansionConfig};
use cr_core::Schema;
use cr_linear::{optimize_governed, Cmp, Direction, LinExpr, VarKind, WorkBudget};
use cr_rational::Rational;

use crate::util::{median, Outcome, Rng, SeedableRng, StdRng};

/// Operand sizes in bits; the unsuffixed metric is the middle one.
const BITS: [u32; 3] = [32, 128, 512];
const OPS: usize = 2000;
const REPEATS: usize = 5;

/// A positive operand of exactly `bits` bits.
fn operand(rng: &mut StdRng, bits: u32) -> BigInt {
    let limbs = bits.div_ceil(32) as usize;
    let mut v: Vec<u32> = (0..limbs).map(|_| rng.gen::<u32>()).collect();
    if let Some(top) = v.last_mut() {
        let width = bits - 32 * (limbs as u32 - 1);
        let high = 1u32 << (width - 1);
        *top = (*top & (high | (high - 1))) | high;
    }
    BigInt::from(Uint::from_limbs(v))
}

/// Median over repeats of nanoseconds per call of `f` over `pairs`.
fn ns_per_op<T, R>(pairs: &[(T, T)], f: impl Fn(&T, &T) -> R) -> f64 {
    let mut samples = Vec::with_capacity(REPEATS);
    for _ in 0..REPEATS {
        let t = Instant::now();
        for (a, b) in pairs {
            black_box(f(black_box(a), black_box(b)));
        }
        samples.push(t.elapsed().as_nanos() as f64 / pairs.len() as f64);
    }
    median(&samples)
}

pub fn arithmetic(out: &mut Outcome) {
    let mut rng = StdRng::seed_from_u64(0x001a_dde5);
    for bits in BITS {
        let ints: Vec<(BigInt, BigInt)> = (0..OPS)
            .map(|_| (operand(&mut rng, bits), operand(&mut rng, bits)))
            .collect();
        let rats: Vec<(Rational, Rational)> = (0..OPS)
            .map(|_| {
                let mut r = || {
                    Rational::from_bigints(operand(&mut rng, bits / 2), operand(&mut rng, bits / 2))
                };
                (r(), r())
            })
            .collect();
        let suffix = if bits == BITS[1] {
            String::new()
        } else {
            format!(".b{bits}")
        };
        out.metric(
            format!("bigint.mul_ns{suffix}"),
            ns_per_op(&ints, |a, b| a * b),
            "ns",
        );
        out.metric(
            format!("bigint.gcd_ns{suffix}"),
            ns_per_op(&ints, |a, b| a.gcd(b)),
            "ns",
        );
        out.metric(
            format!("rational.add_ns{suffix}"),
            ns_per_op(&rats, |a, b| a + b),
            "ns",
        );
        out.metric(
            format!("rational.mul_ns{suffix}"),
            ns_per_op(&rats, |a, b| a * b),
            "ns",
        );
    }
}

/// A [`WorkBudget`] owned by the benchmark: never refuses, counts pivots
/// and records the tableau the solver builds.
#[derive(Default)]
struct Counting {
    pivots: Cell<u64>,
    cells: Cell<u64>,
}

impl WorkBudget for Counting {
    fn consume(&self, units: u64) -> bool {
        self.pivots.set(self.pivots.get() + units);
        true
    }

    fn note_tableau(&self, rows: usize, cols: usize) {
        self.cells.set(self.cells.get() + (rows * cols) as u64);
    }
}

/// The Ψ_S system of `schema` (its aggregated form, as the fixpoint
/// solves it), or `None` when the expansion fails.
pub fn capture(schema: &Schema) -> Option<AggSystem> {
    let exp = Expansion::build(schema, &ExpansionConfig::default()).ok()?;
    Some(AggSystem::build(&exp))
}

/// Solves each captured system once as the fixpoint's first
/// support-maximising LP (every compound class alive): maximise Σ t_i
/// with 0 ≤ t_i ≤ 1 and t_i ≤ x_i.
pub fn linear(systems: &[AggSystem], out: &mut Outcome) {
    let mut ns = 0u128;
    let mut pivots = 0u64;
    let mut cells = 0u64;
    for sys in systems {
        let mut lin = sys.lin.clone();
        let mut objective = LinExpr::new();
        for &x in &sys.cclass_vars {
            let t = lin.add_var(VarKind::Nonneg);
            lin.push(LinExpr::var(t), Cmp::Le, Rational::one());
            let mut e = LinExpr::var(x);
            e.add_term(t, -Rational::one());
            lin.push(e, Cmp::Ge, Rational::zero());
            objective.add_term(t, Rational::one());
        }
        let meter = Counting::default();
        let t = Instant::now();
        let r = optimize_governed(&lin, &objective, Direction::Maximize, &meter);
        ns += t.elapsed().as_nanos();
        black_box(r.is_ok());
        pivots += meter.pivots.get();
        cells += meter.cells.get();
    }
    out.metric("linear.lps", systems.len() as f64, "count");
    out.metric(
        "linear.solve_ms",
        ns as f64 / 1e6 / systems.len().max(1) as f64,
        "ms",
    );
    out.metric(
        "linear.pivots",
        pivots as f64 / systems.len().max(1) as f64,
        "count",
    );
    out.metric(
        "linear.ns_per_pivot",
        ns as f64 / pivots.max(1) as f64,
        "ns",
    );
    out.metric(
        "linear.tableau_cells",
        cells as f64 / systems.len().max(1) as f64,
        "count",
    );
}

/// `cr_store::Store::put` plus `sync` of a verdict-sized record, median
/// over a few dozen writes in a scratch directory.
pub fn store(dir: &Path, out: &mut Outcome) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let mut store = cr_store::Store::open(&dir.join("verdicts.log")).map_err(|e| e.to_string())?;
    let value = vec![b'v'; 240];
    let mut samples = Vec::new();
    for i in 0..40u32 {
        let key = format!("{i:032x}");
        let t = Instant::now();
        store
            .put(key.as_bytes(), &value)
            .map_err(|e| e.to_string())?;
        store.sync().map_err(|e| e.to_string())?;
        samples.push(t.elapsed().as_secs_f64() * 1e6);
    }
    drop(store);
    let _ = std::fs::remove_dir_all(dir);
    out.metric("store.put_sync_us", median(&samples), "us");
    Ok(())
}
