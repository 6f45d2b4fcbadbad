//! The repository benchmark: two workloads over the reasoner, measured
//! end to end untraced (`--trace 0`) or per layer (`--trace 1`).
//!
//! ```text
//! perfbench --workload <verify-corpus|edit-session> --seed N
//!           --seconds S --trace <0|1> [--root DIR] [--expected-dir DIR]
//!           [--state-dir DIR] [--crsat PATH]
//! perfbench --generate-expected [--workload W] [--root DIR] [--expected-dir DIR]
//! ```
//!
//! Every answer is compared with the workload's expected-verdict file; a
//! mismatch makes the run incorrect and the exit code nonzero. The last
//! line of standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`.

mod corpus;
mod counters;
mod edits;
mod expected;
mod generate;
mod ladder;
mod layers;
mod serve;
mod spans;
mod util;

use std::path::PathBuf;

use util::Outcome;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    root: PathBuf,
    expected_dir: PathBuf,
    state_dir: PathBuf,
    crsat: PathBuf,
    generate: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        root: PathBuf::from("."),
        expected_dir: PathBuf::from("perfbench/expected"),
        state_dir: PathBuf::from("perfbench/state"),
        crsat: PathBuf::from("target/release/crsat"),
        generate: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--generate-expected" {
            a.generate = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => a.workload = value,
            "--seed" => a.seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                a.seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?
            }
            "--trace" => a.trace = value == "1",
            "--root" => a.root = value.into(),
            "--expected-dir" => a.expected_dir = value.into(),
            "--state-dir" => a.state_dir = value.into(),
            "--crsat" => a.crsat = value.into(),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(a)
}

fn run(a: &Args) -> Result<Outcome, String> {
    if a.trace {
        return layers::run(&layers::Ctx {
            workload: &a.workload,
            root: &a.root,
            expected_dir: &a.expected_dir,
            state_dir: &a.state_dir,
            crsat: &a.crsat,
            seed: a.seed,
            seconds: a.seconds,
        });
    }
    match a.workload.as_str() {
        "verify-corpus" => corpus::run(&corpus::Ctx {
            root: &a.root,
            expected_dir: &a.expected_dir,
            seed: a.seed,
            seconds: a.seconds,
        }),
        "edit-session" => edits::run(&a.expected_dir, a.seed, a.seconds),
        other => Err(format!("unknown workload {other:?}")),
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::new();
    cr_trace::json::write_escaped(&mut out, s);
    out
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.generate {
        if let Err(e) = generate::run(&args.root, &args.expected_dir, &args.workload) {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
        return;
    }
    let out = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    };
    for note in &out.notes {
        println!("{note}");
    }
    for m in &out.metrics {
        println!("metric {} = {} {}", m.name, m.value, m.unit);
    }
    let failed_frac = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "failed_frac = {failed_frac} ({} of {} operations)",
        out.failed, out.attempted
    );
    for p in out.problems.iter().take(20) {
        println!("problem: {p}");
    }
    let correct = out.problems.is_empty() && out.failed == 0 && out.attempted > 0;
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_escape(&m.name),
                if m.value.is_finite() { m.value } else { -1.0 },
                json_escape(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(",")
    );
    if !correct {
        std::process::exit(1);
    }
}
