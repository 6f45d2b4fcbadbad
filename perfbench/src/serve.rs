//! The server probe of every traced run: a small closed loop against the
//! real `crsat serve` daemon over loopback TCP (workers = available
//! parallelism, durable verdict store in a scratch directory), one request
//! at a time on one connection.
//!
//! It first checks the warm set once, then sends cold `check`s of novel
//! small schemas (certify, append and fsync on the write path), warm
//! `check`s of the warm set with their declarations reordered (a cache hit
//! only through canonicalisation; a miss is an error) and `implies`
//! queries. Each response's `report.wall_ms` splits its client latency
//! into compute and wait.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use cr_bench::{SchemaGen, SchemaShape};
use cr_core::expansion::ExpansionConfig;
use cr_core::implication::{implies_maxc, implies_minc};
use cr_server::{Op, Request};
use cr_trace::json::{self, Value};

use crate::corpus::verdict_text;
use crate::expected::{self, Expected};
use crate::generate::{oracle_unsat, verdict_classes_match, OracleStats, Z_CAP_POOL};
use crate::util::{self, SeedableRng, StdRng};

/// Requests of each kind (cold, warm, implies) the probe sends; the warm
/// set is checked once more beforehand.
pub const EACH: usize = 8;

const SHAPES: [SchemaShape; 3] = [
    SchemaShape::Flat,
    SchemaShape::IsaModerate,
    SchemaShape::IsaHeavy,
];

fn cold_schema(i: usize) -> String {
    cr_lang::print_schema(&SchemaGen::shaped(SHAPES[i % 3], 2, 1, 50_000 + i as u64).build())
}

fn warm_schema(i: usize) -> String {
    cr_lang::print_schema(&SchemaGen::shaped(SHAPES[i % 3], 3, 1, 60_000 + i as u64).build())
}

/// Schema and `crsat implies` query words of implies item `i`.
fn implies_item(i: usize) -> (String, Vec<String>) {
    let schema = SchemaGen::shaped(SHAPES[i % 3], 2, 1, 70_000 + i as u64).build();
    let query = match schema.card_declarations().get(i % 2) {
        Some(d) => {
            let role = format!(
                "{}.{}",
                schema.rel_name(schema.rel_of_role(d.role)),
                schema.role_name(d.role)
            );
            let kind = if i % 4 < 2 { "min" } else { "max" };
            let k = 1 + (i / 4) % 3;
            vec![
                kind.to_string(),
                schema.class_name(d.class).to_string(),
                role,
                k.to_string(),
            ]
        }
        None => vec!["isa".into(), "C1".into(), "C0".into()],
    };
    (cr_lang::print_schema(&schema), query)
}

/// Reorders a schema's declarations (the language accepts any order).
fn reorder(text: &str, rng: &mut StdRng) -> String {
    let mut stmts: Vec<&str> = text
        .split(';')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .collect();
    util::shuffle(&mut stmts, rng);
    stmts.iter().map(|s| format!("{s};\n")).collect()
}

/// A parsed response.
struct Resp {
    status: String,
    verdict: String,
    cached: bool,
    wall_ms: u64,
}

fn parse_response(line: &str) -> Option<Resp> {
    let v = json::parse(line).ok()?;
    let status = v.get("status")?.as_str()?.to_string();
    let detail: Vec<String> = v
        .get("detail")
        .and_then(Value::as_arr)
        .map(|a| {
            a.iter()
                .filter_map(|d| d.as_str().map(str::to_string))
                .collect()
        })
        .unwrap_or_default();
    let verdict = match v.get("verdict").and_then(Value::as_str).unwrap_or("") {
        "satisfiable" | "unsatisfiable" => {
            let (rels, classes): (Vec<String>, Vec<String>) =
                detail.into_iter().partition(|d| d.starts_with("rel "));
            verdict_text(
                classes,
                rels.iter()
                    .map(|r| r.trim_start_matches("rel ").to_string())
                    .collect(),
            )
        }
        "" => detail.join("; "),
        other => other.to_string(),
    };
    Some(Resp {
        status,
        verdict,
        cached: matches!(v.get("cached"), Some(Value::Bool(true))),
        wall_ms: v
            .get("report")
            .and_then(|r| r.get("wall_ms"))
            .and_then(Value::as_u64)
            .unwrap_or(0),
    })
}

/// The daemon under test, in a scratch directory of its own.
struct Daemon {
    child: Child,
    dir: PathBuf,
    stream: TcpStream,
}

impl Daemon {
    fn start(crsat: &Path, dir: &Path) -> Result<Daemon, String> {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let port_file = dir.join("port");
        let workers = std::thread::available_parallelism().map_or(2, |n| n.get());
        let mut child = Command::new(crsat)
            .args([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--workers",
                &workers.to_string(),
            ])
            .arg("--port-file")
            .arg(&port_file)
            .arg("--cache-dir")
            .arg(dir.join("cache"))
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", crsat.display()))?;
        let t = Instant::now();
        let addr = loop {
            if let Ok(text) = std::fs::read_to_string(&port_file) {
                if text.ends_with('\n') || !text.is_empty() {
                    break text.trim().to_string();
                }
            }
            if t.elapsed() > Duration::from_secs(20) {
                let _ = child.kill();
                let _ = child.wait();
                return Err("daemon did not write its port file".into());
            }
            if let Ok(Some(status)) = child.try_wait() {
                return Err(format!("daemon exited early: {status}"));
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        let stream = TcpStream::connect(&addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        Ok(Daemon {
            child,
            dir: dir.to_path_buf(),
            stream,
        })
    }

    /// Sends `shutdown`, waits for the daemon to exit and removes its
    /// directory.
    fn stop(mut self) -> Result<(), String> {
        let mut req = Request::new("shutdown", Op::Shutdown);
        req.priority = cr_server::protocol::DEFAULT_PRIORITY;
        let _ = writeln!(self.stream, "{}", req.to_json());
        let _ = self.stream.flush();
        let t = Instant::now();
        let status = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break Some(status),
                Ok(None) if t.elapsed() < Duration::from_secs(20) => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => break None,
            }
        };
        let _ = std::fs::remove_dir_all(&self.dir);
        match status {
            Some(s) if s.success() => Ok(()),
            Some(s) => Err(format!("daemon exited with {s}")),
            None => {
                let _ = self.child.kill();
                let _ = self.child.wait();
                Err("daemon did not stop after shutdown".into())
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Sends `req` and waits for its response.
fn call(
    stream: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    req: &Request,
) -> Result<Resp, String> {
    writeln!(stream, "{}", req.to_json()).map_err(|e| e.to_string())?;
    let mut line = String::new();
    reader.read_line(&mut line).map_err(|e| e.to_string())?;
    parse_response(&line).ok_or_else(|| format!("unparsable response {line:?}"))
}

fn check_request(id: String, schema: String) -> Request {
    let mut r = Request::new(id, Op::Check);
    r.schema = Some(schema);
    r
}

/// Server-layer figures of one probe, per request.
pub struct Probe {
    pub compute_ms: f64,
    pub wait_ms: f64,
    pub cache_hits: u64,
    pub cache_hit_frac: f64,
    pub shed_frac: f64,
}

/// Runs the probe against a fresh daemon in `dir`, comparing every answer
/// with the expected file.
pub fn probe(crsat: &Path, dir: &Path, expected_dir: &Path) -> Result<Probe, String> {
    let expected = Expected::load(&expected_dir.join("server-probe.txt"))?;
    let mut daemon = Daemon::start(crsat, dir)?;
    let mut reader = BufReader::new(daemon.stream.try_clone().map_err(|e| e.to_string())?);
    let mut requests: Vec<(String, Request, bool)> = (0..EACH)
        .map(|w| {
            (
                format!("warm/{w}"),
                check_request(format!("p{w}"), warm_schema(w)),
                false,
            )
        })
        .collect();
    let mut warm_rng = StdRng::seed_from_u64(0x9e0be);
    for i in 0..EACH {
        requests.push((
            format!("cold/{i}"),
            check_request(format!("c{i}"), cold_schema(i)),
            false,
        ));
        requests.push((
            format!("warm/{i}"),
            check_request(format!("w{i}"), reorder(&warm_schema(i), &mut warm_rng)),
            true,
        ));
        let (schema, query) = implies_item(i);
        let mut r = Request::new(format!("i{i}"), Op::Implies);
        r.schema = Some(schema);
        r.query = query;
        requests.push((format!("implies/{i}"), r, false));
    }
    let (mut latency, mut compute) = (0.0, 0.0);
    let (mut hits, mut sheds) = (0u64, 0u64);
    for (key, req, must_hit) in &requests {
        let t = Instant::now();
        let r = call(&mut daemon.stream, &mut reader, req)?;
        latency += util::ms_since(t);
        expected.check(key, &r.verdict)?;
        if *must_hit && !r.cached {
            return Err(format!(
                "{key}: reordered copy of a checked schema missed the cache"
            ));
        }
        hits += u64::from(r.cached);
        sheds += u64::from(r.status == "shed");
        compute += r.wall_ms as f64;
    }
    daemon.stop()?;
    let n = requests.len() as f64;
    Ok(Probe {
        compute_ms: compute / n,
        wait_ms: ((latency - compute) / n).max(0.0),
        cache_hits: hits,
        cache_hit_frac: hits as f64 / n,
        shed_frac: sheds as f64 / n,
    })
}

/// Writes `server-probe.txt`: the answer to every probe request, each
/// check verdict confirmed by the oracles.
pub fn generate(dir: &Path, stats: &mut OracleStats) -> Result<(), String> {
    let mut answers = BTreeMap::new();
    let mut check = |text: &str, label: &str, flat: bool| -> Result<String, String> {
        let schema = cr_lang::parse_schema(text).map_err(|e| format!("{label}: {e}"))?;
        let unsat = oracle_unsat(&schema, flat, label, Z_CAP_POOL, stats)?;
        let v = crate::corpus::check_schema(&schema, &cr_core::Budget::unlimited())?;
        let v = v.split(" | unrestricted").next().unwrap_or("").to_string();
        if !verdict_classes_match(&v, &unsat) {
            return Err(format!(
                "{label}: verdict {v:?} disagrees with oracles {unsat:?}"
            ));
        }
        Ok(v)
    };
    for i in 0..EACH {
        let key = format!("cold/{i}");
        answers.insert(key.clone(), check(&cold_schema(i), &key, i % 3 == 0)?);
    }
    for w in 0..EACH {
        let key = format!("warm/{w}");
        answers.insert(key.clone(), check(&warm_schema(w), &key, w % 3 == 0)?);
    }
    let config = ExpansionConfig::default();
    for i in 0..EACH {
        let (text, q) = implies_item(i);
        let schema = cr_lang::parse_schema(&text).map_err(|e| e.to_string())?;
        let implied = match q.as_slice() {
            [kind, c, role, k] => {
                let class = schema.class_by_name(c).ok_or("unknown class")?;
                let (rel, r) = role.split_once('.').ok_or("bad role")?;
                let rel = schema.rel_by_name(rel).ok_or("unknown rel")?;
                let role = schema.role_by_name(rel, r).ok_or("unknown role")?;
                let k: u64 = k.parse().map_err(|_| "bad k")?;
                if kind == "min" {
                    implies_minc(&schema, class, role, k, &config)
                } else {
                    implies_maxc(&schema, class, role, k, &config)
                }
                .map_err(|e| e.to_string())?
            }
            [_, a, b] => {
                let r = cr_core::sat::Reasoner::new(&schema).map_err(|e| e.to_string())?;
                r.implies_isa(
                    schema.class_by_name(a).ok_or("unknown class")?,
                    schema.class_by_name(b).ok_or("unknown class")?,
                )
            }
            _ => return Err("bad query".into()),
        };
        answers.insert(
            format!("implies/{i}"),
            if implied { "implied" } else { "not-implied" }.to_string(),
        );
    }
    expected::write(
        &dir.join("server-probe.txt"),
        "server probe expected answers: cold/<i>, warm/<i> (check), implies/<i>. Written by\n\
         `perfbench --generate-expected`; check verdicts cross-checked against certify_check,\n\
         the LN90 baseline (flat draws) and Z-enumeration (<=3 classes).",
        &answers,
    )
}
