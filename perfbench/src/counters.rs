//! Deterministic work counters, read through the program's public
//! `RunReport`s, and the check that two runs with one seed agree on them.

use std::collections::BTreeMap;
use std::path::Path;

use cr_trace::RunReport;

/// Counters summed over a workload's operations.
const SUMMED: [&str; 12] = [
    "simplex_pivots",
    "simplex_solves",
    "fixpoint_iterations",
    "compound_classes_consistent",
    "compound_rels_emitted",
    "disequations_emitted",
    "implication_probes",
    "delta_hits",
    "delta_fallbacks",
    "atoms_invalidated",
    "cache_hits",
    "certify_farkas_steps",
];

/// Gauges: the maximum over the workload's operations.
const PEAKS: [&str; 2] = ["max_tableau_rows", "max_tableau_cols"];

#[derive(Default, Clone, PartialEq, Eq, Debug)]
pub struct Counters(pub BTreeMap<String, u64>);

impl Counters {
    pub fn add_report(&mut self, report: &RunReport) {
        for name in SUMMED {
            *self.0.entry(name.to_string()).or_default() += report.counter(name).unwrap_or(0);
        }
        for name in PEAKS {
            let v = report.counter(name).unwrap_or(0);
            let e = self.0.entry(name.to_string()).or_default();
            *e = (*e).max(v);
        }
    }

    /// Adds a counter the benchmark counts itself (fallbacks seen by the
    /// client, say).
    pub fn bump(&mut self, name: &str, by: u64) {
        *self.0.entry(name.to_string()).or_default() += by;
    }

    pub fn get(&self, name: &str) -> u64 {
        self.0.get(name).copied().unwrap_or(0)
    }

    fn render(&self) -> String {
        self.0.iter().map(|(k, v)| format!("{k} {v}\n")).collect()
    }

    fn parse(text: &str) -> Counters {
        Counters(
            text.lines()
                .filter_map(|l| {
                    let (k, v) = l.split_once(' ')?;
                    Some((k.to_string(), v.parse().ok()?))
                })
                .collect(),
        )
    }

    /// Compares with the counters an earlier run of the same build, workload
    /// and seed left in `state_dir`, or records them when this is the first.
    /// Returns the names that differ.
    pub fn check_repeat(&self, state_dir: &Path, key: &str) -> Result<Vec<String>, String> {
        let path = state_dir.join(format!("counters-{key}.txt"));
        match std::fs::read_to_string(&path) {
            Ok(text) => {
                let before = Counters::parse(&text);
                let mut names: Vec<&String> = self.0.keys().chain(before.0.keys()).collect();
                names.sort();
                names.dedup();
                Ok(names
                    .into_iter()
                    .filter(|n| self.get(n) != before.get(n))
                    .map(|n| format!("{n}: {} then {}", before.get(n), self.get(n)))
                    .collect())
            }
            Err(_) => {
                std::fs::create_dir_all(state_dir)
                    .and_then(|()| std::fs::write(&path, self.render()))
                    .map_err(|e| format!("cannot record counters in {}: {e}", path.display()))?;
                Ok(Vec::new())
            }
        }
    }
}

/// Identifies the running build (this executable and the daemon's), so
/// counters recorded by another build are never compared with this one's.
pub fn build_id(others: &[&Path]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let exe = std::env::current_exe().ok();
    for path in exe
        .iter()
        .map(|p| p.as_path())
        .chain(others.iter().copied())
    {
        for b in std::fs::read(path).unwrap_or_default() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}
