//! Expected-verdict files: one per workload under `perfbench/expected/`,
//! one `key<TAB>answer` line per answer. `--generate-expected` writes them
//! after cross-checking every answer against independent oracles (see
//! `generate.rs`); every run compares its answers with them.

use std::collections::BTreeMap;
use std::path::Path;

pub struct Expected {
    answers: BTreeMap<String, String>,
}

impl Expected {
    pub fn load(path: &Path) -> Result<Expected, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read expected verdicts {}: {e}", path.display()))?;
        let answers = text
            .lines()
            .filter(|l| !l.starts_with('#') && !l.is_empty())
            .map(|l| {
                l.split_once('\t')
                    .map(|(k, v)| (k.to_string(), v.to_string()))
                    .ok_or_else(|| format!("{}: malformed line {l:?}", path.display()))
            })
            .collect::<Result<_, _>>()?;
        Ok(Expected { answers })
    }

    /// `Ok` when `got` is the expected answer for `key`.
    pub fn check(&self, key: &str, got: &str) -> Result<(), String> {
        match self.answers.get(key) {
            Some(want) if want == got => Ok(()),
            Some(want) => Err(format!("{key}: expected {want:?}, got {got:?}")),
            None => Err(format!("{key}: no expected verdict")),
        }
    }
}

/// Writes `answers` as an expected-verdict file with a header comment.
pub fn write(path: &Path, header: &str, answers: &BTreeMap<String, String>) -> Result<(), String> {
    let mut text = String::new();
    for line in header.lines() {
        text.push_str("# ");
        text.push_str(line);
        text.push('\n');
    }
    for (k, v) in answers {
        text.push_str(k);
        text.push('\t');
        text.push_str(v);
        text.push('\n');
    }
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}
