//! Minimal argument parsing shared by all subcommands (no external
//! dependency).

use mvisolation::{Allocation, IsolationLevel};
use mvmodel::{parse_transactions, TransactionSet};
use std::collections::HashMap;
use std::io::Read;

/// Parsed command line: positional arguments plus `--key value` /
/// `--flag` options.
#[derive(Debug, Default)]
pub struct Parsed {
    pub positional: Vec<String>,
    options: HashMap<String, String>,
    flags: Vec<String>,
}

/// Options that take a value.
const VALUED: &[&str] = &[
    "addr",
    "alloc",
    "backoff-ms",
    "batch-delay-us",
    "batch-max",
    "codec",
    "data-dir",
    "durability",
    "fault-plan",
    "level",
    "levels",
    "concurrency",
    "realloc-timeout-ms",
    "retries",
    "seed",
    "repeat",
    "snapshot-every",
    "ssi-mode",
    "tenant",
    "threads",
];

/// Boolean flags. Any other `--name` is an unknown option.
const FLAGS: &[&str] = &[
    "allocate",
    "dot",
    "explain",
    "json",
    "no-components",
    "optimal",
];

impl Parsed {
    pub fn parse(argv: &[String]) -> Result<Parsed, String> {
        let mut out = Parsed::default();
        let mut it = argv.iter().peekable();
        while let Some(arg) = it.next() {
            if let Some(name) = arg.strip_prefix("--") {
                let (name, inline) = match name.split_once('=') {
                    Some((n, v)) => (n, Some(v.to_string())),
                    None => (name, None),
                };
                if VALUED.contains(&name) {
                    let value = match inline {
                        Some(v) => v,
                        None => it
                            .next()
                            .ok_or_else(|| format!("--{name} requires a value"))?
                            .clone(),
                    };
                    out.options.insert(name.to_string(), value);
                } else if !FLAGS.contains(&name) {
                    return Err(format!("unknown option --{name}"));
                } else if inline.is_some() {
                    return Err(format!("--{name} does not take a value"));
                } else {
                    out.flags.push(name.to_string());
                }
            } else {
                out.positional.push(arg.clone());
            }
        }
        Ok(out)
    }

    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    pub fn option(&self, name: &str) -> Option<&str> {
        self.options.get(name).map(|s| s.as_str())
    }

    pub fn option_parse<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String>
    where
        T::Err: std::fmt::Display,
    {
        self.option(name)
            .map(|v| v.parse::<T>().map_err(|e| format!("invalid --{name}: {e}")))
            .transpose()
    }

    /// `--threads N` (default 1): worker threads. For `allocate`/`check`
    /// this parallelizes the robustness engine's outer search (verdicts
    /// identical at any count); for `simulate`, N ≥ 2 additionally
    /// routes execution to the multi-core MVCC engine.
    pub fn threads(&self) -> Result<usize, String> {
        match self.option_parse::<usize>("threads")? {
            Some(0) => Err("--threads must be at least 1".into()),
            Some(n) => Ok(n),
            None => Ok(1),
        }
    }

    /// `--no-components`: disables the component-sharded engine and runs
    /// the monolithic search. Verdicts and optima are identical either
    /// way; the flag exists as an escape hatch and for A/B timing.
    pub fn components(&self) -> bool {
        !self.flag("no-components")
    }

    /// `--levels rc-si|rc-si-ssi` (default rc-si-ssi): the isolation
    /// menu for `allocate` and `serve`. Unknown spellings fail with the
    /// accepted ones listed.
    pub fn level_set(&self) -> Result<mvrobustness::LevelSet, String> {
        match self.option("levels") {
            None => Ok(mvrobustness::LevelSet::default()),
            Some(v) => v
                .parse::<mvrobustness::LevelSet>()
                .map_err(|e| format!("invalid --levels: {e}")),
        }
    }

    /// Loads the workload from the first positional argument (or stdin).
    pub fn load_workload(&self) -> Result<TransactionSet, String> {
        let text = match self.positional.first().map(|s| s.as_str()) {
            None | Some("-") => {
                let mut buf = String::new();
                std::io::stdin()
                    .read_to_string(&mut buf)
                    .map_err(|e| format!("reading stdin: {e}"))?;
                buf
            }
            Some(path) => {
                std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?
            }
        };
        let set = parse_transactions(&text).map_err(|e| e.to_string())?;
        if set.is_empty() {
            return Err("workload contains no transactions".to_string());
        }
        Ok(set)
    }

    /// Resolves `--alloc` / `--level` into a full allocation for `txns`.
    pub fn allocation(&self, txns: &TransactionSet) -> Result<Allocation, String> {
        match (self.option("alloc"), self.option("level")) {
            (Some(_), Some(_)) => Err("--alloc and --level are mutually exclusive".into()),
            (Some(spec), None) => {
                let a = Allocation::parse(spec).map_err(|e| e.to_string())?;
                if !a.covers(txns) {
                    let missing: Vec<String> = txns
                        .ids()
                        .filter(|&t| a.get(t).is_none())
                        .map(|t| t.to_string())
                        .collect();
                    return Err(format!(
                        "--alloc misses transactions: {}",
                        missing.join(", ")
                    ));
                }
                Ok(a)
            }
            (None, Some(level)) => {
                let l: IsolationLevel = level.parse().map_err(|e: _| format!("{e}"))?;
                Ok(Allocation::uniform(txns, l))
            }
            (None, None) => Err("one of --alloc or --level is required".into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(args: &[&str]) -> Parsed {
        Parsed::parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn parses_options_flags_positional() {
        let parsed = p(&["wl.txt", "--alloc", "T1=RC", "--json", "--seed=9"]);
        assert_eq!(parsed.positional, vec!["wl.txt"]);
        assert_eq!(parsed.option("alloc"), Some("T1=RC"));
        assert_eq!(parsed.option("seed"), Some("9"));
        assert!(parsed.flag("json"));
        assert!(!parsed.flag("explain"));
        assert_eq!(parsed.option_parse::<u64>("seed").unwrap(), Some(9));
    }

    #[test]
    fn rejects_missing_values_and_bad_flags() {
        let e = Parsed::parse(&["--alloc".to_string()]).unwrap_err();
        assert!(e.contains("requires a value"));
        let e = Parsed::parse(&["--json=1".to_string()]).unwrap_err();
        assert!(e.contains("does not take a value"));
        let e = Parsed::parse(&["--jsno".to_string()]).unwrap_err();
        assert_eq!(e, "unknown option --jsno");
    }

    #[test]
    fn allocation_resolution() {
        let txns = parse_transactions("T1: R[x]\nT2: W[x]").unwrap();
        let parsed = p(&["--level", "si"]);
        let a = parsed.allocation(&txns).unwrap();
        assert_eq!(a.level(mvmodel::TxnId(1)), IsolationLevel::SI);

        let parsed = p(&["--alloc", "T1=RC T2=SSI"]);
        let a = parsed.allocation(&txns).unwrap();
        assert_eq!(a.level(mvmodel::TxnId(2)), IsolationLevel::SSI);

        let parsed = p(&["--alloc", "T1=RC"]);
        assert!(parsed.allocation(&txns).unwrap_err().contains("misses"));

        let parsed = p(&["--alloc", "T1=RC", "--level", "si"]);
        assert!(parsed
            .allocation(&txns)
            .unwrap_err()
            .contains("mutually exclusive"));

        let parsed = p(&[]);
        assert!(parsed.allocation(&txns).unwrap_err().contains("required"));
    }

    #[test]
    fn bad_numeric_option() {
        let parsed = p(&["--seed", "banana"]);
        assert!(parsed.option_parse::<u64>("seed").is_err());
    }
}
