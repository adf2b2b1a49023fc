//! The sweep harness every bench binary in `src/bin/` runs through.
//!
//! A binary declares the options it reads and keeps only its workload,
//! its table and its gate thresholds; [`Sweep`] owns the rest:
//!
//! - [`Sweep::new`] parses the command line: `--smoke`, `--json PATH`
//!   and the valued options the binary declares. Anything else is a
//!   usage error (exit 2).
//! - [`time`] is the one calibrated timing loop.
//! - [`Sweep::record`] merges the binary's table under its key in the
//!   `--json` document, stamped with [`bench_env`], keeping every other
//!   key.
//! - [`Sweep::fail`] prints a failed gate as `FAIL: … — repro: <cmd>`,
//!   with `<cmd>` rebuilt from the binary's actual arguments, and
//!   [`Sweep::finish`] then exits 1. A panic hook appends the same
//!   repro command to every panic.

use crate::bench_env;
use serde_json::{json, Value};
use std::fmt::Display;
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::time::Instant;

/// One bench binary's command line, JSON sink and gate state.
#[derive(Debug)]
pub struct Sweep {
    /// The binary's name, for usage and repro lines.
    bin: String,
    /// The arguments as given, for the repro command.
    args: Vec<String>,
    smoke: bool,
    json: Option<PathBuf>,
    /// Declared valued options other than `--json`, as `(name, value)`.
    values: Vec<(String, String)>,
    failed: bool,
}

impl Sweep {
    /// Parses the process arguments against `options`, the exact set
    /// the binary accepts: `--smoke` is a flag, every other entry
    /// (`--json` included) takes a value. The binary's name is the file
    /// stem of `argv[0]`. A usage error exits 2. Also installs the panic
    /// hook that prints the repro command.
    pub fn new(options: &[&str]) -> Sweep {
        let mut argv = std::env::args();
        let bin = bin_name(argv.next());
        let sweep = Sweep::parse(&bin, options, argv.collect()).unwrap_or_else(|e| {
            let usage: String = options
                .iter()
                .map(|&o| match o {
                    "--smoke" => " [--smoke]".to_string(),
                    "--json" => " [--json PATH]".to_string(),
                    _ => format!(" [{o} N]"),
                })
                .collect();
            eprintln!("{bin}: {e}\nusage: {bin}{usage}");
            std::process::exit(2);
        });
        let repro = sweep.repro();
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            default_hook(info);
            eprintln!("repro: {repro}");
        }));
        sweep
    }

    /// [`Sweep::new`] without the process: parses `args` of the binary
    /// `bin` against `options`.
    fn parse(bin: &str, options: &[&str], args: Vec<String>) -> Result<Sweep, String> {
        let mut sweep = Sweep {
            bin: bin.to_string(),
            args: args.clone(),
            smoke: false,
            json: None,
            values: Vec::new(),
            failed: false,
        };
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            if !options.contains(&arg.as_str()) {
                return Err(format!("unknown argument `{arg}`"));
            }
            if arg == "--smoke" {
                sweep.smoke = true;
                continue;
            }
            let value = it.next().ok_or_else(|| format!("{arg} requires a value"))?;
            if arg == "--json" {
                sweep.json = Some(PathBuf::from(value));
            } else {
                sweep.values.push((arg, value));
            }
        }
        Ok(sweep)
    }

    /// Whether `--smoke` (the small pinned CI configuration) was given.
    pub fn smoke(&self) -> bool {
        self.smoke
    }

    /// The parsed value of the declared option `name`, if given; a value
    /// that does not parse is a usage error (exit 2).
    pub fn value<T: FromStr>(&self, name: &str) -> Option<T> {
        let (_, raw) = self.values.iter().find(|(n, _)| n == name)?;
        Some(raw.parse().unwrap_or_else(|_| {
            eprintln!("{}: invalid value `{raw}` for {name}", self.bin);
            std::process::exit(2);
        }))
    }

    /// Merges `table` under `key` in the `--json` document (a no-op
    /// without `--json`): `table` gains an `env` entry from
    /// [`bench_env`]`(threads)`, and every other top-level key of the
    /// document is kept.
    pub fn record(&self, key: &str, threads: Option<u64>, table: Value) {
        let Some(path) = &self.json else { return };
        let mut doc = match std::fs::read_to_string(path) {
            Ok(text) => serde_json::from_str(&text)
                .unwrap_or_else(|e| self.abort(format!("{} is not JSON: {e}", path.display()))),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => json!({}),
            Err(e) => self.abort(format!("reading {}: {e}", path.display())),
        };
        merge(&mut doc, key, table, bench_env(threads));
        let text = serde_json::to_string_pretty(&doc).expect("valid json");
        std::fs::write(path, text)
            .unwrap_or_else(|e| self.abort(format!("writing {}: {e}", path.display())));
        println!("\nmerged {key} rows into {}", path.display());
    }

    /// Reports a failed gate; [`Sweep::finish`] then exits 1.
    pub fn fail(&mut self, msg: impl Display) {
        eprintln!("{}", self.fail_line(msg));
        self.failed = true;
    }

    /// Reports a failed gate and exits 1 at once.
    pub fn abort(&self, msg: impl Display) -> ! {
        eprintln!("{}", self.fail_line(msg));
        std::process::exit(1);
    }

    /// Exits 1 if any gate failed; returns otherwise.
    pub fn finish(&self) {
        if self.failed {
            std::process::exit(1);
        }
    }

    /// The line a failed gate prints.
    fn fail_line(&self, msg: impl Display) -> String {
        format!("FAIL: {msg} — repro: {}", self.repro())
    }

    /// The command that reruns this binary with the same arguments.
    fn repro(&self) -> String {
        let mut cmd = format!("cargo run --release -p mvbench --bin {}", self.bin);
        if !self.args.is_empty() {
            cmd.push_str(" --");
            for arg in &self.args {
                cmd.push(' ');
                cmd.push_str(&shell_quote(arg));
            }
        }
        cmd
    }
}

/// The file stem of `argv0` (`target/release/sweep_conns` →
/// `sweep_conns`), the name `cargo run --bin` takes.
fn bin_name(argv0: Option<String>) -> String {
    argv0
        .as_deref()
        .map(Path::new)
        .and_then(Path::file_stem)
        .and_then(|stem| stem.to_str())
        .unwrap_or("sweep")
        .to_string()
}

/// Sets `doc[key]` to `table` stamped with `env`, leaving every other
/// key of `doc` alone.
fn merge(doc: &mut Value, key: &str, mut table: Value, env: Value) {
    table["env"] = env;
    doc[key] = table;
}

/// `arg` as one POSIX shell word.
fn shell_quote(arg: &str) -> String {
    let plain = |c: char| c.is_ascii_alphanumeric() || "-_./=:,+%@".contains(c);
    if !arg.is_empty() && arg.chars().all(plain) {
        arg.to_string()
    } else {
        format!("'{}'", arg.replace('\'', r"'\''"))
    }
}

/// Seconds per call of `f`: one warm-up call, then batches of 1, 4,
/// 16, … calls until a batch runs longer than 50 ms or reaches 2¹⁶
/// calls.
pub fn time<R>(mut f: impl FnMut() -> R) -> f64 {
    f();
    let mut iters = 1u32;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(f());
        }
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed > 0.05 || iters >= 1 << 16 {
            return elapsed / iters as f64;
        }
        iters *= 4;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn unknown_argument_is_a_usage_error() {
        let options = ["--smoke", "--json", "--threads"];
        let e = Sweep::parse("sweep_x", &options, args(&["--jsno", "out.json"])).unwrap_err();
        assert!(e.contains("--jsno"), "{e}");
        // An option the binary does not declare is unknown too.
        let e = Sweep::parse("sweep_x", &["--json"], args(&["--smoke"])).unwrap_err();
        assert!(e.contains("--smoke"), "{e}");
        let e = Sweep::parse("sweep_x", &options, args(&["--threads"])).unwrap_err();
        assert!(e.contains("requires a value"), "{e}");
        let ok = Sweep::parse("sweep_x", &options, args(&["--threads", "3", "--smoke"])).unwrap();
        assert!(ok.smoke());
        assert_eq!(ok.value::<usize>("--threads"), Some(3));
        assert_eq!(ok.value::<usize>("--seed"), None);
    }

    #[test]
    fn merge_keeps_other_keys_and_stamps_env() {
        let path = std::env::temp_dir().join(format!("mvbench-sweep-{}.json", std::process::id()));
        std::fs::write(
            &path,
            r#"{"engine": {"rows": [1]}, "delta": {"seed": "0xD5"}}"#,
        )
        .unwrap();
        let sweep = Sweep::parse(
            "sweep_x",
            &["--json"],
            args(&["--json", path.to_str().unwrap()]),
        )
        .unwrap();
        sweep.record("delta", Some(4), json!({"rows": json!([2, 3])}));
        sweep.record("batch", None, json!({"smoke": true}));
        let doc: Value = serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(doc["engine"], json!({"rows": json!([1])}));
        assert_eq!(doc["delta"]["rows"], json!([2, 3]));
        assert_eq!(
            doc["delta"]["seed"],
            Value::Null,
            "a table is replaced whole"
        );
        assert_eq!(doc["delta"]["env"], bench_env(Some(4)));
        assert_eq!(doc["batch"]["smoke"], true);
        assert_eq!(doc["batch"]["env"]["threads"], Value::Null);
        assert!(doc["batch"]["env"]["logical_cpus"].as_u64().unwrap() >= 1);
    }

    #[test]
    fn repro_line_carries_the_actual_arguments() {
        let sweep = Sweep::parse(
            "sweep_x",
            &["--smoke", "--json", "--seed"],
            args(&["--seed", "7", "--smoke", "--json", "out dir/b.json"]),
        )
        .unwrap();
        assert_eq!(
            sweep.fail_line("gate broke"),
            "FAIL: gate broke — repro: cargo run --release -p mvbench --bin sweep_x \
             -- --seed 7 --smoke --json 'out dir/b.json'"
        );
        let bare = Sweep::parse("sweep_x", &[], Vec::new()).unwrap();
        assert_eq!(bare.repro(), "cargo run --release -p mvbench --bin sweep_x");
        // `Sweep::new` names the binary by the file stem of argv[0].
        assert_eq!(bin_name(Some("target/release/sweep_x".into())), "sweep_x");
        assert_eq!(bin_name(Some("sweep_x".into())), "sweep_x");
    }
}
