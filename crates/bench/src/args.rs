//! The one `key=value` argument surface shared by every experiment binary.
//!
//! Each binary in `crates/bench/src/bin/` accepts the same core keys and
//! parses them through [`ExperimentArgs`], so the command line behaves
//! identically across the whole experiment suite (documented in
//! `docs/EXPERIMENTS.md`):
//!
//! | key       | meaning                                   | default        |
//! |-----------|-------------------------------------------|----------------|
//! | `runs`    | independent simulation runs               | per binary     |
//! | `secs`    | simulated seconds per run                 | per binary     |
//! | `seed`    | base seed; run *i* uses `seed + i`        | per binary     |
//! | `threads` | worker threads for the run fan-out        | all cores      |
//! | `format`  | `text` (human tables) or `json` (machine) | `text`         |
//!
//! Binary-specific keys (e.g. the scaling experiment's `apps`/`nodes`) are
//! declared per binary and validated: an unknown key is a usage error, not
//! silently ignored. Every binary additionally accepts `help` (also
//! `help=…`, `--help`, `-h`), which prints its documented key list and
//! exits successfully.

use std::collections::HashMap;
use std::fmt;

/// Output mode of an experiment binary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OutputFormat {
    /// Human-readable tables mirroring the paper (the default).
    #[default]
    Text,
    /// One machine-readable JSON document on stdout, for capturing
    /// perf/accuracy trajectories across commits.
    Json,
}

/// Per-binary defaults for the core keys.
///
/// The paper-scale configuration (50 runs × 80 s) is expensive; each binary
/// picks the defaults matching the table or figure it regenerates.
#[derive(Debug, Clone, Copy)]
pub struct Defaults {
    /// Default number of independent runs.
    pub runs: usize,
    /// Default simulated seconds per run.
    pub secs: u64,
    /// Default base seed.
    pub seed: u64,
}

impl Defaults {
    /// Defaults for a single-run experiment (`runs=1`).
    pub const fn single_run(secs: u64, seed: u64) -> Defaults {
        Defaults { runs: 1, secs, seed }
    }
}

/// Errors detected while parsing experiment arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// An argument is not of the form `key=value`.
    Malformed(String),
    /// A known key's value failed to parse.
    BadValue {
        /// The offending key.
        key: String,
        /// The unparsable value.
        value: String,
    },
    /// A key this binary does not declare.
    UnknownKey(String),
    /// The user asked for the key list (`help`, `help=…`, `--help`, `-h`).
    /// Not an error condition: [`ExperimentArgs::parse_or_exit`] prints
    /// the usage line and exits with status 0.
    Help,
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::Malformed(a) => write!(f, "argument {a:?} is not of the form key=value"),
            ArgError::BadValue { key, value } => {
                write!(f, "value {value:?} for key {key:?} does not parse")
            }
            ArgError::UnknownKey(k) => write!(f, "unknown key {k:?}"),
            ArgError::Help => write!(f, "help requested"),
        }
    }
}

impl std::error::Error for ArgError {}

/// Parsed experiment arguments: the core keys plus any binary-specific
/// extras declared at parse time.
#[derive(Debug, Clone)]
pub struct ExperimentArgs {
    runs: usize,
    secs: u64,
    seed: u64,
    threads: usize,
    format: OutputFormat,
    extras: HashMap<String, String>,
}

/// The core keys every binary understands.
const CORE_KEYS: [&str; 5] = ["runs", "secs", "seed", "threads", "format"];

impl ExperimentArgs {
    /// Parses the process's command line with the given per-binary
    /// `defaults`; `extra_keys` lists the binary-specific keys allowed in
    /// addition to the core ones.
    ///
    /// # Errors
    ///
    /// Returns an [`ArgError`] for malformed `key=value` pairs, unparsable
    /// values of known keys, and undeclared keys.
    pub fn parse(defaults: Defaults, extra_keys: &[&str]) -> Result<ExperimentArgs, ArgError> {
        ExperimentArgs::from_iter(std::env::args().skip(1), defaults, extra_keys)
    }

    /// Like [`ExperimentArgs::parse`], but exits with the usage line and
    /// status 2 on error — the behaviour every binary wants. A `help` key
    /// (also `help=…`, `--help`, `-h`) instead prints the binary's
    /// documented key list on stdout and exits with status 0.
    pub fn parse_or_exit(usage: &str, defaults: Defaults, extra_keys: &[&str]) -> ExperimentArgs {
        match ExperimentArgs::parse(defaults, extra_keys) {
            Ok(a) => a,
            Err(ArgError::Help) => {
                println!("usage: {usage}");
                std::process::exit(0);
            }
            Err(e) => {
                eprintln!("error: {e}");
                eprintln!("usage: {usage}");
                std::process::exit(2);
            }
        }
    }

    /// Parses an explicit argument iterator (testable without a process
    /// command line).
    ///
    /// # Errors
    ///
    /// Same conditions as [`ExperimentArgs::parse`].
    pub fn from_iter<I, S>(
        args: I,
        defaults: Defaults,
        extra_keys: &[&str],
    ) -> Result<ExperimentArgs, ArgError>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut map: HashMap<String, String> = HashMap::new();
        for a in args {
            let a = a.as_ref();
            if a == "help" || a == "--help" || a == "-h" || a.starts_with("help=") {
                return Err(ArgError::Help);
            }
            let (k, v) = a
                .split_once('=')
                .ok_or_else(|| ArgError::Malformed(a.to_string()))?;
            if !CORE_KEYS.contains(&k) && !extra_keys.contains(&k) {
                return Err(ArgError::UnknownKey(k.to_string()));
            }
            map.insert(k.to_string(), v.to_string());
        }
        let parse_u64 = |map: &HashMap<String, String>, key: &str, default: u64| match map.get(key)
        {
            None => Ok(default),
            Some(v) => v.parse::<u64>().map_err(|_| ArgError::BadValue {
                key: key.to_string(),
                value: v.clone(),
            }),
        };
        let runs = match parse_u64(&map, "runs", defaults.runs as u64)? {
            0 => {
                return Err(ArgError::BadValue {
                    key: "runs".to_string(),
                    value: "0".to_string(),
                })
            }
            r => r as usize,
        };
        let secs = parse_u64(&map, "secs", defaults.secs)?;
        let seed = parse_u64(&map, "seed", defaults.seed)?;
        let threads = match map.get("threads") {
            None => default_threads(),
            Some(v) => v
                .parse::<usize>()
                .ok()
                .filter(|&t| t > 0)
                .ok_or_else(|| ArgError::BadValue {
                    key: "threads".to_string(),
                    value: v.clone(),
                })?,
        };
        let format = match map.get("format").map(String::as_str) {
            None | Some("text") => OutputFormat::Text,
            Some("json") => OutputFormat::Json,
            Some(v) => {
                return Err(ArgError::BadValue {
                    key: "format".to_string(),
                    value: v.to_string(),
                })
            }
        };
        let extras = map
            .into_iter()
            .filter(|(k, _)| !CORE_KEYS.contains(&k.as_str()))
            .collect();
        Ok(ExperimentArgs { runs, secs, seed, threads, format, extras })
    }

    /// Number of independent simulation runs.
    pub fn runs(&self) -> usize {
        self.runs
    }

    /// Simulated seconds per run.
    pub fn secs(&self) -> u64 {
        self.secs
    }

    /// Per-run duration as [`rtms_trace::Nanos`].
    pub fn duration(&self) -> rtms_trace::Nanos {
        rtms_trace::Nanos::from_secs(self.secs)
    }

    /// Base seed; run *i* is simulated with seed `seed + i`.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Worker threads for the run fan-out (defaults to all cores).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Selected output format.
    pub fn format(&self) -> OutputFormat {
        self.format
    }

    /// Whether JSON output was requested.
    pub fn json(&self) -> bool {
        self.format == OutputFormat::Json
    }

    /// A binary-specific `u64` key, with a default. An unparsable value is
    /// a usage error: the process exits with status 2, like
    /// [`ExperimentArgs::parse_or_exit`] does for core keys.
    pub fn extra_u64(&self, key: &str, default: u64) -> u64 {
        self.extra_parsed(key, default)
    }

    /// A binary-specific free-form string key (e.g. an output path), if
    /// given.
    pub fn extra_string(&self, key: &str) -> Option<String> {
        self.extras.get(key).cloned()
    }

    fn extra_parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        match self.extras.get(key) {
            None => default,
            Some(v) => v.parse().unwrap_or_else(|_| {
                let e = ArgError::BadValue { key: key.to_string(), value: v.clone() };
                eprintln!("error: {e}");
                std::process::exit(2);
            }),
        }
    }
}

/// Default worker-thread count: every core the machine offers.
pub(crate) fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    const D: Defaults = Defaults { runs: 50, secs: 80, seed: 0 };

    #[test]
    fn defaults_apply_when_unset() {
        let a = ExperimentArgs::from_iter(std::iter::empty::<&str>(), D, &[]).expect("ok");
        assert_eq!(a.runs(), 50);
        assert_eq!(a.secs(), 80);
        assert_eq!(a.seed(), 0);
        assert!(a.threads() >= 1);
        assert_eq!(a.format(), OutputFormat::Text);
    }

    #[test]
    fn core_keys_parse() {
        let a = ExperimentArgs::from_iter(
            ["runs=8", "secs=2", "seed=3", "threads=4", "format=json"],
            D,
            &[],
        )
        .expect("ok");
        assert_eq!(a.runs(), 8);
        assert_eq!(a.secs(), 2);
        assert_eq!(a.duration(), rtms_trace::Nanos::from_secs(2));
        assert_eq!(a.seed(), 3);
        assert_eq!(a.threads(), 4);
        assert!(a.json());
    }

    #[test]
    fn extras_are_declared_and_typed() {
        let a = ExperimentArgs::from_iter(["apps=3", "load=0.5"], D, &["apps", "load"])
            .expect("ok");
        assert_eq!(a.extra_u64("apps", 1), 3);
        assert_eq!(a.extra_u64("nodes", 6), 6);
    }

    #[test]
    fn help_is_recognized_in_every_spelling() {
        for spelling in ["help", "help=1", "help=anything", "--help", "-h"] {
            assert_eq!(
                ExperimentArgs::from_iter([spelling], D, &[]).unwrap_err(),
                ArgError::Help,
                "{spelling} must request help"
            );
        }
        // Even alongside other keys.
        assert_eq!(
            ExperimentArgs::from_iter(["runs=3", "help"], D, &[]).unwrap_err(),
            ArgError::Help
        );
        assert!(ArgError::Help.to_string().contains("help"));
    }

    #[test]
    fn unknown_key_rejected() {
        let e = ExperimentArgs::from_iter(["thread=4"], D, &[]).unwrap_err();
        assert_eq!(e, ArgError::UnknownKey("thread".to_string()));
        assert!(e.to_string().contains("unknown key"));
    }

    #[test]
    fn malformed_and_bad_values_rejected() {
        assert_eq!(
            ExperimentArgs::from_iter(["runs"], D, &[]).unwrap_err(),
            ArgError::Malformed("runs".to_string())
        );
        assert!(matches!(
            ExperimentArgs::from_iter(["runs=many"], D, &[]).unwrap_err(),
            ArgError::BadValue { .. }
        ));
        assert!(matches!(
            ExperimentArgs::from_iter(["threads=0"], D, &[]).unwrap_err(),
            ArgError::BadValue { .. }
        ));
        assert!(matches!(
            ExperimentArgs::from_iter(["runs=0"], D, &[]).unwrap_err(),
            ArgError::BadValue { .. }
        ));
        assert!(matches!(
            ExperimentArgs::from_iter(["format=xml"], D, &[]).unwrap_err(),
            ArgError::BadValue { .. }
        ));
    }
}
