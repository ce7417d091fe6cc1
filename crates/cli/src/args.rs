//! A small `--flag value` argument parser (no external dependencies, per
//! the workspace's offline-crate policy).

use std::collections::{BTreeMap, BTreeSet};

use crate::error::CliError;

/// Parsed command-line options: `--key value` pairs and bare `--switch`es.
#[derive(Clone, Debug, Default)]
pub struct Options {
    values: BTreeMap<String, String>,
    switches: BTreeSet<String>,
}

/// Switches (flags without a value) recognized anywhere.
const SWITCHES: [&str; 7] = [
    "help",
    "both-strands",
    "compress-output",
    "lenient",
    "quiet",
    "retry",
    "shutdown",
];

impl Options {
    /// Parses everything after the subcommand.
    ///
    /// # Errors
    ///
    /// Returns [`CliError::Usage`] on positional arguments, repeated keys,
    /// or a trailing `--key` with no value.
    pub fn parse(args: &[String]) -> Result<Self, CliError> {
        let mut options = Self::default();
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            let Some(key) = arg.strip_prefix("--") else {
                return Err(CliError::usage(format!(
                    "unexpected positional argument {arg:?}"
                )));
            };
            if SWITCHES.contains(&key) {
                options.switches.insert(key.to_owned());
                continue;
            }
            let Some(value) = iter.next() else {
                return Err(CliError::usage(format!("--{key} expects a value")));
            };
            if options
                .values
                .insert(key.to_owned(), value.clone())
                .is_some()
            {
                return Err(CliError::usage(format!("--{key} given twice")));
            }
        }
        Ok(options)
    }

    /// The value of `--key`, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    /// The value of a mandatory `--key`.
    ///
    /// # Errors
    ///
    /// Returns [`CliError::Usage`] when the option is missing.
    pub fn require(&self, key: &str) -> Result<&str, CliError> {
        self.get(key)
            .ok_or_else(|| CliError::usage(format!("missing required option --{key}")))
    }

    /// Whether a bare `--switch` was given.
    pub fn switch(&self, key: &str) -> bool {
        self.switches.contains(key)
    }

    /// Parses `--key` as a number, with a default.
    ///
    /// # Errors
    ///
    /// Returns [`CliError::Usage`] when the value does not parse.
    pub fn number<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, CliError> {
        Ok(self.optional_number(key)?.unwrap_or(default))
    }

    /// Parses `--key` as a number, if present.
    ///
    /// # Errors
    ///
    /// Returns [`CliError::Usage`] when the value does not parse.
    pub fn optional_number<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, CliError> {
        self.get(key)
            .map(|text| {
                text.parse()
                    .map_err(|_| CliError::usage(format!("--{key}: unparsable value {text:?}")))
            })
            .transpose()
    }

    /// Keys that were provided but never consumed by the command — used to
    /// reject typos like `--referenec`.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.values
            .keys()
            .map(String::as_str)
            .chain(self.switches.iter().map(String::as_str))
    }

    /// Rejects any option not in `known`.
    ///
    /// # Errors
    ///
    /// Returns [`CliError::Usage`] naming the first unknown option.
    pub fn reject_unknown(&self, known: &[&str]) -> Result<(), CliError> {
        for key in self.keys() {
            if !known.contains(&key) {
                return Err(CliError::usage(format!("unknown option --{key}")));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, CliError> {
        let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        Options::parse(&owned)
    }

    #[test]
    fn parses_pairs_and_switches() {
        let o = parse(&["--reference", "ref.fa", "--lenient", "--w", "10"]).unwrap();
        assert_eq!(o.get("reference"), Some("ref.fa"));
        assert!(o.switch("lenient"));
        assert_eq!(o.number::<usize>("w", 0).unwrap(), 10);
        assert_eq!(o.number::<usize>("k", 15).unwrap(), 15);
    }

    #[test]
    fn rejects_positional_duplicate_and_dangling() {
        assert!(parse(&["ref.fa"]).is_err());
        assert!(parse(&["--a", "1", "--a", "2"]).is_err());
        assert!(parse(&["--a"]).is_err());
    }

    #[test]
    fn require_and_reject_unknown() {
        let o = parse(&["--graph", "g.gfa"]).unwrap();
        assert!(o.require("graph").is_ok());
        assert!(o.require("reads").is_err());
        assert!(o.reject_unknown(&["graph"]).is_ok());
        assert!(o.reject_unknown(&["reads"]).is_err());
    }

    #[test]
    fn bad_number_is_reported() {
        let o = parse(&["--w", "ten"]).unwrap();
        assert!(o.number::<usize>("w", 0).is_err());
    }
}
