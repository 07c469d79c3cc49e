//! Dependency-free command-line argument parsing.
//!
//! The grammar is conventional: a subcommand followed by `--key value`
//! options. Unknown keys are errors (catching typos beats silently
//! ignoring them), every option has a default, and `drq help` prints the
//! full usage.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed command line: subcommand plus `--key value` options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedArgs {
    /// The subcommand (first positional argument).
    pub command: String,
    options: BTreeMap<String, String>,
}

/// Errors from argument parsing or validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgsError {
    /// No subcommand given.
    MissingCommand,
    /// A `--key` with no following value.
    MissingValue(String),
    /// A positional argument where an option was expected.
    UnexpectedPositional(String),
    /// `--key` not in the allowed set for this subcommand.
    UnknownOption(String),
    /// A value failed to parse.
    BadValue {
        /// The offending option key.
        key: String,
        /// The raw value.
        value: String,
        /// What was expected.
        expected: &'static str,
    },
}

impl fmt::Display for ArgsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgsError::MissingCommand => write!(f, "missing subcommand (try `drq help`)"),
            ArgsError::MissingValue(k) => write!(f, "option --{k} is missing its value"),
            ArgsError::UnexpectedPositional(a) => {
                write!(f, "unexpected argument {a:?} (options are --key value)")
            }
            ArgsError::UnknownOption(k) => write!(f, "unknown option --{k}"),
            ArgsError::BadValue { key, value, expected } => {
                write!(f, "--{key} {value:?}: expected {expected}")
            }
        }
    }
}

impl std::error::Error for ArgsError {}

impl ParsedArgs {
    /// Parses raw arguments (without the program name).
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, ArgsError> {
        let mut it = args.into_iter();
        let command = it.next().ok_or(ArgsError::MissingCommand)?;
        let mut options = BTreeMap::new();
        while let Some(a) = it.next() {
            if let Some(key) = a.strip_prefix("--") {
                let value = it.next().ok_or_else(|| ArgsError::MissingValue(key.to_string()))?;
                options.insert(key.to_string(), value);
            } else {
                return Err(ArgsError::UnexpectedPositional(a));
            }
        }
        Ok(Self { command, options })
    }

    /// Validates that every provided option is in `allowed`.
    pub fn restrict(&self, allowed: &[&str]) -> Result<(), ArgsError> {
        for k in self.options.keys() {
            if !allowed.contains(&k.as_str()) {
                return Err(ArgsError::UnknownOption(k.clone()));
            }
        }
        Ok(())
    }

    /// String option with a default.
    pub fn get_str(&self, key: &str, default: &str) -> String {
        self.options.get(key).cloned().unwrap_or_else(|| default.to_string())
    }

    /// Optional string option.
    pub fn get_opt(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// Parsed `usize` option with a default.
    pub fn get_usize(&self, key: &str, default: usize) -> Result<usize, ArgsError> {
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| ArgsError::BadValue {
                key: key.to_string(),
                value: v.clone(),
                expected: "an unsigned integer",
            }),
        }
    }

    /// Parsed `f32` option with a default.
    pub fn get_f32(&self, key: &str, default: f32) -> Result<f32, ArgsError> {
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| ArgsError::BadValue {
                key: key.to_string(),
                value: v.clone(),
                expected: "a number",
            }),
        }
    }

    /// Parsed `f64` option with a default.
    pub fn get_f64(&self, key: &str, default: f64) -> Result<f64, ArgsError> {
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| ArgsError::BadValue {
                key: key.to_string(),
                value: v.clone(),
                expected: "a number",
            }),
        }
    }

    /// Parsed DRQ threshold with a default: a finite, non-negative number.
    pub fn get_threshold(&self, key: &str, default: f32) -> Result<f32, ArgsError> {
        let v = self.get_f32(key, default)?;
        self.require(key, v, v.is_finite() && v >= 0.0, "a finite, non-negative threshold")
    }

    /// Parsed fraction in `(0, 1]` with a default.
    pub fn get_fraction(&self, key: &str, default: f64) -> Result<f64, ArgsError> {
        let v = self.get_f64(key, default)?;
        self.require(key, v, v > 0.0 && v <= 1.0, "a fraction in (0, 1]")
    }

    /// Parsed `usize` option with a default that must be at least 1.
    pub fn get_positive(&self, key: &str, default: usize) -> Result<usize, ArgsError> {
        let v = self.get_usize(key, default)?;
        self.require(key, v, v > 0, "a positive integer")
    }

    /// Passes `v` through when `ok`, else reports the raw option value.
    fn require<T>(&self, key: &str, v: T, ok: bool, expected: &'static str) -> Result<T, ArgsError> {
        if ok {
            return Ok(v);
        }
        Err(ArgsError::BadValue {
            key: key.to_string(),
            value: self.get_str(key, ""),
            expected,
        })
    }

    /// Parsed boolean option (`true|false`) with a default.
    pub fn get_bool(&self, key: &str, default: bool) -> Result<bool, ArgsError> {
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => match v.as_str() {
                "true" | "yes" | "1" => Ok(true),
                "false" | "no" | "0" => Ok(false),
                _ => Err(ArgsError::BadValue {
                    key: key.to_string(),
                    value: v.clone(),
                    expected: "true|false",
                }),
            },
        }
    }

    /// Parses a `--region HxW` option (e.g. `4x16`).
    pub fn get_region(
        &self,
        key: &str,
        default: (usize, usize),
    ) -> Result<(usize, usize), ArgsError> {
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => {
                let bad = || ArgsError::BadValue {
                    key: key.to_string(),
                    value: v.clone(),
                    expected: "a region like 4x16",
                };
                let (a, b) = v.split_once(['x', 'X']).ok_or_else(bad)?;
                let x: usize = a.trim().parse().map_err(|_| bad())?;
                let y: usize = b.trim().parse().map_err(|_| bad())?;
                if x == 0 || y == 0 {
                    return Err(bad());
                }
                Ok((x, y))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(parts: &[&str]) -> Result<ParsedArgs, ArgsError> {
        ParsedArgs::parse(parts.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_command_and_options() {
        let a = parse(&["train", "--dataset", "digits", "--epochs", "6"]).unwrap();
        assert_eq!(a.command, "train");
        assert_eq!(a.get_str("dataset", "x"), "digits");
        assert_eq!(a.get_usize("epochs", 1).unwrap(), 6);
        assert_eq!(a.get_usize("missing", 42).unwrap(), 42);
    }

    #[test]
    fn rejects_missing_value_and_positionals() {
        assert_eq!(
            parse(&["train", "--dataset"]),
            Err(ArgsError::MissingValue("dataset".into()))
        );
        assert_eq!(
            parse(&["train", "oops"]),
            Err(ArgsError::UnexpectedPositional("oops".into()))
        );
        assert_eq!(parse(&[]), Err(ArgsError::MissingCommand));
    }

    #[test]
    fn restrict_catches_typos() {
        let a = parse(&["eval", "--treshold", "5"]).unwrap();
        assert_eq!(
            a.restrict(&["threshold"]),
            Err(ArgsError::UnknownOption("treshold".into()))
        );
        let a = parse(&["eval", "--threshold", "5"]).unwrap();
        assert!(a.restrict(&["threshold"]).is_ok());
    }

    #[test]
    fn region_parsing() {
        let a = parse(&["x", "--region", "4x16"]).unwrap();
        assert_eq!(a.get_region("region", (1, 1)).unwrap(), (4, 16));
        let a = parse(&["x", "--region", "8X8"]).unwrap();
        assert_eq!(a.get_region("region", (1, 1)).unwrap(), (8, 8));
        let a = parse(&["x"]).unwrap();
        assert_eq!(a.get_region("region", (2, 4)).unwrap(), (2, 4));
        let a = parse(&["x", "--region", "0x4"]).unwrap();
        assert!(a.get_region("region", (1, 1)).is_err());
        let a = parse(&["x", "--region", "4-16"]).unwrap();
        assert!(a.get_region("region", (1, 1)).is_err());
    }

    #[test]
    fn numeric_errors_name_the_key() {
        let a = parse(&["x", "--epochs", "six"]).unwrap();
        let e = a.get_usize("epochs", 1).unwrap_err();
        assert!(e.to_string().contains("epochs"));
    }
}
