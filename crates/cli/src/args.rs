//! Minimal dependency-free argument parsing: `--flag value` pairs,
//! boolean `--flag` switches and two-value `--flag a b` options,
//! collected into maps with typed getters.

use std::collections::BTreeMap;
use std::fmt;

/// A parsing or validation failure; printed to stderr with exit code 2.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(pub String);

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ArgError {}

fn err(msg: impl ToString) -> ArgError {
    ArgError(msg.to_string())
}

/// Parsed arguments: `--key value` options, bare `--key` switches and
/// `--key a b` pairs.
#[derive(Debug, Default, Clone)]
pub struct Args {
    values: BTreeMap<String, String>,
    pairs: BTreeMap<String, (String, String)>,
    switches: Vec<String>,
    used: std::cell::RefCell<Vec<String>>,
}

impl Args {
    /// [`Args::parse_with_pairs`] for a command without two-value
    /// flags (the commands' tests parse this way).
    #[cfg(test)]
    pub fn parse<I: IntoIterator<Item = String>>(
        tokens: I,
        switches: &[&str],
    ) -> Result<Args, ArgError> {
        Self::parse_with_pairs(tokens, switches, &[])
    }

    /// Parse a token stream. `switches` lists the flags that take no
    /// value and `pairs` those that take two; everything else starting
    /// with `--` expects one.
    pub fn parse_with_pairs<I: IntoIterator<Item = String>>(
        tokens: I,
        switches: &[&str],
        pairs: &[&str],
    ) -> Result<Args, ArgError> {
        let mut out = Args::default();
        let mut it = tokens.into_iter().peekable();
        while let Some(tok) = it.next() {
            let Some(name) = tok.strip_prefix("--") else {
                return Err(err(format!("unexpected positional argument {tok:?}")));
            };
            if name.is_empty() {
                return Err(err("empty flag `--`"));
            }
            if switches.contains(&name) {
                out.switches.push(name.to_string());
            } else if pairs.contains(&name) {
                let (Some(a), Some(b)) = (it.next(), it.next()) else {
                    return Err(err(format!("--{name} expects two values")));
                };
                if out.pairs.insert(name.to_string(), (a, b)).is_some() {
                    return Err(err(format!("--{name} given twice")));
                }
            } else {
                let value = it
                    .next()
                    .ok_or_else(|| err(format!("--{name} expects a value")))?;
                if out.values.insert(name.to_string(), value).is_some() {
                    return Err(err(format!("--{name} given twice")));
                }
            }
        }
        Ok(out)
    }

    /// Is the boolean switch present?
    pub fn switch(&self, name: &str) -> bool {
        self.used.borrow_mut().push(name.to_string());
        self.switches.iter().any(|s| s == name)
    }

    /// Raw string option.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.used.borrow_mut().push(name.to_string());
        self.values.get(name).map(|s| s.as_str())
    }

    /// Two-value option.
    pub fn get_pair(&self, name: &str) -> Option<(&str, &str)> {
        self.used.borrow_mut().push(name.to_string());
        self.pairs.get(name).map(|(a, b)| (a.as_str(), b.as_str()))
    }

    /// Required string option.
    pub fn require(&self, name: &str) -> Result<&str, ArgError> {
        self.get(name)
            .ok_or_else(|| err(format!("missing required option --{name}")))
    }

    /// Typed option with default.
    pub fn get_parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, ArgError> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| err(format!("--{name}: cannot parse {v:?}"))),
        }
    }

    /// Required typed option.
    pub fn require_parsed<T: std::str::FromStr>(&self, name: &str) -> Result<T, ArgError> {
        let v = self.require(name)?;
        v.parse()
            .map_err(|_| err(format!("--{name}: cannot parse {v:?}")))
    }

    /// After all getters ran, reject any option the command never asked
    /// about (catches typos like `--sedd 42`).
    pub fn reject_unknown(&self) -> Result<(), ArgError> {
        let used = self.used.borrow();
        for k in self.values.keys().chain(self.pairs.keys()) {
            if !used.iter().any(|u| u == k) {
                return Err(err(format!("unknown option --{k}")));
            }
        }
        for s in &self.switches {
            if !used.iter().any(|u| u == s) {
                return Err(err(format!("unknown switch --{s}")));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_values_and_switches() {
        let a = Args::parse(toks("--n 100 --labels --seed 7"), &["labels"]).unwrap();
        assert_eq!(a.get("n"), Some("100"));
        assert!(a.switch("labels"));
        assert!(!a.switch("other"));
        assert_eq!(a.get_parsed("seed", 0u64).unwrap(), 7);
        assert_eq!(a.get_parsed("missing", 42u64).unwrap(), 42);
    }

    #[test]
    fn rejects_positional_and_dangling() {
        assert!(Args::parse(toks("file.csv"), &[]).is_err());
        assert!(Args::parse(toks("--n"), &[]).is_err());
        assert!(Args::parse(toks("--n 1 --n 2"), &[]).is_err());
    }

    #[test]
    fn pairs_take_two_values() {
        let a = Args::parse_with_pairs(toks("--diff a b --n 3"), &[], &["diff"]).unwrap();
        assert_eq!(a.get_pair("diff"), Some(("a", "b")));
        assert_eq!(a.get("n"), Some("3"));
        assert!(a.reject_unknown().is_ok());
        assert!(Args::parse_with_pairs(toks("--diff a"), &[], &["diff"]).is_err());
        assert!(Args::parse_with_pairs(toks("--diff a b --diff c d"), &[], &["diff"]).is_err());
        let unused = Args::parse_with_pairs(toks("--diff a b"), &[], &["diff"]).unwrap();
        assert!(unused.reject_unknown().is_err());
    }

    #[test]
    fn require_and_parse_errors() {
        let a = Args::parse(toks("--k notanumber"), &[]).unwrap();
        assert!(a.require("missing").is_err());
        assert!(a.require_parsed::<usize>("k").is_err());
        assert!(a.get_parsed("k", 1usize).is_err());
    }

    #[test]
    fn reject_unknown_catches_typos() {
        let a = Args::parse(toks("--seed 1 --sedd 2"), &[]).unwrap();
        let _ = a.get("seed");
        assert!(a.reject_unknown().is_err());
        let b = Args::parse(toks("--seed 1"), &[]).unwrap();
        let _ = b.get("seed");
        assert!(b.reject_unknown().is_ok());
    }
}
