//! Minimal `--flag value` argument parsing (no CLI crates offline; the
//! grammar here is small enough that hand-rolling beats a dependency).

use std::collections::HashMap;

/// Parsed command arguments: `--key value` options, value-less `--key`
/// switches, plus positional args.
#[derive(Debug, Default)]
pub struct Parsed {
    options: HashMap<String, String>,
    positional: Vec<String>,
}

impl Parsed {
    /// Parses `command`'s argument list. Each of its `options` must be
    /// followed by a value; its `switches` take none (stored as `"true"`,
    /// queried via [`has`](Self::has)). Any other `--key` is an error
    /// naming it, so a misspelt or retired option never takes the next
    /// argument as its value.
    pub fn new(
        argv: &[String],
        command: &str,
        options: &[&str],
        switches: &[&str],
    ) -> Result<Parsed, String> {
        let mut parsed = Parsed::default();
        let mut iter = argv.iter();
        while let Some(arg) = iter.next() {
            let Some(key) = arg.strip_prefix("--") else {
                parsed.positional.push(arg.clone());
                continue;
            };
            let value = if switches.contains(&key) {
                "true".to_string()
            } else if options.contains(&key) {
                iter.next()
                    .ok_or_else(|| format!("--{key} requires a value"))?
                    .clone()
            } else {
                return Err(format!("unknown option --{key} for {command}"));
            };
            if parsed.options.insert(key.to_string(), value).is_some() {
                return Err(format!("--{key} given twice"));
            }
        }
        Ok(parsed)
    }

    /// Whether a boolean switch was given.
    pub fn has(&self, key: &str) -> bool {
        self.options.contains_key(key)
    }

    /// A required option.
    pub fn require(&self, key: &str) -> Result<&str, String> {
        self.options
            .get(key)
            .map(|s| s.as_str())
            .ok_or_else(|| format!("missing required option --{key}"))
    }

    /// An optional option.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(|s| s.as_str())
    }

    /// An optional option parsed as an integer.
    pub fn get_num<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        match self.options.get(key) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("--{key} expects a number, got {v:?}")),
        }
    }

    /// The positional arguments.
    pub fn positional(&self) -> &[String] {
        &self.positional
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    fn parse(args: &[&str]) -> Result<Parsed, String> {
        Parsed::new(&v(args), "test", &["out", "seed"], &["strict"])
    }

    #[test]
    fn options_and_positionals() {
        let p = parse(&["--out", "dir", "10.0.0.0/8", "--seed", "7", "extra"]).unwrap();
        assert_eq!(p.require("out").unwrap(), "dir");
        assert_eq!(p.get_num::<u64>("seed").unwrap(), Some(7));
        assert_eq!(p.positional(), &["10.0.0.0/8", "extra"]);
        assert_eq!(p.get("missing"), None);
        assert!(p.require("missing").is_err());
    }

    #[test]
    fn rejects_dangling_and_duplicate_flags() {
        assert!(parse(&["--out"]).is_err());
        assert!(parse(&["--out", "a", "--out", "b"]).is_err());
    }

    #[test]
    fn switches_take_no_value() {
        let p = parse(&["--strict", "--out", "dir", "pos"]).unwrap();
        assert!(p.has("strict"));
        assert!(!p.has("lenient"));
        assert_eq!(p.require("out").unwrap(), "dir");
        assert_eq!(p.positional(), &["pos"]);
        // A trailing switch needs no value; a trailing option does.
        assert!(parse(&["--strict"]).is_ok());
        assert!(parse(&["--out"]).is_err());
    }

    /// A key the command does not accept is refused by name, before it can
    /// swallow the argument after it, whether it looks like an option or a
    /// switch.
    #[test]
    fn unknown_options_are_refused_by_name() {
        for (args, key) in [
            (&["--frozn", "41.0.0.0/22", "10.1.0.0/16"][..], "--frozn"),
            (&["10.1.0.0/16", "--thread", "4"], "--thread"),
            (&["--out", "dir", "--frozen"], "--frozen"),
        ] {
            assert_eq!(
                parse(args).unwrap_err(),
                format!("unknown option {key} for test")
            );
        }
    }

    #[test]
    fn bad_number_is_an_error() {
        let p = parse(&["--seed", "xyz"]).unwrap();
        assert!(p.get_num::<u64>("seed").is_err());
    }
}
