//! The one description of the `xp` command line: every subcommand is a
//! [`Command`] row of [`XP`], every flag a [`Flag`] row inside it.
//! [`parse`] is the only argument loop in the workspace, [`usage`] (and
//! the README's "CLI reference" block) is rendered from the same rows,
//! and the typed getters of [`Parsed`] hand back values the parser has
//! already checked. A new flag is one row plus the place that reads it.

use std::fmt::Write as _;
use std::path::PathBuf;

/// What a flag takes after its name (and so what [`parse`] checks).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Value {
    /// Nothing: the flag is present or absent.
    Switch,
    /// Any string — a file, a directory, an address; the metavar names which.
    Text(&'static str),
    /// An integer ≥ 1.
    Positive,
    /// Comma-separated non-negative integers.
    U64List,
}

impl Value {
    fn metavar(self) -> Option<&'static str> {
        match self {
            Value::Switch => None,
            Value::Text(metavar) => Some(metavar),
            Value::Positive => Some("N"),
            Value::U64List => Some("a,b,c"),
        }
    }
}

/// One flag of one subcommand.
#[derive(Debug)]
pub struct Flag {
    /// The spelling on the command line, dashes included.
    pub name: &'static str,
    /// What follows it.
    pub value: Value,
    /// One line for the usage text (defaults are stated here).
    pub help: &'static str,
}

/// One subcommand: the words that select it, its positionals, its flags.
#[derive(Debug)]
pub struct Command {
    /// The word(s) after `xp`, space-separated (`"cache stat"`).
    pub name: &'static str,
    /// Metavars of the required positionals, in order.
    pub positionals: &'static [&'static str],
    /// One line for the usage text.
    pub help: &'static str,
    /// Every flag the subcommand accepts.
    pub flags: &'static [Flag],
}

/// The table's row syntax: `"name" [positionals] "help" { "--flag" Value, "help"; … }`.
macro_rules! commands {
    ($($name:literal [$($positional:literal),*] $help:literal {
        $($flag:literal $value:expr, $flag_help:literal;)*
    })*) => {
        &[$(Command {
            name: $name,
            positionals: &[$($positional),*],
            help: $help,
            flags: &[$(Flag { name: $flag, value: $value, help: $flag_help }),*],
        }),*]
    };
}

use Value::{Positive, Switch, Text, U64List};

/// The `xp` command line.
pub static XP: &[Command] = commands! {
    "list" [] "built-in scenarios" {}
    "show" ["<name>"] "print a built-in spec as TOML" {}
    "run" ["<spec.toml | name>"] "execute a sweep, trace or analytic scenario" {
        "--threads" Positive, "worker threads (default: all cores)";
        "--procs" Positive, "worker processes (default 1 = in-process)";
        "--cache" Switch, "content-addressed result cache (.xp-cache)";
        "--cache-dir" Text("DIR"), "cache somewhere else (implies --cache)";
        "--json" Text("FILE | -"), "write JSON results (- = stdout, at most one per run)";
        "--csv" Text("FILE | -"), "write CSV results";
        "--meta" Text("FILE | -"), "write JSON run metadata (spans, counters)";
        "--progress" Switch, "live done/total (cached k) · ETA on stderr";
        "--log-json" Text("FILE"), "NDJSON span stream (one record per point)";
        "--seeds" U64List, "override the spec's seed grid";
        "--timeout-secs" Positive, "wall-clock budget per --procs worker";
    }
    "serve" [] "results daemon: HTTP job queue + NDJSON records" {
        "--addr" Text("HOST:PORT"), "bind address (default 127.0.0.1:8080)";
        "--workers" Positive, "job worker threads (default 2)";
        "--threads" Positive, "executor threads per job (default: all cores)";
        "--cache-dir" Text("DIR"), "shared result cache (default .xp-cache)";
        "--no-cache" Switch, "run jobs without the result cache";
        "--queue-cap" Positive, "queued-job bound (503 beyond) and finished jobs kept (default 64)";
    }
    "diff" ["<a>", "<b>"] "name where two JSON reports differ: JSON paths, else line:column (exit 1 if any)" {}
    "cache stat" [] "entry count and size of the result cache" {
        "--cache-dir" Text("DIR"), "which cache (default .xp-cache)";
        "--json" Switch, "as one NDJSON record with per-engine counts";
    }
    "cache clear" [] "delete every cache entry" {
        "--cache-dir" Text("DIR"), "which cache (default .xp-cache)";
    }
    "worker" [] "internal: one shard of an `xp run --procs` (manifest on stdin)" {}
};

/// The usage text, rendered from [`XP`].
pub fn usage() -> String {
    let mut rows: Vec<(String, &str)> = Vec::new();
    for cmd in XP {
        let mut head = format!("xp {}", cmd.name);
        for positional in cmd.positionals {
            let _ = write!(head, " {positional}");
        }
        rows.push((head, cmd.help));
        for f in cmd.flags {
            let cell = match f.value.metavar() {
                Some(metavar) => format!("       [{} {metavar}]", f.name),
                None => format!("       [{}]", f.name),
            };
            rows.push((cell, f.help));
        }
    }
    let width = rows.iter().map(|(left, _)| left.len()).max().unwrap_or(0);
    let mut out = String::from("usage:\n");
    for (left, help) in rows {
        let _ = writeln!(out, "  {left:<width$}  {help}");
    }
    out
}

/// The checked value of one flag that was given.
#[derive(Debug)]
enum Given<'a> {
    Switch,
    Text(&'a str),
    Positive(usize),
    U64List(Vec<u64>),
}

/// One invocation, matched against its [`Command`] row and checked.
#[derive(Debug)]
pub struct Parsed<'a> {
    /// The row the leading words selected.
    pub command: &'static Command,
    positionals: Vec<&'a str>,
    given: Vec<(&'static str, Given<'a>)>,
}

/// Parse everything after `xp`. The error is the message for an
/// `error: …` line; the caller prints it with [`usage`] and exits 2.
pub fn parse(args: &[String]) -> Result<Parsed<'_>, String> {
    let selects = |cmd: &&Command| {
        let mut leading = args.iter();
        cmd.name
            .split(' ')
            .all(|word| leading.next().is_some_and(|a| a == word))
    };
    let command = XP.iter().find(selects).ok_or_else(|| match args.first() {
        Some(word) => format!("unknown subcommand {word:?}"),
        None => "missing subcommand".to_string(),
    })?;
    let mut parsed = Parsed {
        command,
        positionals: Vec::new(),
        given: Vec::new(),
    };
    let mut rest = args[command.name.split(' ').count()..].iter();
    while let Some(arg) = rest.next() {
        if !arg.starts_with("--") {
            if parsed.positionals.len() == command.positionals.len() {
                return Err(format!("unexpected argument {arg:?}"));
            }
            parsed.positionals.push(arg);
            continue;
        }
        let row = command
            .flags
            .iter()
            .find(|f| f.name == arg)
            .ok_or_else(|| format!("unknown argument {arg:?}"))?;
        if parsed.given.iter().any(|(name, _)| *name == row.name) {
            return Err(format!("{} given twice", row.name));
        }
        let given = if row.value == Switch {
            Given::Switch
        } else {
            let v = rest
                .next()
                .ok_or_else(|| format!("{} needs a value", row.name))?;
            check(row, v)?
        };
        parsed.given.push((row.name, given));
    }
    match command.positionals.get(parsed.positionals.len()) {
        Some(missing) => Err(format!("missing {missing}")),
        None => Ok(parsed),
    }
}

/// The one copy of every "expects a …" rule.
fn check<'a>(row: &Flag, v: &'a str) -> Result<Given<'a>, String> {
    let expects = |what: &str| format!("{} expects {what}, got {v:?}", row.name);
    match row.value {
        Switch => unreachable!("a switch takes no value"),
        Text(_) => Ok(Given::Text(v)),
        Positive => match v.parse::<usize>() {
            Ok(n) if n >= 1 => Ok(Given::Positive(n)),
            _ => Err(expects("a positive integer")),
        },
        U64List => v
            .split(',')
            .map(|s| s.trim().parse::<u64>())
            .collect::<Result<_, _>>()
            .map(Given::U64List)
            .map_err(|_| expects("a comma-separated list of non-negative integers")),
    }
}

impl<'a> Parsed<'a> {
    /// The `i`-th positional ([`parse`] made sure all of them are there).
    pub fn positional(&self, i: usize) -> &'a str {
        self.positionals[i]
    }

    /// What was given for `name`, which must be a row of this command: a
    /// getter that names a flag the table does not have is a bug here,
    /// not a flag that was not given.
    fn given(&self, name: &str) -> Option<&Given<'a>> {
        assert!(
            self.command.flags.iter().any(|f| f.name == name),
            "xp {} has no {name} row",
            self.command.name
        );
        self.given.iter().find(|(n, _)| *n == name).map(|(_, g)| g)
    }

    /// Was the switch given?
    pub fn switch(&self, name: &str) -> bool {
        self.given(name).is_some()
    }

    /// The value of a [`Value::Text`] flag.
    pub fn text(&self, name: &str) -> Option<&'a str> {
        self.given(name).map(|g| match g {
            Given::Text(v) => *v,
            other => panic!("{name} is {other:?}, not text"),
        })
    }

    /// The value of a [`Value::Text`] flag, as a path.
    pub fn path(&self, name: &str) -> Option<PathBuf> {
        self.text(name).map(PathBuf::from)
    }

    /// The value of a [`Value::Positive`] flag.
    pub fn positive(&self, name: &str) -> Option<usize> {
        self.given(name).map(|g| match g {
            Given::Positive(n) => *n,
            other => panic!("{name} is {other:?}, not a positive integer"),
        })
    }

    /// The value of a [`Value::U64List`] flag.
    pub fn u64_list(&self, name: &str) -> Option<&[u64]> {
        self.given(name).map(|g| match g {
            Given::U64List(list) => list.as_slice(),
            other => panic!("{name} is {other:?}, not a list"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The README block is the golden of the rendered usage.
    #[test]
    fn readme_cli_reference_is_rendered_from_the_table() {
        const BEGIN: &str = "<!-- cli-reference:begin (rendered from crates/runner/src/cli.rs; do not edit) -->\n```text\n";
        const END: &str = "```\n<!-- cli-reference:end -->";
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md");
        let readme = std::fs::read_to_string(path).expect("README.md");
        let start = readme.find(BEGIN).expect("README has the begin marker") + BEGIN.len();
        let end = readme.find(END).expect("README has the end marker");
        let want = usage();
        assert!(
            readme[start..end] == want,
            "README's CLI reference drifted from the table; replace the block \
             between the markers with:\n{want}"
        );
    }

    #[test]
    fn getters_return_what_parse_checked() {
        let args: Vec<String> = "run fig7 --threads 3 --cache --seeds 1,2 --json -"
            .split(' ')
            .map(String::from)
            .collect();
        let p = parse(&args).expect("valid");
        assert_eq!(p.command.name, "run");
        assert_eq!(p.positional(0), "fig7");
        assert_eq!(p.positive("--threads"), Some(3));
        assert_eq!(p.positive("--procs"), None);
        assert!(p.switch("--cache") && !p.switch("--progress"));
        assert_eq!(p.u64_list("--seeds"), Some(&[1, 2][..]));
        assert_eq!(p.text("--json"), Some("-"));
        assert_eq!(p.path("--cache-dir"), None);
    }

    #[test]
    #[should_panic(expected = "xp list has no --threads row")]
    fn a_getter_for_a_flag_the_row_lacks_is_a_bug() {
        let args = ["list".to_string()];
        let _ = parse(&args).expect("valid").positive("--threads");
    }
}
