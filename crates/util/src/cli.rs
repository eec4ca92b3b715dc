//! The one command-line parser of every flag-taking bin.
//!
//! A bin declares its flags once, as a [`Cli`] table of names, value
//! placeholders (none for a switch) and setters. The table parses argv,
//! renders the usage line and owns the error contract, so every bin
//! prints `{bin}: {msg}` and its usage and exits 2 on:
//!
//! * `{flag} requires a value`;
//! * ``invalid value for {flag}: `{v}` ``, echoing the value as typed;
//! * ``unknown flag `{x}` ``;
//! * `--help` / `-h` (usage alone).
//!
//! Values parse through [`FromStr`]. [`Cli::jobs`] adds `--jobs N`,
//! which must be at least 1; [`par::resolve_jobs_from`] then applies
//! (`--jobs` > `SCUE_JOBS` > available parallelism, and a garbled
//! `SCUE_JOBS` errors even when `--jobs` is set).

use crate::obs::Json;
use crate::par;
use std::fmt;
use std::path::Path;
use std::str::FromStr;

/// Usage lines wrap before this column (an item is never split).
const USAGE_WIDTH: usize = 80;

enum Action<'a> {
    Switch(Box<dyn FnMut() + 'a>),
    /// Placeholder and setter; the setter returns `false` to reject.
    Value(String, Box<dyn FnMut(&str) -> bool + 'a>),
    Jobs,
}

struct Flag<'a> {
    name: &'static str,
    action: Action<'a>,
    repeatable: bool,
}

/// A bin's flag table, consumed by [`Cli::parse`].
pub struct Cli<'a> {
    bin: &'static str,
    flags: Vec<Flag<'a>>,
    jobs: Option<&'a mut usize>,
}

impl<'a> Cli<'a> {
    /// An empty table for the bin named `bin`.
    pub fn new(bin: &'static str) -> Self {
        Cli {
            bin,
            flags: Vec::new(),
            jobs: None,
        }
    }

    fn push(mut self, name: &'static str, action: Action<'a>) -> Self {
        self.flags.push(Flag {
            name,
            action,
            repeatable: false,
        });
        self
    }

    /// A flag without a value.
    pub fn switch(self, name: &'static str, set: impl FnMut() + 'a) -> Self {
        self.push(name, Action::Switch(Box::new(set)))
    }

    /// A flag whose value parses as `T`.
    pub fn value<T: FromStr>(
        self,
        name: &'static str,
        placeholder: impl Into<String>,
        set: impl FnMut(T) + 'a,
    ) -> Self {
        self.value_if(name, placeholder, |_| true, set)
    }

    /// A flag whose value parses as `T` and passes the bin's own check
    /// `ok`.
    pub fn value_if<T: FromStr>(
        self,
        name: &'static str,
        placeholder: impl Into<String>,
        ok: impl Fn(&T) -> bool + 'a,
        mut set: impl FnMut(T) + 'a,
    ) -> Self {
        let setter = move |raw: &str| match raw.parse() {
            Ok(v) if ok(&v) => {
                set(v);
                true
            }
            _ => false,
        };
        self.push(name, Action::Value(placeholder.into(), Box::new(setter)))
    }

    /// Marks the last flag as repeatable in the usage line.
    pub fn repeatable(mut self) -> Self {
        if let Some(flag) = self.flags.last_mut() {
            flag.repeatable = true;
        }
        self
    }

    /// Adds `--jobs N`; a successful parse leaves the resolved job
    /// count in `slot`.
    pub fn jobs(mut self, slot: &'a mut usize) -> Self {
        self.jobs = Some(slot);
        self.push("--jobs", Action::Jobs)
    }

    /// The usage line rendered from the table.
    fn usage(&self) -> Usage {
        let mut lines = vec![format!("usage: {}", self.bin)];
        let indent = lines[0].len() + 1;
        for flag in &self.flags {
            let placeholder = match &flag.action {
                Action::Switch(_) => String::new(),
                Action::Value(placeholder, _) => format!(" {placeholder}"),
                Action::Jobs => " N".to_string(),
            };
            let repeat = if flag.repeatable { "..." } else { "" };
            let item = format!(" [{}{placeholder}]{repeat}", flag.name);
            let line = lines.last().expect("one line");
            if line.len() > indent && line.len() + item.len() > USAGE_WIDTH {
                lines.push(" ".repeat(indent - 1));
            }
            lines.last_mut().expect("one line").push_str(&item);
        }
        Usage {
            bin: self.bin,
            text: lines.join("\n"),
        }
    }

    /// Applies `argv` (without the program name) in order, then
    /// resolves `--jobs` against `env_jobs`, the raw `SCUE_JOBS`. Returns
    /// the usage, for a bin's own checks across flags.
    pub fn parse(
        mut self,
        argv: impl IntoIterator<Item = String>,
        env_jobs: Option<&str>,
    ) -> Result<Usage, Error> {
        let usage = self.usage();
        let mut flag_jobs = None;
        let mut argv = argv.into_iter();
        while let Some(token) = argv.next() {
            if token == "--help" || token == "-h" {
                return Err(usage.error(""));
            }
            let Some(flag) = self.flags.iter_mut().find(|f| f.name == token) else {
                return Err(usage.error(format!("unknown flag `{token}`")));
            };
            if let Action::Switch(set) = &mut flag.action {
                set();
                continue;
            }
            let Some(v) = argv.next() else {
                return Err(usage.error(format!("{} requires a value", flag.name)));
            };
            let accepted = match &mut flag.action {
                Action::Value(_, set) => set(&v),
                _ => {
                    flag_jobs = v.parse().ok().filter(|&n: &usize| n >= 1);
                    flag_jobs.is_some()
                }
            };
            if !accepted {
                return Err(usage.error(format!("invalid value for {}: `{v}`", flag.name)));
            }
        }
        if let Some(slot) = self.jobs.take() {
            *slot = par::resolve_jobs_from(flag_jobs, env_jobs).map_err(|msg| usage.error(msg))?;
        }
        Ok(usage)
    }
}

/// A bin's rendered usage line.
#[derive(Debug, Clone)]
pub struct Usage {
    bin: &'static str,
    text: String,
}

impl Usage {
    /// A usage error with `msg` (empty: print the usage alone).
    pub fn error(&self, msg: impl Into<String>) -> Error {
        Error {
            msg: msg.into(),
            usage: self.clone(),
        }
    }
}

/// A usage error; it displays as its message alone.
#[derive(Debug)]
pub struct Error {
    msg: String,
    usage: Usage,
}

impl Error {
    /// Prints `{bin}: {msg}` (if any) and the usage to stderr; exits 2.
    pub fn exit(&self) -> ! {
        if !self.msg.is_empty() {
            eprintln!("{}: {}", self.usage.bin, self.msg);
        }
        eprintln!("{}", self.usage.text);
        std::process::exit(2);
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

/// Runs a bin's `parse` on the process arguments (minus the program
/// name) and `SCUE_JOBS`; a usage error exits 2.
pub fn parse_or_exit<A>(parse: impl FnOnce(Vec<String>, Option<&str>) -> Result<A, Error>) -> A {
    let env = std::env::var(par::JOBS_ENV).ok();
    parse(std::env::args().skip(1).collect(), env.as_deref()).unwrap_or_else(|e| e.exit())
}

/// Writes a run's document to `path` with the trailing provenance
/// object `{"jobs","wall_ms"}` (the only fields allowed to differ across
/// job counts) and prints `wrote {path}`; exits 1 if it cannot write.
pub fn write_json(bin: &str, path: impl AsRef<Path>, doc: Json, jobs: usize, wall_ms: u64) {
    let path = path.as_ref();
    let provenance = Json::obj()
        .with("jobs", Json::U64(jobs as u64))
        .with("wall_ms", Json::U64(wall_ms));
    if let Err(e) = std::fs::write(path, doc.with("provenance", provenance).render_doc()) {
        eprintln!("{bin}: cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
    println!("wrote {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Default)]
    struct Opts {
        seed: u64,
        even: u32,
        names: Vec<String>,
        verbose: bool,
        jobs: usize,
    }

    fn table(o: &mut Opts) -> Cli<'_> {
        Cli::new("demo")
            .value("--seed", "N", |v| o.seed = v)
            .value_if("--even", "N", |v: &u32| v.is_multiple_of(2), |v| o.even = v)
            .value("--name", "a|b", |v| o.names.push(v))
            .repeatable()
            .switch("--verbose", || o.verbose = true)
            .jobs(&mut o.jobs)
    }

    fn parse(line: &str, env_jobs: Option<&str>) -> Result<Opts, String> {
        let mut o = Opts::default();
        let argv = line.split_whitespace().map(String::from);
        table(&mut o)
            .parse(argv, env_jobs)
            .map_err(|e| e.to_string())?;
        Ok(o)
    }

    fn err(line: &str) -> String {
        parse(line, None).unwrap_err()
    }

    #[test]
    fn values_switches_and_repeats_apply_in_order() {
        let o = parse(
            "--seed 3 --name a --verbose --seed 9 --name b --even 4",
            None,
        )
        .unwrap();
        assert_eq!((o.seed, o.even, o.verbose), (9, 4, true));
        assert_eq!(o.names, ["a", "b"]);
    }

    #[test]
    fn error_messages_are_the_contract() {
        assert_eq!(err("--seed"), "--seed requires a value");
        assert_eq!(err("--jobs"), "--jobs requires a value");
        assert_eq!(err("--seed x"), "invalid value for --seed: `x`");
        assert_eq!(err("--even 3"), "invalid value for --even: `3`");
        assert_eq!(err("--frobnicate"), "unknown flag `--frobnicate`");
        // The first bad token wins, and a switch takes no value.
        assert_eq!(err("--verbose 1"), "unknown flag `1`");
        assert_eq!(err("--seed -1 --x"), "invalid value for --seed: `-1`");
        // `--help` is an error with no message: the usage alone.
        assert_eq!(err("--seed 1 --help --x"), "");
        assert_eq!(err("-h"), "");
    }

    #[test]
    fn bad_values_are_echoed_as_typed() {
        for bad in ["0", "00", "four", "-1", "2.5"] {
            let want = format!("invalid value for --jobs: `{bad}`");
            assert_eq!(err(&format!("--jobs {bad}")), want);
        }
        assert_eq!(err("--even 03"), "invalid value for --even: `03`");
        let mut o = Opts::default();
        let argv = ["--jobs".to_string(), String::new()];
        let e = table(&mut o).parse(argv, None).unwrap_err();
        assert_eq!(e.to_string(), "invalid value for --jobs: ``");
    }

    #[test]
    fn jobs_flag_beats_env_beats_available_parallelism() {
        assert_eq!(parse("", None).unwrap().jobs, par::available_jobs());
        assert_eq!(parse("", Some("6")).unwrap().jobs, 6);
        assert_eq!(parse("--jobs 2", Some("6")).unwrap().jobs, 2);
        // A table without `--jobs` never reads `SCUE_JOBS`.
        assert!(Cli::new("demo").parse(vec![], Some("lots")).is_ok());
    }

    #[test]
    fn garbled_env_jobs_errors_even_when_the_flag_is_set() {
        for bad in ["0", "lots", ""] {
            let want = format!("invalid value for SCUE_JOBS: `{bad}`");
            assert_eq!(parse("", Some(bad)).unwrap_err(), want);
            assert_eq!(parse("--jobs 3", Some(bad)).unwrap_err(), want);
        }
    }

    #[test]
    fn usage_is_rendered_from_the_table_and_wraps() {
        let mut o = Opts::default();
        let long = "A-PLACEHOLDER-LONG-ENOUGH-TO-WRAP";
        let usage = table(&mut o).value("--long", long, |_: u8| ()).usage();
        assert_eq!(
            usage.text,
            "usage: demo [--seed N] [--even N] [--name a|b]... [--verbose] [--jobs N]\n            \
             [--long A-PLACEHOLDER-LONG-ENOUGH-TO-WRAP]"
        );
    }

    #[test]
    fn write_json_appends_provenance_last() {
        let dir = std::env::temp_dir().join(format!("scue-cli-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("doc.json");
        write_json("demo", &path, Json::obj().with("k", Json::U64(1)), 4, 120);
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            "{\"k\":1,\"provenance\":{\"jobs\":4,\"wall_ms\":120}}\n"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
