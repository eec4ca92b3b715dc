//! `scue-profile` — self-profile the secure-memory engine: run a seeded
//! workload per scheme under the span profiler and report where the
//! time and the allocations go.
//!
//! ```text
//! usage: scue-profile [--scheme baseline|plp|lazy|eager|bmf|scue|phoenix|triad1|triad2|zuo|freij]...
//!                     [--ops N] [--seed N] [--jobs N] [--clock virtual|monotonic]
//!                     [--top N] [--json PATH] [--chrome-trace PATH]
//! ```
//!
//! Prints a top-N self-time table aggregated across the profiled
//! schemes and a per-scheme coverage summary. `--json` writes the
//! versioned `kind:"scue-profile"` document; `--chrome-trace` writes a
//! Chrome trace-event file loadable in Perfetto (`ui.perfetto.dev`) or
//! `chrome://tracing`.
//!
//! The default clock is `monotonic` (real nanoseconds — the numbers to
//! read before optimizing). `--clock virtual` swaps in a deterministic
//! per-thread tick clock: durations then count span boundaries instead
//! of wall time, but the document is byte-identical at any `--jobs`
//! count (only the trailing `provenance` object varies), which is what
//! the determinism gate in `scripts/verify.sh` and the golden test in
//! `tests/par_determinism.rs` rely on.

use scue::SchemeKind;
use scue_sim::profile::{self, ProfileConfig};
use scue_util::cli::{self, Cli};
use scue_util::obs::span::Clock;
use std::num::{NonZeroU64, NonZeroUsize};

const BIN: &str = "scue-profile";

#[derive(Debug)]
struct Args {
    cfg: ProfileConfig,
    jobs: usize,
    top: usize,
    json: Option<String>,
    chrome_trace: Option<String>,
}

/// Parses the command line against an explicit `SCUE_JOBS` value.
fn parse_args_from(argv: Vec<String>, env_jobs: Option<&str>) -> Result<Args, cli::Error> {
    let mut args = Args {
        cfg: ProfileConfig {
            schemes: Vec::new(),
            ops: 300,
            seed: 7,
            clock: Clock::Monotonic,
        },
        jobs: 0,
        top: 12,
        json: None,
        chrome_trace: None,
    };
    Cli::new(BIN)
        .value("--scheme", SchemeKind::token_choices(), |v| {
            args.cfg.schemes.push(v)
        })
        .repeatable()
        .value("--ops", "N", |v: NonZeroU64| args.cfg.ops = v.get())
        .value("--seed", "N", |v| args.cfg.seed = v)
        .jobs(&mut args.jobs)
        .value("--clock", "virtual|monotonic", |v| args.cfg.clock = v)
        .value("--top", "N", |v: NonZeroUsize| args.top = v.get())
        .value("--json", "PATH", |v| args.json = Some(v))
        .value("--chrome-trace", "PATH", |v| args.chrome_trace = Some(v))
        .parse(argv, env_jobs)?;
    if args.cfg.schemes.is_empty() {
        args.cfg.schemes = SchemeKind::ALL.to_vec();
    }
    Ok(args)
}

fn main() {
    let args = cli::parse_or_exit(parse_args_from);
    let cfg = &args.cfg;
    let started = std::time::Instant::now();
    let results = profile::run(cfg, args.jobs);
    let wall_ms = started.elapsed().as_millis() as u64;

    let unit = match cfg.clock {
        Clock::Monotonic => "ns",
        Clock::Virtual => "ticks",
    };
    println!(
        "scue-profile: {} scheme(s), {} ops each, {} clock",
        results.len(),
        cfg.ops,
        cfg.clock.name()
    );
    println!();
    println!("scheme      coverage   recovered   allocs      alloc KiB");
    for r in &results {
        println!(
            "{:<11} {:>7.1}%   {:<9}   {:<9}   {:.1}",
            r.scheme.name(),
            r.coverage_pct(),
            if r.recovered { "yes" } else { "no" },
            r.thread_allocs,
            r.thread_bytes as f64 / 1024.0
        );
    }
    println!();
    println!("top {} spans by aggregate self time ({unit}):", args.top);
    println!(
        "{:<16} {:>10} {:>14} {:>14} {:>10} {:>12}",
        "span", "calls", "total", "self", "allocs", "alloc bytes"
    );
    for (name, stats) in profile::aggregate(&results)
        .self_time_ranking()
        .into_iter()
        .take(args.top)
    {
        println!(
            "{:<16} {:>10} {:>14} {:>14} {:>10} {:>12}",
            name, stats.calls, stats.total_ns, stats.self_ns, stats.allocs, stats.alloc_bytes
        );
    }

    if let Some(path) = &args.json {
        let doc = profile::to_doc(cfg, &results);
        cli::write_json(BIN, path, doc, args.jobs, wall_ms);
    }
    if let Some(path) = &args.chrome_trace {
        let doc = profile::to_chrome_trace(cfg, &results);
        cli::write_json(BIN, path, doc, args.jobs, wall_ms);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        let argv = line.split_whitespace().map(String::from).collect();
        parse_args_from(argv, None).map_err(|e| e.to_string())
    }

    #[test]
    fn defaults_parse_clean() {
        let args = parse("").unwrap();
        assert_eq!(args.cfg.schemes, SchemeKind::ALL.to_vec());
        assert_eq!((args.cfg.ops, args.cfg.seed, args.top), (300, 7, 12));
        assert_eq!(args.cfg.clock, Clock::Monotonic);
    }

    #[test]
    fn full_flag_set_parses() {
        let args = parse(
            "--scheme scue --ops 40 --seed 9 --jobs 3 --clock virtual --top 5 --json p.json \
             --chrome-trace c.json --scheme BMF-ideal",
        )
        .unwrap();
        let schemes = [SchemeKind::Scue, SchemeKind::BmfIdeal];
        assert_eq!(
            (args.cfg.schemes, args.cfg.clock),
            (schemes.to_vec(), Clock::Virtual)
        );
        assert_eq!(
            (args.cfg.ops, args.cfg.seed, args.jobs, args.top),
            (40, 9, 3, 5)
        );
        assert_eq!(args.json.as_deref(), Some("p.json"));
        assert_eq!(args.chrome_trace.as_deref(), Some("c.json"));
    }

    #[test]
    fn bad_values_name_the_flag_and_value() {
        for bad in ["--clock wall", "--top 0", "--ops 00"] {
            let (flag, value) = bad.split_once(' ').unwrap();
            let want = format!("invalid value for {flag}: `{value}`");
            assert_eq!(parse(bad).unwrap_err(), want);
        }
    }
}
