//! Exhaustive small-scope crash model checker.
//!
//! Enumerates every action interleaving of the abstract persist
//! pipeline (leaf persists, WPQ drains, deferred root settles) at small
//! scope, crashes each reachable state in every mode (clean ADR plus
//! every torn-prefix split of the WPQ), and evaluates each scheme's
//! recovery invariant in the post-crash state. Counterexample witnesses
//! are lowered onto the concrete engine and re-proved via the
//! strict-windows torture oracle and the read-only recovery probe.
//!
//! ```text
//! usage: scue-mc [--blocks 2..=3] [--ops 1..=4] [--seed N]
//!                [--scheme baseline|plp|lazy|eager|bmf|scue|phoenix|triad1|triad2|zuo|freij]
//!                [--max-states N] [--max-depth N] [--no-replay] [--jobs N]
//!                [--json PATH]
//! ```
//!
//! Exits 0 when the model-check matches the paper's claim (SCUE, PLP
//! and BMF-ideal clean; witnesses — expected for Lazy/Eager — all
//! reproduce concretely), 1 on a witness against a root-crash-
//! consistent scheme or a failed reproduction, 2 on usage errors. A
//! truncated (non-exhaustive) search is flagged on stderr and in the
//! JSON document.

use scue::SchemeKind;
use scue_sim::mc::{self, McConfig, SearchConfig};
use scue_sim::torture::TortureConfig;
use scue_util::cli::{self, Cli};
use std::num::NonZeroUsize;
use std::process::ExitCode;

const BIN: &str = "scue-mc";

#[derive(Debug)]
struct Args {
    cfg: McConfig,
    schemes: Vec<SchemeKind>,
    json_path: Option<String>,
}

/// Parses the command line against an explicit `SCUE_JOBS` value.
fn parse_args_from(argv: Vec<String>, env_jobs: Option<&str>) -> Result<Args, cli::Error> {
    let mut args = Args {
        cfg: McConfig {
            search: SearchConfig::default(),
            torture: TortureConfig::default(),
            replay: true,
        },
        schemes: SchemeKind::ALL.to_vec(),
        json_path: None,
    };
    let blocks = format!("2..={}", mc::MAX_BLOCKS);
    let search = &mut args.cfg.search;
    Cli::new(BIN)
        .value_if(
            "--blocks",
            blocks,
            |n| (2..=mc::MAX_BLOCKS).contains(n),
            |v| search.blocks = v,
        )
        .value_if(
            "--ops",
            "1..=4",
            |n| (1..=4).contains(n),
            |v| search.ops = v,
        )
        .value("--seed", "N", |v| args.cfg.torture.seed = v)
        .value("--scheme", SchemeKind::token_choices(), |v| {
            args.schemes = vec![v]
        })
        .value("--max-states", "N", |v: NonZeroUsize| {
            search.max_states = v.get()
        })
        .value("--max-depth", "N", |v| search.max_depth = v)
        .switch("--no-replay", || args.cfg.replay = false)
        .jobs(&mut search.jobs)
        .value("--json", "PATH", |v| args.json_path = Some(v))
        .parse(argv, env_jobs)?;
    Ok(args)
}

fn main() -> ExitCode {
    let args = cli::parse_or_exit(parse_args_from);
    let started = std::time::Instant::now();
    let report = mc::run(&args.cfg, &args.schemes);
    let wall_ms = started.elapsed().as_millis() as u64;

    for s in &report.schemes {
        let verdicts: Vec<String> = mc::Verdict::ALL
            .iter()
            .filter_map(|v| {
                let n = s.search.verdicts.get(v).copied().unwrap_or(0);
                (n > 0).then(|| format!("{}={n}", v.name()))
            })
            .collect();
        println!(
            "{:<10} states={} crash_cases={} witnesses={} exhaustive={} [{}]",
            s.search.scheme.to_string(),
            s.search.states,
            s.search.crash_cases,
            s.search.witnesses_total,
            s.search.exhaustive,
            verdicts.join(" "),
        );
        for (w, repro) in s.search.witness_list.iter().zip(&s.reproductions) {
            let actions: Vec<String> = w.actions.iter().map(|a| a.token()).collect();
            match repro {
                Some(r) => println!(
                    "  witness [{}] crash={} → replay {} ({})",
                    actions.join(" "),
                    w.crash.token(),
                    r.spec,
                    if r.reproduced() {
                        "reproduced"
                    } else {
                        "NOT reproduced"
                    },
                ),
                None => println!(
                    "  witness [{}] crash={} (replay skipped)",
                    actions.join(" "),
                    w.crash.token(),
                ),
            }
        }
    }
    println!(
        "model check wall-clock: {wall_ms} ms at --jobs {}",
        args.cfg.search.jobs
    );

    if !report.exhaustive() {
        for s in &report.schemes {
            if !s.search.exhaustive {
                eprintln!(
                    "warning: {}: search truncated (states dropped: {}, frontier cut at depth \
                     budget: {}) — 0 witnesses means UNKNOWN, not proven",
                    s.search.scheme, s.search.truncated_states, s.search.truncated_depth
                );
            }
        }
    }

    if let Some(path) = &args.json_path {
        let jobs = args.cfg.search.jobs;
        cli::write_json(BIN, path, report.to_json(), jobs, wall_ms);
    }

    let rcc = report.rcc_witnesses();
    let failed = report.failed_reproductions();
    if rcc > 0 {
        eprintln!("{rcc} witness(es) against root-crash-consistent scheme(s)");
        ExitCode::FAILURE
    } else if failed > 0 {
        eprintln!("{failed} witness(es) failed to reproduce on the concrete engine");
        ExitCode::FAILURE
    } else {
        println!(
            "model check ok: {} schemes, {} witnesses, exhaustive={}",
            report.schemes.len(),
            report.total_witnesses(),
            report.exhaustive(),
        );
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str, env_jobs: Option<&str>) -> Result<Args, String> {
        let argv = line.split_whitespace().map(String::from).collect();
        parse_args_from(argv, env_jobs).map_err(|e| e.to_string())
    }

    #[test]
    fn defaults_parse_clean() {
        let args = parse("", None).unwrap();
        assert_eq!((args.cfg.search.blocks, args.cfg.search.ops), (2, 3));
        assert!(args.cfg.replay && args.cfg.search.jobs >= 1);
        assert_eq!(args.schemes, SchemeKind::ALL.to_vec());
    }

    #[test]
    fn full_flag_set_parses() {
        let args = parse(
            "--blocks 3 --ops 4 --seed 9 --scheme eager --max-states 500 --max-depth 10 \
             --no-replay --jobs 4 --json out.json",
            None,
        )
        .unwrap();
        let search = &args.cfg.search;
        assert_eq!(
            (search.blocks, search.ops, args.cfg.torture.seed),
            (3, 4, 9)
        );
        assert_eq!(args.schemes, vec![SchemeKind::Eager]);
        assert_eq!(
            (search.max_states, search.max_depth, search.jobs),
            (500, 10, 4)
        );
        assert!(!args.cfg.replay);
        assert_eq!(args.json_path.as_deref(), Some("out.json"));
    }

    #[test]
    fn scheme_flag_takes_every_token_and_alias() {
        for scheme in SchemeKind::ALL {
            for spelling in [scheme.token(), scheme.name()] {
                let args = parse(&format!("--scheme {spelling}"), None).unwrap();
                assert_eq!(args.schemes, [scheme]);
            }
        }
    }

    #[test]
    fn bad_values_name_the_flag_and_value() {
        for bad in [
            "--blocks 1",
            "--blocks 4",
            "--ops 0",
            "--ops 5",
            "--max-states 0",
        ] {
            let (flag, value) = bad.split_once(' ').unwrap();
            let want = format!("invalid value for {flag}: `{value}`");
            assert_eq!(parse(bad, None).unwrap_err(), want);
        }
    }

    #[test]
    fn missing_values_and_unknown_flags_are_errors() {
        for flag in "--blocks --ops --seed --scheme --max-states --max-depth --json".split(' ') {
            assert!(parse(flag, None).unwrap_err().contains("requires a value"));
        }
        let err = parse("--frobnicate", None).unwrap_err();
        assert!(err.contains("unknown flag"), "{err}");
    }

    #[test]
    fn env_jobs_applies_and_flag_wins() {
        assert_eq!(parse("", Some("6")).unwrap().cfg.search.jobs, 6);
        assert_eq!(parse("--jobs 2", Some("6")).unwrap().cfg.search.jobs, 2);
    }
}
