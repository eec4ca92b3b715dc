//! Crash-point torture campaign runner.
//!
//! Samples crash cycles (uniform + persistence-boundary-biased) across
//! all eleven schemes, injects media faults at the crash point, and holds
//! each scheme to the differential recovery oracle. Oracle violations
//! are shrunk to a minimal `(ops, crash_at, fault)` triple and printed
//! with a replay command.
//!
//! ```text
//! usage: scue-torture [--seed N] [--points N] [--ops N] [--eadr]
//!                     [--scheme baseline|plp|lazy|eager|bmf|scue|phoenix|triad1|triad2|zuo|freij]
//!                     [--json PATH] [--strict-baseline] [--strict-windows]
//!                     [--jobs N] [--replay scheme:ops:crash_at:fault]
//! ```
//!
//! `--jobs` (default: available parallelism, overridable via the
//! `SCUE_JOBS` environment variable) fans the campaign's crash cases
//! out over worker threads. The campaign report — and the `--json`
//! payload — is byte-identical at any job count; only the trailing
//! `provenance` object (job count, wall-clock) varies.
//!
//! Exits 0 on a clean campaign, 1 on oracle violations (or a violating
//! replay), 2 on usage errors.

use scue::SchemeKind;
use scue_sim::torture::{self, CaseSpec, TortureConfig};
use scue_util::cli::{self, Cli};
use std::process::ExitCode;

const BIN: &str = "scue-torture";

#[derive(Debug)]
struct Args {
    cfg: TortureConfig,
    points: usize,
    schemes: Vec<SchemeKind>,
    json_path: Option<String>,
    replay: Option<(SchemeKind, CaseSpec)>,
    jobs: usize,
}

/// Parses the command line against an explicit `SCUE_JOBS` value.
fn parse_args_from(argv: Vec<String>, env_jobs: Option<&str>) -> Result<Args, cli::Error> {
    let mut args = Args {
        cfg: TortureConfig::default(),
        points: 200,
        schemes: SchemeKind::ALL.to_vec(),
        json_path: None,
        replay: None,
        jobs: 0,
    };
    let mut replay = None;
    let usage = Cli::new(BIN)
        .value("--seed", "N", |v| args.cfg.seed = v)
        .value("--points", "N", |v| args.points = v)
        .value("--ops", "N", |v| args.cfg.ops = v)
        .switch("--eadr", || args.cfg.eadr = true)
        .value("--scheme", SchemeKind::token_choices(), |v| {
            args.schemes = vec![v]
        })
        .value("--json", "PATH", |v| args.json_path = Some(v))
        .switch("--strict-baseline", || args.cfg.strict_baseline = true)
        .switch("--strict-windows", || args.cfg.strict_windows = true)
        .jobs(&mut args.jobs)
        .value("--replay", "scheme:ops:crash_at:fault", |v: String| {
            replay = Some(v)
        })
        .parse(argv, env_jobs)?;
    args.replay = replay
        .map(|spec| CaseSpec::diagnose_replay(&spec))
        .transpose()
        .map_err(|why| usage.error(why))?;
    Ok(args)
}

/// Re-runs one minimised case and reports the oracle's verdict.
fn replay(scheme: SchemeKind, case: CaseSpec, cfg: &TortureConfig) -> ExitCode {
    let result = torture::run_case(scheme, cfg, case);
    println!(
        "replay {scheme} ops={} crash_at={} fault={}: {} (fault_applied={}, repaired_leaves={})",
        case.ops,
        case.crash_at,
        case.fault.name(),
        result.class.name(),
        result.fault_applied,
        result.repaired_leaves,
    );
    if !result.detail.is_empty() {
        println!("  detail: {}", result.detail);
    }
    match torture::oracle(scheme, cfg, &result) {
        Ok(()) => {
            println!("  oracle: ok");
            ExitCode::SUCCESS
        }
        Err(message) => {
            println!("  oracle: VIOLATION — {message}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args = cli::parse_or_exit(parse_args_from);
    if let Some((scheme, case)) = args.replay {
        return replay(scheme, case, &args.cfg);
    }

    let started = std::time::Instant::now();
    let report = torture::campaign_with_jobs(&args.cfg, args.points, &args.schemes, args.jobs);
    let wall_ms = started.elapsed().as_millis() as u64;
    for tally in &report.tallies {
        let outcomes: Vec<String> = tally
            .outcomes
            .iter()
            .map(|(class, n)| format!("{}={n}", class.name()))
            .collect();
        println!(
            "{:<10} cases={} faults_applied={} repaired_leaves={} violations={} [{}]",
            tally.scheme.to_string(),
            tally.cases,
            tally.faults_applied,
            tally.repaired_leaves,
            tally.violations,
            outcomes.join(" "),
        );
    }
    for tally in &report.tallies {
        if tally.history_dropped > 0 {
            eprintln!(
                "warning: {}: store history journal dropped {} pre-images \
                 (raise the cap if fault fidelity matters)",
                tally.scheme, tally.history_dropped
            );
        }
    }
    for v in &report.violations {
        eprintln!(
            "VIOLATION {}: {} (shrunk {} steps / {} evals)",
            v.scheme, v.message, v.shrink_steps, v.evals
        );
        eprintln!("  replay: {}", v.replay_command(&args.cfg));
    }
    println!("campaign wall-clock: {wall_ms} ms at --jobs {}", args.jobs);

    if let Some(path) = &args.json_path {
        cli::write_json(BIN, path, report.to_json(), args.jobs, wall_ms);
    }

    if report.total_violations() > 0 {
        eprintln!("{} oracle violation(s)", report.total_violations());
        ExitCode::FAILURE
    } else {
        println!(
            "oracle clean: {} schemes × {} points",
            report.tallies.len(),
            args.points
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
        assert_eq!((args.points, args.schemes), (200, SchemeKind::ALL.to_vec()));
        assert!(args.jobs >= 1);
    }

    #[test]
    fn full_flag_set_parses() {
        let args = parse(
            "--seed 9 --points 50 --ops 80 --eadr --strict-baseline --strict-windows \
             --scheme scue --jobs 4 --json out.json",
            None,
        )
        .unwrap();
        assert_eq!((args.cfg.seed, args.points, args.cfg.ops), (9, 50, 80));
        assert!(args.cfg.eadr && args.cfg.strict_baseline && args.cfg.strict_windows);
        assert_eq!((args.schemes, args.jobs), (vec![SchemeKind::Scue], 4));
        assert_eq!(args.json_path.as_deref(), Some("out.json"));
    }

    #[test]
    fn env_jobs_applies_and_flag_wins() {
        assert_eq!(parse("", Some("6")).unwrap().jobs, 6);
        assert_eq!(parse("--jobs 2", Some("6")).unwrap().jobs, 2);
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
        for bad in ["--points -1", "--scheme mercury"] {
            let (flag, value) = bad.split_once(' ').unwrap();
            let want = format!("invalid value for {flag}: `{value}`");
            assert_eq!(parse(bad, None).unwrap_err(), want);
        }
    }

    #[test]
    fn missing_values_and_unknown_flags_are_errors() {
        for flag in "--seed --points --ops --scheme --json --replay".split(' ') {
            assert!(parse(flag, None).unwrap_err().contains("requires a value"));
        }
        let err = parse("--frobnicate", None).unwrap_err();
        assert!(err.contains("unknown flag"), "{err}");
    }

    #[test]
    fn replay_specs_are_diagnosed_at_parse_time() {
        let args = parse("--replay scue:60:500000:torn_counter", None).unwrap();
        assert_eq!(args.replay.unwrap().0, SchemeKind::Scue);
        let err = parse("--replay scue:60:soon:torn_counter", None).unwrap_err();
        assert!(err.contains("`soon`"), "{err}");
    }
}
