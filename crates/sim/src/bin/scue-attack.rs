//! Seeded attack-campaign runner.
//!
//! Injects replay / rollback / splice / dummy-counter tampering into a
//! running [`scue::SecureMemory`] at sampled op indices across the full
//! scheme zoo, drives each machine to its first integrity error, and
//! reports per-scheme detection-latency histograms plus the audited
//! fate of every case. The attack [`scue_sim::attack::oracle`] holds
//! secure schemes to "no effective tamper survives undetected" and
//! Baseline to "no detection ever" — silent corruption on Baseline is
//! the *expected*, asserted outcome.
//!
//! ```text
//! usage: scue-attack [--seed N] [--points N] [--ops N] [--drive N]
//!                    [--scheme baseline|plp|lazy|eager|bmf|scue|phoenix|triad1|triad2|zuo|freij]
//!                    [--json PATH] [--jobs N]
//!                    [--replay scheme:attack:ops:inject_at]
//! ```
//!
//! `--jobs` (default: available parallelism, overridable via the
//! `SCUE_JOBS` environment variable) fans the campaign's attack cases
//! out over worker threads. The campaign report — and the `--json`
//! payload — is byte-identical at any job count; only the trailing
//! `provenance` object (job count, wall-clock) varies.
//!
//! Exits 0 on a clean campaign, 1 on oracle violations (or a violating
//! replay), 2 on usage errors.

use scue::SchemeKind;
use scue_sim::attack::{self, AttackConfig, AttackSpec};
use scue_util::cli::{self, Cli};
use std::process::ExitCode;

const BIN: &str = "scue-attack";

#[derive(Debug)]
struct Args {
    cfg: AttackConfig,
    points: usize,
    schemes: Vec<SchemeKind>,
    json_path: Option<String>,
    replay: Option<(SchemeKind, AttackSpec)>,
    jobs: usize,
}

/// Parses the command line against an explicit `SCUE_JOBS` value.
fn parse_args_from(argv: Vec<String>, env_jobs: Option<&str>) -> Result<Args, cli::Error> {
    let mut args = Args {
        cfg: AttackConfig::default(),
        points: 20,
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
        .value("--drive", "N", |v| args.cfg.drive_ops = v)
        .value("--scheme", SchemeKind::token_choices(), |v| {
            args.schemes = vec![v]
        })
        .value("--json", "PATH", |v| args.json_path = Some(v))
        .jobs(&mut args.jobs)
        .value("--replay", "scheme:attack:ops:inject_at", |v: String| {
            replay = Some(v)
        })
        .parse(argv, env_jobs)?;
    args.replay = replay
        .map(|spec| AttackSpec::diagnose_replay(&spec))
        .transpose()
        .map_err(|why| usage.error(why))?;
    Ok(args)
}

/// Re-runs one attack case and reports the oracle's verdict.
fn replay(scheme: SchemeKind, case: AttackSpec, cfg: &AttackConfig) -> ExitCode {
    let result = attack::run_attack_case(scheme, cfg, case);
    println!(
        "replay {scheme} attack={} ops={} inject_at={}: {} (mutated={}{})",
        case.attack.name(),
        case.ops,
        case.inject_at,
        result.class.name(),
        result.mutated,
        match result.latency {
            Some(l) => format!(", latency={l}"),
            None => String::new(),
        },
    );
    if !result.detail.is_empty() {
        println!("  detail: {}", result.detail);
    }
    match attack::oracle(scheme, case, &result) {
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
    let report = attack::campaign_with_jobs(&args.cfg, args.points, &args.schemes, args.jobs);
    let wall_ms = started.elapsed().as_millis() as u64;
    for tally in &report.tallies {
        let outcomes: Vec<String> = tally
            .outcomes
            .iter()
            .map(|(class, n)| format!("{}={n}", class.name()))
            .collect();
        let latency = if tally.latency.is_empty() {
            "latency=none".to_string()
        } else {
            format!(
                "latency(n={} mean={:.1} max={})",
                tally.latency.count(),
                tally.latency.mean(),
                tally.latency.max(),
            )
        };
        println!(
            "{:<10} cases={} mutated={} violations={} {} [{}]",
            tally.scheme.to_string(),
            tally.cases,
            tally.mutated,
            tally.violations,
            latency,
            outcomes.join(" "),
        );
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
    use scue_sim::attack::AttackKind;

    fn parse(line: &str, env_jobs: Option<&str>) -> Result<Args, String> {
        let argv = line.split_whitespace().map(String::from).collect();
        parse_args_from(argv, env_jobs).map_err(|e| e.to_string())
    }

    #[test]
    fn defaults_parse_clean() {
        let args = parse("", None).unwrap();
        assert_eq!((args.points, args.schemes), (20, SchemeKind::ALL.to_vec()));
        assert!(args.jobs >= 1);
    }

    #[test]
    fn full_flag_set_parses() {
        let args = parse(
            "--seed 9 --points 8 --ops 64 --drive 80 --scheme phoenix --jobs 4 --json out.json",
            None,
        )
        .unwrap();
        assert_eq!((args.cfg.seed, args.points, args.cfg.ops), (9, 8, 64));
        assert_eq!(args.cfg.drive_ops, 80);
        assert_eq!((args.schemes, args.jobs), (vec![SchemeKind::Phoenix], 4));
        assert_eq!(args.json_path.as_deref(), Some("out.json"));
    }

    #[test]
    fn replay_specs_parse_through_the_flag() {
        let (scheme, spec) = parse("--replay scue:splice:48:17", None)
            .unwrap()
            .replay
            .unwrap();
        assert_eq!(
            (scheme, spec.attack),
            (SchemeKind::Scue, AttackKind::Splice)
        );
        assert_eq!((spec.ops, spec.inject_at), (48, 17));
        let err = parse("--replay scue:splice:48", None).unwrap_err();
        assert!(err.contains("inject_at"), "{err}");
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
        for bad in ["--drive soon", "--scheme mercury"] {
            let (flag, value) = bad.split_once(' ').unwrap();
            let want = format!("invalid value for {flag}: `{value}`");
            assert_eq!(parse(bad, None).unwrap_err(), want);
        }
    }

    #[test]
    fn missing_values_and_unknown_flags_are_errors() {
        for flag in "--seed --points --ops --drive --scheme --json --replay".split(' ') {
            assert!(parse(flag, None).unwrap_err().contains("requires a value"));
        }
        let err = parse("--frobnicate", None).unwrap_err();
        assert!(err.contains("unknown flag"), "{err}");
    }
}
