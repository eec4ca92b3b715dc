//! Every campaign bin parses its command line through `scue_util::cli`:
//! a bad value is a usage error (exit 2) naming the flag and value, and
//! the usage text lists every scheme token.

use scue::SchemeKind;
use std::process::{Command, Output};

const BINS: [&str; 6] = [
    env!("CARGO_BIN_EXE_scue-torture"),
    env!("CARGO_BIN_EXE_scue-simulate"),
    env!("CARGO_BIN_EXE_scue-mc"),
    env!("CARGO_BIN_EXE_scue-attack"),
    env!("CARGO_BIN_EXE_scue-profile"),
    env!("CARGO_BIN_EXE_scue-crashtest"),
];

fn run(bin: &str, args: &[&str], env_jobs: Option<&str>) -> Output {
    let mut cmd = Command::new(bin);
    cmd.args(args).env_remove("SCUE_JOBS");
    if let Some(jobs) = env_jobs {
        cmd.env("SCUE_JOBS", jobs);
    }
    cmd.output().expect("bin runs")
}

#[test]
fn every_bin_rejects_an_unknown_scheme_with_exit_2() {
    for bin in BINS {
        let out = Command::new(bin)
            .args(["--scheme", "nope"])
            .output()
            .expect("bin runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin}: {stderr}");
        assert!(
            stderr.contains("invalid value for --scheme: `nope`"),
            "{bin}: {stderr}"
        );
        assert!(
            stderr.contains(&SchemeKind::token_choices()),
            "{bin} usage must list every scheme: {stderr}"
        );
    }
}

#[test]
fn every_bin_keeps_the_usage_error_contract() {
    for bin in BINS {
        for (args, env_jobs, message) in [
            (&["--frobnicate"][..], None, "unknown flag `--frobnicate`"),
            (&["--seed"], None, "--seed requires a value"),
            (&["--jobs", "0"], None, "invalid value for --jobs: `0`"),
            (&[], Some("lots"), "invalid value for SCUE_JOBS: `lots`"),
            (&["--jobs", "2"], Some("lots"), "SCUE_JOBS: `lots`"),
        ] {
            let out = run(bin, args, env_jobs);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
            assert!(stderr.contains(message), "{bin} {args:?}: {stderr}");
            assert!(stderr.contains("usage: "), "{bin} {args:?}: {stderr}");
        }
    }
}

#[test]
fn every_bin_accepts_every_scheme_token() {
    // A trailing unknown flag stops the bin before it runs anything, so
    // the error it reports shows how far parsing got.
    for bin in BINS {
        for scheme in SchemeKind::ALL {
            let out = run(bin, &["--scheme", scheme.token(), "--frobnicate"], None);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{bin} {scheme}: {stderr}");
            assert!(
                stderr.contains("unknown flag `--frobnicate`"),
                "{bin} must accept --scheme {}: {stderr}",
                scheme.token()
            );
        }
    }
}
