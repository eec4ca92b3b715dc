//! The figure bins take `--jobs N` through `scue_util::cli` and keep
//! its usage-error contract: exit 2 before any sweep runs.

use std::process::Command;

#[test]
fn figure_bin_keeps_the_usage_error_contract() {
    let bin = env!("CARGO_BIN_EXE_fig09_write_latency");
    for (args, env_jobs, message) in [
        (&["--frobnicate"][..], None, "unknown flag `--frobnicate`"),
        (&["--jobs"], None, "--jobs requires a value"),
        (&["--jobs", "0"], None, "invalid value for --jobs: `0`"),
        (&[], Some("lots"), "invalid value for SCUE_JOBS: `lots`"),
        (
            &["--jobs", "2"],
            Some("lots"),
            "invalid value for SCUE_JOBS: `lots`",
        ),
    ] {
        let mut cmd = Command::new(bin);
        cmd.args(args).env_remove("SCUE_JOBS");
        if let Some(jobs) = env_jobs {
            cmd.env("SCUE_JOBS", jobs);
        }
        let out = cmd.output().expect("bin runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
        assert!(
            stderr.contains("usage: fig09_write_latency [--jobs N]"),
            "{stderr}"
        );
    }
}
