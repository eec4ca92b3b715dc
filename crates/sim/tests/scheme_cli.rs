//! Every campaign bin parses `--scheme` through the scheme descriptor:
//! a bad value is a usage error (exit 2) naming the flag and value, and
//! the usage text lists every scheme token.

use scue::SchemeKind;
use std::process::Command;

const BINS: [&str; 6] = [
    env!("CARGO_BIN_EXE_scue-torture"),
    env!("CARGO_BIN_EXE_scue-simulate"),
    env!("CARGO_BIN_EXE_scue-mc"),
    env!("CARGO_BIN_EXE_scue-attack"),
    env!("CARGO_BIN_EXE_scue-profile"),
    env!("CARGO_BIN_EXE_scue-crashtest"),
];

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
