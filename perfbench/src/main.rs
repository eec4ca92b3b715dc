//! Command line of the repository benchmark:
//!
//! ```text
//! scue-perfbench --workload <pmem-write|spec-read|crash-campaign>
//!                [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Prints the host context, the workload's simulated-statistics digest
//! and, as the last line, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics` (end-to-end with `--trace 0`, per-layer with
//! `--trace 1`). A run that finishes exits 0 and reports its verdict
//! in `correct`; bad arguments exit 2 without a result.

use scue_perfbench::{metrics, run, Bench, Options, DEFAULT_SEED};
use scue_util::obs::Json;
use std::process::ExitCode;
use std::time::Instant;

fn usage(msg: &str) -> ExitCode {
    eprintln!("scue-perfbench: {msg}");
    eprintln!(
        "usage: scue-perfbench --workload <pmem-write|spec-read|crash-campaign> \
         [--seed N] [--seconds S] [--trace 0|1]"
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Options, String> {
    let mut args = std::env::args().skip(1);
    let mut bench = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 40.0;
    let mut trace = false;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value:?}");
        match flag.as_str() {
            "--workload" => bench = Some(Bench::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if !(0.0..=600.0).contains(&seconds) {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let bench = bench.ok_or("--workload is required")?;
    Ok(Options::new(bench, seed, seconds, trace))
}

/// Host time of a fixed integer loop, in ms: recorded beside each run
/// so readers can see host drift; it normalises nothing.
fn calibration_ms() -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let start = Instant::now();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        for _ in 0..20_000_000u32 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        std::hint::black_box(x);
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    best
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(msg) => return usage(&msg),
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "host nproc={nproc} cpu={:?} calibration_ms={:.3}",
        cpu_model(),
        calibration_ms()
    );

    let report = run(&opts);

    println!(
        "workload={} seed={} trace={} passes={} cells_per_pass={} {}",
        opts.bench.name(),
        opts.seed,
        u8::from(opts.trace),
        report.passes,
        report.cells,
        report.summary
    );
    for problem in &report.problems {
        eprintln!("problem: {problem}");
    }
    let defs = if opts.trace {
        metrics::per_layer()
    } else {
        metrics::end_to_end()
    };
    let mut out = Json::obj();
    for def in defs {
        let value = report.metrics.get(&def.name).copied().unwrap_or_else(|| {
            panic!("metric {} was not computed", def.name);
        });
        out.set(
            &def.name,
            Json::obj()
                .with("value", Json::F64(value))
                .with("unit", Json::Str(def.unit.to_string())),
        );
    }
    let doc = Json::obj()
        .with("correct", Json::Bool(report.correct))
        .with("attempted", Json::U64(report.attempted))
        .with("failed", Json::U64(report.failed))
        .with("metrics", out);
    println!("{}", doc.render());
    ExitCode::SUCCESS
}
