//! `scue-simulate` — run any workload under any scheme from the command
//! line, with optional crash/recovery, multi-core fan-out and
//! machine-readable metrics export.
//!
//! ```text
//! usage: scue-simulate [--scheme baseline|plp|lazy|eager|bmf|scue|phoenix|triad1|triad2|zuo|freij]
//!                      [--workload array|btree|hash|queue|rbtree|lbm|mcf|libquantum|omnetpp|milc|soplex|gcc|bwaves]
//!                      [--ops N] [--seed N] [--hash-latency CYC] [--cores N]
//!                      [--crash-at CYCLE] [--eadr] [--jobs N]
//!                      [--metrics-json PATH] [--trace-events PATH]
//!                      [--sample-interval CYCLES]
//! ```
//!
//! `--jobs` (default: available parallelism, `SCUE_JOBS` overridable)
//! fans per-core trace generation out over worker threads; each core's
//! trace is a pure function of `seed + core`, so the run is
//! byte-identical at any job count.
//!
//! `--crash-at` replays core 0's trace up to the crash cycle, so it
//! runs with one core only: combined with `--cores N > 1` it is a usage
//! error.

use scue::{CrashError, SchemeKind, SecureMemConfig};
use scue_sim::{ReportConfig, RunReport, System, SystemConfig};
use scue_util::cli::{self, Cli};
use scue_util::par;
use scue_workloads::{Trace, Workload};
use std::num::{NonZeroU64, NonZeroUsize};

const BIN: &str = "scue-simulate";

/// Default epoch length when sampling is on but no interval was given.
const DEFAULT_SAMPLE_INTERVAL: u64 = 10_000;

/// Event ring-buffer capacity when `--trace-events` is set.
const TRACE_CAPACITY: usize = 1 << 16;

#[derive(Debug)]
struct Args {
    scheme: SchemeKind,
    workload: Workload,
    ops: usize,
    seed: u64,
    hash_latency: u64,
    cores: usize,
    crash_at: Option<u64>,
    eadr: bool,
    jobs: usize,
    metrics_json: Option<String>,
    trace_events: Option<String>,
    sample_interval: Option<u64>,
}

/// Parses the command line against an explicit `SCUE_JOBS` value.
fn parse_args_from(argv: Vec<String>, env_jobs: Option<&str>) -> Result<Args, cli::Error> {
    let mut args = Args {
        scheme: SchemeKind::Scue,
        workload: Workload::Btree,
        ops: 20_000,
        seed: 1,
        hash_latency: 40,
        cores: 1,
        crash_at: None,
        eadr: false,
        jobs: 0,
        metrics_json: None,
        trace_events: None,
        sample_interval: None,
    };
    let workloads = Workload::ALL.map(Workload::name).join("|");
    let usage = Cli::new(BIN)
        .value("--scheme", SchemeKind::token_choices(), |v| args.scheme = v)
        .value("--workload", workloads, |v| args.workload = v)
        .value("--ops", "N", |v| args.ops = v)
        .value("--seed", "N", |v| args.seed = v)
        .value("--hash-latency", "CYC", |v: NonZeroU64| {
            args.hash_latency = v.get()
        })
        .value("--cores", "N", |v: NonZeroUsize| args.cores = v.get())
        .value("--crash-at", "CYCLE", |v| args.crash_at = Some(v))
        .switch("--eadr", || args.eadr = true)
        .jobs(&mut args.jobs)
        .value("--metrics-json", "PATH", |v| args.metrics_json = Some(v))
        .value("--trace-events", "PATH", |v| args.trace_events = Some(v))
        .value("--sample-interval", "CYCLES", |v: NonZeroU64| {
            args.sample_interval = Some(v.get())
        })
        .parse(argv, env_jobs)?;
    // A crash run replays core 0's trace only (`System::run_until`).
    if args.crash_at.is_some() && args.cores > 1 {
        return Err(usage.error(format!(
            "--crash-at runs one core; it cannot be combined with --cores {}",
            args.cores
        )));
    }
    Ok(args)
}

/// Reports a mid-run engine failure — detected tampering, cache
/// exhaustion — naming the scheme, address and cycle, then exits 1.
fn die_on_error(scheme: SchemeKind, cycle: u64, err: CrashError) -> ! {
    eprintln!("scue-simulate: {scheme} stopped at cycle {cycle}: {err}");
    if let Some(integrity) = err.as_integrity() {
        eprintln!("scue-simulate: verification failed for {}", integrity.addr);
    }
    std::process::exit(1);
}

fn write_file(path: &str, contents: &str) {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("error: cannot write {path}: {e}");
        std::process::exit(1);
    }
}

/// Emits the metrics JSON and/or event-trace JSON files, as requested.
fn export(args: &Args, system: &System, report: &RunReport) {
    if let Some(path) = &args.metrics_json {
        write_file(path, &report.render());
        println!("metrics json:      {path}");
    }
    if let Some(path) = &args.trace_events {
        write_file(path, &system.engine().trace().to_json().render_doc());
        let dropped = system.engine().trace().dropped();
        println!(
            "event trace:       {path} ({} recorded, {dropped} dropped_events)",
            system.engine().trace().recorded(),
        );
        if dropped > 0 {
            eprintln!(
                "scue-simulate: warning: event ring overflowed; {dropped} oldest \
                 events were dropped (re-run with a shorter window or raise the \
                 trace capacity)"
            );
        }
    }
}

fn main() {
    let args = cli::parse_or_exit(parse_args_from);
    let jobs = args.jobs;
    let mem = SecureMemConfig::paper(args.scheme)
        .with_hash_latency(args.hash_latency)
        .with_eadr(args.eadr);
    let cfg = SystemConfig {
        mem,
        ..SystemConfig::paper(args.scheme)
    }
    .with_cores(args.cores);
    let mut system = System::new(cfg);
    if let Some(interval) = args
        .sample_interval
        .or(args.metrics_json.as_ref().map(|_| DEFAULT_SAMPLE_INTERVAL))
    {
        system.set_sample_interval(interval);
    }
    if args.trace_events.is_some() {
        system.enable_tracing(TRACE_CAPACITY);
    }
    let report_config = ReportConfig {
        scheme: args.scheme,
        workload: args.workload,
        ops: args.ops as u64,
        seed: args.seed,
        cores: args.cores as u64,
        hash_latency: args.hash_latency,
        eadr: args.eadr,
        jobs: jobs as u64,
    };

    println!(
        "scheme {} | workload {} | {} ops x {} core(s) | hash {} cyc | eadr {}",
        args.scheme, args.workload, args.ops, args.cores, args.hash_latency, args.eadr
    );

    if let Some(stop) = args.crash_at {
        let trace = args.workload.generate(args.ops, args.seed);
        let consumed = match system.run_until(&trace, stop) {
            Ok(consumed) => consumed,
            Err(e) => die_on_error(args.scheme, system.now(), e),
        };
        println!("crash at cycle {} after {consumed} ops", system.now());
        system.crash();
        let recovery = system.engine_mut().recover();
        println!(
            "recovery: {:?} ({} leaves, {} fetches, {:.3} ms modelled)",
            recovery.outcome,
            recovery.leaves_checked,
            recovery.metadata_fetches,
            recovery.modelled_ns as f64 / 1e6
        );
        let phases = recovery.phases;
        println!(
            "  phases: scan {} / counter-summing {} / re-hash {} fetches",
            phases.scan_fetches, phases.summing_fetches, phases.rehash_fetches
        );
        let report = RunReport {
            config: report_config,
            result: system.snapshot(consumed as u64),
            recovery: Some(recovery),
        };
        export(&args, &system, &report);
        std::process::exit(if recovery.outcome.is_success() { 0 } else { 1 });
    }

    let cores: Vec<usize> = (0..args.cores).collect();
    let traces: Vec<Trace> = par::run_indexed(jobs, &cores, |_, &i, _| {
        args.workload.generate(args.ops, args.seed + i as u64)
    });
    let result = match system.run_traces(&traces) {
        Ok(result) => result,
        Err(e) => die_on_error(args.scheme, system.now(), e),
    };
    println!("cycles:            {}", result.cycles);
    println!("ops replayed:      {}", result.ops);
    println!("persists:          {}", result.engine.persists);
    let wl = &result.engine.write_latency;
    println!(
        "write lat:         mean {:.1} / p50 {} / p95 {} / p99 {} / max {} cyc",
        wl.mean(),
        wl.p50(),
        wl.p95(),
        wl.p99(),
        wl.max()
    );
    let rl = &result.engine.read_latency;
    println!(
        "read lat:          mean {:.1} / p50 {} / p95 {} / p99 {} cyc",
        rl.mean(),
        rl.p50(),
        rl.p95(),
        rl.p99()
    );
    println!(
        "memory accesses:   {} user ({} r / {} w), {} metadata ({} r / {} w)",
        result.engine.mem.user_reads + result.engine.mem.user_writes,
        result.engine.mem.user_reads,
        result.engine.mem.user_writes,
        result.engine.mem.metadata_total(),
        result.engine.mem.meta_reads,
        result.engine.mem.meta_writes
    );
    println!("hmacs computed:    {}", result.engine.hashes);
    println!(
        "mdcache:           {} hits / {} misses / {} fills ({:.1}% hit rate)",
        result.engine.mdcache.hits,
        result.engine.mdcache.misses,
        result.engine.mdcache.fills,
        result.engine.mdcache.hit_rate() * 100.0
    );
    println!("counter overflows: {}", result.engine.overflows);
    let report = RunReport {
        config: report_config,
        result,
        recovery: None,
    };
    export(&args, &system, &report);
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
        assert_eq!(
            (args.scheme, args.ops, args.crash_at),
            (SchemeKind::Scue, 20_000, None)
        );
    }

    #[test]
    fn full_flag_set_parses() {
        let args = parse(
            "--scheme plp --workload queue --ops 500 --seed 9 --hash-latency 80 --cores 1 \
             --crash-at 12345 --eadr --sample-interval 1000 --jobs 3 \
             --metrics-json m.json --trace-events e.json",
        )
        .unwrap();
        assert_eq!(
            (args.scheme, args.workload),
            (SchemeKind::Plp, Workload::Queue)
        );
        assert_eq!((args.ops, args.seed, args.hash_latency), (500, 9, 80));
        assert_eq!(
            (args.cores, args.crash_at, args.eadr),
            (1, Some(12345), true)
        );
        assert_eq!((args.sample_interval, args.jobs), (Some(1000), 3));
        assert_eq!(args.metrics_json.as_deref(), Some("m.json"));
        assert_eq!(args.trace_events.as_deref(), Some("e.json"));
    }

    #[test]
    fn jobs_defaults_to_unset_so_env_and_parallelism_apply() {
        assert_eq!(parse("").unwrap().jobs, par::available_jobs());
    }

    #[test]
    fn scheme_flag_takes_every_token_and_alias() {
        for scheme in SchemeKind::ALL {
            for spelling in [scheme.token(), scheme.name()] {
                let args = parse(&format!("--scheme {spelling}")).unwrap();
                assert_eq!(args.scheme, scheme);
            }
        }
    }

    #[test]
    fn bad_values_name_the_flag_and_value() {
        for bad in [
            "--workload nope",
            "--sample-interval 0",
            "--cores 0",
            "--hash-latency 0",
        ] {
            let (flag, value) = bad.split_once(' ').unwrap();
            let want = format!("invalid value for {flag}: `{value}`");
            assert_eq!(parse(bad).unwrap_err(), want);
        }
        // A crash run replays core 0 only.
        let err = parse("--crash-at 5000 --cores 2").unwrap_err();
        assert!(
            err.contains("--crash-at") && err.contains("--cores 2"),
            "{err}"
        );
    }

    #[test]
    fn missing_values_and_unknown_flags_are_errors() {
        let flags = "--scheme --workload --ops --seed --hash-latency \
                     --cores --crash-at --metrics-json --trace-events --sample-interval";
        for flag in flags.split_whitespace() {
            assert!(parse(flag).unwrap_err().contains("requires a value"));
        }
        assert!(parse("--frobnicate").unwrap_err().contains("unknown flag"));
    }
}
