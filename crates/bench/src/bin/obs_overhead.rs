//! Observability overhead guard: holds the "cheap when off" contract
//! with measures that do not tighten as the engine gets faster.
//!
//! Three instrumentation layers ride the hot path, all compiled in and
//! all off by default: event-trace record sites, span-profiler enter
//! sites, and the counting global allocator's probes. Disabled, each
//! site costs one load and a branch. The guard checks two things, and
//! exits non-zero if either breaks:
//!
//! 1. **Sites per persist, exactly.** A fixed run of SCUE `small_test`
//!    persists is counted on an instrumented pass: trace events, span
//!    enters and allocation events. These counts are deterministic and
//!    host-independent, so they must equal the committed constants
//!    below. A new site on the persist path fails the guard until its
//!    constant is updated (and the change recorded in CHANGES.md).
//! 2. **Disabled cost per site, against a calibration.** Each disabled
//!    site is timed in a loop, and so is a calibration loop of the same
//!    shape (same black-boxed argument) whose site is a bare relaxed
//!    atomic load and a branch on a static. The site may cost at most
//!    [`MAX_SITE_RATIO`] times its calibration; more means the disabled
//!    path does work beyond its switch.
//!
//! The projected tax as a share of one measured persist is printed for
//! information only: it rises whenever the persist gets faster, so it
//! cannot gate anything without tightening with every speedup.
//!
//! The allocator probe's disabled branch cannot be timed in isolation
//! (the counting allocator is always installed), so its per-event cost
//! in the printed tax is the measured disabled span-enter cost (the
//! identical shape: one relaxed load, not-taken branch), applied to both
//! the alloc and the free probe of every allocation event.

use scue::{SchemeKind, SecureMemConfig, SecureMemory};
use scue_nvm::LineAddr;
use scue_util::bench::black_box;
use scue_util::obs::{alloc, span, EventKind, EventTrace};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Persists in the counted run.
const PERSISTS: u64 = 50_000;
/// Trace events the counted run records.
const EXPECTED_EVENTS: u64 = 428_395;
/// Span enters the counted run makes.
const EXPECTED_SPAN_ENTERS: u64 = 766_287;
/// Allocation events the counted run makes.
const EXPECTED_ALLOC_EVENTS: u64 = 31;

/// A disabled site may cost at most this multiple of its calibration
/// loop.
const MAX_SITE_RATIO: f64 = 1.5;
/// Iterations per timed loop, and timed loops per side.
const CALLS: u64 = 20_000_000;
const REPS: usize = 5;

/// The calibration's switch: never set, like a disabled layer's.
static CALIBRATION_ON: AtomicBool = AtomicBool::new(false);

/// The calibration's never-taken slow path.
#[cold]
#[inline(never)]
fn calibration_slow<T>(value: T) {
    black_box(value);
}

/// The probe event both record loops black-box per call.
fn probe_event(i: u64) -> EventKind {
    EventKind::PersistComplete {
        addr: i % 4096,
        latency: i,
    }
}

/// Nanoseconds per call of `site` and of `calibration`: [`REPS`] timed
/// loops of each, alternating so that a change of clock speed hits both
/// sides alike, and the fastest loop of each side counts.
fn time_against_calibration(
    mut site: impl FnMut(u64),
    mut calibration: impl FnMut(u64),
) -> (f64, f64) {
    fn time(body: &mut impl FnMut(u64)) -> f64 {
        let start = Instant::now();
        for i in 0..CALLS {
            body(i);
        }
        start.elapsed().as_nanos() as f64 / CALLS as f64
    }
    (0..REPS).fold(
        (f64::INFINITY, f64::INFINITY),
        |(site_ns, calibration_ns), _| {
            (
                site_ns.min(time(&mut site)),
                calibration_ns.min(time(&mut calibration)),
            )
        },
    )
}

fn fresh_engine() -> SecureMemory {
    SecureMemory::new(SecureMemConfig::small_test(SchemeKind::Scue))
}

/// Runs [`PERSISTS`] persist operations, returning the wall-clock
/// nanoseconds spent.
fn run_persists(mem: &mut SecureMemory) -> f64 {
    let mut now = 0;
    let start = Instant::now();
    for i in 0..PERSISTS {
        now = mem
            .persist_data(LineAddr::new((i * 97) % 4096), [i as u8; 64], now)
            .expect("clean persist run");
    }
    start.elapsed().as_nanos() as f64
}

fn main() {
    let mut failures = Vec::new();

    // 1. Disabled per-site cost, each against its calibration loop. A
    //    layer's switch lives in another crate, where any opaque code
    //    might set it; escaping the calibration switch keeps the
    //    compiler from proving it constant and hoisting its load.
    black_box(&CALIBRATION_ON);
    let mut trace = EventTrace::disabled();
    let (record_ns, record_calibration_ns) = time_against_calibration(
        |i| trace.record(i, black_box(probe_event(i))),
        |i| {
            let event = black_box(probe_event(i));
            if CALIBRATION_ON.load(Ordering::Relaxed) {
                calibration_slow((i, event));
            }
        },
    );
    assert_eq!(trace.recorded(), 0, "disabled trace must record nothing");

    assert!(!span::is_enabled(), "span profiling must default to off");
    let (enter_ns, enter_calibration_ns) = time_against_calibration(
        // The exact shape of a production site: enter with a live guard
        // dropped at scope end, nothing black-boxed in between.
        |_| {
            let _guard = span::enter(black_box("engine.request"));
        },
        |_| {
            let name = black_box("engine.request");
            if CALIBRATION_ON.load(Ordering::Relaxed) {
                calibration_slow(name);
            }
        },
    );
    assert!(
        span::take_thread_profile().is_empty(),
        "disabled spans must record nothing"
    );

    // 2. Sites per persist, counted on instrumented runs.
    let mut traced = fresh_engine();
    traced.enable_tracing(1 << 20);
    run_persists(&mut traced);
    let events = traced.trace().recorded();

    let mut counted = fresh_engine();
    span::set_enabled(true);
    span::reset_thread();
    alloc::set_enabled(true);
    alloc::reset_thread_counts();
    run_persists(&mut counted);
    alloc::set_enabled(false);
    span::set_enabled(false);
    let (allocs, _) = alloc::thread_counts();
    let span_enters: u64 = span::take_thread_profile()
        .iter()
        .map(|(_, _, s)| s.calls)
        .sum();

    // 3. Wall-clock cost of one persist with everything off (default),
    //    for the informational share only.
    let persist_ns = run_persists(&mut fresh_engine()) / PERSISTS as f64;

    let per_persist = |count: u64| count as f64 / PERSISTS as f64;
    let trace_tax = record_ns * per_persist(events);
    let span_tax = enter_ns * per_persist(span_enters);
    let alloc_tax = enter_ns * 2.0 * per_persist(allocs);
    let projected_ns = trace_tax + span_tax + alloc_tax;

    println!("observability overhead guard (tracing, spans, alloc counting all off)");
    println!("---------------------------------------------------------------------");
    println!("sites in {PERSISTS} SCUE persists (exact):");
    for (what, count, expected) in [
        ("trace events", events, EXPECTED_EVENTS),
        ("span enters", span_enters, EXPECTED_SPAN_ENTERS),
        ("alloc events", allocs, EXPECTED_ALLOC_EVENTS),
    ] {
        println!(
            "  {what:<13} {count:>9} ({:.1}/persist), committed {expected}",
            per_persist(count)
        );
        if count != expected {
            failures.push(format!(
                "{what} in {PERSISTS} persists: {count}, committed {expected} \
                 (update the constant in obs_overhead.rs and record why in CHANGES.md)"
            ));
        }
    }
    println!("disabled cost per site (fastest of {REPS} loops of {CALLS} calls):");
    for (what, site_ns, calibration_ns) in [
        ("record call", record_ns, record_calibration_ns),
        ("span enter", enter_ns, enter_calibration_ns),
    ] {
        let ratio = site_ns / calibration_ns;
        println!(
            "  {what:<13} {site_ns:.3} ns, calibration {calibration_ns:.3} ns, \
             ratio {ratio:.2} (max {MAX_SITE_RATIO})"
        );
        if ratio > MAX_SITE_RATIO {
            failures.push(format!(
                "disabled {what} costs {ratio:.2}x a bare relaxed load and branch \
                 (max {MAX_SITE_RATIO}x)"
            ));
        }
    }
    println!(
        "projected off tax:       {projected_ns:.2} ns = trace {trace_tax:.2} + spans \
         {span_tax:.2} + alloc {alloc_tax:.2}; {:.3}% of a {persist_ns:.1} ns persist \
         (information only)",
        projected_ns / persist_ns * 100.0
    );

    if !failures.is_empty() {
        for failure in &failures {
            eprintln!("FAIL: {failure}");
        }
        std::process::exit(1);
    }
    println!("OK: site counts exact, disabled sites within {MAX_SITE_RATIO}x calibration");
}
