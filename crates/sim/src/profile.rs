//! Self-profiling harness: seeded per-scheme workloads under the
//! `scue_util::obs::span` profiler, exported as a versioned
//! `kind:"scue-profile"` JSON document and a Chrome trace-event file.
//!
//! Each scheme runs as one `scue_util::par` cell: the cell resets its
//! thread's span/allocation state, wraps the whole workload in a
//! `profile.run` root span, drives the engine through a persist loop, a
//! read loop, a crash and a recovery, then takes the thread's
//! [`SpanProfile`] and raw span events. Collection is index-ordered and
//! every cell is a pure function of its scheme, so with the virtual
//! span clock (`--clock virtual`) the document is byte-identical at any
//! `--jobs` count — which is what lets `scripts/verify.sh` diff the
//! jobs-1 and jobs-4 runs and pin a golden in `tests/par_determinism.rs`.
//!
//! The **coverage** number reported per scheme is the fraction of the
//! root span's time attributed to its direct children (`profile.setup`,
//! `engine.request`, `profile.crash`, `engine.recover`): how much of
//! the harness wall time the named instrumentation explains. It is only
//! meaningful on the monotonic clock — the virtual clock advances one
//! tick per span boundary, so uninstrumented code is invisible to it —
//! and `scue-check-metrics` therefore enforces the ≥90% floor only on
//! `"clock":"monotonic"` documents.

use scue::{SchemeKind, SecureMemConfig, SecureMemory};
use scue_nvm::LineAddr;
use scue_util::obs::span::{self, SpanEvent, SpanProfile};
use scue_util::obs::{alloc, Json, TraceEvent};
use scue_util::par;

/// `kind` tag of the profile document.
pub const PROFILE_DOC_KIND: &str = "scue-profile";
/// Schema version of the profile document.
pub const PROFILE_SCHEMA_VERSION: u64 = 1;
/// Engine event-trace ring capacity used per scheme cell.
pub const PROFILE_TRACE_CAPACITY: usize = 4096;
/// The root span every cell wraps its workload in.
pub const ROOT_SPAN: &str = "profile.run";

/// Profiling-run parameters.
#[derive(Debug, Clone)]
pub struct ProfileConfig {
    /// Schemes to profile, one cell each.
    pub schemes: Vec<SchemeKind>,
    /// Persist operations per scheme (the read loop replays the same
    /// addresses).
    pub ops: u64,
    /// Workload seed (stride salt for the address pattern).
    pub seed: u64,
    /// Span clock: `Virtual` for deterministic documents, `Monotonic`
    /// for real nanoseconds.
    pub clock: span::Clock,
}

impl Default for ProfileConfig {
    fn default() -> Self {
        Self {
            schemes: SchemeKind::ALL.to_vec(),
            ops: 300,
            seed: 7,
            clock: span::Clock::Virtual,
        }
    }
}

/// One scheme cell's complete profiling result.
#[derive(Debug, Clone)]
pub struct SchemeProfile {
    /// The scheme this cell ran.
    pub scheme: SchemeKind,
    /// Aggregated span statistics for the cell's thread.
    pub profile: SpanProfile,
    /// Raw span intervals (the Chrome trace export's input).
    pub events: Vec<SpanEvent>,
    /// Heap allocations attributed to the cell's thread.
    pub thread_allocs: u64,
    /// Bytes of those allocations.
    pub thread_bytes: u64,
    /// Engine event-trace events captured during the run.
    pub trace_events: Vec<TraceEvent>,
    /// Total events the engine trace recorded.
    pub trace_recorded: u64,
    /// Events the bounded engine trace dropped.
    pub trace_dropped: u64,
    /// Whether recovery succeeded (Lazy/Eager legitimately fail with
    /// root crash inconsistency — the paper's §III-B point).
    pub recovered: bool,
}

impl SchemeProfile {
    /// Root-span coverage: fraction of `profile.run` time attributed to
    /// its direct children, as a percentage.
    pub fn coverage_pct(&self) -> f64 {
        self.profile.coverage_under(ROOT_SPAN).unwrap_or(0.0) * 100.0
    }
}

/// The address a workload op touches: a fixed seeded stride over the
/// 4096-line protected region of the `small_test` geometry.
fn op_addr(seed: u64, i: u64) -> LineAddr {
    LineAddr::new((i.wrapping_mul(97).wrapping_add(seed.wrapping_mul(13))) % 4096)
}

/// Runs one scheme's workload on the calling thread and returns its
/// profile. The caller is responsible for the process-wide switches
/// (span/alloc enable, clock) — see [`run`].
fn profile_scheme(cfg: &ProfileConfig, scheme: SchemeKind) -> SchemeProfile {
    span::reset_thread();
    alloc::reset_thread_counts();
    span::record_events(true);

    let root = span::enter(ROOT_SPAN);
    let setup = span::enter("profile.setup");
    let mut mem = SecureMemory::new(SecureMemConfig::small_test(scheme));
    mem.enable_tracing(PROFILE_TRACE_CAPACITY);
    drop(setup);

    let mut now = 0;
    for i in 0..cfg.ops {
        now = mem
            .persist_data(op_addr(cfg.seed, i), [(i % 251) as u8 + 1; 64], now)
            .expect("persist in profiling workload");
    }
    for i in 0..cfg.ops {
        let (_, done) = mem
            .read_data(op_addr(cfg.seed, i), now)
            .expect("read in profiling workload");
        now = done;
    }
    {
        let _crash = span::enter("profile.crash");
        mem.crash(now);
    }
    let recovered = mem.recover().outcome.is_success();
    drop(root);

    span::record_events(false);
    // Thread counters first: taking the profile/events allocates on
    // this thread (unpaused) and must not leak into the cell's totals.
    let (thread_allocs, thread_bytes) = alloc::thread_counts();
    let profile = span::take_thread_profile();
    let events = span::take_thread_events();
    SchemeProfile {
        scheme,
        profile,
        events,
        thread_allocs,
        thread_bytes,
        trace_events: mem.trace().events().copied().collect(),
        trace_recorded: mem.trace().recorded(),
        trace_dropped: mem.trace().dropped(),
        recovered,
    }
}

/// Profiles every configured scheme on up to `jobs` worker threads.
///
/// Flips the process-wide span/allocator switches on for the duration;
/// results come back in scheme order regardless of scheduling. Runs in
/// one process take turns, so one run's switch-off cannot cut another
/// short.
pub fn run(cfg: &ProfileConfig, jobs: usize) -> Vec<SchemeProfile> {
    static SPAN_SWITCH: std::sync::Mutex<()> = std::sync::Mutex::new(());
    // The gate guards no data, so a run that panicked leaves nothing
    // to repair.
    let _turn = SPAN_SWITCH
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    span::set_clock(cfg.clock);
    span::set_enabled(true);
    let results = alloc::with_switch(true, || {
        par::run_indexed(jobs, &cfg.schemes, |_, &scheme, _| {
            profile_scheme(cfg, scheme)
        })
    });
    span::set_enabled(false);
    span::reset_thread();
    results
}

/// Merges every cell's profile into one aggregate (the
/// `SpanProfile::merge` fan-in; order-independent by construction).
pub fn aggregate(results: &[SchemeProfile]) -> SpanProfile {
    let mut merged = SpanProfile::new();
    for r in results {
        merged.merge(&r.profile);
    }
    merged
}

/// The versioned `kind:"scue-profile"` document.
pub fn to_doc(cfg: &ProfileConfig, results: &[SchemeProfile]) -> Json {
    let schemes = results
        .iter()
        .map(|r| {
            Json::obj()
                .with("scheme", Json::Str(r.scheme.name().into()))
                .with("coverage_pct", Json::F64(r.coverage_pct()))
                .with("recovered", Json::Bool(r.recovered))
                .with(
                    "alloc",
                    Json::obj()
                        .with("allocs", Json::U64(r.thread_allocs))
                        .with("bytes", Json::U64(r.thread_bytes)),
                )
                .with(
                    "trace",
                    Json::obj()
                        .with("recorded", Json::U64(r.trace_recorded))
                        .with("dropped_events", Json::U64(r.trace_dropped)),
                )
                .with("spans", r.profile.to_json())
        })
        .collect();
    Json::obj()
        .with("schema_version", Json::U64(PROFILE_SCHEMA_VERSION))
        .with("kind", Json::Str(PROFILE_DOC_KIND.into()))
        .with("clock", Json::Str(cfg.clock.name().into()))
        .with("ops", Json::U64(cfg.ops))
        .with("seed", Json::U64(cfg.seed))
        .with("schemes", Json::Arr(schemes))
        .with("aggregate_spans", aggregate(results).to_json())
}

/// The Chrome trace-event (Perfetto-loadable) document: span intervals
/// as `"ph":"X"` complete events and engine-trace events as `"ph":"i"`
/// instants, one pid per scheme.
///
/// Timestamps are microseconds by the format's convention; span times
/// (ns or virtual ticks) are scaled by 1/1000 and engine-trace cycles
/// are exported 1 cycle = 1 µs (a visual aid, not a unit claim).
pub fn to_chrome_trace(cfg: &ProfileConfig, results: &[SchemeProfile]) -> Json {
    let mut events: Vec<Json> = Vec::new();
    for (pid, r) in results.iter().enumerate() {
        let pid = pid as u64;
        events.push(
            Json::obj()
                .with("name", Json::Str("process_name".into()))
                .with("ph", Json::Str("M".into()))
                .with("pid", Json::U64(pid))
                .with(
                    "args",
                    Json::obj().with("name", Json::Str(r.scheme.name().into())),
                ),
        );
        for e in &r.events {
            events.push(
                Json::obj()
                    .with("name", Json::Str(e.name.into()))
                    .with("cat", Json::Str("span".into()))
                    .with("ph", Json::Str("X".into()))
                    .with("ts", Json::F64(e.start_ns as f64 / 1000.0))
                    .with(
                        "dur",
                        Json::F64(e.end_ns.saturating_sub(e.start_ns) as f64 / 1000.0),
                    )
                    .with("pid", Json::U64(pid))
                    .with("tid", Json::U64(1)),
            );
        }
        for t in &r.trace_events {
            events.push(
                Json::obj()
                    .with("name", Json::Str(t.kind.name().into()))
                    .with("cat", Json::Str("engine-trace".into()))
                    .with("ph", Json::Str("i".into()))
                    .with("ts", Json::U64(t.cycle))
                    .with("pid", Json::U64(pid))
                    .with("tid", Json::U64(2))
                    .with("s", Json::Str("t".into())),
            );
        }
    }
    Json::obj()
        .with("traceEvents", Json::Arr(events))
        .with(
            "otherData",
            Json::obj()
                .with("kind", Json::Str("scue-chrome-trace".into()))
                .with("schema_version", Json::U64(PROFILE_SCHEMA_VERSION))
                .with("clock", Json::Str(cfg.clock.name().into())),
        )
        .with("displayTimeUnit", Json::Str("ns".into()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg(clock: span::Clock) -> ProfileConfig {
        ProfileConfig {
            schemes: vec![SchemeKind::Scue, SchemeKind::Baseline],
            ops: 40,
            seed: 7,
            clock,
        }
    }

    #[test]
    fn virtual_clock_profiles_are_deterministic_across_jobs() {
        let cfg = small_cfg(span::Clock::Virtual);
        let doc1 = to_doc(&cfg, &run(&cfg, 1)).render();
        let doc2 = to_doc(&cfg, &run(&cfg, 2)).render();
        assert_eq!(doc1, doc2);
    }

    #[test]
    fn every_named_span_appears_for_scue() {
        let cfg = small_cfg(span::Clock::Virtual);
        let results = run(&cfg, 1);
        let scue = &results[0];
        let names: Vec<&str> = scue.profile.iter().map(|(_, n, _)| n).collect();
        for expected in [
            "engine.request",
            "itree.walk",
            "mdcache.lookup",
            "hmac.compute",
            "codec.encode",
            "codec.decode",
            "wpq.persist",
            "engine.recover",
            "recovery.scan",
            "recovery.sum",
            "recovery.rehash",
        ] {
            assert!(names.contains(&expected), "missing span {expected}");
        }
        assert!(scue.recovered, "SCUE recovers cleanly");
    }

    #[test]
    fn monotonic_coverage_is_high() {
        let cfg = small_cfg(span::Clock::Monotonic);
        let results = run(&cfg, 1);
        for r in &results {
            assert!(
                r.coverage_pct() > 90.0,
                "{}: coverage {:.1}% below floor",
                r.scheme.name(),
                r.coverage_pct()
            );
        }
    }

    #[test]
    fn docs_parse_back() {
        let cfg = small_cfg(span::Clock::Virtual);
        let results = run(&cfg, 1);
        assert!(Json::parse(&to_doc(&cfg, &results).render()).is_ok());
        let chrome = to_chrome_trace(&cfg, &results).render();
        let parsed = Json::parse(&chrome).unwrap();
        assert!(!parsed
            .get("traceEvents")
            .and_then(Json::as_arr)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn allocations_are_attributed() {
        let cfg = small_cfg(span::Clock::Virtual);
        let results = run(&cfg, 1);
        let scue = &results[0];
        assert!(scue.thread_allocs > 0, "the cell allocates");
        let attributed: u64 = scue.profile.iter().map(|(_, _, s)| s.allocs).sum();
        assert!(attributed > 0, "some allocations land in spans");
        assert!(attributed <= scue.thread_allocs);
    }
}
