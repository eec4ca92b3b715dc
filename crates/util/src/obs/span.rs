//! Hierarchical span self-profiler: RAII guards on a thread-local span
//! stack, aggregated into per-(parent, name) call counts, total/self
//! time and allocation attribution.
//!
//! Spans follow the same two rules as the rest of the observability
//! substrate:
//!
//! * **off by default, one branch when off** — a disabled
//!   [`enter`] is a single relaxed atomic load returning an inert
//!   guard, so instrumentation sites can stay in release hot paths
//!   (the `obs_overhead` guard in `scue-bench` holds the <3% budget);
//! * **merge like a histogram** — [`SpanProfile::merge`] is
//!   commutative and lossless, so `scue_util::par` fan-outs can take
//!   one profile per worker cell and fold them in any order with the
//!   same result as a serial run (property-tested in `prop_span.rs`).
//!
//! Timing comes from a process-wide [`Clock`]: `Monotonic` reads real
//! nanoseconds for human profiling; `Virtual` is a **thread-local tick
//! counter** (each read is one tick), which makes every span duration a
//! pure function of the code path — byte-identical across runs, job
//! counts and machines, and therefore golden-testable. Allocation
//! attribution reads the thread-local counters maintained by
//! [`super::alloc`]; profiler bookkeeping itself runs with attribution
//! paused so it never pollutes the numbers it reports.
//!
//! ```
//! use scue_util::obs::span;
//!
//! span::reset_thread();
//! span::set_clock(span::Clock::Virtual);
//! span::set_enabled(true);
//! {
//!     let _root = span::enter("request");
//!     let _child = span::enter("hash");
//! }
//! span::set_enabled(false);
//! let profile = span::take_thread_profile();
//! assert_eq!(profile.get("request", "hash").unwrap().calls, 1);
//! ```

use crate::obs::alloc;
use crate::obs::json::Json;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::time::Instant;

/// The parent label of top-level spans (an empty stack).
pub const ROOT: &str = "";

/// Process-wide span switch. Off by default; [`enter`] is one relaxed
/// load when off.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Process-wide clock selection (`0` = monotonic, `1` = virtual).
static CLOCK: AtomicU8 = AtomicU8::new(0);

/// Which clock span timestamps come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Real nanoseconds from a per-thread [`Instant`] epoch.
    Monotonic,
    /// A deterministic thread-local tick counter: every clock read is
    /// one tick, so durations count clock reads, not wall time —
    /// byte-identical across schedules and machines.
    Virtual,
}

impl Clock {
    /// Stable name used in JSON config blocks.
    pub fn name(self) -> &'static str {
        match self {
            Clock::Monotonic => "monotonic",
            Clock::Virtual => "virtual",
        }
    }
}

/// Parses a clock from its [`Clock::name`].
impl std::str::FromStr for Clock {
    type Err = String;

    fn from_str(s: &str) -> Result<Clock, String> {
        [Clock::Monotonic, Clock::Virtual]
            .into_iter()
            .find(|c| c.name() == s)
            .ok_or_else(|| format!("unknown clock `{s}`"))
    }
}

/// Turns span collection on or off process-wide.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether span collection is on.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Selects the process-wide clock (affects spans entered afterwards).
pub fn set_clock(clock: Clock) {
    CLOCK.store(clock as u8, Ordering::Relaxed);
}

/// The clock currently selected.
pub fn clock() -> Clock {
    match CLOCK.load(Ordering::Relaxed) {
        1 => Clock::Virtual,
        _ => Clock::Monotonic,
    }
}

/// Aggregated statistics for one `(parent, name)` span edge.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStats {
    /// Times the span was entered.
    pub calls: u64,
    /// Nanoseconds (or virtual ticks) between enter and exit, children
    /// included.
    pub total_ns: u64,
    /// `total_ns` minus time attributed to child spans.
    pub self_ns: u64,
    /// Heap allocations attributed to the span itself (children
    /// excluded); zero unless [`super::alloc`] counting was on.
    pub allocs: u64,
    /// Bytes of those allocations.
    pub alloc_bytes: u64,
}

impl SpanStats {
    fn absorb(&mut self, other: &SpanStats) {
        self.calls += other.calls;
        self.total_ns += other.total_ns;
        self.self_ns += other.self_ns;
        self.allocs += other.allocs;
        self.alloc_bytes += other.alloc_bytes;
    }

    /// The stats as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("calls", Json::U64(self.calls))
            .with("total_ns", Json::U64(self.total_ns))
            .with("self_ns", Json::U64(self.self_ns))
            .with("allocs", Json::U64(self.allocs))
            .with("alloc_bytes", Json::U64(self.alloc_bytes))
    }
}

/// An aggregated span profile: one [`SpanStats`] per `(parent, name)`
/// edge, keyed deterministically (BTreeMap order).
///
/// Parent attribution makes the call tree recoverable: a span entered
/// while `engine.request` is on the stack aggregates under parent
/// `"engine.request"`; top-level spans aggregate under [`ROOT`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanProfile {
    entries: BTreeMap<(&'static str, &'static str), SpanStats>,
}

impl SpanProfile {
    /// An empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of distinct `(parent, name)` edges.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Folds `stats` into the `(parent, name)` edge — the primitive
    /// both live collection and [`merge`](Self::merge) are built on.
    pub fn record(&mut self, parent: &'static str, name: &'static str, stats: SpanStats) {
        self.entries
            .entry((parent, name))
            .or_default()
            .absorb(&stats);
    }

    /// Looks up the stats for one edge.
    pub fn get(&self, parent: &'static str, name: &'static str) -> Option<&SpanStats> {
        self.entries.get(&(parent, name))
    }

    /// Iterates `(parent, name, stats)` in deterministic key order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &'static str, &SpanStats)> {
        self.entries.iter().map(|(&(p, n), s)| (p, n, s))
    }

    /// Folds `other` into `self`. Commutative and lossless: merging
    /// per-worker profiles in any order equals the profile of the whole
    /// run (the `Histogram::merge` contract, property-tested).
    pub fn merge(&mut self, other: &SpanProfile) {
        for (&key, stats) in &other.entries {
            self.entries.entry(key).or_default().absorb(stats);
        }
    }

    /// Total time attributed to named spans directly under `root`, as a
    /// fraction of `root`'s own total (over all parents it appears
    /// under). This is the coverage metric `scue-profile` reports: how
    /// much of the harness wall time the instrumentation explains.
    /// Returns `None` when `root` was never entered or has zero time.
    pub fn coverage_under(&self, root: &str) -> Option<f64> {
        let root_total: u64 = self
            .entries
            .iter()
            .filter(|(&(_, n), _)| n == root)
            .map(|(_, s)| s.total_ns)
            .sum();
        if root_total == 0 {
            return None;
        }
        let child_total: u64 = self
            .entries
            .iter()
            .filter(|(&(p, _), _)| p == root)
            .map(|(_, s)| s.total_ns)
            .sum();
        Some(child_total as f64 / root_total as f64)
    }

    /// Self-time totals aggregated by span name (parents folded
    /// together), sorted by descending self time then name — the
    /// ranking the `scue-profile` top-N table prints.
    pub fn self_time_ranking(&self) -> Vec<(&'static str, SpanStats)> {
        let mut by_name: BTreeMap<&'static str, SpanStats> = BTreeMap::new();
        for (_, name, stats) in self.iter() {
            by_name.entry(name).or_default().absorb(stats);
        }
        let mut ranked: Vec<(&'static str, SpanStats)> = by_name.into_iter().collect();
        ranked.sort_by(|a, b| b.1.self_ns.cmp(&a.1.self_ns).then(a.0.cmp(b.0)));
        ranked
    }

    /// The profile as a JSON array of edge objects, deterministic order.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.iter()
                .map(|(parent, name, stats)| {
                    let mut obj = Json::obj()
                        .with("name", Json::Str(name.to_string()))
                        .with("parent", Json::Str(parent.to_string()));
                    if let Json::Obj(fields) = stats.to_json() {
                        for (k, v) in fields {
                            obj.set(&k, v);
                        }
                    }
                    obj
                })
                .collect(),
        )
    }
}

/// One raw span interval, kept only while per-thread event recording is
/// on (the Chrome trace-event export is built from these).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    /// Span name.
    pub name: &'static str,
    /// Stack depth at entry (0 = top level).
    pub depth: u32,
    /// Clock value at entry.
    pub start_ns: u64,
    /// Clock value at exit.
    pub end_ns: u64,
}

/// One live frame on the thread's span stack.
struct Frame {
    name: &'static str,
    depth: u32,
    start_ns: u64,
    child_ns: u64,
    start_allocs: u64,
    start_bytes: u64,
    child_allocs: u64,
    child_bytes: u64,
}

/// Per-thread profiler state.
struct ThreadState {
    stack: Vec<Frame>,
    profile: SpanProfile,
    events: Vec<SpanEvent>,
    record_events: bool,
    /// Virtual-clock tick counter.
    ticks: u64,
    /// Monotonic-clock epoch, set lazily on first read.
    epoch: Option<Instant>,
}

impl ThreadState {
    const fn new() -> Self {
        Self {
            stack: Vec::new(),
            profile: SpanProfile {
                entries: BTreeMap::new(),
            },
            events: Vec::new(),
            record_events: false,
            ticks: 0,
            epoch: None,
        }
    }

    fn now_ns(&mut self) -> u64 {
        match clock() {
            Clock::Virtual => {
                self.ticks += 1;
                self.ticks
            }
            Clock::Monotonic => {
                let epoch = *self.epoch.get_or_insert_with(Instant::now);
                epoch.elapsed().as_nanos() as u64
            }
        }
    }
}

thread_local! {
    static STATE: RefCell<ThreadState> = const { RefCell::new(ThreadState::new()) };
}

/// RAII guard returned by [`enter`]; exiting (dropping) folds the
/// span's interval into the thread profile.
#[must_use = "a span guard measures until it is dropped"]
pub struct SpanGuard {
    active: bool,
}

/// Enters a named span on the calling thread's stack. When spans are
/// disabled this is one relaxed atomic load and an inert guard.
#[inline]
pub fn enter(name: &'static str) -> SpanGuard {
    if !is_enabled() {
        return SpanGuard { active: false };
    }
    enter_slow(name);
    SpanGuard { active: true }
}

#[cold]
fn enter_slow(name: &'static str) {
    let _ = STATE.try_with(|state| {
        let Ok(mut state) = state.try_borrow_mut() else {
            return; // re-entrant call from profiler bookkeeping
        };
        let paused = alloc::pause_thread_attribution();
        let (allocs, bytes) = alloc::thread_counts();
        let start_ns = state.now_ns();
        let depth = state.stack.len() as u32;
        state.stack.push(Frame {
            name,
            depth,
            start_ns,
            child_ns: 0,
            start_allocs: allocs,
            start_bytes: bytes,
            child_allocs: 0,
            child_bytes: 0,
        });
        drop(paused);
    });
}

impl Drop for SpanGuard {
    #[inline]
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        exit_slow();
    }
}

#[cold]
fn exit_slow() {
    let _ = STATE.try_with(|state| {
        let Ok(mut state) = state.try_borrow_mut() else {
            return;
        };
        let paused = alloc::pause_thread_attribution();
        let Some(frame) = state.stack.pop() else {
            return; // reset_thread() ran while the guard was live
        };
        let (allocs_now, bytes_now) = alloc::thread_counts();
        let end_ns = state.now_ns();
        let total_ns = end_ns.saturating_sub(frame.start_ns);
        let total_allocs = allocs_now.saturating_sub(frame.start_allocs);
        let total_bytes = bytes_now.saturating_sub(frame.start_bytes);
        let stats = SpanStats {
            calls: 1,
            total_ns,
            self_ns: total_ns.saturating_sub(frame.child_ns),
            allocs: total_allocs.saturating_sub(frame.child_allocs),
            alloc_bytes: total_bytes.saturating_sub(frame.child_bytes),
        };
        let parent = match state.stack.last_mut() {
            Some(parent) => {
                parent.child_ns += total_ns;
                parent.child_allocs += total_allocs;
                parent.child_bytes += total_bytes;
                parent.name
            }
            None => ROOT,
        };
        state.profile.record(parent, frame.name, stats);
        if state.record_events {
            let event = SpanEvent {
                name: frame.name,
                depth: frame.depth,
                start_ns: frame.start_ns,
                end_ns,
            };
            state.events.push(event);
        }
        drop(paused);
    });
}

/// Clears the calling thread's profiler state: stack, profile, events
/// and virtual-clock ticks. Live guards from before the reset become
/// no-ops. Fan-out cells call this on entry so a reused worker thread
/// starts from zero.
pub fn reset_thread() {
    let _ = STATE.try_with(|state| {
        let mut state = state.borrow_mut();
        state.stack.clear();
        state.profile = SpanProfile::new();
        state.events.clear();
        state.ticks = 0;
        state.epoch = None;
    });
}

/// Turns raw span-event recording on or off for the calling thread
/// (needed only for trace exports; aggregation always happens).
pub fn record_events(on: bool) {
    let _ = STATE.try_with(|state| state.borrow_mut().record_events = on);
}

/// Takes (and clears) the calling thread's aggregated profile.
pub fn take_thread_profile() -> SpanProfile {
    STATE
        .try_with(|state| std::mem::take(&mut state.borrow_mut().profile))
        .unwrap_or_default()
}

/// Takes (and clears) the calling thread's raw span events.
pub fn take_thread_events() -> Vec<SpanEvent> {
    STATE
        .try_with(|state| std::mem::take(&mut state.borrow_mut().events))
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `f` with spans switched `on` on the virtual clock, holding
    /// the gate every test that touches the process-wide switches takes.
    fn with_switch<R>(on: bool, f: impl FnOnce() -> R) -> R {
        use std::sync::{Mutex, OnceLock};
        static GATE: OnceLock<Mutex<()>> = OnceLock::new();
        let _guard = GATE.get_or_init(|| Mutex::new(())).lock().unwrap();
        reset_thread();
        set_clock(Clock::Virtual);
        set_enabled(on);
        let r = f();
        set_enabled(false);
        set_clock(Clock::Monotonic);
        reset_thread();
        r
    }

    fn with_spans<R>(f: impl FnOnce() -> R) -> R {
        with_switch(true, f)
    }

    #[test]
    fn disabled_enter_is_inert() {
        with_switch(false, || {
            {
                let _g = enter("never");
            }
            assert!(take_thread_profile().is_empty());
        });
    }

    #[test]
    fn nesting_attributes_parent_and_self_time() {
        let profile = with_spans(|| {
            {
                let _outer = enter("outer");
                let _inner = enter("inner");
            }
            take_thread_profile()
        });
        let outer = profile.get(ROOT, "outer").expect("outer recorded");
        let inner = profile.get("outer", "inner").expect("inner under outer");
        assert_eq!(outer.calls, 1);
        assert_eq!(inner.calls, 1);
        // Virtual clock: ticks are 1=outer-enter, 2=inner-enter,
        // 3=inner-exit, 4=outer-exit, so a leaf span spans 1 tick and
        // each nested span adds 2 to its parent's total.
        assert_eq!(inner.total_ns, 1);
        assert_eq!(inner.self_ns, 1);
        assert_eq!(outer.total_ns, 3);
        assert_eq!(outer.self_ns, 2, "inner's ticks attributed away");
    }

    #[test]
    fn virtual_clock_is_deterministic() {
        let run = || {
            with_spans(|| {
                for _ in 0..3 {
                    let _a = enter("a");
                    let _b = enter("b");
                }
                take_thread_profile()
            })
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn merge_is_commutative_and_lossless() {
        let mut a = SpanProfile::new();
        a.record(
            ROOT,
            "x",
            SpanStats {
                calls: 2,
                total_ns: 10,
                self_ns: 6,
                allocs: 1,
                alloc_bytes: 64,
            },
        );
        let mut b = SpanProfile::new();
        b.record(
            ROOT,
            "x",
            SpanStats {
                calls: 1,
                total_ns: 5,
                self_ns: 5,
                allocs: 0,
                alloc_bytes: 0,
            },
        );
        b.record(
            "x",
            "y",
            SpanStats {
                calls: 4,
                total_ns: 4,
                self_ns: 4,
                allocs: 2,
                alloc_bytes: 32,
            },
        );
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        let x = ab.get(ROOT, "x").unwrap();
        assert_eq!((x.calls, x.total_ns, x.self_ns), (3, 15, 11));
    }

    #[test]
    fn coverage_counts_direct_children_of_root() {
        let mut p = SpanProfile::new();
        p.record(
            ROOT,
            "run",
            SpanStats {
                calls: 1,
                total_ns: 100,
                self_ns: 10,
                ..Default::default()
            },
        );
        p.record(
            "run",
            "work",
            SpanStats {
                calls: 5,
                total_ns: 90,
                self_ns: 90,
                ..Default::default()
            },
        );
        assert_eq!(p.coverage_under("run"), Some(0.9));
        assert_eq!(p.coverage_under("absent"), None);
    }

    #[test]
    fn ranking_orders_by_self_time() {
        let mut p = SpanProfile::new();
        p.record(
            ROOT,
            "fast",
            SpanStats {
                calls: 1,
                total_ns: 5,
                self_ns: 5,
                ..Default::default()
            },
        );
        p.record(
            ROOT,
            "slow",
            SpanStats {
                calls: 1,
                total_ns: 50,
                self_ns: 50,
                ..Default::default()
            },
        );
        p.record(
            "slow",
            "fast",
            SpanStats {
                calls: 1,
                total_ns: 3,
                self_ns: 3,
                ..Default::default()
            },
        );
        let ranked = p.self_time_ranking();
        assert_eq!(ranked[0].0, "slow");
        assert_eq!(ranked[1].0, "fast");
        assert_eq!(ranked[1].1.self_ns, 8, "parents folded together");
    }

    #[test]
    fn events_capture_intervals_and_depth() {
        let events = with_spans(|| {
            record_events(true);
            {
                let _a = enter("a");
                let _b = enter("b");
            }
            record_events(false);
            take_thread_events()
        });
        assert_eq!(events.len(), 2);
        // Exits record innermost first.
        assert_eq!(events[0].name, "b");
        assert_eq!(events[0].depth, 1);
        assert_eq!(events[1].name, "a");
        assert_eq!(events[1].depth, 0);
        assert!(events[0].start_ns > events[1].start_ns);
        assert!(events[0].end_ns < events[1].end_ns);
    }

    #[test]
    fn profile_json_is_deterministic_and_parses() {
        let mut p = SpanProfile::new();
        p.record(
            ROOT,
            "b",
            SpanStats {
                calls: 1,
                total_ns: 2,
                self_ns: 2,
                ..Default::default()
            },
        );
        p.record(
            ROOT,
            "a",
            SpanStats {
                calls: 1,
                total_ns: 2,
                self_ns: 2,
                ..Default::default()
            },
        );
        let rendered = p.to_json().render();
        assert!(Json::parse(&rendered).is_ok(), "{rendered}");
        // BTreeMap keying: "a" before "b" regardless of insert order.
        assert!(rendered.find("\"a\"").unwrap() < rendered.find("\"b\"").unwrap());
    }
}
