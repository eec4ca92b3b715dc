//! The repository benchmark: the full `System` (runner → cache
//! hierarchy → secure engine → itree/crypto → NVM controller, WPQ and
//! PCM timing) on seeded steady workloads, and the torture crash case
//! on seeded case specs. See `README.md` beside this crate for the
//! workloads, the metrics and how to run it.
//!
//! One process, one host thread, closed loop: each cell (one scheme on
//! one trace, or one scheme on one crash case) starts only after the
//! previous one returned. A *pass* runs every cell once; a run repeats
//! passes until its time is up, and every pass must reproduce the first
//! pass's digest of simulated statistics.

#![forbid(unsafe_code)]

pub mod metrics;

use scue::{EngineStats, LatencyStats, SchemeKind, SecureMemConfig, SecureMemory};
use scue_cache::hierarchy::HierarchyStats;
use scue_cache::DataHierarchy;
use scue_nvm::{LineAddr, PcmCounters, WpqStats};
use scue_sim::torture::{self, CaseResult, CaseSpec, FaultKind, TortureConfig};
use scue_sim::{RunResult, System, SystemConfig};
use scue_util::obs::alloc;
use scue_util::obs::span::{self, SpanProfile};
use scue_util::rng::{Rng, SplitMix64};
use scue_workloads::{MemOp, Trace, Workload};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// `Workload::generate` scale of the spec-read traces: large enough
/// that their footprints overflow the metadata cache.
const SPEC_SCALE: usize = 30_000;

/// `Workload::generate` scale of the pmem-write traces. Their cells
/// are the longest (btree replays 525K ops); keeping each under ~0.1 s
/// lets every cell land some passes in the host's quiet phases.
const PMEM_SCALE: usize = 10_000;

/// Crash cases per scheme in one crash-campaign pass (18 per fault
/// kind): about 1.4K cells, so `case_us_p99` has more than ten cells
/// beyond it.
const CASES_PER_SCHEME: usize = 126;

/// Set-up repetitions per run, spread evenly over it; `setup_s` is
/// the fastest, for the reason host time per cell is its fastest pass.
const SETUP_REPS: usize = 15;

/// Fewest untraced passes per run; a traced run makes at least one
/// fewer untraced/traced pairs.
const MIN_PASSES: usize = 3;

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;

/// Line span of the crash-campaign probe stream: the three leaves of
/// the `small_test` geometry that the torture op stream writes into.
const PROBE_SPAN: u64 = 192;

/// Probe streams per scheme in crash-campaign case sampling; their
/// mean end cycle is the crash-point span, and together they average
/// out the stream-to-stream spread of the modelled metrics.
const PROBES_PER_SCHEME: usize = 64;

/// Ops of each steady trace replayed during host warm-up.
const WARMUP_OPS: usize = 5_000;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bench {
    /// Persist-ordered data structures: the secure write path.
    PmemWrite,
    /// Read-heavy SPEC stand-ins: the verified read path.
    SpecRead,
    /// Seeded torture crash cases: set-up, crash and recovery.
    CrashCampaign,
}

impl Bench {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Bench; 3] = [Bench::PmemWrite, Bench::SpecRead, Bench::CrashCampaign];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Bench::PmemWrite => "pmem-write",
            Bench::SpecRead => "spec-read",
            Bench::CrashCampaign => "crash-campaign",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Bench> {
        Bench::ALL.into_iter().find(|b| b.name() == s)
    }

    fn traces(self) -> &'static [Workload] {
        match self {
            Bench::PmemWrite => &[Workload::Queue, Workload::Btree],
            Bench::SpecRead => &[Workload::Mcf, Workload::Soplex, Workload::Bwaves],
            Bench::CrashCampaign => &[],
        }
    }
}

/// What one run does.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub bench: Bench,
    /// Workload seed: traces, case specs and the probe stream derive
    /// from it.
    pub seed: u64,
    /// Measuring time; a few passes run regardless.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Steady-trace scale (the self-tests shrink it).
    pub scale: usize,
    /// Crash cases per scheme per pass (the self-tests shrink it).
    pub cases_per_scheme: usize,
}

impl Options {
    /// A run at the benchmark's own sizes.
    pub fn new(bench: Bench, seed: u64, seconds: f64, trace: bool) -> Self {
        Self {
            bench,
            seed,
            seconds,
            trace,
            scale: match bench {
                Bench::PmemWrite => PMEM_SCALE,
                Bench::SpecRead | Bench::CrashCampaign => SPEC_SCALE,
            },
            cases_per_scheme: CASES_PER_SCHEME,
        }
    }
}

/// What a run found.
#[derive(Debug, Clone)]
pub struct Report {
    /// No operation failed and every consistency check held.
    pub correct: bool,
    /// Operations attempted: trace ops, or crash cases.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// FNV-1a digest of every simulated statistic of one pass.
    pub digest: u64,
    /// One-line summary of the simulated totals behind the digest.
    pub summary: String,
    /// Passes measured (untraced and traced together).
    pub passes: usize,
    /// Cells per pass.
    pub cells: usize,
    /// Why the run is not correct, if it is not.
    pub problems: Vec<String>,
    /// Metric values by name: end-to-end ones untraced, per-layer
    /// ones traced.
    pub metrics: BTreeMap<String, f64>,
}

/// One unit of measured work: a scheme replaying a trace from a fresh
/// `System`, or a scheme running one crash case.
#[derive(Debug, Clone, Copy)]
enum Cell {
    Replay { scheme: SchemeKind, trace: usize },
    Case { scheme: SchemeKind, spec: CaseSpec },
}

impl Cell {
    fn scheme(self) -> SchemeKind {
        match self {
            Cell::Replay { scheme, .. } | Cell::Case { scheme, .. } => scheme,
        }
    }
}

/// Simulated statistics of one model run: a steady cell, or a
/// crash-campaign probe stream.
#[derive(Debug, Clone)]
struct Modelled {
    scheme: SchemeKind,
    /// Trace or probe-stream index; SCUE is normalised to Baseline
    /// within a group.
    group: usize,
    ops: u64,
    cycles: u64,
    engine: EngineStats,
    hierarchy: HierarchyStats,
    wpq: (WpqStats, WpqStats),
    pcm: PcmCounters,
    recovery_fetches: u64,
}

impl Modelled {
    fn of_run(scheme: SchemeKind, group: usize, r: &RunResult) -> Self {
        Self {
            scheme,
            group,
            ops: r.ops,
            cycles: r.cycles,
            engine: r.engine,
            hierarchy: r.hierarchy,
            wpq: r.wpq,
            pcm: r.pcm,
            recovery_fetches: 0,
        }
    }
}

/// Everything a run needs before it measures.
struct Setup {
    traces: Vec<Trace>,
    cells: Vec<Cell>,
    /// Crash-campaign probe streams (empty otherwise).
    probes: Vec<Modelled>,
    generate_s: f64,
    system_new_s: Vec<f64>,
}

impl Setup {
    fn build(opts: &Options, problems: &mut Vec<String>) -> Setup {
        let t = Instant::now();
        let traces: Vec<Trace> = opts
            .bench
            .traces()
            .iter()
            .map(|w| w.generate(opts.scale, opts.seed))
            .collect();
        let generate_s = if traces.is_empty() {
            0.0
        } else {
            t.elapsed().as_secs_f64()
        };
        let mut cells = Vec::new();
        let mut system_new_s = Vec::new();
        let mut probes = Vec::new();
        if opts.bench == Bench::CrashCampaign {
            // Crash points uniform over each scheme's mean probe span;
            // fault kinds rotate through every kind.
            let cfg = TortureConfig::default();
            let mut samplers = Vec::new();
            for scheme in SchemeKind::ALL {
                let streams: Vec<Modelled> = (0..PROBES_PER_SCHEME)
                    .map(|k| probe(scheme, &cfg, opts.seed, k, problems))
                    .collect();
                let span = streams.iter().map(|p| p.cycles).sum::<u64>() / PROBES_PER_SCHEME as u64;
                let rng = Rng::from_seed(
                    opts.seed ^ (scheme as u64 + 1).wrapping_mul(0xD1B5_4A32_D192_ED03),
                );
                samplers.push((scheme, rng, span));
                probes.extend(streams);
            }
            for i in 0..opts.cases_per_scheme {
                for (scheme, rng, span) in &mut samplers {
                    let spec = CaseSpec {
                        ops: cfg.ops,
                        crash_at: rng.gen_range(1..=*span),
                        fault: FaultKind::ALL[i % FaultKind::ALL.len()],
                    };
                    cells.push(Cell::Case {
                        scheme: *scheme,
                        spec,
                    });
                }
            }
        } else {
            for scheme in SchemeKind::ALL {
                let t = Instant::now();
                let system = System::new(SystemConfig::figure(scheme));
                system_new_s.push(t.elapsed().as_secs_f64());
                drop(system);
            }
            for trace in 0..traces.len() {
                for scheme in SchemeKind::ALL {
                    cells.push(Cell::Replay { scheme, trace });
                }
            }
        }
        Setup {
            traces,
            cells,
            probes,
            generate_s,
            system_new_s,
        }
    }

    /// Sum of one scheme's entries of a per-cell time vector.
    fn scheme_s(&self, cell_s: &[f64], scheme: SchemeKind) -> f64 {
        self.cells
            .iter()
            .zip(cell_s)
            .filter(|(c, _)| c.scheme() == scheme)
            .map(|(_, s)| s)
            .sum()
    }

    fn ops_per_pass(&self) -> u64 {
        self.cells
            .iter()
            .map(|cell| match *cell {
                Cell::Replay { trace, .. } => self.traces[trace].ops.len() as u64,
                Cell::Case { .. } => 1,
            })
            .sum()
    }
}

/// The case-sampling probe: a clean persist stream of the case length
/// on a fresh `small_test` engine, crashed at its end and recovered.
/// Its end cycle is the span crash points are drawn from, and its
/// statistics are the crash-campaign's modelled metrics (`run_case`
/// reports only the audited outcome).
fn probe(
    scheme: SchemeKind,
    cfg: &TortureConfig,
    seed: u64,
    stream: usize,
    problems: &mut Vec<String>,
) -> Modelled {
    let mut mem = SecureMemory::new(
        SecureMemConfig::small_test(scheme)
            .with_eadr(cfg.eadr)
            .with_counter_repair(true),
    );
    let mut sm = SplitMix64::new(
        seed ^ (scheme as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (stream as u64).wrapping_mul(0xA24B_AED4_963E_E407),
    );
    let mut now = 0;
    for i in 0..cfg.ops {
        let addr = LineAddr::new(sm.next_u64() % PROBE_SPAN);
        match mem.persist_data(addr, [(i % 251) as u8 + 1; 64], now) {
            Ok(done) => now = done,
            Err(e) => {
                problems.push(format!("{scheme}: probe persist {i} failed: {e}"));
                break;
            }
        }
    }
    let engine = mem.stats();
    let wpq = mem.wpq_stats();
    let pcm = mem.pcm_counters();
    mem.crash(now);
    let recovery_fetches = mem.recover().metadata_fetches;
    Modelled {
        scheme,
        group: stream,
        ops: cfg.ops as u64,
        cycles: now.max(1),
        engine,
        hierarchy: HierarchyStats::default(),
        wpq,
        pcm,
        recovery_fetches,
    }
}

/// FNV-1a over the canonical text of the simulated statistics.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl std::fmt::Write for Digest {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for b in s.bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
        Ok(())
    }
}

fn write_latency(d: &mut Digest, l: &LatencyStats) {
    let _ = write!(
        d,
        "[{} {} {:?} {} {} {} {}]",
        l.count(),
        l.total(),
        l.min(),
        l.max(),
        l.p50(),
        l.p95(),
        l.p99()
    );
}

fn write_modelled(d: &mut Digest, m: &Modelled) {
    let e = &m.engine;
    let _ = write!(
        d,
        "{} g{} ops{} cyc{} w",
        m.scheme.name(),
        m.group,
        m.ops,
        m.cycles
    );
    write_latency(d, &e.write_latency);
    let _ = write!(d, " r");
    write_latency(d, &e.read_latency);
    let h = &m.hierarchy;
    let (u, q) = &m.wpq;
    let _ = writeln!(
        d,
        " mem{}/{}/{}/{} hash{} md{}/{}/{} ovf{} pers{} hier{}/{}/{}/{} \
         wpq{}/{}/{}/{}/{}:{}/{}/{}/{}/{} pcm{}/{}/{} rf{}",
        e.mem.user_reads,
        e.mem.user_writes,
        e.mem.meta_reads,
        e.mem.meta_writes,
        e.hashes,
        e.mdcache.hits,
        e.mdcache.misses,
        e.mdcache.fills,
        e.overflows,
        e.persists,
        h.l1_hits,
        h.l2_hits,
        h.l3_hits,
        h.mem_accesses,
        u.enqueued,
        u.full_stalls,
        u.max_occupancy,
        u.coalesced,
        u.barriers,
        q.enqueued,
        q.full_stalls,
        q.max_occupancy,
        q.coalesced,
        q.barriers,
        m.pcm.reads,
        m.pcm.writes,
        m.pcm.row_hits,
        m.recovery_fetches
    );
}

/// What one pass measured.
struct Pass {
    /// Host time of each cell's measured call(s), in cell order.
    cell_s: Vec<f64>,
    /// Host time of the whole pass.
    wall_s: f64,
    digest: u64,
    failed: u64,
    /// Simulated statistics of every steady cell.
    modelled: Vec<Modelled>,
    /// Case-class tallies (crash-campaign).
    tallies: BTreeMap<&'static str, u64>,
    /// Span profile (traced passes).
    profile: SpanProfile,
    allocs: u64,
    alloc_bytes: u64,
}

fn run_pass(setup: &Setup, traced: bool, problems: &mut Vec<String>) -> Pass {
    if traced {
        span::set_clock(span::Clock::Monotonic);
        span::reset_thread();
        alloc::reset_thread_counts();
        alloc::set_enabled(true);
        span::set_enabled(true);
    }
    let cfg = TortureConfig::default();
    let mut d = Digest::new();
    let mut cell_s = Vec::with_capacity(setup.cells.len());
    let mut failed = 0;
    let mut modelled = Vec::new();
    let mut tallies = BTreeMap::new();
    let (mut allocs, mut alloc_bytes) = (0, 0);
    let wall = Instant::now();
    for &cell in &setup.cells {
        match cell {
            Cell::Replay { scheme, trace } => {
                let t = &setup.traces[trace];
                let mut system = {
                    let _s = span::enter("bench.system_new");
                    System::new(SystemConfig::figure(scheme))
                };
                let (a0, b0) = alloc::thread_counts();
                let start = Instant::now();
                let result = {
                    let _s = span::enter("bench.run_trace");
                    system.run_trace(t)
                };
                cell_s.push(start.elapsed().as_secs_f64());
                let (a1, b1) = alloc::thread_counts();
                allocs += a1 - a0;
                alloc_bytes += b1 - b0;
                match result {
                    Ok(r) => {
                        if r.ops != t.ops.len() as u64 {
                            problems.push(format!(
                                "{scheme} {}: replayed {} of {} ops",
                                t.name,
                                r.ops,
                                t.ops.len()
                            ));
                        }
                        let m = Modelled::of_run(scheme, trace, &r);
                        write_modelled(&mut d, &m);
                        modelled.push(m);
                    }
                    Err(e) => {
                        failed += t.ops.len() as u64;
                        let _ = writeln!(d, "{} {}: error {e:?}", scheme.name(), t.name);
                        if problems.len() < 8 {
                            problems.push(format!(
                                "{scheme} {}: run_trace on clean traffic: {e}",
                                t.name
                            ));
                        }
                    }
                }
            }
            Cell::Case { scheme, spec } => {
                let (a0, b0) = alloc::thread_counts();
                let start = Instant::now();
                let result = {
                    let _s = span::enter("bench.run_case");
                    torture::run_case(scheme, &cfg, spec)
                };
                let verdict = {
                    let _s = span::enter("bench.oracle");
                    torture::oracle(scheme, &cfg, &result)
                };
                cell_s.push(start.elapsed().as_secs_f64());
                let (a1, b1) = alloc::thread_counts();
                allocs += a1 - a0;
                alloc_bytes += b1 - b0;
                write_case(&mut d, scheme, spec, &result);
                *tallies.entry(result.class.name()).or_insert(0) += 1;
                if let Err(why) = verdict {
                    failed += 1;
                    if problems.len() < 8 {
                        problems.push(format!(
                            "oracle violation {}: {why}",
                            spec.replay_spec(scheme)
                        ));
                    }
                }
            }
        }
    }
    let wall_s = wall.elapsed().as_secs_f64();
    for p in &setup.probes {
        write_modelled(&mut d, p);
    }
    let profile = if traced {
        span::set_enabled(false);
        alloc::set_enabled(false);
        span::take_thread_profile()
    } else {
        SpanProfile::new()
    };
    Pass {
        cell_s,
        wall_s,
        digest: d.0,
        failed,
        modelled,
        tallies,
        profile,
        allocs,
        alloc_bytes,
    }
}

fn write_case(d: &mut Digest, scheme: SchemeKind, spec: CaseSpec, r: &CaseResult) {
    let _ = writeln!(
        d,
        "{} {} {} {} {} {}",
        spec.replay_spec(scheme),
        r.class.name(),
        r.fault_applied,
        r.repaired_leaves,
        r.history_dropped,
        r.detail
    );
}

/// Untimed host warm-up: a short prefix of every steady cell, or the
/// first case of every scheme.
fn warm_up(setup: &Setup) {
    let cfg = TortureConfig::default();
    for &cell in setup.cells.iter().take(SchemeKind::ALL.len() * 2) {
        match cell {
            Cell::Replay { scheme, trace } => {
                let t = &setup.traces[trace];
                let prefix = Trace {
                    name: t.name.clone(),
                    ops: t.ops[..t.ops.len().min(WARMUP_OPS)].to_vec(),
                };
                let _ = System::new(SystemConfig::figure(scheme)).run_trace(&prefix);
            }
            Cell::Case { scheme, spec } => {
                let _ = torture::run_case(scheme, &cfg, spec);
            }
        }
    }
}

/// Replays the steady traces' loads, stores and persists through a bare
/// `DataHierarchy` (no engine), as the runner drives it. Returns the
/// hierarchy calls made, their host time, and the statistics per trace.
fn cache_replay(setup: &Setup) -> (u64, f64, Vec<HierarchyStats>) {
    let cfg = SystemConfig::figure(SchemeKind::Baseline);
    let mut calls = 0;
    let mut secs = 0.0;
    let mut stats = Vec::new();
    for t in &setup.traces {
        let mut h = DataHierarchy::new(cfg.hierarchy, cfg.cores);
        let start = Instant::now();
        for op in &t.ops {
            match *op {
                MemOp::Load(addr) => {
                    std::hint::black_box(h.access(0, addr, false));
                    calls += 1;
                }
                MemOp::Store(addr) => {
                    std::hint::black_box(h.access(0, addr, true));
                    calls += 1;
                }
                MemOp::Persist(addr) => {
                    std::hint::black_box(h.flush_line(0, addr));
                    calls += 1;
                }
                MemOp::Fence | MemOp::Compute(_) => {}
            }
        }
        std::hint::black_box(h.flush_all_dirty());
        calls += 1;
        secs += start.elapsed().as_secs_f64();
        stats.push(h.stats());
    }
    (calls, secs, stats)
}

/// Smallest value of a sample (0 when empty).
fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Median of a sample (0 when empty).
fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of a sample (0 when empty).
fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set of this process, in MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs one benchmark run.
pub fn run(opts: &Options) -> Report {
    let mut problems = Vec::new();
    let mut setup_s = Vec::new();
    let mut generate_s = Vec::new();
    let mut system_new_s = Vec::new();
    let mut build = |problems: &mut Vec<String>| {
        let start = Instant::now();
        let s = Setup::build(opts, problems);
        setup_s.push(start.elapsed().as_secs_f64());
        generate_s.push(s.generate_s);
        system_new_s.extend_from_slice(&s.system_new_s);
        s
    };
    let setup = build(&mut problems);
    warm_up(&setup);

    // Passes run until the next one would overrun the time; set-up is
    // rebuilt (and timed) at evenly spread points of the run, so it
    // samples the same host phases as the passes.
    let start = Instant::now();
    let mut untraced: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    let mut rebuilt = 1;
    let mut last_s = 0.0;
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        let enough = if opts.trace {
            traced.len() >= MIN_PASSES - 1
        } else {
            untraced.len() >= MIN_PASSES
        };
        if enough && elapsed + last_s > opts.seconds {
            break;
        }
        if rebuilt < SETUP_REPS && elapsed >= opts.seconds * rebuilt as f64 / SETUP_REPS as f64 {
            drop(build(&mut problems));
            rebuilt += 1;
        }
        let iteration = Instant::now();
        untraced.push(run_pass(&setup, false, &mut problems));
        if opts.trace {
            traced.push(run_pass(&setup, true, &mut problems));
        }
        last_s = iteration.elapsed().as_secs_f64();
    }
    while rebuilt < SETUP_REPS {
        drop(build(&mut problems));
        rebuilt += 1;
    }

    let first = &untraced[0];
    for (i, p) in untraced.iter().chain(&traced).enumerate() {
        if p.digest != first.digest {
            problems.push(format!(
                "pass {i} digest {:#018x} differs from {:#018x}",
                p.digest, first.digest
            ));
        }
    }
    let passes = untraced.len() + traced.len();
    let ops = setup.ops_per_pass();
    let attempted = ops * passes as u64;
    let failed: u64 = untraced.iter().chain(&traced).map(|p| p.failed).sum();
    let modelled: Vec<Modelled> = if opts.bench == Bench::CrashCampaign {
        setup.probes.clone()
    } else {
        first.modelled.clone()
    };

    let mut metrics = BTreeMap::new();
    let mut put = |name: &str, v: f64| {
        metrics.insert(name.to_string(), v);
    };
    let model = model_metrics(&modelled);
    // Per-op denominators: trace ops, or cases; on crash-campaign each
    // probe stream stands for one case.
    let model_ops = if opts.bench == Bench::CrashCampaign {
        modelled.len() as u64
    } else {
        ops
    };
    if opts.trace {
        let mut cache = None;
        if opts.bench != Bench::CrashCampaign {
            let replays: Vec<_> = (0..3).map(|_| cache_replay(&setup)).collect();
            for (trace, replayed) in replays[0].2.iter().enumerate() {
                for m in modelled.iter().filter(|m| m.group == trace) {
                    if m.hierarchy != *replayed {
                        problems.push(format!(
                            "{} trace {trace}: standalone cache replay {replayed:?} \
                             differs from the run's {:?}",
                            m.scheme, m.hierarchy
                        ));
                    }
                }
            }
            let secs: Vec<f64> = replays.iter().map(|r| r.1).collect();
            cache = Some((replays[0].0, median(&secs)));
        }
        per_layer(
            &mut put, opts, &setup, &untraced, &traced, &modelled, &model, model_ops, ops, cache,
        );
        put("workloads.generate_ms", fastest(&generate_s) * 1e3);
        put("sim.system_new_us", fastest(&system_new_s) * 1e6);
    } else {
        // Each cell's fastest pass: the shared host alternates between
        // quiet and contended phases lasting seconds to tens of seconds,
        // which move a median by up to 1.7x but leave the fastest pass
        // in place as long as part of the run is quiet.
        let per_cell: Vec<f64> = (0..setup.cells.len())
            .map(|c| fastest(&untraced.iter().map(|p| p.cell_s[c]).collect::<Vec<_>>()))
            .collect();
        // A case is one crash case, or one scheme's replay of all the
        // workload's traces (whose cells differ in size by trace).
        let cases: Vec<f64> = if opts.bench == Bench::CrashCampaign {
            per_cell.clone()
        } else {
            SchemeKind::ALL
                .iter()
                .map(|&scheme| setup.scheme_s(&per_cell, scheme))
                .collect()
        };
        let total: f64 = per_cell.iter().sum();
        let us: Vec<f64> = cases.iter().map(|s| s * 1e6).collect();
        put("sim_kops_per_s", ratio(ops as f64, total) / 1e3);
        put("cases_per_s", ratio(cases.len() as f64, total));
        put("case_us_p50", percentile(&us, 50.0));
        put("case_us_p99", percentile(&us, 99.0));
        put("setup_s", fastest(&setup_s));
        put("peak_rss_mib", peak_rss_mib());
        put("sim_mcycles", model.cycles as f64 / 1e6);
        put("scue_wlat_norm", model.scue_wlat_norm);
        put("scue_exec_norm", model.scue_exec_norm);
    }

    let summary = summary(first, &model, model_ops);
    Report {
        correct: failed == 0 && problems.is_empty(),
        attempted,
        failed,
        digest: first.digest,
        summary,
        passes,
        cells: setup.cells.len(),
        problems,
        metrics,
    }
}

/// Totals of the modelled statistics.
struct Model {
    cycles: u64,
    scue_wlat_norm: f64,
    scue_exec_norm: f64,
    engine: EngineStats,
    hierarchy: HierarchyStats,
    wpq_user_full_stalls: u64,
    wpq_meta_full_stalls: u64,
    wpq_coalesced: u64,
    pcm: PcmCounters,
    recovery_fetches: u64,
}

fn merge_engine(into: &mut EngineStats, e: &EngineStats) {
    into.write_latency.merge(&e.write_latency);
    into.read_latency.merge(&e.read_latency);
    into.mem.user_reads += e.mem.user_reads;
    into.mem.user_writes += e.mem.user_writes;
    into.mem.meta_reads += e.mem.meta_reads;
    into.mem.meta_writes += e.mem.meta_writes;
    into.hashes += e.hashes;
    into.mdcache.hits += e.mdcache.hits;
    into.mdcache.misses += e.mdcache.misses;
    into.mdcache.fills += e.mdcache.fills;
    into.overflows += e.overflows;
    into.persists += e.persists;
}

fn model_metrics(modelled: &[Modelled]) -> Model {
    let mut m = Model {
        cycles: 0,
        scue_wlat_norm: 0.0,
        scue_exec_norm: 0.0,
        engine: EngineStats::default(),
        hierarchy: HierarchyStats::default(),
        wpq_user_full_stalls: 0,
        wpq_meta_full_stalls: 0,
        wpq_coalesced: 0,
        pcm: PcmCounters::default(),
        recovery_fetches: 0,
    };
    for c in modelled {
        m.cycles += c.cycles;
        merge_engine(&mut m.engine, &c.engine);
        m.hierarchy.l1_hits += c.hierarchy.l1_hits;
        m.hierarchy.l2_hits += c.hierarchy.l2_hits;
        m.hierarchy.l3_hits += c.hierarchy.l3_hits;
        m.hierarchy.mem_accesses += c.hierarchy.mem_accesses;
        m.wpq_user_full_stalls += c.wpq.0.full_stalls;
        m.wpq_meta_full_stalls += c.wpq.1.full_stalls;
        m.wpq_coalesced += c.wpq.0.coalesced + c.wpq.1.coalesced;
        m.pcm.reads += c.pcm.reads;
        m.pcm.writes += c.pcm.writes;
        m.pcm.row_hits += c.pcm.row_hits;
        m.recovery_fetches += c.recovery_fetches;
    }
    // Fig. 9/10 style: normalise SCUE to Baseline per trace, then take
    // the mean over the workload's traces.
    let mut groups: Vec<usize> = modelled.iter().map(|c| c.group).collect();
    groups.sort_unstable();
    groups.dedup();
    let find = |g: usize, s: SchemeKind| modelled.iter().find(|c| c.group == g && c.scheme == s);
    let mut wlat = Vec::new();
    let mut exec = Vec::new();
    for &g in &groups {
        if let (Some(scue), Some(base)) = (find(g, SchemeKind::Scue), find(g, SchemeKind::Baseline))
        {
            wlat.push(ratio(
                scue.engine.mean_write_latency(),
                base.engine.mean_write_latency(),
            ));
            exec.push(ratio(scue.cycles as f64, base.cycles as f64));
        }
    }
    m.scue_wlat_norm = ratio(wlat.iter().sum(), wlat.len() as f64);
    m.scue_exec_norm = ratio(exec.iter().sum(), exec.len() as f64);
    m
}

fn summary(first: &Pass, model: &Model, model_ops: u64) -> String {
    let mut s = format!(
        "digest={:#018x} cycles={} model_ops={} persists={} hashes={} mdcache={}/{} \
         hier={}/{}/{}/{} pcm={}/{}/{}",
        first.digest,
        model.cycles,
        model_ops,
        model.engine.persists,
        model.engine.hashes,
        model.engine.mdcache.hits,
        model.engine.mdcache.misses,
        model.hierarchy.l1_hits,
        model.hierarchy.l2_hits,
        model.hierarchy.l3_hits,
        model.hierarchy.mem_accesses,
        model.pcm.reads,
        model.pcm.writes,
        model.pcm.row_hits
    );
    for (class, n) in &first.tallies {
        let _ = write!(s, " {class}={n}");
    }
    s
}

/// Sums one span's statistics over every parent it appears under.
fn span_sum(profile: &SpanProfile, name: &str) -> (u64, u64, u64) {
    profile
        .iter()
        .filter(|(_, n, _)| *n == name)
        .fold((0, 0, 0), |(calls, total, own), (_, _, s)| {
            (calls + s.calls, total + s.total_ns, own + s.self_ns)
        })
}

#[allow(clippy::too_many_arguments)]
fn per_layer(
    put: &mut impl FnMut(&str, f64),
    opts: &Options,
    setup: &Setup,
    untraced: &[Pass],
    traced: &[Pass],
    modelled: &[Modelled],
    model: &Model,
    model_ops: u64,
    ops: u64,
    cache: Option<(u64, f64)>,
) {
    let crash = opts.bench == Bench::CrashCampaign;
    let mut profile = SpanProfile::new();
    for p in traced {
        profile.merge(&p.profile);
    }
    let traced_ops = (ops * traced.len() as u64) as f64;
    let per_op = |v: u64| ratio(v as f64, traced_ops);
    let cases = if crash { traced_ops } else { 0.0 };

    let (_, _, runner_self) = span_sum(&profile, "bench.run_trace");
    put("sim.runner_self_ns_per_op", per_op(runner_self));
    let (_, _, case_self) = span_sum(&profile, "bench.run_case");
    put("sim.case_self_us", ratio(case_self as f64, cases) / 1e3);
    for scheme in SchemeKind::ALL {
        let per_pass: Vec<f64> = untraced
            .iter()
            .map(|p| setup.scheme_s(&p.cell_s, scheme))
            .collect();
        put(
            &format!("sim.host_ms.{}", metrics::scheme_token(scheme)),
            median(&per_pass) * 1e3,
        );
    }

    let h = &model.hierarchy;
    let accesses = h.l1_hits + h.l2_hits + h.l3_hits + h.mem_accesses;
    let (cache_calls, cache_s) = cache.unwrap_or((0, 0.0));
    put("cache.access_ns", ratio(cache_s * 1e9, cache_calls as f64));
    put(
        "cache.l1_hit_rate",
        ratio(h.l1_hits as f64, accesses as f64),
    );
    put(
        "cache.l2_hit_rate",
        ratio(h.l2_hits as f64, (accesses - h.l1_hits) as f64),
    );
    put(
        "cache.l3_hit_rate",
        ratio(h.l3_hits as f64, (accesses - h.l1_hits - h.l2_hits) as f64),
    );
    let mops = model_ops as f64;
    put(
        "cache.mem_accesses_per_op",
        ratio(h.mem_accesses as f64, mops),
    );
    put("cache.mdcache_hit_rate", model.engine.mdcache.hit_rate());

    for (span_name, calls_name, self_name) in [
        (
            "mdcache.lookup",
            "mdcache.lookup.calls_per_op",
            "mdcache.lookup.self_ns_per_op",
        ),
        (
            "engine.request",
            "engine.request.calls_per_op",
            "engine.request.self_ns_per_op",
        ),
        (
            "itree.walk",
            "itree.walk.calls_per_op",
            "itree.walk.self_ns_per_op",
        ),
        (
            "hmac.compute",
            "hmac.compute.calls_per_op",
            "hmac.compute.self_ns_per_op",
        ),
        (
            "wpq.persist",
            "wpq.persist.calls_per_op",
            "wpq.persist.self_ns_per_op",
        ),
    ] {
        let (calls, _, own) = span_sum(&profile, span_name);
        put(calls_name, per_op(calls));
        put(self_name, per_op(own));
    }
    let (enc_calls, _, enc_self) = span_sum(&profile, "codec.encode");
    let (dec_calls, _, dec_self) = span_sum(&profile, "codec.decode");
    put("codec.encode.calls_per_op", per_op(enc_calls));
    put("codec.decode.calls_per_op", per_op(dec_calls));
    put("codec.self_ns_per_op", per_op(enc_self + dec_self));

    let scue_writes = modelled
        .iter()
        .filter(|m| m.scheme == SchemeKind::Scue)
        .fold(EngineStats::default(), |mut acc, m| {
            merge_engine(&mut acc, &m.engine);
            acc
        });
    for scheme in SchemeKind::ALL {
        let mut lat = LatencyStats::default();
        for m in modelled.iter().filter(|m| m.scheme == scheme) {
            lat.merge(&m.engine.write_latency);
        }
        put(
            &format!("core.write_lat_mean_cyc.{}", metrics::scheme_token(scheme)),
            lat.mean(),
        );
    }
    put(
        "core.write_lat_p99_cyc",
        scue_writes.write_latency.p99() as f64,
    );
    put("core.read_lat_mean_cyc", scue_writes.read_latency.mean());
    put(
        "core.hashes_per_op",
        ratio(model.engine.hashes as f64, mops),
    );
    put(
        "core.persists_per_op",
        ratio(model.engine.persists as f64, mops),
    );

    let (_, recover_total, _) = span_sum(&profile, "engine.recover");
    put(
        "engine.recover.us_per_case",
        ratio(recover_total as f64, cases) / 1e3,
    );
    for (span_name, name) in [
        ("recovery.scan", "recovery.scan.self_ns"),
        ("recovery.sum", "recovery.sum.self_ns"),
        ("recovery.rehash", "recovery.rehash.self_ns"),
    ] {
        let (_, _, own) = span_sum(&profile, span_name);
        put(name, ratio(own as f64, cases));
    }
    put(
        "core.recovery_fetches_per_case",
        if crash {
            ratio(model.recovery_fetches as f64, modelled.len() as f64)
        } else {
            0.0
        },
    );

    let mem = &model.engine.mem;
    put("nvm.user_reads_per_op", ratio(mem.user_reads as f64, mops));
    put(
        "nvm.user_writes_per_op",
        ratio(mem.user_writes as f64, mops),
    );
    put("nvm.meta_reads_per_op", ratio(mem.meta_reads as f64, mops));
    put(
        "nvm.meta_writes_per_op",
        ratio(mem.meta_writes as f64, mops),
    );
    put(
        "nvm.wpq_user_full_stalls",
        model.wpq_user_full_stalls as f64,
    );
    put(
        "nvm.wpq_meta_full_stalls",
        model.wpq_meta_full_stalls as f64,
    );
    put("nvm.wpq_coalesced", model.wpq_coalesced as f64);
    put(
        "nvm.pcm_row_hit_rate",
        ratio(
            model.pcm.row_hits as f64,
            (model.pcm.reads + model.pcm.writes) as f64,
        ),
    );

    let allocs: u64 = traced.iter().map(|p| p.allocs).sum();
    let bytes: u64 = traced.iter().map(|p| p.alloc_bytes).sum();
    put("alloc.allocs_per_op", per_op(allocs));
    put("alloc.bytes_per_op", per_op(bytes));

    // Coverage: time under named program spans directly beneath the
    // benchmark's run_trace/run_case calls, plus the cache hierarchy's
    // time estimated from the standalone replay (the cache layer has
    // no span of its own).
    let measured = ["bench.run_trace", "bench.run_case"];
    let (mut under, mut whole) = (0u64, 0u64);
    for (parent, name, s) in profile.iter() {
        if measured.contains(&name) {
            whole += s.total_ns;
        }
        if measured.contains(&parent) {
            under += s.total_ns;
        }
    }
    let cache_ns = cache_s * 1e9 * SchemeKind::ALL.len() as f64 * traced.len() as f64;
    put(
        "trace.coverage_pct",
        ratio(under as f64 + cache_ns, whole as f64) * 100.0,
    );
    let plain = median(&untraced.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    let with = median(&traced.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    put("trace.overhead_pct", (ratio(with, plain) - 1.0) * 100.0);
}
