//! The trace-driven execution engine.
//!
//! An in-order core replays a [`Trace`] at IPC 1 for non-memory work and
//! blocks on loads; stores retire through the cache hierarchy and reach
//! the secure write path when dirty lines leave L3 or are explicitly
//! persisted (`clwb` + `sfence`). All the paper's metrics fall out:
//! execution time is the final cycle count (Fig. 10), per-persist write
//! latencies accumulate inside the engine (Fig. 9), and the
//! memory-access split comes from the controller stats (§V-E).

use crate::config::SystemConfig;
use scue::{CrashError, EngineStats, SecureMemory};
use scue_cache::{DataHierarchy, MemSide};
use scue_crypto::siphash::WordHasher;
use scue_crypto::SecretKey;
use scue_nvm::{Cycle, LineAddr, PcmCounters, WpqStats};
use scue_util::hash::FixedHashMap;
use scue_util::obs::{EpochSample, EpochSampler};
use scue_workloads::{MemOp, Trace};

/// One 64 B line.
pub type Line = [u8; 64];

/// Metrics from one trace replay.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Total execution cycles (Fig. 10's metric, pre-normalisation).
    pub cycles: Cycle,
    /// Secure-memory engine statistics (write latency, traffic, hashes).
    pub engine: EngineStats,
    /// Cache-hierarchy statistics.
    pub hierarchy: scue_cache::hierarchy::HierarchyStats,
    /// Trace operations replayed.
    pub ops: u64,
    /// Write-pending-queue statistics, `(user, metadata)`.
    pub wpq: (WpqStats, WpqStats),
    /// Raw PCM device counters (reads / writes / row-buffer hits).
    pub pcm: PcmCounters,
    /// Epoch time-series of gauges (empty unless
    /// [`System::set_sample_interval`] was called before the run).
    pub samples: Vec<EpochSample>,
    /// Events recorded by the engine's event trace (0 when tracing was
    /// never enabled).
    pub trace_recorded: u64,
    /// Events the bounded trace ring dropped — non-zero means the
    /// exported trace is a truncated suffix of the run.
    pub trace_dropped: u64,
}

impl RunResult {
    /// Mean write latency in cycles (Fig. 9's metric).
    pub fn mean_write_latency(&self) -> f64 {
        self.engine.mean_write_latency()
    }
}

/// The full system: cores + hierarchy + secure memory.
#[derive(Debug)]
pub struct System {
    engine: SecureMemory,
    hierarchy: DataHierarchy,
    /// Program-visible memory: the sequence number of the latest store
    /// to every stored line, from which [`System::store_content`] builds
    /// the writeback content (the hierarchy models timing only).
    program_mem: FixedHashMap<LineAddr, u64>,
    content_key: SecretKey,
    store_seq: u64,
    outstanding_persists: Vec<Cycle>,
    /// Completion cycles of in-flight posted writebacks; bounded like a
    /// hardware writeback buffer so the core feels back-pressure instead
    /// of racing unboundedly ahead of the memory system.
    outstanding_writebacks: Vec<Cycle>,
    now: Cycle,
    /// Epoch gauge sampler; `None` until a sample interval is set.
    sampler: Option<EpochSampler>,
}

/// Writeback-buffer depth: posted writes beyond this stall the core.
const WB_BUFFER_DEPTH: usize = 16;

impl System {
    /// Builds the system.
    pub fn new(cfg: SystemConfig) -> Self {
        Self {
            engine: SecureMemory::new(cfg.mem.clone()),
            hierarchy: DataHierarchy::new(cfg.hierarchy, cfg.cores),
            program_mem: FixedHashMap::default(),
            content_key: SecretKey::from_seed(0xC0DE),
            store_seq: 0,
            outstanding_persists: Vec::new(),
            outstanding_writebacks: Vec::new(),
            now: 0,
            sampler: None,
        }
    }

    /// Current cycle.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Snapshots WPQ occupancy and metadata-cache hit-rate every
    /// `interval` cycles from now on; the series lands in
    /// [`RunResult::samples`]. Replaces any previous sampler.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn set_sample_interval(&mut self, interval: u64) {
        self.sampler = Some(EpochSampler::new(interval));
    }

    /// Enables structured event tracing on the secure-memory engine with
    /// the given ring-buffer capacity (see [`SecureMemory::trace`]).
    pub fn enable_tracing(&mut self, capacity: usize) {
        self.engine.enable_tracing(capacity);
    }

    /// Advances the epoch sampler to `now`, snapshotting one gauge
    /// vector per crossed boundary (a no-op when time went backwards,
    /// as interleaved cores legitimately do).
    fn sample_gauges_upto(&mut self, now: Cycle) {
        let Self {
            sampler: Some(sampler),
            engine,
            ..
        } = self
        else {
            return;
        };
        sampler.sample_upto(now, |cycle| {
            let (user, meta) = engine.wpq_occupancy(cycle);
            let stats = engine.stats();
            vec![
                ("wpq_user_occupancy", user as f64),
                ("wpq_meta_occupancy", meta as f64),
                ("mdcache_hit_rate", stats.mdcache.hit_rate()),
                ("persists", stats.persists as f64),
                ("mem_accesses", stats.mem.total() as f64),
            ]
        });
    }

    /// The secure-memory engine (crash/recover/attack access).
    pub fn engine(&self) -> &SecureMemory {
        &self.engine
    }

    /// Mutable engine access.
    pub fn engine_mut(&mut self) -> &mut SecureMemory {
        &mut self.engine
    }

    /// Deterministic content for the `seq`-th store to `addr` — stands in
    /// for real program data without carrying bytes in the trace.
    fn store_content(&self, addr: LineAddr, seq: u64) -> Line {
        // Every lane hashes the same two leading words; absorb them once.
        let mut prefix = WordHasher::new(&self.content_key);
        prefix.write_u64(addr.raw());
        prefix.write_u64(seq);
        let mut line = [0u8; 64];
        for (bytes, lane) in line.chunks_exact_mut(8).zip(prefix.finish_lanes()) {
            bytes.copy_from_slice(&lane.to_le_bytes());
        }
        line
    }

    /// The program's current content of `addr`: its latest store, or
    /// zero if the program never stored to it.
    fn program_content(&self, addr: LineAddr) -> Line {
        self.program_mem
            .get(&addr)
            .map_or([0u8; 64], |&seq| self.store_content(addr, seq))
    }

    /// Posts a writeback at `now`, applying writeback-buffer
    /// back-pressure; returns the (possibly stalled) core time.
    fn writeback(&mut self, addr: LineAddr, mut now: Cycle) -> Result<Cycle, CrashError> {
        // Back-pressure: a full writeback buffer stalls the core until
        // the oldest posted write completes.
        self.outstanding_writebacks.retain(|&done| done > now);
        if self.outstanding_writebacks.len() >= WB_BUFFER_DEPTH {
            let oldest = self
                .outstanding_writebacks
                .iter()
                .copied()
                .min()
                .expect("buffer full");
            now = now.max(oldest);
            self.outstanding_writebacks.retain(|&done| done > now);
        }
        let content = self.program_content(addr);
        let done = self.engine.persist_data(addr, content, now)?;
        self.outstanding_writebacks.push(done);
        Ok(now)
    }

    /// Replays one operation for `core` at `now`, with per-core
    /// outstanding-persist tracking; returns the core's new time.
    fn exec_op(
        &mut self,
        op: &MemOp,
        core: usize,
        mut now: Cycle,
        outstanding: &mut Vec<Cycle>,
    ) -> Result<Cycle, CrashError> {
        match *op {
            MemOp::Compute(n) => {
                now += n as u64;
            }
            MemOp::Load(addr) => {
                let r = self.hierarchy.access(core, addr, false);
                now += r.latency;
                for wb in r.writebacks {
                    now = self.writeback(wb, now)?;
                }
                if r.served_by == MemSide::Memory {
                    now = self.engine.fill_data(addr, now)?;
                }
            }
            MemOp::Store(addr) => {
                let r = self.hierarchy.access(core, addr, true);
                now += r.latency;
                for wb in r.writebacks {
                    now = self.writeback(wb, now)?;
                }
                if r.served_by == MemSide::Memory {
                    // Write-allocate: the fill read is on the store path
                    // but the store itself retires into L1.
                    now = self.engine.fill_data(addr, now)?;
                }
                self.program_mem.insert(addr, self.store_seq);
                self.store_seq += 1;
            }
            MemOp::Persist(addr) => {
                now += 2; // clwb issue
                if let Some(dirty) = self.hierarchy.flush_line(core, addr) {
                    let content = self.program_content(dirty);
                    let done = self.engine.persist_data(dirty, content, now)?;
                    outstanding.push(done);
                }
            }
            MemOp::Fence => {
                let horizon = outstanding.drain(..).max().unwrap_or(now);
                now = now.max(horizon);
            }
        }
        Ok(now)
    }

    /// Replays one operation on core 0 against the system clock.
    fn step(&mut self, op: &MemOp, core: usize) -> Result<(), CrashError> {
        let mut outstanding = std::mem::take(&mut self.outstanding_persists);
        let result = self.exec_op(op, core, self.now, &mut outstanding);
        self.outstanding_persists = outstanding;
        self.now = result?;
        self.sample_gauges_upto(self.now);
        Ok(())
    }

    /// Replays a whole trace to completion (including the final
    /// writeback of dirty cache lines) and reports the metrics.
    ///
    /// # Errors
    ///
    /// Propagates any integrity violation the secure engine detects.
    pub fn run_trace(&mut self, trace: &Trace) -> Result<RunResult, CrashError> {
        for op in &trace.ops {
            self.step(op, 0)?;
        }
        self.drain()?;
        Ok(self.result(trace.ops.len() as u64))
    }

    /// Replays the trace until `stop_at` cycles, returning the number of
    /// ops consumed — the crash-injection entry point.
    ///
    /// # Errors
    ///
    /// Propagates any integrity violation detected before the stop.
    pub fn run_until(&mut self, trace: &Trace, stop_at: Cycle) -> Result<usize, CrashError> {
        for (i, op) in trace.ops.iter().enumerate() {
            if self.now >= stop_at {
                return Ok(i);
            }
            self.step(op, 0)?;
        }
        Ok(trace.ops.len())
    }

    /// Replays one trace per core concurrently (Table II's 8-core
    /// configuration): each core advances its own clock and the cores
    /// interleave through the shared L3, metadata cache and PCM banks in
    /// global time order. Returns the metrics with `cycles` = the time
    /// the last core finished.
    ///
    /// # Errors
    ///
    /// Propagates the first integrity violation any core detects.
    ///
    /// # Panics
    ///
    /// Panics if more traces than cores are supplied.
    pub fn run_traces(&mut self, traces: &[Trace]) -> Result<RunResult, CrashError> {
        assert!(
            traces.len() <= self.hierarchy.cores(),
            "{} traces but only {} cores",
            traces.len(),
            self.hierarchy.cores()
        );
        struct CoreState {
            now: Cycle,
            next_op: usize,
            outstanding: Vec<Cycle>,
        }
        let mut cores: Vec<CoreState> = traces
            .iter()
            .map(|_| CoreState {
                now: self.now,
                next_op: 0,
                outstanding: Vec::new(),
            })
            .collect();
        let mut total_ops = 0u64;
        loop {
            // Globally time-ordered interleaving: the laggard core steps.
            let Some(core) = cores
                .iter()
                .enumerate()
                .filter(|(i, c)| c.next_op < traces[*i].ops.len())
                .min_by_key(|(_, c)| c.now)
                .map(|(i, _)| i)
            else {
                break;
            };
            let op = &traces[core].ops[cores[core].next_op];
            let mut outstanding = std::mem::take(&mut cores[core].outstanding);
            let now = self.exec_op(op, core, cores[core].now, &mut outstanding)?;
            cores[core].outstanding = outstanding;
            cores[core].now = now;
            cores[core].next_op += 1;
            total_ops += 1;
            // Sample only up to the globally committed time: epochs past
            // the slowest core could still see state changes.
            let floor = cores.iter().map(|c| c.now).min().unwrap_or(now);
            self.sample_gauges_upto(floor);
        }
        self.now = cores.iter().map(|c| c.now).max().unwrap_or(self.now);
        self.drain()?;
        Ok(self.result(total_ops))
    }

    /// Flushes all dirty cache lines through the secure write path.
    ///
    /// # Errors
    ///
    /// Propagates engine integrity violations.
    pub fn drain(&mut self) -> Result<(), CrashError> {
        for addr in self.hierarchy.flush_all_dirty() {
            let now = self.now;
            self.now = self.writeback(addr, now)?;
        }
        let horizon = self.outstanding_persists.drain(..).max().unwrap_or(0);
        self.now = self.now.max(horizon);
        self.sample_gauges_upto(self.now);
        Ok(())
    }

    /// Crashes the machine at the current cycle: cache contents vanish
    /// (or flush, under eADR — the engine's config decides), the WPQ
    /// drains, roots survive.
    pub fn crash(&mut self) {
        self.hierarchy.discard_all();
        self.engine.crash(self.now);
    }

    /// Builds the result snapshot at the current cycle — what
    /// `run_trace`/`run_traces` return, but callable mid-flight too
    /// (the crash path snapshots after `run_until`).
    pub fn snapshot(&self, ops: u64) -> RunResult {
        RunResult {
            cycles: self.now,
            engine: self.engine.stats(),
            hierarchy: self.hierarchy.stats(),
            ops,
            wpq: self.engine.wpq_stats(),
            pcm: self.engine.pcm_counters(),
            samples: self
                .sampler
                .as_ref()
                .map(|s| s.samples().to_vec())
                .unwrap_or_default(),
            trace_recorded: self.engine.trace().recorded(),
            trace_dropped: self.engine.trace().dropped(),
        }
    }

    /// Builds the result snapshot.
    fn result(&self, ops: u64) -> RunResult {
        self.snapshot(ops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scue::{RecoveryOutcome, SchemeKind};
    use scue_workloads::Workload;

    fn run(scheme: SchemeKind, workload: Workload, scale: usize) -> RunResult {
        let trace = workload.generate(scale, 7);
        let mut system = System::new(SystemConfig::fast(scheme));
        system.run_trace(&trace).unwrap()
    }

    #[test]
    fn every_scheme_runs_every_workload_family() {
        for scheme in SchemeKind::ALL {
            for workload in [Workload::Array, Workload::Mcf] {
                let r = run(scheme, workload, 300);
                assert!(r.cycles > 0, "{scheme} {workload}");
                assert!(r.ops > 0);
            }
        }
    }

    #[test]
    fn persistent_workload_records_write_latencies() {
        let r = run(SchemeKind::Scue, Workload::Queue, 500);
        assert!(r.engine.write_latency.count() > 0);
        assert!(r.mean_write_latency() > 0.0);
    }

    #[test]
    fn spec_workload_generates_memory_traffic() {
        let r = run(SchemeKind::Scue, Workload::Lbm, 2_000);
        assert!(r.engine.mem.total() > 0);
        assert!(r.hierarchy.mem_accesses > 0);
    }

    #[test]
    fn baseline_is_fastest() {
        let base = run(SchemeKind::Baseline, Workload::Array, 500);
        let plp = run(SchemeKind::Plp, Workload::Array, 500);
        assert!(
            plp.cycles > base.cycles,
            "PLP {} vs Baseline {}",
            plp.cycles,
            base.cycles
        );
    }

    #[test]
    fn crash_mid_run_then_recover_scue() {
        let trace = Workload::Queue.generate(2_000, 3);
        let mut system = System::new(SystemConfig::fast(SchemeKind::Scue));
        let consumed = system.run_until(&trace, 50_000).unwrap();
        assert!(consumed > 0);
        system.crash();
        let report = system.engine_mut().recover();
        assert_eq!(report.outcome, RecoveryOutcome::Clean);
    }

    #[test]
    fn crash_mid_run_lazy_fails() {
        let trace = Workload::Queue.generate(2_000, 3);
        let mut system = System::new(SystemConfig::fast(SchemeKind::Lazy));
        system.run_until(&trace, 50_000).unwrap();
        system.crash();
        let report = system.engine_mut().recover();
        assert_eq!(report.outcome, RecoveryOutcome::RootMismatch);
    }

    #[test]
    fn run_until_consumes_whole_trace_when_limit_high() {
        let trace = Workload::Array.generate(100, 1);
        let mut system = System::new(SystemConfig::fast(SchemeKind::Baseline));
        let consumed = system.run_until(&trace, u64::MAX).unwrap();
        assert_eq!(consumed, trace.ops.len());
    }

    #[test]
    fn sampler_collects_full_epoch_series() {
        let trace = Workload::Queue.generate(500, 7);
        let mut system = System::new(SystemConfig::fast(SchemeKind::Scue));
        system.set_sample_interval(1_000);
        let r = system.run_trace(&trace).unwrap();
        assert_eq!(
            r.samples.len() as u64,
            r.cycles / 1_000,
            "one sample per crossed epoch boundary"
        );
        let last = r.samples.last().unwrap();
        for gauge in ["wpq_user_occupancy", "mdcache_hit_rate", "persists"] {
            assert!(
                last.gauges.iter().any(|&(n, _)| n == gauge),
                "missing gauge {gauge}"
            );
        }
    }

    #[test]
    fn no_sampler_means_no_samples() {
        let r = run(SchemeKind::Scue, Workload::Array, 200);
        assert!(r.samples.is_empty());
    }

    #[test]
    fn tracing_through_system_captures_persists() {
        let trace = Workload::Queue.generate(300, 7);
        let mut system = System::new(SystemConfig::fast(SchemeKind::Scue));
        system.enable_tracing(4096);
        system.run_trace(&trace).unwrap();
        assert!(system.engine().trace().recorded() > 0);
    }

    #[test]
    fn store_content_is_deterministic_per_seq() {
        let system = System::new(SystemConfig::fast(SchemeKind::Baseline));
        let a = system.store_content(LineAddr::new(5), 1);
        let b = system.store_content(LineAddr::new(5), 1);
        let c = system.store_content(LineAddr::new(5), 2);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    /// Reference content: every lane hashes all three words from a
    /// fresh state.
    fn store_content_per_lane(system: &System, addr: LineAddr, seq: u64) -> Line {
        let mut line = [0u8; 64];
        for lane in 0..8 {
            let mut h = WordHasher::new(&system.content_key);
            h.write_u64(addr.raw());
            h.write_u64(seq);
            h.write_u64(lane as u64);
            line[lane * 8..(lane + 1) * 8].copy_from_slice(&h.finish().to_le_bytes());
        }
        line
    }

    #[test]
    fn shared_prefix_content_matches_per_lane_reference() {
        use scue_util::prop::{self, prelude::*};
        let system = System::new(SystemConfig::fast(SchemeKind::Baseline));
        prop::run(
            &ProptestConfig::with_cases(256),
            "shared_prefix_content_matches_per_lane_reference",
            &(any::<u64>(), any::<u64>()),
            |(addr, seq)| {
                let addr = LineAddr::new(addr);
                prop_assert_eq!(
                    system.store_content(addr, seq),
                    store_content_per_lane(&system, addr, seq)
                );
                Ok(())
            },
        );
    }

    #[test]
    fn drain_flushes_all_dirty_lines() {
        let mut system = System::new(SystemConfig::fast(SchemeKind::Scue));
        let mut trace = Trace::new("t");
        for i in 0..50 {
            trace.ops.push(MemOp::Store(LineAddr::new(i)));
        }
        let r = system.run_trace(&trace).unwrap();
        assert_eq!(r.engine.persists, 50, "every stored line must persist");
    }
}

#[cfg(test)]
mod multicore_tests {
    use super::*;
    use crate::config::SystemConfig;
    use scue::{RecoveryOutcome, SchemeKind};
    use scue_workloads::Workload;

    #[test]
    fn eight_cores_run_eight_traces() {
        let traces: Vec<Trace> = (0..8)
            .map(|i| Workload::Omnetpp.generate(300, 100 + i))
            .collect();
        let mut system = System::new(SystemConfig::fast(SchemeKind::Scue).with_cores(8));
        let r = system.run_traces(&traces).unwrap();
        assert_eq!(r.ops as usize, traces.iter().map(Trace::len).sum::<usize>());
        assert!(r.cycles > 0);
    }

    #[test]
    fn multicore_matches_singlecore_for_one_trace() {
        let trace = Workload::Array.generate(400, 5);
        let mut a = System::new(SystemConfig::fast(SchemeKind::Scue));
        let ra = a.run_trace(&trace).unwrap();
        let mut b = System::new(SystemConfig::fast(SchemeKind::Scue));
        let rb = b.run_traces(std::slice::from_ref(&trace)).unwrap();
        assert_eq!(ra.cycles, rb.cycles);
        assert_eq!(ra.engine.persists, rb.engine.persists);
    }

    #[test]
    fn contention_slows_cores_down() {
        // Distinct traces: no constructive L3 sharing, pure bank and
        // metadata contention.
        let traces: Vec<Trace> = (0..4).map(|i| Workload::Mcf.generate(800, 9 + i)).collect();
        let mut solo = System::new(SystemConfig::fast(SchemeKind::Scue).with_cores(4));
        let solo_cycles = solo
            .run_traces(std::slice::from_ref(&traces[0]))
            .unwrap()
            .cycles;
        let mut loaded = System::new(SystemConfig::fast(SchemeKind::Scue).with_cores(4));
        let loaded_cycles = loaded.run_traces(&traces).unwrap().cycles;
        assert!(
            loaded_cycles > solo_cycles,
            "four contending cores ({loaded_cycles}) must be slower than one ({solo_cycles})"
        );
    }

    #[test]
    fn identical_traces_share_the_l3() {
        // The flip side: cores marching through the same address stream
        // amortise fills in the shared L3.
        let trace = Workload::Mcf.generate(800, 9);
        let mut solo = System::new(SystemConfig::fast(SchemeKind::Scue).with_cores(4));
        let solo_misses = solo
            .run_traces(std::slice::from_ref(&trace))
            .unwrap()
            .hierarchy
            .mem_accesses;
        let traces: Vec<Trace> = (0..4).map(|_| trace.clone()).collect();
        let mut loaded = System::new(SystemConfig::fast(SchemeKind::Scue).with_cores(4));
        let loaded_misses = loaded.run_traces(&traces).unwrap().hierarchy.mem_accesses;
        assert!(
            loaded_misses < solo_misses * 4,
            "shared fills must cut per-core memory traffic"
        );
    }

    #[test]
    fn multicore_sampling_is_monotonic_and_complete() {
        let traces: Vec<Trace> = (0..4)
            .map(|i| Workload::Mcf.generate(400, 20 + i))
            .collect();
        let mut system = System::new(SystemConfig::fast(SchemeKind::Scue).with_cores(4));
        system.set_sample_interval(500);
        let r = system.run_traces(&traces).unwrap();
        assert_eq!(r.samples.len() as u64, r.cycles / 500);
        for pair in r.samples.windows(2) {
            assert!(pair[0].cycle < pair[1].cycle);
        }
    }

    #[test]
    fn multicore_crash_recovery() {
        let traces: Vec<Trace> = (0..4)
            .map(|i| Workload::Queue.generate(500, 50 + i))
            .collect();
        let mut system = System::new(SystemConfig::fast(SchemeKind::Scue).with_cores(4));
        system.run_traces(&traces).unwrap();
        system.crash();
        assert_eq!(
            system.engine_mut().recover().outcome,
            RecoveryOutcome::Clean
        );
    }

    #[test]
    #[should_panic(expected = "cores")]
    fn too_many_traces_rejected() {
        let traces: Vec<Trace> = (0..3).map(|i| Workload::Array.generate(10, i)).collect();
        let mut system = System::new(SystemConfig::fast(SchemeKind::Scue).with_cores(2));
        let _ = system.run_traces(&traces);
    }
}
