//! The secure-memory engine: one functional+timing machine, eleven schemes.
//!
//! All schemes share a single functional layer — counter-mode encryption,
//! write-through leaf counter blocks (Supermem-style, which the paper
//! cites as the compatible counter-consistency mechanism), data MACs in
//! the ECC sideband, and a uniform flush rule for intermediate SIT nodes
//! (*parent counter := child's dummy counter; child MAC keyed by it*).
//! What distinguishes the schemes is **when work happens and what the
//! persistent trust base is**:
//!
//! * timing policy — which metadata reads, hashes and persists sit on the
//!   write critical path (this produces Figs. 9–12);
//! * root policy — whether/when the on-chip root learns about a persist
//!   (this produces the crash-window behaviour of Fig. 5 and the recovery
//!   outcomes of §III-B).
//!
//! Both are read from the scheme's [`SchemeSpec`](crate::config::SchemeSpec);
//! the engine never names a scheme.
//!
//! The functional layer is deliberately identical across secure schemes —
//! including the dummy-counter MAC convention that makes SIT
//! reconstructable. The paper's Lazy/Eager SIT cannot be rebuilt at all
//! (§III-D); granting them reconstructability makes our comparison
//! *conservative*: they still fail recovery, purely from root crash
//! inconsistency, which is the paper's headline problem.

use crate::config::{
    HashSchedule, RootDiscipline, RootPolicy, SchemeKind, SecureMemConfig, TreeUpdate,
};
use crate::durable::{CheckpointError, CheckpointReport, DurableMeta, DurableOpenError};
use crate::meta::MetaEntry;
use crate::recovery::{self, RecoveryOutcome, RecoveryReport};
use crate::stats::EngineStats;
use scue_cache::{Eviction, MetadataCache};
use scue_crypto::cme::{self, CounterBlock, IncrementOutcome};
use scue_crypto::engine::HashEngine;
use scue_crypto::hmac::{bmt_child_hmac, data_line_hmac};
use scue_crypto::SecretKey;
use scue_itree::geometry::{NodeId, Parent, MAX_STORED_LEVELS};
use scue_itree::{MacSideband, RootRegister, SitContext, SitNode};
use scue_nvm::wpq::Enqueued;
use scue_nvm::{AccessKind, Cycle, FaultPlan, FaultRecord, LineAddr, MemoryController};
use scue_util::hash::FixedHashMap;
use scue_util::obs::{span, EventKind, EventTrace};

/// One 64 B line of data.
pub type Line = [u8; 64];

/// Representative baseline write-request latency (queue wait + PCM
/// service at the evaluation's load level) added to every recorded
/// write-latency sample. Fig. 9's metric is the *scheme-added* latency
/// beyond the data write's own acceptance, on top of this common floor;
/// measuring raw media-completion times instead lets congestion feedback
/// (a slower scheme submits writes more slowly, so its queues look
/// emptier) invert the comparison — see EXPERIMENTS.md.
const BASELINE_WRITE_SERVICE: u64 = 450;

/// Latency of updating a BMF-ideal persistent root in the non-volatile
/// metadata cache: an on-chip NV-register-array write, serialized after
/// the parent-MAC hash (§VI — nvMC must be NV registers, not SRAM).
const NVMC_WRITE_CYCLES: u64 = 60;

/// An integrity-verification failure: tampering detected at run time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntegrityError {
    /// The line whose verification failed.
    pub addr: LineAddr,
    /// What failed.
    pub what: &'static str,
}

impl std::fmt::Display for IntegrityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "integrity violation at {}: {}", self.addr, self.what)
    }
}

impl std::error::Error for IntegrityError {}

/// Any failure the engine can report instead of serving a request.
///
/// Detected tampering is a *classifiable result*, not a process abort:
/// harnesses (the attack matrix, the torture campaign) match on this
/// enum to tell "the scheme caught it" from "the harness is misusing the
/// machine".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashError {
    /// Integrity verification failed: tampering (or an injected fault)
    /// was detected.
    Integrity(IntegrityError),
    /// The machine is in the crashed state; call
    /// [`SecureMemory::recover`] before issuing requests.
    MachineCrashed,
    /// The metadata cache is configured too small to retain one branch
    /// node long enough to operate on it.
    CacheExhausted {
        /// Tree level of the node that could not be retained.
        level: u8,
        /// Index of the node within its level.
        index: u64,
    },
}

impl CrashError {
    /// The underlying integrity error, if this is a detection.
    pub fn as_integrity(&self) -> Option<IntegrityError> {
        match self {
            CrashError::Integrity(e) => Some(*e),
            _ => None,
        }
    }
}

impl From<IntegrityError> for CrashError {
    fn from(e: IntegrityError) -> Self {
        CrashError::Integrity(e)
    }
}

impl std::fmt::Display for CrashError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CrashError::Integrity(e) => e.fmt(f),
            CrashError::MachineCrashed => {
                write!(f, "machine is crashed; call recover() first")
            }
            CrashError::CacheExhausted { level, index } => write!(
                f,
                "metadata cache cannot retain L{level}#{index}; configure a larger cache"
            ),
        }
    }
}

impl std::error::Error for CrashError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CrashError::Integrity(e) => Some(e),
            _ => None,
        }
    }
}

/// A root update still inside its crash window (Eager/PLP).
#[derive(Debug, Clone, Copy)]
struct PendingRoot {
    done: Cycle,
    slot: usize,
    delta: u64,
}

/// The secure-memory engine. See the crate docs for an end-to-end
/// example.
#[derive(Debug, Clone)]
pub struct SecureMemory {
    cfg: SecureMemConfig,
    ctx: SitContext,
    mc: MemoryController,
    sideband: MacSideband,
    mdcache: MetadataCache<MetaEntry>,
    hash: HashEngine,
    /// The (single) on-chip root for Lazy/Eager/PLP; SCUE's Running_root.
    running_root: RootRegister,
    /// SCUE's instantaneously-updated Recovery_root.
    recovery_root: RootRegister,
    /// BMF-ideal's persistent roots: leaf index → MAC of leaf content,
    /// held in the unlimited non-volatile metadata cache.
    nvmc: FixedHashMap<u64, u64>,
    pending_root: Vec<PendingRoot>,
    /// Victim buffer: evicted *dirty* metadata parked until the end of
    /// the current operation. Fetches consult it before NVM, so an
    /// in-flight flush can never be observed half-applied; the drain at
    /// operation end performs the actual fetch-free flushes.
    victims: Vec<(LineAddr, MetaEntry)>,
    crashed: bool,
    stats: EngineStats,
    /// Structured event trace; disabled by default ([`EventTrace::record`]
    /// is then a single branch — see the obs overhead bench).
    trace: EventTrace,
}

impl SecureMemory {
    /// Builds an engine from a configuration.
    pub fn new(cfg: SecureMemConfig) -> Self {
        Self::with_store(cfg, scue_nvm::NvmStore::new())
    }

    /// Builds an engine over an explicit NVM store — the durable path
    /// hands a file-backed store in; everything else is identical.
    fn with_store(cfg: SecureMemConfig, store: scue_nvm::NvmStore) -> Self {
        let key = SecretKey::from_seed(cfg.key_seed);
        let ctx = SitContext::new(cfg.geometry.clone(), key);
        let mc = MemoryController::new(
            store,
            scue_nvm::timing::PcmDevice::paper(),
            cfg.user_wpq,
            cfg.meta_wpq,
        );
        let mdcache = MetadataCache::with_bytes(cfg.mdcache_bytes, cfg.mdcache_ways);
        let hash = HashEngine::with_ports(cfg.hash_latency, cfg.hash_ports);
        Self {
            cfg,
            ctx,
            mc,
            sideband: MacSideband::new(),
            mdcache,
            hash,
            running_root: RootRegister::new(),
            recovery_root: RootRegister::new(),
            nvmc: FixedHashMap::default(),
            pending_root: Vec::new(),
            victims: Vec::new(),
            crashed: false,
            stats: EngineStats::default(),
            trace: EventTrace::disabled(),
        }
    }

    // ------------------------------------------------------------------
    // Durable images (file-backed store + checkpoints)
    // ------------------------------------------------------------------

    /// Creates a fresh durable image at `path` and seals an initial
    /// checkpoint so the file is openable even if the process dies
    /// before the first explicit [`Self::checkpoint`].
    pub fn create_durable(
        cfg: SecureMemConfig,
        path: &std::path::Path,
    ) -> Result<Self, DurableOpenError> {
        let store = scue_nvm::NvmStore::create_file(path)?;
        let mut engine = Self::with_store(cfg, store);
        engine
            .commit_checkpoint(0)
            .map_err(|e| DurableOpenError::Image(scue_nvm::OpenError::Io(e)))?;
        Ok(engine)
    }

    /// Opens a durable image sealed by a previous process.
    ///
    /// The engine comes back *crashed*: the image plus the checkpointed
    /// roots/MACs survived power loss, but the volatile metadata cache
    /// and in-flight state did not — callers must run
    /// [`Self::recover`] before serving accesses, exactly as after a
    /// simulated crash.
    pub fn open_durable(
        cfg: SecureMemConfig,
        path: &std::path::Path,
    ) -> Result<Self, DurableOpenError> {
        let store = scue_nvm::NvmStore::open_file(path)?;
        let meta = DurableMeta::decode(&store.meta())?;
        meta.validate(&cfg)?;
        let mut engine = Self::with_store(cfg, store);
        for (slot, &c) in meta.running_root.iter().enumerate() {
            engine.running_root.set(slot, c);
        }
        for (slot, &c) in meta.recovery_root.iter().enumerate() {
            engine.recovery_root.set(slot, c);
        }
        for &(addr, mac) in &meta.sideband {
            engine.sideband.set(LineAddr::new(addr), mac);
        }
        engine.nvmc = meta.nvmc.iter().copied().collect();
        engine.crashed = true;
        Ok(engine)
    }

    /// Seals a checkpoint: barriers both WPQs so every accepted write
    /// reaches the image, serializes roots + sideband + NVMC as the
    /// checkpoint metadata, and commits a new generation atomically.
    ///
    /// The checkpoint captures ADR crash-at-`now` semantics — pending
    /// root propagation not finished by `now` is *not* folded in, and
    /// the metadata cache is not flushed — so an engine reopened from
    /// the image behaves exactly like one that crashed at `now`.
    pub fn checkpoint(&mut self, now: Cycle) -> Result<CheckpointReport, CheckpointError> {
        if self.crashed {
            return Err(CheckpointError::Crashed);
        }
        Ok(self.commit_checkpoint(now)?)
    }

    fn commit_checkpoint(&mut self, now: Cycle) -> Result<CheckpointReport, scue_nvm::IoError> {
        self.settle_pending(now);
        let meta = DurableMeta::capture(
            &self.cfg,
            self.running_root.counters(),
            self.recovery_root.counters(),
            self.sideband.iter().map(|(a, m)| (a.raw(), m)),
            self.nvmc.iter().map(|(&k, &v)| (k, v)),
        )
        .encode();
        let (generation, flushed_at) = self.mc.checkpoint(now, &meta)?;
        Ok(CheckpointReport {
            generation,
            flushed_at,
        })
    }

    /// Generation of the newest committed checkpoint (durable stores).
    pub fn image_generation(&self) -> u64 {
        self.mc.store().generation()
    }

    /// Whether opening the image fell back past a torn/corrupt newest
    /// root slot to the previous checkpoint.
    pub fn image_fell_back(&self) -> bool {
        self.mc.store().fell_back()
    }

    /// Turns on event tracing with a ring buffer of `capacity` events.
    pub fn enable_tracing(&mut self, capacity: usize) {
        self.trace.enable(capacity);
    }

    /// The event trace (empty unless [`Self::enable_tracing`] was called).
    pub fn trace(&self) -> &EventTrace {
        &self.trace
    }

    /// WPQ occupancy `(user, metadata)` at `now` — the gauge the epoch
    /// sampler snapshots.
    pub fn wpq_occupancy(&self, now: Cycle) -> (usize, usize) {
        self.mc.wpq_occupancy(now)
    }

    /// WPQ lifetime statistics `(user, metadata)`.
    pub fn wpq_stats(&self) -> (scue_nvm::WpqStats, scue_nvm::WpqStats) {
        self.mc.wpq_stats()
    }

    /// PCM device access counters.
    pub fn pcm_counters(&self) -> scue_nvm::PcmCounters {
        self.mc.device().counters()
    }

    /// Records a tamper injection from the attack harness.
    pub(crate) fn note_tamper(&mut self, addr: LineAddr, what: &'static str) {
        self.trace.record(
            0,
            EventKind::TamperInjected {
                addr: addr.raw(),
                what,
            },
        );
    }

    /// Routes a write through the controller, emitting WPQ trace events
    /// when tracing is on. All engine write traffic goes through here.
    fn mc_write(&mut self, addr: LineAddr, line: Line, now: Cycle, kind: AccessKind) -> Enqueued {
        if !self.trace.is_enabled() {
            return self.mc.write(addr, line, now, kind);
        }
        let meta = kind == AccessKind::Metadata;
        let stalls_before = {
            let (u, m) = self.mc.wpq_stats();
            u.full_stalls + m.full_stalls
        };
        let e = self.mc.write(addr, line, now, kind);
        let stalls_after = {
            let (u, m) = self.mc.wpq_stats();
            u.full_stalls + m.full_stalls
        };
        self.trace.record(
            now,
            EventKind::WpqEnqueue {
                addr: addr.raw(),
                meta,
            },
        );
        if stalls_after > stalls_before {
            self.trace.record(
                now,
                EventKind::WpqStall {
                    meta,
                    waited: e.accepted.saturating_sub(now),
                },
            );
        }
        self.trace.record(
            e.accepted,
            EventKind::WpqDrain {
                addr: addr.raw(),
                meta,
                at: e.drained,
            },
        );
        e
    }

    /// The configuration in force.
    pub fn config(&self) -> &SecureMemConfig {
        &self.cfg
    }

    /// The active scheme.
    pub fn scheme(&self) -> SchemeKind {
        self.cfg.scheme
    }

    /// The SIT context (geometry + key).
    pub fn context(&self) -> &SitContext {
        &self.ctx
    }

    /// Aggregated statistics.
    pub fn stats(&self) -> EngineStats {
        let mut s = self.stats;
        s.mem = self.mc.stats();
        s.hashes = self.hash.issued();
        s.mdcache = self.mdcache.stats();
        s
    }

    /// The running root (trust base during execution).
    pub fn running_root(&self) -> &RootRegister {
        &self.running_root
    }

    /// SCUE's Recovery_root.
    pub fn recovery_root(&self) -> &RootRegister {
        &self.recovery_root
    }

    /// Whether the machine is in the crashed (pre-recovery) state.
    pub fn is_crashed(&self) -> bool {
        self.crashed
    }

    /// Direct view of the NVM image (attack injection, inspection).
    pub fn store(&self) -> &scue_nvm::NvmStore {
        self.mc.store()
    }

    /// Mutable view of the NVM image (attack injection).
    pub fn store_mut(&mut self) -> &mut scue_nvm::NvmStore {
        self.mc.store_mut()
    }

    /// The MAC sideband (attack injection, inspection).
    pub fn sideband(&self) -> &MacSideband {
        &self.sideband
    }

    /// Mutable MAC sideband (attack injection).
    pub fn sideband_mut(&mut self) -> &mut MacSideband {
        &mut self.sideband
    }

    /// BMF-ideal's persistent-root store (leaf index → MAC).
    pub fn nvmc_len(&self) -> usize {
        self.nvmc.len()
    }

    // ------------------------------------------------------------------
    // Root settlement (the crash window)
    // ------------------------------------------------------------------

    /// Applies root updates whose propagation completed by `now`.
    fn settle_pending(&mut self, now: Cycle) {
        let root = &mut self.running_root;
        self.pending_root.retain(|p| {
            if p.done <= now {
                root.add(p.slot, p.delta);
                false
            } else {
                true
            }
        });
    }

    /// Root updates still inside their crash window at `now`.
    pub fn pending_root_updates(&self, now: Cycle) -> usize {
        self.pending_root.iter().filter(|p| p.done > now).count()
    }

    /// The *logical* root counter visible to on-chip verification: the
    /// register plus in-flight propagations. The pending set models only
    /// the crash window — hardware state that a power failure loses, but
    /// that run-time verification on chip observes normally.
    fn effective_root_counter(&self, slot: usize) -> u64 {
        let pending: u64 = self
            .pending_root
            .iter()
            .filter(|p| p.slot == slot)
            .map(|p| p.delta)
            .fold(0u64, |a, d| a.wrapping_add(d));
        self.running_root.counter(slot).wrapping_add(pending) & scue_itree::COUNTER_MASK
    }

    // ------------------------------------------------------------------
    // Metadata-cache plumbing
    // ------------------------------------------------------------------

    fn meta_addr(&self, node: NodeId) -> LineAddr {
        self.ctx.geometry().node_addr(node)
    }

    /// Parks a dirty eviction victim in the buffer (clean victims are
    /// simply dropped — NVM already has their content).
    fn buffer_victim(&mut self, victim: Option<Eviction<MetaEntry>>, now: Cycle) {
        if let Some(ev) = victim {
            self.trace.record(
                now,
                EventKind::MdCacheEvict {
                    addr: ev.addr.raw(),
                    dirty: ev.dirty,
                },
            );
            if ev.dirty {
                self.victims.push((ev.addr, ev.value));
            }
        }
    }

    /// Takes a buffered victim back out (a victim-buffer hit on fetch).
    fn take_victim(&mut self, addr: LineAddr) -> Option<MetaEntry> {
        let idx = self.victims.iter().position(|(a, _)| *a == addr)?;
        Some(self.victims.swap_remove(idx).1)
    }

    /// Drains the victim buffer: every parked entry is flushed with the
    /// fetch-free atomic flush. Returns the completion cycle of the flush
    /// work — schemes whose `drain_gates_ack` is set take it on the write
    /// critical path; SCUE's dummy counter keeps it off (§IV-A2).
    fn drain_victims(&mut self, now: Cycle) -> Cycle {
        let mut done = now;
        while let Some((addr, entry)) = self.victims.pop() {
            done = done.max(self.flush_entry(addr, entry, now));
        }
        done
    }

    /// Flushes one metadata entry to NVM. *Atomic*: performs no cache
    /// fetches, so no verification or further eviction can interleave
    /// with the child-MAC / parent-counter pair update.
    fn flush_entry(&mut self, addr: LineAddr, entry: MetaEntry, now: Cycle) -> Cycle {
        let mut done = now;
        match entry {
            MetaEntry::Leaf(block) => {
                if !self.cfg.scheme.is_secure() {
                    // Baseline: plain counter writeback, no MACs.
                    let e = self.mc_write(addr, block.to_line(), now, AccessKind::Metadata);
                    return done.max(e.accepted);
                }
                // Secure schemes write leaves through on persist, so a
                // dirty cached leaf only arises transiently; flush it
                // like a persist would.
                let dummy = self.ctx.leaf_dummy(&block);
                let node = self
                    .ctx
                    .geometry()
                    .node_at_addr(addr)
                    .expect("cached leaf has a node id");
                let mac = self.ctx.leaf_mac(node, &block, dummy);
                done = done.max(self.hash.parallel_latency(now, 1));
                let e = self.mc_write(addr, block.to_line(), now, AccessKind::Metadata);
                done = done.max(e.accepted);
                self.sideband.set(addr, mac);
                done = done.max(self.propagate_flush(node, dummy, now));
            }
            MetaEntry::Node(mut node_val) => {
                let node = self
                    .ctx
                    .geometry()
                    .node_at_addr(addr)
                    .expect("cached node has a node id");
                let dummy = node_val.counter_sum();
                node_val.hmac = self.ctx.node_mac(node, &node_val, dummy);
                done = done.max(self.hash.parallel_latency(now, 1));
                let e = self.mc_write(addr, node_val.to_line(), now, AccessKind::Metadata);
                done = done.max(e.accepted);
                done = done.max(self.propagate_flush(node, dummy, now));
            }
        }
        done
    }

    /// Applies the flush rule (*parent counter := child dummy*) upward
    /// from `child`, updating cached ancestors in place and writing
    /// uncached ones through to NVM. Fetch-free by construction. Returns
    /// the completion cycle of the NVM traffic it generated.
    fn propagate_flush(&mut self, child: NodeId, child_dummy: u64, now: Cycle) -> Cycle {
        let _span = span::enter("itree.walk");
        if !self.cfg.scheme.has_sit() {
            // BMF-ideal has no tree above L1; its persistent root is
            // refreshed in the persist path.
            return now;
        }
        let mut done = now;
        let mut cur = child;
        let mut dummy = child_dummy;
        loop {
            match self.ctx.geometry().parent(cur) {
                Parent::Root(slot) => {
                    // Flush-only and Recovery_root schemes maintain the
                    // running root via top-level flushes; the others
                    // account the root per persist, so a flush-time
                    // overwrite would double count.
                    if matches!(
                        self.cfg.scheme.spec().root,
                        RootPolicy::FlushOnly | RootPolicy::RecoveryRootAdd
                    ) {
                        self.running_root.set(slot, dummy);
                    }
                    return done;
                }
                Parent::Node(parent) => {
                    let slot = cur.parent_slot();
                    let paddr = self.meta_addr(parent);
                    if let Some(MetaEntry::Node(n)) = self.mdcache.get_mut_dirty(paddr) {
                        // The cached copy absorbs the update; its own
                        // flush will continue the propagation later.
                        n.set_counter(slot, dummy);
                        self.trace.record(
                            now,
                            EventKind::TreeNodeUpdate {
                                level: parent.level,
                                index: parent.index,
                            },
                        );
                        return done;
                    }
                    if let Some(pos) = self.victims.iter().position(|(a, _)| *a == paddr) {
                        // A parked victim absorbs the update; it flushes
                        // later in this same drain.
                        if let MetaEntry::Node(n) = &mut self.victims[pos].1 {
                            n.set_counter(slot, dummy);
                        }
                        return done;
                    }
                    // Write-through: read-modify-write the parent in NVM
                    // and keep climbing, since its dummy changed too.
                    let (line, t_read) = self.mc.read(paddr, now, AccessKind::Metadata);
                    let mut pnode = SitNode::from_line(&line);
                    pnode.set_counter(slot, dummy);
                    let pdummy = pnode.counter_sum();
                    pnode.hmac = self.ctx.node_mac(parent, &pnode, pdummy);
                    done = done.max(self.hash.parallel_latency(t_read, 1));
                    let e = self.mc_write(paddr, pnode.to_line(), t_read, AccessKind::Metadata);
                    done = done.max(e.accepted);
                    self.trace.record(
                        now,
                        EventKind::TreeNodeUpdate {
                            level: parent.level,
                            index: parent.index,
                        },
                    );
                    cur = parent;
                    dummy = pdummy;
                }
            }
        }
    }

    /// Runs a mutation against the cached copy of `node`, (re)fetching it
    /// if a flush cascade evicted it in the meantime, and marking it
    /// dirty. Returns the closure's result.
    ///
    /// # Errors
    ///
    /// [`CrashError::CacheExhausted`] if the metadata cache cannot retain
    /// the node at all (a configuration far too small to hold one
    /// branch); [`CrashError::Integrity`] if refetching detects tampering.
    fn with_node_mut<R>(
        &mut self,
        node: NodeId,
        now: Cycle,
        f: impl FnOnce(&mut SitNode) -> R,
    ) -> Result<R, CrashError> {
        let _span = span::enter("itree.walk");
        let addr = self.meta_addr(node);
        let mut f = Some(f);
        for _ in 0..8 {
            if let Some(MetaEntry::Node(n)) = self.mdcache.get_mut_dirty(addr) {
                let f = f.take().expect("closure used once");
                let r = f(n);
                self.trace.record(
                    now,
                    EventKind::TreeNodeUpdate {
                        level: node.level,
                        index: node.index,
                    },
                );
                return Ok(r);
            }
            self.ensure_node_cached(node, now)?;
        }
        Err(CrashError::CacheExhausted {
            level: node.level,
            index: node.index,
        })
    }

    /// Ensures intermediate node `node` is cached and verified; returns
    /// the cycle its verification completed.
    ///
    /// Missing ancestors are read in parallel (their addresses are pure
    /// geometry) and verified top-down in one parallel hash batch.
    fn ensure_node_cached(&mut self, node: NodeId, now: Cycle) -> Result<Cycle, CrashError> {
        let _span = span::enter("itree.walk");
        if self.mdcache.contains(self.meta_addr(node)) {
            self.trace.record(
                now,
                EventKind::MdCacheHit {
                    addr: self.meta_addr(node).raw(),
                },
            );
            return Ok(now);
        }
        // A victim-buffer hit reinstalls the parked (already-trusted)
        // copy without an NVM fetch.
        if let Some(entry) = self.take_victim(self.meta_addr(node)) {
            self.trace.record(
                now,
                EventKind::MdCacheHit {
                    addr: self.meta_addr(node).raw(),
                },
            );
            let victim = self.mdcache.insert(self.meta_addr(node), entry, true);
            self.buffer_victim(victim, now);
            return Ok(now);
        }
        // The missing part of the chain [node, parent, ...] is a prefix:
        // it stops at a cached node or a victim-buffer hit (which gets
        // reinstalled and becomes the trusted boundary).
        let (chain, _root_slot) = self.ctx.geometry().ancestors(node);
        let path = |i: usize| if i == 0 { node } else { chain[i - 1] };
        let mut missing = 1;
        for &anc in chain.iter() {
            let aaddr = self.meta_addr(anc);
            if self.mdcache.contains(aaddr) {
                break;
            }
            if let Some(entry) = self.take_victim(aaddr) {
                let victim = self.mdcache.insert(aaddr, entry, true);
                self.buffer_victim(victim, now);
                break;
            }
            missing += 1;
        }
        // Read all missing nodes (parallel banks permitting).
        let mut t_read = now;
        let mut decoded = [SitNode::new(); MAX_STORED_LEVELS];
        for (i, val) in decoded[..missing].iter_mut().enumerate() {
            let maddr = self.meta_addr(path(i));
            self.trace
                .record(now, EventKind::MdCacheMiss { addr: maddr.raw() });
            let (line, done) = self.mc.read(maddr, now, AccessKind::Metadata);
            t_read = t_read.max(done);
            *val = SitNode::from_line(&line);
        }
        let decoded = &decoded[..missing];
        // Verify top-down: the topmost missing node checks against its
        // cached parent or the running root; each lower node checks
        // against the freshly decoded node above it.
        for i in (0..missing).rev() {
            let (id, val) = (path(i), &decoded[i]);
            let parent_counter = if i + 1 < missing {
                decoded[i + 1].counter(id.parent_slot())
            } else {
                match self.ctx.geometry().parent(id) {
                    Parent::Root(slot) => self.effective_root_counter(slot),
                    Parent::Node(p) => match self.mdcache.get(self.meta_addr(p)) {
                        Some(MetaEntry::Node(n)) => n.counter(id.parent_slot()),
                        _ => unreachable!("chain walk stopped at a cached parent"),
                    },
                }
            };
            if !self.ctx.verify_node(id, val, parent_counter) {
                let what = "SIT node MAC mismatch against parent counter";
                self.trace.record(
                    now,
                    EventKind::AttackDetected {
                        addr: self.meta_addr(id).raw(),
                        what,
                    },
                );
                return Err(IntegrityError {
                    addr: self.meta_addr(id),
                    what,
                }
                .into());
            }
        }
        // Verification hashes run off the critical path: fetched nodes
        // are used speculatively and an exception fires on mismatch (the
        // standard secure-memory assumption; PLP/BMF model reads the same
        // way). The hash unit still counts the work.
        let _ = self.hash.parallel_latency(t_read, missing as u64);
        let t_verified = t_read;
        // Install top-down so lower verifications can see parents.
        // (Installs only park victims; nothing can interleave.)
        for (i, &val) in decoded.iter().enumerate().rev() {
            let addr = self.meta_addr(path(i));
            if self.mdcache.contains(addr) {
                continue;
            }
            let victim = self.mdcache.insert(addr, MetaEntry::Node(val), false);
            self.buffer_victim(victim, now);
        }
        Ok(t_verified)
    }

    /// Ensures the leaf counter block is cached; returns
    /// `(block, ready_cycle)`.
    ///
    /// `verify` selects the fetch policy: reads always verify through the
    /// trusted chain, but the SCUE *write* path trusts the fetched block
    /// without touching ancestors — "without reading any nodes when
    /// writing data" (§IV-A2); any tampering it admits is caught when the
    /// data is read or at recovery via the Recovery_root sum.
    fn ensure_leaf_cached(
        &mut self,
        leaf: NodeId,
        now: Cycle,
        verify: bool,
    ) -> Result<(CounterBlock, Cycle), CrashError> {
        let _span = span::enter("itree.walk");
        let addr = self.meta_addr(leaf);
        if let Some(MetaEntry::Leaf(block)) = self.mdcache.get(addr) {
            let block = *block;
            self.trace
                .record(now, EventKind::MdCacheHit { addr: addr.raw() });
            return Ok((block, now));
        }
        // Victim-buffer hit: reinstall the parked (trusted) copy.
        if let Some(MetaEntry::Leaf(block)) = self.take_victim(addr) {
            self.trace
                .record(now, EventKind::MdCacheHit { addr: addr.raw() });
            let victim = self.mdcache.insert(addr, MetaEntry::Leaf(block), true);
            self.buffer_victim(victim, now);
            return Ok((block, now));
        }
        // Read the block (and its sideband MAC, which rides along).
        self.trace
            .record(now, EventKind::MdCacheMiss { addr: addr.raw() });
        let (line, t_read) = self.mc.read(addr, now, AccessKind::Metadata);
        let block = CounterBlock::from_line(&line);
        let mac = self.sideband.get(addr);
        let t_ready = match self.cfg.scheme.root_discipline() {
            _ if !verify => t_read,
            RootDiscipline::Unverified => t_read,
            RootDiscipline::PerLeaf => {
                // Verify against the persistent root in the nvMC.
                let expected = self.nvmc.get(&leaf.index).copied().unwrap_or(0);
                let actual = if block.write_count() == 0 && expected == 0 {
                    0
                } else {
                    bmt_child_hmac(self.ctx.key(), addr.raw(), &line)
                };
                if actual != expected {
                    let what = "counter block does not match its persistent root (nvMC)";
                    self.trace.record(
                        now,
                        EventKind::AttackDetected {
                            addr: addr.raw(),
                            what,
                        },
                    );
                    return Err(IntegrityError { addr, what }.into());
                }
                let _ = self.hash.parallel_latency(t_read, 1); // off-path verify
                t_read
            }
            _ => {
                // Verify against the covering counter in the cached (or
                // root) parent chain.
                let parent_counter = match self.ctx.geometry().parent(leaf) {
                    Parent::Root(slot) => self.effective_root_counter(slot),
                    Parent::Node(parent) => {
                        // Flush cascades may displace the parent between
                        // ensure and lookup; refetch until it sticks.
                        let paddr = self.meta_addr(parent);
                        let mut counter = None;
                        for _ in 0..8 {
                            if let Some(MetaEntry::Node(n)) = self.mdcache.get(paddr) {
                                counter = Some(n.counter(leaf.parent_slot()));
                                break;
                            }
                            self.ensure_node_cached(parent, now)?;
                        }
                        match counter {
                            Some(c) => c,
                            None => {
                                return Err(CrashError::CacheExhausted {
                                    level: parent.level,
                                    index: parent.index,
                                })
                            }
                        }
                    }
                };
                if !self.ctx.verify_leaf(leaf, &block, mac, parent_counter) {
                    let what = "counter block MAC mismatch against parent counter";
                    self.trace.record(
                        now,
                        EventKind::AttackDetected {
                            addr: addr.raw(),
                            what,
                        },
                    );
                    return Err(IntegrityError { addr, what }.into());
                }
                let _ = self.hash.parallel_latency(t_read, 1); // off-path verify
                t_read
            }
        };
        let victim = self.mdcache.insert(addr, MetaEntry::Leaf(block), false);
        self.buffer_victim(victim, now);
        Ok((block, t_ready))
    }

    // ------------------------------------------------------------------
    // The write path (Fig. 6): persist one user-data line
    // ------------------------------------------------------------------

    /// Persists one plaintext user-data line arriving at the controller
    /// at `now`. Returns the scheme-defined completion cycle — the write
    /// latency of Fig. 9 is `done - now`.
    ///
    /// # Errors
    ///
    /// [`CrashError::Integrity`] if fetching security metadata for this
    /// write detects tampering; [`CrashError::MachineCrashed`] if the
    /// machine crashed and has not recovered.
    ///
    /// # Panics
    ///
    /// Panics if the address is outside the protected data region (a
    /// harness wiring bug, not a machine condition).
    pub fn persist_data(
        &mut self,
        addr: LineAddr,
        plain: Line,
        now: Cycle,
    ) -> Result<Cycle, CrashError> {
        let _span = span::enter("engine.request");
        if self.crashed {
            return Err(CrashError::MachineCrashed);
        }
        assert!(
            self.ctx.geometry().is_data_line(addr),
            "{addr} is outside the protected data region"
        );
        self.trace
            .record(now, EventKind::PersistBegin { addr: addr.raw() });
        self.settle_pending(now);
        let geom = self.ctx.geometry();
        let leaf = geom.leaf_of_data(addr);
        let minor = geom.minor_slot_of_data(addr);
        let leaf_addr = self.meta_addr(leaf);
        let root_slot = geom.root_slot_of_leaf(leaf.index);
        let stored_levels = geom.stored_levels();

        // 1. Counter block on chip (needed for encryption in all schemes).
        // SCUE's shortcut write path performs no ancestor reads at all.
        let spec = self.cfg.scheme.spec();
        let (mut block, t_meta) = self.ensure_leaf_cached(leaf, now, spec.verify_on_write)?;
        let old_block = block;

        // 2. Advance the minor counter; handle overflow (§II-B).
        let outcome = block
            .increment(minor)
            .expect("minor slot derived from geometry");
        if outcome == IncrementOutcome::Overflow {
            self.stats.overflows += 1;
            self.reencrypt_covered_lines(leaf, minor, &old_block, &block, now);
        }
        let delta = block.write_count().wrapping_sub(old_block.write_count());

        // 3. Encrypt and persist the data line; MAC rides the ECC bits.
        // The ciphertext cannot form before the counter block arrives, so
        // the data write issues at `t_meta` for every scheme.
        let data_issue = now.max(t_meta);
        let cipher = cme::encrypt_line(self.ctx.key(), addr.raw(), &block, minor, &plain);
        let e_data = self.mc_write(addr, cipher, data_issue, AccessKind::UserData);
        if self.cfg.scheme.is_secure() {
            let mac = data_line_hmac(
                self.ctx.key(),
                addr.raw(),
                &cipher,
                minor_counter(&block, minor),
            );
            self.sideband.set(addr, mac);
        }

        // 4. Leaf persist plus the scheme's tree and root policy, in one
        // fixed order: tree update ahead of the hashes, hashes, leaf
        // write-through, shadows, synchronous root update, tree update
        // behind the hashes, deferred root update. `ack` is the cycle the
        // persist is program-visibly complete: what fences wait on and
        // what Fig. 9 measures.
        let leaf_dummy = self.ctx.leaf_dummy(&block);
        let branch = stored_levels as u64 + 1;
        let t_chain = match spec.tree_update {
            TreeUpdate::ParentFirst => self.ensure_parent_updated(leaf, leaf_dummy, data_issue)?,
            TreeUpdate::BranchFirst => self.ensure_branch_updated(leaf, leaf_dummy, data_issue)?,
            _ => data_issue,
        };
        // Secure schemes write the leaf through, and SIT schemes MAC it:
        // both take the same packed line, so the block encodes once.
        let leaf_line = self.cfg.scheme.is_secure().then(|| block.to_line());
        // The SIT leaf MAC is keyed by the leaf's own dummy counter.
        let leaf_mac = match leaf_line {
            Some(line) if self.cfg.scheme.has_sit() => {
                Some(self.ctx.leaf_line_mac(leaf, &line, leaf_dummy))
            }
            _ => None,
        };
        let t_hash = match spec.hashes {
            HashSchedule::None => t_chain,
            HashSchedule::LeafPair => self.hash.parallel_latency(t_chain, 2),
            HashSchedule::LeafPairThenParent => {
                // Lazy: the parent's counter changed, so its HMAC is
                // recomputed serially behind the leaf MAC (SCUE's "lazy
                // computing", §IV-A1, removes exactly this step).
                let t = self.hash.parallel_latency(t_chain, 2);
                self.hash.parallel_latency(t, 1)
            }
            // Stored levels - 1 intermediates + leaf MAC + data MAC.
            HashSchedule::Branch => self.hash.parallel_latency(t_chain, branch),
            HashSchedule::SerialBranch => {
                let mut t = self.hash.parallel_latency(t_chain, 2);
                for _ in 1..stored_levels {
                    t = self.hash.parallel_latency(t, 1);
                }
                t
            }
        };
        let mut ack = e_data.accepted.max(t_hash);
        if let Some(leaf_line) = leaf_line {
            // Secure schemes write the leaf through with its data line.
            if spec.root == RootPolicy::Nvmc {
                // The persistent root IS the MAC of the final leaf
                // content, so the persist gates on the hash plus the
                // NV-register write.
                let parent_mac = bmt_child_hmac(self.ctx.key(), leaf_addr.raw(), &leaf_line);
                self.nvmc.insert(leaf.index, parent_mac);
                ack = ack.max(t_hash + NVMC_WRITE_CYCLES);
            }
            self.mc
                .write_coalesced(leaf_addr, leaf_line, AccessKind::Metadata);
        }
        if let Some(mac) = leaf_mac {
            self.sideband.set(leaf_addr, mac);
        }
        if spec.persist_shadows {
            // PLP/Phoenix: shadow copies of every branch node (§V-A), the
            // ~7x metadata traffic of §V-E, on the critical path.
            ack = ack.max(self.persist_branch_shadows(leaf, t_hash));
        }
        match spec.root {
            RootPolicy::RunningRootAdd => self.running_root.add(root_slot, delta),
            RootPolicy::RecoveryRootAdd => self.recovery_root.add(root_slot, delta),
            _ => {}
        }
        let t_propagated = match spec.tree_update {
            TreeUpdate::ParentAfterAck => {
                // Off the critical path: fetch + update the parent chain
                // with the dummy counter (§IV-A2).
                self.ensure_parent_updated(leaf, leaf_dummy, ack)?;
                t_hash
            }
            TreeUpdate::PersistParent => {
                let t_parent = self.ensure_parent_updated(leaf, leaf_dummy, t_hash)?;
                let t_pmac = self.hash.parallel_latency(t_parent.max(t_hash), 1);
                let persisted = self.persist_parent_node(leaf, t_pmac);
                ack = ack.max(t_pmac).max(persisted);
                t_hash
            }
            TreeUpdate::BranchAfterAck => {
                let t_chain = self.ensure_branch_updated(leaf, leaf_dummy, t_hash)?;
                self.hash.parallel_latency(t_chain, branch)
            }
            _ => t_hash,
        };
        if spec.root == RootPolicy::DeferredQueue {
            // The root update lands when propagation finishes: the crash
            // window (§III-B).
            self.pending_root.push(PendingRoot {
                done: t_propagated,
                slot: root_slot,
                delta,
            });
        }

        // Refresh the cached copy. Secure schemes just wrote the leaf
        // through, so their copy is clean; Baseline holds it dirty until
        // eviction.
        let leaf_dirty = !self.cfg.scheme.is_secure();
        let victim = self
            .mdcache
            .insert(leaf_addr, MetaEntry::Leaf(block), leaf_dirty);
        self.buffer_victim(victim, now);
        // Drain displaced metadata. Some schemes must finish the flush
        // work (hashes + parent write-throughs) before the write
        // completes; SCUE's dummy counter keeps it off the critical path.
        let ev_done = self.drain_victims(now);
        if spec.drain_gates_ack {
            ack = ack.max(ev_done);
        }

        self.stats.persists += 1;
        // Fig. 9's metric: the write-path latency the scheme is
        // responsible for — metadata fetches, verification chains, hashes
        // and shadow persists — on top of the common service floor, with
        // the shared user-WPQ queue wait factored out (see the
        // BASELINE_WRITE_SERVICE note). `ack` itself is the
        // program-visible persist point that fences wait on.
        let queue_wait = e_data.accepted.saturating_sub(data_issue);
        let latency =
            (ack.saturating_sub(data_issue)).saturating_sub(queue_wait) + BASELINE_WRITE_SERVICE;
        self.stats.write_latency.record(latency);
        self.trace.record(
            ack,
            EventKind::PersistComplete {
                addr: addr.raw(),
                latency,
            },
        );
        Ok(ack)
    }

    /// Parent update (Lazy, SCUE, Triad): ensure the leaf's parent is
    /// cached (verified through its chain) and set its covering counter
    /// to the leaf dummy. Returns the cycle the chain was ready.
    fn ensure_parent_updated(
        &mut self,
        leaf: NodeId,
        leaf_dummy: u64,
        now: Cycle,
    ) -> Result<Cycle, CrashError> {
        match self.ctx.geometry().parent(leaf) {
            Parent::Root(slot) => {
                self.running_root.set(slot, leaf_dummy);
                Ok(now)
            }
            Parent::Node(parent) => {
                let t = self.ensure_node_cached(parent, now)?;
                self.with_node_mut(parent, now, |n| {
                    n.set_counter(leaf.parent_slot(), leaf_dummy);
                })?;
                Ok(t)
            }
        }
    }

    /// Branch update (Eager, PLP, Phoenix, Zuo, Freij): ensure *every*
    /// ancestor is cached, then cascade the dummy-counter updates to the
    /// top. Returns chain-ready cycle.
    fn ensure_branch_updated(
        &mut self,
        leaf: NodeId,
        leaf_dummy: u64,
        now: Cycle,
    ) -> Result<Cycle, CrashError> {
        let (chain, _) = self.ctx.geometry().ancestors(leaf);
        let t = match chain.first() {
            Some(&parent) => self.ensure_node_cached(parent, now)?,
            None => now,
        };
        // Cascade: child dummy into parent, recompute parent dummy, up.
        let mut child = leaf;
        let mut dummy = leaf_dummy;
        for &anc in chain.iter() {
            let slot = child.parent_slot();
            dummy = self.with_node_mut(anc, now, |n| {
                n.set_counter(slot, dummy);
                n.counter_sum()
            })?;
            child = anc;
        }
        Ok(t)
    }

    /// PLP/Phoenix: persist shadow copies of every branch node; returns
    /// the last acceptance cycle (the metadata WPQ is only 10 deep, so
    /// this backs up fast — the 2.74× of Fig. 9).
    fn persist_branch_shadows(&mut self, leaf: NodeId, now: Cycle) -> Cycle {
        let (chain, _) = self.ctx.geometry().ancestors(leaf);
        let mut done = now;
        for &anc in chain.iter() {
            let addr = self.meta_addr(anc);
            let line = match self.mdcache.get(addr) {
                Some(entry) => entry.to_line(),
                None => continue,
            };
            let e = self.mc_write(addr, line, now, AccessKind::Metadata);
            done = done.max(e.accepted);
        }
        done
    }

    /// Triad-L2: persist the leaf's (just-updated, cached) L1 parent
    /// write-through; returns the acceptance cycle. Levels above L1 stay
    /// volatile.
    fn persist_parent_node(&mut self, leaf: NodeId, now: Cycle) -> Cycle {
        let parent = match self.ctx.geometry().parent(leaf) {
            Parent::Node(parent) => parent,
            Parent::Root(_) => return now,
        };
        let addr = self.meta_addr(parent);
        let line = match self.mdcache.get(addr) {
            Some(entry) => entry.to_line(),
            None => return now,
        };
        self.mc_write(addr, line, now, AccessKind::Metadata)
            .accepted
    }

    /// Minor-counter overflow: every line the block covers was encrypted
    /// under the old (major, minor) pads and must be re-encrypted under
    /// the new major (§II-B) — 64 reads + 64 writes of user data.
    fn reencrypt_covered_lines(
        &mut self,
        leaf: NodeId,
        skip_minor: usize,
        old_block: &CounterBlock,
        new_block: &CounterBlock,
        now: Cycle,
    ) {
        let first_line = leaf.index * scue_itree::geometry::LINES_PER_LEAF;
        for slot in 0..cme::MINORS_PER_BLOCK {
            if slot == skip_minor {
                continue; // being overwritten with fresh data anyway
            }
            let line_addr = LineAddr::new(first_line + slot as u64);
            let (cipher, _) = self.mc.read(line_addr, now, AccessKind::UserData);
            if cipher == [0u8; 64] && self.sideband.get(line_addr) == 0 {
                continue; // never written; nothing to re-encrypt
            }
            let plain =
                cme::decrypt_line(self.ctx.key(), line_addr.raw(), old_block, slot, &cipher);
            let fresh = cme::encrypt_line(self.ctx.key(), line_addr.raw(), new_block, slot, &plain);
            self.mc_write(line_addr, fresh, now, AccessKind::UserData);
            if self.cfg.scheme.is_secure() {
                let mac = data_line_hmac(
                    self.ctx.key(),
                    line_addr.raw(),
                    &fresh,
                    minor_counter(new_block, slot),
                );
                self.hash.parallel_latency(now, 1);
                self.sideband.set(line_addr, mac);
            }
        }
    }

    // ------------------------------------------------------------------
    // The read path
    // ------------------------------------------------------------------

    /// Reads one user-data line that missed the LLC, arriving at the
    /// controller at `now`. Returns the decrypted plaintext and the
    /// completion cycle.
    ///
    /// # Errors
    ///
    /// [`CrashError::Integrity`] if the data MAC or any metadata in the
    /// verification chain fails; [`CrashError::MachineCrashed`] if the
    /// machine crashed and has not recovered.
    ///
    /// # Panics
    ///
    /// Panics if the address is out of range (a harness wiring bug).
    pub fn read_data(&mut self, addr: LineAddr, now: Cycle) -> Result<(Line, Cycle), CrashError> {
        let _span = span::enter("engine.request");
        if self.crashed {
            return Err(CrashError::MachineCrashed);
        }
        assert!(
            self.ctx.geometry().is_data_line(addr),
            "{addr} is outside the protected data region"
        );
        self.settle_pending(now);
        let leaf = self.ctx.geometry().leaf_of_data(addr);
        let minor = self.ctx.geometry().minor_slot_of_data(addr);

        // Ciphertext and counter block fetch in parallel (§II-B: OTP
        // generation overlaps the data read).
        let (cipher, t_data) = self.mc.read(addr, now, AccessKind::UserData);
        let (block, t_meta) = self.ensure_leaf_cached(leaf, now, true)?;
        let plain = cme::decrypt_line(self.ctx.key(), addr.raw(), &block, minor, &cipher);

        let done = if self.cfg.scheme.is_secure() {
            // Verify the data MAC against the covering counter. The data
            // is forwarded to the core speculatively and the verification
            // hash completes in the background (exception on mismatch) —
            // the standard secure-memory read model, and why Fig. 12's
            // execution time barely moves with hash latency.
            let expected = self.sideband.get(addr);
            let actual = if expected == 0 && cipher == [0u8; 64] {
                0 // never-written line
            } else {
                data_line_hmac(
                    self.ctx.key(),
                    addr.raw(),
                    &cipher,
                    minor_counter(&block, minor),
                )
            };
            if actual != expected {
                let what = "user-data MAC mismatch";
                self.trace.record(
                    now,
                    EventKind::AttackDetected {
                        addr: addr.raw(),
                        what,
                    },
                );
                return Err(IntegrityError { addr, what }.into());
            }
            let _ = self.hash.parallel_latency(t_data.max(t_meta), 1);
            t_data.max(t_meta)
        } else {
            t_data.max(t_meta)
        };
        // Drain any metadata displaced by this read (off the read path).
        self.drain_victims(now);
        self.stats.read_latency.record(done - now);
        Ok((plain, done))
    }

    // ------------------------------------------------------------------
    // Crash & recovery
    // ------------------------------------------------------------------

    /// Starts journaling pre-write NVM content so crash-time faults
    /// (torn and dropped writes) can reconstruct what the media held
    /// before the interrupted flush. Torture harnesses call this once,
    /// right after construction; the journal costs memory, not cycles.
    pub fn enable_fault_injection(&mut self) {
        self.mc.store_mut().track_history(true);
    }

    /// Power fails at cycle `at`.
    ///
    /// ADR drains the WPQ (already durable in the functional store). With
    /// eADR the metadata cache contents also flush — *as raw bytes, with
    /// no computation* (§III-C): stale HMAC fields land in NVM as-is.
    /// Root registers are non-volatile and survive. Root propagations
    /// still in flight (Eager) are lost — the crash window.
    pub fn crash(&mut self, at: Cycle) {
        self.crash_with_faults(at, &FaultPlan::none());
    }

    /// Power fails at cycle `at` *and* the persistence machinery
    /// misbehaves according to `plan`: in-flight WPQ entries tear at
    /// 8-byte granularity (an ADR failure) and/or explicit media faults
    /// corrupt the post-crash image. Returns one [`FaultRecord`] per
    /// attempted fault stating whether it changed the image.
    ///
    /// Torn/dropped faults require [`Self::enable_fault_injection`] to
    /// have been active while the victim write happened; otherwise they
    /// report `applied: false`.
    pub fn crash_with_faults(&mut self, at: Cycle, plan: &FaultPlan) -> Vec<FaultRecord> {
        self.trace.record(at, EventKind::CrashInjected);
        self.settle_pending(at);
        // Eager: in-flight propagation lost. PLP applied its updates
        // synchronously, so nothing is pending for it.
        self.pending_root.clear();
        let mut records = if let Some(prefix) = plan.tear_prefix {
            self.mc.crash_with_torn_prefix(at, prefix)
        } else if plan.tear_in_flight {
            self.mc.crash_with_tearing(at)
        } else {
            self.mc.crash();
            Vec::new()
        };
        if self.cfg.eadr {
            let entries = self.mdcache.drain_all();
            for ev in entries {
                if ev.dirty {
                    // Raw flush: bytes as cached, stale MACs included.
                    self.mc.store_mut().write_line(ev.addr, ev.value.to_line());
                }
            }
            let parked: Vec<_> = self.victims.drain(..).collect();
            for (addr, entry) in parked {
                self.mc.store_mut().write_line(addr, entry.to_line());
            }
        } else {
            self.mdcache.discard_all();
            self.victims.clear();
        }
        // Explicit media faults strike the settled post-crash image (the
        // eADR flush, when present, has already landed).
        for &fault in &plan.faults {
            records.push(self.mc.inject_fault(fault));
        }
        for rec in &records {
            self.trace.record(
                at,
                EventKind::FaultInjected {
                    addr: rec.fault.addr().raw(),
                    kind: rec.fault.kind_name(),
                    applied: rec.applied,
                },
            );
        }
        self.hash.reset_occupancy();
        self.crashed = true;
        records
    }

    /// Reboots and attempts recovery; see [`recovery`](crate::recovery)
    /// for the algorithm and report semantics. On success the machine is
    /// ready for `persist_data`/`read_data` again.
    ///
    /// When [`counter_repair`](SecureMemConfig::counter_repair) is on and
    /// verification fails on a leaf MAC, recovery composes with
    /// Osiris-style torn-counter replay (§VII): stale minors are advanced
    /// until the stored data MACs verify, then counter-summing re-runs on
    /// the repaired image. The report's `repaired_leaves` counts the
    /// blocks the replay fixed.
    pub fn recover(&mut self) -> RecoveryReport {
        let _span = span::enter("engine.recover");
        assert!(self.crashed, "recover() is only meaningful after crash()");
        let mut report = recovery::run(self);
        let repairable = matches!(report.outcome, RecoveryOutcome::LeafMacMismatch { .. })
            && self.cfg.counter_repair
            && self.cfg.scheme.has_sit();
        if repairable {
            if let Ok(osiris) =
                crate::osiris::recover_image(self, crate::osiris::DEFAULT_REPLAY_LIMIT)
            {
                if osiris.repaired_blocks > 0 {
                    report = recovery::run(self).with_repaired_leaves(osiris.repaired_blocks);
                }
            }
        }
        if self.trace.is_enabled() {
            // Phase timeline on the recovery's own modelled-ns clock
            // (recovery is modelled, not cycle-simulated).
            let p = report.phases;
            let mut t = 0;
            for (phase, fetches, ns) in [
                ("scan", p.scan_fetches, p.scan_ns()),
                ("counter-summing", p.summing_fetches, p.summing_ns()),
                ("re-hash", p.rehash_fetches, p.rehash_ns()),
            ] {
                self.trace
                    .record(t, EventKind::RecoveryPhaseBegin { phase });
                t += ns;
                self.trace
                    .record(t, EventKind::RecoveryPhaseEnd { phase, fetches });
            }
        }
        if report.outcome.is_success() {
            self.crashed = false;
        }
        report
    }

    /// Evaluates the recovery invariant against the current NVM image
    /// and trust base **without mutating anything** — no tree install,
    /// no Osiris repair, no root synchronisation, no spans or trace
    /// events. Deterministic and callable before or after a crash; the
    /// crash model checker's replay bridge uses it to compare the
    /// abstract verdict of a counterexample against the real image (see
    /// [`recovery::probe`](crate::recovery)).
    pub fn probe_consistency(&self) -> crate::recovery::ConsistencyProbe {
        crate::recovery::probe(self)
    }

    // Read-only accessors for the consistency probe.
    pub(crate) fn parts_for_probe(
        &self,
    ) -> (
        &SitContext,
        &MemoryController,
        &MacSideband,
        &RootRegister,
        &RootRegister,
        &FixedHashMap<u64, u64>,
    ) {
        (
            &self.ctx,
            &self.mc,
            &self.sideband,
            &self.running_root,
            &self.recovery_root,
            &self.nvmc,
        )
    }

    // Internal accessors for the recovery/attack modules.
    pub(crate) fn parts_for_recovery(
        &mut self,
    ) -> (
        &SitContext,
        &mut MemoryController,
        &MacSideband,
        &mut RootRegister,
        &mut RootRegister,
        &FixedHashMap<u64, u64>,
    ) {
        (
            &self.ctx,
            &mut self.mc,
            &self.sideband,
            &mut self.running_root,
            &mut self.recovery_root,
            &self.nvmc,
        )
    }
}

/// The covering counter value bound into a data line's MAC: the line's
/// minor plus the block major (so replaying across a major bump fails).
fn minor_counter(block: &CounterBlock, minor: usize) -> u64 {
    (block.major() << 7) | block.minor(minor).expect("slot in range") as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem(scheme: SchemeKind) -> SecureMemory {
        SecureMemory::new(SecureMemConfig::small_test(scheme))
    }

    fn line(fill: u8) -> Line {
        [fill; 64]
    }

    #[test]
    fn write_read_roundtrip_every_scheme() {
        for scheme in SchemeKind::ALL {
            let mut m = mem(scheme);
            let mut now = 0;
            for i in 0..20u64 {
                now = m
                    .persist_data(LineAddr::new(i * 3), line(i as u8 + 1), now)
                    .unwrap();
            }
            for i in 0..20u64 {
                let (data, done) = m.read_data(LineAddr::new(i * 3), now).unwrap();
                assert_eq!(data, line(i as u8 + 1), "{scheme}");
                now = done;
            }
        }
    }

    #[test]
    fn warm_requests_make_no_heap_allocations() {
        // Lines across several leaves, so the warm rounds also evict
        // metadata and settle deferred root updates.
        let addrs: Vec<LineAddr> = (0..48u64).map(|i| LineAddr::new(i * 67)).collect();
        let round = |m: &mut SecureMemory, now: &mut Cycle, fill: u8| {
            for &addr in &addrs {
                *now = m.persist_data(addr, line(fill), *now).unwrap();
            }
            for &addr in &addrs {
                let (data, done) = m.read_data(addr, *now).unwrap();
                assert_eq!(data, line(fill));
                *now = done;
            }
        };
        for scheme in SchemeKind::ALL {
            let mut m = mem(scheme);
            let mut now = 0;
            for fill in 1..=3 {
                round(&mut m, &mut now, fill);
            }
            let allocs = scue_util::obs::alloc::with_switch(true, || {
                for fill in 4..=6 {
                    round(&mut m, &mut now, fill);
                }
                scue_util::obs::alloc::thread_counts().0
            });
            assert_eq!(allocs, 0, "{scheme}: heap allocations on warm requests");
        }
    }

    #[test]
    fn rewrites_change_counters_and_still_decrypt() {
        let mut m = mem(SchemeKind::Scue);
        let mut now = 0;
        for round in 0..5u8 {
            now = m.persist_data(LineAddr::new(7), line(round), now).unwrap();
            let (data, done) = m.read_data(LineAddr::new(7), now).unwrap();
            assert_eq!(data, line(round));
            now = done;
        }
    }

    #[test]
    fn scue_recovery_root_tracks_persists() {
        let mut m = mem(SchemeKind::Scue);
        let mut now = 0;
        for i in 0..10u64 {
            now = m.persist_data(LineAddr::new(i), line(1), now).unwrap();
        }
        // All 10 lines fall under leaf 0 (lines 0..64) -> root slot 0.
        assert_eq!(m.recovery_root().counter(0), 10);
        assert_eq!(m.recovery_root().counters().iter().sum::<u64>(), 10);
    }

    #[test]
    fn trace_captures_persist_crash_recover_lifecycle() {
        use scue_util::obs::EventKind;
        let mut m = mem(SchemeKind::Scue);
        m.enable_tracing(4096);
        let mut now = 0;
        for i in 0..8u64 {
            now = m.persist_data(LineAddr::new(i), line(1), now).unwrap();
        }
        m.crash(now);
        assert!(m.recover().outcome.is_success());
        let names: Vec<&str> = m.trace().events().map(|e| e.kind.name()).collect();
        for expected in [
            "persist_begin",
            "persist_complete",
            "mdcache_miss",
            "mdcache_hit",
            "wpq_enqueue",
            "crash_injected",
            "recovery_phase_begin",
            "recovery_phase_end",
        ] {
            assert!(names.contains(&expected), "missing {expected} in {names:?}");
        }
        // Persist events carry the recorded latency distribution's data.
        let has_latency = m.trace().events().any(|e| {
            matches!(e.kind, EventKind::PersistComplete { latency, .. } if latency >= BASELINE_WRITE_SERVICE)
        });
        assert!(has_latency);
    }

    #[test]
    fn tracing_disabled_records_nothing() {
        let mut m = mem(SchemeKind::Scue);
        m.persist_data(LineAddr::new(0), line(1), 0).unwrap();
        assert_eq!(m.trace().recorded(), 0);
        assert!(!m.trace().is_enabled());
    }

    #[test]
    fn eager_root_updates_lag_by_crash_window() {
        let mut m = mem(SchemeKind::Eager);
        let done = m.persist_data(LineAddr::new(0), line(1), 0).unwrap();
        // Immediately after the persist the propagation may be pending.
        assert!(m.pending_root_updates(0) > 0, "crash window exists");
        assert_eq!(m.pending_root_updates(done + 10_000), 0);
    }

    #[test]
    fn scue_has_no_pending_root_updates() {
        let mut m = mem(SchemeKind::Scue);
        m.persist_data(LineAddr::new(0), line(1), 0).unwrap();
        assert_eq!(m.pending_root_updates(0), 0, "shortcut update is instant");
    }

    #[test]
    fn minor_overflow_reencrypts_and_reads_back() {
        let mut m = mem(SchemeKind::Scue);
        let mut now = 0;
        // Write neighbours first so overflow must re-encrypt them.
        now = m.persist_data(LineAddr::new(1), line(0xA1), now).unwrap();
        now = m.persist_data(LineAddr::new(2), line(0xA2), now).unwrap();
        // Drive line 0's minor past 127 to force an overflow.
        for i in 0..130u32 {
            now = m
                .persist_data(LineAddr::new(0), line(i as u8), now)
                .unwrap();
        }
        assert!(m.stats().overflows >= 1);
        let (a, d1) = m.read_data(LineAddr::new(1), now).unwrap();
        assert_eq!(a, line(0xA1), "re-encrypted neighbour must decrypt");
        let (b, _) = m.read_data(LineAddr::new(2), d1).unwrap();
        assert_eq!(b, line(0xA2));
    }

    /// A taller tree with a non-thrashing metadata cache — Table II in
    /// miniature. The tiny `small_test` cache thrashes, which inverts the
    /// paper's ordering (misses dominate everything).
    fn figure_config(scheme: SchemeKind) -> SecureMemConfig {
        let mut cfg = SecureMemConfig::small_test(scheme);
        cfg.geometry = scue_itree::TreeGeometry::tiny(512); // 4 stored levels
        cfg.mdcache_bytes = 1024 * 64;
        cfg.mdcache_ways = 8;
        cfg
    }

    #[test]
    fn write_latency_ordering_matches_paper() {
        // Same access pattern per scheme; mean write latencies must order
        // Baseline < SCUE < BMF-ideal and Lazy < PLP (Fig. 9).
        let mut means = std::collections::HashMap::new();
        for scheme in SchemeKind::ALL {
            let mut m = SecureMemory::new(figure_config(scheme));
            let mut now = 0;
            for round in 0..4u64 {
                for i in 0..512u64 {
                    let done = m
                        .persist_data(LineAddr::new((i * 67) % 32768), line(round as u8), now)
                        .unwrap();
                    // Workload-paced arrivals (queues drain between
                    // persists), as in Fig. 9's measurement.
                    now = done + 1_000;
                }
            }
            means.insert(scheme, m.stats().mean_write_latency());
        }
        let get = |s: SchemeKind| means[&s];
        assert!(
            get(SchemeKind::Baseline) < get(SchemeKind::Scue),
            "{means:?}"
        );
        assert!(
            get(SchemeKind::Scue) < get(SchemeKind::BmfIdeal),
            "{means:?}"
        );
        assert!(get(SchemeKind::Scue) < get(SchemeKind::Lazy), "{means:?}");
        assert!(get(SchemeKind::Scue) < get(SchemeKind::Plp), "{means:?}");
        // (Lazy vs PLP ordering emerges at realistic scale and is
        // asserted by the figure_shapes integration test.)
    }

    #[test]
    fn metadata_traffic_plp_dominates() {
        let mut meta = std::collections::HashMap::new();
        for scheme in [SchemeKind::Lazy, SchemeKind::Plp, SchemeKind::Scue] {
            let mut m = SecureMemory::new(figure_config(scheme));
            let mut now = 0;
            for i in 0..1024u64 {
                now = m
                    .persist_data(LineAddr::new((i * 131) % 32768), line(1), now)
                    .unwrap();
            }
            meta.insert(scheme, m.stats().mem.metadata_total());
        }
        // PLP persists shadow branch copies per write (§V-E: ~7× on the
        // paper's 9-level tree; proportionally less on this 5-level one).
        assert!(
            meta[&SchemeKind::Plp] as f64 > meta[&SchemeKind::Lazy] as f64 * 1.8,
            "{meta:?}"
        );
        // SCUE does roughly Lazy-level metadata traffic (§V-E).
        let ratio = meta[&SchemeKind::Scue] as f64 / meta[&SchemeKind::Lazy] as f64;
        assert!(ratio < 1.5 && ratio > 0.5, "SCUE ~ Lazy, got {ratio}");
    }

    #[test]
    fn runtime_tamper_detected_on_read() {
        let mut m = mem(SchemeKind::Scue);
        let now = m.persist_data(LineAddr::new(5), line(9), 0).unwrap();
        // Attacker flips a ciphertext byte in NVM.
        let mut raw = m.store().read_line(LineAddr::new(5));
        raw[0] ^= 0xFF;
        m.store_mut().tamper_line(LineAddr::new(5), raw);
        let err = m.read_data(LineAddr::new(5), now).unwrap_err();
        assert!(err.to_string().contains("MAC mismatch"));
    }

    #[test]
    fn baseline_misses_tampering() {
        let mut m = mem(SchemeKind::Baseline);
        let now = m.persist_data(LineAddr::new(5), line(9), 0).unwrap();
        let mut raw = m.store().read_line(LineAddr::new(5));
        raw[0] ^= 0xFF;
        m.store_mut().tamper_line(LineAddr::new(5), raw);
        // Baseline has no integrity checking: the read "succeeds" with
        // garbled data — the motivation for the tree.
        let (data, _) = m.read_data(LineAddr::new(5), now).unwrap();
        assert_ne!(data, line(9));
    }

    #[test]
    fn requests_on_crashed_machine_are_errors_not_aborts() {
        let mut m = mem(SchemeKind::Scue);
        m.crash(0);
        let err = m.persist_data(LineAddr::new(0), line(1), 0).unwrap_err();
        assert_eq!(err, CrashError::MachineCrashed);
        assert!(err.to_string().contains("crashed"));
        let err = m.read_data(LineAddr::new(0), 0).unwrap_err();
        assert_eq!(err, CrashError::MachineCrashed);
        assert!(err.as_integrity().is_none());
    }

    #[test]
    fn crash_with_no_faults_matches_plain_crash() {
        let mut m = mem(SchemeKind::Scue);
        let now = m.persist_data(LineAddr::new(3), line(7), 0).unwrap();
        let records = m.crash_with_faults(now, &scue_nvm::FaultPlan::none());
        assert!(records.is_empty());
        assert!(m.recover().outcome.is_success());
        let (data, _) = m.read_data(LineAddr::new(3), 0).unwrap();
        assert_eq!(data, line(7));
    }

    #[test]
    fn injected_bit_flip_is_detected_on_read() {
        let mut m = mem(SchemeKind::Scue);
        let now = m.persist_data(LineAddr::new(5), line(9), 0).unwrap();
        let plan = scue_nvm::FaultPlan::none().with_fault(scue_nvm::NvmFault::BitFlip {
            addr: LineAddr::new(5),
            byte: 0,
            bit: 0,
        });
        let records = m.crash_with_faults(now, &plan);
        assert_eq!(records.len(), 1);
        assert!(records[0].applied);
        assert!(
            m.recover().outcome.is_success(),
            "data faults pass root check"
        );
        let err = m.read_data(LineAddr::new(5), 0).unwrap_err();
        assert!(err.as_integrity().is_some(), "flip must not decrypt clean");
    }

    #[test]
    fn torn_counter_block_is_repaired_when_enabled() {
        let mut m = SecureMemory::new(
            SecureMemConfig::small_test(SchemeKind::Scue).with_counter_repair(true),
        );
        m.enable_fault_injection();
        let mut now = 0;
        for i in 0..4u64 {
            now = m
                .persist_data(LineAddr::new(i), line(i as u8 + 1), now)
                .unwrap();
        }
        // Tear the leaf-0 counter block: one leading word new, rest stale.
        let leaf_addr = m.context().geometry().node_addr(NodeId::new(0, 0));
        let plan = scue_nvm::FaultPlan::none().with_fault(scue_nvm::NvmFault::TornWrite {
            addr: leaf_addr,
            words_new: 1,
        });
        let records = m.crash_with_faults(now, &plan);
        assert!(records[0].applied, "history journal makes the tear land");
        let report = m.recover();
        assert_eq!(report.outcome, crate::recovery::RecoveryOutcome::Clean);
        assert!(report.repaired_leaves > 0, "Osiris replay fixed the block");
        for i in 0..4u64 {
            let (data, _) = m.read_data(LineAddr::new(i), 0).unwrap();
            assert_eq!(data, line(i as u8 + 1), "repaired counters decrypt");
        }
    }

    #[test]
    fn torn_counter_without_repair_fails_recovery() {
        let mut m = mem(SchemeKind::Scue);
        m.enable_fault_injection();
        let mut now = 0;
        for i in 0..4u64 {
            now = m
                .persist_data(LineAddr::new(i), line(i as u8 + 1), now)
                .unwrap();
        }
        let leaf_addr = m.context().geometry().node_addr(NodeId::new(0, 0));
        let plan = scue_nvm::FaultPlan::none().with_fault(scue_nvm::NvmFault::TornWrite {
            addr: leaf_addr,
            words_new: 1,
        });
        m.crash_with_faults(now, &plan);
        assert!(m.recover().outcome.is_failure(), "repair is opt-in");
    }

    /// Satellite: repeated crash/recover cycles with a non-empty victim
    /// buffer, with and without eADR. The tiny 2-way cache evicts
    /// constantly, so every persist round parks victims; the drain at the
    /// crash must leave a recoverable image either way.
    #[test]
    fn repeated_crashes_with_populated_victim_buffer() {
        for eadr in [false, true] {
            let mut m =
                SecureMemory::new(SecureMemConfig::small_test(SchemeKind::Scue).with_eadr(eadr));
            let mut now = 0;
            for round in 0..4u64 {
                // Stride across many leaves to churn the 2-way cache.
                for i in 0..24u64 {
                    now = m
                        .persist_data(
                            LineAddr::new((i * 64 + round) % 4096),
                            line(round as u8 + 1),
                            now,
                        )
                        .unwrap();
                }
                m.crash(now);
                assert!(
                    m.recover().outcome.is_success(),
                    "eadr={eadr} round {round}"
                );
            }
            let (data, _) = m.read_data(LineAddr::new(3), now).unwrap();
            assert_eq!(data, line(4), "eadr={eadr}");
        }
    }

    #[test]
    fn stats_populated() {
        let mut m = mem(SchemeKind::Scue);
        let now = m.persist_data(LineAddr::new(0), line(1), 0).unwrap();
        m.read_data(LineAddr::new(0), now).unwrap();
        let s = m.stats();
        assert_eq!(s.persists, 1);
        assert!(s.hashes > 0);
        assert!(s.mem.total() > 0);
        assert!(s.write_latency.count() == 1);
        assert!(s.read_latency.count() == 1);
    }

    // ------------------------------------------------------------------
    // Durable images
    // ------------------------------------------------------------------

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("scue-eng-durable-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        dir.join(name)
    }

    #[test]
    fn durable_create_checkpoint_reopen_recover_roundtrip() {
        for scheme in [SchemeKind::Scue, SchemeKind::Plp, SchemeKind::BmfIdeal] {
            let path = tmp(&format!("roundtrip-{scheme}.img"));
            let _ = std::fs::remove_file(&path);
            let mut m =
                SecureMemory::create_durable(SecureMemConfig::small_test(scheme), &path).unwrap();
            let mut now = 0;
            for i in 0..24u64 {
                now = m
                    .persist_data(LineAddr::new(i * 5), line(i as u8 + 1), now)
                    .unwrap();
            }
            let report = m.checkpoint(now).unwrap();
            assert!(report.generation >= 2, "{scheme}");
            drop(m);

            let mut back =
                SecureMemory::open_durable(SecureMemConfig::small_test(scheme), &path).unwrap();
            assert!(
                back.is_crashed(),
                "{scheme}: reopened engines are born crashed"
            );
            assert!(!back.image_fell_back(), "{scheme}");
            let rec = back.recover();
            assert!(rec.outcome.is_success(), "{scheme}: {:?}", rec.outcome);
            let mut now = 0;
            for i in 0..24u64 {
                let (data, done) = back.read_data(LineAddr::new(i * 5), now).unwrap();
                assert_eq!(data, line(i as u8 + 1), "{scheme} line {i}");
                now = done;
            }
        }
    }

    #[test]
    fn durable_writes_after_checkpoint_do_not_survive_reopen() {
        let path = tmp("post-ckpt-lost.img");
        let _ = std::fs::remove_file(&path);
        let cfg = SecureMemConfig::small_test(SchemeKind::Scue);
        let mut m = SecureMemory::create_durable(cfg.clone(), &path).unwrap();
        let now = m.persist_data(LineAddr::new(0), line(1), 0).unwrap();
        let now = m.checkpoint(now).unwrap().flushed_at;
        // Never checkpointed: must vanish with the process, like ADR
        // contents past the last power-fail-safe point.
        m.persist_data(LineAddr::new(64), line(9), now).unwrap();
        drop(m);

        let mut back = SecureMemory::open_durable(cfg, &path).unwrap();
        assert!(back.recover().outcome.is_success());
        let (data, now) = back.read_data(LineAddr::new(0), 0).unwrap();
        assert_eq!(data, line(1));
        // The image must not contain the uncheckpointed line; its NVM
        // line is still all-zero cipher (reads back as the OTP, with the
        // never-written MAC exemption keeping verification green).
        assert!(
            !back.store().iter().any(|(a, _)| a == LineAddr::new(64)),
            "uncheckpointed write leaked into the image"
        );
        let (data, _) = back.read_data(LineAddr::new(64), now).unwrap();
        assert_ne!(data, line(9), "uncheckpointed value survived reopen");
    }

    #[test]
    fn durable_open_rejects_config_mismatch() {
        let path = tmp("mismatch.img");
        let _ = std::fs::remove_file(&path);
        let m = SecureMemory::create_durable(SecureMemConfig::small_test(SchemeKind::Scue), &path)
            .unwrap();
        drop(m);
        let err = SecureMemory::open_durable(SecureMemConfig::small_test(SchemeKind::Plp), &path)
            .unwrap_err();
        assert!(
            matches!(err, DurableOpenError::ConfigMismatch { what: "scheme" }),
            "{err:?}"
        );
    }

    #[test]
    fn durable_open_rejects_out_of_range_sideband_and_nvmc_keys() {
        let cfg = SecureMemConfig::small_test(SchemeKind::BmfIdeal);
        for (name, sideband, nvmc, what) in [
            (
                "bad-sideband.img",
                cfg.geometry.total_lines(),
                0,
                "sideband address beyond the image",
            ),
            (
                "bad-nvmc.img",
                0,
                cfg.geometry.leaf_count(),
                "nvmc leaf index beyond the tree",
            ),
        ] {
            let path = tmp(name);
            let _ = std::fs::remove_file(&path);
            drop(SecureMemory::create_durable(cfg.clone(), &path).unwrap());
            // Seal a crafted meta blob over the valid image.
            let mut meta =
                DurableMeta::decode(scue_nvm::NvmStore::open_file(&path).unwrap().meta()).unwrap();
            meta.sideband.push((sideband, 1));
            meta.nvmc.push((nvmc, 1));
            let mut store = scue_nvm::NvmStore::open_file(&path).unwrap();
            store.checkpoint(&meta.encode()).unwrap();
            drop(store);
            let err = SecureMemory::open_durable(cfg.clone(), &path).unwrap_err();
            assert_eq!(
                err,
                crate::durable::MetaError::Corrupt(what).into(),
                "{name}"
            );
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn durable_checkpoint_refused_while_crashed() {
        let path = tmp("crashed-ckpt.img");
        let _ = std::fs::remove_file(&path);
        let cfg = SecureMemConfig::small_test(SchemeKind::Scue);
        let mut m = SecureMemory::create_durable(cfg, &path).unwrap();
        let now = m.persist_data(LineAddr::new(0), line(1), 0).unwrap();
        m.crash(now);
        assert!(matches!(m.checkpoint(now), Err(CheckpointError::Crashed)));
    }

    #[test]
    fn durable_torn_newest_slot_falls_back_and_recovers() {
        let path = tmp("torn-slot.img");
        let _ = std::fs::remove_file(&path);
        let cfg = SecureMemConfig::small_test(SchemeKind::Scue);
        let mut m = SecureMemory::create_durable(cfg.clone(), &path).unwrap();
        let now = m.persist_data(LineAddr::new(0), line(1), 0).unwrap();
        let now = m.checkpoint(now).unwrap().flushed_at;
        let now = m.persist_data(LineAddr::new(1), line(2), now).unwrap();
        m.checkpoint(now).unwrap();
        drop(m);

        scue_nvm::apply_durable(&path, scue_nvm::DurableFault::TornRootSlot { words_new: 3 })
            .unwrap();

        let mut back = SecureMemory::open_durable(cfg, &path).unwrap();
        assert!(back.image_fell_back(), "torn newest slot must fall back");
        assert!(back.recover().outcome.is_success());
        // The fallback checkpoint predates the second persist.
        let (data, now) = back.read_data(LineAddr::new(0), 0).unwrap();
        assert_eq!(data, line(1));
        assert!(
            !back.store().iter().any(|(a, _)| a == LineAddr::new(1)),
            "second checkpoint's line visible after fallback"
        );
        let (data, _) = back.read_data(LineAddr::new(1), now).unwrap();
        assert_ne!(data, line(2), "post-fallback read saw the torn checkpoint");
    }
}
