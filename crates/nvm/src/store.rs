//! The functional NVM image: sparse, zero-filled, snapshot-able, attackable.
//!
//! A 16 GB device holds 2^28 lines, far more than any trace touches, so the
//! default backend is a hash map of touched lines over an implicit all-zero
//! image. Untouched lines read as zero — which the integrity layer exploits:
//! an all-zero SIT node with an all-zero "never written" MAC convention sums
//! to zero in counter-summing recovery, so untouched subtrees cost nothing
//! to reconstruct.
//!
//! Since PR 8 the store is a facade over a [`Backend`]: the same image can
//! live in memory ([`MemBackend`]) or in a page-granular file with
//! copy-on-write checkpoints ([`FileBackend`]), opened via
//! [`NvmStore::create_file`]/[`NvmStore::open_file`]. The facade owns the
//! backend-agnostic concerns: capacity bounds, write accounting, and the
//! bounded undo-history journal the fault injector feeds on.
//!
//! Because NVM is *outside* the trusted domain (§II-A), the store also
//! exposes [`NvmStore::tamper_line`] so attack experiments can model an
//! adversary with full physical access (stolen DIMM, bus control).

use crate::addr::{LineAddr, LINE_BYTES};
use crate::backend::{Backend, IoError, MemBackend, OpenError};
use crate::checkpoint::FileBackend;
use scue_util::hash::FixedHashMap;
use std::path::Path;

/// One 64 B line of content.
pub type Line = [u8; LINE_BYTES];

/// An all-zero line, the content of any never-written address.
pub const ZERO_LINE: Line = [0u8; LINE_BYTES];

/// Default bound on the undo-history journal (distinct journalled lines).
/// Long campaigns touch the same working set repeatedly, so 2^16 entries
/// cover every realistic fault-injection window; beyond it new addresses
/// are dropped and counted, mirroring the `trace.dropped_events` pattern.
pub const DEFAULT_HISTORY_CAP: usize = 1 << 16;

/// Where the image lives.
#[derive(Debug, Clone)]
enum StoreBackend {
    Mem(MemBackend),
    File(FileBackend),
}

impl StoreBackend {
    fn get(&self) -> &dyn Backend {
        match self {
            StoreBackend::Mem(b) => b,
            StoreBackend::File(b) => b,
        }
    }

    fn get_mut(&mut self) -> &mut dyn Backend {
        match self {
            StoreBackend::Mem(b) => b,
            StoreBackend::File(b) => b,
        }
    }
}

/// Occupancy of the bounded undo-history journal (see
/// [`NvmStore::history_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistoryStats {
    /// Distinct lines currently journalled.
    pub entries: usize,
    /// Journal capacity in distinct lines.
    pub cap: usize,
    /// Writes whose pre-image was discarded because the journal was full.
    pub dropped: u64,
}

/// The bounded pre-write journal: per-line "old" content for the fault
/// injector, capped so week-long campaigns cannot grow it without limit.
#[derive(Debug, Clone)]
struct HistoryJournal {
    map: FixedHashMap<LineAddr, Line>,
    cap: usize,
    dropped: u64,
}

impl HistoryJournal {
    fn new(cap: usize) -> Self {
        Self {
            map: FixedHashMap::default(),
            cap,
            dropped: 0,
        }
    }

    fn record(&mut self, addr: LineAddr, old: Line) {
        if self.map.len() >= self.cap && !self.map.contains_key(&addr) {
            // Drop-new keeps the policy deterministic: the journal holds
            // the *oldest* working set, and the drop counter surfaces
            // the loss instead of silently evicting.
            self.dropped += 1;
            return;
        }
        self.map.insert(addr, old);
    }
}

/// Sparse functional NVM image (facade over a [`Backend`]).
#[derive(Debug, Clone)]
pub struct NvmStore {
    backend: StoreBackend,
    capacity_lines: Option<u64>,
    writes: u64,
    history: Option<HistoryJournal>,
    history_cap: usize,
}

impl Default for NvmStore {
    fn default() -> Self {
        Self {
            backend: StoreBackend::Mem(MemBackend::new()),
            capacity_lines: None,
            writes: 0,
            history: None,
            history_cap: DEFAULT_HISTORY_CAP,
        }
    }
}

impl NvmStore {
    /// An unbounded in-memory store (tests, small experiments).
    pub fn new() -> Self {
        Self::default()
    }

    /// An in-memory store that rejects addresses at or beyond
    /// `capacity_lines`.
    pub fn with_capacity_lines(capacity_lines: u64) -> Self {
        Self {
            capacity_lines: Some(capacity_lines),
            ..Self::default()
        }
    }

    /// Creates a fresh durable image file at `path` (see
    /// [`FileBackend::create`]) and wraps it in a store.
    pub fn create_file(path: &Path) -> Result<Self, OpenError> {
        Ok(Self {
            backend: StoreBackend::File(FileBackend::create(path)?),
            ..Self::default()
        })
    }

    /// Opens an existing durable image, selecting the newest valid
    /// checkpoint slot and falling back past a torn one (see
    /// [`FileBackend::open`]).
    pub fn open_file(path: &Path) -> Result<Self, OpenError> {
        Ok(Self {
            backend: StoreBackend::File(FileBackend::open(path)?),
            ..Self::default()
        })
    }

    /// Whether the image is file-backed (durable) rather than in-memory.
    pub fn is_durable(&self) -> bool {
        matches!(self.backend, StoreBackend::File(_))
    }

    /// Whether opening this image had to fall back past a damaged newest
    /// checkpoint slot. Always `false` for in-memory stores.
    pub fn fell_back(&self) -> bool {
        match &self.backend {
            StoreBackend::Mem(_) => false,
            StoreBackend::File(b) => b.fell_back(),
        }
    }

    /// Turns the undo-history journal on or off.
    ///
    /// While on, every [`NvmStore::write_line`] records the line's
    /// pre-write content (up to the configured cap — see
    /// [`NvmStore::set_history_cap`]), so the fault injector can later
    /// synthesise a torn write (prefix new, suffix old) or a dropped
    /// write (full revert). Turning tracking off discards the journal.
    pub fn track_history(&mut self, on: bool) {
        self.history = if on {
            Some(
                self.history
                    .take()
                    .unwrap_or_else(|| HistoryJournal::new(self.history_cap)),
            )
        } else {
            None
        };
    }

    /// Sets the journal's capacity in distinct lines (default
    /// [`DEFAULT_HISTORY_CAP`]). Applies to the live journal immediately;
    /// already-journalled entries are kept even if over the new cap.
    pub fn set_history_cap(&mut self, cap: usize) {
        self.history_cap = cap;
        if let Some(j) = self.history.as_mut() {
            j.cap = cap;
        }
    }

    /// Occupancy and drop count of the undo-history journal.
    pub fn history_stats(&self) -> HistoryStats {
        match &self.history {
            Some(j) => HistoryStats {
                entries: j.map.len(),
                cap: j.cap,
                dropped: j.dropped,
            },
            None => HistoryStats {
                entries: 0,
                cap: self.history_cap,
                dropped: 0,
            },
        }
    }

    /// The content this line held *before* its most recent write, when
    /// history tracking was on for that write.
    pub fn previous_line(&self, addr: LineAddr) -> Option<Line> {
        self.history.as_ref()?.map.get(&addr).copied()
    }

    /// Reads a line; untouched lines are zero.
    ///
    /// # Panics
    ///
    /// Panics if the address is beyond the configured capacity — that is a
    /// simulator wiring bug, not a runtime condition.
    pub fn read_line(&self, addr: LineAddr) -> Line {
        self.check_bounds(addr);
        self.backend.get().read_line(addr)
    }

    /// Writes a line.
    ///
    /// # Panics
    ///
    /// Panics if the address is beyond the configured capacity.
    pub fn write_line(&mut self, addr: LineAddr, line: Line) {
        self.check_bounds(addr);
        self.writes += 1;
        if self.history.is_some() {
            let old = self.backend.get().read_line(addr);
            if let Some(history) = self.history.as_mut() {
                history.record(addr, old);
            }
        }
        self.backend.get_mut().write_line(addr, line);
    }

    /// Number of distinct touched (non-zero) lines.
    pub fn touched_lines(&self) -> usize {
        self.backend.get().nonzero_lines() as usize
    }

    /// Total writes ever applied (endurance proxy).
    pub fn total_writes(&self) -> u64 {
        self.writes
    }

    /// Iterates over all non-zero lines (address order unspecified).
    ///
    /// Lines are owned: a file backend pages content in on demand, so
    /// there is no stable map to borrow from.
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, Line)> {
        self.backend.get().lines().into_iter()
    }

    /// Commits the image plus the caller's `meta` blob as a durable
    /// checkpoint generation (an epoch boundary marker on in-memory
    /// backends). Returns the committed generation.
    pub fn checkpoint(&mut self, meta: &[u8]) -> Result<u64, IoError> {
        self.backend.get_mut().checkpoint(meta)
    }

    /// The last committed checkpoint generation.
    pub fn generation(&self) -> u64 {
        self.backend.get().generation()
    }

    /// The meta blob of the last committed checkpoint.
    pub fn meta(&self) -> &[u8] {
        self.backend.get().meta()
    }

    /// The first I/O failure swallowed on the infallible read/write path,
    /// if any (file backends only).
    pub fn last_io_error(&self) -> Option<IoError> {
        self.backend.get().last_io_error()
    }

    /// Captures the full image for later [`NvmStore::restore`] — used by
    /// crash experiments to model "the state at power-fail".
    pub fn snapshot(&self) -> NvmSnapshot {
        let lines = match &self.backend {
            StoreBackend::Mem(b) => b.line_map().clone(),
            StoreBackend::File(b) => b.lines().into_iter().collect(),
        };
        NvmSnapshot { lines }
    }

    /// Restores a previously captured image (write statistics unchanged).
    pub fn restore(&mut self, snapshot: &NvmSnapshot) {
        match &mut self.backend {
            StoreBackend::Mem(b) => b.replace_lines(snapshot.lines.clone()),
            StoreBackend::File(b) => {
                // Zero everything not in the snapshot, then lay the
                // snapshot down — bypassing facade accounting, like the
                // in-memory wholesale replacement.
                for (addr, _) in b.lines() {
                    if !snapshot.lines.contains_key(&addr) {
                        b.write_line(addr, ZERO_LINE);
                    }
                }
                for (&addr, &line) in &snapshot.lines {
                    b.write_line(addr, line);
                }
            }
        }
    }

    /// Adversarial mutation of NVM content, bypassing all accounting.
    ///
    /// Returns the previous content so attacks can record old (data, MAC)
    /// tuples for replay.
    pub fn tamper_line(&mut self, addr: LineAddr, line: Line) -> Line {
        self.check_bounds(addr);
        let old = self.backend.get().read_line(addr);
        self.backend.get_mut().write_line(addr, line);
        old
    }

    fn check_bounds(&self, addr: LineAddr) {
        if let Some(cap) = self.capacity_lines {
            assert!(
                addr.raw() < cap,
                "address {addr} beyond NVM capacity of {cap} lines"
            );
        }
    }
}

/// A captured NVM image (see [`NvmStore::snapshot`]).
#[derive(Debug, Clone)]
pub struct NvmSnapshot {
    lines: FixedHashMap<LineAddr, Line>,
}

impl NvmSnapshot {
    /// Number of non-zero lines in the snapshot.
    pub fn touched_lines(&self) -> usize {
        self.lines.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untouched_lines_read_zero() {
        let store = NvmStore::new();
        assert_eq!(store.read_line(LineAddr::new(42)), ZERO_LINE);
    }

    #[test]
    fn write_then_read() {
        let mut store = NvmStore::new();
        let line = [7u8; LINE_BYTES];
        store.write_line(LineAddr::new(1), line);
        assert_eq!(store.read_line(LineAddr::new(1)), line);
        assert_eq!(store.touched_lines(), 1);
    }

    #[test]
    fn zero_write_keeps_store_sparse() {
        let mut store = NvmStore::new();
        store.write_line(LineAddr::new(1), [1u8; LINE_BYTES]);
        store.write_line(LineAddr::new(1), ZERO_LINE);
        assert_eq!(store.touched_lines(), 0);
        assert_eq!(store.read_line(LineAddr::new(1)), ZERO_LINE);
        assert_eq!(store.total_writes(), 2);
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut store = NvmStore::new();
        store.write_line(LineAddr::new(3), [3u8; LINE_BYTES]);
        let snap = store.snapshot();
        store.write_line(LineAddr::new(3), [4u8; LINE_BYTES]);
        store.write_line(LineAddr::new(9), [9u8; LINE_BYTES]);
        store.restore(&snap);
        assert_eq!(store.read_line(LineAddr::new(3)), [3u8; LINE_BYTES]);
        assert_eq!(store.read_line(LineAddr::new(9)), ZERO_LINE);
    }

    #[test]
    fn tamper_returns_old_content() {
        let mut store = NvmStore::new();
        store.write_line(LineAddr::new(5), [5u8; LINE_BYTES]);
        let old = store.tamper_line(LineAddr::new(5), [6u8; LINE_BYTES]);
        assert_eq!(old, [5u8; LINE_BYTES]);
        assert_eq!(store.read_line(LineAddr::new(5)), [6u8; LINE_BYTES]);
    }

    #[test]
    fn tamper_does_not_count_as_write() {
        let mut store = NvmStore::new();
        store.tamper_line(LineAddr::new(5), [1u8; LINE_BYTES]);
        assert_eq!(store.total_writes(), 0);
    }

    #[test]
    #[should_panic(expected = "beyond NVM capacity")]
    fn capacity_enforced() {
        let store = NvmStore::with_capacity_lines(10);
        let _ = store.read_line(LineAddr::new(10));
    }

    #[test]
    fn capacity_boundary_is_exclusive() {
        let mut store = NvmStore::with_capacity_lines(10);
        store.write_line(LineAddr::new(9), [1u8; LINE_BYTES]); // ok
    }

    #[test]
    fn history_journal_records_pre_write_content() {
        let mut store = NvmStore::new();
        let a = LineAddr::new(1);
        store.write_line(a, [1u8; LINE_BYTES]);
        assert_eq!(store.previous_line(a), None, "tracking was off");
        store.track_history(true);
        store.write_line(a, [2u8; LINE_BYTES]);
        assert_eq!(store.previous_line(a), Some([1u8; LINE_BYTES]));
        store.write_line(a, [3u8; LINE_BYTES]);
        assert_eq!(store.previous_line(a), Some([2u8; LINE_BYTES]));
        // First-ever write journals the implicit zero image.
        store.write_line(LineAddr::new(2), [9u8; LINE_BYTES]);
        assert_eq!(store.previous_line(LineAddr::new(2)), Some(ZERO_LINE));
        // Tampering bypasses the journal entirely.
        store.tamper_line(a, [7u8; LINE_BYTES]);
        assert_eq!(store.previous_line(a), Some([2u8; LINE_BYTES]));
        store.track_history(false);
        assert_eq!(store.previous_line(a), None, "journal discarded");
    }

    #[test]
    fn history_journal_is_bounded_and_counts_drops() {
        let mut store = NvmStore::new();
        store.set_history_cap(2);
        store.track_history(true);
        store.write_line(LineAddr::new(1), [1u8; LINE_BYTES]);
        store.write_line(LineAddr::new(2), [2u8; LINE_BYTES]);
        // Journal full: a third distinct address is dropped …
        store.write_line(LineAddr::new(3), [3u8; LINE_BYTES]);
        // … but re-writes of journalled addresses still update in place.
        store.write_line(LineAddr::new(1), [9u8; LINE_BYTES]);
        let stats = store.history_stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.cap, 2);
        assert_eq!(stats.dropped, 1);
        assert_eq!(
            store.previous_line(LineAddr::new(1)),
            Some([1u8; LINE_BYTES])
        );
        assert_eq!(store.previous_line(LineAddr::new(3)), None, "dropped");
    }

    #[test]
    fn default_history_cap_reported_when_tracking_off() {
        let store = NvmStore::new();
        let stats = store.history_stats();
        assert_eq!(stats.cap, DEFAULT_HISTORY_CAP);
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.dropped, 0);
    }

    #[test]
    fn mem_store_checkpoint_is_an_epoch_marker() {
        let mut store = NvmStore::new();
        assert!(!store.is_durable());
        assert_eq!(store.generation(), 0);
        assert_eq!(store.checkpoint(b"m"), Ok(1));
        assert_eq!(store.meta(), b"m");
        assert!(!store.fell_back());
        assert!(store.last_io_error().is_none());
    }

    #[test]
    fn file_store_roundtrips_through_reopen() {
        let dir = std::env::temp_dir().join(format!("scue-store-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("facade.img");
        let mut store = NvmStore::create_file(&path).unwrap();
        assert!(store.is_durable());
        store.write_line(LineAddr::new(17), [17u8; LINE_BYTES]);
        let gen = store.checkpoint(b"facade meta").unwrap();
        drop(store);
        let store = NvmStore::open_file(&path).unwrap();
        assert_eq!(store.generation(), gen);
        assert_eq!(store.meta(), b"facade meta");
        assert_eq!(store.read_line(LineAddr::new(17)), [17u8; LINE_BYTES]);
        assert_eq!(store.touched_lines(), 1);
        let _ = std::fs::remove_file(&path);
    }
}
