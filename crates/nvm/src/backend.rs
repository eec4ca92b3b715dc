//! Storage backends behind [`crate::store::NvmStore`].
//!
//! The store facade (capacity bounds, write accounting, the undo-history
//! journal) is backend-agnostic; the backend decides where line content
//! actually lives:
//!
//! * [`MemBackend`] — the classic sparse hash map over an implicit
//!   all-zero image, keyed with the fixed hasher of [`scue_util::hash`]. Checkpoints are generation bumps with no I/O.
//! * [`crate::checkpoint::FileBackend`] — a page-granular file with
//!   copy-on-write checkpoints and dual root slots (see
//!   [`crate::layout`]), so a killed process can reopen the image and
//!   recover from genuinely persisted bytes.
//!
//! Backends are infallible on the line read/write path (the engine's hot
//! path stays `Result`-free); real I/O failures degrade to a sticky
//! [`IoError`] that [`Backend::last_io_error`] surfaces and that fails
//! the next [`Backend::checkpoint`] — never a panic.

use crate::addr::LineAddr;
use crate::layout::HeaderError;
use crate::store::{Line, ZERO_LINE};
use scue_util::hash::FixedHashMap;

/// A typed, cloneable I/O failure (the std error is not `Clone`, and the
/// store must stay `Clone` for crash experiments).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IoError {
    /// An operating-system I/O failure during `op`.
    Io {
        /// What the backend was doing (`"read page"`, `"fsync"`, …).
        op: &'static str,
        /// The std error kind.
        kind: std::io::ErrorKind,
        /// The rendered OS error.
        detail: String,
    },
    /// The backend is a detached clone: it carries the image contents but
    /// no file handle, so it can serve reads/writes in memory but cannot
    /// checkpoint. Crash experiments clone engines freely; only the
    /// original may persist.
    Detached,
}

impl IoError {
    /// Wraps a std I/O error with the failing operation's name.
    pub fn from_io(op: &'static str, e: &std::io::Error) -> Self {
        IoError::Io {
            op,
            kind: e.kind(),
            detail: e.to_string(),
        }
    }
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io { op, detail, .. } => write!(f, "{op}: {detail}"),
            IoError::Detached => write!(f, "detached clone: no file handle to persist to"),
        }
    }
}

impl std::error::Error for IoError {}

/// Why a durable image failed to open. Every damage mode degrades to a
/// typed error — a corrupt file must never panic the simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpenError {
    /// The file could not be read at all.
    Io(IoError),
    /// Page 0 is not a valid image header.
    Header(HeaderError),
    /// Neither root slot holds a complete, CRC-valid checkpoint whose
    /// page table and meta blob are intact and inside the file. A torn
    /// *newest* slot is not this error — it falls back to the previous
    /// slot; this fires only when both generations are gone.
    NoValidSlot,
}

impl std::fmt::Display for OpenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OpenError::Io(e) => write!(f, "open failed: {e}"),
            OpenError::Header(e) => write!(f, "open failed: {e}"),
            OpenError::NoValidSlot => {
                write!(
                    f,
                    "open failed: no valid checkpoint slot in either position"
                )
            }
        }
    }
}

impl std::error::Error for OpenError {}

impl From<IoError> for OpenError {
    fn from(e: IoError) -> Self {
        OpenError::Io(e)
    }
}

/// The storage contract behind the store facade.
///
/// Line reads and writes are infallible (see the module docs for the
/// degradation contract); durability is explicit via
/// [`Backend::checkpoint`].
pub trait Backend {
    /// Reads one line; untouched lines are zero.
    fn read_line(&self, addr: LineAddr) -> Line;

    /// Writes one line.
    fn write_line(&mut self, addr: LineAddr, line: Line);

    /// Number of non-zero lines in the image.
    fn nonzero_lines(&self) -> u64;

    /// All non-zero lines, owned (order unspecified).
    fn lines(&self) -> Vec<(LineAddr, Line)>;

    /// Commits the current image plus the caller's `meta` blob as a new
    /// checkpoint generation; returns the committed generation.
    fn checkpoint(&mut self, meta: &[u8]) -> Result<u64, IoError>;

    /// The last committed checkpoint generation.
    fn generation(&self) -> u64;

    /// The meta blob of the last committed checkpoint.
    fn meta(&self) -> &[u8];

    /// The first I/O failure the backend swallowed on the infallible
    /// read/write path, if any (owned: file backends record it behind a
    /// `RefCell` so the `&self` read path can set it).
    fn last_io_error(&self) -> Option<IoError>;
}

/// The classic in-memory backend: a sparse map of touched lines.
#[derive(Debug, Clone, Default)]
pub struct MemBackend {
    lines: FixedHashMap<LineAddr, Line>,
    generation: u64,
    meta: Vec<u8>,
}

impl MemBackend {
    /// An empty in-memory image.
    pub fn new() -> Self {
        Self::default()
    }

    /// Replaces the whole image (snapshot restore).
    pub(crate) fn replace_lines(&mut self, lines: FixedHashMap<LineAddr, Line>) {
        self.lines = lines;
    }

    /// Borrowed view of the line map (snapshot capture).
    pub(crate) fn line_map(&self) -> &FixedHashMap<LineAddr, Line> {
        &self.lines
    }
}

impl Backend for MemBackend {
    fn read_line(&self, addr: LineAddr) -> Line {
        self.lines.get(&addr).copied().unwrap_or(ZERO_LINE)
    }

    fn write_line(&mut self, addr: LineAddr, line: Line) {
        if line == ZERO_LINE {
            // Keep the map sparse: a zero write restores the implicit image.
            self.lines.remove(&addr);
        } else {
            self.lines.insert(addr, line);
        }
    }

    fn nonzero_lines(&self) -> u64 {
        self.lines.len() as u64
    }

    fn lines(&self) -> Vec<(LineAddr, Line)> {
        self.lines.iter().map(|(&a, &l)| (a, l)).collect()
    }

    fn checkpoint(&mut self, meta: &[u8]) -> Result<u64, IoError> {
        // No medium to persist to: a checkpoint is an epoch boundary
        // marker, so campaigns run identically on either backend.
        self.generation = self.generation.wrapping_add(1);
        self.meta = meta.to_vec();
        Ok(self.generation)
    }

    fn generation(&self) -> u64 {
        self.generation
    }

    fn meta(&self) -> &[u8] {
        &self.meta
    }

    fn last_io_error(&self) -> Option<IoError> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::LINE_BYTES;

    #[test]
    fn mem_backend_checkpoint_bumps_generation() {
        let mut b = MemBackend::new();
        assert_eq!(b.generation(), 0);
        assert_eq!(b.checkpoint(b"abc".as_slice()), Ok(1));
        assert_eq!(b.checkpoint(b"def".as_slice()), Ok(2));
        assert_eq!(b.meta(), b"def");
        assert!(b.last_io_error().is_none());
    }

    #[test]
    fn mem_backend_lines_are_owned_and_sparse() {
        let mut b = MemBackend::new();
        b.write_line(LineAddr::new(1), [1; LINE_BYTES]);
        b.write_line(LineAddr::new(2), [2; LINE_BYTES]);
        b.write_line(LineAddr::new(1), ZERO_LINE);
        assert_eq!(b.nonzero_lines(), 1);
        assert_eq!(b.lines(), vec![(LineAddr::new(2), [2; LINE_BYTES])]);
    }
}
