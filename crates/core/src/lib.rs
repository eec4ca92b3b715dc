//! SCUE — shortcut root updates and counter-summing recovery for
//! SGX-style integrity trees in secure NVM.
//!
//! This crate is the reproduction of the paper's contribution (HPCA 2023,
//! Huang & Hua): a secure-memory engine that keeps a 16 GB PCM region
//! encrypted (counter-mode) and integrity-protected (SIT), with eleven
//! interchangeable *update schemes* deciding how tree modifications
//! propagate to the on-chip root. Each is one row of plain data, a
//! [`SchemeSpec`] (see [`SchemeKind::spec`]):
//!
//! | Scheme | Root crash-consistent? | Critical-path cost per persist |
//! |---|---|---|
//! | [`SchemeKind::Baseline`] | n/a (no tree) | encryption only |
//! | [`SchemeKind::Lazy`] | no | parent-chain reads + leaf MAC + serial parent MAC |
//! | [`SchemeKind::Eager`] | only outside the crash window | chain reads + branch hashes |
//! | [`SchemeKind::Plp`] | yes | eager + branch persists |
//! | [`SchemeKind::BmfIdeal`] | yes (256 MB nvMC) | leaf + parent MAC hashes |
//! | [`SchemeKind::Scue`] | **yes (128 B registers)** | one leaf MAC via dummy counter |
//! | [`SchemeKind::Phoenix`] | yes | chain reads + serial branch hashes + branch persists |
//! | [`SchemeKind::TriadL1`] | no | leaf MAC; parent updated after the ack |
//! | [`SchemeKind::TriadL2`] | no | leaf MAC + L1 parent MAC and write-through |
//! | [`SchemeKind::Zuo`] | no | leaf MAC; branch and root propagate after the ack |
//! | [`SchemeKind::Freij`] | yes | chain reads + one coalesced hash batch |
//!
//! The two ideas from the paper:
//!
//! 1. **Shortcut update** (§IV-A): on every leaf persist, bump the
//!    corresponding counter of an on-chip `Recovery_root` directly —
//!    skipping every intermediate node — so the root is *always*
//!    consistent with the persisted leaves and the crash window vanishes.
//! 2. **Counter-summing recovery** (§IV-B): because an eagerly-updated
//!    parent counter equals the sum of its child counters, the whole SIT
//!    reconstructs bottom-up from leaves via *dummy counters* (Fig. 7),
//!    exactly like a BMT — [`recovery`] implements it and
//!    detects roll-forward / roll-back / replay attacks per Table I.
//!
//! # Quick start
//!
//! ```
//! use scue::{SchemeKind, SecureMemConfig, SecureMemory};
//! use scue_nvm::LineAddr;
//!
//! let mut mem = SecureMemory::new(SecureMemConfig::small_test(SchemeKind::Scue));
//! let data = [7u8; 64];
//! let done = mem.persist_data(LineAddr::new(0), data, 0).unwrap();
//!
//! // Power fails immediately — no propagation ever ran.
//! mem.crash(done);
//! let report = mem.recover();
//! assert!(report.outcome.is_success());
//! let (back, _) = mem.read_data(LineAddr::new(0), 0).unwrap();
//! assert_eq!(back, data);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attack;
pub mod config;
pub mod durable;
pub mod engine;
pub mod fastrec;
pub mod meta;
pub mod osiris;
pub mod overheads;
pub mod recovery;
pub mod stats;

pub use config::{
    HashSchedule, RootDiscipline, RootPolicy, SchemeKind, SchemeSpec, SecureMemConfig, TreeUpdate,
};
pub use durable::{CheckpointError, CheckpointReport, DurableMeta, DurableOpenError, MetaError};
pub use engine::{CrashError, IntegrityError, SecureMemory};
pub use recovery::{ConsistencyProbe, RecoveryOutcome, RecoveryPhases, RecoveryReport};
pub use stats::{EngineStats, LatencyStats};
