//! Workloads for the SCUE evaluation (§V-A).
//!
//! Two families, matching the paper:
//!
//! * **Persistent workloads** — `array`, `btree`, `hash`, `queue`,
//!   `rbtree`: real data structures running on a persistent-memory region
//!   abstraction ([`pmem::PmRegion`]) that records every load, store,
//!   `clwb` and fence they issue. These are the write-intensive,
//!   persist-ordered traces where root crash consistency matters most.
//! * **SPEC CPU2006 stand-ins** — eight synthetic generators
//!   ([`spec`]) parameterised per application (footprint, write ratio,
//!   locality, compute density, ~50 % memory instructions). The paper's
//!   figures report overheads *normalised to Baseline*, which are driven
//!   by exactly these parameters rather than by the apps' computation —
//!   see DESIGN.md for the substitution argument.
//!
//! Every generator is deterministic given a seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod generators;
pub mod pmem;
pub mod spec;
pub mod trace;

pub use trace::{MemOp, Trace, TraceStats};

/// The 13 evaluated workloads (5 persistent + 8 SPEC-like), in the
/// paper's figure order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// Persistent array: random in-place updates, each persisted.
    Array,
    /// Persistent B-tree: ordered inserts with node splits.
    Btree,
    /// Persistent open-addressing hash table.
    Hash,
    /// Persistent ring-buffer queue.
    Queue,
    /// Persistent red-black tree.
    Rbtree,
    /// SPEC-like: lbm (streaming stencil, write-heavy).
    Lbm,
    /// SPEC-like: mcf (pointer chasing, read-heavy, poor locality).
    Mcf,
    /// SPEC-like: libquantum (sequential streaming).
    Libquantum,
    /// SPEC-like: omnetpp (event queue, small random working set).
    Omnetpp,
    /// SPEC-like: milc (strided lattice sweeps).
    Milc,
    /// SPEC-like: soplex (sparse matrix, mixed).
    Soplex,
    /// SPEC-like: gcc (irregular, moderate locality).
    Gcc,
    /// SPEC-like: bwaves (dense sequential loops, read-mostly).
    Bwaves,
}

impl Workload {
    /// All workloads, figure order: persistent first, then SPEC.
    pub const ALL: [Workload; 13] = [
        Workload::Array,
        Workload::Btree,
        Workload::Hash,
        Workload::Queue,
        Workload::Rbtree,
        Workload::Lbm,
        Workload::Mcf,
        Workload::Libquantum,
        Workload::Omnetpp,
        Workload::Milc,
        Workload::Soplex,
        Workload::Gcc,
        Workload::Bwaves,
    ];

    /// The five persistent workloads.
    pub const PERSISTENT: [Workload; 5] = [
        Workload::Array,
        Workload::Btree,
        Workload::Hash,
        Workload::Queue,
        Workload::Rbtree,
    ];

    /// The eight SPEC CPU2006 stand-ins.
    pub const SPEC: [Workload; 8] = [
        Workload::Lbm,
        Workload::Mcf,
        Workload::Libquantum,
        Workload::Omnetpp,
        Workload::Milc,
        Workload::Soplex,
        Workload::Gcc,
        Workload::Bwaves,
    ];

    /// Display name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Array => "array",
            Workload::Btree => "btree",
            Workload::Hash => "hash",
            Workload::Queue => "queue",
            Workload::Rbtree => "rbtree",
            Workload::Lbm => "lbm",
            Workload::Mcf => "mcf",
            Workload::Libquantum => "libquantum",
            Workload::Omnetpp => "omnetpp",
            Workload::Milc => "milc",
            Workload::Soplex => "soplex",
            Workload::Gcc => "gcc",
            Workload::Bwaves => "bwaves",
        }
    }

    /// Generates this workload's trace with roughly `scale` operations.
    pub fn generate(self, scale: usize, seed: u64) -> Trace {
        match self {
            Workload::Array => generators::array(scale, seed),
            Workload::Btree => generators::btree(scale, seed),
            Workload::Hash => generators::hash(scale, seed),
            Workload::Queue => generators::queue(scale, seed),
            Workload::Rbtree => generators::rbtree(scale, seed),
            spec_app => spec::generate(spec_app, scale, seed),
        }
    }
}

impl std::fmt::Display for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Parses a workload from its name, ignoring ASCII case.
impl std::str::FromStr for Workload {
    type Err = String;

    fn from_str(s: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| s.eq_ignore_ascii_case(w.name()))
            .ok_or_else(|| format!("unknown workload `{s}`"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_contains_both_families() {
        assert_eq!(Workload::ALL.len(), 13);
        assert_eq!(Workload::PERSISTENT.len() + Workload::SPEC.len(), 13);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 13);
    }

    #[test]
    fn names_parse_back_in_any_case() {
        for w in Workload::ALL {
            assert_eq!(w.name().parse(), Ok(w));
            assert_eq!(w.name().to_ascii_uppercase().parse(), Ok(w));
        }
        assert!("nope".parse::<Workload>().is_err());
    }

    #[test]
    fn generation_is_deterministic() {
        for w in Workload::ALL {
            let a = w.generate(500, 42);
            let b = w.generate(500, 42);
            assert_eq!(a.ops, b.ops, "{w}");
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = Workload::Mcf.generate(500, 1);
        let b = Workload::Mcf.generate(500, 2);
        assert_ne!(a.ops, b.ops);
    }

    #[test]
    fn every_workload_generates_stores() {
        for w in Workload::ALL {
            let t = w.generate(2_000, 7);
            let stats = t.stats();
            assert!(stats.stores > 0, "{w} must write");
            assert!(stats.loads > 0, "{w} must read");
        }
    }

    #[test]
    fn persistent_workloads_fence() {
        for w in Workload::PERSISTENT {
            let t = w.generate(2_000, 7);
            let stats = t.stats();
            assert!(stats.persists > 0, "{w} must clwb");
            assert!(stats.fences > 0, "{w} must fence");
        }
    }
}
