//! Configuration of the secure-memory engine.

use scue_crypto::engine::DEFAULT_HASH_LATENCY;
use scue_itree::TreeGeometry;

/// The integrity-tree update scheme in force (§V-A's evaluated schemes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemeKind {
    /// Insecure baseline: counter-mode encryption only, no integrity
    /// verification (the paper's normalisation target).
    Baseline,
    /// Lazy SIT updates: only the parent of a persisted node is updated;
    /// the root is touched only when a top-level node is flushed. No root
    /// crash consistency.
    Lazy,
    /// Eager SIT updates: every persist propagates counters to the root.
    /// Root crash-consistent *except* inside the propagation crash
    /// window (§III-B).
    Eager,
    /// Persist-Level Parallelism (MICRO'20) retrofitted to SIT: eager
    /// propagation plus persisting shadow copies of every branch node, so
    /// consistency survives crashes — at heavy write cost.
    Plp,
    /// Bonsai Merkle Forest, ideal case (MICRO'21): every counter block's
    /// parent is a persistent root in an unlimited non-volatile metadata
    /// cache, eliminating all levels above L1.
    BmfIdeal,
    /// The paper's contribution: shortcut Recovery_root updates plus
    /// dummy-counter (counter-summing) parent updates.
    Scue,
    /// Phoenix (DSN'19): a persistently-secure tree of counters — every
    /// persist eagerly updates the whole branch *and* persists the
    /// updated nodes before acknowledging, so the durable tree is
    /// always self-consistent up to the root.
    Phoenix,
    /// Triad-NVM (ISCA'19), persistence level 1: only leaf counter
    /// blocks are persisted with the data; upper tree levels (and the
    /// root) are reconstructed at recovery, so the running root is
    /// stale the whole run.
    TriadL1,
    /// Triad-NVM (ISCA'19), persistence level 2: leaves plus their L1
    /// parents are persisted write-through; levels above L1 are still
    /// rebuilt at recovery and the root remains stale.
    TriadL2,
    /// Zuo et al. (MICRO'19)-style cacheline-level counter/data
    /// co-persistence: counter and data persist together atomically,
    /// but root updates ride an asynchronous queue (an Eager-like
    /// propagation window).
    Zuo,
    /// Freij et al. (MICRO'21)-style coalesced tree updates: branch
    /// updates are merged in the pipeline and the root delta is folded
    /// in synchronously at acceptance, closing the crash window
    /// without PLP's shadow-persist write cost.
    Freij,
}

impl SchemeKind {
    /// All evaluated schemes: the paper's six in figure order, then the
    /// related-literature zoo in citation order.
    pub const ALL: [SchemeKind; 11] = [
        SchemeKind::Baseline,
        SchemeKind::Plp,
        SchemeKind::Lazy,
        SchemeKind::Eager,
        SchemeKind::BmfIdeal,
        SchemeKind::Scue,
        SchemeKind::Phoenix,
        SchemeKind::TriadL1,
        SchemeKind::TriadL2,
        SchemeKind::Zuo,
        SchemeKind::Freij,
    ];

    /// The four secure schemes shown in Figs. 9–10 (plus Baseline as the
    /// normalisation target).
    pub const FIGURE_SCHEMES: [SchemeKind; 4] = [
        SchemeKind::Plp,
        SchemeKind::Lazy,
        SchemeKind::BmfIdeal,
        SchemeKind::Scue,
    ];

    /// The scheme's descriptor: every per-scheme fact, in one table.
    #[rustfmt::skip]
    pub const fn spec(self) -> &'static SchemeSpec {
        match self {
            SchemeKind::Baseline => &SchemeSpec {
                name: "Baseline", token: "baseline", code: 0, verify_on_write: false,
                tree_update: TreeUpdate::None, hashes: HashSchedule::None,
                persist_shadows: false, root: RootPolicy::None, drain_gates_ack: false,
                on_chip_bytes: 0, on_chip_bytes_per_leaf: 0,
                on_chip_state: "none (no integrity tree)",
            },
            SchemeKind::Lazy => &SchemeSpec {
                name: "Lazy", token: "lazy", code: 1, verify_on_write: true,
                tree_update: TreeUpdate::ParentFirst, hashes: HashSchedule::LeafPairThenParent,
                persist_shadows: false, root: RootPolicy::FlushOnly, drain_gates_ack: true,
                on_chip_bytes: 64, on_chip_bytes_per_leaf: 0,
                on_chip_state: ROOT_REGISTER_ONLY,
            },
            SchemeKind::Eager => &SchemeSpec {
                name: "Eager", token: "eager", code: 2, verify_on_write: true,
                tree_update: TreeUpdate::BranchFirst, hashes: HashSchedule::Branch,
                persist_shadows: false, root: RootPolicy::DeferredQueue, drain_gates_ack: true,
                on_chip_bytes: 64, on_chip_bytes_per_leaf: 0,
                on_chip_state: ROOT_REGISTER_ONLY,
            },
            SchemeKind::Plp => &SchemeSpec {
                name: "PLP", token: "plp", code: 3, verify_on_write: true,
                tree_update: TreeUpdate::BranchFirst, hashes: HashSchedule::Branch,
                persist_shadows: true, root: RootPolicy::RunningRootAdd, drain_gates_ack: true,
                // PTT 616 B + ETT 48 b (rounded up to 6 B), plus the root.
                on_chip_bytes: 64 + 616 + 6, on_chip_bytes_per_leaf: 0,
                on_chip_state: "root register + PTT (616 B) + ETT (48 b)",
            },
            SchemeKind::BmfIdeal => &SchemeSpec {
                name: "BMF-ideal", token: "bmf", code: 4, verify_on_write: true,
                tree_update: TreeUpdate::None, hashes: HashSchedule::LeafPair,
                persist_shadows: false, root: RootPolicy::Nvmc, drain_gates_ack: false,
                // The paper accounts one 64 B persistent-root entry per
                // counter block (§V-F: 256 MB for 16 GB).
                on_chip_bytes: 0, on_chip_bytes_per_leaf: 64,
                on_chip_state: "nvMC holding a persistent root per counter block",
            },
            SchemeKind::Scue => &SchemeSpec {
                name: "SCUE", token: "scue", code: 5, verify_on_write: false,
                tree_update: TreeUpdate::ParentAfterAck, hashes: HashSchedule::LeafPair,
                persist_shadows: false, root: RootPolicy::RecoveryRootAdd, drain_gates_ack: false,
                on_chip_bytes: 128, on_chip_bytes_per_leaf: 0,
                on_chip_state: "Running_root + Recovery_root (two 64 B NV registers)",
            },
            SchemeKind::Phoenix => &SchemeSpec {
                name: "Phoenix", token: "phoenix", code: 6, verify_on_write: true,
                tree_update: TreeUpdate::BranchFirst, hashes: HashSchedule::SerialBranch,
                persist_shadows: true, root: RootPolicy::RunningRootAdd, drain_gates_ack: true,
                // Root register plus a persist-queue tracker for the in-
                // flight branch persists (one 64 B line's worth of state).
                on_chip_bytes: 64 + 64, on_chip_bytes_per_leaf: 0,
                on_chip_state: "root register + branch persist tracker (64 B)",
            },
            SchemeKind::TriadL1 => &SchemeSpec {
                name: "Triad-L1", token: "triad1", code: 7, verify_on_write: true,
                tree_update: TreeUpdate::ParentAfterAck, hashes: HashSchedule::LeafPair,
                persist_shadows: false, root: RootPolicy::FlushOnly, drain_gates_ack: false,
                on_chip_bytes: 64, on_chip_bytes_per_leaf: 0,
                on_chip_state: ROOT_REGISTER_ONLY,
            },
            SchemeKind::TriadL2 => &SchemeSpec {
                name: "Triad-L2", token: "triad2", code: 8, verify_on_write: true,
                tree_update: TreeUpdate::PersistParent, hashes: HashSchedule::LeafPair,
                persist_shadows: false, root: RootPolicy::FlushOnly, drain_gates_ack: false,
                on_chip_bytes: 64, on_chip_bytes_per_leaf: 0,
                on_chip_state: ROOT_REGISTER_ONLY,
            },
            SchemeKind::Zuo => &SchemeSpec {
                name: "Zuo", token: "zuo", code: 9, verify_on_write: true,
                tree_update: TreeUpdate::BranchAfterAck, hashes: HashSchedule::LeafPair,
                persist_shadows: false, root: RootPolicy::DeferredQueue, drain_gates_ack: true,
                on_chip_bytes: 64, on_chip_bytes_per_leaf: 0,
                on_chip_state: ROOT_REGISTER_ONLY,
            },
            SchemeKind::Freij => &SchemeSpec {
                name: "Freij", token: "freij", code: 10, verify_on_write: true,
                tree_update: TreeUpdate::BranchFirst, hashes: HashSchedule::LeafPair,
                persist_shadows: false, root: RootPolicy::RunningRootAdd, drain_gates_ack: true,
                // Root register plus the update-coalescing buffer tags
                // (modelled at 256 B, in the PTT's ballpark but smaller).
                on_chip_bytes: 64 + 256, on_chip_bytes_per_leaf: 0,
                on_chip_state: "root register + coalescing buffer tags (256 B)",
            },
        }
    }

    /// Display name matching the paper.
    pub const fn name(self) -> &'static str {
        self.spec().name
    }

    /// The lower-case CLI and replay-spec token (`bmf` for BMF-ideal).
    pub const fn token(self) -> &'static str {
        self.spec().token
    }

    /// Every token in [`SchemeKind::ALL`] order, `|`-separated, for
    /// usage text.
    pub fn token_choices() -> String {
        SchemeKind::ALL.map(SchemeKind::token).join("|")
    }

    /// The scheme's code in durable image metadata.
    pub const fn code(self) -> u8 {
        self.spec().code
    }

    /// Decodes a durable image scheme code.
    pub fn from_code(code: u8) -> Option<SchemeKind> {
        SchemeKind::ALL.into_iter().find(|k| k.code() == code)
    }

    /// How the scheme keeps the trust base its recovery checks against.
    pub const fn root_discipline(self) -> RootDiscipline {
        self.spec().root.discipline()
    }

    /// Whether the scheme maintains an integrity tree at all.
    pub const fn is_secure(self) -> bool {
        !matches!(self.root_discipline(), RootDiscipline::Unverified)
    }

    /// Whether an SIT sits above the counter blocks: leaf MACs are keyed
    /// by the parent counter, flushes propagate upward and recovery
    /// rebuilds the tree by counter summing. BMF-ideal's persistent
    /// roots sit directly above the leaves instead.
    pub const fn has_sit(self) -> bool {
        matches!(
            self.root_discipline(),
            RootDiscipline::Stale | RootDiscipline::Deferred | RootDiscipline::Atomic
        )
    }

    /// Whether the scheme guarantees the on-chip root (or equivalent
    /// persistent trust base) is consistent with persisted leaves at
    /// *every* instant — i.e., no crash window.
    pub const fn root_crash_consistent(self) -> bool {
        matches!(
            self.root_discipline(),
            RootDiscipline::Atomic | RootDiscipline::PerLeaf
        )
    }
}

const ROOT_REGISTER_ONLY: &str = "one 64 B root register (no crash consistency)";

/// Everything that distinguishes one update scheme from another (see
/// DESIGN.md §5, "The scheme descriptor"). The engine's write path,
/// recovery, the durable image format, the crash model checker and the
/// CLIs all read these fields instead of naming schemes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchemeSpec {
    /// Display name matching the paper.
    pub name: &'static str,
    /// CLI and replay-spec token.
    pub token: &'static str,
    /// Code in durable image metadata (pinned: images outlive builds).
    pub code: u8,
    /// Whether the write path verifies a fetched counter block against
    /// its trust base before using it.
    pub verify_on_write: bool,
    /// Which tree update a persist runs, and on which side of the ack.
    pub tree_update: TreeUpdate,
    /// The hash-engine work ahead of the ack.
    pub hashes: HashSchedule,
    /// Whether every cached branch node is written through as a shadow
    /// copy inside the ack.
    pub persist_shadows: bool,
    /// Where root trust lives and when it learns about a persist.
    pub root: RootPolicy,
    /// Whether draining displaced dirty metadata gates the ack.
    pub drain_gates_ack: bool,
    /// Fixed non-volatile on-chip bytes beyond the metadata cache (§V-F).
    pub on_chip_bytes: u64,
    /// Further non-volatile on-chip bytes per counter block.
    pub on_chip_bytes_per_leaf: u64,
    /// What that on-chip state is.
    pub on_chip_state: &'static str,
}

/// The tree update a persist performs beyond its own counter block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreeUpdate {
    /// Nothing above the leaf.
    None,
    /// The parent takes the leaf's dummy counter before the leaf hashes,
    /// on the critical path.
    ParentFirst,
    /// Every ancestor takes the cascaded dummy counters before the leaf
    /// hashes, on the critical path.
    BranchFirst,
    /// The parent takes the leaf's dummy counter once the persist is
    /// acknowledged, off the critical path.
    ParentAfterAck,
    /// After the leaf hashes the parent is updated, re-MACed and written
    /// through; the ack waits for that write.
    PersistParent,
    /// After the leaf hashes every ancestor is updated and re-MACed in
    /// one batch, off the ack; a deferred root lands when it finishes.
    BranchAfterAck,
}

/// The hash-engine work a persist issues ahead of its ack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HashSchedule {
    /// No MACs at all.
    None,
    /// Leaf MAC and data MAC in one parallel batch.
    LeafPair,
    /// The leaf pair, then the parent's MAC serialised behind it.
    LeafPairThenParent,
    /// Every stored branch node's MAC plus the leaf pair in one parallel
    /// batch.
    Branch,
    /// The leaf pair, then one MAC per level above it, serially
    /// bottom-up (each depends on the fresh child).
    SerialBranch,
}

/// Where root trust lives and when it learns about a persist.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RootPolicy {
    /// No root: nothing is verified.
    None,
    /// The running root moves only when a top-level node is flushed.
    FlushOnly,
    /// The root delta is queued and lands when branch propagation
    /// finishes; a crash in between loses it (§III-B).
    DeferredQueue,
    /// The running root absorbs the delta at the ack.
    RunningRootAdd,
    /// SCUE's shortcut: the `Recovery_root` absorbs the delta at the ack,
    /// and the running root moves on top-level flushes.
    RecoveryRootAdd,
    /// One persistent root per counter block in a non-volatile metadata
    /// cache, written (after the leaf hash) inside the ack.
    Nvmc,
}

impl RootPolicy {
    /// The recovery-relevant coarsening of this policy.
    pub const fn discipline(self) -> RootDiscipline {
        match self {
            RootPolicy::None => RootDiscipline::Unverified,
            RootPolicy::FlushOnly => RootDiscipline::Stale,
            RootPolicy::DeferredQueue => RootDiscipline::Deferred,
            RootPolicy::RunningRootAdd | RootPolicy::RecoveryRootAdd => RootDiscipline::Atomic,
            RootPolicy::Nvmc => RootDiscipline::PerLeaf,
        }
    }
}

/// How a scheme maintains the trust base its recovery checks against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RootDiscipline {
    /// No integrity tree at all (Baseline): nothing to check.
    Unverified,
    /// The durable root is never updated per persist (Lazy, Triad-NVM):
    /// the trust base only moves on top-level flushes.
    Stale,
    /// Root increments are queued and settle asynchronously (Eager,
    /// Zuo): a crash inside the window loses them (§III-B).
    Deferred,
    /// The root update is atomic with the leaf persist (PLP, Phoenix,
    /// Freij, SCUE's `Recovery_root`).
    Atomic,
    /// One on-chip register per leaf, updated atomically with the leaf
    /// (idealised BMF).
    PerLeaf,
}

impl std::fmt::Display for SchemeKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Parses a scheme from its token or its display name, ignoring ASCII
/// case (`bmf`, `bmf-ideal` and `BMF-ideal` all name BMF-ideal).
impl std::str::FromStr for SchemeKind {
    type Err = String;

    fn from_str(s: &str) -> Result<SchemeKind, String> {
        SchemeKind::ALL
            .into_iter()
            .find(|k| s.eq_ignore_ascii_case(k.token()) || s.eq_ignore_ascii_case(k.name()))
            .ok_or_else(|| format!("unknown scheme `{s}`"))
    }
}

/// Full engine configuration.
#[derive(Debug, Clone)]
pub struct SecureMemConfig {
    /// The update scheme.
    pub scheme: SchemeKind,
    /// Tree geometry (defines data capacity and tree height).
    pub geometry: TreeGeometry,
    /// Seed for the on-chip secret key.
    pub key_seed: u64,
    /// HMAC latency in cycles (Table II: {20, 40, 80, 160}, default 40).
    pub hash_latency: u64,
    /// Hash-engine issue ports (SIT computes branch HMACs in parallel).
    pub hash_ports: u64,
    /// Metadata cache capacity in bytes (Table II: 256 KB).
    pub mdcache_bytes: usize,
    /// Metadata cache associativity (Table II: 8).
    pub mdcache_ways: usize,
    /// Whether eADR is present: on crash, cache contents flush to NVM
    /// (without any computation, §III-C). Without it only the WPQ drains.
    pub eadr: bool,
    /// User-data WPQ entries (Table II: 64).
    pub user_wpq: usize,
    /// Metadata WPQ entries (Table II: 10).
    pub meta_wpq: usize,
    /// Whether recovery may attempt Osiris-style torn-counter repair
    /// (§VII composition) when a leaf MAC mismatches: replay stale minors
    /// forward until the stored data-line MAC verifies, then retry.
    ///
    /// Off by default — unconditional repair would also "repair" genuine
    /// roll-back attacks, so only harnesses that know their faults are
    /// crash-induced (the torture campaign) turn it on.
    pub counter_repair: bool,
}

impl SecureMemConfig {
    /// The paper's Table II configuration for the given scheme.
    pub fn paper(scheme: SchemeKind) -> Self {
        Self {
            scheme,
            geometry: TreeGeometry::paper_16gb(),
            key_seed: 0x5C0E,
            hash_latency: DEFAULT_HASH_LATENCY,
            hash_ports: 16,
            mdcache_bytes: 256 * 1024,
            mdcache_ways: 8,
            eadr: false,
            user_wpq: 64,
            meta_wpq: 10,
            counter_repair: false,
        }
    }

    /// A small geometry (64 leaves, 4096 data lines) for tests and
    /// examples: full recovery scans stay fast.
    pub fn small_test(scheme: SchemeKind) -> Self {
        Self {
            geometry: TreeGeometry::tiny(64),
            mdcache_bytes: 16 * 64,
            mdcache_ways: 2,
            ..Self::paper(scheme)
        }
    }

    /// Overrides the hash latency (Figs. 11–12 sensitivity study).
    pub fn with_hash_latency(mut self, cycles: u64) -> Self {
        self.hash_latency = cycles;
        self
    }

    /// Enables eADR (§III-C discussion).
    pub fn with_eadr(mut self, eadr: bool) -> Self {
        self.eadr = eadr;
        self
    }

    /// Overrides the metadata cache size (Fig. 13 sweep).
    pub fn with_mdcache_bytes(mut self, bytes: usize) -> Self {
        self.mdcache_bytes = bytes;
        self
    }

    /// Enables Osiris-style torn-counter repair during recovery.
    pub fn with_counter_repair(mut self, on: bool) -> Self {
        self.counter_repair = on;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_table_ii() {
        let cfg = SecureMemConfig::paper(SchemeKind::Scue);
        assert_eq!(cfg.hash_latency, 40);
        assert_eq!(cfg.mdcache_bytes, 256 * 1024);
        assert_eq!(cfg.mdcache_ways, 8);
        assert_eq!(cfg.user_wpq, 64);
        assert_eq!(cfg.meta_wpq, 10);
        assert_eq!(cfg.geometry.total_levels(), 9);
    }

    #[test]
    fn scheme_properties() {
        assert!(!SchemeKind::Baseline.is_secure());
        assert!(SchemeKind::Scue.is_secure());
        assert!(SchemeKind::Scue.root_crash_consistent());
        assert!(!SchemeKind::Lazy.root_crash_consistent());
        assert!(!SchemeKind::Eager.root_crash_consistent());
        assert!(SchemeKind::Plp.root_crash_consistent());
        assert!(SchemeKind::Phoenix.root_crash_consistent());
        assert!(SchemeKind::Freij.root_crash_consistent());
        assert!(!SchemeKind::TriadL1.root_crash_consistent());
        assert!(!SchemeKind::TriadL2.root_crash_consistent());
        assert!(!SchemeKind::Zuo.root_crash_consistent());
        assert!(SchemeKind::Zuo.is_secure());
    }

    #[test]
    fn builders_compose() {
        let cfg = SecureMemConfig::small_test(SchemeKind::Lazy)
            .with_hash_latency(160)
            .with_eadr(true)
            .with_mdcache_bytes(4096)
            .with_counter_repair(true);
        assert_eq!(cfg.hash_latency, 160);
        assert!(cfg.eadr);
        assert_eq!(cfg.mdcache_bytes, 4096);
        assert_eq!(cfg.scheme, SchemeKind::Lazy);
        assert!(cfg.counter_repair);
        assert!(
            !SecureMemConfig::paper(SchemeKind::Scue).counter_repair,
            "repair must be opt-in: it would mask roll-back attacks"
        );
    }

    #[test]
    fn tokens_round_trip_through_parse() {
        for scheme in SchemeKind::ALL {
            assert_eq!(scheme.token().parse(), Ok(scheme));
            assert_eq!(scheme.name().parse(), Ok(scheme));
        }
        assert!("nope".parse::<SchemeKind>().is_err());
        assert!("".parse::<SchemeKind>().is_err());
    }

    #[test]
    fn every_legacy_cli_spelling_still_parses() {
        // The spellings the bins' own `--scheme` tables accepted; two of
        // them also lower-cased their input first.
        for (spelling, scheme) in [
            ("baseline", SchemeKind::Baseline),
            ("lazy", SchemeKind::Lazy),
            ("eager", SchemeKind::Eager),
            ("plp", SchemeKind::Plp),
            ("bmf", SchemeKind::BmfIdeal),
            ("bmf-ideal", SchemeKind::BmfIdeal),
            ("scue", SchemeKind::Scue),
            ("phoenix", SchemeKind::Phoenix),
            ("triad1", SchemeKind::TriadL1),
            ("triad2", SchemeKind::TriadL2),
            ("zuo", SchemeKind::Zuo),
            ("freij", SchemeKind::Freij),
        ] {
            assert_eq!(spelling.parse(), Ok(scheme), "{spelling}");
            let upper = spelling.to_ascii_uppercase();
            assert_eq!(upper.parse(), Ok(scheme), "{upper}");
        }
    }

    #[test]
    fn root_disciplines_follow_the_root_policy() {
        use RootDiscipline::*;
        for (scheme, discipline) in [
            (SchemeKind::Baseline, Unverified),
            (SchemeKind::Lazy, Stale),
            (SchemeKind::TriadL1, Stale),
            (SchemeKind::TriadL2, Stale),
            (SchemeKind::Eager, Deferred),
            (SchemeKind::Zuo, Deferred),
            (SchemeKind::Plp, Atomic),
            (SchemeKind::Scue, Atomic),
            (SchemeKind::Phoenix, Atomic),
            (SchemeKind::Freij, Atomic),
            (SchemeKind::BmfIdeal, PerLeaf),
        ] {
            assert_eq!(scheme.root_discipline(), discipline, "{scheme}");
            assert_eq!(
                scheme.has_sit(),
                scheme.is_secure() && discipline != PerLeaf
            );
        }
    }

    #[test]
    fn names_match_paper() {
        let names: Vec<_> = SchemeKind::ALL.iter().map(|s| s.name()).collect();
        assert!(names.contains(&"BMF-ideal"));
        assert!(names.contains(&"SCUE"));
        assert_eq!(format!("{}", SchemeKind::Plp), "PLP");
    }
}
