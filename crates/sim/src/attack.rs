//! Seeded attack campaigns with per-scheme detection-latency oracles.
//!
//! The torture module answers "does recovery hold under *accidental*
//! damage"; this module answers Table I's other half: how quickly does
//! each scheme in the zoo notice a *deliberate* NVM tamper injected
//! mid-run? A case drives one [`SecureMemory`] through the same
//! deterministic op stream as the torture campaign ([`op_at`]), injects
//! one attack from the §IV-B2 taxonomy at a sampled op index, then
//! keeps the machine busy — the rest of the op stream plus a read scan
//! wide enough to thrash the 16-line metadata cache — counting the ops
//! until the first [`CrashError::Integrity`]. That count is the online
//! detection latency; a crash + recovery + shadow audit backstop
//! classifies everything the runtime window missed.
//!
//! Expected shape, asserted by the [`oracle`]:
//!
//! * every integrity-protected scheme detects an effective tamper —
//!   online on a verified refetch, at recovery (SCUE's Recovery_root
//!   catches the replay its shortcut write path launders), or on the
//!   post-recovery audit;
//! * Baseline never *detects* anything: tampering surfaces only as
//!   silent corruption, the paper's motivating failure;
//! * a window scheme whose backstop recovery dies of its own §III-B
//!   crash window is recorded as [`AttackClass::WindowInconclusive`] —
//!   the root was stale regardless of the attack, so the failure cannot
//!   be attributed to detection.
//!
//! Oracle violations are shrunk with the in-repo property-test engine
//! to a minimal `scheme:attack:ops:inject_at` spec and reported with a
//! replay command, exactly like the torture campaign.

use crate::torture::op_at;
use scue::attack as tamper;
use scue::{RecoveryOutcome, RootDiscipline, SchemeKind, SecureMemConfig, SecureMemory};
use scue_itree::geometry::{NodeId, Parent};
use scue_nvm::{Cycle, LineAddr};
use scue_util::obs::{Histogram, Json};
use scue_util::par;
use scue_util::prop::{shrink_failure, Strategy};
use scue_util::rng::Rng;
use std::collections::BTreeMap;

/// Version stamped into every attack-campaign JSON document.
pub const ATTACK_SCHEMA_VERSION: u64 = 1;

/// Document kind tag distinguishing attack-campaign output.
pub const ATTACK_DOC_KIND: &str = "scue-attack";

/// Reads issued after the setup stream to evict the victim's metadata
/// (16-line, 2-way cache: 24 distinct far leaves displace everything).
const CHURN_READS: usize = 24;

/// First data line of the churn sweep — leaves 32+, far from the op
/// stream's span and from the drive scan below.
const CHURN_BASE_LINE: u64 = 2048;

/// Data line written once after the churn to drain the victim buffer,
/// so post-injection fetches really come from (tampered) NVM.
const SETTLE_LINE: u64 = 3904;

/// The drive scan walks one line per leaf across this many data lines
/// (leaves 0–31): enough distinct metadata to keep evicting and
/// refetching the tampered branch.
const SCAN_SPAN_LINES: u64 = 2048;

/// Shrink budget per violation (property evaluations).
const SHRINK_EVALS: u32 = 120;

/// One tamper class from the §IV-B2 taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AttackKind {
    /// Restore a recorded (line, MAC) leaf tuple: self-consistent, so
    /// only counter sums (parent dummies, Recovery_root, nvMC) tell.
    Replay,
    /// Restore old leaf counters but keep the newer MAC — caught by
    /// leaf HMAC checking.
    Rollback,
    /// Swap two leaves' self-consistent tuples across addresses — the
    /// root sum is preserved, the address-keyed MACs are not.
    Splice,
    /// Bump one counter slot of a stored intermediate SIT node — an
    /// attack on the dummy-counter mechanism itself.
    DummyCounter,
}

impl AttackKind {
    /// Every attack kind, in campaign rotation order.
    pub const ALL: [AttackKind; 4] = [
        AttackKind::Replay,
        AttackKind::Rollback,
        AttackKind::Splice,
        AttackKind::DummyCounter,
    ];

    /// Stable name used in JSON and replay specs.
    pub fn name(self) -> &'static str {
        match self {
            AttackKind::Replay => "replay",
            AttackKind::Rollback => "rollback",
            AttackKind::Splice => "splice",
            AttackKind::DummyCounter => "dummy_counter",
        }
    }

    /// Parses a replay-spec attack name.
    pub fn parse(s: &str) -> Option<AttackKind> {
        AttackKind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// One attack case: which tamper, how long the op stream runs, and the
/// op index after which the tamper lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttackSpec {
    /// The injected attack.
    pub attack: AttackKind,
    /// Total persists in the deterministic op stream.
    pub ops: usize,
    /// Injection point: the attack lands after this many ops
    /// (`inject_at <= ops`; the remaining ops become drive traffic).
    pub inject_at: usize,
}

impl AttackSpec {
    /// Renders the scheme-qualified replay spec
    /// (`scheme:attack:ops:inject_at`).
    pub fn replay_spec(&self, scheme: SchemeKind) -> String {
        format!(
            "{}:{}:{}:{}",
            scheme.token(),
            self.attack.name(),
            self.ops,
            self.inject_at
        )
    }

    /// Parses a `scheme:attack:ops:inject_at` replay spec.
    pub fn parse_replay(spec: &str) -> Option<(SchemeKind, AttackSpec)> {
        Self::diagnose_replay(spec).ok()
    }

    /// [`AttackSpec::parse_replay`] with a diagnosis: the error names
    /// the offending field and echoes the offending value.
    pub fn diagnose_replay(spec: &str) -> Result<(SchemeKind, AttackSpec), String> {
        let mut parts = spec.split(':');
        let mut field = |name: &str| {
            parts
                .next()
                .ok_or_else(|| format!("replay spec is missing the {name} field"))
        };
        let scheme_str = field("scheme")?;
        let scheme = scheme_str
            .parse::<SchemeKind>()
            .map_err(|_| format!("invalid scheme in replay spec: `{scheme_str}`"))?;
        let attack_str = field("attack")?;
        let attack = AttackKind::parse(attack_str)
            .ok_or_else(|| format!("invalid attack in replay spec: `{attack_str}`"))?;
        let ops_str = field("ops")?;
        let ops: usize = ops_str
            .parse()
            .map_err(|_| format!("invalid ops in replay spec: `{ops_str}`"))?;
        let inject_str = field("inject_at")?;
        let inject_at: usize = inject_str
            .parse()
            .map_err(|_| format!("invalid inject_at in replay spec: `{inject_str}`"))?;
        if inject_at > ops {
            return Err(format!(
                "invalid inject_at in replay spec: `{inject_str}` exceeds ops `{ops_str}`"
            ));
        }
        if let Some(extra) = parts.next() {
            return Err(format!("trailing field in replay spec: `{extra}`"));
        }
        Ok((
            scheme,
            AttackSpec {
                attack,
                ops,
                inject_at,
            },
        ))
    }
}

/// How one attack case ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AttackClass {
    /// A drive-phase access raised [`CrashError::Integrity`].
    DetectedOnline,
    /// The backstop recovery rejected the image (leaf MAC / root / nvMC
    /// mismatch attributable to the tamper).
    DetectedAtRecovery,
    /// Recovery passed but the post-recovery shadow audit raised an
    /// integrity error.
    DetectedOnAudit,
    /// A non-root-crash-consistent scheme failed backstop recovery with
    /// `RootMismatch` — its own §III-B window, not attributable to the
    /// attack.
    WindowInconclusive,
    /// A read returned wrong bytes with no error (online or at audit).
    SilentCorruption,
    /// The tamper changed NVM but legitimate write-backs overwrote the
    /// evidence before anything verified it; the audit proved every
    /// persisted value intact.
    UndetectedErased,
    /// The injection did not change NVM at all (e.g. a replay of a leaf
    /// that was never rewritten), so there was nothing to detect.
    UndetectedNoop,
    /// The tamper is still in NVM, nothing detected it, and the audit
    /// passed — a detection hole (oracle violation on secure schemes).
    Undetected,
    /// The engine failed for a non-integrity reason.
    EngineFailure,
}

impl AttackClass {
    /// Every class, in JSON tally order.
    pub const ALL: [AttackClass; 9] = [
        AttackClass::DetectedOnline,
        AttackClass::DetectedAtRecovery,
        AttackClass::DetectedOnAudit,
        AttackClass::WindowInconclusive,
        AttackClass::SilentCorruption,
        AttackClass::UndetectedErased,
        AttackClass::UndetectedNoop,
        AttackClass::Undetected,
        AttackClass::EngineFailure,
    ];

    /// Stable snake_case name used as the JSON tally key.
    pub fn name(self) -> &'static str {
        match self {
            AttackClass::DetectedOnline => "detected_online",
            AttackClass::DetectedAtRecovery => "detected_at_recovery",
            AttackClass::DetectedOnAudit => "detected_on_audit",
            AttackClass::WindowInconclusive => "window_inconclusive",
            AttackClass::SilentCorruption => "silent_corruption",
            AttackClass::UndetectedErased => "undetected_erased",
            AttackClass::UndetectedNoop => "undetected_noop",
            AttackClass::Undetected => "undetected",
            AttackClass::EngineFailure => "engine_failure",
        }
    }

    /// Whether the scheme *reported* the tamper (any detection bucket).
    pub fn is_detection(self) -> bool {
        matches!(
            self,
            AttackClass::DetectedOnline
                | AttackClass::DetectedAtRecovery
                | AttackClass::DetectedOnAudit
        )
    }
}

/// Campaign-wide knobs shared by every case.
#[derive(Debug, Clone, Copy)]
pub struct AttackConfig {
    /// Master seed: op stream and injection-point sampling derive from
    /// it.
    pub seed: u64,
    /// Persists in each case's op stream.
    pub ops: usize,
    /// Read-scan budget after the op stream ends.
    pub drive_ops: usize,
}

impl Default for AttackConfig {
    fn default() -> Self {
        Self {
            seed: 1,
            ops: 96,
            drive_ops: 160,
        }
    }
}

/// The audited outcome of one attack case.
#[derive(Debug, Clone)]
pub struct AttackCaseResult {
    /// Classified outcome.
    pub class: AttackClass,
    /// Whether the injection actually changed NVM bytes (line or MAC).
    pub mutated: bool,
    /// Ops completed after injection before the first integrity error
    /// (`Some` only for [`AttackClass::DetectedOnline`]).
    pub latency: Option<u64>,
    /// Human-readable detail (first anomaly seen).
    pub detail: String,
}

/// One (line, sideband-MAC) NVM snapshot of a tampered address, used to
/// decide mutation and erasure.
#[derive(Clone, Copy, PartialEq, Eq)]
struct NvmTuple {
    line: [u8; 64],
    mac: u64,
}

fn snapshot(mem: &SecureMemory, addr: LineAddr) -> NvmTuple {
    NvmTuple {
        line: mem.store().read_line(addr),
        mac: mem.sideband().get(addr),
    }
}

/// Runs one attack case end to end: setup stream → cache churn →
/// injection → drive (remaining persists + read scan) → crash /
/// recover / audit backstop.
pub fn run_attack_case(
    scheme: SchemeKind,
    cfg: &AttackConfig,
    spec: AttackSpec,
) -> AttackCaseResult {
    let fail = |detail: String| AttackCaseResult {
        class: AttackClass::EngineFailure,
        mutated: false,
        latency: None,
        detail,
    };
    let mut mem = SecureMemory::new(SecureMemConfig::small_test(scheme).with_counter_repair(true));
    let geom = mem.context().geometry().clone();
    let inject_at = spec.inject_at.min(spec.ops);
    let target_op = inject_at / 2;
    let (target_addr, _) = op_at(cfg.seed, target_op);
    let target_leaf = geom.leaf_of_data(target_addr).index;

    // Phase 1: setup stream, recording the replay capsule mid-way (what
    // a bus snooper captures while the victim runs).
    let mut shadow: BTreeMap<u64, u8> = BTreeMap::new();
    let mut now: Cycle = 0;
    let mut capsule = None;
    for i in 0..inject_at {
        let (addr, fill) = op_at(cfg.seed, i);
        match mem.persist_data(addr, [fill; 64], now) {
            Ok(done) => now = done,
            Err(e) => return fail(format!("setup persist of {addr} failed: {e}")),
        }
        shadow.insert(addr.raw(), fill);
        if i == target_op {
            capsule = Some(tamper::record_leaf(&mem, target_leaf));
        }
    }

    // Phase 2: evict the victim branch (churn reads over far leaves),
    // then drain the victim buffer with one persist so post-injection
    // fetches really hit NVM.
    for j in 0..CHURN_READS {
        let addr = LineAddr::new(CHURN_BASE_LINE + j as u64 * 64);
        match mem.read_data(addr, now) {
            Ok((_, done)) => now = done,
            Err(e) => return fail(format!("churn read of {addr} failed: {e}")),
        }
    }
    let settle = LineAddr::new(SETTLE_LINE);
    match mem.persist_data(settle, [0x5C; 64], now) {
        Ok(done) => now = done,
        Err(e) => return fail(format!("settle persist failed: {e}")),
    }
    shadow.insert(settle.raw(), 0x5C);

    // Phase 3: injection. Snapshot the affected NVM tuples around the
    // tamper so mutation (did it change anything?) and erasure (was the
    // evidence later overwritten?) are decidable.
    //
    // The dummy-counter attack has no target under BMF: its trust base
    // is the on-chip nvMC, not the stored SIT intermediate levels, so
    // tampering those lines attacks storage the scheme never reads.
    // Modelled — like a leaf whose parent is the attack-proof on-chip
    // root — as a no-op injection.
    let dummy_parent = match geom.parent(NodeId::new(0, target_leaf)) {
        Parent::Node(p) if scheme.root_discipline() != RootDiscipline::PerLeaf => Some(p),
        _ => None,
    };
    let affected: Vec<LineAddr> = match spec.attack {
        AttackKind::Replay | AttackKind::Rollback => match &capsule {
            Some(c) => vec![c.addr()],
            None => Vec::new(),
        },
        AttackKind::Splice => {
            let other = (target_leaf + 1) % 3;
            vec![
                geom.node_addr(NodeId::new(0, target_leaf)),
                geom.node_addr(NodeId::new(0, other)),
            ]
        }
        AttackKind::DummyCounter => dummy_parent
            .map(|p| vec![geom.node_addr(p)])
            .unwrap_or_default(),
    };
    let before: Vec<NvmTuple> = affected.iter().map(|&a| snapshot(&mem, a)).collect();
    match spec.attack {
        AttackKind::Replay => {
            if let Some(c) = &capsule {
                tamper::replay_leaf(&mut mem, c);
            }
        }
        AttackKind::Rollback => {
            if let Some(c) = &capsule {
                tamper::roll_back_leaf(&mut mem, c);
            }
        }
        AttackKind::Splice => {
            tamper::splice_leaves(&mut mem, target_leaf, (target_leaf + 1) % 3);
        }
        AttackKind::DummyCounter => {
            if let Some(parent) = dummy_parent {
                let slot = NodeId::new(0, target_leaf).parent_slot();
                tamper::tamper_dummy_counter(&mut mem, parent.level, parent.index, slot);
            }
        }
    }
    let tampered: Vec<NvmTuple> = affected.iter().map(|&a| snapshot(&mem, a)).collect();
    let mutated = before != tampered;

    // Phase 4: drive to first detection. The rest of the op stream runs
    // with probe reads of the victim line interleaved, then a read scan
    // walks one line per leaf to keep refetching through the tampered
    // branch. Every access counts one op of latency.
    let mut steps: u64 = 0;
    let mut online: Option<AttackCaseResult> = None;
    let check_read = |mem: &mut SecureMemory,
                      addr: LineAddr,
                      now: &mut Cycle,
                      steps: &mut u64,
                      shadow: &BTreeMap<u64, u8>|
     -> Option<AttackCaseResult> {
        *steps += 1;
        match mem.read_data(addr, *now) {
            Ok((data, done)) => {
                *now = done;
                if let Some(&fill) = shadow.get(&addr.raw()) {
                    if data != [fill; 64] {
                        return Some(AttackCaseResult {
                            class: AttackClass::SilentCorruption,
                            mutated,
                            latency: None,
                            detail: format!("online read of {addr} returned wrong bytes"),
                        });
                    }
                }
                None
            }
            Err(e) => match e.as_integrity() {
                Some(ie) => Some(AttackCaseResult {
                    class: AttackClass::DetectedOnline,
                    mutated,
                    latency: Some(*steps),
                    detail: format!("online: {ie}"),
                }),
                None => Some(AttackCaseResult {
                    class: AttackClass::EngineFailure,
                    mutated,
                    latency: None,
                    detail: format!("drive read of {addr} failed: {e}"),
                }),
            },
        }
    };
    'drive: {
        for i in inject_at..spec.ops {
            let (addr, fill) = op_at(cfg.seed, i);
            steps += 1;
            match mem.persist_data(addr, [fill; 64], now) {
                Ok(done) => {
                    now = done;
                    shadow.insert(addr.raw(), fill);
                }
                Err(e) => {
                    online = Some(match e.as_integrity() {
                        Some(ie) => AttackCaseResult {
                            class: AttackClass::DetectedOnline,
                            mutated,
                            latency: Some(steps),
                            detail: format!("online: {ie}"),
                        },
                        None => AttackCaseResult {
                            class: AttackClass::EngineFailure,
                            mutated,
                            latency: None,
                            detail: format!("drive persist of {addr} failed: {e}"),
                        },
                    });
                    break 'drive;
                }
            }
            if i % 2 == 1 {
                if let Some(r) = check_read(&mut mem, target_addr, &mut now, &mut steps, &shadow) {
                    online = Some(r);
                    break 'drive;
                }
            }
        }
        for k in 0..cfg.drive_ops {
            let addr = if k % 3 == 2 {
                target_addr
            } else {
                LineAddr::new((k as u64 * 64) % SCAN_SPAN_LINES)
            };
            if let Some(r) = check_read(&mut mem, addr, &mut now, &mut steps, &shadow) {
                online = Some(r);
                break 'drive;
            }
        }
    }
    if let Some(result) = online {
        return result;
    }

    // Phase 5: backstop. Decide whether the tamper evidence is still in
    // NVM, then crash, recover, and audit every persisted value.
    let erased = !affected.is_empty()
        && affected
            .iter()
            .zip(&tampered)
            .all(|(&a, t)| snapshot(&mem, a) != *t);
    mem.crash(now);
    let report = mem.recover();
    if report.outcome.is_failure() {
        let class =
            if !scheme.root_crash_consistent() && report.outcome == RecoveryOutcome::RootMismatch {
                AttackClass::WindowInconclusive
            } else {
                AttackClass::DetectedAtRecovery
            };
        return AttackCaseResult {
            class,
            mutated,
            latency: None,
            detail: format!("recovery: {:?}", report.outcome),
        };
    }
    let mut t = 0;
    for (&raw, &fill) in &shadow {
        match mem.read_data(LineAddr::new(raw), t) {
            Ok((data, done)) => {
                t = done;
                if data != [fill; 64] {
                    return AttackCaseResult {
                        class: AttackClass::SilentCorruption,
                        mutated,
                        latency: None,
                        detail: format!("audit read of line {raw} returned wrong bytes"),
                    };
                }
            }
            Err(e) => {
                return match e.as_integrity() {
                    Some(ie) => AttackCaseResult {
                        class: AttackClass::DetectedOnAudit,
                        mutated,
                        latency: None,
                        detail: format!("audit: {ie}"),
                    },
                    None => AttackCaseResult {
                        class: AttackClass::EngineFailure,
                        mutated,
                        latency: None,
                        detail: format!("audit read of line {raw} failed: {e}"),
                    },
                };
            }
        }
    }
    let class = if !mutated {
        AttackClass::UndetectedNoop
    } else if erased {
        AttackClass::UndetectedErased
    } else {
        AttackClass::Undetected
    };
    AttackCaseResult {
        class,
        mutated,
        latency: None,
        detail: String::new(),
    }
}

/// The attack oracle: is this `(scheme, spec, result)` acceptable?
///
/// Returns `Err(reason)` on a violation.
pub fn oracle(
    scheme: SchemeKind,
    spec: AttackSpec,
    result: &AttackCaseResult,
) -> Result<(), String> {
    let violation = |why: &str| {
        Err(format!(
            "{scheme}: {} {why} ({}, mutated={}) {}",
            spec.attack.name(),
            result.class.name(),
            result.mutated,
            result.detail
        ))
    };
    if !scheme.is_secure() {
        // Baseline has no verification to pass or fail: any *detection*
        // is a modelling bug. Silent corruption — or nothing observable
        // at all — is the expected Table I row.
        return match result.class {
            AttackClass::SilentCorruption
            | AttackClass::Undetected
            | AttackClass::UndetectedErased
            | AttackClass::UndetectedNoop => Ok(()),
            _ => violation("baseline cannot detect tampering"),
        };
    }
    match result.class {
        AttackClass::DetectedOnline
        | AttackClass::DetectedAtRecovery
        | AttackClass::DetectedOnAudit => {
            if result.mutated {
                Ok(())
            } else {
                violation("detection reported without an effective tamper")
            }
        }
        AttackClass::WindowInconclusive => {
            if scheme.root_crash_consistent() {
                violation("root-crash-consistent scheme hit the crash window")
            } else {
                Ok(())
            }
        }
        AttackClass::SilentCorruption => violation("secure scheme served tampered data silently"),
        AttackClass::Undetected => violation("effective tamper left undetected in NVM"),
        AttackClass::UndetectedErased | AttackClass::UndetectedNoop => Ok(()),
        AttackClass::EngineFailure => violation("engine failure during the attack case"),
    }
}

/// Strategy over [`AttackSpec`] used only for shrinking: fewer ops and
/// an earlier injection are "smaller"; the attack kind is pinned (it is
/// the hypothesis under test).
struct AttackStrategy {
    attack: AttackKind,
}

impl Strategy for AttackStrategy {
    type Value = AttackSpec;

    fn generate(&self, rng: &mut Rng) -> AttackSpec {
        let ops = rng.gen_range(1..256usize);
        AttackSpec {
            attack: self.attack,
            ops,
            inject_at: rng.gen_range(0..=ops),
        }
    }

    fn shrink(&self, v: &AttackSpec) -> Vec<AttackSpec> {
        let mut out = Vec::new();
        if v.ops > 1 {
            for ops in [1, v.ops / 2, v.ops - 1] {
                out.push(AttackSpec {
                    ops,
                    inject_at: v.inject_at.min(ops),
                    ..*v
                });
            }
        }
        if v.inject_at > 0 {
            for inject_at in [0, v.inject_at / 2, v.inject_at - 1] {
                out.push(AttackSpec { inject_at, ..*v });
            }
        }
        out.retain(|c| c != v);
        out
    }
}

/// One minimised oracle violation, ready to replay.
#[derive(Debug, Clone)]
pub struct AttackViolation {
    /// The scheme that violated the oracle.
    pub scheme: SchemeKind,
    /// The minimal failing spec.
    pub spec: AttackSpec,
    /// The oracle's reason at the minimal spec.
    pub message: String,
    /// Successful shrink steps applied to reach the minimum.
    pub shrink_steps: u32,
    /// Property evaluations spent shrinking.
    pub evals: u32,
}

impl AttackViolation {
    /// The command that reproduces this exact violation.
    pub fn replay_command(&self, cfg: &AttackConfig) -> String {
        format!(
            "scue-attack --seed {} --drive {} --replay {}",
            cfg.seed,
            cfg.drive_ops,
            self.spec.replay_spec(self.scheme)
        )
    }
}

/// Shrinks one violating spec to a local minimum with the prop-harness
/// engine; the test re-runs the full case + oracle each evaluation.
pub fn minimise(
    scheme: SchemeKind,
    cfg: &AttackConfig,
    spec: AttackSpec,
    message: String,
) -> AttackViolation {
    let strategy = AttackStrategy {
        attack: spec.attack,
    };
    let cfg_copy = *cfg;
    let shrunk = shrink_failure(&strategy, spec, message, SHRINK_EVALS, move |candidate| {
        oracle(
            scheme,
            candidate,
            &run_attack_case(scheme, &cfg_copy, candidate),
        )
    });
    AttackViolation {
        scheme,
        spec: shrunk.minimal,
        message: shrunk.message,
        shrink_steps: shrunk.shrink_steps,
        evals: shrunk.evals,
    }
}

/// Per-scheme campaign tally.
#[derive(Debug, Clone)]
pub struct AttackSchemeTally {
    /// The scheme.
    pub scheme: SchemeKind,
    /// Cases run.
    pub cases: u64,
    /// Cases whose injection actually changed NVM.
    pub mutated: u64,
    /// Outcome tally across all attacks, keyed in [`AttackClass::ALL`]
    /// order.
    pub outcomes: BTreeMap<AttackClass, u64>,
    /// Outcome tallies per attack kind, aligned with
    /// [`AttackKind::ALL`].
    pub per_attack: [BTreeMap<AttackClass, u64>; 4],
    /// Online detection latencies (ops from injection to the first
    /// integrity error).
    pub latency: Histogram,
    /// Oracle violations among these cases.
    pub violations: u64,
}

impl AttackSchemeTally {
    fn empty(scheme: SchemeKind) -> Self {
        AttackSchemeTally {
            scheme,
            cases: 0,
            mutated: 0,
            outcomes: BTreeMap::new(),
            per_attack: Default::default(),
            latency: Histogram::new(),
            violations: 0,
        }
    }
}

/// A full attack campaign's results.
#[derive(Debug, Clone)]
pub struct AttackCampaignReport {
    /// Configuration in force.
    pub config: AttackConfig,
    /// Cases sampled per scheme.
    pub points: usize,
    /// Per-scheme tallies.
    pub tallies: Vec<AttackSchemeTally>,
    /// Minimised violations (empty on a healthy campaign).
    pub violations: Vec<AttackViolation>,
}

impl AttackCampaignReport {
    /// Total oracle violations across all schemes.
    pub fn total_violations(&self) -> u64 {
        self.tallies.iter().map(|t| t.violations).sum()
    }

    /// The campaign as a versioned JSON document.
    pub fn to_json(&self) -> Json {
        let classes = |tally: &BTreeMap<AttackClass, u64>| {
            let mut outcomes = Json::obj();
            for class in AttackClass::ALL {
                outcomes.set(
                    class.name(),
                    Json::U64(tally.get(&class).copied().unwrap_or(0)),
                );
            }
            outcomes
        };
        let schemes = self
            .tallies
            .iter()
            .map(|t| {
                let attacks = AttackKind::ALL
                    .iter()
                    .zip(&t.per_attack)
                    .map(|(kind, tally)| {
                        Json::obj()
                            .with("attack", Json::Str(kind.name().to_string()))
                            .with("outcomes", classes(tally))
                    })
                    .collect();
                Json::obj()
                    .with("scheme", Json::Str(t.scheme.to_string()))
                    .with("cases", Json::U64(t.cases))
                    .with("mutated", Json::U64(t.mutated))
                    .with("outcomes", classes(&t.outcomes))
                    .with("attacks", Json::Arr(attacks))
                    .with("detection_latency", t.latency.summary_json())
                    .with("oracle_violations", Json::U64(t.violations))
            })
            .collect();
        let violations = self
            .violations
            .iter()
            .map(|v| {
                Json::obj()
                    .with("scheme", Json::Str(v.scheme.to_string()))
                    .with("attack", Json::Str(v.spec.attack.name().to_string()))
                    .with("ops", Json::U64(v.spec.ops as u64))
                    .with("inject_at", Json::U64(v.spec.inject_at as u64))
                    .with("message", Json::Str(v.message.clone()))
                    .with("shrink_steps", Json::U64(v.shrink_steps as u64))
                    .with("replay", Json::Str(v.replay_command(&self.config)))
            })
            .collect();
        Json::obj()
            .with("schema_version", Json::U64(ATTACK_SCHEMA_VERSION))
            .with("kind", Json::Str(ATTACK_DOC_KIND.to_string()))
            .with("seed", Json::U64(self.config.seed))
            .with("points", Json::U64(self.points as u64))
            .with("ops", Json::U64(self.config.ops as u64))
            .with("drive_ops", Json::U64(self.config.drive_ops as u64))
            .with("schemes", Json::Arr(schemes))
            .with("total_violations", Json::U64(self.total_violations()))
            .with("violations", Json::Arr(violations))
    }
}

/// Samples `points` attack cases for one scheme: attack kinds rotating
/// through [`AttackKind::ALL`], injection points spread over the middle
/// of the op stream.
fn sample_specs(scheme: SchemeKind, cfg: &AttackConfig, points: usize) -> Vec<AttackSpec> {
    let mut rng =
        Rng::from_seed(cfg.seed ^ (scheme as u64 + 1).wrapping_mul(0xC2B2_AE3D_27D4_EB4F));
    let ops = cfg.ops.max(2);
    let lo = (ops / 4).max(1);
    (0..points)
        .map(|i| AttackSpec {
            attack: AttackKind::ALL[i % AttackKind::ALL.len()],
            ops,
            inject_at: rng.gen_range(lo..ops),
        })
        .collect()
}

/// One attack cell's result, independent of worker or completion order.
#[derive(Debug, Clone)]
struct AttackOutcome {
    scheme: SchemeKind,
    spec: AttackSpec,
    result: AttackCaseResult,
    violation: Option<AttackViolation>,
}

/// Runs one `(scheme, spec)` cell: case, oracle, and — on a violation —
/// the shrinking minimiser, all inside the cell so the result is a pure
/// function of the cell.
fn run_cell(scheme: SchemeKind, cfg: &AttackConfig, spec: AttackSpec) -> AttackOutcome {
    let result = run_attack_case(scheme, cfg, spec);
    let violation = match oracle(scheme, spec, &result) {
        Ok(()) => None,
        Err(message) => Some(minimise(scheme, cfg, spec, message)),
    };
    AttackOutcome {
        scheme,
        spec,
        result,
        violation,
    }
}

/// Folds per-cell outcomes into an [`AttackCampaignReport`], independent
/// of arrival order: tallies sum commutatively in the caller's scheme
/// order, latencies merge into the per-scheme histogram, and violations
/// get a canonical sort before rendering.
fn merge_outcomes(
    cfg: &AttackConfig,
    points: usize,
    schemes: &[SchemeKind],
    outcomes: &[AttackOutcome],
) -> AttackCampaignReport {
    let position = |scheme: SchemeKind| {
        schemes
            .iter()
            .position(|&s| s == scheme)
            .expect("outcome scheme must come from the campaign's scheme list")
    };
    let attack_pos = |a: AttackKind| AttackKind::ALL.iter().position(|&k| k == a).unwrap_or(0);
    let mut tallies: Vec<AttackSchemeTally> = schemes
        .iter()
        .map(|&s| AttackSchemeTally::empty(s))
        .collect();
    let mut violations = Vec::new();
    for outcome in outcomes {
        let tally = &mut tallies[position(outcome.scheme)];
        tally.cases += 1;
        if outcome.result.mutated {
            tally.mutated += 1;
        }
        *tally.outcomes.entry(outcome.result.class).or_insert(0) += 1;
        *tally.per_attack[attack_pos(outcome.spec.attack)]
            .entry(outcome.result.class)
            .or_insert(0) += 1;
        if let Some(latency) = outcome.result.latency {
            tally.latency.record(latency);
        }
        if let Some(violation) = &outcome.violation {
            tally.violations += 1;
            violations.push(violation.clone());
        }
    }
    violations.sort_by(|a, b| {
        (
            position(a.scheme),
            attack_pos(a.spec.attack),
            a.spec.ops,
            a.spec.inject_at,
            &a.message,
        )
            .cmp(&(
                position(b.scheme),
                attack_pos(b.spec.attack),
                b.spec.ops,
                b.spec.inject_at,
                &b.message,
            ))
    });
    AttackCampaignReport {
        config: *cfg,
        points,
        tallies,
        violations,
    }
}

/// Runs the full campaign serially; see [`campaign_with_jobs`].
pub fn campaign(cfg: &AttackConfig, points: usize, schemes: &[SchemeKind]) -> AttackCampaignReport {
    campaign_with_jobs(cfg, points, schemes, 1)
}

/// [`campaign`] fanned out over up to `jobs` worker threads.
///
/// Every `(scheme, spec)` pair becomes one [`par::run_indexed`] cell
/// (case + oracle + minimise). Each cell is a pure function of its spec
/// and the merge is order-independent, so the report (and its JSON
/// rendering) is byte-identical at any job count.
pub fn campaign_with_jobs(
    cfg: &AttackConfig,
    points: usize,
    schemes: &[SchemeKind],
    jobs: usize,
) -> AttackCampaignReport {
    let cells: Vec<(SchemeKind, AttackSpec)> = schemes
        .iter()
        .flat_map(|&scheme| {
            sample_specs(scheme, cfg, points)
                .into_iter()
                .map(move |spec| (scheme, spec))
        })
        .collect();
    let outcomes = par::run_indexed(jobs, &cells, |_, &(scheme, spec), _| {
        run_cell(scheme, cfg, spec)
    });
    merge_outcomes(cfg, points, schemes, &outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> AttackConfig {
        AttackConfig {
            seed: 5,
            ops: 48,
            drive_ops: 120,
        }
    }

    #[test]
    fn replay_specs_round_trip_for_every_scheme_and_attack() {
        for scheme in SchemeKind::ALL {
            for attack in AttackKind::ALL {
                let spec = AttackSpec {
                    attack,
                    ops: 48,
                    inject_at: 17,
                };
                let rendered = spec.replay_spec(scheme);
                let (s2, spec2) = AttackSpec::parse_replay(&rendered)
                    .unwrap_or_else(|| panic!("`{rendered}` must parse"));
                assert_eq!(s2, scheme);
                assert_eq!(spec2, spec);
                assert_eq!(spec2.replay_spec(s2), rendered, "parse→render identity");
            }
        }
    }

    #[test]
    fn malformed_replay_specs_name_the_field_and_value() {
        for (spec, field, value) in [
            ("mercury:replay:48:17", "scheme", "mercury"),
            ("scue:teleport:48:17", "attack", "teleport"),
            ("scue:replay:many:17", "ops", "many"),
            ("scue:replay:48:soon", "inject_at", "soon"),
            ("scue:replay:48:49", "inject_at", "49"),
            ("scue:replay:48:17:extra", "trailing", "extra"),
        ] {
            let err = AttackSpec::diagnose_replay(spec).unwrap_err();
            assert!(err.contains(field), "{err:?} must name {field}");
            assert!(
                err.contains(&format!("`{value}`")),
                "{err:?} must show `{value}`"
            );
        }
        let err = AttackSpec::diagnose_replay("scue:replay").unwrap_err();
        assert!(err.contains("ops"), "{err:?}");
    }

    #[test]
    fn scue_detects_every_attack_kind() {
        let cfg = quick_cfg();
        for attack in AttackKind::ALL {
            let spec = AttackSpec {
                attack,
                ops: 48,
                inject_at: 24,
            };
            let result = run_attack_case(SchemeKind::Scue, &cfg, spec);
            assert!(
                result.class.is_detection(),
                "{}: {:?}",
                attack.name(),
                result
            );
            assert!(result.mutated, "{}: injection must bite", attack.name());
            oracle(SchemeKind::Scue, spec, &result).unwrap();
        }
    }

    #[test]
    fn baseline_never_detects() {
        let cfg = quick_cfg();
        for attack in AttackKind::ALL {
            let spec = AttackSpec {
                attack,
                ops: 48,
                inject_at: 24,
            };
            let result = run_attack_case(SchemeKind::Baseline, &cfg, spec);
            assert!(
                !result.class.is_detection(),
                "{}: baseline cannot verify, got {:?}",
                attack.name(),
                result
            );
            oracle(SchemeKind::Baseline, spec, &result).unwrap();
        }
    }

    #[test]
    fn oracle_rejects_the_failure_modes() {
        let spec = AttackSpec {
            attack: AttackKind::Replay,
            ops: 10,
            inject_at: 5,
        };
        let result = |class, mutated| AttackCaseResult {
            class,
            mutated,
            latency: None,
            detail: String::new(),
        };
        // Secure scheme serving tampered data or missing the tamper.
        for class in [AttackClass::SilentCorruption, AttackClass::Undetected] {
            let err = oracle(SchemeKind::Scue, spec, &result(class, true)).unwrap_err();
            assert!(err.to_lowercase().contains("scue"), "{err}");
        }
        // RCC scheme has no window to blame.
        oracle(
            SchemeKind::Scue,
            spec,
            &result(AttackClass::WindowInconclusive, true),
        )
        .unwrap_err();
        oracle(
            SchemeKind::Lazy,
            spec,
            &result(AttackClass::WindowInconclusive, true),
        )
        .unwrap();
        // Baseline claiming a detection is a modelling bug.
        oracle(
            SchemeKind::Baseline,
            spec,
            &result(AttackClass::DetectedOnline, true),
        )
        .unwrap_err();
        // Detection without an effective tamper is phantom detection.
        oracle(
            SchemeKind::Scue,
            spec,
            &result(AttackClass::DetectedOnline, false),
        )
        .unwrap_err();
    }

    #[test]
    fn campaign_is_clean_and_jobs_invariant_at_small_scale() {
        let cfg = quick_cfg();
        let schemes = [SchemeKind::Baseline, SchemeKind::Lazy, SchemeKind::Scue];
        let serial = campaign_with_jobs(&cfg, 4, &schemes, 1);
        assert_eq!(serial.total_violations(), 0, "{:?}", serial.violations);
        let rendered = serial.to_json().render_doc();
        for jobs in [3, 5] {
            let parallel = campaign_with_jobs(&cfg, 4, &schemes, jobs)
                .to_json()
                .render_doc();
            assert_eq!(parallel, rendered, "jobs={jobs}");
        }
        // Secure schemes must show online latencies; Baseline must not.
        for tally in &serial.tallies {
            if tally.scheme.is_secure() {
                assert!(
                    !tally.latency.is_empty(),
                    "{}: no online detections",
                    tally.scheme
                );
            } else {
                assert!(tally.latency.is_empty());
            }
        }
    }

    #[test]
    fn document_is_versioned_and_outcomes_partition_cases() {
        let cfg = quick_cfg();
        let report = campaign(&cfg, 4, &[SchemeKind::Scue, SchemeKind::Baseline]);
        let doc = Json::parse(&report.to_json().render_doc()).unwrap();
        assert_eq!(
            doc.get("schema_version").and_then(Json::as_u64),
            Some(ATTACK_SCHEMA_VERSION)
        );
        assert_eq!(
            doc.get("kind").and_then(Json::as_str),
            Some(ATTACK_DOC_KIND)
        );
        for s in doc.get("schemes").and_then(Json::as_arr).unwrap() {
            let cases = s.get("cases").and_then(Json::as_u64).unwrap();
            let outcomes = s.get("outcomes").unwrap();
            let sum: u64 = AttackClass::ALL
                .iter()
                .map(|c| outcomes.get(c.name()).and_then(Json::as_u64).unwrap())
                .sum();
            assert_eq!(sum, cases, "outcomes must partition the cases");
            let per_attack: u64 = s
                .get("attacks")
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .flat_map(|a| {
                    let o = a.get("outcomes").unwrap();
                    AttackClass::ALL
                        .iter()
                        .map(|c| o.get(c.name()).and_then(Json::as_u64).unwrap())
                        .collect::<Vec<_>>()
                })
                .sum();
            assert_eq!(per_attack, cases, "per-attack tallies must partition too");
        }
    }
}
