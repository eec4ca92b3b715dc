//! Zero-dependency utility substrate for the SCUE workspace.
//!
//! The workspace builds hermetically — no crates-io dependencies, ever
//! (see the "zero external dependencies" policy in `DESIGN.md`). This
//! crate holds the three pieces of infrastructure that used to come
//! from external crates:
//!
//! * [`rng`] — a seedable SplitMix64/xoshiro256** PRNG with a
//!   `rand`-compatible surface (`gen_range`, `gen_bool`, `fill_bytes`),
//!   pinned by golden-vector tests (replaces `rand`);
//! * [`prop`] — a property-testing harness with composable strategies,
//!   deterministic seeding, failing-case seed reporting and greedy
//!   integer/vec shrinking (replaces `proptest`);
//! * [`bench`] — a micro-benchmark runner with warmup, calibrated
//!   samples, median/p95 reporting and JSON output under `results/`
//!   (replaces `criterion`);
//! * [`obs`] — the observability substrate: log2-bucketed histograms,
//!   named counters, a bounded event-trace ring buffer, an epoch gauge
//!   sampler, a hierarchical span self-profiler with a counting global
//!   allocator, and a minimal JSON value type for versioned exports;
//! * [`par`] — a deterministic fan-out executor on
//!   `std::thread::scope`: index-derived seed streams, index-ordered
//!   collection and first-cell panic propagation, so sweeps produce
//!   byte-identical output at any `--jobs` count;
//! * [`hash`] — a fixed multiplicative hasher for the maps keyed by
//!   line addresses and leaf indices on the simulator's hot path.

// `deny` rather than `forbid`: the counting global allocator
// (`obs::alloc`) implements the inherently-unsafe `GlobalAlloc` trait
// and carries the workspace's only `#[allow(unsafe_code)]`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
pub mod hash;
pub mod obs;
pub mod par;
pub mod prop;
pub mod rng;
