//! Self-tests of the benchmark: its metric names, its `BENCHMARK.json`,
//! and short runs of every workload.

use scue_perfbench::metrics::{self, MetricDef};
use scue_perfbench::{run, Bench, Options};
use scue_util::obs::Json;
use std::sync::Mutex;

/// Runs flip process-wide span and allocation switches: one at a time.
static RUNS: Mutex<()> = Mutex::new(());

/// The metric names the benchmark's specification defines; `<scheme>`
/// stands for each lower-case scheme token.
const SPEC_NAMES: &[&str] = &[
    "sim_kops_per_s",
    "cases_per_s",
    "case_us_p50",
    "case_us_p99",
    "setup_s",
    "peak_rss_mib",
    "sim_mcycles",
    "scue_wlat_norm",
    "scue_exec_norm",
    "workloads.generate_ms",
    "sim.system_new_us",
    "sim.runner_self_ns_per_op",
    "sim.case_self_us",
    "sim.host_ms.<scheme>",
    "cache.access_ns",
    "cache.l1_hit_rate",
    "cache.l2_hit_rate",
    "cache.l3_hit_rate",
    "cache.mem_accesses_per_op",
    "cache.mdcache_hit_rate",
    "mdcache.lookup.calls_per_op",
    "mdcache.lookup.self_ns_per_op",
    "engine.request.calls_per_op",
    "engine.request.self_ns_per_op",
    "core.write_lat_mean_cyc.<scheme>",
    "core.write_lat_p99_cyc",
    "core.read_lat_mean_cyc",
    "core.hashes_per_op",
    "core.persists_per_op",
    "engine.recover.us_per_case",
    "recovery.scan.self_ns",
    "recovery.sum.self_ns",
    "recovery.rehash.self_ns",
    "core.recovery_fetches_per_case",
    "itree.walk.calls_per_op",
    "itree.walk.self_ns_per_op",
    "codec.encode.calls_per_op",
    "codec.decode.calls_per_op",
    "codec.self_ns_per_op",
    "hmac.compute.calls_per_op",
    "hmac.compute.self_ns_per_op",
    "wpq.persist.calls_per_op",
    "wpq.persist.self_ns_per_op",
    "nvm.user_reads_per_op",
    "nvm.user_writes_per_op",
    "nvm.meta_reads_per_op",
    "nvm.meta_writes_per_op",
    "nvm.wpq_user_full_stalls",
    "nvm.wpq_meta_full_stalls",
    "nvm.wpq_coalesced",
    "nvm.pcm_row_hit_rate",
    "alloc.allocs_per_op",
    "alloc.bytes_per_op",
    "trace.coverage_pct",
    "trace.overhead_pct",
];

fn spec_names() -> Vec<String> {
    let mut names = Vec::new();
    for name in SPEC_NAMES {
        match name.strip_suffix("<scheme>") {
            Some(prefix) => {
                for scheme in scue::SchemeKind::ALL {
                    names.push(format!("{prefix}{}", metrics::scheme_token(scheme)));
                }
            }
            None => names.push(name.to_string()),
        }
    }
    names
}

fn all_defs() -> Vec<MetricDef> {
    let mut defs = metrics::end_to_end();
    defs.extend(metrics::per_layer());
    defs
}

#[test]
fn metric_names_are_well_formed_unique_and_specified() {
    let spec = spec_names();
    let defs = all_defs();
    let mut seen = std::collections::BTreeSet::new();
    for d in &defs {
        assert!(
            !d.name.is_empty()
                && d.name.len() <= 64
                && d.name.starts_with(|c: char| c.is_ascii_alphanumeric())
                && d.name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "malformed metric name {:?}",
            d.name
        );
        assert!(spec.contains(&d.name), "{} is not a specified name", d.name);
        assert!(seen.insert(d.name.clone()), "{} is listed twice", d.name);
    }
    assert_eq!(defs.len(), spec.len(), "every specified metric is reported");
}

#[test]
fn every_metric_has_a_unit_and_a_direction() {
    for d in all_defs() {
        assert!(
            !d.unit.is_empty()
                && d.unit.len() <= 16
                && d.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "{}: bad unit {:?}",
            d.name,
            d.unit
        );
        assert!(
            d.better == "higher" || d.better == "lower",
            "{}: bad direction {:?}",
            d.name,
            d.better
        );
    }
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn listed(doc: &Json, key: &str) -> Vec<(String, String, String)> {
    doc.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap_or("").to_string();
            (field("name"), field("unit"), field("better"))
        })
        .collect()
}

fn registered(defs: Vec<MetricDef>) -> Vec<(String, String, String)> {
    defs.into_iter()
        .map(|d| (d.name, d.unit.to_string(), d.better.to_string()))
        .collect()
}

#[test]
fn benchmark_json_lists_what_the_benchmark_prints() {
    let doc = benchmark_json();
    assert_eq!(
        listed(&doc, "end_to_end"),
        registered(metrics::end_to_end())
    );
    assert_eq!(listed(&doc, "per_layer"), registered(metrics::per_layer()));
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads list")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("workload name"))
        .collect();
    let expected: Vec<&str> = Bench::ALL.iter().map(|b| b.name()).collect();
    assert_eq!(workloads, expected);

    let bounds: Vec<(String, f64)> = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .expect("end_to_end list")
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str).expect("name");
            let bound = m.get("bound").and_then(Json::as_f64).expect("bound");
            (name.to_string(), bound)
        })
        .collect();
    let setup = bounds
        .iter()
        .find(|(n, _)| n == "setup_s")
        .expect("setup_s is an end-to-end metric")
        .1;
    for (name, bound) in &bounds {
        assert!(*bound > 0.0 && *bound <= 0.25, "{name}: bound {bound}");
        assert!(
            *bound <= setup,
            "{name}: setup_s must have the largest bound"
        );
    }
}

fn short(bench: Bench, trace: bool) -> Options {
    Options {
        scale: 1_500,
        cases_per_scheme: 7,
        ..Options::new(bench, 5, 0.0, trace)
    }
}

#[test]
fn short_runs_repeat_their_digest_and_fail_nothing() {
    let _one = RUNS.lock().unwrap_or_else(|e| e.into_inner());
    for bench in Bench::ALL {
        let a = run(&short(bench, false));
        let b = run(&short(bench, false));
        for r in [&a, &b] {
            assert!(r.correct, "{}: {:?}", bench.name(), r.problems);
            assert_eq!(r.failed, 0, "{}", bench.name());
            assert!(r.attempted > 0, "{}", bench.name());
        }
        assert_eq!(
            a.digest,
            b.digest,
            "{}: digest moved between runs",
            bench.name()
        );
        for d in metrics::end_to_end() {
            let v = a.metrics[&d.name];
            assert!(
                v.is_finite() && v > 0.0,
                "{} {} = {v}",
                bench.name(),
                d.name
            );
        }
    }
}

#[test]
fn traced_runs_match_the_untraced_digest() {
    let _one = RUNS.lock().unwrap_or_else(|e| e.into_inner());
    for bench in Bench::ALL {
        let plain = run(&short(bench, false));
        let traced = run(&short(bench, true));
        assert!(traced.correct, "{}: {:?}", bench.name(), traced.problems);
        assert_eq!(
            plain.digest,
            traced.digest,
            "{}: tracing moved the model",
            bench.name()
        );
        for d in metrics::per_layer() {
            let v = traced.metrics[&d.name];
            assert!(
                v.is_finite() && v >= 0.0,
                "{} {} = {v}",
                bench.name(),
                d.name
            );
        }
        assert!(
            traced.metrics["trace.coverage_pct"] > 0.0,
            "{}",
            bench.name()
        );
    }
}
