//! The metric registry: every name the benchmark prints, with its unit
//! and the direction in which it is better. `BENCHMARK.json` at the
//! repository root lists the same names; the self-tests hold the two
//! in step.

use scue::SchemeKind;

/// One metric the benchmark reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name, `[A-Za-z0-9_.-]` only.
    pub name: String,
    /// Unit, as printed beside every value.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
}

fn def(name: impl Into<String>, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name: name.into(),
        unit,
        better,
    }
}

/// Lower-case scheme token used inside metric names (`bmf-ideal`).
pub fn scheme_token(scheme: SchemeKind) -> String {
    scheme.name().to_ascii_lowercase()
}

/// The end-to-end metrics, printed with `--trace 0` on every workload.
pub fn end_to_end() -> Vec<MetricDef> {
    vec![
        def("sim_kops_per_s", "kops/s", "higher"),
        def("cases_per_s", "1/s", "higher"),
        def("case_us_p50", "us", "lower"),
        def("case_us_p99", "us", "lower"),
        def("setup_s", "s", "lower"),
        def("peak_rss_mib", "MiB", "lower"),
        def("sim_mcycles", "Mcycles", "lower"),
        def("scue_wlat_norm", "ratio", "lower"),
        def("scue_exec_norm", "ratio", "lower"),
    ]
}

/// The per-layer metrics, printed with `--trace 1` on every workload
/// (zero where the layer does not run on that workload).
pub fn per_layer() -> Vec<MetricDef> {
    let mut defs = vec![
        def("workloads.generate_ms", "ms", "lower"),
        def("sim.system_new_us", "us", "lower"),
        def("sim.runner_self_ns_per_op", "ns", "lower"),
        def("sim.case_self_us", "us", "lower"),
    ];
    for scheme in SchemeKind::ALL {
        defs.push(def(
            format!("sim.host_ms.{}", scheme_token(scheme)),
            "ms",
            "lower",
        ));
    }
    defs.extend([
        def("cache.access_ns", "ns", "lower"),
        def("cache.l1_hit_rate", "ratio", "higher"),
        def("cache.l2_hit_rate", "ratio", "higher"),
        def("cache.l3_hit_rate", "ratio", "higher"),
        def("cache.mem_accesses_per_op", "count", "lower"),
        def("cache.mdcache_hit_rate", "ratio", "higher"),
        def("mdcache.lookup.calls_per_op", "count", "lower"),
        def("mdcache.lookup.self_ns_per_op", "ns", "lower"),
        def("engine.request.calls_per_op", "count", "lower"),
        def("engine.request.self_ns_per_op", "ns", "lower"),
    ]);
    for scheme in SchemeKind::ALL {
        defs.push(def(
            format!("core.write_lat_mean_cyc.{}", scheme_token(scheme)),
            "cycles",
            "lower",
        ));
    }
    defs.extend([
        def("core.write_lat_p99_cyc", "cycles", "lower"),
        def("core.read_lat_mean_cyc", "cycles", "lower"),
        def("core.hashes_per_op", "count", "lower"),
        def("core.persists_per_op", "count", "lower"),
        def("engine.recover.us_per_case", "us", "lower"),
        def("recovery.scan.self_ns", "ns", "lower"),
        def("recovery.sum.self_ns", "ns", "lower"),
        def("recovery.rehash.self_ns", "ns", "lower"),
        def("core.recovery_fetches_per_case", "count", "lower"),
        def("itree.walk.calls_per_op", "count", "lower"),
        def("itree.walk.self_ns_per_op", "ns", "lower"),
        def("codec.encode.calls_per_op", "count", "lower"),
        def("codec.decode.calls_per_op", "count", "lower"),
        def("codec.self_ns_per_op", "ns", "lower"),
        def("hmac.compute.calls_per_op", "count", "lower"),
        def("hmac.compute.self_ns_per_op", "ns", "lower"),
        def("wpq.persist.calls_per_op", "count", "lower"),
        def("wpq.persist.self_ns_per_op", "ns", "lower"),
        def("nvm.user_reads_per_op", "count", "lower"),
        def("nvm.user_writes_per_op", "count", "lower"),
        def("nvm.meta_reads_per_op", "count", "lower"),
        def("nvm.meta_writes_per_op", "count", "lower"),
        def("nvm.wpq_user_full_stalls", "count", "lower"),
        def("nvm.wpq_meta_full_stalls", "count", "lower"),
        def("nvm.wpq_coalesced", "count", "higher"),
        def("nvm.pcm_row_hit_rate", "ratio", "higher"),
        def("alloc.allocs_per_op", "count", "lower"),
        def("alloc.bytes_per_op", "B", "lower"),
        def("trace.coverage_pct", "%", "higher"),
        def("trace.overhead_pct", "%", "lower"),
    ]);
    defs
}
