//! The benchmark's contract: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics. `BENCHMARK.json` is printed
//! from these tables (`--describe`), and a run reports exactly these
//! names, so the file and the program cannot drift apart.

pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
    /// Listed in `BENCHMARK.json`, so the driver runs and gates it. The
    /// driver's time limit holds four workloads at 30 s a run; the other
    /// three run by name and in the all-workloads pass.
    pub gated: bool,
}

pub const WORKLOADS: [WorkloadDef; 7] = [
    WorkloadDef {
        name: "des_small",
        why: "12x12 grid, all six schemes: the cache-resident DES hot loop (queue pop, dispatch, transition, ChannelSet algebra)",
        gated: true,
    },
    WorkloadDef {
        name: "des_large",
        why: "32x32 grid, same engine: working set past L2, so a data-layout gain shows here and not on des_small",
        gated: true,
    },
    WorkloadDef {
        name: "des_faulted",
        why: "16x16 with hotspot, mobility, loss and duplication, a RingSink and a mid-run checkpoint: sink, hop, fault and snapshot costs",
        gated: false,
    },
    WorkloadDef {
        name: "serve_borrow",
        why: "in-process service, 14 closed-loop callers a cell against 10 primaries: cells must borrow, so protocol rounds, mailboxes, timers and the audit do the work; no wire",
        gated: true,
    },
    WorkloadDef {
        name: "wire_local",
        why: "loopback TCP, 256 in flight, every grant local-mode: frame codec, sockets and thread hand-offs dominate and the protocol does little",
        gated: true,
    },
    WorkloadDef {
        name: "wire_rtt",
        why: "loopback TCP, one request in flight: unloaded acquisition latency, which only removing a blocking step moves; batching that delays single requests loses here",
        gated: false,
    },
    WorkloadDef {
        name: "wire_mixed",
        why: "loopback TCP with every frame sent twice, a quarter of grants handed off and a quarter released early: dedup map, response cache, handoff and release paths",
        gated: false,
    },
];

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen;
    /// per-layer metrics have none.
    pub bound: Option<f64>,
}

const fn gated(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// Every one is reported, and is never 0, on every workload. On the DES
/// workloads an operation is a simulated event and the latency is the
/// wall time of one run of the paper's adaptive scheme; on the serving
/// workloads an operation is a granted acquisition and the latency is
/// the client's wait for its confirm. `README.md` says why.
pub const END_TO_END: [MetricDef; 5] = [
    gated("setup_s", "s", "lower", 0.25),
    gated("ops_per_s", "1/s", "higher", 0.25),
    gated("latency_p50_us", "us", "lower", 0.25),
    gated("granted_share", "ratio", "higher", 0.04),
    gated("peak_rss_mb", "MiB", "lower", 0.25),
];

/// A layer a workload does not touch reports 0 there.
pub const PER_LAYER: [MetricDef; 88] = [
    layer("hexgrid.topology_build_ms", "ms", "lower"),
    layer("hexgrid.channelset_ns_per_op", "ns", "lower"),
    layer("traffic.generate_ms", "ms", "lower"),
    layer("traffic.arrivals", "count", "higher"),
    layer("traffic.hops", "count", "higher"),
    layer("equeue.hold_ns_per_op", "ns", "lower"),
    layer("engine.events", "count", "lower"),
    layer("engine.messages", "count", "lower"),
    layer("engine.ns_per_event", "ns", "lower"),
    layer("engine.report_digest", "count", "higher"),
    layer("core.adaptive.ns_per_event", "ns", "lower"),
    layer("core.adaptive.msgs_per_acq", "count", "lower"),
    layer("core.adaptive.acq_time_T", "T", "lower"),
    layer("core.adaptive.blocked_share", "ratio", "lower"),
    layer("core.adaptive.xi1_local_share", "ratio", "higher"),
    layer("core.adaptive.xi2_update_share", "ratio", "lower"),
    layer("core.adaptive.xi3_search_share", "ratio", "lower"),
    layer("core.adaptive.update_attempts_mean", "count", "lower"),
    layer("baselines.fixed.ns_per_event", "ns", "lower"),
    layer("baselines.fixed.msgs_per_acq", "count", "lower"),
    layer("baselines.basic_search.ns_per_event", "ns", "lower"),
    layer("baselines.basic_search.msgs_per_acq", "count", "lower"),
    layer("baselines.basic_update.ns_per_event", "ns", "lower"),
    layer("baselines.basic_update.msgs_per_acq", "count", "lower"),
    layer("baselines.advanced_update.ns_per_event", "ns", "lower"),
    layer("baselines.advanced_update.msgs_per_acq", "count", "lower"),
    layer("baselines.advanced_search.ns_per_event", "ns", "lower"),
    layer("baselines.advanced_search.msgs_per_acq", "count", "lower"),
    layer("trace.records", "count", "higher"),
    layer("trace.dropped", "count", "lower"),
    layer("trace.overhead_share", "ratio", "lower"),
    layer("faults.messages_lost", "count", "lower"),
    layer("faults.retries", "count", "lower"),
    layer("faults.retry_exhausted_drops", "count", "lower"),
    layer("snapshot.bytes", "B", "lower"),
    layer("snapshot.save_ms", "ms", "lower"),
    layer("snapshot.restore_ms", "ms", "lower"),
    layer("snapshot.resume_identical", "count", "higher"),
    layer("analysis.table1_msgs_err_pct", "%", "lower"),
    layer("analysis.table3_acq_err_pct", "%", "lower"),
    layer("metrics.sketch_push_ns", "ns", "lower"),
    layer("serve.request_channel_us_p50", "us", "lower"),
    layer("serve.confirm_hit_share", "ratio", "higher"),
    layer("serve.bp_stalls", "count", "lower"),
    layer("serve.bp_forced", "count", "lower"),
    layer("serve.granted", "count", "higher"),
    layer("serve.rejected", "count", "lower"),
    layer("serve.violations", "count", "lower"),
    layer("serve.inproc_acq_per_s", "1/s", "higher"),
    layer("serve.inproc_p50_us", "us", "lower"),
    layer("serve.des_replay_acq_per_s", "1/s", "higher"),
    layer("serve.fixed_blocked_share", "ratio", "higher"),
    layer("threadnet.timer_fire_lag_us_p50", "us", "lower"),
    layer("wire.frame_encode_ns", "ns", "lower"),
    layer("wire.frame_decode_ns", "ns", "lower"),
    layer("wire.bytes_per_request", "B", "lower"),
    layer("wire.submit_us_p50", "us", "lower"),
    layer("wire.recv_wait_us_p50", "us", "lower"),
    layer("wire.retries", "count", "lower"),
    layer("wire.timeouts", "count", "lower"),
    layer("wire.dedup_hits", "count", "lower"),
    layer("wire.connections", "count", "lower"),
    layer("wire.added_p50_us", "us", "lower"),
    layer("wire.throughput_ratio", "ratio", "higher"),
    layer("client.loop_ops_per_s", "1/s", "higher"),
    layer("client.latency_p90_us", "us", "lower"),
    layer("client.latency_p99_us", "us", "lower"),
    layer("client.latency_p999_us", "us", "lower"),
    layer("bench.trace_overhead_share", "ratio", "lower"),
    layer("bench.failed_share", "ratio", "lower"),
    layer("bench.rounds", "count", "higher"),
    layer("bench.untraced_ops_per_s", "1/s", "higher"),
    layer("bench.raw_ops_per_s", "1/s", "higher"),
    layer("bench.host_slowdown", "ratio", "lower"),
    layer("bench.span_count", "count", "lower"),
    layer("bench.work_self_ms", "ms", "lower"),
    layer("loadgen.open.p50_us.r15k", "us", "lower"),
    layer("loadgen.open.p50_us.r30k", "us", "lower"),
    layer("loadgen.open.p50_us.r60k", "us", "lower"),
    layer("loadgen.open.p99_us.r15k", "us", "lower"),
    layer("loadgen.open.p99_us.r30k", "us", "lower"),
    layer("loadgen.open.p99_us.r60k", "us", "lower"),
    layer("loadgen.open.lag_p99_us.r15k", "us", "lower"),
    layer("loadgen.open.lag_p99_us.r30k", "us", "lower"),
    layer("loadgen.open.lag_p99_us.r60k", "us", "lower"),
    layer("loadgen.open.backlog_growing.r15k", "count", "lower"),
    layer("loadgen.open.backlog_growing.r30k", "count", "lower"),
    layer("loadgen.open.backlog_growing.r60k", "count", "lower"),
];

/// The text of `BENCHMARK.json`.
pub fn benchmark_json(run_seconds: u64) -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {run_seconds},\n"));
    s.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = WORKLOADS
        .iter()
        .filter(|w| w.gated)
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better,
                m.bound.expect("end-to-end metrics are gated")
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ]\n}\n");
    s
}
