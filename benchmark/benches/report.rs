//! Metric catalogue, result line, and the environment stamp.

use std::fmt::Write as _;
use std::path::PathBuf;

/// One catalogue entry: (name, unit, better).
pub type MetricDef = (&'static str, &'static str, &'static str);

/// End-to-end metrics, measured with tracing off (`--trace 0`).
pub const END_TO_END: &[MetricDef] = &[
    ("setup_s", "s", "lower"),
    ("qps", "1/s", "higher"),
    ("allocs_per_query", "count", "lower"),
    ("alloc_bytes_per_query", "bytes", "lower"),
    ("peak_heap_mb", "MiB", "lower"),
];

/// Per-layer metrics, measured in the traced run (`--trace 1`). Every
/// workload prints every one; a metric whose layer is not on that
/// workload's path reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    ("workloads.generate_s", "s", "lower"),
    ("zone-construct.build_s", "s", "lower"),
    ("zone-construct.one_time_queries", "count", "lower"),
    ("core.assemble_s", "s", "lower"),
    ("replay.schedule_s", "s", "lower"),
    ("replay.busy_ns_per_query", "ns", "lower"),
    ("replay.callbacks_per_query", "count", "lower"),
    ("dns-server.busy_ns_per_query", "ns", "lower"),
    ("dns-server.handled_per_query", "count", "lower"),
    ("dns-resolver.busy_ns_per_query", "ns", "lower"),
    ("dns-resolver.upstream_per_query", "count", "lower"),
    ("proxy.busy_ns_per_query", "ns", "lower"),
    ("proxy.packets_per_query", "count", "lower"),
    ("stub.busy_ns_per_query", "ns", "lower"),
    ("netsim.self_ns_per_query", "ns", "lower"),
    ("netsim.self_ns_per_event", "ns", "lower"),
    ("netsim.events_per_query", "count", "lower"),
    ("netsim.tcp_conns_per_query", "count", "lower"),
    ("trace.accounted_pct", "%", "higher"),
    ("trace.span_overhead_pct", "%", "lower"),
    ("dns-wire.decode_query_ns", "ns", "lower"),
    ("dns-wire.decode_response_ns", "ns", "lower"),
    ("dns-wire.encode_query_ns", "ns", "lower"),
    ("dns-wire.encode_response_ns", "ns", "lower"),
    ("dns-wire.query_bytes_mean", "bytes", "lower"),
    ("dns-wire.response_bytes_mean", "bytes", "lower"),
    ("dns-server.handle_ns", "ns", "lower"),
    ("dns-server.answer_ns", "ns", "lower"),
    ("dns-server.glue_ns", "ns", "lower"),
    ("dns-zone.lookup_ns", "ns", "lower"),
    ("dns-zone.view_select_ns", "ns", "lower"),
    ("dns-zone.views", "count", "lower"),
    ("cache.get_ns", "ns", "lower"),
    ("cache.put_ns", "ns", "lower"),
    ("cache.hit_share", "share", "higher"),
    ("cache.delayed_hit_share", "share", "higher"),
    ("cache.miss_share", "share", "lower"),
    ("cache.evictions", "count", "lower"),
    ("cache.resident_entries", "count", "lower"),
    ("proxy.rewrite_ns", "ns", "lower"),
    ("netsim.bare_ns_per_event", "ns", "lower"),
    ("netsim.queue_ns_per_op", "ns", "lower"),
    ("shard.x2_speedup", "x", "higher"),
    ("shard.x1_overhead_pct", "%", "lower"),
    ("shard.cross_packets_per_query", "count", "lower"),
    ("shard.lookahead_ms", "ms", "higher"),
    ("telemetry.on_overhead_pct", "%", "lower"),
    ("telemetry.drained_events_per_query", "count", "lower"),
    ("guard.on_overhead_pct", "%", "lower"),
    ("guard.checkpoints", "count", "lower"),
];

/// The measured values of one run, in catalogue order.
pub struct Metrics {
    defs: &'static [MetricDef],
    values: Vec<f64>,
}

impl Metrics {
    pub fn new(defs: &'static [MetricDef]) -> Metrics {
        Metrics {
            defs,
            values: vec![0.0; defs.len()],
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .defs
            .iter()
            .position(|d| d.0 == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"));
        // Neither NaN nor -0 belongs in the result line.
        self.values[i] = if value.is_finite() && value != 0.0 {
            value
        } else {
            0.0
        };
    }

    pub fn print(&self) {
        for (def, value) in self.defs.iter().zip(&self.values) {
            println!("  {:<36} {:>16.4} {}", def.0, value, def.1);
        }
    }

    fn json(&self) -> String {
        let mut out = String::from("{");
        for (i, (def, value)) in self.defs.iter().zip(&self.values).enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                def.0, value, def.1
            );
        }
        out.push('}');
        out
    }
}

/// What one run found, and what it prints as its last line.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

impl RunResult {
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            self.metrics.json()
        )
    }
}

/// Directory of the running binary: build.sh puts it in
/// `$CARGO_TARGET_DIR/benchmark/`, where the trace files go too.
pub fn out_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(PathBuf::from))
        .unwrap_or_else(|| PathBuf::from("."))
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The fields every run stamps: run.sh exports the two the binary
/// cannot learn on its own.
pub fn environment(workload: &str, seed: u64, seconds: f64, trace: bool) -> String {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "\"workload\": \"{workload}\", \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {}, \
         \"nproc\": {nproc}, \"cpu\": \"{}\", \"rustc\": \"{}\", \"commit\": \"{}\"",
        u8::from(trace),
        cpu_model().replace('"', "'"),
        env("LDP_BENCH_RUSTC").replace('"', "'"),
        env("LDP_BENCH_COMMIT").replace('"', "'"),
    )
}

/// Write `last_run-<workload>[.trace].json` beside the binary.
pub fn stamp(workload: &str, seed: u64, seconds: f64, trace: bool, result: &RunResult) {
    let name = format!(
        "last_run-{workload}{}.json",
        if trace { ".trace" } else { "" }
    );
    let body = format!(
        "{{{}, \"result\": {}}}\n",
        environment(workload, seed, seconds, trace),
        result.result_line()
    );
    if let Err(e) = std::fs::write(out_dir().join(&name), body) {
        eprintln!("benchmark: cannot write {name}: {e}");
    }
}
