//! The PlatoD2GL repository benchmark.
//!
//! Four workloads load the system from outside, through its public APIs,
//! and report the end-to-end metrics a user sees; a traced run adds
//! per-layer metrics from pass-through timing wrappers, a replay of
//! recorded sample requests on the storage layer, and the store
//! registries. See `README.md` in this directory.

pub mod common;
pub mod ingest;
pub mod timed;
pub mod train;

use common::Outcome;
use std::path::Path;

/// End-to-end metrics every workload prints in an untraced run.
pub const END_TO_END: &[&str] = &[
    "setup_s",
    "seeds_per_s",
    "write_ops_per_s",
    "write_p50_ms",
    "write_tail_ms",
    "read_p50_us",
    "read_tail_us",
    "topo_bytes_per_edge",
    "peak_rss_mb",
];

/// Per-layer metrics every workload prints in a traced run, with their
/// units. A layer a workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("pipeline.sample_s", "s/epoch"),
    ("pipeline.gather_s", "s/epoch"),
    ("pipeline.train_s", "s/epoch"),
    ("pipeline.cache_hit_ratio", "ratio"),
    ("pipeline.dedup_ratio", "ratio"),
    ("pipeline.requests_per_seed", "req/seed"),
    ("gnn.gather_ns_per_vertex", "ns/vertex"),
    ("server.sample_calls", "calls"),
    ("server.sample_ns_per_req", "ns/req"),
    ("server.apply_ops", "ops"),
    ("server.apply_ns_per_op", "ns/op"),
    ("server.replay_ns_per_req", "ns/req"),
    ("storage.sample_ns_per_req", "ns/req"),
    ("storage.sample_windowed_ns_per_req", "ns/req"),
    ("storage.window_slowdown", "ratio"),
    ("storage.commit_ns_per_op", "ns/op"),
    ("storage.wal_bytes_per_op", "B/op"),
    ("wal.append_ns_per_commit", "ns/commit"),
    ("storage.apply_ns_per_op", "ns/op"),
    ("samtree.leaf_op_share", "ratio"),
    ("samtree.splits_per_kop", "1/kop"),
    ("samtree.merges_per_kop", "1/kop"),
    ("rpc.overhead_ns_per_req", "ns/req"),
    ("rpc.server_queue_wait_ns", "ns/frame"),
    ("fleet.replica_fanouts", "count"),
    ("fleet.replica_errors", "count"),
    ("fleet.relayed_ops", "ops"),
    ("fleet.apply_overhead_ns_per_op", "ns/op"),
    ("fleet.replica_apply_ns_per_op", "ns/op"),
    ("temporal.decay_ns_per_edge", "ns/edge"),
    ("temporal.decay_edges_per_tick", "edges/tick"),
    ("writer.late_ms", "ms"),
    ("writer.late_writes", "count"),
    ("obs.tracing_overhead", "ratio"),
];

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &[
    "train-churn",
    "ingest-durable",
    "fleet-serve",
    "temporal-window",
];

/// Run one workload. `work` is a scratch directory for durable state.
pub fn run(workload: &str, seed: u64, seconds: f64, trace: bool, work: &Path) -> Option<Outcome> {
    // Read the CPU set before a load thread pins itself.
    common::allowed_cpus();
    let kind = match workload {
        "ingest-durable" => return Some(ingest::run(seed, seconds, trace, work)),
        "train-churn" => train::Kind::Churn,
        "fleet-serve" => train::Kind::Fleet,
        "temporal-window" => train::Kind::Temporal,
        _ => return None,
    };
    Some(train::run(&train::Spec::new(kind), seed, seconds, trace))
}
