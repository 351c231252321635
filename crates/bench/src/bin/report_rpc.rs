//! Serving-core trail: connection-churn throughput of the event-loop RPC
//! server at 64/512/2048 concurrent connections (median of interleaved
//! repeats, plus scaling against 64), and a 10k-accept endurance phase;
//! writes BENCH_8.json.
//! Run: cargo run -p platod2gl-bench --release --bin report_rpc

fn main() {
    platod2gl_bench::experiments::rpc_report();
}
