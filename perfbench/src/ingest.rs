//! `ingest-durable`: a closed-loop transactional writer and a closed-loop
//! point reader on one preloaded `DurableGraphStore`.
//!
//! The writer turns the profile's Zipf update stream into `GraphTxn`s and
//! commits each through `try_apply_txn` (one fsync per commit). A shadow set
//! of live edges makes every delete and weight patch name an edge that
//! exists, so no transaction is rejected. Txn sizes span fsync-bound
//! (1 op) to apply-bound (4096 ops) commits.

use crate::common::{
    hist_delta, median, mix, peak_rss_mb, pin_to_cpu, quantile, ratio, secs, slice_note,
    store_layer_metrics, Graph, Outcome, SliceLog, DATASET_SEED, ET, INTERACTIONS, QUIET,
    READ_FANOUT, READ_TAIL_PCT, SETUP_REPS,
};
use platod2gl::{
    DurableGraphStore, Edge, GraphStore, GraphTxn, StoreConfig, TxnOp, UpdateOp, UpdateStream,
    VertexId,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Txn sizes (typed ops) and their relative frequencies. One- and 16-op
/// commits are fsync-bound, 4096-op commits apply-bound. Apply-bound
/// commits are weighted so the figures do not just follow the shared
/// disk's fsync time, and so the median commit lies well inside the
/// 4096-op mode instead of on the edge between two modes.
const TXN_SIZES: [(usize, u32); 4] = [(1, 1), (16, 1), (256, 1), (4096, 5)];
/// Insert / weight-patch / delete shares in percent. Inserts balance
/// deletes so the live graph stays near its preloaded size for the whole
/// run.
const MIX: [u32; 3] = [37, 30, 33];
/// Threads `try_apply_txn` applies a committed batch with: one, so the
/// writer and the reader each hold one of the two cores.
const APPLY_THREADS: usize = 1;
/// Commit tail: at least 10 of a slice's 210 to 260 commits beyond it.
const WRITE_TAIL_PCT: f64 = 95.0;
const CHUNK: usize = 65_536;
/// Reads whose latency is kept (about a minute of reading).
const READ_LOG_CAP: usize = 1 << 25;
/// Traced runs alternate untraced and traced slices of this length.
const TRACE_SLICE: Duration = Duration::from_millis(500);

/// Live edges, with O(1) random choice for deletes.
#[derive(Default)]
struct Shadow {
    edges: Vec<(VertexId, VertexId)>,
    index: HashMap<(VertexId, VertexId), usize>,
}

impl Shadow {
    fn contains(&self, k: &(VertexId, VertexId)) -> bool {
        self.index.contains_key(k)
    }

    fn insert(&mut self, k: (VertexId, VertexId)) {
        if !self.index.contains_key(&k) {
            self.index.insert(k, self.edges.len());
            self.edges.push(k);
        }
    }

    fn remove(&mut self, k: &(VertexId, VertexId)) {
        if let Some(i) = self.index.remove(k) {
            self.edges.swap_remove(i);
            if let Some(moved) = self.edges.get(i) {
                self.index.insert(*moved, i);
            }
        }
    }

    fn len(&self) -> usize {
        self.edges.len()
    }
}

/// A shadow change applied once its txn commits.
enum Change {
    Add((VertexId, VertexId)),
    Remove((VertexId, VertexId)),
}

/// Builds valid transactions from the update stream against the shadow.
struct TxnGen {
    /// Zipf-skewed edges; the op kind is redrawn with [`MIX`].
    stream: UpdateStream,
    rng: StdRng,
    next_id: u64,
}

impl TxnGen {
    fn next(&mut self, shadow: &Shadow, size: usize) -> (GraphTxn, Vec<Change>) {
        let mut txn = GraphTxn::new(self.next_id);
        self.next_id += 1;
        let mut keys: HashSet<(VertexId, VertexId)> = HashSet::with_capacity(size);
        let mut changes = Vec::with_capacity(size);
        while txn.len() < size {
            let e = match self.stream.next_op() {
                UpdateOp::Insert(e) | UpdateOp::UpdateWeight(e) => e,
                UpdateOp::Delete { src, dst, .. } => Edge::new(src, dst, 0.5),
            };
            let k = (e.src, e.dst);
            let kind = self.rng.random_range(0..MIX.iter().sum::<u32>());
            if kind < MIX[0] {
                if keys.insert(k) {
                    txn.push(TxnOp::InsertEdge(e));
                    changes.push(Change::Add(k));
                }
                continue;
            }
            // Patches and deletes name a live edge: the generated one when
            // it is live (rare), a uniformly drawn live edge otherwise.
            let k = if shadow.contains(&k) {
                k
            } else {
                shadow.edges[self.rng.random_range(0..shadow.len())]
            };
            if !keys.insert(k) {
                continue;
            }
            if kind < MIX[0] + MIX[1] {
                txn.push(TxnOp::PatchWeight(Edge::new(k.0, k.1, e.weight)));
            } else {
                txn.push(TxnOp::DeleteEdge {
                    src: k.0,
                    dst: k.1,
                    etype: ET,
                });
                changes.push(Change::Remove(k));
            }
        }
        (txn, changes)
    }
}

/// Add `n` to the count of the whole second since `started` that now
/// falls in.
fn count_in_slice(slices: &mut Vec<u64>, started: Instant, n: u64) {
    let i = started.elapsed().as_secs() as usize;
    if slices.len() <= i {
        slices.resize(i + 1, 0);
    }
    slices[i] += n;
}

/// The upper quartile ([`QUIET`]) of the per-second rates over the complete
/// one-second slices (the last, partial slice is dropped). Rates use
/// shorter slices than latencies (`SLICE`): a count needs no minimum sample
/// per slice.
fn slice_rate(mut slices: Vec<u64>) -> f64 {
    slices.pop();
    let mut rates: Vec<f64> = slices.into_iter().map(|n| n as f64).collect();
    quantile(&mut rates, 1.0 - QUIET)
}

fn open(dir: &Path) -> Result<DurableGraphStore, String> {
    DurableGraphStore::open(dir, StoreConfig::default())
        .map(|(s, _)| s)
        .map_err(|e| format!("open {}: {e}", dir.display()))
}

/// Fresh store in `dir` holding `edges`, checkpointed so the WAL starts
/// empty.
fn setup(dir: &Path, edges: &[Edge]) -> Result<DurableGraphStore, String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| e.to_string())?;
    }
    let store = open(dir)?;
    let ops: Vec<UpdateOp> = edges.iter().map(|&e| UpdateOp::Insert(e)).collect();
    for chunk in ops.chunks(CHUNK) {
        store
            .try_apply_batch(chunk, APPLY_THREADS)
            .map_err(|e| format!("preload: {e}"))?;
    }
    store.checkpoint().map_err(|e| format!("checkpoint: {e}"))?;
    Ok(store)
}

pub fn run(seed: u64, seconds: f64, trace: bool, work: &Path) -> Outcome {
    let mut out = Outcome::default();
    let graph = Graph::generate(INTERACTIONS, DATASET_SEED, false);
    let dir: PathBuf = work.join("ingest-durable");

    // ---- set-up ----------------------------------------------------------
    let mut setup_s = Vec::new();
    let mut store = None;
    for _ in 0..SETUP_REPS {
        drop(store.take());
        let t = Instant::now();
        match setup(&dir, &graph.edges) {
            Ok(s) => store = Some(s),
            Err(e) => {
                out.violations.push(e);
                return out;
            }
        }
        setup_s.push(secs(t.elapsed()));
    }
    let store = store.expect("at least one set-up");
    let mut shadow = Shadow::default();
    for e in &graph.edges {
        shadow.insert((e.src, e.dst));
    }
    let live = store.store().num_edges();
    out.check(live == shadow.len(), || {
        format!("preloaded {live} edges, shadow holds {}", shadow.len())
    });
    let topo_bytes = store.store().memory_breakdown().total_bytes;

    // ---- inputs ------------------------------------------------------------
    let mut gen = TxnGen {
        stream: graph.profile.update_stream(mix(seed ^ 4)),
        rng: StdRng::seed_from_u64(mix(seed ^ 8)),
        next_id: 1,
    };
    let total_weight: u32 = TXN_SIZES.iter().map(|&(_, w)| w).sum();
    let mut size_rng = StdRng::seed_from_u64(mix(seed ^ 9));
    let mut pick_size = move || {
        let mut x = size_rng.random_range(0..total_weight);
        for (size, w) in TXN_SIZES {
            if x < w {
                return size;
            }
            x -= w;
        }
        unreachable!("weights cover the range")
    };
    let points: Vec<VertexId> = graph.profile.sample_sources(8192, mix(seed ^ 3));

    // ---- measurement ---------------------------------------------------------
    let reg_before = [store.registry().snapshot()];
    let stop = AtomicBool::new(false);
    let reads = AtomicU64::new(0);
    let origin = Instant::now();
    let mut write_lat = SliceLog::new(origin, 1 << 20);
    let (mut ops_ok, mut aborted, mut failed) = (0u64, 0u64, 0u64);
    // Per tracing mode: (ops committed, wall seconds, commit ns, WAL bytes).
    let mut mode = [(0u64, 0.0f64, 0u64, 0u64); 2];
    let mut write_slices: Vec<u64> = Vec::new();
    let (read_lat, read_slices) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            pin_to_cpu(1);
            let mut rng = StdRng::seed_from_u64(mix(seed ^ 10));
            let mut lat = SliceLog::new(origin, READ_LOG_CAP);
            let mut per_slice: Vec<u64> = Vec::new();
            let started = origin;
            let mut i = 0usize;
            while !stop.load(Ordering::Relaxed) {
                let v = points[i % points.len()];
                i += 1;
                let t = Instant::now();
                let got = store.store().sample_neighbors(v, ET, READ_FANOUT, &mut rng);
                lat.push(t, t.elapsed());
                std::hint::black_box(got);
                count_in_slice(&mut per_slice, started, 1);
            }
            reads.store(i as u64, Ordering::Relaxed);
            (lat, per_slice)
        });
        if !pin_to_cpu(0) {
            eprintln!("perfbench: could not pin the load threads to their own CPUs");
        }
        let started = origin;
        while started.elapsed().as_secs_f64() < seconds {
            let iteration = Instant::now();
            let traced = trace && (started.elapsed().as_nanos() / TRACE_SLICE.as_nanos()) % 2 == 1;
            let (txn, changes) = gen.next(&shadow, pick_size());
            let wal_before = if traced { store.wal_bytes() } else { 0 };
            let t = Instant::now();
            let res = store.try_apply_txn(&txn, APPLY_THREADS);
            let took = t.elapsed();
            write_lat.push(t, took);
            let m = &mut mode[usize::from(traced)];
            match res {
                Ok(receipt) => {
                    ops_ok += receipt.ops_applied;
                    count_in_slice(&mut write_slices, started, receipt.ops_applied);
                    m.0 += receipt.ops_applied;
                    if traced {
                        m.2 += took.as_nanos() as u64;
                        m.3 += store.wal_bytes() - wal_before;
                    }
                    for c in changes {
                        match c {
                            Change::Add(k) => shadow.insert(k),
                            Change::Remove(k) => shadow.remove(&k),
                        }
                    }
                }
                Err(e) if e.is_rejected() => aborted += 1,
                Err(_) => failed += 1,
            }
            m.1 += secs(iteration.elapsed());
        }
        stop.store(true, Ordering::Relaxed);
        reader.join().expect("reader panicked")
    });
    let reg_after = [store.registry().snapshot()];
    let peak_rss = peak_rss_mb();

    // ---- correctness ---------------------------------------------------------
    out.check(aborted == 0, || format!("{aborted} transactions aborted"));
    let live_after = store.store().num_edges();
    out.check(live_after == shadow.len(), || {
        format!(
            "store holds {live_after} live edges, shadow set {}",
            shadow.len()
        )
    });
    drop(store);
    let t = Instant::now();
    match open(&dir) {
        Ok(reopened) => {
            let recovered = reopened.store().num_edges();
            out.notes.push(format!(
                "reopen recovered {recovered} edges in {:.3} s",
                secs(t.elapsed())
            ));
            out.check(recovered == shadow.len(), || {
                format!(
                    "reopen recovered {recovered} edges, shadow set {}",
                    shadow.len()
                )
            });
        }
        Err(e) => out.violations.push(e),
    }
    let _ = std::fs::remove_dir_all(&dir);

    // ---- end-to-end metrics ------------------------------------------------
    let n_reads = reads.load(Ordering::Relaxed);
    out.attempted = write_lat.len() as u64 + n_reads;
    out.failed = aborted + failed;
    let span = Duration::from_secs_f64(seconds);
    let w = write_lat.summary(span, WRITE_TAIL_PCT);
    let r = read_lat.summary(span, READ_TAIL_PCT);
    out.e2e("setup_s", median(&mut setup_s), "s");
    out.e2e("seeds_per_s", slice_rate(read_slices), "seeds/s");
    out.e2e("write_ops_per_s", slice_rate(write_slices), "ops/s");
    out.e2e("write_p50_ms", secs(w.p50) * 1e3, "ms");
    out.e2e("write_tail_ms", secs(w.tail) * 1e3, "ms");
    out.e2e("read_p50_us", secs(r.p50) * 1e6, "us");
    out.e2e("read_tail_us", secs(r.tail) * 1e6, "us");
    out.e2e(
        "topo_bytes_per_edge",
        ratio(topo_bytes as f64, live as f64),
        "B/edge",
    );
    out.e2e("peak_rss_mb", peak_rss, "MiB");
    out.notes.push(format!(
        "{} commits, {ops_ok} ops; {n_reads} reads; {live_after} live edges",
        write_lat.len()
    ));
    out.notes.push(slice_note("commits", &w, WRITE_TAIL_PCT));
    out.notes.push(slice_note("reads", &r, READ_TAIL_PCT));

    // ---- per-layer metrics (traced run) ------------------------------------
    if trace {
        let (ops_t, _, ns_t, wal_t) = mode[1];
        out.layer(
            "storage.commit_ns_per_op",
            ratio(ns_t as f64, ops_t as f64),
            "ns/op",
        );
        out.layer(
            "storage.wal_bytes_per_op",
            ratio(wal_t as f64, ops_t as f64),
            "B/op",
        );
        let (appends, append_ns) = hist_delta(&reg_before, &reg_after, "wal.append_ns");
        out.layer(
            "wal.append_ns_per_commit",
            ratio(append_ns as f64, appends as f64),
            "ns/commit",
        );
        store_layer_metrics(&mut out, &reg_before, &reg_after);
        out.layer("storage.sample_ns_per_req", read_lat.mean_ns(), "ns/req");
        let rate = |m: (u64, f64, u64, u64)| ratio(m.0 as f64, m.1);
        out.layer(
            "obs.tracing_overhead",
            ratio(rate(mode[1]), rate(mode[0])),
            "ratio",
        );
    }
    out
}
