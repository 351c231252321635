//! Inputs, schedules and summaries shared by the workloads.

use platod2gl::{DatasetProfile, Edge, EdgeType, ObsSnapshot, UpdateOp, VertexId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

pub const ET: EdgeType = EdgeType::DEFAULT;
/// `wechat_hub` interactions every workload loads; bidirected, about
/// 0.83 M directed edges.
pub const INTERACTIONS: u64 = 500_000;
/// Seed of the graph every workload loads. The graph is a fixed dataset;
/// `--seed` draws the workload run on it: training seeds and their order,
/// updates, transactions, read points, windows, features and arrival
/// times. Graphs drawn from different seeds differ in their top hubs'
/// degrees, and read and commit rates on them differed by up to 20 %
/// between seeds while two runs on one graph agreed within 7 %: that
/// spread is the dataset's, not the program's.
pub const DATASET_SEED: u64 = 1;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
/// Fanout of a point neighbor sample.
pub const READ_FANOUT: usize = 10;
/// Point-read tail percentile: about 10 or more of a slice's reads beyond
/// it (about 400 per slice on `temporal-window`, more elsewhere).
pub const READ_TAIL_PCT: f64 = 97.5;

/// One named metric value.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Ops the workload attempted: writes, point reads and training batches.
    pub attempted: u64,
    /// Attempted ops that failed, were refused, aborted or came back
    /// degraded.
    pub failed: u64,
    /// Failed correctness checks; any entry fails the run.
    pub violations: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    /// Extra human-readable lines.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn e2e(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.end_to_end.push(Metric { name, value, unit });
    }

    pub fn layer(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.per_layer.push(Metric { name, value, unit });
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }
}

/// The graph every workload loads: the `DatasetProfile::wechat_hub` stream,
/// bidirected so that hop 2 exists. Edge `i` of the stream (and its
/// reverse) carries `ts = i + 1` when `stamped`.
pub struct Graph {
    pub profile: DatasetProfile,
    pub edges: Vec<Edge>,
    /// Source vertices of the profile's forward relation (users) that have
    /// at least one edge: the training seeds.
    pub users: Vec<VertexId>,
    /// Highest timestamp in `edges` (0 when unstamped).
    pub head_ts: u64,
}

impl Graph {
    pub fn generate(interactions: u64, seed: u64, stamped: bool) -> Self {
        let profile = DatasetProfile::wechat_hub(interactions);
        let mut edges = Vec::with_capacity(2 * interactions as usize);
        let mut users = HashSet::new();
        let mut head_ts = 0;
        for (i, e) in profile.edge_stream(seed).enumerate() {
            let e = if stamped {
                head_ts = i as u64 + 1;
                e.at(head_ts)
            } else {
                e
            };
            users.insert(e.src);
            edges.push(e);
            edges.push(e.reversed());
        }
        let mut users: Vec<VertexId> = users.into_iter().collect();
        users.sort_unstable();
        Self {
            profile,
            edges,
            users,
            head_ts,
        }
    }

    pub fn insert_ops(&self) -> Vec<UpdateOp> {
        self.edges.iter().map(|&e| UpdateOp::Insert(e)).collect()
    }
}

/// Runs are cut into slices of this length (unless a log sets its own); a
/// latency figure is taken per slice, and the run reports the quiet
/// quartile of the slices' figures (see [`QUIET`]).
pub const SLICE: Duration = Duration::from_secs(2);

/// The quantile a run reports of its per-slice (or per-epoch) figures: the
/// lower quartile of latencies, the upper quartile of rates. The reference
/// box's host switches between a fast and a slow speed (about 1.4x apart)
/// in phases lasting seconds to tens of seconds, with no steal time to
/// show for it. The median over a run follows whichever phase the run
/// mostly fell in; the quiet quartile reads the fast phase whenever a
/// quarter of the run had it. A regression that costs time in every slice
/// still moves it.
pub const QUIET: f64 = 0.25;

/// A run's latency figures: the [`QUIET`] quantile over its complete
/// slices.
#[derive(Clone, Copy, Debug, Default)]
pub struct Latency {
    /// Slice length.
    pub slice: Duration,
    /// Complete slices.
    pub slices: usize,
    /// Samples in the smallest complete slice.
    pub min_count: usize,
    pub p50: Duration,
    pub tail: Duration,
}

/// Latencies in start order, cut into slices counted from `origin`.
pub struct SliceLog {
    origin: Instant,
    slice: Duration,
    lat_ns: Vec<u32>,
    /// Index in `lat_ns` where each slice starts.
    starts: Vec<usize>,
}

impl SliceLog {
    /// Preallocates `capacity` samples, so the log adds no reallocation
    /// spike to the process's peak RSS; samples beyond it are dropped.
    pub fn new(origin: Instant, capacity: usize) -> Self {
        Self {
            origin,
            slice: SLICE,
            lat_ns: Vec::with_capacity(capacity),
            starts: Vec::new(),
        }
    }

    /// Cut into slices of `slice` instead of [`SLICE`].
    pub fn with_slice(mut self, slice: Duration) -> Self {
        self.slice = slice;
        self
    }

    /// Record one op that started (or was due) at `started`.
    pub fn push(&mut self, started: Instant, latency: Duration) {
        let slice = (started.saturating_duration_since(self.origin).as_nanos()
            / self.slice.as_nanos()) as usize;
        while self.starts.len() <= slice {
            self.starts.push(self.lat_ns.len());
        }
        if self.lat_ns.len() < self.lat_ns.capacity() {
            self.lat_ns
                .push(latency.as_nanos().min(u128::from(u32::MAX)) as u32);
        }
    }

    pub fn len(&self) -> usize {
        self.lat_ns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.lat_ns.is_empty()
    }

    /// Mean latency over every sample.
    pub fn mean_ns(&self) -> f64 {
        let total: u64 = self.lat_ns.iter().map(|&ns| u64::from(ns)).sum();
        ratio(total as f64, self.lat_ns.len() as f64)
    }

    /// [`QUIET`] quantile over the slices that ended within `span` of each
    /// slice's p50 and `tail_pct` percentile (nearest rank).
    pub fn summary(&self, span: Duration, tail_pct: f64) -> Latency {
        let complete = ((span.as_nanos() / self.slice.as_nanos()) as usize).min(self.starts.len());
        let (mut p50s, mut tails) = (Vec::new(), Vec::new());
        let mut min_count = usize::MAX;
        for i in 0..complete {
            let end = self.starts.get(i + 1).copied().unwrap_or(self.lat_ns.len());
            let mut slice = self.lat_ns[self.starts[i]..end].to_vec();
            if slice.is_empty() {
                continue;
            }
            slice.sort_unstable();
            let rank = |p: f64| {
                let r = ((p / 100.0) * slice.len() as f64).ceil() as usize;
                f64::from(slice[r.clamp(1, slice.len()) - 1])
            };
            p50s.push(rank(50.0));
            tails.push(rank(tail_pct));
            min_count = min_count.min(slice.len());
        }
        Latency {
            slice: self.slice,
            slices: p50s.len(),
            min_count: if p50s.is_empty() { 0 } else { min_count },
            p50: Duration::from_nanos(quantile(&mut p50s, QUIET) as u64),
            tail: Duration::from_nanos(quantile(&mut tails, QUIET) as u64),
        }
    }
}

/// How a latency figure was taken, for the run log.
pub fn slice_note(what: &str, l: &Latency, tail_pct: f64) -> String {
    format!(
        "{what}: p50 and p{tail_pct} per {}-s slice, lower quartile of {} slices of >= {} samples",
        l.slice.as_secs_f64(),
        l.slices,
        l.min_count
    )
}

pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q` quantile of `values`, linearly interpolated between closest
/// ranks; 0 when empty.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (values.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

/// Peak resident set size (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// An open-loop schedule: Poisson arrivals at a fixed mean rate, drawn
/// from a seeded generator, due whether or not earlier events have
/// finished. Random gaps keep the schedule from phase-locking with the
/// trainer's periodic epochs and batches.
pub struct OpenLoop {
    rng: StdRng,
    mean_gap_s: f64,
    due: Instant,
    next: u64,
    /// How late each event started against its due time.
    pub lateness: Vec<Duration>,
}

/// Events that start more than this after their due time count as sent
/// late.
pub const LATE_AFTER: Duration = Duration::from_millis(1);

impl OpenLoop {
    pub fn new(rate_per_s: f64, seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
            mean_gap_s: 1.0 / rate_per_s,
            due: Instant::now(),
            next: 0,
            lateness: Vec::new(),
        }
    }

    /// Sleep until the next event is due and return its index and due
    /// time, or `None` once `stop` is set.
    pub fn wait_next(&mut self, stop: &AtomicBool) -> Option<(u64, Instant)> {
        let k = self.next;
        let u: f64 = self.rng.random_range(f64::EPSILON..1.0);
        self.due += Duration::from_secs_f64(-u.ln() * self.mean_gap_s);
        let due = self.due;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        if stop.load(Ordering::Relaxed) {
            return None;
        }
        self.lateness
            .push(Instant::now().saturating_duration_since(due));
        self.next += 1;
        Some((k, due))
    }

    /// Mean lateness in ms and the number of events sent late.
    pub fn late_summary(&self) -> (f64, u64) {
        let late = self.lateness.iter().filter(|&&d| d > LATE_AFTER).count() as u64;
        let total: f64 = self.lateness.iter().map(|d| d.as_secs_f64() * 1e3).sum();
        (ratio(total, self.lateness.len() as f64), late)
    }
}

/// splitmix64 finalizer: derives independent sub-seeds from the run seed.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// `a / b`, or 0 when `b` is 0 (a layer that did no work).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Counter delta summed over parallel lists of registry snapshots.
pub fn counter_delta(before: &[ObsSnapshot], after: &[ObsSnapshot], name: &str) -> u64 {
    let get = |s: &ObsSnapshot| s.counter(name).unwrap_or(0);
    before.iter().zip(after).map(|(a, b)| get(b) - get(a)).sum()
}

/// Histogram `(count, sum_ns)` delta summed over parallel snapshot lists.
pub fn hist_delta(before: &[ObsSnapshot], after: &[ObsSnapshot], name: &str) -> (u64, u64) {
    let get = |s: &ObsSnapshot| s.histogram(name).map_or((0, 0), |h| (h.count, h.sum_ns));
    before.iter().zip(after).fold((0, 0), |(c, s), (a, b)| {
        let ((ca, sa), (cb, sb)) = (get(a), get(b));
        (c + cb - ca, s + sb - sa)
    })
}

/// Samtree and batch-apply figures from the store registries over the
/// measured interval (the paper's Table V leaf-op share among them).
pub fn store_layer_metrics(out: &mut Outcome, before: &[ObsSnapshot], after: &[ObsSnapshot]) {
    let c = |name| counter_delta(before, after, name) as f64;
    let (leaf, internal) = (c("samtree.leaf_ops"), c("samtree.internal_ops"));
    let ops = c("storage.batch_ops");
    let splits = c("samtree.leaf_splits") + c("samtree.internal_splits");
    let (_, apply_ns) = hist_delta(before, after, "storage.apply_batch_ns");
    out.layer(
        "samtree.leaf_op_share",
        ratio(leaf, leaf + internal),
        "ratio",
    );
    out.layer("samtree.splits_per_kop", ratio(1e3 * splits, ops), "1/kop");
    out.layer(
        "samtree.merges_per_kop",
        ratio(1e3 * c("samtree.merges"), ops),
        "1/kop",
    );
    out.layer(
        "storage.apply_ns_per_op",
        ratio(apply_ns as f64, ops),
        "ns/op",
    );
}

/// Lower the calling thread's scheduling priority to `nice`; threads it
/// spawns afterwards inherit it. Returns whether the call took effect.
///
/// The training loop runs this way as background work, as offline training
/// would beside online traffic. On `fleet-serve` the side thread shares the
/// trainer's CPU (see [`pin_to_cpu`]), and a write due while the trainer
/// runs would otherwise wait for the trainer's scheduler slice. Raising
/// niceness needs no privilege.
pub fn run_as_background(nice: i32) -> bool {
    extern "C" {
        fn setpriority(which: i32, who: u32, prio: i32) -> i32;
    }
    const PRIO_PROCESS: i32 = 0;
    // SAFETY: `setpriority` takes three integers and touches no memory of
    // ours. On Linux, `PRIO_PROCESS` with `who == 0` names the calling
    // thread only.
    unsafe { setpriority(PRIO_PROCESS, 0, nice) == 0 }
}

/// CPU mask words: room for 1024 CPUs, the kernel's default `cpu_set_t`.
const MASK_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// The CPUs this process may run on, read once, before any thread is
/// pinned.
pub fn allowed_cpus() -> &'static [usize] {
    static CPUS: OnceLock<Vec<usize>> = OnceLock::new();
    CPUS.get_or_init(|| {
        let mut mask = [0u64; MASK_WORDS];
        // SAFETY: `mask` is a writable buffer of exactly the size passed;
        // pid 0 names the calling thread.
        let ok = unsafe { sched_getaffinity(0, MASK_WORDS * 8, mask.as_mut_ptr()) } == 0;
        if !ok {
            return Vec::new();
        }
        (0..MASK_WORDS * 64)
            .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
            .collect()
    })
}

/// Pin the calling thread to the `slot`-th allowed CPU; threads it spawns
/// afterwards inherit the pin. Returns whether the call took effect (it
/// does not with fewer than two allowed CPUs: one load thread per CPU is
/// the point).
///
/// Each workload has two load threads and pins them to different CPUs.
/// Threads the program spawns to serve a call (a `Cluster` write's shard
/// workers among them) then run on their caller's CPU, and never wait for
/// the other load thread's time slice: latencies measure the program, not
/// the scheduler.
pub fn pin_to_cpu(slot: usize) -> bool {
    let cpus = allowed_cpus();
    if cpus.len() < 2 {
        return false;
    }
    let cpu = cpus[slot % cpus.len()];
    let mut mask = [0u64; MASK_WORDS];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a readable buffer of exactly the size passed; pid
    // 0 names the calling thread.
    unsafe { sched_setaffinity(0, MASK_WORDS * 8, mask.as_ptr()) == 0 }
}
