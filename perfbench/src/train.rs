//! The three training workloads: `train-churn`, `fleet-serve` and
//! `temporal-window`.
//!
//! Each runs GraphSAGE epochs through `TrainingPipeline` in a closed loop on
//! the main thread while one open-loop side thread writes (and, on
//! `temporal-window`, ticks `RecencyDecay`) and issues point neighbor
//! samples on a fixed schedule. The service the pipeline and the side
//! thread call is always wrapped in a [`TimedService`]; its clocks only run
//! in a traced run.

use crate::common::{
    counter_delta, hist_delta, median, mix, peak_rss_mb, pin_to_cpu, quantile, ratio,
    run_as_background, secs, slice_note, store_layer_metrics, Graph, OpenLoop, Outcome, SliceLog,
    DATASET_SEED, ET, INTERACTIONS, QUIET, READ_FANOUT, READ_TAIL_PCT, SETUP_REPS, SLICE,
};
use crate::timed::{ClockReading, TimedFeatures, TimedService, Tracing};
use platod2gl::{
    CacheConfig, CacheStats, Cluster, ClusterConfig, ConnectionMode, DecayConfig,
    DynamicGraphStore, Edge, FleetCluster, FleetClusterConfig, FleetNode, GraphService,
    GraphServiceServer, GraphStore, HashFeatures, KHopSampler, NeighborCache, ObsSnapshot,
    PartitionMap, PipelineConfig, PipelineStats, RecencyDecay, RemoteClusterConfig, SageNet,
    SageNetConfig, SampleRequest, ServerEntry, TimeWindow, TrainingPipeline, UpdateOp,
    UpdateStream, VertexId,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which of the three training workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Churn,
    Fleet,
    Temporal,
}

/// What differs between the three training workloads.
pub struct Spec {
    pub kind: Kind,
    /// Shards per `Cluster` (per fleet member on `fleet-serve`).
    shards: usize,
    /// Side-thread events per second; one in `1 + reads_per_write` is a
    /// write, the rest are point reads.
    event_rate: f64,
    reads_per_write: u64,
    /// Ops per write.
    write_ops: usize,
    /// Write latency slice length, and the highest percentile with at
    /// least 10 of a slice's writes beyond it.
    write_slice: Duration,
    write_tail_pct: f64,
}

impl Spec {
    pub fn new(kind: Kind) -> Self {
        let fleet = kind == Kind::Fleet;
        Spec {
            kind,
            shards: if fleet { 2 } else { 4 },
            // 50 writes/s (25 on the fleet). `temporal-window` issues fewer
            // reads: its windowed hub reads can take milliseconds, and the
            // writes queue behind them on the one side thread.
            event_rate: match kind {
                Kind::Churn => 500.0,
                Kind::Fleet => 250.0,
                Kind::Temporal => 250.0,
            },
            reads_per_write: if kind == Kind::Temporal { 4 } else { 9 },
            // `temporal-window` appends 32 interactions (64 edges) per
            // write, so the graph grows about 10 % in a 25-s run: at 256 it
            // grew about 40 %, hubs piled up edges newer than every window,
            // and read and write tails climbed all run.
            write_ops: if kind == Kind::Churn { 256 } else { 64 },
            // At least 10 of a slice's writes beyond it: 50 per slice on
            // the fleet (25/s, 2-s slices) and on `temporal-window` (50/s,
            // 1-s slices), 100 on `train-churn`. On `temporal-window` 5 to
            // 10 % of the writes wait behind a slow windowed read on the
            // side thread; a p90 sat on that edge and swung with it.
            write_slice: if kind == Kind::Temporal {
                Duration::from_secs(1)
            } else {
                SLICE
            },
            write_tail_pct: if kind == Kind::Churn { 90.0 } else { 80.0 },
        }
    }
}

const FANOUTS: [usize; 2] = [10, 5];
const BATCH: usize = 256;
/// A small SageNet, so sampling, not the dense model, bounds the epoch.
const FEATURE_DIM: usize = 16;
const HIDDEN: usize = 8;
/// Seeds per epoch: distinct users, drawn hub-biased.
const SEEDS_PER_EPOCH: usize = 4096;
/// Niceness of the training loop (see [`run_as_background`]).
const TRAINER_NICE: i32 = 10;
/// `temporal-window`: every shard gets one `RecencyDecay` tick per this
/// many side-thread events, one shard at a time, round robin. Five ticks a
/// second (at 250 events/s) hold up about 2 % of the writes, so the write
/// tail (p90) moves only when decay gets several times costlier, not with
/// every burst of interference on a shared box.
const DECAY_EVERY: u64 = 200;
/// Source neighborhoods one `RecencyDecay` tick visits. Few, so a tick's
/// length is set by its census of the shard (steady) more than by which
/// hubs it happens to decay.
const DECAY_SOURCES: usize = 4;
const PARTITIONS: u32 = 64;
/// Sample requests recorded in a traced run for the storage replay.
const RECORD_CAP: usize = 4096;
/// Replay passes per rung; the reported figure is their median.
const REPLAY_PASSES: usize = 5;
const CHUNK: usize = 65_536;

/// A loaded system, ready for its first measured op.
struct Rig {
    /// The service the pipeline and the side thread call.
    svc: Arc<TimedService<dyn GraphService + Send + Sync>>,
    /// Local clusters: the one cluster, or each fleet member's cluster.
    clusters: Vec<Arc<Cluster>>,
    /// Fleet only: the server-side wrappers around each `FleetNode`, the
    /// listening servers and the partition map.
    nodes: Vec<Arc<TimedService<FleetNode>>>,
    servers: Vec<GraphServiceServer>,
    map: Option<PartitionMap>,
}

impl Rig {
    fn shutdown(self) {
        drop(self.svc);
        for s in self.servers {
            s.shutdown();
        }
    }

    /// The shard store and cluster that own `v`.
    fn owner(&self, v: VertexId) -> (&Cluster, &DynamicGraphStore) {
        let cluster = match &self.map {
            Some(map) => &self.clusters[map.owner_index(map.partition_of(v)) as usize],
            None => &self.clusters[0],
        };
        (cluster, cluster.server(cluster.route(v)).topology())
    }

    fn registries(&self) -> Vec<ObsSnapshot> {
        self.clusters.iter().map(|c| c.obs().snapshot()).collect()
    }
}

fn new_cluster(shards: usize) -> Arc<Cluster> {
    Arc::new(Cluster::new(
        ClusterConfig::builder()
            .num_shards(shards)
            .build()
            .expect("valid cluster config"),
    ))
}

fn load(cluster: &Cluster, ops: &[UpdateOp]) -> Result<(), String> {
    for chunk in ops.chunks(CHUNK) {
        let r = cluster
            .apply_batch_sharded(chunk)
            .map_err(|e| format!("load failed: {e}"))?;
        if r.applied_ops != chunk.len() {
            return Err(format!("load queued {} ops", r.queued_ops));
        }
    }
    Ok(())
}

fn client_cfg() -> RemoteClusterConfig {
    RemoteClusterConfig::default()
        .request_timeout(Duration::from_secs(10))
        .mode(ConnectionMode::Multiplexed)
        .mux_connections(1)
}

fn setup(spec: &Spec, graph: &Graph, tracing: &Tracing) -> Result<Rig, String> {
    let ops = graph.insert_ops();
    match spec.kind {
        Kind::Churn | Kind::Temporal => {
            let cluster = new_cluster(spec.shards);
            load(&cluster, &ops)?;
            let inner: Arc<dyn GraphService + Send + Sync> = cluster.clone();
            Ok(Rig {
                svc: Arc::new(TimedService::new(inner, tracing.clone(), RECORD_CAP)),
                clusters: vec![cluster],
                nodes: Vec::new(),
                servers: Vec::new(),
                map: None,
            })
        }
        Kind::Fleet => {
            // The members start on the second CPU, so their event loops and
            // every thread those spawn serve from it; the client side (the
            // `FleetCluster`'s connections, the trainer and the side
            // thread) runs on the first.
            pin_to_cpu(1);
            // Two members; with owner + replica per partition each member
            // holds every partition, so each loads the whole graph.
            let mut clusters = Vec::new();
            let mut nodes = Vec::new();
            let mut servers = Vec::new();
            for id in 1..=2u64 {
                let cluster = new_cluster(spec.shards);
                load(&cluster, &ops)?;
                let node = FleetNode::new(Arc::clone(&cluster), id, client_cfg());
                let node = Arc::new(TimedService::new(Arc::new(node), tracing.clone(), 0));
                let server = GraphServiceServer::bind("127.0.0.1:0", Arc::clone(&node))
                    .map_err(|e| format!("bind: {e}"))?;
                clusters.push(cluster);
                nodes.push(node);
                servers.push(server);
            }
            let roster: Vec<ServerEntry> = nodes
                .iter()
                .zip(&servers)
                .map(|(n, s)| ServerEntry {
                    id: n.inner().server_id(),
                    addr: s.local_addr().to_string(),
                })
                .collect();
            let map = PartitionMap::build(roster, PARTITIONS).map_err(|e| e.to_string())?;
            for n in &nodes {
                n.inner().install(map.clone());
            }
            let addrs: Vec<String> = servers.iter().map(|s| s.local_addr().to_string()).collect();
            pin_to_cpu(0);
            let fleet = FleetCluster::connect(
                &addrs,
                FleetClusterConfig {
                    client: client_cfg(),
                    num_partitions: PARTITIONS,
                },
            )
            .map_err(|e| format!("fleet connect: {e}"))?;
            let inner: Arc<dyn GraphService + Send + Sync> = Arc::new(fleet);
            Ok(Rig {
                svc: Arc::new(TimedService::new(inner, tracing.clone(), RECORD_CAP)),
                clusters,
                nodes,
                servers,
                map: Some(map),
            })
        }
    }
}

/// One measured epoch.
struct EpochLog {
    seeds: usize,
    elapsed: Duration,
    loss: f64,
    batches: u64,
    degraded: u64,
    traced: bool,
}

/// What the open-loop side thread did.
struct SideLog {
    write_lat: SliceLog,
    read_lat: SliceLog,
    write_ops_ok: u64,
    writes_failed: u64,
    reads_failed: u64,
    elapsed: Duration,
    late_ms: f64,
    late_events: u64,
    decay_ticks: u64,
    decay_scanned: u64,
    decay_ns: u64,
}

/// Inputs of the side thread, all derived from the run seed.
struct SideInputs {
    updates: UpdateStream,
    /// `temporal-window`: fresh interactions appended at the head of time.
    appends: Option<(Box<dyn Iterator<Item = Edge> + Send>, u64)>,
    reads: Vec<SampleRequest>,
}

fn side_thread(
    spec: &Spec,
    svc: &TimedService<dyn GraphService + Send + Sync>,
    decay_stores: &[&DynamicGraphStore],
    decay_registry: Option<&platod2gl::Registry>,
    mut inputs: SideInputs,
    stop: &AtomicBool,
    seed: u64,
) -> SideLog {
    let started = Instant::now();
    let mut log = SideLog {
        write_lat: SliceLog::new(started, 1 << 16).with_slice(spec.write_slice),
        read_lat: SliceLog::new(started, 1 << 18),
        write_ops_ok: 0,
        writes_failed: 0,
        reads_failed: 0,
        elapsed: Duration::ZERO,
        late_ms: 0.0,
        late_events: 0,
        decay_ticks: 0,
        decay_scanned: 0,
        decay_ns: 0,
    };
    let mut rng = StdRng::seed_from_u64(mix(seed ^ 0x5eed));
    let mut decays: Vec<RecencyDecay> = decay_stores
        .iter()
        .map(|_| {
            RecencyDecay::new(
                DecayConfig {
                    lambda: 2e-6,
                    floor: 1e-6,
                    batch_sources: DECAY_SOURCES,
                },
                decay_registry.expect("decay needs a registry"),
            )
            .expect("valid decay config")
        })
        .collect();
    let head_at_start = inputs.appends.as_ref().map_or(0, |a| a.1);
    let mut head = head_at_start;
    let mut sched = OpenLoop::new(spec.event_rate, mix(seed ^ 0xa771));
    while let Some((k, due)) = sched.wait_next(stop) {
        // One shard per decay event, round robin: every shard is ticked
        // once per `DECAY_EVERY` events.
        let shards = decays.len() as u64;
        if shards > 0 && k % (DECAY_EVERY / shards) == 1 {
            let shard = ((k / (DECAY_EVERY / shards)) % shards) as usize;
            let t = Instant::now();
            let tick = decays[shard].tick(decay_stores[shard], head);
            log.decay_ns += t.elapsed().as_nanos() as u64;
            log.decay_scanned += tick.scanned as u64;
            log.decay_ticks += 1;
        }
        if k % (1 + spec.reads_per_write) == 0 {
            let ops: Vec<UpdateOp> = match inputs.appends.as_mut() {
                Some((stream, _)) => (0..spec.write_ops / 2)
                    .flat_map(|_| {
                        head += 1;
                        let e = stream.next().expect("edge stream is long enough").at(head);
                        [UpdateOp::Insert(e), UpdateOp::Insert(e.reversed())]
                    })
                    .collect(),
                None => inputs.updates.next_batch(spec.write_ops),
            };
            match svc.apply_updates(&ops) {
                Ok(r) if r.queued_ops == 0 => log.write_ops_ok += ops.len() as u64,
                _ => log.writes_failed += 1,
            }
            log.write_lat.push(due, due.elapsed());
        } else {
            let mut req = inputs.reads[(k as usize) % inputs.reads.len()];
            if let Some(w) = req.window {
                // A read looks a fixed age behind the head of time, so the
                // share of a hub's edges inside its window holds steady
                // while the head moves on.
                let age = head_at_start - w.max_ts;
                req.window = Some(TimeWindow::until(head - age));
            }
            // Reads are timed from when they are sent: they share this
            // thread with the writes, and the queueing behind those is
            // already in the write latency.
            let sent = Instant::now();
            let resp = svc.sample_one(&req, &mut rng);
            log.read_lat.push(sent, sent.elapsed());
            if resp.degraded {
                log.reads_failed += 1;
            }
        }
    }
    log.elapsed = started.elapsed();
    (log.late_ms, log.late_events) = sched.late_summary();
    log
}

/// Sums of pipeline telemetry over the traced epochs.
#[derive(Default)]
struct PipeDelta {
    epochs: u64,
    seeds: u64,
    sample_ns: u64,
    gather_ns: u64,
    train_ns: u64,
    lookups: u64,
    hits: u64,
    distinct: u64,
    requests: u64,
    slots: u64,
}

impl PipeDelta {
    fn add(&mut self, a: &PipelineStats, b: &PipelineStats, seeds: usize) {
        let hits = |c: &CacheStats| c.hits + c.stale_hits;
        self.epochs += 1;
        self.seeds += seeds as u64;
        self.sample_ns += b.sample.sum_ns - a.sample.sum_ns;
        self.gather_ns += b.gather.sum_ns - a.gather.sum_ns;
        self.train_ns += b.train.sum_ns - a.train.sum_ns;
        self.lookups += b.cache.lookups() - a.cache.lookups();
        self.hits += hits(&b.cache) - hits(&a.cache);
        self.distinct += b.distinct_sampled - a.distinct_sampled;
        self.requests += b.cluster_requests - a.cluster_requests;
        self.slots += b.frontier_slots - a.frontier_slots;
    }
}

/// Replay `reqs` on one rung `REPLAY_PASSES` times; median ns per request.
fn replay(reqs: &[SampleRequest], mut one: impl FnMut(usize, &SampleRequest)) -> f64 {
    if reqs.is_empty() {
        return 0.0;
    }
    let mut per_req: Vec<f64> = (0..REPLAY_PASSES)
        .map(|_| {
            let t = Instant::now();
            for (i, r) in reqs.iter().enumerate() {
                one(i, r);
            }
            t.elapsed().as_nanos() as f64 / reqs.len() as f64
        })
        .collect();
    median(&mut per_req)
}

/// Checks, on the quiesced graph, that windowed k-hop sampling never
/// returns an edge newer than its seed's window. Returns the number of
/// leaked edges and the number of edges checked.
fn audit_windows(rig: &Rig, seeds: &[VertexId], times: &[u64]) -> (u64, u64) {
    let sampler = KHopSampler::new(ET, FANOUTS.to_vec());
    let cache = NeighborCache::new(CacheConfig::disabled());
    let windows: Vec<Option<TimeWindow>> =
        times.iter().map(|&t| Some(TimeWindow::until(t))).collect();
    let mut rng = StdRng::seed_from_u64(0xa0d17);
    let out = sampler.sample_block_windowed(&*rig.svc, &cache, seeds, &windows, &mut rng);
    let (mut leaks, mut checked) = (0, 0);
    // Slot j of level d+1 expands slot j / fanout of level d; the window
    // is the root seed's.
    let mut level_win: Vec<TimeWindow> = windows.iter().map(|w| w.expect("set")).collect();
    for (d, &fanout) in FANOUTS.iter().enumerate() {
        let (parents, children) = (&out.levels[d], &out.levels[d + 1]);
        for (j, &c) in children.iter().enumerate() {
            let (p, win) = (parents[j / fanout], level_win[j / fanout]);
            if c == p {
                continue; // self-padding: no in-window neighbor
            }
            checked += 1;
            let (_, store) = rig.owner(p);
            let ts = store.edge_ts(p, c, ET);
            if ts == 0 || !win.contains(ts) || store.edge_weight(p, c, ET).is_none() {
                leaks += 1;
            }
        }
        level_win = (0..children.len()).map(|j| level_win[j / fanout]).collect();
    }
    (leaks, checked)
}

pub fn run(spec: &Spec, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let stamped = spec.kind == Kind::Temporal;
    let graph = Graph::generate(INTERACTIONS, DATASET_SEED, stamped);
    let tracing = Tracing::default();

    // ---- set-up: graph load, server start and map install --------------
    let mut setup_s = Vec::new();
    let mut rig: Option<Rig> = None;
    for _ in 0..SETUP_REPS {
        // Tear the previous instance down first so only one is resident.
        if let Some(old) = rig.take() {
            old.shutdown();
        }
        let t = Instant::now();
        match setup(spec, &graph, &tracing) {
            Ok(r) => rig = Some(r),
            Err(e) => {
                out.violations.push(e);
                return out;
            }
        }
        setup_s.push(secs(t.elapsed()));
    }
    let rig = rig.expect("at least one set-up");
    let live_edges: usize = rig.clusters.iter().map(|c| c.num_edges()).sum();
    let topo_bytes: usize = rig
        .clusters
        .iter()
        .map(|c| c.memory_breakdown().samtree_bytes)
        .sum();

    // ---- inputs ---------------------------------------------------------
    let seeds: Vec<VertexId> = {
        // Hub-biased but distinct: the profile's source-popularity order.
        let mut picked = std::collections::HashSet::new();
        let mut v: Vec<VertexId> = graph
            .profile
            .sample_sources(SEEDS_PER_EPOCH * 8, mix(seed ^ 1))
            .into_iter()
            .filter(|s| picked.insert(*s))
            .take(SEEDS_PER_EPOCH)
            .collect();
        if v.len() < SEEDS_PER_EPOCH {
            v.extend(
                graph
                    .users
                    .iter()
                    .filter(|s| picked.insert(**s))
                    .take(SEEDS_PER_EPOCH - v.len()),
            );
        }
        v
    };
    let provider = TimedFeatures::new(HashFeatures::new(FEATURE_DIM, 2, seed), tracing.clone());
    let labels: Vec<usize> = seeds
        .iter()
        .map(|&v| HashFeatures::new(FEATURE_DIM, 2, seed).label(v))
        .collect();
    let mut trng = StdRng::seed_from_u64(mix(seed ^ 2));
    let seed_times: Vec<u64> = seeds
        .iter()
        .map(|_| trng.random_range(graph.head_ts / 4..graph.head_ts.max(1) + 1))
        .collect();
    let reads: Vec<SampleRequest> = graph
        .profile
        .sample_sources(4096, mix(seed ^ 3))
        .into_iter()
        .map(|v| {
            let r = SampleRequest::new(v, ET, READ_FANOUT);
            // Point reads ask for the recent past, at most a quarter of the
            // history behind the head, as a serving path would; the
            // training windows reach back three quarters. Reads reaching
            // as far back put the read tail on the few hub reads that fall
            // back to a filtered scan, and it swung with how many of those
            // a seed drew.
            if stamped {
                r.in_window(TimeWindow::until(
                    trng.random_range(graph.head_ts * 3 / 4..graph.head_ts + 1),
                ))
            } else {
                r
            }
        })
        .collect();
    let side = SideInputs {
        updates: graph.profile.update_stream(mix(seed ^ 4)),
        appends: stamped.then(|| {
            (
                Box::new(graph.profile.edge_stream(mix(seed ^ 5)))
                    as Box<dyn Iterator<Item = Edge> + Send>,
                graph.head_ts,
            )
        }),
        reads,
    };

    let pipe_cfg = PipelineConfig::builder()
        .etype(ET)
        .fanouts(FANOUTS.to_vec())
        .batch_size(BATCH)
        // Sampling runs inline on the trainer's thread: each load thread
        // has a CPU of its own (see `pin_to_cpu`), and a prefetch worker
        // would only time-share the trainer's.
        .prefetch_depth(0)
        .workers(0)
        .seed(mix(seed ^ 6))
        .build()
        .expect("valid pipeline config");
    let pipeline = TrainingPipeline::new(&*rig.svc, pipe_cfg);
    let mut net = SageNet::new(SageNetConfig {
        feature_dim: FEATURE_DIM,
        hidden_dim: HIDDEN,
        num_classes: 2,
        fanouts: FANOUTS.to_vec(),
        etype: ET,
        lr: 0.05,
        seed: mix(seed ^ 7),
    });
    let epoch = |net: &mut SageNet, e: u64| {
        if stamped {
            pipeline.run_epoch_windowed(net, &provider, &seeds, &labels, &seed_times, e)
        } else {
            pipeline.run_epoch(net, &provider, &seeds, &labels, e)
        }
    };

    // ---- warm-up: one epoch, neither counted nor timed ------------------
    let warm = epoch(&mut net, 0);
    let first_loss = warm.mean_loss;

    // ---- measurement ----------------------------------------------------
    let reg_before = rig.registries();
    let stop = AtomicBool::new(false);
    let decay_stores: Vec<&DynamicGraphStore> = if stamped {
        rig.clusters[0]
            .servers()
            .iter()
            .map(|s| s.topology())
            .collect()
    } else {
        Vec::new()
    };
    let mut epochs: Vec<EpochLog> = Vec::new();
    let mut pipe = PipeDelta::default();
    let (side_log, feature_clock) = std::thread::scope(|scope| {
        let side = scope.spawn(|| {
            // On the fleet the second CPU serves; the side thread is a
            // client and shares the first with the (lower-priority) trainer.
            pin_to_cpu(usize::from(spec.kind != Kind::Fleet));
            side_thread(
                spec,
                &rig.svc,
                &decay_stores,
                stamped.then(|| &**rig.clusters[0].obs()),
                side,
                &stop,
                seed,
            )
        });
        // The side thread was spawned first, so it keeps normal priority.
        if !run_as_background(TRAINER_NICE) {
            eprintln!("perfbench: could not lower the trainer's priority");
        }
        if !pin_to_cpu(0) {
            eprintln!("perfbench: could not pin the load threads to their own CPUs");
        }
        let started = Instant::now();
        let mut e = 1u64;
        loop {
            // Traced runs alternate untraced and traced epochs, so both
            // see the same drift in graph state.
            let traced = trace && e.is_multiple_of(2);
            tracing.set(traced);
            let before = traced.then(|| pipeline.stats());
            let r = epoch(&mut net, e);
            if let Some(before) = before {
                pipe.add(&before, &pipeline.stats(), seeds.len());
            }
            epochs.push(EpochLog {
                seeds: seeds.len(),
                elapsed: r.elapsed,
                loss: r.mean_loss,
                batches: r.batches,
                degraded: r.degraded_batches,
                traced,
            });
            e += 1;
            let both_modes = !trace || e > 2;
            if started.elapsed().as_secs_f64() >= seconds && both_modes {
                break;
            }
        }
        tracing.set(false);
        stop.store(true, Ordering::Relaxed);
        let log = side.join().expect("side thread panicked");
        (log, provider.gather.read())
    });
    let reg_after = rig.registries();
    let peak_rss = peak_rss_mb();

    // ---- correctness ----------------------------------------------------
    let last_loss = epochs.last().map_or(f64::NAN, |e| e.loss);
    out.check(
        epochs.iter().all(|e| e.loss.is_finite()) && first_loss.is_finite(),
        || "training loss is not finite".into(),
    );
    out.check(last_loss < first_loss, || {
        format!("last epoch loss {last_loss:.5} is not below the first epoch's {first_loss:.5}")
    });
    if stamped {
        let n = seeds.len().min(512);
        let (leaks, checked) = audit_windows(&rig, &seeds[..n], &seed_times[..n]);
        out.notes.push(format!(
            "window audit: {checked} sampled edges checked, {leaks} outside their seed's window"
        ));
        out.check(leaks == 0 && checked > 0, || {
            format!("{leaks} of {checked} sampled edges are newer than their seed's window")
        });
    }

    // ---- end-to-end metrics ----------------------------------------------
    let degraded: u64 = epochs.iter().map(|e| e.degraded).sum();
    let batches: u64 = epochs.iter().map(|e| e.batches).sum();
    out.attempted = batches + side_log.write_lat.len() as u64 + side_log.read_lat.len() as u64;
    out.failed = degraded + side_log.writes_failed + side_log.reads_failed;
    // The upper quartile over epochs: the rate in the host's fast phase
    // (see `QUIET`), which a transient stall of the box does not move.
    let sps = |traced: bool| {
        let mut per_epoch: Vec<f64> = epochs
            .iter()
            .filter(|e| e.traced == traced)
            .map(|e| ratio(e.seeds as f64, secs(e.elapsed)))
            .collect();
        quantile(&mut per_epoch, 1.0 - QUIET)
    };
    let w = side_log
        .write_lat
        .summary(side_log.elapsed, spec.write_tail_pct);
    let r = side_log.read_lat.summary(side_log.elapsed, READ_TAIL_PCT);
    out.e2e("setup_s", median(&mut setup_s), "s");
    out.e2e("seeds_per_s", sps(false), "seeds/s");
    out.e2e(
        "write_ops_per_s",
        ratio(side_log.write_ops_ok as f64, secs(side_log.elapsed)),
        "ops/s",
    );
    out.e2e("write_p50_ms", secs(w.p50) * 1e3, "ms");
    out.e2e("write_tail_ms", secs(w.tail) * 1e3, "ms");
    out.e2e("read_p50_us", secs(r.p50) * 1e6, "us");
    out.e2e("read_tail_us", secs(r.tail) * 1e6, "us");
    out.e2e(
        "topo_bytes_per_edge",
        ratio(topo_bytes as f64, live_edges as f64),
        "B/edge",
    );
    out.e2e("peak_rss_mb", peak_rss, "MiB");
    out.notes.push(format!(
        "{} measured epochs of {} seeds, loss {first_loss:.4} -> {last_loss:.4}; {} live edges",
        epochs.len(),
        seeds.len(),
        live_edges
    ));
    out.notes
        .push(slice_note("writes", &w, spec.write_tail_pct));
    out.notes.push(slice_note("reads", &r, READ_TAIL_PCT));

    // ---- per-layer metrics (traced run) ----------------------------------
    if trace {
        layer_metrics(
            &mut out,
            &rig,
            &pipe,
            &side_log,
            feature_clock,
            &reg_before,
            &reg_after,
        );
        out.layer(
            "obs.tracing_overhead",
            ratio(sps(true), sps(false)),
            "ratio",
        );
    }
    rig.shutdown();
    out
}

#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    out: &mut Outcome,
    rig: &Rig,
    pipe: &PipeDelta,
    side: &SideLog,
    features: ClockReading,
    before: &[ObsSnapshot],
    after: &[ObsSnapshot],
) {
    let epochs = pipe.epochs.max(1) as f64;
    out.layer(
        "pipeline.sample_s",
        pipe.sample_ns as f64 / 1e9 / epochs,
        "s/epoch",
    );
    out.layer(
        "pipeline.gather_s",
        pipe.gather_ns as f64 / 1e9 / epochs,
        "s/epoch",
    );
    out.layer(
        "pipeline.train_s",
        pipe.train_ns as f64 / 1e9 / epochs,
        "s/epoch",
    );
    out.layer(
        "pipeline.cache_hit_ratio",
        ratio(pipe.hits as f64, pipe.lookups as f64),
        "ratio",
    );
    out.layer(
        "pipeline.dedup_ratio",
        ratio(pipe.distinct as f64, pipe.slots as f64),
        "ratio",
    );
    out.layer(
        "pipeline.requests_per_seed",
        ratio(pipe.requests as f64, pipe.seeds as f64),
        "req/seed",
    );
    out.layer(
        "gnn.gather_ns_per_vertex",
        features.ns_per_unit(),
        "ns/vertex",
    );

    // The server layer: the wrapped `Cluster` locally, the wrapped
    // `FleetNode`s behind the RPC servers on the fleet.
    let client = (rig.svc.sample.read(), rig.svc.apply.read());
    let (server_sample, server_apply) = if rig.nodes.is_empty() {
        client
    } else {
        rig.nodes.iter().fold(
            (ClockReading::default(), ClockReading::default()),
            |(s, a), n| (s + n.sample.read(), a + n.apply.read()),
        )
    };
    out.layer("server.sample_calls", server_sample.calls as f64, "calls");
    out.layer(
        "server.sample_ns_per_req",
        server_sample.ns_per_unit(),
        "ns/req",
    );
    out.layer("server.apply_ops", server_apply.units as f64, "ops");
    out.layer(
        "server.apply_ns_per_op",
        server_apply.ns_per_unit(),
        "ns/op",
    );

    // Storage ladder: the recorded requests replayed on the owning shard
    // stores and on the owning `Cluster`, identical inputs on every rung.
    let recorded = rig.svc.recorded();
    let windowed = recorded.iter().any(|r| r.window.is_some());
    let seed_of = |i: usize| StdRng::seed_from_u64(mix(i as u64 ^ 0x7e91a7));
    let cluster_ns = replay(&recorded, |i, r| {
        let (c, _) = rig.owner(r.vertex);
        std::hint::black_box(c.sample(r, &mut seed_of(i)));
    });
    let unwindowed_ns = replay(&recorded, |i, r| {
        let (_, s) = rig.owner(r.vertex);
        std::hint::black_box(s.sample_neighbors_windowed(
            r.vertex,
            r.etype,
            r.fanout,
            None,
            &mut seed_of(i),
        ));
    });
    let windowed_ns = if windowed {
        replay(&recorded, |i, r| {
            let (_, s) = rig.owner(r.vertex);
            std::hint::black_box(s.sample_neighbors_windowed(
                r.vertex,
                r.etype,
                r.fanout,
                r.window,
                &mut seed_of(i),
            ));
        })
    } else {
        0.0
    };
    out.layer("storage.sample_ns_per_req", unwindowed_ns, "ns/req");
    out.layer("storage.sample_windowed_ns_per_req", windowed_ns, "ns/req");
    out.layer(
        "storage.window_slowdown",
        ratio(windowed_ns, unwindowed_ns),
        "ratio",
    );
    out.layer("server.replay_ns_per_req", cluster_ns, "ns/req");
    out.notes.push(format!(
        "storage ladder: {} recorded requests replayed",
        recorded.len()
    ));

    store_layer_metrics(out, before, after);

    // RPC and fleet.
    if !rig.nodes.is_empty() {
        let (client_sample, client_apply) = client;
        out.layer(
            "rpc.overhead_ns_per_req",
            client_sample.ns_per_unit() - server_sample.ns_per_unit(),
            "ns/req",
        );
        let (qn, qs) = hist_delta(before, after, "rpc.server.queue_wait_ns");
        out.layer(
            "rpc.server_queue_wait_ns",
            ratio(qs as f64, qn as f64),
            "ns/frame",
        );
        out.layer(
            "fleet.replica_fanouts",
            counter_delta(before, after, "fleet.node.replica_fanouts") as f64,
            "count",
        );
        out.layer(
            "fleet.replica_errors",
            counter_delta(before, after, "fleet.node.replica_errors") as f64,
            "count",
        );
        out.layer(
            "fleet.relayed_ops",
            counter_delta(before, after, "fleet.node.relayed_ops") as f64,
            "ops",
        );
        out.layer(
            "fleet.apply_overhead_ns_per_op",
            client_apply.ns_per_unit() - server_apply.ns_per_unit(),
            "ns/op",
        );
        let replica = rig
            .nodes
            .iter()
            .fold(ClockReading::default(), |a, n| a + n.replica_apply.read());
        out.layer(
            "fleet.replica_apply_ns_per_op",
            replica.ns_per_unit(),
            "ns/op",
        );
    }

    // Temporal maintenance.
    out.layer(
        "temporal.decay_ns_per_edge",
        ratio(side.decay_ns as f64, side.decay_scanned as f64),
        "ns/edge",
    );
    out.layer(
        "temporal.decay_edges_per_tick",
        ratio(side.decay_scanned as f64, side.decay_ticks as f64),
        "edges/tick",
    );
    out.layer("writer.late_ms", side.late_ms, "ms");
    out.layer("writer.late_writes", side.late_events as f64, "count");
}
