//! Pass-through timing wrappers placed between a caller and a layer.
//!
//! [`TimedService`] wraps any [`GraphService`] and [`TimedFeatures`] any
//! [`FeatureProvider`]. Every trait method forwards unchanged — including
//! the fleet-plane defaults that `FleetNode` overrides — so a wrapped stack
//! samples, trains and replicates bit-identically to an unwrapped one.
//! While the shared [`Tracing`] switch is on, each call adds its count and
//! wall time to a [`Clock`]; while it is off the wrapper costs one relaxed
//! load per call.

use crate::common::ratio;
use platod2gl::{
    BatchReport, Error, FeatureProvider, GraphService, GraphTxn, PartitionChunk, Registry,
    SampleRequest, SampleResponse, ShardHealth, TxnError, TxnReceipt, UpdateOp, VertexId,
};
use rand::RngCore;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The on/off switch every wrapper of one run shares.
#[derive(Clone, Debug, Default)]
pub struct Tracing(Arc<AtomicBool>);

impl Tracing {
    pub fn set(&self, on: bool) {
        self.0.store(on, Ordering::Relaxed);
    }

    pub fn on(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// Calls, units of work (requests, ops, vertices) and nanoseconds spent
/// inside one layer entry point.
#[derive(Debug, Default)]
pub struct Clock {
    calls: AtomicU64,
    units: AtomicU64,
    ns: AtomicU64,
}

/// A point-in-time copy of a [`Clock`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ClockReading {
    pub calls: u64,
    pub units: u64,
    pub ns: u64,
}

impl ClockReading {
    /// Nanoseconds per unit of work, 0 when no work was recorded.
    pub fn ns_per_unit(&self) -> f64 {
        ratio(self.ns as f64, self.units as f64)
    }
}

impl std::ops::Add for ClockReading {
    type Output = ClockReading;
    fn add(self, o: ClockReading) -> ClockReading {
        ClockReading {
            calls: self.calls + o.calls,
            units: self.units + o.units,
            ns: self.ns + o.ns,
        }
    }
}

impl Clock {
    fn record(&self, units: usize, started: Instant) {
        let ns = started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.units.fetch_add(units as u64, Ordering::Relaxed);
        self.ns.fetch_add(ns, Ordering::Relaxed);
    }

    pub fn read(&self) -> ClockReading {
        ClockReading {
            calls: self.calls.load(Ordering::Relaxed),
            units: self.units.load(Ordering::Relaxed),
            ns: self.ns.load(Ordering::Relaxed),
        }
    }
}

/// Times `f` into `clock` when tracing is on; plain call otherwise.
fn timed<T>(tracing: &Tracing, clock: &Clock, units: usize, f: impl FnOnce() -> T) -> T {
    if !tracing.on() {
        return f();
    }
    let started = Instant::now();
    let out = f();
    clock.record(units, started);
    out
}

/// A [`GraphService`] that forwards to `inner` and times the sampling and
/// write entry points. It also keeps the first `record_cap` sample
/// requests seen while tracing, so they can be replayed on lower layers.
pub struct TimedService<S: ?Sized> {
    inner: Arc<S>,
    tracing: Tracing,
    /// `sample_one` / `sample_many`; units are requests.
    pub sample: Clock,
    /// First-hand `apply_updates`; units are ops.
    pub apply: Clock,
    /// `apply_replica_updates` (fleet replication channel); units are ops.
    pub replica_apply: Clock,
    /// `apply_txn` and `apply_replica_txn`; units are typed ops.
    pub txn: Clock,
    record_cap: usize,
    recorded: Mutex<Vec<SampleRequest>>,
}

impl<S: GraphService + ?Sized> TimedService<S> {
    pub fn new(inner: Arc<S>, tracing: Tracing, record_cap: usize) -> Self {
        Self {
            inner,
            tracing,
            sample: Clock::default(),
            apply: Clock::default(),
            replica_apply: Clock::default(),
            txn: Clock::default(),
            record_cap,
            recorded: Mutex::new(Vec::new()),
        }
    }

    pub fn inner(&self) -> &Arc<S> {
        &self.inner
    }

    /// The sample requests recorded so far (at most `record_cap`).
    pub fn recorded(&self) -> Vec<SampleRequest> {
        self.recorded
            .lock()
            .expect("recorder lock poisoned")
            .clone()
    }

    fn record(&self, reqs: &[SampleRequest]) {
        if self.record_cap == 0 || !self.tracing.on() {
            return;
        }
        let mut rec = self.recorded.lock().expect("recorder lock poisoned");
        let room = self.record_cap.saturating_sub(rec.len());
        rec.extend_from_slice(&reqs[..room.min(reqs.len())]);
    }
}

impl<S: GraphService + Send + Sync + ?Sized> GraphService for TimedService<S> {
    fn sample_one(&self, req: &SampleRequest, rng: &mut dyn RngCore) -> SampleResponse {
        self.record(std::slice::from_ref(req));
        timed(&self.tracing, &self.sample, 1, || {
            self.inner.sample_one(req, rng)
        })
    }

    fn sample_many(&self, reqs: &[SampleRequest], rng: &mut dyn RngCore) -> Vec<SampleResponse> {
        self.record(reqs);
        timed(&self.tracing, &self.sample, reqs.len(), || {
            self.inner.sample_many(reqs, rng)
        })
    }

    fn apply_updates(&self, ops: &[UpdateOp]) -> Result<BatchReport, Error> {
        timed(&self.tracing, &self.apply, ops.len(), || {
            self.inner.apply_updates(ops)
        })
    }

    fn apply_txn(&self, txn: &GraphTxn) -> Result<TxnReceipt, TxnError> {
        timed(&self.tracing, &self.txn, txn.len(), || {
            self.inner.apply_txn(txn)
        })
    }

    fn graph_version(&self) -> u64 {
        self.inner.graph_version()
    }

    fn num_shards(&self) -> usize {
        self.inner.num_shards()
    }

    fn shard_healths(&self) -> Vec<ShardHealth> {
        self.inner.shard_healths()
    }

    fn heal(&self, shard: usize) -> usize {
        self.inner.heal(shard)
    }

    fn registry(&self) -> &Arc<Registry> {
        self.inner.registry()
    }

    fn apply_replica_updates(&self, ops: &[UpdateOp]) -> Result<BatchReport, Error> {
        timed(&self.tracing, &self.replica_apply, ops.len(), || {
            self.inner.apply_replica_updates(ops)
        })
    }

    fn apply_replica_txn(&self, txn: &GraphTxn) -> Result<TxnReceipt, TxnError> {
        timed(&self.tracing, &self.txn, txn.len(), || {
            self.inner.apply_replica_txn(txn)
        })
    }

    fn fleet_map_bytes(&self) -> Option<(u64, Vec<u8>)> {
        self.inner.fleet_map_bytes()
    }

    fn install_fleet_map(&self, epoch: u64, bytes: &[u8]) -> Result<u64, Error> {
        self.inner.install_fleet_map(epoch, bytes)
    }

    fn begin_migration(&self, partition: u32, num_partitions: u32) -> Result<u64, Error> {
        self.inner.begin_migration(partition, num_partitions)
    }

    fn migration_tail(&self, partition: u32, from_seq: u64) -> Result<(Vec<UpdateOp>, u64), Error> {
        self.inner.migration_tail(partition, from_seq)
    }

    fn end_migration(&self, partition: u32) -> Result<u64, Error> {
        self.inner.end_migration(partition)
    }

    fn export_partition(
        &self,
        partition: u32,
        num_partitions: u32,
        cursor: Option<(u64, u16)>,
        max_edges: usize,
    ) -> Result<PartitionChunk, Error> {
        self.inner
            .export_partition(partition, num_partitions, cursor, max_edges)
    }

    fn partition_key_counts(&self, num_partitions: u32) -> Vec<u64> {
        self.inner.partition_key_counts(num_partitions)
    }
}

/// A [`FeatureProvider`] that forwards to `inner` and times one feature
/// write in every [`FEATURE_SAMPLE`] (units are vertices): a single write
/// costs about as much as reading the clock twice, so timing every call
/// would double the gather stage it measures.
pub struct TimedFeatures<P> {
    inner: P,
    tracing: Tracing,
    writes: AtomicU64,
    /// The sampled writes.
    pub gather: Clock,
}

/// One in this many feature writes is timed.
pub const FEATURE_SAMPLE: u64 = 16;

impl<P: FeatureProvider> TimedFeatures<P> {
    pub fn new(inner: P, tracing: Tracing) -> Self {
        Self {
            inner,
            tracing,
            writes: AtomicU64::new(0),
            gather: Clock::default(),
        }
    }
}

impl<P: FeatureProvider> FeatureProvider for TimedFeatures<P> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn write_feature(&self, v: VertexId, out: &mut [f64]) {
        if self.tracing.on()
            && self
                .writes
                .fetch_add(1, Ordering::Relaxed)
                .is_multiple_of(FEATURE_SAMPLE)
        {
            let started = Instant::now();
            self.inner.write_feature(v, out);
            self.gather.record(1, started);
        } else {
            self.inner.write_feature(v, out);
        }
    }
}
