//! The timing wrappers must be invisible: with a fixed seed and no writer,
//! a wrapped stack samples and trains bit-identically to an unwrapped one,
//! and every `GraphService` method — the fleet-plane ones included —
//! reaches the wrapped service's own implementation.

use platod2gl::{
    CacheConfig, Cluster, ClusterConfig, Edge, EdgeType, FleetNode, GraphService, HashFeatures,
    KHopSampler, NeighborCache, PartitionMap, PipelineConfig, RemoteClusterConfig, SageNet,
    SageNetConfig, ServerEntry, TrainingPipeline, UpdateOp, VertexId,
};
use platod2gl_perfbench::common::Graph;
use platod2gl_perfbench::timed::{TimedFeatures, TimedService, Tracing};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

const ET: EdgeType = EdgeType::DEFAULT;

fn loaded_cluster(graph: &Graph) -> Arc<Cluster> {
    let cluster = Arc::new(Cluster::new(
        ClusterConfig::builder()
            .num_shards(4)
            .build()
            .expect("valid config"),
    ));
    cluster
        .apply_batch_sharded(&graph.insert_ops())
        .expect("load applies");
    cluster
}

fn pipe_cfg() -> PipelineConfig {
    PipelineConfig::builder()
        .etype(ET)
        .fanouts(vec![10, 5])
        .batch_size(64)
        .prefetch_depth(2)
        .workers(1)
        .seed(11)
        .build()
        .expect("valid pipeline config")
}

fn net() -> SageNet {
    SageNet::new(SageNetConfig {
        feature_dim: 16,
        hidden_dim: 8,
        num_classes: 2,
        fanouts: vec![10, 5],
        etype: ET,
        lr: 0.05,
        seed: 5,
    })
}

/// Loss bits of three epochs, plus one k-hop block's levels.
fn run<S: GraphService>(
    svc: &S,
    provider: &dyn platod2gl::FeatureProvider,
    graph: &Graph,
) -> (Vec<u64>, Vec<Vec<VertexId>>) {
    let seeds: Vec<VertexId> = graph.users.iter().copied().take(512).collect();
    let labels: Vec<usize> = seeds
        .iter()
        .map(|&v| HashFeatures::new(16, 2, 3).label(v))
        .collect();
    let pipeline = TrainingPipeline::new(svc, pipe_cfg());
    let mut net = net();
    let losses = (0..3)
        .map(|e| {
            pipeline
                .run_epoch(&mut net, provider, &seeds, &labels, e)
                .mean_loss
                .to_bits()
        })
        .collect();
    let block = KHopSampler::new(ET, vec![10, 5]).sample_block(
        svc,
        &NeighborCache::new(CacheConfig::disabled()),
        &seeds[..128],
        &mut StdRng::seed_from_u64(9),
    );
    (losses, block.levels)
}

#[test]
fn wrapped_and_unwrapped_runs_are_bit_identical() {
    let graph = Graph::generate(20_000, 42, false);
    let plain = run(
        &*loaded_cluster(&graph),
        &HashFeatures::new(16, 2, 3),
        &graph,
    );

    let tracing = Tracing::default();
    tracing.set(true);
    let inner: Arc<dyn GraphService + Send + Sync> = loaded_cluster(&graph);
    let wrapped_svc = TimedService::new(inner, tracing.clone(), 256);
    let features = TimedFeatures::new(HashFeatures::new(16, 2, 3), tracing.clone());
    let wrapped = run(&wrapped_svc, &features, &graph);

    assert_eq!(plain.0, wrapped.0, "losses differ");
    assert_eq!(plain.1, wrapped.1, "k-hop samples differ");
    // The wrappers did record while staying invisible.
    assert!(wrapped_svc.sample.read().units > 0);
    assert!(features.gather.read().units > 0);
    assert_eq!(wrapped_svc.recorded().len(), 256);
}

#[test]
fn fleet_plane_methods_reach_the_wrapped_node() {
    let cluster = Arc::new(Cluster::new(
        ClusterConfig::builder()
            .num_shards(2)
            .build()
            .expect("valid config"),
    ));
    let node = Arc::new(FleetNode::new(
        Arc::clone(&cluster),
        1,
        RemoteClusterConfig::default(),
    ));
    let map = PartitionMap::build(
        vec![ServerEntry {
            id: 1,
            addr: "127.0.0.1:1".into(),
        }],
        8,
    )
    .expect("valid map");
    node.install(map);
    let tracing = Tracing::default();
    tracing.set(true);
    let wrapped = TimedService::new(Arc::clone(&node), tracing, 0);

    // Defaults would answer `None` / an error / zeros.
    assert_eq!(wrapped.fleet_map_bytes(), node.fleet_map_bytes());
    assert!(wrapped.fleet_map_bytes().is_some());
    assert!(wrapped.begin_migration(0, 8).is_ok());
    assert!(wrapped.end_migration(0).is_ok());

    // The replica channel is version-silent on a `FleetNode`; the default
    // (first-hand apply) would bump the version.
    let version = wrapped.graph_version();
    let op = UpdateOp::Insert(Edge::new(VertexId(1), VertexId(2), 1.0));
    wrapped.apply_replica_updates(&[op]).expect("applies");
    assert_eq!(wrapped.graph_version(), version);
    assert_eq!(cluster.shard_edge_counts().iter().sum::<usize>(), 1);
    assert_eq!(wrapped.replica_apply.read().units, 1);
    assert_eq!(
        wrapped.partition_key_counts(8),
        node.partition_key_counts(8)
    );
    assert_eq!(wrapped.partition_key_counts(8).iter().sum::<u64>(), 1);
}

#[test]
fn benchmark_json_names_the_metrics_the_command_prints() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    for name in platod2gl_perfbench::END_TO_END {
        assert!(
            text.contains(&format!("\"name\": \"{name}\"")),
            "{name} missing"
        );
    }
    for (name, unit) in platod2gl_perfbench::PER_LAYER {
        assert!(
            text.contains(&format!(
                "\"name\": \"{name}\",\n      \"unit\": \"{unit}\""
            )),
            "{name} ({unit}) missing"
        );
    }
    for name in platod2gl_perfbench::WORKLOADS {
        assert!(
            text.contains(&format!("\"name\": \"{name}\"")),
            "{name} missing"
        );
    }
}
