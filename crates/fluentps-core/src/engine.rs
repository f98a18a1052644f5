//! Threaded in-process runtime: one thread per server shard, worker clients
//! on the caller's threads. Each server thread runs the crate's one server
//! loop (the `serve` module, which the TCP runtimes run too) over the
//! in-process fabric, without its recovery part.
//!
//! Overlap synchronization (Section III-D) is not a special code path — it
//! *falls out* of this architecture: every server answers pulls for its own
//! shard the moment its own push condition fires, so the push of one shard
//! overlaps the pulls of another. The non-overlap behaviour of PS-Lite (a
//! scheduler-level global barrier across all shards) is implemented in
//! `fluentps-baseline` for comparison.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::thread::JoinHandle;

use fluentps_obs::{
    http, HealthEngine, HealthTap, IntrospectionServer, MetricsRegistry, ProfCollector,
    StreamConfig, TraceCollector, TraceSource,
};

use fluentps_transport::inproc::{Endpoint, Fabric, InprocPostman};
use fluentps_transport::NodeId;

use crate::dpr::DprPolicy;
use crate::eps::SliceMap;
use crate::serve::{self, ServerLoop};
use crate::server::GradScale;
use crate::stats::ShardStats;
use crate::worker::{Router, WorkerClient};
use crate::SyncModel;

/// Configuration of an in-process cluster.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Number of workers (`N`).
    pub num_workers: u32,
    /// Number of servers (`M`).
    pub num_servers: u32,
    /// Synchronization model applied on every shard. (Per-shard models are
    /// possible through [`Cluster::launch_heterogeneous`].)
    pub model: SyncModel,
    /// DPR execution policy.
    pub policy: DprPolicy,
    /// Gradient aggregation rule.
    pub grad_scale: GradScale,
    /// Seed for the servers' probability draws (PSSP); each server derives
    /// its own stream.
    pub seed: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            num_workers: 1,
            num_servers: 1,
            model: SyncModel::Bsp,
            policy: DprPolicy::LazyExecution,
            grad_scale: GradScale::DivideByN,
            seed: 0,
        }
    }
}

/// Handle to a running in-process cluster.
pub struct Cluster {
    fabric: Fabric,
    servers: Vec<(u32, JoinHandle<ShardStats>)>,
    num_servers: u32,
    // Live health engine + the tap feeding it from the run's collector,
    // when launched introspected; the tap drains and the engine is
    // finalized at shutdown.
    health: Option<(HealthEngine, HealthTap)>,
    // Span-profile collector, when launched introspected: server loops and
    // worker clients profile into it, and `/profile` serves its snapshots.
    prof: Option<ProfCollector>,
}

/// The worker client type served by the in-process engine.
pub type InprocWorker = WorkerClient<InprocPostman, Endpoint>;

impl Cluster {
    /// Launch servers and build one [`WorkerClient`] per worker. `init` maps
    /// original parameter keys to initial values (`w_0`); `map` decides the
    /// placement.
    pub fn launch(
        cfg: EngineConfig,
        map: SliceMap,
        init: &HashMap<u64, Vec<f32>>,
    ) -> (Cluster, Vec<InprocWorker>) {
        let models = vec![cfg.model; cfg.num_servers as usize];
        Self::launch_heterogeneous(cfg, models, map, init)
    }

    /// [`Cluster::launch`] with a [`TraceCollector`]: every server shard and
    /// worker client records trace events (wall clock) into `collector`.
    pub fn launch_with_collector(
        cfg: EngineConfig,
        map: SliceMap,
        init: &HashMap<u64, Vec<f32>>,
        collector: &TraceCollector,
    ) -> (Cluster, Vec<InprocWorker>) {
        let models = vec![cfg.model; cfg.num_servers as usize];
        Self::launch_inner(cfg, models, map, init, Some(collector), None)
    }

    /// [`Cluster::launch_with_collector`] plus a live introspection
    /// endpoint: `registry` is served at `addr` as Prometheus text on
    /// `/metrics`, next to `/healthz` and `/trace` (the collector's live
    /// JSONL tail). Cluster-shape gauges are published into `registry` at
    /// launch. Bind loopback (`127.0.0.1:0`) unless the endpoint is
    /// deliberately exposed. The endpoint outlives the cluster until the
    /// returned [`IntrospectionServer`] is stopped or dropped.
    ///
    /// A streaming [`HealthEngine`] with the default alert rules is fed
    /// from `collector` for the lifetime of the run, so the endpoint also
    /// serves `/slo` and `/alerts`; [`Cluster::health_engine`] exposes the
    /// same engine in-process. The engine is finalized (last window closed,
    /// state frozen) by [`Cluster::shutdown`].
    pub fn launch_introspected(
        cfg: EngineConfig,
        map: SliceMap,
        init: &HashMap<u64, Vec<f32>>,
        collector: &TraceCollector,
        registry: &MetricsRegistry,
        addr: SocketAddr,
    ) -> std::io::Result<(Cluster, Vec<InprocWorker>, IntrospectionServer)> {
        let models = vec![cfg.model; cfg.num_servers as usize];
        let prof = ProfCollector::wall();
        let (mut cluster, workers) =
            Self::launch_inner(cfg, models, map, init, Some(collector), Some(&prof));
        publish_cluster_gauges(registry, "threaded", cfg.num_workers, cfg.num_servers);
        let engine = HealthEngine::with_default_rules(StreamConfig::default());
        let tap = engine.attach_to(collector, std::time::Duration::from_millis(20));
        let server = http::serve_profiled(
            addr,
            registry.clone(),
            Some(TraceSource::Local(collector.clone())),
            None,
            Some(engine.clone()),
            Some(prof.clone()),
        )?;
        cluster.health = Some((engine, tap));
        cluster.prof = Some(prof);
        Ok((cluster, workers, server))
    }

    /// The span-profile collector attached by
    /// [`Cluster::launch_introspected`] (`None` for the other launch paths).
    /// Snapshot it any time — including mid-run — for folded-stack or
    /// speedscope exports of where server and worker threads spend time.
    pub fn prof_collector(&self) -> Option<&ProfCollector> {
        self.prof.as_ref()
    }

    /// The live [`HealthEngine`] attached by [`Cluster::launch_introspected`]
    /// (`None` for the other launch paths).
    pub fn health_engine(&self) -> Option<&HealthEngine> {
        self.health.as_ref().map(|(engine, _)| engine)
    }

    /// Like [`Cluster::launch`] but with a per-server synchronization model —
    /// the paper's headline flexibility: "each parameter server can choose
    /// the adaptive synchronization model to update its parameter shard".
    pub fn launch_heterogeneous(
        cfg: EngineConfig,
        models: Vec<SyncModel>,
        map: SliceMap,
        init: &HashMap<u64, Vec<f32>>,
    ) -> (Cluster, Vec<InprocWorker>) {
        Self::launch_inner(cfg, models, map, init, None, None)
    }

    /// [`Cluster::launch_heterogeneous`] with a [`TraceCollector`] attached,
    /// so per-shard models and tracing compose.
    pub fn launch_heterogeneous_with_collector(
        cfg: EngineConfig,
        models: Vec<SyncModel>,
        map: SliceMap,
        init: &HashMap<u64, Vec<f32>>,
        collector: &TraceCollector,
    ) -> (Cluster, Vec<InprocWorker>) {
        Self::launch_inner(cfg, models, map, init, Some(collector), None)
    }

    fn launch_inner(
        cfg: EngineConfig,
        models: Vec<SyncModel>,
        map: SliceMap,
        init: &HashMap<u64, Vec<f32>>,
        collector: Option<&TraceCollector>,
        prof: Option<&ProfCollector>,
    ) -> (Cluster, Vec<InprocWorker>) {
        assert_eq!(map.num_servers(), cfg.num_servers, "map/server mismatch");
        assert_eq!(models.len(), cfg.num_servers as usize);
        let fabric = Fabric::new();

        // Register workers first so servers can respond from the start.
        let mut worker_endpoints = Vec::with_capacity(cfg.num_workers as usize);
        for n in 0..cfg.num_workers {
            worker_endpoints.push(fabric.register(NodeId::Worker(n)));
        }

        let mut servers = Vec::with_capacity(cfg.num_servers as usize);
        for m in 0..cfg.num_servers {
            let endpoint = fabric.register(NodeId::Server(m));
            let server = ServerLoop::launch(
                &cfg,
                models[m as usize],
                m,
                &map,
                init,
                collector.map(|c| c.tracer()).unwrap_or_default(),
                prof.map(|p| p.profiler()).unwrap_or_default(),
            );
            let postman = endpoint.postman();
            let handle = server.spawn(format!("fluentps-server-{m}"), endpoint, postman, (), None);
            servers.push((m, handle));
        }

        let router = Router::new(map);
        let workers = worker_endpoints
            .into_iter()
            .enumerate()
            .map(|(n, ep)| {
                let postman = ep.postman();
                let mut w = WorkerClient::new(n as u32, postman, ep, router.clone());
                if let Some(c) = collector {
                    w.set_tracer(c.tracer());
                }
                if let Some(p) = prof {
                    w.set_profiler(p.profiler());
                }
                w
            })
            .collect();

        (
            Cluster {
                fabric,
                servers,
                num_servers: cfg.num_servers,
                health: None,
                prof: None,
            },
            workers,
        )
    }

    /// Send shutdown to every server, join their threads and return their
    /// per-shard statistics (index = server id).
    pub fn shutdown(self) -> Vec<ShardStats> {
        // A synthetic scheduler identity delivers the shutdown.
        let ctl = self.fabric.register(NodeId::Scheduler);
        let stats = serve::drain(&ctl.postman(), self.num_servers, self.servers, None);
        // Drain the last recorded events into the health engine, then close
        // its final window so `/slo` reflects the completed run.
        if let Some((engine, tap)) = self.health {
            tap.stop();
            engine.finish();
        }
        stats
    }
}

/// Static cluster-shape gauges every introspected engine publishes, so a
/// bare `/metrics` scrape identifies what is running before any traffic.
pub(crate) fn publish_cluster_gauges(
    registry: &MetricsRegistry,
    engine: &str,
    workers: u32,
    servers: u32,
) {
    let scope = registry.scope().with("engine", engine);
    scope.set_gauge("cluster_workers", workers as f64);
    scope.set_gauge("cluster_servers", servers as f64);
    scope.set_gauge("cluster_up", 1.0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eps::{EpsSlicer, ParamSpec, Slicer};
    use fluentps_obs::EventKind;

    fn model_params() -> (Vec<ParamSpec>, HashMap<u64, Vec<f32>>) {
        let specs = vec![ParamSpec { key: 0, len: 8 }, ParamSpec { key: 1, len: 4 }];
        let mut init = HashMap::new();
        init.insert(0, vec![0.0; 8]);
        init.insert(1, vec![0.0; 4]);
        (specs, init)
    }

    #[test]
    fn bsp_cluster_runs_lockstep_iterations() {
        let (specs, init) = model_params();
        let map = EpsSlicer { max_chunk: 4 }.slice(&specs, 2);
        let cfg = EngineConfig {
            num_workers: 2,
            num_servers: 2,
            model: SyncModel::Bsp,
            ..EngineConfig::default()
        };
        let (cluster, mut workers) = Cluster::launch(cfg, map, &init);

        let mut grads = HashMap::new();
        grads.insert(0u64, vec![1.0f32; 8]);
        grads.insert(1u64, vec![2.0f32; 4]);

        // Run both workers in lockstep from two threads (BSP requires it).
        let handles: Vec<_> = workers
            .drain(..)
            .map(|mut w| {
                let grads = grads.clone();
                std::thread::spawn(move || {
                    let mut params = HashMap::new();
                    for i in 0..3u64 {
                        w.spush(i, &grads).unwrap();
                        let report = w.spull_wait(i, &mut params).unwrap();
                        assert_eq!(report.responses, 2);
                        assert!(report.min_version > i);
                    }
                    params
                })
            })
            .collect();
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // After 3 iterations with 2 workers pushing 1.0 each: w = 3·(2·1/2) = 3.
        for params in &results {
            assert_eq!(params[&0], vec![3.0; 8]);
            assert_eq!(params[&1], vec![6.0; 4]);
        }
        let stats = cluster.shutdown();
        assert_eq!(stats.len(), 2);
        let total_pushes: u64 = stats.iter().map(|s| s.pushes).sum();
        assert_eq!(total_pushes, 2 * 3 * 2); // 2 workers × 3 iters × 2 servers
    }

    #[test]
    fn heterogeneous_models_per_server() {
        let (specs, init) = model_params();
        let map = EpsSlicer { max_chunk: 4 }.slice(&specs, 2);
        let cfg = EngineConfig {
            num_workers: 1,
            num_servers: 2,
            ..EngineConfig::default()
        };
        let (cluster, mut workers) = Cluster::launch_heterogeneous(
            cfg,
            vec![SyncModel::Asp, SyncModel::Ssp { s: 5 }],
            map,
            &init,
        );
        let mut w = workers.pop().unwrap();
        let grads: HashMap<u64, Vec<f32>> =
            [(0u64, vec![0.5f32; 8]), (1u64, vec![0.5f32; 4])].into();
        let mut params = HashMap::new();
        for i in 0..4u64 {
            w.spush(i, &grads).unwrap();
            w.spull_wait(i, &mut params).unwrap();
        }
        let stats = cluster.shutdown();
        assert_eq!(stats.iter().map(|s| s.pushes).sum::<u64>(), 8);
    }

    #[test]
    fn traced_cluster_counts_reconcile_with_stats() {
        let (specs, init) = model_params();
        let map = EpsSlicer { max_chunk: 4 }.slice(&specs, 2);
        let cfg = EngineConfig {
            num_workers: 2,
            num_servers: 2,
            model: SyncModel::Bsp,
            ..EngineConfig::default()
        };
        let collector = TraceCollector::wall(4096);
        let (cluster, mut workers) = Cluster::launch_with_collector(cfg, map, &init, &collector);

        let mut grads = HashMap::new();
        grads.insert(0u64, vec![1.0f32; 8]);
        grads.insert(1u64, vec![2.0f32; 4]);
        let handles: Vec<_> = workers
            .drain(..)
            .map(|mut w| {
                let grads = grads.clone();
                std::thread::spawn(move || {
                    let mut params = HashMap::new();
                    for i in 0..3u64 {
                        w.spush(i, &grads).unwrap();
                        w.spull_wait(i, &mut params).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let stats = cluster.shutdown();
        let trace = collector.snapshot();

        let pulls: u64 = stats.iter().map(|s| s.pulls_total).sum();
        let dprs: u64 = stats.iter().map(|s| s.dprs).sum();
        let released: u64 = stats.iter().map(|s| s.dprs_released).sum();
        let pushes: u64 = stats.iter().map(|s| s.pushes).sum();
        let dropped: u64 = stats.iter().map(|s| s.late_pushes_dropped).sum();
        let advances: u64 = stats.iter().map(|s| s.v_train_advances).sum();

        assert_eq!(trace.count(EventKind::PullRequested), pulls);
        assert_eq!(trace.count(EventKind::PullDeferred), dprs);
        assert_eq!(trace.count(EventKind::DprReleased), released);
        assert_eq!(
            trace.count(EventKind::PushApplied) + trace.count(EventKind::LatePushDropped),
            pushes
        );
        assert_eq!(trace.count(EventKind::LatePushDropped), dropped);
        assert_eq!(trace.count(EventKind::VTrainAdvanced), advances);
        assert!(trace.count(EventKind::WireSend) > 0);
        assert!(trace.count(EventKind::WireRecv) > 0);
        assert!(trace.count(EventKind::BarrierWait) > 0);
    }

    #[test]
    fn shutdown_releases_blocked_workers() {
        let (specs, init) = model_params();
        let map = EpsSlicer { max_chunk: 4 }.slice(&specs, 1);
        let cfg = EngineConfig {
            num_workers: 2,
            num_servers: 1,
            model: SyncModel::Bsp,
            ..EngineConfig::default()
        };
        let (cluster, mut workers) = Cluster::launch(cfg, map, &init);
        let mut w0 = workers.remove(0);
        // Worker 0 pushes and pulls; worker 1 never shows up → the pull is
        // parked as a DPR. Shutdown must flush it so the thread unblocks.
        let blocked = std::thread::spawn(move || {
            let grads: HashMap<u64, Vec<f32>> =
                [(0u64, vec![1.0f32; 8]), (1u64, vec![1.0f32; 4])].into();
            w0.spush(0, &grads).unwrap();
            let mut params = HashMap::new();
            w0.spull_wait(0, &mut params).unwrap();
        });
        // Give the pull time to get parked, then shut down.
        std::thread::sleep(std::time::Duration::from_millis(50));
        let stats = cluster.shutdown();
        blocked.join().unwrap();
        assert_eq!(stats[0].dprs, 1);
        assert_eq!(stats[0].dprs_released, 1);
    }
}
