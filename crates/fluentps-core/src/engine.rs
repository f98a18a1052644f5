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
use std::thread::JoinHandle;

use fluentps_transport::collect::TraceStreamer;
use fluentps_transport::inproc::{Endpoint, Fabric, InprocPostman};
use fluentps_transport::NodeId;

use crate::dpr::DprPolicy;
use crate::eps::SliceMap;
use crate::obs::Obs;
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
    /// possible through [`Cluster::launch_observed`].)
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
    // Per-worker trace streamers when streaming; final-flushed at shutdown
    // (after the worker threads are done recording).
    worker_streamers: Vec<TraceStreamer>,
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
        Self::launch_observed(cfg, models, map, init, &Obs::default())
    }

    /// [`Cluster::launch`] with a synchronization model per server — the
    /// paper's headline flexibility: "each parameter server can choose the
    /// adaptive synchronization model to update its parameter shard" — and
    /// with every server shard and worker client recording what `obs` asks
    /// for.
    pub fn launch_observed(
        cfg: EngineConfig,
        models: Vec<SyncModel>,
        map: SliceMap,
        init: &HashMap<u64, Vec<f32>>,
        obs: &Obs,
    ) -> (Cluster, Vec<InprocWorker>) {
        assert_eq!(map.num_servers(), cfg.num_servers, "map/server mismatch");
        assert_eq!(models.len(), cfg.num_servers as usize);
        let fabric = Fabric::new();
        let ring = obs.ring();

        // Register workers first so servers can respond from the start.
        let mut worker_endpoints = Vec::with_capacity(cfg.num_workers as usize);
        for n in 0..cfg.num_workers {
            worker_endpoints.push(fabric.register(NodeId::Worker(n)));
        }

        let mut servers = Vec::with_capacity(cfg.num_servers as usize);
        for m in 0..cfg.num_servers {
            let endpoint = fabric.register(NodeId::Server(m));
            let (tracer, profiler, streamer) = obs.node(NodeId::Server(m), &ring);
            let server =
                ServerLoop::launch(&cfg, models[m as usize], m, &map, init, tracer, profiler);
            let postman = endpoint.postman();
            let handle = server.spawn(
                format!("fluentps-server-{m}"),
                endpoint,
                postman,
                (),
                streamer,
            );
            servers.push((m, handle));
        }

        let router = Router::new(map);
        let mut worker_streamers = Vec::new();
        let workers = worker_endpoints
            .into_iter()
            .enumerate()
            .map(|(n, ep)| {
                let postman = ep.postman();
                let mut w = WorkerClient::new(n as u32, postman, ep, router.clone());
                let (tracer, profiler, streamer) = obs.node(NodeId::Worker(n as u32), &ring);
                worker_streamers.extend(streamer);
                w.set_tracer(tracer);
                w.set_profiler(profiler);
                w
            })
            .collect();

        (
            Cluster {
                fabric,
                servers,
                num_servers: cfg.num_servers,
                worker_streamers,
            },
            workers,
        )
    }

    /// Send shutdown to every server, join their threads and return their
    /// per-shard statistics (index = server id).
    ///
    /// When streaming, call after the worker threads have finished: the
    /// workers' trace streamers final-flush here.
    pub fn shutdown(self) -> Vec<ShardStats> {
        for s in self.worker_streamers {
            s.stop();
        }
        // A synthetic scheduler identity delivers the shutdown.
        let ctl = self.fabric.register(NodeId::Scheduler);
        serve::drain(&ctl.postman(), self.num_servers, self.servers, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eps::{EpsSlicer, ParamSpec, Slicer};
    use fluentps_obs::{EventKind, TraceCollector};

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
        let (cluster, mut workers) = Cluster::launch_observed(
            cfg,
            vec![SyncModel::Asp, SyncModel::Ssp { s: 5 }],
            map,
            &init,
            &Obs::default(),
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
        let obs = Obs {
            collector: Some(collector.clone()),
            ..Obs::default()
        };
        let (cluster, mut workers) =
            Cluster::launch_observed(cfg, vec![cfg.model; 2], map, &init, &obs);

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
