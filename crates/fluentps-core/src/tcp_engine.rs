//! TCP runtime: the same server loop as [`crate::engine`], but over real
//! sockets — a FluentPS cluster as separate OS threads bound to separate
//! ports, suitable for splitting across processes (each side only needs the
//! address book).
//!
//! Each server thread runs the crate's one server loop (the `serve`
//! module) without its recovery part, receiving on its own node and
//! replying through a sender node; the TCP postman coalesces each handled
//! message's replies into one write per worker. Workers use the same
//! [`WorkerClient`] with TCP halves.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::thread::JoinHandle;

use fluentps_obs::{
    http, HealthEngine, HealthTap, IntrospectionServer, MetricsRegistry, ProfCollector,
    StreamConfig, TraceCollector, TraceSource, Tracer,
};

use fluentps_transport::collect::{StreamerConfig, TraceStreamer};
use fluentps_transport::tcp::{AddressBook, TcpNode, TcpPostman};
use fluentps_transport::{NodeId, TransportError};

use crate::engine::EngineConfig;
use crate::eps::SliceMap;
use crate::serve::{self, ServerLoop};
use crate::stats::ShardStats;
use crate::worker::{Router, WorkerClient};

/// The worker client type served by the TCP engine.
pub type TcpWorker = WorkerClient<TcpPostman, TcpNode>;

/// Handle to a running TCP cluster (all nodes on loopback unless configured
/// otherwise).
pub struct TcpCluster {
    servers: Vec<(u32, JoinHandle<ShardStats>)>,
    control: TcpPostman,
    // Keeps the control endpoint's connections alive; dropping the node
    // would mark its postman disconnected.
    _control_node: TcpNode,
    num_servers: u32,
    // Per-worker trace streamers when launched collected; final-flushed at
    // shutdown (after the worker threads are done recording).
    worker_streamers: Vec<TraceStreamer>,
    // Live health engine + its collector tap when launched introspected;
    // drained and finalized at shutdown.
    health: Option<(HealthEngine, HealthTap)>,
    // Span-profile collector when launched introspected: server loops,
    // worker clients and the nodes' wire encode/decode paths profile into
    // it, and `/profile` serves its snapshots.
    prof: Option<ProfCollector>,
    /// Where each node listens (exported so external processes could join).
    pub addresses: AddressBook,
}

impl TcpCluster {
    /// Launch servers on OS-chosen loopback ports and build TCP-backed
    /// worker clients. Mirrors [`crate::engine::Cluster::launch`].
    pub fn launch(
        cfg: EngineConfig,
        map: SliceMap,
        init: &HashMap<u64, Vec<f32>>,
    ) -> Result<(TcpCluster, Vec<TcpWorker>), TransportError> {
        Self::launch_profiled(cfg, map, init, None, None, None)
    }

    /// [`TcpCluster::launch`] with a [`TraceCollector`]: shards, server
    /// loops and worker clients record trace events (wall clock).
    pub fn launch_with_collector(
        cfg: EngineConfig,
        map: SliceMap,
        init: &HashMap<u64, Vec<f32>>,
        collector: &TraceCollector,
    ) -> Result<(TcpCluster, Vec<TcpWorker>), TransportError> {
        Self::launch_profiled(cfg, map, init, Some(collector), None, None)
    }

    /// Launch with *cluster-wide trace collection*: every server loop and
    /// worker client gets its own wall-clock [`TraceCollector`] of
    /// `ring_capacity` events and a [`TraceStreamer`] shipping them to the
    /// [`fluentps_transport::CollectorService`] at `collector_addr`, where
    /// they are clock-aligned and merged onto one timeline.
    pub fn launch_collected(
        cfg: EngineConfig,
        map: SliceMap,
        init: &HashMap<u64, Vec<f32>>,
        collector_addr: SocketAddr,
        ring_capacity: usize,
    ) -> Result<(TcpCluster, Vec<TcpWorker>), TransportError> {
        Self::launch_profiled(
            cfg,
            map,
            init,
            None,
            Some((collector_addr, ring_capacity)),
            None,
        )
    }

    /// [`TcpCluster::launch_with_collector`] plus a live introspection
    /// endpoint serving `registry` at `addr` (`/metrics`, `/healthz`,
    /// `/trace`, `/slo`, `/alerts`). Cluster-shape gauges are published at
    /// launch; bind loopback (`127.0.0.1:0`) unless the endpoint is
    /// deliberately exposed.
    ///
    /// A streaming [`HealthEngine`] with the default alert rules is fed
    /// from `collector` for the lifetime of the run and finalized by
    /// [`TcpCluster::shutdown`]; [`TcpCluster::health_engine`] exposes it
    /// in-process.
    pub fn launch_introspected(
        cfg: EngineConfig,
        map: SliceMap,
        init: &HashMap<u64, Vec<f32>>,
        collector: &TraceCollector,
        registry: &MetricsRegistry,
        addr: SocketAddr,
    ) -> Result<(TcpCluster, Vec<TcpWorker>, IntrospectionServer), TransportError> {
        let prof = ProfCollector::wall();
        let (mut cluster, workers) =
            Self::launch_profiled(cfg, map, init, Some(collector), None, Some(&prof))?;
        crate::engine::publish_cluster_gauges(registry, "tcp", cfg.num_workers, cfg.num_servers);
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
    /// [`TcpCluster::launch_introspected`] (`None` for the other launch
    /// paths). Snapshot it any time — including mid-run — for folded-stack
    /// or speedscope exports covering server loop phases, worker client
    /// phases and frame encode/decode.
    pub fn prof_collector(&self) -> Option<&ProfCollector> {
        self.prof.as_ref()
    }

    /// The live [`HealthEngine`] attached by
    /// [`TcpCluster::launch_introspected`] (`None` for the other launch
    /// paths).
    pub fn health_engine(&self) -> Option<&HealthEngine> {
        self.health.as_ref().map(|(engine, _)| engine)
    }

    fn launch_profiled(
        cfg: EngineConfig,
        map: SliceMap,
        init: &HashMap<u64, Vec<f32>>,
        collector: Option<&TraceCollector>,
        stream_to: Option<(SocketAddr, usize)>,
        prof: Option<&ProfCollector>,
    ) -> Result<(TcpCluster, Vec<TcpWorker>), TransportError> {
        // Per-node tracing when streaming to a cluster collector: each node
        // gets its own collector (distinct clock epochs make the offset
        // handshake meaningful) plus a streamer shipping its ring. With a
        // profile collector attached, the streamer's drains profile too.
        let node_tracing = |node: NodeId| -> (Tracer, Option<TraceStreamer>) {
            match stream_to {
                Some((addr, capacity)) => {
                    let col = TraceCollector::wall(capacity);
                    let tracer = col.tracer();
                    let streamer = TraceStreamer::start_profiled(
                        node,
                        &col,
                        addr,
                        StreamerConfig::default(),
                        prof.map(|p| p.profiler()).unwrap_or_default(),
                    );
                    (tracer, Some(streamer))
                }
                None => (collector.map(|c| c.tracer()).unwrap_or_default(), None),
            }
        };
        let loopback: SocketAddr = "127.0.0.1:0".parse().expect("loopback");
        // Every socket a profiled cluster binds shares the one profile
        // collector, so frame encode/decode shows up as `wire/*` spans.
        let bind_node = |node: NodeId, book: AddressBook| -> Result<TcpNode, TransportError> {
            match prof {
                Some(p) => {
                    TcpNode::bind_profiled(node, loopback, book, Tracer::disabled(), p.profiler())
                }
                None => TcpNode::bind(node, loopback, book),
            }
        };
        assert_eq!(map.num_servers(), cfg.num_servers, "map/server mismatch");

        // Bind every node first so the final address book is complete, then
        // hand each node the finished book (TcpNode snapshots it at bind, so
        // bind receive-only nodes first and sender nodes after).
        let book = AddressBook::new();
        let mut server_rx = Vec::new();
        for m in 0..cfg.num_servers {
            let node = bind_node(NodeId::Server(m), AddressBook::new())?;
            book.insert(NodeId::Server(m), node.local_addr());
            server_rx.push(node);
        }
        let mut worker_nodes = Vec::new();
        for n in 0..cfg.num_workers {
            let node = bind_node(NodeId::Worker(n), book.clone())?;
            book.insert(NodeId::Worker(n), node.local_addr());
            worker_nodes.push(node);
        }
        // Each server gets a sender identity with the complete book. Sender
        // ids live above the real server range so they never collide.
        let mut servers = Vec::with_capacity(cfg.num_servers as usize);
        for (m, rx) in server_rx.into_iter().enumerate() {
            let m = m as u32;
            let tx = bind_node(NodeId::Server(cfg.num_servers + 1 + m), book.clone())?;
            let (tracer, streamer) = node_tracing(NodeId::Server(m));
            let server = ServerLoop::launch(
                &cfg,
                cfg.model,
                m,
                &map,
                init,
                tracer,
                prof.map(|p| p.profiler()).unwrap_or_default(),
            );
            let postman = tx.postman();
            let handle = server.spawn(
                format!("fluentps-tcp-server-{m}"),
                rx,
                postman,
                tx,
                streamer,
            );
            servers.push((m, handle));
        }

        let router = Router::new(map);
        let control_node = bind_node(NodeId::Scheduler, book.clone())?;
        let control = control_node.postman();

        let mut worker_streamers = Vec::new();
        let workers = worker_nodes
            .into_iter()
            .enumerate()
            .map(|(n, node)| {
                let postman = node.postman();
                let mut w = WorkerClient::new(n as u32, postman, node, router.clone());
                let (tracer, streamer) = node_tracing(NodeId::Worker(n as u32));
                worker_streamers.extend(streamer);
                w.set_tracer(tracer);
                if let Some(p) = prof {
                    w.set_profiler(p.profiler());
                }
                w
            })
            .collect();

        Ok((
            TcpCluster {
                servers,
                control,
                _control_node: control_node,
                num_servers: cfg.num_servers,
                worker_streamers,
                health: None,
                prof: None,
                addresses: book,
            },
            workers,
        ))
    }

    /// Send shutdown to every server and collect their statistics.
    ///
    /// For collected launches, call after the worker threads have finished:
    /// the workers' trace streamers final-flush here.
    pub fn shutdown(self) -> Vec<ShardStats> {
        for s in self.worker_streamers {
            s.stop();
        }
        let stats = serve::drain(&self.control, self.num_servers, self.servers, None);
        // Drain the servers' final events into the health engine, then
        // close its last window so `/slo` reflects the completed run.
        if let Some((engine, tap)) = self.health {
            tap.stop();
            engine.finish();
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::condition::SyncModel;
    use crate::eps::{EpsSlicer, ParamSpec, Slicer};
    use fluentps_obs::EventKind;

    #[test]
    fn tcp_cluster_runs_bsp_training_round_trips() {
        let specs = vec![ParamSpec { key: 0, len: 6 }, ParamSpec { key: 1, len: 3 }];
        let mut init = HashMap::new();
        init.insert(0u64, vec![0.0; 6]);
        init.insert(1u64, vec![0.0; 3]);
        let map = EpsSlicer { max_chunk: 4 }.slice(&specs, 2);
        let cfg = EngineConfig {
            num_workers: 2,
            num_servers: 2,
            model: SyncModel::Bsp,
            ..EngineConfig::default()
        };
        let (cluster, workers) = TcpCluster::launch(cfg, map, &init).expect("launch");

        let handles: Vec<_> = workers
            .into_iter()
            .map(|mut w| {
                std::thread::spawn(move || {
                    let grads: HashMap<u64, Vec<f32>> =
                        [(0u64, vec![1.0f32; 6]), (1u64, vec![2.0f32; 3])].into();
                    let mut params = HashMap::new();
                    for i in 0..3u64 {
                        w.spush(i, &grads).unwrap();
                        let report = w.spull_wait(i, &mut params).unwrap();
                        assert!(report.min_version > i);
                    }
                    params
                })
            })
            .collect();
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for params in &results {
            assert_eq!(params[&0], vec![3.0; 6]);
            assert_eq!(params[&1], vec![6.0; 3]);
        }
        let stats = cluster.shutdown();
        assert_eq!(stats.iter().map(|s| s.pushes).sum::<u64>(), 2 * 3 * 2);
    }

    #[test]
    fn tcp_cluster_with_collector_records_wire_events() {
        let specs = vec![ParamSpec { key: 0, len: 4 }];
        let mut init = HashMap::new();
        init.insert(0u64, vec![0.0; 4]);
        let map = EpsSlicer { max_chunk: 8 }.slice(&specs, 1);
        let cfg = EngineConfig {
            num_workers: 1,
            num_servers: 1,
            model: SyncModel::Asp,
            ..EngineConfig::default()
        };
        let collector = TraceCollector::wall(1024);
        let (cluster, mut workers) =
            TcpCluster::launch_with_collector(cfg, map, &init, &collector).expect("launch");
        let mut w = workers.remove(0);
        let grads: HashMap<u64, Vec<f32>> = [(0u64, vec![1.0f32; 4])].into();
        let mut params = HashMap::new();
        for i in 0..3u64 {
            w.spush(i, &grads).unwrap();
            w.spull_wait(i, &mut params).unwrap();
        }
        let stats = cluster.shutdown();
        let trace = collector.snapshot();
        assert_eq!(trace.count(EventKind::PullRequested), stats[0].pulls_total);
        assert_eq!(
            trace.count(EventKind::PushApplied) + trace.count(EventKind::LatePushDropped),
            stats[0].pushes
        );
        // Worker sends 3 pushes + 3 pulls; server receives them and sends
        // acks + responses.
        assert!(trace.count(EventKind::WireSend) >= 6);
        assert!(trace.count(EventKind::WireRecv) >= 6);
        assert_eq!(trace.count(EventKind::BarrierWait), 3);
    }

    #[test]
    fn tcp_cluster_collected_run_merges_and_balances() {
        use fluentps_transport::CollectorService;

        let specs = vec![ParamSpec { key: 0, len: 6 }, ParamSpec { key: 1, len: 3 }];
        let mut init = HashMap::new();
        init.insert(0u64, vec![0.0; 6]);
        init.insert(1u64, vec![0.0; 3]);
        let map = EpsSlicer { max_chunk: 4 }.slice(&specs, 2);
        let cfg = EngineConfig {
            num_workers: 2,
            num_servers: 2,
            model: SyncModel::Bsp,
            ..EngineConfig::default()
        };
        let mut service = CollectorService::bind("127.0.0.1:0".parse().unwrap(), 1 << 12)
            .expect("bind collector");
        let (cluster, workers) =
            TcpCluster::launch_collected(cfg, map, &init, service.local_addr(), 1 << 10)
                .expect("launch");

        let handles: Vec<_> = workers
            .into_iter()
            .map(|mut w| {
                std::thread::spawn(move || {
                    let grads: HashMap<u64, Vec<f32>> =
                        [(0u64, vec![1.0f32; 6]), (1u64, vec![2.0f32; 3])].into();
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
        cluster.shutdown();

        let stats = service.node_stats();
        let names: Vec<&str> = stats.iter().map(|s| s.node.as_str()).collect();
        assert_eq!(names, ["server0", "server1", "worker0", "worker1"]);
        service.check_balance().expect("exact per-node accounting");
        let trace = service.snapshot();
        // Cross-process wire pairs land on the one merged timeline: both
        // directions of every push/pull appear.
        assert!(trace.count(EventKind::WireSend) >= 12);
        assert!(trace.count(EventKind::WireRecv) >= 12);
        assert!(trace.events.windows(2).all(|w| w[0].ts <= w[1].ts));
        service.stop();
    }

    #[test]
    fn tcp_cluster_shutdown_unblocks_parked_worker() {
        let specs = vec![ParamSpec { key: 0, len: 4 }];
        let mut init = HashMap::new();
        init.insert(0u64, vec![0.0; 4]);
        let map = EpsSlicer { max_chunk: 8 }.slice(&specs, 1);
        let cfg = EngineConfig {
            num_workers: 2,
            num_servers: 1,
            model: SyncModel::Bsp,
            ..EngineConfig::default()
        };
        let (cluster, mut workers) = TcpCluster::launch(cfg, map, &init).expect("launch");
        let mut w0 = workers.remove(0);
        let blocked = std::thread::spawn(move || {
            let grads: HashMap<u64, Vec<f32>> = [(0u64, vec![1.0f32; 4])].into();
            w0.spush(0, &grads).unwrap();
            let mut params = HashMap::new();
            w0.spull_wait(0, &mut params).unwrap();
        });
        std::thread::sleep(std::time::Duration::from_millis(100));
        let stats = cluster.shutdown();
        blocked.join().unwrap();
        assert_eq!(stats[0].dprs_released, 1);
    }
}
