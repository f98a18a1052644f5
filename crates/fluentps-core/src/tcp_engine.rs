//! TCP runtime: the same server loop as [`crate::engine`], but over real
//! sockets — a FluentPS cluster as separate OS threads bound to separate
//! ports, suitable for splitting across processes (each side only needs the
//! address book).
//!
//! Each server thread runs the crate's one server loop (the `serve`
//! module) without its recovery part, receiving on its own node and
//! replying through a sender node; the TCP postman coalesces each handled
//! message's replies into one write per worker. Workers use the same
//! [`WorkerClient`] with TCP halves. One wiring routine (`TcpWiring`)
//! binds every socket of this runtime and of [`crate::recovery`].

use std::collections::HashMap;
use std::net::SocketAddr;
use std::thread::JoinHandle;

use fluentps_obs::{ProfCollector, Tracer};

use fluentps_transport::collect::TraceStreamer;
use fluentps_transport::tcp::{AddressBook, TcpNode, TcpPostman};
use fluentps_transport::{NodeId, TransportError};

use crate::engine::EngineConfig;
use crate::eps::SliceMap;
use crate::obs::Obs;
use crate::serve::{self, ServerLoop};
use crate::stats::ShardStats;
use crate::worker::{Router, WorkerClient};

/// The worker client type served by the TCP engine.
pub type TcpWorker = WorkerClient<TcpPostman, TcpNode>;

/// Bind `node` on an OS-chosen loopback port. Sockets never trace (the
/// server loop and worker client record the wire events); with a profiler
/// in `obs` they run frame encode/decode under `wire/*` spans.
fn bind_node(node: NodeId, book: &AddressBook, obs: &Obs) -> Result<TcpNode, TransportError> {
    let loopback: SocketAddr = "127.0.0.1:0".parse().expect("loopback");
    let profiler = obs
        .profiler
        .as_ref()
        .map(ProfCollector::profiler)
        .unwrap_or_default();
    TcpNode::bind_profiled(node, loopback, book.clone(), Tracer::disabled(), profiler)
}

/// Bind server `m`'s receive node and its sender node, then publish the
/// receive address in `book` (a replacement server's new address is what
/// lets every worker's postman redial it). Sender ids live above the real
/// server range so they never collide.
pub(crate) fn bind_server(
    cfg: &EngineConfig,
    m: u32,
    book: &AddressBook,
    obs: &Obs,
) -> Result<(TcpNode, TcpNode), TransportError> {
    let rx = bind_node(NodeId::Server(m), book, obs)?;
    let tx = bind_node(NodeId::Server(cfg.num_servers + 1 + m), book, obs)?;
    book.insert(NodeId::Server(m), rx.local_addr());
    Ok((rx, tx))
}

/// Every socket of a TCP cluster. The book is shared live by every node
/// bound from it, so each listening node is reachable the moment it is
/// published.
pub(crate) struct TcpWiring {
    pub(crate) book: AddressBook,
    pub(crate) supervisors: Vec<TcpNode>,
    /// Per server: the receive node and the sender node.
    pub(crate) servers: Vec<(TcpNode, TcpNode)>,
    pub(crate) workers: Vec<TcpNode>,
    /// Delivers `Shutdown` to the servers (and supervisors).
    pub(crate) control: TcpNode,
}

impl TcpWiring {
    /// Bind `supervisors` supervisor replicas, every server's two nodes,
    /// the workers and the control node.
    ///
    /// Every node is bound before the caller spawns any thread: a launch
    /// whose bind fails returns the error with nothing running, and the
    /// nodes bound so far close as they drop.
    pub(crate) fn bind(
        cfg: &EngineConfig,
        supervisors: u32,
        obs: &Obs,
    ) -> Result<TcpWiring, TransportError> {
        let book = AddressBook::new();
        let listen = |node: NodeId| -> Result<TcpNode, TransportError> {
            let n = bind_node(node, &book, obs)?;
            book.insert(node, n.local_addr());
            Ok(n)
        };
        let supervisors = (0..supervisors)
            .map(|k| listen(NodeId::Supervisor(k)))
            .collect::<Result<_, _>>()?;
        let servers = (0..cfg.num_servers)
            .map(|m| bind_server(cfg, m, &book, obs))
            .collect::<Result<_, _>>()?;
        let workers = (0..cfg.num_workers)
            .map(|n| listen(NodeId::Worker(n)))
            .collect::<Result<_, _>>()?;
        let control = bind_node(NodeId::Scheduler, &book, obs)?;
        Ok(TcpWiring {
            book,
            supervisors,
            servers,
            workers,
            control,
        })
    }
}

/// Handle to a running TCP cluster (all nodes on loopback unless configured
/// otherwise).
pub struct TcpCluster {
    servers: Vec<(u32, JoinHandle<ShardStats>)>,
    control: TcpPostman,
    // Keeps the control endpoint's connections alive; dropping the node
    // would mark its postman disconnected.
    _control_node: TcpNode,
    num_servers: u32,
    // Per-worker trace streamers when streaming; final-flushed at shutdown
    // (after the worker threads are done recording).
    worker_streamers: Vec<TraceStreamer>,
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
        Self::launch_observed(cfg, map, init, &Obs::default())
    }

    /// [`TcpCluster::launch`] with every server loop, worker client and
    /// socket recording what `obs` asks for.
    pub fn launch_observed(
        cfg: EngineConfig,
        map: SliceMap,
        init: &HashMap<u64, Vec<f32>>,
        obs: &Obs,
    ) -> Result<(TcpCluster, Vec<TcpWorker>), TransportError> {
        assert_eq!(map.num_servers(), cfg.num_servers, "map/server mismatch");
        let wiring = TcpWiring::bind(&cfg, 0, obs)?;
        let ring = obs.ring();

        let mut servers = Vec::with_capacity(cfg.num_servers as usize);
        for (m, (rx, tx)) in (0..).zip(wiring.servers) {
            let (tracer, profiler, streamer) = obs.node(NodeId::Server(m), &ring);
            let server = ServerLoop::launch(&cfg, cfg.model, m, &map, init, tracer, profiler);
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
        let mut worker_streamers = Vec::new();
        let workers = (0..)
            .zip(wiring.workers)
            .map(|(n, node)| {
                let postman = node.postman();
                let mut w = WorkerClient::new(n, postman, node, router.clone());
                let (tracer, profiler, streamer) = obs.node(NodeId::Worker(n), &ring);
                worker_streamers.extend(streamer);
                w.set_tracer(tracer);
                w.set_profiler(profiler);
                w
            })
            .collect();

        Ok((
            TcpCluster {
                servers,
                control: wiring.control.postman(),
                _control_node: wiring.control,
                num_servers: cfg.num_servers,
                worker_streamers,
                addresses: wiring.book,
            },
            workers,
        ))
    }

    /// Send shutdown to every server and collect their statistics.
    ///
    /// When streaming, call after the worker threads have finished: the
    /// workers' trace streamers final-flush here.
    pub fn shutdown(self) -> Vec<ShardStats> {
        for s in self.worker_streamers {
            s.stop();
        }
        serve::drain(&self.control, self.num_servers, self.servers, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::condition::SyncModel;
    use crate::eps::{EpsSlicer, ParamSpec, Slicer};
    use fluentps_obs::{EventKind, TraceCollector};

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
        let obs = Obs {
            collector: Some(collector.clone()),
            ..Obs::default()
        };
        let (cluster, mut workers) =
            TcpCluster::launch_observed(cfg, map, &init, &obs).expect("launch");
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
        let obs = Obs {
            stream_to: Some((service.local_addr(), 1 << 10)),
            ..Obs::default()
        };
        let (cluster, workers) =
            TcpCluster::launch_observed(cfg, map, &init, &obs).expect("launch");

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
