//! The three live runtimes run one server loop: the same job gives the same
//! answer on each, one observability bundle is honoured by each, a hostile
//! frame cannot kill any of them, and shutdown ends even a server that
//! cannot hear its `Shutdown` frame.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use fluentps::core::condition::SyncModel;
use fluentps::core::engine::{Cluster, EngineConfig};
use fluentps::core::eps::{EpsSlicer, ParamSpec, SliceMap, Slicer};
use fluentps::core::obs::Obs;
use fluentps::core::recovery::{RecoveryConfig, ResilientTcpCluster};
use fluentps::core::stats::ShardStats;
use fluentps::core::tcp_engine::TcpCluster;
use fluentps::core::worker::WorkerClient;
use fluentps::obs::{EventKind, ProfCollector, Trace, TraceCollector};
use fluentps::transport::tcp::{AddressBook, TcpNode};
use fluentps::transport::{KvPairs, Mailbox, Message, NodeId, Postman};

const ITERS: u64 = 5;

fn bsp_job(workers: u32) -> (EngineConfig, SliceMap, HashMap<u64, Vec<f32>>) {
    let specs = vec![ParamSpec { key: 0, len: 6 }, ParamSpec { key: 1, len: 3 }];
    let init: HashMap<u64, Vec<f32>> = [(0u64, vec![0.25; 6]), (1u64, vec![-0.5; 3])].into();
    let map = EpsSlicer { max_chunk: 4 }.slice(&specs, 2);
    let cfg = EngineConfig {
        num_workers: workers,
        num_servers: 2,
        model: SyncModel::Bsp,
        seed: 5,
        ..EngineConfig::default()
    };
    (cfg, map, init)
}

/// Worker `n`'s gradient at iteration `i`: small dyadic rationals, so every
/// sum and the divide-by-N scaling are exact in `f32` and the order in which
/// a shard applies the workers' pushes cannot change a bit.
fn grads(n: u32, i: u64) -> HashMap<u64, Vec<f32>> {
    let g = (n as f32 + 1.0) * 0.5 + i as f32 * 0.25;
    [(0u64, vec![g; 6]), (1u64, vec![-g; 3])].into()
}

/// Train every worker for `ITERS` BSP iterations on its own thread; return
/// each worker's final parameters.
fn train<P, M>(workers: Vec<WorkerClient<P, M>>) -> Vec<HashMap<u64, Vec<f32>>>
where
    P: Postman + 'static,
    M: Mailbox + 'static,
{
    let handles: Vec<_> = workers
        .into_iter()
        .map(|mut w| {
            std::thread::spawn(move || {
                let n = w.worker_id();
                let mut params = HashMap::new();
                for i in 0..ITERS {
                    w.spush(i, &grads(n, i)).expect("push");
                    let report = w.spull_wait(i, &mut params).expect("pull");
                    assert!(report.min_version > i, "BSP version bound at iter {i}");
                }
                params
            })
        })
        .collect();
    handles
        .into_iter()
        .map(|h| h.join().expect("worker thread"))
        .collect()
}

fn bits(params: &HashMap<u64, Vec<f32>>) -> Vec<(u64, Vec<u32>)> {
    let mut v: Vec<(u64, Vec<u32>)> = params
        .iter()
        .map(|(k, vals)| (*k, vals.iter().map(|x| x.to_bits()).collect()))
        .collect();
    v.sort_unstable();
    v
}

fn logical(stats: &[ShardStats]) -> Vec<(u64, u64)> {
    stats
        .iter()
        .map(|s| (s.pushes, s.v_train_advances))
        .collect()
}

/// Fault-free recovery knobs with a liveness timeout well past any
/// scheduling stall, so no live server is ever declared dead.
fn calm_recovery() -> RecoveryConfig {
    RecoveryConfig {
        liveness_timeout: Duration::from_secs(2),
        ..RecoveryConfig::default()
    }
}

#[test]
fn runtimes_agree_bit_for_bit_on_a_bsp_job() {
    let (cfg, map, init) = bsp_job(2);

    let (cluster, workers) = Cluster::launch(cfg, map.clone(), &init);
    let inproc = train(workers);
    let inproc_stats = cluster.shutdown();

    let (cluster, workers) = TcpCluster::launch(cfg, map.clone(), &init).expect("launch tcp");
    let tcp = train(workers);
    let tcp_stats = cluster.shutdown();

    let (cluster, workers) =
        ResilientTcpCluster::launch(cfg, calm_recovery(), map, &init, None).expect("launch");
    let resilient = train(workers);
    let resilient_stats = cluster.shutdown();

    // Every worker of every runtime ends on the same parameters, and the
    // expected ones: w_T = w_0 + Σ_i mean_n g(n, i).
    let want: f32 = (0..ITERS).map(|i| 0.75 + i as f32 * 0.25).sum();
    assert_eq!(inproc[0][&0], vec![0.25 + want; 6]);
    assert_eq!(inproc[0][&1], vec![-0.5 - want; 3]);
    for params in inproc.iter().chain(&tcp).chain(&resilient) {
        assert_eq!(bits(params), bits(&inproc[0]));
    }
    // Arrival order decides DPR counts; pushes and V_train advances are
    // fixed by the job.
    assert_eq!(logical(&tcp_stats), logical(&inproc_stats));
    assert_eq!(logical(&resilient_stats), logical(&inproc_stats));
    assert_eq!(logical(&inproc_stats), vec![(2 * ITERS, ITERS); 2]);
}

/// Launch one runtime on `bsp_job(2)` with `obs`, train and shut down.
type ObservedRun = fn(&Obs);

#[test]
fn every_runtime_honours_one_obs_bundle() {
    let runtimes: [(&str, ObservedRun); 3] = [
        ("inproc", |obs| {
            let (cfg, map, init) = bsp_job(2);
            let models = vec![cfg.model; 2];
            let (cluster, workers) = Cluster::launch_observed(cfg, models, map, &init, obs);
            train(workers);
            cluster.shutdown();
        }),
        ("tcp", |obs| {
            let (cfg, map, init) = bsp_job(2);
            let (cluster, workers) =
                TcpCluster::launch_observed(cfg, map, &init, obs).expect("launch tcp");
            train(workers);
            cluster.shutdown();
        }),
        ("resilient", |obs| {
            let (cfg, map, init) = bsp_job(2);
            let (cluster, workers) =
                ResilientTcpCluster::launch_observed(cfg, calm_recovery(), map, &init, obs)
                    .expect("launch resilient");
            train(workers);
            cluster.shutdown();
        }),
    ];
    for (runtime, run) in runtimes {
        let collector = TraceCollector::wall(1 << 14);
        let prof = ProfCollector::wall();
        run(&Obs {
            collector: Some(collector.clone()),
            profiler: Some(prof.clone()),
            ..Obs::default()
        });
        let trace = collector.snapshot();
        for m in 0..2 {
            for kind in [EventKind::PushApplied, EventKind::WireRecv] {
                assert!(
                    trace.events.iter().any(|e| e.kind == kind && e.shard == m),
                    "{runtime}: no {kind:?} event from server {m}"
                );
            }
        }
        let spans = prof.snapshot().spans;
        for span in ["server/apply_push", "worker/push"] {
            assert!(
                spans.contains_key(span),
                "{runtime}: no {span} span in {:?}",
                spans.keys().collect::<Vec<_>>()
            );
        }
    }
}

/// Send each server one well-formed push and one pull for the keys it owns,
/// from a worker id the cluster does not have, and wait until every server
/// loop has received and traced them.
fn send_rogue_frames(book: &AddressBook, map: &SliceMap, collector: &TraceCollector) {
    let rogue = TcpNode::bind(
        NodeId::Worker(7),
        "127.0.0.1:0".parse().unwrap(),
        book.clone(),
    )
    .expect("bind rogue node");
    let postman = rogue.postman();
    for m in 0..2 {
        let owned: Vec<_> = map.placements().iter().filter(|p| p.server == m).collect();
        let mut kv = KvPairs::default();
        for p in &owned {
            kv.keys.push(p.new_key);
            kv.lens.push(p.len as u32);
            kv.vals.extend(std::iter::repeat_n(1.0, p.len));
        }
        let keys = owned.iter().map(|p| p.new_key).collect();
        let push = Message::SPush {
            worker: 7,
            progress: 0,
            kv,
        };
        let pull = Message::SPull {
            worker: 7,
            progress: 0,
            keys,
        };
        postman
            .send(NodeId::Server(m), push)
            .expect("send rogue push");
        postman
            .send(NodeId::Server(m), pull)
            .expect("send rogue pull");
    }
    let deadline = Instant::now() + Duration::from_secs(20);
    while rogue_recvs(&collector.snapshot()) < 4 {
        assert!(
            Instant::now() < deadline,
            "a server loop stopped before tracing every rogue frame"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Frames from the rogue worker id that a server loop received and traced.
fn rogue_recvs(trace: &Trace) -> usize {
    trace
        .events
        .iter()
        .filter(|e| e.kind == EventKind::WireRecv && e.worker == 7)
        .count()
}

#[test]
fn tcp_cluster_ignores_an_out_of_range_worker_id() {
    let (cfg, map, init) = bsp_job(1);
    let collector = TraceCollector::wall(1 << 12);
    let obs = Obs {
        collector: Some(collector.clone()),
        ..Obs::default()
    };
    let (cluster, workers) =
        TcpCluster::launch_observed(cfg, map.clone(), &init, &obs).expect("launch");
    send_rogue_frames(&cluster.addresses, &map, &collector);
    let params = train(workers);
    let stats = cluster.shutdown();
    assert_eq!(logical(&stats), vec![(ITERS, ITERS); 2]);
    assert_eq!(params[0][&0].len(), 6);
    // The rogue frames were received and traced, then ignored.
    let trace = collector.snapshot();
    assert_eq!(rogue_recvs(&trace), 4, "one push and one pull per server");
}

#[test]
fn resilient_cluster_ignores_an_out_of_range_worker_id() {
    let (cfg, map, init) = bsp_job(1);
    let collector = TraceCollector::wall(1 << 12);
    let (cluster, workers) =
        ResilientTcpCluster::launch(cfg, calm_recovery(), map.clone(), &init, Some(&collector))
            .expect("launch");
    send_rogue_frames(&cluster.addresses, &map, &collector);
    train(workers);
    let stats = cluster.shutdown();
    assert_eq!(logical(&stats), vec![(ITERS, ITERS); 2]);
    // No server thread died: nothing was declared dead or restored from a
    // checkpoint, and every rogue frame was traced by a live loop.
    let trace = collector.snapshot();
    assert_eq!(trace.count(EventKind::NodeDeclaredDead), 0);
    assert_eq!(trace.count(EventKind::CheckpointRestored), 0);
    assert_eq!(rogue_recvs(&trace), 4, "one push and one pull per server");
}

#[test]
fn resilient_shutdown_stops_a_deaf_server_after_the_liveness_timeout() {
    let (cfg, map, init) = bsp_job(1);
    let rcfg = RecoveryConfig {
        liveness_timeout: Duration::from_millis(300),
        ..RecoveryConfig::default()
    };
    let (cluster, _workers) =
        ResilientTcpCluster::launch(cfg, rcfg, map, &init, None).expect("launch");
    // Blackhole server 0: its `Shutdown` frame can never arrive, so only
    // the out-of-band stop flag can end its loop, and the drain latches
    // that flag only once the liveness timeout has passed.
    cluster.injector().kill(NodeId::Server(0));
    let start = Instant::now();
    let stats = cluster.shutdown();
    assert!(start.elapsed() >= Duration::from_millis(300));
    assert_eq!(stats.len(), 2);
}
