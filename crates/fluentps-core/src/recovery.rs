//! Fault-tolerant TCP runtime: the [`crate::tcp_engine`] cluster plus
//! everything needed to survive a server death mid-training.
//!
//! Three pieces cooperate:
//!
//! * The **server loop** of the `serve` module with its recovery part: it
//!   (1) deduplicates replayed pushes by a per-worker applied-progress
//!   window so client retries never double-apply gradients or perturb
//!   [`ShardStats`], (2) answers duplicate pulls from a per-worker reply
//!   cache without re-running the synchronization condition, (3)
//!   heartbeats a supervisor, (4) periodically captures a
//!   [`ShardCheckpoint`] into a shared store, and (5) can self-terminate at
//!   a configured logical time (`V_train` threshold) to simulate a crash
//!   deterministically.
//! * A **supervisor** owning a [`LivenessMonitor`]: when a server misses
//!   its heartbeats it is declared dead and either *replaced* — a fresh
//!   shard restored from the latest checkpoint, rebound on a new port,
//!   with workers redialing through the shared [`AddressBook`] — or, when
//!   replacement is disabled, the cluster enters *degraded mode*: the dead
//!   server's slices are remapped onto survivors
//!   ([`EpsSlicer::remap_dead`]), orphaned parameters are installed from
//!   the checkpoint, and workers receive a `RouteUpdate`.
//! * The **worker retry layer** ([`crate::worker::RetryPolicy`]): bounded
//!   timeouts, seeded backoff, push replay and pull re-issue.
//!
//! Since the control plane was replicated, "the supervisor" is really a
//! **quorum of supervisor replicas** driving the consensus log in
//! [`crate::consensus`]: every liveness verdict, replacement and remap
//! commits through the replicated log *before* any `Install`/`RouteUpdate`
//! goes out, servers heartbeat the replica they believe leads and get a
//! `LeaderRedirect` when they are wrong, and killing the leader
//! (`kill_supervisors`) is just another chaos scenario — a follower wins
//! the next election and finishes any half-done recovery. With
//! `num_supervisors == 1` the consensus layer degenerates to an instant
//! solo leader and the runtime behaves exactly like the pre-quorum design.
//!
//! All messaging runs through a [`FaultInjector`], so chaos schedules
//! (drops, delays, duplicates, severed nodes) apply to a live TCP cluster
//! and — because fault rules are content-matched, not timing-matched —
//! replay bit-for-bit across runs.

use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fluentps_obs::{
    ConsensusHealth, EventKind, HealthEngine, HealthTap, HealthView, MetricsRegistry, NodeHealth,
    RecordArgs, TraceCollector, Tracer,
};
use fluentps_util::rng::StdRng;
use fluentps_util::sync::Mutex;

use fluentps_transport::collect::TraceStreamer;
use fluentps_transport::fault::{FaultInjector, FaultPlan, FaultyMailbox, FaultyPostman};
use fluentps_transport::tcp::{AddressBook, TcpNode, TcpPostman};
use fluentps_transport::{
    CausalCtx, KvPairs, Mailbox, Message, NodeId, Postman, TransportError, WirePlacement, NO_LEADER,
};

use crate::checkpoint::ShardCheckpoint;
use crate::consensus::{ConsensusConfig, ControlCommand, LogEntry, Replica};
use crate::engine::EngineConfig;
use crate::eps::{EpsSlicer, SliceMap};
use crate::obs::Obs;
use crate::scheduler::LivenessMonitor;
use crate::serve::{self, new_shard, CheckpointStore, Recovery, ServerLoop, WorkerWindow};
use crate::stats::ShardStats;
use crate::tcp_engine::{bind_server, TcpWiring};
use crate::worker::{RetryPolicy, Router, WorkerClient};

/// Worker client type of the resilient runtime: TCP halves wrapped in the
/// cluster's fault injector.
pub type ResilientWorker = WorkerClient<FaultyPostman<TcpPostman>, FaultyMailbox<TcpNode>>;

/// Server thread handles plus the shutdown latch, shared across supervisor
/// replicas: whichever live replica first receives `Shutdown` drains the
/// servers; a replacement spawned by the current leader lands here too.
///
/// `stop` is the out-of-band counterpart of the `Shutdown` *message*, a
/// timed fallback: the drain sends `Shutdown` first and latches `stop` only
/// for a server still running after the liveness timeout (a lost frame, a
/// severed node), so a healthy server always exits by reading its frame.
/// Every server loop wakes on a heartbeat-interval timeout and checks the
/// flag, so the join cannot hang.
#[derive(Debug, Default)]
struct SharedServers {
    handles: Vec<(u32, JoinHandle<ShardStats>)>,
    drained: bool,
    stop: Arc<AtomicBool>,
}

type SharedState = Arc<Mutex<SharedServers>>;

/// Per-replica consensus standing, shared for introspection: every live
/// replica writes its own slot; `/healthz` and the consensus gauges render
/// the merged view (a fresh leader slot wins; no live leader slot at all
/// means quorum loss). A replica that crashes — simulated or real exit —
/// marks its slot `exited`, mirroring what a process death looks like to a
/// same-process introspection endpoint.
#[derive(Debug, Clone, Default)]
struct ConsensusBoard {
    slots: Arc<Mutex<Vec<BoardSlot>>>,
}

#[derive(Debug, Clone, Copy, Default)]
struct BoardSlot {
    term: u64,
    is_leader: bool,
    commit: u64,
    exited: bool,
}

impl ConsensusBoard {
    fn new(replicas: u32) -> Self {
        ConsensusBoard {
            slots: Arc::new(Mutex::new(vec![BoardSlot::default(); replicas as usize])),
        }
    }

    fn update(&self, id: u32, term: u64, is_leader: bool, commit: u64) {
        let mut slots = self.slots.lock();
        slots[id as usize] = BoardSlot {
            term,
            is_leader,
            commit,
            exited: false,
        };
    }

    fn mark_exited(&self, id: u32) {
        self.slots.lock()[id as usize].exited = true;
    }

    /// `(max term, leader replica id if any, max commit)` across live slots.
    fn view(&self) -> (u64, Option<u32>, u64) {
        let slots = self.slots.lock();
        let mut term = 0;
        let mut commit = 0;
        let mut leader: Option<(u64, u32)> = None;
        for (k, s) in slots.iter().enumerate() {
            if s.exited {
                continue;
            }
            term = term.max(s.term);
            commit = commit.max(s.commit);
            if s.is_leader && leader.is_none_or(|(t, _)| s.term > t) {
                leader = Some((s.term, k as u32));
            }
        }
        (term, leader.map(|(_, k)| k), commit)
    }
}

/// Derive `/healthz`'s consensus line and the Prometheus consensus gauges
/// from the board. Every live replica publishes the same merged view, so
/// writes race benignly.
fn publish_consensus(
    board: &ConsensusBoard,
    health: &HealthView,
    metrics: Option<&MetricsRegistry>,
    replicas: u32,
) {
    let (term, leader, commit) = board.view();
    health.set_consensus(Some(ConsensusHealth {
        term,
        leader: leader.map(|k| format!("supervisor{k}")),
        replicas,
    }));
    if let Some(reg) = metrics {
        reg.set_gauge("consensus_term", term as f64);
        reg.set_gauge(
            "consensus_is_leader",
            if leader.is_some() { 1.0 } else { 0.0 },
        );
        reg.set_gauge("consensus_commits_total", commit as f64);
    }
}

/// Fault-tolerance knobs of the resilient runtime.
#[derive(Debug, Clone)]
pub struct RecoveryConfig {
    /// How often each server heartbeats the supervisor.
    pub heartbeat_every: Duration,
    /// Silence after which the supervisor declares a server dead. Should be
    /// several heartbeat intervals.
    pub liveness_timeout: Duration,
    /// Capture a checkpoint every this many `V_train` advances (and once at
    /// startup, so recovery always has something to restore).
    pub checkpoint_every: u64,
    /// Deterministic crash: server `m` exits (without drain or farewell) as
    /// soon as its shard's `V_train` reaches the threshold. One-shot — the
    /// replacement does not inherit the switch.
    pub kill_server: Option<(u32, u64)>,
    /// `true`: a dead server is replaced from its latest checkpoint.
    /// `false`: degraded mode — survivors adopt the dead server's keys.
    pub spawn_replacement: bool,
    /// Client-side resilience policy installed on every worker.
    pub retry: RetryPolicy,
    /// Seeded fault schedule applied to all worker/server messaging.
    pub fault_plan: FaultPlan,
    /// Number of supervisor replicas forming the control-plane quorum.
    /// 1 (the default) is solo mode — instant leadership, instant commit,
    /// the exact pre-quorum behavior on the same code path. 3+ survives
    /// leader death by election.
    pub num_supervisors: u32,
    /// Deterministic supervisor crashes: replica `k` exits (without drain
    /// or farewell) as soon as it has applied commit index `v`. Repeatable:
    /// killing the leader exercises failover; killing a quorum (2 of 3)
    /// exercises explicit leaderless degradation.
    pub kill_supervisors: Vec<(u32, u64)>,
    /// Base election timeout of the consensus layer (effective timeouts add
    /// seeded jitter). Must be strictly longer than `leader_lease`.
    pub election_timeout: Duration,
    /// Leadership lease: a leader that cannot hear acks from a quorum
    /// within this window steps down instead of acting on stale authority.
    pub leader_lease: Duration,
    /// When set, supervisor replicas publish the `consensus_term`,
    /// `consensus_is_leader` and `consensus_commits_total` gauges (with
    /// HELP lines) into this registry.
    pub metrics: Option<MetricsRegistry>,
    /// Streaming health engine to feed with this run's trace events. With
    /// an in-process collector ([`Obs::collector`] set, [`Obs::stream_to`]
    /// unset) the cluster spawns a [`HealthTap`] draining that collector
    /// into the engine, and at shutdown drains the supervisors' recovery
    /// events into it before finishing it. When streaming, feeding is the
    /// collector service's job — attach the same engine there (see
    /// `fluentps_transport::CollectorService::attach_health`); the cluster
    /// never double-feeds.
    pub health_engine: Option<HealthEngine>,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            heartbeat_every: Duration::from_millis(25),
            liveness_timeout: Duration::from_millis(150),
            checkpoint_every: 2,
            kill_server: None,
            spawn_replacement: true,
            retry: RetryPolicy::default(),
            fault_plan: FaultPlan::passthrough(),
            num_supervisors: 1,
            kill_supervisors: Vec::new(),
            election_timeout: Duration::from_millis(300),
            leader_lease: Duration::from_millis(150),
            metrics: None,
            health_engine: None,
        }
    }
}

impl RecoveryConfig {
    /// Check the timing invariants a non-flapping configuration must hold:
    /// a liveness timeout no longer than the heartbeat interval would
    /// declare healthy servers dead between two heartbeats, and an election
    /// timeout not strictly longer than the leader lease would let a
    /// follower depose a leader that is still inside its lease.
    /// [`ResilientTcpCluster::launch`] rejects invalid configurations up
    /// front by panicking with the returned message.
    pub fn validate(&self) -> Result<(), String> {
        if self.liveness_timeout <= self.heartbeat_every {
            return Err(format!(
                "liveness_timeout ({:?}) must be strictly longer than heartbeat_every ({:?}): \
                 anything shorter declares servers dead between two heartbeats",
                self.liveness_timeout, self.heartbeat_every
            ));
        }
        if self.election_timeout <= self.leader_lease {
            return Err(format!(
                "election_timeout ({:?}) must be strictly longer than leader_lease ({:?}): \
                 anything shorter lets followers depose a leader still inside its lease",
                self.election_timeout, self.leader_lease
            ));
        }
        if self.num_supervisors == 0 {
            return Err("num_supervisors must be at least 1".to_string());
        }
        Ok(())
    }
}

/// Handle to a running fault-tolerant TCP cluster.
pub struct ResilientTcpCluster {
    supervisors: Vec<JoinHandle<Vec<ShardStats>>>,
    control: TcpPostman,
    _control_node: TcpNode,
    injector: FaultInjector,
    health: HealthView,
    /// Streamers for the worker clients' trace rings; stopped (with a
    /// final flush) at shutdown, after the caller's worker threads are
    /// done recording.
    worker_streamers: Vec<TraceStreamer>,
    /// Streamers for the supervisor replicas' own events (deaths,
    /// restores, remaps, elections); stopped after the replica threads are
    /// joined but *before* any join result is unwrapped, so a panicking
    /// replica cannot leak its streamer thread.
    supervisor_streamers: Vec<TraceStreamer>,
    /// Server thread handles, shared with the supervisor replicas so any
    /// live replica (or [`ResilientTcpCluster::shutdown`] itself, when
    /// every replica crashed) can drain them exactly once.
    shared: SharedState,
    num_servers: u32,
    liveness_timeout: Duration,
    num_supervisors: u32,
    /// Tap feeding [`RecoveryConfig::health_engine`] from the in-process
    /// collector (only when not streaming); drained at shutdown, before
    /// the engine is finalized.
    health_tap: Option<(HealthEngine, HealthTap)>,
    /// Where each node listens; shared live with every postman, so a
    /// replacement server becomes reachable the moment it rebinds.
    pub addresses: AddressBook,
}

impl ResilientTcpCluster {
    /// Launch servers, a supervisor and fault-wrapped worker clients; with
    /// a `collector`, every node records into it.
    pub fn launch(
        cfg: EngineConfig,
        rcfg: RecoveryConfig,
        map: SliceMap,
        init: &HashMap<u64, Vec<f32>>,
        collector: Option<&TraceCollector>,
    ) -> Result<(ResilientTcpCluster, Vec<ResilientWorker>), TransportError> {
        let obs = Obs {
            collector: collector.cloned(),
            ..Obs::default()
        };
        Self::launch_observed(cfg, rcfg, map, init, &obs)
    }

    /// [`ResilientTcpCluster::launch`] with every node — server loops,
    /// replacement servers, worker clients, supervisor replicas and
    /// sockets — recording what `obs` asks for.
    pub fn launch_observed(
        cfg: EngineConfig,
        rcfg: RecoveryConfig,
        map: SliceMap,
        init: &HashMap<u64, Vec<f32>>,
        obs: &Obs,
    ) -> Result<(ResilientTcpCluster, Vec<ResilientWorker>), TransportError> {
        assert_eq!(map.num_servers(), cfg.num_servers, "map/server mismatch");
        if let Err(e) = rcfg.validate() {
            panic!("invalid RecoveryConfig: {e}");
        }
        // The supervisor replicas bind first, so server heartbeats always
        // have an address to dial.
        let wiring = TcpWiring::bind(&cfg, rcfg.num_supervisors, obs)?;
        let ring = obs.ring();
        let injector = FaultInjector::new(rcfg.fault_plan.clone());
        let store: CheckpointStore = Arc::new(Mutex::new(HashMap::new()));
        let health = HealthView::new();
        let book = wiring.book;

        let stop = Arc::new(AtomicBool::new(false));
        let mut handles = Vec::with_capacity(cfg.num_servers as usize);
        for (m, (rx, tx)) in (0..).zip(wiring.servers) {
            let (tracer, profiler, streamer) = obs.node(NodeId::Server(m), &ring);
            let mut server = ServerLoop::launch(&cfg, cfg.model, m, &map, init, tracer, profiler);
            let mut keys: Vec<u64> = map
                .placements()
                .iter()
                .filter(|p| p.server == m)
                .map(|p| p.new_key)
                .collect();
            keys.sort_unstable();
            server.recovery = Some(Recovery::new(
                keys,
                vec![WorkerWindow::default(); cfg.num_workers as usize],
                rcfg.heartbeat_every,
                rcfg.checkpoint_every,
                rcfg.kill_server.and_then(|(k, v)| (k == m).then_some(v)),
                rcfg.num_supervisors,
                Arc::clone(&store),
                Arc::clone(&stop),
            ));
            handles.push((m, spawn_server(server, rx, tx, &injector, streamer)));
        }

        let router = Router::new(map.clone());
        let mut worker_streamers = Vec::new();
        let workers: Vec<ResilientWorker> = (0..)
            .zip(wiring.workers)
            .map(|(n, node)| {
                let postman = injector.postman(NodeId::Worker(n), node.postman());
                let mailbox = injector.mailbox(NodeId::Worker(n), node);
                let mut w = WorkerClient::new(n, postman, mailbox, router.clone());
                let (tracer, profiler, streamer) = obs.node(NodeId::Worker(n), &ring);
                worker_streamers.extend(streamer);
                w.set_tracer(tracer);
                w.set_profiler(profiler);
                w.set_retry_policy(rcfg.retry.clone());
                w
            })
            .collect();

        // Feed the health engine from the shared in-process collector. When
        // streaming to a collector service instead, that service owns the
        // feed (ClusterCollector::attach_health) — spawning a second tap
        // here would double-count every event.
        let health_tap = match (&rcfg.health_engine, &obs.collector, obs.stream_to) {
            (Some(engine), Some(col), None) => {
                let tap = engine.attach_to(col, Duration::from_millis(10));
                Some((engine.clone(), tap))
            }
            _ => None,
        };

        // Consensus gauges: HELP text once at launch, values published by
        // every live replica from the shared board.
        if let Some(reg) = &rcfg.metrics {
            reg.set_help(
                "consensus_term",
                "Highest consensus term observed across live supervisor replicas.",
            );
            reg.set_help(
                "consensus_is_leader",
                "1 when a live supervisor replica holds control-plane leadership, 0 when leaderless.",
            );
            reg.set_help(
                "consensus_commits_total",
                "Highest committed control-plane log index across live supervisor replicas.",
            );
        }
        let board = ConsensusBoard::new(rcfg.num_supervisors);
        // Published before any election: /healthz honestly reports the
        // control plane as not-yet-established until the first leader wins.
        publish_consensus(&board, &health, rcfg.metrics.as_ref(), rcfg.num_supervisors);

        let shared: SharedState = Arc::new(Mutex::new(SharedServers {
            handles,
            drained: false,
            stop,
        }));
        let mut supervisors = Vec::with_capacity(rcfg.num_supervisors as usize);
        let mut supervisor_streamers = Vec::new();
        for (k, node) in (0..).zip(wiring.supervisors) {
            // Replica 0 keeps the historical `scheduler` trace identity so
            // merged timelines stay comparable across cluster flavors;
            // extra replicas stream under their own supervisor id.
            let trace_id = if k == 0 {
                NodeId::Scheduler
            } else {
                NodeId::Supervisor(k)
            };
            let (sup_tracer, _, sup_streamer) = obs.node(trace_id, &ring);
            supervisor_streamers.extend(sup_streamer);
            let replica = SupervisorReplica {
                id: k,
                cfg: cfg.clone(),
                rcfg: rcfg.clone(),
                book: book.clone(),
                map: map.clone(),
                injector: injector.clone(),
                obs: obs.clone(),
                tracer: sup_tracer,
                store: Arc::clone(&store),
                shared: Arc::clone(&shared),
                generation: 0,
                health: health.clone(),
                board: board.clone(),
                consensus: Replica::new(ConsensusConfig {
                    id: k,
                    replicas: rcfg.num_supervisors,
                    heartbeat_every: rcfg.heartbeat_every,
                    leader_lease: rcfg.leader_lease,
                    election_timeout: rcfg.election_timeout,
                    seed: cfg.seed ^ 0x5EED_C0DE,
                }),
                applied: 0,
                pending_dead: BTreeSet::new(),
                dead_for_good: BTreeSet::new(),
                was_leader: false,
                next_request: 0,
            };
            let handle = std::thread::Builder::new()
                .name(format!("fluentps-supervisor-{k}"))
                .spawn(move || replica.run(node))
                .expect("spawn supervisor replica");
            supervisors.push(handle);
        }

        Ok((
            ResilientTcpCluster {
                supervisors,
                control: wiring.control.postman(),
                _control_node: wiring.control,
                injector,
                health,
                worker_streamers,
                supervisor_streamers,
                shared,
                num_servers: cfg.num_servers,
                liveness_timeout: rcfg.liveness_timeout,
                num_supervisors: rcfg.num_supervisors,
                health_tap,
                addresses: book,
            },
            workers,
        ))
    }

    /// The cluster's fault injector — tests use it to sever nodes or read
    /// fault statistics.
    pub fn injector(&self) -> &FaultInjector {
        &self.injector
    }

    /// The readiness view fed by the supervisor's liveness monitor; attach
    /// it to an introspection endpoint via
    /// `fluentps_obs::http::serve_observed`.
    pub fn health(&self) -> HealthView {
        self.health.clone()
    }

    /// Stop the supervisor replicas and every server; returns per-server
    /// statistics (a replaced server's incarnations are merged under its
    /// id).
    ///
    /// Call after the worker threads have finished: the workers' trace
    /// streamers final-flush here, so events recorded later would be lost.
    pub fn shutdown(self) -> Vec<ShardStats> {
        // Workers are done recording by contract; flush their rings first.
        for s in self.worker_streamers {
            s.stop();
        }
        for k in 0..self.num_supervisors {
            let _ = self.control.send(NodeId::Supervisor(k), Message::Shutdown);
        }
        // Collect every replica's join *result* before unwrapping any of
        // them: the supervisor streamers must be latch-stopped even when a
        // replica thread panicked, or the panic would propagate here first
        // and leak the streamer threads.
        let joined: Vec<std::thread::Result<Vec<ShardStats>>> =
            self.supervisors.into_iter().map(|h| h.join()).collect();
        for s in self.supervisor_streamers {
            s.stop();
        }
        let mut merged = vec![ShardStats::default(); self.num_servers as usize];
        // Fallback drain: when every replica crashed (quorum-loss chaos
        // kills all of them) nobody drained the server threads — do it
        // here so they exit and their statistics are not lost.
        let leftovers = drain_once(
            &self.shared,
            &self.control,
            self.num_servers,
            self.liveness_timeout,
        );
        for (m, stats) in leftovers.iter().enumerate() {
            merged[m].merge(stats);
        }
        // Drain the final events (including the replicas' recovery
        // records) into the health engine and freeze it.
        if let Some((engine, tap)) = self.health_tap {
            tap.stop();
            engine.finish();
        }
        for res in joined {
            let stats = res.expect("supervisor replica thread");
            for (m, s) in stats.iter().enumerate() {
                merged[m].merge(s);
            }
        }
        merged
    }
}

/// Run a resilient server loop behind the cluster's fault injector. The
/// `tx` node's id is an implementation detail; faults match on the
/// *logical* sender, so both halves are wrapped as `Server(m)`.
fn spawn_server(
    server: ServerLoop,
    rx: TcpNode,
    tx: TcpNode,
    injector: &FaultInjector,
    streamer: Option<TraceStreamer>,
) -> JoinHandle<ShardStats> {
    let m = server.shard.config().server_id;
    let postman = injector.postman(NodeId::Server(m), tx.postman());
    let mailbox = injector.mailbox(NodeId::Server(m), rx);
    server.spawn(
        format!("fluentps-rts-server-{m}"),
        mailbox,
        postman,
        tx,
        streamer,
    )
}

/// Drain the servers exactly once across all supervisor replicas and the
/// cluster's own fallback: whoever gets here first takes the shared
/// handles; later callers find `drained` set and get no statistics.
fn drain_once<P: Postman>(
    shared: &SharedState,
    postman: &P,
    num_servers: u32,
    liveness_timeout: Duration,
) -> Vec<ShardStats> {
    let (handles, stop) = {
        let mut shared = shared.lock();
        if shared.drained {
            return Vec::new();
        }
        shared.drained = true;
        (
            std::mem::take(&mut shared.handles),
            Arc::clone(&shared.stop),
        )
    };
    serve::drain(
        postman,
        num_servers,
        handles,
        Some((&stop, liveness_timeout)),
    )
}

/// Ship a batch of consensus messages; unreachable replicas (crashed ones)
/// simply fail the send and are skipped — the protocol tolerates loss.
fn send_consensus(postman: &TcpPostman, out: Vec<(NodeId, Message)>) {
    for (to, msg) in out {
        let _ = postman.send(to, msg);
    }
}

/// One supervisor replica: drives its consensus [`Replica`], observes
/// server heartbeats while leading, and applies committed control commands
/// to the recovery state machine.
///
/// Every recovery decision — death verdict, replacement, remap — flows
/// through the replicated log: the leader *proposes* (`DeclareDead`, then
/// `Replaced` or `Remapped`), and the effect (spawning the replacement,
/// sending `Install`/`RouteUpdate`) runs only when the entry *commits*.
/// A leader deposed mid-decision therefore cannot leave effects its
/// successor does not know about, and an un-replicated verdict simply
/// vanishes with the old term. Followers mirror the committed route table
/// by replaying `Remapped` entries through the same deterministic
/// [`EpsSlicer::remap_dead`], so whichever replica wins the next election
/// resumes from identical control-plane state.
struct SupervisorReplica {
    id: u32,
    cfg: EngineConfig,
    rcfg: RecoveryConfig,
    book: AddressBook,
    /// This replica's mirror of the route table; mutated only when a
    /// committed `Remapped` entry is applied, so all replicas hold
    /// identical maps at equal applied indices.
    map: SliceMap,
    injector: FaultInjector,
    /// What every node records; a replacement server gets its handles
    /// from here like the originals did.
    obs: Obs,
    /// This replica's own tracer. Without streaming it is the launch's
    /// shared ring, which a replacement server records into too.
    tracer: Tracer,
    store: CheckpointStore,
    shared: SharedState,
    generation: u64,
    health: HealthView,
    board: ConsensusBoard,
    consensus: Replica,
    /// Log index up to which this replica has applied committed entries.
    applied: u64,
    /// Committed `DeclareDead` verdicts not yet resolved by a committed
    /// `Replaced`/`Remapped` entry.
    pending_dead: BTreeSet<u32>,
    /// Servers whose death resolved to degraded mode — permanently dead.
    dead_for_good: BTreeSet<u32>,
    was_leader: bool,
    /// Counter for this replica's causal request ids; see
    /// [`SupervisorReplica::next_request_id`].
    next_request: u64,
}

impl SupervisorReplica {
    fn run(mut self, node: TcpNode) -> Vec<ShardStats> {
        let start = Instant::now();
        let timeout_ms = self.rcfg.liveness_timeout.as_millis() as u64;
        let mut liveness = LivenessMonitor::new(timeout_ms.max(1));
        for m in 0..self.cfg.num_servers {
            liveness.observe(NodeId::Server(m), 0);
        }
        let postman = node.postman();
        let tick = self.rcfg.heartbeat_every;
        let mut last_noop = Instant::now();

        loop {
            let now = start.elapsed();
            let now_ms = now.as_millis() as u64;
            // Drive the consensus state machine: elections, leader
            // heartbeats, lease checks.
            let out = self.consensus.tick(now);
            send_consensus(&postman, out);
            if self.consensus.is_leader() && !self.was_leader {
                self.on_accession(&mut liveness, now_ms);
            }
            self.was_leader = self.consensus.is_leader();

            if self.consensus.is_leader() {
                // A periodic no-op keeps the applied index advancing like a
                // clock, which is what gives `kill_supervisors` thresholds
                // ("die after applying index v") a deterministic meaning
                // even in runs where no server ever fails.
                if last_noop.elapsed() >= tick {
                    self.consensus.propose(ControlCommand::Tick, now);
                    last_noop = Instant::now();
                }
                // Death verdicts are proposals, not actions: the effect
                // waits for the quorum commit.
                for dead in liveness.dead_nodes(now_ms) {
                    let NodeId::Server(m) = dead else { continue };
                    liveness.remove(dead);
                    if self.pending_dead.contains(&m) || self.dead_for_good.contains(&m) {
                        continue;
                    }
                    self.tracer.record(
                        EventKind::NodeDeclaredDead,
                        RecordArgs::new().shard(m).v_train(now_ms),
                    );
                    self.consensus
                        .propose(ControlCommand::DeclareDead { server: m }, now);
                }
            }
            self.apply_committed(now, &postman, &mut liveness);

            // Deterministic replica crash: exit without drain or farewell
            // once the configured applied index is reached.
            if let Some(&(_, v)) = self
                .rcfg
                .kill_supervisors
                .iter()
                .find(|&&(k, _)| k == self.id)
            {
                if self.applied >= v {
                    self.board.mark_exited(self.id);
                    publish_consensus(
                        &self.board,
                        &self.health,
                        self.rcfg.metrics.as_ref(),
                        self.rcfg.num_supervisors,
                    );
                    return Vec::new();
                }
            }

            self.board.update(
                self.id,
                self.consensus.term(),
                self.consensus.is_leader(),
                self.consensus.commit_index(),
            );
            publish_consensus(
                &self.board,
                &self.health,
                self.rcfg.metrics.as_ref(),
                self.rcfg.num_supervisors,
            );
            if self.consensus.is_leader() {
                self.publish_node_health(&liveness, now_ms);
            }

            match node.recv_timeout(tick) {
                Ok(Some((_, msg))) => match msg {
                    Message::Heartbeat { node: n, .. } => {
                        if self.consensus.is_leader() {
                            let ignore = matches!(n, NodeId::Server(m)
                                if self.pending_dead.contains(&m)
                                    || self.dead_for_good.contains(&m));
                            if !ignore {
                                liveness.observe(n, start.elapsed().as_millis() as u64);
                            }
                        } else if let NodeId::Server(m) = n {
                            // Redirect the server to whoever we believe
                            // leads; `NO_LEADER` while an election runs.
                            let _ = postman.send(
                                NodeId::Server(m),
                                Message::LeaderRedirect {
                                    term: self.consensus.term(),
                                    leader: self.consensus.leader_hint().unwrap_or(NO_LEADER),
                                },
                            );
                        }
                    }
                    Message::VoteRequest { .. }
                    | Message::VoteResponse { .. }
                    | Message::AppendEntries { .. }
                    | Message::AppendAck { .. } => {
                        let out = self.consensus.handle(&msg, start.elapsed());
                        send_consensus(&postman, out);
                    }
                    Message::Shutdown => break,
                    _ => {}
                },
                Ok(None) => {}
                Err(_) => break,
            }
        }
        drain_once(
            &self.shared,
            &postman,
            self.cfg.num_servers,
            self.rcfg.liveness_timeout,
        )
    }

    /// This replica just won an election. A follower's liveness view is
    /// cold — it was not the one observing heartbeats — so give every
    /// server that is not conclusively dead a fresh grace period, and put
    /// committed-but-unresolved death verdicts back under observation too:
    /// if the previous leader already spawned a replacement it will
    /// heartbeat within the grace period, otherwise the server is
    /// re-declared and resolved by *this* leader. Recovery is thereby
    /// at-least-once across leaders without ever double-spawning.
    fn on_accession(&mut self, liveness: &mut LivenessMonitor, now_ms: u64) {
        for m in 0..self.cfg.num_servers {
            if !self.dead_for_good.contains(&m) {
                liveness.observe(NodeId::Server(m), now_ms);
                self.pending_dead.remove(&m);
            }
        }
        let term = self.consensus.term();
        self.tracer.record(
            EventKind::LeaderElected,
            RecordArgs::new().shard(self.id).v_train(term),
        );
        if term > 1 && self.rcfg.num_supervisors > 1 {
            self.tracer.record(
                EventKind::SupervisorFailover,
                RecordArgs::new().shard(self.id).v_train(term),
            );
        }
    }

    /// Apply every newly committed log entry to the recovery state
    /// machine. Followers track verdicts and mirror the route table; only
    /// the current leader performs effects (spawning, installing,
    /// re-routing) — the single-leader-commit rule makes that safe.
    fn apply_committed(
        &mut self,
        now: Duration,
        postman: &TcpPostman,
        liveness: &mut LivenessMonitor,
    ) {
        // Copied out: resolving a verdict proposes follow-up entries,
        // which appends to the log being iterated.
        let entries: Vec<LogEntry> = self.consensus.committed_since(self.applied).to_vec();
        for e in entries {
            self.applied = e.index;
            let server = match e.cmd {
                ControlCommand::Tick => continue,
                ControlCommand::DeclareDead { server: m } => {
                    if !self.pending_dead.contains(&m) && !self.dead_for_good.contains(&m) {
                        self.pending_dead.insert(m);
                        if self.consensus.is_leader() {
                            self.resolve_dead(m, now);
                        }
                    }
                    m
                }
                ControlCommand::Replaced { server: m } => {
                    self.pending_dead.remove(&m);
                    if self.consensus.is_leader() {
                        if self.try_replace(m) {
                            // Fresh grace period for the replacement.
                            liveness.observe(NodeId::Server(m), now.as_millis() as u64);
                        } else {
                            // Checkpoint vanished or the bind failed —
                            // correct course through the log.
                            self.pending_dead.insert(m);
                            self.consensus
                                .propose(ControlCommand::Remapped { server: m }, now);
                        }
                    }
                    m
                }
                ControlCommand::Remapped { server: m } => {
                    self.pending_dead.remove(&m);
                    if self.dead_for_good.insert(m) {
                        let (remapped, moved) = EpsSlicer::default().remap_dead(&self.map, m);
                        if self.consensus.is_leader() {
                            self.degrade_effect(m, &remapped, moved, postman);
                        }
                        // Every replica mirrors the committed route table,
                        // so a successor leader remaps from identical
                        // state.
                        self.map = remapped;
                    }
                    m
                }
            };
            self.tracer.record(
                EventKind::ConsensusCommit,
                RecordArgs::new().shard(server).v_train(e.index),
            );
        }
    }

    /// Decide how a committed death verdict resolves and put the decision
    /// in the log; the effect runs when the resolution entry commits.
    fn resolve_dead(&mut self, m: u32, now: Duration) {
        let replaceable = self.rcfg.spawn_replacement
            && self
                .store
                .lock()
                .get(&m)
                .is_some_and(|b| ShardCheckpoint::from_bytes(b.clone()).is_ok());
        let cmd = if replaceable {
            ControlCommand::Replaced { server: m }
        } else {
            ControlCommand::Remapped { server: m }
        };
        self.consensus.propose(cmd, now);
    }

    fn publish_node_health(&self, liveness: &LivenessMonitor, now: u64) {
        let mut nodes = Vec::with_capacity(self.cfg.num_servers as usize);
        for m in 0..self.cfg.num_servers {
            let id = NodeId::Server(m);
            let (age, is_dead) =
                if self.dead_for_good.contains(&m) || self.pending_dead.contains(&m) {
                    (now, true)
                } else {
                    let last = liveness.last_seen(id);
                    (now.saturating_sub(last.unwrap_or(0)), last.is_none())
                };
            nodes.push(NodeHealth {
                name: format!("server{m}"),
                last_seen_age_ms: age,
                dead: is_dead,
            });
        }
        self.health.update(nodes);
    }

    /// Spawn a replacement for dead server `m` from its latest checkpoint.
    /// Returns false when no usable checkpoint exists.
    fn try_replace(&mut self, m: u32) -> bool {
        let Some(bytes) = self.store.lock().get(&m).cloned() else {
            return false;
        };
        let Ok(cp) = ShardCheckpoint::from_bytes(bytes.clone()) else {
            return false;
        };
        let Ok((rx, tx)) = bind_server(&self.cfg, m, &self.book, &self.obs) else {
            return false;
        };

        let mut shard = new_shard(&self.cfg, self.cfg.model, m);
        // A streaming replacement gets its own collector+streamer: on the
        // merged timeline it is a new incarnation of `serverM` (the
        // collector folds the restarted batch sequence into the same
        // per-node accounting).
        let (rep_tracer, rep_profiler, rep_streamer) =
            self.obs.node(NodeId::Server(m), &self.tracer);
        shard.set_tracer(rep_tracer.clone());
        cp.restore_into(&mut shard);
        let keys = cp.params.keys.clone();
        let watermarks = cp.applied_watermarks();
        for (w, mark) in watermarks.iter().enumerate() {
            if let Some(mark) = mark {
                // Rebuild the push counts the conditions run on; without
                // this, deduplicated replays would never re-enter
                // `Count[i]` and `V_train` could stall (see
                // `ServerShard::seed_applied`).
                shard.seed_applied(w as u32, *mark);
            }
        }
        let seen = watermarks.into_iter().map(WorkerWindow::at).collect();
        // A replacement is a control-plane action like a remap: give it a
        // supervisor request id so the restoration shows up as a retained
        // (recovery-touched) waterfall even though it sends no messages.
        let restore_id = self.next_request_id();
        self.tracer.record(
            EventKind::CheckpointRestored,
            RecordArgs::new()
                .shard(m)
                .v_train(cp.v_train)
                .bytes(bytes.len() as u64)
                .request_id(restore_id),
        );
        self.generation += 1;
        let rng = StdRng::seed_from_u64(
            self.cfg
                .seed
                .wrapping_add(m as u64 + 1)
                .wrapping_add(self.generation.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        );
        let server = ServerLoop {
            shard,
            rng,
            tracer: rep_tracer,
            profiler: rep_profiler,
            // The kill switch simulates *one* crash. A replacement
            // inheriting it would re-die the moment a replayed push brings
            // `V_train` back to the threshold, restoring the same
            // checkpoint each time — a permanent crash loop whenever the
            // sync model lets workers run ahead of `V_train` (SSP/PSSP).
            recovery: Some(Recovery::new(
                keys,
                seen,
                self.rcfg.heartbeat_every,
                self.rcfg.checkpoint_every,
                None,
                self.rcfg.num_supervisors,
                Arc::clone(&self.store),
                Arc::clone(&self.shared.lock().stop),
            )),
        };
        let handle = spawn_server(server, rx, tx, &self.injector, rep_streamer);
        self.shared.lock().handles.push((m, handle));
        true
    }

    /// Degraded-mode effect, run by the leader when a `Remapped` entry
    /// commits: survivors adopt the dead server's keys. Orphaned
    /// parameters are installed from the latest checkpoint (when one
    /// exists; otherwise survivors re-initialize them at zero), then every
    /// worker gets the new routing. The route-table mutation itself
    /// happens in [`SupervisorReplica::apply_committed`] on every replica.
    fn degrade_effect(&mut self, m: u32, remapped: &SliceMap, moved: usize, postman: &TcpPostman) {
        let survivors: Vec<u32> = (0..self.cfg.num_servers).filter(|&s| s != m).collect();
        if survivors.is_empty() {
            return; // nothing to degrade onto
        }
        // One causal context covers the whole remap fan-out, so the
        // `Install`s and `RouteUpdate`s of a single recovery action — and
        // every `ShardRemapped`-adjacent event — share a waterfall. The tail
        // sampler always retains recovery-touched requests.
        let ctx = CausalCtx::new(self.next_request_id());
        self.tracer.record(
            EventKind::ShardRemapped,
            RecordArgs::new()
                .shard(m)
                .bytes(moved as u64)
                .request_id(ctx.request_id),
        );

        // Recover the orphaned parameter values from the dead server's
        // checkpoint where possible.
        let orphan_params: HashMap<u64, Vec<f32>> = self
            .store
            .lock()
            .get(&m)
            .cloned()
            .and_then(|b| ShardCheckpoint::from_bytes(b).ok())
            .map(|cp| cp.params.iter().map(|(k, v)| (k, v.to_vec())).collect())
            .unwrap_or_default();

        // Recovery control traffic bypasses the fault injector on purpose,
        // like the final shutdown: a chaos schedule must not be able to
        // blackhole the recovery protocol itself.
        let send = |to: NodeId, msg: Message| {
            let _ = postman.send(to, msg);
        };
        for &s in &survivors {
            let mut kv = KvPairs::default();
            for p in remapped
                .placements()
                .iter()
                .filter(|p| p.server == s && self.map.server_of(p.new_key) == Some(m))
            {
                let vals = orphan_params
                    .get(&p.new_key)
                    .cloned()
                    .unwrap_or_else(|| vec![0.0; p.len]);
                kv.keys.push(p.new_key);
                kv.lens.push(vals.len() as u32);
                kv.vals.extend_from_slice(&vals);
            }
            if !kv.is_empty() {
                send(NodeId::Server(s), Message::Install { kv }.with_ctx(ctx));
            }
        }

        let wire: Vec<WirePlacement> = remapped
            .placements()
            .iter()
            .map(|p| WirePlacement {
                orig_key: p.orig_key,
                new_key: p.new_key,
                server: p.server,
                offset: p.offset as u32,
                len: p.len as u32,
            })
            .collect();
        for n in 0..self.cfg.num_workers {
            send(
                NodeId::Worker(n),
                Message::RouteUpdate {
                    placements: wire.clone(),
                }
                .with_ctx(ctx),
            );
        }
    }

    /// Allocate a causal request id in the supervisor space: the top bit
    /// distinguishes control-plane requests from worker traffic, then the
    /// replica id above a 40-bit per-replica counter — deterministic and
    /// collision-free against [`WorkerClient`]'s id scheme.
    fn next_request_id(&mut self) -> u64 {
        self.next_request += 1;
        (1u64 << 63) | ((self.id as u64 + 1) << 40) | self.next_request
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::condition::SyncModel;
    use crate::eps::{EpsSlicer, ParamSpec, Slicer};

    fn fast_recovery(kill: Option<(u32, u64)>, replace: bool) -> RecoveryConfig {
        RecoveryConfig {
            heartbeat_every: Duration::from_millis(10),
            liveness_timeout: Duration::from_millis(60),
            checkpoint_every: 1,
            kill_server: kill,
            spawn_replacement: replace,
            retry: RetryPolicy {
                timeout: Duration::from_millis(50),
                max_retries: 80,
                backoff_base: Duration::from_millis(2),
                backoff_cap: Duration::from_millis(40),
                jitter_seed: 7,
                replay_depth: 16,
            },
            fault_plan: FaultPlan::passthrough(),
            election_timeout: Duration::from_millis(120),
            leader_lease: Duration::from_millis(60),
            ..RecoveryConfig::default()
        }
    }

    fn two_server_setup() -> (EngineConfig, SliceMap, HashMap<u64, Vec<f32>>) {
        let specs = vec![ParamSpec { key: 0, len: 4 }, ParamSpec { key: 1, len: 4 }];
        let mut init = HashMap::new();
        init.insert(0u64, vec![0.0; 4]);
        init.insert(1u64, vec![0.0; 4]);
        let map = EpsSlicer { max_chunk: 4 }.slice(&specs, 2);
        let cfg = EngineConfig {
            num_workers: 1,
            num_servers: 2,
            model: SyncModel::Bsp,
            ..EngineConfig::default()
        };
        (cfg, map, init)
    }

    #[test]
    fn killed_server_is_replaced_and_training_stays_exact() {
        let (cfg, map, init) = two_server_setup();
        let (cluster, mut workers) =
            ResilientTcpCluster::launch(cfg, fast_recovery(Some((0, 2)), true), map, &init, None)
                .expect("launch");
        let mut w = workers.remove(0);
        let grads: HashMap<u64, Vec<f32>> =
            [(0u64, vec![1.0f32; 4]), (1u64, vec![1.0f32; 4])].into();
        let mut params = HashMap::new();
        for i in 0..5u64 {
            w.spush(i, &grads).expect("push");
            let report = w
                .spull_wait(i, &mut params)
                .expect("pull survives the kill");
            assert!(report.min_version > i, "BSP version bound at iter {i}");
        }
        // Recovery is exact: the replacement restores the checkpoint and the
        // dedup windows apply every replayed gradient exactly once, so after
        // 5 iterations of +1.0 every value is 5.0 despite the crash.
        assert_eq!(params[&0], vec![5.0; 4]);
        assert_eq!(params[&1], vec![5.0; 4]);
        let health = cluster.health();
        let stats = cluster.shutdown();
        // Both the original incarnation's and the replacement's work land in
        // server 0's merged statistics.
        assert!(stats[0].pushes >= 5, "merged pushes: {}", stats[0].pushes);
        // After replacement the cluster is whole again.
        assert_eq!(health.dead_count(), 0);
    }

    #[test]
    fn dead_server_without_replacement_degrades_onto_survivors() {
        let (cfg, map, init) = two_server_setup();
        let (cluster, mut workers) =
            ResilientTcpCluster::launch(cfg, fast_recovery(Some((0, 2)), false), map, &init, None)
                .expect("launch");
        let mut w = workers.remove(0);
        let grads: HashMap<u64, Vec<f32>> =
            [(0u64, vec![1.0f32; 4]), (1u64, vec![1.0f32; 4])].into();
        let mut params = HashMap::new();
        for i in 0..6u64 {
            w.spush(i, &grads).expect("push");
            w.spull_wait(i, &mut params)
                .expect("pull survives degradation");
        }
        // Degraded mode is available but not exact: in-flight gradients to
        // the dead shard may be lost, so only check liveness properties —
        // all iterations completed and both parameters are still served.
        assert_eq!(params[&0].len(), 4);
        assert_eq!(params[&1].len(), 4);
        let health = cluster.health();
        assert_eq!(health.dead_count(), 1, "server 0 stays dead");
        let (ready, body) = health.render();
        assert!(!ready);
        assert!(body.contains("node server0 age_ms"));
        let stats = cluster.shutdown();
        // The survivor carried the tail of training.
        assert!(stats[1].pushes >= 6);
    }

    #[test]
    fn collected_kill_run_merges_every_node_with_exact_accounting() {
        use fluentps_transport::CollectorService;

        let (cfg, map, init) = two_server_setup();
        let mut service = CollectorService::bind("127.0.0.1:0".parse().unwrap(), 1 << 12)
            .expect("bind collector");
        let obs = Obs {
            stream_to: Some((service.local_addr(), 1 << 10)),
            ..Obs::default()
        };
        let (cluster, mut workers) = ResilientTcpCluster::launch_observed(
            cfg,
            fast_recovery(Some((0, 2)), true),
            map,
            &init,
            &obs,
        )
        .expect("launch");
        let mut w = workers.remove(0);
        let grads: HashMap<u64, Vec<f32>> =
            [(0u64, vec![1.0f32; 4]), (1u64, vec![1.0f32; 4])].into();
        let mut params = HashMap::new();
        for i in 0..5u64 {
            w.spush(i, &grads).expect("push");
            w.spull_wait(i, &mut params).expect("pull");
        }
        drop(w); // worker thread done recording before shutdown() flushes
        cluster.shutdown();

        // Every node appears exactly once, and the killed server's two
        // incarnations fold into one stream.
        let stats = service.node_stats();
        let names: Vec<&str> = stats.iter().map(|s| s.node.as_str()).collect();
        assert_eq!(names, ["scheduler", "server0", "server1", "worker0"]);
        let server0 = &stats[1];
        assert_eq!(server0.incarnations, 2, "kill + replacement");
        service
            .check_balance()
            .expect("received + dropped == emitted on every node");

        // The merged timeline is monotone and includes the recovery events
        // the supervisor and the replacement recorded in *their* streams.
        let trace = service.snapshot();
        assert!(trace
            .events
            .windows(2)
            .all(|w| w[0].ts <= w[1].ts && w[0].seq < w[1].seq));
        assert!(trace.counts[EventKind::CheckpointRestored.index()] >= 1);
        assert!(trace.counts[EventKind::CheckpointCaptured.index()] >= 1);
        assert!(trace.counts[EventKind::PushApplied.index()] >= 5);
        service.stop();
    }

    #[test]
    fn validate_rejects_flapping_timing_configs() {
        assert!(RecoveryConfig::default().validate().is_ok());
        assert!(fast_recovery(None, true).validate().is_ok());

        let mut r = RecoveryConfig::default();
        r.liveness_timeout = r.heartbeat_every; // equal is already too tight
        assert!(r.validate().unwrap_err().contains("liveness_timeout"));

        let mut r = RecoveryConfig::default();
        r.election_timeout = r.leader_lease;
        assert!(r.validate().unwrap_err().contains("election_timeout"));

        let mut r = RecoveryConfig::default();
        r.num_supervisors = 0;
        assert!(r.validate().unwrap_err().contains("num_supervisors"));
    }

    /// Poll the shared health view until `pred` holds or the deadline
    /// passes (supervisor replicas publish asynchronously).
    fn await_consensus(health: &HealthView, what: &str, pred: impl Fn(&ConsensusHealth) -> bool) {
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            if health.consensus().as_ref().is_some_and(&pred) {
                return;
            }
            assert!(
                Instant::now() < deadline,
                "timed out waiting for consensus state: {what} (last: {:?})",
                health.consensus()
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn leader_kill_fails_over_and_training_completes() {
        let (cfg, map, init) = two_server_setup();
        let mut rcfg = fast_recovery(None, true);
        rcfg.num_supervisors = 3;
        // Replica 0 deterministically wins term 1, then dies after
        // applying a handful of entries; a follower must win term 2+.
        rcfg.kill_supervisors = vec![(0, 6)];
        let (cluster, mut workers) =
            ResilientTcpCluster::launch(cfg, rcfg, map, &init, None).expect("launch");
        let health = cluster.health();
        await_consensus(&health, "initial leader", |c| {
            c.leader.as_deref() == Some("supervisor0")
        });

        let mut w = workers.remove(0);
        let grads: HashMap<u64, Vec<f32>> =
            [(0u64, vec![1.0f32; 4]), (1u64, vec![1.0f32; 4])].into();
        let mut params = HashMap::new();
        for i in 0..8u64 {
            w.spush(i, &grads).expect("push");
            w.spull_wait(i, &mut params)
                .expect("pull survives the supervisor failover");
        }
        // Training is untouched by the control-plane failover: BSP, no
        // faults, so every value is exactly the iteration count.
        assert_eq!(params[&0], vec![8.0; 4]);
        assert_eq!(params[&1], vec![8.0; 4]);

        // A follower won a later term; the dead replica 0 cannot lead.
        await_consensus(&health, "post-failover leader", |c| {
            c.term >= 2 && c.leader.as_deref().is_some_and(|l| l != "supervisor0")
        });
        let stats = cluster.shutdown();
        assert!(stats.iter().map(|s| s.pushes).sum::<u64>() >= 16);
        assert_eq!(health.dead_count(), 0, "no server ever died");
    }

    #[test]
    fn quorum_loss_degrades_explicitly_and_training_still_completes() {
        let (cfg, map, init) = two_server_setup();
        let mut rcfg = fast_recovery(None, true);
        rcfg.num_supervisors = 3;
        // Two of three replicas die: whoever remains can never assemble a
        // quorum again, so the control plane must report leaderless —
        // explicitly degraded — rather than hang or split-brain.
        rcfg.kill_supervisors = vec![(0, 4), (1, 8)];
        let (cluster, mut workers) =
            ResilientTcpCluster::launch(cfg, rcfg, map, &init, None).expect("launch");
        let health = cluster.health();

        let mut w = workers.remove(0);
        let grads: HashMap<u64, Vec<f32>> =
            [(0u64, vec![1.0f32; 4]), (1u64, vec![1.0f32; 4])].into();
        let mut params = HashMap::new();
        for i in 0..6u64 {
            w.spush(i, &grads).expect("push");
            w.spull_wait(i, &mut params)
                .expect("training needs no control plane while servers live");
        }
        assert_eq!(params[&0], vec![6.0; 4]);

        await_consensus(&health, "leaderless after quorum loss", |c| {
            c.term >= 2 && c.leader.is_none()
        });
        let (ready, body) = health.render();
        assert!(!ready, "quorum loss must degrade /healthz");
        assert!(body.starts_with("degraded\n"), "body: {body}");
        assert!(body.contains("leader none"), "body: {body}");

        // The fallback drain in shutdown() still collects every server.
        let stats = cluster.shutdown();
        assert!(stats.iter().map(|s| s.pushes).sum::<u64>() >= 12);
    }

    #[test]
    fn chaos_run_is_deterministic_for_a_single_worker() {
        let run = |seed: u64| {
            let (cfg, map, init) = two_server_setup();
            let mut rcfg = fast_recovery(None, true);
            rcfg.fault_plan = FaultPlan::chaos(seed, 1, 2, 6, 8);
            let (cluster, mut workers) =
                ResilientTcpCluster::launch(cfg, rcfg, map, &init, None).expect("launch");
            let mut w = workers.remove(0);
            let grads: HashMap<u64, Vec<f32>> =
                [(0u64, vec![1.0f32; 4]), (1u64, vec![1.0f32; 4])].into();
            let mut params = HashMap::new();
            for i in 0..6u64 {
                w.spush(i, &grads).expect("push");
                w.spull_wait(i, &mut params).expect("pull");
            }
            let stats = cluster.shutdown();
            (params[&0].clone(), params[&1].clone(), stats)
        };
        let (p0a, p1a, sa) = run(42);
        let (p0b, p1b, sb) = run(42);
        // Same seed, same fault schedule, same message content: parameters
        // and logical statistics are bit-identical across runs.
        assert_eq!(p0a, p0b);
        assert_eq!(p1a, p1b);
        assert_eq!(
            sa.iter()
                .map(|s| (s.pushes, s.v_train_advances))
                .collect::<Vec<_>>(),
            sb.iter()
                .map(|s| (s.pushes, s.v_train_advances))
                .collect::<Vec<_>>()
        );
    }
}
