//! The server loop: one thread per shard, the same code in every runtime.
//!
//! Algorithm 1's `PushHandler`/`PullHandler` live in [`ServerShard`]; this
//! loop feeds it from a [`Mailbox`] and answers through a [`Postman`], so
//! the in-process, TCP and resilient TCP runtimes differ only in the
//! transport they hand it and in whether it carries a [`Recovery`] part.
//! Every handled message queues its replies (PushAck first, then released
//! PullResponses), each wrapped in its request's causal envelope and
//! traced as a `WireSend`, and the loop hands them to the transport as one
//! `send_batch` — TCP coalesces them into one write per worker; the
//! in-process and fault-injecting postmen deliver them one at a time.
//!
//! Without a recovery part the loop blocks in `recv()`: no timer
//! wake-ups, no dedup, no reply cache. With one it also deduplicates
//! replayed pushes, re-serves duplicate pulls from a reply cache,
//! heartbeats the supervisor, captures checkpoints, honours the
//! deterministic kill switch and the out-of-band stop flag, and handles
//! `Install`/`LeaderRedirect`.

use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fluentps_obs::{EventKind, Profiler, RecordArgs, Tracer, NO_ID};
use fluentps_util::buf::Bytes;
use fluentps_util::rng::StdRng;
use fluentps_util::sync::Mutex;

use fluentps_transport::collect::TraceStreamer;
use fluentps_transport::{frame, CausalCtx, Mailbox, Message, NodeId, Postman, NO_LEADER};

use crate::checkpoint::ShardCheckpoint;
use crate::engine::EngineConfig;
use crate::eps::SliceMap;
use crate::server::{stamp_ctx, PullOutcome, ReleasedPull, ServerShard, ShardConfig};
use crate::stats::ShardStats;
use crate::SyncModel;

/// Latest checkpoint per server id, shared between server loops (writers)
/// and the supervisor (reader at recovery time).
pub(crate) type CheckpointStore = Arc<Mutex<HashMap<u32, Bytes>>>;

/// A fresh shard for server `m` of a cluster configured by `cfg`.
pub(crate) fn new_shard(cfg: &EngineConfig, model: SyncModel, m: u32) -> ServerShard {
    ServerShard::new(ShardConfig {
        server_id: m,
        num_workers: cfg.num_workers,
        model,
        policy: cfg.policy,
        grad_scale: cfg.grad_scale,
    })
}

/// Per-worker applied-push window: a watermark (everything at or below is
/// applied) plus the out-of-order progresses above it. The window — rather
/// than a bare watermark — matters because a dropped push can arrive
/// *after* a later one was applied; a bare watermark would then reject the
/// replay forever and stall `V_train`.
#[derive(Debug, Clone, Default)]
pub(crate) struct WorkerWindow {
    watermark: Option<u64>,
    ahead: BTreeSet<u64>,
}

impl WorkerWindow {
    /// A window whose applied set is exactly `..=watermark`.
    pub(crate) fn at(watermark: Option<u64>) -> Self {
        WorkerWindow {
            watermark,
            ahead: BTreeSet::new(),
        }
    }

    fn is_applied(&self, progress: u64) -> bool {
        self.watermark.is_some_and(|w| progress <= w) || self.ahead.contains(&progress)
    }

    fn apply(&mut self, progress: u64) {
        self.ahead.insert(progress);
        loop {
            let next = self.watermark.map(|w| w + 1).unwrap_or(0);
            if self.ahead.remove(&next) {
                self.watermark = Some(next);
            } else {
                break;
            }
        }
    }

    /// True when every applied push is covered by the watermark — the only
    /// state in which the watermark alone describes the applied set, and
    /// therefore the only state safe to checkpoint.
    fn gapless(&self) -> bool {
        self.ahead.is_empty()
    }
}

/// The recovery part of a server loop (see the module docs).
pub(crate) struct Recovery {
    /// Wire keys this shard owns, sorted (checkpoint capture order).
    keys: Vec<u64>,
    seen: Vec<WorkerWindow>,
    /// Last pull answered per worker: `(progress, requested keys, full
    /// response)`. Keys are part of the match because a worker re-pulls
    /// the *same* progress with a *different* key set after a
    /// `RouteUpdate`; answering that from the cache would silently omit
    /// newly adopted parameters.
    last_reply: Vec<Option<(u64, Vec<u64>, Message)>>,
    /// Pull currently parked in the DPR buffer per worker.
    pending_pull: Vec<Option<u64>>,
    heartbeat_every: Duration,
    checkpoint_every: u64,
    /// Deterministic crash: exit without drain once `V_train` reaches this.
    kill_at: Option<u64>,
    supervisors: u32,
    store: CheckpointStore,
    /// Out-of-band shutdown latch, checked every wake-up. The drain
    /// routine sets it only for a server that has not exited on its
    /// `Shutdown` frame within the liveness timeout.
    stop: Arc<AtomicBool>,
    /// The supervisor replica this server believes currently leads. Wrong
    /// guesses are cheap: a live follower answers with a `LeaderRedirect`,
    /// and a crashed replica fails the send, rotating to the next one.
    leader: u32,
    hb_seq: u64,
    last_hb: Option<Instant>,
    checkpoint_due: bool,
    last_cp_v: Option<u64>,
}

/// What the recovery part decided before the next receive.
enum Wake {
    Receive,
    Stop,
    Crash,
}

impl Recovery {
    /// Recovery state for a shard owning `keys`, with the applied windows
    /// `seen` (one per worker). A checkpoint is captured at the first
    /// wake-up, so recovery always has something to restore.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        keys: Vec<u64>,
        seen: Vec<WorkerWindow>,
        heartbeat_every: Duration,
        checkpoint_every: u64,
        kill_at: Option<u64>,
        supervisors: u32,
        store: CheckpointStore,
        stop: Arc<AtomicBool>,
    ) -> Self {
        let workers = seen.len();
        Recovery {
            keys,
            seen,
            last_reply: vec![None; workers],
            pending_pull: vec![None; workers],
            heartbeat_every,
            checkpoint_every,
            kill_at,
            supervisors: supervisors.max(1),
            store,
            stop,
            leader: 0,
            hb_seq: 0,
            last_hb: None,
            checkpoint_due: true,
            last_cp_v: None,
        }
    }

    /// Stop flag, heartbeat, kill switch and checkpoint, in that order.
    /// The kill check runs before capture so state reached at the kill
    /// threshold dies uncaptured — recovery genuinely replays from an
    /// older snapshot.
    fn wake<P: Postman>(&mut self, shard: &ServerShard, tracer: &Tracer, postman: &P) -> Wake {
        if self.stop.load(Ordering::Relaxed) {
            return Wake::Stop;
        }
        let server_id = shard.config().server_id;
        if self
            .last_hb
            .is_none_or(|t| t.elapsed() >= self.heartbeat_every)
        {
            self.hb_seq += 1;
            let hb = Message::Heartbeat {
                node: NodeId::Server(server_id),
                seq: self.hb_seq,
            };
            if postman.send(NodeId::Supervisor(self.leader), hb).is_err() {
                self.leader = (self.leader + 1) % self.supervisors;
            }
            self.last_hb = Some(Instant::now());
        }
        if self.kill_at.is_some_and(|v| shard.v_train() >= v) {
            return Wake::Crash;
        }
        // A gap means the watermark under-describes the applied set.
        if self.checkpoint_due && self.seen.iter().all(WorkerWindow::gapless) {
            let applied: Vec<Option<u64>> = self.seen.iter().map(|w| w.watermark).collect();
            let cp = ShardCheckpoint::capture_with_applied(shard, &self.keys, &applied);
            let bytes = cp.to_bytes();
            tracer.record(
                EventKind::CheckpointCaptured,
                RecordArgs::new()
                    .shard(server_id)
                    .v_train(cp.v_train)
                    .bytes(bytes.len() as u64),
            );
            self.store.lock().insert(server_id, bytes);
            self.last_cp_v = Some(cp.v_train);
            self.checkpoint_due = false;
        }
        Wake::Receive
    }
}

/// One server thread's state: the shard, its PSSP draw stream, its
/// observability handles and the optional recovery part.
pub(crate) struct ServerLoop {
    pub(crate) shard: ServerShard,
    pub(crate) rng: StdRng,
    pub(crate) tracer: Tracer,
    pub(crate) profiler: Profiler,
    pub(crate) recovery: Option<Recovery>,
}

impl ServerLoop {
    /// Server `m` of `map`, its parameters initialised from `init` (zeros
    /// for keys `init` lacks), drawing from the `seed + m + 1` stream.
    pub(crate) fn launch(
        cfg: &EngineConfig,
        model: SyncModel,
        m: u32,
        map: &SliceMap,
        init: &HashMap<u64, Vec<f32>>,
        tracer: Tracer,
        profiler: Profiler,
    ) -> ServerLoop {
        let mut shard = new_shard(cfg, model, m);
        for p in map.placements().iter().filter(|p| p.server == m) {
            let vals = init
                .get(&p.orig_key)
                .map(|v| v[p.offset..p.offset + p.len].to_vec())
                .unwrap_or_else(|| vec![0.0; p.len]);
            shard.init_param(p.new_key, vals);
        }
        // The shard and its loop run on one thread; a clone shares the ring.
        shard.set_tracer(tracer.clone());
        ServerLoop {
            shard,
            rng: StdRng::seed_from_u64(cfg.seed.wrapping_add(m as u64 + 1)),
            tracer,
            profiler,
            recovery: None,
        }
    }

    /// Run the loop on its own thread named `name`. `keep` is held for
    /// the thread's lifetime (a TCP sender node whose postman `postman`
    /// wraps); `streamer` is final-flushed from the server's own thread
    /// after the loop exits, so a killed server still ships everything it
    /// recorded.
    pub(crate) fn spawn<M, P, K>(
        self,
        name: String,
        rx: M,
        postman: P,
        keep: K,
        streamer: Option<TraceStreamer>,
    ) -> JoinHandle<ShardStats>
    where
        M: Mailbox + 'static,
        P: Postman + 'static,
        K: Send + 'static,
    {
        std::thread::Builder::new()
            .name(name)
            .spawn(move || {
                let stats = self.run(rx, postman);
                drop(keep);
                if let Some(s) = streamer {
                    s.stop();
                }
                stats
            })
            .expect("spawn server thread")
    }

    fn run<M: Mailbox, P: Postman>(mut self, rx: M, postman: P) -> ShardStats {
        let mut replies: Vec<(NodeId, Message)> = Vec::new();
        loop {
            let received = match &mut self.recovery {
                None => rx.recv().map(Some),
                Some(r) => match r.wake(&self.shard, &self.tracer, &postman) {
                    Wake::Receive => rx.recv_timeout(r.heartbeat_every),
                    Wake::Stop => {
                        self.handle(Message::Shutdown, None, &mut replies);
                        self.flush(&postman, &mut replies);
                        break;
                    }
                    Wake::Crash => return self.shard.stats().clone(),
                },
            };
            let msg = match received {
                Ok(Some((_, msg))) => msg,
                Ok(None) => continue,
                Err(_) => break,
            };
            let wire_bytes = if self.tracer.is_enabled() {
                frame::wire_len(&msg) as u64
            } else {
                0
            };
            let (ctx, msg) = msg.split_ctx();
            self.trace_recv(&msg, ctx, wire_bytes);
            let done = self.handle(msg, ctx, &mut replies);
            self.flush(&postman, &mut replies);
            if done {
                break;
            }
        }
        self.shard.stats().clone()
    }

    /// Hand every queued reply to the transport as one batch.
    fn flush<P: Postman>(&self, postman: &P, replies: &mut Vec<(NodeId, Message)>) {
        if !replies.is_empty() {
            // The flush is its own phase: frame encoding inside it shows up
            // as a nested `wire/encode` under `server/reply`.
            let _span = self.profiler.enter("server/reply");
            let _ = postman.send_batch(std::mem::take(replies));
        }
    }

    fn trace_recv(&self, msg: &Message, ctx: Option<CausalCtx>, wire_bytes: u64) {
        if !self.tracer.is_enabled() {
            return;
        }
        let worker = match msg {
            Message::SPush { worker, .. } | Message::SPull { worker, .. } => *worker,
            _ => NO_ID,
        };
        self.tracer.record(
            EventKind::WireRecv,
            stamp_ctx(
                RecordArgs::new()
                    .shard(self.shard.config().server_id)
                    .worker(worker)
                    .bytes(wire_bytes),
                ctx,
            ),
        );
    }

    /// Handle one message, queueing its replies. Returns true on shutdown.
    fn handle(
        &mut self,
        msg: Message,
        ctx: Option<CausalCtx>,
        replies: &mut Vec<(NodeId, Message)>,
    ) -> bool {
        let num_workers = self.shard.config().num_workers;
        match msg {
            // A worker id outside the cluster is ignored like any other
            // unexpected message: indexing per-worker state with it would
            // kill the server thread.
            Message::SPush { worker, .. } | Message::SPull { worker, .. }
                if worker >= num_workers => {}
            Message::SPush {
                worker,
                progress,
                kv,
            } => self.on_push(worker, progress, &kv, ctx, replies),
            Message::SPull {
                worker,
                progress,
                keys,
            } => self.on_pull(worker, progress, keys, ctx, replies),
            Message::Install { kv } => {
                if let Some(r) = &mut self.recovery {
                    // Degraded-mode hand-off of a dead server's keys: adopt
                    // the parameters verbatim.
                    for (key, vals) in kv.iter() {
                        self.shard.init_param(key, vals.to_vec());
                        if let Err(i) = r.keys.binary_search(&key) {
                            r.keys.insert(i, key);
                        }
                    }
                    r.checkpoint_due = true;
                }
            }
            Message::LeaderRedirect { leader, .. } => {
                // `NO_LEADER` means an election is in progress — keep the
                // current target rather than thrash between candidates.
                if let Some(r) = &mut self.recovery {
                    if leader != NO_LEADER && leader < r.supervisors {
                        r.leader = leader;
                    }
                }
            }
            Message::Shutdown => {
                let drained = self.shard.drain_shutdown();
                self.queue_released(drained, replies);
                return true;
            }
            _ => {}
        }
        false
    }

    fn on_push(
        &mut self,
        worker: u32,
        progress: u64,
        kv: &fluentps_transport::KvPairs,
        ctx: Option<CausalCtx>,
        replies: &mut Vec<(NodeId, Message)>,
    ) {
        let server_id = self.shard.config().server_id;
        let ack = wrap(
            Message::PushAck {
                server: server_id,
                progress,
            },
            ctx,
        );
        let w = worker as usize;
        let before = self.shard.v_train();
        let released = {
            let _span = self.profiler.enter("server/apply_push");
            if let Some(r) = &mut self.recovery {
                if r.seen[w].is_applied(progress) {
                    // Replay of an already-applied push: re-ack only, the
                    // shard (and its statistics) never sees it.
                    queue(replies, &self.tracer, server_id, worker, ack);
                    return;
                }
                r.seen[w].apply(progress);
            }
            let released = self.shard.on_push_ctx(worker, progress, kv, ctx);
            queue(replies, &self.tracer, server_id, worker, ack);
            released
        };
        if !released.is_empty() {
            let _span = self.profiler.enter("server/release_dprs");
            self.queue_released(released, replies);
        }
        if let Some(r) = &mut self.recovery {
            let after = self.shard.v_train();
            if after > before
                && r.checkpoint_every > 0
                && after >= r.last_cp_v.unwrap_or(0) + r.checkpoint_every
            {
                r.checkpoint_due = true;
            }
        }
    }

    fn on_pull(
        &mut self,
        worker: u32,
        progress: u64,
        keys: Vec<u64>,
        ctx: Option<CausalCtx>,
        replies: &mut Vec<(NodeId, Message)>,
    ) {
        let server_id = self.shard.config().server_id;
        let w = worker as usize;
        let _span = self.profiler.enter("server/handle_pull");
        if let Some(r) = &self.recovery {
            if r.pending_pull[w] == Some(progress) {
                // Re-issued pull for a round already parked in the DPR
                // buffer; the release will answer it.
                return;
            }
            if let Some((p, pkeys, resp)) = &r.last_reply[w] {
                if *p == progress && *pkeys == keys {
                    // Duplicate of an answered pull: re-send the cached
                    // response verbatim — no condition re-evaluation, no
                    // rng draw, no statistics drift.
                    queue(replies, &self.tracer, server_id, worker, resp.clone());
                    return;
                }
                if *p > progress {
                    // Stale retransmit of a round the worker has finished.
                    return;
                }
            }
            if keys.iter().any(|k| r.keys.binary_search(k).is_err()) {
                // The worker's routing ran ahead of our Install (the
                // supervisor's recovery messages race on separate
                // streams); its retry re-issues the pull once the
                // parameters have arrived.
                return;
            }
        }
        let draw: f64 = self.rng.gen();
        match self
            .shard
            .on_pull_ctx(worker, progress, &keys, draw, None, ctx)
        {
            PullOutcome::Respond { kv, version } => {
                let resp = wrap(
                    Message::PullResponse {
                        server: server_id,
                        progress,
                        kv,
                        version,
                    },
                    ctx,
                );
                if let Some(r) = &mut self.recovery {
                    r.last_reply[w] = Some((progress, keys, resp.clone()));
                }
                queue(replies, &self.tracer, server_id, worker, resp);
            }
            PullOutcome::Deferred => {
                if let Some(r) = &mut self.recovery {
                    r.pending_pull[w] = Some(progress);
                }
            }
        }
    }

    /// Queue the responses of released (or shutdown-drained) DPRs.
    fn queue_released(
        &mut self,
        released: Vec<ReleasedPull>,
        replies: &mut Vec<(NodeId, Message)>,
    ) {
        let server_id = self.shard.config().server_id;
        for r in released {
            let keys = if self.recovery.is_some() {
                r.kv.keys.clone()
            } else {
                Vec::new()
            };
            let resp = Message::PullResponse {
                server: server_id,
                progress: r.progress,
                kv: r.kv,
                version: r.version,
            };
            let resp = wrap(resp, r.ctx);
            if let Some(rec) = &mut self.recovery {
                rec.last_reply[r.worker as usize] = Some((r.progress, keys, resp.clone()));
                rec.pending_pull[r.worker as usize] = None;
            }
            queue(replies, &self.tracer, server_id, r.worker, resp);
        }
    }
}

/// Wrap a reply back in its request's envelope (when it carried one), so
/// every hop of the request's round trip shares a waterfall.
fn wrap(msg: Message, ctx: Option<CausalCtx>) -> Message {
    match ctx {
        Some(c) => msg.with_ctx(c),
        None => msg,
    }
}

/// Queue a reply to `worker`, tracing it as a `WireSend` of its exact
/// framed size under its causal context.
fn queue(
    replies: &mut Vec<(NodeId, Message)>,
    tracer: &Tracer,
    server_id: u32,
    worker: u32,
    msg: Message,
) {
    if tracer.is_enabled() {
        tracer.record(
            EventKind::WireSend,
            stamp_ctx(
                RecordArgs::new()
                    .shard(server_id)
                    .worker(worker)
                    .bytes(frame::wire_len(&msg) as u64),
                msg.ctx(),
            ),
        );
    }
    replies.push((NodeId::Worker(worker), msg));
}

/// Stop server threads and collect their statistics, merged per server id
/// (a replaced server's incarnations fold together). `Shutdown` goes to
/// every server first, so each one reads its frame, answers its parked
/// pulls and exits on the same path in every runtime. With `fallback` set,
/// a server still running after the timeout — the runtime's definition of
/// unresponsive — is stopped out of band through the latch; the latch is
/// also set once every thread is joined, so an incarnation spawned after
/// the drain began cannot outlive it.
pub(crate) fn drain<P: Postman>(
    postman: &P,
    num_servers: u32,
    handles: Vec<(u32, JoinHandle<ShardStats>)>,
    fallback: Option<(&AtomicBool, Duration)>,
) -> Vec<ShardStats> {
    for m in 0..num_servers {
        // Ignore failures: the server may already be gone.
        let _ = postman.send(NodeId::Server(m), Message::Shutdown);
    }
    if let Some((stop, timeout)) = fallback {
        let deadline = Instant::now() + timeout;
        while handles.iter().any(|(_, h)| !h.is_finished()) {
            if Instant::now() >= deadline {
                stop.store(true, Ordering::Relaxed);
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    let mut merged = vec![ShardStats::default(); num_servers as usize];
    for (m, handle) in handles {
        merged[m as usize].merge(&handle.join().expect("server thread panicked"));
    }
    if let Some((stop, _)) = fallback {
        stop.store(true, Ordering::Relaxed);
    }
    merged
}
