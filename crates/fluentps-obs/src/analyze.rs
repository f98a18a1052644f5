//! The trace-analytics engine: turns a recorded [`Trace`] into the derived
//! quantities the paper argues with — who the straggler is, where each
//! worker's time went, how long DPRs sat in the buffer, how stale granted
//! pulls actually were, and how often a pull at gap `k` was blocked
//! (empirical `Pr[blocked | gap=k]`, to be checked against the analytical
//! PSSP curves upstream).
//!
//! [`analyze`] is a replay of the trace through a
//! [`StreamAnalyzer`] with one all-run window (per-kind counts, span,
//! per-worker breakdowns, staleness gaps — the same code the live
//! [`crate::HealthEngine`] runs), plus three passes only a finished trace
//! allows: per-shard sync health, the progress-spread timeline and the
//! critical path. Wire receives pair with sends exactly by causal
//! `(request_id, attempt)` when the trace carries ids, and FIFO per
//! `(shard, worker)` stream when it does not; [`crate::stream`] spells out
//! the wire and pull/deferral matching rules.
//!
//! All derivations consume the *buffered* events; per-kind totals that
//! survive ring overwriting are reported alongside
//! ([`Analysis::recorded`] vs [`Analysis::analyzed`]) so a truncated trace
//! is visible rather than silently misleading.
//!
//! [`parse_jsonl`] reads the flat JSONL format written by
//! [`crate::export::jsonl`], so analysis works offline on exported files as
//! well as on a live [`crate::TraceCollector::snapshot`].

use std::collections::{BTreeMap, HashMap};

use crate::event::{EventKind, TraceEvent, KINDS, NO_ID};
use crate::hist::Histogram;
use crate::json;
use crate::stream::{StreamAnalyzer, StreamConfig};
use crate::tracer::Trace;

/// How many sample points the progress-spread timeline carries.
const SPREAD_POINTS: usize = 8;

/// Upper bound on critical-path backtracking, to keep extraction linear.
const MAX_PATH_STEPS: usize = 16;

/// Where one worker's time went, from the events that mention it.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerBreakdown {
    /// Worker id.
    pub worker: u32,
    /// Iterations observed for this worker (max `progress` + 1).
    pub iterations: u64,
    /// Timestamp of the worker's first buffered event.
    pub first_ts: f64,
    /// Timestamp (span end) of the worker's last buffered event.
    pub last_ts: f64,
    /// Seconds spent blocked in `BarrierWait` spans.
    pub barrier_secs: f64,
    /// Number of `BarrierWait` spans.
    pub barrier_count: u64,
    /// Seconds of matched `WireSend`→`WireRecv` latency involving this
    /// worker (both directions; see [`crate::stream`] for the matching
    /// rule).
    pub wire_secs: f64,
    /// Total bytes on `WireSend` events naming this worker.
    pub bytes_sent: u64,
    /// Total bytes on `WireRecv` events naming this worker.
    pub bytes_recvd: u64,
    /// `PullRequested` events from this worker.
    pub pulls: u64,
    /// `PullDeferred` events for this worker.
    pub deferred: u64,
}

impl WorkerBreakdown {
    /// Seconds between the worker's first and last buffered events.
    pub fn active_secs(&self) -> f64 {
        (self.last_ts - self.first_ts).max(0.0)
    }

    /// Active time minus barrier and wire time: compute plus anything the
    /// trace cannot attribute (server-side processing, queueing).
    pub fn compute_secs(&self) -> f64 {
        (self.active_secs() - self.barrier_secs - self.wire_secs).max(0.0)
    }
}

/// Synchronization health of one shard.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardHealth {
    /// Shard (server) id.
    pub shard: u32,
    /// Matched `PullDeferred`→`DprReleased` pairs.
    pub dpr_count: u64,
    /// Mean DPR residence time in seconds (0 when no pairs matched).
    pub dpr_residence_mean: f64,
    /// Longest DPR residence time in seconds.
    pub dpr_residence_max: f64,
    /// DPR residence times in microseconds (power-of-two buckets, so p50
    /// and p99 are upper bounds).
    pub dpr_residence_us: Histogram,
    /// `PullDeferred` events never matched by a `DprReleased` (still
    /// pending at snapshot, or the release was overwritten).
    pub outstanding_dprs: u64,
    /// `PushApplied` events on this shard.
    pub pushes: u64,
    /// `LatePushDropped` events on this shard.
    pub late_drops: u64,
    /// `VTrainAdvanced` events on this shard.
    pub v_train_advances: u64,
    /// Mean seconds between consecutive `VTrainAdvanced` events.
    pub advance_interval_mean: f64,
    /// Highest `v_train` seen on this shard's events.
    pub final_v_train: u64,
}

impl ShardHealth {
    /// Fraction of arriving pushes dropped as late:
    /// `late_drops / (pushes + late_drops)`.
    pub fn late_drop_rate(&self) -> f64 {
        let total = self.pushes + self.late_drops;
        if total == 0 {
            0.0
        } else {
            self.late_drops as f64 / total as f64
        }
    }
}

/// Pull outcomes at one staleness gap `k = progress - v_train`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GapStat {
    /// The gap `k` at pull time.
    pub gap: u64,
    /// `PullRequested` events arriving at this gap.
    pub pulls: u64,
    /// How many of those were deferred (became DPRs).
    pub deferred: u64,
}

impl GapStat {
    /// Pulls answered immediately at this gap.
    pub fn granted(&self) -> u64 {
        self.pulls - self.deferred
    }

    /// Empirical `Pr[blocked | gap=k]`: `deferred / pulls`.
    pub fn block_rate(&self) -> f64 {
        if self.pulls == 0 {
            0.0
        } else {
            self.deferred as f64 / self.pulls as f64
        }
    }
}

/// Worker progress dispersion at one moment: the Fig. 1 analogue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpreadPoint {
    /// Sample timestamp (seconds on the trace clock).
    pub ts: f64,
    /// Slowest worker's progress at `ts` (workers not yet seen count as 0).
    pub min_progress: u64,
    /// Fastest worker's progress at `ts`.
    pub max_progress: u64,
}

impl SpreadPoint {
    /// Iterations between the fastest and slowest worker.
    pub fn spread(&self) -> u64 {
        self.max_progress - self.min_progress
    }
}

/// One hop on the extracted critical path, walked backwards from the
/// longest DPR residence through the pull→defer→release→push chain.
#[derive(Debug, Clone, PartialEq)]
pub struct PathStep {
    /// What happened ("dpr wait", "push", "barrier wait", ...).
    pub what: &'static str,
    /// Shard involved, or [`NO_ID`].
    pub shard: u32,
    /// Worker involved, or [`NO_ID`].
    pub worker: u32,
    /// When the step started (seconds on the trace clock).
    pub ts: f64,
    /// Seconds attributed to the step (0 for instantaneous hops).
    pub secs: f64,
}

/// Everything [`analyze`] derives from one trace.
#[derive(Debug, Clone, Default)]
pub struct Analysis {
    /// Per-kind totals as recorded, surviving ring overwrites
    /// (from [`Trace::counts`]).
    pub recorded: [u64; KINDS],
    /// Per-kind totals over the buffered events actually analyzed.
    pub analyzed: [u64; KINDS],
    /// Events lost to ring overwriting before the snapshot.
    pub dropped: u64,
    /// First and last buffered timestamps (0,0 when the trace is empty).
    pub span: (f64, f64),
    /// Per-worker time breakdown, sorted by worker id.
    pub workers: Vec<WorkerBreakdown>,
    /// Per-shard sync health, sorted by shard id.
    pub shards: Vec<ShardHealth>,
    /// Pull outcomes per staleness gap, sorted by gap: the staleness
    /// histogram at pull time *and* the empirical block-rate curve.
    pub gaps: Vec<GapStat>,
    /// Progress spread over time ([`SPREAD_POINTS`] samples across the
    /// span; empty when no worker progress was observed).
    pub spread: Vec<SpreadPoint>,
    /// Critical path through the longest pull→defer→release→push chain,
    /// in causal order (earliest cause first, the longest DPR wait last).
    pub critical_path: Vec<PathStep>,
}

impl Analysis {
    /// Total events of `kind` ever recorded (robust to ring overflow).
    pub fn count(&self, kind: EventKind) -> u64 {
        self.recorded[kind.index()]
    }

    /// Largest gap at which at least one pull was *granted* — the
    /// staleness actually served to a worker. Under SSP with bound `s`
    /// this never exceeds `s - 1`.
    pub fn max_granted_staleness(&self) -> Option<u64> {
        self.gaps
            .iter()
            .filter(|g| g.granted() > 0)
            .map(|g| g.gap)
            .max()
    }

    /// The straggler: the worker with the fewest observed iterations
    /// (ties broken by later last activity).
    pub fn straggler(&self) -> Option<&WorkerBreakdown> {
        self.workers.iter().min_by(|a, b| {
            a.iterations.cmp(&b.iterations).then(
                b.last_ts
                    .partial_cmp(&a.last_ts)
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
        })
    }

    /// Total seconds attributed to the extracted critical path.
    pub fn critical_path_secs(&self) -> f64 {
        self.critical_path.iter().map(|s| s.secs).sum()
    }
}

/// Key identifying one logical pull: shards answer at most one pull per
/// `(shard, worker, progress)` triple, so defer/release pairs match on it.
type PullKey = (u32, u32, u64);

/// Replay `trace` through an all-run [`StreamAnalyzer`] and add the batch
/// passes, returning the combined [`Analysis`].
pub fn analyze(trace: &Trace) -> Analysis {
    let mut stream = StreamAnalyzer::new(StreamConfig::all_run());
    for ev in &trace.events {
        stream.advance_to(ev.ts);
        stream.ingest(ev);
    }
    Analysis {
        recorded: trace.counts,
        analyzed: EventKind::ALL.map(|kind| stream.count(kind)),
        dropped: trace.dropped,
        span: stream.span(),
        workers: stream.worker_breakdowns(),
        shards: shard_healths(trace),
        gaps: stream.gap_stats(),
        spread: progress_spread(trace),
        critical_path: critical_path(trace),
    }
}

fn shard_healths(trace: &Trace) -> Vec<ShardHealth> {
    let mut shards: BTreeMap<u32, ShardHealth> = BTreeMap::new();
    let mut pending: HashMap<PullKey, f64> = HashMap::new();
    let mut last_advance: HashMap<u32, f64> = HashMap::new();
    let mut advance_gaps: HashMap<u32, (f64, u64)> = HashMap::new();
    for ev in &trace.events {
        if ev.shard == NO_ID {
            continue;
        }
        let sh = shards.entry(ev.shard).or_insert(ShardHealth {
            shard: ev.shard,
            dpr_count: 0,
            dpr_residence_mean: 0.0,
            dpr_residence_max: 0.0,
            dpr_residence_us: Histogram::new(),
            outstanding_dprs: 0,
            pushes: 0,
            late_drops: 0,
            v_train_advances: 0,
            advance_interval_mean: 0.0,
            final_v_train: 0,
        });
        sh.final_v_train = sh.final_v_train.max(ev.v_train);
        match ev.kind {
            EventKind::PullDeferred => {
                pending.insert((ev.shard, ev.worker, ev.progress), ev.ts);
            }
            EventKind::DprReleased => {
                if let Some(deferred_at) = pending.remove(&(ev.shard, ev.worker, ev.progress)) {
                    let residence = (ev.ts - deferred_at).max(0.0);
                    // Running mean: mean += (x - mean) / n.
                    sh.dpr_count += 1;
                    sh.dpr_residence_mean +=
                        (residence - sh.dpr_residence_mean) / sh.dpr_count as f64;
                    sh.dpr_residence_max = sh.dpr_residence_max.max(residence);
                    sh.dpr_residence_us.record((residence * 1e6) as u64);
                }
            }
            EventKind::PushApplied => sh.pushes += 1,
            EventKind::LatePushDropped => sh.late_drops += 1,
            EventKind::VTrainAdvanced => {
                sh.v_train_advances += 1;
                if let Some(prev) = last_advance.insert(ev.shard, ev.ts) {
                    let (sum, n) = advance_gaps.entry(ev.shard).or_insert((0.0, 0));
                    *sum += (ev.ts - prev).max(0.0);
                    *n += 1;
                }
            }
            _ => {}
        }
    }
    for ((shard, _, _), _) in pending {
        if let Some(sh) = shards.get_mut(&shard) {
            sh.outstanding_dprs += 1;
        }
    }
    for (shard, (sum, n)) in advance_gaps {
        if let Some(sh) = shards.get_mut(&shard) {
            if n > 0 {
                sh.advance_interval_mean = sum / n as f64;
            }
        }
    }
    shards.into_values().collect()
}

fn progress_spread(trace: &Trace) -> Vec<SpreadPoint> {
    let mut worker_ids: Vec<u32> = Vec::new();
    for ev in &trace.events {
        if ev.worker != NO_ID && !worker_ids.contains(&ev.worker) {
            worker_ids.push(ev.worker);
        }
    }
    if worker_ids.is_empty() || trace.events.is_empty() {
        return Vec::new();
    }
    let (start, end) = (
        trace.events.first().expect("nonempty").ts,
        trace.events.last().expect("nonempty").ts,
    );
    if end <= start {
        return Vec::new();
    }
    let step = (end - start) / SPREAD_POINTS as f64;
    let mut progress: HashMap<u32, u64> = HashMap::new();
    let mut points = Vec::with_capacity(SPREAD_POINTS);
    let mut next_sample = start + step;
    let mut iter = trace.events.iter().peekable();
    for _ in 0..SPREAD_POINTS {
        while let Some(ev) = iter.peek() {
            if ev.ts > next_sample {
                break;
            }
            let ev = iter.next().expect("peeked");
            if ev.worker != NO_ID {
                let p = progress.entry(ev.worker).or_insert(0);
                *p = (*p).max(ev.progress);
            }
        }
        let min = worker_ids
            .iter()
            .map(|w| progress.get(w).copied().unwrap_or(0))
            .min()
            .unwrap_or(0);
        let max = worker_ids
            .iter()
            .map(|w| progress.get(w).copied().unwrap_or(0))
            .max()
            .unwrap_or(0);
        points.push(SpreadPoint {
            ts: next_sample,
            min_progress: min,
            max_progress: max,
        });
        next_sample += step;
    }
    points
}

/// Walk backwards from the longest-residence DPR: the release was caused by
/// a push on the same shard, that push came from a worker whose own latest
/// wait (a released DPR or a barrier) preceded it, and so on.
fn critical_path(trace: &Trace) -> Vec<PathStep> {
    // All matched (defer, release) pairs, indexed for the backward walk.
    let mut pending: HashMap<PullKey, &TraceEvent> = HashMap::new();
    let mut pairs: Vec<(&TraceEvent, &TraceEvent)> = Vec::new();
    for ev in &trace.events {
        match ev.kind {
            EventKind::PullDeferred => {
                pending.insert((ev.shard, ev.worker, ev.progress), ev);
            }
            EventKind::DprReleased => {
                if let Some(defer) = pending.remove(&(ev.shard, ev.worker, ev.progress)) {
                    pairs.push((defer, ev));
                }
            }
            _ => {}
        }
    }
    let longest = pairs
        .iter()
        .max_by(|a, b| {
            let ra = a.1.ts - a.0.ts;
            let rb = b.1.ts - b.0.ts;
            ra.partial_cmp(&rb).unwrap_or(std::cmp::Ordering::Equal)
        })
        .copied();
    let Some((defer, release)) = longest else {
        return Vec::new();
    };
    let mut steps = vec![PathStep {
        what: "dpr wait",
        shard: defer.shard,
        worker: defer.worker,
        ts: defer.ts,
        secs: (release.ts - defer.ts).max(0.0),
    }];
    let mut horizon = release.ts;
    let mut shard = release.shard;
    for _ in 0..MAX_PATH_STEPS {
        // The push that (last) advanced V_train on `shard` before the wait
        // ended — the event that let the release happen.
        let Some(push) = trace.events.iter().rev().find(|e| {
            e.kind == EventKind::PushApplied
                && e.shard == shard
                && e.ts <= horizon
                && e.ts > steps.last().expect("nonempty").ts
        }) else {
            break;
        };
        steps.push(PathStep {
            what: "push",
            shard: push.shard,
            worker: push.worker,
            ts: push.ts,
            secs: 0.0,
        });
        // What was the pushing worker itself waiting on before that?
        let Some(wait) = trace.events.iter().rev().find(|e| {
            e.worker == push.worker
                && e.ts < push.ts
                && matches!(e.kind, EventKind::DprReleased | EventKind::BarrierWait)
        }) else {
            break;
        };
        match wait.kind {
            EventKind::BarrierWait => {
                steps.push(PathStep {
                    what: "barrier wait",
                    shard: wait.shard,
                    worker: wait.worker,
                    ts: wait.ts,
                    secs: wait.dur,
                });
                break;
            }
            _ => {
                // A released DPR: attribute its residence and keep walking
                // through the shard that released it.
                let residence = pairs
                    .iter()
                    .find(|(_, r)| r.seq == wait.seq)
                    .map(|(d, r)| (r.ts - d.ts).max(0.0))
                    .unwrap_or(0.0);
                steps.push(PathStep {
                    what: "dpr wait",
                    shard: wait.shard,
                    worker: wait.worker,
                    ts: wait.ts - residence,
                    secs: residence,
                });
                shard = wait.shard;
                horizon = wait.ts;
            }
        }
    }
    steps.reverse();
    steps
}

/// Parse the flat JSONL format written by [`crate::export::jsonl`] back
/// into a [`Trace`]. Per-kind counts are rebuilt from the parsed events
/// (`dropped` information does not survive export).
pub fn parse_jsonl(text: &str) -> Result<Trace, String> {
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        json::validate(line).map_err(|e| format!("line {}: invalid JSON: {e}", i + 1))?;
        events.push(parse_event(line).map_err(|e| format!("line {}: {e}", i + 1))?);
    }
    let mut counts = [0u64; KINDS];
    for ev in &events {
        counts[ev.kind.index()] += 1;
    }
    Ok(Trace {
        events,
        counts,
        dropped: 0,
    })
}

/// Parse one exported event object. The exporter writes flat objects with
/// unquoted numeric values and a single quoted string (`kind`), so
/// splitting on top-level commas is exact for this format.
fn parse_event(line: &str) -> Result<TraceEvent, String> {
    let inner = line
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .ok_or("expected a JSON object")?;
    let mut ev = TraceEvent {
        shard: NO_ID,
        worker: NO_ID,
        ..Default::default()
    };
    let mut saw_kind = false;
    for field in inner.split(',') {
        let (key, value) = field.split_once(':').ok_or("expected key:value")?;
        let key = key.trim().trim_matches('"');
        let value = value.trim();
        match key {
            "ts" => ev.ts = parse_f64(value)?,
            "dur" => ev.dur = parse_f64(value)?,
            "kind" => {
                let name = value.trim_matches('"');
                ev.kind = EventKind::ALL
                    .iter()
                    .copied()
                    .find(|k| k.name() == name)
                    .ok_or_else(|| format!("unknown event kind {name:?}"))?;
                saw_kind = true;
            }
            "shard" => ev.shard = parse_id(value)?,
            "worker" => ev.worker = parse_id(value)?,
            "progress" => ev.progress = parse_int(value)?,
            "v_train" => ev.v_train = parse_int(value)?,
            "bytes" => ev.bytes = parse_int(value)?,
            "seq" => ev.seq = parse_int(value)?,
            "request_id" => ev.request_id = parse_int(value)?,
            "attempt" => ev.attempt = parse_int(value)?,
            "parent_span" => ev.parent_span = parse_id(value)?,
            other => return Err(format!("unknown field {other:?}")),
        }
    }
    if !saw_kind {
        return Err("missing \"kind\" field".to_string());
    }
    Ok(ev)
}

fn parse_f64(s: &str) -> Result<f64, String> {
    s.parse().map_err(|_| format!("bad number {s:?}"))
}

fn parse_int<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("bad integer {s:?}"))
}

/// Ids export as `-1` for [`NO_ID`].
fn parse_id(s: &str) -> Result<u32, String> {
    if s == "-1" {
        Ok(NO_ID)
    } else {
        s.parse().map_err(|_| format!("bad id {s:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{ClockSource, VirtualClock};
    use crate::export;
    use crate::tracer::{RecordArgs, TraceCollector};
    use std::sync::Arc;

    fn at(shard: u32, worker: u32, progress: u64, v_train: u64) -> RecordArgs {
        RecordArgs::new()
            .shard(shard)
            .worker(worker)
            .progress(progress)
            .v_train(v_train)
    }

    /// Two workers on one shard: worker 1 pulls at gap 2 and is deferred
    /// for 1s; worker 0's push advances V_train and releases it.
    fn sample() -> Trace {
        let clock = VirtualClock::new();
        let col = TraceCollector::new(ClockSource::virtual_clock(Arc::clone(&clock)), 256);
        let t = col.tracer();
        clock.set(1.0);
        t.record(EventKind::WireSend, at(0, 1, 2, 0).bytes(58));
        clock.set(1.1);
        t.record(EventKind::WireRecv, at(0, 1, 2, 0).bytes(58));
        t.record(EventKind::PullRequested, at(0, 1, 2, 0).bytes(58));
        t.record(EventKind::PullDeferred, at(0, 1, 2, 0));
        clock.set(1.5);
        t.record(EventKind::PullRequested, at(0, 0, 0, 0).bytes(58));
        clock.set(2.0);
        t.record(EventKind::PushApplied, at(0, 0, 0, 0).bytes(512));
        clock.set(2.1);
        t.record(
            EventKind::VTrainAdvanced,
            RecordArgs::new().shard(0).v_train(1),
        );
        t.record(EventKind::DprReleased, at(0, 1, 2, 1));
        clock.set(2.2);
        let start = t.now();
        clock.set(2.5);
        t.record_span(
            EventKind::BarrierWait,
            start,
            RecordArgs::new().worker(1).progress(2).v_train(1),
        );
        clock.set(3.0);
        t.record(EventKind::LatePushDropped, at(0, 0, 0, 1).bytes(64));
        col.snapshot()
    }

    #[test]
    fn per_worker_breakdown_accounts_time() {
        let a = analyze(&sample());
        assert_eq!(a.workers.len(), 2);
        let w1 = &a.workers[1];
        assert_eq!(w1.worker, 1);
        assert_eq!(w1.pulls, 1);
        assert_eq!(w1.deferred, 1);
        assert_eq!(w1.barrier_count, 1);
        assert!((w1.barrier_secs - 0.3).abs() < 1e-9);
        assert!(
            (w1.wire_secs - 0.1).abs() < 1e-9,
            "send at 1.0, recv at 1.1"
        );
        assert_eq!(w1.bytes_sent, 58);
        assert!(w1.compute_secs() <= w1.active_secs());
    }

    #[test]
    fn shard_health_tracks_dpr_residence_and_drops() {
        let a = analyze(&sample());
        assert_eq!(a.shards.len(), 1);
        let sh = &a.shards[0];
        assert_eq!(sh.dpr_count, 1);
        assert!(
            (sh.dpr_residence_mean - 1.0).abs() < 1e-9,
            "deferred 1.1→2.1"
        );
        assert_eq!(sh.outstanding_dprs, 0);
        assert_eq!(sh.pushes, 1);
        assert_eq!(sh.late_drops, 1);
        assert!((sh.late_drop_rate() - 0.5).abs() < 1e-9);
        assert_eq!(sh.v_train_advances, 1);
        assert_eq!(sh.final_v_train, 1);
    }

    #[test]
    fn gap_stats_split_blocked_from_granted() {
        let a = analyze(&sample());
        assert_eq!(a.gaps.len(), 2);
        assert_eq!(
            (a.gaps[0].gap, a.gaps[0].pulls, a.gaps[0].deferred),
            (0, 1, 0)
        );
        assert_eq!(
            (a.gaps[1].gap, a.gaps[1].pulls, a.gaps[1].deferred),
            (2, 1, 1)
        );
        assert!((a.gaps[1].block_rate() - 1.0).abs() < 1e-9);
        assert_eq!(a.max_granted_staleness(), Some(0));
    }

    #[test]
    fn critical_path_walks_release_back_to_push() {
        let a = analyze(&sample());
        assert!(!a.critical_path.is_empty());
        let last = a.critical_path.last().expect("nonempty");
        assert_eq!(last.what, "dpr wait");
        assert_eq!(last.worker, 1);
        assert!((a.critical_path_secs() - 1.0).abs() < 1e-9);
        // Causal order: the push that triggered the release comes first.
        assert_eq!(a.critical_path[0].what, "push");
        assert_eq!(a.critical_path[0].worker, 0);
    }

    #[test]
    fn spread_tracks_min_and_max_progress() {
        let a = analyze(&sample());
        assert!(!a.spread.is_empty());
        let last = a.spread.last().expect("nonempty");
        assert!(last.max_progress >= 2);
        assert!(
            last.spread() >= 1,
            "worker 0 stays at 0, worker 1 reaches 2"
        );
    }

    #[test]
    fn jsonl_round_trip_preserves_analysis() {
        let trace = sample();
        let parsed = parse_jsonl(&export::jsonl(&trace)).expect("parses");
        assert_eq!(parsed.events.len(), trace.events.len());
        assert_eq!(parsed.counts, trace.counts);
        let (a, b) = (analyze(&trace), analyze(&parsed));
        assert_eq!(a.workers, b.workers);
        assert_eq!(a.shards, b.shards);
        assert_eq!(a.gaps, b.gaps);
        assert_eq!(a.critical_path, b.critical_path);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_jsonl("not json").is_err());
        assert!(parse_jsonl("{\"ts\":0}").is_err(), "missing kind");
        assert!(parse_jsonl("{\"kind\":\"no_such_kind\"}").is_err());
        let err = parse_jsonl("{\"kind\":\"wire_send\",\"attempt\":4294967296}")
            .expect_err("attempt overflows u32");
        assert!(err.contains("bad integer"), "{err}");
    }

    #[test]
    fn analyzed_counts_match_buffered_events() {
        let col = TraceCollector::wall(4);
        let t = col.tracer();
        for i in 0..50 {
            t.record(EventKind::WireSend, RecordArgs::new().worker(0).progress(i));
        }
        let trace = col.snapshot();
        let a = analyze(&trace);
        assert_eq!(a.recorded[EventKind::WireSend.index()], 50);
        assert_eq!(a.analyzed[EventKind::WireSend.index()], 4);
        assert_eq!(a.dropped, 46);
    }

    /// Chaos-free but interleaved traffic on one `(shard, worker)` stream:
    /// the push ack and the pull request cross on the wire, so the
    /// worker's two receives come back in the opposite order from which
    /// their replies' sends were queued behind the requests.
    #[test]
    fn wire_pairs_match_by_causal_id_on_interleaved_streams() {
        let clock = VirtualClock::new();
        let col = TraceCollector::new(ClockSource::virtual_clock(Arc::clone(&clock)), 64);
        let t = col.tracer();
        let wire = |ts: f64, kind: EventKind, rid: u64| {
            clock.set(ts);
            t.record(kind, at(0, 1, 0, 0).bytes(58).request_id(rid));
        };
        let (push_a, pull_b) = (11, 12);
        wire(1.0, EventKind::WireSend, push_a); // worker sends push A
        wire(1.1, EventKind::WireRecv, push_a); // server receives A
        wire(1.2, EventKind::WireSend, push_a); // server sends ack A
        wire(1.3, EventKind::WireSend, pull_b); // worker sends pull B
        wire(1.4, EventKind::WireRecv, pull_b); // server receives B
        wire(1.5, EventKind::WireSend, pull_b); // server sends response B
        wire(1.6, EventKind::WireRecv, push_a); // worker receives ack A
        wire(1.7, EventKind::WireRecv, pull_b); // worker receives response B
        let trace = col.snapshot();
        let mut s = StreamAnalyzer::new(StreamConfig::all_run());
        for ev in &trace.events {
            s.advance_to(ev.ts);
            s.ingest(ev);
        }
        // Exact pairs: 0.1 + 0.1 + 0.4 (ack A, 1.2→1.6) + 0.2 (response B,
        // 1.5→1.7). FIFO per stream would pair B's server receive with ack
        // A's send (1.2→1.4) and ack A's receive with pull B's send
        // (1.3→1.6), capping the max at 0.3.
        let hist = s.wire_hist(0, 1).expect("shard 0 saw wire pairs");
        assert_eq!(hist.count(), 4);
        assert_eq!(hist.max(), 400_000);
        let w = &analyze(&trace).workers[0];
        assert!((w.wire_secs - 0.8).abs() < 1e-9, "{}", w.wire_secs);
    }

    #[test]
    fn unmatched_and_duplicate_receives_pair_with_nothing() {
        let clock = VirtualClock::new();
        let col = TraceCollector::new(ClockSource::virtual_clock(Arc::clone(&clock)), 64);
        let t = col.tracer();
        clock.set(1.0);
        t.record(EventKind::WireSend, at(0, 0, 0, 0).request_id(7));
        clock.set(1.1);
        t.record(EventKind::WireRecv, at(0, 0, 0, 0).request_id(7));
        // A duplicated frame: its send was already consumed.
        clock.set(1.2);
        t.record(EventKind::WireRecv, at(0, 0, 0, 0).request_id(7));
        // A retry is a different attempt and pairs only with its own send.
        clock.set(1.3);
        t.record(EventKind::WireSend, at(0, 0, 0, 0).request_id(8));
        clock.set(1.4);
        t.record(EventKind::WireRecv, at(0, 0, 0, 0).request_id(8).attempt(1));
        let w = &analyze(&col.snapshot()).workers[0];
        assert!((w.wire_secs - 0.1).abs() < 1e-9, "{}", w.wire_secs);
    }
}
