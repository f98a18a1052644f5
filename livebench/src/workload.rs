//! The workloads, and one training job on the live runtime each names.
//!
//! A job synthesises its data, builds the model and its EPS slicing,
//! launches the cluster, and then runs a closed loop: two worker threads,
//! each starting its next step only after `spull_wait` returned. The job
//! ends with the correctness checks every run must pass.

use std::net::SocketAddr;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use fluentps_core::condition::SyncModel;
use fluentps_core::dpr::DprPolicy;
use fluentps_core::engine::{Cluster, EngineConfig};
use fluentps_core::eps::{EpsSlicer, ParamSpec, SliceMap, Slicer};
use fluentps_core::recovery::{RecoveryConfig, ResilientTcpCluster};
use fluentps_core::stats::ShardStats;
use fluentps_core::tcp_engine::TcpCluster;
use fluentps_core::worker::{RetryPolicy, WorkerClient};
use fluentps_ml::data::{synthetic, BatchSampler, Dataset, SyntheticSpec};
use fluentps_ml::models::{Mlp, Model, ResidualMlp, SoftmaxRegression};
use fluentps_ml::optim::{Optimizer, Sgd};
use fluentps_ml::ParamMap;
use fluentps_obs::{
    http, EventKind, HealthEngine, MetricsRegistry, StreamConfig, TraceCollector, TraceSource,
};
use fluentps_transport::{Mailbox, Postman};

use crate::ledger::{StepLog, StepRecord};

/// Worker threads per job: one per core of the 2-core reference box.
pub const WORKERS: u32 = 2;
/// Server shards per job.
pub const SERVERS: u32 = 2;
/// SGD momentum, shared by every workload.
const MOMENTUM: f32 = 0.9;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `TcpCluster`, BSP, a dense MLP in EPS chunks: bound by the
    /// parameter data path.
    TcpBspDense,
    /// In-process `Cluster`, PSSP, a deep residual MLP: bound by compute.
    InprocPsspCompute,
    /// `ResilientTcpCluster` with observability on, SSP, a small softmax in
    /// many chunks and a straggler from the input: bound by per-message
    /// and per-key cost.
    ResilientSspStraggler,
}

/// Which live runtime a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Runtime {
    /// `engine::Cluster` over the in-process fabric.
    Inproc,
    /// `tcp_engine::TcpCluster`.
    Tcp,
    /// `recovery::ResilientTcpCluster`.
    Resilient,
}

/// The model a workload trains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Net {
    /// MLP 64→256→256→10 (~85K parameters).
    Mlp,
    /// `ResidualMlp::resnet56_like(64, 10)` (~71K parameters).
    Residual,
    /// Softmax regression 64×10 (650 parameters).
    Softmax,
}

/// Everything that defines a workload's job.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Runtime under test.
    pub runtime: Runtime,
    /// Synchronization model on every shard.
    pub sync: SyncModel,
    /// Staleness bound `s` every granted pull must meet
    /// (`min_version ≥ i − s`; 0 for BSP). `None` for PSSP, whose
    /// probabilistic pass admits pulls past `s` by design.
    pub bound: Option<u64>,
    /// Model.
    pub net: Net,
    /// EPS chunk size, in values.
    pub max_chunk: usize,
    /// Batch size of each worker.
    pub batch: [usize; WORKERS as usize],
    /// Steps every worker runs per job.
    pub steps: u64,
    /// SGD learning rate.
    pub lr: f32,
    /// Lowest acceptable test accuracy after `steps`; a diverged run
    /// (which is also a different, slower program) lands far below it.
    pub accuracy_floor: f64,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 3] = [
        Workload::TcpBspDense,
        Workload::InprocPsspCompute,
        Workload::ResilientSspStraggler,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TcpBspDense => "tcp-bsp-dense",
            Workload::InprocPsspCompute => "inproc-pssp-compute",
            Workload::ResilientSspStraggler => "resilient-ssp-straggler",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's job definition.
    pub fn spec(self) -> Spec {
        match self {
            Workload::TcpBspDense => Spec {
                runtime: Runtime::Tcp,
                sync: SyncModel::Bsp,
                bound: Some(0),
                net: Net::Mlp,
                max_chunk: 4096,
                batch: [8, 8],
                steps: 500,
                lr: 0.02,
                accuracy_floor: 0.7,
            },
            Workload::InprocPsspCompute => Spec {
                runtime: Runtime::Inproc,
                sync: SyncModel::PsspConst { s: 2, c: 0.5 },
                bound: None,
                net: Net::Residual,
                max_chunk: 4096,
                batch: [128, 128],
                steps: 150,
                lr: 0.05,
                accuracy_floor: 0.7,
            },
            Workload::ResilientSspStraggler => Spec {
                runtime: Runtime::Resilient,
                sync: SyncModel::Ssp { s: 1 },
                bound: Some(1),
                net: Net::Softmax,
                max_chunk: 16,
                batch: [16, 256],
                steps: 2000,
                lr: 0.1,
                accuracy_floor: 0.7,
            },
        }
    }
}

/// The training data of every workload: the repository's CIFAR-10
/// stand-in (64 features, 10 two-mode classes), with a margin wide enough
/// that a job of a few thousand samples per worker reaches ~75–80% top-1,
/// so `test_accuracy` moves when a change hurts convergence.
pub fn dataset(seed: u64) -> SyntheticSpec {
    SyntheticSpec {
        margin: 5.0,
        ..SyntheticSpec::c10_like(seed)
    }
}

impl Spec {
    /// The model, shaped for [`dataset`].
    pub fn model(&self) -> Box<dyn Model> {
        let data = dataset(0);
        match self.net {
            Net::Mlp => Box::new(Mlp {
                dims: vec![data.dim, 256, 256, data.classes],
            }),
            Net::Residual => Box::new(ResidualMlp::resnet56_like(data.dim, data.classes)),
            Net::Softmax => Box::new(SoftmaxRegression {
                dim: data.dim,
                classes: data.classes,
            }),
        }
    }

    /// The model's EPS placement over [`SERVERS`] shards.
    pub fn slice_map(&self, model: &dyn Model) -> SliceMap {
        let params: Vec<ParamSpec> = model
            .param_shapes()
            .iter()
            .map(|s| ParamSpec {
                key: s.key,
                len: s.len,
            })
            .collect();
        EpsSlicer {
            max_chunk: self.max_chunk,
        }
        .slice(&params, SERVERS)
    }

    /// Engine configuration shared by every runtime.
    pub fn engine_config(&self, seed: u64) -> EngineConfig {
        EngineConfig {
            num_workers: WORKERS,
            num_servers: SERVERS,
            model: self.sync,
            policy: DprPolicy::LazyExecution,
            seed,
            ..EngineConfig::default()
        }
    }
}

/// How a job is run.
#[derive(Debug, Clone, Copy)]
pub struct JobOptions {
    /// Record the per-call child spans.
    pub traced: bool,
    /// Attach the program's tracer, metrics registry, health engine and
    /// introspection endpoint (resilient runtime only).
    pub obs: bool,
}

/// Event totals from the program's own tracer.
#[derive(Debug, Clone, Copy, Default)]
pub struct EventCounts {
    /// Every event recorded.
    pub total: u64,
    /// `RetryScheduled` events.
    pub retries: u64,
    /// `CheckpointCaptured` events.
    pub checkpoints: u64,
    /// `ConnectionLost` events.
    pub connection_lost: u64,
}

/// A finished job.
#[derive(Debug)]
pub struct JobResult {
    /// Seconds from the job's origin to the release of the first step.
    pub setup_s: f64,
    /// Seconds from that release until the last worker finished.
    pub phase_s: f64,
    /// Σ over workers of batch × completed steps.
    pub samples: u64,
    /// Σ over workers of completed steps.
    pub worker_steps: u64,
    /// Step records per worker.
    pub logs: Vec<(u32, Vec<StepRecord>)>,
    /// Worker 0's top-1 test accuracy.
    pub accuracy: f64,
    /// Per-shard statistics returned by the cluster's shutdown.
    pub stats: Vec<ShardStats>,
    /// `spush` + `spull_wait` calls made, and how many returned `Err`.
    pub ops: u64,
    /// Calls that returned `Err`.
    pub op_failures: u64,
    /// Named correctness checks and whether each passed.
    pub checks: Vec<(&'static str, bool)>,
    /// Program-side event totals (observability on only).
    pub events: Option<EventCounts>,
    /// Error text of the first failed call.
    pub first_error: Option<String>,
    /// Share of the machine's CPU time the hypervisor stole during the job
    /// (host interference, not the program; 0 where unknown).
    pub host_steal: f64,
}

impl JobResult {
    /// Samples per second over the timed phase.
    pub fn samples_per_s(&self) -> f64 {
        self.samples as f64 / self.phase_s
    }
}

/// What each worker thread shares.
struct WorkerCtx<'a> {
    spec: &'a Spec,
    model: &'a dyn Model,
    train: &'a Dataset,
    init: &'a ParamMap,
    seed: u64,
    epoch: Instant,
    traced: bool,
    barrier: &'a Barrier,
}

/// `(steal, total)` CPU clock ticks of the whole machine so far, from
/// `/proc/stat`; zeros where it is unavailable.
fn host_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .map(|l| {
            l.split_whitespace()
                .filter_map(|t| t.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    // Field order: user nice system idle iowait irq softirq steal ...
    (
        ticks.get(7).copied().unwrap_or(0),
        ticks.iter().take(8).sum(),
    )
}

/// One worker thread's outcome.
struct WorkerOut {
    id: u32,
    params: ParamMap,
    log: Vec<StepRecord>,
    end: Instant,
    ops: u64,
    failures: u64,
    first_error: Option<String>,
    pushed_steps: u64,
    completed_steps: u64,
    servers_contacted: u64,
    staleness_violations: u64,
    version_regressions: u64,
}

/// The step loop: `Dataset::batch` → `Model::loss_and_grad` →
/// `Optimizer::deltas` → `spush` → `spull_wait`, each a child span.
fn run_worker<P: Postman, M: Mailbox>(mut client: WorkerClient<P, M>, cx: &WorkerCtx) -> WorkerOut {
    let n = client.worker_id();
    let spec = cx.spec;
    let mut params = cx.init.clone();
    let mut opt = Sgd::new(spec.lr, MOMENTUM, 0.0);
    let mut sampler = BatchSampler::new(
        cx.train.partition(n, WORKERS),
        spec.batch[n as usize],
        cx.seed.wrapping_add(500 + n as u64),
    );
    let mut log = StepLog::new(cx.epoch, cx.traced, spec.steps as usize);
    let mut out = WorkerOut {
        id: n,
        params: ParamMap::new(),
        log: Vec::new(),
        end: cx.epoch,
        ops: 0,
        failures: 0,
        first_error: None,
        pushed_steps: 0,
        completed_steps: 0,
        servers_contacted: 0,
        staleness_violations: 0,
        version_regressions: 0,
    };
    let mut last_version = 0u64;
    cx.barrier.wait();
    for i in 0..spec.steps {
        let mut rec = StepRecord {
            start: log.now(),
            ..StepRecord::default()
        };
        let batch = log.span(&mut rec, 0, || cx.train.batch(&sampler.next_indices()));
        let (_, grads) = log.span(&mut rec, 1, || cx.model.loss_and_grad(&params, &batch));
        let deltas = log.span(&mut rec, 2, || opt.deltas(&params, &grads));
        out.ops += 1;
        let pulled = match log.span(&mut rec, 3, || client.spush(i, &deltas)) {
            Ok(contacted) => {
                out.pushed_steps += 1;
                out.servers_contacted += contacted as u64;
                out.ops += 1;
                log.span(&mut rec, 4, || client.spull_wait(i, &mut params))
            }
            Err(e) => Err(e),
        };
        rec.end = log.now();
        match pulled {
            Ok(report) => {
                if spec
                    .bound
                    .is_some_and(|s| report.min_version.saturating_add(s) < i)
                {
                    out.staleness_violations += 1;
                }
                if report.min_version < last_version {
                    out.version_regressions += 1;
                }
                last_version = report.min_version;
                out.completed_steps += 1;
                log.steps.push(rec);
            }
            Err(e) => {
                // The peers may now block forever; the run's watchdog
                // turns that into a failed result.
                out.failures += 1;
                out.first_error = Some(format!("worker {n} step {i}: {e:?}"));
                break;
            }
        }
    }
    out.end = Instant::now();
    out.params = params;
    out.log = log.steps;
    out
}

/// Run every worker on its own thread; returns the instant the first step
/// was released and the workers' outcomes.
fn drive<P, M>(workers: Vec<WorkerClient<P, M>>, cx: &WorkerCtx) -> (Instant, Vec<WorkerOut>)
where
    P: Postman + Send,
    M: Mailbox + Send,
{
    std::thread::scope(|s| {
        let handles: Vec<_> = workers
            .into_iter()
            .map(|client| s.spawn(move || run_worker(client, cx)))
            .collect();
        cx.barrier.wait();
        let release = Instant::now();
        let mut outs: Vec<WorkerOut> = handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect();
        outs.sort_by_key(|o| o.id);
        (release, outs)
    })
}

/// The program's observability stack, attached as `repro chaos
/// --metrics-addr` attaches it.
struct Obs {
    collector: TraceCollector,
    engine: HealthEngine,
    registry: MetricsRegistry,
}

/// Run one job. `origin` is when its set-up began (process start for the
/// first job of a run). An `Err` means the cluster could not be launched.
pub fn run_job(
    workload: Workload,
    seed: u64,
    origin: Instant,
    opts: JobOptions,
) -> Result<JobResult, String> {
    let ticks = host_ticks();
    let spec = workload.spec();
    let (train, test) = synthetic(dataset(seed));
    let model = spec.model();
    let init = model.init_params(seed);
    let map = spec.slice_map(model.as_ref());
    let loads = map.server_loads();
    let ecfg = spec.engine_config(seed);
    let barrier = Barrier::new(WORKERS as usize + 1);
    let cx = WorkerCtx {
        spec: &spec,
        model: model.as_ref(),
        train: &train,
        init: &init,
        seed,
        epoch: origin,
        traced: opts.traced,
        barrier: &barrier,
    };
    let launch_err = |e| format!("{} launch failed: {e:?}", workload.name());

    let mut checks = Vec::new();
    let (release, outs, stats, events) = match spec.runtime {
        Runtime::Inproc => {
            let (cluster, workers) = Cluster::launch(ecfg, map, &init);
            let (release, outs) = drive(workers, &cx);
            (release, outs, cluster.shutdown(), None)
        }
        Runtime::Tcp => {
            let (cluster, workers) = TcpCluster::launch(ecfg, map, &init).map_err(launch_err)?;
            let (release, outs) = drive(workers, &cx);
            (release, outs, cluster.shutdown(), None)
        }
        Runtime::Resilient => {
            let obs = opts.obs.then(|| Obs {
                collector: TraceCollector::wall(1 << 14),
                engine: HealthEngine::with_default_rules(StreamConfig {
                    window_secs: 0.5,
                    windows: 8,
                }),
                registry: MetricsRegistry::new(),
            });
            let rcfg = RecoveryConfig {
                checkpoint_every: 2,
                // Well past any scheduling stall on a busy 2-core box, so a
                // fault-free run never declares a live server dead.
                liveness_timeout: Duration::from_secs(1),
                retry: RetryPolicy {
                    jitter_seed: seed ^ 0xBE4C,
                    ..RetryPolicy::default()
                },
                metrics: obs.as_ref().map(|o| o.registry.clone()),
                health_engine: obs.as_ref().map(|o| o.engine.clone()),
                ..RecoveryConfig::default()
            };
            let (cluster, workers) = ResilientTcpCluster::launch(
                ecfg,
                rcfg,
                map,
                &init,
                obs.as_ref().map(|o| &o.collector),
            )
            .map_err(launch_err)?;
            let endpoint = match &obs {
                Some(o) => {
                    let loopback: SocketAddr = "127.0.0.1:0".parse().expect("loopback address");
                    let server = http::serve_observed(
                        loopback,
                        o.registry.clone(),
                        Some(TraceSource::Local(o.collector.clone())),
                        Some(cluster.health()),
                        Some(o.engine.clone()),
                    )
                    .map_err(|e| format!("introspection endpoint: {e}"))?;
                    Some(server)
                }
                None => None,
            };
            let (release, outs) = drive(workers, &cx);
            checks.push(("no_dead_nodes", cluster.health().dead_count() == 0));
            let stats = cluster.shutdown();
            if let Some(server) = endpoint {
                server.stop();
            }
            let events = obs.map(|o| {
                let trace = o.collector.snapshot();
                EventCounts {
                    total: trace.total(),
                    retries: trace.count(EventKind::RetryScheduled),
                    checkpoints: trace.count(EventKind::CheckpointCaptured),
                    connection_lost: trace.count(EventKind::ConnectionLost),
                }
            });
            (release, outs, stats, events)
        }
    };
    let end = outs.iter().map(|o| o.end).max().unwrap_or(release);
    let accuracy = model.accuracy(&outs[0].params, &test) as f64;

    checks.push((
        "params_finite",
        outs.iter()
            .all(|o| o.params.values().flatten().all(|v| v.is_finite())),
    ));
    checks.push(("accuracy_floor", accuracy >= spec.accuracy_floor));
    checks.push((
        "staleness_bound",
        outs.iter()
            .all(|o| o.staleness_violations == 0 && o.version_regressions == 0),
    ));
    // Fault-free runs apply every push exactly once: each active shard saw
    // one push per worker step, and nothing arrived late.
    let pushed: u64 = outs.iter().map(|o| o.pushed_steps).sum();
    let contacted: u64 = outs.iter().map(|o| o.servers_contacted).sum();
    checks.push((
        "exactly_once",
        stats.iter().zip(&loads).all(|(s, &load)| {
            s.pushes == if load > 0 { pushed } else { 0 } && s.late_pushes_dropped == 0
        }) && stats.iter().map(|s| s.pushes).sum::<u64>() == contacted,
    ));

    let (steal, total) = host_ticks();
    Ok(JobResult {
        host_steal: steal.saturating_sub(ticks.0) as f64
            / total.saturating_sub(ticks.1).max(1) as f64,
        setup_s: (release - origin).as_secs_f64(),
        phase_s: (end - release).as_secs_f64(),
        samples: outs
            .iter()
            .map(|o| o.completed_steps * spec.batch[o.id as usize] as u64)
            .sum(),
        worker_steps: outs.iter().map(|o| o.completed_steps).sum(),
        accuracy,
        stats,
        ops: outs.iter().map(|o| o.ops).sum(),
        op_failures: outs.iter().map(|o| o.failures).sum(),
        first_error: outs.iter().find_map(|o| o.first_error.clone()),
        checks,
        events,
        logs: outs.into_iter().map(|o| (o.id, o.log)).collect(),
    })
}
