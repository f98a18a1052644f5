//! Uncontended replay of the calls that run on the program's own threads.
//!
//! In a live job `ServerShard`, `Router::gather_into` and the codec run on
//! server, socket-reader and worker-internal paths the benchmark cannot
//! wrap in spans from outside. This replay drives the same public calls
//! single-threaded with the workload's exact shapes — its slice map, so
//! keys per shard and values per key, its worker count and sync model, and
//! one real optimizer delta as the pushed payload. Its figures are
//! therefore uncontended: they leave out the lock, queue and core sharing
//! of a live run.
//!
//! Order per step and worker: scatter, then for each shard encode → decode
//! → `on_push`, then `on_pull` on each shard, with every response (immediate
//! or released) encoded and gathered. Under BSP the first worker's pull is
//! deferred and the second worker's push releases it, so both the deferral
//! and the release paths are timed.

use std::hint::black_box;
use std::time::Instant;

use fluentps_core::dpr::DprPolicy;
use fluentps_core::server::{GradScale, PullOutcome, ServerShard, ShardConfig};
use fluentps_core::worker::Router;
use fluentps_ml::data::{synthetic, BatchSampler};
use fluentps_ml::optim::{Optimizer, Sgd};
use fluentps_ml::ParamMap;
use fluentps_transport::{codec, KvPairs, Message};
use fluentps_util::rng::StdRng;

use crate::stats::median;
use crate::workload::{dataset, Spec, SERVERS, WORKERS};

/// Steps replayed per run.
pub const REPLAY_STEPS: u64 = 300;

/// Median per-call times of the replay, µs.
#[derive(Debug, Clone, Copy)]
pub struct Replay {
    /// `Router::scatter` of the whole model.
    pub scatter_us: f64,
    /// `Router::gather_into` of one shard's response.
    pub gather_us: f64,
    /// `ServerShard::on_push` of one shard's slice (apply + DPR release).
    pub on_push_us: f64,
    /// `ServerShard::on_pull` of one shard's keys.
    pub on_pull_us: f64,
    /// `codec::encode` of one shard's `SPush`.
    pub encode_push_us: f64,
    /// `codec::decode` of one shard's `SPush`.
    pub decode_push_us: f64,
    /// `codec::encode` of one shard's `PullResponse`.
    pub encode_pull_response_us: f64,
}

fn us(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64 / 1e3
}

/// Replay `spec`'s shapes for [`REPLAY_STEPS`] steps.
pub fn replay(spec: &Spec, seed: u64) -> Replay {
    let model = spec.model();
    let init = model.init_params(seed);
    let map = spec.slice_map(model.as_ref());
    let router = Router::new(map.clone());
    let mut shards: Vec<ServerShard> = (0..SERVERS)
        .map(|m| {
            let mut shard = ServerShard::new(ShardConfig {
                server_id: m,
                num_workers: WORKERS,
                model: spec.sync,
                policy: DprPolicy::LazyExecution,
                grad_scale: GradScale::DivideByN,
            });
            for p in map.placements().iter().filter(|p| p.server == m) {
                shard.init_param(
                    p.new_key,
                    init[&p.orig_key][p.offset..p.offset + p.len].to_vec(),
                );
            }
            shard
        })
        .collect();

    // One real step's delta is the pushed payload.
    let (train, _) = synthetic(dataset(seed));
    let mut sampler = BatchSampler::new(0..train.len(), spec.batch[0], seed);
    let (_, grads) = model.loss_and_grad(&init, &train.batch(&sampler.next_indices()));
    let deltas = Sgd::new(spec.lr, 0.0, 0.0).deltas(&init, &grads);

    let mut rng = StdRng::seed_from_u64(seed ^ 0x5E1A);
    let mut params: Vec<ParamMap> = vec![init.clone(); WORKERS as usize];
    let [mut scatter, mut gather, mut push, mut pull, mut enc, mut dec, mut enc_resp] =
        std::array::from_fn::<Vec<f64>, 7, _>(|_| Vec::new());
    let mut respond =
        |worker: u32, progress: u64, kv: KvPairs, version: u64, params: &mut [ParamMap]| {
            let resp = Message::PullResponse {
                server: 0,
                progress,
                kv,
                version,
            };
            let t = Instant::now();
            black_box(codec::encode(&resp));
            enc_resp.push(us(t));
            let Message::PullResponse { kv, .. } = resp else {
                unreachable!("built as a PullResponse")
            };
            let t = Instant::now();
            router.gather_into(&mut params[worker as usize], &kv);
            gather.push(us(t));
        };
    for i in 0..REPLAY_STEPS {
        for n in 0..WORKERS {
            let t = Instant::now();
            let per_server = black_box(router.scatter(&deltas));
            scatter.push(us(t));
            for (m, kv) in per_server.into_iter().enumerate() {
                if kv.is_empty() {
                    continue;
                }
                let msg = Message::SPush {
                    worker: n,
                    progress: i,
                    kv,
                };
                let t = Instant::now();
                let bytes = black_box(codec::encode(&msg));
                enc.push(us(t));
                let t = Instant::now();
                let decoded = black_box(codec::decode(bytes).expect("replayed SPush decodes"));
                dec.push(us(t));
                let Message::SPush { kv, .. } = decoded else {
                    panic!("SPush decoded as another message");
                };
                let t = Instant::now();
                let released = shards[m].on_push(n, i, &kv);
                push.push(us(t));
                for r in released {
                    respond(r.worker, r.progress, r.kv, r.version, &mut params);
                }
            }
            for (m, shard) in shards.iter_mut().enumerate() {
                let keys = router.keys_for_server(m as u32);
                if keys.is_empty() {
                    continue;
                }
                let draw: f64 = rng.gen();
                let t = Instant::now();
                let outcome = shard.on_pull(n, i, keys, draw, None);
                pull.push(us(t));
                if let PullOutcome::Respond { kv, version } = outcome {
                    respond(n, i, kv, version, &mut params);
                }
            }
        }
    }
    black_box(&params);
    Replay {
        scatter_us: median(&scatter),
        gather_us: median(&gather),
        on_push_us: median(&push),
        on_pull_us: median(&pull),
        encode_push_us: median(&enc),
        decode_push_us: median(&dec),
        encode_pull_response_us: median(&enc_resp),
    }
}
