//! Cross-crate tests for the trace-analytics engine: counting invariants
//! under ring overwriting, the SSP staleness bound as *observed by the
//! analyzer*, and the empirical PSSP block-rate curve against the
//! analytical `Pr[blocked | gap=k]` from `fluentps_core::pssp`, and exact
//! wire pairing by causal id on a chaos run.

use std::collections::{BTreeMap, HashMap, VecDeque};

use fluentps::core::condition::SyncModel;
use fluentps::core::dpr::DprPolicy;
use fluentps::core::pssp;
use fluentps::core::server::{GradScale, ServerShard, ShardConfig};
use fluentps::experiments::driver::EngineKind;
use fluentps::experiments::tracerun;
use fluentps::obs::analyze::analyze;
use fluentps::obs::{
    EventKind, Histogram, RecordArgs, StreamAnalyzer, StreamConfig, TraceCollector, NO_ID,
};
use fluentps::transport::KvPairs;
use fluentps_util::proptest::prelude::*;

proptest! {
    /// Per-kind totals survive ring overwriting: whatever the analyzer sees
    /// in the buffer, [`Analysis::recorded`] still equals the true number of
    /// recorded events per kind, the analyzed counts match the buffered
    /// events exactly, and recorded = analyzed + dropped overall.
    #[test]
    fn analyzer_counts_survive_ring_overwrites(
        ops in prop::collection::vec(
            (0usize..EventKind::ALL.len(), 0u32..3, 0u32..2, 0u64..50),
            1..120,
        ),
        capacity in 1usize..16,
    ) {
        let collector = TraceCollector::wall(capacity);
        let tracer = collector.tracer();
        let mut true_counts = [0u64; EventKind::ALL.len()];
        for &(kind_idx, worker, shard, progress) in &ops {
            let kind = EventKind::ALL[kind_idx];
            tracer.record(
                kind,
                RecordArgs::new().shard(shard).worker(worker).progress(progress),
            );
            true_counts[kind.index()] += 1;
        }
        let trace = collector.snapshot();
        let a = analyze(&trace);
        // Recorded totals are exact, regardless of what the ring dropped.
        for kind in EventKind::ALL {
            prop_assert_eq!(a.count(kind), true_counts[kind.index()]);
        }
        // Analyzed counts describe exactly the buffered events.
        for kind in EventKind::ALL {
            let buffered = trace.events.iter().filter(|e| e.kind == kind).count() as u64;
            prop_assert_eq!(a.analyzed[kind.index()], buffered);
        }
        // Conservation: everything recorded was either analyzed or dropped.
        let recorded: u64 = a.recorded.iter().sum();
        let analyzed: u64 = a.analyzed.iter().sum();
        prop_assert_eq!(recorded, analyzed + a.dropped);
        prop_assert_eq!(trace.events.len(), ops.len().min(capacity));
    }

    /// SSP bound, as seen end-to-end through the trace: drive a shard with
    /// arbitrary push/pull interleavings under `Ssp { s }` and assert the
    /// analyzer never observes a *granted* pull at staleness ≥ s.
    #[test]
    fn ssp_granted_staleness_stays_below_bound(
        s in 1u64..4,
        seeds in prop::collection::vec((0u32..3, any::<bool>()), 1..150),
    ) {
        let num_workers = 3u32;
        let collector = TraceCollector::wall(1 << 12);
        let mut shard = ServerShard::new(ShardConfig {
            server_id: 0,
            num_workers,
            model: SyncModel::Ssp { s },
            policy: DprPolicy::LazyExecution,
            grad_scale: GradScale::DivideByN,
        });
        shard.set_tracer(collector.tracer());
        shard.init_param(0, vec![0.0]);
        let mut next_iter = vec![0u64; num_workers as usize];
        for &(w, is_pull) in &seeds {
            let i = next_iter[w as usize];
            if is_pull {
                let _ = shard.on_pull(w, i.saturating_sub(1), &[0], 0.5, None);
            } else {
                shard.on_push(w, i, &KvPairs::single(0, vec![1.0]));
                next_iter[w as usize] += 1;
            }
        }
        let trace = collector.snapshot();
        let a = analyze(&trace);
        if let Some(max) = a.max_granted_staleness() {
            prop_assert!(max < s, "granted a pull at staleness {max} under SSP s={s}");
        }
        // Every gap entry is internally consistent.
        for g in &a.gaps {
            prop_assert_eq!(g.pulls, g.granted() + g.deferred);
        }
        // The pull matcher attributes every deferral the shard recorded.
        let deferred: u64 = a.gaps.iter().map(|g| g.deferred).sum();
        prop_assert_eq!(deferred, trace.count(EventKind::PullDeferred));
    }
}

/// The paper's PSSP claim, measured: run the traced demo under
/// `PsspConst { s, c }` and compare the analyzer's empirical block rate per
/// gap against the analytical `Pr[blocked | gap=k]` from `pssp.rs`.
#[test]
fn pssp_empirical_block_rate_matches_analytical() {
    let (s, c) = (2u64, 0.5f64);
    let mut cfg = tracerun::demo_config(false);
    cfg.engine = EngineKind::FluentPs {
        model: SyncModel::PsspConst { s, c },
        policy: DprPolicy::LazyExecution,
    };
    cfg.max_iters = 80;
    let r = fluentps::experiments::driver::run(&cfg);
    let trace = r.trace.expect("traced run returns a trace");
    let a = analyze(&trace);
    assert!(!a.gaps.is_empty(), "no pulls observed");
    let mut checked_beyond_bound = false;
    for g in &a.gaps {
        let analytical = pssp::constant_probability(c, s, g.gap);
        if g.gap < s {
            // Below the bound every pull is granted, deterministically.
            assert_eq!(
                g.deferred, 0,
                "gap {} deferred {} pulls below the SSP bound",
                g.gap, g.deferred
            );
            continue;
        }
        if g.pulls < 30 {
            continue; // too few samples for a rate comparison
        }
        checked_beyond_bound = true;
        let diff = (g.block_rate() - analytical).abs();
        assert!(
            diff <= 0.15,
            "gap {}: empirical block rate {:.3} vs analytical {:.3} (n={})",
            g.gap,
            g.block_rate(),
            analytical,
            g.pulls
        );
    }
    assert!(
        checked_beyond_bound,
        "run produced no well-sampled gaps beyond the bound; gaps: {:?}",
        a.gaps
    );
}

/// Wire pairing on a real TCP cluster under reorder/duplicate chaos, with
/// causal ids on the wire: the analyzer's per-shard wire histograms must
/// equal the ones built here by pairing each receive with the oldest
/// unmatched send carrying the same `(shard, worker, request_id,
/// attempt)`. FIFO pairing per stream disagrees with the ids even without
/// chaos (a push ack and the next pull cross on the wire), so this pins the
/// exact rule rather than a heuristic.
#[test]
fn wire_pairs_match_causal_ids_under_reorder_chaos() {
    use fluentps::experiments::live::{run_chaos, ChaosConfig};
    let r = run_chaos(&ChaosConfig {
        num_workers: 1,
        num_servers: 2,
        max_iters: 20,
        faults: 8, // seeded drops, reorder-delays and duplicates
        seed: 42,
        keep_trace: true,
        ..ChaosConfig::default()
    });
    let trace = r.trace.expect("keep_trace returns the collector snapshot");

    let mut sends: HashMap<(u32, u32, u64, u32), VecDeque<f64>> = HashMap::new();
    let mut want: BTreeMap<u32, Histogram> = BTreeMap::new();
    for ev in trace.events.iter().filter(|e| e.worker != NO_ID) {
        let key = (ev.shard, ev.worker, ev.request_id, ev.attempt);
        match ev.kind {
            EventKind::WireSend => sends.entry(key).or_default().push_back(ev.ts),
            EventKind::WireRecv => {
                assert_ne!(ev.request_id, 0, "chaos runs stamp every wire event");
                if let Some(sent) = sends.get_mut(&key).and_then(|q| q.pop_front()) {
                    let lat = (ev.ts - sent).max(0.0);
                    want.entry(ev.shard).or_default().record((lat * 1e6) as u64);
                }
            }
            _ => {}
        }
    }
    assert!(
        want.values().map(Histogram::count).sum::<u64>() > 0,
        "no wire pairs in the chaos trace"
    );

    let mut s = StreamAnalyzer::new(StreamConfig::all_run());
    for ev in &trace.events {
        s.advance_to(ev.ts);
        s.ingest(ev);
    }
    assert_eq!(s.wire_shards(), want.keys().copied().collect::<Vec<_>>());
    for (&shard, hist) in &want {
        assert_eq!(s.wire_hist(shard, 1).as_ref(), Some(hist), "shard {shard}");
    }
}
