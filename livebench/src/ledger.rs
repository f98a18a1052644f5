//! The benchmark's own span recorder and the per-layer ledger built from it.
//!
//! Every worker step is one `worker.step` span with five child spans, one
//! around each public call the step makes: `Dataset::batch` (with the
//! sampler), `Model::loss_and_grad`, `Optimizer::deltas`,
//! `WorkerClient::spush` and `WorkerClient::spull_wait`. The children never
//! overlap, so each child's self time is its duration, and the part of the
//! step no child covers is reported as unattributed, never hidden. Each
//! child also records the calling thread's allocation-count delta from the
//! workspace's counting allocator. Untraced runs record only the step span.

use std::io::Write;
use std::time::Instant;

use fluentps_util::alloc::thread_counters;

use crate::stats::{median, percentile, shares_within_one, tail_percentile};

/// The child spans of a step, in call order, named `<layer>.<call>`.
pub const SPANS: [&str; 5] = [
    "data.batch",
    "ml.loss_and_grad",
    "optim.deltas",
    "worker.spush",
    "worker.spull_wait",
];

/// Worker-side spans must cover at least this share of step time.
pub const MIN_COVERAGE: f64 = 0.90;

/// One step's spans, in nanoseconds since the job's epoch.
#[derive(Debug, Clone, Copy, Default)]
pub struct StepRecord {
    /// `worker.step` start.
    pub start: u64,
    /// `worker.step` end.
    pub end: u64,
    /// Child span `[start, end)` per [`SPANS`] entry (zero when untraced).
    pub spans: [(u64, u64); 5],
    /// Allocations made inside each child span.
    pub allocs: [u64; 5],
}

impl StepRecord {
    /// Step wall time in milliseconds.
    pub fn step_ms(&self) -> f64 {
        (self.end - self.start) as f64 / 1e6
    }
}

/// One worker's step records for one job.
pub struct StepLog {
    epoch: Instant,
    traced: bool,
    /// Recorded steps, in order.
    pub steps: Vec<StepRecord>,
}

impl StepLog {
    /// An empty log timing against `epoch`; `traced` adds the child spans.
    pub fn new(epoch: Instant, traced: bool, capacity: usize) -> Self {
        StepLog {
            epoch,
            traced,
            steps: Vec::with_capacity(capacity),
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` as child span `idx` of `rec` (just run it when untraced).
    pub fn span<T>(&self, rec: &mut StepRecord, idx: usize, f: impl FnOnce() -> T) -> T {
        if !self.traced {
            return f();
        }
        let a0 = thread_counters().0;
        let t0 = self.now();
        let out = f();
        let t1 = self.now();
        rec.spans[idx] = (t0, t1);
        rec.allocs[idx] = thread_counters().0 - a0;
        out
    }
}

/// Worker-side per-layer figures from pooled traced step records.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    /// Steps pooled.
    pub steps: usize,
    /// Median duration of each child span, ms.
    pub p50_ms: [f64; 5],
    /// Self time of each child span as a share of step time.
    pub share: [f64; 5],
    /// Allocations per step inside each child span.
    pub allocs_per_step: [f64; 5],
    /// Step time no child span covers, as a share of step time.
    pub unattributed_share: f64,
    /// Tail percentile chosen by the percentile rule, and its value in ms.
    pub step_tail: Option<(f64, f64)>,
    /// Median step time, ms.
    pub step_p50_ms: f64,
    /// 99th-percentile step time, ms.
    pub step_p99_ms: f64,
}

impl Ledger {
    /// Pool `records` into the ledger; `None` when there are none.
    pub fn from_records(records: &[StepRecord]) -> Option<Ledger> {
        if records.is_empty() {
            return None;
        }
        let n = records.len();
        let mut ledger = Ledger {
            steps: n,
            ..Ledger::default()
        };
        let step_total: u64 = records.iter().map(|r| r.end - r.start).sum();
        for i in 0..5 {
            let mut d: Vec<f64> = records
                .iter()
                .map(|r| (r.spans[i].1 - r.spans[i].0) as f64 / 1e6)
                .collect();
            d.sort_by(f64::total_cmp);
            ledger.p50_ms[i] = percentile(&d, 50.0);
            let self_ns: u64 = records.iter().map(|r| r.spans[i].1 - r.spans[i].0).sum();
            ledger.share[i] = self_ns as f64 / step_total.max(1) as f64;
            ledger.allocs_per_step[i] =
                records.iter().map(|r| r.allocs[i]).sum::<u64>() as f64 / n as f64;
        }
        ledger.unattributed_share = 1.0 - ledger.share.iter().sum::<f64>();
        let mut steps: Vec<f64> = records.iter().map(StepRecord::step_ms).collect();
        steps.sort_by(f64::total_cmp);
        ledger.step_p50_ms = median(&steps);
        ledger.step_p99_ms = percentile(&steps, 99.0);
        ledger.step_tail = tail_percentile(n).map(|p| (p, percentile(&steps, p)));
        Some(ledger)
    }

    /// Share of step time the child spans cover.
    pub fn coverage(&self) -> f64 {
        self.share.iter().sum()
    }

    /// The coverage guard plus the share-sum rule.
    pub fn shares_ok(&self) -> bool {
        shares_within_one(&self.share) && self.coverage() >= MIN_COVERAGE
    }
}

/// Write every span of a traced run as tab-separated lines, after a `#`
/// header line carrying `header`.
pub fn write_spans(
    path: &std::path::Path,
    header: &str,
    jobs: &[Vec<(u32, Vec<StepRecord>)>],
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "# {header}")?;
    writeln!(out, "job\tworker\tstep\tspan\tstart_ns\tend_ns\tallocs")?;
    for (j, workers) in jobs.iter().enumerate() {
        for (w, records) in workers {
            for (i, r) in records.iter().enumerate() {
                writeln!(out, "{j}\t{w}\t{i}\tworker.step\t{}\t{}\t", r.start, r.end)?;
                for (k, name) in SPANS.iter().enumerate() {
                    let (s, e) = r.spans[k];
                    writeln!(out, "{j}\t{w}\t{i}\t{name}\t{s}\t{e}\t{}", r.allocs[k])?;
                }
            }
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(start: u64, bounds: [u64; 6], end: u64) -> StepRecord {
        let mut r = StepRecord {
            start,
            end,
            ..StepRecord::default()
        };
        for i in 0..5 {
            r.spans[i] = (bounds[i], bounds[i + 1]);
            r.allocs[i] = i as u64;
        }
        r
    }

    #[test]
    fn shares_and_remainder_add_up_to_the_step() {
        // 100 ns steps whose children cover 95 ns.
        let recs: Vec<StepRecord> = (0..20)
            .map(|k| {
                let b = k * 1000;
                record(b, [b + 2, b + 12, b + 52, b + 62, b + 82, b + 97], b + 100)
            })
            .collect();
        let l = Ledger::from_records(&recs).expect("records");
        assert!((l.share[1] - 0.40).abs() < 1e-12);
        assert!((l.unattributed_share - 0.05).abs() < 1e-12);
        assert!((l.coverage() + l.unattributed_share - 1.0).abs() < 1e-12);
        assert!(l.shares_ok());
        assert_eq!(l.allocs_per_step, [0.0, 1.0, 2.0, 3.0, 4.0]);
        assert_eq!(l.step_tail.map(|t| t.0), Some(50.0));
    }

    #[test]
    fn coverage_guard_fails_below_ninety_percent() {
        let recs = vec![record(0, [10, 20, 30, 40, 50, 60], 100)];
        let l = Ledger::from_records(&recs).expect("records");
        assert!((l.coverage() - 0.5).abs() < 1e-12);
        assert!(!l.shares_ok());
        assert_eq!(l.step_tail, None);
    }

    #[test]
    fn untraced_span_just_runs_the_closure() {
        let log = StepLog::new(Instant::now(), false, 1);
        let mut r = StepRecord::default();
        assert_eq!(log.span(&mut r, 0, || 7), 7);
        assert_eq!(r.spans[0], (0, 0));
    }
}
