//! Same-seed claims must hold when the CPU is contended. The waterfall
//! balance line of the CI smoke's seeded resilient chaos job counts every
//! trace event, teardown frames included, so a shutdown whose order depends
//! on thread timing shows up here first.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use fluentps::experiments::live::{run_chaos, ChaosConfig};
use fluentps::obs::waterfall::{self, SamplerConfig};

/// Busy-spinning threads competing for the cores until dropped.
struct Spinners {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl Spinners {
    fn start(n: usize) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let threads = (0..n)
            .map(|_| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                })
            })
            .collect();
        Spinners { stop, threads }
    }
}

impl Drop for Spinners {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// `(observed, retained, sampled_out, unstamped, dropped)` of one run of
/// `repro waterfall --seed 42 --workers 1 --servers 2 --iters 20 --faults 8`.
fn waterfall_balance() -> (u64, usize, u64, u64, u64) {
    let r = run_chaos(&ChaosConfig {
        num_workers: 1,
        num_servers: 2,
        max_iters: 20,
        faults: 8,
        seed: 42,
        keep_trace: true,
        ..ChaosConfig::default()
    });
    let trace = r.trace.expect("keep_trace retains the local trace");
    let set = waterfall::assemble(&trace);
    let sampled = waterfall::tail_sample(&set, SamplerConfig::default());
    sampled
        .balance()
        .expect("retained + sampled_out == observed");
    (
        sampled.observed,
        sampled.retained.len(),
        sampled.sampled_out,
        set.unstamped_events,
        trace.dropped,
    )
}

#[test]
fn waterfall_balance_is_identical_across_contended_same_seed_runs() {
    let _spinners = Spinners::start(2);
    let runs: Vec<_> = (0..6).map(|_| waterfall_balance()).collect();
    assert!(
        runs.windows(2).all(|w| w[0] == w[1]),
        "same seed, different waterfall balance: {runs:?}"
    );
}
