//! Live-training benchmark for FluentPS.
//!
//! ```text
//! cargo run --release --offline --manifest-path livebench/Cargo.toml -- \
//!     --workload tcp-bsp-dense --seed 1 --seconds 40 --trace 0
//! ```
//!
//! Runs training jobs of one workload back to back for `--seconds`, checks
//! every job, and prints every metric by name and unit, then one JSON
//! result line. `--trace 0` reports the end-to-end metrics from untraced
//! jobs; `--trace 1` reports the per-layer ledger from traced jobs plus an
//! uncontended replay, and writes every span to `livebench/out/`. Exits 1
//! when any check fails and 2 on bad arguments. See `README.md` here.

mod ledger;
mod replay;
mod stats;
mod workload;

use std::path::PathBuf;
use std::process::{exit, Command};
use std::time::{Duration, Instant};

use ledger::{Ledger, StepRecord};
use stats::{median, result_line, samples_beyond, Metric};
use workload::{JobOptions, JobResult, Workload, WORKERS};

const USAGE: &str = "usage: livebench --workload <tcp-bsp-dense|inproc-pssp-compute|\
resilient-ssp-straggler> --seed <u64> --seconds <1..=60> --trace <0|1>";

/// Jobs every run measures at least, so that medians mean something.
const MIN_JOBS: usize = 3;
/// A run that has not finished by then reports failure and exits.
const DEADLINE: Duration = Duration::from_secs(170);
/// Pooled steps a traced run needs for a p99 with ten samples beyond it.
const MIN_TRACED_STEPS: usize = 1000;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    let args = Args {
        workload: Workload::parse(&workload).ok_or(format!("unknown workload {workload}"))?,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: get("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
    };
    if !(1..=60).contains(&args.seconds) {
        return Err("--seconds must be within 1..=60".into());
    }
    Ok(args)
}

/// What a run reports.
struct Outcome {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    jobs: usize,
    notes: Vec<String>,
    /// Traced runs: every job's step records, per worker.
    spans: Vec<Vec<(u32, Vec<StepRecord>)>>,
}

impl Outcome {
    /// An outcome with `jobs`' calls and checks counted, and a note for
    /// each job and each failure; metrics are filled in by the caller.
    fn of(jobs: &[JobResult]) -> Outcome {
        let mut out = Outcome {
            metrics: Vec::new(),
            attempted: 0,
            failed: 0,
            jobs: jobs.len(),
            notes: Vec::new(),
            spans: Vec::new(),
        };
        for (j, job) in jobs.iter().enumerate() {
            out.notes.push(format!(
                "job {j}: setup {:.4} s, {:.1} samples/s, accuracy {:.4}, host steal {:.3}",
                job.setup_s,
                job.samples_per_s(),
                job.accuracy,
                job.host_steal
            ));
            out.attempted += job.ops + job.checks.len() as u64;
            out.failed += job.op_failures;
            if let Some(e) = &job.first_error {
                out.notes.push(format!("job {j}: call failed: {e}"));
            }
            for (name, ok) in &job.checks {
                if !ok {
                    out.failed += 1;
                    out.notes.push(format!("job {j}: check {name} failed"));
                }
            }
        }
        out
    }

    /// A run-level check.
    fn check(&mut self, name: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(format!("check {name} failed"));
        }
    }
}

/// Run jobs until `budget` (from process start) would be exceeded by one
/// more job of the last one's length, and at least `min_jobs` ran and
/// `enough` holds. `opts(k)` picks job `k`'s options. Also returns the
/// peak resident set at the end of the first job, in MB: later jobs in the
/// same process re-touch whatever allocator arenas their new threads land
/// on, so the process-lifetime peak would track the job count, not the
/// program.
fn run_jobs(
    args: &Args,
    origin: Instant,
    budget: Duration,
    min_jobs: usize,
    opts: impl Fn(usize) -> JobOptions,
    enough: impl Fn(&[JobResult]) -> bool,
) -> Result<(Vec<JobResult>, f64), String> {
    let mut jobs: Vec<JobResult> = Vec::new();
    let mut first_job_rss = 0.0;
    loop {
        let start = if jobs.is_empty() {
            origin
        } else {
            Instant::now()
        };
        let job = workload::run_job(args.workload, args.seed, start, opts(jobs.len()))?;
        if jobs.is_empty() {
            first_job_rss = peak_rss_mb()?;
        }
        jobs.push(job);
        let last = start.elapsed();
        if jobs.len() >= min_jobs && enough(&jobs) && origin.elapsed() + last > budget {
            return Ok((jobs, first_job_rss));
        }
    }
}

/// Median over jobs of each job's median step time, ms.
fn step_ms_p50(jobs: &[JobResult]) -> f64 {
    let per_job: Vec<f64> = jobs
        .iter()
        .map(|j| {
            let steps: Vec<f64> = j
                .logs
                .iter()
                .flat_map(|(_, recs)| recs.iter().map(|r| r.step_ms()))
                .collect();
            median(&steps)
        })
        .collect();
    median(&per_job)
}

fn median_of(jobs: &[JobResult], f: impl Fn(&JobResult) -> f64) -> f64 {
    median(&jobs.iter().map(f).collect::<Vec<_>>())
}

/// Peak resident set of this process (`VmHWM`), MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// End-to-end metrics from untraced jobs.
fn untraced(args: &Args, origin: Instant) -> Result<Outcome, String> {
    let (jobs, rss) = run_jobs(
        args,
        origin,
        Duration::from_secs(args.seconds),
        MIN_JOBS,
        |_| JobOptions {
            traced: false,
            obs: true,
        },
        |_| true,
    )?;
    let mut out = Outcome::of(&jobs);
    out.metrics = vec![
        Metric::new(
            "samples_per_s",
            "samples/s",
            median_of(&jobs, JobResult::samples_per_s),
        ),
        Metric::new("step_ms_p50", "ms", step_ms_p50(&jobs)),
        Metric::new("test_accuracy", "ratio", median_of(&jobs, |j| j.accuracy)),
        Metric::new("setup_s", "s", median_of(&jobs, |j| j.setup_s)),
        Metric::new("peak_rss_mb", "MB", rss),
    ];
    Ok(out)
}

/// Per-layer metrics from traced jobs plus the uncontended replay.
fn traced(args: &Args, origin: Instant) -> Result<Outcome, String> {
    let spec = args.workload.spec();
    // The resilient workload alternates jobs with the program's
    // observability on and off, for the overhead pair; the ledger comes
    // from the "on" jobs, which are the workload as defined.
    let pair = args.workload == Workload::ResilientSspStraggler;
    let obs_on = move |k: usize| !pair || k.is_multiple_of(2);
    let steps_on = move |jobs: &[JobResult]| -> usize {
        let on = jobs.iter().enumerate().filter(|(k, _)| obs_on(*k));
        on.map(|(_, j)| j.worker_steps as usize).sum()
    };
    let (jobs, _) = run_jobs(
        args,
        origin,
        Duration::from_secs(args.seconds).mul_f64(0.8),
        if pair { 2 * MIN_JOBS } else { MIN_JOBS },
        |k| JobOptions {
            traced: true,
            obs: obs_on(k),
        },
        |jobs| steps_on(jobs) >= MIN_TRACED_STEPS,
    )?;
    let replay = replay::replay(&spec, args.seed);

    let mut out = Outcome::of(&jobs);
    let (mut on, mut off) = (Vec::new(), Vec::new());
    for (k, job) in jobs.iter().enumerate() {
        if obs_on(k) {
            on.push(job);
        } else {
            off.push(job);
        }
    }
    let records: Vec<StepRecord> = on
        .iter()
        .flat_map(|j| j.logs.iter().flat_map(|(_, r)| r.iter().copied()))
        .collect();
    let l = Ledger::from_records(&records).ok_or("traced run recorded no steps")?;
    out.check("span_coverage", l.shares_ok());
    out.check(
        "p99_has_ten_beyond",
        samples_beyond(l.steps, 99.0) >= stats::MIN_BEYOND,
    );
    if let Some((p, v)) = l.step_tail {
        out.notes.push(format!(
            "worker.step: p50 {:.4} ms, p{p} {v:.4} ms over {} steps",
            l.step_p50_ms, l.steps
        ));
    }
    out.notes.push(format!(
        "span coverage {:.4} of worker.step; unattributed remainder {:.4}",
        l.coverage(),
        l.unattributed_share
    ));

    let mut total = fluentps_core::stats::ShardStats::default();
    let mut buffer_peak = 0u64;
    for s in on.iter().flat_map(|j| &j.stats) {
        total.merge(s);
        buffer_peak = buffer_peak.max(s.dpr_buffer_peak);
    }
    let worker_steps: u64 = on.iter().map(|j| j.worker_steps).sum();
    let per_job = |v: u64| v as f64 / on.len() as f64;
    let events = |f: fn(&workload::EventCounts) -> u64| -> u64 {
        on.iter().filter_map(|j| j.events.as_ref()).map(f).sum()
    };
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let overhead = if pair {
        let sps =
            |js: &[&JobResult]| median(&js.iter().map(|j| j.samples_per_s()).collect::<Vec<_>>());
        1.0 - sps(&on) / sps(&off)
    } else {
        0.0
    };

    out.metrics = vec![
        Metric::new("data.batch_ms_p50", "ms", l.p50_ms[0]),
        Metric::new("data.share", "ratio", l.share[0]),
        Metric::new("ml.loss_and_grad_ms_p50", "ms", l.p50_ms[1]),
        Metric::new("ml.share", "ratio", l.share[1]),
        Metric::new("ml.allocs_per_step", "allocs/step", l.allocs_per_step[1]),
        Metric::new("optim.deltas_ms_p50", "ms", l.p50_ms[2]),
        Metric::new("optim.share", "ratio", l.share[2]),
        Metric::new("optim.allocs_per_step", "allocs/step", l.allocs_per_step[2]),
        Metric::new("worker.spush_ms_p50", "ms", l.p50_ms[3]),
        Metric::new("worker.spush_share", "ratio", l.share[3]),
        Metric::new("worker.spush_allocs", "allocs/step", l.allocs_per_step[3]),
        Metric::new("worker.spull_wait_ms_p50", "ms", l.p50_ms[4]),
        Metric::new("worker.spull_wait_share", "ratio", l.share[4]),
        Metric::new(
            "worker.spull_wait_allocs",
            "allocs/step",
            l.allocs_per_step[4],
        ),
        Metric::new("worker.step_ms_p99", "ms", l.step_p99_ms),
        Metric::new("worker.unattributed_share", "ratio", l.unattributed_share),
        Metric::new("router.scatter_us", "us", replay.scatter_us),
        Metric::new("router.gather_us", "us", replay.gather_us),
        Metric::new("server.on_push_us", "us", replay.on_push_us),
        Metric::new("server.on_pull_us", "us", replay.on_pull_us),
        Metric::new(
            "server.pulls_immediate_ratio",
            "ratio",
            ratio(total.pulls_immediate, total.pulls_total),
        ),
        Metric::new(
            "server.pushes_per_step",
            "pushes/step",
            ratio(total.pushes, worker_steps),
        ),
        Metric::new(
            "server.late_pushes_dropped",
            "count/job",
            per_job(total.late_pushes_dropped),
        ),
        Metric::new(
            "dpr.deferred_ratio",
            "ratio",
            ratio(total.dprs, total.pulls_total),
        ),
        Metric::new(
            "dpr.wait_iterations_mean",
            "iterations",
            total.mean_dpr_wait(),
        ),
        Metric::new("dpr.buffer_peak", "count", buffer_peak as f64),
        Metric::new("pssp.passes", "count/job", per_job(total.pssp_passes)),
        Metric::new(
            "transport.bytes_per_step",
            "B/step",
            ratio(total.bytes_in + total.bytes_out, worker_steps),
        ),
        Metric::new("codec.encode_push_us", "us", replay.encode_push_us),
        Metric::new("codec.decode_push_us", "us", replay.decode_push_us),
        Metric::new(
            "codec.encode_pull_response_us",
            "us",
            replay.encode_pull_response_us,
        ),
        Metric::new(
            "recovery.retries",
            "count/job",
            per_job(events(|e| e.retries)),
        ),
        Metric::new(
            "recovery.checkpoints",
            "count/job",
            per_job(events(|e| e.checkpoints)),
        ),
        Metric::new(
            "recovery.connection_lost",
            "count/job",
            per_job(events(|e| e.connection_lost)),
        ),
        Metric::new(
            "obs.events_per_step",
            "events/step",
            ratio(events(|e| e.total), worker_steps),
        ),
        Metric::new("obs.overhead_share", "ratio", overhead),
    ];
    out.notes.push(
        "router.*, server.on_*_us and codec.* are uncontended: a single-threaded replay \
         of the workload's shapes, not timings inside the live threads"
            .into(),
    );

    out.spans = jobs.into_iter().map(|j| j.logs).collect();
    let error_rate = out.failed as f64 / out.attempted as f64;
    out.metrics
        .push(Metric::new("error_rate", "ratio", error_rate));
    Ok(out)
}

fn spans_path(args: &Args) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!(
            "{}-seed{}-spans.tsv",
            args.workload.name(),
            args.seed
        ))
}

/// First line of `cmd`'s standard output, or `unknown`.
fn command_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The record every result carries: revision, cores, compiler, seed, run
/// length and count, and the load shape.
fn provenance(args: &Args, jobs: usize) -> String {
    let rev = if std::path::Path::new(".git").exists() {
        command_line("git", &["rev-parse", "HEAD"])
    } else {
        "unknown".to_string()
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"workload\": \"{}\", \"git_rev\": \"{rev}\", \"nproc\": {nproc}, \"rustc\": \"{}\", \
         \"seed\": {}, \"run_seconds\": {}, \"jobs\": {jobs}, \"traced\": {}, \
         \"loop\": \"closed\", \"clients\": {WORKERS}}}",
        args.workload.name(),
        fluentps_obs::json::escape(&command_line("rustc", &["-V"])),
        args.seed,
        args.seconds,
        args.trace,
    )
}

/// Report a run that could not finish: the reason on stderr, a failed
/// result line, exit code 1.
fn fail(why: &str) -> ! {
    eprintln!("livebench: {why}");
    println!("{{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {{}}}}");
    exit(1);
}

fn main() {
    let origin = Instant::now();
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("livebench: {e}\n{USAGE}");
        exit(2);
    });
    // A hung job (e.g. a peer blocked after a failed call) must still end
    // the run, with a failed result.
    std::thread::spawn(move || {
        std::thread::sleep(DEADLINE.saturating_sub(origin.elapsed()));
        fail(&format!("run exceeded {DEADLINE:?}"));
    });

    let outcome = if args.trace {
        traced(&args, origin)
    } else {
        untraced(&args, origin)
    };
    let mut out = outcome.unwrap_or_else(|e| fail(&e));
    let provenance = provenance(&args, out.jobs);
    if !out.spans.is_empty() {
        let path = spans_path(&args);
        ledger::write_spans(&path, &provenance, &out.spans)
            .unwrap_or_else(|e| fail(&format!("writing {}: {e}", path.display())));
        out.notes
            .push(format!("spans written to {}", path.display()));
    }
    println!("provenance {provenance}");
    for note in &out.notes {
        println!("note {note}");
    }
    for m in &out.metrics {
        println!("metric {} {} {}", m.name, m.value, m.unit);
    }
    let correct = out.failed == 0;
    let line =
        result_line(correct, out.attempted, out.failed, &out.metrics).unwrap_or_else(|e| fail(&e));
    println!("{line}");
    if !correct {
        exit(1);
    }
}
