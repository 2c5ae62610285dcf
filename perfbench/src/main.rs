//! The SpaceCDN workspace benchmark: one workload per process, timed
//! from outside through the crates' public functions.
//!
//! ```text
//! spacecdn-perfbench --workload constellation-sweep|fault-churn|serve-small
//!                    --seed N --seconds S --trace 0|1 [--out DIR]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` a separate
//! traced run's per-layer metrics, with spans written to
//! `DIR/trace-<workload>-<seed>.jsonl`. The last stdout line is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. See
//! `perfbench/README.md` for the workloads and the metric map.

mod campaign;
mod pinned;
mod probes;
mod serve;
mod stats;
mod trace;

use spacecdn_core::DeltaStats;
use spacecdn_telemetry::MetricsReport;
use stats::Metrics;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Environment knobs that change what the program computes or how; the
/// benchmark refuses to run under any of them.
const FORBIDDEN_ENV: [&str; 5] = [
    "SPACECDN_NO_DELTA",
    "SPACECDN_NO_ROUTING_CACHE",
    "SPACECDN_NO_SNAPSHOT_POOL",
    "SPACECDN_POLICY",
    "SPACECDN_PLACEMENT",
];

/// Knobs the benchmark overrides in process; their values are printed.
const OVERRIDDEN_ENV: [&str; 3] = ["SPACECDN_THREADS", "RAYON_NUM_THREADS", "SPACECDN_METRICS"];

/// Self-time rows of a traced run, in report order.
pub const SELF_ROWS: [&str; 9] = [
    "measure.traffic",
    "lsn",
    "core.scenario",
    "core.traffic",
    "serve.socket",
    "serve.parse",
    "serve.journal",
    "serve.session",
    trace::OTHER,
];

/// What a workload run produced.
pub struct Outcome {
    /// Operations checked (engine calls or socket commands, plus replay
    /// and digest checks).
    pub attempted: u64,
    /// One message per failed check.
    pub failures: Vec<String>,
    /// End-to-end (untraced) or per-layer (traced) metrics.
    pub metrics: Metrics,
}

/// A snapshot of the telemetry registry.
pub struct Registry(MetricsReport);

impl Registry {
    /// Snapshot every registered metric now.
    pub fn read() -> Registry {
        Registry(spacecdn_telemetry::snapshot())
    }

    fn counter(&self, name: &str) -> u64 {
        self.0.counter(name).unwrap_or(0)
    }

    /// Counter `name` now minus in `earlier`.
    pub fn counter_delta(&self, earlier: &Registry, name: &str) -> u64 {
        self.counter(name).saturating_sub(earlier.counter(name))
    }

    fn hist(&self, name: &str) -> Option<&spacecdn_telemetry::HistogramSnapshot> {
        self.0.histograms.iter().find(|h| h.name == name)
    }

    /// Sum of histogram `name`'s samples.
    pub fn hist_sum(&self, name: &str) -> u64 {
        self.hist(name).map_or(0, |h| h.sum)
    }

    /// Sample count of histogram `name`.
    pub fn hist_count(&self, name: &str) -> u64 {
        self.hist(name).map_or(0, |h| h.count)
    }

    /// Snapshot-pool hits over hits + builds since `earlier`.
    pub fn pool_hit_ratio(&self, earlier: &Registry) -> f64 {
        let hit = self.counter_delta(earlier, "engine.snapshot_pool.hit") as f64;
        let build = self.counter_delta(earlier, "engine.snapshot_pool.build") as f64;
        if hit + build == 0.0 {
            0.0
        } else {
            hit / (hit + build)
        }
    }

    /// Print every counter that moved since `earlier`.
    pub fn print_delta(&self, earlier: &Registry) {
        println!("registry counters over the measured window:");
        for c in &self.0.counters {
            let d = c.value.saturating_sub(earlier.counter(&c.name));
            if d > 0 {
                println!("  {:<44} {d}", c.name);
            }
        }
    }
}

/// Delta advances over all advances between two readings.
pub fn delta_share(a: &DeltaStats, b: &DeltaStats) -> f64 {
    let delta = b.delta_advances - a.delta_advances;
    let full = b.full_builds - a.full_builds;
    if delta + full == 0 {
        0.0
    } else {
        delta as f64 / (delta + full) as f64
    }
}

/// Add the self-time rows, traced wall and tracing overhead, and print
/// the attribution table.
pub fn put_self_rows(
    m: &mut Metrics,
    rows: &BTreeMap<&'static str, f64>,
    wall: f64,
    overhead: f64,
) {
    println!("traced self time ({wall:.3} s traced wall):");
    for row in SELF_ROWS {
        let name = format!("self.{row}_s");
        match rows.get(row) {
            Some(&v) => {
                println!("  {row:<16} {v:>10.4} s {:>6.1} %", 100.0 * v / wall);
                m.put(&name, v, "s");
            }
            None => {
                println!("  {row:<16} {:>10} (no span)", "-");
                m.put_not_called(&name, "s");
            }
        }
    }
    let unknown: Vec<_> = rows.keys().filter(|k| !SELF_ROWS.contains(k)).collect();
    assert!(
        unknown.is_empty(),
        "spans outside the self-time rows: {unknown:?}"
    );
    println!(
        "  sum of rows {:.4} s; tracing overhead {:+.2} %",
        rows.values().sum::<f64>(),
        overhead * 100.0
    );
    m.put("trace.wall_s", wall, "s");
    m.put("trace.overhead_share", overhead, "ratio");
}

/// Write the recorded spans as JSON lines.
pub fn write_trace(path: &Path, tr: &trace::Tracer) {
    match std::fs::write(path, tr.to_jsonl()) {
        Ok(()) => println!("spans: {} written to {}", tr.spans().len(), path.display()),
        Err(e) => println!("spans not written to {}: {e}", path.display()),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: pinned::DEFAULT_SEED,
        seconds: 25.0,
        trace: false,
        out: PathBuf::from("perfbench/out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                }
            }
            "--out" => args.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

fn run(args: &Args) -> Result<Outcome, String> {
    let trace_out = args
        .out
        .join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
    let spec = match args.workload.as_str() {
        "constellation-sweep" => Some(&campaign::SWEEP),
        "fault-churn" => Some(&campaign::CHURN),
        "serve-small" => None,
        other => return Err(format!("unknown workload {other:?}")),
    };
    match (spec, args.trace) {
        (Some(spec), false) => Ok(campaign::measure(spec, args.seed, args.seconds)),
        (Some(spec), true) => Ok(campaign::trace(spec, args.seed, args.seconds, &trace_out)),
        (None, trace) => {
            let tmp = args.out.join(format!("serve-{}", std::process::id()));
            let result = if trace {
                serve::trace(args.seed, args.seconds, &tmp, &trace_out)
            } else {
                serve::measure(args.seed, args.seconds, &tmp)
            };
            let _ = std::fs::remove_dir_all(&tmp);
            result.map_err(|e| format!("serve-small: {e}"))
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("spacecdn-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let set: Vec<&str> = FORBIDDEN_ENV
        .iter()
        .copied()
        .filter(|k| std::env::var_os(k).is_some())
        .collect();
    if !set.is_empty() {
        eprintln!("spacecdn-perfbench: refusing to run with {set:?} set; unset them");
        return ExitCode::from(2);
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    spacecdn_engine::set_thread_override(Some(nproc));
    spacecdn_telemetry::set_metrics_override(Some(true));
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!(
            "spacecdn-perfbench: cannot create {}: {e}",
            args.out.display()
        );
        return ExitCode::from(2);
    }
    let overridden: Vec<String> = OVERRIDDEN_ENV
        .iter()
        .filter_map(|k| {
            std::env::var(k)
                .ok()
                .map(|v| format!("{k}={v} (overridden)"))
        })
        .collect();
    println!(
        "workload {} · seed {} · {} s · trace {} · nproc {nproc} · engine threads {} · env {:?}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        spacecdn_engine::thread_count(),
        overridden
    );

    let outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("spacecdn-perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut failures = outcome.failures;
    if let Some(name) = outcome.metrics.first_non_finite() {
        failures.push(format!("metric {name} is not a finite number"));
    }
    for f in &failures {
        println!("FAILED: {f}");
    }
    let failed = failures.len() as u64;
    let attempted = outcome.attempted.max(failed).max(1);
    outcome.metrics.print(if args.trace {
        "per-layer metrics (traced run)"
    } else {
        "end-to-end metrics (untraced run)"
    });
    println!(
        "failed_ops {:.6} ({failed} of {attempted})",
        failed as f64 / attempted as f64
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0,
        outcome.metrics.to_json()
    );
    ExitCode::SUCCESS
}
