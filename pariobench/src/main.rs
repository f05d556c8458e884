//! The repository benchmark. One command runs one workload against the
//! real pario stack in this process, checks every byte it reads, prints
//! each metric by name with its unit, and ends with a one-line JSON
//! result:
//!
//! ```text
//! pariobench --workload stream|gda|remote --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` runs the
//! traced mode and reports the per-layer metrics. See `README.md`.

mod direct;
mod input;
mod report;
mod run;
mod stack;
mod stream;
mod trace;

use std::process::ExitCode;

use report::{Metric, ResultLine};
use run::Config;

/// End-to-end metrics in the result line, in this order.
const END_TO_END: [&str; 8] = [
    "setup_s",
    "ops_per_s",
    "read_mb_s",
    "write_mb_s",
    "read_p50_us",
    "read_p99_us",
    "write_p50_us",
    "write_p99_us",
];

/// Per-layer metrics of the traced mode, in this order. Layer names are
/// crate names: `net`, `server`, `core`, `fs`, `buffer`, `disk`.
const PER_LAYER: [&str; 23] = [
    "net.self_us",
    "server.self_us",
    "server.admission_wait_hw",
    "server.admitted_per_op",
    "core.self_us",
    "core.ss_balance",
    "fs.call_us",
    "fs.checkpoints_per_mib",
    "fs.create_ms",
    "fs.remove_ms",
    "fs.remount_ms",
    "fs.replayed_records",
    "buffer.hit_ratio",
    "buffer.evictions_per_op",
    "buffer.writebacks_per_op",
    "buffer.coalesced_per_miss",
    "disk.ionode.queue_wait_us",
    "disk.ionode.service_us",
    "disk.ionode.requests_per_op",
    "disk.dev.blocks_per_request",
    "disk.dev.flushes_per_op",
    "disk.dev.busy_max_over_mean",
    "trace.overhead",
];

const WORKLOADS: [&str; 3] = ["stream", "gda", "remote"];

struct Args {
    workload: String,
    cfg: Config,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds {s} is outside (0, 3600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                })
            }
            f => return Err(format!("unknown flag {f}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        cfg: Config {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
        },
    })
}

fn print_metric(m: &Metric) {
    println!(
        "  {:<28} {:>14.4} {:<10} {}",
        m.name, m.value, m.unit, m.note
    );
}

/// Pick `names` out of `metrics` in order; a missing or repeated name
/// is a benchmark bug.
fn select(names: &[&str], metrics: &[Metric]) -> Result<Vec<Metric>, String> {
    names
        .iter()
        .map(|n| {
            let mut found = metrics.iter().filter(|m| m.name == *n);
            match (found.next(), found.next()) {
                (Some(m), None) => Ok(m.clone()),
                (None, _) => Err(format!("metric {n} was not measured")),
                (Some(_), Some(_)) => Err(format!("metric {n} was measured twice")),
            }
        })
        .collect()
}

/// Let every thread's sleeps end on time. Linux lets a sleeping thread
/// overrun by its timer slack, 50 µs by default, so that it can wake
/// with other timers. The `stream` devices sleep 200 µs per request on
/// the volume's executor threads; with the default slack a request took
/// 200–250 µs, depending on which other timers happened to be due, and
/// the write p50 of whole runs jumped between two values 30% apart.
/// Threads inherit the slack of the thread that spawns them, so this
/// runs before any thread starts.
fn precise_timers() {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn prctl(option: i32, ...) -> i32;
        }
        const PR_SET_TIMERSLACK: i32 = 29;
        // SAFETY: PR_SET_TIMERSLACK takes one unsigned long and only
        // changes the calling thread's timer slack; no memory is passed.
        // A failure leaves the default slack, which only costs accuracy.
        unsafe {
            prctl(PR_SET_TIMERSLACK, 1u64);
        }
    }
}

fn main() -> ExitCode {
    precise_timers();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pariobench: {e}");
            eprintln!(
                "usage: pariobench --workload stream|gda|remote --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let cfg = &args.cfg;
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "pariobench workload={} seed={} seconds={} trace={} cores={cores}",
        args.workload, cfg.seed, cfg.seconds, cfg.trace as u8
    );
    let outcome = match args.workload.as_str() {
        "stream" => stream::run(cfg),
        "gda" => direct::run(cfg, false),
        _ => direct::run(cfg, true),
    };
    let mut o = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("pariobench: set-up failed: {e}");
            return ExitCode::from(2);
        }
    };
    let mut failures = std::mem::take(&mut o.failures);
    let e2e = run::end_to_end(&o, &mut failures);
    println!(
        "end to end ({}):",
        if cfg.trace {
            "untraced half of a traced run"
        } else {
            "untraced"
        }
    );
    e2e.iter().for_each(print_metric);
    let log = &o.measured.log;
    for note in &log.error_notes {
        println!("  error: {note}");
    }
    let shown = if cfg.trace {
        println!("per layer:");
        o.layers.iter().for_each(print_metric);
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{}.csv", args.workload));
        let dropped: u64 = o.spans.iter().map(|b| b.dropped).sum();
        let all: Vec<trace::Span> = o.spans.drain(..).flat_map(|b| b.spans).collect();
        let n = all.len();
        match trace::write_spans(&path, all) {
            Ok(()) => println!(
                "spans: {n} written to {} ({dropped} over the cap, not kept)",
                path.display()
            ),
            Err(e) => eprintln!("pariobench: writing spans to {}: {e}", path.display()),
        }
        select(&PER_LAYER, &o.layers)
    } else {
        select(&END_TO_END, &e2e)
    };
    let shown = match shown {
        Ok(s) => s,
        Err(e) => {
            eprintln!("pariobench: {e}");
            return ExitCode::from(2);
        }
    };
    for f in failures.iter().take(20) {
        println!("FAILED CHECK: {f}");
    }
    let correct = failures.is_empty();
    println!(
        "{}",
        ResultLine::new(correct, log.attempted, log.failed, &shown).json()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
