//! What every workload hands back, and the end-to-end metrics made
//! from it.

use std::time::{Duration, Instant};

use crate::report::{median, quantile, Metric, Ratio, Samples, BLOCK, MIN_BEYOND_P99};
use crate::stack::CLIENTS;
use crate::trace::{new_id, set_current_op, SpanBuf};

/// Command-line settings of one run.
#[derive(Clone, Debug)]
pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Config {
    /// The length of one measured phase: the whole run untraced; half
    /// of it in a traced run, which measures an untraced and a traced
    /// phase back to back.
    pub fn phase(&self) -> Duration {
        let share = if self.trace { 0.5 } else { 1.0 };
        Duration::from_secs_f64(self.seconds * share)
    }
}

/// One client's record of a phase.
#[derive(Default)]
pub struct Log {
    pub reads: Samples,
    pub writes: Samples,
    pub read_bytes: u64,
    pub write_bytes: u64,
    pub attempted: u64,
    /// Ops that returned `Err`.
    pub failed: u64,
    /// The first few error messages, for the report.
    pub error_notes: Vec<String>,
    /// Wrong bytes and other failed checks.
    pub wrong: Vec<String>,
    pub spans: SpanBuf,
}

impl Log {
    pub fn error(&mut self, msg: String) {
        self.failed += 1;
        if self.error_notes.len() < 4 {
            self.error_notes.push(msg);
        }
    }

    pub fn absorb(&mut self, o: Log) {
        self.reads.extend(&o.reads);
        self.writes.extend(&o.writes);
        self.read_bytes += o.read_bytes;
        self.write_bytes += o.write_bytes;
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.error_notes.extend(o.error_notes);
        self.error_notes.truncate(4);
        self.wrong.extend(o.wrong);
        self.spans.absorb(o.spans);
    }
}

/// One measured phase.
#[derive(Default)]
pub struct Phase {
    pub log: Log,
    pub seconds: f64,
    /// Seconds the overall read and write rates divide by (for `stream`,
    /// the read and write phases of its rounds; otherwise `seconds`).
    pub read_seconds: f64,
    pub write_seconds: f64,
    /// The phase cut into windows: whole seconds, or `stream` rounds.
    pub windows: Vec<Window>,
}

/// One window of a phase: its span and what the clients completed in it.
#[derive(Clone, Copy, Debug, Default)]
pub struct Window {
    pub start_ns: u64,
    pub end_ns: u64,
    pub ops: u64,
    pub read_bytes: u64,
    pub write_bytes: u64,
    /// Seconds the read and write rates divide by: the window, or the
    /// read and write phases of a `stream` round.
    pub read_s: f64,
    pub write_s: f64,
}

impl Window {
    fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

impl Phase {
    pub fn ops_per_s(&self) -> f64 {
        (self.log.attempted - self.log.failed) as f64 / self.seconds
    }
}

/// Everything one run produced.
pub struct Outcome {
    /// Each set-up's seconds; the median is reported.
    pub setups: Vec<f64>,
    /// The untraced phase.
    pub measured: Phase,
    /// Per-layer metrics of a traced run, in any order.
    pub layers: Vec<Metric>,
    /// Failed checks: wrong bytes, lost or duplicated records, audit
    /// errors, admission miscounts.
    pub failures: Vec<String>,
    /// Every span buffer of a traced run, each capped on its own.
    pub spans: Vec<SpanBuf>,
}

fn dist_metrics(
    p50: &'static str,
    p99: &'static str,
    what: &str,
    s: &Samples,
    failures: &mut Vec<String>,
) -> [Metric; 2] {
    let Some(b) = s.blocked() else {
        failures.push(format!(
            "fewer {what} than one block of {BLOCK}: {p50} and {p99} are undefined"
        ));
        return [
            Metric::new(p50, 0.0, "us", ""),
            Metric::new(p99, 0.0, "us", ""),
        ];
    };
    let o = b.overall;
    let base = format!("lower quartile over {} blocks of {BLOCK} {what}", b.blocks);
    [
        Metric::new(
            p50,
            b.p50_ns / 1e3,
            "us",
            format!("{base}; all n={} {what}: p50 {:.1}", o.n, o.p50_ns as f64 / 1e3),
        ),
        Metric::new(
            p99,
            b.p99_ns / 1e3,
            "us",
            format!(
                "{base}, each with {MIN_BEYOND_P99} beyond its p99; all n={} {what}: p99 {:.1}, {} beyond",
                o.n,
                o.p99_ns as f64 / 1e3,
                o.beyond_p99
            ),
        ),
    ]
}

/// The end-to-end metrics, in `BENCHMARK.json` order, then the error
/// rate (printed, but carried in the result line as attempted/failed).
pub fn end_to_end(o: &Outcome, failures: &mut Vec<String>) -> Vec<Metric> {
    let p = &o.measured;
    let l = &p.log;
    if p.windows.is_empty() {
        failures.push("the phase was shorter than one window".into());
    }
    // Interference from outside the program only ever lowers a window's
    // rate, so the upper quartile over windows measures the program.
    let rate = |name: &'static str, unit: &'static str, f: fn(&Window) -> f64, all: Ratio| {
        let v: Vec<f64> = p.windows.iter().map(f).collect();
        let value = if v.is_empty() {
            0.0
        } else {
            quantile(&v, 0.75)
        };
        let note = format!(
            "upper quartile over {} windows; whole phase {:.3} ({})",
            v.len(),
            all.value(),
            all.base()
        );
        Metric::new(name, value, unit, note)
    };
    let mb = |bytes: u64, secs: f64| Ratio::new(bytes as f64 / 1e6, "MB", secs, "s");
    let [r50, r99] = dist_metrics("read_p50_us", "read_p99_us", "reads", &l.reads, failures);
    let [w50, w99] = dist_metrics(
        "write_p50_us",
        "write_p99_us",
        "writes",
        &l.writes,
        failures,
    );
    let metrics = vec![
        Metric::new(
            "setup_s",
            median(&o.setups),
            "s",
            format!("median of {} set-ups", o.setups.len()),
        ),
        rate(
            "ops_per_s",
            "ops/s",
            |w| w.ops as f64 / w.secs(),
            Ratio::new(
                (l.attempted - l.failed) as f64,
                "completed ops",
                p.seconds,
                "s",
            ),
        ),
        rate(
            "read_mb_s",
            "MB/s",
            |w| w.read_bytes as f64 / 1e6 / w.read_s,
            mb(l.read_bytes, p.read_seconds),
        ),
        rate(
            "write_mb_s",
            "MB/s",
            |w| w.write_bytes as f64 / 1e6 / w.write_s,
            mb(l.write_bytes, p.write_seconds),
        ),
        r50,
        r99,
        w50,
        w99,
        Metric::ratio(
            "error_rate",
            "ratio",
            &Ratio::new(l.failed as f64, "failed", l.attempted as f64, "attempted"),
        ),
    ];
    metrics
}

/// Run clients `0..CLIENTS` over `f` on threads of their own and merge
/// their logs; each thread's result is returned in client order.
pub fn per_client<T: Send>(f: impl Fn(usize, &mut Log) -> T + Sync) -> (Log, Vec<T>) {
    let results: Vec<(Log, T)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let f = &f;
                s.spawn(move || {
                    let mut log = Log::default();
                    let t = f(c, &mut log);
                    (log, t)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut log = Log::default();
    let mut out = Vec::new();
    for (l, t) in results {
        log.absorb(l);
        out.push(t);
    }
    (log, out)
}

/// Time one ladder call as an op of its own, so the device spans it
/// causes name it. Returns the call's nanoseconds and its result.
pub fn timed_op<T>(name: &'static str, log: &mut Log, f: impl FnOnce() -> T) -> (u64, T) {
    let op = new_id();
    set_current_op(op);
    let t0 = Instant::now();
    let r = f();
    let t1 = Instant::now();
    set_current_op(0);
    log.spans.record(name, op, t0, t1);
    ((t1 - t0).as_nanos() as u64, r)
}

/// Every server call is admitted exactly once: the growth of
/// `total_admitted` over a phase must equal the calls it drove.
pub fn check_admitted(before: u64, after: u64, p: &Phase, failures: &mut Vec<String>) {
    if after - before != p.log.attempted {
        failures.push(format!(
            "total_admitted grew by {} over a phase that drove {} ops",
            after - before,
            p.log.attempted
        ));
    }
}
