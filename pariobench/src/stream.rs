//! `stream`: the paper's sequential family, closed loop.
//!
//! Each round creates a self-scheduled (SS) file of 64 KiB records on
//! the default 4-way stripe. Two clients append half of a 32 MiB file
//! each with `SsClient::write_next`, publish it with `finish_writes`,
//! then drain it with `read_next`; the next round starts by removing
//! the file. The file is 4x the 8 MiB cache, so the rounds exercise
//! striping, span coalescing, executor parallelism over slow devices,
//! file growth (journal records and checkpoints) and write-back, and
//! skip the cache-hit path, range locks and the network.

use std::sync::Arc;
use std::time::{Duration, Instant};

use pario_core::{Organization, ParallelFile};
use pario_fs::Volume;
use pario_server::{Server, ServerConfig, Session, SsClient};

use crate::input::{check, fill, mix};
use crate::report::{mean_us, median, self_time, Metric, Ratio};
use crate::run::{check_admitted, per_client, timed_op, Config, Log, Outcome, Phase, Window};
use crate::stack::{self, snapshot, Driven, CLIENTS};
use crate::trace::{new_id, ns_since_epoch, set_tracing, CountingDevice};

/// Sleeping service delay per device request (at least 100 µs, so the
/// device sleeps rather than spins).
const DELAY: Duration = Duration::from_micros(200);
/// 16 MiB per device: room for one 32 MiB file plus the meta region.
const DEVICE_BLOCKS: u64 = 4096;
const RECORD: usize = 64 << 10;
/// 512 records of 64 KiB: a 32 MiB file, 4x the cache.
const FILE_RECORDS: u64 = 512;
const SETUPS: usize = 15;
/// Drains of the kept file per ladder rung.
const LADDER_ROUNDS: usize = 3;

struct Stack {
    devs: Vec<Arc<CountingDevice>>,
    vol: Volume,
    server: Server,
    sessions: Vec<Session>,
}

fn setup() -> Result<Stack, String> {
    let devs = stack::devices(DEVICE_BLOCKS, DELAY);
    let vol = stack::volume(&devs)?;
    let server = Server::new(vol.clone(), ServerConfig::default());
    let sessions = (0..CLIENTS).map(|_| server.connect()).collect();
    Ok(Stack {
        devs,
        vol,
        server,
        sessions,
    })
}

/// A record's tag: round, client and the client's sequence number.
fn tag(round: u64, client: usize, seq: u64) -> u64 {
    (round << 32) | ((client as u64) << 24) | seq
}

/// What one round left behind.
struct Round {
    name: String,
    create_ms: f64,
    write_s: f64,
    read_s: f64,
    /// Records each client read.
    claims: Vec<u64>,
    /// Every tag written, sorted.
    written: Vec<u64>,
}

fn round(st: &Stack, r: u64, salt: u64, log: &mut Log) -> Result<Round, String> {
    let name = format!("stream{r}");
    let t0 = Instant::now();
    ParallelFile::create(&st.vol, &name, Organization::SelfScheduledSeq, RECORD, 1)
        .map_err(|e| format!("create {name}: {e}"))?;
    let t_created = Instant::now();
    log.spans.record("fs.create", 0, t0, t_created);
    let clients: Vec<SsClient> = st
        .sessions
        .iter()
        .map(|s| s.open_self_sched(&name))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("open {name}: {e}"))?;
    let quota = FILE_RECORDS / CLIENTS as u64;

    let (wlog, tags) = per_client(|c, log| {
        let mut buf = vec![0u8; RECORD];
        let mut written = Vec::with_capacity(quota as usize);
        for i in 0..quota {
            let t = tag(r, c, i);
            fill(&mut buf, t, 0, salt);
            let op = new_id();
            let t0 = Instant::now();
            let res = clients[c].write_next(&buf);
            let t1 = Instant::now();
            log.spans.record("server.ss.write_next", op, t0, t1);
            log.attempted += 1;
            match res {
                Ok(_) => {
                    log.writes
                        .push(ns_since_epoch(t1), (t1 - t0).as_nanos() as u64);
                    log.write_bytes += RECORD as u64;
                    written.push(t);
                }
                Err(e) => log.error(format!("write_next: {e}")),
            }
        }
        if let Err(e) = clients[c].finish_writes() {
            log.wrong.push(format!("finish_writes on {name}: {e}"));
        }
        written
    });
    let t_written = Instant::now();
    log.spans.record("stream.write_phase", 0, t0, t_written);
    log.absorb(wlog);

    let (rlog, reads) = per_client(|c, log| {
        let mut buf = vec![0u8; RECORD];
        let mut got = Vec::new();
        let mut errors_in_a_row = 0;
        loop {
            let op = new_id();
            let t0 = Instant::now();
            let res = clients[c].read_next(&mut buf);
            let t1 = Instant::now();
            log.spans.record("server.ss.read_next", op, t0, t1);
            log.attempted += 1;
            match res {
                Ok(next) => {
                    errors_in_a_row = 0;
                    log.reads
                        .push(ns_since_epoch(t1), (t1 - t0).as_nanos() as u64);
                    let Some(idx) = next else { break };
                    log.read_bytes += RECORD as u64;
                    match check(&buf, salt) {
                        Ok((t, _)) => got.push(t),
                        Err(e) => log.wrong.push(format!("{name} record {idx}: {e}")),
                    }
                }
                Err(e) => {
                    log.error(format!("read_next: {e}"));
                    errors_in_a_row += 1;
                    if errors_in_a_row > 100 {
                        break;
                    }
                }
            }
        }
        got
    });
    let t_read = Instant::now();
    log.spans.record("stream.read_phase", 0, t_written, t_read);
    log.absorb(rlog);

    let claims = reads.iter().map(|v| v.len() as u64).collect();
    let mut written: Vec<u64> = tags.into_iter().flatten().collect();
    let mut read: Vec<u64> = reads.into_iter().flatten().collect();
    written.sort_unstable();
    read.sort_unstable();
    if read != written {
        log.wrong.push(exactly_once_failure(&name, &written, &read));
    }
    Ok(Round {
        name,
        create_ms: (t_created - t0).as_secs_f64() * 1e3,
        write_s: (t_written - t0).as_secs_f64(),
        read_s: (t_read - t_written).as_secs_f64(),
        claims,
        written,
    })
}

fn exactly_once_failure(name: &str, written: &[u64], read: &[u64]) -> String {
    let dups = read.windows(2).filter(|w| w[0] == w[1]).count();
    let missing = written
        .iter()
        .filter(|t| read.binary_search(t).is_err())
        .count();
    format!(
        "{name}: exactly-once violated: {} written, {} read, {missing} never read, {dups} read twice",
        written.len(),
        read.len()
    )
}

/// Rounds for `len`; the last round's file is kept. `prev` is removed
/// first, timed like every removal.
struct Rounds {
    phase: Phase,
    create_ms: Vec<f64>,
    remove_ms: Vec<f64>,
    claims: Vec<u64>,
    last: Option<Round>,
}

fn rounds(
    st: &Stack,
    first_round: u64,
    mut prev: Option<String>,
    len: Duration,
    salt: u64,
    failures: &mut Vec<String>,
) -> Rounds {
    let mut out = Rounds {
        phase: Phase::default(),
        create_ms: Vec::new(),
        remove_ms: Vec::new(),
        claims: vec![0; CLIENTS],
        last: None,
    };
    let mut log = Log::default();
    let start = Instant::now();
    let mut r = first_round;
    loop {
        let round_start = Instant::now();
        let (ops0, read0, written0) = (log.attempted - log.failed, log.read_bytes, log.write_bytes);
        if let Some(p) = prev.take() {
            let t0 = Instant::now();
            let res = st.vol.remove(&p);
            let t1 = Instant::now();
            log.spans.record("fs.remove", 0, t0, t1);
            match res {
                Ok(()) => out.remove_ms.push((t1 - t0).as_secs_f64() * 1e3),
                Err(e) => failures.push(format!("remove {p}: {e}")),
            }
        }
        match round(st, r, salt, &mut log) {
            Ok(rd) => {
                out.create_ms.push(rd.create_ms);
                out.phase.write_seconds += rd.write_s;
                out.phase.read_seconds += rd.read_s;
                out.phase.windows.push(Window {
                    start_ns: ns_since_epoch(round_start),
                    end_ns: ns_since_epoch(Instant::now()),
                    ops: log.attempted - log.failed - ops0,
                    read_bytes: log.read_bytes - read0,
                    write_bytes: log.write_bytes - written0,
                    read_s: rd.read_s,
                    write_s: rd.write_s,
                });
                for (a, b) in out.claims.iter_mut().zip(&rd.claims) {
                    *a += b;
                }
                prev = Some(rd.name.clone());
                out.last = Some(rd);
            }
            Err(e) => {
                failures.push(e);
                break;
            }
        }
        r += 1;
        if start.elapsed() >= len {
            break;
        }
    }
    out.phase.seconds = start.elapsed().as_secs_f64();
    out.phase.log = log;
    out
}

/// One-client drains of the kept file, one rung down the stack at a
/// time: a fresh server's `SsClient`, a fresh `pario-core` SS reader,
/// and `RawFile::read_record`. Returns each rung's mean call time per
/// round, in µs.
fn ladder(
    st: &Stack,
    name: &str,
    n: u64,
    salt: u64,
    log: &mut Log,
) -> Result<[Vec<f64>; 3], String> {
    let mut means: [Vec<f64>; 3] = Default::default();
    let pf = ParallelFile::open(&st.vol, name).map_err(|e| format!("open {name}: {e}"))?;
    let mut buf = vec![0u8; RECORD];
    for _ in 0..LADDER_ROUNDS {
        for (rung, mean) in means.iter_mut().enumerate() {
            let mut ns = Vec::with_capacity(n as usize);
            let verify = |log: &mut Log, buf: &[u8]| {
                if let Err(e) = check(buf, salt) {
                    log.wrong.push(format!("ladder read of {name}: {e}"));
                }
            };
            match rung {
                0 => {
                    let server = Server::new(st.vol.clone(), ServerConfig::default());
                    let ss = server
                        .connect()
                        .open_self_sched(name)
                        .map_err(|e| format!("ladder open {name}: {e}"))?;
                    loop {
                        let (d, res) = timed_op("ladder.server", log, || ss.read_next(&mut buf));
                        ns.push(d);
                        match res {
                            Ok(Some(_)) => verify(log, &buf),
                            Ok(None) => break,
                            Err(e) => return Err(format!("ladder server read: {e}")),
                        }
                    }
                }
                1 => {
                    let fresh = ParallelFile::open(&st.vol, name)
                        .and_then(|p| p.self_sched_reader())
                        .map_err(|e| format!("ladder open {name}: {e}"))?;
                    loop {
                        let (d, res) = timed_op("ladder.core", log, || fresh.read_next(&mut buf));
                        ns.push(d);
                        match res {
                            Ok(Some(_)) => verify(log, &buf),
                            Ok(None) => break,
                            Err(e) => return Err(format!("ladder core read: {e}")),
                        }
                    }
                }
                _ => {
                    for i in 0..n {
                        let (d, res) =
                            timed_op("ladder.fs", log, || pf.raw().read_record(i, &mut buf));
                        ns.push(d);
                        res.map_err(|e| format!("ladder fs read: {e}"))?;
                        verify(log, &buf);
                    }
                }
            }
            mean.push(mean_us(&ns));
        }
    }
    Ok(means)
}

/// Flush, abandon, remount, audit, and re-read the kept file.
fn recover(st: Stack, last: &Round, salt: u64, failures: &mut Vec<String>) -> Vec<Metric> {
    if let Err(e) = st.vol.flush_cache() {
        failures.push(format!("flush before remount: {e}"));
    }
    st.vol.abandon();
    let devs = st.devs;
    drop((st.vol, st.server, st.sessions));
    let t0 = Instant::now();
    let vol = match stack::remount(&devs) {
        Ok(v) => v,
        Err(e) => {
            failures.push(e);
            return Vec::new();
        }
    };
    let remount_ms = t0.elapsed().as_secs_f64() * 1e3;
    let replayed = vol.mount_report().map_or(0, |r| r.replayed_records);
    match pario_reliability::audit_volume(&vol) {
        Ok(a) if a.is_clean() => {}
        Ok(a) => failures.push(format!("audit after remount: {:?}", a.errors)),
        Err(e) => failures.push(format!("audit after remount: {e}")),
    }
    match ParallelFile::open(&vol, &last.name) {
        Ok(pf) => {
            let mut buf = vec![0u8; RECORD];
            let mut tags = Vec::new();
            for i in 0..last.written.len() as u64 {
                match pf.raw().read_span(i * RECORD as u64, &mut buf) {
                    Ok(()) => match check(&buf, salt) {
                        Ok((t, _)) => tags.push(t),
                        Err(e) => failures.push(format!("after remount, record {i}: {e}")),
                    },
                    Err(e) => failures.push(format!("after remount, read {i}: {e}")),
                }
            }
            tags.sort_unstable();
            if tags != last.written {
                failures.push(exactly_once_failure(&last.name, &last.written, &tags));
            }
        }
        Err(e) => failures.push(format!("open {} after remount: {e}", last.name)),
    }
    vec![
        Metric::new(
            "fs.remount_ms",
            remount_ms,
            "ms",
            "Volume::mount after abandon, kept file on the volume",
        ),
        Metric::new(
            "fs.replayed_records",
            replayed as f64,
            "count",
            "mount_report().replayed_records",
        ),
    ]
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let salt = mix(cfg.seed);
    // Every set-up stays alive until the last is done: freeing one
    // would let the allocator hand its memory to the next, which would
    // then pay to zero it, and set-up times would depend on the order.
    let mut setups = Vec::new();
    let mut built = Vec::new();
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        built.push(setup()?);
        setups.push(t0.elapsed().as_secs_f64());
    }
    let st = built.pop().expect("at least one set-up");
    drop(built);
    let mut failures = Vec::new();

    let before = snapshot(&st.vol, &st.server, &st.devs);
    let mut untraced = rounds(&st, 0, None, cfg.phase(), salt, &mut failures);
    let after = snapshot(&st.vol, &st.server, &st.devs);
    check_admitted(
        before.admitted(),
        after.admitted(),
        &untraced.phase,
        &mut failures,
    );
    let mut layers = Vec::new();
    let mut spans = Vec::new();
    let mut last = untraced.last.take();

    if cfg.trace {
        set_tracing(true);
        let mut traced = rounds(
            &st,
            1 << 20,
            last.as_ref().map(|l| l.name.clone()),
            cfg.phase(),
            salt,
            &mut failures,
        );
        set_tracing(false);
        let after_traced = snapshot(&st.vol, &st.server, &st.devs);
        let p = &traced.phase;
        check_admitted(after.admitted(), after_traced.admitted(), p, &mut failures);
        let driven = Driven {
            ops: p.log.attempted,
            bytes_written: p.log.write_bytes,
        };
        layers.extend(stack::layer_metrics(&after, &after_traced, &driven));
        layers.push(Metric::ratio(
            "trace.overhead",
            "ratio",
            &Ratio::new(
                p.ops_per_s(),
                "traced ops/s",
                untraced.phase.ops_per_s(),
                "untraced ops/s",
            ),
        ));
        let (lo, hi) = (
            traced.claims.iter().copied().min().unwrap_or(0),
            traced.claims.iter().copied().max().unwrap_or(0),
        );
        layers.push(Metric::ratio(
            "core.ss_balance",
            "ratio",
            &Ratio::new(lo as f64, "fewest records claimed", hi as f64, "most"),
        ));
        layers.push(Metric::new(
            "fs.create_ms",
            median(&traced.create_ms),
            "ms",
            format!("median of {} ParallelFile::create", traced.create_ms.len()),
        ));
        if !traced.remove_ms.is_empty() {
            layers.push(Metric::new(
                "fs.remove_ms",
                median(&traced.remove_ms),
                "ms",
                format!("median of {} Volume::remove", traced.remove_ms.len()),
            ));
        }
        last = traced.last.take();
        failures.append(&mut traced.phase.log.wrong);
        spans.push(std::mem::take(&mut traced.phase.log.spans));
        let mut tlog = Log::default();
        if let Some(l) = &last {
            set_tracing(true);
            let res = ladder(&st, &l.name, l.written.len() as u64, salt, &mut tlog);
            set_tracing(false);
            match res {
                Ok([server, core, fs]) => {
                    let n = format!("{LADDER_ROUNDS} one-client drains of a {FILE_RECORDS}-record file per rung");
                    layers.push(Metric::new(
                        "server.self_us",
                        self_time(&server, &core),
                        "us",
                        format!("SsClient::read_next - SelfSchedReader::read_next, {n}"),
                    ));
                    layers.push(Metric::new(
                        "core.self_us",
                        self_time(&core, &fs),
                        "us",
                        format!("SelfSchedReader::read_next - RawFile::read_record, {n}"),
                    ));
                    layers.push(Metric::new(
                        "fs.call_us",
                        median(&fs),
                        "us",
                        format!("RawFile::read_record mean, {n}"),
                    ));
                }
                Err(e) => failures.push(e),
            }
        }
        failures.append(&mut tlog.wrong);
        spans.push(tlog.spans);
        layers.push(Metric::absent("net.self_us", "us", "no network layer"));
    }

    spans.extend(st.devs.iter().map(|d| d.take_spans()));
    let mut measured = untraced.phase;
    failures.append(&mut measured.log.wrong);
    match &last {
        Some(l) => {
            let m = recover(st, l, salt, &mut failures);
            if cfg.trace {
                layers.extend(m);
            }
        }
        None => failures.push("no round completed".into()),
    }
    Ok(Outcome {
        setups,
        measured,
        layers,
        failures,
        spans,
    })
}
