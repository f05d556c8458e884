//! `gda` and `remote`: the paper's global direct access.
//!
//! A 64 MiB GDA file of 4 KiB records sits behind the 8 MiB cache on
//! zero-delay devices. Ops pick records Zipf(0.99) over the whole file
//! and 10% of them are `write_record`, which flushes its span before the
//! range lock drops. The hot set fits the cache, so software cost
//! dominates: session, admission fast path, range locks, cache lookup,
//! and the executor hand-off on a miss. No op grows the file.
//!
//! * `gda`: two in-process `DirectClient`s in a closed loop.
//! * `remote`: the same closed loop over two `NetClient` connections on
//!   TCP loopback. Against `gda` the only added layer is the network.

use std::sync::Arc;
use std::time::{Duration, Instant};

use pario_core::{DirectHandle, Organization, ParallelFile};
use pario_fs::{RawFile, Volume};
use pario_net::{NetClient, NetConfig, NetServer, RemoteDirect};
use pario_server::{DirectClient, Server, ServerConfig, Session};

use crate::input::{check, fill, mix, Rng, Zipf};
use crate::report::{mean_us, median, self_time, Metric, Ratio};
use crate::run::{check_admitted, per_client, Config, Log, Outcome, Phase, Window};
use crate::stack::{self, snapshot, Driven, CLIENTS};
use crate::trace::{new_id, ns_since_epoch, set_current_op, set_tracing, CountingDevice};

/// 24 MiB per device: a quarter of the file plus the meta region.
const DEVICE_BLOCKS: u64 = 6144;
const RECORD: usize = 4096;
/// 16384 records of 4 KiB: a 64 MiB file, 8x the cache.
const RECORDS: u64 = 16384;
const FILE: &str = "gda";
const THETA: f64 = 0.99;
const WRITE_FRACTION: f64 = 0.1;
/// Closed-loop ops per client that warm the cache before measuring.
const WARMUP_OPS: u64 = 25_000;
/// Remote ops per connection that warm the sockets before measuring.
const REMOTE_WARMUP_OPS: u64 = 1_000;
const SETUPS: usize = 5;
/// Records per prefill write.
const PREFILL_BATCH: u64 = 256;
const LADDER_OPS: usize = 4_000;
const LADDER_ROUNDS: usize = 5;

/// One rung's record access.
trait Direct: Sync {
    fn read(&self, r: u64, out: &mut [u8]) -> Result<(), String>;
    fn write(&self, r: u64, data: &[u8]) -> Result<(), String>;
}

impl Direct for RemoteDirect {
    fn read(&self, r: u64, out: &mut [u8]) -> Result<(), String> {
        self.read_record(r, out).map_err(|e| e.to_string())
    }
    fn write(&self, r: u64, data: &[u8]) -> Result<(), String> {
        self.write_record(r, data).map_err(|e| e.to_string())
    }
}

impl Direct for DirectClient {
    fn read(&self, r: u64, out: &mut [u8]) -> Result<(), String> {
        self.read_record(r, out).map_err(|e| e.to_string())
    }
    fn write(&self, r: u64, data: &[u8]) -> Result<(), String> {
        self.write_record(r, data).map_err(|e| e.to_string())
    }
}

impl Direct for DirectHandle {
    fn read(&self, r: u64, out: &mut [u8]) -> Result<(), String> {
        self.read_record(r, out).map_err(|e| e.to_string())
    }
    fn write(&self, r: u64, data: &[u8]) -> Result<(), String> {
        self.write_record(r, data).map_err(|e| e.to_string())
    }
}

impl Direct for RawFile {
    fn read(&self, r: u64, out: &mut [u8]) -> Result<(), String> {
        self.read_record(r, out).map_err(|e| e.to_string())
    }
    fn write(&self, r: u64, data: &[u8]) -> Result<(), String> {
        self.write_record(r, data).map_err(|e| e.to_string())
    }
}

#[derive(Clone, Copy)]
enum Op {
    Read(u64),
    Write(u64),
}

/// One client's op stream.
struct Ops {
    rng: Rng,
    zipf: Arc<Zipf>,
}

impl Ops {
    fn new(seed: u64, lane: u64, zipf: &Arc<Zipf>) -> Ops {
        Ops {
            rng: Rng::new(seed, lane),
            zipf: Arc::clone(zipf),
        }
    }

    fn next(&mut self) -> Op {
        let r = self.zipf.sample(&mut self.rng);
        if self.rng.unit() < WRITE_FRACTION {
            Op::Write(r)
        } else {
            Op::Read(r)
        }
    }
}

/// Runs ops against one rung and checks every record it reads.
struct Driver<'a> {
    api: &'a dyn Direct,
    span: &'static str,
    /// Writers stamp records with `writer << 40 | seq`.
    writer: u64,
    seq: u64,
    salt: u64,
    /// Name the op in device spans (one client only).
    attribute: bool,
    buf: Vec<u8>,
}

impl<'a> Driver<'a> {
    fn new(api: &'a dyn Direct, span: &'static str, writer: u64, salt: u64) -> Driver<'a> {
        Driver {
            api,
            span,
            writer,
            seq: 0,
            salt,
            attribute: false,
            buf: vec![0u8; RECORD],
        }
    }

    /// Run `op` and return its latency in nanoseconds.
    fn run(&mut self, op: Op, log: &mut Log) -> u64 {
        let (r, write) = match op {
            Op::Read(r) => (r, false),
            Op::Write(r) => (r, true),
        };
        if write {
            self.seq += 1;
            fill(&mut self.buf, r, (self.writer << 40) | self.seq, self.salt);
        }
        let id = new_id();
        if self.attribute {
            set_current_op(id);
        }
        let t0 = Instant::now();
        let res = if write {
            self.api.write(r, &self.buf)
        } else {
            self.api.read(r, &mut self.buf)
        };
        let t1 = Instant::now();
        if self.attribute {
            set_current_op(0);
        }
        log.spans.record(self.span, id, t0, t1);
        log.attempted += 1;
        let latency = (t1 - t0).as_nanos() as u64;
        match res {
            Ok(()) if write => {
                log.writes.push(ns_since_epoch(t1), latency);
                log.write_bytes += RECORD as u64;
            }
            Ok(()) => {
                log.reads.push(ns_since_epoch(t1), latency);
                log.read_bytes += RECORD as u64;
                match check(&self.buf, self.salt) {
                    Ok((tag, _)) if tag == r => {}
                    Ok((tag, _)) => log.wrong.push(format!("read record {r}, got record {tag}")),
                    Err(e) => log.wrong.push(format!("read record {r}: {e}")),
                }
            }
            Err(e) => log.error(format!("record {r}: {e}")),
        }
        latency
    }
}

/// The network front end; fields drop in order, files before
/// connections before the listener.
struct Net {
    files: Vec<RemoteDirect>,
    conns: Vec<NetClient>,
    server: NetServer,
}

struct Stack {
    devs: Vec<Arc<CountingDevice>>,
    vol: Volume,
    server: Server,
    sessions: Vec<Session>,
    clients: Vec<DirectClient>,
    net: Option<Net>,
    create_ms: f64,
}

fn setup(remote: bool, salt: u64) -> Result<Stack, String> {
    let devs = stack::devices(DEVICE_BLOCKS, Duration::ZERO);
    let vol = stack::volume(&devs)?;
    let t0 = Instant::now();
    let pf = ParallelFile::create(&vol, FILE, Organization::GlobalDirect, RECORD, 1)
        .map_err(|e| format!("create {FILE}: {e}"))?;
    let create_ms = t0.elapsed().as_secs_f64() * 1e3;
    let mut buf = vec![0u8; RECORD * PREFILL_BATCH as usize];
    for first in (0..RECORDS).step_by(PREFILL_BATCH as usize) {
        for (i, rec) in buf.chunks_exact_mut(RECORD).enumerate() {
            fill(rec, first + i as u64, 0, salt);
        }
        pf.raw()
            .write_span(first * RECORD as u64, &buf)
            .map_err(|e| format!("prefill {FILE}: {e}"))?;
    }
    pf.raw()
        .set_len_records(RECORDS)
        .map_err(|e| format!("prefill {FILE}: {e}"))?;
    vol.flush_cache()
        .map_err(|e| format!("flush prefill: {e}"))?;
    let server = Server::new(vol.clone(), ServerConfig::default());
    let sessions: Vec<Session> = (0..CLIENTS).map(|_| server.connect()).collect();
    let clients = sessions
        .iter()
        .map(|s| s.open_direct(FILE))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("open {FILE}: {e}"))?;
    let net = if remote {
        let ns = NetServer::bind_tcp("127.0.0.1:0", server.clone(), NetConfig::default())
            .map_err(|e| format!("listen: {e}"))?;
        let addr = ns
            .local_addr()
            .expect("a TCP server has an address")
            .to_string();
        let conns: Vec<NetClient> = (0..CLIENTS)
            .map(|_| NetClient::connect_tcp(&addr))
            .collect::<Result<_, _>>()
            .map_err(|e| format!("connect: {e}"))?;
        let files = conns
            .iter()
            .map(|c| c.open_direct(FILE))
            .collect::<Result<_, _>>()
            .map_err(|e| format!("remote open {FILE}: {e}"))?;
        Some(Net {
            files,
            conns,
            server: ns,
        })
    } else {
        None
    };
    Ok(Stack {
        devs,
        vol,
        server,
        sessions,
        clients,
        net,
        create_ms,
    })
}

/// The clients a phase drives: remote files when there is a network.
fn apis(st: &Stack) -> Vec<&dyn Direct> {
    match &st.net {
        Some(n) => n.files.iter().map(|f| f as &dyn Direct).collect(),
        None => st.clients.iter().map(|c| c as &dyn Direct).collect(),
    }
}

/// Closed loop on every client until `n` ops each or `until`.
fn closed(
    apis: &[&dyn Direct],
    seed: u64,
    lane: u64,
    zipf: &Arc<Zipf>,
    salt: u64,
    n: u64,
    until: Option<Instant>,
) -> Log {
    per_client(|c, log| {
        let mut d = Driver::new(apis[c], "client.op", lane + c as u64, salt);
        let mut ops = Ops::new(seed, lane + c as u64, zipf);
        for _ in 0..n {
            if until.is_some_and(|u| Instant::now() >= u) {
                break;
            }
            d.run(ops.next(), log);
        }
    })
    .0
}

/// One measured phase of the workload's own loop, cut into one-second
/// windows.
fn phase(st: &Stack, cfg: &Config, lane: u64, zipf: &Arc<Zipf>, salt: u64) -> Phase {
    let apis = apis(st);
    let start = Instant::now();
    let until = start + cfg.phase();
    let n = cfg.phase().as_secs() as usize;
    let log = closed(&apis, cfg.seed, lane, zipf, salt, u64::MAX, Some(until));
    let seconds = start.elapsed().as_secs_f64();
    let t0 = ns_since_epoch(start);
    const SECOND: u64 = 1_000_000_000;
    let reads = log.reads.per_window(t0, SECOND, n);
    let writes = log.writes.per_window(t0, SECOND, n);
    let windows = (0..n)
        .map(|i| Window {
            start_ns: t0 + i as u64 * SECOND,
            end_ns: t0 + (i as u64 + 1) * SECOND,
            ops: reads[i] + writes[i],
            read_bytes: reads[i] * RECORD as u64,
            write_bytes: writes[i] * RECORD as u64,
            read_s: 1.0,
            write_s: 1.0,
        })
        .collect();
    Phase {
        log,
        seconds,
        read_seconds: seconds,
        write_seconds: seconds,
        windows,
    }
}

/// One-client replays of one op stream, one rung down the stack at a
/// time: (network,) typed server client, `pario-core` handle, `RawFile`.
/// Returns each rung's mean call time per round, in µs.
fn ladder(
    st: &Stack,
    seed: u64,
    zipf: &Arc<Zipf>,
    salt: u64,
    log: &mut Log,
) -> Result<Vec<Vec<f64>>, String> {
    let pf = ParallelFile::open(&st.vol, FILE).map_err(|e| format!("open {FILE}: {e}"))?;
    let handle = pf
        .direct_handle()
        .map_err(|e| format!("handle {FILE}: {e}"))?;
    let mut rungs: Vec<(&'static str, &dyn Direct)> = Vec::new();
    if let Some(n) = &st.net {
        rungs.push(("ladder.net", &n.files[0]));
    }
    rungs.push(("ladder.server", &st.clients[0]));
    rungs.push(("ladder.core", &handle));
    rungs.push(("ladder.fs", pf.raw()));
    let mut gen = Ops::new(seed, 60, zipf);
    let ops: Vec<Op> = (0..LADDER_OPS).map(|_| gen.next()).collect();
    let mut means = vec![Vec::new(); rungs.len()];
    for _ in 0..LADDER_ROUNDS {
        for (i, (span, api)) in rungs.iter().enumerate() {
            let mut d = Driver::new(*api, span, 70 + i as u64, salt);
            d.attribute = true;
            let ns: Vec<u64> = ops.iter().map(|&op| d.run(op, log)).collect();
            means[i].push(mean_us(&ns));
        }
    }
    Ok(means)
}

/// Close the network and the server, flush, abandon, remount, audit,
/// re-read every record, and remove the file.
fn recover(st: Stack, salt: u64, failures: &mut Vec<String>) -> Vec<Metric> {
    if let Some(mut net) = st.net {
        drop(net.files);
        drop(net.conns);
        net.server.shutdown();
    }
    drop((st.clients, st.sessions, st.server));
    if let Err(e) = st.vol.flush_cache() {
        failures.push(format!("flush before remount: {e}"));
    }
    st.vol.abandon();
    drop(st.vol);
    let t0 = Instant::now();
    let vol = match stack::remount(&st.devs) {
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
    let mut buf = vec![0u8; RECORD * PREFILL_BATCH as usize];
    match ParallelFile::open(&vol, FILE) {
        Ok(pf) => {
            for first in (0..RECORDS).step_by(PREFILL_BATCH as usize) {
                if let Err(e) = pf.raw().read_span(first * RECORD as u64, &mut buf) {
                    failures.push(format!("after remount, read at record {first}: {e}"));
                    continue;
                }
                for (i, rec) in buf.chunks_exact(RECORD).enumerate() {
                    let r = first + i as u64;
                    match check(rec, salt) {
                        Ok((tag, _)) if tag == r => {}
                        Ok((tag, _)) => {
                            failures.push(format!("after remount, record {r} holds {tag}"))
                        }
                        Err(e) => failures.push(format!("after remount, record {r}: {e}")),
                    }
                }
            }
        }
        Err(e) => failures.push(format!("open {FILE} after remount: {e}")),
    }
    let t0 = Instant::now();
    let removed = vol.remove(FILE);
    let remove_ms = t0.elapsed().as_secs_f64() * 1e3;
    if let Err(e) = removed {
        failures.push(format!("remove {FILE}: {e}"));
    }
    vec![
        Metric::new(
            "fs.remount_ms",
            remount_ms,
            "ms",
            "Volume::mount after abandon, the prefilled file on the volume",
        ),
        Metric::new(
            "fs.replayed_records",
            replayed as f64,
            "count",
            "mount_report().replayed_records",
        ),
        Metric::new(
            "fs.remove_ms",
            remove_ms,
            "ms",
            "Volume::remove of the 64 MiB file after remount",
        ),
    ]
}

pub fn run(cfg: &Config, remote: bool) -> Result<Outcome, String> {
    let salt = mix(cfg.seed);
    let zipf = Arc::new(Zipf::new(RECORDS, THETA, &mut Rng::new(cfg.seed, 1)));
    let mut setups = Vec::new();
    let mut create_ms = Vec::new();
    // Every set-up stays alive until the last is done (see stream.rs).
    let mut built = Vec::new();
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        let s = setup(remote, salt)?;
        setups.push(t0.elapsed().as_secs_f64());
        create_ms.push(s.create_ms);
        built.push(s);
    }
    let st = built.pop().expect("at least one set-up");
    drop(built);
    let mut failures = Vec::new();

    let inproc: Vec<&dyn Direct> = st.clients.iter().map(|c| c as &dyn Direct).collect();
    let mut warm = closed(&inproc, cfg.seed, 10, &zipf, salt, WARMUP_OPS, None);
    if let Some(n) = &st.net {
        let files: Vec<&dyn Direct> = n.files.iter().map(|f| f as &dyn Direct).collect();
        warm.absorb(closed(
            &files,
            cfg.seed,
            20,
            &zipf,
            salt,
            REMOTE_WARMUP_OPS,
            None,
        ));
    }
    failures.append(&mut warm.wrong);

    let before = snapshot(&st.vol, &st.server, &st.devs);
    let mut measured = phase(&st, cfg, 30, &zipf, salt);
    let after = snapshot(&st.vol, &st.server, &st.devs);
    check_admitted(
        before.admitted(),
        after.admitted(),
        &measured,
        &mut failures,
    );
    failures.append(&mut measured.log.wrong);

    let mut layers = Vec::new();
    let mut spans = Vec::new();
    if cfg.trace {
        set_tracing(true);
        let mut traced = phase(&st, cfg, 40, &zipf, salt);
        set_tracing(false);
        let after_traced = snapshot(&st.vol, &st.server, &st.devs);
        check_admitted(
            after.admitted(),
            after_traced.admitted(),
            &traced,
            &mut failures,
        );
        failures.append(&mut traced.log.wrong);
        let driven = Driven {
            ops: traced.log.attempted,
            bytes_written: traced.log.write_bytes,
        };
        layers.extend(stack::layer_metrics(&after, &after_traced, &driven));
        layers.push(Metric::ratio(
            "trace.overhead",
            "ratio",
            &Ratio::new(
                traced.ops_per_s(),
                "traced ops/s",
                measured.ops_per_s(),
                "untraced ops/s",
            ),
        ));
        spans.push(std::mem::take(&mut traced.log.spans));
        let mut tlog = Log::default();
        set_tracing(true);
        let res = ladder(&st, cfg.seed, &zipf, salt, &mut tlog);
        set_tracing(false);
        failures.append(&mut tlog.wrong);
        if tlog.failed > 0 {
            failures.push(format!("ladder ops failed: {:?}", tlog.error_notes));
        }
        match res {
            Ok(means) => {
                let n = format!("{LADDER_ROUNDS} one-client replays of {LADDER_OPS} ops per rung");
                let k = means.len();
                let (server, core, fs) = (&means[k - 3], &means[k - 2], &means[k - 1]);
                if remote {
                    layers.push(Metric::new(
                        "net.self_us",
                        self_time(&means[0], server),
                        "us",
                        format!("RemoteDirect call - DirectClient call, {n}"),
                    ));
                }
                layers.push(Metric::new(
                    "server.self_us",
                    self_time(server, core),
                    "us",
                    format!("DirectClient call - DirectHandle call, {n}"),
                ));
                layers.push(Metric::new(
                    "core.self_us",
                    self_time(core, fs),
                    "us",
                    format!("DirectHandle call - RawFile record call, {n}"),
                ));
                layers.push(Metric::new(
                    "fs.call_us",
                    median(fs),
                    "us",
                    format!("RawFile record call mean, {n}"),
                ));
            }
            Err(e) => failures.push(e),
        }
        spans.push(tlog.spans);
        if !remote {
            layers.push(Metric::absent("net.self_us", "us", "no network layer"));
        }
        layers.push(Metric::absent(
            "core.ss_balance",
            "ratio",
            "no self-scheduled file",
        ));
        layers.push(Metric::new(
            "fs.create_ms",
            median(&create_ms),
            "ms",
            format!(
                "median of {} ParallelFile::create, one per set-up",
                create_ms.len()
            ),
        ));
    }

    spans.extend(st.devs.iter().map(|d| d.take_spans()));
    let m = recover(st, salt, &mut failures);
    if cfg.trace {
        layers.extend(m);
    }
    Ok(Outcome {
        setups,
        measured,
        layers,
        failures,
        spans,
    })
}
