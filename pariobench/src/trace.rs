//! Tracing from outside the program: spans around the benchmark's own
//! calls into each crate, and a [`BlockDevice`] wrapper that counts and
//! times every request the volume sends to a device.
//!
//! Spans stay in memory until the run ends. Nothing here records while
//! tracing is off, so the untraced run pays one relaxed load per device
//! request.

use std::io::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use pario_disk::{BlockDevice, DeviceRef, IoCounters, Result as DiskResult};

static TRACING: AtomicBool = AtomicBool::new(false);
/// The op the single ladder client is running (0 outside ladders, where
/// two clients share the devices and a device span has no single op).
static CURRENT_OP: AtomicU64 = AtomicU64::new(0);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// Spans kept per buffer; later spans are counted, not stored.
const SPAN_CAP: usize = 1 << 18;

pub fn set_tracing(on: bool) {
    // ordering: a flag read by device wrappers; spans recorded just
    // before or after the switch are harmless.
    TRACING.store(on, Ordering::Relaxed);
}

pub fn tracing() -> bool {
    TRACING.load(Ordering::Relaxed) // ordering: see set_tracing
}

/// Mark the ladder client's current op so device spans name it.
pub fn set_current_op(op: u64) {
    CURRENT_OP.store(op, Ordering::Relaxed); // ordering: attribution only
}

pub fn new_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed) // ordering: uniqueness only
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

pub fn ns_since_epoch(t: Instant) -> u64 {
    t.saturating_duration_since(epoch()).as_nanos() as u64
}

/// One span: what ran, when, which span caused it, and the op it
/// belongs to (0 when no single op owns it).
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A bounded in-memory span list owned by one thread.
#[derive(Default)]
pub struct SpanBuf {
    pub spans: Vec<Span>,
    pub dropped: u64,
}

impl SpanBuf {
    /// Record a span of `op` (its id is the op's, or a fresh one for a
    /// span that belongs to no single op). Nothing while tracing is off.
    pub fn record(&mut self, name: &'static str, op: u64, t0: Instant, t1: Instant) {
        if !tracing() {
            return;
        }
        self.push(Span {
            id: if op != 0 { op } else { new_id() },
            parent: 0,
            op,
            name,
            start_ns: ns_since_epoch(t0),
            end_ns: ns_since_epoch(t1),
        });
    }

    fn push(&mut self, s: Span) {
        if self.spans.len() < SPAN_CAP {
            self.spans.push(s);
        } else {
            self.dropped += 1;
        }
    }

    pub fn absorb(&mut self, other: SpanBuf) {
        for s in other.spans {
            self.push(s);
        }
        self.dropped += other.dropped;
    }
}

/// Request counts one wrapper saw while tracing was on.
#[derive(Clone, Copy, Debug, Default)]
pub struct DevCounts {
    pub requests: u64,
    pub blocks: u64,
    pub flushes: u64,
    pub busy_ns: u64,
}

/// The benchmark's wrapper around one device: while tracing, it counts
/// requests, blocks and flushes, sums the time spent inside the device
/// (its busy time) and records one span per request.
pub struct CountingDevice {
    inner: DeviceRef,
    requests: AtomicU64,
    blocks: AtomicU64,
    flushes: AtomicU64,
    busy_ns: AtomicU64,
    spans: Mutex<SpanBuf>,
}

impl CountingDevice {
    pub fn new(inner: DeviceRef) -> CountingDevice {
        CountingDevice {
            inner,
            requests: AtomicU64::new(0),
            blocks: AtomicU64::new(0),
            flushes: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
            spans: Mutex::new(SpanBuf::default()),
        }
    }

    pub fn counts(&self) -> DevCounts {
        // ordering: statistics counters; snapshots are taken after the
        // clients that caused the requests have been joined.
        DevCounts {
            requests: self.requests.load(Ordering::Relaxed),
            blocks: self.blocks.load(Ordering::Relaxed),
            flushes: self.flushes.load(Ordering::Relaxed),
            busy_ns: self.busy_ns.load(Ordering::Relaxed),
        }
    }

    pub fn take_spans(&self) -> SpanBuf {
        std::mem::take(&mut *self.spans.lock().expect("span buffer poisoned"))
    }

    fn timed<T>(&self, name: &'static str, blocks: u64, f: impl FnOnce() -> T) -> T {
        if !tracing() {
            return f();
        }
        let t0 = Instant::now();
        let r = f();
        let t1 = Instant::now();
        // ordering: statistics counters, see counts().
        if name == "disk.dev.flush" {
            self.flushes.fetch_add(1, Ordering::Relaxed);
        } else {
            self.requests.fetch_add(1, Ordering::Relaxed);
            self.blocks.fetch_add(blocks, Ordering::Relaxed);
        }
        self.busy_ns
            .fetch_add((t1 - t0).as_nanos() as u64, Ordering::Relaxed);
        let op = CURRENT_OP.load(Ordering::Relaxed); // ordering: attribution only
        self.spans.lock().expect("span buffer poisoned").push(Span {
            id: new_id(),
            parent: op,
            op,
            name,
            start_ns: ns_since_epoch(t0),
            end_ns: ns_since_epoch(t1),
        });
        r
    }

    fn nblocks(&self, len: usize) -> u64 {
        (len / self.inner.block_size()) as u64
    }
}

impl BlockDevice for CountingDevice {
    fn block_size(&self) -> usize {
        self.inner.block_size()
    }

    fn num_blocks(&self) -> u64 {
        self.inner.num_blocks()
    }

    fn read_block(&self, block: u64, buf: &mut [u8]) -> DiskResult<()> {
        self.timed("disk.dev.read", 1, || self.inner.read_block(block, buf))
    }

    fn write_block(&self, block: u64, data: &[u8]) -> DiskResult<()> {
        self.timed("disk.dev.write", 1, || self.inner.write_block(block, data))
    }

    fn read_blocks_at(&self, block: u64, buf: &mut [u8]) -> DiskResult<()> {
        let n = self.nblocks(buf.len());
        self.timed("disk.dev.read", n, || self.inner.read_blocks_at(block, buf))
    }

    fn write_blocks_at(&self, block: u64, data: &[u8]) -> DiskResult<()> {
        let n = self.nblocks(data.len());
        self.timed("disk.dev.write", n, || {
            self.inner.write_blocks_at(block, data)
        })
    }

    fn flush(&self) -> DiskResult<()> {
        self.timed("disk.dev.flush", 0, || self.inner.flush())
    }

    fn counters(&self) -> IoCounters {
        self.inner.counters()
    }

    fn fail(&self) {
        self.inner.fail()
    }

    fn heal(&self) {
        self.inner.heal()
    }

    fn is_failed(&self) -> bool {
        self.inner.is_failed()
    }

    fn label(&self) -> String {
        self.inner.label()
    }
}

/// Write every span as CSV (`id,parent,op,name,start_ns,end_ns`),
/// sorted by start time.
pub fn write_spans(path: &std::path::Path, mut spans: Vec<Span>) -> std::io::Result<()> {
    spans.sort_by_key(|s| (s.start_ns, s.id));
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id,parent,op,name,start_ns,end_ns")?;
    for s in &spans {
        writeln!(
            out,
            "{},{},{},{},{},{}",
            s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}
