//! Building the pario stack the workloads run on, and the public stats
//! snapshots whose differences give the per-layer metrics.

use std::sync::Arc;
use std::time::Duration;

use pario_disk::{DeviceRef, IoNodeStats, MemDisk};
use pario_fs::{Volume, VolumeCacheConfig, VolumeCacheStats};
use pario_server::Server;

use crate::report::{Metric, Ratio};
use crate::trace::{CountingDevice, DevCounts};

/// Volume block size for every workload.
pub const BLOCK: usize = 4096;
/// Devices per volume; the default stripe spans all of them.
pub const DEVICES: usize = 4;
/// The volume cache: 2048 frames of 4 KiB = 8 MiB, write-back.
pub const CACHE_FRAMES: usize = 2048;
/// Client threads and connections: the host's core count.
pub const CLIENTS: usize = 2;

/// `DEVICES` wrapped in-memory devices of `blocks` blocks each, every
/// request to them delayed by `delay` (slept, not spun, from 100 µs).
pub fn devices(blocks: u64, delay: Duration) -> Vec<Arc<CountingDevice>> {
    (0..DEVICES)
        .map(|i| {
            let mem = MemDisk::named(&format!("dev{i}"), blocks, BLOCK).with_delay(delay);
            Arc::new(CountingDevice::new(Arc::new(mem)))
        })
        .collect()
}

pub fn device_refs(devs: &[Arc<CountingDevice>]) -> Vec<DeviceRef> {
    devs.iter().map(|d| Arc::clone(d) as DeviceRef).collect()
}

/// A fresh volume over `devs` with the write-back cache attached.
pub fn volume(devs: &[Arc<CountingDevice>]) -> Result<Volume, String> {
    let vol = Volume::new(device_refs(devs)).map_err(|e| format!("create volume: {e}"))?;
    vol.enable_cache(VolumeCacheConfig::write_back(CACHE_FRAMES))
        .map_err(|e| format!("enable cache: {e}"))
}

/// Remount `devs` the way a restart would, with the cache attached.
pub fn remount(devs: &[Arc<CountingDevice>]) -> Result<Volume, String> {
    let vol = Volume::mount(device_refs(devs)).map_err(|e| format!("mount: {e}"))?;
    vol.enable_cache(VolumeCacheConfig::write_back(CACHE_FRAMES))
        .map_err(|e| format!("enable cache after mount: {e}"))
}

/// The public stats of every layer at one instant.
#[derive(Clone)]
pub struct Snapshot {
    exec: IoNodeStats,
    cache: VolumeCacheStats,
    generation: u64,
    admitted: u64,
    wait_high_water: usize,
    devs: Vec<DevCounts>,
}

pub fn snapshot(vol: &Volume, server: &Server, devs: &[Arc<CountingDevice>]) -> Snapshot {
    let stats = server.stats();
    Snapshot {
        exec: vol.executor_stats(),
        cache: vol.cache_stats().unwrap_or_default(),
        generation: vol.meta_status().generation,
        admitted: stats.total_admitted,
        wait_high_water: stats.wait_high_water,
        devs: devs.iter().map(|d| d.counts()).collect(),
    }
}

impl Snapshot {
    pub fn admitted(&self) -> u64 {
        self.admitted
    }
}

/// What the clients drove between two snapshots.
pub struct Driven {
    /// Client calls into the server (or the network client).
    pub ops: u64,
    pub bytes_written: u64,
}

/// Per-layer metrics from two snapshots: the server's admission, the
/// fs checkpoints, the cache, the executor and the device wrappers.
pub fn layer_metrics(a: &Snapshot, b: &Snapshot, d: &Driven) -> Vec<Metric> {
    let ops = d.ops as f64;
    let mib = d.bytes_written as f64 / (1u64 << 20) as f64;
    let (ca, cb) = (&a.cache, &b.cache);
    let hits = (cb.base.hits - ca.base.hits) as f64;
    let misses = (cb.base.misses - ca.base.misses) as f64;
    let serviced = (b.exec.serviced - a.exec.serviced) as f64;
    let dev: Vec<DevCounts> = a
        .devs
        .iter()
        .zip(&b.devs)
        .map(|(x, y)| DevCounts {
            requests: y.requests - x.requests,
            blocks: y.blocks - x.blocks,
            flushes: y.flushes - x.flushes,
            busy_ns: y.busy_ns - x.busy_ns,
        })
        .collect();
    let sum = |f: fn(&DevCounts) -> u64| dev.iter().map(f).sum::<u64>() as f64;
    let busy_max = dev.iter().map(|c| c.busy_ns).max().unwrap_or(0) as f64;
    let busy_mean = sum(|c| c.busy_ns) / dev.len() as f64;
    vec![
        Metric::new(
            "server.admission_wait_hw",
            b.wait_high_water as f64,
            "count",
            format!(
                "ServerStats.wait_high_water since the server started, admission limit {}",
                pario_server::ServerConfig::default().max_in_flight
            ),
        ),
        Metric::ratio(
            "server.admitted_per_op",
            "ratio",
            &Ratio::new(
                (b.admitted - a.admitted) as f64,
                "total_admitted delta",
                ops,
                "ops driven",
            ),
        ),
        Metric::ratio(
            "fs.checkpoints_per_mib",
            "1/MiB",
            &Ratio::new(
                (b.generation - a.generation) as f64,
                "generation delta",
                mib,
                "MiB written",
            ),
        ),
        Metric::ratio(
            "buffer.hit_ratio",
            "ratio",
            &Ratio::new(hits, "hits", hits + misses, "lookups"),
        ),
        Metric::ratio(
            "buffer.evictions_per_op",
            "1/op",
            &Ratio::new(
                (cb.base.evictions - ca.base.evictions) as f64,
                "evictions",
                ops,
                "ops",
            ),
        ),
        Metric::ratio(
            "buffer.writebacks_per_op",
            "1/op",
            &Ratio::new(
                (cb.base.writebacks - ca.base.writebacks) as f64,
                "writebacks",
                ops,
                "ops",
            ),
        ),
        Metric::ratio(
            "buffer.coalesced_per_miss",
            "ratio",
            &Ratio::new(
                (cb.coalesced_reads - ca.coalesced_reads) as f64,
                "coalesced_reads",
                misses,
                "misses",
            ),
        ),
        Metric::ratio(
            "disk.ionode.queue_wait_us",
            "us",
            &Ratio::new(
                (b.exec.queue_wait_nanos - a.exec.queue_wait_nanos) as f64 / 1e3,
                "queue-wait us",
                serviced,
                "serviced",
            ),
        ),
        Metric::ratio(
            "disk.ionode.service_us",
            "us",
            &Ratio::new(
                (b.exec.service_nanos - a.exec.service_nanos) as f64 / 1e3,
                "service us",
                serviced,
                "serviced",
            ),
        ),
        Metric::ratio(
            "disk.ionode.requests_per_op",
            "1/op",
            &Ratio::new(serviced, "serviced", ops, "ops"),
        ),
        Metric::ratio(
            "disk.dev.blocks_per_request",
            "blocks/req",
            &Ratio::new(sum(|c| c.blocks), "blocks", sum(|c| c.requests), "requests"),
        ),
        Metric::ratio(
            "disk.dev.flushes_per_op",
            "1/op",
            &Ratio::new(sum(|c| c.flushes), "flushes", ops, "ops"),
        ),
        Metric::ratio(
            "disk.dev.busy_max_over_mean",
            "ratio",
            &Ratio::new(
                busy_max / 1e3,
                "busiest device us",
                busy_mean / 1e3,
                "mean device us",
            ),
        ),
    ]
}
