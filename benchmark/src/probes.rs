//! Unit-cost probes: each times one public call of one layer, in the
//! shape of the matching `perf` microbench, and divides by the work done.
//! The per-layer account multiplies these by a run's work counts.

use std::sync::Arc;

use rsj_joins::{decode_bucket, encode_remote_table, BucketTable, Partitioner, RemoteDirectory};
use rsj_rdma::{Fabric, FabricConfig, HostId, NicCosts};
use rsj_sim::{SimChannel, SimDuration, Simulation};
use rsj_workload::{Tuple, Tuple16};

use crate::sys::Usage;

/// Samples per probe; the median is reported.
const SAMPLES: usize = 3;
/// Ping-pong rounds of the handoff probe (two handoffs each).
const HANDOFF_ROUNDS: u64 = 20_000;
/// `advance` calls of the self-continuation probe.
const ADVANCES: u64 = 1_000_000;
/// Messages of the send/recv stream and READs of the read probe.
const FABRIC_OPS: usize = 10_000;
/// Message and READ size: the join workloads' scaled buffer size.
const FABRIC_BYTES: usize = 64;
/// READs chained per doorbell (the one-sided probe's default).
const DOORBELL: usize = 16;
/// Tuples of the partition and bucket-table probes.
const KERNEL_TUPLES: usize = 1 << 20;
/// Tuples of the table whose buckets the decode probe reads.
const DECODE_TUPLES: usize = 1 << 18;

/// Unit costs measured by the probes.
#[derive(Copy, Clone, Debug, Default)]
pub struct UnitCosts {
    /// Host microseconds per sim-kernel handoff (`SimChannel` ping-pong).
    pub handoff_us: f64,
    /// Host nanoseconds per uncontended `SimCtx::advance`.
    pub advance_ns: f64,
    /// Host microseconds per message of a two-host `post_send`/`recv`
    /// stream, handoffs included.
    pub send_us: f64,
    /// Of `send_us`, the part not spent in handoffs.
    pub send_self_us: f64,
    /// Host microseconds per doorbell-batched RDMA READ, handoffs included.
    pub read_us: f64,
    /// Host nanoseconds per tuple of a 2^10-way SWWC partition pass.
    pub partition_ns: f64,
    /// Host nanoseconds per tuple of bucket-table build plus probe.
    pub build_probe_ns: f64,
    /// Host nanoseconds per `decode_bucket` on an encoded remote table.
    pub decode_ns: f64,
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Median over [`SAMPLES`] of `(wall seconds, voluntary switches)` of `f`.
fn sample(mut f: impl FnMut()) -> (f64, f64) {
    let mut walls = Vec::new();
    let mut switches = Vec::new();
    for _ in 0..SAMPLES {
        let u0 = Usage::now();
        f();
        let d = Usage::now().since(&u0);
        walls.push(d.wall_s);
        switches.push(d.voluntary as f64);
    }
    (median(walls), median(switches))
}

/// Run every probe.
pub fn measure() -> UnitCosts {
    let (wall, _) = sample(handoff_rounds);
    let handoff_us = wall * 1e6 / (2 * HANDOFF_ROUNDS) as f64;
    let (wall, _) = sample(advance_loop);
    let advance_ns = wall * 1e9 / ADVANCES as f64;
    let (wall, switches) = sample(send_stream);
    let send_us = wall * 1e6 / FABRIC_OPS as f64;
    let send_self_us = (send_us - switches * handoff_us / FABRIC_OPS as f64).max(0.0);
    let (wall, _) = sample(read_batches);
    let read_us = wall * 1e6 / FABRIC_OPS as f64;
    UnitCosts {
        handoff_us,
        advance_ns,
        send_us,
        send_self_us,
        read_us,
        partition_ns: partition_ns(),
        build_probe_ns: build_probe_ns(),
        decode_ns: decode_ns(),
    }
}

/// Two tasks ping-ponging a token: every hop parks one task and wakes the
/// other (`perf`'s `kernel/handoff`).
fn handoff_rounds() {
    let sim = Simulation::new();
    let ping = SimChannel::new();
    let pong = SimChannel::new();
    {
        let (ping, pong) = (Arc::clone(&ping), Arc::clone(&pong));
        sim.spawn("ping", move |ctx| {
            for i in 0..HANDOFF_ROUNDS {
                ping.send(ctx, i);
                std::hint::black_box(pong.recv(ctx));
            }
            ping.close(ctx);
        });
    }
    sim.spawn("pong", move |ctx| {
        while let Some(v) = ping.recv(ctx) {
            pong.send(ctx, v);
        }
        pong.close(ctx);
    });
    std::hint::black_box(sim.run());
}

/// One uncontended task charging fine-grained advances
/// (`perf`'s `kernel/self-continuation`).
fn advance_loop() {
    let sim = Simulation::new();
    sim.spawn("hot", |ctx| {
        for i in 0..ADVANCES {
            ctx.advance(SimDuration::from_nanos(1 + i % 7));
        }
    });
    std::hint::black_box(sim.run());
}

/// A two-host SEND/RECV stream of small messages.
fn send_stream() {
    let sim = Simulation::new();
    let fabric = Fabric::new(FabricConfig::qdr(), NicCosts::default(), 2);
    fabric.launch(&sim);
    {
        let fabric = Arc::clone(&fabric);
        sim.spawn("sender", move |ctx| {
            let nic = fabric.nic(HostId(0));
            let sends: Vec<_> = (0..FABRIC_OPS)
                .map(|_| nic.post_send(ctx, HostId(1), 0, vec![7u8; FABRIC_BYTES]))
                .collect();
            for s in sends {
                s.wait(ctx).expect("fault-free send completes");
            }
            fabric.shutdown(ctx);
        });
    }
    sim.spawn("receiver", move |ctx| {
        let nic = fabric.nic(HostId(1));
        let mut got = 0;
        while let Ok(Some(c)) = nic.recv(ctx) {
            got += c.payload.len();
            nic.repost_recv(ctx);
        }
        assert_eq!(got, FABRIC_OPS * FABRIC_BYTES, "stream lost messages");
    });
    std::hint::black_box(sim.run());
}

/// Doorbell-batched READ chains against a region published by the peer.
fn read_batches() {
    let sim = Simulation::new();
    let fabric = Fabric::new(FabricConfig::qdr(), NicCosts::default(), 2);
    fabric.launch(&sim);
    sim.spawn("reader", move |ctx| {
        let region = 64 * 1024;
        let mr = fabric.nic(HostId(1)).mrs.register(ctx, region);
        mr.fill(0, &vec![3u8; region]);
        let remote = mr.publish();
        let nic = fabric.nic(HostId(0));
        let slots = region / FABRIC_BYTES;
        for chain in 0..FABRIC_OPS / DOORBELL {
            let reads: Vec<_> = (0..DOORBELL)
                .map(|i| {
                    (
                        remote,
                        ((chain * DOORBELL + i) % slots) * FABRIC_BYTES,
                        FABRIC_BYTES,
                    )
                })
                .collect();
            for h in nic.post_read_batch(ctx, &reads) {
                let bytes = h.wait(ctx).expect("fault-free read completes");
                assert_eq!(bytes[0], 3, "read returned foreign bytes");
            }
        }
        fabric.shutdown(ctx);
    });
    std::hint::black_box(sim.run());
}

fn keyed(n: usize, mul: u64) -> Vec<Tuple16> {
    (0..n as u64)
        .map(|i| Tuple16::new(i.wrapping_mul(mul) % n as u64 + 1, i))
        .collect()
}

/// `perf`'s `partition/swwc`: a 2^10-way scatter.
fn partition_ns() -> f64 {
    let input: Vec<Tuple16> = (0..KERNEL_TUPLES as u64)
        .map(|i| Tuple16::new(i.wrapping_mul(0x9E37_79B9_7F4A_7C15), i))
        .collect();
    let mut pt = Partitioner::new();
    let (wall, _) = sample(|| {
        std::hint::black_box(pt.partition(&input, 0, 10));
    });
    wall * 1e9 / KERNEL_TUPLES as f64
}

/// `perf`'s `hash/bucket-build-probe`: counting-sort build plus a probe pass.
fn build_probe_ns() -> f64 {
    let r: Vec<Tuple16> = (0..KERNEL_TUPLES as u64)
        .map(|i| Tuple16::new(i + 1, i))
        .collect();
    let s = keyed(KERNEL_TUPLES, 0x0005_DEEC_E66D);
    let mut table = BucketTable::default();
    let (wall, _) = sample(|| {
        table.rebuild(&r);
        let res = table.probe_all(&s);
        assert_eq!(res.matches, KERNEL_TUPLES as u64, "probe lost matches");
    });
    wall * 1e9 / (2 * KERNEL_TUPLES) as f64
}

/// `decode_bucket` over every bucket of an encoded remote table.
fn decode_ns() -> f64 {
    let r = keyed(DECODE_TUPLES, 0x9E37_79B9);
    let bytes = encode_remote_table(&r);
    let dir = RemoteDirectory::decode(&bytes);
    let (wall, _) = sample(|| {
        let mut n = 0usize;
        for b in 0..dir.nbuckets() {
            let bucket: Vec<Tuple16> =
                decode_bucket(&bytes[dir.bucket_range(b)]).expect("stable table");
            n += bucket.len();
        }
        assert_eq!(n, DECODE_TUPLES, "decode lost tuples");
    });
    wall * 1e9 / dir.nbuckets() as f64
}
