//! Ledger probes: fixed-size measurements of single layers that give
//! each workload's numbers an achievable bound measured on the same box.
//!
//! Bandwidth is reported in GiB/s only where bytes are really copied
//! (the reduce kernel, `memcpy`, the TCP stream); the in-process
//! hand-off moves a reference-counted payload, so it is reported as ns
//! per message.

use crate::allreduce::{BULK_ELEMS, P};
use crate::stats::{median, Spread};
use pcoll::algos::DirectCollectives;
use pcoll_comm::{
    reduce_f32_slices, CollId, Communicator, Envelope, Matcher, Payload, ReduceOp, TcpOpts,
    TypedBuf, WireTag, World, WorldConfig,
};
use std::hint::black_box;
use std::time::Instant;

const GIB: f64 = (1u64 << 30) as f64;

/// Reduce kernel against `memcpy` over one ring chunk of the bulk
/// workload (8 MiB / P). Both count bytes read plus bytes written:
/// 3·len·4 for `dst += src`, 2·len·4 for a copy.
pub fn kernel() -> (Spread, Spread, usize) {
    let len = BULK_ELEMS / P;
    let src = vec![1.0f32; len];
    let mut dst = vec![0.0f32; len];
    const ITERS: usize = 32;
    let mut reduce = Vec::new();
    let mut copy = Vec::new();
    for rep in 0..16 {
        // Alternate which kernel runs first in a rep.
        for k in [rep % 2, 1 - rep % 2] {
            let t0 = Instant::now();
            for _ in 0..ITERS {
                if k == 0 {
                    reduce_f32_slices(black_box(&mut dst), black_box(&src), ReduceOp::Sum);
                } else {
                    black_box(&mut dst).copy_from_slice(black_box(&src));
                }
                // Every pass is observed, so none can be elided.
                black_box(&dst);
            }
            let s = t0.elapsed().as_secs_f64();
            let bytes = (len * 4 * ITERS) as f64;
            if k == 0 {
                reduce.push(3.0 * bytes / s / GIB);
            } else {
                copy.push(2.0 * bytes / s / GIB);
            }
        }
    }
    (Spread::of(&reduce), Spread::of(&copy), len * 4)
}

/// In-process hand-off: rank 0 sends payload clones to rank 1, which
/// drains them and acks; ns per message, median of launches.
pub fn inproc_handoff_ns(seed: u64) -> Spread {
    const MSGS: u64 = 20_000;
    let reps: Vec<f64> = (0..5)
        .map(|_| {
            let out = World::launch(WorldConfig::instant(2).with_seed(seed), |c| {
                flood(&c, MSGS, (64 << 10) / 4)
            });
            out[0] * 1e9 / MSGS as f64
        })
        .collect();
    Spread::of(&reps)
}

/// Rank 0 pushes `msgs` payloads of `elems` f32 at rank 1 and waits for
/// one ack; returns rank 0's elapsed seconds.
fn flood(c: &Communicator, msgs: u64, elems: usize) -> f64 {
    if c.rank() == 0 {
        let payload = Payload::new(TypedBuf::from(vec![1.0f32; elems]));
        let t0 = Instant::now();
        for i in 0..msgs {
            c.send_payload(1, WireTag::new(CollId(1), i, 0), Some(payload.clone()));
        }
        expect_data(c);
        t0.elapsed().as_secs_f64()
    } else {
        for _ in 0..msgs {
            let p = expect_data(c).expect("flood payload");
            assert_eq!(p.len(), elems, "payload length changed in flight");
        }
        c.send(0, WireTag::new(CollId(1), msgs, 1), None);
        0.0
    }
}

fn expect_data(c: &Communicator) -> Option<Payload> {
    match c.inbox().recv() {
        Some(Envelope::Data(m)) => m.payload,
        other => panic!("expected a data message, got {other:?}"),
    }
}

pub const PINGPONG_LABEL: &str = "perfbench-pp";
const PINGPONG_ELEMS: usize = (64 << 10) / 4;
const STREAM_ELEMS: usize = (4 << 20) / 4;

/// The two-rank TCP body: 64 KiB ping-pong, then a stream of 4 MiB
/// payloads. Rank 0 returns `[half_rtt_us_p50, stream_gib_s]`.
pub fn tcp_pair(c: Communicator) -> Vec<f64> {
    const WARMUP: u64 = 50;
    const PINGS: u64 = 1_000;
    const STREAM: u64 = 48;
    let ping = Payload::new(TypedBuf::from(vec![1.0f32; PINGPONG_ELEMS]));
    let peer = 1 - c.rank();
    let mut half_rtt_us = Vec::with_capacity(PINGS as usize);
    for i in 0..WARMUP + PINGS {
        let tag = WireTag::new(CollId(2), i, 0);
        if c.rank() == 0 {
            let t0 = Instant::now();
            c.send_payload(peer, tag, Some(ping.clone()));
            let back = expect_data(&c).expect("pong payload");
            assert_eq!(back.len(), PINGPONG_ELEMS);
            if i >= WARMUP {
                half_rtt_us.push(t0.elapsed().as_secs_f64() * 1e6 / 2.0);
            }
        } else {
            let got = expect_data(&c).expect("ping payload");
            assert_eq!(got.len(), PINGPONG_ELEMS);
            c.send_payload(peer, tag, Some(ping.clone()));
        }
    }
    let stream_s = flood(&c, STREAM, STREAM_ELEMS);
    if c.rank() == 0 {
        let bytes = (STREAM as usize * STREAM_ELEMS * 4) as f64;
        vec![median(&half_rtt_us), bytes / stream_s / GIB]
    } else {
        Vec::new()
    }
}

pub fn tcp_pair_world(seed: u64) -> WorldConfig {
    WorldConfig::instant(2).with_seed(seed)
}

/// `[half_rtt_us_p50, stream_gib_s]` over loopback TCP.
pub fn tcp(seed: u64) -> (f64, f64) {
    let label = format!("{PINGPONG_LABEL}-{seed}");
    let out = World::launch_tcp(tcp_pair_world(seed), TcpOpts::labeled(label), tcp_pair)
        .expect("parent process");
    (out[0][0], out[0][1])
}

/// `DirectCollectives::ring_allreduce_f32` on the bulk workload's bytes,
/// P and transport: rounds per second, median of launches.
pub fn ring_rounds_per_s(seed: u64) -> Spread {
    const ROUNDS: u32 = 30;
    let reps: Vec<f64> = (0..3)
        .map(|_| {
            let out = World::launch(WorldConfig::instant(P).with_seed(seed), |c| {
                let (h, inbox) = c.split();
                let mut m = Matcher::new(inbox);
                let mut dc = DirectCollectives::new(&h, &mut m, CollId(7000));
                let mut data = vec![1.0f32; BULK_ELEMS];
                for _ in 0..2 {
                    dc.ring_allreduce_f32(&mut data, ReduceOp::Sum);
                }
                let t0 = Instant::now();
                for _ in 0..ROUNDS {
                    dc.ring_allreduce_f32(&mut data, ReduceOp::Sum);
                }
                let s = t0.elapsed().as_secs_f64();
                assert!(data.iter().all(|v| v.is_finite()));
                s
            });
            f64::from(ROUNDS) / out.iter().copied().fold(0.0, f64::max)
        })
        .collect();
    Spread::of(&reps)
}
