//! `allreduce_bulk` and `allreduce_tcp`: closed-loop
//! `PartialAllreduce::allreduce_owned` at Full quorum.
//!
//! Every rank contributes `rank + 1` in every element, so every element
//! of every result must equal P(P+1)/2 exactly. Each round checks a
//! rotating sixteenth of the result (every element is checked once per
//! sixteen rounds); warm-up rounds and the final round are checked in
//! full. The measured window runs in blocks of rounds; after each block
//! the ranks vote with a one-element Max allreduce whether the window
//! is over, so all of them stop after the same round.

use crate::calib::HostSpeed;
use crate::report::{cpu_s, peak_rss_mib, CpuOf, Metrics};
use crate::stats::{median, tail};
use crate::trace::{self, Span, Tracer, NO_PARENT};
use crate::Outcome;
use pcoll::{PartialOpts, QuorumPolicy, RankCtx};
use pcoll_comm::{Communicator, DType, Payload, ReduceOp, TcpOpts, TypedBuf, World, WorldConfig};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Ranks in every threaded workload.
pub const P: usize = 4;
/// `allreduce_bulk`: 8 MiB of f32.
pub const BULK_ELEMS: usize = (8 << 20) / 4;
/// `allreduce_tcp`: 64 KiB of f32, below the ring threshold.
pub const TCP_ELEMS: usize = (64 << 10) / 4;
/// Rounds per result check stripe: one sixteenth of the buffer a round.
const STRIPES: usize = 16;
/// Long enough for every engine thread to finish the sends of a
/// collective that has already completed locally.
const QUIESCE: std::time::Duration = std::time::Duration::from_millis(20);

/// One allreduce launch, fully described by its TCP launch label so a
/// re-executed worker process can rebuild it from the environment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArJob {
    pub p: usize,
    pub elems: usize,
    pub warmup: u64,
    /// Rounds between stop votes.
    pub block: u64,
    /// Measured window; 0 = set up, warm up and stop.
    pub window_ms: u64,
    pub trace: bool,
    pub seed: u64,
}

const LABEL_PREFIX: &str = "perfbench-ar";

impl ArJob {
    pub fn label(&self) -> String {
        format!(
            "{LABEL_PREFIX}-{}-{}-{}-{}-{}-{}-{}",
            self.p,
            self.elems,
            self.warmup,
            self.block,
            self.window_ms,
            u8::from(self.trace),
            self.seed
        )
    }

    pub fn parse(label: &str) -> Option<ArJob> {
        let rest = label.strip_prefix(LABEL_PREFIX)?.strip_prefix('-')?;
        let f: Vec<u64> = rest
            .split('-')
            .map(str::parse)
            .collect::<Result<_, _>>()
            .ok()?;
        let [p, elems, warmup, block, window_ms, trace, seed] = f[..] else {
            return None;
        };
        Some(ArJob {
            p: p as usize,
            elems: elems as usize,
            warmup,
            block,
            window_ms,
            trace: trace == 1,
            seed,
        })
    }

    pub fn world(&self) -> WorldConfig {
        WorldConfig::instant(self.p).with_seed(self.seed)
    }
}

/// What one rank reports back (over the rendezvous connection for TCP).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RankOut {
    /// CPU seconds of this rank's process when every rank had finished
    /// warming up.
    pub ready_cpu_s: f64,
    pub rounds: f64,
    /// Result checks that failed (one per round at most).
    pub failed: f64,
    pub checked: f64,
    pub fresh: f64,
    /// `EngineStats::snapshot()` over the window.
    pub engine: Vec<f64>,
    /// `[sends, bytes_sent, stall_ms]` over the window.
    pub comm: Vec<f64>,
    pub rss_mib: f64,
    /// Latency of every timed `allreduce_owned` call, ms, in call order.
    pub lat_ms: Vec<f64>,
    /// Wall time of every block of rounds, s.
    pub block_s: Vec<f64>,
    pub spans: Vec<Span>,
}

/// Elements of `out` that differ from `expect` (bitwise) in `range`.
fn mismatches(out: &[f32], expect: f32, range: std::ops::Range<usize>) -> usize {
    out[range]
        .iter()
        .filter(|v| v.to_bits() != expect.to_bits())
        .count()
}

fn check(out: &Payload, expect: f32, stripe: Option<usize>) -> bool {
    let Some(v) = out.as_f32() else {
        return false;
    };
    let n = v.len();
    let range = match stripe {
        None => 0..n,
        Some(s) => {
            let w = n.div_ceil(STRIPES);
            (s * w).min(n)..((s + 1) * w).min(n)
        }
    };
    mismatches(v, expect, range) == 0 && mismatches(v, expect, 0..1.min(n)) == 0
}

/// The SPMD body every rank runs.
pub fn rank_loop(c: Communicator, job: ArJob) -> RankOut {
    let ctx = RankCtx::new(c);
    let rank = ctx.rank();
    let p = ctx.size();
    let mut ar = ctx.partial_allreduce(
        DType::F32,
        job.elems,
        ReduceOp::Sum,
        QuorumPolicy::Full,
        PartialOpts::default(),
    );
    let mut vote = ctx.sync_allreduce(DType::F32, 1, ReduceOp::Max, None);
    let contrib = Payload::new(TypedBuf::from(vec![(rank + 1) as f32; job.elems]));
    let expect = (p * (p + 1) / 2) as f32;
    let mut out = RankOut::default();

    for _ in 0..job.warmup {
        let r = ar.allreduce_owned(contrib.clone());
        out.failed += f64::from(!check(&r.data, expect, None));
        out.checked += 1.0;
    }
    ctx.barrier();
    out.ready_cpu_s = cpu_s(CpuOf::Process);
    if job.window_ms == 0 {
        out.rss_mib = peak_rss_mib();
        ctx.finalize();
        return out;
    }

    let window_s = job.window_ms as f64 / 1e3;
    // Counters are read when the world is quiet, right after a stop vote
    // like the ones that end each block, so the window's traffic is whole
    // blocks and their votes and per-round counts repeat exactly.
    let _ = vote.allreduce(&TypedBuf::from(vec![0.0f32]));
    std::thread::sleep(QUIESCE);
    let stats = ctx.comm_stats();
    let comm0 = stats.snapshot();
    let eng0 = ctx.engine().stats().snapshot();
    let fresh0 = ar.counters().0;
    let mut tracer = Tracer::new(job.trace);
    let mut rounds: u64 = 0;
    let mut window = 0.0f64;
    out.lat_ms.reserve((window_s * 5_000.0) as usize);
    loop {
        let block_t0 = Instant::now();
        for _ in 0..job.block {
            let span = tracer.open(trace::ROUND, rounds, NO_PARENT);
            let call = tracer.open(trace::PARTIAL_ALLREDUCE, rounds, span);
            let t0 = Instant::now();
            let r = ar.allreduce_owned(contrib.clone());
            let dt = t0.elapsed();
            tracer.close(call);
            out.lat_ms.push(dt.as_secs_f64() * 1e3);
            let chk = tracer.open(trace::CHECK, rounds, span);
            let stripe = (rounds as usize + rank) % STRIPES;
            out.failed += f64::from(!check(&r.data, expect, Some(stripe)));
            out.checked += 1.0;
            tracer.close(chk);
            tracer.close(span);
            rounds += 1;
        }
        let block_s = block_t0.elapsed().as_secs_f64();
        out.block_s.push(block_s);
        window += block_s;
        let v = tracer.open(trace::SYNC_ALLREDUCE, rounds, NO_PARENT);
        let flag = TypedBuf::from(vec![if window >= window_s { 1.0f32 } else { 0.0 }]);
        let done = vote.allreduce(&flag).as_f32().is_some_and(|d| d[0] >= 1.0);
        tracer.close(v);
        if done {
            break;
        }
    }
    std::thread::sleep(QUIESCE);
    let comm = stats.snapshot().since(&comm0);
    let eng1 = ctx.engine().stats().snapshot();
    out.fresh = (ar.counters().0 - fresh0) as f64;

    // One more round, checked in full and outside the window.
    let last = ar.allreduce_owned(contrib.clone());
    out.failed += f64::from(!check(&last.data, expect, None));
    out.checked += 1.0;
    ctx.barrier();
    out.engine = eng1
        .iter()
        .zip(eng0.iter())
        .map(|(a, b)| (a - b) as f64)
        .collect();
    out.comm = vec![comm.sends as f64, comm.bytes_sent as f64, comm.stall_ms];
    out.rounds = rounds as f64;
    out.spans = tracer.into_spans();
    out.rss_mib = peak_rss_mib();
    ctx.finalize();
    out
}

/// Launch `job` on threads or on one process per rank. `None` only in a
/// TCP worker process whose label is another launch's.
pub fn launch(job: ArJob, tcp: bool) -> Option<Vec<RankOut>> {
    if tcp {
        World::launch_tcp(job.world(), TcpOpts::labeled(job.label()), move |c| {
            rank_loop(c, job)
        })
    } else {
        Some(World::launch(job.world(), move |c| rank_loop(c, job)))
    }
}

/// CPU seconds a launch spent until every rank was warmed up: this
/// process's since `cpu0` for in-process ranks, the sum of the worker
/// processes' own for TCP ranks (the parent's spawning and rendezvous
/// relay are left out).
fn setup_s(tcp: bool, cpu0: f64, outs: &[RankOut]) -> f64 {
    if tcp {
        outs.iter().map(|o| o.ready_cpu_s).sum()
    } else {
        outs.iter().map(|o| o.ready_cpu_s).fold(cpu0, f64::max) - cpu0
    }
}

/// Per-round context counters shared by every threaded workload:
/// engine activations and late drops, transport sends, bytes and
/// stalls, all summed over ranks and divided by rounds.
pub fn context_metrics(m: &mut Metrics, engine: &[f64], comm: &[f64], rounds: f64) {
    let rounds = rounds.max(1.0);
    let (internal, external, late) = (engine[0], engine[1], engine[4]);
    m.set(
        "pcoll_sched.engine.external_share",
        external / (internal + external).max(1.0),
        "ratio",
    );
    m.set(
        "pcoll_sched.engine.dropped_late_per_round",
        late / rounds,
        "count",
    );
    m.set(
        "pcoll_comm.stats.sends_per_round",
        comm[0] / rounds,
        "count",
    );
    m.set(
        "pcoll_comm.stats.bytes_sent_per_round",
        comm[1] / rounds,
        "bytes",
    );
    m.set(
        "pcoll_comm.stats.stall_ms_per_round",
        comm[2] / rounds,
        "ms",
    );
}

pub fn sum_vecs(rows: impl Iterator<Item = Vec<f64>>) -> Vec<f64> {
    rows.fold(Vec::new(), |mut acc, row| {
        acc.resize(acc.len().max(row.len()), 0.0);
        acc.iter_mut().zip(row).for_each(|(a, b)| *a += b);
        acc
    })
}

/// Run one allreduce workload: `setup_reps` set-up-only launches, then
/// the measured launch.
pub fn run(tcp: bool, seed: u64, seconds: f64, setup_reps: usize, traced: bool) -> Outcome {
    let job = ArJob {
        p: P,
        elems: if tcp { TCP_ELEMS } else { BULK_ELEMS },
        warmup: if tcp { 50 } else { 4 },
        block: if tcp { 256 } else { 64 },
        window_ms: (seconds * 1e3) as u64,
        trace: traced,
        seed,
    };
    let mut setups = Vec::new();
    let mut rss: f64 = 0.0;
    let mut attempted = 0.0;
    let mut failed = 0.0;
    let mut host = HostSpeed::default();
    for _ in 0..setup_reps {
        host.sample();
        let cpu0 = cpu_s(CpuOf::Process);
        let outs = launch(
            ArJob {
                window_ms: 0,
                ..job
            },
            tcp,
        )
        .expect("parent process");
        setups.push(setup_s(tcp, cpu0, &outs));
        for o in &outs {
            attempted += o.checked;
            failed += o.failed;
            rss = rss.max(o.rss_mib);
        }
    }
    host.sample();
    let cpu0 = cpu_s(CpuOf::Process);
    let outs = launch(job, tcp).expect("parent process");
    setups.push(setup_s(tcp, cpu0, &outs));
    for o in &outs {
        attempted += o.checked;
        failed += o.failed;
        rss = rss.max(o.rss_mib);
    }
    // In-process ranks share this process; TCP ranks report their own.
    rss = rss.max(peak_rss_mib());

    let rounds = outs[0].rounds;
    // Rate of the median block: a stall of the shared host that slows a
    // few blocks does not move it.
    let blocks: Vec<f64> = outs
        .iter()
        .flat_map(|o| o.block_s.iter().copied())
        .collect();
    let rate = job.block as f64 / median(&blocks);
    // Latency samples are each rank's mean round time over one block.
    // Single calls' tails follow the shared host's scheduler (a p99 that
    // moved 5x between runs of one seed); block means keep the tail of
    // the collective itself.
    let lat: Vec<f64> = blocks.iter().map(|b| b * 1e3 / job.block as f64).collect();
    let t = tail(&lat, 99);
    let calls: Vec<f64> = outs.iter().flat_map(|o| o.lat_ms.iter().copied()).collect();
    let fresh = outs.iter().map(|o| o.fresh).sum::<f64>() / (rounds * outs.len() as f64);

    let mut o = Outcome::new(rate);
    let e = &mut o.e2e;
    // CPU time, at the reference host speed (see `crate::calib`).
    e.set("setup_s", median(&setups) / host.factor(), "s");
    e.set("peak_rss_mib", rss, "MiB");
    e.set("rounds_per_s", rate, "1/s");
    e.set("round_ms_p50", median(&lat), "ms");
    e.set("round_ms_p99", t.map_or(f64::NAN, |t| t.value), "ms");
    // One step of this workload is one collective call per rank.
    e.set("steps_per_s", rate, "1/s");
    e.set("fresh_fraction", fresh, "ratio");
    // No model is trained and Full quorum is the synchronous allreduce:
    // the neutral value stands in (see perfbench/README.md).
    e.set("final_loss", 1.0, "loss");
    e.set("speedup_vs_sync", 1.0, "ratio");

    let engine = sum_vecs(outs.iter().map(|o| o.engine.clone()));
    let comm = sum_vecs(outs.iter().map(|o| o.comm.clone()));
    context_metrics(&mut o.context, &engine, &comm, rounds);

    o.attempted = attempted as u64;
    o.failed = failed as u64;
    o.note("setup_samples_s", setups.len() as f64);
    o.note("setup_cpu_s", median(&setups));
    o.note("reference_ms", host.reference_ms());
    o.note("latency_samples", lat.len() as f64);
    o.note("rounds_per_latency_sample", job.block as f64);
    o.note("call_ms_p50", median(&calls));
    if let Some(t) = tail(&calls, 99) {
        o.note("call_ms_p99", t.value);
    }
    if let Some(t) = t {
        o.note("round_ms_tail_percentile", f64::from(t.percentile));
    }
    o.note("elements", job.elems as f64);
    o.note("ranks", P as f64);
    o.spans = outs.into_iter().map(|o| o.spans).collect();
    o
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_round_trips_through_its_label() {
        let job = ArJob {
            p: 4,
            elems: TCP_ELEMS,
            warmup: 50,
            block: 64,
            window_ms: 1500,
            trace: true,
            seed: 7,
        };
        assert_eq!(ArJob::parse(&job.label()), Some(job));
        assert_eq!(ArJob::parse("perfbench-pp-2-7"), None);
    }

    #[test]
    fn a_short_inprocess_run_is_correct() {
        let o = run(false, 3, 0.05, 1, true);
        assert_eq!(o.failed, 0);
        assert!(o.attempted > 0);
        assert_eq!(o.e2e.get("fresh_fraction"), Some(1.0));
        assert!(o.e2e.get("rounds_per_s").unwrap() > 0.0);
        assert_eq!(o.spans.len(), P);
    }
}
