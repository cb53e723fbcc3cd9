//! `sim_p1024`: the discrete-event `SimHarness` at P = 1,024.
//!
//! Ranks are self-paced with 5 ms + 3 µs·rank of compute; a rotating
//! hiccup stalls 64 ranks by 20 ms each round; quorum is Majority;
//! contributions are 8 f32 elements; the network is instant. The run is
//! single-threaded and in virtual time, so it is timed in the thread's
//! CPU time: the CPU cost of the engine cores, schedule building,
//! activation and the event heap. A run
//! repeats 24-round executions, each on a world seed drawn from `--seed`
//! and its index; execution 0's digest and exact event counts are
//! reported, so two runs of one seed can be compared.

use crate::allreduce::context_metrics;
use crate::report::{cpu_s, peak_rss_mib, CpuOf};
use crate::stats::{median, tail};
use crate::trace::{self, Tracer, NO_PARENT};
use crate::Outcome;
use pcoll::{Hiccup, Pacing, PartialOpts, QuorumPolicy, SimHarness, SimReport, SimSpec};
use pcoll_comm::{SimOpts, WorldConfig};
use pcoll_obs::MetricsRegistry;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

pub const P: usize = 1024;
/// Rounds per execution.
pub const ROUNDS: u64 = 24;
/// Rounds per latency sample. Ranks finish rounds in bursts, so the
/// times of single rounds, or of pairs, fall into two modes whose median
/// jumps between them; four-round windows smooth the bursts out.
const WINDOW: u64 = 4;
/// Executions the virtual-time metrics (`fresh_fraction`,
/// `speedup_vs_sync`) average over: a fixed set, so those metrics are the
/// same on every run of one seed however fast the host is.
const VIRTUAL_EXECS: usize = 12;

pub fn spec(seed: u64, rounds: u64, policy: QuorumPolicy) -> SimSpec {
    SimSpec {
        world: WorldConfig::instant(P).with_seed(seed),
        opts: SimOpts::default(),
        policy,
        rounds,
        len: 8,
        pacing: Pacing::SelfPaced {
            compute: (0..P)
                .map(|r| Duration::from_millis(5) + Duration::from_micros(3 * r as u64))
                .collect(),
            hiccup: Hiccup {
                k: 64,
                extra: Duration::from_millis(20),
            },
        },
        partial: PartialOpts::default(),
    }
}

/// Rounds of `report` whose NAP lies outside [1, P], or every round if
/// a rank did not finish.
fn bad_rounds(report: &SimReport, rounds: u64) -> u64 {
    let complete = report.nap_per_round.len() as u64 == rounds
        && report.traces.iter().all(|t| t.len() as u64 == rounds);
    if !complete {
        return rounds;
    }
    report
        .nap_per_round
        .iter()
        .filter(|&&n| n == 0 || n as usize > P)
        .count() as u64
}

/// One execution's readings; times are the thread's CPU seconds.
struct Execution {
    setup_s: f64,
    exec_s: f64,
    round_ms: Vec<f64>,
    report: Option<SimReport>,
    registry: MetricsRegistry,
}

fn execute(spec: SimSpec, tracer: &mut Tracer, index: u64) -> Execution {
    let cpu0 = cpu_s(CpuOf::Thread);
    let new_span = tracer.open(trace::SIM_NEW, index, NO_PARENT);
    let mut h = SimHarness::new(spec);
    tracer.close(new_span);
    let setup_s = cpu_s(CpuOf::Thread) - cpu0;
    let exec_span = tracer.open(trace::SIM_EXECUTE, index, NO_PARENT);
    let exec_start_ns = tracer.now_ns();
    let mut round_ms = Vec::new();
    let mut marks: Vec<(u64, u64)> = Vec::new();
    let cpu1 = cpu_s(CpuOf::Thread);
    let mut last = cpu1;
    let report = catch_unwind(AssertUnwindSafe(|| {
        // A hook that never switches policy: it fires each time every
        // rank has finished another window of rounds, which timestamps
        // the windows.
        let mut hook = |w: &pcoll::WindowStats| {
            let now = cpu_s(CpuOf::Thread);
            round_ms.push((now - last) * 1e3 / WINDOW as f64);
            marks.push((w.from_round, tracer.now_ns()));
            last = now;
            None
        };
        h.execute_tuned(WINDOW, &mut hook)
    }))
    .ok();
    let exec_s = cpu_s(CpuOf::Thread) - cpu1;
    tracer.close(exec_span);
    // Each window's span runs from the previous window's completion.
    let mut from = exec_start_ns;
    for (round, at) in marks {
        tracer.push(trace::SIM_WINDOW, from, at, round, exec_span);
        from = at;
    }
    let registry = MetricsRegistry::default();
    h.export_metrics(&registry);
    Execution {
        setup_s,
        exec_s,
        round_ms,
        report,
        registry,
    }
}

/// World seed of execution `i` of a run: Majority draws one random
/// initiator per round, so one round's NAP is close to uniform on
/// [1, P]; runs average over many rounds drawn from distinct seeds.
fn execution_seed(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub fn run(seed: u64, seconds: f64, setup_reps: usize, traced: bool) -> Outcome {
    let mut tracer = Tracer::new(traced);
    let mut execs: Vec<Execution> = Vec::new();
    // A short run inside another workload's traced run (no set-ups
    // timed) reads only the layer counters and needs one execution.
    let min_execs = if setup_reps == 0 { 1 } else { VIRTUAL_EXECS };
    let t0 = Instant::now();
    while execs.len() < min_execs || t0.elapsed().as_secs_f64() < seconds {
        let i = execs.len() as u64;
        let spec = spec(execution_seed(seed, i), ROUNDS, QuorumPolicy::Majority);
        execs.push(execute(spec, &mut tracer, i));
    }
    // The synchronous baseline: Full quorum, once. Full has no random
    // draws, so its virtual time does not depend on the seed.
    let full = execute(
        spec(execution_seed(seed, 0), ROUNDS, QuorumPolicy::Full),
        &mut Tracer::new(false),
        0,
    );
    let mut setups: Vec<f64> = execs.iter().map(|e| e.setup_s).collect();
    while setups.len() <= setup_reps {
        let cpu0 = cpu_s(CpuOf::Thread);
        drop(SimHarness::new(spec(
            execution_seed(seed, 0),
            ROUNDS,
            QuorumPolicy::Majority,
        )));
        setups.push(cpu_s(CpuOf::Thread) - cpu0);
    }

    let mut attempted = 0u64;
    let mut failed = 0u64;
    let first = execs[0].report.as_ref();
    let digest = first.map(SimReport::digest);
    for ex in execs.iter().chain([&full]) {
        attempted += ROUNDS;
        match &ex.report {
            Some(r) => failed += bad_rounds(r, ROUNDS),
            None => failed += ROUNDS,
        }
    }

    // Rounds per CPU second of the median execution. These CPU times are
    // not scaled by the reference job (`crate::calib`): in one set of runs
    // its time moved by 17 % while the simulator's stayed flat.
    let rates: Vec<f64> = execs.iter().map(|e| ROUNDS as f64 / e.exec_s).collect();
    let rate = median(&rates);
    let lat: Vec<f64> = execs
        .iter()
        .flat_map(|e| e.round_ms.iter().copied())
        .collect();
    let t = tail(&lat, 99);
    let reports: Vec<&SimReport> = execs
        .iter()
        .take(VIRTUAL_EXECS)
        .filter_map(|e| e.report.as_ref())
        .collect();
    let n = reports.len().max(1) as f64;
    let mean_nap = reports.iter().map(|r| r.mean_nap).sum::<f64>() / n;
    let majority_vt = reports
        .iter()
        .map(|r| r.virtual_time.as_secs_f64())
        .sum::<f64>()
        / n;
    let speedup = full
        .report
        .as_ref()
        .map_or(f64::NAN, |f| f.virtual_time.as_secs_f64() / majority_vt);

    let mut o = Outcome::new(rate);
    let e = &mut o.e2e;
    e.set("setup_s", median(&setups), "s");
    e.set("peak_rss_mib", peak_rss_mib(), "MiB");
    e.set("rounds_per_s", rate, "1/s");
    e.set("round_ms_p50", median(&lat), "ms");
    e.set("round_ms_p99", t.map_or(f64::NAN, |t| t.value), "ms");
    // One step of a simulated rank is one deposit and its round.
    e.set("steps_per_s", rate, "1/s");
    e.set("fresh_fraction", mean_nap / P as f64, "ratio");
    // No model is trained (see perfbench/README.md).
    e.set("final_loss", 1.0, "loss");
    // Virtual time at Full quorum ÷ virtual time at Majority.
    e.set("speedup_vs_sync", speedup, "ratio");

    let (events, delivered) = first.map_or((0, 0), |r| (r.events, r.delivered));
    let ns_per_event: Vec<f64> = execs
        .iter()
        .filter_map(|e| {
            let ev = e.report.as_ref()?.events;
            Some(e.exec_s * 1e9 / ev as f64)
        })
        .collect();
    let owned = &mut o.owned;
    owned.set("pcoll_comm.sim.events", events as f64, "count");
    owned.set("pcoll_comm.sim.delivered", delivered as f64, "count");
    owned.set("pcoll.sim.ns_per_event", median(&ns_per_event), "ns");

    let reg = &execs[0].registry;
    let engine: Vec<f64> = [
        "internal_activations",
        "external_activations",
        "completions",
        "dropped_gc",
        "dropped_late",
    ]
    .iter()
    .map(|c| reg.counter(&format!("sim_engine_{c}_total")) as f64)
    .collect();
    let comm = [
        reg.counter("sim_comm_sends_total") as f64,
        reg.counter("sim_comm_bytes_sent_total") as f64,
        reg.counter("sim_comm_stall_ns_total") as f64 / 1e6,
    ];
    context_metrics(&mut o.context, &engine, &comm, ROUNDS as f64);

    o.attempted = attempted;
    o.failed = failed;
    o.note("executions", execs.len() as f64);
    o.note("rounds_per_execution", ROUNDS as f64);
    o.note("mean_nap", mean_nap);
    o.note("setup_samples_s", setups.len() as f64);
    o.note("latency_samples", lat.len() as f64);
    if let Some(t) = t {
        o.note("round_ms_tail_percentile", f64::from(t.percentile));
    }
    if let Some(d) = digest {
        o.note_str("digest", format!("{d:016x}"));
    }
    o.spans = vec![tracer.into_spans()];
    o
}
