//! `perfbench`: the repository benchmark.
//!
//! ```sh
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads: `train_skew`, `allreduce_bulk`, `allreduce_tcp`,
//! `sim_p1024` (see `perfbench/README.md`). With `--trace 0` the run
//! measures the workload with tracing off and reports the end-to-end
//! metrics. With `--trace 1` it runs the workload twice (untraced, then
//! with spans recorded around every call into a layer), adds the ledger
//! probes and short runs of the other workloads, and reports the
//! per-layer metrics plus the tracing overhead. The last line of
//! standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. Details (provenance,
//! sample counts, self times) go to `.bench_results/`.

mod allreduce;
mod calib;
mod probes;
mod report;
mod sim;
mod stats;
mod trace;
mod train;

use report::{obj, Metrics};
use serde::json::Value;
use serde::Serialize;
use std::path::Path;

/// What one workload run produced.
pub struct Outcome {
    /// End-to-end metrics.
    pub e2e: Metrics,
    /// Per-layer metrics only this workload measures.
    pub owned: Metrics,
    /// Per-layer counters every workload reports for itself.
    pub context: Metrics,
    /// The workload's throughput (rounds or steps per second).
    pub rate: f64,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<(String, Value)>,
    /// Spans per rank (traced runs only).
    pub spans: Vec<Vec<trace::Span>>,
}

impl Outcome {
    pub fn new(rate: f64) -> Outcome {
        Outcome {
            e2e: Metrics::default(),
            owned: Metrics::default(),
            context: Metrics::default(),
            rate,
            attempted: 0,
            failed: 0,
            notes: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn note(&mut self, key: &str, value: f64) {
        self.notes.push((key.to_string(), Value::Float(value)));
    }

    pub fn note_str(&mut self, key: &str, value: String) {
        self.notes.push((key.to_string(), Value::Str(value)));
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Workload {
    TrainSkew,
    AllreduceBulk,
    AllreduceTcp,
    SimP1024,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::TrainSkew,
        Workload::AllreduceBulk,
        Workload::AllreduceTcp,
        Workload::SimP1024,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::TrainSkew => "train_skew",
            Workload::AllreduceBulk => "allreduce_bulk",
            Workload::AllreduceTcp => "allreduce_tcp",
            Workload::SimP1024 => "sim_p1024",
        }
    }

    fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    fn run(self, seed: u64, seconds: f64, setup_reps: usize, traced: bool) -> Outcome {
        match self {
            Workload::TrainSkew => train::run(seed, seconds, setup_reps, traced),
            Workload::AllreduceBulk => allreduce::run(false, seed, seconds, setup_reps, traced),
            Workload::AllreduceTcp => allreduce::run(true, seed, seconds, setup_reps, traced),
            Workload::SimP1024 => sim::run(seed, seconds, setup_reps, traced),
        }
    }
}

/// End-to-end metrics every workload reports with `--trace 0`.
const E2E: [&str; 9] = [
    "setup_s",
    "peak_rss_mib",
    "rounds_per_s",
    "round_ms_p50",
    "round_ms_p99",
    "steps_per_s",
    "fresh_fraction",
    "final_loss",
    "speedup_vs_sync",
];

/// Per-layer metrics every workload reports with `--trace 1`.
const PER_LAYER: [&str; 23] = [
    "pcoll_comm.buf.reduce_gib_s",
    "pcoll_comm.buf.memcpy_gib_s",
    "pcoll_comm.buf.reduce_over_memcpy",
    "pcoll.algos.ring_rounds_per_s",
    "pcoll_sched.engine.engine_over_direct",
    "pcoll_sched.engine.external_share",
    "pcoll_sched.engine.dropped_late_per_round",
    "pcoll_comm.transport.tcp_pingpong_us_p50",
    "pcoll_comm.transport.tcp_stream_gib_s",
    "pcoll_comm.transport.inproc_handoff_ns",
    "pcoll_sched.engine.rd_over_pingpong",
    "pcoll_comm.stats.bytes_sent_per_round",
    "pcoll_comm.stats.sends_per_round",
    "pcoll_comm.stats.stall_ms_per_round",
    "dnn.grad_step_ms",
    "eager_sgd.trainer.wait_ms_per_step",
    "pcoll.partial.missed_share",
    "pcoll.sync.steps_per_s",
    "pcoll_comm.sim.events",
    "pcoll_comm.sim.delivered",
    "pcoll.sim.ns_per_event",
    "train_skew.reference_loss",
    "perfbench.trace.overhead_share",
];

/// Set-ups timed per untraced run, besides the measured run's own.
const SETUP_REPS: usize = 16;

/// Length of the other workloads' runs inside a traced run.
const LEDGER_RUN_S: f64 = 1.5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    Ok(Args {
        workload: Workload::parse(workload).ok_or(format!("unknown workload {workload}"))?,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: get("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            t => return Err(format!("--trace must be 0 or 1, not {t}")),
        },
    })
}

/// A re-executed TCP worker serves exactly the launch named by its
/// label, then exits inside `launch_tcp`.
fn serve_tcp_worker() -> ! {
    let label = std::env::var("PCOLL_TCP_LABEL").unwrap_or_default();
    if let Some(job) = allreduce::ArJob::parse(&label) {
        allreduce::launch(job, true);
    } else if let Some(seed) = label
        .strip_prefix(probes::PINGPONG_LABEL)
        .and_then(|s| s.strip_prefix('-'))
        .and_then(|s| s.parse().ok())
    {
        let opts = pcoll_comm::TcpOpts::labeled(label.clone());
        pcoll_comm::World::launch_tcp(probes::tcp_pair_world(seed), opts, probes::tcp_pair);
    }
    eprintln!("perfbench: no TCP launch is labelled {label:?}");
    std::process::exit(2);
}

/// The traced run: per-layer metrics for `w`.
fn traced_run(w: Workload, seed: u64, seconds: f64) -> (Metrics, Vec<Outcome>, Value) {
    let half = seconds / 2.0;
    let base = w.run(seed, half, 1, false);
    let traced = w.run(seed, half, 1, true);
    let mut layer = Metrics::default();
    layer.extend(&traced.owned);
    layer.extend(&traced.context);
    layer.set(
        "perfbench.trace.overhead_share",
        (base.rate - traced.rate) / base.rate,
        "ratio",
    );

    // Short untraced runs of the other workloads fill in the layers
    // they own and the rates the ledger ratios divide.
    let mut runs = vec![(w, base)];
    for x in Workload::ALL.into_iter().filter(|&x| x != w) {
        let o = x.run(seed, LEDGER_RUN_S, 0, false);
        for m in &o.owned.0 {
            if !layer.has(&m.name) {
                layer.set(&m.name, m.value, m.unit);
            }
        }
        runs.push((x, o));
    }
    // The majority quorum's arrival order moves train_skew's own traffic
    // from run to run, so its exact per-round counts are read from the
    // bulk allreduce run, whose counts repeat exactly; its own counts go
    // to the details file.
    let mut own_traffic = Metrics::default();
    if w == Workload::TrainSkew {
        let bulk = &runs
            .iter()
            .find(|(x, _)| *x == Workload::AllreduceBulk)
            .expect("every traced run includes a bulk allreduce run")
            .1;
        for (name, unit) in [
            ("pcoll_comm.stats.bytes_sent_per_round", "bytes"),
            ("pcoll_comm.stats.sends_per_round", "count"),
        ] {
            own_traffic.set(name, layer.get(name).unwrap_or(f64::NAN), unit);
            layer.set(name, bulk.context.get(name).unwrap_or(f64::NAN), unit);
        }
    }
    let e2e = |x: Workload, name: &str| {
        runs.iter()
            .find(|(y, _)| *y == x)
            .and_then(|(_, o)| o.e2e.get(name))
            .unwrap_or(f64::NAN)
    };

    let (reduce, copy, chunk_bytes) = probes::kernel();
    layer.set("pcoll_comm.buf.reduce_gib_s", reduce.median, "GiB/s");
    layer.set("pcoll_comm.buf.memcpy_gib_s", copy.median, "GiB/s");
    layer.set(
        "pcoll_comm.buf.reduce_over_memcpy",
        reduce.median / copy.median,
        "ratio",
    );
    let ring = probes::ring_rounds_per_s(seed);
    layer.set("pcoll.algos.ring_rounds_per_s", ring.median, "1/s");
    layer.set(
        "pcoll_sched.engine.engine_over_direct",
        e2e(Workload::AllreduceBulk, "rounds_per_s") / ring.median,
        "ratio",
    );
    let handoff = probes::inproc_handoff_ns(seed);
    layer.set(
        "pcoll_comm.transport.inproc_handoff_ns",
        handoff.median,
        "ns",
    );
    let (pingpong_us, stream_gib_s) = probes::tcp(seed);
    layer.set(
        "pcoll_comm.transport.tcp_pingpong_us_p50",
        pingpong_us,
        "us",
    );
    layer.set(
        "pcoll_comm.transport.tcp_stream_gib_s",
        stream_gib_s,
        "GiB/s",
    );
    let log2_p = (allreduce::P as f64).log2();
    layer.set(
        "pcoll_sched.engine.rd_over_pingpong",
        e2e(Workload::AllreduceTcp, "round_ms_p50") / (log2_p * pingpong_us / 1e3),
        "ratio",
    );
    layer.set("dnn.grad_step_ms", train::grad_step_ms(seed), "ms");

    let self_ms = trace::self_times(&traced.spans)
        .into_iter()
        .map(|(name, t)| {
            (
                name.to_string(),
                obj([
                    ("count", t.count.to_value()),
                    ("total_ms", Value::Float(t.total_ns as f64 / 1e6)),
                    ("self_ms", Value::Float(t.self_ns as f64 / 1e6)),
                ]),
            )
        })
        .collect();
    let extra = obj([
        ("self_times", Value::Obj(self_ms)),
        ("kernel_chunk_bytes", chunk_bytes.to_value()),
        ("reduce_gib_s", reduce.to_value()),
        ("memcpy_gib_s", copy.to_value()),
        ("ring_rounds_per_s", ring.to_value()),
        ("inproc_handoff_ns", handoff.to_value()),
        ("untraced_rate", runs[0].1.rate.to_value()),
        ("traced_rate", traced.rate.to_value()),
        ("own_traffic_per_round", own_traffic.to_value()),
    ]);
    write_spans(w, &traced.spans);
    let mut outcomes: Vec<Outcome> = runs.into_iter().map(|(_, o)| o).collect();
    outcomes.push(traced);
    (layer, outcomes, extra)
}

fn write_spans(w: Workload, per_rank: &[Vec<trace::Span>]) {
    let mut out = String::new();
    for (rank, spans) in per_rank.iter().enumerate() {
        for s in spans {
            let parent = (s.parent != trace::NO_PARENT).then_some(s.parent);
            out.push_str(
                &obj([
                    ("rank", rank.to_value()),
                    ("name", trace::SPAN_NAMES[s.name as usize].to_value()),
                    ("round", s.round.to_value()),
                    ("start_ns", s.start_ns.to_value()),
                    ("end_ns", s.end_ns.to_value()),
                    ("parent", parent.to_value()),
                ])
                .to_json(),
            );
            out.push('\n');
        }
    }
    let _ = std::fs::create_dir_all(RESULTS_DIR);
    let _ = std::fs::write(
        Path::new(RESULTS_DIR).join(format!("{}.spans.jsonl", w.name())),
        out,
    );
}

const RESULTS_DIR: &str = ".bench_results";

fn main() {
    if pcoll_comm::is_tcp_worker() {
        serve_tcp_worker();
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            std::process::exit(2);
        }
    };
    let w = args.workload;

    let (metrics, outcomes, extra, names): (Metrics, Vec<Outcome>, Value, &[&str]) = if args.trace {
        let (layer, outcomes, extra) = traced_run(w, args.seed, args.seconds);
        (layer, outcomes, extra, &PER_LAYER)
    } else {
        let o = w.run(args.seed, args.seconds, SETUP_REPS, false);
        let mut extra_m = o.owned.clone();
        extra_m.extend(&o.context);
        (o.e2e.clone(), vec![o], extra_m.to_value(), &E2E)
    };

    let attempted: u64 = outcomes.iter().map(|o| o.attempted).sum();
    let failed: u64 = outcomes.iter().map(|o| o.failed).sum();
    let mut metrics_ok = true;
    let mut reported = Metrics::default();
    for &name in names {
        match metrics.0.iter().find(|m| m.name == name) {
            Some(m) if m.value.is_finite() && stats::valid_metric_name(name) => {
                reported.set(name, m.value, m.unit)
            }
            _ => {
                eprintln!("perfbench: metric {name} is missing or not finite");
                metrics_ok = false;
            }
        }
    }
    let correct = failed == 0 && attempted > 0 && metrics_ok;

    println!(
        "# perfbench {} seed {} seconds {} trace {}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for m in &reported.0 {
        println!("{:<44} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("# ops attempted {attempted}, failed {failed}");
    let provenance = report::provenance(args.seed);
    println!("# provenance {}", provenance.to_json());
    for (k, v) in &outcomes[0].notes {
        println!("# {k} = {}", v.to_json());
    }

    let details = obj([
        ("workload", w.name().to_value()),
        ("seconds", args.seconds.to_value()),
        ("trace", args.trace.to_value()),
        ("provenance", provenance),
        ("correct", correct.to_value()),
        ("attempted", attempted.to_value()),
        ("failed", failed.to_value()),
        ("metrics", reported.to_value()),
        ("extra", extra),
        ("notes", Value::Obj(outcomes[0].notes.clone())),
    ]);
    let _ = std::fs::create_dir_all(RESULTS_DIR);
    let _ = std::fs::write(
        Path::new(RESULTS_DIR).join(format!("{}-trace{}.json", w.name(), u8::from(args.trace))),
        details.to_json() + "\n",
    );

    let result = obj([
        ("correct", correct.to_value()),
        ("attempted", attempted.to_value()),
        ("failed", failed.to_value()),
        ("metrics", reported.to_value()),
    ]);
    println!("{}", result.to_json());
}
