//! `train_skew`: eager-SGD (majority) on the hyperplane MLP under one
//! random straggler per step, then the same seed and configuration with
//! synch-SGD (Deep500), then a single-worker reference with no
//! injection.
//!
//! The trainer (`eager_sgd::run_rank`) is driven unchanged. The
//! benchmark wraps the model, the optimizer and the data source it hands
//! the trainer; the wrappers time each step (from `Workload::sample` to
//! the end of `Model::apply_delta`, so model sync and evaluation at
//! epoch ends stay out of the clock) and, in the traced run, record a
//! span around every call the trainer makes into them.

use crate::allreduce::{context_metrics, sum_vecs, P};
use crate::calib::HostSpeed;
use crate::report::{cpu_s, peak_rss_mib, CpuOf};
use crate::stats::{median, tail};
use crate::trace::{self, Span, Tracer, NO_PARENT};
use crate::Outcome;
use datagen::HyperplaneTask;
use dnn::zoo::hyperplane_mlp;
use dnn::{Batch, EvalMetrics, FeedForward, Model, Optimizer, Sgd};
use eager_sgd::{run_rank, HyperplaneWorkload, SgdVariant, TrainLog, TrainerConfig, Workload};
use imbalance::Injector;
use minitensor::TensorRng;
use pcoll::{PartialOpts, QuorumPolicy, RankCtx};
use pcoll_comm::{DType, Payload, ReduceOp, TypedBuf, World, WorldConfig};
use std::sync::{Arc, Mutex};
use std::time::Instant;

const DIM: usize = 256;
const LOCAL_BATCH: usize = 32;
const BASE_COMPUTE_MS: f64 = 50.0;
const INJECT_MS: f64 = 100.0;
const TIME_SCALE: f64 = 0.2;
const STEPS_PER_EPOCH: usize = 10;
const MODEL_SYNC_EVERY: usize = 5;
const LR: f32 = 0.05;
const GRAD_CLIP: f32 = 50.0;
/// Eager steps per second of `--seconds` (about two thirds of the run).
const EAGER_STEPS_PER_SECOND: f64 = 33.0;
/// Synchronous steps per second of `--seconds`. Every synchronous step
/// waits for that step's straggler, so its step time barely varies and a
/// short run pins it down.
const SYNC_STEPS_PER_SECOND: f64 = 4.0;

fn task(seed: u64) -> Arc<HyperplaneTask> {
    Arc::new(HyperplaneTask::new(DIM, 16_384, 0.05, 4096, seed))
}

fn model(seed: u64) -> FeedForward {
    hyperplane_mlp(DIM, &mut TensorRng::new(seed ^ 0x30D))
}

fn injector() -> Injector {
    Injector::RandomRanks {
        k: 1,
        amount_ms: INJECT_MS,
        seed: 0,
    }
}

/// Step timing and spans shared by the wrappers of one rank.
struct StepClock {
    tracer: Tracer,
    step: u64,
    step_span: u32,
    step_t0: Option<Instant>,
    /// Start of the gap after the last traced call (ns on the tracer).
    gap_from: u64,
    step_ms: Vec<f64>,
    grad_ms: Vec<f64>,
}

type Clock = Arc<Mutex<StepClock>>;

const POISONED: &str = "a rank thread panicked while timing a step";

fn new_clock(traced: bool) -> Clock {
    Arc::new(Mutex::new(StepClock {
        tracer: Tracer::new(traced),
        step: 0,
        step_span: NO_PARENT,
        step_t0: None,
        gap_from: 0,
        step_ms: Vec::new(),
        grad_ms: Vec::new(),
    }))
}

impl StepClock {
    /// Record the untraced gap since the last call as a `gap` span, then
    /// time `f` as a `name` span; both are children of the step span.
    fn call<R>(clock: &Clock, gap: Option<u16>, name: u16, f: impl FnOnce() -> R) -> R {
        {
            let mut c = clock.lock().expect(POISONED);
            let now = c.tracer.now_ns();
            let (step, parent, from) = (c.step, c.step_span, c.gap_from);
            if let Some(g) = gap {
                c.tracer.push(g, from, now, step, parent);
            }
        }
        let t0 = Instant::now();
        let r = f();
        let dt = t0.elapsed();
        let mut c = clock.lock().expect(POISONED);
        let end = c.tracer.now_ns();
        let start = end.saturating_sub(dt.as_nanos() as u64);
        let (step, parent) = (c.step, c.step_span);
        c.tracer.push(name, start, end, step, parent);
        c.gap_from = end;
        if name == trace::GRAD_STEP {
            c.grad_ms.push(dt.as_secs_f64() * 1e3);
        }
        r
    }
}

/// The data source: opens a step.
struct TimedWorkload {
    inner: HyperplaneWorkload,
    clock: Clock,
}

impl Workload for TimedWorkload {
    fn sample(&self, rank: usize, step: u64, rng: &mut TensorRng) -> Batch {
        {
            let mut c = self.clock.lock().expect(POISONED);
            c.step = step;
            c.step_t0 = Some(Instant::now());
            c.step_span = c.tracer.open(trace::TRAINER_STEP, step, NO_PARENT);
        }
        StepClock::call(&self.clock, None, trace::SAMPLE, || {
            self.inner.sample(rank, step, rng)
        })
    }

    fn test_batches(&self) -> Vec<Batch> {
        self.inner.test_batches()
    }
}

/// The model: times `grad_step` and closes the step in `apply_delta`.
struct TimedModel {
    inner: FeedForward,
    clock: Clock,
}

impl Model for TimedModel {
    fn num_params(&self) -> usize {
        self.inner.num_params()
    }
    fn param_sizes(&self) -> Vec<usize> {
        self.inner.param_sizes()
    }
    fn grad_step(&mut self, batch: &Batch) -> f32 {
        let inner = &mut self.inner;
        StepClock::call(&self.clock, None, trace::GRAD_STEP, || {
            inner.grad_step(batch)
        })
    }
    fn write_grads(&self, out: &mut [f32]) {
        StepClock::call(
            &self.clock,
            Some(trace::COMPUTE_AND_INJECT),
            trace::WRITE_GRADS,
            || self.inner.write_grads(out),
        )
    }
    fn write_params(&self, out: &mut [f32]) {
        self.inner.write_params(out)
    }
    fn read_params(&mut self, src: &[f32]) {
        self.inner.read_params(src)
    }
    fn apply_delta(&mut self, delta: &[f32]) {
        let inner = &mut self.inner;
        StepClock::call(&self.clock, None, trace::APPLY_DELTA, || {
            inner.apply_delta(delta)
        });
        let mut c = self.clock.lock().expect(POISONED);
        if let Some(t0) = c.step_t0.take() {
            c.step_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        let span = c.step_span;
        c.tracer.close(span);
    }
    fn evaluate(&mut self, batch: &Batch) -> EvalMetrics {
        self.inner.evaluate(batch)
    }
}

/// The optimizer: its `delta` follows the gradient allreduce.
struct TimedOpt {
    inner: Sgd,
    clock: Clock,
}

impl Optimizer for TimedOpt {
    fn delta(&mut self, grads: &[f32], out: &mut [f32]) {
        let inner = &mut self.inner;
        StepClock::call(
            &self.clock,
            Some(trace::TRAINER_ALLREDUCE),
            trace::OPT_DELTA,
            || inner.delta(grads, out),
        )
    }
    fn lr(&self) -> f32 {
        self.inner.lr()
    }
    fn set_lr(&mut self, lr: f32) {
        self.inner.set_lr(lr)
    }
}

/// One rank's result of one training run.
struct RankRun {
    log: TrainLog,
    step_ms: Vec<f64>,
    grad_ms: Vec<f64>,
    engine: Vec<f64>,
    comm: Vec<f64>,
    spans: Vec<Span>,
}

fn train(
    seed: u64,
    p: usize,
    variant: SgdVariant,
    steps: usize,
    local_batch: usize,
    skewed: bool,
    traced: bool,
) -> Vec<RankRun> {
    let task = task(seed);
    World::launch(WorldConfig::instant(p).with_seed(seed), move |c| {
        let ctx = RankCtx::new(c);
        let clock = new_clock(traced);
        let mut m = TimedModel {
            inner: model(seed),
            clock: Arc::clone(&clock),
        };
        let mut opt = TimedOpt {
            inner: Sgd::new(LR),
            clock: Arc::clone(&clock),
        };
        let wl = TimedWorkload {
            inner: HyperplaneWorkload {
                task: Arc::clone(&task),
                local_batch,
            },
            clock: Arc::clone(&clock),
        };
        let epochs = steps / STEPS_PER_EPOCH;
        let mut cfg = TrainerConfig::new(variant, epochs, STEPS_PER_EPOCH, LR);
        cfg.seed = seed;
        cfg.grad_clip = Some(GRAD_CLIP);
        cfg.model_sync_every = Some(MODEL_SYNC_EVERY);
        cfg.eval_every = epochs;
        if skewed {
            cfg.injector = injector();
            cfg.time_scale = TIME_SCALE;
            cfg.base_compute_ms = BASE_COMPUTE_MS;
        }
        let comm0 = ctx.comm_stats().snapshot();
        let eng0 = ctx.engine().stats().snapshot();
        let log = run_rank(&ctx, &mut m, &mut opt, &wl, &cfg);
        ctx.barrier();
        let comm = ctx.comm_stats().snapshot().since(&comm0);
        let eng1 = ctx.engine().stats().snapshot();
        ctx.finalize();
        drop((m, opt, wl));
        let clock = Arc::try_unwrap(clock)
            .ok()
            .expect("wrappers dropped")
            .into_inner()
            .expect(POISONED);
        RankRun {
            log,
            step_ms: clock.step_ms,
            grad_ms: clock.grad_ms,
            engine: eng1
                .iter()
                .zip(eng0.iter())
                .map(|(a, b)| (a - b) as f64)
                .collect(),
            comm: vec![comm.sends as f64, comm.bytes_sent as f64, comm.stall_ms],
            spans: clock.tracer.into_spans(),
        }
    })
}

/// CPU seconds from launch to the first timed op: data generation,
/// world, context, model and gradient collective, and one warm-up round.
fn setup_once(seed: u64) -> f64 {
    let cpu0 = cpu_s(CpuOf::Process);
    let task = task(seed);
    let ready = World::launch(WorldConfig::instant(P).with_seed(seed), move |c| {
        let ctx = RankCtx::new(c);
        let m = model(seed);
        let n = m.num_params();
        let mut ar = ctx.partial_allreduce(
            DType::F32,
            n,
            ReduceOp::Sum,
            QuorumPolicy::Majority,
            PartialOpts::default(),
        );
        let batch = task.sample_batch(LOCAL_BATCH, &mut TensorRng::new(seed));
        drop(batch);
        let _ = ar.allreduce_owned(Payload::new(TypedBuf::from(vec![0.0f32; n])));
        ctx.barrier();
        let ready = cpu_s(CpuOf::Process);
        ctx.finalize();
        ready
    });
    ready.into_iter().fold(cpu0, f64::max) - cpu0
}

fn final_loss(runs: &[RankRun]) -> f32 {
    runs[0].log.final_test().map_or(f32::NAN, |t| t.loss)
}

/// Mean step time in ms over every rank's steps.
fn mean_step_ms(runs: &[RankRun]) -> f64 {
    let n: usize = runs.iter().map(|r| r.step_ms.len()).sum();
    runs.iter().flat_map(|r| &r.step_ms).sum::<f64>() / n.max(1) as f64
}

/// Whole epochs' step counts for `seconds` at `per_second`.
fn steps_for(seconds: f64, per_second: f64) -> usize {
    ((seconds * per_second / STEPS_PER_EPOCH as f64).round() as usize).max(2) * STEPS_PER_EPOCH
}

/// Time `Model::grad_step` alone on the workload's batch.
pub fn grad_step_ms(seed: u64) -> f64 {
    let task = task(seed);
    let mut m = model(seed);
    let mut rng = TensorRng::new(seed);
    let batches: Vec<Batch> = (0..8)
        .map(|_| task.sample_batch(LOCAL_BATCH, &mut rng))
        .collect();
    let reps: Vec<f64> = (0..7)
        .map(|_| {
            let t0 = Instant::now();
            for i in 0..200 {
                std::hint::black_box(m.grad_step(&batches[i % batches.len()]));
            }
            t0.elapsed().as_secs_f64() * 1e3 / 200.0
        })
        .collect();
    median(&reps)
}

pub fn run(seed: u64, seconds: f64, setup_reps: usize, traced: bool) -> Outcome {
    let steps = steps_for(seconds, EAGER_STEPS_PER_SECOND);
    let sync_steps = steps_for(seconds, SYNC_STEPS_PER_SECOND);
    let mut host = HostSpeed::default();
    let setups: Vec<f64> = (0..=setup_reps)
        .map(|_| {
            host.sample();
            setup_once(seed)
        })
        .collect();
    let initial_loss = {
        let mut m = model(seed);
        m.evaluate(&task(seed).validation()).loss
    };

    let eager = train(
        seed,
        P,
        SgdVariant::EagerMajority,
        steps,
        LOCAL_BATCH,
        true,
        traced,
    );
    let sync = train(
        seed,
        P,
        SgdVariant::SynchDeep500,
        sync_steps,
        LOCAL_BATCH,
        true,
        false,
    );
    let reference = train(
        seed,
        1,
        SgdVariant::SynchDeep500,
        steps,
        LOCAL_BATCH * P,
        false,
        false,
    );

    let mut attempted = 0u64;
    let mut failed = 0u64;
    for runs in [&eager, &sync, &reference] {
        let loss = final_loss(runs);
        let rank_steps: u64 = runs.iter().map(|r| r.log.steps).sum();
        attempted += rank_steps;
        if !(loss.is_finite() && loss < initial_loss) {
            failed += rank_steps;
        }
    }

    let eager_ms = mean_step_ms(&eager);
    let sync_ms = mean_step_ms(&sync);
    let steps_f = steps as f64;
    let rate = 1e3 / eager_ms;
    // A step's time depends on whether this rank or the quorum's
    // initiator straggled, so single steps cluster in two modes and their
    // median jumps between them from seed to seed. Latency samples are
    // each rank's mean step time over one epoch instead.
    let lat: Vec<f64> = eager
        .iter()
        .flat_map(|r| r.step_ms.chunks(STEPS_PER_EPOCH))
        .map(|c| c.iter().sum::<f64>() / c.len() as f64)
        .collect();
    let t = tail(&lat, 99);
    let fresh: u64 = eager.iter().map(|r| r.log.fresh_rounds).sum();
    let missed: u64 = eager.iter().map(|r| r.log.missed_rounds).sum();

    let mut o = Outcome::new(rate);
    let e = &mut o.e2e;
    // CPU time, at the reference host speed (see `crate::calib`).
    e.set("setup_s", median(&setups) / host.factor(), "s");
    e.set("peak_rss_mib", peak_rss_mib(), "MiB");
    // Every eager step runs one partial-allreduce round.
    e.set("rounds_per_s", rate, "1/s");
    e.set("round_ms_p50", median(&lat), "ms");
    e.set("round_ms_p99", t.map_or(f64::NAN, |t| t.value), "ms");
    e.set("steps_per_s", rate, "1/s");
    e.set(
        "fresh_fraction",
        fresh as f64 / (steps_f * P as f64),
        "ratio",
    );
    e.set("final_loss", f64::from(final_loss(&eager)), "loss");
    // Synch-SGD time ÷ eager-SGD time for the same number of steps.
    e.set("speedup_vs_sync", sync_ms / eager_ms, "ratio");

    // Wait per step: step time minus the balanced compute, grad_step and
    // this rank's own injected delay.
    let inj = injector().with_seed(seed);
    let wait: Vec<f64> = eager
        .iter()
        .enumerate()
        .map(|(rank, r)| {
            let own_inj = (0..steps as u64)
                .map(|s| inj.delays_all(P, s)[rank] * TIME_SCALE)
                .sum::<f64>()
                / steps_f;
            let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
            mean(&r.step_ms) - BASE_COMPUTE_MS * TIME_SCALE - mean(&r.grad_ms) - own_inj
        })
        .collect();
    let owned = &mut o.owned;
    owned.set(
        "eager_sgd.trainer.wait_ms_per_step",
        wait.iter().sum::<f64>() / wait.len() as f64,
        "ms",
    );
    owned.set(
        "pcoll.partial.missed_share",
        missed as f64 / (steps_f * P as f64),
        "ratio",
    );
    owned.set("pcoll.sync.steps_per_s", 1e3 / sync_ms, "1/s");
    owned.set(
        "train_skew.reference_loss",
        f64::from(final_loss(&reference)),
        "loss",
    );

    let engine = sum_vecs(eager.iter().map(|r| r.engine.clone()));
    let comm = sum_vecs(eager.iter().map(|r| r.comm.clone()));
    context_metrics(&mut o.context, &engine, &comm, steps_f);

    o.attempted = attempted;
    o.failed = failed;
    o.note("steps", steps_f);
    o.note("sync_steps", sync_steps as f64);
    o.note("initial_loss", f64::from(initial_loss));
    o.note("sync_final_loss", f64::from(final_loss(&sync)));
    o.note("setup_samples_s", setups.len() as f64);
    o.note("setup_cpu_s", median(&setups));
    o.note("reference_ms", host.reference_ms());
    o.note("latency_samples", lat.len() as f64);
    if let Some(t) = t {
        o.note("round_ms_tail_percentile", f64::from(t.percentile));
    }
    o.spans = eager.into_iter().map(|r| r.spans).collect();
    o
}
