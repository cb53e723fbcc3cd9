//! Synchronous (blocking) collectives: allreduce, barrier, broadcast,
//! reduce. These are the `MPI_*` stand-ins the paper baselines against —
//! the operation "implicitly synchronizes the participants: the operation
//! cannot terminate before the slowest process joins it" (§4).
//!
//! They run on the same schedule engine as the partial collectives (every
//! data send is gated on the rank's own internal activation), so the
//! comparison in the benchmarks isolates the *semantics* — partial vs.
//! synchronous — rather than differences in machinery.

use crate::builders::{barrier_schedule, bcast_schedule, reduce_schedule, sync_allreduce_schedule};
use parking_lot::{Condvar, Mutex};
use pcoll_comm::{CollId, DType, Payload, Rank, ReduceOp, TypedBuf};
use pcoll_sched::{CollectiveTemplate, Engine, Schedule, SnapshotTiming};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// How long a blocking collective waits before panicking with a
/// diagnostic.
pub const SYNC_WAIT_TIMEOUT: Duration = Duration::from_secs(120);

/// Shared state for round-indexed blocking collectives: per-round deposit
/// slots (several rounds may be posted and in flight concurrently — the
/// non-blocking mode of §3) and per-round results.
struct SyncShared {
    deposits: Mutex<HashMap<u64, TypedBuf>>,
    results: Mutex<HashMap<u64, Option<TypedBuf>>>,
    cv: Condvar,
    scale: Option<f64>,
}

impl SyncShared {
    fn new(scale: Option<f64>) -> Arc<Self> {
        Arc::new(SyncShared {
            deposits: Mutex::new(HashMap::new()),
            results: Mutex::new(HashMap::new()),
            cv: Condvar::new(),
            scale,
        })
    }

    fn put_deposit(&self, round: u64, data: TypedBuf) {
        let prev = self.deposits.lock().insert(round, data);
        debug_assert!(prev.is_none(), "round {round} deposited twice");
    }

    fn take_deposit(&self, round: u64) -> TypedBuf {
        self.deposits
            .lock()
            .remove(&round)
            .unwrap_or_else(|| panic!("sync snapshot found no deposit for round {round}"))
    }

    fn complete(&self, round: u64, mut result: Option<TypedBuf>) {
        if let (Some(s), Some(data)) = (self.scale, result.as_mut()) {
            data.scale(s);
        }
        self.results.lock().insert(round, result);
        self.cv.notify_all();
    }

    fn wait(&self, round: u64, what: &str) -> Option<TypedBuf> {
        let deadline = std::time::Instant::now() + SYNC_WAIT_TIMEOUT;
        let mut res = self.results.lock();
        loop {
            if let Some(r) = res.remove(&round) {
                return r;
            }
            let timeout = deadline.saturating_duration_since(std::time::Instant::now());
            if timeout.is_zero() {
                panic!("{what} round {round} timed out after {SYNC_WAIT_TIMEOUT:?}");
            }
            self.cv.wait_for(&mut res, timeout);
        }
    }
}

/// Template adapter: a schedule builder closure plus the shared sync state.
struct SyncTemplate<F: Fn(u64) -> Schedule + Send> {
    build: F,
    shared: Arc<SyncShared>,
    /// Whether this rank contributes data (false e.g. for non-root bcast
    /// ranks and for barriers).
    contributes: bool,
}

impl<F: Fn(u64) -> Schedule + Send> CollectiveTemplate for SyncTemplate<F> {
    fn build(&self, round: u64) -> Arc<Schedule> {
        Arc::new((self.build)(round))
    }

    fn snapshot(&self, round: u64) -> Option<Payload> {
        self.contributes
            .then(|| Payload::new(self.shared.take_deposit(round)))
    }

    fn snapshot_timing(&self, _round: u64) -> SnapshotTiming {
        SnapshotTiming::Activation
    }

    fn complete(&self, round: u64, result: Option<TypedBuf>) {
        self.shared.complete(round, result);
    }
}

/// Blocking allreduce (binomial reduce + broadcast, works for any world
/// size, result bitwise identical on all ranks).
pub struct SyncAllreduce {
    shared: Arc<SyncShared>,
    engine: Engine,
    coll: CollId,
    next_round: u64,
    dtype: DType,
    len: usize,
}

impl SyncAllreduce {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn register(
        engine: &Engine,
        coll: CollId,
        rank: Rank,
        p: usize,
        dtype: DType,
        len: usize,
        op: ReduceOp,
        scale: Option<f64>,
    ) -> Self {
        let shared = SyncShared::new(scale);
        engine.register(
            coll,
            Box::new(SyncTemplate {
                build: move |_round| sync_allreduce_schedule(rank, p, 0, op),
                shared: Arc::clone(&shared),
                contributes: true,
            }),
        );
        SyncAllreduce {
            shared,
            engine: engine.clone(),
            coll,
            next_round: 0,
            dtype,
            len,
        }
    }

    /// Like [`SyncAllreduce::register`], but over an arbitrary subset of
    /// the world: only the `live` ranks (sorted, must contain `rank`)
    /// participate. The schedule is built in a virtual world of
    /// `live.len()` ranks and remapped to global ids — this is what the
    /// eviction protocol's fence consensus runs on after a rank dies.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn register_over(
        engine: &Engine,
        coll: CollId,
        live: &[Rank],
        rank: Rank,
        dtype: DType,
        len: usize,
        op: ReduceOp,
        scale: Option<f64>,
    ) -> Self {
        let live = live.to_vec();
        let vrank = live
            .iter()
            .position(|&r| r == rank)
            .expect("register_over: rank must be in the live set");
        let p = live.len();
        let shared = SyncShared::new(scale);
        engine.register(
            coll,
            Box::new(SyncTemplate {
                build: move |_round| {
                    let mut s = sync_allreduce_schedule(vrank, p, 0, op);
                    s.remap_peers(&live);
                    s
                },
                shared: Arc::clone(&shared),
                contributes: true,
            }),
        );
        SyncAllreduce {
            shared,
            engine: engine.clone(),
            coll,
            next_round: 0,
            dtype,
            len,
        }
    }

    /// Contribute `data` and block until the global reduction for this
    /// round returns.
    pub fn allreduce(&mut self, data: &TypedBuf) -> TypedBuf {
        let round = self.post(data);
        self.wait(round)
    }

    /// Non-blocking post (the `MPI_Iallreduce` flavour of §3): contribute
    /// `data` and return immediately with a round handle. Several rounds
    /// may be in flight concurrently — each schedule instance progresses
    /// independently on the communication thread; call [`Self::wait`] (in
    /// any order) before using the results.
    pub fn post(&mut self, data: &TypedBuf) -> u64 {
        assert_eq!(data.dtype(), self.dtype, "contribution dtype");
        assert_eq!(data.len(), self.len, "contribution length");
        let round = self.next_round;
        self.next_round += 1;
        self.shared.put_deposit(round, data.clone());
        self.engine.activate(self.coll, round);
        round
    }

    /// Block until the posted `round` completes and take its result.
    pub fn wait(&mut self, round: u64) -> TypedBuf {
        self.shared
            .wait(round, "sync allreduce")
            .expect("allreduce carries data")
    }

    /// Rounds executed so far.
    pub fn rounds(&self) -> u64 {
        self.next_round
    }
}

/// Blocking dissemination barrier (any world size).
pub struct SyncBarrier {
    shared: Arc<SyncShared>,
    engine: Engine,
    coll: CollId,
    next_round: std::cell::Cell<u64>,
}

impl SyncBarrier {
    pub(crate) fn register(engine: &Engine, coll: CollId, rank: Rank, p: usize) -> Self {
        let shared = SyncShared::new(None);
        engine.register(
            coll,
            Box::new(SyncTemplate {
                build: move |_round| barrier_schedule(rank, p),
                shared: Arc::clone(&shared),
                contributes: false,
            }),
        );
        SyncBarrier {
            shared,
            engine: engine.clone(),
            coll,
            next_round: std::cell::Cell::new(0),
        }
    }

    /// Like [`SyncBarrier::register`], but over an arbitrary subset of
    /// the world (see [`SyncAllreduce::register_over`]).
    pub(crate) fn register_over(engine: &Engine, coll: CollId, live: &[Rank], rank: Rank) -> Self {
        let live = live.to_vec();
        let vrank = live
            .iter()
            .position(|&r| r == rank)
            .expect("register_over: rank must be in the live set");
        let p = live.len();
        let shared = SyncShared::new(None);
        engine.register(
            coll,
            Box::new(SyncTemplate {
                build: move |_round| {
                    let mut s = barrier_schedule(vrank, p);
                    s.remap_peers(&live);
                    s
                },
                shared: Arc::clone(&shared),
                contributes: false,
            }),
        );
        SyncBarrier {
            shared,
            engine: engine.clone(),
            coll,
            next_round: std::cell::Cell::new(0),
        }
    }

    /// Block until every rank has entered this barrier round.
    pub fn wait(&self) {
        let round = self.next_round.get();
        self.next_round.set(round + 1);
        self.engine.activate(self.coll, round);
        self.shared.wait(round, "barrier");
    }
}

/// Blocking binomial-tree broadcast from a fixed root.
pub struct SyncBcast {
    shared: Arc<SyncShared>,
    engine: Engine,
    coll: CollId,
    next_round: u64,
    root: Rank,
    rank: Rank,
}

impl SyncBcast {
    pub(crate) fn register(
        engine: &Engine,
        coll: CollId,
        rank: Rank,
        p: usize,
        root: Rank,
    ) -> Self {
        let shared = SyncShared::new(None);
        engine.register(
            coll,
            Box::new(SyncTemplate {
                build: move |_round| bcast_schedule(rank, p, root),
                shared: Arc::clone(&shared),
                contributes: rank == root,
            }),
        );
        SyncBcast {
            shared,
            engine: engine.clone(),
            coll,
            next_round: 0,
            root,
            rank,
        }
    }

    /// Root passes `Some(payload)`; everyone receives the root's payload.
    pub fn bcast(&mut self, data: Option<&TypedBuf>) -> TypedBuf {
        let round = self.next_round;
        self.next_round += 1;
        if self.rank == self.root {
            let data = data.expect("root must provide the broadcast payload");
            self.shared.put_deposit(round, data.clone());
        }
        self.engine.activate(self.coll, round);
        self.shared
            .wait(round, "bcast")
            .expect("bcast carries data")
    }
}

/// Blocking binomial-tree reduce to a fixed root. Only the root receives
/// the reduced result (`Some`); other ranks get `None`.
pub struct SyncReduce {
    shared: Arc<SyncShared>,
    engine: Engine,
    coll: CollId,
    next_round: u64,
}

impl SyncReduce {
    pub(crate) fn register(
        engine: &Engine,
        coll: CollId,
        rank: Rank,
        p: usize,
        root: Rank,
        op: ReduceOp,
    ) -> Self {
        let shared = SyncShared::new(None);
        engine.register(
            coll,
            Box::new(SyncTemplate {
                build: move |_round| reduce_schedule(rank, p, root, op),
                shared: Arc::clone(&shared),
                contributes: true,
            }),
        );
        SyncReduce {
            shared,
            engine: engine.clone(),
            coll,
            next_round: 0,
        }
    }

    /// Contribute `data`; block until this rank's part is done. Returns
    /// the reduction at the root, `None` elsewhere.
    pub fn reduce(&mut self, data: &TypedBuf) -> Option<TypedBuf> {
        let round = self.next_round;
        self.next_round += 1;
        self.shared.put_deposit(round, data.clone());
        self.engine.activate(self.coll, round);
        self.shared.wait(round, "reduce")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::RankCtx;
    use pcoll_comm::{World, WorldConfig};

    #[test]
    fn sync_allreduce_sums_any_world_size() {
        for p in [1usize, 2, 3, 5, 8, 12] {
            let out = World::launch(WorldConfig::instant(p), move |c| {
                let ctx = RankCtx::new(c);
                let mut ar = ctx.sync_allreduce(DType::F64, 3, ReduceOp::Sum, None);
                let me = ctx.rank() as f64;
                let r = ar.allreduce(&TypedBuf::from(vec![me, 1.0, -me]));
                ctx.finalize();
                r.as_f64().unwrap().to_vec()
            });
            let total: f64 = (0..p).map(|r| r as f64).sum();
            for (r, v) in out.iter().enumerate() {
                assert_eq!(v[0], total, "p={p} rank {r}");
                assert_eq!(v[1], p as f64);
                assert_eq!(v[2], -total);
            }
        }
    }

    #[test]
    fn sync_allreduce_waits_for_slowest() {
        // The straggler delays everyone: all ranks' calls return only
        // after it arrives. We check time-from-start ≥ the straggler's
        // delay on every rank.
        let p = 4;
        let delay = Duration::from_millis(150);
        let out = World::launch(WorldConfig::instant(p), move |c| {
            let ctx = RankCtx::new(c);
            let mut ar = ctx.sync_allreduce(DType::F32, 1, ReduceOp::Sum, None);
            ctx.host_barrier();
            let t0 = std::time::Instant::now();
            if ctx.rank() == 2 {
                std::thread::sleep(delay);
            }
            let _ = ar.allreduce(&TypedBuf::from(vec![1.0f32]));
            let dt = t0.elapsed();
            ctx.finalize();
            dt
        });
        for (r, dt) in out.iter().enumerate() {
            assert!(
                *dt >= delay,
                "rank {r} returned after {dt:?}, before the straggler's {delay:?}"
            );
        }
    }

    #[test]
    fn nonblocking_posts_overlap_and_complete_out_of_order() {
        // §3's non-blocking mode: post many rounds, wait in reverse.
        let p = 4;
        let out = World::launch(WorldConfig::instant(p), move |c| {
            let ctx = RankCtx::new(c);
            let mut ar = ctx.sync_allreduce(DType::I64, 2, ReduceOp::Sum, None);
            let handles: Vec<u64> = (0..6i64)
                .map(|r| ar.post(&TypedBuf::from(vec![r, -r])))
                .collect();
            // waitall, in reverse posting order.
            let mut results = vec![0i64; handles.len()];
            for &h in handles.iter().rev() {
                results[h as usize] = ar.wait(h).as_i64().unwrap()[0];
            }
            ctx.finalize();
            results
        });
        for ranks in out {
            let want: Vec<i64> = (0..6).map(|r| r * p as i64).collect();
            assert_eq!(ranks, want);
        }
    }

    #[test]
    fn nonblocking_pipelines_across_tensors() {
        // Two independent allreduces in flight concurrently: post both,
        // then wait both — results must not cross-talk.
        let p = 4;
        let out = World::launch(WorldConfig::instant(p), move |c| {
            let ctx = RankCtx::new(c);
            let mut a = ctx.sync_allreduce(DType::F32, 3, ReduceOp::Sum, None);
            let mut b = ctx.sync_allreduce(DType::F32, 5, ReduceOp::Max, None);
            let me = ctx.rank() as f32;
            let ha = a.post(&TypedBuf::from(vec![me; 3]));
            let hb = b.post(&TypedBuf::from(vec![me; 5]));
            let ra = a.wait(ha).as_f32().unwrap()[0];
            let rb = b.wait(hb).as_f32().unwrap()[0];
            ctx.finalize();
            (ra, rb)
        });
        for (ra, rb) in out {
            assert_eq!(ra, 6.0); // sum of ranks
            assert_eq!(rb, 3.0); // max rank
        }
    }

    #[test]
    fn sync_allreduce_multiple_rounds_in_order() {
        let p = 5;
        let out = World::launch(WorldConfig::instant(p), move |c| {
            let ctx = RankCtx::new(c);
            let mut ar = ctx.sync_allreduce(DType::I64, 1, ReduceOp::Sum, None);
            let mut got = Vec::new();
            for round in 0..10i64 {
                let r = ar.allreduce(&TypedBuf::from(vec![round]));
                got.push(r.as_i64().unwrap()[0]);
            }
            ctx.finalize();
            got
        });
        for ranks in out {
            let want: Vec<i64> = (0..10).map(|r| r * p as i64).collect();
            assert_eq!(ranks, want);
        }
    }

    #[test]
    fn sync_allreduce_scaling() {
        let p = 4;
        let out = World::launch(WorldConfig::instant(p), move |c| {
            let ctx = RankCtx::new(c);
            let mut ar = ctx.sync_allreduce(DType::F32, 1, ReduceOp::Sum, Some(1.0 / p as f64));
            let r = ar.allreduce(&TypedBuf::from(vec![6.0f32]));
            ctx.finalize();
            r.as_f32().unwrap()[0]
        });
        assert_eq!(out, vec![6.0; 4]);
    }

    #[test]
    fn barrier_aligns_ranks() {
        let p = 6;
        let out = World::launch(WorldConfig::instant(p), move |c| {
            let ctx = RankCtx::new(c);
            // Align thread start times first, then stagger arrivals; after
            // the barrier everyone must observe that the slowest arrived.
            ctx.host_barrier();
            let arrived = std::time::Instant::now();
            std::thread::sleep(Duration::from_millis(20 * ctx.rank() as u64));
            ctx.barrier();
            let waited = arrived.elapsed();
            ctx.finalize();
            waited
        });
        let slowest = Duration::from_millis(20 * 5);
        for (r, dt) in out.iter().enumerate() {
            assert!(
                *dt >= slowest - Duration::from_millis(2),
                "rank {r} left the barrier after {dt:?} < {slowest:?}"
            );
        }
    }

    #[test]
    fn bcast_delivers_root_payload() {
        for p in [2usize, 3, 7, 8] {
            let out = World::launch(WorldConfig::instant(p), move |c| {
                let ctx = RankCtx::new(c);
                let mut bc = ctx.bcast(2 % p);
                let payload = TypedBuf::from(vec![42i32, 7]);
                let r = bc.bcast((ctx.rank() == 2 % p).then_some(&payload));
                ctx.finalize();
                r.as_i32().unwrap().to_vec()
            });
            for v in out {
                assert_eq!(v, vec![42, 7], "p={p}");
            }
        }
    }

    #[test]
    fn reduce_collects_at_root() {
        for p in [2usize, 3, 8, 11] {
            let root = p - 1;
            let out = World::launch(WorldConfig::instant(p), move |c| {
                let ctx = RankCtx::new(c);
                let mut red = ctx.reduce(root, ReduceOp::Max);
                let me = ctx.rank() as i64;
                let r = red.reduce(&TypedBuf::from(vec![me * me]));
                ctx.finalize();
                r.map(|b| b.as_i64().unwrap().to_vec())
            });
            for (r, v) in out.iter().enumerate() {
                if r == root {
                    let want = ((p - 1) * (p - 1)) as i64;
                    assert_eq!(v.as_ref().unwrap()[0], want, "p={p}");
                } else {
                    assert!(v.is_none(), "non-root rank {r} must get None");
                }
            }
        }
    }
}
