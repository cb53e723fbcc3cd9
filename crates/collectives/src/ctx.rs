//! Per-rank context: the engine plus SPMD collective constructors.
//!
//! [`RankCtx`] is the `MPI_COMM_WORLD` of this library: it owns the rank's
//! progress engine and hands out collective handles. **Collectives must be
//! constructed in the same order on every rank** — construction allocates
//! consecutive collective ids, and ranks agree on which id means what only
//! if they allocate in lockstep (the usual SPMD contract for communicator
//! construction).
//!
//! Everything here is transport-agnostic: a `RankCtx` built from a
//! thread-world communicator behaves identically to one built in a TCP
//! rank process — all cross-rank coordination (barriers, consensus
//! randomness, policy fences) goes through messages or the shared seed,
//! never through shared memory. The one exception is
//! [`RankCtx::host_barrier`], which is explicitly thread-world test
//! scaffolding (a no-op under process-per-rank).

use crate::partial::{PartialAllreduce, PartialOpts, QuorumPolicy};
use crate::sync::{SyncAllreduce, SyncBarrier, SyncBcast, SyncReduce};
use pcoll_comm::{CollId, CommStats, Communicator, DType, Membership, Rank, ReduceOp, TypedBuf};
use pcoll_sched::Engine;
use std::cell::Cell;
use std::sync::{Arc, Barrier};

/// Base of the collective-id range reserved for the membership fence's
/// consensus collectives (fence allreduce + barrier, two ids per
/// membership epoch). Far above anything `RankCtx::alloc` hands out, and
/// derived identically on every participant, so lazily registering them
/// mid-run keeps the SPMD id agreement without any up-front reservation.
const FENCE_COLL_BASE: u32 = 0x4000_0000;

/// Per-rank context (one per rank thread, not shareable across threads).
pub struct RankCtx {
    rank: Rank,
    size: usize,
    seed: u64,
    engine: Engine,
    next_coll: Cell<u32>,
    barrier: SyncBarrier,
    host_barrier: Arc<Barrier>,
    comm_stats: Arc<CommStats>,
    membership: Arc<Membership>,
}

impl RankCtx {
    /// Stand up the engine for this rank. Registers the built-in barrier
    /// as collective 0; user collectives start at id 1.
    pub fn new(comm: Communicator) -> Self {
        let rank = comm.rank();
        let size = comm.size();
        let seed = comm.seed();
        let host_barrier = comm.host_barrier_arc();
        let comm_stats = comm.comm_stats();
        let membership = Arc::clone(comm.membership());
        let (handle, inbox) = comm.split();
        let engine = Engine::spawn(handle, inbox);
        let barrier = SyncBarrier::register(&engine, CollId(0), rank, size);
        RankCtx {
            rank,
            size,
            seed,
            engine,
            next_coll: Cell::new(1),
            barrier,
            host_barrier,
            comm_stats,
            membership,
        }
    }

    /// This rank's liveness view of its peers (traffic- and
    /// heartbeat-driven suspicion). Drop [`Membership::sweep_suspects`]
    /// results from the live set passed to [`RankCtx::reconfigure`] to
    /// remove dead ranks for good.
    pub fn membership(&self) -> &Arc<Membership> {
        &self.membership
    }

    /// This rank's index.
    pub fn rank(&self) -> Rank {
        self.rank
    }

    /// World size (P).
    pub fn size(&self) -> usize {
        self.size
    }

    /// The world-shared seed (consensus randomness).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The underlying engine (for advanced/diagnostic use).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// This rank's transport queue-pressure counters (stalls, depths) —
    /// the congestion half of the closed-loop telemetry.
    pub fn comm_stats(&self) -> Arc<CommStats> {
        Arc::clone(&self.comm_stats)
    }

    /// This rank's flight-recorder handle (disabled unless the launch
    /// enabled tracing — see `pcoll_comm::WorldConfig::with_trace`).
    pub fn recorder(&self) -> &pcoll_comm::Recorder {
        self.comm_stats.recorder()
    }

    fn alloc(&self) -> CollId {
        let id = self.next_coll.get();
        self.next_coll.set(id + 1);
        CollId(id)
    }

    /// Create a partial allreduce (§4): the eager collective of the paper.
    /// World size must be a power of two.
    pub fn partial_allreduce(
        &self,
        dtype: DType,
        len: usize,
        op: ReduceOp,
        policy: QuorumPolicy,
        opts: PartialOpts,
    ) -> PartialAllreduce {
        PartialAllreduce::register(
            Arc::new(self.engine.clone()),
            self.alloc(),
            self.rank,
            self.size,
            self.seed,
            dtype,
            len,
            op,
            policy,
            opts,
        )
    }

    /// Create a blocking allreduce (any world size). `scale` multiplies
    /// the result (pass `Some(1.0 / P)` for averaging).
    pub fn sync_allreduce(
        &self,
        dtype: DType,
        len: usize,
        op: ReduceOp,
        scale: Option<f64>,
    ) -> SyncAllreduce {
        SyncAllreduce::register(
            &self.engine,
            self.alloc(),
            self.rank,
            self.size,
            dtype,
            len,
            op,
            scale,
        )
    }

    /// Create a blocking broadcast from `root`.
    pub fn bcast(&self, root: Rank) -> SyncBcast {
        SyncBcast::register(&self.engine, self.alloc(), self.rank, self.size, root)
    }

    /// Create a blocking reduce to `root`.
    pub fn reduce(&self, root: Rank, op: ReduceOp) -> SyncReduce {
        SyncReduce::register(&self.engine, self.alloc(), self.rank, self.size, root, op)
    }

    /// Message-based barrier across all ranks (the built-in collective 0).
    pub fn barrier(&self) {
        self.barrier.wait();
    }

    /// Move a partial allreduce to the live set `live` — evicting the
    /// current members it omits, re-admitting the absent ranks it names,
    /// or both. Every member of `live` must call this with the same set
    /// (SPMD); ranks outside it take no part. Returns the fence round
    /// `F`: rounds ≥ `F` are scheduled over `live`. When `live` already
    /// is the current live set, nothing is registered and the fence of
    /// the current set is returned.
    ///
    /// Protocol: flip the liveness view first — `Membership::evict` each
    /// leaver; `Membership::readmit` and `Engine::peer_up` each joiner —
    /// then Max-allreduce the build horizons over `live` to agree on a
    /// fence `F` no participant has built past, fast-forward a joining
    /// caller to `F` (rounds < `F` ran while it was absent), apply
    /// `set_live_from(F, live)` locally, and barrier over `live`.
    ///
    /// Why this is race-free:
    /// - **The fence covers every horizon.** It must exceed every round
    ///   for which a leaver's message might still arrive, or a survivor
    ///   would mix old and new schedules for one round. Under TCP the
    ///   per-peer stream is FIFO and death is observed as reader EOF, so
    ///   by the time a peer is reported down every message it ever sent
    ///   has been delivered — any round it touched already counts in some
    ///   survivor's [`PartialAllreduce::horizon`], and the max covers it.
    ///   Symmetrically every round any participant started lies below
    ///   `F`, and a joiner's first deposit is for `F` itself, so a joiner
    ///   cannot pollute rounds < `F`.
    /// - **Apply before the barrier.** Barrier entry is app-side, after
    ///   the local apply, so its completion implies every participant
    ///   builds rounds ≥ `F` over the identical live set.
    /// - **Joiners flip liveness before the consensus.** The transport
    ///   drops sends to Down peers, and the engine nulls their
    ///   contributions; both verdicts must reverse before the fence's own
    ///   traffic toward the joiner is staged (the command channel is
    ///   ordered).
    ///
    /// The consensus collectives are registered lazily at a reserved id
    /// (`FENCE_COLL_BASE + 2*epoch`, epoch = changes applied so far); the
    /// engine buffers messages for not-yet-registered collectives, so
    /// participants need not arrive simultaneously.
    ///
    /// Joiner precondition: a joiner must first register its collectives
    /// in SPMD order and install the survivors' segment state with
    /// [`PartialAllreduce::import_state`], so its epoch — and with it the
    /// consensus ids — matches theirs.
    pub fn reconfigure(&self, ar: &mut PartialAllreduce, live: &[Rank]) -> u64 {
        let mut live = live.to_vec();
        live.sort_unstable();
        live.dedup();
        assert!(
            live.contains(&self.rank),
            "rank {} is not in the target live set {live:?}",
            self.rank
        );
        let current = ar.live_ranks();
        if live == current {
            return ar.membership_segments().last().map_or(0, |s| s.0);
        }
        for r in current.iter().filter(|r| !live.contains(r)) {
            self.membership.evict(*r);
        }
        let joiners: Vec<Rank> = live
            .iter()
            .copied()
            .filter(|r| !current.contains(r))
            .collect();
        for &j in &joiners {
            self.membership.readmit(j);
            self.engine.peer_up(j);
        }
        let base = FENCE_COLL_BASE + 2 * ar.eviction_epoch() as u32;
        let mut fence = SyncAllreduce::register_over(
            &self.engine,
            CollId(base),
            &live,
            self.rank,
            DType::I64,
            1,
            ReduceOp::Max,
            None,
        );
        let gate = SyncBarrier::register_over(&self.engine, CollId(base + 1), &live, self.rank);
        let agreed = fence.allreduce(&TypedBuf::from(vec![ar.horizon() as i64]));
        let fence_round = agreed.as_i64().unwrap()[0] as u64;
        if joiners.contains(&self.rank) {
            ar.fast_forward_to(fence_round);
        }
        ar.set_live_from(fence_round, &live);
        gate.wait();
        fence_round
    }

    /// Host-side (non-modeled) barrier for bench/test alignment.
    ///
    /// Thread-world scaffolding only: under the TCP transport each
    /// process holds a single rank, so this returns immediately. Use
    /// [`RankCtx::barrier`] when alignment must hold on every transport.
    pub fn host_barrier(&self) {
        self.host_barrier.wait();
    }

    /// `MPI_Finalize` equivalent: barrier so no peer still needs us, then
    /// stop the engine. Call exactly once per rank at the end of the SPMD
    /// program.
    pub fn finalize(self) {
        self.barrier.wait();
        self.engine.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcoll_comm::{TypedBuf, World, WorldConfig};

    #[test]
    fn multiple_collectives_coexist() {
        // Two allreduces and a bcast, interleaved across rounds: the ids
        // allocated SPMD-style keep their traffic separate.
        let p = 4;
        let out = World::launch(WorldConfig::instant(p), move |c| {
            let ctx = RankCtx::new(c);
            let mut a = ctx.sync_allreduce(DType::I64, 1, ReduceOp::Sum, None);
            let mut b = ctx.sync_allreduce(DType::I64, 1, ReduceOp::Max, None);
            let mut bc = ctx.bcast(0);
            let me = ctx.rank() as i64;
            let mut got = Vec::new();
            for round in 0..4 {
                let s = a.allreduce(&TypedBuf::from(vec![me + round]));
                let m = b.allreduce(&TypedBuf::from(vec![me * round]));
                let payload = TypedBuf::from(vec![round * 100]);
                let x = bc.bcast((ctx.rank() == 0).then_some(&payload));
                got.push((
                    s.as_i64().unwrap()[0],
                    m.as_i64().unwrap()[0],
                    x.as_i64().unwrap()[0],
                ));
            }
            ctx.finalize();
            got
        });
        for ranks in out {
            for (round, (s, m, x)) in ranks.iter().enumerate() {
                let round = round as i64;
                assert_eq!(*s, 6 + 4 * round); // Σ(rank) + P*round
                assert_eq!(*m, 3 * round); // max(rank*round)
                assert_eq!(*x, round * 100);
            }
        }
    }

    #[test]
    fn evict_agrees_on_fence_and_survivors_continue() {
        // Four ranks run five Full-quorum rounds in lockstep, then ranks
        // 0-2 evict rank 3 and keep going over the live set (p=3, which
        // also exercises the non-power-of-two segmented-ring fallback).
        // Rank 3 stops contributing and heads straight for finalize.
        let p = 4;
        let out = World::launch(WorldConfig::instant(p), move |c| {
            let ctx = RankCtx::new(c);
            let mut ar = ctx.partial_allreduce(
                DType::F32,
                8,
                ReduceOp::Sum,
                QuorumPolicy::Full,
                PartialOpts::default(),
            );
            let me = ctx.rank() as f32 + 1.0; // contributions 1..=4
            let mut sums = Vec::new();
            for _ in 0..5 {
                let out = ar.allreduce(&TypedBuf::from(vec![me; 8]));
                sums.push(out.data.as_f32().unwrap()[0]);
            }
            // Full quorum left every rank in lockstep at next_round = 5
            // and nobody has built further, so the fence is deterministic.
            let mut fence = 0;
            if ctx.rank() != 3 {
                fence = ctx.reconfigure(&mut ar, &[0, 1, 2]);
                assert_eq!(ar.evicted_ranks(), vec![3]);
                assert_eq!(ar.live_ranks(), vec![0, 1, 2]);
                for _ in 0..5 {
                    let out = ar.allreduce(&TypedBuf::from(vec![me; 8]));
                    sums.push(out.data.as_f32().unwrap()[0]);
                }
            }
            ctx.finalize();
            (fence, sums)
        });
        for (rank, (fence, sums)) in out.iter().enumerate() {
            for (r, s) in sums.iter().enumerate() {
                let want = if r < 5 { 10.0 } else { 6.0 }; // 1+2+3+4 vs 1+2+3
                assert_eq!(*s, want, "rank {rank} round {r}");
            }
            if rank != 3 {
                assert_eq!(*fence, 5, "rank {rank} fence");
                assert_eq!(sums.len(), 10);
            } else {
                assert_eq!(sums.len(), 5);
            }
        }
    }

    #[test]
    fn admit_reverses_eviction_and_the_world_grows_back() {
        // Four ranks in lockstep; ranks 0-2 evict rank 3, run three
        // shrunken rounds, then all four run the admission fence and the
        // full-world sums come back. The evictee applies the eviction
        // segment locally (it cannot join the survivors' consensus, but
        // under Full-quorum lockstep the fence is deterministic) so its
        // membership epoch lines up for the admission collective ids.
        let p = 4;
        let out = World::launch(WorldConfig::instant(p), move |c| {
            let ctx = RankCtx::new(c);
            let mut ar = ctx.partial_allreduce(
                DType::F32,
                8,
                ReduceOp::Sum,
                QuorumPolicy::Full,
                PartialOpts::default(),
            );
            let me = ctx.rank() as f32 + 1.0; // contributions 1..=4
            let mut sums = Vec::new();
            for _ in 0..5 {
                let out = ar.allreduce(&TypedBuf::from(vec![me; 8]));
                sums.push(out.data.as_f32().unwrap()[0]);
            }
            // Full quorum leaves every rank at next_round = 5: the fence
            // the survivors will agree on is exactly 5.
            if ctx.rank() == 3 {
                ar.set_live_from(5, &[0, 1, 2]);
            } else {
                let fence = ctx.reconfigure(&mut ar, &[0, 1, 2]);
                assert_eq!(fence, 5);
                for _ in 0..3 {
                    let out = ar.allreduce(&TypedBuf::from(vec![me; 8]));
                    sums.push(out.data.as_f32().unwrap()[0]);
                }
            }
            // Shrunken Full-quorum lockstep again: survivors sit at
            // next_round = 8, the evictee still at 5 — the admission
            // fence must be the max, 8.
            let fence = ctx.reconfigure(&mut ar, &[0, 1, 2, 3]);
            assert_eq!(fence, 8, "rank {}", ctx.rank());
            assert_eq!(ar.live_ranks(), vec![0, 1, 2, 3]);
            assert_eq!(ar.evicted_ranks(), Vec::<usize>::new());
            assert_eq!(ar.eviction_epoch(), 2);
            assert!(ctx.membership().live().contains(&3));
            for _ in 0..5 {
                let out = ar.allreduce(&TypedBuf::from(vec![me; 8]));
                sums.push(out.data.as_f32().unwrap()[0]);
            }
            ctx.finalize();
            sums
        });
        for (rank, sums) in out.iter().enumerate() {
            if rank == 3 {
                // 5 full rounds, then 5 post-admission full rounds.
                assert_eq!(sums.len(), 10, "rank {rank}");
                for (r, s) in sums.iter().enumerate() {
                    assert_eq!(*s, 10.0, "rank {rank} round {r}");
                }
            } else {
                // 5 full, 3 shrunken (1+2+3 = 6), 5 grown-back full.
                assert_eq!(sums.len(), 13, "rank {rank}");
                for (r, s) in sums.iter().enumerate() {
                    let want = if (5..8).contains(&r) { 6.0 } else { 10.0 };
                    assert_eq!(*s, want, "rank {rank} round {r}");
                }
            }
        }
    }

    #[test]
    fn changes_at_one_fence_never_reuse_consensus_ids() {
        // Two evictions land on the same fence (5), then everyone is
        // re-admitted with rank 0 late to the admission fence. Each
        // change must take fresh consensus ids: reusing the second
        // eviction's ids would let rank 0's stale fence state drop its
        // peers' round-0 fence messages as late, and the admission
        // would never complete.
        let p = 4;
        let world = std::thread::spawn(move || {
            World::launch(WorldConfig::instant(p), move |c| {
                let ctx = RankCtx::new(c);
                let mut ar = ctx.partial_allreduce(
                    DType::F32,
                    8,
                    ReduceOp::Sum,
                    QuorumPolicy::Full,
                    PartialOpts::default(),
                );
                let me = ctx.rank() as f32 + 1.0; // contributions 1..=4
                for _ in 0..5 {
                    ar.allreduce(&TypedBuf::from(vec![me; 8]));
                }
                // Full-quorum lockstep: every fence below is exactly 5,
                // so ranks outside a change can apply it locally.
                match ctx.rank() {
                    3 => ar.set_live_from(5, &[0, 1, 2]),
                    _ => assert_eq!(ctx.reconfigure(&mut ar, &[0, 1, 2]), 5),
                }
                match ctx.rank() {
                    2 | 3 => ar.set_live_from(5, &[0, 1]),
                    _ => assert_eq!(ctx.reconfigure(&mut ar, &[0, 1]), 5),
                }
                if ctx.rank() == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(300));
                }
                let fence = ctx.reconfigure(&mut ar, &[0, 1, 2, 3]);
                assert_eq!(ar.eviction_epoch(), 3);
                let out = ar.allreduce(&TypedBuf::from(vec![me; 8]));
                ctx.finalize();
                (fence, out.data.as_f32().unwrap()[0])
            })
        });
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
        while !world.is_finished() {
            assert!(
                std::time::Instant::now() < deadline,
                "the admission fence deadlocked"
            );
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        let out = world
            .join()
            .unwrap_or_else(|e| std::panic::resume_unwind(e));
        for (rank, (fence, sum)) in out.iter().enumerate() {
            assert_eq!(*fence, 5, "rank {rank} fence");
            assert_eq!(*sum, 10.0, "rank {rank} sum");
        }
    }

    #[test]
    fn finalize_is_clean_under_skew() {
        // Heavily skewed ranks finalize without deadlock or panic.
        let p = 8;
        World::launch(WorldConfig::instant(p), move |c| {
            let ctx = RankCtx::new(c);
            let mut ar = ctx.sync_allreduce(DType::F32, 16, ReduceOp::Sum, None);
            std::thread::sleep(std::time::Duration::from_millis(
                (ctx.rank() as u64 * 13) % 50,
            ));
            let _ = ar.allreduce(&TypedBuf::zeros(DType::F32, 16));
            ctx.finalize();
        });
    }
}
