//! Schedule operations and the schedule builder.
//!
//! A [`Schedule`] is the static description of one rank's part of one
//! collective round: a vector of [`Op`]s plus dependency edges. Builders in
//! the `pcoll` crate generate schedules SPMD-style — every rank constructs
//! the same structure parameterized by its own rank — so a send's `(peer,
//! sem)` pair on one rank always has a matching receive with the same `sem`
//! on the peer.

use pcoll_comm::{Rank, ReduceOp};

/// Index of an operation within its schedule.
pub type OpId = usize;

/// Index of a buffer slot in the instance's buffer arena.
pub type Slot = usize;

/// Slot 0 by convention holds this rank's *contribution* — whatever the
/// template snapshot provided at instance creation (fresh gradient, stale
/// gradient, or G_null). Reduction schedules accumulate into it.
pub const CONTRIB_SLOT: Slot = 0;

/// Dependency satisfaction logic (§4.1.1: operations "can be dependent on
/// zero, one, or more other operations (with *and* or *or* logic)").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DepMode {
    /// Every dependency must have fired.
    And,
    /// At least one dependency must have fired.
    Or,
}

/// The operation kinds of §4.1.1: point-to-point communications, simple
/// computations between two arrays, and NOPs — plus the internal-activation
/// gate that models "the process reaches the collective function call".
#[derive(Debug, Clone, PartialEq)]
pub enum OpKind {
    /// Send a copy of buffer `src` to `peer` under semantic tag `sem`.
    SendData { peer: Rank, sem: u32, src: Slot },
    /// Send a zero-payload control message (activation broadcast hop).
    SendCtl { peer: Rank, sem: u32 },
    /// Receive the message `(peer, sem)`. If `into` is `Some`, the payload
    /// moves into that slot; control receives use `None`.
    Recv {
        peer: Rank,
        sem: u32,
        into: Option<Slot>,
    },
    /// Elementwise `bufs[dst] = bufs[dst] ⊕ bufs[src]`.
    Combine { op: ReduceOp, src: Slot, dst: Slot },
    /// `bufs[dst] = bufs[src].clone()`.
    Copy { src: Slot, dst: Slot },
    /// `bufs[dst] = zero-copy view of bufs[src][start .. start + len]` —
    /// the chunk extraction of a segmented schedule. A reduction into the
    /// viewed chunk materializes it with one fused `out = a ⊕ b` pass
    /// into a recycled buffer (never a whole-tensor copy-on-write), so
    /// extraction itself moves no bytes.
    SliceView {
        src: Slot,
        dst: Slot,
        start: usize,
        len: usize,
    },
    /// Write the whole of `bufs[src]` into `bufs[dst][dst_start ..]`,
    /// materializing `dst` as `dst_len` *uninitialized* (scratch-pool)
    /// elements first if the slot is empty — the segmented allgather's
    /// assembly step. Schedules using an empty-slot destination must
    /// cover every element of `dst` with `CopyAt` writes before the
    /// slot is observed. A wire-borne source decodes straight into the
    /// destination range.
    CopyAt {
        src: Slot,
        dst: Slot,
        dst_start: usize,
        dst_len: usize,
    },
    /// Dependency junction; completes immediately when satisfied.
    Nop,
    /// Fires only once the application has internally activated this
    /// round (and deps, if any, are satisfied). The paper's "N0".
    InternalGate,
}

impl OpKind {
    /// Stable, allocation-free label for trace events and metrics keys.
    pub fn label(&self) -> &'static str {
        match self {
            OpKind::SendData { .. } => "SendData",
            OpKind::SendCtl { .. } => "SendCtl",
            OpKind::Recv { .. } => "Recv",
            OpKind::Combine { .. } => "Combine",
            OpKind::Copy { .. } => "Copy",
            OpKind::SliceView { .. } => "SliceView",
            OpKind::CopyAt { .. } => "CopyAt",
            OpKind::Nop => "Nop",
            OpKind::InternalGate => "InternalGate",
        }
    }
}

/// One vertex of the schedule DAG.
#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    pub kind: OpKind,
    pub deps: Vec<OpId>,
    pub dep_mode: DepMode,
}

/// A finalized, immutable schedule for one rank and one round.
///
/// Besides the ops it carries every per-schedule index the engine needs
/// to instantiate and route it, computed once by
/// [`ScheduleBuilder::build`]: a persistent collective that hands out the
/// same `Arc<Schedule>` every round pays for them once, and an instance
/// then costs only its per-op firing state.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    pub ops: Vec<Op>,
    /// Reverse edges, precomputed: `dependents[i]` lists ops that depend
    /// on op `i`.
    pub dependents: Vec<Vec<OpId>>,
    /// Number of buffer slots the instance arena must hold.
    pub nslots: usize,
    /// The op whose firing marks the collective complete on this rank.
    pub completion: OpId,
    /// Slot whose contents are delivered as the result on completion
    /// (`None` for data-free collectives such as barriers).
    pub result_slot: Option<Slot>,
    /// Receive ops sorted by their matching key `(peer, sem)`: the route
    /// for an arriving message (see [`Schedule::recv_op`]).
    recv_index: Vec<((Rank, u32), OpId)>,
    /// The [`OpKind::InternalGate`] ops, fired by internal activation.
    gates: Vec<OpId>,
    /// Each op's dependency count: the initial AND countdown.
    dep_counts: Vec<u32>,
    /// Ops fireable the moment an instance is created: no dependencies,
    /// and neither a receive nor a gate.
    roots: Vec<OpId>,
}

impl Schedule {
    /// Sanity-check structural invariants; called by the builder and
    /// available to tests/property checks.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.ops.len();
        if self.completion >= n {
            return Err(format!(
                "completion op {} out of range {n}",
                self.completion
            ));
        }
        for (i, op) in self.ops.iter().enumerate() {
            for &d in &op.deps {
                if d >= n {
                    return Err(format!("op {i} depends on out-of-range op {d}"));
                }
            }
            let slot_ok = |s: Slot| s < self.nslots;
            match &op.kind {
                OpKind::SendData { src, .. } if !slot_ok(*src) => {
                    return Err(format!("op {i} sends from bad slot {src}"));
                }
                OpKind::Recv { into: Some(s), .. } if !slot_ok(*s) => {
                    return Err(format!("op {i} receives into bad slot {s}"));
                }
                OpKind::Combine { src, dst, .. } | OpKind::Copy { src, dst } => {
                    if !slot_ok(*src) || !slot_ok(*dst) {
                        return Err(format!("op {i} uses bad slots {src}/{dst}"));
                    }
                    if src == dst {
                        return Err(format!("op {i} combines a slot with itself"));
                    }
                }
                OpKind::SliceView { src, dst, .. } | OpKind::CopyAt { src, dst, .. } => {
                    if !slot_ok(*src) || !slot_ok(*dst) {
                        return Err(format!("op {i} uses bad slots {src}/{dst}"));
                    }
                    if src == dst {
                        return Err(format!("op {i} slices a slot onto itself"));
                    }
                }
                _ => {}
            }
        }
        // Routing needs every message key to name at most one receive.
        if let Some(w) = self.recv_index.windows(2).find(|w| w[0].0 == w[1].0) {
            return Err(format!(
                "ops {} and {} both receive {:?}",
                w[0].1, w[1].1, w[0].0
            ));
        }
        // Cycle check via Kahn's algorithm on dependency edges.
        let mut indeg: Vec<usize> = self.ops.iter().map(|o| o.deps.len()).collect();
        let mut queue: Vec<OpId> = indeg
            .iter()
            .enumerate()
            .filter(|(_, &d)| d == 0)
            .map(|(i, _)| i)
            .collect();
        let mut seen = 0;
        while let Some(i) = queue.pop() {
            seen += 1;
            for &j in &self.dependents[i] {
                indeg[j] -= 1;
                if indeg[j] == 0 {
                    queue.push(j);
                }
            }
        }
        if seen != n {
            return Err("dependency cycle detected".into());
        }
        Ok(())
    }

    /// Rewrite every op's peer rank through `map` (`map[virtual] = real`).
    ///
    /// Post-eviction schedules are built SPMD over the *live* population —
    /// a compacted virtual world of `map.len()` ranks — and then lifted
    /// back onto the real rank numbering with this call, so every builder
    /// stays oblivious to holes in the rank space.
    pub fn remap_peers(&mut self, map: &[Rank]) {
        for op in &mut self.ops {
            match &mut op.kind {
                OpKind::SendData { peer, .. }
                | OpKind::SendCtl { peer, .. }
                | OpKind::Recv { peer, .. } => {
                    *peer = map[*peer];
                }
                _ => {}
            }
        }
        self.recv_index = recv_index(&self.ops);
    }

    /// Receive operations with their matching key, sorted by key: the
    /// engine's routing table for arriving messages.
    pub fn recv_index(&self) -> &[((Rank, u32), OpId)] {
        &self.recv_index
    }

    /// The receive op matching a message from `peer` under `sem`.
    pub(crate) fn recv_op(&self, peer: Rank, sem: u32) -> Option<OpId> {
        self.recv_index
            .binary_search_by_key(&(peer, sem), |&(key, _)| key)
            .ok()
            .map(|i| self.recv_index[i].1)
    }

    /// The internal-activation gates ([`OpKind::InternalGate`] ops).
    pub(crate) fn gates(&self) -> &[OpId] {
        &self.gates
    }

    /// Every op's dependency count, in op order.
    pub(crate) fn dep_counts(&self) -> &[u32] {
        &self.dep_counts
    }

    /// Ops fireable at instance creation: dependency-free ops that are
    /// neither receives nor internal gates.
    pub(crate) fn roots(&self) -> &[OpId] {
        &self.roots
    }
}

/// The receive ops of `ops` keyed by `(peer, sem)`, sorted by key.
fn recv_index(ops: &[Op]) -> Vec<((Rank, u32), OpId)> {
    let mut index: Vec<_> = ops
        .iter()
        .enumerate()
        .filter_map(|(i, op)| match op.kind {
            OpKind::Recv { peer, sem, .. } => Some(((peer, sem), i)),
            _ => None,
        })
        .collect();
    index.sort_unstable();
    index
}

/// Convenience builder producing a validated [`Schedule`].
#[derive(Debug, Default)]
pub struct ScheduleBuilder {
    ops: Vec<Op>,
    nslots: usize,
    completion: Option<OpId>,
    result_slot: Option<Slot>,
}

impl ScheduleBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserve `n` buffer slots (slot 0 is the contribution by convention).
    pub fn slots(&mut self, n: usize) -> &mut Self {
        self.nslots = self.nslots.max(n);
        self
    }

    /// Add an op with AND-dependencies (the common case).
    pub fn op(&mut self, kind: OpKind, deps: Vec<OpId>) -> OpId {
        self.push(kind, deps, DepMode::And)
    }

    /// Add an op with OR-dependencies.
    pub fn op_or(&mut self, kind: OpKind, deps: Vec<OpId>) -> OpId {
        self.push(kind, deps, DepMode::Or)
    }

    fn push(&mut self, kind: OpKind, deps: Vec<OpId>, dep_mode: DepMode) -> OpId {
        let id = self.ops.len();
        self.ops.push(Op {
            kind,
            deps,
            dep_mode,
        });
        id
    }

    /// Mark the completion op.
    pub fn completion(&mut self, id: OpId) -> &mut Self {
        self.completion = Some(id);
        self
    }

    /// Mark the result slot.
    pub fn result_slot(&mut self, s: Slot) -> &mut Self {
        self.result_slot = Some(s);
        self
    }

    /// Finalize: compute reverse edges and validate.
    pub fn build(self) -> Schedule {
        let mut dependents = vec![Vec::new(); self.ops.len()];
        for (i, op) in self.ops.iter().enumerate() {
            for &d in &op.deps {
                dependents[d].push(i);
            }
        }
        let gates = (0..self.ops.len())
            .filter(|&i| matches!(self.ops[i].kind, OpKind::InternalGate))
            .collect();
        let roots = (0..self.ops.len())
            .filter(|&i| {
                let op = &self.ops[i];
                op.deps.is_empty() && !matches!(op.kind, OpKind::Recv { .. } | OpKind::InternalGate)
            })
            .collect();
        let sched = Schedule {
            dependents,
            nslots: self.nslots,
            completion: self.completion.expect("schedule needs a completion op"),
            result_slot: self.result_slot,
            recv_index: recv_index(&self.ops),
            gates,
            dep_counts: self.ops.iter().map(|o| o.deps.len() as u32).collect(),
            roots,
            ops: self.ops,
        };
        if let Err(e) = sched.validate() {
            panic!("invalid schedule: {e}");
        }
        sched
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_produces_valid_schedule() {
        let mut b = ScheduleBuilder::new();
        b.slots(2);
        let gate = b.op(OpKind::InternalGate, vec![]);
        let send = b.op(
            OpKind::SendData {
                peer: 1,
                sem: 0,
                src: 0,
            },
            vec![gate],
        );
        let recv = b.op(
            OpKind::Recv {
                peer: 1,
                sem: 0,
                into: Some(1),
            },
            vec![],
        );
        let comb = b.op(
            OpKind::Combine {
                op: ReduceOp::Sum,
                src: 1,
                dst: 0,
            },
            vec![send, recv],
        );
        b.completion(comb).result_slot(0);
        let s = b.build();
        assert_eq!(s.ops.len(), 4);
        assert_eq!(s.dependents[gate], vec![send]);
        assert!(s.validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn cycle_is_rejected() {
        let mut b = ScheduleBuilder::new();
        b.slots(1);
        // Manually wire a 2-cycle: op0 <- op1, op1 <- op0.
        let a = b.op(OpKind::Nop, vec![1]);
        let c = b.op(OpKind::Nop, vec![a]);
        b.completion(c);
        let _ = b.build();
    }

    #[test]
    #[should_panic(expected = "bad slot")]
    fn bad_slot_is_rejected() {
        let mut b = ScheduleBuilder::new();
        b.slots(1);
        let s = b.op(
            OpKind::SendData {
                peer: 0,
                sem: 0,
                src: 5,
            },
            vec![],
        );
        b.completion(s);
        let _ = b.build();
    }

    #[test]
    #[should_panic(expected = "itself")]
    fn self_combine_is_rejected() {
        let mut b = ScheduleBuilder::new();
        b.slots(1);
        let c = b.op(
            OpKind::Combine {
                op: ReduceOp::Sum,
                src: 0,
                dst: 0,
            },
            vec![],
        );
        b.completion(c);
        let _ = b.build();
    }

    #[test]
    #[should_panic(expected = "both receive")]
    fn duplicate_receive_key_is_rejected() {
        let mut b = ScheduleBuilder::new();
        b.slots(1);
        let recv = OpKind::Recv {
            peer: 1,
            sem: 3,
            into: None,
        };
        let r0 = b.op(recv.clone(), vec![]);
        let r1 = b.op(recv, vec![]);
        let n = b.op(OpKind::Nop, vec![r0, r1]);
        b.completion(n);
        let _ = b.build();
    }

    #[test]
    fn recv_index_lists_receives() {
        let mut b = ScheduleBuilder::new();
        b.slots(1);
        let r0 = b.op(
            OpKind::Recv {
                peer: 2,
                sem: 7,
                into: None,
            },
            vec![],
        );
        let n = b.op(OpKind::Nop, vec![r0]);
        b.completion(n);
        let s = b.build();
        assert_eq!(s.recv_index(), &[((2, 7), r0)]);
        assert_eq!(s.recv_op(2, 7), Some(r0));
        assert_eq!(s.recv_op(2, 8), None);
    }
}
