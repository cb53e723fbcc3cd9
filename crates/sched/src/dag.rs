//! Pure dependency-firing state machine for one schedule instance.
//!
//! `DagState` tracks which operations have fired, which AND/OR dependencies
//! are satisfied, whether the round was internally activated, and which
//! receives have their message. It performs **no** I/O and owns **no**
//! buffers — the engine drives it with events and executes the effects —
//! which makes the consumable-op and dependency semantics directly
//! property-testable.
//!
//! The central invariant (the paper's "consumable operations"): every op is
//! reported fireable at most once, and only when
//! 1. its AND/OR dependencies are satisfied, and
//! 2. its kind-specific trigger holds (receives need their message,
//!    [`OpKind::InternalGate`] needs the application's activation).

use crate::op::{DepMode, OpId, OpKind, Schedule};

/// Per-op flag bits of [`DagState::flags`].
const FIRED: u8 = 1;
/// Handed out as fireable (to avoid double-enqueue on OR fan-in).
const QUEUED: u8 = 1 << 1;
/// Some OR dependency fired.
const OR_SATISFIED: u8 = 1 << 2;
/// A receive's message arrived.
const ARRIVED: u8 = 1 << 3;

/// Runtime firing state of one schedule instance: one flag byte and one
/// AND countdown per op, both started from the schedule's precomputed
/// tables, so creating an instance is two copies and no scan.
#[derive(Debug)]
pub struct DagState {
    flags: Vec<u8>,
    and_remaining: Vec<u32>,
    activated: bool,
}

impl DagState {
    /// Create the state and push the ops fireable immediately at instance
    /// creation (dependency-free ops that are neither receives nor
    /// internal gates) onto `ready`.
    pub fn new(sched: &Schedule, ready: &mut Vec<OpId>) -> Self {
        let mut flags = vec![0; sched.ops.len()];
        for &id in sched.roots() {
            flags[id] = QUEUED;
        }
        ready.extend_from_slice(sched.roots());
        DagState {
            flags,
            and_remaining: sched.dep_counts().to_vec(),
            activated: false,
        }
    }

    fn has(&self, id: OpId, flag: u8) -> bool {
        self.flags[id] & flag != 0
    }

    fn deps_satisfied(&self, sched: &Schedule, id: OpId) -> bool {
        let op = &sched.ops[id];
        if op.deps.is_empty() {
            return true;
        }
        match op.dep_mode {
            DepMode::And => self.and_remaining[id] == 0,
            DepMode::Or => self.has(id, OR_SATISFIED),
        }
    }

    fn fireable(&self, sched: &Schedule, id: OpId) -> bool {
        if self.has(id, FIRED | QUEUED) || !self.deps_satisfied(sched, id) {
            return false;
        }
        match sched.ops[id].kind {
            OpKind::Recv { .. } => self.has(id, ARRIVED),
            OpKind::InternalGate => self.activated,
            _ => true,
        }
    }

    /// If `id` is fireable, mark it queued and push it onto `ready`.
    fn offer(&mut self, sched: &Schedule, id: OpId, ready: &mut Vec<OpId>) {
        if self.fireable(sched, id) {
            self.flags[id] |= QUEUED;
            ready.push(id);
        }
    }

    /// Has this op fired?
    pub fn is_fired(&self, id: OpId) -> bool {
        self.has(id, FIRED)
    }

    /// Has receive op `id`'s message (or its null stand-in) arrived?
    pub fn has_arrived(&self, id: OpId) -> bool {
        self.has(id, ARRIVED)
    }

    /// Has the application internally activated this instance?
    pub fn is_activated(&self) -> bool {
        self.activated
    }

    /// Record the application's internal activation and push newly
    /// fireable ops (typically the internal gates) onto `ready`.
    /// Idempotent.
    pub fn on_activate(&mut self, sched: &Schedule, ready: &mut Vec<OpId>) {
        if self.activated {
            return;
        }
        self.activated = true;
        for &id in sched.gates() {
            self.offer(sched, id, ready);
        }
    }

    /// Record arrival of the message for receive op `id`. Returns `true`
    /// if the receive became fireable (caller should then fire it).
    /// Duplicate arrivals for the same op return `false` — the duplicate
    /// activation messages of multi-initiator solo collectives are
    /// absorbed here.
    pub fn on_message(&mut self, sched: &Schedule, id: OpId) -> bool {
        debug_assert!(matches!(sched.ops[id].kind, OpKind::Recv { .. }));
        if self.has(id, ARRIVED | FIRED) {
            return false;
        }
        self.flags[id] |= ARRIVED;
        if self.fireable(sched, id) {
            self.flags[id] |= QUEUED;
            true
        } else {
            false
        }
    }

    /// Record that the engine executed op `id`'s effect. Propagates to
    /// dependents and pushes any that became fireable onto `ready`.
    ///
    /// Panics if the op already fired — the consumable-op invariant is a
    /// hard error to violate, not a recoverable condition.
    pub fn mark_fired(&mut self, sched: &Schedule, id: OpId, ready: &mut Vec<OpId>) {
        assert!(
            !self.is_fired(id),
            "op {id} fired twice (consumable invariant)"
        );
        self.flags[id] |= FIRED;
        for &dep in &sched.dependents[id] {
            match sched.ops[dep].dep_mode {
                DepMode::And => {
                    debug_assert!(self.and_remaining[dep] > 0);
                    self.and_remaining[dep] -= 1;
                }
                DepMode::Or => self.flags[dep] |= OR_SATISFIED,
            }
            self.offer(sched, dep, ready);
        }
    }

    /// Number of ops that have fired (diagnostics).
    pub fn fired_count(&self) -> usize {
        self.flags.iter().filter(|&&f| f & FIRED != 0).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::ScheduleBuilder;

    /// Drive a DAG to quiescence, firing everything reported fireable.
    /// Returns the firing order.
    fn run_to_quiescence(sched: &Schedule, st: &mut DagState, mut queue: Vec<OpId>) -> Vec<OpId> {
        let mut order = Vec::new();
        while let Some(id) = queue.pop() {
            order.push(id);
            st.mark_fired(sched, id, &mut queue);
        }
        order
    }

    /// A fresh state plus the ops ready at creation.
    fn start(sched: &Schedule) -> (DagState, Vec<OpId>) {
        let mut ready = Vec::new();
        let st = DagState::new(sched, &mut ready);
        (st, ready)
    }

    fn activate(sched: &Schedule, st: &mut DagState) -> Vec<OpId> {
        let mut ready = Vec::new();
        st.on_activate(sched, &mut ready);
        ready
    }

    fn fire(sched: &Schedule, st: &mut DagState, id: OpId) -> Vec<OpId> {
        let mut ready = Vec::new();
        st.mark_fired(sched, id, &mut ready);
        ready
    }

    fn nop_chain() -> Schedule {
        let mut b = ScheduleBuilder::new();
        b.slots(1);
        let a = b.op(OpKind::Nop, vec![]);
        let c = b.op(OpKind::Nop, vec![a]);
        let d = b.op(OpKind::Nop, vec![c]);
        b.completion(d);
        b.build()
    }

    #[test]
    fn chain_fires_in_order() {
        let s = nop_chain();
        let (mut st, ready) = start(&s);
        let order = run_to_quiescence(&s, &mut st, ready);
        assert_eq!(order, vec![0, 1, 2]);
        assert_eq!(st.fired_count(), 3);
    }

    #[test]
    fn internal_gate_waits_for_activation() {
        let mut b = ScheduleBuilder::new();
        b.slots(1);
        let g = b.op(OpKind::InternalGate, vec![]);
        let n = b.op(OpKind::Nop, vec![g]);
        b.completion(n);
        let s = b.build();
        let (mut st, ready) = start(&s);
        assert!(ready.is_empty(), "gate must not fire at creation");
        let ready = activate(&s, &mut st);
        assert_eq!(ready, vec![g]);
        let order = run_to_quiescence(&s, &mut st, ready);
        assert_eq!(order, vec![g, n]);
    }

    #[test]
    fn activation_is_idempotent() {
        let mut b = ScheduleBuilder::new();
        b.slots(1);
        let g = b.op(OpKind::InternalGate, vec![]);
        b.completion(g);
        let s = b.build();
        let (mut st, _) = start(&s);
        assert_eq!(activate(&s, &mut st), vec![g]);
        assert!(activate(&s, &mut st).is_empty());
        fire(&s, &mut st, g);
        assert!(activate(&s, &mut st).is_empty());
    }

    #[test]
    fn recv_needs_both_message_and_deps() {
        let mut b = ScheduleBuilder::new();
        b.slots(2);
        let pre = b.op(OpKind::Nop, vec![]);
        let r = b.op(
            OpKind::Recv {
                peer: 1,
                sem: 0,
                into: Some(1),
            },
            vec![pre],
        );
        b.completion(r);
        let s = b.build();

        // Message first, dep second.
        let (mut st, ready) = start(&s);
        assert_eq!(ready, vec![pre]);
        assert!(!st.on_message(&s, r), "dep not yet satisfied");
        let newly = fire(&s, &mut st, pre);
        assert_eq!(newly, vec![r], "dep firing unlocks buffered arrival");

        // Dep first, message second.
        let (mut st, ready) = start(&s);
        let newly = run_to_quiescence(&s, &mut st, ready);
        assert_eq!(newly, vec![pre]);
        assert!(st.on_message(&s, r));
    }

    #[test]
    fn duplicate_message_is_absorbed() {
        let mut b = ScheduleBuilder::new();
        b.slots(1);
        let r = b.op(
            OpKind::Recv {
                peer: 0,
                sem: 0,
                into: None,
            },
            vec![],
        );
        b.completion(r);
        let s = b.build();
        let (mut st, _) = start(&s);
        assert!(st.on_message(&s, r));
        assert!(!st.on_message(&s, r), "duplicate must be absorbed");
        fire(&s, &mut st, r);
        assert!(!st.on_message(&s, r), "post-fire message must be absorbed");
    }

    #[test]
    fn or_fan_in_fires_once() {
        // Two sources, one OR sink: sink fireable after the first source,
        // not re-queued after the second.
        let mut b = ScheduleBuilder::new();
        b.slots(1);
        let s1 = b.op(OpKind::Nop, vec![]);
        let s2 = b.op(OpKind::Nop, vec![]);
        let sink = b.op_or(OpKind::Nop, vec![s1, s2]);
        b.completion(sink);
        let s = b.build();
        let (mut st, ready) = start(&s);
        assert_eq!(ready.len(), 2);
        let r1 = fire(&s, &mut st, s1);
        assert_eq!(r1, vec![sink]);
        let r2 = fire(&s, &mut st, s2);
        assert!(r2.is_empty(), "sink must not be handed out twice");
    }

    #[test]
    #[should_panic(expected = "consumable")]
    fn double_fire_panics() {
        let s = nop_chain();
        let (mut st, _) = start(&s);
        fire(&s, &mut st, 0);
        fire(&s, &mut st, 0);
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        /// Random acyclic schedule of NOPs: each op may depend (AND or OR)
        /// on a subset of earlier ops.
        fn arb_schedule() -> impl Strategy<Value = Schedule> {
            (2usize..40).prop_flat_map(|n| {
                let deps = proptest::collection::vec(
                    (
                        proptest::collection::vec(0usize..n.max(1), 0..4),
                        any::<bool>(),
                    ),
                    n,
                );
                deps.prop_map(move |spec| {
                    let mut b = ScheduleBuilder::new();
                    b.slots(1);
                    for (i, (ds, or)) in spec.iter().enumerate() {
                        let valid: Vec<OpId> = ds.iter().copied().filter(|&d| d < i).collect();
                        if *or && !valid.is_empty() {
                            b.op_or(OpKind::Nop, valid);
                        } else {
                            b.op(OpKind::Nop, valid);
                        }
                    }
                    b.completion(0);
                    b.build()
                })
            })
        }

        proptest! {
            /// Liveness + consumability: on any acyclic NOP DAG, driving to
            /// quiescence fires every op exactly once, and never fires an
            /// op before its dependencies are satisfied.
            #[test]
            fn all_ops_fire_exactly_once(s in arb_schedule()) {
                let (mut st, ready) = start(&s);
                let order = run_to_quiescence(&s, &mut st, ready);
                prop_assert_eq!(order.len(), s.ops.len());
                // Uniqueness.
                let mut seen = vec![false; s.ops.len()];
                for &id in &order {
                    prop_assert!(!seen[id]);
                    seen[id] = true;
                }
                // Dependency order respected.
                let mut pos = vec![0usize; s.ops.len()];
                for (k, &id) in order.iter().enumerate() {
                    pos[id] = k;
                }
                for (i, op) in s.ops.iter().enumerate() {
                    if op.deps.is_empty() { continue; }
                    match op.dep_mode {
                        DepMode::And => {
                            for &d in &op.deps {
                                prop_assert!(pos[d] < pos[i],
                                    "AND dep {} must fire before {}", d, i);
                            }
                        }
                        DepMode::Or => {
                            prop_assert!(op.deps.iter().any(|&d| pos[d] < pos[i]),
                                "some OR dep of {} must fire before it", i);
                        }
                    }
                }
            }
        }
    }
}
