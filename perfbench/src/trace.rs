//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark's own code around its calls into
//! each layer (the program's flight recorder stays off). Each rank keeps
//! its own [`Tracer`]; spans of one round share the round number, and a
//! child names its parent by index. Nothing is written until the run
//! ends.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::time::Instant;

/// Span names, one per layer boundary the benchmark crosses. A span's
/// name is an index into this table.
pub const SPAN_NAMES: [&str; 15] = [
    "perfbench.round",
    "pcoll.partial.allreduce_owned",
    "pcoll.sync.allreduce",
    "perfbench.check",
    "eager_sgd.trainer.step",
    "datagen.sample",
    "dnn.grad_step",
    "eager_sgd.trainer.compute_and_inject",
    "dnn.write_grads",
    "pcoll.partial.allreduce_in_trainer",
    "dnn.optimizer_delta",
    "dnn.apply_delta",
    "pcoll.sim.window",
    "pcoll.sim.harness_new",
    "pcoll.sim.execute",
];

pub const ROUND: u16 = 0;
pub const PARTIAL_ALLREDUCE: u16 = 1;
pub const SYNC_ALLREDUCE: u16 = 2;
pub const CHECK: u16 = 3;
pub const TRAINER_STEP: u16 = 4;
pub const SAMPLE: u16 = 5;
pub const GRAD_STEP: u16 = 6;
pub const COMPUTE_AND_INJECT: u16 = 7;
pub const WRITE_GRADS: u16 = 8;
pub const TRAINER_ALLREDUCE: u16 = 9;
pub const OPT_DELTA: u16 = 10;
pub const APPLY_DELTA: u16 = 11;
pub const SIM_WINDOW: u16 = 12;
pub const SIM_NEW: u16 = 13;
pub const SIM_EXECUTE: u16 = 14;

/// Parent index meaning "no parent".
pub const NO_PARENT: u32 = u32::MAX;

/// TCP workers send their spans back over the rendezvous connection.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Span {
    pub name: u16,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub round: u64,
}

/// One rank's span buffer. A disabled tracer records nothing and costs
/// one branch per call.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::with_capacity(if on { 1 << 16 } else { 0 }),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: u16, round: u64, parent: u32) -> u32 {
        if !self.on {
            return NO_PARENT;
        }
        let start_ns = self.now_ns();
        self.push(name, start_ns, start_ns, round, parent)
    }

    pub fn close(&mut self, id: u32) {
        if self.on && id != NO_PARENT {
            let end = self.now_ns();
            self.spans[id as usize].end_ns = end;
        }
    }

    /// Record a span whose bounds were taken elsewhere.
    pub fn push(&mut self, name: u16, start_ns: u64, end_ns: u64, round: u64, parent: u32) -> u32 {
        if !self.on {
            return NO_PARENT;
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            round,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Per-name totals over every rank's spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    pub count: u64,
    pub total_ns: u64,
    /// Duration minus the part of it that child spans cover.
    pub self_ns: u64,
}

/// Self time per span name: each span's duration minus the union of its
/// children's intervals, summed over spans and ranks.
pub fn self_times(per_rank: &[Vec<Span>]) -> BTreeMap<&'static str, LayerTime> {
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for spans in per_rank {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for s in spans {
            if let Some(c) = children.get_mut(s.parent as usize) {
                c.push((s.start_ns, s.end_ns));
            }
        }
        for (s, kids) in spans.iter().zip(children.iter_mut()) {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let covered = union_len(kids, s.start_ns, s.end_ns);
            let e = out.entry(SPAN_NAMES[s.name as usize]).or_default();
            e.count += 1;
            e.total_ns += dur;
            e.self_ns += dur - covered.min(dur);
        }
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn union_len(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(cursor), b.min(hi));
        if b > a {
            covered += b - a;
            cursor = b;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: u16, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            round: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(ROUND, 0, 100, NO_PARENT),
            span(PARTIAL_ALLREDUCE, 10, 50, 0),
            // Overlaps the first child: counted once.
            span(CHECK, 40, 70, 0),
        ];
        let t = self_times(&[spans]);
        assert_eq!(t["perfbench.round"].self_ns, 40);
        assert_eq!(t["perfbench.round"].total_ns, 100);
        assert_eq!(t["pcoll.partial.allreduce_owned"].self_ns, 40);
        assert_eq!(t["perfbench.check"].count, 1);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.open(ROUND, 0, NO_PARENT);
        t.close(id);
        assert!(t.into_spans().is_empty());
    }
}
