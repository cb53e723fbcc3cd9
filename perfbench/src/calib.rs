//! The reference job: fixed CPU work owned by the benchmark, timed in
//! the same run as a set-up so that the set-up's CPU time can be stated
//! at a fixed host speed.
//!
//! A shared host's speed for compute-bound code moves between runs
//! minutes apart, in CPU time as much as in wall time: on a 2-vCPU
//! Xeon VM `train_skew`'s set-up took 33–55 ms of CPU over twenty runs
//! of one code. A set-up's CPU time is therefore divided by
//! [`HostSpeed::factor`], the median time of this job in the run over
//! its [`NOMINAL_S`]; the same twenty set-ups then read 29–33.5 ms. The
//! job is a discrete-event loop over a binary heap, a hash map and
//! small allocations. Its code and inputs never change, so a change to
//! the program moves the figure and not the factor. It does not track
//! what moves the simulator's speed (in one set its time moved by 17 %
//! while the simulator's stayed flat), so `sim_p1024` reports plain CPU
//! time.

use crate::report::{cpu_s, CpuOf};
use crate::stats::median;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;

/// The job's nominal CPU time: figures are reported as on a host where
/// one run of the job takes this long.
pub const NOMINAL_S: f64 = 0.1;

fn lcg(x: u64) -> u64 {
    x.wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407)
}

/// Timed events for 1,024 ranks: pop the earliest, file a boxed record
/// under one of 16 keys of its rank, schedule the rank's next event.
fn event_loop(events: usize) -> usize {
    let mut heap = BinaryHeap::new();
    let mut state: HashMap<u64, Vec<Box<u64>>> = HashMap::new();
    let mut x = 7u64;
    for r in 0..1024u32 {
        x = lcg(x);
        heap.push(Reverse((x >> 44, r)));
    }
    for _ in 0..events {
        let Reverse((t, r)) = heap.pop().expect("one event per rank");
        x = lcg(x);
        let v = state.entry(u64::from(r) << 4 | (x >> 60)).or_default();
        v.push(Box::new(t));
        if v.len() > 6 {
            v.clear();
        }
        heap.push(Reverse((t + (x >> 44), (x >> 20) as u32 % 1024)));
    }
    state.len()
}

/// CPU seconds of one run of the reference job on this thread.
pub fn reference_s() -> f64 {
    let t0 = cpu_s(CpuOf::Thread);
    black_box(event_loop(EVENTS));
    cpu_s(CpuOf::Thread) - t0
}

const EVENTS: usize = 800_000;

/// Reference-job samples taken during one run.
#[derive(Debug, Default)]
pub struct HostSpeed {
    samples: Vec<f64>,
}

impl HostSpeed {
    /// Run the reference job once.
    pub fn sample(&mut self) {
        self.samples.push(reference_s());
    }

    /// How much slower than nominal the host ran: the median job time
    /// over [`NOMINAL_S`].
    pub fn factor(&self) -> f64 {
        median(&self.samples) / NOMINAL_S
    }

    pub fn reference_ms(&self) -> f64 {
        median(&self.samples) * 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reference_job_does_fixed_work() {
        assert_eq!(event_loop(5_000), event_loop(5_000));
        let mut h = HostSpeed::default();
        h.sample();
        h.sample();
        assert!(h.factor() > 0.0 && h.factor().is_finite());
    }
}
