//! Communication-topology math shared by the schedule builders: binomial
//! trees, recursive-doubling partners, and the per-round initiator /
//! candidate selection that majority and quorum collectives rely on.

use pcoll_comm::{CollId, Rank};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::cell::RefCell;

/// `log2(p)` for a power-of-two `p`.
pub fn log2_exact(p: usize) -> u32 {
    debug_assert!(p.is_power_of_two());
    p.trailing_zeros()
}

/// Partial collectives use the recursive-doubling / union-of-binomial-trees
/// structure of the paper's implementation and therefore require a
/// power-of-two world size (every evaluation in the paper uses 8, 32 or 64
/// ranks). Panics with a clear message otherwise.
pub fn require_power_of_two(p: usize) {
    assert!(
        p.is_power_of_two(),
        "partial collectives require a power-of-two number of ranks, got {p} \
         (the paper's recursive-doubling implementation has the same shape)"
    );
}

/// Highest set bit position of `x` (`x != 0`).
#[inline]
pub fn highest_bit(x: usize) -> u32 {
    usize::BITS - 1 - x.leading_zeros()
}

/// The recursive-doubling partner of `rank` at `level`.
#[inline]
pub fn rd_partner(rank: Rank, level: u32) -> Rank {
    rank ^ (1usize << level)
}

/// In the binomial broadcast rooted at `initiator` over `p` (power-of-two)
/// ranks, the level at which `rank` *receives* the message: the highest set
/// bit of the relative id. The initiator itself receives nowhere (`None`).
pub fn bcast_recv_level(initiator: Rank, rank: Rank) -> Option<u32> {
    let d = rank ^ initiator;
    if d == 0 {
        None
    } else {
        Some(highest_bit(d))
    }
}

/// Children of `rank` in the binomial tree rooted at `root` over `p`
/// power-of-two ranks: the ranks it forwards the broadcast to. A rank that
/// joins the tree at level `h = highest_bit(rank XOR root)` forwards at
/// every level above `h`; the root forwards at every level. Largest
/// subtree first (latency-optimal ordering).
pub fn binomial_children(root: Rank, rank: Rank, p: usize) -> Vec<Rank> {
    let levels = log2_exact(p);
    let d = rank ^ root;
    let from = if d == 0 { 0 } else { highest_bit(d) + 1 };
    (from..levels).rev().map(|j| rank ^ (1usize << j)).collect()
}

/// Parent of `rank` in the binomial tree rooted at `root` (None for root).
pub fn binomial_parent(root: Rank, rank: Rank) -> Option<Rank> {
    bcast_recv_level(root, rank).map(|h| rank ^ (1usize << h))
}

/// Deterministic per-round RNG shared by all ranks: seeded from the world
/// seed, the collective id, and the round number. "Consensus is achieved
/// by using the same seed for all the processes" (§4.2).
pub fn round_rng(seed: u64, coll: CollId, round: u64) -> ChaCha8Rng {
    // SplitMix-style mixing of the three components into one 64-bit seed.
    let mut z = seed
        .wrapping_add(0x9E3779B97F4A7C15u64.wrapping_mul(coll.0 as u64 + 1))
        .wrapping_add(round.wrapping_mul(0xBF58476D1CE4E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^= z >> 31;
    ChaCha8Rng::seed_from_u64(z)
}

/// Slots in each thread's memo of recent candidate draws.
const DRAW_MEMO_SLOTS: usize = 16;

/// `(seed, coll, round, p, m)`: everything a draw depends on.
type DrawKey = (u64, CollId, u64, usize, usize);

/// One memo slot: a key and the candidates it drew.
type DrawSlot = Option<(DrawKey, Vec<Rank>)>;

thread_local! {
    /// This thread's recent draws, direct-mapped by round and collective.
    static DRAW_MEMO: RefCell<[DrawSlot; DRAW_MEMO_SLOTS]> = RefCell::new(Default::default());
}

/// The `m` distinct candidate ranks for round `round` (initiator order for
/// chain quorums). All ranks compute the identical list: the first `m`
/// ranks of a shuffle of `0..p` driven by the round's stream.
///
/// The shuffle costs O(p). Ranks that share a thread — all `p` ranks of a
/// simulated world ask for every round — share it through a small
/// per-thread memo of recent draws, so a thread shuffles once per round
/// and collective rather than once per rank. The memo only caches a pure
/// function: the list, and so every seeded run, is the same either way.
pub fn round_candidates(seed: u64, coll: CollId, round: u64, p: usize, m: usize) -> Vec<Rank> {
    let key = (seed, coll, round, p, m.min(p));
    let slot = (round as usize ^ (coll.0 as usize).wrapping_mul(0x9E37_79B9)) % DRAW_MEMO_SLOTS;
    DRAW_MEMO.with(|memo| {
        let mut memo = memo.borrow_mut();
        if let Some((cached, drawn)) = &memo[slot] {
            if *cached == key {
                return drawn.clone();
            }
        }
        let drawn = draw_candidates(key);
        memo[slot] = Some((key, drawn.clone()));
        drawn
    })
}

/// The uncached draw behind [`round_candidates`].
fn draw_candidates((seed, coll, round, p, m): DrawKey) -> Vec<Rank> {
    let mut rng = round_rng(seed, coll, round);
    let mut ranks: Vec<Rank> = (0..p).collect();
    ranks.shuffle(&mut rng);
    ranks.truncate(m);
    ranks
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log2_of_powers() {
        assert_eq!(log2_exact(1), 0);
        assert_eq!(log2_exact(2), 1);
        assert_eq!(log2_exact(64), 6);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn non_power_of_two_rejected() {
        require_power_of_two(12);
    }

    #[test]
    fn recv_level_matches_highest_relative_bit() {
        assert_eq!(bcast_recv_level(0, 0), None);
        assert_eq!(bcast_recv_level(0, 1), Some(0));
        assert_eq!(bcast_recv_level(0, 6), Some(2));
        assert_eq!(bcast_recv_level(5, 5), None);
        assert_eq!(bcast_recv_level(5, 4), Some(0)); // 4^5 = 1
        assert_eq!(bcast_recv_level(5, 1), Some(2)); // 1^5 = 4
    }

    #[test]
    fn binomial_tree_covers_all_ranks_exactly_once() {
        // For every root in an 8-rank world, the union of children lists
        // plus the root covers each rank exactly once (it is a tree).
        let p = 8;
        for root in 0..p {
            let mut seen = vec![0usize; p];
            seen[root] += 1;
            for r in 0..p {
                for c in binomial_children(root, r, p) {
                    // c is a child of r iff r is c's parent.
                    if binomial_parent(root, c) == Some(r) {
                        seen[c] += 1;
                    }
                }
            }
            assert_eq!(seen, vec![1; p], "root {root}");
        }
    }

    #[test]
    fn parent_child_are_consistent() {
        let p = 16;
        for root in 0..p {
            for r in 0..p {
                if let Some(parent) = binomial_parent(root, r) {
                    assert!(
                        binomial_children(root, parent, p).contains(&r),
                        "rank {r} must appear among its parent {parent}'s children (root {root})"
                    );
                }
            }
        }
    }

    #[test]
    fn candidates_are_deterministic_and_distinct() {
        let a = round_candidates(42, CollId(1), 7, 32, 5);
        let b = round_candidates(42, CollId(1), 7, 32, 5);
        assert_eq!(a, b, "all ranks must agree");
        let mut dedup = a.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 5, "candidates must be distinct");
        let c = round_candidates(42, CollId(1), 8, 32, 5);
        assert_ne!(a, c, "different rounds draw different candidates");
        let d = round_candidates(42, CollId(2), 7, 32, 5);
        assert_ne!(a, d, "different collectives draw different candidates");
    }

    #[test]
    fn memo_returns_the_uncached_draw() {
        // Interleave keys that share memo slots (every `(p, m)` of a
        // round shares its slot; rounds 16 apart and the two collectives
        // collide too), so a lookup must match its own key exactly.
        for pass in 0..2 {
            for round in 0..48u64 {
                for coll in [CollId(1), CollId(2)] {
                    for (p, m) in [(4, 1), (4, 3), (1024, 1), (1024, 4)] {
                        let key = (7, coll, round, p, m);
                        assert_eq!(
                            round_candidates(7, coll, round, p, m),
                            draw_candidates(key),
                            "pass {pass}, key {key:?}"
                        );
                    }
                }
            }
        }
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// Determinism: the candidate list is a pure function of
            /// `(seed, coll, round, p, m)` — the consensus property every
            /// rank relies on (§4.2).
            #[test]
            fn candidates_deterministic(
                seed in any::<u64>(),
                coll in 0u32..16,
                round in 0u64..1000,
                p_exp in 0u32..7,
                m in 1usize..9,
            ) {
                let p = 1usize << p_exp;
                let a = round_candidates(seed, CollId(coll), round, p, m);
                let b = round_candidates(seed, CollId(coll), round, p, m);
                prop_assert_eq!(a, b);
            }

            /// Candidates are distinct, in-range, and exactly
            /// `min(m, p)` of them.
            #[test]
            fn candidates_distinct_and_bounded(
                seed in any::<u64>(),
                round in 0u64..1000,
                p_exp in 0u32..7,
                m in 1usize..130,
            ) {
                let p = 1usize << p_exp;
                let c = round_candidates(seed, CollId(1), round, p, m);
                prop_assert_eq!(c.len(), m.min(p));
                prop_assert!(c.iter().all(|&r| r < p));
                let mut dedup = c.clone();
                dedup.sort_unstable();
                dedup.dedup();
                prop_assert_eq!(dedup.len(), c.len());
            }

            /// Over many rounds, each rank appears as a candidate at a
            /// frequency close to m/p — the uniformity behind majority's
            /// E[NAP] = P/2 guarantee.
            #[test]
            fn candidates_roughly_uniform(
                seed in any::<u64>(),
                p_exp in 2u32..6,
                m in 1usize..4,
            ) {
                let p = 1usize << p_exp;
                let rounds = 3000u64;
                let mut counts = vec![0usize; p];
                for r in 0..rounds {
                    for c in round_candidates(seed, CollId(2), r, p, m) {
                        counts[c] += 1;
                    }
                }
                let frac = m.min(p) as f64 / p as f64;
                let expect = rounds as f64 * frac;
                // Binomial std; 6σ keeps the false-failure rate negligible
                // across the thousands of (case × rank) checks.
                let tol = 6.0 * (expect * (1.0 - frac)).sqrt().max(1.0);
                for (rank, &c) in counts.iter().enumerate() {
                    prop_assert!(
                        (c as f64 - expect).abs() < tol,
                        "rank {} selected {} times, expected {} ± {}", rank, c, expect, tol
                    );
                }
            }
        }
    }

    #[test]
    fn candidate_selection_is_uniform_enough() {
        // Over many rounds each rank should be the (single) designated
        // initiator about equally often — the statistical guarantee behind
        // majority's E[NAP] = P/2 (§4.2).
        let p = 16;
        let rounds = 8000;
        let mut counts = vec![0usize; p];
        for r in 0..rounds {
            let c = round_candidates(7, CollId(3), r, p, 1);
            counts[c[0]] += 1;
        }
        let expect = rounds as f64 / p as f64;
        for (rank, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64) > 0.7 * expect && (c as f64) < 1.3 * expect,
                "rank {rank} selected {c} times, expected ≈{expect}"
            );
        }
    }
}
