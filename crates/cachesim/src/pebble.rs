//! The Hong–Kung red–blue pebble game [HK81] — the model from which the
//! paper's bandwidth lower bound descends (Theorem 2 cites it for the
//! sequential case).
//!
//! Rules, on a computation DAG with a fast memory of `M` red pebbles:
//!
//! * **read**  — place a red pebble on a node holding a blue pebble
//!   (1 I/O);
//! * **write** — place a blue pebble on a node holding a red pebble
//!   (1 I/O);
//! * **compute** — place a red pebble on a node whose predecessors all
//!   hold red pebbles (free);
//! * **delete** — remove any red pebble (free);
//! * at most `M` red pebbles at any time; inputs start blue; the goal is
//!   a blue pebble on every output.
//!
//! [`min_io`] computes the *exact* minimum I/O by Dijkstra over the
//! (red-set, blue-set) state space — exponential, so for small DAGs only,
//! which is precisely what a lower-bound witness needs: the measured
//! word counts of every real algorithm must dominate the game optimum on
//! the same DAG.  Vertices here are matrix *entries* (the granularity of
//! the paper's Equations (5)–(8)), with one input vertex per referenced
//! `A` entry and one vertex per computed `L` entry.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// A small computation DAG for the pebble game (at most 24 nodes).
#[derive(Debug, Clone)]
pub struct PebbleDag {
    /// `preds[v]` = predecessor node ids of `v` (empty for inputs).
    pub preds: Vec<Vec<usize>>,
    /// Bitmask of input nodes (start blue).
    pub inputs: u32,
    /// Bitmask of output nodes (must end blue).
    pub outputs: u32,
}

impl PebbleDag {
    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.preds.len()
    }

    /// `true` when the DAG has no nodes.
    pub fn is_empty(&self) -> bool {
        self.preds.is_empty()
    }

    /// The smallest `M` for which the game is winnable: every compute
    /// needs its predecessors red plus a slot for the result.
    pub fn min_feasible_m(&self) -> usize {
        self.preds
            .iter()
            .map(|p| p.len() + 1)
            .max()
            .unwrap_or(1)
    }
}

/// The entry-granular Cholesky DAG of an `n x n` factorization: input
/// vertices for the lower-triangular `A` entries, compute vertices for
/// the `L` entries (each depending on its `S_ij` of Equations (7)–(8)
/// plus its own `A` input); every `L` entry is an output.
pub fn cholesky_dag(n: usize) -> PebbleDag {
    let entries: Vec<(usize, usize)> = (0..n).flat_map(|i| (0..=i).map(move |j| (i, j))).collect();
    let t = entries.len();
    assert!(2 * t <= 24, "pebble game is exponential; keep n tiny");
    let id = |i: usize, j: usize| i * (i + 1) / 2 + j; // L node ids 0..t
    // Input A(i,j) node ids t..2t.
    let mut preds = vec![Vec::new(); 2 * t];
    for &(i, j) in &entries {
        let v = id(i, j);
        let mut p = vec![t + v]; // its A input
        if i == j {
            for k in 0..i {
                p.push(id(i, k));
            }
        } else {
            for k in 0..j {
                p.push(id(i, k));
            }
            for k in 0..=j {
                p.push(id(j, k));
            }
        }
        preds[v] = p;
    }
    let inputs = ((1u32 << t) - 1) << t;
    let outputs = (1u32 << t) - 1;
    PebbleDag {
        preds,
        inputs,
        outputs,
    }
}

/// Exact minimum I/O (reads + writes) to win the red–blue game with `m`
/// red pebbles.  Returns `None` if `m` is infeasible for the DAG.
pub fn min_io(dag: &PebbleDag, m: usize) -> Option<u64> {
    if m < dag.min_feasible_m() {
        return None;
    }
    let n = dag.len();
    assert!(n <= 24);
    // State: (red_mask, blue_mask). Blue only ever grows, red bounded.
    let start = (0u32, dag.inputs);
    let mut dist: HashMap<(u32, u32), u64> = HashMap::new();
    let mut heap: BinaryHeap<Reverse<(u64, u32, u32)>> = BinaryHeap::new();
    dist.insert(start, 0);
    heap.push(Reverse((0, start.0, start.1)));

    let full_outputs = dag.outputs;
    while let Some(Reverse((d, red, blue))) = heap.pop() {
        if blue & full_outputs == full_outputs {
            return Some(d);
        }
        if dist.get(&(red, blue)).is_some_and(|&best| best < d) {
            continue;
        }
        let red_count = red.count_ones() as usize;
        let push = |nd: u64, nr: u32, nb: u32, dist: &mut HashMap<(u32, u32), u64>, heap: &mut BinaryHeap<Reverse<(u64, u32, u32)>>| {
            let e = dist.entry((nr, nb)).or_insert(u64::MAX);
            if nd < *e {
                *e = nd;
                heap.push(Reverse((nd, nr, nb)));
            }
        };
        for v in 0..n {
            let bit = 1u32 << v;
            // read
            if blue & bit != 0 && red & bit == 0 && red_count < m {
                push(d + 1, red | bit, blue, &mut dist, &mut heap);
            }
            // write
            if red & bit != 0 && blue & bit == 0 {
                push(d + 1, red, blue | bit, &mut dist, &mut heap);
            }
            // compute (free)
            if red & bit == 0 && red_count < m {
                let ready = dag.preds[v].iter().all(|&p| red & (1 << p) != 0);
                if ready && !dag.preds[v].is_empty() {
                    push(d, red | bit, blue, &mut dist, &mut heap);
                }
            }
            // delete (free)
            if red & bit != 0 {
                push(d, red & !bit, blue, &mut dist, &mut heap);
            }
        }
    }
    None
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn n2_with_ample_memory_is_compulsory_io_only() {
        // 3 input reads + 3 output writes = 6.
        let dag = cholesky_dag(2);
        assert_eq!(min_io(&dag, 8), Some(6));
    }

    #[test]
    fn n1_is_two_ios() {
        let dag = cholesky_dag(1);
        assert_eq!(min_io(&dag, 2), Some(2), "read A(0,0), write L(0,0)");
    }

    #[test]
    fn min_io_is_monotone_in_m() {
        let dag = cholesky_dag(3);
        let m0 = dag.min_feasible_m();
        let mut last = u64::MAX;
        for m in m0..m0 + 3 {
            let io = min_io(&dag, m).expect("feasible");
            assert!(io <= last, "more memory cannot cost more I/O");
            last = io;
        }
    }

    #[test]
    fn compulsory_io_is_a_floor() {
        // Any schedule must read every input and write every output once.
        let dag = cholesky_dag(3);
        let compulsory = (dag.inputs.count_ones() + dag.outputs.count_ones()) as u64;
        let io = min_io(&dag, dag.min_feasible_m()).unwrap();
        assert!(io >= compulsory, "{io} >= {compulsory}");
        // And with ample memory the floor is achieved.
        assert_eq!(min_io(&dag, 24), Some(compulsory));
    }

    #[test]
    fn infeasible_m_is_reported() {
        let dag = cholesky_dag(3);
        assert!(min_io(&dag, dag.min_feasible_m() - 1).is_none());
    }

    #[test]
    fn entry_granular_n3_achieves_the_floor_even_at_tight_memory() {
        // Instructive negative result: at entry granularity the n = 3
        // Cholesky DAG can be scheduled with NO spills even at the
        // minimum feasible M — free deletes plus a good order suffice.
        // (The Omega(n^3/sqrt(M)) lower bound is asymptotic; tiny DAGs
        // sit on the compulsory floor.)
        let dag = cholesky_dag(3);
        let compulsory = (dag.inputs.count_ones() + dag.outputs.count_ones()) as u64;
        let tight = min_io(&dag, dag.min_feasible_m()).unwrap();
        assert_eq!(tight, compulsory);
    }

    #[test]
    fn shared_values_evicted_between_phases_force_spills() {
        // A DAG engineered so tight memory MUST re-read: o1 and o2 each
        // need three inputs (overlapping in i2, i3); o3 needs i1 plus
        // both earlier outputs.  At M = 4 the live set around o2 evicts
        // i1 and o1, which o3 then has to restore: 2 extra I/Os over the
        // compulsory 4 reads + 3 writes.
        let mut preds = vec![Vec::new(); 7]; // i1..i4 = 0..4, o1=4, o2=5, o3=6
        preds[4] = vec![0, 1, 2];
        preds[5] = vec![1, 2, 3];
        preds[6] = vec![0, 4, 5];
        let dag = PebbleDag {
            preds,
            inputs: 0b0001111,
            outputs: 0b1110000,
        };
        let compulsory = 4 + 3;
        let m = dag.min_feasible_m();
        assert_eq!(m, 4);
        let tight = min_io(&dag, m).unwrap();
        assert!(
            tight > compulsory,
            "expected forced spills: {tight} vs compulsory {compulsory}"
        );
        // With ample memory the floor returns.
        assert_eq!(min_io(&dag, 7), Some(compulsory));
    }

    #[test]
    fn real_algorithms_dominate_the_game_optimum() {
        // The measured words of the naive schedule at the same entry
        // granularity must be >= the exact game optimum (it is a lower
        // bound over ALL schedules).
        use crate::counting::CountingTracer;
        use crate::tracer::Tracer;
        use cholcomm_layout::{ColMajor, Layout};

        let n = 3;
        let dag = cholesky_dag(n);
        let opt = min_io(&dag, dag.min_feasible_m()).unwrap();

        // Replay the naive left-looking transfer schedule at entry level.
        let layout = ColMajor::square(n);
        let mut tr = CountingTracer::uncapped();
        for j in 0..n {
            let col: Vec<_> = (j..n).map(|i| (i, j)).collect();
            tr.touch_runs(&layout.runs_for(col.clone()), crate::Access::Read);
            for k in 0..j {
                let colk: Vec<_> = (j..n).map(|i| (i, k)).collect();
                tr.touch_runs(&layout.runs_for(colk), crate::Access::Read);
            }
            tr.touch_runs(&layout.runs_for(col), crate::Access::Write);
        }
        assert!(
            tr.stats().words >= opt,
            "naive {} >= pebble optimum {opt}",
            tr.stats().words
        );
    }
}
