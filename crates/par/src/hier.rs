//! Parallelism x memory hierarchy — the paper's explicit *future work*:
//! "A 'real' computer may be more complicated than any model we have
//! discussed so far, with both parallelism and multiple levels of memory
//! hierarchy (where each sequential processor making up a parallel
//! computer has multiple levels of cache) ... We leave lower and upper
//! communication bounds on such processors for future work."
//!
//! This module takes the step the paper sketches: the same `PxPOTRF`
//! schedule (`crate::alg9`), but every processor additionally owns a
//! *local* two-level memory (an LRU of `m_local` words over its
//! block-contiguous local store), and each local tile operation touches
//! it — a hook on the machine executor.  The report then carries both
//! communication regimes at once: network words/messages on the critical
//! path, and the worst per-processor local (DAM) traffic — which, with
//! the blocked kernels, lands on the familiar
//! `flops_per_proc / sqrt(m_local)` bandwidth curve.

use crate::alg9::{operands, run_machine, Bcast, Hook, Phase, Schedule};
use crate::pxpotrf::BroadcastKind;
use cholcomm_cachesim::{Access, LruTracer, Tracer};
use cholcomm_distsim::{CostModel, CriticalPath, Machine};
use cholcomm_matrix::schedule::TileOp;
use cholcomm_matrix::{Matrix, MatrixError};
use std::collections::HashMap;

/// Outcome of a hierarchical run.
#[derive(Debug)]
pub struct HierReport {
    /// The factor (verified by tests against the sequential reference).
    pub factor: Matrix<f64>,
    /// Network critical path (as in the flat model).
    pub critical: CriticalPath,
    /// Worst per-processor local memory traffic (words, messages).
    pub max_local_words: u64,
    /// See [`HierReport::max_local_words`].
    pub max_local_messages: u64,
}

/// Every processor's local memory: an LRU over its address space, in
/// which every tile it ever holds (owned or received) gets a stable
/// contiguous `b*b`-word extent, in order of first touch.
struct Touches {
    tile_words: usize,
    bases: Vec<HashMap<(usize, usize), usize>>,
    caches: Vec<LruTracer>,
}

impl Touches {
    /// Proc `q` moves tile `key` through its local cache.
    fn touch(&mut self, q: usize, key: (usize, usize), mode: Access) {
        let fresh = self.bases[q].len() * self.tile_words;
        let base = *self.bases[q].entry(key).or_insert(fresh);
        let run = base..base + self.tile_words;
        self.caches[q].touch_runs(&[run], mode);
    }
}

impl Hook for Touches {
    /// A tile op reads its operands, then reads and writes its target.
    fn after_op(&mut self, rank: usize, op: TileOp, _: &Matrix<f64>) {
        for t in operands(op) {
            self.touch(rank, t, Access::Read);
        }
        self.touch(rank, op.target(), Access::Read);
        self.touch(rank, op.target(), Access::Write);
    }

    /// Receiving lands a tile in local memory; a re-broadcast's root
    /// reads its tiles out first.
    fn after_bcast(&mut self, bc: &Bcast) {
        if bc.phase == Phase::Rebroadcast {
            for &t in &bc.tiles {
                self.touch(bc.root, t, Access::Read);
            }
        }
        for &m in bc.members.iter().filter(|&&m| m != bc.root) {
            for &t in &bc.tiles {
                self.touch(m, t, Access::Write);
            }
        }
    }
}

/// `PxPOTRF` with per-processor local caches of `m_local` words.
pub fn pxpotrf_hier(
    a: &Matrix<f64>,
    b: usize,
    p: usize,
    model: CostModel,
    m_local: usize,
) -> Result<HierReport, MatrixError> {
    let s = Schedule::square(a, b, p)?;
    let b = s.tiles.b;
    assert!(
        m_local >= 3 * b * b,
        "local memory must hold three tiles (3 b^2 <= m_local)"
    );
    let mut machine = Machine::new(p, model);
    let mut local = Touches {
        tile_words: b * b,
        bases: vec![HashMap::new(); p],
        caches: (0..p).map(|_| LruTracer::new(m_local)).collect(),
    };
    let dist = run_machine(&s, a, &mut machine, BroadcastKind::Tree, &mut local)?;

    let (mut max_w, mut max_m) = (0u64, 0u64);
    for c in &mut local.caches {
        c.flush();
        let s = c.total_stats();
        max_w = max_w.max(s.words);
        max_m = max_m.max(s.messages);
    }
    Ok(HierReport {
        factor: dist.gather(),
        critical: machine.critical_path(),
        max_local_words: max_w,
        max_local_messages: max_m,
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use cholcomm_matrix::{kernels, norms, spd};

    #[test]
    fn hier_factors_match_sequential() {
        let mut rng = spd::test_rng(210);
        let n = 32;
        let a = spd::random_spd(n, &mut rng);
        let rep = pxpotrf_hier(&a, 8, 4, CostModel::counting(), 512).unwrap();
        let mut want = a.clone();
        kernels::potf2(&mut want).unwrap();
        let d = norms::max_abs_diff(&rep.factor, &want.lower_triangle().unwrap());
        assert!(d < 1e-9, "{d}");
    }

    #[test]
    fn bigger_local_memory_cuts_local_traffic() {
        let mut rng = spd::test_rng(211);
        let n = 64;
        let b = 8;
        let a = spd::random_spd(n, &mut rng);
        let small = pxpotrf_hier(&a, b, 4, CostModel::counting(), 3 * b * b).unwrap();
        let big = pxpotrf_hier(&a, b, 4, CostModel::counting(), 64 * b * b).unwrap();
        assert!(
            big.max_local_words < small.max_local_words,
            "local cache should help: {} vs {}",
            big.max_local_words,
            small.max_local_words
        );
        // Network side is unchanged by the local hierarchy.
        assert_eq!(small.critical.words, big.critical.words);
        assert_eq!(small.critical.messages, big.critical.messages);
    }

    #[test]
    fn local_traffic_is_bounded_by_the_dam_curve() {
        // Per-proc local words should sit near
        // flops_per_proc / sqrt(m_local) * O(1) — the sequential bandwidth
        // law applied inside each node.
        let mut rng = spd::test_rng(212);
        let n = 64;
        let b = 8;
        let p = 4;
        let a = spd::random_spd(n, &mut rng);
        let m_local = 3 * b * b;
        let rep = pxpotrf_hier(&a, b, p, CostModel::counting(), m_local).unwrap();
        let flops_per_proc = (n as f64).powi(3) / (3.0 * p as f64);
        let dam_scale = flops_per_proc / (m_local as f64).sqrt();
        let ratio = rep.max_local_words as f64 / dam_scale;
        assert!(ratio < 12.0, "local words {} vs DAM scale {dam_scale:.0} (ratio {ratio:.1})", rep.max_local_words);
    }

    #[test]
    fn rejects_local_memory_smaller_than_three_tiles() {
        let a = Matrix::<f64>::identity(16);
        let r = std::panic::catch_unwind(|| {
            pxpotrf_hier(&a, 8, 4, CostModel::counting(), 100)
        });
        assert!(r.is_err());
    }
}
