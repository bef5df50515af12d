//! Block-cyclic distribution of a symmetric matrix over a processor grid
//! (Figure 6): block `(bi, bj)` lives on processor
//! `(bi mod Pr, bj mod Pc)`.  Only the lower triangle of blocks is stored
//! or referenced.

use cholcomm_distsim::ProcGrid;
use cholcomm_matrix::schedule::TileGrid;
use cholcomm_matrix::Matrix;
use std::collections::HashMap;

/// A distributed symmetric matrix: each processor holds its owned blocks
/// (lower block-triangle only) plus a cache of blocks it has received.
#[derive(Debug, Clone)]
pub struct DistMatrix {
    n: usize,
    b: usize,
    grid: ProcGrid,
    /// `local[p]` maps block coordinates to the block payload, for blocks
    /// *owned* by `p`.
    local: Vec<HashMap<(usize, usize), Matrix<f64>>>,
    /// Blocks received from other processors during the algorithm.
    received: Vec<HashMap<(usize, usize), Matrix<f64>>>,
    /// Peak words resident per processor (owned + received) — the 2D
    /// model's memory-scalability metric (`M = O(n^2 / P)`).
    peak_words: Vec<usize>,
}

impl DistMatrix {
    /// Distribute the lower block-triangle of `a` over `grid` with block
    /// size `b`.
    pub fn distribute(a: &Matrix<f64>, b: usize, grid: ProcGrid) -> Self {
        let n = a.rows();
        assert!(a.is_square(), "matrix must be square");
        assert!(b > 0 && b <= n, "block size in 1..=n");
        let mut local = vec![HashMap::new(); grid.len()];
        let tiles = TileGrid::new(n, b);
        for bj in 0..tiles.nb() {
            for bi in bj..tiles.nb() {
                let tile = tiles.cut_tile(a, bi, bj, Vec::new());
                local[grid.block_owner(bi, bj)].insert((bi, bj), tile);
            }
        }
        let peak_words = local
            .iter()
            .map(|m| m.values().map(|b| b.rows() * b.cols()).sum())
            .collect();
        DistMatrix {
            n,
            b,
            grid,
            local,
            received: vec![HashMap::new(); grid.len()],
            peak_words,
        }
    }

    fn resident_words(&self, p: usize) -> usize {
        let owned: usize = self.local[p].values().map(|b| b.rows() * b.cols()).sum();
        let recv: usize = self.received[p].values().map(|b| b.rows() * b.cols()).sum();
        owned + recv
    }

    /// Largest number of words any processor ever held at once.
    pub fn peak_resident_words(&self) -> usize {
        self.peak_words.iter().copied().max().unwrap_or(0)
    }

    /// Drop every received copy whose source column panel is `bj` — the
    /// panel is dead once the trailing update of its iteration completes,
    /// so a memory-scalable schedule evicts it.
    pub fn evict_received_panel(&mut self, bj: usize) {
        for r in &mut self.received {
            r.retain(|&(_, col), _| col != bj);
        }
    }

    /// Matrix order.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Block size.
    pub fn block_size(&self) -> usize {
        self.b
    }

    /// Number of block rows/columns.
    pub fn nb(&self) -> usize {
        self.n.div_ceil(self.b)
    }

    /// The processor grid.
    pub fn grid(&self) -> ProcGrid {
        self.grid
    }

    /// Owner rank of block `(bi, bj)`.
    pub fn owner(&self, bi: usize, bj: usize) -> usize {
        self.grid.block_owner(bi, bj)
    }

    /// Borrow an owned block.
    pub fn block(&self, bi: usize, bj: usize) -> &Matrix<f64> {
        self.local[self.owner(bi, bj)]
            .get(&(bi, bj))
            .unwrap_or_else(|| panic!("block ({bi},{bj}) missing on its owner"))
    }

    /// Mutably borrow an owned block.
    pub fn block_mut(&mut self, bi: usize, bj: usize) -> &mut Matrix<f64> {
        let p = self.owner(bi, bj);
        self.local[p]
            .get_mut(&(bi, bj))
            .unwrap_or_else(|| panic!("block ({bi},{bj}) missing on its owner"))
    }

    /// Deposit a received copy of a block on processor `p`.
    pub fn deposit(&mut self, p: usize, bi: usize, bj: usize, block: Matrix<f64>) {
        self.received[p].insert((bi, bj), block);
        let now = self.resident_words(p);
        if now > self.peak_words[p] {
            self.peak_words[p] = now;
        }
    }

    /// A block as visible *from* processor `p`: its own copy if it owns
    /// it, else the received copy.  Panics if `p` never received it —
    /// i.e. the communication schedule is incomplete.
    pub fn visible(&self, p: usize, bi: usize, bj: usize) -> &Matrix<f64> {
        if let Some(b) = self.local[p].get(&(bi, bj)) {
            return b;
        }
        self.received[p].get(&(bi, bj)).unwrap_or_else(|| {
            panic!("processor {p} uses block ({bi},{bj}) it neither owns nor received")
        })
    }

    /// Blocks of column-panel `bj` strictly below the diagonal owned by
    /// processor `p`, in increasing block-row order.
    pub fn owned_panel_blocks(&self, p: usize, bj: usize) -> Vec<usize> {
        let mut v: Vec<usize> = self.local[p]
            .keys()
            .filter(|&&(bi, bjj)| bjj == bj && bi > bj)
            .map(|&(bi, _)| bi)
            .collect();
        v.sort_unstable();
        v
    }

    /// Gather the distributed (factored) matrix back into a dense matrix;
    /// unowned upper-triangle cells are zero.
    pub fn gather(&self) -> Matrix<f64> {
        let mut out = Matrix::zeros(self.n, self.n);
        let nb = self.nb();
        for bj in 0..nb {
            for bi in bj..nb {
                out.set_submatrix(bi * self.b, bj * self.b, self.block(bi, bj));
            }
        }
        // Zero the strict upper triangle that diagonal blocks spilled in.
        out.zero_strict_upper();
        out
    }

    /// Words in one `h x w` block message (full block; the diagonal-factor
    /// broadcast uses the triangular count).
    pub fn block_words(&self, bi: usize, bj: usize) -> usize {
        TileGrid::new(self.n, self.b).tile_len(bi, bj)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use cholcomm_matrix::spd;

    #[test]
    fn distribute_gather_roundtrip() {
        let mut rng = spd::test_rng(100);
        let a = spd::random_spd(24, &mut rng);
        let d = DistMatrix::distribute(&a, 4, ProcGrid::square(9));
        let back = d.gather();
        for j in 0..24 {
            for i in j..24 {
                assert_eq!(back[(i, j)], a[(i, j)]);
            }
            for i in 0..j {
                assert_eq!(back[(i, j)], 0.0);
            }
        }
    }

    #[test]
    fn figure6_ownership_counts() {
        // n=24, b=4, P=9: 6x6 blocks, lower triangle has 21 blocks.
        let mut rng = spd::test_rng(101);
        let a = spd::random_spd(24, &mut rng);
        let d = DistMatrix::distribute(&a, 4, ProcGrid::square(9));
        let total: usize = (0..9).map(|p| d.local[p].len()).sum();
        assert_eq!(total, 21);
    }

    #[test]
    fn ragged_blocks_at_the_edge() {
        let mut rng = spd::test_rng(102);
        let a = spd::random_spd(10, &mut rng);
        let d = DistMatrix::distribute(&a, 4, ProcGrid::square(4));
        assert_eq!(d.nb(), 3);
        assert_eq!(d.block(2, 2).rows(), 2);
        assert_eq!(d.block(2, 0).rows(), 2);
        assert_eq!(d.block(2, 0).cols(), 4);
        assert_eq!(d.block_words(2, 1), 8);
    }

    #[test]
    fn visible_prefers_owned_then_received() {
        let mut rng = spd::test_rng(103);
        let a = spd::random_spd(8, &mut rng);
        let mut d = DistMatrix::distribute(&a, 4, ProcGrid::square(4));
        let owner = d.owner(1, 0);
        let other = (owner + 1) % 4;
        let blk = d.block(1, 0).clone();
        d.deposit(other, 1, 0, blk.clone());
        assert_eq!(d.visible(other, 1, 0), &blk);
        assert_eq!(d.visible(owner, 1, 0), &blk);
    }

    #[test]
    #[should_panic(expected = "neither owns nor received")]
    fn missing_communication_is_loud() {
        let mut rng = spd::test_rng(104);
        let a = spd::random_spd(8, &mut rng);
        let d = DistMatrix::distribute(&a, 4, ProcGrid::square(4));
        let owner = d.owner(1, 0);
        let other = (owner + 1) % 4;
        let _ = d.visible(other, 1, 0);
    }

    #[test]
    fn owned_panel_blocks_are_sorted_and_filtered() {
        let mut rng = spd::test_rng(105);
        let a = spd::random_spd(32, &mut rng);
        let d = DistMatrix::distribute(&a, 4, ProcGrid::square(4));
        let owner = d.owner(3, 1);
        let blocks = d.owned_panel_blocks(owner, 1);
        assert!(blocks.windows(2).all(|w| w[0] < w[1]));
        assert!(blocks.contains(&3));
        assert!(blocks.iter().all(|&bi| bi > 1));
    }
}
