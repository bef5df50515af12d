//! The "recursive packed format" of Andersen, Gustavson and Waśniewski
//! \[AGW01\] (Figure 2, bottom right): only the lower triangle is stored;
//! triangular submatrices are laid out recursively, while the square
//! off-diagonal block at each level is stored *column-major* (so that
//! ordinary GEMM kernels can run on it).  The column-major squares are
//! exactly why the format saves space yet cannot attain the latency lower
//! bound (Section 3.2.3).

use crate::Layout;

/// Recursive packed lower-triangular storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecursivePacked {
    n: usize,
}

/// Number of entries of an `n x n` lower triangle.
#[inline]
fn tri(n: usize) -> usize {
    n * (n + 1) / 2
}

impl RecursivePacked {
    /// Recursive packed layout for an `n x n` lower triangle.
    pub fn new(n: usize) -> Self {
        RecursivePacked { n }
    }

    fn addr_rec(n: usize, i: usize, j: usize, base: usize) -> usize {
        debug_assert!(i >= j && i < n);
        if n == 1 {
            return base;
        }
        let n1 = n / 2;
        let n2 = n - n1;
        if i < n1 {
            // Leading triangle T1, stored first, recursively.
            Self::addr_rec(n1, i, j, base)
        } else if j < n1 {
            // Off-diagonal square S (n2 x n1), stored column-major after T1.
            base + tri(n1) + (i - n1) + j * n2
        } else {
            // Trailing triangle T2, stored last, recursively.
            Self::addr_rec(n2, i - n1, j - n1, base + tri(n1) + n1 * n2)
        }
    }
}

impl Layout for RecursivePacked {
    fn len(&self) -> usize {
        tri(self.n)
    }
    fn rows(&self) -> usize {
        self.n
    }
    fn cols(&self) -> usize {
        self.n
    }
    #[inline]
    fn addr(&self, i: usize, j: usize) -> usize {
        Self::addr_rec(self.n, i, j, 0)
    }
    fn stores(&self, i: usize, j: usize) -> bool {
        i < self.n && j < self.n && i >= j
    }
    fn name(&self) -> &'static str {
        "recursive packed"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::cells_block;
    use std::collections::HashSet;

    #[test]
    fn recpacked_is_a_tight_bijection() {
        for n in [1usize, 2, 3, 5, 8, 13, 16, 31] {
            let l = RecursivePacked::new(n);
            let mut seen = HashSet::new();
            for j in 0..n {
                for i in j..n {
                    let a = l.addr(i, j);
                    assert!(a < l.len(), "n={n} ({i},{j})");
                    assert!(seen.insert(a), "n={n} collision at ({i},{j})");
                }
            }
            assert_eq!(seen.len(), l.len(), "n={n} packing is tight");
        }
    }

    #[test]
    fn off_diagonal_square_is_contiguous() {
        // The level-0 square S of a 16x16 triangle: rows 8..16, cols 0..8,
        // stored as one column-major slab => one run.
        let l = RecursivePacked::new(16);
        let runs = l.runs_for(cells_block(8, 0, 8, 8));
        assert_eq!(runs.len(), 1, "S is a contiguous column-major slab");
        assert_eq!(runs[0].len(), 64);
    }

    #[test]
    fn columns_of_the_square_are_strided() {
        // Within the column-major square, a sub-block is column-major:
        // reading a 4x4 corner of S takes 4 runs — the latency obstruction
        // the paper describes.
        let l = RecursivePacked::new(16);
        let runs = l.runs_for(cells_block(8, 0, 4, 4));
        assert_eq!(runs.len(), 4);
    }

    #[test]
    fn leading_triangle_precedes_square_precedes_trailing() {
        let l = RecursivePacked::new(8);
        let a_t1 = l.addr(3, 3); // in T1 (n1 = 4)
        let a_s = l.addr(5, 2); // in S
        let a_t2 = l.addr(7, 6); // in T2
        assert!(a_t1 < a_s && a_s < a_t2);
    }

    #[test]
    fn saves_half_the_space() {
        let l = RecursivePacked::new(100);
        assert_eq!(l.len(), 5050);
    }
}
