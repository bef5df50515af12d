//! The "recursive format" (Figure 2, bottom middle): bit-interleaved /
//! Morton / space-filling-curve order.  Every power-of-two-aligned square
//! block of every size is contiguous — which is exactly what a
//! cache-oblivious algorithm needs to attain the latency lower bound at
//! *every* level of the memory hierarchy (Conclusion 5).

use crate::Layout;

/// Morton (Z-order, bit-interleaved) layout.  The matrix is padded to the
/// next power of two `np`; cell `(i, j)` lives at the interleave of the
/// bits of `i` (even positions) and `j` (odd positions).  Aligned
/// power-of-two quadrants at every scale are contiguous.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Morton {
    rows: usize,
    cols: usize,
    np: usize,
}

impl Morton {
    /// Morton layout covering a `rows x cols` matrix (padded internally to
    /// the next power of two of the larger dimension).
    pub fn new(rows: usize, cols: usize) -> Self {
        let np = rows.max(cols).max(1).next_power_of_two();
        Morton { rows, cols, np }
    }

    /// Square convenience constructor.
    pub fn square(n: usize) -> Self {
        Self::new(n, n)
    }

    /// The padded (power-of-two) dimension.
    pub fn padded_dim(&self) -> usize {
        self.np
    }
}

/// Spread the low 32 bits of `x` so bit `k` moves to bit `2k`.
#[inline]
fn spread_bits(x: usize) -> usize {
    let mut x = x as u64;
    x &= 0xffff_ffff;
    x = (x | (x << 16)) & 0x0000_ffff_0000_ffff;
    x = (x | (x << 8)) & 0x00ff_00ff_00ff_00ff;
    x = (x | (x << 4)) & 0x0f0f_0f0f_0f0f_0f0f;
    x = (x | (x << 2)) & 0x3333_3333_3333_3333;
    x = (x | (x << 1)) & 0x5555_5555_5555_5555;
    x as usize
}

/// Morton code with `i` in the even bit positions (so the curve walks down
/// columns first, matching the column-major orientation of the rest of the
/// workspace).
#[inline]
pub fn morton_encode(i: usize, j: usize) -> usize {
    spread_bits(i) | (spread_bits(j) << 1)
}

impl Layout for Morton {
    fn len(&self) -> usize {
        self.np * self.np
    }
    fn rows(&self) -> usize {
        self.rows
    }
    fn cols(&self) -> usize {
        self.cols
    }
    #[inline]
    fn addr(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < self.rows && j < self.cols);
        morton_encode(i, j)
    }
    fn name(&self) -> &'static str {
        "recursive (Morton)"
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::region::{cells_block, cells_col_segment};
    use std::collections::HashSet;

    #[test]
    fn encode_small_values() {
        assert_eq!(morton_encode(0, 0), 0);
        assert_eq!(morton_encode(1, 0), 1);
        assert_eq!(morton_encode(0, 1), 2);
        assert_eq!(morton_encode(1, 1), 3);
        assert_eq!(morton_encode(2, 0), 4);
        assert_eq!(morton_encode(2, 2), 12);
    }

    #[test]
    fn morton_is_a_bijection_on_the_padded_square() {
        let l = Morton::square(8);
        let mut seen = HashSet::new();
        for j in 0..8 {
            for i in 0..8 {
                assert!(seen.insert(l.addr(i, j)));
            }
        }
        assert_eq!(seen.len(), 64);
        assert_eq!(*seen.iter().max().unwrap(), 63, "dense on a power of two");
    }

    #[test]
    fn aligned_quadrants_are_contiguous_at_every_scale() {
        let l = Morton::square(16);
        for block in [2usize, 4, 8, 16] {
            for bi in (0..16).step_by(block) {
                for bj in (0..16).step_by(block) {
                    let runs = l.runs_for(cells_block(bi, bj, block, block));
                    assert_eq!(
                        runs.len(),
                        1,
                        "aligned {block}x{block} quadrant at ({bi},{bj}) must be one run"
                    );
                }
            }
        }
    }

    #[test]
    fn columns_are_scattered() {
        // The paper's Toledo-latency argument: a column in the recursive
        // layout is stored in >= n/2 runs (at most 2 consecutive elements).
        let l = Morton::square(16);
        let runs = l.runs_for(cells_col_segment(5, 0, 16));
        assert!(runs.len() >= 8, "got {} runs", runs.len());
    }

    #[test]
    fn padding_keeps_non_pow2_dims_working() {
        let l = Morton::square(10);
        assert_eq!(l.padded_dim(), 16);
        let mut seen = HashSet::new();
        for j in 0..10 {
            for i in 0..10 {
                let a = l.addr(i, j);
                assert!(a < l.len());
                assert!(seen.insert(a));
            }
        }
    }
}
