//! Bit-exact digests of matrices — the cache keys and identity checks of
//! the serving layer.
//!
//! The workspace's correctness contract is *bit-identity*: a healed
//! factor, a replayed schedule, or a cache-served factor must match a
//! clean computation to the last bit.  An order-sensitive FNV-1a hash
//! over the `f64` bit patterns (dimensions mixed in first) is the cheap
//! certificate of that property: equal digests ⇔ equal bits, up to hash
//! collisions that 64 bits make irrelevant for test- and cache-sized
//! working sets.

use crate::dense::Matrix;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// One FNV-1a step: fold one byte into the state.
#[inline(always)]
fn fnv1a_step(h: u64, byte: u8) -> u64 {
    (h ^ u64::from(byte)).wrapping_mul(FNV_PRIME)
}

/// Fold `bytes` into a running FNV-1a state (start from
/// [`fnv1a`]`(b"")`, or chain calls to hash a stream piecewise).
pub fn fnv1a_update(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &byte| fnv1a_step(h, byte))
}

/// Byte-wise 64-bit FNV-1a: the workspace's one integrity hash (journal
/// records, checkpoint manifests and snapshots, replay digests).  Not
/// cryptographic — it guards against truncation and bit rot.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_update(FNV_OFFSET, bytes)
}

/// FNV-1a over a stream of `u64` words (little-endian bytes).
fn fnv1a_words(h: u64, words: impl Iterator<Item = u64>) -> u64 {
    words.fold(h, |h, w| fnv1a_update(h, &w.to_le_bytes()))
}

/// Order-sensitive digest of the full matrix: dimensions, then every
/// element's bit pattern in column-major order.  Two matrices share a
/// digest exactly when they are bit-identical (same shape, same bits —
/// `-0.0` differs from `0.0`, NaN payloads are distinguished).
pub fn matrix_digest(m: &Matrix<f64>) -> u64 {
    let h = fnv1a_words(
        FNV_OFFSET,
        [m.rows() as u64, m.cols() as u64].into_iter(),
    );
    fnv1a_words(h, m.as_slice().iter().map(|x| x.to_bits()))
}

/// The words a lower-triangle digest folds, in order: the header
/// (order twice, then a tag) and the columns of `m`, each from its
/// diagonal element down.  [`lower_digest`] and [`lower_digests`] both
/// read the factor through here and nowhere else.
fn lower_words(m: &Matrix<f64>) -> ([u64; 3], impl Iterator<Item = &[f64]>) {
    assert!(m.is_square(), "lower_digest expects a square matrix");
    let n = m.rows();
    let columns = (0..n).map(move |j| &m.col(j)[j..]);
    ([n as u64, n as u64, 0x4c54], columns)
}

/// Digest of the lower triangle (diagonal included) of a square matrix:
/// the identity of a Cholesky *factor*, insensitive to whatever garbage
/// the strict upper triangle may hold after an in-place factorization.
///
/// # Panics
/// When `m` is not square.
pub fn lower_digest(m: &Matrix<f64>) -> u64 {
    let (header, columns) = lower_words(m);
    let h = fnv1a_words(FNV_OFFSET, header.into_iter());
    columns.fold(h, |h, col| fnv1a_words(h, col.iter().map(|x| x.to_bits())))
}

/// FNV chains [`lower_digests`] keeps in flight.  One chain is eight
/// *dependent* xor-multiplies per word, each waiting out the
/// multiplier's latency (≈4 cycles) while the multiplier could start
/// one every cycle: four chains fill it, more only spill registers.
const LANES: usize = 4;

/// One digest in progress: `words[pos..end]` is what is left of stream
/// number `stream`, `h` the state after everything before `pos`.
struct Lane {
    stream: usize,
    h: u64,
    pos: usize,
    end: usize,
}

/// Advance `K` lanes in lock-step — one word each, byte by byte, turn
/// and turn about — until the shortest has no word left.
#[allow(clippy::needless_range_loop)] // `t` and `i` index across the lanes
fn advance_lanes<const K: usize>(lanes: &mut [Lane], words: &[u64]) {
    let lanes: &mut [Lane; K] = lanes.try_into().expect("one arm per lane count");
    let run = lanes.iter().map(|l| l.end - l.pos).min().unwrap_or(0);
    let streams: [&[u64]; K] = std::array::from_fn(|l| &words[lanes[l].pos..][..run]);
    let mut h: [u64; K] = std::array::from_fn(|l| lanes[l].h);
    for t in 0..run {
        let bytes: [[u8; 8]; K] = std::array::from_fn(|l| streams[l][t].to_le_bytes());
        for i in 0..8 {
            for l in 0..K {
                h[l] = fnv1a_step(h[l], bytes[l][i]);
            }
        }
    }
    for (lane, h) in lanes.iter_mut().zip(h) {
        lane.h = h;
        lane.pos += run;
    }
}

/// FNV-1a over each of the word streams `words[ends[s - 1]..ends[s]]`
/// (the first starts at 0): what [`fnv1a_words`] from the offset basis
/// gives for each, with [`LANES`] of them in flight.  A lane whose
/// stream ends takes the next stream, so streams of mixed lengths keep
/// every lane busy until fewer than [`LANES`] streams are left.
fn fnv1a_streams(words: &[u64], ends: &[usize]) -> Vec<u64> {
    let mut out = vec![FNV_OFFSET; ends.len()];
    let mut lanes: Vec<Lane> = Vec::with_capacity(LANES);
    let mut next = 0;
    loop {
        let mut l = 0;
        while l < lanes.len() {
            if lanes[l].pos == lanes[l].end {
                out[lanes[l].stream] = lanes[l].h;
                lanes.swap_remove(l);
            } else {
                l += 1;
            }
        }
        while lanes.len() < LANES && next < ends.len() {
            lanes.push(Lane {
                stream: next,
                h: FNV_OFFSET,
                pos: if next == 0 { 0 } else { ends[next - 1] },
                end: ends[next],
            });
            next += 1;
        }
        match lanes.len() {
            0 => return out,
            1 => advance_lanes::<1>(&mut lanes, words),
            2 => advance_lanes::<2>(&mut lanes, words),
            3 => advance_lanes::<3>(&mut lanes, words),
            LANES => advance_lanes::<LANES>(&mut lanes, words),
            _ => unreachable!("at most LANES lanes are live"),
        }
    }
}

/// [`lower_digest`] of every matrix of `ms`, in order — the same
/// values, with the digests of several factors advancing together
/// instead of one after another (see [`LANES`]).  The lower triangles
/// are gathered into one scratch buffer first, so the lanes run over
/// flat words whatever the orders of the matrices.
///
/// # Panics
/// When a matrix is not square.
pub fn lower_digests(ms: &[&Matrix<f64>]) -> Vec<u64> {
    let total = ms.iter().map(|m| 3 + m.rows() * (m.rows() + 1) / 2).sum();
    let mut words: Vec<u64> = Vec::with_capacity(total);
    let mut ends = Vec::with_capacity(ms.len());
    for m in ms {
        let (header, columns) = lower_words(m);
        words.extend(header);
        for col in columns {
            words.extend(col.iter().map(|x| x.to_bits()));
        }
        ends.push(words.len());
    }
    fnv1a_streams(&words, &ends)
}

/// Digest of an `f64` slice (bit patterns, order-sensitive) — used for
/// solution vectors and right-hand sides.
pub fn slice_digest(xs: &[f64]) -> u64 {
    let h = fnv1a_words(FNV_OFFSET, [xs.len() as u64].into_iter());
    fnv1a_words(h, xs.iter().map(|x| x.to_bits()))
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOLDEN_LOWER: u64 = 0x8b1d_852b_4d5f_4c90;
    const GOLDEN_MATRIX: u64 = 0x90c9_3c27_cf88_35fd;
    const GOLDEN_SLICE: u64 = 0x85b6_855d_6116_9842;

    #[test]
    fn fnv1a_is_pinned_to_the_published_vectors() {
        // Journal, manifest and replay-digest bytes depend on these.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_update(fnv1a(b"foo"), b"bar"), fnv1a(b"foobar"));
    }

    #[test]
    fn digest_distinguishes_bits_not_values() {
        let mut a = Matrix::zeros(3, 3);
        let b = a.clone();
        assert_eq!(matrix_digest(&a), matrix_digest(&b));
        a[(1, 2)] = -0.0; // same value as 0.0, different bits
        assert_ne!(matrix_digest(&a), matrix_digest(&b));
    }

    #[test]
    fn digest_is_shape_sensitive() {
        let a = Matrix::<f64>::zeros(2, 3);
        let b = Matrix::<f64>::zeros(3, 2);
        assert_ne!(matrix_digest(&a), matrix_digest(&b));
    }

    #[test]
    fn lower_digest_ignores_the_strict_upper_triangle() {
        let mut a = Matrix::from_fn(4, 4, |i, j| (i * 4 + j) as f64);
        let d0 = lower_digest(&a);
        a[(0, 3)] = 99.0; // upper triangle only
        assert_eq!(lower_digest(&a), d0);
        a[(3, 0)] = 99.0; // lower triangle
        assert_ne!(lower_digest(&a), d0);
    }

    /// A 5×5 matrix and a 7-vector with a `-0.0` and a NaN payload among
    /// ordinary values; `m[(1, 3)]` lies above the diagonal.
    fn golden_inputs() -> (Matrix<f64>, [f64; 7]) {
        let nan = f64::from_bits(0x7ff8_0000_dead_beef);
        let mut m = Matrix::from_fn(5, 5, |i, j| (i as f64 + 1.0) / (j as f64 + 2.0) - 0.75);
        m[(2, 1)] = -0.0;
        m[(4, 4)] = nan;
        m[(1, 3)] = nan;
        (m, [1.5, -0.0, 0.0, nan, -2.25e-300, f64::INFINITY, 3.0])
    }

    /// Captured on the commit before `lower_digest` walked column slices
    /// and gained its many-at-once form: cache keys, journals and served
    /// `factor_digest`s depend on these bytes.
    #[test]
    fn digests_of_fixed_inputs_are_pinned() {
        let (m, xs) = golden_inputs();
        assert_eq!(lower_digest(&m), GOLDEN_LOWER);
        assert_eq!(matrix_digest(&m), GOLDEN_MATRIX);
        assert_eq!(slice_digest(&xs), GOLDEN_SLICE);
        assert_eq!(lower_digests(&[&m, &m]), [GOLDEN_LOWER; 2]);
    }

    #[test]
    #[should_panic(expected = "square")]
    fn lower_digest_refuses_a_tall_matrix() {
        lower_digest(&Matrix::zeros(3, 2));
    }

    #[test]
    #[should_panic(expected = "square")]
    fn lower_digests_refuses_a_wide_matrix() {
        lower_digests(&[&Matrix::zeros(2, 2), &Matrix::zeros(2, 3)]);
    }

    /// Call `visit` on every permutation of `items` (Heap's algorithm).
    fn for_each_permutation(items: &mut [usize], k: usize, visit: &mut impl FnMut(&[usize])) {
        if k <= 1 {
            return visit(items);
        }
        for_each_permutation(items, k - 1, visit);
        for i in 0..k - 1 {
            items.swap(if k.is_multiple_of(2) { i } else { 0 }, k - 1);
            for_each_permutation(items, k - 1, visit);
        }
    }

    /// Arrival order decides which systems share the lanes: short ones
    /// finish beside long ones, lanes drain and refill unevenly, and the
    /// last few systems run on fewer than `LANES` lanes.
    #[test]
    fn lower_digests_equals_the_map_of_lower_digest() {
        const ORDERS: [usize; 9] = [0, 1, 2, 7, 8, 31, 32, 33, 96];
        let systems: Vec<Matrix<f64>> = ORDERS
            .iter()
            .map(|&n| Matrix::from_fn(n, n, |i, j| ((i * 131 + j * 17 + n) as f64).sin()))
            .collect();
        let want: Vec<u64> = systems.iter().map(lower_digest).collect();
        let mut checked = 0;
        let mut check = |arrival: &[usize]| {
            let ms: Vec<&Matrix<f64>> = arrival.iter().map(|&s| &systems[s]).collect();
            let expect: Vec<u64> = arrival.iter().map(|&s| want[s]).collect();
            assert_eq!(lower_digests(&ms), expect, "arrival order {arrival:?}");
            checked += 1;
        };

        // 0..=7 systems: every order of arrival (1 + 1 + 2 + … + 7!).
        for count in 0..=7 {
            let mut arrival: Vec<usize> = (0..count).collect();
            for_each_permutation(&mut arrival, count, &mut check);
        }
        // 8 and 9 systems (the two largest orders join): every rotation
        // of 60 seeded shuffles each, repeats of one system included.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut below = |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        };
        for count in [8, 9] {
            for round in 0..60 {
                let mut arrival: Vec<usize> = (0..count).collect();
                if round % 3 == 0 {
                    arrival[below(count)] = below(count);
                }
                for i in (1..count).rev() {
                    arrival.swap(i, below(i + 1));
                }
                for _ in 0..count {
                    arrival.rotate_left(1);
                    check(&arrival);
                }
            }
        }
        assert_eq!(checked, 5_914 + 60 * 17);

        // All-empty systems: nothing but headers in every lane.
        let empty = Matrix::<f64>::zeros(0, 0);
        assert_eq!(lower_digests(&[&empty; 6]), [lower_digest(&empty); 6]);
    }

    #[test]
    fn slice_digest_is_order_sensitive() {
        assert_ne!(slice_digest(&[1.0, 2.0]), slice_digest(&[2.0, 1.0]));
        assert_ne!(slice_digest(&[]), slice_digest(&[0.0]));
        assert_eq!(slice_digest(&[1.5, -2.5]), slice_digest(&[1.5, -2.5]));
    }
}
