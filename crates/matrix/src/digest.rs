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

/// Fold `bytes` into a running FNV-1a state (start from
/// [`fnv1a`]`(b"")`, or chain calls to hash a stream piecewise).
pub fn fnv1a_update(mut h: u64, bytes: &[u8]) -> u64 {
    for &byte in bytes {
        h ^= u64::from(byte);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
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

/// Digest of the lower triangle (diagonal included) of a square matrix:
/// the identity of a Cholesky *factor*, insensitive to whatever garbage
/// the strict upper triangle may hold after an in-place factorization.
pub fn lower_digest(m: &Matrix<f64>) -> u64 {
    debug_assert!(m.is_square(), "lower_digest expects a square matrix");
    let n = m.rows();
    let h = fnv1a_words(FNV_OFFSET, [n as u64, n as u64, 0x4c54].into_iter());
    let words = (0..n).flat_map(|j| (j..n).map(move |i| (i, j)));
    fnv1a_words(h, words.map(|(i, j)| m[(i, j)].to_bits()))
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

    #[test]
    fn slice_digest_is_order_sensitive() {
        assert_ne!(slice_digest(&[1.0, 2.0]), slice_digest(&[2.0, 1.0]));
        assert_ne!(slice_digest(&[]), slice_digest(&[0.0]));
        assert_eq!(slice_digest(&[1.5, -2.5]), slice_digest(&[1.5, -2.5]));
    }
}
