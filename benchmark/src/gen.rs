//! The benchmark's own seeded input generator.
//!
//! `spd::random_spd` builds `B·Bᵀ + n·I` through the reference GEMM —
//! O(n³) at triple-loop speed, minutes at the workload sizes here.  The
//! benchmark instead draws a symmetric matrix with uniform(-1, 1)
//! off-diagonal entries and puts `n + |u|` on the diagonal: strictly
//! diagonally dominant, hence SPD, in O(n²).

use cholcomm_core::matrix::Matrix;

/// SplitMix64: the whole generator state is one `u64`, so a seed is a
/// complete description of the stream.  The benchmark keeps its own
/// generator rather than the vendored `rand` stand-in so that its inputs
/// stay the same when that stand-in changes.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `(-1, 1)`.
    pub fn unit(&mut self) -> f64 {
        // 53 random mantissa bits -> [0, 1), then stretch.
        let u = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        2.0 * u - 1.0
    }
}

/// A seeded, diagonally dominant SPD matrix of order `n`.
pub fn spd(n: usize, seed: u64) -> Matrix<f64> {
    let mut rng = SplitMix64::new(seed ^ 0x5350_445F_4745_4E21);
    let mut a = Matrix::zeros(n, n);
    for j in 0..n {
        a[(j, j)] = n as f64 + rng.unit().abs();
        for i in (j + 1)..n {
            a[(i, j)] = rng.unit();
        }
    }
    a.mirror_lower();
    a
}

/// A dense `rows x cols` matrix of uniform(-1, 1) entries (probe operands).
pub fn dense(rows: usize, cols: usize, seed: u64) -> Matrix<f64> {
    let mut rng = SplitMix64::new(seed);
    Matrix::from_fn(rows, cols, |_, _| rng.unit())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cholcomm_core::matrix::{matrix_digest, KernelImpl};
    use cholcomm_core::par::dag::potrf_dag_with;

    #[test]
    fn generator_is_seed_deterministic_and_symmetric() {
        let (a, b, c) = (spd(96, 7), spd(96, 7), spd(96, 8));
        assert_eq!(matrix_digest(&a), matrix_digest(&b));
        assert_ne!(matrix_digest(&a), matrix_digest(&c));
        assert!(a.is_symmetric());
    }

    #[test]
    fn generated_inputs_factor_at_every_workload_size() {
        for (n, b) in [(2048usize, 128usize), (1024, 32), (3072, 128)] {
            let mut a = spd(n, 1);
            potrf_dag_with(&mut a, b, KernelImpl::Fast)
                .unwrap_or_else(|e| panic!("n={n} b={b}: {e:?}"));
        }
    }
}
