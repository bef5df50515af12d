//! Symmetric positive definite workload generators.
//!
//! The paper's algorithms assume an SPD input ("no pivoting is performed"),
//! so every experiment in the workspace draws from these generators.  They
//! cover random well-conditioned Gram matrices, tunable-conditioning
//! variants, classic structured SPD families, and the RBF kernel matrices
//! used by the Gaussian-process example application.

use crate::dense::Matrix;
use crate::engine::KernelImpl;
use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};

/// Deterministic RNG for reproducible workloads and tests.
pub fn test_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Random well-conditioned SPD matrix: `A = G * G^T + n * I` with `G`
/// uniform in `[-1, 1]`.  The diagonal shift keeps the condition number
/// modest so that all algorithm variants agree to tight tolerances.
pub fn random_spd(n: usize, rng: &mut impl Rng) -> Matrix<f64> {
    random_spd_leading(n, n, rng)
}

/// The leading `lead x lead` block of `random_spd(n, rng)`, bit for bit,
/// for `lead <= n`.  It draws `G` column by column, one
/// [`Rng::fill_range`] for the `lead` entries it keeps and one
/// [`Rng::discard`] over the `n - lead` it does not, so `rng` is left
/// exactly where `random_spd` leaves it; and it forms only the block
/// asked for: a caller that keeps a quarter of the matrix pays a quarter
/// of the flops.
///
/// The Gram product is one strict GEMM, `A = G_lead * G_lead^T` into
/// zeros, where `G_lead` is the leading `lead` rows of `G`.  The strict
/// engine keeps the reference's per-element order and rounding: each
/// element is `0.0 + g_ik * (1.0 * g_jk)` summed over ascending `k`,
/// which is the dot-product form's sum bit for bit.  The upper triangle
/// needs no mirroring, since `g_ik * g_jk == g_jk * g_ik` exactly.
pub fn random_spd_leading(n: usize, lead: usize, rng: &mut impl Rng) -> Matrix<f64> {
    assert!(lead <= n, "leading block larger than the matrix");
    let mut g = Matrix::zeros(lead, n);
    for k in 0..n {
        rng.fill_range(g.col_mut(k), -1.0..1.0);
        rng.discard((n - lead) as u64);
    }
    let mut a = Matrix::zeros(lead, lead);
    KernelImpl::FastStrict.gemm_nt(&mut a, 1.0, &g, &g);
    for d in 0..lead {
        a[(d, d)] += n as f64;
    }
    a
}

/// SPD matrix with approximately the requested 2-norm condition number,
/// built as `Q D Q^T` with log-spaced eigenvalues and a random orthogonal
/// `Q` (from Gram–Schmidt on a random matrix).
///
/// The product is one strict GEMM, `(Q D) * Q^T` into zeros: element
/// `(i, j)` sums `(q_ik * d_k) * q_jk` over ascending `k` from `0.0`,
/// the same rounded products in the same order as the elementwise form.
pub fn random_spd_with_cond(n: usize, cond: f64, rng: &mut impl Rng) -> Matrix<f64> {
    assert!(cond >= 1.0, "condition number must be >= 1");
    let q = random_orthogonal(n, rng);
    let eig = log_spaced_eigenvalues(n, cond);
    let qd = Matrix::from_fn(n, n, |i, k| q[(i, k)] * eig[k]);
    let mut a = Matrix::zeros(n, n);
    KernelImpl::FastStrict.gemm_nt(&mut a, 1.0, &qd, &q);
    a
}

/// `n` eigenvalues log-spaced in `[1/cond, 1]`, largest first.
fn log_spaced_eigenvalues(n: usize, cond: f64) -> Vec<f64> {
    (0..n)
        .map(|i| {
            if n == 1 {
                1.0
            } else {
                (-(i as f64) / (n as f64 - 1.0) * cond.ln()).exp()
            }
        })
        .collect()
}

/// Random orthogonal matrix via modified Gram–Schmidt on a random matrix.
pub fn random_orthogonal(n: usize, rng: &mut impl Rng) -> Matrix<f64> {
    let mut q = Matrix::from_fn(n, n, |_, _| rng.random_range(-1.0..1.0));
    for j in 0..n {
        for k in 0..j {
            let mut dot = 0.0;
            for i in 0..n {
                dot += q[(i, j)] * q[(i, k)];
            }
            for i in 0..n {
                let v = q[(i, k)];
                q[(i, j)] -= dot * v;
            }
        }
        let mut nrm = 0.0f64;
        for i in 0..n {
            nrm += q[(i, j)] * q[(i, j)];
        }
        let nrm = nrm.sqrt().max(1e-300);
        for i in 0..n {
            q[(i, j)] /= nrm;
        }
    }
    q
}

/// The classic SPD second-difference (discrete Laplacian) matrix:
/// tridiagonal with 2 on the diagonal and -1 off it.
pub fn laplacian_1d(n: usize) -> Matrix<f64> {
    Matrix::from_fn(n, n, |i, j| {
        if i == j {
            2.0
        } else if i.abs_diff(j) == 1 {
            -1.0
        } else {
            0.0
        }
    })
}

/// The Lehmer matrix `A[i,j] = min(i+1, j+1) / max(i+1, j+1)` — a classic
/// dense SPD test matrix with slowly decaying spectrum.
pub fn lehmer(n: usize) -> Matrix<f64> {
    Matrix::from_fn(n, n, |i, j| {
        let (a, b) = ((i + 1) as f64, (j + 1) as f64);
        a.min(b) / a.max(b)
    })
}

/// The "min" matrix `A[i,j] = min(i, j) + 1`, SPD with Cholesky factor
/// equal to the all-ones lower triangle — handy for exact-value tests.
pub fn min_matrix(n: usize) -> Matrix<f64> {
    Matrix::from_fn(n, n, |i, j| (i.min(j) + 1) as f64)
}

/// The Hilbert matrix `A[i,j] = 1/(i+j+1)` — SPD but catastrophically
/// ill-conditioned; used by the conditioning stress tests.
pub fn hilbert(n: usize) -> Matrix<f64> {
    Matrix::from_fn(n, n, |i, j| 1.0 / (i + j + 1) as f64)
}

/// Random banded SPD matrix with the given (half-)bandwidth: a banded
/// Gram matrix `G G^T + n I` where `G` is banded — the structure of
/// discretized 1-D operators.
pub fn random_banded_spd(n: usize, bandwidth: usize, rng: &mut impl Rng) -> Matrix<f64> {
    let g = Matrix::from_fn(n, n, |i, j| {
        if i.abs_diff(j) <= bandwidth {
            rng.random_range(-1.0..1.0)
        } else {
            0.0
        }
    });
    let mut a = Matrix::zeros(n, n);
    for j in 0..n {
        for i in j..n {
            if i.abs_diff(j) <= 2 * bandwidth {
                let mut s = 0.0;
                for k in i.saturating_sub(bandwidth)..(j + bandwidth + 1).min(n) {
                    s += g[(i, k)] * g[(j, k)];
                }
                a[(i, j)] = s;
            }
        }
        a[(j, j)] += n as f64;
    }
    a.mirror_lower();
    a
}

/// Squared-exponential (RBF) kernel Gram matrix over the given 1-D sample
/// points, plus `noise^2` on the diagonal.  This is the SPD matrix at the
/// heart of Gaussian-process regression — the motivating dense-Cholesky
/// workload of the example applications.
pub fn rbf_kernel(points: &[f64], lengthscale: f64, noise: f64) -> Matrix<f64> {
    let n = points.len();
    // `(p_i - p_j) / l` and `(p_j - p_i) / l` differ only in sign, and the
    // sign is squared away: the upper half is the lower half's bits.
    let mut a = Matrix::zeros(n, n);
    for (j, &pj) in points.iter().enumerate() {
        let below = &mut a.col_mut(j)[j..];
        for (k, &pi) in below.iter_mut().zip(&points[j..]) {
            let d = (pi - pj) / lengthscale;
            *k = (-0.5 * d * d).exp();
        }
        below[0] += noise * noise;
    }
    a.mirror_lower();
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::potf2;
    use crate::norms::max_abs_diff;

    /// `random_spd` as first written: one dot product per element, walking
    /// `G` at stride `n`.  Kept as the bit-identity oracle.
    fn random_spd_oracle(n: usize, rng: &mut impl Rng) -> Matrix<f64> {
        let g = Matrix::from_fn(n, n, |_, _| rng.random_range(-1.0..1.0));
        let mut a = Matrix::zeros(n, n);
        for j in 0..n {
            for i in j..n {
                let mut s = 0.0;
                for k in 0..n {
                    s += g[(i, k)] * g[(j, k)];
                }
                a[(i, j)] = s;
            }
            a[(j, j)] += n as f64;
        }
        a.mirror_lower();
        a
    }

    /// `random_spd_with_cond` as first written: every element its own
    /// `Q D Q^T` dot product.  Kept as the bit-identity oracle.
    fn random_spd_with_cond_oracle(n: usize, cond: f64, rng: &mut impl Rng) -> Matrix<f64> {
        let q = random_orthogonal(n, rng);
        let eig = log_spaced_eigenvalues(n, cond);
        Matrix::from_fn(n, n, |i, j| {
            let mut s = 0.0;
            for k in 0..n {
                s += q[(i, k)] * eig[k] * q[(j, k)];
            }
            s
        })
    }

    /// `rbf_kernel` as first written: every element computed on its own.
    fn rbf_kernel_oracle(points: &[f64], lengthscale: f64, noise: f64) -> Matrix<f64> {
        let n = points.len();
        Matrix::from_fn(n, n, |i, j| {
            let d = (points[i] - points[j]) / lengthscale;
            let k = (-0.5 * d * d).exp();
            if i == j {
                k + noise * noise
            } else {
                k
            }
        })
    }

    fn oracle_orders() -> impl Iterator<Item = usize> {
        (0..40).chain([64, 96, 192])
    }

    fn assert_same_bits(got: &Matrix<f64>, want: &Matrix<f64>, what: &str) {
        assert_eq!((got.rows(), got.cols()), (want.rows(), want.cols()), "{what}");
        for (idx, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}: element {idx}");
        }
    }

    #[test]
    fn streaming_random_spd_matches_the_dot_product_oracle_bit_for_bit() {
        for n in oracle_orders() {
            let (mut r1, mut r2) = (test_rng(n as u64 + 11), test_rng(n as u64 + 11));
            let got = random_spd(n, &mut r1);
            let want = random_spd_oracle(n, &mut r2);
            assert_same_bits(&got, &want, &format!("random_spd n={n}"));
            // Both leave the generator in the same state.
            assert_eq!(r1.next_u64(), r2.next_u64());
        }
    }

    #[test]
    fn leading_block_is_the_submatrix_of_the_full_matrix() {
        for (n, lead) in [(0, 0), (2, 0), (2, 1), (7, 3), (16, 8), (33, 33), (192, 96)] {
            let (mut r1, mut r2) = (test_rng(5), test_rng(5));
            let got = random_spd_leading(n, lead, &mut r1);
            let want = random_spd_oracle(n, &mut r2).submatrix(0, 0, lead, lead);
            assert_same_bits(&got, &want, &format!("leading n={n} lead={lead}"));
            assert_eq!(r1.next_u64(), r2.next_u64());
        }
    }

    /// The Gram product fans out over the pool once `m * n * k` passes the
    /// GEMM's threshold (n = 256 and the (320, 256) block do), as on a
    /// shard with kernel parallelism on: the bits must not depend on it.
    #[test]
    fn gram_product_on_the_pool_matches_the_oracle_bit_for_bit() {
        let shapes = [(0, 0), (1, 1), (33, 33), (96, 48), (256, 256), (320, 256)];
        let want: Vec<Matrix<f64>> = shapes
            .iter()
            .map(|&(n, lead)| {
                random_spd_oracle(n, &mut test_rng(n as u64 + 7)).submatrix(0, 0, lead, lead)
            })
            .collect();
        for workers in [1, 2, 4] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(workers)
                .build()
                .expect("pool");
            pool.install(|| {
                let prev = crate::parallel::set_kernel_parallelism(true);
                for (&(n, lead), want) in shapes.iter().zip(&want) {
                    let what = format!("n={n} lead={lead} on {workers} workers");
                    let got = random_spd_leading(n, lead, &mut test_rng(n as u64 + 7));
                    assert_same_bits(&got, want, &what);
                    if lead == n {
                        let got = random_spd(n, &mut test_rng(n as u64 + 7));
                        assert_same_bits(&got, want, &what);
                    }
                }
                crate::parallel::set_kernel_parallelism(prev);
            });
        }
    }

    #[test]
    fn conditioned_spd_matches_the_elementwise_oracle_bit_for_bit() {
        for n in [0, 1, 2, 7, 16, 33, 64, 100] {
            for cond in [1.0, 1e3, 1e6, 1e12] {
                let (mut r1, mut r2) = (test_rng(n as u64 + 19), test_rng(n as u64 + 19));
                let got = random_spd_with_cond(n, cond, &mut r1);
                let want = random_spd_with_cond_oracle(n, cond, &mut r2);
                let what = format!("random_spd_with_cond n={n} cond={cond:e}");
                assert_same_bits(&got, &want, &what);
                assert_eq!(r1.next_u64(), r2.next_u64());
            }
        }
    }

    #[test]
    fn mirrored_rbf_kernel_matches_the_elementwise_oracle_bit_for_bit() {
        for n in oracle_orders() {
            let mut rng = test_rng(n as u64 + 3);
            let pts: Vec<f64> = (0..n).map(|_| rng.random_range(-4.0..4.0)).collect();
            let got = rbf_kernel(&pts, 0.4, 0.05);
            let want = rbf_kernel_oracle(&pts, 0.4, 0.05);
            assert_same_bits(&got, &want, &format!("rbf_kernel n={n}"));
        }
    }

    #[test]
    fn random_spd_is_symmetric_and_factors() {
        let mut rng = test_rng(1);
        let a = random_spd(24, &mut rng);
        assert!(a.is_symmetric());
        let mut f = a.clone();
        potf2(&mut f).expect("SPD");
    }

    #[test]
    fn conditioned_spd_factors_and_is_symmetric() {
        let mut rng = test_rng(2);
        let a = random_spd_with_cond(16, 1e6, &mut rng);
        for i in 0..16 {
            for j in 0..16 {
                assert!((a[(i, j)] - a[(j, i)]).abs() < 1e-12);
            }
        }
        let mut f = a.clone();
        // Symmetrize exactly before factoring (floating-point Q D Q^T is
        // symmetric only to rounding).
        for j in 0..16 {
            for i in j + 1..16 {
                let v = 0.5 * (f[(i, j)] + f[(j, i)]);
                f[(i, j)] = v;
                f[(j, i)] = v;
            }
        }
        potf2(&mut f).expect("SPD");
    }

    #[test]
    fn orthogonal_has_orthonormal_columns() {
        let mut rng = test_rng(3);
        let q = random_orthogonal(10, &mut rng);
        let qtq = crate::kernels::matmul(&q.transpose(), &q);
        let id = Matrix::<f64>::identity(10);
        assert!(max_abs_diff(&qtq, &id) < 1e-10);
    }

    #[test]
    fn laplacian_and_lehmer_factor() {
        let mut l1 = laplacian_1d(32);
        potf2(&mut l1).expect("laplacian SPD");
        let mut l2 = lehmer(32);
        potf2(&mut l2).expect("lehmer SPD");
    }

    #[test]
    fn min_matrix_has_ones_factor() {
        let mut a = min_matrix(8);
        potf2(&mut a).unwrap();
        for j in 0..8 {
            for i in j..8 {
                assert!((a[(i, j)] - 1.0).abs() < 1e-12, "L[{i},{j}] = {}", a[(i, j)]);
            }
        }
    }

    #[test]
    fn hilbert_small_orders_factor() {
        // Hilbert is SPD in exact arithmetic; in f64 it survives only
        // small orders — which is exactly what it is for.
        let mut h = hilbert(8);
        potf2(&mut h).expect("small Hilbert is numerically SPD");
        let mut h_big = hilbert(60);
        assert!(potf2(&mut h_big).is_err(), "n=60 Hilbert breaks f64");
    }

    #[test]
    fn banded_spd_is_banded_symmetric_and_factors() {
        let mut rng = test_rng(4);
        let a = random_banded_spd(32, 3, &mut rng);
        assert!(a.is_symmetric());
        assert_eq!(a[(0, 20)], 0.0, "outside the band");
        let mut f = a.clone();
        potf2(&mut f).expect("SPD");
        // Cholesky preserves the (lower) bandwidth.
        for j in 0..32 {
            for i in j..32 {
                if i - j > 6 {
                    assert_eq!(f[(i, j)], 0.0, "fill-in outside band at ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn rbf_kernel_is_spd() {
        let pts: Vec<f64> = (0..40).map(|i| i as f64 * 0.1).collect();
        let mut k = rbf_kernel(&pts, 0.5, 1e-2);
        assert!(k.is_symmetric());
        potf2(&mut k).expect("kernel SPD");
    }
}
