//! The service's job kinds and the deterministic SPD problem builders
//! behind them.
//!
//! Every request names a `(kind, key, n)` triple; the actual matrix and
//! right-hand side are *derived* from that triple by the pure builders
//! here.  That is the linchpin of the chaos harness: the checker can
//! rebuild the exact problem a completed response claims to have solved
//! and factor it directly, so "bit-identical to an unfaulted run" is a
//! digest comparison, not a judgement call.
//!
//! The GP and Kalman builders are the ones the `gp_regression` and
//! `kalman_filter` examples previously duplicated inline; both examples
//! now import them from here.

use cholcomm_matrix::digest::{fnv1a, fnv1a_words};
use cholcomm_matrix::{spd, Matrix};
use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};

/// What a request asks the service to compute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JobKind {
    /// Factor a synthetic SPD matrix (the raw POTRF benchmark job).
    Factor,
    /// Factor and solve one right-hand side through the factor.
    Solve,
    /// Gaussian-process posterior: factor the RBF kernel matrix over a
    /// synthetic training set and solve for the posterior weights.
    GpPosterior,
    /// Kalman step: factor the innovation covariance `H P H^T + R` of a
    /// constant-velocity tracking model and solve for the gain rows.
    KalmanStep,
}

impl JobKind {
    /// Stable tag for digests, logs, and JSON artifacts.
    pub fn tag(self) -> &'static str {
        match self {
            JobKind::Factor => "factor",
            JobKind::Solve => "solve",
            JobKind::GpPosterior => "gp",
            JobKind::KalmanStep => "kalman",
        }
    }

    /// All four kinds, for sweeps.
    pub const ALL: [JobKind; 4] = [
        JobKind::Factor,
        JobKind::Solve,
        JobKind::GpPosterior,
        JobKind::KalmanStep,
    ];
}

/// A fully materialized SPD problem: the matrix to factor and, for the
/// solve-flavoured kinds, a right-hand side.
#[derive(Debug, Clone)]
pub struct Problem {
    /// The SPD matrix.
    pub a: Matrix<f64>,
    /// Right-hand side (absent for pure [`JobKind::Factor`] jobs).
    pub rhs: Option<Vec<f64>>,
}

/// Mix `(kind, key, n)` into the seed for the problem generators — also
/// the cache key and the shard-routing key, so equal triples always mean
/// bit-equal problems, one cache slot, and one home shard.  FNV-1a over
/// the 24 little-endian bytes of `[kind + 1, key, n]`.
pub fn problem_digest(kind: JobKind, key: u64, n: usize) -> u64 {
    fnv1a_words(fnv1a(b""), [kind as u64 + 1, key, n as u64])
}

/// Build the problem a `(kind, key, n)` request denotes.  Pure: equal
/// triples produce bit-equal matrices and right-hand sides.
pub fn build(kind: JobKind, key: u64, n: usize) -> Problem {
    let seed = problem_digest(kind, key, n);
    match kind {
        JobKind::Factor => Problem {
            a: spd::random_spd(n, &mut spd::test_rng(seed)),
            rhs: None,
        },
        JobKind::Solve => {
            let mut rng = spd::test_rng(seed);
            let a = spd::random_spd(n, &mut rng);
            let mut rhs = vec![0.0; n];
            rng.fill_range(&mut rhs, -1.0..1.0);
            Problem { a, rhs: Some(rhs) }
        }
        JobKind::GpPosterior => {
            let gp = GpProblem::synthetic(n, seed);
            Problem {
                a: gp.kernel_matrix(),
                rhs: Some(gp.ys),
            }
        }
        JobKind::KalmanStep => {
            let (s, innov) = innovation_covariance(n, seed);
            Problem {
                a: s,
                rhs: Some(innov),
            }
        }
    }
}

// --------------------------------------------------------------------
// Gaussian-process regression pieces (shared with examples/gp_regression)
// --------------------------------------------------------------------

/// The smooth target function the GP example learns.
pub fn gp_target(x: f64) -> f64 {
    (2.0 * x).sin() + 0.5 * x
}

/// A synthetic GP regression problem: noisy samples of [`gp_target`] on
/// a jittered grid, plus the RBF hyperparameters.
#[derive(Debug, Clone)]
pub struct GpProblem {
    /// Training inputs.
    pub xs: Vec<f64>,
    /// Noisy training targets.
    pub ys: Vec<f64>,
    /// RBF lengthscale.
    pub lengthscale: f64,
    /// Observation noise standard deviation (also the diagonal jitter).
    pub noise: f64,
}

impl GpProblem {
    /// `n` noisy samples of [`gp_target`] on a jittered grid over
    /// `[0, 4)`, seeded.  The jitter keeps points well separated (at
    /// least 40% of the grid spacing) while making the kernel matrix —
    /// not just the targets — a function of the seed.
    pub fn synthetic(n: usize, seed: u64) -> GpProblem {
        let mut rng = StdRng::seed_from_u64(seed);
        let noise = 0.05;
        let spacing = 4.0 / n as f64;
        let xs: Vec<f64> = (0..n)
            .map(|i| (i as f64 + 0.6 * (rng.random_range(0.0..1.0) - 0.5)) * spacing)
            .collect();
        let ys = xs
            .iter()
            .map(|&x| gp_target(x) + noise * rng.random_range(-1.0..1.0))
            .collect();
        GpProblem {
            xs,
            ys,
            lengthscale: 0.4,
            noise,
        }
    }

    /// The SPD kernel matrix `K + noise^2 I` this problem factors.
    pub fn kernel_matrix(&self) -> Matrix<f64> {
        spd::rbf_kernel(&self.xs, self.lengthscale, self.noise)
    }

    /// Posterior mean at `xstar` given the weights `alpha = K^{-1} y`.
    pub fn predict_mean(&self, alpha: &[f64], xstar: f64) -> f64 {
        self.xs
            .iter()
            .zip(alpha)
            .map(|(&xi, &ai)| {
                let d = (xstar - xi) / self.lengthscale;
                (-0.5 * d * d).exp() * ai
            })
            .sum()
    }

    /// Log marginal likelihood from the fit term and the factor logdet.
    pub fn log_marginal_likelihood(&self, alpha: &[f64], logdet: f64) -> f64 {
        let fit: f64 = self.ys.iter().zip(alpha).map(|(y, a)| y * a).sum();
        -0.5 * fit
            - 0.5 * logdet
            - 0.5 * self.ys.len() as f64 * (2.0 * std::f64::consts::PI).ln()
    }
}

// --------------------------------------------------------------------
// Kalman filter pieces (shared with examples/kalman_filter)
// --------------------------------------------------------------------

/// The 2-D constant-velocity tracking model of the Kalman example:
/// state `[x, y, vx, vy]`, position-only observations.
#[derive(Debug, Clone)]
pub struct CvModel {
    /// State transition `F` (4x4).
    pub f: Matrix<f64>,
    /// Observation matrix `H` (2x4).
    pub h: Matrix<f64>,
    /// Measurement noise covariance `R` (2x2).
    pub r: Matrix<f64>,
    /// Time step.
    pub dt: f64,
    /// Measurement noise standard deviation.
    pub meas_noise: f64,
}

impl CvModel {
    /// The standard model both the example and the service job use.
    pub fn new(dt: f64, meas_noise: f64) -> CvModel {
        let f = Matrix::from_rows(
            4,
            4,
            &[
                1.0, 0.0, dt, 0.0, //
                0.0, 1.0, 0.0, dt, //
                0.0, 0.0, 1.0, 0.0, //
                0.0, 0.0, 0.0, 1.0,
            ],
        );
        let h = Matrix::from_rows(2, 4, &[1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0]);
        let r = Matrix::from_rows(
            2,
            2,
            &[meas_noise * meas_noise, 0.0, 0.0, meas_noise * meas_noise],
        );
        CvModel {
            f,
            h,
            r,
            dt,
            meas_noise,
        }
    }
}

/// The SPD innovation covariance `S = H P H^T + R` of a batched
/// multi-sensor Kalman step — `n` position sensors observing a state of
/// dimension `2n` — plus the innovation vector to solve against.  This
/// scales the Kalman example's 2x2 innovation solve to service-sized
/// matrices while keeping its exact structure.
pub fn innovation_covariance(n: usize, seed: u64) -> (Matrix<f64>, Vec<f64>) {
    let mut rng = spd::test_rng(seed);
    let state = 2 * n.max(1);
    // Predicted covariance P: random SPD of order `state`, as after a few
    // predict steps.  H selects the first n state components (sensor i
    // reads state i), so S = H P H^T + R is the leading n x n block of P
    // plus R — the only block of P that is ever formed.
    let meas_noise = 0.5;
    let mut s = spd::random_spd_leading(state, n, &mut rng);
    for d in 0..n {
        s[(d, d)] += meas_noise * meas_noise;
    }
    let mut innov = vec![0.0; n];
    rng.fill_range(&mut innov, -1.0..1.0);
    (s, innov)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use cholcomm_matrix::{matrix_digest, slice_digest};

    #[test]
    fn builders_are_pure_functions_of_the_triple() {
        for kind in JobKind::ALL {
            let p1 = build(kind, 42, 20);
            let p2 = build(kind, 42, 20);
            assert_eq!(matrix_digest(&p1.a), matrix_digest(&p2.a), "{kind:?}");
            assert_eq!(p1.rhs, p2.rhs, "{kind:?}");
            let p3 = build(kind, 43, 20);
            assert_ne!(matrix_digest(&p1.a), matrix_digest(&p3.a), "{kind:?}");
        }
    }

    /// Captured on the commit before the builders were rewritten to
    /// stream: `(kind, n, matrix_digest(a), slice_digest(rhs), rhs[0] bits)`
    /// of `build(kind, 42, n)`.
    #[test]
    fn builders_keep_their_golden_bits() {
        type Golden = (JobKind, usize, u64, Option<(u64, u64)>);
        const GOLDEN: [Golden; 8] = [
            (JobKind::Factor, 20, 0x9a83_6294_b0cc_e788, None),
            (JobKind::Solve, 20, 0x16e2_6c1c_5471_1695, Some((0x627d_1e8d_078e_276e, 0x3fe5_f5b5_b3c7_4cc8))),
            (JobKind::GpPosterior, 20, 0xee5f_adef_ea8d_8a79, Some((0x9bbd_7bec_aa62_d0fb, 0x3fb1_1625_6ab0_8d74))),
            (JobKind::KalmanStep, 20, 0x0fc2_ebec_b712_7a3c, Some((0x926b_73cb_baa4_5b70, 0x3fe5_29d9_ae40_e480))),
            (JobKind::Factor, 33, 0xd2a2_7070_9f73_a83d, None),
            (JobKind::Solve, 33, 0xd721_ceea_e1e3_53a9, Some((0xdbf2_c56d_45dc_581c, 0xbfe5_aa74_e07a_f982))),
            (JobKind::GpPosterior, 33, 0xa43b_1caa_3a9a_790b, Some((0x40f0_e8fe_9526_4da0, 0x3fc0_4e3c_b070_bc5e))),
            (JobKind::KalmanStep, 33, 0x9e10_916a_39a4_e07f, Some((0xf290_7b91_615d_82d3, 0xbfc3_fa90_9169_de60))),
        ];
        for (kind, n, want_a, want_rhs) in GOLDEN {
            let p = build(kind, 42, n);
            assert_eq!(matrix_digest(&p.a), want_a, "{kind:?} n={n}");
            let got_rhs = p.rhs.map(|r| (slice_digest(&r), r[0].to_bits()));
            assert_eq!(got_rhs, want_rhs, "{kind:?} n={n}");
        }
    }

    /// The definition `innovation_covariance` must keep: form all of `P`,
    /// cut its leading block, and only then draw the innovation.
    #[test]
    fn innovation_covariance_equals_the_full_p_definition() {
        for n in (0..24).chain([32, 48, 96]) {
            let seed = problem_digest(JobKind::KalmanStep, 9, n);
            let mut rng = spd::test_rng(seed);
            let p = spd::random_spd(2 * n.max(1), &mut rng);
            let mut want = p.submatrix(0, 0, n, n);
            for d in 0..n {
                want[(d, d)] += 0.25;
            }
            let want_innov: Vec<f64> = (0..n).map(|_| rng.random_range(-1.0..1.0)).collect();

            let (s, innov) = innovation_covariance(n, seed);
            assert_eq!(matrix_digest(&s), matrix_digest(&want), "n={n}");
            assert_eq!(slice_digest(&innov), slice_digest(&want_innov), "n={n}");
        }
    }

    #[test]
    fn every_kind_builds_a_factorable_matrix() {
        for kind in JobKind::ALL {
            let mut p = build(kind, 7, 12);
            assert!(p.a.is_square());
            assert_eq!(p.a.rows(), 12);
            cholcomm_matrix::kernels::potf2(&mut p.a)
                .unwrap_or_else(|e| panic!("{kind:?} not SPD: {e}"));
            if let Some(rhs) = &p.rhs {
                assert_eq!(rhs.len(), 12);
            }
        }
    }

    #[test]
    fn digests_separate_kinds_keys_and_sizes() {
        let d = problem_digest(JobKind::Factor, 1, 16);
        assert_ne!(d, problem_digest(JobKind::Solve, 1, 16));
        assert_ne!(d, problem_digest(JobKind::Factor, 2, 16));
        assert_ne!(d, problem_digest(JobKind::Factor, 1, 24));
    }

    /// Captured on the commit before `problem_digest` reused
    /// `digest::fnv1a_update`: every builder seed, cache key and home
    /// shard depends on this value.
    #[test]
    fn problem_digest_is_pinned() {
        assert_eq!(problem_digest(JobKind::Factor, 42, 20), 0x0516_0bd6_2239_9c9a);
    }

    #[test]
    fn gp_problem_matches_the_example_recipe() {
        let gp = GpProblem::synthetic(50, 7);
        assert_eq!(gp.xs.len(), 50);
        let k = gp.kernel_matrix();
        assert!(k.is_symmetric());
        // Mean prediction with zero weights is zero.
        assert_eq!(gp.predict_mean(&vec![0.0; 50], 1.0), 0.0);
    }

    #[test]
    fn cv_model_shapes() {
        let m = CvModel::new(0.1, 0.5);
        assert_eq!((m.f.rows(), m.f.cols()), (4, 4));
        assert_eq!((m.h.rows(), m.h.cols()), (2, 4));
        assert_eq!((m.r.rows(), m.r.cols()), (2, 2));
        assert_eq!(m.r[(0, 0)], 0.25);
    }
}
