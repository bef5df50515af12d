//! 2.5D (replicated) parallel matrix multiplication on the simulated
//! machine — the "general `M`" side of the paper's Table 2.
//!
//! The 2D lower bounds the paper instantiates (`Omega(n^2/sqrt(P))`
//! words) assume minimal memory `M = O(n^2/P)`.  Theorem 2 (Irony–
//! Toledo–Tiskin), which the whole reduction rests on, is stated for
//! *general* `M`: `words = Omega(n^3 / (P sqrt(M)))` — so extra memory
//! buys communication.  The classical algorithm that realises the trade
//! is `c`-fold replication: arrange `P = c q^2` processors as a
//! `q x q x c` torus, give every layer a full copy of `A` and `B`, let
//! layer `l` process a `1/c` slice of the inner dimension with SUMMA-style
//! row/column broadcasts, and reduce the partial `C`s across layers.
//! Critical-path words drop by `~sqrt(c)` versus 2D — measured here on
//! real payloads, verified against the sequential product.
//!
//! (The paper leaves "3D Cholesky" as future work; this module supplies
//! the matmul substrate that work would build on, and demonstrates the
//! general-`M` bound empirically.)

use cholcomm_distsim::{CostModel, CriticalPath, Machine};
use cholcomm_matrix::{KernelImpl, Matrix, MatrixError};

/// Outcome of a 2.5D multiplication run.
#[derive(Debug, Clone)]
pub struct Mm25dReport {
    /// The computed product (gathered from layer 0).
    pub product: Matrix<f64>,
    /// Critical-path communication.
    pub critical: CriticalPath,
    /// Busiest-processor totals `(words, messages)`.
    pub max_proc: (u64, u64),
    /// Modelled finishing time.
    pub makespan: f64,
    /// Per-processor memory actually used (words) — grows with `c`.
    pub words_per_proc: usize,
}

/// Multiply `a * b` on a `q x q x c` processor torus (`P = c q^2`).
/// Requires `n` divisible by `q` and `q` divisible by `c`.
pub fn matmul_25d(
    a: &Matrix<f64>,
    b: &Matrix<f64>,
    q: usize,
    c: usize,
    model: CostModel,
) -> Result<Mm25dReport, MatrixError> {
    let n = a.rows();
    if !a.is_square() || !b.is_square() || b.rows() != n {
        return Err(MatrixError::DimensionMismatch {
            context: "matmul_25d needs equal-order square matrices",
        });
    }
    assert!(q > 0 && c > 0, "grid dimensions must be positive");
    assert!(n.is_multiple_of(q), "n must be divisible by q");
    assert!(q.is_multiple_of(c), "q must be divisible by c (k-slices per layer)");
    let p = c * q * q;
    let nb = n / q;
    let rank = |i: usize, j: usize, l: usize| i + j * q + l * q * q;

    let mut machine = Machine::new(p, model);
    // blocks[(i, j, l)] = (A copy, B copy, C partial) held by that proc.
    let block = |m: &Matrix<f64>, i: usize, j: usize| m.submatrix(i * nb, j * nb, nb, nb);
    let mut a_loc: Vec<Option<Matrix<f64>>> = vec![None; p];
    let mut b_loc: Vec<Option<Matrix<f64>>> = vec![None; p];
    let mut c_loc: Vec<Matrix<f64>> = vec![Matrix::zeros(nb, nb); p];

    // Layer 0 owns the inputs.
    for i in 0..q {
        for j in 0..q {
            a_loc[rank(i, j, 0)] = Some(block(a, i, j));
            b_loc[rank(i, j, 0)] = Some(block(b, i, j));
        }
    }

    // --- Replicate A and B across the c layers (fiber broadcasts) ---
    if c > 1 {
        for i in 0..q {
            for j in 0..q {
                let fiber: Vec<usize> = (0..c).map(|l| rank(i, j, l)).collect();
                machine.broadcast(rank(i, j, 0), &fiber, 2 * nb * nb);
                // Layer 0 was populated for every (i, j) above.
                let (Some(ab), Some(bb)) = (
                    a_loc[rank(i, j, 0)].clone(),
                    b_loc[rank(i, j, 0)].clone(),
                ) else {
                    return Err(MatrixError::DimensionMismatch {
                        context: "2.5D layer-0 block missing before replication",
                    });
                };
                for l in 1..c {
                    a_loc[rank(i, j, l)] = Some(ab.clone());
                    b_loc[rank(i, j, l)] = Some(bb.clone());
                }
            }
        }
    }

    // --- SUMMA within each layer over its k-slice ---
    let steps_per_layer = q / c;
    for l in 0..c {
        for s in 0..steps_per_layer {
            let t = l * steps_per_layer + s; // global k-step
            // Broadcast A(i, t) along each grid row of layer l.
            for i in 0..q {
                let row: Vec<usize> = (0..q).map(|j| rank(i, j, l)).collect();
                machine.broadcast(rank(i, t, l), &row, nb * nb);
            }
            // Broadcast B(t, j) along each grid column of layer l.
            for j in 0..q {
                let col: Vec<usize> = (0..q).map(|i| rank(i, j, l)).collect();
                machine.broadcast(rank(t, j, l), &col, nb * nb);
            }
            // Everyone accumulates C(i, j) += A(i, t) * B(t, j).
            for i in 0..q {
                // Every layer holds replicas after the fiber broadcasts.
                let Some(a_block) = a_loc[rank(i, t, l)].clone() else {
                    return Err(MatrixError::DimensionMismatch {
                        context: "2.5D A replica missing at SUMMA step",
                    });
                };
                for j in 0..q {
                    let Some(b_block) = b_loc[rank(t, j, l)].clone() else {
                        return Err(MatrixError::DimensionMismatch {
                            context: "2.5D B replica missing at SUMMA step",
                        });
                    };
                    let dst = rank(i, j, l);
                    KernelImpl::Reference.gemm_nn(&mut c_loc[dst], 1.0, &a_block, &b_block);
                    machine.compute(dst, 2 * (nb as u64).pow(3));
                }
            }
        }
    }

    // --- Reduce partial C across layers to layer 0 ---
    if c > 1 {
        for i in 0..q {
            for j in 0..q {
                let fiber: Vec<usize> = (0..c).map(|l| rank(i, j, l)).collect();
                machine.reduce(rank(i, j, 0), &fiber, nb * nb, (nb * nb) as u64);
                for l in 1..c {
                    let add = c_loc[rank(i, j, l)].clone();
                    let dst = rank(i, j, 0);
                    for col in 0..nb {
                        for row in 0..nb {
                            c_loc[dst][(row, col)] += add[(row, col)];
                        }
                    }
                }
            }
        }
    }

    // Gather the product.
    let mut product = Matrix::zeros(n, n);
    for i in 0..q {
        for j in 0..q {
            product.set_submatrix(i * nb, j * nb, &c_loc[rank(i, j, 0)]);
        }
    }

    Ok(Mm25dReport {
        product,
        critical: machine.critical_path(),
        max_proc: machine.max_proc_totals(),
        makespan: machine.makespan(),
        words_per_proc: 3 * nb * nb, // A + B + C resident per processor
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use cholcomm_matrix::{kernels, norms, spd, Matrix};
    use rand::RngExt;

    fn random_pair(n: usize, seed: u64) -> (Matrix<f64>, Matrix<f64>) {
        let mut rng = spd::test_rng(seed);
        let a = Matrix::from_fn(n, n, |_, _| rng.random_range(-1.0..1.0));
        let b = Matrix::from_fn(n, n, |_, _| rng.random_range(-1.0..1.0));
        (a, b)
    }

    #[test]
    fn multiplies_correctly_2d_and_25d() {
        let (a, b) = random_pair(24, 140);
        for (q, c) in [(1usize, 1usize), (2, 1), (4, 1), (4, 2), (4, 4), (6, 2)] {
            let rep = matmul_25d(&a, &b, q, c, CostModel::counting()).unwrap();
            let want = kernels::matmul(&a, &b);
            let diff = norms::max_abs_diff(&rep.product, &want);
            assert!(diff < 1e-10, "q={q} c={c}: {diff}");
        }
    }

    #[test]
    fn replication_cuts_critical_path_words() {
        // Fixed P = 64: (q=8, c=1) vs (q=4, c=4) — wait, P = c q^2 must
        // match: 64 = 1*8^2 = 4*4^2.  The replicated run should move
        // fewer words along the critical path.
        let (a, b) = random_pair(32, 141);
        let flat = matmul_25d(&a, &b, 8, 1, CostModel::typical()).unwrap();
        let repl = matmul_25d(&a, &b, 4, 4, CostModel::typical()).unwrap();
        assert!(
            repl.critical.words < flat.critical.words,
            "2.5D {} vs 2D {} words",
            repl.critical.words,
            flat.critical.words
        );
        // The price is memory: 3 blocks of (n/q)^2 each, 4x bigger blocks.
        assert!(repl.words_per_proc > flat.words_per_proc);
    }

    #[test]
    fn general_m_lower_bound_shape() {
        // words ~ n^3 / (P sqrt(M)) with M = words_per_proc: the measured
        // critical-path words over that scale should be O(polylog).
        let (a, b) = random_pair(32, 142);
        for (q, c) in [(4usize, 1usize), (4, 2), (4, 4)] {
            let p = c * q * q;
            let rep = matmul_25d(&a, &b, q, c, CostModel::typical()).unwrap();
            let m = rep.words_per_proc as f64;
            let scale = (32f64).powi(3) / (p as f64 * m.sqrt());
            let ratio = rep.critical.words as f64 / scale;
            assert!(
                ratio < 40.0,
                "q={q} c={c}: words {} vs general-M scale {scale:.0} (ratio {ratio:.1})"
            , rep.critical.words);
        }
    }

    #[test]
    fn rejects_bad_shapes() {
        let (a, b) = random_pair(10, 143);
        assert!(std::panic::catch_unwind(|| matmul_25d(&a, &b, 3, 1, CostModel::counting()))
            .is_err(), "n=10 not divisible by q=3");
        let c_bad = Matrix::<f64>::zeros(10, 12);
        assert!(matches!(
            matmul_25d(&a, &c_bad, 2, 1, CostModel::counting()),
            Err(MatrixError::DimensionMismatch { .. })
        ));
    }
}
