//! The naïve column-at-a-time algorithms (Algorithms 2 and 3, Figure 3).
//!
//! Their transfer schedules are copied verbatim from the paper so that a
//! [`CountingTracer`](cholcomm_cachesim::CountingTracer) reproduces the
//! closed forms of Sections 3.1.4–3.1.5 *exactly*:
//!
//! * left-looking:  words `= n^3/6 + n^2 + 5n/6`, messages `= n^2/2 + 3n/2`
//!   (column-major, `M > 2n`);
//! * right-looking: words `= n^3/3 + n^2 + 2n/3`, messages `= n^2 + n`.
//!
//! Neither attains the bandwidth lower bound `Ω(n^3 / sqrt(M))` — words
//! moved are independent of `M` (Conclusion 1).

use cholcomm_cachesim::{touch, Access, Tracer};
use cholcomm_layout::{cells_col_segment, Laid, Layout};
use cholcomm_matrix::{MatrixError, Scalar};

/// Cells of a row segment: columns `j0..j1` of row `i` (the row-major
/// twin of a column segment).
fn cells_row_segment(i: usize, j0: usize, j1: usize) -> impl Iterator<Item = (usize, usize)> {
    (j0..j1).map(move |j| (i, j))
}

/// Algorithm 2: naïve left-looking Cholesky.  Requires fast memory for two
/// columns (`M > 2n`), which the schedule assumes.
pub fn left_looking<S: Scalar, L: Layout, T: Tracer>(
    a: &mut Laid<S, L>,
    tracer: &mut T,
) -> Result<(), MatrixError> {
    let n = square_order(a)?;
    for j in 0..n {
        // read A(j:n, j)
        touch(tracer, a.layout(), cells_col_segment(j, j, n), Access::Read);
        for k in 0..j {
            // read A(j:n, k)
            touch(tracer, a.layout(), cells_col_segment(k, j, n), Access::Read);
            // update diagonal element
            let ajk = a.get(j, k);
            a.update(j, j, |v| v.mul_sub(ajk, ajk));
            // update j-th column elements
            for i in (j + 1)..n {
                let aik = a.get(i, k);
                a.update(i, j, |v| v.mul_sub(aik, ajk));
            }
        }
        // final values for column j
        let d = a.get(j, j);
        check_pivot(d, j)?;
        let ljj = d.sqrt();
        a.set(j, j, ljj);
        for i in (j + 1)..n {
            let v = a.get(i, j);
            a.set(i, j, v / ljj);
        }
        // write A(j:n, j)
        touch(tracer, a.layout(), cells_col_segment(j, j, n), Access::Write);
    }
    Ok(())
}

/// Algorithm 3: naïve right-looking Cholesky.
pub fn right_looking<S: Scalar, L: Layout, T: Tracer>(
    a: &mut Laid<S, L>,
    tracer: &mut T,
) -> Result<(), MatrixError> {
    let n = square_order(a)?;
    for j in 0..n {
        // read A(j:n, j)
        touch(tracer, a.layout(), cells_col_segment(j, j, n), Access::Read);
        // factor column j
        let d = a.get(j, j);
        check_pivot(d, j)?;
        let ljj = d.sqrt();
        a.set(j, j, ljj);
        for i in (j + 1)..n {
            let v = a.get(i, j);
            a.set(i, j, v / ljj);
        }
        // update trailing columns
        for k in (j + 1)..n {
            // read A(k:n, k)
            touch(tracer, a.layout(), cells_col_segment(k, k, n), Access::Read);
            let akj = a.get(k, j);
            for i in k..n {
                let aij = a.get(i, j);
                a.update(i, k, |v| v.mul_sub(aij, akj));
            }
            // write A(k:n, k)
            touch(tracer, a.layout(), cells_col_segment(k, k, n), Access::Write);
        }
        // write A(j:n, j)
        touch(tracer, a.layout(), cells_col_segment(j, j, n), Access::Write);
    }
    Ok(())
}

/// Exact word count of the left-looking schedule (Section 3.1.4):
/// `n^3/6 + n^2 + 5n/6`.
pub fn left_looking_words(n: u64) -> u64 {
    (n * n * n + 6 * n * n + 5 * n) / 6
}

/// Exact message count of the left-looking schedule on column-major
/// storage with `M > 2n`: `n^2/2 + 3n/2`.
pub fn left_looking_messages(n: u64) -> u64 {
    (n * n + 3 * n) / 2
}

/// Exact word count of the right-looking schedule (Section 3.1.5):
/// `n^3/3 + n^2 + 2n/3`.
pub fn right_looking_words(n: u64) -> u64 {
    (n * n * n + 3 * n * n + 2 * n) / 3
}

/// Exact message count of the right-looking schedule on column-major
/// storage with `M > 2n`: `n^2 + n`.
pub fn right_looking_messages(n: u64) -> u64 {
    n * n + n
}

/// The "up-looking" row-wise twin of Algorithm 2, which the paper notes
/// has identical bandwidth and latency when the matrix is stored
/// row-major: row `i` of `L` is produced by reading rows `0..i` one at a
/// time.  The transfer schedule's closed forms coincide exactly with the
/// left-looking ones (checked in the tests).
pub fn up_looking<S: Scalar, L: Layout, T: Tracer>(
    a: &mut Laid<S, L>,
    tracer: &mut T,
) -> Result<(), MatrixError> {
    let n = square_order(a)?;
    for i in 0..n {
        // read A(i, 0:i+1)
        touch(tracer, a.layout(), cells_row_segment(i, 0, i + 1), Access::Read);
        for j in 0..=i {
            // read row j of L (cols 0..=j) — previously computed.
            if j < i {
                touch(tracer, a.layout(), cells_row_segment(j, 0, j + 1), Access::Read);
            }
            let mut v = a.get(i, j);
            for k in 0..j {
                v = v.mul_sub(a.get(i, k), a.get(j, k));
            }
            if i == j {
                check_pivot(v, j)?;
                a.set(i, j, v.sqrt());
            } else {
                let ljj = a.get(j, j);
                a.set(i, j, v / ljj);
            }
        }
        // write A(i, 0:i+1)
        touch(tracer, a.layout(), cells_row_segment(i, 0, i + 1), Access::Write);
    }
    Ok(())
}

/// The `M < 2n` variant of Algorithm 2 the paper analyses at the end of
/// Section 3.1.4: when two full columns no longer fit in fast memory,
/// "each column j is read into fast memory in segments of size M/2.  For
/// each segment of column j, the corresponding segments of previous
/// columns k are read into fast memory individually to update the current
/// segment."  Total words are unchanged (up to the re-read of the scalar
/// `A(j,k)` per segment); messages become `Theta(n^3 / M)` because no
/// transfer exceeds `M/2` words.
pub fn left_looking_segmented<S: Scalar, L: Layout, T: Tracer>(
    a: &mut Laid<S, L>,
    tracer: &mut T,
    m: usize,
) -> Result<(), MatrixError> {
    let n = square_order(a)?;
    // Working set: the current segment of column j, a same-size segment
    // of column k plus its scalar A(j,k), and the retained pivot:
    // 2*seg + 2 <= M.
    let m_eff = m.max(4);
    let seg = ((m_eff - 2) / 2).max(1);
    let mut gauge = cholcomm_cachesim::FastMemGauge::new(m_eff);
    for j in 0..n {
        // The diagonal pivot L(j,j) lives in the first segment and is
        // retained (one word) for the divisions in later segments.
        let mut ljj: Option<S> = None;
        gauge.claim(1);
        let mut lo = j;
        while lo < n {
            let hi = (lo + seg).min(n);
            gauge.claim(hi - lo);
            touch(tracer, a.layout(), cells_col_segment(j, lo, hi), Access::Read);
            for k in 0..j {
                // Segment of column k plus the scalar A(j,k).
                gauge.claim(hi - lo + 1);
                touch(tracer, a.layout(), cells_col_segment(k, lo, hi), Access::Read);
                touch(tracer, a.layout(), cells_col_segment(k, j, j + 1), Access::Read);
                let ajk = a.get(j, k);
                for i in lo..hi {
                    let aik = a.get(i, k);
                    a.update(i, j, |v| v.mul_sub(aik, ajk));
                }
                gauge.release(hi - lo + 1);
            }
            // Finalize this segment: pivot first (it is in segment 0).
            if ljj.is_none() {
                let d = a.get(j, j);
                check_pivot(d, j)?;
                let p = d.sqrt();
                a.set(j, j, p);
                ljj = Some(p);
            }
            let p = ljj.expect("pivot computed in the first segment");
            for i in lo.max(j + 1)..hi {
                let v = a.get(i, j);
                a.set(i, j, v / p);
            }
            touch(tracer, a.layout(), cells_col_segment(j, lo, hi), Access::Write);
            gauge.release(hi - lo);
            lo = hi;
        }
        gauge.release(1);
    }
    Ok(())
}

fn square_order<S: Scalar, L: Layout>(a: &Laid<S, L>) -> Result<usize, MatrixError> {
    let (r, c) = (a.layout().rows(), a.layout().cols());
    if r != c {
        return Err(MatrixError::NotSquare { rows: r, cols: c });
    }
    Ok(r)
}

pub(crate) fn check_pivot<S: Scalar>(d: S, j: usize) -> Result<(), MatrixError> {
    if d.is_finite_real() {
        let m = d.magnitude();
        let nonpositive = m == 0.0 || (d - S::from_f64(m)).magnitude() > 0.0;
        if nonpositive {
            return Err(MatrixError::NotSpd {
                pivot: j,
                value: -m,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use cholcomm_cachesim::{CountingTracer, NullTracer};
    use cholcomm_layout::ColMajor;
    use cholcomm_matrix::kernels::potf2;
    use cholcomm_matrix::{norms, spd};

    fn factor_and_residual(
        n: usize,
        f: impl Fn(&mut Laid<f64, ColMajor>, &mut NullTracer) -> Result<(), MatrixError>,
    ) -> f64 {
        let mut rng = spd::test_rng(33);
        let a = spd::random_spd(n, &mut rng);
        let mut laid = Laid::from_matrix(&a, ColMajor::square(n));
        f(&mut laid, &mut NullTracer).unwrap();
        norms::cholesky_residual(&a, &laid.to_matrix())
    }

    #[test]
    fn left_looking_factors_correctly() {
        let r = factor_and_residual(20, left_looking);
        assert!(r < norms::residual_tolerance(20), "residual {r}");
    }

    #[test]
    fn right_looking_factors_correctly() {
        let r = factor_and_residual(20, right_looking);
        assert!(r < norms::residual_tolerance(20), "residual {r}");
    }

    #[test]
    fn both_agree_with_potf2_exactly_in_order() {
        // Same arithmetic, different order: results agree to rounding.
        let mut rng = spd::test_rng(34);
        let a = spd::random_spd(12, &mut rng);
        let mut reference = a.clone();
        potf2(&mut reference).unwrap();
        type AlgFn = fn(&mut Laid<f64, ColMajor>, &mut NullTracer) -> Result<(), MatrixError>;
        for alg in [
            left_looking::<f64, ColMajor, NullTracer> as AlgFn,
            right_looking::<f64, ColMajor, NullTracer> as AlgFn,
        ] {
            let mut laid = Laid::from_matrix(&a, ColMajor::square(12));
            alg(&mut laid, &mut NullTracer).unwrap();
            let got = laid.to_matrix();
            for j in 0..12 {
                for i in j..12 {
                    assert!((got[(i, j)] - reference[(i, j)]).abs() < 1e-10);
                }
            }
        }
    }

    #[test]
    fn left_looking_matches_paper_closed_forms_exactly() {
        for n in [1usize, 2, 5, 8, 16, 33, 64] {
            let mut rng = spd::test_rng(35);
            let a = spd::random_spd(n, &mut rng);
            let mut laid = Laid::from_matrix(&a, ColMajor::square(n));
            let mut tr = CountingTracer::uncapped();
            left_looking(&mut laid, &mut tr).unwrap();
            let s = tr.stats();
            assert_eq!(s.words, left_looking_words(n as u64), "words n={n}");
            assert_eq!(s.messages, left_looking_messages(n as u64), "messages n={n}");
        }
    }

    #[test]
    fn right_looking_matches_paper_closed_forms_exactly() {
        for n in [1usize, 2, 5, 8, 16, 33, 64] {
            let mut rng = spd::test_rng(36);
            let a = spd::random_spd(n, &mut rng);
            let mut laid = Laid::from_matrix(&a, ColMajor::square(n));
            let mut tr = CountingTracer::uncapped();
            right_looking(&mut laid, &mut tr).unwrap();
            let s = tr.stats();
            assert_eq!(s.words, right_looking_words(n as u64), "words n={n}");
            assert_eq!(s.messages, right_looking_messages(n as u64), "messages n={n}");
        }
    }

    #[test]
    fn bandwidth_is_independent_of_m() {
        // Conclusion 1: naive bandwidth Θ(n^3) regardless of fast memory.
        let n = 32;
        let mut rng = spd::test_rng(37);
        let a = spd::random_spd(n, &mut rng);
        let mut words = Vec::new();
        for m in [64usize, 256, 1024] {
            let mut laid = Laid::from_matrix(&a, ColMajor::square(n));
            let mut tr = CountingTracer::new(m);
            left_looking(&mut laid, &mut tr).unwrap();
            words.push(tr.stats().words);
        }
        assert!(words.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn up_looking_factors_correctly() {
        use cholcomm_layout::RowMajor;
        let n = 20;
        let mut rng = spd::test_rng(38);
        let a = spd::random_spd(n, &mut rng);
        let mut laid = Laid::from_matrix(&a, RowMajor::square(n));
        up_looking(&mut laid, &mut NullTracer).unwrap();
        let r = norms::cholesky_residual(&a, &laid.to_matrix());
        assert!(r < norms::residual_tolerance(n), "residual {r}");
    }

    #[test]
    fn up_looking_matches_left_looking_closed_forms_on_row_major() {
        // "with no change in bandwidth or latency" — the words coincide
        // exactly with the left-looking polynomials, and row-major rows
        // are contiguous so the message count matches too.
        use cholcomm_layout::RowMajor;
        for n in [1usize, 2, 5, 8, 16, 33] {
            let mut rng = spd::test_rng(39);
            let a = spd::random_spd(n, &mut rng);
            let mut laid = Laid::from_matrix(&a, RowMajor::square(n));
            let mut tr = CountingTracer::uncapped();
            up_looking(&mut laid, &mut tr).unwrap();
            let s = tr.stats();
            assert_eq!(s.words, left_looking_words(n as u64), "words n={n}");
            assert_eq!(s.messages, left_looking_messages(n as u64), "messages n={n}");
        }
    }

    #[test]
    fn up_looking_on_column_major_pays_in_messages() {
        // The dual of Conclusion 3: a row-wise schedule against
        // column-major storage fragments every row read.
        let n = 24;
        let mut rng = spd::test_rng(40);
        let a = spd::random_spd(n, &mut rng);
        let mut cm = Laid::from_matrix(&a, ColMajor::square(n));
        let mut tr_cm = CountingTracer::uncapped();
        up_looking(&mut cm, &mut tr_cm).unwrap();
        assert!(
            tr_cm.stats().messages > 4 * left_looking_messages(n as u64),
            "col-major rows fragment: {} messages",
            tr_cm.stats().messages
        );
    }

    #[test]
    fn segmented_variant_factors_correctly() {
        let n = 24;
        let mut rng = spd::test_rng(41);
        let a = spd::random_spd(n, &mut rng);
        for m in [6usize, 10, 16, 64, 4 * n] {
            let mut laid = Laid::from_matrix(&a, ColMajor::square(n));
            let mut tr = CountingTracer::new(m);
            left_looking_segmented(&mut laid, &mut tr, m).unwrap();
            let r = norms::cholesky_residual(&a, &laid.to_matrix());
            assert!(r < norms::residual_tolerance(n), "M={m}: residual {r}");
        }
    }

    #[test]
    fn segmented_words_match_unsegmented_up_to_the_scalar_rereads() {
        // "the total number of words transferred ... does not change"
        // apart from the A(j,k) scalar each (segment, k) pair re-reads.
        let n = 32;
        let m = 10;
        let mut rng = spd::test_rng(42);
        let a = spd::random_spd(n, &mut rng);
        let mut laid = Laid::from_matrix(&a, ColMajor::square(n));
        let mut tr = CountingTracer::new(m);
        left_looking_segmented(&mut laid, &mut tr, m).unwrap();
        let base = left_looking_words(n as u64);
        let words = tr.stats().words;
        assert!(words >= base, "{words} >= {base}");
        // Scalar re-reads: one per (j, segment, k) triple.
        let seg = ((m - 2) / 2) as u64;
        let slack = (n as u64) * (n as u64) * (n as u64) / (2 * seg);
        assert!(words <= base + slack, "{words} <= {base} + {slack}");
    }

    #[test]
    fn segmented_latency_scales_as_n_cubed_over_m() {
        // Conclusion 1's latency half: Theta(n^2 + n^3/M).
        let n = 48;
        let mut rng = spd::test_rng(43);
        let a = spd::random_spd(n, &mut rng);
        let msgs = |m: usize| {
            let mut laid = Laid::from_matrix(&a, ColMajor::square(n));
            let mut tr = CountingTracer::new(m);
            left_looking_segmented(&mut laid, &mut tr, m).unwrap();
            tr.stats().messages as f64
        };
        let (m8, m16, m32) = (msgs(8), msgs(16), msgs(32));
        assert!(m8 / m16 > 1.6 && m8 / m16 < 2.6, "halving M ~doubles messages: {m8}/{m16}");
        assert!(m16 / m32 > 1.5 && m16 / m32 < 2.8, "{m16}/{m32}");
    }

    #[test]
    fn indefinite_input_is_rejected() {
        let mut m = cholcomm_matrix::Matrix::<f64>::identity(4);
        m[(2, 2)] = -1.0;
        let mut laid = Laid::from_matrix(&m, ColMajor::square(4));
        let err = right_looking(&mut laid, &mut NullTracer).unwrap_err();
        assert!(matches!(err, MatrixError::NotSpd { pivot: 2, value } if value == -1.0));
    }
}
