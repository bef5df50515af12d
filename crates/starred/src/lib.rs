#![warn(missing_docs)]
#![deny(clippy::unwrap_used)]
//! # cholcomm-starred
//!
//! The machinery of the paper's lower-bound reduction (Section 2):
//!
//! * [`Star`] — the real numbers extended with the masking quantities `0*`
//!   and `1*`, with the exact arithmetic of Table 3.  `1*` and `0*` absorb
//!   reals under addition/subtraction but act like `1` and `0` under
//!   multiplication/division; distributivity fails, which is precisely why
//!   the construction pins down *classical* (no-Strassen) algorithms.
//! * [`construction`] — the matrix `T'` of Equation (4), whose Cholesky
//!   factor contains `A * B` in block `L_32^T`, and
//!   [`construction::matmul_by_cholesky`] (Algorithm 1): run *any*
//!   classical Cholesky routine on `T'` and read the product off the
//!   factor.
//! * [`dag`] — the dependency sets `S_{i,j}` of Equations (7)–(8) and
//!   Figure 1, used both to verify Lemma 2.2's induction and to check that
//!   every algorithm in the zoo respects the classical partial order.

pub mod construction;
pub mod dag;
pub mod lu_reduction;
pub mod star;
pub mod symbolic;

pub use construction::{build_t_prime, expected_factor, extract_product, matmul_by_cholesky};
pub use dag::{dependency_set, respects_partial_order, DepDag};
pub use lu_reduction::{matmul_by_lu, matmul_by_lu_scaled};
pub use star::Star;
pub use symbolic::{analyze_reduction, EliminationReport};
