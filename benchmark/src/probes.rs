//! Stand-alone probes of the two lowest layers, run inside every traced
//! workload so each per-layer number sits beside the ceiling it should
//! be read against, measured in the same run on the same host:
//!
//! * `matrix` — `KernelImpl::Fast` called directly on hot `b x b` tiles
//!   with kernel parallelism off, against a register-resident FMA loop
//!   at the widest ISA the CPU reports;
//! * `rayon` — the vendored pool's `scope`/`spawn`, `join` and
//!   `install`, timed through its public API on `p` threads.
//!
//! Every rate is the best of several short batches: the probes run
//! between a workload's passes on a shared host, and a preempted batch
//! says nothing about the kernel.

use crate::gen;
use crate::host;
use crate::spec::Metrics;
use crate::trace::now_ns;
use cholcomm_core::matrix::parallel::set_kernel_parallelism;
use cholcomm_core::matrix::{BatchMode, BatchPack, KernelImpl, Matrix};
use cholcomm_core::serve::{factor_resumable, Checkpoint, PanelControl};
use std::hint::black_box;

/// Best rate (operations per nanosecond of `ops_per_call`) of `call`
/// over `batches` batches of `calls` back-to-back calls.
fn best_rate(ops_per_call: f64, batches: usize, calls: usize, mut call: impl FnMut()) -> f64 {
    call(); // first touch: page faults, packing scratch
    let mut best_ns = f64::INFINITY;
    for _ in 0..batches {
        let t0 = now_ns();
        for _ in 0..calls {
            call();
        }
        best_ns = best_ns.min((now_ns() - t0) as f64);
    }
    ops_per_call * calls as f64 / best_ns
}

/// Calls per batch so one batch of a kernel doing `flops` per call runs
/// for about 2 ms at 10 GFLOP/s.
fn calls_for(flops: f64) -> usize {
    ((2e7 / flops) as usize).clamp(1, 4096)
}

/// `LANES`-wide FMA chains that never leave the register file: 12
/// independent accumulators cover the FMA latency x issue width of
/// current cores, so the loop runs at the machine's FMA peak.
#[inline(always)]
fn fma_chains<const LANES: usize>(iters: usize) -> f64 {
    let mut acc = [[1.0f64; LANES]; 12];
    let (a, b) = (
        black_box([1.000_000_1f64; LANES]),
        black_box([-1e-7f64; LANES]),
    );
    for _ in 0..iters {
        for chain in &mut acc {
            for l in 0..LANES {
                chain[l] = chain[l].mul_add(a[l], b[l]);
            }
        }
    }
    acc.iter().flatten().sum()
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,fma")]
fn fma_chains_avx512(iters: usize) -> f64 {
    fma_chains::<8>(iters)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn fma_chains_avx2(iters: usize) -> f64 {
    fma_chains::<4>(iters)
}

/// One-thread FMA peak in GFLOP/s at the widest detected ISA, or `None`
/// where no vector FMA is available (then no `pct_peak` is reported).
pub fn peak_gflops() -> Option<f64> {
    const ITERS: usize = 200_000;
    let (name, lanes) = host::isa();
    let run: fn(usize) -> f64 = match name {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `host::isa` returned this name only after
        // `is_x86_feature_detected!` confirmed avx512f (and the fma
        // that every avx512f CPU has).
        "avx512f" => |iters| unsafe { fma_chains_avx512(iters) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above, for avx2 and fma.
        "avx2+fma" => |iters| unsafe { fma_chains_avx2(iters) },
        _ => return None,
    };
    let flops = (ITERS * 12 * lanes * 2) as f64;
    Some(best_rate(flops, 8, 1, || {
        black_box(run(black_box(ITERS)));
    }))
}

/// Stand-alone GFLOP/s of the four tile kernels at tile size `b`, in
/// the order `(gemm_nt, syrk, trsm, potf2)`.  The two in-place kernels
/// are reset from a pristine copy before every call; that `b²` copy is
/// part of the timed call, as it is part of using the kernel.
pub fn tile_kernel_gflops(b: usize) -> (f64, f64, f64, f64) {
    let k = KernelImpl::Fast;
    let fb = b as f64;
    let (li, lj) = (gen::dense(b, b, 11), gen::dense(b, b, 12));
    let spd = gen::spd(b, 13);
    let mut diag = spd.clone();
    k.potf2(&mut diag).expect("generated tile is SPD");
    let panel = gen::dense(b, b, 14);

    let mut c = gen::dense(b, b, 15);
    let gemm = best_rate(2.0 * fb * fb * fb, 8, calls_for(2.0 * fb * fb * fb), || {
        k.gemm_nt(black_box(&mut c), -1.0, black_box(&li), black_box(&lj));
    });
    let mut c = spd.clone();
    let syrk = best_rate(fb * fb * fb, 8, calls_for(fb * fb * fb), || {
        k.syrk_lower(black_box(&mut c), black_box(&li));
    });
    let mut x = panel.clone();
    let trsm = best_rate(fb * fb * fb, 8, calls_for(fb * fb * fb), || {
        x.as_mut_slice().copy_from_slice(panel.as_slice());
        k.trsm_right_lower_transpose(black_box(&mut x), black_box(&diag));
    });
    let mut a = spd.clone();
    let potf2 = best_rate(fb * fb * fb / 3.0, 8, calls_for(fb * fb * fb / 3.0), || {
        a.as_mut_slice().copy_from_slice(spd.as_slice());
        black_box(k.potf2(black_box(&mut a))).expect("generated tile is SPD");
    });
    (gemm, syrk, trsm, potf2)
}

/// The `matrix.*` metrics.
pub fn matrix_layer(m: &mut Metrics) {
    let prev = set_kernel_parallelism(false);
    let peak = peak_gflops();
    if let Some(peak) = peak {
        m.set("matrix.peak_gflops", peak);
    }
    let (g128, s128, t128, p128) = tile_kernel_gflops(128);
    let (g32, s32, t32, p32) = tile_kernel_gflops(32);
    m.set("matrix.gemm_nt.b128.gflops", g128);
    m.set("matrix.syrk.b128.gflops", s128);
    m.set("matrix.trsm.b128.gflops", t128);
    m.set("matrix.potf2.b128.gflops", p128);
    m.set("matrix.gemm_nt.b32.gflops", g32);
    m.set("matrix.syrk.b32.gflops", s32);
    m.set("matrix.trsm.b32.gflops", t32);
    m.set("matrix.potf2.b32.gflops", p32);
    if let Some(peak) = peak {
        m.set("matrix.gemm_nt.b128.pct_peak", 100.0 * g128 / peak);
        m.set("matrix.gemm_nt.b32.pct_peak", 100.0 * g32 / peak);
    }

    // Packing amortised over a large product: the ceiling tiles can approach.
    let n = 1024;
    let (a, b) = (gen::dense(n, n, 21), gen::dense(n, n, 22));
    let mut c = Matrix::zeros(n, n);
    let big = best_rate(2.0 * (n * n * n) as f64, 3, 1, || {
        KernelImpl::Fast.gemm_nt(black_box(&mut c), 1.0, black_box(&a), black_box(&b));
    });
    m.set("matrix.gemm_nt.n1024.gflops", big);

    // 32 order-32 systems: one strict batch of 32 lanes against the 32
    // sequential strict factorizations the unbatched service would run.
    let systems: Vec<Matrix<f64>> = (0..32).map(|s| gen::spd(32, 100 + s)).collect();
    let refs: Vec<&Matrix<f64>> = systems.iter().collect();
    let flops = 32.0 * 32f64.powi(3) / 3.0;
    let batched = best_rate(flops, 8, 64, || {
        let mut pack = BatchPack::pack_square(&refs, 32).expect("32 systems of order 32 fit");
        let results = cholcomm_core::matrix::kernels_fast::batch::batch_potrf(
            &mut pack,
            16,
            BatchMode::Strict,
        );
        black_box(&results);
    });
    let sequential = best_rate(flops, 8, 64, || {
        for a in &systems {
            let done = factor_resumable(
                Checkpoint::fresh(a.clone()),
                16,
                KernelImpl::FastStrict,
                &mut |_, _| PanelControl::Continue,
            );
            black_box(&done);
        }
    });
    m.set("matrix.batch_potrf.n32x32.gflops", batched);
    m.set("matrix.batch.lane_speedup", batched / sequential);
    set_kernel_parallelism(prev);
}

/// The `rayon.*` metrics, on a pool of `p` threads.
pub fn rayon_layer(m: &mut Metrics, pool: &rayon::ThreadPool) {
    const SPAWNS: usize = 10_000;
    let spawn = best_rate(1.0, 8, 1, || {
        pool.install(|| {
            rayon::scope(|s| {
                for _ in 0..SPAWNS {
                    s.spawn(|_| {
                        black_box(());
                    });
                }
            });
        });
    });
    m.set("rayon.spawn_ns", 1.0 / spawn / SPAWNS as f64);

    // A full binary tree of joins with empty leaves: 2^13 - 1 joins.
    fn tree(depth: u32) {
        if depth > 0 {
            rayon::join(|| tree(depth - 1), || tree(depth - 1));
        } else {
            black_box(());
        }
    }
    let join = best_rate(1.0, 8, 1, || pool.install(|| tree(13)));
    m.set("rayon.join_ns", 1.0 / join / ((1u64 << 13) - 1) as f64);

    let install = best_rate(1.0, 8, 10_000, || pool.install(|| black_box(())));
    m.set("rayon.install_us", 1.0 / install / 1e3);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_probe_scales_with_iteration_count() {
        // black_box is only a hint: confirm the FMA loop was not deleted.
        let time = |iters: usize| {
            let t0 = now_ns();
            black_box(fma_chains::<4>(black_box(iters)));
            (now_ns() - t0) as f64
        };
        time(10_000);
        let (short, long) = (time(100_000), time(1_600_000));
        assert!(long > 4.0 * short, "short {short} ns, long {long} ns");
    }
}
