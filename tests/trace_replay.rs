//! Golden-trace equivalence: the trace-once / replay-many engine must be
//! an *exact* stand-in for running each algorithm under a live tracer.
//!
//! Three contracts:
//!
//! * replayed `TransferStats` are byte-identical to direct-run stats for
//!   every algorithm × layout × model combination;
//! * the one-pass stack-distance ladder matches independent LRU runs at
//!   every capacity;
//! * touch schedules are data-oblivious, so a trace recorded on one SPD
//!   matrix re-prices every other SPD matrix of that shape.

use cholcomm::cachesim::{CompactTrace, LruTracer};
use cholcomm::matrix::{spd, Matrix};
use cholcomm::seq::zoo::{
    all_algorithms, price_trace, record_algorithm, run_algorithm, Algorithm, LayoutKind, ModelKind,
};

const LAYOUTS: [LayoutKind; 7] = [
    LayoutKind::ColMajor,
    LayoutKind::RowMajor,
    LayoutKind::PackedLower,
    LayoutKind::Rfp,
    LayoutKind::Blocked(4),
    LayoutKind::Morton,
    LayoutKind::RecursivePacked,
];

fn workload(n: usize, seed: u64) -> Matrix<f64> {
    let mut rng = spd::test_rng(seed);
    spd::random_spd(n, &mut rng)
}

#[test]
fn replay_matches_direct_run_for_every_algorithm_layout_model() {
    let n = 16;
    let a = workload(n, 500);
    let models = [
        ModelKind::Counting { message_cap: Some(64) },
        ModelKind::Counting { message_cap: None },
        ModelKind::Lru { m: 64 },
        ModelKind::Hierarchy { capacities: vec![24, 96, 384] },
    ];
    for alg in all_algorithms(48) {
        for layout in LAYOUTS {
            let rec = record_algorithm(alg, &a, layout)
                .unwrap_or_else(|e| panic!("{alg:?} on {layout:?}: {e}"));
            for model in &models {
                let direct = run_algorithm(alg, &a, layout, model).unwrap();
                assert_eq!(
                    price_trace(&rec.trace, model),
                    direct.levels,
                    "{alg:?} on {layout:?} under {model:?}"
                );
            }
        }
    }
}

#[test]
fn stack_distance_ladder_matches_independent_lru_runs() {
    let a = workload(24, 501);
    for (alg, layout) in [
        (Algorithm::Ap00 { leaf: 4 }, LayoutKind::Morton),
        (Algorithm::LapackBlocked { b: 4 }, LayoutKind::Blocked(4)),
        (Algorithm::NaiveRight, LayoutKind::ColMajor),
    ] {
        let rec = record_algorithm(alg, &a, layout).unwrap();
        let capacities = vec![16usize, 48, 144, 432];
        let ladder = price_trace(
            &rec.trace,
            &ModelKind::Hierarchy { capacities: capacities.clone() },
        );
        for (level, &cap) in capacities.iter().enumerate() {
            // A hierarchy level is exactly a fetch-only LRU of that size.
            let mut lru = LruTracer::with_writebacks(cap, false);
            rec.trace.replay(&mut lru);
            assert_eq!(
                (ladder[level].words, ladder[level].messages),
                (lru.fetch_stats().words, lru.fetch_stats().messages),
                "{alg:?} level {level} (capacity {cap})"
            );
        }
    }
}

#[test]
fn traces_are_data_oblivious_across_spd_inputs() {
    let n = 20;
    for alg in all_algorithms(48) {
        for layout in [LayoutKind::ColMajor, LayoutKind::Morton, LayoutKind::RecursivePacked] {
            let t1 = record_algorithm(alg, &workload(n, 600), layout).unwrap().trace;
            let t2 = record_algorithm(alg, &workload(n, 601), layout).unwrap().trace;
            assert!(
                t1.same_schedule(&t2),
                "{alg:?} on {layout:?}: schedule depends on matrix values"
            );
            assert_eq!(t1.digest(), t2.digest());
        }
    }
}

#[test]
fn recorded_traces_survive_pack_unpack() {
    let a = workload(16, 602);
    for (alg, layout) in [
        (Algorithm::Toledo { gemm_leaf: 4 }, LayoutKind::Morton),
        (Algorithm::NaiveLeft, LayoutKind::PackedLower),
    ] {
        let trace = record_algorithm(alg, &a, layout).unwrap().trace;
        let packed = trace.pack();
        let back = CompactTrace::unpack(&packed).unwrap();
        assert!(trace.same_schedule(&back), "{alg:?} roundtrip");
        // Delta/varint packing should beat the 12-byte flat event.
        assert!(
            (packed.len() as f64) < 8.0 * trace.len() as f64,
            "{alg:?}: {} bytes for {} events",
            packed.len(),
            trace.len()
        );
    }
}

#[test]
fn lru_total_stats_conserve_fetch_plus_writeback() {
    // The fetch and writeback accounters are separate coalescers; the
    // total must be their exact sum (no shared stream double-counts a
    // miss run against its own writeback).
    let a = workload(24, 603);
    let rec = record_algorithm(Algorithm::Ap00 { leaf: 4 }, &a, LayoutKind::Morton).unwrap();
    let mut lru = LruTracer::new(96);
    rec.trace.replay(&mut lru);
    lru.flush();
    let total = lru.total_stats();
    let fetch = lru.fetch_stats();
    let wb = lru.writeback_stats();
    assert_eq!(total.words, fetch.words + wb.words);
    assert_eq!(total.messages, fetch.messages + wb.messages);
    assert!(wb.words > 0, "a factorization writes its output");
    // Every written word is either still cached at flush or was written
    // back; writebacks can never exceed the words written.
    let written: u64 = rec
        .trace
        .iter()
        .filter(|(_, mode)| matches!(mode, cholcomm::cachesim::Access::Write))
        .map(|(r, _)| (r.end - r.start) as u64)
        .sum();
    assert!(wb.words <= written, "writeback {} > written {}", wb.words, written);
}
