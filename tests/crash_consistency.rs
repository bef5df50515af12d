//! Crash-consistency acceptance suite: the journaled checkpoint
//! protocol survives *every* crash prefix of its recorded disk-op
//! schedule — including adversarial subsets and sector-torn versions of
//! the un-barriered writes — recovering bit-identical to the clean run;
//! a deliberately broken protocol variant (commit record without the
//! preceding barrier) is caught by the same explorer and shrunk to a
//! minimal, printable fault plan; and checkpoint manifests reject every
//! flavor of mixed-up or truncated metadata.

use cholcomm::faults::{
    crash_sites_exhaustive, crash_sites_sampled, shrink_site, FsStore, Store,
};
use cholcomm::matrix::{digest::fnv1a, spd};
use cholcomm::ooc::{
    explore_crash_sites, record_run, scratch_path, super_column_width, Checkpoint,
    CommitDiscipline, FileMatrix,
};

const SECTOR: usize = 64;

// ---------------------------------------------------------------------
// Tentpole: exhaustive exploration of the correct protocol.
// ---------------------------------------------------------------------

#[test]
fn exhaustive_crash_exploration_recovers_bit_identically_at_every_site() {
    let mut rng = spd::test_rng(500);
    let a = spd::random_spd(8, &mut rng);
    let run = record_run(&a, 4, 3, SECTOR, CommitDiscipline::Barriered, 0, 1).expect("clean run");

    let sites = crash_sites_exhaustive(&run.schedule, SECTOR);
    assert!(
        sites.len() > run.schedule.len() * 2,
        "adversarial states must outnumber plain prefixes ({} sites, {} ops)",
        sites.len(),
        run.schedule.len()
    );
    let report = explore_crash_sites(&run, &sites);
    assert_eq!(report.states_explored, sites.len());
    assert_eq!(report.crash_points, run.schedule.len() + 1);
    assert!(
        report.violations.is_empty(),
        "the barriered protocol must recover bit-identically at 100% of {} crash states; \
         violations: {}",
        report.states_explored,
        report
            .violations
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("; ")
    );
    // Recovery re-work is bounded: a crash can throw away at most the
    // panels since the last commit, never more than the whole run.
    let f = report.rework_fraction();
    assert!((0.0..=1.0).contains(&f), "rework fraction {f}");
}

// ---------------------------------------------------------------------
// Tentpole: the broken protocol variant is caught and shrunk.
// ---------------------------------------------------------------------

#[test]
fn unbarriered_commit_is_caught_and_shrunk_to_a_minimal_repro() {
    let mut rng = spd::test_rng(501);
    let a = spd::random_spd(8, &mut rng);
    let run =
        record_run(&a, 4, 3, SECTOR, CommitDiscipline::UnbarrieredCommit, 0, 1).expect("clean run");

    // One recovery per site finds the violating states; shrinking is
    // exercised on the first of them (and by explore_crash_sites below).
    let sites = crash_sites_exhaustive(&run.schedule, SECTOR);
    let violating: Vec<_> = sites
        .iter()
        .filter(|s| run.violation_at(s).is_some())
        .cloned()
        .collect();
    assert!(
        !violating.is_empty(),
        "a commit record in the same un-barriered window as its data MUST be caught \
         ({} states explored)",
        sites.len()
    );

    let first = &violating[0];
    let minimal = shrink_site(first, |cand| run.violation_at(cand).is_some());
    assert!(
        run.violation_at(&minimal).is_some(),
        "the shrunk site still reproduces the violation"
    );
    assert!(
        minimal.perturbations() <= first.perturbations(),
        "shrinking never adds perturbations"
    );
    // 1-minimality: removing any single remaining perturbation makes
    // the failure disappear.
    for i in 0..minimal.dropped.len() {
        let mut weaker = minimal.clone();
        weaker.dropped.remove(i);
        assert!(
            run.violation_at(&weaker).is_none(),
            "dropping op {} is load-bearing in the minimal repro {minimal}",
            minimal.dropped[i]
        );
    }
    for i in 0..minimal.torn.len() {
        let mut weaker = minimal.clone();
        weaker.torn.remove(i);
        assert!(
            run.violation_at(&weaker).is_none(),
            "tear {:?} is load-bearing in the minimal repro {minimal}",
            minimal.torn[i]
        );
    }
    println!("unbarriered-commit minimal repro: {minimal}");

    // The full explorer reports the same failure with its shrunk repro.
    let report = explore_crash_sites(&run, std::slice::from_ref(first));
    assert_eq!(report.violations.len(), 1);
    let v = &report.violations[0];
    assert!(
        v.reason.contains("recovery failed") || v.reason.contains("differs"),
        "{v}"
    );
    assert!(run.violation_at(&v.minimal).is_some());
}

// ---------------------------------------------------------------------
// Tentpole: seeded sampling scales the same check to larger matrices.
// ---------------------------------------------------------------------

#[test]
fn sampled_crash_exploration_recovers_on_a_larger_matrix() {
    let mut rng = spd::test_rng(502);
    let a = spd::random_spd(24, &mut rng);
    let run = record_run(&a, 8, 4, SECTOR, CommitDiscipline::Barriered, 0, 1).expect("clean run");
    let sites = crash_sites_sampled(&run.schedule, SECTOR, 0xC0FFEE, 64);
    let report = explore_crash_sites(&run, &sites);
    assert!(
        report.violations.is_empty(),
        "seeded sites (reproduce with seed 0xC0FFEE) must all recover: {}",
        report
            .violations
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("; ")
    );
}

// ---------------------------------------------------------------------
// Satellite: the pipelined driver under the same explorer.  Deferred
// write-backs and prefetched reads must not open a single new window —
// the epoch barrier drains all of them before every checkpoint commit.
// ---------------------------------------------------------------------

#[test]
fn pipelined_driver_survives_every_exhaustive_crash_state() {
    let mut rng = spd::test_rng(500);
    let a = spd::random_spd(8, &mut rng);
    // One I/O worker: jobs complete in submission order, so the
    // recorded schedule is deterministic — and identical to the sync
    // driver's, which pins down that pipelining changed *when* ops are
    // issued, never what lands on disk.
    let sync = record_run(&a, 4, 3, SECTOR, CommitDiscipline::Barriered, 0, 1).expect("sync run");
    let run =
        record_run(&a, 4, 3, SECTOR, CommitDiscipline::Barriered, 1, 2).expect("pipelined run");
    assert_eq!(
        run.schedule, sync.schedule,
        "single-worker pipelined durable schedule must equal the synchronous one"
    );
    assert_eq!(run.clean_factor, sync.clean_factor);

    let sites = crash_sites_exhaustive(&run.schedule, SECTOR);
    let report = explore_crash_sites(&run, &sites);
    assert!(
        report.violations.is_empty(),
        "pipelined recovery must be bit-identical at 100% of {} crash states; violations: {}",
        report.states_explored,
        report
            .violations
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("; ")
    );
}

#[test]
fn pipelined_driver_survives_sampled_power_cuts_with_two_workers() {
    let mut rng = spd::test_rng(502);
    let a = spd::random_spd(24, &mut rng);
    // Two workers reorder job *completions*; every power-cut (crash
    // prefix, dropped un-barriered writes, sector tears) must still
    // recover bit-identically because nothing uncommitted is load-
    // bearing.  Recovery itself also runs pipelined with two workers.
    let run =
        record_run(&a, 8, 4, SECTOR, CommitDiscipline::Barriered, 2, 3).expect("pipelined run");
    let sites = crash_sites_sampled(&run.schedule, SECTOR, 0xC0FFEE, 64);
    let report = explore_crash_sites(&run, &sites);
    assert!(
        report.violations.is_empty(),
        "seeded power-cuts (seed 0xC0FFEE) must all recover under the pipeline: {}",
        report
            .violations
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("; ")
    );
}

#[test]
fn pipelined_unbarriered_commit_is_still_caught() {
    // The explorer's teeth must not dull under the pipelined driver: a
    // deliberately broken commit discipline is caught there too.
    let mut rng = spd::test_rng(501);
    let a = spd::random_spd(8, &mut rng);
    let run = record_run(&a, 4, 3, SECTOR, CommitDiscipline::UnbarrieredCommit, 1, 2)
        .expect("recorded run");
    let sites = crash_sites_exhaustive(&run.schedule, SECTOR);
    let report = explore_crash_sites(&run, &sites);
    assert!(
        !report.violations.is_empty(),
        "an un-barriered commit must be caught under the pipelined driver too \
         ({} states explored)",
        report.states_explored
    );
}

#[test]
fn super_columns_of_two_survive_every_crash_state_and_the_broken_twin_is_caught() {
    // Capacity 11 runs the walk in super-columns of two block columns,
    // so a checkpoint step covers two panels: {0, 1}, then {2}.
    assert_eq!(super_column_width(11), 2);
    let mut rng = spd::test_rng(503);
    let a = spd::random_spd(12, &mut rng);
    let run = record_run(&a, 4, 11, SECTOR, CommitDiscipline::Barriered, 0, 1).expect("clean run");
    let sites = crash_sites_exhaustive(&run.schedule, SECTOR);
    let report = explore_crash_sites(&run, &sites);
    assert_eq!(report.states_explored, sites.len());
    assert!(
        report.violations.is_empty(),
        "width 2 must recover bit-identically at 100% of {} crash states; violations: {}",
        report.states_explored,
        report
            .violations
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("; ")
    );

    let broken = record_run(&a, 4, 11, SECTOR, CommitDiscipline::UnbarrieredCommit, 0, 1)
        .expect("clean run");
    let sites = crash_sites_exhaustive(&broken.schedule, SECTOR);
    assert!(
        sites.iter().any(|s| broken.violation_at(s).is_some()),
        "an un-barriered commit must be caught at width 2 too ({} states)",
        sites.len()
    );
}

// ---------------------------------------------------------------------
// Satellite: manifest rejection edge cases.
// ---------------------------------------------------------------------

/// A committed checkpoint of a 16x16, b=4 matrix on the real
/// filesystem; returns the checkpoint and its committed generation.
fn committed_checkpoint(tag: &str) -> (Checkpoint, u64) {
    let mut rng = spd::test_rng(510);
    let a = spd::random_spd(16, &mut rng);
    let fm = FileMatrix::create(&scratch_path(tag), &a, 4).expect("matrix file");
    let ckpt = Checkpoint::at(&scratch_path(&format!("{tag}-ckpt")));
    ckpt.save(&mut FsStore::new(), &fm, 2).expect("save");
    let gen = ckpt.load(&mut FsStore::new()).expect("loads").expect("present").gen;
    (ckpt, gen)
}

#[test]
fn every_manifest_byte_prefix_truncation_is_rejected() {
    let (ckpt, gen) = committed_checkpoint("cc-mtrunc");
    let manifest_path = ckpt.manifest_file(gen);
    let full = std::fs::read(&manifest_path).expect("manifest bytes");
    for cut in 0..full.len() {
        std::fs::write(&manifest_path, &full[..cut]).expect("write truncation");
        let err = ckpt
            .load(&mut FsStore::new())
            .expect_err(&format!("{cut}-byte manifest prefix must be rejected"));
        assert_eq!(
            err.kind(),
            std::io::ErrorKind::InvalidData,
            "prefix of {cut} bytes: {err}"
        );
        assert!(
            err.to_string().contains("commit-protocol violation"),
            "a torn manifest behind a commit is a loud protocol violation: {err}"
        );
    }
    std::fs::write(&manifest_path, &full).expect("restore");
    assert!(ckpt.load(&mut FsStore::new()).expect("intact again").is_some());
    ckpt.remove(&mut FsStore::new()).expect("cleanup");
}

#[test]
fn mixed_generation_data_and_manifest_pairs_are_rejected() {
    let (ckpt, gen1) = committed_checkpoint("cc-mixgen");
    let gen1_manifest = std::fs::read(ckpt.manifest_file(gen1)).expect("gen1 manifest");

    // Advance to generation 2, then transplant generation 1's manifest
    // (internally consistent, correctly self-hashed — just for the
    // wrong generation) over generation 2's.
    let mut rng = spd::test_rng(511);
    let a = spd::random_spd(16, &mut rng);
    let fm = FileMatrix::create(&scratch_path("cc-mixgen-m2"), &a, 4).expect("matrix file");
    ckpt.save(&mut FsStore::new(), &fm, 3).expect("save gen 2");
    let gen2 = ckpt.load(&mut FsStore::new()).expect("loads").expect("present").gen;
    assert_eq!(gen2, gen1 + 1);
    std::fs::write(ckpt.manifest_file(gen2), &gen1_manifest).expect("transplant");

    let err = ckpt.load(&mut FsStore::new()).expect_err("mixed generations must be rejected");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(
        err.to_string().contains("mixed-generation"),
        "the error names the failure mode: {err}"
    );
    ckpt.remove(&mut FsStore::new()).expect("cleanup");
}

#[test]
fn manifest_with_valid_hash_but_mismatched_geometry_is_rejected() {
    let (ckpt, gen) = committed_checkpoint("cc-geom");

    // Hand-craft a manifest whose self-hash is *correct* but whose
    // n/b imply a different data length than it records: only geometry
    // validation — not the hash — can catch this one.
    let mut body = String::new();
    body.push_str("cholcomm-ooc-checkpoint v4\n");
    body.push_str(&format!("gen={gen}\n"));
    body.push_str("next_panel=2\n");
    body.push_str("n=16\n");
    body.push_str("b=4\n");
    body.push_str("data_len=512\n"); // n=16, b=4 actually implies 2048
    body.push_str(&format!("data_fnv={:016x}\n", 0u64));
    let h = fnv1a(body.as_bytes());
    body.push_str(&format!("manifest_fnv={h:016x}\n"));
    let mut store = FsStore::new();
    store
        .write_file(&ckpt.manifest_file(gen), body.as_bytes())
        .expect("plant manifest");

    let err = ckpt.load(&mut FsStore::new()).expect_err("geometry mismatch must be rejected");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(
        err.to_string().contains("geometry"),
        "the error names the failure mode: {err}"
    );
    ckpt.remove(&mut FsStore::new()).expect("cleanup");
}

#[test]
fn every_journal_byte_prefix_leaves_a_recoverable_checkpoint() {
    // The journal is append-only and each record self-authenticates, so
    // *any* byte-prefix of it (a torn tail) must parse to a valid
    // earlier state — never an error, never garbage adopted.
    let (ckpt, gen) = committed_checkpoint("cc-jtrunc");
    let journal_path = ckpt.journal_file();
    let journal = std::fs::read(&journal_path).expect("journal bytes");
    let data = std::fs::read(ckpt.data_file(gen)).expect("data bytes");
    let manifest = std::fs::read(ckpt.manifest_file(gen)).expect("manifest bytes");

    for cut in 0..=journal.len() {
        // Restore the full file set first: a prefix that uncommits the
        // generation legitimately sweeps its files.
        std::fs::write(&journal_path, &journal[..cut]).expect("write truncation");
        std::fs::write(ckpt.data_file(gen), &data).expect("restore data");
        std::fs::write(ckpt.manifest_file(gen), &manifest).expect("restore manifest");
        let state = ckpt
            .load(&mut FsStore::new())
            .unwrap_or_else(|e| panic!("journal prefix of {cut} bytes must not error: {e}"));
        match state {
            None => {} // commit record torn away: legitimate fresh start
            Some(s) => assert_eq!(
                (s.next_panel, s.n, s.b, s.gen),
                (2, 16, 4, gen),
                "only the committed generation may be adopted (prefix {cut})"
            ),
        }
    }
    ckpt.remove(&mut FsStore::new()).expect("cleanup");
}
