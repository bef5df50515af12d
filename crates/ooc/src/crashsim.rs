//! The crash-point explorer: record a checkpointed out-of-core
//! factorization once on the simulated crash disk, then re-drive
//! recovery from the durable state at *every* crash site and assert the
//! run still completes bit-identical to the clean factor.
//!
//! This is the durability analogue of the trace-once/replay-many
//! simulation engine: [`record_run`] executes one checkpointed POTRF
//! against a [`SimDisk`] (tile traffic via
//! [`SimMatrix`], checkpoint traffic via `SimStore` on the same disk)
//! and keeps the recorded op schedule; [`explore_crash_sites`]
//! materializes each [`CrashSite`]'s durable image with
//! `cholcomm_faults::crash_state` — a pure function, no re-execution —
//! boots a "new process" on it, and runs recovery to completion.
//! Enumerate sites exhaustively (`crash_sites_exhaustive`) at small `n`
//! or sample them (`crash_sites_sampled`) at large `n`.
//!
//! Recovery is exactly what a restarted production process would do:
//! re-create the data-file container from the original input (the file
//! on disk may be torn to a length no `open` accepts), then run
//! [`ooc_potrf_checkpointed`] with the recording's I/O
//! workers — which restores the last committed checkpoint over it, or
//! legitimately starts from scratch when nothing ever committed.  A site **fails** when recovery errors out or
//! completes with a factor that differs from the clean run's in any
//! bit; failing sites are shrunk (`shrink_site`) to a 1-minimal fault
//! plan whose `Display` string reproduces the violation.

use crate::backend::IoBackend;
use crate::checkpoint::{Checkpoint, Generation};
use crate::pipeline::{ooc_potrf_checkpointed, PipelineConfig};
use crate::potrf::OocError;
use crate::tilefile::SimMatrix;
use cholcomm_faults::journal::{parse_journal, Record};
use cholcomm_faults::{
    crash_state, shrink_site, CommitDiscipline, CrashSite, SimDisk, SimOp, SimState, SimStore,
};
use cholcomm_matrix::Matrix;
use std::sync::{Arc, Mutex};

/// One recorded checkpointed factorization on the simulated disk.
#[derive(Debug)]
pub struct RecordedRun {
    /// The SPD input.
    pub input: Matrix<f64>,
    /// Tile size.
    pub b: usize,
    /// Tile-cache capacity the run used.
    pub capacity: usize,
    /// Sector size of the simulated disk.
    pub sector: usize,
    /// Commit discipline the recorded run's checkpoints used.
    pub discipline: CommitDiscipline,
    /// The full mutating-op schedule (barriers included).
    pub schedule: Vec<SimOp>,
    /// The factor the clean (uncrashed) run produced.
    pub clean_factor: Matrix<f64>,
    /// Panels in the factorization.
    pub total_panels: usize,
    /// I/O workers the run was recorded with (0: every tile move inline
    /// on the compute thread); recovery uses the same.
    pub io_workers: usize,
    /// Prefetch depth the run was recorded with (moot at zero workers).
    pub lookahead: usize,
    data_name: String,
    ckpt_prefix: String,
}

const DATA_NAME: &str = "a.data";
const CKPT_PREFIX: &str = "ckpt";

/// Run one checkpointed factorization of `a` on a fresh simulated disk
/// and record its op schedule.  The run itself is uncrashed; its
/// schedule is the map every crash site is carved out of.
///
/// `io_workers = 0` moves every tile inline on the compute thread (the
/// synchronous driver; `lookahead` is moot); more workers prefetch up
/// to `lookahead` tiles and defer write-backs.  The epoch barrier drains
/// them before every checkpoint commit, so the explorer must find
/// *zero* additional violations.  Record with `io_workers ≤ 1` when the
/// schedule itself must be deterministic (the exhaustive explorer): one
/// worker completes jobs in submission order, the same op order as zero
/// workers.  Any worker count is fine when only recovery outcomes are
/// asserted.
pub fn record_run(
    a: &Matrix<f64>,
    b: usize,
    capacity: usize,
    sector: usize,
    discipline: CommitDiscipline,
    io_workers: usize,
    lookahead: usize,
) -> Result<RecordedRun, OocError> {
    let disk = Arc::new(Mutex::new(SimDisk::new(sector)));
    let mut sm = SimMatrix::create(Arc::clone(&disk), DATA_NAME, a, b)?;
    let mut store = SimStore::new(Arc::clone(&disk));
    let ckpt = Checkpoint::at(std::path::Path::new(CKPT_PREFIX)).with_discipline(discipline);
    let cfg = config(capacity, io_workers, lookahead);
    ooc_potrf_checkpointed(&mut sm, &ckpt, &mut store, &cfg)?;
    let clean_factor = sm.to_matrix()?;
    let total_panels = sm.nb();
    let schedule = disk
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .schedule()
        .to_vec();
    Ok(RecordedRun {
        input: a.clone(),
        b,
        capacity,
        sector,
        discipline,
        schedule,
        clean_factor,
        total_panels,
        io_workers,
        lookahead,
        data_name: DATA_NAME.to_string(),
        ckpt_prefix: CKPT_PREFIX.to_string(),
    })
}

fn config(capacity: usize, io_workers: usize, lookahead: usize) -> PipelineConfig {
    PipelineConfig::new(capacity)
        .with_io_workers(io_workers)
        .with_lookahead(lookahead)
}

impl RecordedRun {
    /// Boot a "new process" on the durable image at `site` and run
    /// recovery to completion.  Returns the recovered factor and the
    /// panel the resumed factorization started at.
    pub fn recover_at(&self, site: &CrashSite) -> Result<(Matrix<f64>, usize), OocError> {
        let state = crash_state(&self.schedule, site, self.sector);
        self.recover_from(state)
    }

    /// Recovery from an explicit durable image (see [`recover_at`]).
    ///
    /// [`recover_at`]: Self::recover_at
    pub fn recover_from(&self, state: SimState) -> Result<(Matrix<f64>, usize), OocError> {
        let disk = Arc::new(Mutex::new(SimDisk::from_state(state, self.sector)));
        // The data file on disk may be torn to a length no `open`
        // accepts; a restarted driver always re-materializes the
        // container from its input source, and the committed checkpoint
        // (when one exists) is restored over it.
        let mut sm = SimMatrix::create(Arc::clone(&disk), &self.data_name, &self.input, self.b)?;
        let mut store = SimStore::new(disk);
        // Recovery always runs the *correct* protocol: the discipline
        // under test only shapes the recorded schedule being explored.
        // It does run the same I/O workers as the recording, though — a
        // pipelined run is recovered by a pipelined process.
        let ckpt = Checkpoint::at(std::path::Path::new(&self.ckpt_prefix));
        let cfg = config(self.capacity, self.io_workers, self.lookahead);
        let (report, _) = ooc_potrf_checkpointed(&mut sm, &ckpt, &mut store, &cfg)?;
        Ok((sm.to_matrix()?, report.start_panel))
    }

    /// Why `site` violates crash consistency, or `None` if recovery
    /// completes bit-identically.
    pub fn violation_at(&self, site: &CrashSite) -> Option<String> {
        match self.recover_at(site) {
            Err(e) => Some(format!("recovery failed: {e}")),
            Ok((factor, _)) if factor != self.clean_factor => {
                Some("recovered factor differs from the clean run".to_string())
            }
            Ok(_) => None,
        }
    }

    /// Panels of progress the original run had *issued* checkpoints for
    /// by `crash_index` — the recovery re-work baseline.
    fn issued_next_panel(&self, crash_index: usize) -> usize {
        let journal = Checkpoint::at(std::path::Path::new(&self.ckpt_prefix)).journal_file();
        let appended = self.schedule.iter().take(crash_index).filter_map(|op| match op {
            SimOp::Append { name, bytes: b } if *name == journal => Some(String::from_utf8_lossy(b)),
            _ => None,
        });
        let text: String = appended.collect();
        let issued = parse_journal::<Generation>(&text).into_iter().filter_map(|rec| match rec {
            Record::Intent(_, intent) => Some(intent.next_panel),
            Record::Commit(_) => None,
        });
        issued.max().unwrap_or(0)
    }
}

/// A crash site at which recovery did not reproduce the clean factor,
/// with its shrunk 1-minimal reproduction.
#[derive(Debug, Clone)]
pub struct CrashViolation {
    /// The site as originally enumerated.
    pub site: CrashSite,
    /// The shrunk minimal fault plan that still fails.
    pub minimal: CrashSite,
    /// What went wrong at the minimal site.
    pub reason: String,
}

impl std::fmt::Display for CrashViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} (minimal repro: {}; found at: {})",
            self.reason, self.minimal, self.site
        )
    }
}

/// What exploring a set of crash sites established.
#[derive(Debug)]
pub struct CrashExploration {
    /// Ops in the recorded schedule (barriers included).
    pub schedule_ops: usize,
    /// Distinct crash indices covered by the explored sites.
    pub crash_points: usize,
    /// Crash states materialized and recovered from.
    pub states_explored: usize,
    /// Sites where recovery failed or diverged, each with a shrunk
    /// minimal repro.  Empty = the protocol is crash-consistent over
    /// this site set.
    pub violations: Vec<CrashViolation>,
    /// Total panels re-executed by recovery across all explored states
    /// (work the crash threw away).
    pub rework_panels: u64,
    /// Panels in one full factorization.
    pub total_panels: usize,
}

impl CrashExploration {
    /// Mean fraction of a full factorization re-done per crash state.
    pub fn rework_fraction(&self) -> f64 {
        if self.states_explored == 0 || self.total_panels == 0 {
            return 0.0;
        }
        self.rework_panels as f64 / (self.states_explored as f64 * self.total_panels as f64)
    }
}

/// Re-drive recovery at every site, shrinking each failure to a minimal
/// fault plan.  Violations stop nothing: the full site set is always
/// explored, so one bug does not mask another.
pub fn explore_crash_sites(run: &RecordedRun, sites: &[CrashSite]) -> CrashExploration {
    let mut crash_indices: Vec<usize> = sites.iter().map(|s| s.crash_index).collect();
    crash_indices.sort_unstable();
    crash_indices.dedup();
    let mut violations = Vec::new();
    let mut rework_panels = 0u64;
    for site in sites {
        match run.recover_at(site) {
            Ok((factor, start_panel)) if factor == run.clean_factor => {
                let issued = run.issued_next_panel(site.crash_index);
                rework_panels += issued.saturating_sub(start_panel) as u64;
            }
            outcome => {
                let reason = match outcome {
                    Err(e) => format!("recovery failed: {e}"),
                    Ok(_) => "recovered factor differs from the clean run".to_string(),
                };
                let minimal = shrink_site(site, |cand| run.violation_at(cand).is_some());
                let reason = run.violation_at(&minimal).unwrap_or(reason);
                violations.push(CrashViolation {
                    site: site.clone(),
                    minimal,
                    reason,
                });
            }
        }
    }
    CrashExploration {
        schedule_ops: run.schedule.len(),
        crash_points: crash_indices.len(),
        states_explored: sites.len(),
        violations,
        rework_panels,
        total_panels: run.total_panels,
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use cholcomm_faults::{crash_sites_sampled, schedule_digest, DEFAULT_SECTOR};
    use cholcomm_matrix::spd;

    #[test]
    fn recorded_run_reproduces_the_direct_factor_and_cleans_up() {
        let mut rng = spd::test_rng(400);
        let a = spd::random_spd(8, &mut rng);
        let run = record_run(&a, 4, 3, DEFAULT_SECTOR, CommitDiscipline::Barriered, 0, 1).unwrap();
        assert_eq!(run.total_panels, 2);
        assert!(run.schedule.len() > 10, "schedule: {}", run.schedule.len());
        // The clean factor matches a plain (uncheckpointed) OOC run.
        let disk = Arc::new(Mutex::new(SimDisk::new(DEFAULT_SECTOR)));
        let mut plain = SimMatrix::create(disk, "plain.data", &a, 4).unwrap();
        crate::ooc_potrf_with(&mut plain, 3, cholcomm_matrix::KernelImpl::Reference).unwrap();
        assert_eq!(run.clean_factor, plain.to_matrix().unwrap());
    }

    #[test]
    fn clean_crash_sites_all_recover_bit_identically() {
        let mut rng = spd::test_rng(401);
        let a = spd::random_spd(8, &mut rng);
        let run = record_run(&a, 4, 3, DEFAULT_SECTOR, CommitDiscipline::Barriered, 0, 1).unwrap();
        // Every whole-buffer crash prefix (no drops, no tears): cheap
        // smoke for the exhaustive sweep in tests/crash_consistency.rs.
        let sites: Vec<CrashSite> = (0..=run.schedule.len()).map(CrashSite::clean).collect();
        let report = explore_crash_sites(&run, &sites);
        assert_eq!(report.states_explored, sites.len());
        assert!(
            report.violations.is_empty(),
            "violations: {:?}",
            report.violations
        );
        assert!(report.rework_fraction() <= 1.0);
    }

    #[test]
    fn pipelined_recording_matches_sync_schedule_with_one_worker() {
        let mut rng = spd::test_rng(403);
        let a = spd::random_spd(8, &mut rng);
        let sync = record_run(&a, 4, 3, DEFAULT_SECTOR, CommitDiscipline::Barriered, 0, 1).unwrap();
        let pipe = record_run(&a, 4, 3, DEFAULT_SECTOR, CommitDiscipline::Barriered, 1, 2).unwrap();
        assert_eq!(pipe.clean_factor, sync.clean_factor);
        // One worker completes jobs in submission order, and the epoch
        // barrier drains before every checkpoint: zero and one worker
        // leave the *same* durable op schedule behind.
        assert_eq!(pipe.schedule, sync.schedule);
    }

    #[test]
    fn recorded_schedules_equal_the_synchronous_drivers() {
        // `crash_bench`'s three recordings, pinned at zero I/O workers:
        // op count and digest.
        let runs = [
            (8, 4, 3, CommitDiscipline::Barriered, 500, 32, 0xd2f48f3f533e7a9d),
            (24, 8, 4, CommitDiscipline::Barriered, 502, 43, 0x8cf0f72df1a06dfa),
            (8, 4, 3, CommitDiscipline::UnbarrieredCommit, 501, 29, 0x5b3f84b36ab4f5fb),
        ];
        for (n, b, cap, discipline, seed, ops, digest) in runs {
            let a = spd::random_spd(n, &mut spd::test_rng(seed));
            let run = record_run(&a, b, cap, DEFAULT_SECTOR, discipline, 0, 1).unwrap();
            let tag = format!("n={n} b={b} cap={cap} {discipline:?}");
            assert_eq!(run.schedule.len(), ops, "{tag}");
            assert_eq!(schedule_digest(&run.schedule), digest, "{tag}");
        }
    }

    #[test]
    fn pipelined_crash_sites_all_recover_bit_identically() {
        let mut rng = spd::test_rng(404);
        let a = spd::random_spd(8, &mut rng);
        let run = record_run(&a, 4, 3, DEFAULT_SECTOR, CommitDiscipline::Barriered, 2, 2).unwrap();
        let sites: Vec<CrashSite> = (0..=run.schedule.len()).map(CrashSite::clean).collect();
        let report = explore_crash_sites(&run, &sites);
        assert!(
            report.violations.is_empty(),
            "violations: {:?}",
            report.violations
        );
    }

    #[test]
    fn sampled_sites_recover_on_a_larger_matrix() {
        let mut rng = spd::test_rng(402);
        let a = spd::random_spd(16, &mut rng);
        let run = record_run(&a, 4, 4, DEFAULT_SECTOR, CommitDiscipline::Barriered, 0, 1).unwrap();
        let sites = crash_sites_sampled(&run.schedule, run.sector, 0xC0FFEE, 40);
        let report = explore_crash_sites(&run, &sites);
        assert!(
            report.violations.is_empty(),
            "violations: {:?}",
            report.violations
        );
    }
}
