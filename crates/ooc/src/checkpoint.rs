//! Super-column-granularity checkpoint/restart for the out-of-core Cholesky,
//! on the write-ahead journal of [`cholcomm_faults::journal`].
//!
//! After each completed super-column (the `w` block columns of the
//! left-looking walk the driver runs as one step; see
//! [`super_column_width`](crate::pipeline::super_column_width)) the
//! driver writes every dirty tile back and commits a *generation*: a
//! snapshot of the backing file (`<prefix>.g<gen>.data`) plus a
//! self-hashed manifest (`<prefix>.g<gen>.manifest`) repeating the intent
//! record's fields — the next panel (block column) to run, `n`, `b`, the
//! snapshot's length and FNV-1a.  Every column before it is final and
//! every column from it on untouched, so a generation resumes at any
//! width.
//! Both files are the commit's payload; the superseded generation is
//! pruned after it.
//!
//! Recovery is the journal's **strict** policy: [`Checkpoint::load`]
//! resumes from the highest committed generation, sweeps uncommitted or
//! stale generation files and `.tmp` strays, and validates everything the
//! commit vouches for — manifest self-hash, generation, geometry
//! (`data_len` must equal the tile layout implied by `n`/`b`), agreement
//! with the intent, snapshot length and hash.  A committed generation
//! that fails is a **protocol violation or storage corruption** and fails
//! loudly with [`std::io::ErrorKind::InvalidData`], never a silent
//! fall-back to older state: "commit implies durable" is what the barrier
//! before the commit record buys, and the crash-point explorer
//! (`tests/crash_consistency.rs`) leans on that loudness to catch
//! [`CommitDiscipline::UnbarrieredCommit`].
//!
//! A *full* snapshot per checkpoint is deliberate: restarting mid-column
//! from the live data file would resume from tiles a crashed run
//! flushed or not in any mix; restoring the last boundary snapshot is
//! the only state that is both cheap to reason about and bitwise
//! reproducible.  The snapshot is of the left-looking walk's file — the
//! finished block columns, the rest as input — so the manifest's magic
//! names that format (`v4`), and a checkpoint an earlier driver wrote
//! (`v3`: the right-looking walk's file, its trailing submatrix partly
//! updated) is refused with [`std::io::ErrorKind::InvalidData`] instead
//! of resumed into a wrong factor.  Checkpoint I/O is charged to
//! its own counters ([`CheckpointReport`]), not to the algorithm's
//! [`IoStats`](crate::IoStats), and is not subject to tile-level fault
//! injection — the fault model targets the data path, recovery targets
//! the recovery path.
//!
//! All storage goes through [`Store`], so the same protocol bytes run
//! over the real filesystem ([`FsStore`](cholcomm_faults::FsStore)) in
//! production and over the simulated crash disk (`SimStore`) under the
//! explorer.

use crate::backend::IoBackend;
use crate::potrf::OocError;
use cholcomm_faults::journal::{self, Fields, Intent, Replay};
use cholcomm_faults::{CommitDiscipline, Store};
use cholcomm_matrix::digest::fnv1a;
use std::path::Path;

const MANIFEST_MAGIC: &str = "cholcomm-ooc-checkpoint v4";

fn bad(msg: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

/// Cap on in-run rollbacks per panel (and for the final scrub).  A
/// corruption strikes only once (the backend remembers landed faults
/// across restores), so each retry makes progress; the cap is a safety
/// net, not a policy.
pub(crate) const MAX_RESTORE_RETRIES: usize = 4;

/// Unhealable multi-element corruption (a checksumming backend's
/// `InvalidData`): answered in-run by rolling the file back to the last
/// panel checkpoint and retrying.
pub(crate) fn unhealable(e: &OocError) -> bool {
    matches!(e, OocError::Io(io) if io.kind() == std::io::ErrorKind::InvalidData)
}

/// What a fault plan's crash-after-panel surfaces as.
pub(crate) fn simulated_crash() -> OocError {
    OocError::Io(std::io::Error::other(
        "simulated crash: process killed after panel",
    ))
}

/// The checkpointing half of a run: where generations go and the
/// report their traffic is charged to.
pub(crate) struct Checkpointing<'a, St: Store> {
    pub(crate) ckpt: &'a Checkpoint,
    pub(crate) store: &'a mut St,
    pub(crate) report: &'a mut CheckpointReport,
}

impl<St: Store> Checkpointing<'_, St> {
    /// Where to start: restore the committed generation over `fm` and
    /// resume at its panel, or — when nothing ever committed — snapshot
    /// the pristine input and start at panel 0.  Without that baseline
    /// a crash inside panel 0 would leave partially-updated tiles on
    /// disk and the resume would factor corrupted input.
    pub(crate) fn resume_point<B: IoBackend>(&mut self, fm: &mut B) -> Result<usize, OocError> {
        let start = match self.ckpt.load(self.store)? {
            Some(state) => {
                if state.n != fm.n() || state.b != fm.b() {
                    return Err(OocError::Io(bad(format!(
                        "checkpoint is for n={} b={}, matrix has n={} b={}",
                        state.n,
                        state.b,
                        fm.n(),
                        fm.b()
                    ))));
                }
                self.report.checkpoint_bytes += self.ckpt.restore(self.store, fm)?;
                state.next_panel
            }
            None => {
                self.report.checkpoint_bytes += self.ckpt.save(self.store, fm, 0)?;
                self.report.checkpoints_written += 1;
                0
            }
        };
        self.report.start_panel = start;
        Ok(start)
    }
}

/// A checkpoint location rooted at a path prefix.  On disk it owns
/// `<prefix>.journal` plus one `<prefix>.g<gen>.data` /
/// `<prefix>.g<gen>.manifest` pair per live generation.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    prefix: String,
    discipline: CommitDiscipline,
}

/// Parsed state of the highest committed generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointState {
    /// First panel that still needs to run.
    pub next_panel: usize,
    /// Matrix order the snapshot belongs to.
    pub n: usize,
    /// Tile size the snapshot belongs to.
    pub b: usize,
    /// Committed generation the state was read from.
    pub gen: u64,
}

/// What a checkpointed run did.
#[derive(Debug, Clone, Copy, Default)]
pub struct CheckpointReport {
    /// Panel the run started at (0 for a fresh start).
    pub start_panel: usize,
    /// Panels completed by this run.
    pub panels_done: usize,
    /// Checkpoints written.
    pub checkpoints_written: usize,
    /// Bytes of checkpoint snapshot traffic (separate from the
    /// algorithm's tile I/O).
    pub checkpoint_bytes: u64,
    /// In-run rollbacks to the last checkpoint (unhealable tile
    /// corruption answered by restore-and-retry).
    pub restores: usize,
}

/// A generation's intent record; with its `gen`, also its manifest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Generation {
    pub(crate) next_panel: usize,
    n: usize,
    b: usize,
    data_len: u64,
    data_fnv: u64,
}

impl Intent for Generation {
    fn fields(&self) -> String {
        format!(
            "next_panel={} n={} b={} data_len={} data_fnv={:016x}",
            self.next_panel, self.n, self.b, self.data_len, self.data_fnv
        )
    }

    fn decode(fields: &Fields<'_>) -> Option<Self> {
        Some(Generation {
            next_panel: fields.get("next_panel")?,
            n: fields.get("n")?,
            b: fields.get("b")?,
            data_len: fields.get("data_len")?,
            data_fnv: fields.hex("data_fnv")?,
        })
    }
}

impl Checkpoint {
    /// Checkpoint files rooted at `prefix`.
    pub fn at(prefix: &Path) -> Self {
        Checkpoint {
            prefix: prefix.to_string_lossy().into_owned(),
            discipline: CommitDiscipline::Barriered,
        }
    }

    /// Override the commit discipline (explorer self-test only).
    pub fn with_discipline(mut self, discipline: CommitDiscipline) -> Self {
        self.discipline = discipline;
        self
    }

    /// Name of the write-ahead journal.
    pub fn journal_file(&self) -> String {
        format!("{}.journal", self.prefix)
    }

    /// Name of generation `gen`'s data snapshot.
    pub fn data_file(&self, gen: u64) -> String {
        format!("{}.g{}.data", self.prefix, gen)
    }

    /// Name of generation `gen`'s manifest.
    pub fn manifest_file(&self, gen: u64) -> String {
        format!("{}.g{}.manifest", self.prefix, gen)
    }

    fn journal(&self, store: &mut impl Store) -> std::io::Result<Replay<Generation>> {
        Replay::recover(store, &self.journal_file())
    }

    /// Delete every generation file except `keep`'s, and any `.tmp`
    /// strays under the prefix (a crashed legacy save's leftovers).
    fn sweep(&self, store: &mut impl Store, keep: Option<u64>) -> std::io::Result<()> {
        let kept = keep.map(|g| [self.data_file(g), self.manifest_file(g)]);
        let kept = |name: &str| kept.as_ref().is_some_and(|kept| kept.iter().any(|k| k == name));
        journal::sweep(store, &format!("{}.g", self.prefix), kept)?;
        journal::sweep(store, &self.prefix, |name| !name.ends_with(".tmp"))
    }

    fn parse_manifest(&self, text: &str, gen: u64) -> std::io::Result<Generation> {
        // The manifest's last line authenticates everything before it.  A
        // torn tail can shear off any suffix, so the newline ending that
        // line is required too: it is the cheapest completeness witness.
        let (body, fnv_line) = text.rsplit_once("manifest_fnv=").unwrap_or((text, ""));
        let recorded = fnv_line.strip_suffix('\n').and_then(|v| u64::from_str_radix(v, 16).ok());
        if recorded != Some(fnv1a(body.as_bytes())) {
            return Err(bad("checkpoint manifest failed its integrity check (torn write?)".into()));
        }
        match body.lines().next() {
            Some(MANIFEST_MAGIC) => {}
            Some(old) if old.starts_with("cholcomm-ooc-checkpoint ") => {
                return Err(bad(format!(
                    "checkpoint manifest is {old:?}, not {MANIFEST_MAGIC:?}: an earlier \
                     driver's right-looking file state, which this one cannot resume"
                )));
            }
            _ => return Err(bad("unrecognised checkpoint manifest".into())),
        }
        let fields = Fields(body);
        let (Some(mgen), Some(manifest)) = (fields.get::<u64>("gen"), Generation::decode(&fields))
        else {
            return Err(bad("incomplete checkpoint manifest".into()));
        };
        if mgen != gen {
            return Err(bad(format!(
                "manifest records generation {mgen}, journal committed {gen} — \
                 mixed-generation checkpoint"
            )));
        }
        // Geometry must be self-consistent: a manifest whose hash checks
        // out but whose n/b disagree with its own data length was
        // assembled from mismatched pieces.
        let Generation { n, b, data_len, .. } = manifest;
        let nb = n.div_ceil(b);
        let expect = (nb * nb * b * b * 8) as u64;
        if data_len != expect {
            return Err(bad(format!(
                "manifest geometry n={n} b={b} implies {expect} data bytes, records {data_len}"
            )));
        }
        Ok(manifest)
    }

    /// Recover from the journal on `store`: find the highest committed
    /// generation, validate everything its commit vouches for, and sweep
    /// uncommitted/stale generation files and `.tmp` strays.
    ///
    /// Returns `Ok(None)` when no generation ever committed (fresh
    /// start).  Returns an [`std::io::ErrorKind::InvalidData`] error —
    /// loudly, with no silent fall-back — when a *committed* generation
    /// fails validation: under the barriered commit discipline that can
    /// only mean a commit-protocol violation or storage corruption.
    pub fn load(&self, store: &mut impl Store) -> std::io::Result<Option<CheckpointState>> {
        let Some((gen, intent)) = self.journal(store)?.committed.pop_last() else {
            // Nothing committed: any generation files or temp strays are
            // garbage from a crashed save — roll them back.
            self.sweep(store, None)?;
            return Ok(None);
        };
        let violation = |msg: String| {
            bad(format!(
                "{msg} — commit-protocol violation or storage corruption \
                 (gen {gen} is committed but not durable)"
            ))
        };
        if !store.exists(&self.manifest_file(gen)) {
            return Err(violation("committed manifest is missing".into()));
        }
        let manifest = store.read(&self.manifest_file(gen))?;
        let manifest = self
            .parse_manifest(&String::from_utf8_lossy(&manifest), gen)
            .map_err(|e| violation(e.to_string()))?;
        if manifest != intent {
            return Err(violation(format!(
                "manifest {manifest:?} disagrees with the journal intent {intent:?}"
            )));
        }
        if !store.exists(&self.data_file(gen)) {
            return Err(violation("committed data snapshot is missing".into()));
        }
        let data = store.read(&self.data_file(gen))?;
        if data.len() as u64 != intent.data_len {
            return Err(violation(format!(
                "checkpoint data is {} bytes, manifest records {} (truncated?)",
                data.len(),
                intent.data_len
            )));
        }
        if fnv1a(&data) != intent.data_fnv {
            return Err(violation(
                "checkpoint data failed its integrity check".into(),
            ));
        }
        self.sweep(store, Some(gen))?;
        let Generation { next_panel, n, b, .. } = intent;
        Ok(Some(CheckpointState { next_panel, n, b, gen }))
    }

    /// Snapshot the backing file as a new generation and commit it
    /// through the journal (see the module docs for the op order).
    /// Under [`CommitDiscipline::Barriered`] a crash at any instant —
    /// including torn or reordered un-barriered writes — leaves either
    /// this generation committed-and-valid or the previous one; the
    /// in-between states are uncommitted and swept by
    /// [`load`](Self::load).
    pub fn save<B: IoBackend>(
        &self,
        store: &mut impl Store,
        fm: &B,
        next_panel: usize,
    ) -> std::io::Result<u64> {
        let data = store.read(&backend_data_name(fm)?)?;
        let replay = self.journal(store)?;
        let gen = replay.max_gen + 1;
        let intent = Generation {
            next_panel,
            n: fm.n(),
            b: fm.b(),
            data_len: data.len() as u64,
            data_fnv: fnv1a(&data),
        };
        // The manifest is the intent's fields, one per line, behind the
        // magic and the generation, and authenticated by its last line.
        let fields = intent.fields().replace(' ', "\n");
        let mut manifest = format!("{MANIFEST_MAGIC}\ngen={gen}\n{fields}\n");
        manifest += &format!("manifest_fnv={:016x}\n", fnv1a(manifest.as_bytes()));
        let payload: [(&str, &[u8]); 2] = [
            (&self.data_file(gen), &data),
            (&self.manifest_file(gen), manifest.as_bytes()),
        ];
        journal::commit(store, &self.journal_file(), gen, &intent, &payload, self.discipline)?;

        // Prune the superseded generation; a crash in here leaves a
        // stray pair that the next load sweeps.
        if let Some(&old) = replay.committed.keys().next_back() {
            store.remove(&self.data_file(old))?;
            store.remove(&self.manifest_file(old))?;
        }
        Ok(data.len() as u64)
    }

    /// Copy the committed snapshot back over the backing file
    /// (discarding whatever a crashed run left there) and tell the
    /// backend its storage moved under it.
    pub fn restore<B: IoBackend>(
        &self,
        store: &mut impl Store,
        fm: &mut B,
    ) -> std::io::Result<u64> {
        let Some(&gen) = self.journal(store)?.committed.keys().next_back() else {
            return Err(bad("no committed checkpoint to restore from".into()));
        };
        let data = store.read(&self.data_file(gen))?;
        let dst = backend_data_name(fm)?;
        store.write_file(&dst, &data)?;
        fm.storage_restored();
        Ok(data.len() as u64)
    }

    /// Delete the checkpoint (after a completed run).  The journal goes
    /// first, behind a barrier, *then* the generation files: recovery
    /// must never observe a journal whose committed generation's files
    /// were already unlinked.
    pub fn remove(&self, store: &mut impl Store) -> std::io::Result<()> {
        store.remove(&self.journal_file())?;
        store.barrier()?;
        self.sweep(store, None)?;
        store.barrier()?;
        Ok(())
    }
}

/// The backend's data file as a store name.
fn backend_data_name<B: IoBackend>(fm: &B) -> std::io::Result<String> {
    fm.path()
        .map(|p| p.to_string_lossy().into_owned())
        .ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "backend has no backing file to snapshot",
            )
        })
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::backend::FaultyBackend;
    use cholcomm_faults::journal::journal_line;
    use crate::tilefile::{scratch_path, FileMatrix};
    use crate::pipeline::{ooc_potrf_checkpointed, PipelineConfig};
    use crate::potrf::ooc_potrf_with;
    use cholcomm_faults::{CrashPoint, FaultPlan, FsStore};
    use cholcomm_matrix::{norms, spd, KernelImpl};
    use std::path::PathBuf;

    fn ckpt_prefix(tag: &str) -> PathBuf {
        scratch_path(tag).with_extension("ckpt")
    }

    /// The checkpointed driver at zero I/O workers on the real
    /// filesystem.
    fn sync_checkpointed<B: IoBackend>(
        fm: &mut B,
        capacity_tiles: usize,
        ckpt: &Checkpoint,
    ) -> Result<CheckpointReport, OocError> {
        let cfg = PipelineConfig::new(capacity_tiles).with_io_workers(0);
        ooc_potrf_checkpointed(fm, ckpt, &mut FsStore::new(), &cfg).map(|(report, _)| report)
    }

    #[test]
    fn uninterrupted_checkpointed_run_matches_plain() {
        let mut rng = spd::test_rng(220);
        let a = spd::random_spd(32, &mut rng);
        let p1 = scratch_path("ckpt-plain");
        let mut plain = FileMatrix::create(&p1, &a, 8).unwrap();
        ooc_potrf_with(&mut plain, 4, KernelImpl::Reference).unwrap();
        let want = plain.to_matrix().unwrap();

        let p2 = scratch_path("ckpt-run");
        let mut fm = FileMatrix::create(&p2, &a, 8).unwrap();
        let ckpt = Checkpoint::at(&ckpt_prefix("uninterrupted"));
        let rep = sync_checkpointed(&mut fm, 4, &ckpt).unwrap();
        let got = fm.to_matrix().unwrap();
        assert_eq!(norms::max_abs_diff(&got, &want), 0.0, "bit-identical");
        assert_eq!(rep.start_panel, 0);
        assert_eq!(rep.panels_done, 4);
        // One baseline snapshot of the input plus one per panel.
        assert_eq!(rep.checkpoints_written, 5);
        assert!(rep.checkpoint_bytes > 0);
        assert!(ckpt.load(&mut FsStore::new()).unwrap().is_none(), "checkpoint cleaned up");
        assert!(
            !std::path::Path::new(&ckpt.journal_file()).exists(),
            "journal removed on success"
        );
    }

    #[test]
    fn crash_mid_factorization_then_resume_is_bit_identical() {
        let mut rng = spd::test_rng(221);
        let a = spd::random_spd(40, &mut rng);

        // Reference: uninterrupted factorization.
        let pref = scratch_path("ckpt-ref");
        let mut reference = FileMatrix::create(&pref, &a, 8).unwrap();
        ooc_potrf_with(&mut reference, 4, KernelImpl::Reference).unwrap();
        let want = reference.to_matrix().unwrap();

        // Crashing run: die somewhere in the middle of the tile traffic.
        let data_path = scratch_path("ckpt-crash");
        let ckpt = Checkpoint::at(&ckpt_prefix("crash"));
        let n = a.rows();
        {
            let mut fm = FileMatrix::create(&data_path, &a, 8).unwrap();
            fm.set_persist(true);
            let plan = FaultPlan::builder(42)
                .crash_at(CrashPoint::AfterDiskOps(60))
                .build();
            let mut fb = FaultyBackend::new(fm, plan);
            let err = sync_checkpointed(&mut fb, 4, &ckpt).unwrap_err();
            assert!(matches!(err, OocError::Io(_)), "crash surfaces as I/O death");
            assert!(fb.crashed());
        }

        // "New process": reopen the file, resume from the checkpoint.
        let state = ckpt.load(&mut FsStore::new()).unwrap().expect("a checkpoint was written");
        assert!(state.next_panel > 0, "at least one panel completed pre-crash");
        assert!(state.next_panel < 5, "crash happened before the end");
        let mut fm = FileMatrix::open(&data_path, n, 8).unwrap();
        fm.set_persist(false); // test scratch: clean up on drop
        let rep = sync_checkpointed(&mut fm, 4, &ckpt).unwrap();
        assert_eq!(rep.start_panel, state.next_panel, "resumed, not restarted");

        let got = fm.to_matrix().unwrap();
        assert_eq!(
            norms::max_abs_diff(&got, &want),
            0.0,
            "resumed factor must be bit-identical to the uninterrupted one"
        );
        let r = norms::cholesky_residual(&a, &got.lower_triangle().unwrap());
        assert!(r < norms::residual_tolerance(n), "residual {r}");
    }

    #[test]
    fn crash_inside_first_panel_restores_the_pristine_input() {
        // The nastiest case: the process dies before the first panel
        // checkpoint ever lands, with partially-updated tiles already on
        // disk.  The baseline checkpoint written at startup must roll
        // the file back to the untouched input, or the resume factors
        // corrupted data.
        let mut rng = spd::test_rng(224);
        let a = spd::random_spd(32, &mut rng);
        let pref = scratch_path("ckpt-p0-ref");
        let mut reference = FileMatrix::create(&pref, &a, 8).unwrap();
        ooc_potrf_with(&mut reference, 4, KernelImpl::Reference).unwrap();
        let want = reference.to_matrix().unwrap();

        let data_path = scratch_path("ckpt-p0");
        let ckpt = Checkpoint::at(&ckpt_prefix("panel0"));
        {
            let mut fm = FileMatrix::create(&data_path, &a, 8).unwrap();
            fm.set_persist(true);
            // With the minimum cache capacity the first block column
            // overflows the cache: its fourth read evicts the solved
            // tile (1, 0) to the file first, so after four ops the file
            // is neither A nor a checkpointed state.
            let plan = FaultPlan::builder(5)
                .crash_at(CrashPoint::AfterDiskOps(4))
                .build();
            let mut fb = FaultyBackend::new(fm, plan);
            sync_checkpointed(&mut fb, 3, &ckpt).unwrap_err();
        }
        let state = ckpt.load(&mut FsStore::new()).unwrap().expect("baseline checkpoint exists");
        assert_eq!(state.next_panel, 0, "no panel completed before the crash");

        let mut fm = FileMatrix::open(&data_path, 32, 8).unwrap();
        fm.set_persist(false); // test scratch: clean up on drop
        let rep = sync_checkpointed(&mut fm, 3, &ckpt).unwrap();
        assert_eq!(rep.start_panel, 0);
        let got = fm.to_matrix().unwrap();
        assert_eq!(
            norms::max_abs_diff(&got, &want),
            0.0,
            "resume after a panel-0 crash must factor the original input"
        );
    }

    #[test]
    fn crash_after_panel_loses_dirty_tiles_but_resume_recovers() {
        let mut rng = spd::test_rng(222);
        let a = spd::random_spd(32, &mut rng);
        let pref = scratch_path("ckpt-ap-ref");
        let mut reference = FileMatrix::create(&pref, &a, 8).unwrap();
        ooc_potrf_with(&mut reference, 4, KernelImpl::Reference).unwrap();
        let want = reference.to_matrix().unwrap();

        let data_path = scratch_path("ckpt-ap");
        let ckpt = Checkpoint::at(&ckpt_prefix("after-panel"));
        {
            let mut fm = FileMatrix::create(&data_path, &a, 8).unwrap();
            fm.set_persist(true);
            let plan = FaultPlan::builder(1)
                .crash_at(CrashPoint::AfterPanel(2))
                .build();
            let mut fb = FaultyBackend::new(fm, plan);
            sync_checkpointed(&mut fb, 4, &ckpt).unwrap_err();
        }
        let state = ckpt.load(&mut FsStore::new()).unwrap().expect("checkpoints up to panel 2");
        assert_eq!(state.next_panel, 2, "panel 2's checkpoint never landed");

        let mut fm = FileMatrix::open(&data_path, 32, 8).unwrap();
        fm.set_persist(false); // test scratch: clean up on drop
        let rep = sync_checkpointed(&mut fm, 4, &ckpt).unwrap();
        assert_eq!(rep.start_panel, 2);
        assert_eq!(rep.panels_done, 2);
        let got = fm.to_matrix().unwrap();
        assert_eq!(norms::max_abs_diff(&got, &want), 0.0);
    }

    #[test]
    fn flaky_disk_plus_crash_still_converges() {
        // The acceptance-style scenario: transient disk faults on top of
        // a mid-run crash; resume under a (different) flaky plan.
        let mut rng = spd::test_rng(223);
        let a = spd::random_spd(40, &mut rng);
        let pref = scratch_path("ckpt-flaky-ref");
        let mut reference = FileMatrix::create(&pref, &a, 8).unwrap();
        ooc_potrf_with(&mut reference, 4, KernelImpl::Reference).unwrap();
        let want = reference.to_matrix().unwrap();

        let data_path = scratch_path("ckpt-flaky");
        let ckpt = Checkpoint::at(&ckpt_prefix("flaky"));
        let transients;
        {
            let mut fm = FileMatrix::create(&data_path, &a, 8).unwrap();
            fm.set_persist(true);
            let plan = FaultPlan::builder(9)
                .disk_transient_rate(0.1)
                .disk_short_read_rate(0.05)
                .crash_at(CrashPoint::AfterDiskOps(30))
                .build();
            let mut fb = FaultyBackend::new(fm, plan);
            sync_checkpointed(&mut fb, 4, &ckpt).unwrap_err();
            transients = fb.fault_stats();
            assert!(transients.disk_faults() >= 3, "flaky disk must have bitten: {transients:?}");
        }

        let mut fm = FileMatrix::open(&data_path, 40, 8).unwrap();
        fm.set_persist(false); // test scratch: clean up on drop
        let plan = FaultPlan::builder(10).disk_transient_rate(0.1).build();
        let mut fb = FaultyBackend::new(fm, plan);
        sync_checkpointed(&mut fb, 4, &ckpt).unwrap();
        let got = fb.inner_mut().to_matrix().unwrap();
        assert_eq!(
            norms::max_abs_diff(&got, &want),
            0.0,
            "flaky disk + crash + resume must not change a single bit"
        );
    }

    #[test]
    fn unhealable_corruption_mid_run_restores_and_retries() {
        use crate::abft::AbftBackend;

        let mut rng = spd::test_rng(226);
        let a = spd::random_spd(32, &mut rng);
        let pref = scratch_path("ckpt-abft-ref");
        let mut reference = FileMatrix::create(&pref, &a, 8).unwrap();
        ooc_potrf_with(&mut reference, 4, KernelImpl::Reference).unwrap();
        let want = reference.to_matrix().unwrap();

        // Two elements of one tile struck in the same panel: beyond the
        // checksums, so the driver must roll back to the panel
        // checkpoint and retry.  A second, healable flip rides along.
        let plan = FaultPlan::builder(50)
            .inject_bit_flip(1, (2, 1), (0, 0), 1 << 44)
            .inject_bit_flip(1, (2, 1), (6, 3), 1 << 45)
            .inject_bit_flip(2, (3, 2), (1, 1), 1 << 63)
            .build();
        let fm = FileMatrix::create(&scratch_path("ckpt-abft"), &a, 8).unwrap();
        let mut ab = AbftBackend::new(fm, plan);
        let ckpt = Checkpoint::at(&ckpt_prefix("abft"));
        let rep = sync_checkpointed(&mut ab, 3, &ckpt).unwrap();
        assert!(rep.restores >= 1, "multi-element corruption forced a rollback");
        assert_eq!(ab.abft_stats().unrecoverable, 1);
        assert_eq!(ab.abft_stats().corrections, 1);
        let got = ab.inner_mut().to_matrix().unwrap();
        assert_eq!(
            norms::max_abs_diff(&got, &want),
            0.0,
            "restored-and-retried factor must be bit-identical"
        );
    }

    #[test]
    fn corruption_after_a_tiles_last_read_is_caught_by_the_scrub() {
        use crate::abft::AbftBackend;

        let mut rng = spd::test_rng(227);
        let a = spd::random_spd(32, &mut rng);
        let pref = scratch_path("ckpt-scrub-ref");
        let mut reference = FileMatrix::create(&pref, &a, 8).unwrap();
        ooc_potrf_with(&mut reference, 4, KernelImpl::Reference).unwrap();
        let want = reference.to_matrix().unwrap();

        // Strike a long-finished panel tile at the final step: no kernel
        // ever reads it again, so only the end-of-run scrub can see it.
        let plan = FaultPlan::builder(51)
            .inject_bit_flip(3, (1, 0), (2, 2), 1 << 40)
            .inject_bit_flip(3, (2, 0), (0, 0), 1 << 41)
            .inject_bit_flip(3, (2, 0), (5, 5), 1 << 42)
            .build();
        let fm = FileMatrix::create(&scratch_path("ckpt-scrub"), &a, 8).unwrap();
        let mut ab = AbftBackend::new(fm, plan);
        let ckpt = Checkpoint::at(&ckpt_prefix("scrub"));
        let rep = sync_checkpointed(&mut ab, 3, &ckpt).unwrap();
        assert!(
            ab.abft_stats().corrections >= 1,
            "the single-element flip heals in the scrub"
        );
        assert!(
            rep.restores >= 1,
            "the multi-element flip forces a scrub rollback"
        );
        let got = ab.inner_mut().to_matrix().unwrap();
        assert_eq!(norms::max_abs_diff(&got, &want), 0.0);
    }

    #[test]
    fn truncated_checkpoint_data_is_rejected() {
        let mut rng = spd::test_rng(228);
        let a = spd::random_spd(16, &mut rng);
        let p = scratch_path("ckpt-trunc");
        let fm = FileMatrix::create(&p, &a, 8).unwrap();
        let ckpt = Checkpoint::at(&ckpt_prefix("trunc"));
        ckpt.save(&mut FsStore::new(), &fm, 1).unwrap();
        let state = ckpt.load(&mut FsStore::new()).unwrap().expect("intact checkpoint loads");

        // Lop bytes off the snapshot, as a torn copy or dying disk would.
        let data_path = ckpt.data_file(state.gen);
        let bytes = std::fs::read(&data_path).unwrap();
        std::fs::write(&data_path, &bytes[..bytes.len() / 2]).unwrap();
        let err = ckpt.load(&mut FsStore::new()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("truncated"), "{err}");
        assert!(
            err.to_string().contains("commit-protocol violation"),
            "a committed-but-invalid generation must fail loudly: {err}"
        );
        ckpt.remove(&mut FsStore::new()).unwrap();
    }

    #[test]
    fn bit_rotted_checkpoint_data_is_rejected() {
        let mut rng = spd::test_rng(229);
        let a = spd::random_spd(16, &mut rng);
        let p = scratch_path("ckpt-rot");
        let fm = FileMatrix::create(&p, &a, 8).unwrap();
        let ckpt = Checkpoint::at(&ckpt_prefix("rot"));
        ckpt.save(&mut FsStore::new(), &fm, 1).unwrap();
        let state = ckpt.load(&mut FsStore::new()).unwrap().expect("intact checkpoint loads");

        // Same length, one bit flipped.
        let data_path = ckpt.data_file(state.gen);
        let mut bytes = std::fs::read(&data_path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&data_path, &bytes).unwrap();
        let err = ckpt.load(&mut FsStore::new()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        ckpt.remove(&mut FsStore::new()).unwrap();
    }

    #[test]
    fn corrupted_manifest_is_rejected() {
        let mut rng = spd::test_rng(230);
        let a = spd::random_spd(16, &mut rng);
        let p = scratch_path("ckpt-badman");
        let fm = FileMatrix::create(&p, &a, 8).unwrap();
        let ckpt = Checkpoint::at(&ckpt_prefix("badman"));
        ckpt.save(&mut FsStore::new(), &fm, 2).unwrap();
        let state = ckpt.load(&mut FsStore::new()).unwrap().expect("intact checkpoint loads");

        // Tamper with the recorded panel: the manifest hash must catch it.
        let man_path = ckpt.manifest_file(state.gen);
        let text = std::fs::read_to_string(&man_path).unwrap();
        std::fs::write(&man_path, text.replace("next_panel=2", "next_panel=4")).unwrap();
        let err = ckpt.load(&mut FsStore::new()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        ckpt.remove(&mut FsStore::new()).unwrap();
    }

    #[test]
    fn crash_during_save_leaves_the_previous_generation_loadable() {
        // A save that died after its intent (and a partial data write)
        // but before its commit: the journal's last record is the
        // uncommitted intent, a torn snapshot sits on disk.  Recovery
        // must return the previous generation and sweep the strays.
        let mut rng = spd::test_rng(231);
        let a = spd::random_spd(16, &mut rng);
        let p = scratch_path("ckpt-torn");
        let fm = FileMatrix::create(&p, &a, 8).unwrap();
        let ckpt = Checkpoint::at(&ckpt_prefix("torn"));
        ckpt.save(&mut FsStore::new(), &fm, 1).unwrap();
        let gen1 = ckpt.load(&mut FsStore::new()).unwrap().expect("gen 1 committed").gen;

        let mut store = FsStore::new();
        let intent = format!(
            "intent gen={} next_panel=2 n=16 b=8 data_len=2048 data_fnv={:016x}",
            gen1 + 1,
            0u64
        );
        store
            .append(&ckpt.journal_file(), journal_line(&intent).as_bytes())
            .unwrap();
        store
            .write_file(&ckpt.data_file(gen1 + 1), &[0u8; 100])
            .unwrap();
        // Legacy stray from a pre-journal save, too.
        store
            .write_file(&format!("{}.data.tmp", ckpt.journal_file()), b"junk")
            .unwrap();

        let state = ckpt.load(&mut FsStore::new()).unwrap().expect("previous generation intact");
        assert_eq!(state.next_panel, 1);
        assert_eq!(state.gen, gen1);
        assert!(
            !std::path::Path::new(&ckpt.data_file(gen1 + 1)).exists(),
            "uncommitted generation swept"
        );
        assert!(
            !std::path::Path::new(&format!("{}.data.tmp", ckpt.journal_file())).exists(),
            ".tmp stray swept"
        );
        ckpt.remove(&mut FsStore::new()).unwrap();
    }

    #[test]
    fn torn_journal_tail_is_ignored() {
        let mut rng = spd::test_rng(232);
        let a = spd::random_spd(16, &mut rng);
        let p = scratch_path("ckpt-tornj");
        let fm = FileMatrix::create(&p, &a, 8).unwrap();
        let ckpt = Checkpoint::at(&ckpt_prefix("tornj"));
        ckpt.save(&mut FsStore::new(), &fm, 1).unwrap();

        // A torn append: half a record, no valid rec_fnv.
        let mut store = FsStore::new();
        store
            .append(&ckpt.journal_file(), b"commit gen=2 rec_fnv=dead")
            .unwrap();
        let state = ckpt.load(&mut FsStore::new()).unwrap().expect("valid prefix still loads");
        assert_eq!(state.next_panel, 1);
        ckpt.remove(&mut FsStore::new()).unwrap();
    }

    #[test]
    fn a_save_after_a_torn_journal_tail_is_visible_to_the_next_load() {
        let mut rng = spd::test_rng(234);
        let a = spd::random_spd(16, &mut rng);
        let p = scratch_path("ckpt-tornsave");
        let fm = FileMatrix::create(&p, &a, 8).unwrap();
        let ckpt = Checkpoint::at(&ckpt_prefix("tornsave"));
        ckpt.save(&mut FsStore::new(), &fm, 1).unwrap();

        // A crash tore gen 2's intent: no newline, no rec_fnv.
        let mut store = FsStore::new();
        store.append(&ckpt.journal_file(), b"intent gen=2 next_pa").unwrap();
        assert_eq!(ckpt.load(&mut FsStore::new()).unwrap().expect("gen 1 still loads").gen, 1);

        // The resumed run commits gen 2 and prunes gen 1; the next load
        // must find gen 2, not a commit it cannot see.
        ckpt.save(&mut FsStore::new(), &fm, 2).unwrap();
        let state = ckpt.load(&mut FsStore::new()).unwrap().expect("gen 2 committed");
        assert_eq!((state.gen, state.next_panel), (2, 2));
        ckpt.remove(&mut FsStore::new()).unwrap();
    }

    #[test]
    fn commit_without_intent_fails_loudly() {
        let mut rng = spd::test_rng(233);
        let a = spd::random_spd(16, &mut rng);
        let p = scratch_path("ckpt-orphan");
        let fm = FileMatrix::create(&p, &a, 8).unwrap();
        let ckpt = Checkpoint::at(&ckpt_prefix("orphan"));
        ckpt.save(&mut FsStore::new(), &fm, 1).unwrap();

        // A (validly hashed) commit for a generation nobody intended:
        // only a protocol bug can produce it, so it must not be quietly
        // preferred *or* ignored in a way that hides the bug — the
        // highest committed-with-intent gen still wins, orphans don't.
        let mut store = FsStore::new();
        store
            .append(
                &ckpt.journal_file(),
                journal_line("commit gen=7").as_bytes(),
            )
            .unwrap();
        let state = ckpt.load(&mut FsStore::new()).unwrap().expect("orphan commit is not adopted");
        assert_eq!(state.gen, 1);
        ckpt.remove(&mut FsStore::new()).unwrap();
    }

    #[test]
    fn a_checkpoint_of_the_earlier_format_is_refused() {
        // A v3 manifest, validly hashed, as the right-looking driver
        // wrote it: its file holds a partly updated trailing submatrix
        // that the left-looking walk would resume into a wrong factor.
        let a = spd::random_spd(16, &mut spd::test_rng(225));
        let mut fm = FileMatrix::create(&scratch_path("ckpt-v3"), &a, 8).unwrap();
        let ckpt = Checkpoint::at(&ckpt_prefix("v3"));
        ckpt.save(&mut FsStore::new(), &fm, 1).unwrap();
        let gen = ckpt.load(&mut FsStore::new()).unwrap().expect("committed").gen;
        let man_path = ckpt.manifest_file(gen);
        let text = std::fs::read_to_string(&man_path).unwrap();
        let (body, _) = text.rsplit_once("manifest_fnv=").unwrap();
        let body = body.replace(MANIFEST_MAGIC, "cholcomm-ooc-checkpoint v3");
        let v3 = format!("{body}manifest_fnv={:016x}\n", fnv1a(body.as_bytes()));
        std::fs::write(&man_path, v3).unwrap();

        let err = ckpt.load(&mut FsStore::new()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("v3"), "{err}");
        let err = sync_checkpointed(&mut fm, 4, &ckpt).unwrap_err();
        assert!(
            matches!(&err, OocError::Io(e) if e.kind() == std::io::ErrorKind::InvalidData),
            "{err:?}"
        );
        ckpt.remove(&mut FsStore::new()).unwrap();
    }

    #[test]
    fn mismatched_checkpoint_is_rejected() {
        let mut rng = spd::test_rng(224);
        let a = spd::random_spd(16, &mut rng);
        let p = scratch_path("ckpt-mismatch");
        let mut fm = FileMatrix::create(&p, &a, 8).unwrap();
        let ckpt = Checkpoint::at(&ckpt_prefix("mismatch"));
        ckpt.save(&mut FsStore::new(), &fm, 1).unwrap();
        // Same files, wrong geometry.
        let a2 = spd::random_spd(24, &mut rng);
        let p2 = scratch_path("ckpt-mismatch2");
        let mut fm2 = FileMatrix::create(&p2, &a2, 8).unwrap();
        let err = sync_checkpointed(&mut fm2, 4, &ckpt).unwrap_err();
        assert!(matches!(err, OocError::Io(_)));
        ckpt.remove(&mut FsStore::new()).unwrap();
        // The original still factors fine from scratch after cleanup.
        ooc_potrf_with(&mut fm, 4, KernelImpl::Reference).unwrap();
    }
}
