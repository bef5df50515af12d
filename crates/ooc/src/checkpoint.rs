//! Panel-granularity checkpoint/restart for the out-of-core Cholesky,
//! on a journaled commit protocol.
//!
//! After each completed panel the driver writes every dirty tile back and
//! writes a *generation*: a snapshot of the backing file plus a small
//! manifest recording the next panel to run (and `n`, `b`, the
//! snapshot's length and FNV-1a hash).  Generations are made durable by
//! a write-ahead journal, not by rename:
//!
//! ```text
//! append INTENT(gen, next_panel, n, b, len, fnv)   to <prefix>.journal
//! write   <prefix>.g<gen>.data                     (the snapshot)
//! write   <prefix>.g<gen>.manifest                 (self-hashed metadata)
//! ------- barrier -------   everything above is durable
//! append COMMIT(gen)                               to <prefix>.journal
//! ------- barrier -------   the commit is durable
//! remove  older generations                        (prune, crash-safe)
//! ```
//!
//! Every journal record authenticates itself (a trailing `rec_fnv` over
//! the record text), so a torn append is indistinguishable from no
//! append: recovery parses the longest valid prefix and ignores the
//! rest.  [`Checkpoint::load`] resumes from the **highest committed**
//! generation, sweeps uncommitted or stale generation files and `.tmp`
//! strays left by a crashed save, and validates everything the commit
//! vouches for — manifest self-hash, generation agreement, geometry
//! (`data_len` must equal the tile layout implied by `n`/`b`), snapshot
//! length and hash, intent/manifest cross-check.  A committed
//! generation that fails validation is a **protocol violation or
//! storage corruption** and fails loudly with
//! [`std::io::ErrorKind::InvalidData`] — never a silent fall-back to an
//! older state — because "commit implies durable" is exactly the
//! invariant the barrier before the commit record buys.  The
//! crash-point explorer (`crates/faults`, `tests/crash_consistency.rs`)
//! leans on that loudness: [`CommitDiscipline::UnbarrieredCommit`]
//! deliberately skips the pre-commit barrier, and the explorer catches
//! the resulting torn-data-behind-a-commit states.
//!
//! A *full* snapshot per checkpoint is deliberate: the factorization is
//! right-looking, so panel `k` mutates the whole trailing submatrix.
//! Restarting mid-panel from the live data file would double-apply
//! updates from tiles that were flushed before the crash; restoring the
//! last panel-boundary snapshot is the only state that is both cheap to
//! reason about and bitwise reproducible.  Checkpoint I/O is charged to
//! its own counters ([`CheckpointReport`]), not to the algorithm's
//! [`IoStats`](crate::IoStats), and is not subject to tile-level fault
//! injection — the fault model targets the data path, recovery targets
//! the recovery path.
//!
//! All storage goes through [`Store`], so the same protocol bytes run
//! over the real filesystem ([`FsStore`]) in production and over the
//! simulated crash disk (`SimStore`) under the explorer.

use crate::backend::IoBackend;
use crate::pipeline::{ooc_potrf_checkpointed_pipelined_in, PipelineConfig};
use crate::potrf::OocError;
use cholcomm_faults::{FsStore, Store};
use cholcomm_matrix::digest::fnv1a;
use std::path::Path;

const MANIFEST_MAGIC: &str = "cholcomm-ooc-checkpoint v3";

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
        let start = match self.ckpt.load_in(self.store)? {
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
                self.report.checkpoint_bytes += self.ckpt.restore_in(self.store, fm)?;
                state.next_panel
            }
            None => {
                self.report.checkpoint_bytes += self.ckpt.save_in(self.store, fm, 0)?;
                self.report.checkpoints_written += 1;
                0
            }
        };
        self.report.start_panel = start;
        Ok(start)
    }
}

/// How strictly [`Checkpoint::save`] orders its commit record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CommitDiscipline {
    /// The correct protocol: a barrier *before* the commit record, so a
    /// durable commit implies durable data.
    #[default]
    Barriered,
    /// Deliberately broken: the commit record is appended in the same
    /// un-barriered window as the data it vouches for.  Exists so the
    /// crash-point explorer can prove it catches real protocol bugs —
    /// never use it for actual checkpoints.
    UnbarrieredCommit,
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

/// One validated journal record.
#[derive(Debug, Clone, PartialEq, Eq)]
enum JournalRec {
    Intent {
        gen: u64,
        next_panel: usize,
        n: usize,
        b: usize,
        data_len: u64,
        data_fnv: u64,
    },
    Commit {
        gen: u64,
    },
}

/// Parse the longest valid prefix of a journal: records stop at the
/// first line whose structure or trailing `rec_fnv` does not check out
/// (a torn append), and everything after is ignored.
fn parse_journal(text: &str) -> Vec<JournalRec> {
    let mut out = Vec::new();
    for line in text.lines() {
        let Some((body, fnv_hex)) = line.rsplit_once(" rec_fnv=") else {
            break;
        };
        let Ok(recorded) = u64::from_str_radix(fnv_hex, 16) else {
            break;
        };
        if fnv1a(body.as_bytes()) != recorded {
            break;
        }
        let mut fields = body.split(' ');
        let kind = fields.next();
        let mut gen = None;
        let mut next_panel = None;
        let mut n = None;
        let mut b = None;
        let mut data_len = None;
        let mut data_fnv = None;
        for field in fields {
            let Some((key, val)) = field.split_once('=') else {
                continue;
            };
            match key {
                "gen" => gen = val.parse().ok(),
                "next_panel" => next_panel = val.parse().ok(),
                "n" => n = val.parse().ok(),
                "b" => b = val.parse().ok(),
                "data_len" => data_len = val.parse().ok(),
                "data_fnv" => data_fnv = u64::from_str_radix(val, 16).ok(),
                _ => {}
            }
        }
        let rec = match (kind, gen) {
            (Some("intent"), Some(gen)) => {
                let (Some(next_panel), Some(n), Some(b), Some(data_len), Some(data_fnv)) =
                    (next_panel, n, b, data_len, data_fnv)
                else {
                    break;
                };
                JournalRec::Intent {
                    gen,
                    next_panel,
                    n,
                    b,
                    data_len,
                    data_fnv,
                }
            }
            (Some("commit"), Some(gen)) => JournalRec::Commit { gen },
            _ => break,
        };
        out.push(rec);
    }
    out
}

fn journal_line(body: &str) -> String {
    format!("{body} rec_fnv={:016x}\n", fnv1a(body.as_bytes()))
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

    fn read_journal(&self, store: &impl Store) -> std::io::Result<Vec<JournalRec>> {
        if !store.exists(&self.journal_file()) {
            return Ok(Vec::new());
        }
        let bytes = store.read(&self.journal_file())?;
        Ok(parse_journal(&String::from_utf8_lossy(&bytes)))
    }

    /// Highest gen with both an intent and a commit record, plus its
    /// intent — and the highest gen mentioned at all (for numbering).
    fn committed(records: &[JournalRec]) -> (Option<(u64, JournalRec)>, u64) {
        let mut max_gen = 0;
        let mut best: Option<(u64, JournalRec)> = None;
        for rec in records {
            match rec {
                JournalRec::Intent { gen, .. } => max_gen = max_gen.max(*gen),
                JournalRec::Commit { gen } => {
                    max_gen = max_gen.max(*gen);
                    let intent = records.iter().find(
                        |r| matches!(r, JournalRec::Intent { gen: g, .. } if g == gen),
                    );
                    if let Some(intent) = intent {
                        if best.as_ref().is_none_or(|(g, _)| gen > g) {
                            best = Some((*gen, intent.clone()));
                        }
                    }
                }
            }
        }
        (best, max_gen)
    }

    /// Delete every generation file except `keep`'s, and any `.tmp`
    /// strays under the prefix (a crashed legacy save's leftovers).
    fn sweep(&self, store: &mut impl Store, keep: Option<u64>) -> std::io::Result<()> {
        let keep_data = keep.map(|g| self.data_file(g));
        let keep_manifest = keep.map(|g| self.manifest_file(g));
        for name in store.list_prefix(&format!("{}.g", self.prefix))? {
            if Some(&name) != keep_data.as_ref() && Some(&name) != keep_manifest.as_ref() {
                store.remove(&name)?;
            }
        }
        for name in store.list_prefix(&self.prefix)? {
            if name.ends_with(".tmp") {
                store.remove(&name)?;
            }
        }
        Ok(())
    }

    fn parse_manifest(&self, text: &str, gen: u64) -> std::io::Result<CheckpointState> {
        // A torn tail can shear off any suffix; the newline terminating
        // the integrity line is the cheapest completeness witness, so a
        // manifest that does not end with one is rejected outright.
        if !text.ends_with('\n') {
            return Err(bad(
                "checkpoint manifest is not newline-terminated (torn write?)".into(),
            ));
        }
        // The manifest's last line authenticates everything before it.
        let body_end = text
            .rfind("manifest_fnv=")
            .ok_or_else(|| bad("checkpoint manifest has no integrity line".into()))?;
        let (body, fnv_line) = text.split_at(body_end);
        let recorded: u64 = fnv_line
            .trim()
            .strip_prefix("manifest_fnv=")
            .and_then(|v| u64::from_str_radix(v, 16).ok())
            .ok_or_else(|| bad("bad manifest integrity line".into()))?;
        if fnv1a(body.as_bytes()) != recorded {
            return Err(bad("checkpoint manifest failed its integrity check".into()));
        }
        let mut lines = body.lines();
        if lines.next() != Some(MANIFEST_MAGIC) {
            return Err(bad("unrecognised checkpoint manifest".into()));
        }
        let mut mgen = None;
        let mut next_panel = None;
        let mut n: Option<usize> = None;
        let mut b: Option<usize> = None;
        let mut data_len = None;
        let mut data_fnv = None;
        for line in lines {
            let Some((key, val)) = line.split_once('=') else {
                continue;
            };
            match key {
                "gen" => mgen = val.parse::<u64>().ok(),
                "next_panel" => next_panel = val.parse().ok(),
                "n" => n = val.parse().ok(),
                "b" => b = val.parse().ok(),
                "data_len" => data_len = val.parse::<u64>().ok(),
                "data_fnv" => data_fnv = u64::from_str_radix(val, 16).ok(),
                _ => {}
            }
        }
        // data_fnv is required present (an incomplete manifest is
        // rejected) but the authoritative hash check is against the
        // journal intent's copy in `load_in`.
        let (Some(mgen), Some(next_panel), Some(n), Some(b), Some(data_len), Some(_)) =
            (mgen, next_panel, n, b, data_len, data_fnv)
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
        let nb = n.div_ceil(b);
        let expect = (nb * nb * b * b * 8) as u64;
        if data_len != expect {
            return Err(bad(format!(
                "manifest geometry n={n} b={b} implies {expect} data bytes, records {data_len}"
            )));
        }
        Ok(CheckpointState {
            next_panel,
            n,
            b,
            gen,
        })
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
    pub fn load_in(&self, store: &mut impl Store) -> std::io::Result<Option<CheckpointState>> {
        let records = self.read_journal(store)?;
        let (committed, _) = Self::committed(&records);
        let Some((gen, intent)) = committed else {
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
        let state = self
            .parse_manifest(&String::from_utf8_lossy(&manifest), gen)
            .map_err(|e| violation(e.to_string()))?;
        let JournalRec::Intent {
            next_panel,
            n,
            b,
            data_len,
            data_fnv,
            ..
        } = intent
        else {
            return Err(violation("commit without an intent record".into()));
        };
        if state.next_panel != next_panel || state.n != n || state.b != b {
            return Err(violation(format!(
                "manifest (next_panel={} n={} b={}) disagrees with the journal intent \
                 (next_panel={next_panel} n={n} b={b})",
                state.next_panel, state.n, state.b
            )));
        }
        if !store.exists(&self.data_file(gen)) {
            return Err(violation("committed data snapshot is missing".into()));
        }
        let data = store.read(&self.data_file(gen))?;
        if data.len() as u64 != data_len {
            return Err(violation(format!(
                "checkpoint data is {} bytes, manifest records {data_len} (truncated?)",
                data.len()
            )));
        }
        if fnv1a(&data) != data_fnv {
            return Err(violation(
                "checkpoint data failed its integrity check".into(),
            ));
        }
        self.sweep(store, Some(gen))?;
        Ok(Some(state))
    }

    /// Snapshot the backing file as a new generation and commit it
    /// through the journal (see the module docs for the op order).
    /// Under [`CommitDiscipline::Barriered`] a crash at any instant —
    /// including torn or reordered un-barriered writes — leaves either
    /// this generation committed-and-valid or the previous one; the
    /// in-between states are uncommitted and swept by
    /// [`load_in`](Self::load_in).
    pub fn save_in<B: IoBackend>(
        &self,
        store: &mut impl Store,
        fm: &B,
        next_panel: usize,
    ) -> std::io::Result<u64> {
        let src = backend_data_name(fm)?;
        let data = store.read(&src)?;
        let data_fnv = fnv1a(&data);
        let records = self.read_journal(store)?;
        let (committed, max_gen) = Self::committed(&records);
        let gen = max_gen + 1;

        let intent = format!(
            "intent gen={gen} next_panel={next_panel} n={} b={} data_len={} data_fnv={data_fnv:016x}",
            fm.n(),
            fm.b(),
            data.len()
        );
        store.append(&self.journal_file(), journal_line(&intent).as_bytes())?;
        store.write_file(&self.data_file(gen), &data)?;

        let mut body = String::new();
        use std::fmt::Write as _;
        let _ = writeln!(body, "{MANIFEST_MAGIC}");
        let _ = writeln!(body, "gen={gen}");
        let _ = writeln!(body, "next_panel={next_panel}");
        let _ = writeln!(body, "n={}", fm.n());
        let _ = writeln!(body, "b={}", fm.b());
        let _ = writeln!(body, "data_len={}", data.len());
        let _ = writeln!(body, "data_fnv={data_fnv:016x}");
        let manifest_fnv = fnv1a(body.as_bytes());
        let _ = writeln!(body, "manifest_fnv={manifest_fnv:016x}");
        store.write_file(&self.manifest_file(gen), body.as_bytes())?;

        if self.discipline == CommitDiscipline::Barriered {
            // The barrier that makes "committed" mean "durable".
            store.barrier()?;
        }
        store.append(
            &self.journal_file(),
            journal_line(&format!("commit gen={gen}")).as_bytes(),
        )?;
        store.barrier()?;

        // Prune the superseded generation; a crash in here leaves a
        // stray pair that the next load sweeps.
        if let Some((old, _)) = committed {
            store.remove(&self.data_file(old))?;
            store.remove(&self.manifest_file(old))?;
        }
        Ok(data.len() as u64)
    }

    /// Copy the committed snapshot back over the backing file
    /// (discarding whatever a crashed run left there) and tell the
    /// backend its storage moved under it.
    pub fn restore_in<B: IoBackend>(
        &self,
        store: &mut impl Store,
        fm: &mut B,
    ) -> std::io::Result<u64> {
        let records = self.read_journal(store)?;
        let (committed, _) = Self::committed(&records);
        let Some((gen, _)) = committed else {
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
    pub fn remove_in(&self, store: &mut impl Store) -> std::io::Result<()> {
        store.remove(&self.journal_file())?;
        store.barrier()?;
        self.sweep(store, None)?;
        store.barrier()?;
        Ok(())
    }

    /// [`load_in`](Self::load_in) on the real filesystem.
    pub fn load(&self) -> std::io::Result<Option<CheckpointState>> {
        self.load_in(&mut FsStore::new())
    }

    /// [`save_in`](Self::save_in) on the real filesystem.
    pub fn save<B: IoBackend>(&self, fm: &B, next_panel: usize) -> std::io::Result<u64> {
        self.save_in(&mut FsStore::new(), fm, next_panel)
    }

    /// [`restore_in`](Self::restore_in) on the real filesystem.
    pub fn restore<B: IoBackend>(&self, fm: &mut B) -> std::io::Result<u64> {
        self.restore_in(&mut FsStore::new(), fm)
    }

    /// [`remove_in`](Self::remove_in) on the real filesystem.
    pub fn remove(&self) -> std::io::Result<()> {
        self.remove_in(&mut FsStore::new())
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

/// Out-of-core Cholesky with a checkpoint after every panel.  If `ckpt`
/// already holds a (validated) committed generation for this matrix,
/// the data file is restored from the snapshot and the run resumes at
/// the recorded panel; otherwise it starts from scratch.  On success
/// the factor is barriered to stable storage and the checkpoint files
/// are removed.
///
/// A crash injected by the backend surfaces as [`OocError::Io`]; the
/// caller "restarts the process" by reopening the file
/// ([`FileMatrix::open`](crate::FileMatrix::open)) and calling this
/// again with the same `ckpt`.  The resumed run recomputes only the
/// panels after the last checkpoint, and — because the schedule is
/// deterministic — produces a factor bit-identical to an uninterrupted
/// run's.  Every tile move blocks the compute thread: this is
/// [`ooc_potrf_checkpointed_pipelined_in`] at zero I/O workers, with
/// reference kernels, on the real filesystem.
pub fn ooc_potrf_checkpointed<B: IoBackend>(
    fm: &mut B,
    capacity_tiles: usize,
    ckpt: &Checkpoint,
) -> Result<CheckpointReport, OocError> {
    let cfg = PipelineConfig::new(capacity_tiles).with_io_workers(0);
    ooc_potrf_checkpointed_pipelined_in(fm, ckpt, &mut FsStore::new(), &cfg).map(|(r, _)| r)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::backend::FaultyBackend;
    use crate::filemat::{scratch_path, FileMatrix};
    use crate::potrf::ooc_potrf_with;
    use cholcomm_faults::{CrashPoint, FaultPlan};
    use cholcomm_matrix::{norms, spd, KernelImpl};
    use std::path::PathBuf;

    fn ckpt_prefix(tag: &str) -> PathBuf {
        scratch_path(tag).with_extension("ckpt")
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
        let rep = ooc_potrf_checkpointed(&mut fm, 4, &ckpt).unwrap();
        let got = fm.to_matrix().unwrap();
        assert_eq!(norms::max_abs_diff(&got, &want), 0.0, "bit-identical");
        assert_eq!(rep.start_panel, 0);
        assert_eq!(rep.panels_done, 4);
        // One baseline snapshot of the input plus one per panel.
        assert_eq!(rep.checkpoints_written, 5);
        assert!(rep.checkpoint_bytes > 0);
        assert!(ckpt.load().unwrap().is_none(), "checkpoint cleaned up");
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
            let err = ooc_potrf_checkpointed(&mut fb, 4, &ckpt).unwrap_err();
            assert!(matches!(err, OocError::Io(_)), "crash surfaces as I/O death");
            assert!(fb.crashed());
        }

        // "New process": reopen the file, resume from the checkpoint.
        let state = ckpt.load().unwrap().expect("a checkpoint was written");
        assert!(state.next_panel > 0, "at least one panel completed pre-crash");
        assert!(state.next_panel < 5, "crash happened before the end");
        let mut fm = FileMatrix::open(&data_path, n, 8).unwrap();
        fm.set_persist(false); // test scratch: clean up on drop
        let rep = ooc_potrf_checkpointed(&mut fm, 4, &ckpt).unwrap();
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
            // With the minimum cache capacity the panel-0 trailing
            // update evicts (and writes back) tiles long before the
            // panel completes; a few ops in, the file is neither A nor
            // a finished panel.
            let plan = FaultPlan::builder(5)
                .crash_at(CrashPoint::AfterDiskOps(10))
                .build();
            let mut fb = FaultyBackend::new(fm, plan);
            ooc_potrf_checkpointed(&mut fb, 3, &ckpt).unwrap_err();
        }
        let state = ckpt.load().unwrap().expect("baseline checkpoint exists");
        assert_eq!(state.next_panel, 0, "no panel completed before the crash");

        let mut fm = FileMatrix::open(&data_path, 32, 8).unwrap();
        fm.set_persist(false); // test scratch: clean up on drop
        let rep = ooc_potrf_checkpointed(&mut fm, 3, &ckpt).unwrap();
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
            ooc_potrf_checkpointed(&mut fb, 4, &ckpt).unwrap_err();
        }
        let state = ckpt.load().unwrap().expect("checkpoints up to panel 2");
        assert_eq!(state.next_panel, 2, "panel 2's checkpoint never landed");

        let mut fm = FileMatrix::open(&data_path, 32, 8).unwrap();
        fm.set_persist(false); // test scratch: clean up on drop
        let rep = ooc_potrf_checkpointed(&mut fm, 4, &ckpt).unwrap();
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
                .crash_at(CrashPoint::AfterDiskOps(70))
                .build();
            let mut fb = FaultyBackend::new(fm, plan);
            ooc_potrf_checkpointed(&mut fb, 4, &ckpt).unwrap_err();
            transients = fb.fault_stats();
            assert!(transients.disk_faults() >= 3, "flaky disk must have bitten: {transients:?}");
        }

        let mut fm = FileMatrix::open(&data_path, 40, 8).unwrap();
        fm.set_persist(false); // test scratch: clean up on drop
        let plan = FaultPlan::builder(10).disk_transient_rate(0.1).build();
        let mut fb = FaultyBackend::new(fm, plan);
        ooc_potrf_checkpointed(&mut fb, 4, &ckpt).unwrap();
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
        let rep = ooc_potrf_checkpointed(&mut ab, 3, &ckpt).unwrap();
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
        let rep = ooc_potrf_checkpointed(&mut ab, 3, &ckpt).unwrap();
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
        ckpt.save(&fm, 1).unwrap();
        let state = ckpt.load().unwrap().expect("intact checkpoint loads");

        // Lop bytes off the snapshot, as a torn copy or dying disk would.
        let data_path = ckpt.data_file(state.gen);
        let bytes = std::fs::read(&data_path).unwrap();
        std::fs::write(&data_path, &bytes[..bytes.len() / 2]).unwrap();
        let err = ckpt.load().unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("truncated"), "{err}");
        assert!(
            err.to_string().contains("commit-protocol violation"),
            "a committed-but-invalid generation must fail loudly: {err}"
        );
        ckpt.remove().unwrap();
    }

    #[test]
    fn bit_rotted_checkpoint_data_is_rejected() {
        let mut rng = spd::test_rng(229);
        let a = spd::random_spd(16, &mut rng);
        let p = scratch_path("ckpt-rot");
        let fm = FileMatrix::create(&p, &a, 8).unwrap();
        let ckpt = Checkpoint::at(&ckpt_prefix("rot"));
        ckpt.save(&fm, 1).unwrap();
        let state = ckpt.load().unwrap().expect("intact checkpoint loads");

        // Same length, one bit flipped.
        let data_path = ckpt.data_file(state.gen);
        let mut bytes = std::fs::read(&data_path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&data_path, &bytes).unwrap();
        let err = ckpt.load().unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        ckpt.remove().unwrap();
    }

    #[test]
    fn corrupted_manifest_is_rejected() {
        let mut rng = spd::test_rng(230);
        let a = spd::random_spd(16, &mut rng);
        let p = scratch_path("ckpt-badman");
        let fm = FileMatrix::create(&p, &a, 8).unwrap();
        let ckpt = Checkpoint::at(&ckpt_prefix("badman"));
        ckpt.save(&fm, 2).unwrap();
        let state = ckpt.load().unwrap().expect("intact checkpoint loads");

        // Tamper with the recorded panel: the manifest hash must catch it.
        let man_path = ckpt.manifest_file(state.gen);
        let text = std::fs::read_to_string(&man_path).unwrap();
        std::fs::write(&man_path, text.replace("next_panel=2", "next_panel=4")).unwrap();
        let err = ckpt.load().unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        ckpt.remove().unwrap();
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
        ckpt.save(&fm, 1).unwrap();
        let gen1 = ckpt.load().unwrap().expect("gen 1 committed").gen;

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

        let state = ckpt.load().unwrap().expect("previous generation intact");
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
        ckpt.remove().unwrap();
    }

    #[test]
    fn torn_journal_tail_is_ignored() {
        let mut rng = spd::test_rng(232);
        let a = spd::random_spd(16, &mut rng);
        let p = scratch_path("ckpt-tornj");
        let fm = FileMatrix::create(&p, &a, 8).unwrap();
        let ckpt = Checkpoint::at(&ckpt_prefix("tornj"));
        ckpt.save(&fm, 1).unwrap();

        // A torn append: half a record, no valid rec_fnv.
        let mut store = FsStore::new();
        store
            .append(&ckpt.journal_file(), b"commit gen=2 rec_fnv=dead")
            .unwrap();
        let state = ckpt.load().unwrap().expect("valid prefix still loads");
        assert_eq!(state.next_panel, 1);
        ckpt.remove().unwrap();
    }

    #[test]
    fn commit_without_intent_fails_loudly() {
        let mut rng = spd::test_rng(233);
        let a = spd::random_spd(16, &mut rng);
        let p = scratch_path("ckpt-orphan");
        let fm = FileMatrix::create(&p, &a, 8).unwrap();
        let ckpt = Checkpoint::at(&ckpt_prefix("orphan"));
        ckpt.save(&fm, 1).unwrap();

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
        let state = ckpt.load().unwrap().expect("orphan commit is not adopted");
        assert_eq!(state.gen, 1);
        ckpt.remove().unwrap();
    }

    #[test]
    fn mismatched_checkpoint_is_rejected() {
        let mut rng = spd::test_rng(224);
        let a = spd::random_spd(16, &mut rng);
        let p = scratch_path("ckpt-mismatch");
        let mut fm = FileMatrix::create(&p, &a, 8).unwrap();
        let ckpt = Checkpoint::at(&ckpt_prefix("mismatch"));
        ckpt.save(&fm, 1).unwrap();
        // Same files, wrong geometry.
        let a2 = spd::random_spd(24, &mut rng);
        let p2 = scratch_path("ckpt-mismatch2");
        let mut fm2 = FileMatrix::create(&p2, &a2, 8).unwrap();
        let err = ooc_potrf_checkpointed(&mut fm2, 4, &ckpt).unwrap_err();
        assert!(matches!(err, OocError::Io(_)));
        ckpt.remove().unwrap();
        // The original still factors fine from scratch after cleanup.
        ooc_potrf_with(&mut fm, 4, KernelImpl::Reference).unwrap();
    }
}
