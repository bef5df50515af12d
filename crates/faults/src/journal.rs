//! The write-ahead journal: one commit protocol for every durable
//! artifact, the out-of-core checkpoints (`ooc::checkpoint`) and the
//! service's factor cache (`serve::durable`).  A client is a record kind
//! (its [`Intent`] fields) plus a recovery policy.
//!
//! ```text
//! append  intent gen=<g> <client k=v fields> rec_fnv=<hex>   to the journal
//! write   the payload file(s)
//! ------- barrier -------   intent + payload are durable
//! append  commit gen=<g> rec_fnv=<hex>                       to the journal
//! ------- barrier -------   the commit is durable
//! ```
//!
//! `rec_fnv` is FNV-1a over the text before it, so a torn append reads as
//! no append: [`parse_journal`] keeps the longest valid prefix, which a
//! hash-valid record the client cannot decode (an unknown kind, a missing
//! or malformed field) also ends.  A commit vouches for the **first**
//! intent of its generation recorded before it ([`Replay`]): the journal
//! is append-only, so no later record redefines a generation.  Recovery
//! trusts only what a commit vouches for, so pruning and [`sweep`] are
//! crash-safe at any point.  The policy is the client's: the checkpoints
//! are **strict** (the highest committed generation must validate, or
//! recovery fails with `InvalidData`); the factor cache is **lossy** (it
//! adopts every committed entry that validates, drops and counts the rest).

use crate::Store;
use cholcomm_matrix::digest::fnv1a;
use std::collections::BTreeMap;

/// How strictly [`commit`] orders its commit record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CommitDiscipline {
    /// The correct protocol: a barrier *before* the commit record, so a
    /// durable commit implies a durable payload.
    #[default]
    Barriered,
    /// Deliberately broken: the commit record shares the un-barriered
    /// window of the payload it vouches for.  Exists so the crash-point
    /// explorer can prove it catches real protocol bugs.
    UnbarrieredCommit,
}

/// A client's intent record: the `k=v` fields it writes after `gen=`.
pub trait Intent: Sized {
    /// The fields, space-separated, in the order the client writes them.
    fn fields(&self) -> String;
    /// Read the fields back; `None` ends the journal's valid prefix.
    fn decode(fields: &Fields<'_>) -> Option<Self>;
}

/// Whitespace-separated `k=v` fields of a record or a manifest.
#[derive(Debug, Clone, Copy)]
pub struct Fields<'a>(pub &'a str);

impl Fields<'_> {
    /// Field `key` parsed as `T`; `None` when absent or malformed.
    pub fn get<T: std::str::FromStr>(&self, key: &str) -> Option<T> {
        self.raw(key)?.parse().ok()
    }

    /// Field `key` parsed as a hexadecimal `u64`.
    pub fn hex(&self, key: &str) -> Option<u64> {
        u64::from_str_radix(self.raw(key)?, 16).ok()
    }

    fn raw(&self, key: &str) -> Option<&str> {
        let mut fields = self.0.split_whitespace();
        fields.find_map(|field| field.strip_prefix(key)?.strip_prefix('='))
    }
}

/// One record of a journal's valid prefix, with its generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Record<I> {
    /// The generation is about to write its payload.
    Intent(u64, I),
    /// The generation's payload is durable.
    Commit(u64),
}

/// A record body with its `rec_fnv=` self-authentication appended.
pub fn journal_line(body: &str) -> String {
    format!("{body} rec_fnv={:016x}\n", fnv1a(body.as_bytes()))
}

/// The longest valid prefix of a journal's records.
pub fn parse_journal<I: Intent>(text: &str) -> Vec<Record<I>> {
    let record = |line: &str| {
        let (body, fnv_hex) = line.rsplit_once(" rec_fnv=")?;
        if u64::from_str_radix(fnv_hex, 16).ok()? != fnv1a(body.as_bytes()) {
            return None;
        }
        let fields = Fields(body);
        match (body.split(' ').next()?, fields.get("gen")?) {
            ("intent", gen) => Some(Record::Intent(gen, I::decode(&fields)?)),
            ("commit", gen) => Some(Record::Commit(gen)),
            _ => None,
        }
    };
    text.lines().map_while(record).collect()
}

/// What a journal's valid prefix vouches for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Replay<I> {
    /// Every committed generation with its intent, ascending.
    pub committed: BTreeMap<u64, I>,
    /// The highest generation any record names (0 when none does).
    pub max_gen: u64,
}

impl<I: Intent + Clone> Replay<I> {
    /// Pair the intents and commits of a journal's valid prefix.
    pub fn parse(text: &str) -> Replay<I> {
        let (mut intents, mut committed, mut max_gen) = (BTreeMap::new(), BTreeMap::new(), 0);
        for rec in parse_journal::<I>(text) {
            match rec {
                Record::Intent(gen, intent) => {
                    max_gen = max_gen.max(gen);
                    intents.entry(gen).or_insert(intent);
                }
                Record::Commit(gen) => {
                    max_gen = max_gen.max(gen);
                    if let Some(intent) = intents.get(&gen) {
                        committed.entry(gen).or_insert_with(|| I::clone(intent));
                    }
                }
            }
        }
        Replay { committed, max_gen }
    }

    /// [`parse`](Self::parse) journal `name` on `store`: one that does
    /// not exist is empty, one that fails to read is an error.
    pub fn read<S: Store + ?Sized>(store: &S, name: &str) -> std::io::Result<Replay<I>> {
        let bytes = if store.exists(name) { store.read(name)? } else { Vec::new() };
        Ok(Self::parse(&String::from_utf8_lossy(&bytes)))
    }
}

/// Commit generation `gen` through journal `name`: append its intent,
/// write each payload file, barrier, append the commit record, barrier.
pub fn commit<I: Intent, S: Store + ?Sized>(
    store: &mut S,
    name: &str,
    gen: u64,
    intent: &I,
    payload: &[(&str, &[u8])],
    discipline: CommitDiscipline,
) -> std::io::Result<()> {
    let line = journal_line(&format!("intent gen={gen} {}", intent.fields()));
    store.append(name, line.as_bytes())?;
    for (file, bytes) in payload {
        store.write_file(file, bytes)?;
    }
    if discipline == CommitDiscipline::Barriered {
        store.barrier()?;
    }
    store.append(name, journal_line(&format!("commit gen={gen}")).as_bytes())?;
    store.barrier()
}

/// Remove every file named with `prefix` that `keep` rejects.
pub fn sweep<S: Store + ?Sized>(
    store: &mut S,
    prefix: &str,
    keep: impl Fn(&str) -> bool,
) -> std::io::Result<()> {
    for name in store.list_prefix(prefix)? {
        if !keep(&name) {
            store.remove(&name)?;
        }
    }
    Ok(())
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    /// A two-field intent, shaped like the factor cache's.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Entry {
        key: u64,
        len: usize,
    }

    impl Intent for Entry {
        fn fields(&self) -> String {
            format!("key={} len={}", self.key, self.len)
        }

        fn decode(fields: &Fields<'_>) -> Option<Self> {
            Some(Entry {
                key: fields.get("key")?,
                len: fields.get("len")?,
            })
        }
    }

    #[test]
    fn torn_journal_tail_parses_as_a_valid_prefix() {
        let full = format!(
            "{}{}",
            journal_line("intent gen=1 key=3 n=4 len=128 fnv=0000000000000000"),
            journal_line("commit gen=1")
        );
        let whole = parse_journal::<Entry>(&full);
        assert_eq!(whole.len(), 2);
        for cut in 0..full.len() {
            let recs = parse_journal::<Entry>(&full[..cut]);
            assert!(recs.len() <= whole.len());
            assert_eq!(recs, whole[..recs.len()]);
        }
    }

    #[test]
    fn a_valid_record_the_client_cannot_decode_ends_the_prefix() {
        let tail = journal_line("commit gen=2");
        for stop in [
            journal_line("intent gen=2 key=3"),       // missing field
            journal_line("intent gen=2 key=3 len=x"), // malformed field
            journal_line("commit"),                   // no generation
            journal_line("abort gen=2"),              // unknown kind
        ] {
            let text = format!("{}{stop}{tail}", journal_line("intent gen=1 key=9 len=8"));
            assert_eq!(
                parse_journal::<Entry>(&text),
                [Record::Intent(1, Entry { key: 9, len: 8 })],
                "{stop}"
            );
        }
    }

    #[test]
    fn a_commit_vouches_for_the_first_earlier_intent_of_its_generation() {
        let text: String = [
            "commit gen=1",             // orphan: no intent yet
            "intent gen=1 key=1 len=8", // the one gen 1's commit vouches for
            "intent gen=1 key=2 len=8", // a second intent never redefines it
            "commit gen=1",
            "intent gen=3 key=3 len=8", // uncommitted
            "commit gen=4",             // orphan
        ]
        .map(journal_line)
        .concat();
        let replay = Replay::<Entry>::parse(&text);
        assert_eq!(replay.committed.len(), 1);
        assert_eq!(replay.committed[&1], Entry { key: 1, len: 8 });
        assert_eq!(replay.max_gen, 4);
        assert_eq!(Replay::<Entry>::parse("").max_gen, 0);
    }

    #[test]
    fn commit_orders_intent_payload_barrier_commit_barrier() {
        use crate::{SimDisk, SimOp, SimStore, DEFAULT_SECTOR};
        use std::sync::{Arc, Mutex};
        let ops = |discipline| {
            let disk = Arc::new(Mutex::new(SimDisk::new(DEFAULT_SECTOR)));
            let mut store = SimStore::new(Arc::clone(&disk));
            let entry = Entry { key: 7, len: 2 };
            commit(&mut store, "j", 5, &entry, &[("e5", b"ab")], discipline).unwrap();
            let replay = Replay::<Entry>::read(&store, "j").unwrap();
            assert_eq!(replay.committed[&5], entry);
            let schedule = disk.lock().unwrap().schedule().to_vec();
            schedule
        };
        let intent = SimOp::Append {
            name: "j".into(),
            bytes: journal_line("intent gen=5 key=7 len=2").into_bytes(),
        };
        let payload = SimOp::WriteFile {
            name: "e5".into(),
            bytes: b"ab".to_vec(),
        };
        let commit_rec = SimOp::Append {
            name: "j".into(),
            bytes: journal_line("commit gen=5").into_bytes(),
        };
        let barriered = [
            intent.clone(),
            payload.clone(),
            SimOp::Barrier,
            commit_rec.clone(),
            SimOp::Barrier,
        ];
        assert_eq!(ops(CommitDiscipline::Barriered), barriered);
        let broken = [intent, payload, commit_rec, SimOp::Barrier];
        assert_eq!(ops(CommitDiscipline::UnbarrieredCommit), broken);
    }
}
