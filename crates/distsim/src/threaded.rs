//! An SPMD execution mode: `P` real OS threads, each running the same
//! per-processor program, exchanging real payloads over channels — the
//! closest this workspace gets to an actual MPI execution.
//!
//! Clocks follow the postal model: a send stamps the sender's current
//! simulated time; the receiver advances to
//! `max(local, send_time + alpha + beta * words)` and inherits the
//! critical-path tuple of whichever side was later, plus the message.
//! Numerical results are deterministic (the dataflow is fixed); the
//! simulated clocks are too, because every receive names its sender.
//!
//! # Reliable transport under injected faults
//!
//! Links are *lossy* when a [`FaultPlan`] says so: transmission attempts
//! can be dropped, duplicated, delayed, or corrupted.  The transport
//! recovers with the classic stop-and-wait machinery — per-link sequence
//! numbers, payload checksums, receiver-side deduplication, and
//! timeout-based retransmission with exponential backoff on the
//! *simulated* clock.  Because fault decisions are pure functions of
//! `(link, sequence, attempt)`, a faulted run is exactly as
//! deterministic as a clean one: same factors bit for bit, same clocks.
//!
//! Traffic is accounted twice: the **clean** counts are the algorithmic
//! words/messages the program asked for (what the paper's tables count),
//! while `words_sent`/`messages_sent` tally everything that crossed the
//! wire, including retransmissions, duplicate copies, and corrupted
//! arrivals.  [`SpmdOutcome::fault_report`] reports both plus the
//! overhead factor.  Acknowledgements are tracked in
//! [`FaultStats::acks`] but kept out of the word/message totals so a
//! clean run's overhead factor is exactly 1.
//!
//! Rank death is *fail-stop*: a rank that dies ([`ProcCtx::die`]) drops
//! its channel endpoints, so peers that need something from it observe a
//! disconnect — surfaced as the typed [`DistError::RankLost`] instead of
//! a panic — once its buffered messages are drained.  Survivor-side
//! recovery (who adopts the dead rank's blocks, and from what state) is
//! policy and lives with the algorithms, e.g. the ABFT driver in
//! `cholcomm-par`.
//!
//! The sequential [`Machine`](crate::Machine) remains the reference for
//! the paper's tables; this mode exists to show the same algorithm and
//! the same counts survive genuine concurrency (and now genuine fault
//! recovery) on the channel-based plumbing a real deployment would use.

use crate::cost::{CostModel, CriticalPath};
use cholcomm_faults::{FaultPlan, FaultStats, MessageFault};
use cholcomm_matrix::digest::word_checksum;
use std::sync::mpsc::{channel, Receiver, Sender};

/// A message between ranks: payload plus transport metadata and the
/// sender's clock state.
struct Msg {
    words: usize,
    send_time: f64,
    /// Extra simulated latency injected by a `Delay` fault.
    extra_latency: f64,
    /// Per-link sequence number (starts at 1).
    seq: u64,
    /// Checksum over the payload; receivers discard on mismatch.
    checksum: u64,
    path: CriticalPath,
    payload: Vec<f64>,
}

/// Typed failures of the SPMD message path.
///
/// Since PR 2 the transport never panics on a dead peer: every
/// `send`/`recv`/`bcast` returns one of these instead, so a single lost
/// rank degrades gracefully and the caller decides whether to abort,
/// ignore, or recover.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DistError {
    /// The peer's channel endpoints are gone: it died (fail-stop) and
    /// any messages it had buffered have been drained.
    RankLost {
        /// The rank that is no longer reachable.
        rank: usize,
    },
    /// A protocol invariant was violated — a bug in the SPMD program
    /// (e.g. a broadcast whose member list omits the caller), not an
    /// injected fault.
    Protocol(&'static str),
}

impl std::fmt::Display for DistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistError::RankLost { rank } => write!(f, "rank {rank} is lost (fail-stop)"),
            DistError::Protocol(what) => write!(f, "SPMD protocol violation: {what}"),
        }
    }
}

impl std::error::Error for DistError {}

/// Per-rank context handed to the SPMD program.
pub struct ProcCtx {
    rank: usize,
    procs: usize,
    model: CostModel,
    plan: FaultPlan,
    time: f64,
    path: CriticalPath,
    /// Everything that crossed the wire (retransmits and duplicates
    /// included) — the "faulted" totals.
    words_sent: u64,
    messages_sent: u64,
    /// What the program asked to send — the algorithmic totals.
    clean_words: u64,
    clean_messages: u64,
    flops: u64,
    fstats: FaultStats,
    /// `next_seq[dst]` — next sequence number on my link to `dst`.
    next_seq: Vec<u64>,
    /// `last_seen[src]` — highest sequence accepted from `src`.
    last_seen: Vec<u64>,
    /// `senders[dst]` — my outgoing channel to each destination.
    senders: Vec<Sender<Msg>>,
    /// `receivers[src]` — my inbox from each source.
    receivers: Vec<Receiver<Msg>>,
}

impl ProcCtx {
    /// This rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Total ranks.
    pub fn procs(&self) -> usize {
        self.procs
    }

    /// Charge local computation.
    pub fn compute(&mut self, flops: u64) {
        self.time += self.model.gamma * flops as f64;
        self.flops += flops;
        self.path.flops += flops;
    }

    /// Retransmission timeout before attempt `attempt + 1`: one message
    /// round trip, doubling per failed attempt.
    fn rto(&self, words: usize, attempt: u32) -> f64 {
        let round_trip = self.model.message_time(words) + self.model.message_time(1);
        round_trip * (1u64 << (attempt - 1).min(16)) as f64
    }

    fn push_to_wire(&mut self, dst: usize, msg: Msg) -> Result<(), DistError> {
        self.words_sent += msg.words as u64;
        self.messages_sent += 1;
        self.senders[dst]
            .send(msg)
            .map_err(|_| DistError::RankLost { rank: dst })
    }

    /// Send `payload` to `dst` (one logical message).  Under a fault
    /// plan this may take several wire attempts; the call returns once
    /// an intact copy is on the wire and is guaranteed to terminate by
    /// the plan's attempt cap.  Errors with
    /// [`DistError::RankLost`] if `dst` has died.
    pub fn send(&mut self, dst: usize, payload: Vec<f64>) -> Result<(), DistError> {
        assert_ne!(dst, self.rank, "no self-sends in the SPMD mode");
        let words = payload.len();
        let seq = self.next_seq[dst];
        self.next_seq[dst] += 1;
        self.clean_words += words as u64;
        self.clean_messages += 1;

        let checksum = word_checksum(&payload);
        let mut attempt: u32 = 1;
        loop {
            match self.plan.message_fault(self.rank, dst, seq, attempt) {
                Some(MessageFault::Drop) => {
                    // The attempt vanishes: it still cost us wire words
                    // (count it) but never reaches the receiver, so no
                    // physical send.  Wait out the ack timeout, back off,
                    // retransmit.
                    self.words_sent += words as u64;
                    self.messages_sent += 1;
                    self.fstats.drops += 1;
                    self.fstats.retransmits += 1;
                    self.time += self.rto(words, attempt);
                    attempt += 1;
                }
                Some(MessageFault::Corrupt) => {
                    // The attempt arrives, but mangled: flip a payload
                    // bit so the checksum genuinely fails at the far
                    // end, then time out and retransmit.
                    let mut bad = payload.clone();
                    if let Some(first) = bad.first_mut() {
                        *first = f64::from_bits(first.to_bits() ^ 1);
                    }
                    let msg = Msg {
                        words,
                        send_time: self.time,
                        extra_latency: 0.0,
                        seq,
                        checksum,
                        path: self.path,
                        payload: bad,
                    };
                    self.push_to_wire(dst, msg)?;
                    self.fstats.corruptions += 1;
                    self.fstats.retransmits += 1;
                    self.time += self.rto(words, attempt);
                    attempt += 1;
                }
                Some(MessageFault::Delay { extra }) => {
                    let msg = Msg {
                        words,
                        send_time: self.time,
                        extra_latency: extra,
                        seq,
                        checksum,
                        path: self.path,
                        payload,
                    };
                    self.push_to_wire(dst, msg)?;
                    self.fstats.delays += 1;
                    return Ok(());
                }
                Some(MessageFault::Duplicate) => {
                    for copy in 0..2 {
                        let msg = Msg {
                            words,
                            send_time: self.time,
                            extra_latency: 0.0,
                            seq,
                            checksum,
                            path: self.path,
                            payload: payload.clone(),
                        };
                        self.push_to_wire(dst, msg)?;
                        if copy == 1 {
                            self.fstats.duplicates += 1;
                        }
                    }
                    return Ok(());
                }
                None => {
                    let msg = Msg {
                        words,
                        send_time: self.time,
                        extra_latency: 0.0,
                        seq,
                        checksum,
                        path: self.path,
                        payload,
                    };
                    self.push_to_wire(dst, msg)?;
                    return Ok(());
                }
            }
        }
    }

    /// Blocking receive of the next accepted message from `src`:
    /// corrupted arrivals and stale duplicates are discarded here, so
    /// the program only ever sees clean in-order payloads.  Errors with
    /// [`DistError::RankLost`] once `src` has died and its buffered
    /// messages are exhausted.
    pub fn recv(&mut self, src: usize) -> Result<Vec<f64>, DistError> {
        loop {
            let msg = self.receivers[src]
                .recv()
                .map_err(|_| DistError::RankLost { rank: src })?;
            let arrival = msg.send_time + self.model.message_time(msg.words) + msg.extra_latency;
            if word_checksum(&msg.payload) != msg.checksum {
                // Corrupted on the wire: occupy the link, discard, keep
                // waiting for the retransmit.
                self.time = self.time.max(arrival);
                self.fstats.discarded += 1;
                continue;
            }
            if msg.seq <= self.last_seen[src] {
                // Duplicate of something already delivered.
                self.time = self.time.max(arrival);
                self.fstats.discarded += 1;
                continue;
            }
            self.last_seen[src] = msg.seq;
            // The ack travels back on the simulated wire; tracked as a
            // count only (see module docs).
            self.fstats.acks += 1;
            if arrival >= self.time {
                // The message chain is the critical path into this event.
                self.path = CriticalPath {
                    words: msg.path.words + msg.words as u64,
                    messages: msg.path.messages + 1,
                    flops: msg.path.flops,
                };
            } else {
                // Local work dominates; the message only adds its own cost.
                self.path.words += msg.words as u64;
                self.path.messages += 1;
            }
            self.time = self.time.max(arrival);
            return Ok(msg.payload);
        }
    }

    /// Binomial-tree broadcast among `members` (which must contain both
    /// `root` and this rank).  The root passes `Some(payload)`; everyone
    /// receives the payload back.  A dead peer anywhere along the tree
    /// surfaces as [`DistError::RankLost`].
    pub fn bcast(
        &mut self,
        root: usize,
        members: &[usize],
        payload: Option<Vec<f64>>,
    ) -> Result<Vec<f64>, DistError> {
        let mut order: Vec<usize> = Vec::with_capacity(members.len());
        order.push(root);
        order.extend(members.iter().copied().filter(|&m| m != root));
        let me = order
            .iter()
            .position(|&r| r == self.rank)
            .ok_or(DistError::Protocol("broadcast caller must be a member"))?;
        let k = order.len();
        let mut data = payload;
        let mut have = 1usize;
        while have < k {
            if me < have {
                // I already have the data; maybe I forward this round.
                let peer = me + have;
                if peer < k {
                    let d = data
                        .as_ref()
                        .ok_or(DistError::Protocol("broadcast holder has no data"))?
                        .clone();
                    self.send(order[peer], d)?;
                }
            } else if me < 2 * have {
                // I receive this round.
                let from = order[me - have];
                data = Some(self.recv(from)?);
            }
            have *= 2;
        }
        data.ok_or(DistError::Protocol("broadcast must deliver to every member"))
    }

    /// Fail-stop death of this rank: every channel endpoint is replaced
    /// with a dangling one, so the originals drop here and now.  Peers
    /// that try to reach this rank afterwards observe a disconnect
    /// ([`DistError::RankLost`]) — after draining whatever this rank had
    /// already buffered onto each link, exactly like a crashed MPI
    /// process whose in-flight packets still arrive.
    pub fn die(&mut self) {
        let (dead_tx, _) = channel();
        for s in self.senders.iter_mut() {
            *s = dead_tx.clone();
        }
        self.receivers = (0..self.procs)
            .map(|_| {
                let (_tx, rx) = channel();
                rx
            })
            .collect();
    }

    fn into_clock(self) -> RankClock {
        RankClock {
            time: self.time,
            path: self.path,
            words_sent: self.words_sent,
            messages_sent: self.messages_sent,
            clean_words: self.clean_words,
            clean_messages: self.clean_messages,
            flops: self.flops,
            fault_stats: self.fstats,
        }
    }
}

/// Final clock state of one rank.
#[derive(Debug, Clone, Copy)]
pub struct RankClock {
    /// Simulated completion time.
    pub time: f64,
    /// Critical path into this rank's final event.
    pub path: CriticalPath,
    /// Total words that crossed the wire (retries included).
    pub words_sent: u64,
    /// Total messages that crossed the wire (retries included).
    pub messages_sent: u64,
    /// Algorithmic words (what a perfect network would have carried).
    pub clean_words: u64,
    /// Algorithmic messages.
    pub clean_messages: u64,
    /// Local flops.
    pub flops: u64,
    /// Fault and recovery tallies for this rank.
    pub fault_stats: FaultStats,
}

/// Aggregate clean/faulted traffic for a whole run.
#[derive(Debug, Clone, Copy)]
pub struct FaultReport {
    /// Algorithmic words across all ranks.
    pub clean_words: u64,
    /// Algorithmic messages across all ranks.
    pub clean_messages: u64,
    /// Wire words across all ranks (retries and duplicates included).
    pub faulted_words: u64,
    /// Wire messages across all ranks.
    pub faulted_messages: u64,
    /// `faulted_words / clean_words` (1.0 when nothing was injected).
    pub word_overhead: f64,
    /// `faulted_messages / clean_messages`.
    pub message_overhead: f64,
    /// Merged per-rank fault tallies.
    pub stats: FaultStats,
}

impl std::fmt::Display for FaultReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "clean traffic:   {} words, {} messages",
            self.clean_words, self.clean_messages
        )?;
        writeln!(
            f,
            "faulted traffic: {} words, {} messages",
            self.faulted_words, self.faulted_messages
        )?;
        writeln!(
            f,
            "retry overhead:  {:.3}x words, {:.3}x messages",
            self.word_overhead, self.message_overhead
        )?;
        write!(
            f,
            "faults: {} drops, {} duplicates, {} corruptions, {} delays; {} retransmits, {} discarded, {} acks",
            self.stats.drops,
            self.stats.duplicates,
            self.stats.corruptions,
            self.stats.delays,
            self.stats.retransmits,
            self.stats.discarded,
            self.stats.acks
        )
    }
}

/// Outcome of an SPMD run: per-rank results and clocks.
#[derive(Debug)]
pub struct SpmdOutcome<T> {
    /// Whatever each rank's program returned, by rank.
    pub results: Vec<T>,
    /// Final clock per rank.
    pub clocks: Vec<RankClock>,
}

impl<T> SpmdOutcome<T> {
    /// Slowest rank's simulated time.
    pub fn makespan(&self) -> f64 {
        self.clocks.iter().map(|c| c.time).fold(0.0, f64::max)
    }

    /// Critical path of the slowest rank.
    pub fn critical_path(&self) -> CriticalPath {
        self.clocks
            .iter()
            .max_by(|a, b| a.time.partial_cmp(&b.time).expect("finite"))
            .map(|c| c.path)
            .unwrap_or_default()
    }

    /// Clean vs. faulted traffic totals and the retry overhead factor.
    pub fn fault_report(&self) -> FaultReport {
        let mut stats = FaultStats::new();
        let (mut cw, mut cm, mut fw, mut fm) = (0u64, 0u64, 0u64, 0u64);
        for c in &self.clocks {
            stats.merge(&c.fault_stats);
            cw += c.clean_words;
            cm += c.clean_messages;
            fw += c.words_sent;
            fm += c.messages_sent;
        }
        FaultReport {
            clean_words: cw,
            clean_messages: cm,
            faulted_words: fw,
            faulted_messages: fm,
            word_overhead: if cw == 0 { 1.0 } else { fw as f64 / cw as f64 },
            message_overhead: if cm == 0 { 1.0 } else { fm as f64 / cm as f64 },
            stats,
        }
    }
}

/// Run `program` on `p` OS threads under `model` with a perfect network.
pub fn run_spmd<T: Send>(
    p: usize,
    model: CostModel,
    program: impl Fn(&mut ProcCtx) -> T + Sync,
) -> SpmdOutcome<T> {
    run_spmd_faulty(p, model, FaultPlan::none(), program)
}

/// Run `program` on `p` OS threads under `model`, with every link
/// subjected to `plan`.  Each rank gets its own [`ProcCtx`] with a full
/// mesh of channels; the reliable transport guarantees the program sees
/// the same payloads it would on a perfect network.
pub fn run_spmd_faulty<T: Send>(
    p: usize,
    model: CostModel,
    plan: FaultPlan,
    program: impl Fn(&mut ProcCtx) -> T + Sync,
) -> SpmdOutcome<T> {
    assert!(p > 0);
    // Build the P x P channel mesh: mesh[src][dst].
    let mut senders: Vec<Vec<Option<Sender<Msg>>>> = (0..p).map(|_| (0..p).map(|_| None).collect()).collect();
    let mut receivers: Vec<Vec<Option<Receiver<Msg>>>> =
        (0..p).map(|_| (0..p).map(|_| None).collect()).collect();
    for (src, row) in senders.iter_mut().enumerate() {
        for (dst, slot) in row.iter_mut().enumerate() {
            let (tx, rx) = channel();
            *slot = Some(tx);
            receivers[dst][src] = Some(rx);
        }
    }

    let mut ctxs: Vec<ProcCtx> = Vec::with_capacity(p);
    for (rank, rx_row) in receivers.into_iter().enumerate() {
        // Rank's outgoing channels: senders[rank][dst] for every dst.
        let out_row: Vec<Sender<Msg>> = senders[rank]
            .iter()
            .map(|s| s.clone().expect("mesh built"))
            .collect();
        ctxs.push(ProcCtx {
            rank,
            procs: p,
            model,
            plan: plan.clone(),
            time: 0.0,
            path: CriticalPath::default(),
            words_sent: 0,
            messages_sent: 0,
            clean_words: 0,
            clean_messages: 0,
            flops: 0,
            fstats: FaultStats::new(),
            next_seq: vec![1; p],
            last_seen: vec![0; p],
            senders: out_row,
            receivers: rx_row.into_iter().map(|r| r.expect("mesh built")).collect(),
        });
    }
    drop(senders);

    let program = &program;
    let mut slots: Vec<Option<(T, ProcCtx)>> = (0..p).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = ctxs
            .into_iter()
            .map(|mut ctx| {
                scope.spawn(move || {
                    let out = program(&mut ctx);
                    // Return the ctx itself: its receivers must stay
                    // alive until every rank has joined, or a late
                    // duplicate/retransmit to an already-finished rank
                    // would hit a hung-up channel.
                    (out, ctx)
                })
            })
            .collect();
        for (rank, h) in handles.into_iter().enumerate() {
            slots[rank] = Some(h.join().expect("rank panicked"));
        }
    });

    let mut results = Vec::with_capacity(p);
    let mut clocks = Vec::with_capacity(p);
    for s in slots {
        let (r, ctx) = s.expect("all ranks joined");
        results.push(r);
        clocks.push(ctx.into_clock());
    }
    SpmdOutcome { results, clocks }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn ring_of_sends_accumulates_path() {
        let p = 4;
        let out = run_spmd(p, CostModel::typical(), |ctx| {
            let r = ctx.rank();
            if r == 0 {
                ctx.send(1, vec![1.0; 10]).unwrap();
                0.0
            } else {
                let v = ctx.recv(r - 1).unwrap();
                if r + 1 < ctx.procs() {
                    ctx.send(r + 1, v.clone()).unwrap();
                }
                v[0]
            }
        });
        assert_eq!(out.results, vec![0.0, 1.0, 1.0, 1.0]);
        let cp = out.critical_path();
        assert_eq!(cp.messages, 3, "three hops");
        assert_eq!(cp.words, 30);
    }

    #[test]
    fn bcast_delivers_to_everyone_logarithmically() {
        let p = 8;
        let out = run_spmd(p, CostModel::typical(), |ctx| {
            let members: Vec<usize> = (0..ctx.procs()).collect();
            let data = if ctx.rank() == 0 {
                Some(vec![42.0; 5])
            } else {
                None
            };
            ctx.bcast(0, &members, data).unwrap()[0]
        });
        assert!(out.results.iter().all(|&v| v == 42.0));
        let cp = out.critical_path();
        assert!(cp.messages <= 3, "binomial depth log2(8) = 3, got {}", cp.messages);
    }

    #[test]
    fn compute_shows_up_in_the_path() {
        let out = run_spmd(2, CostModel::typical(), |ctx| {
            if ctx.rank() == 0 {
                ctx.compute(5000);
                ctx.send(1, vec![0.0]).unwrap();
            } else {
                ctx.recv(0).unwrap();
            }
            ctx.rank()
        });
        assert_eq!(out.clocks[1].path.flops, 5000, "receiver inherits the sender's work");
    }

    #[test]
    fn deterministic_clocks_across_runs() {
        let run = || {
            let out = run_spmd(4, CostModel::typical(), |ctx| {
                let members: Vec<usize> = (0..4).collect();
                let data = if ctx.rank() == 2 { Some(vec![1.0; 7]) } else { None };
                ctx.bcast(2, &members, data).unwrap();
                ctx.compute(10 * (ctx.rank() as u64 + 1));
            });
            (out.makespan(), out.critical_path())
        };
        let (m1, c1) = run();
        let (m2, c2) = run();
        assert_eq!(m1, m2);
        assert_eq!(c1, c2);
    }

    #[test]
    fn clean_plan_has_unit_overhead() {
        let out = run_spmd(2, CostModel::typical(), |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, vec![1.0; 8]).unwrap();
            } else {
                ctx.recv(0).unwrap();
            }
        });
        let rep = out.fault_report();
        assert_eq!(rep.clean_words, 8);
        assert_eq!(rep.faulted_words, 8);
        assert_eq!(rep.word_overhead, 1.0);
        assert_eq!(rep.message_overhead, 1.0);
        assert_eq!(rep.stats.acks, 1);
        assert_eq!(rep.stats.message_faults(), 0);
    }

    #[test]
    fn payload_survives_heavy_loss() {
        // 40% of attempts dropped, plus duplication and corruption: the
        // program must still observe exactly the sent payloads, in order.
        let plan = FaultPlan::builder(11)
            .drop_rate(0.4)
            .duplicate_rate(0.1)
            .corrupt_rate(0.1)
            .build();
        let rounds = 50usize;
        let out = run_spmd_faulty(2, CostModel::typical(), plan, |ctx| {
            let mut sum = 0.0;
            for i in 0..rounds {
                if ctx.rank() == 0 {
                    ctx.send(1, vec![i as f64; 3]).unwrap();
                } else {
                    let v = ctx.recv(0).unwrap();
                    assert_eq!(v, vec![i as f64; 3], "round {i} payload intact and in order");
                    sum += v[0];
                }
            }
            sum
        });
        let want: f64 = (0..rounds).map(|i| i as f64).sum();
        assert_eq!(out.results[1], want);
        let rep = out.fault_report();
        assert!(rep.stats.drops > 0, "plan should have dropped something");
        assert!(rep.word_overhead > 1.0, "retries must show up as overhead");
        assert_eq!(rep.clean_messages, rounds as u64);
        assert!(rep.faulted_messages > rep.clean_messages);
    }

    #[test]
    fn faulted_run_is_deterministic() {
        let mk = || {
            let plan = FaultPlan::builder(21)
                .drop_rate(0.3)
                .duplicate_rate(0.1)
                .delay(0.2, 500.0)
                .build();
            run_spmd_faulty(4, CostModel::typical(), plan, |ctx| {
                let members: Vec<usize> = (0..4).collect();
                let data = if ctx.rank() == 1 {
                    Some(vec![3.25; 9])
                } else {
                    None
                };
                let got = ctx.bcast(1, &members, data).unwrap();
                got[0]
            })
        };
        let (a, b) = (mk(), mk());
        assert_eq!(a.results, b.results);
        assert_eq!(a.makespan(), b.makespan());
        assert_eq!(a.fault_report().faulted_words, b.fault_report().faulted_words);
        assert_eq!(a.fault_report().stats, b.fault_report().stats);
    }

    #[test]
    fn drops_slow_the_simulated_clock() {
        let clean = run_spmd(2, CostModel::typical(), |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, vec![1.0; 4]).unwrap();
            } else {
                ctx.recv(0).unwrap();
            }
        })
        .makespan();
        let plan = FaultPlan::builder(0)
            .inject_message_fault(0, 1, 1, 1, MessageFault::Drop)
            .build();
        let lossy = run_spmd_faulty(2, CostModel::typical(), plan, |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, vec![1.0; 4]).unwrap();
            } else {
                ctx.recv(0).unwrap();
            }
        })
        .makespan();
        assert!(
            lossy > clean,
            "a retransmission timeout must cost simulated time: {lossy} vs {clean}"
        );
    }

    #[test]
    fn explicit_duplicate_is_discarded_by_seq() {
        let plan = FaultPlan::builder(0)
            .inject_message_fault(0, 1, 1, 1, MessageFault::Duplicate)
            .build();
        let out = run_spmd_faulty(2, CostModel::typical(), plan, |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, vec![5.0]).unwrap();
                ctx.send(1, vec![6.0]).unwrap();
                0.0
            } else {
                let a = ctx.recv(0).unwrap()[0];
                let b = ctx.recv(0).unwrap()[0];
                a * 10.0 + b
            }
        });
        assert_eq!(out.results[1], 56.0, "duplicate must not displace the next message");
        let rep = out.fault_report();
        assert_eq!(rep.stats.duplicates, 1);
        assert_eq!(rep.stats.discarded, 1);
    }

    #[test]
    fn dead_rank_surfaces_as_rank_lost_not_a_panic() {
        let out = run_spmd(2, CostModel::typical(), |ctx| {
            if ctx.rank() == 1 {
                ctx.die();
                Ok(vec![])
            } else {
                // Rank 1 died without sending: the recv must fail with a
                // typed error instead of poisoning the mesh.
                ctx.recv(1)
            }
        });
        assert_eq!(out.results[0], Err(DistError::RankLost { rank: 1 }));
        assert_eq!(out.results[1], Ok(vec![]));
    }

    #[test]
    fn send_to_dead_rank_fails_typed() {
        let out = run_spmd(2, CostModel::typical(), |ctx| {
            if ctx.rank() == 1 {
                // Handshake so rank 0 only sends after rank 1 is dead.
                ctx.send(0, vec![1.0]).unwrap();
                ctx.die();
                Ok(())
            } else {
                ctx.recv(1).unwrap();
                // The endpoint may linger until the thread drops it;
                // retry until the disconnect is observed.
                loop {
                    match ctx.send(1, vec![2.0]) {
                        Err(e) => break Err(e),
                        Ok(()) => std::thread::yield_now(),
                    }
                }
            }
        });
        assert_eq!(out.results[0], Err(DistError::RankLost { rank: 1 }));
    }

    #[test]
    fn buffered_messages_drain_before_rank_lost() {
        // A rank that sends useful data *then* dies: peers still receive
        // everything it buffered, and only then observe the loss.
        let out = run_spmd(2, CostModel::typical(), |ctx| {
            if ctx.rank() == 1 {
                ctx.send(0, vec![7.0; 3]).unwrap();
                ctx.die();
                (vec![], None)
            } else {
                let got = ctx.recv(1).unwrap();
                let lost = ctx.recv(1).unwrap_err();
                (got, Some(lost))
            }
        });
        assert_eq!(out.results[0].0, vec![7.0; 3]);
        assert_eq!(out.results[0].1, Some(DistError::RankLost { rank: 1 }));
    }

    #[test]
    fn bcast_member_violation_is_a_protocol_error() {
        let out = run_spmd(2, CostModel::typical(), |ctx| {
            if ctx.rank() == 0 {
                // Member list without the caller.
                ctx.bcast(1, &[1], None).unwrap_err()
            } else {
                DistError::Protocol("unused")
            }
        });
        assert!(matches!(out.results[0], DistError::Protocol(_)));
    }
}
