//! The shard worker: a panic-isolated factorization loop under a
//! supervisor, with retry/backoff, checkpoint re-drive, a circuit
//! breaker, and an ABFT-verified factor cache.
//!
//! Each shard owns one worker thread, one FIFO job queue, one cache, and
//! one breaker.  All per-shard state is touched only by the shard's own
//! thread and jobs are processed strictly in queue order, so the shard's
//! entire visible behaviour — events, counters, cache evolution, breaker
//! transitions — is a deterministic function of its job sequence and the
//! fault plan.
//!
//! The supervisor structure: each factorization attempt runs inside
//! `catch_unwind`.  A chaos plan makes the worker die
//! mid-factorization ([`PanelCrash`]) from inside the engine's control
//! hook, at a panel boundary, and the hook deposits the checkpoint it
//! dies with into the supervisor's slot first: the supervisor catches
//! the panic, logs the restart, recovers the in-flight job from the
//! slot, and re-drives it from the last completed panel —
//! recomputing bit-identical panels, never restarting from scratch
//! unless the crash landed before panel 0 finished.

use crate::admission::Admission;
use crate::breaker::CircuitBreaker;
use crate::cache::{CacheRead, FactorCache};
use crate::durable::DurableCache;
use crate::engine::{
    batch_cost_us, factor_batch, factor_resumable, panel_cost_us, panel_count, Checkpoint,
    FactorOutcome, PanelControl, PanelCrash,
};
use crate::error::ServeError;
use crate::events::{Event, EventRecord, Source};
use crate::jobs::{self, Problem};
use crate::metrics::{Counters, Metrics};
use crate::service::{Request, Response, ShardConfig};
use cholcomm_faults::{FaultPlan, JobFault};
use cholcomm_matrix::{lower_digest, lower_digests, tri, Matrix};
use crossbeam::channel::{Receiver, Sender};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Modelled virtual cost (µs) of serving from cache.
const CACHE_SERVE_COST_US: u64 = 1;

/// One queued job, as handed from admission to a shard.
pub(crate) struct ShardJob {
    pub req_id: u64,
    pub request: Request,
    pub digest: u64,
    pub admit: Admission,
    pub next_seq: u32,
    pub submitted_at: Instant,
    pub reply: Sender<Result<Response, ServeError>>,
}

/// What travels on a shard's queue: a single job, or a whole size
/// bucket released by the batcher.  Both come from the single-threaded
/// submitter, so the interleaving — and therefore the shard's entire
/// behaviour — is deterministic.
pub(crate) enum ShardMsg {
    One(Box<ShardJob>),
    Batch {
        bucket_n: usize,
        /// Virtual instant the batcher released the bucket; formation
        /// waits are counted from each member's arrival to here.
        released_us: u64,
        jobs: Vec<ShardJob>,
    },
}

/// What a shard hands back at shutdown.
pub(crate) struct ShardReport {
    pub events: Vec<EventRecord>,
    pub metrics: Metrics,
}

/// Deterministic jittered exponential backoff for `(req, attempt)`.
fn backoff_us(base_us: u64, seed: u64, req: u64, attempt: u32) -> u64 {
    let exp = base_us.saturating_mul(1u64 << (attempt.min(10) - 1).min(20));
    // Jitter in [0, base): a seeded hash, not a shared RNG, so each
    // request's backoff schedule is independent of every other request.
    let mut h = seed ^ req.wrapping_mul(0x9E3779B97F4A7C15) ^ (attempt as u64) << 32;
    h ^= h >> 30;
    h = h.wrapping_mul(0xBF58476D1CE4E5B9);
    h ^= h >> 27;
    exp + (h % base_us.max(1))
}

/// Install (once, process-wide) a panic hook that silences the panics
/// the chaos plans inject on purpose, keeping real panics loud.
fn silence_injected_crashes() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<PanelCrash>().is_none() {
                prev(info);
            }
        }));
    });
}

/// Materialise `request`'s problem.  The shard's only call to
/// [`jobs::build`], so `problems_built` counts every build.
fn build_problem(counters: &mut Counters, request: &Request) -> Problem {
    counters.problems_built += 1;
    jobs::build(request.kind, request.key, request.n)
}

/// The shard worker loop: owned state plus the job receiver.
pub(crate) struct Shard {
    shard_id: usize,
    config: ShardConfig,
    plan: FaultPlan,
    cache: FactorCache,
    breaker: CircuitBreaker,
    vclock_us: u64,
    events: Vec<EventRecord>,
    metrics: Metrics,
    durable: Option<DurableCache>,
}

impl Shard {
    pub(crate) fn spawn(
        shard_id: usize,
        config: ShardConfig,
        plan: FaultPlan,
        rx: Receiver<ShardMsg>,
        durable: Option<DurableCache>,
    ) -> std::thread::JoinHandle<ShardReport> {
        silence_injected_crashes();
        std::thread::spawn(move || {
            // The parallelism flag is thread-local, so setting it here
            // scopes the choice to this shard's kernel calls only.
            cholcomm_matrix::parallel::set_kernel_parallelism(config.parallel);
            let mut shard = Shard {
                shard_id,
                config,
                plan,
                cache: FactorCache::new(config.cache_capacity),
                breaker: CircuitBreaker::new(config.breaker),
                vclock_us: 0,
                events: Vec::new(),
                metrics: Metrics::default(),
                durable,
            };
            // A durable shard first replays its journal: committed
            // entries from a previous process warm the cache; anything
            // torn by the crash is dropped (and re-factored on demand),
            // never served.
            if let Some(d) = shard.durable.as_mut() {
                let report = d.recover_into(&mut shard.cache);
                shard.metrics.counters.cache_recovered = report.recovered;
                shard.metrics.counters.journal_unreadable = u64::from(!d.journaling());
            }
            while let Ok(msg) = rx.recv() {
                match msg {
                    ShardMsg::One(job) => shard.process(*job),
                    ShardMsg::Batch {
                        bucket_n,
                        released_us,
                        jobs,
                    } => shard.process_batch(bucket_n, released_us, jobs),
                }
            }
            shard.metrics.cache = shard.cache.stats();
            ShardReport {
                events: shard.events,
                metrics: shard.metrics,
            }
        })
    }

    fn emit(&mut self, req: u64, seq: &mut u32, event: Event) {
        self.events.push(EventRecord {
            req,
            seq: *seq,
            event,
        });
        *seq += 1;
    }

    /// Read `job`'s key through the verified cache.  True when the entry
    /// is servable (clean or healed).
    fn cache_read(&mut self, job: &ShardJob, seq: &mut u32, degraded: bool) -> bool {
        let n = job.request.n;
        let flips = self.plan.cache_flips(job.req_id, n, n);
        let read = self.cache.read(job.digest, &flips);
        if read != CacheRead::Miss || degraded {
            self.emit(job.req_id, seq, Event::CacheRead { read, degraded });
        }
        matches!(read, CacheRead::Hit | CacheRead::Healed)
    }

    /// Complete `job` from the cache entry a servable read just left
    /// behind.  Builds nothing, digests nothing and clones nothing — the
    /// entry holds the digest and the right-hand side — except on the
    /// first use of an entry recovered from the durable journal, whose
    /// right-hand side is built here, once.
    fn complete_cached(&mut self, job: &ShardJob, seq: &mut u32, source: Source, vstart_us: u64) {
        let counters = &mut self.metrics.counters;
        let served = self
            .cache
            .served(job.digest, || build_problem(counters, &job.request).rhs)
            .expect("a servable read leaves its entry cached");
        let solution = served
            .rhs
            .map(|rhs| tri::solve_with_factor(served.factor, rhs));
        let digest = served.lower_digest;
        self.respond(job, seq, source, digest, solution, vstart_us + CACHE_SERVE_COST_US);
    }

    /// Complete `job` at virtual time `vend_us` with its freshly computed
    /// `factor` and the factor's `lower_digest`: solve `rhs` when the
    /// kind carries one, journal the factor, and move it into the cache
    /// together with `digest` and `rhs`.
    #[allow(clippy::too_many_arguments)]
    fn complete_factored(
        &mut self,
        job: &ShardJob,
        seq: &mut u32,
        factor: Matrix<f64>,
        digest: u64,
        rhs: Option<Vec<f64>>,
        source: Source,
        vend_us: u64,
    ) {
        let solution = rhs.as_deref().map(|rhs| tri::solve_with_factor(&factor, rhs));
        if let Some(d) = self.durable.as_mut() {
            // Journal-commit the fresh factor.  Persistence is
            // best-effort for a cache — the in-RAM copy is already
            // correct — but the protocol itself never leaves a
            // committed-yet-invalid entry behind.
            let _ = d.record(job.digest, &factor);
        }
        self.cache.insert(job.digest, factor, digest, rhs);
        self.respond(job, seq, source, digest, solution, vend_us);
    }

    /// Log the completion, advance the virtual clock to `vend_us`, and
    /// answer the ticket.
    fn respond(
        &mut self,
        job: &ShardJob,
        seq: &mut u32,
        source: Source,
        factor_digest: u64,
        solution: Option<Vec<f64>>,
        vend_us: u64,
    ) {
        self.vclock_us = vend_us;
        self.emit(
            job.req_id,
            seq,
            Event::Completed {
                source,
                factor_digest,
                vend_us,
            },
        );
        self.metrics.counters.completed += 1;
        if source == Source::DegradedCache {
            self.metrics.counters.degraded_served += 1;
        }
        let virt_latency = vend_us.saturating_sub(job.request.vtime_us);
        self.metrics.virt_latency_us.push(virt_latency);
        self.metrics
            .wall_latency_us
            .push(job.submitted_at.elapsed().as_secs_f64() * 1e6);
        let _ = job.reply.send(Ok(Response {
            req: job.req_id,
            source,
            factor_digest,
            solution,
            virt_latency_us: virt_latency,
        }));
    }

    /// Refuse `job` with `err`.
    fn refuse(&mut self, job: &ShardJob, seq: &mut u32, err: ServeError) {
        self.emit(job.req_id, seq, Event::Failed { tag: err.tag() });
        match &err {
            ServeError::ShedOverload { .. } => self.metrics.counters.shed_overload += 1,
            ServeError::CircuitOpen { .. } => self.metrics.counters.breaker_refused += 1,
            ServeError::DeadlineExceeded { .. } => self.metrics.counters.deadline_canceled += 1,
            _ => self.metrics.counters.failed += 1,
        }
        let _ = job.reply.send(Err(err));
    }

    fn record_breaker(&mut self, req: u64, seq: &mut u32, change: Option<crate::breaker::BreakerState>) {
        if let Some(state) = change {
            self.metrics.counters.breaker_transitions += 1;
            self.emit(
                req,
                seq,
                Event::BreakerChanged {
                    shard: self.shard_id,
                    state,
                },
            );
        }
    }

    fn process(&mut self, job: ShardJob) {
        let mut seq = job.next_seq;
        let vstart_us = self.vclock_us.max(job.request.vtime_us);

        // --- Shed at admission: degrade to cache or refuse loudly. ---
        if let Admission::Shed {
            backlog_us,
            watermark_us,
        } = job.admit
        {
            if self.cache_read(&job, &mut seq, true) {
                self.complete_cached(&job, &mut seq, Source::DegradedCache, vstart_us);
            } else {
                self.refuse(
                    &job,
                    &mut seq,
                    ServeError::ShedOverload {
                        class: job.request.class,
                        backlog_us,
                        watermark_us,
                    },
                );
            }
            return;
        }

        // --- Breaker: refuse fresh work on a tripped shard. ---
        if !self.breaker.admits_fresh(job.request.class) {
            self.emit(
                job.req_id,
                &mut seq,
                Event::BreakerRefused {
                    shard: self.shard_id,
                    state: self.breaker.state(),
                },
            );
            if self.cache_read(&job, &mut seq, true) {
                self.complete_cached(&job, &mut seq, Source::DegradedCache, vstart_us);
            } else {
                self.refuse(
                    &job,
                    &mut seq,
                    ServeError::CircuitOpen {
                        shard: self.shard_id,
                        consecutive_faults: self.breaker.consecutive_faults(),
                    },
                );
            }
            return;
        }

        // --- Normal path: verified cache first. ---
        if self.cache_read(&job, &mut seq, false) {
            self.complete_cached(&job, &mut seq, Source::Cache, vstart_us);
            return;
        }

        // --- Fresh factorization with retry, backoff, supervision. ---
        self.factor_fresh(job, seq, vstart_us);
    }

    /// Execute one released size bucket as one unit of work.
    ///
    /// Per member, in deterministic order: announce batch membership,
    /// try the verified cache (a hit serves at cache cost and drops out
    /// of the kernel run), enforce the deadline against the formation
    /// wait (a member whose budget expired *waiting in the bucket* is
    /// shed with a typed refusal, never silently factored late), then
    /// factor every survivor in one [`factor_batch`] call.  All
    /// survivors complete at the same virtual instant — the batch is one
    /// unit of work — and each factor is the per-request path's, bit for
    /// bit, since [`factor_batch`] runs that engine on every member.
    ///
    /// The batch path deliberately bypasses the retry/crash supervisor
    /// and the circuit breaker: those guard the resumable per-request
    /// engine, whose panel hook is where the fault plan injects.  Chaos
    /// scenarios therefore run unbatched, and the batched path's
    /// correctness is carried by its bit-identity certificates instead.
    fn process_batch(&mut self, bucket_n: usize, released_us: u64, jobs: Vec<ShardJob>) {
        let batch = jobs.len();
        // The batch starts no earlier than its release instant (which is
        // itself no earlier than any member's arrival), so each member's
        // `vstart - arrival` wait includes its full formation delay.
        let vstart_us = self.vclock_us.max(released_us);
        self.metrics.counters.batches_dispatched += 1;

        let mut seqs: Vec<u32> = jobs.iter().map(|j| j.next_seq).collect();
        for (job, seq) in jobs.iter().zip(seqs.iter_mut()) {
            self.emit(job.req_id, seq, Event::Batched { bucket_n, batch });
        }

        // Cache hits serve immediately; survivors go to the kernels.
        let mut pending: Vec<(ShardJob, u32)> = Vec::with_capacity(batch);
        for (job, mut seq) in jobs.into_iter().zip(seqs) {
            if self.cache_read(&job, &mut seq, false) {
                self.complete_cached(&job, &mut seq, Source::Cache, vstart_us);
                continue;
            }
            let wait_us = vstart_us.saturating_sub(job.request.vtime_us);
            if wait_us >= job.request.deadline_us {
                let budget_us = job.request.deadline_us;
                self.emit(
                    job.req_id,
                    &mut seq,
                    Event::DeadlineCanceled {
                        panel: 0,
                        elapsed_us: wait_us,
                        budget_us,
                    },
                );
                self.refuse(
                    &job,
                    &mut seq,
                    ServeError::DeadlineExceeded {
                        elapsed_us: wait_us,
                        budget_us,
                        panel: 0,
                    },
                );
                continue;
            }
            pending.push((job, seq));
        }
        if pending.is_empty() {
            return;
        }

        let (matrices, rhss): (Vec<Matrix<f64>>, Vec<Option<Vec<f64>>>) = pending
            .iter()
            .map(|(job, _)| {
                let problem = build_problem(&mut self.metrics.counters, &job.request);
                (problem.a, problem.rhs)
            })
            .unzip();
        let work_us = batch_cost_us(bucket_n, pending.len(), self.config.block);
        let results = factor_batch(&matrices, bucket_n, self.config.block, self.config.kernel);
        // The certificates of the whole batch in one call: a digest is a
        // chain of dependent multiplies, and the batch's chains do not
        // depend on each other.
        let factors: Vec<&Matrix<f64>> = results.iter().flatten().collect();
        let mut digests = lower_digests(&factors).into_iter();
        for (((job, mut seq), result), rhs) in pending.into_iter().zip(results).zip(rhss) {
            match result {
                Ok(factor) => {
                    self.metrics.counters.batched_factorizations += 1;
                    let digest = digests.next().expect("one digest per factored member");
                    let vend_us = vstart_us + work_us;
                    self.complete_factored(
                        &job,
                        &mut seq,
                        factor,
                        digest,
                        rhs,
                        Source::Batched,
                        vend_us,
                    );
                }
                Err(e) => {
                    self.vclock_us = vstart_us + work_us;
                    self.refuse(&job, &mut seq, ServeError::Matrix(e));
                }
            }
        }
    }

    fn factor_fresh(&mut self, job: ShardJob, mut seq: u32, vstart_us: u64) {
        let n = job.request.n;
        let b = self.config.block;
        let panels = panel_count(n, b);
        let budget_us = job.request.deadline_us;
        let queue_wait_us = vstart_us.saturating_sub(job.request.vtime_us);

        // Queue wait already counts against the deadline budget.
        if queue_wait_us >= budget_us {
            self.emit(
                job.req_id,
                &mut seq,
                Event::DeadlineCanceled {
                    panel: 0,
                    elapsed_us: queue_wait_us,
                    budget_us,
                },
            );
            self.refuse(
                &job,
                &mut seq,
                ServeError::DeadlineExceeded {
                    elapsed_us: queue_wait_us,
                    budget_us,
                    panel: 0,
                },
            );
            return;
        }

        let Problem { a, rhs } = build_problem(&mut self.metrics.counters, &job.request);
        let mut ckpt = Checkpoint::fresh(a);
        let mut attempt: u32 = 1;
        let mut work_us: u64 = 0; // virtual work+backoff consumed by this job
        let mut had_fault = false;

        let outcome = loop {
            if attempt > self.config.retry_limit {
                break Err(ServeError::RetriesExhausted {
                    attempts: attempt - 1,
                });
            }
            let fault = self.plan.job_fault(job.req_id, attempt, panels);
            self.emit(
                job.req_id,
                &mut seq,
                Event::AttemptStarted {
                    attempt,
                    from_panel: ckpt.next_panel,
                },
            );

            // Transient faults strike before any panel work lands.
            if matches!(fault, Some(JobFault::Transient)) {
                let backoff = backoff_us(
                    self.config.backoff_base_us,
                    self.config.seed,
                    job.req_id,
                    attempt,
                );
                self.emit(
                    job.req_id,
                    &mut seq,
                    Event::TransientFault {
                        attempt,
                        backoff_us: backoff,
                    },
                );
                self.metrics.counters.transient_faults += 1;
                had_fault = true;
                work_us += backoff;
                attempt += 1;
                continue;
            }
            let crash_panel = match fault {
                Some(JobFault::Crash { panel }) => Some(panel),
                _ => None,
            };

            // Run the attempt under the supervisor's catch_unwind.  The
            // control hook meters virtual work, enforces the deadline,
            // and injects the crash — leaving the checkpoint the engine
            // dies with in the slot, the one place it is ever read from.
            let consumed = Cell::new(0u64);
            let mut slot: Option<Checkpoint> = None;
            let base_work = work_us;
            let result = catch_unwind(AssertUnwindSafe(|| {
                factor_resumable(ckpt, b, self.config.kernel, &mut |jb, ck| {
                    let elapsed = queue_wait_us + base_work + consumed.get();
                    if elapsed >= budget_us {
                        return PanelControl::Cancel;
                    }
                    if crash_panel == Some(jb) {
                        slot = Some(ck.clone());
                        return PanelControl::Crash;
                    }
                    consumed.set(consumed.get() + panel_cost_us(n, b, jb));
                    PanelControl::Continue
                })
            }));
            work_us += consumed.get();

            match result {
                Ok(Ok(FactorOutcome::Done(factor))) => break Ok(factor),
                Ok(Ok(FactorOutcome::Canceled { panel })) => {
                    let elapsed_us = queue_wait_us + work_us;
                    self.emit(
                        job.req_id,
                        &mut seq,
                        Event::DeadlineCanceled {
                            panel,
                            elapsed_us,
                            budget_us,
                        },
                    );
                    break Err(ServeError::DeadlineExceeded {
                        elapsed_us,
                        budget_us,
                        panel,
                    });
                }
                Ok(Err(e)) => break Err(ServeError::Matrix(e)),
                Err(payload) => {
                    // The worker died.  Only chaos-injected crashes are
                    // survivable; anything else is a genuine bug.
                    let Some(crash) = payload.downcast_ref::<PanelCrash>() else {
                        std::panic::resume_unwind(payload);
                    };
                    self.emit(
                        job.req_id,
                        &mut seq,
                        Event::WorkerCrashed {
                            attempt,
                            panel: crash.panel,
                        },
                    );
                    self.metrics.counters.worker_crashes += 1;
                    had_fault = true;
                    // Supervisor: restart the worker state and re-drive
                    // from the slot's checkpoint.
                    ckpt = slot
                        .expect("an injected crash fires in the hook, which fills the slot first");
                    self.emit(
                        job.req_id,
                        &mut seq,
                        Event::WorkerRestarted {
                            shard: self.shard_id,
                            from_panel: ckpt.next_panel,
                        },
                    );
                    self.metrics.counters.worker_restarts += 1;
                    let backoff = backoff_us(
                        self.config.backoff_base_us,
                        self.config.seed,
                        job.req_id,
                        attempt,
                    );
                    work_us += backoff;
                    attempt += 1;
                    continue;
                }
            }
        };

        // Breaker bookkeeping happens per job, after its outcome.
        let change = if had_fault {
            self.breaker.on_fault()
        } else {
            self.breaker.on_clean()
        };
        self.record_breaker(job.req_id, &mut seq, change);

        match outcome {
            Ok(factor) => {
                self.metrics.counters.fresh_factorizations += 1;
                let vend_us = vstart_us + work_us;
                let digest = lower_digest(&factor);
                self.complete_factored(&job, &mut seq, factor, digest, rhs, Source::Fresh, vend_us);
            }
            Err(e) => {
                // Failed fresh work still consumed virtual time.
                self.vclock_us = vstart_us + work_us;
                self.refuse(&job, &mut seq, e);
            }
        }
    }
}
