//! The service front end: shard-per-core routing, admission, and the
//! replayable run report.
//!
//! The submitter (whoever holds the [`Service`]) is single-threaded by
//! construction (`submit` takes `&mut self`): it assigns dense request
//! ids, makes every admission decision against per-shard virtual-time
//! backlog gauges, and routes each request to its home shard by problem
//! digest.  Everything nondeterministic about the machine — thread
//! scheduling, wall-clock speed — is therefore kept out of the decision
//! path; the canonical event log and counters in the
//! [`ServiceReport`] are pure functions of `(config, plan, request
//! stream)`, which is exactly what the replay test asserts.

use crate::admission::{Admission, BacklogGauge, Priority, Watermarks};
use crate::batcher::{bucket_of, BatchConfig, Batcher, ReadyBatch};
use crate::breaker::BreakerConfig;
use crate::durable::DurableCache;
use crate::engine::{batched_request_cost_us, factor_cost_us};
use crate::error::ServeError;
use crate::events::{log_digest, merge_canonical, Event, EventRecord, Source};
use crate::jobs::{problem_digest, JobKind};
use crate::metrics::Metrics;
use crate::shard::{Shard, ShardJob, ShardMsg, ShardReport};
use cholcomm_faults::FaultPlan;
use cholcomm_matrix::{KernelImpl, Matrix};
use crossbeam::channel::{unbounded, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::Instant;

/// Per-shard knobs, shared by every shard of a service.
#[derive(Debug, Clone, Copy)]
pub struct ShardConfig {
    /// Blocked-factorization panel width.
    pub block: usize,
    /// Arithmetic kernel implementation.
    pub kernel: KernelImpl,
    /// Factor-cache capacity (entries); 0 disables caching.
    pub cache_capacity: usize,
    /// Maximum factorization attempts per job.
    pub retry_limit: u32,
    /// Base of the jittered exponential backoff (virtual µs).
    pub backoff_base_us: u64,
    /// Circuit-breaker thresholds.
    pub breaker: BreakerConfig,
    /// Service seed (jitter derivation).
    pub seed: u64,
    /// Let the shard's kernels fan BLAS-3 work onto the rayon pool.
    /// Off by default: a shard is already one worker of a shard-per-core
    /// service, so intra-kernel parallelism only helps when the service
    /// runs few shards on many cores.  Strict-mode results are
    /// bit-identical either way; `Fast` results are deterministic at a
    /// fixed pool size but may differ between pool sizes.
    pub parallel: bool,
}

/// Full service configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Number of shards (worker threads).
    pub shards: usize,
    /// Per-class admission watermarks for each shard's backlog gauge.
    pub watermarks: Watermarks,
    /// Per-shard knobs.
    pub shard: ShardConfig,
    /// Size-bucketed batching knobs (off by default).
    pub batch: BatchConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            shards: 4,
            watermarks: Watermarks::bounded_by(4_000),
            shard: ShardConfig {
                block: 16,
                kernel: KernelImpl::default(),
                cache_capacity: 32,
                retry_limit: 4,
                backoff_base_us: 8,
                breaker: BreakerConfig::default(),
                seed: 0,
                parallel: false,
            },
            batch: BatchConfig::default(),
        }
    }
}

/// One request to the service.
#[derive(Debug, Clone, Copy)]
pub struct Request {
    /// What to compute.
    pub kind: JobKind,
    /// Problem key (identifies the matrix; popular keys cache-hit).
    pub key: u64,
    /// Matrix order.
    pub n: usize,
    /// Priority class.
    pub class: Priority,
    /// Virtual arrival time (µs, non-decreasing across submissions).
    pub vtime_us: u64,
    /// Deadline budget in virtual µs, counted from arrival.
    pub deadline_us: u64,
}

/// A completed response.
#[derive(Debug, Clone)]
pub struct Response {
    /// Request id this answers.
    pub req: u64,
    /// Where the factor came from.
    pub source: Source,
    /// `lower_digest` of the served factor — the bit-identity
    /// certificate the chaos checker compares against a direct run.
    pub factor_digest: u64,
    /// Solution of the request's right-hand side, when its kind has one.
    pub solution: Option<Vec<f64>>,
    /// Virtual end-to-end latency (µs).
    pub virt_latency_us: u64,
}

/// Handle for one in-flight request.
pub struct Ticket {
    /// Request id.
    pub req: u64,
    rx: Receiver<Result<Response, ServeError>>,
}

impl Ticket {
    /// Block until the request resolves.  A shard that disappeared
    /// without answering (shutdown race) reports [`ServeError::Stopped`].
    pub fn wait(self) -> Result<Response, ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::Stopped))
    }
}

/// The deterministic artifact of a finished run.
#[derive(Debug, Clone)]
pub struct ServiceReport {
    /// Canonical `(req, seq)`-ordered event log.
    pub records: Vec<EventRecord>,
    /// FNV digest of the canonical log — the replay certificate.
    pub log_digest: u64,
    /// Merged counters, cache stats, and latency samples.
    pub metrics: Metrics,
}

/// The in-process factorization service.
pub struct Service {
    config: ServiceConfig,
    senders: Vec<Sender<ShardMsg>>,
    workers: Vec<JoinHandle<ShardReport>>,
    gauges: Vec<BacklogGauge>,
    batcher: Batcher,
    events: Vec<EventRecord>,
    next_req: u64,
    submitted: u64,
}

impl Service {
    /// Start the shard workers under `plan` (use
    /// [`cholcomm_faults::FaultPlan::none`] for a fault-free service).
    pub fn start(config: ServiceConfig, plan: &FaultPlan) -> Service {
        Service::start_with(config, plan, |_| None)
    }

    /// Start with a durable factor cache: `make_store` supplies each
    /// shard's [`Store`](cholcomm_faults::Store) (over a shared
    /// [`SimDisk`](cholcomm_faults::SimDisk) in the crash harness, or an
    /// [`FsStore`](cholcomm_faults::FsStore) on a real disk).  Each shard
    /// replays its journal at spawn — `cache_recovered` in the run's
    /// counters says how many committed factors survived — and
    /// journal-commits every fresh factor it caches.
    pub fn start_durable(
        config: ServiceConfig,
        plan: &FaultPlan,
        mut make_store: impl FnMut(usize) -> Box<dyn cholcomm_faults::Store + Send>,
    ) -> Service {
        Service::start_with(config, plan, |shard| {
            Some(DurableCache::open(shard, make_store(shard)))
        })
    }

    fn start_with(
        config: ServiceConfig,
        plan: &FaultPlan,
        mut make_durable: impl FnMut(usize) -> Option<DurableCache>,
    ) -> Service {
        assert!(config.shards >= 1, "need at least one shard");
        let mut senders = Vec::with_capacity(config.shards);
        let mut workers = Vec::with_capacity(config.shards);
        for shard_id in 0..config.shards {
            let (tx, rx) = unbounded();
            senders.push(tx);
            workers.push(Shard::spawn(
                shard_id,
                config.shard,
                plan.clone(),
                rx,
                make_durable(shard_id),
            ));
        }
        // Log the effective execution configuration once, under the
        // sentinel request id, so every replay certificate states what
        // kernel/parallelism/batching produced it.  The pool thread
        // count is recorded for operators but excluded from the
        // canonical encoding (machine-dependent, bit-inert).
        let events = vec![EventRecord {
            req: u64::MAX,
            seq: 0,
            event: Event::ServiceStarted {
                shards: config.shards,
                kernel: config.shard.kernel.name(),
                parallel: config.shard.parallel,
                batching: config.batch.enabled,
                pool_threads: rayon::current_num_threads(),
            },
        }];
        Service {
            config,
            senders,
            workers,
            gauges: vec![BacklogGauge::new(config.watermarks); config.shards],
            batcher: Batcher::new(config.batch),
            events,
            next_req: 0,
            submitted: 0,
        }
    }

    /// Home shard of a problem digest.
    fn route(&self, digest: u64) -> usize {
        (digest % self.senders.len() as u64) as usize
    }

    /// Submit one request; returns a [`Ticket`] to wait on.  Admission
    /// (including shedding) happens here, synchronously and
    /// deterministically; shed requests still travel to their shard so
    /// the degraded cache can try to rescue them before the typed
    /// refusal.
    pub fn submit(&mut self, request: Request) -> Ticket {
        let req_id = self.next_req;
        self.next_req += 1;
        self.submitted += 1;

        // Admission step zero: a shape whose storage cannot even be
        // addressed is refused at the front door with a typed error.
        // Such a request must never reach a shard — the allocation would
        // panic the worker — and `factor_cost_us` below would overflow
        // on it before the shard ever saw it.
        if let Err(e) = Matrix::<f64>::checked_len(request.n, request.n) {
            let (reply, rx) = unbounded();
            let _ = reply.send(Err(ServeError::Matrix(e)));
            return Ticket { req: req_id, rx };
        }

        let digest = problem_digest(request.kind, request.key, request.n);
        let shard = self.route(digest);
        // Admission charges batchable jobs their *amortized* cost — the
        // per-lane share of a batch, without the per-batch dispatch
        // constants — so a batched service doesn't over-shed traffic
        // its kernels can absorb.  Unbatchable jobs pay the full
        // per-request model as before.
        let batchable = self.batcher.takes(request.kind, request.n);
        let cost_us = if batchable {
            batched_request_cost_us(bucket_of(request.n), self.config.shard.block)
        } else {
            factor_cost_us(request.n, self.config.shard.block)
        };
        let admit = self.gauges[shard].offer(request.vtime_us, cost_us, request.class);

        let mut next_seq: u32 = 0;
        self.events.push(EventRecord {
            req: req_id,
            seq: next_seq,
            event: Event::Submitted {
                shard,
                vtime_us: request.vtime_us,
                kind: request.kind,
                key: request.key,
                n: request.n,
                class: request.class,
                cost_us,
                deadline_us: request.deadline_us,
            },
        });
        next_seq += 1;
        if let Admission::Shed {
            backlog_us,
            watermark_us,
        } = admit
        {
            self.events.push(EventRecord {
                req: req_id,
                seq: next_seq,
                event: Event::Shed {
                    backlog_us,
                    watermark_us,
                },
            });
            next_seq += 1;
        }

        let (reply, rx) = unbounded();
        let job = ShardJob {
            req_id,
            request,
            digest,
            admit,
            next_seq,
            submitted_at: Instant::now(),
            reply,
        };
        if batchable && matches!(admit, Admission::Admit { .. }) {
            // Admitted batchable work waits in its size bucket; shed
            // requests bypass the batcher so the degraded-cache rescue
            // (or the typed refusal) stays immediate.
            self.batcher.push(shard, job);
        } else {
            let _ = self.senders[shard].send(ShardMsg::One(Box::new(job)));
        }
        // Every submission advances virtual time, so every submission
        // can make a bucket due (full or aged out).
        for ready in self.batcher.due(request.vtime_us) {
            self.dispatch(ready);
        }
        Ticket { req: req_id, rx }
    }

    /// Send one released bucket to its home shard as a single unit.
    fn dispatch(&mut self, ready: ReadyBatch) {
        let _ = self.senders[ready.shard].send(ShardMsg::Batch {
            bucket_n: ready.bucket_n,
            released_us: ready.released_us,
            jobs: ready.jobs,
        });
    }

    /// Release every pending bucket immediately, regardless of fill or
    /// age.  Call this before waiting on outstanding [`Ticket`]s when no
    /// further submissions are coming — a ticket in an unreleased bucket
    /// never resolves on its own, because batch formation is driven by
    /// the (now silent) submission stream.  [`Service::shutdown`]
    /// flushes too, so drop-and-drain never strands a request.
    pub fn flush_batches(&mut self) {
        for ready in self.batcher.flush_all() {
            self.dispatch(ready);
        }
    }

    /// Submit and wait — the synchronous convenience path.  Flushes the
    /// batcher first: a lone synchronous caller must never deadlock
    /// waiting on a bucket that only its own future submissions could
    /// fill.
    pub fn call(&mut self, request: Request) -> Result<Response, ServeError> {
        let ticket = self.submit(request);
        self.flush_batches();
        ticket.wait()
    }

    /// Drain the shards and assemble the run's deterministic report.
    pub fn shutdown(mut self) -> ServiceReport {
        self.flush_batches();
        let Service {
            senders,
            workers,
            events,
            submitted,
            ..
        } = self;
        drop(senders); // disconnect: each shard drains its queue and exits
        let mut metrics = Metrics::default();
        // The client's stream first, then each shard's: the order in which
        // `merge_canonical` finds a request's events already sorted.
        let mut streams = vec![events];
        for worker in workers {
            match worker.join() {
                Ok(report) => {
                    streams.push(report.events);
                    metrics.merge(&report.metrics);
                }
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        metrics.counters.submitted = submitted;
        metrics.canonicalize();
        let records = merge_canonical(&streams);
        let digest = log_digest(&records);
        ServiceReport {
            records,
            log_digest: digest,
            metrics,
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::cache::CacheRead;
    use cholcomm_faults::{FaultPlan, JobFault};
    use cholcomm_matrix::{lower_digest, tri};

    fn request(kind: JobKind, key: u64, n: usize, vtime_us: u64) -> Request {
        Request {
            kind,
            key,
            n,
            class: Priority::Batch,
            vtime_us,
            deadline_us: u64::MAX / 2,
        }
    }

    /// Factor the request's problem directly (no service, no faults) and
    /// return the reference digest and solution.
    fn direct(kind: JobKind, key: u64, n: usize, block: usize, kernel: KernelImpl) -> (u64, Option<Vec<f64>>) {
        use crate::engine::{factor_resumable, Checkpoint, FactorOutcome, PanelControl};
        let problem = crate::jobs::build(kind, key, n);
        let factor = match factor_resumable(
            Checkpoint::fresh(problem.a),
            block,
            kernel,
            &mut |_, _| PanelControl::Continue,
        )
        .unwrap()
        {
            FactorOutcome::Done(m) => m,
            other => panic!("unexpected {other:?}"),
        };
        let solution = problem.rhs.map(|rhs| tri::solve_with_factor(&factor, &rhs));
        (lower_digest(&factor), solution)
    }

    #[test]
    fn clean_service_matches_direct_factorization_bit_for_bit() {
        let config = ServiceConfig {
            shards: 2,
            ..ServiceConfig::default()
        };
        let plan = FaultPlan::builder(1).build();
        let mut service = Service::start(config, &plan);
        for (i, kind) in JobKind::ALL.iter().enumerate() {
            let req = request(*kind, 10 + i as u64, 24, i as u64 * 50);
            let resp = service.call(req).unwrap();
            let (want_digest, want_solution) =
                direct(*kind, 10 + i as u64, 24, config.shard.block, config.shard.kernel);
            assert_eq!(resp.factor_digest, want_digest, "{kind:?}");
            assert_eq!(resp.solution, want_solution, "{kind:?}");
        }
        let report = service.shutdown();
        assert_eq!(report.metrics.counters.completed, 4);
        assert_eq!(report.metrics.counters.availability(), 1.0);
    }

    #[test]
    fn repeated_keys_hit_the_cache_with_identical_bits() {
        let plan = FaultPlan::builder(2).build();
        let mut service = Service::start(ServiceConfig::default(), &plan);
        let first = service
            .call(request(JobKind::Factor, 77, 32, 0))
            .unwrap();
        assert_eq!(first.source, Source::Fresh);
        let second = service
            .call(request(JobKind::Factor, 77, 32, 10_000))
            .unwrap();
        assert_eq!(second.source, Source::Cache);
        assert_eq!(second.factor_digest, first.factor_digest);
        let report = service.shutdown();
        assert_eq!(report.metrics.cache.hits, 1);
        assert_eq!(report.metrics.counters.fresh_factorizations, 1);
    }

    #[test]
    fn transient_faults_are_retried_to_a_bit_identical_answer() {
        let plan = FaultPlan::builder(3)
            .inject_job_fault(0, 1, JobFault::Transient)
            .inject_job_fault(0, 2, JobFault::Transient)
            .build();
        let mut service = Service::start(ServiceConfig::default(), &plan);
        let resp = service.call(request(JobKind::Solve, 5, 24, 0)).unwrap();
        let (want, _) = direct(JobKind::Solve, 5, 24, 16, KernelImpl::default());
        assert_eq!(resp.factor_digest, want);
        let report = service.shutdown();
        assert_eq!(report.metrics.counters.transient_faults, 2);
        assert_eq!(report.metrics.counters.completed, 1);
    }

    #[test]
    fn worker_crashes_are_supervised_and_resumed_from_checkpoint() {
        let plan = FaultPlan::builder(4)
            .inject_job_fault(0, 1, JobFault::Crash { panel: 1 })
            .build();
        let mut service = Service::start(ServiceConfig::default(), &plan);
        let resp = service.call(request(JobKind::Factor, 9, 48, 0)).unwrap();
        let (want, _) = direct(JobKind::Factor, 9, 48, 16, KernelImpl::default());
        assert_eq!(resp.factor_digest, want, "resumed factor must be bit-identical");
        let report = service.shutdown();
        assert_eq!(report.metrics.counters.worker_crashes, 1);
        assert_eq!(report.metrics.counters.worker_restarts, 1);
        // The restart event records resumption from the crash panel, not
        // from scratch.
        assert!(report.records.iter().any(|r| matches!(
            r.event,
            Event::WorkerRestarted { from_panel: 1, .. }
        )));
    }

    #[test]
    fn retries_exhausted_is_a_typed_refusal() {
        let mut builder = FaultPlan::builder(5);
        for attempt in 1..=8 {
            builder = builder.inject_job_fault(0, attempt, JobFault::Transient);
        }
        let plan = builder.build();
        let mut service = Service::start(ServiceConfig::default(), &plan);
        let err = service.call(request(JobKind::Factor, 1, 16, 0)).unwrap_err();
        assert!(matches!(err, ServeError::RetriesExhausted { attempts: 4 }));
        let report = service.shutdown();
        assert_eq!(report.metrics.counters.completed, 0);
    }

    #[test]
    fn deadline_cancels_at_a_panel_boundary_with_a_typed_error() {
        let plan = FaultPlan::builder(6).build();
        let mut service = Service::start(ServiceConfig::default(), &plan);
        let mut req = request(JobKind::Factor, 2, 64, 0);
        req.deadline_us = 1; // far below the modelled factorization cost
        let err = service.call(req).unwrap_err();
        let ServeError::DeadlineExceeded { elapsed_us, budget_us, .. } = err else {
            panic!("expected deadline error, got {err}");
        };
        assert!(elapsed_us >= budget_us);
        let report = service.shutdown();
        assert_eq!(report.metrics.counters.deadline_canceled, 1);
    }

    #[test]
    fn overload_sheds_with_typed_refusals_or_degraded_cache() {
        let config = ServiceConfig {
            shards: 1,
            watermarks: Watermarks::bounded_by(40),
            ..ServiceConfig::default()
        };
        let plan = FaultPlan::builder(7).build();
        let mut service = Service::start(config, &plan);

        // Warm the cache for one popular key.
        let warm = service.call(request(JobKind::Factor, 1, 64, 0)).unwrap();

        // A burst at one virtual instant: backlog blows past every
        // watermark after the first admit.
        let mut shed_errors = 0;
        let mut degraded = 0;
        let tickets: Vec<Ticket> = (0..6)
            .map(|i| {
                // Alternate the cached key with cold keys.
                let key = if i % 2 == 0 { 1 } else { 100 + i };
                service.submit(request(JobKind::Factor, key, 64, 50_000))
            })
            .collect();
        for ticket in tickets {
            match ticket.wait() {
                Ok(resp) if resp.source == Source::DegradedCache => {
                    degraded += 1;
                    assert_eq!(resp.factor_digest, warm.factor_digest);
                }
                Ok(_) => {}
                Err(e) => {
                    assert!(
                        matches!(e, ServeError::ShedOverload { .. }),
                        "refusals under burst must be typed sheds, got {e}"
                    );
                    shed_errors += 1;
                }
            }
        }
        assert!(shed_errors > 0, "burst must shed loudly");
        assert!(degraded > 0, "popular key must be rescued from cache");
        let report = service.shutdown();
        assert_eq!(report.metrics.counters.shed_overload, shed_errors);
        assert_eq!(report.metrics.counters.degraded_served, degraded);
        assert!(report.metrics.counters.availability() < 1.0);
    }

    #[test]
    fn cache_corruption_is_healed_or_evicted_never_served_wrong() {
        // Request 1 re-reads key 4's cached factor with a single bit flip
        // (healed); request 2 re-reads it with two flips (unrecoverable).
        let plan = FaultPlan::builder(8)
            .inject_cache_flip(1, (2, 1), 1 << 30)
            .inject_cache_flip(2, (0, 0), 1)
            .inject_cache_flip(2, (5, 3), 1 << 60)
            .build();
        let mut service = Service::start(
            ServiceConfig {
                shards: 1,
                ..ServiceConfig::default()
            },
            &plan,
        );
        let (want_digest, want_solution) = direct(JobKind::Solve, 4, 24, 16, KernelImpl::default());
        let fresh = service.call(request(JobKind::Solve, 4, 24, 0)).unwrap();
        assert_eq!(fresh.factor_digest, want_digest);
        let healed = service.call(request(JobKind::Solve, 4, 24, 10_000)).unwrap();
        assert_eq!(healed.source, Source::Cache);
        assert_eq!(healed.factor_digest, want_digest, "healed read must be bit-exact");
        assert_eq!(healed.solution, want_solution, "solved through the healed factor");
        // Two flips: the entry is evicted and the job re-factors fresh.
        let refetched = service.call(request(JobKind::Solve, 4, 24, 20_000)).unwrap();
        assert_eq!(refetched.source, Source::Fresh);
        assert_eq!(refetched.factor_digest, want_digest);
        assert_eq!(refetched.solution, want_solution);
        let report = service.shutdown();
        assert_eq!(report.metrics.cache.healed, 1);
        assert_eq!(report.metrics.cache.corrupt_evictions, 1);
        // The healed read built nothing; the evicted one built again.
        assert_eq!(report.metrics.counters.problems_built, 2);
        assert!(report.records.iter().any(|r| matches!(
            r.event,
            Event::CacheRead { read: CacheRead::Corrupt, .. }
        )));
    }

    #[test]
    fn a_clean_stream_builds_one_problem_per_factorization() {
        let stream = crate::loadgen::Workload {
            requests: 200,
            deadline_factor: 1_000_000,
            ..crate::loadgen::Workload::default()
        }
        .generate();
        for batching in [false, true] {
            let config = ServiceConfig {
                shards: 2,
                watermarks: Watermarks::bounded_by(u64::MAX / 4),
                batch: BatchConfig {
                    enabled: batching,
                    ..BatchConfig::default()
                },
                ..ServiceConfig::default()
            };
            let mut service = Service::start(config, &FaultPlan::none());
            let tickets: Vec<Ticket> = stream.iter().map(|r| service.submit(*r)).collect();
            service.flush_batches();
            for (ticket, r) in tickets.into_iter().zip(&stream) {
                let resp = ticket.wait().unwrap();
                let (want_digest, want_solution) =
                    direct(r.kind, r.key, r.n, config.shard.block, config.shard.kernel);
                assert_eq!(resp.factor_digest, want_digest);
                assert_eq!(resp.solution, want_solution, "{:?} from {:?}", r.kind, resp.source);
            }
            let report = service.shutdown();
            let c = report.metrics.counters;
            assert_eq!(c.completed, 200);
            assert_eq!(c.batched_factorizations > 0, batching);
            assert!(report.metrics.cache.hits > 0, "hot keys repeat");
            assert_eq!(
                c.problems_built,
                c.fresh_factorizations + c.batched_factorizations,
                "batching={batching}"
            );
        }
    }

    /// The digests a batch computes in lanes are the ones the
    /// per-request path computes one at a time, and neither leg's event
    /// log moves by a byte: both `log_digest`s were pinned on the commit
    /// before batches digested their factors together and before
    /// `log_digest` stopped going through `fmt`.
    #[test]
    fn batching_changes_no_factor_digest_and_neither_leg_changes_its_log() {
        let mut stream = crate::loadgen::Workload {
            seed: 23,
            requests: 400,
            keys: 40,
            n_min: 8,
            n_max: 40,
            mean_gap_us: 2,
            deadline_factor: 1_000_000,
            ..crate::loadgen::Workload::default()
        }
        .generate();
        for (i, r) in stream.iter_mut().enumerate() {
            if i % 4 != 3 {
                // Mostly the batchable kinds; the rest stay per-request.
                r.kind = [JobKind::Factor, JobKind::Solve][i % 2];
            }
        }
        let run = |batching: bool| {
            let config = ServiceConfig {
                shards: 2,
                watermarks: Watermarks::bounded_by(u64::MAX / 4),
                shard: ShardConfig {
                    cache_capacity: 8,
                    ..ServiceConfig::default().shard
                },
                batch: BatchConfig {
                    enabled: batching,
                    ..BatchConfig::default()
                },
            };
            let mut service = Service::start(config, &FaultPlan::none());
            let tickets: Vec<Ticket> = stream.iter().map(|r| service.submit(*r)).collect();
            service.flush_batches();
            let digests: Vec<u64> = tickets
                .into_iter()
                .map(|t| t.wait().unwrap().factor_digest)
                .collect();
            (digests, service.shutdown())
        };
        let (batched, batched_report) = run(true);
        let (single, single_report) = run(false);
        assert_eq!(batched, single);
        assert!(batched_report.metrics.counters.batched_factorizations > 100);
        assert!(batched_report.metrics.counters.fresh_factorizations > 0);
        assert_eq!(single_report.metrics.counters.batched_factorizations, 0);
        assert_eq!(batched_report.log_digest, 0xf855_c91a_ea8f_c2d9);
        assert_eq!(single_report.log_digest, 0x91ba_fda2_5800_13e5);
    }

    #[test]
    fn a_stream_of_pure_hits_builds_nothing() {
        // Warm six keys, then read each of them twenty times more: the
        // longer run builds exactly what the warm-up alone builds.
        let run = |rounds: u64| {
            let mut service = Service::start(ServiceConfig::default(), &FaultPlan::none());
            for round in 0..rounds {
                for key in 0..6 {
                    let kind = JobKind::ALL[key as usize % 4];
                    let resp = service
                        .call(request(kind, key, 24, round * 1_000 + key))
                        .unwrap();
                    let (want_digest, want_solution) =
                        direct(kind, key, 24, 16, KernelImpl::default());
                    assert_eq!(resp.source == Source::Cache, round > 0);
                    assert_eq!(resp.factor_digest, want_digest);
                    assert_eq!(resp.solution, want_solution);
                }
            }
            service.shutdown().metrics
        };
        let (warm, hot) = (run(1), run(21));
        assert_eq!(warm.counters.problems_built, 6);
        assert_eq!(hot.counters.problems_built, 6);
        assert_eq!(hot.counters.fresh_factorizations, 6);
        assert_eq!(hot.cache.hits, 120);
    }

    #[test]
    fn power_cut_between_processes_recovers_committed_cache_entries() {
        use cholcomm_faults::{SimDisk, SimStore, DEFAULT_SECTOR};
        use std::sync::{Arc, Mutex};

        let disk = Arc::new(Mutex::new(SimDisk::new(DEFAULT_SECTOR)));
        let plan = FaultPlan::builder(12).build();
        let config = ServiceConfig {
            shards: 1,
            ..ServiceConfig::default()
        };

        // Process 1 factors a key fresh and journal-commits it.
        let mut service = Service::start_durable(config, &plan, |_| {
            Box::new(SimStore::new(Arc::clone(&disk)))
        });
        let first = service.call(request(JobKind::Factor, 42, 32, 0)).unwrap();
        assert_eq!(first.source, Source::Fresh);
        let report = service.shutdown();
        assert_eq!(report.metrics.counters.cache_recovered, 0);

        // Power cut: everything un-barriered vanishes.  The commit
        // protocol barriered the entry before its commit record, so the
        // committed factor must survive.
        disk.lock().unwrap().power_cut();

        // Process 2 replays the journal and serves the repeat from the
        // recovered cache, bit-identically — no refactorization.
        let mut service = Service::start_durable(config, &plan, |_| {
            Box::new(SimStore::new(Arc::clone(&disk)))
        });
        let resp = service.call(request(JobKind::Factor, 42, 32, 0)).unwrap();
        assert_eq!(resp.source, Source::Cache);
        assert_eq!(resp.factor_digest, first.factor_digest);
        let report = service.shutdown();
        assert_eq!(report.metrics.counters.cache_recovered, 1);
        assert_eq!(report.metrics.counters.fresh_factorizations, 0);
    }

    #[test]
    fn an_unreadable_journal_adopts_nothing_deletes_nothing_and_stops_journaling() {
        use cholcomm_faults::{SimDisk, SimStore, Store, DEFAULT_SECTOR};
        use std::sync::{Arc, Mutex};

        /// Reads fail, as EIO or EACCES would on `FsStore`.
        struct ReadFails(SimStore);
        impl Store for ReadFails {
            fn read(&self, name: &str) -> std::io::Result<Vec<u8>> {
                Err(std::io::Error::other(format!("EIO reading {name}")))
            }
            fn exists(&self, name: &str) -> bool {
                self.0.exists(name)
            }
            fn write_file(&mut self, name: &str, bytes: &[u8]) -> std::io::Result<()> {
                self.0.write_file(name, bytes)
            }
            fn append(&mut self, name: &str, bytes: &[u8]) -> std::io::Result<()> {
                self.0.append(name, bytes)
            }
            fn remove(&mut self, name: &str) -> std::io::Result<()> {
                self.0.remove(name)
            }
            fn list_prefix(&self, prefix: &str) -> std::io::Result<Vec<String>> {
                self.0.list_prefix(prefix)
            }
            fn barrier(&mut self) -> std::io::Result<()> {
                self.0.barrier()
            }
        }

        let disk = Arc::new(Mutex::new(SimDisk::new(DEFAULT_SECTOR)));
        let config = ServiceConfig {
            shards: 1,
            ..ServiceConfig::default()
        };
        let sim = || SimStore::new(Arc::clone(&disk));
        let mut service = Service::start_durable(config, &FaultPlan::none(), |_| Box::new(sim()));
        let first = service.call(request(JobKind::Factor, 42, 32, 0)).unwrap();
        assert_eq!(service.shutdown().metrics.counters.journal_unreadable, 0);
        let ops = disk.lock().unwrap().schedule().len();

        // The journal exists but cannot be read: the shard still serves
        // (fresh), but adopts nothing and writes or deletes nothing.
        let mut service =
            Service::start_durable(config, &FaultPlan::none(), |_| Box::new(ReadFails(sim())));
        let resp = service.call(request(JobKind::Factor, 42, 32, 0)).unwrap();
        assert_eq!(resp.source, Source::Fresh);
        assert_eq!(resp.factor_digest, first.factor_digest);
        let counters = service.shutdown().metrics.counters;
        assert_eq!(counters.journal_unreadable, 1);
        assert_eq!(counters.cache_recovered, 0);
        assert_eq!(disk.lock().unwrap().schedule().len(), ops, "no disk op issued");

        // Once the journal reads again, the committed entry is intact.
        let mut service = Service::start_durable(config, &FaultPlan::none(), |_| Box::new(sim()));
        let resp = service.call(request(JobKind::Factor, 42, 32, 0)).unwrap();
        assert_eq!(resp.source, Source::Cache);
        let counters = service.shutdown().metrics.counters;
        assert_eq!((counters.cache_recovered, counters.journal_unreadable), (1, 0));
    }

    #[test]
    fn a_recovered_solve_entry_builds_its_rhs_exactly_once() {
        use cholcomm_faults::{SimDisk, SimStore, DEFAULT_SECTOR};
        use std::sync::{Arc, Mutex};

        let disk = Arc::new(Mutex::new(SimDisk::new(DEFAULT_SECTOR)));
        let config = ServiceConfig {
            shards: 1,
            ..ServiceConfig::default()
        };
        let start = || {
            Service::start_durable(config, &FaultPlan::none(), |_| {
                Box::new(SimStore::new(Arc::clone(&disk)))
            })
        };
        let (want_digest, want_solution) = direct(JobKind::Solve, 42, 32, 16, KernelImpl::default());

        let mut service = start();
        let first = service.call(request(JobKind::Solve, 42, 32, 0)).unwrap();
        assert_eq!(first.solution, want_solution);
        assert_eq!(service.shutdown().metrics.counters.problems_built, 1);

        // The journal holds the factor only.  The restarted shard serves
        // every repeat from it and builds the problem once, for the
        // right-hand side, on the first.
        let mut service = start();
        for round in 0..4 {
            let resp = service.call(request(JobKind::Solve, 42, 32, round)).unwrap();
            assert_eq!(resp.source, Source::Cache);
            assert_eq!(resp.factor_digest, want_digest);
            assert_eq!(resp.solution, want_solution);
        }
        let counters = service.shutdown().metrics.counters;
        assert_eq!(counters.cache_recovered, 1);
        assert_eq!(counters.fresh_factorizations, 0);
        assert_eq!(counters.problems_built, 1);
    }

    #[test]
    fn oversized_shapes_are_shed_at_the_front_door_not_crashed_in_a_shard() {
        let plan = FaultPlan::builder(13).build();
        let mut service = Service::start(ServiceConfig::default(), &plan);

        // A shape whose element count overflows `usize` must come back
        // as a typed refusal without ever reaching a shard.
        let err = service
            .call(request(JobKind::Factor, 1, usize::MAX / 2, 0))
            .unwrap_err();
        assert!(
            matches!(
                err,
                ServeError::Matrix(cholcomm_matrix::MatrixError::TooLarge { .. })
            ),
            "want TooLarge refusal, got {err}"
        );

        // The service stays healthy: a normal request afterwards is
        // served bit-identically to a direct factorization.
        let resp = service.call(request(JobKind::Factor, 2, 24, 100)).unwrap();
        let (want, _) = direct(JobKind::Factor, 2, 24, 16, KernelImpl::default());
        assert_eq!(resp.factor_digest, want);
        let report = service.shutdown();
        assert_eq!(report.metrics.counters.completed, 1);
        assert_eq!(report.metrics.counters.submitted, 2);
    }

    #[test]
    fn parallel_shards_serve_bit_identical_factors() {
        let plan = FaultPlan::builder(14).build();
        let mut config = ServiceConfig::default();
        config.shard.parallel = true;
        let mut service = Service::start(config, &plan);
        for (i, kind) in JobKind::ALL.iter().enumerate() {
            let req = request(*kind, 30 + i as u64, 40, i as u64 * 50);
            let resp = service.call(req).unwrap();
            let (want_digest, want_solution) =
                direct(*kind, 30 + i as u64, 40, config.shard.block, config.shard.kernel);
            assert_eq!(resp.factor_digest, want_digest, "{kind:?}");
            assert_eq!(resp.solution, want_solution, "{kind:?}");
        }
        service.shutdown();
    }

    #[test]
    fn identical_runs_produce_identical_reports() {
        let run = || {
            let plan = FaultPlan::builder(11)
                .job_transient_rate(0.2)
                .worker_crash_rate(0.1)
                .build();
            let mut service = Service::start(ServiceConfig::default(), &plan);
            let tickets: Vec<Ticket> = (0..20)
                .map(|i| {
                    service.submit(request(
                        JobKind::ALL[i % 4],
                        i as u64 % 5,
                        16 + 8 * (i % 3),
                        i as u64 * 100,
                    ))
                })
                .collect();
            for t in tickets {
                let _ = t.wait();
            }
            service.shutdown()
        };
        let one = run();
        let two = run();
        assert_eq!(one.log_digest, two.log_digest);
        assert_eq!(one.metrics.counters, two.metrics.counters);
        assert_eq!(one.metrics.virt_latency_us, two.metrics.virt_latency_us);
    }
}
