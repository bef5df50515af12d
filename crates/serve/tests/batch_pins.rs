//! Pins of the batched path, captured before `factor_batch` stopped
//! packing lanes: a `serve_small`-shaped stream (Factor/Solve
//! alternating, Zipf keys, orders 8/16/24, batching on, cache off),
//! shrunk to 2 000 requests, under `FastStrict` and `Fast`, with kernel
//! parallelism off and on pools of 1 and 4 workers.
//!
//! For every configuration the pins hold the canonical log digest, one
//! digest over every response (request id, source, factor digest,
//! virtual latency, or the refusal), and the counters.  A second pin
//! feeds the stream's own buckets straight to `factor_batch` with one
//! indefinite member among them, and digests every member's result.
//!
//! The values are the bits the lane-interleaved batch kernel produced;
//! the per-request engine must reproduce them exactly.

use cholcomm_faults::FaultPlan;
use cholcomm_matrix::digest::{fnv1a, fnv1a_update};
use cholcomm_matrix::{lower_digest, parallel, KernelImpl, Matrix, MatrixError};
use cholcomm_serve::{
    bucket_of, build, factor_batch, BatchConfig, Counters, JobKind, Request, Service,
    ServiceConfig, ShardConfig, Watermarks, Workload,
};
use rayon::ThreadPoolBuilder;

const REQUESTS: usize = 2_000;
const IN_FLIGHT: usize = 256;
const BLOCK: usize = 16;

/// `serve_small`'s stream at seed 1, shrunk.
fn stream() -> Vec<Request> {
    let mut requests = Workload {
        seed: 1,
        requests: REQUESTS,
        keys: 256,
        zipf_s: 1.1,
        n_min: 8,
        n_max: 32,
        mean_gap_us: 1,
        burst_every: 64,
        burst_len: 16,
        deadline_factor: 1_000_000,
    }
    .generate();
    for (i, r) in requests.iter_mut().enumerate() {
        r.key += 1 << 20;
        r.kind = if i % 2 == 0 { JobKind::Factor } else { JobKind::Solve };
    }
    requests
}

fn config(kernel: KernelImpl, parallel: bool) -> ServiceConfig {
    let base = ServiceConfig::default();
    ServiceConfig {
        shards: 2,
        watermarks: Watermarks::bounded_by(1_000_000_000),
        shard: ShardConfig {
            kernel,
            cache_capacity: 0,
            parallel,
            ..base.shard
        },
        batch: BatchConfig {
            enabled: true,
            ..BatchConfig::default()
        },
    }
}

fn fold(h: u64, words: &[u64]) -> u64 {
    words.iter().fold(h, |h, w| fnv1a_update(h, &w.to_le_bytes()))
}

/// Closed-loop waves, as `serve_small` drives them: `(log digest,
/// response digest, counters)`.
fn serve(requests: &[Request], config: ServiceConfig) -> (u64, u64, Counters) {
    let mut service = Service::start(config, &FaultPlan::none());
    let mut responses = fnv1a(b"");
    for wave in requests.chunks(IN_FLIGHT) {
        let tickets: Vec<_> = wave.iter().map(|r| service.submit(*r)).collect();
        service.flush_batches();
        for ticket in tickets {
            let req = ticket.req;
            responses = match ticket.wait() {
                Ok(r) => fold(
                    responses,
                    &[req, r.source as u64, r.factor_digest, r.virt_latency_us],
                ),
                Err(e) => fnv1a_update(fold(responses, &[req]), e.to_string().as_bytes()),
            };
        }
    }
    let report = service.shutdown();
    (report.log_digest, responses, report.metrics.counters)
}

/// One digest over `factor_batch`'s results, member by member.
fn results_digest(results: &[Result<Matrix<f64>, MatrixError>]) -> u64 {
    results.iter().fold(fnv1a(b""), |h, r| match r {
        Ok(l) => fold(h, &[0, l.rows() as u64, lower_digest(l)]),
        Err(MatrixError::NotSpd { pivot, value }) => fold(h, &[1, *pivot as u64, value.to_bits()]),
        Err(e) => panic!("unexpected {e}"),
    })
}

/// The stream's distinct problems, bucketed as the batcher buckets
/// them, with member 5 of the order-16 bucket made indefinite.  Each
/// bucket goes to `factor_batch` whole.
fn direct_batches(requests: &[Request], kernel: KernelImpl) -> u64 {
    let mut buckets: Vec<(usize, Vec<Matrix<f64>>)> = Vec::new();
    for r in requests.iter().take(600) {
        let bucket_n = bucket_of(r.n);
        let at = match buckets.iter().position(|(b, _)| *b == bucket_n) {
            Some(at) => at,
            None => {
                buckets.push((bucket_n, Vec::new()));
                buckets.len() - 1
            }
        };
        buckets[at].1.push(build(r.kind, r.key, r.n).a);
    }
    buckets.sort_by_key(|(b, _)| *b);
    let (_, sixteen) = buckets
        .iter_mut()
        .find(|(b, _)| *b == 16)
        .expect("the stream has order-16 members");
    sixteen[5][(9, 9)] = -1e6;
    buckets.iter().fold(fnv1a(b""), |h, (bucket_n, members)| {
        let got = results_digest(&factor_batch(members, *bucket_n, BLOCK, kernel));
        fold(h, &[*bucket_n as u64, members.len() as u64, got])
    })
}

fn on_pool<R: Send>(threads: usize, f: impl FnOnce() -> R + Send) -> R {
    ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool")
        .install(f)
}

/// What every configuration counts: nothing is shed, refused or
/// cached, and every request is one lane of one of 86 batches.
const COUNTERS: Counters = Counters {
    submitted: 2_000,
    completed: 2_000,
    shed_overload: 0,
    breaker_refused: 0,
    deadline_canceled: 0,
    failed: 0,
    degraded_served: 0,
    fresh_factorizations: 0,
    transient_faults: 0,
    worker_crashes: 0,
    worker_restarts: 0,
    breaker_transitions: 0,
    cache_recovered: 0,
    journal_unreadable: 0,
    batches_dispatched: 86,
    batched_factorizations: 2_000,
    problems_built: 2_000,
};

/// `(kernel, pool size or None for parallelism off, log digest,
/// response digest)`.
type ServedPin = (KernelImpl, Option<usize>, u64, u64);

const SERVED: [ServedPin; 6] = [
    (KernelImpl::FastStrict, None, 0x6730_f0e6_7864_487d, 0x6742_ada6_4a16_1c81),
    (KernelImpl::FastStrict, Some(1), 0x74e4_0013_663f_60c6, 0x6742_ada6_4a16_1c81),
    (KernelImpl::FastStrict, Some(4), 0x74e4_0013_663f_60c6, 0x6742_ada6_4a16_1c81),
    (KernelImpl::Fast, None, 0xe003_7f6e_b406_74c3, 0xfd1a_3834_f33d_1935),
    (KernelImpl::Fast, Some(1), 0x3ed4_27a2_e0d8_3734, 0xfd1a_3834_f33d_1935),
    (KernelImpl::Fast, Some(4), 0x3ed4_27a2_e0d8_3734, 0xfd1a_3834_f33d_1935),
];

#[test]
fn the_batched_stream_keeps_its_pinned_bits() {
    let requests = stream();
    let got: Vec<(ServedPin, Counters)> = SERVED
        .iter()
        .map(|&(kernel, pool, ..)| {
            let (log, responses, counters) = match pool {
                None => serve(&requests, config(kernel, false)),
                Some(threads) => on_pool(threads, || serve(&requests, config(kernel, true))),
            };
            ((kernel, pool, log, responses), counters)
        })
        .collect();
    for ((kernel, pool, log, responses), counters) in &got {
        println!("({kernel:?}, {pool:?}, {log:#018x}, {responses:#018x}) {counters:?}");
    }
    for (want, (got, counters)) in SERVED.iter().zip(&got) {
        assert_eq!(got, want, "(kernel, pool, log digest, response digest)");
        assert_eq!(*counters, COUNTERS, "{:?} pool {:?}: counters", want.0, want.1);
    }
}

/// `(kernel, pool size or None, digest of every bucket's results)`.
const DIRECT: [(KernelImpl, Option<usize>, u64); 6] = [
    (KernelImpl::FastStrict, None, 0x6e60_fcd2_7054_b474),
    (KernelImpl::FastStrict, Some(1), 0x6e60_fcd2_7054_b474),
    (KernelImpl::FastStrict, Some(4), 0x6e60_fcd2_7054_b474),
    (KernelImpl::Fast, None, 0xce64_0673_8abc_b990),
    (KernelImpl::Fast, Some(1), 0xce64_0673_8abc_b990),
    (KernelImpl::Fast, Some(4), 0xce64_0673_8abc_b990),
];

#[test]
fn direct_batches_with_an_indefinite_member_keep_their_pinned_bits() {
    let requests = stream();
    let got: Vec<(KernelImpl, Option<usize>, u64)> = DIRECT
        .iter()
        .map(|&(kernel, pool, _)| {
            let got = match pool {
                None => direct_batches(&requests, kernel),
                Some(threads) => on_pool(threads, || {
                    let prev = parallel::set_kernel_parallelism(true);
                    let got = direct_batches(&requests, kernel);
                    parallel::set_kernel_parallelism(prev);
                    got
                }),
            };
            (kernel, pool, got)
        })
        .collect();
    for (kernel, pool, digest) in &got {
        println!("({kernel:?}, {pool:?}, {digest:#018x})");
    }
    assert_eq!(got, DIRECT, "(kernel, pool, results digest)");
}
