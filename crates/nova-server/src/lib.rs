//! Compilation as a service: a multi-client batch compile server over a
//! shared [`nova::Compiler`] session.
//!
//! A [`Server`] owns a pool of worker threads that all hold clones of
//! one compile session, so the session's two caches (the whole-image
//! cache and the immediate-masked MILP allocation cache — see
//! [`nova::Compiler`]) are shared across every client: after one client
//! compiles a rule set, every other client's variants of it are
//! solve-free or full cache hits.
//!
//! Requests go in as batches ([`Server::submit_batch`]); responses come
//! back **in request order** regardless of which worker finished first
//! or fastest, so a batch's results are deterministic and positionally
//! addressable. Failures are first-class responses (the session caches
//! them like successes), not transport errors.
//!
//! The serving layer is hardened against its own failure modes, and
//! reports every one of them as a structured [`CompileError`] with
//! `phase == Phase::Service` rather than a hang or a crash:
//!
//! - **Worker panics** are caught at the job boundary, retried with
//!   bounded exponential backoff ([`ServerConfig::retries`],
//!   [`ServerConfig::retry_backoff`]), and surface as an `E-PANIC`
//!   response if they persist. A panicking compile never takes down the
//!   batch or wedges the queue.
//! - **Per-request deadlines** ([`ServerConfig::deadline`]) are checked
//!   when a worker dequeues a job and again before every retry sleep;
//!   expired requests answer `E-DEADLINE` without compiling.
//! - **Admission control** ([`ServerConfig::queue_limit`]) bounds the
//!   number of outstanding requests; excess load is shed at submission
//!   with an immediate `E-OVERLOAD` response instead of unbounded
//!   queueing.
//!
//! The server is deliberately synchronous — plain threads and channels,
//! no async runtime — matching the repository's no-new-dependencies
//! constraint and keeping the worker loop trivially auditable.

#![warn(missing_docs)]

use nova::{
    CacheStats, CompileConfig, CompileError, CompileOutput, CompileReport, Compiler, Phase, Summary,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server construction knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads. `0` picks the machine's available parallelism.
    pub workers: usize,
    /// Compile configuration shared by every worker's session clone.
    pub compile: CompileConfig,
    /// Per-request service deadline, measured from batch submission.
    /// A request that is still queued (or between retries) when its
    /// deadline passes answers with an `E-DEADLINE` service error
    /// instead of compiling. `None` disables the deadline.
    pub deadline: Option<Duration>,
    /// How many times a request whose compile **panicked** is retried
    /// before the panic is reported as an `E-PANIC` service error.
    /// Compile *errors* are never retried — they are deterministic,
    /// cached diagnostics, not transient faults.
    pub retries: u32,
    /// Backoff before the first retry; doubles on each subsequent
    /// retry (bounded exponential backoff).
    pub retry_backoff: Duration,
    /// Maximum number of admitted-but-unanswered requests across all
    /// in-flight batches. Submissions beyond the limit are shed with an
    /// immediate `E-OVERLOAD` response. `0` means unbounded.
    pub queue_limit: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 0,
            compile: CompileConfig::default(),
            deadline: None,
            retries: 2,
            retry_backoff: Duration::from_millis(1),
            queue_limit: 0,
        }
    }
}

/// One compile request: a client tag (echoed back, never interpreted)
/// plus the source text to compile.
#[derive(Debug, Clone)]
pub struct CompileRequest {
    /// Client-chosen identifier, echoed in the response.
    pub id: u64,
    /// Nova source text.
    pub source: String,
}

impl CompileRequest {
    /// Convenience constructor.
    pub fn new(id: u64, source: impl Into<String>) -> Self {
        CompileRequest {
            id,
            source: source.into(),
        }
    }
}

/// One compile response: the request's echoed id, the result, and the
/// wall-clock service latency of this request on its worker.
#[derive(Debug, Clone)]
pub struct CompileResponse {
    /// The request's `id`, echoed.
    pub id: u64,
    /// The compile result. Errors are cached, structured diagnostics —
    /// resubmitting the same broken source returns the same error.
    /// Serving-layer failures (panic, deadline, overload) come back as
    /// errors with `phase == Phase::Service`.
    pub result: Result<CompileOutput, CompileError>,
    /// Aggregated trace of what actually ran for this request (near
    /// empty on a whole-image cache hit). `None` when the compile failed
    /// before producing a report.
    pub trace: Option<Summary>,
    /// Wall-clock time this request spent compiling on its worker
    /// (zero when it never reached a compile: shed or expired).
    pub latency: Duration,
}

/// A queued unit of work: batch-local index + request + reply channel.
struct Job {
    index: usize,
    request: CompileRequest,
    /// When the request was admitted; deadlines are measured from here.
    admitted: Instant,
    reply: Sender<(usize, CompileResponse)>,
}

/// The compile function workers invoke per request. The indirection is
/// the fault-injection seam: tests swap in hooks that panic or stall to
/// exercise the retry/deadline/shedding paths without touching nova.
type CompileHook =
    Arc<dyn Fn(&Compiler, &str) -> Result<CompileReport, CompileError> + Send + Sync>;

/// Per-worker serving policy, shared by every worker thread.
struct ServicePolicy {
    compile: CompileHook,
    deadline: Option<Duration>,
    retries: u32,
    retry_backoff: Duration,
    /// Admitted-but-unanswered requests, decremented after the reply.
    pending: Arc<AtomicUsize>,
}

fn service_error(code: &'static str, message: String) -> CompileError {
    CompileError {
        phase: Phase::Service,
        code,
        span: None,
        message,
    }
}

/// A batch compile server: worker threads draining a shared queue, each
/// holding a clone of one cached compile session.
///
/// Dropping the server closes the queue and joins every worker.
pub struct Server {
    session: Compiler,
    queue: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
    obs: nova_obs::Obs,
    pending: Arc<AtomicUsize>,
    queue_limit: usize,
}

impl Server {
    /// Spin up the worker pool.
    pub fn new(config: ServerConfig) -> Self {
        Server::with_observer(config, nova_obs::Obs::noop())
    }

    /// [`Server::new`] with a server-level observability handle:
    /// `server.requests`, `server.batches` counters and a
    /// `server.latency_us` sample per request land on it, along with
    /// `server.panics`, `server.retries`, `server.deadline_drops` and
    /// `server.overload_sheds` fault counters (compile-phase telemetry
    /// goes to the compile config's own observer as usual).
    pub fn with_observer(config: ServerConfig, obs: nova_obs::Obs) -> Self {
        Server::with_hook(
            config,
            obs,
            Arc::new(|s: &Compiler, src: &str| s.compile(src)),
        )
    }

    /// Full constructor with an injectable compile hook (the
    /// fault-injection seam used by the hardening tests).
    fn with_hook(config: ServerConfig, obs: nova_obs::Obs, hook: CompileHook) -> Self {
        let n = if config.workers == 0 {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        } else {
            config.workers
        };
        let session = Compiler::new(config.compile);
        let pending = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..n)
            .map(|i| {
                let rx = Arc::clone(&rx);
                let session = session.clone();
                let obs = obs.clone();
                let policy = ServicePolicy {
                    compile: Arc::clone(&hook),
                    deadline: config.deadline,
                    retries: config.retries,
                    retry_backoff: config.retry_backoff,
                    pending: Arc::clone(&pending),
                };
                std::thread::Builder::new()
                    .name(format!("nova-server-{i}"))
                    .spawn(move || worker_loop(&rx, &session, &obs, &policy))
                    .expect("spawn nova-server worker")
            })
            .collect();
        Server {
            session,
            queue: Some(tx),
            workers,
            obs,
            pending,
            queue_limit: config.queue_limit,
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Snapshot of the shared session's cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.session.cache_stats()
    }

    /// Compile one request on the calling thread's behalf (a batch of
    /// one).
    pub fn submit(&self, request: CompileRequest) -> CompileResponse {
        self.submit_batch(vec![request])
            .into_iter()
            .next()
            .expect("one response per request")
    }

    /// Try to reserve an admission slot; `false` means shed this
    /// request. The counter is released by the worker after it replies.
    fn admit(&self) -> bool {
        if self.queue_limit == 0 {
            self.pending.fetch_add(1, Ordering::Relaxed);
            return true;
        }
        let mut cur = self.pending.load(Ordering::Relaxed);
        loop {
            if cur >= self.queue_limit {
                return false;
            }
            match self.pending.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(now) => cur = now,
            }
        }
    }

    /// Submit a batch and block until every response is in. Responses
    /// are returned **in request order** (deterministic regardless of
    /// worker scheduling), one per request — including for requests the
    /// serving layer itself failed (shed, expired, panicked): those come
    /// back as `Phase::Service` errors, never as a hang or a panic.
    pub fn submit_batch(&self, requests: Vec<CompileRequest>) -> Vec<CompileResponse> {
        let n = requests.len();
        if n == 0 {
            return Vec::new();
        }
        self.obs.counter("server.batches", 1);
        self.obs.counter("server.requests", n as u64);
        let queue = self.queue.as_ref().expect("queue open while server lives");
        let ids: Vec<u64> = requests.iter().map(|r| r.id).collect();
        let (reply_tx, reply_rx) = channel::<(usize, CompileResponse)>();
        let mut slots: Vec<Option<CompileResponse>> = (0..n).map(|_| None).collect();
        for (index, request) in requests.into_iter().enumerate() {
            if !self.admit() {
                self.obs.counter("server.overload_sheds", 1);
                slots[index] = Some(CompileResponse {
                    id: request.id,
                    result: Err(service_error(
                        "E-OVERLOAD",
                        format!(
                            "admission queue full ({} outstanding, limit {})",
                            self.pending.load(Ordering::Relaxed),
                            self.queue_limit
                        ),
                    )),
                    trace: None,
                    latency: Duration::ZERO,
                });
                continue;
            }
            queue
                .send(Job {
                    index,
                    request,
                    admitted: Instant::now(),
                    reply: reply_tx.clone(),
                })
                .expect("workers alive while server lives");
        }
        drop(reply_tx);
        for (index, response) in reply_rx {
            slots[index] = Some(response);
        }
        // A missing slot means a worker died without replying. The
        // catch_unwind boundary makes that unreachable in practice, but
        // a structured error beats poisoning the whole batch.
        slots
            .into_iter()
            .enumerate()
            .map(|(i, s)| {
                s.unwrap_or_else(|| CompileResponse {
                    id: ids[i],
                    result: Err(service_error(
                        "E-LOST",
                        "worker lost before responding".to_string(),
                    )),
                    trace: None,
                    latency: Duration::ZERO,
                })
            })
            .collect()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Closing the queue makes every worker's recv fail; join them.
        self.queue.take();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("opaque panic payload")
}

/// Run one job to a response: deadline gate, compile with panic
/// containment, bounded-backoff retries on panic.
fn serve_job(
    job: &Job,
    session: &Compiler,
    obs: &nova_obs::Obs,
    policy: &ServicePolicy,
) -> CompileResponse {
    let respond = |result, trace, latency| CompileResponse {
        id: job.request.id,
        result,
        trace,
        latency,
    };
    // Deadline gate at dequeue: a request that waited out its budget in
    // the queue is answered without burning compile time on it.
    if let Some(deadline) = policy.deadline {
        if job.admitted.elapsed() >= deadline {
            obs.counter("server.deadline_drops", 1);
            return respond(
                Err(service_error(
                    "E-DEADLINE",
                    format!("deadline of {deadline:?} expired before service"),
                )),
                None,
                Duration::ZERO,
            );
        }
    }
    let start = Instant::now();
    let mut attempt = 0u32;
    loop {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            (policy.compile)(session, &job.request.source)
        }));
        match outcome {
            Ok(Ok(report)) => {
                let latency = start.elapsed();
                obs.sample("server.latency_us", latency.as_secs_f64() * 1e6);
                return respond(Ok(report.artifact), Some(report.trace), latency);
            }
            Ok(Err(e)) => {
                // Deterministic compile diagnostic: cached, not retried.
                let latency = start.elapsed();
                obs.sample("server.latency_us", latency.as_secs_f64() * 1e6);
                return respond(Err(e), None, latency);
            }
            Err(payload) => {
                obs.counter("server.panics", 1);
                let message = panic_message(payload.as_ref()).to_string();
                if attempt >= policy.retries {
                    return respond(
                        Err(service_error(
                            "E-PANIC",
                            format!(
                                "compile panicked after {} attempt(s): {message}",
                                attempt + 1
                            ),
                        )),
                        None,
                        start.elapsed(),
                    );
                }
                // Bounded exponential backoff, clipped to whatever
                // deadline budget the request has left.
                let backoff = policy.retry_backoff.saturating_mul(1u32 << attempt.min(20));
                if let Some(deadline) = policy.deadline {
                    match deadline.checked_sub(job.admitted.elapsed()) {
                        Some(budget) if budget > Duration::ZERO => {
                            std::thread::sleep(backoff.min(budget));
                        }
                        _ => {
                            obs.counter("server.deadline_drops", 1);
                            return respond(
                                Err(service_error(
                                    "E-DEADLINE",
                                    format!(
                                        "deadline of {deadline:?} expired during panic retry \
                                         (last panic: {message})"
                                    ),
                                )),
                                None,
                                start.elapsed(),
                            );
                        }
                    }
                } else {
                    std::thread::sleep(backoff);
                }
                obs.counter("server.retries", 1);
                attempt += 1;
            }
        }
    }
}

fn worker_loop(
    rx: &Arc<Mutex<Receiver<Job>>>,
    session: &Compiler,
    obs: &nova_obs::Obs,
    policy: &ServicePolicy,
) {
    loop {
        // Hold the lock only for the dequeue, not the compile.
        let job = match rx.lock() {
            Ok(guard) => guard.recv(),
            Err(_) => return,
        };
        let Ok(job) = job else { return };
        let response = serve_job(&job, session, obs, policy);
        // The batch may have been abandoned (submitter gone): ignore.
        let _ = job.reply.send((job.index, response));
        // Release the admission slot only after the reply: the limit
        // bounds admitted-but-unanswered requests, not just the queue.
        policy.pending.fetch_sub(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Condvar;

    const BASE: &str = "fun main() { let (a, b) = sram(0); sram(8) <- (a + b, a); 0 }";

    fn config(workers: usize) -> ServerConfig {
        ServerConfig {
            workers,
            compile: CompileConfig::default(),
            ..ServerConfig::default()
        }
    }

    fn server(workers: usize) -> Server {
        Server::new(config(workers))
    }

    #[test]
    fn batch_responses_come_back_in_request_order() {
        let srv = server(4);
        let reqs: Vec<CompileRequest> = (0..16)
            .map(|i| {
                // Distinct programs so different workers race on
                // genuinely different compiles.
                let addr = 8 + 4 * (i % 4);
                CompileRequest::new(
                    1000 + i,
                    format!("fun main() {{ let (a, b) = sram(0); sram({addr}) <- (a + b, a); 0 }}"),
                )
            })
            .collect();
        let responses = srv.submit_batch(reqs);
        assert_eq!(responses.len(), 16);
        for (i, r) in responses.iter().enumerate() {
            assert_eq!(r.id, 1000 + i as u64);
            assert!(r.result.is_ok(), "request {i} failed");
        }
    }

    #[test]
    fn second_batch_hits_the_shared_cache() {
        let srv = server(2);
        let batch: Vec<CompileRequest> = (0..4).map(|i| CompileRequest::new(i, BASE)).collect();
        let first = srv.submit_batch(batch.clone());
        let second = srv.submit_batch(batch);
        let stats = srv.cache_stats();
        // Everything after the very first compile of BASE is a
        // whole-image hit (workers may race the first batch, so only
        // the lower bound is exact).
        assert!(stats.output_hits >= 4, "expected ≥4 image hits: {stats:?}");
        for (a, b) in first.iter().zip(&second) {
            let (a, b) = (a.result.as_ref().unwrap(), b.result.as_ref().unwrap());
            assert!(a.artifact_eq(b));
        }
    }

    #[test]
    fn failures_are_responses_not_crashes() {
        let srv = server(2);
        let responses = srv.submit_batch(vec![
            CompileRequest::new(1, "fun main() { y }"),
            CompileRequest::new(2, BASE),
            CompileRequest::new(3, "fun main() { y }"),
        ]);
        assert_eq!(responses.len(), 3);
        let e1 = responses[0].result.as_ref().unwrap_err();
        let e3 = responses[2].result.as_ref().unwrap_err();
        assert_eq!(e1, e3, "cached failure should be returned verbatim");
        assert!(responses[1].result.is_ok());
    }

    #[test]
    fn empty_batch_is_fine() {
        let srv = server(1);
        assert!(srv.submit_batch(Vec::new()).is_empty());
    }

    #[test]
    fn panicking_compile_becomes_a_structured_error_not_a_hang() {
        // Sources containing "boom" panic the worker every time; the
        // batch must still come back complete, in order, with the
        // panics reported as Phase::Service errors.
        let hook: CompileHook = Arc::new(|session: &Compiler, src: &str| {
            assert!(!src.contains("boom"), "injected worker panic");
            session.compile(src)
        });
        let srv = Server::with_hook(
            ServerConfig {
                retries: 1,
                retry_backoff: Duration::from_micros(100),
                ..config(2)
            },
            nova_obs::Obs::noop(),
            hook,
        );
        let responses = srv.submit_batch(vec![
            CompileRequest::new(1, BASE),
            CompileRequest::new(2, "boom"),
            CompileRequest::new(3, BASE),
        ]);
        assert_eq!(responses.len(), 3);
        assert!(responses[0].result.is_ok());
        assert!(responses[2].result.is_ok());
        let e = responses[1].result.as_ref().unwrap_err();
        assert_eq!(e.phase, Phase::Service);
        assert_eq!(e.code, "E-PANIC");
        assert_eq!(responses[1].id, 2);
    }

    #[test]
    fn transient_panics_are_retried_to_success() {
        // Panic on the first two attempts, then compile normally: with
        // retries = 2 the request must succeed on the third attempt.
        let failures = Arc::new(AtomicU64::new(2));
        let hook: CompileHook = {
            let failures = Arc::clone(&failures);
            Arc::new(move |session: &Compiler, src: &str| {
                if failures
                    .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                    .is_ok()
                {
                    panic!("transient fault");
                }
                session.compile(src)
            })
        };
        let srv = Server::with_hook(
            ServerConfig {
                retries: 2,
                retry_backoff: Duration::from_micros(100),
                ..config(1)
            },
            nova_obs::Obs::noop(),
            hook,
        );
        let response = srv.submit(CompileRequest::new(7, BASE));
        assert!(
            response.result.is_ok(),
            "retries should mask transient panics"
        );
        assert_eq!(failures.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn expired_deadlines_answer_without_compiling() {
        // A zero deadline has always expired by dequeue time: every
        // request answers E-DEADLINE and the compile hook never runs.
        let hook: CompileHook = Arc::new(|_: &Compiler, _: &str| {
            panic!("deadline-expired request must not reach the compiler")
        });
        let srv = Server::with_hook(
            ServerConfig {
                deadline: Some(Duration::ZERO),
                ..config(2)
            },
            nova_obs::Obs::noop(),
            hook,
        );
        let responses = srv.submit_batch((0..4).map(|i| CompileRequest::new(i, BASE)).collect());
        assert_eq!(responses.len(), 4);
        for (i, r) in responses.iter().enumerate() {
            let e = r.result.as_ref().unwrap_err();
            assert_eq!(e.phase, Phase::Service, "request {i}: {e:?}");
            assert_eq!(e.code, "E-DEADLINE");
            assert_eq!(r.latency, Duration::ZERO);
        }
    }

    #[test]
    fn overload_sheds_the_tail_of_the_batch() {
        // One worker, blocked on a gate; admission limit 2. Submitting
        // five requests admits the first two (one on the worker, one
        // queued — both still unanswered) and sheds the other three
        // with immediate E-OVERLOAD responses.
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let hook: CompileHook = {
            let gate = Arc::clone(&gate);
            Arc::new(move |session: &Compiler, src: &str| {
                let (lock, cvar) = &*gate;
                let mut open = lock.lock().unwrap();
                while !*open {
                    open = cvar.wait(open).unwrap();
                }
                drop(open);
                session.compile(src)
            })
        };
        let srv = Server::with_hook(
            ServerConfig {
                queue_limit: 2,
                ..config(1)
            },
            nova_obs::Obs::noop(),
            hook,
        );
        let srv = Arc::new(srv);
        let submitter = {
            let srv = Arc::clone(&srv);
            std::thread::spawn(move || {
                srv.submit_batch((0..5).map(|i| CompileRequest::new(i, BASE)).collect())
            })
        };
        // Give the submitter time to run its admission loop, then let
        // the worker drain the two admitted requests.
        std::thread::sleep(Duration::from_millis(50));
        {
            let (lock, cvar) = &*gate;
            *lock.lock().unwrap() = true;
            cvar.notify_all();
        }
        let responses = submitter.join().unwrap();
        assert_eq!(responses.len(), 5);
        let shed: Vec<usize> = responses
            .iter()
            .enumerate()
            .filter(|(_, r)| {
                r.result
                    .as_ref()
                    .err()
                    .is_some_and(|e| e.code == "E-OVERLOAD")
            })
            .map(|(i, _)| i)
            .collect();
        assert_eq!(shed, vec![2, 3, 4], "limit 2 must shed exactly the tail");
        for i in [0, 1] {
            assert!(
                responses[i].result.is_ok(),
                "admitted request {i} must compile"
            );
        }
        // The shed slots freed up: a follow-up request is served again.
        let again = srv.submit(CompileRequest::new(9, BASE));
        assert!(again.result.is_ok());
    }
}
