//! The daemon itself: accept loop, request routing, worker pool, and
//! graceful shutdown.
//!
//! ## Endpoints
//!
//! | Method | Path                     | Response                                   |
//! |--------|--------------------------|--------------------------------------------|
//! | POST   | `/jobs`                  | 201 + job status (body: TOML spec)         |
//! | GET    | `/jobs`                  | NDJSON, one job record per line            |
//! | GET    | `/jobs/<id>`             | job status record (state, progress, ETA)   |
//! | GET    | `/jobs/<id>/events`      | NDJSON live stream: spans, then summary    |
//! | GET    | `/jobs/<id>/report.json` | the `xp run --json` bytes                  |
//! | GET    | `/jobs/<id>/report.csv`  | the `xp run --csv` bytes                   |
//! | GET    | `/cache`                 | cache-stat NDJSON record (via [`StatFn`])  |
//! | POST   | `/shutdown`              | 200, then graceful drain                   |
//!
//! A `/jobs/<id>` path answers 404 for an id never issued and 410 for
//! one whose job was evicted.
//!
//! ## Retention
//!
//! Ids come from a counter; a submission refused with 503 uses none.
//! Each submission first drops the oldest finished (`done` /
//! `failed`) jobs by id until `queue_cap` remain; queued and running
//! jobs are never dropped. So the table holds at most 2·`queue_cap` +
//! `workers` jobs: `queue_cap` finished, `queue_cap` in the channel and
//! one in each worker's hands. A read does not refresh a job: the order
//! is submission order, not last use. A handler that already holds a
//! job finishes its response from that reference.
//!
//! ## Connections
//!
//! Each accepted connection is served on a thread of its own, and at
//! most [`MAX_CONNECTIONS`] are open at once. A connection accepted at
//! the cap is answered 503 on the accept thread and closed, so idle
//! peers cannot make the daemon start threads without bound.
//!
//! ## Shutdown
//!
//! `POST /shutdown` (or [`ShutdownHandle::shutdown`]) drops the job
//! channel's sender and stops the accept loop; [`Server::serve`] then
//! joins the workers — which drain every queued job — and the open
//! connection handlers before returning. Nothing accepted is ever
//! dropped.

use crate::http::{parse_request, write_response, write_stream_head, Request, MAX_HEAD};
use crate::job::{Job, JobState};
use crate::{unpoisoned, RunFn, StatFn};
use dcn_scenarios::ScenarioSpec;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// How the daemon is wired: pool sizing plus the injected execution and
/// cache-stat functions (see [`RunFn`], [`StatFn`]).
pub struct ServeConfig {
    /// Worker threads executing jobs (≥ 1).
    pub workers: usize,
    /// Bound on undispatched jobs (pushes beyond it get 503), and the
    /// number of finished jobs kept.
    pub queue_cap: usize,
    /// Executes one scenario, reporting spans to the job.
    pub run: RunFn,
    /// Renders the cache-stat NDJSON record for `GET /cache`.
    pub cache_stat: Option<StatFn>,
}

/// Shared server state: the job registry, the queue's sending half,
/// and the stop flag.
struct Shared {
    jobs: Mutex<Registry>,
    /// Bounded FIFO into the worker pool; `None` once shutdown closed it.
    queue: Mutex<Option<SyncSender<Arc<Job>>>>,
    /// The queue's bound, and the number of finished jobs kept.
    queue_cap: usize,
    stopping: AtomicBool,
    run: RunFn,
    cache_stat: Option<StatFn>,
}

/// The job table: the kept jobs in id order, and the next id to issue.
/// Every id below `next` was issued; one not in `jobs` was evicted.
struct Registry {
    jobs: Vec<Arc<Job>>,
    next: u64,
}

impl Shared {
    fn registry(&self) -> MutexGuard<'_, Registry> {
        unpoisoned(self.jobs.lock())
    }

    /// The job with this id: 404 if it was never issued, 410 if it was
    /// evicted.
    fn job(&self, id: u64) -> Result<Arc<Job>, (u16, String)> {
        let reg = self.registry();
        match reg.jobs.binary_search_by_key(&id, |j| j.id) {
            Ok(at) => Ok(Arc::clone(&reg.jobs[at])),
            Err(_) if (1..reg.next).contains(&id) => Err((
                410,
                format!(
                    "job {id} was evicted: the daemon keeps the newest {} finished jobs",
                    self.queue_cap
                ),
            )),
            Err(_) => Err((404, format!("no such job: {id}"))),
        }
    }

    fn submit(&self, spec: ScenarioSpec) -> Result<Arc<Job>, (u16, String)> {
        let mut reg = self.registry();
        // Before the push: a worker may finish the new job before
        // `submit` returns, and it must not count against the others.
        evict_finished(&mut reg.jobs, self.queue_cap);
        let job = Job::new(reg.next, spec);
        // Register before queueing so a worker that grabs the job
        // instantly still has it visible under /jobs/<id>.
        reg.jobs.push(Arc::clone(&job));
        let queue = unpoisoned(self.queue.lock());
        let why = match queue.as_ref().map(|tx| tx.try_send(Arc::clone(&job))) {
            Some(Ok(())) => {
                reg.next += 1;
                return Ok(job);
            }
            Some(Err(TrySendError::Full(_))) => {
                format!("job queue is full ({} queued)", self.queue_cap)
            }
            // Closed by shutdown, or no receiver left: nothing would run it.
            None | Some(Err(TrySendError::Disconnected(_))) => "server is shutting down".into(),
        };
        reg.jobs.pop();
        Err((503, why))
    }
}

/// Drop the oldest terminal jobs until `keep` remain; queued and
/// running ones stay wherever they sit in id order.
fn evict_finished(jobs: &mut Vec<Arc<Job>>, keep: usize) {
    let finished = jobs.iter().filter(|j| j.state().is_terminal()).count();
    let mut excess = finished.saturating_sub(keep);
    jobs.retain(|j| {
        let drop = excess > 0 && j.state().is_terminal();
        excess -= usize::from(drop);
        !drop
    });
}

/// The `xp serve` daemon: bind, then [`serve`](Server::serve) until a
/// shutdown request drains it.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
    /// The queue's receiving half, shared by the workers once serving.
    queue: Receiver<Arc<Job>>,
    workers: usize,
}

impl Server {
    /// Bind `addr` (e.g. `127.0.0.1:8080`; port 0 picks an ephemeral
    /// port — the integration tests' friend).
    pub fn bind(addr: &str, cfg: ServeConfig) -> Result<Server, String> {
        let listener = TcpListener::bind(addr).map_err(|e| format!("cannot bind {addr}: {e}"))?;
        let queue_cap = cfg.queue_cap.max(1);
        let (tx, rx) = sync_channel(queue_cap);
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                jobs: Mutex::new(Registry {
                    jobs: Vec::new(),
                    next: 1,
                }),
                queue: Mutex::new(Some(tx)),
                queue_cap,
                stopping: AtomicBool::new(false),
                run: cfg.run,
                cache_stat: cfg.cache_stat,
            }),
            queue: rx,
            workers: cfg.workers.max(1),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.listener
            .local_addr()
            .expect("bound listener has an address")
    }

    /// A handle that can stop the server from another thread.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            shared: Arc::clone(&self.shared),
            addr: self.local_addr(),
        }
    }

    /// Run until shutdown: accept connections, dispatch jobs to the
    /// worker pool, then drain. Returns once every queued job has run
    /// and every open connection handler has finished.
    pub fn serve(self) -> Result<(), String> {
        let queue = Arc::new(Mutex::new(self.queue));
        let mut worker_handles = Vec::with_capacity(self.workers);
        for _ in 0..self.workers {
            let (shared, queue) = (Arc::clone(&self.shared), Arc::clone(&queue));
            worker_handles.push(std::thread::spawn(move || {
                // `recv` fails only once the sender is gone *and* the
                // buffer is empty, so queued jobs always complete.
                while let Some(job) = next_job(&queue) {
                    job.execute(&shared.run);
                }
            }));
        }

        let mut conn_handles: Vec<std::thread::JoinHandle<()>> = Vec::new();
        for stream in self.listener.incoming() {
            if self.shared.stopping.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            // Reap finished handlers: the ones left are the open count.
            conn_handles.retain(|h| !h.is_finished());
            if conn_handles.len() >= MAX_CONNECTIONS {
                refuse(stream);
                continue;
            }
            let shared = Arc::clone(&self.shared);
            conn_handles.push(std::thread::spawn(move || {
                handle_connection(stream, &shared)
            }));
        }

        // Drain: close the queue (workers finish queued jobs and exit),
        // then wait for workers and any open connections.
        close_queue(&self.shared);
        for h in worker_handles {
            let _ = h.join();
        }
        for h in conn_handles {
            let _ = h.join();
        }
        Ok(())
    }
}

/// Stops a running [`Server`] from another thread: sets the stop flag,
/// closes the queue, and wakes the blocking accept loop by connecting
/// to it.
pub struct ShutdownHandle {
    shared: Arc<Shared>,
    addr: std::net::SocketAddr,
}

impl ShutdownHandle {
    /// Request shutdown. Idempotent; returns immediately (the serve
    /// loop drains in its own thread).
    pub fn shutdown(&self) {
        request_shutdown(&self.shared, self.addr);
    }
}

fn request_shutdown(shared: &Shared, addr: std::net::SocketAddr) {
    if shared.stopping.swap(true, Ordering::SeqCst) {
        return;
    }
    close_queue(shared);
    // The accept loop blocks in `incoming()`; a no-op connection wakes
    // it so it can observe the stop flag.
    let _ = TcpStream::connect(addr);
}

/// Close the queue: later submissions are refused, and the workers
/// drain what it holds. Idempotent.
fn close_queue(shared: &Shared) {
    unpoisoned(shared.queue.lock()).take();
}

/// The oldest queued job, blocking while the queue is open and empty;
/// `None` once it is closed and drained.
fn next_job(queue: &Mutex<Receiver<Arc<Job>>>) -> Option<Arc<Job>> {
    unpoisoned(queue.lock()).recv().ok()
}

/// The most connections served at once; the next one is refused with
/// 503 until one of them closes.
pub const MAX_CONNECTIONS: usize = 64;

/// How long the accept thread reads from a refused peer, in all.
const REFUSAL_LINGER: Duration = Duration::from_millis(100);

/// Answer a connection past [`MAX_CONNECTIONS`] on the accept thread,
/// then read what the peer sent, up to a request head and for at most
/// [`REFUSAL_LINGER`]: closing on unread bytes sends a reset, which can
/// destroy the 503 before the peer reads it. The answer fits a new
/// socket's send buffer, so writing it does not wait on the peer.
fn refuse(mut stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(REFUSAL_LINGER));
    let why = format!("the daemon is serving {MAX_CONNECTIONS} connections; retry later");
    respond_error(&mut stream, 503, &why);
    let _ = stream.shutdown(Shutdown::Write);
    #[expect(
        clippy::disallowed_methods,
        reason = "a refused peer's read budget is scheduling only, never report bytes"
    )]
    let start = Instant::now();
    let mut buf = [0u8; 4096];
    for _ in 0..MAX_HEAD / buf.len() {
        let left = REFUSAL_LINGER.saturating_sub(start.elapsed());
        if left.is_zero() || stream.set_read_timeout(Some(left)).is_err() {
            break;
        }
        if !matches!(stream.read(&mut buf), Ok(n) if n > 0) {
            break;
        }
    }
}

/// How long an events stream waits for news before emitting nothing and
/// re-checking (bounds how long a reader can pin a handler thread after
/// shutdown).
const EVENT_POLL: Duration = Duration::from_millis(250);

fn handle_connection(mut stream: TcpStream, shared: &Shared) {
    // Generous guards so a stuck peer cannot pin a handler forever.
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(30)));
    let req = match parse_request(&mut stream) {
        Ok(req) => req,
        Err((status, e)) => {
            respond_error(&mut stream, status, &e);
            return;
        }
    };
    route(&mut stream, &req, shared);
}

fn route(stream: &mut TcpStream, req: &Request, shared: &Shared) {
    let parts: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), parts.as_slice()) {
        ("POST", ["jobs"]) => post_job(stream, req, shared),
        ("GET", ["jobs"]) => {
            let mut body = String::new();
            for job in shared.registry().jobs.iter() {
                body.push_str(&job.snapshot().to_json());
                body.push('\n');
            }
            let _ = write_response(stream, 200, "application/x-ndjson", body.as_bytes());
        }
        ("GET", ["jobs", id]) => with_job(stream, id, shared, |stream, job| {
            let body = format!("{}\n", job.snapshot().to_json());
            let _ = write_response(stream, 200, "application/json", body.as_bytes());
        }),
        ("GET", ["jobs", id, "events"]) => with_job(stream, id, shared, |stream, job| {
            stream_events(stream, job, shared)
        }),
        ("GET", ["jobs", id, "report.json"]) => {
            with_job(stream, id, shared, |stream, job| match job.report_json() {
                Some(body) => {
                    let _ = write_response(stream, 200, "application/json", body.as_bytes());
                }
                None => respond_no_report(stream, job),
            })
        }
        ("GET", ["jobs", id, "report.csv"]) => {
            with_job(stream, id, shared, |stream, job| match job.report_csv() {
                Some(body) => {
                    let _ = write_response(stream, 200, "text/csv", body.as_bytes());
                }
                None => respond_no_report(stream, job),
            })
        }
        ("GET", ["cache"]) => match &shared.cache_stat {
            Some(stat) => {
                let body = format!("{}\n", stat());
                let _ = write_response(stream, 200, "application/x-ndjson", body.as_bytes());
            }
            None => respond_error(stream, 404, "no cache configured"),
        },
        ("POST", ["shutdown"]) => {
            let _ = write_response(stream, 200, "application/json", b"{\"shutdown\":true}\n");
            let addr = stream
                .local_addr()
                .expect("connected socket has an address");
            request_shutdown(shared, addr);
        }
        // A resource that exists, asked with the wrong verb. (An unknown
        // path under /jobs is a 404 like any other unknown path.)
        (_, ["jobs"] | ["jobs", _] | ["cache"] | ["shutdown"])
        | (_, ["jobs", _, "events" | "report.json" | "report.csv"]) => {
            respond_error(
                stream,
                405,
                &format!("method {} not allowed here", req.method),
            );
        }
        _ => respond_error(stream, 404, &format!("no such resource: {}", req.path)),
    }
}

fn post_job(stream: &mut TcpStream, req: &Request, shared: &Shared) {
    let Ok(body) = std::str::from_utf8(&req.body) else {
        respond_error(stream, 400, "spec body is not UTF-8");
        return;
    };
    let spec = match ScenarioSpec::from_toml(body) {
        Ok(spec) => spec,
        Err(e) => {
            respond_error(stream, 400, &format!("bad scenario spec: {e}"));
            return;
        }
    };
    match shared.submit(spec) {
        Ok(job) => {
            let body = format!("{}\n", job.snapshot().to_json());
            let _ = write_response(stream, 201, "application/json", body.as_bytes());
        }
        Err((status, e)) => respond_error(stream, status, &e),
    }
}

/// Stream the job's NDJSON event log live: everything so far, then new
/// lines as points complete, closing once the job is terminal (the
/// summary record is always the last line of a completed stream).
fn stream_events(stream: &mut TcpStream, job: &Arc<Job>, shared: &Shared) {
    if write_stream_head(stream, 200, "application/x-ndjson").is_err() {
        return;
    }
    let mut sent = 0usize;
    loop {
        let (lines, terminal) = job.wait_events(sent, EVENT_POLL);
        sent += lines.len();
        for line in &lines {
            if stream.write_all(line.as_bytes()).is_err() || stream.write_all(b"\n").is_err() {
                return;
            }
        }
        if stream.flush().is_err() {
            return;
        }
        if terminal {
            return;
        }
        // A queued job can never finish once the server is draining a
        // shutdown with no workers left; don't pin the handler.
        if shared.stopping.load(Ordering::SeqCst) && job.state() == JobState::Queued {
            return;
        }
    }
}

fn with_job(
    stream: &mut TcpStream,
    id: &str,
    shared: &Shared,
    f: impl FnOnce(&mut TcpStream, &Arc<Job>),
) {
    let Ok(id) = id.parse::<u64>() else {
        respond_error(stream, 404, &format!("bad job id: {id:?}"));
        return;
    };
    match shared.job(id) {
        Ok(job) => f(stream, &job),
        Err((status, e)) => respond_error(stream, status, &e),
    }
}

fn respond_no_report(stream: &mut TcpStream, job: &Arc<Job>) {
    let snap = job.snapshot();
    let msg = match snap.error {
        Some(e) => format!("job {} failed: {e}", job.id),
        None => format!(
            "job {} is {}; report not ready",
            job.id,
            snap.state.as_str()
        ),
    };
    respond_error(stream, 404, &msg);
}

fn respond_error(stream: &mut TcpStream, status: u16, msg: &str) {
    let body = format!("{{\"error\":{}}}\n", dcn_scenarios::jstr(msg));
    let _ = write_response(stream, status, "application/json", body.as_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The refusals a client is owed, at `Shared::submit`. Nothing calls
    /// `serve()`, so no worker drains the queue under the test.
    #[test]
    fn submit_refuses_a_full_or_closed_queue_and_rolls_the_job_back() {
        let cfg = ServeConfig {
            workers: 1,
            queue_cap: 2,
            run: Arc::new(|_, _| Err("never run".into())),
            cache_stat: None,
        };
        let server = Server::bind("127.0.0.1:0", cfg).expect("bind an ephemeral port");
        let submit = || {
            let spec = dcn_scenarios::builtin("fig6-small").expect("builtin spec");
            server.shared.submit(spec).map(|job| job.id)
        };
        assert_eq!(submit(), Ok(1));
        assert_eq!(submit(), Ok(2));
        let full = (503, "job queue is full (2 queued)".to_string());
        assert_eq!(submit(), Err(full));
        assert_eq!(
            server.shared.registry().jobs.len(),
            2,
            "refused, rolled out"
        );
        let fifo: Vec<u64> = server.queue.try_iter().map(|job| job.id).collect();
        assert_eq!(fifo, [1, 2]);
        server.shutdown_handle().shutdown();
        let closed = (503, "server is shutting down".to_string());
        assert_eq!(submit(), Err(closed));
    }

    /// A refused peer that trickles its request holds the accept thread
    /// for about `REFUSAL_LINGER` in all, not that per byte, and still
    /// reads the whole 503.
    #[test]
    fn a_refused_peer_that_trickles_bytes_is_dropped_after_the_linger() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
        let addr = listener.local_addr().expect("local addr");
        let peer = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).expect("connect");
            // One byte every 50 ms: the old per-read timeout never fired.
            for _ in 0..20 {
                if stream.write_all(b"G").is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(50));
            }
            let mut answer = String::new();
            let _ = stream.read_to_string(&mut answer);
            answer
        });
        let (stream, _) = listener.accept().expect("accept");
        #[expect(
            clippy::disallowed_methods,
            reason = "the test times the accept thread, never report bytes"
        )]
        let start = Instant::now();
        refuse(stream);
        let held = start.elapsed();
        assert!(
            held < REFUSAL_LINGER * 4,
            "refuse held the accept thread {held:?}"
        );
        let answer = peer.join().expect("peer thread");
        assert!(answer.starts_with("HTTP/1.1 503 "), "{answer}");
        assert!(answer.contains("{\"error\":"), "{answer}");
    }

    /// A thousand jobs through one registry, on this thread: the test is
    /// the worker, taking each job off the channel and executing it.
    /// Half the runs return a report and half fail, so both terminal
    /// states are evicted. Every 100th cycle fills the queue first, so
    /// the refusal beyond it is exercised and must use up no id.
    #[test]
    fn a_thousand_jobs_keep_the_registry_bounded_and_never_reuse_an_id() {
        let spec = dcn_scenarios::builtin("fig6-small").expect("builtin spec");
        let output = dcn_scenarios::run_scenario(&spec, 1).expect("fig6-small runs");
        let runs = std::sync::atomic::AtomicUsize::new(0);
        let queue_cap = 4;
        let cfg = ServeConfig {
            workers: 1,
            queue_cap,
            run: Arc::new(move |_, _| match runs.fetch_add(1, Ordering::Relaxed) % 2 {
                0 => Ok(output.clone()),
                _ => Err("fake failure".into()),
            }),
            cache_stat: None,
        };
        let server = Server::bind("127.0.0.1:0", cfg).expect("bind an ephemeral port");
        let shared = &server.shared;
        let terminal = || {
            let reg = shared.registry();
            let ids: Vec<u64> = reg.jobs.iter().map(|j| j.id).collect();
            assert!(ids.windows(2).all(|w| w[0] < w[1]), "id order: {ids:?}");
            let done = reg.jobs.iter().filter(|j| j.state().is_terminal());
            (done.count(), reg.jobs.len())
        };
        let (mut last, mut finished, mut refused) = (0u64, 0usize, 0usize);
        while finished < 1000 {
            let burst = if finished % 100 == 0 { queue_cap } else { 1 };
            for _ in 0..burst {
                let job = shared.submit(spec.clone()).expect("room in the queue");
                assert_eq!(job.id, last + 1, "ids are issued in order, none skipped");
                last = job.id;
                let (kept, _) = terminal();
                assert!(
                    kept <= queue_cap,
                    "{kept} finished jobs kept after job {last}"
                );
            }
            if burst == queue_cap {
                let full = (503, format!("job queue is full ({queue_cap} queued)"));
                assert_eq!(shared.submit(spec.clone()).map(|j| j.id), Err(full));
                refused += 1;
            }
            for job in server.queue.try_iter() {
                job.execute(&shared.run);
                finished += 1;
            }
            let (_, len) = terminal();
            assert!(len <= 2 * queue_cap + 1, "{len} jobs held after job {last}");
        }
        assert_eq!((last, refused), (1000, 10));
        assert_eq!(shared.job(last).map(|j| j.id), Ok(last));
        assert_eq!(shared.job(1).map(|j| j.id).map_err(|e| e.0), Err(410));
        assert_eq!(shared.job(0).map(|j| j.id).map_err(|e| e.0), Err(404));
        assert_eq!(
            shared.job(last + 1).map(|j| j.id).map_err(|e| e.0),
            Err(404)
        );
    }
}
