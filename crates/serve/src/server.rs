//! The TCP job server: accept loop, connection threads, worker pool.
//!
//! [`JobServer::bind`] starts three kinds of threads, all stoppable via
//! one shared flag (the same nonblocking-listener pattern as
//! `tm_obs::TelemetryServer`):
//!
//! - one **accept** thread polling a nonblocking listener;
//! - one **connection** thread per client, reading NDJSON request lines
//!   and writing each response line in one write on a `TCP_NODELAY`
//!   socket. Inline requests (`ping`, `stats`) are answered immediately;
//!   jobs are submitted to the scheduler and the thread blocks until its
//!   waiter channel yields the result, so each connection has at most one
//!   job in flight (see `PROTOCOL.md`). The accept thread joins finished
//!   connection threads as it accepts new ones;
//! - `workers` **worker** threads looping claim → execute → complete
//!   over the shared [`Scheduler`], parked on a `Condvar` when idle.
//!
//! Every request increments `serve.*` [`TelemetryHub`] series and every
//! executed job records a wall span into the server's
//! [`SharedRecorder`], so a loaded server is traceable end to end. The
//! recorder keeps the newest [`SERVER_SPAN_CAPACITY`] spans, so its
//! memory does not grow with the request rate.
//!
//! # Examples
//!
//! ```
//! use tm_serve::{Client, JobServer, ServerConfig};
//! use tm_obs::TelemetryHub;
//!
//! let hub = TelemetryHub::new();
//! let server = JobServer::bind("127.0.0.1:0", ServerConfig::default(), hub).unwrap();
//! let mut client = Client::connect(&server.addr().to_string()).unwrap();
//! assert!(client.ping().is_ok());
//! server.stop();
//! ```

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use tm_obs::{ArgValue, SharedRecorder, Span, TelemetryHub};
use tm_sim::DevicePool;

use crate::exec::{execute, ResultPayload};
use crate::protocol::{
    parse_request, render_campaign_result, render_error, render_launch_result, render_pong,
    render_restore_result, render_snapshot_result, render_stats_result, ErrorCode, Request,
    ServerStats,
};
use crate::scheduler::{JobOutcome, Scheduler, Submit};

const ACCEPT_POLL: Duration = Duration::from_millis(10);
const IO_TIMEOUT: Duration = Duration::from_millis(500);

/// How many spans the server's recorder keeps: its newest ones, from
/// job spans and the launch and wavefront spans of pooled devices.
pub const SERVER_SPAN_CAPACITY: usize = 4096;

/// Sizing knobs for [`JobServer::bind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Max queued jobs per tenant before `queue_full` rejections.
    pub queue_limit: usize,
    /// Max idle devices kept warm in the pool.
    pub pool_idle: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self { workers: 2, queue_limit: 8, pool_idle: 4 }
    }
}

type JobResult = Result<ResultPayload, crate::protocol::WireError>;

struct Shared {
    scheduler: Mutex<Scheduler<Request, JobResult>>,
    work_ready: Condvar,
    pool: Mutex<DevicePool>,
    hub: TelemetryHub,
    recorder: SharedRecorder,
    stop: AtomicBool,
    pid: u64,
}

impl Shared {
    fn publish_queue_depth(&self) {
        let depth = self.scheduler.lock().expect("scheduler lock").queue_depth();
        self.hub.gauge_set("serve.queue_depth", depth as f64);
    }

    fn stats(&self) -> ServerStats {
        let pool = self.pool.lock().expect("device pool lock").stats();
        let depth = self.scheduler.lock().expect("scheduler lock").queue_depth();
        ServerStats {
            requests: self.hub.counter("serve.requests"),
            jobs_executed: self.hub.counter("serve.jobs_executed"),
            coalesced: self.hub.counter("serve.coalesced"),
            rejected: self.hub.counter("serve.rejected"),
            queue_depth: depth as u64,
            pool_warm_hits: pool.warm_hits,
            pool_cold_builds: pool.cold_builds,
        }
    }
}

/// A running job server. Stops (joining every thread) on
/// [`JobServer::stop`] or drop.
pub struct JobServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    connections: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl std::fmt::Debug for JobServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobServer").field("addr", &self.addr).finish_non_exhaustive()
    }
}

impl JobServer {
    /// Binds `addr` (port 0 for an OS-assigned port) and starts the
    /// accept loop and `config.workers` worker threads.
    ///
    /// `hub` receives the `serve.*` series; hand the same hub to a
    /// [`tm_obs::TelemetryServer`] to scrape the server live.
    ///
    /// # Errors
    /// Returns the bind/configure error, e.g. when the port is taken.
    pub fn bind(addr: &str, config: ServerConfig, hub: TelemetryHub) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let recorder = SharedRecorder::with_capacity(SERVER_SPAN_CAPACITY);
        let pid = recorder.alloc_pid();
        let shared = Arc::new(Shared {
            scheduler: Mutex::new(Scheduler::new(config.queue_limit)),
            work_ready: Condvar::new(),
            pool: Mutex::new(DevicePool::new(config.pool_idle)),
            hub,
            recorder,
            stop: AtomicBool::new(false),
            pid,
        });
        let connections = Arc::new(Mutex::new(Vec::new()));
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("tm-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared, i as u64))
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        let accept_thread = {
            let shared = Arc::clone(&shared);
            let connections = Arc::clone(&connections);
            std::thread::Builder::new()
                .name("tm-serve-accept".into())
                .spawn(move || accept_loop(&listener, &shared, &connections))?
        };
        Ok(Self {
            addr: local,
            shared,
            accept_thread: Some(accept_thread),
            workers,
            connections,
        })
    }

    /// The bound address (with the real port when bound to port 0).
    #[must_use]
    pub const fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live server counters (the same numbers a `stats` request returns).
    #[must_use]
    pub fn stats(&self) -> ServerStats {
        self.shared.stats()
    }

    /// The recorder collecting per-request wall spans, holding the newest
    /// [`SERVER_SPAN_CAPACITY`]; export it with
    /// [`tm_obs::SharedRecorder::chrome_trace_json`].
    #[must_use]
    pub fn recorder(&self) -> &SharedRecorder {
        &self.shared.recorder
    }

    /// Stops accepting, drains the threads and joins them all.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        self.shared.work_ready.notify_all();
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        for t in self.workers.drain(..) {
            let _ = t.join();
        }
        let handles: Vec<_> =
            std::mem::take(&mut *self.connections.lock().expect("connection registry lock"));
        for t in handles {
            let _ = t.join();
        }
    }
}

impl Drop for JobServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    connections: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    while !shared.stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                let shared = Arc::clone(shared);
                let handle = std::thread::Builder::new()
                    .name("tm-serve-conn".into())
                    .spawn(move || {
                        let _ = serve_connection(stream, &shared);
                    });
                if let Ok(handle) = handle {
                    let mut registry = connections.lock().expect("connection registry lock");
                    // Join closed connections so their thread stacks do
                    // not pile up until the server stops.
                    for done in registry.extract_if(.., |h| h.is_finished()) {
                        let _ = done.join();
                    }
                    registry.push(handle);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
}

fn serve_connection(stream: TcpStream, shared: &Arc<Shared>) -> std::io::Result<()> {
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    // One frame per turn: coalescing small writes can only delay it.
    stream.set_nodelay(true)?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    while !shared.stop.load(Ordering::Relaxed) {
        match reader.read_line(&mut line) {
            Ok(0) => return Ok(()), // client closed
            Ok(_) => {}
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // Poll the stop flag between reads. `line` keeps what
                // arrived before the timeout: the next read finishes it.
                continue;
            }
            Err(e) => return Err(e),
        }
        if !line.trim().is_empty() {
            // One write per frame: a separate write of the `\n` waits on
            // Nagle's algorithm for the peer's delayed ACK.
            let mut frame = handle_line(line.trim_end(), shared);
            frame.push('\n');
            writer.write_all(frame.as_bytes())?;
        }
        line.clear();
    }
    Ok(())
}

fn handle_line(line: &str, shared: &Arc<Shared>) -> String {
    shared.hub.counter_add("serve.requests", 1);
    let env = match parse_request(line) {
        Ok(env) => env,
        Err(e) => {
            // Best-effort id recovery so the client can correlate the error.
            let id = tm_obs::JsonValue::parse(line)
                .ok()
                .and_then(|v| v.get_str("id").map(str::to_owned))
                .unwrap_or_default();
            return render_error(&id, e.code, &e.message);
        }
    };
    match &env.request {
        Request::Ping => render_pong(&env.id),
        Request::Stats => render_stats_result(&env.id, &shared.stats()),
        Request::Launch(_) | Request::Campaign(_) | Request::Snapshot(_) | Request::Restore(_) => {
            let key = env.request.job_key().expect("jobs have a coalescing key");
            let (tx, rx) = mpsc::channel();
            let submit = {
                let mut scheduler = shared.scheduler.lock().expect("scheduler lock");
                scheduler.submit(&env.tenant, key, env.request.clone(), env.id.clone(), tx)
            };
            match submit {
                Submit::Rejected => {
                    shared.hub.counter_add("serve.rejected", 1);
                    render_error(
                        &env.id,
                        ErrorCode::QueueFull,
                        &format!(
                            "tenant {:?} is at its queue quota; resubmit later",
                            env.tenant
                        ),
                    )
                }
                Submit::Queued(_) | Submit::Coalesced(_) => {
                    if matches!(submit, Submit::Coalesced(_)) {
                        shared.hub.counter_add("serve.coalesced", 1);
                    }
                    shared.publish_queue_depth();
                    shared.work_ready.notify_all();
                    wait_for_outcome(&rx, shared, &env.id)
                }
            }
        }
    }
}

fn wait_for_outcome(
    rx: &mpsc::Receiver<JobOutcome<JobResult>>,
    shared: &Arc<Shared>,
    id: &str,
) -> String {
    loop {
        match rx.recv_timeout(IO_TIMEOUT) {
            Ok(outcome) => return render_outcome(&outcome),
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if shared.stop.load(Ordering::Relaxed) {
                    return render_error(id, ErrorCode::Internal, "server shutting down");
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                return render_error(id, ErrorCode::Internal, "job dropped without a result");
            }
        }
    }
}

fn render_outcome(outcome: &JobOutcome<JobResult>) -> String {
    let id = &outcome.request_id;
    match &outcome.payload {
        Ok(ResultPayload::Launch(r)) => render_launch_result(id, r),
        Ok(ResultPayload::Campaign { kernel, trials, jsonl }) => {
            render_campaign_result(id, kernel, *trials, jsonl)
        }
        Ok(ResultPayload::Snapshot { kernel, passed, snapshot }) => {
            render_snapshot_result(id, kernel, *passed, snapshot)
        }
        Ok(ResultPayload::Restored { compute_units, fifo_entries }) => {
            render_restore_result(id, *compute_units, *fifo_entries)
        }
        Err(e) => render_error(id, e.code, &e.message),
    }
}

fn worker_loop(shared: &Arc<Shared>, worker: u64) {
    while !shared.stop.load(Ordering::Relaxed) {
        let claimed = {
            let mut scheduler = shared.scheduler.lock().expect("scheduler lock");
            loop {
                if shared.stop.load(Ordering::Relaxed) {
                    return;
                }
                if let Some(claimed) = scheduler.take_next() {
                    break Some(claimed);
                }
                let (guard, timeout) = shared
                    .work_ready
                    .wait_timeout(scheduler, ACCEPT_POLL * 10)
                    .expect("scheduler lock");
                scheduler = guard;
                if timeout.timed_out() && shared.stop.load(Ordering::Relaxed) {
                    return;
                }
            }
        };
        let Some(claimed) = claimed else { continue };
        shared.publish_queue_depth();
        let start = shared.recorder.now_us();
        let result = execute(&claimed.job, &shared.pool, &shared.hub, &shared.recorder);
        let dur = shared.recorder.now_us().saturating_sub(start);
        let kind = match &claimed.job {
            Request::Launch(_) => "launch",
            Request::Campaign(_) => "campaign",
            Request::Snapshot(_) => "snapshot",
            Request::Restore(_) => "restore",
            Request::Ping | Request::Stats => "inline",
        };
        shared.recorder.record(Span {
            name: format!("serve:{kind}"),
            cat: "serve".to_string(),
            pid: shared.pid,
            tid: worker,
            ts: start,
            dur,
            args: vec![
                ("job_id".to_string(), ArgValue::U64(claimed.id)),
                ("ok".to_string(), ArgValue::Bool(result.is_ok())),
            ],
        });
        shared.hub.counter_add("serve.jobs_executed", 1);
        shared.hub.observe("serve.job_us", dur as f64);
        let waiters = {
            let mut scheduler = shared.scheduler.lock().expect("scheduler lock");
            scheduler.complete(claimed.id, result)
        };
        for (waiter, outcome) in waiters {
            let _ = waiter.tx.send(outcome);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Client;

    #[test]
    fn closed_connections_are_joined_as_new_ones_arrive() {
        let server =
            JobServer::bind("127.0.0.1:0", ServerConfig::default(), TelemetryHub::new()).unwrap();
        let addr = server.addr().to_string();
        for _ in 0..50 {
            Client::connect(&addr).unwrap().ping().unwrap();
        }
        let held = server.connections.lock().unwrap().len();
        assert!(held <= 2, "the registry holds {held} connection threads after 50 closed ones");
        server.stop();
    }
}
