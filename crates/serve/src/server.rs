//! The HTTP front end: request routing, cache/admission orchestration,
//! graceful drain.
//!
//! Threading model: plain blocking threads, no runtime. Socket I/O, heavy
//! job compute and the waiting single-flight does (a follower on its
//! channel, a queued leader on the admission condvar) all happen on the
//! connection worker that accepted the request.
//!
//! A connection worker blocks in `accept`, answers the requests of the
//! connection it gets in order until the connection ends (see
//! [`crate::http`]), and goes back to `accept`. [`Server::run`] starts as
//! the only worker; whenever the last idle worker takes a connection it
//! first starts one more, so somebody is always accepting and a slow job
//! never stands between `/healthz` (or a cache hit) and the listener.
//! Workers are reused, never retired before the drain: the pool's size is
//! the largest number of connections that were ever open at once, plus
//! one. Each keeps the stack pages its deepest job touched, which is what
//! a long-lived server's resident set shows over a thread per connection
//! (+0.6 to 1 MB, 2.5 to 3.7 %, under the benchmark's `serve_mix`).
//!
//! Nothing polls. A worker in `accept` learns about a drain because
//! [`ServerState::begin_shutdown`] connects to the server's own address;
//! the woken worker finds `draining` set and nothing in flight, leaves,
//! and wakes the next one the same way. A connection is in flight from
//! `accept` until its worker lets go of it. A kept connection waiting for
//! its next request is idle: the drain shuts it down at once, so it holds
//! nothing up, and during a drain every response closes its connection. A
//! peer has [`READ_DEADLINE`](crate::http::READ_DEADLINE) to send a
//! request, so a connection that says nothing holds neither its worker
//! nor the drain for longer than that. A handler that panics costs its
//! request a `500` and its connection, and nothing else: the in-flight
//! count is released by a drop guard and the worker goes back to `accept`.
//!
//! Routes:
//!
//! * `POST /job` — submit a job (see [`crate::jobs`] for body shapes).
//!   Responds with the payload JSON plus `X-Job-Id`, `X-Cache-Key`, and
//!   `X-Cache: hit|miss|coalesced`. `429 + Retry-After` when the
//!   admission queue is full; `503` while draining.
//! * `GET /stats` — cache, flight, shard, and uptime counters.
//! * `GET /trace/<job id>` — the Perfetto export of a trace job.
//! * `GET /healthz` — liveness.
//! * `POST /shutdown` — begin draining: in-flight jobs finish, new jobs
//!   are refused, and [`Server::run`] returns once idle.

use crate::cache::ResultCache;
use crate::flight::SingleFlight;
use crate::http::{Request, RequestReader, Response, READ_DEADLINE};
use crate::jobs::{ExecContext, Job, TraceStore};
use crate::key::machine_fingerprint;
use crate::shard::ShardPool;
use bwb_machine::{platforms, Platform, ShardPolicy};
use bwb_trace::json::obj;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::Scope;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker shards carved out of the platform topology.
    pub shards: usize,
    pub policy: ShardPolicy,
    /// Heavy jobs running concurrently (admission permits).
    pub max_concurrent: usize,
    /// Jobs waiting beyond that before 429s start.
    pub max_queue: usize,
    /// The modelled machine jobs run against (part of every cache key).
    pub platform: Platform,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            shards: 2,
            policy: ShardPolicy::OnePerNuma,
            max_concurrent: 2,
            max_queue: 8,
            platform: platforms::xeon_max_9480(),
        }
    }
}

pub struct ServerState {
    cache: ResultCache,
    flight: SingleFlight,
    ctx: ExecContext,
    machine: String,
    job_seq: AtomicU64,
    /// Connections accepted and not yet let go of by their worker.
    inflight: AtomicUsize,
    draining: AtomicBool,
    /// Kept connections waiting for their next request, which a drain
    /// shuts down at once. `draining` is set under this lock, so no
    /// connection is added after the drain has taken them.
    idle: Mutex<Vec<Arc<TcpStream>>>,
    started: Instant,
    /// Where the listener can be reached from this host.
    wake_addr: SocketAddr,
}

impl ServerState {
    /// Start draining: refuse new jobs, let in-flight ones finish, close
    /// idle kept connections.
    pub fn begin_shutdown(&self) {
        let mut idle = self.idle.lock().unwrap_or_else(PoisonError::into_inner);
        self.draining.store(true, Ordering::SeqCst);
        for stream in idle.drain(..) {
            let _ = stream.shutdown(Shutdown::Both);
        }
        drop(idle);
        self.wake_acceptor();
    }

    /// Wait, as an idle kept connection, for the first bytes of `stream`'s
    /// next request. False when the connection is over instead: a drain
    /// began or shut it down, or the peer closed it or sent nothing by
    /// `deadline`.
    fn await_next(
        &self,
        stream: &Arc<TcpStream>,
        reader: &mut RequestReader,
        deadline: Instant,
    ) -> bool {
        {
            let mut idle = self.idle.lock().unwrap_or_else(PoisonError::into_inner);
            if self.is_draining() {
                return false;
            }
            idle.push(Arc::clone(stream));
        }
        let got = reader.fill(stream, deadline);
        let mut idle = self.idle.lock().unwrap_or_else(PoisonError::into_inner);
        let Some(at) = idle.iter().position(|s| Arc::ptr_eq(s, stream)) else {
            return false;
        };
        idle.swap_remove(at);
        matches!(got, Ok(n) if n > 0)
    }

    /// Get one worker out of `accept` so that it looks at `draining`: a
    /// connection that says nothing. Harmless when nobody is blocked (it
    /// waits in the backlog) or the listener is gone (refused).
    fn wake_acceptor(&self) {
        let _ = TcpStream::connect_timeout(&self.wake_addr, Duration::from_secs(1));
    }

    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    pub fn jobs_submitted(&self) -> u64 {
        self.job_seq.load(Ordering::Relaxed)
    }

    fn stats_json(&self) -> String {
        let c = self.cache.stats();
        let f = self.flight.stats();
        let pools = self.ctx.shards.stats().into_iter().map(|s| {
            obj([
                ("shard", s.shard.into()),
                ("cores", s.cores.into()),
                ("jobs", s.jobs.into()),
            ])
        });
        obj([
            ("machine", self.machine.as_str().into()),
            ("uptime_secs", self.started.elapsed().as_secs_f64().into()),
            ("draining", self.is_draining().into()),
            ("jobs_submitted", self.jobs_submitted().into()),
            (
                "cache",
                obj([
                    ("entries", c.entries.into()),
                    ("hits", c.hits.into()),
                    ("misses", c.misses.into()),
                    ("hit_rate", c.hit_rate().into()),
                    ("oldest_age_secs", c.oldest_age_secs.into()),
                ]),
            ),
            (
                "flight",
                obj([
                    ("executed", f.executed.into()),
                    ("coalesced", f.coalesced.into()),
                    ("rejected", f.rejected.into()),
                    ("running_now", f.running_now.into()),
                    ("queued_now", f.queued_now.into()),
                ]),
            ),
            (
                "shards",
                obj([
                    ("policy", self.ctx.shards.policy().label().into()),
                    ("pools", pools.collect()),
                ]),
            ),
            ("traces_stored", self.ctx.traces.len().into()),
        ])
        .to_string()
    }
}

pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
    local_addr: SocketAddr,
}

impl Server {
    pub fn bind(cfg: ServerConfig) -> std::io::Result<Server> {
        if cfg.max_concurrent == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "max_concurrent must be at least 1",
            ));
        }
        let listener = TcpListener::bind(&cfg.addr)?;
        let local_addr = listener.local_addr()?;
        // A wildcard bind is reached through loopback.
        let wake_addr = match local_addr.ip() {
            IpAddr::V4(ip) if ip.is_unspecified() => {
                (Ipv4Addr::LOCALHOST, local_addr.port()).into()
            }
            IpAddr::V6(ip) if ip.is_unspecified() => {
                (Ipv6Addr::LOCALHOST, local_addr.port()).into()
            }
            _ => local_addr,
        };
        let machine = machine_fingerprint(&cfg.platform);
        let state = Arc::new(ServerState {
            cache: ResultCache::new(),
            flight: SingleFlight::new(cfg.max_concurrent, cfg.max_queue),
            ctx: ExecContext {
                shards: Arc::new(ShardPool::new(cfg.platform, cfg.shards, cfg.policy)),
                traces: Arc::new(TraceStore::new()),
            },
            machine,
            job_seq: AtomicU64::new(0),
            inflight: AtomicUsize::new(0),
            draining: AtomicBool::new(false),
            idle: Mutex::default(),
            started: Instant::now(),
            wake_addr,
        });
        Ok(Server {
            listener,
            state,
            local_addr,
        })
    }

    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A handle for out-of-band control (tests, signal handlers).
    pub fn state(&self) -> Arc<ServerState> {
        Arc::clone(&self.state)
    }

    /// Serve connections on the calling thread and the workers it grows
    /// (see the module docs). Returns after
    /// [`ServerState::begin_shutdown`] once all in-flight connections have
    /// drained and every worker has left.
    pub fn run(self) {
        let workers = Workers {
            listener: &self.listener,
            state: &self.state,
            idle: AtomicUsize::new(0),
        };
        std::thread::scope(|scope| workers.work(scope));
    }
}

/// The connection workers of one [`Server::run`].
struct Workers<'a> {
    listener: &'a TcpListener,
    state: &'a ServerState,
    /// Workers in, or on their way into, `accept`.
    idle: AtomicUsize,
}

/// One accepted connection, counted in `ServerState::inflight` until
/// dropped — also when the handler unwinds.
struct InFlight<'a>(&'a AtomicUsize);

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

impl<'a> Workers<'a> {
    /// One worker's life: accept, handle, again, until the drain is over.
    fn work<'scope>(&'a self, scope: &'scope Scope<'scope, 'a>) {
        let state = self.state;
        self.idle.fetch_add(1, Ordering::SeqCst);
        loop {
            // Counted idle *before* this check, and a finishing worker
            // counts itself idle before it releases its connection below:
            // of two workers racing here, either the one that brought
            // in-flight to 0 sees the other idle and wakes it, or the
            // other sees in-flight 0 and leaves by itself.
            if state.is_draining() && state.inflight.load(Ordering::SeqCst) == 0 {
                if self.idle.fetch_sub(1, Ordering::SeqCst) > 1 {
                    state.wake_acceptor();
                }
                return;
            }
            let stream = match self.listener.accept() {
                Ok((stream, _)) => stream,
                Err(_) => {
                    // Out of descriptors, most likely: let some close.
                    std::thread::sleep(Duration::from_millis(5));
                    continue;
                }
            };
            let others = state.inflight.fetch_add(1, Ordering::SeqCst);
            let connection = InFlight(&state.inflight);
            let last_idle = self.idle.fetch_sub(1, Ordering::SeqCst) == 1;
            // Keep the listener attended — unless the drain has nothing
            // left to wait for: then this connection is the wake-up (or a
            // straggler), this worker leaves right after it, and a
            // replacement would only have to be woken in turn.
            if last_idle && !(state.is_draining() && others == 0) {
                // Failing to grow (thread limit) is not failing to serve:
                // this worker is back in `accept` after its request.
                let _ = std::thread::Builder::new()
                    .name("serve-conn".into())
                    .spawn_scoped(scope, move || self.work(scope));
            }
            handle_connection(state, stream);
            self.idle.fetch_add(1, Ordering::SeqCst);
            drop(connection);
        }
    }
}

fn handle_connection(state: &ServerState, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let stream = Arc::new(stream);
    let mut reader = RequestReader::default();
    // In flight until its first answer; after that, with no byte of the
    // next request buffered, the connection is idle.
    let mut answered = false;
    loop {
        let deadline = Instant::now() + READ_DEADLINE;
        if answered && reader.is_empty() && !state.await_next(&stream, &mut reader, deadline) {
            return;
        }
        answered = true;
        // Unwind-safe to go on: what job code runs under is either released
        // by a drop guard that leaves nothing half-done (the admission
        // permit, the flight-table entry, the tracer session) or a lock that
        // guards no data and is taken poisoned or not (a shard's gate, the
        // tracer's); the cache and the flight table are touched around the
        // job, not under it. The connection itself ends with the panic.
        let (response, keep) =
            catch_unwind(AssertUnwindSafe(|| match reader.next(&stream, deadline) {
                Ok(req) => (route(state, &req), req.keep_alive()),
                Err(e) => (Response::error(400, &e), false),
            }))
            .unwrap_or_else(|_| {
                let panicked = Response::error(500, "the handler panicked; see the server log");
                (panicked, false)
            });
        let keep = keep && !state.is_draining();
        if response.keep_alive(keep).write_to(&mut &*stream).is_err() || !keep {
            return;
        }
    }
}

fn route(state: &ServerState, req: &Request) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/job") => handle_job(state, req),
        ("GET", "/stats") => Response::json(200, state.stats_json()),
        ("GET", "/healthz") => Response::json(200, "{\"ok\":true}"),
        ("POST", "/shutdown") => {
            state.begin_shutdown();
            Response::json(200, "{\"draining\":true}")
        }
        ("GET", path) if path.starts_with("/trace/") => {
            match path["/trace/".len()..].parse::<u64>().ok() {
                Some(id) => match state.ctx.traces.get(id) {
                    Some(chrome) => Response::json(200, chrome),
                    None => Response::error(404, "no trace under that job id"),
                },
                None => Response::error(400, "trace id must be a job id (integer)"),
            }
        }
        ("POST" | "GET", _) => Response::error(404, "unknown route"),
        _ => Response::error(405, "unsupported method"),
    }
}

fn handle_job(state: &ServerState, req: &Request) -> Response {
    if state.is_draining() {
        return Response::error(503, "server is draining").header("Retry-After", "5");
    }
    let body = match bwb_trace::json::parse(&req.body) {
        Ok(b) => b,
        Err(e) => return Response::error(400, &format!("body is not JSON: {e}")),
    };
    let job = match Job::parse(&body) {
        Ok(j) => j,
        Err(e) => return Response::error(400, &e),
    };
    let job_id = state.job_seq.fetch_add(1, Ordering::SeqCst) + 1;
    let key = job.cache_key(&state.machine);

    if let Some(payload) = state.cache.get(key) {
        return Response::json(200, payload)
            .header("X-Cache", "hit")
            .header("X-Cache-Key", key.to_string())
            .header("X-Job-Id", job_id.to_string());
    }

    // The leader caches its payload before the flight lands: a request
    // that comes after the flight is gone must find it in the cache, or it
    // would lead a second execution whose payload (timings included)
    // differs from the first.
    let lead = || {
        let payload = job.execute(&state.ctx, job_id);
        if let Ok(p) = &payload {
            state.cache.insert(key, p.clone());
        }
        payload
    };
    match state.flight.run_or_join(key, lead) {
        Err(full) => Response::error(429, "admission queue is full")
            .header("Retry-After", full.retry_after_secs.to_string()),
        Ok(outcome) => {
            let cache_state = if outcome.coalesced {
                "coalesced"
            } else {
                "miss"
            };
            match outcome.payload {
                Ok(payload) => Response::json(200, payload)
                    .header("X-Cache", cache_state)
                    .header("X-Cache-Key", key.to_string())
                    .header("X-Job-Id", job_id.to_string()),
                Err(e) => Response::error(400, &e).header("X-Cache", cache_state),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::request;
    use std::sync::mpsc;

    #[test]
    fn zero_admission_permits_is_a_bind_error_not_a_panic() {
        let refused = Server::bind(ServerConfig {
            max_concurrent: 0,
            ..ServerConfig::default()
        });
        let err = refused.err().expect("no server without a permit");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    }

    #[test]
    fn a_panicking_job_costs_its_request_a_500_and_nothing_else() {
        let server = Server::bind(ServerConfig::default()).expect("bind");
        let addr = server.local_addr().to_string();
        let state = server.state();
        let (done_tx, done_rx) = mpsc::channel();
        std::thread::spawn(move || {
            server.run();
            let _ = done_tx.send(());
        });

        let post = |body: &str| request(&addr, "POST", "/job", Some(body)).expect("reply");
        // On its own, inside a traced run (under the tracer's gate) and
        // inside a ranked run (under a shard's gate) — each twice: the
        // second submission must lead a flight of its own, not join the
        // entry a panicking leader left behind.
        for inside in ["job", "trace", "shard", "job", "trace", "shard"] {
            let boom = post(&format!(r#"{{"kind":"panic","inside":"{inside}"}}"#));
            assert_eq!(boom.status, 500, "{inside}: {}", boom.body);
            assert!(boom.body.contains("\"error\""), "{inside}: {}", boom.body);
        }
        // What the panics unwound through still works: the tracer, and
        // every packed shard (two ranked jobs go round both).
        let trace = post(r#"{"kind":"trace","app":"acoustic","n":12,"iterations":2}"#);
        assert_eq!(trace.status, 200, "trace after a panic: {}", trace.body);
        for n in [12, 14] {
            let ranked = post(&format!(
                r#"{{"kind":"benchmark","app":"acoustic","n":{n},"iterations":2,"ranks":2,"placement":"packed"}}"#
            ));
            assert_eq!(ranked.status, 200, "ranked after a panic: {}", ranked.body);
        }
        assert_eq!(state.flight.stats().running_now, 0, "permit released");

        // The workers that ran the panicking jobs are still serving.
        let health = request(&addr, "GET", "/healthz", None).expect("healthz");
        assert_eq!(health.status, 200);

        // Nothing is left in flight, so the drain completes.
        state.begin_shutdown();
        done_rx
            .recv_timeout(Duration::from_secs(30))
            .expect("run() returns: the unwound requests were released");
    }
}
