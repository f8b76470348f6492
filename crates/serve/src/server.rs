//! The eel-serve daemon: a readiness-driven reactor, a fixed executor
//! pool, caches.
//!
//! One reactor thread owns every connection: a nonblocking listener and
//! all accepted sockets are multiplexed through `poll(2)` (see
//! [`crate::reactor`]), with per-connection read buffers reassembling
//! length-prefixed frames and per-connection bounded write buffers
//! draining as sockets accept bytes. Decoded requests are handed to a
//! fixed pool of executor threads over a channel; finished replies come
//! back through a completion queue plus a wake byte, and the reactor
//! serializes them onto the right socket. An idle connection therefore
//! costs a file descriptor and two buffers, not threads: the thread
//! budget is `1 + executors`, independent of connection count.
//!
//! Each connection runs one two-state machine. It *awaits* its first
//! frame, which picks the protocol, and then *serves* with a granted
//! window, an in-flight count and a draining flag. A v2 `Hello` grants
//! the negotiated window; a v1 one-shot is served as a session of
//! window 1 whose reply is untagged and which drains after its only
//! request. A first-frame error or timeout is an error reply and a
//! connection draining with nothing in flight. Admission, dispatch and
//! completion are one path for both protocols; only the reply tag and
//! the one-shot queue rules below depend on which one a request came in.
//!
//! Backpressure is layered and all of it lives in the reactor:
//!
//! * one-shot admission — more than `queue_depth` decoded one-shot
//!   requests waiting for executors answers [`Response::Busy`] at decode
//!   time (counted under both `serve.busy` and `serve.conn.busy`); an
//!   admitted request that waits in the channel past the configured
//!   timeout is answered with a timeout error rather than served stale;
//! * session windows — frames beyond the granted in-flight window get a
//!   per-frame tagged [`Response::Busy`] and the connection survives;
//! * slow consumers — a connection whose write buffer grows past
//!   `write_hwm` stops being read (its `POLLIN` is withheld, counted
//!   under `serve.reactor.pushback`) until the client drains it below
//!   half the mark, so a stalled reader stalls only its own session.
//!
//! Results flow through two content-addressed, single-flight LRU caches:
//! one for [`Analysis`] artifacts keyed by image hash, one for rendered
//! operation results keyed by (image hash, op). With `cache_dir` set the
//! result cache grows a disk tier ([`crate::disk::DiskCache`]): memory
//! misses consult the directory before computing (a hit is promoted back
//! into the LRU), computed results spill through, and LRU evictions
//! demote instead of discard — so a daemon restart serves warm from disk
//! with zero re-analysis.
//!
//! Everything is instrumented through eel-obs: `serve.requests`,
//! `serve.cache.hit` / `serve.cache.miss` (the *memory* tier),
//! `serve.cache.disk.{hit,miss,write,evict,corrupt}` and the
//! `serve.cache.disk.bytes` gauge (the disk tier), `serve.busy` and
//! `serve.conn.busy`, `serve.errors`, `serve.timeouts`, the
//! `serve.queue.depth` gauge, per-op `serve.latency.<op>` histograms
//! (microseconds) plus `serve.latency.disk.{load,spill}`, per-op
//! `serve.ops.<op>.computed` counters that count *actual* computations —
//! the single-flight and warm-restart evidence — the session-mode series
//! `serve.session.{opened,closed,requests,busy}` with the
//! `serve.session.inflight` gauge, the event-loop series
//! `serve.reactor.conns` (gauge) / `serve.reactor.pushback`, and the
//! `serve.mem.analysis_shapes_bytes` gauge (the CFG shapes the analysis
//! cache holds and charges).

use crate::cache::{content_hash, CostClass, SingleFlightLru};
use crate::disk::DiskCache;
use crate::ops::{run_edit, run_op_fragments, FragmentTier, CACHED_OPS, COMPUTED, SHAPE_OPS};
use crate::proto::{
    CacheTier, Discovery, Payload, Request, Response, SessionFrame, SessionReply, MAX_FRAME,
    SESSION_VERSION,
};
use crate::reactor::{
    notify, poll_fds, Conn, PollFd, WakePipe, POLLERR, POLLHUP, POLLIN, POLLNVAL, POLLOUT,
};
use eel_core::Analysis;
use eel_exe::Image;
use std::borrow::Cow;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Executor threads; 0 means one per available core. The pool is
    /// shared by one-shot and session requests and never smaller than 2.
    pub workers: usize,
    /// Bounded admission depth for one-shot requests; decoded requests
    /// beyond this many waiting for executors get [`Response::Busy`].
    pub queue_depth: usize,
    /// LRU byte budget, split evenly between the analysis and result
    /// caches.
    pub cache_bytes: usize,
    /// Per-request budget: the deadline for a connection's first frame,
    /// the mid-frame inactivity limit, and the maximum time an admitted
    /// one-shot request may wait for an executor.
    pub timeout: Duration,
    /// Directory for the on-disk result-cache spill tier; `None` (the
    /// default) keeps the cache memory-only.
    pub cache_dir: Option<PathBuf>,
    /// Byte budget for the disk tier (only meaningful with `cache_dir`);
    /// a janitor prunes the directory oldest-first past this.
    pub disk_bytes: u64,
    /// Maximum in-flight window granted to a session connection; a
    /// client's requested window is clamped to this. Requests beyond
    /// the granted window are answered per-frame with
    /// [`Response::Busy`] (the connection survives).
    pub session_window: u32,
    /// Per-connection write-buffer high-water mark in bytes: past this
    /// the reactor stops reading from the connection until the client
    /// drains replies below half the mark.
    pub write_hwm: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 0,
            queue_depth: 64,
            cache_bytes: 64 << 20,
            timeout: Duration::from_secs(10),
            cache_dir: None,
            disk_bytes: 256 << 20,
            session_window: 32,
            write_hwm: 4 << 20,
        }
    }
}

impl ServerConfig {
    fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(4)
        }
    }

    /// The executor pool size: the worker knob floored at 2, so one slow
    /// request can never wedge `ping` on a single-core box.
    fn executor_pool(&self) -> usize {
        self.effective_workers().max(2)
    }
}

type CachedAnalysis = Result<Arc<Analysis>, String>;
type CachedResult = Result<Arc<Vec<u8>>, String>;

/// A (slot, generation) handle naming one connection across the
/// executor boundary; a completion whose generation no longer matches
/// the slot's is for a connection that already died and is dropped.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Token {
    slot: usize,
    gen: u64,
}

/// One request handed to the executor pool. `id` is the session tag
/// echoed on the reply; `None` marks a one-shot, whose reply is untagged
/// and which obeys the one-shot queue rules (admission counting, and the
/// stale-in-queue timeout measured from `enqueued`).
struct Work {
    token: Token,
    id: Option<u64>,
    req: Request,
    enqueued: Instant,
}

/// A finished reply traveling back from an executor to the reactor:
/// the already-encoded frame body, addressed by connection token.
struct Done {
    token: Token,
    frame: Vec<u8>,
}

struct Shared {
    config: ServerConfig,
    local_addr: SocketAddr,
    stop: AtomicBool,
    /// Admitted one-shot requests waiting for (or held by the channel
    /// ahead of) an executor — the v1 admission-control quantity.
    queued_jobs: AtomicUsize,
    /// Replies finished by executors, waiting for the reactor to drain
    /// them onto sockets.
    completions: Mutex<Vec<Done>>,
    /// Write half of the reactor's wake pipe; executors and
    /// [`Shared::request_stop`] poke it to interrupt a parked poll.
    wake_tx: TcpStream,
    analyses: SingleFlightLru<u64, CachedAnalysis>,
    results: SingleFlightLru<(u64, String), CachedResult>,
    /// The optional spill tier under the results cache.
    disk: Option<DiskCache>,
}

/// A running eel-serve daemon. Dropping it shuts it down and joins every
/// thread.
pub struct Server {
    shared: Arc<Shared>,
    reactor: Option<JoinHandle<()>>,
    executors: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds and starts the reactor and executor threads.
    ///
    /// If eel-obs is off, metrics mode is switched on: a service without
    /// its metrics is flying blind, and the `metrics` op must have
    /// something to render. Spans stay off in that mode, because nothing
    /// drains them and a long-running daemon would keep every one.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn start(config: ServerConfig) -> io::Result<Server> {
        if !eel_obs::enabled() {
            eel_obs::set_mode(eel_obs::Mode::Metrics);
        }
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let wake = WakePipe::new()?;
        let wake_tx = wake.notifier()?;
        let pool = config.executor_pool();
        let half = (config.cache_bytes / 2).max(1);
        let disk = config
            .cache_dir
            .as_ref()
            .map(|dir| DiskCache::open(dir, config.disk_bytes));
        let shared = Arc::new(Shared {
            local_addr,
            stop: AtomicBool::new(false),
            queued_jobs: AtomicUsize::new(0),
            completions: Mutex::new(Vec::new()),
            wake_tx,
            analyses: SingleFlightLru::new(half),
            results: SingleFlightLru::new(half),
            disk,
            config,
        });

        let (job_tx, job_rx) = mpsc::channel::<Work>();
        let job_rx = Arc::new(Mutex::new(job_rx));
        let mut executors = Vec::with_capacity(pool);
        for k in 0..pool {
            let shared = Arc::clone(&shared);
            let job_rx = Arc::clone(&job_rx);
            executors.push(
                std::thread::Builder::new()
                    .name(format!("eelserved-exec-{k}"))
                    .spawn(move || executor_loop(&shared, &job_rx))?,
            );
        }
        let reactor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("eelserved-reactor".into())
                .spawn(move || Reactor::new(&shared, listener, wake, job_tx).run())?
        };
        Ok(Server {
            shared,
            reactor: Some(reactor),
            executors,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// Signals shutdown: stops accepting, finishes every admitted
    /// request, flushes replies. Does not block; pair with
    /// [`Server::wait`] or drop.
    pub fn shutdown(&self) {
        self.shared.request_stop();
    }

    /// Blocks until every thread has exited (after [`Server::shutdown`],
    /// a client `shutdown` request, or a fatal accept error).
    ///
    /// # Panics
    ///
    /// Propagates a reactor or executor panic, so tests fail loudly if a
    /// thread died.
    pub fn wait(mut self) {
        if let Some(r) = self.reactor.take() {
            r.join().expect("reactor thread panicked");
        }
        for w in self.executors.drain(..) {
            w.join().expect("executor thread panicked");
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shared.request_stop();
        if let Some(r) = self.reactor.take() {
            let _ = r.join();
        }
        for w in self.executors.drain(..) {
            let _ = w.join();
        }
    }
}

impl Shared {
    fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    fn request_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        notify(&self.wake_tx);
    }
}

/// How long a fully answered connection gets to hit EOF (or at least
/// quiesce) after our FIN before it is closed anyway.
const CLOSE_DRAIN: Duration = Duration::from_millis(500);

/// Per-connection protocol state, driven entirely by the reactor thread.
enum ConnState {
    /// No complete first frame yet; `accepted` drives the first-frame
    /// deadline.
    Awaiting { accepted: Instant },
    /// Admitting requests. A v2 session is granted the window its
    /// `Hello` negotiated; a v1 one-shot is a session of window 1 whose
    /// reply is untagged and which drains after its only request.
    Serving {
        granted: u32,
        in_flight: usize,
        /// No new frames are admitted and the connection closes once
        /// `in_flight` drains: set by Goodbye, a one-shot's request,
        /// peer EOF, a stream or first-frame error, and server shutdown.
        /// Input is still read but ignored, so closing with unread
        /// bytes never resets queued replies away.
        draining: bool,
        /// Opened by a v2 `Hello`; its requests and its close count
        /// under `serve.session.*`.
        session: bool,
    },
}

struct ConnEntry {
    conn: Conn,
    state: ConnState,
    /// Reads withheld by the write-buffer high-water mark.
    paused: bool,
    /// Write side FIN'd; drop at EOF or at this deadline.
    closing: Option<Instant>,
    /// Socket is broken; reap on the next cleanup pass.
    dead: bool,
}

impl ConnEntry {
    fn draining(&self) -> bool {
        matches!(self.state, ConnState::Serving { draining: true, .. })
    }

    /// Stops admitting frames. A connection still awaiting its first
    /// frame becomes one that is draining with nothing in flight.
    fn drain(&mut self) {
        match &mut self.state {
            ConnState::Awaiting { .. } => {
                self.state = ConnState::Serving {
                    granted: 0,
                    in_flight: 0,
                    draining: true,
                    session: false,
                };
            }
            ConnState::Serving { draining, .. } => *draining = true,
        }
    }

    /// All protocol work finished — draining with no reply still owed —
    /// so the connection may begin its graceful close.
    fn work_done(&self) -> bool {
        matches!(
            self.state,
            ConnState::Serving {
                draining: true,
                in_flight: 0,
                ..
            }
        )
    }
}

/// Encodes a reply for its connection's protocol: untagged for a
/// one-shot, tagged with the request id on a session.
fn reply_frame(id: Option<u64>, response: Response) -> Vec<u8> {
    match id {
        None => response.encode(),
        Some(id) => SessionReply::Tagged { id, response }.encode(),
    }
}

struct Reactor<'a> {
    shared: &'a Shared,
    listener: Option<TcpListener>,
    wake: WakePipe,
    job_tx: mpsc::Sender<Work>,
    conns: Vec<Option<ConnEntry>>,
    gens: Vec<u64>,
    free: Vec<usize>,
    /// Jobs submitted to executors whose completions have not yet been
    /// drained; shutdown waits for this to hit zero.
    outstanding: usize,
    /// Sum of session `in_flight` across live connections — the
    /// `serve.session.inflight` gauge.
    total_inflight: usize,
    open_conns: usize,
    shutting_down: bool,
}

impl<'a> Reactor<'a> {
    fn new(
        shared: &'a Shared,
        listener: TcpListener,
        wake: WakePipe,
        job_tx: mpsc::Sender<Work>,
    ) -> Reactor<'a> {
        Reactor {
            shared,
            listener: Some(listener),
            wake,
            job_tx,
            conns: Vec::new(),
            gens: Vec::new(),
            free: Vec::new(),
            outstanding: 0,
            total_inflight: 0,
            open_conns: 0,
            shutting_down: false,
        }
    }

    fn run(mut self) {
        loop {
            if self.shared.stopping() && !self.shutting_down {
                self.begin_shutdown();
            }
            self.drain_completions();
            self.reap_deadlines();
            self.cleanup();
            if self.shutting_down && self.outstanding == 0 && self.open_conns == 0 {
                return;
            }
            let (mut fds, listener_at, conn_at) = self.build_pollset();
            let timeout = self
                .next_deadline()
                .map(|d| d.saturating_duration_since(Instant::now()));
            match poll_fds(&mut fds, timeout) {
                Ok(_) => {}
                Err(_) => {
                    // A failing poll on our own fd set is unrecoverable;
                    // shut the daemon down instead of spinning.
                    self.shared.request_stop();
                    continue;
                }
            }
            self.wake.drain();
            if let Some(at) = listener_at {
                if fds[at].revents != 0 {
                    self.accept_new();
                }
            }
            for (at, slot) in conn_at {
                let revents = fds[at].revents;
                if revents != 0 {
                    self.handle_conn_event(slot, revents);
                }
            }
        }
    }

    /// Stop accepting, stop admitting new frames everywhere, let
    /// admitted work finish and replies flush.
    fn begin_shutdown(&mut self) {
        self.shutting_down = true;
        self.listener = None;
        // Replies already owed still get delivered.
        for entry in self.conns.iter_mut().flatten() {
            entry.drain();
        }
    }

    fn build_pollset(&self) -> (Vec<PollFd>, Option<usize>, Vec<(usize, usize)>) {
        let mut fds = vec![PollFd {
            fd: self.wake.fd(),
            events: POLLIN,
            revents: 0,
        }];
        let listener_at = self.listener.as_ref().map(|l| {
            use std::os::fd::AsRawFd as _;
            fds.push(PollFd {
                fd: l.as_raw_fd(),
                events: POLLIN,
                revents: 0,
            });
            fds.len() - 1
        });
        let mut conn_at = Vec::with_capacity(self.open_conns);
        for (slot, entry) in self.conns.iter().enumerate() {
            let Some(entry) = entry else { continue };
            let mut events = 0i16;
            if !entry.conn.read_closed && (entry.draining() || !entry.paused) {
                events |= POLLIN;
            }
            if entry.conn.wants_write() {
                events |= POLLOUT;
            }
            if events == 0 {
                continue;
            }
            fds.push(PollFd {
                fd: entry.conn.fd(),
                events,
                revents: 0,
            });
            conn_at.push((fds.len() - 1, slot));
        }
        (fds, listener_at, conn_at)
    }

    /// The soonest of: first-frame deadlines, mid-frame stall deadlines,
    /// and close-drain deadlines. `None` parks poll indefinitely (the
    /// wake pipe covers completions and shutdown).
    fn next_deadline(&self) -> Option<Instant> {
        let timeout = self.shared.config.timeout;
        let mut soonest: Option<Instant> = None;
        let mut consider = |d: Instant| {
            soonest = Some(match soonest {
                Some(s) if s <= d => s,
                _ => d,
            });
        };
        for entry in self.conns.iter().flatten() {
            if let Some(d) = entry.closing {
                consider(d);
            }
            if entry.draining() {
                continue;
            }
            match entry.state {
                ConnState::Awaiting { accepted } => consider(accepted + timeout),
                ConnState::Serving { .. } if entry.conn.mid_frame() => {
                    consider(entry.conn.last_progress + timeout);
                }
                ConnState::Serving { .. } => {}
            }
        }
        soonest
    }

    fn reap_deadlines(&mut self) {
        let now = Instant::now();
        let timeout = self.shared.config.timeout;
        for slot in 0..self.conns.len() {
            let Some(mut entry) = self.conns[slot].take() else {
                continue;
            };
            if let Some(d) = entry.closing {
                if now >= d {
                    entry.dead = true;
                }
            }
            if !entry.dead && !entry.draining() {
                match entry.state {
                    ConnState::Awaiting { accepted } if now >= accepted + timeout => {
                        self.reject(
                            &mut entry,
                            None,
                            "bad request: timed out waiting for request".into(),
                        );
                    }
                    // A frame stalled mid-transfer: the stream's framing
                    // is unrecoverable. Finish in-flight work, then close.
                    ConnState::Serving { .. }
                        if entry.conn.mid_frame() && now >= entry.conn.last_progress + timeout =>
                    {
                        entry.drain();
                    }
                    _ => {}
                }
            }
            self.put_back(slot, entry);
        }
    }

    /// Initiates graceful closes for finished connections and reaps dead
    /// ones.
    fn cleanup(&mut self) {
        let now = Instant::now();
        for slot in 0..self.conns.len() {
            let Some(entry) = self.conns[slot].as_mut() else {
                continue;
            };
            if !entry.dead && entry.work_done() && !entry.conn.wants_write() {
                if entry.conn.read_closed {
                    entry.dead = true;
                } else if entry.closing.is_none() {
                    entry.conn.shutdown_write();
                    entry.closing = Some(now + CLOSE_DRAIN);
                }
            }
            if entry.dead {
                let entry = self.conns[slot].take().expect("slot checked above");
                self.drop_conn(slot, entry);
            }
        }
    }

    fn insert_conn(&mut self, conn: Conn) {
        let entry = ConnEntry {
            conn,
            state: ConnState::Awaiting {
                accepted: Instant::now(),
            },
            paused: false,
            closing: None,
            dead: false,
        };
        match self.free.pop() {
            Some(s) => self.conns[s] = Some(entry),
            None => {
                self.conns.push(Some(entry));
                self.gens.push(0);
            }
        }
        self.open_conns += 1;
        eel_obs::gauge!("serve.reactor.conns").set(self.open_conns as i64);
    }

    fn drop_conn(&mut self, slot: usize, entry: ConnEntry) {
        if let ConnState::Serving {
            in_flight,
            session: true,
            ..
        } = entry.state
        {
            // Jobs still running for this connection will complete and
            // be discarded by the token generation check.
            self.total_inflight -= in_flight;
            eel_obs::gauge!("serve.session.inflight").set(self.total_inflight as i64);
            eel_obs::counter!("serve.session.closed").add(1);
        }
        self.gens[slot] += 1;
        self.free.push(slot);
        self.open_conns -= 1;
        eel_obs::gauge!("serve.reactor.conns").set(self.open_conns as i64);
    }

    fn put_back(&mut self, slot: usize, entry: ConnEntry) {
        if entry.dead {
            self.drop_conn(slot, entry);
        } else {
            self.conns[slot] = Some(entry);
        }
    }

    fn accept_new(&mut self) {
        loop {
            let Some(listener) = self.listener.as_ref() else {
                return;
            };
            match listener.accept() {
                Ok((stream, _)) => {
                    if let Ok(conn) = Conn::new(stream) {
                        self.insert_conn(conn);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::Interrupted
                            | io::ErrorKind::ConnectionAborted
                            | io::ErrorKind::ConnectionReset
                    ) => {}
                Err(_) => {
                    // Fatal listener error: stop the whole server rather
                    // than spinning on a dead socket.
                    self.shared.request_stop();
                    return;
                }
            }
        }
    }

    fn handle_conn_event(&mut self, slot: usize, revents: i16) {
        let Some(mut entry) = self.conns[slot].take() else {
            return;
        };
        let token = Token {
            slot,
            gen: self.gens[slot],
        };
        if revents & (POLLERR | POLLNVAL) != 0 {
            entry.dead = true;
            self.put_back(slot, entry);
            return;
        }
        if revents & (POLLIN | POLLHUP) != 0 {
            self.handle_readable(&mut entry, token);
        }
        if revents & POLLOUT != 0 && !entry.dead {
            self.flush_entry(&mut entry);
        }
        self.put_back(slot, entry);
    }

    fn handle_readable(&mut self, entry: &mut ConnEntry, token: Token) {
        if entry.draining() {
            let _ = entry.conn.discard();
            return;
        }
        match entry.conn.fill(MAX_FRAME) {
            Ok(frames) => {
                for body in frames {
                    if !self.process_frame(entry, token, &body) {
                        break;
                    }
                }
                // Clean EOF at a frame boundary: a client hanging up
                // without Goodbye is unremarkable.
                if entry.conn.read_closed && !entry.draining() {
                    entry.drain();
                }
            }
            // The read stream is broken: mid-frame EOF, an oversized
            // length prefix, or a socket error. Before the first frame
            // that earns an error reply; after it, the connection
            // finishes what it owes and closes.
            Err(e) => match entry.state {
                ConnState::Awaiting { .. } => {
                    self.reject(entry, None, format!("bad request: {e}"));
                }
                ConnState::Serving { .. } => entry.drain(),
            },
        }
    }

    /// Advances one connection's protocol state machine by one inbound
    /// frame. Returns false when no further frames should be processed
    /// from this batch (the connection is draining).
    fn process_frame(&mut self, entry: &mut ConnEntry, token: Token, body: &[u8]) -> bool {
        match entry.state {
            ConnState::Awaiting { .. } => self.first_frame(entry, token, body),
            ConnState::Serving { .. } => self.session_frame(entry, token, body),
        }
        !entry.draining()
    }

    /// The connection's first frame picks its protocol: the session
    /// version byte must be a `Hello`; anything else is a one-shot v1
    /// request (including unknown versions, which `Request::decode`
    /// rejects with a clean error a v1 client can render).
    fn first_frame(&mut self, entry: &mut ConnEntry, token: Token, body: &[u8]) {
        if body.first() == Some(&SESSION_VERSION) {
            match SessionFrame::decode(body) {
                Ok(SessionFrame::Hello { window }) => {
                    let cap = self.shared.config.session_window;
                    let requested = if window == 0 { cap } else { window };
                    let granted = requested.clamp(1, cap.max(1));
                    entry.state = ConnState::Serving {
                        granted,
                        in_flight: 0,
                        draining: false,
                        session: true,
                    };
                    eel_obs::counter!("serve.session.opened").add(1);
                    self.queue_reply(entry, &SessionReply::HelloAck { window: granted }.encode());
                }
                _ => self.reject(entry, Some(0), "session must open with Hello".into()),
            }
        } else {
            match Request::decode(body) {
                Ok(req) => {
                    entry.state = ConnState::Serving {
                        granted: 1,
                        in_flight: 0,
                        draining: false,
                        session: false,
                    };
                    self.admit(entry, token, None, req);
                    entry.drain();
                }
                Err(e) => self.reject(entry, None, format!("bad request: {e}")),
            }
        }
    }

    /// A frame on a serving session connection.
    fn session_frame(&mut self, entry: &mut ConnEntry, token: Token, body: &[u8]) {
        match SessionFrame::decode(body) {
            Ok(SessionFrame::Request { id, request }) => {
                self.admit(entry, token, Some(id), request)
            }
            Ok(SessionFrame::Goodbye) => entry.drain(),
            Ok(SessionFrame::Hello { .. }) => self.queue_reply(
                entry,
                &reply_frame(Some(0), Response::Err("duplicate Hello".into())),
            ),
            // A malformed frame poisons the stream (framing may be lost);
            // answer, finish in-flight work, close.
            Err(e) => self.reject(entry, Some(0), format!("bad session frame: {e}")),
        }
    }

    /// Answers a protocol error and starts draining the connection.
    fn reject(&mut self, entry: &mut ConnEntry, id: Option<u64>, msg: String) {
        eel_obs::counter!("serve.errors").add(1);
        self.queue_reply(entry, &reply_frame(id, Response::Err(msg)));
        entry.drain();
    }

    /// Hands one decoded request to the executors, or answers BUSY at
    /// decode time. Every request must fit the connection's granted
    /// window; a one-shot (`id: None`) must also find room in the
    /// daemon-wide `queue_depth` admission queue. Either BUSY is
    /// explicit backpressure instead of an unbounded backlog, and a
    /// session survives it.
    fn admit(&mut self, entry: &mut ConnEntry, token: Token, id: Option<u64>, req: Request) {
        let ConnState::Serving {
            granted,
            ref mut in_flight,
            session,
            ..
        } = entry.state
        else {
            return;
        };
        if *in_flight >= granted as usize {
            eel_obs::counter!("serve.session.busy").add(1);
            self.queue_reply(entry, &reply_frame(id, Response::Busy));
            return;
        }
        if id.is_none() {
            if self.shared.queued_jobs.load(Ordering::SeqCst) >= self.shared.config.queue_depth {
                eel_obs::counter!("serve.busy").add(1);
                eel_obs::counter!("serve.conn.busy").add(1);
                self.queue_reply(entry, &reply_frame(id, Response::Busy));
                return;
            }
            let depth = self.shared.queued_jobs.fetch_add(1, Ordering::SeqCst) + 1;
            eel_obs::gauge!("serve.queue.depth").set(depth as i64);
        }
        *in_flight += 1;
        if session {
            eel_obs::counter!("serve.session.requests").add(1);
            self.total_inflight += 1;
            eel_obs::gauge!("serve.session.inflight").set(self.total_inflight as i64);
        }
        self.outstanding += 1;
        let _ = self.job_tx.send(Work {
            token,
            id,
            req,
            enqueued: Instant::now(),
        });
    }

    fn drain_completions(&mut self) {
        let done = std::mem::take(
            &mut *self
                .shared
                .completions
                .lock()
                .expect("completions lock poisoned"),
        );
        for d in done {
            self.outstanding -= 1;
            if self.gens[d.token.slot] != d.token.gen {
                continue; // connection died while the job ran
            }
            let Some(mut entry) = self.conns[d.token.slot].take() else {
                continue;
            };
            if let ConnState::Serving {
                ref mut in_flight,
                session,
                ..
            } = entry.state
            {
                *in_flight -= 1;
                if session {
                    self.total_inflight -= 1;
                    eel_obs::gauge!("serve.session.inflight").set(self.total_inflight as i64);
                }
            }
            self.queue_reply(&mut entry, &d.frame);
            self.put_back(d.token.slot, entry);
        }
    }

    /// Queues an outbound frame and eagerly flushes; applies the
    /// high-water-mark pause/resume transitions.
    fn queue_reply(&mut self, entry: &mut ConnEntry, frame: &[u8]) {
        entry.conn.queue_frame(frame);
        self.flush_entry(entry);
    }

    fn flush_entry(&mut self, entry: &mut ConnEntry) {
        if entry.conn.flush().is_err() {
            entry.dead = true;
            return;
        }
        let hwm = self.shared.config.write_hwm.max(1);
        if !entry.paused && entry.conn.buffered() > hwm {
            entry.paused = true;
            eel_obs::counter!("serve.reactor.pushback").add(1);
        } else if entry.paused && entry.conn.buffered() <= hwm / 2 {
            entry.paused = false;
        }
    }
}

fn executor_loop(shared: &Shared, job_rx: &Mutex<mpsc::Receiver<Work>>) {
    loop {
        let work = {
            let rx = job_rx.lock().expect("job lock poisoned");
            rx.recv()
        };
        let Ok(Work {
            token,
            id,
            req,
            enqueued,
        }) = work
        else {
            return;
        };
        let mut stale = None;
        if id.is_none() {
            // One-shot queue rules: leave the admission count, and never
            // serve a request that waited out its budget.
            let depth = shared.queued_jobs.fetch_sub(1, Ordering::SeqCst) - 1;
            eel_obs::gauge!("serve.queue.depth").set(depth as i64);
            let waited = enqueued.elapsed();
            if waited >= shared.config.timeout {
                eel_obs::counter!("serve.timeouts").add(1);
                stale = Some(Response::Err(format!(
                    "request timed out after {}ms in queue",
                    waited.as_millis()
                )));
            }
        }
        let response = stale.unwrap_or_else(|| {
            let response = handle_request(shared, &req);
            if matches!(response, Response::Err(_)) {
                eel_obs::counter!("serve.errors").add(1);
            }
            response
        });
        let done = Done {
            token,
            frame: reply_frame(id, response),
        };
        shared
            .completions
            .lock()
            .expect("completions lock poisoned")
            .push(done);
        notify(&shared.wake_tx);
    }
}

fn handle_request(shared: &Shared, req: &Request) -> Response {
    eel_obs::counter!("serve.requests").add(1);
    let started = Instant::now();
    let resp = match req.op.as_str() {
        "ping" => Response::Ok {
            tier: CacheTier::Computed,
            body: b"pong".to_vec(),
            fragments: None,
            discovery: None,
            machine: None,
        },
        "metrics" => Response::Ok {
            tier: CacheTier::Computed,
            body: render_metrics().into_bytes(),
            fragments: None,
            discovery: None,
            machine: None,
        },
        "shutdown" => {
            shared.request_stop();
            Response::Ok {
                tier: CacheTier::Computed,
                body: b"shutting down".to_vec(),
                fragments: None,
                discovery: None,
                machine: None,
            }
        }
        "edit" => cached_edit(shared, &req.payload),
        op if CACHED_OPS.contains(&op) => cached_op(shared, op, &req.payload),
        other => Response::Err(format!("unknown op {other:?}")),
    };
    latency_histogram(&req.op).record(started.elapsed().as_micros() as u64);
    resp
}

/// The `serve.latency.<op>` histogram for a request's op. Only the ops
/// the server knows (`CACHED_OPS` and the four it answers itself) get a
/// name of their own; every other name a client sends shares
/// `serve.latency.unknown`, so the registry stays bounded.
fn latency_histogram(op: &str) -> &'static eel_obs::Histogram {
    static KNOWN: OnceLock<Vec<(&str, eel_obs::Histogram)>> = OnceLock::new();
    let known = KNOWN.get_or_init(|| {
        CACHED_OPS
            .iter()
            .chain(&["edit", "ping", "metrics", "shutdown"])
            .map(|&name| (name, eel_obs::histogram(&format!("serve.latency.{name}"))))
            .collect()
    });
    known
        .iter()
        .find(|(name, _)| *name == op)
        .map_or_else(|| eel_obs::histogram!("serve.latency.unknown"), |(_, h)| h)
}

fn cached_op(shared: &Shared, op: &str, payload: &Payload) -> Response {
    let bytes: Cow<[u8]> = match payload {
        Payload::Inline(b) => Cow::Borrowed(b),
        Payload::Path(p) => match std::fs::read(p) {
            Ok(b) => Cow::Owned(b),
            Err(e) => return Response::Err(format!("cannot read {p}: {e}")),
        },
        Payload::Edit { .. } => {
            return Response::Err(format!("op {op:?} does not take an edit payload"))
        }
    };
    let hash = content_hash(&bytes);
    // Fragment accounting, the discovery source, and the machine tag
    // ride out of the compute closure through cells: all stay `None`
    // whenever a whole-image tier answered and the analysis never ran.
    // (A cached `stat` body still reports its discovery and machine
    // lines — both are part of the rendered result — so only the
    // wire-level annotation goes quiet on cache hits.)
    let frag_stats = std::cell::Cell::new(None);
    let disc = std::cell::Cell::new(None);
    let mach = std::cell::Cell::new(None);
    let resp = cached_result(shared, hash, op, op, || {
        let tier = SharedFragmentTier { shared };
        analyze(shared, hash, &bytes).and_then(|a| {
            disc.set(Some(match a.discovery() {
                eel_core::DiscoverySource::Symbols => Discovery::Symbols,
                eel_core::DiscoverySource::Inferred => Discovery::Inferred,
            }));
            mach.set(Some(a.machine()));
            let result = run_op_fragments(op, &a, 1, &tier);
            if let Some(k) = SHAPE_OPS.iter().position(|&o| o == op) {
                // This op's result is cached from now on; once every
                // CFG op's is, the image's shapes would only hold memory.
                a.finish_shape_reader(k, SHAPE_OPS.len());
            }
            charge_shapes(shared, hash);
            result.map(|(body, stats)| {
                if stats.total > 0 {
                    eel_obs::counter!("serve.cache.fragment.hit").add(u64::from(stats.hits));
                    eel_obs::counter!("serve.cache.fragment.miss")
                        .add(u64::from(stats.total - stats.hits));
                    frag_stats.set(Some((stats.hits, stats.total)));
                }
                body
            })
        })
    });
    match resp {
        Response::Ok { tier, body, .. } => Response::Ok {
            tier,
            body,
            fragments: frag_stats.get(),
            discovery: disc.get(),
            machine: mach.get(),
        },
        other => other,
    }
}

/// The per-routine fragment tier backing [`run_op_fragments`], layered
/// over the same storage as whole-image results: fragments live in the
/// shared result LRU under `(routine_key, "frag.<op>")` and spill to the
/// disk tier as `.eelf` sidecars. Loads and stores happen *inside* a
/// whole-image entry's single-flight compute, so they use the cache's
/// non-blocking [`SingleFlightLru::get`] / [`SingleFlightLru::insert`]
/// surface — joining the single-flight protocol here would self-deadlock.
struct SharedFragmentTier<'a> {
    shared: &'a Shared,
}

impl SharedFragmentTier<'_> {
    fn cache_key(key: u64, op: &str) -> (u64, String) {
        (key, format!("frag.{op}"))
    }
}

impl FragmentTier for SharedFragmentTier<'_> {
    fn load(&self, key: u64, op: &str) -> Option<Vec<u8>> {
        let cache_key = Self::cache_key(key, op);
        if let Some(Ok(body)) = self.shared.results.get(&cache_key) {
            return Some(body.to_vec());
        }
        // Memory missed: the disk tier gets a chance, and a hit is
        // promoted into the LRU like any whole-image disk hit.
        let disk = self.shared.disk.as_ref()?;
        let body = Arc::new(disk.load(key, &cache_key.1)?);
        let evicted = self.shared.results.insert(
            cache_key,
            Ok(Arc::clone(&body)),
            body.len(),
            CostClass::Expensive,
        );
        demote_evicted(self.shared, evicted);
        Some(body.to_vec())
    }

    fn store(&self, key: u64, op: &str, bytes: &[u8]) {
        eel_obs::counter!("serve.cache.fragment.write").add(1);
        let cache_key = Self::cache_key(key, op);
        if let Some(disk) = &self.shared.disk {
            // Write-through, like whole-image results: a restart serves
            // warm fragments without waiting for an eviction.
            disk.store(key, &cache_key.1, bytes);
        }
        let evicted = self.shared.results.insert(
            cache_key,
            Ok(Arc::new(bytes.to_vec())),
            bytes.len(),
            CostClass::Expensive,
        );
        demote_evicted(self.shared, evicted);
    }
}

/// Demotes a batch of LRU victims to the disk tier (outside the cache
/// lock) instead of discarding the work; evicted fragments additionally
/// count under `serve.cache.fragment.evict`. Content addressing makes
/// the store a cheap existence check for anything already spilled.
fn demote_evicted(shared: &Shared, evicted: Vec<((u64, String), CachedResult)>) {
    for ((h, op), value) in evicted {
        if op.starts_with("frag.") {
            eel_obs::counter!("serve.cache.fragment.evict").add(1);
        }
        if let (Some(disk), Ok(body)) = (&shared.disk, value) {
            disk.store(h, &op, &body);
        }
    }
}

/// The write path: a kind-2 payload carries `(wef, script)`; the result
/// is content-addressed by `(image_hash, "edit-{script_hash}")`, so
/// repeating the same patch fleet-wide is a cache hit on every tier.
fn cached_edit(shared: &Shared, payload: &Payload) -> Response {
    let Payload::Edit { wef, script } = payload else {
        return Response::Err("edit requires a kind-2 payload (wef bytes + script)".into());
    };
    let hash = content_hash(wef);
    let script_hash = content_hash(script.as_bytes());
    let op_key = format!("edit-{script_hash:016x}");
    cached_result(shared, hash, &op_key, "edit", || {
        analyze(shared, hash, wef).and_then(|a| {
            let result = run_edit(&a, script);
            // The script's builds and write-out fill the analysis' cells.
            charge_shapes(shared, hash);
            result
        })
    })
}

/// The shared cache plumbing for every op that flows through the
/// content-addressed LRU: memory first, then the disk spill tier, then
/// `compute` — with write-through, victim demotion, and hit/miss
/// accounting. `op_key` addresses the cache entry; `metric_op` names the
/// op in `serve.ops.{metric_op}.computed`.
fn cached_result(
    shared: &Shared,
    hash: u64,
    op_key: &str,
    metric_op: &str,
    compute: impl FnOnce() -> Result<Vec<u8>, String>,
) -> Response {
    let key = (hash, op_key.to_string());
    let mut from_disk = false;
    let (result, hit, evicted) = shared.results.get_or_compute(key, || {
        // Memory missed; the disk tier gets a chance before we pay for a
        // computation. A disk hit is promoted into the LRU by virtue of
        // being this closure's return value. Bodies are shrunk to fit
        // before they enter the LRU, which charges each entry its length:
        // spare capacity would be resident memory `--cache-bytes` never
        // counts.
        if let Some(disk) = &shared.disk {
            if let Some(mut body) = disk.load(hash, op_key) {
                from_disk = true;
                body.shrink_to_fit();
                let cost = body.len();
                return (Ok(Arc::new(body)), cost);
            }
        }
        COMPUTED.add(metric_op);
        let computed = compute().map(|mut body| {
            body.shrink_to_fit();
            Arc::new(body)
        });
        if let (Some(disk), Ok(body)) = (&shared.disk, &computed) {
            // Write-through: the entry survives a restart even if it is
            // never evicted. Errors stay memory-only — they may be
            // transient (an unreadable path) and are cheap to rebuild.
            disk.store(hash, op_key, body);
        }
        let cost = match &computed {
            Ok(body) => body.len(),
            Err(msg) => msg.len(),
        };
        (computed, cost)
    });
    demote_evicted(shared, evicted);
    if hit {
        eel_obs::counter!("serve.cache.hit").add(1);
    } else {
        eel_obs::counter!("serve.cache.miss").add(1);
    }
    let tier = if hit {
        CacheTier::Memory
    } else if from_disk {
        CacheTier::Disk
    } else {
        CacheTier::Computed
    };
    match result {
        Ok(body) => Response::Ok {
            tier,
            body: body.to_vec(),
            fragments: None,
            discovery: None,
            machine: None,
        },
        Err(msg) => Response::Err(msg),
    }
}

/// Loads + analyzes an image through the analysis cache, so the five ops
/// over one executable share a single discovery pass.
fn analyze(shared: &Shared, hash: u64, bytes: &[u8]) -> Result<Arc<Analysis>, String> {
    let (analysis, _hit, _evicted) = shared.analyses.get_or_compute(hash, || {
        let computed = Image::from_bytes(bytes)
            .map_err(|e| format!("bad WEF image: {e}"))
            .and_then(|image| {
                Analysis::compute(Arc::new(image)).map_err(|e| format!("analysis failed: {e}"))
            })
            .map(Arc::new);
        let cost = match &computed {
            Ok(a) => a.approx_bytes(),
            Err(msg) => msg.len(),
        };
        (computed, cost)
    });
    // An insertion may have evicted analyses and their shapes.
    publish_shapes_gauge(shared);
    analysis
}

/// Charges the CFG shapes an op just built into the analysis' cells to
/// the analysis cache, as the entry's separate growing term (the
/// analysis' own `approx_bytes` stays its insertion cost), and publishes
/// the `serve.mem.analysis_shapes_bytes` gauge.
fn charge_shapes(shared: &Shared, hash: u64) {
    let evicted = shared
        .analyses
        .recharge(&hash, |a| a.as_ref().map_or(0, |a| a.shape_bytes()));
    // Evicted analyses drop with their shapes; there is no slower tier.
    drop(evicted);
    publish_shapes_gauge(shared);
}

fn publish_shapes_gauge(shared: &Shared) {
    let bytes = shared.analyses.extra_bytes();
    eel_obs::gauge!("serve.mem.analysis_shapes_bytes").set(bytes as i64);
}

/// Renders the metrics registry as stable `kind name value` lines — what
/// the `metrics` op returns and eelctl prints.
fn render_metrics() -> String {
    let mut snap = eel_obs::MetricsSnapshot::capture();
    snap.counters.sort_by(|a, b| a.name.cmp(&b.name));
    snap.gauges.sort_by(|a, b| a.name.cmp(&b.name));
    snap.histograms.sort_by(|a, b| a.0.cmp(&b.0));
    let mut out = String::new();
    for c in &snap.counters {
        out.push_str(&format!("counter {} {}\n", c.name, c.value));
    }
    for g in &snap.gauges {
        out.push_str(&format!("gauge {} {}\n", g.name, g.value));
    }
    for (name, h) in &snap.histograms {
        out.push_str(&format!(
            "histogram {name} count={} sum={} max={}\n",
            h.count, h.sum, h.max
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_are_charged_then_released_once_every_shape_op_is_cached() {
        let server = Server::start(ServerConfig::default()).expect("start server");
        let shared = &server.shared;
        let wef = eel_cc::compile_str(
            "fn helper(x) { return x * 3 + 1; }
             fn main() { var i; var t = 0;
               for (i = 0; i < 5; i = i + 1) { t = t + helper(i); } return t; }",
            &eel_cc::Options::default(),
        )
        .expect("compile")
        .to_bytes();
        let hash = content_hash(&wef);
        let edit = Payload::Edit {
            wef: wef.clone(),
            script: "counter main\napply\n".into(),
        };
        let payload = Payload::Inline(wef);
        assert!(matches!(
            cached_op(shared, "disasm", &payload),
            Response::Ok { .. }
        ));
        let Some(Ok(analysis)) = shared.analyses.get(&hash) else {
            panic!("the analysis is cached")
        };
        let charged = shared.analyses.extra_bytes();
        assert_eq!(charged, analysis.shape_bytes(), "the shapes are charged");
        for op in ["cfg-summary", "liveness"] {
            assert!(matches!(
                cached_op(shared, op, &payload),
                Response::Ok { .. }
            ));
        }
        let solved = shared.analyses.extra_bytes();
        assert!(solved > charged, "the stored liveness is charged too");
        assert_eq!(solved, analysis.shape_bytes());
        assert!(matches!(
            cached_op(shared, "instrument", &payload),
            Response::Ok { .. }
        ));
        assert_eq!(
            analysis.shape_builds(),
            analysis.routines().len(),
            "the four ops built each routine once"
        );
        let released = shared.analyses.extra_bytes();
        assert!(released < charged, "{released} < {charged}");
        assert_eq!(
            released,
            analysis.shape_bytes(),
            "only the cell table stays"
        );
        assert_eq!(
            shared.analyses.bytes(),
            analysis.approx_bytes() + released,
            "approx_bytes stays the insertion cost"
        );
        // An edit after the release builds the shapes again, and they
        // are charged.
        assert!(matches!(cached_edit(shared, &edit), Response::Ok { .. }));
        let edited = shared.analyses.extra_bytes();
        assert!(edited > released, "{edited} > {released}");
        assert_eq!(
            edited,
            analysis.shape_bytes(),
            "the edit's shapes are charged"
        );
    }

    #[test]
    fn cached_bodies_hold_no_spare_capacity() {
        let server = Server::start(ServerConfig::default()).expect("start server");
        let shared = &server.shared;
        let resp = cached_result(shared, 7, "disasm", "disasm", || {
            let mut body = Vec::with_capacity(4096);
            body.extend_from_slice(b"short body");
            Ok(body)
        });
        assert!(matches!(resp, Response::Ok { .. }));
        let cached = shared.results.get(&(7, "disasm".to_string()));
        let Some(Ok(body)) = cached else {
            panic!("the body is cached")
        };
        assert_eq!(body.len(), 10);
        assert_eq!(body.capacity(), body.len());
    }

    #[test]
    fn results_evict_least_recently_used_first_whatever_the_op() {
        // A 100-byte result budget holds two of these 40-byte bodies.
        let config = ServerConfig {
            cache_bytes: 200,
            ..ServerConfig::default()
        };
        let server = Server::start(config).expect("start server");
        let shared = &server.shared;
        let body = || Ok(vec![b'x'; 40]);
        cached_result(shared, 1, "disasm", "disasm", body);
        cached_result(shared, 2, "stat", "stat", body);
        cached_result(shared, 3, "liveness", "liveness", body);
        assert!(shared.results.get(&(1, "disasm".to_string())).is_none());
        assert!(shared.results.get(&(2, "stat".to_string())).is_some());
        assert!(shared.results.get(&(3, "liveness".to_string())).is_some());
    }
}
