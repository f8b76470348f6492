//! The closed-loop load generator: each connection sends its next
//! request only when a reply slot is free, like `eelctl`, a build
//! pipeline or a batch client waiting on the daemon.

use crate::daemon::{one_shot, Session};
use eel_serve::{Backoff, Response};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Resubmits of a request the daemon answered BUSY before it counts as
/// failed.
const MAX_BUSY_RETRIES: u32 = 8;

/// One request of a workload's stream.
pub struct Req {
    /// The request's index in the workload's stream, for the checks.
    pub id: usize,
    /// An encoded v1 request body.
    pub body: Arc<Vec<u8>>,
}

/// A workload's request stream and its reply checks.
pub trait Source: Sync {
    /// The next request for connection `conn`; `None` when the stream
    /// is used up.
    fn next(&self, conn: usize) -> Option<Req>;
    /// Judges the body of a successful reply; `false` counts the request
    /// as failed.
    fn accept(&self, req: &Req, body: Vec<u8>) -> bool;
}

/// How one connection talks to the daemon.
#[derive(Clone, Copy, Debug)]
pub enum Mode {
    /// A fresh v1 connection per request.
    OneShot,
    /// One v2 session keeping up to `window` requests in flight.
    Session { window: u32 },
}

impl Mode {
    pub fn describe(self) -> String {
        match self {
            Mode::OneShot => "v1 one-shot".into(),
            Mode::Session { window } => format!("v2 session, window {window}"),
        }
    }
}

/// What the timed phase saw.
#[derive(Default)]
pub struct Tally {
    /// Client latency of every successful request, in milliseconds.
    pub latencies_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// BUSY replies that were retried.
    pub busy_retries: u64,
    /// The first few failure reasons.
    pub errors: Vec<String>,
}

impl Tally {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(why);
        }
    }

    fn record(
        &mut self,
        source: &dyn Source,
        req: &Req,
        reply: std::io::Result<Response>,
        t0: Instant,
    ) {
        let latency = t0.elapsed().as_secs_f64() * 1e3;
        self.attempted += 1;
        match reply {
            Ok(Response::Ok { body, .. }) => {
                if source.accept(req, body) {
                    self.latencies_ms.push(latency);
                } else {
                    self.fail(format!("request {}: reply failed the output check", req.id));
                }
            }
            Ok(Response::Err(msg)) => self.fail(format!("request {}: error reply: {msg}", req.id)),
            Ok(Response::Busy) => self.fail(format!("request {}: BUSY after retries", req.id)),
            Err(e) => self.fail(format!("request {}: {e}", req.id)),
        }
    }

    fn merge(&mut self, other: Tally) {
        self.latencies_ms.extend(other.latencies_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.busy_retries += other.busy_retries;
        for e in other.errors {
            if self.errors.len() < 5 {
                self.errors.push(e);
            }
        }
    }
}

fn backoff() -> Backoff {
    Backoff::new(Duration::from_millis(1), Duration::from_millis(50))
}

fn one_shot_loop(addr: &str, conn: usize, source: &dyn Source, deadline: Instant) -> Tally {
    let mut tally = Tally::default();
    while Instant::now() < deadline {
        let Some(req) = source.next(conn) else { break };
        let t0 = Instant::now();
        let mut pacing = backoff();
        let mut busy = 0;
        let reply = loop {
            match one_shot(addr, &req.body) {
                Ok(Response::Busy) if busy < MAX_BUSY_RETRIES => {
                    busy += 1;
                    pacing.sleep();
                }
                other => break other,
            }
        };
        tally.busy_retries += u64::from(busy);
        tally.record(source, &req, reply, t0);
    }
    tally
}

fn session_loop(
    addr: &str,
    conn: usize,
    window: u32,
    source: &dyn Source,
    deadline: Instant,
) -> Tally {
    let mut tally = Tally::default();
    let mut session = match Session::open(addr, window) {
        Ok(s) => s,
        Err(e) => {
            tally.attempted += 1;
            tally.fail(format!("session open: {e}"));
            return tally;
        }
    };
    let window = session.window.min(window).max(1) as usize;
    let mut inflight: HashMap<u64, (Req, Instant, u32)> = HashMap::new();
    let mut next_id = 0u64;
    let mut used_up = false;
    let mut pacing = backoff();
    loop {
        while !used_up && inflight.len() < window && Instant::now() < deadline {
            let Some(req) = source.next(conn) else {
                used_up = true;
                break;
            };
            let t0 = Instant::now();
            if let Err(e) = session.submit(next_id, &req.body) {
                tally.attempted += 1 + inflight.len() as u64;
                tally.failed += inflight.len() as u64;
                tally.fail(format!("session submit: {e}"));
                return tally;
            }
            inflight.insert(next_id, (req, t0, 0));
            next_id += 1;
        }
        if inflight.is_empty() {
            break;
        }
        let (id, reply) = match session.recv() {
            Ok(r) => r,
            Err(e) => {
                tally.attempted += inflight.len() as u64;
                tally.failed += inflight.len().saturating_sub(1) as u64;
                tally.fail(format!("session recv: {e}"));
                return tally;
            }
        };
        let Some((req, t0, busy)) = inflight.remove(&id) else {
            tally.attempted += 1;
            tally.fail(format!("reply for unknown request id {id}"));
            continue;
        };
        if matches!(reply, Response::Busy) && busy < MAX_BUSY_RETRIES {
            tally.busy_retries += 1;
            pacing.sleep();
            if session.submit(next_id, &req.body).is_ok() {
                inflight.insert(next_id, (req, t0, busy + 1));
                next_id += 1;
                continue;
            }
        }
        pacing.reset();
        tally.record(source, &req, Ok(reply), t0);
    }
    session.goodbye();
    tally
}

/// Runs one closed-loop connection per `modes` entry against `addr`
/// until `seconds` pass or the stream is used up, then drains what is
/// in flight. Returns the merged tally and the phase's wall time.
pub fn run(addr: &str, modes: &[Mode], source: &dyn Source, seconds: f64) -> (Tally, Duration) {
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let tallies: Vec<Tally> = std::thread::scope(|s| {
        let handles: Vec<_> = modes
            .iter()
            .enumerate()
            .map(|(conn, &mode)| {
                s.spawn(move || match mode {
                    Mode::OneShot => one_shot_loop(addr, conn, source, deadline),
                    Mode::Session { window } => session_loop(addr, conn, window, source, deadline),
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let elapsed = started.elapsed();
    let mut total = Tally::default();
    for t in tallies {
        total.merge(t);
    }
    (total, elapsed)
}
