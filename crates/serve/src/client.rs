//! A blocking client for the eel-serve protocol.
//!
//! Two modes:
//!
//! * **One-shot** ([`Client::request`]): one connection per request,
//!   which keeps the server's bounded queue an honest measure of
//!   outstanding work.
//! * **Session** ([`Client::open_session`]): one connection carries many
//!   tagged requests, answered out of order as the server's workers
//!   finish; [`Client::batch`] wraps a whole request list in a
//!   sliding-window pipeline.
//!
//! A successful [`Response::Ok`] carries the [`crate::CacheTier`] that
//! served it (`Computed`, `Memory`, or `Disk`), so batch drivers and
//! scripts can tell a warm restart (disk hits) from a cold one
//! (recomputation) without scraping server metrics. The wire format is
//! documented in `docs/PROTOCOL.md`.

use crate::proto::{
    read_frame, write_frame, Payload, Request, Response, SessionFrame, SessionReply,
};
use std::io;
use std::net::TcpStream;
use std::time::Duration;

/// Capped exponential backoff with full jitter over the upper half of
/// each step — the shared retry pacing for every BUSY path (one-shot
/// resubmits, [`Client::batch`] window races, cluster failover).
///
/// Attempt `n` draws a delay uniformly from `[step/2, step]` where
/// `step = min(base << n, cap)`, so concurrent clients that got BUSY
/// together don't resubmit together, and no delay ever exceeds `cap`.
#[derive(Debug, Clone)]
pub struct Backoff {
    base: Duration,
    cap: Duration,
    attempt: u32,
    rng: u64,
}

impl Backoff {
    /// A backoff starting at `base` and never exceeding `cap`, seeded
    /// from the clock and pid so independent processes jitter apart.
    pub fn new(base: Duration, cap: Duration) -> Backoff {
        let clock = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.subsec_nanos() as u64 ^ d.as_secs())
            .unwrap_or(0x9e37_79b9);
        Backoff::with_seed(base, cap, clock ^ (u64::from(std::process::id()) << 32))
    }

    /// A deterministically seeded backoff (tests).
    pub fn with_seed(base: Duration, cap: Duration, seed: u64) -> Backoff {
        Backoff {
            base: base.max(Duration::from_micros(1)),
            cap: cap.max(base).max(Duration::from_micros(1)),
            attempt: 0,
            rng: seed | 1, // xorshift must not start at 0
        }
    }

    fn rng_next(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x
    }

    /// The next delay: attempt `n` is jittered over
    /// `[min(base·2ⁿ, cap)/2, min(base·2ⁿ, cap)]`.
    pub fn next_delay(&mut self) -> Duration {
        let step = self
            .base
            .saturating_mul(1u32.checked_shl(self.attempt).unwrap_or(u32::MAX))
            .min(self.cap);
        self.attempt = self.attempt.saturating_add(1);
        let span = (step / 2).as_nanos() as u64;
        let jitter = if span == 0 {
            0
        } else {
            self.rng_next() % (span + 1)
        };
        step / 2 + Duration::from_nanos(jitter)
    }

    /// Sleeps for [`Backoff::next_delay`].
    pub fn sleep(&mut self) {
        std::thread::sleep(self.next_delay());
    }

    /// Rewinds to the first step, for reuse after a success.
    pub fn reset(&mut self) {
        self.attempt = 0;
    }
}

/// A client handle — just an address plus an I/O timeout; each request
/// opens its own connection, so one handle is freely shared across
/// threads.
#[derive(Debug, Clone)]
pub struct Client {
    addr: String,
    timeout: Option<Duration>,
}

impl Client {
    /// A client for a server address (e.g. `127.0.0.1:7099`), with a
    /// 30-second I/O timeout.
    pub fn connect(addr: impl Into<String>) -> Client {
        Client {
            addr: addr.into(),
            timeout: Some(Duration::from_secs(30)),
        }
    }

    /// Replaces the per-request socket timeout (`None` blocks forever).
    #[must_use]
    pub fn with_timeout(mut self, timeout: Option<Duration>) -> Client {
        self.timeout = timeout;
        self
    }

    /// Sends one request and reads its response.
    ///
    /// # Errors
    ///
    /// Connection, I/O, timeout, or protocol-decoding failures. A
    /// [`Response::Busy`] or [`Response::Err`] is a *successful* exchange
    /// and comes back as `Ok`.
    pub fn request(&self, req: &Request) -> io::Result<Response> {
        let mut stream = TcpStream::connect(&self.addr)?;
        let _ = stream.set_nodelay(true);
        stream.set_read_timeout(self.timeout)?;
        stream.set_write_timeout(self.timeout)?;
        write_frame(&mut stream, &req.encode())?;
        let body = read_frame(&mut stream)?;
        Response::decode(&body)
    }

    /// Sends one request, transparently resubmitting on
    /// [`Response::Busy`] with jittered exponential backoff, up to
    /// `max_retries` resubmits. The final BUSY (budget exhausted) is
    /// returned as a normal response, like [`Client::request`] would.
    ///
    /// # Errors
    ///
    /// As [`Client::request`].
    pub fn request_with_retry(&self, req: &Request, max_retries: u32) -> io::Result<Response> {
        let mut backoff = Backoff::new(Duration::from_millis(5), Duration::from_millis(500));
        let mut attempts = 0;
        loop {
            let resp = self.request(req)?;
            if !matches!(resp, Response::Busy) || attempts >= max_retries {
                return Ok(resp);
            }
            attempts += 1;
            backoff.sleep();
        }
    }

    /// Convenience: sends `op` with `payload`.
    ///
    /// # Errors
    ///
    /// As [`Client::request`].
    pub fn op(&self, op: &str, payload: Payload) -> io::Result<Response> {
        self.request(&Request {
            op: op.into(),
            payload,
        })
    }

    /// Convenience: a payload-less control request (`ping`, `metrics`,
    /// `shutdown`).
    ///
    /// # Errors
    ///
    /// As [`Client::request`].
    pub fn control(&self, op: &str) -> io::Result<Response> {
        self.op(op, Payload::none())
    }

    /// Convenience: the write path. Ships `wef` plus an edit `script`
    /// and returns the server's response, whose `Ok` body is the edited
    /// WEF image.
    ///
    /// # Errors
    ///
    /// As [`Client::request`].
    pub fn edit(&self, wef: Vec<u8>, script: impl Into<String>) -> io::Result<Response> {
        self.op(
            "edit",
            Payload::Edit {
                wef,
                script: script.into(),
            },
        )
    }

    /// Opens a pipelined session: connects, sends `Hello` (a `window`
    /// of 0 requests the server's default), and waits for the
    /// `HelloAck`.
    ///
    /// # Errors
    ///
    /// Connection/I-O failures, or `InvalidData` when the peer does not
    /// speak the session protocol (a pre-session server rejects the
    /// version byte).
    pub fn open_session(&self, window: u32) -> io::Result<Session> {
        let mut stream = TcpStream::connect(&self.addr)?;
        // Pipelined small frames + Nagle + delayed ACK = 40ms stalls;
        // sessions are latency-bound, so flush segments eagerly.
        let _ = stream.set_nodelay(true);
        stream.set_read_timeout(self.timeout)?;
        stream.set_write_timeout(self.timeout)?;
        write_frame(&mut stream, &SessionFrame::Hello { window }.encode())?;
        let body = read_frame(&mut stream)?;
        match SessionReply::decode(&body)? {
            SessionReply::HelloAck { window } => Ok(Session {
                stream,
                window,
                next_id: 0,
            }),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected HelloAck, got {other:?}"),
            )),
        }
    }

    /// Runs `requests` through one session with a sliding in-flight
    /// window, returning the responses **in request order**. A tagged
    /// BUSY (in-flight window overflow — only possible when the client
    /// races the window) is retried transparently under the shared
    /// jittered [`Backoff`].
    ///
    /// # Errors
    ///
    /// As [`Client::open_session`], plus any mid-session I/O failure.
    pub fn batch(&self, requests: &[Request], window: u32) -> io::Result<Vec<Response>> {
        let mut session = self.open_session(window)?;
        let window = session.window() as usize;
        let mut responses: Vec<Option<Response>> = vec![None; requests.len()];
        let mut id_to_index = std::collections::HashMap::new();
        let mut backoff = Backoff::new(Duration::from_millis(1), Duration::from_millis(50));
        let mut next = 0usize;
        let mut done = 0usize;
        while done < requests.len() {
            while next < requests.len() && id_to_index.len() < window {
                let id = session.submit(&requests[next])?;
                id_to_index.insert(id, next);
                next += 1;
            }
            let (id, response) = session.recv()?;
            let Some(index) = id_to_index.remove(&id) else {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("response for unknown request id {id}"),
                ));
            };
            if matches!(response, Response::Busy) {
                // Window overflow: pace the resubmit so a racing window
                // doesn't become a BUSY livelock.
                backoff.sleep();
                let id = session.submit(&requests[index])?;
                id_to_index.insert(id, index);
                continue;
            }
            backoff.reset();
            responses[index] = Some(response);
            done += 1;
        }
        session.goodbye()?;
        Ok(responses
            .into_iter()
            .map(|r| r.expect("all responses filled"))
            .collect())
    }
}

/// One pipelined session connection (protocol version 2): submit many
/// tagged requests, receive tagged responses in **completion** order.
///
/// The session itself is deliberately low-level — [`Session::submit`]
/// and [`Session::recv`] map one-to-one onto wire frames, and keeping
/// more than [`Session::window`] requests in flight earns per-request
/// BUSY replies. [`Client::batch`] layers the bookkeeping (window
/// tracking, reordering, BUSY retry) on top.
#[derive(Debug)]
pub struct Session {
    stream: TcpStream,
    window: u32,
    next_id: u64,
}

impl Session {
    /// The in-flight window the server granted at the handshake.
    pub fn window(&self) -> u32 {
        self.window
    }

    /// Sends one tagged request without waiting for its response;
    /// returns the id that the matching [`Session::recv`] will carry.
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn submit(&mut self, request: &Request) -> io::Result<u64> {
        let id = self.next_id;
        self.next_id += 1;
        write_frame(
            &mut self.stream,
            &SessionFrame::Request {
                id,
                request: request.clone(),
            }
            .encode(),
        )?;
        Ok(id)
    }

    /// Receives the next tagged response, whichever request it answers.
    ///
    /// # Errors
    ///
    /// I/O failures, or a malformed reply frame.
    pub fn recv(&mut self) -> io::Result<(u64, Response)> {
        let body = read_frame(&mut self.stream)?;
        match SessionReply::decode(&body)? {
            SessionReply::Tagged { id, response } => Ok((id, response)),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected tagged response, got {other:?}"),
            )),
        }
    }

    /// Ends the session politely. The server finishes anything still in
    /// flight before closing; call after the last [`Session::recv`].
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn goodbye(&mut self) -> io::Result<()> {
        write_frame(&mut self.stream, &SessionFrame::Goodbye.encode())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_delays_stay_inside_jitter_bounds() {
        let base = Duration::from_millis(10);
        let cap = Duration::from_millis(200);
        let mut backoff = Backoff::with_seed(base, cap, 0xfeed_beef);
        for attempt in 0u32..20 {
            let step = base
                .saturating_mul(1u32.checked_shl(attempt).unwrap_or(u32::MAX))
                .min(cap);
            let d = backoff.next_delay();
            assert!(
                d >= step / 2 && d <= step,
                "attempt {attempt}: {d:?} outside [{:?}, {step:?}]",
                step / 2
            );
        }
    }

    #[test]
    fn backoff_never_exceeds_cap() {
        let cap = Duration::from_millis(80);
        let mut backoff = Backoff::with_seed(Duration::from_millis(1), cap, 42);
        for _ in 0..64 {
            assert!(backoff.next_delay() <= cap);
        }
        // Deep in the schedule every delay sits in the cap's upper half.
        assert!(backoff.next_delay() >= cap / 2);
    }

    #[test]
    fn backoff_jitters_and_resets() {
        let base = Duration::from_millis(16);
        let cap = Duration::from_secs(1);
        let mut a = Backoff::with_seed(base, cap, 1);
        let mut b = Backoff::with_seed(base, cap, 2);
        let seq_a: Vec<_> = (0..8).map(|_| a.next_delay()).collect();
        let seq_b: Vec<_> = (0..8).map(|_| b.next_delay()).collect();
        assert_ne!(seq_a, seq_b, "different seeds draw different jitter");

        a.reset();
        let first_again = a.next_delay();
        assert!(
            first_again <= base,
            "reset rewinds to the first step, got {first_again:?}"
        );
    }
}
