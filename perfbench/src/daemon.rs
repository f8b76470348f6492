//! The `eelserved` child process and the client side of its wire
//! protocol, as the load generator drives it.

use eel_serve::{read_frame, write_frame, Request, Response, SessionFrame, SessionReply};
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// I/O timeout for every benchmark socket.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// A running daemon. Dropping it kills the process and waits for it.
pub struct Daemon {
    child: Child,
    pub addr: String,
}

impl Daemon {
    /// Starts `binary` on an ephemeral loopback port with `flags` added
    /// to its defaults, and waits for its `listening on` line.
    pub fn start(binary: &str, flags: &[String]) -> io::Result<Daemon> {
        let mut child = Command::new(binary)
            .arg("--addr")
            .arg("127.0.0.1:0")
            .args(flags)
            // The daemon's own default: eel-obs forced to summary mode.
            .env_remove("EEL_OBS")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut line = String::new();
        BufReader::new(stdout).read_line(&mut line)?;
        let Some(addr) = line.trim().strip_prefix("eelserved: listening on ") else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(io::Error::other(format!(
                "eelserved did not start: {line:?}"
            )));
        };
        Ok(Daemon {
            addr: addr.to_string(),
            child,
        })
    }

    /// Reads one field (`VmHWM`, `VmRSS`) of the daemon's
    /// `/proc/<pid>/status`, in KiB.
    pub fn status_kb(&self, field: &str) -> Option<u64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        status
            .lines()
            .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
            .and_then(|v| v.split_whitespace().next()?.parse().ok())
    }

    /// The daemon's `metrics` op, parsed.
    pub fn metrics(&self) -> io::Result<Metrics> {
        let body = Request {
            op: "metrics".into(),
            payload: eel_serve::Payload::none(),
        }
        .encode();
        match one_shot(&self.addr, &body)? {
            Response::Ok { body, .. } => Ok(Metrics::parse(&String::from_utf8_lossy(&body))),
            other => Err(io::Error::other(format!("metrics: {other:?}"))),
        }
    }

    /// Asks the daemon to shut down and waits for it to exit.
    pub fn shutdown(mut self) {
        let body = Request {
            op: "shutdown".into(),
            payload: eel_serve::Payload::none(),
        }
        .encode();
        let _ = one_shot(&self.addr, &body);
        let deadline = Instant::now() + Duration::from_secs(20);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        // Drop kills what did not exit in time.
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One reading of the daemon's metrics registry.
#[derive(Default, Clone)]
pub struct Metrics {
    pub counters: HashMap<String, u64>,
    /// Histogram `(count, sum)` pairs.
    pub histograms: HashMap<String, (u64, u64)>,
}

impl Metrics {
    fn parse(text: &str) -> Metrics {
        let mut m = Metrics::default();
        for line in text.lines() {
            let mut parts = line.split_whitespace();
            match (parts.next(), parts.next()) {
                (Some("counter"), Some(name)) => {
                    if let Some(v) = parts.next().and_then(|v| v.parse().ok()) {
                        m.counters.insert(name.to_string(), v);
                    }
                }
                (Some("histogram"), Some(name)) => {
                    let field = |key: &str, parts: &[&str]| -> u64 {
                        parts
                            .iter()
                            .find_map(|p| p.strip_prefix(key)?.parse().ok())
                            .unwrap_or(0)
                    };
                    let rest: Vec<&str> = parts.collect();
                    m.histograms.insert(
                        name.to_string(),
                        (field("count=", &rest), field("sum=", &rest)),
                    );
                }
                _ => {}
            }
        }
        m
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sum of every counter whose name starts with `prefix` and ends
    /// with `suffix`.
    pub fn counter_sum(&self, prefix: &str, suffix: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(k, _)| k.starts_with(prefix) && k.ends_with(suffix))
            .map(|(_, v)| v)
            .sum()
    }

    /// `self - before`, counter by counter and histogram by histogram.
    pub fn since(&self, before: &Metrics) -> Metrics {
        Metrics {
            counters: self
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v.saturating_sub(before.counter(k))))
                .collect(),
            histograms: self
                .histograms
                .iter()
                .map(|(k, &(c, s))| {
                    let (c0, s0) = before.histograms.get(k).copied().unwrap_or((0, 0));
                    (k.clone(), (c.saturating_sub(c0), s.saturating_sub(s0)))
                })
                .collect(),
        }
    }
}

fn connect(addr: &str) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    Ok(stream)
}

/// One v1 exchange on a fresh connection: `body` is an encoded
/// [`Request`].
pub fn one_shot(addr: &str, body: &[u8]) -> io::Result<Response> {
    let mut stream = connect(addr)?;
    write_frame(&mut stream, body)?;
    Response::decode(&read_frame(&mut stream)?)
}

/// A v2 session connection that sends pre-encoded v1 request bodies as
/// tagged frames without copying them.
pub struct Session {
    stream: TcpStream,
    pub window: u32,
}

impl Session {
    pub fn open(addr: &str, window: u32) -> io::Result<Session> {
        let mut stream = connect(addr)?;
        write_frame(&mut stream, &SessionFrame::Hello { window }.encode())?;
        match SessionReply::decode(&read_frame(&mut stream)?)? {
            SessionReply::HelloAck { window } => Ok(Session { stream, window }),
            other => Err(io::Error::other(format!(
                "expected HelloAck, got {other:?}"
            ))),
        }
    }

    /// Sends the v1 request `body` as the tagged frame `id`: a session
    /// request frame is the v1 body with its version byte replaced by
    /// `2, 1, id`.
    pub fn submit(&mut self, id: u64, body: &[u8]) -> io::Result<()> {
        let fields = &body[1..];
        let len = (10 + fields.len()) as u32;
        let mut head = Vec::with_capacity(14);
        head.extend_from_slice(&len.to_be_bytes());
        head.extend_from_slice(&[eel_serve::SESSION_VERSION, 1]);
        head.extend_from_slice(&id.to_be_bytes());
        self.stream.write_all(&head)?;
        self.stream.write_all(fields)?;
        self.stream.flush()
    }

    pub fn recv(&mut self) -> io::Result<(u64, Response)> {
        match SessionReply::decode(&read_frame(&mut self.stream)?)? {
            SessionReply::Tagged { id, response } => Ok((id, response)),
            other => Err(io::Error::other(format!(
                "expected a tagged reply, got {other:?}"
            ))),
        }
    }

    pub fn goodbye(mut self) {
        let _ = write_frame(&mut self.stream, &SessionFrame::Goodbye.encode());
    }
}
