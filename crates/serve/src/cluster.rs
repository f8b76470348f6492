//! Client-side consistent-hash routing across a fleet of eel-serve
//! shards.
//!
//! A cluster is just N independent daemons; nothing changes on the wire
//! or between servers. The client hashes each request's *image* (the
//! same content hash the server caches under) onto a ring of virtual
//! nodes — [`VNODES_PER_SHARD`] points per shard, placed by hashing
//! `"addr|vnode"` — and sends the request to the shard owning the first
//! point at or clockwise of the key. The placement is therefore:
//!
//! * **deterministic** — every client with the same shard list routes
//!   the same image to the same shard, independent of list order,
//!   process, or time;
//! * **cache-local** — one image's whole op family (`disasm`, `stat`,
//!   `instrument`, edits, …) lands on one shard, whose memory/disk/
//!   fragment caches stay hot for its slice of the keyspace;
//! * **stable under resizing** — vnodes move only the keys adjacent to
//!   the points a joining/leaving shard owns, ~1/N of the space.
//!
//! Failover is the ring's natural successor order: a shard that cannot
//! be reached is skipped and the request goes to the next *distinct*
//! shard clockwise, logged and counted under `serve.cluster.failover`.
//! Results stay byte-identical wherever they land — every shard runs the
//! same deterministic analyses, a mis-placed request only costs a cache
//! miss. Routing is entirely client-side (`docs/PROTOCOL.md`): a v1 or
//! session peer cannot tell a cluster client from a direct one.

use crate::cache::content_hash;
use crate::client::{Backoff, Client};
use crate::proto::{Payload, Request, Response};
use std::io;
use std::time::Duration;

/// Virtual nodes per shard on the hash ring. 64 keeps the largest /
/// smallest arc ratio low (typically <1.5× at 3 shards) while the ring
/// stays a few hundred entries — binary-searchable in nanoseconds.
pub const VNODES_PER_SHARD: usize = 64;

/// How many times a BUSY one-shot is resubmitted (with jittered backoff)
/// before the BUSY is handed to the caller.
const BUSY_RETRIES: u32 = 5;

/// Finalizer (splitmix64) applied to every hash before it goes on the
/// ring. FNV-1a diffuses *low* bits well but short inputs (paths, tiny
/// images, vnode labels) leave the high bits — which dominate ring
/// ordering — in a narrow band; without this mix a ring's arcs and the
/// keys routed at it can all cluster on one shard.
fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// A consistent-hash routing client over N eel-serve shards.
///
/// Cheap to clone; holds no connections between one-shot requests (like
/// [`Client`]); [`ClusterClient::batch`] holds one session per shard for
/// the duration of the batch.
#[derive(Debug, Clone)]
pub struct ClusterClient {
    shards: Vec<Client>,
    addrs: Vec<String>,
    /// `(point, shard)` sorted by point — the ring.
    ring: Vec<(u64, usize)>,
}

impl ClusterClient {
    /// A cluster client for a list of shard addresses. Ring placement
    /// depends only on the *set* of addresses (the list is sorted
    /// first), so differently ordered configs route identically.
    ///
    /// # Panics
    ///
    /// With an empty address list — a cluster of zero shards routes
    /// nothing.
    pub fn connect(addrs: impl IntoIterator<Item = impl Into<String>>) -> ClusterClient {
        let mut addrs: Vec<String> = addrs.into_iter().map(Into::into).collect();
        assert!(!addrs.is_empty(), "cluster needs at least one shard");
        addrs.sort();
        addrs.dedup();
        let mut ring = Vec::with_capacity(addrs.len() * VNODES_PER_SHARD);
        for (shard, addr) in addrs.iter().enumerate() {
            for v in 0..VNODES_PER_SHARD {
                ring.push((mix(content_hash(format!("{addr}|{v}").as_bytes())), shard));
            }
        }
        ring.sort_unstable();
        let shards = addrs.iter().map(Client::connect).collect();
        ClusterClient {
            shards,
            addrs,
            ring,
        }
    }

    /// Replaces the per-request socket timeout on every shard client.
    #[must_use]
    pub fn with_timeout(mut self, timeout: Option<Duration>) -> ClusterClient {
        self.shards = self
            .shards
            .into_iter()
            .map(|c| c.with_timeout(timeout))
            .collect();
        self
    }

    /// The shard addresses, in ring-construction (sorted) order.
    pub fn addrs(&self) -> &[String] {
        &self.addrs
    }

    /// The routing key of a request: the content hash of the image it
    /// operates on — [`Payload::Inline`] hashes the WEF bytes (the
    /// server's cache key for it), [`Payload::Edit`] hashes the WEF
    /// being edited, [`Payload::Path`] hashes the path string (the
    /// client never reads the file; a path names one image, so one
    /// shard's ops cache stays hot for it). Payload-less control ops
    /// hash the op name, pinning them arbitrarily-but-deterministically.
    pub fn routing_key(req: &Request) -> u64 {
        match &req.payload {
            Payload::Inline(b) if b.is_empty() => content_hash(req.op.as_bytes()),
            Payload::Inline(b) => content_hash(b),
            Payload::Path(p) => content_hash(p.as_bytes()),
            Payload::Edit { wef, .. } => content_hash(wef),
        }
    }

    /// The shard a request routes to: the owner of the first ring point
    /// at or clockwise of the routing key.
    pub fn shard_for(&self, req: &Request) -> usize {
        self.shard_at(Self::routing_key(req))
    }

    fn shard_at(&self, key: u64) -> usize {
        let point = mix(key);
        let at = self.ring.partition_point(|&(p, _)| p < point);
        self.ring[at % self.ring.len()].1
    }

    /// Every distinct shard in ring order starting at the key's owner —
    /// element 0 is the primary, the rest is the failover chain.
    fn successors(&self, key: u64) -> Vec<usize> {
        let point = mix(key);
        let start = self.ring.partition_point(|&(p, _)| p < point);
        let mut order = Vec::with_capacity(self.shards.len());
        for i in 0..self.ring.len() {
            let shard = self.ring[(start + i) % self.ring.len()].1;
            if !order.contains(&shard) {
                order.push(shard);
                if order.len() == self.shards.len() {
                    break;
                }
            }
        }
        order
    }

    /// Sends one request to its shard, failing over clockwise around
    /// the ring when a shard is unreachable; BUSY is resubmitted with
    /// jittered backoff before failing over. Deterministic: a healthy
    /// primary always serves its own keys.
    ///
    /// # Errors
    ///
    /// The last shard's error once every shard in the chain has failed.
    pub fn request(&self, req: &Request) -> io::Result<Response> {
        let chain = self.successors(Self::routing_key(req));
        let mut last_err: Option<io::Error> = None;
        for (hop, shard) in chain.into_iter().enumerate() {
            match self.shards[shard].request_with_retry(req, BUSY_RETRIES) {
                Ok(resp) => return Ok(resp),
                Err(e) => {
                    if hop + 1 < self.shards.len() {
                        eel_obs::counter!("serve.cluster.failover").add(1);
                        eprintln!(
                            "eel-cluster: shard {} unreachable ({e}), failing over",
                            self.addrs[shard]
                        );
                    }
                    last_err = Some(e);
                }
            }
        }
        Err(last_err.expect("at least one shard attempted"))
    }

    /// Convenience: routes `op` on `payload`.
    ///
    /// # Errors
    ///
    /// As [`ClusterClient::request`].
    pub fn op(&self, op: &str, payload: Payload) -> io::Result<Response> {
        self.request(&Request {
            op: op.into(),
            payload,
        })
    }

    /// Runs a payload-less control op (`ping`, `metrics`, `shutdown`)
    /// on **every** shard — control is fleet-wide, not routable — and
    /// returns `(addr, result)` per shard in address order. Unreachable
    /// shards report their error; the healthy rest still answer.
    pub fn control_each(&self, op: &str) -> Vec<(String, io::Result<Response>)> {
        self.addrs
            .iter()
            .zip(&self.shards)
            .map(|(addr, client)| (addr.clone(), client.control(op)))
            .collect()
    }

    /// Runs `requests` through per-shard pipelined sessions — one
    /// session per involved shard, executed concurrently — and returns
    /// the responses **in request order**, exactly like
    /// [`Client::batch`]. A shard that cannot be reached fails its
    /// group over to the ring successors (re-opening the session
    /// there); responses stay byte-identical because every shard
    /// computes the same results.
    ///
    /// # Errors
    ///
    /// The first group whose entire failover chain failed.
    pub fn batch(&self, requests: &[Request], window: u32) -> io::Result<Vec<Response>> {
        // Group request indices by primary shard, preserving order
        // within each group.
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); self.shards.len()];
        let mut keys = Vec::with_capacity(requests.len());
        for (i, req) in requests.iter().enumerate() {
            let key = Self::routing_key(req);
            keys.push(key);
            groups[self.shard_at(key)].push(i);
        }
        let mut responses: Vec<Option<Response>> = Vec::new();
        responses.resize_with(requests.len(), || None);
        let slots = Mutexed::new(&mut responses);
        std::thread::scope(|scope| -> io::Result<()> {
            let mut handles = Vec::new();
            for (shard, group) in groups.iter().enumerate() {
                if group.is_empty() {
                    continue;
                }
                let slots = &slots;
                let keys = &keys;
                handles.push(scope.spawn(move || -> io::Result<()> {
                    let reqs: Vec<Request> = group.iter().map(|&i| requests[i].clone()).collect();
                    let answers = self.batch_group(shard, keys[group[0]], &reqs, window)?;
                    let mut slots = slots.lock();
                    for (&i, resp) in group.iter().zip(answers) {
                        slots[i] = Some(resp);
                    }
                    Ok(())
                }));
            }
            for h in handles {
                h.join().expect("cluster batch thread panicked")?;
            }
            Ok(())
        })?;
        Ok(responses
            .into_iter()
            .map(|r| r.expect("all responses filled"))
            .collect())
    }

    /// One shard group's batch, with ring-successor failover and one
    /// paced retry against a primary that refused the connection.
    fn batch_group(
        &self,
        primary: usize,
        key: u64,
        reqs: &[Request],
        window: u32,
    ) -> io::Result<Vec<Response>> {
        let mut backoff = Backoff::new(Duration::from_millis(5), Duration::from_millis(250));
        let chain = {
            let mut c = self.successors(key);
            // The group was keyed by the primary; make sure it leads
            // even if key sat exactly on a boundary.
            c.retain(|&s| s != primary);
            c.insert(0, primary);
            c
        };
        let mut last_err: Option<io::Error> = None;
        for (hop, shard) in chain.into_iter().enumerate() {
            match self.shards[shard].batch(reqs, window) {
                Ok(r) => return Ok(r),
                Err(e) if e.kind() == io::ErrorKind::ConnectionRefused && hop == 0 => {
                    // The primary's host refused the TCP connect: the
                    // shard is down or not listening yet (a restart).
                    // One paced retry before abandoning its warm caches.
                    backoff.sleep();
                    match self.shards[shard].batch(reqs, window) {
                        Ok(r) => return Ok(r),
                        Err(e2) => {
                            eel_obs::counter!("serve.cluster.failover").add(1);
                            eprintln!(
                                "eel-cluster: shard {} unavailable ({e2}), failing over",
                                self.addrs[shard]
                            );
                            last_err = Some(e2);
                        }
                    }
                    let _ = e;
                }
                Err(e) => {
                    if hop + 1 < self.shards.len() {
                        eel_obs::counter!("serve.cluster.failover").add(1);
                        eprintln!(
                            "eel-cluster: shard {} unreachable ({e}), failing over",
                            self.addrs[shard]
                        );
                    }
                    last_err = Some(e);
                }
            }
        }
        Err(last_err.expect("at least one shard attempted"))
    }
}

/// A minimal named wrapper so the scoped batch threads share the
/// response slots without exposing `Mutex` plumbing in the signatures.
struct Mutexed<T>(std::sync::Mutex<T>);

impl<T> Mutexed<T> {
    fn new(v: T) -> Mutexed<T> {
        Mutexed(std::sync::Mutex::new(v))
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, T> {
        self.0.lock().expect("cluster batch slots poisoned")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(bytes: &[u8]) -> Request {
        Request {
            op: "stat".into(),
            payload: Payload::Inline(bytes.to_vec()),
        }
    }

    #[test]
    fn routing_is_deterministic_and_order_independent() {
        let a = ClusterClient::connect(["h1:1", "h2:2", "h3:3"]);
        let b = ClusterClient::connect(["h3:3", "h1:1", "h2:2"]);
        for n in 0u32..200 {
            let r = req(&n.to_be_bytes());
            assert_eq!(
                a.addrs()[a.shard_for(&r)],
                b.addrs()[b.shard_for(&r)],
                "image {n} routes to the same shard regardless of config order"
            );
        }
    }

    #[test]
    fn every_op_on_one_image_shares_a_shard() {
        let c = ClusterClient::connect(["h1:1", "h2:2", "h3:3"]);
        let wef = b"pretend-wef-image".to_vec();
        let stat = req(&wef);
        let disasm = Request {
            op: "disasm".into(),
            payload: Payload::Inline(wef.clone()),
        };
        let edit = Request {
            op: "edit".into(),
            payload: Payload::Edit {
                wef,
                script: "count edges".into(),
            },
        };
        let home = c.shard_for(&stat);
        assert_eq!(home, c.shard_for(&disasm));
        assert_eq!(home, c.shard_for(&edit), "edit routes by the wef it edits");
    }

    #[test]
    fn ring_spreads_keys_over_all_shards() {
        let c = ClusterClient::connect(["h1:1", "h2:2", "h3:3"]);
        let mut counts = [0usize; 3];
        for n in 0u32..3000 {
            counts[c.shard_at(content_hash(&n.to_be_bytes()))] += 1;
        }
        for (shard, &n) in counts.iter().enumerate() {
            assert!(
                n > 3000 / 3 / 3,
                "shard {shard} owns a degenerate slice: {counts:?}"
            );
        }
    }

    #[test]
    fn successors_visit_every_shard_once() {
        let c = ClusterClient::connect(["h1:1", "h2:2", "h3:3", "h4:4"]);
        for n in 0u32..50 {
            let mut chain = c.successors(content_hash(&n.to_be_bytes()));
            assert_eq!(chain.len(), 4);
            chain.sort_unstable();
            assert_eq!(chain, vec![0, 1, 2, 3]);
        }
    }
}
