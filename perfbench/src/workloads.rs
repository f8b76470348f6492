//! The three workloads: their inputs, daemon flags, warm-up, request
//! streams and reply checks.

use crate::check::{self, Served};
use crate::corpus::{self, mix, Item, Rng};
use crate::daemon::{one_shot, Daemon};
use crate::load::{Mode, Req, Source};
use eel_serve::{Payload, Request, Response, CACHED_OPS};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

pub const NAMES: [&str; 3] = ["cold-mix", "warm-hits", "near-dup-edit"];

/// One reply in this many is kept for the cold-recompute check.
const SAMPLE_EVERY: u64 = 8;

/// cold-mix images per second of timed phase. The stream must outlast
/// the phase: about 1.5 times what the daemon gets through today. A
/// daemon fast enough to use it up ends the phase early (the report says
/// so) rather than repeat an image.
const COLD_IMAGES_PER_SECOND: f64 = 45.0;

/// Images drawn for the cold-mix warm-up; they never recur in the
/// timed stream.
const COLD_WARMUP_IMAGES: usize = 4;

/// near-dup-edit base images.
const DUP_BASES: usize = 8;

/// The counter-insertion script of the `edit` requests.
pub const EDIT_SCRIPT: &str = "counter main\ncounter f0\ncounter f1\napply\n";

/// The warm-hits daemon's `--cache-bytes`: far above the working set, so
/// nothing is evicted.
const WARM_CACHE_BYTES: u64 = 1 << 30;

/// A workload ready for its timed phase.
pub struct Prepared {
    pub daemon: Daemon,
    pub modes: Vec<Mode>,
    pub source: Box<dyn Workload>,
}

/// A workload's request stream, plus what it knows about its inputs.
pub trait Workload: Source + Send {
    /// The images this workload's requests carry, for the replay.
    fn items(&self) -> &[Item];
    /// The sampled served bodies the timed phase kept, in seeded order.
    fn take_served(&self) -> Vec<Served>;
    /// True when the stream ran out before the phase's time did.
    fn used_up(&self) -> bool;
}

/// The encoded v1 request for `op` on the image `wef`.
fn request(op: &str, wef: &[u8]) -> Arc<Vec<u8>> {
    let payload = if op == "edit" {
        Payload::Edit {
            wef: wef.to_vec(),
            script: EDIT_SCRIPT.into(),
        }
    } else {
        Payload::Inline(wef.to_vec())
    };
    Arc::new(
        Request {
            op: op.into(),
            payload,
        }
        .encode(),
    )
}

/// Sends `work` over two v1 connections and returns every reply body.
fn send_all(addr: &str, work: &[Arc<Vec<u8>>]) -> Result<Vec<Vec<u8>>, String> {
    let next = AtomicUsize::new(0);
    let bodies = Mutex::new(vec![Vec::new(); work.len()]);
    let failed = Mutex::new(None);
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(body) = work.get(i) else { break };
                match one_shot(addr, body) {
                    Ok(Response::Ok { body, .. }) => bodies.lock().expect("bodies lock")[i] = body,
                    other => {
                        *failed.lock().expect("failed lock") =
                            Some(format!("warm-up request {i}: {other:?}"));
                        break;
                    }
                }
            });
        }
    });
    match failed.into_inner().expect("failed lock") {
        Some(e) => Err(e),
        None => Ok(bodies.into_inner().expect("bodies lock")),
    }
}

/// Builds the inputs, starts the daemon and warms it up.
pub fn prepare(name: &str, seed: u64, seconds: f64, binary: &str) -> Result<Prepared, String> {
    match name {
        "cold-mix" => ColdMix::prepare(seed, seconds, binary),
        "warm-hits" => WarmHits::prepare(seed, binary),
        "near-dup-edit" => NearDup::prepare(seed, binary),
        other => Err(format!(
            "unknown workload {other:?} (expected one of {NAMES:?})"
        )),
    }
}

fn sampled(seed: u64, id: usize) -> bool {
    mix(seed, id as u64).is_multiple_of(SAMPLE_EVERY)
}

fn sorted(mut served: Vec<Served>) -> Vec<Served> {
    served.sort_by_key(|s| s.id);
    served
}

/// cold-mix: distinct images, each with all five cached ops in a
/// shuffled order, as v1 one-shots. Every request computes.
struct ColdMix {
    seed: u64,
    items: Vec<Item>,
    stream: Vec<(usize, &'static str)>,
    next: AtomicUsize,
    kept: Mutex<Vec<Served>>,
}

impl ColdMix {
    fn prepare(seed: u64, seconds: f64, binary: &str) -> Result<Prepared, String> {
        let count = (seconds * COLD_IMAGES_PER_SECOND).ceil() as usize + COLD_WARMUP_IMAGES;
        let mut items = corpus::cold_mix(seed, count);
        let warmup: Vec<Item> = items.drain(..COLD_WARMUP_IMAGES.min(items.len())).collect();
        let mut rng = Rng::new(mix(seed, 0x0b5));
        let mut stream = Vec::with_capacity(items.len() * CACHED_OPS.len());
        for i in 0..items.len() {
            let mut ops: Vec<&'static str> = CACHED_OPS.to_vec();
            rng.shuffle(&mut ops);
            stream.extend(ops.into_iter().map(|op| (i, op)));
        }
        let daemon = Daemon::start(binary, &[]).map_err(|e| e.to_string())?;
        let work: Vec<_> = warmup
            .iter()
            .flat_map(|item| CACHED_OPS.iter().map(move |op| request(op, &item.wef)))
            .collect();
        send_all(&daemon.addr, &work)?;
        Ok(Prepared {
            daemon,
            modes: vec![Mode::OneShot, Mode::OneShot],
            source: Box::new(ColdMix {
                seed,
                items,
                stream,
                next: AtomicUsize::new(0),
                kept: Mutex::new(Vec::new()),
            }),
        })
    }
}

impl Source for ColdMix {
    fn next(&self, _conn: usize) -> Option<Req> {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let &(i, op) = self.stream.get(id)?;
        Some(Req {
            id,
            body: request(op, &self.items[i].wef),
        })
    }

    fn accept(&self, req: &Req, body: Vec<u8>) -> bool {
        if sampled(self.seed, req.id) {
            let (i, op) = self.stream[req.id];
            self.kept.lock().expect("kept lock").push(Served {
                id: req.id,
                wef: Arc::clone(&self.items[i].wef),
                op,
                body,
            });
        }
        true
    }
}

impl Workload for ColdMix {
    fn items(&self) -> &[Item] {
        &self.items
    }

    fn take_served(&self) -> Vec<Served> {
        sorted(std::mem::take(&mut *self.kept.lock().expect("kept lock")))
    }

    fn used_up(&self) -> bool {
        self.next.load(Ordering::Relaxed) >= self.stream.len()
    }
}

/// warm-hits: a fixed working set of images × five ops, precomputed in
/// set-up; the timed phase only ever hits the memory tier.
struct WarmHits {
    seed: u64,
    items: Vec<Item>,
    pairs: Vec<Pair>,
    /// The pair with the largest reply.
    heaviest: usize,
    rngs: Vec<Mutex<Rng>>,
}

/// warm-hits sends the heaviest pair once in this many requests.
const HEAVIEST_EVERY: usize = 32;

/// One `(image, op)` of the warm-hits working set.
struct Pair {
    item: usize,
    op: &'static str,
    request: Arc<Vec<u8>>,
    /// The reply the daemon computed in set-up.
    expected: Vec<u8>,
}

impl WarmHits {
    fn prepare(seed: u64, binary: &str) -> Result<Prepared, String> {
        let items = corpus::warm_set(seed);
        let keys: Vec<(usize, &'static str)> = (0..items.len())
            .flat_map(|i| CACHED_OPS.iter().map(move |&op| (i, op)))
            .collect();
        let work: Vec<_> = keys
            .iter()
            .map(|&(i, op)| request(op, &items[i].wef))
            .collect();
        let flags = ["--cache-bytes".to_string(), WARM_CACHE_BYTES.to_string()];
        let daemon = Daemon::start(binary, &flags).map_err(|e| e.to_string())?;
        let computed = send_all(&daemon.addr, &work)?;
        // A second pass takes the memory-hit path once before timing.
        let again = send_all(&daemon.addr, &work)?;
        if again != computed {
            return Err("warm-hits: a memory hit differs from the computed reply".into());
        }
        let pairs = keys
            .into_iter()
            .zip(work)
            .zip(computed)
            .map(|(((item, op), request), expected)| Pair {
                item,
                op,
                request,
                expected,
            })
            .collect::<Vec<_>>();
        let heaviest = (0..pairs.len())
            .max_by_key(|&i| pairs[i].expected.len())
            .unwrap_or(0);
        Ok(Prepared {
            daemon,
            modes: vec![Mode::Session { window: 8 }, Mode::OneShot],
            source: Box::new(WarmHits {
                seed,
                items,
                pairs,
                heaviest,
                rngs: (0..2)
                    .map(|c| Mutex::new(Rng::new(mix(seed, 0x3a7 + c))))
                    .collect(),
            }),
        })
    }
}

impl Source for WarmHits {
    /// Uniform over the pairs, except that one request in
    /// [`HEAVIEST_EVERY`] is the pair with the largest reply. Uniform
    /// alone gives that pair 1/120 of the requests, which put the p99 on
    /// the cliff between it and the next-largest reply; at 1/32 the p99
    /// falls inside its own latency distribution.
    fn next(&self, conn: usize) -> Option<Req> {
        let mut rng = self.rngs[conn].lock().expect("rng lock");
        let pick = if rng.below(HEAVIEST_EVERY) == 0 {
            self.heaviest
        } else {
            rng.below(self.pairs.len())
        };
        Some(Req {
            id: pick,
            body: Arc::clone(&self.pairs[pick].request),
        })
    }

    fn accept(&self, req: &Req, body: Vec<u8>) -> bool {
        body == self.pairs[req.id].expected
    }
}

impl Workload for WarmHits {
    fn items(&self) -> &[Item] {
        &self.items
    }

    /// Every timed reply was compared with the set-up reply; a seeded
    /// sample of those, and every `instrument` reply, is checked against
    /// a cold recompute.
    fn take_served(&self) -> Vec<Served> {
        self.pairs
            .iter()
            .enumerate()
            .filter(|(id, p)| sampled(self.seed, *id) || p.op == "instrument")
            .map(|(id, p)| Served {
                id,
                wef: Arc::clone(&self.items[p.item].wef),
                op: p.op,
                body: p.expected.clone(),
            })
            .collect()
    }

    fn used_up(&self) -> bool {
        false
    }
}

/// near-dup-edit: one-routine twins of a few many-routine bases, each
/// sent as `disasm`, `instrument` and `edit` over v2 sessions. The
/// whole-image cache always misses; the fragment tier serves the
/// unchanged routines.
struct NearDup {
    seed: u64,
    bases: Vec<Item>,
    routines: Vec<usize>,
    conns: Vec<Mutex<DupConn>>,
    kept: Mutex<Vec<Served>>,
}

/// A connection's place in its own twin sequence: connection `c` of
/// `n` takes twins `c`, `c + n`, `c + 2n`, … so the stream does not
/// depend on timing.
struct DupConn {
    next_twin: usize,
    pending: Vec<(usize, &'static str, Arc<Vec<u8>>)>,
    wefs: HashMap<usize, Arc<Vec<u8>>>,
}

const DUP_OPS: [&str; 3] = ["disasm", "instrument", "edit"];

impl NearDup {
    fn prepare(seed: u64, binary: &str) -> Result<Prepared, String> {
        let bases = corpus::dup_bases(seed, DUP_BASES, check::EMU_STEP_LIMIT);
        let routines = bases
            .iter()
            .map(|b| corpus::mutable_routines(&b.image))
            .collect();
        let daemon = Daemon::start(binary, &[]).map_err(|e| e.to_string())?;
        let work: Vec<_> = bases
            .iter()
            .flat_map(|b| DUP_OPS.iter().map(move |op| request(op, &b.wef)))
            .collect();
        send_all(&daemon.addr, &work)?;
        let conns = (0..2)
            .map(|c| {
                Mutex::new(DupConn {
                    next_twin: c,
                    pending: Vec::new(),
                    wefs: HashMap::new(),
                })
            })
            .collect();
        Ok(Prepared {
            daemon,
            modes: vec![Mode::Session { window: 2 }, Mode::Session { window: 2 }],
            source: Box::new(NearDup {
                seed,
                bases,
                routines,
                conns,
                kept: Mutex::new(Vec::new()),
            }),
        })
    }
}

impl Source for NearDup {
    fn next(&self, conn: usize) -> Option<Req> {
        let mut state = self.conns[conn].lock().expect("conn lock");
        if state.pending.is_empty() {
            let t = state.next_twin;
            state.next_twin += self.conns.len();
            let b = t % self.bases.len();
            let image = corpus::twin(&self.bases[b].image, self.routines[b], t / self.bases.len());
            let wef = Arc::new(image.to_bytes());
            if sampled(self.seed, t) {
                state.wefs.insert(t, Arc::clone(&wef));
            }
            let mut ops: Vec<_> = DUP_OPS
                .iter()
                .enumerate()
                .map(|(j, &op)| (t * DUP_OPS.len() + j, op, request(op, &wef)))
                .collect();
            ops.reverse();
            state.pending = ops;
        }
        let (id, _, body) = state.pending.pop()?;
        Some(Req { id, body })
    }

    fn accept(&self, req: &Req, body: Vec<u8>) -> bool {
        let t = req.id / DUP_OPS.len();
        if sampled(self.seed, t) {
            let conn = t % self.conns.len();
            let wef = self.conns[conn]
                .lock()
                .expect("conn lock")
                .wefs
                .get(&t)
                .cloned();
            if let Some(wef) = wef {
                self.kept.lock().expect("kept lock").push(Served {
                    id: req.id,
                    wef,
                    op: DUP_OPS[req.id % DUP_OPS.len()],
                    body,
                });
            }
        }
        true
    }
}

impl Workload for NearDup {
    fn items(&self) -> &[Item] {
        &self.bases
    }

    fn take_served(&self) -> Vec<Served> {
        sorted(std::mem::take(&mut *self.kept.lock().expect("kept lock")))
    }

    fn used_up(&self) -> bool {
        false
    }
}
