//! A content-addressed, single-flight LRU cache.
//!
//! The server's artifacts (parsed [`eel_core::Analysis`] objects, rendered
//! operation results) are deterministic functions of the input bytes, so
//! they are keyed by content hash and shared freely. Two properties
//! matter under concurrency:
//!
//! * **Single-flight**: when an identical request arrives while the first
//!   one is still computing, the newcomer blocks on the in-flight slot and
//!   receives the shared result instead of starting a duplicate
//!   computation.
//! * **Byte budget**: entries carry a cost; when the total exceeds the
//!   budget the least-recently-used entries are evicted (the most recent
//!   insertion always survives, even if it alone exceeds the budget, so
//!   a hot oversized artifact still dedupes).
//! * **A growing term**: an entry whose value keeps growing after
//!   insertion (an analysis whose CFG shapes fill in as ops run) is
//!   re-charged with [`SingleFlightLru::recharge`]. That second term is
//!   budgeted like the first but tracked apart
//!   ([`SingleFlightLru::extra_bytes`]), so the insertion cost stays what
//!   the value reported when it was computed.

use std::collections::{HashMap, VecDeque};
use std::hash::Hash;
use std::sync::{Condvar, Mutex};

/// 64-bit FNV-1a over a byte slice: the cache's content address. Not
/// cryptographic — this dedupes cooperative clients, it does not defend
/// against adversarial collisions.
pub fn content_hash(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The type of [`SingleFlightLru::insert`]'s ignored last argument. It
/// stays until the benchmark, which passes it, drops it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostClass {
    /// The one value.
    Expensive,
}

enum Slot<V> {
    /// Someone is computing this entry; waiters sleep on the condvar.
    InFlight,
    /// Computed, resident, costing `cost + extra` bytes of the budget
    /// (`extra` is the [`SingleFlightLru::recharge`] term).
    Ready { value: V, cost: usize, extra: usize },
}

struct Inner<K, V> {
    slots: HashMap<K, Slot<V>>,
    /// Ready keys, least recently used at the front.
    order: VecDeque<K>,
    bytes: usize,
    /// The resident entries' recharge terms (part of `bytes`).
    extra: usize,
}

/// The cache. `V` is cloned out on every hit, so in practice it is an
/// `Arc` (or a small `Result` wrapping one).
pub struct SingleFlightLru<K: Eq + Hash + Clone, V: Clone> {
    budget: usize,
    inner: Mutex<Inner<K, V>>,
    ready: Condvar,
}

impl<K: Eq + Hash + Clone, V: Clone> SingleFlightLru<K, V> {
    /// An empty cache with a byte budget.
    pub fn new(budget: usize) -> SingleFlightLru<K, V> {
        SingleFlightLru {
            budget,
            inner: Mutex::new(Inner {
                slots: HashMap::new(),
                order: VecDeque::new(),
                bytes: 0,
                extra: 0,
            }),
            ready: Condvar::new(),
        }
    }

    /// Returns the cached value for `key`, or runs `compute` to fill it.
    /// `compute` returns the value and its budget cost in bytes. The
    /// boolean is `true` when the value was served without running
    /// `compute` here — an LRU hit or a join onto an in-flight
    /// computation. The returned list holds the entries this insertion
    /// evicted, so the caller can demote them to a slower tier (eel-serve
    /// spills them to the disk cache) instead of discarding the work; it
    /// is empty on a hit or a join, and is collected under the lock but
    /// returned for processing outside it, so demotion I/O never blocks
    /// other requests.
    ///
    /// If `compute` panics, the in-flight slot is cleared and waiters
    /// retry, so one poisoned request cannot wedge the cache.
    pub fn get_or_compute(
        &self,
        key: K,
        compute: impl FnOnce() -> (V, usize),
    ) -> (V, bool, Vec<(K, V)>) {
        let mut inner = self.inner.lock().expect("cache lock poisoned");
        loop {
            match inner.slots.get(&key) {
                Some(Slot::Ready { value, .. }) => {
                    let value = value.clone();
                    let pos = inner.order.iter().position(|k| *k == key);
                    if let Some(pos) = pos {
                        let k = inner.order.remove(pos).expect("position in range");
                        inner.order.push_back(k);
                    }
                    return (value, true, Vec::new());
                }
                Some(Slot::InFlight) => {
                    inner = self.ready.wait(inner).expect("cache lock poisoned");
                }
                None => break,
            }
        }
        inner.slots.insert(key.clone(), Slot::InFlight);
        drop(inner);

        struct ClearOnPanic<'a, K: Eq + Hash + Clone, V: Clone> {
            cache: &'a SingleFlightLru<K, V>,
            key: K,
            armed: bool,
        }
        impl<K: Eq + Hash + Clone, V: Clone> Drop for ClearOnPanic<'_, K, V> {
            fn drop(&mut self) {
                if self.armed {
                    let mut inner = self.cache.inner.lock().expect("cache lock poisoned");
                    inner.slots.remove(&self.key);
                    self.cache.ready.notify_all();
                }
            }
        }
        let mut guard = ClearOnPanic {
            cache: self,
            key: key.clone(),
            armed: true,
        };
        let (value, cost) = compute();
        guard.armed = false;

        let mut inner = self.inner.lock().expect("cache lock poisoned");
        inner.slots.insert(
            key.clone(),
            Slot::Ready {
                value: value.clone(),
                cost,
                extra: 0,
            },
        );
        inner.order.push_back(key);
        inner.bytes += cost;
        let evicted = Self::evict_over_budget(&mut inner, self.budget);
        self.ready.notify_all();
        (value, false, evicted)
    }

    /// Evicts least-recently-used entries until the budget holds (the
    /// newest entry is always spared). Returns the victims for demotion.
    fn evict_over_budget(inner: &mut Inner<K, V>, budget: usize) -> Vec<(K, V)> {
        let mut evicted = Vec::new();
        while inner.bytes > budget && inner.order.len() > 1 {
            let victim = inner.order.pop_front().expect("order holds two keys");
            if let Some(Slot::Ready { value, cost, extra }) = inner.slots.remove(&victim) {
                inner.bytes -= cost + extra;
                inner.extra -= extra;
                evicted.push((victim, value));
            }
        }
        evicted
    }

    /// A plain non-blocking lookup: clones the value out and refreshes
    /// the key's LRU position if ready; returns `None` otherwise —
    /// including for a key that is merely in flight (this never waits).
    /// The fragment tier probes with this inside another entry's
    /// single-flight compute, where blocking would risk deadlock.
    pub fn get(&self, key: &K) -> Option<V> {
        let mut inner = self.inner.lock().expect("cache lock poisoned");
        match inner.slots.get(key) {
            Some(Slot::Ready { value, .. }) => {
                let value = value.clone();
                let pos = inner.order.iter().position(|k| k == key);
                if let Some(pos) = pos {
                    let k = inner.order.remove(pos).expect("position in range");
                    inner.order.push_back(k);
                }
                Some(value)
            }
            _ => None,
        }
    }

    /// A plain insertion (no single-flight protocol): stores the value,
    /// replacing any previous *ready* entry under the key, and returns
    /// what the insertion evicted for demotion. If the key is in flight
    /// the insertion yields — the computing thread publishes its own
    /// result momentarily, the same last-writer-wins outcome. Fragment
    /// writes use this: they happen *inside* a whole-image entry's
    /// compute, where joining the single-flight protocol would
    /// self-deadlock (fragment keys never go through
    /// [`SingleFlightLru::get_or_compute`], so in practice the in-flight
    /// arm never triggers for them).
    ///
    /// `_class` is ignored; it stays until the benchmark, which passes it,
    /// drops it.
    pub fn insert(&self, key: K, value: V, cost: usize, _class: CostClass) -> Vec<(K, V)> {
        let mut inner = self.inner.lock().expect("cache lock poisoned");
        let old_cost = match inner.slots.get(&key) {
            Some(Slot::InFlight) => return Vec::new(),
            Some(Slot::Ready { cost, extra, .. }) => Some((*cost, *extra)),
            None => None,
        };
        if let Some((old_cost, old_extra)) = old_cost {
            // Replace in place: budget swaps the old cost for the new;
            // LRU position refreshes.
            inner.bytes -= old_cost + old_extra;
            inner.extra -= old_extra;
            let pos = inner.order.iter().position(|k| *k == key);
            if let Some(pos) = pos {
                let k = inner.order.remove(pos).expect("position in range");
                inner.order.push_back(k);
            }
        } else {
            inner.order.push_back(key.clone());
        }
        inner.slots.insert(
            key,
            Slot::Ready {
                value,
                cost,
                extra: 0,
            },
        );
        inner.bytes += cost;
        Self::evict_over_budget(&mut inner, self.budget)
    }

    /// Sets the recharge term of a resident entry to `extra(value)`,
    /// computed under the cache lock (so of two racing recharges of a
    /// growing value the later one wins), refreshes its LRU position,
    /// and evicts to fit. A key that is not resident charges nothing.
    /// Returns the evicted entries, as [`SingleFlightLru::insert`] does.
    pub fn recharge(&self, key: &K, extra: impl FnOnce(&V) -> usize) -> Vec<(K, V)> {
        let mut inner = self.inner.lock().expect("cache lock poisoned");
        let Some(Slot::Ready {
            value, extra: old, ..
        }) = inner.slots.get_mut(key)
        else {
            return Vec::new();
        };
        let (old, new) = (*old, extra(value));
        if let Some(Slot::Ready { extra, .. }) = inner.slots.get_mut(key) {
            *extra = new;
        }
        inner.bytes = inner.bytes - old + new;
        inner.extra = inner.extra - old + new;
        let pos = inner.order.iter().position(|k| k == key);
        if let Some(pos) = pos {
            let k = inner.order.remove(pos).expect("position in range");
            inner.order.push_back(k);
        }
        Self::evict_over_budget(&mut inner, self.budget)
    }

    /// The resident entries' recharge terms, in bytes (included in
    /// [`SingleFlightLru::bytes`]).
    pub fn extra_bytes(&self) -> usize {
        self.inner.lock().expect("cache lock poisoned").extra
    }

    /// Bytes currently charged against the budget.
    pub fn bytes(&self) -> usize {
        self.inner.lock().expect("cache lock poisoned").bytes
    }

    /// Number of resident (ready) entries.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("cache lock poisoned").order.len()
    }

    /// Is the cache empty of resident entries?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn hit_after_miss() {
        let cache: SingleFlightLru<u64, Arc<String>> = SingleFlightLru::new(1 << 20);
        let (v, hit, _) = cache.get_or_compute(1, || (Arc::new("a".into()), 8));
        assert!(!hit);
        assert_eq!(*v, "a");
        let (v, hit, _) = cache.get_or_compute(1, || unreachable!("must not recompute"));
        assert!(hit);
        assert_eq!(*v, "a");
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.bytes(), 8);
    }

    #[test]
    fn lru_eviction_respects_budget_and_recency() {
        let cache: SingleFlightLru<u64, u64> = SingleFlightLru::new(100);
        cache.get_or_compute(1, || (1, 40));
        cache.get_or_compute(2, || (2, 40));
        // Touch 1 so 2 becomes the LRU victim.
        cache.get_or_compute(1, || unreachable!());
        cache.get_or_compute(3, || (3, 40));
        assert!(cache.bytes() <= 100);
        let (_, hit1, _) = cache.get_or_compute(1, || (1, 40));
        let (_, hit2, _) = cache.get_or_compute(2, || (2, 40));
        assert!(hit1, "recently touched entry survived");
        assert!(!hit2, "LRU entry was evicted");
    }

    #[test]
    fn oversized_entry_still_resident() {
        let cache: SingleFlightLru<u64, u64> = SingleFlightLru::new(10);
        let (_, _, evicted) = cache.get_or_compute(1, || (1, 1000));
        assert!(evicted.is_empty());
        let (_, hit, _) = cache.get_or_compute(1, || unreachable!());
        assert!(hit, "newest entry survives even over budget");
    }

    #[test]
    fn single_flight_dedupes_concurrent_computes() {
        let cache: Arc<SingleFlightLru<u64, u64>> = Arc::new(SingleFlightLru::new(1 << 20));
        let computes = Arc::new(AtomicUsize::new(0));
        let mut joined = Vec::new();
        for _ in 0..8 {
            let cache = Arc::clone(&cache);
            let computes = Arc::clone(&computes);
            joined.push(std::thread::spawn(move || {
                cache.get_or_compute(7, || {
                    computes.fetch_add(1, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_millis(30));
                    (99, 8)
                })
            }));
        }
        let results: Vec<(u64, bool)> = joined
            .into_iter()
            .map(|j| {
                let (v, hit, _) = j.join().unwrap();
                (v, hit)
            })
            .collect();
        assert_eq!(computes.load(Ordering::SeqCst), 1, "exactly one compute");
        assert!(results.iter().all(|(v, _)| *v == 99));
        assert_eq!(
            results.iter().filter(|(_, hit)| !hit).count(),
            1,
            "exactly one miss; the rest joined or hit"
        );
    }

    #[test]
    fn panic_in_compute_releases_waiters() {
        let cache: Arc<SingleFlightLru<u64, u64>> = Arc::new(SingleFlightLru::new(1 << 20));
        let c2 = Arc::clone(&cache);
        let panicker = std::thread::spawn(move || {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                c2.get_or_compute(5, || panic!("boom"))
            }));
            assert!(result.is_err());
        });
        panicker.join().unwrap();
        // The slot must be clear: a later request computes fresh.
        let (v, hit, _) = cache.get_or_compute(5, || (42, 8));
        assert!(!hit);
        assert_eq!(v, 42);
    }

    #[test]
    fn eviction_hands_back_demotable_entries() {
        let cache: SingleFlightLru<u64, u64> = SingleFlightLru::new(100);
        cache.get_or_compute(1, || (11, 60));
        let (_, hit, evicted) = cache.get_or_compute(1, || unreachable!());
        assert!(hit);
        assert!(evicted.is_empty(), "hits evict nothing");
        let (_, _, evicted) = cache.get_or_compute(2, || (22, 60));
        assert_eq!(evicted, vec![(1, 11)], "victim returned for demotion");
        assert!(cache.bytes() <= 100);
    }

    #[test]
    fn get_is_nonblocking_and_touches_lru() {
        let cache: SingleFlightLru<u64, u64> = SingleFlightLru::new(100);
        assert_eq!(cache.get(&1), None, "absent key misses");
        cache.insert(1, 11, 40, CostClass::Expensive);
        cache.insert(2, 22, 40, CostClass::Expensive);
        assert_eq!(cache.get(&1), Some(11));
        // The get refreshed 1's recency, so overflowing evicts 2 first.
        let evicted = cache.insert(3, 33, 40, CostClass::Expensive);
        assert_eq!(evicted, vec![(2, 22)]);
        assert_eq!(cache.get(&1), Some(11));
        assert_eq!(cache.get(&2), None);
    }

    #[test]
    fn get_misses_on_in_flight_key_instead_of_waiting() {
        let cache: Arc<SingleFlightLru<u64, u64>> = Arc::new(SingleFlightLru::new(100));
        let peer = Arc::clone(&cache);
        let worker = std::thread::spawn(move || {
            peer.get_or_compute(7, || {
                std::thread::sleep(std::time::Duration::from_millis(60));
                (99, 8)
            })
        });
        std::thread::sleep(std::time::Duration::from_millis(15));
        // The compute is still running: a plain get must return
        // immediately rather than join the single-flight wait.
        assert_eq!(cache.get(&7), None);
        worker.join().unwrap();
        assert_eq!(cache.get(&7), Some(99));
    }

    #[test]
    fn insert_replaces_in_place_and_swaps_budget() {
        let cache: SingleFlightLru<u64, u64> = SingleFlightLru::new(100);
        cache.insert(1, 11, 60, CostClass::Expensive);
        assert_eq!(cache.bytes(), 60);
        let evicted = cache.insert(1, 12, 90, CostClass::Expensive);
        assert!(evicted.is_empty(), "replacement swaps cost, no eviction");
        assert_eq!(cache.bytes(), 90);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(&1), Some(12));
    }

    #[test]
    fn insert_yields_to_in_flight_compute() {
        let cache: Arc<SingleFlightLru<u64, u64>> = Arc::new(SingleFlightLru::new(100));
        let peer = Arc::clone(&cache);
        let worker = std::thread::spawn(move || {
            peer.get_or_compute(7, || {
                std::thread::sleep(std::time::Duration::from_millis(60));
                (99, 8)
            })
        });
        std::thread::sleep(std::time::Duration::from_millis(15));
        let evicted = cache.insert(7, 1, 8, CostClass::Expensive);
        assert!(evicted.is_empty());
        worker.join().unwrap();
        // The in-flight compute's publication wins.
        assert_eq!(cache.get(&7), Some(99));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn content_hash_distinguishes_and_is_stable() {
        assert_eq!(content_hash(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(content_hash(b"a"), content_hash(b"b"));
        assert_eq!(content_hash(b"abc"), content_hash(b"abc"));
    }
}
