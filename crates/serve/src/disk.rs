//! The on-disk spill tier for the eel-serve result cache.
//!
//! `Ready` result entries from the in-memory LRU spill to a cache
//! directory, one file per `(content hash, op)`, so a daemon restart or
//! an LRU eviction costs a disk read instead of a re-analysis. The tier
//! is strictly a second chance: every lookup goes memory first, disk
//! second, compute last, and a disk hit is promoted back into the LRU by
//! the caller.
//!
//! Two entry populations share the directory and the byte budget:
//! whole-image results (`.eelc`, hash = image content hash) and
//! per-routine analysis fragments (`.eelf`, ops prefixed `frag.`, hash =
//! routine content key). The format below is identical for both; only
//! the suffix differs, so operators can size each population at a
//! glance.
//!
//! **Entry format** (all integers big-endian):
//!
//! ```text
//! offset size  field
//! 0      4     magic "EELC"
//! 4      2     format version (= DISK_FORMAT_VERSION)
//! 6      2     op length N
//! 8      8     FNV-1a content hash of the WEF image
//! 16     8     FNV-1a checksum of the payload
//! 24     4     payload length M
//! 28     N     op name (utf-8)
//! 28+N   M     payload (the rendered op result)
//! ```
//!
//! A file whose magic, version, op, hash, length, or checksum does not
//! match what the filename promises is *stale or corrupt*: it is counted
//! (`serve.cache.disk.corrupt`), deleted, and treated as a miss, so the
//! entry is recomputed and rewritten in the current format. Truncated
//! files (a crash mid-write of some future non-atomic writer) fail the
//! length check the same way.
//!
//! **Crash safety**: entries are written to a `.tmp` sibling, fsynced,
//! then renamed into place — readers never observe a half-written entry
//! under the final name. Leftover `.tmp` files from a previous crash are
//! swept on open.
//!
//! **Budget**: after each write a janitor prunes the directory
//! oldest-first (by modification time) until the total is within the
//! byte budget; the just-written entry always survives, mirroring the
//! in-memory LRU's "newest insertion is never the victim" rule.
//!
//! **Degraded mode**: if the directory cannot be created or a write
//! fails, the tier warns to stderr once, flips itself off, and the
//! server keeps serving memory-only — a broken disk must never take the
//! service down.

use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Instant, SystemTime};

use crate::cache::content_hash;

/// Version of the on-disk entry format. Bump it whenever the header or
/// payload encoding changes; readers ignore (and rewrite) entries
/// carrying any other version.
pub const DISK_FORMAT_VERSION: u16 = 1;

/// Magic bytes opening every cache entry file.
const MAGIC: [u8; 4] = *b"EELC";

/// Fixed header length in front of the op name and payload.
const HEADER_LEN: usize = 28;

/// Filename suffix for committed whole-image result entries; anything
/// the janitor and the scanner don't recognize is ignored.
const ENTRY_SUFFIX: &str = ".eelc";

/// Filename suffix for per-routine fragment sidecars (ops carrying the
/// `frag.` prefix, keyed by routine content key instead of image hash).
/// A distinct suffix keeps the two populations visible to operators —
/// `ls *.eelf` shows exactly the fragment tier — while the janitor and
/// budget treat both uniformly.
const FRAGMENT_SUFFIX: &str = ".eelf";

/// The on-disk suffix an op's entries are committed under.
fn suffix_for(op: &str) -> &'static str {
    if op.starts_with("frag.") {
        FRAGMENT_SUFFIX
    } else {
        ENTRY_SUFFIX
    }
}

/// Is this filename a committed cache entry (either population)?
fn is_entry_name(name: &str) -> bool {
    name.ends_with(ENTRY_SUFFIX) || name.ends_with(FRAGMENT_SUFFIX)
}

/// The disk tier. One instance per server, shared across workers; all
/// methods take `&self` and are safe to call concurrently (the worst
/// race is two workers writing the same content-addressed entry, which
/// is idempotent by construction).
pub struct DiskCache {
    dir: PathBuf,
    budget: u64,
    /// Set once a fatal I/O error flips the tier off.
    degraded: AtomicBool,
}

impl DiskCache {
    /// Opens (creating if needed) a cache directory with a byte budget.
    ///
    /// Never fails: an unusable directory yields a degraded instance
    /// that answers every load with `None` and drops every store, after
    /// warning once on stderr — the server keeps serving memory-only.
    pub fn open(dir: impl Into<PathBuf>, budget: u64) -> DiskCache {
        let cache = DiskCache {
            dir: dir.into(),
            budget,
            degraded: AtomicBool::new(false),
        };
        if let Err(e) = cache.prepare_dir() {
            cache.degrade(&format!(
                "cannot open cache dir {}: {e}",
                cache.dir.display()
            ));
        }
        cache
    }

    fn prepare_dir(&self) -> io::Result<()> {
        fs::create_dir_all(&self.dir)?;
        // Sweep temp files a crashed writer left behind, then publish the
        // initial retained size.
        let mut total = 0u64;
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.contains(".tmp") {
                let _ = fs::remove_file(entry.path());
            } else if is_entry_name(&name) {
                total += entry.metadata().map(|m| m.len()).unwrap_or(0);
            }
        }
        eel_obs::gauge!("serve.cache.disk.bytes").set(total as i64);
        Ok(())
    }

    /// The cache directory this tier spills into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Has a fatal I/O error flipped the tier off?
    pub fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::Relaxed)
    }

    /// Warns once, then silences the tier for the rest of the process.
    fn degrade(&self, why: &str) {
        if !self.degraded.swap(true, Ordering::Relaxed) {
            eprintln!("eelserved: disk cache disabled, serving memory-only: {why}");
        }
    }

    fn entry_path(&self, hash: u64, op: &str) -> PathBuf {
        self.dir.join(format!("{hash:016x}.{op}{}", suffix_for(op)))
    }

    /// Looks up `(hash, op)`. `Some` is a validated payload
    /// (`serve.cache.disk.hit`); `None` is a miss
    /// (`serve.cache.disk.miss`), which includes stale/corrupt entries
    /// (`serve.cache.disk.corrupt` additionally increments and the file
    /// is deleted so the recompute rewrites it cleanly).
    pub fn load(&self, hash: u64, op: &str) -> Option<Vec<u8>> {
        if self.is_degraded() {
            return None;
        }
        let started = Instant::now();
        let path = self.entry_path(hash, op);
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(_) => {
                eel_obs::counter!("serve.cache.disk.miss").add(1);
                return None;
            }
        };
        match decode_entry(&bytes, hash, op) {
            Some(payload) => {
                eel_obs::counter!("serve.cache.disk.hit").add(1);
                eel_obs::histogram!("serve.latency.disk.load")
                    .record(started.elapsed().as_micros() as u64);
                Some(payload)
            }
            None => {
                eel_obs::counter!("serve.cache.disk.corrupt").add(1);
                eel_obs::counter!("serve.cache.disk.miss").add(1);
                let _ = fs::remove_file(&path);
                self.publish_bytes();
                None
            }
        }
    }

    /// Spills `(hash, op) → payload`, then prunes the directory to the
    /// byte budget. A no-op if the entry already exists (entries are
    /// content-addressed, so same key means same payload) or the tier is
    /// degraded. A write failure degrades the tier instead of erroring:
    /// the result is already in memory and the response must not fail on
    /// a full disk.
    pub fn store(&self, hash: u64, op: &str, payload: &[u8]) {
        if self.is_degraded() {
            return;
        }
        let path = self.entry_path(hash, op);
        if path.exists() {
            return;
        }
        let started = Instant::now();
        if let Err(e) = self.write_entry(&path, hash, op, payload) {
            self.degrade(&format!("cannot write {}: {e}", path.display()));
            return;
        }
        eel_obs::counter!("serve.cache.disk.write").add(1);
        eel_obs::histogram!("serve.latency.disk.spill")
            .record(started.elapsed().as_micros() as u64);
        self.prune(&path);
    }

    /// Temp-file + fsync + rename, so a crash leaves either the old
    /// state or the new entry — never a torn file under the final name.
    fn write_entry(&self, path: &Path, hash: u64, op: &str, payload: &[u8]) -> io::Result<()> {
        let tmp = self
            .dir
            .join(format!("{hash:016x}.{op}.tmp{}", std::process::id()));
        let mut file = fs::File::create(&tmp)?;
        let result = file
            .write_all(&encode_entry(hash, op, payload))
            .and_then(|()| file.sync_all())
            .and_then(|()| {
                drop(file);
                fs::rename(&tmp, path)
            });
        if result.is_err() {
            let _ = fs::remove_file(&tmp);
        }
        result
    }

    /// Oldest-first janitor: deletes committed entries (never `keep`, the
    /// entry just written) until the directory is within budget, and
    /// refreshes the `serve.cache.disk.bytes` gauge.
    fn prune(&self, keep: &Path) {
        let mut entries = match self.scan() {
            Ok(e) => e,
            Err(_) => return,
        };
        let mut total: u64 = entries.iter().map(|e| e.len).sum();
        if total > self.budget {
            entries.sort_by_key(|e| e.mtime);
            for e in &entries {
                if total <= self.budget {
                    break;
                }
                if e.path == keep {
                    continue;
                }
                if fs::remove_file(&e.path).is_ok() {
                    eel_obs::counter!("serve.cache.disk.evict").add(1);
                    total -= e.len;
                }
            }
        }
        eel_obs::gauge!("serve.cache.disk.bytes").set(total as i64);
    }

    /// Re-publishes the retained-size gauge from a directory scan.
    fn publish_bytes(&self) {
        if let Ok(entries) = self.scan() {
            let total: u64 = entries.iter().map(|e| e.len).sum();
            eel_obs::gauge!("serve.cache.disk.bytes").set(total as i64);
        }
    }

    /// Bytes currently retained on disk (a fresh scan, for tests and the
    /// janitor — the gauge is the cheap read path).
    pub fn bytes(&self) -> u64 {
        self.scan()
            .map(|e| e.iter().map(|e| e.len).sum())
            .unwrap_or(0)
    }

    /// Number of committed entries on disk.
    pub fn len(&self) -> usize {
        self.scan().map(|e| e.len()).unwrap_or(0)
    }

    /// Is the directory empty of committed entries?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn scan(&self) -> io::Result<Vec<ScannedEntry>> {
        let mut out = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            if !is_entry_name(&entry.file_name().to_string_lossy()) {
                continue;
            }
            let meta = entry.metadata()?;
            out.push(ScannedEntry {
                path: entry.path(),
                len: meta.len(),
                mtime: meta.modified().unwrap_or(SystemTime::UNIX_EPOCH),
            });
        }
        Ok(out)
    }
}

struct ScannedEntry {
    path: PathBuf,
    len: u64,
    mtime: SystemTime,
}

/// Serializes one cache entry (header + op + payload).
fn encode_entry(hash: u64, op: &str, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + op.len() + payload.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&DISK_FORMAT_VERSION.to_be_bytes());
    out.extend_from_slice(&(op.len() as u16).to_be_bytes());
    out.extend_from_slice(&hash.to_be_bytes());
    out.extend_from_slice(&content_hash(payload).to_be_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(op.as_bytes());
    out.extend_from_slice(payload);
    out
}

/// Validates an entry file against the `(hash, op)` its name promised
/// and returns the payload, or `None` for anything stale, torn, or
/// corrupt: wrong magic, other format version, mismatched op/hash,
/// truncated or over-long body, or a payload failing its checksum.
fn decode_entry(bytes: &[u8], hash: u64, op: &str) -> Option<Vec<u8>> {
    if bytes.len() < HEADER_LEN || bytes[..4] != MAGIC {
        return None;
    }
    let version = u16::from_be_bytes([bytes[4], bytes[5]]);
    if version != DISK_FORMAT_VERSION {
        return None;
    }
    let op_len = u16::from_be_bytes([bytes[6], bytes[7]]) as usize;
    let file_hash = u64::from_be_bytes(bytes[8..16].try_into().ok()?);
    let checksum = u64::from_be_bytes(bytes[16..24].try_into().ok()?);
    let payload_len = u32::from_be_bytes(bytes[24..28].try_into().ok()?) as usize;
    if bytes.len() != HEADER_LEN + op_len + payload_len
        || file_hash != hash
        || &bytes[HEADER_LEN..HEADER_LEN + op_len] != op.as_bytes()
    {
        return None;
    }
    let payload = &bytes[HEADER_LEN + op_len..];
    if content_hash(payload) != checksum {
        return None;
    }
    Some(payload.to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "eel-disk-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn entry_round_trip() {
        let payload = b"routines: 5";
        let enc = encode_entry(0xdead_beef, "stat", payload);
        assert_eq!(
            decode_entry(&enc, 0xdead_beef, "stat").as_deref(),
            Some(&payload[..])
        );
        // Every possible truncation is rejected, never a panic.
        for cut in 0..enc.len() {
            assert_eq!(
                decode_entry(&enc[..cut], 0xdead_beef, "stat"),
                None,
                "cut {cut}"
            );
        }
        // Wrong key coordinates are stale, not served.
        assert_eq!(decode_entry(&enc, 0xdead_beef, "disasm"), None);
        assert_eq!(decode_entry(&enc, 0xdead_beee, "stat"), None);
    }

    #[test]
    fn corrupt_payload_fails_checksum() {
        let mut enc = encode_entry(7, "stat", b"some rendered result");
        let last = enc.len() - 1;
        enc[last] ^= 0xff;
        assert_eq!(decode_entry(&enc, 7, "stat"), None);
    }

    #[test]
    fn future_format_version_is_stale() {
        let mut enc = encode_entry(7, "stat", b"body");
        enc[4..6].copy_from_slice(&(DISK_FORMAT_VERSION + 1).to_be_bytes());
        assert_eq!(decode_entry(&enc, 7, "stat"), None);
    }

    #[test]
    fn store_load_and_corruption_on_disk() {
        let dir = tmp_dir("roundtrip");
        let cache = DiskCache::open(&dir, 1 << 20);
        assert!(!cache.is_degraded());
        assert_eq!(cache.load(1, "stat"), None, "empty dir misses");
        cache.store(1, "stat", b"alpha");
        assert_eq!(cache.load(1, "stat").as_deref(), Some(&b"alpha"[..]));
        assert_eq!(cache.len(), 1);

        // Corrupt the payload in place: the next load rejects, deletes,
        // and a re-store rewrites cleanly.
        let path = cache.entry_path(1, "stat");
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        fs::write(&path, &bytes).unwrap();
        assert_eq!(cache.load(1, "stat"), None);
        assert!(!path.exists(), "corrupt entry deleted");
        cache.store(1, "stat", b"alpha");
        assert_eq!(cache.load(1, "stat").as_deref(), Some(&b"alpha"[..]));

        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn janitor_prunes_oldest_first_keeping_newest() {
        let dir = tmp_dir("janitor");
        let payload = vec![7u8; 64];
        // Budget fits two 64-byte payloads (plus headers) but not three.
        let entry_len = encode_entry(0, "stat", &payload).len() as u64;
        let cache = DiskCache::open(&dir, 2 * entry_len);
        cache.store(1, "stat", &payload);
        std::thread::sleep(std::time::Duration::from_millis(20));
        cache.store(2, "stat", &payload);
        std::thread::sleep(std::time::Duration::from_millis(20));
        cache.store(3, "stat", &payload);
        assert!(cache.bytes() <= 2 * entry_len);
        assert_eq!(cache.load(1, "stat"), None, "oldest pruned");
        assert!(cache.load(2, "stat").is_some());
        assert!(cache.load(3, "stat").is_some(), "newest always survives");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fragment_ops_commit_under_the_eelf_suffix() {
        let dir = tmp_dir("fragments");
        let cache = DiskCache::open(&dir, 1 << 20);
        cache.store(0x42, "frag.disasm", b"  0x00010000:  nop\n");
        cache.store(0x42, "disasm", b"whole image body");
        let frag = cache.entry_path(0x42, "frag.disasm");
        assert!(
            frag.to_string_lossy().ends_with(".eelf"),
            "fragment sidecars are .eelf files"
        );
        assert!(cache
            .entry_path(0x42, "disasm")
            .to_string_lossy()
            .ends_with(".eelc"));
        // Both populations round-trip and count toward the budget scan.
        assert_eq!(
            cache.load(0x42, "frag.disasm").as_deref(),
            Some(&b"  0x00010000:  nop\n"[..])
        );
        assert_eq!(cache.len(), 2);
        assert!(cache.bytes() > 0);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unusable_directory_degrades_quietly() {
        let dir = tmp_dir("degraded");
        fs::create_dir_all(&dir).unwrap();
        let blocker = dir.join("blocker");
        fs::write(&blocker, b"not a directory").unwrap();
        let cache = DiskCache::open(blocker.join("sub"), 1 << 20);
        assert!(cache.is_degraded());
        cache.store(1, "stat", b"dropped");
        assert_eq!(cache.load(1, "stat"), None);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn leftover_tmp_files_swept_on_open() {
        let dir = tmp_dir("sweep");
        fs::create_dir_all(&dir).unwrap();
        let stray = dir.join("0000000000000001.stat.tmp999");
        fs::write(&stray, b"torn write").unwrap();
        let cache = DiskCache::open(&dir, 1 << 20);
        assert!(!stray.exists(), "crash leftovers removed");
        assert!(cache.is_empty());
        fs::remove_dir_all(&dir).ok();
    }
}
