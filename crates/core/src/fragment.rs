//! Per-routine content-addressed analysis fragments.
//!
//! eel-serve's cache was image-at-a-time: every artifact keyed by the
//! hash of the whole WEF, so a one-routine change to a large image
//! recomputed everything. This module gives each [`Routine`] a stable
//! **content key** — FNV-1a over its byte extent plus the discovery
//! inputs (extent length and start-relative entry points) — so
//! per-routine analysis artifacts ("fragments") can be cached under
//! `(routine_key, op)` and reused across near-duplicate images.
//!
//! The key is deliberately **position-independent**: the same routine
//! bytes at a different image offset produce the same key. Reuse is
//! still position-*validated*. This module owns the fragment container
//! and nothing outside eel-core reads it: every fragment is a versioned
//! [`FragmentMeta`] prefix — the absolute start the fragment was
//! rendered at plus the discovery side effects (escape-target
//! registrations, trailing splits) its CFG build performed — followed by
//! an op payload the caller treats as opaque bytes.
//! [`crate::Executable::build_all_cfgs_probed`] loads each key once per
//! batch, honors a fragment only when the start matches, and *replays*
//! the recorded side effects in the build's stead; a clean live build
//! hands back a [`crate::Replay`] that wraps an op payload into a new
//! fragment. A fragment that fails validation falls back to a live
//! build, so composed output stays byte-identical to a cold recompute.
//!
//! The module also provides a compact binary (de)serialization of a
//! routine's [`RoutineLayout`] so an *instrumentation plan* (snippets
//! placed, registers scavenged, spill wrapping decided) can itself be a
//! fragment payload: a validated hit skips CFG construction, liveness,
//! and snippet materialization entirely and goes straight to the encode
//! pass of [`crate::Executable::write_edited`].

use crate::layout::{Item, PlacedSnippet, RoutineLayout, Tgt};
use crate::routine::Routine;
use crate::snippet::{RegAssignment, Snippet};
use eel_exe::Image;
use eel_isa::{Insn, Op, Reg};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// On-wire version of the fragment container (bump on layout change).
const FRAGMENT_VERSION: u8 = 1;
/// On-wire version of the serialized [`RoutineLayout`].
const LAYOUT_VERSION: u8 = 1;

fn fnv_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

fn fnv_u32(h: u64, v: u32) -> u64 {
    fnv_bytes(h, &v.to_le_bytes())
}

/// The stable content key of a routine: FNV-1a over the image's machine
/// tag, the routine's byte extent, the extent length, and its entry
/// points relative to the routine start. Everything a CFG build
/// consumes — and nothing tied to the routine's absolute position or
/// name — goes in, so near-duplicate images agree on the keys of their
/// unchanged routines. The machine tag is load-bearing: byte-identical
/// text decodes to entirely different programs under different ISAs, so
/// a SPARC image and a MIPS image must never share fragment entries.
pub fn routine_key(image: &Image, routine: &Routine) -> u64 {
    let lo = routine.start.saturating_sub(image.text_addr) as usize;
    let hi = (routine.end.saturating_sub(image.text_addr) as usize).min(image.text.len());
    let bytes = image.text.get(lo..hi.max(lo)).unwrap_or(&[]);
    let mut h = fnv_bytes(FNV_OFFSET, &[image.machine.to_byte()]);
    h = fnv_bytes(h, bytes);
    h = fnv_u32(h, routine.end.wrapping_sub(routine.start));
    h = fnv_u32(h, routine.entries.len() as u32);
    for &e in &routine.entries {
        h = fnv_u32(h, e.wrapping_sub(routine.start));
    }
    eel_obs::counter!("core.routine_key.computed").add(1);
    eel_obs::counter!("core.routine_key.bytes_hashed").add(bytes.len() as u64);
    h
}

/// The validation-and-replay prefix every fragment carries: where the
/// routine sat when the fragment was rendered, and the discovery side
/// effects its CFG build performed — §3.1 stage-3 escape targets and
/// stage-4 trailing-split addresses. A probed build honors a fragment
/// only when the start still matches (rendered text embeds absolute
/// addresses); it then *replays* the recorded side effects, so skipping
/// the build leaves the routine table exactly as a live build would.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct FragmentMeta {
    /// Absolute start address the fragment was rendered at.
    pub(crate) start: u32,
    /// Escape targets the routine's CFG build produced (union across
    /// trailing-split rebuild iterations; sorted, deduplicated).
    pub(crate) escapes: Vec<u32>,
    /// Trailing-unreachable split addresses the build performed, in
    /// order: each shrinks the routine to end there and appends a
    /// hidden routine covering the remainder.
    pub(crate) splits: Vec<u32>,
}

/// Wraps an op-specific payload in the versioned fragment container.
pub(crate) fn encode_fragment(meta: &FragmentMeta, payload: &[u8]) -> Vec<u8> {
    let mut out =
        Vec::with_capacity(13 + 4 * (meta.escapes.len() + meta.splits.len()) + payload.len());
    out.push(FRAGMENT_VERSION);
    out.extend_from_slice(&meta.start.to_be_bytes());
    out.extend_from_slice(&(meta.escapes.len() as u32).to_be_bytes());
    for &t in &meta.escapes {
        out.extend_from_slice(&t.to_be_bytes());
    }
    out.extend_from_slice(&(meta.splits.len() as u32).to_be_bytes());
    for &t in &meta.splits {
        out.extend_from_slice(&t.to_be_bytes());
    }
    out.extend_from_slice(payload);
    out
}

/// Splits a fragment into its validation prefix and op payload.
/// `None` for truncated bytes or an unknown version.
pub(crate) fn decode_fragment(mut bytes: Vec<u8>) -> Option<(FragmentMeta, Vec<u8>)> {
    let mut c = Cur { b: &bytes, at: 0 };
    if c.u8()? != FRAGMENT_VERSION {
        return None;
    }
    let start = c.u32()?;
    let n = c.u32()? as usize;
    if n > bytes.len() / 4 {
        return None;
    }
    let mut escapes = Vec::with_capacity(n);
    for _ in 0..n {
        escapes.push(c.u32()?);
    }
    let n = c.u32()? as usize;
    if n > bytes.len() / 4 {
        return None;
    }
    let mut splits = Vec::with_capacity(n);
    for _ in 0..n {
        splits.push(c.u32()?);
    }
    let at = c.at;
    bytes.drain(..at);
    Some((
        FragmentMeta {
            start,
            escapes,
            splits,
        },
        bytes,
    ))
}

struct Cur<'a> {
    b: &'a [u8],
    at: usize,
}

impl<'a> Cur<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.at.checked_add(n)?;
        let s = self.b.get(self.at..end)?;
        self.at = end;
        Some(s)
    }
    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }
    fn u16(&mut self) -> Option<u16> {
        Some(u16::from_be_bytes(self.take(2)?.try_into().ok()?))
    }
    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_be_bytes(self.take(4)?.try_into().ok()?))
    }
    fn done(&self) -> bool {
        self.at == self.b.len()
    }
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) -> Option<()> {
    let n = u16::try_from(s.len()).ok()?;
    put_u16(out, n);
    out.extend_from_slice(s.as_bytes());
    Some(())
}

fn get_str(c: &mut Cur<'_>) -> Option<String> {
    let n = c.u16()? as usize;
    String::from_utf8(c.take(n)?.to_vec()).ok()
}

fn put_tgt(out: &mut Vec<u8>, t: &Tgt) -> Option<()> {
    match t {
        Tgt::Local(l) => {
            out.push(0);
            put_u32(out, u32::try_from(*l).ok()?);
        }
        Tgt::Orig(a) => {
            out.push(1);
            put_u32(out, *a);
        }
        Tgt::Runtime(name) => {
            out.push(2);
            put_str(out, name)?;
        }
    }
    Some(())
}

fn get_tgt(c: &mut Cur<'_>) -> Option<Tgt> {
    match c.u8()? {
        0 => Some(Tgt::Local(c.u32()? as usize)),
        1 => Some(Tgt::Orig(c.u32()?)),
        2 => Some(Tgt::Runtime(get_str(c)?)),
        _ => None,
    }
}

fn put_opt(out: &mut Vec<u8>, o: &Option<u32>) {
    match o {
        Some(a) => {
            out.push(1);
            put_u32(out, *a);
        }
        None => out.push(0),
    }
}

fn get_opt(c: &mut Cur<'_>) -> Option<Option<u32>> {
    match c.u8()? {
        0 => Some(None),
        1 => Some(Some(c.u32()?)),
        _ => None,
    }
}

fn put_item(out: &mut Vec<u8>, item: &Item) -> Option<()> {
    match item {
        Item::Label(l) => {
            out.push(0);
            put_u32(out, u32::try_from(*l).ok()?);
        }
        Item::MapOrig(a) => {
            out.push(1);
            put_u32(out, *a);
        }
        Item::Orig { insn, addr } => {
            out.push(2);
            put_u32(out, insn.word);
            put_u32(out, *addr);
        }
        Item::New(insn) => {
            out.push(3);
            put_u32(out, insn.word);
        }
        Item::BranchTo {
            cond,
            annul,
            target,
            orig,
        } => {
            out.push(4);
            // The displacement is symbolic; store an encoded branch word
            // with disp 0 purely to round-trip (cond, annul). The encode
            // pass re-encodes with `fp: false` exactly as stored here.
            put_u32(
                out,
                eel_isa::encode(&Op::Branch {
                    cond: *cond,
                    annul: *annul,
                    disp22: 0,
                    fp: false,
                }),
            );
            put_tgt(out, target)?;
            put_opt(out, orig);
        }
        Item::CallTo { target, orig } => {
            out.push(5);
            put_tgt(out, target)?;
            put_opt(out, orig);
        }
        Item::SethiHiOf { rd, target, orig } => {
            out.push(6);
            out.push(rd.0);
            put_tgt(out, target)?;
            put_opt(out, orig);
        }
        Item::OrLoOf {
            rd,
            rs1,
            target,
            orig,
        } => {
            out.push(7);
            out.push(rd.0);
            out.push(rs1.0);
            put_tgt(out, target)?;
            put_opt(out, orig);
        }
        Item::TableWord { target, orig } => {
            out.push(8);
            put_tgt(out, target)?;
            put_opt(out, orig);
        }
        Item::RawWord { word, addr } => {
            out.push(9);
            put_u32(out, *word);
            put_u32(out, *addr);
        }
        Item::SnippetRef(i) => {
            out.push(10);
            put_u32(out, u32::try_from(*i).ok()?);
        }
    }
    Some(())
}

fn get_item(c: &mut Cur<'_>) -> Option<Item> {
    Some(match c.u8()? {
        0 => Item::Label(c.u32()? as usize),
        1 => Item::MapOrig(c.u32()?),
        2 => {
            let word = c.u32()?;
            Item::Orig {
                insn: Insn::from_word(word),
                addr: c.u32()?,
            }
        }
        3 => Item::New(Insn::from_word(c.u32()?)),
        4 => {
            let word = c.u32()?;
            let (cond, annul) = match eel_isa::decode(word).op {
                Op::Branch { cond, annul, .. } => (cond, annul),
                _ => return None,
            };
            Item::BranchTo {
                cond,
                annul,
                target: get_tgt(c)?,
                orig: get_opt(c)?,
            }
        }
        5 => Item::CallTo {
            target: get_tgt(c)?,
            orig: get_opt(c)?,
        },
        6 => Item::SethiHiOf {
            rd: Reg(c.u8()?),
            target: get_tgt(c)?,
            orig: get_opt(c)?,
        },
        7 => Item::OrLoOf {
            rd: Reg(c.u8()?),
            rs1: Reg(c.u8()?),
            target: get_tgt(c)?,
            orig: get_opt(c)?,
        },
        8 => Item::TableWord {
            target: get_tgt(c)?,
            orig: get_opt(c)?,
        },
        9 => {
            let word = c.u32()?;
            Item::RawWord {
                word,
                addr: c.u32()?,
            }
        }
        10 => Item::SnippetRef(c.u32()? as usize),
        _ => return None,
    })
}

fn put_placed(out: &mut Vec<u8>, p: &PlacedSnippet) -> Option<()> {
    put_u32(out, u32::try_from(p.insns.len()).ok()?);
    for i in &p.insns {
        put_u32(out, i.word);
    }
    // The register map is a HashMap; serialize sorted for determinism.
    let mut pairs: Vec<(u8, u8)> = p.assignment.map.iter().map(|(k, v)| (k.0, v.0)).collect();
    pairs.sort_unstable();
    put_u32(out, pairs.len() as u32);
    for (k, v) in pairs {
        out.push(k);
        out.push(v);
    }
    put_u32(out, p.assignment.spilled.len() as u32);
    for r in &p.assignment.spilled {
        out.push(r.0);
    }
    out.push(p.assignment.cc_saved as u8);
    put_u32(out, u32::try_from(p.calls.len()).ok()?);
    for (idx, name) in &p.calls {
        put_u32(out, u32::try_from(*idx).ok()?);
        put_str(out, name)?;
    }
    put_u32(out, u32::try_from(p.source).ok()?);
    Some(())
}

fn get_placed(c: &mut Cur<'_>) -> Option<PlacedSnippet> {
    let n = c.u32()? as usize;
    if n > c.b.len() / 4 {
        return None;
    }
    let mut insns = Vec::with_capacity(n);
    for _ in 0..n {
        insns.push(Insn::from_word(c.u32()?));
    }
    let n = c.u32()? as usize;
    let mut assignment = RegAssignment::default();
    for _ in 0..n {
        assignment.map.insert(Reg(c.u8()?), Reg(c.u8()?));
    }
    let n = c.u32()? as usize;
    for _ in 0..n {
        assignment.spilled.push(Reg(c.u8()?));
    }
    assignment.cc_saved = c.u8()? != 0;
    let n = c.u32()? as usize;
    let mut calls = Vec::with_capacity(n.min(64));
    for _ in 0..n {
        let idx = c.u32()? as usize;
        calls.push((idx, get_str(c)?));
    }
    Some(PlacedSnippet {
        insns,
        assignment,
        calls,
        source: c.u32()? as usize,
    })
}

/// Serializes a routine's layout — the instrumentation plan — into a
/// self-contained byte string. Returns `None` when any stored snippet
/// carries a placement call-back: call-backs are arbitrary closures and
/// cannot round-trip, so such layouts are simply not cacheable.
///
/// Runs of untouched original instructions — the bulk of an
/// instrumented routine — compress to an `OrigRun` record (tag 11:
/// start address + count) instead of one 9-byte record per
/// instruction. The words themselves are *not* stored: the decoder
/// reads them back out of its own image text, which is sound because a
/// run is only emitted for addresses inside `extent` whose image word
/// matches the item verbatim, and a fragment hit already guarantees
/// (key + start validation) that the consumer's extent bytes are
/// identical to the producer's. Anything outside the extent or
/// rewritten in place round-trips verbatim.
pub(crate) fn encode_layout(
    layout: &RoutineLayout,
    image: &Image,
    extent: (u32, u32),
) -> Option<Vec<u8>> {
    if layout.snippet_store.iter().any(Snippet::has_callback) {
        return None;
    }
    let (lo, hi) = extent;
    let in_run = |item: &Item| -> Option<u32> {
        match item {
            Item::Orig { insn, addr } if *addr >= lo && *addr < hi => {
                (image.word_at(*addr) == Some(insn.word)).then_some(*addr)
            }
            _ => None,
        }
    };
    let mut out = Vec::new();
    out.push(LAYOUT_VERSION);
    out.push(layout.needs_translator as u8);
    put_u32(&mut out, u32::try_from(layout.items.len()).ok()?);
    let mut i = 0;
    while i < layout.items.len() {
        if let Some(start) = in_run(&layout.items[i]) {
            let mut count: u32 = 1;
            while let Some(next) = layout.items.get(i + count as usize).and_then(&in_run) {
                if next != start + 4 * count {
                    break;
                }
                count += 1;
            }
            if count >= 2 {
                out.push(11);
                put_u32(&mut out, start);
                put_u32(&mut out, count);
                i += count as usize;
                continue;
            }
        }
        put_item(&mut out, &layout.items[i])?;
        i += 1;
    }
    put_u32(&mut out, u32::try_from(layout.snippets.len()).ok()?);
    for p in &layout.snippets {
        put_placed(&mut out, p)?;
    }
    // Stored snippets round-trip as empty, call-back-free placeholders:
    // the encode pass only consults them for `run_callback`, a no-op.
    put_u32(&mut out, u32::try_from(layout.snippet_store.len()).ok()?);
    Some(out)
}

/// Reconstructs a [`RoutineLayout`] serialized by [`encode_layout`].
/// The caller supplies the image whose text backs `OrigRun` records.
pub(crate) fn decode_layout(bytes: &[u8], image: &Image) -> Option<RoutineLayout> {
    let mut c = Cur { b: bytes, at: 0 };
    if c.u8()? != LAYOUT_VERSION {
        return None;
    }
    let needs_translator = c.u8()? != 0;
    let n = c.u32()? as usize;
    // Runs expand, so the item count may legitimately exceed the wire
    // length — but never the image text plus the wire length (snippet
    // refs and labels are wire records; originals come from the text).
    if n > bytes.len() + image.text.len() {
        return None;
    }
    let mut items = Vec::with_capacity(n);
    while items.len() < n {
        if c.b.get(c.at) == Some(&11) {
            c.at += 1;
            let start = c.u32()?;
            let count = c.u32()? as usize;
            if count < 2 || items.len() + count > n {
                return None;
            }
            for k in 0..count {
                let addr = start.checked_add(4 * k as u32)?;
                items.push(Item::Orig {
                    insn: Insn::from_word(image.word_at(addr)?),
                    addr,
                });
            }
        } else {
            items.push(get_item(&mut c)?);
        }
    }
    let n = c.u32()? as usize;
    if n > bytes.len() {
        return None;
    }
    let mut snippets = Vec::with_capacity(n);
    for _ in 0..n {
        snippets.push(get_placed(&mut c)?);
    }
    let n = c.u32()? as usize;
    if n > bytes.len() {
        return None;
    }
    let snippet_store = (0..n).map(|_| Snippet::new(Vec::new())).collect();
    if !c.done() {
        return None;
    }
    Some(RoutineLayout {
        items,
        snippets,
        snippet_store,
        needs_translator,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn image_with_text(text: Vec<u8>) -> Image {
        Image {
            entry: 0x0040_0000,
            text_addr: 0x0040_0000,
            text,
            data_addr: 0x0080_0000,
            data: Vec::new(),
            bss_size: 0,
            symbols: Vec::new(),
            machine: eel_exe::Machine::Sparc,
        }
    }

    fn routine(start: u32, end: u32, entries: Vec<u32>) -> Routine {
        Routine {
            name: Some("r".into()),
            start,
            end,
            entries,
            hidden: false,
            inferred: false,
        }
    }

    #[test]
    fn key_is_offset_independent() {
        // The same eight bytes at two different image offsets.
        let body: Vec<u8> = vec![0x01, 0x02, 0x03, 0x04, 0x9d, 0xe3, 0xbf, 0x90];
        let mut text = body.clone();
        text.extend_from_slice(&[0xaa; 16]);
        text.extend_from_slice(&body);
        let image = image_with_text(text);
        let a = routine(0x0040_0000, 0x0040_0008, vec![0x0040_0000]);
        let b = routine(0x0040_0018, 0x0040_0020, vec![0x0040_0018]);
        assert_eq!(
            routine_key(&image, &a),
            routine_key(&image, &b),
            "same bytes + same relative entries must key identically"
        );
        // ... but a different *relative* entry set must not.
        let c = routine(0x0040_0018, 0x0040_0020, vec![0x0040_0018, 0x0040_001c]);
        assert_ne!(routine_key(&image, &a), routine_key(&image, &c));
    }

    #[test]
    fn key_changes_on_single_byte_change() {
        let image = image_with_text(vec![0u8; 32]);
        let mut twin_text = vec![0u8; 32];
        twin_text[17] ^= 1;
        let twin = image_with_text(twin_text);
        let r = routine(0x0040_0010, 0x0040_0020, vec![0x0040_0010]);
        assert_ne!(routine_key(&image, &r), routine_key(&twin, &r));
        // A change *outside* the extent leaves the key alone.
        let before = routine(0x0040_0000, 0x0040_0010, vec![0x0040_0000]);
        assert_eq!(
            routine_key(&image, &before),
            routine_key(&twin, &before),
            "bytes outside the routine extent must not affect its key"
        );
    }

    #[test]
    fn fragment_container_round_trips_and_rejects_truncation() {
        let meta = FragmentMeta {
            start: 0x0040_1234,
            escapes: vec![0x0040_0010, 0x0040_0abc],
            splits: vec![0x0040_0ff0],
        };
        let payload = b"per-routine payload";
        let enc = encode_fragment(&meta, payload);
        let (got, body) = decode_fragment(enc.clone()).expect("round trip");
        assert_eq!(got, meta);
        assert_eq!(body, payload);
        for cut in 0..enc.len().min(17) {
            let _ = decode_fragment(enc[..cut].to_vec()); // must not panic
        }
        assert!(decode_fragment(enc[..8].to_vec()).is_none());
        let mut bad = enc.clone();
        bad[0] = 99;
        assert!(decode_fragment(bad).is_none(), "unknown version rejected");
    }
}
