//! The server's analysis operations.
//!
//! Every operation is a pure function of a shared [`Analysis`] (the
//! validated image plus §3.1 routine discovery), which is what makes the
//! content-addressed cache sound: same WEF bytes + same op name ⇒ same
//! result. Text-producing ops render stable, line-oriented listings;
//! `instrument` returns the edited executable's WEF bytes.
//!
//! ## Per-routine fragments
//!
//! Whole-image results additionally decompose per routine: each op's
//! output is a deterministic composition of per-routine pieces
//! ("fragments") keyed by the routine's content key
//! ([`eel_core::routine_key`]). [`run_op_fragments`] hands a
//! [`FragmentTier`]'s load to eel-core's CFG batch
//! ([`Executable::build_all_cfgs_probed`]), which owns the fragment
//! container: it loads each key once per request, validates the stored
//! start, and hands each routine over in routine order, as a hit
//! carrying its op payload or as a built CFG. An op that takes a hit
//! has core replay the recorded §3.1 side effects; one whose payload
//! does not fit (`instrument`'s plan under a moved counter base)
//! declines it, and the routine is built in its place. A hit
//! skips that routine's CFG construction (and, for `instrument`, its
//! liveness and snippet materialization too), so a near-duplicate image
//! that shares N−1 routines with a cached one recomputes only the
//! changed routine, and the composed result stays **byte-identical** to
//! a cold recompute. The ops share one stitch loop (`Batch::stitch`),
//! and each supplies only its per-routine rendering and payload format.

use eel_core::{
    generic_cfg, generic_disasm, generic_liveness, instrument_block_counters, machine_ops,
    uses_generic_pipeline, Analysis, BlockId, Cfg, CfgOutcome, EelError, Executable,
    FragmentSource, Routine, RoutineId, Snippet,
};
use eel_exe::Image;
use eel_isa::write_hex;
use std::fmt::Write as _;
use std::sync::{Arc, OnceLock};

/// The operations whose results flow through the content-addressed cache.
/// (`ping`, `metrics`, and `shutdown` are control-plane requests handled
/// by the server itself.) Because every result here is a plain byte
/// string that is a pure function of the input image, all of them are
/// also eligible for the on-disk spill tier — success results persist
/// across restarts; error results stay memory-only.
pub const CACHED_OPS: &[&str] = &["disasm", "cfg-summary", "liveness", "stat", "instrument"];

/// The cached ops that build (or share) the analysis' CFG shapes.
pub(crate) const SHAPE_OPS: &[&str] = &["disasm", "cfg-summary", "liveness", "instrument"];

/// A per-routine fragment store consulted by [`run_op_fragments`].
/// Implementations are free to back this with anything — the server
/// routes it through the shared LRU (under `(routine_key, "frag.<op>")`
/// keys) and the disk spill tier (`.eelf` sidecars); benches use a plain
/// in-memory map.
pub trait FragmentTier {
    /// The stored fragment for `(routine_key, op)`, if any.
    fn load(&self, key: u64, op: &str) -> Option<Vec<u8>>;
    /// Stores a freshly computed fragment for `(routine_key, op)`.
    fn store(&self, key: u64, op: &str, bytes: &[u8]);
    /// Does the tier keep anything? When it does not, ops neither probe
    /// it (so hash no routine keys) nor build fragment payloads, and call
    /// `load` and `store` never.
    fn keeps_fragments(&self) -> bool {
        true
    }
}

/// The always-miss tier: probes return nothing and nothing is stored.
/// With this tier [`run_op_fragments`] *is* the plain cold path, which is
/// exactly how [`run_op`] is implemented — one code path, so the
/// byte-identity of warm and cold composition is structural.
pub struct NoFragments;

impl FragmentTier for NoFragments {
    fn load(&self, _key: u64, _op: &str) -> Option<Vec<u8>> {
        None
    }
    fn store(&self, _key: u64, _op: &str, _bytes: &[u8]) {}
    fn keeps_fragments(&self) -> bool {
        false
    }
}

/// How much of an op's work the fragment tier absorbed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FragmentStats {
    /// Routines stitched from validated cached fragments.
    pub hits: u32,
    /// Routines the op processed in total.
    pub total: u32,
}

/// Runs one cacheable operation against a shared analysis.
///
/// # Errors
///
/// A rendered message when the op is unknown or the underlying
/// analysis/editing step fails.
pub fn run_op(op: &str, analysis: &Analysis) -> Result<Vec<u8>, String> {
    run_op_fragments(op, analysis, 1, &NoFragments).map(|(body, _)| body)
}

/// [`run_op`], errors included.
///
/// `_threads` is ignored; it stays until the benchmark, which passes it,
/// drops it.
pub fn run_op_with(op: &str, analysis: &Analysis, _threads: usize) -> Result<Vec<u8>, String> {
    run_op(op, analysis)
}

/// [`run_op`] with a per-routine [`FragmentTier`]: unchanged
/// routines stitch from cache, fresh *clean* routines write their
/// fragments back. Returns the composed body plus hit statistics.
///
/// `_threads` is ignored; it stays until the benchmark, which passes it,
/// drops it.
///
/// # Errors
///
/// As [`run_op`].
pub fn run_op_fragments(
    op: &str,
    analysis: &Analysis,
    _threads: usize,
    tier: &dyn FragmentTier,
) -> Result<(Vec<u8>, FragmentStats), String> {
    // Machine dispatch: the WEF header tag picks the pipeline. A
    // non-SPARC image routes through the generic description-derived
    // ops — the per-routine fragment tier is a SPARC editable-CFG
    // artifact (its meta records escape targets and block splits), so
    // generic results run cold at this layer. Whole-image caching above
    // still applies: the image hash covers the flags word, which
    // carries the machine tag, so byte-identical text under different
    // tags can never share an entry.
    if uses_generic_pipeline(analysis.machine()) {
        return run_op_generic(op, analysis).map(|b| (b, FragmentStats::default()));
    }
    let batch = Batch { analysis, tier };
    match op {
        "disasm" => disasm(&batch),
        "cfg-summary" => cfg_summary(&batch),
        "liveness" => liveness(&batch),
        "stat" => stat(analysis).map(|b| (b, FragmentStats::default())),
        "instrument" => instrument(&batch),
        other => Err(unknown_op(other)),
    }
}

fn unknown_op(other: &str) -> String {
    format!("unknown op {other:?} (expected one of {CACHED_OPS:?}, edit, ping, metrics, shutdown)")
}

/// Per-op `serve.ops.<op>.<event>` counters over the fixed op names
/// (`CACHED_OPS` plus `edit`). Each handle is built on its first event, so
/// a name enters the registry exactly when a direct [`eel_obs::counter`]
/// call would put it there; after that the request path takes neither a
/// `format!` nor the registry lock.
pub(crate) struct OpCounters {
    event: &'static str,
    handles: [OnceLock<eel_obs::Counter>; CACHED_OPS.len() + 1],
}

impl OpCounters {
    const fn new(event: &'static str) -> OpCounters {
        OpCounters {
            event,
            handles: [const { OnceLock::new() }; CACHED_OPS.len() + 1],
        }
    }

    /// Counts one event for `op`. A name outside the fixed list counts
    /// nowhere, so a client-chosen name never reaches the registry.
    pub(crate) fn add(&self, op: &str) {
        let Some(i) = CACHED_OPS.iter().chain(&["edit"]).position(|&o| o == op) else {
            return;
        };
        self.handles[i]
            .get_or_init(|| eel_obs::counter(&format!("serve.ops.{op}.{}", self.event)))
            .add(1);
    }
}

/// `serve.ops.<op>.computed`: results the server actually computed.
pub(crate) static COMPUTED: OpCounters = OpCounters::new("computed");

/// `serve.ops.<op>.generic`: ops answered by the generic pipeline.
static GENERIC: OpCounters = OpCounters::new("generic");

/// The generic (machine-dispatched) twins of the analysis ops, used for
/// every non-SPARC image: disassembly, CFG statistics, and liveness
/// come from the spawn-derived [`eel_core::MachineOps`] backend;
/// `instrument` places the per-block counters of
/// [`eel_core::instrument_block_counters`] rather than SPARC's per-edge
/// snippets. Output shapes mirror the SPARC renderings line for line so
/// clients parse one format.
fn run_op_generic(op: &str, analysis: &Analysis) -> Result<Vec<u8>, String> {
    let body = match op {
        "disasm" => disasm_generic(analysis),
        "cfg-summary" => cfg_summary_generic(analysis),
        "liveness" => liveness_generic(analysis),
        "stat" => stat(analysis),
        "instrument" => {
            let (edited, _counters) =
                instrument_block_counters(analysis.image()).map_err(|e| err("instrument", e))?;
            Ok(edited.to_bytes())
        }
        other => return Err(unknown_op(other)),
    };
    GENERIC.add(op);
    body
}

fn disasm_generic(analysis: &Analysis) -> Result<Vec<u8>, String> {
    let image = analysis.image();
    let mut out = String::new();
    for routine in analysis.routines() {
        let _ = writeln!(
            out,
            "{:#010x} <{}>{}:",
            routine.start(),
            routine.name(),
            if routine.is_hidden() { " (hidden)" } else { "" }
        );
        generic_disasm(image, routine, &mut out);
        out.push('\n');
    }
    Ok(out.into_bytes())
}

fn cfg_summary_generic(analysis: &Analysis) -> Result<Vec<u8>, String> {
    let image = analysis.image();
    let mut out = String::new();
    let (mut blocks, mut edges, mut insns) = (0u64, 0u64, 0u64);
    for routine in analysis.routines() {
        let cfg = generic_cfg(image, routine).map_err(|e| err("cfg-summary", e))?;
        let b = cfg.blocks.len() as u64;
        let e: u64 = cfg.blocks.iter().map(|blk| blk.succs.len() as u64).sum();
        let i: u64 = cfg
            .blocks
            .iter()
            .map(|blk| u64::from(blk.end - blk.start) / 4)
            .sum();
        let indirect = cfg
            .blocks
            .iter()
            .filter(|blk| blk.has_indirect_exit)
            .count();
        let _ = writeln!(
            out,
            "{}: blocks={b} edges={e} insns={i} indirect-exits={indirect}",
            routine.name()
        );
        blocks += b;
        edges += e;
        insns += i;
    }
    let _ = writeln!(
        out,
        "TOTAL: routines={} blocks={blocks} edges={edges} insns={insns}",
        analysis.routines().len()
    );
    Ok(out.into_bytes())
}

fn liveness_generic(analysis: &Analysis) -> Result<Vec<u8>, String> {
    let image = analysis.image();
    let ops = machine_ops(image.machine);
    let mut out = String::new();
    for routine in analysis.routines() {
        let cfg = generic_cfg(image, routine).map_err(|e| err("liveness", e))?;
        let live = generic_liveness(image, &cfg);
        // The entry block is the first; names print in string order.
        let mut regs: Vec<String> = live
            .live_in(BlockId::from_index(0))
            .iter()
            .map(|r| ops.reg_name(r))
            .collect();
        regs.sort();
        let _ = writeln!(
            out,
            "{}: entry-live-in={{{}}} ({} regs)",
            routine.name(),
            regs.join(" "),
            regs.len()
        );
    }
    Ok(out.into_bytes())
}

fn err(op: &str, e: impl std::fmt::Display) -> String {
    format!("{op}: {e}")
}

/// What a renderer made of one routine.
enum Stitched {
    /// Rendered from the fragment's payload.
    Hit,
    /// A hit whose payload does not fit this program: the routine is
    /// built and rendered again.
    Declined,
    /// Rendered from a build, with the op payload to store when the build
    /// was clean (`None`: nothing to store, or a tier that keeps
    /// nothing).
    Live(Option<Vec<u8>>),
}

/// One fragment-cached SPARC op's inputs: the analysis and the fragment
/// tier.
struct Batch<'a> {
    analysis: &'a Analysis,
    tier: &'a dyn FragmentTier,
}

type OpResult = Result<(Vec<u8>, FragmentStats), String>;

impl Batch<'_> {
    /// The one per-routine loop behind every fragment-cached op. Runs
    /// core's CFG batch, probing the tier when it keeps fragments
    /// (`payload_ok` checks an op payload before a hit is honored), hands
    /// each routine to `render` in routine order, counts hits, and stores
    /// the payload `render` returns for each clean build. Returns the
    /// executable the routines were stitched into.
    fn stitch(
        &self,
        op: &str,
        payload_ok: &dyn Fn(&[u8]) -> bool,
        mut render: impl FnMut(
            &mut Executable,
            &Routine,
            RoutineId,
            CfgOutcome,
        ) -> Result<Stitched, EelError>,
    ) -> Result<(Executable, FragmentStats), String> {
        let mut exec = Executable::from_analysis(self.analysis);
        let mut stats = FragmentStats::default();
        // A tier that keeps nothing is never probed, so no routine's
        // content key is hashed.
        let mut load = |key| self.tier.load(key, op);
        let fragments: Option<FragmentSource> = self
            .tier
            .keeps_fragments()
            .then_some((&mut load, payload_ok));
        exec.build_all_cfgs_probed(fragments, |exec, item| {
            match render(exec, &item.routine, item.id, item.outcome)? {
                Stitched::Declined => return Ok(false),
                Stitched::Hit => stats.hits += 1,
                Stitched::Live(payload) => {
                    if let (Some(key), Some(replay), Some(payload)) =
                        (item.key, &item.replay, payload)
                    {
                        self.tier.store(key, op, &replay.fragment(&payload));
                    }
                }
            }
            stats.total += 1;
            Ok(true)
        })
        .map_err(|e| err(op, e))?;
        Ok((exec, stats))
    }
}

fn is_utf8(payload: &[u8]) -> bool {
    std::str::from_utf8(payload).is_ok()
}

/// A disassembly listing with routine headers and dispatch-table
/// annotations — the service twin of `eelobjdump`. The header embeds
/// the routine's (possibly image-specific) name and start, so only the
/// body below it is the cached fragment.
fn disasm(batch: &Batch) -> OpResult {
    let image = batch.analysis.image();
    let mut out = String::new();
    let (_, stats) = batch.stitch("disasm", &is_utf8, |_, routine, _, outcome| {
        let _ = writeln!(
            out,
            "{:#010x} <{}>{}:",
            routine.start(),
            routine.name(),
            if routine.is_hidden() { " (hidden)" } else { "" }
        );
        Ok(match outcome {
            CfgOutcome::Hit(payload) => {
                out.push_str(&String::from_utf8_lossy(&payload));
                Stitched::Hit
            }
            CfgOutcome::Built(cfg) => {
                let body = out.len();
                disasm_body(image, routine, &cfg, &mut out);
                Stitched::Live(
                    batch
                        .tier
                        .keeps_fragments()
                        .then(|| out.as_bytes()[body..].to_vec()),
                )
            }
        })
    })?;
    Ok((out.into_bytes(), stats))
}

/// Appends a routine's listing body (every word, dispatch-table words as
/// data, then a blank line) to `out`.
fn disasm_body(image: &Image, routine: &Routine, cfg: &Cfg, out: &mut String) {
    // A cursor over the tables in start order: the first table not yet
    // behind `addr` holds it, if any does.
    let mut tables: Vec<_> = cfg.data_ranges().collect();
    tables.sort_by_key(|r| r.start);
    let mut next = 0;
    for addr in (routine.start()..routine.end()).step_by(4) {
        let word = image.word_at(addr).unwrap_or(0);
        while tables.get(next).is_some_and(|r| r.end <= addr) {
            next += 1;
        }
        let in_table = tables.get(next).is_some_and(|r| r.start <= addr);
        out.push_str("  0x");
        let _ = write_hex(out, addr, 8);
        if in_table {
            out.push_str(":  .word 0x");
            let _ = write_hex(out, word, 8);
            out.push_str("  ; dispatch table");
        } else {
            out.push_str(":  ");
            let _ = eel_isa::decode(word).write_to(out);
        }
        out.push('\n');
    }
    out.push('\n');
}

/// Per-routine CFG statistics plus whole-program totals. A fragment is
/// the per-routine line minus the name, preceded by the three totals it
/// contributes.
fn cfg_summary(batch: &Batch) -> OpResult {
    let mut out = String::new();
    let (mut blocks, mut edges, mut insns) = (0u64, 0u64, 0u64);
    let payload_ok = |p: &[u8]| decode_summary_payload(p).is_some();
    let (_, stats) = batch.stitch("cfg-summary", &payload_ok, |_, routine, _, outcome| {
        out.push_str(&routine.name());
        Ok(match outcome {
            CfgOutcome::Hit(payload) => {
                if let Some((b, e, i, suffix)) = decode_summary_payload(&payload) {
                    blocks += b;
                    edges += e;
                    insns += i;
                    out.push_str(suffix);
                }
                Stitched::Hit
            }
            CfgOutcome::Built(cfg) => {
                let s = cfg.stats();
                let suffix = format!(
                    ": blocks={} (delay={} surrogate={}) edges={} insns={} uneditable-edges={:.0}%{}\n",
                    s.total_blocks(),
                    s.delay_slot_blocks,
                    s.call_surrogate_blocks,
                    s.edges,
                    s.instructions,
                    100.0 * s.uneditable_edge_fraction(),
                    if cfg.is_incomplete() { " INCOMPLETE" } else { "" },
                );
                out.push_str(&suffix);
                let (b, e, i) = (
                    s.total_blocks() as u64,
                    s.edges as u64,
                    s.instructions as u64,
                );
                blocks += b;
                edges += e;
                insns += i;
                Stitched::Live(batch.tier.keeps_fragments().then(|| {
                    let mut payload = Vec::with_capacity(24 + suffix.len());
                    payload.extend_from_slice(&b.to_be_bytes());
                    payload.extend_from_slice(&e.to_be_bytes());
                    payload.extend_from_slice(&i.to_be_bytes());
                    payload.extend_from_slice(suffix.as_bytes());
                    payload
                }))
            }
        })
    })?;
    let _ = writeln!(
        out,
        "TOTAL: routines={} blocks={blocks} edges={edges} insns={insns}",
        batch.analysis.routines().len()
    );
    Ok((out.into_bytes(), stats))
}

fn decode_summary_payload(p: &[u8]) -> Option<(u64, u64, u64, &str)> {
    if p.len() < 24 {
        return None;
    }
    let b = u64::from_be_bytes(p[0..8].try_into().ok()?);
    let e = u64::from_be_bytes(p[8..16].try_into().ok()?);
    let i = u64::from_be_bytes(p[16..24].try_into().ok()?);
    let suffix = std::str::from_utf8(&p[24..]).ok()?;
    Some((b, e, i, suffix))
}

/// Entry live-in registers for every routine, from the CFG dataflow
/// (the liveness stored with the analysis' shape, which `instrument`'s
/// layout reads too). The fragment is the line minus the routine name.
fn liveness(batch: &Batch) -> OpResult {
    let mut out = String::new();
    let (_, stats) = batch.stitch("liveness", &is_utf8, |exec, routine, _, outcome| {
        out.push_str(&routine.name());
        Ok(match outcome {
            CfgOutcome::Hit(payload) => {
                out.push_str(&String::from_utf8_lossy(&payload));
                Stitched::Hit
            }
            CfgOutcome::Built(cfg) => {
                let live = exec.liveness(&cfg);
                let entry = live.live_in(cfg.entry_block());
                let suffix = format!(": entry-live-in={entry} ({} regs)\n", entry.len());
                out.push_str(&suffix);
                Stitched::Live(batch.tier.keeps_fragments().then(|| suffix.into_bytes()))
            }
        })
    })?;
    Ok((out.into_bytes(), stats))
}

/// Image and discovery statistics: segment sizes, symbol and routine
/// counts. Builds no CFGs, so it neither consults nor produces
/// fragments.
fn stat(analysis: &Analysis) -> Result<Vec<u8>, String> {
    let image = analysis.image();
    let hidden = analysis.routines().iter().filter(|r| r.is_hidden()).count();
    let entries: usize = analysis.routines().iter().map(|r| r.entries().len()).sum();
    let mut out = String::new();
    // Baked into the cached body, like the discovery line below, so a
    // warm `stat` still says which backend the image takes.
    let _ = writeln!(out, "machine: {}", analysis.machine().name());
    let _ = writeln!(
        out,
        "text: {} bytes @ {:#010x}",
        image.text.len(),
        image.text_addr
    );
    let _ = writeln!(
        out,
        "data: {} bytes @ {:#010x}",
        image.data.len(),
        image.data_addr
    );
    let _ = writeln!(out, "symbols: {}", image.symbols.len());
    let _ = writeln!(
        out,
        "routines: {} ({hidden} hidden, {entries} entry points)",
        analysis.routines().len()
    );
    // Baked into the cached body (unlike the wire-level trailing
    // extension) so a warm `stat` still reports how the routine set was
    // found.
    let _ = writeln!(out, "discovery: {}", analysis.discovery().as_str());
    let _ = writeln!(out, "analysis-bytes: ~{}", analysis.approx_bytes());
    Ok(out.into_bytes())
}

/// The serve write path: runs an `eeledit` command script against the
/// shared analysis and returns the edited executable's WEF bytes (the
/// script's last `apply`, or an implicit final apply). Pure function of
/// `(analysis, script)`, which is exactly what the `(image_hash,
/// script_hash)` cache key captures.
///
/// # Errors
///
/// A rendered message when the script fails to parse or any command is
/// rejected.
pub fn run_edit(analysis: &Arc<Analysis>, script: &str) -> Result<Vec<u8>, String> {
    let _obs = eel_obs::span("edit.serve_op");
    // The command-script engine drives the SPARC editable CFG; reject
    // other machines up front with a pointer at what does work, instead
    // of letting the first `apply` surface a deeper error.
    if uses_generic_pipeline(analysis.machine()) {
        return Err(format!(
            "edit: the command-script engine is sparc-only; a {} image takes the generic ops \
             (disasm, cfg-summary, liveness, stat, instrument)",
            analysis.machine().name()
        ));
    }
    let mut session = eel_edit::EditSession::from_analysis(Arc::clone(analysis));
    let applied = session
        .run_script_to_image(script)
        .map_err(|e| err("edit", e))?;
    Ok(applied.image.to_bytes())
}

/// Edge-count instrumentation: a counter along every edge of Figure 1's
/// placement ([`Cfg::profiled_edges`], the one qpt2 uses for
/// `Granularity::Edges`). Returns the edited executable's WEF bytes.
///
/// The per-routine fragment is the serialized instrumentation *plan*
/// (`reserve | counter_base | layout`): a validated hit replays the
/// routine's laid-out form directly, skipping CFG construction,
/// liveness, and snippet placement. Data reservations happen in routine
/// order on both paths, so a hit whose recorded counter base is where
/// the next reservation lands installs as-is; any other hit (a
/// different counter base, because earlier routines reserved different
/// amounts, or a plan that fails to install) is declined, and the batch
/// builds the routine exactly as cold does.
fn instrument(batch: &Batch) -> OpResult {
    let payload_ok = |p: &[u8]| decode_instrument_payload(p).is_some();
    let (mut exec, stats) = batch.stitch("instrument", &payload_ok, |exec, _, id, outcome| {
        let mut cfg = match outcome {
            CfgOutcome::Built(cfg) => cfg,
            CfgOutcome::Hit(payload) => {
                // Reserving nothing reads where the next reservation
                // lands. A validated hit means the same CFG, hence the
                // same edge count and the same reserve as cold.
                let next = exec.reserve_data(0);
                return Ok(match decode_instrument_payload(&payload) {
                    Some((reserve, base, layout))
                        if base == next && exec.install_serialized_layout(id, layout).is_ok() =>
                    {
                        exec.reserve_data(reserve);
                        Stitched::Hit
                    }
                    _ => Stitched::Declined,
                });
            }
        };
        // Counters are reserved in routine order, as a hit's were.
        let edges = cfg.profiled_edges();
        let reserve = 4 * edges.len().max(1) as u32;
        let base = exec.reserve_data(reserve);
        for (k, (_, _, e)) in edges.into_iter().enumerate() {
            let counter = base + 4 * k as u32;
            cfg.add_code_along(e, Snippet::counter_increment(counter))?;
        }
        exec.install_edits(cfg)?;
        if !batch.tier.keeps_fragments() {
            return Ok(Stitched::Live(None));
        }
        let plan = exec.serialize_layout(id).map(|layout| {
            let mut payload = Vec::with_capacity(8 + layout.len());
            payload.extend_from_slice(&reserve.to_be_bytes());
            payload.extend_from_slice(&base.to_be_bytes());
            payload.extend_from_slice(&layout);
            payload
        });
        Ok(Stitched::Live(plan))
    })?;
    let edited = exec.write_edited().map_err(|e| err("instrument", e))?;
    Ok((edited.to_bytes(), stats))
}

fn decode_instrument_payload(p: &[u8]) -> Option<(u32, u32, &[u8])> {
    if p.len() <= 8 {
        return None;
    }
    let reserve = u32::from_be_bytes(p[0..4].try_into().ok()?);
    let base = u32::from_be_bytes(p[4..8].try_into().ok()?);
    Some((reserve, base, &p[8..]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use eel_exe::Image;
    use std::collections::HashMap;
    use std::sync::Arc;
    use std::sync::Mutex;

    fn analysis() -> Arc<Analysis> {
        let image = eel_cc::compile_str(
            "fn main() { var i; var t = 0;
               for (i = 0; i < 5; i = i + 1) { t = t + i; } return t; }",
            &eel_cc::Options::default(),
        )
        .expect("compile");
        Arc::new(Analysis::compute(Arc::new(image)).expect("analyze"))
    }

    fn multi_routine_analysis() -> Arc<Analysis> {
        let image = eel_cc::compile_str(
            "fn helper(x) { return x * 3 + 1; }
             fn double(x) { return x + x; }
             fn main() { var i; var t = 0;
               for (i = 0; i < 5; i = i + 1) { t = t + helper(i) + double(i); }
               return t; }",
            &eel_cc::Options::default(),
        )
        .expect("compile");
        Arc::new(Analysis::compute(Arc::new(image)).expect("analyze"))
    }

    fn mips_analysis() -> Arc<Analysis> {
        let w = eel_progen::Workload {
            name: "serve-mips",
            source: "
                global acc;
                fn step(x) {
                    var t = 0;
                    while (x > 0) { t = t + x % 5; x = x - 1; }
                    return t;
                }
                fn main() {
                    var i;
                    acc = 0;
                    for (i = 1; i < 12; i = i + 1) { acc = acc + step(i); print(acc); }
                    return acc & 63;
                }
            "
            .into(),
        };
        let image =
            eel_progen::compile_machine(&w, eel_cc::Personality::Gcc, eel_exe::Machine::Mips)
                .expect("compile mips");
        Arc::new(Analysis::compute(Arc::new(image)).expect("analyze"))
    }

    #[test]
    fn generic_ops_render_for_mips() {
        let a = mips_analysis();
        for op in CACHED_OPS {
            let one = run_op(op, &a).expect(op);
            let two = run_op(op, &a).expect(op);
            assert!(!one.is_empty(), "{op} produced output");
            assert_eq!(one, two, "{op} is deterministic");
        }
        let stat = String::from_utf8(run_op("stat", &a).unwrap()).unwrap();
        assert!(stat.contains("machine: mips"), "{stat}");
        let disasm = String::from_utf8(run_op("disasm", &a).unwrap()).unwrap();
        assert!(disasm.contains("<main>"), "{disasm}");
        assert!(disasm.contains("addiu"), "{disasm}");
        let summary = String::from_utf8(run_op("cfg-summary", &a).unwrap()).unwrap();
        assert!(summary.contains("TOTAL:"), "{summary}");
        let live = String::from_utf8(run_op("liveness", &a).unwrap()).unwrap();
        assert!(live.contains("entry-live-in="), "{live}");
        assert!(live.contains("$29"), "{live}");
    }

    #[test]
    fn unknown_generic_op_leaves_the_registry_alone() {
        let a = mips_analysis();
        let op = "no-such-generic-op";
        assert!(run_op(op, &a).unwrap_err().contains("unknown op"));
        let m = eel_obs::MetricsSnapshot::capture();
        let names = m.counters.iter().map(|c| &c.name);
        let names = names.chain(m.gauges.iter().map(|g| &g.name));
        let mut names = names.chain(m.histograms.iter().map(|(n, _)| n));
        assert!(!names.any(|n| n.contains(op)), "{op} registered a metric");
    }

    #[test]
    fn mips_instrument_preserves_behavior() {
        let a = mips_analysis();
        let original = eel_emu::run_image(a.image()).expect("run original");
        let wef = run_op("instrument", &a).expect("instrument");
        let edited = Image::from_bytes(&wef).expect("edited image parses");
        assert_eq!(edited.machine, eel_exe::Machine::Mips);
        let outcome = eel_emu::run_image(&edited).expect("run edited");
        assert_eq!(outcome.exit_code, original.exit_code);
        assert_eq!(outcome.output, original.output);
    }

    #[test]
    fn mips_edit_is_rejected_with_a_pointer() {
        let a = mips_analysis();
        let e = run_edit(&a, "counter main\napply\n").unwrap_err();
        assert!(e.contains("sparc-only"), "{e}");
        assert!(e.contains("mips"), "{e}");
    }

    #[test]
    fn mips_ops_bypass_the_fragment_tier() {
        let a = mips_analysis();
        let tier = MemTier::default();
        for op in ["disasm", "instrument"] {
            let (cold, s1) = run_op_fragments(op, &a, 1, &tier).expect(op);
            let (warm, s2) = run_op_fragments(op, &a, 1, &tier).expect(op);
            assert_eq!(cold, warm, "{op}: generic path is deterministic");
            assert_eq!(s1, FragmentStats::default(), "{op}: no fragment accounting");
            assert_eq!(s2, FragmentStats::default());
        }
        assert!(
            tier.0.lock().unwrap().is_empty(),
            "generic ops never write SPARC CFG fragments"
        );
    }

    #[test]
    fn stat_reports_the_machine_line_for_sparc_too() {
        let a = analysis();
        let stat = String::from_utf8(run_op("stat", &a).unwrap()).unwrap();
        assert!(stat.contains("machine: sparc"), "{stat}");
    }

    /// In-memory fragment tier for tests and benches.
    #[derive(Default)]
    pub(crate) struct MemTier(Mutex<HashMap<(u64, String), Vec<u8>>>);

    impl FragmentTier for MemTier {
        fn load(&self, key: u64, op: &str) -> Option<Vec<u8>> {
            self.0.lock().unwrap().get(&(key, op.to_string())).cloned()
        }
        fn store(&self, key: u64, op: &str, bytes: &[u8]) {
            self.0
                .lock()
                .unwrap()
                .insert((key, op.to_string()), bytes.to_vec());
        }
    }

    #[test]
    fn text_ops_render_and_are_deterministic() {
        let a = analysis();
        for op in ["disasm", "cfg-summary", "liveness", "stat"] {
            let one = run_op(op, &a).expect(op);
            let two = run_op(op, &a).expect(op);
            assert!(!one.is_empty(), "{op} produced output");
            assert_eq!(one, two, "{op} is deterministic");
        }
        let summary = String::from_utf8(run_op("cfg-summary", &a).unwrap()).unwrap();
        assert!(summary.contains("TOTAL:"));
        let stat = String::from_utf8(run_op("stat", &a).unwrap()).unwrap();
        assert!(stat.contains("routines:"));
        assert!(stat.contains("discovery: symbols"));
    }

    #[test]
    fn instrument_preserves_behavior_and_counts_edges() {
        let a = analysis();
        let original = eel_emu::run_image(a.image()).expect("run original");
        let wef = run_op("instrument", &a).expect("instrument");
        let edited = Image::from_bytes(&wef).expect("edited image parses");
        let outcome = eel_emu::run_image(&edited).expect("run edited");
        assert_eq!(outcome.exit_code, original.exit_code);
    }

    #[test]
    fn unknown_op_is_an_error() {
        let a = analysis();
        let e = run_op("frobnicate", &a).unwrap_err();
        assert!(e.contains("unknown op"));
    }

    #[test]
    fn parallel_output_is_byte_identical_to_sequential() {
        let a = analysis();
        for op in CACHED_OPS {
            let sequential = run_op_with(op, &a, 1).expect(op);
            for threads in [0, 2, 3, 8] {
                let parallel = run_op_with(op, &a, threads).expect(op);
                assert_eq!(
                    sequential, parallel,
                    "{op} with {threads} threads must match sequential byte-for-byte"
                );
            }
        }
    }

    #[test]
    fn two_ops_on_one_analysis_from_two_threads_build_each_routine_once() {
        // The sequential truth, on an analysis of its own.
        let fresh = multi_routine_analysis();
        let ops = ["disasm", "instrument"];
        let expected: Vec<Vec<u8>> = ops.iter().map(|op| run_op(op, &fresh).expect(op)).collect();
        assert_eq!(fresh.shape_builds(), fresh.routines().len());

        let shared = multi_routine_analysis();
        let start = std::sync::Barrier::new(ops.len());
        let bodies: Vec<Vec<u8>> = std::thread::scope(|s| {
            let handles: Vec<_> = ops
                .iter()
                .map(|&op| {
                    let (a, start) = (Arc::clone(&shared), &start);
                    s.spawn(move || {
                        start.wait();
                        run_op(op, &a).expect(op)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(bodies, expected, "concurrent bodies match sequential ones");
        assert_eq!(
            shared.shape_builds(),
            shared.routines().len(),
            "each routine's CFG is built once across both ops"
        );
        assert_eq!(shared.shape_bytes(), fresh.shape_bytes());
    }

    #[test]
    fn edit_shares_the_shapes_the_cfg_ops_build_in_either_order() {
        let script = "counter main\ncounter helper\ncounter double\napply\n";
        let expected = {
            let fresh = multi_routine_analysis();
            run_edit(&fresh, script).expect("edit")
        };
        for edit_first in [false, true] {
            let a = multi_routine_analysis();
            let edit = || assert_eq!(run_edit(&a, script).expect("edit"), expected);
            if edit_first {
                edit();
                let filled = a.shape_builds();
                assert_eq!(filled, a.routines().len(), "the edit fills every cell");
            }
            for op in ["disasm", "instrument"] {
                run_op(op, &a).expect(op);
            }
            if !edit_first {
                edit();
            }
            assert_eq!(
                a.shape_builds(),
                a.routines().len(),
                "edit first: {edit_first}: each routine's CFG is built once"
            );
        }
    }

    #[test]
    fn fragment_warm_rerun_is_byte_identical_and_all_hits() {
        let a = multi_routine_analysis();
        let routines = a.routines().len() as u32;
        for op in CACHED_OPS {
            let cold = run_op(op, &a).expect(op);
            let tier = MemTier::default();
            let (first, s1) = run_op_fragments(op, &a, 1, &tier).expect(op);
            assert_eq!(first, cold, "{op}: tier-backed cold run matches plain");
            assert_eq!(s1.hits, 0, "{op}: nothing cached yet");
            let (second, s2) = run_op_fragments(op, &a, 1, &tier).expect(op);
            assert_eq!(second, cold, "{op}: warm stitch is byte-identical");
            if *op == "stat" {
                assert_eq!(s2.total, 0, "stat takes no fragments");
            } else {
                assert_eq!(
                    (s2.hits, s2.total),
                    (routines, routines),
                    "{op}: every routine stitches from its fragment"
                );
            }
        }
    }

    #[test]
    fn fragment_warm_rerun_matches_at_any_thread_count() {
        let a = multi_routine_analysis();
        for op in ["disasm", "instrument"] {
            let cold = run_op_with(op, &a, 1).expect(op);
            let tier = MemTier::default();
            let _ = run_op_fragments(op, &a, 1, &tier).expect(op);
            for threads in [0, 2, 8] {
                let (warm, s) = run_op_fragments(op, &a, threads, &tier).expect(op);
                assert_eq!(warm, cold, "{op}: warm at {threads} threads");
                assert_eq!(s.hits, s.total, "{op}: all hits at {threads} threads");
            }
        }
    }

    #[test]
    fn poisoned_fragments_fall_back_to_live_builds() {
        let a = multi_routine_analysis();
        for op in ["disasm", "cfg-summary", "liveness", "instrument"] {
            let cold = run_op(op, &a).expect(op);
            let tier = MemTier::default();
            let _ = run_op_fragments(op, &a, 1, &tier).expect(op);
            // Corrupt every stored fragment: truncate to the version byte.
            {
                let mut map = tier.0.lock().unwrap();
                for v in map.values_mut() {
                    v.truncate(1);
                }
            }
            let (out, s) = run_op_fragments(op, &a, 1, &tier).expect(op);
            assert_eq!(out, cold, "{op}: corrupt fragments must not change output");
            assert_eq!(s.hits, 0, "{op}: corrupt fragments are not hits");
        }
    }

    #[test]
    fn edit_op_is_deterministic_and_preserves_behavior() {
        let a = analysis();
        let original = eel_emu::run_image(a.image()).expect("run original");
        let script = "counter main\napply\n";
        let one = run_edit(&a, script).expect("edit");
        let two = run_edit(&a, script).expect("edit again");
        assert_eq!(one, two, "same script, same bytes");
        let edited = Image::from_bytes(&one).expect("edited image parses");
        let outcome = eel_emu::run_image(&edited).expect("run edited");
        assert_eq!(outcome.exit_code, original.exit_code);
        assert_eq!(outcome.output, original.output);
    }

    #[test]
    fn edit_op_with_empty_script_is_byte_identical() {
        let a = analysis();
        let out = run_edit(&a, "# nothing to do\n").expect("empty edit");
        assert_eq!(out, a.image().to_bytes());
    }

    #[test]
    fn edit_op_reports_script_errors() {
        let a = analysis();
        let e = run_edit(&a, "frobnicate everything\n").unwrap_err();
        assert!(e.starts_with("edit:"), "{e}");
        assert!(e.contains("unknown command"), "{e}");
        let e = run_edit(&a, "counter nosuchroutine\n").unwrap_err();
        assert!(e.contains("no routine named"), "{e}");
    }
}
