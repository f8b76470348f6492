//! The patch-session state machine.
//!
//! See the crate docs for the model: a session is a log of validated
//! edit commands over a shared [`Analysis`]; `dry-run` and `apply`
//! replay the log against a fresh [`Executable`]. Nothing here touches
//! a file or socket.

use crate::command::{Command, Target};
use crate::{fnv1a64, EditError};
use eel_core::{Analysis, BlockKind, Cfg, Executable, RoutineId, Snippet};
use eel_exe::Image;
use eel_isa::Reg;
use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;
use std::sync::Arc;

/// One validated, resolved edit in the session log.
#[derive(Debug, Clone)]
struct LoggedEdit {
    /// The command as entered (kept for `list` and undo messages).
    cmd: Command,
    /// The routine the resolved address lives in.
    routine: RoutineId,
    /// The resolved original text address the edit anchors to.
    addr: u32,
}

/// What a command returned.
#[derive(Debug, Clone)]
pub enum Reply {
    /// A rendered listing or confirmation line.
    Text(String),
    /// The `dry-run` layout prediction.
    DryRun(DryRunReport),
    /// The `apply` result: the edited image plus the report that
    /// describes it (identical to what `dry-run` predicted).
    Applied(ApplyResult),
}

impl Reply {
    /// The reply rendered for a terminal or log.
    pub fn render(&self) -> String {
        match self {
            Reply::Text(s) => s.clone(),
            Reply::DryRun(r) => r.to_string(),
            Reply::Applied(a) => format!("applied\n{}", a.report),
        }
    }
}

/// The outcome of `apply`: the edited image and its layout report.
#[derive(Debug, Clone)]
pub struct ApplyResult {
    /// The edited executable.
    pub image: Image,
    /// The same report a `dry-run` at this log state produces.
    pub report: DryRunReport,
}

/// Per-routine layout delta for routines the session edited.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutineDelta {
    /// Routine name.
    pub name: String,
    /// Number of logged edits targeting it.
    pub edits: usize,
    /// Original start address.
    pub start_before: u32,
    /// Start address in the edited image (`None` if layout dropped it,
    /// which a session never does).
    pub start_after: Option<u32>,
}

/// The layout summary `dry-run` predicts and `apply` realizes. Replay is
/// deterministic, so two reports from the same log state are equal —
/// including [`DryRunReport::image_hash`], an FNV-1a fingerprint of the
/// laid-out WEF bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DryRunReport {
    /// Logged edit commands replayed.
    pub commands: usize,
    /// Entry point before editing.
    pub entry_before: u32,
    /// Entry point after layout.
    pub entry_after: u32,
    /// Text bytes before.
    pub text_before: usize,
    /// Text bytes after.
    pub text_after: usize,
    /// Data bytes before (bss not materialized).
    pub data_before: usize,
    /// Data bytes after (bss + reservations materialized when edited).
    pub data_after: usize,
    /// Deltas for each edited routine, in address order.
    pub routines: Vec<RoutineDelta>,
    /// FNV-1a of the edited image's WEF bytes.
    pub image_hash: u64,
}

impl fmt::Display for DryRunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "edits: {}  text: {} -> {} bytes  data: {} -> {} bytes  entry: {:#010x} -> {:#010x}",
            self.commands,
            self.text_before,
            self.text_after,
            self.data_before,
            self.data_after,
            self.entry_before,
            self.entry_after
        )?;
        for r in &self.routines {
            writeln!(
                f,
                "  {}: {} edit{}  {:#010x} -> {}",
                r.name,
                r.edits,
                if r.edits == 1 { "" } else { "s" },
                r.start_before,
                match r.start_after {
                    Some(a) => format!("{a:#010x}"),
                    None => "(removed)".into(),
                }
            )?;
        }
        write!(f, "image-hash: {:016x}", self.image_hash)
    }
}

/// A command-driven patch session. See the crate docs for the model.
pub struct EditSession {
    analysis: Arc<Analysis>,
    /// Scratch executable + CFGs mirroring the log, used to validate
    /// incoming commands eagerly and to resolve `name:bN:iM` targets.
    scratch: Executable,
    cfgs: BTreeMap<RoutineId, Cfg>,
    log: Vec<LoggedEdit>,
}

impl EditSession {
    /// Opens a session on an image: validates it and runs routine
    /// discovery once.
    ///
    /// # Errors
    ///
    /// [`EditError::Core`] when the image fails validation or discovery.
    pub fn new(image: Arc<Image>) -> Result<EditSession, EditError> {
        let analysis = Analysis::compute(image)?;
        Ok(EditSession::from_analysis(Arc::new(analysis)))
    }

    /// Opens a session on an already-shared analysis (the eel-serve hot
    /// path: the analysis came from the cache, no rediscovery).
    pub fn from_analysis(analysis: Arc<Analysis>) -> EditSession {
        let scratch = Executable::from_analysis(&analysis);
        EditSession {
            analysis,
            scratch,
            cfgs: BTreeMap::new(),
            log: Vec::new(),
        }
    }

    /// Number of edits pending in the log.
    pub fn pending(&self) -> usize {
        self.log.len()
    }

    /// Parses and executes one statement.
    ///
    /// # Errors
    ///
    /// Parse errors, resolution errors, or core edit rejections; the
    /// session state is unchanged when an error is returned.
    pub fn exec_line(&mut self, stmt: &str) -> Result<Reply, EditError> {
        let cmd = crate::command::parse_statement(stmt)?;
        self.exec(&cmd)
    }

    /// Executes one parsed command.
    ///
    /// # Errors
    ///
    /// As [`EditSession::exec_line`], minus parsing.
    pub fn exec(&mut self, cmd: &Command) -> Result<Reply, EditError> {
        let _obs = eel_obs::span("edit.command");
        eel_obs::counter!("edit.commands").add(1);
        match cmd {
            Command::List => Ok(Reply::Text(self.render_list())),
            Command::Show(name) => {
                let id = self.find_routine(name)?;
                self.ensure_cfg(id)?;
                Ok(Reply::Text(self.render_show(id)))
            }
            Command::Undo => {
                let undone = self.log.pop().ok_or(EditError::NothingToUndo)?;
                eel_obs::counter!("edit.undo").add(1);
                self.rebuild_scratch()?;
                Ok(Reply::Text(format!("undid: {}", undone.cmd)))
            }
            Command::Revert => {
                let n = self.log.len();
                self.log.clear();
                self.rebuild_scratch()?;
                Ok(Reply::Text(format!(
                    "reverted {n} edit{}",
                    if n == 1 { "" } else { "s" }
                )))
            }
            Command::DryRun => {
                eel_obs::counter!("edit.dry_run").add(1);
                let (report, _) = self.replay()?;
                Ok(Reply::DryRun(report))
            }
            Command::Apply => {
                eel_obs::counter!("edit.apply").add(1);
                let (report, image) = self.replay()?;
                Ok(Reply::Applied(ApplyResult { image, report }))
            }
            edit => {
                let target = match edit {
                    Command::InsertBefore { target, .. }
                    | Command::InsertAfter { target, .. }
                    | Command::Delete { target }
                    | Command::Replace { target, .. }
                    | Command::Counter { target } => target,
                    _ => unreachable!("non-edit commands handled above"),
                };
                let (routine, addr) = self.resolve(target)?;
                let logged = LoggedEdit {
                    cmd: edit.clone(),
                    routine,
                    addr,
                };
                // Validate by applying to the scratch state. On failure
                // the scratch may hold a half-applied edit (e.g. the
                // delete half of a replace) — rebuild it from the log.
                match Self::apply_one(&mut self.scratch, &mut self.cfgs, &logged) {
                    Ok(()) => {
                        eel_obs::counter!("edit.edits").add(1);
                        let msg = format!("#{}: {} @ {addr:#010x}", self.log.len() + 1, edit);
                        self.log.push(logged);
                        Ok(Reply::Text(msg))
                    }
                    Err(e) => {
                        self.rebuild_scratch()?;
                        Err(e)
                    }
                }
            }
        }
    }

    /// Parses and executes a whole script, stopping at the first error.
    ///
    /// # Errors
    ///
    /// The first parse or execution error; earlier commands remain
    /// executed.
    pub fn run_script(&mut self, src: &str) -> Result<Vec<Reply>, EditError> {
        let _obs = eel_obs::span("edit.script");
        let cmds = crate::command::parse_script(src)?;
        let mut replies = Vec::with_capacity(cmds.len());
        for cmd in &cmds {
            replies.push(self.exec(cmd)?);
        }
        Ok(replies)
    }

    /// Runs a script and returns the applied image: the last `apply`'s
    /// result if the script has one, otherwise an implicit final apply.
    /// This is the serve `edit` op's entry point.
    ///
    /// # Errors
    ///
    /// As [`EditSession::run_script`].
    pub fn run_script_to_image(&mut self, src: &str) -> Result<ApplyResult, EditError> {
        let mut replies = self.run_script(src)?;
        while let Some(last) = replies.pop() {
            if let Reply::Applied(a) = last {
                return Ok(a);
            }
        }
        let (report, image) = self.replay()?;
        eel_obs::counter!("edit.apply").add(1);
        Ok(ApplyResult { image, report })
    }

    /// Lays the edited program out without committing anything.
    ///
    /// # Errors
    ///
    /// Layout failures (register pressure, overflow) surface here.
    pub fn dry_run(&mut self) -> Result<DryRunReport, EditError> {
        eel_obs::counter!("edit.dry_run").add(1);
        self.replay().map(|(report, _)| report)
    }

    /// Lays the edited program out and returns the edited image. The
    /// session stays usable afterwards (each replay is independent).
    ///
    /// # Errors
    ///
    /// As [`EditSession::dry_run`].
    pub fn apply(&mut self) -> Result<ApplyResult, EditError> {
        eel_obs::counter!("edit.apply").add(1);
        self.replay()
            .map(|(report, image)| ApplyResult { image, report })
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn find_routine(&self, name: &str) -> Result<RoutineId, EditError> {
        self.scratch
            .all_routine_ids()
            .into_iter()
            .find(|&id| self.scratch.routine(id).name() == name)
            .ok_or_else(|| EditError::UnknownRoutine(name.to_string()))
    }

    fn ensure_cfg(&mut self, id: RoutineId) -> Result<(), EditError> {
        if !self.cfgs.contains_key(&id) {
            let cfg = self.scratch.build_cfg(id)?;
            self.cfgs.insert(id, cfg);
        }
        Ok(())
    }

    /// Normal blocks in address order — the `bN` coordinate space.
    fn normal_blocks(cfg: &Cfg) -> Vec<eel_core::Block<'_>> {
        let mut blocks: Vec<eel_core::Block<'_>> = cfg
            .blocks()
            .filter(|(_, b)| b.kind == BlockKind::Normal)
            .map(|(_, b)| b)
            .collect();
        blocks.sort_by_key(|b| b.addr);
        blocks
    }

    fn resolve(&mut self, target: &Target) -> Result<(RoutineId, u32), EditError> {
        match target {
            Target::Addr(addr) => {
                let id = self.scratch.routine_containing(*addr).ok_or_else(|| {
                    EditError::BadTarget(format!("{addr:#010x} is outside every routine"))
                })?;
                Ok((id, *addr))
            }
            Target::Routine(name) => {
                let id = self.find_routine(name)?;
                Ok((id, self.scratch.routine(id).start()))
            }
            Target::Block { routine, block } | Target::Insn { routine, block, .. } => {
                let id = self.find_routine(routine)?;
                self.ensure_cfg(id)?;
                let cfg = &self.cfgs[&id];
                let blocks = Self::normal_blocks(cfg);
                let b = blocks.get(*block).ok_or_else(|| {
                    EditError::BadTarget(format!(
                        "{routine} has {} blocks, no b{block}",
                        blocks.len()
                    ))
                })?;
                let index = match target {
                    Target::Insn { insn, .. } => *insn,
                    _ => 0,
                };
                let at = b.insns.get(index).ok_or_else(|| {
                    EditError::BadTarget(format!(
                        "{routine}:b{block} has {} instructions, no i{index}",
                        b.insns.len()
                    ))
                })?;
                let addr = at.addr.ok_or_else(|| {
                    EditError::BadTarget(format!(
                        "{routine}:b{block}:i{index} is synthesized (no original address)"
                    ))
                })?;
                Ok((id, addr))
            }
        }
    }

    fn build_snippet(asm: &str, scavenge: &[Reg]) -> Result<Snippet, EditError> {
        let snippet = Snippet::from_asm(asm)?;
        Ok(if scavenge.is_empty() {
            snippet
        } else {
            snippet.with_scavenged(scavenge)
        })
    }

    /// Applies one logged edit to an executable + CFG-map pair. Used
    /// identically for eager validation (scratch) and replay, which is
    /// what makes the two agree.
    fn apply_one(
        exec: &mut Executable,
        cfgs: &mut BTreeMap<RoutineId, Cfg>,
        e: &LoggedEdit,
    ) -> Result<(), EditError> {
        if let std::collections::btree_map::Entry::Vacant(slot) = cfgs.entry(e.routine) {
            slot.insert(exec.build_cfg(e.routine)?);
        }
        match &e.cmd {
            Command::Counter { .. } => {
                let counter = exec.reserve_data(8);
                let cfg = cfgs.get_mut(&e.routine).expect("just inserted");
                cfg.add_code_before(e.addr, Snippet::counter_increment(counter))?;
            }
            Command::InsertBefore { asm, scavenge, .. } => {
                let snippet = Self::build_snippet(asm, scavenge)?;
                cfgs.get_mut(&e.routine)
                    .expect("just inserted")
                    .add_code_before(e.addr, snippet)?;
            }
            Command::InsertAfter { asm, scavenge, .. } => {
                let snippet = Self::build_snippet(asm, scavenge)?;
                cfgs.get_mut(&e.routine)
                    .expect("just inserted")
                    .add_code_after(e.addr, snippet)?;
            }
            Command::Delete { .. } => {
                cfgs.get_mut(&e.routine)
                    .expect("just inserted")
                    .delete_insn(e.addr)?;
            }
            Command::Replace { asm, scavenge, .. } => {
                // Delete + insert-before at the same address: layout
                // emits before-snippets ahead of the deleted original
                // slot, so this splices the snippet exactly in place.
                let snippet = Self::build_snippet(asm, scavenge)?;
                let cfg = cfgs.get_mut(&e.routine).expect("just inserted");
                cfg.delete_insn(e.addr)?;
                cfg.add_code_before(e.addr, snippet)?;
            }
            other => {
                return Err(EditError::Core(format!(
                    "internal: {other} is not an edit command"
                )))
            }
        }
        Ok(())
    }

    /// Rebuilds the scratch state by replaying the log onto a fresh
    /// executable (after undo/revert, or after a failed half-applied
    /// command).
    fn rebuild_scratch(&mut self) -> Result<(), EditError> {
        self.scratch = Executable::from_analysis(&self.analysis);
        self.cfgs.clear();
        let log = std::mem::take(&mut self.log);
        for e in &log {
            // Every entry applied cleanly to this exact state before.
            Self::apply_one(&mut self.scratch, &mut self.cfgs, e)
                .map_err(|err| EditError::Core(format!("internal: log replay failed: {err}")))?;
        }
        self.log = log;
        Ok(())
    }

    /// Replays the log against a fresh executable and lays it out.
    fn replay(&self) -> Result<(DryRunReport, Image), EditError> {
        let _obs = eel_obs::span("edit.replay");
        let mut exec = Executable::from_analysis(&self.analysis);
        let mut cfgs: BTreeMap<RoutineId, Cfg> = BTreeMap::new();
        for e in &self.log {
            Self::apply_one(&mut exec, &mut cfgs, e)?;
        }
        let mut edits_per_routine: BTreeMap<RoutineId, usize> = BTreeMap::new();
        for e in &self.log {
            *edits_per_routine.entry(e.routine).or_insert(0) += 1;
        }
        for (_, cfg) in std::mem::take(&mut cfgs) {
            exec.install_edits(cfg)?;
        }
        let before = self.analysis.image();
        let (entry_before, text_before, data_before) =
            (before.entry, before.text.len(), before.data.len());
        let image = exec.write_edited()?;
        let routines = edits_per_routine
            .into_iter()
            .map(|(id, edits)| {
                let r = exec.routine(id);
                RoutineDelta {
                    name: r.name(),
                    edits,
                    start_before: r.start(),
                    start_after: exec.edited_addr(r.start()),
                }
            })
            .collect();
        let report = DryRunReport {
            commands: self.log.len(),
            entry_before,
            entry_after: image.entry,
            text_before,
            text_after: image.text.len(),
            data_before,
            data_after: image.data.len(),
            routines,
            image_hash: fnv1a64(&image.to_bytes()),
        };
        Ok((report, image))
    }

    fn render_list(&self) -> String {
        let mut out = String::new();
        let mut edits_per_routine: BTreeMap<RoutineId, usize> = BTreeMap::new();
        for e in &self.log {
            *edits_per_routine.entry(e.routine).or_insert(0) += 1;
        }
        for id in self.scratch.all_routine_ids() {
            let r = self.scratch.routine(id);
            let edits = edits_per_routine.get(&id).copied().unwrap_or(0);
            let _ = writeln!(
                out,
                "{:#010x}  {:5} bytes  {}{}{}",
                r.start(),
                r.size(),
                r.name(),
                if r.is_hidden() { " (hidden)" } else { "" },
                if edits > 0 {
                    format!("  [{edits} edit{}]", if edits == 1 { "" } else { "s" })
                } else {
                    String::new()
                }
            );
        }
        let _ = write!(
            out,
            "{} pending edit{}",
            self.log.len(),
            if self.log.len() == 1 { "" } else { "s" }
        );
        out
    }

    fn render_show(&self, id: RoutineId) -> String {
        let r = self.scratch.routine(id);
        let cfg = &self.cfgs[&id];
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{} @ {:#010x} ({} bytes{})",
            r.name(),
            r.start(),
            r.size(),
            if cfg.is_incomplete() {
                ", INCOMPLETE CFG"
            } else {
                ""
            }
        );
        for (n, b) in Self::normal_blocks(cfg).iter().enumerate() {
            let _ = writeln!(
                out,
                "  b{n} @ {:#010x}{}:",
                b.addr,
                if b.editable { "" } else { " (uneditable)" }
            );
            for (m, at) in b.insns.iter().enumerate() {
                match at.addr {
                    Some(a) => {
                        let _ = writeln!(out, "    i{m}  {a:#010x}  {}", at.insn);
                    }
                    None => {
                        let _ = writeln!(out, "    i{m}  --------    {}", at.insn);
                    }
                }
            }
        }
        out.pop();
        out
    }
}
