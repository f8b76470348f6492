//! Code snippets (paper §3.5, Figures 2 and 5).
//!
//! A snippet encapsulates foreign machine code to be added to an
//! executable. The tool supplies the instructions plus, optionally:
//!
//! * a set of registers used in the body that EEL should replace with
//!   *scavenged* dead registers at the insertion point (spill-wrapping
//!   them to the stack when no dead register exists),
//! * a set of registers that must never be allocated, and
//! * a call-back invoked after register allocation, with the final
//!   instructions, their placement address, and the assignment — used for
//!   backpatching and displacement fix-ups, exactly as in the paper.
//!
//! Condition codes are handled like Blizzard's optimization (§5): if the
//! body writes `icc` while `icc` is live at the insertion point, the body
//! is wrapped in `rd %psr` / `wr %psr` using one extra scavenged register;
//! when `icc` is dead the wrap is skipped (the "faster test sequence").

use crate::error::EelError;
use eel_isa::{Builder, Insn, Op, Reg, RegSet, Src2};
use std::fmt;

/// A register renaming: requested register → allocated register. Dense
/// over the 64 register numbers a [`RegSet`] holds, so building and
/// reading it touch no heap; it iterates in ascending register order.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct RegMap {
    keys: RegSet,
    to: [Reg; 64],
}

impl Default for RegMap {
    fn default() -> RegMap {
        RegMap {
            keys: RegSet::new(),
            to: [Reg::G0; 64],
        }
    }
}

impl RegMap {
    /// Maps `from` to `to`, replacing any earlier mapping of `from`.
    pub fn insert(&mut self, from: Reg, to: Reg) {
        self.keys.insert(from);
        self.to[from.index()] = to;
    }

    /// What `r` is mapped to, if anything.
    pub fn get(&self, r: Reg) -> Option<Reg> {
        self.keys.contains(r).then(|| self.to[r.index()])
    }

    /// Number of mapped registers.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Is nothing mapped?
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The `(requested, allocated)` pairs in ascending requested order.
    pub fn iter(&self) -> impl Iterator<Item = (Reg, Reg)> + '_ {
        self.keys.iter().map(|r| (r, self.to[r.index()]))
    }

    /// The allocated registers, by ascending requested register.
    pub fn values(&self) -> impl Iterator<Item = Reg> + '_ {
        self.iter().map(|(_, to)| to)
    }

    /// `r` renamed, or `r` itself when unmapped.
    fn apply(&self, r: Reg) -> Reg {
        self.get(r).unwrap_or(r)
    }
}

impl std::ops::Index<&Reg> for RegMap {
    type Output = Reg;

    /// # Panics
    ///
    /// Panics when `r` is unmapped.
    fn index(&self, r: &Reg) -> &Reg {
        assert!(self.keys.contains(*r), "{r} is not mapped");
        &self.to[r.index()]
    }
}

impl fmt::Debug for RegMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// The register assignment a snippet received at placement, passed to its
/// call-back.
#[derive(Debug, Clone, Default)]
pub struct RegAssignment {
    /// Requested register → allocated register.
    pub map: RegMap,
    /// Registers that had to be spill-wrapped to the stack because no
    /// dead register was available.
    pub spilled: Vec<Reg>,
    /// Whether the condition codes were saved/restored around the body.
    pub cc_saved: bool,
}

/// Call-back type: `(instructions, placement_address, assignment)`.
/// `Send` so a CFG, which carries pending snippet edits, can move to
/// another thread.
pub type Callback = Box<dyn FnMut(&mut [Insn], u32, &RegAssignment) + Send>;

/// Result of materializing a snippet: the placement-ready instructions,
/// the register assignment, and re-indexed run-time calls.
pub(crate) type Materialized = (Vec<Insn>, RegAssignment, Vec<(usize, String)>);

/// Foreign code to insert into an executable.
pub struct Snippet {
    body: Vec<Insn>,
    scavenge: Vec<Reg>,
    forbidden: RegSet,
    calls: Vec<(usize, String)>,
    callback: Option<Callback>,
    force_spill: bool,
}

impl fmt::Debug for Snippet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Snippet")
            .field("body", &self.body)
            .field("scavenge", &self.scavenge)
            .field("forbidden", &self.forbidden)
            .field("calls", &self.calls)
            .field("callback", &self.callback.is_some())
            .finish()
    }
}

/// Registers never scavenged: the zero register, stack/frame pointers.
fn never_scavenged() -> RegSet {
    RegSet::of(&[Reg::G0, Reg::SP, Reg::FP])
}

/// Stack offset (below `%sp`) where snippet spills live; kept clear of the
/// run-time translator's scratch area at `%sp - 56 .. %sp - 96`.
const SPILL_BASE: i32 = -112;

impl Snippet {
    /// Creates a snippet from raw instructions.
    pub fn new(body: Vec<Insn>) -> Snippet {
        Snippet {
            body,
            scavenge: Vec::new(),
            forbidden: RegSet::new(),
            calls: Vec::new(),
            callback: None,
            force_spill: false,
        }
    }

    /// Assembles a snippet body from assembly text (a position-relative
    /// fragment; labels allowed, data directives rejected).
    ///
    /// # Errors
    ///
    /// Returns [`EelError::Internal`] wrapping the assembler diagnostic.
    pub fn from_asm(src: &str) -> Result<Snippet, EelError> {
        let insns = eel_asm::assemble_fragment(src, 0)
            .map_err(|e| EelError::Internal(format!("snippet assembly: {e}")))?;
        Ok(Snippet::new(insns))
    }

    /// Declares registers used in the body that EEL should replace with
    /// scavenged dead registers (the paper's first register set).
    pub fn with_scavenged(mut self, regs: &[Reg]) -> Snippet {
        self.scavenge = regs.to_vec();
        self
    }

    /// Declares registers that must not be used even if free (the paper's
    /// second register set).
    pub fn with_forbidden(mut self, regs: &[Reg]) -> Snippet {
        self.forbidden = RegSet::of(regs);
        self
    }

    /// Attaches the placement call-back.
    pub fn with_callback(mut self, cb: Callback) -> Snippet {
        self.callback = Some(cb);
        self
    }

    /// Disables register scavenging: every requested register is
    /// spill-wrapped as if no dead register existed. This exists for the
    /// scavenging ablation (what does the liveness analysis buy?).
    pub fn with_forced_spill(mut self) -> Snippet {
        self.force_spill = true;
        self
    }

    /// Whether a placement call-back is attached. Call-backs are
    /// arbitrary closures, so layouts holding one cannot be serialized
    /// into analysis fragments (`crate::fragment`).
    pub(crate) fn has_callback(&self) -> bool {
        self.callback.is_some()
    }

    /// Marks instruction `idx` as a call to the named run-time routine
    /// (added via [`crate::Executable::add_runtime_routine`]); the editor
    /// patches its displacement at final placement.
    pub fn with_call(mut self, idx: usize, routine: &str) -> Snippet {
        self.calls.push((idx, routine.to_string()));
        self
    }

    /// The body instructions as currently specified.
    pub fn body(&self) -> &[Insn] {
        &self.body
    }

    /// Number of instructions in the (unmaterialized) body.
    pub fn len(&self) -> usize {
        self.body.len()
    }

    /// Is the body empty?
    pub fn is_empty(&self) -> bool {
        self.body.is_empty()
    }

    /// Patches the `sethi` immediate of body instruction `idx` to the
    /// upper bits of `value` — the paper's `SET_SETHI_HI` (Figure 2).
    ///
    /// # Panics
    ///
    /// Panics if instruction `idx` is not a `sethi`.
    pub fn set_sethi_hi(&mut self, idx: usize, value: u32) {
        match self.body[idx].op {
            Op::Sethi { rd, .. } => {
                self.body[idx] = Builder::sethi_hi(rd, value);
            }
            other => panic!("set_sethi_hi on non-sethi {other:?}"),
        }
    }

    /// Patches the 13-bit immediate of body instruction `idx` to
    /// `%lo(value)` — the paper's `SET_SETHI_LOW` (Figure 2). Works on any
    /// immediate-form ALU/load/store instruction.
    ///
    /// # Panics
    ///
    /// Panics if instruction `idx` has no immediate operand.
    pub fn set_sethi_low(&mut self, idx: usize, value: u32) {
        let lo = Src2::Imm(eel_isa::lo10(value) as i32);
        let op = match self.body[idx].op {
            Op::Alu {
                op,
                cc,
                rd,
                rs1,
                src2: Src2::Imm(_),
            } => Op::Alu {
                op,
                cc,
                rd,
                rs1,
                src2: lo,
            },
            Op::Load {
                width,
                signed,
                rd,
                rs1,
                src2: Src2::Imm(_),
                fp,
            } => Op::Load {
                width,
                signed,
                rd,
                rs1,
                src2: lo,
                fp,
            },
            Op::Store {
                width,
                rd,
                rs1,
                src2: Src2::Imm(_),
                fp,
            } => Op::Store {
                width,
                rd,
                rs1,
                src2: lo,
                fp,
            },
            other => panic!("set_sethi_low on immediate-less {other:?}"),
        };
        self.body[idx] = Insn {
            word: eel_isa::encode(&op),
            op,
        };
    }

    /// The canonical profile-counter snippet (Figure 5): increments the
    /// 32-bit counter at `counter_addr`, using two scavenged registers.
    pub fn counter_increment(counter_addr: u32) -> Snippet {
        let hi = Builder::sethi_hi(Reg(6), counter_addr);
        let lo = Src2::Imm(eel_isa::lo10(counter_addr) as i32);
        let body = vec![
            hi,
            Builder::ld(Reg(7), Reg(6), lo),
            Builder::add(Reg(7), Reg(7), Src2::Imm(1)),
            Builder::st(Reg(7), Reg(6), lo),
        ];
        Snippet::new(body).with_scavenged(&[Reg(6), Reg(7)])
    }

    /// Materializes the snippet at a point where `live` registers are
    /// live: allocates scavenged registers, wraps spills and (if needed)
    /// condition-code save/restore, and returns the placement-ready
    /// instructions plus the assignment and any run-time calls
    /// (re-indexed into the returned vector).
    ///
    /// # Errors
    ///
    /// [`EelError::RegisterPressure`] when allocation is impossible even
    /// with spilling.
    pub(crate) fn materialize(&mut self, live: RegSet) -> Result<Materialized, EelError> {
        // Fixed registers: referenced by the body but not up for
        // reallocation; the allocator must avoid handing them out.
        let mut fixed = RegSet::new();
        for i in &self.body {
            fixed = fixed.union(i.reads()).union(i.writes());
        }
        for r in &self.scavenge {
            fixed.remove(*r);
        }

        let body_writes_cc = self.body.iter().any(|i| i.writes().contains(Reg::ICC));
        let need_cc_save = body_writes_cc && live.contains(Reg::ICC);

        let unavailable = live
            .union(self.forbidden)
            .union(fixed)
            .union(never_scavenged());
        // The dead registers, in preference order: the classic scratch
        // registers first (%g6/%g7, as qpt scavenged), then locals,
        // remaining globals, out- and in-registers; link registers last.
        // Walked only as far as allocation takes from it.
        const PREFERENCE: [u8; 29] = [
            6, 7, 23, 22, 21, 20, 19, 18, 17, 16, // %g6 %g7 %l7..%l0
            5, 4, 3, 2, 1, // %g5..%g1
            13, 12, 11, 10, 9, 8, // %o5..%o0
            29, 28, 27, 26, 25, 24, // %i5..%i0
            31, 15, // %i7 %o7
        ];
        let scavenging = !self.force_spill;
        let mut pool = PREFERENCE
            .iter()
            .map(|&i| Reg(i))
            .filter(|&r| scavenging && !unavailable.contains(r));

        let mut assignment = RegAssignment::default();
        let mut spill_seq: Vec<(Reg, i32)> = Vec::new();
        let mut spill_slot = SPILL_BASE;
        for &want in &self.scavenge {
            if let Some(got) = pool.next() {
                assignment.map.insert(want, got);
            } else {
                // No dead register: keep `want` but spill/restore it.
                if self.forbidden.contains(want) || never_scavenged().contains(want) {
                    return Err(EelError::RegisterPressure(format!(
                        "no register available for {want} and it may not be spilled"
                    )));
                }
                assignment.map.insert(want, want);
                assignment.spilled.push(want);
                spill_seq.push((want, spill_slot));
                spill_slot -= 8;
            }
        }

        let cc_temp = if need_cc_save {
            match pool.next() {
                Some(r) => Some(r),
                None => {
                    // Spill a register to hold the saved PSR.
                    let candidates = RegSet::all_gprs()
                        .without(self.forbidden)
                        .without(fixed)
                        .without(never_scavenged())
                        .without(assignment.map.values().collect());
                    let r = candidates.iter().next().ok_or_else(|| {
                        EelError::RegisterPressure("no register for PSR save".into())
                    })?;
                    assignment.spilled.push(r);
                    spill_seq.push((r, spill_slot));
                    Some(r)
                }
            }
        } else {
            None
        };
        assignment.cc_saved = cc_temp.is_some();

        // Assemble the final sequence: spills, cc save, body, cc restore,
        // fills.
        let wraps = 2 * spill_seq.len() + 2 * usize::from(cc_temp.is_some());
        let mut out = Vec::with_capacity(self.body.len() + wraps);
        for &(r, slot) in &spill_seq {
            out.push(Builder::st(r, Reg::SP, Src2::Imm(slot)));
        }
        if let Some(t) = cc_temp {
            out.push(Builder::alu(
                eel_isa::AluOp::Rdpsr,
                false,
                t,
                Reg::G0,
                Src2::Reg(Reg::G0),
            ));
        }
        let mut calls = Vec::new();
        for (i, insn) in self.body.iter().enumerate() {
            let placed = substitute_regs(*insn, |r| assignment.map.apply(r));
            if let Some((_, name)) = self.calls.iter().find(|(ci, _)| *ci == i) {
                calls.push((out.len(), name.clone()));
            }
            out.push(placed);
        }
        if let Some(t) = cc_temp {
            out.push(Builder::alu(
                eel_isa::AluOp::Wrpsr,
                false,
                Reg::G0,
                t,
                Src2::Reg(Reg::G0),
            ));
        }
        for &(r, slot) in spill_seq.iter().rev() {
            out.push(Builder::ld(r, Reg::SP, Src2::Imm(slot)));
        }
        Ok((out, assignment, calls))
    }

    /// Runs the call-back (if any) on the placed instructions. Called by
    /// the layout engine once the final address is known.
    pub(crate) fn run_callback(
        &mut self,
        insns: &mut [Insn],
        addr: u32,
        assignment: &RegAssignment,
    ) {
        if let Some(cb) = self.callback.as_mut() {
            cb(insns, addr, assignment);
        }
    }
}

/// Rewrites the registers of an instruction through `m` (used by
/// snippet register allocation, §3.5): every GPR field of the
/// instruction is renamed, and the result re-encoded.
fn substitute_regs(insn: Insn, m: impl Fn(Reg) -> Reg) -> Insn {
    let ms = |s: Src2| match s {
        Src2::Reg(r) => Src2::Reg(m(r)),
        imm => imm,
    };
    let op = match insn.op {
        Op::Sethi { rd, imm22 } => Op::Sethi { rd: m(rd), imm22 },
        Op::Alu {
            op,
            cc,
            rd,
            rs1,
            src2,
        } => Op::Alu {
            op,
            cc,
            rd: m(rd),
            rs1: m(rs1),
            src2: ms(src2),
        },
        Op::Jmpl { rd, rs1, src2 } => Op::Jmpl {
            rd: m(rd),
            rs1: m(rs1),
            src2: ms(src2),
        },
        Op::Load {
            width,
            signed,
            rd,
            rs1,
            src2,
            fp,
        } => Op::Load {
            width,
            signed,
            rd: m(rd),
            rs1: m(rs1),
            src2: ms(src2),
            fp,
        },
        Op::Store {
            width,
            rd,
            rs1,
            src2,
            fp,
        } => Op::Store {
            width,
            rd: m(rd),
            rs1: m(rs1),
            src2: ms(src2),
            fp,
        },
        Op::Trap { cond, rs1, src2 } => Op::Trap {
            cond,
            rs1: m(rs1),
            src2: ms(src2),
        },
        other @ (Op::Branch { .. } | Op::Call { .. } | Op::Unimp { .. } | Op::Invalid) => other,
    };
    Insn {
        word: eel_isa::encode(&op),
        op,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_snippet_shape() {
        let s = Snippet::counter_increment(0x0040_1234);
        assert_eq!(s.len(), 4);
        assert_eq!(s.body()[2].to_string(), "add %g7, 1, %g7");
    }

    #[test]
    fn materialize_allocates_dead_registers() {
        let mut s = Snippet::counter_increment(0x0040_0000);
        // %g6/%g7 live → must be replaced by something else.
        let live = RegSet::of(&[Reg(6), Reg(7)]);
        let (insns, asg, _) = s.materialize(live).unwrap();
        assert_eq!(insns.len(), 4, "no spills needed");
        let g6_new = asg.map[&Reg(6)];
        let g7_new = asg.map[&Reg(7)];
        assert_ne!(g6_new, Reg(6));
        assert_ne!(g7_new, Reg(7));
        assert!(insns[1].reads().contains(g6_new));
        assert!(insns[1].writes().contains(g7_new));
        assert!(asg.spilled.is_empty());
    }

    #[test]
    fn materialize_spills_under_full_pressure() {
        let mut s = Snippet::counter_increment(0x0040_0000);
        // Everything live: allocation must spill.
        let (insns, asg, _) = s.materialize(RegSet::all_gprs()).unwrap();
        assert_eq!(asg.spilled.len(), 2);
        assert_eq!(insns.len(), 8, "2 spills + 4 body + 2 fills");
        assert!(insns[0].to_string().starts_with("st "));
        assert!(insns[7].to_string().starts_with("ld "));
    }

    #[test]
    fn forbidden_registers_never_allocated() {
        let mut forbidden: Vec<Reg> = RegSet::all_gprs().iter().collect();
        // Forbid everything except %l0/%l1.
        forbidden.retain(|r| *r != Reg(16) && *r != Reg(17));
        let mut s = Snippet::counter_increment(0x0040_0000).with_forbidden(&forbidden);
        let (_, asg, _) = s.materialize(RegSet::new()).unwrap();
        let allocated: Vec<Reg> = asg.map.values().collect();
        assert!(allocated.contains(&Reg(16)) || allocated.contains(&Reg(17)));
        for r in allocated {
            assert!(!forbidden.contains(&r), "{r} was forbidden");
        }
    }

    #[test]
    fn cc_saved_only_when_live() {
        let body = vec![Builder::cmp(Reg(6), Src2::Imm(0))];
        let mut s = Snippet::new(body.clone()).with_scavenged(&[Reg(6)]);
        let (insns, asg, _) = s.materialize(RegSet::new()).unwrap();
        assert!(!asg.cc_saved, "icc dead: fast sequence");
        assert_eq!(insns.len(), 1);

        let mut s2 = Snippet::new(body).with_scavenged(&[Reg(6)]);
        let (insns2, asg2, _) = s2.materialize(RegSet::of(&[Reg::ICC])).unwrap();
        assert!(asg2.cc_saved, "icc live: wrapped sequence");
        assert_eq!(insns2.len(), 3);
        assert_eq!(insns2[0].to_string(), "rd %psr, %g7");
        assert!(insns2[2].to_string().contains("%psr"));
    }

    #[test]
    fn sethi_patching() {
        let mut s = Snippet::counter_increment(0);
        s.set_sethi_hi(0, 0x0040_0008);
        s.set_sethi_low(1, 0x0040_0008);
        s.set_sethi_low(3, 0x0040_0008);
        match s.body()[0].op {
            Op::Sethi { imm22, .. } => assert_eq!(imm22, 0x0040_0008 >> 10),
            other => panic!("{other:?}"),
        }
        match s.body()[1].op {
            Op::Load {
                src2: Src2::Imm(v), ..
            } => assert_eq!(v, 8),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn from_asm_round_trip() {
        let s = Snippet::from_asm(
            "sethi 0x1, %g6\n ld [%lo(0x1) + %g6], %g7\n add %g7, 1, %g7\n st %g7, [%lo(0x1) + %g6]\n",
        )
        .unwrap();
        assert_eq!(s.len(), 4);
        assert!(Snippet::from_asm(".data\nx: .word 1\n").is_err());
    }

    #[test]
    fn psr_save_spills_when_pool_is_empty() {
        // Body clobbers the condition codes while icc is live AND every
        // register is live: the PSR temporary itself must be spilled.
        let body = vec![Builder::cmp(Reg(6), Src2::Imm(0))];
        let mut s = Snippet::new(body).with_scavenged(&[Reg(6)]);
        let live = RegSet::all_gprs().union(RegSet::of(&[Reg::ICC]));
        let (insns, asg, _) = s.materialize(live).unwrap();
        assert!(asg.cc_saved, "icc live must force a PSR save");
        assert_eq!(
            asg.spilled.len(),
            2,
            "the scavenge target and the PSR temp both spill: {asg:?}"
        );
        assert!(asg.spilled.contains(&Reg(6)));
        // st, st, rd %psr, body, wr %psr, ld, ld.
        assert_eq!(insns.len(), 7);
        assert!(insns[0].to_string().starts_with("st "));
        assert!(insns[1].to_string().starts_with("st "));
        assert_eq!(insns[2].to_string(), format!("rd %psr, {}", asg.spilled[1]));
        assert!(insns[4].to_string().contains("%psr"));
        assert!(insns[5].to_string().starts_with("ld "));
        assert!(insns[6].to_string().starts_with("ld "));
    }

    #[test]
    fn unspillable_scavenge_target_is_register_pressure() {
        // %sp may never be renamed or spilled; with the pool forced
        // empty the allocator has no way out.
        let mut s = Snippet::new(vec![Builder::nop()])
            .with_scavenged(&[Reg::SP])
            .with_forced_spill();
        match s.materialize(RegSet::new()) {
            Err(EelError::RegisterPressure(msg)) => assert!(msg.contains("may not be spilled")),
            other => panic!("expected RegisterPressure, got {other:?}"),
        }
        // Same for a register the tool itself forbade.
        let mut s = Snippet::new(vec![Builder::nop()])
            .with_scavenged(&[Reg(6)])
            .with_forbidden(&[Reg(6)])
            .with_forced_spill();
        assert!(matches!(
            s.materialize(RegSet::new()),
            Err(EelError::RegisterPressure(_))
        ));
    }

    #[test]
    fn callback_sees_spilled_assignment() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let ran = Arc::new(AtomicUsize::new(0));
        let ran_in_cb = Arc::clone(&ran);
        let mut s = Snippet::counter_increment(0x0040_0000).with_callback(Box::new(
            move |insns, addr, asg| {
                assert_eq!(addr, 0x3000);
                assert_eq!(asg.spilled.len(), 2, "full pressure spills both");
                assert_eq!(asg.map[&Reg(6)], Reg(6), "spilled regs keep their name");
                assert!(insns.len() >= 8);
                ran_in_cb.store(1, Ordering::SeqCst);
            },
        ));
        let (mut insns, asg, _) = s.materialize(RegSet::all_gprs()).unwrap();
        s.run_callback(&mut insns, 0x3000, &asg);
        assert_eq!(ran.load(Ordering::SeqCst), 1, "callback must run");
    }

    #[test]
    fn callback_receives_final_state() {
        let mut s = Snippet::new(vec![Builder::nop()]).with_callback(Box::new(|insns, addr, _| {
            assert_eq!(addr, 0x2000);
            insns[0] = Builder::mov(Reg(9), Src2::Imm(7));
        }));
        let (mut insns, asg, _) = s.materialize(RegSet::new()).unwrap();
        s.run_callback(&mut insns, 0x2000, &asg);
        assert_eq!(insns[0].to_string(), "mov 7, %o1");
    }

    #[test]
    fn substitute_rewrites_all_fields() {
        let mut map = RegMap::default();
        map.insert(Reg(6), Reg(20));
        map.insert(Reg(7), Reg(21));
        // The Figure 5 snippet body: counter increment through %g6/%g7.
        let body = [
            Builder::sethi_hi(Reg(6), 0x4000),
            Builder::ld(Reg(7), Reg(6), Src2::Imm(0)),
            Builder::add(Reg(7), Reg(7), Src2::Imm(1)),
            Builder::st(Reg(7), Reg(6), Src2::Imm(0)),
        ];
        let rewritten: Vec<_> = body
            .iter()
            .map(|i| substitute_regs(*i, |r| map.apply(r)))
            .collect();
        assert_eq!(rewritten[0].to_string(), "sethi 0x10, %l4");
        assert_eq!(rewritten[1].to_string(), "ld [%l4], %l5");
        assert_eq!(rewritten[2].to_string(), "add %l5, 1, %l5");
        assert_eq!(rewritten[3].to_string(), "st %l5, [%l4]");
        // Unmapped registers pass through.
        let same = substitute_regs(Builder::mov(Reg(9), Src2::Imm(3)), |r| map.apply(r));
        assert_eq!(same.to_string(), "mov 3, %o1");
    }

    #[test]
    fn substitute_preserves_branches() {
        let mut map = RegMap::default();
        map.insert(Reg(6), Reg(20));
        let b = Builder::ba(4);
        assert_eq!(substitute_regs(b, |r| map.apply(r)), b);
    }

    /// Instructions, assignment pairs, spills and the cc-save flag.
    type OraclePlacement = (Vec<Insn>, Vec<(Reg, Reg)>, Vec<Reg>, bool);

    /// The placement allocator as it was with a `HashMap` register map
    /// and an eagerly collected pool: the oracle the dense map and the
    /// lazy preference walk must agree with. Returns the instructions,
    /// the assignment as sorted pairs, the spills and the cc-save flag.
    fn materialize_with_hash_map(s: &Snippet, live: RegSet) -> Result<OraclePlacement, EelError> {
        use std::collections::HashMap;
        let mut fixed = RegSet::new();
        for i in &s.body {
            fixed = fixed.union(i.reads()).union(i.writes());
        }
        for r in &s.scavenge {
            fixed.remove(*r);
        }
        let body_writes_cc = s.body.iter().any(|i| i.writes().contains(Reg::ICC));
        let need_cc_save = body_writes_cc && live.contains(Reg::ICC);
        let unavailable = live
            .union(s.forbidden)
            .union(fixed)
            .union(never_scavenged());
        const PREFERENCE: [u8; 29] = [
            6, 7, 23, 22, 21, 20, 19, 18, 17, 16, 5, 4, 3, 2, 1, 13, 12, 11, 10, 9, 8, 29, 28, 27,
            26, 25, 24, 31, 15,
        ];
        let mut pool: Vec<Reg> = PREFERENCE
            .iter()
            .map(|&i| Reg(i))
            .filter(|r| !unavailable.contains(*r))
            .collect();
        pool.reverse();
        if s.force_spill {
            pool.clear();
        }
        let mut map: HashMap<Reg, Reg> = HashMap::new();
        let mut spilled = Vec::new();
        let mut spill_seq: Vec<(Reg, i32)> = Vec::new();
        let mut spill_slot = SPILL_BASE;
        for &want in &s.scavenge {
            if let Some(got) = pool.pop() {
                map.insert(want, got);
            } else {
                if s.forbidden.contains(want) || never_scavenged().contains(want) {
                    return Err(EelError::RegisterPressure(format!("{want}")));
                }
                map.insert(want, want);
                spilled.push(want);
                spill_seq.push((want, spill_slot));
                spill_slot -= 8;
            }
        }
        let cc_temp = if need_cc_save {
            match pool.pop() {
                Some(r) => Some(r),
                None => {
                    let candidates = RegSet::all_gprs()
                        .without(s.forbidden)
                        .without(fixed)
                        .without(never_scavenged())
                        .without(RegSet::of(&map.values().copied().collect::<Vec<_>>()));
                    let r = candidates
                        .iter()
                        .next()
                        .ok_or_else(|| EelError::RegisterPressure("psr".into()))?;
                    spilled.push(r);
                    spill_seq.push((r, spill_slot));
                    Some(r)
                }
            }
        } else {
            None
        };
        let rename = |insn: Insn| substitute_regs(insn, |r| *map.get(&r).unwrap_or(&r));
        let mut out = Vec::new();
        for &(r, slot) in &spill_seq {
            out.push(Builder::st(r, Reg::SP, Src2::Imm(slot)));
        }
        if let Some(t) = cc_temp {
            let rd = Builder::alu(eel_isa::AluOp::Rdpsr, false, t, Reg::G0, Src2::Reg(Reg::G0));
            out.push(rd);
        }
        out.extend(s.body.iter().map(|&i| rename(i)));
        if let Some(t) = cc_temp {
            let wr = Builder::alu(eel_isa::AluOp::Wrpsr, false, Reg::G0, t, Src2::Reg(Reg::G0));
            out.push(wr);
        }
        for &(r, slot) in spill_seq.iter().rev() {
            out.push(Builder::ld(r, Reg::SP, Src2::Imm(slot)));
        }
        let mut pairs: Vec<(Reg, Reg)> = map.into_iter().collect();
        pairs.sort_unstable();
        Ok((out, pairs, spilled, cc_temp.is_some()))
    }

    #[test]
    fn dense_placement_matches_the_hash_map_allocator() {
        const PREFERENCE: [u8; 29] = [
            6, 7, 23, 22, 21, 20, 19, 18, 17, 16, 5, 4, 3, 2, 1, 13, 12, 11, 10, 9, 8, 29, 28, 27,
            26, 25, 24, 31, 15,
        ];
        let snippets: Vec<fn() -> Snippet> = vec![
            || Snippet::counter_increment(0x0040_1234),
            || Snippet::counter_increment(0x0040_1234).with_forced_spill(),
            || Snippet::counter_increment(0x0040_1234).with_forbidden(&[Reg(20), Reg(5)]),
            || {
                // Writes icc: a live icc takes one more pool register.
                let body = vec![
                    Builder::cmp(Reg(6), Src2::Imm(0)),
                    Builder::add(Reg(7), Reg(6), Src2::Reg(Reg(9))),
                ];
                Snippet::new(body).with_scavenged(&[Reg(6), Reg(7)])
            },
            || {
                let body = vec![Builder::cmp(Reg(6), Src2::Imm(0))];
                Snippet::new(body)
                    .with_scavenged(&[Reg(6)])
                    .with_forced_spill()
            },
        ];
        let mut cases = 0;
        for make in &snippets {
            // Live sets knocking out ever longer prefixes of the
            // preference list, each with and without a live icc.
            for k in 0..=PREFERENCE.len() {
                let prefix: RegSet = PREFERENCE[..k].iter().map(|&i| Reg(i)).collect();
                for live in [prefix, prefix.union(RegSet::of(&[Reg::ICC]))] {
                    let mut s = make();
                    let oracle = materialize_with_hash_map(&s, live);
                    let dense = s.materialize(live);
                    match (oracle, dense) {
                        (Ok((insns, pairs, spilled, cc)), Ok((got, asg, _))) => {
                            assert_eq!(got, insns, "live {live:?}");
                            assert_eq!(asg.map.iter().collect::<Vec<_>>(), pairs);
                            assert_eq!(asg.spilled, spilled, "live {live:?}");
                            assert_eq!(asg.cc_saved, cc, "live {live:?}");
                        }
                        (Err(_), Err(_)) => {}
                        (oracle, dense) => panic!("{live:?}: {oracle:?} vs {dense:?}"),
                    }
                    cases += 1;
                }
            }
        }
        assert_eq!(cases, snippets.len() * 2 * (PREFERENCE.len() + 1));
    }
}
