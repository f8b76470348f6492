//! The spawn-derived machine layer.
//!
//! From a parsed [`Description`], [`Machine::build`] derives what the
//! paper says spawn extracts (§4): "a classification for each instruction
//! (jump, call, store, invalid, etc.) ... registers that each instruction
//! reads and writes and literal values in instruction fields ... even
//! C++ [here: an interpreter and Rust source] to replicate the
//! computation in most instructions."

use crate::ast::*;
use crate::SpawnError;
use eel_isa::{Reg, RegSet};
use std::collections::HashMap;

/// Machine-level instruction classes derivable from semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    /// Unconditionally assigns `npc` from a PC-relative constant.
    DirectJump,
    /// Unconditionally assigns `npc` from a register expression.
    IndirectJump,
    /// Conditionally assigns `npc`.
    Branch,
    /// Reads memory.
    Load,
    /// Writes memory.
    Store,
    /// May trap (system call gateway).
    System,
    /// Pure computation.
    Computation,
    /// No semantics: data masquerading as code.
    Invalid,
}

/// How an instruction decodes: the matched spec plus extracted fields.
#[derive(Debug, Clone)]
pub struct Decoded<'m> {
    /// The matched instruction.
    pub spec: &'m InsnSpec,
    /// The matched instruction's position in [`Machine::instructions`].
    pub index: usize,
    /// The raw word.
    pub word: u32,
}

/// One derived instruction.
#[derive(Debug, Clone)]
pub struct InsnSpec {
    /// Instruction name from the description.
    pub name: String,
    /// Derived (or overridden) class.
    pub class: Class,
    /// Matcher terms (conjunction).
    pub(crate) matcher: Vec<MTerm>,
    /// Fully parameter-substituted semantics, if given.
    pub(crate) sem: Option<Vec<Stmt>>,
    /// Whether the instruction links (assigns `pc` to a register) while
    /// transferring — distinguishes calls from plain jumps (Figure 6's
    /// shim then resolves the SPARC overloading by operand).
    pub links: bool,
    /// The fields a register operand's index names: bit `k` for the
    /// description's `k`-th field (MIPS `addu`: `rs`, `rt` and `rdf`).
    pub operand_fields: u64,
    /// The fields the semantics mention anywhere, `val`s included (MIPS
    /// `addiu`: `rs`, `rt` and, through `simm`, `imm16`).
    pub mentioned_fields: u64,
    /// Registers read, in walk order.
    uses: Vec<RegRef>,
    /// Registers written, in walk order.
    defs: Vec<RegRef>,
    /// Right-hand sides of `npc :=`, in walk order.
    npc: Vec<FieldExpr>,
    /// Width of the first memory access in walk order.
    mem_width: Option<u32>,
}

impl InsnSpec {
    /// Does `word` satisfy every matcher term of this instruction? The
    /// decoder picks the first instruction, in description order, for
    /// which this holds.
    pub fn matches(&self, word: u32) -> bool {
        self.matcher.iter().all(|t| t.matches(word))
    }

    /// `(mask, value)`: the bits every word this instruction matches has
    /// fixed, with their values. These are the bits of the top-level field
    /// comparisons (a named constraint with one alternative counts as
    /// top-level); alternatives fix nothing.
    pub fn fixed_bits(&self) -> (u32, u32) {
        fn add(terms: &[MTerm], mask: &mut u32, value: &mut u32) {
            for t in terms {
                match t {
                    MTerm::Cmp {
                        lo,
                        width,
                        mask: m,
                        value: v,
                    } => {
                        let field = (((1u64 << width) - 1) as u32) & m.unwrap_or(u32::MAX);
                        *mask |= field << lo;
                        *value |= (v & field) << lo;
                    }
                    MTerm::Any(alts) if alts.len() == 1 => add(&alts[0], mask, value),
                    MTerm::Any(_) => {}
                }
            }
        }
        let (mut mask, mut value) = (0, 0);
        add(&self.matcher, &mut mask, &mut value);
        (mask, value)
    }
}

#[derive(Debug, Clone)]
pub(crate) enum MTerm {
    Cmp {
        lo: u32,
        width: u32,
        mask: Option<u32>,
        value: u32,
    },
    Any(Vec<Vec<MTerm>>),
}

impl MTerm {
    fn matches(&self, word: u32) -> bool {
        match self {
            MTerm::Cmp {
                lo,
                width,
                mask,
                value,
            } => {
                let mut f = (word >> lo) & ((1u64 << width) - 1) as u32;
                if let Some(m) = mask {
                    f &= m;
                }
                f == *value
            }
            MTerm::Any(alts) => alts.iter().any(|conj| conj.iter().all(|t| t.matches(word))),
        }
    }
}

/// An expression over instruction fields and `pc`, resolved once by
/// [`Machine::build`]: fields by declaration index, `val`s inlined. What
/// the fields cannot determine (registers, memory, builtins, unknown
/// names) is `Opaque`.
#[derive(Debug, Clone)]
enum FieldExpr {
    Num(u32),
    Pc,
    Field(usize),
    SxField(usize),
    Sxm(Box<FieldExpr>, u32),
    Bin(BinOp, Box<FieldExpr>, Box<FieldExpr>),
    Cond(Box<FieldExpr>, Box<FieldExpr>, Box<FieldExpr>),
    Opaque,
}

impl FieldExpr {
    fn for_each(&self, f: &mut impl FnMut(&FieldExpr)) {
        f(self);
        match self {
            FieldExpr::Sxm(e, _) => e.for_each(f),
            FieldExpr::Bin(_, a, b) => {
                a.for_each(f);
                b.for_each(f);
            }
            FieldExpr::Cond(c, a, b) => {
                c.for_each(f);
                a.for_each(f);
                b.for_each(f);
            }
            _ => {}
        }
    }

    /// Does the word alone determine the value?
    fn field_only(&self) -> bool {
        let mut only = true;
        self.for_each(&mut |e| only &= !matches!(e, FieldExpr::Pc | FieldExpr::Opaque));
        only
    }

    /// The fields named, as a mask by declaration index.
    fn field_mask(&self) -> u64 {
        let mut mask = 0;
        self.for_each(&mut |e| {
            if let FieldExpr::Field(k) | FieldExpr::SxField(k) = e {
                mask |= 1 << k;
            }
        });
        mask
    }

    /// Rust source over `field_*(word)` extractors, for code generation;
    /// `None` beyond constants, fields and bitwise/additive operators.
    fn render(&self, fields: &[FieldDecl]) -> Option<String> {
        match self {
            FieldExpr::Num(n) => Some(n.to_string()),
            FieldExpr::Field(k) => Some(format!("field_{}(word)", fields[*k].name)),
            FieldExpr::Bin(op, a, b) => {
                let (a, b) = (a.render(fields)?, b.render(fields)?);
                let op = match op {
                    BinOp::Add => "+",
                    BinOp::Sub => "-",
                    BinOp::Or => "|",
                    BinOp::And => "&",
                    BinOp::Xor => "^",
                    _ => return None,
                };
                Some(format!("({a} {op} {b})"))
            }
            _ => None,
        }
    }
}

/// One register operand of an instruction: register `first + index` of
/// the set declared `set`-th (when `index < count`), provided every guard
/// `(condition, arm)` holds — a field-only condition of an enclosing
/// `c ? a : b`, nonzero for the `a` arm. SPARC's `src2` gives `rs2` the
/// guard `(i = 1, false)`, so `rs2` is read only in register form.
#[derive(Debug, Clone)]
struct RegRef {
    set: usize,
    first: u32,
    count: u32,
    index: FieldExpr,
    guards: Vec<(FieldExpr, bool)>,
}

/// The derived machine: decoder, classifier, analyzer, evaluator input.
#[derive(Debug)]
pub struct Machine {
    desc: Description,
    insns: Vec<InsnSpec>,
    index: DecodeIndex,
    /// The hardwired zero register, `R[0]`, which reads and writes omit.
    zero: RegSet,
}

/// The decoder's index over the instructions' fixed bits. A split keys
/// on the longest run of bits every instruction under it fixes (MIPS:
/// the 6-bit `op` field, then `funct` under `op` 0; SPARC: `op`, then
/// `op2` or `op3`); a child holds, in description order, the
/// instructions whose fixed bits agree with its key. A word's first
/// match within its leaf is therefore its first match over all
/// instructions.
#[derive(Debug)]
enum DecodeIndex {
    /// Candidate instruction indices, in description order.
    Leaf(Vec<usize>),
    /// Children by `(word >> lo) & mask`.
    Split {
        lo: u32,
        mask: u32,
        children: Vec<DecodeIndex>,
    },
}

/// The widest key one split takes: 4096 children.
const MAX_KEY_BITS: u32 = 12;

impl DecodeIndex {
    /// Indexes `members` (indices into `fixed`, each instruction's
    /// [`InsnSpec::fixed_bits`]) on the bits outside `keyed` they all
    /// fix. Two or more members that share no such bit stay one leaf.
    fn new(fixed: &[(u32, u32)], members: Vec<usize>, keyed: u32) -> DecodeIndex {
        let common = members.iter().fold(!keyed, |acc, &i| acc & fixed[i].0);
        if members.len() < 2 || common == 0 {
            return DecodeIndex::Leaf(members);
        }
        let (mut lo, mut width) = (0, 0);
        let mut bit = 0;
        while bit < 32 {
            let run = (common >> bit).trailing_ones();
            if run > width {
                (lo, width) = (bit, run);
            }
            bit += run.max(1);
        }
        let mask = ((1u64 << width.min(MAX_KEY_BITS)) - 1) as u32;
        // Every member fixes the key bits, so each joins exactly one child.
        let mut groups = vec![Vec::new(); mask as usize + 1];
        for i in members {
            groups[((fixed[i].1 >> lo) & mask) as usize].push(i);
        }
        let children = groups
            .into_iter()
            .map(|group| DecodeIndex::new(fixed, group, keyed | mask << lo))
            .collect();
        DecodeIndex::Split { lo, mask, children }
    }

    /// The candidate instructions for `word`, in description order.
    fn candidates(&self, word: u32) -> &[usize] {
        let mut node = self;
        loop {
            match node {
                DecodeIndex::Leaf(members) => return members,
                DecodeIndex::Split { lo, mask, children } => {
                    node = &children[((word >> lo) & mask) as usize];
                }
            }
        }
    }
}

impl Machine {
    /// Derives the machine layer from a description.
    ///
    /// # Errors
    ///
    /// [`SpawnError::Semantic`] for unresolved names or bad applications.
    pub fn build(desc: Description) -> Result<Machine, SpawnError> {
        // Per-instruction semantics: resolve `sem` bindings (with def
        // application) into substituted statement lists.
        let mut sem_of: HashMap<String, Vec<Stmt>> = HashMap::new();
        for sem in &desc.sems {
            match &sem.body {
                SemBody::Direct(stmts) => {
                    for n in &sem.names {
                        sem_of.insert(n.clone(), stmts.clone());
                    }
                }
                SemBody::Apply { func, arg_vectors } => {
                    let def = desc
                        .def(func)
                        .ok_or_else(|| SpawnError::Semantic(format!("unknown def {func:?}")))?;
                    for (k, n) in sem.names.iter().enumerate() {
                        let bindings: HashMap<&str, &str> = def
                            .params
                            .iter()
                            .map(|p| p.as_str())
                            .zip(arg_vectors.iter().map(|v| v[k].as_str()))
                            .collect();
                        let body = def.body.iter().map(|s| subst_stmt(s, &bindings)).collect();
                        sem_of.insert(n.clone(), body);
                    }
                }
            }
        }

        // Registers number in declaration order, an array's elements in
        // turn, and must fit a `RegSet`.
        let firsts: Vec<u32> = desc
            .registers
            .iter()
            .scan(0, |next, d| {
                *next += d.count;
                Some(*next - d.count)
            })
            .collect();
        let total: u32 = desc.registers.iter().map(|d| d.count).sum();
        if total > 64 || desc.fields.len() > 64 {
            return Err(SpawnError::Semantic(format!(
                "{total} registers and {} fields: at most 64 of each",
                desc.fields.len()
            )));
        }

        let mut insns = Vec::new();
        for pat in &desc.patterns {
            for (k, name) in pat.names.iter().enumerate() {
                let matcher = pat
                    .cons
                    .iter()
                    .map(|c| lower_cons(&desc, c, k))
                    .collect::<Result<Vec<_>, _>>()?;
                let sem = sem_of.get(name).cloned();
                let (mut class, links) = match &sem {
                    Some(stmts) => derive_class(&desc, stmts),
                    None => (Class::Invalid, false),
                };
                if let Some(ovr) = &pat.class_override {
                    class = match ovr.as_str() {
                        "branch" => Class::Branch,
                        "load" => Class::Load,
                        "store" => Class::Store,
                        "jump" => Class::IndirectJump,
                        "call" => Class::DirectJump,
                        "system" => Class::System,
                        "computation" => Class::Computation,
                        other => {
                            return Err(SpawnError::Semantic(format!(
                                "unknown class override {other:?}"
                            )))
                        }
                    };
                }
                let mut walk = Walk {
                    desc: &desc,
                    firsts: &firsts,
                    guards: Vec::new(),
                    uses: Vec::new(),
                    defs: Vec::new(),
                    npc: Vec::new(),
                    mem_width: None,
                    operand_fields: 0,
                    mentioned_fields: 0,
                };
                for s in sem.iter().flatten() {
                    walk.stmt(s)?;
                }
                insns.push(InsnSpec {
                    name: name.clone(),
                    class,
                    matcher,
                    sem,
                    links,
                    operand_fields: walk.operand_fields,
                    mentioned_fields: walk.mentioned_fields,
                    uses: walk.uses,
                    defs: walk.defs,
                    npc: walk.npc,
                    mem_width: walk.mem_width,
                });
            }
        }
        let fixed: Vec<(u32, u32)> = insns.iter().map(InsnSpec::fixed_bits).collect();
        let index = DecodeIndex::new(&fixed, (0..insns.len()).collect(), 0);
        let zero = match desc.registers.iter().position(|d| d.name == "R") {
            Some(k) => RegSet::of(&[Reg(firsts[k] as u8)]),
            None => RegSet::new(),
        };
        Ok(Machine {
            desc,
            insns,
            index,
            zero,
        })
    }

    /// The underlying description.
    pub fn description(&self) -> &Description {
        &self.desc
    }

    /// All derived instructions.
    pub fn instructions(&self) -> &[InsnSpec] {
        &self.insns
    }

    /// Decodes a word: the first matching instruction, or `None` for an
    /// invalid encoding. Only the instructions of the word's index
    /// leaf are tried.
    pub fn decode(&self, word: u32) -> Option<Decoded<'_>> {
        self.index
            .candidates(word)
            .iter()
            .copied()
            .find(|&i| self.insns[i].matches(word))
            .map(|index| Decoded {
                spec: &self.insns[index],
                index,
                word,
            })
    }

    /// Extracts a named field from a word.
    ///
    /// # Panics
    ///
    /// Panics on an unknown field name (a tool bug, not input data).
    pub fn field(&self, name: &str, word: u32) -> u32 {
        self.desc
            .field(name)
            .unwrap_or_else(|| panic!("unknown field {name}"))
            .extract(word)
    }

    /// The register `r` names, as its set's name and its index within
    /// the set; `None` past the last declared register.
    pub fn register(&self, r: Reg) -> Option<(&str, u32)> {
        let mut k = u32::from(r.0);
        for d in &self.desc.registers {
            if k < d.count {
                return Some((&d.name, k));
            }
            k -= d.count;
        }
        None
    }

    /// Registers read by this instruction instance. Register `k` is the
    /// `k`-th register the description declares, an array's elements in
    /// order (SPARC: `R[32]` 0–31, `ICC` 32, `Y` 33); see
    /// [`Machine::register`]. `R[0]` is never reported.
    pub fn reads(&self, d: &Decoded<'_>) -> RegSet {
        self.regs(&d.spec.uses, d.word)
    }

    /// Registers written by this instruction instance (numbered as for
    /// [`Machine::reads`]).
    pub fn writes(&self, d: &Decoded<'_>) -> RegSet {
        self.regs(&d.spec.defs, d.word)
    }

    fn regs(&self, refs: &[RegRef], word: u32) -> RegSet {
        let fields = &self.desc.fields;
        let mut set = RegSet::new();
        for r in refs {
            let guarded = r.guards.iter().all(|(c, arm)| {
                eval_field_expr(fields, c, word, None).is_some_and(|v| (v != 0) == *arm)
            });
            let i = eval_field_expr(fields, &r.index, word, None).unwrap_or(0);
            if guarded && i < r.count {
                set.insert(Reg((r.first + i) as u8));
            }
        }
        set.without(self.zero)
    }

    /// Symbolic (Rust-source) read set for code generation: register
    /// references with index expressions rendered over `field_*(word)`
    /// calls. Conditional operands are included from both arms
    /// (conservative), matching what generated analysis code can know
    /// statically.
    pub fn symbolic_reads(&self, name: &str) -> Vec<(String, String)> {
        self.symbolic_regs(name, |spec| &spec.uses)
    }

    /// Symbolic write set (see [`Machine::symbolic_reads`]).
    pub fn symbolic_writes(&self, name: &str) -> Vec<(String, String)> {
        self.symbolic_regs(name, |spec| &spec.defs)
    }

    fn symbolic_regs(
        &self,
        name: &str,
        refs: impl Fn(&InsnSpec) -> &[RegRef],
    ) -> Vec<(String, String)> {
        let Some(spec) = self.insns.iter().find(|i| i.name == name) else {
            return Vec::new();
        };
        let mut out: Vec<(String, String)> = refs(spec)
            .iter()
            .map(|r| {
                let index = r.index.render(&self.desc.fields);
                let set = self.desc.registers[r.set].name.clone();
                (set, index.unwrap_or_else(|| "0".to_string()))
            })
            .collect();
        out.sort();
        out.dedup();
        out
    }

    /// The statically-known control-transfer target of this instance at
    /// `pc`, derived from the semantics: the first `npc :=` assignment
    /// (conditional or not) whose right-hand side depends only on
    /// instruction fields, constants, and `pc`. `None` for indirect
    /// transfers (register targets) and non-transfers.
    ///
    /// This is how spawn-derived analyses compute branch and call targets
    /// without any handwritten per-ISA target arithmetic.
    pub fn static_target(&self, d: &Decoded<'_>, pc: u32) -> Option<u32> {
        let fields = &self.desc.fields;
        d.spec
            .npc
            .iter()
            .find_map(|e| eval_field_expr(fields, e, d.word, Some(pc)))
    }

    /// Memory access width in bytes, if the instruction touches memory.
    pub fn mem_width(&self, d: &Decoded<'_>) -> Option<u32> {
        d.spec.mem_width
    }
}

/// One walk over an instruction's semantics, gathering its
/// [`InsnSpec`] tables.
struct Walk<'d> {
    desc: &'d Description,
    /// Each register set's first register number.
    firsts: &'d [u32],
    /// The field-only conditions around the current expression.
    guards: Vec<(FieldExpr, bool)>,
    uses: Vec<RegRef>,
    defs: Vec<RegRef>,
    npc: Vec<FieldExpr>,
    mem_width: Option<u32>,
    operand_fields: u64,
    mentioned_fields: u64,
}

impl Walk<'_> {
    fn stmt(&mut self, s: &Stmt) -> Result<(), SpawnError> {
        match s {
            Stmt::Assign(lv, e) => {
                if let LValue::Mem(_, w) = lv {
                    self.mem_width.get_or_insert(*w);
                }
                self.expr(e)?;
                match lv {
                    // Indices of written registers are *read* as fields,
                    // not register reads.
                    LValue::Reg(set, idx) => {
                        let r = self.reg(set, idx.as_deref())?;
                        self.defs.push(r);
                    }
                    LValue::Npc => self.npc.push(self.lower(e)),
                    LValue::Mem(a, _) => self.expr(a)?,
                }
            }
            Stmt::If(c, a, b) => {
                self.expr(c)?;
                for s in a.iter().chain(b) {
                    self.stmt(s)?;
                }
            }
            Stmt::Trap(e) => self.expr(e)?,
            Stmt::Annul => {}
            Stmt::Par(g) => {
                for s in g {
                    self.stmt(s)?;
                }
            }
        }
        Ok(())
    }

    fn expr(&mut self, e: &Expr) -> Result<(), SpawnError> {
        match e {
            Expr::Reg(set, idx) => {
                let r = self.reg(set, idx.as_deref())?;
                self.uses.push(r);
            }
            Expr::Field(_) | Expr::SxField(_) => {
                self.mentioned_fields |= self.lower(e).field_mask()
            }
            Expr::Val(n) => {
                if let Some(v) = self.desc.val(n) {
                    self.expr(v)?;
                }
            }
            Expr::Mem(a, w) => {
                self.mem_width.get_or_insert(*w);
                self.expr(a)?;
            }
            Expr::Sxm(e, _) => self.expr(e)?,
            Expr::Bin(_, a, b) => {
                self.expr(a)?;
                self.expr(b)?;
            }
            Expr::Cond(c, a, b) => {
                // A field-only condition (like `i = 1`) guards its arms;
                // any other reads all three.
                self.expr(c)?;
                let cond = self.lower(c);
                if cond.field_only() {
                    for (arm, taken) in [(a, true), (b, false)] {
                        self.guards.push((cond.clone(), taken));
                        self.expr(arm)?;
                        self.guards.pop();
                    }
                } else {
                    self.expr(a)?;
                    self.expr(b)?;
                }
            }
            // Constant condition tests (`always`, `n`) read nothing; a
            // production spawn would constant-fold them away.
            Expr::Apply(f, args) if f != "always" && f != "n" => {
                for a in args {
                    self.expr(a)?;
                }
            }
            _ => {}
        }
        Ok(())
    }

    fn reg(&mut self, set: &str, idx: Option<&Expr>) -> Result<RegRef, SpawnError> {
        let k = self
            .desc
            .registers
            .iter()
            .position(|d| d.name == set)
            .ok_or_else(|| SpawnError::Semantic(format!("unknown register set {set:?}")))?;
        let index = idx.map_or(FieldExpr::Num(0), |e| self.lower(e));
        self.operand_fields |= index.field_mask();
        self.mentioned_fields |= index.field_mask();
        Ok(RegRef {
            set: k,
            first: self.firsts[k],
            count: self.desc.registers[k].count,
            index,
            guards: self.guards.clone(),
        })
    }

    fn lower(&self, e: &Expr) -> FieldExpr {
        let field = |f: &str| self.desc.fields.iter().position(|d| d.name == f);
        let lower = |e: &Expr| Box::new(self.lower(e));
        match e {
            Expr::Num(n) => FieldExpr::Num(*n),
            Expr::Pc => FieldExpr::Pc,
            Expr::Field(f) => field(f).map_or(FieldExpr::Opaque, FieldExpr::Field),
            Expr::SxField(f) => field(f).map_or(FieldExpr::Opaque, FieldExpr::SxField),
            Expr::Sxm(e, bits) => FieldExpr::Sxm(lower(e), *bits),
            Expr::Val(n) => self
                .desc
                .val(n)
                .map_or(FieldExpr::Opaque, |v| self.lower(v)),
            Expr::Bin(op, a, b) => FieldExpr::Bin(*op, lower(a), lower(b)),
            Expr::Cond(c, a, b) => FieldExpr::Cond(lower(c), lower(a), lower(b)),
            _ => FieldExpr::Opaque,
        }
    }
}

/// Substitutes def parameters (which bind builtin names) through a
/// statement.
fn subst_stmt(s: &Stmt, bind: &HashMap<&str, &str>) -> Stmt {
    match s {
        Stmt::Assign(lv, e) => Stmt::Assign(subst_lv(lv, bind), subst_expr(e, bind)),
        Stmt::If(c, a, b) => Stmt::If(
            subst_expr(c, bind),
            a.iter().map(|s| subst_stmt(s, bind)).collect(),
            b.iter().map(|s| subst_stmt(s, bind)).collect(),
        ),
        Stmt::Annul => Stmt::Annul,
        Stmt::Trap(e) => Stmt::Trap(subst_expr(e, bind)),
        Stmt::Par(g) => Stmt::Par(g.iter().map(|s| subst_stmt(s, bind)).collect()),
    }
}

fn subst_lv(lv: &LValue, bind: &HashMap<&str, &str>) -> LValue {
    match lv {
        LValue::Reg(n, idx) => LValue::Reg(
            n.clone(),
            idx.as_ref().map(|e| Box::new(subst_expr(e, bind))),
        ),
        LValue::Npc => LValue::Npc,
        LValue::Mem(e, w) => LValue::Mem(Box::new(subst_expr(e, bind)), *w),
    }
}

fn subst_expr(e: &Expr, bind: &HashMap<&str, &str>) -> Expr {
    match e {
        Expr::Param(p) => match bind.get(p.as_str()) {
            Some(b) => Expr::Val((*b).to_string()),
            None => e.clone(),
        },
        Expr::Apply(f, args) => {
            let f2 = bind
                .get(f.as_str())
                .map(|b| (*b).to_string())
                .unwrap_or_else(|| f.clone());
            Expr::Apply(f2, args.iter().map(|a| subst_expr(a, bind)).collect())
        }
        Expr::Sxm(e, b) => Expr::Sxm(Box::new(subst_expr(e, bind)), *b),
        Expr::Reg(n, idx) => Expr::Reg(
            n.clone(),
            idx.as_ref().map(|e| Box::new(subst_expr(e, bind))),
        ),
        Expr::Mem(e, w) => Expr::Mem(Box::new(subst_expr(e, bind)), *w),
        Expr::Bin(op, a, b) => Expr::Bin(
            *op,
            Box::new(subst_expr(a, bind)),
            Box::new(subst_expr(b, bind)),
        ),
        Expr::Cond(c, a, b) => Expr::Cond(
            Box::new(subst_expr(c, bind)),
            Box::new(subst_expr(a, bind)),
            Box::new(subst_expr(b, bind)),
        ),
        other => other.clone(),
    }
}

fn lower_cons(desc: &Description, c: &Cons, k: usize) -> Result<MTerm, SpawnError> {
    match c {
        Cons::Field { field, mask, value } => {
            let f = desc
                .field(field)
                .ok_or_else(|| SpawnError::Semantic(format!("unknown field {field:?}")))?;
            let v = match value {
                ConsValue::One(v) => *v,
                ConsValue::PerInstruction(vs) => *vs.get(k).ok_or_else(|| {
                    SpawnError::Semantic(format!("matrix too short for {field:?}"))
                })?,
            };
            Ok(MTerm::Cmp {
                lo: f.lo,
                width: f.width(),
                mask: *mask,
                value: v,
            })
        }
        Cons::Named(name) => {
            let terms = desc
                .cons(name)
                .ok_or_else(|| SpawnError::Semantic(format!("unknown constraint {name:?}")))?;
            let lowered = terms
                .iter()
                .map(|t| lower_cons(desc, t, k))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(MTerm::Any(vec![lowered]))
        }
        Cons::Any(alts) => {
            let lowered = alts
                .iter()
                .map(|conj| conj.iter().map(|t| lower_cons(desc, t, k)).collect())
                .collect::<Result<Vec<_>, _>>()?;
            Ok(MTerm::Any(lowered))
        }
    }
}

/// Derives the class (and link behavior) from semantics.
fn derive_class(desc: &Description, stmts: &[Stmt]) -> (Class, bool) {
    let mut traps = false;
    let mut npc_uncond = None::<bool>; // Some(indirect?)
    let mut npc_cond = false;
    let mut loads = false;
    let mut stores = false;
    let mut links = false;

    fn expr_uses_reg(desc: &Description, e: &Expr) -> bool {
        match e {
            Expr::Reg(..) => true,
            Expr::Val(n) => desc.val(n).map(|v| expr_uses_reg(desc, v)).unwrap_or(false),
            Expr::Sxm(e, _) => expr_uses_reg(desc, e),
            Expr::Mem(e, _) => expr_uses_reg(desc, e),
            Expr::Bin(_, a, b) => expr_uses_reg(desc, a) || expr_uses_reg(desc, b),
            Expr::Cond(c, a, b) => {
                expr_uses_reg(desc, c) || expr_uses_reg(desc, a) || expr_uses_reg(desc, b)
            }
            Expr::Apply(_, args) => args.iter().any(|a| expr_uses_reg(desc, a)),
            _ => false,
        }
    }

    fn expr_uses_pc(e: &Expr) -> bool {
        match e {
            Expr::Pc => true,
            Expr::Sxm(e, _) | Expr::Mem(e, _) => expr_uses_pc(e),
            Expr::Bin(_, a, b) => expr_uses_pc(a) || expr_uses_pc(b),
            Expr::Cond(c, a, b) => expr_uses_pc(c) || expr_uses_pc(a) || expr_uses_pc(b),
            Expr::Apply(_, args) => args.iter().any(expr_uses_pc),
            _ => false,
        }
    }

    fn expr_loads(desc: &Description, e: &Expr) -> bool {
        match e {
            Expr::Mem(..) => true,
            Expr::Val(n) => desc.val(n).map(|v| expr_loads(desc, v)).unwrap_or(false),
            Expr::Sxm(e, _) => expr_loads(desc, e),
            Expr::Bin(_, a, b) => expr_loads(desc, a) || expr_loads(desc, b),
            Expr::Cond(c, a, b) => {
                expr_loads(desc, c) || expr_loads(desc, a) || expr_loads(desc, b)
            }
            Expr::Apply(_, args) => args.iter().any(|a| expr_loads(desc, a)),
            _ => false,
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn walk(
        desc: &Description,
        s: &Stmt,
        conditional: bool,
        traps: &mut bool,
        npc_uncond: &mut Option<bool>,
        npc_cond: &mut bool,
        loads: &mut bool,
        stores: &mut bool,
        links: &mut bool,
    ) {
        match s {
            Stmt::Assign(LValue::Npc, e) => {
                if conditional {
                    *npc_cond = true;
                } else {
                    *npc_uncond = Some(expr_uses_reg(desc, e));
                }
            }
            Stmt::Assign(LValue::Mem(..), e) => {
                *stores = true;
                if expr_loads(desc, e) {
                    *loads = true;
                }
            }
            Stmt::Assign(LValue::Reg(..), e) => {
                if expr_loads(desc, e) {
                    *loads = true;
                }
                if expr_uses_pc(e) {
                    *links = true;
                }
            }
            Stmt::If(_, a, b) => {
                for s in a.iter().chain(b) {
                    walk(
                        desc, s, true, traps, npc_uncond, npc_cond, loads, stores, links,
                    );
                }
            }
            Stmt::Trap(_) => *traps = true,
            Stmt::Annul => {}
            Stmt::Par(g) => {
                for s in g {
                    walk(
                        desc,
                        s,
                        conditional,
                        traps,
                        npc_uncond,
                        npc_cond,
                        loads,
                        stores,
                        links,
                    );
                }
            }
        }
    }
    for s in stmts {
        walk(
            desc,
            s,
            false,
            &mut traps,
            &mut npc_uncond,
            &mut npc_cond,
            &mut loads,
            &mut stores,
            &mut links,
        );
    }

    let class = if traps {
        Class::System
    } else if let Some(indirect) = npc_uncond {
        if indirect {
            Class::IndirectJump
        } else {
            Class::DirectJump
        }
    } else if npc_cond {
        Class::Branch
    } else if stores {
        Class::Store
    } else if loads {
        Class::Load
    } else {
        Class::Computation
    };
    (class, links)
}

/// Evaluates a field expression for `word`; `pc` resolves `Pc` (for
/// static control-transfer targets). `None` where the fields and `pc`
/// do not determine the value.
fn eval_field_expr(fields: &[FieldDecl], e: &FieldExpr, word: u32, pc: Option<u32>) -> Option<u32> {
    let sx = |v: u32, bits: u32| {
        let sh = 32 - bits;
        (((v << sh) as i32) >> sh) as u32
    };
    match e {
        FieldExpr::Num(n) => Some(*n),
        FieldExpr::Pc => pc,
        FieldExpr::Field(k) => Some(fields[*k].extract(word)),
        FieldExpr::SxField(k) => Some(sx(fields[*k].extract(word), fields[*k].width())),
        FieldExpr::Sxm(e, bits) => eval_field_expr(fields, e, word, pc).map(|v| sx(v, *bits)),
        FieldExpr::Bin(op, a, b) => {
            let a = eval_field_expr(fields, a, word, pc)?;
            let b = eval_field_expr(fields, b, word, pc)?;
            Some(crate::eval::apply_binop(*op, a, b))
        }
        FieldExpr::Cond(c, a, b) => {
            if eval_field_expr(fields, c, word, pc)? != 0 {
                eval_field_expr(fields, a, word, pc)
            } else {
                eval_field_expr(fields, b, word, pc)
            }
        }
        FieldExpr::Opaque => None,
    }
}
