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

/// The derived machine: decoder, classifier, analyzer, evaluator input.
#[derive(Debug)]
pub struct Machine {
    desc: Description,
    insns: Vec<InsnSpec>,
    index: DecodeIndex,
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
                insns.push(InsnSpec {
                    name: name.clone(),
                    class,
                    matcher,
                    sem,
                    links,
                });
            }
        }
        let fixed: Vec<(u32, u32)> = insns.iter().map(InsnSpec::fixed_bits).collect();
        let index = DecodeIndex::new(&fixed, (0..insns.len()).collect(), 0);
        Ok(Machine { desc, insns, index })
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

    /// Registers read by this instruction instance: `(set name, index)`.
    /// Indices resolve through the word's fields; scalar sets use index 0.
    pub fn reads(&self, d: &Decoded<'_>) -> Vec<(String, u32)> {
        let mut out = Vec::new();
        if let Some(sem) = &d.spec.sem {
            for s in sem {
                collect_stmt_regs(&self.desc, s, d.word, true, &mut out);
            }
        }
        out.sort();
        out.dedup();
        out.retain(|(set, i)| !(set == "R" && *i == 0));
        out
    }

    /// Registers written by this instruction instance.
    pub fn writes(&self, d: &Decoded<'_>) -> Vec<(String, u32)> {
        let mut out = Vec::new();
        if let Some(sem) = &d.spec.sem {
            for s in sem {
                collect_stmt_regs(&self.desc, s, d.word, false, &mut out);
            }
        }
        out.sort();
        out.dedup();
        out.retain(|(set, i)| !(set == "R" && *i == 0));
        out
    }

    /// Symbolic (Rust-source) read set for code generation: register
    /// references with index expressions rendered over `field_*(word)`
    /// calls. Conditional operands are included from both arms
    /// (conservative), matching what generated analysis code can know
    /// statically.
    pub fn symbolic_reads(&self, name: &str) -> Vec<(String, String)> {
        self.symbolic_regs(name, true)
    }

    /// Symbolic write set (see [`Machine::symbolic_reads`]).
    pub fn symbolic_writes(&self, name: &str) -> Vec<(String, String)> {
        self.symbolic_regs(name, false)
    }

    fn symbolic_regs(&self, name: &str, reads: bool) -> Vec<(String, String)> {
        let Some(spec) = self.insns.iter().find(|i| i.name == name) else {
            return Vec::new();
        };
        let Some(sem) = &spec.sem else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for s in sem {
            collect_symbolic(&self.desc, s, reads, &mut out);
        }
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
        fn find(desc: &Description, stmts: &[Stmt], word: u32, pc: u32) -> Option<u32> {
            for s in stmts {
                match s {
                    Stmt::Assign(LValue::Npc, e) => {
                        if let Some(t) = eval_static_expr(desc, e, word, pc) {
                            return Some(t);
                        }
                    }
                    Stmt::If(_, a, b) => {
                        if let Some(t) = find(desc, a, word, pc).or_else(|| find(desc, b, word, pc))
                        {
                            return Some(t);
                        }
                    }
                    Stmt::Par(g) => {
                        if let Some(t) = find(desc, g, word, pc) {
                            return Some(t);
                        }
                    }
                    _ => {}
                }
            }
            None
        }
        d.spec
            .sem
            .as_ref()
            .and_then(|sem| find(&self.desc, sem, d.word, pc))
    }

    /// Memory access width in bytes, if the instruction touches memory.
    pub fn mem_width(&self, d: &Decoded<'_>) -> Option<u32> {
        fn find_stmt(s: &Stmt) -> Option<u32> {
            match s {
                Stmt::Assign(LValue::Mem(_, w), _) => Some(*w),
                Stmt::Assign(_, e) => find_expr(e),
                Stmt::If(c, a, b) => find_expr(c)
                    .or_else(|| a.iter().find_map(find_stmt))
                    .or_else(|| b.iter().find_map(find_stmt)),
                Stmt::Par(g) => g.iter().find_map(find_stmt),
                Stmt::Trap(e) => find_expr(e),
                Stmt::Annul => None,
            }
        }
        fn find_expr(e: &Expr) -> Option<u32> {
            match e {
                Expr::Mem(_, w) => Some(*w),
                Expr::Sxm(e, _) => find_expr(e),
                Expr::Bin(_, a, b) => find_expr(a).or_else(|| find_expr(b)),
                Expr::Cond(c, a, b) => find_expr(c)
                    .or_else(|| find_expr(a))
                    .or_else(|| find_expr(b)),
                Expr::Apply(_, args) => args.iter().find_map(find_expr),
                _ => None,
            }
        }
        d.spec
            .sem
            .as_ref()
            .and_then(|sem| sem.iter().find_map(find_stmt))
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

/// Accumulates register reads or writes for one instance.
fn collect_stmt_regs(
    desc: &Description,
    s: &Stmt,
    word: u32,
    reads: bool,
    out: &mut Vec<(String, u32)>,
) {
    match s {
        Stmt::Assign(lv, e) => {
            if reads {
                collect_expr_regs(desc, e, word, out);
                // Indices of written registers are *read* as fields, not
                // register reads; nothing to add for the lvalue except a
                // memory address computation.
                if let LValue::Mem(a, _) = lv {
                    collect_expr_regs(desc, a, word, out);
                }
            } else if let LValue::Reg(set, idx) = lv {
                let i = idx
                    .as_ref()
                    .and_then(|e| eval_field_expr(desc, e, word))
                    .unwrap_or(0);
                out.push((set.clone(), i));
            }
        }
        Stmt::If(c, a, b) => {
            if reads {
                collect_expr_regs(desc, c, word, out);
            }
            for s in a.iter().chain(b) {
                collect_stmt_regs(desc, s, word, reads, out);
            }
        }
        Stmt::Trap(e) => {
            if reads {
                collect_expr_regs(desc, e, word, out);
            }
        }
        Stmt::Annul => {}
        Stmt::Par(g) => {
            for s in g {
                collect_stmt_regs(desc, s, word, reads, out);
            }
        }
    }
}

fn collect_expr_regs(desc: &Description, e: &Expr, word: u32, out: &mut Vec<(String, u32)>) {
    match e {
        Expr::Reg(set, idx) => {
            let i = idx
                .as_ref()
                .and_then(|e| eval_field_expr(desc, e, word))
                .unwrap_or(0);
            out.push((set.clone(), i));
        }
        Expr::Val(n) => {
            if let Some(v) = desc.val(n) {
                collect_expr_regs(desc, v, word, out);
            }
        }
        Expr::Sxm(e, _) | Expr::Mem(e, _) => collect_expr_regs(desc, e, word, out),
        Expr::Bin(_, a, b) => {
            collect_expr_regs(desc, a, word, out);
            collect_expr_regs(desc, b, word, out);
        }
        Expr::Cond(c, a, b) => {
            // Evaluate field-only conditions (like `i = 1`) to prune the
            // untaken arm — this is what lets `src2` report rs2 only in
            // register form.
            if let Some(cv) = eval_field_expr(desc, c, word) {
                if cv != 0 {
                    collect_expr_regs(desc, a, word, out);
                } else {
                    collect_expr_regs(desc, b, word, out);
                }
            } else {
                collect_expr_regs(desc, c, word, out);
                collect_expr_regs(desc, a, word, out);
                collect_expr_regs(desc, b, word, out);
            }
        }
        Expr::Apply(f, args) => {
            // Constant condition tests (`always`, `n`) read nothing; a
            // production spawn would constant-fold them away.
            if f == "always" || f == "n" {
                return;
            }
            for a in args {
                collect_expr_regs(desc, a, word, out);
            }
        }
        _ => {}
    }
}

/// Evaluates an expression that depends only on instruction fields and
/// constants. `None` if it touches registers/memory/pc.
pub(crate) fn eval_field_expr(desc: &Description, e: &Expr, word: u32) -> Option<u32> {
    match e {
        Expr::Num(n) => Some(*n),
        Expr::Field(f) => desc.field(f).map(|fd| fd.extract(word)),
        Expr::SxField(f) => desc.field(f).map(|fd| {
            let v = fd.extract(word);
            let sh = 32 - fd.width();
            (((v << sh) as i32) >> sh) as u32
        }),
        Expr::Sxm(e, bits) => eval_field_expr(desc, e, word).map(|v| {
            let sh = 32 - bits;
            (((v << sh) as i32) >> sh) as u32
        }),
        Expr::Val(n) => desc.val(n).and_then(|v| eval_field_expr(desc, v, word)),
        Expr::Bin(op, a, b) => {
            let a = eval_field_expr(desc, a, word)?;
            let b = eval_field_expr(desc, b, word)?;
            Some(crate::eval::apply_binop(*op, a, b))
        }
        Expr::Cond(c, a, b) => {
            let c = eval_field_expr(desc, c, word)?;
            if c != 0 {
                eval_field_expr(desc, a, word)
            } else {
                eval_field_expr(desc, b, word)
            }
        }
        _ => None,
    }
}

/// Like [`eval_field_expr`] but additionally resolves `pc`, for static
/// control-transfer target computation.
fn eval_static_expr(desc: &Description, e: &Expr, word: u32, pc: u32) -> Option<u32> {
    match e {
        Expr::Pc => Some(pc),
        Expr::Num(n) => Some(*n),
        Expr::Field(f) => desc.field(f).map(|fd| fd.extract(word)),
        Expr::SxField(f) => desc.field(f).map(|fd| {
            let v = fd.extract(word);
            let sh = 32 - fd.width();
            (((v << sh) as i32) >> sh) as u32
        }),
        Expr::Sxm(e, bits) => eval_static_expr(desc, e, word, pc).map(|v| {
            let sh = 32 - bits;
            (((v << sh) as i32) >> sh) as u32
        }),
        Expr::Val(n) => desc
            .val(n)
            .and_then(|v| eval_static_expr(desc, v, word, pc)),
        Expr::Bin(op, a, b) => {
            let a = eval_static_expr(desc, a, word, pc)?;
            let b = eval_static_expr(desc, b, word, pc)?;
            Some(crate::eval::apply_binop(*op, a, b))
        }
        Expr::Cond(c, a, b) => {
            let c = eval_static_expr(desc, c, word, pc)?;
            if c != 0 {
                eval_static_expr(desc, a, word, pc)
            } else {
                eval_static_expr(desc, b, word, pc)
            }
        }
        _ => None,
    }
}

/// Renders an index expression as Rust source over `field_*` extractors;
/// `None` when it depends on run-time state.
fn render_index(desc: &Description, e: &Expr) -> Option<String> {
    match e {
        Expr::Num(n) => Some(n.to_string()),
        Expr::Field(f) => desc.field(f).map(|_| format!("field_{f}(word)")),
        Expr::Bin(op, a, b) => {
            let (a, b) = (render_index(desc, a)?, render_index(desc, b)?);
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
        Expr::Val(n) => desc.val(n).and_then(|v| render_index(desc, v)),
        _ => None,
    }
}

fn collect_symbolic(desc: &Description, s: &Stmt, reads: bool, out: &mut Vec<(String, String)>) {
    match s {
        Stmt::Assign(lv, e) => {
            if reads {
                collect_symbolic_expr(desc, e, out);
                if let LValue::Mem(a, _) = lv {
                    collect_symbolic_expr(desc, a, out);
                }
            } else if let LValue::Reg(set, idx) = lv {
                let rendered = idx
                    .as_ref()
                    .and_then(|e| render_index(desc, e))
                    .unwrap_or_else(|| "0".to_string());
                out.push((set.clone(), rendered));
            }
        }
        Stmt::If(c, a, b) => {
            if reads {
                collect_symbolic_expr(desc, c, out);
            }
            for s in a.iter().chain(b) {
                collect_symbolic(desc, s, reads, out);
            }
        }
        Stmt::Trap(e) => {
            if reads {
                collect_symbolic_expr(desc, e, out);
            }
        }
        Stmt::Annul => {}
        Stmt::Par(g) => {
            for s in g {
                collect_symbolic(desc, s, reads, out);
            }
        }
    }
}

fn collect_symbolic_expr(desc: &Description, e: &Expr, out: &mut Vec<(String, String)>) {
    match e {
        Expr::Reg(set, idx) => {
            let rendered = idx
                .as_ref()
                .and_then(|e| render_index(desc, e))
                .unwrap_or_else(|| "0".to_string());
            out.push((set.clone(), rendered));
        }
        Expr::Val(n) => {
            if let Some(v) = desc.val(n) {
                collect_symbolic_expr(desc, v, out);
            }
        }
        Expr::Sxm(e, _) | Expr::Mem(e, _) => collect_symbolic_expr(desc, e, out),
        Expr::Bin(_, a, b) => {
            collect_symbolic_expr(desc, a, out);
            collect_symbolic_expr(desc, b, out);
        }
        Expr::Cond(c, a, b) => {
            collect_symbolic_expr(desc, c, out);
            collect_symbolic_expr(desc, a, out);
            collect_symbolic_expr(desc, b, out);
        }
        Expr::Apply(f, args) => {
            if f == "always" || f == "n" {
                return;
            }
            for a in args {
                collect_symbolic_expr(desc, a, out);
            }
        }
        _ => {}
    }
}
