//! AST for spawn machine descriptions.
//!
//! Mirrors the structure of the paper's Figure 7: field declarations,
//! register sets, named value bindings (`val`), named encoding constraints
//! (`cons`), encoding patterns (`pat`, possibly in matrix form over a
//! bracketed name vector), semantic functions (`def`) and their
//! instantiation over instruction vectors (`sem ... is f @ [args]`).

/// A bit-field declaration: `name lo:hi` (inclusive, LSB = 0).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldDecl {
    /// Field name.
    pub name: String,
    /// Lowest bit.
    pub lo: u32,
    /// Highest bit (inclusive).
    pub hi: u32,
}

impl FieldDecl {
    /// Field width in bits.
    pub fn width(&self) -> u32 {
        self.hi - self.lo + 1
    }

    /// Extracts this field from a word.
    pub fn extract(&self, word: u32) -> u32 {
        (word >> self.lo) & ((1u64 << self.width()) - 1) as u32
    }
}

/// Register-set kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegKind {
    /// General integer registers.
    Int,
    /// Condition codes.
    Cc,
}

/// A register-set declaration: `int R[32] width 32`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegDecl {
    /// Kind.
    pub kind: RegKind,
    /// Set name (`R`, `ICC`, `Y`).
    pub name: String,
    /// Number of registers (1 for scalars).
    pub count: u32,
    /// Bit width of each.
    pub width: u32,
}

/// One term of an encoding constraint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Cons {
    /// `field (& mask)? = value` — for matrix patterns the value is
    /// [`ConsValue::PerInstruction`].
    Field {
        /// Field name.
        field: String,
        /// Optional mask applied before comparison.
        mask: Option<u32>,
        /// Required value(s).
        value: ConsValue,
    },
    /// Reference to a named `cons`.
    Named(String),
    /// Disjunction (parenthesized `a || b`).
    Any(Vec<Vec<Cons>>),
}

/// The right side of a field constraint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConsValue {
    /// A single required value.
    One(u32),
    /// The matrix form: instruction *k* of the pattern vector requires
    /// value `values[k]` (Figure 7's `cond=[0..15]`).
    PerInstruction(Vec<u32>),
}

/// An encoding pattern: one or many instructions sharing a constraint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pattern {
    /// Instruction names (one per matrix column).
    pub names: Vec<String>,
    /// Conjunction of constraint terms.
    pub cons: Vec<Cons>,
    /// Optional class override (for decode-only instructions whose
    /// semantics are out of scope, e.g. floating point).
    pub class_override: Option<String>,
}

/// Expressions in semantic (RTL) definitions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expr {
    /// Integer literal.
    Num(u32),
    /// The program counter.
    Pc,
    /// An instruction field (zero-extended).
    Field(String),
    /// `sx(field)` — the field, sign-extended by its declared width.
    SxField(String),
    /// `sxm(e, bits)` — sign-extend an expression from `bits` bits.
    Sxm(Box<Expr>, u32),
    /// A register: `R[e]` or a scalar set (`Y`, `ICC`).
    Reg(String, Option<Box<Expr>>),
    /// A named `val` binding.
    Val(String),
    /// A semantic-function parameter (after `def` binding).
    Param(String),
    /// Memory read: `mem[e]:width`.
    Mem(Box<Expr>, u32),
    /// Builtin or parameter application: `f(args)`.
    Apply(String, Vec<Expr>),
    /// Binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// `c ? a : b`.
    Cond(Box<Expr>, Box<Expr>, Box<Expr>),
}

/// Binary operators in semantic expressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*` (low 32 bits)
    Mul,
    /// `&`
    And,
    /// `|`
    Or,
    /// `^`
    Xor,
    /// `<<`
    Shl,
    /// `>>u` (logical)
    Shru,
    /// `>>s` (arithmetic)
    Shrs,
    /// `=` (yields 0/1)
    Eq,
    /// `!=`
    Ne,
    /// `&&` (logical)
    LogAnd,
    /// `||` (logical)
    LogOr,
}

/// Assignment targets in semantics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LValue {
    /// A register (indexed or scalar set).
    Reg(String, Option<Box<Expr>>),
    /// The next-PC (a control transfer).
    Npc,
    /// Memory: `mem[e]:width`.
    Mem(Box<Expr>, u32),
}

/// Semantic statements. `;` sequences; `,` runs in parallel (the paper's
/// timing notation) — the evaluator honors parallel reads-before-writes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Stmt {
    /// `lv := e`.
    Assign(LValue, Expr),
    /// `if e { ... } else { ... }`.
    If(Expr, Vec<Stmt>, Vec<Stmt>),
    /// Annul the following instruction (delay-slot annulment).
    Annul,
    /// Raise a trap with the given number.
    Trap(Expr),
    /// A parallel group (`a , b`): right-hand sides all read pre-state.
    Par(Vec<Stmt>),
}

/// A `def name(params) is stmts` semantic function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SemDef {
    /// Function name.
    pub name: String,
    /// Parameter names.
    pub params: Vec<String>,
    /// Body.
    pub body: Vec<Stmt>,
}

/// A `sem` binding: either direct statements or a `def` application over
/// per-instruction argument vectors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SemBody {
    /// Direct statements (shared by every named instruction).
    Direct(Vec<Stmt>),
    /// `f @ [a1 ...] @ [b1 ...]`: instruction *k* gets `f(ak, bk, ...)`.
    Apply {
        /// The `def` name.
        func: String,
        /// One vector per parameter.
        arg_vectors: Vec<Vec<String>>,
    },
}

/// A `sem` item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sem {
    /// Instruction names being given semantics.
    pub names: Vec<String>,
    /// The body.
    pub body: SemBody,
}

/// A complete machine description.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Description {
    /// Machine name.
    pub machine: String,
    /// Instruction word size in bits (32 for all shipped machines).
    pub word_bits: u32,
    /// Field declarations.
    pub fields: Vec<FieldDecl>,
    /// Register sets.
    pub registers: Vec<RegDecl>,
    /// Named value bindings.
    pub vals: Vec<(String, Expr)>,
    /// Named constraints.
    pub conses: Vec<(String, Vec<Cons>)>,
    /// Encoding patterns.
    pub patterns: Vec<Pattern>,
    /// Semantic functions.
    pub defs: Vec<SemDef>,
    /// Semantic bindings.
    pub sems: Vec<Sem>,
}

impl Description {
    /// Looks up a field by name.
    pub fn field(&self, name: &str) -> Option<&FieldDecl> {
        self.fields.iter().find(|f| f.name == name)
    }

    /// Looks up a named value binding.
    pub fn val(&self, name: &str) -> Option<&Expr> {
        self.vals.iter().find(|(n, _)| n == name).map(|(_, e)| e)
    }

    /// Looks up a named constraint.
    pub fn cons(&self, name: &str) -> Option<&[Cons]> {
        self.conses
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, c)| c.as_slice())
    }

    /// Looks up a semantic function.
    pub fn def(&self, name: &str) -> Option<&SemDef> {
        self.defs.iter().find(|d| d.name == name)
    }
}
