//! The Revet abstract syntax tree, and the one place the surface language
//! is spelled.
//!
//! Every vocabulary has one table here — type names, binary / unary /
//! reduction operators, view and iterator keywords — and the lexer, the
//! parser and the printer all read it, so a spelling is stated once.
//! [`Stmt::blocks`] / [`Stmt::blocks_mut`] / [`Stmt::exprs_mut`] are the one
//! answer to "what does this statement contain"; every walk over the tree
//! (carried-variable analysis in lowering, the fuzz reducer's edits) is
//! written over them.
//!
//! Statements, function signatures, and DRAM declarations carry byte
//! [`Span`]s into the source text; semantic diagnostics from lowering
//! attribute themselves at statement granularity through them.

use revet_diag::Span;
use revet_mir::{AluOp, AluOp as A, ItKind, ViewKind};

/// Surface integer types (signedness is a front-end property; MIR keeps only
/// storage width).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum TyName {
    /// Unsigned 8-bit.
    U8,
    /// Unsigned 16-bit.
    U16,
    /// Unsigned 32-bit.
    U32,
    /// Signed 8-bit.
    I8,
    /// Signed 16-bit.
    I16,
    /// Signed 32-bit.
    I32,
    /// No value.
    Void,
}

impl TyName {
    /// Every type name the parser accepts; a type's first row is the name
    /// the printer writes, later rows are C-style aliases.
    pub const NAMES: &'static [(&'static str, TyName)] = &[
        ("u8", TyName::U8),
        ("u16", TyName::U16),
        ("u32", TyName::U32),
        ("i8", TyName::I8),
        ("i16", TyName::I16),
        ("i32", TyName::I32),
        ("void", TyName::Void),
        ("char", TyName::U8),
        ("uint", TyName::U32),
        ("int", TyName::I32),
    ];

    /// True for the signed variants.
    pub fn signed(self) -> bool {
        matches!(self, TyName::I8 | TyName::I16 | TyName::I32)
    }

    /// Storage width in bytes.
    pub fn bytes(self) -> u32 {
        match self {
            TyName::U8 | TyName::I8 => 1,
            TyName::U16 | TyName::I16 => 2,
            TyName::U32 | TyName::I32 => 4,
            TyName::Void => 0,
        }
    }

    /// Parses a type name.
    pub fn parse(s: &str) -> Option<TyName> {
        Self::NAMES.iter().find(|(n, _)| *n == s).map(|(_, t)| *t)
    }

    /// The canonical name.
    pub fn name(self) -> &'static str {
        let row = Self::NAMES.iter().find(|(_, t)| *t == self);
        row.expect("every type has a name").0
    }
}

/// Binary operators, in [`BinOp::TABLE`] order.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[allow(missing_docs)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    And,
    Or,
    Xor,
    Shl,
    Shr,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    LAnd,
    LOr,
}

/// One row of [`BinOp::TABLE`].
#[derive(Clone, Copy, Debug)]
pub struct BinOpRow {
    /// The operator.
    pub op: BinOp,
    /// Its spelling.
    pub symbol: &'static str,
    /// Binding strength, C's levels: 1 (`||`) binds loosest, 10 (`* / %`)
    /// tightest. Every binary operator associates to the left.
    pub prec: u8,
    /// The spelling of `x op= e`, for the operators that have one.
    pub compound: Option<&'static str>,
    /// The ALU op it lowers to over unsigned and over signed operands
    /// (for `&&` / `||`, the op that combines the two truth values).
    pub alu: [AluOp; 2],
}

impl BinOp {
    /// Every binary operator, indexed by discriminant.
    pub const TABLE: &'static [BinOpRow] = &[
        BinOpRow::new(BinOp::Add, "+", 9, Some("+="), [A::Add, A::Add]),
        BinOpRow::new(BinOp::Sub, "-", 9, Some("-="), [A::Sub, A::Sub]),
        BinOpRow::new(BinOp::Mul, "*", 10, Some("*="), [A::Mul, A::Mul]),
        BinOpRow::new(BinOp::Div, "/", 10, Some("/="), [A::DivU, A::DivS]),
        BinOpRow::new(BinOp::Rem, "%", 10, Some("%="), [A::RemU, A::RemS]),
        BinOpRow::new(BinOp::And, "&", 5, Some("&="), [A::And, A::And]),
        BinOpRow::new(BinOp::Or, "|", 3, Some("|="), [A::Or, A::Or]),
        BinOpRow::new(BinOp::Xor, "^", 4, Some("^="), [A::Xor, A::Xor]),
        BinOpRow::new(BinOp::Shl, "<<", 8, Some("<<="), [A::Shl, A::Shl]),
        BinOpRow::new(BinOp::Shr, ">>", 8, Some(">>="), [A::ShrU, A::ShrS]),
        BinOpRow::new(BinOp::Eq, "==", 6, None, [A::Eq, A::Eq]),
        BinOpRow::new(BinOp::Ne, "!=", 6, None, [A::Ne, A::Ne]),
        BinOpRow::new(BinOp::Lt, "<", 7, None, [A::LtU, A::LtS]),
        BinOpRow::new(BinOp::Le, "<=", 7, None, [A::LeU, A::LeS]),
        BinOpRow::new(BinOp::Gt, ">", 7, None, [A::GtU, A::GtS]),
        BinOpRow::new(BinOp::Ge, ">=", 7, None, [A::GeU, A::GeS]),
        BinOpRow::new(BinOp::LAnd, "&&", 2, None, [A::And, A::And]),
        BinOpRow::new(BinOp::LOr, "||", 1, None, [A::Or, A::Or]),
    ];

    /// This operator's table row.
    pub const fn row(self) -> &'static BinOpRow {
        &Self::TABLE[self as usize]
    }

    /// This operator's spelling.
    pub const fn symbol(self) -> &'static str {
        self.row().symbol
    }
}

impl BinOpRow {
    const fn new(
        op: BinOp,
        symbol: &'static str,
        prec: u8,
        compound: Option<&'static str>,
        alu: [AluOp; 2],
    ) -> BinOpRow {
        BinOpRow {
            op,
            symbol,
            prec,
            compound,
            alu,
        }
    }
}

/// `*it` dereferences an iterator with the multiplication sign.
pub const DEREF: &str = BinOp::Mul.symbol();

/// Unary operators.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[allow(missing_docs)]
pub enum UnOp {
    Neg,
    Not,
    BitNot,
}

impl UnOp {
    /// Every prefix operator with its spelling (negation is the
    /// subtraction sign).
    pub const TABLE: &'static [(UnOp, &'static str)] = &[
        (UnOp::Neg, BinOp::Sub.symbol()),
        (UnOp::Not, "!"),
        (UnOp::BitNot, "~"),
    ];

    /// This operator's spelling.
    pub fn symbol(self) -> &'static str {
        Self::TABLE[self as usize].1
    }
}

/// Reduction operators for `foreach … reduce(op)`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[allow(missing_docs)]
pub enum ReduceOp {
    Add,
    Mul,
    And,
    Or,
    Xor,
    Min,
    Max,
}

impl ReduceOp {
    /// Every reduction with its spelling — the binary operator it folds
    /// with, or a name — and the ALU op it lowers to over unsigned and
    /// over signed yields.
    pub const TABLE: &'static [(ReduceOp, &'static str, [AluOp; 2])] = &[
        (ReduceOp::Add, BinOp::Add.symbol(), [A::Add, A::Add]),
        (ReduceOp::Mul, BinOp::Mul.symbol(), [A::Mul, A::Mul]),
        (ReduceOp::And, BinOp::And.symbol(), [A::And, A::And]),
        (ReduceOp::Or, BinOp::Or.symbol(), [A::Or, A::Or]),
        (ReduceOp::Xor, BinOp::Xor.symbol(), [A::Xor, A::Xor]),
        (ReduceOp::Min, "min", [A::MinU, A::MinS]),
        (ReduceOp::Max, "max", [A::MaxU, A::MaxS]),
    ];

    /// The ALU op the reduction lowers to, by the yielded type's
    /// signedness.
    pub fn alu(self, signed: bool) -> AluOp {
        Self::TABLE[self as usize].2[usize::from(signed)]
    }

    /// This reduction's spelling.
    pub fn symbol(self) -> &'static str {
        Self::TABLE[self as usize].1
    }
}

/// An expression.
#[derive(Clone, PartialEq, Debug)]
pub enum Expr {
    /// Integer literal.
    Int(i64),
    /// Variable reference.
    Var(String),
    /// `a op b`.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// `op a`.
    Un(UnOp, Box<Expr>),
    /// `base[idx]` — DRAM symbol, view, or SRAM indexing.
    Index(String, Box<Expr>),
    /// `*it`.
    Deref(String),
    /// `it.peek(e)`.
    Peek(String, Box<Expr>),
    /// `(ty) e`.
    Cast(TyName, Box<Expr>),
}

/// `foreach (count [by step]) { ty i => body }` — the statement form, and
/// under [`Init::Reduce`] the value form.
#[derive(Clone, PartialEq, Debug)]
pub struct Foreach {
    /// Trip count.
    pub count: Expr,
    /// Step (`by`), default 1.
    pub step: Option<Expr>,
    /// Index variable type.
    pub ity: TyName,
    /// Index variable name.
    pub ivar: String,
    /// Body; under [`Init::Reduce`] it must end in `yield expr;`.
    pub body: Vec<Stmt>,
}

/// A declaration's initializer.
#[derive(Clone, PartialEq, Debug)]
pub enum Init {
    /// `= expr`.
    Expr(Expr),
    /// `= foreach (…) reduce(op) { ty i => … yield e; }` — the only
    /// position the grammar allows a reducing `foreach` in.
    Reduce(ReduceOp, Foreach),
}

/// Kinds of memory object declarations (Table I).
#[derive(Clone, PartialEq, Debug)]
pub enum MemDecl {
    /// `sram<ty, size> name;`
    Sram {
        /// Element type.
        ty: TyName,
        /// Element count, as written (the lowering checks its range).
        size: i64,
    },
    /// `readview<size> name(dram, at);`, `readit<size> name(dram, at);` and
    /// friends: a `size`-element window onto a DRAM symbol.
    Tile {
        /// Which view or iterator.
        kind: TileKind,
        /// Tile size in elements, as written (the lowering checks its
        /// range).
        size: i64,
        /// Backing DRAM symbol.
        dram: String,
        /// A view's base element index, an iterator's starting one.
        at: Expr,
    },
}

/// The DRAM-backed memory objects of Table I.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TileKind {
    /// A randomly indexed tile.
    View(ViewKindName),
    /// A sequentially advanced one.
    It(ItKindName),
}

/// View flavors.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[allow(missing_docs)]
pub enum ViewKindName {
    Read,
    Write,
    Modify,
}

/// Iterator flavors.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[allow(missing_docs)]
pub enum ItKindName {
    Read,
    PeekRead,
    Write,
    ManualWrite,
}

impl ViewKindName {
    /// Every view with its keyword and the MIR kind it lowers to.
    pub const TABLE: &'static [(ViewKindName, &'static str, ViewKind)] = &[
        (ViewKindName::Read, "readview", ViewKind::Read),
        (ViewKindName::Write, "writeview", ViewKind::Write),
        (ViewKindName::Modify, "modifyview", ViewKind::Modify),
    ];

    /// The MIR kind.
    pub fn mir(self) -> ViewKind {
        Self::TABLE[self as usize].2
    }
}

impl ItKindName {
    /// Every iterator with its keyword and the MIR kind it lowers to.
    pub const TABLE: &'static [(ItKindName, &'static str, ItKind)] = &[
        (ItKindName::Read, "readit", ItKind::Read),
        (ItKindName::PeekRead, "peekreadit", ItKind::PeekRead),
        (ItKindName::Write, "writeit", ItKind::Write),
        (
            ItKindName::ManualWrite,
            "manualwriteit",
            ItKind::ManualWrite,
        ),
    ];

    /// The MIR kind.
    pub fn mir(self) -> ItKind {
        Self::TABLE[self as usize].2
    }
}

impl TileKind {
    /// The view or iterator a declaration keyword names.
    pub fn parse(kw: &str) -> Option<TileKind> {
        let views = ViewKindName::TABLE
            .iter()
            .map(|r| (r.1, TileKind::View(r.0)));
        let its = ItKindName::TABLE.iter().map(|r| (r.1, TileKind::It(r.0)));
        views.chain(its).find(|(k, _)| *k == kw).map(|(_, t)| t)
    }

    /// The declaration keyword.
    pub fn keyword(self) -> &'static str {
        match self {
            TileKind::View(v) => ViewKindName::TABLE[v as usize].1,
            TileKind::It(i) => ItKindName::TABLE[i as usize].1,
        }
    }
}

/// A statement: what it does plus where it sits in the source.
#[derive(Clone, PartialEq, Debug)]
pub struct Stmt {
    /// The statement proper.
    pub kind: StmtKind,
    /// Byte range of the whole statement (keyword through trailing `;`).
    pub span: Span,
}

/// A statement list nested in a statement.
#[derive(Clone, Copy, Debug)]
pub struct Block<'a> {
    /// The statements.
    pub stmts: &'a [Stmt],
    /// The index variable the construct binds in it (`foreach`, `fork`).
    pub ivar: Option<&'a str>,
    /// True for `foreach` bodies: their threads see the variables of
    /// enclosing scopes read-only (§IV-A), so nothing in them assigns one.
    pub isolated: bool,
}

impl Stmt {
    /// A statement with its span.
    pub fn new(kind: StmtKind, span: Span) -> Stmt {
        Stmt { kind, span }
    }

    /// The statement lists nested directly in this statement, in source
    /// order — a declaration's reducing-`foreach` body included.
    pub fn blocks(&self) -> impl Iterator<Item = Block<'_>> {
        let block = |stmts, ivar, isolated| {
            Some(Block {
                stmts,
                ivar,
                isolated,
            })
        };
        let (a, b) = match &self.kind {
            StmtKind::If { then, els, .. } => (block(then, None, false), block(els, None, false)),
            StmtKind::While { body, .. } | StmtKind::Replicate { body, .. } => {
                (block(body, None, false), None)
            }
            StmtKind::Fork { ivar, body, .. } => (block(body, Some(ivar.as_str()), false), None),
            StmtKind::Foreach(fe)
            | StmtKind::Decl {
                init: Some(Init::Reduce(_, fe)),
                ..
            } => (block(&fe.body, Some(fe.ivar.as_str()), true), None),
            _ => (None, None),
        };
        [a, b].into_iter().flatten()
    }

    /// [`Stmt::blocks`], for editing.
    pub fn blocks_mut(&mut self) -> impl Iterator<Item = &mut Vec<Stmt>> {
        let (a, b) = match &mut self.kind {
            StmtKind::If { then, els, .. } => (Some(then), Some(els)),
            StmtKind::While { body, .. }
            | StmtKind::Replicate { body, .. }
            | StmtKind::Fork { body, .. } => (Some(body), None),
            StmtKind::Foreach(fe)
            | StmtKind::Decl {
                init: Some(Init::Reduce(_, fe)),
                ..
            } => (Some(&mut fe.body), None),
            _ => (None, None),
        };
        [a, b].into_iter().flatten()
    }

    /// The expressions this statement evaluates itself (not those of
    /// nested statements), in source order.
    pub fn exprs_mut(&mut self) -> impl Iterator<Item = &mut Expr> {
        let (a, b) = match &mut self.kind {
            StmtKind::Decl { init, .. } => match init {
                Some(Init::Expr(e)) => (Some(e), None),
                Some(Init::Reduce(_, fe)) => (Some(&mut fe.count), fe.step.as_mut()),
                None => (None, None),
            },
            StmtKind::Mem { decl, .. } => match decl {
                MemDecl::Tile { at, .. } => (Some(at), None),
                MemDecl::Sram { .. } => (None, None),
            },
            StmtKind::Assign { value, .. } | StmtKind::DerefStore { value, .. } => {
                (Some(value), None)
            }
            StmtKind::Store { idx, value, .. } => (Some(idx), Some(value)),
            StmtKind::Inc { last, .. } => (last.as_mut(), None),
            StmtKind::If { cond, .. } | StmtKind::While { cond, .. } => (Some(cond), None),
            StmtKind::Foreach(fe) => (Some(&mut fe.count), fe.step.as_mut()),
            StmtKind::Fork { count, .. } => (Some(count), None),
            StmtKind::Yield(e) => (Some(e), None),
            StmtKind::Return(e) => (e.as_mut(), None),
            StmtKind::Bulk { base, len, .. } => (Some(base), Some(len)),
            StmtKind::Replicate { .. } | StmtKind::Exit | StmtKind::Pragma { .. } => (None, None),
        };
        [a, b].into_iter().flatten()
    }
}

/// The statement kinds.
#[derive(Clone, PartialEq, Debug)]
pub enum StmtKind {
    /// `ty name = init;` (or `ty name;`, zero-initialized).
    Decl {
        /// Declared type.
        ty: TyName,
        /// Variable name.
        name: String,
        /// Initializer.
        init: Option<Init>,
    },
    /// A memory object declaration.
    Mem {
        /// Object name.
        name: String,
        /// What it is.
        decl: MemDecl,
    },
    /// `name = expr;`
    Assign {
        /// Target variable.
        name: String,
        /// New value.
        value: Expr,
    },
    /// `base[idx] = expr;`
    Store {
        /// DRAM symbol / view / SRAM name.
        base: String,
        /// Element index.
        idx: Expr,
        /// Stored value.
        value: Expr,
    },
    /// `*it = expr;`
    DerefStore {
        /// Iterator name.
        it: String,
        /// Stored value.
        value: Expr,
    },
    /// `it++;` — optionally `it.inc(last)` for manual-flush write iterators.
    Inc {
        /// Iterator name.
        it: String,
        /// Last-iteration hint.
        last: Option<Expr>,
    },
    /// `if (c) { … } [else { … }];`
    If {
        /// Condition.
        cond: Expr,
        /// Then branch.
        then: Vec<Stmt>,
        /// Else branch.
        els: Vec<Stmt>,
    },
    /// `while (c) { … };`
    While {
        /// Condition (re-evaluated each iteration).
        cond: Expr,
        /// Body.
        body: Vec<Stmt>,
    },
    /// `foreach (count [by step]) { ty i => … };` (statement form, no value).
    Foreach(Foreach),
    /// `replicate (ways) { … };`
    Replicate {
        /// Physical duplication factor.
        ways: u32,
        /// Body.
        body: Vec<Stmt>,
    },
    /// `fork (count) { ty i => … };`
    Fork {
        /// Spawn count.
        count: Expr,
        /// Index variable type.
        ity: TyName,
        /// Index variable name.
        ivar: String,
        /// Body.
        body: Vec<Stmt>,
    },
    /// `exit;`
    Exit,
    /// `yield expr;` (inside reducing foreach bodies).
    Yield(Expr),
    /// `return [expr];`
    Return(Option<Expr>),
    /// `pragma(name [, value]);`
    Pragma {
        /// Pragma name.
        name: String,
        /// Optional integer argument.
        value: Option<i64>,
    },
    /// `name.load(dram, base, len);` / `name.store(dram, base, len);` —
    /// explicit bulk transfer for raw SRAM (Fig. 5 upper half).
    Bulk {
        /// SRAM object name.
        sram: String,
        /// true = load (DRAM→SRAM).
        load: bool,
        /// DRAM symbol.
        dram: String,
        /// First element index.
        base: Expr,
        /// Element count.
        len: Expr,
    },
}

/// A DRAM symbol declaration: `dram<ty> name;`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DramDeclAst {
    /// Symbol name.
    pub name: String,
    /// Element type.
    pub ty: TyName,
    /// Byte range of the declaration.
    pub span: Span,
}

/// A function definition.
#[derive(Clone, PartialEq, Debug)]
pub struct FuncAst {
    /// Name (`main` is the entry point).
    pub name: String,
    /// Return type.
    pub ret: TyName,
    /// Parameters.
    pub params: Vec<(TyName, String)>,
    /// Body.
    pub body: Vec<Stmt>,
    /// Byte range of the signature (return type through `)`).
    pub span: Span,
}

/// A parsed program.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Program {
    /// DRAM symbols.
    pub drams: Vec<DramDeclAst>,
    /// Functions.
    pub funcs: Vec<FuncAst>,
}

impl Program {
    /// Visits every statement of every function in pre-order (a statement,
    /// then its [`Stmt::blocks`]).
    pub fn walk_stmts<'a>(&'a self, f: &mut impl FnMut(&'a Stmt)) {
        fn go<'a>(body: &'a [Stmt], f: &mut impl FnMut(&'a Stmt)) {
            for s in body {
                f(s);
                for b in s.blocks() {
                    go(b.stmts, f);
                }
            }
        }
        for func in &self.funcs {
            go(&func.body, f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_are_indexed_by_discriminant() {
        for (i, row) in BinOp::TABLE.iter().enumerate() {
            assert_eq!(row.op as usize, i, "{:?}", row.op);
        }
        for (i, (op, _)) in UnOp::TABLE.iter().enumerate() {
            assert_eq!(*op as usize, i);
        }
        for (i, (op, ..)) in ReduceOp::TABLE.iter().enumerate() {
            assert_eq!(*op as usize, i);
        }
        for (i, (k, ..)) in ViewKindName::TABLE.iter().enumerate() {
            assert_eq!(*k as usize, i);
        }
        for (i, (k, ..)) in ItKindName::TABLE.iter().enumerate() {
            assert_eq!(*k as usize, i);
        }
    }

    #[test]
    fn every_spelling_reads_back() {
        for (name, ty) in TyName::NAMES {
            assert_eq!(TyName::parse(name), Some(*ty));
            assert_eq!(TyName::parse(ty.name()), Some(*ty));
        }
        for kind in ViewKindName::TABLE
            .iter()
            .map(|r| TileKind::View(r.0))
            .chain(ItKindName::TABLE.iter().map(|r| TileKind::It(r.0)))
        {
            assert_eq!(TileKind::parse(kind.keyword()), Some(kind));
        }
    }
}
