//! Kernel definitions: the unit of compilation.

use crate::expr::{ArrayId, VarId};
use crate::stmt::Stmt;
use crate::ty::ScalarTy;

/// How a scalar variable is bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VarKind {
    /// Kernel parameter, supplied by the caller.
    Param,
    /// Local temporary, initialized by assignment before use.
    Local,
    /// Loop induction variable (always `long`).
    Loop,
}

/// A scalar variable declaration.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct VarDecl {
    /// Source-level name (unique within the kernel).
    pub name: String,
    /// Scalar type.
    pub ty: ScalarTy,
    /// Binding kind.
    pub kind: VarKind,
}

/// How an array is bound — this matters for the alignment story of
/// §III-B(c) of the paper: a *native* offline compiler can force the
/// alignment of globals/locals, but nothing can be assumed about raw
/// pointer parameters until the JIT (which owns allocation) runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArrayKind {
    /// Global/local array: a native compiler may force its base alignment.
    Global,
    /// Pointer parameter: base alignment statically unknown.
    PointerParam,
}

/// An array declaration. Arrays are 1-D; multi-dimensional accesses are
/// written with explicit linearized subscripts (`a[i*n + j]`), matching
/// the layout the paper's kernels use after transposition.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct ArrayDecl {
    /// Source-level name (unique within the kernel).
    pub name: String,
    /// Element type.
    pub elem: ScalarTy,
    /// Binding kind (alignment provability).
    pub kind: ArrayKind,
}

/// A compilable kernel: symbol tables plus a structured body.
///
/// `Hash` covers the whole structure (names, declarations in order,
/// body), agreeing with `PartialEq`: two kernels parsed from
/// differently formatted source hash alike, while kernels that number
/// their variables differently do not, even when they print alike.
///
/// # Examples
///
/// ```
/// use vapor_ir::{KernelBuilder, ScalarTy, Expr, BinOp};
/// let mut b = KernelBuilder::new("dscal");
/// let n = b.scalar_param("n", ScalarTy::I64);
/// let a = b.scalar_param("alpha", ScalarTy::F32);
/// let x = b.array_param("x", ScalarTy::F32);
/// let i = b.fresh_loop_var("i");
/// b.for_loop(i, Expr::Int(0), Expr::Var(n), 1, |b| {
///     b.store(x, Expr::Var(i),
///             Expr::bin(BinOp::Mul, Expr::Var(a), Expr::load(x, Expr::Var(i))));
/// });
/// let k = b.finish();
/// assert_eq!(k.name, "dscal");
/// ```
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct Kernel {
    /// Kernel name (used by the suite registry and reports).
    pub name: String,
    /// Scalar variables (params, locals, loop vars), indexed by [`VarId`].
    pub vars: Vec<VarDecl>,
    /// Arrays, indexed by [`ArrayId`].
    pub arrays: Vec<ArrayDecl>,
    /// Top-level statements.
    pub body: Vec<Stmt>,
}

impl Kernel {
    /// Declaration of a scalar variable.
    ///
    /// # Panics
    /// Panics if the id is out of range.
    pub fn var(&self, id: VarId) -> &VarDecl {
        &self.vars[id.0 as usize]
    }

    /// Declaration of an array.
    ///
    /// # Panics
    /// Panics if the id is out of range.
    pub fn array(&self, id: ArrayId) -> &ArrayDecl {
        &self.arrays[id.0 as usize]
    }

    /// Look up a scalar variable by name.
    pub fn var_named(&self, name: &str) -> Option<VarId> {
        self.vars
            .iter()
            .position(|v| v.name == name)
            .map(|i| VarId(i as u32))
    }

    /// Look up an array by name.
    pub fn array_named(&self, name: &str) -> Option<ArrayId> {
        self.arrays
            .iter()
            .position(|a| a.name == name)
            .map(|i| ArrayId(i as u32))
    }

    /// Scalar parameters in declaration order.
    pub fn scalar_params(&self) -> impl Iterator<Item = (VarId, &VarDecl)> {
        self.vars
            .iter()
            .enumerate()
            .filter(|(_, v)| v.kind == VarKind::Param)
            .map(|(i, v)| (VarId(i as u32), v))
    }

    /// Every statement in the kernel, pre-order.
    pub fn walk(&self, f: &mut impl FnMut(&Stmt)) {
        for s in &self.body {
            s.walk(f);
        }
    }

    /// Total number of statements (a crude size metric).
    pub fn stmt_count(&self) -> usize {
        let mut n = 0;
        self.walk(&mut |_| n += 1);
        n
    }
}
