//! Expressions of the scalar kernel IR.

use std::hash::{Hash, Hasher};

use crate::sem::{BinOp, UnOp};
use crate::ty::ScalarTy;

/// Index of a scalar variable in a kernel's symbol table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub u32);

/// Index of an array in a kernel's array table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ArrayId(pub u32);

/// A scalar expression.
///
/// Array subscripts are element indices (not byte offsets); the element
/// type comes from the array declaration. Expressions are pure: loads read
/// the array state at statement-execution time.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Integer literal (type determined by context; canonical i64 payload).
    Int(i64),
    /// Floating literal.
    Float(f64),
    /// Read of a scalar variable.
    Var(VarId),
    /// `array[index]` load.
    Load { array: ArrayId, index: Box<Expr> },
    /// Binary operation. Operand types must match; comparisons yield `int`.
    Bin {
        op: BinOp,
        lhs: Box<Expr>,
        rhs: Box<Expr>,
    },
    /// Unary operation.
    Un { op: UnOp, arg: Box<Expr> },
    /// Explicit conversion to `ty`.
    Cast { ty: ScalarTy, arg: Box<Expr> },
}

/// Hashes the structure, with `Float` literals by their bit pattern:
/// two kernels that differ only in one literal hash apart, and so do
/// `0.0` and `-0.0` (which compare equal but generate different code).
impl Hash for Expr {
    fn hash<H: Hasher>(&self, state: &mut H) {
        std::mem::discriminant(self).hash(state);
        match self {
            Expr::Int(v) => v.hash(state),
            Expr::Float(v) => v.to_bits().hash(state),
            Expr::Var(v) => v.hash(state),
            Expr::Load { array, index } => {
                array.hash(state);
                index.hash(state);
            }
            Expr::Bin { op, lhs, rhs } => {
                op.hash(state);
                lhs.hash(state);
                rhs.hash(state);
            }
            Expr::Un { op, arg } => {
                op.hash(state);
                arg.hash(state);
            }
            Expr::Cast { ty, arg } => {
                ty.hash(state);
                arg.hash(state);
            }
        }
    }
}

impl Expr {
    /// Shorthand for a binary node.
    pub fn bin(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Bin {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        }
    }

    /// Shorthand for a unary node.
    pub fn un(op: UnOp, arg: Expr) -> Expr {
        Expr::Un {
            op,
            arg: Box::new(arg),
        }
    }

    /// Shorthand for a cast node.
    pub fn cast(ty: ScalarTy, arg: Expr) -> Expr {
        Expr::Cast {
            ty,
            arg: Box::new(arg),
        }
    }

    /// Shorthand for a load node.
    pub fn load(array: ArrayId, index: Expr) -> Expr {
        Expr::Load {
            array,
            index: Box::new(index),
        }
    }

    /// Visit every sub-expression (including `self`), pre-order.
    pub fn walk(&self, f: &mut impl FnMut(&Expr)) {
        f(self);
        match self {
            Expr::Load { index, .. } => index.walk(f),
            Expr::Bin { lhs, rhs, .. } => {
                lhs.walk(f);
                rhs.walk(f);
            }
            Expr::Un { arg, .. } | Expr::Cast { arg, .. } => arg.walk(f),
            Expr::Int(_) | Expr::Float(_) | Expr::Var(_) => {}
        }
    }

    /// Whether the expression mentions the given variable.
    pub fn uses_var(&self, v: VarId) -> bool {
        let mut found = false;
        self.walk(&mut |e| {
            if matches!(e, Expr::Var(x) if *x == v) {
                found = true;
            }
        });
        found
    }

    /// Whether the expression contains any array load.
    pub fn has_load(&self) -> bool {
        let mut found = false;
        self.walk(&mut |e| {
            if matches!(e, Expr::Load { .. }) {
                found = true;
            }
        });
        found
    }

    /// Collect `(array, index-expr)` pairs for every load, pre-order.
    pub fn loads(&self) -> Vec<(ArrayId, &Expr)> {
        let mut out = Vec::new();
        self.collect_loads(&mut out);
        out
    }

    fn collect_loads<'a>(&'a self, out: &mut Vec<(ArrayId, &'a Expr)>) {
        match self {
            Expr::Load { array, index } => {
                out.push((*array, index));
                index.collect_loads(out);
            }
            Expr::Bin { lhs, rhs, .. } => {
                lhs.collect_loads(out);
                rhs.collect_loads(out);
            }
            Expr::Un { arg, .. } | Expr::Cast { arg, .. } => arg.collect_loads(out),
            Expr::Int(_) | Expr::Float(_) | Expr::Var(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walk_visits_all_nodes() {
        let e = Expr::bin(
            BinOp::Add,
            Expr::load(ArrayId(0), Expr::Var(VarId(1))),
            Expr::cast(ScalarTy::F32, Expr::Int(3)),
        );
        let mut n = 0;
        e.walk(&mut |_| n += 1);
        assert_eq!(n, 5);
    }

    #[test]
    fn uses_var_and_loads() {
        let e = Expr::bin(
            BinOp::Mul,
            Expr::load(
                ArrayId(2),
                Expr::bin(BinOp::Add, Expr::Var(VarId(0)), Expr::Int(2)),
            ),
            Expr::Var(VarId(3)),
        );
        assert!(e.uses_var(VarId(0)));
        assert!(e.uses_var(VarId(3)));
        assert!(!e.uses_var(VarId(9)));
        assert!(e.has_load());
        let loads = e.loads();
        assert_eq!(loads.len(), 1);
        assert_eq!(loads[0].0, ArrayId(2));
    }
}
