//! Statements of the scalar kernel IR: structured loop nests over arrays.
//!
//! The IR is deliberately restricted to the shape the paper's offline
//! vectorizer consumes after loop-nest normalization: counted `for` loops
//! (lower bound, exclusive upper bound, constant step), scalar
//! assignments, and array stores. There is no unstructured control flow;
//! data-dependent control is expressed with `min`/`max`/`select`-style
//! arithmetic, mirroring if-converted code.

use crate::expr::{ArrayId, Expr, VarId};

/// A statement.
#[derive(Debug, Clone, PartialEq, Hash)]
pub enum Stmt {
    /// `for (var = lo; var < hi; var += step) body`
    ///
    /// The loop variable is a dedicated `Loop`-kind scalar of type `long`;
    /// it must not be assigned inside the body.
    For {
        /// Induction variable.
        var: VarId,
        /// Inclusive lower bound.
        lo: Expr,
        /// Exclusive upper bound.
        hi: Expr,
        /// Constant positive step.
        step: i64,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// `var = value` for a scalar local.
    Assign {
        /// Destination scalar (must be a `Local`).
        var: VarId,
        /// Right-hand side.
        value: Expr,
    },
    /// `array[index] = value`.
    Store {
        /// Destination array.
        array: ArrayId,
        /// Element index.
        index: Expr,
        /// Value stored (converted to the array element type).
        value: Expr,
    },
}

impl Stmt {
    /// Visit this statement and all nested statements, pre-order.
    pub fn walk(&self, f: &mut impl FnMut(&Stmt)) {
        f(self);
        if let Stmt::For { body, .. } = self {
            for s in body {
                s.walk(f);
            }
        }
    }

    /// Visit every expression contained in this statement subtree.
    pub fn walk_exprs(&self, f: &mut impl FnMut(&Expr)) {
        self.walk(&mut |s| match s {
            Stmt::For { lo, hi, .. } => {
                lo.walk(f);
                hi.walk(f);
            }
            Stmt::Assign { value, .. } => value.walk(f),
            Stmt::Store { index, value, .. } => {
                index.walk(f);
                value.walk(f);
            }
        });
    }

    /// Maximum loop-nest depth of this statement (0 for non-loops).
    pub fn loop_depth(&self) -> usize {
        match self {
            Stmt::For { body, .. } => 1 + body.iter().map(Stmt::loop_depth).max().unwrap_or(0),
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sem::BinOp;

    fn loop1(var: u32, body: Vec<Stmt>) -> Stmt {
        Stmt::For {
            var: VarId(var),
            lo: Expr::Int(0),
            hi: Expr::Int(8),
            step: 1,
            body,
        }
    }

    #[test]
    fn depth_counts_nesting() {
        let s = loop1(
            0,
            vec![loop1(
                1,
                vec![Stmt::Assign {
                    var: VarId(2),
                    value: Expr::Int(1),
                }],
            )],
        );
        assert_eq!(s.loop_depth(), 2);
        assert_eq!(
            Stmt::Assign {
                var: VarId(2),
                value: Expr::Int(1)
            }
            .loop_depth(),
            0
        );
    }

    #[test]
    fn walk_exprs_sees_bounds_and_bodies() {
        let s = loop1(
            0,
            vec![Stmt::Store {
                array: ArrayId(0),
                index: Expr::Var(VarId(0)),
                value: Expr::bin(BinOp::Add, Expr::Var(VarId(0)), Expr::Int(1)),
            }],
        );
        let mut count = 0;
        s.walk_exprs(&mut |_| count += 1);
        // lo, hi, index, (add, var, int)
        assert_eq!(count, 6);
    }
}
