//! Statement-level dependence graphs and loop distribution support
//! (Allen–Kennedy, §III-B).
//!
//! The whole-loop dependence check in `transform` rejects a loop the
//! moment any finite carried dependence appears. This module provides the
//! machinery to do better: classify each store/access pair with
//! [`classify_dep`], build a statement dependence graph over a flat loop
//! body ([`DepGraph`]), condense it into strongly connected components
//! with Tarjan's algorithm, and return the SCCs in topological order so
//! the transform can distribute the loop — acyclic components become
//! candidate vector loops, cyclic components (true recurrences) become
//! scalar residual loops emitted in dependence order.
//!
//! It also owns the typed rejection vocabulary ([`RejectCategory`],
//! [`Rejection`]) that replaces the old stringly `Err(String)` planner
//! reasons, so `report vmperf` can say *why* a kernel (or a single SCC)
//! stayed scalar.

use crate::affine::{Affine, Coeff};
use vapor_ir::VarId;

/// Offsets below this bound are treated as "practically finite"; at or
/// above it a symbolic-stride difference is assumed independent (matches
/// the transform's historical `SMALL_DIFF` heuristic).
pub const SMALL_DIFF: i64 = 16;

/// Why a loop (or one SCC of a distributed loop) was not vectorized.
///
/// The set is closed on purpose: `label()` matches exhaustively, so a new
/// category added without a label is a compile error — unknown reason
/// categories fail loudly instead of silently printing nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectCategory {
    /// A subscript (or loop bound) is not affine in the loop variables.
    NonAffine,
    /// An access has a stride the vectorizer cannot lay out.
    UnsupportedStride,
    /// A memory dependence the planner cannot disprove or distribute.
    Dependence,
    /// A true recurrence: a dependence cycle through the loop body.
    Recurrence,
    /// Loop shape outside the model (non-unit step, iv-dependent inner
    /// bounds, ...).
    Bounds,
    /// Element types the vector lane model cannot mix.
    UnsupportedTypes,
    /// Native mode: the fixed target lacks a required operation.
    TargetUnsupported,
    /// Nothing to vectorize (no memory accesses in the body).
    NoVectorWork,
    /// Analysis accepted the loop but emission could not lay it out.
    EmitFailure,
}

impl RejectCategory {
    /// Short stable label used by reports and golden plan snapshots.
    pub fn label(self) -> &'static str {
        match self {
            RejectCategory::NonAffine => "non-affine",
            RejectCategory::UnsupportedStride => "unsupported-stride",
            RejectCategory::Dependence => "dependence",
            RejectCategory::Recurrence => "recurrence",
            RejectCategory::Bounds => "loop-bounds",
            RejectCategory::UnsupportedTypes => "unsupported-types",
            RejectCategory::TargetUnsupported => "target-unsupported",
            RejectCategory::NoVectorWork => "no-vector-work",
            RejectCategory::EmitFailure => "emit-failure",
        }
    }
}

/// A typed planner rejection: a closed category plus a human detail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rejection {
    /// Closed reason category (drives report tables and goldens).
    pub category: RejectCategory,
    /// Free-form detail for humans ("loop-carried dependence of distance 1
    /// on a[]").
    pub detail: String,
}

impl Rejection {
    /// Build a rejection.
    pub fn new(category: RejectCategory, detail: impl Into<String>) -> Rejection {
        Rejection {
            category,
            detail: detail.into(),
        }
    }
}

impl std::fmt::Display for Rejection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.category.label(), self.detail)
    }
}

/// Classification of one store/access pair on the same array with respect
/// to the vectorized loop variable `iv`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DepClass {
    /// Provably never the same address across the loop's iteration space.
    Independent,
    /// Same address only within a single iteration (distance 0) — or a
    /// row-combination case whose distance is 0 or a full row; either way
    /// statement order within an iteration must be preserved, but the
    /// loop itself may vectorize.
    SameIteration,
    /// Carried across iterations with this constant iteration distance
    /// (positive: the store's iteration precedes the conflicting access).
    Carried(i64),
    /// Cannot be analyzed; the detail says why.
    Unknown(String),
}

/// Classify the dependence between a store subscript and another access
/// subscript on the same array, for a loop over `iv` (step 1) with
/// optional affine bounds `lo`/`hi` (iteration space `[lo, hi)`).
///
/// Extends the historical whole-loop check with two bound-aware
/// refinements:
/// 1. If one access is `iv`-invariant and the difference is linear in
///    `iv` with coefficient ±1, the single conflicting iteration `iv*`
///    can be solved for; if `iv* < lo` or `iv* >= hi` is provable, the
///    accesses never collide inside the loop (lu: `a[n*i+j]` vs
///    `a[n*i+k]` with `j` running from `k+1`).
/// 2. If the difference is `iv`-free and is a pure same-parameter
///    combination of outer loop variables (e.g. `n*(i-k)`), the distance
///    is either 0 or at least a full row — never a small in-loop carry —
///    so it degrades to a same-iteration ordering constraint.
pub fn classify_dep(
    iv: VarId,
    store: &Affine,
    other: &Affine,
    lo: Option<&Affine>,
    hi: Option<&Affine>,
) -> DepClass {
    let Some(diff) = store.minus(other) else {
        return DepClass::Unknown("unanalyzable dependence".into());
    };
    match diff.as_const() {
        Some(0) => DepClass::SameIteration,
        Some(d) => match (store.coeff_of(iv), other.coeff_of(iv)) {
            (a, b) if a != b => {
                DepClass::Unknown("accesses with mismatched strides collide".into())
            }
            (Coeff::Const(m), _) => {
                if m == 0 {
                    DepClass::Unknown("iv-invariant accesses conflict".into())
                } else if d % m == 0 {
                    DepClass::Carried(d / m)
                } else {
                    DepClass::Independent
                }
            }
            (Coeff::Sym(..), _) => {
                // Row stride n vs constant offset d: independent as long
                // as |d| stays below any practical row length.
                if d.abs() < SMALL_DIFF {
                    DepClass::Independent
                } else {
                    DepClass::Unknown(format!("offset {d} may alias across symbolic row stride"))
                }
            }
        },
        None => {
            // Historical heuristic: difference is a single parameter with
            // coefficient ±1 plus a small constant — a full row apart.
            let row_distance = diff.loops.is_empty()
                && diff.params.len() == 1
                && diff.params.values().all(|c| c.abs() == 1)
                && diff.konst.abs() < SMALL_DIFF;
            if row_distance {
                return DepClass::Independent;
            }
            // Refinement 2: iv-free same-parameter row combination.
            if !diff.uses_loop(iv)
                && diff.params.is_empty()
                && diff.konst == 0
                && !diff.loops.is_empty()
            {
                let mut param = None;
                let pure_rows = diff.loops.values().all(|c| match c {
                    Coeff::Sym(p, _) => *param.get_or_insert(*p) == *p,
                    Coeff::Const(_) => false,
                });
                let same_stride = store.coeff_of(iv) == other.coeff_of(iv)
                    && !matches!(store.coeff_of(iv), Coeff::Const(0));
                if pure_rows && same_stride {
                    // n*(i-k): either the same row (distance 0) or whole
                    // rows apart — never a small carried distance.
                    return DepClass::SameIteration;
                }
            }
            // Refinement 1: one access iv-invariant, difference linear in
            // iv with coefficient ±1 — solve for the one conflicting
            // iteration and check it against the loop bounds.
            if let Coeff::Const(c) = diff.coeff_of(iv) {
                let one_invariant = matches!(store.coeff_of(iv), Coeff::Const(0))
                    || matches!(other.coeff_of(iv), Coeff::Const(0));
                if (c == 1 || c == -1) && one_invariant {
                    let mut rest = diff.clone();
                    rest.loops.remove(&iv);
                    // c*iv + rest = 0  =>  iv* = -rest/c = rest * (-c).
                    if let Some(star) = rest.scale_const(-c) {
                        if let Some(lo) = lo {
                            if let Some(gap) = lo.minus(&star).and_then(|g| g.as_const()) {
                                if gap > 0 {
                                    return DepClass::Independent; // iv* < lo
                                }
                            }
                        }
                        if let Some(hi) = hi {
                            if let Some(gap) = star.minus(hi).and_then(|g| g.as_const()) {
                                if gap >= 0 {
                                    return DepClass::Independent; // iv* >= hi
                                }
                            }
                        }
                    }
                    return DepClass::Unknown(
                        "iv-invariant access conflicts inside the iteration space".into(),
                    );
                }
            }
            DepClass::Unknown("unanalyzable dependence".into())
        }
    }
}

/// One strongly connected component of a statement dependence graph, in
/// topological (dependence) order among its siblings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scc {
    /// Statement indices into the loop body, ascending.
    pub stmts: Vec<usize>,
    /// Whether the component contains a cycle (a true recurrence). A
    /// single statement with a self-edge counts.
    pub cyclic: bool,
}

/// A statement-level dependence graph over a flat loop body.
///
/// Nodes are top-level statement indices; a directed edge `p -> q` means
/// statement `p` must execute (as a whole distributed loop) before `q`.
#[derive(Debug, Default)]
pub struct DepGraph {
    succs: Vec<Vec<usize>>,
    self_edges: Vec<bool>,
}

impl DepGraph {
    /// An edge-free graph over `n` statements.
    pub fn new(n: usize) -> DepGraph {
        DepGraph {
            succs: vec![Vec::new(); n],
            self_edges: vec![false; n],
        }
    }

    /// Number of statements.
    pub fn len(&self) -> usize {
        self.succs.len()
    }

    /// Whether the graph has no statements.
    pub fn is_empty(&self) -> bool {
        self.succs.is_empty()
    }

    /// Add a dependence edge `from -> to` (self-edges mark recurrences).
    pub fn add_edge(&mut self, from: usize, to: usize) {
        if from == to {
            self.self_edges[from] = true;
            return;
        }
        if !self.succs[from].contains(&to) {
            self.succs[from].push(to);
        }
    }

    /// Add edges in both directions (statements that must stay fused).
    pub fn fuse(&mut self, a: usize, b: usize) {
        self.add_edge(a, b);
        self.add_edge(b, a);
    }

    /// Condense into SCCs via Tarjan's algorithm and return them in
    /// topological order (every dependence points from an earlier SCC to
    /// a later one). Deterministic for a given graph.
    pub fn sccs(&self) -> Vec<Scc> {
        let n = self.len();
        let mut state = Tarjan {
            graph: self,
            index: vec![usize::MAX; n],
            lowlink: vec![0; n],
            on_stack: vec![false; n],
            stack: Vec::new(),
            next_index: 0,
            out: Vec::new(),
        };
        for v in 0..n {
            if state.index[v] == usize::MAX {
                state.strongconnect(v);
            }
        }
        // Tarjan emits SCCs in reverse topological order.
        let mut sccs = state.out;
        sccs.reverse();
        for scc in &mut sccs {
            scc.stmts.sort_unstable();
            if !scc.cyclic {
                debug_assert_eq!(scc.stmts.len(), 1);
                scc.cyclic = self.self_edges[scc.stmts[0]];
            }
        }
        sccs
    }
}

struct Tarjan<'g> {
    graph: &'g DepGraph,
    index: Vec<usize>,
    lowlink: Vec<usize>,
    on_stack: Vec<bool>,
    stack: Vec<usize>,
    next_index: usize,
    out: Vec<Scc>,
}

impl Tarjan<'_> {
    fn strongconnect(&mut self, v: usize) {
        // Iterative Tarjan (explicit work stack) to keep recursion depth
        // independent of body size.
        let mut work: Vec<(usize, usize)> = vec![(v, 0)];
        while let Some(&mut (node, ref mut succ_idx)) = work.last_mut() {
            if *succ_idx == 0 {
                self.index[node] = self.next_index;
                self.lowlink[node] = self.next_index;
                self.next_index += 1;
                self.stack.push(node);
                self.on_stack[node] = true;
            }
            if let Some(&w) = self.graph.succs[node].get(*succ_idx) {
                *succ_idx += 1;
                if self.index[w] == usize::MAX {
                    work.push((w, 0));
                } else if self.on_stack[w] {
                    self.lowlink[node] = self.lowlink[node].min(self.index[w]);
                }
            } else {
                work.pop();
                if let Some(&(parent, _)) = work.last() {
                    self.lowlink[parent] = self.lowlink[parent].min(self.lowlink[node]);
                }
                if self.lowlink[node] == self.index[node] {
                    let mut stmts = Vec::new();
                    while let Some(w) = self.stack.pop() {
                        self.on_stack[w] = false;
                        stmts.push(w);
                        if w == node {
                            break;
                        }
                    }
                    let cyclic = stmts.len() > 1;
                    self.out.push(Scc { stmts, cyclic });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::affine::analyze;
    use vapor_ir::{BinOp, Expr, KernelBuilder, ScalarTy};

    #[test]
    fn chain_distributes_in_topo_order() {
        // 0 -> 1 -> 2, no cycles: three singleton SCCs in order.
        let mut g = DepGraph::new(3);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        let sccs = g.sccs();
        assert_eq!(sccs.len(), 3);
        assert_eq!(sccs[0].stmts, vec![0]);
        assert_eq!(sccs[1].stmts, vec![1]);
        assert_eq!(sccs[2].stmts, vec![2]);
        assert!(sccs.iter().all(|s| !s.cyclic));
    }

    #[test]
    fn cycle_collapses_into_one_cyclic_scc() {
        // 0 -> 1 -> 0 cycle feeding 2.
        let mut g = DepGraph::new(3);
        g.fuse(0, 1);
        g.add_edge(1, 2);
        let sccs = g.sccs();
        assert_eq!(sccs.len(), 2);
        assert_eq!(sccs[0].stmts, vec![0, 1]);
        assert!(sccs[0].cyclic);
        assert_eq!(sccs[1].stmts, vec![2]);
        assert!(!sccs[1].cyclic);
    }

    #[test]
    fn self_edge_marks_recurrence() {
        let mut g = DepGraph::new(2);
        g.add_edge(1, 1);
        let sccs = g.sccs();
        assert_eq!(sccs.len(), 2);
        let rec = sccs.iter().find(|s| s.stmts == vec![1]).unwrap();
        assert!(rec.cyclic);
        let ind = sccs.iter().find(|s| s.stmts == vec![0]).unwrap();
        assert!(!ind.cyclic);
    }

    #[test]
    fn reverse_dependence_orders_consumer_first() {
        // 1 -> 0 (statement 1's loop must run before statement 0's).
        let mut g = DepGraph::new(2);
        g.add_edge(1, 0);
        let sccs = g.sccs();
        assert_eq!(sccs.len(), 2);
        assert_eq!(sccs[0].stmts, vec![1]);
        assert_eq!(sccs[1].stmts, vec![0]);
    }

    fn lu_like() -> (vapor_ir::Kernel, VarId, VarId, VarId, VarId) {
        let mut b = KernelBuilder::new("t");
        let n = b.scalar_param("n", ScalarTy::I64);
        let k = b.fresh_loop_var("k");
        let i = b.fresh_loop_var("i");
        let j = b.fresh_loop_var("j");
        (b.finish(), n, k, i, j)
    }

    fn aff(k: &vapor_ir::Kernel, e: &Expr) -> Affine {
        analyze(k, e).unwrap()
    }

    fn mul(a: Expr, b: Expr) -> Expr {
        Expr::bin(BinOp::Mul, a, b)
    }

    fn add(a: Expr, b: Expr) -> Expr {
        Expr::bin(BinOp::Add, a, b)
    }

    #[test]
    fn bound_solver_proves_lu_pivot_column_independent() {
        // store a[n*i+j] vs load a[n*i+k], loop over j in [k+1, n):
        // collision needs j == k, but j >= k+1.
        let (kern, n, k, i, j) = lu_like();
        let store = aff(&kern, &add(mul(Expr::Var(n), Expr::Var(i)), Expr::Var(j)));
        let load = aff(&kern, &add(mul(Expr::Var(n), Expr::Var(i)), Expr::Var(k)));
        let lo = aff(&kern, &add(Expr::Var(k), Expr::Int(1)));
        let hi = aff(&kern, &Expr::Var(n));
        assert_eq!(
            classify_dep(j, &store, &load, Some(&lo), Some(&hi)),
            DepClass::Independent
        );
        // Without the lower bound the same pair is unprovable.
        assert!(matches!(
            classify_dep(j, &store, &load, None, Some(&hi)),
            DepClass::Unknown(_)
        ));
    }

    #[test]
    fn row_combination_degrades_to_same_iteration() {
        // store a[n*i+j] vs load a[n*k+j]: distance n*(i-k) — zero or
        // whole rows, never a small carry.
        let (kern, n, k, i, j) = lu_like();
        let store = aff(&kern, &add(mul(Expr::Var(n), Expr::Var(i)), Expr::Var(j)));
        let load = aff(&kern, &add(mul(Expr::Var(n), Expr::Var(k)), Expr::Var(j)));
        assert_eq!(
            classify_dep(j, &store, &load, None, None),
            DepClass::SameIteration
        );
    }

    #[test]
    fn constant_distance_still_detected() {
        // seidel-style a[i] vs a[i-1]: carried distance 1.
        let (kern, _n, _k, i, _j) = lu_like();
        let store = aff(&kern, &Expr::Var(i));
        let load = aff(&kern, &Expr::bin(BinOp::Sub, Expr::Var(i), Expr::Int(1)));
        assert_eq!(
            classify_dep(i, &store, &load, None, None),
            DepClass::Carried(1)
        );
        assert_eq!(
            classify_dep(i, &load, &store, None, None),
            DepClass::Carried(-1)
        );
        assert_eq!(
            classify_dep(i, &store, &store, None, None),
            DepClass::SameIteration
        );
    }
}
