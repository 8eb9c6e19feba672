//! Golden snapshots of the vectorization *plan*: per-loop verdicts,
//! typed rejection reasons, and — where Allen–Kennedy distribution ran —
//! the SCC partition with a per-component verdict. A silent change in
//! the planner's decisions (a loop flipping to scalar, an SCC merging,
//! a reason recategorizing) fails these tests instead of only showing up
//! as a bench regression.
//!
//! Snapshots live under `tests/golden/plan_*.txt`; regenerate after an
//! *intentional* planner change with
//! `UPDATE_GOLDEN=1 cargo test --test plan_golden`.

use vapor_frontend::parse_kernel;
use vapor_vectorizer::{vectorize, LoopReport, VectorizeOptions};

/// Render a kernel's reports as a stable, human-diffable plan listing.
fn render(name: &str, reports: &[LoopReport]) -> String {
    let mut out = format!("plan {name}\n");
    for r in reports {
        let verdict = if r.vectorized { "VECTOR" } else { "scalar" };
        out.push_str(&format!("  {}: {verdict}", r.description));
        if !r.features.is_empty() {
            out.push_str(&format!(" features={:?}", r.features));
        }
        if let Some(rej) = &r.reason {
            out.push_str(&format!(" -- {rej}"));
        }
        out.push('\n');
        for p in &r.parts {
            let pv = if p.vectorized { "VECTOR" } else { "scalar" };
            out.push_str(&format!("    scc stmts={:?}: {pv}", p.stmts));
            if let Some(rej) = &p.reason {
                out.push_str(&format!(" -- {rej}"));
            }
            out.push('\n');
        }
    }
    out
}

fn check_golden(tag: &str, text: &str) {
    let path = format!(
        "{}/tests/golden/{tag}.txt",
        env!("CARGO_MANIFEST_DIR").trim_end_matches('/')
    );
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, text).unwrap_or_else(|e| panic!("write {path}: {e}"));
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read {path}: {e} (run with UPDATE_GOLDEN=1 to create)"));
    assert_eq!(
        text, want,
        "plan of {tag} drifted from the golden snapshot; \
         if the change is intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

/// The three historical floor kernels: `lu`/`ludcmp` now plan vector
/// inner loops; `seidel` stays scalar but its plan must show the single
/// cyclic SCC the distribution pass found.
#[test]
fn solver_plans_match_goldens() {
    for name in ["lu_fp", "ludcmp_fp", "seidel_fp"] {
        let spec = vapor_kernels::find(name).unwrap();
        let result = vectorize(&spec.kernel(), &VectorizeOptions::default());
        check_golden(&format!("plan_{name}"), &render(name, &result.reports));
    }
}

/// Distribution demo: a loop whose statements split into two acyclic
/// SCCs (both vectorize, as separate stripmined loops in dependence
/// order), and one whose recurrence half stays behind as a scalar
/// residual loop while the acyclic half vectorizes.
#[test]
fn distribution_plans_match_goldens() {
    let split = parse_kernel(
        "kernel dist_split(long n, float a[], float b[], float c[]) {
           for (long i = 1; i < n; i++) {
             a[i] = b[i] + 1.5;
             c[i] = a[i - 1] * 2.5;
           }
         }",
    )
    .unwrap();
    let result = vectorize(&split, &VectorizeOptions::default());
    check_golden("plan_dist_split", &render("dist_split", &result.reports));

    let residual = parse_kernel(
        "kernel dist_residual(long n, float a[], float b[], float c[], float d[]) {
           for (long i = 1; i < n; i++) {
             b[i] = a[i] + c[i];
             d[i] = d[i - 1] + b[i];
           }
         }",
    )
    .unwrap();
    let result = vectorize(&residual, &VectorizeOptions::default());
    check_golden(
        "plan_dist_residual",
        &render("dist_residual", &result.reports),
    );
}
