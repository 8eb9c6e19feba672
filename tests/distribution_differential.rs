//! Differential tests for Allen–Kennedy loop distribution.
//!
//! Three layers:
//! 1. The distribution demo kernels (acyclic split; vector half + scalar
//!    recurrence residual) execute bit-compatibly with the reference
//!    interpreter on every fixed-width target, every flow, and on the
//!    VLA families at every tested runtime VL.
//! 2. The whole suite runs with and without distribution
//!    (`CompileConfig::no_distribution`) and both configurations match
//!    the oracle — distribution can only change *how* a loop compiles,
//!    never what it computes.
//! 3. Regressions for the dependence-analysis surface the distribution
//!    rewrite touched: same-iteration store→load reuse, store-free
//!    reduction bodies, and interleaved (no contiguous store) loops all
//!    still vectorize.

use vapor_core::{arrays_match, reference, CompileConfig, Engine, ExecRequest, Flow};
use vapor_frontend::parse_kernel;
use vapor_ir::{ArrayData, Bindings, Kernel, ScalarTy};
use vapor_kernels::{suite, Scale};
use vapor_targets::{altivec, avx, neon64, rvv, scalar_only, sse, sve, VLA_TEST_BITS};
use vapor_vectorizer::{vectorize, RejectCategory, VectorizeOptions};

const N: i64 = 37; // odd, to exercise tail loops

/// Deterministic float array: small values, no rounding drama.
fn farray(len: usize, seed: u64) -> ArrayData {
    let vals: Vec<f64> = (0..len as u64)
        .map(|i| ((i * 37 + seed * 11) % 23) as f64 * 0.125 - 1.0)
        .collect();
    ArrayData::from_floats(ScalarTy::F32, &vals)
}

fn env_for(kernel: &Kernel, lens: &[(&str, usize)]) -> Bindings {
    let mut env = Bindings::new();
    env.set_int("n", N);
    for (i, (name, len)) in lens.iter().enumerate() {
        env.set_array(name, farray(*len, i as u64 + 1));
    }
    let _ = kernel; // names are validated by the interpreter/VM binding step
    env
}

fn check_everywhere(kernel: &Kernel, env: &Bindings, what: &str) {
    let engine = Engine::new();
    let oracle = reference(kernel, env).unwrap_or_else(|e| panic!("{what}: oracle failed: {e}"));
    for target in [
        sse(),
        altivec(),
        neon64(),
        avx(),
        scalar_only(),
        sve(),
        rvv(),
    ] {
        for flow in Flow::ALL {
            let result = engine
                .execute(&ExecRequest::new(kernel, &target, env).flow(flow))
                .unwrap_or_else(|e| panic!("{what} [{flow} on {}]: {e}", target.name));
            for (name, expected) in oracle.arrays() {
                arrays_match(expected, result.out.array(name).unwrap(), 2e-4).unwrap_or_else(|e| {
                    panic!("{what} [{flow} on {}]: array {name}: {e}", target.name)
                });
            }
        }
    }
    for family in [sve(), rvv()] {
        for vl in VLA_TEST_BITS {
            let result = engine
                .execute(
                    &ExecRequest::new(kernel, &family, env)
                        .flow(Flow::SplitVectorOpt)
                        .vl_bits(vl),
                )
                .unwrap_or_else(|e| panic!("{what} [{} @VL={vl}]: {e}", family.name));
            for (name, expected) in oracle.arrays() {
                arrays_match(expected, result.out.array(name).unwrap(), 2e-4).unwrap_or_else(|e| {
                    panic!("{what} [{} @VL={vl}]: array {name}: {e}", family.name)
                });
            }
        }
    }
}

/// Both statements land in acyclic singleton SCCs: the loop distributes
/// into two vector sub-loops (the carried dependence `a[i-1]` is honored
/// by emitting them in dependence order).
#[test]
fn acyclic_split_vectorizes_both_halves() {
    let kernel = parse_kernel(
        "kernel dist_split(long n, float a[], float b[], float c[]) {
           for (long i = 1; i < n; i++) {
             a[i] = b[i] + 1.5;
             c[i] = a[i - 1] * 2.5;
           }
         }",
    )
    .unwrap();
    let result = vectorize(&kernel, &VectorizeOptions::default());
    let report = &result.reports[0];
    assert!(report.vectorized, "{report:#?}");
    assert_eq!(report.parts.len(), 2, "{report:#?}");
    assert!(report.parts.iter().all(|p| p.vectorized), "{report:#?}");
    assert_eq!(report.parts[0].stmts, vec![0]);
    assert_eq!(report.parts[1].stmts, vec![1]);

    let env = env_for(
        &kernel,
        &[("a", N as usize), ("b", N as usize), ("c", N as usize)],
    );
    check_everywhere(&kernel, &env, "dist_split");
}

/// The recurrence statement stays behind as a scalar residual loop; the
/// acyclic statement still vectorizes. This is the PR's core claim: a
/// dependence cycle no longer condemns the whole loop.
#[test]
fn recurrence_residual_keeps_vector_half() {
    let kernel = parse_kernel(
        "kernel dist_residual(long n, float a[], float b[], float c[], float d[]) {
           for (long i = 1; i < n; i++) {
             b[i] = a[i] + c[i];
             d[i] = d[i - 1] + b[i];
           }
         }",
    )
    .unwrap();
    let result = vectorize(&kernel, &VectorizeOptions::default());
    let report = &result.reports[0];
    assert!(report.vectorized, "{report:#?}");
    assert_eq!(report.parts.len(), 2, "{report:#?}");
    assert!(report.parts[0].vectorized, "{report:#?}");
    assert!(!report.parts[1].vectorized, "{report:#?}");
    assert_eq!(
        report.parts[1].reason.as_ref().unwrap().category,
        RejectCategory::Recurrence
    );

    // Without distribution the same loop is rejected whole.
    let opts = VectorizeOptions {
        no_distribution: true,
        ..Default::default()
    };
    let undistributed = vectorize(&kernel, &opts);
    assert!(
        undistributed.reports.iter().all(|r| !r.vectorized),
        "{:#?}",
        undistributed.reports
    );

    let env = env_for(
        &kernel,
        &[
            ("a", N as usize),
            ("b", N as usize),
            ("c", N as usize),
            ("d", N as usize),
        ],
    );
    check_everywhere(&kernel, &env, "dist_residual");
}

/// Same-iteration store→load reuse (`a[i]` written then read in the same
/// iteration) is not a loop-carried dependence: the loop must vectorize
/// *fused* — whole-loop analysis accepts it, so distribution never runs.
#[test]
fn same_iteration_reuse_vectorizes_fused() {
    let kernel = parse_kernel(
        "kernel reuse(long n, float a[], float b[], float c[]) {
           for (long i = 0; i < n; i++) {
             a[i] = b[i] + 1.5;
             c[i] = a[i] * 2.5;
           }
         }",
    )
    .unwrap();
    let result = vectorize(&kernel, &VectorizeOptions::default());
    let report = &result.reports[0];
    assert!(report.vectorized, "{report:#?}");
    assert!(
        report.parts.is_empty(),
        "same-iteration reuse must not trigger distribution: {report:#?}"
    );

    let env = env_for(
        &kernel,
        &[("a", N as usize), ("b", N as usize), ("c", N as usize)],
    );
    check_everywhere(&kernel, &env, "reuse");
}

/// Regressions for the deleted `any_contig_store` computation: loops
/// whose stores are all strided (interleave) and loops with no store at
/// all (pure reduction body) must still vectorize.
#[test]
fn store_shape_regressions_still_vectorize() {
    let interleave = parse_kernel(
        "kernel interleave(long n, float x[], float y[]) {
           for (long i = 0; i < n; i++) {
             y[2*i] = x[i] * 1.5;
             y[2*i + 1] = x[i + 1] * 2.5;
           }
         }",
    )
    .unwrap();
    let result = vectorize(&interleave, &VectorizeOptions::default());
    assert!(
        result.reports.iter().any(|r| r.vectorized),
        "interleave (no contiguous store) should vectorize: {:#?}",
        result.reports
    );
    let env = env_for(&interleave, &[("x", N as usize + 1), ("y", 2 * N as usize)]);
    check_everywhere(&interleave, &env, "interleave");

    let reduction = parse_kernel(
        "kernel redonly(long n, float x[], float y[]) {
           float s;
           s = 0.0;
           for (long i = 0; i < n; i++) {
             s += x[i] * x[i];
           }
           y[0] = s;
         }",
    )
    .unwrap();
    let result = vectorize(&reduction, &VectorizeOptions::default());
    assert!(
        result.reports.iter().any(|r| r.vectorized),
        "store-free reduction body should vectorize: {:#?}",
        result.reports
    );
    let env = env_for(&reduction, &[("x", N as usize), ("y", 1)]);
    check_everywhere(&reduction, &env, "redonly");
}

/// The whole suite, distributed vs. undistributed: both configurations
/// must match the oracle (and therefore each other) on a fixed-width and
/// a VLA target.
#[test]
fn suite_matches_oracle_with_and_without_distribution() {
    let engine = Engine::new();
    let no_dist = CompileConfig {
        no_distribution: true,
        ..Default::default()
    };
    for spec in suite() {
        let kernel = spec.kernel();
        let env = spec.env(Scale::Test);
        let oracle = reference(&kernel, &env)
            .unwrap_or_else(|e| panic!("{}: oracle failed: {e}", spec.name));
        for target in [sse(), sve()] {
            for cfg in [CompileConfig::default(), no_dist.clone()] {
                let result = engine
                    .execute(
                        &ExecRequest::new(&kernel, &target, &env)
                            .flow(Flow::SplitVectorOpt)
                            .config(cfg.clone()),
                    )
                    .unwrap_or_else(|e| {
                        panic!(
                            "{} [{} no_distribution={}]: {e}",
                            spec.name, target.name, cfg.no_distribution
                        )
                    });
                for (name, expected) in oracle.arrays() {
                    arrays_match(expected, result.out.array(name).unwrap(), 2e-4).unwrap_or_else(
                        |e| {
                            panic!(
                                "{} [{} no_distribution={}]: array {name}: {e}",
                                spec.name, target.name, cfg.no_distribution
                            )
                        },
                    );
                }
            }
        }
    }
}
