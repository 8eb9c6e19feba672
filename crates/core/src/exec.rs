//! The unified execution API of the compile service: one typed request,
//! one entry point.
//!
//! The seed grew seven `run_*` free functions — one per (tier, width,
//! fusion, VL) combination — each taking a pre-compiled artifact and
//! re-deriving its execution form by hand. [`ExecRequest`] collapses
//! that matrix into a builder over the *source-level* inputs (kernel,
//! flow, target, bindings) plus typed execution options, and
//! [`Engine::execute`] resolves it end to end through every engine
//! tier: the sharded compile cache, the per-VL specialization and
//! threaded-lowering LRUs, the persistent artifact store, and the
//! pooled execution arenas. A request storm therefore compiles each
//! distinct tuple once, decodes each execution form once, and allocates
//! machine memory only until the arena pool warms up.
//!
//! Migration from the legacy free functions:
//!
//! | legacy | request |
//! |---|---|
//! | `run(t, c, env, p)` | `ExecRequest::new(k, t, env).policy(p)` |
//! | `run_wide(..)` | `….wide_registers(true)` |
//! | `run_specialized(..)` | `….vl_bits(vl)` |
//! | `run_specialized_wide(..)` | `….vl_bits(vl).wide_registers(true)` |
//! | `run_threaded(..)` | `….tier(Tier::Threaded)` |
//! | `run_unfused(..)` | `….fused(false)` |
//! | `run_baseline(..)` | `….tier(Tier::Baseline)` |

use std::fmt;
use std::sync::Arc;

use vapor_ir::{Bindings, Kernel};
use vapor_targets::{ExecStats, TargetDesc, Trap};

use crate::engine::{exec_target, Engine, Keyed};
use crate::pipeline::{CompileConfig, Compiled, Flow, PipelineError};
use crate::run::{read_back, setup_machine_with, AllocPolicy, RunResult};

/// Which execution tier services the request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Tier {
    /// The seed per-instruction dispatch loop over raw machine code —
    /// the tier the others are measured against.
    Baseline,
    /// Pre-decoded dispatch ([`vapor_targets::DecodedProgram`]) with
    /// superinstruction fusion — the default.
    #[default]
    Decoded,
    /// Closure-threaded execution over a flattened register arena
    /// ([`vapor_targets::ThreadedProgram`]).
    Threaded,
}

/// One execution request against an [`Engine`]: what to run (kernel,
/// flow, target, bindings) and how (tier, VL, fusion, register-file
/// width, array placement). Build with [`ExecRequest::new`] and the
/// chainable setters; the defaults reproduce the legacy `run()` —
/// decoded tier, fused, target-sized registers, aligned arrays, the
/// target's natural vector length.
#[derive(Debug, Clone)]
pub struct ExecRequest<'a> {
    pub(crate) kernel: &'a Kernel,
    pub(crate) target: &'a TargetDesc,
    pub(crate) env: &'a Bindings,
    pub(crate) flow: Flow,
    pub(crate) cfg: CompileConfig,
    pub(crate) tier: Tier,
    pub(crate) vl_bits: Option<usize>,
    pub(crate) fused: bool,
    pub(crate) wide_registers: bool,
    pub(crate) policy: AllocPolicy,
}

impl<'a> ExecRequest<'a> {
    /// A request to run `kernel` on `target` against `env` with the
    /// default options: [`Flow::SplitVectorOpt`], the decoded tier,
    /// fused dispatch, aligned arrays, the target's natural VL.
    pub fn new(kernel: &'a Kernel, target: &'a TargetDesc, env: &'a Bindings) -> ExecRequest<'a> {
        ExecRequest {
            kernel,
            target,
            env,
            flow: Flow::SplitVectorOpt,
            cfg: CompileConfig::default(),
            tier: Tier::default(),
            vl_bits: None,
            fused: true,
            wide_registers: false,
            policy: AllocPolicy::Aligned,
        }
    }

    /// Compilation flow (default [`Flow::SplitVectorOpt`]).
    pub fn flow(mut self, flow: Flow) -> ExecRequest<'a> {
        self.flow = flow;
        self
    }

    /// Compilation knobs beyond the flow (default all off).
    pub fn config(mut self, cfg: CompileConfig) -> ExecRequest<'a> {
        self.cfg = cfg;
        self
    }

    /// Execution tier (default [`Tier::Decoded`]).
    pub fn tier(mut self, tier: Tier) -> ExecRequest<'a> {
        self.tier = tier;
        self
    }

    /// Concrete runtime vector length in bits. Defaults to the target's
    /// natural width (`vs * 8`); required to differ only on VLA targets,
    /// where it selects the per-VL specialization (the legacy
    /// `run_specialized`). Fixed-width targets accept only their own
    /// width — the same contract as `Engine::specialize`.
    pub fn vl_bits(mut self, vl_bits: usize) -> ExecRequest<'a> {
        self.vl_bits = Some(vl_bits);
        self
    }

    /// Superinstruction fusion in the decoded tier (default on). Turning
    /// it off executes one step per instruction — the fusion-ablation
    /// side of the differential (legacy `run_unfused`). Ignored by the
    /// baseline tier (which never decodes) and the threaded tier (which
    /// lowers the fused decode).
    pub fn fused(mut self, fused: bool) -> ExecRequest<'a> {
        self.fused = fused;
        self
    }

    /// Force the seed-style max-width register file (default off; see
    /// `Machine::set_wide_registers`). Results are bit-identical; only
    /// register-move traffic differs.
    pub fn wide_registers(mut self, wide: bool) -> ExecRequest<'a> {
        self.wide_registers = wide;
        self
    }

    /// Array placement policy (default [`AllocPolicy::Aligned`]).
    pub fn policy(mut self, policy: AllocPolicy) -> ExecRequest<'a> {
        self.policy = policy;
        self
    }
}

/// Result of [`Engine::execute`].
#[derive(Debug, Clone)]
pub struct ExecOutcome {
    /// Final array contents, keyed by array name.
    pub out: Bindings,
    /// Cycle/instruction counts from the VM.
    pub stats: ExecStats,
    /// The (shared, cached) compilation that was executed.
    pub compiled: Arc<Compiled>,
}

impl ExecOutcome {
    /// This outcome as the legacy [`RunResult`] (for code still shaped
    /// around the old `run_*` returns).
    pub fn run_result(&self) -> RunResult {
        RunResult {
            out: self.out.clone(),
            stats: self.stats,
        }
    }
}

/// Error of [`Engine::execute`]: the request failed to compile, or the
/// compiled code trapped.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// A pipeline stage rejected the request.
    Compile(PipelineError),
    /// The VM trapped (contract violation or missing binding).
    Trap(Trap),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Compile(e) => e.fmt(f),
            ExecError::Trap(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<PipelineError> for ExecError {
    fn from(e: PipelineError) -> ExecError {
        ExecError::Compile(e)
    }
}

impl From<Trap> for ExecError {
    fn from(e: Trap) -> ExecError {
        ExecError::Trap(e)
    }
}

impl Engine {
    /// Serve one execution request end to end: compile (through the
    /// sharded cache and, when attached, the persistent artifact tier),
    /// resolve the requested execution form (tier, VL, fusion — each
    /// through its own LRU), bind the request's arrays into a machine
    /// whose memory arena is recycled from the engine's pool when one
    /// is warm, run, and read the results back. The arena returns to
    /// the pool afterwards — including when execution traps.
    ///
    /// # Errors
    /// [`ExecError::Compile`] when any pipeline stage rejects the
    /// request (including illegal VLs and fixed-width/VL mismatches);
    /// [`ExecError::Trap`] on VM contract violations and missing
    /// bindings.
    pub fn execute(&self, req: &ExecRequest<'_>) -> Result<ExecOutcome, ExecError> {
        // Default VL: the target's own width — fixed targets (including
        // the 0-bit scalar-only one) take their baked width; the VLA
        // families take their 128-bit minimum.
        let vl = req.vl_bits.unwrap_or(req.target.vs * 8);
        // One key per request, shared by every cache tier below.
        let job = Keyed::new(req.kernel, req.flow, req.target, &req.cfg);
        match req.tier {
            Tier::Baseline => {
                // Validate the (target, VL) pair exactly like the other
                // tiers, then dispatch the raw machine code.
                let compiled = self.compile_at_vl(&job, vl)?;
                let exec_t = exec_target(req.target, vl);
                let code = Arc::clone(&compiled);
                self.run_request(req, &exec_t, compiled, move |m| m.run(&code.jit.code))
            }
            Tier::Decoded => {
                let (compiled, prog) = if req.fused {
                    self.specialize_keyed(&job, vl)?
                } else {
                    self.decode_unfused_keyed(&job, vl)?
                };
                let exec_t = exec_target(req.target, vl);
                self.run_request(req, &exec_t, compiled, move |m| m.run_decoded(&prog))
            }
            Tier::Threaded => {
                let (compiled, prog) = self.thread_keyed(&job, vl)?;
                let exec_t = exec_target(req.target, vl);
                self.run_request(req, &exec_t, compiled, move |m| m.run_threaded(&prog))
            }
        }
    }

    /// The shared machine lifecycle of [`Engine::execute`]: pooled
    /// arena in, bind, run one tier's dispatch, read back, arena out.
    fn run_request(
        &self,
        req: &ExecRequest<'_>,
        exec_t: &TargetDesc,
        compiled: Arc<Compiled>,
        run: impl FnOnce(&mut vapor_targets::Machine<'_>) -> Result<ExecStats, Trap>,
    ) -> Result<ExecOutcome, ExecError> {
        let (mut m, bases) = setup_machine_with(
            exec_t,
            &compiled,
            req.env,
            req.policy,
            req.wide_registers,
            self.take_arena(),
        )?;
        let outcome = run(&mut m);
        // The arena goes back to the pool even when execution traps —
        // a trapping tenant must not bleed the pool dry.
        let result = outcome.map(|stats| read_back(&m, bases, stats));
        self.put_arena(m.into_arena());
        let RunResult { out, stats } = result?;
        Ok(ExecOutcome {
            out,
            stats,
            compiled,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::compile;
    use crate::run::{
        arrays_match, reference, run, run_baseline, run_specialized, run_threaded, run_unfused,
        run_wide,
    };
    use vapor_frontend::parse_kernel;
    use vapor_ir::{ArrayData, ScalarTy};
    use vapor_targets::sse;

    fn saxpy() -> Kernel {
        parse_kernel(
            "kernel saxpy(long n, float a, float x[], float y[]) {
               for (long i = 0; i < n; i++) { y[i] = a * x[i] + y[i]; }
             }",
        )
        .unwrap()
    }

    fn saxpy_env(n: usize) -> Bindings {
        let mut env = Bindings::new();
        let x: Vec<f64> = (0..n).map(|i| i as f64 * 0.5).collect();
        let y: Vec<f64> = (0..n).map(|i| 100.0 - i as f64).collect();
        env.set_int("n", n as i64)
            .set_float("a", 3.0)
            .set_array("x", ArrayData::from_floats(ScalarTy::F32, &x))
            .set_array("y", ArrayData::from_floats(ScalarTy::F32, &y));
        env
    }

    #[test]
    fn execute_defaults_match_the_legacy_run_shim() {
        let e = Engine::new();
        let k = saxpy();
        let t = sse();
        let env = saxpy_env(129);
        let got = e.execute(&ExecRequest::new(&k, &t, &env)).unwrap();
        let c = compile(&k, Flow::SplitVectorOpt, &t, &CompileConfig::default()).unwrap();
        let want = run(&t, &c, &env, AllocPolicy::Aligned).unwrap();
        arrays_match(
            want.out.array("y").unwrap(),
            got.out.array("y").unwrap(),
            0.0,
        )
        .unwrap();
        assert_eq!(got.stats, want.stats, "bit-identical cycle accounting");
    }

    #[test]
    fn all_tiers_agree_and_match_the_oracle() {
        let e = Engine::new();
        let k = saxpy();
        let t = sse();
        let env = saxpy_env(100);
        let oracle = reference(&k, &env).unwrap();
        let base = ExecRequest::new(&k, &t, &env);
        let decoded = e.execute(&base.clone()).unwrap();
        let baseline = e.execute(&base.clone().tier(Tier::Baseline)).unwrap();
        let threaded = e.execute(&base.clone().tier(Tier::Threaded)).unwrap();
        let unfused = e.execute(&base.clone().fused(false)).unwrap();
        let wide = e.execute(&base.clone().wide_registers(true)).unwrap();
        for (name, r) in [
            ("decoded", &decoded),
            ("baseline", &baseline),
            ("threaded", &threaded),
            ("unfused", &unfused),
            ("wide", &wide),
        ] {
            arrays_match(oracle.array("y").unwrap(), r.out.array("y").unwrap(), 1e-6)
                .unwrap_or_else(|err| panic!("{name}: {err}"));
            assert_eq!(r.stats.cycles, decoded.stats.cycles, "{name} cycles");
        }
        // One compile served every tier.
        assert_eq!(e.stats().misses, 1);
        assert!(Arc::ptr_eq(&decoded.compiled, &threaded.compiled));
    }

    #[test]
    fn every_execute_path_keys_the_request_once() {
        use crate::engine::tests::KEYS_BUILT;
        let e = Engine::new();
        let k = saxpy();
        let env = saxpy_env(40);
        let (fixed, sve) = (sse(), vapor_targets::sve());
        for (t, vl) in [(&fixed, 128), (&sve, 512)] {
            for (tier, fused) in [
                (Tier::Baseline, true),
                (Tier::Decoded, true),
                (Tier::Decoded, false),
                (Tier::Threaded, true),
            ] {
                let req = ExecRequest::new(&k, t, &env)
                    .tier(tier)
                    .fused(fused)
                    .vl_bits(vl);
                // The first request builds this form, the second hits it.
                for pass in ["miss", "hit"] {
                    let before = KEYS_BUILT.with(|n| n.get());
                    e.execute(&req).unwrap();
                    let built = KEYS_BUILT.with(|n| n.get()) - before;
                    assert_eq!(built, 1, "{} {tier:?} fused={fused} {pass}", t.name);
                }
            }
        }
    }

    #[test]
    fn unfused_requests_build_no_fused_specialization() {
        let e = Engine::new();
        let k = saxpy();
        let t = vapor_targets::sve();
        let env = saxpy_env(40);
        for vl in [256, 768] {
            e.execute(&ExecRequest::new(&k, &t, &env).vl_bits(vl).fused(false))
                .unwrap();
        }
        assert_eq!(e.stats().vl_entries, 0);
        // A baseline request only validates its VL, too.
        e.execute(
            &ExecRequest::new(&k, &t, &env)
                .vl_bits(1024)
                .tier(Tier::Baseline),
        )
        .unwrap();
        assert_eq!(e.stats().vl_entries, 0);
    }

    #[test]
    fn vla_requests_specialize_per_vl() {
        let e = Engine::new();
        let k = saxpy();
        let t = vapor_targets::sve();
        let env = saxpy_env(100);
        let r128 = e
            .execute(&ExecRequest::new(&k, &t, &env).vl_bits(128))
            .unwrap();
        let r1024 = e
            .execute(&ExecRequest::new(&k, &t, &env).vl_bits(1024))
            .unwrap();
        assert!(
            r1024.stats.cycles < r128.stats.cycles,
            "wider VL must retire the loop in fewer cycles: {} vs {}",
            r1024.stats.cycles,
            r128.stats.cycles
        );
        assert_eq!(e.stats().misses, 1, "one artifact serves every VL");
        let oracle = reference(&k, &env).unwrap();
        for r in [&r128, &r1024] {
            arrays_match(oracle.array("y").unwrap(), r.out.array("y").unwrap(), 1e-6).unwrap();
        }
    }

    #[test]
    fn arena_pool_recycles_across_requests() {
        let e = Engine::new();
        let k = saxpy();
        let t = sse();
        let env = saxpy_env(64);
        let req = ExecRequest::new(&k, &t, &env);
        e.execute(&req.clone()).unwrap();
        e.execute(&req.clone()).unwrap();
        e.execute(&req.clone()).unwrap();
        let s = e.stats();
        assert_eq!(s.pool_allocs, 1, "only the cold request allocates");
        assert_eq!(s.pool_reuses, 2, "warm requests recycle the arena");
    }

    #[test]
    fn pool_survives_traps() {
        let e = Engine::new();
        let k = saxpy();
        let t = sse();
        let env = saxpy_env(64);
        // Warm the pool, then trap (misaligned bases violate the naive
        // JIT's allocation contract), then run clean again.
        e.execute(&ExecRequest::new(&k, &t, &env)).unwrap();
        let trap = e.execute(
            &ExecRequest::new(&k, &t, &env)
                .flow(Flow::SplitVectorNaive)
                .policy(AllocPolicy::Misaligned(4)),
        );
        assert!(matches!(trap, Err(ExecError::Trap(_))));
        e.execute(&ExecRequest::new(&k, &t, &env)).unwrap();
        let s = e.stats();
        assert_eq!(
            s.pool_allocs, 1,
            "the trapped request's arena must return to the pool"
        );
    }

    #[test]
    fn execute_matches_every_legacy_shim_bit_for_bit() {
        // The compat contract of the API redesign: each legacy free
        // function and its ExecRequest spelling produce bit-identical
        // machine state and cycle accounting.
        let e = Engine::new();
        let k = saxpy();
        let env = saxpy_env(129);
        let cfg = CompileConfig::default();
        let t = sse();
        let c = compile(&k, Flow::SplitVectorOpt, &t, &cfg).unwrap();
        let req = ExecRequest::new(&k, &t, &env);

        let pairs: Vec<(&str, RunResult, ExecOutcome)> = vec![
            (
                "run",
                run(&t, &c, &env, AllocPolicy::Aligned).unwrap(),
                e.execute(&req.clone()).unwrap(),
            ),
            (
                "run_wide",
                run_wide(&t, &c, &env, AllocPolicy::Aligned).unwrap(),
                e.execute(&req.clone().wide_registers(true)).unwrap(),
            ),
            (
                "run_baseline",
                run_baseline(&t, &c, &env, AllocPolicy::Aligned).unwrap(),
                e.execute(&req.clone().tier(Tier::Baseline)).unwrap(),
            ),
            (
                "run_unfused",
                run_unfused(&t, &c, &env, AllocPolicy::Aligned).unwrap(),
                e.execute(&req.clone().fused(false)).unwrap(),
            ),
        ];
        for (name, want, got) in &pairs {
            arrays_match(
                want.out.array("y").unwrap(),
                got.out.array("y").unwrap(),
                0.0,
            )
            .unwrap_or_else(|err| panic!("{name}: {err}"));
            assert_eq!(&got.stats, &want.stats, "{name}");
        }

        // The specialized and threaded shims, on a VLA target.
        let sve = vapor_targets::sve();
        let vreq = ExecRequest::new(&k, &sve, &env);
        for vl in [256usize, 1024] {
            let (vc, prog) = e
                .specialize(&k, Flow::SplitVectorOpt, &sve, &cfg, vl)
                .unwrap();
            let exec = sve.at_vl(vl);
            let want = run_specialized(&exec, &vc, &prog, &env, AllocPolicy::Aligned).unwrap();
            let got = e.execute(&vreq.clone().vl_bits(vl)).unwrap();
            arrays_match(
                want.out.array("y").unwrap(),
                got.out.array("y").unwrap(),
                0.0,
            )
            .unwrap_or_else(|err| panic!("run_specialized vl={vl}: {err}"));
            assert_eq!(got.stats, want.stats, "run_specialized vl={vl}");

            let (tc, tprog) = e.thread(&k, Flow::SplitVectorOpt, &sve, &cfg, vl).unwrap();
            let want = run_threaded(&exec, &tc, &tprog, &env, AllocPolicy::Aligned).unwrap();
            let got = e
                .execute(&vreq.clone().vl_bits(vl).tier(Tier::Threaded))
                .unwrap();
            arrays_match(
                want.out.array("y").unwrap(),
                got.out.array("y").unwrap(),
                0.0,
            )
            .unwrap_or_else(|err| panic!("run_threaded vl={vl}: {err}"));
            assert_eq!(got.stats, want.stats, "run_threaded vl={vl}");
        }
    }

    #[test]
    fn invalid_requests_fail_as_compile_errors() {
        let e = Engine::new();
        let k = saxpy();
        let env = saxpy_env(8);
        let t = sse();
        let err = e
            .execute(&ExecRequest::new(&k, &t, &env).vl_bits(256))
            .unwrap_err();
        assert!(matches!(err, ExecError::Compile(_)), "{err}");
        assert!(err.to_string().contains("fixed at 128 bits"), "{err}");
    }
}
