//! # vapor-core — the split-vectorization pipeline
//!
//! The public face of the Vapor SIMD reproduction: the compilation flows
//! of the paper's Figure 4 ([`Flow`]), the persistent compilation service
//! ([`Engine`]) that caches end-to-end compilations from mini-C kernels
//! through the offline vectorizer, the portable encoded bytecode, and the
//! online compilers, down to pre-decoded virtual SIMD machine code; plus
//! the unified execution API ([`ExecRequest`] / [`Engine::execute`]) and
//! the reference oracle ([`reference()`]).
//!
//! The engine is server-shaped: its compile cache is sharded and bounded,
//! execution-memory arenas are pooled across requests, and an optional
//! persistent artifact tier ([`ArtifactStore`]) shares offline compiles
//! across processes. The one-shot [`compile`] function remains for the
//! pipeline's own tests; everything else — examples, experiment drivers,
//! services — routes through an [`Engine`] so repeated (kernel, flow,
//! target, config) tuples are compiled once and shared.
//!
//! ```
//! use vapor_core::{arrays_match, reference, Engine, ExecRequest};
//! use vapor_ir::{ArrayData, Bindings, ScalarTy};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let kernel = vapor_frontend::parse_kernel(
//!     "kernel dscal(long n, float a, float x[]) {
//!        for (long i = 0; i < n; i++) { x[i] = a * x[i]; }
//!      }")?;
//! let target = vapor_targets::sse();
//!
//! let mut env = Bindings::new();
//! env.set_int("n", 16)
//!    .set_float("a", 2.0)
//!    .set_array("x", ArrayData::from_floats(ScalarTy::F32, &[1.0; 16]));
//!
//! let engine = Engine::new();
//! let result = engine.execute(&ExecRequest::new(&kernel, &target, &env))?;
//! let oracle = reference(&kernel, &env)?;
//! arrays_match(oracle.array("x").unwrap(), result.out.array("x").unwrap(), 1e-6)
//!     .map_err(vapor_core::PipelineError)?;
//! assert_eq!(engine.stats().misses, 1);
//! # Ok(())
//! # }
//! ```

pub mod artifact;
pub mod engine;
pub mod exec;
pub mod pipeline;
pub mod run;
mod stable_hash;

pub use artifact::{ArtifactError, ArtifactStore};
pub use engine::{
    CompileJob, Engine, EngineBuilder, EngineStats, ARENA_POOL_CAPACITY, COMPILE_CACHE_CAPACITY,
    DEFAULT_SHARDS, VL_CACHE_CAPACITY,
};
pub use exec::{ExecError, ExecOutcome, ExecRequest, Tier};
pub use pipeline::{
    compile, offline_compile, online_compile, CompileConfig, Compiled, Flow, PipelineError,
};
pub use run::{
    arrays_match, reference, run, run_baseline, run_specialized, run_specialized_wide,
    run_threaded, run_unfused, run_wide, AllocPolicy, RunResult,
};
