//! Shared pieces: arguments, the result line, the schedule RNG, the
//! target set, the kernel suite with its oracles, and output checks.

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

use vapor_core::{arrays_match, reference, CompileConfig, Engine, Flow};
use vapor_ir::{Bindings, Kernel};
use vapor_kernels::{KernelSpec, Scale, SuiteKind};
use vapor_targets::TargetDesc;

/// The IR-oracle tolerance the suite's correctness tests use.
const TOL: f64 = 2e-4;

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What one invocation prints as its last line.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Problems found by checks that are not per-operation (a drifting
    /// exact count, an unexpected artifact-tier count).
    pub problems: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        if !value.is_finite() {
            self.problems
                .push(format!("metric {name} is not finite ({value})"));
        }
        self.metrics.push((name.to_owned(), value, unit));
    }

    /// Count one failed operation and keep its first few descriptions.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failed <= 20 {
            eprintln!("FAILED: {what}");
        }
    }

    pub fn problem(&mut self, what: String) {
        eprintln!("CHECK FAILED: {what}");
        self.problems.push(what);
    }

    pub fn ok(&self) -> bool {
        self.failed == 0 && self.problems.is_empty() && self.attempted > 0
    }

    pub fn print(&self) {
        for (name, value, unit) in &self.metrics {
            println!("{name:<48} {value:>16.4} {unit}");
        }
        let mut j = String::new();
        let _ = write!(
            j,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.ok(),
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let v = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                j,
                "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            );
        }
        j.push_str("}}");
        println!("{j}");
    }
}

/// SplitMix64: the schedule generator. The seed drives only order,
/// tuple draws and VLs; array contents never depend on it.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// The seven deployment targets, by the names the results use.
pub fn targets() -> Vec<(&'static str, TargetDesc)> {
    use vapor_targets::*;
    vec![
        ("sse", sse()),
        ("altivec", altivec()),
        ("neon64", neon64()),
        ("avx", avx()),
        ("scalar_only", scalar_only()),
        ("sve", sve()),
        ("rvv", rvv()),
    ]
}

/// One suite kernel with its source, inputs and oracle output at the
/// workload's scale.
pub struct Case {
    pub spec: KernelSpec,
    pub kernel: Kernel,
    pub env: Bindings,
    pub oracle: Bindings,
}

impl Case {
    pub fn media(&self) -> bool {
        self.spec.suite == SuiteKind::Media
    }

    /// Check every array of an execution's output against the oracle.
    pub fn check(&self, out: &Bindings) -> Result<(), String> {
        for (name, expected) in self.oracle.arrays() {
            let actual = out
                .array(name)
                .ok_or_else(|| format!("array {name} missing from the output"))?;
            arrays_match(expected, actual, TOL).map_err(|e| format!("array {name}: {e}"))?;
        }
        Ok(())
    }
}

/// The 32 suite kernels with inputs and IR-oracle outputs at `scale`.
pub fn cases(scale: Scale) -> Vec<Case> {
    vapor_kernels::suite()
        .into_iter()
        .map(|spec| {
            let kernel = spec.kernel();
            let env = spec.env(scale);
            let oracle = reference(&kernel, &env)
                .unwrap_or_else(|e| panic!("oracle failed on {}: {e}", spec.name));
            Case {
                spec,
                kernel,
                env,
                oracle,
            }
        })
        .collect()
}

/// The offline deployment a workload starts from: an engine with an
/// artifact store compiles every tuple once, writing one artifact each.
///
/// Its writes end in an `fsync`, whose latency on a shared virtual disk
/// varies severalfold from one sweep to the next, so this step is not
/// timed; the bytes and counts it leaves are exact.
pub struct Published {
    pub dir: PathBuf,
    /// Bytes the deployment wrote to the store.
    pub bytes: u64,
    /// Compiles that ran the offline stage (no usable artifact).
    pub vectorizer_calls: u64,
    pub writes: u64,
    pub rejects: u64,
}

impl Drop for Published {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Deploy every (kernel, flow, target) of `compiles` to a fresh artifact
/// store.
pub fn publish<'a>(
    tag: &str,
    compiles: impl IntoIterator<Item = (&'a Kernel, Flow, &'a TargetDesc)>,
) -> Published {
    let dir = scratch_dir(&format!("{tag}-store"));
    let engine = Engine::builder()
        .artifact_dir(&dir)
        .build()
        .expect("artifact store opens");
    let cfg = CompileConfig::default();
    for (kernel, flow, target) in compiles {
        engine
            .compile(kernel, flow, target, &cfg)
            .unwrap_or_else(|e| panic!("deploying {} [{flow}]: {e}", kernel.name));
    }
    let s = engine.stats();
    Published {
        bytes: dir_bytes(&dir),
        vectorizer_calls: s.misses - s.artifact_hits,
        writes: s.artifact_writes,
        rejects: s.artifact_rejects,
        dir,
    }
}

/// One warm compile as a restarted service pays it: a fresh engine on
/// the deployed store parses the source and compiles it, served by an
/// artifact load. Returns the latency of parse + compile in µs (engine
/// construction is not timed).
pub fn warm_compile(
    store: &Path,
    source: &str,
    flow: Flow,
    target: &TargetDesc,
) -> Result<f64, String> {
    let engine = Engine::builder()
        .artifact_dir(store)
        .build()
        .map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    let kernel = vapor_frontend::parse_kernel(source).map_err(|e| e.to_string())?;
    engine
        .compile(&kernel, flow, target, &CompileConfig::default())
        .map_err(|e| e.to_string())?;
    let us = t0.elapsed().as_secs_f64() * 1e6;
    let s = engine.stats();
    if s.artifact_hits != 1 || s.artifact_writes != 0 {
        return Err(format!(
            "warm compile of {}: not served by the artifact store",
            kernel.name
        ));
    }
    Ok(us)
}

/// Run `f`, turning a panic into an error so it counts as a failed
/// operation instead of ending the run without a result.
pub fn guarded<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|p| {
        let msg = p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| (*s).to_owned()))
            .unwrap_or_else(|| "non-string panic".to_owned());
        format!("panic: {msg}")
    })
}

/// Set up `reps` times, recording each duration in seconds in `times`,
/// and return the last state; earlier states are dropped before the next
/// set-up so peak memory reflects one live state. Workloads set up
/// `reps` times before the timed window and again after it, so the
/// median set-up time spans the run's machine conditions.
pub fn repeated_setup<S>(reps: usize, times: &mut Vec<f64>, mut setup: impl FnMut() -> S) -> S {
    let mut state = None;
    for _ in 0..reps.max(1) {
        drop(state.take());
        let t0 = Instant::now();
        state = Some(setup());
        times.push(t0.elapsed().as_secs_f64());
    }
    state.expect("at least one set-up")
}

/// The end-to-end numbers every workload reports.
pub struct EndToEnd {
    pub setup_times: Vec<f64>,
    pub ops: crate::stats::Summary,
    pub ops_per_s: f64,
    pub warm: crate::stats::Summary,
    pub store_bytes: u64,
    /// (NativeScalar ÷ split, NativeVector ÷ split) `vm_cycles` geomeans.
    pub modeled: (f64, f64),
}

impl Report {
    /// Emit every end-to-end metric, the same set for every workload.
    pub fn end_to_end(&mut self, mut e: EndToEnd) {
        println!("tail_us: {}", e.ops.tail_label());
        println!("warm_tail_us: {}", e.warm.tail_label());
        let success = 1.0 - self.failed as f64 / self.attempted.max(1) as f64;
        self.metric("setup_s", crate::stats::median(&mut e.setup_times), "s");
        self.metric("p50_us", e.ops.p50, "us");
        self.metric("tail_us", e.ops.tail, "us");
        self.metric("ops_per_s", e.ops_per_s, "1/s");
        self.metric("success_frac", success, "ratio");
        self.metric("peak_rss_mb", peak_rss_mb(), "MiB");
        self.metric("warm_p50_us", e.warm.p50, "us");
        self.metric("warm_tail_us", e.warm.tail, "us");
        self.metric("artifact_store_bytes", e.store_bytes as f64, "bytes");
        self.metric("modeled_vector_speedup_geo", e.modeled.0, "x");
        self.metric("modeled_split_vs_native_geo", e.modeled.1, "x");
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// This run's scratch directory inside the benchmark's own directory
/// (artifact stores, span files). Created empty.
pub fn scratch_dir(tag: &str) -> PathBuf {
    let dir = out_dir().join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("benchmark scratch directory can be created");
    dir
}

/// `perfbench/.out`: everything a run writes lives under it.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(".out")
}

/// Total size in bytes of the regular files directly under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Geometric mean of positive ratios.
pub fn geomean(ratios: &[f64]) -> f64 {
    if ratios.is_empty() {
        return 0.0;
    }
    (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp()
}
