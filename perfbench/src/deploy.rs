//! `deploy`: compile every suite kernel from source for every target,
//! first cold, then warm — the paper's "vectorize once, run everywhere"
//! deployment.
//!
//! One closed-loop client. Each operation is `parse_kernel` on the
//! source text followed by `Engine::compile` with `SplitVectorOpt`. A
//! sweep pair is: a fresh engine with an empty cache compiles the
//! 32 × 7 tuples in seed-permuted order (cold: the full pipeline), then
//! a fresh engine on the deployed artifact store repeats the sweep in
//! another seed-permuted order (warm: artifact load, bytecode decode and
//! JIT only). Pairs repeat until the time is up; both phases are timed,
//! since the cold cost is what a deployment pays.
//!
//! The store itself is written once per run by `common::publish`, outside
//! the timed sweeps: each write ends in an `fsync` whose latency on a
//! shared virtual disk varies severalfold between sweeps and would drown
//! every code effect. Its bytes and counts are reported exactly, and the
//! write cost per artifact is the per-layer `core.artifact_save_us`.

use std::sync::Arc;
use std::time::Instant;

use vapor_core::{CompileConfig, Compiled, Engine, EngineStats, ExecRequest, Flow};
use vapor_kernels::Scale;
use vapor_targets::TargetDesc;

use crate::common::{self, geomean, guarded, Args, Case, Published, Report, Rng};
use crate::replay::{self, Live, ReplayTuple};
use crate::stats::Summary;
use crate::trace::{self, Tracer};

/// Set-ups before the timed window, and again after it.
const SETUP_REPS: usize = 5;
/// Tail window: five sweeps of the 224 operations, so the window tail is
/// their p99.
const WINDOW: usize = 1120;

struct State {
    cases: Vec<Case>,
    targets: Vec<(&'static str, TargetDesc)>,
    /// (case, target) in canonical order.
    ops: Vec<(usize, usize)>,
}

fn setup() -> State {
    let cases = common::cases(Scale::Test);
    let targets = common::targets();
    let ops = (0..cases.len())
        .flat_map(|c| (0..targets.len()).map(move |t| (c, t)))
        .collect();
    State {
        cases,
        targets,
        ops,
    }
}

/// What the timed sweeps observed.
#[derive(Default)]
struct Sweeps {
    cold_us: Vec<f64>,
    /// Cold latencies of the traced sweeps (traced runs only).
    cold_traced_us: Vec<f64>,
    warm_us: Vec<f64>,
    pairs: u64,
    /// Exact per-sweep counts; every sweep must repeat the first.
    bytecode_bytes: Option<u64>,
    static_insts: Option<u64>,
    warm_stats: EngineStats,
    /// The last warm engine, kept for the execution check.
    last_warm: Option<Engine>,
}

/// Record an exact per-sweep count, flagging any drift from the first.
fn same_count(slot: &mut Option<u64>, value: u64, what: &str, report: &mut Report) {
    match *slot {
        None => *slot = Some(value),
        Some(first) if first != value => report.problem(format!(
            "{what} drifted between sweeps: {first} then {value}"
        )),
        Some(_) => {}
    }
}

/// One sweep over `order` on `engine`, timing parse + compile per op;
/// operation `i` has request id `req_base + i`.
fn sweep(
    st: &State,
    engine: &Engine,
    order: &[(usize, usize)],
    req_base: u64,
    tr: &mut Tracer,
    lat: &mut Vec<f64>,
    report: &mut Report,
) -> Vec<Option<Arc<Compiled>>> {
    let cfg = CompileConfig::default();
    let mut out = vec![None; st.cases.len() * st.targets.len()];
    for (i, &(c, t)) in order.iter().enumerate() {
        let case = &st.cases[c];
        let target = &st.targets[t].1;
        let req = req_base + i as u64;
        let t0 = Instant::now();
        let r = guarded(|| {
            tr.span("deploy.op", req, |tr| {
                let kernel = tr.span("frontend.parse", req, |_| {
                    vapor_frontend::parse_kernel(case.spec.source)
                });
                kernel.map_err(|e| e.to_string()).and_then(|k| {
                    tr.span("core.compile", req, |_| {
                        engine.compile(&k, Flow::SplitVectorOpt, target, &cfg)
                    })
                    .map_err(|e| e.to_string())
                })
            })
        });
        let us = t0.elapsed().as_secs_f64() * 1e6;
        report.attempted += 1;
        match r.and_then(|r| r) {
            Ok(compiled) => {
                lat.push(us);
                out[c * st.targets.len() + t] = Some(compiled);
            }
            Err(e) => report.fail(format!(
                "compile {} on {}: {e}",
                case.spec.name, st.targets[t].0
            )),
        }
    }
    out
}

/// Sweep pairs for `seconds`. With `alternate`, every other pair runs
/// with `tr` recording, so the traced and untraced latencies see the
/// same machine conditions.
fn timed(
    st: &State,
    store: &Published,
    a: &Args,
    seconds: f64,
    tr: &mut Tracer,
    alternate: bool,
    report: &mut Report,
) -> Sweeps {
    let mut rng = Rng::new(a.seed);
    let mut s = Sweeps::default();
    let n_ops = st.ops.len() as u64;
    let sum = |v: &[Option<Arc<Compiled>>], f: fn(&Compiled) -> u64| -> u64 {
        v.iter().flatten().map(|c| f(c)).sum()
    };
    let mut order = st.ops.clone();
    let start = Instant::now();
    while s.pairs < 2 || start.elapsed().as_secs_f64() < seconds {
        tr.set_enabled(alternate && s.pairs % 2 == 1);

        rng.shuffle(&mut order);
        let cold = Engine::new();
        let cold_lat = if tr.enabled() {
            &mut s.cold_traced_us
        } else {
            &mut s.cold_us
        };
        let cold_out = sweep(st, &cold, &order, 2 * s.pairs * n_ops, tr, cold_lat, report);
        let cs = cold.stats();
        if cs.misses != n_ops {
            report.problem(format!(
                "cold sweep: {} misses for {n_ops} operations",
                cs.misses
            ));
        }
        same_count(
            &mut s.bytecode_bytes,
            sum(&cold_out, |c| c.bytecode_bytes as u64),
            "bytecode.encoded_bytes",
            report,
        );
        same_count(
            &mut s.static_insts,
            sum(&cold_out, |c| c.jit.stats.insts as u64),
            "jit.static_insts",
            report,
        );

        rng.shuffle(&mut order);
        let warm = Engine::builder()
            .artifact_dir(&store.dir)
            .build()
            .expect("artifact store opens");
        let warm_base = (2 * s.pairs + 1) * n_ops;
        let warm_out = sweep(st, &warm, &order, warm_base, tr, &mut s.warm_us, report);
        let ws = warm.stats();
        if ws.artifact_hits != n_ops || ws.artifact_writes != 0 {
            report.problem(format!(
                "warm sweep: {} artifact hits and {} writes for {n_ops} operations",
                ws.artifact_hits, ws.artifact_writes
            ));
        }
        same_count(
            &mut s.static_insts,
            sum(&warm_out, |c| c.jit.stats.insts as u64),
            "jit.static_insts",
            report,
        );
        for (i, (c, w)) in cold_out.iter().zip(&warm_out).enumerate() {
            if let (Some(c), Some(w)) = (c, w) {
                if c.jit.code.insts != w.jit.code.insts {
                    let (ci, ti) = (i / st.targets.len(), i % st.targets.len());
                    report.fail(format!(
                        "warm compile of {} on {} differs from the cold one",
                        st.cases[ci].spec.name, st.targets[ti].0
                    ));
                }
            }
        }
        s.warm_stats = ws;
        s.last_warm = Some(warm);
        s.pairs += 1;
    }
    s
}

/// Execute every deployed tuple at Test scale, checking it against the
/// oracle, and return the modeled geomeans and `vm_*` sums over the
/// (kernel, target) matrix with the native flows beside the split one.
fn check_matrix(st: &State, warm: &Engine, report: &mut Report) -> (f64, f64, u64, u64) {
    let native = Engine::new();
    let (mut vec_speedup, mut split_vs_native) = (Vec::new(), Vec::new());
    let (mut insts, mut cycles) = (0u64, 0u64);
    for &(c, t) in &st.ops {
        let case = &st.cases[c];
        let (tname, target) = &st.targets[t];
        let mut cyc = [0u64; 3];
        for (slot, (engine, flow)) in [
            (warm, Flow::SplitVectorOpt),
            (&native, Flow::NativeVector),
            (&native, Flow::NativeScalar),
        ]
        .into_iter()
        .enumerate()
        {
            report.attempted += 1;
            let r = guarded(|| {
                engine.execute(&ExecRequest::new(&case.kernel, target, &case.env).flow(flow))
            });
            match r.and_then(|r| r.map_err(|e| e.to_string())) {
                Ok(o) => match case.check(&o.out) {
                    Ok(()) => {
                        cyc[slot] = o.stats.cycles;
                        insts += o.stats.insts;
                        cycles += o.stats.cycles;
                    }
                    Err(e) => report.fail(format!("{} [{flow} on {tname}]: {e}", case.spec.name)),
                },
                Err(e) => report.fail(format!("{} [{flow} on {tname}]: {e}", case.spec.name)),
            }
        }
        if cyc.iter().all(|&x| x > 0) {
            vec_speedup.push(cyc[2] as f64 / cyc[0] as f64);
            split_vs_native.push(cyc[1] as f64 / cyc[0] as f64);
        }
    }
    (
        geomean(&vec_speedup),
        geomean(&split_vs_native),
        insts,
        cycles,
    )
}

pub fn run(a: &Args) -> Report {
    let mut report = Report::default();
    let mut setup_times = Vec::new();
    let st = common::repeated_setup(SETUP_REPS, &mut setup_times, setup);
    let store = common::publish(
        "deploy",
        st.ops
            .iter()
            .map(|&(c, t)| (&st.cases[c].kernel, Flow::SplitVectorOpt, &st.targets[t].1)),
    );

    if !a.trace {
        let mut s = timed(
            &st,
            &store,
            a,
            a.seconds,
            &mut Tracer::disabled(),
            false,
            &mut report,
        );
        let warm = s.last_warm.take().expect("at least one sweep pair");
        let modeled = check_matrix(&st, &warm, &mut report);
        println!("{} sweep pairs", s.pairs);
        drop((warm, st));
        drop(common::repeated_setup(SETUP_REPS, &mut setup_times, setup));
        let cold = Summary::of(s.cold_us, WINDOW);
        let warm = Summary::of(s.warm_us, WINDOW);
        report.end_to_end(common::EndToEnd {
            setup_times,
            ops_per_s: (cold.n + warm.n) as f64 / ((cold.sum + warm.sum) / 1e6),
            ops: cold,
            warm,
            store_bytes: store.bytes,
            modeled: (modeled.0, modeled.1),
        });
        return report;
    }

    // Traced run: traced and untraced sweep pairs alternate, then the
    // layer replay.
    let mut tr = Tracer::new(true, Instant::now(), 0);
    let mut traced = timed(&st, &store, a, a.seconds, &mut tr, true, &mut report);
    tr.set_enabled(true);
    let warm = traced.last_warm.take().expect("at least one sweep pair");
    let (_, _, vm_insts, vm_cycles) = check_matrix(&st, &warm, &mut report);
    let overhead_us = Summary::of(std::mem::take(&mut traced.cold_traced_us), WINDOW).p50
        - Summary::of(std::mem::take(&mut traced.cold_us), WINDOW).p50;

    let tuples: Vec<ReplayTuple> = st
        .ops
        .iter()
        .map(|&(c, t)| {
            let target = &st.targets[t].1;
            let vl = if target.vla {
                vapor_targets::VLA_MIN_BITS
            } else {
                target.vs * 8
            };
            ReplayTuple {
                case: c,
                target: t,
                flow: Flow::SplitVectorOpt,
                vls: vec![vl],
                exec_vl: Some(vl),
            }
        })
        .collect();
    let dir = common::scratch_dir("deploy-replay");
    let counts = replay::replay(
        &mut tr,
        &st.cases,
        &st.targets,
        &tuples,
        5,
        &dir,
        &mut report,
    );
    let spans = tr.into_spans();
    let live = Live {
        engine: warm.stats(),
        vectorizer_calls: store.vectorizer_calls,
        artifact_hits: traced.warm_stats.artifact_hits,
        artifact_writes: store.writes,
        artifact_rejects: store.rejects + traced.warm_stats.artifact_rejects,
        vm_insts,
        vm_cycles,
        overhead_us,
    };
    if Some(counts.encoded_bytes) != traced.bytecode_bytes {
        report.problem(format!(
            "replay encoded {} bytecode bytes, the engine's cold sweep {:?}",
            counts.encoded_bytes, traced.bytecode_bytes
        ));
    }
    if Some(counts.static_insts) != traced.static_insts {
        report.problem(format!(
            "replay JIT emitted {} instructions, the engine's sweeps {:?}",
            counts.static_insts, traced.static_insts
        ));
    }
    replay::emit(&mut report, &spans, &counts, &live);
    let path = common::out_dir().join("spans-deploy.tsv");
    if let Err(e) = trace::write_spans(&path, &spans) {
        eprintln!("writing {}: {e}", path.display());
    }
    let _ = std::fs::remove_dir_all(dir);
    report
}
