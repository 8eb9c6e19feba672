//! `serve_small`: many small requests against one shared `Engine`, so
//! the service's per-request overhead (shard locks, LRU churn, the arena
//! pool, bind and read-back) dominates and VM execution is small.
//!
//! Two closed-loop clients share the engine and send `Scale::Test`
//! requests. Valid tuples are (kernel, target, VL, tier): the five
//! fixed-width targets at their width and `sve`/`rvv` at each of the 16
//! legal VLs, on the default or the threaded tier. Draws are Zipf-skewed
//! (exponent 1) over a fixed popularity order, a hot head and a long
//! tail; the seed drives the draws. The execution-form working set
//! (1024 VLA specializations, 1184 threaded programs) exceeds the
//! 64-entry LRUs, so hits interleave with inserts and evictions. About
//! 2% of requests are malformed and must end in the expected typed
//! `ExecError`. After every 32nd request a client times one warm
//! compile of its tuple on a fresh engine (`common::warm_compile`), so
//! warm compiles are sampled across the whole window.
//!
//! The suite is deployed to an artifact store before set-up (untimed,
//! see `common::publish`); each set-up starts a fresh engine on that
//! store, compiles the 32 × 7 tuples through it and runs warm-up
//! requests until the LRUs and the arena pool are in steady state.

use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Instant;

use vapor_core::{CompileConfig, Engine, ExecError, ExecRequest, Flow, Tier};
use vapor_ir::{Bindings, Kernel};
use vapor_kernels::Scale;
use vapor_targets::TargetDesc;

use crate::common::{self, geomean, guarded, Args, Case, Published, Report, Rng};
use crate::replay::{self, Live, ReplayTuple};
use crate::stats::Summary;
use crate::trace::{self, Span, Tracer};

/// Set-ups before the timed window, and again after it.
const SETUP_REPS: usize = 2;
const CLIENTS: usize = 2;
/// Requests run in set-up to bring the LRUs and the arena pool to
/// their steady state.
const WARMUP_REQUESTS: usize = 5000;
/// One request in this many is malformed.
const MALFORMED_ONE_IN: usize = 50;
/// Fixed seed of the popularity order: which tuples are hot is part of
/// the workload, not of the schedule.
const POPULARITY_SEED: u64 = 0x5e4e_5e4e;
/// A client times a warm compile after every this many requests.
const WARM_EVERY: u64 = 32;
/// Tail windows of 500 requests and 500 warm compiles, so the tail is
/// their p98. About 1.5% of requests hit the few ms-long Test-scale
/// kernels: latency jumps from ~0.7 ms at p98 to ~2 ms at p98.5, and a
/// percentile inside that sparse cluster (p99 and up) moved by a quarter
/// from run to run with the draws, while p50 moved by 4%.
const WINDOW: usize = 500;
const WARM_WINDOW: usize = 500;
const FLOWS: [Flow; 3] = [Flow::SplitVectorOpt, Flow::NativeVector, Flow::NativeScalar];

/// An execution configuration: target index and VL.
type Config = (usize, usize);

struct State {
    cases: Vec<Case>,
    /// Per case: the inputs without their last array.
    missing: Vec<Bindings>,
    targets: Vec<(&'static str, TargetDesc)>,
    configs: Vec<Config>,
    /// Cumulative Zipf weights over `popular`.
    cdf: Vec<f64>,
    /// Valid tuples in popularity order: (case, config, tier).
    popular: Vec<(usize, usize, Tier)>,
    engine: Engine,
    store: PathBuf,
}

fn setup(store: &Published, seed: u64) -> State {
    let cases = common::cases(Scale::Test);
    let missing = cases
        .iter()
        .map(|c| without_last_array(&c.kernel, &c.env))
        .collect();
    let targets = common::targets();
    let mut configs = Vec::new();
    for (t, (_, target)) in targets.iter().enumerate() {
        if target.vla {
            let vls = (vapor_targets::VLA_MIN_BITS..=vapor_targets::VLA_MAX_BITS)
                .step_by(vapor_targets::VLA_MIN_BITS);
            configs.extend(vls.map(|vl| (t, vl)));
        } else {
            configs.push((t, target.vs * 8));
        }
    }
    let mut popular = Vec::new();
    for c in 0..cases.len() {
        for k in 0..configs.len() {
            for tier in [Tier::Decoded, Tier::Threaded] {
                popular.push((c, k, tier));
            }
        }
    }
    Rng::new(POPULARITY_SEED).shuffle(&mut popular);
    let mut acc = 0.0;
    let mut cdf: Vec<f64> = (0..popular.len())
        .map(|r| {
            acc += 1.0 / (r + 1) as f64;
            acc
        })
        .collect();
    for w in &mut cdf {
        *w /= acc;
    }

    let engine = Engine::builder()
        .artifact_dir(&store.dir)
        .build()
        .expect("artifact store opens");
    let cfg = CompileConfig::default();
    for case in &cases {
        for (_, target) in &targets {
            engine
                .compile(&case.kernel, Flow::SplitVectorOpt, target, &cfg)
                .unwrap_or_else(|e| panic!("set-up compile of {}: {e}", case.spec.name));
        }
    }
    let st = State {
        cases,
        missing,
        targets,
        configs,
        cdf,
        popular,
        engine,
        store: store.dir.clone(),
    };
    let mut rng = Rng::new(seed ^ 0x7761_726d_7570);
    let mut sink = Client::default();
    for _ in 0..WARMUP_REQUESTS {
        sink.one(&st, &mut rng, &mut Tracer::disabled());
    }
    if sink.failed > 0 {
        panic!("warm-up failed: {:?}", sink.failures);
    }
    st
}

/// Bindings with every parameter of `kernel` bound from `env` except the
/// last array: the "missing binding" malformed request.
fn without_last_array(kernel: &Kernel, env: &Bindings) -> Bindings {
    let mut b = Bindings::new();
    for (_, v) in kernel.scalar_params() {
        if let Some(val) = env.scalar(&v.name) {
            b.set_scalar(&v.name, val);
        }
    }
    let keep = kernel.arrays.len().saturating_sub(1);
    for a in &kernel.arrays[..keep] {
        if let Some(data) = env.array(&a.name) {
            b.set_array(&a.name, data.clone());
        }
    }
    b
}

/// What one client observed.
#[derive(Default)]
struct Client {
    /// Request ids of this client are `id << 40` plus its request count.
    id: u64,
    lat: Vec<f64>,
    /// Latencies of the requests served with tracing on.
    lat_traced: Vec<f64>,
    /// Warm compile latencies.
    warm: Vec<f64>,
    attempted: u64,
    failed: u64,
    malformed: u64,
    failures: Vec<String>,
    /// (case, config) -> (cycles, insts) of the split flow, any tier.
    seen: HashMap<(usize, usize), (u64, u64)>,
    spans: Vec<Span>,
}

impl Client {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(what);
        }
    }

    /// Draw and serve one request.
    fn one(&mut self, st: &State, rng: &mut Rng, tr: &mut Tracer) {
        self.attempted += 1;
        if rng.below(MALFORMED_ONE_IN) == 0 {
            self.malformed += 1;
            self.malformed_request(st, rng, tr);
            return;
        }
        let u = rng.unit();
        let pick = st.cdf.partition_point(|&w| w < u).min(st.popular.len() - 1);
        let (c, k, tier) = st.popular[pick];
        let case = &st.cases[c];
        let (t, vl) = st.configs[k];
        let (tname, target) = &st.targets[t];
        let rq = ExecRequest::new(&case.kernel, target, &case.env)
            .tier(tier)
            .vl_bits(vl);
        let t0 = Instant::now();
        let req = self.id << 40 | self.attempted;
        let r = guarded(|| tr.span("core.execute", req, |_| st.engine.execute(&rq)));
        let us = t0.elapsed().as_secs_f64() * 1e6;
        let what = || format!("{} [{tier:?} on {tname}@{vl}]", case.spec.name);
        let out = match r.and_then(|r| r.map_err(|e| e.to_string())) {
            Ok(o) => o,
            Err(e) => return self.fail(format!("{}: {e}", what())),
        };
        if let Err(e) = case.check(&out.out) {
            return self.fail(format!("{}: {e}", what()));
        }
        let counts = (out.stats.cycles, out.stats.insts);
        if *self.seen.entry((c, k)).or_insert(counts) != counts {
            return self.fail(format!("{}: vm_cycles/insts drifted", what()));
        }
        if tr.enabled() {
            self.lat_traced.push(us);
        } else {
            self.lat.push(us);
        }
        if self.attempted.is_multiple_of(WARM_EVERY) {
            let w = tr.span("warm_compile", req, |_| {
                guarded(|| {
                    common::warm_compile(&st.store, case.spec.source, Flow::SplitVectorOpt, target)
                })
            });
            match w.and_then(|w| w) {
                Ok(us) => self.warm.push(us),
                Err(e) => self.fail(e),
            }
        }
    }

    /// An illegal VL, a fixed-width VL mismatch, or a missing binding;
    /// each must end in its typed error, never a result or a panic.
    fn malformed_request(&mut self, st: &State, rng: &mut Rng, tr: &mut Tracer) {
        let c = rng.below(st.cases.len());
        let case = &st.cases[c];
        let kind = rng.below(3);
        let (target, env, vl, expect) = match kind {
            0 => {
                let vla: Vec<usize> = (0..st.targets.len())
                    .filter(|&t| st.targets[t].1.vla)
                    .collect();
                let t = vla[rng.below(vla.len())];
                (
                    t,
                    &case.env,
                    [64, 192, 4096][rng.below(3)],
                    "illegal runtime VL",
                )
            }
            1 => {
                let fixed: Vec<usize> = (0..st.targets.len())
                    .filter(|&t| !st.targets[t].1.vla && st.targets[t].1.vs > 0)
                    .collect();
                let t = fixed[rng.below(fixed.len())];
                (t, &case.env, st.targets[t].1.vs * 16, "is fixed at")
            }
            _ => (0, &st.missing[c], st.targets[0].1.vs * 8, "unbound array"),
        };
        let rq = ExecRequest::new(&case.kernel, &st.targets[target].1, env).vl_bits(vl);
        let req = self.id << 40 | self.attempted;
        let r = guarded(|| tr.span("core.execute.malformed", req, |_| st.engine.execute(&rq)));
        let what = format!(
            "malformed {} on {}@{vl}",
            case.spec.name, st.targets[target].0
        );
        match r {
            Ok(Err(ExecError::Compile(e))) if kind < 2 && e.to_string().contains(expect) => {}
            Ok(Err(ExecError::Trap(e))) if kind == 2 && e.to_string().contains(expect) => {}
            Ok(Err(e)) => self.fail(format!("{what}: unexpected error {e}")),
            Ok(Ok(_)) => self.fail(format!("{what}: accepted")),
            Err(e) => self.fail(format!("{what}: {e}")),
        }
    }
}

/// Run both clients for `seconds`; merge into `report`. With `traced`,
/// each client records spans on every other request.
fn timed(
    st: &State,
    a: &Args,
    seconds: f64,
    traced: Option<Instant>,
    report: &mut Report,
) -> Client {
    let start = Instant::now();
    let clients: Vec<Client> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|id| {
                s.spawn(move || {
                    let mut rng =
                        Rng::new(a.seed.wrapping_mul(0x100_0000_01b3).wrapping_add(id as u64));
                    let mut tr = match traced {
                        Some(origin) => Tracer::new(true, origin, (id as u64 + 1) << 40),
                        None => Tracer::disabled(),
                    };
                    let mut cl = Client {
                        id: id as u64 + 1,
                        ..Client::default()
                    };
                    while cl.attempted < 2 || start.elapsed().as_secs_f64() < seconds {
                        tr.set_enabled(traced.is_some() && cl.attempted % 2 == 1);
                        cl.one(st, &mut rng, &mut tr);
                    }
                    cl.spans = tr.into_spans();
                    cl
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .expect("client thread does not panic outside guarded calls")
            })
            .collect()
    });
    let mut all = Client::default();
    for cl in clients {
        report.attempted += cl.attempted;
        for f in &cl.failures {
            eprintln!("FAILED: {f}");
        }
        report.failed += cl.failed;
        all.attempted += cl.attempted;
        all.malformed += cl.malformed;
        all.lat.extend(cl.lat);
        all.lat_traced.extend(cl.lat_traced);
        all.warm.extend(cl.warm);
        all.spans.extend(cl.spans);
        for (key, v) in cl.seen {
            if *all.seen.entry(key).or_insert(v) != v {
                report.fail(format!(
                    "vm_cycles/insts of tuple {key:?} differ between clients"
                ));
            }
        }
    }
    all
}

/// The modeled matrix: every (kernel, config) under the three flows at
/// Test scale, checked against the oracle and against the cycles the
/// clients observed. Returns the geomeans and exact sums.
fn check_matrix(
    st: &State,
    seen: &HashMap<(usize, usize), (u64, u64)>,
    report: &mut Report,
) -> (f64, f64, u64, u64) {
    // Native flows compile on a private engine, so the check neither
    // disturbs the serving engine's caches nor writes to its store.
    let native = Engine::new();
    let (mut vec_speedup, mut split_vs_native) = (Vec::new(), Vec::new());
    let (mut insts, mut cycles) = (0u64, 0u64);
    for (c, case) in st.cases.iter().enumerate() {
        for (k, &(t, vl)) in st.configs.iter().enumerate() {
            let (tname, target) = &st.targets[t];
            let mut cyc = [0u64; 3];
            for (slot, flow) in FLOWS.into_iter().enumerate() {
                report.attempted += 1;
                let rq = ExecRequest::new(&case.kernel, target, &case.env)
                    .flow(flow)
                    .vl_bits(vl);
                let what = format!("{} [{flow} on {tname}@{vl}]", case.spec.name);
                let engine = if flow == Flow::SplitVectorOpt {
                    &st.engine
                } else {
                    &native
                };
                let r = guarded(|| engine.execute(&rq));
                let o = match r.and_then(|r| r.map_err(|e| e.to_string())) {
                    Ok(o) => o,
                    Err(e) => {
                        report.fail(format!("{what}: {e}"));
                        continue;
                    }
                };
                if let Err(e) = case.check(&o.out) {
                    report.fail(format!("{what}: {e}"));
                    continue;
                }
                if slot == 0 {
                    if let Some(&s) = seen.get(&(c, k)) {
                        if s != (o.stats.cycles, o.stats.insts) {
                            report.fail(format!("{what}: clients saw {s:?}"));
                        }
                    }
                }
                cyc[slot] = o.stats.cycles;
                insts += o.stats.insts;
                cycles += o.stats.cycles;
            }
            if cyc.iter().all(|&x| x > 0) {
                vec_speedup.push(cyc[2] as f64 / cyc[0] as f64);
                split_vs_native.push(cyc[1] as f64 / cyc[0] as f64);
            }
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
    let targets = common::targets();
    let kernels: Vec<_> = vapor_kernels::suite().iter().map(|s| s.kernel()).collect();
    let store = common::publish(
        "serve_small",
        kernels.iter().flat_map(|k| {
            targets
                .iter()
                .map(move |(_, t)| (k, Flow::SplitVectorOpt, t))
        }),
    );
    let mut setup_times = Vec::new();
    let st = common::repeated_setup(SETUP_REPS, &mut setup_times, || setup(&store, a.seed));
    let n_compiles = (st.cases.len() * st.targets.len()) as u64;
    let s = st.engine.stats();
    if s.artifact_hits != n_compiles || s.artifact_writes != 0 {
        report.problem(format!(
            "set-up: {} artifact hits and {} writes for {n_compiles} compiles",
            s.artifact_hits, s.artifact_writes
        ));
    }

    if !a.trace {
        let all = timed(&st, a, a.seconds, None, &mut report);
        let modeled = check_matrix(&st, &all.seen, &mut report);
        println!("{} malformed of {} requests", all.malformed, all.attempted);
        drop(st);
        drop(common::repeated_setup(SETUP_REPS, &mut setup_times, || {
            setup(&store, a.seed)
        }));
        let ops = Summary::of(all.lat, WINDOW);
        report.end_to_end(common::EndToEnd {
            setup_times,
            ops_per_s: CLIENTS as f64 * ops.n as f64 / (ops.sum / 1e6),
            ops,
            warm: Summary::of(all.warm, WARM_WINDOW),
            store_bytes: store.bytes,
            modeled: (modeled.0, modeled.1),
        });
        return report;
    }

    let origin = Instant::now();
    let before = st.engine.stats();
    let all = timed(&st, a, a.seconds, Some(origin), &mut report);
    let engine_stats = replay::delta(&st.engine.stats(), &before);
    let (_, _, vm_insts, vm_cycles) = check_matrix(&st, &all.seen, &mut report);
    let overhead_us = Summary::of(all.lat_traced, WINDOW).p50 - Summary::of(all.lat, WINDOW).p50;

    let all_vls: Vec<usize> = (vapor_targets::VLA_MIN_BITS..=vapor_targets::VLA_MAX_BITS)
        .step_by(vapor_targets::VLA_MIN_BITS)
        .collect();
    let mut tuples = Vec::new();
    for c in 0..st.cases.len() {
        for (t, (_, target)) in st.targets.iter().enumerate() {
            tuples.push(ReplayTuple {
                case: c,
                target: t,
                flow: Flow::SplitVectorOpt,
                vls: if target.vla {
                    all_vls.clone()
                } else {
                    Vec::new()
                },
                exec_vl: Some(if target.vla {
                    vapor_targets::VLA_MIN_BITS
                } else {
                    target.vs * 8
                }),
            });
        }
    }
    let mut tr = Tracer::new(true, origin, 0);
    let dir = common::scratch_dir("serve_small-replay");
    let counts = replay::replay(
        &mut tr,
        &st.cases,
        &st.targets,
        &tuples,
        5,
        &dir,
        &mut report,
    );
    let mut spans = all.spans;
    spans.extend(tr.into_spans());
    let live = Live {
        engine: engine_stats,
        vectorizer_calls: store.vectorizer_calls,
        artifact_hits: before.artifact_hits,
        artifact_writes: store.writes,
        artifact_rejects: store.rejects + before.artifact_rejects,
        vm_insts,
        vm_cycles,
        overhead_us,
    };
    replay::emit(&mut report, &spans, &counts, &live);
    let path = common::out_dir().join("spans-serve_small.tsv");
    if let Err(e) = trace::write_spans(&path, &spans) {
        eprintln!("writing {}: {e}", path.display());
    }
    let _ = std::fs::remove_dir_all(dir);
    report
}
