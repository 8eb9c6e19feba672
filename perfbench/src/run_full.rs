//! `run_full`: the run time of the generated code — the paper's Fig. 5/6
//! quantities — at Full scale on a hot engine.
//!
//! One closed-loop client sends `Engine::execute` requests at the
//! default tier. The tuple matrix is every suite kernel × (the five
//! fixed-width targets at their width, `sve`/`rvv` at 128, 512 and 2048
//! bits) × (`SplitVectorOpt`, `NativeVector`, `NativeScalar`). The
//! schedule is a sequence of rounds, each a seed-drawn permutation of the
//! whole matrix, and only whole rounds are measured: request latencies
//! span three orders of magnitude, so a partial round would make the
//! median depend on which tuples it happened to reach. After every
//! `WARM_BATCH` requests the client times one warm compile of each of
//! their tuples on a fresh engine (`common::warm_compile`), so warm
//! compiles are sampled across the whole window; batching keeps all but
//! the first of each batch from starting in caches a Full-scale request
//! has just swept.
//!
//! The suite is deployed to an artifact store before set-up (untimed,
//! see `common::publish`); each set-up starts a fresh engine on that
//! store, compiles every tuple through it (artifact loads, no offline
//! stage), specializes every VLA tuple and fills the arena pool, so no
//! compile layer is on the request path.

use std::path::PathBuf;
use std::time::Instant;

use vapor_core::{CompileConfig, Engine, ExecRequest, Flow};
use vapor_kernels::Scale;
use vapor_targets::TargetDesc;

use crate::common::{self, geomean, guarded, Args, Case, Published, Report, Rng};
use crate::replay::{self, Live, ReplayTuple};
use crate::stats::Summary;
use crate::trace::{self, Tracer};

/// Set-ups before the timed window, and again after it.
const SETUP_REPS: usize = 2;
const FLOWS: [Flow; 3] = [Flow::SplitVectorOpt, Flow::NativeVector, Flow::NativeScalar];
const VLA_BITS: [usize; 3] = [128, 512, 2048];
/// Requests between warm-compile batches, and the batch size.
const WARM_BATCH: usize = 32;

#[derive(Clone, Copy)]
struct Tuple {
    case: usize,
    target: usize,
    vl: usize,
    flow: Flow,
}

struct State {
    cases: Vec<Case>,
    targets: Vec<(&'static str, TargetDesc)>,
    /// (case, target, flow) in canonical order.
    compiles: Vec<(usize, usize, Flow)>,
    /// Laid out per kernel, flow-major: split, native, scalar, each over
    /// the same configurations.
    tuples: Vec<Tuple>,
    engine: Engine,
    store: PathBuf,
}

/// The compile tuples and the execution matrix over `n_cases` kernels.
fn matrix(
    n_cases: usize,
    targets: &[(&'static str, TargetDesc)],
) -> (Vec<(usize, usize, Flow)>, Vec<Tuple>) {
    let mut configs = Vec::new();
    for (t, (_, target)) in targets.iter().enumerate() {
        if target.vla {
            configs.extend(VLA_BITS.iter().map(|&vl| (t, vl)));
        } else {
            configs.push((t, target.vs * 8));
        }
    }
    let mut compiles = Vec::new();
    let mut tuples = Vec::new();
    for case in 0..n_cases {
        for &flow in &FLOWS {
            compiles.extend((0..targets.len()).map(|t| (case, t, flow)));
            tuples.extend(configs.iter().map(|&(target, vl)| Tuple {
                case,
                target,
                vl,
                flow,
            }));
        }
    }
    (compiles, tuples)
}

fn setup(store: &Published) -> State {
    let cases = common::cases(Scale::Full);
    let targets = common::targets();
    let (compiles, tuples) = matrix(cases.len(), &targets);
    let engine = Engine::builder()
        .artifact_dir(&store.dir)
        .build()
        .expect("artifact store opens");
    let cfg = CompileConfig::default();
    for &(c, t, flow) in &compiles {
        engine
            .compile(&cases[c].kernel, flow, &targets[t].1, &cfg)
            .unwrap_or_else(|e| panic!("set-up compile of {}: {e}", cases[c].spec.name));
    }
    for tu in &tuples {
        engine
            .specialize(
                &cases[tu.case].kernel,
                tu.flow,
                &targets[tu.target].1,
                &cfg,
                tu.vl,
            )
            .unwrap_or_else(|e| panic!("set-up specialize of {}: {e}", cases[tu.case].spec.name));
    }
    let first = &cases[0];
    engine
        .execute(&ExecRequest::new(&first.kernel, &targets[0].1, &first.env))
        .expect("warm-up request runs");
    State {
        cases,
        targets,
        compiles,
        tuples,
        engine,
        store: store.dir.clone(),
    }
}

/// Per-tuple (cycles, insts) observed so far; a second observation must
/// repeat the first exactly.
type Matrix = Vec<Option<(u64, u64)>>;

/// Execute tuple `i` as request `req`, check it, and record its exact
/// counts. Returns the request latency in µs when it succeeded.
fn request(
    st: &State,
    i: usize,
    req: u64,
    tr: &mut Tracer,
    m: &mut Matrix,
    report: &mut Report,
) -> Option<f64> {
    let tu = st.tuples[i];
    let case = &st.cases[tu.case];
    let (tname, target) = &st.targets[tu.target];
    let rq = ExecRequest::new(&case.kernel, target, &case.env)
        .flow(tu.flow)
        .vl_bits(tu.vl);
    let t0 = Instant::now();
    let r = guarded(|| tr.span("core.execute", req, |_| st.engine.execute(&rq)));
    let us = t0.elapsed().as_secs_f64() * 1e6;
    report.attempted += 1;
    let what = format!("{} [{} on {tname}@{}]", case.spec.name, tu.flow, tu.vl);
    let out = match r.and_then(|r| r.map_err(|e| e.to_string())) {
        Ok(o) => o,
        Err(e) => {
            report.fail(format!("{what}: {e}"));
            return None;
        }
    };
    if let Err(e) = case.check(&out.out) {
        report.fail(format!("{what}: {e}"));
        return None;
    }
    let seen = (out.stats.cycles, out.stats.insts);
    match m[i] {
        None => m[i] = Some(seen),
        Some(first) if first != seen => {
            report.fail(format!(
                "{what}: vm_cycles/insts {seen:?} differ from {first:?}"
            ));
            return None;
        }
        Some(_) => {}
    }
    Some(us)
}

/// Latencies of the timed rounds, in the order taken.
#[derive(Default)]
struct Rounds {
    lat: Vec<f64>,
    /// (tuple, latency) of every untraced and every traced request
    /// (traced runs only).
    plain_by_tuple: Vec<(usize, f64)>,
    traced_by_tuple: Vec<(usize, f64)>,
    /// Warm compile latencies.
    warm: Vec<f64>,
    rounds: usize,
}

/// Whole rounds for about `seconds`: another round starts while less
/// than half a round's time would be left over. With `alternate`,
/// every other request runs with `tr` recording (at least two rounds).
fn timed(
    st: &State,
    a: &Args,
    seconds: f64,
    tr: &mut Tracer,
    alternate: bool,
    m: &mut Matrix,
    report: &mut Report,
) -> Rounds {
    let mut rng = Rng::new(a.seed);
    let mut r = Rounds::default();
    let mut order: Vec<usize> = (0..st.tuples.len()).collect();
    let min_rounds = if alternate { 2 } else { 1 };
    let start = Instant::now();
    let more = |r: &Rounds| {
        let elapsed = start.elapsed().as_secs_f64();
        r.rounds < min_rounds || elapsed + elapsed / r.rounds as f64 / 2.0 < seconds
    };
    while more(&r) {
        rng.shuffle(&mut order);
        for (pos, &i) in order.iter().enumerate() {
            let req = (r.rounds * order.len() + pos) as u64;
            tr.set_enabled(alternate && req % 2 == 1);
            let Some(us) = tr.span("run_full.request", req, |tr| {
                request(st, i, req, tr, m, report)
            }) else {
                continue;
            };
            if !alternate {
                r.lat.push(us);
            } else if tr.enabled() {
                r.traced_by_tuple.push((i, us));
            } else {
                r.plain_by_tuple.push((i, us));
            }
            if (pos + 1) % WARM_BATCH == 0 {
                for &j in &order[pos + 1 - WARM_BATCH..=pos] {
                    let tu = st.tuples[j];
                    let case = &st.cases[tu.case];
                    let target = &st.targets[tu.target].1;
                    report.attempted += 1;
                    let w = tr.span("warm_compile", req, |_| {
                        guarded(|| {
                            common::warm_compile(&st.store, case.spec.source, tu.flow, target)
                        })
                    });
                    match w.and_then(|w| w) {
                        Ok(us) => r.warm.push(us),
                        Err(e) => report.fail(e),
                    }
                }
            }
        }
        r.rounds += 1;
    }
    tr.set_enabled(alternate);
    r
}

/// Every this many tuples, one is executed again after the timed
/// window, so a run repeats some of its exact counts even when the
/// window held only one round.
const RECHECK_STRIDE: usize = 16;

/// The modeled geomeans and exact `vm_*` sums over the whole matrix
/// (every tuple ran in the timed rounds), after re-executing every
/// `RECHECK_STRIDE`-th tuple against its recorded counts.
fn modeled(st: &State, m: &mut Matrix, report: &mut Report) -> (f64, f64, u64, u64) {
    if m.iter().any(Option::is_none) {
        report.problem("some tuples of the matrix never completed".into());
    }
    for i in (0..st.tuples.len()).step_by(RECHECK_STRIDE) {
        request(st, i, u64::MAX, &mut Tracer::disabled(), m, report);
    }
    let per_flow = st.tuples.len() / st.cases.len() / FLOWS.len();
    let (mut vec_speedup, mut split_vs_native) = (Vec::new(), Vec::new());
    for c in 0..st.cases.len() {
        for k in 0..per_flow {
            let at = |f: usize| m[(c * FLOWS.len() + f) * per_flow + k].map(|x| x.0);
            if let (Some(split), Some(native), Some(scalar)) = (at(0), at(1), at(2)) {
                vec_speedup.push(scalar as f64 / split as f64);
                split_vs_native.push(native as f64 / split as f64);
            }
        }
    }
    let insts = m.iter().flatten().map(|x| x.1).sum();
    let cycles = m.iter().flatten().map(|x| x.0).sum();
    (
        geomean(&vec_speedup),
        geomean(&split_vs_native),
        insts,
        cycles,
    )
}

/// Tracing overhead: the median over tuples served both traced and
/// untraced of the latency difference. Which round a tuple was traced in
/// is random, so drift between rounds cancels in the median, and pairing
/// by tuple removes the three-orders-of-magnitude spread between tuples.
fn paired_overhead_us(r: &Rounds, n_tuples: usize) -> f64 {
    let mut plain = vec![None; n_tuples];
    for &(i, us) in &r.plain_by_tuple {
        plain[i].get_or_insert(us);
    }
    let mut diffs: Vec<f64> = r
        .traced_by_tuple
        .iter()
        .filter_map(|&(i, us)| plain[i].map(|p| us - p))
        .collect();
    crate::stats::median(&mut diffs)
}

pub fn run(a: &Args) -> Report {
    let mut report = Report::default();
    let targets = common::targets();
    let kernels: Vec<_> = vapor_kernels::suite().iter().map(|s| s.kernel()).collect();
    let (compiles, _) = matrix(kernels.len(), &targets);
    let store = common::publish(
        "run_full",
        compiles
            .iter()
            .map(|&(c, t, flow)| (&kernels[c], flow, &targets[t].1)),
    );
    let mut setup_times = Vec::new();
    let st = common::repeated_setup(SETUP_REPS, &mut setup_times, || setup(&store));
    let n_compiles = st.compiles.len() as u64;
    let s = st.engine.stats();
    if s.artifact_hits != n_compiles || s.artifact_writes != 0 {
        report.problem(format!(
            "set-up: {} artifact hits and {} writes for {n_compiles} compiles",
            s.artifact_hits, s.artifact_writes
        ));
    }
    let window = st.tuples.len();
    let mut m: Matrix = vec![None; st.tuples.len()];

    if !a.trace {
        let r = timed(
            &st,
            a,
            a.seconds,
            &mut Tracer::disabled(),
            false,
            &mut m,
            &mut report,
        );
        let modeled = modeled(&st, &mut m, &mut report);
        println!("{} rounds", r.rounds);
        drop(st);
        drop(common::repeated_setup(SETUP_REPS, &mut setup_times, || {
            setup(&store)
        }));
        let ops = Summary::of(r.lat, window);
        report.end_to_end(common::EndToEnd {
            setup_times,
            ops_per_s: ops.n as f64 / (ops.sum / 1e6),
            ops,
            warm: Summary::of(r.warm, window),
            store_bytes: store.bytes,
            modeled: (modeled.0, modeled.1),
        });
        return report;
    }

    let before = st.engine.stats();
    let mut tr = Tracer::new(true, Instant::now(), 0);
    let r = timed(&st, a, a.seconds, &mut tr, true, &mut m, &mut report);
    let engine_stats = replay::delta(&st.engine.stats(), &before);
    let (_, _, vm_insts, vm_cycles) = modeled(&st, &mut m, &mut report);
    let overhead_us = paired_overhead_us(&r, st.tuples.len());

    let sve = st
        .targets
        .iter()
        .position(|(n, _)| *n == "sve")
        .expect("sve target");
    let tuples: Vec<ReplayTuple> = st
        .compiles
        .iter()
        .map(|&(c, t, flow)| {
            let target = &st.targets[t].1;
            let executed = flow == Flow::SplitVectorOpt && (t == 0 || t == sve);
            ReplayTuple {
                case: c,
                target: t,
                flow,
                vls: if target.vla {
                    VLA_BITS.to_vec()
                } else {
                    Vec::new()
                },
                exec_vl: executed.then(|| if target.vla { 512 } else { target.vs * 8 }),
            }
        })
        .collect();
    let dir = common::scratch_dir("run_full-replay");
    let counts = replay::replay(
        &mut tr,
        &st.cases,
        &st.targets,
        &tuples,
        1,
        &dir,
        &mut report,
    );
    let spans = tr.into_spans();
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
    let path = common::out_dir().join("spans-run_full.tsv");
    if let Err(e) = trace::write_spans(&path, &spans) {
        eprintln!("writing {}: {e}", path.display());
    }
    let _ = std::fs::remove_dir_all(dir);
    report
}
