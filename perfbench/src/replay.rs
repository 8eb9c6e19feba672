//! The traced replay: a workload's distinct tuples pushed through the
//! public stage function of every layer, one span per call, and the
//! per-layer metrics derived from those spans and from the workload's
//! own engine counters.
//!
//! Layers and the calls timed for them:
//!
//! | layer | calls |
//! |---|---|
//! | `frontend` | `parse_kernel` |
//! | `vectorizer` | `offline_compile` (vectorize + verify) |
//! | `bytecode` | `encode_module`, `decode_module` |
//! | `jit` | `vapor_jit::compile` (its own decode of the emitted code included) |
//! | `targets` | `DecodedProgram::{decode, respecialize}`, `ThreadedProgram::thread`, execution per tier |
//! | `core` | `Engine::{compile, specialize, thread, execute}`, `ArtifactStore::{save, load}` |

use std::collections::BTreeMap;
use std::path::Path;

use vapor_bytecode::{decode_module, encode_module};
use vapor_core::{
    offline_compile, ArtifactStore, CompileConfig, Engine, EngineStats, ExecRequest, Flow, Tier,
};
use vapor_jit::{JitOptions, Pipeline};
use vapor_targets::{DecodedProgram, TargetDesc, ThreadedProgram};

use crate::common::{Case, Report};
use crate::stats::median;
use crate::trace::{mean_self_us, self_times, Span, Tracer};

/// One distinct compile tuple of a workload.
pub struct ReplayTuple {
    pub case: usize,
    pub target: usize,
    pub flow: Flow,
    /// Runtime VLs whose execution forms the workload uses (VLA targets).
    pub vls: Vec<usize>,
    /// Execute the tuple at this VL on every tier (`None`: not executed).
    pub exec_vl: Option<usize>,
}

/// Exact counts gathered by the replay.
#[derive(Default)]
pub struct Counts {
    pub encoded_bytes: u64,
    pub identical_across_targets: u64,
    pub loops_vectorized: u64,
    pub loops_scalar: u64,
    pub static_insts: u64,
    pub groups_vector: u64,
    pub groups_scalar: u64,
    pub guards_runtime: u64,
    pub helper_calls: u64,
    pub fused_steps: u64,
    pub streamed_loops: u64,
    /// Dynamic instructions of one execution of each executed tuple,
    /// summed per `exec_span` name.
    insts: BTreeMap<&'static str, u64>,
}

/// Request ids of the replay start here, clear of the ids the timed
/// workload gives its own operations.
const REPLAY_REQ_BASE: u64 = 1 << 50;

const TIERS: [Tier; 3] = [Tier::Baseline, Tier::Decoded, Tier::Threaded];

fn exec_span(tier: Tier, media: bool) -> &'static str {
    match (tier, media) {
        (Tier::Baseline, true) => "core.execute.baseline.media",
        (Tier::Baseline, false) => "core.execute.baseline.polybench",
        (Tier::Decoded, true) => "core.execute.decoded.media",
        (Tier::Decoded, false) => "core.execute.decoded.polybench",
        (Tier::Threaded, true) => "core.execute.threaded.media",
        (Tier::Threaded, false) => "core.execute.threaded.polybench",
    }
}

/// Replay `tuples` through every layer. Executions run `exec_reps`
/// timed times per tier after one untimed warm-up (the per-layer
/// execution figures use each tuple's median), and every output is
/// checked against the oracle.
pub fn replay(
    tr: &mut Tracer,
    cases: &[Case],
    targets: &[(&'static str, TargetDesc)],
    tuples: &[ReplayTuple],
    exec_reps: usize,
    store_dir: &Path,
    report: &mut Report,
) -> Counts {
    let cfg = CompileConfig::default();
    let engine = Engine::new();
    let store = ArtifactStore::open(store_dir).expect("replay artifact store opens");
    let mut c = Counts::default();
    let mut split_bytes: Vec<Vec<Vec<u8>>> = vec![Vec::new(); cases.len()];
    for (i, t) in tuples.iter().enumerate() {
        let req = REPLAY_REQ_BASE + i as u64;
        let case = &cases[t.case];
        let (tname, target) = &targets[t.target];
        let what = format!("{} [{} on {tname}]", case.spec.name, t.flow);
        let r = tr.span("replay.tuple", req, |tr| -> Result<(), String> {
            let kernel = tr
                .span("frontend.parse", req, |_| {
                    vapor_frontend::parse_kernel(case.spec.source)
                })
                .map_err(|e| e.to_string())?;
            let (module, reports) = tr
                .span("vectorizer.offline", req, |_| {
                    offline_compile(&kernel, t.flow, target, &cfg)
                })
                .map_err(|e| e.to_string())?;
            for r in &reports {
                if r.vectorized {
                    c.loops_vectorized += 1;
                } else {
                    c.loops_scalar += 1;
                }
            }
            let bytes = tr.span("bytecode.encode", req, |_| encode_module(&module));
            c.encoded_bytes += bytes.len() as u64;
            if t.flow == Flow::SplitVectorOpt {
                split_bytes[t.case].push(bytes.clone());
            }
            // Native flows keep the in-memory module, as the pipeline does.
            let module = if t.flow.pipeline() == Pipeline::Native {
                module
            } else {
                tr.span("bytecode.decode", req, |_| decode_module(&bytes))
                    .map_err(|e| e.to_string())?
            };
            let func = module.funcs.first().ok_or("empty bytecode module")?;
            let ck = tr
                .span("jit.lower", req, |_| {
                    vapor_jit::compile(func, target, &JitOptions::new(t.flow.pipeline()))
                })
                .map_err(|e| e.to_string())?;
            c.static_insts += ck.stats.insts as u64;
            c.groups_vector += ck.stats.groups_vector as u64;
            c.groups_scalar += (ck.stats.groups_direct_scalar + ck.stats.groups_tail_scalar) as u64;
            c.guards_runtime += ck.stats.guards_runtime as u64;
            c.helper_calls += ck.stats.helper_calls as u64;
            let dec = tr
                .span("targets.decode", req, |_| {
                    DecodedProgram::decode(&ck.code, target)
                })
                .map_err(|e| e.to_string())?;
            c.fused_steps += dec.fusion_stats().total() as u64;
            if target.vla {
                for &vl in &t.vls {
                    let at = target.at_vl(vl);
                    let p = tr
                        .span("targets.respecialize", req, |_| {
                            dec.respecialize(&ck.code, &at)
                        })
                        .map_err(|e| e.to_string())?;
                    let th = tr.span("targets.thread", req, |_| {
                        ThreadedProgram::thread(&p, &ck.code)
                    });
                    c.streamed_loops += th.streamed_loops() as u64;
                }
            } else {
                let th = tr.span("targets.thread", req, |_| {
                    ThreadedProgram::thread(&dec, &ck.code)
                });
                c.streamed_loops += th.streamed_loops() as u64;
            }

            // The replay's store is fresh, so the tuple index is a unique id.
            let id = i as u128;
            tr.span("core.artifact_save", req, |_| store.save(id, &bytes))
                .map_err(|e| format!("artifact save: {e}"))?;
            let loaded = tr
                .span("core.artifact_load", req, |_| store.load(id))
                .map_err(|e| e.to_string())?;
            if loaded.as_deref() != Some(&bytes[..]) {
                return Err("artifact store returned different bytes".into());
            }

            for name in ["core.compile_miss", "core.compile_hit"] {
                tr.span(name, req, |_| engine.compile(&kernel, t.flow, target, &cfg))
                    .map_err(|e| e.to_string())?;
            }
            let vls: Vec<usize> = if target.vla {
                t.vls.clone()
            } else {
                vec![target.vs * 8]
            };
            for &vl in &vls {
                // Fixed-width targets return their baked decode without a
                // cache entry, so only VLA specializations are timed.
                if target.vla {
                    for name in ["core.specialize_miss", "core.specialize_hit"] {
                        tr.span(name, req, |_| {
                            engine.specialize(&kernel, t.flow, target, &cfg, vl)
                        })
                        .map_err(|e| e.to_string())?;
                    }
                }
                for name in ["core.thread_miss", "core.thread_hit"] {
                    tr.span(name, req, |_| {
                        engine.thread(&kernel, t.flow, target, &cfg, vl)
                    })
                    .map_err(|e| e.to_string())?;
                }
            }

            if let Some(vl) = t.exec_vl {
                for tier in TIERS {
                    let rq = ExecRequest::new(&kernel, target, &case.env)
                        .flow(t.flow)
                        .tier(tier)
                        .vl_bits(vl);
                    engine.execute(&rq).map_err(|e| format!("{tier:?}: {e}"))?;
                    let name = exec_span(tier, case.media());
                    for rep in 0..exec_reps {
                        let out = tr
                            .span(name, req, |_| engine.execute(&rq))
                            .map_err(|e| format!("{tier:?}: {e}"))?;
                        case.check(&out.out).map_err(|e| format!("{tier:?}: {e}"))?;
                        if rep == 0 {
                            *c.insts.entry(name).or_default() += out.stats.insts;
                        }
                    }
                }
            }
            Ok(())
        });
        report.attempted += 1;
        if let Err(e) = r {
            report.fail(format!("replay {what}: {e}"));
        }
    }
    c.identical_across_targets = split_bytes
        .iter()
        .filter(|v| v.len() > 1 && v.iter().all(|b| *b == v[0]))
        .count() as u64;
    c
}

/// Workload-side numbers the per-layer metrics need besides the replay.
pub struct Live {
    /// The serving engine's counters over the timed window (`deploy`:
    /// the last warm engine, after the execution check).
    pub engine: EngineStats,
    /// Compiles of the deployment that ran the offline stage.
    pub vectorizer_calls: u64,
    pub artifact_hits: u64,
    pub artifact_writes: u64,
    pub artifact_rejects: u64,
    /// Exact sums over the workload's modeled `vm_cycles` matrix.
    pub vm_insts: u64,
    pub vm_cycles: u64,
    /// Traced minus untraced p50 of the workload's own operations.
    pub overhead_us: f64,
}

/// The counters `after` accumulated since `before` (the gauges are
/// taken from `after`).
pub fn delta(after: &EngineStats, before: &EngineStats) -> EngineStats {
    EngineStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        evictions: after.evictions - before.evictions,
        exec_evictions: after.exec_evictions - before.exec_evictions,
        contended_locks: after.contended_locks - before.contended_locks,
        compile_ns: after.compile_ns - before.compile_ns,
        artifact_hits: after.artifact_hits - before.artifact_hits,
        artifact_misses: after.artifact_misses - before.artifact_misses,
        artifact_rejects: after.artifact_rejects - before.artifact_rejects,
        artifact_writes: after.artifact_writes - before.artifact_writes,
        pool_reuses: after.pool_reuses - before.pool_reuses,
        pool_allocs: after.pool_allocs - before.pool_allocs,
        ..*after
    }
}

/// Sum over requests of each request's median duration of the spans
/// named `name` (leaf spans), with the number of requests.
fn median_per_request(spans: &[Span], name: &str) -> (f64, usize) {
    let mut by_req: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == name) {
        by_req
            .entry(s.req)
            .or_default()
            .push((s.end_ns - s.start_ns) as f64);
    }
    let n = by_req.len();
    (by_req.into_values().map(|mut v| median(&mut v)).sum(), n)
}

/// Emit every per-layer metric, the same set for every workload.
pub fn emit(report: &mut Report, spans: &[Span], c: &Counts, live: &Live) {
    let t = self_times(spans);
    let us = |name: &str| mean_self_us(&t, name);
    let ns_per_inst = |tier: Tier, media: bool| {
        let name = exec_span(tier, media);
        match (median_per_request(spans, name).0, c.insts.get(name)) {
            (ns, Some(&insts)) if insts > 0 => ns / insts as f64,
            _ => 0.0,
        }
    };
    let exec_us = |media: bool| match median_per_request(spans, exec_span(Tier::Decoded, media)) {
        (ns, n) if n > 0 => ns / n as f64 / 1e3,
        _ => 0.0,
    };
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };

    report.metric("frontend.parse_us", us("frontend.parse"), "us");
    report.metric("vectorizer.offline_us", us("vectorizer.offline"), "us");
    report.metric("vectorizer.calls", live.vectorizer_calls as f64, "count");
    report.metric(
        "vectorizer.loops_vectorized",
        c.loops_vectorized as f64,
        "count",
    );
    report.metric("vectorizer.loops_scalar", c.loops_scalar as f64, "count");
    report.metric("bytecode.encode_us", us("bytecode.encode"), "us");
    report.metric("bytecode.decode_us", us("bytecode.decode"), "us");
    report.metric("bytecode.encoded_bytes", c.encoded_bytes as f64, "bytes");
    report.metric(
        "bytecode.identical_across_targets",
        c.identical_across_targets as f64,
        "count",
    );
    report.metric("jit.lower_us", us("jit.lower"), "us");
    report.metric("jit.static_insts", c.static_insts as f64, "count");
    report.metric("jit.groups_vector", c.groups_vector as f64, "count");
    report.metric("jit.groups_scalar", c.groups_scalar as f64, "count");
    report.metric("jit.guards_runtime", c.guards_runtime as f64, "count");
    report.metric("jit.helper_calls", c.helper_calls as f64, "count");
    report.metric("targets.decode_us", us("targets.decode"), "us");
    report.metric("targets.respecialize_us", us("targets.respecialize"), "us");
    report.metric("targets.thread_us", us("targets.thread"), "us");
    for (tier, tname) in [
        (Tier::Baseline, "baseline"),
        (Tier::Decoded, "decoded"),
        (Tier::Threaded, "threaded"),
    ] {
        for (media, class) in [(true, "media"), (false, "polybench")] {
            report.metric(
                &format!("targets.ns_per_inst.{tname}.{class}"),
                ns_per_inst(tier, media),
                "ns/inst",
            );
        }
    }
    report.metric("targets.vm_insts", live.vm_insts as f64, "count");
    report.metric("targets.vm_cycles", live.vm_cycles as f64, "count");
    report.metric("targets.fused_steps", c.fused_steps as f64, "count");
    report.metric("targets.streamed_loops", c.streamed_loops as f64, "count");
    report.metric("core.compile_hit_us", us("core.compile_hit"), "us");
    report.metric("core.compile_miss_us", us("core.compile_miss"), "us");
    report.metric("core.specialize_hit_us", us("core.specialize_hit"), "us");
    report.metric("core.specialize_miss_us", us("core.specialize_miss"), "us");
    report.metric("core.thread_hit_us", us("core.thread_hit"), "us");
    report.metric("core.thread_miss_us", us("core.thread_miss"), "us");
    let exec_media = exec_us(true);
    report.metric("core.execute_us.media", exec_media, "us");
    report.metric("core.execute_us.polybench", exec_us(false), "us");
    let e = &live.engine;
    report.metric("core.hit_ratio", ratio(e.hits, e.hits + e.misses), "ratio");
    report.metric("core.exec_evictions", e.exec_evictions as f64, "count");
    report.metric("core.contended_locks", e.contended_locks as f64, "count");
    report.metric(
        "core.pool_reuse_ratio",
        ratio(e.pool_reuses, e.pool_reuses + e.pool_allocs),
        "ratio",
    );
    report.metric("core.artifact_load_us", us("core.artifact_load"), "us");
    report.metric("core.artifact_save_us", us("core.artifact_save"), "us");
    report.metric("core.artifact_hits", live.artifact_hits as f64, "count");
    report.metric("core.artifact_writes", live.artifact_writes as f64, "count");
    report.metric(
        "core.artifact_rejects",
        live.artifact_rejects as f64,
        "count",
    );
    report.metric("trace.overhead_us", live.overhead_us, "us");
    report.metric("trace.spans", spans.len() as f64, "count");
    // The baseline findings later issues cite by name.
    let hit = us("core.compile_hit");
    report.metric(
        "finding.compile_hit_share_of_execute_media",
        if exec_media > 0.0 {
            hit / exec_media
        } else {
            0.0
        },
        "ratio",
    );
    let dec = ns_per_inst(Tier::Decoded, true);
    report.metric(
        "finding.threaded_over_decoded_ns_per_inst_media",
        if dec > 0.0 {
            ns_per_inst(Tier::Threaded, true) / dec
        } else {
            0.0
        },
        "ratio",
    );
}
