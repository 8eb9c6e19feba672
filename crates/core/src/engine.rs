//! The compilation engine: a persistent, thread-safe service wrapping
//! the end-to-end pipeline behind a sharded, content-addressed cache.
//!
//! The paper's story is "vectorize once, run everywhere": the offline
//! artifact is produced once and consumed by many online consumers. The
//! seed reproduction instead recompiled every (kernel, flow, target)
//! tuple from scratch on every call — fine for generating one figure,
//! hopeless for a service. [`Engine`] gives the repo the shape the
//! related retargeting systems (Revec, SIMD-everywhere) have: a
//! translation step that is computed once per distinct input and then
//! shared — and, since the multi-tenant rework, served concurrently:
//!
//! * **Content-addressed**: the cache key is a structural fingerprint
//!   of the kernel (its `Hash` stream through a seedless 128-bit
//!   hasher) plus the [`Flow`], a fingerprint of the full target, and
//!   the [`CompileConfig`]. The kernel fingerprint covers its exact IR,
//!   declaration order (and so variable numbering) included: reformatted
//!   source parses to the same IR and hits, but two kernels that print
//!   alike while numbering their variables differently (a builder-made
//!   kernel that declares a local after a loop variable, versus the
//!   reparse of its print, which hoists locals) are separate entries.
//!   A request computes its key once and carries it through every cache
//!   tier it touches.
//! * **Sharded**: the compile cache is split N ways by key hash
//!   ([`EngineBuilder::shards`]); concurrent compiles and cache hits on
//!   different shards never touch the same lock. Contended lock
//!   acquisitions are counted ([`EngineStats::contended_locks`]) so the
//!   sharding win is *measurable*, not folklore.
//! * **Bounded**: every tier (compile, per-VL decode, threaded,
//!   unfused) evicts least-recently-used entries at its configured
//!   capacity, with evictions counted per tier.
//! * **Pooled execution**: [`Engine::execute`] recycles machine memory
//!   arenas through a bounded pool, so steady-state concurrent
//!   executions stop allocating megabytes per request.
//! * **Persistent**: with an artifact store attached
//!   ([`EngineBuilder::artifact_dir`]), compile misses first consult an
//!   on-disk store of encoded offline artifacts keyed by the content
//!   hash; a warm process (or a fleet member sharing the directory)
//!   skips the offline stage and pays only the online compile. Corrupt
//!   or truncated artifacts are rejected by checksum and recompiled.
//! * **Deduplicated**: racing compilations of the same key wait on the
//!   first compiler (per-shard in-flight sets) so a thundering herd
//!   runs the pipeline once, and every caller observes one canonical
//!   `Arc` per key.

use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, TryLockError};
use std::time::Instant;

use vapor_ir::Kernel;
use vapor_targets::{DecodedProgram, TargetDesc, ThreadedProgram};

use crate::artifact::ArtifactStore;
use crate::pipeline::{self, CompileConfig, Compiled, Flow, PipelineError};
use crate::stable_hash::fingerprint;

/// Cache key: kernel content fingerprint + everything else that affects
/// the generated code.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct CacheKey {
    /// Stable 128-bit hash of the kernel's exact IR (names,
    /// declarations in declaration order, body with variables by
    /// number; float literals by bit pattern). Source formatting does
    /// not reach the IR, so it does not reach the key; declaration
    /// order does.
    kernel_fp: u128,
    flow: Flow,
    /// Stable 128-bit hash of every `TargetDesc` field, cost and port
    /// tables included. `TargetDesc` is a plain pub-field struct, so
    /// keying on the name alone would let a caller-customized target
    /// (same name, different cost table or feature flags) silently
    /// share entries with the stock one.
    target_fp: u128,
    cfg: CompileConfig,
}

impl CacheKey {
    fn new(kernel: &Kernel, flow: Flow, target: &TargetDesc, cfg: &CompileConfig) -> CacheKey {
        #[cfg(test)]
        tests::KEYS_BUILT.with(|n| n.set(n.get() + 1));
        CacheKey {
            kernel_fp: fingerprint(kernel),
            flow,
            target_fp: fingerprint(target),
            cfg: cfg.clone(),
        }
    }

    /// The stable 128-bit identity of this key for the on-disk artifact
    /// store (filenames must not depend on in-process hasher state).
    fn artifact_id(&self) -> u128 {
        fingerprint(self)
    }

    /// Which of `n` shards this key lives in.
    fn shard(&self, n: usize) -> usize {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.hash(&mut h);
        (h.finish() % n as u64) as usize
    }
}

/// One request's compile tuple, held as its cache key plus the two
/// borrowed inputs the key only fingerprints (the flow and config live
/// in the key itself). The key is computed once, when the tuple is
/// formed, and every cache tier the request touches (compile, VL
/// specialization, threading, unfused decode) reuses it.
pub(crate) struct Keyed<'a> {
    kernel: &'a Kernel,
    target: &'a TargetDesc,
    key: CacheKey,
}

impl<'a> Keyed<'a> {
    pub(crate) fn new(
        kernel: &'a Kernel,
        flow: Flow,
        target: &'a TargetDesc,
        cfg: &'a CompileConfig,
    ) -> Keyed<'a> {
        Keyed {
            kernel,
            target,
            key: CacheKey::new(kernel, flow, target, cfg),
        }
    }

    /// The execution-tier key: the compile key plus the runtime VL.
    fn at_vl(&self, vl_bits: usize) -> (CacheKey, u32) {
        (self.key.clone(), vl_bits as u32)
    }
}

/// One compilation request for [`Engine::compile_batch`].
#[derive(Debug, Clone)]
pub struct CompileJob<'a> {
    /// Kernel to compile.
    pub kernel: &'a Kernel,
    /// Compilation flow.
    pub flow: Flow,
    /// Target machine.
    pub target: &'a TargetDesc,
    /// Compilation knobs.
    pub cfg: CompileConfig,
}

impl<'a> CompileJob<'a> {
    /// A job with default config.
    pub fn new(kernel: &'a Kernel, flow: Flow, target: &'a TargetDesc) -> CompileJob<'a> {
        CompileJob {
            kernel,
            flow,
            target,
            cfg: CompileConfig::default(),
        }
    }
}

/// Counters of the engine's cache, artifact-tier, and pool behavior.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineStats {
    /// Compilations answered from the in-memory cache.
    pub hits: u64,
    /// Compilations that missed the in-memory cache (they ran the
    /// online stage at least; with an artifact hit they skipped the
    /// offline stage).
    pub misses: u64,
    /// Entries currently cached across all shards.
    pub entries: usize,
    /// Compile-cache shard count.
    pub shards: usize,
    /// Compiled entries evicted (LRU) across all shards.
    pub evictions: u64,
    /// Execution-form entries evicted (LRU) across the per-VL decode,
    /// threaded, and unfused caches.
    pub exec_evictions: u64,
    /// Shard-map lock acquisitions that found the lock held (the
    /// contention the sharding exists to kill; compare shards=1 vs
    /// shards=N under identical load).
    pub contended_locks: u64,
    /// Total nanoseconds spent compiling on the miss path (divide by
    /// `misses` for the mean compile latency).
    pub compile_ns: u64,
    /// Misses served from the on-disk artifact store (offline stage
    /// skipped).
    pub artifact_hits: u64,
    /// Misses that found no artifact on disk.
    pub artifact_misses: u64,
    /// Artifacts present but rejected (bad magic/truncation/checksum or
    /// undecodable payload) and recompiled from source.
    pub artifact_rejects: u64,
    /// Artifacts written to the store.
    pub artifact_writes: u64,
    /// Runtime-VL execution specializations currently cached (the VL
    /// dimension exists only here, never in the compile cache).
    pub vl_entries: usize,
    /// Closure-threaded execution programs currently cached (the tier
    /// below the decoded programs; see [`Engine::thread`]).
    pub threaded_entries: usize,
    /// Executions that reused a pooled memory arena.
    pub pool_reuses: u64,
    /// Executions that allocated a fresh arena (pool empty).
    pub pool_allocs: u64,
}

/// Default bound on the per-VL decode cache. VL specializations are
/// cheap to rebuild (a re-specialization of the shared decode, not a
/// compile), so the cache is a small LRU rather than an unbounded map —
/// a service cycling through many (kernel, VL) pairs must not grow
/// without limit.
pub const VL_CACHE_CAPACITY: usize = 64;

/// Default compile-cache shard count.
pub const DEFAULT_SHARDS: usize = 8;

/// Default bound on cached compilations (total, across shards).
pub const COMPILE_CACHE_CAPACITY: usize = 4096;

/// Default bound on pooled execution arenas.
pub const ARENA_POOL_CAPACITY: usize = 8;

/// A tiny LRU map: a `HashMap` plus a monotone use-stamp per entry.
/// Lookups are O(1); the eviction scan is O(n) over at most `cap`
/// entries, which at the capacities used here (tens to a few thousand)
/// is cheaper than maintaining an intrusive list. Generic over key and
/// value so the compile shards and the decoded/threaded/unfused
/// execution tiers share one implementation.
#[derive(Debug)]
struct Lru<K, V> {
    map: HashMap<K, (Arc<V>, u64)>,
    tick: u64,
    cap: usize,
    evictions: u64,
}

impl<K: Eq + Hash + Clone, V> Lru<K, V> {
    fn new(cap: usize) -> Lru<K, V> {
        Lru {
            map: HashMap::new(),
            tick: 0,
            cap: cap.max(1),
            evictions: 0,
        }
    }

    fn get(&mut self, key: &K) -> Option<Arc<V>> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(key).map(|(v, stamp)| {
            *stamp = tick;
            Arc::clone(v)
        })
    }

    /// Insert, evicting the least-recently-used entry when full. Like
    /// `entry().or_insert()`, a racing earlier insert wins: the caller
    /// gets the canonical `Arc`.
    fn insert(&mut self, key: K, value: Arc<V>) -> Arc<V> {
        self.tick += 1;
        if let Some((v, stamp)) = self.map.get_mut(&key) {
            *stamp = self.tick;
            return Arc::clone(v);
        }
        while self.map.len() >= self.cap {
            let lru = self
                .map
                .iter()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(k, _)| k.clone());
            match lru {
                Some(k) => {
                    self.map.remove(&k);
                    self.evictions += 1;
                }
                None => break,
            };
        }
        self.map.insert(key, (Arc::clone(&value), self.tick));
        value
    }
}

/// One compile-cache shard: a bounded LRU of compiled artifacts plus
/// the in-flight set that deduplicates racing compilations of one key.
#[derive(Debug)]
struct Shard {
    map: Mutex<Lru<CacheKey, Compiled>>,
    /// Keys currently being compiled in this shard, so concurrent
    /// requests for the same tuple wait for the first compiler instead
    /// of duplicating the whole pipeline run.
    inflight: Mutex<HashSet<CacheKey>>,
    inflight_done: Condvar,
}

/// Configuration of an [`Engine`], built by [`Engine::builder`].
#[derive(Debug, Clone)]
pub struct EngineBuilder {
    shards: usize,
    compile_capacity: usize,
    vl_capacity: usize,
    threaded_capacity: usize,
    pool_capacity: usize,
    artifact_dir: Option<PathBuf>,
}

impl Default for EngineBuilder {
    fn default() -> EngineBuilder {
        EngineBuilder {
            shards: DEFAULT_SHARDS,
            compile_capacity: COMPILE_CACHE_CAPACITY,
            vl_capacity: VL_CACHE_CAPACITY,
            threaded_capacity: VL_CACHE_CAPACITY,
            pool_capacity: ARENA_POOL_CAPACITY,
            artifact_dir: None,
        }
    }
}

impl EngineBuilder {
    /// Compile-cache shard count (default [`DEFAULT_SHARDS`]). One
    /// shard reproduces the old single-lock cache — the A/B baseline
    /// the service benchmark measures contention against.
    pub fn shards(mut self, n: usize) -> EngineBuilder {
        self.shards = n.max(1);
        self
    }

    /// Total bound on cached compilations across all shards (default
    /// [`COMPILE_CACHE_CAPACITY`]). Each shard holds its proportional
    /// slice; LRU entries are evicted past it.
    pub fn compile_cache_capacity(mut self, cap: usize) -> EngineBuilder {
        self.compile_capacity = cap.max(1);
        self
    }

    /// Bound on the per-VL decode LRU (default [`VL_CACHE_CAPACITY`]).
    pub fn vl_cache_capacity(mut self, cap: usize) -> EngineBuilder {
        self.vl_capacity = cap.max(1);
        self
    }

    /// Bound on the closure-threaded program LRU (default
    /// [`VL_CACHE_CAPACITY`]).
    pub fn threaded_cache_capacity(mut self, cap: usize) -> EngineBuilder {
        self.threaded_capacity = cap.max(1);
        self
    }

    /// Bound on the pooled execution arenas kept for reuse (default
    /// [`ARENA_POOL_CAPACITY`]). Zero disables pooling.
    pub fn arena_pool_capacity(mut self, cap: usize) -> EngineBuilder {
        self.pool_capacity = cap;
        self
    }

    /// Attach the persistent artifact tier rooted at `dir`: compile
    /// misses consult the on-disk store before running the offline
    /// stage, and fresh offline artifacts are written back. Several
    /// engines (processes) may share one directory — that is the
    /// "simulated fleet" sharing compiles across restarts.
    pub fn artifact_dir(mut self, dir: impl Into<PathBuf>) -> EngineBuilder {
        self.artifact_dir = Some(dir.into());
        self
    }

    /// Build the engine.
    ///
    /// # Errors
    /// Fails only when an artifact directory was requested but cannot
    /// be created/opened.
    pub fn build(self) -> Result<Engine, PipelineError> {
        let artifacts = match &self.artifact_dir {
            Some(dir) => Some(
                ArtifactStore::open(dir)
                    .map_err(|e| PipelineError(format!("artifact store {}: {e}", dir.display())))?,
            ),
            None => None,
        };
        let per_shard = self.compile_capacity.div_ceil(self.shards).max(1);
        let shards = (0..self.shards)
            .map(|_| Shard {
                map: Mutex::new(Lru::new(per_shard)),
                inflight: Mutex::new(HashSet::new()),
                inflight_done: Condvar::new(),
            })
            .collect();
        Ok(Engine {
            shards,
            vl_cache: Mutex::new(Lru::new(self.vl_capacity)),
            threaded_cache: Mutex::new(Lru::new(self.threaded_capacity)),
            unfused_cache: Mutex::new(Lru::new(self.vl_capacity)),
            artifacts,
            arena_pool: Mutex::new(Vec::new()),
            pool_capacity: self.pool_capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            contended: AtomicU64::new(0),
            compile_ns: AtomicU64::new(0),
            artifact_hits: AtomicU64::new(0),
            artifact_misses: AtomicU64::new(0),
            artifact_rejects: AtomicU64::new(0),
            artifact_writes: AtomicU64::new(0),
            pool_reuses: AtomicU64::new(0),
            pool_allocs: AtomicU64::new(0),
        })
    }
}

/// A persistent compilation service. Cheap to share by reference across
/// threads (`&Engine` is `Send + Sync`); create one per process (or per
/// tenant) and route every compilation through it.
#[derive(Debug)]
pub struct Engine {
    /// The sharded compile cache (see [`EngineBuilder::shards`]).
    shards: Box<[Shard]>,
    /// Execution specializations of VLA compilations: the *same*
    /// `Arc<Compiled>` artifact, re-specialized per concrete runtime
    /// vector length. Keyed by the compile key *plus* the VL — "compile
    /// once" stays intact because the VL dimension first appears here.
    /// Bounded (LRU): see [`VL_CACHE_CAPACITY`].
    vl_cache: Mutex<Lru<(CacheKey, u32), DecodedProgram>>,
    /// Closure-threaded lowerings of specialized programs, keyed like
    /// the VL cache. Unlike decoded specializations, fixed-width
    /// entries live here too: threading is a real lowering pass (region
    /// construction, stream analysis, arena layout), not a free
    /// `Arc` clone of a baked-in artifact.
    threaded_cache: Mutex<Lru<(CacheKey, u32), ThreadedProgram>>,
    /// Unfused decodes (one step per instruction), keyed like the VL
    /// cache — the `fused(false)` execution option of
    /// [`crate::ExecRequest`], cached so fusion-ablation request storms
    /// do not re-decode per request.
    unfused_cache: Mutex<Lru<(CacheKey, u32), DecodedProgram>>,
    /// The persistent artifact tier, when attached.
    artifacts: Option<ArtifactStore>,
    /// Recycled machine memory arenas for [`Engine::execute`].
    arena_pool: Mutex<Vec<Vec<u8>>>,
    pool_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    contended: AtomicU64,
    compile_ns: AtomicU64,
    artifact_hits: AtomicU64,
    artifact_misses: AtomicU64,
    artifact_rejects: AtomicU64,
    artifact_writes: AtomicU64,
    pool_reuses: AtomicU64,
    pool_allocs: AtomicU64,
}

impl Default for Engine {
    fn default() -> Engine {
        Engine::builder()
            .build()
            .expect("default engine has no artifact dir to fail on")
    }
}

/// Removes a key from a shard's in-flight set (and wakes waiters) when
/// the compiling thread finishes — on success, error, or panic.
struct InflightGuard<'e> {
    shard: &'e Shard,
    key: CacheKey,
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        let mut inflight = self.shard.inflight.lock().expect("inflight set poisoned");
        inflight.remove(&self.key);
        self.shard.inflight_done.notify_all();
    }
}

impl Engine {
    /// An engine with the default configuration (see [`EngineBuilder`]).
    pub fn new() -> Engine {
        Engine::default()
    }

    /// Start configuring an engine: shard count, per-tier capacities,
    /// artifact-store path, arena pool.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::default()
    }

    /// **Deprecated** legacy constructor: an engine whose per-VL decode
    /// cache holds at most `cap` entries. Use
    /// `Engine::builder().vl_cache_capacity(cap).build()` — the builder
    /// also exposes shard count, compile-cache bound, and the artifact
    /// tier, none of which this constructor can reach.
    pub fn with_vl_cache_capacity(cap: usize) -> Engine {
        Engine::builder()
            .vl_cache_capacity(cap)
            .threaded_cache_capacity(cap)
            .build()
            .expect("no artifact dir to fail on")
    }

    /// Lock a shard map, counting contention: a lock found held is
    /// exactly what the sharding exists to make rare, so every blocked
    /// acquisition increments [`EngineStats::contended_locks`].
    fn lock_shard<'a>(&self, shard: &'a Shard) -> MutexGuard<'a, Lru<CacheKey, Compiled>> {
        match shard.map.try_lock() {
            Ok(g) => g,
            Err(TryLockError::WouldBlock) => {
                self.contended.fetch_add(1, Ordering::Relaxed);
                shard.map.lock().expect("engine cache poisoned")
            }
            Err(TryLockError::Poisoned(_)) => panic!("engine cache poisoned"),
        }
    }

    /// Compile through the cache: on a hit, returns the *same*
    /// `Arc<Compiled>` as every previous call with an identical
    /// (kernel content, flow, target, config) tuple.
    ///
    /// On a miss, the persistent artifact tier (when attached) is
    /// consulted first: a valid on-disk artifact skips the offline
    /// stage; an absent one triggers the full pipeline and a
    /// write-back; a corrupt one is rejected and recompiled.
    ///
    /// # Errors
    /// Propagates [`PipelineError`]s from any stage. Failures are not
    /// cached: a failing tuple re-runs the pipeline on every call (they
    /// are cheap and deterministic, and callers usually abort anyway).
    pub fn compile(
        &self,
        kernel: &Kernel,
        flow: Flow,
        target: &TargetDesc,
        cfg: &CompileConfig,
    ) -> Result<Arc<Compiled>, PipelineError> {
        self.compile_keyed(&Keyed::new(kernel, flow, target, cfg))
    }

    /// [`Engine::compile`] of a tuple whose key is already computed.
    pub(crate) fn compile_keyed(&self, job: &Keyed<'_>) -> Result<Arc<Compiled>, PipelineError> {
        let key = &job.key;
        let shard = &self.shards[key.shard(self.shards.len())];
        // Fast path + in-flight claim: either the key is cached, or we
        // become its compiler, or we wait for whoever already is (a
        // failed compile wakes waiters without filling the cache; the
        // first waiter then claims the key and retries).
        loop {
            if let Some(hit) = self.lock_shard(shard).get(key) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(hit);
            }
            let mut inflight = shard.inflight.lock().expect("inflight set poisoned");
            if !inflight.contains(key) {
                inflight.insert(key.clone());
                break;
            }
            let _unused = shard
                .inflight_done
                .wait(inflight)
                .expect("inflight set poisoned");
        }
        let _guard = InflightGuard {
            shard,
            key: key.clone(),
        };

        self.misses.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let compiled = Arc::new(self.compile_miss(job)?);
        self.compile_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        Ok(self.lock_shard(shard).insert(key.clone(), compiled))
    }

    /// [`Engine::compile_keyed`], then the check that the target can
    /// run at `vl_bits` (the compile error wins when both fail).
    pub(crate) fn compile_at_vl(
        &self,
        job: &Keyed<'_>,
        vl_bits: usize,
    ) -> Result<Arc<Compiled>, PipelineError> {
        let compiled = self.compile_keyed(job)?;
        check_vl(job.target, vl_bits)?;
        Ok(compiled)
    }

    /// The miss path: artifact tier first (when attached), full
    /// pipeline otherwise, with write-back of fresh offline artifacts.
    fn compile_miss(&self, job: &Keyed<'_>) -> Result<Compiled, PipelineError> {
        let (kernel, target) = (job.kernel, job.target);
        let (flow, cfg) = (job.key.flow, &job.key.cfg);
        let Some(store) = &self.artifacts else {
            return pipeline::compile(kernel, flow, target, cfg);
        };
        let id = job.key.artifact_id();
        match store.load(id) {
            Ok(Some(bytes)) => {
                match pipeline::online_compile(&kernel.name, &bytes, flow, target) {
                    Ok(c) => {
                        self.artifact_hits.fetch_add(1, Ordering::Relaxed);
                        return Ok(c);
                    }
                    // Framed and checksummed but undecodable (e.g. a
                    // stale format written by a different bytecode
                    // version): reject and recompile.
                    Err(_) => {
                        self.artifact_rejects.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            Ok(None) => {
                self.artifact_misses.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                self.artifact_rejects.fetch_add(1, Ordering::Relaxed);
            }
        }
        let (compiled, bytes) = pipeline::compile_encoded(kernel, flow, target, cfg)?;
        // Best effort: a failed write only costs a future recompile.
        if store.save(id, &bytes).is_ok() {
            self.artifact_writes.fetch_add(1, Ordering::Relaxed);
        }
        Ok(compiled)
    }

    /// Compile without consulting or filling the cache. For timing
    /// experiments (§V-A(c) measures real online-compile times, which a
    /// cache hit would reduce to a map lookup) and for callers that
    /// deliberately want a private copy.
    ///
    /// # Errors
    /// Propagates [`PipelineError`]s from any stage.
    pub fn compile_uncached(
        &self,
        kernel: &Kernel,
        flow: Flow,
        target: &TargetDesc,
        cfg: &CompileConfig,
    ) -> Result<Arc<Compiled>, PipelineError> {
        Ok(Arc::new(pipeline::compile(kernel, flow, target, cfg)?))
    }

    /// Compile a batch of jobs, fanning across OS threads. Results come
    /// back in job order. Duplicate tuples in one batch are compiled once
    /// modulo racing (the cache reconciles racers), and every duplicate
    /// returns the canonical `Arc`.
    ///
    /// Worker count is `min(jobs, available_parallelism)`; a batch of one
    /// runs inline on the caller's thread.
    pub fn compile_batch(
        &self,
        jobs: &[CompileJob<'_>],
    ) -> Vec<Result<Arc<Compiled>, PipelineError>> {
        if jobs.len() <= 1 {
            return jobs
                .iter()
                .map(|j| self.compile(j.kernel, j.flow, j.target, &j.cfg))
                .collect();
        }
        let workers = std::thread::available_parallelism()
            .map_or(2, |n| n.get())
            .min(jobs.len());
        let next = AtomicUsize::new(0);
        let done: Vec<(usize, Result<Arc<Compiled>, PipelineError>)> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|_| {
                        scope.spawn(|| {
                            let mut out = Vec::new();
                            loop {
                                let i = next.fetch_add(1, Ordering::Relaxed);
                                let Some(job) = jobs.get(i) else { break out };
                                out.push((
                                    i,
                                    self.compile(job.kernel, job.flow, job.target, &job.cfg),
                                ));
                            }
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("batch worker panicked"))
                    .collect()
            });
        let mut results: Vec<Option<Result<Arc<Compiled>, PipelineError>>> =
            (0..jobs.len()).map(|_| None).collect();
        for (i, r) in done {
            results[i] = Some(r);
        }
        results
            .into_iter()
            .map(|r| r.expect("every batch slot filled by a worker"))
            .collect()
    }

    /// Specialize a compilation to a concrete runtime vector length.
    ///
    /// The compile step is the ordinary cached, VL-*agnostic* pipeline
    /// run — every VL shares one `Arc<Compiled>` artifact. What is
    /// per-VL is only the execution form: the shared pre-decoded program
    /// *re-specialized* against `target.at_vl(vl_bits)`. The
    /// VL-independent decode work (label→index resolution, step and
    /// fast-kernel selection) is done once at compile time and shared;
    /// only per-instruction costs and lane counts are recomputed per VL
    /// (see `DecodedProgram::respecialize`). Those specializations are
    /// kept in a small LRU cache ([`VL_CACHE_CAPACITY`]) keyed by the
    /// compile key *plus* `vl_bits`.
    ///
    /// Fixed-width targets are accepted when `vl_bits` names their one
    /// width; the baked-in decode is returned and no entry is added.
    ///
    /// # Errors
    /// Propagates compile-stage [`PipelineError`]s; rejects illegal VLs
    /// and fixed-width/VL mismatches.
    pub fn specialize(
        &self,
        kernel: &Kernel,
        flow: Flow,
        target: &TargetDesc,
        cfg: &CompileConfig,
        vl_bits: usize,
    ) -> Result<(Arc<Compiled>, Arc<DecodedProgram>), PipelineError> {
        self.specialize_keyed(&Keyed::new(kernel, flow, target, cfg), vl_bits)
    }

    /// [`Engine::specialize`] of a tuple whose key is already computed.
    pub(crate) fn specialize_keyed(
        &self,
        job: &Keyed<'_>,
        vl_bits: usize,
    ) -> Result<(Arc<Compiled>, Arc<DecodedProgram>), PipelineError> {
        let compiled = self.compile_at_vl(job, vl_bits)?;
        if !job.target.vla {
            let decoded = Arc::clone(&compiled.jit.decoded);
            return Ok((compiled, decoded));
        }
        let key = job.at_vl(vl_bits);
        if let Some(hit) = self
            .vl_cache
            .lock()
            .expect("engine vl cache poisoned")
            .get(&key)
        {
            return Ok((compiled, hit));
        }
        let exec = job.target.at_vl(vl_bits);
        let prog = Arc::new(
            compiled
                .jit
                .decoded
                .respecialize(&compiled.jit.code, &exec)
                .map_err(|e| PipelineError(format!("VL={vl_bits} specialization: {e}")))?,
        );
        let mut lru = self.vl_cache.lock().expect("engine vl cache poisoned");
        Ok((compiled, lru.insert(key, prog)))
    }

    /// An *unfused* decode (one step per executable instruction) of the
    /// cached compilation at a concrete VL — the `fused(false)` option
    /// of [`crate::ExecRequest`], kept in its own bounded LRU so fusion
    /// A/B storms do not re-decode per request. The same VL contract as
    /// [`Engine::specialize`] applies.
    ///
    /// # Errors
    /// Propagates compile-stage [`PipelineError`]s; rejects illegal VLs
    /// and fixed-width/VL mismatches.
    pub fn decode_unfused(
        &self,
        kernel: &Kernel,
        flow: Flow,
        target: &TargetDesc,
        cfg: &CompileConfig,
        vl_bits: usize,
    ) -> Result<(Arc<Compiled>, Arc<DecodedProgram>), PipelineError> {
        self.decode_unfused_keyed(&Keyed::new(kernel, flow, target, cfg), vl_bits)
    }

    /// [`Engine::decode_unfused`] of a tuple whose key is already
    /// computed. It validates the VL without building a fused
    /// specialization, so the VL LRU is left alone.
    pub(crate) fn decode_unfused_keyed(
        &self,
        job: &Keyed<'_>,
        vl_bits: usize,
    ) -> Result<(Arc<Compiled>, Arc<DecodedProgram>), PipelineError> {
        let compiled = self.compile_at_vl(job, vl_bits)?;
        let key = job.at_vl(vl_bits);
        if let Some(hit) = self
            .unfused_cache
            .lock()
            .expect("engine unfused cache poisoned")
            .get(&key)
        {
            return Ok((compiled, hit));
        }
        let exec = exec_target(job.target, vl_bits);
        let prog = Arc::new(
            DecodedProgram::decode_unfused(&compiled.jit.code, &exec)
                .map_err(|e| PipelineError(format!("unfused decode: {e}")))?,
        );
        let mut lru = self
            .unfused_cache
            .lock()
            .expect("engine unfused cache poisoned");
        Ok((compiled, lru.insert(key, prog)))
    }

    /// Lower a compilation all the way to the closure-threaded
    /// execution tier at a concrete vector length: [`Engine::specialize`]
    /// resolves the (kernel, flow, target, config, VL) tuple to a
    /// decoded program — with all of its caching and VL validation —
    /// and the threading pass then flattens that decoded form into
    /// regions over a contiguous register arena with precomputed
    /// address streams (see [`ThreadedProgram`]).
    ///
    /// Threaded programs have their own bounded LRU keyed like the VL
    /// cache; fixed-width targets are cached here too (the one width
    /// they support is the key's VL).
    ///
    /// # Errors
    /// Propagates compile-stage [`PipelineError`]s; rejects illegal VLs
    /// and fixed-width/VL mismatches — the same contract as
    /// [`Engine::specialize`].
    pub fn thread(
        &self,
        kernel: &Kernel,
        flow: Flow,
        target: &TargetDesc,
        cfg: &CompileConfig,
        vl_bits: usize,
    ) -> Result<(Arc<Compiled>, Arc<ThreadedProgram>), PipelineError> {
        self.thread_keyed(&Keyed::new(kernel, flow, target, cfg), vl_bits)
    }

    /// [`Engine::thread`] of a tuple whose key is already computed.
    pub(crate) fn thread_keyed(
        &self,
        job: &Keyed<'_>,
        vl_bits: usize,
    ) -> Result<(Arc<Compiled>, Arc<ThreadedProgram>), PipelineError> {
        let (compiled, decoded) = self.specialize_keyed(job, vl_bits)?;
        let key = job.at_vl(vl_bits);
        if let Some(hit) = self
            .threaded_cache
            .lock()
            .expect("engine threaded cache poisoned")
            .get(&key)
        {
            return Ok((compiled, hit));
        }
        let prog = Arc::new(ThreadedProgram::thread(&decoded, &compiled.jit.code));
        let mut lru = self
            .threaded_cache
            .lock()
            .expect("engine threaded cache poisoned");
        Ok((compiled, lru.insert(key, prog)))
    }

    /// Take a recycled execution arena from the pool (or report the
    /// need for a fresh allocation), counting reuse.
    pub(crate) fn take_arena(&self) -> Option<Vec<u8>> {
        let buf = self.arena_pool.lock().expect("arena pool poisoned").pop();
        match &buf {
            Some(_) => self.pool_reuses.fetch_add(1, Ordering::Relaxed),
            None => self.pool_allocs.fetch_add(1, Ordering::Relaxed),
        };
        buf
    }

    /// Return an execution arena to the pool (dropped when full).
    pub(crate) fn put_arena(&self, buf: Vec<u8>) {
        let mut pool = self.arena_pool.lock().expect("arena pool poisoned");
        if pool.len() < self.pool_capacity {
            pool.push(buf);
        }
    }

    /// The attached artifact store, if any.
    pub fn artifact_store(&self) -> Option<&ArtifactStore> {
        self.artifacts.as_ref()
    }

    /// Cache hit/miss/eviction/latency counters, artifact-tier and
    /// arena-pool activity, and current sizes.
    pub fn stats(&self) -> EngineStats {
        let mut entries = 0usize;
        let mut evictions = 0u64;
        for s in self.shards.iter() {
            let m = s.map.lock().expect("engine cache poisoned");
            entries += m.map.len();
            evictions += m.evictions;
        }
        let (vl_entries, vl_ev) = {
            let m = self.vl_cache.lock().expect("engine vl cache poisoned");
            (m.map.len(), m.evictions)
        };
        let (threaded_entries, thr_ev) = {
            let m = self
                .threaded_cache
                .lock()
                .expect("engine threaded cache poisoned");
            (m.map.len(), m.evictions)
        };
        let unfused_ev = self
            .unfused_cache
            .lock()
            .expect("engine unfused cache poisoned")
            .evictions;
        EngineStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries,
            shards: self.shards.len(),
            evictions,
            exec_evictions: vl_ev + thr_ev + unfused_ev,
            contended_locks: self.contended.load(Ordering::Relaxed),
            compile_ns: self.compile_ns.load(Ordering::Relaxed),
            artifact_hits: self.artifact_hits.load(Ordering::Relaxed),
            artifact_misses: self.artifact_misses.load(Ordering::Relaxed),
            artifact_rejects: self.artifact_rejects.load(Ordering::Relaxed),
            artifact_writes: self.artifact_writes.load(Ordering::Relaxed),
            vl_entries,
            threaded_entries,
            pool_reuses: self.pool_reuses.load(Ordering::Relaxed),
            pool_allocs: self.pool_allocs.load(Ordering::Relaxed),
        }
    }

    /// Number of cached compilations (across shards).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.map.lock().expect("engine cache poisoned").map.len())
            .sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every cached compilation, VL specialization, threaded
    /// lowering, unfused decode, and pooled arena (counters and the
    /// on-disk artifact store are kept).
    pub fn clear(&self) {
        for s in self.shards.iter() {
            s.map.lock().expect("engine cache poisoned").map.clear();
        }
        self.vl_cache
            .lock()
            .expect("engine vl cache poisoned")
            .map
            .clear();
        self.threaded_cache
            .lock()
            .expect("engine threaded cache poisoned")
            .map
            .clear();
        self.unfused_cache
            .lock()
            .expect("engine unfused cache poisoned")
            .map
            .clear();
        self.arena_pool.lock().expect("arena pool poisoned").clear();
    }
}

/// Check that `target` can execute at `vl_bits`: a fixed-width target
/// only at its own width, a VLA family at any legal runtime VL.
fn check_vl(target: &TargetDesc, vl_bits: usize) -> Result<(), PipelineError> {
    if !target.vla {
        if target.vs * 8 == vl_bits {
            return Ok(());
        }
        return Err(PipelineError(format!(
            "target {} is fixed at {} bits; cannot specialize to VL={vl_bits}",
            target.name,
            target.vs * 8
        )));
    }
    if !vapor_targets::valid_vl(vl_bits) {
        return Err(PipelineError(format!(
            "illegal runtime VL of {vl_bits} bits (must be a multiple of 128 in 128..=2048)"
        )));
    }
    Ok(())
}

/// The concrete-width execution target of a (family, VL) pair: the
/// family itself when fixed-width, `family.at_vl(vl)` when VLA.
pub(crate) fn exec_target(target: &TargetDesc, vl_bits: usize) -> TargetDesc {
    if target.vla {
        target.at_vl(vl_bits)
    } else {
        target.clone()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use vapor_frontend::parse_kernel;
    use vapor_targets::{altivec, sse};

    thread_local! {
        /// Cache keys built on this thread; each one computes both
        /// fingerprints.
        pub(crate) static KEYS_BUILT: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    fn saxpy() -> Kernel {
        parse_kernel(
            "kernel saxpy(long n, float a, float x[], float y[]) {
               for (long i = 0; i < n; i++) { y[i] = a * x[i] + y[i]; }
             }",
        )
        .unwrap()
    }

    #[test]
    fn cache_hit_returns_the_same_arc() {
        let e = Engine::new();
        let k = saxpy();
        let t = sse();
        let cfg = CompileConfig::default();
        let a = e.compile(&k, Flow::SplitVectorOpt, &t, &cfg).unwrap();
        let b = e.compile(&k, Flow::SplitVectorOpt, &t, &cfg).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second compile must be a cache hit");
        let s = e.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        assert!(s.compile_ns > 0, "miss latency must be recorded");
    }

    #[test]
    fn content_addressing_sees_through_reparsing() {
        // A structurally identical kernel parsed from differently
        // formatted source hits the same entry.
        let e = Engine::new();
        let t = sse();
        let cfg = CompileConfig::default();
        let a = e.compile(&saxpy(), Flow::SplitVectorOpt, &t, &cfg).unwrap();
        let k2 = parse_kernel(
            "kernel saxpy(long n, float a, float x[], float y[]) { for (long i = 0; i < n; i++) { y[i] = a * x[i] + y[i]; } }",
        )
        .unwrap();
        let b = e.compile(&k2, Flow::SplitVectorOpt, &t, &cfg).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn declaration_order_is_part_of_the_key() {
        // Built with the local declared after the loop variable; the
        // printer hoists locals, so the reparse numbers them the other
        // way round. Both print alike, yet they are distinct IR and
        // distinct entries. The reparse is a fixed point and hits.
        use vapor_ir::{print_kernel, BinOp, Expr, KernelBuilder, ScalarTy};
        let mut b = KernelBuilder::new("scale");
        let n = b.scalar_param("n", ScalarTy::I64);
        let a = b.scalar_param("a", ScalarTy::F32);
        let x = b.array_param("x", ScalarTy::F32);
        let i = b.fresh_loop_var("i");
        let t = b.local("t", ScalarTy::F32);
        b.for_loop(i, Expr::Int(0), Expr::Var(n), 1, |b| {
            b.assign(
                t,
                Expr::bin(BinOp::Mul, Expr::Var(a), Expr::load(x, Expr::Var(i))),
            );
            b.store(x, Expr::Var(i), Expr::Var(t));
        });
        let built = b.finish();
        let reparsed = parse_kernel(&print_kernel(&built)).unwrap();
        assert_eq!(print_kernel(&reparsed), print_kernel(&built));
        assert_ne!(reparsed, built, "the reparse renumbers the variables");

        let e = Engine::new();
        let t = sse();
        let cfg = CompileConfig::default();
        let first = e.compile(&built, Flow::SplitVectorOpt, &t, &cfg).unwrap();
        let second = e
            .compile(&reparsed, Flow::SplitVectorOpt, &t, &cfg)
            .unwrap();
        assert!(!Arc::ptr_eq(&first, &second));
        let again = parse_kernel(&print_kernel(&reparsed)).unwrap();
        let third = e.compile(&again, Flow::SplitVectorOpt, &t, &cfg).unwrap();
        assert!(Arc::ptr_eq(&second, &third));
        assert_eq!((e.stats().hits, e.stats().misses), (1, 2));
    }

    #[test]
    fn fingerprints_match_their_golden_values() {
        // Artifact filenames derive from these: a per-process seed or an
        // accidental change to the hash stream would show up here. The
        // stream comes from std's and derive's `Hash` impls, which Rust
        // does not promise to keep across toolchain versions. A failure
        // here after a toolchain bump (or an IR/target field change)
        // means every stored `.vsart` artifact gets a new filename and
        // becomes a cold miss: treat it as an artifact-format change and
        // say so where the constants are updated.
        assert_eq!(
            fingerprint(&saxpy()),
            0xbd1a_c149_96bb_9452_c4de_50f1_527f_6c65
        );
        assert_eq!(
            fingerprint(&sse()),
            0xedfc_e0c3_9ff7_c999_cd86_4e4e_f4d2_d57c
        );
    }

    #[test]
    fn customized_target_with_the_stock_name_misses() {
        let e = Engine::new();
        let k = saxpy();
        let cfg = CompileConfig::default();
        let stock = e.compile(&k, Flow::SplitVectorOpt, &sse(), &cfg).unwrap();
        let mut custom = sse();
        custom.cost.vload_unaligned += 1;
        assert_eq!(custom.name, sse().name);
        let other = e.compile(&k, Flow::SplitVectorOpt, &custom, &cfg).unwrap();
        assert!(
            !Arc::ptr_eq(&stock, &other),
            "a changed cost table must not share the stock target's entry"
        );
        assert_eq!((e.stats().hits, e.stats().misses), (0, 2));
    }

    #[test]
    fn kernels_differing_in_one_float_literal_miss() {
        let src = |c: &str| {
            parse_kernel(&format!(
                "kernel axpb(long n, float x[], float y[]) {{
                   for (long i = 0; i < n; i++) {{ y[i] = 2.0 * x[i] + {c}; }}
                 }}"
            ))
            .unwrap()
        };
        let e = Engine::new();
        let t = sse();
        let cfg = CompileConfig::default();
        let a = e
            .compile(&src("0.5"), Flow::SplitVectorOpt, &t, &cfg)
            .unwrap();
        let b = e
            .compile(&src("0.25"), Flow::SplitVectorOpt, &t, &cfg)
            .unwrap();
        assert!(
            !Arc::ptr_eq(&a, &b),
            "one literal apart must not share an entry"
        );
        let a2 = e
            .compile(&src("0.5"), Flow::SplitVectorOpt, &t, &cfg)
            .unwrap();
        assert!(Arc::ptr_eq(&a, &a2));
    }

    #[test]
    fn unfused_decode_leaves_the_vl_cache_alone() {
        let e = Engine::new();
        let k = saxpy();
        let sve = vapor_targets::sve();
        let cfg = CompileConfig::default();
        let (_, p) = e
            .decode_unfused(&k, Flow::SplitVectorOpt, &sve, &cfg, 512)
            .unwrap();
        assert_eq!(p.vs, 64);
        let s = e.stats();
        assert_eq!(s.vl_entries, 0, "no fused specialization may be built");
        assert_eq!((s.hits, s.misses), (0, 1), "one compile-cache lookup");
        let err = e
            .decode_unfused(&k, Flow::SplitVectorOpt, &sve, &cfg, 192)
            .unwrap_err();
        assert!(err.0.contains("illegal runtime VL"), "{err}");
    }

    #[test]
    fn distinct_configs_flows_and_targets_miss() {
        let e = Engine::new();
        let k = saxpy();
        let t = sse();
        let base = e
            .compile(&k, Flow::SplitVectorOpt, &t, &CompileConfig::default())
            .unwrap();
        let ablated = e
            .compile(
                &k,
                Flow::SplitVectorOpt,
                &t,
                &CompileConfig {
                    no_alignment_opts: true,
                    ..Default::default()
                },
            )
            .unwrap();
        assert!(
            !Arc::ptr_eq(&base, &ablated),
            "distinct configs must not share an entry"
        );
        let other_flow = e
            .compile(&k, Flow::SplitScalarOpt, &t, &CompileConfig::default())
            .unwrap();
        assert!(!Arc::ptr_eq(&base, &other_flow));
        let other_target = e
            .compile(
                &k,
                Flow::SplitVectorOpt,
                &altivec(),
                &CompileConfig::default(),
            )
            .unwrap();
        assert!(!Arc::ptr_eq(&base, &other_target));
        assert_eq!(e.stats().entries, 4);
        assert_eq!(e.stats().hits, 0);
    }

    #[test]
    fn uncached_compiles_are_private_and_leave_no_entry() {
        let e = Engine::new();
        let k = saxpy();
        let t = sse();
        let cfg = CompileConfig::default();
        let a = e
            .compile_uncached(&k, Flow::NativeVector, &t, &cfg)
            .unwrap();
        let b = e
            .compile_uncached(&k, Flow::NativeVector, &t, &cfg)
            .unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert!(e.is_empty());
    }

    #[test]
    fn batch_matches_serial_compilation() {
        let k1 = saxpy();
        let k2 = parse_kernel(
            "kernel dscal(long n, float a, float x[]) {
               for (long i = 0; i < n; i++) { x[i] = a * x[i]; }
             }",
        )
        .unwrap();
        let targets = [sse(), altivec()];
        let mut jobs = Vec::new();
        for k in [&k1, &k2] {
            for t in &targets {
                for flow in Flow::ALL {
                    jobs.push(CompileJob::new(k, flow, t));
                }
            }
        }

        let parallel_engine = Engine::new();
        let batch = parallel_engine.compile_batch(&jobs);
        let serial_engine = Engine::new();
        for (job, got) in jobs.iter().zip(&batch) {
            let want = serial_engine
                .compile(job.kernel, job.flow, job.target, &job.cfg)
                .unwrap();
            let got = got.as_ref().expect("batch compile failed");
            assert_eq!(
                got.jit.code, want.jit.code,
                "{} {}",
                job.kernel.name, job.flow
            );
            assert_eq!(got.bytecode_bytes, want.bytecode_bytes);
            assert_eq!(got.jit.decoded.len, want.jit.decoded.len);
            assert_eq!(got.jit.decoded.vs, want.jit.decoded.vs);
        }
        // Every distinct tuple cached exactly once.
        assert_eq!(parallel_engine.stats().entries, jobs.len());
    }

    #[test]
    fn batch_duplicates_collapse_to_one_arc() {
        let e = Engine::new();
        let k = saxpy();
        let t = sse();
        let jobs: Vec<CompileJob<'_>> = (0..16)
            .map(|_| CompileJob::new(&k, Flow::SplitVectorOpt, &t))
            .collect();
        let results = e.compile_batch(&jobs);
        let first = results[0].as_ref().unwrap();
        for r in &results {
            assert!(Arc::ptr_eq(first, r.as_ref().unwrap()));
        }
        assert_eq!(e.stats().entries, 1);
    }

    #[test]
    fn concurrent_compiles_of_one_key_reconcile() {
        let e = Engine::new();
        let k = saxpy();
        let t = sse();
        let cfg = CompileConfig::default();
        let arcs: Vec<Arc<Compiled>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| scope.spawn(|| e.compile(&k, Flow::SplitVectorNaive, &t, &cfg).unwrap()))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for a in &arcs {
            assert!(
                Arc::ptr_eq(&arcs[0], a),
                "all racers must observe one canonical Arc"
            );
        }
        assert_eq!(e.stats().entries, 1);
    }

    #[test]
    fn batch_reports_per_job_errors() {
        // An unvectorizable construct fails in some flows but must not
        // poison the rest of the batch.
        let bad = parse_kernel(
            "kernel div(long n, float x[]) {
               for (long i = 0; i < n; i++) { x[i] = x[i] / x[i]; }
             }",
        );
        let k = saxpy();
        let t = sse();
        let mut jobs = vec![CompileJob::new(&k, Flow::SplitVectorOpt, &t)];
        if let Ok(bad) = &bad {
            jobs.push(CompileJob::new(bad, Flow::SplitVectorOpt, &t));
        }
        let results = Engine::new().compile_batch(&jobs);
        assert!(results[0].is_ok());
        assert_eq!(results.len(), jobs.len());
    }

    #[test]
    fn vla_specialization_shares_one_compiled_artifact() {
        let e = Engine::new();
        let k = saxpy();
        let t = vapor_targets::sve();
        let cfg = CompileConfig::default();
        let (c128, p128) = e
            .specialize(&k, Flow::SplitVectorOpt, &t, &cfg, 128)
            .unwrap();
        let (c512, p512) = e
            .specialize(&k, Flow::SplitVectorOpt, &t, &cfg, 512)
            .unwrap();
        assert!(
            Arc::ptr_eq(&c128, &c512),
            "compile once: every VL shares one artifact"
        );
        assert_eq!(e.stats().misses, 1, "the VL dimension must not recompile");
        assert_eq!(e.stats().entries, 1);
        assert_eq!(e.stats().vl_entries, 2);
        // The execution forms really are width-specialized …
        assert_eq!(p128.vs, 16);
        assert_eq!(p512.vs, 64);
        // … and cached per VL.
        let (_, p512b) = e
            .specialize(&k, Flow::SplitVectorOpt, &t, &cfg, 512)
            .unwrap();
        assert!(Arc::ptr_eq(&p512, &p512b));
        e.clear();
        assert_eq!(e.stats().vl_entries, 0);
    }

    #[test]
    fn vl_cache_is_lru_bounded() {
        // Capacity 2: the least-recently-used specialization is evicted,
        // recently-touched ones survive, and eviction only costs a
        // re-specialization (never a recompile).
        let e = Engine::with_vl_cache_capacity(2);
        let k = saxpy();
        let t = vapor_targets::sve();
        let cfg = CompileConfig::default();
        let flow = Flow::SplitVectorOpt;
        let (_, p128) = e.specialize(&k, flow, &t, &cfg, 128).unwrap();
        let (_, p256) = e.specialize(&k, flow, &t, &cfg, 256).unwrap();
        assert_eq!(e.stats().vl_entries, 2);
        // Touch 128 so 256 becomes the LRU entry, then insert a third.
        let (_, p128b) = e.specialize(&k, flow, &t, &cfg, 128).unwrap();
        assert!(Arc::ptr_eq(&p128, &p128b), "touched entry must still hit");
        let (_, _p512) = e.specialize(&k, flow, &t, &cfg, 512).unwrap();
        assert_eq!(e.stats().vl_entries, 2, "cache must stay bounded");
        assert_eq!(e.stats().exec_evictions, 1, "eviction must be counted");
        // 256 was evicted: a fresh Arc comes back. 128 survived.
        let (_, p256b) = e.specialize(&k, flow, &t, &cfg, 256).unwrap();
        assert!(!Arc::ptr_eq(&p256, &p256b), "LRU entry must be evicted");
        assert_eq!(
            e.stats().misses,
            1,
            "eviction re-specializes; it never recompiles"
        );
    }

    #[test]
    fn vl_specializations_share_the_decode_skeleton() {
        // The re-specialized program must be exactly what a fresh
        // decode would produce (costs, lane clamps, control targets).
        let e = Engine::new();
        let k = saxpy();
        let t = vapor_targets::sve();
        let cfg = CompileConfig::default();
        for vl in [128usize, 512, 2048] {
            let (compiled, prog) = e
                .specialize(&k, Flow::SplitVectorOpt, &t, &cfg, vl)
                .unwrap();
            let exec = t.at_vl(vl);
            let fresh = vapor_targets::DecodedProgram::decode(&compiled.jit.code, &exec).unwrap();
            assert_eq!(prog.vs, fresh.vs);
            assert_eq!(prog.len, fresh.len);
            for (a, b) in prog.steps().iter().zip(fresh.steps()) {
                assert_eq!(a.cost, b.cost, "VL={vl}");
                assert_eq!(a.lanes, b.lanes, "VL={vl}");
            }
        }
    }

    #[test]
    fn fixed_targets_specialize_only_to_their_own_width() {
        let e = Engine::new();
        let k = saxpy();
        let cfg = CompileConfig::default();
        let (c, p) = e
            .specialize(&k, Flow::SplitVectorOpt, &sse(), &cfg, 128)
            .unwrap();
        assert!(Arc::ptr_eq(&p, &c.jit.decoded), "no re-decode, no entry");
        assert_eq!(e.stats().vl_entries, 0);
        let err = e
            .specialize(&k, Flow::SplitVectorOpt, &sse(), &cfg, 256)
            .unwrap_err();
        assert!(err.0.contains("fixed at 128 bits"), "{err}");
    }

    #[test]
    fn illegal_vl_is_rejected_not_panicked() {
        let e = Engine::new();
        let k = saxpy();
        let err = e
            .specialize(
                &k,
                Flow::SplitVectorOpt,
                &vapor_targets::sve(),
                &CompileConfig::default(),
                192,
            )
            .unwrap_err();
        assert!(err.0.contains("illegal runtime VL"), "{err}");
    }

    #[test]
    fn threaded_lowerings_are_cached_per_vl_for_every_target_kind() {
        let e = Engine::new();
        let k = saxpy();
        let cfg = CompileConfig::default();
        // Fixed-width targets cache their threaded form (threading is a
        // real lowering pass, unlike the free fixed-width decode).
        let (_, t128) = e
            .thread(&k, Flow::SplitVectorOpt, &sse(), &cfg, 128)
            .unwrap();
        let (_, t128b) = e
            .thread(&k, Flow::SplitVectorOpt, &sse(), &cfg, 128)
            .unwrap();
        assert!(Arc::ptr_eq(&t128, &t128b), "second thread must hit");
        assert_eq!(e.stats().threaded_entries, 1);
        // VLA targets get one threaded form per VL, each matching its
        // decoded specialization's width.
        let sve = vapor_targets::sve();
        let (_, s256) = e.thread(&k, Flow::SplitVectorOpt, &sve, &cfg, 256).unwrap();
        let (_, s512) = e.thread(&k, Flow::SplitVectorOpt, &sve, &cfg, 512).unwrap();
        assert_eq!(s256.vs, 32);
        assert_eq!(s512.vs, 64);
        assert_eq!(e.stats().threaded_entries, 3);
        assert_eq!(e.stats().misses, 2, "threading never recompiles");
        // Specialize's contract is inherited: mismatched fixed widths
        // and illegal VLs are rejected, not threaded.
        let err = e
            .thread(&k, Flow::SplitVectorOpt, &sse(), &cfg, 256)
            .unwrap_err();
        assert!(err.0.contains("fixed at 128 bits"), "{err}");
        e.clear();
        assert_eq!(e.stats().threaded_entries, 0);
    }

    #[test]
    fn clear_forgets_compilations() {
        let e = Engine::new();
        let k = saxpy();
        let t = sse();
        let cfg = CompileConfig::default();
        let a = e.compile(&k, Flow::NativeScalar, &t, &cfg).unwrap();
        e.clear();
        assert!(e.is_empty());
        let b = e.compile(&k, Flow::NativeScalar, &t, &cfg).unwrap();
        assert!(!Arc::ptr_eq(&a, &b), "cleared cache must recompile");
    }

    #[test]
    fn builder_configures_shards_and_reports_them() {
        let e = Engine::builder().shards(3).build().unwrap();
        assert_eq!(e.stats().shards, 3);
        let single = Engine::builder().shards(1).build().unwrap();
        assert_eq!(single.stats().shards, 1);
        // shards(0) is clamped, never a divide-by-zero.
        let clamped = Engine::builder().shards(0).build().unwrap();
        assert_eq!(clamped.stats().shards, 1);
        assert_eq!(Engine::new().stats().shards, DEFAULT_SHARDS);
    }

    #[test]
    fn compile_cache_is_bounded_and_counts_evictions() {
        // One shard of capacity 2: the third distinct tuple evicts the
        // least-recently-used compilation.
        let e = Engine::builder()
            .shards(1)
            .compile_cache_capacity(2)
            .build()
            .unwrap();
        let k = saxpy();
        let t = sse();
        let cfg = CompileConfig::default();
        let a = e.compile(&k, Flow::NativeScalar, &t, &cfg).unwrap();
        e.compile(&k, Flow::SplitScalarNaive, &t, &cfg).unwrap();
        // Touch the first so the second becomes LRU.
        e.compile(&k, Flow::NativeScalar, &t, &cfg).unwrap();
        e.compile(&k, Flow::SplitScalarOpt, &t, &cfg).unwrap();
        let s = e.stats();
        assert_eq!(s.entries, 2, "cache must stay at capacity");
        assert_eq!(s.evictions, 1, "the eviction must be counted");
        // The touched entry survived; the LRU one recompiles.
        let a2 = e.compile(&k, Flow::NativeScalar, &t, &cfg).unwrap();
        assert!(Arc::ptr_eq(&a, &a2), "recently-used entry must survive");
        e.compile(&k, Flow::SplitScalarNaive, &t, &cfg).unwrap();
        assert_eq!(e.stats().misses, 4, "evicted tuple pays a recompile");
    }

    #[test]
    fn shards_spread_keys() {
        // With the default shard count, a handful of distinct tuples
        // must not all land in one shard (the hash actually spreads).
        let e = Engine::new();
        let k = saxpy();
        let cfg = CompileConfig::default();
        for t in [sse(), altivec(), vapor_targets::sve()] {
            for flow in Flow::ALL {
                e.compile(&k, flow, &t, &cfg).unwrap();
            }
        }
        let populated = e
            .shards
            .iter()
            .filter(|s| !s.map.lock().unwrap().map.is_empty())
            .count();
        assert!(
            populated > 1,
            "18 tuples across {DEFAULT_SHARDS} shards must touch more than one"
        );
        assert_eq!(e.len(), 18);
    }

    fn scratch_store(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "vapor-engine-artifact-{}-{tag}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn artifact_tier_serves_warm_engines() {
        let dir = scratch_store("warm");
        let k = saxpy();
        let t = sse();
        let cfg = CompileConfig::default();

        // Cold engine: artifact miss, full compile, write-back.
        let cold = Engine::builder().artifact_dir(&dir).build().unwrap();
        let a = cold.compile(&k, Flow::SplitVectorOpt, &t, &cfg).unwrap();
        let s = cold.stats();
        assert_eq!((s.artifact_misses, s.artifact_writes), (1, 1));
        assert_eq!(s.artifact_hits, 0);
        assert_eq!(cold.artifact_store().unwrap().len(), 1);

        // Warm engine (fresh process simulation): in-memory miss, but
        // the on-disk artifact skips the offline stage — and produces
        // the same machine code.
        let warm = Engine::builder().artifact_dir(&dir).build().unwrap();
        let b = warm.compile(&k, Flow::SplitVectorOpt, &t, &cfg).unwrap();
        let s = warm.stats();
        assert_eq!((s.artifact_hits, s.artifact_misses), (1, 0));
        assert_eq!(s.artifact_writes, 0, "a hit must not rewrite");
        assert_eq!(s.misses, 1, "still an in-memory miss");
        assert_eq!(a.jit.code, b.jit.code, "artifact path must be equivalent");
        assert_eq!(a.bytecode_bytes, b.bytecode_bytes);

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_artifacts_are_rejected_and_recompiled() {
        let dir = scratch_store("reject");
        let k = saxpy();
        let t = sse();
        let cfg = CompileConfig::default();
        let cold = Engine::builder().artifact_dir(&dir).build().unwrap();
        let a = cold.compile(&k, Flow::SplitVectorOpt, &t, &cfg).unwrap();

        // Flip a payload bit in the one stored artifact.
        let store = cold.artifact_store().unwrap();
        let entry = std::fs::read_dir(store.dir())
            .unwrap()
            .filter_map(Result::ok)
            .find(|e| e.path().extension().is_some_and(|x| x == "vsart"))
            .expect("one artifact on disk");
        let mut bytes = std::fs::read(entry.path()).unwrap();
        let mid = bytes.len() - 20;
        bytes[mid] ^= 0x01;
        std::fs::write(entry.path(), &bytes).unwrap();

        // A warm engine rejects it, recompiles from source, and heals
        // the store with a fresh write.
        let warm = Engine::builder().artifact_dir(&dir).build().unwrap();
        let b = warm.compile(&k, Flow::SplitVectorOpt, &t, &cfg).unwrap();
        let s = warm.stats();
        assert_eq!(s.artifact_rejects, 1, "corruption must be rejected");
        assert_eq!(s.artifact_hits, 0);
        assert_eq!(s.artifact_writes, 1, "the store must be healed");
        assert_eq!(a.jit.code, b.jit.code);
        // And the healed artifact now hits.
        let third = Engine::builder().artifact_dir(&dir).build().unwrap();
        third.compile(&k, Flow::SplitVectorOpt, &t, &cfg).unwrap();
        assert_eq!(third.stats().artifact_hits, 1);

        std::fs::remove_dir_all(&dir).unwrap();
    }
}
