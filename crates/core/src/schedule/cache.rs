//! Memoized schedule construction.
//!
//! Schedules are pure functions of their build parameters: the same
//! `(collective kind, geometry, payload split, permanent-fault set)` always
//! compiles to the same `CommSchedule`. Yet the sweeps that dominate this
//! workspace's wall-clock — chaos soaks, preset lint matrices, the
//! figure-scaling curves, `resilience::plan_degraded` under storms —
//! rebuild identical schedules thousands of times, once per seed or per
//! backend. This module memoizes the build **and the validation**: a cache
//! hit hands back a schedule that already passed
//! [`validate::validate`], shared behind an
//! [`Arc`].
//!
//! # Key derivation
//!
//! The cache key is the exact quadruple that determines builder output:
//!
//! * the [`CollectiveKind`],
//! * the full [`PimGeometry`] (all four dimensions, not just the DPU
//!   count — two geometries with equal products build different rings),
//! * the payload split `(elems_per_node, elem_bytes)`,
//! * a **fingerprint of the permanent-fault set** for repaired schedules:
//!   an FNV-1a hash folded over the set's segments, ports and dead ranks in
//!   their canonical (`BTreeSet`) order, so the fingerprint is stable
//!   across runs and platforms. The empty set hashes to the fault-free
//!   fingerprint, which is the plain builder's key space.
//!
//! Entries are never invalidated (build parameters fully determine the
//! value); [`clear`] exists for benchmarks that want a cold start. The
//! cache is process-global and thread-safe — the deterministic fan-out in
//! [`pim_sim::par`] shares it across workers, and because every worker
//! would build bit-identical schedules anyway, sharing is unobservable in
//! results.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

use pim_arch::geometry::PimGeometry;
use pim_faults::permanent::PermanentFaultSet;
use pim_sim::trace::codes;
use pim_sim::{Probe, SimTime};

use crate::analysis::{self, AnalysisSummary, DeltaStats};
use crate::collective::CollectiveKind;
use crate::error::PimnetError;

use super::algos::{self, Composition};
use super::autotune::TunedChoice;
use super::boost::{self, BoostPlan};
use super::repair::RepairedSchedule;
use super::{validate, CommSchedule};

/// Cache key: everything that determines builder (and repair) output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Key {
    kind: CollectiveKind,
    geometry: PimGeometry,
    elems_per_node: usize,
    elem_bytes: u32,
    /// [`fault_fingerprint`] of the permanent-fault set; `EMPTY_FAULTS`
    /// for plain (unrepaired) schedules.
    repair: u64,
    /// Separates plain entries from (identity-)repaired entries whose
    /// fault fingerprint is the empty-set fingerprint.
    repaired: bool,
    /// Degradation/health epoch: bumped by the recovery manager whenever
    /// mid-run quarantine or fault arrival changes the live scenario, so a
    /// post-quarantine replan can never be answered from a pre-fault
    /// entry whose fault fingerprint happens to coincide. Static planning
    /// uses epoch 0.
    epoch: u64,
    /// Separates boost plans ([`BoostPlan`]) from the full schedules they
    /// were thinned from: a boosted lookup must never be answered with a
    /// plain entry (or vice versa) for otherwise identical parameters.
    boost: bool,
    /// Which builder produced the entry: [`PAPER_ALGO`] for the paper's
    /// Table V builder ([`CommSchedule::build`]), [`composed_algo_code`]
    /// for a per-tier [`Composition`] (chunk split folded in), and
    /// [`TUNED_ALGO`] for the autotuner's memoized winner. Composed and
    /// paper entries for identical parameters must never collide.
    algo: u32,
}

/// [`Key::algo`] code of the paper's fixed Table V builder.
const PAPER_ALGO: u32 = 0;

/// [`Key::algo`] sentinel for memoized autotuner winners
/// ([`Entry::Tuned`]): the tuned entry is keyed by the *request*
/// (kind, geometry, payload), not by whichever composition won.
const TUNED_ALGO: u32 = u32::MAX;

/// Folds a per-tier [`Composition`] and chunk split into a stable
/// [`Key::algo`] code, disjoint from [`PAPER_ALGO`] and [`TUNED_ALGO`]:
/// bits 0..=7 carry `1 + bank + 4·chip + 16·rank` (1..=64), bits 8..=15
/// carry `chunks - 1`.
fn composed_algo_code(comp: Composition, chunks: usize) -> u32 {
    debug_assert!((1..=256).contains(&chunks), "chunk split out of range");
    let c = 1 + comp.bank.code() + 4 * comp.chip.code() + 16 * comp.rank.code();
    c + (((chunks - 1) as u32) << 8)
}

/// One memoized value: a validated plain schedule, a repaired one, a
/// boost plan thinned from a validated plain schedule, or an autotuner
/// winner.
#[derive(Debug, Clone)]
enum Entry {
    Plain(Arc<CommSchedule>),
    Repaired(Arc<RepairedSchedule>),
    Boost(Arc<BoostPlan>),
    Tuned(Arc<TunedChoice>),
}

/// A table slot: either a finished entry, or a build in flight. Pending
/// slots are what make concurrent misses on the same key build **once**:
/// the first worker claims the slot and builds outside the table lock,
/// later workers block on the slot's condvar instead of duplicating the
/// build.
#[derive(Debug, Clone)]
enum Slot {
    Ready(Entry),
    Pending(Arc<Pending>),
}

/// Rendezvous for workers waiting on an in-flight build.
#[derive(Debug)]
struct Pending {
    state: Mutex<PendState>,
    cv: Condvar,
}

#[derive(Debug)]
enum PendState {
    Building,
    Done(Entry),
    /// The build errored; waiters retry (and typically reproduce the
    /// error themselves, since errors are not cached).
    Failed,
}

impl Pending {
    fn new() -> Self {
        Pending {
            state: Mutex::new(PendState::Building),
            cv: Condvar::new(),
        }
    }

    fn finish(&self, outcome: Option<Entry>) {
        let mut state = match self.state.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        *state = match outcome {
            Some(e) => PendState::Done(e),
            None => PendState::Failed,
        };
        self.cv.notify_all();
    }

    /// Blocks until the in-flight build resolves; `None` means it failed
    /// and the caller should retry from the top.
    fn wait(&self) -> Option<Entry> {
        let mut state = match self.state.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        loop {
            match &*state {
                PendState::Done(e) => return Some(e.clone()),
                PendState::Failed => return None,
                PendState::Building => {
                    state = match self.cv.wait(state) {
                        Ok(g) => g,
                        Err(poisoned) => poisoned.into_inner(),
                    };
                }
            }
        }
    }
}

/// Running cache counters (process-global, monotone until
/// [`reset_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to build (and validate) a schedule.
    pub misses: u64,
    /// Schedules actually constructed (equals `misses` that succeeded).
    pub schedules_built: u64,
}

static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static BUILT: AtomicU64 = AtomicU64::new(0);

fn table() -> &'static Mutex<HashMap<Key, Slot>> {
    static TABLE: OnceLock<Mutex<HashMap<Key, Slot>>> = OnceLock::new();
    TABLE.get_or_init(|| Mutex::new(HashMap::new()))
}

fn lock_table() -> std::sync::MutexGuard<'static, HashMap<Key, Slot>> {
    // A poisoned cache means a builder panicked mid-insert; the map itself
    // is still a plain HashMap in a consistent state, so keep serving.
    match table().lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Looks `key` up, waiting out any in-flight build; on a cold key, runs
/// `build` (outside the table lock) and publishes the result.
///
/// Exactly one worker builds a given key no matter how many miss on it
/// concurrently, so `schedules_built` is invariant in the worker count.
/// Errors are not cached: the pending slot is removed and every waiter
/// retries (reproducing the cheap, request-specific error itself).
fn get_or_build(
    key: Key,
    probe: &Probe,
    build: impl Fn() -> Result<Entry, PimnetError>,
) -> Result<Entry, PimnetError> {
    loop {
        let pending = {
            let mut map = lock_table();
            match map.get(&key) {
                Some(Slot::Ready(e)) => {
                    HITS.fetch_add(1, Ordering::Relaxed);
                    record_cache_event(codes::CACHE_HIT, &key, probe);
                    return Ok(e.clone());
                }
                Some(Slot::Pending(p)) => p.clone(),
                None => {
                    let p = Arc::new(Pending::new());
                    map.insert(key, Slot::Pending(p.clone()));
                    drop(map);
                    MISSES.fetch_add(1, Ordering::Relaxed);
                    record_cache_event(codes::CACHE_MISS, &key, probe);
                    match build() {
                        Ok(entry) => {
                            BUILT.fetch_add(1, Ordering::Relaxed);
                            lock_table().insert(key, Slot::Ready(entry.clone()));
                            p.finish(Some(entry.clone()));
                            return Ok(entry);
                        }
                        Err(e) => {
                            // Drop our pending slot (unless clear() or a
                            // retrying waiter already replaced it).
                            let mut map = lock_table();
                            if matches!(map.get(&key),
                                Some(Slot::Pending(q)) if Arc::ptr_eq(q, &p))
                            {
                                map.remove(&key);
                            }
                            drop(map);
                            p.finish(None);
                            return Err(e);
                        }
                    }
                }
            }
        };
        // Someone else is building this key: wait for them. A successful
        // build counts as a hit for us; a failed one sends us back around
        // the loop to try building it ourselves.
        record_cache_event(codes::CACHE_DEDUP_WAIT, &key, probe);
        if let Some(entry) = pending.wait() {
            HITS.fetch_add(1, Ordering::Relaxed);
            record_cache_event(codes::CACHE_HIT, &key, probe);
            return Ok(entry);
        }
    }
}

/// Emits one cache event (hit/miss/dedup-wait) and bumps the matching
/// metrics counter. Cache events have no simulated time, so they carry
/// timestamp zero; golden-trace tests filter the cache group out, since
/// hit/miss patterns legitimately differ between cold and warm runs.
fn record_cache_event(code: u16, key: &Key, probe: &Probe) {
    if !probe.is_active() {
        return;
    }
    probe.trace.instant(
        SimTime::ZERO,
        code,
        [
            key.kind as u64,
            u64::from(key.geometry.total_dpus()),
            key.elems_per_node as u64,
            u64::from(key.elem_bytes),
        ],
    );
    match code {
        codes::CACHE_HIT => probe.metrics.cache_hit(),
        codes::CACHE_MISS => probe.metrics.cache_miss(),
        _ => probe.metrics.cache_dedup_wait(),
    }
}

/// Fingerprint of the empty fault set (FNV-1a offset basis).
const EMPTY_FAULTS: u64 = 0xcbf2_9ce4_8422_2325;

/// Stable FNV-1a fingerprint of a permanent-fault set, folded over the
/// set's canonical (`BTreeSet`-ordered) contents. Identical sets — however
/// they were produced (parsed tokens, seeded sampling, merges) — hash
/// identically on every platform; the empty set hashes to the fault-free
/// fingerprint.
#[must_use]
pub fn fault_fingerprint(faults: &PermanentFaultSet) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = EMPTY_FAULTS;
    let mut fold = |tag: u64, vals: [u64; 3]| {
        for v in std::iter::once(tag).chain(vals) {
            h = (h ^ v).wrapping_mul(PRIME);
        }
    };
    for s in &faults.segments {
        fold(
            1,
            [
                u64::from(s.rank) << 32 | u64::from(s.chip),
                u64::from(s.from_bank),
                u64::from(s.east),
            ],
        );
    }
    for p in &faults.ports {
        fold(
            2,
            [
                u64::from(p.rank) << 32 | u64::from(p.chip),
                p.side as u64,
                0,
            ],
        );
    }
    for &r in &faults.dead_ranks {
        fold(3, [u64::from(r), 0, 0]);
    }
    h
}

/// Builds (or recalls) the schedule for `kind` on `geometry`, validated.
///
/// On a miss this is [`CommSchedule::build`] followed by
/// [`validate::validate`]; on a hit it is a map lookup and an `Arc` clone.
/// Build or validation errors are returned and **not** cached (they are
/// cheap to reproduce and carry request-specific messages).
///
/// # Errors
///
/// Whatever [`CommSchedule::build`] or [`validate::validate`] return.
pub fn build_cached(
    kind: CollectiveKind,
    geometry: &PimGeometry,
    elems_per_node: usize,
    elem_bytes: u32,
) -> Result<Arc<CommSchedule>, PimnetError> {
    build_cached_probed(
        kind,
        geometry,
        elems_per_node,
        elem_bytes,
        Probe::disabled(),
    )
}

/// [`build_cached`] with hit/miss/dedup-wait observability: each lookup
/// outcome lands in `probe` as a `cache-*` trace event and a metrics
/// counter. With a disabled probe this is exactly [`build_cached`].
///
/// # Errors
///
/// Whatever [`CommSchedule::build`] or [`validate::validate`] return.
pub fn build_cached_probed(
    kind: CollectiveKind,
    geometry: &PimGeometry,
    elems_per_node: usize,
    elem_bytes: u32,
    probe: &Probe,
) -> Result<Arc<CommSchedule>, PimnetError> {
    build_cached_at_epoch(kind, geometry, elems_per_node, elem_bytes, 0, probe)
}

/// [`build_cached_probed`] under a degradation/health `epoch`: entries
/// built at different epochs never collide, even for identical geometry
/// and fault fingerprints. Epoch 0 is the static-planning key space, so
/// `build_cached_at_epoch(.., 0, ..)` ≡ `build_cached_probed(..)`.
///
/// # Errors
///
/// Whatever [`CommSchedule::build`] or [`validate::validate`] return.
pub fn build_cached_at_epoch(
    kind: CollectiveKind,
    geometry: &PimGeometry,
    elems_per_node: usize,
    elem_bytes: u32,
    epoch: u64,
    probe: &Probe,
) -> Result<Arc<CommSchedule>, PimnetError> {
    let key = Key {
        kind,
        geometry: *geometry,
        elems_per_node,
        elem_bytes,
        repair: EMPTY_FAULTS,
        repaired: false,
        epoch,
        boost: false,
        algo: PAPER_ALGO,
    };
    let entry = get_or_build(key, probe, || {
        let schedule = CommSchedule::build(kind, geometry, elems_per_node, elem_bytes)?;
        validate::validate(&schedule)?;
        Ok(Entry::Plain(Arc::new(schedule)))
    })?;
    match entry {
        Entry::Plain(s) => Ok(s),
        _ => unreachable!("plain key holds a non-plain entry"),
    }
}

/// Builds (or recalls) the [`BoostPlan`] for `kind` on `geometry`: the
/// representative-slice thinning of the validated full schedule, with
/// per-step class facts for analytic timing reconstruction.
///
/// The full schedule comes through [`build_cached`] (so a warm plain
/// entry makes a cold boost lookup cheap); the thinning itself runs only
/// on a miss. The cache key carries a `boost` discriminator, so boosted
/// and plain entries for identical parameters never collide.
///
/// # Errors
///
/// Whatever [`build_cached`] returns — planning itself is infallible.
pub fn boost_cached(
    kind: CollectiveKind,
    geometry: &PimGeometry,
    elems_per_node: usize,
    elem_bytes: u32,
) -> Result<Arc<BoostPlan>, PimnetError> {
    boost_cached_probed(
        kind,
        geometry,
        elems_per_node,
        elem_bytes,
        Probe::disabled(),
    )
}

/// [`boost_cached`] with hit/miss/dedup-wait observability (see
/// [`build_cached_probed`]). With a disabled probe this is exactly
/// [`boost_cached`].
///
/// # Errors
///
/// Whatever [`build_cached`] returns.
pub fn boost_cached_probed(
    kind: CollectiveKind,
    geometry: &PimGeometry,
    elems_per_node: usize,
    elem_bytes: u32,
    probe: &Probe,
) -> Result<Arc<BoostPlan>, PimnetError> {
    let key = Key {
        kind,
        geometry: *geometry,
        elems_per_node,
        elem_bytes,
        repair: EMPTY_FAULTS,
        repaired: false,
        epoch: 0,
        boost: true,
        algo: PAPER_ALGO,
    };
    let entry = get_or_build(key, probe, || {
        let base = build_cached_probed(kind, geometry, elems_per_node, elem_bytes, probe)?;
        Ok(Entry::Boost(Arc::new(boost::plan(&base))))
    })?;
    match entry {
        Entry::Boost(p) => Ok(p),
        _ => unreachable!("boost key holds a non-boost entry"),
    }
}

/// Builds (or recalls) the *repaired* schedule for `kind` on `geometry`
/// under `faults`, keyed by the fault set's [`fault_fingerprint`].
///
/// The base schedule comes through [`build_cached`]; the repair itself
/// (which re-validates its output) runs only on a miss. An empty fault set
/// degenerates to the identity repair of the cached base schedule.
///
/// # Errors
///
/// Whatever [`build_cached`] or
/// [`repair`](super::repair::repair) return.
pub fn repair_cached(
    kind: CollectiveKind,
    geometry: &PimGeometry,
    elems_per_node: usize,
    elem_bytes: u32,
    faults: &PermanentFaultSet,
) -> Result<Arc<RepairedSchedule>, PimnetError> {
    repair_cached_probed(
        kind,
        geometry,
        elems_per_node,
        elem_bytes,
        faults,
        Probe::disabled(),
    )
}

/// [`repair_cached`] with hit/miss/dedup-wait observability, including the
/// inner base-schedule lookup. With a disabled probe this is exactly
/// [`repair_cached`].
///
/// # Errors
///
/// Whatever [`build_cached`] or
/// [`repair`](super::repair::repair) return.
pub fn repair_cached_probed(
    kind: CollectiveKind,
    geometry: &PimGeometry,
    elems_per_node: usize,
    elem_bytes: u32,
    faults: &PermanentFaultSet,
    probe: &Probe,
) -> Result<Arc<RepairedSchedule>, PimnetError> {
    repair_cached_at_epoch(kind, geometry, elems_per_node, elem_bytes, faults, 0, probe)
}

/// [`repair_cached_probed`] under a degradation/health `epoch` (see
/// [`build_cached_at_epoch`]): a quarantined-link replan at epoch `e > 0`
/// misses every entry the pre-fault plan cached at epoch 0, even when the
/// fault fingerprints coincide.
///
/// # Errors
///
/// Whatever [`build_cached`] or
/// [`repair`](super::repair::repair) return.
pub fn repair_cached_at_epoch(
    kind: CollectiveKind,
    geometry: &PimGeometry,
    elems_per_node: usize,
    elem_bytes: u32,
    faults: &PermanentFaultSet,
    epoch: u64,
    probe: &Probe,
) -> Result<Arc<RepairedSchedule>, PimnetError> {
    let key = Key {
        kind,
        geometry: *geometry,
        elems_per_node,
        elem_bytes,
        repair: fault_fingerprint(faults),
        repaired: true,
        epoch,
        boost: false,
        algo: PAPER_ALGO,
    };
    let entry = get_or_build(key, probe, || {
        let base = build_cached_at_epoch(kind, geometry, elems_per_node, elem_bytes, epoch, probe)?;
        let repaired = super::repair::repair(&base, faults)?;
        Ok(Entry::Repaired(Arc::new(repaired)))
    })?;
    match entry {
        Entry::Repaired(r) => Ok(r),
        _ => unreachable!("repaired key holds a non-repaired entry"),
    }
}

/// Builds (or recalls) the *composed* schedule for `kind` on `geometry`
/// under a per-tier algorithm [`Composition`] and `chunks` payload
/// split, validated. Composed entries live in their own cache-key
/// `algo` space, so they never collide with the paper builder's
/// entries for identical parameters.
///
/// # Errors
///
/// Whatever [`algos::build_composed_chunked`] or
/// [`validate::validate`] return.
pub fn build_composed_cached(
    kind: CollectiveKind,
    geometry: &PimGeometry,
    elems_per_node: usize,
    elem_bytes: u32,
    comp: Composition,
    chunks: usize,
) -> Result<Arc<CommSchedule>, PimnetError> {
    build_composed_cached_probed(
        kind,
        geometry,
        elems_per_node,
        elem_bytes,
        comp,
        chunks,
        Probe::disabled(),
    )
}

/// [`build_composed_cached`] with hit/miss/dedup-wait observability (see
/// [`build_cached_probed`]).
///
/// # Errors
///
/// Whatever [`algos::build_composed_chunked`] or
/// [`validate::validate`] return.
pub fn build_composed_cached_probed(
    kind: CollectiveKind,
    geometry: &PimGeometry,
    elems_per_node: usize,
    elem_bytes: u32,
    comp: Composition,
    chunks: usize,
    probe: &Probe,
) -> Result<Arc<CommSchedule>, PimnetError> {
    let key = Key {
        kind,
        geometry: *geometry,
        elems_per_node,
        elem_bytes,
        repair: EMPTY_FAULTS,
        repaired: false,
        epoch: 0,
        boost: false,
        algo: composed_algo_code(comp, chunks),
    };
    let entry = get_or_build(key, probe, || {
        let schedule = algos::build_composed_chunked(
            kind,
            geometry,
            elems_per_node,
            elem_bytes,
            comp,
            chunks,
        )?;
        validate::validate(&schedule)?;
        Ok(Entry::Plain(Arc::new(schedule)))
    })?;
    match entry {
        Entry::Plain(s) => Ok(s),
        _ => unreachable!("composed key holds a non-plain entry"),
    }
}

/// Recalls (or runs `tune` to produce) the autotuner's memoized winner
/// for one `(kind, geometry, payload)` request. The entry is keyed by
/// the request under the [`TUNED_ALGO`] sentinel — *not* by the winning
/// composition — so concurrent tuners dedup to a single sweep.
///
/// # Errors
///
/// Whatever `tune` returns.
pub(crate) fn tuned_cached_with(
    kind: CollectiveKind,
    geometry: &PimGeometry,
    elems_per_node: usize,
    elem_bytes: u32,
    probe: &Probe,
    tune: impl Fn() -> Result<TunedChoice, PimnetError>,
) -> Result<Arc<TunedChoice>, PimnetError> {
    let key = Key {
        kind,
        geometry: *geometry,
        elems_per_node,
        elem_bytes,
        repair: EMPTY_FAULTS,
        repaired: false,
        epoch: 0,
        boost: false,
        algo: TUNED_ALGO,
    };
    let entry = get_or_build(key, probe, || Ok(Entry::Tuned(Arc::new(tune()?))))?;
    match entry {
        Entry::Tuned(t) => Ok(t),
        _ => unreachable!("tuned key holds a non-tuned entry"),
    }
}

// ---------------------------------------------------------------------
// Analysis-summary cache: pass summaries memoized alongside the
// schedules they prove, so a warm hit skips re-proving entirely and a
// repaired variant re-proves only its delta against the cached base.
// ---------------------------------------------------------------------

/// One memoized verification: the summary, plus (for repaired entries)
/// the delta-work stats of the original proof. The stats are cached so
/// the `lint-delta` trace event carries identical arguments on hits and
/// misses — traces must not depend on cache warmth.
#[derive(Debug)]
struct LintEntry {
    summary: Arc<AnalysisSummary>,
    delta: Option<DeltaStats>,
}

static LINT_HITS: AtomicU64 = AtomicU64::new(0);
static LINT_MISSES: AtomicU64 = AtomicU64::new(0);

fn lint_table() -> &'static Mutex<HashMap<Key, Arc<LintEntry>>> {
    static TABLE: OnceLock<Mutex<HashMap<Key, Arc<LintEntry>>>> = OnceLock::new();
    TABLE.get_or_init(|| Mutex::new(HashMap::new()))
}

fn lock_lint_table() -> std::sync::MutexGuard<'static, HashMap<Key, Arc<LintEntry>>> {
    match lint_table().lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Looks a summary up; on a miss, verifies outside the lock. Two workers
/// racing the same cold key may both verify, but the first insert wins
/// and both produce byte-identical summaries, so the race is unobservable
/// in results.
fn lint_get_or_build(
    key: Key,
    build: impl FnOnce() -> Result<LintEntry, PimnetError>,
) -> Result<Arc<LintEntry>, PimnetError> {
    if let Some(e) = lock_lint_table().get(&key).cloned() {
        LINT_HITS.fetch_add(1, Ordering::Relaxed);
        return Ok(e);
    }
    LINT_MISSES.fetch_add(1, Ordering::Relaxed);
    let built = Arc::new(build()?);
    Ok(lock_lint_table().entry(key).or_insert(built).clone())
}

/// Emits one `lint-*` trace event. Exactly one event per analyze call,
/// with arguments derived from the (warmth-independent) summary — never
/// from hit/miss state — so run-after-run traces stay byte-identical.
fn record_lint_event(code: u16, kind: CollectiveKind, dpus: u32, a2: u64, a3: u64, probe: &Probe) {
    if !probe.is_active() {
        return;
    }
    probe
        .trace
        .instant(SimTime::ZERO, code, [kind as u64, u64::from(dpus), a2, a3]);
}

/// The cached plain-schedule summary, without emitting any event (shared
/// by the public analyze entry points, which each emit exactly one).
fn plain_summary_at_epoch(
    kind: CollectiveKind,
    geometry: &PimGeometry,
    elems_per_node: usize,
    elem_bytes: u32,
    epoch: u64,
) -> Result<Arc<AnalysisSummary>, PimnetError> {
    let key = Key {
        kind,
        geometry: *geometry,
        elems_per_node,
        elem_bytes,
        repair: EMPTY_FAULTS,
        repaired: false,
        epoch,
        boost: false,
        algo: PAPER_ALGO,
    };
    let entry = lint_get_or_build(key, || {
        let schedule = build_cached_at_epoch(
            kind,
            geometry,
            elems_per_node,
            elem_bytes,
            epoch,
            Probe::disabled(),
        )?;
        Ok(LintEntry {
            summary: Arc::new(analysis::verify_full_arc(schedule)),
            delta: None,
        })
    })?;
    Ok(entry.summary.clone())
}

/// Verifies (or recalls the verification of) the plain schedule for
/// `kind` on `geometry`: a full four-pass [`AnalysisSummary`] whose
/// report is byte-identical to [`crate::analysis::run_all`] on the built
/// schedule. Warm hits skip re-proving entirely. Emits one `lint-full`
/// trace event per call (hit or miss alike).
///
/// # Errors
///
/// Whatever [`build_cached`] returns. Analysis itself never errors — a
/// broken schedule yields a summary whose report has errors.
pub fn analyze_cached(
    kind: CollectiveKind,
    geometry: &PimGeometry,
    elems_per_node: usize,
    elem_bytes: u32,
    probe: &Probe,
) -> Result<Arc<AnalysisSummary>, PimnetError> {
    analyze_cached_at_epoch(kind, geometry, elems_per_node, elem_bytes, 0, probe)
}

/// [`analyze_cached`] under a degradation/health `epoch` (see
/// [`build_cached_at_epoch`]).
///
/// # Errors
///
/// Whatever [`build_cached`] returns.
pub fn analyze_cached_at_epoch(
    kind: CollectiveKind,
    geometry: &PimGeometry,
    elems_per_node: usize,
    elem_bytes: u32,
    epoch: u64,
    probe: &Probe,
) -> Result<Arc<AnalysisSummary>, PimnetError> {
    let summary = plain_summary_at_epoch(kind, geometry, elems_per_node, elem_bytes, epoch)?;
    record_lint_event(
        codes::LINT_FULL,
        kind,
        geometry.total_dpus(),
        summary.steps() as u64,
        summary.report.error_count() as u64,
        probe,
    );
    Ok(summary)
}

/// Verifies (or recalls the verification of) a *composed* schedule
/// (per-tier [`Composition`] + chunk split): a full four-pass
/// [`AnalysisSummary`] whose report is byte-identical to
/// [`crate::analysis::run_all`] on the built schedule. This is the
/// autotuner's proof path: every candidate it prices first passes
/// through here, and warm hits make re-tuning (or re-admitting) cheap.
/// Emits one `lint-full` trace event per call.
///
/// # Errors
///
/// Whatever [`build_composed_cached`] returns.
pub fn analyze_composed_cached(
    kind: CollectiveKind,
    geometry: &PimGeometry,
    elems_per_node: usize,
    elem_bytes: u32,
    comp: Composition,
    chunks: usize,
    probe: &Probe,
) -> Result<Arc<AnalysisSummary>, PimnetError> {
    let key = Key {
        kind,
        geometry: *geometry,
        elems_per_node,
        elem_bytes,
        repair: EMPTY_FAULTS,
        repaired: false,
        epoch: 0,
        boost: false,
        algo: composed_algo_code(comp, chunks),
    };
    let entry = lint_get_or_build(key, || {
        let schedule =
            build_composed_cached(kind, geometry, elems_per_node, elem_bytes, comp, chunks)?;
        Ok(LintEntry {
            summary: Arc::new(analysis::verify_full_arc(schedule)),
            delta: None,
        })
    })?;
    let summary = entry.summary.clone();
    record_lint_event(
        codes::LINT_FULL,
        kind,
        geometry.total_dpus(),
        summary.steps() as u64,
        summary.report.error_count() as u64,
        probe,
    );
    Ok(summary)
}

/// Verifies (or recalls the verification of) the *repaired* schedule for
/// `kind` under `faults`, by delta re-lint against the cached base
/// summary: only the steps the repair dirtied (and their
/// state-dependent suffix) are re-proven. The returned report is
/// byte-identical to a from-scratch [`crate::analysis::run_all`] of the
/// repaired schedule. Emits one `lint-delta` trace event per call, whose
/// arguments come from the cached [`DeltaStats`] — identical on hits and
/// misses.
///
/// # Errors
///
/// Whatever [`build_cached`] or [`repair`](super::repair::repair) return.
pub fn analyze_repaired_cached_at_epoch(
    kind: CollectiveKind,
    geometry: &PimGeometry,
    elems_per_node: usize,
    elem_bytes: u32,
    faults: &PermanentFaultSet,
    epoch: u64,
    probe: &Probe,
) -> Result<(Arc<AnalysisSummary>, DeltaStats), PimnetError> {
    let key = Key {
        kind,
        geometry: *geometry,
        elems_per_node,
        elem_bytes,
        repair: fault_fingerprint(faults),
        repaired: true,
        epoch,
        boost: false,
        algo: PAPER_ALGO,
    };
    let entry = lint_get_or_build(key, || {
        let base = plain_summary_at_epoch(kind, geometry, elems_per_node, elem_bytes, epoch)?;
        let repaired = repair_cached_at_epoch(
            kind,
            geometry,
            elems_per_node,
            elem_bytes,
            faults,
            epoch,
            Probe::disabled(),
        )?;
        let (summary, delta) = analysis::reverify_repair(&base, &repaired);
        Ok(LintEntry {
            summary: Arc::new(summary),
            delta: Some(delta),
        })
    })?;
    let delta = entry.delta.unwrap_or_default();
    record_lint_event(
        codes::LINT_DELTA,
        kind,
        geometry.total_dpus(),
        delta.reused() as u64,
        delta.relinted as u64,
        probe,
    );
    Ok((entry.summary.clone(), delta))
}

/// Running analysis-cache counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LintCacheStats {
    /// Analyze calls answered from the cache.
    pub hits: u64,
    /// Analyze calls that had to (re-)prove a schedule.
    pub misses: u64,
}

/// Current analysis-cache counters.
#[must_use]
pub fn lint_stats() -> LintCacheStats {
    LintCacheStats {
        hits: LINT_HITS.load(Ordering::Relaxed),
        misses: LINT_MISSES.load(Ordering::Relaxed),
    }
}

/// Current counters.
#[must_use]
pub fn stats() -> CacheStats {
    CacheStats {
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
        schedules_built: BUILT.load(Ordering::Relaxed),
    }
}

/// Zeroes the counters (the cached entries stay).
pub fn reset_stats() {
    HITS.store(0, Ordering::Relaxed);
    MISSES.store(0, Ordering::Relaxed);
    BUILT.store(0, Ordering::Relaxed);
    LINT_HITS.store(0, Ordering::Relaxed);
    LINT_MISSES.store(0, Ordering::Relaxed);
}

/// Drops every cached schedule and analysis summary (counters stay).
/// Benchmarks use this to measure cold-cache builds.
pub fn clear() {
    lock_table().clear();
    lock_lint_table().clear();
}

/// Serializes the tests of this crate that share the process-global
/// cache. A test that clears the tables or asserts an exact counter delta
/// holds [`test_lock::exclusive`]; every other test that reaches the
/// cache holds [`test_lock::shared`], so no sibling builds or clears
/// underneath a counter assertion.
#[cfg(test)]
pub(crate) mod test_lock {
    use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

    static LOCK: RwLock<()> = RwLock::new(());

    /// Sole use of the cache and its counters.
    pub(crate) fn exclusive() -> RwLockWriteGuard<'static, ()> {
        LOCK.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Use of the cache alongside other non-counting tests.
    pub(crate) fn shared() -> RwLockReadGuard<'static, ()> {
        LOCK.read().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g(n: u32) -> PimGeometry {
        PimGeometry::paper_scaled(n)
    }

    #[test]
    fn hit_returns_the_same_validated_schedule() {
        let _cache = test_lock::exclusive();
        clear();
        let a = build_cached(CollectiveKind::AllReduce, &g(16), 96, 4).unwrap();
        let before = stats();
        let b = build_cached(CollectiveKind::AllReduce, &g(16), 96, 4).unwrap();
        let after = stats();
        assert!(Arc::ptr_eq(&a, &b), "hit must share the entry");
        assert_eq!(after.hits, before.hits + 1);
        assert_eq!(after.schedules_built, before.schedules_built);
        // Structurally equal to a fresh, uncached build.
        let fresh = CommSchedule::build(CollectiveKind::AllReduce, &g(16), 96, 4).unwrap();
        assert_eq!(*a, fresh);
    }

    #[test]
    fn distinct_parameters_do_not_collide() {
        let _cache = test_lock::exclusive();
        clear();
        let a = build_cached(CollectiveKind::AllReduce, &g(8), 64, 4).unwrap();
        let b = build_cached(CollectiveKind::AllGather, &g(8), 64, 4).unwrap();
        let c = build_cached(CollectiveKind::AllReduce, &g(8), 65, 4).unwrap();
        let d = build_cached(CollectiveKind::AllReduce, &g(8), 64, 8).unwrap();
        assert_ne!(*a, *b);
        assert_ne!(*a, *c);
        assert_ne!(*a, *d);
    }

    #[test]
    fn errors_are_not_cached() {
        let _cache = test_lock::exclusive();
        clear();
        let bad = build_cached(CollectiveKind::AllReduce, &g(8), 64, 0);
        assert!(bad.is_err());
        assert!(build_cached(CollectiveKind::AllReduce, &g(8), 64, 4).is_ok());
    }

    #[test]
    fn fingerprint_is_stable_and_discriminating() {
        let empty = PermanentFaultSet::none();
        assert_eq!(fault_fingerprint(&empty), EMPTY_FAULTS);
        let a = PermanentFaultSet::parse_tokens("r0c0b1E,r0c1tx").unwrap();
        let b = PermanentFaultSet::parse_tokens("r0c1tx,r0c0b1E").unwrap();
        assert_eq!(
            fault_fingerprint(&a),
            fault_fingerprint(&b),
            "token order is canonicalized by the BTreeSets"
        );
        let c = PermanentFaultSet::parse_tokens("r0c0b1W").unwrap();
        assert_ne!(fault_fingerprint(&a), fault_fingerprint(&c));
        let d = PermanentFaultSet::parse_tokens("rank1").unwrap();
        assert_ne!(fault_fingerprint(&c), fault_fingerprint(&d));
    }

    #[test]
    fn repair_cached_matches_a_fresh_repair() {
        let _cache = test_lock::exclusive();
        clear();
        let faults = PermanentFaultSet::parse_tokens("r0c0b2E").unwrap();
        let a = repair_cached(CollectiveKind::AllReduce, &g(8), 128, 4, &faults).unwrap();
        let b = repair_cached(CollectiveKind::AllReduce, &g(8), 128, 4, &faults).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let base = CommSchedule::build(CollectiveKind::AllReduce, &g(8), 128, 4).unwrap();
        let fresh = super::super::repair::repair(&base, &faults).unwrap();
        assert_eq!(*a, fresh);
        // The fault-free fingerprint shares the plain builder's key space
        // but the entry kinds do not collide.
        let plain = build_cached(CollectiveKind::AllReduce, &g(8), 128, 4).unwrap();
        let identity = repair_cached(
            CollectiveKind::AllReduce,
            &g(8),
            128,
            4,
            &PermanentFaultSet::none(),
        );
        assert!(identity.is_ok());
        assert_eq!(identity.unwrap().schedule, *plain);
    }

    #[test]
    fn boost_entries_do_not_collide_with_plain() {
        let _cache = test_lock::exclusive();
        clear();
        let plain = build_cached(CollectiveKind::AllReduce, &g(64), 97, 4).unwrap();
        let built_before = stats().schedules_built;
        let boosted = boost_cached(CollectiveKind::AllReduce, &g(64), 97, 4).unwrap();
        assert_eq!(
            stats().schedules_built,
            built_before + 1,
            "the miss constructs only the boost entry; the full schedule is a hit"
        );
        assert_eq!(
            boosted.total_transfers,
            plain.transfer_count(),
            "the plan was thinned from the same schedule"
        );
        // Warm boost lookups share the entry; the plan matches a fresh
        // thinning of the cached schedule.
        let again = boost_cached(CollectiveKind::AllReduce, &g(64), 97, 4).unwrap();
        assert!(Arc::ptr_eq(&boosted, &again));
        assert_eq!(*boosted, boost::plan(&plain));
    }

    #[test]
    fn health_epoch_separates_replan_entries() {
        let _cache = test_lock::exclusive();
        // Regression: a replan after mid-run quarantine used to share the
        // pre-fault key whenever the fault fingerprints coincided. With
        // the epoch in the key, a quarantined-link replan (epoch > 0) must
        // never be answered from the pre-fault (epoch 0) entry.
        clear();
        let faults = PermanentFaultSet::parse_tokens("r0c0b2E").unwrap();
        let p = Probe::disabled();
        let pre = repair_cached_at_epoch(CollectiveKind::AllReduce, &g(8), 128, 4, &faults, 0, p)
            .unwrap();
        let built_before = stats().schedules_built;
        let post = repair_cached_at_epoch(CollectiveKind::AllReduce, &g(8), 128, 4, &faults, 1, p)
            .unwrap();
        assert!(
            !Arc::ptr_eq(&pre, &post),
            "epoch 1 replan must not return the cached epoch-0 entry"
        );
        assert!(
            stats().schedules_built > built_before,
            "the epoch-1 entry is a fresh build, not a hit"
        );
        // Same epoch still hits.
        let again = repair_cached_at_epoch(CollectiveKind::AllReduce, &g(8), 128, 4, &faults, 1, p)
            .unwrap();
        assert!(Arc::ptr_eq(&post, &again));
        // Plain builds are epoch-separated too, and epoch 0 is the legacy
        // key space.
        let plain0 = build_cached(CollectiveKind::AllReduce, &g(8), 512, 4).unwrap();
        let plain0b =
            build_cached_at_epoch(CollectiveKind::AllReduce, &g(8), 512, 4, 0, p).unwrap();
        assert!(Arc::ptr_eq(&plain0, &plain0b));
        let plain1 = build_cached_at_epoch(CollectiveKind::AllReduce, &g(8), 512, 4, 1, p).unwrap();
        assert!(!Arc::ptr_eq(&plain0, &plain1));
        assert_eq!(*plain0, *plain1, "same parameters build equal schedules");
    }
}
