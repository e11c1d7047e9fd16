//! Serving-time feedback capture: what did we estimate, for which plan?
//!
//! The first stage of the online learning loop.  Every estimate a tenant
//! serves is a *free training signal waiting for a label*: if we remember
//! `(plan signature, estimate)` at serving time, a background policy
//! can later execute a sampled subset through `engine::ExecMode::Count`,
//! compare truth against the recorded estimate, and decide whether the
//! model has drifted.
//!
//! Two pieces, both bounded and sharded so the hot path never blocks on a
//! global lock and memory cannot grow with traffic:
//!
//! * [`FeedbackLog`] — a sharded ring buffer of [`FeedbackRecord`]s.
//!   Writers take one shard mutex (selected by signature bits) for a push
//!   onto a `VecDeque`; when a shard is full the oldest record is
//!   overwritten, never the writer blocked.
//! * [`PlanRegistry`] — a bounded signature → plan map, filled by
//!   [`crate::Session::encode`].  The log stores 8-byte signatures, not
//!   plans; the registry turns a sampled signature back into an executable
//!   [`PlanNode`].  Registered plans are stored with annotations cleared so
//!   ground truth is always *re-measured*, never parroted from a stale
//!   label that rode in on the plan.
//!
//! [`TenantFeedback`] bundles one of each per tenant; the catalog attaches
//! it behind an `RwLock<Option<Arc<..>>>` so tenants that never opt in pay
//! a single uncontended read per batch.

use parking_lot::Mutex;
use query::plan::NodeAnnotations;
use query::PlanNode;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One served estimate, as remembered by the [`FeedbackLog`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FeedbackRecord {
    /// Structural signature of the served plan ([`PlanNode::signature_hash`]
    /// carried through `EncodedPlan::signature`).
    pub signature: u64,
    /// Estimated cost at serving time.
    pub cost: f64,
    /// Estimated cardinality at serving time.
    pub cardinality: f64,
}

/// Number of independently-locked shards.  Requests hash across shards by
/// signature, so concurrent writers from different sessions rarely contend;
/// a power of two keeps shard selection a mask.
const LOG_SHARDS: usize = 8;

struct LogShard {
    buf: VecDeque<FeedbackRecord>,
}

/// A bounded, sharded ring buffer of served-estimate records.
///
/// Total memory is `capacity * size_of::<FeedbackRecord>()` regardless of
/// how much traffic is served: once a shard fills, each push overwrites that
/// shard's oldest record.  [`FeedbackLog::total_recorded`] and
/// [`FeedbackLog::total_overwritten`] expose the pressure so operators can
/// size the log against their sampling cadence.
pub struct FeedbackLog {
    shards: Vec<Mutex<LogShard>>,
    shard_capacity: usize,
    recorded: AtomicU64,
    overwritten: AtomicU64,
}

impl FeedbackLog {
    /// A log holding at most (about) `capacity` records; `capacity` is
    /// rounded up to a multiple of the shard count.
    pub fn new(capacity: usize) -> Self {
        let shard_capacity = capacity.div_ceil(LOG_SHARDS).max(1);
        FeedbackLog {
            shards: (0..LOG_SHARDS)
                .map(|_| Mutex::new(LogShard { buf: VecDeque::with_capacity(shard_capacity) }))
                .collect(),
            shard_capacity,
            recorded: AtomicU64::new(0),
            overwritten: AtomicU64::new(0),
        }
    }

    #[inline]
    fn shard_of(&self, signature: u64) -> &Mutex<LogShard> {
        // Bits 0–2 xor bits 32–34, the same fold as the plan registry's; the
        // sharded caches pick their shards from bits 32–35.
        let idx = ((signature >> 32) ^ signature) as usize & (LOG_SHARDS - 1);
        &self.shards[idx]
    }

    /// Record one served estimate.  O(1), one shard mutex, never blocks on
    /// capacity: the shard's oldest record is overwritten instead.
    pub fn record(&self, record: FeedbackRecord) {
        let mut shard = self.shard_of(record.signature).lock();
        if shard.buf.len() >= self.shard_capacity {
            shard.buf.pop_front();
            self.overwritten.fetch_add(1, Ordering::Relaxed);
        }
        shard.buf.push_back(record);
        drop(shard);
        self.recorded.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a whole served batch.  Records are grouped by shard first so
    /// the batch costs at most one lock per *shard* (not per record) and two
    /// counter updates total — the difference between ~1% and ~10% overhead
    /// when the serving path is all cache hits.
    pub fn record_batch<'a>(&self, estimates: impl IntoIterator<Item = (&'a u64, &'a (f64, f64))>) {
        let mut grouped: [Vec<FeedbackRecord>; LOG_SHARDS] = Default::default();
        let mut total = 0u64;
        for (&signature, &(cost, cardinality)) in estimates {
            let idx = ((signature >> 32) ^ signature) as usize & (LOG_SHARDS - 1);
            grouped[idx].push(FeedbackRecord { signature, cost, cardinality });
            total += 1;
        }
        let mut overwritten = 0u64;
        for (records, mutex) in grouped.iter().zip(&self.shards) {
            if records.is_empty() {
                continue;
            }
            let mut shard = mutex.lock();
            for &record in records {
                if shard.buf.len() >= self.shard_capacity {
                    shard.buf.pop_front();
                    overwritten += 1;
                }
                shard.buf.push_back(record);
            }
        }
        if total > 0 {
            self.recorded.fetch_add(total, Ordering::Relaxed);
        }
        if overwritten > 0 {
            self.overwritten.fetch_add(overwritten, Ordering::Relaxed);
        }
    }

    /// Take every currently-held record out of the log (the sampling
    /// policy's consumption step).  Shards are drained one at a time, so
    /// records racing in during the drain land in the next cycle.
    pub fn drain(&self) -> Vec<FeedbackRecord> {
        let mut out = Vec::new();
        for shard in &self.shards {
            out.extend(shard.lock().buf.drain(..));
        }
        out
    }

    /// Number of records currently held.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().buf.len()).sum()
    }

    /// True when no records are held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Upper bound on records held at any instant.
    pub fn capacity(&self) -> usize {
        self.shard_capacity * LOG_SHARDS
    }

    /// Total records ever pushed (including later-overwritten ones).
    pub fn total_recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Records lost to ring overwrite since creation.
    pub fn total_overwritten(&self) -> u64 {
        self.overwritten.load(Ordering::Relaxed)
    }
}

/// A bounded signature → plan map: the bridge from an 8-byte log record back
/// to an executable plan.
///
/// Inserts are first-writer-wins and stop once the registry is full (new
/// signatures are simply not remembered until space frees up via
/// [`PlanRegistry::remove`]); signatures are structural hashes, so the plan
/// under a signature never changes and overwriting would be pure churn.
pub struct PlanRegistry {
    shards: Vec<Mutex<HashMap<u64, Arc<PlanNode>>>>,
    capacity: usize,
    len: AtomicU64,
}

/// Shard count for the registry; see [`LOG_SHARDS`].
const REGISTRY_SHARDS: usize = 8;

impl PlanRegistry {
    /// A registry remembering at most `capacity` distinct plans.
    pub fn new(capacity: usize) -> Self {
        PlanRegistry {
            shards: (0..REGISTRY_SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            capacity,
            len: AtomicU64::new(0),
        }
    }

    #[inline]
    fn shard_of(&self, signature: u64) -> &Mutex<HashMap<u64, Arc<PlanNode>>> {
        let idx = ((signature >> 32) ^ signature) as usize & (REGISTRY_SHARDS - 1);
        &self.shards[idx]
    }

    /// Remember `plan` under `signature` unless the signature is already
    /// registered or the registry is full.  The stored copy has **all
    /// annotations cleared**: a sampled plan must be re-executed for ground
    /// truth, not trusted to carry an up-to-date label from whenever it was
    /// first seen.  Returns whether the plan was newly inserted.
    pub fn register(&self, signature: u64, plan: &PlanNode) -> bool {
        if self.len.load(Ordering::Relaxed) >= self.capacity as u64 {
            return false;
        }
        let mut shard = self.shard_of(signature).lock();
        match shard.entry(signature) {
            Entry::Occupied(_) => false,
            Entry::Vacant(slot) => {
                let mut clean = plan.clone();
                clean.visit_postorder_mut(&mut |n| n.annotations = NodeAnnotations::default());
                slot.insert(Arc::new(clean));
                self.len.fetch_add(1, Ordering::Relaxed);
                true
            }
        }
    }

    /// Look up the plan registered under `signature`.
    pub fn get(&self, signature: u64) -> Option<Arc<PlanNode>> {
        self.shard_of(signature).lock().get(&signature).cloned()
    }

    /// Forget a signature, freeing capacity.
    pub fn remove(&self, signature: u64) -> bool {
        let removed = self.shard_of(signature).lock().remove(&signature).is_some();
        if removed {
            self.len.fetch_sub(1, Ordering::Relaxed);
        }
        removed
    }

    /// Number of registered plans.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed) as usize
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum number of registered plans.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

/// Capacity knobs for a tenant's feedback capture.
#[derive(Debug, Clone, Copy)]
pub struct FeedbackConfig {
    /// Ring-buffer capacity of the served-estimate log.
    pub log_capacity: usize,
    /// Maximum distinct plans remembered for ground-truth execution.
    pub registry_capacity: usize,
}

impl Default for FeedbackConfig {
    fn default() -> Self {
        FeedbackConfig { log_capacity: 4096, registry_capacity: 1024 }
    }
}

/// Per-tenant feedback capture state: the served-estimate log plus the plan
/// registry that makes sampled signatures executable again.
pub struct TenantFeedback {
    log: FeedbackLog,
    registry: PlanRegistry,
}

impl TenantFeedback {
    /// Fresh capture state with the given bounds.
    pub fn new(config: FeedbackConfig) -> Self {
        TenantFeedback {
            log: FeedbackLog::new(config.log_capacity),
            registry: PlanRegistry::new(config.registry_capacity),
        }
    }

    /// The served-estimate log.
    pub fn log(&self) -> &FeedbackLog {
        &self.log
    }

    /// The signature → plan registry.
    pub fn registry(&self) -> &PlanRegistry {
        &self.registry
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use query::PhysicalOp;

    fn record(signature: u64) -> FeedbackRecord {
        FeedbackRecord { signature, cost: 10.0, cardinality: 20.0 }
    }

    #[test]
    fn log_round_trips_records() {
        let log = FeedbackLog::new(64);
        log.record(FeedbackRecord { signature: 7, cost: 1.5, cardinality: 2.5 });
        assert_eq!(log.len(), 1);
        let drained = log.drain();
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].signature, 7);
        assert!(log.is_empty(), "drain must empty the log");
        assert_eq!(log.total_recorded(), 1);
    }

    #[test]
    fn log_memory_is_bounded_under_overflow() {
        let log = FeedbackLog::new(32);
        let cap = log.capacity();
        for sig in 0..10_000u64 {
            log.record(record(sig));
        }
        assert!(log.len() <= cap, "log held {} records, capacity {cap}", log.len());
        assert_eq!(log.total_recorded(), 10_000);
        assert_eq!(log.total_overwritten() as usize, 10_000 - log.len());
        // Ring semantics: what survives is the newest traffic, not the oldest.
        let min_surviving = log.drain().iter().map(|r| r.signature).min().unwrap();
        assert!(min_surviving > 1_000, "oldest records must have been overwritten, found {min_surviving}");
    }

    #[test]
    fn log_concurrent_writers_lose_nothing_under_capacity() {
        let log = Arc::new(FeedbackLog::new(100_000));
        const WRITERS: u64 = 8;
        const PER_WRITER: u64 = 2_000;
        std::thread::scope(|scope| {
            for w in 0..WRITERS {
                let log = Arc::clone(&log);
                scope.spawn(move || {
                    for i in 0..PER_WRITER {
                        log.record(record(w * PER_WRITER + i));
                    }
                });
            }
        });
        assert_eq!(log.total_recorded(), WRITERS * PER_WRITER);
        assert_eq!(log.total_overwritten(), 0);
        let mut sigs: Vec<u64> = log.drain().iter().map(|r| r.signature).collect();
        sigs.sort_unstable();
        sigs.dedup();
        assert_eq!(sigs.len() as u64, WRITERS * PER_WRITER, "concurrent records must not clobber each other");
    }

    #[test]
    fn log_concurrent_writers_stay_bounded_over_capacity() {
        let log = Arc::new(FeedbackLog::new(64));
        std::thread::scope(|scope| {
            for w in 0..8u64 {
                let log = Arc::clone(&log);
                scope.spawn(move || {
                    for i in 0..5_000 {
                        log.record(record(w * 5_000 + i));
                    }
                });
            }
        });
        assert!(log.len() <= log.capacity());
        assert_eq!(log.total_recorded(), 40_000);
    }

    #[test]
    fn registry_is_bounded_and_first_writer_wins() {
        let plan_a = PlanNode::leaf(PhysicalOp::SeqScan { table: "title".into(), predicate: None });
        let plan_b = PlanNode::leaf(PhysicalOp::SeqScan { table: "movie_companies".into(), predicate: None });
        let reg = PlanRegistry::new(4);
        assert!(reg.register(1, &plan_a));
        assert!(!reg.register(1, &plan_b), "re-registering a signature must be a no-op");
        assert_eq!(reg.get(1).unwrap().op, plan_a.op);
        for sig in 2..=4 {
            assert!(reg.register(sig, &plan_b));
        }
        assert!(!reg.register(99, &plan_a), "a full registry must refuse new plans");
        assert_eq!(reg.len(), 4);
        assert!(reg.get(99).is_none());
        // Removing frees capacity for a new signature.
        assert!(reg.remove(2));
        assert!(reg.register(99, &plan_a));
        assert_eq!(reg.len(), 4);
    }

    #[test]
    fn registry_clears_annotations_on_register() {
        let mut plan = PlanNode::leaf(PhysicalOp::SeqScan { table: "title".into(), predicate: None });
        plan.annotations.true_cardinality = Some(123.0);
        plan.annotations.true_cost = Some(456.0);
        let reg = PlanRegistry::new(4);
        reg.register(1, &plan);
        let stored = reg.get(1).unwrap();
        assert_eq!(stored.annotations, NodeAnnotations::default(), "stale labels must not survive registration");
    }
}
