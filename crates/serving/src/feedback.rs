//! Serving-time feedback capture: what did we estimate, for which plan?
//!
//! The first stage of the online learning loop.  Every estimate a tenant
//! serves is a *free training signal waiting for a label*: if we remember
//! `(plan signature, estimate)` at serving time, a background policy
//! can later execute a sampled subset through `engine::ExecMode::Count`,
//! compare truth against the recorded estimate, and decide whether the
//! model has drifted.
//!
//! Two pieces, each bounded and behind one mutex, so memory cannot grow
//! with traffic and a served batch takes each lock at most once:
//!
//! * [`FeedbackLog`] — a ring buffer of [`FeedbackRecord`]s.  A served
//!   batch is pushed under one lock; once the ring is full the oldest
//!   record is overwritten, never the writer blocked.
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

use query::plan::NodeAnnotations;
use query::PlanNode;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex, PoisonError};

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

/// The ring and its counters, guarded together by the log's mutex.  Both
/// feedback mutexes are taken through `PoisonError::into_inner`: every step
/// of an update leaves the data valid, so a panic under the lock cannot
/// stop the tenant's capture.
struct Ring {
    records: VecDeque<FeedbackRecord>,
    recorded: u64,
    overwritten: u64,
}

/// A bounded ring buffer of served-estimate records.
///
/// Total memory is `capacity * size_of::<FeedbackRecord>()` regardless of
/// how much traffic is served: the log holds the newest `capacity` records,
/// and once it is full each push overwrites the oldest.
/// [`FeedbackLog::total_recorded`] and [`FeedbackLog::total_overwritten`]
/// expose the pressure so operators can size the log against their
/// sampling cadence.
pub struct FeedbackLog {
    ring: Mutex<Ring>,
    capacity: usize,
}

impl FeedbackLog {
    /// A log holding the newest `capacity` records (at least one).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        let ring = Ring { records: VecDeque::with_capacity(capacity), recorded: 0, overwritten: 0 };
        FeedbackLog { ring: Mutex::new(ring), capacity }
    }

    /// Record a whole served batch, in order, under one lock.  Never blocks
    /// on capacity (the oldest records are overwritten instead) and never
    /// allocates: the ring is sized at construction.
    pub fn record_batch<'a, I>(&self, estimates: I)
    where
        I: IntoIterator<Item = (&'a u64, &'a (f64, f64))>,
    {
        let mut ring = self.ring.lock().unwrap_or_else(PoisonError::into_inner);
        for (&signature, &(cost, cardinality)) in estimates {
            if ring.records.len() == self.capacity {
                ring.records.pop_front();
                ring.overwritten += 1;
            }
            ring.records.push_back(FeedbackRecord { signature, cost, cardinality });
            ring.recorded += 1;
        }
    }

    /// Take every currently-held record out of the log, oldest first (the
    /// sampling policy's consumption step).
    pub fn drain(&self) -> Vec<FeedbackRecord> {
        self.ring.lock().unwrap_or_else(PoisonError::into_inner).records.drain(..).collect()
    }

    /// Number of records currently held.
    pub fn len(&self) -> usize {
        self.ring.lock().unwrap_or_else(PoisonError::into_inner).records.len()
    }

    /// True when no records are held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Upper bound on records held at any instant.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total records ever pushed (including later-overwritten ones).
    pub fn total_recorded(&self) -> u64 {
        self.ring.lock().unwrap_or_else(PoisonError::into_inner).recorded
    }

    /// Records lost to ring overwrite since creation.
    pub fn total_overwritten(&self) -> u64 {
        self.ring.lock().unwrap_or_else(PoisonError::into_inner).overwritten
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
    plans: Mutex<HashMap<u64, Arc<PlanNode>>>,
    capacity: usize,
}

impl PlanRegistry {
    /// A registry remembering at most `capacity` distinct plans.
    pub fn new(capacity: usize) -> Self {
        PlanRegistry { plans: Mutex::new(HashMap::new()), capacity }
    }

    /// Remember `plan` under `signature` unless the signature is already
    /// registered or the registry is full; the bound is checked under the
    /// registry's lock.  The stored copy has **all annotations cleared**: a
    /// sampled plan must be re-executed for ground truth, not trusted to
    /// carry an up-to-date label from whenever it was first seen.  Returns
    /// whether the plan was newly inserted.
    pub fn register(&self, signature: u64, plan: &PlanNode) -> bool {
        let mut plans = self.plans.lock().unwrap_or_else(PoisonError::into_inner);
        if plans.len() >= self.capacity {
            return false;
        }
        let Entry::Vacant(slot) = plans.entry(signature) else {
            return false;
        };
        let mut clean = plan.clone();
        clean.visit_postorder_mut(&mut |n| n.annotations = NodeAnnotations::default());
        slot.insert(Arc::new(clean));
        true
    }

    /// Look up the plan registered under `signature`.
    pub fn get(&self, signature: u64) -> Option<Arc<PlanNode>> {
        self.plans.lock().unwrap_or_else(PoisonError::into_inner).get(&signature).cloned()
    }

    /// Forget a signature, freeing capacity.
    pub fn remove(&self, signature: u64) -> bool {
        self.plans.lock().unwrap_or_else(PoisonError::into_inner).remove(&signature).is_some()
    }

    /// Number of registered plans.
    pub fn len(&self) -> usize {
        self.plans.lock().unwrap_or_else(PoisonError::into_inner).len()
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
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Record one estimate for `signature` as a batch of one.
    fn push(log: &FeedbackLog, signature: u64) {
        log.record_batch([(&signature, &(10.0, 20.0))]);
    }

    #[test]
    fn log_round_trips_records() {
        let log = FeedbackLog::new(64);
        log.record_batch([(&7, &(1.5, 2.5))]);
        assert_eq!(log.len(), 1);
        let drained = log.drain();
        assert_eq!(drained, vec![FeedbackRecord { signature: 7, cost: 1.5, cardinality: 2.5 }]);
        assert!(log.is_empty(), "drain must empty the log");
        assert_eq!(log.total_recorded(), 1);
    }

    /// Batches of 16 mixed signatures overflow a log whose capacity is no
    /// multiple of the batch: it must hold exactly the newest `capacity`
    /// records, in push order.
    #[test]
    fn log_keeps_exactly_the_newest_records_in_push_order() {
        const CAPACITY: usize = 40;
        const PUSHED: usize = 150;
        let log = FeedbackLog::new(CAPACITY);
        let signatures: Vec<u64> = (0..PUSHED as u64).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15)).collect();
        let estimates: Vec<(f64, f64)> = (0..PUSHED).map(|i| (i as f64, 2.0 * i as f64 + 1.0)).collect();
        for (sigs, ests) in signatures.chunks(16).zip(estimates.chunks(16)) {
            log.record_batch(sigs.iter().zip(ests));
        }
        let newest: Vec<FeedbackRecord> = signatures
            .iter()
            .zip(&estimates)
            .skip(PUSHED - CAPACITY)
            .map(|(&signature, &(cost, cardinality))| FeedbackRecord { signature, cost, cardinality })
            .collect();
        assert_eq!(log.total_recorded(), PUSHED as u64);
        assert_eq!(log.total_overwritten(), (PUSHED - CAPACITY) as u64);
        assert_eq!(log.drain(), newest);
    }

    #[test]
    fn log_memory_is_bounded_under_overflow() {
        let log = FeedbackLog::new(32);
        let cap = log.capacity();
        for sig in 0..10_000u64 {
            push(&log, sig);
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
                        push(&log, w * PER_WRITER + i);
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
                        push(&log, w * 5_000 + i);
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

    /// Registrants racing at the bound: each round, eight threads register
    /// distinct signatures into a small registry at once.  The bound must
    /// hold, and every counted plan must resolve.
    #[test]
    fn concurrent_registrants_never_exceed_the_capacity() {
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 16;
        const CAPACITY: usize = 21;
        let plan = PlanNode::leaf(PhysicalOp::SeqScan { table: "title".into(), predicate: None });
        for round in 0..50u64 {
            let reg = PlanRegistry::new(CAPACITY);
            let barrier = std::sync::Barrier::new(THREADS as usize);
            let inserted = AtomicU64::new(0);
            let signature = |t: u64, i: u64| (round << 48 | t << 16 | i).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            std::thread::scope(|scope| {
                for t in 0..THREADS {
                    let (reg, barrier, inserted, plan) = (&reg, &barrier, &inserted, &plan);
                    scope.spawn(move || {
                        barrier.wait();
                        for i in 0..PER_THREAD {
                            if reg.register(signature(t, i), plan) {
                                inserted.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    });
                }
            });
            assert!(reg.len() <= CAPACITY, "round {round}: {} plans in a registry of {CAPACITY}", reg.len());
            assert_eq!(reg.len(), CAPACITY, "round {round}: 128 distinct signatures must fill the registry");
            assert_eq!(inserted.load(Ordering::Relaxed) as usize, reg.len());
            let resolvable = (0..THREADS)
                .flat_map(|t| (0..PER_THREAD).map(move |i| (t, i)))
                .filter(|&(t, i)| reg.get(signature(t, i)).is_some())
                .count();
            assert_eq!(resolvable, reg.len(), "round {round}: every counted plan must resolve");
        }
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
