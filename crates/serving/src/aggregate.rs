//! Cross-session batch aggregation (the admission layer).
//!
//! A DP enumerator asks for estimates in bursts; with several optimizer
//! sessions of the same tenant running concurrently, each burst alone
//! under-fills the blocked matmul kernels.  [`BatchAggregator`] coalesces:
//! the first session to arrive becomes the *leader*, drains every request
//! queued at that moment into one [`ServingEstimator::estimate_encoded_batch`]
//! call over the tenant's owned handle, and distributes the
//! per-request result slices; sessions arriving while a wave is in flight
//! queue for the next wave.  Identical subtrees across sessions deduplicate
//! inside the coalesced batch (and against the shared subtree cache), so
//! the aggregated call does close to one session's work for many sessions'
//! requests.
//!
//! Results are **bit-identical** to each session estimating alone: the
//! memoized batch path is column-independent (pinned by
//! `memoized_inference_is_bit_identical_*` in `estimator_core`), so
//! coalescing changes only the wall-clock, never a value.

use estimator_core::ServingEstimator;
use featurize::EncodedPlan;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// A borrowed plan slice smuggled across the leader thread.
///
/// Safety: the requesting session blocks inside [`BatchAggregator::estimate`]
/// until its [`ResultSlot`] is delivered, so the slice is alive for as long
/// as any other thread can observe this pointer; `EncodedPlan` is `Sync`,
/// so the leader may read it from another thread.
struct PlanSlice {
    ptr: *const EncodedPlan,
    len: usize,
}

unsafe impl Send for PlanSlice {}

impl PlanSlice {
    fn as_slice(&self) -> &[EncodedPlan] {
        // Safety: see the type-level invariant above.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

/// One session's parked request: where its plans are and where its results
/// go.
struct Request {
    plans: PlanSlice,
    result: Arc<ResultSlot>,
}

enum SlotState {
    Pending,
    Ready(Vec<(f64, f64)>),
    /// The serving leader panicked before delivering this request.
    Failed,
}

struct ResultSlot {
    filled: Mutex<SlotState>,
    cv: Condvar,
}

impl Default for ResultSlot {
    fn default() -> Self {
        ResultSlot { filled: Mutex::new(SlotState::Pending), cv: Condvar::new() }
    }
}

impl ResultSlot {
    fn set(&self, state: SlotState) {
        // `unwrap_or_else(into_inner)`: a waiter cannot poison this mutex
        // (it never panics while holding it), but ignoring poison keeps the
        // unwind path itself panic-free.
        *self.filled.lock().unwrap_or_else(|e| e.into_inner()) = state;
        self.cv.notify_all();
    }

    fn wait_take(&self) -> Vec<(f64, f64)> {
        let mut guard = self.filled.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            match std::mem::replace(&mut *guard, SlotState::Pending) {
                SlotState::Ready(v) => return v,
                SlotState::Failed => panic!("aggregator leader panicked while serving this request's wave"),
                SlotState::Pending => guard = self.cv.wait(guard).unwrap_or_else(|e| e.into_inner()),
            }
        }
    }
}

#[derive(Default)]
struct AggState {
    pending: Vec<Request>,
    leader_active: bool,
}

/// Coalesces concurrent same-tenant estimate requests into single
/// level-batched memoized inference calls over one owned serving handle.
pub struct BatchAggregator {
    serving: ServingEstimator,
    state: Mutex<AggState>,
    waves: AtomicU64,
}

/// Wave counters for one aggregator (monotonic since construction).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaveStats {
    /// Coalesced waves served.
    pub waves: u64,
}

impl BatchAggregator {
    /// An aggregator over one tenant's owned serving handle (results
    /// bit-identical to un-coalesced serving).
    pub fn new(serving: ServingEstimator) -> Self {
        BatchAggregator { serving, state: Mutex::new(AggState::default()), waves: AtomicU64::new(0) }
    }

    /// Wave counters (how many waves this aggregator served).
    pub fn wave_stats(&self) -> WaveStats {
        WaveStats { waves: self.waves.load(Ordering::Relaxed) }
    }

    /// The underlying owned serving handle (hit-rate reporting, direct
    /// un-aggregated calls).
    pub fn serving(&self) -> &ServingEstimator {
        &self.serving
    }

    /// Estimate `(cost, cardinality)` for each plan, in order — possibly
    /// coalesced with other sessions' concurrent requests into one batched
    /// inference call.  Blocks until this request's results are ready.
    /// Bit-identical to `serving().estimate_encoded_batch` on the same
    /// plans.
    pub fn estimate(&self, plans: &[EncodedPlan]) -> Vec<(f64, f64)> {
        if plans.is_empty() {
            return Vec::new();
        }
        let slot = Arc::new(ResultSlot::default());
        let became_leader = {
            let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
            st.pending.push(Request {
                plans: PlanSlice { ptr: plans.as_ptr(), len: plans.len() },
                result: Arc::clone(&slot),
            });
            if st.leader_active {
                false
            } else {
                st.leader_active = true;
                true
            }
        };
        if became_leader {
            // Serve waves until the queue drains; the first wave contains
            // this thread's own request.  Leadership is handed off through
            // `leader_active`: a session enqueueing after the final drain
            // sees it false and leads its own wave.
            //
            // The guard covers a leader panic (e.g. inside inference):
            // without it, `leader_active` would stay true forever and every
            // queued waiter — plus all future sessions — would block
            // permanently behind a leader that no longer exists.  On unwind
            // the guard releases leadership and fails the undelivered
            // slots, so waiters propagate the panic instead of hanging.
            let mut guard = LeaderGuard { aggregator: self, wave: Vec::new(), armed: true };
            loop {
                guard.wave = {
                    let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
                    if st.pending.is_empty() {
                        st.leader_active = false;
                        break;
                    }
                    std::mem::take(&mut st.pending)
                };
                let refs: Vec<&EncodedPlan> = guard.wave.iter().flat_map(|r| r.plans.as_slice()).collect();
                self.waves.fetch_add(1, Ordering::Relaxed);
                let results = self.serving.estimate_encoded_batch(&refs);
                let mut offset = 0;
                for req in guard.wave.drain(..) {
                    let n = req.plans.len;
                    req.result.set(SlotState::Ready(results[offset..offset + n].to_vec()));
                    offset += n;
                }
            }
            guard.armed = false;
        }
        slot.wait_take()
    }
}

/// Unwind protection for the aggregation leader: on a panic mid-wave,
/// release leadership and fail the in-flight and still-queued requests so
/// their sessions unblock (and re-panic) instead of waiting forever.
struct LeaderGuard<'a> {
    aggregator: &'a BatchAggregator,
    wave: Vec<Request>,
    armed: bool,
}

impl Drop for LeaderGuard<'_> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        for req in self.wave.drain(..) {
            req.result.set(SlotState::Failed);
        }
        let mut st = self.aggregator.state.lock().unwrap_or_else(|e| e.into_inner());
        st.leader_active = false;
        for req in st.pending.drain(..) {
            req.result.set(SlotState::Failed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use engine::{execute_plan, CostModel};
    use estimator_core::{CostEstimator, ModelConfig, TrainConfig};
    use featurize::{EncodingConfig, FeatureExtractor};
    use imdb::{generate_imdb, GeneratorConfig};
    use query::{CompareOp, JoinPredicate, Operand, PhysicalOp, PlanNode, Predicate};
    use strembed::HashBitmapEncoder;

    fn fitted_estimator() -> (CostEstimator, Vec<EncodedPlan>, Arc<imdb::Database>, Vec<PlanNode>) {
        let db = Arc::new(generate_imdb(GeneratorConfig::tiny()));
        let cfg = EncodingConfig::from_database(&db, 8, 32);
        let fx = FeatureExtractor::new(db.clone(), cfg, Arc::new(HashBitmapEncoder::new(8)));
        let mut est = CostEstimator::new(
            fx,
            ModelConfig { feature_embed_dim: 8, hidden_dim: 12, estimation_hidden_dim: 8, ..Default::default() },
            TrainConfig { epochs: 2, batch_size: 8, ..Default::default() },
        );
        let cost = CostModel::default();
        let plans: Vec<PlanNode> = (0..24)
            .map(|i| {
                let scan_t = PlanNode::leaf(PhysicalOp::SeqScan {
                    table: "title".into(),
                    predicate: Some(Predicate::atom(
                        "title",
                        "production_year",
                        CompareOp::Gt,
                        Operand::Num((1940 + i * 2) as f64),
                    )),
                });
                let scan_mc = PlanNode::leaf(PhysicalOp::SeqScan { table: "movie_companies".into(), predicate: None });
                let mut join = PlanNode::inner(
                    PhysicalOp::HashJoin {
                        condition: JoinPredicate::new("movie_companies", "movie_id", "title", "id"),
                    },
                    vec![scan_t, scan_mc],
                );
                execute_plan(&db, &mut join, &cost);
                join
            })
            .collect();
        est.fit(&plans);
        let encoded: Vec<EncodedPlan> = plans.iter().map(|p| est.encode(p)).collect();
        (est, encoded, db, plans)
    }

    #[test]
    fn aggregated_results_are_bit_identical_to_direct() {
        let (est, encoded, ..) = fitted_estimator();
        let direct = est.estimate_encoded_batch(&encoded);
        let agg = BatchAggregator::new(est.serving());
        let coalesced = agg.estimate(&encoded);
        let bits = |v: &[(f64, f64)]| v.iter().map(|(c, k)| (c.to_bits(), k.to_bits())).collect::<Vec<_>>();
        assert_eq!(bits(&coalesced), bits(&direct));
        assert!(agg.estimate(&[]).is_empty());
    }

    #[test]
    fn a_panicking_wave_releases_leadership() {
        let (est, encoded, db, plans) = fitted_estimator();
        // The model was fitted on 32 sample bits; plans encoded with 64 make
        // the first level's embedding panic, as long as the cache is cold
        // (a warm cache would serve their signatures without embedding).
        let wide = FeatureExtractor::new(
            db.clone(),
            EncodingConfig::from_database(&db, 8, 64),
            Arc::new(HashBitmapEncoder::new(8)),
        );
        let malformed: Vec<EncodedPlan> = plans.iter().map(|p| wide.encode_plan(p)).collect();
        let agg = BatchAggregator::new(est.serving());
        let failed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| agg.estimate(&malformed)));
        assert!(failed.is_err(), "a wave of mis-encoded plans must panic on a cold cache");
        // Leadership was released: the next wave is served instead of
        // parking behind a leader that no longer exists.
        let served = agg.estimate(&encoded);
        let direct = est.estimate_encoded_batch(&encoded);
        let bits = |v: &[(f64, f64)]| v.iter().map(|(c, k)| (c.to_bits(), k.to_bits())).collect::<Vec<_>>();
        assert_eq!(bits(&served), bits(&direct));
        assert_eq!(agg.wave_stats().waves, 2);
    }

    #[test]
    fn concurrent_sessions_coalesce_and_each_gets_its_own_slice() {
        let (est, encoded, ..) = fitted_estimator();
        let expected = est.estimate_encoded_batch(&encoded);
        let agg = Arc::new(BatchAggregator::new(est.serving()));
        // 8 sessions, each repeatedly requesting a distinct window of the
        // workload; every response must be that session's own slice.
        std::thread::scope(|scope| {
            for session in 0..8usize {
                let agg = Arc::clone(&agg);
                let encoded = &encoded;
                let expected = &expected;
                scope.spawn(move || {
                    let lo = session * 3;
                    let hi = lo + 3;
                    for _ in 0..20 {
                        let got = agg.estimate(&encoded[lo..hi]);
                        for (g, e) in got.iter().zip(&expected[lo..hi]) {
                            assert_eq!(g.0.to_bits(), e.0.to_bits(), "session {session} got another session's rows");
                            assert_eq!(g.1.to_bits(), e.1.to_bits());
                        }
                    }
                });
            }
        });
    }
}
