//! The timed phase: a closed-loop client that blocks on every estimate, with
//! outputs validated, sampled calls re-computed by a memo-free oracle, and
//! spans recorded around each layer call when tracing is on.

use crate::setup::{DriftTraffic, Prepared, Traffic, TENANT};
use crate::stats;
use crate::trace::{self, Span, Tracer};
use estimator_core::{CostEstimator, PlanEstimate};
use featurize::EncodedPlan;
use metrics::q_error;
use query::PlanNode;
use serving::{ModelCatalog, RefreshOutcome, Session};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Every this many calls, outside the timed region, the served
/// estimates are recomputed through the memo-free path and compared bit for
/// bit (1.6% of calls).
pub const CHECK_EVERY: u64 = 64;

/// Past this resident set a client stops issuing calls and counts the calls
/// it would still have made as failed, instead of exhausting the host.
pub const RSS_CEILING_MB: f64 = 8192.0;
const RSS_EVERY: u64 = 256;

/// The drift client asks for a refresh tick every this many calls; a tick
/// still running absorbs the request, and the client never waits for it.
const DRIFT_TICK_EVERY: u64 = 1024;

/// Served q-errors are kept for every this many drift calls.
const QERROR_SAMPLE_EVERY: u64 = 8;

/// Span request ids of refresh ticks start here, apart from call ids.
const TICK_REQUEST_BASE: u64 = 1 << 62;

/// One timed call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Call {
    /// Latency in nanoseconds.
    pub ns: u64,
    pub plans: u64,
}

/// The client's record of a timed phase.
#[derive(Debug, Default)]
struct ClientLog {
    /// Index of the client's next call into its traffic.
    next_call: u64,
    calls: Vec<Call>,
    plans: u64,
    /// `(plans served so far, resident set in MB)`, read as the phase goes.
    rss_track: Vec<(u64, f64)>,
    attempted: u64,
    failed: u64,
    checks: u64,
    skipped: u64,
    served_qerrors: Vec<f64>,
}

impl ClientLog {
    fn record(&mut self, elapsed: Duration, plans: usize, ok: bool) {
        self.calls.push(Call { ns: elapsed.as_nanos() as u64, plans: plans as u64 });
        self.plans += plans as u64;
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// Counters read from the served model and tenant.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Counters {
    pub generation: u64,
    pub encode_hits: u64,
    pub encode_misses: u64,
    pub encode_entries: u64,
    pub bitmap_hits: u64,
    pub bitmap_misses: u64,
    pub nodes_seen: u64,
    pub nodes_computed: u64,
    pub subtree_entries: u64,
    pub waves: u64,
    pub feedback_recorded: u64,
    pub feedback_overwritten: u64,
    /// Whether a hot-swap replaced the model between the two readings.
    pub swapped: bool,
}

impl Counters {
    pub fn read(catalog: &ModelCatalog) -> Counters {
        let model = catalog.current(TENANT).expect("tenant is published");
        let tree = model.tree().expect("tree backend");
        let (encode_hits, encode_misses) = tree.encode_cache().stats();
        let (bitmap_hits, bitmap_misses) = tree.extractor().bitmap_memo_stats();
        let (nodes_seen, nodes_computed) = tree.subtree_cache().node_stats();
        let (feedback_recorded, feedback_overwritten) =
            catalog.feedback(TENANT).map_or((0, 0), |f| (f.log().total_recorded(), f.log().total_overwritten()));
        Counters {
            generation: model.generation(),
            encode_hits,
            encode_misses,
            encode_entries: tree.encode_cache().len() as u64,
            bitmap_hits,
            bitmap_misses,
            nodes_seen,
            nodes_computed,
            subtree_entries: tree.subtree_cache().len() as u64,
            waves: model.aggregator().map_or(0, |a| a.wave_stats().waves),
            feedback_recorded,
            feedback_overwritten,
            swapped: false,
        }
    }

    /// Counts accumulated from `start` to `self`.  Model counters restart
    /// with every hot-swap, so across a swap they cover only the model
    /// serving at the end; entry counts are levels, not deltas.
    pub fn since(&self, start: &Counters) -> Counters {
        let base = if start.generation == self.generation { *start } else { Counters::default() };
        Counters {
            encode_hits: self.encode_hits - base.encode_hits,
            encode_misses: self.encode_misses - base.encode_misses,
            bitmap_hits: self.bitmap_hits - base.bitmap_hits,
            bitmap_misses: self.bitmap_misses - base.bitmap_misses,
            nodes_seen: self.nodes_seen - base.nodes_seen,
            nodes_computed: self.nodes_computed - base.nodes_computed,
            waves: self.waves - base.waves,
            feedback_recorded: self.feedback_recorded - start.feedback_recorded,
            feedback_overwritten: self.feedback_overwritten - start.feedback_overwritten,
            swapped: start.generation != self.generation,
            ..*self
        }
    }
}

/// Slices of a phase hold at least this many calls, so that each slice's
/// p99 has ten samples beyond it.
pub const MIN_SLICE_CALLS: usize = 1000;
const MAX_SLICES: usize = 20;
const BEST_TENTH: f64 = 0.1;

/// Least-disturbed-slice figures of a phase ([`PhaseLog::steady`]).
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Steady {
    pub plans_per_s: f64,
    pub p50_ns: f64,
    pub p99_ns: f64,
}

/// What one timed phase measured.
#[derive(Debug, Default)]
pub struct PhaseLog {
    /// Every timed call, in order.
    pub calls: Vec<Call>,
    pub plans: u64,
    /// Resident set when the phase began and ended, in MB.
    /// Resident-set growth per served plan, in MB: the median over slices
    /// of the phase, so that one-off steps (a vector doubling its buffer)
    /// do not count as the steady rate.
    pub rss_growth_mb_per_plan: f64,
    pub attempted: u64,
    pub failed: u64,
    pub checks: u64,
    pub skipped: u64,
    pub served_qerrors: Vec<f64>,
    /// `(duration, refreshed)` of each refresh tick.
    pub ticks: Vec<(Duration, bool)>,
    pub counters: Counters,
    pub spans: Vec<Span>,
}

impl PhaseLog {
    fn new(client: ClientLog, spans: Vec<Span>, counters: Counters) -> PhaseLog {
        PhaseLog {
            plans: client.plans,
            rss_growth_mb_per_plan: growth_per_plan(&client.rss_track),
            calls: client.calls,
            attempted: client.attempted,
            failed: client.failed,
            checks: client.checks,
            skipped: client.skipped,
            served_qerrors: client.served_qerrors,
            counters,
            spans,
            ..PhaseLog::default()
        }
    }

    /// Throughput and latency of the least disturbed stretch of the phase.
    /// The calls, in completion order, are cut into equal slices of at
    /// least [`MIN_SLICE_CALLS`] (at most [`MAX_SLICES`] slices).  Each
    /// figure is the best-tenth quantile over slices: the 90th percentile
    /// of slice throughput, the 10th percentile of slice p50 and p99.
    /// Neighbours on a shared host slow whole stretches of a run; the
    /// estimate then rests on the stretches they left alone, as a best-of
    /// repetitions would.  A slice's rate is its plans per second spent in
    /// calls.
    pub fn steady(&self) -> Steady {
        let n = self.calls.len();
        let slices = (n / MIN_SLICE_CALLS).clamp(1, MAX_SLICES);
        let (mut rates, mut p50s, mut p99s) = (Vec::new(), Vec::new(), Vec::new());
        for k in 0..slices {
            let slice = &self.calls[k * n / slices..(k + 1) * n / slices];
            if slice.is_empty() {
                continue;
            }
            let mut ns: Vec<u64> = slice.iter().map(|c| c.ns).collect();
            ns.sort_unstable();
            p50s.push(stats::nearest_rank(&ns, 50.0) as f64);
            p99s.push(stats::nearest_rank(&ns, 99.0) as f64);
            let plans: u64 = slice.iter().map(|c| c.plans).sum();
            rates.push(plans as f64 / (ns.iter().sum::<u64>().max(1) as f64 * 1e-9));
        }
        if rates.is_empty() {
            return Steady::default();
        }
        Steady {
            plans_per_s: stats::quantile(&rates, 1.0 - BEST_TENTH),
            p50_ns: stats::quantile(&p50s, BEST_TENTH),
            p99_ns: stats::quantile(&p99s, BEST_TENTH),
        }
    }

    /// Latencies in nanoseconds, ascending.
    pub fn sorted_latencies(&self) -> Vec<u64> {
        let mut ns: Vec<u64> = self.calls.iter().map(|c| c.ns).collect();
        ns.sort_unstable();
        ns
    }
}

/// Resident set and its high-water mark, in MB (0 where `/proc` is absent).
pub fn rss_mb() -> (f64, f64) {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let field = |key: &str| {
        status
            .lines()
            .find_map(|l| l.strip_prefix(key))
            .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map_or(0.0, |kb| kb / 1024.0)
    };
    (field("VmRSS:"), field("VmHWM:"))
}

/// Hand the allocator's free pages back to the operating system, so that a
/// resident-set reading counts live memory and growth shows as growth, not
/// as reuse of what an earlier stage freed.
pub fn release_free_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::os::raw::c_int;
        }
        // SAFETY: glibc's `malloc_trim` takes no pointers and is thread-safe;
        // it only releases heap pages no allocation is using.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Median over up to [`MAX_SLICES`] stretches of `(plans, rss)` readings
/// of the resident-set growth per plan (0 without two readings).
fn growth_per_plan(track: &[(u64, f64)]) -> f64 {
    if track.len() < 2 {
        return 0.0;
    }
    let stretches = (track.len() - 1).min(MAX_SLICES);
    let rates: Vec<f64> = (0..stretches)
        .filter_map(|k| {
            let (p0, r0) = track[k * (track.len() - 1) / stretches];
            let (p1, r1) = track[(k + 1) * (track.len() - 1) / stretches];
            (p1 > p0).then(|| (r1 - r0) / (p1 - p0) as f64)
        })
        .collect();
    if rates.is_empty() {
        0.0
    } else {
        stats::median(&rates).max(0.0)
    }
}

/// Issue calls until `deadline`, reading the resident set as it goes and
/// stopping at the ceiling.
fn closed_loop(deadline: Instant, log: &mut ClientLog, mut call: impl FnMut(u64, &mut ClientLog)) {
    let started = Instant::now();
    let first = log.next_call;
    let mut i = first;
    log.rss_track.push((log.plans, rss_mb().0));
    while Instant::now() < deadline {
        call(i, log);
        i += 1;
        if !i.is_multiple_of(RSS_EVERY) {
            continue;
        }
        let rss = rss_mb().0;
        log.rss_track.push((log.plans, rss));
        if rss > RSS_CEILING_MB {
            let elapsed = started.elapsed().as_secs_f64();
            let remaining = deadline.saturating_duration_since(Instant::now()).as_secs_f64();
            let rest = ((i - first) as f64 * remaining / elapsed).ceil().max(1.0) as u64;
            eprintln!("resident set past {RSS_CEILING_MB} MB: stopping, {rest} calls counted as failed");
            log.attempted += rest;
            log.failed += rest;
            break;
        }
    }
    log.rss_track.push((log.plans, rss_mb().0));
    log.next_call = i;
}

fn pairs(estimates: Vec<PlanEstimate>) -> Option<Vec<(f64, f64)>> {
    estimates.into_iter().map(|e| Some((e.cost?, e.cardinality?))).collect()
}

/// A served batch is usable: one finite, positive estimate per plan.
fn valid(estimates: &Option<Vec<(f64, f64)>>, plans: usize) -> bool {
    estimates.as_ref().is_some_and(|e| {
        e.len() == plans && e.iter().all(|&(c, k)| c.is_finite() && c > 0.0 && k.is_finite() && k > 0.0)
    })
}

fn same_bits(served: &Option<Vec<(f64, f64)>>, expected: &[(f64, f64)]) -> bool {
    served.as_ref().is_some_and(|s| {
        s.len() == expected.len()
            && s.iter().zip(expected).all(|(a, b)| a.0.to_bits() == b.0.to_bits() && a.1.to_bits() == b.1.to_bits())
    })
}

/// The oracle: fresh per-plan featurization with the bitmap memo off, then
/// the level-batched forward pass with no subtree memo, in groups of the
/// batch path's size so it stays on this thread.
pub fn fresh_estimates(tree: &CostEstimator, plans: &[PlanNode]) -> Vec<(f64, f64)> {
    let mut fx = tree.extractor().clone();
    fx.use_bitmap_memo = false;
    let fresh: Vec<EncodedPlan> = plans.iter().map(|p| fx.encode_plan(p)).collect();
    fresh.chunks(estimator_core::batch::GROUP_SIZE).flat_map(|c| tree.estimate_encoded_batch(c)).collect()
}

/// `Session::estimate_plans` split into the calls `estimate_many` makes.
fn traced_estimate_plans(
    session: &Session,
    plans: &[PlanNode],
    t: &mut Tracer,
    root: usize,
) -> Option<Vec<(f64, f64)>> {
    let model = t.span("serving.pin", root, || session.model())?;
    let tree = model.tree()?;
    let encoded = t.span("featurize.encode", root, || tree.encode_plans(plans));
    let refs: Vec<&EncodedPlan> = encoded.iter().map(|e| e.as_ref()).collect();
    let serving = tree.serving();
    Some(t.span("core.estimate", root, || serving.estimate_encoded_batch(&refs)))
}

/// `Session::encode` split into pin and featurization, then
/// `Session::estimate_encoded` of the one plan.
fn traced_plan_at_a_time(session: &Session, plan: &PlanNode, t: &mut Tracer, root: usize) -> Option<Vec<(f64, f64)>> {
    let model = t.span("serving.pin", root, || session.model())?;
    let tree = model.tree()?;
    let encoded = t.span("featurize.encode", root, || tree.encode(plan));
    t.span("serving.estimate_encoded", root, || session.estimate_encoded(std::slice::from_ref(&encoded)))
}

fn traced_drift(session: &Session, plans: &[PlanNode], t: &mut Tracer, root: usize) -> Option<Vec<(f64, f64)>> {
    let encoded = t.span("serving.encode_batch", root, || session.encode_batch(plans))?;
    t.span("serving.estimate_encoded", root, || session.estimate_encoded(&encoded))
}

/// Run one traced or untraced call: `untraced` is the public front door,
/// `traced` the same work split into spans under a `serving.call` root.
fn call<R>(
    tracer: Option<&mut Tracer>,
    request: u64,
    untraced: impl FnOnce() -> R,
    traced: impl FnOnce(&mut Tracer, usize) -> R,
) -> (R, Duration) {
    let start = Instant::now();
    let out = match tracer {
        None => untraced(),
        Some(t) => {
            let root = t.begin("serving.call", None, request);
            let out = traced(t, root);
            t.end(root);
            out
        }
    };
    (out, start.elapsed())
}

/// Serve the prepared workload for `duration`, traced or not, on the
/// calling thread, which set the workload up and so holds its warm
/// inference tape.
pub fn serve(prepared: &mut Prepared, duration: Duration, traced: bool) -> PhaseLog {
    let catalog = &prepared.catalog;
    release_free_memory();
    let start_counters = Counters::read(catalog);
    let epoch = Instant::now();
    let deadline = epoch + duration;
    let mut log = ClientLog { next_call: prepared.next_call, ..ClientLog::default() };
    let mut tracer = traced.then(|| Tracer::new(epoch));
    let (ticks, tick_spans) = match &mut prepared.traffic {
        Traffic::CandidateSets(sets) => {
            serve_candidate_sets(catalog, sets, deadline, &mut log, &mut tracer);
            (Vec::new(), None)
        }
        Traffic::Plans(plans) => {
            serve_plans(catalog, plans, deadline, &mut log, &mut tracer);
            (Vec::new(), None)
        }
        Traffic::Drift(drift) => serve_drift(catalog, drift, epoch, deadline, &mut log, &mut tracer),
    };
    let counters = Counters::read(catalog).since(&start_counters);
    prepared.next_call = log.next_call;
    let spans = trace::merge(tracer.map(Tracer::into_spans).into_iter().chain(tick_spans).collect());
    PhaseLog { ticks, ..PhaseLog::new(log, spans, counters) }
}

fn serve_candidate_sets(
    catalog: &ModelCatalog,
    sets: &[Vec<PlanNode>],
    deadline: Instant,
    log: &mut ClientLog,
    tracer: &mut Option<Tracer>,
) {
    let session = catalog.session(TENANT).expect("tenant is published");
    let model = session.model().expect("tenant is published");
    let tree = model.tree().expect("tree backend");
    closed_loop(deadline, log, |i, log| {
        let plans = &sets[i as usize % sets.len()];
        let (out, elapsed) = call(
            tracer.as_mut(),
            i,
            || session.estimate_plans(plans).and_then(pairs),
            |t, root| traced_estimate_plans(&session, plans, t, root),
        );
        let mut ok = valid(&out, plans.len());
        if i.is_multiple_of(CHECK_EVERY) {
            log.checks += 1;
            ok &= same_bits(&out, &fresh_estimates(tree, plans));
            if tracer.is_some() {
                let untraced = session.estimate_plans(plans).and_then(pairs).unwrap_or_default();
                ok &= same_bits(&out, &untraced);
            }
        }
        log.record(elapsed, plans.len(), ok);
    });
}

fn serve_plans(
    catalog: &ModelCatalog,
    plans: &[PlanNode],
    deadline: Instant,
    log: &mut ClientLog,
    tracer: &mut Option<Tracer>,
) {
    let session = catalog.session(TENANT).expect("tenant is published");
    let model = session.model().expect("tenant is published");
    let tree = model.tree().expect("tree backend");
    let untraced =
        |plan: &PlanNode| session.encode(plan).and_then(|e| session.estimate_encoded(std::slice::from_ref(&e)));
    closed_loop(deadline, log, |i, log| {
        let plan = &plans[i as usize % plans.len()];
        let (out, elapsed) =
            call(tracer.as_mut(), i, || untraced(plan), |t, root| traced_plan_at_a_time(&session, plan, t, root));
        let mut ok = valid(&out, 1);
        if i.is_multiple_of(CHECK_EVERY) {
            log.checks += 1;
            ok &= same_bits(&out, &fresh_estimates(tree, std::slice::from_ref(plan)));
            if tracer.is_some() {
                ok &= same_bits(&out, &untraced(plan).unwrap_or_default());
            }
        }
        log.record(elapsed, 1, ok);
    });
}

/// The client serving the drift phases in turn while a second thread runs
/// refresh ticks on request; returns `(duration, refreshed)` per tick and,
/// when tracing, the ticks' spans.
fn serve_drift(
    catalog: &ModelCatalog,
    drift: &mut DriftTraffic,
    epoch: Instant,
    deadline: Instant,
    log: &mut ClientLog,
    tracer: &mut Option<Tracer>,
) -> (Vec<(Duration, bool)>, Option<Vec<Span>>) {
    let session = catalog.session(TENANT).expect("tenant is published");
    let DriftTraffic { calls, controller, calls_per_phase, .. } = drift;
    let calls_per_phase = *calls_per_phase;
    let trace_ticks = tracer.is_some();
    let (request_tick, ticks_requested) = mpsc::sync_channel::<()>(1);
    std::thread::scope(|scope| {
        let refresher = scope.spawn(move || {
            let mut tracer = trace_ticks.then(|| Tracer::new(epoch));
            let mut ticks = Vec::new();
            let mut errors = 0u64;
            for n in 0.. {
                if ticks_requested.recv().is_err() {
                    break;
                }
                let start = Instant::now();
                let root = tracer.as_mut().map(|t| t.begin("serving.refresh_tick", None, TICK_REQUEST_BASE + n));
                let outcome = controller.tick();
                if let (Some(t), Some(root)) = (tracer.as_mut(), root) {
                    t.end(root);
                }
                match outcome {
                    Ok(outcome) => ticks.push((start.elapsed(), matches!(outcome, RefreshOutcome::Refreshed { .. }))),
                    Err(e) => {
                        eprintln!("refresh tick failed: {e}");
                        errors += 1;
                    }
                }
            }
            (ticks, errors, tracer.map(Tracer::into_spans))
        });

        closed_loop(deadline, log, |i, log| {
            let phase = &calls[(i / calls_per_phase) as usize % calls.len()];
            let (plans, truth) = &phase[i as usize % phase.len()];
            let check = i.is_multiple_of(CHECK_EVERY);
            let pinned = if check { session.model() } else { None };
            let (out, elapsed) = call(
                tracer.as_mut(),
                i,
                || session.encode_batch(plans).and_then(|e| session.estimate_encoded(&e)),
                |t, root| traced_drift(&session, plans, t, root),
            );
            let mut ok = valid(&out, plans.len());
            if check {
                // A swap that landed between encode and estimate leaves no
                // single generation to check against.
                match pinned {
                    Some(model) if session.generation() == Some(model.generation()) => {
                        log.checks += 1;
                        ok &= same_bits(&out, &fresh_estimates(model.tree().expect("tree backend"), plans));
                    }
                    _ => log.skipped += 1,
                }
            }
            if i.is_multiple_of(QERROR_SAMPLE_EVERY) {
                if let Some(estimates) = &out {
                    log.served_qerrors.extend(estimates.iter().zip(truth).map(|(&(_, card), &t)| q_error(card, t)));
                }
            }
            log.record(elapsed, plans.len(), ok);
            if i % DRIFT_TICK_EVERY == DRIFT_TICK_EVERY - 1 {
                let _ = request_tick.try_send(());
            }
        });
        drop(request_tick);
        let (ticks, errors, tick_spans) = refresher.join().expect("refresh thread panicked");
        log.attempted += errors;
        log.failed += errors;
        (ticks, tick_spans)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phase(calls: Vec<Call>) -> PhaseLog {
        PhaseLog { calls, ..PhaseLog::default() }
    }

    #[test]
    fn steady_figures_ignore_a_disturbed_slice() {
        // Five slices of 1000 one-plan calls at 10 us, one of them at 50 us.
        let calls: Vec<Call> = (0..5000u64)
            .map(|i| Call { ns: if (2000..3000).contains(&i) { 50_000 } else { 10_000 }, plans: 1 })
            .collect();
        let s = phase(calls).steady();
        assert_eq!((s.p50_ns, s.p99_ns), (10_000.0, 10_000.0));
        assert!((s.plans_per_s - 100_000.0).abs() < 1e-6);
    }

    #[test]
    fn growth_per_plan_ignores_a_one_off_step() {
        // 1 MB per 1000 plans, plus a 100 MB step in one stretch.
        let track: Vec<(u64, f64)> =
            (0..=20u64).map(|k| (k * 1000, k as f64 + if k >= 7 { 100.0 } else { 0.0 })).collect();
        assert!((growth_per_plan(&track) - 1e-3).abs() < 1e-12);
        assert_eq!(growth_per_plan(&track[..1]), 0.0);
    }

    #[test]
    fn steady_figures_hold_for_a_phase_shorter_than_one_slice() {
        let s = phase(vec![Call { ns: 5, plans: 2 }, Call { ns: 15, plans: 2 }]).steady();
        assert_eq!((s.p50_ns, s.p99_ns), (5.0, 15.0));
        assert!((s.plans_per_s - 4.0 / 20e-9).abs() < 1e-3);
    }
}
