//! `--compare BASE HEAD`: judge a change against its parent from two files
//! of run records (one JSON line per run, as written by `--out`).
//!
//! Runs pair up by workload and seed.  A change is *better* on a metric when
//! it wins at least nine tenths of at least ten pairs, ties counting for
//! neither, and the medians differ by more than the parent's quartile
//! spread.  Otherwise a bounded metric is *unresolved* when either side's
//! quartile spread exceeds the bound (unless every run of the change beats
//! every run of the parent), *worse* when the change's median is worse by
//! more than the bound, and *same* when it is not.  A per-layer metric has
//! no bound: it is *worse* by the mirror of the gain rule, else unresolved.

use crate::json::{self, Json};
use crate::spec::{self, Better, MetricSpec};
use crate::stats;
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Same,
    Unresolved,
}

/// `(seed, value)` of each run of one workload and metric.
pub type Runs = Vec<(u64, f64)>;

fn improves(better: Better, from: f64, to: f64) -> bool {
    match better {
        Better::Higher => to > from,
        Better::Lower => to < from,
    }
}

pub fn verdict(spec: &MetricSpec, base: &Runs, head: &Runs) -> Verdict {
    let values = |runs: &Runs| runs.iter().map(|&(_, v)| v).collect::<Vec<f64>>();
    let (b, h) = (values(base), values(head));
    let (mb, mh) = (stats::median(&b), stats::median(&h));
    let (q1, q3) = stats::quartiles(&b);
    let mut pairs = 0usize;
    let (mut wins, mut losses) = (0usize, 0usize);
    for &(seed, hv) in head {
        if let Some(&(_, bv)) = base.iter().find(|&&(s, _)| s == seed) {
            pairs += 1;
            wins += usize::from(improves(spec.better, bv, hv));
            losses += usize::from(improves(spec.better, hv, bv));
        }
    }
    let decisive = |count: usize| pairs >= 10 && count * 10 >= pairs * 9 && (mh - mb).abs() > q3 - q1;
    if decisive(wins) {
        return Verdict::Better;
    }
    let Some(bound) = spec.bound else {
        return if decisive(losses) { Verdict::Worse } else { Verdict::Unresolved };
    };
    if stats::relative_spread(&b).max(stats::relative_spread(&h)) > bound {
        let all_better = h.iter().all(|&hv| b.iter().all(|&bv| improves(spec.better, bv, hv)));
        return if all_better { Verdict::Better } else { Verdict::Unresolved };
    }
    let worse_by = match spec.better {
        Better::Higher => (mb - mh) / mb.abs(),
        Better::Lower => (mh - mb) / mb.abs(),
    };
    if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Same
    }
}

/// Run records of a `--out` file, keyed by (workload, metric).
pub fn parse_runs(text: &str) -> Result<BTreeMap<(String, String), Runs>, String> {
    let mut out: BTreeMap<(String, String), Runs> = BTreeMap::new();
    for (n, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let record = json::parse(line).map_err(|e| format!("line {}: {e}", n + 1))?;
        let field = |key: &str| record.get(key).ok_or_else(|| format!("line {}: no {key}", n + 1));
        let workload = field("workload")?.as_str().ok_or("workload is not a string")?.to_string();
        let seed = field("seed")?.as_f64().ok_or("seed is not a number")? as u64;
        for (name, metric) in field("metrics")?.as_object().ok_or("metrics is not an object")? {
            let value = metric.get("value").and_then(Json::as_f64).ok_or("metric without a value")?;
            out.entry((workload.clone(), name.clone())).or_default().push((seed, value));
        }
    }
    Ok(out)
}

fn read_runs(path: &str) -> Result<BTreeMap<(String, String), Runs>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse_runs(&text).map_err(|e| format!("{path}: {e}"))
}

/// Print one line per workload and metric; returns whether any bounded
/// metric got worse.
pub fn compare(base_path: &str, head_path: &str) -> Result<bool, String> {
    let base = read_runs(base_path)?;
    let head = read_runs(head_path)?;
    let mut any_worse = false;
    for (workload, _) in spec::WORKLOADS {
        for spec in spec::END_TO_END.iter().chain(spec::PER_LAYER) {
            let key = (workload.to_string(), spec.name.to_string());
            let (Some(b), Some(h)) = (base.get(&key), head.get(&key)) else { continue };
            let v = verdict(spec, b, h);
            any_worse |= v == Verdict::Worse && spec.bound.is_some();
            let side = |runs: &Runs| {
                let values: Vec<f64> = runs.iter().map(|&(_, v)| v).collect();
                let (q1, q3) = stats::quartiles(&values);
                format!("{:.6} [{q1:.6}, {q3:.6}] n={}", stats::median(&values), values.len())
            };
            let bound = spec.bound.map_or_else(|| "none".to_string(), |b| format!("{b}"));
            println!(
                "{workload} {} {}: base {} head {} bound {bound} -> {v:?}",
                spec.name,
                spec.unit,
                side(b),
                side(h)
            );
        }
    }
    Ok(any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    const RATE: MetricSpec = MetricSpec { name: "plans_per_s", unit: "1/s", better: Better::Higher, bound: Some(0.1) };
    const LATENCY: MetricSpec = MetricSpec { name: "call_p50_us", unit: "us", better: Better::Lower, bound: Some(0.1) };

    fn runs(values: &[f64]) -> Runs {
        values.iter().enumerate().map(|(i, &v)| (i as u64, v)).collect()
    }

    #[test]
    fn ten_pairs_with_nine_wins_beyond_the_spread_are_better() {
        let base = runs(&[100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 101.0, 99.0, 100.2, 99.8]);
        let mut faster: Vec<f64> = base.iter().map(|&(_, v)| v * 1.05).collect();
        faster[3] = 99.0; // one lost pair still leaves 9 of 10
        assert_eq!(verdict(&RATE, &base, &runs(&faster)), Verdict::Better);
        // On a lower-is-better metric the same numbers lose nine pairs in
        // ten, but by less than the bound: no regression.
        assert_eq!(verdict(&LATENCY, &base, &runs(&faster)), Verdict::Same);
    }

    #[test]
    fn few_pairs_fall_back_to_the_bound() {
        let base = runs(&[100.0, 101.0, 99.0]);
        assert_eq!(verdict(&RATE, &base, &runs(&[98.0, 99.0, 97.0])), Verdict::Same);
        assert_eq!(verdict(&RATE, &base, &runs(&[85.0, 86.0, 84.0])), Verdict::Worse);
        assert_eq!(verdict(&LATENCY, &base, &runs(&[85.0, 86.0, 84.0])), Verdict::Same);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_every_run_wins() {
        let noisy = runs(&[60.0, 100.0, 140.0]);
        assert_eq!(verdict(&RATE, &noisy, &runs(&[90.0, 100.0, 110.0])), Verdict::Unresolved);
        assert_eq!(verdict(&RATE, &noisy, &runs(&[150.0, 160.0, 170.0])), Verdict::Better);
        let unbounded = MetricSpec { bound: None, ..RATE };
        assert_eq!(verdict(&unbounded, &runs(&[1.0, 2.0]), &runs(&[1.5, 2.5])), Verdict::Unresolved);
    }

    #[test]
    fn run_records_group_by_workload_and_metric() {
        let line = |seed: u64, v: f64| {
            format!(
                "{{\"workload\":\"dp_hot\",\"seed\":{seed},\"trace\":0,\"correct\":true,\"attempted\":5,\"failed\":0,\
                 \"metrics\":{{\"plans_per_s\":{{\"value\":{v},\"unit\":\"1/s\"}}}}}}\n"
            )
        };
        let runs = parse_runs(&(line(1, 10.0) + "\n" + &line(2, 12.0))).expect("parses");
        assert_eq!(runs[&("dp_hot".to_string(), "plans_per_s".to_string())], vec![(1, 10.0), (2, 12.0)]);
        assert!(parse_runs("{\"seed\": 1}").is_err(), "a record without a workload is refused");
    }
}
