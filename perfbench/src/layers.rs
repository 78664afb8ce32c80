//! Per-layer metrics of the traced run.
//!
//! Timings come from the benchmark's own spans ([`crate::spans`]) and
//! from the dispatch spans that already exist in `spdyier-core`'s driver
//! (`spdyier_prof`). Metric names follow three conventions:
//!
//! - `*_ms` without a `per_*` suffix is the median, over the run's
//!   rounds, of the time that call took in one round. A round is one
//!   manifest at the workload's stated size. The manifest-decode,
//!   evaluate, merge and replay probes are medians over repeated calls.
//! - `*_per_visit` and `*_per_cell` divide a total by the visits or
//!   cells it covers.
//! - Counts marked *exact* in `perfbench/README.md` are taken over the
//!   first round (on `population_wifi`, over the reference fold), whose
//!   cells depend only on the seed, so they repeat bit for bit.
//!
//! A layer a workload never calls has no time of its own: its `*_ms`
//! metrics report the recorder's floor, the mean duration of an empty
//! span (tens of nanoseconds), and its counts report 0.

use crate::spans::{Span, FLOOR_SPAN, PROBE_ROUND};
use crate::workload::RoundStats;
use spdyier_prof::{AllocCounts, ProfileReport};
use std::collections::BTreeMap;

/// Everything the traced run observed.
pub struct Traced<'a> {
    /// Closed spans, ordered by id.
    pub spans: &'a [Span],
    /// Stats of each measured round.
    pub rounds: &'a [RoundStats],
    /// Stats of the after-phase reference fold, if one ran.
    pub reference: Option<&'a RoundStats>,
    /// Cells in the first round.
    pub first_round_cells: usize,
    /// Executor width.
    pub workers: usize,
    /// Allocations over the measured phase.
    pub allocs: AllocCounts,
    /// Visits over the measured phase.
    pub visits: u64,
}

/// One named metric.
pub type Metric = (&'static str, f64, &'static str);

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Median of `v` (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest rank (1-based) of the `permille`-th per-mille of `n` samples.
fn rank(n: usize, permille: usize) -> usize {
    (permille * n).div_ceil(1000).clamp(1, n.max(1))
}

/// Nearest-rank percentile (given in per mille) of sorted `v`.
fn percentile(sorted: &[f64], permille: usize) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), permille) - 1]
}

/// The highest percentile (per mille) of the ladder with at least ten
/// samples beyond it (the median when there are too few samples).
fn tail_permille(n: usize) -> usize {
    [999, 990, 950, 900, 750]
        .into_iter()
        .find(|&pm| n >= 10 && n - rank(n, pm) >= 10)
        .unwrap_or(500)
}

/// Whether a core profiler span is one simulator dispatch: the driver's
/// per-event spans (`driver.*` other than the once-per-run `start` and
/// `finalize`), `browser.timer`, `visit.*` and `origin.reply`.
fn is_dispatch(name: &str) -> bool {
    (name.starts_with("driver.") && name != "driver.start" && name != "driver.finalize")
        || name == "browser.timer"
        || name.starts_with("visit.")
        || name == "origin.reply"
}

fn dispatches(prof: &ProfileReport) -> u64 {
    prof.spans
        .iter()
        .filter(|(name, _)| is_dispatch(name))
        .map(|(_, s)| s.calls)
        .sum()
}

fn span_stat(prof: &ProfileReport, name: &str) -> (u64, u64) {
    prof.spans
        .get(name)
        .map_or((0, 0), |s| (s.calls, s.self_ns))
}

impl Traced<'_> {
    fn named<'s>(&'s self, name: &'s str) -> impl Iterator<Item = &'s Span> + 's {
        self.spans.iter().filter(move |s| s.name == name)
    }

    fn total_ms(&self, name: &str) -> f64 {
        self.named(name).map(|s| s.dur_ns() as f64).sum::<f64>() / 1e6
    }

    /// Median over rounds of the per-round total of `name`, ms; the
    /// recorder's floor when the workload never makes the call.
    fn per_round_ms(&self, name: &str) -> f64 {
        let mut by_round: BTreeMap<u32, f64> = BTreeMap::new();
        for s in self.named(name) {
            *by_round.entry(s.round).or_default() += s.dur_ns() as f64 / 1e6;
        }
        if by_round.is_empty() {
            return self.floor_ms();
        }
        median(&by_round.into_values().collect::<Vec<_>>())
    }

    /// Median single-call time of an after-phase probe, ms; the
    /// recorder's floor when the workload has nothing to probe.
    fn probe_ms(&self, name: &str) -> f64 {
        let calls: Vec<f64> = self
            .named(name)
            .filter(|s| s.round == PROBE_ROUND)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect();
        if calls.is_empty() {
            return self.floor_ms();
        }
        median(&calls)
    }

    /// The recorder's floor: mean duration of the empty spans, ms.
    fn floor_ms(&self) -> f64 {
        let floors: Vec<f64> = self
            .named(FLOOR_SPAN)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect();
        ratio(floors.iter().sum(), floors.len() as f64)
    }

    /// Stats whose cells carry the core profile: the measured rounds,
    /// or the reference fold when the rounds ran inside `run_sweep_on`.
    fn prof_groups(&self) -> Vec<&RoundStats> {
        let rounds: Vec<&RoundStats> = self.rounds.iter().filter(|r| !r.prof.is_empty()).collect();
        if rounds.is_empty() {
            self.reference.into_iter().collect()
        } else {
            rounds
        }
    }

    /// The fixed, seed-determined cell set exact counts are taken over.
    fn exact(&self) -> Option<&RoundStats> {
        self.reference.or(self.rounds.first())
    }

    /// Every per-layer metric except the two the orchestrator adds
    /// (`bench.trace_overhead_pct` and `cell_error_rate`).
    pub fn metrics(&self) -> Vec<Metric> {
        let groups = self.prof_groups();
        let all_visits: [u64; 2] = groups.iter().fold([0, 0], |acc, g| {
            [acc[0] + g.visits_by_proto[0], acc[1] + g.visits_by_proto[1]]
        });
        let mut prof_all = ProfileReport::new();
        for g in &groups {
            prof_all.merge(&g.prof);
        }
        let per_round_self_ms = |name: &str| {
            median(
                &groups
                    .iter()
                    .map(|g| span_stat(&g.prof, name).1 as f64 / 1e6)
                    .collect::<Vec<_>>(),
            )
        };
        let (assign_calls, assign_self_ns) = span_stat(&prof_all, "session.assign");

        let empty = RoundStats::default();
        let exact = self.exact().unwrap_or(&empty);
        let exact_visits = exact.visits() as f64;

        let mut cell_ms: Vec<f64> = self
            .named("exec.cell")
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect();
        cell_ms.sort_by(f64::total_cmp);
        let tail = tail_permille(cell_ms.len());
        let busy = ratio(
            self.total_ms("exec.cell"),
            self.workers as f64 * self.total_ms("exec.run"),
        );

        let run_ms = self.total_ms("core.run.http") + self.total_ms("core.run.spdy");
        let parse_s = self.total_ms("causal.parse") / 1e3;
        let records: u64 = self.rounds.iter().map(|r| r.records).sum();
        let folds = self.named("scenario.fold").count() as f64;

        vec![
            ("scenario.decode_ms", self.probe_ms("scenario.decode"), "ms"),
            (
                "scenario.build_config_ms",
                self.per_round_ms("scenario.build_config"),
                "ms",
            ),
            (
                "scenario.fold_ms_per_cell",
                ratio(self.total_ms("scenario.fold"), folds),
                "ms",
            ),
            ("scenario.merge_ms", self.probe_ms("scenario.merge"), "ms"),
            (
                "scenario.evaluate_ms",
                self.probe_ms("scenario.evaluate"),
                "ms",
            ),
            (
                "core.run_ms_per_visit.http",
                ratio(self.total_ms("core.run.http"), all_visits[0] as f64),
                "ms",
            ),
            (
                "core.run_ms_per_visit.spdy",
                ratio(self.total_ms("core.run.spdy"), all_visits[1] as f64),
                "ms",
            ),
            (
                "core.sim_events_per_visit",
                ratio(dispatches(&exact.prof) as f64, exact_visits),
                "count",
            ),
            (
                "core.ns_per_sim_event",
                ratio(run_ms * 1e6, dispatches(&prof_all) as f64),
                "ns",
            ),
            (
                "core.session.assign.calls_per_visit",
                ratio(
                    span_stat(&exact.prof, "session.assign").0 as f64,
                    exact_visits,
                ),
                "count",
            ),
            (
                "core.session.assign.ns_per_call",
                ratio(assign_self_ns as f64, assign_calls as f64),
                "ns",
            ),
            (
                "core.session.pump.self_ms",
                per_round_self_ms("session.pump"),
                "ms",
            ),
            (
                "core.world.service.self_ms",
                per_round_self_ms("world.service"),
                "ms",
            ),
            (
                "core.attribute_stalls_ms",
                self.per_round_ms("core.attribute_stalls"),
                "ms",
            ),
            (
                "trace.records_per_visit",
                ratio(exact.records as f64, exact_visits),
                "count",
            ),
            (
                "trace.jsonl_bytes_per_visit",
                ratio(exact.jsonl_bytes as f64, exact_visits),
                "B",
            ),
            ("trace.jsonl_ms", self.per_round_ms("trace.jsonl"), "ms"),
            (
                "trace.dropped",
                self.rounds.iter().map(|r| r.dropped).sum::<u64>() as f64,
                "count",
            ),
            ("causal.parse_ms", self.per_round_ms("causal.parse"), "ms"),
            (
                "causal.parse_records_per_s",
                ratio(records as f64, parse_s),
                "records/s",
            ),
            ("causal.model_ms", self.per_round_ms("causal.model"), "ms"),
            ("causal.paths_ms", self.per_round_ms("causal.paths"), "ms"),
            ("causal.diff_ms", self.per_round_ms("causal.diff"), "ms"),
            ("exec.busy_ratio", busy, "ratio"),
            ("exec.cell_ms_p50", percentile(&cell_ms, 500), "ms"),
            ("exec.cell_ms_tail", percentile(&cell_ms, tail), "ms"),
            ("exec.cell_ms_tail_pct", tail as f64 / 10.0, "pct"),
            ("exec.cell_samples", cell_ms.len() as f64, "count"),
            ("sweep.fresh_ms", self.per_round_ms("sweep.fresh"), "ms"),
            ("sweep.resume_ms", self.per_round_ms("sweep.resume"), "ms"),
            ("sweep.replay_ms", self.probe_ms("sweep.replay"), "ms"),
            (
                "sweep.store_bytes_per_cell",
                ratio(
                    self.rounds.first().map_or(0, |r| r.store_bytes) as f64,
                    self.first_round_cells as f64,
                ),
                "B",
            ),
            (
                "alloc.per_visit",
                ratio(self.allocs.allocs as f64, self.visits as f64),
                "count",
            ),
            (
                "alloc.bytes_per_visit",
                ratio(self.allocs.bytes as f64, self.visits as f64),
                "B",
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        assert_eq!(tail_permille(5), 500);
        assert_eq!(tail_permille(39), 500);
        assert_eq!(tail_permille(40), 750);
        assert_eq!(tail_permille(100), 900);
        assert_eq!(tail_permille(1000), 990);
        assert_eq!(tail_permille(10_000), 999);
    }

    #[test]
    fn nearest_rank_percentile_and_median() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 500), 2.0);
        assert_eq!(percentile(&v, 750), 3.0);
        assert_eq!(percentile(&v, 1000), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn dispatch_spans_exclude_once_per_run_driver_spans() {
        assert!(is_dispatch("driver.deliver"));
        assert!(is_dispatch("visit.start"));
        assert!(is_dispatch("origin.reply"));
        assert!(!is_dispatch("driver.start"));
        assert!(!is_dispatch("driver.finalize"));
        assert!(!is_dispatch("session.assign"));
    }
}
