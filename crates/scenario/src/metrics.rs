//! Per-cell metric extraction and pooled assertion evaluation.
//!
//! Each run cell reduces to a [`CellMetrics`] accumulator (a PLT
//! quantile sketch, stall-category sums, trace counters, aggregate
//! TCP/radio counters). Assertion references select cells by filter,
//! merge the accumulators, and compute the named metric over the pool —
//! so `spdy.rto_stall_ms` with three seeds is the mean over every SPDY
//! visit of all three runs, not a mean of means.
//!
//! The accumulator is a *fold*: [`CellMetrics::fold_visit`] ingests one
//! visit at a time and [`CellMetrics::merge`] combines two accumulators
//! exactly (associative and commutative, like the sketch it contains),
//! so a population-scale sweep holds O(cells) state instead of
//! O(total visits), and any sharding of the work produces bit-identical
//! pooled metrics. [`CellMetrics::to_value`]/[`CellMetrics::from_value`]
//! are the checkpoint-store codec resumable sweeps persist cells with.

use crate::assertions::{Assertion, Operand, CRITICAL_METRICS};
use crate::manifest::{Cell, Manifest};
use serde::{Serialize, Value};
use spdyier_causal::{critical_paths, stall_breakdowns, EventModel};
use spdyier_core::{AssertionVerdict, FlightLog, RunResult, VerdictStatus, VisitResult};
use spdyier_sim::stats::{MergeError, QuantileSketch};
use std::collections::BTreeMap;

/// Everything assertion evaluation needs from one run cell.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CellMetrics {
    /// Protocol compact name (`"http"`, `"spdy:20:late"`, …).
    pub protocol: String,
    /// Matrix variant name (`""` without a matrix).
    pub variant: String,
    /// Cell seed.
    pub seed: u64,
    /// PLT samples (ms) of completed visits, held as a mergeable
    /// log-bucketed sketch: O(buckets) memory however many visits the
    /// cell folds, exact min/max/mean, quantiles within the pinned
    /// sketch error bound (`2^(1/128)/2` ≈ 0.28% relative).
    pub plt: QuantileSketch,
    /// Scheduled visits.
    pub visits: u64,
    /// Completed visits.
    pub completed: u64,
    /// Stall-category sums in µs over attributed visits, in
    /// [promotion, serialization, queueing, rto, think, other] order.
    pub stall_sums_us: [u64; 6],
    /// Visits with a stall attribution (0 when tracing was below
    /// `Transport`).
    pub stall_visits: u64,
    /// Critical-path edge sums in µs over extracted visits, in the
    /// causal engine's canonical [`spdyier_causal::EDGE_KINDS`] order:
    /// [parse, conn_setup, promotion, rto, serialization, queueing,
    /// think, wait, receive].
    pub critical_sums_us: [u64; 9],
    /// Visits with an extracted critical path (0 when tracing was off).
    pub critical_visits: u64,
    /// Aggregate TCP retransmissions.
    pub retransmissions: u64,
    /// Aggregate RTO firings.
    pub timeouts: u64,
    /// Aggregate idle restarts.
    pub idle_restarts: u64,
    /// Client↔proxy connections opened.
    pub connections_opened: u64,
    /// RRC promotions taken.
    pub promotions: u64,
    /// Total page bytes over all visits.
    pub total_bytes: u64,
    /// Radio energy, mJ.
    pub energy_mj: f64,
    /// Trace metrics registry counters.
    pub counters: BTreeMap<String, u64>,
}

impl CellMetrics {
    /// Reduce one cell's run (and its flight log, when recorded).
    pub fn from_run(cell: &Cell, result: &RunResult, log: Option<&FlightLog>) -> CellMetrics {
        let mut m = CellMetrics {
            protocol: cell.protocol.compact(),
            variant: cell.variant.clone(),
            seed: cell.seed,
            retransmissions: result.total_retransmissions,
            timeouts: result.total_timeouts,
            idle_restarts: result.total_idle_restarts,
            connections_opened: result.connections_opened,
            promotions: result.promotions.len() as u64,
            energy_mj: result.energy_mj,
            ..CellMetrics::default()
        };
        for v in &result.visits {
            m.fold_visit(v);
        }
        if let Some(log) = log {
            // One model feeds both decompositions of the same intervals.
            let model = EventModel::from_records(&log.events);
            for b in stall_breakdowns(&model) {
                m.stall_sums_us[0] += b.promotion_us;
                m.stall_sums_us[1] += b.serialization_us;
                m.stall_sums_us[2] += b.queueing_us;
                m.stall_sums_us[3] += b.rto_stall_us;
                m.stall_sums_us[4] += b.server_think_us;
                m.stall_sums_us[5] += b.other_us;
                m.stall_visits += 1;
            }
            for p in critical_paths(&model) {
                for (sum, add) in m.critical_sums_us.iter_mut().zip(p.sums_us()) {
                    *sum += add;
                }
                m.critical_visits += 1;
            }
            for (name, count) in log.metrics.counters() {
                *m.counters.entry(name.to_string()).or_insert(0) += count;
            }
        }
        m
    }

    /// Fold one visit into the accumulator: count it, and record its
    /// PLT sample and byte total. This is the streaming entry point —
    /// a caller that folds visits one at a time and drops them ends up
    /// with exactly the accumulator [`CellMetrics::from_run`] builds
    /// from a retained [`RunResult`].
    pub fn fold_visit(&mut self, v: &VisitResult) {
        self.visits += 1;
        if v.completed {
            self.completed += 1;
            self.plt.record(v.plt_ms);
        }
        self.total_bytes += v.total_bytes;
    }

    /// Whether `filter` selects this cell: the protocol compact name, the
    /// variant name, or `seed<N>` (all case-insensitive).
    pub fn matches(&self, filter: &str) -> bool {
        let f = filter.to_ascii_lowercase();
        f == self.protocol.to_ascii_lowercase()
            || (!self.variant.is_empty() && f == self.variant.to_ascii_lowercase())
            || f == format!("seed{}", self.seed)
    }

    /// Merge `other`'s samples and counters into `self` (the pooled
    /// accumulator assertions evaluate over, and the shard-combine step
    /// of a folded sweep). Exact, associative, and commutative; a
    /// sketch-layout disagreement surfaces as a field-path
    /// [`MergeError`] instead of a silent mismerge.
    pub fn merge(&mut self, other: &CellMetrics) -> Result<(), MergeError> {
        self.plt.merge(&other.plt)?;
        self.visits += other.visits;
        self.completed += other.completed;
        for (sum, add) in self.stall_sums_us.iter_mut().zip(other.stall_sums_us) {
            *sum += add;
        }
        self.stall_visits += other.stall_visits;
        for (sum, add) in self.critical_sums_us.iter_mut().zip(other.critical_sums_us) {
            *sum += add;
        }
        self.critical_visits += other.critical_visits;
        self.retransmissions += other.retransmissions;
        self.timeouts += other.timeouts;
        self.idle_restarts += other.idle_restarts;
        self.connections_opened += other.connections_opened;
        self.promotions += other.promotions;
        self.total_bytes += other.total_bytes;
        self.energy_mj += other.energy_mj;
        for (name, count) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += count;
        }
        Ok(())
    }

    fn stall_mean_ms(&self, category: usize) -> Result<f64, String> {
        if self.stall_visits == 0 {
            return Err(
                "no stall-attribution samples (stall metrics need transport-level tracing)".into(),
            );
        }
        Ok(self.stall_sums_us[category] as f64 / 1_000.0 / self.stall_visits as f64)
    }

    fn critical_mean_ms(&self, edge: usize) -> Result<f64, String> {
        if self.critical_visits == 0 {
            return Err(
                "no critical-path samples (critical metrics need full-level tracing)".into(),
            );
        }
        Ok(self.critical_sums_us[edge] as f64 / 1_000.0 / self.critical_visits as f64)
    }

    /// Compute a named metric over this (possibly pooled) accumulator.
    pub fn metric(&self, name: &str) -> Result<f64, String> {
        if let Some(counter) = name.strip_prefix("counter.") {
            return Ok(self.counters.get(counter).copied().unwrap_or(0) as f64);
        }
        if let Some(edge) = CRITICAL_METRICS.iter().position(|m| *m == name) {
            return self.critical_mean_ms(edge);
        }
        Ok(match name {
            "plt_p50_ms" => self.plt.percentile(50.0),
            "plt_p90_ms" => self.plt.percentile(90.0),
            "plt_p95_ms" => self.plt.percentile(95.0),
            "plt_mean_ms" => self.plt.mean(),
            "plt_min_ms" => self.plt.min(),
            "plt_max_ms" => self.plt.max(),
            "completion_rate" => {
                if self.visits == 0 {
                    0.0
                } else {
                    self.completed as f64 / self.visits as f64
                }
            }
            "visits" => self.visits as f64,
            "completed_visits" => self.completed as f64,
            "promotion_stall_ms" => self.stall_mean_ms(0)?,
            "serialization_stall_ms" => self.stall_mean_ms(1)?,
            "queueing_stall_ms" => self.stall_mean_ms(2)?,
            "rto_stall_ms" => self.stall_mean_ms(3)?,
            // The paper's headline normalization: attributed RTO stall
            // per RTO firing. One RTO on SPDY's single connection stalls
            // the whole page; HTTP's pool hides most of its (more
            // numerous) firings behind parallel transfers.
            "rto_stall_per_event_ms" => {
                if self.stall_visits == 0 {
                    return Err(
                        "no stall-attribution samples (stall metrics need transport-level tracing)"
                            .into(),
                    );
                }
                if self.timeouts == 0 {
                    return Err("no RTO firings in the selected cells".into());
                }
                self.stall_sums_us[3] as f64 / 1_000.0 / self.timeouts as f64
            }
            "think_stall_ms" => self.stall_mean_ms(4)?,
            "other_stall_ms" => self.stall_mean_ms(5)?,
            // The same normalization on the causal engine's critical
            // path: RTO recovery that actually delayed PLT, per firing.
            "critical_rto_per_event_ms" => {
                if self.critical_visits == 0 {
                    return Err(
                        "no critical-path samples (critical metrics need full-level tracing)"
                            .into(),
                    );
                }
                if self.timeouts == 0 {
                    return Err("no RTO firings in the selected cells".into());
                }
                self.critical_sums_us[3] as f64 / 1_000.0 / self.timeouts as f64
            }
            "retransmissions" => self.retransmissions as f64,
            "timeouts" => self.timeouts as f64,
            "idle_restarts" => self.idle_restarts as f64,
            "connections_opened" => self.connections_opened as f64,
            "promotions" => self.promotions as f64,
            "energy_mj" => self.energy_mj,
            "total_bytes" => self.total_bytes as f64,
            // Trace-sink losses: any drop voids conservation guarantees,
            // so scenarios can pin this to zero.
            "trace_dropped" => self
                .counters
                .get("trace.sink_dropped")
                .copied()
                .unwrap_or(0) as f64,
            other => return Err(format!("unknown metric {other:?}")),
        })
    }

    /// The per-cell summary object recorded in `result.json` (fixed key
    /// set — the golden-schema test pins it).
    pub fn summary_value(&self) -> Value {
        let mut entries: Vec<(String, Value)> = vec![
            ("protocol".into(), Value::Str(self.protocol.clone())),
            ("variant".into(), Value::Str(self.variant.clone())),
            ("seed".into(), Value::U64(self.seed)),
            ("visits".into(), Value::U64(self.visits)),
            ("completed".into(), Value::U64(self.completed)),
            ("plt_p50_ms".into(), Value::F64(self.plt.percentile(50.0))),
            ("plt_p90_ms".into(), Value::F64(self.plt.percentile(90.0))),
            ("plt_mean_ms".into(), Value::F64(self.plt.mean())),
            ("retransmissions".into(), Value::U64(self.retransmissions)),
            ("timeouts".into(), Value::U64(self.timeouts)),
            (
                "connections_opened".into(),
                Value::U64(self.connections_opened),
            ),
            ("promotions".into(), Value::U64(self.promotions)),
            ("total_bytes".into(), Value::U64(self.total_bytes)),
            ("energy_mj".into(), Value::F64(self.energy_mj)),
        ];
        if self.stall_visits > 0 {
            for (name, category) in [
                ("promotion_stall_ms", 0),
                ("serialization_stall_ms", 1),
                ("queueing_stall_ms", 2),
                ("rto_stall_ms", 3),
                ("think_stall_ms", 4),
                ("other_stall_ms", 5),
            ] {
                let value =
                    self.stall_sums_us[category] as f64 / 1_000.0 / self.stall_visits as f64;
                entries.push((name.into(), Value::F64(value)));
            }
        }
        if self.critical_visits > 0 {
            for (edge, name) in CRITICAL_METRICS.iter().enumerate() {
                let value =
                    self.critical_sums_us[edge] as f64 / 1_000.0 / self.critical_visits as f64;
                entries.push(((*name).into(), Value::F64(value)));
            }
        }
        Value::Object(entries)
    }

    /// Decode an accumulator from the JSON value its `Serialize` impl
    /// produces — the checkpoint-store codec. Every field is integer or
    /// a shortest-round-trip f64, so encode → decode is lossless and a
    /// resumed sweep reproduces the uninterrupted run byte for byte.
    pub fn from_value(v: &Value) -> Result<CellMetrics, String> {
        let str_field = |name: &str| -> Result<String, String> {
            v.get(name)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("cell.{name}: missing or not a string"))
        };
        let u64_field = |name: &str| -> Result<u64, String> {
            v.get(name)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("cell.{name}: missing or not unsigned"))
        };
        let sums = |name: &str, out: &mut [u64]| -> Result<(), String> {
            let arr = v
                .get(name)
                .and_then(Value::as_array)
                .ok_or_else(|| format!("cell.{name}: missing or not an array"))?;
            if arr.len() != out.len() {
                return Err(format!(
                    "cell.{name}: expected {} entries, got {}",
                    out.len(),
                    arr.len()
                ));
            }
            for (i, (slot, x)) in out.iter_mut().zip(arr).enumerate() {
                *slot = x
                    .as_u64()
                    .ok_or_else(|| format!("cell.{name}[{i}]: not unsigned"))?;
            }
            Ok(())
        };
        let mut m = CellMetrics {
            protocol: str_field("protocol")?,
            variant: str_field("variant")?,
            seed: u64_field("seed")?,
            plt: QuantileSketch::from_value(
                v.get("plt")
                    .ok_or_else(|| "cell.plt: missing".to_string())?,
            )
            .map_err(|e| format!("cell.plt: {e}"))?,
            visits: u64_field("visits")?,
            completed: u64_field("completed")?,
            stall_visits: u64_field("stall_visits")?,
            critical_visits: u64_field("critical_visits")?,
            retransmissions: u64_field("retransmissions")?,
            timeouts: u64_field("timeouts")?,
            idle_restarts: u64_field("idle_restarts")?,
            connections_opened: u64_field("connections_opened")?,
            promotions: u64_field("promotions")?,
            total_bytes: u64_field("total_bytes")?,
            energy_mj: v
                .get("energy_mj")
                .and_then(Value::as_f64)
                .ok_or_else(|| "cell.energy_mj: missing or not a number".to_string())?,
            ..CellMetrics::default()
        };
        sums("stall_sums_us", &mut m.stall_sums_us)?;
        sums("critical_sums_us", &mut m.critical_sums_us)?;
        let Some(Value::Object(counters)) = v.get("counters") else {
            return Err("cell.counters: missing or not an object".to_string());
        };
        for (name, count) in counters {
            let count = count
                .as_u64()
                .ok_or_else(|| format!("cell.counters.{name}: not unsigned"))?;
            m.counters.insert(name.clone(), count);
        }
        Ok(m)
    }
}

impl Serialize for CellMetrics {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("protocol".into(), Value::Str(self.protocol.clone())),
            ("variant".into(), Value::Str(self.variant.clone())),
            ("seed".into(), Value::U64(self.seed)),
            ("plt".into(), self.plt.to_value()),
            ("visits".into(), Value::U64(self.visits)),
            ("completed".into(), Value::U64(self.completed)),
            (
                "stall_sums_us".into(),
                Value::Array(self.stall_sums_us.iter().map(|&x| Value::U64(x)).collect()),
            ),
            ("stall_visits".into(), Value::U64(self.stall_visits)),
            (
                "critical_sums_us".into(),
                Value::Array(
                    self.critical_sums_us
                        .iter()
                        .map(|&x| Value::U64(x))
                        .collect(),
                ),
            ),
            ("critical_visits".into(), Value::U64(self.critical_visits)),
            ("retransmissions".into(), Value::U64(self.retransmissions)),
            ("timeouts".into(), Value::U64(self.timeouts)),
            ("idle_restarts".into(), Value::U64(self.idle_restarts)),
            (
                "connections_opened".into(),
                Value::U64(self.connections_opened),
            ),
            ("promotions".into(), Value::U64(self.promotions)),
            ("total_bytes".into(), Value::U64(self.total_bytes)),
            ("energy_mj".into(), Value::F64(self.energy_mj)),
            (
                "counters".into(),
                Value::Object(
                    self.counters
                        .iter()
                        .map(|(k, &n)| (k.clone(), Value::U64(n)))
                        .collect(),
                ),
            ),
        ])
    }
}

/// Pool the cells selected by `filters` and compute `metric` over them.
pub fn eval_metric(cells: &[CellMetrics], filters: &[String], metric: &str) -> Result<f64, String> {
    let mut pool = CellMetrics::default();
    let mut matched = 0usize;
    for cell in cells {
        if filters.iter().all(|f| cell.matches(f)) {
            pool.merge(cell).map_err(|e| e.to_string())?;
            matched += 1;
        }
    }
    if matched == 0 {
        return Err(format!(
            "no cells match filter \"{}\" (cells: {})",
            filters.join("."),
            cells
                .iter()
                .map(|c| c.protocol.as_str())
                .collect::<Vec<_>>()
                .join(", ")
        ));
    }
    pool.metric(metric)
}

fn eval_operand(cells: &[CellMetrics], operand: &Operand) -> Result<f64, String> {
    match operand {
        Operand::Number(x) => Ok(*x),
        Operand::Metric(m) => eval_metric(cells, &m.filters, &m.metric),
    }
}

/// Evaluate every manifest assertion against the cells' metrics.
pub fn evaluate(manifest: &Manifest, cells: &[CellMetrics]) -> Vec<AssertionVerdict> {
    manifest
        .assertions
        .iter()
        .map(|a| evaluate_one(a, manifest, cells))
        .collect()
}

fn evaluate_one(a: &Assertion, manifest: &Manifest, cells: &[CellMetrics]) -> AssertionVerdict {
    if let Some(net) = a.on {
        if net != manifest.network.kind {
            return AssertionVerdict {
                expr: a.expr.clone(),
                status: VerdictStatus::Skipped,
                lhs: None,
                rhs: None,
                detail: format!(
                    "network clause '{}' does not match '{}'",
                    net.cli_name(),
                    manifest.network.kind.cli_name()
                ),
            };
        }
    }
    let lhs_res = eval_operand(cells, &a.lhs);
    let rhs_res = eval_operand(cells, &a.rhs);
    if let (&Ok(lhs), &Ok(rhs)) = (&lhs_res, &rhs_res) {
        let holds = a.op.holds(lhs, rhs);
        return AssertionVerdict {
            expr: a.expr.clone(),
            status: if holds {
                VerdictStatus::Pass
            } else {
                VerdictStatus::Fail
            },
            lhs: Some(lhs),
            rhs: Some(rhs),
            detail: format!(
                "{lhs:.1} {} {rhs:.1}{}",
                a.op.symbol(),
                if holds { "" } else { " is false" }
            ),
        };
    }
    let detail = [&lhs_res, &rhs_res]
        .into_iter()
        .filter_map(|r| r.as_ref().err().cloned())
        .collect::<Vec<_>>()
        .join("; ");
    AssertionVerdict {
        expr: a.expr.clone(),
        status: VerdictStatus::Fail,
        lhs: lhs_res.ok(),
        rhs: rhs_res.ok(),
        detail,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::Manifest;

    fn sketch_of(plts: &[f64]) -> QuantileSketch {
        let mut s = QuantileSketch::new();
        for &x in plts {
            s.record(x);
        }
        s
    }

    fn cell(protocol: &str, seed: u64, plts: &[f64], rto_us: u64) -> CellMetrics {
        CellMetrics {
            protocol: protocol.into(),
            seed,
            plt: sketch_of(plts),
            visits: plts.len() as u64 + 1,
            completed: plts.len() as u64,
            stall_sums_us: [0, 0, 0, rto_us, 0, 0],
            stall_visits: plts.len() as u64,
            retransmissions: 4,
            counters: BTreeMap::from([("tcp.rto_fired".to_string(), 3u64)]),
            ..CellMetrics::default()
        }
    }

    fn manifest_with(assertions: &[&str]) -> Manifest {
        let mut m = Manifest::paper_baseline("t");
        m.assertions = assertions
            .iter()
            .map(|s| Assertion::parse(s).unwrap())
            .collect();
        m
    }

    #[test]
    fn pooling_merges_samples_across_cells() {
        let cells = vec![
            cell("http", 0, &[100.0, 200.0], 1_000),
            cell("http", 1, &[300.0, 400.0], 3_000),
            cell("spdy", 0, &[500.0], 10_000),
        ];
        // Pooled over both http cells: 4 samples, mean 250.
        assert_eq!(
            eval_metric(&cells, &["http".to_string()], "plt_mean_ms").unwrap(),
            250.0
        );
        // seed filter narrows to one cell.
        assert_eq!(
            eval_metric(
                &cells,
                &["http".to_string(), "seed1".to_string()],
                "plt_mean_ms"
            )
            .unwrap(),
            350.0
        );
        // rto_stall_ms pools sums and visit counts: (1000+3000)/1000/4 = 1.0.
        assert_eq!(
            eval_metric(&cells, &["http".to_string()], "rto_stall_ms").unwrap(),
            1.0
        );
        // counters sum across cells.
        assert_eq!(
            eval_metric(&cells, &[], "counter.tcp.rto_fired").unwrap(),
            9.0
        );
        assert_eq!(eval_metric(&cells, &[], "retransmissions").unwrap(), 12.0);
    }

    #[test]
    fn unmatched_filters_are_an_error() {
        let cells = vec![cell("http", 0, &[100.0], 0)];
        let e = eval_metric(&cells, &["spdy".to_string()], "plt_p50_ms").unwrap_err();
        assert!(e.contains("no cells match"), "{e}");
    }

    #[test]
    fn verdicts_pass_fail_and_skip() {
        let cells = vec![
            cell("http", 0, &[100.0], 1_000),
            cell("spdy", 0, &[200.0], 5_000),
        ];
        let m = manifest_with(&[
            "spdy.rto_stall_ms > http.rto_stall_ms on 3g",
            "plt_p50_ms < 90",
            "plt_p50_ms < 1 on lte",
        ]);
        let verdicts = evaluate(&m, &cells);
        assert_eq!(verdicts[0].status, VerdictStatus::Pass);
        assert_eq!(verdicts[0].lhs, Some(5.0));
        assert_eq!(verdicts[0].rhs, Some(1.0));
        assert_eq!(verdicts[1].status, VerdictStatus::Fail);
        assert!(
            verdicts[1].detail.contains("is false"),
            "{}",
            verdicts[1].detail
        );
        assert_eq!(verdicts[2].status, VerdictStatus::Skipped);
        assert!(verdicts[2].detail.contains("lte"), "{}", verdicts[2].detail);
    }

    #[test]
    fn missing_stall_samples_fail_with_reason() {
        let mut c = cell("http", 0, &[100.0], 0);
        c.stall_visits = 0;
        let m = manifest_with(&["http.rto_stall_ms < 10"]);
        let verdicts = evaluate(&m, &[c]);
        assert_eq!(verdicts[0].status, VerdictStatus::Fail);
        assert!(
            verdicts[0].detail.contains("transport"),
            "{}",
            verdicts[0].detail
        );
    }

    #[test]
    fn summary_value_has_the_pinned_keys() {
        let mut c = cell("http", 0, &[100.0], 2_000);
        c.critical_sums_us = [50_000, 0, 10_000, 30_000, 5_000, 2_000, 1_000, 1_500, 500];
        c.critical_visits = 1;
        let Value::Object(entries) = c.summary_value() else {
            panic!("summary is an object");
        };
        let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "protocol",
                "variant",
                "seed",
                "visits",
                "completed",
                "plt_p50_ms",
                "plt_p90_ms",
                "plt_mean_ms",
                "retransmissions",
                "timeouts",
                "connections_opened",
                "promotions",
                "total_bytes",
                "energy_mj",
                "promotion_stall_ms",
                "serialization_stall_ms",
                "queueing_stall_ms",
                "rto_stall_ms",
                "think_stall_ms",
                "other_stall_ms",
                "critical_parse_ms",
                "critical_conn_setup_ms",
                "critical_promotion_ms",
                "critical_rto_stall_ms",
                "critical_serialization_ms",
                "critical_queueing_ms",
                "critical_think_ms",
                "critical_wait_ms",
                "critical_receive_ms",
            ]
        );
        // Without critical-path samples the critical_* keys stay absent so
        // lifecycle-level runs keep the legacy schema.
        let c = cell("http", 0, &[100.0], 2_000);
        let Value::Object(entries) = c.summary_value() else {
            panic!("summary is an object");
        };
        assert!(entries.iter().all(|(k, _)| !k.starts_with("critical_")));
    }

    #[test]
    fn critical_metrics_pool_like_stall_metrics() {
        let mut a = cell("spdy", 0, &[100.0], 0);
        a.critical_sums_us[3] = 4_000;
        a.critical_visits = 1;
        let mut b = cell("spdy", 1, &[200.0], 0);
        b.critical_sums_us[3] = 2_000;
        b.critical_visits = 2;
        // Pooled mean over 3 visits: (4000+2000)/1000/3 = 2.0 ms.
        assert_eq!(
            eval_metric(&[a, b], &["spdy".to_string()], "critical_rto_stall_ms").unwrap(),
            2.0
        );
    }

    #[test]
    fn critical_metrics_without_samples_fail_with_reason() {
        let c = cell("http", 0, &[100.0], 0);
        let e = c.metric("critical_parse_ms").unwrap_err();
        assert!(e.contains("full-level tracing"), "{e}");
    }

    fn visit(plt_ms: f64, completed: bool, total_bytes: u64) -> VisitResult {
        VisitResult {
            site: 1,
            start: spdyier_sim::SimTime::ZERO,
            onload: None,
            plt_ms,
            completed,
            object_timings: Vec::new(),
            object_count: 0,
            total_bytes,
        }
    }

    #[test]
    fn fold_visit_streams_the_same_accumulator_as_batch() {
        let mut folded = CellMetrics::default();
        for v in [
            visit(120.0, true, 1_000),
            visit(60_000.0, false, 400),
            visit(340.5, true, 2_000),
        ] {
            folded.fold_visit(&v);
        }
        assert_eq!(folded.visits, 3);
        assert_eq!(folded.completed, 2);
        assert_eq!(folded.total_bytes, 3_400);
        assert_eq!(folded.plt.count(), 2, "censored visits contribute no PLT");
        assert_eq!(folded.plt.min(), 120.0);
        assert_eq!(folded.plt.max(), 340.5);
    }

    #[test]
    fn merge_reports_sketch_layout_mismatch_with_field_path() {
        let mut a = cell("http", 0, &[100.0], 0);
        let mut b = cell("http", 1, &[200.0], 0);
        b.plt = QuantileSketch::with_sub_bits(5);
        let e = a.merge(&b).unwrap_err();
        assert_eq!(e.path, "quantile_sketch.sub_bits");
        // eval_metric surfaces it instead of mismerging.
        let cells = vec![cell("http", 0, &[100.0], 0), b];
        let e = eval_metric(&cells, &[], "plt_mean_ms").unwrap_err();
        assert!(e.contains("sub_bits"), "{e}");
    }

    #[test]
    fn checkpoint_codec_round_trips_through_json_text() {
        let mut c = cell("spdy:20:late", 3, &[100.25, 5_432.1, 60_000.0], 9_000);
        c.critical_sums_us = [1, 2, 3, 4, 5, 6, 7, 8, 9];
        c.critical_visits = 2;
        c.energy_mj = 1234.5678;
        c.variant = "rtt_reset".into();
        let text = serde_json::to_string(&c).unwrap();
        let decoded = CellMetrics::from_value(&serde_json::from_str(&text).unwrap()).unwrap();
        assert_eq!(decoded, c, "encode → text → decode must be lossless");
        // Decode failures carry a field path.
        let e = CellMetrics::from_value(&Value::Object(vec![])).unwrap_err();
        assert!(e.contains("cell.protocol"), "{e}");
    }

    #[test]
    fn trace_dropped_reads_the_sink_counter() {
        let mut c = cell("http", 0, &[100.0], 0);
        assert_eq!(c.metric("trace_dropped").unwrap(), 0.0);
        c.counters.insert("trace.sink_dropped".into(), 7);
        assert_eq!(c.metric("trace_dropped").unwrap(), 7.0);
    }
}
