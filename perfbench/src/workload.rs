//! The benchmark's workloads and the pipelines that drive them.
//!
//! Every workload is a closed loop of *rounds*. A round is one manifest
//! at the workload's stated size, executed on an [`Executor`] whose
//! workers each take the next cell as soon as their previous cell is
//! done. Rounds repeat until the measured time is up. The program only
//! ever sees the generated manifests and their cells.
//!
//! - `table1_3g` walks on to the next block of seeds every round, so a
//!   run averages over as many distinct page-load schedules as its time
//!   allows. Untraced rounds go through `execute_folded_on` and
//!   `finish_folded` (the `experiments run` path); traced rounds run the
//!   same steps through the public calls they are made of, with a span
//!   around each.
//! - `causal_3g` also walks on through seed blocks. Its pipeline is
//!   composed here from the trace, causal and attribution layers' public
//!   calls, so untraced and traced rounds share one code path.
//! - `population_wifi` repeats one 1,000-cell manifest: each round is a
//!   fresh `run_sweep_on` into an empty store that stops halfway, and a
//!   second call that replays the store and finishes the sweep.
//!
//! A round's digest is an FNV-1a hash of the artifacts it produced
//! (`result.json`, plus the `diff.json` documents on `causal_3g`).

use crate::spans::{Recorder, SpanId, FLOOR_SPAN, PROBE_ROUND};
use spdyier_causal::{
    critical_paths, diff_paths, parse_jsonl, rollup_us, CriticalPath, EventModel,
};
use spdyier_core::{
    attribute_stalls, FlightLog, RunError, RunResult, ScenarioExit, Testbed, TraceLevel,
    VerdictStatus,
};
use spdyier_experiments::scenario_run::{
    execute_folded_on, finish_folded, fold_cell, FoldedCell, FoldedRun,
};
use spdyier_experiments::sweep::{
    replay_store, run_sweep_on, SweepOptions, SweepOutcome, SWEEP_STORE_NAME,
};
use spdyier_experiments::Executor;
use spdyier_prof::ProfileReport;
use spdyier_scenario::{evaluate, Cell, CellMetrics, Manifest};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Paired HTTP/SPDY over the Table 1 schedule on 3G, trace off.
    Table1_3g,
    /// HTTP/SPDY on 3G, rtt-reset off and on, Full trace, through the
    /// trace, causal and attribution layers.
    Causal3g,
    /// Many tiny wifi cells through the resumable sweep runner.
    PopulationWifi,
}

/// Every workload, in `BENCHMARK.json` order.
pub const ALL: [Workload; 3] = [
    Workload::Table1_3g,
    Workload::Causal3g,
    Workload::PopulationWifi,
];

/// How big a round is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The stated size the benchmark measures.
    Full,
    /// A few cells per round, for the smoke test.
    Tiny,
}

/// Seeds of `population_wifi`'s manifest at full size (1,000 cells: the
/// committed `scenarios/population_wifi.json` shape).
const POPULATION_SEEDS: u64 = 500;

/// Manifest seeds reserved for one `--seed`: runs with different
/// `--seed` values never share a cell.
const SEED_STRIDE: u64 = 10_000;

impl Workload {
    /// Look a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Table1_3g => "table1_3g",
            Workload::Causal3g => "causal_3g",
            Workload::PopulationWifi => "population_wifi",
        }
    }

    /// Manifest seeds per round.
    fn seeds_per_round(self, size: Size) -> u64 {
        match (self, size) {
            (Workload::Table1_3g, Size::Full) => 8,
            (Workload::Causal3g, Size::Full) => 1,
            (Workload::PopulationWifi, Size::Full) => POPULATION_SEEDS,
            (Workload::PopulationWifi, Size::Tiny) => 10,
            (_, Size::Tiny) => 1,
        }
    }

    /// The manifest (JSON) of round `round` of a run seeded with `seed`.
    pub fn manifest_json(self, size: Size, seed: u64, round: u32) -> String {
        let count = self.seeds_per_round(size);
        let block = (seed % 1_000_000) * SEED_STRIDE;
        let base = match self {
            Workload::PopulationWifi => block,
            _ => block + u64::from(round) % (SEED_STRIDE / count) * count,
        };
        let body = match self {
            Workload::Table1_3g => r#""network": {"kind": "3g"},
    "assertions": ["completion_rate >= 0.9"]"#
                .to_string(),
            Workload::Causal3g => r#""network": {"kind": "3g"},
    "matrix": {"rtt_reset_after_idle": [false, true]},
    "trace": "full",
    "assertions": [
        "spdy.critical_rto_per_event_ms > http.critical_rto_per_event_ms on 3g",
        "spdy.rtt_reset_after_idle=true.critical_rto_stall_ms < spdy.rtt_reset_after_idle=false.critical_rto_stall_ms on 3g",
        "trace_dropped <= 0"
    ]"#
            .to_string(),
            Workload::PopulationWifi => r#""network": {"kind": "wifi"},
    "workload": {"kind": "synthetic", "objects": 6, "object_bytes": 1200, "same_domain": true, "visits": 2, "interval_s": 30},
    "assertions": ["completion_rate >= 1.0", "plt_p50_ms < 9000"]"#
                .to_string(),
        };
        format!(
            r#"{{
    "schema_version": 1,
    "name": "bench_{}",
    "protocols": ["http", "spdy"],
    "seeds": {{"base": {base}, "count": {count}}},
    {body}
}}"#,
            self.name()
        )
    }

    /// Whether every round runs the same manifest.
    fn repeats_manifest(self) -> bool {
        self == Workload::PopulationWifi
    }
}

/// Decode a manifest, with the decode error as text.
pub fn decode(text: &str) -> Result<Manifest, String> {
    Manifest::from_json(text).map_err(|e| e.0)
}

/// What one round did.
#[derive(Debug, Clone)]
pub struct RoundOut {
    /// Cells attempted.
    pub cells: usize,
    /// Cells that failed: a `RunError`, a panic, or a failed check.
    pub failed: usize,
    /// Simulated page visits carried through the round.
    pub visits: u64,
    /// FNV-1a of the round's artifacts.
    pub digest: String,
    /// What went wrong, one line each.
    pub problems: Vec<String>,
}

impl RoundOut {
    fn all_failed(cells: usize, problem: String) -> RoundOut {
        RoundOut {
            cells,
            failed: cells,
            visits: 0,
            digest: String::new(),
            problems: vec![problem],
        }
    }
}

/// Per-round observations the traced run turns into layer metrics.
#[derive(Debug, Default)]
pub struct RoundStats {
    /// Merged core profiler spans of the round's cells.
    pub prof: ProfileReport,
    /// Visits by protocol: `[http, spdy]`.
    pub visits_by_proto: [u64; 2],
    /// Flight-recorder records.
    pub records: u64,
    /// Bytes of trace JSONL.
    pub jsonl_bytes: u64,
    /// Records the flight recorder dropped.
    pub dropped: u64,
    /// Checkpoint store size after the sweep finished.
    pub store_bytes: u64,
    /// Cell metrics of the round (kept for the evaluate/merge probes).
    pub metrics: Vec<CellMetrics>,
}

impl RoundStats {
    /// Visits over both protocols.
    pub fn visits(&self) -> u64 {
        self.visits_by_proto.iter().sum()
    }
}

/// FNV-1a, 64-bit, as 16 hex digits.
pub fn fnv_hex(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic".into())
}

/// Why a cell of a composed pipeline failed.
enum CellFail {
    Limit(RunError),
    Check(String),
}

/// What a `causal_3g` worker hands back for one cell: its core
/// profile, the records its flight recorder dropped, and the cell.
type CausalJob = (ProfileReport, u64, Result<CausalCell, CellFail>);

/// Seeds a `causal_3g` stream may reach; far more than any run has time
/// for (a seed's four 3G cells take seconds).
const STREAM_SEEDS: usize = 2_000;

/// Empty spans recorded to measure the recorder's floor.
const FLOOR_SPANS: usize = 1_000;

/// One `causal_3g` cell after the trace, causal and attribution layers.
struct CausalCell {
    metrics: CellMetrics,
    paths: Vec<CriticalPath>,
    records: u64,
    jsonl_bytes: u64,
}

/// Drives one workload's rounds.
pub struct Runner<'a> {
    /// The workload.
    pub workload: Workload,
    /// Round size.
    pub size: Size,
    /// The workload seed.
    pub seed: u64,
    /// The closed-loop executor.
    pub exec: Executor,
    /// Span recorder (inert in the untraced run).
    pub rec: &'a Recorder,
    /// Working directory for artifacts and stores.
    pub work: PathBuf,
}

/// The checkpoint store a `population_wifi` run leaves halfway through
/// its first round; set-up processes replay it.
pub fn half_store_path(work: &Path) -> PathBuf {
    work.join("half_store.jsonl")
}

impl Runner<'_> {
    /// The manifest text of round `round`.
    pub fn manifest_text(&self, round: u32) -> String {
        let round = if self.workload.repeats_manifest() {
            0
        } else {
            round
        };
        self.workload.manifest_json(self.size, self.seed, round)
    }

    /// The measured phase: rounds (or, on `causal_3g`, the cell stream)
    /// until `seconds` have passed. Returns each round's outcome and
    /// stats, and the manifest of the last round.
    pub fn measure(
        &self,
        first: &Manifest,
        seconds: f64,
    ) -> Result<(Vec<RoundOut>, Vec<RoundStats>, Manifest), String> {
        if self.workload == Workload::Causal3g {
            let (outs, stats, last) = self.causal_stream(first, seconds);
            return Ok((outs, stats, last));
        }
        let start = Instant::now();
        let (mut outs, mut stats) = (Vec::new(), Vec::new());
        let mut last = first.clone();
        for r in 0.. {
            if r > 0 && !self.workload.repeats_manifest() {
                last = decode(&self.manifest_text(r))?;
            }
            let mut st = RoundStats::default();
            outs.push(self.round(r, &last, &mut st));
            stats.push(st);
            if start.elapsed().as_secs_f64() >= seconds {
                break;
            }
        }
        Ok((outs, stats, last))
    }

    /// Run round `r` of `manifest`.
    fn round(&self, r: u32, manifest: &Manifest, stats: &mut RoundStats) -> RoundOut {
        let root = self.rec.open("bench.round", 0, r, None);
        let parent = root.id();
        let base = u64::from(r) * 1_000_000;
        let out = catch_unwind(AssertUnwindSafe(|| match self.workload {
            Workload::Table1_3g => {
                let run = if self.rec.on() {
                    self.fold_instrumented(manifest, parent, r, base, stats)
                } else {
                    execute_folded_on(&self.exec, manifest)
                };
                let dir = self.work.join("run");
                self.finish(
                    manifest,
                    run,
                    &dir,
                    parent,
                    r,
                    stats,
                    Vec::new(),
                    Vec::new(),
                )
            }
            Workload::Causal3g => unreachable!("causal_3g streams its cells"),
            Workload::PopulationWifi => self.population_round(manifest, parent, r, stats),
        }));
        self.rec.close(root);
        out.unwrap_or_else(|p| {
            RoundOut::all_failed(
                manifest.cells().len(),
                format!("round {r} panicked: {}", panic_text(p.as_ref())),
            )
        })
    }

    /// `execute_folded_on`, re-expressed through the public calls it is
    /// made of so that each gets a span: `Cell::build_config`,
    /// `Testbed::new` + `try_run`/`try_run_traced`, and `fold_cell`.
    fn fold_instrumented(
        &self,
        m: &Manifest,
        parent: SpanId,
        r: u32,
        base: u64,
        stats: &mut RoundStats,
    ) -> FoldedRun {
        let rec = self.rec;
        let cells = m.cells();
        let level = m.effective_trace();
        let exec_span = rec.open("exec.run", parent, r, None);
        let exec_id = exec_span.id();
        let raw = self.exec.run_folded(
            cells.len(),
            |i| {
                let id = Some(base + i as u64);
                let open = rec.open("exec.cell", exec_id, r, id);
                let out = run_cell(rec, m, &cells[i], level, open.id(), r, id);
                (open, spdyier_prof::take_thread_profile(), out)
            },
            |i, _, (open, prof, out)| {
                let id = Some(base + i as u64);
                let folded = out.map(|(result, log)| {
                    rec.time("scenario.fold", open.id(), r, id, || {
                        fold_cell(m, &cells[i], &result, log.as_ref())
                    })
                });
                rec.close(open);
                (prof, folded)
            },
        );
        rec.close(exec_span);
        let mut limit_error = None;
        let outputs = raw
            .into_iter()
            .enumerate()
            .map(|(i, (prof, out))| {
                stats.prof.merge(&prof);
                match out {
                    Ok(folded) => Some(folded),
                    Err(e) => {
                        limit_error.get_or_insert((i, e));
                        None
                    }
                }
            })
            .collect();
        FoldedRun {
            cells,
            outputs,
            limit_error,
        }
    }

    /// Evaluate and write the round's results contract, and digest it.
    #[allow(clippy::too_many_arguments)]
    fn finish(
        &self,
        m: &Manifest,
        run: FoldedRun,
        dir: &Path,
        parent: SpanId,
        r: u32,
        stats: &mut RoundStats,
        extra: Vec<String>,
        mut problems: Vec<String>,
    ) -> RoundOut {
        let cells = run.cells.len();
        let mut failed = run.outputs.iter().filter(|o| o.is_none()).count();
        if let Some((i, e)) = &run.limit_error {
            problems.push(format!("cell {i}: {e}"));
        }
        let mut visits = 0;
        for f in run.outputs.iter().flatten() {
            visits += f.metrics.visits;
            let proto = usize::from(f.metrics.protocol != "http");
            stats.visits_by_proto[proto] += f.metrics.visits;
        }
        stats.metrics = run
            .outputs
            .iter()
            .flatten()
            .map(|f| f.metrics.clone())
            .collect();
        let outcome = self.rec.time("experiments.finish", parent, r, None, || {
            finish_folded(m, &run, dir)
        });
        match outcome {
            Ok(o) if o.exit == ScenarioExit::Pass => {}
            Ok(o) => {
                problems.push(o.summary);
                problems.extend(
                    o.verdicts
                        .iter()
                        .filter(|v| v.status != VerdictStatus::Pass)
                        .map(|v| format!("{}: {}", v.expr, v.detail)),
                );
                failed = cells;
            }
            Err(e) => {
                problems.push(format!("{}: {e}", dir.display()));
                failed = cells;
            }
        }
        let mut bytes = std::fs::read(dir.join("result.json")).unwrap_or_default();
        for doc in extra {
            bytes.extend_from_slice(doc.as_bytes());
        }
        RoundOut {
            cells,
            failed,
            visits,
            digest: fnv_hex(&bytes),
            problems,
        }
    }

    /// `causal_3g`: one closed-loop stream of cells, seed after seed,
    /// with no barrier between seeds. The seeds a run reaches form a
    /// prefix: a seed runs if the phase had time left when its first
    /// cell was taken and the seed before it ran. Every cell goes through
    /// the trace, causal and attribution layers; the worker that folds a
    /// seed's last cell diffs the seed's rtt-reset pairs and writes its
    /// results contract, so only seeds in flight are held in memory. A
    /// seed plays the part of a round.
    fn causal_stream(
        &self,
        template: &Manifest,
        seconds: f64,
    ) -> (Vec<RoundOut>, Vec<RoundStats>, Manifest) {
        const UNDECIDED: u8 = 0;
        const RUN: u8 = 1;
        const SKIP: u8 = 2;
        let rec = self.rec;
        let start = Instant::now();
        let per_seed = template.cells().len();
        let seed_manifest = |k: usize| {
            let mut m = template.clone();
            m.seeds.base += k as u64;
            m
        };
        let decided: Vec<AtomicU8> = (0..STREAM_SEEDS)
            .map(|_| AtomicU8::new(UNDECIDED))
            .collect();
        // Every cell of seed k-1 is taken before any cell of seed k, so
        // the wait for k-1's decision ends as soon as its taker decides.
        let runs = |k: usize| loop {
            match decided[k].load(Ordering::Acquire) {
                RUN => return true,
                SKIP => return false,
                _ => {}
            }
            let prev = if k == 0 {
                RUN
            } else {
                decided[k - 1].load(Ordering::Acquire)
            };
            if prev == UNDECIDED {
                std::thread::yield_now();
                continue;
            }
            let want = if prev == RUN && start.elapsed().as_secs_f64() < seconds {
                RUN
            } else {
                SKIP
            };
            let _ =
                decided[k].compare_exchange(UNDECIDED, want, Ordering::AcqRel, Ordering::Acquire);
        };
        let pending: Vec<Mutex<Vec<(usize, CausalJob)>>> =
            (0..STREAM_SEEDS).map(|_| Mutex::new(Vec::new())).collect();
        let finished: Mutex<Vec<(usize, RoundOut, RoundStats)>> = Mutex::new(Vec::new());
        let level = template.effective_trace();
        let exec_span = rec.open("exec.run", 0, 0, None);
        let exec_id = exec_span.id();
        self.exec.run_folded(
            STREAM_SEEDS * per_seed,
            |j| {
                let k = j / per_seed;
                if !runs(k) {
                    return None;
                }
                let m = seed_manifest(k);
                let cell = m.cells().swap_remove(j % per_seed);
                let (r, id) = (k as u32, Some(j as u64));
                let open = rec.open("exec.cell", exec_id, r, id);
                let out = catch_unwind(AssertUnwindSafe(|| {
                    run_cell(rec, &m, &cell, level, open.id(), r, id)
                }));
                Some((open, spdyier_prof::take_thread_profile(), cell, out))
            },
            |j, _, job| {
                let (open, prof, cell, out) = job?;
                let (k, r, id) = (j / per_seed, (j / per_seed) as u32, Some(j as u64));
                let (dropped, res) = match out {
                    Ok(Ok((result, Some(log)))) => (
                        log.dropped,
                        catch_unwind(AssertUnwindSafe(|| {
                            causal_cell(rec, &cell, &result, &log, open.id(), r, id)
                        }))
                        .unwrap_or_else(|p| Err(format!("panic: {}", panic_text(p.as_ref()))))
                        .map_err(CellFail::Check),
                    ),
                    Ok(Ok((_, None))) => (0, Err(CellFail::Check("no flight log".into()))),
                    Ok(Err(e)) => (0, Err(CellFail::Limit(e))),
                    Err(p) => (
                        0,
                        Err(CellFail::Check(format!(
                            "panic: {}",
                            panic_text(p.as_ref())
                        ))),
                    ),
                };
                rec.close(open);
                let chunk = {
                    let mut seed = pending[k].lock().expect("seed slot poisoned");
                    seed.push((j % per_seed, (prof, dropped, res)));
                    (seed.len() == per_seed).then(|| std::mem::take(&mut *seed))
                };
                if let Some(mut chunk) = chunk {
                    chunk.sort_by_key(|(i, _)| *i);
                    let m = seed_manifest(k);
                    let mut stats = RoundStats::default();
                    let out = catch_unwind(AssertUnwindSafe(|| {
                        self.causal_finish(&m, chunk.into_iter().map(|(_, c)| c), r, &mut stats)
                    }))
                    .unwrap_or_else(|p| {
                        RoundOut::all_failed(
                            per_seed,
                            format!("seed {}: panic: {}", m.seeds.base, panic_text(p.as_ref())),
                        )
                    });
                    finished
                        .lock()
                        .expect("results poisoned")
                        .push((k, out, stats));
                }
                Some(())
            },
        );
        rec.close(exec_span);

        let mut finished = finished.into_inner().expect("results poisoned");
        finished.sort_by_key(|(k, _, _)| *k);
        let last = seed_manifest(finished.len().saturating_sub(1));
        let (outs, stats) = finished.into_iter().map(|(_, o, s)| (o, s)).unzip();
        (outs, stats, last)
    }

    /// One `causal_3g` seed after its cells ran: diff each protocol's
    /// rtt-reset pair, then write and digest the results contract.
    fn causal_finish(
        &self,
        m: &Manifest,
        jobs: impl Iterator<Item = CausalJob>,
        r: u32,
        stats: &mut RoundStats,
    ) -> RoundOut {
        let rec = self.rec;
        let cells = m.cells();
        let mut problems = Vec::new();
        let mut limit_error = None;
        let mut done: Vec<Option<CausalCell>> = Vec::with_capacity(cells.len());
        for (i, (prof, dropped, cell)) in jobs.enumerate() {
            stats.prof.merge(&prof);
            stats.dropped += dropped;
            done.push(match cell {
                Ok(c) => {
                    stats.records += c.records;
                    stats.jsonl_bytes += c.jsonl_bytes;
                    Some(c)
                }
                Err(CellFail::Limit(e)) => {
                    limit_error.get_or_insert((i, e));
                    None
                }
                Err(CellFail::Check(msg)) => {
                    problems.push(format!("seed {}: cell {i}: {msg}", m.seeds.base));
                    None
                }
            });
        }

        let mut diffs = Vec::new();
        for (a, b) in rtt_reset_pairs(&cells) {
            let (Some(ca), Some(cb)) = (&done[a], &done[b]) else {
                continue;
            };
            let (la, lb) = (cells[a].artifact_label(m), cells[b].artifact_label(m));
            let diffed = rec.time("causal.diff", 0, r, None, || {
                let report = diff_paths(&la, &ca.paths, &lb, &cb.paths);
                let edges: i64 = report.edge_deltas_us().iter().sum();
                if edges != report.plt_delta_us() {
                    Err(format!(
                        "diff {la} -> {lb}: edge deltas sum to {edges} us, PLT delta is {} us",
                        report.plt_delta_us()
                    ))
                } else if !report.unaligned_a.is_empty() || !report.unaligned_b.is_empty() {
                    Err(format!("diff {la} -> {lb}: unaligned visits"))
                } else {
                    Ok(report.to_json())
                }
            });
            match diffed {
                Ok(json) => diffs.push(json),
                Err(e) => problems.push(e),
            }
        }
        let run = FoldedRun {
            cells,
            outputs: done
                .into_iter()
                .map(|c| {
                    c.map(|c| FoldedCell {
                        metrics: c.metrics,
                        dump_line: None,
                        trace_files: Vec::new(),
                    })
                })
                .collect(),
            limit_error,
        };
        let dir = self.work.join(format!("seed{r}"));
        let mut out = self.finish(m, run, &dir, 0, r, stats, diffs, problems);
        let _ = std::fs::remove_dir_all(&dir);
        if !out.problems.is_empty() {
            out.failed = out.cells;
        }
        out
    }

    /// `population_wifi`: a fresh sweep stopped halfway, then resumed
    /// from its checkpoint store.
    fn population_round(
        &self,
        m: &Manifest,
        parent: SpanId,
        r: u32,
        stats: &mut RoundStats,
    ) -> RoundOut {
        let rec = self.rec;
        let cells = m.cells().len();
        let dir = self.work.join("sweep");
        let _ = std::fs::remove_dir_all(&dir);
        let half = SweepOptions {
            stop_after: Some(cells / 2),
        };
        match rec.time("sweep.fresh", parent, r, None, || {
            run_sweep_on(&self.exec, m, &dir, half)
        }) {
            Ok(SweepOutcome::Interrupted { .. }) => {}
            Ok(SweepOutcome::Completed(_)) => {
                return RoundOut::all_failed(cells, "stop_after did not interrupt".into())
            }
            Err(e) => return RoundOut::all_failed(cells, e.0),
        }
        let store = dir.join(SWEEP_STORE_NAME);
        if r == 0 {
            if let Err(e) = std::fs::copy(&store, half_store_path(&self.work)) {
                return RoundOut::all_failed(cells, format!("{}: {e}", store.display()));
            }
        }
        match rec.time("sweep.resume", parent, r, None, || {
            run_sweep_on(&self.exec, m, &dir, SweepOptions::default())
        }) {
            Ok(SweepOutcome::Completed(o)) if o.exit == ScenarioExit::Pass => {}
            Ok(SweepOutcome::Completed(o)) => return RoundOut::all_failed(cells, o.summary),
            Ok(SweepOutcome::Interrupted { .. }) => {
                return RoundOut::all_failed(cells, "resumed sweep did not finish".into())
            }
            Err(e) => return RoundOut::all_failed(cells, e.0),
        }
        stats.store_bytes = std::fs::metadata(&store).map(|md| md.len()).unwrap_or(0);
        let visits = population_visits(m) * cells as u64;
        RoundOut {
            cells,
            failed: 0,
            visits,
            digest: fnv_hex(&std::fs::read(dir.join("result.json")).unwrap_or_default()),
            problems: Vec::new(),
        }
    }

    /// Checks that need the measured phase to be over. On
    /// `population_wifi`, every round's stop-and-resume `result.json`
    /// must equal a plain fold of the same cells (`execute_folded_on` +
    /// `finish_folded`; instrumented in the traced run, where it also
    /// yields the core and executor layer numbers). Returns the
    /// reference's stats, if one ran.
    pub fn after_phase(&self, m: &Manifest, rounds: &mut [RoundOut]) -> Option<RoundStats> {
        if self.workload != Workload::PopulationWifi {
            return None;
        }
        let mut stats = RoundStats::default();
        let run = if self.rec.on() {
            self.fold_instrumented(m, 0, PROBE_ROUND, u64::from(PROBE_ROUND) << 20, &mut stats)
        } else {
            execute_folded_on(&self.exec, m)
        };
        let dir = self.work.join("reference");
        let reference = self.finish(
            m,
            run,
            &dir,
            0,
            PROBE_ROUND,
            &mut stats,
            Vec::new(),
            Vec::new(),
        );
        let expect_visits = population_visits(m) * reference.cells as u64;
        for round in rounds.iter_mut() {
            let mut why = reference.problems.clone();
            if reference.visits != expect_visits {
                why.push(format!(
                    "reference fold carried {} visits, expected {expect_visits}",
                    reference.visits
                ));
            }
            if round.digest != reference.digest {
                why.push(format!(
                    "stop-and-resume result.json {} differs from the plain fold's {}",
                    round.digest, reference.digest
                ));
            }
            if !why.is_empty() {
                round.failed = round.cells;
                round.problems.extend(why);
            }
        }
        Some(stats)
    }

    /// Time the calls whose work the measured rounds already include but
    /// cannot isolate (each is repeated `reps` times; the recorder keeps
    /// every repetition): manifest decode, assertion evaluation, pooling
    /// by `CellMetrics::merge`, and the checkpoint-store replay; and
    /// empty spans, for the recorder's floor.
    pub fn probes(&self, m: &Manifest, cells: &[CellMetrics], reps: usize) {
        let rec = self.rec;
        let text = self.manifest_text(0);
        for _ in 0..FLOOR_SPANS {
            rec.time(FLOOR_SPAN, 0, PROBE_ROUND, None, || ());
        }
        for _ in 0..reps {
            let decoded = rec.time("scenario.decode", 0, PROBE_ROUND, None, || decode(&text));
            std::hint::black_box(decoded.ok());
            let verdicts = rec.time("scenario.evaluate", 0, PROBE_ROUND, None, || {
                evaluate(m, cells)
            });
            std::hint::black_box(verdicts);
            let pooled = rec.time("scenario.merge", 0, PROBE_ROUND, None, || {
                let mut pool = CellMetrics::default();
                cells.iter().all(|c| pool.merge(c).is_ok()).then_some(pool)
            });
            std::hint::black_box(pooled);
            if self.workload == Workload::PopulationWifi {
                let replay = rec.time("sweep.replay", 0, PROBE_ROUND, None, || {
                    replay_store(&half_store_path(&self.work), m, m.cells().len())
                });
                std::hint::black_box(replay.ok());
            }
        }
    }
}

/// Visits per `population_wifi` cell.
fn population_visits(m: &Manifest) -> u64 {
    match m.workload {
        spdyier_scenario::Workload::Synthetic { visits, .. } => visits.into(),
        _ => 0,
    }
}

/// `Cell::build_config`, then `Testbed::new` + `try_run` (or
/// `try_run_traced` when the manifest records a trace), each in a span.
fn run_cell(
    rec: &Recorder,
    m: &Manifest,
    cell: &Cell,
    level: TraceLevel,
    parent: SpanId,
    r: u32,
    id: Option<u64>,
) -> Result<(RunResult, Option<FlightLog>), RunError> {
    let cfg = rec.time("scenario.build_config", parent, r, id, || {
        cell.build_config(m)
    });
    let name = if cell.protocol.compact() == "http" {
        "core.run.http"
    } else {
        "core.run.spdy"
    };
    rec.time(name, parent, r, id, || {
        let testbed = Testbed::new(cfg);
        if level == TraceLevel::Off {
            testbed.try_run().map(|result| (result, None))
        } else {
            testbed
                .try_run_traced()
                .map(|(result, log)| (result, Some(log)))
        }
    })
}

/// One traced cell through `FlightLog::to_jsonl`, `parse_jsonl`,
/// `EventModel::from_records`, `critical_paths`, `attribute_stalls` and
/// `CellMetrics::from_run`, checking each layer's output on the way.
fn causal_cell(
    rec: &Recorder,
    cell: &Cell,
    result: &RunResult,
    log: &FlightLog,
    parent: SpanId,
    r: u32,
    id: Option<u64>,
) -> Result<CausalCell, String> {
    if log.dropped > 0 {
        return Err(format!("flight recorder dropped {} records", log.dropped));
    }
    let jsonl = rec.time("trace.jsonl", parent, r, id, || log.to_jsonl());
    let records = rec.time("causal.parse", parent, r, id, || parse_jsonl(&jsonl))?;
    if records.len() != log.events.len() {
        return Err(format!(
            "parse_jsonl read {} records back, the log holds {}",
            records.len(),
            log.events.len()
        ));
    }
    let model = rec.time("causal.model", parent, r, id, || {
        EventModel::from_records(&records)
    });
    let paths = rec.time("causal.paths", parent, r, id, || critical_paths(&model));
    for p in &paths {
        let mut at = p.start_us;
        for e in &p.edges {
            if e.start_us != at || e.end_us < e.start_us {
                return Err(format!(
                    "visit {}: critical path does not tile its window",
                    p.visit
                ));
            }
            at = e.end_us;
        }
        let sum: u64 = p.sums_us().iter().sum();
        if at != p.end_us || sum != p.plt_us() {
            return Err(format!(
                "visit {}: critical-path edges sum to {sum} us, PLT is {} us",
                p.visit,
                p.plt_us()
            ));
        }
    }
    let stalls = rec.time("core.attribute_stalls", parent, r, id, || {
        attribute_stalls(log)
    });
    if let Some(b) = stalls.iter().find(|b| b.attributed_us() != b.plt_us()) {
        return Err(format!(
            "visit {}: stall attribution covers {} us of a {} us PLT",
            b.visit,
            b.attributed_us(),
            b.plt_us()
        ));
    }
    let metrics = rec.time("scenario.fold", parent, r, id, || {
        CellMetrics::from_run(cell, result, Some(log))
    });
    if metrics.critical_visits != paths.len() as u64
        || metrics.critical_sums_us != rollup_us(&paths)
    {
        return Err(
            "critical paths from the parsed JSONL differ from CellMetrics::from_run's".into(),
        );
    }
    Ok(CausalCell {
        metrics,
        paths,
        records: records.len() as u64,
        jsonl_bytes: jsonl.len() as u64,
    })
}

/// `(rtt-reset off, rtt-reset on)` cell index pairs with the same
/// protocol and seed.
fn rtt_reset_pairs(cells: &[Cell]) -> Vec<(usize, usize)> {
    let mut pairs = Vec::new();
    for (a, ca) in cells.iter().enumerate() {
        if !ca.variant.ends_with("=false") {
            continue;
        }
        if let Some(b) = cells.iter().position(|cb| {
            cb.variant.ends_with("=true") && cb.seed == ca.seed && cb.protocol == ca.protocol
        }) {
            pairs.push((a, b));
        }
    }
    pairs
}
