//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload <table1_3g|causal_3g|population_wifi> --seed <n>
//!           --seconds <s> --trace <0|1> [--size full|tiny]
//! ```
//!
//! The command is an orchestrator. It runs each measurement in a fresh
//! child process (itself, re-executed with `--child`):
//!
//! 1. one untraced run of the workload, which gives `visits_per_s`,
//!    `cpu_ms_per_visit` and `peak_rss_mb`;
//! 2. with `--trace 1`, one traced run, which gives the per-layer
//!    metrics and `bench.trace_overhead_pct`; its result digests must
//!    equal the untraced run's;
//! 3. `SETUP_SAMPLES` set-up-only processes; `setup_s` is their median.
//!
//! The last line of standard output is the result object; the line
//! before it is a report with the provenance block, the digests and
//! every metric. Both are also written under `perfbench/out/`.
//! See `perfbench/README.md` for the workloads and the metrics.

mod layers;
mod spans;
mod workload;

use serde_json::Value;
use spans::Recorder;
use spdyier_experiments::sweep::replay_store;
use spdyier_experiments::Executor;
use std::alloc::{GlobalAlloc, Layout, System};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use workload::{half_store_path, Runner, Size, Workload};

/// Counts allocations through `spdyier_prof::CountingAlloc` only while
/// switched on (in the traced run), so the untraced run pays one relaxed
/// load per allocation and no shared counter traffic.
struct BenchAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);

// SAFETY: every method forwards its arguments unchanged to an allocator
// whose contract is the same (`CountingAlloc` forwards to `System` after
// counting). Memory from either path is `System` memory, so freeing or
// growing it through the other path is sound.
unsafe impl GlobalAlloc for BenchAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's guarantees for `layout` pass through.
        unsafe {
            if COUNTING.load(Ordering::Relaxed) {
                spdyier_prof::CountingAlloc.alloc(layout)
            } else {
                System.alloc(layout)
            }
        }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through either path.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller's guarantees for `ptr`, `layout` and
        // `new_size` pass through.
        unsafe {
            if COUNTING.load(Ordering::Relaxed) {
                spdyier_prof::CountingAlloc.realloc(ptr, layout, new_size)
            } else {
                System.realloc(ptr, layout, new_size)
            }
        }
    }
}

#[global_allocator]
static GLOBAL: BenchAlloc = BenchAlloc;

/// Set-up-only processes per invocation; `setup_s` is their median.
const SETUP_SAMPLES: usize = 31;

/// Repetitions of each after-phase probe in the traced run.
const PROBE_REPS: usize = 9;

/// Every child must have exited this long after the command started.
const DEADLINE: Duration = Duration::from_secs(170);

/// Where the benchmark package lives (its working and output
/// directories are under it, inside the checkout).
const BENCH_DIR: &str = env!("CARGO_MANIFEST_DIR");

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Child {
    Setup,
    Run,
}

#[derive(Debug, Clone)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
    child: Option<Child>,
    work: Option<PathBuf>,
}

const USAGE: &str = "usage: perfbench --workload <table1_3g|causal_3g|population_wifi> \
                     --seed <n> --seconds <s> --trace <0|1> [--size full|tiny]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::Table1_3g,
        seed: 0,
        seconds: 0.0,
        trace: false,
        size: Size::Full,
        child: None,
        work: None,
    };
    let (mut have_workload, mut have_seconds) = (false, false);
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                args.workload = Workload::from_name(value)
                    .ok_or_else(|| format!("unknown workload {value:?}"))?;
                have_workload = true;
            }
            "--seed" => {
                args.seed = value
                    .parse()
                    .map_err(|_| format!("--seed {value:?} is not a whole number"))?
            }
            "--seconds" => {
                args.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0 && *s <= 120.0)
                    .ok_or_else(|| format!("--seconds {value:?} is not in (0, 120]"))?;
                have_seconds = true;
            }
            "--trace" => {
                args.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value:?} is not 0 or 1")),
                }
            }
            "--size" => {
                args.size = match value {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    _ => return Err(format!("--size {value:?} is not full or tiny")),
                }
            }
            "--child" => {
                args.child = Some(match value {
                    "setup" => Child::Setup,
                    "run" => Child::Run,
                    _ => return Err(format!("--child {value:?}")),
                })
            }
            "--work" => args.work = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if !have_workload || !have_seconds {
        return Err("--workload and --seconds are required".into());
    }
    Ok(args)
}

fn main() {
    let start = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let result = match args.child {
        Some(Child::Setup) => child_setup(&args, start),
        Some(Child::Run) => child_run(&args),
        None => orchestrate(&args),
    };
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

// ---------------------------------------------------------------------
// Host measurements
// ---------------------------------------------------------------------

/// `struct timeval` on Linux.
#[repr(C)]
#[derive(Default)]
struct TimeVal {
    sec: std::os::raw::c_long,
    usec: std::os::raw::c_long,
}

/// `struct rusage` on Linux: two `timeval`s and fourteen `long`s.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: TimeVal,
    stime: TimeVal,
    maxrss_kb: std::os::raw::c_long,
    rest: [std::os::raw::c_long; 13],
}

extern "C" {
    fn getrusage(who: std::os::raw::c_int, usage: *mut RUsage) -> std::os::raw::c_int;
}

/// This process's (user + sys CPU seconds, peak resident set in KiB).
fn rusage_self() -> (f64, u64) {
    let mut ru = RUsage::default();
    // SAFETY: `ru` is a writable `struct rusage` with the C layout
    // getrusage(2) fills; RUSAGE_SELF is 0.
    let rc = unsafe { getrusage(0, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    let secs = |t: &TimeVal| t.sec as f64 + t.usec as f64 / 1e6;
    (
        secs(&ru.utime) + secs(&ru.stime),
        ru.maxrss_kb.max(0) as u64,
    )
}

fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

// ---------------------------------------------------------------------
// Children
// ---------------------------------------------------------------------

fn work_dir(args: &Args) -> Result<&Path, String> {
    args.work
        .as_deref()
        .ok_or_else(|| "--child needs --work".to_string())
}

/// Set-up: decode the seed's manifest, expand its cells, size the
/// executor. A set-up-only process of `population_wifi` also replays the
/// half-written checkpoint store its run left behind.
fn child_setup(args: &Args, start: Instant) -> Result<(), String> {
    let work = work_dir(args)?;
    let manifest = workload::decode(&args.workload.manifest_json(args.size, args.seed, 0))?;
    let cells = manifest.cells();
    let exec = Executor::new(workers());
    if args.workload == Workload::PopulationWifi {
        let replay = replay_store(&half_store_path(work), &manifest, cells.len())?;
        if replay.recovered < cells.len() / 2 {
            return Err(format!(
                "half-written store replayed {} cells, expected at least {}",
                replay.recovered,
                cells.len() / 2
            ));
        }
    }
    let setup_s = start.elapsed().as_secs_f64();
    std::hint::black_box((cells, exec));
    println!(
        "{}",
        serde_json::to_string(&obj(vec![("setup_s", Value::F64(setup_s))])).expect("json")
    );
    Ok(())
}

/// One measured run: rounds until `--seconds` are up, then the checks
/// that need the phase to be over, then (traced) the probes.
fn child_run(args: &Args) -> Result<(), String> {
    let work = work_dir(args)?.to_path_buf();
    let first = workload::decode(&args.workload.manifest_json(args.size, args.seed, 0))?;
    let exec = Executor::new(workers());
    let rec = Recorder::new(args.trace);
    let runner = Runner {
        workload: args.workload,
        size: args.size,
        seed: args.seed,
        exec,
        rec: &rec,
        work,
    };
    if args.trace {
        spdyier_prof::set_enabled(true);
        COUNTING.store(true, Ordering::Relaxed);
    }
    let allocs0 = spdyier_prof::global_counts();
    let (cpu0, _) = rusage_self();
    let t0 = Instant::now();
    let (mut rounds, stats, last) = runner.measure(&first, args.seconds)?;
    let wall_s = t0.elapsed().as_secs_f64();
    let (cpu1, _) = rusage_self();
    let allocs = spdyier_prof::global_counts().since(allocs0);
    COUNTING.store(false, Ordering::Relaxed);

    let reference = runner.after_phase(&first, &mut rounds);
    spdyier_prof::set_enabled(false);
    let visits: u64 = rounds.iter().map(|r| r.visits).sum();
    // One digest per round; a workload that repeats its manifest repeats
    // its digest, which is listed once.
    let mut digests: Vec<String> = rounds.iter().map(|r| r.digest.clone()).collect();
    digests.dedup();
    let mut report = vec![
        ("wall_s", Value::F64(wall_s)),
        ("cpu_s", Value::F64(cpu1 - cpu0)),
        ("visits", Value::U64(visits)),
        ("rounds", Value::U64(rounds.len() as u64)),
        (
            "cells",
            Value::U64(rounds.iter().map(|r| r.cells as u64).sum()),
        ),
        (
            "failed",
            Value::U64(rounds.iter().map(|r| r.failed as u64).sum()),
        ),
        (
            "digests",
            Value::Array(digests.into_iter().map(Value::Str).collect()),
        ),
        (
            "problems",
            Value::Array(
                rounds
                    .iter()
                    .flat_map(|r| r.problems.iter().cloned().map(Value::Str))
                    .collect(),
            ),
        ),
    ];
    if args.trace {
        let probe_cells = &reference
            .as_ref()
            .unwrap_or(&stats[stats.len() - 1])
            .metrics;
        runner.probes(&last, probe_cells, PROBE_REPS);
        let workers = runner.exec.jobs();
        drop(runner);
        let spans = rec.into_spans();
        let traced = layers::Traced {
            spans: &spans,
            rounds: &stats,
            reference: reference.as_ref(),
            first_round_cells: rounds[0].cells,
            workers,
            allocs,
            visits,
        };
        let layer_values = traced
            .metrics()
            .into_iter()
            .map(|(name, value, unit)| (name, metric(value, unit)))
            .collect();
        report.push(("layers", obj(layer_values)));
        let out = out_dir()?;
        let name = format!("{}-seed{}.spans.jsonl", args.workload.name(), args.seed);
        std::fs::write(out.join(name), spans::to_jsonl(&spans)).map_err(|e| e.to_string())?;
    }
    let (_, peak_rss_kb) = rusage_self();
    report.push(("peak_rss_kb", Value::U64(peak_rss_kb)));
    println!("{}", serde_json::to_string(&obj(report)).expect("json"));
    Ok(())
}

// ---------------------------------------------------------------------
// Orchestrator
// ---------------------------------------------------------------------

fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn metric(value: f64, unit: &str) -> Value {
    obj(vec![
        ("value", Value::F64(value)),
        ("unit", Value::Str(unit.into())),
    ])
}

fn out_dir() -> Result<PathBuf, String> {
    let dir = Path::new(BENCH_DIR).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// Run this binary as a child with `extra` flags; return the last line
/// of its standard output, parsed.
fn run_child(
    args: &Args,
    work: &Path,
    label: &str,
    extra: &[&str],
    deadline: Instant,
) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out_path = work.join(format!("{label}.out"));
    let out_file = std::fs::File::create(&out_path).map_err(|e| e.to_string())?;
    let size = match args.size {
        Size::Full => "full",
        Size::Tiny => "tiny",
    };
    let mut child = Command::new(exe)
        .args(["--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--size", size])
        .args(["--work", &work.display().to_string()])
        .args(extra)
        .stdin(Stdio::null())
        .stdout(out_file)
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawn {label}: {e}"))?;
    let status = loop {
        if let Some(status) = child.try_wait().map_err(|e| e.to_string())? {
            break status;
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("{label}: still running at the deadline; killed"));
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    if !status.success() {
        return Err(format!("{label}: exited with {status}"));
    }
    let text = std::fs::read_to_string(&out_path).map_err(|e| e.to_string())?;
    let line = text.lines().last().unwrap_or_default();
    serde_json::from_str(line).map_err(|e| format!("{label}: unreadable report {line:?}: {e}"))
}

fn num(v: &Value, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("child report lacks {key:?}"))
}

fn strings(v: &Value, key: &str) -> Vec<String> {
    v.get(key)
        .and_then(Value::as_array)
        .map(|a| {
            a.iter()
                .filter_map(|s| s.as_str().map(String::from))
                .collect()
        })
        .unwrap_or_default()
}

fn orchestrate(args: &Args) -> Result<(), String> {
    let deadline = Instant::now() + DEADLINE;
    let work = Path::new(BENCH_DIR).join("work").join(format!(
        "{}-{}",
        args.workload.name(),
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let result = measure(args, &work, deadline);
    let _ = std::fs::remove_dir_all(&work);
    let (report, result) = result?;
    let out = out_dir()?;
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    let report_text = serde_json::to_string(&obj(vec![("report", report)])).expect("json");
    let result_text = serde_json::to_string(&result).expect("json");
    std::fs::write(
        out.join(format!("{stem}.json")),
        format!("{report_text}\n{result_text}\n"),
    )
    .map_err(|e| e.to_string())?;
    println!("{report_text}");
    println!("{result_text}");
    Ok(())
}

/// The measurements, in order: the untraced run, the traced run, and the
/// set-up samples (after the run, which leaves the half-written store
/// `population_wifi`'s set-up replays).
fn measure(args: &Args, work: &Path, deadline: Instant) -> Result<(Value, Value), String> {
    let untraced = run_child(
        args,
        work,
        "untraced",
        &["--child", "run", "--trace", "0"],
        deadline,
    )?;
    let traced = if args.trace {
        Some(run_child(
            args,
            work,
            "traced",
            &["--child", "run", "--trace", "1"],
            deadline,
        )?)
    } else {
        None
    };
    let mut setup = Vec::with_capacity(SETUP_SAMPLES);
    for i in 0..SETUP_SAMPLES {
        let s = run_child(
            args,
            work,
            &format!("setup{i}"),
            &["--child", "setup"],
            deadline,
        )?;
        setup.push(num(&s, "setup_s")?);
    }

    let mut problems = strings(&untraced, "problems");
    let mut attempted = num(&untraced, "cells")?;
    let mut failed = num(&untraced, "failed")?;
    let visits = num(&untraced, "visits")?;
    let visits_per_s = layers::ratio(visits, num(&untraced, "wall_s")?);
    let end_to_end = obj(vec![
        ("setup_s", metric(layers::median(&setup), "s")),
        ("visits_per_s", metric(visits_per_s, "visits/s")),
        (
            "cpu_ms_per_visit",
            metric(layers::ratio(num(&untraced, "cpu_s")? * 1e3, visits), "ms"),
        ),
        (
            "peak_rss_mb",
            metric(num(&untraced, "peak_rss_kb")? / 1024.0, "MB"),
        ),
    ]);

    let digests = strings(&untraced, "digests");
    let mut per_layer = None;
    let mut traced_digests = Vec::new();
    if let Some(traced) = &traced {
        problems.extend(strings(traced, "problems"));
        attempted += num(traced, "cells")?;
        failed += num(traced, "failed")?;
        traced_digests = strings(traced, "digests");
        let common = digests.len().min(traced_digests.len());
        if digests[..common] != traced_digests[..common] {
            problems.push("untraced and traced runs produced different result digests".into());
        }
        let traced_vps = layers::ratio(num(traced, "visits")?, num(traced, "wall_s")?);
        let Some(Value::Object(mut layer_values)) = traced.get("layers").cloned() else {
            return Err("traced report lacks layers".into());
        };
        layer_values.push((
            "bench.trace_overhead_pct".into(),
            metric(
                layers::ratio(visits_per_s - traced_vps, visits_per_s) * 100.0,
                "%",
            ),
        ));
        layer_values.push((
            "cell_error_rate".into(),
            metric(layers::ratio(failed, attempted), "ratio"),
        ));
        per_layer = Some(Value::Object(layer_values));
    }
    if visits == 0.0 || attempted == 0.0 {
        problems.push("no visits were carried through the workload".into());
    }
    let correct = failed == 0.0 && problems.is_empty();

    let report = obj(vec![
        ("workload", Value::Str(args.workload.name().into())),
        ("seed", Value::U64(args.seed)),
        ("seconds", Value::F64(args.seconds)),
        ("provenance", provenance()),
        ("end_to_end", end_to_end.clone()),
        ("per_layer", per_layer.clone().unwrap_or(Value::Null)),
        (
            "digests",
            obj(vec![
                (
                    "untraced",
                    Value::Array(digests.into_iter().map(Value::Str).collect()),
                ),
                (
                    "traced",
                    Value::Array(traced_digests.into_iter().map(Value::Str).collect()),
                ),
            ]),
        ),
        (
            "setup_samples_s",
            Value::Array(setup.into_iter().map(Value::F64).collect()),
        ),
        (
            "untraced_run",
            obj(vec![
                (
                    "rounds",
                    untraced.get("rounds").cloned().unwrap_or(Value::Null),
                ),
                (
                    "wall_s",
                    untraced.get("wall_s").cloned().unwrap_or(Value::Null),
                ),
            ]),
        ),
        (
            "problems",
            Value::Array(problems.into_iter().map(Value::Str).collect()),
        ),
    ]);
    let result = obj(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", Value::U64(attempted as u64)),
        ("failed", Value::U64(failed as u64)),
        ("metrics", per_layer.unwrap_or(end_to_end)),
    ]);
    Ok((report, result))
}

// ---------------------------------------------------------------------
// Provenance
// ---------------------------------------------------------------------

/// The commit (when the checkout is a git work tree), a digest of the
/// sources the benchmark builds, the host's parallelism and executor
/// width, the compiler and the build profile.
fn provenance() -> Value {
    let repo = Path::new(BENCH_DIR).parent().unwrap_or(Path::new("."));
    let rustc = Command::new("rustc")
        .arg("--version")
        .stderr(Stdio::null())
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_default();
    obj(vec![
        ("commit", git_head(repo).map_or(Value::Null, Value::Str)),
        ("source_digest", Value::Str(source_digest(repo))),
        ("nproc", Value::U64(workers() as u64)),
        (
            "executor_workers",
            Value::U64(Executor::new(workers()).jobs() as u64),
        ),
        ("rustc", Value::Str(rustc)),
        (
            "profile",
            Value::Str(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .into(),
            ),
        ),
    ])
}

/// `HEAD`'s commit, read from `.git` without running git.
fn git_head(repo: &Path) -> Option<String> {
    let git = repo.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()?
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
}

/// FNV-1a over the workspace sources (`Cargo.toml`, `Cargo.lock`,
/// `crates/`, `vendor/`), path and contents, in path order.
fn source_digest(repo: &Path) -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            if path.is_dir() {
                walk(&path, files);
            } else {
                files.push(path);
            }
        }
    }
    let mut files = vec![repo.join("Cargo.toml"), repo.join("Cargo.lock")];
    walk(&repo.join("crates"), &mut files);
    walk(&repo.join("vendor"), &mut files);
    files.sort();
    let mut bytes = Vec::new();
    for f in &files {
        if let Ok(contents) = std::fs::read(f) {
            bytes.extend_from_slice(
                f.strip_prefix(repo)
                    .unwrap_or(f)
                    .to_string_lossy()
                    .as_bytes(),
            );
            bytes.extend_from_slice(&contents);
        }
    }
    workload::fnv_hex(&bytes)
}
