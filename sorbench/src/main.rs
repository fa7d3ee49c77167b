//! `sorbench` — the end-to-end benchmark of the SOR pipeline.
//!
//! ```text
//! sorbench run <workload|all> [--seed N] [--seconds S] [--trace 0|1] [--out DIR] [--smoke]
//! sorbench agree [--sets 2] [--runs 3] [--seconds S] [--smoke]
//! ```
//!
//! `run` repeats the workload's episode (set-up, timed region, output
//! checks) until `--seconds` have passed, and at least three times. It
//! runs an untraced pass (end-to-end metrics), a traced pass (per-layer
//! metrics, sealed into `DIR/<workload>.sorar`), or with no `--trace`
//! both, untraced first. Every metric is printed as
//! `metric <name> <value> <unit>`, then `output_digest`, then one JSON
//! result line. The exit code is non-zero when any check fails.
//! The workload may also be given as `--workload <name>`.
//!
//! `agree` runs every workload in several sets of seeded runs and fails
//! when the sets' medians differ by more than the bounds in
//! `BENCHMARK.json`, or when any seed's output digest differs.

mod gen;
mod probe;
mod report;
mod sim;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use sor_obs::{parse_json, RunMeta, ARCHIVE_SCHEMA_VERSION};

use report::{per_layer_names, Metric, Pass, END_TO_END};
use workloads::{run_episode, Workload};

const USAGE: &str = "usage:\n\
    \x20 sorbench run <workload|all> [--seed N] [--seconds S] [--trace 0|1] [--out DIR] [--smoke]\n\
    \x20 sorbench agree [--sets N] [--runs N] [--seconds S] [--smoke]\n\
    workloads: admission_churn, trail_collection, rank_storm\n";

/// Episodes every pass runs at least: medians over several set-ups and
/// timed regions, and enough samples for each registered percentile.
const MIN_EPISODES: usize = 3;

/// Run length when `--seconds` is not given (matches `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 20.0;

#[derive(Debug, Clone)]
struct Opts {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    out: PathBuf,
    smoke: bool,
    sets: usize,
    runs: usize,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
    let mut o = Opts {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: None,
        out: Path::new(&target).join("sorbench"),
        smoke: false,
        sets: 2,
        runs: 3,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().cloned().ok_or(format!("{flag} needs a value"));
        let bad = |flag: &str, v: &str| format!("bad {flag} value `{v}`");
        match arg.as_str() {
            "--workload" => o.workload = Some(value(arg)?),
            "--seed" => {
                let v = value(arg)?;
                o.seed = v.parse().map_err(|_| bad(arg, &v))?;
            }
            "--seconds" => {
                let v = value(arg)?;
                o.seconds = v.parse().ok().filter(|s: &f64| *s >= 0.0).ok_or(bad(arg, &v))?;
            }
            "--trace" => {
                let v = value(arg)?;
                o.trace = Some(match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(arg, &v)),
                });
            }
            "--out" => o.out = PathBuf::from(value(arg)?),
            "--sets" => {
                let v = value(arg)?;
                o.sets = v.parse().ok().filter(|&n| n >= 2).ok_or(bad(arg, &v))?;
            }
            "--runs" => {
                let v = value(arg)?;
                o.runs = v.parse().ok().filter(|&n| n >= 1).ok_or(bad(arg, &v))?;
            }
            "--smoke" => o.smoke = true,
            w if !w.starts_with('-') && o.workload.is_none() => o.workload = Some(w.to_string()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(o)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.split_first() {
        Some((cmd, rest)) => (cmd.as_str(), rest),
        None => ("", &[][..]),
    };
    let opts = match parse(rest) {
        Ok(o) => o,
        Err(e) => {
            eprint!("sorbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = refuse_knobs() {
        eprintln!("sorbench: {e}");
        return ExitCode::from(2);
    }
    let outcome = match (cmd, opts.workload.as_deref()) {
        ("run", Some("all")) => run_all(&opts),
        ("run", Some(name)) => match Workload::from_name(name) {
            Some(w) => run_one(w, &opts),
            None => Err(format!("unknown workload `{name}`")),
        },
        ("agree", None) => agree(&opts),
        _ => {
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("sorbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Knobs that select between program code paths. Every number this
/// benchmark prints describes the default configuration, so it refuses
/// to run with any of them set.
fn refuse_knobs() -> Result<(), String> {
    let set: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("SOR_SCRIPT_") || k == "SOR_SCHED_SOLVER")
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!("refusing to run with code-path knobs set: {}", set.join(", ")))
    }
}

/// Worker threads: `SOR_THREADS` when set, else `min(nproc, 2)`.
fn pin_threads() -> (usize, usize) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = std::env::var("SOR_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(nproc.min(2));
    sor_par::set_threads(threads);
    (threads, nproc)
}

/// The commit this source tree came from, read from `.git` beside the
/// package (there is none in an exported checkout: "unknown").
fn git_sha() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: &Path| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&git.join(reference))
        .or_else(|| {
            read(&git.join("packed-refs"))?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn run_pass(w: Workload, opts: &Opts, traced: bool) -> Result<Pass, String> {
    let start = Instant::now();
    let mut pass = Pass::default();
    while pass.episodes < MIN_EPISODES || start.elapsed().as_secs_f64() < opts.seconds {
        pass.absorb(run_episode(w, opts.seed, opts.smoke, traced)?);
    }
    Ok(pass)
}

fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        match m.value {
            Some(v) => println!("metric {} {v:.6} {}", m.name, m.unit),
            None => println!("metric {} null {}", m.name, m.unit),
        }
    }
}

fn run_one(w: Workload, opts: &Opts) -> Result<bool, String> {
    let (threads, nproc) = pin_threads();
    let sha = git_sha();
    let sor_threads = std::env::var("SOR_THREADS").unwrap_or_else(|_| "unset".into());
    println!(
        "meta workload={} seed={} seconds={} threads={threads} nproc={nproc} \
         SOR_THREADS={sor_threads} git_sha={sha}",
        w.name(),
        opts.seed,
        opts.seconds
    );
    let passes = match opts.trace {
        Some(traced) => vec![traced],
        None => vec![false, true],
    };
    let mut correct = true;
    let (mut attempted, mut failed) = (0, 0);
    let mut metrics: Vec<Metric> = Vec::new();
    let mut digest = None;
    let mut untraced_run_s = None;
    for traced in passes {
        let pass = run_pass(w, opts, traced)?;
        let label = if traced { "traced" } else { "untraced" };
        println!("meta pass={label} episodes={}", pass.episodes);
        for v in &pass.violations {
            eprintln!("sorbench: check failed ({}, {label}): {v}", w.name());
        }
        correct &= pass.violations.is_empty();
        if digest.is_some_and(|d| d != pass.digest) {
            eprintln!("sorbench: traced and untraced passes disagree on the output digest");
            correct = false;
        }
        digest = Some(pass.digest);
        let (a, f) = pass.attempted_failed();
        attempted += a;
        failed += f;
        let mut got = if traced {
            let (mut layer, verdict) = pass.per_layer();
            if let Err(e) = verdict {
                eprintln!("sorbench: ledger check failed ({}): {e}", w.name());
                correct = false;
            }
            if let (Some(u), Some(t)) = (untraced_run_s, pass.run_s()) {
                layer.push(Metric {
                    name: "bench.trace_overhead_ratio".into(),
                    value: Some(t / u - 1.0),
                    unit: "ratio",
                });
            }
            let meta = RunMeta {
                schema_version: ARCHIVE_SCHEMA_VERSION,
                git_sha: sha.clone(),
                scenario: w.name().to_string(),
                seed: opts.seed,
                threads: threads as u32,
                knobs: vec![
                    ("SOR_THREADS".into(), sor_threads.clone()),
                    ("nproc".into(), nproc.to_string()),
                ],
            };
            let path = report::write_archive(&opts.out, w.name(), meta, pass.trace, &layer)?;
            println!("meta archive={}", path.display());
            layer
        } else {
            untraced_run_s = pass.run_s();
            pass.end_to_end(report::peak_rss_mb())
        };
        print_metrics(&got);
        metrics.append(&mut got);
    }
    println!("output_digest {} {:016x}", w.name(), digest.unwrap_or(0));
    let names: Vec<String> = match opts.trace {
        Some(false) => END_TO_END.iter().map(|s| s.to_string()).collect(),
        Some(true) => per_layer_names(),
        None => END_TO_END.iter().map(|s| s.to_string()).chain(per_layer_names()).collect(),
    };
    let (line, correct) = report::result_json(&metrics, &names, correct, attempted, failed);
    println!("{line}");
    Ok(correct)
}

fn child_args(w: Workload, opts: &Opts, seed: u64, trace: Option<bool>) -> Vec<String> {
    let mut args = vec![
        "run".to_string(),
        w.name().to_string(),
        "--seed".into(),
        seed.to_string(),
        "--seconds".into(),
        opts.seconds.to_string(),
        "--out".into(),
        opts.out.display().to_string(),
    ];
    if let Some(t) = trace {
        args.extend(["--trace".to_string(), if t { "1" } else { "0" }.to_string()]);
    }
    if opts.smoke {
        args.push("--smoke".into());
    }
    args
}

/// One process per workload, so set-up time and peak memory are each
/// the workload's own.
fn run_all(opts: &Opts) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut ok = true;
    for w in Workload::ALL {
        let status = Command::new(&exe)
            .args(child_args(w, opts, opts.seed, opts.trace))
            .status()
            .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
        ok &= status.success();
    }
    Ok(ok)
}

/// The end-to-end bounds from `BENCHMARK.json`, by metric name.
fn load_bounds() -> Result<BTreeMap<String, f64>, String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let doc = parse_json(&text).map_err(|e| e.to_string())?;
    let items = doc.get("end_to_end").and_then(|v| v.items()).ok_or("no end_to_end list")?;
    items
        .iter()
        .map(|m| {
            let name = match m.get("name") {
                Some(sor_obs::Json::Str(s)) => s.clone(),
                _ => return Err("end_to_end entry without a name".to_string()),
            };
            let bound = m.get("bound").and_then(|b| b.as_f64()).ok_or("entry without a bound")?;
            Ok((name, bound))
        })
        .collect()
}

/// One child run's end-to-end values and digest.
fn run_child(
    w: Workload,
    opts: &Opts,
    seed: u64,
) -> Result<(BTreeMap<String, f64>, String), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(&exe)
        .args(child_args(w, opts, seed, Some(false)))
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!("{} seed {seed} failed:\n{stdout}", w.name()));
    }
    let digest = stdout
        .lines()
        .find_map(|l| l.strip_prefix("output_digest "))
        .ok_or("no output_digest line")?
        .to_string();
    let last = stdout.lines().last().ok_or("no output")?;
    let doc = parse_json(last).map_err(|e| e.to_string())?;
    let values = doc
        .get("metrics")
        .and_then(|m| m.entries())
        .ok_or("result line has no metrics")?
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
        .collect();
    Ok((values, digest))
}

fn agree(opts: &Opts) -> Result<bool, String> {
    let bounds = load_bounds()?;
    let mut ok = true;
    for w in Workload::ALL {
        // sets × runs, seeds 1..=runs in every set.
        let mut sets: Vec<Vec<(BTreeMap<String, f64>, String)>> = Vec::new();
        for _ in 0..opts.sets {
            let runs = (1..=opts.runs as u64).map(|seed| run_child(w, opts, seed));
            sets.push(runs.collect::<Result<_, _>>()?);
        }
        println!("== {} ({} sets x {} runs)", w.name(), opts.sets, opts.runs);
        for (r, first) in sets[0].iter().enumerate() {
            for (s, set) in sets.iter().enumerate().skip(1) {
                if set[r].1 != first.1 {
                    println!(
                        "FAIL seed {}: digest {} in set 1, {} in set {}",
                        r + 1,
                        first.1,
                        set[r].1,
                        s + 1
                    );
                    ok = false;
                }
            }
        }
        for name in END_TO_END {
            let bound = bounds.get(name).copied().ok_or(format!("no bound for {name}"))?;
            let mut medians = Vec::new();
            let mut row = format!("{name:<16} bound {bound:<5}");
            for set in &sets {
                let vals: Vec<f64> = set.iter().filter_map(|(m, _)| m.get(name).copied()).collect();
                let med = stats::median(&vals).ok_or(format!("{name} missing"))?;
                let min = vals.iter().copied().fold(f64::INFINITY, f64::min);
                let iqr = stats::relative_iqr(&vals).unwrap_or(0.0) * 100.0;
                row.push_str(&format!(" | min {min:.4} med {med:.4} iqr {iqr:.1}%"));
                medians.push(med);
            }
            let worst =
                medians.iter().map(|m| (m - medians[0]).abs() / medians[0]).fold(0.0, f64::max);
            let verdict = if worst > bound { "FAIL" } else { "ok" };
            ok &= worst <= bound;
            println!("{row} | diff {:.1}% {verdict}", worst * 100.0);
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_registers_exactly_the_printed_metrics() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = parse_json(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(|v| v.items())
                .unwrap()
                .iter()
                .map(|m| match m.get("name") {
                    Some(sor_obs::Json::Str(s)) => s.clone(),
                    other => panic!("bad name {other:?}"),
                })
                .collect()
        };
        assert_eq!(names("end_to_end"), END_TO_END.to_vec());
        assert_eq!(names("per_layer"), per_layer_names());
        let workloads = names("workloads");
        assert_eq!(workloads, Workload::ALL.map(|w| w.name().to_string()).to_vec());
        let bounds = load_bounds().unwrap();
        assert!(bounds.values().all(|&b| (0.10..=0.25).contains(&b)), "{bounds:?}");
        assert!(bounds.values().all(|&b| b <= bounds["setup_s"]), "setup_s has the largest bound");
    }

    #[test]
    fn parses_driver_and_positional_forms() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let o = parse(&args("--workload rank_storm --seed 9 --seconds 15 --trace 1")).unwrap();
        assert_eq!(o.workload.as_deref(), Some("rank_storm"));
        assert_eq!((o.seed, o.seconds, o.trace), (9, 15.0, Some(true)));
        let o = parse(&args("admission_churn --smoke")).unwrap();
        assert_eq!(o.workload.as_deref(), Some("admission_churn"));
        assert!(o.smoke && o.trace.is_none());
        assert!(parse(&args("--trace 2")).is_err());
        assert!(parse(&args("--seed")).is_err());
    }
}
