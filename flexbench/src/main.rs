//! `flexbench` — the repository's benchmark.
//!
//! Five workloads, each run untraced for the end-to-end metrics and once
//! more traced for a per-layer ledger timed entirely from outside the
//! crates (see `README.md` beside this package's manifest, and
//! `BENCHMARK.json` at the repository root).
//!
//! ```sh
//! flexbench --workload wan12 --seed 1 --seconds 10 --trace 0   # end to end
//! flexbench --workload wan12 --seed 1 --seconds 10 --trace 1   # per layer
//! flexbench --smoke                       # every path, small, ~10 s in all
//! flexbench compare DIR_A DIR_B           # judge B against A by the bounds
//! flexbench selfcheck                     # run the set twice and compare
//! ```
//!
//! The last line of standard output of a `--workload` run is one JSON
//! object: `correct`, `attempted`, `failed`, `metrics`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compare;
mod json;
mod micro;
mod procfs;
mod replay;
mod replworld;
mod run;
mod simworld;
mod spans;
mod spec;
mod stats;
mod tcp3;
mod traced;

use json::Value;
use run::{Report, Sizes};
use spec::{Workload, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

const USAGE: &str = "usage:
  flexbench --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out DIR]
  flexbench --smoke [--seed N] [--out DIR]
  flexbench compare <dir A> <dir B>
  flexbench selfcheck [--seed N] [--seconds S] [--out DIR]
  flexbench list";

/// Environment switches that silently change what the crates do; a
/// number measured under either would not be the benchmark's number.
const FORBIDDEN_ENV: [&str; 2] = ["FLEX_SHARDS", "FLEX_NO_MEMO"];

/// Options shared by the running sub-commands.
struct Options {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: PathBuf,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
        out: default_out_dir(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                o.workload =
                    Some(spec::workload(name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => {
                o.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                o.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(0.0..=600.0).contains(&o.seconds) {
                    return Err("--seconds must be between 0 and 600".into());
                }
            }
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--smoke" => o.smoke = true,
            "--out" => o.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(o)
}

/// Results go under the build's target directory, which is ignored by git
/// wherever it is: `$CARGO_TARGET_DIR/flexbench` when cargo was pointed
/// somewhere, else this package's own `target/`.
fn default_out_dir() -> PathBuf {
    match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) if !dir.is_empty() => PathBuf::from(dir).join("flexbench"),
        _ => PathBuf::from("flexbench/target/flexbench"),
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn reps_json(reps: &[(&'static str, Vec<f64>)]) -> Value {
    Value::Obj(
        reps.iter()
            .map(|(name, values)| {
                let q = stats::quartiles(values)
                    .map(|(a, b, c)| vec![a, b, c])
                    .unwrap_or_default();
                let nums = |v: &[f64]| Value::Arr(v.iter().map(|x| Value::num(Some(*x))).collect());
                (
                    name.to_string(),
                    Value::object([("values", nums(values)), ("quartiles", nums(&q))]),
                )
            })
            .collect(),
    )
}

fn metrics_json(r: &Report) -> Value {
    Value::Obj(
        r.metrics
            .iter()
            .map(|(name, unit, value)| {
                (
                    name.to_string(),
                    Value::object([
                        ("value", Value::num(*value)),
                        ("unit", Value::Str(unit.to_string())),
                    ]),
                )
            })
            .collect(),
    )
}

/// The result file: the run's numbers plus everything needed to tell
/// what produced them.
fn result_file(r: &Report, o: &Options, sizes: &Sizes) -> Value {
    let pairs = |p: &[(&'static str, f64)]| {
        Value::Obj(
            p.iter()
                .map(|(k, v)| (k.to_string(), Value::num(Some(*v))))
                .collect(),
        )
    };
    Value::object([
        ("bench", Value::Str("flexbench".into())),
        ("workload", Value::Str(r.workload.name.into())),
        ("why", Value::Str(r.workload.why.into())),
        ("seed", Value::Num(r.seed as f64)),
        ("seconds", Value::Num(o.seconds)),
        ("trace", Value::Num(r.trace as u8 as f64)),
        ("smoke", Value::Bool(o.smoke)),
        (
            "git_rev",
            Value::Str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Value::Str(command_line("rustc", &["--version"]))),
        (
            "nproc",
            Value::num(
                std::thread::available_parallelism()
                    .ok()
                    .map(|n| n.get() as f64),
            ),
        ),
        ("correct", Value::Bool(r.correct())),
        (
            "problems",
            Value::Arr(r.problems.iter().cloned().map(Value::Str).collect()),
        ),
        ("attempted", Value::Num(r.attempted as f64)),
        ("failed", Value::Num(r.failed as f64)),
        ("metrics", metrics_json(r)),
        ("reps", reps_json(&r.reps)),
        ("columns", pairs(&r.columns)),
        ("knobs", pairs(&sizes.knobs())),
    ])
}

fn write_outputs(r: &Report, o: &Options, sizes: &Sizes) {
    let kind = if r.trace { "layers" } else { "e2e" };
    let write = |name: String, body: &str| {
        let path = o.out.join(name);
        if let Err(e) = std::fs::write(&path, body) {
            eprintln!("flexbench: could not write {}: {e}", path.display());
        }
    };
    if let Err(e) = std::fs::create_dir_all(&o.out) {
        eprintln!("flexbench: could not create {}: {e}", o.out.display());
        return;
    }
    write(
        format!("{}.{kind}.json", r.workload.name),
        &result_file(r, o, sizes).to_json_pretty(),
    );
    if let Some(trace) = &r.trace_json {
        write(format!("{}.trace.json", r.workload.name), trace);
    }
}

/// Prints every metric as `name value unit`, then the repetition counts
/// and any problem.
fn print_report(r: &Report) {
    println!(
        "# {} seed={} trace={} — {}",
        r.workload.name, r.seed, r.trace as u8, r.workload.why
    );
    for (name, unit, value) in &r.metrics {
        match value {
            Some(v) => println!("{name} {v} {unit}"),
            None => println!("{name} null {unit}"),
        }
    }
    for (name, values) in &r.reps {
        let q = stats::quartiles(values)
            .map(|(a, b, c)| format!(" quartiles {a:.6} {b:.6} {c:.6}"))
            .unwrap_or_default();
        println!("# reps {name}: n={}{q}", values.len());
    }
    println!("# attempted {} failed {}", r.attempted, r.failed);
    for p in &r.problems {
        println!("# PROBLEM {p}");
    }
}

/// Runs one workload, prints and writes its results. Returns whether it
/// was correct and fully measured.
fn run_one(w: &'static Workload, o: &Options, trace: bool, sizes: &Sizes, last_line: bool) -> bool {
    let mut report = run::run(w, sizes, o.seed, o.seconds, trace);
    for (name, _, value) in &report.metrics {
        if value.is_none() {
            report
                .problems
                .push(format!("{name} could not be measured on this host"));
        }
    }
    if report.attempted == 0 {
        report.problems.push("no operation was attempted".into());
    }
    print_report(&report);
    write_outputs(&report, o, sizes);
    if last_line {
        let line = Value::object([
            ("correct", Value::Bool(report.correct())),
            ("attempted", Value::Num(report.attempted as f64)),
            ("failed", Value::Num(report.failed as f64)),
            ("metrics", metrics_json(&report)),
        ]);
        println!("{}", line.to_json());
    }
    report.correct()
}

/// Runs the full set as child processes (one workload per process, so
/// `peak_rss_mb` is that workload's own) into `dir`, in the given order.
fn run_set(o: &Options, dir: &Path, order: &[&'static Workload]) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find myself: {e}"))?;
    for w in order {
        println!("# selfcheck: {} -> {}", w.name, dir.display());
        let status = Command::new(&exe)
            .args(["--workload", w.name, "--trace", "0"])
            .args(["--seed", &o.seed.to_string()])
            .args(["--seconds", &o.seconds.to_string()])
            .arg("--out")
            .arg(dir)
            .args(o.smoke.then_some("--smoke"))
            .stdout(std::process::Stdio::null())
            .status()
            .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
        if !status.success() {
            return Err(format!("{} failed its own checks ({status})", w.name));
        }
    }
    Ok(())
}

fn selfcheck(o: &Options) -> Result<bool, String> {
    let (a, b) = (o.out.join("selfcheck-a"), o.out.join("selfcheck-b"));
    let forward: Vec<&'static Workload> = WORKLOADS.iter().collect();
    let backward: Vec<&'static Workload> = WORKLOADS.iter().rev().collect();
    run_set(o, &a, &forward)?;
    run_set(o, &b, &backward)?;
    compare::compare_dirs(&a, &b, true)
}

fn real_main() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (sub, rest) = match args.first().map(String::as_str) {
        Some(s @ ("compare" | "selfcheck" | "list")) => (s, &args[1..]),
        Some(_) => ("run", &args[..]),
        None => return Err(USAGE.into()),
    };
    if sub == "list" {
        for w in &WORKLOADS {
            println!("{:<13} {}", w.name, w.why);
        }
        return Ok(true);
    }
    if sub == "compare" {
        let [a, b] = rest else {
            return Err(USAGE.into());
        };
        return compare::compare_dirs(Path::new(a), Path::new(b), false);
    }
    for var in FORBIDDEN_ENV {
        if std::env::var_os(var).is_some() {
            return Err(format!(
                "{var} is set in the environment; it changes what the crates do behind the \
                 benchmark's back. Unset it and run again."
            ));
        }
    }
    let o = parse_options(rest)?;
    let sizes = if o.smoke {
        Sizes::smoke()
    } else {
        Sizes::full()
    };
    if sub == "selfcheck" {
        return selfcheck(&o);
    }
    match o.workload {
        Some(w) => Ok(run_one(w, &o, o.trace, &sizes, true)),
        None if o.smoke => {
            // Every workload, both passes, one repetition each.
            let o = Options { seconds: 0.0, ..o };
            let mut ok = true;
            for w in &WORKLOADS {
                ok &= run_one(w, &o, false, &sizes, false);
                ok &= run_one(w, &o, true, &sizes, false);
            }
            println!("# smoke: {}", if ok { "all correct" } else { "FAILED" });
            Ok(ok)
        }
        None => Err(USAGE.into()),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("flexbench: {msg}");
            ExitCode::from(2)
        }
    }
}
