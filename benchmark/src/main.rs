//! The repository's gating benchmark.  See `README.md` beside this package
//! for what each workload and metric is for.
//!
//! ```text
//! stegfs-benchmark --workload W --seed N --seconds S --trace 0|1   the gate's form
//! stegfs-benchmark run     [--seed N] [--runs K] [--seconds S | --ops N | --smoke] [--out FILE]
//! stegfs-benchmark trace   [--seed N] [--seconds S | --ops N | --smoke]
//! stegfs-benchmark compare BEFORE.json AFTER.json
//! stegfs-benchmark list
//! ```

mod harness;
mod host;
mod ladder;
mod metrics;
mod model;
mod probe;
mod report;
mod workloads;

use harness::{Plan, Report};
use report::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use workloads::Kind;

/// Seconds one run measures unless told otherwise; `BENCHMARK.json` names
/// the same number.
const RUN_SECONDS: u64 = 12;

/// Where result and span files go: `out/` beside this package's manifest.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn write_out(path: &Path, text: &str) -> Result<(), String> {
    let io = |e: std::io::Error| format!("{}: {e}", path.display());
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(io)?;
    }
    std::fs::write(path, text).map_err(io)?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

/// `--key value` pairs and bare `--smoke`, after the optional subcommand.
struct Args {
    command: Option<String>,
    positional: Vec<String>,
    flags: Vec<(String, String)>,
    smoke: bool,
}

impl Args {
    fn parse(mut raw: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            command: None,
            positional: Vec::new(),
            flags: Vec::new(),
            smoke: false,
        };
        while let Some(arg) = raw.next() {
            if arg == "--smoke" {
                args.smoke = true;
            } else if let Some(key) = arg.strip_prefix("--") {
                let value = raw.next().ok_or(format!("--{key} needs a value"))?;
                args.flags.push((key.to_string(), value));
            } else if args.command.is_none() && args.flags.is_empty() {
                args.command = Some(arg);
            } else {
                args.positional.push(arg);
            }
        }
        Ok(args)
    }

    fn flag(&self, key: &str) -> Option<&str> {
        let found = self.flags.iter().find(|(k, _)| k == key);
        found.map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.flag(key) {
            None => Ok(default),
            Some(text) => text
                .parse()
                .map_err(|_| format!("--{key} {text}: not a number")),
        }
    }

    fn plan(&self) -> Result<Plan, String> {
        if self.smoke {
            return Ok(Plan::smoke());
        }
        if let Some(ops) = self.flag("ops") {
            let ops = ops
                .parse()
                .map_err(|_| format!("--ops {ops}: not a count"))?;
            return Ok(Plan::fixed_ops(ops));
        }
        let seconds: f64 = self.number("seconds", RUN_SECONDS as f64)?;
        if !(seconds > 0.0 && seconds <= 600.0) {
            return Err(format!("--seconds {seconds}: out of range"));
        }
        Ok(Plan::timed(seconds))
    }
}

/// The gate's form: one workload, one line of JSON last on stdout.
fn gate(args: &Args) -> Result<ExitCode, String> {
    let name = args.flag("workload").ok_or("--workload is required")?;
    let kind = Kind::from_name(name).ok_or(format!("unknown workload {name}"))?;
    let seed = args.number("seed", 1u64)?;
    let plan = args.plan()?;
    let report = match args.flag("trace") {
        None | Some("0") => harness::run_end_to_end(kind, seed, plan),
        Some("1") => {
            let report = harness::run_traced(kind, seed, plan);
            let spans = report::spans_json(seed, &[(kind.name(), &report.spans)]);
            write_out(&out_dir().join("trace.json"), &spans)?;
            report
        }
        Some(other) => return Err(format!("--trace {other}: expected 0 or 1")),
    };
    report::print_table(&report);
    // `--emit entry` is how `run` asks its children for a result-file entry.
    match args.flag("emit") {
        Some("entry") => println!("{}", report::result_entry(&report)),
        _ => println!("{}", report::gate_line(&report)),
    }
    Ok(ExitCode::SUCCESS)
}

fn exit_for(failed: u64, noisy: usize) -> ExitCode {
    if noisy > 0 {
        eprintln!("{noisy} workload run(s) were marked noisy: distrust their timings");
    }
    if failed > 0 {
        eprintln!("{failed} operation(s) failed or returned wrong bytes");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// One workload in a process of its own, exactly as the gate runs it, so
/// that peak memory and allocator state never carry over from the workload
/// before.  Returns the child's result-file entry.
fn run_child(args: &Args, kind: Kind, seed: u64) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut child = Command::new(exe);
    child
        .args(["--workload", kind.name(), "--emit", "entry"])
        .args(["--seed", &seed.to_string()]);
    if args.smoke {
        child.arg("--smoke");
    }
    for key in ["seconds", "ops"] {
        if let Some(value) = args.flag(key) {
            child.args([format!("--{key}"), value.to_string()]);
        }
    }
    // `output` waits for the child; its stderr passes through.
    let output = child
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{}: {e}", kind.name()))?;
    if !output.status.success() {
        return Err(format!("{} exited with {}", kind.name(), output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (table, entry) = stdout.trim_end().rsplit_once('\n').unwrap_or(("", &stdout));
    println!("{table}");
    Json::parse(entry).map_err(|e| format!("{}: {e}", kind.name()))
}

/// `run`: every workload end to end, `--runs` times with consecutive seeds.
fn run(args: &Args) -> Result<ExitCode, String> {
    let (seed, runs) = (args.number("seed", 1u64)?, args.number("runs", 1u64)?);
    args.plan()?; // reject bad flags here, not once per child
    let (mut failed, mut noisy) = (0, 0);
    let mut file_runs = Vec::new();
    for seed in seed..seed + runs {
        let mut entries = Vec::new();
        for kind in Kind::ALL {
            let entry = run_child(args, kind, seed)?;
            failed += entry.get("failed").and_then(Json::as_f64).unwrap_or(1.0) as u64;
            noisy += usize::from(entry.get("noisy") == Some(&Json::Bool(true)));
            entries.push((kind.name(), entry));
        }
        file_runs.push(Json::obj([
            ("seed", Json::Num(seed as f64)),
            ("workloads", Json::obj(entries)),
        ]));
    }
    let file = Json::obj([
        ("schema", Json::Num(1.0)),
        ("smoke", Json::Bool(args.smoke)),
        ("runs", Json::Arr(file_runs)),
    ]);
    let path = match args.flag("out") {
        Some(path) => PathBuf::from(path),
        None => out_dir().join(format!("run-seed{seed}.json")),
    };
    write_out(&path, &format!("{file}\n"))?;
    Ok(exit_for(failed, noisy))
}

/// `trace`: every workload traced, the layer ladder, and the span file.
fn trace(args: &Args) -> Result<ExitCode, String> {
    let seed = args.number("seed", 1u64)?;
    let plan = args.plan()?;
    let reports: Vec<Report> = Kind::ALL
        .into_iter()
        .map(|kind| {
            let report = harness::run_traced(kind, seed, plan);
            report::print_table(&report);
            report
        })
        .collect();
    let spans: Vec<(&str, &[probe::Span])> = reports
        .iter()
        .map(|r| (r.kind.name(), r.spans.as_slice()))
        .collect();
    write_out(
        &out_dir().join("trace.json"),
        &report::spans_json(seed, &spans),
    )?;
    let failed = reports.iter().map(|r| r.verdict.failed).sum();
    let noisy = reports.iter().filter(|r| r.noisy()).count();
    Ok(exit_for(failed, noisy))
}

fn compare(args: &Args) -> Result<ExitCode, String> {
    let [before, after] = args.positional.as_slice() else {
        return Err("compare takes two result files: BEFORE.json AFTER.json".into());
    };
    let load = |path: &String| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let regressed = report::compare(&load(before)?, &load(after)?);
    println!("{regressed} regressed");
    Ok(if regressed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let outcome =
        Args::parse(std::env::args().skip(1)).and_then(|args| match args.command.as_deref() {
            None => gate(&args),
            Some("run") => run(&args),
            Some("trace") => trace(&args),
            Some("compare") => compare(&args),
            Some("list") => {
                report::print_list();
                Ok(ExitCode::SUCCESS)
            }
            Some(other) => Err(format!("unknown command {other}; see benchmark/README.md")),
        });
    outcome.unwrap_or_else(|message| {
        eprintln!("stegfs-benchmark: {message}");
        ExitCode::from(2)
    })
}
