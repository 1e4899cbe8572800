//! The `polybench` command line. See README.md for the workloads and
//! metrics.

use polybench::metrics::{self, RunResult};
use polybench::run::{Budget, SpanRec};
use polybench::workload::{Workload, ALL};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "usage:
  polybench --workload <workload> [--seed N] [--seconds S | --ops N] [--trace 0|1]
  polybench all [--seed N] [--seconds S | --ops N] [--trace 0|1]
  polybench record [--seed N] [--seconds S | --ops N] [--out DIR]
workloads: wire_views write_churn adhoc_compile extent_storm";

/// Timed seconds per run when neither `--seconds` nor `--ops` is given;
/// the same as `run_seconds` in BENCHMARK.json.
const DEFAULT_SECONDS: f64 = 10.0;

enum Cmd {
    Run(Workload),
    All,
    Record,
}

struct Args {
    cmd: Cmd,
    seed: u64,
    budget: Budget,
    traced: bool,
    out: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut cmd = None;
    let mut a = Args {
        cmd: Cmd::All,
        seed: 1,
        budget: Budget::Seconds(DEFAULT_SECONDS),
        traced: false,
        out: Path::new(env!("CARGO_MANIFEST_DIR")).join("results"),
    };
    let workload = |name: Option<&String>| {
        let name = name.ok_or("missing workload name")?;
        Workload::from_name(name).ok_or_else(|| format!("unknown workload {name:?}"))
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => cmd = Some(Cmd::Run(workload(it.next())?)),
            "all" => cmd = Some(Cmd::All),
            "record" => cmd = Some(Cmd::Record),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".to_string());
                }
                a.budget = Budget::Seconds(s);
            }
            "--ops" => {
                let n: u64 = value()?.parse().map_err(|e| format!("--ops: {e}"))?;
                a.budget = Budget::Ops(n.max(1));
            }
            "--trace" => {
                a.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--out" => a.out = PathBuf::from(value()?),
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    a.cmd = cmd.ok_or("missing command")?;
    Ok(a)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let a = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("polybench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match a.cmd {
        Cmd::Run(w) => run_one(w, &a),
        Cmd::All => {
            let mut ok = true;
            for w in ALL {
                match child(w, &a, a.traced) {
                    Ok((report, success)) => {
                        println!("{report}");
                        ok &= success;
                    }
                    Err(e) => {
                        eprintln!("polybench: {}: {e}", w.name());
                        ok = false;
                    }
                }
            }
            exit(ok)
        }
        Cmd::Record => match record(&a) {
            Ok(ok) => exit(ok),
            Err(e) => {
                eprintln!("polybench: record: {e}");
                ExitCode::from(2)
            }
        },
    }
}

fn exit(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// One workload in this process. Prints a line describing the run and,
/// last, the result line: `correct`, `attempted`, `failed`, `metrics`.
fn run_one(w: Workload, a: &Args) -> ExitCode {
    let r = match metrics::run(w, a.seed, a.budget, a.traced) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("polybench: {}: {e}", w.name());
            return ExitCode::from(2);
        }
    };
    if a.traced {
        if let Err(e) = write_spans(w, &r.spans) {
            eprintln!("polybench: writing spans: {e}");
            return ExitCode::from(2);
        }
    }
    if let Some(f) = &r.first_failure {
        eprintln!("polybench: {}: first failure: {f}", w.name());
    }
    println!("{}", info_line(w, a, &r));
    println!("{}", result_line(&r));
    exit(r.correct())
}

fn info_line(w: Workload, a: &Args, r: &RunResult) -> String {
    let budget = match a.budget {
        Budget::Seconds(s) => format!("{{\"seconds\":{s}}}"),
        Budget::Ops(n) => format!("{{\"ops\":{n}}}"),
    };
    let samples: Vec<String> = r
        .samples
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"traced\":{},\"nproc\":{},\"budget\":{budget},\"slowness\":{},\"samples\":{{{}}}}}",
        w.name(),
        a.seed,
        a.traced,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        r.slowness,
        samples.join(",")
    )
}

fn result_line(r: &RunResult) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(name, unit, v)| format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}"))
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        r.correct(),
        r.attempted,
        r.failed,
        metrics.join(",")
    )
}

/// The traced run's spans, one JSON object per line, in
/// `out/spans_<workload>.jsonl` beside this package's manifest.
fn write_spans(w: Workload, spans: &[SpanRec]) -> std::io::Result<()> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let file = std::fs::File::create(dir.join(format!("spans_{}.jsonl", w.name())))?;
    let mut out = std::io::BufWriter::new(file);
    for s in spans {
        writeln!(
            out,
            "{{\"name\":\"{}\",\"trace\":{},\"start_ns\":{},\"dur_ns\":{},\"retries\":{}}}",
            s.name, s.trace, s.start_ns, s.dur_ns, s.retries
        )?;
    }
    out.flush()
}

/// Run `w` in a child process (so its peak RSS is its own) and join its
/// two output lines into one object. Returns it and whether the child
/// succeeded.
fn child(w: Workload, a: &Args, traced: bool) -> Result<(String, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name(), "--seed", &a.seed.to_string()]);
    match a.budget {
        Budget::Seconds(s) => cmd.args(["--seconds", &s.to_string()]),
        Budget::Ops(n) => cmd.args(["--ops", &n.to_string()]),
    };
    cmd.args(["--trace", if traced { "1" } else { "0" }]);
    let out = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning the run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    let joined = match lines[..] {
        [.., info, result] => info
            .strip_suffix('}')
            .zip(result.strip_prefix('{'))
            .map(|(info, result)| format!("{info},{result}")),
        _ => None,
    };
    let joined =
        joined.ok_or_else(|| format!("the run printed no result (status {})", out.status))?;
    Ok((joined, out.status.success()))
}

/// Write `BENCH_<workload>.json` for every workload: an untraced and a
/// traced run, with the seed, nproc and compiler they ran under.
fn record(a: &Args) -> Result<bool, String> {
    let rustc = Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_default();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    std::fs::create_dir_all(&a.out).map_err(|e| format!("{}: {e}", a.out.display()))?;
    let mut ok = true;
    for w in ALL {
        let (untraced, u_ok) = child(w, a, false)?;
        let (traced, t_ok) = child(w, a, true)?;
        ok &= u_ok && t_ok;
        let doc = format!(
            "{{\n  \"workload\": \"{}\",\n  \"seed\": {},\n  \"nproc\": {nproc},\n  \"rustc\": \"{rustc}\",\n  \"untraced\": {untraced},\n  \"traced\": {traced}\n}}\n",
            w.name(),
            a.seed
        );
        let path = a.out.join(format!("BENCH_{}.json", w.name()));
        std::fs::write(&path, doc).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    Ok(ok)
}
