//! `posbench` — the in-process half of the repository benchmark.
//!
//! `run.py` drives the campaign workloads through the `pos` binary and
//! calls this program for the traced per-layer run, which needs the
//! library:
//!
//! ```text
//! posbench trace --workload <name> --seed <n> --work <dir>
//! ```
//!
//! It prints one JSON object as its last stdout line. Spans are recorded
//! here, around calls into the layers; the program itself carries no
//! tracing.

mod layers;
mod serve;

use pos::core::experiment::{linux_router_experiment, ExperimentSpec};
use pos::core::vars::VarValue;
use serde::Serialize;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Toy scale, for the benchmark's own tests (`POSBENCH_TOY=1`).
pub fn toy() -> bool {
    std::env::var("POSBENCH_TOY").as_deref() == Ok("1")
}

/// The paper's §5 sweep: 64 B and 1500 B × 30 offered rates, 1 s runs
/// (toy: 2 rates, 100 ms runs).
pub fn case_study_spec() -> ExperimentSpec {
    if toy() {
        let mut spec = linux_router_experiment("vriga", "vtartu", 2, 1);
        spec.global_vars = spec.global_vars.with("run_secs", 0.1);
        return spec;
    }
    linux_router_experiment("vriga", "vtartu", 30, 1)
}

/// The measurement duration of each run of `spec`.
pub fn run_duration(spec: &ExperimentSpec) -> pos::simkernel::SimDuration {
    let secs = match spec.global_vars.0.get("run_secs") {
        Some(VarValue::Int(i)) => *i as f64,
        Some(VarValue::Float(f)) => *f,
        other => panic!("case-study specs set run_secs, found {other:?}"),
    };
    pos::simkernel::SimDuration::from_secs_f64(secs)
}

/// Wall-clock spans, kept in memory and summarized at the end. A trace
/// that is off records nothing, so the same pass runs traced and
/// untraced.
pub struct Trace {
    on: bool,
    spans: Vec<(String, f64)>,
}

impl Trace {
    /// A trace that records spans.
    pub fn on() -> Trace {
        Trace {
            on: true,
            spans: Vec::new(),
        }
    }

    /// A trace that records nothing.
    pub fn off() -> Trace {
        Trace {
            on: false,
            spans: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Records a span of `secs` wall seconds named `name`.
    pub fn record(&mut self, name: &str, secs: f64) {
        if self.on {
            self.spans.push((name.to_owned(), secs));
        }
    }

    /// Runs `f` inside a span named `name`, recording its wall seconds.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.record(name, t.elapsed().as_secs_f64());
        out
    }

    /// Durations of every span named `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|(n, _)| n == name)
            .map(|(_, d)| *d)
            .collect()
    }

    /// Sum of the durations of every span named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }
}

/// Nearest-rank quantile of `xs` (`q` in 0..=1); NaN when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// Counters of this process read from `/proc/self`.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostSample {
    /// User + system CPU seconds.
    pub cpu_s: f64,
    /// Voluntary context switches (blocking waits).
    pub vol_ctx: f64,
    /// `write`-family system calls.
    pub write_syscalls: f64,
    /// Bytes passed to `write`-family calls.
    pub write_bytes: f64,
}

impl HostSample {
    /// Reads the counters now.
    pub fn now() -> HostSample {
        let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
        // Fields after the parenthesized command name; utime and stime are
        // fields 14 and 15 of the full line, in USER_HZ (100) ticks.
        let after = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
        let fields: Vec<f64> = after
            .split_whitespace()
            .map(|f| f.parse().unwrap_or(0.0))
            .collect();
        let ticks = fields.get(11).copied().unwrap_or(0.0) + fields.get(12).copied().unwrap_or(0.0);
        HostSample {
            cpu_s: ticks / 100.0,
            vol_ctx: proc_field("/proc/self/status", "voluntary_ctxt_switches:"),
            write_syscalls: proc_field("/proc/self/io", "syscw:"),
            write_bytes: proc_field("/proc/self/io", "wchar:"),
        }
    }
}

/// A numeric `key value` field of a `/proc` file, 0 when absent.
fn proc_field(file: &str, key: &str) -> f64 {
    std::fs::read_to_string(file)
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

/// One reported metric.
#[derive(Serialize)]
pub struct Metric {
    /// The measured value; a non-finite one prints as `null`.
    pub value: f64,
    /// Its unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Metrics by name.
pub type Metrics = BTreeMap<String, Metric>;

/// Inserts metric `name`.
pub fn put(m: &mut Metrics, name: &str, value: f64, unit: &'static str) {
    m.insert(name.to_owned(), Metric { value, unit });
}

fn parse_args(args: &[String]) -> Result<BTreeMap<String, String>, String> {
    let mut out = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag}"))?;
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        out.insert(key.to_owned(), value.clone());
    }
    Ok(out)
}

fn run(args: &[String]) -> Result<String, String> {
    let (cmd, rest) = args.split_first().ok_or("usage: posbench trace ...")?;
    let opts = parse_args(rest)?;
    let get = |k: &str| opts.get(k).ok_or_else(|| format!("--{k} is required"));
    let seed: u64 = get("seed")?.parse().map_err(|_| "bad --seed")?;
    let work = PathBuf::from(get("work")?);
    std::fs::create_dir_all(&work).map_err(|e| e.to_string())?;
    match cmd.as_str() {
        "trace" => serde_json::to_string(&layers::trace(get("workload")?, seed, &work)?)
            .map_err(|e| e.to_string()),
        other => Err(format!("unknown subcommand {other}")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(report) => {
            println!("{report}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("posbench: {e}");
            ExitCode::FAILURE
        }
    }
}
