//! Command line of the two binaries.
//!
//! ```text
//! vsbench --workload W --seed N --seconds S --trace 0|1     one run; result JSON on the last line
//! vsbench suite [--smoke] [--repeat N] [--trace] [--seed N] [--seconds S] [--out FILE]
//! vsbench layers [--workload W] [--seed N]
//! vsbench compare A.json B.json
//! ```
//!
//! `--trace 0` measures the end-to-end metrics in this process; its result line carries the
//! contract's, or with `--all` (what `suite` passes) every bounded metric the workload
//! has.  `--trace 1` hands over to
//! `vsbench-traced` (the same program with the counting allocator), which runs the
//! workload untraced in a child for half the time, traced in-process for the other half,
//! adds the from-outside ladder, and prints every per-layer metric.

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use crate::common::{Outcome, RunArgs};
use crate::json::Json;
use crate::layers;
use crate::oracle::OpKind;
use crate::report;
use crate::spec::{Metric, Spec};
use crate::workloads::{self, stream};

/// Set-up repetitions of a measured (untraced) run.
const SETUPS: usize = 5;

/// Parsed `--flag value` pairs plus positional words.
#[derive(Default)]
pub struct Flags {
    pub words: Vec<String>,
    pairs: Vec<(String, Option<String>)>,
}

impl Flags {
    fn parse(args: impl Iterator<Item = String>) -> Flags {
        let mut f = Flags::default();
        let mut args = args.peekable();
        while let Some(a) = args.next() {
            match a.strip_prefix("--") {
                Some(name) => {
                    let value = args
                        .peek()
                        .filter(|v| !v.starts_with("--"))
                        .cloned()
                        .inspect(|_| {
                            args.next();
                        });
                    f.pairs.push((name.to_owned(), value));
                }
                None => f.words.push(a),
            }
        }
        f
    }

    pub fn has(&self, name: &str) -> bool {
        self.pairs.iter().any(|(n, _)| n == name)
    }

    pub fn get(&self, name: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    pub fn num<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.get(name) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("--{name}: cannot read {v:?}")),
        }
    }
}

/// The other binary of the pair, next to this one.
pub fn sibling(name: &str) -> Result<PathBuf, String> {
    let me = std::env::current_exe().map_err(|e| format!("cannot find own path: {e}"))?;
    let path = me.with_file_name(name);
    if path.exists() {
        Ok(path)
    } else {
        Err(format!("{} is not built", path.display()))
    }
}

/// Runs a benchmark process and parses the JSON on the last line of its output.
pub fn run_child(program: &PathBuf, args: &[String]) -> Result<Json, String> {
    let output = Command::new(program)
        .args(args)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run {}: {e}", program.display()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or_else(|| format!("{} printed nothing", program.display()))?;
    let json = Json::parse(last).map_err(|e| format!("bad result line {last:?}: {e}"))?;
    if !output.status.success() {
        return Err(format!("{} failed: {last}", program.display()));
    }
    Ok(json)
}

/// The contract's result object.
fn result_json(out: &Outcome, metrics: &[Metric]) -> Json {
    let mut m = Json::obj();
    for metric in metrics {
        m.put(
            &metric.name,
            Json::obj()
                .with("value", out.get(&metric.name))
                .with("unit", metric.unit.as_str()),
        );
    }
    Json::obj()
        .with("correct", out.verdict.failed() == 0)
        .with("attempted", out.verdict.attempted.max(1))
        .with("failed", out.verdict.failed())
        .with("metrics", m)
}

/// The metrics of `all` this run has a value for.
fn present(out: &Outcome, all: &[Metric]) -> Vec<Metric> {
    all.iter()
        .filter(|m| out.values.contains_key(m.name.as_str()))
        .cloned()
        .collect()
}

/// Prints the verdict, the notes, `shown` for the reader and `result` as the result line.
fn finish(workload: &str, out: &Outcome, shown: &[Metric], result: &[Metric]) -> ExitCode {
    println!("{workload}: {}", out.verdict.describe());
    for note in &out.notes {
        println!("  ({note})");
    }
    for metric in shown {
        println!(
            "  {:<34} {:>16.4} {}",
            metric.name,
            out.get(&metric.name),
            metric.unit
        );
    }
    println!("{}", result_json(out, result).to_line());
    if out.verdict.failed() > 0 {
        eprintln!("{workload}: the oracle counted failed operations");
    }
    ExitCode::from(exit_status(out))
}

/// 0 for a run in which every operation succeeded, 2 otherwise.
fn exit_status(out: &Outcome) -> u8 {
    if out.verdict.failed() == 0 {
        0
    } else {
        2
    }
}

/// The traced half of `--trace 1`, run in the traced binary.
fn traced_run(args: &RunArgs, spec: &Spec) -> Result<ExitCode, String> {
    let shape = workloads::ladder_shape(&args.workload)
        .ok_or_else(|| format!("unknown workload {:?}", args.workload))?;
    let half = args.seconds / 2.0;

    // 1. The same workload, untraced, in the plain binary: the rate tracing is compared to.
    let plain = run_child(
        &sibling("vsbench")?,
        &[
            "--workload".into(),
            args.workload.clone(),
            "--seed".into(),
            args.seed.to_string(),
            "--seconds".into(),
            half.to_string(),
            "--trace".into(),
            "0".into(),
            "--setups".into(),
            "1".into(),
            "--scale".into(),
            args.scale.to_string(),
        ],
    )?;
    let untraced_rate = plain
        .get("metrics")
        .and_then(|m| m.get("deliveries_per_cpu_s"))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .ok_or("untraced run reported no deliveries_per_cpu_s")?;

    // 2. Traced, in this process.
    let traced_args = RunArgs {
        seconds: half,
        cap_seconds: half,
        traced: true,
        setups: 1,
        ..args.clone()
    };
    let mut out = workloads::run(&traced_args).expect("workload name checked above");
    let traced_rate = out.get("deliveries_per_cpu_s");
    out.set(
        "trace.overhead_share",
        (untraced_rate - traced_rate) / untraced_rate.max(1e-9),
    );

    // 3. The ladder, with this workload's message shape, and the one-chain relay hop.
    layers::run(&shape, args.seed, &mut out);
    for (name, kind) in [
        ("rt.relay_hop_us_p50.cbcast", OpKind::Cbcast),
        ("rt.relay_hop_us_p50.abcast", OpKind::Abcast),
    ] {
        let (median, lo, hi) = stream::relay_hop_us(kind, args.seed);
        out.set(name, median);
        out.notes
            .push(format!("{name}: five runs between {lo} and {hi} us"));
    }

    // 4. Does the ladder add up to the end-to-end cost of a delivery?
    let table = layers::Ladder::build(&shape, &out, 1e9 / untraced_rate.max(1e-9));
    out.set("ladder.unexplained_share", table.unexplained_share());
    println!("{}", table.render(&args.workload));
    Ok(finish(
        &args.workload,
        &out,
        &spec.per_layer,
        &spec.per_layer,
    ))
}

/// Re-runs this invocation in the binary that counts allocations.
fn hand_over_to_traced() -> Result<ExitCode, String> {
    let status = Command::new(sibling("vsbench-traced")?)
        .args(std::env::args().skip(1))
        .status()
        .map_err(|e| format!("cannot run vsbench-traced: {e}"))?;
    Ok(ExitCode::from(status.code().unwrap_or(1) as u8))
}

fn one_run(flags: &Flags, spec: &Spec, traced_binary: bool) -> Result<ExitCode, String> {
    let workload = flags.get("workload").ok_or("--workload is required")?;
    if workloads::ladder_shape(workload).is_none() {
        return Err(format!(
            "unknown workload {workload:?}; known: {}",
            spec.workloads
                .iter()
                .map(|(n, _)| n.as_str())
                .collect::<Vec<_>>()
                .join(", ")
        ));
    }
    let trace: u8 = flags.num("trace")?.unwrap_or(0);
    let seconds = flags.num("seconds")?.unwrap_or(spec.run_seconds);
    let args = RunArgs {
        workload: workload.to_owned(),
        seed: flags.num("seed")?.unwrap_or(1),
        seconds,
        cap_seconds: seconds,
        traced: false,
        setups: flags.num("setups")?.unwrap_or(SETUPS).max(1),
        scale: flags.num("scale")?.unwrap_or(1.0),
    };
    if !(args.seconds > 0.0 && args.seconds <= 60.0) {
        return Err(format!("--seconds {} is outside (0, 60]", args.seconds));
    }
    match (trace, traced_binary) {
        (0, _) => {
            let mut out = workloads::run(&args).expect("workload name checked above");
            out.set(
                "failed_share",
                out.verdict.failed() as f64 / out.verdict.attempted.max(1) as f64,
            );
            let has = present(&out, &spec.gated);
            let result = if flags.has("all") {
                &has
            } else {
                &spec.end_to_end
            };
            Ok(finish(&args.workload, &out, &has, result))
        }
        (1, true) => traced_run(&args, spec),
        (1, false) => hand_over_to_traced(),
        _ => Err(format!("--trace {trace}: expected 0 or 1")),
    }
}

fn layers_only(flags: &Flags, spec: &Spec, traced_binary: bool) -> Result<ExitCode, String> {
    if !traced_binary {
        return hand_over_to_traced();
    }
    let seed = flags.num("seed")?.unwrap_or(1);
    let names: Vec<String> = match flags.get("workload") {
        Some(w) => vec![w.to_owned()],
        None => spec.workloads.iter().map(|(n, _)| n.clone()).collect(),
    };
    for name in names {
        let shape =
            workloads::ladder_shape(&name).ok_or_else(|| format!("unknown workload {name:?}"))?;
        let mut out = Outcome::default();
        layers::run(&shape, seed, &mut out);
        // Without an end-to-end run there is nothing to compare the sum to.
        println!("{}", layers::Ladder::build(&shape, &out, 0.0).render(&name));
        for m in spec
            .per_layer
            .iter()
            .filter(|m| out.values.contains_key(m.name.as_str()))
        {
            println!("  {:<34} {:>16.4} {}", m.name, out.get(&m.name), m.unit);
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// Entry point of both binaries.
pub fn main(traced_binary: bool) -> ExitCode {
    let flags = Flags::parse(std::env::args().skip(1));
    let spec = Spec::load();
    let result = match flags.words.first().map(String::as_str) {
        None if flags.has("workload") => one_run(&flags, &spec, traced_binary),
        Some("suite") => report::suite(&flags, &spec),
        Some("layers") => layers_only(&flags, &spec, traced_binary),
        Some("compare") => report::compare(&flags, &spec),
        _ => Err("usage: vsbench --workload W --seed N --seconds S --trace 0|1\n       \
                  vsbench suite [--smoke] [--repeat N] [--trace] [--seed N] [--seconds S] [--out FILE]\n       \
                  vsbench layers [--workload W] [--seed N]\n       \
                  vsbench compare A.json B.json"
            .into()),
    };
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{check_stable_group, OpId, OpKind};

    #[test]
    fn flags_split_words_pairs_and_switches() {
        let f = Flags::parse(
            ["suite", "--smoke", "--repeat", "3", "--out", "x.json"]
                .iter()
                .map(|s| s.to_string()),
        );
        assert_eq!(f.words, vec!["suite"]);
        assert!(f.has("smoke") && f.get("smoke").is_none());
        assert_eq!(f.num::<usize>("repeat"), Ok(Some(3)));
        assert_eq!(f.get("out"), Some("x.json"));
        assert!(f.num::<usize>("out").is_err());
        assert_eq!(f.num::<u64>("seed"), Ok(None));
    }

    #[test]
    fn an_injected_fault_fails_the_run_and_shows_in_the_result_line() {
        let spec = Spec::load();
        let id = |i| OpId::new(i, OpKind::Cbcast, 0);
        let clean = vec![vec![id(0), id(1)], vec![id(0), id(1)]];
        let mut out = Outcome {
            verdict: check_stable_group(2, &clean),
            ..Outcome::default()
        };
        assert_eq!(exit_status(&out), 0);
        let line = result_json(&out, &spec.end_to_end).to_line();
        assert!(line.starts_with(r#"{"correct": true, "attempted": 4, "failed": 0, "metrics": {"#));

        // Drop one delivery at one member: the run must fail.
        let faulty = vec![vec![id(0), id(1)], vec![id(1)]];
        out.verdict = check_stable_group(2, &faulty);
        assert_eq!(exit_status(&out), 2);
        let line = result_json(&out, &spec.end_to_end).to_line();
        assert!(line.starts_with(r#"{"correct": false, "attempted": 4, "failed": 1, "#));
    }

    #[test]
    fn the_result_line_carries_exactly_the_contracts_metrics() {
        let spec = Spec::load();
        for metrics in [&spec.end_to_end, &spec.per_layer] {
            let json = result_json(&Outcome::default(), metrics);
            let keys: Vec<&str> = json
                .as_obj()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let printed: Vec<&str> = json
                .get("metrics")
                .and_then(Json::as_obj)
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            let wanted: Vec<&str> = metrics.iter().map(|m| m.name.as_str()).collect();
            assert_eq!(printed, wanted);
        }
    }
}
