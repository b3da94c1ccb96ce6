//! `suite` (every workload, each in its own process, optionally repeated) and `compare`
//! (two result files against the contract's bounds).

use std::process::ExitCode;

use crate::cli::{run_child, Flags};
use crate::json::Json;
use crate::spec::Spec;
use crate::stats;

const SCHEMA: &str = "vsync-benchmark/v1";
/// A smoke run: every workload at a fiftieth of its window and a tenth of its warm-up.
const SMOKE_SECONDS_DIVISOR: f64 = 50.0;
const SMOKE_SCALE: f64 = 0.1;

/// Runs every workload of the contract `repeat` times, prints each metric's median with
/// its spread, and writes the result file `compare` reads.
pub fn suite(flags: &Flags, spec: &Spec) -> Result<ExitCode, String> {
    let smoke = flags.has("smoke");
    let trace = flags.has("trace");
    let repeat: usize = flags.num("repeat")?.unwrap_or(1).max(1);
    let seed: u64 = flags.num("seed")?.unwrap_or(1);
    let seconds: f64 = flags.num("seconds")?.unwrap_or(if smoke {
        spec.run_seconds / SMOKE_SECONDS_DIVISOR
    } else {
        spec.run_seconds
    });
    let me = std::env::current_exe().map_err(|e| format!("cannot find own path: {e}"))?;
    // Untraced: every bounded metric, each on the workloads that have it.
    let metrics = if trace { &spec.per_layer } else { &spec.gated };

    let mut workloads_json = Json::obj();
    let mut all_correct = true;
    for (name, _) in &spec.workloads {
        let mut values: Vec<Vec<f64>> = vec![Vec::new(); metrics.len()];
        let (mut attempted, mut failed) = (0u64, 0u64);
        for rep in 0..repeat {
            let mut args = vec![
                "--workload".to_owned(),
                name.clone(),
                "--seed".into(),
                (seed + rep as u64).to_string(),
                "--seconds".into(),
                seconds.to_string(),
                "--trace".into(),
                u8::from(trace).to_string(),
            ];
            if !trace {
                args.push("--all".into());
            }
            if smoke {
                args.extend(["--setups", "1", "--scale"].map(String::from));
                args.push(SMOKE_SCALE.to_string());
            }
            let result = run_child(&me, &args)?;
            attempted += result
                .get("attempted")
                .and_then(Json::as_f64)
                .unwrap_or(0.0) as u64;
            failed += result.get("failed").and_then(Json::as_f64).unwrap_or(0.0) as u64;
            for (m, column) in metrics.iter().zip(&mut values) {
                let v = result
                    .get("metrics")
                    .and_then(|ms| ms.get(&m.name))
                    .and_then(|mv| mv.get("value"))
                    .and_then(Json::as_f64);
                match v {
                    Some(v) => column.push(v),
                    // The contract's metrics exist on every workload.
                    None if trace || spec.end_to_end.iter().any(|e| e.name == m.name) => {
                        return Err(format!("{name}: no value for {}", m.name));
                    }
                    None => {}
                }
            }
        }
        all_correct &= failed == 0;
        println!("{name}: attempted {attempted}, failed {failed}, {repeat} run(s)");
        let mut metrics_json = Json::obj();
        for (m, column) in metrics.iter().zip(&values) {
            if column.is_empty() {
                continue;
            }
            let (min, max) = column
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), v| (lo.min(*v), hi.max(*v)));
            let median = stats::median(column);
            let spread = stats::spread_share(column);
            println!(
                "  {:<34} {:>16.4} {:<8} min {:<14.4} max {:<14.4} spread {}",
                m.name,
                median,
                m.unit,
                min,
                max,
                spread.map_or("-".to_owned(), |s| format!("{:.1} %", s * 100.0)),
            );
            let mut entry = Json::obj()
                .with("unit", m.unit.as_str())
                .with(
                    "values",
                    column.iter().map(|v| Json::Num(*v)).collect::<Vec<_>>(),
                )
                .with("min", min)
                .with("median", median)
                .with("max", max);
            if let Some(s) = spread {
                entry.put("spread", s);
            }
            metrics_json.put(&m.name, entry);
        }
        workloads_json.put(
            name,
            Json::obj()
                .with("attempted", attempted)
                .with("failed", failed)
                .with("metrics", metrics_json),
        );
    }
    let doc = Json::obj()
        .with("schema", SCHEMA)
        .with("seed", seed)
        .with("seconds", seconds)
        .with("repeat", repeat)
        .with("traced", trace)
        .with("workloads", workloads_json);
    if let Some(path) = flags.get("out") {
        std::fs::write(path, doc.to_line() + "\n").map_err(|e| format!("{path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    })
}

/// How one (workload, metric) pair moved between two result files.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Moved {
    Regressed,
    /// The recorded run-to-run spread is wider than the bound: no verdict possible.
    Unresolved,
    Unchanged,
    /// A per-layer metric: it has no bound, the delta is shown for the reader.
    Informational,
}

/// How much worse `b` is than `a`, as a share of `a` (negative when `b` is better).  A
/// metric that was 0 and no longer is has worsened (or improved) beyond any bound.
pub fn worse_share(a: f64, b: f64, higher_is_better: bool) -> f64 {
    let delta = if a != 0.0 {
        (b - a) / a.abs()
    } else if b == 0.0 {
        0.0
    } else {
        f64::INFINITY.copysign(b)
    };
    if higher_is_better {
        -delta
    } else {
        delta
    }
}

/// Judges one pair of medians.  `spread` is the wider of the two recorded run-to-run
/// spreads; it is `None` for a metric that repeats exactly for a seed, whose spread across
/// seeds is not noise.
pub fn judge(worse_share: f64, bound: Option<f64>, spread: Option<f64>) -> Moved {
    let Some(bound) = bound else {
        return Moved::Informational;
    };
    if spread.is_some_and(|s| s > bound) {
        Moved::Unresolved
    } else if worse_share > bound {
        Moved::Regressed
    } else {
        Moved::Unchanged
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(text.trim()).map_err(|e| format!("{path}: {e}"))?;
    if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
        return Err(format!("{path}: not a {SCHEMA} result file"));
    }
    Ok(doc)
}

/// Prints, per workload and metric, both medians, the delta, the bound and a verdict.
/// Exits non-zero if anything regressed.
pub fn compare(flags: &Flags, spec: &Spec) -> Result<ExitCode, String> {
    let [_, a_path, b_path] = flags.words.as_slice() else {
        return Err("usage: vsbench compare A.json B.json".into());
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    for key in ["seed", "seconds", "repeat"] {
        if a.get(key).and_then(Json::as_f64) != b.get(key).and_then(Json::as_f64) {
            println!("warning: the two files were not run with the same --{key}");
        }
    }
    let mut regressed = 0;
    println!(
        "{:<20} {:<34} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "delta", "bound"
    );
    for (workload, wa) in a
        .get("workloads")
        .and_then(Json::as_obj)
        .unwrap_or_default()
    {
        let Some(wb) = b.get("workloads").and_then(|w| w.get(workload)) else {
            println!("{workload:<20} only in {a_path}");
            continue;
        };
        let metrics_a = wa.get("metrics").and_then(Json::as_obj).unwrap_or_default();
        for (name, ma) in metrics_a {
            let Some(mb) = wb.get("metrics").and_then(|m| m.get(name)) else {
                continue;
            };
            let field = |m: &Json, k: &str| m.get(k).and_then(Json::as_f64);
            let (Some(va), Some(vb)) = (field(ma, "median"), field(mb, "median")) else {
                continue;
            };
            let metric = spec.metric(name);
            let higher = metric.is_some_and(|m| m.higher_is_better);
            let worse = worse_share(va, vb, higher);
            let delta = if higher { -worse } else { worse };
            let spread = match (field(ma, "spread"), field(mb, "spread")) {
                _ if metric.is_some_and(|m| m.exact) => None,
                (Some(x), Some(y)) => Some(x.max(y)),
                (x, y) => x.or(y),
            };
            let bound = metric.and_then(|m| m.bound);
            let verdict = judge(worse, bound, spread);
            regressed += u32::from(verdict == Moved::Regressed);
            println!(
                "{workload:<20} {name:<34} {va:>14.4} {vb:>14.4} {:>+8.1}% {:>7}  {}",
                delta * 100.0,
                bound.map_or("-".to_owned(), |b| format!("{:.0}%", b * 100.0)),
                match verdict {
                    Moved::Regressed => "REGRESSED".to_owned(),
                    Moved::Unchanged => "unchanged".to_owned(),
                    Moved::Informational => "-".to_owned(),
                    Moved::Unresolved => format!(
                        "unresolved (spread {:.1}% > bound)",
                        spread.unwrap_or(0.0) * 100.0
                    ),
                }
            );
        }
    }
    Ok(if regressed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        assert_eq!(judge(0.30, Some(0.25), Some(0.05)), Moved::Regressed);
        assert_eq!(judge(-0.30, Some(0.25), Some(0.05)), Moved::Unchanged);
        assert_eq!(judge(0.10, Some(0.25), Some(0.05)), Moved::Unchanged);
        assert_eq!(judge(0.10, Some(0.25), None), Moved::Unchanged);
        assert_eq!(judge(0.30, Some(0.25), Some(0.40)), Moved::Unresolved);
        assert_eq!(judge(0.90, None, Some(0.01)), Moved::Informational);
    }

    #[test]
    fn an_exact_metric_is_held_to_its_bound_whatever_its_spread_across_seeds() {
        // A virtual-time latency that grew by 2 % against a 1 % bound.
        let worse = worse_share(52.0, 53.04, false);
        assert_eq!(judge(worse, Some(0.01), None), Moved::Regressed);
        assert_eq!(
            judge(worse_share(52.0, 52.0, false), Some(0.01), None),
            Moved::Unchanged
        );
        // A rate is worse when it falls.
        assert!((worse_share(100.0, 80.0, true) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn failed_share_must_stay_zero() {
        assert_eq!(
            judge(worse_share(0.0, 0.0, false), Some(0.0), None),
            Moved::Unchanged
        );
        assert_eq!(
            judge(worse_share(0.0, 1e-6, false), Some(0.0), None),
            Moved::Regressed
        );
    }
}
