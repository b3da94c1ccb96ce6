//! The contract, read from `BENCHMARK.json` at the repository root (compiled in, so the
//! binary and the file the driver reads cannot drift apart).

use crate::json::Json;

const CONTRACT: &str = include_str!("../../BENCHMARK.json");

/// The end-to-end metrics of issue 11 that the contract's `end_to_end` list cannot carry,
/// because the driver wants every workload to report every metric there, never 0 and
/// never the same on every run: virtual-time latencies exist on the simulator workloads
/// only, join and crash stalls on `churn-sim5` only, `failed_share` must stay 0, and the
/// wall-clock rate swings with what the hypervisor gives this machine.  `suite` prints
/// them where they exist and `compare` holds them to these bounds: name, unit, higher is
/// better, bound, exact (read off the virtual clock or counted: the same for the same seed
/// on every run, so a spread across seeds is not noise).
const SUITE_ONLY: [(&str, &str, bool, f64, bool); 10] = [
    ("deliveries_per_s", "1/s", true, 0.10, false),
    ("cbcast_vlatency_us_p50", "virt_us", false, 0.01, true),
    ("cbcast_vlatency_us_p99", "virt_us", false, 0.01, true),
    ("abcast_vlatency_us_p50", "virt_us", false, 0.01, true),
    ("abcast_vlatency_us_p99", "virt_us", false, 0.01, true),
    ("rpc_vlatency_us_p50", "virt_us", false, 0.01, true),
    ("rpc_vlatency_us_p99", "virt_us", false, 0.01, true),
    ("join_vms_p50", "virt_ms", false, 0.01, true),
    ("crash_view_vms_p50", "virt_ms", false, 0.01, true),
    ("failed_share", "ratio", false, 0.0, true),
];

/// One metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen; end-to-end only.
    pub bound: Option<f64>,
    /// Repeats exactly for a seed (see [`SUITE_ONLY`]).
    pub exact: bool,
}

/// The parsed contract, plus the end-to-end metrics only `suite` and `compare` know.
#[derive(Clone, Debug)]
pub struct Spec {
    pub run_seconds: f64,
    /// Workload names with the reason each exists.
    pub workloads: Vec<(String, String)>,
    /// What a `--trace 0` run prints for the driver.
    pub end_to_end: Vec<Metric>,
    /// What a `--trace 1` run prints for the driver.
    pub per_layer: Vec<Metric>,
    /// Every bounded metric: `end_to_end` and the ones above.
    pub gated: Vec<Metric>,
}

fn metrics(doc: &Json, key: &str) -> Vec<Metric> {
    doc.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .map(|m| Metric {
            name: m
                .get("name")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_owned(),
            unit: m
                .get("unit")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_owned(),
            higher_is_better: m.get("better").and_then(Json::as_str) == Some("higher"),
            bound: m.get("bound").and_then(Json::as_f64),
            exact: false,
        })
        .collect()
}

impl Spec {
    pub fn load() -> Spec {
        let doc = Json::parse(CONTRACT).expect("BENCHMARK.json is valid JSON");
        let end_to_end = metrics(&doc, "end_to_end");
        let mut gated = end_to_end.clone();
        gated.extend(
            SUITE_ONLY
                .iter()
                .map(|(name, unit, higher_is_better, bound, exact)| Metric {
                    name: (*name).to_owned(),
                    unit: (*unit).to_owned(),
                    higher_is_better: *higher_is_better,
                    bound: Some(*bound),
                    exact: *exact,
                }),
        );
        Spec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .unwrap_or(10.0),
            workloads: doc
                .get("workloads")
                .and_then(Json::as_arr)
                .unwrap_or_default()
                .iter()
                .map(|w| {
                    let field = |k| w.get(k).and_then(Json::as_str).unwrap_or("").to_owned();
                    (field("name"), field("why"))
                })
                .collect(),
            end_to_end,
            per_layer: metrics(&doc, "per_layer"),
            gated,
        }
    }

    /// The metric with this name: the bounded one if there is one, else the per-layer one.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.gated
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn the_contract_is_within_its_own_limits() {
        let spec = Spec::load();
        assert!(CONTRACT.len() <= 64 * 1024);
        assert!((1.0..=60.0).contains(&spec.run_seconds) && spec.run_seconds.fract() == 0.0);
        assert!((2..=8).contains(&spec.workloads.len()));
        assert!((1..=16).contains(&spec.end_to_end.len()));
        assert!((1..=128).contains(&spec.per_layer.len()));
        let mut names: Vec<&str> = spec.workloads.iter().map(|(n, _)| n.as_str()).collect();
        names.extend(
            spec.end_to_end
                .iter()
                .chain(&spec.per_layer)
                .map(|m| m.name.as_str()),
        );
        for n in &names {
            assert!(name_ok(n), "bad name {n:?}");
        }
        let unique: std::collections::BTreeSet<&&str> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for (_, why) in &spec.workloads {
            assert!(
                !why.is_empty() && why.len() <= 200 && !why.contains('\n'),
                "{why:?}"
            );
        }
        for m in spec.end_to_end.iter().chain(&spec.per_layer) {
            assert!(!m.unit.is_empty() && m.unit.len() <= 16, "{m:?}");
            assert!(
                m.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{m:?}"
            );
        }
        for m in &spec.end_to_end {
            assert!(m.bound.is_some_and(|b| b > 0.0 && b <= 0.25), "{m:?}");
        }
        let setup = spec.metric("setup_s").expect("setup_s is required");
        assert!(setup.unit == "s" && !setup.higher_is_better);
        let largest = spec
            .end_to_end
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(largest),
            "setup_s takes the largest bound"
        );
    }

    #[test]
    fn every_end_to_end_metric_of_the_issue_is_bounded() {
        let spec = Spec::load();
        for name in [
            "deliveries_per_s",
            "cbcast_vlatency_us_p50",
            "cbcast_vlatency_us_p99",
            "abcast_vlatency_us_p50",
            "abcast_vlatency_us_p99",
            "rpc_vlatency_us_p50",
            "rpc_vlatency_us_p99",
            "join_vms_p50",
            "crash_view_vms_p50",
            "peak_rss_mib",
            "setup_s",
            "failed_share",
        ] {
            let m = spec.metric(name).unwrap_or_else(|| panic!("{name}"));
            assert!(m.bound.is_some(), "{name} has no bound");
        }
        // The virtual-time ones are also in the contract's per-layer list, so the driver
        // records them; the bounded entry is the one `metric` finds.
        assert!(spec
            .per_layer
            .iter()
            .any(|m| m.name == "join_vms_p50" && m.bound.is_none()));
        assert_eq!(spec.metric("failed_share").unwrap().bound, Some(0.0));
    }

    #[test]
    fn every_workload_of_the_contract_is_implemented() {
        for (name, _) in Spec::load().workloads {
            assert!(
                crate::workloads::ladder_shape(&name).is_some(),
                "{name} is in BENCHMARK.json but not in the benchmark"
            );
        }
    }
}
