//! The timed window of a run: a fixed amount of work, what it cost in wall-clock,
//! processor and stolen time, the rate of work through it, and the process's peak memory
//! when it was done.  `--seconds` is only the window's cap: a workload stops at its frozen
//! number of operations, or when the cap expires, whichever comes first.

use std::time::{Duration, Instant};

use crate::common::Outcome;
use crate::stats;

/// Processor time this process's live threads have consumed, in nanoseconds (the
/// scheduler's own per-thread run time, which does not count time the hypervisor gave to
/// someone else).  Threads that already exited are not included, so only differences
/// taken while the set of threads is fixed mean anything (under `cargo test` it is not:
/// differences are taken saturating).
fn cpu_ns() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .sum()
}

/// Clock ticks (10 ms) the hypervisor has stolen from this machine's processors so far.
fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next()?.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set size of this process so far (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Stretches of equal processor time the window is cut into for the reported rate.
const STRETCHES: usize = 20;
/// How often a progress sample is taken.
const SAMPLE_EVERY: Duration = Duration::from_millis(25);

/// An open timed window.  The driver calls [`Window::look`] as often as it likes; every
/// 25 ms that takes a progress sample (deliveries so far against processor time so far).
pub struct Window {
    wall: Instant,
    cap: Duration,
    cpu0: u64,
    steal0: u64,
    /// (processor ns, deliveries) since the window opened.
    samples: Vec<(u64, u64)>,
    last_sample: Duration,
}

/// What a closed window measured.
#[derive(Clone, Copy, Debug)]
pub struct Measured {
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Stolen processor time as a share of `wall_s` x processors.
    pub steal_share: f64,
    /// Deliveries per wall-clock second, first timed send to last delivery.
    pub deliveries_per_s: f64,
    /// Median deliveries per processor-second over twenty stretches of equal processor
    /// time: a stretch disturbed from outside (a neighbour on the host, a page-fault
    /// storm) moves one figure out of twenty instead of the result.
    pub deliveries_per_cpu_s: f64,
    /// Rate over the last tenth of the window divided by the rate over the first tenth:
    /// below 1 when work gets more expensive as state accumulates.
    pub rate_decay: f64,
    /// `VmHWM` when the window closed: after the workload's fixed amount of work (so runs
    /// of different speed report memory at equal work) and before the oracle allocates.
    pub peak_rss_mib: f64,
}

impl Window {
    /// Opens a window that stays open for at most `cap_seconds`.
    pub fn open(cap_seconds: f64) -> Window {
        Window {
            cap: Duration::from_secs_f64(cap_seconds),
            cpu0: cpu_ns(),
            steal0: steal_ticks(),
            samples: vec![(0, 0)],
            last_sample: Duration::ZERO,
            wall: Instant::now(),
        }
    }

    /// False once the cap has expired: the workload stops short of its fixed work.
    pub fn is_open(&self) -> bool {
        self.wall.elapsed() < self.cap
    }

    /// Notes progress: `delivered` deliveries since the window opened.  True when this
    /// look took a sample.
    pub fn look(&mut self, delivered: u64) -> bool {
        let elapsed = self.wall.elapsed();
        if elapsed - self.last_sample < SAMPLE_EVERY {
            return false;
        }
        self.last_sample = elapsed;
        self.samples
            .push((cpu_ns().saturating_sub(self.cpu0), delivered));
        true
    }

    /// Closes the window with the final delivery count.
    pub fn close(mut self, delivered: u64) -> Measured {
        let peak_rss_mib = peak_rss_mib();
        let cpu = cpu_ns().saturating_sub(self.cpu0);
        self.samples.push((cpu, delivered));
        let wall_s = self.wall.elapsed().as_secs_f64();
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
        let rates = stretch_rates(&self.samples);
        let enough = rates.len() >= STRETCHES / 2;
        let tenth = (rates.len() / 10).max(1);
        Measured {
            wall_s,
            cpu_s: cpu as f64 / 1e9,
            steal_share: (steal_ticks() - self.steal0) as f64 * 0.01 / (wall_s * cpus).max(1e-9),
            deliveries_per_s: delivered as f64 / wall_s.max(1e-9),
            // A window too short to cut up reports its overall rate.
            deliveries_per_cpu_s: if enough {
                stats::median(&rates)
            } else {
                delivered as f64 / (cpu as f64 / 1e9).max(1e-9)
            },
            rate_decay: if enough {
                stats::median(&rates[rates.len() - tenth..])
                    / stats::median(&rates[..tenth]).max(1e-9)
            } else {
                0.0
            },
            peak_rss_mib,
        }
    }
}

/// Deliveries per processor-second over each of (up to) twenty equal stretches.
fn stretch_rates(samples: &[(u64, u64)]) -> Vec<f64> {
    let total = samples.last().map_or(0, |s| s.0);
    let per_stretch = (total / STRETCHES as u64).max(1);
    let mut rates = Vec::new();
    let mut from = samples[0];
    for s in &samples[1..] {
        let cpu = s.0.saturating_sub(from.0);
        if cpu >= per_stretch {
            rates.push((s.1 - from.1) as f64 / (cpu as f64 / 1e9));
            from = *s;
        }
    }
    rates
}

impl Measured {
    /// Records the metrics a window yields.
    pub fn record(&self, out: &mut Outcome) {
        out.set("deliveries_per_s", self.deliveries_per_s);
        out.set("deliveries_per_cpu_s", self.deliveries_per_cpu_s);
        out.set("peak_rss_mib", self.peak_rss_mib);
        out.set("endpoint.rate_decay", self.rate_decay);
    }

    /// "`done` of `target` … in … s wall / … s cpu, … % stolen" for the run's notes; says
    /// so when the cap cut the fixed work short.
    pub fn describe(&self, what: &str, done: u64, target: u64) -> String {
        format!(
            "{done} of {target} {what}{} in {:.3} s wall / {:.3} s cpu, {:.1} % of processor \
             time stolen",
            if done < target {
                " (THE CAP CUT THE FIXED WORK SHORT: figures are not comparable)"
            } else {
                ""
            },
            self.wall_s,
            self.cpu_s,
            self.steal_share * 100.0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_rate_is_the_median_stretch_not_the_mean() {
        // 40 samples, 1 ms of processor time and 100 deliveries apart — except a slow
        // patch in the middle where a millisecond only bought 10.
        let mut samples = vec![(0u64, 0u64)];
        for i in 1..=40u64 {
            let (cpu, done) = samples[samples.len() - 1];
            let step = if (18..=22).contains(&i) { 10 } else { 100 };
            samples.push((cpu + 1_000_000, done + step));
        }
        let rates = stretch_rates(&samples);
        assert_eq!(rates.len(), STRETCHES);
        assert_eq!(stats::median(&rates), 100_000.0);
        let overall = samples[40].1 as f64 / (samples[40].0 as f64 / 1e9);
        assert!(overall < 90_000.0);
    }

    #[test]
    fn a_short_window_still_reports_a_rate_and_its_memory() {
        let mut w = Window::open(0.01);
        assert!(w.is_open());
        assert!(!w.look(2), "no sample before 25 ms");
        std::thread::sleep(Duration::from_millis(11));
        assert!(!w.is_open(), "the cap expired");
        let m = w.close(20);
        assert!(m.peak_rss_mib > 0.0);
        assert!(m.deliveries_per_cpu_s > 0.0 && m.deliveries_per_s > 0.0);
        assert_eq!(m.rate_decay, 0.0, "too short to compare its ends");
        assert!(m.describe("ops", 10, 10).starts_with("10 of 10 ops in "));
        assert!(m
            .describe("ops", 9, 10)
            .contains("CUT THE FIXED WORK SHORT"));
    }
}
