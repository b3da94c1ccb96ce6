//! Virtual time for the discrete-event simulator and the sans-io protocol state machines.
//!
//! All protocol code is written against [`SimTime`] rather than `std::time::Instant` so that
//! the same state machines can be driven by the deterministic simulator (virtual time) and by
//! the threaded runtime (wall-clock time mapped onto microseconds since start).

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

use serde::{Deserialize, Serialize};

/// A point in simulated time, measured in microseconds since the start of the run.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct SimTime(pub u64);

/// A span of simulated time, in microseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct Duration(pub u64);

impl SimTime {
    /// The origin of time.
    pub const ZERO: SimTime = SimTime(0);

    /// Returns the number of whole microseconds since the origin.
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// Returns the time as fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Saturating difference between two times.
    pub fn saturating_since(self, earlier: SimTime) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }
}

impl Duration {
    /// Zero-length duration.
    pub const ZERO: Duration = Duration(0);

    /// Builds a duration from microseconds.
    pub fn from_micros(us: u64) -> Self {
        Duration(us)
    }

    /// Builds a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Duration(ms * 1_000)
    }

    /// Builds a duration from seconds.
    pub fn from_secs(s: u64) -> Self {
        Duration(s * 1_000_000)
    }

    /// Builds a duration from fractional seconds, rounding to the nearest microsecond.
    pub(crate) fn from_secs_f64(s: f64) -> Self {
        Duration((s * 1_000_000.0).round().max(0.0) as u64)
    }

    /// Returns the number of whole microseconds.
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// Returns the duration as fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Returns the duration as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Multiplies the duration by an integer factor, saturating on overflow.
    pub fn saturating_mul(self, k: u64) -> Duration {
        Duration(self.0.saturating_mul(k))
    }

    /// Scales the duration by a floating-point factor.
    pub fn mul_f64(self, k: f64) -> Duration {
        Duration((self.0 as f64 * k).round().max(0.0) as u64)
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: Duration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<Duration> for SimTime {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Duration;
    fn sub(self, rhs: SimTime) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }
}

impl Add<Duration> for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<Duration> for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub<Duration> for Duration {
    type Output = Duration;
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.3}ms", self.as_millis_f64())
    }
}

impl fmt::Debug for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_roundtrips() {
        let t = SimTime::ZERO + Duration::from_millis(5);
        assert_eq!(t.as_micros(), 5_000);
        let t2 = t + Duration::from_secs(1);
        assert_eq!((t2 - t).as_millis_f64(), 1_000.0);
        assert_eq!(t2.saturating_since(t), Duration::from_secs(1));
        assert_eq!(t.saturating_since(t2), Duration::ZERO);
    }

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(Duration::from_millis(2), Duration::from_micros(2_000));
        assert_eq!(Duration::from_secs(1), Duration::from_millis(1_000));
        assert_eq!(Duration::from_secs_f64(0.5), Duration::from_millis(500));
    }

    #[test]
    fn scaling() {
        assert_eq!(
            Duration::from_millis(10).saturating_mul(3),
            Duration::from_millis(30)
        );
        assert_eq!(
            Duration::from_millis(10).mul_f64(0.5),
            Duration::from_millis(5)
        );
    }

    #[test]
    fn conversions_to_float() {
        let d = Duration::from_micros(1_500);
        assert!((d.as_millis_f64() - 1.5).abs() < 1e-9);
        assert!((d.as_secs_f64() - 0.0015).abs() < 1e-12);
    }
}
