//! Simulated time.

use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, in nanoseconds since simulation start.
///
/// Nanosecond resolution keeps 0.25 ms local hops exact while still
/// covering ~584 years of simulated time in a `u64`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Time zero (simulation start).
    pub const ZERO: SimTime = SimTime(0);

    /// Builds a time from milliseconds (fractional values preserved to ns).
    pub fn from_ms(ms: f64) -> Self {
        debug_assert!(ms >= 0.0 && ms.is_finite(), "negative or non-finite time");
        SimTime((ms * 1_000_000.0).round() as u64)
    }

    /// Builds a time from whole microseconds.
    pub fn from_us(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Builds a time from whole seconds.
    pub fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// This time as fractional milliseconds.
    pub fn as_ms(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// This time as fractional seconds.
    pub fn as_secs(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Raw nanosecond count.
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Saturating difference `self - earlier`.
    pub fn since(self, earlier: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(earlier.0))
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl std::fmt::Display for SimTime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.3}ms", self.as_ms())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ms_roundtrip() {
        assert_eq!(SimTime::from_ms(1.5).as_nanos(), 1_500_000);
        assert_eq!(SimTime::from_ms(0.25).as_ms(), 0.25);
        assert_eq!(SimTime::from_secs(2).as_secs(), 2.0);
        assert_eq!(SimTime::from_us(7).as_nanos(), 7_000);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_ms(10.0);
        let b = SimTime::from_ms(4.0);
        assert_eq!((a + b).as_ms(), 14.0);
        assert_eq!((a - b).as_ms(), 6.0);
        assert_eq!((b - a).as_nanos(), 0, "subtraction saturates");
        assert_eq!(a.since(b).as_ms(), 6.0);
        let mut c = a;
        c += b;
        assert_eq!(c.as_ms(), 14.0);
    }

    #[test]
    fn ordering_and_display() {
        assert!(SimTime::from_ms(1.0) < SimTime::from_ms(2.0));
        assert_eq!(SimTime::from_ms(1.5).to_string(), "1.500ms");
    }
}
