//! Virtual time, after Jefferson \[10\].

/// A point in simulated (virtual) time.
///
/// `VTime::INF` is the distinguished "plus infinity" used for GVT of a
/// finished simulation and for LPs with no pending events.
///
/// The field is private, so virtual time is summed only through
/// [`VTime::after`], which saturates:
///
/// ```
/// use pls_timewarp::VTime;
/// assert_eq!(VTime::from(3).after(4).ticks(), 7);
/// ```
///
/// A raw `.0` sum does not compile outside this module:
///
/// ```compile_fail,E0616
/// use pls_timewarp::VTime;
/// let _ = VTime::from(3).0 + 4;
/// ```
///
/// nor does a tuple construction:
///
/// ```compile_fail,E0603
/// use pls_timewarp::VTime;
/// let _ = VTime(3 + 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VTime(u64);

impl VTime {
    /// Time zero, the start of every simulation.
    pub const ZERO: VTime = VTime(0);
    /// Plus infinity: later than every real event time.
    pub const INF: VTime = VTime(u64::MAX);

    /// Ticks since zero (`u64::MAX` for [`VTime::INF`]).
    pub const fn ticks(self) -> u64 {
        self.0
    }

    /// Add a delay, saturating at infinity.
    pub fn after(self, delay: u64) -> VTime {
        if self == VTime::INF {
            VTime::INF
        } else {
            VTime(self.0.saturating_add(delay))
        }
    }

    /// Whether this is the infinity sentinel.
    pub fn is_inf(self) -> bool {
        self == VTime::INF
    }
}

impl std::fmt::Display for VTime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_inf() {
            write!(f, "∞")
        } else {
            write!(f, "{}", self.0)
        }
    }
}

impl From<u64> for VTime {
    fn from(t: u64) -> VTime {
        VTime(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering() {
        assert!(VTime::ZERO < VTime(1));
        assert!(VTime(5) < VTime::INF);
        assert!(VTime::INF <= VTime::INF);
    }

    #[test]
    fn after_saturates() {
        assert_eq!(VTime(10).after(5), VTime(15));
        assert_eq!(VTime::INF.after(5), VTime::INF);
        assert_eq!(VTime(u64::MAX - 1).after(10), VTime::INF);
    }

    #[test]
    fn display() {
        assert_eq!(VTime(7).to_string(), "7");
        assert_eq!(VTime::INF.to_string(), "∞");
    }
}
