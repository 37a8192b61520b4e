//! SI-unit newtypes used throughout the OPTIMA workspace.
//!
//! Analog circuit code juggles many `f64` quantities (volts, seconds,
//! femtojoules, degrees Celsius, farads).  Mixing them up is a classic source
//! of silent bugs, so the workspace passes them around as newtypes and only
//! unwraps to raw `f64` at computation boundaries.
//!
//! ```rust
//! use optima_math::units::{NanoSeconds, Seconds};
//!
//! let tau0 = Seconds(0.16e-9);
//! let in_ns: NanoSeconds = tau0.to_nanoseconds();
//! assert!((in_ns.0 - 0.16).abs() < 1e-9);
//! ```

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// Implements the numeric plumbing shared by all unit newtypes.
macro_rules! unit_newtype {
    ($(#[$meta:meta])* $name:ident, $suffix:expr) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
        pub struct $name(pub f64);

        impl $name {
            /// Returns the raw `f64` value.
            #[inline]
            pub fn value(self) -> f64 {
                self.0
            }

            /// Returns the absolute value with the same unit.
            #[inline]
            pub fn abs(self) -> Self {
                Self(self.0.abs())
            }

            /// Returns the smaller of `self` and `other`.
            #[inline]
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }

            /// Returns the larger of `self` and `other`.
            #[inline]
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// Clamps the value into `[lo, hi]`.
            ///
            /// # Panics
            ///
            /// Panics if `lo > hi` (mirrors [`f64::clamp`]).
            #[inline]
            pub fn clamp(self, lo: Self, hi: Self) -> Self {
                Self(self.0.clamp(lo.0, hi.0))
            }

            /// Returns `true` when the underlying value is finite.
            #[inline]
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{} {}", self.0, $suffix)
            }
        }

        impl From<f64> for $name {
            fn from(value: f64) -> Self {
                Self(value)
            }
        }

        impl From<$name> for f64 {
            fn from(value: $name) -> f64 {
                value.0
            }
        }

        impl Add for $name {
            type Output = Self;
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl Sub for $name {
            type Output = Self;
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl AddAssign for $name {
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl SubAssign for $name {
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl Neg for $name {
            type Output = Self;
            fn neg(self) -> Self {
                Self(-self.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = Self;
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl Div<f64> for $name {
            type Output = Self;
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl Div for $name {
            type Output = f64;
            fn div(self, rhs: Self) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|v| v.0).sum())
            }
        }
    };
}

unit_newtype!(
    /// Electric potential in volts.
    Volts,
    "V"
);
unit_newtype!(
    /// Time in seconds.
    Seconds,
    "s"
);
unit_newtype!(
    /// Time in nanoseconds.
    NanoSeconds,
    "ns"
);
unit_newtype!(
    /// Temperature in degrees Celsius.
    Celsius,
    "degC"
);
unit_newtype!(
    /// Energy in joules.
    Joules,
    "J"
);
unit_newtype!(
    /// Energy in femtojoules.
    FemtoJoules,
    "fJ"
);
unit_newtype!(
    /// Capacitance in farads.
    Farads,
    "F"
);
unit_newtype!(
    /// Electric current in amperes.
    Amperes,
    "A"
);

impl Seconds {
    /// Converts to nanoseconds.
    pub fn to_nanoseconds(self) -> NanoSeconds {
        NanoSeconds(self.0 * 1e9)
    }
}

impl Joules {
    /// Converts to femtojoules.
    pub fn to_femtojoules(self) -> FemtoJoules {
        FemtoJoules(self.0 * 1e15)
    }
}

impl Celsius {
    /// Converts to kelvin (returned as raw `f64` since no Kelvin newtype is needed downstream).
    pub fn to_kelvin(self) -> f64 {
        self.0 + 273.15
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_scale_by_the_si_prefix() {
        assert!((Seconds(1.6e-10).to_nanoseconds().0 - 0.16).abs() < 1e-12);
        assert!((Joules(1.05e-12).to_femtojoules().0 - 1050.0).abs() < 1e-9);
    }

    #[test]
    fn arithmetic_behaves_like_f64() {
        let a = Volts(1.0);
        let b = Volts(0.4);
        assert_eq!((a - b).0, 0.6);
        assert_eq!((a + b).0, 1.4);
        assert_eq!((a * 2.0).0, 2.0);
        assert_eq!(a / b, 2.5);
        assert_eq!((-b).0, -0.4);
    }

    #[test]
    fn sum_of_energies() {
        let total: FemtoJoules = vec![FemtoJoules(10.0), FemtoJoules(20.0), FemtoJoules(14.0)]
            .into_iter()
            .sum();
        assert!((total.0 - 44.0).abs() < 1e-12);
    }

    #[test]
    fn display_includes_unit_suffix() {
        assert_eq!(Volts(1.0).to_string(), "1 V");
        assert_eq!(Celsius(27.0).to_string(), "27 degC");
    }

    #[test]
    fn celsius_to_kelvin() {
        assert!((Celsius(26.85).to_kelvin() - 300.0).abs() < 1e-9);
    }

    #[test]
    fn clamp_and_min_max() {
        let v = Volts(1.3);
        assert_eq!(v.clamp(Volts(0.0), Volts(1.0)), Volts(1.0));
        assert_eq!(v.min(Volts(1.0)), Volts(1.0));
        assert_eq!(v.max(Volts(2.0)), Volts(2.0));
    }
}
