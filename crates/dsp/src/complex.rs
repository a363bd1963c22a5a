//! A minimal complex-number type sufficient for FFT-based signal processing.
//!
//! We deliberately avoid an external dependency: the TagBreathe pipeline only
//! needs addition, multiplication, conjugation, magnitude and polar
//! construction.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` components.
///
/// # Examples
///
/// ```
/// use tagbreathe_dsp::Complex;
///
/// let i = Complex::new(0.0, 1.0);
/// assert_eq!(i * i, Complex::new(-1.0, 0.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real component.
    pub re: f64,
    /// Imaginary component.
    pub im: f64,
}

impl Complex {
    /// The additive identity, `0 + 0i`.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };
    /// The multiplicative identity, `1 + 0i`.
    pub const ONE: Complex = Complex { re: 1.0, im: 0.0 };
    /// The imaginary unit, `0 + 1i`.
    pub const I: Complex = Complex { re: 0.0, im: 1.0 };

    /// Creates a complex number from rectangular components.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// Creates a purely real complex number.
    ///
    /// # Examples
    ///
    /// ```
    /// use tagbreathe_dsp::Complex;
    /// assert_eq!(Complex::from_real(2.5).im, 0.0);
    /// ```
    #[inline]
    pub const fn from_real(re: f64) -> Self {
        Complex { re, im: 0.0 }
    }

    /// Creates a complex number from polar coordinates `r·e^{iθ}`.
    ///
    /// # Examples
    ///
    /// ```
    /// use tagbreathe_dsp::Complex;
    /// let z = Complex::from_polar(2.0, std::f64::consts::FRAC_PI_2);
    /// assert!((z.re).abs() < 1e-12);
    /// assert!((z.im - 2.0).abs() < 1e-12);
    /// ```
    #[inline]
    pub fn from_polar(r: f64, theta: f64) -> Self {
        let (s, c) = theta.sin_cos();
        Complex {
            re: r * c,
            im: r * s,
        }
    }

    /// Returns `e^{iθ}`, a unit-magnitude phasor at angle `theta`.
    #[inline]
    pub fn cis(theta: f64) -> Self {
        Self::from_polar(1.0, theta)
    }

    /// Returns the complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Complex {
            re: self.re,
            im: -self.im,
        }
    }

    /// Returns the magnitude `|z|`.
    #[inline]
    #[must_use]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Returns the squared magnitude `|z|²`, cheaper than [`Complex::abs`].
    #[inline]
    #[must_use]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Returns the argument (phase angle) in `(-π, π]`.
    #[inline]
    #[must_use]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Multiplies by a real scalar.
    #[inline]
    pub fn scale(self, k: f64) -> Self {
        Complex {
            re: self.re * k,
            im: self.im * k,
        }
    }

    /// Returns true when either component is NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        self.re.is_nan() || self.im.is_nan()
    }
}

impl From<f64> for Complex {
    fn from(re: f64) -> Self {
        Complex::from_real(re)
    }
}

impl Add for Complex {
    type Output = Complex;
    #[inline]
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl AddAssign for Complex {
    #[inline]
    fn add_assign(&mut self, rhs: Complex) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for Complex {
    type Output = Complex;
    #[inline]
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl SubAssign for Complex {
    #[inline]
    fn sub_assign(&mut self, rhs: Complex) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl Mul for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl MulAssign for Complex {
    #[inline]
    fn mul_assign(&mut self, rhs: Complex) {
        *self = *self * rhs;
    }
}

impl Mul<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: f64) -> Complex {
        self.scale(rhs)
    }
}

impl Neg for Complex {
    type Output = Complex;
    #[inline]
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

impl Sum for Complex {
    fn sum<I: Iterator<Item = Complex>>(iter: I) -> Complex {
        iter.fold(Complex::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Complex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;

    #[test]
    fn addition_and_subtraction_are_componentwise() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(-3.0, 0.5);
        assert_eq!(a + b, Complex::new(-2.0, 2.5));
        assert_eq!(a - b, Complex::new(4.0, 1.5));
    }

    #[test]
    fn multiplication_matches_hand_computation() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(3.0, -1.0);
        // (1+2i)(3-i) = 3 - i + 6i - 2i^2 = 5 + 5i
        assert_eq!(a * b, Complex::new(5.0, 5.0));
    }

    #[test]
    fn i_squared_is_minus_one() {
        assert_eq!(Complex::I * Complex::I, Complex::new(-1.0, 0.0));
    }

    #[test]
    fn conjugate_negates_imaginary_part() {
        let z = Complex::new(2.0, -7.0);
        assert_eq!(z.conj(), Complex::new(2.0, 7.0));
        assert_eq!(z.conj().conj(), z);
    }

    #[test]
    fn polar_round_trip() {
        let z = Complex::from_polar(3.0, 1.234);
        assert!((z.abs() - 3.0).abs() < EPS);
        assert!((z.arg() - 1.234).abs() < EPS);
    }

    #[test]
    fn cis_has_unit_magnitude() {
        for k in 0..16 {
            let theta = k as f64 * 0.41;
            assert!((Complex::cis(theta).abs() - 1.0).abs() < EPS);
        }
    }

    #[test]
    fn norm_sqr_is_square_of_abs() {
        let z = Complex::new(3.0, 4.0);
        assert_eq!(z.norm_sqr(), 25.0);
        assert_eq!(z.abs(), 5.0);
    }

    #[test]
    fn scalar_ops() {
        let z = Complex::new(1.0, -2.0);
        assert_eq!(z * 2.0, Complex::new(2.0, -4.0));
        assert_eq!(-z, Complex::new(-1.0, 2.0));
    }

    #[test]
    fn sum_over_iterator() {
        let total: Complex = (0..4).map(|k| Complex::new(k as f64, 1.0)).sum();
        assert_eq!(total, Complex::new(6.0, 4.0));
    }

    #[test]
    fn display_formats_sign_correctly() {
        assert_eq!(Complex::new(1.0, 2.0).to_string(), "1+2i");
        assert_eq!(Complex::new(1.0, -2.0).to_string(), "1-2i");
    }

    #[test]
    fn from_real_and_from_f64() {
        let z: Complex = 4.0.into();
        assert_eq!(z, Complex::from_real(4.0));
    }

    #[test]
    fn nan_detection() {
        assert!(Complex::new(f64::NAN, 0.0).is_nan());
        assert!(!Complex::new(1.0, 1.0).is_nan());
    }
}
