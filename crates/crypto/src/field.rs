//! Arithmetic in the prime field `F_p` with `p = 2^61 − 1` (a Mersenne
//! prime), used for Shamir secret sharing inside the coin-tossing
//! functionality `f_ct`.
//!
//! The Mersenne structure gives branch-light reduction; inversion is by
//! Fermat's little theorem, and [`batch_inverse`] shares one such
//! exponentiation among any number of elements.
//!
//! # Examples
//!
//! ```
//! use pba_crypto::field::Fp;
//!
//! let a = Fp::new(5);
//! let b = Fp::new(7);
//! assert_eq!(a * b, Fp::new(35));
//! assert_eq!((a / b) * b, a);
//! ```

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// The field modulus `p = 2^61 − 1`.
pub const MODULUS: u64 = (1u64 << 61) - 1;

/// An element of `F_p`, `p = 2^61 − 1`, stored in canonical form `[0, p)`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Fp(u64);

impl Fp {
    /// The additive identity.
    pub const ZERO: Fp = Fp(0);
    /// The multiplicative identity.
    pub const ONE: Fp = Fp(1);

    /// Creates a field element, reducing `v` mod `p`.
    pub const fn new(v: u64) -> Self {
        // Two-step Mersenne reduction handles all u64 inputs.
        let r = (v >> 61) + (v & MODULUS);
        let r = if r >= MODULUS { r - MODULUS } else { r };
        Fp(r)
    }

    /// The canonical representative in `[0, p)`.
    pub const fn value(&self) -> u64 {
        self.0
    }

    /// Samples a uniform field element from a PRG.
    pub fn random(prg: &mut crate::prg::Prg) -> Self {
        Fp(prg.gen_range(MODULUS))
    }

    /// Raises `self` to the power `exp` by square-and-multiply.
    pub fn pow(self, mut exp: u64) -> Fp {
        let mut base = self;
        let mut acc = Fp::ONE;
        while exp > 0 {
            if exp & 1 == 1 {
                acc *= base;
            }
            base *= base;
            exp >>= 1;
        }
        acc
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics if `self` is zero.
    pub fn inverse(self) -> Fp {
        assert!(self.0 != 0, "zero has no multiplicative inverse");
        self.pow(MODULUS - 2)
    }

    /// Returns true iff this is the zero element.
    pub fn is_zero(&self) -> bool {
        self.0 == 0
    }
}

/// Inverts every element of `values` in place with Montgomery's trick:
/// one [`Fp::inverse`] (a Fermat exponentiation, ≈ 120 multiplications)
/// plus three multiplications per element, instead of one exponentiation
/// each.
///
/// # Panics
///
/// Panics if any element is zero.
pub fn batch_inverse(values: &mut [Fp]) {
    // prefix[i] = values[0] · … · values[i − 1]
    let mut prefix = Vec::with_capacity(values.len());
    let mut acc = Fp::ONE;
    for v in values.iter() {
        assert!(v.0 != 0, "zero has no multiplicative inverse");
        prefix.push(acc);
        acc *= *v;
    }
    // Walking back, `acc` is the inverse of values[0] · … · values[i].
    acc = acc.inverse();
    for (v, p) in values.iter_mut().zip(prefix).rev() {
        let inv = acc * p;
        acc *= *v;
        *v = inv;
    }
}

impl fmt::Debug for Fp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fp({})", self.0)
    }
}

impl fmt::Display for Fp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u64> for Fp {
    fn from(v: u64) -> Self {
        Fp::new(v)
    }
}

impl Add for Fp {
    type Output = Fp;
    fn add(self, rhs: Fp) -> Fp {
        let s = self.0 + rhs.0; // < 2^62, no overflow
        Fp(if s >= MODULUS { s - MODULUS } else { s })
    }
}

impl AddAssign for Fp {
    fn add_assign(&mut self, rhs: Fp) {
        *self = *self + rhs;
    }
}

impl Sub for Fp {
    type Output = Fp;
    fn sub(self, rhs: Fp) -> Fp {
        Fp(if self.0 >= rhs.0 {
            self.0 - rhs.0
        } else {
            self.0 + MODULUS - rhs.0
        })
    }
}

impl SubAssign for Fp {
    fn sub_assign(&mut self, rhs: Fp) {
        *self = *self - rhs;
    }
}

impl Neg for Fp {
    type Output = Fp;
    fn neg(self) -> Fp {
        Fp::ZERO - self
    }
}

impl Mul for Fp {
    type Output = Fp;
    fn mul(self, rhs: Fp) -> Fp {
        let wide = (self.0 as u128) * (rhs.0 as u128);
        // Mersenne reduction: split at bit 61 twice.
        let lo = (wide & MODULUS as u128) as u64;
        let hi = (wide >> 61) as u64;
        Fp::new(lo) + Fp::new(hi)
    }
}

impl MulAssign for Fp {
    fn mul_assign(&mut self, rhs: Fp) {
        *self = *self * rhs;
    }
}

impl Div for Fp {
    type Output = Fp;
    /// # Panics
    ///
    /// Panics on division by zero.
    #[allow(clippy::suspicious_arithmetic_impl)] // field division IS multiplication by the inverse
    fn div(self, rhs: Fp) -> Fp {
        self * rhs.inverse()
    }
}

impl std::iter::Sum for Fp {
    fn sum<I: Iterator<Item = Fp>>(iter: I) -> Fp {
        iter.fold(Fp::ZERO, |a, b| a + b)
    }
}

impl std::iter::Product for Fp {
    fn product<I: Iterator<Item = Fp>>(iter: I) -> Fp {
        iter.fold(Fp::ONE, |a, b| a * b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prg::Prg;

    #[test]
    fn reduction_of_large_values() {
        assert_eq!(Fp::new(MODULUS), Fp::ZERO);
        assert_eq!(Fp::new(MODULUS + 1), Fp::ONE);
        assert!(Fp::new(u64::MAX).value() < MODULUS);
        // u64::MAX = 2^64 - 1 = 8p + 7  (since p = 2^61 - 1, 8p = 2^64 - 8)
        assert_eq!(Fp::new(u64::MAX), Fp::new(7));
    }

    #[test]
    fn add_sub_inverse() {
        let mut prg = Prg::from_seed_bytes(b"f");
        for _ in 0..100 {
            let a = Fp::random(&mut prg);
            let b = Fp::random(&mut prg);
            assert_eq!(a + b - b, a);
            assert_eq!(a - a, Fp::ZERO);
            assert_eq!(-a + a, Fp::ZERO);
        }
    }

    #[test]
    fn mul_matches_u128_reference() {
        let mut prg = Prg::from_seed_bytes(b"m");
        for _ in 0..200 {
            let a = Fp::random(&mut prg);
            let b = Fp::random(&mut prg);
            let expected = ((a.value() as u128 * b.value() as u128) % MODULUS as u128) as u64;
            assert_eq!((a * b).value(), expected);
        }
    }

    #[test]
    fn field_axioms_sampled() {
        let mut prg = Prg::from_seed_bytes(b"ax");
        for _ in 0..50 {
            let a = Fp::random(&mut prg);
            let b = Fp::random(&mut prg);
            let c = Fp::random(&mut prg);
            assert_eq!((a + b) + c, a + (b + c));
            assert_eq!((a * b) * c, a * (b * c));
            assert_eq!(a * (b + c), a * b + a * c);
            assert_eq!(a * Fp::ONE, a);
            assert_eq!(a + Fp::ZERO, a);
            assert_eq!(a * b, b * a);
        }
    }

    #[test]
    fn inversion() {
        let mut prg = Prg::from_seed_bytes(b"inv");
        for _ in 0..50 {
            let a = Fp::random(&mut prg);
            if !a.is_zero() {
                assert_eq!(a * a.inverse(), Fp::ONE);
                assert_eq!(a / a, Fp::ONE);
            }
        }
    }

    #[test]
    #[should_panic(expected = "zero has no multiplicative inverse")]
    fn zero_inverse_panics() {
        Fp::ZERO.inverse();
    }

    #[test]
    fn batch_inverse_matches_inverse() {
        let mut prg = Prg::from_seed_bytes(b"batch-inv");
        for len in [0usize, 1, 2, 7, 40] {
            let values: Vec<Fp> = (0..len)
                .map(|_| Fp::new(prg.gen_range(MODULUS - 1) + 1))
                .collect();
            let mut inverted = values.clone();
            batch_inverse(&mut inverted);
            let expected: Vec<Fp> = values.iter().map(|v| v.inverse()).collect();
            assert_eq!(inverted, expected, "len={len}");
        }
    }

    #[test]
    #[should_panic(expected = "zero has no multiplicative inverse")]
    fn batch_inverse_rejects_zero() {
        batch_inverse(&mut [Fp::new(3), Fp::ZERO, Fp::new(5)]);
    }

    #[test]
    fn pow_edge_cases() {
        let a = Fp::new(12345);
        assert_eq!(a.pow(0), Fp::ONE);
        assert_eq!(a.pow(1), a);
        assert_eq!(a.pow(2), a * a);
        // Fermat: a^(p-1) = 1
        assert_eq!(a.pow(MODULUS - 1), Fp::ONE);
    }

    #[test]
    fn sum_and_product_iters() {
        let v = [Fp::new(1), Fp::new(2), Fp::new(3)];
        assert_eq!(v.iter().copied().sum::<Fp>(), Fp::new(6));
        assert_eq!(v.iter().copied().product::<Fp>(), Fp::new(6));
    }
}
