//! Field elements over the Mersenne prime 2³¹ − 1.

use core::fmt;
use core::hash::{Hash, Hasher};
use core::iter::{Product, Sum};
use core::marker::PhantomData;
use core::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

use rand::RngCore;

use crate::packed::Avx2;

/// A prime modulus usable as the characteristic of a [`Gf`] field.
///
/// This trait is implemented by the zero-sized marker [`Mersenne31`]; it
/// is not meant to be implemented outside this crate, although nothing
/// prevents it for experimentation with other primes below 2⁶². All
/// arithmetic goes through [`PrimeField::reduce`].
///
/// The field also picks the lanes its two hot kernels run on
/// ([`PrimeField::horner_lanes`], [`PrimeField::weighted_sum_rows`]).
/// [`Mersenne31`] asks the CPU at run time whether it has AVX2 and, if so,
/// runs AVX2 lanes, else the portable ones; no build flag or option is
/// involved, and every choice gives the same elements.
pub trait PrimeField:
    'static + Copy + Clone + fmt::Debug + Eq + PartialEq + Send + Sync + Default
{
    /// The prime modulus. Must satisfy `MODULUS < 2^62` so that sums of two
    /// reduced values never overflow `u64` and products fit in `u128`.
    const MODULUS: u64;
    /// Short human-readable field name, e.g. `"M31"`.
    const NAME: &'static str;
    /// Number of bytes needed to encode one element on the wire.
    const ENCODED_LEN: usize;

    /// Reduce an arbitrary 128-bit value into `[0, MODULUS)`.
    fn reduce(x: u128) -> u64;

    /// Reduce a 64-bit value into `[0, MODULUS)`.
    fn reduce64(x: u64) -> u64;

    /// Multiply two *reduced* residues and reduce the product — the
    /// branch-free kernel the packed lanes build on, kept in `u64` so the
    /// compiler can keep lane loops in vector registers.
    fn mul_reduced(a: u64, b: u64) -> u64;

    /// The all-points lane kernel behind
    /// [`packed::horner_lanes_into`](crate::packed::horner_lanes_into),
    /// which checks the slice lengths and then calls it.
    fn horner_lanes(
        coeffs: &[Gf<Self>],
        lanes: usize,
        degree: usize,
        xs: &[Gf<Self>],
        out: &mut [Gf<Self>],
    );

    /// The lane kernel behind
    /// [`packed::weighted_sum_rows_into`](crate::packed::weighted_sum_rows_into),
    /// chosen as for [`PrimeField::horner_lanes`].
    fn weighted_sum_rows(
        weights: &[Gf<Self>],
        slab: &[Gf<Self>],
        lanes: usize,
        out: &mut [Gf<Self>],
    );

    /// Which lanes the two kernels above run on this CPU (`"portable"`,
    /// `"avx2"`), as [`packed::backend_name`](crate::packed::backend_name)
    /// reports it.
    fn lane_backend() -> &'static str;
}

/// Marker for the Mersenne prime field with p = 2³¹ − 1.
#[derive(Copy, Clone, Debug, Default, Eq, PartialEq)]
pub struct Mersenne31;

impl PrimeField for Mersenne31 {
    const MODULUS: u64 = (1 << 31) - 1;
    const NAME: &'static str = "M31";
    const ENCODED_LEN: usize = 4;

    #[inline]
    fn horner_lanes(coeffs: &[Gf31], lanes: usize, degree: usize, xs: &[Gf31], out: &mut [Gf31]) {
        match Avx2::detect() {
            Some(avx2) => avx2.horner_lanes(coeffs, lanes, degree, xs, out),
            None => crate::packed::horner_lanes_portable(coeffs, lanes, degree, xs, out),
        }
    }

    #[inline]
    fn weighted_sum_rows(weights: &[Gf31], slab: &[Gf31], lanes: usize, out: &mut [Gf31]) {
        match Avx2::detect() {
            Some(avx2) => avx2.weighted_sum_rows(weights, slab, lanes, out),
            None => crate::packed::weighted_sum_rows_portable(weights, slab, lanes, out),
        }
    }

    fn lane_backend() -> &'static str {
        if Avx2::detect().is_some() {
            "avx2"
        } else {
            "portable"
        }
    }

    #[inline]
    fn mul_reduced(a: u64, b: u64) -> u64 {
        const P: u64 = (1 << 31) - 1;
        // Both operands reduced (< 2^31): the product fits u64 exactly.
        let prod = a * b;
        // Two folds of 2^31 ≡ 1 (mod p): < 2^62 → < 2^32 → ≤ p + 1, then
        // a branchless conditional subtract (the wrapping `min` idiom).
        let fold1 = (prod & P) + (prod >> 31);
        let fold2 = (fold1 & P) + (fold1 >> 31);
        fold2.min(fold2.wrapping_sub(P))
    }

    #[inline]
    fn reduce(x: u128) -> u64 {
        // Fold using 2^31 ≡ 1 (mod p). Four folds bring any u128 below 2p:
        // 2^128 → <2^98 → <2^68 → <2^38 → <2^31 + 2^7.
        const P: u128 = (1 << 31) - 1;
        let x = (x & P) + (x >> 31);
        let x = (x & P) + (x >> 31);
        let x = (x & P) + (x >> 31);
        let x = (x & P) + (x >> 31);
        let x = x as u64;
        if x >= Self::MODULUS {
            x - Self::MODULUS
        } else {
            x
        }
    }

    #[inline]
    fn reduce64(x: u64) -> u64 {
        const P: u64 = (1 << 31) - 1;
        let x = (x & P) + (x >> 31);
        let x = (x & P) + (x >> 31);
        if x >= P {
            x - P
        } else {
            x
        }
    }
}

/// An element of the prime field GF(p) selected by the marker `P`.
///
/// The value is kept reduced (`0 <= value < P::MODULUS`) at all times, which
/// makes `Eq`/`Hash` structural. All ring operations are implemented via the
/// standard operator traits; division panics on a zero divisor (use
/// [`Gf::inverse`] for a checked variant).
///
/// # Example
///
/// ```
/// use ppda_field::Gf31;
/// let a = Gf31::new(5);
/// let b = Gf31::new(7);
/// assert_eq!((a * b) / b, a);
/// assert_eq!(a - a, Gf31::ZERO);
/// ```
// repr(transparent) lets the AVX2 lanes load/store slabs of elements
// directly as their u64 residues.
#[repr(transparent)]
pub struct Gf<P: PrimeField>(u64, PhantomData<P>);

/// Field element over [`Mersenne31`].
pub type Gf31 = Gf<Mersenne31>;

impl<P: PrimeField> Gf<P> {
    /// The additive identity.
    pub const ZERO: Self = Gf(0, PhantomData);
    /// The multiplicative identity.
    pub const ONE: Self = Gf(1, PhantomData);

    /// Construct an element from an integer, reducing mod p.
    #[inline]
    pub fn new(v: u64) -> Self {
        Gf(P::reduce64(v), PhantomData)
    }

    /// Wrap an already-reduced residue without the reduction pass (the
    /// portable lanes store residues they keep canonical).
    ///
    /// Callers must guarantee `v < P::MODULUS`.
    #[inline]
    pub(crate) fn new_unchecked(v: u64) -> Self {
        debug_assert!(v < P::MODULUS, "residue must be canonical");
        Gf(v, PhantomData)
    }

    /// The canonical representative in `[0, p)`.
    #[inline]
    pub fn value(self) -> u64 {
        self.0
    }

    /// The field modulus p.
    #[inline]
    pub fn modulus() -> u64 {
        P::MODULUS
    }

    /// `true` iff this is the additive identity.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Modular exponentiation by square-and-multiply.
    ///
    /// # Example
    ///
    /// ```
    /// use ppda_field::Gf31;
    /// assert_eq!(Gf31::new(2).pow(10), Gf31::new(1024));
    /// ```
    pub fn pow(self, mut exp: u64) -> Self {
        let mut base = self;
        let mut acc = Self::ONE;
        while exp > 0 {
            if exp & 1 == 1 {
                acc *= base;
            }
            base *= base;
            exp >>= 1;
        }
        acc
    }

    /// The multiplicative inverse, or `None` for zero.
    ///
    /// Uses Fermat's little theorem (`a^(p-2)`), which is branch-free and
    /// fast for the fixed Mersenne modulus used here.
    ///
    /// # Example
    ///
    /// ```
    /// use ppda_field::Gf31;
    /// let a = Gf31::new(12345);
    /// assert_eq!(a * a.inverse().unwrap(), Gf31::ONE);
    /// assert!(Gf31::ZERO.inverse().is_none());
    /// ```
    pub fn inverse(self) -> Option<Self> {
        if self.is_zero() {
            None
        } else {
            Some(self.pow(P::MODULUS - 2))
        }
    }

    /// Sample a uniformly random field element.
    ///
    /// Rejection sampling over the minimal bit width keeps the distribution
    /// exactly uniform (no modulo bias).
    pub fn random<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        let bits = 64 - (P::MODULUS - 1).leading_zeros();
        let mask = if bits == 64 {
            u64::MAX
        } else {
            (1u64 << bits) - 1
        };
        loop {
            let candidate = rng.next_u64() & mask;
            if candidate < P::MODULUS {
                return Gf(candidate, PhantomData);
            }
        }
    }

    /// Sample a uniformly random *non-zero* field element.
    pub fn random_nonzero<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        loop {
            let candidate = Self::random(rng);
            if !candidate.is_zero() {
                return candidate;
            }
        }
    }

    /// Encode into `P::ENCODED_LEN` little-endian bytes, without a heap
    /// allocation (the returned [`GfBytes`] derefs to the byte slice).
    pub fn to_bytes(self) -> GfBytes {
        GfBytes {
            buf: self.0.to_le_bytes(),
            len: P::ENCODED_LEN as u8,
        }
    }

    /// Write the `P::ENCODED_LEN`-byte little-endian encoding into `out`.
    ///
    /// The buffer-oriented twin of [`Gf::to_bytes`] for wire paths that
    /// serialize many elements into one frame.
    ///
    /// # Panics
    ///
    /// Panics if `out` is shorter than `P::ENCODED_LEN` bytes.
    #[inline]
    pub fn write_bytes(self, out: &mut [u8]) {
        out[..P::ENCODED_LEN].copy_from_slice(&self.0.to_le_bytes()[..P::ENCODED_LEN]);
    }

    /// Decode from little-endian bytes produced by [`Gf::to_bytes`].
    ///
    /// Returns `None` if `bytes` is shorter than `P::ENCODED_LEN` or decodes
    /// to a non-canonical (≥ p) value.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        if bytes.len() < P::ENCODED_LEN {
            return None;
        }
        let mut raw = [0u8; 8];
        raw[..P::ENCODED_LEN].copy_from_slice(&bytes[..P::ENCODED_LEN]);
        let v = u64::from_le_bytes(raw);
        if v >= P::MODULUS {
            None
        } else {
            Some(Gf(v, PhantomData))
        }
    }
}

/// The stack-allocated wire encoding of one [`Gf`] element: up to 8
/// little-endian bytes, of which the first `len` are significant.
///
/// Returned by [`Gf::to_bytes`]; derefs to `&[u8]` so existing slice-based
/// callers work unchanged, minus the per-element heap `Vec`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GfBytes {
    buf: [u8; 8],
    len: u8,
}

impl core::ops::Deref for GfBytes {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        &self.buf[..self.len as usize]
    }
}

impl AsRef<[u8]> for GfBytes {
    #[inline]
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl<P: PrimeField> Copy for Gf<P> {}
impl<P: PrimeField> Clone for Gf<P> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<P: PrimeField> Default for Gf<P> {
    fn default() -> Self {
        Self::ZERO
    }
}
impl<P: PrimeField> PartialEq for Gf<P> {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0
    }
}
impl<P: PrimeField> Eq for Gf<P> {}
impl<P: PrimeField> Hash for Gf<P> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.hash(state);
    }
}
impl<P: PrimeField> PartialOrd for Gf<P> {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<P: PrimeField> Ord for Gf<P> {
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        self.0.cmp(&other.0)
    }
}

impl<P: PrimeField> fmt::Debug for Gf<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({})", P::NAME, self.0)
    }
}

impl<P: PrimeField> fmt::Display for Gf<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.0, f)
    }
}

impl<P: PrimeField> From<u64> for Gf<P> {
    fn from(v: u64) -> Self {
        Self::new(v)
    }
}

impl<P: PrimeField> From<u32> for Gf<P> {
    fn from(v: u32) -> Self {
        Self::new(v as u64)
    }
}

impl<P: PrimeField> Add for Gf<P> {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        let sum = self.0 + rhs.0; // both < 2^62, no overflow
        Gf(
            if sum >= P::MODULUS {
                sum - P::MODULUS
            } else {
                sum
            },
            PhantomData,
        )
    }
}

impl<P: PrimeField> Sub for Gf<P> {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        let diff = self.0 + P::MODULUS - rhs.0;
        Gf(
            if diff >= P::MODULUS {
                diff - P::MODULUS
            } else {
                diff
            },
            PhantomData,
        )
    }
}

impl<P: PrimeField> Mul for Gf<P> {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        Gf(P::reduce(self.0 as u128 * rhs.0 as u128), PhantomData)
    }
}

impl<P: PrimeField> Div for Gf<P> {
    type Output = Self;
    /// # Panics
    ///
    /// Panics if `rhs` is zero; use [`Gf::inverse`] for a checked division.
    // Field division IS multiplication by the inverse.
    #[allow(clippy::suspicious_arithmetic_impl)]
    #[inline]
    fn div(self, rhs: Self) -> Self {
        self * rhs.inverse().expect("division by zero field element")
    }
}

impl<P: PrimeField> Neg for Gf<P> {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        if self.0 == 0 {
            self
        } else {
            Gf(P::MODULUS - self.0, PhantomData)
        }
    }
}

impl<P: PrimeField> AddAssign for Gf<P> {
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}
impl<P: PrimeField> SubAssign for Gf<P> {
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}
impl<P: PrimeField> MulAssign for Gf<P> {
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}
impl<P: PrimeField> DivAssign for Gf<P> {
    fn div_assign(&mut self, rhs: Self) {
        *self = *self / rhs;
    }
}

impl<P: PrimeField> Sum for Gf<P> {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ZERO, |acc, x| acc + x)
    }
}

impl<P: PrimeField> Product for Gf<P> {
    fn product<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ONE, |acc, x| acc * x)
    }
}

#[cfg(feature = "serde")]
impl<P: PrimeField> serde::Serialize for Gf<P> {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_u64(self.0)
    }
}

#[cfg(feature = "serde")]
impl<'de, P: PrimeField> serde::Deserialize<'de> for Gf<P> {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let v = u64::deserialize(deserializer)?;
        Ok(Self::new(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SplitMix64;

    #[test]
    fn constants() {
        assert_eq!(Gf31::ZERO.value(), 0);
        assert_eq!(Gf31::ONE.value(), 1);
        assert_eq!(Gf31::modulus(), 2147483647);
    }

    #[test]
    fn new_reduces() {
        assert_eq!(Gf31::new(Gf31::modulus()).value(), 0);
        assert_eq!(Gf31::new(Gf31::modulus() + 5).value(), 5);
        assert_eq!(Gf31::new(u64::MAX).value(), Mersenne31::reduce64(u64::MAX));
    }

    #[test]
    fn add_wraps() {
        let p = Gf31::modulus();
        assert_eq!((Gf31::new(p - 1) + Gf31::new(1)).value(), 0);
        assert_eq!((Gf31::new(p - 1) + Gf31::new(5)).value(), 4);
    }

    #[test]
    fn sub_wraps() {
        assert_eq!((Gf31::new(3) - Gf31::new(5)).value(), Gf31::modulus() - 2);
        assert_eq!(Gf31::new(7) - Gf31::new(7), Gf31::ZERO);
    }

    #[test]
    fn mul_matches_u128_reference() {
        let mut rng = SplitMix64::new(0xfee1);
        for _ in 0..2000 {
            let a = Gf31::random(&mut rng);
            let b = Gf31::random(&mut rng);
            let expect = (a.value() as u128 * b.value() as u128 % Gf31::modulus() as u128) as u64;
            assert_eq!((a * b).value(), expect);
        }
    }

    #[test]
    fn mul_reduced_matches_u128_reference() {
        let mut rng = SplitMix64::new(0xfee3);
        for _ in 0..2000 {
            let a = Gf31::random(&mut rng);
            let b = Gf31::random(&mut rng);
            let expect = (a.value() as u128 * b.value() as u128 % Gf31::modulus() as u128) as u64;
            assert_eq!(Mersenne31::mul_reduced(a.value(), b.value()), expect);
        }
        // Worst case: (p−1)².
        let p31 = Gf31::modulus();
        assert_eq!(
            Mersenne31::mul_reduced(p31 - 1, p31 - 1),
            ((p31 - 1) as u128 * (p31 - 1) as u128 % p31 as u128) as u64
        );
    }

    #[test]
    fn neg_is_additive_inverse() {
        let mut rng = SplitMix64::new(3);
        for _ in 0..100 {
            let a = Gf31::random(&mut rng);
            assert_eq!(a + (-a), Gf31::ZERO);
        }
        assert_eq!(-Gf31::ZERO, Gf31::ZERO);
    }

    #[test]
    fn inverse_round_trips() {
        let mut rng = SplitMix64::new(4);
        for _ in 0..200 {
            let a = Gf31::random_nonzero(&mut rng);
            assert_eq!(a * a.inverse().unwrap(), Gf31::ONE);
        }
    }

    #[test]
    fn inverse_of_zero_is_none() {
        assert!(Gf31::ZERO.inverse().is_none());
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        let _ = Gf31::ONE / Gf31::ZERO;
    }

    #[test]
    fn pow_edge_cases() {
        let a = Gf31::new(123456);
        assert_eq!(a.pow(0), Gf31::ONE);
        assert_eq!(a.pow(1), a);
        assert_eq!(a.pow(2), a * a);
        // Fermat: a^(p-1) = 1
        assert_eq!(a.pow(Gf31::modulus() - 1), Gf31::ONE);
    }

    #[test]
    fn random_is_in_range_and_varied() {
        let mut rng = SplitMix64::new(99);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            let a = Gf31::random(&mut rng);
            assert!(a.value() < Gf31::modulus());
            seen.insert(a.value());
        }
        assert!(seen.len() > 990, "uniform sampling should rarely collide");
    }

    #[test]
    fn byte_round_trip() {
        let mut rng = SplitMix64::new(5);
        for _ in 0..100 {
            let a = Gf31::random(&mut rng);
            assert_eq!(Gf31::from_bytes(&a.to_bytes()), Some(a));
        }
    }

    #[test]
    fn write_bytes_matches_to_bytes() {
        let mut rng = SplitMix64::new(6);
        for _ in 0..100 {
            let a = Gf31::random(&mut rng);
            let mut buf = [0xFFu8; 8];
            a.write_bytes(&mut buf);
            assert_eq!(&buf[..4], &*a.to_bytes());
            assert_eq!(buf[4..], [0xFF; 4], "only ENCODED_LEN bytes written");
        }
        assert_eq!(Gf31::new(7).to_bytes().len(), 4);
    }

    #[test]
    fn from_bytes_rejects_short_and_noncanonical() {
        assert_eq!(Gf31::from_bytes(&[1, 2]), None);
        // 2^31 - 1 = modulus itself is non-canonical
        let p = Gf31::modulus().to_le_bytes();
        assert_eq!(Gf31::from_bytes(&p[..4]), None);
    }

    #[test]
    fn sum_and_product_iterators() {
        let xs = [Gf31::new(1), Gf31::new(2), Gf31::new(3)];
        assert_eq!(xs.iter().copied().sum::<Gf31>(), Gf31::new(6));
        assert_eq!(xs.iter().copied().product::<Gf31>(), Gf31::new(6));
        let empty: [Gf31; 0] = [];
        assert_eq!(empty.iter().copied().sum::<Gf31>(), Gf31::ZERO);
        assert_eq!(empty.iter().copied().product::<Gf31>(), Gf31::ONE);
    }

    #[test]
    fn display_and_debug() {
        assert_eq!(format!("{}", Gf31::new(42)), "42");
        assert_eq!(format!("{:?}", Gf31::new(42)), "M31(42)");
    }

    #[test]
    fn reduce_full_u128_range() {
        // Worst-case inputs for the folding reducers.
        assert_eq!(
            Mersenne31::reduce(u128::MAX),
            (u128::MAX % ((1u128 << 31) - 1)) as u64
        );
        assert_eq!(Mersenne31::reduce(0), 0);
    }
}
