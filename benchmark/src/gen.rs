//! Input generation: everything the engine sees is derived from `--seed`
//! here, so the same seed replays the same keys, values and op order.

/// splitmix64: one multiply-xorshift chain per draw, no state beyond a
/// counter — cheap enough (≈1 ns) to sit inside a 1 µs `get` loop.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for `lane` (thread, phase) of the same seed.
    pub fn fork(seed: u64, lane: u64) -> Rng {
        Rng(mix(seed ^ lane.wrapping_mul(0xA076_1D64_78BD_642F)))
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `0..n` (multiply-shift; the bias is below 2^-32 for the
    /// sizes used here).
    #[inline]
    pub fn below(&mut self, n: u32) -> u32 {
        (((self.next_u64() >> 32) * u64::from(n)) >> 32) as u32
    }

    /// Uniform in `[0, 1)`.
    #[cfg(feature = "product-full")]
    #[inline]
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u32 + 1) as usize);
        }
    }
}

#[inline]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Zipfian ranks over `0..n` (Gray et al., "Quickly generating
/// billion-record synthetic databases"), scattered over the key space by a
/// multiplicative permutation so the hot keys do not share leaves.
#[cfg(feature = "product-full")]
pub struct Zipf {
    n: u32,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    stride: u64,
}

#[cfg(feature = "product-full")]
impl Zipf {
    pub fn new(n: u32, theta: f64) -> Zipf {
        let zeta = |m: u32| (1..=m).map(|i| 1.0 / f64::from(i).powf(theta)).sum::<f64>();
        let zetan = zeta(n);
        let eta = (1.0 - (2.0 / f64::from(n)).powf(1.0 - theta)) / (1.0 - zeta(2) / zetan);
        // Any stride coprime to n permutes 0..n; search up from a
        // golden-ratio fraction of n.
        let mut stride = (f64::from(n) * 0.618_033_988_7) as u64 | 1;
        while gcd(stride, u64::from(n)) != 1 {
            stride += 2;
        }
        Zipf {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta,
            stride,
        }
    }

    #[inline]
    pub fn draw(&self, rng: &mut Rng) -> u32 {
        let u = rng.unit();
        let uz = u * self.zetan;
        let rank = if uz < 1.0 {
            0
        } else if uz < 1.0 + 0.5f64.powf(self.theta) {
            1
        } else {
            (f64::from(self.n) * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u32
        };
        ((u64::from(rank.min(self.n - 1)) * self.stride) % u64::from(self.n)) as u32
    }
}

#[cfg(feature = "product-full")]
fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Keys are 4 bytes big-endian, so byte order is numeric order.
#[inline]
pub fn key(k: u32) -> [u8; 4] {
    k.to_be_bytes()
}

pub const VALUE_LEN: usize = 32;
/// Bytes of user data one record carries (key + value).
pub const RECORD_BYTES: u64 = 4 + VALUE_LEN as u64;

/// The value of `key` at `version`: key, version, then 24 bytes derived
/// from both. A reader needs no model to validate it — see
/// [`check_value`] — so snapshot reads of concurrently updated keys
/// self-validate against torn or mixed-version bytes.
#[inline]
pub fn value(key: u32, version: u32) -> [u8; VALUE_LEN] {
    let mut v = [0u8; VALUE_LEN];
    v[..4].copy_from_slice(&key.to_be_bytes());
    v[4..8].copy_from_slice(&version.to_le_bytes());
    let mut s = (u64::from(key) << 32) | u64::from(version);
    for chunk in v[8..].chunks_exact_mut(8) {
        s = mix(s.wrapping_add(0x9E37_79B9_7F4A_7C15));
        chunk.copy_from_slice(&s.to_le_bytes());
    }
    v
}

/// `Some(version)` when `bytes` is exactly what [`value`] produces for
/// `key` at the version the bytes claim.
#[inline]
pub fn check_value(key: u32, bytes: &[u8]) -> Option<u32> {
    if bytes.len() != VALUE_LEN {
        return None;
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    (bytes == value(key, version)).then_some(version)
}

/// A bijection on `u32` (odd multiplier): `fresh_key(i)` never repeats, so
/// every write of a fresh-key workload inserts.
#[cfg(feature = "product-full")]
#[inline]
pub fn fresh_key(i: u32) -> u32 {
    i.wrapping_mul(2_654_435_761)
}
