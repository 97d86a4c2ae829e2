//! XTEA block cipher (Needham & Wheeler, 1997), implemented from scratch.
//!
//! 64-bit blocks, 128-bit key, 32 rounds (64 Feistel half-rounds). XTEA is
//! the classic microcontroller cipher: ~20 lines of code, no lookup tables,
//! no per-key precomputation — exactly the trade-off an embedded DBMS
//! product line wants from its optional Crypto feature.

const DELTA: u32 = 0x9E37_79B9;
const ROUNDS: u32 = 32;

/// An XTEA cipher instance holding a 128-bit key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Xtea {
    key: [u32; 4],
}

impl Xtea {
    /// Create a cipher from a 16-byte key (big-endian words, matching the
    /// reference implementation's test vectors).
    pub fn new(key: &[u8; 16]) -> Self {
        let mut k = [0u32; 4];
        for (i, chunk) in key.chunks_exact(4).enumerate() {
            k[i] = u32::from_be_bytes(chunk.try_into().expect("4-byte chunk"));
        }
        Xtea { key: k }
    }

    /// Encrypt one 64-bit block given as two 32-bit words.
    fn encrypt_block(&self, block: [u32; 2]) -> [u32; 2] {
        let [mut v0, mut v1] = block;
        let mut sum: u32 = 0;
        for _ in 0..ROUNDS {
            v0 = v0.wrapping_add(
                (((v1 << 4) ^ (v1 >> 5)).wrapping_add(v1))
                    ^ (sum.wrapping_add(self.key[(sum & 3) as usize])),
            );
            sum = sum.wrapping_add(DELTA);
            v1 = v1.wrapping_add(
                (((v0 << 4) ^ (v0 >> 5)).wrapping_add(v0))
                    ^ (sum.wrapping_add(self.key[((sum >> 11) & 3) as usize])),
            );
        }
        [v0, v1]
    }

    /// Decrypt one 64-bit block given as two 32-bit words.
    fn decrypt_block(&self, block: [u32; 2]) -> [u32; 2] {
        let [mut v0, mut v1] = block;
        let mut sum: u32 = DELTA.wrapping_mul(ROUNDS);
        for _ in 0..ROUNDS {
            v1 = v1.wrapping_sub(
                (((v0 << 4) ^ (v0 >> 5)).wrapping_add(v0))
                    ^ (sum.wrapping_add(self.key[((sum >> 11) & 3) as usize])),
            );
            sum = sum.wrapping_sub(DELTA);
            v0 = v0.wrapping_sub(
                (((v1 << 4) ^ (v1 >> 5)).wrapping_add(v1))
                    ^ (sum.wrapping_add(self.key[(sum & 3) as usize])),
            );
        }
        [v0, v1]
    }

    /// Encrypt an 8-byte block in place (big-endian word order).
    pub fn encrypt_bytes(&self, block: &mut [u8; 8]) {
        let v = [
            u32::from_be_bytes(block[0..4].try_into().unwrap()),
            u32::from_be_bytes(block[4..8].try_into().unwrap()),
        ];
        let c = self.encrypt_block(v);
        block[0..4].copy_from_slice(&c[0].to_be_bytes());
        block[4..8].copy_from_slice(&c[1].to_be_bytes());
    }

    /// Decrypt an 8-byte block in place (big-endian word order).
    pub fn decrypt_bytes(&self, block: &mut [u8; 8]) {
        let v = [
            u32::from_be_bytes(block[0..4].try_into().unwrap()),
            u32::from_be_bytes(block[4..8].try_into().unwrap()),
        ];
        let p = self.decrypt_block(v);
        block[0..4].copy_from_slice(&p[0].to_be_bytes());
        block[4..8].copy_from_slice(&p[1].to_be_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// XTEA test vectors (key, plaintext, ciphertext). The first is the
    /// widely quoted all-zeros vector; the second was computed with an
    /// independent implementation of the published reference code.
    const VECTORS: &[([u32; 4], [u32; 2], [u32; 2])] = &[
        (
            [0x0000_0000, 0x0000_0000, 0x0000_0000, 0x0000_0000],
            [0x0000_0000, 0x0000_0000],
            [0xDEE9_D4D8, 0xF713_1ED9],
        ),
        (
            [0x2712_86E8, 0xE8AD_382C, 0x5D8C_17D2, 0x4F9C_E57C],
            [0xF4BF_8A8B, 0x1D2C_F5F1],
            [0xA06D_5D86, 0xD785_ECC0],
        ),
    ];

    #[test]
    fn reference_vectors_encrypt() {
        for &(key, pt, ct) in VECTORS {
            let mut kb = [0u8; 16];
            for (i, w) in key.iter().enumerate() {
                kb[i * 4..i * 4 + 4].copy_from_slice(&w.to_be_bytes());
            }
            let cipher = Xtea::new(&kb);
            assert_eq!(cipher.encrypt_block(pt), ct);
            assert_eq!(cipher.decrypt_block(ct), pt);
        }
    }

    #[test]
    fn round_trip_many_blocks() {
        let cipher = Xtea::new(b"0123456789abcdef");
        for i in 0..1000u32 {
            let pt = [i, i.wrapping_mul(0x9E3779B9)];
            assert_eq!(cipher.decrypt_block(cipher.encrypt_block(pt)), pt);
        }
    }

    #[test]
    fn byte_interface_round_trip() {
        let cipher = Xtea::new(b"0123456789abcdef");
        let mut b = *b"\x01\x02\x03\x04\x05\x06\x07\x08";
        let orig = b;
        cipher.encrypt_bytes(&mut b);
        assert_ne!(b, orig);
        cipher.decrypt_bytes(&mut b);
        assert_eq!(b, orig);
    }

    #[test]
    fn different_keys_differ() {
        let a = Xtea::new(b"0123456789abcdef");
        let b = Xtea::new(b"0123456789abcdeg");
        let pt = [1, 2];
        assert_ne!(a.encrypt_block(pt), b.encrypt_block(pt));
    }

    #[test]
    fn avalanche_single_bit() {
        // Flipping one plaintext bit should change roughly half the output
        // bits; assert a loose bound (> 16 of 64).
        let cipher = Xtea::new(b"0123456789abcdef");
        let c1 = cipher.encrypt_block([0, 0]);
        let c2 = cipher.encrypt_block([1, 0]);
        let diff = (c1[0] ^ c2[0]).count_ones() + (c1[1] ^ c2[1]).count_ones();
        assert!(diff > 16, "weak diffusion: {diff} bits");
    }
}
