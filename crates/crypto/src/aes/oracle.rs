//! Reference AES-128-GCM for differential tests: the byte-wise cipher
//! (SubBytes / ShiftRows / MixColumns over a 16-byte state) and the
//! bit-serial GF(2^128) multiply. Slow and obviously correct; it shares
//! no table with the production kernel — even its S-box is derived from
//! the GF(2^8) inverse and the affine map instead of copied.
//!
//! Compiled only into test builds: the crate's unit tests use it as
//! `aes::oracle`, and `tests/props.rs` includes the same file by path.

fn gf_mul(mut a: u8, mut b: u8) -> u8 {
    let mut p = 0u8;
    while b != 0 {
        if b & 1 == 1 {
            p ^= a;
        }
        a = xtime(a);
        b >>= 1;
    }
    p
}

fn xtime(b: u8) -> u8 {
    (b << 1) ^ (((b >> 7) & 1) * 0x1b)
}

/// FIPS-197 §5.1.1: multiplicative inverse in GF(2^8) (0 ↦ 0, via
/// x^254), then the affine transformation.
fn sbox(x: u8) -> u8 {
    let mut inv = 1u8;
    for _ in 0..254 {
        inv = gf_mul(inv, x);
    }
    inv ^ inv.rotate_left(1) ^ inv.rotate_left(2) ^ inv.rotate_left(3) ^ inv.rotate_left(4) ^ 0x63
}

struct Aes128Ref {
    round_keys: [[u8; 16]; 11],
    sbox: [u8; 256],
}

impl Aes128Ref {
    fn new(key: &[u8; 16]) -> Self {
        let mut s = [0u8; 256];
        for (x, v) in s.iter_mut().enumerate() {
            *v = sbox(x as u8);
        }
        let mut w = [[0u8; 4]; 44];
        for i in 0..4 {
            w[i].copy_from_slice(&key[i * 4..i * 4 + 4]);
        }
        let mut rcon = 1u8;
        for i in 4..44 {
            let mut t = w[i - 1];
            if i % 4 == 0 {
                t.rotate_left(1);
                for b in &mut t {
                    *b = s[*b as usize];
                }
                t[0] ^= rcon;
                rcon = xtime(rcon);
            }
            for j in 0..4 {
                w[i][j] = w[i - 4][j] ^ t[j];
            }
        }
        let mut round_keys = [[0u8; 16]; 11];
        for (r, rk) in round_keys.iter_mut().enumerate() {
            for c in 0..4 {
                rk[c * 4..c * 4 + 4].copy_from_slice(&w[r * 4 + c]);
            }
        }
        Aes128Ref { round_keys, sbox: s }
    }

    /// State is column-major: byte (row, col) lives at `col*4 + row`.
    fn encrypt_block(&self, block: &mut [u8; 16]) {
        for round in 0..=10 {
            if round > 0 {
                for b in block.iter_mut() {
                    *b = self.sbox[*b as usize];
                }
                for row in 1..4 {
                    let old = *block;
                    for col in 0..4 {
                        block[col * 4 + row] = old[((col + row) % 4) * 4 + row];
                    }
                }
                if round < 10 {
                    for col in 0..4 {
                        let mut a = [0u8; 4];
                        a.copy_from_slice(&block[col * 4..col * 4 + 4]);
                        let t = a[0] ^ a[1] ^ a[2] ^ a[3];
                        for row in 0..4 {
                            block[col * 4 + row] = a[row] ^ t ^ xtime(a[row] ^ a[(row + 1) % 4]);
                        }
                    }
                }
            }
            for (b, k) in block.iter_mut().zip(self.round_keys[round].iter()) {
                *b ^= k;
            }
        }
    }
}

/// Multiplies two elements of GF(2^128) with the GCM bit order, one bit
/// of `x` at a time (NIST SP 800-38D, Algorithm 1).
pub fn ghash_mul(x: u128, y: u128) -> u128 {
    const R: u128 = 0xe1 << 120;
    let mut z = 0u128;
    let mut v = y;
    for i in 0..128 {
        if (x >> (127 - i)) & 1 == 1 {
            z ^= v;
        }
        let lsb = v & 1;
        v >>= 1;
        if lsb == 1 {
            v ^= R;
        }
    }
    z
}

/// Reference AES-128-GCM seal: `ciphertext || tag`, 96-bit nonce.
pub fn seal(key: &[u8; 16], nonce: &[u8; 12], aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
    let cipher = Aes128Ref::new(key);
    let counter_block = |counter: u32| {
        let mut block = [0u8; 16];
        block[..12].copy_from_slice(nonce);
        block[12..].copy_from_slice(&counter.to_be_bytes());
        cipher.encrypt_block(&mut block);
        block
    };
    let mut out = plaintext.to_vec();
    for (i, chunk) in out.chunks_mut(16).enumerate() {
        let ks = counter_block(2 + i as u32);
        for (b, k) in chunk.iter_mut().zip(ks.iter()) {
            *b ^= k;
        }
    }
    let mut h_block = [0u8; 16];
    cipher.encrypt_block(&mut h_block);
    let h = u128::from_be_bytes(h_block);
    let mut y = 0u128;
    for data in [aad, &out[..]] {
        for chunk in data.chunks(16) {
            let mut block = [0u8; 16];
            block[..chunk.len()].copy_from_slice(chunk);
            y = ghash_mul(y ^ u128::from_be_bytes(block), h);
        }
    }
    let lengths = ((aad.len() as u128 * 8) << 64) | (out.len() as u128 * 8);
    let s = ghash_mul(y ^ lengths, h);
    let tag = s ^ u128::from_be_bytes(counter_block(1));
    out.extend_from_slice(&tag.to_be_bytes());
    out
}
