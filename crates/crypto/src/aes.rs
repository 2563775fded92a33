//! AES-128 block cipher and AES-GCM authenticated encryption.
//!
//! AES-GCM protects three data flows in HarDTAPE (paper §IV-C):
//! user messages over the secure channel, layer-3 swapped pages, and ORAM
//! *block* re-encryption. Only the encryption direction of the block
//! cipher is needed (GCM uses CTR mode both ways).
//!
//! The kernel is table-driven, in safe Rust: AES runs over four `u32`
//! column words with four 1 KiB T-tables (SubBytes, ShiftRows and
//! MixColumns fused into one lookup per byte), and GHASH uses Shoup's
//! 8-bit method — a per-key 256-entry `n·H` table plus one constant
//! reduction table, so a 16-byte block costs 16 lookups instead of 128
//! shift-xors. The tables are indexed by secret bytes, as any software
//! S-box is; they model the paper's hardware AES engine on the host, and
//! host cache timing is outside the threat model (DESIGN.md).

use core::fmt;

#[cfg(test)]
mod oracle;

const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

const fn xtime(b: u8) -> u8 {
    (b << 1) ^ (((b >> 7) & 1) * 0x1b)
}

/// `TE0[x]` is the MixColumns image of the column `(S[x], 0, 0, 0)`:
/// the big-endian word `2·S[x] ‖ S[x] ‖ S[x] ‖ 3·S[x]`. The other three
/// tables are its byte rotations, one per input row.
const fn t_table(rotation: u32) -> [u32; 256] {
    let mut t = [0u32; 256];
    let mut x = 0;
    while x < 256 {
        let s = SBOX[x];
        let word = u32::from_be_bytes([xtime(s), s, s, xtime(s) ^ s]);
        t[x] = word.rotate_right(rotation);
        x += 1;
    }
    t
}

const TE0: [u32; 256] = t_table(0);
const TE1: [u32; 256] = t_table(8);
const TE2: [u32; 256] = t_table(16);
const TE3: [u32; 256] = t_table(24);

/// Row `r` byte of a big-endian column word, as a table index. The
/// `as u8` bounds the index below 256, so the lookups carry no bounds
/// checks.
#[inline(always)]
fn row(word: u32, r: u32) -> usize {
    (word >> (24 - 8 * r)) as u8 as usize
}

/// AES-128 block cipher (encryption direction only).
#[derive(Clone)]
pub struct Aes128 {
    /// The 44 expanded key words, big-endian, four per round.
    round_keys: [u32; 44],
}

impl fmt::Debug for Aes128 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Aes128").field("key", &"<redacted>").finish()
    }
}

impl Aes128 {
    /// Expands a 128-bit key.
    pub fn new(key: &[u8; 16]) -> Self {
        let mut w = [0u32; 44];
        for (i, word) in key.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([word[0], word[1], word[2], word[3]]);
        }
        for i in 4..44 {
            let mut t = w[i - 1];
            if i % 4 == 0 {
                let sub = t.rotate_left(8).to_be_bytes().map(|b| SBOX[b as usize]);
                t = u32::from_be_bytes(sub) ^ (u32::from(RCON[i / 4 - 1]) << 24);
            }
            w[i] = w[i - 4] ^ t;
        }
        Aes128 { round_keys: w }
    }

    /// Encrypts one 16-byte block in place.
    pub fn encrypt_block(&self, block: &mut [u8; 16]) {
        let mut cols = [0u32; 4];
        for (c, word) in cols.iter_mut().zip(block.chunks_exact(4)) {
            *c = u32::from_be_bytes([word[0], word[1], word[2], word[3]]);
        }
        let out = self.encrypt_words(cols);
        for (word, c) in block.chunks_exact_mut(4).zip(out) {
            word.copy_from_slice(&c.to_be_bytes());
        }
    }

    /// Encrypts one block held as four big-endian column words.
    #[inline]
    fn encrypt_words(&self, block: [u32; 4]) -> [u32; 4] {
        let rk = &self.round_keys;
        let mut s = [block[0] ^ rk[0], block[1] ^ rk[1], block[2] ^ rk[2], block[3] ^ rk[3]];
        for round in 1..10 {
            // Output column c takes row r from column c + r (ShiftRows),
            // then MixColumns through the row-r table.
            let col = |c: usize| {
                TE0[row(s[c], 0)]
                    ^ TE1[row(s[(c + 1) % 4], 1)]
                    ^ TE2[row(s[(c + 2) % 4], 2)]
                    ^ TE3[row(s[(c + 3) % 4], 3)]
                    ^ rk[round * 4 + c]
            };
            s = [col(0), col(1), col(2), col(3)];
        }
        // Final round: SubBytes and ShiftRows only.
        let last = |c: usize| {
            u32::from_be_bytes([
                SBOX[row(s[c], 0)],
                SBOX[row(s[(c + 1) % 4], 1)],
                SBOX[row(s[(c + 2) % 4], 2)],
                SBOX[row(s[(c + 3) % 4], 3)],
            ]) ^ rk[40 + c]
        };
        [last(0), last(1), last(2), last(3)]
    }
}

// ---------------------------------------------------------------------------
// GCM
// ---------------------------------------------------------------------------

/// Error produced when AES-GCM authentication fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuthError;

impl fmt::Display for AuthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AES-GCM authentication failed")
    }
}

impl std::error::Error for AuthError {}

/// The GCM reduction polynomial `1 + x + x^2 + x^7` in GCM bit order
/// (bit 127 is the coefficient of `x^0`).
const R: u128 = 0xe1 << 120;

/// Multiplies by `x`: one right shift, reduced.
const fn mul_x(v: u128) -> u128 {
    (v >> 1) ^ if v & 1 == 1 { R } else { 0 }
}

/// `REDUCE[b]`, shifted to the top 16 bits, is what the low byte `b`
/// contributes when a field element is multiplied by `x^8` (shifted
/// right by 8): bit `j` of `b` wraps to `x^(7-j) · x^128`.
const REDUCE: [u16; 256] = {
    let mut t = [0u16; 256];
    let mut b = 0;
    while b < 256 {
        let mut r = 0u16;
        let mut j = 0;
        while j < 8 {
            if (b >> j) & 1 == 1 {
                r ^= 0xe100 >> (7 - j);
            }
            j += 1;
        }
        t[b] = r;
        b += 1;
    }
    t
};

/// Shoup's 8-bit GHASH key table: `table[n] = n·H`, where the byte `n`
/// is read as the first 8 coefficients (`n << 120` in GCM bit order).
#[derive(Clone)]
struct GhashKey {
    table: Box<[u128; 256]>,
}

impl GhashKey {
    /// Builds the table by doubling and XOR: 7 multiplies by `x` for the
    /// single-bit entries, then one XOR per remaining entry.
    fn new(h: u128) -> Self {
        let mut table = Box::new([0u128; 256]);
        table[0x80] = h;
        let mut bit = 0x40;
        while bit > 0 {
            table[bit] = mul_x(table[bit << 1]);
            bit >>= 1;
        }
        let mut high = 2;
        while high < 256 {
            for low in 1..high {
                table[high | low] = table[high] ^ table[low];
            }
            high <<= 1;
        }
        GhashKey { table }
    }

    /// `x · H`, Horner over the 16 bytes of `x` from the last (highest
    /// coefficients) to the first.
    #[inline]
    fn mul(&self, x: u128) -> u128 {
        let t = &self.table;
        let mut z = t[x as u8 as usize];
        for i in 1..16 {
            let carry = REDUCE[z as u8 as usize];
            z = (z >> 8) ^ (u128::from(carry) << 112) ^ t[(x >> (8 * i)) as u8 as usize];
        }
        z
    }

    /// Absorbs `data` zero-padded to whole blocks into the accumulator.
    fn absorb(&self, y: &mut u128, data: &[u8]) {
        let mut chunks = data.chunks_exact(16);
        for chunk in &mut chunks {
            let mut block = [0u8; 16];
            block.copy_from_slice(chunk);
            *y = self.mul(*y ^ u128::from_be_bytes(block));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut block = [0u8; 16];
            block[..rest.len()].copy_from_slice(rest);
            *y = self.mul(*y ^ u128::from_be_bytes(block));
        }
    }

    fn ghash(&self, aad: &[u8], ciphertext: &[u8]) -> u128 {
        let mut y = 0u128;
        self.absorb(&mut y, aad);
        self.absorb(&mut y, ciphertext);
        let lengths = ((aad.len() as u128 * 8) << 64) | (ciphertext.len() as u128 * 8);
        self.mul(y ^ lengths)
    }
}

/// Four big-endian column words as one big-endian block.
#[inline]
fn words_to_u128([a, b, c, d]: [u32; 4]) -> u128 {
    (u128::from(a) << 96) | (u128::from(b) << 64) | (u128::from(c) << 32) | u128::from(d)
}

/// AES-128-GCM authenticated encryption with a 96-bit nonce and 128-bit tag.
///
/// # Examples
///
/// ```
/// use tape_crypto::AesGcm;
///
/// let key = [7u8; 16];
/// let gcm = AesGcm::new(&key);
/// let sealed = gcm.seal(&[0u8; 12], b"header", b"secret page");
/// let opened = gcm.open(&[0u8; 12], b"header", &sealed)?;
/// assert_eq!(opened, b"secret page");
/// # Ok::<(), tape_crypto::AuthError>(())
/// ```
#[derive(Clone)]
pub struct AesGcm {
    cipher: Aes128,
    ghash: GhashKey,
}

impl fmt::Debug for AesGcm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AesGcm").field("key", &"<redacted>").finish()
    }
}

impl AesGcm {
    /// Creates a GCM instance from a 128-bit key.
    pub fn new(key: &[u8; 16]) -> Self {
        let cipher = Aes128::new(key);
        let h = words_to_u128(cipher.encrypt_words([0; 4]));
        AesGcm { cipher, ghash: GhashKey::new(h) }
    }

    /// The keystream block for `counter` under `nonce`, as a `u128`.
    #[inline]
    fn keystream(&self, nonce: &[u32; 3], counter: u32) -> u128 {
        words_to_u128(self.cipher.encrypt_words([nonce[0], nonce[1], nonce[2], counter]))
    }

    fn nonce_words(nonce: &[u8; 12]) -> [u32; 3] {
        let w = |i: usize| u32::from_be_bytes([nonce[i], nonce[i + 1], nonce[i + 2], nonce[i + 3]]);
        [w(0), w(4), w(8)]
    }

    /// CTR mode from counter 2 (counter 1 masks the tag).
    fn ctr_xor(&self, nonce: &[u32; 3], data: &mut [u8]) {
        let mut counter = 2u32;
        let mut chunks = data.chunks_exact_mut(16);
        for chunk in &mut chunks {
            let mut block = [0u8; 16];
            block.copy_from_slice(chunk);
            let out = u128::from_be_bytes(block) ^ self.keystream(nonce, counter);
            chunk.copy_from_slice(&out.to_be_bytes());
            counter = counter.wrapping_add(1);
        }
        let rest = chunks.into_remainder();
        if !rest.is_empty() {
            let ks = self.keystream(nonce, counter).to_be_bytes();
            for (b, k) in rest.iter_mut().zip(ks) {
                *b ^= k;
            }
        }
    }

    fn tag(&self, nonce: &[u32; 3], aad: &[u8], ciphertext: &[u8]) -> [u8; 16] {
        (self.ghash.ghash(aad, ciphertext) ^ self.keystream(nonce, 1)).to_be_bytes()
    }

    /// Encrypts `buf` in place and returns the detached 16-byte tag,
    /// authenticating `aad` as well. The ciphertext and tag are those
    /// of [`seal`](AesGcm::seal).
    ///
    /// Reusing a `(key, nonce)` pair destroys confidentiality; callers in
    /// this workspace derive nonces from monotonic counters.
    pub fn seal_detached(&self, nonce: &[u8; 12], aad: &[u8], buf: &mut [u8]) -> [u8; 16] {
        let nonce = Self::nonce_words(nonce);
        self.ctr_xor(&nonce, buf);
        self.tag(&nonce, aad, buf)
    }

    /// Encrypts the plaintext in `buf` in place and appends the tag, so
    /// `buf` ends as `ciphertext || tag`.
    pub fn seal_in_place(&self, nonce: &[u8; 12], aad: &[u8], buf: &mut Vec<u8>) {
        let tag = self.seal_detached(nonce, aad, buf);
        buf.extend_from_slice(&tag);
    }

    /// Encrypts `plaintext`, authenticating `aad` as well. Returns
    /// `ciphertext || 16-byte tag`.
    pub fn seal(&self, nonce: &[u8; 12], aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(plaintext.len() + 16);
        out.extend_from_slice(plaintext);
        self.seal_in_place(nonce, aad, &mut out);
        out
    }

    /// Verifies `ciphertext || tag` in `buf` (in constant time), then
    /// drops the tag and decrypts in place.
    ///
    /// # Errors
    ///
    /// Returns [`AuthError`] if the tag does not verify (wrong key, nonce,
    /// AAD, tampered or truncated input); `buf` is then left unchanged.
    pub fn open_in_place(
        &self,
        nonce: &[u8; 12],
        aad: &[u8],
        buf: &mut Vec<u8>,
    ) -> Result<(), AuthError> {
        let Some(body) = buf.len().checked_sub(16) else {
            return Err(AuthError);
        };
        let nonce = Self::nonce_words(nonce);
        let expected = self.tag(&nonce, aad, &buf[..body]);
        let mut diff = 0u8;
        for (a, b) in expected.iter().zip(&buf[body..]) {
            diff |= a ^ b;
        }
        if diff != 0 {
            return Err(AuthError);
        }
        buf.truncate(body);
        self.ctr_xor(&nonce, buf);
        Ok(())
    }

    /// Decrypts and verifies `ciphertext || tag` produced by [`seal`].
    ///
    /// # Errors
    ///
    /// Returns [`AuthError`] if the tag does not verify (wrong key, nonce,
    /// AAD, or tampered ciphertext).
    ///
    /// [`seal`]: AesGcm::seal
    pub fn open(
        &self,
        nonce: &[u8; 12],
        aad: &[u8],
        sealed: &[u8],
    ) -> Result<Vec<u8>, AuthError> {
        let mut out = sealed.to_vec();
        self.open_in_place(nonce, aad, &mut out)?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tape_primitives::hex;

    #[test]
    fn fips_197_vector() {
        // FIPS-197 Appendix C.1 (AES-128).
        let key: [u8; 16] = hex::decode("000102030405060708090a0b0c0d0e0f")
            .unwrap()
            .try_into()
            .unwrap();
        let mut block: [u8; 16] = hex::decode("00112233445566778899aabbccddeeff")
            .unwrap()
            .try_into()
            .unwrap();
        Aes128::new(&key).encrypt_block(&mut block);
        assert_eq!(hex::encode(block), "69c4e0d86a7b0430d8cdb78070b4c55a");
    }

    #[test]
    fn gcm_nist_test_case_1() {
        // NIST GCM test case 1: zero key, zero nonce, empty everything.
        let gcm = AesGcm::new(&[0u8; 16]);
        let sealed = gcm.seal(&[0u8; 12], b"", b"");
        assert_eq!(hex::encode(&sealed), "58e2fccefa7e3061367f1d57a4e7455a");
    }

    #[test]
    fn gcm_nist_test_case_2() {
        // NIST GCM test case 2: zero key/nonce, 16 zero bytes of plaintext.
        let gcm = AesGcm::new(&[0u8; 16]);
        let sealed = gcm.seal(&[0u8; 12], b"", &[0u8; 16]);
        assert_eq!(
            hex::encode(&sealed),
            "0388dace60b6a392f328c2b971b2fe78ab6e47d42cec13bdf53a67b21257bddf"
        );
    }

    #[test]
    fn fips_197_appendix_b_vector() {
        // FIPS-197 Appendix B: the worked cipher example.
        let key: [u8; 16] = hex::decode("2b7e151628aed2a6abf7158809cf4f3c")
            .unwrap()
            .try_into()
            .unwrap();
        let mut block: [u8; 16] = hex::decode("3243f6a8885a308d313198a2e0370734")
            .unwrap()
            .try_into()
            .unwrap();
        Aes128::new(&key).encrypt_block(&mut block);
        assert_eq!(hex::encode(block), "3925841d02dc09fbdc118597196a0b32");
    }

    #[test]
    fn gcm_nist_test_case_3() {
        // NIST GCM test case 3: 64 bytes of plaintext, no AAD.
        let key: [u8; 16] = hex::decode("feffe9928665731c6d6a8f9467308308")
            .unwrap()
            .try_into()
            .unwrap();
        let nonce: [u8; 12] = hex::decode("cafebabefacedbaddecaf888")
            .unwrap()
            .try_into()
            .unwrap();
        let plaintext = hex::decode(
            "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
             1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255",
        )
        .unwrap();
        let gcm = AesGcm::new(&key);
        let sealed = gcm.seal(&nonce, b"", &plaintext);
        let (ct, tag) = sealed.split_at(sealed.len() - 16);
        assert_eq!(
            hex::encode(ct),
            "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e\
             21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985"
        );
        assert_eq!(hex::encode(tag), "4d5c2af327cd64a62cf35abd2ba6fab4");
        assert_eq!(gcm.open(&nonce, b"", &sealed).unwrap(), plaintext);
    }

    #[test]
    fn ghash_table_entries_match_bit_serial_multiply() {
        for key in [[0u8; 16], [0x5a; 16], *b"table-check-key!"] {
            let gcm = AesGcm::new(&key);
            let h = gcm.ghash.table[0x80];
            let mut h_block = [0u8; 16];
            gcm.cipher.encrypt_block(&mut h_block);
            assert_eq!(h, u128::from_be_bytes(h_block), "table[0x80] is H");
            for n in 0..256u128 {
                assert_eq!(
                    gcm.ghash.table[n as usize],
                    oracle::ghash_mul(n << 120, h),
                    "table[{n:#04x}]"
                );
            }
            // One full multiply against the oracle, all bytes nonzero.
            let x = u128::from_be_bytes(*b"0123456789abcdef");
            assert_eq!(gcm.ghash.mul(x), oracle::ghash_mul(x, h));
        }
    }

    #[test]
    fn matches_oracle_across_block_boundaries() {
        let key = *b"differential-key";
        let gcm = AesGcm::new(&key);
        for len in [0usize, 1, 15, 16, 17, 63, 64, 65, 1065] {
            let plaintext: Vec<u8> = (0..len).map(|i| (i * 7 + 3) as u8).collect();
            let nonce = [len as u8; 12];
            let aad = &plaintext[..len.min(20)];
            let expected = oracle::seal(&key, &nonce, aad, &plaintext);
            assert_eq!(gcm.seal(&nonce, aad, &plaintext), expected, "len {len}");
        }
    }

    #[test]
    fn in_place_forms_match_allocating_forms() {
        let gcm = AesGcm::new(&[4u8; 16]);
        let nonce = [6u8; 12];
        let plaintext = b"nonce-prefixed slot payload".to_vec();
        let sealed = gcm.seal(&nonce, b"aad", &plaintext);

        let mut buf = plaintext.clone();
        gcm.seal_in_place(&nonce, b"aad", &mut buf);
        assert_eq!(buf, sealed);

        let mut detached = plaintext.clone();
        let tag = gcm.seal_detached(&nonce, b"aad", &mut detached);
        assert_eq!([&detached[..], &tag[..]].concat(), sealed);

        // A failed open leaves the buffer as it was.
        let mut bad = sealed.clone();
        bad[3] ^= 0x10;
        let before = bad.clone();
        assert_eq!(gcm.open_in_place(&nonce, b"aad", &mut bad), Err(AuthError));
        assert_eq!(bad, before);

        gcm.open_in_place(&nonce, b"aad", &mut buf).unwrap();
        assert_eq!(buf, plaintext);
    }

    #[test]
    fn gcm_nist_test_case_4_with_aad() {
        // NIST GCM test case 4 (AES-128, with AAD).
        let key: [u8; 16] = hex::decode("feffe9928665731c6d6a8f9467308308")
            .unwrap()
            .try_into()
            .unwrap();
        let nonce: [u8; 12] = hex::decode("cafebabefacedbaddecaf888")
            .unwrap()
            .try_into()
            .unwrap();
        let plaintext = hex::decode(
            "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
             1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39",
        )
        .unwrap();
        let aad = hex::decode("feedfacedeadbeeffeedfacedeadbeefabaddad2").unwrap();
        let gcm = AesGcm::new(&key);
        let sealed = gcm.seal(&nonce, &aad, &plaintext);
        let (ct, tag) = sealed.split_at(sealed.len() - 16);
        assert_eq!(
            hex::encode(ct),
            "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e\
             21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091"
        );
        assert_eq!(hex::encode(tag), "5bc94fbc3221a5db94fae95ae7121a47");
        assert_eq!(gcm.open(&nonce, &aad, &sealed).unwrap(), plaintext);
    }

    #[test]
    fn tamper_detection() {
        let gcm = AesGcm::new(&[9u8; 16]);
        let nonce = [1u8; 12];
        let mut sealed = gcm.seal(&nonce, b"aad", b"payload");
        // Flip one ciphertext bit.
        sealed[0] ^= 1;
        assert_eq!(gcm.open(&nonce, b"aad", &sealed), Err(AuthError));
        // Wrong AAD.
        sealed[0] ^= 1;
        assert_eq!(gcm.open(&nonce, b"bad", &sealed), Err(AuthError));
        // Wrong nonce.
        assert_eq!(gcm.open(&[2u8; 12], b"aad", &sealed), Err(AuthError));
        // Truncated input.
        assert_eq!(gcm.open(&nonce, b"aad", &sealed[..10]), Err(AuthError));
        // Correct parameters still open.
        assert_eq!(gcm.open(&nonce, b"aad", &sealed).unwrap(), b"payload");
    }

    #[test]
    fn roundtrip_various_lengths() {
        let gcm = AesGcm::new(&[3u8; 16]);
        for len in [0usize, 1, 15, 16, 17, 31, 32, 33, 1024, 1025] {
            let data: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let nonce = [len as u8; 12];
            let sealed = gcm.seal(&nonce, &[], &data);
            assert_eq!(sealed.len(), len + 16);
            assert_eq!(gcm.open(&nonce, &[], &sealed).unwrap(), data, "len={len}");
        }
    }

    #[test]
    fn different_nonces_give_different_ciphertexts() {
        let gcm = AesGcm::new(&[5u8; 16]);
        let a = gcm.seal(&[0u8; 12], b"", b"same plaintext");
        let b = gcm.seal(&[1u8; 12], b"", b"same plaintext");
        assert_ne!(a, b);
    }
}
