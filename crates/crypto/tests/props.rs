//! Property-based tests for the cryptographic substrates.

use tape_crypto::prop::check;
use tape_crypto::{keccak256, secp, AesGcm, Keccak256, SecretKey, SecureRng};
use tape_primitives::{B256, U256};

/// The byte-wise AES and bit-serial GHASH the table-driven kernel
/// replaced, kept as a differential oracle.
#[path = "../src/aes/oracle.rs"]
mod oracle;

const CASES: u32 = 32;

#[test]
fn keccak_incremental_matches_oneshot() {
    check("keccak_incremental_matches_oneshot", CASES, |g| {
        let data = g.bytes(0, 600);
        let split = g.index(600).min(data.len());
        let mut h = Keccak256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        assert_eq!(h.finalize(), keccak256(&data));
    });
}

#[test]
fn keccak_collision_resistance_smoke() {
    check("keccak_collision_resistance_smoke", CASES, |g| {
        let a = g.bytes(0, 128);
        let b = g.bytes(0, 128);
        if a != b {
            assert_ne!(keccak256(&a), keccak256(&b));
        }
    });
}

#[test]
fn gcm_roundtrip() {
    check("gcm_roundtrip", CASES, |g| {
        let key: [u8; 16] = g.array();
        let nonce: [u8; 12] = g.array();
        let aad = g.bytes(0, 64);
        let plaintext = g.bytes(0, 300);
        let gcm = AesGcm::new(&key);
        let sealed = gcm.seal(&nonce, &aad, &plaintext);
        assert_eq!(gcm.open(&nonce, &aad, &sealed).unwrap(), plaintext);
    });
}

#[test]
fn gcm_matches_reference_oracle() {
    // Random keys, nonces and AAD; every length 0..=2100 is reachable,
    // and each case also runs one length that is not a multiple of 16.
    check("gcm_matches_reference_oracle", 64, |g| {
        let key: [u8; 16] = g.array();
        let nonce: [u8; 12] = g.array();
        let aad = g.bytes(0, 80);
        let gcm = AesGcm::new(&key);
        let ragged = 16 * g.below(131) as usize + 1 + g.below(15) as usize;
        for len in [g.index(2101), ragged] {
            let plaintext = g.bytes(len, len + 1);
            let expected = oracle::seal(&key, &nonce, &aad, &plaintext);
            assert_eq!(gcm.seal(&nonce, &aad, &plaintext), expected, "seal, len {len}");
            assert_eq!(gcm.open(&nonce, &aad, &expected).unwrap(), plaintext, "open, len {len}");
        }
    });
}

#[test]
fn gcm_any_bitflip_detected() {
    check("gcm_any_bitflip_detected", CASES, |g| {
        let key: [u8; 16] = g.array();
        let nonce: [u8; 12] = g.array();
        let plaintext = g.bytes(1, 100);
        let gcm = AesGcm::new(&key);
        let mut sealed = gcm.seal(&nonce, b"", &plaintext);
        let idx = g.index(sealed.len());
        sealed[idx] ^= 1 << g.below(8);
        assert!(gcm.open(&nonce, b"", &sealed).is_err());
    });
}

#[test]
fn gcm_wrong_key_rejected() {
    check("gcm_wrong_key_rejected", CASES, |g| {
        let key: [u8; 16] = g.array();
        let nonce: [u8; 12] = g.array();
        let plaintext = g.bytes(0, 100);
        let gcm = AesGcm::new(&key);
        let mut other_key = key;
        other_key[0] ^= 1;
        let other = AesGcm::new(&other_key);
        let sealed = gcm.seal(&nonce, b"", &plaintext);
        assert!(other.open(&nonce, b"", &sealed).is_err());
    });
}

#[test]
fn ecdsa_sign_verify_recover() {
    check("ecdsa_sign_verify_recover", CASES, |g| {
        let seed: [u8; 16] = g.array();
        let msg = g.bytes(0, 128);
        let sk = SecretKey::from_seed(&seed);
        let pk = sk.public_key();
        let digest = keccak256(&msg);
        let sig = sk.sign(&digest);
        assert!(pk.verify(&digest, &sig).is_ok());
        assert_eq!(secp::recover(&digest, &sig).unwrap(), pk);
    });
}

#[test]
fn ecdsa_cross_key_rejection() {
    check("ecdsa_cross_key_rejection", CASES, |g| {
        let seed1: [u8; 8] = g.array();
        let seed2: [u8; 8] = g.array();
        if seed1 == seed2 {
            return;
        }
        let sk1 = SecretKey::from_seed(&seed1);
        let sk2 = SecretKey::from_seed(&seed2);
        let digest = keccak256(b"fixed message");
        let sig = sk1.sign(&digest);
        assert!(sk2.public_key().verify(&digest, &sig).is_err());
    });
}

#[test]
fn ecdh_symmetric() {
    check("ecdh_symmetric", CASES, |g| {
        let a = SecretKey::from_seed(&g.array::<8>());
        let b = SecretKey::from_seed(&g.array::<8>());
        assert_eq!(
            secp::ecdh(&a, &b.public_key()).unwrap(),
            secp::ecdh(&b, &a.public_key()).unwrap()
        );
    });
}

#[test]
fn scalar_mult_distributes() {
    check("scalar_mult_distributes", CASES, |g| {
        let (k1, k2) = (g.u64(), g.u64());
        // (k1 + k2)·G == k1·G + k2·G
        let gen = secp::Point::GENERATOR;
        let lhs = gen.mul(U256::from(k1).wrapping_add(U256::from(k2)));
        let rhs = gen.mul(U256::from(k1)).add(gen.mul(U256::from(k2)));
        assert_eq!(lhs, rhs);
    });
}

#[test]
fn rng_streams_disjoint() {
    check("rng_streams_disjoint", CASES, |g| {
        let seed: [u8; 8] = g.array();
        let mut rng = SecureRng::from_seed(&seed);
        let first: Vec<u64> = (0..16).map(|_| rng.next_u64()).collect();
        let second: Vec<u64> = (0..16).map(|_| rng.next_u64()).collect();
        assert_ne!(first, second);
    });
}

#[test]
fn sha256_deterministic() {
    check("sha256_deterministic", CASES, |g| {
        let data = g.bytes(0, 128);
        assert_eq!(tape_crypto::sha256(&data), tape_crypto::sha256(&data));
    });
}

#[test]
fn eth_address_known_vector() {
    // A key of 1 has the well-known generator public key; its Ethereum
    // address is a fixed constant used across many tools.
    let sk = SecretKey::from_scalar(U256::ONE).unwrap();
    let addr = sk.public_key().to_eth_address();
    assert_eq!(
        format!("{addr}"),
        "0x7e5f4552091a69125d5dfcb7b8c2659029395bdf"
    );
}

#[test]
fn b256_zero_hash_distinct_from_hash_of_zeroes() {
    assert_ne!(keccak256([0u8; 32]), B256::ZERO);
}
