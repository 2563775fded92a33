//! Precompiled contracts at addresses 0x1–0x9.
//!
//! Implemented: `ecrecover` (0x1), `sha256` (0x2), `identity` (0x4) —
//! the three that real-world transaction mixes exercise most. The others
//! ([`is_unimplemented`]) are refused at admission by the static
//! analyzer when a bundle names them as a callee; [`run`] still treats
//! them as empty accounts for calls whose target only appears at run
//! time (documented substitution in DESIGN.md).

use tape_crypto::{secp, sha256};
use tape_primitives::{Address, B256, U256};

/// Highest precompile address considered warm at transaction start.
pub const PRECOMPILE_COUNT: u64 = 9;

/// Returns `true` if `address` designates a precompiled contract.
pub fn is_precompile(address: &Address) -> bool {
    let word = address.into_word();
    !word.is_zero() && word <= U256::from(PRECOMPILE_COUNT)
}

/// Returns `true` for the precompile addresses this interpreter does not
/// implement (0x3 and 0x5–0x9): running them as empty accounts would
/// return a wrong answer, so admission rejects bundles that reach them.
pub fn is_unimplemented(address: &Address) -> bool {
    is_precompile(address) && !matches!(address.into_word().try_into_u64(), Some(1 | 2 | 4))
}

/// Output of a precompile run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrecompileOutput {
    /// Gas consumed.
    pub gas_used: u64,
    /// Returned bytes (empty on soft failure, e.g. bad ecrecover input).
    pub output: Vec<u8>,
    /// `false` only when the provided gas was insufficient.
    pub success: bool,
}

/// Executes the precompile at `address`.
///
/// Unimplemented precompile addresses ([`is_unimplemented`]) behave as
/// empty accounts: success, no output, no gas beyond the call itself.
pub fn run(address: &Address, input: &[u8], gas_limit: u64) -> PrecompileOutput {
    match address.into_word().try_into_u64() {
        Some(1) => ecrecover(input, gas_limit),
        Some(2) => sha256_precompile(input, gas_limit),
        Some(4) => identity(input, gas_limit),
        _ => PrecompileOutput { gas_used: 0, output: Vec::new(), success: true },
    }
}

fn out_of_gas() -> PrecompileOutput {
    PrecompileOutput { gas_used: 0, output: Vec::new(), success: false }
}

fn ecrecover(input: &[u8], gas_limit: u64) -> PrecompileOutput {
    const GAS: u64 = 3_000;
    if gas_limit < GAS {
        return out_of_gas();
    }
    // Input: 32-byte hash, 32-byte v (27/28), 32-byte r, 32-byte s —
    // right-padded with zeros.
    let mut buf = [0u8; 128];
    let take = input.len().min(128);
    buf[..take].copy_from_slice(&input[..take]);

    let digest = B256::from_slice(&buf[..32]);
    let v_word = U256::from_be_slice(&buf[32..64]);
    let r = U256::from_be_slice(&buf[64..96]);
    let s = U256::from_be_slice(&buf[96..128]);

    let empty = PrecompileOutput { gas_used: GAS, output: Vec::new(), success: true };
    let v = match v_word.try_into_u64() {
        Some(27) => 0u8,
        Some(28) => 1u8,
        _ => return empty,
    };
    let sig = secp::Signature { r, s, v };
    match secp::recover(&digest, &sig) {
        Ok(pk) => {
            let mut output = vec![0u8; 32];
            output[12..].copy_from_slice(pk.to_eth_address().as_bytes());
            PrecompileOutput { gas_used: GAS, output, success: true }
        }
        Err(_) => empty,
    }
}

fn sha256_precompile(input: &[u8], gas_limit: u64) -> PrecompileOutput {
    let gas = 60 + 12 * crate::gas::words(input.len());
    if gas_limit < gas {
        return out_of_gas();
    }
    PrecompileOutput {
        gas_used: gas,
        output: sha256(input).as_bytes().to_vec(),
        success: true,
    }
}

fn identity(input: &[u8], gas_limit: u64) -> PrecompileOutput {
    let gas = 15 + 3 * crate::gas::words(input.len());
    if gas_limit < gas {
        return out_of_gas();
    }
    PrecompileOutput { gas_used: gas, output: input.to_vec(), success: true }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tape_crypto::{keccak256, SecretKey};

    fn precompile_addr(n: u64) -> Address {
        Address::from_low_u64(n)
    }

    #[test]
    fn address_classification() {
        assert!(is_precompile(&precompile_addr(1)));
        assert!(is_precompile(&precompile_addr(9)));
        assert!(!is_precompile(&precompile_addr(0)));
        assert!(!is_precompile(&precompile_addr(10)));
        assert!(!is_precompile(&Address::from_low_u64(0xdead)));
    }

    #[test]
    fn unimplemented_set_is_three_and_five_to_nine() {
        let unimplemented: Vec<u64> =
            (0..12).filter(|&n| is_unimplemented(&precompile_addr(n))).collect();
        assert_eq!(unimplemented, vec![3, 5, 6, 7, 8, 9]);
    }

    #[test]
    fn identity_copies() {
        let out = run(&precompile_addr(4), b"hello", 1_000);
        assert!(out.success);
        assert_eq!(out.output, b"hello");
        assert_eq!(out.gas_used, 15 + 3);
        // Insufficient gas.
        assert!(!run(&precompile_addr(4), b"hello", 10).success);
    }

    #[test]
    fn sha256_matches_library() {
        let out = run(&precompile_addr(2), b"abc", 1_000);
        assert!(out.success);
        assert_eq!(out.output, sha256(b"abc").as_bytes());
        assert_eq!(out.gas_used, 72);
    }

    #[test]
    fn ecrecover_roundtrip() {
        let sk = SecretKey::from_seed(b"precompile test");
        let digest = keccak256(b"message");
        let sig = sk.sign(&digest);

        let mut input = Vec::with_capacity(128);
        input.extend_from_slice(digest.as_bytes());
        let mut v = [0u8; 32];
        v[31] = 27 + sig.v;
        input.extend_from_slice(&v);
        input.extend_from_slice(&sig.r.to_be_bytes());
        input.extend_from_slice(&sig.s.to_be_bytes());

        let out = run(&precompile_addr(1), &input, 10_000);
        assert!(out.success);
        let expected = sk.public_key().to_eth_address();
        assert_eq!(&out.output[12..], expected.as_bytes());
        assert_eq!(&out.output[..12], &[0u8; 12]);
    }

    #[test]
    fn ecrecover_bad_v_returns_empty() {
        let mut input = vec![0u8; 128];
        input[63] = 29; // invalid v
        let out = run(&precompile_addr(1), &input, 10_000);
        assert!(out.success);
        assert!(out.output.is_empty());
        assert_eq!(out.gas_used, 3_000);
    }

    #[test]
    fn ecrecover_short_input_padded() {
        let out = run(&precompile_addr(1), &[1, 2, 3], 10_000);
        assert!(out.success);
        assert!(out.output.is_empty());
    }

    #[test]
    fn unimplemented_precompiles_act_empty() {
        for n in [3u64, 5, 6, 7, 8, 9] {
            let out = run(&precompile_addr(n), b"data", 100);
            assert!(out.success);
            assert!(out.output.is_empty());
            assert_eq!(out.gas_used, 0);
        }
    }
}
