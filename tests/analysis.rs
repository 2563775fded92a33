//! Tier-1 integration tests for the static-analysis admission gate:
//! bundles whose callees cannot satisfy the Layer-1/Layer-2 budgets are
//! rejected with a typed error *before* any HEVM cycle or ORAM query is
//! spent — at the service and at the multi-tenant gateway — as are
//! bundles that reach an unimplemented precompile, while admissible
//! bundles carry the analyzer's secret-dependency lints in their
//! reports.

use hardtape::{
    Bundle, Gateway, GatewayConfig, GatewayError, HarDTape, SecurityConfig, ServiceConfig,
    ServiceError,
};
use tape_analysis::AnalysisReject;
use tape_evm::opcode::op;
use tape_evm::{Env, Transaction};
use tape_primitives::{Address, U256};
use tape_sim::telemetry::CounterId;
use tape_state::{Account, InMemoryState, StateReader};
use tape_workload::contracts;

fn alice() -> Address {
    Address::from_low_u64(0xA11CE)
}

fn token() -> Address {
    Address::from_low_u64(0x70CE)
}

fn hog() -> Address {
    Address::from_low_u64(0x906)
}

/// Code whose statically derived worst-case stack exceeds the 32 KB
/// (1024-word) Layer-1 runtime stack: 1100 consecutive pushes.
fn stack_hog_code() -> Vec<u8> {
    let mut code = Vec::new();
    for _ in 0..1100 {
        code.push(op::PUSH1);
        code.push(0x01);
    }
    code.push(op::STOP);
    code
}

/// An infinite push loop: `JUMPDEST; PUSH1 1; PUSH1 0; JUMP` grows the
/// stack every iteration — no finite bound exists.
fn push_loop_code() -> Vec<u8> {
    vec![op::JUMPDEST, op::PUSH1, 0x01, op::PUSH1, 0x00, op::JUMP]
}

fn genesis(hog_code: Vec<u8>) -> InMemoryState {
    let mut state = InMemoryState::new();
    state.put_account(alice(), Account::with_balance(U256::from(u64::MAX)));
    let mut t = Account::with_code(contracts::erc20_runtime());
    t.storage.insert(contracts::balance_slot(&alice()), U256::from(1_000_000u64));
    state.put_account(token(), t);
    state.put_account(hog(), Account::with_code(hog_code));
    state
}

fn device(genesis: &InMemoryState) -> HarDTape {
    let config = ServiceConfig {
        oram_height: 10,
        ..ServiceConfig::at_level(SecurityConfig::Full)
    };
    HarDTape::new(config, Env::default(), genesis).expect("device boots")
}

fn hog_bundle() -> Bundle {
    Bundle::single(Transaction {
        gas_limit: 300_000,
        ..Transaction::call(alice(), hog(), vec![])
    })
}

#[test]
fn oversized_stack_is_rejected_at_admission() {
    let genesis = genesis(stack_hog_code());
    let mut dev = device(&genesis);
    let mut user = dev.connect_user(b"admission user").expect("attestation");
    let err = dev.pre_execute(&mut user, &hog_bundle()).expect_err("must reject");
    match err {
        ServiceError::AnalysisReject {
            address,
            reason: AnalysisReject::StackOverflow { bound_words, limit_words },
        } => {
            assert_eq!(address, hog());
            assert!(bound_words > limit_words, "{bound_words} vs {limit_words}");
        }
        other => panic!("expected a static stack-overflow reject, got {other}"),
    }
}

#[test]
fn unbounded_push_loop_is_rejected_at_admission() {
    let genesis = genesis(push_loop_code());
    let mut dev = device(&genesis);
    let mut user = dev.connect_user(b"admission user").expect("attestation");
    let err = dev.pre_execute(&mut user, &hog_bundle()).expect_err("must reject");
    assert!(
        matches!(
            err,
            ServiceError::AnalysisReject { reason: AnalysisReject::UnboundedStack { .. }, .. }
        ),
        "expected an unbounded-stack reject, got {err}"
    );
}

#[test]
fn gateway_rejects_before_spending_cycles() {
    let genesis = genesis(stack_hog_code());
    let mut gateway = Gateway::new(device(&genesis), GatewayConfig::default());
    let session = gateway.connect(b"tenant").expect("attestation");
    let err = gateway.submit(session, hog_bundle()).expect_err("must reject");
    assert!(
        matches!(err, GatewayError::Service(ServiceError::AnalysisReject { .. })),
        "expected the admission gate at the gateway, got {err}"
    );
}

#[test]
fn admissible_bundle_reports_dispatch_lints() {
    let genesis = genesis(stack_hog_code());
    let mut dev = device(&genesis);
    let mut user = dev.connect_user(b"lint user").expect("attestation");
    let bundle = Bundle::single(Transaction {
        gas_limit: 300_000,
        ..Transaction::call(
            alice(),
            token(),
            contracts::encode_call(
                contracts::sel::transfer(),
                &[Address::from_low_u64(0xB0B).into_word(), U256::from(250u64)],
            ),
        )
    });
    let report = dev.pre_execute(&mut user, &bundle).expect("admissible");
    assert!(report.results[0].success, "transfer must execute");
    assert!(
        report.lints.iter().any(|(addr, _)| *addr == token()),
        "CALLDATA-driven ERC-20 dispatch must surface lints"
    );
}

#[test]
fn admission_verdict_matches_direct_analysis() {
    // The service's gate and a standalone analyzer run agree — the
    // admission decision is a pure function of the callee bytecode.
    let genesis = genesis(stack_hog_code());
    let analysis = tape_analysis::analyze(&genesis.code(&hog()));
    assert!(analysis.max_stack > 1024, "hog must exceed the Layer-1 budget");
    let token_analysis = tape_analysis::analyze(&genesis.code(&token()));
    assert!(tape_analysis::Limits::default().admit(&token_analysis).is_ok());
    assert!(!token_analysis.lints.is_empty());
}

/// A contract that CALLs the (unimplemented) MODEXP precompile at 0x5
/// with a constant target.
fn modexp_caller_code() -> Vec<u8> {
    let mut code = Vec::new();
    for _ in 0..5 {
        code.extend_from_slice(&[op::PUSH1, 0x00]);
    }
    code.extend_from_slice(&[op::PUSH1, 0x05, op::GAS, op::CALL, op::STOP]);
    code
}

#[test]
fn constant_call_to_unimplemented_precompile_is_rejected() {
    let genesis = genesis(modexp_caller_code());
    let mut dev = device(&genesis);
    let mut user = dev.connect_user(b"precompile user").expect("attestation");
    let before = dev.telemetry().counter(CounterId::AnalysisRejects);
    let err = dev.pre_execute(&mut user, &hog_bundle()).expect_err("must reject");
    assert_eq!(
        err,
        ServiceError::AnalysisReject {
            address: hog(),
            reason: AnalysisReject::UnimplementedPrecompile { address: Address::from_low_u64(5) },
        }
    );
    assert_eq!(dev.telemetry().counter(CounterId::AnalysisRejects), before + 1);
}

#[test]
fn transaction_to_unimplemented_precompile_is_rejected() {
    let genesis = genesis(stack_hog_code());
    let mut dev = device(&genesis);
    let mut user = dev.connect_user(b"precompile user").expect("attestation");
    let ripemd = Address::from_low_u64(3);
    let bundle = Bundle::single(Transaction {
        gas_limit: 100_000,
        ..Transaction::call(alice(), ripemd, b"digest me".to_vec())
    });
    let before = dev.telemetry().counter(CounterId::AnalysisRejects);
    let err = dev.pre_execute(&mut user, &bundle).expect_err("must reject");
    assert_eq!(
        err,
        ServiceError::AnalysisReject {
            address: ripemd,
            reason: AnalysisReject::UnimplementedPrecompile { address: ripemd },
        }
    );
    assert_eq!(dev.telemetry().counter(CounterId::AnalysisRejects), before + 1);
}
