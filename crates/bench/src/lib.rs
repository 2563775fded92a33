//! # tape-bench
//!
//! The evaluation harness: shared plumbing for the binaries that
//! regenerate every table and figure of the paper (see DESIGN.md's
//! experiment index) and for the in-repo `micro` timing harness.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

use tape_evm::{FrameStart, Inspector, StateAccess, StepInfo};
use tape_sim::{Clock, CostModel};

/// An [`Inspector`] that charges the *Geth software baseline* cost model
/// to a virtual clock — the "Geth" series of Figures 4 and 5.
#[derive(Debug)]
pub struct GethTimer {
    clock: Clock,
    cost: CostModel,
}

impl GethTimer {
    /// Creates a timer charging `clock`.
    pub fn new(clock: Clock, cost: CostModel) -> Self {
        GethTimer { clock, cost }
    }

    /// The underlying clock.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// Adds the fixed per-transaction overhead (RPC handling, setup).
    pub fn charge_tx_overhead(&self) {
        self.clock.advance(self.cost.geth_tx_overhead_ns);
    }
}

impl Inspector for GethTimer {
    fn step(&mut self, step: &StepInfo<'_>) {
        self.clock.advance(self.cost.geth_instruction_ns(step.opcode));
    }

    fn call_start(&mut self, frame: &FrameStart) {
        // Geth allocates an interpreter + EVM object per contract frame;
        // plain value transfers skip it.
        if frame.code_len > 0 {
            self.clock.advance(self.cost.geth_frame_setup_ns);
        }
    }

    fn state_access(&mut self, access: &StateAccess) {
        match access {
            StateAccess::Account(_) | StateAccess::StorageRead(..) | StateAccess::Code(..) => {
                self.clock.advance(self.cost.geth_state_access_ns);
            }
            StateAccess::StorageWrite(..) => {}
        }
    }
}

/// Evaluation-set scale from the `TAPE_EVAL_SCALE` environment variable:
/// `full` (100×200, the paper's size), `medium` (20×50), anything else /
/// unset → `small` (8×25). All sizes use the same generator seed.
pub fn eval_config() -> tape_workload::EvalSetConfig {
    let scale = std::env::var("TAPE_EVAL_SCALE").unwrap_or_default();
    match scale.as_str() {
        "full" => tape_workload::EvalSetConfig::default(),
        "medium" => tape_workload::EvalSetConfig {
            blocks: 20,
            txs_per_block: 50,
            ..tape_workload::EvalSetConfig::default()
        },
        _ => tape_workload::EvalSetConfig {
            blocks: 8,
            txs_per_block: 25,
            ..tape_workload::EvalSetConfig::default()
        },
    }
}

/// Pretty-prints a virtual-nanosecond mean as milliseconds.
pub fn ms(ns: f64) -> String {
    format!("{:8.2} ms", ns / 1e6)
}

/// Ceil nearest-rank percentile of an ascending-sorted sample (0 when
/// empty): the value at rank ⌈p/100 · n⌉, clamped to `1..=n`.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Minimal JSON string escape (the only dynamic strings in the bench
/// reports are digests and violation messages).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Extracts a `"<key>": <number>` value from a previously written
/// report, by hand — the workspace is hermetic (no serde).
pub fn baseline_field(text: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = text.find(&needle)?;
    let rest = &text[at + needle.len()..];
    let end = rest
        .find(|c: char| c != ' ' && c != '.' && c != '-' && !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tape_evm::{Env, Evm, Transaction};
    use tape_primitives::{Address, U256};
    use tape_state::{Account, InMemoryState};

    #[test]
    fn geth_timer_charges_per_step() {
        let mut state = InMemoryState::new();
        let sender = Address::from_low_u64(1);
        state.put_account(sender, Account::with_balance(U256::from(u64::MAX)));
        let target = Address::from_low_u64(0xC0);
        state.put_account(
            target,
            Account::with_code(vec![0x60, 0x01, 0x60, 0x02, 0x01, 0x00]), // PUSH PUSH ADD STOP
        );
        let clock = Clock::new();
        let timer = GethTimer::new(clock.clone(), CostModel::default());
        let mut evm = Evm::with_inspector(Env::default(), &state, timer);
        evm.transact(&Transaction::call(sender, target, vec![])).unwrap();
        assert!(clock.now() > 0);
        assert!(clock.now() < 1_000_000); // far below a millisecond
    }

    #[test]
    fn scale_parsing_defaults_small() {
        let config = eval_config();
        assert!(config.blocks <= 100);
    }
}
