//! The three named workloads and the closed-loop load generator that runs them
//! through the public `Gateway` API, checking every output against a
//! fresh reference EVM on the same pre-state.

use crate::trace::Tracer;
use hardtape::{
    Bundle, BundleReport, Completion, Gateway, GatewayConfig, HarDTape, SecurityConfig,
    ServiceConfig,
};
use std::collections::HashMap;
use std::time::Instant;
use tape_evm::{Env, Evm, Transaction};
use tape_node::{BlockFeed, Node};
use tape_primitives::{Address, B256};
use tape_sim::telemetry::{PhaseKind, Registry, TelemetryEvent};
use tape_state::{InMemoryState, Log};
use tape_workload::{EvalSet, EvalSetConfig};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FullMix,
    EsTenants,
    SyncMix,
}

/// A gas-bomb tenant: bundles of one bomb of `gas`, executed in
/// `slice`-gas segments.
#[derive(Debug, Clone, Copy)]
pub struct Bomb {
    pub gas: u64,
    pub slice: u64,
}

/// Chain following: every `rounds` gateway rounds the node produces a
/// block of `txs` transactions and the gateway syncs it.
#[derive(Debug, Clone, Copy)]
pub struct Chain {
    pub rounds: u64,
    pub txs: usize,
}

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub security: SecurityConfig,
    pub honest: usize,
    pub bomb: Option<Bomb>,
    pub chain: Option<Chain>,
    /// Timed rounds per requested second. The timed phase is fixed
    /// work — `rounds_per_s × --seconds` closed-loop rounds, calibrated
    /// to take about `--seconds` on a 2-core host — so its virtual
    /// figures, counts, digests and memory repeat exactly for a seed
    /// whatever the host speed, and host times cover identical work.
    pub rounds_per_s: f64,
    /// Rounds after which the seed-sensitivity digest is taken.
    pub probe_rounds: u64,
}

impl Spec {
    /// Rounds in a timed phase of `seconds`.
    pub fn rounds(&self, seconds: f64) -> u64 {
        ((self.rounds_per_s * seconds).round() as u64).max(self.probe_rounds)
    }
}

/// Path ORAM tree height of every ORAM device and probe (as in the
/// pre-execution bench).
pub const ORAM_HEIGHT: u32 = 14;
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Users and tokens of the generated evaluation set (Table I mix).
const EVAL_USERS: usize = 16;
const EVAL_TOKENS: usize = 8;
/// Transactions generated per seed; tenants cycle through them.
const EVAL_BLOCKS: usize = 80;
const EVAL_TXS_PER_BLOCK: usize = 125;

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::FullMix, Workload::EsTenants, Workload::SyncMix];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(&self) -> &'static str {
        match self {
            Workload::FullMix => "full_mix",
            Workload::EsTenants => "es_tenants",
            Workload::SyncMix => "sync_mix",
        }
    }

    pub fn spec(&self) -> Spec {
        match self {
            Workload::FullMix => Spec {
                security: SecurityConfig::Full,
                honest: 4,
                bomb: None,
                chain: None,
                rounds_per_s: 8.0,
                probe_rounds: 4,
            },
            Workload::EsTenants => Spec {
                security: SecurityConfig::Es,
                honest: 8,
                bomb: Some(Bomb {
                    gas: 2_000_000,
                    slice: 200_000,
                }),
                chain: None,
                rounds_per_s: 32.0,
                probe_rounds: 12,
            },
            Workload::SyncMix => Spec {
                security: SecurityConfig::Full,
                honest: 2,
                bomb: None,
                chain: Some(Chain { rounds: 12, txs: 3 }),
                rounds_per_s: 8.0,
                probe_rounds: 4,
            },
        }
    }
}

/// Everything the program receives, generated from the seed alone.
pub struct Inputs {
    pub set: EvalSet,
    /// Bundle stream the honest tenants draw from, in submission order.
    pub stream: Vec<Transaction>,
    /// Transactions the node packs into blocks (sync_mix).
    pub chain: Vec<Transaction>,
    /// One transaction per contract, run during set-up.
    pub warmup: Vec<Transaction>,
}

/// Seed of the evaluation set whose sequence of transaction kinds every
/// run follows (see [`Inputs::generate`]).
const SCHEDULE_SEED: u64 = 0;

/// What a transaction does, as far as its cost goes: the contract it
/// calls (any token with the same selector counts as one kind) or a
/// plain transfer to a user.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Kind {
    Transfer,
    Token([u8; 4]),
    Contract(Address),
}

fn kind(set: &EvalSet, tx: &Transaction) -> Kind {
    let to = tx.to.unwrap_or_default();
    if set.users.contains(&to) {
        Kind::Transfer
    } else if set.tokens.contains(&to) {
        Kind::Token(
            tx.data
                .get(..4)
                .and_then(|s| s.try_into().ok())
                .unwrap_or_default(),
        )
    } else {
        Kind::Contract(to)
    }
}

fn eval_set(seed: u64) -> EvalSet {
    EvalSet::generate(&EvalSetConfig {
        blocks: EVAL_BLOCKS,
        txs_per_block: EVAL_TXS_PER_BLOCK,
        users: EVAL_USERS,
        tokens: EVAL_TOKENS,
        seed,
    })
}

/// The transactions of `set`, reordered so that the kinds come in the
/// order of `schedule`: slot `i` takes the next unused transaction of
/// `schedule[i]`'s kind (cycling within the kind when the seed drew
/// fewer of it). Slots whose kind the seed never drew are skipped.
fn follow_schedule(set: &EvalSet, schedule: &[Kind]) -> Vec<Transaction> {
    let mut by_kind: HashMap<Kind, (Vec<Transaction>, usize)> = HashMap::new();
    for tx in set.all_transactions() {
        by_kind.entry(kind(set, tx)).or_default().0.push(tx.clone());
    }
    schedule
        .iter()
        .filter_map(|k| {
            let (txs, next) = by_kind.get_mut(k)?;
            let tx = txs[*next % txs.len()].clone();
            *next += 1;
            Some(tx)
        })
        .collect()
}

impl Inputs {
    /// Generates the evaluation set of `seed` and orders its
    /// transactions by the kind sequence of the set of
    /// [`SCHEDULE_SEED`]. Every seed then runs the same mix of work in
    /// the same order — the same share of transfers, swaps, settlements
    /// and batches in every prefix of the stream and in every block —
    /// while the seed still draws every sender, recipient, token,
    /// amount and record count.
    pub fn generate(seed: u64) -> Inputs {
        let set = eval_set(seed);
        let reference = eval_set(SCHEDULE_SEED);
        let schedule: Vec<Kind> = reference
            .all_transactions()
            .map(|tx| kind(&reference, tx))
            .collect();
        let all = follow_schedule(&set, &schedule);
        // The last eighth feeds block production; the rest are bundles.
        let split = all.len() - all.len() / 8;
        let (stream, chain) = (all[..split].to_vec(), all[split..].to_vec());
        let mut contracts: Vec<Address> = set
            .genesis
            .iter()
            .filter(|(_, account)| !account.code.is_empty())
            .map(|(address, _)| *address)
            .collect();
        contracts.sort();
        let warmup = contracts
            .iter()
            .filter_map(|contract| {
                if *contract == set.gasbomb {
                    return Some(set.gas_bomb_tx(set.users[0], 100_000));
                }
                stream.iter().find(|tx| tx.to == Some(*contract)).cloned()
            })
            .collect();
        Inputs {
            set,
            stream,
            chain,
            warmup,
        }
    }

    fn bomb_tx(&self, bomb: &Bomb) -> Transaction {
        self.set.gas_bomb_tx(self.set.users[0], bomb.gas)
    }
}

/// What a transaction must return: the fields a user acts on.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Expect {
    success: bool,
    gas_used: u64,
    output: Vec<u8>,
    logs: Vec<Log>,
}

fn reference(env: &Env, state: &InMemoryState, bundle: &Bundle) -> Result<Vec<Expect>, String> {
    let mut evm = Evm::new(env.clone(), state);
    bundle
        .transactions
        .iter()
        .map(|tx| {
            evm.transact(tx)
                .map(|r| Expect {
                    success: r.success,
                    gas_used: r.gas_used,
                    output: r.output,
                    logs: r.logs,
                })
                .map_err(|e| format!("reference EVM refused a workload transaction: {e:?}"))
        })
        .collect()
}

struct Pending {
    ticket: u64,
    bundle: Bundle,
    submitted: Instant,
}

struct Tenant {
    session: u64,
    bomber: bool,
    pending: Option<Pending>,
}

/// Counts and host times gathered while a workload runs.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Submissions plus syncs.
    pub attempted: u64,
    /// Err completions, refused submissions and failed syncs.
    pub failed: u64,
    pub completed: u64,
    /// Host ns from submit to the return of the completing round,
    /// honest tenants only.
    pub host_latency_ns: Vec<u64>,
    /// Virtual admit→complete ns, honest tenants only.
    pub virt_latency_ns: Vec<u64>,
    /// Host ns inside submit, run_round and sync.
    pub busy_ns: u64,
    pub submit_ns: u64,
    pub submits: u64,
    pub round_ns: u64,
    pub rounds: u64,
    pub sync_ns: Vec<u64>,
    pub delta_accounts: u64,
    pub hevm_instructions: u64,
    pub hevm_swaps: u64,
    /// Every submitted bundle, in order (replayed on a `-raw` device).
    pub bundles: Vec<Bundle>,
}

/// A snapshot taken at a fixed round count: the deterministic figures.
#[derive(Debug, Clone)]
pub struct Snapshot {
    pub digest: String,
    pub tally: Tally,
    pub registry: Registry,
    /// Virtual ns per pre-execution phase, summed over the window.
    pub phase_ns: [u64; 5],
    pub events: u64,
}

pub struct Run {
    pub spec: Spec,
    pub gw: Gateway,
    pub feed: Option<BlockFeed>,
    tenants: Vec<Tenant>,
    env: Env,
    genesis: InMemoryState,
    next_tx: usize,
    next_chain: usize,
    /// Reference results by (chain height, bundle encoding hash).
    expected: HashMap<(usize, B256), Vec<Expect>>,
    admits: HashMap<u64, u64>,
    log_cursor: usize,
    /// Negative control: perturb the next expectation compared.
    corrupt_next: bool,
    pub checked: u64,
}

impl Run {
    /// Boots the device, the gateway and every tenant, then warms up by
    /// running one bundle per contract. Returns the run and its set-up
    /// host time in seconds.
    pub fn setup(
        spec: Spec,
        inputs: &Inputs,
        workers: usize,
        tracer: &mut Tracer,
        corrupt: bool,
    ) -> Result<(Run, f64), String> {
        let started = Instant::now();
        let setup_span = tracer.enter("setup");
        let mut config = ServiceConfig {
            oram_height: ORAM_HEIGHT,
            ..ServiceConfig::at_level(spec.security)
        };
        if let Some(bomb) = spec.bomb {
            config.hevm.gas_slice = Some(bomb.slice);
        }
        let span = tracer.enter("HarDTape::new");
        let device = HarDTape::new(config, inputs.set.env.clone(), &inputs.set.genesis)
            .map_err(|e| format!("device boot failed: {e}"))?;
        tracer.exit(span, 0);
        let gw = Gateway::new(
            device,
            GatewayConfig {
                workers,
                ..GatewayConfig::default()
            },
        );
        let feed = spec.chain.map(|_| {
            BlockFeed::new(Node::new(
                inputs.set.genesis.clone(),
                inputs.set.env.clone(),
            ))
        });
        let mut run = Run {
            spec,
            gw,
            feed,
            tenants: Vec::new(),
            env: inputs.set.env.clone(),
            genesis: inputs.set.genesis.clone(),
            next_tx: 0,
            next_chain: 0,
            expected: HashMap::new(),
            admits: HashMap::new(),
            log_cursor: 0,
            corrupt_next: corrupt,
            checked: 0,
        };
        let tenants = spec.honest + usize::from(spec.bomb.is_some());
        for i in 0..tenants {
            let span = tracer.enter("gateway.connect");
            let session = run
                .gw
                .connect(format!("perfbench tenant {i}").as_bytes())
                .map_err(|e| format!("attestation of tenant {i} failed: {e}"))?;
            tracer.exit(span, i as u64);
            run.tenants.push(Tenant {
                session,
                bomber: i >= spec.honest,
                pending: None,
            });
        }

        // Warm-up: every contract once, so analysis memos and state-plan
        // pins are filled before timing starts.
        let span = tracer.enter("warmup");
        let session = run.tenants[0].session;
        for tx in &inputs.warmup {
            let bundle = Bundle::single(tx.clone());
            let s = tracer.enter("gateway.submit");
            let ticket = run
                .gw
                .submit(session, bundle.clone())
                .map_err(|e| format!("warm-up bundle refused: {e}"))?;
            tracer.exit(s, ticket);
            let s = tracer.enter("gateway.run_until_idle");
            let completions = run.gw.run_until_idle();
            tracer.exit(s, ticket);
            for completion in completions {
                if completion.ticket != ticket {
                    return Err(format!(
                        "warm-up completion for unknown ticket {}",
                        completion.ticket
                    ));
                }
                let report = completion
                    .outcome
                    .map_err(|e| format!("warm-up bundle failed: {e}"))?;
                run.check(&bundle, &report, tracer)?;
            }
        }
        tracer.exit(span, inputs.warmup.len() as u64);
        run.scan_log(None);
        tracer.exit(setup_span, 0);
        Ok((run, started.elapsed().as_secs_f64()))
    }

    fn next_bundle(&mut self, inputs: &Inputs, bomber: bool) -> Bundle {
        if bomber {
            let bomb = self
                .spec
                .bomb
                .expect("bomber tenants exist only with a bomb spec");
            return Bundle::single(inputs.bomb_tx(&bomb));
        }
        let tx = inputs.stream[self.next_tx % inputs.stream.len()].clone();
        self.next_tx += 1;
        Bundle::single(tx)
    }

    fn height(&self) -> usize {
        self.feed.as_ref().map_or(0, |f| f.node().height())
    }

    /// Compares every transaction of `report` with the reference EVM on
    /// the pre-state the device executed against.
    fn check(
        &mut self,
        bundle: &Bundle,
        report: &BundleReport,
        tracer: &mut Tracer,
    ) -> Result<(), String> {
        let span = tracer.enter("check");
        let key = (self.height(), tape_crypto::keccak256(bundle.encode()));
        if !self.expected.contains_key(&key) {
            let state = self
                .feed
                .as_ref()
                .map_or(&self.genesis, |f| f.node().state());
            let expect = reference(&self.env, state, bundle)?;
            self.expected.insert(key, expect);
        }
        let mut expect = self.expected[&key].clone();
        if self.corrupt_next {
            self.corrupt_next = false;
            if let Some(first) = expect.first_mut() {
                first.gas_used += 1;
            }
        }
        let got: Vec<Expect> = report
            .results
            .iter()
            .map(|r| Expect {
                success: r.success,
                gas_used: r.gas_used,
                output: r.output.clone(),
                logs: r.logs.clone(),
            })
            .collect();
        tracer.exit(span, 0);
        self.checked += 1;
        if got != expect {
            let first = got
                .iter()
                .zip(&expect)
                .position(|(g, e)| g != e)
                .unwrap_or(0);
            return Err(format!(
                "output mismatch at height {} tx {first}: device {:?} vs reference {:?}",
                key.0,
                got.get(first)
                    .map(|g| (g.success, g.gas_used, g.output.len(), g.logs.len())),
                expect
                    .get(first)
                    .map(|e| (e.success, e.gas_used, e.output.len(), e.logs.len())),
            ));
        }
        Ok(())
    }

    /// Reads new gateway log lines: admit/complete pairs give virtual
    /// admit→complete latency for honest sessions.
    fn scan_log(&mut self, mut out: Option<&mut Vec<u64>>) {
        let Run {
            gw,
            admits,
            log_cursor,
            tenants,
            ..
        } = self;
        let lines = gw.log().lines();
        for line in &lines[*log_cursor..] {
            let mut parts = line.split_whitespace();
            let Some(at) = parts
                .next()
                .and_then(|p| p.strip_prefix("t="))
                .and_then(|v| v.parse::<u64>().ok())
            else {
                continue;
            };
            let verb = parts.next().unwrap_or("");
            let session = parts
                .next()
                .and_then(|p| p.strip_prefix("session="))
                .and_then(|v| v.parse::<u64>().ok());
            let ticket = parts
                .next()
                .and_then(|p| p.strip_prefix("ticket="))
                .and_then(|v| v.parse::<u64>().ok());
            match (verb, session, ticket) {
                ("admit", _, Some(ticket)) => {
                    admits.insert(ticket, at);
                }
                ("complete", Some(session), Some(ticket)) => {
                    let admitted = admits.remove(&ticket);
                    let honest = tenants.iter().any(|t| t.session == session && !t.bomber);
                    if let (Some(out), Some(admitted), true) =
                        (out.as_deref_mut(), admitted, honest)
                    {
                        out.push(at - admitted);
                    }
                }
                _ => {}
            }
        }
        *log_cursor = lines.len();
    }

    fn complete(
        &mut self,
        completion: Completion,
        done: Instant,
        tally: &mut Tally,
        tracer: &mut Tracer,
    ) -> Result<(), String> {
        let index = self
            .tenants
            .iter()
            .position(|t| t.session == completion.session)
            .ok_or_else(|| format!("completion for unknown session {}", completion.session))?;
        let pending = self.tenants[index]
            .pending
            .take()
            .ok_or_else(|| format!("second completion for session {}", completion.session))?;
        if pending.ticket != completion.ticket {
            return Err(format!(
                "completion ticket {} does not match outstanding ticket {}",
                completion.ticket, pending.ticket
            ));
        }
        tally.completed += 1;
        match completion.outcome {
            Ok(report) => {
                tally.hevm_instructions += report.hevm_stats.instructions;
                tally.hevm_swaps += report.hevm_stats.swaps;
                if !self.tenants[index].bomber {
                    let ns = done.duration_since(pending.submitted).as_nanos();
                    tally
                        .host_latency_ns
                        .push(u64::try_from(ns).unwrap_or(u64::MAX));
                }
                self.check(&pending.bundle, &report, tracer)
            }
            Err(err) => {
                tally.failed += 1;
                eprintln!("bundle {} failed: {err}", completion.ticket);
                Ok(())
            }
        }
    }

    /// One closed-loop round: every tenant without an outstanding
    /// bundle submits its next one, then the gateway runs one round.
    pub fn round(
        &mut self,
        inputs: &Inputs,
        tally: &mut Tally,
        tracer: &mut Tracer,
    ) -> Result<(), String> {
        for index in 0..self.tenants.len() {
            if self.tenants[index].pending.is_some() {
                continue;
            }
            let bundle = self.next_bundle(inputs, self.tenants[index].bomber);
            tally.bundles.push(bundle.clone());
            let session = self.tenants[index].session;
            let span = tracer.enter("gateway.submit");
            let submitted = Instant::now();
            let result = self.gw.submit(session, bundle.clone());
            let ns = elapsed_ns(submitted);
            tracer.exit(span, *result.as_ref().unwrap_or(&0));
            tally.busy_ns += ns;
            tally.submit_ns += ns;
            tally.submits += 1;
            tally.attempted += 1;
            match result {
                Ok(ticket) => {
                    self.tenants[index].pending = Some(Pending {
                        ticket,
                        bundle,
                        submitted,
                    });
                }
                Err(err) => {
                    tally.failed += 1;
                    eprintln!("submission refused: {err}");
                }
            }
        }
        let span = tracer.enter("gateway.run_round");
        let started = Instant::now();
        let completions = self.gw.run_round();
        let done = Instant::now();
        tracer.exit(span, tally.rounds);
        let ns = u64::try_from(done.duration_since(started).as_nanos()).unwrap_or(u64::MAX);
        tally.busy_ns += ns;
        tally.round_ns += ns;
        tally.rounds += 1;
        for completion in completions {
            self.complete(completion, done, tally, tracer)?;
        }
        self.scan_log(Some(&mut tally.virt_latency_ns));
        if let Some(chain) = self.spec.chain {
            if tally.rounds.is_multiple_of(chain.rounds) {
                self.follow_chain(inputs, chain, tally, tracer)?;
            }
        }
        Ok(())
    }

    /// The chain's step (untimed): the node produces a block. Then the
    /// service's step (timed): the gateway syncs it, and the device
    /// head must equal the node head.
    fn follow_chain(
        &mut self,
        inputs: &Inputs,
        chain: Chain,
        tally: &mut Tally,
        tracer: &mut Tracer,
    ) -> Result<(), String> {
        let txs: Vec<Transaction> = (0..chain.txs)
            .map(|i| inputs.chain[(self.next_chain + i) % inputs.chain.len()].clone())
            .collect();
        self.next_chain += chain.txs;
        let feed = self.feed.as_mut().expect("chain workloads own a feed");
        let number = feed.node_mut().produce_block(txs).header.number;
        tally.delta_accounts += feed.node().last_touched().len() as u64;
        let span = tracer.enter("gateway.sync");
        let started = Instant::now();
        let result = self.gw.sync(feed);
        let ns = elapsed_ns(started);
        tracer.exit(span, number);
        tally.busy_ns += ns;
        tally.sync_ns.push(ns);
        tally.attempted += 1;
        if let Err(err) = result {
            tally.failed += 1;
            eprintln!("sync of block {number} failed: {err}");
        }
        let node_head = feed.node().head().map(|b| b.header.hash());
        if self.gw.device().head() != node_head {
            return Err(format!(
                "device head diverged from node head after block {number}"
            ));
        }
        Ok(())
    }

    /// Completes every outstanding bundle (untimed) and checks it, so
    /// every admitted ticket resolves exactly once.
    pub fn drain(&mut self, tally: &mut Tally, tracer: &mut Tracer) -> Result<(), String> {
        let completions = self.gw.run_until_idle();
        let done = Instant::now();
        for completion in completions {
            self.complete(completion, done, tally, tracer)?;
        }
        if let Some(t) = self.tenants.iter().find(|t| t.pending.is_some()) {
            return Err(format!(
                "session {} still has an unresolved bundle",
                t.session
            ));
        }
        Ok(())
    }

    pub fn snapshot(&self, tally: &Tally, events_from: u64) -> Snapshot {
        let telemetry = self.gw.device().telemetry();
        let recorded = telemetry.recorded();
        let mut phase_ns = [0u64; 5];
        // The ring keeps the newest events; index them from the end.
        let events = telemetry.events();
        let window = usize::try_from(recorded.saturating_sub(events_from)).unwrap_or(usize::MAX);
        for event in &events[events.len().saturating_sub(window)..] {
            if let TelemetryEvent::Phase { phase, ns, .. } = event {
                let slot = match phase {
                    PhaseKind::Receive => 0,
                    PhaseKind::Decode => 1,
                    PhaseKind::Execute => 2,
                    PhaseKind::Sign => 3,
                    PhaseKind::Seal => 4,
                };
                phase_ns[slot] += ns;
            }
        }
        Snapshot {
            digest: format!("{}:{}", telemetry.digest(), self.gw.log().digest()),
            tally: Tally {
                bundles: Vec::new(),
                ..tally.clone()
            },
            registry: telemetry.registry(),
            phase_ns,
            events: recorded - events_from,
        }
    }
}

pub fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}
