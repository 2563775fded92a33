//! Unit host costs of the layers below the gateway, each timed by
//! calling the layer's public functions directly at the workload's own
//! parameters (ORAM height and backend, state, bundle stream). Every
//! figure is the median of several repetitions.

use crate::workload::{Inputs, Spec, ORAM_HEIGHT};
use hardtape::{Bundle, HarDTape, SecurityConfig, ServiceConfig};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;
use tape_crypto::{keccak256, AesGcm, SecretKey, SecureRng};
use tape_mpt::SecureTrie;
use tape_node::{BlockFeed, Node};
use tape_oram::{BucketBackend, DiskStore, DiskStoreConfig, OramClient, OramConfig, OramServer};
use tape_primitives::{Address, B256};
use tape_sim::telemetry::{CounterId, PhaseKind, Telemetry, TelemetryEvent};
use tape_sim::{Clock, CostModel};
use tape_state::InMemoryState;

/// Unit costs; times in the unit their name gives.
#[derive(Debug, Clone, Copy, Default)]
pub struct UnitCosts {
    pub aes_gcm_seal_us: f64,
    pub aes_gcm_open_us: f64,
    pub ecdsa_sign_us: f64,
    pub ecdsa_verify_us: f64,
    pub keccak_1k_us: f64,
    pub telemetry_record_us: f64,
    pub oram_access_ms: f64,
    pub oram_disk_access_ms: f64,
    pub store_commit_ms: f64,
    /// Chain workloads: the first blocks replayed on a disk-backed twin
    /// device (the end-to-end run keeps its ORAM in memory).
    pub disk_fsyncs_per_block: f64,
    pub disk_sync_ms: f64,
    pub mpt_prove_us: f64,
    pub mpt_verify_us: f64,
    pub node_delta_ms: f64,
    pub analysis_contract_ms: f64,
    pub hevm_host_ms_per_bundle: f64,
}

pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Median over `reps` repetitions of the mean ns per call of `f`
/// across `iters` calls.
fn ns_per_call(reps: usize, iters: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let started = Instant::now();
            for i in 0..iters {
                f(i);
            }
            started.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&mut samples)
}

fn oram_config() -> OramConfig {
    OramConfig {
        block_size: 1024,
        bucket_capacity: 4,
        height: ORAM_HEIGHT,
    }
}

/// One ORAM read at the workload's height, on the disk store or in
/// memory, driven through `OramClient`/`OramServer` (on disk with a
/// commit per access, as the durable device does).
fn oram_access_ms(disk: bool, scratch: &Path) -> Result<f64, String> {
    let config = oram_config();
    let clock = Clock::new();
    let cost = CostModel::default();
    let mut server = if disk {
        let dir = scratch.join("oram-probe");
        let _ = std::fs::remove_dir_all(&dir);
        let (store, _) =
            DiskStore::open(DiskStoreConfig::new(&dir, [3; 32]), &config, &clock, None)
                .map_err(|e| format!("probe store open failed: {e}"))?;
        OramServer::with_backend(config.clone(), Box::new(store))
    } else {
        OramServer::new(config.clone())
    };
    let mut client = OramClient::new(config, &[5; 16], SecureRng::from_seed(b"perfbench oram"));
    let ids: Vec<B256> = (0..16u64).map(|i| keccak256(i.to_be_bytes())).collect();
    for (i, id) in ids.iter().enumerate() {
        client
            .write(&mut server, &clock, &cost, id, vec![i as u8; 1024])
            .map_err(|e| format!("probe ORAM write failed: {e}"))?;
    }
    let mut failed = None;
    let ns = ns_per_call(3, 12, |i| {
        if let Err(e) = client.read(&mut server, &clock, &cost, &ids[i % ids.len()]) {
            failed = Some(e);
        }
    });
    drop(server);
    if disk {
        let _ = std::fs::remove_dir_all(scratch.join("oram-probe"));
    }
    match failed {
        Some(e) => Err(format!("probe ORAM read failed: {e}")),
        None => Ok(ns / 1e6),
    }
}

/// One `DiskStore` transaction: a path's worth of bucket writes plus
/// the commit (journal append + fsync).
fn store_commit_ms(scratch: &Path) -> Result<f64, String> {
    let config = oram_config();
    let dir = scratch.join("store-probe");
    let _ = std::fs::remove_dir_all(&dir);
    let (mut store, _) = DiskStore::open(
        DiskStoreConfig::new(&dir, [9; 32]),
        &config,
        &Clock::new(),
        None,
    )
    .map_err(|e| format!("probe store open failed: {e}"))?;
    let slots: Vec<Vec<u8>> = (0..config.bucket_capacity)
        .map(|i| vec![i as u8; 1024 + 60])
        .collect();
    let mut failed = None;
    let ns = ns_per_call(3, 10, |i| {
        // The root-to-leaf path of leaf i: bucket indices of a heap.
        let mut bucket = (1u64 << config.height) - 1 + (i as u64 * 7919) % (1u64 << config.height);
        loop {
            if let Err(e) = store.write_bucket(bucket, &slots) {
                failed = Some(e);
            }
            if bucket == 0 {
                break;
            }
            bucket = (bucket - 1) / 2;
        }
        if let Err(e) = store.commit() {
            failed = Some(e);
        }
    });
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    match failed {
        Some(e) => Err(format!("probe store commit failed: {e}")),
        None => Ok(ns / 1e6),
    }
}

/// The first blocks of the workload's chain synced into a disk-backed
/// `-full` twin: fsyncs and host ms per block.
fn disk_sync(spec: &Spec, inputs: &Inputs, scratch: &Path) -> Result<(f64, f64), String> {
    let Some(chain) = spec.chain else {
        return Ok((0.0, 0.0));
    };
    const BLOCKS: usize = 3;
    let dir = scratch.join("disk-twin");
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServiceConfig {
        oram_height: ORAM_HEIGHT,
        store_dir: Some(dir.clone()),
        ..ServiceConfig::at_level(spec.security)
    };
    let mut device = HarDTape::new(config, inputs.set.env.clone(), &inputs.set.genesis)
        .map_err(|e| format!("disk twin failed to boot: {e}"))?;
    let mut feed = BlockFeed::new(Node::new(
        inputs.set.genesis.clone(),
        inputs.set.env.clone(),
    ));
    let telemetry = device.telemetry().clone();
    let fsyncs = telemetry.counter(CounterId::DiskFsyncs);
    let mut ns = 0.0;
    for block in inputs.chain.chunks(chain.txs).take(BLOCKS) {
        feed.node_mut().produce_block(block.to_vec());
        let started = Instant::now();
        device
            .sync_from_feed(&mut feed)
            .map_err(|e| format!("disk twin sync failed: {e}"))?;
        ns += started.elapsed().as_nanos() as f64;
        if device.head() != feed.node().head().map(|b| b.header.hash()) {
            return Err("disk twin head diverged from the node head".into());
        }
    }
    let per_block = (telemetry.counter(CounterId::DiskFsyncs) - fsyncs) as f64 / BLOCKS as f64;
    drop(device);
    let _ = std::fs::remove_dir_all(&dir);
    Ok((per_block, ns / BLOCKS as f64 / 1e6))
}

/// Builds the state trie exactly as the node does for its deltas.
fn state_trie(state: &InMemoryState) -> (SecureTrie, Vec<Address>) {
    let mut trie = SecureTrie::new();
    let mut addresses = Vec::new();
    for (address, account) in state.iter() {
        if !account.is_empty() || !account.storage.is_empty() {
            trie.insert(address.as_bytes(), &account.rlp_encode());
            addresses.push(*address);
        }
    }
    addresses.sort();
    (trie, addresses)
}

fn mpt_us(state: &InMemoryState) -> Result<(f64, f64), String> {
    let (trie, addresses) = state_trie(state);
    let root = trie.root_hash();
    let keys: Vec<Address> = addresses.into_iter().take(32).collect();
    let prove = ns_per_call(3, keys.len(), |i| {
        black_box(trie.prove(keys[i].as_bytes()));
    });
    let proofs: Vec<Vec<Vec<u8>>> = keys.iter().map(|k| trie.prove(k.as_bytes())).collect();
    let mut failed = false;
    let verify = ns_per_call(3, keys.len(), |i| {
        let hashed = keccak256(keys[i].as_bytes());
        failed |= !matches!(
            tape_mpt::verify_proof(root, hashed.as_bytes(), &proofs[i]),
            Ok(Some(_))
        );
    });
    if failed {
        return Err("probe MPT proof failed to verify".into());
    }
    Ok((prove / 1e3, verify / 1e3))
}

/// Delta build (state trie + a proof per touched account) for the head
/// block of `node`.
fn delta_ms(node: &Node) -> Result<f64, String> {
    if node.head().is_none() {
        return Err("delta probe needs a produced block".into());
    }
    Ok(ns_per_call(3, 1, |_| {
        black_box(node.head_state_delta());
    }) / 1e6)
}

/// Static analysis of every contract on a fresh device (memos empty).
fn analysis_ms(inputs: &Inputs) -> Result<f64, String> {
    let contracts: Vec<Address> = inputs
        .set
        .genesis
        .iter()
        .filter(|(_, account)| !account.code.is_empty())
        .map(|(address, _)| *address)
        .collect();
    let mut samples = Vec::new();
    for _ in 0..3 {
        let mut device = HarDTape::new(
            ServiceConfig::at_level(SecurityConfig::Raw),
            inputs.set.env.clone(),
            &inputs.set.genesis,
        )
        .map_err(|e| format!("analysis probe device failed to boot: {e}"))?;
        let started = Instant::now();
        for address in &contracts {
            black_box(device.analyze_code(address).is_some());
        }
        samples.push(started.elapsed().as_nanos() as f64 / contracts.len().max(1) as f64);
    }
    Ok(median(&mut samples) / 1e6)
}

/// The same bundle stream replayed on a `-raw` device: interpreter and
/// service pipeline with no cryptography and no ORAM.
fn hevm_ms(spec: &Spec, inputs: &Inputs, bundles: &[Bundle]) -> Result<f64, String> {
    let mut config = ServiceConfig::at_level(SecurityConfig::Raw);
    if let Some(bomb) = spec.bomb {
        config.hevm.gas_slice = Some(bomb.slice);
    }
    let mut device = HarDTape::new(config, inputs.set.env.clone(), &inputs.set.genesis)
        .map_err(|e| format!("-raw replay device failed to boot: {e}"))?;
    let mut user = device
        .connect_user(b"perfbench raw replay")
        .map_err(|e| format!("-raw replay attestation failed: {e}"))?;
    let sample = &bundles[..bundles.len().min(400)];
    let mut samples = Vec::new();
    for _ in 0..3 {
        let started = Instant::now();
        for bundle in sample {
            device
                .pre_execute(&mut user, bundle)
                .map_err(|e| format!("-raw replay failed: {e}"))?;
        }
        samples.push(started.elapsed().as_nanos() as f64 / sample.len().max(1) as f64);
    }
    Ok(median(&mut samples) / 1e6)
}

pub fn measure(
    spec: &Spec,
    inputs: &Inputs,
    node: Option<&Node>,
    bundles: &[Bundle],
    scratch: &Path,
) -> Result<UnitCosts, String> {
    let aes = AesGcm::new(&[7; 16]);
    let nonce = [1u8; 12];
    let plain = vec![0x5Au8; 1024];
    let sealed = aes.seal(&nonce, b"", &plain);
    let mut open_failed = false;
    let aes_open = ns_per_call(5, 60, |_| {
        open_failed |= aes.open(&nonce, b"", black_box(&sealed)).is_err();
    });
    if open_failed {
        return Err("probe AES-GCM open failed".into());
    }
    let key = SecretKey::from_seed(b"perfbench ecdsa");
    let public = key.public_key();
    let digest = keccak256(b"perfbench digest");
    let signature = key.sign(&digest);
    let mut verify_failed = false;
    let ecdsa_verify = ns_per_call(3, 4, |_| {
        verify_failed |= public.verify(black_box(&digest), &signature).is_err();
    });
    if verify_failed {
        return Err("probe ECDSA verify failed".into());
    }
    let telemetry = Telemetry::with_capacity(1 << 12);
    let record = ns_per_call(5, 4000, |i| {
        telemetry.record(TelemetryEvent::Phase {
            at: i as u64,
            phase: PhaseKind::Execute,
            ns: 1,
        });
    });
    // sync_mix measures the node it followed; the others a node over
    // their own genesis with one block of their own transactions.
    let scratch_node;
    let node = match node {
        Some(node) => node,
        None => {
            let mut fresh = Node::new(inputs.set.genesis.clone(), inputs.set.env.clone());
            fresh.produce_block(inputs.chain[..3].to_vec());
            scratch_node = fresh;
            &scratch_node
        }
    };
    let (mpt_prove_us, mpt_verify_us) = mpt_us(node.state())?;
    let (disk_fsyncs_per_block, disk_sync_ms) = disk_sync(spec, inputs, scratch)?;
    Ok(UnitCosts {
        aes_gcm_seal_us: ns_per_call(5, 60, |_| {
            black_box(aes.seal(&nonce, b"", black_box(&plain)));
        }) / 1e3,
        aes_gcm_open_us: aes_open / 1e3,
        ecdsa_sign_us: ns_per_call(3, 6, |_| {
            black_box(key.sign(black_box(&digest)));
        }) / 1e3,
        ecdsa_verify_us: ecdsa_verify / 1e3,
        keccak_1k_us: ns_per_call(5, 1000, |_| {
            black_box(keccak256(black_box(&plain)));
        }) / 1e3,
        telemetry_record_us: record / 1e3,
        oram_access_ms: oram_access_ms(false, scratch)?,
        oram_disk_access_ms: oram_access_ms(true, scratch)?,
        store_commit_ms: store_commit_ms(scratch)?,
        disk_fsyncs_per_block,
        disk_sync_ms,
        mpt_prove_us,
        mpt_verify_us,
        node_delta_ms: delta_ms(node)?,
        analysis_contract_ms: analysis_ms(inputs)?,
        hevm_host_ms_per_bundle: hevm_ms(spec, inputs, bundles)?,
    })
}
