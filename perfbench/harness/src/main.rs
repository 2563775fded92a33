//! Repository benchmark harness. Runs one named workload through the
//! public `Gateway`/`HarDTape` API from a single generator thread,
//! checks every output, and prints the metrics; the last stdout line is
//! one JSON object `{"correct", "attempted", "failed", "metrics"}`.
//!
//! ```text
//! perfbench --workload <full_mix|es_tenants|sync_mix> --seed <n>
//!           --seconds <s> --trace <0|1> [--out DIR] [--commit ID]
//!           [--source-digest HEX] [--negative-control]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics. `--trace 1` runs the same
//! seed twice (untraced, then with spans around every program call),
//! checks that both runs agree byte for byte, checks seed sensitivity
//! (and, on `es_tenants`, 1 worker vs all cores), times the lower
//! layers directly, and prints the per-layer metrics plus the ledger
//! and the tracing overhead. `--negative-control` corrupts one expected
//! result; the run must then fail.

mod layers;
mod stats;
mod sysinfo;
mod trace;
mod workload;

use layers::{median, UnitCosts};
use std::path::{Path, PathBuf};
use std::time::Instant;
use tape_oram::OramConfig;
use tape_sim::telemetry::audit::{audit_events, AuditConfig};
use tape_sim::telemetry::{CounterId, GaugeId, Registry};
use tape_sim::CostModel;
use trace::Tracer;
use workload::{Inputs, Run, Snapshot, Spec, Tally, Workload, ORAM_HEIGHT, SETUPS};

struct Opts {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    commit: String,
    source_digest: String,
    negative_control: bool,
}

fn parse_args() -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = PathBuf::from(".bench_build/perfbench");
    let mut commit = "unknown".to_string();
    let mut source_digest = "unknown".to_string();
    let mut negative_control = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--negative-control" {
            negative_control = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--out" => out = PathBuf::from(value),
            "--commit" => commit = value,
            "--source-digest" => source_digest = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Opts {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out,
        commit,
        source_digest,
        negative_control,
    })
}

/// Result of one timed phase.
struct Phase {
    tally: Tally,
    /// Snapshot after `spec.probe_rounds` rounds (seed and worker gates).
    probe: Snapshot,
    /// Snapshot at the end of the phase.
    end: Snapshot,
    start: Registry,
    wall_s: f64,
    cpu_s: f64,
    /// Peak resident memory right after the phase.
    rss_mb: f64,
}

/// Runs `rounds` closed-loop rounds, timing every call into the
/// program.
fn timed(
    run: &mut Run,
    inputs: &Inputs,
    tracer: &mut Tracer,
    rounds: u64,
) -> Result<Phase, String> {
    let telemetry = run.gw.device().telemetry().clone();
    let start = telemetry.registry();
    let events_from = telemetry.recorded();
    let cpu0 = sysinfo::process_cpu_s().unwrap_or(0.0);
    let started = Instant::now();
    let span = tracer.enter("timed");
    let mut tally = Tally::default();
    let mut probe = None;
    while tally.rounds < rounds {
        run.round(inputs, &mut tally, tracer)?;
        if tally.rounds == run.spec.probe_rounds {
            probe = Some(run.snapshot(&tally, events_from));
        }
    }
    tracer.exit(span, tally.rounds);
    let wall_s = started.elapsed().as_secs_f64();
    let cpu_s = sysinfo::process_cpu_s().unwrap_or(0.0) - cpu0;
    let rss_mb = sysinfo::peak_rss_mb().unwrap_or(0.0);
    let end = run.snapshot(&tally, events_from);
    let probe = probe.ok_or("phase ended before the probe snapshot")?;
    Ok(Phase {
        tally,
        probe,
        end,
        start,
        wall_s,
        cpu_s,
        rss_mb,
    })
}

fn audit(run: &Run) -> Result<&'static str, String> {
    if !run.spec.security.oram_storage() {
        return Ok("not applicable (no ORAM)");
    }
    // Burst threshold as in the pre-execution bench: just above the wire
    // cost of one query at this tree height.
    let cost = CostModel::default();
    let geometry = OramConfig {
        block_size: 1024,
        bucket_capacity: 4,
        height: ORAM_HEIGHT,
    };
    let query_ns = cost.oram_query_ns(geometry.blocks_per_access());
    let config = AuditConfig {
        burst_gap_ns: query_ns + query_ns * 15 / 100,
        ..AuditConfig::default()
    };
    let telemetry = run.gw.device().telemetry();
    let report = audit_events(&telemetry.events(), telemetry.dropped(), &config);
    if report.passed() {
        Ok("passed")
    } else {
        Err(format!(
            "§IV-D audit failed: {:?}",
            report.violations.iter().take(3).collect::<Vec<_>>()
        ))
    }
}

/// Percentile `p` (0–100) of `values`, as a Harrell–Davis estimate.
fn percentile(values: &[u64], p: f64) -> f64 {
    stats::quantile(values, p / 100.0)
}

/// p10, p20, …, p90, p95, p97.5, p99 and p99.5 in ms, as a JSON list
/// body.
fn deciles_ms(values: &[u64]) -> String {
    let mut points: Vec<f64> = (1..10).map(|d| f64::from(d) * 10.0).collect();
    points.extend([95.0, 97.5, 99.0, 99.5]);
    points
        .iter()
        .map(|&p| json_num(percentile(values, p) / 1e6))
        .collect::<Vec<_>>()
        .join(", ")
}

fn delta(end: &Registry, start: &Registry, id: CounterId) -> u64 {
    end.counter(id) - start.counter(id)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// One printed metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(x.name),
                json_num(x.value),
                json_str(x.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn env_json(opts: &Opts, spec: &Spec, workers: usize) -> String {
    let fields = [
        ("workload", json_str(opts.workload.name())),
        ("seed", opts.seed.to_string()),
        ("seconds", json_num(opts.seconds)),
        ("trace", opts.trace.to_string()),
        ("available_parallelism", sysinfo::parallelism().to_string()),
        ("cpu_model", json_str(&sysinfo::cpu_model())),
        ("commit", json_str(&opts.commit)),
        ("source_digest", json_str(&opts.source_digest)),
        ("security", json_str(spec.security.label())),
        (
            "oram_height",
            if spec.security.oram_storage() {
                ORAM_HEIGHT.to_string()
            } else {
                "null".into()
            },
        ),
        (
            "oram_backend",
            json_str(if spec.security.oram_storage() {
                "memory"
            } else {
                "none"
            }),
        ),
        ("workers", workers.to_string()),
        ("tenants_honest", spec.honest.to_string()),
        ("tenants_bomb", usize::from(spec.bomb.is_some()).to_string()),
        ("timed_rounds", spec.rounds(opts.seconds).to_string()),
        ("setups", SETUPS.to_string()),
    ];
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn scratch_dir(opts: &Opts, tag: &str) -> PathBuf {
    opts.out.join("scratch").join(format!(
        "{}-{}-{}-{tag}",
        opts.workload.name(),
        opts.seed,
        std::process::id()
    ))
}

fn print_table(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for x in metrics {
        println!("  {:<34} {:>16.6} {}", x.name, x.value, x.unit);
    }
}

fn write_artifact(opts: &Opts, env: &str, extra: &str, metrics: &[Metric]) {
    let path = opts.out.join(format!(
        "{}-seed{}-trace{}.json",
        opts.workload.name(),
        opts.seed,
        u8::from(opts.trace)
    ));
    let text = format!(
        "{{\"env\": {env}, {extra}, \"metrics\": {}}}\n",
        metrics_json(metrics)
    );
    if let Err(e) = std::fs::write(&path, text) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

fn final_line(tally: &Tally, metrics: &[Metric]) {
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.attempted,
        tally.failed,
        metrics_json(metrics)
    );
}

/// Set-up `SETUPS` times (dropping all but the last) and return
/// the last run with every set-up time.
fn setups(
    opts: &Opts,
    spec: Spec,
    inputs: &Inputs,
    workers: usize,
    tracer: &mut Tracer,
) -> Result<(Run, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut last = None;
    for i in 0..SETUPS {
        drop(last.take());
        let (run, secs) = Run::setup(
            spec,
            inputs,
            workers,
            tracer,
            opts.negative_control && i == 0,
        )?;
        times.push(secs);
        last = Some(run);
    }
    Ok((last.ok_or("no set-up ran")?, times))
}

fn end_to_end(opts: &Opts, spec: Spec, inputs: &Inputs, env: &str) -> Result<(), String> {
    let workers = sysinfo::parallelism();
    let mut tracer = Tracer::new(false);
    let (mut run, setup_times) = setups(opts, spec, inputs, workers, &mut tracer)?;
    let phase = timed(&mut run, inputs, &mut tracer, spec.rounds(opts.seconds))?;
    let mut drained = Tally::default();
    run.drain(&mut drained, &mut tracer)?;
    let audit = audit(&run)?;
    let mut tally = phase.tally.clone();
    tally.failed += drained.failed;
    let mut setup_sorted = setup_times.clone();
    let virt = &tally.virt_latency_ns;
    let metrics = vec![
        m(
            "bundles_per_s",
            ratio(tally.completed as f64, tally.busy_ns as f64 / 1e9),
            "1/s",
        ),
        m(
            "host_p50_ms",
            percentile(&tally.host_latency_ns, 50.0) / 1e6,
            "ms",
        ),
        m(
            "host_p90_ms",
            percentile(&tally.host_latency_ns, 90.0) / 1e6,
            "ms",
        ),
        m("virt_p50_ms", percentile(virt, 50.0) / 1e6, "ms"),
        m("virt_p90_ms", percentile(virt, 90.0) / 1e6, "ms"),
        m("setup_s", median(&mut setup_sorted), "s"),
        m("peak_rss_mb", phase.rss_mb, "MB"),
    ];
    let sync_p50 = percentile(&tally.sync_ns, 50.0) / 1e6;
    let error_rate = ratio(tally.failed as f64, tally.attempted as f64);
    println!("env {env}");
    println!(
        "samples: host and virtual latency n={} (honest bundles in {} rounds, {:.2} s timed), \
         setups n={}, syncs n={}",
        tally.host_latency_ns.len(),
        tally.rounds,
        phase.wall_s,
        setup_times.len(),
        tally.sync_ns.len(),
    );
    print_table(
        &format!("end-to-end ({}, seed {})", opts.workload.name(), opts.seed),
        &metrics,
    );
    if spec.chain.is_some() {
        println!(
            "  {:<34} {:>16.6} ms  (p50 host time per Gateway::sync)",
            "sync_p50_ms", sync_p50
        );
    } else {
        println!(
            "  {:<34} {:>16} ms  (no chain following on this workload)",
            "sync_p50_ms", "n/a"
        );
    }
    println!(
        "  {:<34} {:>16.6} fraction  ({} failed of {} attempted)",
        "error_rate", error_rate, tally.failed, tally.attempted
    );
    for (name, values, p) in [
        ("host_p95_ms", &tally.host_latency_ns, 95.0),
        ("virt_p95_ms", virt, 95.0),
        ("host_p99_ms", &tally.host_latency_ns, 99.0),
        ("virt_p99_ms", virt, 99.0),
    ] {
        println!(
            "  {:<34} {:>16.6} ms  (not gated: on es_tenants it sits on the gas-slice staircase)",
            name,
            percentile(values, p) / 1e6
        );
    }
    println!(
        "checks: {} outputs matched the reference EVM, audit {audit}, digest {}",
        run.checked, phase.end.digest
    );
    let extra = format!(
        "\"setup_s_samples\": [{}], \"digest\": {}, \"host_latency_samples\": {}, \
         \"virt_latency_samples\": {}, \"host_deciles_ms\": [{}], \"virt_deciles_ms\": [{}], \
         \"sync_p50_ms\": {}, \"error_rate\": {}, \"audit\": {}",
        setup_times
            .iter()
            .map(|s| json_num(*s))
            .collect::<Vec<_>>()
            .join(", "),
        json_str(&phase.end.digest),
        tally.host_latency_ns.len(),
        virt.len(),
        deciles_ms(&tally.host_latency_ns),
        deciles_ms(virt),
        json_num(sync_p50),
        json_num(error_rate),
        json_str(audit),
    );
    write_artifact(opts, env, &extra, &metrics);
    final_line(&tally, &metrics);
    Ok(())
}

/// Σ(unit cost × count) over the timed phase, in ms.
fn ledger(spec: &Spec, phase: &Phase, costs: &UnitCosts) -> Vec<(&'static str, f64)> {
    let (s, e) = (&phase.start, &phase.end.registry);
    let bundles = phase.tally.completed as f64;
    let queries = (delta(e, s, CounterId::OramKv)
        + delta(e, s, CounterId::OramCode)
        + delta(e, s, CounterId::OramPrefetch)
        + delta(e, s, CounterId::OramSync)) as f64;
    let blocks = phase.tally.sync_ns.len() as f64;
    let mut rows = vec![("oram accesses", queries * costs.oram_access_ms)];
    if spec.security.signature() {
        rows.push((
            "ecdsa verify+sign",
            bundles * (costs.ecdsa_sign_us + costs.ecdsa_verify_us) / 1e3,
        ));
    }
    if spec.security.encryption() {
        rows.push((
            "aes-gcm open+seal",
            bundles * (costs.aes_gcm_open_us + costs.aes_gcm_seal_us) / 1e3,
        ));
    }
    rows.push(("-raw pipeline", bundles * costs.hevm_host_ms_per_bundle));
    rows.push((
        "telemetry records",
        phase.end.events as f64 * costs.telemetry_record_us / 1e3,
    ));
    if blocks > 0.0 {
        rows.push(("node delta build", blocks * costs.node_delta_ms));
        rows.push((
            "mpt verify",
            phase.tally.delta_accounts as f64 * costs.mpt_verify_us / 1e3,
        ));
    }
    rows
}

fn per_layer(opts: &Opts, spec: Spec, inputs: &Inputs, env: &str) -> Result<(), String> {
    let workers = sysinfo::parallelism();
    // A: the untraced reference run of this seed.
    let mut off = Tracer::new(false);
    let (mut a, _) = Run::setup(spec, inputs, workers, &mut off, opts.negative_control)?;
    let rounds = spec.rounds(opts.seconds);
    let pa = timed(&mut a, inputs, &mut off, rounds)?;
    a.drain(&mut Tally::default(), &mut off)?;
    drop(a);

    // B: the traced run of the same seed.
    let mut tracer = Tracer::new(true);
    let root = tracer.enter("run");
    let (mut b, _) = Run::setup(spec, inputs, workers, &mut tracer, false)?;
    let pb = timed(&mut b, inputs, &mut tracer, rounds)?;
    b.drain(&mut Tally::default(), &mut tracer)?;
    let audit = audit(&b)?;

    // Determinism: same seed ⇒ identical virtual figures and digests.
    let virt = |p: &Phase| (p.end.tally.virt_latency_ns.clone(), p.end.phase_ns);
    if pa.end.digest != pb.end.digest || virt(&pa) != virt(&pb) {
        return Err(format!(
            "determinism gate: two runs of seed {} disagree ({} vs {})",
            opts.seed, pa.end.digest, pb.end.digest
        ));
    }
    let mut gates = vec![format!("same-seed digest identical over {rounds} rounds")];
    if spec.bomb.is_some() {
        let mut one = Run::setup(spec, inputs, 1, &mut off, false)?.0;
        let p1 = timed(&mut one, inputs, &mut off, spec.probe_rounds)?;
        if p1.probe.digest != pa.probe.digest
            || p1.probe.tally.virt_latency_ns != pa.probe.tally.virt_latency_ns
        {
            return Err(format!(
                "determinism gate: workers=1 and workers={workers} disagree"
            ));
        }
        gates.push(format!(
            "workers=1 digest equals workers={workers} over {} rounds",
            spec.probe_rounds
        ));
    }
    let other_seed = opts.seed.wrapping_add(1);
    let other_inputs = Inputs::generate(other_seed);
    let mut other = Run::setup(spec, &other_inputs, workers, &mut off, false)?.0;
    let po = timed(&mut other, &other_inputs, &mut off, spec.probe_rounds)?;
    drop(other);
    if po.probe.digest == pa.probe.digest {
        return Err(format!(
            "determinism gate: seeds {} and {other_seed} gave the same digest",
            opts.seed
        ));
    }
    gates.push(format!("seed {other_seed} changes the digest"));

    let costs = layers::measure(
        &spec,
        inputs,
        b.feed.as_ref().map(|f| f.node()),
        &pb.tally.bundles,
        &scratch_dir(opts, "probe"),
    )?;
    tracer.exit(root, opts.seed);

    let totals = tracer.totals();
    let mean_ms = |name: &str| {
        totals
            .get(name)
            .map_or(0.0, |t| ratio(t.total_ns as f64, t.count as f64) / 1e6)
    };
    let pre = &pb.end;
    let (s, e) = (&pb.start, &pre.registry);
    let bundles = pre.tally.completed as f64;
    let per_bundle = |id: CounterId| ratio(delta(e, s, id) as f64, bundles);
    let blocks = pre.tally.sync_ns.len() as f64;
    let sync_p50_ms = percentile(&pre.tally.sync_ns, 50.0) / 1e6;
    let phase_ms = |i: usize| {
        ratio(
            pre.phase_ns[i] as f64,
            delta(e, s, CounterId::Bundles) as f64,
        ) / 1e6
    };
    let busy_ms = pb.tally.busy_ns as f64 / 1e6;
    let rows = ledger(&spec, &pb, &costs);
    let explained_ms: f64 = rows.iter().map(|(_, v)| v).sum();
    let overhead = ratio(
        ratio(pb.tally.busy_ns as f64, pb.tally.completed as f64),
        ratio(pa.tally.busy_ns as f64, pa.tally.completed as f64),
    ) - 1.0;

    let metrics = vec![
        m(
            "gateway.submit_us",
            ratio(pb.tally.submit_ns as f64, pb.tally.submits as f64) / 1e3,
            "us",
        ),
        m(
            "gateway.round_ms",
            ratio(pb.tally.round_ns as f64, pb.tally.rounds as f64) / 1e6,
            "ms",
        ),
        m(
            "gateway.preempted",
            delta(e, s, CounterId::Preemptions) as f64,
            "count",
        ),
        m("gateway.sync_p50_ms", sync_p50_ms, "ms"),
        m(
            "gateway.sync_share",
            ratio(
                pre.tally.sync_ns.iter().sum::<u64>() as f64,
                pre.tally.busy_ns as f64,
            ),
            "fraction",
        ),
        m("pool.cpu_util", ratio(pb.cpu_s, pb.wall_s), "ratio"),
        m("service.virt_receive_ms", phase_ms(0), "ms"),
        m("service.virt_decode_ms", phase_ms(1), "ms"),
        m("service.virt_execute_ms", phase_ms(2), "ms"),
        m("service.virt_sign_ms", phase_ms(3), "ms"),
        m("service.virt_seal_ms", phase_ms(4), "ms"),
        m("service.boot_s", mean_ms("HarDTape::new") / 1e3, "s"),
        m(
            "service.sync_block_ms",
            if blocks > 0.0 {
                sync_p50_ms - costs.node_delta_ms
            } else {
                0.0
            },
            "ms",
        ),
        m("tee.attest_ms", mean_ms("gateway.connect"), "ms"),
        m(
            "hevm.instructions_per_bundle",
            ratio(pre.tally.hevm_instructions as f64, bundles),
            "count",
        ),
        m(
            "hevm.swaps_per_bundle",
            ratio(pre.tally.hevm_swaps as f64, bundles),
            "count",
        ),
        m(
            "hevm.segments_per_bundle",
            per_bundle(CounterId::Segments),
            "count",
        ),
        m(
            "hevm.host_ms_per_bundle",
            costs.hevm_host_ms_per_bundle,
            "ms",
        ),
        m(
            "oram.queries_per_bundle",
            per_bundle(CounterId::OramKv)
                + per_bundle(CounterId::OramCode)
                + per_bundle(CounterId::OramPrefetch),
            "count",
        ),
        m(
            "oram.kv_queries_per_bundle",
            per_bundle(CounterId::OramKv),
            "count",
        ),
        m(
            "oram.code_queries_per_bundle",
            per_bundle(CounterId::OramCode),
            "count",
        ),
        m(
            "oram.stash_peak",
            e.gauge_cell(GaugeId::OramStash).peak as f64,
            "count",
        ),
        m(
            "oram.sync_writes_per_block",
            ratio(delta(e, s, CounterId::OramSync) as f64, blocks),
            "count",
        ),
        m("oram.access_ms", costs.oram_access_ms, "ms"),
        m("oram.disk_access_ms", costs.oram_disk_access_ms, "ms"),
        m(
            "store.fsyncs_per_block",
            costs.disk_fsyncs_per_block,
            "count",
        ),
        m("store.disk_sync_ms", costs.disk_sync_ms, "ms"),
        m("store.commit_ms", costs.store_commit_ms, "ms"),
        m("crypto.aes_gcm_seal_us", costs.aes_gcm_seal_us, "us"),
        m("crypto.aes_gcm_open_us", costs.aes_gcm_open_us, "us"),
        m("crypto.ecdsa_sign_us", costs.ecdsa_sign_us, "us"),
        m("crypto.ecdsa_verify_us", costs.ecdsa_verify_us, "us"),
        m("crypto.keccak_1k_us", costs.keccak_1k_us, "us"),
        m("mpt.prove_us", costs.mpt_prove_us, "us"),
        m("mpt.verify_us", costs.mpt_verify_us, "us"),
        m("node.delta_ms", costs.node_delta_ms, "ms"),
        m("analysis.contract_ms", costs.analysis_contract_ms, "ms"),
        m(
            "telemetry.events_per_bundle",
            ratio(pre.events as f64, bundles),
            "count",
        ),
        m("telemetry.record_us", costs.telemetry_record_us, "us"),
        m(
            "ledger.explained_frac",
            ratio(explained_ms, busy_ms),
            "fraction",
        ),
        m(
            "ledger.residue_ms_per_bundle",
            ratio(busy_ms - explained_ms, pb.tally.completed as f64),
            "ms",
        ),
        m("trace.overhead_frac", overhead, "fraction"),
    ];

    println!("env {env}");
    println!(
        "gates: {}; audit {audit}; {} outputs matched the reference EVM",
        gates.join("; "),
        b.checked
    );
    println!(
        "ledger ({} bundles, {:.1} ms inside the program):",
        pb.tally.completed, busy_ms
    );
    for (name, ms) in &rows {
        println!(
            "  {name:<24} {ms:>12.1} ms  {:>6.1}%",
            100.0 * ratio(*ms, busy_ms)
        );
    }
    println!(
        "  explained {:.1}%, residue {:.3} ms/bundle, tracing overhead {:+.2}% (traced vs untraced host ms per bundle)",
        100.0 * ratio(explained_ms, busy_ms),
        ratio(busy_ms - explained_ms, pb.tally.completed as f64),
        100.0 * overhead
    );
    println!("span self time (traced run):");
    for (name, t) in &totals {
        println!(
            "  {name:<24} n={:<6} total {:>10.1} ms  self {:>10.1} ms",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
    print_table(
        &format!("per-layer ({}, seed {})", opts.workload.name(), opts.seed),
        &metrics,
    );

    let spans_path = opts.out.join(format!(
        "{}-seed{}-spans.tsv",
        opts.workload.name(),
        opts.seed
    ));
    tracer
        .write_tsv(&spans_path)
        .map_err(|e| format!("could not write {}: {e}", spans_path.display()))?;
    println!(
        "spans: {} written to {}",
        tracer.spans().len(),
        spans_path.display()
    );
    let extra = format!(
        "\"digest\": {}, \"gates\": [{}], \"audit\": {}, \"ledger_ms\": {{{}}}",
        json_str(&pre.digest),
        gates
            .iter()
            .map(|g| json_str(g))
            .collect::<Vec<_>>()
            .join(", "),
        json_str(audit),
        rows.iter()
            .map(|(k, v)| format!("{}: {}", json_str(k), json_num(*v)))
            .collect::<Vec<_>>()
            .join(", "),
    );
    write_artifact(opts, env, &extra, &metrics);
    final_line(&pb.tally, &metrics);
    Ok(())
}

fn run(opts: &Opts) -> Result<(), String> {
    let spec = opts.workload.spec();
    std::fs::create_dir_all(opts.out.join("scratch"))
        .map_err(|e| format!("cannot create {}: {e}", opts.out.display()))?;
    let env = env_json(opts, &spec, sysinfo::parallelism());
    let inputs = Inputs::generate(opts.seed);
    let result = if opts.trace {
        per_layer(opts, spec, &inputs, &env)
    } else {
        end_to_end(opts, spec, &inputs, &env)
    };
    remove_scratch(&opts.out.join("scratch"), opts);
    result
}

/// Removes this process's scratch directories (the runs remove their
/// own on drop; this catches what an early error left behind).
fn remove_scratch(root: &Path, opts: &Opts) {
    let prefix = format!(
        "{}-{}-{}-",
        opts.workload.name(),
        opts.seed,
        std::process::id()
    );
    if let Ok(entries) = std::fs::read_dir(root) {
        for entry in entries.flatten() {
            if entry.file_name().to_string_lossy().starts_with(&prefix) {
                let _ = std::fs::remove_dir_all(entry.path());
            }
        }
    }
}

fn main() {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&opts) {
        eprintln!("perfbench: FAILED: {e}");
        std::process::exit(1);
    }
}
