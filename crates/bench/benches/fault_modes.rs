//! Operation latency under faults: p50/p99 of distributed route and KV
//! get over a 3-host `FaultyCluster` in three modes — healthy link, 10%
//! frame loss, and one host crash-stopped (reads served degraded from
//! Voronoi replicas, routes that need the dead host failing fast).
//!
//! Latencies are wall-clock per driver op, including the retry/backoff
//! machinery (`RetryPolicy::tight`), so the loss and crash columns show
//! the real cost of retransmission and of the failure detector's
//! fail-fast path, not just the happy-path frame exchange.  Results
//! land in the `fault_modes` section of `BENCH_routes.json`; smoke mode
//! (`VORONET_SMOKE=1`, CI) shrinks the sample counts and skips the
//! JSON record.

use criterion::{criterion_group, Criterion};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};
use voronet_core::VoroNetConfig;
use voronet_net::{
    host_of, FaultyCluster, HostState, LinkFaults, Liveness, OpOutcome, RetryPolicy,
};
use voronet_stats::nearest_rank;
use voronet_workloads::{Distribution, PointGenerator};

const SEED: u64 = 4242;
const HOSTS: u64 = 3;

fn smoke() -> bool {
    std::env::var_os("VORONET_SMOKE").is_some_and(|v| v != "0")
}

fn overlay_size() -> usize {
    if smoke() {
        24
    } else {
        64
    }
}

fn samples() -> usize {
    if smoke() {
        40
    } else {
        200
    }
}

fn kv_keys() -> usize {
    if smoke() {
        32
    } else {
        96
    }
}

/// Per-mode measurement: op latency percentiles plus the realised
/// success rate (crashed-host routes legitimately fail fast).
struct ModeResult {
    name: &'static str,
    route_p50_us: f64,
    route_p99_us: f64,
    route_ok: usize,
    get_p50_us: f64,
    get_p99_us: f64,
    get_ok: usize,
    degraded_reads: u64,
}

/// Builds a populated faulty cluster, optionally crashes one host
/// (converging the failure detector first), then samples route and KV
/// get latencies from surviving-host origins.
fn run_mode(name: &'static str, link: LinkFaults, crash: bool) -> ModeResult {
    let mut cluster = FaultyCluster::start(
        HOSTS,
        VoroNetConfig::new(512).with_seed(SEED),
        link,
        SEED ^ name.len() as u64,
    );
    cluster.driver().set_retry_policy(RetryPolicy::tight());
    cluster.driver().set_liveness(Liveness::tight());
    let points =
        PointGenerator::new(Distribution::Uniform, SEED ^ 0xF0).take_points(overlay_size());
    for &p in &points {
        cluster.driver().insert(p).expect("insert");
    }
    for key in 0..kv_keys() as u64 {
        cluster
            .driver()
            .kv_put(0, key, key * 3 + 1)
            .expect("kv_put");
    }

    let crashed_host = if crash {
        // Crash the host owning object 1's cell and converge detection.
        let victim = host_of(1, HOSTS);
        cluster.ctl().crash(victim);
        let deadline = Instant::now() + Duration::from_secs(15);
        while cluster.driver().host_state(victim) != HostState::Dead {
            assert!(Instant::now() < deadline, "failure detector stalled");
            cluster.driver().heartbeat().expect("heartbeat");
            std::thread::sleep(Duration::from_millis(2));
        }
        Some(victim)
    } else {
        None
    };

    // Origins (and route targets) on surviving hosts only: the dead
    // host's fail-fast path is measured by the in-process tests; here we
    // want the latency of ops the cluster *can* serve.
    let survivors: Vec<usize> = (0..cluster.driver().population())
        .filter(|&i| {
            let id = cluster.driver().net().id_at(i).unwrap().0;
            Some(host_of(id, HOSTS)) != crashed_host
        })
        .collect();
    assert!(survivors.len() >= 2, "need surviving route endpoints");

    let mut rng = StdRng::seed_from_u64(SEED ^ 0xBE);
    let mut route_us = Vec::new();
    for _ in 0..samples() {
        let from = survivors[rng.random_range(0..survivors.len())];
        let to = survivors[rng.random_range(0..survivors.len())];
        if from == to {
            continue;
        }
        let t0 = Instant::now();
        if cluster.driver().route_indices(from, to).is_ok() {
            route_us.push(t0.elapsed().as_secs_f64() * 1e6);
        }
    }
    let mut get_us = Vec::new();
    for _ in 0..samples() {
        let from = survivors[rng.random_range(0..survivors.len())];
        let key = rng.random_range(0..kv_keys() as u64);
        let t0 = Instant::now();
        if let Ok(OpOutcome::KvFetched { value, .. }) = cluster.driver().kv_get(from, key) {
            get_us.push(t0.elapsed().as_secs_f64() * 1e6);
            assert_eq!(value, Some(key * 3 + 1), "acked write must read back");
        }
    }

    route_us.sort_by(|a, b| a.partial_cmp(b).unwrap());
    get_us.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let percentile = |sorted_us: &[f64], q| nearest_rank(sorted_us, q).unwrap_or(f64::NAN);
    let result = ModeResult {
        name,
        route_p50_us: percentile(&route_us, 0.5),
        route_p99_us: percentile(&route_us, 0.99),
        route_ok: route_us.len(),
        get_p50_us: percentile(&get_us, 0.5),
        get_p99_us: percentile(&get_us, 0.99),
        get_ok: get_us.len(),
        degraded_reads: cluster.driver().cluster_stats().degraded_reads,
    };
    assert!(result.get_ok > 0, "every mode must serve some reads");
    cluster.ctl().heal_all();
    let _ = cluster.shutdown();
    result
}

fn fault_modes(c: &mut Criterion) {
    let modes = [
        ("healthy", LinkFaults::default(), false),
        ("loss_10pct", LinkFaults::lossy(0.10), false),
        ("one_host_crashed", LinkFaults::default(), true),
    ];
    let mut results = Vec::new();
    for (name, link, crash) in modes {
        let r = run_mode(name, link, crash);
        println!(
            "fault_modes {}: route p50 {:.0}us p99 {:.0}us ({} ok), \
             kv_get p50 {:.0}us p99 {:.0}us ({} ok, {} degraded)",
            r.name,
            r.route_p50_us,
            r.route_p99_us,
            r.route_ok,
            r.get_p50_us,
            r.get_p99_us,
            r.get_ok,
            r.degraded_reads
        );
        results.push(r);
    }

    // Regression gate for the retry-stall fix: before fast retransmit
    // the driver sent each request once and waited out the full jittered
    // attempt timeout, so 10% frame loss pushed the kv_get median from
    // ~16µs to ~107ms (~6600×).  With retransmit the lossy median must
    // stay within 100× of healthy (smoke runs are looser — tiny sample
    // counts make the healthy median itself noisy — and an absolute
    // low-millisecond median always passes).
    let healthy = results.iter().find(|r| r.name == "healthy").unwrap();
    let lossy = results.iter().find(|r| r.name == "loss_10pct").unwrap();
    let ratio = lossy.get_p50_us / healthy.get_p50_us;
    let max_ratio = if smoke() { 400.0 } else { 100.0 };
    assert!(
        ratio <= max_ratio || lossy.get_p50_us < 2_000.0,
        "lossy kv_get p50 {:.1}µs is {ratio:.0}× the healthy {:.1}µs — \
         the fast-retransmit path regressed",
        lossy.get_p50_us,
        healthy.get_p50_us
    );

    let mut group = c.benchmark_group("fault_modes");
    group.sample_size(10);
    group.bench_function("healthy_route_pass", |b| {
        b.iter(|| black_box(run_mode("healthy", LinkFaults::default(), false).route_p50_us));
    });
    group.finish();

    if smoke() {
        println!("smoke mode: JSON record skipped");
        return;
    }
    let mode_sections: Vec<String> = results
        .iter()
        .map(|r| {
            format!(
                "\"{}\": {{ \"route_p50_us\": {:.1}, \"route_p99_us\": {:.1}, \
                 \"route_ok\": {}, \"kv_get_p50_us\": {:.1}, \"kv_get_p99_us\": {:.1}, \
                 \"kv_get_ok\": {}, \"degraded_reads\": {} }}",
                r.name,
                r.route_p50_us,
                r.route_p99_us,
                r.route_ok,
                r.get_p50_us,
                r.get_p99_us,
                r.get_ok,
                r.degraded_reads
            )
        })
        .collect();
    let section = format!(
        "{{ \"hosts\": {HOSTS}, \"overlay_size\": {}, \"samples_per_op\": {}, \
         \"kv_keys\": {}, \"modes\": {{ {} }} }}",
        overlay_size(),
        samples(),
        kv_keys(),
        mode_sections.join(", ")
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_routes.json");
    match voronet_bench::record::update_json_section(Path::new(out), "fault_modes", &section) {
        Err(e) => eprintln!("could not write {out}: {e}"),
        Ok(()) => println!("recorded fault_modes results to {out}"),
    }
}

criterion_group!(benches, fault_modes);

fn main() {
    benches();
}
