//! Scripted churn on the asynchronous per-node runtime.
//!
//! Builds a 1,000-object overlay, then runs the same interleaved workload of
//! joins, departures, routes and area queries three times: on an ideal
//! network, under heavy-tailed latency with 10% message loss, and with an
//! additional partition window.  Prints the resulting traffic, route and
//! delivery statistics side by side — the experiment the synchronous fast
//! path cannot express.
//!
//! Run with: `cargo run --release --example async_churn`

use voronet::prelude::*;
use voronet_core::runtime::{run_scenario, ScenarioReport};
use voronet_core::VoroNetConfig;
use voronet_sim::{LatencyModel, MessageKind, NetworkModel, PartitionWindow, Scenario, ScenarioOp};
use voronet_workloads::Distribution;

fn scenario(seed: u64) -> Scenario {
    let mut warm = PointGenerator::new(Distribution::Uniform, seed ^ 0x57A7);
    let mut joins = PointGenerator::new(Distribution::Uniform, seed ^ 0x10AD);
    let mut qg = QueryGenerator::new(seed ^ 0xA3EA);
    let rects: Vec<_> = (0..16).map(|_| qg.range_query(0.12).rect).collect();
    Scenario::builder("async-churn-1k", seed)
        .warmup(warm.take_points(1_000))
        .churn(0, 2_400, 400, 0.4, 0.2, move || joins.next_point())
        .every(60, 140, 16, |i| ScenarioOp::AreaQuery {
            rect: rects[i % rects.len()],
        })
        .every(30, 110, 20, |_| ScenarioOp::Ping)
        .build()
}

fn print_report(label: &str, r: &ScenarioReport) {
    let c = &r.counters;
    let d = &r.delivery;
    println!("── {label} ──────────────────────────────────────────");
    println!(
        "  population {:>5}   quiesced at t={:<8} ops skipped {}",
        r.population, r.end_time, c.ops_skipped
    );
    println!(
        "  joins      {:>5} requested  {:>5} completed  {:>3} failed",
        c.joins_requested, c.joins_completed, c.joins_failed
    );
    println!(
        "  leaves     {:>5}            pings {:>3} → pongs {:>3}",
        c.leaves, c.pings, c.pongs
    );
    println!(
        "  routes     {:>5} started    {:>5} completed  ({:.1}% lost in the network)",
        c.routes_started,
        c.routes_completed,
        100.0 * (c.routes_started - c.routes_completed) as f64 / c.routes_started.max(1) as f64
    );
    if r.routes.count() > 0 {
        println!(
            "  hops       mean {:.2}  p50 {}  p99 {}  max {}",
            r.routes.mean(),
            r.routes.quantile(0.5).unwrap(),
            r.routes.quantile(0.99).unwrap(),
            r.routes.max().unwrap()
        );
    }
    println!(
        "  area qs    {:>5} completed  {:>5} objects matched",
        c.area_queries_completed, c.area_query_matches
    );
    println!(
        "  messages   {:>7} sent  {:>7} delivered  {:>5} lost  {:>5} partitioned  {:>5} dead",
        d.sent, d.delivered, d.dropped_loss, d.dropped_partition, d.dead_letters
    );
    println!(
        "  traffic    route {:>6}  voronoi {:>6}  departure {:>5}  answers {:>5}",
        r.traffic.count(MessageKind::RouteForward),
        r.traffic.count(MessageKind::VoronoiUpdate),
        r.traffic.count(MessageKind::Departure),
        r.traffic.count(MessageKind::QueryAnswer),
    );
    if let Some((node, count)) = r.traffic.max_sender() {
        let name = if voronet_core::runtime::is_joiner(node) {
            "a joiner's bootstrap request".to_string()
        } else {
            format!("o{node}")
        };
        println!(
            "             busiest sender {name} with {count} messages (mean {:.1}/sender)",
            r.traffic.mean_per_sender()
        );
    }
}

fn main() {
    let seed = 2006;
    let cfg = VoroNetConfig::new(2_000).with_seed(seed);
    let script = scenario(seed);
    println!(
        "scenario `{}`: {} warmup objects, {} scripted operations\n",
        script.name,
        script.warmup.len(),
        script.len()
    );

    let ideal = run_scenario(cfg, &script, NetworkModel::ideal());
    print_report("ideal network (1 unit/hop, no loss)", &ideal);

    let latency = LatencyModel::Skewed {
        min: 1,
        max: 60,
        alpha: 1.2,
    };
    let lossy = run_scenario(
        cfg,
        &script,
        NetworkModel::new(seed, latency).with_loss(0.10),
    );
    print_report("heavy-tailed latency + 10% loss", &lossy);

    let partitioned = run_scenario(
        cfg,
        &script,
        NetworkModel::new(seed, latency)
            .with_loss(0.10)
            .with_partition(PartitionWindow {
                start: 600,
                end: 1_200,
                groups: 2,
            }),
    );
    print_report("… plus a 2-way partition for t∈[600,1200)", &partitioned);

    println!("\nDeterminism: re-running the lossy scenario with the same seed …");
    let again = run_scenario(
        cfg,
        &script,
        NetworkModel::new(seed, latency).with_loss(0.10),
    );
    assert_eq!(
        lossy, again,
        "same seed must reproduce the identical report"
    );
    println!("… identical report reproduced ✓");
}
