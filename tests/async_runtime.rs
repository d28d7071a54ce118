//! Integration tests of the asynchronous per-node runtime: the acceptance
//! scenarios of the runtime subsystem.
//!
//! * a ≥ 1,000-node scripted scenario with interleaved joins, departures,
//!   routes and area queries under a lossy, latency-skewed network runs
//!   deterministically (two runs with the same seed produce identical
//!   reports, `TrafficStats` and `RouteStats` included);
//! * on a loss-free network, the message-driven route for a sampled pair
//!   set reaches the same owner as the synchronous
//!   [`VoroNet::route_between`] fast path.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use voronet::prelude::*;
use voronet_core::runtime::{run_scenario, AsyncOverlay};
use voronet_core::VoroNetConfig;
use voronet_sim::{LatencyModel, NetworkModel, PartitionWindow, Scenario, ScenarioOp};
use voronet_workloads::Distribution;

fn uniform_points(n: usize, seed: u64) -> Vec<Point2> {
    PointGenerator::new(Distribution::Uniform, seed).take_points(n)
}

/// The acceptance scenario: 1,000 warmup objects plus 400 scripted operations
/// (joins/leaves/routes/area queries/pings), so well over 1,000 distinct
/// nodes participate, under heavy-tailed latency, 10% iid loss and a
/// partition window.
fn big_churn_scenario(seed: u64) -> Scenario {
    let mut pg = PointGenerator::new(Distribution::Uniform, seed ^ 0xF00D);
    let mut qg = QueryGenerator::new(seed ^ 0xBEEF);
    let area_rects: Vec<_> = (0..20).map(|_| qg.range_query(0.15).rect).collect();
    Scenario::builder("churn-1k-lossy", seed)
        .warmup(uniform_points(1_000, seed ^ 0xCAFE))
        .churn(0, 2_000, 360, 0.45, 0.15, move || pg.next_point())
        .every(100, 80, 20, |i| ScenarioOp::AreaQuery {
            rect: area_rects[i % area_rects.len()],
        })
        .every(50, 95, 20, |_| ScenarioOp::Ping)
        .build()
}

fn lossy_network(seed: u64) -> NetworkModel {
    NetworkModel::new(
        seed,
        LatencyModel::Skewed {
            min: 1,
            max: 60,
            alpha: 1.2,
        },
    )
    .with_loss(0.1)
    .with_partition(PartitionWindow {
        start: 600,
        end: 900,
        groups: 2,
    })
}

#[test]
fn thousand_node_lossy_scenario_is_deterministic() {
    let run = |seed: u64| {
        let cfg = VoroNetConfig::new(2_000).with_seed(seed);
        run_scenario(cfg, &big_churn_scenario(seed), lossy_network(seed))
    };
    let a = run(2006);
    let b = run(2006);
    assert_eq!(a, b, "same seed must reproduce the identical report");
    assert_eq!(a.traffic, b.traffic);
    assert_eq!(a.routes, b.routes);

    // The scenario actually exercised everything it scripted.
    assert!(a.counters.joins_requested > 100, "{:?}", a.counters);
    assert!(a.counters.joins_completed > 20, "{:?}", a.counters);
    assert!(a.counters.leaves > 20, "{:?}", a.counters);
    assert!(a.counters.routes_completed > 30, "{:?}", a.counters);
    assert!(a.counters.area_queries_completed > 0, "{:?}", a.counters);
    assert!(a.delivery.dropped_loss > 0, "{:?}", a.delivery);
    assert!(a.delivery.dropped_partition > 0, "{:?}", a.delivery);
    assert!(
        a.population + a.counters.leaves as usize > 1_000,
        "at least 1,000 nodes must have participated (population {} + {} leaves)",
        a.population,
        a.counters.leaves
    );

    // A different seed produces a genuinely different execution.
    let c = run(2007);
    assert_ne!(a.traffic, c.traffic);
}

#[test]
fn loss_free_routes_agree_with_the_synchronous_fast_path() {
    let points = uniform_points(500, 77);
    let cfg = VoroNetConfig::new(1_000).with_seed(41);

    let mut sync_net = VoroNet::new(cfg);
    for &p in &points {
        let _ = sync_net.insert(p);
    }

    let mut overlay = AsyncOverlay::new(cfg, NetworkModel::ideal(), 41);
    let ids = overlay.warmup(&points);
    assert_eq!(overlay.population(), sync_net.len());

    let mut rng = StdRng::seed_from_u64(4242);
    let mut measured = 0;
    while measured < 80 {
        let a = ids[rng.random_range(0..ids.len())];
        let b = ids[rng.random_range(0..ids.len())];
        if a == b {
            continue;
        }
        measured += 1;
        let (owner, hops) = overlay
            .measure_route(a, b)
            .expect("routes cannot be lost on a loss-free network");
        let sync = sync_net.route_between(a, b).unwrap();
        assert_eq!(
            owner, sync.owner,
            "trial {measured} (pair seed 4242): message-driven owner must match for {a} → {b}"
        );
        assert_eq!(
            owner, b,
            "trial {measured} (pair seed 4242): routes towards an object end at that object"
        );
        assert_eq!(
            hops, sync.hops,
            "trial {measured} (pair seed 4242): fresh local views take the same greedy steps \
             for {a} → {b}"
        );
    }
}

#[test]
fn loss_free_churn_keeps_replicas_consistent() {
    // After a loss-free churn scenario quiesces, every surviving replica's
    // view matches the authoritative overlay exactly: the NeighborUpdate
    // fan-out reaches everyone whose view a join or leave touched.
    let cfg = VoroNetConfig::new(500).with_seed(43);
    let mut pg = PointGenerator::new(Distribution::Uniform, 87);
    let scenario = Scenario::builder("loss-free-churn", 43)
        .warmup(uniform_points(200, 85))
        .churn(0, 500, 150, 0.4, 0.2, move || pg.next_point())
        .build();
    let mut overlay = AsyncOverlay::new(cfg, NetworkModel::ideal(), scenario.seed);
    overlay.warmup(&scenario.warmup);
    for &(t, op) in scenario.events() {
        overlay.schedule_op(t, op);
    }
    overlay.run_to_quiescence();

    let report_counters = overlay.counters();
    assert!(report_counters.joins_completed > 0, "{report_counters:?}");
    assert!(report_counters.leaves > 0, "{report_counters:?}");
    assert_eq!(overlay.delivery_stats().dropped_loss, 0);

    for id in overlay.net().ids().collect::<Vec<_>>() {
        let fresh = overlay.net().view(id).unwrap();
        let replica = overlay.replica_view(id).expect("live replica exists");
        assert_eq!(
            replica.voronoi_neighbours, fresh.voronoi_neighbours,
            "stale Voronoi view at {id} after quiescence"
        );
        assert_eq!(
            replica.close_neighbours, fresh.close_neighbours,
            "stale close-neighbour view at {id}"
        );
        let long = |v: &ObjectView| v.long_links.iter().map(|l| l.neighbour).collect::<Vec<_>>();
        assert_eq!(long(replica), long(&fresh), "stale routing view at {id}");
    }
}
