//! Tied distances must not split the greedy walks.
//!
//! On a square lattice many routing neighbours sit at exactly the same
//! distance from a target, so the tie rule of the greedy next-hop kernel
//! (strict `<` on `distance2`, first candidate in scan order wins) decides
//! real routes.  Every walk — the live walk, the frozen walk, the
//! message-driven replicas of `AsyncOverlay` and the hosts of a
//! `LocalCluster` — must scan its routing rows in the same order, so for
//! every ordered pair of objects all four return the same owner *and* the
//! same hop count.

use voronet_core::runtime::AsyncOverlay;
use voronet_core::snapshot::{FrozenView, RouteScratch};
use voronet_core::{VoroNet, VoroNetConfig};
use voronet_geom::Point2;
use voronet_net::{LocalCluster, OpOutcome};
use voronet_sim::NetworkModel;

fn lattice(k: usize) -> Vec<Point2> {
    let step = 1.0 / k as f64;
    (0..k * k)
        .map(|i| {
            Point2::new(
                (i % k) as f64 * step + step / 2.0,
                (i / k) as f64 * step + step / 2.0,
            )
        })
        .collect()
}

/// Routes every ordered pair of a `k × k` lattice through the four walks
/// and returns the pairs on which any walk disagrees with the live one.
fn disagreements(k: usize) -> Vec<String> {
    let points = lattice(k);
    let cfg = VoroNetConfig::new(points.len()).with_seed(k as u64);

    let mut net = VoroNet::new(cfg);
    for &p in &points {
        net.insert(p).expect("lattice points are distinct");
    }
    let frozen = FrozenView::new(&net);
    let mut overlay = AsyncOverlay::new(cfg, NetworkModel::ideal(), k as u64);
    overlay.warmup(&points);
    let mut cluster = LocalCluster::start(2, cfg, NetworkModel::ideal());
    for &p in &points {
        cluster.driver().insert(p).expect("ideal network");
    }

    let n = net.len();
    let mut scratch = RouteScratch::new();
    let mut bad = Vec::new();
    for i in 0..n {
        for j in (0..n).filter(|&j| j != i) {
            let (a, b) = (net.id_at(i).unwrap(), net.id_at(j).unwrap());
            assert_eq!(cluster.driver().net().id_at(i), Some(a));
            let target = net.coords(b).unwrap();
            let live = net.route_to_point_in(a, target, &mut scratch).unwrap();
            let frozen = frozen.route_to_point_in(a, target, &mut scratch).unwrap();
            let replicas = overlay.measure_route(a, b).expect("ideal network");
            let hosts = match cluster.driver().route_indices(i, j).expect("ideal network") {
                OpOutcome::Route { owner, hops } => (voronet_core::ObjectId(owner), hops),
                other => panic!("unexpected route outcome {other:?}"),
            };
            if frozen != live || replicas != live || hosts != live {
                bad.push(format!(
                    "{a}→{b}: live {live:?} frozen {frozen:?} async {replicas:?} cluster {hosts:?}"
                ));
            }
        }
    }
    cluster.shutdown().expect("clean shutdown");
    bad
}

#[test]
fn every_walk_breaks_lattice_ties_the_same_way() {
    for k in [6, 8] {
        let bad = disagreements(k);
        assert!(
            bad.is_empty(),
            "{}x{k} lattice: {} pairs disagree, e.g. {:?}",
            k,
            bad.len(),
            &bad[..bad.len().min(3)]
        );
    }
}
