//! Bench-side replay of a recorded op stream through the core layers —
//! `geom`, `core.overlay`, `core.snapshot` and `core.queries` — one span
//! per layer call.
//!
//! The replay runs on a *mirror* overlay: a `VoroNet` with the same
//! config and seed that saw the same writes, so its ids, links and
//! answers equal the system's.  Its results are checked against the
//! answers the workload got, which makes the replay both the per-layer
//! measurement and part of the correctness gate.

use crate::report::Metric;
use crate::trace::{next_span_id, now_ns, record, Span, SpanLog};
use voronet_core::queries::{radius_query_in, range_query_in};
use voronet_core::snapshot::{RouteScratch, ViewGenerations, ViewRefresh};
use voronet_core::{ObjectId, VoroNet};
use voronet_geom::{Point2, Rect, Triangulation};
use voronet_workloads::{RadiusQuery, RangeQuery};

/// One operation as the core layers see it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReplayOp {
    /// An object joins at a position.
    Insert(Point2),
    /// An object leaves.
    Remove(ObjectId),
    /// A greedy route between two live objects.
    Route {
        /// Source object.
        from: ObjectId,
        /// Destination object.
        to: ObjectId,
    },
    /// A greedy route towards a point (a KV key's coordinates).
    RoutePoint {
        /// Source object.
        from: ObjectId,
        /// Target point.
        target: Point2,
    },
    /// A rectangular range query.
    Range {
        /// Issuing object.
        from: ObjectId,
        /// The rectangle.
        query: RangeQuery,
    },
    /// A disk query.
    Radius {
        /// Issuing object.
        from: ObjectId,
        /// The disk.
        query: RadiusQuery,
    },
}

impl ReplayOp {
    fn is_write(&self) -> bool {
        matches!(self, ReplayOp::Insert(_) | ReplayOp::Remove(_))
    }
}

/// What the mirror answered.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplayResult {
    /// The new object's id.
    Inserted(ObjectId),
    /// The departure succeeded.
    Removed,
    /// Route owner and hop count.
    Routed {
        /// Owner of the target's cell.
        owner: ObjectId,
        /// Greedy hops.
        hops: u32,
    },
    /// Area-query matches (ascending), routing hops and flood footprint.
    Queried {
        /// Matching objects.
        matches: Vec<ObjectId>,
        /// Hops of the initial route.
        hops: u32,
        /// Objects the flood visited.
        visited: usize,
    },
    /// The mirror refused the operation.
    Failed(String),
}

/// Which read path the replayed system uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadPath {
    /// Frozen views kept current at each read barrier (the in-process
    /// engine).  The live walk is timed alongside for comparison.
    Frozen,
    /// The live overlay only (the cluster driver's authoritative copy).
    Live,
}

/// Per-layer tallies of one replay.
#[derive(Debug, Default, Clone)]
pub struct CoreLayers {
    /// Self time of the layer calls the system itself runs (frozen walk,
    /// refresh, flood, insert, remove), ns.
    pub system_ns: u64,
    inserts: (u64, u64),
    removes: (u64, u64),
    live_walks: (u64, u64),
    frozen_walks: (u64, u64),
    frozen_hops: u64,
    refreshes: (u64, u64),
    floods: (u64, u64),
    visited: u64,
    matched: u64,
}

fn mean(total_ns: u64, count: u64, per: f64) -> f64 {
    if count == 0 {
        0.0
    } else {
        total_ns as f64 / count as f64 / per
    }
}

impl CoreLayers {
    /// The `core.overlay`, `core.snapshot` and `core.queries` metrics.
    pub fn metrics(&self) -> Vec<Metric> {
        let (fw_ns, fw) = self.frozen_walks;
        vec![
            Metric::new(
                "overlay.insert_us",
                "us",
                mean(self.inserts.0, self.inserts.1, 1e3),
            ),
            Metric::new(
                "overlay.remove_us",
                "us",
                mean(self.removes.0, self.removes.1, 1e3),
            ),
            Metric::new(
                "overlay.live_walk_ns",
                "ns",
                mean(self.live_walks.0, self.live_walks.1, 1.0),
            ),
            Metric::new("snapshot.walk_ns", "ns", mean(fw_ns, fw, 1.0)),
            Metric::new(
                "snapshot.walk_ns_per_hop",
                "ns",
                mean(fw_ns, self.frozen_hops, 1.0),
            ),
            Metric::new(
                "snapshot.hops_per_route",
                "count",
                mean(self.frozen_hops, fw, 1.0),
            ),
            Metric::new(
                "snapshot.refresh_us",
                "us",
                mean(self.refreshes.0, self.refreshes.1, 1e3),
            ),
            Metric::new(
                "queries.flood_us",
                "us",
                mean(self.floods.0, self.floods.1, 1e3),
            ),
            Metric::new(
                "queries.visited_per_query",
                "count",
                mean(self.visited, self.floods.1, 1.0),
            ),
            Metric::new(
                "queries.match_ratio",
                "ratio",
                mean(self.matched, self.visited, 1.0),
            ),
        ]
    }
}

struct Timer<'a> {
    log: &'a SpanLog,
    op: u64,
}

impl Timer<'_> {
    /// Runs `f` inside a replay span and returns its value and duration.
    fn span<R>(&self, layer: &'static str, name: &'static str, f: impl FnOnce() -> R) -> (R, u64) {
        let start = now_ns();
        let r = f();
        let end = now_ns();
        self.push(layer, name, start, end);
        (r, end - start)
    }

    fn push(&self, layer: &'static str, name: &'static str, start: u64, end: u64) {
        record(
            self.log,
            Span {
                id: next_span_id(),
                parent: 0,
                op: self.op,
                thread: 2,
                layer,
                name,
                start,
                end,
            },
        );
    }
}

/// Replays `ops` (each with its client op id) on `mirror`, recording a
/// span per layer call, and returns the mirror's answers in op order.
pub fn replay(
    mirror: &mut VoroNet,
    ops: &[(u64, ReplayOp)],
    path: ReadPath,
    log: &SpanLog,
) -> (Vec<ReplayResult>, CoreLayers) {
    let mut layers = CoreLayers::default();
    let mut scratch = RouteScratch::new();
    let mut views = (path == ReadPath::Frozen).then(|| ViewGenerations::new(mirror));
    let mut after_write = false;
    let mut results = Vec::with_capacity(ops.len());
    for &(op, rop) in ops {
        let t = Timer { log, op };
        if after_write && !rop.is_write() {
            if let Some(views) = views.as_mut() {
                let start = now_ns();
                let refresh = views.advance(mirror);
                let end = now_ns();
                if refresh != ViewRefresh::Current {
                    t.push("core.snapshot", "snapshot.refresh", start, end);
                    layers.refreshes.0 += end - start;
                    layers.refreshes.1 += 1;
                    layers.system_ns += end - start;
                }
            }
        }
        after_write = rop.is_write();
        let result = match rop {
            ReplayOp::Insert(p) => {
                let (r, ns) = t.span("core.overlay", "overlay.insert", || mirror.insert(p));
                layers.inserts.0 += ns;
                layers.inserts.1 += 1;
                layers.system_ns += ns;
                match r {
                    Ok(report) => ReplayResult::Inserted(report.id),
                    Err(e) => ReplayResult::Failed(e.to_string()),
                }
            }
            ReplayOp::Remove(id) => {
                let (r, ns) = t.span("core.overlay", "overlay.remove", || mirror.remove(id));
                layers.removes.0 += ns;
                layers.removes.1 += 1;
                layers.system_ns += ns;
                match r {
                    Ok(_) => ReplayResult::Removed,
                    Err(e) => ReplayResult::Failed(e.to_string()),
                }
            }
            ReplayOp::Route { .. } | ReplayOp::RoutePoint { .. } => {
                let target = match rop {
                    ReplayOp::Route { to, .. } => mirror.coords(to),
                    ReplayOp::RoutePoint { target, .. } => Some(target),
                    _ => None,
                };
                let from = match rop {
                    ReplayOp::Route { from, .. } | ReplayOp::RoutePoint { from, .. } => from,
                    _ => unreachable!("matched route ops above"),
                };
                match target {
                    None => ReplayResult::Failed("route to an unknown object".to_owned()),
                    Some(target) => route(
                        mirror,
                        views.as_ref(),
                        &t,
                        &mut layers,
                        &mut scratch,
                        from,
                        target,
                    ),
                }
            }
            ReplayOp::Range { from, query } => {
                let (r, ns) = t.span("core.queries", "queries.flood", || {
                    range_query_in(mirror, from, query, &mut scratch)
                });
                flood_result(r, ns, &mut layers)
            }
            ReplayOp::Radius { from, query } => {
                let (r, ns) = t.span("core.queries", "queries.flood", || {
                    radius_query_in(mirror, from, query, &mut scratch)
                });
                flood_result(r, ns, &mut layers)
            }
        };
        scratch.delta.clear();
        results.push(result);
    }
    (results, layers)
}

fn route(
    mirror: &VoroNet,
    views: Option<&ViewGenerations>,
    t: &Timer<'_>,
    layers: &mut CoreLayers,
    scratch: &mut RouteScratch,
    from: ObjectId,
    target: Point2,
) -> ReplayResult {
    let (live, ns) = t.span("core.overlay", "overlay.live_walk", || {
        mirror.route_to_point_in(from, target, scratch)
    });
    layers.live_walks.0 += ns;
    layers.live_walks.1 += 1;
    let answer = match views {
        None => {
            layers.system_ns += ns;
            live
        }
        Some(views) => {
            let (frozen, ns) = t.span("core.snapshot", "snapshot.walk", || {
                views.front().route_to_point_in(from, target, scratch)
            });
            layers.frozen_walks.0 += ns;
            layers.frozen_walks.1 += 1;
            layers.system_ns += ns;
            if let Ok((_, hops)) = frozen {
                layers.frozen_hops += u64::from(hops);
            }
            if frozen.as_ref().ok() != live.as_ref().ok() {
                return ReplayResult::Failed("frozen and live walks disagree".to_owned());
            }
            frozen
        }
    };
    match answer {
        Ok((owner, hops)) => ReplayResult::Routed { owner, hops },
        Err(e) => ReplayResult::Failed(e.to_string()),
    }
}

fn flood_result(
    r: Result<voronet_core::AreaQueryReport, voronet_core::OverlayError>,
    ns: u64,
    layers: &mut CoreLayers,
) -> ReplayResult {
    layers.floods.0 += ns;
    layers.floods.1 += 1;
    layers.system_ns += ns;
    match r {
        Ok(report) => {
            layers.visited += report.visited as u64;
            layers.matched += report.matches.len() as u64;
            ReplayResult::Queried {
                matches: report.matches,
                hops: report.routing_hops,
                visited: report.visited,
            }
        }
        Err(e) => ReplayResult::Failed(e.to_string()),
    }
}

/// `geom.insert_us`: every insert position the workload made, set-up
/// included, replayed into a standalone triangulation of `domain`.
pub fn geom_insert_us(domain: Rect, positions: &[Point2], log: &SpanLog) -> Metric {
    let mut tri = Triangulation::new(domain);
    let t = Timer { log, op: 0 };
    let mut total = 0u64;
    for &p in positions {
        let (r, ns) = t.span("geom", "geom.insert", || tri.insert(p));
        std::hint::black_box(r.ok());
        total += ns;
    }
    Metric::new(
        "geom.insert_us",
        "us",
        mean(total, positions.len() as u64, 1e3),
    )
}
