//! The greedy next-hop rule of Section 3.2, stated once.
//!
//! Every greedy walk in the workspace — the live walk, the frozen walk, the
//! Algorithm 5 forwarding loop, the asynchronous replicas and the cluster
//! hosts — takes its decisions through [`next_hop`], so they agree on every
//! route, ties included.

use voronet_geom::Point2;

/// One greedy scan over a routing row: the candidate closest to `target`,
/// or `best` unchanged when no candidate is strictly closer.
///
/// The rule: distances are compared as `distance2`, a candidate must be
/// *strictly* closer than the best so far, so a tie goes to whichever came
/// first in scan order (and `best` wins ties against the whole row), and
/// entries equal to `cur` — a node listed in its own row, e.g. through a
/// long link that resolves to itself — are skipped.  Walks that keep one
/// row in several pieces call this once per piece, threading `best`
/// through, which is the same as one scan over the concatenation.
///
/// Rows list `(key, coordinates)` pairs; the key is whatever the walk
/// addresses nodes by (object id, dense index, triangulation vertex).
#[inline]
pub fn next_hop<K: Copy + PartialEq>(
    cur: K,
    best: (K, f64),
    target: Point2,
    row: impl IntoIterator<Item = (K, Point2)>,
) -> (K, f64) {
    let (mut best, mut best_d) = best;
    for (key, coords) in row {
        if key == cur {
            continue;
        }
        let d = coords.distance2(target);
        if d < best_d {
            best = key;
            best_d = d;
        }
    }
    (best, best_d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ties_go_to_the_first_candidate_in_scan_order() {
        let target = Point2::new(0.0, 0.0);
        let row = [
            (1, Point2::new(2.0, 0.0)),
            (2, Point2::new(1.0, 0.0)),
            (3, Point2::new(0.0, 1.0)),
        ];
        assert_eq!(next_hop(0, (0, 9.0), target, row), (2, 1.0));
        let reversed = [row[2], row[1], row[0]];
        assert_eq!(next_hop(0, (0, 9.0), target, reversed), (3, 1.0));
    }

    #[test]
    fn the_current_best_wins_ties_and_the_current_node_is_skipped() {
        let target = Point2::new(0.0, 0.0);
        let row = [(0, Point2::new(0.0, 0.0)), (5, Point2::new(1.0, 0.0))];
        assert_eq!(next_hop(0, (0, 1.0), target, row), (0, 1.0));
        // Threading `best` through two pieces equals one scan.
        let (first, d) = next_hop(0, (0, 4.0), target, [(7, Point2::new(0.0, 1.0))]);
        assert_eq!(next_hop(0, (first, d), target, row), (7, 1.0));
    }
}
