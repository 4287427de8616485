//! A small named-node adjacency graph, shared by the badge and RFID
//! applications (rooms on a floor; shelf zones in a store).

use rand::Rng;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// An undirected graph over string-named nodes with hop-distance
/// queries — the topology that makes "Peter cannot jump from the office
/// to the lobby in one step" checkable.
///
/// The graphs are small (a floor has ~10 nodes) and queried on every
/// constraint check, so the hop distances of all node pairs are kept
/// in a table rebuilt by every [`RoomGraph::add_edge`]: a query is two
/// name lookups and an index, with no allocation.
#[derive(Debug, Clone, Default)]
pub struct RoomGraph {
    adjacency: BTreeMap<String, BTreeSet<String>>,
    /// Each node's row and column in `hops`, in name order.
    index: BTreeMap<String, usize>,
    /// Row-major `n × n` hop distances; `None` between disconnected
    /// nodes.
    hops: Vec<Option<usize>>,
}

impl RoomGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        RoomGraph::default()
    }

    /// Builds a graph from an edge list, adding nodes implicitly.
    pub fn from_edges<'a>(edges: impl IntoIterator<Item = (&'a str, &'a str)>) -> Self {
        let mut g = RoomGraph::new();
        for (a, b) in edges {
            g.add_edge(a, b);
        }
        g
    }

    /// Adds an undirected edge (and its endpoints), then rebuilds the
    /// hop-distance table.
    pub fn add_edge(&mut self, a: &str, b: &str) {
        self.adjacency
            .entry(a.to_owned())
            .or_default()
            .insert(b.to_owned());
        self.adjacency
            .entry(b.to_owned())
            .or_default()
            .insert(a.to_owned());
        self.rebuild_hops();
    }

    /// Recomputes `index` and `hops` with one breadth-first search per
    /// node.
    fn rebuild_hops(&mut self) {
        self.index = self
            .adjacency
            .keys()
            .enumerate()
            .map(|(i, name)| (name.clone(), i))
            .collect();
        let neighbors: Vec<Vec<usize>> = self
            .adjacency
            .values()
            .map(|next| next.iter().map(|name| self.index[name]).collect())
            .collect();
        let n = neighbors.len();
        self.hops = vec![None; n * n];
        let mut queue = VecDeque::new();
        for source in 0..n {
            let row = &mut self.hops[source * n..(source + 1) * n];
            row[source] = Some(0);
            queue.push_back(source);
            while let Some(node) = queue.pop_front() {
                let d = row[node].map(|d| d + 1);
                for &next in &neighbors[node] {
                    if row[next].is_none() {
                        row[next] = d;
                        queue.push_back(next);
                    }
                }
            }
        }
    }

    /// The node names, sorted.
    pub fn rooms(&self) -> Vec<&str> {
        self.adjacency.keys().map(String::as_str).collect()
    }

    /// Whether `name` is a node.
    pub fn contains(&self, name: &str) -> bool {
        self.adjacency.contains_key(name)
    }

    /// Whether `a` and `b` are the same node or share an edge.
    pub fn adjacent(&self, a: &str, b: &str) -> bool {
        a == b
            || self
                .adjacency
                .get(a)
                .map(|n| n.contains(b))
                .unwrap_or(false)
    }

    /// Hop distance between two nodes (`None` if disconnected or
    /// unknown): a lookup in the hop-distance table.
    pub fn distance(&self, a: &str, b: &str) -> Option<usize> {
        let i = *self.index.get(a)?;
        let j = *self.index.get(b)?;
        self.hops[i * self.index.len() + j]
    }

    /// Whether `b` is reachable from `a` within `hops` edges.
    pub fn within_hops(&self, a: &str, b: &str, hops: usize) -> bool {
        self.distance(a, b).map(|d| d <= hops).unwrap_or(false)
    }

    /// A uniformly random neighbour of `room` (staying put excluded);
    /// `None` for isolated or unknown nodes.
    pub fn random_neighbor(&self, room: &str, rng: &mut impl Rng) -> Option<String> {
        let neighbors: Vec<&String> = self.adjacency.get(room)?.iter().collect();
        if neighbors.is_empty() {
            return None;
        }
        Some(neighbors[rng.gen_range(0..neighbors.len())].clone())
    }

    /// A uniformly random node at hop distance `>= min_hops` from
    /// `room` — the shape of a corrupted sighting (a badge cannot jump
    /// there). `None` when no such node exists.
    pub fn random_far_room(
        &self,
        room: &str,
        min_hops: usize,
        rng: &mut impl Rng,
    ) -> Option<String> {
        let far: Vec<&str> = self
            .adjacency
            .keys()
            .map(String::as_str)
            .filter(|r| {
                self.distance(room, r)
                    .map(|d| d >= min_hops)
                    .unwrap_or(false)
            })
            .collect();
        if far.is_empty() {
            None
        } else {
            Some(far[rng.gen_range(0..far.len())].to_owned())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::call_forwarding::CallForwarding;
    use crate::rfid_anomalies::RfidAnomalies;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn line() -> RoomGraph {
        // a - b - c - d
        RoomGraph::from_edges([("a", "b"), ("b", "c"), ("c", "d")])
    }

    #[test]
    fn adjacency_is_symmetric_and_reflexive() {
        let g = line();
        assert!(g.adjacent("a", "b"));
        assert!(g.adjacent("b", "a"));
        assert!(g.adjacent("a", "a"));
        assert!(!g.adjacent("a", "c"));
    }

    #[test]
    fn distances_follow_the_line() {
        let g = line();
        assert_eq!(g.distance("a", "a"), Some(0));
        assert_eq!(g.distance("a", "b"), Some(1));
        assert_eq!(g.distance("a", "d"), Some(3));
        assert_eq!(g.distance("a", "zzz"), None);
    }

    #[test]
    fn within_hops_bounds() {
        let g = line();
        assert!(g.within_hops("a", "c", 2));
        assert!(!g.within_hops("a", "d", 2));
    }

    #[test]
    fn random_neighbor_is_adjacent() {
        let g = line();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..20 {
            let n = g.random_neighbor("b", &mut rng).unwrap();
            assert!(g.adjacent("b", &n) && n != "b");
        }
    }

    #[test]
    fn random_far_room_respects_min_hops() {
        let g = line();
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..20 {
            let far = g.random_far_room("a", 2, &mut rng).unwrap();
            assert!(g.distance("a", &far).unwrap() >= 2);
        }
        assert_eq!(g.random_far_room("a", 10, &mut rng), None);
    }

    /// The breadth-first search `distance` ran on every call before
    /// the hop table: the reference the table must reproduce.
    fn bfs_distance(g: &RoomGraph, a: &str, b: &str) -> Option<usize> {
        if !g.adjacency.contains_key(a) || !g.adjacency.contains_key(b) {
            return None;
        }
        let mut seen: BTreeSet<&str> = BTreeSet::from([a]);
        let mut queue: VecDeque<(&str, usize)> = VecDeque::from([(a, 0)]);
        while let Some((node, d)) = queue.pop_front() {
            if node == b {
                return Some(d);
            }
            for next in &g.adjacency[node] {
                if seen.insert(next) {
                    queue.push_back((next, d + 1));
                }
            }
        }
        None
    }

    /// `distance` and `within_hops` agree with the BFS reference on
    /// every ordered node pair, an unknown node included.
    fn assert_table_matches_bfs(g: &RoomGraph) {
        let mut names = g.rooms();
        names.push("nowhere");
        for a in &names {
            for b in &names {
                let reference = bfs_distance(g, a, b);
                assert_eq!(g.distance(a, b), reference, "{a} -> {b}");
                for hops in 0..=4 {
                    assert_eq!(
                        g.within_hops(a, b, hops),
                        reference.is_some_and(|d| d <= hops),
                        "{a} -> {b} within {hops}"
                    );
                }
            }
        }
    }

    #[test]
    fn hop_table_matches_bfs_on_every_pair() {
        assert_table_matches_bfs(&CallForwarding::default_floor());
        assert_table_matches_bfs(&RfidAnomalies::default_zones());
        assert_eq!(RoomGraph::new().distance("a", "a"), None);

        // A second component: no distance across it.
        let mut g = line();
        g.add_edge("x", "y");
        assert_table_matches_bfs(&g);
        assert_eq!(g.distance("a", "y"), None);
        // An edge added after a query rebuilds the table.
        g.add_edge("d", "x");
        assert_eq!(g.distance("a", "y"), Some(5));
        assert_table_matches_bfs(&g);
    }

    #[test]
    fn disconnected_nodes_have_no_distance() {
        let mut g = line();
        g.add_edge("x", "y");
        assert_eq!(g.distance("a", "x"), None);
        assert!(!g.within_hops("a", "x", 100));
    }
}
