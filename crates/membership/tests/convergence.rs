//! Shuffle dynamics over time: the overlay keeps mixing while preserving
//! its invariants.

use egm_membership::{bootstrap_views, PartialView, ViewConfig};
use egm_rng::Rng;
use egm_simnet::NodeId;
use std::collections::HashSet;

/// Drives `rounds` of random shuffles directly (request + reply), as the
/// simulator would, and returns the evolved views.
fn shuffle_rounds(mut views: Vec<PartialView>, rounds: usize, rng: &mut Rng) -> Vec<PartialView> {
    let n = views.len();
    for _ in 0..rounds {
        let initiator = rng.range_usize(0, n);
        let Some((partner, request)) = views[initiator].start_shuffle(rng) else {
            continue;
        };
        let reply = views[partner.index()].handle_shuffle(rng, NodeId(initiator), request);
        if let Some((back, msg)) = reply {
            views[back.index()].handle_shuffle(rng, partner, msg);
        }
    }
    views
}

#[test]
fn long_shuffling_preserves_invariants() {
    let mut rng = Rng::seed_from_u64(1);
    let config = ViewConfig {
        capacity: 8,
        shuffle_size: 4,
    };
    let views = bootstrap_views(40, &config, &mut rng);
    let views = shuffle_rounds(views, 5000, &mut rng);
    for (i, v) in views.iter().enumerate() {
        assert!(v.len() <= 8);
        assert!(!v.contains(NodeId(i)), "node {i} contains itself");
        let set: HashSet<_> = v.peers().collect();
        assert_eq!(set.len(), v.len(), "duplicates at node {i}");
        assert!(v.peers().all(|p| p.index() < 40));
    }
}

#[test]
fn shuffling_changes_views_over_time() {
    let mut rng = Rng::seed_from_u64(2);
    let config = ViewConfig {
        capacity: 8,
        shuffle_size: 4,
    };
    let initial = bootstrap_views(30, &config, &mut rng);
    let snapshot: Vec<Vec<NodeId>> = initial.iter().map(|v| v.peers().collect()).collect();
    let evolved = shuffle_rounds(initial, 2000, &mut rng);
    let changed = evolved
        .iter()
        .zip(&snapshot)
        .filter(|(v, old)| {
            let now: HashSet<_> = v.peers().collect();
            let before: HashSet<_> = old.iter().copied().collect();
            now != before
        })
        .count();
    assert!(
        changed > 20,
        "only {changed}/30 views changed after 2000 shuffles"
    );
}

#[test]
fn shuffled_overlay_remains_weakly_connected() {
    // Union of view edges (undirected) should form one connected component
    // after heavy shuffling — the property that keeps gossip reliable.
    let mut rng = Rng::seed_from_u64(3);
    let config = ViewConfig {
        capacity: 8,
        shuffle_size: 4,
    };
    let views = shuffle_rounds(bootstrap_views(50, &config, &mut rng), 5000, &mut rng);
    let n = views.len();
    let mut adj = vec![Vec::new(); n];
    for (i, v) in views.iter().enumerate() {
        for p in v.peers() {
            adj[i].push(p.index());
            adj[p.index()].push(i);
        }
    }
    let mut seen = vec![false; n];
    let mut stack = vec![0usize];
    seen[0] = true;
    let mut count = 1;
    while let Some(v) = stack.pop() {
        for &u in &adj[v] {
            if !seen[u] {
                seen[u] = true;
                count += 1;
                stack.push(u);
            }
        }
    }
    assert_eq!(count, n, "overlay fell apart after shuffling");
}

#[test]
fn coverage_spreads_through_shuffles() {
    // A node initially knowing few peers learns about many distinct nodes
    // over time through shuffling.
    let mut rng = Rng::seed_from_u64(4);
    let config = ViewConfig {
        capacity: 6,
        shuffle_size: 3,
    };
    let mut views = bootstrap_views(40, &config, &mut rng);
    let mut met: HashSet<NodeId> = views[0].peers().collect();
    for _ in 0..3000 {
        let initiator = rng.range_usize(0, 40);
        let Some((partner, request)) = views[initiator].start_shuffle(&mut rng) else {
            continue;
        };
        let reply = views[partner.index()].handle_shuffle(&mut rng, NodeId(initiator), request);
        if let Some((back, msg)) = reply {
            views[back.index()].handle_shuffle(&mut rng, partner, msg);
        }
        met.extend(views[0].peers());
    }
    assert!(
        met.len() > 25,
        "node 0 met only {} distinct peers over 3000 shuffles",
        met.len()
    );
}
