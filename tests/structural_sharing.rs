//! Structural sharing of the persistent item-set store: a `MODIFY`
//! publication forks the graph by cloning chunk pointers, and the §6
//! invalidation copies-on-write exactly the chunks holding invalidated
//! states. These tests pin that down with `Arc::ptr_eq`-level assertions
//! (via [`ItemSetGraph::shared_chunks_with`] / [`ChunkHandle::ptr_eq`])
//! on a synthetic grammar large enough to span several storage chunks.

use std::collections::BTreeSet;

use ipg::{IpgServer, IpgSession, ItemSetGraph, ItemSetKind};
use ipg_bench::{synthetic_workload, wide_synthetic_workload};

/// Chunk indices of the fork's invalidated (non-complete) states.
fn dirty_chunks(graph: &ItemSetGraph) -> BTreeSet<usize> {
    graph
        .live_nodes()
        .filter(|n| n.kind != ItemSetKind::Complete)
        .map(|n| ItemSetGraph::chunk_of_state(n.id))
        .collect()
}

#[test]
fn modify_fork_shares_every_chunk_without_invalidated_states() {
    let workload = synthetic_workload(2000);
    let (lhs, rhs) = workload.edit.clone();
    let session = IpgSession::new(workload.grammar.clone());
    session.graph().expand_all(session.grammar());
    assert!(
        session.graph().num_chunks() >= 4,
        "fixture must span several chunks, got {}",
        session.graph().num_chunks()
    );
    let server = IpgServer::new(session);

    let before = server.current_epoch();
    server.modify(|s| {
        s.add_rule(lhs, rhs.clone());
    });
    let after = server.current_epoch();

    let dirty = dirty_chunks(after.session().graph());
    assert!(!dirty.is_empty(), "the edit invalidated something");
    let invalidations = after
        .session()
        .graph()
        .live_nodes()
        .filter(|n| n.kind != ItemSetKind::Complete)
        .count();
    assert!(
        invalidations <= 4,
        "the synthetic edit has constant impact, got {invalidations}"
    );

    // Arc-level sharing: exactly the chunks holding invalidated states
    // were copied on write; every other chunk is the same storage.
    let shared = before
        .session()
        .graph()
        .shared_chunks_with(after.session().graph());
    assert_eq!(shared.len(), after.session().graph().num_chunks());
    for (c, &is_shared) in shared.iter().enumerate() {
        assert_eq!(
            is_shared,
            !dirty.contains(&c),
            "chunk {c} must be shared iff it holds no invalidated state"
        );
    }
    assert!(shared.iter().filter(|&&s| s).count() >= shared.len() - 2);

    // The same fact through the opaque handles.
    let before_handles = before.session().graph().chunk_handles();
    let after_handles = after.session().graph().chunk_handles();
    for (c, (b, a)) in before_handles.iter().zip(&after_handles).enumerate() {
        assert_eq!(b.ptr_eq(a), shared[c], "handle ptr_eq agrees, chunk {c}");
    }

    // The retired epoch still answers for the pre-edit grammar.
    assert!(before
        .session()
        .graph()
        .live_nodes()
        .all(|n| n.kind == ItemSetKind::Complete));
    assert!(before.session().parse(&workload.sentence).accepted);
    assert!(after.session().parse(&workload.sentence).accepted);
}

#[test]
fn post_fork_expansion_writes_through_cow_without_touching_the_old_epoch() {
    let workload = synthetic_workload(2000);
    let (lhs, rhs) = workload.edit.clone();
    let session = IpgSession::new(workload.grammar.clone());
    session.graph().expand_all(session.grammar());
    let server = IpgServer::new(session);
    let before = server.current_epoch();
    server.modify(|s| {
        s.add_rule(lhs, rhs.clone());
    });

    // Drive the new epoch: re-expansion (RE-EXPAND + refcount GC) runs on
    // the fork, through the COW layer.
    assert!(server.parse(&workload.sentence).accepted);
    server.warm();

    // The pinned old epoch was never written: still fully complete, same
    // state count, still parsing the old language.
    assert!(before
        .session()
        .graph()
        .live_nodes()
        .all(|n| n.kind == ItemSetKind::Complete));
    assert!(before.session().parse(&workload.sentence).accepted);
    // And the fork's writes were COW-counted.
    assert!(server.stats().graph.chunks_cowed > 0);
}

#[test]
fn unshare_all_reproduces_the_deep_fork() {
    let workload = synthetic_workload(500);
    let session = IpgSession::new(workload.grammar.clone());
    session.graph().expand_all(session.grammar());
    let mut fork = session.clone();
    assert!(fork
        .graph()
        .shared_chunks_with(session.graph())
        .iter()
        .all(|&s| s));
    fork.unshare_all();
    assert!(fork
        .graph()
        .shared_chunks_with(session.graph())
        .iter()
        .all(|&s| !s));
    // Deep or shared, the fork answers identically.
    assert_eq!(
        fork.parse(&workload.sentence).accepted,
        session.parse(&workload.sentence).accepted
    );
}

#[test]
fn modify_fork_shares_every_node_the_edit_does_not_write() {
    // A warmed wide grammar: its nodes carry hundreds of kernel items, so
    // deep-copying a chunk of them is what node-granular sharing avoids.
    let workload = wide_synthetic_workload(500);
    let session = IpgSession::new(workload.grammar.clone());
    session.expand_all();
    assert!(
        session.graph().num_chunks() >= 2,
        "fixture spans several chunks"
    );

    let mut fork = session.clone();
    let g = fork.grammar();
    let lhs = g.symbol("W3").expect("wide non-terminal");
    // Five terminals: longer than any generated alternative.
    let rhs: Vec<_> = (0..5)
        .map(|i| g.symbol(&format!("t{i:02}")).expect("wide terminal"))
        .collect();
    fork.add_rule(lhs, rhs);

    // The edit wrote exactly the invalidated states; every other node is
    // the same allocation on both sides.
    let written: BTreeSet<usize> = fork
        .graph()
        .live_nodes()
        .filter(|n| n.kind != ItemSetKind::Complete)
        .map(|n| n.id.index())
        .collect();
    assert!(!written.is_empty(), "the edit invalidated something");
    let shared_nodes = session.graph().shared_nodes_with(fork.graph());
    assert_eq!(shared_nodes.len(), session.graph().stats().nodes_created);
    for (i, &is_shared) in shared_nodes.iter().enumerate() {
        assert_eq!(
            is_shared,
            !written.contains(&i),
            "node {i} must be shared iff the edit did not write it"
        );
    }
    // Including nodes inside the chunks the edit copied.
    let shared_chunks = session.graph().shared_chunks_with(fork.graph());
    let copied_chunks = shared_chunks.iter().filter(|&&s| !s).count();
    assert!(copied_chunks > 0, "the edit copied a chunk");
    let shared_in_copied = shared_nodes
        .iter()
        .enumerate()
        .filter(|&(i, &s)| {
            s && !shared_chunks[ItemSetGraph::chunk_of_state(ipg_lr::StateId::from_index(i))]
        })
        .count();
    assert!(
        shared_in_copied > 0,
        "a copied chunk still shares the nodes the edit did not write"
    );

    // Byte accounting stays exact on both sides, before and after the
    // fork re-expands.
    let assert_exact = |s: &IpgSession, step: &str| {
        assert_eq!(
            s.graph().resident_bytes(),
            s.graph().recompute_resident_bytes(),
            "cached bytes drifted from the deep walk ({step})"
        );
        let rows: usize = s.chunk_accounting().iter().map(|(_, b)| b).sum();
        assert_eq!(rows, s.resident_bytes(), "accounting rows ({step})");
    };
    assert_exact(&session, "base after the fork's edit");
    assert_exact(&fork, "fork after the edit");
    fork.expand_all();
    assert_exact(&session, "base after the fork re-expanded");
    assert_exact(&fork, "fork after re-expansion");
    assert!(session
        .graph()
        .live_nodes()
        .all(|n| n.kind == ItemSetKind::Complete));
    assert!(session.parse(&workload.sentence).accepted);
    assert!(fork.parse(&workload.sentence).accepted);
}
