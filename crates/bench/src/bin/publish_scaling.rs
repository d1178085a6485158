//! `publish-scaling`: how does **edit-publication latency** scale with
//! grammar size?
//!
//! The paper's thesis (§6, §8) is that an interactive edit must cost what
//! it *invalidates*, not what the language definition has accumulated.
//! This bench pits the two fork strategies against each other on synthetic
//! chain grammars of ~100 / ~1000 / ~5000 productions whose edit rule
//! invalidates a **constant** number of item sets:
//!
//! * **persistent** — the serving path: `IpgServer::modify` forks the
//!   epoch structurally shared (O(#chunks) `Arc` bumps) and the §6 pass
//!   copies-on-write only the chunks holding invalidated states. Expected
//!   flat (≤2x from smallest to largest size).
//! * **deep-fork** — the seed behaviour of this PR, reproduced by
//!   `IpgSession::unshare_all` after the clone: every node chunk, kernel
//!   shard, snapshot chunk and grammar table is copied per edit. Expected
//!   ~linear in grammar size.
//!
//! Chain-grammar nodes are tiny, so the chain rows cannot see what a
//! node costs to copy. The **wide** rows repeat the persistent
//! measurement on `wide_synthetic_workload` grammars of 1000 and 5000
//! productions, whose nodes carry hundreds of kernel items, and record
//! `ADD-RULE` and `DELETE-RULE` separately:
//!
//! * **lazy** — only the states that parses of 64 sentences touched
//!   exist; each edit is followed (untimed) by those parses again, the
//!   interactive edit → parse loop;
//! * **warmed** — the graph is fully expanded and every row published;
//!   each edit is followed (untimed) by a full re-warm. These rows still
//!   carry `MODIFY`'s candidate scan, which probes every node of every
//!   chunk whose symbol summary contains the edited left-hand side.
//!
//! The wide rows are recorded, not gated.
//!
//! Prints a table and writes `BENCH_publish_scaling.json`; the run fails
//! its own target check (exit code 1) if the persistent store's edit
//! latency more than doubles from the smallest to the largest grammar.
//!
//! Run with `cargo run --release -p ipg-bench --bin publish-scaling`.

use std::fmt::Write as _;
use std::time::Instant;

use ipg::{IpgServer, IpgSession};
use ipg_bench::{mean_max_us, synthetic_workload, wide_synthetic_workload};
use ipg_grammar::SymbolId;

struct Row {
    productions: usize,
    states: usize,
    chunks: usize,
    persistent_mean_us: f64,
    persistent_max_us: f64,
    deep_mean_us: f64,
    deep_max_us: f64,
    /// Fraction of storage chunks shared between the pre- and post-edit
    /// epoch under the persistent store.
    shared_fraction: f64,
}

fn measure(productions: usize, edits: usize, deep_edits: usize) -> Row {
    let workload = synthetic_workload(productions);
    let (lhs, rhs) = workload.edit.clone();

    // ---- persistent (the serving path) --------------------------------
    let session = IpgSession::new(workload.grammar.clone());
    session.graph().expand_all(session.grammar());
    let states = session.graph().num_live();
    let chunks = session.graph().num_chunks();
    let server = IpgServer::new(session);
    assert!(server.parse(&workload.sentence).accepted, "sanity parse");

    // Chunk sharing across one publication (measured before the timing
    // loop so the pins don't skew reclamation).
    let shared_fraction = {
        let before = server.current_epoch();
        server.modify(|s| {
            s.add_rule(lhs, rhs.clone());
        });
        let after = server.current_epoch();
        let shared = before
            .session()
            .graph()
            .shared_chunks_with(after.session().graph());
        let fraction =
            shared.iter().filter(|&&s| s).count() as f64 / shared.len().max(1) as f64;
        server.modify(|s| {
            s.remove_rule(lhs, &rhs).expect("edit rule was just added");
        });
        fraction
    };

    // Warm-up edit pair, then timed steady-state cycles.
    server.modify(|s| {
        s.add_rule(lhs, rhs.clone());
    });
    server.modify(|s| {
        s.remove_rule(lhs, &rhs).expect("edit rule was just added");
    });
    let mut persistent: Vec<f64> = Vec::with_capacity(edits);
    for i in 0..edits {
        let start = Instant::now();
        if i % 2 == 0 {
            server.modify(|s| {
                s.add_rule(lhs, rhs.clone());
            });
        } else {
            server.modify(|s| {
                s.remove_rule(lhs, &rhs).expect("edit rule was just added");
            });
        }
        persistent.push(start.elapsed().as_secs_f64());
    }
    assert!(server.parse(&workload.sentence).accepted, "still serving");

    // ---- deep fork (the seed behaviour of this PR) --------------------
    let mut base = IpgSession::new(workload.grammar.clone());
    base.graph().expand_all(base.grammar());
    let mut deep: Vec<f64> = Vec::with_capacity(deep_edits);
    for i in 0..deep_edits {
        let start = Instant::now();
        let mut fork = base.clone();
        fork.unshare_all();
        if i % 2 == 0 {
            fork.add_rule(lhs, rhs.clone());
        } else {
            fork.remove_rule(lhs, &rhs).expect("edit rule was just added");
        }
        deep.push(start.elapsed().as_secs_f64());
        base = fork; // "publish" the fork, as the old server did
    }

    let (persistent_mean_us, persistent_max_us) = mean_max_us(&persistent);
    let (deep_mean_us, deep_max_us) = mean_max_us(&deep);
    Row {
        productions,
        states,
        chunks,
        persistent_mean_us,
        persistent_max_us,
        deep_mean_us,
        deep_max_us,
        shared_fraction,
    }
}

struct WideRow {
    productions: usize,
    warmed: bool,
    states: usize,
    add_mean_us: f64,
    add_max_us: f64,
    delete_mean_us: f64,
    delete_max_us: f64,
    chunks_cowed_per_edit: f64,
}

/// Add/delete publication latency on a wide grammar: `cycles` rounds of
/// `ADD-RULE` then `DELETE-RULE` of a five-terminal alternative (longer
/// than any generated one, so never a duplicate), cycling the left-hand
/// side over the grammar's eight non-terminals. Only the `modify` calls
/// are timed; the parses (lazy) or re-warm (warmed) after each edit are
/// not. The parsed sentences are the all-terminal alternatives of `W0`
/// (the start symbol's only rule derives `W0`), so they touch the graph
/// along many distinct prefixes.
fn measure_wide(productions: usize, warmed: bool, cycles: usize) -> WideRow {
    let workload = wide_synthetic_workload(productions);
    let g = &workload.grammar;
    let sentences: Vec<Vec<SymbolId>> = g
        .rules_for(g.symbol("W0").expect("wide start non-terminal"))
        .map(|rule| rule.rhs.clone())
        .filter(|rhs| rhs.iter().all(|&s| g.is_terminal(s)))
        .take(64)
        .collect();
    let nts: Vec<SymbolId> = (0..8)
        .map(|i| g.symbol(&format!("W{i}")).expect("wide non-terminal"))
        .collect();
    let rhs: Vec<SymbolId> = (0..5)
        .map(|i| g.symbol(&format!("t{i:02}")).expect("wide terminal"))
        .collect();
    let session = IpgSession::new(workload.grammar.clone());
    let server = IpgServer::new(session);
    let refresh = || {
        if warmed {
            server.warm();
        }
        for sentence in &sentences {
            assert!(server.parse(sentence).accepted, "still serving");
        }
    };
    refresh();
    let states = server.current_epoch().session().graph().num_live();
    let cowed_before = server.stats().graph.chunks_cowed;
    let (mut adds, mut deletes) = (Vec::with_capacity(cycles), Vec::with_capacity(cycles));
    for i in 0..cycles {
        let lhs = nts[i % nts.len()];
        let start = Instant::now();
        server.modify(|s| {
            s.add_rule(lhs, rhs.clone());
        });
        adds.push(start.elapsed().as_secs_f64());
        refresh();
        let start = Instant::now();
        server.modify(|s| {
            s.remove_rule(lhs, &rhs).expect("edit rule was just added");
        });
        deletes.push(start.elapsed().as_secs_f64());
        refresh();
    }
    let cowed = server.stats().graph.chunks_cowed - cowed_before;
    let (add_mean_us, add_max_us) = mean_max_us(&adds);
    let (delete_mean_us, delete_max_us) = mean_max_us(&deletes);
    WideRow {
        productions,
        warmed,
        states,
        add_mean_us,
        add_max_us,
        delete_mean_us,
        delete_max_us,
        chunks_cowed_per_edit: cowed as f64 / (2 * cycles) as f64,
    }
}

fn main() {
    let sizes = [100usize, 1000, 5000];
    let edits = 200;
    let deep_edits = 40;

    let rows: Vec<Row> = sizes
        .iter()
        .map(|&size| measure(size, edits, deep_edits))
        .collect();
    let wide_cycles = 40;
    let wide_rows: Vec<WideRow> = [
        (1000usize, false),
        (5000, false),
        (1000, true),
        (5000, true),
    ]
    .iter()
    .map(|&(size, warmed)| measure_wide(size, warmed, wide_cycles))
    .collect();

    println!("Edit-publication latency vs grammar size ({edits} persistent / {deep_edits} deep edits per size)");
    println!("productions |  states | chunks | persistent mean/max µs | deep-fork mean/max µs | chunks shared");
    for row in &rows {
        println!(
            "{:>11} | {:>7} | {:>6} | {:>10.1} / {:>8.1} | {:>9.1} / {:>9.1} | {:>11.1}%",
            row.productions,
            row.states,
            row.chunks,
            row.persistent_mean_us,
            row.persistent_max_us,
            row.deep_mean_us,
            row.deep_max_us,
            row.shared_fraction * 100.0,
        );
    }

    let first = &rows[0];
    let last = &rows[rows.len() - 1];
    let persistent_growth = last.persistent_mean_us / first.persistent_mean_us;
    let deep_growth = last.deep_mean_us / first.deep_mean_us;
    println!(
        "\npersistent-store edit latency growth {}→{} productions: {persistent_growth:.2}x (target ≤ 2x)",
        first.productions, last.productions
    );
    println!("deep-fork edit latency growth: {deep_growth:.2}x (the cost the persistent store removes)");

    println!("\nWide grammars ({wide_cycles} add/delete cycles per row; not gated)");
    println!("productions | graph  |  states | add mean/max µs      | delete mean/max µs   | chunks COWed/edit");
    for row in &wide_rows {
        println!(
            "{:>11} | {:<6} | {:>7} | {:>8.1} / {:>9.1} | {:>8.1} / {:>9.1} | {:>8.2}",
            row.productions,
            if row.warmed { "warmed" } else { "lazy" },
            row.states,
            row.add_mean_us,
            row.add_max_us,
            row.delete_mean_us,
            row.delete_max_us,
            row.chunks_cowed_per_edit,
        );
    }

    let mut json = String::from(
        "{\n  \"benchmark\": \"publish-scaling\",\n  \"workload\": \"synthetic-chain\",\n  \"rows\": [\n",
    );
    for (i, row) in rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"productions\": {}, \"states\": {}, \"chunks\": {}, \
             \"persistent_mean_us\": {:.2}, \"persistent_max_us\": {:.2}, \
             \"deep_fork_mean_us\": {:.2}, \"deep_fork_max_us\": {:.2}, \
             \"shared_chunk_fraction\": {:.4}}}{}",
            row.productions,
            row.states,
            row.chunks,
            row.persistent_mean_us,
            row.persistent_max_us,
            row.deep_mean_us,
            row.deep_max_us,
            row.shared_fraction,
            if i + 1 < rows.len() { "," } else { "" },
        );
    }
    json.push_str("  ],\n  \"wide_rows\": [\n");
    for (i, row) in wide_rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"workload\": \"wide-synthetic\", \"productions\": {}, \"graph\": \"{}\", \
             \"states\": {}, \"add_mean_us\": {:.2}, \"add_max_us\": {:.2}, \
             \"delete_mean_us\": {:.2}, \"delete_max_us\": {:.2}, \
             \"chunks_cowed_per_edit\": {:.3}}}{}",
            row.productions,
            if row.warmed { "warmed" } else { "lazy" },
            row.states,
            row.add_mean_us,
            row.add_max_us,
            row.delete_mean_us,
            row.delete_max_us,
            row.chunks_cowed_per_edit,
            if i + 1 < wide_rows.len() { "," } else { "" },
        );
    }
    let _ = write!(
        json,
        "  ],\n  \"persistent_growth\": {persistent_growth:.3},\n  \"deep_fork_growth\": {deep_growth:.3}\n}}\n"
    );
    std::fs::write("BENCH_publish_scaling.json", &json).expect("write BENCH_publish_scaling.json");
    println!("\nwrote BENCH_publish_scaling.json");

    if persistent_growth > 2.0 {
        eprintln!(
            "WARNING: persistent-store edit latency grew {persistent_growth:.2}x from {} to {} productions (target ≤ 2x)",
            first.productions, last.productions
        );
    }
    // Hard gate with headroom for scheduler noise on shared CI runners:
    // anything past 2.5x (or within a factor of four of the deep fork's
    // growth) means structural sharing regressed, not that the run was
    // unlucky.
    if persistent_growth > 2.5 || persistent_growth * 4.0 > deep_growth {
        eprintln!("FAIL: edit publication no longer scales like O(invalidated)");
        std::process::exit(1);
    }
}
