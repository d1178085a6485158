//! Reproduces the §5.2 claim: "for a larger grammar like that of SDF only
//! 60 percent of the parse table had to be generated to parse the SDF
//! definition of SDF itself".
//!
//! For every measurement input this binary parses the input with IPG
//! starting from an empty table and reports which fraction of the full
//! LR(0) table was generated.
//!
//! Run with `cargo run --release -p ipg-bench --bin lazy_fraction`.

use ipg::{GcPolicy, ItemSetGraph, LazyTables};
use ipg_bench::SdfWorkload;
use ipg_glr::GssParser;
use ipg_lr::Lr0Automaton;

fn main() {
    let workload = SdfWorkload::load();
    let full = Lr0Automaton::build(&workload.grammar).num_states();
    println!(
        "full LR(0) table for the SDF grammar: {full} states\n"
    );
    println!("input        tokens   states generated   fraction of full table");
    for input in &workload.inputs {
        let graph = ItemSetGraph::with_policy(&workload.grammar, GcPolicy::RefCount);
        let parser = GssParser::new(&workload.grammar);
        let accepted = parser.recognize(
            &LazyTables::new(&workload.grammar, &graph).unwrap(),
            &input.tokens,
        );
        assert!(accepted, "{} must be accepted", input.name);
        let size = graph.size();
        println!(
            "{:<12} {:>6}   {:>6} complete     {:>5.1}%  (paper reports ~60% for SDF.sdf)",
            input.name,
            input.tokens.len(),
            size.complete,
            size.coverage_of(full) * 100.0
        );
    }

    // Cumulative coverage: parse all four inputs against one graph.
    let graph = ItemSetGraph::with_policy(&workload.grammar, GcPolicy::RefCount);
    let parser = GssParser::new(&workload.grammar);
    for input in &workload.inputs {
        parser.recognize(
            &LazyTables::new(&workload.grammar, &graph).unwrap(),
            &input.tokens,
        );
    }
    println!(
        "\nall four inputs against one lazily generated table: {:.1}% of the full table",
        graph.size().coverage_of(full) * 100.0
    );
    let stats = graph.stats();
    println!(
        "lazy expansion stages: {} expansions, {} kernel lookups ({} hits), \
         {} µs computing (closure, successors, reductions), {} µs committing (interning, node writes)",
        stats.expansions,
        stats.kernel_lookups,
        stats.kernel_hits,
        stats.expand_compute_us,
        stats.expand_commit_us,
    );
}
