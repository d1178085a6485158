//! The lazily generated, incrementally maintained graph of item sets — the
//! heart of IPG (§5 and §6 of the paper) — in a **shared-table** design:
//! any number of parser threads may *read* the graph concurrently while
//! expansion and `MODIFY` remain serialized writes.
//!
//! Every set of items lives in an arena and goes through the life cycle
//!
//! ```text
//! initial --EXPAND--> complete --MODIFY--> initial            (no GC)
//! initial --EXPAND--> complete --MODIFY--> dirty --RE-EXPAND--> complete   (refcount GC)
//! ```
//!
//! * `EXPAND` (§4/§5) computes the closure of the kernel, creates successor
//!   kernels and records transitions and reductions;
//! * `MODIFY` (§6.1) adds or deletes a grammar rule and invalidates exactly
//!   the complete item sets that had a transition on the rule's left-hand
//!   side (plus the start item set when the rule defines `START`);
//! * reference-count garbage collection (§6.2) reclaims item sets that are
//!   no longer referenced after a re-expansion; an optional mark-and-sweep
//!   pass (suggested by the paper as future work) handles cycles.
//!
//! ## Concurrency design
//!
//! Node storage is a **persistent chunk store**: node `id` lives in slot
//! `id % CHUNK_SIZE` of chunk `id / CHUNK_SIZE`; each chunk is an
//! immutable-once-shared `Arc<NodeChunk>` of `Arc`'d nodes. The
//! steady-state read path (the lazy tables) never touches the store at all — it reads the epoch-published
//! [`TableSnapshot`] — while the accessor methods (`try_node`, `size`, …)
//! take one store-wide `RwLock` read.
//!
//! All structural mutation (EXPAND / RE-EXPAND / row publication / MODIFY /
//! GC) is funnelled through one internal `Mutex` (the *writer*), which
//! additionally owns the kernel index, the work counters and the reusable
//! scratch buffers; node writes go through the store's write lock and
//! **copy on write** at two levels: a chunk still shared with another
//! fork is copied as an array of node pointers, and a node still shared
//! is deep-copied by the one node write point, `NodeChunk::update`. Lock
//! order is always inner mutex → store lock → published lock, one at a
//! time, so writers serialize among themselves and cannot deadlock.
//!
//! ## The two halves of `EXPAND`
//!
//! Every expansion splits into a **read-only half** and a **write half**.
//! The read-only half (`compute_expansion_of`) closes the kernel and
//! partitions the closure on flat, reused memory ([`ExpandScratch`]): the
//! closure is a vector, each non-terminal's rules are added once per
//! closure (a stamp per non-terminal, not a set lookup), and the advanced
//! items are scattered into dense symbol-indexed buckets. It returns the
//! successor kernels as sorted runs of one vector, in symbol order, each
//! with a 64-bit fingerprint, plus the reductions and the accepting flag.
//! The eager generator's `closure` / `partition_by_next_symbol` /
//! `completed_items` compute the same thing over `BTreeSet`s and are its
//! test oracle.
//!
//! The write half (`commit_expansion_locked`) interns each successor run
//! in the kernel index, which maps fingerprints to candidate states and
//! confirms a candidate against its stored kernel; only a genuinely new
//! state builds a `BTreeSet` kernel. It then bumps the successors'
//! reference counts and writes the completed node.
//!
//! ## Bulk expansion (parallel warm)
//!
//! Steady-state misses and `MODIFY` keep the serialized writer above —
//! one state at a time, latency-bound, with the reused scratch of the
//! writer. Bulk cold-start expansion ([`ItemSetGraph::expand_all_parallel`])
//! runs *pipelined rounds*: the pending frontier is collected in id order
//! and its kernels are copied out of the store into one flat vector, the
//! read-only halves fan out over N worker threads (pure functions of
//! grammar + kernel, one [`ExpandScratch`] per worker, no graph locks),
//! and the committer consumes results in frontier order *as they arrive*
//! (`RoundQueue`), so interning overlaps with the remaining closures
//! instead of waiting for the whole round. Because closure depends only
//! on the grammar and the kernel, and kernels are interned in exactly the
//! order the serial loop would have used, the resulting graph — state
//! numbering, kernel index, rows — is **bit-identical** to a serial warm
//! (property-tested). Row publication parallelises the same way: chunks
//! are unshared serially, then disjoint chunk slices are filled
//! concurrently and published in one snapshot swap. The whole warm holds
//! the writer mutex, so it serializes with `MODIFY` like any other writer;
//! frontiers smaller than `PARALLEL_EXPAND_MIN_BATCH` expand inline, so
//! chain-shaped grammars never pay a spawn.
//!
//! ## Forking (epoch publication)
//!
//! `Clone` forks the graph *structurally shared*: it clones O(#chunks)
//! `Arc`s (the chunk pointers, the sharded kernel index, the published
//! snapshot), not the nodes. The §6 invalidation pass of a `MODIFY`
//! running on the fork then copies the pointer arrays of exactly the
//! chunks that hold invalidated states and deep-copies only the
//! invalidated nodes themselves — every node the edit does not write
//! stays shared with the pre-edit epoch, even inside a copied chunk. Node
//! size never enters the copy. Retired epochs keep the old chunk `Arc`s
//! alive until their last reader leaves, at which point only the chunks
//! (and nodes) *not* shared with any live epoch are freed.
//!
//! To find the states to invalidate without scanning every node, each
//! chunk carries a conservative summary of the symbols on which its live
//! complete nodes have transitions; `MODIFY` consults the summaries and
//! probes the nodes of only the chunks that may contain the edited
//! left-hand side. On a lazily touched graph that is a handful of chunks;
//! on a fully expanded wide grammar nearly every summary holds every
//! non-terminal, and the probe becomes the dominant, O(graph) term of an
//! edit.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock, Weak};
use std::time::{Duration, Instant};

use ipg_glr::fxhash::FxHashMap;
use ipg_grammar::{Grammar, GrammarError, RuleId, SymbolId};
use ipg_lr::itemset::{start_kernel, ItemSet};
use ipg_lr::{Item, StateId};

use crate::stats::{GenStats, GraphSize};

/// The life-cycle stage of a set of items (the paper's `type` field).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ItemSetKind {
    /// The kernel is known but transitions and reductions have not been
    /// computed yet.
    Initial,
    /// The item set was complete, but a grammar modification invalidated
    /// it. Its *old* transitions are retained so that reference counts can
    /// be adjusted when it is re-expanded (§6.2).
    Dirty,
    /// Transitions and reductions are valid for the current grammar.
    Complete,
}

/// Garbage-collection policy for item sets that become unreachable after
/// grammar modifications.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum GcPolicy {
    /// §6.1: invalidated item sets become `Initial`; nothing is ever
    /// reclaimed ("when everything is retained, we end up with too much
    /// garbage").
    Retain,
    /// §6.2: invalidated item sets become `Dirty`; reference counting
    /// reclaims item sets whose count drops to zero after re-expansion.
    #[default]
    RefCount,
    /// Reference counting plus a mark-and-sweep pass whenever the fraction
    /// of dirty/garbage item sets exceeds the given percentage (0–100) of
    /// the graph — the paper's suggested remedy for cyclic references.
    RefCountWithSweep {
        /// Sweep when `100 * (live - reachable) / live` exceeds this value.
        threshold_percent: u8,
    },
}

/// Frontier rounds smaller than this are expanded inline even when the
/// caller asked for a parallel warm: spawning workers costs more than a
/// handful of closures, and chain-shaped grammars (whose frontier is one
/// or two kernels wide per round) should warm exactly like the serial
/// path.
const PARALLEL_EXPAND_MIN_BATCH: usize = 8;

/// Fills the dense action rows of every live complete node in one storage
/// chunk (which the caller has made unique). Free function so the parallel
/// warm can run it on worker threads against disjoint chunks.
fn build_rows_in_chunk(chunk: &mut NodeChunk, num_symbols: usize, version: u64) -> usize {
    let mut built = 0;
    for slot in 0..chunk.nodes.len() {
        let node = &chunk.nodes[slot];
        if !(node.alive && node.kind == ItemSetKind::Complete) || node.row.is_some() {
            continue;
        }
        chunk.update(slot, |node| {
            node.row = Some(ActionRow::of(node, num_symbols, version))
        });
        built += 1;
    }
    built
}

/// Assembles the published read-view of one storage chunk (row/reduction
/// clones into fresh `Arc`s). Free function so snapshot rebuilds can run
/// it chunk-parallel.
fn snap_chunk_of(chunk: &NodeChunk) -> Arc<SnapChunk> {
    let mut entries: SnapChunk = vec![None; CHUNK_SIZE];
    for (slot, node) in chunk.nodes.iter().enumerate() {
        let (Some(row), true) = (&node.row, node.alive && node.kind == ItemSetKind::Complete)
        else {
            continue;
        };
        entries[slot] = Some(Arc::new(PublishedState {
            row: row.clone(),
            reductions: node.reductions.clone(),
            accepting: node.accepting,
        }));
    }
    Arc::new(entries)
}

/// The result of the read-only half of `EXPAND` (closure, successor
/// partition, reduction analysis), computed without touching the writer
/// state. Workers of the parallel warm produce these concurrently; the
/// serial commit step interns the successor kernels and writes the node.
/// The closure itself is a temporary of the computation: everything the
/// graph keeps of it is the successor partition and the reductions.
///
/// The successor kernels are flat: one sorted run of items per successor,
/// concatenated in symbol order in `items`, each with the fingerprint the
/// kernel index is keyed by. The serial path reuses one of these per
/// graph, so a lazy expansion allocates nothing for its successors unless
/// it creates a new state.
#[derive(Debug, Default)]
struct ComputedExpansion {
    /// The successor kernels' items, run after run.
    items: Vec<Item>,
    /// One entry per successor kernel, in symbol order.
    successors: Vec<Successor>,
    reductions: Vec<RuleId>,
    accepting: bool,
}

/// One successor kernel of a [`ComputedExpansion`]: the transition symbol
/// and the kernel's run `items[previous end..end]`.
#[derive(Clone, Copy, Debug)]
struct Successor {
    symbol: SymbolId,
    end: usize,
    fingerprint: u64,
}

impl ComputedExpansion {
    /// The successor kernels in symbol order.
    fn successor_runs(&self) -> impl Iterator<Item = (&Successor, &[Item])> {
        let mut start = 0;
        self.successors.iter().map(move |succ| {
            let run = &self.items[start..succ.end];
            start = succ.end;
            (succ, run)
        })
    }
}

/// Reusable scratch of the read-only half of `EXPAND`. The caller owns it
/// — the writer state for the serial path, one per worker in the parallel
/// warm — so a closure allocates nothing once the buffers have grown to the
/// grammar's widest state.
#[derive(Debug, Default)]
struct ExpandScratch {
    /// The closure being built: the kernel's items first, in kernel
    /// order, then the dot-0 items the closure adds. Doubles as the work
    /// list.
    items: Vec<Item>,
    /// `(symbol after the dot, advanced item)` for every closure item that
    /// is not complete, in closure order.
    moved: Vec<(SymbolId, Item)>,
    /// Per non-terminal: the stamp of the last closure that added its
    /// rules, so each non-terminal's rules are added once per closure.
    stamps: Vec<u32>,
    /// The current closure's stamp.
    stamp: u32,
    /// Per symbol: the size of its successor kernel, then the write cursor
    /// into its run. All zero between closures.
    buckets: Vec<u32>,
    /// The symbols with a non-empty bucket in the current closure.
    touched: Vec<SymbolId>,
}

/// The read-only half of `EXPAND` as a pure function of the grammar and a
/// kernel (given in sorted order): closure, successor partition and
/// reduction analysis, written into `out`. Equivalent to the eager
/// generator's `closure` / `partition_by_next_symbol` / `completed_items`,
/// which remain the test oracle, but on flat, reused memory: the closure is
/// a vector, a non-terminal's rules are added once (stamped, not looked up
/// in a set), and the successors are scattered into dense symbol-indexed
/// buckets instead of a map of trees.
fn compute_expansion_of(
    grammar: &Grammar,
    kernel: impl IntoIterator<Item = Item>,
    scratch: &mut ExpandScratch,
    out: &mut ComputedExpansion,
) {
    let ExpandScratch {
        items,
        moved,
        stamps,
        stamp,
        buckets,
        touched,
    } = scratch;
    let num_symbols = grammar.symbols().len();
    if stamps.len() < num_symbols {
        stamps.resize(num_symbols, 0);
        buckets.resize(num_symbols, 0);
    }
    *stamp = stamp.wrapping_add(1);
    if *stamp == 0 {
        stamps.fill(0);
        *stamp = 1;
    }
    items.clear();
    items.extend(kernel);
    moved.clear();
    touched.clear();
    out.items.clear();
    out.successors.clear();
    out.reductions.clear();
    out.accepting = false;

    // Only the START kernel holds dot-0 items; the closure must not add
    // them a second time.
    let kernel_len = items.len();
    let kernel_has_dot0 = items.iter().any(|item| item.dot == 0);
    let start_symbol = grammar.start_symbol();
    let mut next_item = 0;
    while let Some(&item) = items.get(next_item) {
        next_item += 1;
        let rule = grammar.rule(item.rule);
        let Some(&next) = rule.rhs.get(item.dot) else {
            // A completed item of a rule that has been deleted from the
            // grammar must not be reported as a reduction; such items can
            // linger in the kernels of stale (unreachable) item sets.
            if grammar.is_active(item.rule) {
                if rule.lhs == start_symbol {
                    out.accepting = true;
                } else {
                    out.reductions.push(item.rule);
                }
            }
            continue;
        };
        moved.push((next, item.advance()));
        if buckets[next.index()] == 0 {
            touched.push(next);
        }
        buckets[next.index()] += 1;
        if grammar.is_nonterminal(next) && stamps[next.index()] != *stamp {
            stamps[next.index()] = *stamp;
            for added in grammar.rules_for(next).map(|r| Item::start(r.id)) {
                if kernel_has_dot0 && items[..kernel_len].binary_search(&added).is_ok() {
                    continue;
                }
                items.push(added);
            }
        }
    }
    out.reductions.sort_unstable();
    out.reductions.dedup();

    // Lay the successor runs out in symbol order, scatter the advanced
    // items into them, then sort and fingerprint each run.
    touched.sort_unstable();
    out.successors.reserve(touched.len());
    let mut end = 0;
    for &symbol in touched.iter() {
        let size = buckets[symbol.index()] as usize;
        buckets[symbol.index()] = end as u32;
        end += size;
        out.successors.push(Successor {
            symbol,
            end,
            fingerprint: 0,
        });
    }
    out.items.resize(end, Item::start(RuleId::from_index(0)));
    for &(symbol, item) in moved.iter() {
        let cursor = &mut buckets[symbol.index()];
        out.items[*cursor as usize] = item;
        *cursor += 1;
    }
    let mut start = 0;
    for succ in &mut out.successors {
        let run = &mut out.items[start..succ.end];
        run.sort_unstable();
        succ.fingerprint = fingerprint(run.iter());
        buckets[succ.symbol.index()] = 0;
        start = succ.end;
    }
}

/// `true` when `node`'s kernel is exactly `run` (sorted items).
fn kernel_matches(node: &ItemSetNode, run: &[Item]) -> bool {
    node.kernel.len() == run.len() && node.kernel.iter().eq(run)
}

/// The kernel index's 64-bit key of a kernel, from its items in sorted
/// order. Equal kernels always agree; distinct kernels that collide only
/// cost the index one extra kernel comparison (see [`KernelIndex`]).
fn fingerprint<'a>(kernel: impl IntoIterator<Item = &'a Item>) -> u64 {
    let mut hash: u64 = 0x243f_6a88_85a3_08d3;
    for item in kernel {
        let word = ((item.rule.index() as u64) << 32) ^ item.dot as u64;
        hash = (hash ^ word).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        hash ^= hash >> 29;
    }
    hash
}

/// Hand-off queue of one parallel-warm round: workers deposit the computed
/// expansion of frontier slot `i` as soon as it is ready, and the committer
/// consumes the slots strictly in frontier order, blocking only when the
/// next slot in line has not been produced yet. This pipelines the serial
/// commit (kernel interning, refcount bumps, node writes) with the
/// concurrent closure computation — round wall-clock is
/// `max(compute / workers, commit)` instead of their sum.
struct RoundQueue {
    cursor: AtomicUsize,
    slots: Mutex<Vec<Option<ComputedExpansion>>>,
    ready: Condvar,
}

impl RoundQueue {
    fn new(len: usize) -> Self {
        let mut slots = Vec::new();
        slots.resize_with(len, || None);
        RoundQueue {
            cursor: AtomicUsize::new(0),
            slots: Mutex::new(slots),
            ready: Condvar::new(),
        }
    }

    /// Claims the next unclaimed frontier index, or `None` when every
    /// index of the round has been handed out.
    fn claim(&self, len: usize) -> Option<usize> {
        let i = self.cursor.fetch_add(1, Ordering::Relaxed);
        (i < len).then_some(i)
    }

    fn deposit(&self, i: usize, computed: ComputedExpansion) {
        let mut slots = self.slots.lock().unwrap();
        slots[i] = Some(computed);
        self.ready.notify_all();
    }

    /// Blocks until slot `i` has been deposited, then takes it.
    fn take(&self, i: usize) -> ComputedExpansion {
        let mut slots = self.slots.lock().unwrap();
        loop {
            if let Some(computed) = slots[i].take() {
                return computed;
            }
            slots = self.ready.wait(slots).unwrap();
        }
    }
}

/// Errors reported by the public node accessors of the shared graph.
///
/// A server that hands `StateId`s across grammar modifications can end up
/// holding stale ids; resolving them must be an error, not a panic that
/// poisons the shared graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GraphError {
    /// The id does not name any node of this graph.
    UnknownState(StateId),
    /// The node existed but has been reclaimed by garbage collection.
    CollectedState(StateId),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::UnknownState(id) => write!(f, "state {id} does not exist in this graph"),
            GraphError::CollectedState(id) => {
                write!(f, "state {id} has been reclaimed by garbage collection")
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// A dense, symbol-indexed shadow of a complete item set's transitions —
/// the action-row cache of the lazy tables (the §5.1 `ACTION`/`GOTO` hot
/// path). One `u32` per interned symbol maps the symbol to its shift/GOTO
/// target (`0` = no edge), so a steady-state table query is a single array
/// load instead of a `BTreeMap` walk, with zero heap allocation.
///
/// A row's validity is tied to the life cycle of the item set it shadows:
/// it is built lazily on the first query after the node becomes `Complete`
/// and dropped the moment the node is invalidated by `MODIFY` or replaced
/// by `RE-EXPAND` — exactly when the underlying expansion itself becomes
/// invalid (§6 semantics).
#[derive(Clone, Debug)]
pub struct ActionRow {
    /// Grammar version at build time (diagnostic; validity is structural).
    version: u64,
    /// `symbol index -> target state + 1`, `0` meaning no transition.
    targets: Vec<u32>,
}

impl ActionRow {
    /// Builds the dense row shadowing `node`'s transitions.
    fn of(node: &ItemSetNode, num_symbols: usize, version: u64) -> Self {
        let mut targets = vec![0u32; num_symbols];
        for (&symbol, &target) in &node.transitions {
            targets[symbol.index()] = target.0 + 1;
        }
        ActionRow { version, targets }
    }

    /// The shift/GOTO target recorded for `symbol`, if any. Symbols
    /// interned after the row was built read as "no transition", which is
    /// correct: the node cannot have grown an edge on them without being
    /// re-expanded (which drops the row).
    #[inline]
    pub fn target(&self, symbol: SymbolId) -> Option<StateId> {
        match self.targets.get(symbol.index()) {
            Some(&t) if t != 0 => Some(StateId(t - 1)),
            _ => None,
        }
    }

    /// The grammar version the row was built against.
    pub fn version(&self) -> u64 {
        self.version
    }
}

/// The immutable, published read-view of one complete state: its dense
/// row, reduce set and accept flag. Entries are shared via `Arc` between
/// the graph and any number of pinned reader snapshots.
#[derive(Debug)]
pub(crate) struct PublishedState {
    pub(crate) row: ActionRow,
    pub(crate) reductions: Vec<RuleId>,
    pub(crate) accepting: bool,
}

/// One chunk of the published snapshot: the entries of [`CHUNK_SIZE`]
/// consecutive state ids, always padded to full length.
type SnapChunk = Vec<Option<Arc<PublishedState>>>;

/// An immutable snapshot of every published state, indexed by state id.
///
/// This is the *epoch* half of the read/expand split: the writer publishes
/// a fresh `Arc<TableSnapshot>` whenever it materialises (or retracts) a
/// row, and each `LazyTables` handle pins one snapshot and serves all its
/// steady-state queries from it with **no locking or atomics at all**.
/// Pinning is sound because everything that could make a published entry
/// *wrong* — `MODIFY`, mark-and-sweep — requires `&mut ItemSetGraph`,
/// which the borrow checker refuses while any handle (a `&` borrow) is
/// alive. The one `&self` writer that retracts entries, refcount GC
/// during re-expansion, only collects states unreachable under the
/// current grammar — a parse in flight holds published predecessors
/// (whose refcounts pin their successors), so it can never be directed
/// into a collected state. Concurrent lazy expansion only ever *adds*
/// entries, which a pinned reader picks up by refreshing on a miss.
///
/// Entries live in `Arc`'d chunks mirroring the node store, so successor
/// epochs share the snapshot chunks of untouched states and `MODIFY`
/// retracts invalidated entries by copying only the affected chunks.
#[derive(Debug, Default)]
pub(crate) struct TableSnapshot {
    chunks: Vec<Arc<SnapChunk>>,
    /// Cached modeled bytes of every published entry, maintained at each
    /// publish/retract/rebuild (see the byte-accounting section below).
    bytes: usize,
}

impl TableSnapshot {
    #[inline]
    pub(crate) fn get(&self, id: StateId) -> Option<&PublishedState> {
        self.chunks
            .get(id.index() >> CHUNK_BITS)
            .and_then(|chunk| chunk[id.index() & (CHUNK_SIZE - 1)].as_deref())
    }
}

/// One set of items in the graph.
///
/// The graph stores each node behind its own `Arc`, so forks share nodes
/// individually: a write deep-copies only the node it touches, and only
/// when another fork still holds it. The closure of the kernel is not
/// kept — it is recomputed by each (re-)expansion, and nothing reads it
/// afterwards.
#[derive(Clone, Debug)]
pub struct ItemSetNode {
    /// Identity of the node (index in the arena; stable for the lifetime of
    /// the graph, even across garbage collection).
    pub id: StateId,
    /// The kernel: the dotted rules that are potentially being recognised.
    pub kernel: ItemSet,
    /// Life-cycle stage.
    pub kind: ItemSetKind,
    /// Outgoing edges (valid when `Complete`; the *old* edges when `Dirty`).
    pub transitions: BTreeMap<SymbolId, StateId>,
    /// Rules that may be reduced in this state (valid when `Complete`).
    pub reductions: Vec<RuleId>,
    /// Whether this state has the `($ accept)` transition.
    pub accepting: bool,
    /// Number of transitions from live item sets that point here.
    pub refcount: usize,
    /// `false` once the node has been reclaimed by a garbage collector.
    pub alive: bool,
    /// Dense table-row cache over `transitions`; `None` until the first
    /// query after (re-)expansion, dropped on every invalidation.
    pub row: Option<ActionRow>,
}

impl ItemSetNode {
    fn new(id: StateId, kernel: ItemSet) -> Self {
        ItemSetNode {
            id,
            kernel,
            kind: ItemSetKind::Initial,
            transitions: BTreeMap::new(),
            reductions: Vec::new(),
            accepting: false,
            refcount: 0,
            alive: true,
            row: None,
        }
    }

    /// `true` when the node still needs (re-)expansion before its
    /// transitions and reductions may be consulted.
    pub fn needs_expansion(&self) -> bool {
        self.kind != ItemSetKind::Complete
    }
}

/// log2 of the nodes-per-chunk count.
const CHUNK_BITS: usize = 9;
/// Nodes per storage chunk. The trade: a fork (and a retired epoch's
/// drop) costs one `Arc` refcount touch per chunk, while the first write
/// to a shared chunk copies its 512 node *pointers* (plus its symbol
/// summary) — the nodes themselves stay shared, and only the ones written
/// are deep-copied. Node size therefore does not enter the chunk copy,
/// which matters on wide grammars whose nodes carry hundreds of kernel
/// items. 512 keeps the per-edit `Arc`-traffic term flat far past the
/// 5000-production mark the `publish-scaling` bench tracks.
pub const CHUNK_SIZE: usize = 1 << CHUNK_BITS;

#[inline]
fn chunk_of(id: StateId) -> usize {
    (id.0 as usize) >> CHUNK_BITS
}

#[inline]
fn slot_of(id: StateId) -> usize {
    (id.0 as usize) & (CHUNK_SIZE - 1)
}

// ----------------------------------------------------------------------
// Byte accounting (the residency model)
//
// Every storage chunk and the published snapshot carry a cached byte
// count so a registry can enforce a global budget without walking nodes.
// The model is *self-consistent*, not allocator-exact: collection
// overheads are folded into per-entry constants, and `Vec` spare
// capacity is ignored. What the accounting guarantees — and what the
// exactness test holds it to — is that the incrementally maintained
// counters equal a fresh walk of the same model over the live
// structures, after any sequence of EXPAND / MODIFY / GC / publication.
// ----------------------------------------------------------------------

/// Modeled bytes of one `BTreeSet<Item>` entry: the item plus amortized
/// tree-node overhead.
const ITEM_ENTRY_BYTES: usize = std::mem::size_of::<Item>() + 16;
/// Modeled bytes of one `BTreeMap<SymbolId, StateId>` entry.
const MAP_ENTRY_BYTES: usize = std::mem::size_of::<(SymbolId, StateId)>() + 16;
/// Modeled bytes of an `Arc` allocation header (strong + weak counts).
const ARC_HEADER_BYTES: usize = 16;

/// Modeled resident bytes of one node: its pointer slot in the chunk, its
/// `Arc` allocation, and every heap allocation hanging off it. O(1) — only
/// lengths are consulted. A node shared by the chunks of several forks is
/// counted in each of them (conservative, and it keeps every chunk's
/// count a function of that chunk alone).
fn node_heap_bytes(node: &ItemSetNode) -> usize {
    std::mem::size_of::<Arc<ItemSetNode>>()
        + ARC_HEADER_BYTES
        + std::mem::size_of::<ItemSetNode>()
        + node.kernel.len() * ITEM_ENTRY_BYTES
        + node.transitions.len() * MAP_ENTRY_BYTES
        + node.reductions.len() * std::mem::size_of::<RuleId>()
        + node
            .row
            .as_ref()
            .map_or(0, |row| std::mem::size_of::<ActionRow>() + row.targets.len() * 4)
}

/// Fresh (non-cached) walk of one chunk's modeled bytes — the oracle the
/// incrementally maintained `NodeChunk::bytes` is tested against.
fn chunk_bytes_of(chunk: &NodeChunk) -> usize {
    chunk.nodes.iter().map(|node| node_heap_bytes(node)).sum()
}

/// Modeled resident bytes of one published entry (its `Arc` allocation).
fn published_state_bytes(entry: &PublishedState) -> usize {
    ARC_HEADER_BYTES
        + std::mem::size_of::<PublishedState>()
        + entry.row.targets.len() * 4
        + entry.reductions.len() * std::mem::size_of::<RuleId>()
}

/// Fresh walk of one snapshot chunk's modeled bytes.
fn snap_chunk_bytes(chunk: &SnapChunk) -> usize {
    chunk.iter().flatten().map(|e| published_state_bytes(e)).sum()
}

/// One `Arc`-shared storage chunk: up to [`CHUNK_SIZE`] consecutive nodes
/// plus a conservative summary of their outgoing transition symbols.
/// Nodes are `Arc`-shared too, so copying a chunk on write copies
/// pointers, and [`NodeChunk::update`] deep-copies only the nodes written.
#[derive(Clone, Debug, Default)]
struct NodeChunk {
    nodes: Vec<Arc<ItemSetNode>>,
    /// Sorted superset of the symbol ids on which some live *complete*
    /// node of this chunk has a transition. `MODIFY` consults it to skip
    /// chunks that cannot contain invalidation candidates. Conservative:
    /// merged on expansion, carried over unchanged when the chunk is
    /// copied on write, and rebuilt exactly only by mark-and-sweep, so a
    /// stale entry costs a false-positive probe of one chunk's nodes,
    /// never a missed invalidation. (Rebuilding on every copy would walk
    /// every transition of the chunk — on wide grammars far more work
    /// than the copy itself and the probes it saves.)
    out_symbols: Vec<u32>,
    /// Cached modeled bytes of this chunk's nodes (see the byte-accounting
    /// section above). Maintained incrementally at every node mutation, so
    /// residency queries are O(#chunks), never O(#nodes).
    bytes: usize,
}

impl NodeChunk {
    /// The single write point for a node: runs `f` on an exclusive borrow
    /// of the node in `slot` — deep-copying the node first if another fork
    /// still shares it — and adjusts the chunk's cached byte count by
    /// whatever size change `f` causes.
    fn update<R>(&mut self, slot: usize, f: impl FnOnce(&mut ItemSetNode) -> R) -> R {
        let node = Arc::make_mut(&mut self.nodes[slot]);
        let before = node_heap_bytes(node);
        let result = f(node);
        self.bytes = self.bytes - before + node_heap_bytes(node);
        result
    }

    fn rebuild_summary(&mut self) {
        self.out_symbols.clear();
        for node in &self.nodes {
            if node.alive && node.kind == ItemSetKind::Complete {
                self.out_symbols
                    .extend(node.transitions.keys().map(|s| s.index() as u32));
            }
        }
        self.out_symbols.sort_unstable();
        self.out_symbols.dedup();
    }

    fn summary_may_contain(&self, symbol: SymbolId) -> bool {
        self.out_symbols
            .binary_search(&(symbol.index() as u32))
            .is_ok()
    }

    fn merge_summary(&mut self, symbols: impl Iterator<Item = SymbolId>) {
        for s in symbols {
            let v = s.index() as u32;
            if let Err(pos) = self.out_symbols.binary_search(&v) {
                self.out_symbols.insert(pos, v);
            }
        }
    }
}

/// A strong, opaque handle to one storage chunk. Exposed so tests and
/// tools can observe **chunk-granular reclamation**: a chunk shared
/// between epochs stays alive as long as any live epoch uses it, while a
/// chunk owned only by a retired epoch is freed with that epoch.
#[derive(Clone, Debug)]
pub struct ChunkHandle(Arc<NodeChunk>);

impl ChunkHandle {
    /// A weak observer of this chunk's lifetime.
    pub fn observer(&self) -> ChunkObserver {
        ChunkObserver(Arc::downgrade(&self.0))
    }

    /// `true` when both handles point at the same chunk storage.
    pub fn ptr_eq(&self, other: &ChunkHandle) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

/// A weak observer of one storage chunk (see [`ChunkHandle`]).
#[derive(Clone, Debug)]
pub struct ChunkObserver(Weak<NodeChunk>);

impl ChunkObserver {
    /// `true` while some graph (epoch) still holds the chunk.
    pub fn is_alive(&self) -> bool {
        self.0.strong_count() > 0
    }
}

/// Number of shards of the kernel index. Sharding bounds the
/// copy-on-write cost of the first post-fork interning to one shard's
/// `O(#states / 64)` fingerprint/id pairs — integers only, since the
/// index holds no copy of any kernel.
const KERNEL_SHARDS: usize = 64;

/// The kernel → state index of the live nodes, keyed by the 64-bit
/// [`fingerprint`] of each kernel and sharded into `Arc`'d maps, so a fork
/// clones 64 pointers and writes copy only the shard they touch.
///
/// A fingerprint maps to *candidate* states; a lookup confirms each
/// candidate against the node's stored kernel (the caller's `is_kernel`),
/// so a collision between distinct kernels costs one comparison, never a
/// wrong state. The first candidate of a fingerprint sits in the map;
/// further ones (collisions) in a per-shard overflow list that is almost
/// always empty.
#[derive(Clone, Debug)]
struct KernelIndex {
    shards: Vec<Arc<KernelShard>>,
}

#[derive(Clone, Debug, Default)]
struct KernelShard {
    first: FxHashMap<u64, StateId>,
    more: Vec<(u64, StateId)>,
}

impl KernelIndex {
    fn new() -> Self {
        KernelIndex {
            shards: (0..KERNEL_SHARDS)
                .map(|_| Arc::new(KernelShard::default()))
                .collect(),
        }
    }

    fn shard_of(fingerprint: u64) -> usize {
        (fingerprint % KERNEL_SHARDS as u64) as usize
    }

    /// The indexed state whose kernel has `fingerprint` and satisfies
    /// `is_kernel`.
    fn get(&self, fingerprint: u64, mut is_kernel: impl FnMut(StateId) -> bool) -> Option<StateId> {
        let shard = &self.shards[Self::shard_of(fingerprint)];
        let first = *shard.first.get(&fingerprint)?;
        if is_kernel(first) {
            return Some(first);
        }
        shard
            .more
            .iter()
            .filter(|&&(fp, _)| fp == fingerprint)
            .map(|&(_, id)| id)
            .find(|&id| is_kernel(id))
    }

    /// Adds `id` as a candidate of `fingerprint`. The caller guarantees no
    /// other indexed state has an equal kernel.
    fn insert(&mut self, fingerprint: u64, id: StateId) {
        let shard = Arc::make_mut(&mut self.shards[Self::shard_of(fingerprint)]);
        if let Some(&first) = shard.first.get(&fingerprint) {
            if first != id {
                shard.more.push((fingerprint, id));
            }
        } else {
            shard.first.insert(fingerprint, id);
        }
    }

    /// Removes `id` from the candidates of `fingerprint`, if it is one (a
    /// newer live node may have taken over the kernel). Avoids copying the
    /// shard when there is nothing to remove.
    fn remove_if(&mut self, fingerprint: u64, id: StateId) {
        let s = Self::shard_of(fingerprint);
        let shard = &self.shards[s];
        if shard.first.get(&fingerprint) == Some(&id) {
            let shard = Arc::make_mut(&mut self.shards[s]);
            match shard.more.iter().position(|&(fp, _)| fp == fingerprint) {
                Some(pos) => {
                    let (_, next) = shard.more.swap_remove(pos);
                    shard.first.insert(fingerprint, next);
                }
                None => {
                    shard.first.remove(&fingerprint);
                }
            }
        } else if let Some(pos) = shard
            .more
            .iter()
            .position(|&entry| entry == (fingerprint, id))
        {
            Arc::make_mut(&mut self.shards[s]).more.swap_remove(pos);
        }
    }

    fn unshare(&mut self) {
        for shard in &mut self.shards {
            *shard = Arc::new((**shard).clone());
        }
    }
}

/// Writer-owned state: everything only structural mutation touches.
#[derive(Debug)]
struct GraphInner {
    /// Total number of nodes ever created (dense id space).
    len: usize,
    /// Kernel → node index for all *live* nodes; used by `EXPAND` to share
    /// item sets ("if a set of items with kernel kernel' does not yet
    /// exist, it is generated").
    kernel_index: KernelIndex,
    /// Work counters (query counters live outside, see `ItemSetGraph`).
    stats: GenStats,
    grammar_version: u64,
    /// Scratch for `RE-EXPAND`'s old-target snapshot (reused, not
    /// reallocated per re-expansion).
    scratch_targets: Vec<StateId>,
    /// Scratch for `expand_all`'s pending list.
    scratch_pending: Vec<StateId>,
    /// Scratch work-stack for iterative `DECR-REFCOUNT`.
    gc_stack: Vec<StateId>,
    /// Scratch for `MODIFY`'s invalidated-state list.
    scratch_invalidated: Vec<StateId>,
    /// Scratch of the serial path's closures (see [`ExpandScratch`]).
    scratch_expand: ExpandScratch,
    /// The serial path's reused expansion result.
    scratch_computed: ComputedExpansion,
    /// Time the lazy path spent in the read-only half of `EXPAND`
    /// (reported as `GenStats::expand_compute_us`).
    expand_compute: Duration,
    /// Time the lazy path spent in the write half of `EXPAND`
    /// (reported as `GenStats::expand_commit_us`).
    expand_commit: Duration,
}

impl GraphInner {
    fn new(grammar_version: u64) -> Self {
        GraphInner {
            len: 0,
            kernel_index: KernelIndex::new(),
            stats: GenStats::default(),
            grammar_version,
            scratch_targets: Vec::new(),
            scratch_pending: Vec::new(),
            gc_stack: Vec::new(),
            scratch_invalidated: Vec::new(),
            scratch_expand: ExpandScratch::default(),
            scratch_computed: ComputedExpansion::default(),
            expand_compute: Duration::ZERO,
            expand_commit: Duration::ZERO,
        }
    }
}

impl Clone for GraphInner {
    /// Fork-time clone: shares the kernel-index shards (`Arc` bumps) and
    /// starts the fork with fresh, empty scratch buffers.
    fn clone(&self) -> Self {
        GraphInner {
            len: self.len,
            kernel_index: self.kernel_index.clone(),
            stats: self.stats,
            grammar_version: self.grammar_version,
            scratch_targets: Vec::new(),
            scratch_pending: Vec::new(),
            gc_stack: Vec::new(),
            scratch_invalidated: Vec::new(),
            scratch_expand: ExpandScratch::default(),
            scratch_computed: ComputedExpansion::default(),
            expand_compute: self.expand_compute,
            expand_commit: self.expand_commit,
        }
    }
}

/// The lazily generated, concurrently readable graph of item sets.
///
/// All read-path methods take `&self` and may be called from any number of
/// threads; the expansion entry points ([`ItemSetGraph::ensure_expanded`],
/// [`ItemSetGraph::ensure_row`], [`ItemSetGraph::ensure_state`],
/// [`ItemSetGraph::expand_all`]) also take `&self` but serialize internally
/// as writers. Grammar modifications (`add_rule` / `remove_rule` /
/// `mark_and_sweep`) keep `&mut self`: they change the *language* the graph
/// answers for, so callers must hold exclusive access. The `IpgServer`
/// satisfies this without draining readers by *forking*: `Clone` produces
/// a **structurally shared** copy — O(#chunks) `Arc` bumps taken under the
/// internal writer mutex, no node is copied — `MODIFY` runs on the private
/// fork, copies the pointer arrays of the chunks holding invalidated
/// states and deep-copies only the invalidated nodes, and the fork is
/// published as a new grammar epoch while parses in flight keep reading
/// the original. The copies are O(invalidated states), independent of
/// graph and node size; finding the invalidated states probes the nodes
/// of every chunk whose symbol summary names the edited left-hand side
/// (see [`NodeChunk`]). A retired epoch's chunks and nodes are freed
/// individually once no live epoch shares them.
#[derive(Debug)]
pub struct ItemSetGraph {
    /// The persistent chunk store (see [`NodeChunk`]).
    store: RwLock<Vec<Arc<NodeChunk>>>,
    inner: Mutex<GraphInner>,
    /// The current published snapshot (see [`TableSnapshot`]). Readers
    /// clone the `Arc` once per handle refresh, not per query.
    published: RwLock<Arc<TableSnapshot>>,
    /// `ACTION` query count, aggregated from the per-handle counters of the
    /// lazy tables (relaxed; flushed once per table handle, not per query).
    action_calls: AtomicUsize,
    /// `GOTO` query count (see `action_calls`).
    goto_calls: AtomicUsize,
    /// Storage chunks copied on write because they were shared with
    /// another fork — the observable cost of structural sharing.
    chunks_cowed: AtomicUsize,
    start: StateId,
    gc: GcPolicy,
}

impl Clone for ItemSetGraph {
    /// Forks the graph by cloning chunk pointers: O(#chunks), however many
    /// states the graph holds. Taken under the writer mutex, so the fork
    /// is a consistent snapshot.
    fn clone(&self) -> Self {
        let inner = self.inner.lock().unwrap();
        ItemSetGraph {
            store: RwLock::new(self.store.read().unwrap().clone()),
            inner: Mutex::new(inner.clone()),
            published: RwLock::new(self.published.read().unwrap().clone()),
            action_calls: AtomicUsize::new(self.action_calls.load(Ordering::Relaxed)),
            goto_calls: AtomicUsize::new(self.goto_calls.load(Ordering::Relaxed)),
            chunks_cowed: AtomicUsize::new(self.chunks_cowed.load(Ordering::Relaxed)),
            start: self.start,
            gc: self.gc,
        }
    }
}

impl ItemSetGraph {
    /// The paper's lazy `GENERATE-PARSER` (§5.1): creates only the start
    /// item set, as an initial set of items.
    pub fn new(grammar: &Grammar) -> Self {
        Self::with_policy(grammar, GcPolicy::default())
    }

    /// Like [`ItemSetGraph::new`] with an explicit garbage-collection
    /// policy.
    pub fn with_policy(grammar: &Grammar, gc: GcPolicy) -> Self {
        let graph = ItemSetGraph {
            store: RwLock::new(Vec::new()),
            published: RwLock::new(Arc::new(TableSnapshot::default())),
            inner: Mutex::new(GraphInner::new(grammar.version())),
            action_calls: AtomicUsize::new(0),
            goto_calls: AtomicUsize::new(0),
            chunks_cowed: AtomicUsize::new(0),
            start: StateId(0),
            gc,
        };
        {
            let mut inner = graph.inner.lock().unwrap();
            let kernel: Vec<Item> = start_kernel(grammar).into_iter().collect();
            let start = graph.intern_kernel_locked(&mut inner, &kernel, fingerprint(&kernel));
            debug_assert_eq!(start, StateId(0));
        }
        graph
    }

    /// The state in which parsing starts.
    pub fn start_state(&self) -> StateId {
        self.start
    }

    /// The garbage-collection policy in force.
    pub fn gc_policy(&self) -> GcPolicy {
        self.gc
    }

    /// The grammar version the graph currently corresponds to. Updated by
    /// [`ItemSetGraph::add_rule`] / [`ItemSetGraph::remove_rule`].
    pub fn grammar_version(&self) -> u64 {
        self.inner.lock().unwrap().grammar_version
    }

    /// A snapshot of the work counters. `resident_bytes` is sampled live
    /// from the chunk accounting (a gauge, not a counter).
    pub fn stats(&self) -> GenStats {
        let inner = self.inner.lock().unwrap();
        let mut stats = inner.stats;
        stats.expand_compute_us += inner.expand_compute.as_micros() as usize;
        stats.expand_commit_us += inner.expand_commit.as_micros() as usize;
        drop(inner);
        stats.action_calls += self.action_calls.load(Ordering::Relaxed);
        stats.goto_calls += self.goto_calls.load(Ordering::Relaxed);
        stats.chunks_cowed += self.chunks_cowed.load(Ordering::Relaxed);
        stats.resident_bytes = self.resident_bytes();
        stats.resident_high_water = stats.resident_high_water.max(stats.resident_bytes);
        stats
    }

    /// Folds externally accumulated counters (typically the stats of a
    /// previous epoch's graph that this graph replaces) into this graph's
    /// counters, so eviction and re-lazification do not reset the
    /// observable work history of a tenant.
    pub(crate) fn adopt_stats(&self, carried: GenStats) {
        let mut inner = self.inner.lock().unwrap();
        let mut stats = carried;
        stats.merge(&inner.stats);
        inner.stats = stats;
    }

    /// A snapshot of a node, or an error for ids that were never handed out
    /// by this graph or whose node has been garbage-collected. This is the
    /// accessor server-side callers should use: a stale [`StateId`] must
    /// not be able to crash (or poison) a graph shared by many parsers.
    pub fn try_node(&self, id: StateId) -> Result<ItemSetNode, GraphError> {
        let store = self.store.read().unwrap();
        match store
            .get(chunk_of(id))
            .and_then(|chunk| chunk.nodes.get(slot_of(id)))
        {
            None => Err(GraphError::UnknownState(id)),
            Some(node) if !node.alive => Err(GraphError::CollectedState(id)),
            Some(node) => Ok(ItemSetNode::clone(node)),
        }
    }

    /// The life-cycle stage of a node, without cloning it — the cheap
    /// accessor for callers (and tests) that only need the kind.
    pub fn node_kind(&self, id: StateId) -> Result<ItemSetKind, GraphError> {
        let store = self.store.read().unwrap();
        match store
            .get(chunk_of(id))
            .and_then(|chunk| chunk.nodes.get(slot_of(id)))
        {
            None => Err(GraphError::UnknownState(id)),
            Some(node) if !node.alive => Err(GraphError::CollectedState(id)),
            Some(node) => Ok(node.kind),
        }
    }

    /// A snapshot of a node (dead nodes remain accessible for
    /// post-mortems).
    ///
    /// # Panics
    /// Panics with a descriptive message when `id` is out of range; use
    /// [`ItemSetGraph::try_node`] when the id may be stale.
    pub fn node(&self, id: StateId) -> ItemSetNode {
        let store = self.store.read().unwrap();
        store
            .get(chunk_of(id))
            .and_then(|chunk| chunk.nodes.get(slot_of(id)))
            .map(|node| ItemSetNode::clone(node))
            .unwrap_or_else(|| panic!("{}", GraphError::UnknownState(id)))
    }

    /// A point-in-time snapshot of the live nodes, in id order.
    pub fn live_nodes(&self) -> impl Iterator<Item = ItemSetNode> {
        let store = self.store.read().unwrap();
        let nodes: Vec<ItemSetNode> = store
            .iter()
            .flat_map(|chunk| chunk.nodes.iter())
            .filter(|n| n.alive)
            .map(|n| ItemSetNode::clone(n))
            .collect();
        nodes.into_iter()
    }

    /// Number of live nodes.
    pub fn num_live(&self) -> usize {
        let store = self.store.read().unwrap();
        store
            .iter()
            .map(|chunk| chunk.nodes.iter().filter(|n| n.alive).count())
            .sum()
    }

    /// Size snapshot of the graph.
    pub fn size(&self) -> GraphSize {
        let mut size = GraphSize::default();
        let store = self.store.read().unwrap();
        for node in store
            .iter()
            .flat_map(|chunk| chunk.nodes.iter())
            .filter(|n| n.alive)
        {
            size.total += 1;
            match node.kind {
                ItemSetKind::Initial => size.initial += 1,
                ItemSetKind::Dirty => size.dirty += 1,
                ItemSetKind::Complete => size.complete += 1,
            }
            if node.kind != ItemSetKind::Initial {
                size.transitions += node.transitions.len();
            }
        }
        size
    }

    /// An exclusive borrow of chunk `c`, copying it on write when it is
    /// still shared with another fork. The copy clones the chunk's node
    /// pointers and symbol summary, not the nodes; node writes then go
    /// through [`NodeChunk::update`].
    fn chunk_mut<'a>(&self, store: &'a mut [Arc<NodeChunk>], c: usize) -> &'a mut NodeChunk {
        let arc = &mut store[c];
        if Arc::get_mut(arc).is_none() {
            *arc = Arc::new((**arc).clone());
            self.chunks_cowed.fetch_add(1, Ordering::Relaxed);
        }
        Arc::get_mut(arc).expect("chunk was just made unique")
    }

    /// Runs `f` on a shared borrow of the node.
    fn with_node<R>(&self, id: StateId, f: impl FnOnce(&ItemSetNode) -> R) -> R {
        let store = self.store.read().unwrap();
        f(&store[chunk_of(id)].nodes[slot_of(id)])
    }

    /// Runs `f` on an exclusive borrow of the node (copy-on-write of the
    /// chunk's pointers, then of the node itself; see
    /// [`NodeChunk::update`]).
    fn with_node_mut<R>(&self, id: StateId, f: impl FnOnce(&mut ItemSetNode) -> R) -> R {
        let mut store = self.store.write().unwrap();
        self.chunk_mut(&mut store, chunk_of(id))
            .update(slot_of(id), f)
    }

    /// `true` when node `id`'s kernel is exactly `run` (sorted items).
    fn kernel_is(&self, id: StateId, run: &[Item]) -> bool {
        self.with_node(id, |n| kernel_matches(n, run))
    }

    /// `true` when nodes `a` and `b` have equal kernels.
    fn kernels_equal(&self, a: StateId, b: StateId) -> bool {
        let store = self.store.read().unwrap();
        let node = |id: StateId| &store[chunk_of(id)].nodes[slot_of(id)];
        node(a).kernel == node(b).kernel
    }

    /// Returns the live state whose kernel is `run` (sorted items with
    /// fingerprint `fp`), creating it as an initial node if there is none.
    /// Only a new state builds a `BTreeSet` kernel.
    fn intern_kernel_locked(&self, inner: &mut GraphInner, run: &[Item], fp: u64) -> StateId {
        inner.stats.kernel_lookups += 1;
        if let Some(id) = inner.kernel_index.get(fp, |id| self.kernel_is(id, run)) {
            inner.stats.kernel_hits += 1;
            return id;
        }
        let id = StateId::from_index(inner.len);
        inner.len += 1;
        inner.kernel_index.insert(fp, id);
        let mut store = self.store.write().unwrap();
        if chunk_of(id) == store.len() {
            store.push(Arc::new(NodeChunk::default()));
        }
        let chunk = self.chunk_mut(&mut store, chunk_of(id));
        debug_assert_eq!(chunk.nodes.len(), slot_of(id));
        let node = ItemSetNode::new(id, run.iter().copied().collect());
        chunk.bytes += node_heap_bytes(&node);
        chunk.nodes.push(Arc::new(node));
        inner.stats.nodes_created += 1;
        id
    }

    // ------------------------------------------------------------------
    // Read path (`&self`, pinned snapshots — no locks per query)
    // ------------------------------------------------------------------

    /// The current published snapshot. A `LazyTables` handle pins one of
    /// these and refreshes it on a miss; all steady-state queries are then
    /// plain array reads against immutable data.
    pub(crate) fn published_snapshot(&self) -> Arc<TableSnapshot> {
        self.published.read().unwrap().clone()
    }

    /// `true` when `id` names a live node. Must be consulted *under the
    /// inner mutex* before materialising anything for `id`: refcount GC
    /// runs on the `&self` writer path (re-expansion of dirty nodes), so
    /// a lock-free liveness check could race a collection and resurrect a
    /// dead node into the published snapshot.
    fn is_live_locked(&self, inner: &GraphInner, id: StateId) -> bool {
        id.index() < inner.len && self.with_node(id, |n| n.alive)
    }

    /// The `ACTION` miss path: materialise and publish `state` if it is a
    /// real, live state. Returns `false` for stale ids (out of range, or
    /// reclaimed by GC), which read as error cells. The liveness check
    /// happens under the writer mutex, so a concurrent collection cannot
    /// slip between the check and the (re-)publication.
    pub(crate) fn ensure_state_checked(&self, grammar: &Grammar, id: StateId) -> bool {
        let mut inner = self.inner.lock().unwrap();
        if !self.is_live_locked(&inner, id) {
            return false;
        }
        self.ensure_expanded_locked(&mut inner, grammar, id);
        self.ensure_row_locked(&mut inner, grammar, id);
        true
    }

    /// The `GOTO` miss path. Appendix A proves `GOTO` is only called with
    /// complete item sets, so no expansion is performed — a non-complete
    /// (or stale) state reads as an error entry after a debug assertion;
    /// for a complete state the dense row is published so the caller can
    /// refresh its snapshot and read the target.
    pub(crate) fn prepare_goto(&self, grammar: &Grammar, id: StateId) -> bool {
        let mut inner = self.inner.lock().unwrap();
        if !self.is_live_locked(&inner, id) {
            return false;
        }
        let kind = self.with_node(id, |n| n.kind);
        debug_assert_eq!(
            kind,
            ItemSetKind::Complete,
            "Appendix A invariant violated: GOTO called on a non-complete item set"
        );
        if kind != ItemSetKind::Complete {
            return false;
        }
        self.ensure_row_locked(&mut inner, grammar, id);
        true
    }

    /// Flush per-handle query counters into the graph-wide aggregates
    /// (called when a lazy-tables handle is dropped).
    pub(crate) fn record_queries(&self, action_calls: usize, goto_calls: usize) {
        if action_calls > 0 {
            self.action_calls.fetch_add(action_calls, Ordering::Relaxed);
        }
        if goto_calls > 0 {
            self.goto_calls.fetch_add(goto_calls, Ordering::Relaxed);
        }
    }

    // ------------------------------------------------------------------
    // Write path (serialized on the inner mutex)
    // ------------------------------------------------------------------

    /// Ensures the node's transitions and reductions are valid for the
    /// current grammar: the lazy `ACTION`'s "if state.type = initial then
    /// EXPAND(state)", extended with `RE-EXPAND` for dirty nodes.
    pub fn ensure_expanded(&self, grammar: &Grammar, id: StateId) {
        let mut inner = self.inner.lock().unwrap();
        self.ensure_expanded_locked(&mut inner, grammar, id);
    }

    /// Ensures the node is expanded *and* its dense row is published — the
    /// single writer entry point behind the lazy tables' read path.
    pub fn ensure_state(&self, grammar: &Grammar, id: StateId) {
        let mut inner = self.inner.lock().unwrap();
        self.ensure_expanded_locked(&mut inner, grammar, id);
        self.ensure_row_locked(&mut inner, grammar, id);
    }

    /// The lazy path's `EXPAND` / `RE-EXPAND` of one node, with both
    /// halves timed into the `expand_compute_us` / `expand_commit_us`
    /// counters. Uses the writer's reusable buffers, so only the new
    /// states it creates allocate.
    fn ensure_expanded_locked(&self, inner: &mut GraphInner, grammar: &Grammar, id: StateId) {
        let kind = self.with_node(id, |n| n.kind);
        if kind == ItemSetKind::Complete {
            return;
        }
        let started = Instant::now();
        let computed = self.compute_expansion_locked(inner, grammar, id);
        let computed_at = Instant::now();
        self.commit_by_kind_locked(inner, id, kind, &computed);
        inner.expand_commit += computed_at.elapsed();
        inner.expand_compute += computed_at - started;
        inner.scratch_computed = computed;
    }

    /// The write half of the paper's `EXPAND` for an initial node, or of
    /// `RE-EXPAND` (§6.2) for a dirty one.
    fn commit_by_kind_locked(
        &self,
        inner: &mut GraphInner,
        id: StateId,
        kind: ItemSetKind,
        computed: &ComputedExpansion,
    ) {
        match kind {
            ItemSetKind::Initial => {
                inner.stats.expansions += 1;
                self.commit_expansion_locked(inner, id, computed);
            }
            ItemSetKind::Dirty => self.re_commit_expansion_locked(inner, id, computed),
            ItemSetKind::Complete => {}
        }
    }

    /// The write half of `RE-EXPAND`: commit a precomputed expansion over
    /// a dirty node and release the references its old transitions held.
    fn re_commit_expansion_locked(
        &self,
        inner: &mut GraphInner,
        id: StateId,
        computed: &ComputedExpansion,
    ) {
        inner.stats.re_expansions += 1;
        let mut old_targets = std::mem::take(&mut inner.scratch_targets);
        old_targets.clear();
        self.with_node(id, |n| {
            old_targets.extend(n.transitions.values().copied());
        });
        self.commit_expansion_locked(inner, id, computed);
        if self.refcounting() {
            for &target in &old_targets {
                self.decr_refcount_locked(inner, target);
            }
        }
        inner.scratch_targets = old_targets;
    }

    /// The read-only half of `EXPAND` for one resident node, into the
    /// writer's reusable buffers (returned; the caller hands them back via
    /// `scratch_computed`). The kernel is read in place under the store's
    /// read lock, which no other writer can contend for while the caller
    /// holds the writer mutex.
    fn compute_expansion_locked(
        &self,
        inner: &mut GraphInner,
        grammar: &Grammar,
        id: StateId,
    ) -> ComputedExpansion {
        let mut computed = std::mem::take(&mut inner.scratch_computed);
        let scratch = &mut inner.scratch_expand;
        self.with_node(id, |n| {
            compute_expansion_of(grammar, n.kernel.iter().copied(), scratch, &mut computed)
        });
        computed
    }

    /// The write half of `EXPAND`: intern the successor kernels (in symbol
    /// order, so state numbering is deterministic and identical to the
    /// fully serial expansion), bump their reference counts and publish the
    /// node as complete.
    fn commit_expansion_locked(
        &self,
        inner: &mut GraphInner,
        id: StateId,
        computed: &ComputedExpansion,
    ) {
        inner.stats.closures += 1;
        let transitions: BTreeMap<SymbolId, StateId> = computed
            .successor_runs()
            .map(|(succ, run)| {
                let target = self.intern_kernel_locked(inner, run, succ.fingerprint);
                (succ.symbol, target)
            })
            .collect();

        let mut store = self.store.write().unwrap();
        if self.refcounting() {
            for &target in transitions.values() {
                self.chunk_mut(&mut store, chunk_of(target))
                    .update(slot_of(target), |n| n.refcount += 1);
            }
        }
        let chunk = self.chunk_mut(&mut store, chunk_of(id));
        // Keep the chunk's MODIFY summary a superset of its live complete
        // nodes' transition symbols.
        chunk.merge_summary(transitions.keys().copied());
        chunk.update(slot_of(id), |node| {
            node.transitions = transitions;
            node.reductions.clone_from(&computed.reductions);
            node.accepting = computed.accepting;
            node.kind = ItemSetKind::Complete;
            // The dense row shadows the (old) transitions; rebuild on
            // demand. Readers observe the kind change and the dropped row
            // atomically: both happen under the store's write lock.
            node.row = None;
        });
    }

    /// Builds the dense [`ActionRow`] of a complete node if it is missing.
    /// The row is the steady-state `ACTION`/`GOTO` fast path: after this,
    /// table queries for the node are array loads with no allocation.
    ///
    /// # Panics
    /// Debug-asserts that the node is `Complete`; rows of initial/dirty
    /// nodes would shadow invalid transitions.
    pub fn ensure_row(&self, grammar: &Grammar, id: StateId) {
        let mut inner = self.inner.lock().unwrap();
        self.ensure_row_locked(&mut inner, grammar, id);
    }

    fn ensure_row_locked(&self, inner: &mut GraphInner, grammar: &Grammar, id: StateId) {
        self.build_row_locked(inner, grammar, id);
        // Publish (or re-publish after invalidation) the read-view entry so
        // pinned reader snapshots can pick it up on their next refresh.
        self.publish_entry(id);
    }

    /// Builds the dense row in the node storage without touching the
    /// published snapshot (the caller publishes, either per entry or in
    /// one batch).
    fn build_row_locked(&self, inner: &mut GraphInner, grammar: &Grammar, id: StateId) {
        let num_symbols = grammar.symbols().len();
        let version = grammar.version();
        let built = self.with_node_mut(id, |node| {
            debug_assert_eq!(
                node.kind,
                ItemSetKind::Complete,
                "action rows only shadow complete item sets"
            );
            if node.row.is_some() {
                return false;
            }
            node.row = Some(ActionRow::of(node, num_symbols, version));
            true
        });
        if built {
            inner.stats.rows_built += 1;
        }
    }

    /// Copies the node's row/reductions/accept flag into a fresh published
    /// snapshot (copy-on-write over the shared snapshot chunks). A no-op
    /// when the entry is already present: an existing entry is always
    /// current, because every path that drops or replaces a row first
    /// retracts the entry (MODIFY/sweep retract or rebuild, GC
    /// unpublishes).
    ///
    /// A publication copies one snapshot chunk plus the chunk-pointer
    /// vector — O(#chunks) pointer copies, which measures as noise next to
    /// the closure computation each new state also pays; batch paths that
    /// build many rows at once ([`ItemSetGraph::publish_all_rows`]) swap
    /// one rebuilt snapshot instead.
    fn publish_entry(&self, id: StateId) {
        {
            let published = self.published.read().unwrap();
            if published.get(id).is_some() {
                return;
            }
        }
        let entry = self.with_node(id, |node| {
            node.row.as_ref().map(|row| {
                Arc::new(PublishedState {
                    row: row.clone(),
                    reductions: node.reductions.clone(),
                    accepting: node.accepting,
                })
            })
        });
        let Some(entry) = entry else { return };
        let mut published = self.published.write().unwrap();
        let bytes = published.bytes + published_state_bytes(&entry);
        let mut chunks = published.chunks.clone();
        while chunks.len() <= chunk_of(id) {
            chunks.push(Arc::new(vec![None; CHUNK_SIZE]));
        }
        Arc::make_mut(&mut chunks[chunk_of(id)])[slot_of(id)] = Some(entry);
        *published = Arc::new(TableSnapshot { chunks, bytes });
    }

    /// Drops a state's published entry (after garbage collection).
    fn unpublish_entry(&self, id: StateId) {
        let mut published = self.published.write().unwrap();
        if let Some(entry) = published.get(id) {
            let bytes = published.bytes - published_state_bytes(entry);
            let mut chunks = published.chunks.clone();
            Arc::make_mut(&mut chunks[chunk_of(id)])[slot_of(id)] = None;
            *published = Arc::new(TableSnapshot { chunks, bytes });
        }
    }

    /// Retracts the published entries of `ids` in one batch: copies only
    /// the snapshot chunks that actually hold an entry for one of the ids
    /// and swaps once. The `MODIFY` companion of the chunk-granular node
    /// invalidation — O(invalidated), not O(published).
    fn retract_entries(&self, ids: &[StateId]) {
        if ids.is_empty() {
            return;
        }
        let mut published = self.published.write().unwrap();
        let mut bytes = published.bytes;
        let mut chunks = published.chunks.clone();
        let mut changed = false;
        for &id in ids {
            let Some(chunk) = chunks.get_mut(chunk_of(id)) else {
                continue;
            };
            if let Some(entry) = &chunk[slot_of(id)] {
                bytes -= published_state_bytes(entry);
                Arc::make_mut(chunk)[slot_of(id)] = None;
                changed = true;
            }
        }
        if changed {
            *published = Arc::new(TableSnapshot { chunks, bytes });
        }
    }

    /// Rebuilds the published snapshot from the node storage — used by the
    /// batch paths (mark-and-sweep, full warm-up), which may touch most
    /// entries anyway.
    fn rebuild_published(&self) {
        self.rebuild_published_parallel(1);
    }

    /// [`ItemSetGraph::rebuild_published`] with the per-chunk snapshot
    /// assembly (row/reduction clones into fresh `Arc`s — memcpy-heavy)
    /// fanned out over `threads` workers; the swap stays a single pointer
    /// store either way.
    fn rebuild_published_parallel(&self, threads: usize) {
        let store = self.store.read().unwrap();
        let threads = threads.max(1).min(store.len().max(1));
        let chunks: Vec<Arc<SnapChunk>> = if threads <= 1 || store.len() < 2 {
            store.iter().map(|chunk| snap_chunk_of(chunk)).collect()
        } else {
            let cursor = AtomicUsize::new(0);
            let mut slots: Vec<Option<Arc<SnapChunk>>> = vec![None; store.len()];
            std::thread::scope(|scope| {
                let cursor = &cursor;
                let store = &store;
                let handles: Vec<_> = (0..threads)
                    .map(|_| {
                        scope.spawn(move || {
                            let mut out = Vec::new();
                            loop {
                                let c = cursor.fetch_add(1, Ordering::Relaxed);
                                if c >= store.len() {
                                    break;
                                }
                                out.push((c, snap_chunk_of(&store[c])));
                            }
                            out
                        })
                    })
                    .collect();
                for handle in handles {
                    for (c, chunk) in handle.join().unwrap() {
                        slots[c] = Some(chunk);
                    }
                }
            });
            slots
                .into_iter()
                .map(|slot| slot.expect("every chunk index was assembled"))
                .collect()
        };
        drop(store);
        let bytes = chunks.iter().map(|chunk| snap_chunk_bytes(chunk)).sum();
        *self.published.write().unwrap() = Arc::new(TableSnapshot { chunks, bytes });
    }

    /// The dense action row of a node, if one has been built and is valid.
    pub fn action_row(&self, id: StateId) -> Option<ActionRow> {
        self.with_node(id, |n| n.row.clone())
    }

    fn refcounting(&self) -> bool {
        !matches!(self.gc, GcPolicy::Retain)
    }

    /// The paper's `DECR-REFCOUNT`: release one reference to `id`; if the
    /// count drops to zero the node is reclaimed and the references *it*
    /// holds are released in turn. Iterative over a reused work stack, so
    /// deep release chains neither recurse nor allocate in steady state.
    fn decr_refcount_locked(&self, inner: &mut GraphInner, id: StateId) {
        let mut stack = std::mem::take(&mut inner.gc_stack);
        debug_assert!(stack.is_empty());
        stack.push(id);
        while let Some(id) = stack.pop() {
            if id == self.start {
                continue; // the start item set is never collected
            }
            // Peek first so a node that merely loses one of several
            // references does not force a chunk copy-on-write of anything
            // beyond the refcount cell.
            let (alive, refcount) = self.with_node(id, |n| (n.alive, n.refcount));
            if !alive {
                continue;
            }
            if refcount > 1 {
                self.with_node_mut(id, |n| n.refcount -= 1);
                continue;
            }
            let (fp, targets) = self.with_node_mut(id, |node| {
                node.refcount = 0;
                node.alive = false;
                // A dead node is never queried again; free its row (the
                // largest per-node allocation) immediately.
                node.row = None;
                let targets: Vec<StateId> = if node.kind != ItemSetKind::Initial {
                    node.transitions.values().copied().collect()
                } else {
                    Vec::new()
                };
                (fingerprint(&std::mem::take(&mut node.kernel)), targets)
            });
            inner.stats.nodes_collected += 1;
            // Only remove the index entry if it still points at this node
            // (a newer live node may have reused the kernel).
            inner.kernel_index.remove_if(fp, id);
            stack.extend(targets);
            self.unpublish_entry(id);
        }
        inner.gc_stack = stack;
    }

    /// Adds `lhs ::= rhs` to the grammar and updates the graph — the
    /// paper's `ADD-RULE`.
    ///
    /// `MODIFY` requires exclusive access (`&mut self`): it changes the
    /// language the graph answers for, so no parse may be in flight.
    pub fn add_rule(&mut self, grammar: &mut Grammar, lhs: SymbolId, rhs: Vec<SymbolId>) -> RuleId {
        let rule = grammar.add_rule(lhs, rhs);
        let mut inner = self.inner.lock().unwrap();
        self.modify_locked(&mut inner, grammar, lhs, rule, true);
        rule
    }

    /// Deletes `lhs ::= rhs` from the grammar and updates the graph — the
    /// paper's `DELETE-RULE`. Exclusive for the same reason as
    /// [`ItemSetGraph::add_rule`].
    pub fn remove_rule(
        &mut self,
        grammar: &mut Grammar,
        lhs: SymbolId,
        rhs: &[SymbolId],
    ) -> Result<RuleId, GrammarError> {
        let rule = grammar.remove_rule_matching(lhs, rhs)?;
        let mut inner = self.inner.lock().unwrap();
        self.modify_locked(&mut inner, grammar, lhs, rule, false);
        Ok(rule)
    }

    /// The paper's `MODIFY`: after the grammar has been updated, invalidate
    /// every complete item set whose expansion is no longer correct. These
    /// are exactly the complete item sets with a transition on the rule's
    /// left-hand side, plus the start item set when the rule defines
    /// `START`.
    ///
    /// Cost: one deep node copy per invalidated state, one 512-pointer
    /// copy per chunk holding one, and a scan of the chunks whose symbol
    /// summary may contain `lhs`. Chunks without an invalidated state stay
    /// shared with the pre-edit fork, and so does every node the edit does
    /// not write. The scan is the one term that still grows with the
    /// graph: on a fully expanded graph most summaries contain a popular
    /// `lhs`, so every node of those chunks is probed for a transition on
    /// it.
    fn modify_locked(
        &self,
        inner: &mut GraphInner,
        grammar: &Grammar,
        lhs: SymbolId,
        rule: RuleId,
        added: bool,
    ) {
        inner.stats.modifications += 1;
        inner.grammar_version = grammar.version();
        let invalidated_kind = if self.refcounting() {
            ItemSetKind::Dirty
        } else {
            ItemSetKind::Initial
        };
        let mut invalidated = std::mem::take(&mut inner.scratch_invalidated);
        invalidated.clear();

        if lhs == grammar.start_symbol() {
            // The start item set's kernel is derived from the START rules;
            // keep it in sync and re-expand it lazily.
            let start = self.start;
            let (was_complete, old_fp, new_fp) = self.with_node_mut(start, |node| {
                let old_fp = fingerprint(&node.kernel);
                let item = Item::start(rule);
                if added {
                    node.kernel.insert(item);
                } else {
                    node.kernel.remove(&item);
                }
                let was_complete = node.kind == ItemSetKind::Complete;
                if was_complete {
                    node.kind = invalidated_kind;
                    node.row = None;
                }
                (was_complete, old_fp, fingerprint(&node.kernel))
            });
            if was_complete {
                inner.stats.invalidations += 1;
                invalidated.push(start);
            }
            // Keep the kernel index in sync with the changed kernel —
            // targeted: the start node's previous kernel is its only
            // possible entry. The start node takes the new kernel's entry
            // over from any other live node with an equal kernel.
            inner.kernel_index.remove_if(old_fp, start);
            let same_kernel = |id| self.kernels_equal(id, start);
            if let Some(other) = inner.kernel_index.get(new_fp, same_kernel) {
                inner.kernel_index.remove_if(new_fp, other);
            }
            inner.kernel_index.insert(new_fp, start);
        } else {
            // Invalidate through the chunk summaries: only chunks whose
            // summary may contain `lhs` are inspected, and only chunks
            // with an actual hit are copied on write — the cached action
            // rows are dropped in the same breath as the item sets they
            // shadow.
            let mut store = self.store.write().unwrap();
            for c in 0..store.len() {
                if !store[c].summary_may_contain(lhs) {
                    continue;
                }
                let hits: Vec<usize> = store[c]
                    .nodes
                    .iter()
                    .enumerate()
                    .filter(|(_, n)| {
                        n.alive
                            && n.kind == ItemSetKind::Complete
                            && n.transitions.contains_key(&lhs)
                    })
                    .map(|(slot, _)| slot)
                    .collect();
                if hits.is_empty() {
                    continue;
                }
                let chunk = self.chunk_mut(&mut store, c);
                for slot in hits {
                    let id = chunk.update(slot, |node| {
                        node.kind = invalidated_kind;
                        node.row = None;
                        node.id
                    });
                    invalidated.push(id);
                    inner.stats.invalidations += 1;
                }
            }
        }

        let swept = self.maybe_sweep_locked(inner, grammar);
        // Invalidation dropped rows in place; retract exactly those
        // entries from the published snapshot too (exclusive: no reader
        // holds a handle). A sweep may have retracted arbitrary states,
        // so it rebuilds instead.
        if swept {
            self.rebuild_published();
        } else {
            self.retract_entries(&invalidated);
        }
        inner.scratch_invalidated = invalidated;
    }

    /// Runs a mark-and-sweep pass if the policy asks for one and the
    /// garbage fraction exceeds its threshold. Returns `true` when a
    /// sweep ran (the caller must then rebuild the published snapshot).
    fn maybe_sweep_locked(&self, inner: &mut GraphInner, grammar: &Grammar) -> bool {
        let GcPolicy::RefCountWithSweep { threshold_percent } = self.gc else {
            return false;
        };
        let live = self.num_live();
        if live == 0 {
            return false;
        }
        let reachable = self.reachable_from_start_locked(inner);
        let garbage = live.saturating_sub(reachable.len());
        if garbage * 100 > threshold_percent as usize * live {
            self.mark_and_sweep_locked(inner, grammar);
            return true;
        }
        false
    }

    fn reachable_from_start_locked(&self, inner: &GraphInner) -> Vec<StateId> {
        let mut marked = vec![false; inner.len];
        let mut stack = vec![self.start];
        marked[self.start.index()] = true;
        let mut targets: Vec<StateId> = Vec::new();
        while let Some(id) = stack.pop() {
            targets.clear();
            self.with_node(id, |node| {
                if node.kind != ItemSetKind::Initial {
                    targets.extend(node.transitions.values().copied());
                }
            });
            for &target in &targets {
                if !marked[target.index()] && self.with_node(target, |n| n.alive) {
                    marked[target.index()] = true;
                    stack.push(target);
                }
            }
        }
        marked
            .iter()
            .enumerate()
            .filter(|&(_, &m)| m)
            .map(|(i, _)| StateId::from_index(i))
            .collect()
    }

    /// Mark-and-sweep collection: reclaims every live item set that is not
    /// reachable from the start item set, and recomputes reference counts.
    /// This is the paper's proposed answer to cyclic references that
    /// reference counting alone cannot reclaim. Exclusive, like `MODIFY`.
    pub fn mark_and_sweep(&mut self, grammar: &Grammar) {
        let mut inner = self.inner.lock().unwrap();
        self.mark_and_sweep_locked(&mut inner, grammar);
        self.rebuild_published();
    }

    fn mark_and_sweep_locked(&self, inner: &mut GraphInner, _grammar: &Grammar) {
        inner.stats.sweeps += 1;
        let reachable = self.reachable_from_start_locked(inner);
        let mut keep = vec![false; inner.len];
        for id in &reachable {
            keep[id.index()] = true;
        }
        // Recount references over the surviving graph first, so the sweep
        // below writes (and copies on write) only the nodes whose liveness
        // or count actually changes; a sweep is a whole-graph pass, but
        // nodes it leaves as they were stay shared with other forks.
        let mut store = self.store.write().unwrap();
        let mut refcounts = vec![0usize; inner.len];
        for node in store.iter().flat_map(|chunk| chunk.nodes.iter()) {
            if keep[node.id.index()] && node.kind != ItemSetKind::Initial {
                for target in node.transitions.values() {
                    if keep[target.index()] {
                        refcounts[target.index()] += 1;
                    }
                }
            }
        }
        let changed = |node: &ItemSetNode| {
            let sweep = node.alive && !keep[node.id.index()];
            sweep || node.refcount != refcounts[node.id.index()]
        };
        let mut swept: Vec<(u64, StateId)> = Vec::new();
        for c in 0..store.len() {
            if !store[c].nodes.iter().any(|node| changed(node)) {
                continue;
            }
            let chunk = self.chunk_mut(&mut store, c);
            for slot in 0..chunk.nodes.len() {
                if !changed(&chunk.nodes[slot]) {
                    continue;
                }
                chunk.update(slot, |node| {
                    node.refcount = refcounts[node.id.index()];
                    if node.alive && !keep[node.id.index()] {
                        node.alive = false;
                        node.row = None;
                        inner.stats.nodes_swept += 1;
                        swept.push((fingerprint(&std::mem::take(&mut node.kernel)), node.id));
                    }
                });
            }
            chunk.rebuild_summary();
        }
        for (fp, id) in swept {
            inner.kernel_index.remove_if(fp, id);
        }
    }

    /// Forces the complete expansion of the graph (every reachable item
    /// set). Afterwards the graph is equivalent to the conventionally
    /// generated automaton — useful for tests, for the "PG via IPG"
    /// comparison, and for warming a served table before taking traffic.
    pub fn expand_all(&self, grammar: &Grammar) {
        self.expand_all_parallel(grammar, 1);
    }

    /// [`ItemSetGraph::expand_all`] with the frontier fanned out over
    /// `threads` worker threads.
    ///
    /// The expansion runs in **pipelined rounds**: each round collects the
    /// pending frontier in id order (exactly the serial scan) and copies
    /// its kernels out of the store into one flat vector, workers compute
    /// the read-only half of every expansion concurrently (closure,
    /// successor partition, reductions, fingerprints — the bulk of the
    /// work, touching no graph locks, each worker on its own
    /// [`ExpandScratch`]), and the committer consumes the results *in
    /// frontier order as they arrive*, interning successor kernels in
    /// symbol order while the workers keep computing. Because interning
    /// order is identical to the serial expansion, the resulting graph is
    /// **bit-identical** to `expand_all(grammar)`: same state ids, same
    /// kernel index, same rows (the parallel-warm equivalence proptest
    /// holds this to 256 randomized grammars). Pipelining keeps the serial
    /// commit off the critical path: round wall-clock is
    /// `max(compute / threads, commit)` rather than their sum.
    ///
    /// The whole warm holds the writer mutex, so it serializes with
    /// steady-state misses and `MODIFY` like any other write — the
    /// parallel fan-out is internal to the bulk path and does not change
    /// the locking story. Rounds smaller than a handful of kernels are
    /// expanded inline (no worker threads), so chain-shaped frontiers pay
    /// no spawn overhead.
    pub fn expand_all_parallel(&self, grammar: &Grammar, threads: usize) {
        let threads = threads.max(1);
        let mut inner = self.inner.lock().unwrap();
        inner.stats.warm_threads_used = inner.stats.warm_threads_used.max(threads);
        let mut pending = std::mem::take(&mut inner.scratch_pending);
        // The frontier's kernels, run after run, and the end of each run.
        let mut kernel_items: Vec<Item> = Vec::new();
        let mut kernel_ends: Vec<usize> = Vec::new();
        // A round expands its whole frontier (or finds it collected), so
        // after the first scan only the states it created can be pending.
        let mut scanned = 0;
        loop {
            pending.clear();
            {
                let store = self.store.read().unwrap();
                pending.extend((scanned..inner.len).map(StateId::from_index).filter(|&id| {
                    let node = &store[chunk_of(id)].nodes[slot_of(id)];
                    node.alive && node.needs_expansion()
                }));
            }
            scanned = inner.len;
            if pending.is_empty() {
                break;
            }
            if threads <= 1 || pending.len() < PARALLEL_EXPAND_MIN_BATCH {
                // Small rounds expand inline, exactly like the serial path.
                for &id in &pending {
                    // Re-check before committing: a re-expansion committed
                    // earlier in this round may have collected the node.
                    let (alive, kind) = self.with_node(id, |n| (n.alive, n.kind));
                    if alive && kind != ItemSetKind::Complete {
                        let computed = self.compute_expansion_locked(&mut inner, grammar, id);
                        self.commit_by_kind_locked(&mut inner, id, kind, &computed);
                        inner.scratch_computed = computed;
                    }
                }
            } else {
                // Pipelined round: copy the frontier's kernels out of the
                // store up front so the workers run lock-free, then commit
                // each result in frontier order as soon as it is deposited
                // — interning overlaps with the remaining closures.
                kernel_items.clear();
                kernel_ends.clear();
                {
                    let store = self.store.read().unwrap();
                    for &id in &pending {
                        kernel_items.extend(&store[chunk_of(id)].nodes[slot_of(id)].kernel);
                        kernel_ends.push(kernel_items.len());
                    }
                }
                let kernel = |i: usize| {
                    let start = if i == 0 { 0 } else { kernel_ends[i - 1] };
                    kernel_items[start..kernel_ends[i]].iter().copied()
                };
                let round = RoundQueue::new(pending.len());
                std::thread::scope(|scope| {
                    for _ in 0..threads.min(pending.len()) {
                        let (round, kernel, pending) = (&round, &kernel, &pending);
                        scope.spawn(move || {
                            let mut scratch = ExpandScratch::default();
                            while let Some(i) = round.claim(pending.len()) {
                                let mut out = ComputedExpansion::default();
                                compute_expansion_of(grammar, kernel(i), &mut scratch, &mut out);
                                round.deposit(i, out);
                            }
                        });
                    }
                    for (i, &id) in pending.iter().enumerate() {
                        let computed = round.take(i);
                        // Re-check under the still-held writer: a
                        // re-expansion committed earlier in this round may
                        // have collected the node (its precomputed result
                        // is then simply dropped).
                        let (alive, kind) = self.with_node(id, |n| (n.alive, n.kind));
                        if alive {
                            self.commit_by_kind_locked(&mut inner, id, kind, &computed);
                        }
                    }
                });
            }
            inner.stats.warm_batches_published += 1;
        }
        inner.scratch_pending = pending;
    }

    /// Publishes the dense action row of every live complete node — used
    /// together with [`ItemSetGraph::expand_all`] to fully warm a served
    /// table.
    pub fn publish_all_rows(&self, grammar: &Grammar) {
        self.publish_all_rows_parallel(grammar, 1);
    }

    /// [`ItemSetGraph::publish_all_rows`] with row building and snapshot
    /// assembly fanned out over `threads` workers. Rows live in disjoint
    /// storage chunks, so workers fill them without synchronisation once
    /// the (serial) copy-on-write pass has made the touched chunks unique;
    /// the published snapshot is likewise assembled chunk-parallel and
    /// swapped in once. Results are identical to the serial path.
    pub fn publish_all_rows_parallel(&self, grammar: &Grammar, threads: usize) {
        let threads = threads.max(1);
        let mut inner = self.inner.lock().unwrap();
        let num_symbols = grammar.symbols().len();
        let version = grammar.version();
        let needs_rows = |chunk: &NodeChunk| {
            chunk
                .nodes
                .iter()
                .any(|n| n.alive && n.kind == ItemSetKind::Complete && n.row.is_none())
        };
        {
            let mut store = self.store.write().unwrap();
            // Unshare every chunk that needs row writes (serial, O(#chunks)
            // checks), then hand the now-unique chunks to workers disjointly.
            for c in 0..store.len() {
                if needs_rows(&store[c]) {
                    let _ = self.chunk_mut(&mut store, c);
                }
            }
            let mut chunk_refs: Vec<&mut NodeChunk> = store
                .iter_mut()
                .filter(|arc| needs_rows(arc))
                .map(|arc| Arc::get_mut(arc).expect("chunk was unshared above"))
                .collect();
            let built = if threads <= 1 || chunk_refs.len() < 2 {
                let mut built = 0;
                for chunk in &mut chunk_refs {
                    built += build_rows_in_chunk(chunk, num_symbols, version);
                }
                built
            } else {
                let mut built = 0;
                std::thread::scope(|scope| {
                    let per = chunk_refs.len().div_ceil(threads);
                    let mut handles = Vec::new();
                    let mut rest: &mut [&mut NodeChunk] = &mut chunk_refs;
                    while !rest.is_empty() {
                        let take = per.min(rest.len());
                        let (head, tail) = std::mem::take(&mut rest).split_at_mut(take);
                        rest = tail;
                        handles.push(scope.spawn(move || {
                            let mut built = 0;
                            for chunk in head.iter_mut() {
                                built += build_rows_in_chunk(chunk, num_symbols, version);
                            }
                            built
                        }));
                    }
                    for handle in handles {
                        built += handle.join().unwrap();
                    }
                });
                built
            };
            inner.stats.rows_built += built;
        }
        // One batch publication instead of a copy-on-write snapshot per
        // row (which would be quadratic in the number of states).
        self.rebuild_published_parallel(threads);
    }

    /// Renders the live part of the graph in the style of the paper's item
    /// set diagrams.
    pub fn render(&self, grammar: &Grammar) -> String {
        let mut out = String::new();
        for node in self.live_nodes() {
            let kind = match node.kind {
                ItemSetKind::Initial => "initial",
                ItemSetKind::Dirty => "dirty",
                ItemSetKind::Complete => "complete",
            };
            out.push_str(&format!("item set {} ({kind}, rc={}):\n", node.id, node.refcount));
            for item in &node.kernel {
                out.push_str(&format!("    {}\n", item.display(grammar)));
            }
            if node.kind == ItemSetKind::Complete {
                for (&sym, &target) in &node.transitions {
                    out.push_str(&format!("    --{}--> {}\n", grammar.name(sym), target));
                }
                for &rule in &node.reductions {
                    out.push_str(&format!(
                        "    reduce {}\n",
                        grammar.rule(rule).display(grammar.symbols())
                    ));
                }
                if node.accepting {
                    out.push_str("    --$--> accept\n");
                }
            }
        }
        out
    }

    /// Declares that the grammar changed in a way that does not affect the
    /// graph (e.g. new symbols were interned but no rule was added or
    /// removed). Rule modifications must go through
    /// [`ItemSetGraph::add_rule`] / [`ItemSetGraph::remove_rule`] instead.
    pub fn acknowledge_non_structural_change(&mut self, grammar: &Grammar) {
        self.inner.lock().unwrap().grammar_version = grammar.version();
    }

    // ------------------------------------------------------------------
    // Structural sharing (observability + benchmark support)
    // ------------------------------------------------------------------

    /// Number of storage chunks currently allocated.
    pub fn num_chunks(&self) -> usize {
        self.store.read().unwrap().len()
    }

    /// The index of the storage chunk that holds state `id`.
    pub fn chunk_of_state(id: StateId) -> usize {
        chunk_of(id)
    }

    /// Per-chunk sharing with `other`: entry `c` is `true` when chunk `c`
    /// of both graphs is the *same* storage (`Arc::ptr_eq`), i.e. the two
    /// forks structurally share it. Compared up to the shorter graph.
    pub fn shared_chunks_with(&self, other: &ItemSetGraph) -> Vec<bool> {
        let mine = self.store.read().unwrap();
        let theirs = other.store.read().unwrap();
        mine.iter()
            .zip(theirs.iter())
            .map(|(a, b)| Arc::ptr_eq(a, b))
            .collect()
    }

    /// Per-node sharing with `other`: entry `i` is `true` when state `i`
    /// of both graphs is the *same* node allocation (`Arc::ptr_eq`) —
    /// the node-granular counterpart of
    /// [`ItemSetGraph::shared_chunks_with`]. A node stays shared across a
    /// fork until one side writes it, even when its chunk was copied.
    /// Compared up to the shorter graph.
    pub fn shared_nodes_with(&self, other: &ItemSetGraph) -> Vec<bool> {
        let mine = self.store.read().unwrap();
        let theirs = other.store.read().unwrap();
        mine.iter()
            .flat_map(|chunk| chunk.nodes.iter())
            .zip(theirs.iter().flat_map(|chunk| chunk.nodes.iter()))
            .map(|(a, b)| Arc::ptr_eq(a, b))
            .collect()
    }

    /// The modeled resident bytes of this graph's derived parser state:
    /// node chunks (kernels, transitions, reductions, cached action rows)
    /// plus the published table snapshot. Served from the incrementally
    /// maintained per-chunk counters — O(#chunks), never O(#nodes).
    ///
    /// The sharded kernel index is deliberately excluded: it holds one
    /// fingerprint/id pair per live node, so it is bounded by (and far
    /// smaller than) the node bytes already counted, and it is not
    /// evictable derived state — re-lazification rebuilds it from scratch
    /// anyway.
    pub fn resident_bytes(&self) -> usize {
        let store_bytes: usize = self.store.read().unwrap().iter().map(|c| c.bytes).sum();
        store_bytes + self.published.read().unwrap().bytes
    }

    /// Recomputes [`ItemSetGraph::resident_bytes`] with a fresh walk over
    /// every node and published entry, bypassing the cached per-chunk
    /// counters. The accounting-exactness test holds the cached value to
    /// this oracle after arbitrary EXPAND / MODIFY / GC histories.
    pub fn recompute_resident_bytes(&self) -> usize {
        let store_bytes: usize = self
            .store
            .read()
            .unwrap()
            .iter()
            .map(|c| chunk_bytes_of(c))
            .sum();
        let published = self.published.read().unwrap();
        let snap_bytes: usize = published.chunks.iter().map(|c| snap_chunk_bytes(c)).sum();
        store_bytes + snap_bytes
    }

    /// `(storage address, modeled bytes)` of every resident chunk — node
    /// chunks first, snapshot chunks after. Forks that structurally share
    /// a chunk report the *same* address, so a registry can sum bytes
    /// across tenants deduplicated by pointer identity (shared base chunks
    /// are counted once, not per dialect).
    pub fn chunk_accounting(&self) -> Vec<(usize, usize)> {
        let mut rows: Vec<(usize, usize)> = self
            .store
            .read()
            .unwrap()
            .iter()
            .map(|c| (Arc::as_ptr(c) as usize, c.bytes))
            .collect();
        let published = self.published.read().unwrap();
        rows.extend(
            published
                .chunks
                .iter()
                .map(|c| (Arc::as_ptr(c) as usize, snap_chunk_bytes(c))),
        );
        rows
    }

    /// Strong handles to every storage chunk, in chunk order. Tests and
    /// tools downgrade these to [`ChunkObserver`]s to verify that
    /// reclamation is chunk-granular: a retired epoch frees exactly the
    /// chunks no live epoch shares.
    pub fn chunk_handles(&self) -> Vec<ChunkHandle> {
        self.store
            .read()
            .unwrap()
            .iter()
            .map(|chunk| ChunkHandle(chunk.clone()))
            .collect()
    }

    /// Forces every structurally shared piece of this graph — node chunks
    /// and the nodes in them, kernel-index shards, published snapshot
    /// chunks — to be uniquely owned, copying whatever is still shared
    /// with other forks. This reproduces the cost profile of the
    /// pre-persistent *deep* fork and exists for benchmark comparison
    /// (`publish-scaling`), not for serving.
    pub fn unshare_all(&self) {
        let mut inner = self.inner.lock().unwrap();
        {
            let mut store = self.store.write().unwrap();
            for chunk in store.iter_mut() {
                let mut copy = (**chunk).clone();
                for node in &mut copy.nodes {
                    *node = Arc::new((**node).clone());
                }
                *chunk = Arc::new(copy);
            }
        }
        inner.kernel_index.unshare();
        let mut published = self.published.write().unwrap();
        let chunks = published
            .chunks
            .iter()
            .map(|chunk| Arc::new((**chunk).clone()))
            .collect();
        let bytes = published.bytes;
        *published = Arc::new(TableSnapshot { chunks, bytes });
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use ipg_grammar::fixtures;

    #[test]
    fn new_graph_contains_only_the_initial_start_state() {
        // Fig. 5.1(a): after (lazy) generation the graph consists of the
        // start item set only, with type initial.
        let g = fixtures::booleans();
        let graph = ItemSetGraph::new(&g);
        assert_eq!(graph.num_live(), 1);
        let start = graph.node(graph.start_state());
        assert_eq!(start.kind, ItemSetKind::Initial);
        assert_eq!(start.kernel.len(), 1);
        assert!(start.needs_expansion());
    }

    #[test]
    fn expanding_the_start_state_matches_fig_51b() {
        let g = fixtures::booleans();
        let graph = ItemSetGraph::new(&g);
        graph.ensure_expanded(&g, graph.start_state());
        // Fig. 5.1(b): the start state plus three initial successors
        // (on B, true, false).
        assert_eq!(graph.num_live(), 4);
        let start = graph.node(graph.start_state());
        assert_eq!(start.kind, ItemSetKind::Complete);
        assert_eq!(start.transitions.len(), 3);
        assert_eq!(graph.stats().expansions, 1);
        let size = graph.size();
        assert_eq!(size.complete, 1);
        assert_eq!(size.initial, 3);
    }

    #[test]
    fn full_expansion_matches_conventional_automaton() {
        let g = fixtures::booleans();
        let graph = ItemSetGraph::new(&g);
        graph.expand_all(&g);
        let conventional = ipg_lr::Lr0Automaton::build(&g);
        assert_eq!(graph.num_live(), conventional.num_states());
        // Every kernel of the conventional automaton exists in the graph.
        for state in conventional.states() {
            assert!(
                graph.live_nodes().any(|n| n.kernel == state.kernel),
                "kernel missing: {:?}",
                state.kernel
            );
        }
    }

    #[test]
    fn add_rule_invalidates_states_with_transition_on_lhs() {
        // §6.1 / Fig. 6.4: adding `B ::= unknown` makes the item sets with
        // a transition on B initial/dirty again (states 0, 4, 5 in the
        // paper's numbering).
        let mut g = fixtures::booleans();
        let mut graph = ItemSetGraph::new(&g);
        graph.expand_all(&g);
        let before = graph.num_live();
        let b = g.symbol("B").unwrap();
        let unknown = g.terminal("unknown");
        graph.add_rule(&mut g, b, vec![unknown]);
        let invalidated = graph
            .live_nodes()
            .filter(|n| n.kind != ItemSetKind::Complete)
            .count();
        assert_eq!(invalidated, 3, "exactly the three states with a B transition");
        assert_eq!(graph.num_live(), before, "nothing is thrown away yet");
        assert_eq!(graph.stats().invalidations, 3);
    }

    #[test]
    fn re_expansion_after_addition_reconnects_and_extends_the_graph() {
        // Fig. 6.5: re-expanding item set 0 re-establishes its old
        // connections and creates the new `B ::= unknown .` item set.
        let mut g = fixtures::booleans();
        let mut graph = ItemSetGraph::new(&g);
        graph.expand_all(&g);
        let b = g.symbol("B").unwrap();
        let unknown = g.terminal("unknown");
        graph.add_rule(&mut g, b, vec![unknown]);
        graph.ensure_expanded(&g, graph.start_state());
        let start = graph.node(graph.start_state());
        assert_eq!(start.kind, ItemSetKind::Complete);
        assert!(start.transitions.contains_key(&unknown));
        assert_eq!(start.transitions.len(), 4);
        // The old successors were re-used, not regenerated.
        assert!(graph.stats().re_expansions >= 1);
    }

    #[test]
    fn start_rule_modification_updates_the_start_kernel() {
        let mut g = fixtures::booleans();
        let mut graph = ItemSetGraph::new(&g);
        graph.expand_all(&g);
        // Add `START ::= E` (with E ::= id so the grammar stays valid).
        let e = g.nonterminal("E");
        let id = g.terminal("id");
        graph.add_rule(&mut g, e, vec![id]);
        let start_sym = g.start_symbol();
        graph.add_rule(&mut g, start_sym, vec![e]);
        let start = graph.node(graph.start_state());
        assert_eq!(start.kernel.len(), 2);
        assert!(start.needs_expansion());
        graph.ensure_expanded(&g, graph.start_state());
        assert!(graph.node(graph.start_state()).transitions.contains_key(&e));
    }

    #[test]
    fn delete_rule_then_reexpand_drops_the_transition() {
        let mut g = fixtures::booleans();
        let mut graph = ItemSetGraph::new(&g);
        graph.expand_all(&g);
        let b = g.symbol("B").unwrap();
        let fa = g.symbol("false").unwrap();
        graph.remove_rule(&mut g, b, &[fa]).unwrap();
        graph.ensure_expanded(&g, graph.start_state());
        let start = graph.node(graph.start_state());
        assert!(!start.transitions.contains_key(&fa));
        assert_eq!(start.transitions.len(), 2);
    }

    #[test]
    fn deleting_a_missing_rule_is_an_error_and_leaves_the_graph_intact() {
        let mut g = fixtures::booleans();
        let mut graph = ItemSetGraph::new(&g);
        graph.expand_all(&g);
        let b = g.symbol("B").unwrap();
        let or = g.symbol("or").unwrap();
        let before = graph.stats().modifications;
        assert!(graph.remove_rule(&mut g, b, &[or]).is_err());
        assert_eq!(graph.stats().modifications, before);
        assert!(graph.live_nodes().all(|n| n.kind == ItemSetKind::Complete));
    }

    #[test]
    fn refcount_gc_reclaims_unreachable_states() {
        // Deleting `B ::= B and B` and re-expanding everything reachable
        // leaves the `and`-successor states unreferenced; with refcount GC
        // they are reclaimed once their referrers are re-expanded.
        let mut g = fixtures::booleans();
        let mut graph = ItemSetGraph::with_policy(&g, GcPolicy::RefCount);
        graph.expand_all(&g);
        let full = graph.num_live();
        let b = g.symbol("B").unwrap();
        let and = g.symbol("and").unwrap();
        graph.remove_rule(&mut g, b, &[b, and, b]).unwrap();
        graph.expand_all(&g);
        assert!(graph.stats().nodes_collected > 0, "GC reclaimed something");
        assert!(graph.num_live() < full);
    }

    #[test]
    fn retain_policy_keeps_everything() {
        let mut g = fixtures::booleans();
        let mut graph = ItemSetGraph::with_policy(&g, GcPolicy::Retain);
        graph.expand_all(&g);
        let full = graph.num_live();
        let b = g.symbol("B").unwrap();
        let and = g.symbol("and").unwrap();
        graph.remove_rule(&mut g, b, &[b, and, b]).unwrap();
        graph.expand_all(&g);
        assert_eq!(graph.stats().nodes_collected, 0);
        assert!(graph.num_live() >= full);
    }

    #[test]
    fn mark_and_sweep_reclaims_unreachable_states() {
        let mut g = fixtures::booleans();
        let mut graph = ItemSetGraph::with_policy(&g, GcPolicy::Retain);
        graph.expand_all(&g);
        let b = g.symbol("B").unwrap();
        let and = g.symbol("and").unwrap();
        graph.remove_rule(&mut g, b, &[b, and, b]).unwrap();
        graph.expand_all(&g);
        let before_sweep = graph.num_live();
        graph.mark_and_sweep(&g);
        assert!(graph.num_live() < before_sweep);
        assert!(graph.stats().nodes_swept > 0);
        assert_eq!(graph.stats().sweeps, 1);
    }

    #[test]
    fn fig62_addition_is_handled_like_fig63() {
        // §6: adding `A ::= b` to the grammar of Fig. 6.2 invalidates item
        // set 3 (the one with a transition on A); re-expansion replaces its
        // `b`-successor by a new item set with kernel {B ::= b ., A ::= b .}
        // while the old `B ::= b .` item set survives for the other branch.
        let mut g = fixtures::fig62();
        let mut graph = ItemSetGraph::new(&g);
        graph.expand_all(&g);
        let a_sym = g.symbol("A").unwrap();
        let b_tok = g.symbol("b").unwrap();
        let rule_b = g.symbol("B").unwrap();
        graph.add_rule(&mut g, a_sym, vec![b_tok]);
        // Only the state with a transition on A is invalidated.
        let invalidated: Vec<_> = graph
            .live_nodes()
            .filter(|n| n.kind != ItemSetKind::Complete)
            .collect();
        assert_eq!(invalidated.len(), 1);
        assert!(invalidated[0].transitions.contains_key(&a_sym));
        graph.expand_all(&g);
        // There is now an item set whose kernel holds both completed rules
        // `B ::= b .` and `A ::= b .`.
        let double = graph.live_nodes().find(|n| {
            n.kernel.len() == 2
                && n.kernel
                    .iter()
                    .all(|i| i.is_complete(&g) && g.rule(i.rule).rhs == vec![b_tok])
        });
        assert!(double.is_some(), "merged b-successor item set exists");
        // And the plain `B ::= b .` item set still exists for the other branch.
        let single = graph.live_nodes().any(|n| {
            n.kernel.len() == 1
                && n.kernel.iter().all(|i| {
                    i.is_complete(&g) && g.rule(i.rule).lhs == rule_b && g.rule(i.rule).rhs == vec![b_tok]
                })
        });
        assert!(single, "original B ::= b . item set survives");
    }

    #[test]
    fn sweep_policy_reclaims_garbage() {
        let mut g = fixtures::booleans();
        let mut graph =
            ItemSetGraph::with_policy(&g, GcPolicy::RefCountWithSweep { threshold_percent: 10 });
        graph.expand_all(&g);
        let b = g.symbol("B").unwrap();
        let and = g.symbol("and").unwrap();
        let or = g.symbol("or").unwrap();
        graph.remove_rule(&mut g, b, &[b, and, b]).unwrap();
        graph.remove_rule(&mut g, b, &[b, or, b]).unwrap();
        graph.expand_all(&g);
        assert!(graph.stats().total_collected() > 0);
        // A final sweep reduces the live graph to exactly the automaton of
        // the reduced grammar (reference counting alone may leave cyclic
        // garbage behind, which is precisely why the paper suggests the
        // sweep).
        graph.mark_and_sweep(&g);
        let conventional = ipg_lr::Lr0Automaton::build(&g);
        assert_eq!(graph.num_live(), conventional.num_states());
        assert!(graph.live_nodes().all(|n| n.refcount > 0 || n.id == graph.start_state()));
    }

    #[test]
    fn render_mentions_kinds_and_transitions() {
        let g = fixtures::booleans();
        let graph = ItemSetGraph::new(&g);
        graph.ensure_expanded(&g, graph.start_state());
        let text = graph.render(&g);
        assert!(text.contains("complete"));
        assert!(text.contains("initial"));
        assert!(text.contains("--true-->"));
    }

    #[test]
    fn try_node_reports_stale_ids_as_errors() {
        let mut g = fixtures::booleans();
        let mut graph = ItemSetGraph::with_policy(&g, GcPolicy::RefCount);
        graph.expand_all(&g);
        assert!(graph.try_node(graph.start_state()).is_ok());
        let bogus = StateId::from_index(9999);
        assert_eq!(graph.try_node(bogus).map(|_| ()), Err(GraphError::UnknownState(bogus)));
        assert!(GraphError::UnknownState(bogus).to_string().contains("9999"));
        // Collect something, then resolve its id.
        let b = g.symbol("B").unwrap();
        let and = g.symbol("and").unwrap();
        graph.remove_rule(&mut g, b, &[b, and, b]).unwrap();
        graph.expand_all(&g);
        let dead = (0..graph.stats().nodes_created)
            .map(StateId::from_index)
            .find(|&id| !graph.node(id).alive)
            .expect("refcount GC collected a node");
        assert_eq!(graph.try_node(dead).map(|_| ()), Err(GraphError::CollectedState(dead)));
        assert!(GraphError::CollectedState(dead).to_string().contains("reclaimed"));
    }

    #[test]
    fn concurrent_readers_share_one_lazily_expanded_graph() {
        use ipg_glr::GssParser;
        use ipg_lr::tokenize_names;

        let g = fixtures::booleans();
        let graph = ItemSetGraph::new(&g);
        let sentences = ["true and true", "false or true", "true or false and true"];
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let parser = GssParser::new(&g);
                    for sentence in sentences {
                        let tokens = tokenize_names(&g, sentence).unwrap();
                        let tables = crate::tables::LazyTables::new(&g, &graph).unwrap();
                        assert!(parser.recognize(&tables, &tokens), "`{sentence}`");
                    }
                });
            }
        });
        // All threads drove the same graph; it expanded each state once.
        let full = ipg_lr::Lr0Automaton::build(&g).num_states();
        assert!(graph.stats().expansions <= full);
        assert!(graph.size().complete > 0);
    }

    #[test]
    fn graph_clone_is_independent_via_cow() {
        let g = fixtures::booleans();
        let graph = ItemSetGraph::new(&g);
        graph.ensure_expanded(&g, graph.start_state());
        let clone = graph.clone();
        assert_eq!(clone.num_live(), graph.num_live());
        // The fork shares every chunk until one side writes.
        assert!(clone.shared_chunks_with(&graph).iter().all(|&s| s));
        let before = graph.num_live();
        clone.expand_all(&g);
        assert!(clone.num_live() > before);
        assert_eq!(graph.num_live(), before, "original untouched by the fork");
        // Writing copied the shared chunk on write.
        assert!(clone.shared_chunks_with(&graph).iter().all(|&s| !s));
        assert!(clone.stats().chunks_cowed > 0);
    }

    #[test]
    fn modify_on_a_fork_copies_only_chunks_with_invalidated_states() {
        // Build a graph spanning several chunks, fork it, apply the §6
        // invalidation on the fork, and check chunk-granular sharing:
        // exactly the chunks holding an invalidated state were copied.
        let g = fixtures::booleans();
        let graph = ItemSetGraph::new(&g);
        graph.expand_all(&g);
        let mut fork = graph.clone();
        let mut g2 = g.clone();
        let b = g.symbol("B").unwrap();
        let unknown = g2.terminal("unknown");
        fork.add_rule(&mut g2, b, vec![unknown]);
        let dirty_chunks: std::collections::BTreeSet<usize> = fork
            .live_nodes()
            .filter(|n| n.kind != ItemSetKind::Complete)
            .map(|n| ItemSetGraph::chunk_of_state(n.id))
            .collect();
        assert!(!dirty_chunks.is_empty());
        let shared = fork.shared_chunks_with(&graph);
        for (c, &is_shared) in shared.iter().enumerate() {
            assert_eq!(
                is_shared,
                !dirty_chunks.contains(&c),
                "chunk {c}: shared iff it holds no invalidated state"
            );
        }
        // The original graph still answers for the old grammar.
        assert!(graph.live_nodes().all(|n| n.kind == ItemSetKind::Complete));
        assert_eq!(graph.grammar_version(), g.version());
    }

    // ------------------------------------------------------------------
    // The flat EXPAND against the eager generator's item-set functions
    // ------------------------------------------------------------------

    use ipg_lr::itemset::{closure, completed_items, partition_by_next_symbol};

    /// Successor kernels in symbol order, reductions, accepting flag.
    type Expansion = (Vec<(SymbolId, ItemSet)>, Vec<RuleId>, bool);

    /// The expansion of `kernel` by the eager LR(0) generator's
    /// `closure` / `partition_by_next_symbol` / `completed_items`.
    fn oracle_expansion(g: &Grammar, kernel: &ItemSet) -> Expansion {
        let closed = closure(g, kernel);
        let successors = partition_by_next_symbol(g, &closed).into_iter().collect();
        let mut reductions = Vec::new();
        let mut accepting = false;
        for item in completed_items(g, &closed) {
            if !g.is_active(item.rule) {
                continue;
            }
            if g.rule(item.rule).lhs == g.start_symbol() {
                accepting = true;
            } else {
                reductions.push(item.rule);
            }
        }
        reductions.sort();
        reductions.dedup();
        (successors, reductions, accepting)
    }

    /// `compute_expansion_of` on `kernel`, in the oracle's shape. Also
    /// checks that every run is sorted, free of duplicates and carries its
    /// own fingerprint.
    fn flat_expansion(g: &Grammar, kernel: &ItemSet, scratch: &mut ExpandScratch) -> Expansion {
        let mut computed = ComputedExpansion::default();
        compute_expansion_of(g, kernel.iter().copied(), scratch, &mut computed);
        let successors = computed
            .successor_runs()
            .map(|(succ, run)| {
                assert!(
                    run.windows(2).all(|w| w[0] < w[1]),
                    "run is sorted and unique"
                );
                assert_eq!(succ.fingerprint, fingerprint(run));
                (succ.symbol, run.iter().copied().collect())
            })
            .collect();
        (successors, computed.reductions, computed.accepting)
    }

    /// Checks every live node: the flat expansion of its kernel equals the
    /// oracle's, and so do a complete node's successor kernels, reductions
    /// and accepting flag. Returns the number of complete nodes checked.
    fn assert_matches_oracle(g: &Grammar, graph: &ItemSetGraph) -> usize {
        // One scratch for every kernel, as the writer reuses its own.
        let mut scratch = ExpandScratch::default();
        let mut complete = 0;
        for node in graph.live_nodes() {
            let expected = oracle_expansion(g, &node.kernel);
            assert_eq!(
                flat_expansion(g, &node.kernel, &mut scratch),
                expected,
                "state {}",
                node.id
            );
            if node.kind == ItemSetKind::Complete {
                let successors = node
                    .transitions
                    .iter()
                    .map(|(&symbol, &target)| (symbol, graph.node(target).kernel))
                    .collect();
                let stored = (successors, node.reductions.clone(), node.accepting);
                assert_eq!(stored, expected, "state {}", node.id);
                complete += 1;
            }
        }
        complete
    }

    #[test]
    fn flat_expansion_matches_the_itemset_oracle() {
        let sdf = ipg_sdf::fixtures::sdf_grammar_and_scanner().grammar;
        for (name, g) in [
            ("booleans", fixtures::booleans()),
            ("arithmetic", fixtures::arithmetic()),
            ("palindromes (ε-rules)", fixtures::palindromes()),
            ("SDF", sdf),
            ("wide_synthetic(200)", fixtures::wide_synthetic(200)),
        ] {
            let serial = ItemSetGraph::new(&g);
            serial.expand_all(&g);
            assert_eq!(
                assert_matches_oracle(&g, &serial),
                serial.num_live(),
                "{name}"
            );
            // The parallel warm computes on per-worker scratch; its graph
            // is the serial one, state for state.
            let parallel = ItemSetGraph::new(&g);
            parallel.expand_all_parallel(&g, 3);
            assert_eq!(parallel.render(&g), serial.render(&g), "{name}");
            let stats = serial.stats();
            assert_eq!(
                stats.kernel_lookups - stats.kernel_hits,
                stats.nodes_created,
                "{name}"
            );
            assert_eq!(
                parallel.stats().kernel_lookups,
                stats.kernel_lookups,
                "{name}: the parallel warm interns the same kernels"
            );
        }
    }

    #[test]
    fn dot0_kernel_items_are_not_added_again_by_the_closure() {
        // `START ::= START y | z`: closing the START kernel reaches START
        // again, whose dot-0 rules are already kernel items. A duplicate
        // would show up twice in the run of the START successor.
        let mut g = Grammar::new();
        let start = g.start_symbol();
        let (y, z) = (g.terminal("y"), g.terminal("z"));
        g.add_rule(start, vec![start, y]);
        g.add_rule(start, vec![z]);
        let graph = ItemSetGraph::new(&g);
        graph.expand_all(&g);
        let kernel = graph.node(graph.start_state()).kernel;
        assert!(kernel.len() == 2 && kernel.iter().all(|item| item.dot == 0));
        assert_eq!(assert_matches_oracle(&g, &graph), graph.num_live());
        assert!(graph
            .node(graph.start_state())
            .transitions
            .contains_key(&start));
    }

    #[test]
    fn stale_kernels_of_deleted_rules_expand_like_the_oracle() {
        // Under `Retain` the states built for deleted rules stay alive, and
        // their kernels still hold items of those rules, completed or not.
        let mut g = fixtures::booleans();
        let mut graph = ItemSetGraph::with_policy(&g, GcPolicy::Retain);
        graph.expand_all(&g);
        let b = g.symbol("B").unwrap();
        let (t, and) = (g.symbol("true").unwrap(), g.symbol("and").unwrap());
        graph.remove_rule(&mut g, b, &[t]).unwrap();
        graph.remove_rule(&mut g, b, &[b, and, b]).unwrap();
        graph.expand_all(&g);
        let stale: Vec<Item> = graph
            .live_nodes()
            .flat_map(|node| node.kernel)
            .filter(|item| !g.is_active(item.rule))
            .collect();
        assert!(stale.iter().any(|item| item.is_complete(&g)));
        assert!(stale.iter().any(|item| !item.is_complete(&g)));
        // Complete stale nodes that no edit invalidated keep their old
        // expansion; recomputing any kernel must agree with the oracle.
        let mut scratch = ExpandScratch::default();
        for node in graph.live_nodes() {
            let expected = oracle_expansion(&g, &node.kernel);
            assert_eq!(
                flat_expansion(&g, &node.kernel, &mut scratch),
                expected,
                "state {}",
                node.id
            );
        }
    }

    #[test]
    fn stage_counters_count_lookups_and_time_only_the_lazy_path() {
        let g = fixtures::wide_synthetic(100);
        let warmed = ItemSetGraph::new(&g);
        warmed.expand_all(&g);
        let warm = warmed.stats();
        assert!(warm.kernel_hits > 0);
        assert_eq!((warm.expand_compute_us, warm.expand_commit_us), (0, 0));
        // Expanding lazily in id order is the serial warm's order.
        let lazy = ItemSetGraph::new(&g);
        let mut id = 0;
        while lazy.try_node(StateId::from_index(id)).is_ok() {
            lazy.ensure_expanded(&g, StateId::from_index(id));
            id += 1;
        }
        let lazy = lazy.stats();
        assert_eq!(
            (lazy.kernel_lookups, lazy.kernel_hits, lazy.nodes_created),
            (warm.kernel_lookups, warm.kernel_hits, warm.nodes_created)
        );
        assert!(lazy.expand_compute_us + lazy.expand_commit_us > 0);
    }

    // ------------------------------------------------------------------
    // The fingerprint-keyed kernel index
    // ------------------------------------------------------------------

    #[test]
    fn kernel_index_confirms_candidates_of_colliding_fingerprints() {
        // State `k` stands for kernel `k`; three distinct kernels share
        // one fingerprint.
        const FP: u64 = 7;
        let id = StateId::from_index;
        let kernel = |k: usize| move |candidate: StateId| candidate == id(k);
        let mut index = KernelIndex::new();
        for k in 0..3 {
            index.insert(FP, id(k));
        }
        for k in 0..3 {
            assert_eq!(index.get(FP, kernel(k)), Some(id(k)));
            assert_eq!(index.get(FP + KERNEL_SHARDS as u64, kernel(k)), None);
        }
        assert_eq!(index.get(FP, kernel(3)), None);

        // Removing something that is not there copies nothing.
        let fork = index.clone();
        let shard = KernelIndex::shard_of(FP);
        index.remove_if(FP, id(9));
        index.remove_if(FP + 1, id(1));
        assert!(Arc::ptr_eq(&index.shards[shard], &fork.shards[shard]));
        assert_eq!(index.get(FP, kernel(1)), Some(id(1)));

        // Removing the first candidate promotes another; removing the
        // others empties the key. The fork keeps its copy.
        index.remove_if(FP, id(0));
        assert_eq!(index.get(FP, kernel(0)), None);
        assert_eq!(index.get(FP, kernel(2)), Some(id(2)));
        index.remove_if(FP, id(2));
        assert_eq!(index.get(FP, kernel(1)), Some(id(1)));
        index.remove_if(FP, id(1));
        assert!(index.shards[shard].first.is_empty() && index.shards[shard].more.is_empty());
        for k in 0..3 {
            assert_eq!(fork.get(FP, kernel(k)), Some(id(k)));
        }
    }

    #[test]
    fn start_kernel_rekey_takes_the_entry_of_an_equal_kernel() {
        // Another live node already has the kernel the start state gets
        // from `START ::= B B`; the start state takes the index entry over
        // and the other node stays alive, unindexed.
        let mut g = fixtures::booleans();
        let mut graph = ItemSetGraph::new(&g);
        graph.expand_all(&g);
        let (start_sym, b) = (g.start_symbol(), g.symbol("B").unwrap());
        let new_rule = RuleId::from_index(g.num_rule_slots());
        let mut rekeyed: Vec<Item> = graph.node(graph.start_state()).kernel.into_iter().collect();
        rekeyed.push(Item::start(new_rule));
        rekeyed.sort();
        let fp = fingerprint(&rekeyed);
        let lookup = |graph: &ItemSetGraph| {
            let inner = graph.inner.lock().unwrap();
            inner
                .kernel_index
                .get(fp, |id| graph.kernel_is(id, &rekeyed))
        };
        let other = {
            let mut inner = graph.inner.lock().unwrap();
            graph.intern_kernel_locked(&mut inner, &rekeyed, fp)
        };
        assert_eq!(lookup(&graph), Some(other));

        assert_eq!(graph.add_rule(&mut g, start_sym, vec![b, b]), new_rule);
        assert_eq!(lookup(&graph), Some(graph.start_state()));
        assert!(graph.node(other).alive);
        // The other node's entry is gone: removing it leaves the start's.
        graph
            .inner
            .lock()
            .unwrap()
            .kernel_index
            .remove_if(fp, other);
        assert_eq!(lookup(&graph), Some(graph.start_state()));
    }
}
