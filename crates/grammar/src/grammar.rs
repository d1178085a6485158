//! The mutable context-free grammar at the heart of the IPG system.
//!
//! The paper's algorithms treat `Grammar` as a global that is updated by
//! `ADD-RULE` / `DELETE-RULE` while (lazy) parse-table generation is going
//! on. This module provides exactly that: a grammar that can be modified
//! rule by rule, keeps stable [`RuleId`]s across modifications, and exposes
//! a monotonically increasing [`Grammar::version`] so that derived
//! structures (parse tables, item-set graphs, scanners) can detect
//! staleness.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::rule::{Associativity, Rule, RuleId};
use crate::symbol::{SymbolId, SymbolKind, SymbolTable};

/// Name automatically interned for the start non-terminal.
pub const START_NAME: &str = "START";
/// Name automatically interned for the end-of-input terminal.
pub const EOF_NAME: &str = "$";

/// Errors reported by [`Grammar::validate`] and the rule-modification API.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum GrammarError {
    /// The start symbol has no production.
    MissingStartRule,
    /// The start symbol occurs in the right-hand side of a rule; the paper
    /// forbids this (START may not be used in the right-hand side).
    StartInRhs(RuleId),
    /// A rule's left-hand side is a terminal.
    TerminalLhs(RuleId),
    /// The end-of-input marker `$` occurs in a rule.
    EofInRule(RuleId),
    /// A non-terminal is used but has no active production.
    UndefinedNonTerminal(SymbolId),
    /// An identical active rule already exists.
    DuplicateRule(RuleId),
    /// The referenced rule does not exist or is not active.
    NoSuchRule,
}

impl fmt::Display for GrammarError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GrammarError::MissingStartRule => write!(f, "the start symbol has no production"),
            GrammarError::StartInRhs(r) => {
                write!(f, "START occurs in the right-hand side of {r:?}")
            }
            GrammarError::TerminalLhs(r) => {
                write!(f, "rule {r:?} has a terminal as its left-hand side")
            }
            GrammarError::EofInRule(r) => {
                write!(f, "the end-of-input marker occurs in rule {r:?}")
            }
            GrammarError::UndefinedNonTerminal(s) => {
                write!(f, "non-terminal {s:?} is used but never defined")
            }
            GrammarError::DuplicateRule(r) => {
                write!(f, "an identical rule already exists as {r:?}")
            }
            GrammarError::NoSuchRule => write!(f, "no such (active) rule"),
        }
    }
}

impl std::error::Error for GrammarError {}

/// A modifiable context-free grammar.
///
/// # Structure
///
/// * Symbols are interned in a [`SymbolTable`]; the special non-terminal
///   `START` and the end-marker terminal `$` always exist.
/// * Rules live in an arena and are never physically removed;
///   [`Grammar::remove_rule`] merely deactivates a rule, and re-adding an
///   identical rule re-activates the original [`RuleId`]. This mirrors the
///   paper's treatment of grammar modification, where item-set kernels must
///   remain comparable across modifications.
/// * Every modification bumps [`Grammar::version`].
///
/// # Example
///
/// ```
/// use ipg_grammar::Grammar;
///
/// let mut g = Grammar::new();
/// let b = g.nonterminal("B");
/// let t = g.terminal("true");
/// let f = g.terminal("false");
/// g.add_rule(b, vec![t]);
/// g.add_rule(b, vec![f]);
/// g.add_start_rule(b);
/// assert_eq!(g.num_active_rules(), 3);
/// g.validate().unwrap();
/// ```
///
/// # Fork cost
///
/// The epoch serving layer forks the grammar on every modification, so the
/// storage is **structurally shared**: rules live in `Arc`'d chunks of
/// [`RULE_CHUNK`] slots, the activation bits and the by-LHS rule index sit
/// behind their own `Arc`s, and the symbol table shares one `Arc`'d block.
/// `Clone` therefore costs O(#chunks) pointer bumps, and an edit
/// copies-on-write only what it touches: flipping an activation bit copies
/// the (plain-`bool`) bit vector, re-adding or deleting an existing rule
/// touches nothing else, and only a genuinely *new* rule or symbol copies
/// a rule chunk / the index / the symbol block.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Grammar {
    symbols: SymbolTable,
    /// Rule arena in `Arc`'d chunks of [`RULE_CHUNK`] slots (append-only;
    /// removal only flips `active`).
    rules: Vec<Arc<Vec<Rule>>>,
    /// Number of rule slots across all chunks.
    num_rules: usize,
    /// Activation bits, packed 64 per word so the copy-on-write an edit
    /// pays is a short `memcpy` even for thousand-rule grammars.
    active: Arc<Vec<u64>>,
    /// `lhs -> (rule id, right-hand-side hash)` in id order, over *all*
    /// slots (active or not). Only mutated when a new rule slot is
    /// created. The hash lets [`Grammar::find_rule`] reject the other
    /// alternatives of `lhs` from this one contiguous list, without
    /// reading their rules.
    by_lhs: Arc<HashMap<SymbolId, Vec<(RuleId, u32)>>>,
    start: SymbolId,
    eof: SymbolId,
    version: u64,
}

/// The by-LHS index's hash of a right-hand side: the default hasher (fixed
/// keys, so deterministic) truncated to 32 bits. A collision only costs
/// one extra right-hand-side comparison.
fn rhs_hash(rhs: &[SymbolId]) -> u32 {
    let mut hasher = DefaultHasher::new();
    rhs.hash(&mut hasher);
    hasher.finish() as u32
}

/// Number of rule slots per `Arc`'d storage chunk (see [`Grammar`]).
pub const RULE_CHUNK: usize = 256;

impl Default for Grammar {
    fn default() -> Self {
        Self::new()
    }
}

impl Grammar {
    /// Creates an empty grammar containing only the `START` non-terminal and
    /// the `$` end-marker terminal.
    pub fn new() -> Self {
        let mut symbols = SymbolTable::new();
        let start = symbols.intern(START_NAME, SymbolKind::NonTerminal);
        let eof = symbols.intern(EOF_NAME, SymbolKind::Terminal);
        Grammar {
            symbols,
            rules: Vec::new(),
            num_rules: 0,
            active: Arc::new(Vec::new()),
            by_lhs: Arc::new(HashMap::new()),
            start,
            eof,
            version: 0,
        }
    }

    /// The start non-terminal `START`.
    pub fn start_symbol(&self) -> SymbolId {
        self.start
    }

    /// The end-of-input terminal `$`.
    pub fn eof_symbol(&self) -> SymbolId {
        self.eof
    }

    /// The symbol table of this grammar.
    pub fn symbols(&self) -> &SymbolTable {
        &self.symbols
    }

    /// Monotonically increasing modification counter. Bumped by every rule
    /// addition/removal and by symbol interning.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Interns (or looks up) a terminal symbol.
    pub fn terminal(&mut self, name: &str) -> SymbolId {
        let before = self.symbols.len();
        let id = self.symbols.intern(name, SymbolKind::Terminal);
        if self.symbols.len() != before {
            self.version += 1;
        }
        id
    }

    /// Interns (or looks up) a non-terminal symbol.
    pub fn nonterminal(&mut self, name: &str) -> SymbolId {
        let before = self.symbols.len();
        let id = self.symbols.intern(name, SymbolKind::NonTerminal);
        if self.symbols.len() != before {
            self.version += 1;
        }
        id
    }

    /// Looks up a symbol by name without interning.
    pub fn symbol(&self, name: &str) -> Option<SymbolId> {
        self.symbols.lookup(name)
    }

    /// Returns the name of a symbol.
    pub fn name(&self, id: SymbolId) -> &str {
        self.symbols.name(id)
    }

    /// Returns `true` if `id` is a terminal.
    pub fn is_terminal(&self, id: SymbolId) -> bool {
        self.symbols.is_terminal(id)
    }

    /// Returns `true` if `id` is a non-terminal.
    pub fn is_nonterminal(&self, id: SymbolId) -> bool {
        self.symbols.is_nonterminal(id)
    }

    /// Adds the rule `lhs ::= rhs` and returns its id.
    ///
    /// If an identical rule was added and later removed, its original id is
    /// re-activated; if an identical rule is already active, its id is
    /// returned unchanged (the grammar is a *set* of rules, as in the
    /// paper).
    pub fn add_rule(&mut self, lhs: SymbolId, rhs: Vec<SymbolId>) -> RuleId {
        self.add_rule_with(lhs, rhs, None, Associativity::None, 0)
    }

    /// Adds a rule with a label (constructor name), associativity and
    /// precedence. See [`Grammar::add_rule`] for the identity semantics.
    pub fn add_rule_with(
        &mut self,
        lhs: SymbolId,
        rhs: Vec<SymbolId>,
        label: Option<String>,
        assoc: Associativity,
        precedence: u32,
    ) -> RuleId {
        assert!(
            self.symbols.is_nonterminal(lhs),
            "left-hand side of a rule must be a non-terminal"
        );
        let hash = rhs_hash(&rhs);
        if let Some(existing) = self.find_rule_hashed(lhs, &rhs, hash) {
            if !self.is_active(existing) {
                self.set_active(existing, true);
                self.version += 1;
            }
            return existing;
        }
        let id = RuleId(self.num_rules as u32);
        if self.num_rules.is_multiple_of(RULE_CHUNK) {
            self.rules.push(Arc::new(Vec::with_capacity(RULE_CHUNK)));
        }
        Arc::make_mut(self.rules.last_mut().expect("chunk just ensured")).push(Rule {
            id,
            lhs,
            rhs,
            label,
            assoc,
            precedence,
        });
        self.num_rules += 1;
        if self.num_rules > self.active.len() * 64 {
            Arc::make_mut(&mut self.active).push(0);
        }
        self.set_active(id, true);
        Arc::make_mut(&mut self.by_lhs)
            .entry(lhs)
            .or_default()
            .push((id, hash));
        self.version += 1;
        id
    }

    fn set_active(&mut self, id: RuleId, value: bool) {
        let words = Arc::make_mut(&mut self.active);
        let mask = 1u64 << (id.index() % 64);
        if value {
            words[id.index() / 64] |= mask;
        } else {
            words[id.index() / 64] &= !mask;
        }
    }

    /// Adds the production `START ::= nt`.
    pub fn add_start_rule(&mut self, nt: SymbolId) -> RuleId {
        let start = self.start;
        self.add_rule(start, vec![nt])
    }

    /// Finds the id of the rule `lhs ::= rhs`, whether active or not.
    /// Served from the by-LHS index, so the cost is proportional to the
    /// number of alternatives of `lhs`, not to the size of the grammar.
    pub fn find_rule(&self, lhs: SymbolId, rhs: &[SymbolId]) -> Option<RuleId> {
        self.find_rule_hashed(lhs, rhs, rhs_hash(rhs))
    }

    fn find_rule_hashed(&self, lhs: SymbolId, rhs: &[SymbolId], hash: u32) -> Option<RuleId> {
        self.by_lhs
            .get(&lhs)?
            .iter()
            .find(|&&(id, h)| h == hash && self.rule(id).rhs == rhs)
            .map(|&(id, _)| id)
    }

    /// Deactivates the rule with id `id`. Returns an error if the rule does
    /// not exist or is already inactive.
    pub fn remove_rule(&mut self, id: RuleId) -> Result<(), GrammarError> {
        if !self.is_active(id) {
            return Err(GrammarError::NoSuchRule);
        }
        self.set_active(id, false);
        self.version += 1;
        Ok(())
    }

    /// Deactivates the rule `lhs ::= rhs` and returns its id.
    pub fn remove_rule_matching(
        &mut self,
        lhs: SymbolId,
        rhs: &[SymbolId],
    ) -> Result<RuleId, GrammarError> {
        let id = self
            .find_rule(lhs, rhs)
            .filter(|&id| self.is_active(id))
            .ok_or(GrammarError::NoSuchRule)?;
        self.remove_rule(id)?;
        Ok(id)
    }

    /// Returns the rule with id `id`, active or not.
    ///
    /// # Panics
    /// Panics if the id does not belong to this grammar.
    pub fn rule(&self, id: RuleId) -> &Rule {
        &self.rules[id.index() / RULE_CHUNK][id.index() % RULE_CHUNK]
    }

    /// Returns `true` if the rule is currently part of the grammar.
    pub fn is_active(&self, id: RuleId) -> bool {
        if id.index() >= self.num_rules {
            return false;
        }
        self.active[id.index() / 64] & (1u64 << (id.index() % 64)) != 0
    }

    /// Iterates over the active rules in id order.
    pub fn rules(&self) -> impl Iterator<Item = &Rule> {
        self.all_rules().filter(|r| self.is_active(r.id))
    }

    /// Iterates over every rule ever added, including deactivated ones.
    pub fn all_rules(&self) -> impl Iterator<Item = &Rule> {
        self.rules.iter().flat_map(|chunk| chunk.iter())
    }

    /// Iterates over the active rules whose left-hand side is `lhs`, in id
    /// order. Served from the by-LHS index (the closure computation of the
    /// parser generator calls this per non-terminal, so it must not scan
    /// the whole rule arena).
    pub fn rules_for(&self, lhs: SymbolId) -> impl Iterator<Item = &Rule> {
        self.by_lhs
            .get(&lhs)
            .into_iter()
            .flatten()
            .map(|&(id, _)| id)
            .filter(|&id| self.is_active(id))
            .map(|id| self.rule(id))
    }

    /// Number of active rules.
    pub fn num_active_rules(&self) -> usize {
        self.active.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Total number of rule slots (active + deactivated).
    pub fn num_rule_slots(&self) -> usize {
        self.num_rules
    }

    /// `(storage address, modeled bytes)` of every rule-arena chunk.
    /// Forks that structurally share a chunk report the *same* address, so
    /// a registry can sum resident bytes across tenants deduplicated by
    /// pointer identity. The byte model counts each rule's inline slot,
    /// its right-hand side and its label; the activation bitmap, by-LHS
    /// index and symbol table are bounded by (and small next to) the rule
    /// chunks and are left out of the model.
    pub fn arena_accounting(&self) -> Vec<(usize, usize)> {
        self.rules
            .iter()
            .map(|chunk| {
                let bytes: usize = chunk
                    .iter()
                    .map(|rule| {
                        std::mem::size_of::<Rule>()
                            + rule.rhs.len() * std::mem::size_of::<SymbolId>()
                            + rule.label.as_ref().map_or(0, |l| l.len())
                    })
                    .sum();
                (Arc::as_ptr(chunk) as usize, bytes)
            })
            .collect()
    }

    /// Total modeled bytes of the rule arena (see
    /// [`Grammar::arena_accounting`]).
    pub fn arena_bytes(&self) -> usize {
        self.arena_accounting().iter().map(|&(_, b)| b).sum()
    }

    /// Forces this clone to own every piece of its storage, copying
    /// whatever is still shared with other forks. Benchmarks use this to
    /// reproduce the cost of a structurally unshared (deep) grammar fork.
    pub fn unshare(&mut self) {
        for chunk in &mut self.rules {
            *chunk = Arc::new((**chunk).clone());
        }
        self.active = Arc::new((*self.active).clone());
        self.by_lhs = Arc::new((*self.by_lhs).clone());
        self.symbols.unshare();
    }

    /// Builds a map from non-terminal to its active rules. Convenience for
    /// algorithms that repeatedly take closures.
    pub fn rules_by_lhs(&self) -> HashMap<SymbolId, Vec<RuleId>> {
        let mut map: HashMap<SymbolId, Vec<RuleId>> = HashMap::new();
        for r in self.rules() {
            map.entry(r.lhs).or_default().push(r.id);
        }
        map
    }

    /// Checks the structural well-formedness constraints assumed by the
    /// paper's algorithms.
    pub fn validate(&self) -> Result<(), GrammarError> {
        if self.rules_for(self.start).next().is_none() {
            return Err(GrammarError::MissingStartRule);
        }
        for r in self.rules() {
            if self.symbols.is_terminal(r.lhs) {
                return Err(GrammarError::TerminalLhs(r.id));
            }
            if r.lhs == self.eof || r.rhs.contains(&self.eof) {
                return Err(GrammarError::EofInRule(r.id));
            }
            if r.rhs.contains(&self.start) {
                return Err(GrammarError::StartInRhs(r.id));
            }
        }
        // Every non-terminal used in a right-hand side must have a rule.
        for r in self.rules() {
            for &s in &r.rhs {
                if self.symbols.is_nonterminal(s) && self.rules_for(s).next().is_none() {
                    return Err(GrammarError::UndefinedNonTerminal(s));
                }
            }
        }
        Ok(())
    }

    /// Renders the grammar as numbered BNF rules (active rules only).
    pub fn display(&self) -> GrammarDisplay<'_> {
        GrammarDisplay { grammar: self }
    }
}

/// Helper returned by [`Grammar::display`].
pub struct GrammarDisplay<'a> {
    grammar: &'a Grammar,
}

impl fmt::Display for GrammarDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for rule in self.grammar.rules() {
            writeln!(
                f,
                "{:>3}  {}",
                rule.id.index(),
                rule.display(self.grammar.symbols())
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn booleans() -> Grammar {
        let mut g = Grammar::new();
        let b = g.nonterminal("B");
        let t = g.terminal("true");
        let fa = g.terminal("false");
        let or = g.terminal("or");
        let and = g.terminal("and");
        g.add_rule(b, vec![t]);
        g.add_rule(b, vec![fa]);
        g.add_rule(b, vec![b, or, b]);
        g.add_rule(b, vec![b, and, b]);
        g.add_start_rule(b);
        g
    }

    #[test]
    fn new_grammar_has_start_and_eof() {
        let g = Grammar::new();
        assert_eq!(g.name(g.start_symbol()), START_NAME);
        assert_eq!(g.name(g.eof_symbol()), EOF_NAME);
        assert!(g.is_nonterminal(g.start_symbol()));
        assert!(g.is_terminal(g.eof_symbol()));
    }

    #[test]
    fn booleans_grammar_counts() {
        let g = booleans();
        assert_eq!(g.num_active_rules(), 5);
        assert!(g.validate().is_ok());
        let b = g.symbol("B").unwrap();
        assert_eq!(g.rules_for(b).count(), 4);
    }

    #[test]
    fn add_rule_is_idempotent() {
        let mut g = booleans();
        let b = g.symbol("B").unwrap();
        let t = g.symbol("true").unwrap();
        let before = g.version();
        let id1 = g.add_rule(b, vec![t]);
        assert_eq!(g.num_active_rules(), 5);
        assert_eq!(g.version(), before, "re-adding an active rule is a no-op");
        let id2 = g.find_rule(b, &[t]).unwrap();
        assert_eq!(id1, id2);
    }

    #[test]
    fn remove_then_re_add_reactivates_same_id() {
        let mut g = booleans();
        let b = g.symbol("B").unwrap();
        let t = g.symbol("true").unwrap();
        let id = g.find_rule(b, &[t]).unwrap();
        g.remove_rule(id).unwrap();
        assert!(!g.is_active(id));
        assert_eq!(g.num_active_rules(), 4);
        let id2 = g.add_rule(b, vec![t]);
        assert_eq!(id, id2);
        assert!(g.is_active(id));
        assert_eq!(g.num_rule_slots(), 5, "no new slot allocated");
    }

    #[test]
    fn remove_missing_rule_is_an_error() {
        let mut g = booleans();
        let b = g.symbol("B").unwrap();
        let and = g.symbol("and").unwrap();
        assert_eq!(
            g.remove_rule_matching(b, &[and]).unwrap_err(),
            GrammarError::NoSuchRule
        );
        let id = g.find_rule(b, &[g.symbol("true").unwrap()]).unwrap();
        g.remove_rule(id).unwrap();
        assert_eq!(g.remove_rule(id).unwrap_err(), GrammarError::NoSuchRule);
    }

    #[test]
    fn version_bumps_on_modification() {
        let mut g = Grammar::new();
        let v0 = g.version();
        let b = g.nonterminal("B");
        assert!(g.version() > v0);
        let t = g.terminal("t");
        let v1 = g.version();
        g.add_rule(b, vec![t]);
        assert!(g.version() > v1);
        let v2 = g.version();
        let id = g.find_rule(b, &[t]).unwrap();
        g.remove_rule(id).unwrap();
        assert!(g.version() > v2);
    }

    #[test]
    fn validate_rejects_start_in_rhs() {
        let mut g = Grammar::new();
        let b = g.nonterminal("B");
        let start = g.start_symbol();
        let t = g.terminal("t");
        g.add_rule(b, vec![t]);
        g.add_start_rule(b);
        g.add_rule(b, vec![start]);
        assert!(matches!(g.validate(), Err(GrammarError::StartInRhs(_))));
    }

    #[test]
    fn validate_rejects_missing_start_rule() {
        let mut g = Grammar::new();
        let b = g.nonterminal("B");
        let t = g.terminal("t");
        g.add_rule(b, vec![t]);
        assert_eq!(g.validate(), Err(GrammarError::MissingStartRule));
    }

    #[test]
    fn validate_rejects_undefined_nonterminal() {
        let mut g = Grammar::new();
        let b = g.nonterminal("B");
        let c = g.nonterminal("C");
        g.add_rule(b, vec![c]);
        g.add_start_rule(b);
        assert_eq!(g.validate(), Err(GrammarError::UndefinedNonTerminal(c)));
    }

    #[test]
    fn validate_rejects_eof_in_rule() {
        let mut g = Grammar::new();
        let b = g.nonterminal("B");
        let eof = g.eof_symbol();
        g.add_rule(b, vec![eof]);
        g.add_start_rule(b);
        assert!(matches!(g.validate(), Err(GrammarError::EofInRule(_))));
    }

    #[test]
    fn display_lists_active_rules_only() {
        let mut g = booleans();
        let b = g.symbol("B").unwrap();
        let t = g.symbol("true").unwrap();
        let id = g.find_rule(b, &[t]).unwrap();
        g.remove_rule(id).unwrap();
        let text = g.display().to_string();
        assert!(!text.contains("B ::= true"));
        assert!(text.contains("B ::= false"));
        assert!(text.contains("START ::= B"));
    }

    #[test]
    fn rules_by_lhs_groups_rules() {
        let g = booleans();
        let map = g.rules_by_lhs();
        let b = g.symbol("B").unwrap();
        assert_eq!(map[&b].len(), 4);
        assert_eq!(map[&g.start_symbol()].len(), 1);
    }

    #[test]
    fn error_display_is_informative() {
        let e = GrammarError::MissingStartRule;
        assert!(e.to_string().contains("start symbol"));
    }

    #[test]
    fn clone_shares_storage_until_written() {
        let g = booleans();
        let mut fork = g.clone();
        assert!(fork.symbols().shares_storage_with(g.symbols()));
        assert!(Arc::ptr_eq(&g.rules[0], &fork.rules[0]));
        assert!(Arc::ptr_eq(&g.active, &fork.active));
        assert!(Arc::ptr_eq(&g.by_lhs, &fork.by_lhs));
        // Deactivating an existing rule copies only the activation bits.
        let b = fork.symbol("B").unwrap();
        let t = fork.symbol("true").unwrap();
        let id = fork.find_rule(b, &[t]).unwrap();
        fork.remove_rule(id).unwrap();
        assert!(Arc::ptr_eq(&g.rules[0], &fork.rules[0]));
        assert!(Arc::ptr_eq(&g.by_lhs, &fork.by_lhs));
        assert!(!Arc::ptr_eq(&g.active, &fork.active));
        assert!(fork.symbols().shares_storage_with(g.symbols()));
        // The original is untouched.
        assert!(g.is_active(id));
        assert!(!fork.is_active(id));
        // Re-activating needs no new slot and leaves the arena shared.
        fork.add_rule(b, vec![t]);
        assert!(Arc::ptr_eq(&g.rules[0], &fork.rules[0]));
        assert_eq!(fork.num_rule_slots(), g.num_rule_slots());
    }

    #[test]
    fn new_rule_copies_only_the_written_chunk() {
        let mut g = Grammar::new();
        let b = g.nonterminal("B");
        // Fill a bit more than one chunk so two chunks exist.
        for i in 0..(RULE_CHUNK + 4) {
            let t = g.terminal(&format!("t{i}"));
            g.add_rule(b, vec![t]);
        }
        g.add_start_rule(b);
        let mut fork = g.clone();
        let extra = fork.terminal("textra");
        fork.add_rule(b, vec![extra]);
        // Appending went into the last chunk; the full first chunk is
        // still shared with the original.
        assert!(Arc::ptr_eq(&g.rules[0], &fork.rules[0]));
        assert!(!Arc::ptr_eq(&g.rules[1], &fork.rules[1]));
        assert_eq!(fork.num_rule_slots(), g.num_rule_slots() + 1);
        assert!(fork.validate().is_ok());
    }

    #[test]
    fn unshare_copies_everything() {
        let g = booleans();
        let mut fork = g.clone();
        fork.unshare();
        assert!(!Arc::ptr_eq(&g.rules[0], &fork.rules[0]));
        assert!(!Arc::ptr_eq(&g.active, &fork.active));
        assert!(!Arc::ptr_eq(&g.by_lhs, &fork.by_lhs));
        assert!(!fork.symbols().shares_storage_with(g.symbols()));
        assert_eq!(fork.num_active_rules(), g.num_active_rules());
    }
}
