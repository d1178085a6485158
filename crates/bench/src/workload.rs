//! Workloads shared by the Criterion benchmarks and the figure-report
//! binaries: the SDF benchmark grammar, the four pre-lexed measurement
//! inputs, and the §7 grammar modification.

use ipg_grammar::{Grammar, SymbolId};
use ipg_lexer::Scanner;
use ipg_sdf::fixtures::{measurement_inputs, paper_modification_rule, sdf_grammar_and_scanner};
use ipg_sdf::NormalizedSdf;

/// One pre-lexed measurement input.
#[derive(Clone, Debug)]
pub struct PreLexedInput {
    /// The paper's file name (`exp.sdf`, ...).
    pub name: &'static str,
    /// The token stream, already in memory — exactly as in the paper, so
    /// that scanner and I/O costs do not pollute the parser measurements.
    pub tokens: Vec<SymbolId>,
    /// The raw SDF text the tokens were lexed from, for end-to-end
    /// (tokenize + parse) scenarios like the serving bench's `warm-text`.
    pub text: &'static str,
    /// Token count the paper reports for its original input.
    pub paper_tokens: usize,
}

/// The full Fig. 7.1 workload.
#[derive(Clone, Debug)]
pub struct SdfWorkload {
    /// The benchmark grammar: the SDF definition of SDF, normalised.
    pub grammar: Grammar,
    /// The scanner derived from the SDF definition (drives the text-based
    /// serving scenarios; the pre-lexed inputs were produced with it).
    pub scanner: Scanner,
    /// The four inputs, smallest to largest.
    pub inputs: Vec<PreLexedInput>,
    /// The added rule of §7: `"(" CF-ELEM+ ")?" -> CF-ELEM`, as interned
    /// symbols of [`SdfWorkload::grammar`].
    pub modification: (SymbolId, Vec<SymbolId>),
}

impl SdfWorkload {
    /// Builds the workload: parse and normalise the SDF definition of SDF,
    /// tokenize the four measurement inputs with the derived scanner, and
    /// intern the symbols of the §7 modification.
    pub fn load() -> Self {
        let NormalizedSdf { mut grammar, scanner } = sdf_grammar_and_scanner();
        let inputs = measurement_inputs()
            .into_iter()
            .map(|input| PreLexedInput {
                name: input.name,
                tokens: scanner
                    .tokenize_for(&grammar, input.text)
                    .expect("measurement inputs tokenize"),
                text: input.text,
                paper_tokens: input.paper_tokens,
            })
            .collect();
        let (lhs_name, rhs_names) = paper_modification_rule();
        let lhs = grammar
            .symbol(&lhs_name)
            .expect("CF-ELEM exists in the SDF grammar");
        let rhs = rhs_names
            .iter()
            .map(|name| match grammar.symbol(name) {
                Some(id) => id,
                // `")?"` is a new keyword introduced by the modification.
                None => grammar.terminal(name),
            })
            .collect();
        SdfWorkload {
            grammar,
            scanner,
            inputs,
            modification: (lhs, rhs),
        }
    }

    /// The input with the given paper file name.
    pub fn input(&self, name: &str) -> &PreLexedInput {
        self.inputs
            .iter()
            .find(|i| i.name == name)
            .expect("known input name")
    }

    /// The largest input (`ASF.sdf`).
    pub fn largest(&self) -> &PreLexedInput {
        self.inputs.last().expect("workload has inputs")
    }
}

/// A synthetic grammar of a chosen size, used by the `publish-scaling`
/// bench to measure how edit-publication latency scales with grammar size.
#[derive(Clone, Debug)]
pub struct SyntheticWorkload {
    /// The generated grammar (`~productions` active rules).
    pub grammar: Grammar,
    /// The edit rule `(lhs, rhs)` cycled by `ADD-RULE`/`DELETE-RULE`. Its
    /// left-hand side occurs in exactly one item set's transitions, so the
    /// §6 invalidation impact is **constant** across sizes — what varies
    /// is only how much surrounding table state an edit has to fork.
    pub edit: (SymbolId, Vec<SymbolId>),
    /// A short sentence of the language, for sanity checks.
    pub sentence: Vec<SymbolId>,
}

/// Builds a chain grammar with roughly `productions` active productions:
///
/// ```text
/// START ::= N0          N_i ::= a_i N_{i+1} | z_i      N_last ::= z_last
/// N_mid ::= mark E      E ::= e1            (edit rule: E ::= e2)
/// ```
///
/// Every production uses its own terminals, so states, symbols and rules
/// all grow linearly with `productions` while closures stay constant-size
/// — the shape that isolates *publication* cost from expansion cost. The
/// edit-rule slot (`E ::= e2`) is pre-created (added and removed once), so
/// steady-state edit cycles flip the activation bit of an existing slot,
/// exactly like the §7 SDF measurement after its first iteration.
pub fn synthetic_workload(productions: usize) -> SyntheticWorkload {
    let depth = productions.saturating_sub(4).max(2) / 2;
    let mut g = Grammar::new();
    let nts: Vec<SymbolId> = (0..=depth).map(|i| g.nonterminal(&format!("N{i}"))).collect();
    for i in 0..depth {
        let a = g.terminal(&format!("a{i}"));
        let z = g.terminal(&format!("z{i}"));
        g.add_rule(nts[i], vec![a, nts[i + 1]]);
        g.add_rule(nts[i], vec![z]);
    }
    let z_last = g.terminal("zlast");
    g.add_rule(nts[depth], vec![z_last]);
    // The edited non-terminal hangs off the middle of the chain behind a
    // dedicated marker terminal: exactly one item set ever has a
    // transition on `E`.
    let e = g.nonterminal("E");
    let mark = g.terminal("mark");
    g.add_rule(nts[depth / 2], vec![mark, e]);
    let e1 = g.terminal("e1");
    g.add_rule(e, vec![e1]);
    g.add_start_rule(nts[0]);
    // Pre-intern the edit rule's symbols and pre-create its slot.
    let e2 = g.terminal("e2");
    let edit = (e, vec![e2]);
    let slot = g.add_rule(e, vec![e2]);
    g.remove_rule(slot).expect("edit slot was just added");
    g.validate().expect("synthetic grammar is well-formed");
    let sentence = vec![g.symbol("z0").expect("z0 exists")];
    SyntheticWorkload {
        grammar: g,
        edit,
        sentence,
    }
}

/// A wide synthetic grammar for the cold-start scenario: few
/// non-terminals with *many* random alternatives each, so bulk expansion
/// has a wide frontier of independent, closure-heavy item sets — the
/// shape that exposes parallel `EXPAND` speedup. (Contrast with
/// [`synthetic_workload`]'s chain, whose frontier is one state wide and
/// which therefore isolates *publication* cost instead.)
#[derive(Clone, Debug)]
pub struct WideSyntheticWorkload {
    /// The generated grammar (`productions` + 1 active rules).
    pub grammar: Grammar,
    /// A short sentence of the language, for sanity checks.
    pub sentence: Vec<SymbolId>,
}

/// The wide synthetic grammar of [`ipg_grammar::fixtures::wide_synthetic`]
/// (`productions` random alternatives over 8 non-terminals: states close
/// over hundreds of alternatives, so per-state expansion work dominates
/// and the frontier fans out across all symbols at once), with the
/// sentence `wstart` of its language.
pub fn wide_synthetic_workload(productions: usize) -> WideSyntheticWorkload {
    let grammar = ipg_grammar::fixtures::wide_synthetic(productions);
    let sentence = vec![grammar.symbol("wstart").expect("wide grammar has `wstart`")];
    WideSyntheticWorkload { grammar, sentence }
}

/// BNF text of an adversarial, maximally ambiguous grammar for the
/// runaway-parse containment tests and `ipg-loadgen --adversarial`:
///
/// ```text
/// AMB0 ::= "x"
/// AMBk ::= AMBk AMBk | AMB{k-1}     (for k = 1..=layers)
/// START ::= AMB{layers}
/// ```
///
/// A sentence of `n` `x` tokens has Catalan(n−1) binary bracketings *per
/// layer* (times the unary chain choices between layers), so GSS work and
/// forest growth blow up combinatorially with `n` — the workload a
/// per-request [`ipg::ParseBudget`] exists to contain. `layers` deepens
/// the ambiguity multiplicatively; 1 is already pathological. The text is
/// a full grammar, suitable for `ATTACH-TENANT` as an independent tenant
/// (no scanner — drive it with `PARSE-TOKENS`).
pub fn adversarial_grammar_bnf(layers: usize) -> String {
    let layers = layers.max(1);
    let mut bnf = String::from("AMB0 ::= \"x\"\n");
    for k in 1..=layers {
        bnf.push_str(&format!("AMB{k} ::= AMB{k} AMB{k} | AMB{}\n", k - 1));
    }
    bnf.push_str(&format!("START ::= AMB{layers}\n"));
    bnf
}

/// A pre-lexed sentence of `n` `x` tokens for [`adversarial_grammar_bnf`],
/// in the whitespace-separated form `PARSE-TOKENS` expects.
pub fn adversarial_sentence(n: usize) -> String {
    let mut sentence = String::with_capacity(2 * n);
    for i in 0..n {
        if i > 0 {
            sentence.push(' ');
        }
        sentence.push('x');
    }
    sentence
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_loads_and_is_well_formed() {
        let w = SdfWorkload::load();
        assert_eq!(w.inputs.len(), 4);
        w.grammar.validate().unwrap();
        assert!(w.input("exp.sdf").tokens.len() < w.input("ASF.sdf").tokens.len());
        assert_eq!(w.largest().name, "ASF.sdf");
        let (lhs, rhs) = &w.modification;
        assert!(w.grammar.is_nonterminal(*lhs));
        assert_eq!(rhs.len(), 3);
        assert!(w.grammar.is_terminal(rhs[0]));
        assert!(w.grammar.is_nonterminal(rhs[1]));
        assert!(w.grammar.is_terminal(rhs[2]));
    }

    #[test]
    fn synthetic_workload_scales_and_parses() {
        let small = synthetic_workload(100);
        let big = synthetic_workload(1000);
        assert!(
            (95..=105).contains(&small.grammar.num_active_rules()),
            "got {}",
            small.grammar.num_active_rules()
        );
        assert!((995..=1005).contains(&big.grammar.num_active_rules()));
        // The edit slot exists but is inactive.
        let (lhs, rhs) = &small.edit;
        let slot = small.grammar.find_rule(*lhs, rhs).expect("slot pre-created");
        assert!(!small.grammar.is_active(slot));
        // The sentence is in the language, and the edit is observable: a
        // sentence reaching the chain's middle and using `mark e2` is
        // accepted exactly when the edit rule is active.
        let mut session = ipg::IpgSession::new(small.grammar.clone());
        assert!(session.parse(&small.sentence).accepted);
        let g = session.grammar();
        let depth_mid = (0..)
            .take_while(|i| g.symbol(&format!("a{i}")).is_some())
            .count()
            / 2;
        let mut edit_sentence: Vec<_> = (0..depth_mid)
            .map(|i| g.symbol(&format!("a{i}")).unwrap())
            .collect();
        edit_sentence.push(g.symbol("mark").unwrap());
        edit_sentence.push(g.symbol("e2").unwrap());
        assert!(!session.parse(&edit_sentence).accepted);
        session.add_rule(*lhs, rhs.clone());
        assert!(session.grammar().is_active(slot));
        assert!(session.parse(&edit_sentence).accepted);
        assert!(session.parse(&small.sentence).accepted);
    }

    #[test]
    fn adversarial_grammar_is_ambiguous_and_budget_containable() {
        let server = ipg::IpgServer::from_bnf(&adversarial_grammar_bnf(1)).unwrap();
        // Small input: ambiguous but cheap — Catalan(2) = 2 bracketings.
        let result = server.parse_sentence(&adversarial_sentence(3)).unwrap();
        assert!(result.accepted);
        assert!(result.forest.tree_count(64) >= 2);
        // Large input: a starved fuel budget kills it mid-parse instead of
        // letting the Catalan blow-up monopolise the worker.
        let starved = ipg::ParseBudget::default().with_fuel(10_000);
        let err = server
            .parse_sentence_budgeted(&adversarial_sentence(64), starved)
            .unwrap_err();
        assert!(matches!(
            err,
            ipg::ServerError::Exhausted(ipg::ExhaustReason::Fuel)
        ));
        // Deeper layering still builds and parses.
        let deep = ipg::IpgServer::from_bnf(&adversarial_grammar_bnf(3)).unwrap();
        assert!(deep.parse_sentence(&adversarial_sentence(2)).unwrap().accepted);
    }

    #[test]
    fn wide_synthetic_workload_is_deterministic_and_parses() {
        let a = wide_synthetic_workload(200);
        let b = wide_synthetic_workload(200);
        // Bit-identical across builds: same symbols, same rules. The 202
        // active rules are the 200 random alternatives, the dedicated
        // sentence rule and the start rule.
        assert_eq!(a.grammar.num_active_rules(), 202);
        assert_eq!(a.grammar.num_active_rules(), b.grammar.num_active_rules());
        let session = ipg::IpgSession::new(a.grammar.clone());
        assert!(session.parse(&a.sentence).accepted);
        let other = ipg::IpgSession::new(b.grammar.clone());
        assert!(other.parse(&b.sentence).accepted);
        assert_eq!(session.render_graph(), other.render_graph());
    }
}
