//! Grammars used throughout the paper, plus a few extra ones exercised by
//! tests, examples and benchmarks.

use crate::bnf::parse_bnf;
use crate::grammar::Grammar;
use crate::symbol::SymbolId;

/// The grammar of the Booleans from Fig. 4.1(a):
///
/// ```text
/// 0  B ::= true
/// 1  B ::= false
/// 2  B ::= B or B
/// 3  B ::= B and B
/// 4  START ::= B
/// ```
///
/// Note that the grammar is ambiguous (`true or true or true` has two
/// parses), which is fine for the parallel LR parser.
pub fn booleans() -> Grammar {
    parse_bnf(
        r#"
        B ::= "true"
        B ::= "false"
        B ::= B "or" B
        B ::= B "and" B
        START ::= B
        "#,
    )
    .expect("builtin grammar parses")
}

/// The contrived grammar of Fig. 6.2(a), describing the two-sentence
/// language { `a b`, `c b` } in a deliberately roundabout way:
///
/// ```text
/// START ::= E      E ::= c C     C ::= B
/// START ::= D      D ::= a A     A ::= B
/// B ::= b
/// ```
///
/// Adding `A ::= b` to it is the paper's smallest example in which the old
/// item-set graph is *not* a subgraph of the new one (Fig. 6.3).
pub fn fig62() -> Grammar {
    parse_bnf(
        r#"
        E ::= "c" C
        C ::= B
        D ::= "a" A
        A ::= B
        B ::= "b"
        START ::= E
        START ::= D
        "#,
    )
    .expect("builtin grammar parses")
}

/// A small unambiguous arithmetic expression grammar with the usual
/// precedence encoded through the non-terminal chain E / T / F.
pub fn arithmetic() -> Grammar {
    parse_bnf(
        r#"
        E ::= E "+" T | E "-" T | T
        T ::= T "*" F | T "/" F | F
        F ::= "(" E ")" | "id" | "num"
        START ::= E
        "#,
    )
    .expect("builtin grammar parses")
}

/// An ambiguous expression grammar (`E ::= E op E`) used to exercise the
/// parallel parser and parse-forest sharing.
pub fn ambiguous_expressions() -> Grammar {
    parse_bnf(
        r#"
        E ::= E "+" E | E "*" E | "(" E ")" | "id"
        START ::= E
        "#,
    )
    .expect("builtin grammar parses")
}

/// A grammar that is LL(1) as well as LR(0)-friendly; used by the
/// recursive-descent / LL(1) baselines.
pub fn statements() -> Grammar {
    parse_bnf(
        r#"
        STMT ::= "if" EXPR "then" STMT "else" STMT
        STMT ::= "while" EXPR "do" STMT
        STMT ::= "id" ":=" EXPR
        STMT ::= "begin" LIST "end"
        LIST ::= STMT TAIL
        TAIL ::= ";" STMT TAIL
        TAIL ::=
        EXPR ::= "id" | "num"
        START ::= STMT
        "#,
    )
    .expect("builtin grammar parses")
}

/// The palindrome-ish grammar `S ::= a S a | b S b | a | b | <empty>`,
/// which is not LR(k) for any k but is handled by the parallel parser and
/// by Earley. Used in the "powerful" column of the Fig. 2.1 comparison.
pub fn palindromes() -> Grammar {
    parse_bnf(
        r#"
        S ::= "a" S "a"
        S ::= "b" S "b"
        S ::= "a"
        S ::= "b"
        S ::=
        START ::= S
        "#,
    )
    .expect("builtin grammar parses")
}

/// A deeply left-recursive list grammar, pathological for recursive
/// descent / LL but trivial for LR. Used in the comparison matrix.
pub fn left_recursive_list() -> Grammar {
    parse_bnf(
        r#"
        L ::= L "," "x"
        L ::= "x"
        START ::= L
        "#,
    )
    .expect("builtin grammar parses")
}

/// A right-recursive list grammar (the LL-friendly mirror image of
/// [`left_recursive_list`]).
pub fn right_recursive_list() -> Grammar {
    parse_bnf(
        r#"
        L ::= "x" "," L
        L ::= "x"
        START ::= L
        "#,
    )
    .expect("builtin grammar parses")
}

/// The boolean grammar extended with `B ::= unknown`, i.e. the grammar of
/// Fig. 6.1 after the modification discussed in §6.
pub fn booleans_with_unknown() -> Grammar {
    let mut g = booleans();
    let b = g.symbol("B").expect("B exists");
    let unknown = g.terminal("unknown");
    g.add_rule(b, vec![unknown]);
    g
}

/// Generates a family of grammars of increasing size: `n` "statement"
/// non-terminals each with a keyword-introduced rule plus shared expression
/// syntax. Used by scaling benchmarks.
pub fn sized_grammar(n: usize) -> Grammar {
    let mut g = Grammar::new();
    let stmt = g.nonterminal("STMT");
    let expr = g.nonterminal("EXPR");
    let id = g.terminal("id");
    let num = g.terminal("num");
    let plus = g.terminal("+");
    g.add_rule(expr, vec![id]);
    g.add_rule(expr, vec![num]);
    g.add_rule(expr, vec![expr, plus, expr]);
    for i in 0..n {
        let kw = g.terminal(&format!("kw{i}"));
        let end = g.terminal(&format!("end{i}"));
        g.add_rule(stmt, vec![kw, expr, end]);
    }
    g.add_start_rule(stmt);
    g
}

/// A deterministic 64-bit LCG (Knuth's MMIX constants), so that
/// [`wide_synthetic`] is bit-identical across runs and hosts.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn below(&mut self, n: usize) -> usize {
        self.next() as usize % n
    }
}

/// Builds a wide grammar with exactly `productions` random alternatives
/// spread round-robin over 8 non-terminals `W0..W7`, plus the dedicated
/// sentence rule `W0 ::= wstart`. Each right-hand side is 2–4 random
/// terminals (out of 40), with a 1-in-4 chance of a trailing non-terminal
/// (right recursion only — a non-terminal *inside* a right-hand side would
/// give every context its own mega-kernel and blow the state count
/// combinatorially). States whose dot stops before a trailing non-terminal
/// close over *hundreds* of alternatives, while successor kernels are
/// shared across contexts. Symbol and rule counts stay bounded (49 symbols
/// total), which bounds the per-state `ACTION` row footprint no matter how
/// large `productions` grows.
pub fn wide_synthetic(productions: usize) -> Grammar {
    let mut g = Grammar::new();
    let nts: Vec<SymbolId> = (0..8).map(|i| g.nonterminal(&format!("W{i}"))).collect();
    let terminals: Vec<SymbolId> = (0..40).map(|i| g.terminal(&format!("t{i:02}"))).collect();
    // The dedicated sentence rule uses a terminal no random rule can pick,
    // so `[wstart]` is in the language regardless of the random draw.
    let wstart = g.terminal("wstart");
    g.add_rule(nts[0], vec![wstart]);
    let mut rng = Lcg(0x9E3779B97F4A7C15);
    for p in 0..productions {
        let lhs = nts[p % nts.len()];
        let len = 2 + rng.below(3);
        let mut rhs: Vec<SymbolId> = (0..len)
            .map(|_| terminals[rng.below(terminals.len())])
            .collect();
        if rng.below(4) == 0 {
            rhs.push(nts[rng.below(nts.len())]);
        }
        g.add_rule(lhs, rhs);
    }
    g.add_start_rule(nts[0]);
    g.validate().expect("wide synthetic grammar is well-formed");
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::GrammarAnalysis;

    #[test]
    fn all_fixtures_validate() {
        for (name, g) in [
            ("booleans", booleans()),
            ("fig62", fig62()),
            ("arithmetic", arithmetic()),
            ("ambiguous", ambiguous_expressions()),
            ("statements", statements()),
            ("palindromes", palindromes()),
            ("left_recursive_list", left_recursive_list()),
            ("right_recursive_list", right_recursive_list()),
            ("booleans_with_unknown", booleans_with_unknown()),
            ("sized_grammar(10)", sized_grammar(10)),
            ("wide_synthetic(50)", wide_synthetic(50)),
        ] {
            assert!(g.validate().is_ok(), "fixture {name} should validate");
        }
    }

    #[test]
    fn booleans_matches_paper_rule_count() {
        let g = booleans();
        assert_eq!(g.num_active_rules(), 5);
    }

    #[test]
    fn fig62_language_symbols() {
        let g = fig62();
        assert_eq!(g.rules_for(g.start_symbol()).count(), 2);
        assert!(g.symbol("A").is_some());
        assert!(g.symbol("b").is_some());
    }

    #[test]
    fn sized_grammar_scales_linearly() {
        assert_eq!(sized_grammar(5).num_active_rules(), 3 + 5 + 1);
        assert_eq!(sized_grammar(50).num_active_rules(), 3 + 50 + 1);
    }

    #[test]
    fn palindromes_grammar_is_nullable() {
        let g = palindromes();
        let a = GrammarAnalysis::compute(&g);
        assert!(a.is_nullable(g.symbol("S").unwrap()));
    }

    #[test]
    fn booleans_with_unknown_has_extra_rule() {
        assert_eq!(
            booleans_with_unknown().num_active_rules(),
            booleans().num_active_rules() + 1
        );
    }
}
