//! Independent answers for every input the benchmark sends, computed with
//! the Earley recogniser (`ipg-earley`) — an engine that shares no table,
//! graph or GSS code with the system under test.

use ipg_earley::EarleyParser;
use ipg_grammar::{Grammar, SymbolId};
use ipg_sdf::NormalizedSdf;

use crate::gen::{EditOp, WideShape};

/// Earley's verdict on an SDF text (scanned with the SDF scanner).
pub fn sdf_accepts(sdf: &NormalizedSdf, text: &str) -> Result<bool, String> {
    let tokens = sdf
        .scanner
        .tokenize_for(&sdf.grammar, text)
        .map_err(|e| format!("oracle scan failed: {e}"))?;
    Ok(EarleyParser::new(&sdf.grammar).recognize(&tokens))
}

fn tokens(grammar: &Grammar, sentence: &str) -> Result<Vec<SymbolId>, String> {
    sentence
        .split_whitespace()
        .map(|name| {
            grammar
                .symbol(name)
                .ok_or_else(|| format!("oracle: unknown terminal {name}"))
        })
        .collect()
}

/// Earley's verdicts on one edit op: `(with_rule accepted while the rule is
/// present, base accepted without it)`.
pub fn edit_op_answers(grammar: &Grammar, op: &EditOp) -> Result<(bool, bool), String> {
    let mut edited = grammar.clone();
    let nt = |g: &Grammar, i: usize| {
        g.symbol(&format!("W{i}"))
            .ok_or_else(|| format!("oracle: no W{i}"))
    };
    let lhs = nt(&edited, op.lhs)?;
    let mut rhs = tokens(&edited, &op.alt.terminals.join(" "))?;
    if let Some(tail) = op.alt.tail {
        rhs.push(nt(&edited, tail)?);
    }
    edited.add_rule(lhs, rhs);
    let with_rule = EarleyParser::new(&edited).recognize(&tokens(&edited, &op.with_rule)?);
    let base = EarleyParser::new(grammar).recognize(&tokens(grammar, &op.base)?);
    Ok((with_rule, base))
}

/// Earley's verdict on a sentence of a wide grammar.
pub fn wide_accepts(shape: &WideShape, sentence: &str) -> Result<bool, String> {
    let grammar = ipg_grammar::parse_bnf(&shape.bnf()).map_err(|e| e.to_string())?;
    Ok(EarleyParser::new(&grammar).recognize(&tokens(&grammar, sentence)?))
}
