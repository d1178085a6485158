//! Seeded input generation for the three workloads. Everything the
//! benchmark sends is built here, before any timing starts; the same seed
//! gives byte-identical inputs.

use std::collections::{HashSet, VecDeque};

use ipg_grammar::Grammar;
use ipg_sdf::fixtures::measurement_inputs;

use crate::rng::Rng;

// ---------------------------------------------------------------------------
// sdf-text: Poisson arrivals of the four Fig. 7.1 inputs.

/// One scheduled request of an open loop.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Arrival {
    /// Offset from the phase start, in seconds.
    pub at: f64,
    /// Index into [`sdf_inputs`].
    pub input: usize,
}

/// The four Fig. 7.1 measurement inputs (`exp.sdf` .. `ASF.sdf`).
pub fn sdf_inputs() -> Vec<(&'static str, &'static str)> {
    measurement_inputs()
        .into_iter()
        .map(|input| (input.name, input.text))
        .collect()
}

/// Poisson arrivals at `rate` per second for `seconds`, each carrying a
/// uniformly drawn input out of `inputs`.
pub fn poisson(rng: &mut Rng, rate: f64, seconds: f64, inputs: usize) -> Vec<Arrival> {
    let mut out = Vec::with_capacity((rate * seconds * 1.1) as usize + 16);
    let mut at = rng.exp_gap(rate);
    while at < seconds {
        out.push(Arrival {
            at,
            input: rng.below(inputs),
        });
        at += rng.exp_gap(rate);
    }
    out
}

// ---------------------------------------------------------------------------
// grammar-edit: the wide synthetic grammar, its edits and its variants.

/// A right-hand side of a wide grammar: terminals, then at most one
/// trailing non-terminal (`W0`..`W7`, by index).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Alt {
    pub terminals: Vec<String>,
    pub tail: Option<usize>,
}

/// The shape of a wide grammar (`ipg_bench::wide_synthetic_workload`):
/// eight non-terminals, each with many alternatives of terminals and an
/// optional trailing non-terminal, and `START ::= W0`.
#[derive(Clone, Debug)]
pub struct WideShape {
    /// Alternatives per non-terminal.
    pub alts: Vec<Vec<Alt>>,
    /// The terminals alternatives are drawn from (`t00`..`t39`).
    pub terminals: Vec<String>,
    /// For every (from, to) pair, the alternatives of `from` whose tail is
    /// `to` — the edges derivations walk along.
    edges: Vec<Vec<Vec<usize>>>,
    /// `next[from][to]`: the first hop of a shortest walk `from` → `to`.
    next: Vec<Vec<Option<usize>>>,
}

pub const WIDE_NTS: usize = 8;

fn nt_name(i: usize) -> String {
    format!("W{i}")
}

impl WideShape {
    /// Reads the shape off a grammar built by `wide_synthetic_workload` or
    /// [`variant_grammar`].
    pub fn from_grammar(grammar: &Grammar) -> WideShape {
        let nt_index =
            |name: &str| -> Option<usize> { name.strip_prefix('W').and_then(|i| i.parse().ok()) };
        let mut alts = vec![Vec::new(); WIDE_NTS];
        for rule in grammar.rules() {
            let Some(lhs) = nt_index(grammar.name(rule.lhs)) else {
                continue; // START ::= W0
            };
            let mut alt = Alt {
                terminals: Vec::new(),
                tail: None,
            };
            for &s in &rule.rhs {
                if grammar.is_terminal(s) {
                    alt.terminals.push(grammar.name(s).to_owned());
                } else {
                    alt.tail = nt_index(grammar.name(s));
                }
            }
            alts[lhs].push(alt);
        }
        let terminals = (0..40).map(|i| format!("t{i:02}")).collect();
        let mut edges = vec![vec![Vec::new(); WIDE_NTS]; WIDE_NTS];
        for (from, list) in alts.iter().enumerate() {
            for (i, alt) in list.iter().enumerate() {
                if let Some(to) = alt.tail {
                    edges[from][to].push(i);
                }
            }
        }
        // Breadth-first first hops between every pair of non-terminals.
        let mut next = vec![vec![None; WIDE_NTS]; WIDE_NTS];
        for to in 0..WIDE_NTS {
            // Walk backwards from `to`.
            let mut queue = VecDeque::from([to]);
            let mut seen = [false; WIDE_NTS];
            seen[to] = true;
            while let Some(via) = queue.pop_front() {
                for from in 0..WIDE_NTS {
                    if !seen[from] && !edges[from][via].is_empty() {
                        seen[from] = true;
                        next[from][to] = Some(via);
                        queue.push_back(from);
                    }
                }
            }
        }
        WideShape {
            alts,
            terminals,
            edges,
            next,
        }
    }

    /// The grammar as the textual BNF `ATTACH-TENANT` takes.
    pub fn bnf(&self) -> String {
        let mut out = String::new();
        for (lhs, list) in self.alts.iter().enumerate() {
            for alt in list {
                out.push_str(&rule_text(lhs, alt));
                out.push('\n');
            }
        }
        out.push_str("START ::= W0\n");
        out
    }

    /// Terminals of a random walk from `W0` that ends expecting `target`:
    /// `steps` random recursive steps, then a shortest path.
    fn prefix_to(&self, rng: &mut Rng, target: usize, steps: usize) -> Vec<String> {
        let mut out = Vec::new();
        let mut at = 0;
        for _ in 0..steps {
            let tails: Vec<usize> = (0..WIDE_NTS)
                .filter(|&to| {
                    !self.edges[at][to].is_empty()
                        && (to == target || self.next[to][target].is_some())
                })
                .collect();
            if tails.is_empty() {
                break;
            }
            let to = tails[rng.below(tails.len())];
            at = self.step(rng, at, to, &mut out);
        }
        while at != target {
            let to = self.next[at][target].expect("every wide non-terminal is reachable");
            at = self.step(rng, at, to, &mut out);
        }
        out
    }

    fn step(&self, rng: &mut Rng, from: usize, to: usize, out: &mut Vec<String>) -> usize {
        let choices = &self.edges[from][to];
        let alt = &self.alts[from][choices[rng.below(choices.len())]];
        out.extend(alt.terminals.iter().cloned());
        to
    }

    /// Terminals of a random terminal-only alternative of `nt`.
    fn complete(&self, rng: &mut Rng, nt: usize) -> Vec<String> {
        let finals: Vec<&Alt> = self.alts[nt].iter().filter(|a| a.tail.is_none()).collect();
        finals[rng.below(finals.len())].terminals.clone()
    }

    /// A random sentence of the grammar as it is.
    pub fn sentence(&self, rng: &mut Rng) -> String {
        let (target, steps) = (rng.below(WIDE_NTS), rng.below(4));
        self.sentence_to(rng, target, steps)
    }

    /// A random sentence whose derivation takes `steps` random recursive
    /// steps and ends in an alternative of `target`.
    pub fn sentence_to(&self, rng: &mut Rng, target: usize, steps: usize) -> String {
        let mut words = self.prefix_to(rng, target, steps);
        words.extend(self.complete(rng, target));
        words.join(" ")
    }

    /// A sentence whose derivation takes `steps` random recursive steps and
    /// then uses `alt` as an alternative of `lhs`.
    pub fn sentence_with(&self, rng: &mut Rng, lhs: usize, alt: &Alt, steps: usize) -> String {
        let mut words = self.prefix_to(rng, lhs, steps);
        words.extend(alt.terminals.iter().cloned());
        if let Some(tail) = alt.tail {
            words.extend(self.complete(rng, tail));
        }
        words.join(" ")
    }
}

/// `W3 ::= "t01" "t22" W5`.
pub fn rule_text(lhs: usize, alt: &Alt) -> String {
    let mut out = format!("{} ::=", nt_name(lhs));
    for t in &alt.terminals {
        out.push_str(&format!(" \"{t}\""));
    }
    if let Some(tail) = alt.tail {
        out.push(' ');
        out.push_str(&nt_name(tail));
    }
    out
}

/// One grammar-edit op: `ADD-RULE add`, parse `with_rule`, `DELETE-RULE
/// add`, parse `base`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EditOp {
    pub lhs: usize,
    pub alt: Alt,
    /// The rule text for `ADD-RULE`/`DELETE-RULE`.
    pub rule: String,
    /// A sentence derived with the added alternative.
    pub with_rule: String,
    /// A sentence of the unedited grammar.
    pub base: String,
}

/// `count` edit ops over `shape`, each adding an alternative that is
/// neither in the grammar nor in `taken` (which collects them, so ops of
/// different connections never add the same rule). The op's shape is
/// stratified, not drawn, so every 96 ops cover all shapes alike whatever
/// the seed: op `k` edits `W{k % 8}` with `2 + k/8 % 3` terminals, and
/// `v = k/24 % 4` sets the random steps of its sentences' derivations
/// (`v`, and `(v + 2) % 4` for the base sentence) and gives the added
/// alternative a trailing non-terminal when `v == 0`. Only terminals,
/// tails and derivation choices are random.
pub fn edit_ops(
    shape: &WideShape,
    rng: &mut Rng,
    count: usize,
    taken: &mut HashSet<(usize, Alt)>,
) -> Vec<EditOp> {
    let existing: HashSet<(usize, &Alt)> = shape
        .alts
        .iter()
        .enumerate()
        .flat_map(|(lhs, list)| list.iter().map(move |alt| (lhs, alt)))
        .collect();
    let mut ops = Vec::with_capacity(count);
    while ops.len() < count {
        let k = ops.len();
        let lhs = k % WIDE_NTS;
        let len = 2 + k / WIDE_NTS % 3;
        let v = k / (3 * WIDE_NTS) % 4;
        let alt = Alt {
            terminals: (0..len)
                .map(|_| shape.terminals[rng.below(shape.terminals.len())].clone())
                .collect(),
            tail: (v == 0).then(|| rng.below(WIDE_NTS)),
        };
        if existing.contains(&(lhs, &alt)) || !taken.insert((lhs, alt.clone())) {
            continue;
        }
        let with_rule = shape.sentence_with(rng, lhs, &alt, v);
        let base = shape.sentence_to(rng, (k + WIDE_NTS / 2) % WIDE_NTS, (v + 2) % 4);
        ops.push(EditOp {
            lhs,
            rule: rule_text(lhs, &alt),
            alt,
            with_rule,
            base,
        });
    }
    ops
}

/// A fresh wide grammar of `productions` random alternatives drawn like
/// `wide_synthetic_workload`'s, but from `rng` — an independent tenant for
/// the attach → first-parse measurement.
pub fn variant_grammar(rng: &mut Rng, productions: usize) -> WideShape {
    let mut alts = vec![Vec::new(); WIDE_NTS];
    alts[0].push(Alt {
        terminals: vec!["wstart".to_owned()],
        tail: None,
    });
    let mut seen = HashSet::new();
    let mut p = 0;
    while p < productions {
        let lhs = p % WIDE_NTS;
        let len = 2 + rng.below(3);
        let alt = Alt {
            terminals: (0..len).map(|_| format!("t{:02}", rng.below(40))).collect(),
            tail: (rng.below(4) == 0).then(|| rng.below(WIDE_NTS)),
        };
        if seen.insert((lhs, alt.clone())) {
            alts[lhs].push(alt);
            p += 1;
        }
    }
    let bnf = WideShape {
        alts,
        terminals: Vec::new(),
        edges: Vec::new(),
        next: Vec::new(),
    }
    .bnf();
    let grammar = ipg_grammar::parse_bnf(&bnf).expect("variant BNF parses");
    WideShape::from_grammar(&grammar)
}

// ---------------------------------------------------------------------------
// doc-keystroke: one large SDF module and a reversible edit script.

const DOC_HEADER: &str =
    "module Big\nbegin\n    context-free syntax\n        sorts TERM\n        functions\n";
const DOC_FOOTER: &str = "end Big\n";
const INDENT: &str = "            ";

/// Every single-line production (`... -> SORT ...`) of the context-free
/// sections of the four measurement inputs. Each is a whole
/// `FUNCTION-DEF` on its own, so any sequence of them forms a valid
/// `functions` section.
pub fn production_lines() -> Vec<String> {
    let mut out = Vec::new();
    for (_, text) in sdf_inputs() {
        let mut in_cf = false;
        for line in text.lines() {
            let trimmed = line.trim();
            if trimmed == "context-free syntax" {
                in_cf = true;
            } else if trimmed.starts_with("end ") {
                in_cf = false;
            } else if in_cf && trimmed.contains("->") && !trimmed.starts_with("sorts") {
                out.push(format!("{INDENT}{trimmed}\n"));
            }
        }
    }
    out
}

/// A single SDF module whose `functions` section is grown to at least
/// `target_bytes` from passes over [`production_lines`], each pass in a
/// fresh seeded order: every line occurs about equally often, so the
/// document's size in tokens hardly depends on the seed.
pub fn document(rng: &mut Rng, target_bytes: usize) -> String {
    let mut lines = production_lines();
    let mut text = String::from(DOC_HEADER);
    while text.len() + DOC_FOOTER.len() < target_bytes {
        for i in (1..lines.len()).rev() {
            lines.swap(i, rng.below(i + 1));
        }
        for line in &lines {
            if text.len() + DOC_FOOTER.len() >= target_bytes {
                break;
            }
            text.push_str(line);
        }
    }
    text.push_str(DOC_FOOTER);
    text
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum EditKind {
    /// One letter of a sort name or literal replaced by another capital:
    /// the token sequence is unchanged.
    Rename,
    /// A whole production line inserted.
    InsertLine,
    /// A whole production line deleted.
    DeleteLine,
}

/// One `PARSE-DELTA`: replace bytes `start..end` with `text`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Edit {
    pub start: usize,
    pub end: usize,
    pub text: String,
}

impl Edit {
    pub fn apply(&self, doc: &mut String) {
        doc.replace_range(self.start..self.end, &self.text);
    }
}

/// Edits typed at one place before the cursor jumps.
const BURST: usize = 8;
/// The kinds of one burst's edits, shuffled per burst.
const BURST_KINDS: [EditKind; BURST] = [
    EditKind::Rename,
    EditKind::Rename,
    EditKind::Rename,
    EditKind::Rename,
    EditKind::InsertLine,
    EditKind::InsertLine,
    EditKind::DeleteLine,
    EditKind::DeleteLine,
];

/// A cyclic edit script: `forward` seeded edits followed by their inverses
/// in reverse order, so the document is back to its initial text after
/// every full pass and the script can be replayed for any run length.
///
/// Edits come in bursts of [`BURST`] near a drifting cursor (±400 bytes
/// per edit), half renames and half line inserts/deletes. Every 20th burst
/// starts at the front of the document; the others start at golden-ratio
/// spaced positions from a seeded offset, so any stretch of the script
/// covers the document evenly and the edit cost, which grows with the
/// distance from the end, averages alike for every seed.
pub fn edit_script(rng: &mut Rng, initial: &str, forward: usize) -> Vec<Edit> {
    let lines = production_lines();
    let mut text = initial.to_owned();
    let body_start = DOC_HEADER.len();
    let target = initial.len();
    let offset = rng.unit();
    let mut cursor = body_start;
    let mut kinds = BURST_KINDS;
    let mut burst = 0usize;
    let mut burst_at = usize::MAX;
    let mut edits = Vec::with_capacity(2 * forward);
    let mut inverses = Vec::with_capacity(forward);
    while edits.len() < forward {
        let body_end = text.len() - DOC_FOOTER.len();
        if edits.len() % BURST == 0 && burst_at != edits.len() {
            burst_at = edits.len();
            cursor = if burst.is_multiple_of(20) {
                body_start + rng.below(2_000)
            } else {
                let at = (offset + burst as f64 * 0.618_033_988_749_895).fract();
                body_start + (at * (body_end - body_start) as f64) as usize
            };
            for i in (1..BURST).rev() {
                kinds.swap(i, rng.below(i + 1));
            }
            burst += 1;
        } else {
            cursor = (cursor + rng.below(801)).saturating_sub(400);
        }
        cursor = cursor.clamp(body_start, body_end - 1);
        let mut kind = kinds[edits.len() % BURST];
        if kind == EditKind::InsertLine && text.len() > target + target / 20 {
            kind = EditKind::DeleteLine;
        } else if kind == EditKind::DeleteLine && text.len() < target - target / 20 {
            kind = EditKind::InsertLine;
        }
        let line_start = text[..cursor]
            .rfind('\n')
            .map_or(0, |i| i + 1)
            .max(body_start);
        let edit = match kind {
            EditKind::Rename => {
                let bytes = text.as_bytes();
                let Some(at) = (cursor..body_end).find(|&i| bytes[i].is_ascii_uppercase()) else {
                    cursor = body_start;
                    continue;
                };
                let old = bytes[at] - b'A';
                let new = (b'A' + (old + 1 + rng.below(25) as u8) % 26) as char;
                Edit {
                    start: at,
                    end: at + 1,
                    text: new.to_string(),
                }
            }
            EditKind::InsertLine => Edit {
                start: line_start,
                end: line_start,
                text: lines[rng.below(lines.len())].clone(),
            },
            EditKind::DeleteLine => {
                let line_end =
                    line_start + text[line_start..].find('\n').expect("lines end in \\n") + 1;
                if line_end > body_end {
                    continue;
                }
                Edit {
                    start: line_start,
                    end: line_end,
                    text: String::new(),
                }
            }
        };
        inverses.push(Edit {
            start: edit.start,
            end: edit.start + edit.text.len(),
            text: text[edit.start..edit.end].to_owned(),
        });
        edit.apply(&mut text);
        edits.push(edit);
    }
    edits.extend(inverses.into_iter().rev());
    edits
}

/// The document after the first `applied` edits of the cyclic `script`.
pub fn text_after(initial: &str, script: &[Edit], applied: usize) -> String {
    let mut text = initial.to_owned();
    for edit in &script[..applied % script.len()] {
        edit.apply(&mut text);
    }
    text
}

#[cfg(test)]
mod tests {
    use ipg::{IpgServer, IpgSession};
    use ipg_bench::wide_synthetic_workload;
    use ipg_sdf::fixtures::sdf_grammar_and_scanner;

    use super::*;
    use crate::oracle::{edit_op_answers, sdf_accepts, wide_accepts};

    fn ops(seed: u64, shape: &WideShape) -> Vec<EditOp> {
        edit_ops(shape, &mut Rng::new(seed), 24, &mut HashSet::new())
    }

    #[test]
    fn the_same_seed_gives_the_same_inputs() {
        let arrivals = |seed| poisson(&mut Rng::new(seed), 1_000.0, 2.0, 4);
        assert_eq!(arrivals(5), arrivals(5));
        assert_ne!(arrivals(5), arrivals(6));
        let shape = WideShape::from_grammar(&wide_synthetic_workload(200).grammar);
        assert_eq!(ops(5, &shape), ops(5, &shape));
        assert_ne!(ops(5, &shape), ops(6, &shape));
        let variant = |seed| variant_grammar(&mut Rng::new(seed), 100).bnf();
        assert_eq!(variant(5), variant(5));
        assert_ne!(variant(5), variant(6));
        let doc = |seed| {
            let text = document(&mut Rng::new(seed), 8_000);
            let script = edit_script(&mut Rng::new(seed), &text, 50);
            (text, script)
        };
        assert_eq!(doc(5), doc(5));
        assert_ne!(doc(5), doc(6));
    }

    #[test]
    fn edit_ops_agree_between_earley_and_the_server() {
        let wide = wide_synthetic_workload(200);
        let shape = WideShape::from_grammar(&wide.grammar);
        let server = IpgServer::from_bnf(&shape.bnf()).unwrap();
        for op in ops(9, &shape) {
            let (with_rule, base) = edit_op_answers(&wide.grammar, &op).unwrap();
            assert!(
                with_rule && base,
                "generated sentences are derivable: {op:?}"
            );
            server.add_rule_text(&op.rule).unwrap();
            assert_eq!(
                server.parse_sentence(&op.with_rule).unwrap().accepted,
                with_rule
            );
            server.remove_rule_text(&op.rule).unwrap();
            assert_eq!(server.parse_sentence(&op.base).unwrap().accepted, base);
        }
        let variant = variant_grammar(&mut Rng::new(9), 300);
        let sentence = variant.sentence(&mut Rng::new(10));
        let server = IpgServer::from_bnf(&variant.bnf()).unwrap();
        assert!(wide_accepts(&variant, &sentence).unwrap());
        assert!(server.parse_sentence(&sentence).unwrap().accepted);
    }

    #[test]
    fn edit_scripts_cycle_and_keep_the_document_a_module() {
        let sdf = sdf_grammar_and_scanner();
        let server =
            IpgServer::new(IpgSession::new(sdf.grammar.clone())).with_scanner(sdf.scanner.clone());
        for (_, text) in sdf_inputs() {
            assert_eq!(
                server.parse_text(text).unwrap().accepted,
                sdf_accepts(&sdf, text).unwrap()
            );
        }
        let initial = document(&mut Rng::new(4), 12_000);
        let script = edit_script(&mut Rng::new(4), &initial, 120);
        assert_eq!(script.len(), 240);
        assert_eq!(text_after(&initial, &script, script.len()), initial);
        assert!(sdf_accepts(&sdf, &initial).unwrap());
        let doc = server.open_document(&initial).unwrap();
        for (n, edit) in script.iter().enumerate() {
            let outcome = server
                .apply_edit(doc, edit.start..edit.end, &edit.text)
                .unwrap();
            assert!(outcome.accepted(), "edit {n} keeps the module a sentence");
            if n % 40 == 0 {
                let text = text_after(&initial, &script, n + 1);
                assert_eq!(server.document_text(doc).unwrap(), text);
                assert!(sdf_accepts(&sdf, &text).unwrap());
            }
        }
        assert_eq!(server.document_text(doc).unwrap(), initial);
    }
}
