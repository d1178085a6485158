//! `grammar-edit`: the paper's interactive language-design loop. One
//! connection edits `wide_synthetic_workload(5000)`, attached as an
//! independent tenant: each op is `ADD-RULE` of a seeded new alternative,
//! `PARSE-TOKENS` of a sentence derived with it, `DELETE-RULE`, and
//! `PARSE-TOKENS` of a base sentence. Every `ATTACH_EVERY` ops a fresh
//! seeded variant grammar is attached and parsed once (time to first
//! parse), and an older variant is touched again; the registry budget is
//! below the combined working set, so cold tenants are evicted and
//! re-lazified. Lazy generation, `MODIFY` invalidation and epoch
//! publication dominate; nothing is scanned.

use std::collections::HashSet;
use std::time::Instant;

use ipg::{GrammarRegistry, IpgServer};
use ipg_bench::wide_synthetic_workload;
use ipg_frontend::protocol::{Status, Verb};
use ipg_frontend::Client;
use ipg_glr::ParseCtx;

use crate::gen::{edit_ops, variant_grammar, EditOp, WideShape};
use crate::layers::{
    delta, finish, idle_layers, normalize_ms, parse_ok, percentiles, ping_rtt_us, ratio, set_up,
    write_spans, Served, P99_WINDOW, SETUP_RUNS, TRACED_SETUP_RUNS,
};
use crate::oracle::{edit_op_answers, wide_accepts};
use crate::rng::Rng;
use crate::stats::{median, Percentiles};
use crate::steal::{Latencies, Sample, StealLog};
use crate::trace::Tracer;
use crate::wire::Conn;
use crate::{Options, Report};

/// Productions of the edited grammar.
pub const WIDE_PRODUCTIONS: usize = 5_000;
/// Distinct edit ops per connection, cycled.
const OPS_PER_CONN: usize = 192;
/// Productions of each attached variant grammar.
pub const VARIANT_PRODUCTIONS: usize = 2_000;
/// An attach → first parse every this many ops.
pub const ATTACH_EVERY: usize = 32;
/// Variants available to one pass.
const MAX_ATTACHES: usize = 16;
/// Registry byte budget: above the edited tenant's working set, below it
/// plus the variants', so variants are evicted and re-lazified.
pub const REGISTRY_BUDGET: usize = 12 << 20;
/// `slo_rps`: an edit → parse-reply step within this limit counts, µs.
pub const STEP_LIMIT_US: f64 = 20_000.0;

/// An op with Earley's verdicts on its two sentences.
type Checked = (EditOp, (bool, bool));

struct Variant {
    bnf: String,
    sentence: String,
    expected: bool,
}

struct Workload {
    bnf: String,
    pools: [Vec<Checked>; 2],
    variants: Vec<Variant>,
}

fn generate(seed: u64) -> Result<Workload, String> {
    let rng = Rng::new(seed);
    let wide = wide_synthetic_workload(WIDE_PRODUCTIONS);
    let shape = WideShape::from_grammar(&wide.grammar);
    let mut taken = HashSet::new();
    let mut pool = |stream| -> Result<Vec<Checked>, String> {
        edit_ops(&shape, &mut rng.fork(stream), OPS_PER_CONN, &mut taken)
            .into_iter()
            .map(|op| edit_op_answers(&wide.grammar, &op).map(|answers| (op, answers)))
            .collect()
    };
    let pools = [pool(1)?, pool(2)?];
    let variants = (0..MAX_ATTACHES)
        .map(|i| {
            let mut rng = rng.fork(1_000 + i as u64);
            let shape = variant_grammar(&mut rng, VARIANT_PRODUCTIONS);
            let sentence = shape.sentence(&mut rng);
            Ok(Variant {
                expected: wide_accepts(&shape, &sentence)?,
                bnf: shape.bnf(),
                sentence,
            })
        })
        .collect::<Result<_, String>>()?;
    Ok(Workload {
        bnf: shape.bnf(),
        pools,
        variants,
    })
}

/// One closed-loop connection editing the wide tenant.
struct Editor<'t> {
    conn: Conn<'t>,
    version: u64,
}

impl Editor<'_> {
    /// `verb` (an edit) then `PARSE-TOKENS sentence`; the step's latency
    /// (edit sent → parse reply, µs) if both replies are right: `OK`, a
    /// grammar version above every one this connection saw, and Earley's
    /// verdict.
    fn step(
        &mut self,
        report: &mut Report,
        tracer: Option<(&mut Tracer, u64, usize)>,
        verb: Verb,
        rule: &str,
        sentence: &str,
        expected: bool,
    ) -> Result<Option<Sample>, String> {
        let started = Instant::now();
        let (edit, edit_us) = self.conn.call(verb, rule.as_bytes())?;
        let (parse, parse_us) = self.conn.call(Verb::ParseTokens, sentence.as_bytes())?;
        let us = started.elapsed().as_secs_f64() * 1e6;
        if let Some((tracer, op, parent)) = tracer {
            let (name, parse_name) = if verb == Verb::AddRule {
                ("wire.add_rule", "wire.parse_tokens.with_rule")
            } else {
                ("wire.delete_rule", "wire.parse_tokens.base")
            };
            let edit_end = started + std::time::Duration::from_secs_f64(edit_us / 1e6);
            tracer.record(name, op, Some(parent), started, edit_end);
            let end = Instant::now();
            let parse_start = end - std::time::Duration::from_secs_f64(parse_us / 1e6);
            tracer.record(parse_name, op, Some(parent), parse_start, end);
        }
        let edit_version = edit.parse_outcome().map(|(_, v)| v);
        let version_ok = edit.status == Status::Ok && edit_version > Some(self.version);
        if let Some(v) = edit_version {
            self.version = self.version.max(v);
        }
        let parse_outcome = parse.parse_outcome();
        let ok = version_ok
            && parse_ok(parse.status, parse_outcome, expected)
            && parse_outcome.map(|(_, v)| v) >= edit_version;
        report.check(ok, "edit_step");
        Ok(ok.then_some(Sample { start: started, us }))
    }

    /// One op: add, parse with the rule, delete, parse a base sentence.
    fn op(
        &mut self,
        report: &mut Report,
        mut tracer: Option<&mut Tracer>,
        n: u64,
        (op, (with_rule, base)): &Checked,
        samples: &mut Vec<Sample>,
    ) -> Result<(), String> {
        let span = tracer
            .as_deref_mut()
            .map(|t| t.open("op.grammar_edit", n, None));
        for (verb, sentence, expected) in [
            (Verb::AddRule, &op.with_rule, *with_rule),
            (Verb::DeleteRule, &op.base, *base),
        ] {
            let traced = tracer.as_deref_mut().zip(span).map(|(t, s)| (t, n, s));
            samples.extend(self.step(report, traced, verb, &op.rule, sentence, expected)?);
        }
        if let (Some(tracer), Some(span)) = (tracer, span) {
            tracer.close(span);
        }
        Ok(())
    }
}

/// Attaches variant `v` as tenant `name` and parses its sentence: the
/// time from the attach request to the parse reply, ms. Then touches the
/// variant attached two before (`older`) again, which re-lazifies it if
/// the registry evicted it.
fn attach_variant(
    report: &mut Report,
    conn: &mut Conn<'_>,
    name: &str,
    v: &Variant,
    older: Option<(u32, &Variant)>,
) -> Result<(u32, f64), String> {
    let started = Instant::now();
    conn.set_tenant(0);
    let payload = ipg_frontend::protocol::attach_tenant_payload(name, "", &v.bnf);
    let (response, _) = conn.call(Verb::AttachTenant, &payload)?;
    let id = Client::attach_tenant_outcome(&response)
        .filter(|_| response.status == Status::Ok)
        .ok_or_else(|| format!("attaching {name} failed: {:?}", response.status))?;
    conn.set_tenant(id);
    let (parse, _) = conn.call(Verb::ParseTokens, v.sentence.as_bytes())?;
    let ms = started.elapsed().as_secs_f64() * 1e3;
    report.check(
        parse_ok(parse.status, parse.parse_outcome(), v.expected),
        "first_parse",
    );
    if let Some((older_id, older)) = older {
        conn.set_tenant(older_id);
        let (parse, _) = conn.call(Verb::ParseTokens, older.sentence.as_bytes())?;
        report.check(
            parse_ok(parse.status, parse.parse_outcome(), older.expected),
            "retouch_parse",
        );
    }
    Ok((id, ms))
}

/// The nominal phase: connection 0 runs its pool for `seconds`, attaching
/// a variant every `ATTACH_EVERY` ops. Returns the edit steps' latencies
/// (each step is half an op) and the first-parse times.
fn nominal_pass(
    report: &mut Report,
    editor: &mut Editor<'_>,
    wide: u32,
    work: &Workload,
    seconds: f64,
    prefix: &str,
    mut tracer: Option<&mut Tracer>,
) -> Result<(Latencies, Vec<f64>), String> {
    let mut samples = Vec::new();
    let mut first_ms = Vec::new();
    let mut attached: Vec<u32> = Vec::new();
    let mut log = StealLog::start();
    let started = Instant::now();
    let mut ops = 0u64;
    while started.elapsed().as_secs_f64() < seconds {
        let op = &work.pools[0][ops as usize % OPS_PER_CONN];
        editor.op(report, tracer.as_deref_mut(), ops, op, &mut samples)?;
        log.tick();
        ops += 1;
        if ops.is_multiple_of(ATTACH_EVERY as u64) && attached.len() < work.variants.len() {
            let i = attached.len();
            let older = i.checked_sub(2).map(|j| (attached[j], &work.variants[j]));
            let (id, ms) = attach_variant(
                report,
                &mut editor.conn,
                &format!("{prefix}{i}"),
                &work.variants[i],
                older,
            )?;
            attached.push(id);
            first_ms.push(ms);
            editor.conn.set_tenant(wide);
        }
    }
    log.finish();
    let mut latencies = Latencies::default();
    latencies.add(&samples, &log, 0.5);
    Ok((latencies, first_ms))
}

fn set_up_server(report: &mut Report, runs: usize, work: &Workload) -> Result<Served<u32>, String> {
    let (served, _) = set_up(report, runs, REGISTRY_BUDGET, |_, proc, tally, started| {
        let mut conn = Conn::connect(proc.addr, tally)?;
        let payload = ipg_frontend::protocol::attach_tenant_payload("wide", "", &work.bnf);
        let (response, _) = conn.call(Verb::AttachTenant, &payload)?;
        let id = Client::attach_tenant_outcome(&response)
            .filter(|_| response.status == Status::Ok)
            .ok_or("attaching the edited grammar failed")?;
        Ok((id, started.elapsed().as_secs_f64(), None))
    })?;
    Ok(served)
}

fn editor<'t>(
    report: &mut Report,
    served: &'t Served<u32>,
    pool: usize,
    work: &Workload,
) -> Result<Editor<'t>, String> {
    let mut conn = Conn::connect(served.proc.addr, &served.tally)?;
    conn.set_tenant(served.state);
    let mut editor = Editor { conn, version: 0 };
    // Untimed first pass: creates the rule slots every later pass reuses.
    let mut scratch = Vec::new();
    for (n, op) in work.pools[pool].iter().enumerate() {
        editor.op(report, None, n as u64, op, &mut scratch)?;
    }
    Ok(editor)
}

/// Both connections run their pools concurrently for `seconds`. Returns
/// the steps' latencies, and those of the steps within `STEP_LIMIT_US`.
fn peak_pass(
    report: &mut Report,
    editors: [Editor<'_>; 2],
    work: &Workload,
    seconds: f64,
) -> Result<(Latencies, Latencies), String> {
    let started = Instant::now();
    let run = |mut editor: Editor<'_>, pool: usize| {
        let mut report = Report::default();
        let mut samples = Vec::new();
        let mut log = StealLog::start();
        let mut ops = 0usize;
        while started.elapsed().as_secs_f64() < seconds {
            let op = &work.pools[pool][ops % OPS_PER_CONN];
            editor.op(&mut report, None, ops as u64, op, &mut samples)?;
            log.tick();
            ops += 1;
        }
        log.finish();
        Ok::<_, String>((report, samples, log))
    };
    let [e0, e1] = editors;
    let results = std::thread::scope(|scope| {
        let second = scope.spawn(|| run(e1, 1));
        [
            run(e0, 0),
            second.join().expect("the second connection does not panic"),
        ]
    });
    let (mut all, mut within) = (Latencies::default(), Latencies::default());
    for result in results {
        let (other, samples, log) = result?;
        report.absorb(other);
        all.add(&samples, &log, 0.5);
        let good: Vec<Sample> = samples
            .into_iter()
            .filter(|s| s.us <= STEP_LIMIT_US)
            .collect();
        within.add(&good, &log, 0.5);
    }
    Ok((all, within))
}

pub fn run(options: &Options) -> Result<Report, String> {
    let mut report = Report::default();
    let work = generate(options.seed)?;
    if options.trace {
        return traced(options, report, &work);
    }
    let t = options.seconds;
    let served = set_up_server(&mut report, SETUP_RUNS, &work)?;
    let editors = [
        editor(&mut report, &served, 0, &work)?,
        editor(&mut report, &served, 1, &work)?,
    ];
    let [mut e0, e1] = editors;
    let (latencies, mut first_ms) = nominal_pass(
        &mut report,
        &mut e0,
        served.state,
        &work,
        0.55 * t,
        "v",
        None,
    )?;
    percentiles(&mut report, "p50_us", "p99_us", &latencies);
    report.metric("ops_per_s", latencies.ops_per_s());
    report.note("samples.first_parse_ms", first_ms.len().to_string());
    report.metric("first_parse_ms", median(&mut first_ms));
    let (latencies, within) = peak_pass(&mut report, [e0, e1], &work, 0.45 * t)?;
    percentiles(&mut report, "p50_us.peak", "p99_us.peak", &latencies);
    report.note("slo_step_limit_us", STEP_LIMIT_US.to_string());
    report.metric("slo_rps", within.ops_per_s());
    finish(&mut report, served)?;
    Ok(report)
}

/// Per-op timings of the in-process replay, µs.
#[derive(Default)]
struct Replay {
    publish: Vec<f64>,
    lazy: Vec<f64>,
    recognize: Vec<f64>,
    forest: Vec<f64>,
    overhead: Vec<f64>,
    bnf_ms: Vec<f64>,
    attach_us: Vec<f64>,
}

fn traced(options: &Options, mut report: Report, work: &Workload) -> Result<Report, String> {
    let t = options.seconds;
    let mut tracer = Tracer::new();
    let served = set_up_server(&mut report, TRACED_SETUP_RUNS, work)?;
    let mut e0 = editor(&mut report, &served, 0, work)?;
    let e1 = editor(&mut report, &served, 1, work)?;

    // Idle wire latency of base-sentence parses (no edits in between).
    report.metric("frontend.ping_rtt_us", ping_rtt_us(&mut e0.conn, 200)?);
    let sentences: Vec<&str> = work.pools[0]
        .iter()
        .map(|(op, _)| op.base.as_str())
        .collect();
    let mut idle = Vec::new();
    for _ in 0..5 {
        for (sentence, (_, (_, expected))) in sentences.iter().zip(&work.pools[0]) {
            let (response, us) = e0.conn.call(Verb::ParseTokens, sentence.as_bytes())?;
            report.check(
                parse_ok(response.status, response.parse_outcome(), *expected),
                "idle_reply",
            );
            idle.push(us);
        }
    }
    let idle_us = median(&mut idle);

    // The nominal pass twice: without spans, then with them.
    let (untraced, _) = nominal_pass(&mut report, &mut e0, served.state, work, 0.2 * t, "u", None)?;
    let (traced, _) = nominal_pass(
        &mut report,
        &mut e0,
        served.state,
        work,
        0.2 * t,
        "t",
        Some(&mut tracer),
    )?;
    let [untraced, traced] =
        [untraced, traced].map(|l| Percentiles::windowed(l.samples().0, P99_WINDOW));
    report.metric("trace.overhead.p50_us", traced.p50 - untraced.p50);
    report.metric("trace.overhead.p99_us", traced.p99 - untraced.p99);

    // Queue wait: base parses from both connections at once, minus idle.
    let started = Instant::now();
    let run = |mut editor: Editor<'_>| -> Result<(Report, Vec<f64>), String> {
        let mut report = Report::default();
        let mut samples = Vec::new();
        while started.elapsed().as_secs_f64() < 0.05 * t {
            for (sentence, (_, (_, expected))) in sentences.iter().zip(&work.pools[0]) {
                let (response, us) = editor.conn.call(Verb::ParseTokens, sentence.as_bytes())?;
                report.check(
                    parse_ok(response.status, response.parse_outcome(), *expected),
                    "busy_reply",
                );
                samples.push(us);
            }
        }
        Ok((report, samples))
    };
    let busy = std::thread::scope(|scope| {
        let second = scope.spawn(|| run(e1));
        [
            run(e0),
            second.join().expect("the second connection does not panic"),
        ]
    });
    let mut at_rate = Vec::new();
    for result in busy {
        let (other, samples) = result?;
        report.absorb(other);
        at_rate.extend(samples);
    }
    report.metric("frontend.queue_wait_us", median(&mut at_rate) - idle_us);

    // In-process replay of the same op sequence.
    report.metric("sdf.normalize_ms", normalize_ms(5));
    let registry = GrammarRegistry::new(REGISTRY_BUDGET, 64);
    let wide = registry
        .attach(
            "wide",
            IpgServer::from_bnf(&work.bnf).map_err(|e| e.to_string())?,
        )
        .map_err(|e| e.to_string())?;
    let server = registry.server(wide).ok_or("the wide tenant is attached")?;
    let mut replay = Replay::default();
    let mut ctx = ParseCtx::new();
    for (op, _) in &work.pools[0] {
        server.add_rule_text(&op.rule).map_err(|e| e.to_string())?;
        server
            .remove_rule_text(&op.rule)
            .map_err(|e| e.to_string())?;
    }
    // Like the idle wire parses: five rounds, the first one lazy.
    let mut in_process = Vec::new();
    for _ in 0..5 {
        for (sentence, (_, (_, expected))) in sentences.iter().zip(&work.pools[0]) {
            let started = Instant::now();
            let parsed = server.parse_sentence(sentence).map_err(|e| e.to_string())?;
            in_process.push(started.elapsed().as_secs_f64() * 1e6);
            report.check(parsed.accepted == *expected, "in_process_answer");
        }
    }
    report.metric("frontend.self_us", idle_us - median(&mut in_process));
    let before = server.stats().merged();
    let budget = Instant::now();
    let mut ops = 0u64;
    let mut attached = 0;
    while budget.elapsed().as_secs_f64() < 0.3 * t {
        let (op, (with_rule, base)) = &work.pools[0][ops as usize % OPS_PER_CONN];
        let span = tracer.open("op.replay", ops, None);
        for (text, sentence, expected, add) in [
            (&op.rule, &op.with_rule, *with_rule, true),
            (&op.rule, &op.base, *base, false),
        ] {
            let (edited, us) = tracer.time("server.publish", ops, Some(span), || {
                if add {
                    server.add_rule_text(text)
                } else {
                    server.remove_rule_text(text)
                }
            });
            edited.map_err(|e| e.to_string())?;
            replay.publish.push(us);
            let tokens = server.tokens(sentence).map_err(|e| e.to_string())?;
            let (first, pp1) = tracer.time("server.parse_pooled", ops, Some(span), || {
                server.parse_pooled(&tokens).accepted()
            });
            let (second, pp2) = tracer.time("server.parse_pooled.repeat", ops, Some(span), || {
                server.parse_pooled(&tokens).accepted()
            });
            let (recognized, rec) = tracer.time("glr.recognize", ops, Some(span), || {
                server.recognize(&tokens)
            });
            let pin = server.read(|session| {
                let started = Instant::now();
                session.parse_in(&mut ctx, &tokens);
                started.elapsed().as_secs_f64() * 1e6
            });
            report.check(
                first == expected && second == expected && recognized == expected,
                "in_process_answer",
            );
            replay.lazy.push(pp1 - pp2);
            replay.forest.push(pp2 - rec);
            replay.overhead.push(pp2 - pin);
            replay.recognize.push(rec);
        }
        tracer.close(span);
        registry.after_request(wide);
        ops += 1;
        if ops.is_multiple_of(ATTACH_EVERY as u64) && attached < work.variants.len() {
            let v = &work.variants[attached];
            let (built, ms) = tracer.time("grammar.from_bnf", ops, None, || {
                IpgServer::from_bnf(&v.bnf)
            });
            let built = built.map_err(|e| e.to_string())?;
            let (id, us) = tracer.time("registry.attach", ops, None, || {
                registry.attach(&format!("v{attached}"), built)
            });
            let id = id.map_err(|e| e.to_string())?;
            let tenant = registry.server(id).ok_or("the variant is attached")?;
            let parsed = tenant
                .parse_sentence(&v.sentence)
                .map_err(|e| e.to_string())?;
            registry.after_request(id);
            report.check(parsed.accepted == v.expected, "in_process_first_parse");
            replay.bnf_ms.push(ms / 1e3);
            replay.attach_us.push(us);
            attached += 1;
        }
    }
    let d = delta(&server, &before);
    let edits = 2.0 * ops as f64;
    report.note("samples.replay_ops", ops.to_string());
    report.metric("server.publish_us", median(&mut replay.publish));
    report.metric(
        "server.chunks_cowed_per_edit",
        ratio(d.chunks_cowed as f64, edits),
    );
    report.metric("server.serve_overhead_us", median(&mut replay.overhead));
    report.metric(
        "server.ctx_reuse_frac",
        ratio(d.ctx_reused as f64, (d.ctx_reused + d.ctx_fresh) as f64),
    );
    report.metric("glr.recognize_us", median(&mut replay.recognize));
    report.metric("glr.forest_us", median(&mut replay.forest));
    report.metric("graph.lazy_us", median(&mut replay.lazy));
    report.metric(
        "graph.expansions_per_op",
        ratio(d.total_expansions() as f64, ops as f64),
    );
    report.metric(
        "graph.re_expansions_per_edit",
        ratio(d.re_expansions as f64, edits),
    );
    report.metric(
        "graph.invalidations_per_edit",
        ratio(d.invalidations as f64, edits),
    );
    report.metric(
        "graph.rows_built_per_op",
        ratio(d.rows_built as f64, ops as f64),
    );
    report.note("samples.grammar.bnf_ms", replay.bnf_ms.len().to_string());
    report.metric("grammar.bnf_ms", median(&mut replay.bnf_ms));
    report.metric("registry.attach_us", median(&mut replay.attach_us));

    // Counting pass: one warm parse per base sentence.
    let (mut nodes, mut reductions, mut actions, mut tokens_total) = (0.0, 0.0, 0.0, 0.0);
    for sentence in &sentences {
        let tokens = server.tokens(sentence).map_err(|e| e.to_string())?;
        drop(server.parse_pooled(&tokens));
        let before = server.stats().merged();
        let parsed = server.parse_pooled(&tokens);
        let stats = parsed.stats();
        drop(parsed);
        nodes += stats.nodes as f64;
        reductions += stats.reductions as f64;
        actions += delta(&server, &before).action_calls as f64;
        tokens_total += tokens.len() as f64;
    }
    report.metric("glr.gss_nodes_per_token", nodes / tokens_total);
    report.metric("glr.reductions_per_token", reductions / tokens_total);
    report.metric("glr.action_calls_per_token", actions / tokens_total);

    idle_layers(
        &mut report,
        &[
            "server.parse_text_us",
            "lexer.scan_us",
            "lexer.dense_frac",
            "lexer.tokens_relexed_per_edit",
            "document.edit_us",
            "document.incremental_frac",
            "document.states_rerun_per_edit",
        ],
    );
    write_spans(&mut report, options, &tracer)?;
    finish(&mut report, served)?;
    Ok(report)
}
