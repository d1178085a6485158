//! `doc-keystroke`: incremental re-parse of one large open document. A
//! closed loop sends seeded `PARSE-DELTA` edits to a single ~176 KB SDF
//! module: token-identical renames inside sort names and literals, and
//! whole production lines inserted or deleted, near a drifting cursor
//! with occasional jumps (to the front, or anywhere). Bounded relex and
//! GSS resume in `core::document` do the work; lazy generation and the
//! registry stay idle.

use std::time::Instant;

use ipg::{IpgServer, IpgSession};
use ipg_frontend::protocol::{parse_delta_payload, Status, Verb};
use ipg_frontend::Client;
use ipg_glr::ParseCtx;
use ipg_sdf::fixtures::sdf_grammar_and_scanner;
use ipg_sdf::NormalizedSdf;

use crate::gen::{document, edit_script, text_after, Edit};
use crate::layers::{
    delta, finish, idle_layers, normalize_ms, parse_ok, percentiles, ping_rtt_us, ratio, set_up,
    write_spans, Served, P99_WINDOW, SETUP_RUNS, TRACED_SETUP_RUNS,
};
use crate::oracle::sdf_accepts;
use crate::rng::Rng;
use crate::stats::{median, Percentiles};
use crate::steal::{Latencies, Sample, StealLog};
use crate::trace::Tracer;
use crate::wire::Conn;
use crate::{Options, Report};

/// Size of the document, bytes.
pub const DOC_BYTES: usize = 176_000;
/// Seeded edits per script; the script is these plus their inverses.
const FORWARD_EDITS: usize = 2_000;
/// `slo_rps`: an edit answered within this limit counts, µs.
pub const EDIT_LIMIT_US: f64 = 50_000.0;

struct Workload {
    sdf: NormalizedSdf,
    initial: String,
    expected_initial: bool,
    scripts: [Vec<Edit>; 2],
}

fn generate(seed: u64) -> Result<Workload, String> {
    let rng = Rng::new(seed);
    let initial = document(&mut rng.fork(1), DOC_BYTES);
    let scripts = [
        edit_script(&mut rng.fork(2), &initial, FORWARD_EDITS),
        edit_script(&mut rng.fork(3), &initial, FORWARD_EDITS),
    ];
    let sdf = sdf_grammar_and_scanner();
    let expected_initial = sdf_accepts(&sdf, &initial)?;
    Ok(Workload {
        sdf,
        initial,
        expected_initial,
        scripts,
    })
}

/// One closed-loop connection editing its own document.
struct Editor<'t, 'w> {
    conn: Conn<'t>,
    doc: u64,
    script: &'w [Edit],
    applied: usize,
    last_accepted: bool,
}

impl Editor<'_, '_> {
    /// Sends the script's next edit; its latency (µs) if answered `OK` with
    /// the document still a sentence (every edit keeps it one; the final
    /// text is checked against Earley).
    fn edit(&mut self, report: &mut Report) -> Result<Option<Sample>, String> {
        let edit = &self.script[self.applied % self.script.len()];
        let payload = parse_delta_payload(
            self.doc,
            edit.start as u32,
            edit.end as u32,
            edit.text.as_bytes(),
        );
        let (response, sample) = self.conn.timed(Verb::ParseDelta, &payload)?;
        self.applied += 1;
        let outcome = response.parse_outcome();
        self.last_accepted = outcome.is_some_and(|(accepted, _)| accepted);
        let ok = parse_ok(response.status, outcome, true);
        report.check(ok, "parse_delta_reply");
        Ok(ok.then_some(sample))
    }

    /// Edits for `seconds`; returns the samples and the steal log.
    fn pass(
        &mut self,
        report: &mut Report,
        seconds: f64,
        mut tracer: Option<&mut Tracer>,
    ) -> Result<(Vec<Sample>, StealLog), String> {
        let started = Instant::now();
        let mut samples = Vec::new();
        let mut log = StealLog::start();
        while started.elapsed().as_secs_f64() < seconds {
            let sample = self.edit(report)?;
            if let (Some(tracer), Some(s)) = (tracer.as_deref_mut(), sample) {
                tracer.record(
                    "wire.parse_delta",
                    self.applied as u64,
                    None,
                    s.start,
                    s.end(),
                );
            }
            samples.extend(sample);
            log.tick();
        }
        log.finish();
        Ok((samples, log))
    }

    /// Checks the document's final text with Earley.
    fn check_final(&self, report: &mut Report, work: &Workload) -> Result<(), String> {
        let text = text_after(&work.initial, self.script, self.applied);
        let expected = sdf_accepts(&work.sdf, &text)?;
        report.check(
            expected && self.last_accepted == expected,
            "final_text_oracle",
        );
        Ok(())
    }
}

fn open<'t, 'w>(
    report: &mut Report,
    mut conn: Conn<'t>,
    work: &'w Workload,
    script: usize,
) -> Result<(Editor<'t, 'w>, f64), String> {
    let (response, us) = conn.call(Verb::OpenDoc, work.initial.as_bytes())?;
    let (doc, accepted, _) = Client::open_doc_outcome(&response)
        .ok_or_else(|| format!("OPEN-DOC failed: {:?}", response.status))?;
    report.check(accepted == work.expected_initial, "open_doc_reply");
    let editor = Editor {
        conn,
        doc,
        script: &work.scripts[script],
        applied: 0,
        last_accepted: accepted,
    };
    Ok((editor, us))
}

/// Spawn → `OPEN-DOC` answered. `first_parse_ms` is the `OPEN-DOC` reply
/// time: a full lex and parse of the document on a fresh server.
fn set_up_server(
    report: &mut Report,
    runs: usize,
    work: &Workload,
) -> Result<(Served<()>, Vec<f64>), String> {
    set_up(report, runs, 0, |report, proc, tally, started| {
        let conn = Conn::connect(proc.addr, tally)?;
        let (mut editor, us) = open(report, conn, work, 0)?;
        let ready_s = started.elapsed().as_secs_f64();
        // The measuring editors open their own documents.
        let (response, _) = editor
            .conn
            .call(Verb::CloseDoc, &editor.doc.to_le_bytes())?;
        report.check(response.status == Status::Ok, "close_doc_reply");
        Ok(((), ready_s, Some(us / 1e3)))
    })
}

/// Both editors run concurrently for `seconds`; returns their latencies
/// and the elapsed time.
fn peak_pass<'t, 'w>(
    report: &mut Report,
    editors: [&mut Editor<'t, 'w>; 2],
    seconds: f64,
) -> Result<(Latencies, Latencies), String> {
    let [e0, e1] = editors;
    let results = std::thread::scope(|scope| {
        let second = scope.spawn(move || {
            let mut report = Report::default();
            e1.pass(&mut report, seconds, None).map(|s| (report, s))
        });
        let mut own = Report::default();
        let first = e0.pass(&mut own, seconds, None).map(|s| (own, s));
        [
            first,
            second.join().expect("the second connection does not panic"),
        ]
    });
    let (mut all, mut within) = (Latencies::default(), Latencies::default());
    for result in results {
        let (other, (samples, log)) = result?;
        report.absorb(other);
        all.add(&samples, &log, 1.0);
        let good: Vec<Sample> = samples
            .into_iter()
            .filter(|s| s.us <= EDIT_LIMIT_US)
            .collect();
        within.add(&good, &log, 1.0);
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
    let (served, mut first_ms) = set_up_server(&mut report, SETUP_RUNS, &work)?;
    report.metric("first_parse_ms", median(&mut first_ms));
    report.note("doc_bytes", work.initial.len().to_string());
    {
        let (mut e0, _) = open(
            &mut report,
            Conn::connect(served.proc.addr, &served.tally)?,
            &work,
            0,
        )?;
        let (mut e1, _) = open(
            &mut report,
            Conn::connect(served.proc.addr, &served.tally)?,
            &work,
            1,
        )?;
        let (samples, log) = e0.pass(&mut report, 0.55 * t, None)?;
        let mut latencies = Latencies::default();
        latencies.add(&samples, &log, 1.0);
        report.metric("ops_per_s", latencies.ops_per_s());
        percentiles(&mut report, "p50_us", "p99_us", &latencies);
        let (latencies, within) = peak_pass(&mut report, [&mut e0, &mut e1], 0.45 * t)?;
        percentiles(&mut report, "p50_us.peak", "p99_us.peak", &latencies);
        report.note("slo_edit_limit_us", EDIT_LIMIT_US.to_string());
        report.metric("slo_rps", within.ops_per_s());
        e0.check_final(&mut report, &work)?;
        e1.check_final(&mut report, &work)?;
    }
    finish(&mut report, served)?;
    Ok(report)
}

fn traced(options: &Options, mut report: Report, work: &Workload) -> Result<Report, String> {
    let t = options.seconds;
    let mut tracer = Tracer::new();
    let (served, _) = set_up_server(&mut report, TRACED_SETUP_RUNS, work)?;
    let (mut e0, _) = open(
        &mut report,
        Conn::connect(served.proc.addr, &served.tally)?,
        work,
        0,
    )?;
    let (mut e1, _) = open(
        &mut report,
        Conn::connect(served.proc.addr, &served.tally)?,
        work,
        1,
    )?;
    report.metric("frontend.ping_rtt_us", ping_rtt_us(&mut e0.conn, 200)?);

    // The single-connection pass twice (without, then with spans); it
    // starts at the script's first edit, which the in-process replay
    // repeats, so per-edit wire and in-process times pair up.
    let (untraced, _) = e0.pass(&mut report, 0.2 * t, None)?;
    let untraced: Vec<f64> = untraced.iter().map(|s| s.us).collect();
    let (traced, _) = e0.pass(&mut report, 0.2 * t, Some(&mut tracer))?;
    let traced: Vec<f64> = traced.iter().map(|s| s.us).collect();
    let (u, tr) = (
        Percentiles::windowed(&untraced, P99_WINDOW),
        Percentiles::windowed(&traced, P99_WINDOW),
    );
    report.metric("trace.overhead.p50_us", tr.p50 - u.p50);
    report.metric("trace.overhead.p99_us", tr.p99 - u.p99);
    let (busy, _) = peak_pass(&mut report, [&mut e0, &mut e1], 0.1 * t)?;
    report.metric(
        "frontend.queue_wait_us",
        Percentiles::of(busy.samples().0).p50 - u.p50,
    );
    e0.check_final(&mut report, work)?;
    e1.check_final(&mut report, work)?;

    // In-process replay of the same script.
    report.metric("sdf.normalize_ms", normalize_ms(5));
    let server = IpgServer::new(IpgSession::new(work.sdf.grammar.clone()))
        .with_scanner(work.sdf.scanner.clone());
    let (doc, open_us) = tracer.time("document.open", 0, None, || {
        server.open_document(&work.initial)
    });
    let doc = doc.map_err(|e| e.to_string())?;
    report.note("in_process_open_ms", (open_us / 1e3).to_string());
    let script = &work.scripts[0];
    let before = server.stats().merged();
    let budget = Instant::now();
    let mut edit_us = Vec::new();
    while budget.elapsed().as_secs_f64() < 0.25 * t {
        let n = edit_us.len();
        let edit = &script[n % script.len()];
        let (outcome, us) = tracer.time("document.apply_edit", n as u64, None, || {
            server.apply_edit(doc, edit.start..edit.end, &edit.text)
        });
        report.check(outcome.is_ok_and(|o| o.accepted()), "in_process_edit");
        edit_us.push(us);
    }
    let d = delta(&server, &before);
    let edits = edit_us.len() as f64;
    let paired: Vec<f64> = untraced
        .iter()
        .zip(&edit_us)
        .map(|(wire, own)| wire - own)
        .collect();
    report.note("samples.frontend.self_us", paired.len().to_string());
    report.metric("frontend.self_us", median(&mut paired.clone()));
    report.note("samples.document.edit_us", edit_us.len().to_string());
    report.metric("document.edit_us", median(&mut edit_us));
    report.metric(
        "document.incremental_frac",
        ratio(
            d.reparse_incremental as f64,
            (d.reparse_incremental + d.reparse_full) as f64,
        ),
    );
    report.metric(
        "document.states_rerun_per_edit",
        ratio(d.states_rerun as f64, edits),
    );
    report.metric(
        "lexer.tokens_relexed_per_edit",
        ratio(d.tokens_relexed as f64, edits),
    );
    report.metric(
        "graph.expansions_per_op",
        ratio(d.total_expansions() as f64, edits),
    );
    report.metric("graph.rows_built_per_op", ratio(d.rows_built as f64, edits));

    // The scanner, GSS and serve path on the whole current document.
    let text = server.document_text(doc).map_err(|e| e.to_string())?;
    report.check(
        text == text_after(&work.initial, script, edit_us.len()),
        "in_process_text",
    );
    let epoch = server.current_epoch();
    let scanner = epoch.scanner().ok_or("the SDF server has a scanner")?;
    let mut ctx = ParseCtx::new();
    let before = server.stats().merged();
    // Per round: scan, parse_text, recognize, forest, lazy, serve overhead.
    let mut times: [Vec<f64>; 6] = Default::default();
    let mut counted = (ipg_glr::GssStats::default(), 1.0);
    for round in 0..3u64 {
        let (tokens, scan) = tracer.time("lexer.tokenize_for", round, None, || {
            scanner.tokenize_for(epoch.session().grammar(), &text)
        });
        let tokens = tokens.map_err(|e| e.to_string())?;
        let (parsed, pt) = tracer.time("server.parse_text_pooled", round, None, || {
            server.parse_text_pooled(&text).map(|p| p.accepted())
        });
        let (recognized, rec) =
            tracer.time("glr.recognize", round, None, || server.recognize(&tokens));
        let (first, pp1) = tracer.time("server.parse_pooled", round, None, || {
            let parsed = server.parse_pooled(&tokens);
            (parsed.accepted(), parsed.stats())
        });
        let (_, pp2) = tracer.time("server.parse_pooled.repeat", round, None, || {
            server.parse_pooled(&tokens).accepted()
        });
        let pin = server.read(|session| {
            let started = Instant::now();
            session.parse_in(&mut ctx, &tokens);
            started.elapsed().as_secs_f64() * 1e6
        });
        report.check(
            parsed == Ok(true) && recognized && first.0,
            "in_process_answer",
        );
        for (series, us) in times
            .iter_mut()
            .zip([scan, pt, rec, pp2 - rec, pp1 - pp2, pp2 - pin])
        {
            series.push(us);
        }
        counted = (first.1, tokens.len() as f64);
    }
    let d = delta(&server, &before);
    let [scan, pt, rec, forest, lazy, overhead] = &mut times;
    report.metric("lexer.scan_us", median(scan));
    report.metric("server.parse_text_us", median(pt));
    report.metric("glr.recognize_us", median(rec));
    report.metric("glr.forest_us", median(forest));
    report.metric("graph.lazy_us", median(lazy));
    report.metric("server.serve_overhead_us", median(overhead));
    let (stats, tokens) = counted;
    report.metric("glr.gss_nodes_per_token", stats.nodes as f64 / tokens);
    report.metric("glr.reductions_per_token", stats.reductions as f64 / tokens);
    report.metric(
        "server.ctx_reuse_frac",
        ratio(d.ctx_reused as f64, (d.ctx_reused + d.ctx_fresh) as f64),
    );
    let tokens = scanner
        .tokenize_for(epoch.session().grammar(), &text)
        .map_err(|e| e.to_string())?;
    drop(epoch);
    let before = server.stats().merged();
    drop(server.parse_pooled(&tokens));
    let actions = delta(&server, &before).action_calls as f64;
    report.metric("glr.action_calls_per_token", actions / tokens.len() as f64);
    let before = server.stats().merged();
    drop(server.parse_text_pooled(&text).map_err(|e| e.to_string())?);
    report.metric(
        "lexer.dense_frac",
        delta(&server, &before).dense_bytes as f64 / text.len() as f64,
    );

    idle_layers(
        &mut report,
        &[
            "server.publish_us",
            "server.chunks_cowed_per_edit",
            "graph.re_expansions_per_edit",
            "graph.invalidations_per_edit",
            "registry.attach_us",
            "grammar.bnf_ms",
        ],
    );
    write_spans(&mut report, options, &tracer)?;
    finish(&mut report, served)?;
    Ok(report)
}
