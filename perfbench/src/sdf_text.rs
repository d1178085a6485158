//! `sdf-text`: the parse-service read path. An open loop sends
//! `PARSE-TEXT` requests carrying the four Fig. 7.1 SDF inputs to the
//! default tenant at Poisson arrivals of two fixed rates, then searches a
//! fixed rate grid for the highest rate meeting the p99 limit. After the
//! warm-up the lazy tables are fully hit, so the frontend, scanner and GSS
//! do the work while graph, document and registry stay idle.

use std::time::{Duration, Instant};

use ipg::{IpgServer, IpgSession};
use ipg_frontend::protocol::{Status, Verb};
use ipg_glr::ParseCtx;
use ipg_sdf::fixtures::sdf_grammar_and_scanner;

use crate::gen::{poisson, sdf_inputs, Arrival};
use crate::layers::{
    delta, finish, idle_layers, normalize_ms, parse_ok, percentiles, ping_rtt_us, ratio, set_up,
    write_spans, P99_WINDOW, SETUP_RUNS, TRACED_SETUP_RUNS,
};
use crate::oracle::sdf_accepts;
use crate::rng::Rng;
use crate::serve::ServerProc;
use crate::stats::{median, Percentiles};
use crate::steal::{Latencies, StealLog};
use crate::trace::Tracer;
use crate::wire::{open_loop, Conn, OpenReply, Tally};
use crate::{Options, Report};

/// Offered load of the `p50_us`/`p99_us` phase, requests per second.
pub const NOMINAL_RPS: f64 = 1_000.0;
/// Offered load of the `p50_us.peak`/`p99_us.peak` phase.
pub const PEAK_RPS: f64 = 2_500.0;
/// `slo_rps`: the p99 limit a grid rate must meet, µs.
pub const SLO_P99_US: f64 = 20_000.0;
/// `slo_rps`: the fixed rate grid, `SLO_GRID_FROM · SLO_GRID_STEP^k` for
/// `k < SLO_GRID_POINTS` (rounded), searched by bisection.
pub const SLO_GRID_FROM: f64 = 1_000.0;
pub const SLO_GRID_STEP: f64 = 1.05;
pub const SLO_GRID_POINTS: usize = 43;

fn slo_grid() -> Vec<f64> {
    (0..SLO_GRID_POINTS)
        .map(|k| (SLO_GRID_FROM * SLO_GRID_STEP.powi(k as i32)).round())
        .collect()
}
/// Untimed closed-loop requests per input before measuring.
const WARM_ROUNDS: usize = 20;

struct Inputs {
    texts: Vec<&'static str>,
    expected: Vec<bool>,
}

fn inputs() -> Result<Inputs, String> {
    let sdf = sdf_grammar_and_scanner();
    let texts: Vec<&'static str> = sdf_inputs().into_iter().map(|(_, text)| text).collect();
    let expected = texts
        .iter()
        .map(|text| sdf_accepts(&sdf, text))
        .collect::<Result<_, _>>()?;
    Ok(Inputs { texts, expected })
}

/// Checks an open loop's replies; returns the latencies of the `OK` ones.
fn check_replies(
    report: &mut Report,
    schedule: &[Arrival],
    (replies, log): &(Vec<OpenReply>, StealLog),
    inputs: &Inputs,
    version: u64,
) -> Latencies {
    let mut samples = Vec::with_capacity(replies.len());
    for (arrival, reply) in schedule.iter().zip(replies) {
        let ok = parse_ok(reply.status, reply.outcome, inputs.expected[arrival.input])
            && reply.outcome.map(|(_, v)| v) == Some(version);
        report.check(ok, "parse_text_reply");
        if reply.status == Status::Ok {
            samples.push(reply.sample());
        }
    }
    let mut latencies = Latencies::default();
    latencies.add(&samples, log, 1.0);
    latencies
}

/// Spawn → listening, then the first `PARSE-TEXT` (the largest input, on
/// cold lazy tables) and the warm-up. Returns the grammar version.
fn set_up_server(
    report: &mut Report,
    runs: usize,
    inputs: &Inputs,
) -> Result<(crate::layers::Served<u64>, Vec<f64>), String> {
    set_up(
        report,
        runs,
        0,
        |report, proc: &ServerProc, tally: &Tally, started| {
            let ready_s = started.elapsed().as_secs_f64();
            let mut conn = Conn::connect(proc.addr, tally)?;
            let last = inputs.texts.len() - 1;
            let (response, us) = conn.call(Verb::ParseText, inputs.texts[last].as_bytes())?;
            let outcome = response.parse_outcome();
            report.check(
                parse_ok(response.status, outcome, inputs.expected[last]),
                "first_parse_reply",
            );
            let version = outcome.map_or(0, |(_, v)| v);
            for _ in 0..WARM_ROUNDS {
                for (text, &expected) in inputs.texts.iter().zip(&inputs.expected) {
                    let (response, _) = conn.call(Verb::ParseText, text.as_bytes())?;
                    report.check(
                        parse_ok(response.status, response.parse_outcome(), expected),
                        "warm_up_reply",
                    );
                }
            }
            Ok((version, ready_s, Some(us / 1e3)))
        },
    )
}

/// One probe of the SLO search: does `rate` meet the p99 limit (the median
/// p99 of the probe's four quarters) with every request answered `OK` and
/// no growing backlog (the last quarter's median within half the limit of
/// the first quarter's)? Latencies as in [`Latencies`].
fn probe(
    report: &mut Report,
    proc: &ServerProc,
    tally: &Tally,
    schedule: &[Arrival],
    inputs: &Inputs,
    version: u64,
) -> Result<bool, String> {
    let (replies, log) = open_loop(proc.addr, schedule, &inputs.texts, tally)?;
    let mut all_ok = true;
    for (arrival, reply) in schedule.iter().zip(&replies) {
        // Shedding is a miss of the limit, not a wrong answer.
        if reply.status != Status::Overloaded {
            let ok = parse_ok(reply.status, reply.outcome, inputs.expected[arrival.input])
                && reply.outcome.map(|(_, v)| v) == Some(version);
            report.check(ok, "slo_probe_reply");
        }
        all_ok &= reply.status == Status::Ok;
    }
    let mut kept = Latencies::default();
    kept.add(
        &replies.iter().map(OpenReply::sample).collect::<Vec<_>>(),
        &log,
        1.0,
    );
    let latencies = kept.samples().0;
    let quarter = latencies.len() / 4;
    let first = Percentiles::of(&latencies[..quarter]).p50;
    let last = Percentiles::of(&latencies[latencies.len() - quarter..]).p50;
    Ok(all_ok
        && Percentiles::windowed(latencies, quarter).p99 <= SLO_P99_US
        && last <= first + SLO_P99_US / 2.0)
}

pub fn run(options: &Options) -> Result<Report, String> {
    let mut report = Report::default();
    let inputs = inputs()?;
    let rng = Rng::new(options.seed);
    if options.trace {
        return traced(options, report, &inputs, &rng);
    }
    let t = options.seconds;
    let nominal = poisson(&mut rng.fork(1), NOMINAL_RPS, 0.3 * t, inputs.texts.len());
    let peak = poisson(&mut rng.fork(2), PEAK_RPS, 0.15 * t, inputs.texts.len());
    let probe_seconds = 0.09 * t;
    let grid = slo_grid();
    let probes: Vec<Vec<Arrival>> = grid
        .iter()
        .enumerate()
        .map(|(i, &rate)| {
            poisson(
                &mut rng.fork(100 + i as u64),
                rate,
                probe_seconds,
                inputs.texts.len(),
            )
        })
        .collect();

    let (served, mut first_ms) = set_up_server(&mut report, SETUP_RUNS, &inputs)?;
    let version = served.state;
    report.metric("first_parse_ms", median(&mut first_ms));

    let replies = open_loop(served.proc.addr, &nominal, &inputs.texts, &served.tally)?;
    let latencies = check_replies(&mut report, &nominal, &replies, &inputs, version);
    percentiles(&mut report, "p50_us", "p99_us", &latencies);
    report.metric("ops_per_s", latencies.ops_per_s());
    let mut lags: Vec<f64> = replies.0.iter().map(|r| r.lag_us).collect();
    let lag = Percentiles::of(&lags);
    report.note("generator_lag_p50_us", lag.p50.to_string());
    report.note("generator_lag_p99_us", lag.p99.to_string());
    report.note(
        "generator_lag_max_us",
        crate::stats::quantile(&mut lags, 1.0).to_string(),
    );

    let replies = open_loop(served.proc.addr, &peak, &inputs.texts, &served.tally)?;
    let latencies = check_replies(&mut report, &peak, &replies, &inputs, version);
    percentiles(&mut report, "p50_us.peak", "p99_us.peak", &latencies);
    let lags: Vec<f64> = replies.0.iter().map(|r| r.lag_us).collect();
    report.note(
        "generator_lag_p99_us.peak",
        Percentiles::of(&lags).p99.to_string(),
    );

    // Bisection over the grid for the highest rate that meets the limit.
    let (mut lo, mut hi) = (0usize, grid.len());
    let mut probed = Vec::new();
    while lo < hi {
        let mid = (lo + hi) / 2;
        let meets = probe(
            &mut report,
            &served.proc,
            &served.tally,
            &probes[mid],
            &inputs,
            version,
        )?;
        probed.push(format!("[{}, {meets}]", grid[mid]));
        if meets {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    report.note("slo_probes", format!("[{}]", probed.join(", ")));
    report.note("slo_p99_limit_us", SLO_P99_US.to_string());
    // `lo` is the first failing index; 0 means even the lowest rate missed.
    report.metric("slo_rps", if lo == 0 { 0.0 } else { grid[lo - 1] });
    finish(&mut report, served)?;
    Ok(report)
}

/// Per-op timings of the in-process replay, µs.
#[derive(Default)]
struct Replay {
    parse_text: Vec<Vec<f64>>,
    scan: Vec<f64>,
    recognize: Vec<f64>,
    forest: Vec<f64>,
    overhead: Vec<f64>,
    lazy: Vec<f64>,
}

fn traced(
    options: &Options,
    mut report: Report,
    inputs: &Inputs,
    rng: &Rng,
) -> Result<Report, String> {
    let t = options.seconds;
    let n = inputs.texts.len();
    let nominal = poisson(&mut rng.fork(1), NOMINAL_RPS, 0.25 * t, n);
    let mut tracer = Tracer::new();
    let (served, _) = set_up_server(&mut report, TRACED_SETUP_RUNS, inputs)?;
    let version = served.state;

    // Idle wire latency per input (closed loop, one request in flight).
    let mut conn = Conn::connect(served.proc.addr, &served.tally)?;
    report.metric("frontend.ping_rtt_us", ping_rtt_us(&mut conn, 200)?);
    let mut idle_us = vec![Vec::new(); n];
    for round in 0..50 {
        for (i, text) in inputs.texts.iter().enumerate() {
            let (response, us) = conn.call(Verb::ParseText, text.as_bytes())?;
            let end = Instant::now();
            report.check(
                parse_ok(
                    response.status,
                    response.parse_outcome(),
                    inputs.expected[i],
                ),
                "idle_reply",
            );
            tracer.record(
                "wire.parse_text.idle",
                round,
                None,
                end - Duration::from_secs_f64(us / 1e6),
                end,
            );
            idle_us[i].push(us);
        }
    }
    let idle: Vec<f64> = idle_us.iter_mut().map(|v| median(v)).collect();
    drop(conn);

    // The nominal phase twice: without spans, then with one per request.
    let replies = open_loop(served.proc.addr, &nominal, &inputs.texts, &served.tally)?;
    let untraced = check_replies(&mut report, &nominal, &replies, inputs, version);
    let untraced = Percentiles::windowed(untraced.samples().0, P99_WINDOW);
    let replies = open_loop(served.proc.addr, &nominal, &inputs.texts, &served.tally)?;
    for (i, reply) in replies.0.iter().enumerate() {
        let sample = reply.sample();
        tracer.record(
            "wire.parse_text",
            i as u64,
            None,
            sample.start,
            sample.end(),
        );
    }
    let traced = check_replies(&mut report, &nominal, &replies, inputs, version);
    let traced = Percentiles::windowed(traced.samples().0, P99_WINDOW);
    report.metric("trace.overhead.p50_us", traced.p50 - untraced.p50);
    report.metric("trace.overhead.p99_us", traced.p99 - untraced.p99);
    // Queue wait: wire latency at the nominal rate minus idle, per input.
    let mut at_rate = vec![Vec::new(); n];
    for (arrival, reply) in nominal.iter().zip(&replies.0) {
        at_rate[arrival.input].push(reply.latency_us);
    }
    let weights: Vec<f64> = at_rate
        .iter()
        .map(|v| v.len() as f64 / nominal.len() as f64)
        .collect();
    let queue_wait: f64 = (0..n)
        .map(|i| weights[i] * (median(&mut at_rate[i]) - idle[i]))
        .sum();
    report.metric("frontend.queue_wait_us", queue_wait);

    // In-process replay of the same request sequence through the layers'
    // public calls.
    report.metric("sdf.normalize_ms", normalize_ms(5));
    let sdf = sdf_grammar_and_scanner();
    let server =
        IpgServer::new(IpgSession::new(sdf.grammar.clone())).with_scanner(sdf.scanner.clone());
    let tokens: Vec<Vec<_>> = inputs
        .texts
        .iter()
        .map(|text| {
            sdf.scanner
                .tokenize_for(&sdf.grammar, text)
                .map_err(|e| e.to_string())
        })
        .collect::<Result<_, _>>()?;
    for _ in 0..WARM_ROUNDS {
        for text in &inputs.texts {
            drop(server.parse_text_pooled(text).map_err(|e| e.to_string())?);
        }
    }
    let mut replay = Replay {
        parse_text: vec![Vec::new(); n],
        ..Replay::default()
    };
    let mut ctx = ParseCtx::new();
    let before = server.stats().merged();
    let budget = Instant::now();
    let mut ops = 0u64;
    for arrival in nominal.iter().cycle() {
        if budget.elapsed().as_secs_f64() > 0.35 * t {
            break;
        }
        let i = arrival.input;
        let op = tracer.open("op.parse_text", ops, None);
        let (parsed, pt) = tracer.time("server.parse_text_pooled", ops, Some(op), || {
            server
                .parse_text_pooled(inputs.texts[i])
                .map(|p| p.accepted())
        });
        let epoch = server.current_epoch();
        let scanner = epoch.scanner().ok_or("the SDF server has a scanner")?;
        let (scanned, scan) = tracer.time("lexer.tokenize_for", ops, Some(op), || {
            scanner.tokenize_for(epoch.session().grammar(), inputs.texts[i])
        });
        drop(epoch);
        let (recognized, rec) = tracer.time("glr.recognize", ops, Some(op), || {
            server.recognize(&tokens[i])
        });
        let (first, pp1) = tracer.time("server.parse_pooled", ops, Some(op), || {
            server.parse_pooled(&tokens[i]).accepted()
        });
        let (second, pp2) = tracer.time("server.parse_pooled.repeat", ops, Some(op), || {
            server.parse_pooled(&tokens[i]).accepted()
        });
        let pin = server.read(|session| {
            let started = Instant::now();
            session.parse_in(&mut ctx, &tokens[i]);
            started.elapsed().as_secs_f64() * 1e6
        });
        tracer.close(op);
        let expected = inputs.expected[i];
        report.check(
            parsed == Ok(expected)
                && scanned.as_deref() == Ok(&tokens[i][..])
                && recognized == expected
                && first == expected
                && second == expected,
            "in_process_answer",
        );
        replay.parse_text[i].push(pt);
        replay.scan.push(scan);
        replay.recognize.push(rec);
        replay.forest.push(pp2 - rec);
        replay.overhead.push(pp2 - pin);
        replay.lazy.push(pp1 - pp2);
        ops += 1;
    }
    let d = delta(&server, &before);
    report.note("samples.replay_ops", ops.to_string());
    let in_process: Vec<f64> = replay.parse_text.iter_mut().map(|v| median(v)).collect();
    let all_pt: Vec<f64> = replay.parse_text.concat();
    report.metric("server.parse_text_us", median(&mut all_pt.clone()));
    report.metric(
        "frontend.self_us",
        (0..n).map(|i| weights[i] * (idle[i] - in_process[i])).sum(),
    );
    report.metric("server.serve_overhead_us", median(&mut replay.overhead));
    report.metric(
        "server.ctx_reuse_frac",
        ratio(d.ctx_reused as f64, (d.ctx_reused + d.ctx_fresh) as f64),
    );
    report.metric("lexer.scan_us", median(&mut replay.scan));
    report.metric("glr.recognize_us", median(&mut replay.recognize));
    report.metric("glr.forest_us", median(&mut replay.forest));
    report.metric("graph.lazy_us", median(&mut replay.lazy));
    report.metric(
        "graph.expansions_per_op",
        ratio(d.total_expansions() as f64, ops as f64),
    );
    report.metric(
        "graph.rows_built_per_op",
        ratio(d.rows_built as f64, ops as f64),
    );

    // Counting pass: one parse per input, weighted like the sequence.
    let (mut nodes, mut reductions, mut actions, mut dense) = (0.0, 0.0, 0.0, 0.0);
    for i in 0..n {
        let before = server.stats().merged();
        let parsed = server.parse_pooled(&tokens[i]);
        let stats = parsed.stats();
        drop(parsed);
        let d = delta(&server, &before);
        let per_token = |x: usize| weights[i] * x as f64 / tokens[i].len() as f64;
        nodes += per_token(stats.nodes);
        reductions += per_token(stats.reductions);
        actions += per_token(d.action_calls);
        let before = server.stats().merged();
        drop(
            server
                .parse_text_pooled(inputs.texts[i])
                .map_err(|e| e.to_string())?,
        );
        let d = delta(&server, &before);
        dense += weights[i] * d.dense_bytes as f64 / inputs.texts[i].len() as f64;
    }
    report.metric("glr.gss_nodes_per_token", nodes);
    report.metric("glr.reductions_per_token", reductions);
    report.metric("glr.action_calls_per_token", actions);
    report.metric("lexer.dense_frac", dense);

    idle_layers(
        &mut report,
        &[
            "server.publish_us",
            "server.chunks_cowed_per_edit",
            "lexer.tokens_relexed_per_edit",
            "graph.re_expansions_per_edit",
            "graph.invalidations_per_edit",
            "document.edit_us",
            "document.incremental_frac",
            "document.states_rerun_per_edit",
            "registry.attach_us",
            "grammar.bnf_ms",
        ],
    );
    write_spans(&mut report, options, &tracer)?;
    finish(&mut report, served)?;
    Ok(report)
}
