//! Pieces shared by the three workloads: the set-up loop, the end-of-run
//! STATS cross-checks, and the per-layer helpers of the traced run.

use std::time::Instant;

use ipg::{GenStats, IpgServer};
use ipg_frontend::protocol::{Status, Verb};
use ipg_sdf::fixtures::sdf_grammar_and_scanner;

use crate::serve::ServerProc;
use crate::stats::{median, Percentiles};
use crate::steal::Latencies;
use crate::wire::{stats_value, Conn, Tally};
use crate::Report;

/// Set-ups per untraced run; `setup_s` and `first_parse_ms` are medians.
pub const SETUP_RUNS: usize = 9;

/// Set-ups per traced run (only the per-layer numbers are reported).
pub const TRACED_SETUP_RUNS: usize = 1;

/// A serving process brought up for a workload, with its reply tally.
pub struct Served<S> {
    pub proc: ServerProc,
    pub tally: Tally,
    pub state: S,
}

/// Brings the server up `runs` times, keeps the last one and records the
/// median `setup_s`. `setup` gets the spawn instant and returns its state,
/// its set-up time (spawn until ready for the first timed op, seconds) and,
/// when it measures one, a first-parse time (ms); those are returned.
pub fn set_up<S>(
    report: &mut Report,
    runs: usize,
    registry_budget: usize,
    mut setup: impl FnMut(
        &mut Report,
        &ServerProc,
        &Tally,
        Instant,
    ) -> Result<(S, f64, Option<f64>), String>,
) -> Result<(Served<S>, Vec<f64>), String> {
    let mut setup_s = Vec::new();
    let mut first_ms = Vec::new();
    let mut kept = None;
    for i in 0..runs {
        let started = Instant::now();
        let proc = ServerProc::spawn(registry_budget)?;
        let tally = Tally::default();
        let (state, ready_s, first) = setup(report, &proc, &tally, started)?;
        setup_s.push(ready_s);
        first_ms.extend(first);
        if i + 1 == runs {
            kept = Some(Served { proc, tally, state });
        } else {
            proc.stop()?;
        }
    }
    report.note("setup_runs", setup_s.len().to_string());
    report.metric("setup_s", median(&mut setup_s));
    Ok((kept.expect("runs >= 1"), first_ms))
}

/// End-of-run checks and metrics from the server's own counters:
/// - the client's reply tally equals STATS `frontend.requests`,
///   `frontend.shed_overload` and, for the default tenant, `server.parses`
///   (a mismatch is a failed check);
/// - STATS `server` counts only the default tenant, so the parses other
///   tenants served are missing from it: reported as `stats_server_gap`;
/// - peak RSS of the serving process, and the per-layer numbers STATS
///   gives (queue, shedding, registry residency).
pub fn finish<S>(report: &mut Report, served: Served<S>) -> Result<(), String> {
    let mut conn = Conn::connect(served.proc.addr, &served.tally)?;
    let json = conn.stats()?;
    let executed = Tally::get(&served.tally.executed) as f64;
    let overloaded = Tally::get(&served.tally.overloaded) as f64;
    let requests = stats_value(&json, "frontend.requests")?;
    let shed = stats_value(&json, "frontend.shed_overload")?;
    report.check(requests == executed, "stats_requests_mismatch");
    report.check(shed == overloaded, "stats_shed_mismatch");
    let server_parses = stats_value(&json, "server.parses")?;
    let default_parses = Tally::get(&served.tally.default_parses) as f64;
    let all_parses = Tally::get(&served.tally.parses) as f64;
    report.check(server_parses == default_parses, "stats_parses_mismatch");
    report.note(
        "stats_tally",
        format!(
            "{{\"client_executed\": {executed}, \"stats_requests\": {requests}, \
             \"client_overloaded\": {overloaded}, \"stats_shed_overload\": {shed}, \
             \"client_parses_all_tenants\": {all_parses}, \
             \"client_parses_default_tenant\": {default_parses}, \
             \"stats_server_parses\": {server_parses}}}"
        ),
    );
    report.note("stats_server_gap", (all_parses - server_parses).to_string());
    report.metric("rss_peak_mib", served.proc.peak_rss_mib()?);
    for (metric, path) in [
        ("frontend.shed_overload", "frontend.shed_overload"),
        ("frontend.queue_high_water", "queue_high_water"),
        ("registry.resident_bytes", "registry.resident_bytes"),
        ("registry.chunks_relazified", "registry.chunks_relazified"),
    ] {
        report.metric(metric, stats_value(&json, path)?);
    }
    drop(conn);
    served.proc.stop()
}

/// One `OK` reply with a parse outcome matching `expected`.
pub fn parse_ok(status: Status, outcome: Option<(bool, u64)>, expected: bool) -> bool {
    status == Status::Ok && outcome.is_some_and(|(accepted, _)| accepted == expected)
}

/// Median idle round trip of `PING`, µs.
pub fn ping_rtt_us(conn: &mut Conn<'_>, rounds: usize) -> Result<f64, String> {
    let mut rtts = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let (response, us) = conn.call(Verb::Ping, &[])?;
        if response.status != Status::Ok {
            return Err("PING was not answered OK".to_owned());
        }
        rtts.push(us);
    }
    Ok(median(&mut rtts))
}

/// `sdf.normalize_ms`: median time of `sdf_grammar_and_scanner` (parse
/// and normalise the SDF definition of SDF), in process.
pub fn normalize_ms(rounds: usize) -> f64 {
    let mut ms: Vec<f64> = (0..rounds)
        .map(|_| {
            let started = Instant::now();
            std::hint::black_box(sdf_grammar_and_scanner());
            started.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&mut ms)
}

/// Counter deltas of a server between two snapshots.
pub fn delta(server: &IpgServer, before: &GenStats) -> GenStats {
    let after = server.stats().merged();
    GenStats {
        expansions: after.expansions - before.expansions,
        re_expansions: after.re_expansions - before.re_expansions,
        invalidations: after.invalidations - before.invalidations,
        rows_built: after.rows_built - before.rows_built,
        action_calls: after.action_calls - before.action_calls,
        chunks_cowed: after.chunks_cowed - before.chunks_cowed,
        ctx_reused: after.ctx_reused - before.ctx_reused,
        ctx_fresh: after.ctx_fresh - before.ctx_fresh,
        dense_bytes: after.dense_bytes - before.dense_bytes,
        reparse_incremental: after.reparse_incremental - before.reparse_incremental,
        reparse_full: after.reparse_full - before.reparse_full,
        tokens_relexed: after.tokens_relexed - before.tokens_relexed,
        states_rerun: after.states_rerun - before.states_rerun,
        ..GenStats::default()
    }
}

/// `a / b`, 0 when nothing was counted.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Samples per window of a reported p99: ten beyond it in every window.
pub const P99_WINDOW: usize = 1_000;

/// Records p50/p99 metrics of a phase's latencies (see [`Latencies`] for
/// which samples count), with their sample and window counts.
pub fn percentiles(
    report: &mut Report,
    p50: &'static str,
    p99: &'static str,
    latencies: &Latencies,
) {
    let (samples, clean) = latencies.samples();
    let p = Percentiles::windowed(samples, P99_WINDOW);
    report.metric(p50, p.p50);
    report.metric(p99, p.p99);
    report.note(format!("samples.{p50}"), p.count.to_string());
    report.note(format!("samples.{p99}"), p.count.to_string());
    report.note(format!("windows.{p99}"), p.windows.to_string());
    let (kept, all) = latencies.counts();
    report.note(
        format!("steal_filter.{p50}"),
        format!("{{\"clean\": {kept}, \"all\": {all}, \"used_clean\": {clean}}}"),
    );
}

/// The per-layer metrics no part of this workload exercises: measured as
/// zero work, with zero samples.
pub fn idle_layers(report: &mut Report, names: &[&'static str]) {
    for name in names {
        report.metric(name, 0.0);
        report.note(format!("samples.{name}"), "0");
    }
}

/// Writes the spans and reports the self time per span name.
pub fn write_spans(
    report: &mut Report,
    options: &crate::Options,
    tracer: &crate::trace::Tracer,
) -> Result<(), String> {
    std::fs::create_dir_all(&options.out)
        .map_err(|e| format!("creating {}: {e}", options.out.display()))?;
    let path = options.out.join(format!(
        "perfbench-spans-{}-{}.jsonl",
        options.workload, options.seed
    ));
    std::fs::write(&path, tracer.to_jsonl())
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    let self_times: Vec<String> = tracer
        .self_times()
        .iter()
        .map(|(name, (n, us))| format!("\"{name}\": {{\"spans\": {n}, \"self_us\": {us:.1}}}"))
        .collect();
    report.note("self_times", format!("{{{}}}", self_times.join(", ")));
    report.note("spans_file", format!("\"{}\"", path.display()));
    Ok(())
}
