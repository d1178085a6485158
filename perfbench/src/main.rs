//! `perfbench` — the repository benchmark of the IPG serving stack.
//!
//! ```text
//! perfbench --workload sdf-text|grammar-edit|doc-keystroke --seed N
//!           --seconds S --trace 0|1 [--out DIR]
//! perfbench serve --registry-budget BYTES     (the serving process)
//! ```
//!
//! A run generates every input from the seed, starts the serving process
//! (`ipg-frontend` over the SDF grammar, one worker per core), drives one
//! workload over TCP from at most one thread and connection per core,
//! checks every reply against an independent oracle and prints, as its
//! last line, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. With `--trace 0` the metrics are the end-to-end ones of
//! [`END_TO_END`]; with `--trace 1` the run replays the same ops and
//! prints the per-layer ones of [`PER_LAYER`], timing the calls into each
//! layer's public functions from here, and writes its spans to
//! `DIR/perfbench-spans-<workload>-<seed>.jsonl`. A `report` line before
//! the result carries sample counts, failure reasons and the STATS
//! cross-checks.

mod doc_keystroke;
mod gen;
mod grammar_edit;
mod layers;
mod oracle;
mod rng;
mod sdf_text;
mod serve;
mod stats;
mod steal;
mod trace;
mod wire;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use steal::cpu_ticks;

/// End-to-end metrics (`--trace 0`): name and unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("p50_us", "us"),
    ("p99_us", "us"),
    ("p50_us.peak", "us"),
    ("p99_us.peak", "us"),
    ("slo_rps", "1/s"),
    ("ops_per_s", "1/s"),
    ("first_parse_ms", "ms"),
    ("rss_peak_mib", "MiB"),
];

/// Per-layer metrics (`--trace 1`): name and unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("frontend.ping_rtt_us", "us"),
    ("frontend.self_us", "us"),
    ("frontend.queue_wait_us", "us"),
    ("frontend.shed_overload", "count"),
    ("frontend.queue_high_water", "count"),
    ("server.parse_text_us", "us"),
    ("server.serve_overhead_us", "us"),
    ("server.ctx_reuse_frac", "ratio"),
    ("server.publish_us", "us"),
    ("server.chunks_cowed_per_edit", "count"),
    ("lexer.scan_us", "us"),
    ("lexer.dense_frac", "ratio"),
    ("lexer.tokens_relexed_per_edit", "count"),
    ("glr.recognize_us", "us"),
    ("glr.forest_us", "us"),
    ("glr.gss_nodes_per_token", "count"),
    ("glr.reductions_per_token", "count"),
    ("glr.action_calls_per_token", "count"),
    ("graph.lazy_us", "us"),
    ("graph.expansions_per_op", "count"),
    ("graph.re_expansions_per_edit", "count"),
    ("graph.invalidations_per_edit", "count"),
    ("graph.rows_built_per_op", "count"),
    ("document.edit_us", "us"),
    ("document.incremental_frac", "ratio"),
    ("document.states_rerun_per_edit", "count"),
    ("registry.attach_us", "us"),
    ("grammar.bnf_ms", "ms"),
    ("registry.resident_bytes", "bytes"),
    ("registry.chunks_relazified", "count"),
    ("sdf.normalize_ms", "ms"),
    ("trace.overhead.p50_us", "us"),
    ("trace.overhead.p99_us", "us"),
];

/// Command-line options of a measuring run.
#[derive(Clone, Debug)]
pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out: PathBuf,
}

/// What one run found: op and check counts, metrics, and details for the
/// `report` line.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    failures: BTreeMap<String, u64>,
    metrics: BTreeMap<&'static str, f64>,
    detail: BTreeMap<String, String>,
}

impl Report {
    /// Counts one op or check; a false `ok` is a failure of kind `what`.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            *self.failures.entry(what.to_owned()).or_default() += 1;
        }
    }

    /// Adds the op and check counts of a report made on another thread.
    pub fn absorb(&mut self, other: Report) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for (what, n) in other.failures {
            *self.failures.entry(what).or_default() += n;
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// A detail for the `report` line; `json` is a JSON value.
    pub fn note(&mut self, key: impl Into<String>, json: impl Into<String>) {
        self.detail.insert(key.into(), json.into());
    }

    fn detail_json(&self) -> String {
        let mut fields: Vec<String> = self
            .detail
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        let failures: Vec<String> = self
            .failures
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        fields.push(format!("\"failures\": {{{}}}", failures.join(", ")));
        let frac = self.failed as f64 / self.attempted.max(1) as f64;
        fields.push(format!("\"fail_frac\": {frac}"));
        format!("{{{}}}", fields.join(", "))
    }

    /// The result line: every metric of `names`, each with its unit.
    fn result_json(&self, names: &[(&str, &str)]) -> Result<String, String> {
        let mut metrics = Vec::new();
        for (name, unit) in names {
            let value = self
                .metrics
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is {value}"));
            }
            metrics.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = PathBuf::from("perfbench/target");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed expects an integer")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "--seconds expects a number")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace expects 0 or 1".to_owned()),
                })
            }
            "--out" => out = PathBuf::from(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let options = Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out,
    };
    if !options.seconds.is_finite() || options.seconds <= 0.0 {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(options)
}

fn run(options: &Options) -> Result<Report, String> {
    let before = cpu_ticks();
    let mut report = match options.workload.as_str() {
        "sdf-text" => sdf_text::run(options),
        "grammar-edit" => grammar_edit::run(options),
        "doc-keystroke" => doc_keystroke::run(options),
        other => Err(format!(
            "unknown workload {other} (expected sdf-text, grammar-edit or doc-keystroke)"
        )),
    }?;
    if let (Some((steal0, total0)), Some((steal1, total1))) = (before, cpu_ticks()) {
        let frac = (steal1 - steal0) as f64 / (total1 - total0).max(1) as f64;
        report.note("host_steal_frac", frac.to_string());
    }
    Ok(report)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("serve") {
        return serve::serve_main(&args[1..]);
    }
    let options = match parse_args(&args) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::FAILURE;
        }
    };
    let names = if options.trace { PER_LAYER } else { END_TO_END };
    match run(&options).and_then(|report| Ok((report.detail_json(), report.result_json(names)?))) {
        Ok((detail, result)) => {
            println!("report {detail}");
            println!("{result}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Every metric's name and unit on a real run: tests/tiny_run.rs.

    #[test]
    fn a_failed_check_or_an_unmeasured_metric_shows_in_the_result() {
        let mut report = Report::default();
        for (name, _) in END_TO_END {
            report.metric(name, 1.5);
        }
        report.check(true, "op");
        report.check(false, "op");
        let line = report.result_json(END_TO_END).unwrap();
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1,"));
        assert!(report.detail_json().contains("\"failures\": {\"op\": 1}"));
        assert!(Report::default().result_json(END_TO_END).is_err());
    }
}
