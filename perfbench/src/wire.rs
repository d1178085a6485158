//! The load generator's side of the wire: an open loop on one pipelined
//! connection (one writer, one reader thread), closed-loop clients, and
//! the tally of every reply, checked against the server's STATS at the
//! end of a run.

use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use ipg_frontend::protocol::{
    read_response, write_request, Response, Status, Verb, DEFAULT_MAX_FRAME,
};
use ipg_frontend::Client;

use crate::gen::Arrival;
use crate::steal::{Sample, StealLog};

/// Replies the generator received from the current server process.
#[derive(Debug, Default)]
pub struct Tally {
    /// Replies to requests a worker executed (`OK`, `ERROR`,
    /// `RESOURCE_EXHAUSTED`): what STATS `frontend.requests` counts.
    pub executed: AtomicU64,
    /// `OVERLOADED` replies: STATS `frontend.shed_overload`.
    pub overloaded: AtomicU64,
    /// Executed parse requests of any tenant (`PARSE-TEXT`,
    /// `PARSE-TOKENS`, `OPEN-DOC`, `PARSE-DELTA`).
    pub parses: AtomicU64,
    /// Executed parse requests addressed to the default tenant.
    pub default_parses: AtomicU64,
}

impl Tally {
    pub fn note(&self, verb: Verb, tenant: u32, status: Status) {
        match status {
            Status::Ok | Status::Error | Status::ResourceExhausted => {
                self.executed.fetch_add(1, Ordering::Relaxed);
                if matches!(
                    verb,
                    Verb::ParseText | Verb::ParseTokens | Verb::OpenDoc | Verb::ParseDelta
                ) {
                    self.parses.fetch_add(1, Ordering::Relaxed);
                    if tenant == 0 {
                        self.default_parses.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            Status::Overloaded => {
                self.overloaded.fetch_add(1, Ordering::Relaxed);
            }
            _ => {}
        }
    }

    pub fn get(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }
}

/// A closed-loop client that tallies every reply.
pub struct Conn<'t> {
    client: Client,
    tally: &'t Tally,
}

impl<'t> Conn<'t> {
    pub fn connect(addr: SocketAddr, tally: &'t Tally) -> Result<Conn<'t>, String> {
        let client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
        Ok(Conn { client, tally })
    }

    pub fn set_tenant(&mut self, tenant: u32) {
        self.client.set_tenant(tenant);
    }

    /// One request, timed from send to reply, in microseconds.
    pub fn call(&mut self, verb: Verb, payload: &[u8]) -> Result<(Response, f64), String> {
        let (response, sample) = self.timed(verb, payload)?;
        Ok((response, sample.us))
    }

    /// One request, timed from send to reply.
    pub fn timed(&mut self, verb: Verb, payload: &[u8]) -> Result<(Response, Sample), String> {
        let start = Instant::now();
        let response = self
            .client
            .request(verb, 0, payload)
            .map_err(|e| format!("{verb:?} failed on the wire: {e}"))?;
        let us = start.elapsed().as_secs_f64() * 1e6;
        self.tally.note(verb, self.client.tenant(), response.status);
        Ok((response, Sample { start, us }))
    }

    /// `STATS` (not tallied: the frontend counts it only after replying).
    pub fn stats(&mut self) -> Result<String, String> {
        self.client.stats_json().map_err(|e| format!("STATS: {e}"))
    }
}

impl OpenReply {
    pub fn sample(&self) -> Sample {
        Sample {
            start: self.due,
            us: self.latency_us,
        }
    }
}

/// How long before a request's due time the open loop stops sleeping and
/// spins.
const SPIN: Duration = Duration::from_micros(100);

/// The reply to one open-loop request.
#[derive(Clone, Copy, Debug)]
pub struct OpenReply {
    /// When the request was due to be sent.
    pub due: Instant,
    /// Scheduled send → reply, µs.
    pub latency_us: f64,
    /// Scheduled → actual send, µs (generator lag).
    pub lag_us: f64,
    pub status: Status,
    /// `(accepted, grammar_version)` of an `OK` parse reply.
    pub outcome: Option<(bool, u64)>,
}

/// Sends `schedule` as `PARSE-TEXT` requests on one pipelined connection:
/// the calling thread writes each request at its due time and a second
/// thread reads the replies. Latency counts from the due time, so a stall
/// also charges the requests queued behind it. Returns the replies in
/// schedule order and the phase's steal log.
pub fn open_loop(
    addr: SocketAddr,
    schedule: &[Arrival],
    payloads: &[&str],
    tally: &Tally,
) -> Result<(Vec<OpenReply>, StealLog), String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let mut log = StealLog::start();
    let base = Instant::now() + Duration::from_millis(2);
    let due = |i: usize| base + Duration::from_secs_f64(schedule[i].at);
    let mut lags = vec![0.0; schedule.len()];
    let replies = std::thread::scope(|scope| -> Result<Vec<(Response, Instant)>, String> {
        let reader = scope.spawn(move || -> io::Result<Vec<(Response, Instant)>> {
            let mut reader = BufReader::new(stream);
            let mut out = Vec::with_capacity(schedule.len());
            while out.len() < schedule.len() {
                let response = read_response(&mut reader, DEFAULT_MAX_FRAME)
                    .map_err(ipg_frontend::client::frame_to_io)?;
                out.push((response, Instant::now()));
            }
            Ok(out)
        });
        let mut buf = Vec::new();
        for (i, arrival) in schedule.iter().enumerate() {
            // Sleep until shortly before the due time, then spin: the
            // generator shares the host's cores with the server, but a
            // sleep alone oversleeps by a varying wake-up latency, which
            // would count as lag and latency.
            let due_at = due(i);
            let now = Instant::now();
            if due_at > now + SPIN {
                std::thread::sleep(due_at - now - SPIN);
            }
            while Instant::now() < due_at {
                std::hint::spin_loop();
            }
            lags[i] = due_at.elapsed().as_secs_f64() * 1e6;
            write_request(
                &mut writer,
                &mut buf,
                i as u64,
                Verb::ParseText,
                0,
                0,
                payloads[arrival.input].as_bytes(),
            )
            .map_err(|e| format!("open-loop send: {e}"))?;
            log.tick();
        }
        reader
            .join()
            .expect("the reply reader does not panic")
            .map_err(|e| format!("open-loop receive: {e}"))
    })?;
    log.finish();
    let mut out: Vec<Option<OpenReply>> = vec![None; schedule.len()];
    for (response, at) in replies {
        let i = response.request_id as usize;
        if i >= out.len() || out[i].is_some() {
            return Err(format!("unexpected reply id {}", response.request_id));
        }
        tally.note(Verb::ParseText, 0, response.status);
        out[i] = Some(OpenReply {
            due: due(i),
            latency_us: at.saturating_duration_since(due(i)).as_secs_f64() * 1e6,
            lag_us: lags[i],
            status: response.status,
            outcome: response.parse_outcome(),
        });
    }
    let replies = out
        .into_iter()
        .map(|r| r.expect("every id answered once"))
        .collect();
    Ok((replies, log))
}

/// Reads a number at `path` (dot-separated keys) out of the STATS JSON.
/// The document is flat enough that a key search within the named
/// section suffices.
pub fn stats_value(json: &str, path: &str) -> Result<f64, String> {
    let mut rest = json;
    for key in path.split('.') {
        let quoted = format!("\"{key}\":");
        let at = rest
            .find(&quoted)
            .ok_or_else(|| format!("STATS has no {path}"))?;
        rest = &rest[at + quoted.len()..];
    }
    let value: String = rest
        .trim_start()
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
        .collect();
    value
        .parse()
        .map_err(|_| format!("STATS {path} is not a number"))
}
