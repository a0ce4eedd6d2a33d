//! `serve-mix`: an in-process `sfn_serve::serve` driven open-loop over
//! TCP. Arrivals are seeded Poisson on a ladder of fixed rates; every
//! tenth request is a 64²×32 paper-like request and the rest are 8²×3
//! toys, spread over four tenants.
//!
//! Open loop: a request is due at its scheduled time whether or not
//! earlier ones have returned. One sender thread opens a connection per
//! request and reads the responses without blocking. When it runs late
//! (or has the server's connection cap open) due requests wait; that
//! wait is the generator lag, and latency is measured from the due time
//! so it includes it.

use crate::stats::{mean, median, peak_rss_mb, tail, SplitMix, Tail};
use crate::trace::Trace;
use crate::{Failure, Metric, Report};
use sfn_obs::json::Value;
use sfn_serve::{serve, ServeConfig, ServeHandle, SimRequest};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// The rate ladder in requests per second, chosen once from the
/// capacity this mix measured on a 2-core Xeon: every request good up
/// to 50 req/s, and the highest passing rung 50–100 req/s depending on
/// the seed. The nominal rate is about half of that and still has every
/// request good; it is as high as that allows because the median
/// latency, mostly the server's accept-poll phase, needs many samples to
/// settle. The overload rate is far past capacity, where the share
/// the server refuses is set by its admission limits and capacity
/// rather than by the arrival pattern. The timed run uses these two;
/// the traced run walks the capacity rungs between them.
pub const LADDER_RPS: [f64; 8] = [40.0, 50.0, 60.0, 70.0, 100.0, 140.0, 200.0, 600.0];
/// Share of a pass each rung gets among the rungs the pass runs; the
/// nominal rung gets the most because its latency percentiles are the
/// headline numbers.
const LADDER_SHARE: [f64; 8] = [0.85, 0.125, 0.125, 0.125, 0.125, 0.125, 0.125, 0.15];
const NOMINAL: usize = 0;
const OVERLOAD: usize = 7;
/// Rungs of the capacity walk, lowest first.
const CAPACITY: [usize; 6] = [1, 2, 3, 4, 5, 6];
/// One request in this many is paper-like; the rest are toys. The
/// paper-like slot within each block is drawn from the seed.
const PAPER_EVERY: usize = 10;
const TENANTS: u64 = 4;
/// Quality target of every request (the one the server's own tests use).
const QUALITY: f64 = 0.013;
/// A request is good if it is a 200 within this many milliseconds of
/// its due time: the server's default `p99_target_ms`.
pub const LIMIT_MS: f64 = 250.0;
/// Goodput needs this share of good requests at a rung.
const GOOD_SHARE: f64 = 0.99;
/// A rung's generator lag grows when its last quarter runs later than
/// its first quarter by more than this.
const LAG_GROWTH_MS: f64 = 0.2 * LIMIT_MS;
/// Server starts measured for `setup_s`.
const SETUP_REPEATS: usize = 15;
const IO_TIMEOUT: Duration = Duration::from_secs(10);
/// Longest sleep of the sender loop when nothing is due and nothing
/// arrived: the resolution of response times, kept coarse enough that
/// the sender takes little CPU from the server it measures.
const POLL: Duration = Duration::from_millis(1);

pub struct ServeParams {
    pub seed: u64,
    pub seconds: f64,
    /// Server worker threads (`nproc`).
    pub workers: usize,
}

impl ServeParams {
    pub fn new(seed: u64, seconds: f64, workers: usize) -> Self {
        Self {
            seed,
            seconds,
            workers,
        }
    }
}

/// One scheduled request.
pub struct Planned {
    /// Seconds after the start of the pass.
    pub due: f64,
    pub rung: usize,
    pub paper: bool,
    pub req: SimRequest,
}

/// Grid side and steps of a paper-like or toy request.
fn shape(paper: bool) -> (usize, usize) {
    if paper {
        (64, 32)
    } else {
        (8, 3)
    }
}

/// Seconds rung `r` lasts when `rungs` share `seconds`.
fn rung_secs(seconds: f64, rungs: &[usize], r: usize) -> f64 {
    seconds * LADDER_SHARE[r] / rungs.iter().map(|&q| LADDER_SHARE[q]).sum::<f64>()
}

/// The seeded schedule, rungs back to back. Each rung gets Poisson
/// arrivals conditioned on their expected count (`rate × seconds`
/// uniform arrival times), so the offered rate is exact and only the
/// arrival pattern varies with the seed.
pub fn plan(p: &ServeParams, rungs: &[usize]) -> Vec<Planned> {
    let mut rng = SplitMix::new(p.seed);
    let mut out = Vec::new();
    let mut rung_start = 0.0;
    for &r in rungs {
        let span = rung_secs(p.seconds, rungs, r);
        let n = (LADDER_RPS[r] * span).round() as usize;
        let mut times: Vec<f64> = (0..n).map(|_| rung_start + span * rng.unit()).collect();
        times.sort_by(f64::total_cmp);
        out.extend(times.into_iter().map(|t| (t, r)));
        rung_start += span;
    }
    let mut paper_slot = 0;
    out.into_iter()
        .enumerate()
        .map(|(i, (due, rung))| {
            if i % PAPER_EVERY == 0 {
                paper_slot = i + (rng.next_u64() % PAPER_EVERY as u64) as usize;
            }
            let paper = i == paper_slot;
            let (grid, steps) = shape(paper);
            let req = SimRequest {
                tenant: format!("t{}", rng.next_u64() % TENANTS),
                priority: 1,
                deadline_ms: None,
                grid,
                steps,
                quality: QUALITY,
                seed: rng.next_u64() % (1 << 32),
            };
            Planned {
                due,
                rung,
                paper,
                req,
            }
        })
        .collect()
}

/// What the client saw for one request; times in seconds from the
/// start of the pass.
#[derive(Debug, Clone)]
pub struct Seen {
    pub due: f64,
    pub start: f64,
    pub connected: f64,
    pub end: f64,
    pub rung: usize,
    pub paper: bool,
    pub outcome: Outcome,
}

#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    Ok {
        server_ms: f64,
        steps_done: u64,
        requested: u64,
    },
    /// Refused at admission (429/503 with `retry_after_secs`).
    Refused,
    /// Admitted, then shed at dequeue (504, or 503 `brownout_priority`).
    Shed,
    /// Transport error or timeout.
    Lost,
}

impl Seen {
    /// Latency from the due time, in ms.
    pub fn latency_ms(&self) -> f64 {
        (self.end - self.due) * 1e3
    }

    pub fn lag_ms(&self) -> f64 {
        (self.start - self.due) * 1e3
    }

    /// The server's own latency (`latency_ms` of a 200 body), else 0.
    pub fn server_ms(&self) -> f64 {
        match self.outcome {
            Outcome::Ok { server_ms, .. } => server_ms,
            _ => 0.0,
        }
    }

    fn good(&self) -> bool {
        matches!(self.outcome, Outcome::Ok { .. }) && self.latency_ms() <= LIMIT_MS
    }
}

/// Sends one request and reads the whole response (blocking; used for
/// `/stats.json`).
fn exchange(addr: SocketAddr, wire: &[u8]) -> std::io::Result<Vec<u8>> {
    let mut s = TcpStream::connect_timeout(&addr, IO_TIMEOUT)?;
    s.set_read_timeout(Some(IO_TIMEOUT))?;
    s.set_write_timeout(Some(IO_TIMEOUT))?;
    s.write_all(wire)?;
    let mut out = Vec::new();
    s.read_to_end(&mut out)?;
    Ok(out)
}

fn split_response(raw: &[u8]) -> Option<(u16, &str)> {
    let text = std::str::from_utf8(raw).ok()?;
    let status = text.strip_prefix("HTTP/1.1 ")?.get(..3)?.parse().ok()?;
    let body = &text[text.find("\r\n\r\n")? + 4..];
    Some((status, body))
}

/// Checks a response against its request; wrong answers are errors.
fn classify(p: &Planned, raw: &[u8]) -> Result<Outcome, String> {
    let (status, body) = split_response(raw).ok_or("response does not parse")?;
    let v = sfn_obs::json::parse(body)
        .map_err(|e| format!("{status} body does not parse ({}): {body}", e.message))?;
    let num = |k: &str| v.get(k).and_then(Value::as_f64);
    match status {
        200 => {
            let grid = num("grid").ok_or_else(|| format!("200 body without grid: {body}"))?;
            if grid as usize != p.req.grid {
                return Err(format!("200 body grid {grid} for a {} request", p.req.grid));
            }
            let requested =
                num("requested").ok_or_else(|| format!("200 body without requested: {body}"))?;
            if requested as usize != p.req.steps {
                return Err(format!(
                    "200 body requested {requested} for {} steps",
                    p.req.steps
                ));
            }
            match (num("latency_ms"), num("steps_done")) {
                (Some(ms), Some(done)) if ms.is_finite() && ms >= 0.0 && done <= requested => {
                    Ok(Outcome::Ok {
                        server_ms: ms,
                        steps_done: done as u64,
                        requested: requested as u64,
                    })
                }
                _ => Err(format!(
                    "200 body without a valid latency_ms/steps_done: {body}"
                )),
            }
        }
        429 | 503 if v.get("retry_after_secs").is_some() => Ok(Outcome::Refused),
        503 | 504 => Ok(Outcome::Shed),
        _ => Err(format!(
            "unexpected status {status} for a valid request: {body}"
        )),
    }
}

/// A request on the wire.
struct InFlight {
    index: usize,
    start: Instant,
    connected: Instant,
    stream: TcpStream,
    buf: Vec<u8>,
}

/// Drives one pass of the schedule against `addr` from one sender
/// thread. Each due request gets its own connection; responses are read
/// without blocking, so a slow response never holds back a due request
/// unless `max_in_flight` connections are already open.
fn drive(
    addr: SocketAddr,
    plan: &[Planned],
    max_in_flight: usize,
    trace: &mut Trace,
) -> Result<Vec<Seen>, Failure> {
    let t0 = Instant::now() + Duration::from_millis(20);
    let secs = |t: Instant| t.saturating_duration_since(t0).as_secs_f64();
    let mut seen = Vec::with_capacity(plan.len());
    let mut errors = Vec::new();
    let mut in_flight: Vec<InFlight> = Vec::new();
    let mut next = 0;
    let mut chunk = [0u8; 4096];
    while next < plan.len() || !in_flight.is_empty() {
        let mut progressed = false;
        while next < plan.len()
            && in_flight.len() < max_in_flight
            && t0 + Duration::from_secs_f64(plan[next].due) <= Instant::now()
        {
            let start = Instant::now();
            let sent = TcpStream::connect_timeout(&addr, IO_TIMEOUT).and_then(|mut s| {
                let connected = Instant::now();
                s.set_write_timeout(Some(IO_TIMEOUT))?;
                s.write_all(&plan[next].req.to_http())?;
                s.set_nonblocking(true)?;
                Ok((s, connected))
            });
            match sent {
                Ok((stream, connected)) => in_flight.push(InFlight {
                    index: next,
                    start,
                    connected,
                    stream,
                    buf: Vec::new(),
                }),
                Err(_) => {
                    let end = Instant::now();
                    seen.push(finish(
                        plan,
                        next,
                        (start, end, end),
                        Outcome::Lost,
                        trace,
                        &secs,
                    ));
                }
            }
            next += 1;
            progressed = true;
        }
        let mut i = 0;
        while i < in_flight.len() {
            let f = &mut in_flight[i];
            let done = match f.stream.read(&mut chunk) {
                Ok(0) => Some(true),
                Ok(n) => {
                    f.buf.extend_from_slice(&chunk[..n]);
                    progressed = true;
                    None
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    (f.start.elapsed() > IO_TIMEOUT).then_some(false)
                }
                Err(_) => Some(false),
            };
            match done {
                None => i += 1,
                Some(complete) => {
                    let f = in_flight.swap_remove(i);
                    let end = Instant::now();
                    let outcome = if complete {
                        classify(&plan[f.index], &f.buf).unwrap_or_else(|e| {
                            errors.push(format!("request {}: {e}", f.index));
                            Outcome::Lost
                        })
                    } else {
                        Outcome::Lost
                    };
                    seen.push(finish(
                        plan,
                        f.index,
                        (f.start, f.connected, end),
                        outcome,
                        trace,
                        &secs,
                    ));
                    progressed = true;
                }
            }
        }
        if !progressed {
            let until_due = plan.get(next).map_or(POLL, |p| {
                (t0 + Duration::from_secs_f64(p.due)).saturating_duration_since(Instant::now())
            });
            std::thread::sleep(until_due.min(POLL));
        }
    }
    if !errors.is_empty() {
        return Err(Failure::Incorrect(errors));
    }
    seen.sort_by(|a, b| a.due.total_cmp(&b.due));
    Ok(seen)
}

/// Records one finished request: a `serve.request` span from the due
/// time with the generator lag, the connect, and the exchange (whose
/// server part is the body's `latency_ms`) as children.
fn finish(
    plan: &[Planned],
    index: usize,
    (start, connected, end): (Instant, Instant, Instant),
    outcome: Outcome,
    trace: &mut Trace,
    secs: &dyn Fn(Instant) -> f64,
) -> Seen {
    let p = &plan[index];
    let due = start - Duration::from_secs_f64((secs(start) - p.due).max(0.0));
    let root = trace.record("serve.request", None, due, end);
    trace.record("bench.gen_lag", Some(root), due, start);
    trace.record("serve.connect", Some(root), start, connected);
    let rest = trace.record("serve.exchange", Some(root), connected, end);
    if let Outcome::Ok { server_ms, .. } = outcome {
        trace.derived("serve.server", rest, server_ms * 1e-3);
    }
    Seen {
        due: p.due,
        start: secs(start),
        connected: secs(connected),
        end: secs(end),
        rung: p.rung,
        paper: p.paper,
        outcome,
    }
}

/// `/stats.json` counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Counters {
    accepted: u64,
    completed: u64,
    refused: u64,
    shed: u64,
    failed: u64,
    inflight: u64,
}

fn stats(addr: SocketAddr) -> Result<Counters, String> {
    let raw = exchange(addr, b"GET /stats.json HTTP/1.1\r\n\r\n")
        .map_err(|e| format!("/stats.json: {e}"))?;
    let (status, body) = split_response(&raw).ok_or("/stats.json response does not parse")?;
    if status != 200 {
        return Err(format!("/stats.json returned {status}"));
    }
    let v = sfn_obs::json::parse(body).map_err(|e| format!("/stats.json body: {}", e.message))?;
    let get = |k: &str| {
        v.get(k)
            .and_then(Value::as_f64)
            .map(|x| x as u64)
            .ok_or(format!("/stats.json lacks {k}"))
    };
    Ok(Counters {
        accepted: get("accepted")?,
        completed: get("completed")?,
        refused: get("refused")?,
        shed: get("shed")?,
        failed: get("failed")?,
        inflight: get("inflight")?,
    })
}

/// Counter deltas once the server has drained (its counters move just
/// after the response is written).
fn drained_delta(addr: SocketAddr, before: Counters, sent: u64) -> Result<Counters, String> {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let now = stats(addr)?;
        let d = Counters {
            accepted: now.accepted - before.accepted,
            completed: now.completed - before.completed,
            refused: now.refused - before.refused,
            shed: now.shed - before.shed,
            failed: now.failed - before.failed,
            inflight: now.inflight,
        };
        if (d.inflight == 0 && d.completed + d.refused + d.shed >= sent)
            || Instant::now() > deadline
        {
            return Ok(d);
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Client-side counts must match the server's own counters.
fn reconcile_counts(seen: &[Seen], d: Counters) -> Vec<String> {
    let count = |f: fn(&Outcome) -> bool| seen.iter().filter(|s| f(&s.outcome)).count() as u64;
    let ok = count(|o| matches!(o, Outcome::Ok { .. }));
    let refused = count(|o| *o == Outcome::Refused);
    let shed = count(|o| *o == Outcome::Shed);
    let mut errors = Vec::new();
    if ok != d.completed {
        errors.push(format!(
            "client saw {ok} 200s, server completed {}",
            d.completed
        ));
    }
    if refused != d.refused {
        errors.push(format!(
            "client saw {refused} refusals, server refused {}",
            d.refused
        ));
    }
    if shed != d.shed {
        errors.push(format!("client saw {shed} sheds, server shed {}", d.shed));
    }
    if d.accepted != d.completed + d.shed {
        errors.push(format!(
            "server accepted {} but completed {} and shed {}",
            d.accepted, d.completed, d.shed
        ));
    }
    errors
}

fn config(workers: usize) -> ServeConfig {
    ServeConfig {
        workers,
        global_concurrency: workers * 4,
        ..ServeConfig::default()
    }
}

/// Connections the server takes before refusing inline (refusals that
/// /stats.json does not count); the sender keeps at most this many open.
fn connection_cap(cfg: &ServeConfig) -> usize {
    cfg.global_concurrency * 2 + 16
}

fn start_server(workers: usize) -> Result<ServeHandle, Failure> {
    let h = serve(config(workers)).map_err(|e| Failure::Setup(format!("serve: {e}")))?;
    // Work can start once the server answers.
    stats(h.addr).map_err(Failure::Setup)?;
    Ok(h)
}

/// Runs `rungs` of the ladder once, returning what the client saw and
/// the reconciled server counters.
fn pass(
    h: &ServeHandle,
    p: &ServeParams,
    rungs: &[usize],
    trace: &mut Trace,
) -> Result<(Vec<Seen>, Counters), Failure> {
    let schedule = plan(p, rungs);
    let before = stats(h.addr).map_err(Failure::Setup)?;
    let seen = drive(h.addr, &schedule, connection_cap(&config(p.workers)), trace)?;
    let d = drained_delta(h.addr, before, seen.len() as u64).map_err(Failure::Setup)?;
    let errors = reconcile_counts(&seen, d);
    if !errors.is_empty() {
        return Err(Failure::Incorrect(errors));
    }
    Ok((seen, d))
}

/// Rung verdicts: share of good requests and whether the generator lag
/// grew over the rung.
pub fn rung_passes(seen: &[Seen]) -> bool {
    if seen.is_empty() {
        return false;
    }
    let good = seen.iter().filter(|s| s.good()).count() as f64 / seen.len() as f64;
    let q = (seen.len() / 4).max(1);
    let lag = |part: &[Seen]| mean(&part.iter().map(Seen::lag_ms).collect::<Vec<_>>());
    let growing = lag(&seen[seen.len() - q..]) > lag(&seen[..q]) + LAG_GROWTH_MS;
    good >= GOOD_SHARE && !growing
}

/// Latencies with every non-200 counted as missing any limit.
fn latencies(seen: &[Seen]) -> Vec<f64> {
    seen.iter()
        .map(|s| {
            if matches!(s.outcome, Outcome::Ok { .. }) {
                s.latency_ms()
            } else {
                f64::INFINITY
            }
        })
        .collect()
}

/// The requests of rung `r`.
fn at(seen: &[Seen], r: usize) -> Vec<Seen> {
    seen.iter().filter(|s| s.rung == r).cloned().collect()
}

/// Records a rung's share of good requests and its verdict.
fn note_rung(report: &mut Report, rs: &[Seen], r: usize) -> bool {
    let verdict = rung_passes(rs);
    report.note(format!(
        "rung {r}: {} req/s offered, {} requests, {:.1}% good, {}",
        LADDER_RPS[r],
        rs.len(),
        100.0 * rs.iter().filter(|s| s.good()).count() as f64 / rs.len().max(1) as f64,
        if verdict { "passes" } else { "fails" }
    ));
    verdict
}

pub fn run(p: &ServeParams, trace: &mut Trace) -> Result<Report, Failure> {
    let mut report = Report::default();
    let mut starts = Vec::new();
    let mut server = None;
    for i in 0..SETUP_REPEATS {
        let t = Instant::now();
        let h = start_server(p.workers)?;
        starts.push(t.elapsed().as_secs_f64());
        if i + 1 < SETUP_REPEATS {
            h.stop();
        } else {
            server = Some(h);
        }
    }
    let h = server.expect("at least one server start");
    let result = if trace.enabled() {
        traced(&h, p, trace, &mut report)
    } else {
        timed(&h, p, &mut report, median(&starts))
    };
    h.stop();
    result.map(|()| report)
}

fn timed(
    h: &ServeHandle,
    p: &ServeParams,
    report: &mut Report,
    setup_s: f64,
) -> Result<(), Failure> {
    let (seen, _) = pass(h, p, &[NOMINAL, OVERLOAD], &mut Trace::new(false))?;
    let nominal = at(&seen, NOMINAL);
    let lat = latencies(&nominal);
    let p50 = median(&lat);
    let Some(Tail {
        percentile,
        value,
        samples,
    }) = tail(&lat, 10)
    else {
        return Err(Failure::Setup(format!(
            "{} requests at the nominal rate: too few for a tail",
            nominal.len()
        )));
    };
    if !(p50.is_finite() && value.is_finite()) {
        return Err(Failure::Setup(format!(
            "more than 10 of {} requests failed at the nominal rate of {} req/s",
            nominal.len(),
            LADDER_RPS[NOMINAL]
        )));
    }
    report.note(format!(
        "serve_tail_ms is p{percentile:.1} of {samples} samples at {} req/s",
        LADDER_RPS[NOMINAL]
    ));

    for r in [NOMINAL, OVERLOAD] {
        note_rung(report, &at(&seen, r), r);
    }

    let failed = seen
        .iter()
        .filter(|s| !matches!(s.outcome, Outcome::Ok { .. }))
        .count();
    let (mut ok, mut truncated, mut paper_truncated) = (0usize, 0usize, 0usize);
    let (mut steps_asked, mut steps_done_ok) = (0u64, 0u64);
    for s in &nominal {
        steps_asked += shape(s.paper).1 as u64;
        if let Outcome::Ok {
            steps_done,
            requested,
            ..
        } = s.outcome
        {
            ok += 1;
            steps_done_ok += steps_done;
            truncated += usize::from(steps_done < requested);
            paper_truncated += usize::from(s.paper && steps_done < requested);
        }
    }
    let papers = nominal.iter().filter(|s| s.paper).count();
    report.note(format!(
        "nominal rate: {paper_truncated} of {papers} paper-like requests came back truncated"
    ));
    report.note(format!(
        "serve_p50_ms={p50:.4} serve_tail_ms={value:.4} serve_fail_frac={:.6} serve_truncated_frac={:.6}",
        failed as f64 / seen.len() as f64,
        truncated as f64 / ok.max(1) as f64
    ));
    report.attempted = seen.len() as u64;
    report.failed = seen.iter().filter(|s| s.outcome == Outcome::Lost).count() as u64;
    // The operation is one request at the nominal rate, timed from its due
    // time; the work done is the share of the simulation steps asked for
    // at that rate that came back in a 200, so refused, shed and
    // truncated requests all count against it.
    report.e2e = vec![
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("op_s", p50 / 1e3, "s"),
        Metric::new(
            "done_frac",
            steps_done_ok as f64 / steps_asked as f64,
            "fraction",
        ),
        Metric::new("peak_rss_mb", peak_rss_mb().map_err(Failure::Setup)?, "MB"),
    ];
    Ok(())
}

/// The traced run: the nominal rung untraced, then the same schedule
/// traced; the per-layer numbers come from the traced pass. Then an
/// untraced walk up the capacity rungs gives `serve_goodput_rps`, the
/// highest rate that meets the latency limit without a growing lag
/// (0 when none does). It is not an end-to-end metric because with
/// rungs short enough for the run's time it flips by a rung from seed
/// to seed.
fn traced(
    h: &ServeHandle,
    p: &ServeParams,
    trace: &mut Trace,
    report: &mut Report,
) -> Result<(), Failure> {
    let nominal = ServeParams::new(p.seed, p.seconds * LADDER_SHARE[NOMINAL], p.workers);
    let (plain, _) = pass(h, &nominal, &[NOMINAL], &mut Trace::new(false))?;
    let (seen, d) = pass(h, &nominal, &[NOMINAL], trace)?;
    let mean_of = |v: &[Seen], f: fn(&Seen) -> f64| mean(&v.iter().map(f).collect::<Vec<_>>());
    let ok: Vec<Seen> = seen
        .iter()
        .filter(|s| matches!(s.outcome, Outcome::Ok { .. }))
        .cloned()
        .collect();
    let untraced_ms = mean_of(&plain, Seen::latency_ms);
    let traced_ms = mean_of(&seen, Seen::latency_ms);
    let (walk, _) = pass(h, p, &CAPACITY, &mut Trace::new(false))?;
    let mut goodput = 0.0;
    for r in CAPACITY {
        if note_rung(report, &at(&walk, r), r) {
            goodput = LADDER_RPS[r];
        }
    }
    report.attempted = (plain.len() + seen.len() + walk.len()) as u64;
    report.failed = plain
        .iter()
        .chain(&seen)
        .chain(&walk)
        .filter(|s| s.outcome == Outcome::Lost)
        .count() as u64;
    report.layers = vec![
        Metric::new(
            "serve.connect_ms",
            mean_of(&seen, |s| (s.connected - s.start) * 1e3),
            "ms",
        ),
        Metric::new(
            "serve.pre_enqueue_ms",
            mean_of(&seen, |s| (s.end - s.connected) * 1e3 - s.server_ms()),
            "ms",
        ),
        Metric::new("serve.server_ms", mean_of(&ok, Seen::server_ms), "ms"),
        Metric::new("serve.admitted", d.accepted as f64, "count"),
        Metric::new("serve.shed", d.shed as f64, "count"),
        Metric::new("serve.completed", d.completed as f64, "count"),
        Metric::new("serve.failed", d.failed as f64, "count"),
        Metric::new("serve_goodput_rps", goodput, "req/s"),
        Metric::new("bench.gen_lag_ms", mean_of(&seen, Seen::lag_ms), "ms"),
        Metric::new(
            "bench.trace_overhead_frac",
            (traced_ms - untraced_ms) / untraced_ms,
            "fraction",
        ),
        Metric::new("bench.unattributed_s", trace.reconcile().unattributed, "s"),
    ];
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seen(due: f64, start: f64, end: f64, status: u16) -> Seen {
        let outcome = if status == 200 {
            Outcome::Ok {
                server_ms: 1.0,
                steps_done: 3,
                requested: 3,
            }
        } else {
            Outcome::Refused
        };
        Seen {
            due,
            start,
            connected: start,
            end,
            rung: 0,
            paper: false,
            outcome,
        }
    }

    #[test]
    fn latency_counts_from_the_due_time() {
        // Due at 1.0 s, sent 40 ms late, answered 10 ms after sending.
        let s = seen(1.0, 1.040, 1.050, 200);
        assert!((s.latency_ms() - 50.0).abs() < 1e-9);
        assert!((s.lag_ms() - 40.0).abs() < 1e-9);
    }

    /// A server that answers one connection at a time, each after
    /// `delay`: requests due every 10 ms must still be sent on time, and
    /// their latency, counted from the due time, must grow by the queue.
    #[test]
    fn requests_go_out_on_schedule_and_latency_counts_the_wait() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let delay = Duration::from_millis(50);
        let n = 5;
        let server = std::thread::spawn(move || {
            for _ in 0..n {
                let (mut s, _) = listener.accept().unwrap();
                let mut buf = Vec::new();
                let mut chunk = [0u8; 512];
                while !buf.windows(4).any(|w| w == b"\r\n\r\n") || !buf.ends_with(b"}") {
                    let k = s.read(&mut chunk).unwrap();
                    buf.extend_from_slice(&chunk[..k]);
                }
                std::thread::sleep(delay);
                let body = r#"{"grid":8,"latency_ms":1.5,"requested":3,"steps_done":3}"#;
                let head = format!(
                    "HTTP/1.1 200 OK\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
                    body.len()
                );
                s.write_all(head.as_bytes()).unwrap();
                s.write_all(body.as_bytes()).unwrap();
            }
        });
        let mut reqs = plan(&ServeParams::new(1, 1.0, 2), &[NOMINAL])
            .into_iter()
            .filter(|p| !p.paper);
        let schedule: Vec<Planned> = (0..n)
            .map(|i| Planned {
                due: 0.01 * i as f64,
                ..reqs.next().unwrap()
            })
            .collect();
        let mut trace = Trace::new(true);
        let seen =
            drive(addr, &schedule, 32, &mut trace).unwrap_or_else(|_| panic!("drive failed"));
        server.join().unwrap();
        assert_eq!(seen.len(), n);
        for (i, s) in seen.iter().enumerate() {
            assert!(s.lag_ms() < 5.0, "request {i} sent {} ms late", s.lag_ms());
            // Served one after another: done at about (i + 1) * 50 ms.
            let expect = 50.0 * (i + 1) as f64 - 10.0 * i as f64;
            assert!(
                s.latency_ms() >= expect - 1.0,
                "request {i}: {} ms < {expect} ms",
                s.latency_ms()
            );
            assert_eq!(s.server_ms(), 1.5);
        }
        let r = trace.reconcile();
        let latency_sum: f64 = seen.iter().map(|s| s.latency_ms() * 1e-3).sum();
        assert!(
            (r.total - latency_sum).abs() < 1e-3,
            "{} vs {latency_sum}",
            r.total
        );
        let rows: f64 = r.rows.iter().map(|(_, t)| t).sum::<f64>() + r.unattributed;
        assert!((rows - r.total).abs() < 1e-9);
    }

    #[test]
    fn growing_lag_or_failures_fail_a_rung() {
        let steady: Vec<Seen> = (0..100)
            .map(|i| {
                seen(
                    i as f64 * 0.01,
                    i as f64 * 0.01 + 0.001,
                    i as f64 * 0.01 + 0.01,
                    200,
                )
            })
            .collect();
        assert!(rung_passes(&steady));
        // The sender falls further behind with every request.
        let growing: Vec<Seen> = (0..100)
            .map(|i| {
                seen(
                    i as f64 * 0.01,
                    i as f64 * 0.012,
                    i as f64 * 0.012 + 0.01,
                    200,
                )
            })
            .collect();
        assert!(!rung_passes(&growing));
        let mut refused = steady.clone();
        refused[3] = seen(0.03, 0.031, 0.032, 503);
        refused[4] = seen(0.04, 0.041, 0.042, 503);
        assert!(!rung_passes(&refused));
        // A refused request counts as missing every latency limit.
        assert!(latencies(&refused)[3].is_infinite());
    }

    #[test]
    fn the_schedule_repeats_per_seed_and_keeps_the_mix() {
        let p = ServeParams::new(9, 10.0, 2);
        let a = plan(&p, &[NOMINAL, OVERLOAD]);
        let b = plan(&p, &[NOMINAL, OVERLOAD]);
        assert_eq!(a.len(), b.len());
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.due == y.due && x.req == y.req));
        assert!(a.windows(2).all(|w| w[0].due <= w[1].due));
        let papers = a.iter().filter(|x| x.paper).count();
        // One per full block of ten; the last, partial block may miss its slot.
        assert!(papers >= a.len() / PAPER_EVERY && papers <= a.len().div_ceil(PAPER_EVERY));
        let at_nominal = a.iter().filter(|x| x.rung == NOMINAL).count() as f64;
        let expected = LADDER_RPS[NOMINAL] * rung_secs(10.0, &[NOMINAL, OVERLOAD], NOMINAL);
        assert_eq!(at_nominal, expected.round());
    }
}
