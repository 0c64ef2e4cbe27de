//! End-to-end and per-layer benchmark of the `apls serve` placement daemon.
//!
//! ```text
//! servebench --apls PATH --out-dir DIR --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Starts the real daemon as its own process and drives it from closed-loop
//! client connections for `S` seconds with the seeded request lines of one
//! workload (see `plan.rs` and `README.md`). With `--trace 0` it reports the
//! end-to-end metrics; with `--trace 1` it serves half the window, then
//! replays the first requests in-process and times the calls into each
//! layer (see `trace.rs`). Either way the last stdout line is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. Any correctness
//! violation exits with code 1.

mod daemon;
mod drive;
mod plan;
mod stats;
mod trace;

use apls_service::json::Json;
use apls_service::{PlaceResponse, StreamFrame};
use daemon::Daemon;
use drive::{report_span, Sample, Window};
use plan::{Plan, Workload};
use stats::{Delta, Snapshot};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

/// Set-ups per run: at least `MIN_SETUPS`, and more (up to `MAX_SETUPS`)
/// while they take under `SETUP_BUDGET_S` in total; `setup_s` is their
/// median, so a cheap set-up is repeated until its median is steady.
const MIN_SETUPS: usize = 3;
/// See [`MIN_SETUPS`].
const MAX_SETUPS: usize = 15;
/// See [`MIN_SETUPS`].
const SETUP_BUDGET_S: f64 = 2.0;
/// Plan lines hashed into the printed plan digest.
const DIGEST_REQUESTS: u64 = 256;

struct Args {
    apls: PathBuf,
    out_dir: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut map: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let name = flag.strip_prefix("--").ok_or(format!("unexpected argument {flag}"))?;
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        map.insert(name.to_string(), value);
    }
    let get = |k: &str| map.get(k).cloned().ok_or(format!("missing --{k}"));
    let workload = get("workload")?;
    let args = Args {
        apls: get("apls")?.into(),
        out_dir: get("out-dir")?.into(),
        workload: Workload::from_name(&workload).ok_or(format!(
            "unknown workload {workload} (anneal_small, hier_large, resubmit_hits)"
        ))?,
        seed: get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: get("seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
    };
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must lie in (0, 600]".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::from(2)
        }
    }
}

/// A metric of the final JSON line.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.into(), value, unit }
}

/// What set-up leaves besides the daemon: primed bodies and the `stats`
/// baseline.
struct Ready {
    /// Escaped report body per working-set key, when primed.
    primed: Vec<Option<String>>,
    /// Envelope `solve_ms` of each priming miss.
    primed_solve_ms: Vec<f64>,
    baseline: Snapshot,
    setup_s: f64,
}

/// Spawns the daemon, generates the plan and primes the cache: everything
/// before the first timed request.
fn set_up(args: &Args) -> Result<(Daemon, Ready, Plan), String> {
    let start = Instant::now();
    let plan = Plan::new(args.workload, args.seed);
    let daemon = Daemon::start(&args.apls, plan.workers, plan.cache_capacity)?;
    let mut primed = vec![None; plan.keys.len()];
    let mut primed_solve_ms = vec![0.0; plan.keys.len()];
    if plan.primes() {
        let lines: Vec<&str> = plan.keys.iter().map(|k| k.line.as_str()).collect();
        let replies = drive::prime(&daemon.addr, &lines, plan.connections)?;
        for (k, reply) in replies.iter().enumerate() {
            let response = PlaceResponse::from_json_line(reply)?;
            if !response.is_ok() || response.cache_hit {
                return Err(format!("priming {} failed: {reply}", plan.keys[k].label));
            }
            let (s, e) = report_span(reply).ok_or("priming reply has no report")?;
            primed[k] = Some(reply[s..e].to_string());
            primed_solve_ms[k] = response.solve_ms.unwrap_or(0.0);
        }
    }
    let baseline = Snapshot::parse(&daemon.request("{\"op\":\"stats\"}")?)?;
    let setup_s = start.elapsed().as_secs_f64();
    Ok((daemon, Ready { primed, primed_solve_ms, baseline, setup_s }, plan))
}

/// What a served report body says about legality and quality.
#[derive(Debug, Clone, Copy)]
struct BodyFacts {
    overlap_area: i64,
    symmetry_error: i64,
    /// Lowest cost among restarts with `symmetry_error == 0`.
    legal_cost: Option<f64>,
}

fn body_facts(body: &str) -> Result<BodyFacts, String> {
    let json = Json::parse(body).map_err(|e| format!("report body does not parse: {e}"))?;
    let best = json.get("best").ok_or("report has no best")?;
    let int = |j: &Json, k: &str| -> Result<i64, String> {
        j.get(k).and_then(Json::as_f64).map(|v| v as i64).ok_or(format!("best.{k} missing"))
    };
    let mut legal_cost: Option<f64> = None;
    for r in json.get("restarts").and_then(Json::as_arr).ok_or("report has no restarts")? {
        if int(r, "symmetry_error")? == 0 {
            let cost = r.get("cost").and_then(Json::as_f64).ok_or("restart without cost")?;
            legal_cost = Some(legal_cost.map_or(cost, |c: f64| c.min(cost)));
        }
    }
    Ok(BodyFacts {
        overlap_area: int(best, "overlap_area")?,
        symmetry_error: int(best, "symmetry_error")?,
        legal_cost,
    })
}

/// One checked sample.
struct Checked {
    index: u64,
    ok: bool,
    stream: bool,
    rtt_ms: f64,
    frames: u32,
    total_ms: Option<f64>,
    solve_ms: Option<f64>,
    /// The unescaped report body when the reply carried its own.
    body: Option<String>,
    /// The plan key the request repeats.
    key: Option<usize>,
    /// The plan key whose circuit and configuration the request places.
    source: usize,
    /// Legality and quality of the served best, for ok replies.
    facts: Option<BodyFacts>,
}

/// Everything the correctness gate and the metrics need from a window.
#[derive(Default)]
struct Verdict {
    violations: Vec<String>,
    checked: Vec<Checked>,
}

fn check(plan: &Plan, window: &Window, primed_facts: &[Option<BodyFacts>]) -> Verdict {
    let mut v = Verdict::default();
    let mut first_body: BTreeMap<usize, String> = BTreeMap::new();
    for sample in &window.samples {
        let request = plan.request(sample.index);
        let mut checked = Checked {
            index: sample.index,
            ok: false,
            stream: request.stream,
            rtt_ms: sample.rtt_ms,
            frames: sample.frames,
            total_ms: None,
            solve_ms: None,
            body: None,
            key: request.key,
            source: request.source,
            facts: None,
        };
        if sample.error.is_none() {
            match decode(sample) {
                Ok(response) if response.is_ok() => {
                    checked.ok = true;
                    checked.total_ms = response.total_ms;
                    checked.solve_ms = response.solve_ms;
                    if response.cache_hit != request.expect_hit {
                        v.violations.push(format!(
                            "request {}: cache_hit={} but the plan expects {}",
                            sample.index, response.cache_hit, request.expect_hit
                        ));
                    }
                    if sample.same_as_primed == Some(false) {
                        v.violations.push(format!(
                            "request {}: hit body differs from the miss body of its key",
                            sample.index
                        ));
                    }
                    let facts = match (response.report.as_deref(), request.key) {
                        (Some(body), _) if !body.is_empty() => body_facts(body),
                        (_, Some(k)) if sample.same_as_primed == Some(true) => {
                            primed_facts[k].ok_or_else(|| "primed body missing".to_string())
                        }
                        _ => Err("ok reply without a report body".to_string()),
                    };
                    match facts {
                        Ok(f) => {
                            if f.overlap_area > 0 {
                                v.violations.push(format!(
                                    "request {}: served best overlaps (area {})",
                                    sample.index, f.overlap_area
                                ));
                            }
                            checked.facts = Some(f);
                        }
                        Err(e) => v.violations.push(format!("request {}: {e}", sample.index)),
                    }
                    checked.body = response.report.filter(|b| !b.is_empty());
                    // a repeated job (cache off) must solve to the same body
                    if let (Some(k), Some(body)) = (request.key, &checked.body) {
                        let first = first_body.entry(k).or_insert_with(|| body.clone());
                        if first != body {
                            v.violations.push(format!(
                                "request {}: body differs from an earlier solve of the same job",
                                sample.index
                            ));
                        }
                    }
                }
                Ok(_) => {}
                Err(e) => v.violations.push(format!("request {}: {e}", sample.index)),
            }
        }
        v.checked.push(checked);
    }
    v
}

/// Decodes a final reply: a plain envelope, or the report frame of a
/// streamed job.
fn decode(sample: &Sample) -> Result<PlaceResponse, String> {
    if sample.reply.starts_with("{\"frame\":") {
        match StreamFrame::from_json_line(&sample.reply)? {
            StreamFrame::Report { response, .. } => Ok(*response),
            _ => Err("stream ended without a report frame".to_string()),
        }
    } else {
        PlaceResponse::from_json_line(&sample.reply)
    }
}

fn run(args: &Args) -> Result<bool, String> {
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", args.out_dir.display()))?;
    let name = args.workload.name();

    // set up several times; the last daemon serves the window
    let mut setups = Vec::new();
    let mut digests = Vec::new();
    let (daemon, ready, plan) = loop {
        let (daemon, r, p) = set_up(args)?;
        setups.push(r.setup_s);
        digests.push(p.digest(DIGEST_REQUESTS));
        let spent: f64 = setups.iter().sum();
        let enough =
            setups.len() >= MAX_SETUPS || (setups.len() >= MIN_SETUPS && spent >= SETUP_BUDGET_S);
        if enough {
            break (daemon, r, p);
        }
        daemon.stop()?;
    };
    let setup_s = stats::median(&setups).expect("set-ups ran");
    println!(
        "servebench {name} seed={} plan_digest={:016x} connections={} workers={} setups={:?}",
        args.seed, digests[0], plan.connections, plan.workers, setups
    );
    let mut violations = Vec::new();
    if digests.iter().any(|&d| d != digests[0]) {
        violations.push("the same seed generated different plans".to_string());
    }
    let primed_facts: Vec<Option<BodyFacts>> = ready
        .primed
        .iter()
        .map(|b| b.as_deref().map(|b| body_facts(&unescape(b)?)).transpose())
        .collect::<Result<_, _>>()?;

    // the timed window
    let window_s = if args.trace { args.seconds / 2.0 } else { args.seconds };
    let cpu0 = daemon.cpu_ms()?;
    let probe = || daemon.cpu_ms().ok();
    let window = drive::run(&daemon.addr, &plan, &ready.primed, window_s, &probe);
    let after = Snapshot::parse(&daemon.request("{\"op\":\"stats\"}")?)?;
    let peak_rss_mb = daemon.peak_rss_mb()?;
    let delta = after.since(&ready.baseline);
    daemon.stop()?;

    let mut verdict = check(&plan, &window, &primed_facts);
    violations.append(&mut verdict.violations);
    let attempted = window.samples.len();
    let ok = verdict.checked.iter().filter(|c| c.ok).count();
    let failed = attempted - ok;
    let planned_hits = window.samples.iter().filter(|s| plan.request(s.index).expect_hit).count();
    if delta.counter("cache.hits") as usize != planned_hits {
        violations.push(format!(
            "cache hits {} differ from the plan's {planned_hits}",
            delta.counter("cache.hits")
        ));
    }
    if delta.counter("cache.evictions") > 0.0 {
        violations.push("the cache evicted entries although it holds every key".to_string());
    }

    // end-to-end metrics cover whole plan cycles (passes) only: the samples
    // are sorted by index, and every index below the last issued one answered
    let cycles = attempted as u64 / plan.cycle;
    if cycles == 0 {
        return Err(format!("the window did not complete one cycle of {} requests", plan.cycle));
    }
    let measured = &verdict.checked[..(cycles * plan.cycle) as usize];
    let m_ok: Vec<&Checked> = measured.iter().filter(|c| c.ok).collect();
    if m_ok.is_empty() {
        violations.push("no request was answered ok".to_string());
    }
    let end_s = window.samples[..measured.len()].iter().map(|s| s.done_s).fold(0.0, f64::max);
    let answers: Vec<stats::Answer> = window
        .samples
        .iter()
        .zip(measured)
        .map(|(s, c)| stats::Answer {
            ok: c.ok,
            rtt_ms: c.rtt_ms,
            done_s: s.done_s,
            cpu_ms: s.cpu_ms,
        })
        .collect();
    let passes = stats::passes(&answers, plan.cycle as usize, cpu0)?;
    let pass_file = args.out_dir.join(format!("passes-{name}-{}.jsonl", args.seed));
    write_passes(&pass_file, &passes).map_err(|e| format!("{}: {e}", pass_file.display()))?;
    let rtt_file = args.out_dir.join(format!("requests-{name}-{}.tsv", args.seed));
    let rows: String = measured
        .iter()
        .map(|c| {
            format!("{}\t{}\t{}\t{}\n", c.index, c.key.map_or(-1, |k| k as i64), c.ok, c.rtt_ms)
        })
        .collect();
    std::fs::write(&rtt_file, rows).map_err(|e| format!("{}: {e}", rtt_file.display()))?;
    let over_passes = |f: fn(&stats::Pass) -> f64| {
        let v: Vec<f64> = passes.iter().map(f).collect();
        stats::median(&v).expect("at least one pass")
    };
    let jobs_per_s = over_passes(|p| p.ok as f64 / p.seconds);
    let p50 = over_passes(|p| p.p50_ms);
    let cpu_ms_per_job = over_passes(|p| p.cpu_ms / p.ok.max(1) as f64);
    let mut rtts: Vec<f64> = m_ok.iter().map(|c| c.rtt_ms).collect();
    rtts.sort_by(f64::total_cmp);
    // one legal cost per distinct job (a resubmitted key counts once), one
    // geomean per class of jobs (a key, or the fresh-seed jobs made from
    // it), then the geomean over classes: the mix does not depend on how
    // many passes the window held
    let mut legal: BTreeMap<(bool, usize, u64), f64> = BTreeMap::new();
    let mut without_legal = 0;
    for c in &m_ok {
        let fresh = c.key.is_none();
        match c.facts.and_then(|f| f.legal_cost) {
            Some(cost) => {
                legal.insert((fresh, c.source, if fresh { c.index } else { 0 }), cost);
            }
            None => without_legal += 1,
        }
    }
    let mut classes: BTreeMap<(bool, usize), Vec<f64>> = BTreeMap::new();
    for (&(fresh, source, _), &cost) in &legal {
        classes.entry((fresh, source)).or_default().push(cost);
    }
    let class_costs: Vec<f64> = classes.values().filter_map(|c| stats::geomean(c)).collect();
    let legal_cost_geomean = stats::geomean(&class_costs).unwrap_or(0.0);
    let illegal = m_ok
        .iter()
        .filter(|c| c.facts.is_some_and(|f| f.overlap_area > 0 || f.symmetry_error > 0))
        .count();
    let illegal_share = illegal as f64 / m_ok.len().max(1) as f64;
    let failed_share = failed as f64 / attempted.max(1) as f64;

    println!(
        "window_s {:.3} attempted {attempted} ok {ok} failed {failed}; measured {cycles} passes of {} = {} requests in {end_s:.3} s",
        window.wall_s,
        plan.cycle,
        measured.len()
    );
    println!("setup_s {setup_s:.4} s (median of {} set-ups)", setups.len());
    println!("jobs_per_s {jobs_per_s:.4} 1/s (median over {cycles} passes)");
    println!("latency_p50_ms {p50:.4} ms (median over {cycles} passes of the pass median)");
    if let Some((v, _)) = stats::percentile(&rtts, 0.5) {
        println!("  whole window latency_p50_ms {v:.4} ms (n={})", rtts.len());
    }
    for (label, q) in [("latency_p90_ms", 0.9), ("latency_p99_ms", 0.99)] {
        match stats::tail(&rtts, q) {
            Some((v, beyond)) => {
                println!("  whole window {label} {v:.4} ms (n={}, {beyond} beyond)", rtts.len())
            }
            None => println!(
                "  whole window {label} not reported: fewer than 10 of {} samples beyond it",
                rtts.len()
            ),
        }
    }
    println!("failed_share {failed_share:.6} ratio ({failed} of {attempted} attempted)");
    println!("illegal_share {illegal_share:.6} ratio ({illegal} of {} ok replies)", m_ok.len());
    println!(
        "legal_cost_geomean {legal_cost_geomean:.2} cost ({} jobs in {} classes, {without_legal} without a legal restart)",
        legal.len(),
        classes.len()
    );
    println!("cpu_ms_per_job {cpu_ms_per_job:.4} ms (median over {cycles} passes)");
    println!("peak_rss_mb {peak_rss_mb:.3} MiB");

    let metrics = if args.trace {
        layer_metrics(args, &plan, &ready, &window, &verdict, &delta, &mut violations)?
            .into_iter()
            .chain([
                metric("quality.illegal_share", illegal_share, "ratio"),
                metric("quality.failed_share", failed_share, "ratio"),
                metric("daemon.peak_rss_mb", peak_rss_mb, "MiB"),
            ])
            .collect()
    } else {
        vec![
            metric("setup_s", setup_s, "s"),
            metric("jobs_per_s", jobs_per_s, "1/s"),
            metric("latency_p50_ms", p50, "ms"),
            metric("legal_cost_geomean", legal_cost_geomean, "cost"),
            metric("cpu_ms_per_job", cpu_ms_per_job, "ms"),
        ]
    };
    for v in violations.iter().take(20) {
        println!("VIOLATION {v}");
    }
    let correct = violations.is_empty();
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!("\"{}\":{{\"value\":{},\"unit\":\"{}\"}}", m.name, json_number(m.value), m.unit)
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    );
    Ok(correct)
}

/// Writes one JSON line per pass.
fn write_passes(path: &std::path::Path, passes: &[stats::Pass]) -> std::io::Result<()> {
    let lines: String = passes
        .iter()
        .map(|p| {
            format!(
                "{{\"seconds\":{},\"ok\":{},\"cpu_ms\":{},\"p50_ms\":{}}}\n",
                p.seconds, p.ok, p.cpu_ms, p.p50_ms
            )
        })
        .collect();
    std::fs::write(path, lines)
}

/// A finite JSON number (`0` stands in for a value that could not be
/// measured, so the line always parses).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Unescapes a JSON string body (the `report` field contents).
fn unescape(escaped: &str) -> Result<String, String> {
    match Json::parse(&format!("\"{escaped}\""))? {
        Json::Str(s) => Ok(s),
        _ => Err("report is not a string".to_string()),
    }
}

/// Requests replayed in-process by the traced run, per workload.
fn replay_count(workload: Workload) -> u64 {
    match workload {
        Workload::AnnealSmall => 6,
        Workload::HierLarge => 5,
        Workload::ResubmitHits => 400,
    }
}

/// The per-layer metrics of a traced run.
fn layer_metrics(
    args: &Args,
    plan: &Plan,
    ready: &Ready,
    window: &Window,
    verdict: &Verdict,
    delta: &Delta,
    violations: &mut Vec<String>,
) -> Result<Vec<Metric>, String> {
    let ok: Vec<&Checked> = verdict.checked.iter().filter(|c| c.ok).collect();
    let mean = |v: &[f64]| if v.is_empty() { 0.0 } else { v.iter().sum::<f64>() / v.len() as f64 };
    let outside: Vec<f64> = ok.iter().filter_map(|c| c.total_ms.map(|t| c.rtt_ms - t)).collect();
    let stream_frames: Vec<f64> =
        ok.iter().filter(|c| c.stream).map(|c| f64::from(c.frames)).collect();
    let requests = delta.counter("requests_total").max(1.0);
    // useful ÷ attempts: the daemon looks a miss up twice (admission and
    // worker), so its own hit/miss counters do not give the per-request ratio
    let placed = window.samples.len().max(1) as f64;
    let mut m = vec![
        metric("service.admit_ms_mean", delta.mean("admit_ms"), "ms"),
        metric("service.queue_ms_mean", delta.mean("queue_ms"), "ms"),
        metric("service.solve_ms_mean", delta.mean("solve_ms"), "ms"),
        metric("service.flush_ms_mean", delta.mean("flush_ms"), "ms"),
        metric("service.total_ms_mean", delta.mean("total_ms"), "ms"),
        metric("service.outside_ms_mean", mean(&outside), "ms"),
        metric("service.loop_ms_mean", delta.mean("loop_ms"), "ms"),
        metric("service.poll_wait_ms_mean", delta.mean("poll_wait_ms"), "ms"),
        metric(
            "service.wakeups_per_request",
            delta.counter("readiness_wakeups_total") / requests,
            "count",
        ),
        metric("service.stalls", delta.counter("reactor_stalls_total"), "count"),
        metric("service.cache_hit_ratio", delta.counter("cache.hits") / placed, "ratio"),
        metric("service.cache_evictions", delta.counter("cache.evictions"), "count"),
        metric("service.frames_per_stream_job", mean(&stream_frames), "count"),
        metric("service.retries", delta.counter("retries_total"), "count"),
        metric("service.errors", delta.counter("errors_total"), "count"),
        metric("service.timeouts", delta.counter("timeouts_total"), "count"),
    ];

    // the in-process replay of the first requests
    let served_at: BTreeMap<u64, &Checked> = ok.iter().map(|c| (c.index, *c)).collect();
    let served = |i: u64| -> Option<(String, f64)> {
        let c = served_at.get(&i)?;
        match (&c.body, c.key) {
            (Some(body), _) => Some((body.clone(), c.solve_ms.unwrap_or(0.0))),
            // a hit carried the primed body; the solve happened while priming
            (None, Some(k)) => {
                let body = unescape(ready.primed[k].as_deref()?).ok()?;
                Some((body, ready.primed_solve_ms[k]))
            }
            (None, None) => None,
        }
    };
    let count = replay_count(args.workload).min(window.samples.len() as u64);
    let tracer = Arc::new(trace::Tracer::default());
    let started = Instant::now();
    let replay = trace::replay(&tracer, plan, count, &served)?;
    let replay_s = started.elapsed().as_secs_f64();
    violations.extend(replay.mismatches.iter().cloned());
    let spans = tracer.spans();
    let span_file =
        args.out_dir.join(format!("spans-{}-{}.jsonl", args.workload.name(), args.seed));
    trace::write_spans(&span_file, &spans).map_err(|e| format!("{}: {e}", span_file.display()))?;
    let layers = trace::reduce(&spans);
    println!(
        "replay: {} requests, {} jobs solved, {} bodies compared, {} spans in {replay_s:.2} s -> {}",
        replay.requests,
        replay.jobs,
        replay.compared,
        spans.len(),
        span_file.display()
    );
    println!("{:<28} {:>8} {:>12} {:>12}", "layer call", "calls", "total_ms", "self_ms");
    for (name, l) in &layers {
        println!(
            "{name:<28} {:>8} {:>12.3} {:>12.3}",
            l.calls,
            l.total_ns as f64 / 1e6,
            l.self_ns as f64 / 1e6
        );
    }

    let layer = |name: &str| layers.get(name).copied().unwrap_or_default();
    let per_call = |name: &str, scale: f64| {
        let l = layer(name);
        if l.calls == 0 {
            0.0
        } else {
            l.total_ns as f64 / l.calls as f64 / scale
        }
    };
    let per_op = |name: &str| {
        let l = layer(name);
        if l.ops == 0 {
            0.0
        } else {
            l.total_ns as f64 / l.ops as f64
        }
    };
    let jobs = replay.jobs.max(1) as f64;
    let solve_ms = per_call("portfolio.solve", 1e6);
    let restart_ms_sum = layer("portfolio.restarts").total_ns as f64 / 1e6 / jobs;
    println!(
        "accounting: portfolio.solve_ms {solve_ms:.3} = restarts {restart_ms_sum:.3} + self {:.3} per job",
        solve_ms - restart_ms_sum
    );
    m.extend([
        metric("io.request_json_parse_us", per_call("io.request_json_parse", 1e3), "us"),
        metric("io.circuit_resolve_us", per_call("io.circuit_resolve", 1e3), "us"),
        metric("io.cache_key_us", per_call("io.cache_key", 1e3), "us"),
        metric(
            "io.request_bytes",
            replay.request_bytes as f64 / replay.requests.max(1) as f64,
            "bytes",
        ),
        metric("portfolio.solve_ms", solve_ms, "ms"),
        metric("portfolio.restart_ms_sum", restart_ms_sum, "ms"),
        metric("portfolio.self_ms", solve_ms - restart_ms_sum, "ms"),
        metric("portfolio.report_json_us", per_call("portfolio.report_json", 1e3), "us"),
        metric("portfolio.restarts_per_job", replay.restarts as f64 / jobs, "count"),
    ]);
    for engine in ["seqpair", "hbtree", "tempering", "deterministic", "hier"] {
        m.push(metric(
            format!("engine.{engine}.restart_ms"),
            per_call(&format!("engine.{engine}"), 1e6),
            "ms",
        ));
    }
    for lane in ["seqpair", "hbtree", "tempering"] {
        let stats = replay.lanes.get(lane).copied().unwrap_or_default();
        let busy_s = layer(&format!("engine.{lane}")).total_ns as f64 / 1e9;
        let moves = stats.moves as f64;
        m.extend([
            metric(format!("anneal.{lane}.moves"), moves, "count"),
            metric(
                format!("anneal.{lane}.moves_per_s"),
                if busy_s > 0.0 { moves / busy_s } else { 0.0 },
                "1/s",
            ),
            metric(
                format!("anneal.{lane}.acceptance"),
                if moves > 0.0 { stats.accepted / moves } else { 0.0 },
                "ratio",
            ),
        ]);
    }
    let hier_runs = replay.hier_runs.max(1) as f64;
    m.extend([
        metric(
            "shapefn.hier_subsolve_ms",
            layer("shapefn.hier_subsolve").total_ns as f64 / 1e6 / hier_runs,
            "ms",
        ),
        metric(
            "shapefn.hier_subsolve_calls",
            layer("shapefn.hier_subsolve").calls as f64 / hier_runs,
            "count",
        ),
        metric(
            "shapefn.hier_compose_ms",
            layer("shapefn.hier_run").self_ns as f64 / 1e6 / hier_runs,
            "ms",
        ),
        metric("shapefn.deterministic_ms", per_call("shapefn.deterministic", 1e6), "ms"),
        metric("shapefn.enumeration_won_share", replay.enumeration_won as f64 / hier_runs, "ratio"),
        metric("circuit.metrics_ms", per_call("circuit.metrics", 1e6), "ms"),
        metric("circuit.overlap_scan_ms", per_call("circuit.overlap_scan", 1e6), "ms"),
        metric("circuit.delta_hpwl_ns", per_op("circuit.delta_hpwl"), "ns"),
        metric("kernel.contour_place_ns", per_op("kernel.contour_place"), "ns"),
        metric("kernel.pack_btree_ns", per_op("kernel.pack_btree"), "ns"),
        metric("kernel.pack_lcs_ns", per_op("kernel.pack_lcs"), "ns"),
        metric(
            "trace.solve_overhead_share",
            if replay.served_solve_ms > 0.0 {
                replay.replay_solve_ms / replay.served_solve_ms - 1.0
            } else {
                0.0
            },
            "ratio",
        ),
        metric("trace.span_cost_ns", trace::span_cost_ns(), "ns"),
        metric("trace.spans_per_job", spans.len() as f64 / replay.requests.max(1) as f64, "count"),
    ]);
    Ok(m)
}
