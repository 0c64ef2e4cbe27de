//! The benchmark's own arithmetic: percentiles with the ten-beyond rule,
//! geometric means, and deltas of the daemon's `stats` snapshots.

use apls_service::json::Json;

/// Nearest-rank percentile `q` (in `(0, 1]`) of `sorted` (ascending), with
/// the number of samples that lie beyond it.
pub fn percentile(sorted: &[f64], q: f64) -> Option<(f64, usize)> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some((sorted[rank - 1], sorted.len() - rank))
}

/// A tail percentile, reported only when at least ten samples lie beyond
/// it: fewer cannot tell the tail from a single outlier.
pub fn tail(sorted: &[f64], q: f64) -> Option<(f64, usize)> {
    percentile(sorted, q).filter(|&(_, beyond)| beyond >= 10)
}

/// Median of `values` (any order): the mean of the middle pair for even
/// counts.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0 || !v.is_finite()) {
        return None;
    }
    Some((values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp())
}

/// One answered request, as the pass split needs it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Answer {
    /// Whether the reply was ok.
    pub ok: bool,
    /// Client round trip (ms).
    pub rtt_ms: f64,
    /// When the answer completed, in seconds since the window opened.
    pub done_s: f64,
    /// Daemon CPU time (ms) read after the answer; present on the last
    /// request of every pass.
    pub cpu_ms: Option<f64>,
}

/// One complete pass over a plan's cycle. Every pass does the same work,
/// so the spread between passes is the machine's, and a median over them
/// sets aside the passes a burst of outside load slowed down.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pass {
    /// From the end of the previous pass (or the window's start) until the
    /// answer to the pass's last request.
    pub seconds: f64,
    /// Requests of the pass answered ok.
    pub ok: usize,
    /// Daemon CPU time over the same interval (ms).
    pub cpu_ms: f64,
    /// Median round trip of the pass's ok requests (ms).
    pub p50_ms: f64,
}

/// Splits `answers` (whole cycles, by plan index) into passes of `cycle`
/// requests. A pass ends with the answer to its last request, which carries
/// the CPU reading; `cpu0` is the reading at the window's start.
pub fn passes(answers: &[Answer], cycle: usize, cpu0: f64) -> Result<Vec<Pass>, String> {
    let (mut t0, mut c0) = (0.0, cpu0);
    let mut out = Vec::new();
    for (p, chunk) in answers.chunks_exact(cycle).enumerate() {
        let last = chunk[cycle - 1];
        let cpu = last.cpu_ms.ok_or("no CPU reading at a pass end")?;
        if last.done_s <= t0 {
            return Err(format!("pass {p} ended before the one before it"));
        }
        let rtts: Vec<f64> = chunk.iter().filter(|a| a.ok).map(|a| a.rtt_ms).collect();
        let p50_ms = median(&rtts).unwrap_or(0.0);
        out.push(Pass { seconds: last.done_s - t0, ok: rtts.len(), cpu_ms: cpu - c0, p50_ms });
        (t0, c0) = (last.done_s, cpu);
    }
    Ok(out)
}

/// The counters and histogram sums of one `stats` reply.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// `(name, value)` of every counter of the metrics registry, plus the
    /// cache's own counters as `cache.hits`, `cache.misses`, ….
    pub counters: Vec<(String, f64)>,
    /// `(name, sum, count)` of every histogram.
    pub histograms: Vec<(String, f64, f64)>,
}

impl Snapshot {
    /// Reads a `stats` reply line.
    pub fn parse(line: &str) -> Result<Snapshot, String> {
        let json = Json::parse(line)?;
        if json.get("status").and_then(Json::as_str) != Some("ok") {
            return Err(format!("stats reply is not ok: {line}"));
        }
        let mut snapshot = Snapshot::default();
        if let Some(Json::Obj(fields)) = json.get("cache") {
            for (name, value) in fields {
                if let Some(v) = value.as_f64() {
                    snapshot.counters.push((format!("cache.{name}"), v));
                }
            }
        }
        let metrics = json.get("metrics").ok_or("stats reply has no metrics")?;
        if let Some(Json::Obj(fields)) = metrics.get("counters") {
            for (name, value) in fields {
                snapshot.counters.push((name.clone(), value.as_f64().ok_or("bad counter")?));
            }
        }
        if let Some(Json::Obj(fields)) = metrics.get("histograms") {
            for (name, h) in fields {
                let sum = h.get("sum").and_then(Json::as_f64).ok_or("histogram without sum")?;
                let count =
                    h.get("count").and_then(Json::as_f64).ok_or("histogram without count")?;
                snapshot.histograms.push((name.clone(), sum, count));
            }
        }
        Ok(snapshot)
    }

    /// What happened between `before` and `self`.
    pub fn since(&self, before: &Snapshot) -> Delta {
        let counter = |s: &Snapshot, name: &str| {
            s.counters.iter().find(|(n, _)| n == name).map_or(0.0, |&(_, v)| v)
        };
        let histogram = |s: &Snapshot, name: &str| {
            s.histograms.iter().find(|(n, _, _)| n == name).map_or((0.0, 0.0), |&(_, a, b)| (a, b))
        };
        Delta {
            counters: self
                .counters
                .iter()
                .map(|(name, v)| (name.clone(), v - counter(before, name)))
                .collect(),
            histograms: self
                .histograms
                .iter()
                .map(|(name, sum, count)| {
                    let (s0, c0) = histogram(before, name);
                    (name.clone(), sum - s0, count - c0)
                })
                .collect(),
        }
    }
}

/// The difference of two `stats` snapshots.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Delta {
    counters: Vec<(String, f64)>,
    histograms: Vec<(String, f64, f64)>,
}

impl Delta {
    /// Increase of a counter (0 when the daemon does not export it).
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.iter().find(|(n, _)| n == name).map_or(0.0, |&(_, v)| v)
    }

    /// Mean of the observations a histogram gained (0 when it gained none).
    pub fn mean(&self, name: &str) -> f64 {
        match self.histograms.iter().find(|(n, _, _)| n == name) {
            Some(&(_, sum, count)) if count > 0.0 => sum / count,
            _ => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some((50.0, 50)));
        assert_eq!(percentile(&v, 0.9), Some((90.0, 10)));
        assert_eq!(percentile(&v, 0.99), Some((99.0, 1)));
        assert_eq!(percentile(&v, 1.0), Some((100.0, 0)));
        assert_eq!(percentile(&[7.0], 0.5), Some((7.0, 0)));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn tails_need_ten_samples_beyond() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&hundred, 0.9), Some((90.0, 10)));
        assert_eq!(tail(&hundred, 0.99), None);
        let ninety_nine: Vec<f64> = (1..=99).map(f64::from).collect();
        // p90 of 99 samples is the 90th: only 9 lie beyond it
        assert_eq!(tail(&ninety_nine, 0.9), None);
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&thousand, 0.99), Some((990.0, 10)));
    }

    #[test]
    fn medians_and_geomeans() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        let g = geomean(&[1.0, 100.0]).unwrap();
        assert!((g - 10.0).abs() < 1e-9);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[]), None);
    }

    #[test]
    fn passes_split_whole_cycles_at_their_last_answer() {
        let answer = |ok, rtt_ms, done_s, cpu_ms| Answer { ok, rtt_ms, done_s, cpu_ms };
        let answers = [
            answer(true, 3.0, 0.5, None),
            answer(true, 1.0, 0.4, None),
            answer(true, 2.0, 1.0, Some(110.0)),
            // the second pass: one failure, the last answer not the latest
            answer(false, 9.0, 1.5, None),
            answer(true, 4.0, 2.5, None),
            answer(true, 6.0, 2.0, Some(150.0)),
            // an incomplete third pass is left out
            answer(true, 1.0, 2.6, None),
        ];
        assert_eq!(
            passes(&answers, 3, 100.0).unwrap(),
            vec![
                Pass { seconds: 1.0, ok: 3, cpu_ms: 10.0, p50_ms: 2.0 },
                Pass { seconds: 1.0, ok: 2, cpu_ms: 40.0, p50_ms: 5.0 },
            ]
        );
        let mut no_cpu = answers;
        no_cpu[5].cpu_ms = None;
        assert!(passes(&no_cpu, 3, 100.0).is_err());
        let mut backwards = answers;
        backwards[5].done_s = 0.9;
        assert!(passes(&backwards, 3, 100.0).is_err());
    }

    fn stats_line(hits: u64, wakeups: u64, sum: f64, count: u64) -> String {
        format!(
            "{{\"status\":\"ok\",\"cache\":{{\"hits\":{hits},\"misses\":2,\"evictions\":0}},\"metrics\":{{\"counters\":{{\"readiness_wakeups_total\":{wakeups}}},\"gauges\":{{\"queue_depth\":3}},\"histograms\":{{\"admit_ms\":{{\"count\":{count},\"sum\":{sum},\"p50\":null,\"p95\":null,\"p99\":null,\"buckets\":[]}}}},\"infos\":{{}}}}}}"
        )
    }

    #[test]
    fn stats_deltas_reduce_counters_and_histogram_means() {
        let before = Snapshot::parse(&stats_line(5, 100, 2.0, 4)).unwrap();
        let after = Snapshot::parse(&stats_line(25, 160, 14.0, 10)).unwrap();
        let delta = after.since(&before);
        assert_eq!(delta.counter("cache.hits"), 20.0);
        assert_eq!(delta.counter("cache.misses"), 0.0);
        assert_eq!(delta.counter("readiness_wakeups_total"), 60.0);
        assert_eq!(delta.counter("no_such_counter"), 0.0);
        assert!((delta.mean("admit_ms") - 2.0).abs() < 1e-12);
        // a histogram that gained nothing has mean 0, not NaN
        assert_eq!(after.since(&after).mean("admit_ms"), 0.0);
        assert!(Snapshot::parse("{\"status\":\"error\"}").is_err());
    }
}
