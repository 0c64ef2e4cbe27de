//! The closed-loop client: each connection sends its next request only after
//! the previous answer arrived, until the window closes.

use crate::plan::Plan;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// One answered (or failed) request of the window.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Plan index of the request.
    pub index: u64,
    /// Client round trip: from the send until the full reply line, or the
    /// final `report` frame of a streamed job (ms).
    pub rtt_ms: f64,
    /// The final reply line. The report body of a hit whose body matched
    /// the primed one is cut out to keep memory flat.
    pub reply: String,
    /// When the answer completed, in seconds since the window opened.
    pub done_s: f64,
    /// Daemon CPU time (ms) read right after the answer, taken for the last
    /// request of each plan cycle only.
    pub cpu_ms: Option<f64>,
    /// Lines received for the request (frames of a streamed job).
    pub frames: u32,
    /// For requests repeating a primed key: whether the report body was
    /// byte-identical to the primed (miss) body.
    pub same_as_primed: Option<bool>,
    /// Transport failure (connect, send, receive), if any.
    pub error: Option<String>,
}

/// The outcome of a timed window.
#[derive(Debug)]
pub struct Window {
    /// Every request issued, in completion order per connection.
    pub samples: Vec<Sample>,
    /// Wall time from the first send until the last answer (s).
    pub wall_s: f64,
}

/// Byte range of the escaped `report` string inside an envelope or frame,
/// without its quotes. Inside a JSON string every quote is escaped, so the
/// unescaped pattern `"report":"` can only be the key itself.
pub fn report_span(line: &str) -> Option<(usize, usize)> {
    let start = line.find("\"report\":\"")? + "\"report\":\"".len();
    let bytes = line.as_bytes();
    let mut i = start;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'"' => return Some((start, i)),
            _ => i += 1,
        }
    }
    None
}

/// A connection speaking the line protocol.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn open(addr: &str) -> std::io::Result<Conn> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        writer.set_read_timeout(Some(Duration::from_secs(150)))?;
        Ok(Conn { reader: BufReader::new(writer.try_clone()?), writer })
    }

    /// Sends `line` and reads until the final answer. Returns the final
    /// line and the number of lines read.
    fn turn(&mut self, line: &str, stream: bool) -> std::io::Result<(String, u32)> {
        let mut out = Vec::with_capacity(line.len() + 1);
        out.extend_from_slice(line.as_bytes());
        out.push(b'\n');
        self.writer.write_all(&out)?;
        let mut frames = 0;
        loop {
            let mut reply = String::new();
            if self.reader.read_line(&mut reply)? == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "daemon closed the connection",
                ));
            }
            frames += 1;
            // a streamed job ends with its report frame; anything that is
            // not a frame is a plain envelope and ends the turn as well
            let is_progress = stream
                && reply.starts_with("{\"frame\":")
                && !reply.starts_with("{\"frame\":\"report\"");
            if !is_progress {
                reply.truncate(reply.trim_end().len());
                return Ok((reply, frames));
            }
        }
    }
}

/// Runs `lane` once per connection and collects the results. The calling
/// thread runs the first connection, so the client uses one thread per
/// connection and no more.
fn per_connection<T: Send>(connections: usize, lane: impl Fn() -> T + Sync) -> Vec<T> {
    std::thread::scope(|scope| {
        let others: Vec<_> = (1..connections).map(|_| scope.spawn(&lane)).collect();
        let mut all = vec![lane()];
        all.extend(
            others.into_iter().map(|h| h.join().expect("client connection thread panicked")),
        );
        all
    })
}

/// Reads the daemon's CPU time in milliseconds.
pub type CpuProbe<'a> = &'a (dyn Fn() -> Option<f64> + Sync);

/// Runs the closed loops of `plan` against `addr` for `seconds`. A request
/// is issued only while the window is open; answers to issued requests are
/// awaited. `primed[k]` holds the escaped report body of working-set key `k`
/// when the cache was primed.
pub fn run(
    addr: &str,
    plan: &Plan,
    primed: &[Option<String>],
    seconds: f64,
    cpu: CpuProbe<'_>,
) -> Window {
    let cursor = AtomicU64::new(0);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let lane = || drive(addr, plan, primed, &cursor, start, deadline, cpu);
    let mut samples: Vec<Sample> = per_connection(plan.connections, lane).concat();
    let wall_s = start.elapsed().as_secs_f64();
    samples.sort_by_key(|s| s.index);
    Window { samples, wall_s }
}

fn drive(
    addr: &str,
    plan: &Plan,
    primed: &[Option<String>],
    cursor: &AtomicU64,
    start: Instant,
    deadline: Instant,
    cpu: CpuProbe<'_>,
) -> Vec<Sample> {
    let mut samples = Vec::new();
    let mut conn = Conn::open(addr).map_err(|e| e.to_string());
    while Instant::now() < deadline {
        let index = cursor.fetch_add(1, Ordering::Relaxed);
        let request = plan.request(index);
        let sent = Instant::now();
        let outcome = match conn.as_mut() {
            Ok(c) => c.turn(&request.line, request.stream).map_err(|e| e.to_string()),
            Err(e) => Err(e.clone()),
        };
        let rtt_ms = sent.elapsed().as_secs_f64() * 1e3;
        let done_s = start.elapsed().as_secs_f64();
        let cpu_ms = if (index + 1).is_multiple_of(plan.cycle) { cpu() } else { None };
        let sample = match outcome {
            Ok((mut reply, frames)) => {
                let primed_body = request.key.and_then(|k| primed.get(k)).and_then(Option::as_ref);
                let mut same_as_primed = None;
                if let (Some(body), Some((s, e))) = (primed_body, report_span(&reply)) {
                    let same = reply.as_bytes()[s..e] == *body.as_bytes();
                    if same {
                        reply.replace_range(s..e, "");
                    }
                    same_as_primed = Some(same);
                }
                Sample { index, rtt_ms, done_s, cpu_ms, reply, frames, same_as_primed, error: None }
            }
            Err(error) => {
                // the connection is in an unknown state: start a new one
                conn = Conn::open(addr).map_err(|e| e.to_string());
                Sample {
                    index,
                    rtt_ms,
                    done_s,
                    cpu_ms,
                    reply: String::new(),
                    frames: 0,
                    same_as_primed: None,
                    error: Some(error),
                }
            }
        };
        samples.push(sample);
    }
    samples
}

/// Sends every request of `lines` over `connections` closed loops and
/// returns the replies in input order (cache priming before the window).
pub fn prime(addr: &str, lines: &[&str], connections: usize) -> Result<Vec<String>, String> {
    let cursor = AtomicU64::new(0);
    let lane = || -> Result<Vec<(usize, String)>, String> {
        let mut conn = Conn::open(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let mut out = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed) as usize;
            let Some(line) = lines.get(i) else { return Ok(out) };
            let (reply, _) = conn.turn(line, false).map_err(|e| format!("priming: {e}"))?;
            out.push((i, reply));
        }
    };
    let mut replies: Vec<(usize, String)> =
        per_connection(connections, lane).into_iter().collect::<Result<Vec<_>, _>>()?.concat();
    replies.sort_by_key(|(i, _)| *i);
    Ok(replies.into_iter().map(|(_, r)| r).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_spans_skip_escaped_quotes() {
        let line = r#"{"id":1,"status":"ok","circuit":"x","report":"{\n  \"a\": \"b\\\"\"\n}\n"}"#;
        let (s, e) = report_span(line).unwrap();
        assert_eq!(&line[s..e], r#"{\n  \"a\": \"b\\\"\"\n}\n"#);
        assert_eq!(report_span(r#"{"status":"error","error":"no"}"#), None);
        // a key named inside an escaped string is not the report field
        let tricky = r#"{"error":"\"report\":\"x","report":"y"}"#;
        let (s, e) = report_span(tricky).unwrap();
        assert_eq!(&tricky[s..e], "y");
    }
}
