//! Load generator: one connection to the daemon. An open loop runs two
//! threads — a sender that writes requests on a schedule and a reader —
//! and a pipelined phase runs on the reader alone, refilling its window as
//! replies arrive. Replies are matched to requests by the `seq` the daemon
//! echoes.
//!
//! Open-loop latency is measured from each request's *scheduled* send time,
//! so a stall that delays later sends is charged to those requests instead
//! of vanishing (coordinated omission). How late the sender itself ran is
//! reported separately. `busy`, `err`, and missing replies are failures,
//! never fast replies.

use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// How long to wait for outstanding replies once sending has stopped: the
/// daemon's default request timeout (5 s) plus slack. A reply later than
/// this is counted missing.
const REPLY_WAIT: Duration = Duration::from_secs(7);

/// Read timeout on the socket, so the reader can notice that the sender is
/// done and every reply it can expect has arrived.
const READ_POLL: Duration = Duration::from_millis(50);

/// The open-loop sender sleeps until this long before a request is due
/// and spins the rest of the way, so a late timer wake-up does not delay
/// the send and count as the daemon's latency.
const SPIN_NS: u64 = 200_000;

/// How requests are paced.
#[derive(Debug, Clone, Copy)]
pub enum Pace {
    /// Open loop: request `k` is due `k / rate` seconds after the start,
    /// whatever the replies do.
    Rate(f64),
    /// Pipelined: at most this many requests outstanding; each reply lets
    /// the next request go.
    Window(usize),
}

/// What came back for one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// `ns` reply whose score matches the expected bits.
    Scored,
    /// `ns` reply with different bits from in-process scoring.
    Mismatch,
    /// `busy`: shed by admission control.
    Busy,
    /// `err` (bad line, queue timeout, shutdown) or an unexpected reply.
    Error,
    /// No reply (or never sent).
    Missing,
}

/// One request of a phase; times are nanoseconds from the client's base.
#[derive(Debug, Clone, Copy)]
pub struct Request {
    pub seq: u64,
    pub due_ns: u64,
    pub sent_ns: u64,
    pub reply_ns: u64,
    pub outcome: Outcome,
    /// The score, for `Scored` and `Mismatch` replies.
    pub ns: f64,
}

/// The requests of one phase, in send order.
pub struct Phase {
    pub requests: Vec<Request>,
}

impl Phase {
    /// Requests answered with anything but a matching score.
    pub fn failed(&self) -> u64 {
        self.count(|o| matches!(o, Outcome::Busy | Outcome::Error | Outcome::Missing))
    }

    pub fn mismatched(&self) -> u64 {
        self.count(|o| o == Outcome::Mismatch)
    }

    fn count(&self, pred: impl Fn(Outcome) -> bool) -> u64 {
        self.requests.iter().filter(|r| pred(r.outcome)).count() as u64
    }

    /// Scheduled-send-to-reply latency of every scored request, ns.
    pub fn latencies_ns(&self) -> Vec<u64> {
        self.requests
            .iter()
            .filter(|r| r.outcome == Outcome::Scored)
            .map(|r| r.reply_ns.saturating_sub(r.due_ns))
            .collect()
    }

    /// Largest delay between a request's due time and its actual send.
    pub fn late_max_ms(&self) -> f64 {
        self.requests
            .iter()
            .map(|r| r.sent_ns.saturating_sub(r.due_ns))
            .max()
            .unwrap_or(0) as f64
            / 1e6
    }

    /// Scored requests per second from first send to last reply.
    pub fn scored_per_s(&self) -> f64 {
        let first = self.requests.iter().map(|r| r.sent_ns).min().unwrap_or(0);
        let last = self.requests.iter().map(|r| r.reply_ns).max().unwrap_or(0);
        let scored = self.count(|o| o == Outcome::Scored);
        scored as f64 / ((last.saturating_sub(first)) as f64 / 1e9).max(1e-9)
    }
}

/// One connection to the daemon.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    /// Bytes of a reply line cut off by a read timeout.
    pending: Vec<u8>,
    /// `seq` the daemon will assign to the next line sent: it numbers every
    /// line of a connection, commands included.
    next_seq: u64,
    base: Instant,
}

impl Client {
    /// Wrap a connected stream; times are measured from `base`.
    pub fn new(stream: TcpStream, base: Instant) -> std::io::Result<Client> {
        stream.set_nodelay(true)?;
        let reader = stream.try_clone()?;
        reader.set_read_timeout(Some(READ_POLL))?;
        Ok(Client {
            writer: stream,
            reader: BufReader::new(reader),
            pending: Vec::new(),
            next_seq: 1,
            base,
        })
    }

    /// Send one command line (`cmd ping`, `cmd stats`, `cmd stop`) and
    /// return its reply.
    pub fn command(&mut self, cmd: &str) -> std::io::Result<String> {
        self.writer.write_all(format!("cmd {cmd}\n").as_bytes())?;
        self.next_seq += 1;
        let deadline = Instant::now() + REPLY_WAIT;
        read_reply(&mut self.reader, &mut self.pending, || {
            Instant::now() < deadline
        })?
        .ok_or_else(|| std::io::Error::new(ErrorKind::TimedOut, format!("no reply to `cmd {cmd}`")))
    }

    /// Half-close the connection and wait until the daemon closes its side,
    /// which it does when its connection thread finishes.
    pub fn close(mut self) -> std::io::Result<()> {
        self.writer.shutdown(Shutdown::Write)?;
        let deadline = Instant::now() + REPLY_WAIT;
        loop {
            match read_reply(&mut self.reader, &mut self.pending, || {
                Instant::now() < deadline
            }) {
                Ok(Some(_)) => {}
                Ok(None) => {
                    return Err(std::io::Error::new(
                        ErrorKind::TimedOut,
                        "daemon kept the connection open",
                    ))
                }
                Err(e) if e.kind() == ErrorKind::UnexpectedEof => return Ok(()),
                Err(e) => return Err(e),
            }
        }
    }

    /// Send `n` requests cycling through `lines` (each ending in `\n`) at
    /// `pace`, and collect the replies. A reply's score must have the bits
    /// of `expected[k % lines.len()]`.
    pub fn run(&mut self, lines: &[Vec<u8>], expected: &[u64], n: usize, pace: Pace) -> Phase {
        let mut replies = Replies {
            first_seq: self.next_seq,
            expected,
            got: vec![(0, Outcome::Missing, f64::NAN); n],
            received: 0,
        };
        self.next_seq += n as u64;
        let start_ns = self.now_ns();
        let sends = match pace {
            Pace::Rate(rate) => self.open_loop(lines, n, rate, start_ns, &mut replies),
            Pace::Window(window) => self.pipelined(lines, n, window, &mut replies),
        };
        let requests = replies
            .got
            .into_iter()
            .enumerate()
            .map(|(k, (reply_ns, outcome, ns))| {
                let (due_ns, sent_ns) = sends.get(k).copied().unwrap_or((start_ns, start_ns));
                Request {
                    seq: replies.first_seq + k as u64,
                    due_ns,
                    sent_ns,
                    reply_ns,
                    outcome,
                    ns,
                }
            })
            .collect();
        Phase { requests }
    }

    fn now_ns(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// A sender thread writes request `k` when it is due; this thread
    /// reads the replies. Returns `(due, sent)` per request sent.
    fn open_loop(
        &mut self,
        lines: &[Vec<u8>],
        n: usize,
        rate: f64,
        start_ns: u64,
        replies: &mut Replies,
    ) -> Vec<(u64, u64)> {
        let base = self.base;
        let now_ns = move || base.elapsed().as_nanos() as u64;
        let sent_count = AtomicUsize::new(0);
        let sender_done = AtomicBool::new(false);
        let (writer, reader, pending) = (&mut self.writer, &mut self.reader, &mut self.pending);
        std::thread::scope(|s| {
            let sender = s.spawn(|| {
                let mut sends = Vec::with_capacity(n);
                for k in 0..n {
                    let due = start_ns + (k as f64 * 1e9 / rate) as u64;
                    let now = now_ns();
                    if due > now + SPIN_NS {
                        std::thread::sleep(Duration::from_nanos(due - now - SPIN_NS));
                    }
                    let mut sent = now_ns();
                    while sent < due {
                        std::hint::spin_loop();
                        sent = now_ns();
                    }
                    if writer.write_all(&lines[k % lines.len()]).is_err() {
                        break;
                    }
                    sends.push((due, sent));
                    sent_count.store(k + 1, Ordering::SeqCst);
                }
                sender_done.store(true, Ordering::SeqCst);
                sends
            });
            let mut last_progress = Instant::now();
            while replies.received < n {
                let keep_waiting = || {
                    !(sender_done.load(Ordering::SeqCst)
                        && (replies.received >= sent_count.load(Ordering::SeqCst)
                            || last_progress.elapsed() > REPLY_WAIT))
                };
                match read_reply(reader, pending, keep_waiting) {
                    Ok(Some(line)) => {
                        if replies.record(&line, lines.len(), now_ns()) {
                            last_progress = Instant::now();
                        }
                    }
                    Ok(None) | Err(_) => break,
                }
            }
            sender.join().expect("load generator sender panicked")
        })
    }

    /// Write `window` requests, then one more as each reply arrives, all
    /// on this thread: no handoff between threads per request. Returns
    /// `(sent, sent)` per request sent.
    fn pipelined(
        &mut self,
        lines: &[Vec<u8>],
        n: usize,
        window: usize,
        replies: &mut Replies,
    ) -> Vec<(u64, u64)> {
        let mut sends: Vec<(u64, u64)> = Vec::with_capacity(n);
        let send = |client: &mut Client, sends: &mut Vec<(u64, u64)>| {
            let at = client.now_ns();
            let ok = client
                .writer
                .write_all(&lines[sends.len() % lines.len()])
                .is_ok();
            if ok {
                sends.push((at, at));
            }
            ok
        };
        while sends.len() < window.min(n) && send(self, &mut sends) {}
        let mut last_progress = Instant::now();
        while replies.received < sends.len() {
            match read_reply(&mut self.reader, &mut self.pending, || {
                last_progress.elapsed() <= REPLY_WAIT
            }) {
                Ok(Some(line)) => {
                    if replies.record(&line, lines.len(), self.now_ns()) {
                        last_progress = Instant::now();
                        if sends.len() < n {
                            send(self, &mut sends);
                        }
                    }
                }
                Ok(None) | Err(_) => break,
            }
        }
        sends
    }
}

/// Replies of one phase, by request index.
struct Replies<'a> {
    first_seq: u64,
    expected: &'a [u64],
    /// `(reply time, outcome, score)` per request.
    got: Vec<(u64, Outcome, f64)>,
    received: usize,
}

impl Replies<'_> {
    /// Record a reply line read at `at_ns`. False if it answers no request
    /// of this phase, or one already answered.
    fn record(&mut self, line: &str, n_lines: usize, at_ns: u64) -> bool {
        let Some((k, outcome, ns)) =
            classify(line, self.first_seq, self.got.len(), n_lines, self.expected)
        else {
            return false;
        };
        if self.got[k].1 != Outcome::Missing {
            return false;
        }
        self.got[k] = (at_ns, outcome, ns);
        self.received += 1;
        true
    }
}

/// Match a reply line to its request: `(index, outcome, score)`. `None`
/// for a line that names no request of this phase.
fn classify(
    line: &str,
    first_seq: u64,
    n: usize,
    n_lines: usize,
    expected: &[u64],
) -> Option<(usize, Outcome, f64)> {
    let mut parts = line.splitn(3, ' ');
    let kind = parts.next()?;
    let seq: u64 = parts.next()?.parse().ok()?;
    let k = usize::try_from(seq.checked_sub(first_seq)?)
        .ok()
        .filter(|&k| k < n)?;
    Some(match kind {
        "ns" => match parts.next().and_then(|v| v.parse::<f64>().ok()) {
            Some(v) if v.to_bits() == expected[k % n_lines] => (k, Outcome::Scored, v),
            Some(v) => (k, Outcome::Mismatch, v),
            None => (k, Outcome::Error, f64::NAN),
        },
        "busy" => (k, Outcome::Busy, f64::NAN),
        _ => (k, Outcome::Error, f64::NAN),
    })
}

/// Read one reply line. Read timeouts keep partial bytes in `pending` and
/// retry while `keep_waiting()` holds; `Ok(None)` once it stops holding.
fn read_reply(
    reader: &mut BufReader<TcpStream>,
    pending: &mut Vec<u8>,
    keep_waiting: impl Fn() -> bool,
) -> std::io::Result<Option<String>> {
    loop {
        match reader.read_until(b'\n', pending) {
            Ok(_) if pending.last() == Some(&b'\n') => {
                let line = String::from_utf8_lossy(pending).trim_end().to_string();
                pending.clear();
                return Ok(Some(line));
            }
            Ok(_) => {
                return Err(std::io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "daemon closed the connection",
                ))
            }
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) =>
            {
                if !keep_waiting() {
                    return Ok(None);
                }
            }
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replies_classify_by_seq_and_bits() {
        let expected = [1.5f64.to_bits(), 2.5f64.to_bits()];
        assert_eq!(
            classify("ns 11 2.5", 10, 4, 2, &expected),
            Some((1, Outcome::Scored, 2.5))
        );
        assert_eq!(
            classify("ns 12 2.5", 10, 4, 2, &expected),
            Some((2, Outcome::Mismatch, 2.5))
        );
        assert!(matches!(
            classify("busy 13", 10, 4, 2, &expected),
            Some((3, Outcome::Busy, _))
        ));
        assert!(matches!(
            classify("err 10 timed out", 10, 4, 2, &expected),
            Some((0, Outcome::Error, _))
        ));
        assert_eq!(
            classify("ns 14 1.5", 10, 4, 2, &expected),
            None,
            "seq past the phase"
        );
        assert_eq!(
            classify("ns 9 1.5", 10, 4, 2, &expected),
            None,
            "seq before the phase"
        );
    }
}
