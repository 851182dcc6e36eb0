//! Load generation against a running server, with every response
//! checked against the in-process reference.

use crate::client::{Conn, Reply};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// A pre-rendered request and what its response must hold.
pub struct Request {
    pub bytes: Vec<u8>,
    pub expect: Expect,
    /// Queries the request carries (12 for a batch, 1 otherwise).
    pub queries: u64,
    /// Which request this is, numbered across the run's corpora.
    pub kind: usize,
}

pub enum Expect {
    /// The body must equal these bytes.
    Body(Vec<u8>),
    /// A `/batch` body: per slot, the answer count and truncation flag.
    Batch(Vec<(usize, bool)>),
}

/// What one load phase observed.
#[derive(Default)]
pub struct Tally {
    /// Per successful request, milliseconds until its answer was read:
    /// from when it was due in an open loop, from its write otherwise.
    pub latencies_ms: Vec<f64>,
    /// The request kind of each latency sample.
    pub kinds: Vec<usize>,
    /// When each latency sample's clock started.
    pub starts: Vec<Instant>,
    /// Per request, milliseconds between when it was due and when it
    /// was written: how late the generator sent.
    pub lag_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub non_200: u64,
    pub mismatches: u64,
    /// Queries inside successful requests.
    pub queries_ok: u64,
    /// From the first request due to the last response read.
    pub window: Duration,
}

impl Tally {
    /// Add a later phase: its window follows this one's.
    pub fn append(&mut self, other: Tally) {
        self.latencies_ms.extend(other.latencies_ms);
        self.kinds.extend(other.kinds);
        self.starts.extend(other.starts);
        self.lag_ms.extend(other.lag_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.non_200 += other.non_200;
        self.mismatches += other.mismatches;
        self.queries_ok += other.queries_ok;
        self.window += other.window;
    }

    /// Failures only: what a warm-up contributes to the result.
    pub fn add_failures(&mut self, warmup: &Tally) {
        self.attempted += warmup.attempted;
        self.failed += warmup.failed;
        self.non_200 += warmup.non_200;
        self.mismatches += warmup.mismatches;
    }

    pub fn qps(&self) -> f64 {
        self.queries_ok as f64 / self.window.as_secs_f64()
    }

    /// Account one exchange; latency runs from `from` to the answer.
    fn record(&mut self, request: &Request, from: Instant, lag: Duration, outcome: Outcome) {
        self.attempted += 1;
        self.lag_ms.push(crate::stats::ms(lag));
        match outcome {
            Outcome::Ok(done) => {
                self.latencies_ms.push(crate::stats::ms(done - from));
                self.kinds.push(request.kind);
                self.starts.push(from);
                self.queries_ok += request.queries;
            }
            Outcome::Status => {
                self.failed += 1;
                self.non_200 += 1;
            }
            Outcome::Mismatch => {
                self.failed += 1;
                self.mismatches += 1;
            }
            Outcome::Io => self.failed += 1,
        }
    }
}

enum Outcome {
    Ok(Instant),
    Status,
    Mismatch,
    Io,
}

/// A keep-alive connection that reconnects after an I/O error. The
/// whole run goes through the same few connections, so the server
/// serves it on the same handler threads from warm-up to the end.
pub struct Client {
    addr: SocketAddr,
    conn: Option<Conn>,
    polling: bool,
}

impl Client {
    /// A client of `addr`; with `polling`, its connections wait for
    /// answers by polling (see [`Conn::set_polling`]).
    pub fn new(addr: SocketAddr, polling: bool) -> Client {
        Client {
            addr,
            conn: None,
            polling,
        }
    }

    pub fn conn(&mut self) -> std::io::Result<&mut Conn> {
        if self.conn.is_none() {
            let mut conn = Conn::open(self.addr)?;
            conn.set_polling(self.polling)?;
            self.conn = Some(conn);
        }
        Ok(self.conn.as_mut().expect("just connected"))
    }

    fn exchange(&mut self, request: &Request) -> Outcome {
        let Ok(conn) = self.conn() else {
            return Outcome::Io;
        };
        let Ok(reply) = conn.send(&request.bytes) else {
            // Reconnect on the next request; this one failed.
            self.conn = None;
            return Outcome::Io;
        };
        let done = Instant::now();
        check(conn, &reply, &request.expect).map_or(Outcome::Ok(done), |o| o)
    }
}

fn check(conn: &Conn, reply: &Reply, expect: &Expect) -> Option<Outcome> {
    if reply.status != 200 {
        return Some(Outcome::Status);
    }
    let body = conn.body(reply);
    let ok = match expect {
        Expect::Body(want) => body == want.as_slice(),
        Expect::Batch(slots) => batch_slots(body).as_deref() == Some(slots.as_slice()),
    };
    (!ok).then_some(Outcome::Mismatch)
}

/// Per-slot `(answers, truncated)` of a `/batch` body, or `None` when
/// a slot failed or the body does not parse.
pub fn batch_slots(body: &[u8]) -> Option<Vec<(usize, bool)>> {
    let text = std::str::from_utf8(body).ok()?;
    let (slots, stats) = text.split_once("],\"stats\":")?;
    if slots.contains("\"error\"") || !stats.contains("\"failed\":0,") {
        return None;
    }
    let mut out = Vec::new();
    for slot in slots.split("{\"index\":").skip(1) {
        let answers = field(slot, "\"answers\":")?.parse().ok()?;
        let truncated = field(slot, "\"truncated\":")?.parse().ok()?;
        out.push((answers, truncated));
    }
    Some(out)
}

fn field<'a>(slot: &'a str, key: &str) -> Option<&'a str> {
    let rest = &slot[slot.find(key)? + key.len()..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(&rest[..end])
}

/// One connection, the next request written as soon as the previous
/// answer is read, requests taken round-robin, until `until`. Latency
/// counts from the write; lag is the generator's own gap between
/// reading one answer and writing the next request.
pub fn closed(client: &mut Client, requests: &[Request], until: Instant) -> Tally {
    let mut tally = Tally::default();
    let start = Instant::now();
    let mut due = start;
    let mut i = 0;
    while due < until {
        let request = &requests[i % requests.len()];
        i += 1;
        let sent = Instant::now();
        let outcome = client.exchange(request);
        tally.record(request, sent, sent - due, outcome);
        due = Instant::now();
    }
    tally.window = due - start;
    tally
}

/// How long before a due time the open loop stops sleeping and spins.
const SPIN: Duration = Duration::from_micros(200);

/// One thread per client shares one schedule of `rate` requests per
/// second from `start` to `until`; request `j` goes out on client
/// `j % clients.len()`. Latency counts from when a request was due, so a
/// stall also charges the requests queued behind it.
pub fn open(
    clients: &mut [Client],
    requests: &[Request],
    rate: f64,
    start: Instant,
    until: Instant,
) -> Tally {
    let connections = clients.len();
    let tallies: Vec<Tally> = std::thread::scope(|scope| {
        let workers: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(t, client)| {
                scope.spawn(move || {
                    let mut tally = Tally::default();
                    let mut j = t;
                    let mut last = start;
                    loop {
                        let due = start + Duration::from_secs_f64(j as f64 / rate);
                        let now = Instant::now();
                        // A server that falls behind leaves requests
                        // due but unsent at the end; they are not sent.
                        if due >= until || now >= until {
                            break;
                        }
                        // Sleep to just before the due time and spin the
                        // rest, yielding to the server: a sleep wakes up
                        // 50-100 µs late, and the latency would count that
                        // as the server's.
                        if due > now + SPIN {
                            std::thread::sleep(due - now - SPIN);
                        }
                        while Instant::now() < due {
                            std::thread::yield_now();
                        }
                        let sent = Instant::now();
                        let request = &requests[j % requests.len()];
                        let outcome = client.exchange(request);
                        tally.record(request, due, sent - due, outcome);
                        last = Instant::now();
                        j += connections;
                    }
                    tally.window = last.max(until) - start;
                    tally
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("load thread panicked"))
            .collect()
    });
    // The clients ran side by side: one window, the longest.
    let window = tallies.iter().map(|t| t.window).max().unwrap_or_default();
    let mut all = Tally::default();
    for t in tallies {
        all.append(t);
    }
    all.window = window;
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_bodies_parse_per_slot() {
        let body =
            b"{\"queries\":[{\"index\":0,\"query_id\":5,\"answers\":10,\"truncated\":false},\
{\"index\":1,\"query_id\":6,\"answers\":3,\"truncated\":true}],\"stats\":{\"queries\":2,\
\"threads\":1,\"failed\":0,\"shed\":0,\"degraded\":0,\"queries_per_sec\":9.0}}\n";
        assert_eq!(batch_slots(body), Some(vec![(10, false), (3, true)]));
    }

    #[test]
    fn failed_batch_slots_do_not_parse() {
        let body = b"{\"queries\":[{\"index\":0,\"error\":\"boom\"}],\"stats\":{\"queries\":1,\
\"threads\":1,\"failed\":1,\"shed\":0,\"degraded\":0,\"queries_per_sec\":9.0}}\n";
        assert_eq!(batch_slots(body), None);
    }
}
