//! The typed shard client: [`RemoteShard`] speaks the line protocol to a
//! `serve --shard` worker and implements [`ShardBackend`], so the
//! coordinator's scatter-gather logic (`coconut_core::ShardSet`) is
//! *identical* code over local and remote shards — the in-process
//! `LocalShard` is the bit-identity oracle for this client.
//!
//! Reliability model: one connection per shard, requests serialized under
//! a mutex (the coordinator fans out across shards, not across requests to
//! one shard). Every request gets a bounded retry budget with capped
//! exponential backoff; refused connections and mid-request I/O errors
//! reconnect and retry until the budget — or the query's deadline — runs
//! out, then surface a typed [`Error::Unavailable`].
//!
//! A shard that exhausts its retry budget trips a **circuit breaker**: for
//! a capped, doubling hold-off window further requests fail fast with
//! `Unavailable` (no network attempts), so a dead shard costs one failed
//! round per window instead of a full retry budget per query. The first
//! request after the window acts as the re-probe — on success the breaker
//! resets; on failure the hold-off doubles up to
//! [`ClientConfig::down_backoff_cap`]. [`RemoteShard::probe`] sends an
//! explicit `PING` health probe that bypasses the breaker.
//!
//! Fault injection (chaos tests): the `client.connect` and `client.io`
//! [`coconut_storage::fault`] sites fire on this module's socket
//! operations, exercising the retry and breaker paths deterministically.
//!
//! Distances travel as shortest-roundtrip decimal strings (Rust's default
//! `f64`/`f32` `Display`), which reparse to the identical bits; that plus
//! the deterministic merge order in `ShardSet` is what makes distributed
//! answers bit-identical to single-node ones.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::ops::Range;
use std::sync::Arc;
use std::time::Duration;

use coconut_core::{ShardBackend, ShardInfo};
use coconut_series::index::Answer;
use coconut_series::Value;
use coconut_storage::{Deadline, Error, Result};
use parking_lot::Mutex;

use crate::metrics::ShardClientMetrics;

/// Timeouts and retry budget for one shard connection.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// TCP connect timeout per attempt.
    pub connect_timeout: Duration,
    /// Read timeout while waiting for a reply (also bounded by the query's
    /// deadline when one is set).
    pub request_timeout: Duration,
    /// Retry attempts after the first failure (so `retries = 3` means up
    /// to four attempts total).
    pub retries: u32,
    /// First backoff sleep; doubles per retry.
    pub backoff_start: Duration,
    /// Upper bound on one backoff sleep.
    pub backoff_cap: Duration,
    /// First circuit-breaker hold-off after a shard exhausts its retry
    /// budget; doubles per consecutive failure.
    pub down_backoff_start: Duration,
    /// Upper bound on the circuit-breaker hold-off.
    pub down_backoff_cap: Duration,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_timeout: Duration::from_secs(1),
            request_timeout: Duration::from_secs(10),
            retries: 3,
            backoff_start: Duration::from_millis(25),
            backoff_cap: Duration::from_millis(500),
            down_backoff_start: Duration::from_millis(250),
            down_backoff_cap: Duration::from_secs(5),
        }
    }
}

/// Connect to `addr`, retrying refused/failed attempts with capped
/// exponential backoff. Used by load generators whose server may still be
/// binding when the first client starts.
pub fn connect_with_retry(
    addr: &str,
    attempts: u32,
    backoff_start: Duration,
    backoff_cap: Duration,
) -> std::io::Result<TcpStream> {
    let mut backoff = backoff_start;
    let mut last = None;
    for attempt in 0..attempts.max(1) {
        if attempt > 0 {
            std::thread::sleep(backoff);
            backoff = (backoff * 2).min(backoff_cap);
        }
        match TcpStream::connect(addr) {
            Ok(stream) => return Ok(stream),
            Err(e) => last = Some(e),
        }
    }
    Err(last.unwrap_or_else(|| std::io::Error::other("no connect attempts made")))
}

/// Circuit-breaker state: while `until` is in the future, requests fail
/// fast without touching the network.
struct DownState {
    until: Option<std::time::Instant>,
    /// The hold-off the *next* trip will use (doubles per trip, capped).
    backoff: Duration,
}

/// A [`ShardBackend`] over a TCP connection to a `serve --shard` worker.
pub struct RemoteShard {
    addr: String,
    resolved: SocketAddr,
    range: Range<u64>,
    config: ClientConfig,
    conn: Mutex<Option<BufReader<TcpStream>>>,
    down: Mutex<DownState>,
    metrics: Option<Arc<ShardClientMetrics>>,
}

impl RemoteShard {
    /// A client for the shard at `addr`, which the coordinator's partition
    /// map assigns the slice `range`. No connection is made until the
    /// first request. `metrics` (when given) records requests, retries,
    /// unavailability, and candidate counts for this shard.
    pub fn new(
        addr: impl Into<String>,
        range: Range<u64>,
        config: ClientConfig,
        metrics: Option<Arc<ShardClientMetrics>>,
    ) -> Result<Self> {
        let addr = addr.into();
        let resolved = addr
            .to_socket_addrs()
            .map_err(|e| Error::invalid(format!("cannot resolve shard address {addr}: {e}")))?
            .next()
            .ok_or_else(|| Error::invalid(format!("shard address {addr} resolves to nothing")))?;
        let down = Mutex::new(DownState {
            until: None,
            backoff: config.down_backoff_start,
        });
        Ok(RemoteShard {
            addr,
            resolved,
            range,
            config,
            conn: Mutex::new(None),
            down,
            metrics,
        })
    }

    /// The shard's address as given at construction.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// The slice the partition map assigns this shard.
    pub fn range(&self) -> Range<u64> {
        self.range.clone()
    }

    /// True while the circuit breaker holds this shard down (requests fail
    /// fast without network attempts).
    pub fn is_down(&self) -> bool {
        self.down
            .lock()
            .until
            .is_some_and(|t| t > std::time::Instant::now())
    }

    /// Trip the breaker: hold requests off for the current backoff window,
    /// then double it (capped) for the next trip.
    fn mark_down(&self) {
        let mut down = self.down.lock();
        let hold = down.backoff;
        down.until = Some(std::time::Instant::now() + hold);
        down.backoff = (down.backoff * 2).min(self.config.down_backoff_cap);
    }

    /// Reset the breaker after a successful round trip.
    fn mark_up(&self) {
        let mut down = self.down.lock();
        down.until = None;
        down.backoff = self.config.down_backoff_start;
    }

    /// Explicit health probe: one `PING` round trip, bypassing the circuit
    /// breaker (this *is* the re-probe). Success resets the breaker.
    pub fn probe(&self) -> Result<()> {
        let mut conn = self.conn.lock();
        let result = self.request_locked(&mut conn, "PING", Deadline::NONE);
        drop(conn);
        match result {
            Ok(_) => {
                self.mark_up();
                Ok(())
            }
            Err(e) => {
                if e.is_unavailable() {
                    self.mark_down();
                }
                Err(e)
            }
        }
    }

    /// Send one request line and read the one-line reply, retrying with
    /// backoff on connection failures. `OK ...` replies return the text
    /// after `OK `; `ERR ...` replies map to typed errors. While the
    /// circuit breaker is tripped the request fails fast; the first
    /// request after the hold-off window re-probes the shard.
    fn request(&self, line: &str, deadline: Deadline) -> Result<String> {
        if self.is_down() {
            if let Some(m) = &self.metrics {
                m.requests.inc();
                m.unavailable.inc();
            }
            return Err(Error::unavailable(format!(
                "shard {}: marked down by the circuit breaker, awaiting re-probe",
                self.addr
            )));
        }
        let mut conn = self.conn.lock();
        if let Some(m) = &self.metrics {
            m.requests.inc();
            m.in_flight.set(1.0);
        }
        let result = self.request_locked(&mut conn, line, deadline);
        drop(conn);
        if let Some(m) = &self.metrics {
            m.in_flight.set(0.0);
            if matches!(&result, Err(e) if e.is_unavailable()) {
                m.unavailable.inc();
            }
        }
        match &result {
            Ok(_) => self.mark_up(),
            // Only transport-level unavailability trips the breaker; typed
            // server replies (deadline, invalid) prove the shard is alive.
            Err(e) if e.is_unavailable() => self.mark_down(),
            Err(_) => self.mark_up(),
        }
        result
    }

    fn request_locked(
        &self,
        conn: &mut Option<BufReader<TcpStream>>,
        line: &str,
        deadline: Deadline,
    ) -> Result<String> {
        let mut backoff = self.config.backoff_start;
        let mut last_err = String::new();
        for attempt in 0..=self.config.retries {
            if attempt > 0 {
                if let Some(m) = &self.metrics {
                    m.retries.inc();
                }
                let mut sleep = backoff;
                if let Some(at) = deadline.instant() {
                    let left = at.saturating_duration_since(std::time::Instant::now());
                    if left.is_zero() {
                        break;
                    }
                    sleep = sleep.min(left);
                }
                std::thread::sleep(sleep);
                backoff = (backoff * 2).min(self.config.backoff_cap);
            }
            deadline.check().map_err(|_| {
                Error::unavailable(format!(
                    "shard {}: deadline expired after {attempt} attempts ({last_err})",
                    self.addr
                ))
            })?;
            match self.attempt(conn, line, deadline) {
                Ok(reply) => return self.parse_reply(reply),
                Err(e) => {
                    *conn = None; // a failed stream is not reusable
                    last_err = e.to_string();
                }
            }
        }
        Err(Error::unavailable(format!(
            "shard {}: {last_err} after {} attempts",
            self.addr,
            self.config.retries + 1
        )))
    }

    /// One write/read round trip over the (re)connected stream.
    fn attempt(
        &self,
        conn: &mut Option<BufReader<TcpStream>>,
        line: &str,
        deadline: Deadline,
    ) -> std::io::Result<String> {
        let reader = match conn {
            Some(reader) => reader,
            None => {
                if coconut_storage::fault::fires("client.connect").is_some() {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::ConnectionRefused,
                        "injected fault: client.connect",
                    ));
                }
                let stream =
                    TcpStream::connect_timeout(&self.resolved, self.config.connect_timeout)?;
                stream.set_nodelay(true)?;
                conn.insert(BufReader::new(stream))
            }
        };
        if coconut_storage::fault::fires("client.io").is_some() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::ConnectionReset,
                "injected fault: client.io",
            ));
        }
        let mut read_timeout = self.config.request_timeout;
        if let Some(at) = deadline.instant() {
            let left = at.saturating_duration_since(std::time::Instant::now());
            read_timeout = read_timeout.min(left.max(Duration::from_millis(1)));
        }
        reader.get_ref().set_read_timeout(Some(read_timeout))?;
        reader.get_ref().write_all(format!("{line}\n").as_bytes())?;
        let mut reply = String::new();
        if reader.read_line(&mut reply)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "shard closed the connection",
            ));
        }
        Ok(reply.trim_end().to_string())
    }

    /// Map a wire reply to the text after `OK ` or a typed error.
    fn parse_reply(&self, reply: String) -> Result<String> {
        if let Some(body) = reply.strip_prefix("OK ") {
            return Ok(body.to_string());
        }
        let msg = format!("shard {}: {reply}", self.addr);
        if reply.starts_with("ERR deadline:") {
            Err(Error::deadline(msg))
        } else if reply.starts_with("ERR unavailable:") || reply.starts_with("ERR busy:") {
            Err(Error::unavailable(msg))
        } else if reply.starts_with("ERR io:") {
            // Keep the category across the wire: a shard's injected or
            // real I/O failure must not surface as a client usage error.
            Err(Error::Io(std::io::Error::other(msg)))
        } else if reply.starts_with("ERR corrupt:") {
            Err(Error::corrupt(msg))
        } else {
            Err(Error::invalid(msg))
        }
    }

    /// Record hit-count contribution to the candidates counter.
    fn note_candidates(&self, n: usize) {
        if let Some(m) = &self.metrics {
            m.candidates.add(n as u64);
        }
    }
}

/// Serialize a query vector as the protocol's `q=v:` literal form. `f32`
/// `Display` is shortest-roundtrip, so the worker reparses identical bits.
fn fmt_query(query: &[Value]) -> String {
    let mut out = String::from("q=v:");
    for (i, v) in query.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&v.to_string());
    }
    out
}

/// The `deadline_ms=` argument for the remaining budget, when one is set.
fn fmt_deadline(deadline: Deadline) -> String {
    match deadline.instant() {
        Some(at) => {
            let left = at.saturating_duration_since(std::time::Instant::now());
            format!(" deadline_ms={}", left.as_millis().max(1))
        }
        None => String::new(),
    }
}

/// The `bound=` argument, omitted when the bound is infinite (the wire
/// default).
fn fmt_bound(bound: f64) -> String {
    if bound.is_finite() {
        format!(" bound={bound}")
    } else {
        String::new()
    }
}

/// Pull `key=` from a reply's `key=value` fields.
fn field<'a>(body: &'a str, key: &str) -> Result<&'a str> {
    body.split_whitespace()
        .find_map(|tok| tok.strip_prefix(key))
        .ok_or_else(|| Error::corrupt(format!("shard reply is missing {key} in {body:?}")))
}

fn field_u64(body: &str, key: &str) -> Result<u64> {
    let raw = field(body, key)?;
    raw.parse()
        .map_err(|_| Error::corrupt(format!("shard reply field {key}{raw} is not an integer")))
}

/// Parse `hits=none|p:d,p:d,...` into an answer list.
fn parse_hits(body: &str) -> Result<Vec<Answer>> {
    let hits = field(body, "hits=")?;
    if hits == "none" {
        return Ok(Vec::new());
    }
    hits.split(',')
        .map(|pair| {
            let (pos, dist) = pair
                .split_once(':')
                .ok_or_else(|| Error::corrupt(format!("malformed hit {pair:?}")))?;
            Ok(Answer {
                pos: pos
                    .parse()
                    .map_err(|_| Error::corrupt(format!("malformed hit position {pos:?}")))?,
                dist: dist
                    .parse()
                    .map_err(|_| Error::corrupt(format!("malformed hit distance {dist:?}")))?,
            })
        })
        .collect()
}

/// Parse the `start= end= covered= seq= runs=` fields of a shard reply.
fn parse_shard_info(body: &str) -> Result<ShardInfo> {
    Ok(ShardInfo {
        start: field_u64(body, "start=")?,
        end: field_u64(body, "end=")?,
        covered_end: field_u64(body, "covered=")?,
        seq: field_u64(body, "seq=")?,
        runs: field_u64(body, "runs=")?,
    })
}

impl ShardBackend for RemoteShard {
    fn slice(&self) -> Range<u64> {
        self.range.clone()
    }

    fn info(&self) -> Result<ShardInfo> {
        let body = self.request("SHARD-INFO", Deadline::NONE)?;
        parse_shard_info(&body)
    }

    fn build(&self, upto: u64) -> Result<ShardInfo> {
        let upto = upto.clamp(self.range.start, self.range.end);
        let body = self.request(
            &format!(
                "BUILD start={} end={} upto={upto}",
                self.range.start, self.range.end
            ),
            Deadline::NONE,
        )?;
        parse_shard_info(&body)
    }

    fn knn(
        &self,
        query: &[Value],
        k: usize,
        bound: f64,
        deadline: Deadline,
    ) -> Result<Vec<Answer>> {
        let line = format!(
            "KNN k={k} {}{}{}",
            fmt_query(query),
            fmt_deadline(deadline),
            fmt_bound(bound)
        );
        let body = self.request(&line, deadline)?;
        let hits = parse_hits(&body)?;
        self.note_candidates(hits.len());
        Ok(hits)
    }

    fn range(&self, query: &[Value], epsilon: f64, deadline: Deadline) -> Result<Vec<Answer>> {
        let line = format!(
            "RANGE eps={epsilon} {}{}",
            fmt_query(query),
            fmt_deadline(deadline)
        );
        let body = self.request(&line, deadline)?;
        let hits = parse_hits(&body)?;
        self.note_candidates(hits.len());
        Ok(hits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replies_parse_and_errors_are_typed() {
        let shard = RemoteShard::new(
            "127.0.0.1:1", // never connected to in this test
            0..10,
            ClientConfig::default(),
            None,
        )
        .unwrap();
        let hits = parse_hits("knn k=2 hits=3:1.5e300,9:1.75").unwrap();
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].dist.to_bits(), 1.5e300f64.to_bits());
        assert_eq!(hits[1].pos, 9);
        assert!(parse_hits("range eps=1 hits=none").unwrap().is_empty());
        let info = parse_shard_info("shard-info start=5 end=10 covered=7 seq=4 runs=2").unwrap();
        assert_eq!((info.start, info.end, info.covered_end), (5, 10, 7));

        assert!(shard
            .parse_reply("ERR deadline: too slow".into())
            .unwrap_err()
            .is_deadline());
        assert!(shard
            .parse_reply("ERR busy: admission queue full".into())
            .unwrap_err()
            .is_unavailable());
        assert!(matches!(
            shard.parse_reply("ERR parse: nonsense".into()),
            Err(Error::InvalidArg(_))
        ));
        assert!(matches!(
            shard.parse_reply("ERR io: injected fault at atomic.fsync".into()),
            Err(Error::Io(_))
        ));
        assert!(matches!(
            shard.parse_reply("ERR corrupt: checksum mismatch".into()),
            Err(Error::Corrupt(_))
        ));
    }

    #[test]
    fn unreachable_shard_is_typed_unavailable_within_budget() {
        // Port 1 on localhost refuses immediately; the retry budget should
        // be exhausted quickly and surface Unavailable.
        let shard = RemoteShard::new(
            "127.0.0.1:1",
            0..10,
            ClientConfig {
                retries: 2,
                backoff_start: Duration::from_millis(1),
                backoff_cap: Duration::from_millis(2),
                ..ClientConfig::default()
            },
            None,
        )
        .unwrap();
        let started = std::time::Instant::now();
        let err = shard.info().unwrap_err();
        assert!(err.is_unavailable(), "{err}");
        assert!(err.to_string().contains("3 attempts"), "{err}");
        assert!(started.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn circuit_breaker_fails_fast_then_reprobes_after_holdoff() {
        let shard = RemoteShard::new(
            "127.0.0.1:1", // refuses instantly
            0..10,
            ClientConfig {
                retries: 0,
                backoff_start: Duration::from_millis(1),
                backoff_cap: Duration::from_millis(1),
                down_backoff_start: Duration::from_millis(40),
                down_backoff_cap: Duration::from_millis(80),
                ..ClientConfig::default()
            },
            None,
        )
        .unwrap();
        assert!(!shard.is_down());
        // First failure trips the breaker...
        assert!(shard.info().unwrap_err().is_unavailable());
        assert!(shard.is_down());
        // ...and while tripped, requests fail fast without touching the
        // network (the error names the breaker).
        let started = std::time::Instant::now();
        let err = shard.info().unwrap_err();
        assert!(err.to_string().contains("circuit breaker"), "{err}");
        assert!(started.elapsed() < Duration::from_millis(20));
        // After the hold-off window the next request re-probes (and fails
        // again here, doubling the hold-off up to the cap).
        std::thread::sleep(Duration::from_millis(50));
        let err = shard.info().unwrap_err();
        assert!(!err.to_string().contains("circuit breaker"), "{err}");
        assert!(shard.is_down());
        // An explicit probe bypasses the breaker.
        assert!(shard.probe().is_err());
    }

    #[test]
    fn query_serialization_round_trips_f32_bits() {
        let q: Vec<Value> = vec![1.5, -0.25, 3.0e-7, f32::MIN_POSITIVE];
        let line = fmt_query(&q);
        let parsed: Vec<Value> = line
            .strip_prefix("q=v:")
            .unwrap()
            .split(',')
            .map(|t| t.parse().unwrap())
            .collect();
        for (a, b) in q.iter().zip(&parsed) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
