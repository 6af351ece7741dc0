//! The closed-loop load generator: clients on persistent connections,
//! each sending its next request as soon as the last one is answered.

use std::time::{Duration, Instant};

use crate::oracle::{mix, Kind, QueryPool};
use crate::proc::{Conn, Reply};
use crate::trace::Tracer;
use crate::Fail;

/// One request as the client saw it.
pub struct Sample {
    pub kind: Kind,
    /// Pool index of the query.
    pub q: usize,
    pub sent: Instant,
    pub done: Instant,
    pub reply: Reply,
    /// Inside the measured window (warm-up samples are checked, not timed).
    pub measured: bool,
}

impl Sample {
    pub fn latency_ms(&self) -> f64 {
        (self.done - self.sent).as_secs_f64() * 1e3
    }
}

/// The request a client sends `i`-th: a seeded pool index and the
/// workload's kind mix.
pub fn pick(seed: u64, client: usize, i: u64, pool: usize, knn_every: u64) -> (usize, Kind) {
    let q = (mix(seed, 3 + client as u64, i) % pool as u64) as usize;
    let kind = if knn_every == 1 || i % knn_every == knn_every - 1 {
        Kind::Knn
    } else {
        Kind::Exact
    };
    (q, kind)
}

/// Closed-loop load: `clients` threads, each with one persistent
/// connection, send back to back for `warmup` and then `window`. Every
/// `knn_every`-th request is a `KNN` (1 = all of them).
#[allow(clippy::too_many_arguments)]
pub fn closed_loop(
    addr: &str,
    clients: usize,
    seed: u64,
    pool: &QueryPool,
    knn_every: u64,
    warmup: Duration,
    window: Duration,
    tracer: &Tracer,
) -> Result<Vec<Sample>, Fail> {
    let lines: Vec<[String; 2]> = (0..pool.len())
        .map(|q| [pool.exact_line(q), pool.knn_line(q)])
        .collect();
    let conns = (0..clients)
        .map(|_| Conn::connect(addr))
        .collect::<Result<Vec<_>, _>>()?;
    let start = Instant::now();
    let measure_from = start + warmup;
    let end = measure_from + window;
    std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(c, mut conn)| {
                let lines = &lines;
                s.spawn(move || {
                    let mut out = Vec::new();
                    let mut i = 0u64;
                    loop {
                        let sent = Instant::now();
                        if sent >= end {
                            break;
                        }
                        let (q, kind) = pick(seed, c, i, lines.len(), knn_every);
                        let reply = conn.request(&lines[q][(kind == Kind::Knn) as usize]);
                        let done = Instant::now();
                        let request = (c as u64) << 32 | i;
                        tracer.record("socket.round_trip", None, Some(request), sent, done);
                        let lost = matches!(reply, Reply::Lost(_));
                        out.push(Sample {
                            kind,
                            q,
                            sent,
                            done,
                            reply,
                            measured: sent >= measure_from,
                        });
                        if lost {
                            break;
                        }
                        i += 1;
                    }
                    out
                })
            })
            .collect();
        let mut all = Vec::new();
        for h in handles {
            all.extend(
                h.join()
                    .map_err(|_| Fail::setup("a client thread panicked"))?,
            );
        }
        Ok(all)
    })
}
