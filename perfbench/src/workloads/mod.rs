//! The workloads. Each sets up several times (reporting the median
//! set-up time), measures for the run's window, then checks every answer
//! outside that window.

pub mod build_full;
pub mod fabric_knn;
pub mod serve_exact;

use std::path::Path;

use crate::loadgen::Sample;
use crate::proc::Reply;
use crate::report::{mean, median, quantile, Metrics};
use crate::{Ctx, Fail};

/// What checking a batch of samples found.
#[derive(Default)]
pub struct Checked {
    pub ok: u64,
    pub failed: u64,
    pub wrong: Vec<String>,
}

impl Checked {
    /// Check each sample with `check` (which returns an error text for a
    /// wrong answer); `ERR` replies and lost requests count as failed.
    pub fn run(
        samples: &[Sample],
        mut check: impl FnMut(&Sample, &str) -> Result<(), String>,
    ) -> Self {
        let mut c = Checked::default();
        for s in samples {
            match &s.reply {
                Reply::Ok(r) => {
                    c.ok += 1;
                    if let Err(e) = check(s, r) {
                        c.wrong.push(e);
                    }
                }
                Reply::Err(r) | Reply::Lost(r) => {
                    c.failed += 1;
                    eprintln!("perfbench: failed request: {r}");
                }
            }
        }
        c
    }
}

/// `qps`, `query_p50_ms` and `query_p90_ms` over the measured samples that
/// were answered. The rate's window runs from the first measured request
/// to the last reply.
pub fn query_metrics(samples: &[Sample], m: &mut Metrics) {
    let measured: Vec<&Sample> = samples
        .iter()
        .filter(|s| s.measured && matches!(s.reply, Reply::Ok(_)))
        .collect();
    let mut lat: Vec<f64> = measured.iter().map(|s| s.latency_ms()).collect();
    let n = lat.len();
    let window_s = match (
        measured.iter().map(|s| s.sent).min(),
        measured.iter().map(|s| s.done).max(),
    ) {
        (Some(a), Some(b)) => (b - a).as_secs_f64(),
        _ => f64::NAN,
    };
    m.set("qps", n as f64 / window_s, n);
    m.set("query_p50_ms", quantile(&mut lat, 0.5), n);
    m.set("query_p90_ms", quantile(&mut lat, 0.9), n);
    eprintln!(
        "perfbench: {n} measured queries, p99 {:.3} ms (printed, not gated)",
        quantile(&mut lat, 0.99)
    );
}

/// The set-up and build times of a serving workload. Half the set-ups run
/// before the measured window and half after it, so their medians span the
/// whole run instead of a few seconds of it: on a shared host the CPU's
/// speed changes from one second to the next.
#[derive(Default)]
pub struct SetupTimes {
    setup_s: Vec<f64>,
    build_s: Vec<f64>,
}

impl SetupTimes {
    /// Set-ups before the window; the last one serves the window. A traced
    /// run sets up once.
    pub fn before_window(ctx: &Ctx) -> usize {
        if ctx.trace {
            1
        } else {
            ctx.scale.setups(false).div_ceil(2)
        }
    }

    pub fn after_window(ctx: &Ctx) -> usize {
        if ctx.trace {
            0
        } else {
            ctx.scale.setups(false) / 2
        }
    }

    pub fn push(&mut self, setup_s: f64, build_s: f64) {
        self.setup_s.push(setup_s);
        self.build_s.push(build_s);
    }

    /// `setup_s` as the median; `build_s` as the mean. One `INGEST`'s
    /// CPU time falls in one of two modes about 40% apart, as the host's
    /// speed changes, so the median of a run jumps between the modes while
    /// the mean moves with the share of slow ones (over eleven runs of 21
    /// `INGEST`s on `serve_exact`, the medians spread 14% and the means 7%).
    pub fn report(mut self, m: &mut Metrics) {
        set_median(m, "setup_s", &mut self.setup_s);
        m.set("build_s", mean(&self.build_s), self.build_s.len());
    }
}

/// `setup_s` (and any other per-setup samples) as medians.
pub fn set_median(m: &mut Metrics, name: &'static str, samples: &mut [f64]) {
    let n = samples.len();
    m.set(name, median(samples), n);
}

/// Index bytes on disk per byte of raw series covered.
pub fn bytes_ratio(index_dirs: &[&Path], raw_bytes: u64) -> f64 {
    let idx: u64 = index_dirs.iter().map(|d| crate::proc::dir_bytes(d)).sum();
    idx as f64 / raw_bytes.max(1) as f64
}

/// Map a library error into a setup failure.
pub fn lib<E: std::fmt::Display>(what: &str) -> impl Fn(E) -> Fail + '_ {
    move |e| Fail::setup(format!("{what}: {e}"))
}

/// Drop `seq=<n>` from a reply: a replica index built in-process reaches
/// the same runs through a different number of manifest commits.
pub fn without_seq(reply: &str) -> String {
    reply
        .split_whitespace()
        .filter(|t| !t.starts_with("seq="))
        .collect::<Vec<_>>()
        .join(" ")
}
