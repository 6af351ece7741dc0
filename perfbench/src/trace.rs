//! Spans recorded by the benchmark's own code around calls into the
//! library's public functions and around socket round trips. The program
//! under test carries no instrumentation of its own for this.
//!
//! Spans are kept in memory and written out once, when the run ends. With
//! tracing off, [`Tracer::span`] still times the call (the caller may need
//! the duration) but records nothing.

use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::report::json_str;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: Option<u64>,
    pub request: Option<u64>,
    pub start: Duration,
    pub end: Duration,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Time `f` as span `name` under `parent`, tagged with `request` (the
    /// workload's request number, if the call serves one). `f` receives
    /// the new span's id so nested calls can name it as their parent.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        request: Option<u64>,
        f: impl FnOnce(u64) -> T,
    ) -> (T, Duration) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let out = f(id);
        let end = Instant::now();
        if self.enabled {
            let span = Span {
                name,
                id,
                parent,
                request,
                start: start - self.epoch,
                end: end - self.epoch,
            };
            self.spans
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .push(span);
        }
        (out, end - start)
    }

    /// Record an already-timed interval (for round trips whose start is a
    /// scheduled due time rather than the moment of the call).
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<u64>,
        request: Option<u64>,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let span = Span {
            name,
            id,
            parent,
            request,
            start: start.saturating_duration_since(self.epoch),
            end: end.saturating_duration_since(self.epoch),
        };
        self.spans
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(span);
    }

    /// Durations in seconds of every recorded span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.lock().unwrap_or_else(|p| p.into_inner()).len()
    }

    /// Write every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().unwrap_or_else(|p| p.into_inner());
        let mut out = String::with_capacity(spans.len() * 96);
        for s in spans.iter() {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            let _ = writeln!(
                out,
                "{{\"name\": {}, \"id\": {}, \"parent\": {}, \"request\": {}, \
                 \"start_us\": {:.3}, \"end_us\": {:.3}}}",
                json_str(s.name),
                s.id,
                opt(s.parent),
                opt(s.request),
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_disabled_tracer_records_nothing() {
        let t = Tracer::new(true);
        let ((), _) = t.span("outer", None, Some(7), |outer| {
            t.span("inner", Some(outer), Some(7), |_| ());
        });
        assert_eq!(t.len(), 2);
        assert_eq!(t.durations("inner").len(), 1);
        let off = Tracer::new(false);
        let (v, d) = off.span("x", None, None, |_| 3);
        assert_eq!(v, 3);
        assert!(d >= Duration::ZERO);
        assert_eq!(off.len(), 0);
    }
}
