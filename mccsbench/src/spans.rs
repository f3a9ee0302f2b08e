//! In-memory spans recorded around the benchmark's own calls into each
//! layer. A disabled tracer records nothing and reads no clock.
//!
//! Each traced repetition is reduced to per-name statistics when it ends;
//! the spans themselves are kept only for the repetitions asked for, so a
//! long traced run holds one repetition's spans, not all of them.

use crate::stats::{median, percentile};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span in the tracer's span list.
pub type SpanId = usize;

/// One timed call.
#[derive(Clone, Debug)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<SpanId>,
    rep: u32,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One repetition's spans of one name, reduced.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SpanStats {
    /// Spans recorded.
    pub count: u64,
    /// Median duration.
    pub median_us: f64,
    /// p99 duration, when at least ten spans lie beyond it.
    pub p99_us: Option<f64>,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed self time: duration minus the time direct children cover.
    pub self_ns: u64,
}

/// Span recorder. Spans nest by call order (single-threaded).
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
    rep: u32,
    /// First span of the repetition in progress.
    rep_start: usize,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer {
            enabled: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            rep: 0,
            rep_start: 0,
        }
    }

    /// A recording tracer.
    pub fn on() -> Self {
        Tracer {
            enabled: true,
            ..Tracer::off()
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Open a span; close it with [`end`](Self::end).
    pub fn begin(&mut self, name: &'static str) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len();
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            rep: self.rep,
        });
        self.open.push(id);
        Some(id)
    }

    /// Close the span `begin` returned.
    pub fn end(&mut self, id: Option<SpanId>) {
        let Some(id) = id else { return };
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.epoch.elapsed().as_nanos() as u64;
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Self time of each span from `from` on. Children of one span never
    /// overlap, and a span's parent is recorded before it.
    fn self_ns(&self, from: usize) -> Vec<u64> {
        let spans = &self.spans[from..];
        let mut covered = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                covered[p - from] += s.dur_ns();
            }
        }
        spans
            .iter()
            .zip(covered)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// End the repetition in progress: reduce its spans to per-name
    /// statistics, keep the spans (for [`to_tsv`](Self::to_tsv)) only when
    /// `keep`, and tag what follows as the next repetition.
    pub fn finish_rep(&mut self, keep: bool) -> BTreeMap<&'static str, SpanStats> {
        assert!(self.open.is_empty(), "a repetition ends with no open span");
        let own = self.self_ns(self.rep_start);
        let mut durations: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        let mut out: BTreeMap<&'static str, SpanStats> = BTreeMap::new();
        for (s, own) in self.spans[self.rep_start..].iter().zip(own) {
            durations
                .entry(s.name)
                .or_default()
                .push(s.dur_ns() as f64 / 1e3);
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_ns += s.dur_ns();
            e.self_ns += own;
        }
        for (name, us) in durations {
            let e = out.get_mut(name).expect("entry made above");
            e.median_us = median(&us);
            e.p99_us = percentile(&us, 0.99);
        }
        if !keep {
            self.spans.truncate(self.rep_start);
        }
        self.rep_start = self.spans.len();
        self.rep += 1;
        out
    }

    /// Tab-separated dump of the kept spans:
    /// `id name rep parent start_ns end_ns self_ns`.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("id\tname\trep\tparent\tstart_ns\tend_ns\tself_ns\n");
        for (id, (s, own)) in self.spans.iter().zip(self.self_ns(0)).enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{id}\t{}\t{}\t{parent}\t{}\t{}\t{own}",
                s.name, s.rep, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        assert_eq!(t.span("x", || 7), 7);
        assert!(t.finish_rep(true).is_empty());
        assert_eq!(t.to_tsv().lines().count(), 1);
    }

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::on();
        let outer = t.begin("outer");
        t.span("inner", || std::thread::sleep(Duration::from_millis(2)));
        t.end(outer);
        let rep = t.finish_rep(true);
        let (o, i) = (&rep["outer"], &rep["inner"]);
        assert_eq!(i.self_ns, i.total_ns);
        assert_eq!(o.self_ns, o.total_ns - i.total_ns);
        assert!(i.total_ns >= 2_000_000);
        assert_eq!(i.p99_us, None, "one span cannot carry a p99");
        assert!(
            t.to_tsv().contains("\tinner\t0\t0\t"),
            "inner's parent is span 0"
        );
    }

    #[test]
    fn repetitions_reduce_separately_and_only_kept_spans_remain() {
        let mut t = Tracer::on();
        for _ in 0..1000 {
            t.span("step", || ());
        }
        let first = t.finish_rep(true);
        t.span("step", || ());
        let second = t.finish_rep(false);
        assert_eq!(first["step"].count, 1000);
        assert!(first["step"].p99_us.is_some());
        assert_eq!(second["step"].count, 1);
        let tsv = t.to_tsv();
        assert_eq!(
            tsv.lines().count(),
            1 + 1000,
            "the second repetition was dropped"
        );
        assert!(tsv
            .lines()
            .skip(1)
            .all(|l| l.split('\t').nth(2) == Some("0")));
    }
}
