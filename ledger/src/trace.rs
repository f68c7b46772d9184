//! The harness's own spans: every timed section goes through
//! [`Recorder::span`], which always returns the section's wall time and, on
//! a traced run, also keeps `{name, iter, parent, start_us, end_us}` in
//! memory until the run ends. Spans inside the program are a later issue;
//! these sit around the calls into it.

use crate::json::Json;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub iter: u32,
    pub parent: Option<usize>,
    pub start_us: u64,
    pub end_us: u64,
}

pub struct Recorder {
    origin: Instant,
    keep: bool,
    /// Iteration number stamped on new spans; the driver loop advances it.
    pub iter: u32,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(keep: bool) -> Recorder {
        Recorder {
            origin: Instant::now(),
            keep,
            iter: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Run `f`, time it, and (when keeping) record it as a child of the
    /// innermost open span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut Recorder) -> R,
    ) -> (R, Duration) {
        let start = Instant::now();
        let slot = self.keep.then(|| {
            self.spans.push(Span {
                name,
                iter: self.iter,
                parent: self.open.last().copied(),
                start_us: (start - self.origin).as_micros() as u64,
                end_us: 0,
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        let out = f(self);
        let wall = start.elapsed();
        if let Some(slot) = slot {
            self.open.pop();
            self.spans[slot].end_us = self.spans[slot].start_us + wall.as_micros() as u64;
        }
        (out, wall)
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span name: how many, their total time, and their self time (the
    /// span minus the part its children cover).
    pub fn summary(&self) -> Vec<(&'static str, u64, u64, u64)> {
        let mut child_us = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_us[p] += s.end_us - s.start_us;
            }
        }
        let mut rows: Vec<(&'static str, u64, u64, u64)> = Vec::new();
        for (s, children) in self.spans.iter().zip(child_us) {
            let total = s.end_us - s.start_us;
            let own = total.saturating_sub(children);
            match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(r) => {
                    r.1 += 1;
                    r.2 += total;
                    r.3 += own;
                }
                None => rows.push((s.name, 1, total, own)),
            }
        }
        rows
    }

    pub fn to_json(&self) -> Json {
        let spans = self.spans.iter().map(|s| {
            Json::obj([
                ("name", Json::from(s.name)),
                ("iter", Json::from(u64::from(s.iter))),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::from(p as u64)),
                ),
                ("start_us", Json::from(s.start_us)),
                ("end_us", Json::from(s.end_us)),
            ])
        });
        let summary = self.summary().into_iter().map(|(name, n, total, own)| {
            Json::obj([
                ("name", Json::from(name)),
                ("count", Json::from(n)),
                ("total_us", Json::from(total)),
                ("self_us", Json::from(own)),
            ])
        });
        Json::obj([
            ("summary", Json::Arr(summary.collect())),
            ("spans", Json::Arr(spans.collect())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut rec = Recorder::new(true);
        rec.iter = 7;
        let (value, wall) = rec.span("iter", |rec| {
            rec.span("run", |_| std::thread::sleep(Duration::from_millis(5)));
            rec.span("verify", |_| ());
            42
        });
        assert_eq!(value, 42);
        assert!(wall >= Duration::from_millis(5));
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(
            (spans[0].name, spans[0].parent, spans[0].iter),
            ("iter", None, 7)
        );
        assert_eq!((spans[1].name, spans[1].parent), ("run", Some(0)));
        assert_eq!((spans[2].name, spans[2].parent), ("verify", Some(0)));
        assert!(spans[1].end_us - spans[1].start_us >= 5_000);
        let summary = rec.summary();
        let iter = summary.iter().find(|r| r.0 == "iter").unwrap();
        let run = summary.iter().find(|r| r.0 == "run").unwrap();
        assert!(iter.2 >= run.2 && iter.3 <= iter.2 - run.2 + 1);
    }

    #[test]
    fn untraced_recorder_times_but_keeps_nothing() {
        let mut rec = Recorder::new(false);
        let ((), wall) = rec.span("run", |_| std::thread::sleep(Duration::from_millis(2)));
        assert!(wall >= Duration::from_millis(2));
        assert!(rec.spans().is_empty());
    }
}
