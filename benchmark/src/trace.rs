//! Spans recorded from the benchmark's own files, around its calls into the
//! engine. Kept in memory and written out when the run ends.
//!
//! The tree is `workload → setup | rep → statement` and
//! `workload → probe → layer call`. Only the harness thread records, so a
//! span's children never overlap and self time is duration minus children.

use crate::json::Json;
use std::time::Instant;

/// One recorded span. `stmt_id` ties a statement's span to its rep (0 for
/// spans that belong to no statement).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub stmt_id: u64,
}

/// The recorder. Switched off it records nothing and reads no clock, so the
/// untraced run pays one branch per call.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Switch recording on or off between reps (open spans stay open).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Run `f` inside a span named `name`, child of the innermost open span.
    pub fn scope<T>(&mut self, name: &str, stmt_id: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name: name.to_string(),
            start_ns: self.t0.elapsed().as_nanos() as u64,
            end_ns: 0,
            stmt_id,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.t0.elapsed().as_nanos() as u64;
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The trace file's contents: every span with its self time.
    pub fn to_json(&self) -> Json {
        let selfs = self_times(&self.spans);
        Json::Arr(
            self.spans
                .iter()
                .zip(selfs)
                .map(|(s, self_ns)| {
                    Json::obj([
                        ("id", Json::Int(u64::from(s.id))),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Int(u64::from(p))),
                        ),
                        ("name", Json::Str(s.name.clone())),
                        ("start_ns", Json::Int(s.start_ns)),
                        ("end_ns", Json::Int(s.end_ns)),
                        ("self_ns", Json::Int(self_ns)),
                        ("stmt_id", Json::Int(s.stmt_id)),
                    ])
                })
                .collect(),
        )
    }
}

/// Self time of each span: its duration minus the durations of its direct
/// children (which never overlap each other, see the module comment).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut out: Vec<u64> = spans
        .iter()
        .map(|s| s.end_ns.saturating_sub(s.start_ns))
        .collect();
    for s in spans {
        if let Some(p) = s.parent {
            let d = s.end_ns.saturating_sub(s.start_ns);
            out[p as usize] = out[p as usize].saturating_sub(d);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: format!("s{id}"),
            start_ns,
            end_ns,
            stmt_id: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(1), 15, 25),
            span(3, Some(0), 50, 90),
        ];
        // root: 100 − (30 + 40); s1: 30 − 10; leaves keep their duration.
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
    }

    #[test]
    fn scopes_nest_and_off_records_nothing() {
        let mut tr = Tracer::new(true);
        let v = tr.scope("rep", 0, |tr| tr.scope("stmt", 7, |_| 42));
        assert_eq!(v, 42);
        let s = tr.spans();
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].parent, s[1].parent, s[1].stmt_id), (None, Some(0), 7));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);

        let mut off = Tracer::new(false);
        off.scope("rep", 0, |_| ());
        assert!(off.spans().is_empty());
    }
}
