//! Bench-side spans: recorded around the calls into each layer, kept
//! in memory, written out when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one request share this.
    pub request: u32,
}

/// Records spans; a disabled tracer records nothing, which is how the
/// tracing overhead is measured.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    open: Vec<usize>,
    request: u32,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            open: Vec::new(),
            request: 0,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin_request(&mut self, request: u32) {
        self.request = request;
    }

    /// Runs `f` inside a span named `name`, child of the open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(id);
        let r = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        r
    }

    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut s =
            format!("{{\"workload\":\"{workload}\",\"seed\":{seed},\"unit\":\"ns\",\"spans\":[\n");
        for (id, sp) in self.spans.iter().enumerate() {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                s,
                "{{\"id\":{id},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{parent},\"request\":{}}}{}",
                sp.name,
                sp.start_ns,
                sp.end_ns,
                sp.request,
                if id + 1 == self.spans.len() { "" } else { "," }
            );
        }
        s.push_str("]}\n");
        s
    }
}

/// Self time of every span: its duration minus the part of its
/// interval that its child spans cover (children may overlap each
/// other and may stick out of the parent; only covered time inside the
/// parent is taken off).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for sp in spans {
        if let Some(p) = sp.parent {
            let lo = sp.start_ns.max(spans[p].start_ns);
            let hi = sp.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(sp, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = sp.start_ns;
            for &(lo, hi) in kids.iter() {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            (sp.end_ns - sp.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s",
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_takes_off_nested_children() {
        // root 0..100, child 10..40 with grandchild 20..30, child 50..60
        let spans = [
            span(0, 100, None),
            span(10, 40, Some(0)),
            span(20, 30, Some(1)),
            span(50, 60, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![60, 20, 10, 10]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // children 10..50 and 30..70 overlap by 20; 60..65 lies inside
        // the second; 90..120 sticks out of the parent by 20.
        let spans = [
            span(0, 100, None),
            span(30, 70, Some(0)),
            span(10, 50, Some(0)),
            span(60, 65, Some(0)),
            span(90, 120, Some(0)),
        ];
        // covered = 10..70 (60) + 90..100 (10)
        assert_eq!(self_times_ns(&spans)[0], 30);
    }

    #[test]
    fn tracer_nests_and_a_disabled_one_records_nothing() {
        let mut t = Tracer::new(true);
        t.begin_request(7);
        let v = t.span("outer", |t| t.span("inner", |_| 5) + 1);
        assert_eq!(v, 6);
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[0].parent, None);
        assert_eq!(t.spans[1].request, 7);
        assert!(t.spans[0].end_ns >= t.spans[1].end_ns);
        assert!(t.to_json("w", 1).contains("\"name\":\"inner\""));

        let mut off = Tracer::new(false);
        assert_eq!(off.span("outer", |t| t.span("inner", |_| 5)), 5);
        assert!(off.spans.is_empty());
    }
}
