//! In-memory span recorder. Spans are recorded from the harness's side
//! of each call into the program (plus the phase boundaries the
//! observe-only progress sink exposes), kept in a `Vec`, and written out
//! once when the benchmark ends.

use crate::json::quote;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// The crate the span's time belongs to (`topology`, `core`,
    /// `membership`, `simnet`, `metrics`, `workload`, `server`) or
    /// `bench` for the harness's own phases.
    pub layer: &'static str,
    /// Repeat index shared by every span of one run / job.
    pub run: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    run: u32,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            run: 0,
        }
    }

    /// Sets the run identifier stamped on spans recorded from here on.
    pub fn set_run(&mut self, run: u32) {
        self.run = run;
    }

    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Runs `f` inside a span whose parent is the innermost open span.
    pub fn scope<T>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        let id = self.spans.len();
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            layer,
            run: self.run,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.ns(Instant::now());
        out
    }

    /// Records a closed span from timestamps taken elsewhere (progress
    /// frames, client-side request phases) under `parent`.
    pub fn record(
        &mut self,
        name: &'static str,
        layer: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> usize {
        self.spans.push(Span {
            name,
            layer,
            run: self.run,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
        });
        self.spans.len() - 1
    }

    /// Index of the most recently recorded span.
    pub fn last(&self) -> Option<usize> {
        self.spans.len().checked_sub(1)
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time per span: its duration minus the part of that interval
    /// its children cover (children of one span never overlap here, so
    /// the cover is their clipped sum).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                let parent = &self.spans[p];
                let start = span.start_ns.max(parent.start_ns);
                let end = span.end_ns.min(parent.end_ns);
                covered[p] += end.saturating_sub(start);
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c))
            .collect()
    }

    /// Total self time per layer, in first-appearance order.
    pub fn layer_self_ns(&self) -> Vec<(&'static str, u64)> {
        let mut out: Vec<(&'static str, u64)> = Vec::new();
        for (span, self_ns) in self.spans.iter().zip(self.self_times_ns()) {
            match out.iter_mut().find(|(layer, _)| *layer == span.layer) {
                Some(entry) => entry.1 += self_ns,
                None => out.push((span.layer, self_ns)),
            }
        }
        out
    }

    /// The whole trace as one JSON document.
    pub fn to_json(&self, workload: &str) -> String {
        let mut out = format!("{{\"workload\":{},\"layers\":{{", quote(workload));
        for (i, (layer, ns)) in self.layer_self_ns().iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            out.push_str(&format!("{sep}{}:{{\"self_ns\":{ns}}}", quote(layer)));
        }
        out.push_str("},\"spans\":[\n");
        let self_ns = self.self_times_ns();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":{},\"layer\":{},\"workload\":{},\"run\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"parent\":{parent}}}{}\n",
                quote(s.name),
                quote(s.layer),
                quote(workload),
                s.run,
                s.start_ns,
                s.end_ns,
                self_ns[i],
                if i + 1 == self.spans.len() { "" } else { "," },
            ));
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use std::time::Duration;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut t = Tracer::new();
        let base = Instant::now();
        let at = |ms: u64| base + Duration::from_millis(ms);
        let root = t.record("root", "workload", at(0), at(100), None);
        t.record("a", "simnet", at(10), at(40), Some(root));
        let b = t.record("b", "simnet", at(50), at(90), Some(root));
        t.record("b1", "core", at(60), at(70), Some(b));
        let ms = |ns: u64| ns / 1_000_000;
        let selfs: Vec<u64> = t.self_times_ns().into_iter().map(ms).collect();
        assert_eq!(selfs, vec![30, 30, 30, 10]);
        let layers = t.layer_self_ns();
        assert_eq!(ms(layers[0].1), 30);
        assert_eq!((layers[1].0, ms(layers[1].1)), ("simnet", 60));
    }

    #[test]
    fn scopes_nest_and_serialize() {
        let mut t = Tracer::new();
        t.set_run(3);
        t.scope("outer", "bench", |t| {
            t.scope("inner", "core", |_| ());
        });
        assert_eq!(t.len(), 2);
        let doc = Json::parse(&t.to_json("w")).expect("valid JSON");
        let spans = doc.get("spans").and_then(Json::as_arr).unwrap();
        assert_eq!(spans[1].get("parent").and_then(Json::as_f64), Some(0.0));
        assert_eq!(spans[1].get("run").and_then(Json::as_f64), Some(3.0));
        assert_eq!(spans[0].get("parent"), Some(&Json::Null));
    }
}
