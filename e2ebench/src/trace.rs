//! Spans recorded from outside the program, around each call the
//! benchmark makes into a layer's public function.
//!
//! A span has a name (`layer.what`), start, end, parent and request id.
//! Spans stay in memory and are written out when the run ends. A child
//! span is either nested in time inside its parent (in-process calls),
//! or the same request re-issued one layer down (a routed request's
//! direct twin, a direct request's in-process replay) — the only way to
//! see inside another process from outside it. Either way a span's self
//! time is its duration minus its children's durations.

use mhx_json::Json;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct Span {
    pub parent: Option<usize>,
    pub req: u64,
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
}

impl Span {
    pub fn micros(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e6
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer { epoch, spans: Vec::new(), open: Vec::new() }
    }

    /// Run `f` inside a span; spans `f` opens become its children.
    /// Returns `f`'s result and the span's id.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        req: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, usize) {
        let id = self.spans.len();
        let start = self.epoch.elapsed();
        self.spans.push(Span { parent: self.open.last().copied(), req, name, start, end: start });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.epoch.elapsed();
        (out, id)
    }

    /// Make `child` (a re-issue of the same request one layer down) a
    /// child of `parent`.
    pub fn adopt(&mut self, child: usize, parent: usize) {
        self.spans[child].parent = Some(parent);
    }

    pub fn micros(&self, id: usize) -> f64 {
        self.spans[id].micros()
    }

    /// Append another tracer's spans (one per load-generator thread).
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// Durations in µs of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::micros).collect()
    }

    /// Durations in µs of the spans called `name`, summed per request.
    pub fn per_request(&self, name: &str) -> Vec<f64> {
        let mut by_req: BTreeMap<u64, f64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *by_req.entry(s.req).or_default() += s.micros();
        }
        by_req.into_values().collect()
    }

    /// Each layer's share of the root spans called `root`: the self time
    /// of every span in those trees, summed by layer (the span name up to
    /// its first `.`), over the roots' total duration.
    pub fn shares(&self, root: &str) -> BTreeMap<&'static str, f64> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        let mut by_layer: BTreeMap<&'static str, f64> = BTreeMap::new();
        let mut total = 0.0;
        for (i, s) in self.spans.iter().enumerate() {
            if s.name != root || s.parent.is_some() {
                continue;
            }
            total += s.micros();
            let mut stack = vec![i];
            while let Some(j) = stack.pop() {
                let span = &self.spans[j];
                let covered: f64 = children[j].iter().map(|&c| self.spans[c].micros()).sum();
                let layer = span.name.split('.').next().unwrap_or(span.name);
                *by_layer.entry(layer).or_default() += (span.micros() - covered).max(0.0);
                stack.extend(&children[j]);
            }
        }
        if total > 0.0 {
            by_layer.values_mut().for_each(|v| *v /= total);
        }
        by_layer
    }

    /// Write every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let line = Json::Obj(vec![
                ("id".into(), Json::Num(i as f64)),
                ("parent".into(), s.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
                ("req".into(), Json::Num(s.req as f64)),
                ("name".into(), Json::Str(s.name.into())),
                ("start_ns".into(), Json::Num(s.start.as_nanos() as f64)),
                ("end_ns".into(), Json::Num(s.end.as_nanos() as f64)),
            ]);
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(Instant::now());
        // The parent does next to nothing itself, so a late wake-up of the
        // child's sleep cannot turn the comparison around.
        let ((), outer) = t.span("router.request", 1, |t| {
            t.span("server.request", 1, |_| std::thread::sleep(Duration::from_millis(5)));
        });
        let shares = t.shares("router.request");
        assert!(shares["server"] > shares["router"], "{shares:?}");
        let sum: f64 = shares.values().sum();
        assert!((sum - 1.0).abs() < 1e-9, "shares of nested spans add up to 1: {sum}");
        // A re-issued request adopted as a child counts against its parent.
        let ((), twin) = t.span("server.request", 2, |_| {});
        t.adopt(twin, outer);
        assert_eq!(t.durations("server.request").len(), 2);
    }
}
