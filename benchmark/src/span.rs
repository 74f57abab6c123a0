//! The benchmark's own spans: one around every call into a layer's
//! public surface, held in memory and written out when the run ends.
//!
//! A span is `(name, start, end, parent, request id)`. Self time — the
//! span minus what its children cover — is folded per name as spans
//! close, so the per-layer numbers do not depend on how many spans the
//! output file keeps.

use crate::util::{host_json, json_escape};
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Spans kept for the output file; later ones are still aggregated.
const MAX_KEPT: usize = 50_000;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<u32>,
    req: u64,
}

struct Open {
    name: &'static str,
    start: Instant,
    req: u64,
    children_ns: u64,
    kept: Option<u32>,
}

#[derive(Default)]
pub struct Agg {
    pub total_ns: u64,
    pub self_ns: u64,
    /// Every duration in ns, for per-name percentiles.
    pub durs: Vec<u32>,
}

/// Handle returned by [`Tracer::enter`].
pub struct Token(bool);

pub struct Tracer {
    enabled: bool,
    t0: Instant,
    stack: Vec<Open>,
    spans: Vec<Span>,
    closed: u64,
    pub by_name: BTreeMap<&'static str, Agg>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            t0: Instant::now(),
            stack: Vec::new(),
            spans: Vec::new(),
            closed: 0,
            by_name: BTreeMap::new(),
        }
    }

    /// Opens a span under the innermost open one. Free when disabled.
    #[inline]
    pub fn enter(&mut self, name: &'static str, req: u64) -> Token {
        if !self.enabled {
            return Token(false);
        }
        let kept = (self.spans.len() < MAX_KEPT).then(|| {
            self.spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent: self.stack.last().and_then(|o| o.kept),
                req,
            });
            (self.spans.len() - 1) as u32
        });
        self.stack.push(Open {
            name,
            start: Instant::now(),
            req,
            children_ns: 0,
            kept,
        });
        Token(true)
    }

    /// Closes the innermost span (spans nest strictly).
    #[inline]
    pub fn exit(&mut self, token: Token) {
        if !token.0 {
            return;
        }
        let end = Instant::now();
        let open = self.stack.pop().expect("exit without enter");
        let dur = end.duration_since(open.start).as_nanos() as u64;
        if let Some(parent) = self.stack.last_mut() {
            parent.children_ns += dur;
        }
        let agg = self.by_name.entry(open.name).or_default();
        agg.total_ns += dur;
        agg.self_ns += dur.saturating_sub(open.children_ns);
        agg.durs.push(dur.min(u32::MAX as u64) as u32);
        self.closed += 1;
        if let Some(i) = open.kept {
            let s = &mut self.spans[i as usize];
            s.start_ns = open.start.duration_since(self.t0).as_nanos() as u64;
            s.end_ns = s.start_ns + dur;
            debug_assert_eq!(s.req, open.req);
        }
    }

    /// Open spans right now; with [`Tracer::unwind_to`], lets a caller
    /// that catches a panic drop the spans the panic left open.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    pub fn unwind_to(&mut self, depth: usize) {
        self.stack.truncate(depth);
    }

    /// Median duration of the spans called `name`, in µs, with the count.
    pub fn p50_us(&self, name: &str) -> Option<(f64, u64)> {
        let agg = self.by_name.get(name)?;
        let mut d = agg.durs.clone();
        let mid = d.len().checked_sub(1)? / 2;
        let (_, m, _) = d.select_nth_unstable(mid);
        Some((*m as f64 / 1e3, d.len() as u64))
    }

    /// Writes the span file: host facts, per-name totals and self time,
    /// and the first [`MAX_KEPT`] spans.
    pub fn write(&self, path: &std::path::Path, workload: &str, seed: u64) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "{{\"workload\": \"{}\", \"seed\": {}, {},",
            json_escape(workload),
            seed,
            host_json()
        )?;
        writeln!(
            out,
            " \"spans_closed\": {}, \"spans_kept\": {},",
            self.closed,
            self.spans.len()
        )?;
        writeln!(out, " \"by_name\": {{")?;
        let mut first = true;
        for (name, a) in &self.by_name {
            let sep = if first { "" } else { ",\n" };
            first = false;
            write!(
                out,
                "{sep}  \"{name}\": {{\"count\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
                a.durs.len(),
                a.total_ns,
                a.self_ns
            )?;
        }
        writeln!(out, "\n }},\n \"spans\": [")?;
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { ",\n" };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                out,
                "{sep}  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"req\": {}}}",
                s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
        writeln!(out, "\n ]}}")?;
        out.flush()
    }
}
