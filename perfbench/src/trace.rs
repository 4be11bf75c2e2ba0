//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name (`layer` or `layer:detail`), a start and an end
//! relative to the tracer's epoch, the span that caused it, and the
//! request it belongs to. Spans stay in memory until [`Tracer::finish`]
//! writes them to `.perfbench/trace-<workload>-<seed>.jsonl` and returns
//! a per-layer self-time summary. A disabled tracer records nothing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Instant;

/// Directory (relative to the working directory) for the benchmark's
/// scratch files and trace output.
const OUT_DIR: &str = ".perfbench";

/// This process's scratch directory under [`OUT_DIR`].
pub fn work_dir() -> PathBuf {
    PathBuf::from(OUT_DIR).join(format!("work-{}", std::process::id()))
}

/// Removes this process's scratch directory.
pub fn cleanup() {
    let _ = std::fs::remove_dir_all(work_dir());
}

struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    request: String,
}

/// The span recorder of one run.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer { enabled, epoch: Instant::now(), spans: Mutex::new(Vec::new()) }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span; `f` receives the span's id to parent its
    /// children on.
    pub fn span<T>(
        &self,
        name: &str,
        parent: Option<usize>,
        request: &str,
        f: impl FnOnce(Option<usize>) -> T,
    ) -> T {
        if !self.enabled {
            return f(None);
        }
        let id = {
            let mut spans = self.spans.lock().expect("span list lock is never poisoned");
            spans.push(Span {
                name: name.to_string(),
                start_ns: self.ns(Instant::now()),
                end_ns: 0,
                parent,
                request: request.to_string(),
            });
            spans.len() - 1
        };
        let out = f(Some(id));
        let end = self.ns(Instant::now());
        self.spans.lock().expect("span list lock is never poisoned")[id].end_ns = end;
        out
    }

    /// Records a span whose bounds were timestamped elsewhere (serve
    /// events arrive on another thread); returns its id.
    pub fn record(
        &self,
        name: &str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: &str,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let mut spans = self.spans.lock().expect("span list lock is never poisoned");
        spans.push(Span {
            name: name.to_string(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            request: request.to_string(),
        });
        Some(spans.len() - 1)
    }

    /// Writes the spans out and returns the per-layer self-time table.
    /// A layer's self time is its spans' durations minus the part of
    /// each covered by its child spans.
    pub fn finish(&self, workload: &str, seed: u64) -> String {
        let spans = self.spans.lock().expect("span list lock is never poisoned");
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
        for (i, s) in spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        // layer -> (spans, total ns, self ns)
        let mut layers: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let total = s.end_ns.saturating_sub(s.start_ns);
            let mut cover: Vec<(u64, u64)> = children[i]
                .iter()
                .map(|&c| (spans[c].start_ns.max(s.start_ns), spans[c].end_ns.min(s.end_ns)))
                .filter(|(a, b)| b > a)
                .collect();
            cover.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for (a, b) in cover {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            let layer = s.name.split(':').next().unwrap_or(&s.name);
            let e = layers.entry(layer).or_default();
            e.0 += 1;
            e.1 += total;
            e.2 += total.saturating_sub(covered);
        }

        let path = format!("{OUT_DIR}/trace-{workload}-seed{seed}.jsonl");
        let mut out = String::new();
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                serde_json::to_string(&s.name).expect("string serializes"),
                s.start_ns,
                s.end_ns,
                serde_json::to_string(&s.request).expect("string serializes"),
            );
        }
        let written = std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, out));

        let mut summary = format!(
            "trace: {} spans {}\n  {:<22} {:>8} {:>12} {:>12}",
            spans.len(),
            match written {
                Ok(()) => format!("written to {path}"),
                Err(e) => format!("not written ({e})"),
            },
            "layer",
            "spans",
            "total ms",
            "self ms"
        );
        for (layer, (n, total, own)) in layers {
            let _ = write!(
                summary,
                "\n  {layer:<22} {n:>8} {:>12.3} {:>12.3}",
                total as f64 / 1e6,
                own as f64 / 1e6
            );
        }
        summary
    }
}
