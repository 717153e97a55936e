//! In-memory spans around the benchmark's own calls into each layer,
//! written out as JSON lines when the traced run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary name (e.g. `planner.eval`).
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<usize>,
    /// The request the span belongs to.
    pub req: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e6
    }
}

/// A span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder timing spans from `origin`.
    pub fn new(origin: Instant) -> Self {
        Tracer { origin, spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
    }

    /// Runs `f` inside a span and returns its result and the span id.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> (R, usize) {
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns, parent, req });
        (out, self.spans.len() - 1)
    }

    /// Takes over another recorder's spans (same origin), remapping
    /// their parent ids.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total self time per span name in milliseconds: each span's
    /// duration minus the part of its interval its children cover, plus
    /// the span count per name.
    pub fn self_times(&self) -> BTreeMap<&'static str, (f64, usize)> {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                let parent = &self.spans[p];
                let start = span.start_ns.max(parent.start_ns);
                let end = span.end_ns.min(parent.end_ns);
                covered[p] += end.saturating_sub(start);
            }
        }
        let mut out: BTreeMap<&'static str, (f64, usize)> = BTreeMap::new();
        for (span, covered) in self.spans.iter().zip(covered) {
            let own = span.end_ns.saturating_sub(span.start_ns).saturating_sub(covered);
            let entry = out.entry(span.name).or_default();
            entry.0 += own as f64 / 1e6;
            entry.1 += 1;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// I/O errors from creating or writing the file.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"req\": {}}}",
                s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
        out.flush()
    }
}

/// The per-layer metric names every traced run reports, with unit and
/// direction, in `BENCHMARK.json` order. Layers a workload bypasses
/// report 0.
pub const LAYER_METRICS: &[(&str, &str, &str)] = &[
    ("tam.delta_packs", "count", "lower"),
    ("tam.skeleton_misses", "count", "lower"),
    ("tam.pruned_passes", "count", "higher"),
    ("tam.prefix_jobs_restored", "count", "higher"),
    ("tam.prune_ratio", "ratio", "higher"),
    ("tam.pack_ms", "ms", "lower"),
    ("planner.eval_ms", "ms", "lower"),
    ("planner.evaluations", "count", "lower"),
    ("planner.width_bound_prunes", "count", "higher"),
    ("planner.cost_bound_prunes", "count", "higher"),
    ("planner.cross_width_prunes", "count", "higher"),
    ("service.schedule_hits", "count", "higher"),
    ("service.schedule_misses", "count", "lower"),
    ("service.schedule_hit_ratio", "ratio", "higher"),
    ("service.session_hits", "count", "higher"),
    ("service.session_misses", "count", "lower"),
    ("service.session_evictions", "count", "lower"),
    ("service.schedule_evictions", "count", "lower"),
    ("service.lock_contentions", "count", "lower"),
    ("service.revision_cache_hits", "count", "higher"),
    ("par.dispatches", "count", "lower"),
    ("par.steals", "count", "lower"),
    ("par.parks", "count", "lower"),
    ("job.dispatch_ms", "ms", "lower"),
    ("wire.request_bytes", "bytes", "lower"),
    ("wire.response_bytes", "bytes", "lower"),
    ("wire.encode_us", "us", "lower"),
    ("wire.decode_us", "us", "lower"),
    ("net.overhead_ms", "ms", "lower"),
    ("revision.revise_us", "us", "lower"),
    ("snapshot.export_ms", "ms", "lower"),
    ("snapshot.bytes", "bytes", "lower"),
    ("snapshot.shard_exports_reused", "count", "higher"),
    ("recover.import_ms", "ms", "lower"),
    ("recover.import_restored", "count", "higher"),
    ("recover.import_dropped", "count", "lower"),
    ("trace.request_ms", "ms", "lower"),
    ("trace.accounted_ms", "ms", "lower"),
    ("trace.unaccounted_share", "ratio", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
];

/// Per-layer values gathered by one traced run; unset layers report 0.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Sets one per-layer value (the name must be in [`LAYER_METRICS`]).
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            LAYER_METRICS.iter().any(|(n, _, _)| *n == name),
            "unknown per-layer metric {name}"
        );
        self.0.insert(name, value);
    }

    /// Reports every per-layer metric, in declaration order.
    pub fn report(&self, result: &mut crate::RunResult) {
        for &(name, unit, _) in LAYER_METRICS {
            result.metric(name, self.0.get(name).copied().unwrap_or(0.0), unit);
        }
    }
}
