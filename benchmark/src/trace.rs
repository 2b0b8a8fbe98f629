//! Spans kept in memory and written out when the benchmark ends: the
//! Chrome trace-event file Perfetto opens, and per-layer aggregates.
//!
//! A span has a name (its layer), a start, an end and the span that caused
//! it. A layer's *self time* is its span's duration minus the part of that
//! interval its child spans cover. Top-level spans are containers (the
//! workload, or one client's timeline); their self time is time no layer
//! accounts for.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use crate::json::{n, obj, s, Json};
use crate::stats;

/// Whole-run measures of a traced run.
pub const SUMMARY: [&str; 7] = [
    "trace.wall_s",
    "trace.untraced_s",
    "trace.overhead_pct",
    "trace.unattributed_pct",
    "runner.cells",
    "runner.cell_p50_ms",
    "runner.cell_p90_ms",
];

/// Layers whose self-time share a traced run reports as `<layer>_pct`.
/// (`service.job` and `distrib.run` are left out: their phases cover them.)
pub const LAYERS: [&str; 29] = [
    "process",
    "workloads.build",
    "experiments.plan",
    "experiments.reduce",
    "report.render",
    "isa.oracle",
    "isa.compile",
    "isa.ff",
    "runner.cell",
    "runner.checksum",
    "policy.build",
    "ooo.simulate",
    "ooo.commit",
    "ooo.writeback",
    "ooo.issue",
    "ooo.dispatch",
    "ooo.fetch",
    "sampling.window",
    "cache.key",
    "cache.load",
    "service.submit",
    "service.queued",
    "service.running",
    "service.fetch",
    "distrib.startup",
    "distrib.cells",
    "distrib.drain",
    "harness.check",
    "harness.wait",
];

/// Host-independent counters a traced run reports (0 where a workload
/// never reaches the layer).
pub const COUNTERS: [&str; 13] = [
    "ooo.simulated_cycles",
    "ooo.executed_cycles",
    "ooo.skipped_cycles",
    "ooo.committed",
    "isa.oracle_insts",
    "isa.ff_insts",
    "sampling.windows",
    "sampling.window_committed",
    "cache.cell_loads",
    "cache.cell_bytes",
    "cache.ckpt_bytes",
    "service.jobs_coalesced",
    "service.cache_hits",
];

/// Every per-layer metric a traced run reports.
pub fn metric_names() -> Vec<String> {
    SUMMARY
        .iter()
        .map(|m| m.to_string())
        .chain(LAYERS.iter().map(|l| format!("{l}_pct")))
        .chain(COUNTERS.iter().map(|c| c.to_string()))
        .collect()
}

/// One finished span (or, with `instant`, a point event).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique within one trace.
    pub id: u64,
    /// The span that caused this one; 0 for a top-level span.
    pub parent: u64,
    /// Layer name (`ooo.simulate`, `service.queued`, ...).
    pub name: String,
    /// Timeline the span is drawn on (a client thread, say).
    pub lane: u32,
    /// Wall-clock start, microseconds since the Unix epoch, so spans from
    /// different processes line up.
    pub start_us: f64,
    /// Duration in microseconds.
    pub dur_us: f64,
    /// A point event (a cell landing in the store) rather than an interval.
    pub instant: bool,
}

impl Span {
    /// End of the interval.
    pub fn end_us(&self) -> f64 {
        self.start_us + self.dur_us
    }

    /// One-line JSON, how a traced child process hands its spans over.
    pub fn to_json(&self) -> Json {
        obj([
            ("id", n(self.id as f64)),
            ("parent", n(self.parent as f64)),
            ("name", s(&self.name)),
            ("lane", n(self.lane)),
            ("start_us", n(self.start_us)),
            ("dur_us", n(self.dur_us)),
            ("instant", Json::Bool(self.instant)),
        ])
    }

    /// Parses [`Span::to_json`] output.
    pub fn from_json(doc: &Json) -> Option<Span> {
        Some(Span {
            id: doc.get("id")?.as_u64()?,
            parent: doc.get("parent")?.as_u64()?,
            name: doc.get("name")?.as_str()?.to_string(),
            lane: doc.get("lane")?.as_u64()? as u32,
            start_us: doc.get("start_us")?.as_f64()?,
            dur_us: doc.get("dur_us")?.as_f64()?,
            instant: doc.get("instant") == Some(&Json::Bool(true)),
        })
    }
}

/// Records spans from any thread.
pub struct Tracer {
    epoch_us: f64,
    anchor: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// A span that has started and not yet ended.
#[derive(Debug)]
pub struct Open {
    id: u64,
    parent: u64,
    lane: u32,
    name: &'static str,
    start_us: f64,
}

impl Open {
    /// Id to give this span's children.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// When the span started (see [`Tracer::now_us`]).
    pub fn start_us(&self) -> f64 {
        self.start_us
    }
}

impl Tracer {
    /// A tracer whose ids start above `first_id` (so several processes'
    /// spans can merge without clashes).
    pub fn new(first_id: u64) -> Tracer {
        let epoch_us = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0.0, |d| d.as_secs_f64() * 1e6);
        Tracer {
            epoch_us,
            anchor: Instant::now(),
            next_id: AtomicU64::new(first_id + 1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Wall-clock microseconds, monotonic within this process.
    pub fn now_us(&self) -> f64 {
        self.epoch_us + self.anchor.elapsed().as_secs_f64() * 1e6
    }

    /// Starts a span.
    pub fn open(&self, name: &'static str, parent: u64, lane: u32) -> Open {
        Open {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            lane,
            name,
            start_us: self.now_us(),
        }
    }

    /// Ends a span and returns its duration in microseconds.
    pub fn close(&self, open: Open) -> f64 {
        let end = self.now_us();
        self.record(
            open.name,
            open.id,
            open.parent,
            open.lane,
            open.start_us,
            end,
        );
        end - open.start_us
    }

    /// Times `f` as a span; `f` gets the span's id for its children.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: u64,
        lane: u32,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        let open = self.open(name, parent, lane);
        let out = f(open.id);
        self.close(open);
        out
    }

    /// Records an interval measured elsewhere (a stage total, a state a
    /// poll observed). Returns the new span's id.
    pub fn interval(&self, name: &str, parent: u64, lane: u32, start_us: f64, end_us: f64) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.record(name, id, parent, lane, start_us, end_us);
        id
    }

    /// Records a point event.
    pub fn instant(&self, name: &str, parent: u64, lane: u32, at_us: f64) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.add(Span {
            id,
            parent,
            name: name.to_string(),
            lane,
            start_us: at_us,
            dur_us: 0.0,
            instant: true,
        });
    }

    /// Adds a span recorded elsewhere (another process) as it is.
    pub fn add(&self, span: Span) {
        self.lock().push(span);
    }

    /// Every span recorded so far, in recording order.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.lock())
    }

    fn record(&self, name: &str, id: u64, parent: u64, lane: u32, start_us: f64, end_us: f64) {
        self.add(Span {
            id,
            parent,
            name: name.to_string(),
            lane,
            start_us,
            dur_us: (end_us - start_us).max(0.0),
            instant: false,
        });
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
    }
}

/// Aggregate of every span of one layer.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Layer {
    /// Spans of this layer.
    pub count: usize,
    /// Summed durations, seconds.
    pub total_s: f64,
    /// Summed self times, seconds.
    pub self_s: f64,
    /// Each span's duration, milliseconds (for percentiles).
    pub durations_ms: Vec<f64>,
}

/// Per-layer totals and self times of one trace.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    /// Layers by name.
    pub layers: BTreeMap<String, Layer>,
    /// Summed duration of the top-level spans, seconds: the base every
    /// share is taken of.
    pub covered_s: f64,
    /// Summed self time of the top-level spans, seconds: time no layer
    /// accounts for.
    pub unattributed_s: f64,
}

impl Profile {
    /// Aggregates a trace.
    pub fn of(spans: &[Span]) -> Profile {
        let mut children: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
        for sp in spans.iter().filter(|sp| !sp.instant && sp.parent != 0) {
            children
                .entry(sp.parent)
                .or_default()
                .push((sp.start_us, sp.end_us()));
        }
        let mut profile = Profile::default();
        for sp in spans.iter().filter(|sp| !sp.instant) {
            let covered = children
                .get(&sp.id)
                .map_or(0.0, |c| union_within(c, sp.start_us, sp.end_us()));
            let self_s = (sp.dur_us - covered).max(0.0) / 1e6;
            if sp.parent == 0 {
                profile.covered_s += sp.dur_us / 1e6;
                profile.unattributed_s += self_s;
                continue;
            }
            let layer = profile.layers.entry(sp.name.clone()).or_default();
            layer.count += 1;
            layer.total_s += sp.dur_us / 1e6;
            layer.self_s += self_s;
            layer.durations_ms.push(sp.dur_us / 1e3);
        }
        profile
    }

    /// A layer's self time as a percentage of the covered time (0 when the
    /// trace never entered the layer).
    pub fn self_pct(&self, layer: &str) -> f64 {
        match self.layers.get(layer) {
            Some(l) if self.covered_s > 0.0 => l.self_s / self.covered_s * 100.0,
            _ => 0.0,
        }
    }

    /// Unattributed time as a percentage of the covered time.
    pub fn unattributed_pct(&self) -> f64 {
        if self.covered_s > 0.0 {
            self.unattributed_s / self.covered_s * 100.0
        } else {
            0.0
        }
    }

    /// The layers as JSON: count, total, self, share, median and p90.
    pub fn to_json(&self) -> Json {
        obj(self.layers.iter().map(|(name, l)| {
            (
                name.clone(),
                obj([
                    ("count", n(l.count as f64)),
                    ("total_s", n(l.total_s)),
                    ("self_s", n(l.self_s)),
                    ("self_pct", n(self.self_pct(name))),
                    ("p50_ms", n(stats::percentile(&l.durations_ms, 50.0))),
                    ("p90_ms", n(stats::percentile(&l.durations_ms, 90.0))),
                ]),
            )
        }))
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn union_within(intervals: &[(f64, f64)], lo: f64, hi: f64) -> f64 {
    let mut v: Vec<(f64, f64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| b > a)
        .collect();
    v.sort_by(|x, y| x.0.total_cmp(&y.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (a, b) in v {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0.0, |(a, b)| b - a)
}

/// Chrome trace-event JSON for a set of traces, one process row each
/// (`(row name, spans)`); opens in Perfetto and chrome://tracing.
pub fn chrome_trace(rows: &[(String, Vec<Span>)]) -> Json {
    let mut events = Vec::new();
    for (pid, (row, spans)) in rows.iter().enumerate() {
        let pid = pid as f64 + 1.0;
        events.push(obj([
            ("name", s("process_name")),
            ("ph", s("M")),
            ("pid", n(pid)),
            ("args", obj([("name", s(row))])),
        ]));
        // Parents before children at equal start times keeps the nesting
        // viewers infer from the timestamps.
        let mut sorted: Vec<&Span> = spans.iter().collect();
        sorted.sort_by(|a, b| {
            a.start_us
                .total_cmp(&b.start_us)
                .then(b.dur_us.total_cmp(&a.dur_us))
        });
        for sp in sorted {
            let mut e = vec![
                ("name", s(&sp.name)),
                ("cat", s(sp.name.split('.').next().unwrap_or(&sp.name))),
                ("pid", n(pid)),
                ("tid", n(sp.lane)),
                ("ts", n(sp.start_us)),
            ];
            if sp.instant {
                e.push(("ph", s("i")));
                e.push(("s", s("t")));
            } else {
                e.push(("ph", s("X")));
                e.push(("dur", n(sp.dur_us)));
            }
            events.push(obj(e));
        }
    }
    obj([
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", s("ms")),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &str, start: f64, dur: f64) -> Span {
        Span {
            id,
            parent,
            name: name.to_string(),
            lane: 0,
            start_us: start,
            dur_us: dur,
            instant: false,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, 0, "workload", 0.0, 1000.0),
            span(2, 1, "ooo.simulate", 100.0, 600.0),
            span(3, 2, "ooo.issue", 100.0, 200.0),
            span(4, 2, "ooo.commit", 300.0, 100.0),
            span(5, 1, "report.render", 800.0, 100.0),
        ];
        let p = Profile::of(&spans);
        let sim = &p.layers["ooo.simulate"];
        assert!((sim.self_s - 300e-6).abs() < 1e-12);
        assert!((p.unattributed_s - 300e-6).abs() < 1e-12);
        assert!((p.covered_s - 1e-3).abs() < 1e-12);
        assert!((p.self_pct("ooo.issue") - 20.0).abs() < 1e-9);
        assert!((p.unattributed_pct() - 30.0).abs() < 1e-9);
        assert_eq!(p.self_pct("never.entered"), 0.0);
    }

    #[test]
    fn overlapping_children_are_not_counted_twice() {
        let spans = vec![
            span(1, 0, "service.client", 0.0, 100.0),
            span(2, 1, "service.job", 0.0, 60.0),
            span(3, 1, "service.job", 40.0, 40.0),
        ];
        let p = Profile::of(&spans);
        assert!((p.unattributed_s - 20e-6).abs() < 1e-12);
    }

    #[test]
    fn tracer_nests_and_round_trips_spans() {
        let t = Tracer::new(100);
        t.span("workload", 0, 0, |root| {
            t.span("cache.load", root, 0, |_| ());
            t.instant("distrib.cell", root, 0, t.now_us());
        });
        let spans = t.take();
        assert_eq!(spans.len(), 3);
        assert!(spans.iter().all(|sp| sp.id > 100));
        let load = spans.iter().find(|sp| sp.name == "cache.load").unwrap();
        let root = spans.iter().find(|sp| sp.name == "workload").unwrap();
        assert_eq!(load.parent, root.id);
        for sp in &spans {
            assert_eq!(
                Span::from_json(&crate::json::parse(&sp.to_json().render()).unwrap()).as_ref(),
                Some(sp)
            );
        }
        assert!(t.take().is_empty(), "take drains");
    }

    #[test]
    fn chrome_trace_has_complete_and_instant_events() {
        let mut inst = span(3, 1, "distrib.cell", 5.0, 0.0);
        inst.instant = true;
        let doc = chrome_trace(&[(
            "w".to_string(),
            vec![span(1, 0, "workload", 0.0, 10.0), inst],
        )]);
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let phases: Vec<&str> = events
            .iter()
            .map(|e| e.get("ph").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(phases, ["M", "X", "i"]);
    }
}
