//! Host-time tracing from the benchmark's side of each call.
//!
//! The benchmark adds no spans inside the program. It wraps each call
//! into a layer's public API in a `bench:<call>` wall span whose category
//! names the layer, attaches the same recorder to the devices it builds,
//! and reads the spans the program already records (`launch:*`,
//! `program:compile`, `cu*:worker`, `serve:*`). [`attribute`] then splits
//! the window's wall time into per-layer self time.

use std::collections::BTreeMap;
use std::time::Instant;

use tm_obs::{SharedRecorder, Span};

/// The layers host time is attributed to, named after the module that
/// owns them. `check` is the benchmark's own output verification.
pub const LAYERS: [&str; 8] = [
    "kernels",
    "sim.device",
    "sim.compiled",
    "sim.engine",
    "snapshot",
    "campaign",
    "serve",
    "check",
];

/// Spans one traced round may record before the recorder drops them.
pub const ROUND_SPAN_CAPACITY: usize = 1 << 18;

/// Times calls into the program under test; when traced, also records a
/// `bench:<call>` span per call.
#[derive(Debug, Clone)]
pub struct Probe {
    rec: Option<SharedRecorder>,
    pid: u64,
    tid: u64,
}

impl Probe {
    /// A probe that only times.
    #[must_use]
    pub const fn untraced() -> Self {
        Self {
            rec: None,
            pid: 0,
            tid: 0,
        }
    }

    /// A probe recording into `rec` on track `(pid, tid)`.
    #[must_use]
    pub fn traced(rec: &SharedRecorder, pid: u64, tid: u64) -> Self {
        Self {
            rec: Some(rec.clone()),
            pid,
            tid,
        }
    }

    /// The recorder, when traced.
    #[must_use]
    pub const fn recorder(&self) -> Option<&SharedRecorder> {
        self.rec.as_ref()
    }

    /// Runs `f` as one call into `layer`, returning its result and its
    /// duration in seconds.
    pub fn call<R>(&self, layer: &'static str, call: &str, f: impl FnOnce() -> R) -> (R, f64) {
        debug_assert!(LAYERS.contains(&layer), "unknown layer {layer}");
        let start_us = self.rec.as_ref().map(SharedRecorder::now_us);
        let t = Instant::now();
        let out = f();
        let secs = t.elapsed().as_secs_f64();
        if let (Some(rec), Some(ts)) = (&self.rec, start_us) {
            rec.record(Span {
                name: format!("bench:{call}"),
                cat: layer.to_string(),
                pid: self.pid,
                tid: self.tid,
                ts,
                dur: rec.now_us().saturating_sub(ts),
                args: Vec::new(),
            });
        }
        (out, secs)
    }
}

/// Host time of traced windows, split by layer.
#[derive(Debug, Default, Clone)]
pub struct LayerTimes {
    /// Self time per layer, µs.
    pub self_us: BTreeMap<&'static str, f64>,
    /// Wall time of the load threads the spans are reconciled against, µs.
    pub wall_us: f64,
    /// Time covered by the benchmark's top-level spans, µs.
    pub attributed_us: f64,
    /// Duration of every `launch:*` span, µs.
    pub launch_us: Vec<f64>,
    /// Duration of every `program:compile` span, µs.
    pub compile_us: Vec<f64>,
    /// Per threaded launch: launch duration minus its longest worker, µs.
    pub fork_join_us: Vec<f64>,
    /// Summed worker span time of threaded launches, µs.
    pub worker_busy_us: f64,
    /// Launch duration times worker count of threaded launches, µs.
    pub worker_capacity_us: f64,
    /// Launch time inside campaign calls, µs.
    pub campaign_launch_us: f64,
    /// Time inside campaign calls, µs.
    pub campaign_us: f64,
}

impl LayerTimes {
    /// Share of wall time each layer spent in itself.
    #[must_use]
    pub fn self_frac(&self, layer: &str) -> f64 {
        ratio(
            self.self_us.get(layer).copied().unwrap_or(0.0),
            self.wall_us,
        )
    }

    /// Share of wall time no benchmark span covers: the benchmark loop's
    /// own bookkeeping.
    #[must_use]
    pub fn unattributed_frac(&self) -> f64 {
        ratio((self.wall_us - self.attributed_us).max(0.0), self.wall_us)
    }

    /// The reconciliation line: layer self times against wall time.
    #[must_use]
    pub fn reconciliation(&self) -> String {
        let layers: f64 = self.self_us.values().sum();
        format!(
            "reconcile: layer self times sum to {:.1} ms of {:.1} ms wall ({:.2}% unattributed)",
            layers / 1e3,
            self.wall_us / 1e3,
            self.unattributed_frac() * 100.0
        )
    }
}

/// `num / den`, or 0 when `den` is 0.
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Bench,
    Launch,
    Compile,
    Worker,
    Serve,
}

#[derive(Debug, Clone, Copy)]
struct Node {
    kind: Kind,
    layer: &'static str,
    nest: u64,
    pid: u64,
    ts: u64,
    end: u64,
    order: usize,
}

/// Whether `span` is stamped in simulated cycles rather than host µs.
/// Cycle spans share names with wall spans; only the wall `launch:*`
/// span carries arguments.
#[must_use]
pub fn is_cycle_span(span: &Span) -> bool {
    span.cat == "wavefront" || (span.cat == "kernel" && span.args.is_empty())
}

fn classify(span: &Span, bench_pid: u64) -> Option<(Kind, &'static str)> {
    if span.pid == bench_pid {
        let layer = LAYERS.iter().copied().find(|l| *l == span.cat)?;
        return Some((Kind::Bench, layer));
    }
    if is_cycle_span(span) {
        return None;
    }
    if span.cat == "parallel" || span.cat == "intra-cu" {
        Some((Kind::Worker, "sim.engine"))
    } else if span.name.starts_with("launch:") {
        Some((Kind::Launch, "sim.engine"))
    } else if span.name == "program:compile" {
        Some((Kind::Compile, "sim.compiled"))
    } else if span.name.starts_with("serve:") {
        Some((Kind::Serve, "serve"))
    } else {
        None
    }
}

fn union_len(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Adds one traced window's spans to `acc`.
///
/// A span's children are the spans it encloses on the same thread of
/// control; its self time is its duration minus the union of its
/// children. Worker spans run beside their launch, so they feed the
/// fork/join and busy figures instead of the self-time tree. With
/// `clients`, the benchmark's spans come from client threads while the
/// program runs on its own threads: the program's top-level spans are
/// then subtracted from the client spans in aggregate, since a request
/// cannot be matched to its job from the spans alone.
pub fn attribute(
    spans: &[Span],
    bench_pid: u64,
    clients: bool,
    wall_us: f64,
    acc: &mut LayerTimes,
) {
    acc.wall_us += wall_us;
    let mut nodes: Vec<Node> = spans
        .iter()
        .enumerate()
        .filter_map(|(order, s)| {
            let (kind, layer) = classify(s, bench_pid)?;
            let nest = if clients && kind == Kind::Bench {
                1 + s.tid
            } else {
                0
            };
            Some(Node {
                kind,
                layer,
                nest,
                pid: s.pid,
                ts: s.ts,
                end: s.ts + s.dur,
                order,
            })
        })
        .collect();
    nodes.sort_by_key(|n| {
        (
            n.nest,
            n.ts,
            std::cmp::Reverse(n.end),
            std::cmp::Reverse(n.order),
        )
    });

    // The parent of a span is the shortest span of its nest enclosing it;
    // of two identical intervals the later-recorded one encloses.
    let encloses = |p: &Node, c: &Node| {
        p.nest == c.nest
            && p.kind != Kind::Worker
            && p.ts <= c.ts
            && c.end <= p.end
            && (p.end - p.ts > c.end - c.ts || p.order > c.order)
    };
    let mut parent: Vec<Option<usize>> = vec![None; nodes.len()];
    for (i, c) in nodes.iter().enumerate() {
        if c.kind == Kind::Worker {
            continue;
        }
        parent[i] = nodes[..i]
            .iter()
            .enumerate()
            .filter(|(_, p)| encloses(p, c))
            .min_by_key(|(_, p)| p.end - p.ts)
            .map(|(j, _)| j);
    }

    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); nodes.len()];
    for (i, p) in parent.iter().enumerate() {
        if let Some(p) = *p {
            children[p].push((nodes[i].ts, nodes[i].end));
        }
    }
    let root = |mut i: usize| {
        while let Some(p) = parent[i] {
            i = p;
        }
        i
    };
    let (mut client_top, mut program_top) = (0.0, 0.0);
    for (i, n) in nodes.iter().enumerate() {
        if n.kind == Kind::Worker {
            continue;
        }
        let dur = (n.end - n.ts) as f64;
        let own = dur - union_len(std::mem::take(&mut children[i])) as f64;
        *acc.self_us.entry(n.layer).or_default() += own;
        if parent[i].is_none() {
            if !clients || n.kind == Kind::Bench {
                client_top += dur;
            } else {
                program_top += dur;
            }
        }
        match n.kind {
            Kind::Launch => {
                acc.launch_us.push(dur);
                let workers: Vec<f64> = nodes
                    .iter()
                    .filter(|w| {
                        w.kind == Kind::Worker && w.pid == n.pid && n.ts <= w.ts && w.end <= n.end
                    })
                    .map(|w| (w.end - w.ts) as f64)
                    .collect();
                if !workers.is_empty() {
                    let longest = workers.iter().copied().fold(0.0, f64::max);
                    acc.fork_join_us.push(dur - longest);
                    acc.worker_busy_us += workers.iter().sum::<f64>();
                    acc.worker_capacity_us += dur * workers.len() as f64;
                }
                if nodes[root(i)].layer == "campaign" {
                    acc.campaign_launch_us += dur;
                }
            }
            Kind::Compile => acc.compile_us.push(dur),
            Kind::Bench if n.layer == "campaign" => acc.campaign_us += dur,
            _ => {}
        }
    }
    acc.attributed_us += client_top;
    if clients {
        *acc.self_us.entry("serve").or_default() -= program_top.min(client_top);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_obs::ArgValue;

    fn span(name: &str, cat: &str, pid: u64, tid: u64, ts: u64, dur: u64) -> Span {
        let args = if name.starts_with("launch:") {
            vec![("backend".to_string(), ArgValue::Str("parallel".to_string()))]
        } else {
            Vec::new()
        };
        Span {
            name: name.into(),
            cat: cat.into(),
            pid,
            tid,
            ts,
            dur,
            args,
        }
    }

    #[test]
    fn self_time_subtracts_children_and_reconciles() {
        let cycle_span = Span {
            args: Vec::new(),
            ..span("launch:sobel", "kernel", 2, 0, 0, 900)
        };
        let spans = vec![
            span("launch:sobel", "kernel", 1, 0, 10, 50),
            cycle_span,
            span("cu0:worker", "parallel", 1, 0, 12, 40),
            span("cu1:worker", "parallel", 1, 1, 12, 30),
            span("bench:DeviceWorkload::run", "kernels", 0, 0, 5, 60),
            span("bench:Device::new", "sim.device", 0, 0, 0, 5),
        ];
        let mut acc = LayerTimes::default();
        attribute(&spans, 0, false, 80.0, &mut acc);
        assert_eq!(acc.self_us["sim.engine"], 50.0);
        assert_eq!(acc.self_us["kernels"], 10.0);
        assert_eq!(acc.self_us["sim.device"], 5.0);
        assert_eq!(acc.attributed_us, 65.0);
        assert_eq!(acc.fork_join_us, vec![10.0]);
        assert_eq!(acc.worker_busy_us, 70.0);
        assert_eq!(acc.worker_capacity_us, 100.0);
        assert!((acc.unattributed_frac() - 15.0 / 80.0).abs() < 1e-12);
    }

    #[test]
    fn client_spans_absorb_server_jobs_in_aggregate() {
        let spans = vec![
            span("bench:Client::request", "serve", 0, 0, 0, 100),
            span("bench:Client::request", "serve", 0, 1, 0, 100),
            span("serve:launch", "serve", 7, 0, 10, 60),
            span("serve:launch", "serve", 7, 1, 20, 60),
            span("launch:program", "kernel", 9, 0, 30, 20),
        ];
        let mut acc = LayerTimes::default();
        attribute(&spans, 0, true, 200.0, &mut acc);
        assert_eq!(acc.self_us["sim.engine"], 20.0);
        assert_eq!(acc.self_us["serve"], 180.0);
        assert_eq!(acc.attributed_us, 200.0);
    }

    #[test]
    fn identical_intervals_nest_by_record_order() {
        let spans = vec![
            span("launch:x", "kernel", 1, 0, 0, 10),
            span("bench:DeviceWorkload::run", "kernels", 0, 0, 0, 10),
        ];
        let mut acc = LayerTimes::default();
        attribute(&spans, 0, false, 10.0, &mut acc);
        assert_eq!(acc.self_us["kernels"], 0.0);
        assert_eq!(acc.self_us["sim.engine"], 10.0);
    }
}
