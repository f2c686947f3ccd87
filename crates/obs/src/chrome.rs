//! Chrome trace-event exporter and validator.
//!
//! Emits the `{"traceEvents": [...]}` JSON object format with paired `B`
//! (begin) / `E` (end) duration events, which loads directly in Perfetto
//! (<https://ui.perfetto.dev>) and `chrome://tracing`. The exporter sorts
//! events globally by timestamp and orders ties so that on every
//! `(pid, tid)` track the B/E events form a well-nested stack;
//! [`validate_chrome_trace`] re-parses the output and checks exactly that,
//! which the golden tests and `scripts/verify.sh` rely on.

use std::collections::BTreeMap;

use crate::json::{escape_into, write_f64, JsonValue};
use crate::span::{ArgValue, Span};

/// Renders spans as a Chrome trace-event JSON document.
///
/// Zero-duration spans are clamped to 1 unit so viewers render them. Tie
/// ordering at equal timestamps: ends before begins (adjacent spans do not
/// overlap), longer spans begin first and end last (nesting stays valid).
pub fn export_chrome_trace(spans: &[Span]) -> String {
    // (ts, phase rank, dur rank, record-order rank, span index, is_begin)
    let mut events: Vec<(u64, u8, u64, usize, usize, bool)> = Vec::with_capacity(spans.len() * 2);
    for (i, span) in spans.iter().enumerate() {
        let dur = span.dur.max(1);
        // Ends sort before begins at the same ts; among begins the longer
        // span opens first, among ends the shorter span closes first. Ties
        // on both ts and dur fall back to record order: completed spans are
        // recorded child-before-parent, so at identical intervals the
        // later-recorded (enclosing) span opens first and closes last.
        events.push((span.ts, 1, u64::MAX - dur, usize::MAX - i, i, true));
        events.push((span.ts + dur, 0, dur, i, i, false));
    }
    events.sort();

    let mut out = String::from("{\"traceEvents\":[");
    for (n, &(ts, _, _, _, idx, is_begin)) in events.iter().enumerate() {
        let span = &spans[idx];
        if n > 0 {
            out.push(',');
        }
        out.push_str("\n  {\"name\":\"");
        escape_into(&mut out, &span.name);
        out.push_str("\",\"ph\":\"");
        out.push(if is_begin { 'B' } else { 'E' });
        out.push_str("\",\"ts\":");
        out.push_str(&ts.to_string());
        out.push_str(",\"pid\":");
        out.push_str(&span.pid.to_string());
        out.push_str(",\"tid\":");
        out.push_str(&span.tid.to_string());
        if is_begin {
            out.push_str(",\"cat\":\"");
            escape_into(&mut out, &span.cat);
            out.push('"');
            if !span.args.is_empty() {
                out.push_str(",\"args\":{");
                for (k, (key, value)) in span.args.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    escape_into(&mut out, key);
                    out.push_str("\":");
                    match value {
                        ArgValue::U64(v) => out.push_str(&v.to_string()),
                        ArgValue::F64(v) => write_f64(&mut out, *v),
                        ArgValue::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
                        ArgValue::Str(v) => {
                            out.push('"');
                            escape_into(&mut out, v);
                            out.push('"');
                        }
                    }
                }
                out.push('}');
            }
        }
        out.push('}');
    }
    out.push_str("\n]}\n");
    out
}

/// Summary of a validated trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceStats {
    /// Total trace events (B + E).
    pub events: usize,
    /// Matched B/E span pairs.
    pub spans: usize,
    /// Distinct `(pid, tid)` tracks.
    pub tracks: usize,
}

/// Parses `json` as a Chrome trace and checks the invariants the exporter
/// guarantees: global `ts` ordering, and per-`(pid, tid)` well-nested,
/// name-matched B/E pairs with nothing left open.
pub fn validate_chrome_trace(json: &str) -> Result<TraceStats, String> {
    let doc = JsonValue::parse(json).map_err(|e| e.to_string())?;
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_arr)
        .ok_or("missing traceEvents array")?;

    let mut prev_ts: Option<f64> = None;
    let mut stacks: BTreeMap<(u64, u64), Vec<String>> = BTreeMap::new();
    let mut spans = 0usize;

    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        let ts = ev
            .get("ts")
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("event {i}: missing ts"))?;
        let pid = ev
            .get("pid")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| format!("event {i}: missing pid"))?;
        let tid = ev
            .get("tid")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| format!("event {i}: missing tid"))?;
        let name = ev
            .get("name")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("event {i}: missing name"))?;

        if let Some(prev) = prev_ts {
            if ts < prev {
                return Err(format!("event {i}: ts {ts} < previous {prev} (unsorted)"));
            }
        }
        prev_ts = Some(ts);

        let stack = stacks.entry((pid, tid)).or_default();
        match ph {
            "B" => stack.push(name.to_string()),
            "E" => {
                let open = stack
                    .pop()
                    .ok_or_else(|| format!("event {i}: E '{name}' with no open B on track"))?;
                if open != name {
                    return Err(format!(
                        "event {i}: E '{name}' closes B '{open}' (mismatched nesting)"
                    ));
                }
                spans += 1;
            }
            other => return Err(format!("event {i}: unsupported phase '{other}'")),
        }
    }

    for ((pid, tid), stack) in &stacks {
        if let Some(open) = stack.last() {
            return Err(format!("track ({pid},{tid}): B '{open}' never closed"));
        }
    }

    Ok(TraceStats {
        events: events.len(),
        spans,
        tracks: stacks.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, pid: u64, tid: u64, ts: u64, dur: u64) -> Span {
        Span {
            name: name.to_string(),
            cat: "test".to_string(),
            pid,
            tid,
            ts,
            dur,
            args: Vec::new(),
        }
    }

    #[test]
    fn nested_and_adjacent_spans_validate() {
        let spans = vec![
            span("outer", 0, 0, 0, 100),
            span("inner", 0, 0, 10, 20),
            span("adjacent-starts-where-inner-ends", 0, 0, 30, 5),
            span("other-track", 1, 3, 5, 50),
        ];
        let json = export_chrome_trace(&spans);
        let stats = validate_chrome_trace(&json).unwrap();
        assert_eq!(stats, TraceStats { events: 8, spans: 4, tracks: 2 });
    }

    #[test]
    fn zero_duration_spans_are_clamped_not_dropped() {
        let spans = vec![span("instant", 0, 0, 7, 0)];
        let json = export_chrome_trace(&spans);
        let stats = validate_chrome_trace(&json).unwrap();
        assert_eq!(stats.spans, 1);
        assert!(json.contains("\"ts\":7"));
        assert!(json.contains("\"ts\":8"), "end clamped to ts+1");
    }

    #[test]
    fn shared_boundary_at_same_ts_orders_end_before_begin() {
        // Span A ends exactly where span B begins on the same track.
        let spans = vec![span("a", 0, 0, 0, 10), span("b", 0, 0, 10, 10)];
        let json = export_chrome_trace(&spans);
        validate_chrome_trace(&json).unwrap();
        let a_end = json.find("\"name\":\"a\",\"ph\":\"E\"").unwrap();
        let b_begin = json.find("\"name\":\"b\",\"ph\":\"B\"").unwrap();
        assert!(a_end < b_begin, "E of 'a' must precede B of 'b'");
    }

    #[test]
    fn identical_intervals_nest_by_record_order() {
        // A kernel launch whose single wavefront covers the exact same
        // cycle interval: the wavefront (child) is recorded first, the
        // launch (parent) after it completes.
        let spans = vec![span("wf:0..64", 0, 0, 0, 40), span("launch:sobel", 0, 0, 0, 40)];
        let json = export_chrome_trace(&spans);
        let stats = validate_chrome_trace(&json).unwrap();
        assert_eq!(stats.spans, 2);
        let parent_b = json.find("\"name\":\"launch:sobel\",\"ph\":\"B\"").unwrap();
        let child_b = json.find("\"name\":\"wf:0..64\",\"ph\":\"B\"").unwrap();
        assert!(parent_b < child_b, "enclosing span must open first");
    }

    #[test]
    fn validator_rejects_broken_traces() {
        assert!(validate_chrome_trace("{}").is_err());
        let unsorted = r#"{"traceEvents":[
  {"name":"x","ph":"B","ts":5,"pid":0,"tid":0},
  {"name":"x","ph":"E","ts":4,"pid":0,"tid":0}
]}"#;
        assert!(validate_chrome_trace(unsorted).unwrap_err().contains("unsorted"));
        let dangling = r#"{"traceEvents":[
  {"name":"x","ph":"B","ts":1,"pid":0,"tid":0}
]}"#;
        assert!(validate_chrome_trace(dangling).unwrap_err().contains("never closed"));
        let mismatched = r#"{"traceEvents":[
  {"name":"x","ph":"B","ts":1,"pid":0,"tid":0},
  {"name":"y","ph":"E","ts":2,"pid":0,"tid":0}
]}"#;
        assert!(validate_chrome_trace(mismatched).unwrap_err().contains("mismatched"));
    }

    #[test]
    fn args_render_into_begin_events() {
        let mut s = span("k", 0, 0, 0, 5);
        s.args = vec![
            ("lanes".to_string(), ArgValue::U64(64)),
            ("rate".to_string(), ArgValue::F64(0.5)),
            ("backend".to_string(), ArgValue::Str("parallel".to_string())),
            ("ok".to_string(), ArgValue::Bool(true)),
        ];
        let json = export_chrome_trace(&[s]);
        validate_chrome_trace(&json).unwrap();
        assert!(json.contains(r#""args":{"lanes":64,"rate":0.5,"backend":"parallel","ok":true}"#));
    }
}
