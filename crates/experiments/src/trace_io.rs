//! Trace persistence: save and reload workload traces and
//! observability event traces as JSON Lines.
//!
//! The paper's experiments replay recorded context streams; this module
//! gives the harness the same capability — generate once, share the
//! exact trace, replay anywhere. One JSON object per line, one line per
//! context (or per [`TraceRecord`] for event traces), in stream order.

use ctxres_context::Context;
use ctxres_obs::TraceRecord;
use std::io::{BufRead, Write};
use std::path::Path;

pub(crate) fn save_lines<T: serde::Serialize>(path: &Path, items: &[T]) -> Result<(), String> {
    let file = std::fs::File::create(path).map_err(|e| format!("create {path:?}: {e}"))?;
    let mut out = std::io::BufWriter::new(file);
    for item in items {
        let line = serde_json::to_string(item).map_err(|e| e.to_string())?;
        writeln!(out, "{line}").map_err(|e| e.to_string())?;
    }
    // Dropping the writer would flush too, but would discard the error.
    out.flush().map_err(|e| format!("write {path:?}: {e}"))
}

pub(crate) fn load_lines<T: serde::de::DeserializeOwned>(path: &Path) -> Result<Vec<T>, String> {
    let file = std::fs::File::open(path).map_err(|e| format!("open {path:?}: {e}"))?;
    let reader = std::io::BufReader::new(file);
    let mut out = Vec::new();
    for (i, line) in reader.lines().enumerate() {
        let line = line.map_err(|e| format!("line {}: {e}", i + 1))?;
        if line.trim().is_empty() {
            continue;
        }
        let item: T = serde_json::from_str(&line).map_err(|e| format!("line {}: {e}", i + 1))?;
        out.push(item);
    }
    Ok(out)
}

/// Serializes a trace to JSON Lines.
///
/// # Errors
///
/// Returns a string describing any I/O or serialization failure.
pub fn save_trace(path: &Path, trace: &[Context]) -> Result<(), String> {
    save_lines(path, trace)
}

/// Loads a JSON Lines trace.
///
/// # Errors
///
/// Returns a string describing any I/O or parse failure (with the line
/// number).
pub fn load_trace(path: &Path) -> Result<Vec<Context>, String> {
    load_lines(path)
}

/// Serializes an observability event trace to JSON Lines — one
/// [`TraceRecord`] object per line, in trace order. This is the format
/// `trace_dump` consumes and CI archives as a smoke artifact.
///
/// # Errors
///
/// Returns a string describing any I/O or serialization failure.
pub fn save_events(path: &Path, events: &[TraceRecord]) -> Result<(), String> {
    save_lines(path, events)
}

/// Loads a JSON Lines observability event trace.
///
/// # Errors
///
/// Returns a string describing any I/O or parse failure (with the line
/// number).
pub fn load_events(path: &Path) -> Result<Vec<TraceRecord>, String> {
    load_lines(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctxres_apps::call_forwarding::CallForwarding;
    use ctxres_apps::PervasiveApp;

    #[test]
    fn round_trip_preserves_the_trace() {
        let app = CallForwarding::new();
        let trace = app.generate(0.3, 5, 60);
        let dir = std::env::temp_dir().join("ctxres-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        save_trace(&path, &trace).unwrap();
        let loaded = load_trace(&path).unwrap();
        assert_eq!(trace, loaded);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn event_round_trip_preserves_the_trace() {
        use crate::runner::run_named_observed;
        use ctxres_obs::ObsConfig;
        let app = CallForwarding::new();
        let (_, telemetry) = run_named_observed(
            &app,
            "d-bad",
            0.3,
            5,
            80,
            app.recommended_window(),
            ObsConfig::enabled(),
        );
        assert!(!telemetry.trace.is_empty());
        let dir = std::env::temp_dir().join("ctxres-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.jsonl");
        save_events(&path, &telemetry.trace).unwrap();
        let loaded = load_events(&path).unwrap();
        assert_eq!(telemetry.trace, loaded);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_reports_bad_lines() {
        let dir = std::env::temp_dir().join("ctxres-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.jsonl");
        std::fs::write(&path, "{not json}\n").unwrap();
        let err = load_trace(&path).unwrap_err();
        assert!(err.contains("line 1"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_an_error() {
        assert!(load_trace(Path::new("/definitely/not/here.jsonl")).is_err());
    }

    /// A trace short enough to sit in the write buffer until the end
    /// still reports a device with no room.
    #[cfg(target_os = "linux")]
    #[test]
    fn a_short_trace_that_cannot_be_written_is_an_error() {
        let trace = CallForwarding::new().generate(0.3, 1, 5);
        let err = save_trace(Path::new("/dev/full"), &trace).unwrap_err();
        assert!(err.contains("/dev/full"), "{err}");
    }

    /// One context through every part of the wire shape: a value of
    /// each kind, names given out of order (the empty one and a repeat
    /// included), an explicit lifespan, a source, corrupted truth and a
    /// `Bad` state.
    fn wire_sample() -> Context {
        use ctxres_context::{
            ContextKind, ContextState, Lifespan, LogicalTime, Point, SourceId, Ticks, TruthTag,
        };
        let stamp = LogicalTime::new(7);
        let mut ctx = Context::builder(ContextKind::new("location"), "peter")
            .attr("zone", "lab \"b\"")
            .attr("seq", 1i64)
            .attr("pos", Point::new(1.5, -2.25))
            .attr("moving", true)
            .attr("speed", 0.5)
            .attr("seq", 42i64)
            .attr("", -3i64)
            .stamp(stamp)
            .lifespan(Lifespan::with_ttl(stamp, Ticks::new(30)))
            .source(SourceId(3))
            .truth(TruthTag::Corrupted)
            .build();
        ctx.set_state(ContextState::Bad).unwrap();
        ctx
    }

    /// The trace JSONL line and the `Debug` form of [`wire_sample`],
    /// pinned to what the map-backed context printed: fields in
    /// declaration order, attributes as a name-ordered object.
    const WIRE_LINE: &str = concat!(
        r#"{"kind":"location","subject":"peter","attrs":{"":{"Int":-3},"moving":{"Bool":true},"#,
        r#""pos":{"Point":{"x":1.5,"y":-2.25}},"seq":{"Int":42},"speed":{"Float":0.5},"#,
        r#""zone":{"Text":"lab \"b\""}},"stamp":7,"lifespan":{"created":7,"ttl":30},"#,
        r#""source":3,"truth":"Corrupted","state":"Bad"}"#
    );
    const WIRE_DEBUG: &str = concat!(
        r#"Context { kind: ContextKind("location"), subject: "peter", attrs: {"": Int(-3), "#,
        r#""moving": Bool(true), "pos": Point(Point { x: 1.5, y: -2.25 }), "seq": Int(42), "#,
        r#""speed": Float(0.5), "zone": Text("lab \"b\"")}, stamp: LogicalTime(7), "#,
        r#"lifespan: Lifespan { created: LogicalTime(7), ttl: Some(Ticks(30)) }, "#,
        r#"source: SourceId(3), truth: Corrupted, state: Bad }"#
    );

    #[test]
    fn context_wire_shape_is_pinned() {
        let ctx = wire_sample();
        assert_eq!(serde_json::to_string(&ctx).unwrap(), WIRE_LINE);
        assert_eq!(format!("{ctx:?}"), WIRE_DEBUG);
        let dir = std::env::temp_dir().join("ctxres-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wire.jsonl");
        save_trace(&path, std::slice::from_ref(&ctx)).unwrap();
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            format!("{WIRE_LINE}\n")
        );
        let loaded = load_trace(&path).unwrap();
        assert_eq!(loaded, [ctx]);
        assert_eq!(format!("{:?}", loaded[0]), WIRE_DEBUG);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_lines_are_skipped() {
        let app = CallForwarding::new();
        let trace = app.generate(0.0, 1, 3);
        let dir = std::env::temp_dir().join("ctxres-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("gaps.jsonl");
        let mut body = String::new();
        for c in &trace {
            body.push_str(&serde_json::to_string(c).unwrap());
            body.push_str("\n\n");
        }
        std::fs::write(&path, body).unwrap();
        assert_eq!(load_trace(&path).unwrap(), trace);
        std::fs::remove_file(&path).ok();
    }
}
