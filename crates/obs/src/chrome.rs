//! Chrome trace-event JSON export.
//!
//! The emitted file is the "JSON object format" of the trace-event
//! spec: `{"displayTimeUnit":"ms","traceEvents":[...]}`, loadable by
//! Perfetto and `chrome://tracing`. One track (`tid`) per recording
//! thread, named by a `thread_name` metadata event; spans are `"X"`
//! (complete) events with microsecond timestamps, instants are `"i"`
//! events with thread scope. Events stream to the writer one at a
//! time, so peak memory is bounded by the ring capacity, not the
//! output size.

use crate::ring::{snapshot_all, EventKind};
use std::io::{self, Write};

/// Appends `s` to `out` with JSON string escaping applied: quotes,
/// backslashes and every control character, `\n`/`\r`/`\t` in their
/// short forms and the rest as `\u00XX`. The one escaper of every JSON
/// writer in the workspace: trace labels here, the wire codec, the sweep
/// and reproduction reports.
pub fn json_escape_into(s: &str, out: &mut String) {
    // Everything escaped is one ASCII byte, so the runs between them
    // are whole UTF-8 and are copied as they are.
    let mut rest = s;
    while let Some(at) = rest
        .bytes()
        .position(|b| matches!(b, b'"' | b'\\' | 0..=0x1f))
    {
        out.push_str(&rest[..at]);
        match rest.as_bytes()[at] {
            b @ (b'"' | b'\\') => out.extend(['\\', char::from(b)]),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            b => out.push_str(&format!("\\u{b:04x}")),
        }
        rest = &rest[at + 1..];
    }
    out.push_str(rest);
}

fn push_us(out: &mut String, ns: u64) {
    // Microseconds with nanosecond precision kept as decimals.
    use std::fmt::Write;
    let _ = write!(out, "{}.{:03}", ns / 1_000, ns % 1_000);
}

/// Streams the current span rings to `writer` as Chrome trace JSON.
/// Non-destructive: recording continues during and after the export.
///
/// # Errors
///
/// Propagates writer I/O errors.
pub fn write_chrome_trace<W: Write>(writer: &mut W) -> io::Result<()> {
    writer.write_all(b"{\"displayTimeUnit\":\"ms\",\"traceEvents\":[")?;
    let mut first = true;
    let mut line = String::new();
    for (index, track) in snapshot_all().iter().enumerate() {
        let tid = index + 1;
        line.clear();
        if !first {
            line.push(',');
        }
        first = false;
        line.push_str(&format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"args\":{{\"name\":\""
        ));
        json_escape_into(&track.label, &mut line);
        line.push_str("\"}}");
        writer.write_all(line.as_bytes())?;
        for event in &track.events {
            line.clear();
            line.push_str(",{\"name\":\"");
            json_escape_into(event.name, &mut line);
            line.push_str("\",\"cat\":\"");
            line.push_str(event.cat.name());
            line.push_str("\",\"pid\":1,\"tid\":");
            line.push_str(&tid.to_string());
            line.push_str(",\"ts\":");
            push_us(&mut line, event.ts_ns);
            match event.kind {
                EventKind::Complete => {
                    line.push_str(",\"ph\":\"X\",\"dur\":");
                    push_us(&mut line, event.dur_ns);
                }
                EventKind::Instant => {
                    line.push_str(",\"ph\":\"i\",\"s\":\"t\"");
                }
            }
            line.push_str(",\"args\":{");
            for (i, (key, value)) in event.args.iter().enumerate() {
                if i > 0 {
                    line.push(',');
                }
                line.push('"');
                json_escape_into(key, &mut line);
                line.push_str("\":");
                line.push_str(&value.to_string());
            }
            line.push_str("}}");
            writer.write_all(line.as_bytes())?;
        }
    }
    writer.write_all(b"]}")
}

/// [`write_chrome_trace`] into a `String` (for the serve `trace`
/// response body).
pub fn chrome_trace_string() -> String {
    let mut buf = Vec::new();
    write_chrome_trace(&mut buf).expect("writing to a Vec cannot fail");
    String::from_utf8(buf).expect("trace JSON is UTF-8 by construction")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Category;

    #[test]
    fn trace_json_has_tracks_spans_and_instants() {
        let _guard = crate::test_guard();
        crate::set_tracing(true);
        crate::label_thread("chrome-test-track");
        {
            let _span = crate::span(Category::Sweep, "chrome-test-span").arg("point", 11);
        }
        crate::instant(Category::Serve, "chrome-test-instant", &[("id", 7)]);
        crate::set_tracing(false);
        let json = chrome_trace_string();
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"thread_name\""), "{json}");
        assert!(json.contains("chrome-test-track"), "{json}");
        assert!(json.contains("\"name\":\"chrome-test-span\""), "{json}");
        assert!(json.contains("\"ph\":\"X\""), "{json}");
        assert!(json.contains("\"point\":11"), "{json}");
        assert!(json.contains("\"name\":\"chrome-test-instant\""), "{json}");
        assert!(json.contains("\"ph\":\"i\""), "{json}");
        assert!(json.contains("\"cat\":\"sweep\""), "{json}");
    }

    #[test]
    fn escaping_handles_quotes_and_control_chars() {
        let mut out = String::new();
        json_escape_into("a\"b\\c\nd", &mut out);
        assert_eq!(out, "a\\\"b\\\\c\\nd");
    }
}
