//! Readers for what the binary already emits about itself: the
//! Chrome-trace JSON of `--trace` (docs/OBSERVABILITY.md) and the
//! `STAGE_PROFILE.json` of `--profile-stages` (docs/CLI.md).

use scalesim::api::json::Json;
use std::collections::BTreeMap;

/// One `"X"` (span) or `"i"` (instant) trace event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    pub cat: String,
    pub name: String,
    /// Start, microseconds on the process's trace clock.
    pub ts_us: f64,
    /// Duration, microseconds; 0 for instants.
    pub dur_us: f64,
    pub args: Vec<(String, f64)>,
}

impl Event {
    pub fn arg(&self, key: &str) -> Option<f64> {
        self.args.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
    }
}

/// Parses a Chrome trace document, keeping span and instant events and
/// dropping metadata.
pub fn parse_trace(text: &str) -> Result<Vec<Event>, String> {
    let doc = Json::parse(text)?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_array)
        .ok_or("trace: no traceEvents array")?;
    let mut out = Vec::new();
    for e in events {
        let ph = e.get("ph").and_then(Json::as_str).unwrap_or("");
        if ph != "X" && ph != "i" {
            continue;
        }
        let text_of = |key: &str| {
            e.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or(format!("trace: event without {key}"))
        };
        let num_of = |key: &str| e.get(key).and_then(Json::as_f64);
        let args = match e.get("args").and_then(Json::as_object) {
            Some(fields) => fields
                .iter()
                .filter_map(|(k, v)| v.as_f64().map(|n| (k.clone(), n)))
                .collect(),
            None => Vec::new(),
        };
        out.push(Event {
            cat: text_of("cat")?,
            name: text_of("name")?,
            ts_us: num_of("ts").ok_or("trace: event without ts")?,
            dur_us: num_of("dur").unwrap_or(0.0),
            args,
        });
    }
    Ok(out)
}

/// Per `(category, name)`: event count, summed seconds and summed
/// integer args — all a per-layer metric needs from a trace. Counts are
/// `f64` so that totals over several passes scale down to a per-pass mean.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct SpanTotals {
    totals: BTreeMap<(String, String), (f64, f64)>,
    args: BTreeMap<(String, String, String), f64>,
    /// Span plus instant events seen.
    pub events: f64,
}

impl SpanTotals {
    pub fn add(&mut self, events: &[Event]) {
        for e in events {
            self.events += 1.0;
            let slot = self
                .totals
                .entry((e.cat.clone(), e.name.clone()))
                .or_default();
            slot.0 += 1.0;
            slot.1 += e.dur_us / 1e6;
            for (k, v) in &e.args {
                *self
                    .args
                    .entry((e.cat.clone(), e.name.clone(), k.clone()))
                    .or_default() += v;
            }
        }
    }

    pub fn scale(&mut self, factor: f64) {
        self.events *= factor;
        for (count, secs) in self.totals.values_mut() {
            *count *= factor;
            *secs *= factor;
        }
        for sum in self.args.values_mut() {
            *sum *= factor;
        }
    }

    fn get(&self, cat: &str, name: &str) -> (f64, f64) {
        self.totals
            .get(&(cat.to_string(), name.to_string()))
            .copied()
            .unwrap_or_default()
    }

    pub fn count(&self, cat: &str, name: &str) -> f64 {
        self.get(cat, name).0
    }

    pub fn secs(&self, cat: &str, name: &str) -> f64 {
        self.get(cat, name).1
    }

    pub fn arg_sum(&self, cat: &str, name: &str, arg: &str) -> f64 {
        self.args
            .get(&(cat.to_string(), name.to_string(), arg.to_string()))
            .copied()
            .unwrap_or(0.0)
    }
}

/// `(stage, calls, seconds)` rows of a `STAGE_PROFILE.json`.
pub fn parse_stage_profile(text: &str) -> Result<Vec<(String, u64, f64)>, String> {
    let doc = Json::parse(text)?;
    let stages = doc
        .get("stages")
        .and_then(Json::as_array)
        .ok_or("stage profile: no stages array")?;
    stages
        .iter()
        .map(|s| {
            let stage = s.get("stage").and_then(Json::as_str);
            let calls = s.get("calls").and_then(Json::as_u64);
            let nanos = s.get("nanos").and_then(Json::as_f64);
            match (stage, calls, nanos) {
                (Some(stage), Some(calls), Some(nanos)) => {
                    Ok((stage.to_string(), calls, nanos / 1e9))
                }
                _ => Err("stage profile: malformed stage row".to_string()),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const TRACE: &str = r#"{"displayTimeUnit":"ms","traceEvents":[
        {"ph":"M","pid":1,"tid":1,"name":"thread_name","args":{"name":"main"}},
        {"name":"plan","cat":"cache","pid":1,"tid":1,"ts":10.0,"ph":"X","dur":2000000.0,"args":{"bytes":1000}},
        {"name":"plan","cat":"cache","pid":1,"tid":2,"ts":20.5,"ph":"X","dur":500000.0,"args":{"bytes":24}},
        {"name":"hit","cat":"cache","pid":1,"tid":1,"ts":30.0,"ph":"i","s":"t"},
        {"name":"compute","cat":"pipeline","pid":1,"tid":1,"ts":5.0,"ph":"X","dur":250000.0}
    ]}"#;

    #[test]
    fn spans_sum_by_category_and_name() {
        let events = parse_trace(TRACE).unwrap();
        assert_eq!(events.len(), 4);
        assert_eq!(events[0].arg("bytes"), Some(1000.0));
        let mut totals = SpanTotals::default();
        totals.add(&events);
        assert_eq!(totals.events, 4.0);
        assert_eq!(totals.count("cache", "plan"), 2.0);
        assert!((totals.secs("cache", "plan") - 2.5).abs() < 1e-12);
        assert_eq!(totals.arg_sum("cache", "plan", "bytes"), 1024.0);
        assert_eq!(totals.count("cache", "hit"), 1.0);
        assert_eq!(totals.secs("cache", "hit"), 0.0);
        assert!((totals.secs("pipeline", "compute") - 0.25).abs() < 1e-12);
        assert_eq!(totals.count("dram", "re-time"), 0.0);
        totals.scale(0.5);
        assert_eq!(totals.count("cache", "plan"), 1.0);
        assert!((totals.secs("cache", "plan") - 1.25).abs() < 1e-12);
        assert_eq!(totals.arg_sum("cache", "plan", "bytes"), 512.0);
        assert_eq!(totals.events, 2.0);
    }

    #[test]
    fn malformed_traces_are_errors() {
        assert!(parse_trace("{}").is_err());
        assert!(parse_trace(r#"{"traceEvents":[{"ph":"X","name":"a","ts":1}]}"#).is_err());
        assert!(parse_trace("not json").is_err());
    }

    #[test]
    fn stage_profile_rows_parse() {
        let text = r#"{"stages":[{"stage":"compute","calls":21,"nanos":1692408813},{"stage":"energy","calls":21,"nanos":42318}]}"#;
        let rows = parse_stage_profile(text).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].0, "compute");
        assert_eq!(rows[0].1, 21);
        assert!((rows[0].2 - 1.692408813).abs() < 1e-12);
        assert!(parse_stage_profile(r#"{"stages":[{"stage":"x"}]}"#).is_err());
        assert!(parse_stage_profile("{}").is_err());
    }
}
