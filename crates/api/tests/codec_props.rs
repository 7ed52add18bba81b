//! Seeded property tests of the JSON codec and the wire protocol:
//! round-trip identity for every request/response variant under random
//! payloads, object-key-order preservation, and decoder robustness
//! against arbitrary bytes and against valid bodies with one member
//! renamed or retyped.
//!
//! These run everywhere (no external crates): a vendored SplitMix64
//! drives deterministic generation, so a failure reproduces from the
//! printed seed.

use scalesim_api::json::Json;
use scalesim_api::{
    wire, AreaBody, AreaSpec, ConfigSource, Features, LlmBody, LlmRequest, Report, RunBody,
    RunSpec, RunSummaryBody, ScaleoutBody, ScaleoutRequest, SimError, SimRequest, SimResponse,
    StatsBody, SweepBody, SweepRequest, TopologyFormat, TopologySource, TraceBody, VersionBody,
};

/// SplitMix64: tiny, seedable, good-enough mixing for test generation.
struct SplitMix64(u64);

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        Self(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn chance(&mut self, one_in: u64) -> bool {
        self.below(one_in) == 0
    }
}

/// A string drawn from a pool that stresses every escape path: quotes,
/// backslashes, control characters, multi-byte UTF-8 and surrogates-
/// adjacent code points.
fn arb_string(rng: &mut SplitMix64) -> String {
    const POOL: &[char] = &[
        'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{1}', '\u{1f}', '\u{7f}',
        'é', 'λ', '中', '\u{2028}', '😀', '\u{fffd}',
    ];
    let len = rng.below(12) as usize;
    (0..len)
        .map(|_| POOL[rng.below(POOL.len() as u64) as usize])
        .collect()
}

/// An f64 with at most `decimals` decimal places, so emitters printing
/// with that precision round-trip it exactly.
fn quantized(rng: &mut SplitMix64, max_units: u64, decimals: u32) -> f64 {
    let scale = 10u64.pow(decimals) as f64;
    rng.below(max_units) as f64 / scale
}

fn arb_json(rng: &mut SplitMix64, depth: usize) -> Json {
    let pick = if depth == 0 {
        rng.below(4)
    } else {
        rng.below(6)
    };
    match pick {
        0 => Json::Null,
        1 => Json::Bool(rng.chance(2)),
        // Integers are exact in f64 up to 2^53; stay within.
        2 => Json::Num((rng.below(1 << 53) as i64 - (1 << 52)) as f64),
        3 => Json::Str(arb_string(rng)),
        4 => {
            let n = rng.below(4) as usize;
            Json::Arr((0..n).map(|_| arb_json(rng, depth - 1)).collect())
        }
        _ => {
            let n = rng.below(4) as usize;
            Json::Obj(
                (0..n)
                    .map(|i| {
                        (
                            format!("k{i}_{}", arb_string(rng)),
                            arb_json(rng, depth - 1),
                        )
                    })
                    .collect(),
            )
        }
    }
}

#[test]
fn json_values_round_trip_through_emit_and_parse() {
    let mut rng = SplitMix64::new(0xC0DE_C001);
    for case in 0..500 {
        let value = arb_json(&mut rng, 4);
        let text = value.to_string();
        let parsed = Json::parse(&text)
            .unwrap_or_else(|e| panic!("case {case}: emitted JSON must parse: {e}\n{text}"));
        assert_eq!(parsed, value, "case {case}: round-trip changed the value");
    }
}

#[test]
fn object_key_order_survives_the_round_trip() {
    let mut rng = SplitMix64::new(0xC0DE_C002);
    for case in 0..200 {
        let n = 1 + rng.below(8) as usize;
        // Distinct keys in a random (insertion) order.
        let keys: Vec<String> = (0..n)
            .map(|i| format!("{}{i}", arb_string(&mut rng)))
            .collect();
        let obj = Json::Obj(
            keys.iter()
                .map(|k| (k.clone(), arb_json(&mut rng, 2)))
                .collect(),
        );
        let parsed = Json::parse(&obj.to_string()).expect("emitted JSON parses");
        let parsed_keys: Vec<&str> = parsed
            .as_object()
            .expect("object stays an object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            parsed_keys,
            keys.iter().map(String::as_str).collect::<Vec<_>>(),
            "case {case}: key order must be insertion order"
        );
    }
}

fn arb_config(rng: &mut SplitMix64) -> ConfigSource {
    match rng.below(3) {
        0 => ConfigSource::Default,
        1 => ConfigSource::Inline(arb_string(rng)),
        _ => ConfigSource::Path(format!("cfg/{}.cfg", rng.below(1000))),
    }
}

fn arb_topology(rng: &mut SplitMix64) -> TopologySource {
    let mut t = if rng.chance(2) {
        TopologySource::inline(arb_string(rng), arb_string(rng))
    } else {
        TopologySource::from_path(format!("t/{}.csv", rng.below(1000)))
    };
    t.format = match rng.below(3) {
        0 => TopologyFormat::Auto,
        1 => TopologyFormat::Conv,
        _ => TopologyFormat::Gemm,
    };
    t
}

fn arb_features(rng: &mut SplitMix64) -> Features {
    Features {
        dram: rng.chance(2),
        energy: rng.chance(2),
        layout: rng.chance(2),
        cores: rng
            .chance(3)
            .then(|| format!("{}x{}", 1 + rng.below(8), 1 + rng.below(8))),
    }
}

fn arb_request(rng: &mut SplitMix64) -> SimRequest {
    match rng.below(8) {
        0 => SimRequest::Run(RunSpec {
            config: arb_config(rng),
            topology: arb_topology(rng),
            features: arb_features(rng),
        }),
        1 => SimRequest::Sweep(SweepRequest {
            // A sweep spec cannot be "default" (the decoder rejects it:
            // a sweep needs a grid), so draw inline/path only.
            spec: if rng.chance(2) {
                ConfigSource::Inline(arb_string(rng))
            } else {
                ConfigSource::Path(format!("grid/{}.toml", rng.below(1000)))
            },
            base_config: arb_config(rng),
            topologies: (0..rng.below(3)).map(|_| arb_topology(rng)).collect(),
            shards: 1 + rng.below(16) as usize,
        }),
        2 => {
            let mut req = ScaleoutRequest::for_topology(arb_topology(rng));
            req.config = arb_config(rng);
            req.features = arb_features(rng);
            req.chips = rng.chance(2).then(|| 1 + rng.below(64) as usize);
            req.fabric = rng.chance(3).then(|| "mesh".to_string());
            req.link_gbps = rng.chance(3).then(|| rng.below(400) as f64);
            req.link_latency = rng.chance(3).then(|| rng.below(5000));
            req.strategy = rng.chance(3).then(|| "data".to_string());
            req.microbatches = rng.chance(3).then(|| 1 + rng.below(16) as usize);
            SimRequest::Scaleout(req)
        }
        3 => SimRequest::AreaReport(AreaSpec {
            config: arb_config(rng),
            features: arb_features(rng),
        }),
        4 => SimRequest::Llm(LlmRequest {
            config: arb_config(rng),
            workload: rng.chance(2).then(|| "llama-7b".to_string()),
            phase: rng.chance(2).then(|| "decode".to_string()),
            seq: rng.chance(2).then(|| 1 + rng.below(4096) as usize),
            batch: rng.chance(2).then(|| 1 + rng.below(64) as usize),
            context: rng.chance(2).then(|| 1 + rng.below(8192) as usize),
            features: arb_features(rng),
        }),
        5 => SimRequest::Version,
        6 => SimRequest::Stats,
        _ => SimRequest::Trace,
    }
}

#[test]
fn every_request_variant_round_trips_with_random_payloads() {
    let mut rng = SplitMix64::new(0xC0DE_C003);
    for case in 0..300 {
        let request = arb_request(&mut rng);
        let id = rng
            .chance(2)
            .then(|| format!("id-{}", arb_string(&mut rng)));
        // JSON numbers are exact up to 2^53 (documented codec limit);
        // 2^53 ms is ~285k years, so real deadlines never get close.
        let deadline = rng.chance(2).then(|| rng.next() >> 11);
        let line = wire::encode_request_with_deadline(id.as_deref(), deadline, &request);
        let decoded = wire::decode_request_full(&line);
        assert_eq!(decoded.id, id, "case {case}: id\n{line}");
        assert_eq!(
            decoded.deadline_ms, deadline,
            "case {case}: deadline\n{line}"
        );
        let round_tripped = decoded
            .request
            .unwrap_or_else(|e| panic!("case {case}: decode failed: {e}\n{line}"));
        assert_eq!(round_tripped, request, "case {case}\n{line}");
    }
}

fn arb_reports(rng: &mut SplitMix64) -> Vec<Report> {
    (0..rng.below(3))
        .map(|i| Report {
            name: format!("R{i}.csv"),
            content: arb_string(rng),
        })
        .collect()
}

fn arb_summary(rng: &mut SplitMix64) -> RunSummaryBody {
    RunSummaryBody {
        layers: rng.below(100) as usize,
        total_cycles: rng.next() >> 12,
        compute_cycles: rng.next() >> 12,
        stall_cycles: rng.next() >> 12,
        macs: rng.next() >> 12,
        utilization: quantized(rng, 10_000, 4),
        energy_mj: quantized(rng, 1 << 30, 6),
        noc_words: rng.next() >> 12,
    }
}

fn arb_response(rng: &mut SplitMix64) -> SimResponse {
    match rng.below(8) {
        0 => SimResponse::Run(RunBody {
            summary: arb_summary(rng),
            reports: arb_reports(rng),
        }),
        6 => SimResponse::Llm(LlmBody {
            workload: arb_string(rng),
            phase: "decode".into(),
            context: rng.below(1 << 20),
            params: rng.next() >> 12,
            kv_cache_bytes: rng.next() >> 12,
            summary: arb_summary(rng),
            reports: arb_reports(rng),
        }),
        7 => SimResponse::Trace(TraceBody {
            enabled: rng.chance(2),
            events: rng.next() >> 12,
            trace: arb_string(rng),
        }),
        1 => SimResponse::Sweep(SweepBody {
            grid_points: rng.below(1000) as usize,
            runs: rng.below(1000) as usize,
            pareto_frontier: (0..rng.below(4)).map(|i| format!("p{i}")).collect(),
            reports: arb_reports(rng),
        }),
        2 => SimResponse::Scaleout(ScaleoutBody {
            chips: 1 + rng.below(512),
            strategy: "dp".into(),
            fabric: "mesh 2x2".into(),
            layers: rng.below(64) as usize,
            total_cycles: rng.next() >> 12,
            compute_cycles: rng.next() >> 12,
            comm_cycles: rng.next() >> 12,
            overlapped_cycles: rng.next() >> 12,
            exposed_cycles: rng.next() >> 12,
            bubble_cycles: rng.next() >> 12,
            utilization: quantized(rng, 10_000, 4),
            reports: arb_reports(rng),
        }),
        3 => SimResponse::Area(AreaBody {
            total_mm2: quantized(rng, 1 << 24, 4),
            pe_array_mm2: quantized(rng, 1 << 24, 4),
            sram_mm2: quantized(rng, 1 << 24, 4),
            noc_mm2: quantized(rng, 1 << 24, 4),
            dram_ctrl_mm2: quantized(rng, 1 << 24, 4),
            reports: arb_reports(rng),
        }),
        4 => SimResponse::Version(VersionBody {
            version: format!("scalesim {}", rng.below(100)),
            api: rng.below(10) as u32,
        }),
        _ => SimResponse::Stats(StatsBody {
            cache_hits: rng.next() >> 12,
            cache_misses: rng.next() >> 12,
            cache_plans: rng.below(10_000),
            cache_evictions: rng.next() >> 12,
            cache_resident_bytes: rng.next() >> 12,
            cache_budget_bytes: rng.next() >> 12,
            cache_hit_rate: quantized(rng, 10_000, 4),
            requests_total: rng.next() >> 12,
            completed: rng.next() >> 12,
            shed: rng.next() >> 12,
            deadline_expired: rng.next() >> 12,
            in_flight: rng.below(1000),
            latency_count: rng.next() >> 12,
            latency_p50_us: rng.next() >> 12,
            latency_p99_us: rng.next() >> 12,
            latency_max_us: rng.next() >> 12,
            sched_workers: rng.below(128),
            sched_park_wakeups: rng.next() >> 12,
            span_totals: std::array::from_fn(|_| rng.next() >> 12),
        }),
    }
}

fn arb_error(rng: &mut SplitMix64) -> SimError {
    let message = arb_string(rng);
    match rng.below(6) {
        0 => SimError::Config(message),
        1 => SimError::Topology(message),
        2 => SimError::Io(message),
        3 => SimError::Internal(message),
        4 => SimError::Busy(message),
        _ => SimError::Deadline(message),
    }
}

#[test]
fn every_response_variant_round_trips_with_random_payloads() {
    let mut rng = SplitMix64::new(0xC0DE_C004);
    for case in 0..300 {
        let id = rng.chance(2).then(|| format!("id{case}"));
        let result: Result<SimResponse, SimError> = if rng.chance(4) {
            Err(arb_error(&mut rng))
        } else {
            Ok(arb_response(&mut rng))
        };
        let line = wire::encode_response(id.as_deref(), &result);
        assert!(
            !line.contains('\n'),
            "case {case}: a response must be one line\n{line:?}"
        );
        let (decoded_id, decoded) = wire::decode_response(&line);
        assert_eq!(decoded_id, id, "case {case}\n{line}");
        match (&result, &decoded) {
            (Ok(expected), Ok(actual)) => {
                assert_eq!(actual, expected, "case {case}\n{line}")
            }
            (Err(expected), Err(actual)) => {
                assert_eq!(actual.kind(), expected.kind(), "case {case}\n{line}");
                assert_eq!(actual.message(), expected.message(), "case {case}\n{line}");
                assert_eq!(actual.exit_code(), expected.exit_code(), "case {case}");
            }
            _ => panic!("case {case}: ok/err flipped in transit\n{line}"),
        }
    }
}

#[test]
fn arbitrary_bytes_never_panic_the_decoder() {
    let mut rng = SplitMix64::new(0xC0DE_C005);
    // Raw byte soup, interpreted as (lossy) UTF-8.
    for _ in 0..1500 {
        let len = rng.below(200) as usize;
        let bytes: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
        let text = String::from_utf8_lossy(&bytes);
        let decoded = wire::decode_request_full(&text);
        // Whatever happened, it terminated and produced a typed result.
        let _ = (decoded.id, decoded.deadline_ms, decoded.request.is_ok());
        let _ = Json::parse(&text);
    }
    // Mutations of a valid request: single-byte corruption anywhere.
    let valid = wire::encode_request_with_deadline(
        Some("m"),
        Some(250),
        &SimRequest::Run(RunSpec {
            config: ConfigSource::Default,
            topology: TopologySource::inline("t", "a, 8, 8, 8,\n"),
            features: Features::default(),
        }),
    );
    for _ in 0..1500 {
        let mut bytes = valid.clone().into_bytes();
        let hits = 1 + rng.below(3);
        for _ in 0..hits {
            let at = rng.below(bytes.len() as u64) as usize;
            bytes[at] = rng.next() as u8;
        }
        let text = String::from_utf8_lossy(&bytes);
        let _ = wire::decode_request_full(&text);
    }
}

/// Every object nested anywhere in `value`, outermost first, as the
/// path of member keys / array indices leading to it.
fn object_paths(value: &Json, here: &mut Vec<String>, out: &mut Vec<Vec<String>>) {
    match value {
        Json::Obj(fields) => {
            out.push(here.clone());
            for (key, member) in fields {
                here.push(key.clone());
                object_paths(member, here, out);
                here.pop();
            }
        }
        Json::Arr(items) => {
            for (i, item) in items.iter().enumerate() {
                here.push(i.to_string());
                object_paths(item, here, out);
                here.pop();
            }
        }
        _ => {}
    }
}

fn at_path<'a>(value: &'a mut Json, path: &[String]) -> &'a mut Json {
    path.iter().fold(value, |v, step| match v {
        Json::Obj(fields) => &mut fields.iter_mut().find(|(k, _)| k == step).unwrap().1,
        Json::Arr(items) => &mut items[step.parse::<usize>().unwrap()],
        _ => unreachable!("paths only descend through containers"),
    })
}

/// A JSON value of a different type than `value`, so whatever kind the
/// member was declared as, the replacement is mistyped. (`null` is a
/// wrong type for every declared kind.)
fn wrong_type(value: &Json) -> Json {
    match value {
        Json::Null => Json::Num(1.0),
        _ => Json::Null,
    }
}

/// The silent-drop bug class: a member the body does not declare, or a
/// declared member carrying the wrong JSON type, anywhere inside a
/// valid request body, is a typed `config` error — never `Ok` (the
/// request would run on defaults), never a panic.
#[test]
fn unknown_keys_and_wrong_types_in_valid_bodies_are_config_errors() {
    let mut rng = SplitMix64::new(0xC0DE_C007);
    for case in 0..600 {
        let request = arb_request(&mut rng);
        let line = wire::encode_request(Some("m"), &request);
        let pristine = Json::parse(&line).expect("encoded requests parse");
        // Objects at depth >= 1 are the command body and what it nests
        // (depth 0 is the envelope, which has its own unknown-key rule).
        let mut paths = Vec::new();
        object_paths(&pristine, &mut Vec::new(), &mut paths);
        let bodies: Vec<&Vec<String>> = paths.iter().filter(|p| !p.is_empty()).collect();
        let target = bodies[rng.below(bodies.len() as u64) as usize];
        let mut value = pristine.clone();
        let Json::Obj(fields) = at_path(&mut value, target) else {
            unreachable!("object_paths yields objects")
        };
        let what = if fields.is_empty() || rng.chance(2) {
            let at = rng.below(fields.len() as u64 + 1) as usize;
            fields.insert(
                at,
                (format!("zz_{}", rng.below(100)), arb_json(&mut rng, 1)),
            );
            "unknown key"
        } else {
            let at = rng.below(fields.len() as u64) as usize;
            fields[at].1 = wrong_type(&fields[at].1);
            "wrong type"
        };
        let text = value.to_string();
        let decoded = wire::decode_request_full(&text);
        assert_eq!(decoded.id.as_deref(), Some("m"), "case {case}: id survives");
        match decoded.request {
            Err(e) => assert_eq!(e.kind(), "config", "case {case} ({what}): {e}\n{text}"),
            Ok(r) => panic!("case {case}: {what} was silently accepted as {r:?}\n{text}"),
        }
    }
}

/// The client half is lenient where the server half is strict:
/// response fields are additive within an API version, so a body with
/// members this build does not know decodes to the same value — while a
/// declared member of the wrong type is still a typed `config` error.
#[test]
fn responses_tolerate_unknown_keys_but_not_wrong_types() {
    let mut rng = SplitMix64::new(0xC0DE_C008);
    for case in 0..400 {
        let response = arb_response(&mut rng);
        let line = wire::encode_response(None, &Ok(response.clone()));
        let pristine = Json::parse(&line).expect("encoded responses parse");
        let mut paths = Vec::new();
        object_paths(&pristine, &mut Vec::new(), &mut paths);
        // Depth >= 2: inside the body keyed under "ok".
        let bodies: Vec<&Vec<String>> = paths.iter().filter(|p| p.len() >= 2).collect();
        let target = bodies[rng.below(bodies.len() as u64) as usize];

        let mut grown = pristine.clone();
        let Json::Obj(fields) = at_path(&mut grown, target) else {
            unreachable!("object_paths yields objects")
        };
        let at = rng.below(fields.len() as u64 + 1) as usize;
        fields.insert(at, ("zz_future".to_string(), arb_json(&mut rng, 1)));
        let (_, decoded) = wire::decode_response(&grown.to_string());
        assert_eq!(decoded.unwrap(), response, "case {case}: {grown}");

        let mut retyped = pristine.clone();
        let Json::Obj(fields) = at_path(&mut retyped, target) else {
            unreachable!("object_paths yields objects")
        };
        if fields.is_empty() {
            continue;
        }
        let at = rng.below(fields.len() as u64) as usize;
        fields[at].1 = wrong_type(&fields[at].1);
        let (_, decoded) = wire::decode_response(&retyped.to_string());
        match decoded {
            Err(e) => assert_eq!(e.kind(), "config", "case {case}: {e}\n{retyped}"),
            Ok(r) => panic!("case {case}: a mistyped member decoded as {r:?}\n{retyped}"),
        }
    }
}

#[test]
fn nesting_depth_stays_capped_for_any_bracket_soup() {
    let mut rng = SplitMix64::new(0xC0DE_C006);
    for _ in 0..50 {
        let depth = 129 + rng.below(4000) as usize;
        let open = if rng.chance(2) { "[" } else { "{\"k\":" };
        let soup: String = open.repeat(depth);
        let err = Json::parse(&soup).expect_err("over-deep input must error");
        assert!(err.contains("nested"), "depth error names the cap: {err}");
        // Through the wire decoder it is a typed config error, not a
        // stack overflow.
        let decoded = wire::decode_request_full(&soup);
        assert_eq!(decoded.request.unwrap_err().kind(), "config");
    }
}
