//! Byte pins of the wire encoding: one line per [`SimRequest`] and
//! [`SimResponse`] variant, captured from the hand-written codec the
//! field declarations replaced. `codec_props` pins round-trips; these
//! pin the bytes themselves — key order, elided defaults (`config`,
//! `features`, `shards: 1`, `format: auto`) and fixed float precision
//! (`utilization` `.4`, `energy_mj` `.6`).

use scalesim_api::{
    wire, AreaBody, AreaSpec, ConfigSource, Features, LlmBody, LlmRequest, Report, RunBody,
    RunSpec, RunSummaryBody, ScaleoutBody, ScaleoutRequest, SimError, SimRequest, SimResponse,
    StatsBody, SweepBody, SweepRequest, TopologyFormat, TopologySource, TraceBody, VersionBody,
};

fn all_features() -> Features {
    Features {
        dram: true,
        energy: true,
        layout: true,
        cores: Some("2x2".into()),
    }
}

#[test]
fn request_lines_are_pinned_per_variant() {
    let gemm = TopologySource::inline("t", "a, 8, 8, 8,\n").with_format(TopologyFormat::Gemm);
    let cases: Vec<(SimRequest, &str)> = vec![
        // Every default elided: no config, no features, format auto.
        (
            SimRequest::Run(RunSpec {
                config: ConfigSource::Default,
                topology: TopologySource::from_path("topologies/resnet18.csv"),
                features: Features::default(),
            }),
            r#"{"api":1,"id":"p","run":{"topology":{"path":"topologies/resnet18.csv"}}}"#,
        ),
        (
            SimRequest::Run(RunSpec {
                config: ConfigSource::Inline("ArrayHeight : 8\n".into()),
                topology: gemm.clone(),
                features: all_features(),
            }),
            r#"{"api":1,"id":"p","run":{"config":{"inline":"ArrayHeight : 8\n"},"topology":{"name":"t","inline":"a, 8, 8, 8,\n","format":"gemm"},"features":{"dram":true,"energy":true,"layout":true,"cores":"2x2"}}}"#,
        ),
        // shards: 1, base_config and an empty topology list are elided.
        (
            SimRequest::Sweep(SweepRequest {
                spec: ConfigSource::Path("configs/example_sweep.toml".into()),
                base_config: ConfigSource::Default,
                topologies: Vec::new(),
                shards: 1,
            }),
            r#"{"api":1,"id":"p","sweep":{"spec":{"path":"configs/example_sweep.toml"}}}"#,
        ),
        (
            SimRequest::Sweep(SweepRequest {
                spec: ConfigSource::Inline("array = 8x8\n".into()),
                base_config: ConfigSource::Path("configs/google.cfg".into()),
                topologies: vec![
                    gemm.clone(),
                    TopologySource::from_workload("resnet18").with_format(TopologyFormat::Conv),
                ],
                shards: 3,
            }),
            r#"{"api":1,"id":"p","sweep":{"spec":{"inline":"array = 8x8\n"},"base_config":{"path":"configs/google.cfg"},"topologies":[{"name":"t","inline":"a, 8, 8, 8,\n","format":"gemm"},{"workload":"resnet18","format":"conv"}],"shards":3}}"#,
        ),
        (
            SimRequest::Scaleout(ScaleoutRequest::for_topology(
                TopologySource::from_workload("resnet18"),
            )),
            r#"{"api":1,"id":"p","scaleout":{"topology":{"workload":"resnet18"}}}"#,
        ),
        (
            SimRequest::Scaleout(ScaleoutRequest {
                config: ConfigSource::Path("configs/example_scaleout.cfg".into()),
                topology: gemm.clone(),
                features: Features {
                    energy: true,
                    ..Features::default()
                },
                chips: Some(64),
                fabric: Some("mesh".into()),
                link_gbps: Some(37.5),
                link_latency: Some(250),
                strategy: Some("tensor".into()),
                microbatches: Some(8),
            }),
            r#"{"api":1,"id":"p","scaleout":{"config":{"path":"configs/example_scaleout.cfg"},"topology":{"name":"t","inline":"a, 8, 8, 8,\n","format":"gemm"},"features":{"energy":true},"chips":64,"fabric":"mesh","link_gbps":37.5,"link_latency":250,"strategy":"tensor","microbatches":8}}"#,
        ),
        (
            SimRequest::Llm(LlmRequest::for_workload("llama-7b")),
            r#"{"api":1,"id":"p","llm":{"workload":"llama-7b"}}"#,
        ),
        (
            SimRequest::Llm(LlmRequest {
                config: ConfigSource::Inline("[llm]\nPreset : llama-7b\n".into()),
                workload: Some("mixtral-8x7b".into()),
                phase: Some("decode".into()),
                seq: Some(1024),
                batch: Some(4),
                context: Some(2048),
                features: Features {
                    dram: true,
                    ..Features::default()
                },
            }),
            r#"{"api":1,"id":"p","llm":{"config":{"inline":"[llm]\nPreset : llama-7b\n"},"workload":"mixtral-8x7b","phase":"decode","seq":1024,"batch":4,"context":2048,"features":{"dram":true}}}"#,
        ),
        (
            SimRequest::AreaReport(AreaSpec::default()),
            r#"{"api":1,"id":"p","area":{}}"#,
        ),
        (
            SimRequest::AreaReport(AreaSpec {
                config: ConfigSource::Path("configs/eyeriss.cfg".into()),
                features: Features {
                    layout: true,
                    ..Features::default()
                },
            }),
            r#"{"api":1,"id":"p","area":{"config":{"path":"configs/eyeriss.cfg"},"features":{"layout":true}}}"#,
        ),
        (SimRequest::Version, r#"{"api":1,"id":"p","version":{}}"#),
        (SimRequest::Stats, r#"{"api":1,"id":"p","stats":{}}"#),
        (SimRequest::Trace, r#"{"api":1,"id":"p","trace":{}}"#),
    ];
    for (request, pinned) in cases {
        assert_eq!(wire::encode_request(Some("p"), &request), pinned);
        // The pinned bytes are also what the decoder accepts.
        assert_eq!(wire::decode_request(pinned).1.unwrap(), request);
    }
    // The envelope: no id, and a deadline between id and command.
    assert_eq!(
        wire::encode_request(None, &SimRequest::Version),
        r#"{"api":1,"version":{}}"#
    );
    assert_eq!(
        wire::encode_request_with_deadline(Some("d"), Some(250), &SimRequest::Stats),
        r#"{"api":1,"id":"d","deadline_ms":250,"stats":{}}"#
    );
}

fn summary() -> RunSummaryBody {
    RunSummaryBody {
        layers: 3,
        total_cycles: 123_456_789_012,
        compute_cycles: 120_000,
        stall_cycles: 3456,
        macs: 1_000_000,
        utilization: 0.640_649,
        energy_mj: 0.013_541_9,
        noc_words: 7,
    }
}

fn reports() -> Vec<Report> {
    vec![
        Report {
            name: "COMPUTE_REPORT.csv".into(),
            content: "LayerName, X\n\"l0\",\t1\r\n".into(),
        },
        Report {
            name: "BANDWIDTH_REPORT.csv".into(),
            content: String::new(),
        },
    ]
}

#[test]
fn response_lines_are_pinned_per_variant() {
    let cases: Vec<(SimResponse, &str)> = vec![
        (
            SimResponse::Run(RunBody {
                summary: summary(),
                reports: reports(),
            }),
            r#"{"api":1,"id":"p","ok":{"run":{"summary":{"layers":3,"total_cycles":123456789012,"compute_cycles":120000,"stall_cycles":3456,"macs":1000000,"utilization":0.6406,"energy_mj":0.013542,"noc_words":7},"reports":[{"name":"COMPUTE_REPORT.csv","content":"LayerName, X\n\"l0\",\t1\r\n"},{"name":"BANDWIDTH_REPORT.csv","content":""}]}}}"#,
        ),
        (
            SimResponse::Sweep(SweepBody {
                grid_points: 4,
                runs: 8,
                pareto_frontier: vec!["8x8-bw4".into(), "16x16-\"bw10\"".into()],
                reports: Vec::new(),
            }),
            r#"{"api":1,"id":"p","ok":{"sweep":{"grid_points":4,"runs":8,"pareto_frontier":["8x8-bw4","16x16-\"bw10\""],"reports":[]}}}"#,
        ),
        (
            SimResponse::Scaleout(ScaleoutBody {
                chips: 8,
                strategy: "dp".into(),
                fabric: "ring x8 (100 GB/s, 500 cyc/hop)".into(),
                layers: 21,
                total_cycles: 1_234_567,
                compute_cycles: 1_000_000,
                comm_cycles: 400_000,
                overlapped_cycles: 165_433,
                exposed_cycles: 234_567,
                bubble_cycles: 0,
                utilization: 0.732_15,
                reports: reports(),
            }),
            r#"{"api":1,"id":"p","ok":{"scaleout":{"summary":{"chips":8,"strategy":"dp","fabric":"ring x8 (100 GB/s, 500 cyc/hop)","layers":21,"total_cycles":1234567,"compute_cycles":1000000,"comm_cycles":400000,"overlapped_cycles":165433,"exposed_cycles":234567,"bubble_cycles":0,"utilization":0.7321},"reports":[{"name":"COMPUTE_REPORT.csv","content":"LayerName, X\n\"l0\",\t1\r\n"},{"name":"BANDWIDTH_REPORT.csv","content":""}]}}}"#,
        ),
        (
            SimResponse::Llm(LlmBody {
                workload: "llama-7b".into(),
                phase: "decode".into(),
                context: 2048,
                params: 6_738_149_376,
                kv_cache_bytes: 1_073_741_824,
                summary: summary(),
                reports: Vec::new(),
            }),
            r#"{"api":1,"id":"p","ok":{"llm":{"workload":"llama-7b","phase":"decode","context":2048,"params":6738149376,"kv_cache_bytes":1073741824,"summary":{"layers":3,"total_cycles":123456789012,"compute_cycles":120000,"stall_cycles":3456,"macs":1000000,"utilization":0.6406,"energy_mj":0.013542,"noc_words":7},"reports":[]}}}"#,
        ),
        (
            SimResponse::Area(AreaBody {
                total_mm2: 12.345_649,
                pe_array_mm2: 4.5,
                sram_mm2: 6.0,
                noc_mm2: 1.0,
                dram_ctrl_mm2: 0.845_6,
                reports: Vec::new(),
            }),
            r#"{"api":1,"id":"p","ok":{"area":{"total_mm2":12.3456,"pe_array_mm2":4.5000,"sram_mm2":6.0000,"noc_mm2":1.0000,"dram_ctrl_mm2":0.8456,"reports":[]}}}"#,
        ),
        (
            SimResponse::Version(VersionBody {
                version: "scalesim 0.3.0 (git abc)".into(),
                api: 1,
            }),
            r#"{"api":1,"id":"p","ok":{"version":{"version":"scalesim 0.3.0 (git abc)","api":1}}}"#,
        ),
        (
            SimResponse::Stats(StatsBody {
                cache_hits: 10,
                cache_misses: 4,
                cache_plans: 5,
                cache_evictions: 1,
                cache_resident_bytes: 123_456,
                cache_budget_bytes: 1 << 20,
                cache_hit_rate: 0.714_28,
                requests_total: 20,
                completed: 17,
                shed: 2,
                deadline_expired: 3,
                in_flight: 6,
                latency_count: 18,
                latency_p50_us: 1024,
                latency_p99_us: 16384,
                latency_max_us: 15000,
                sched_workers: 8,
                sched_steals: 42,
                sched_spawns: 19,
                sched_park_wakeups: 131,
                span_totals: [11, 12, 13, 14, 15, 16, 17],
            }),
            r#"{"api":1,"id":"p","ok":{"stats":{"cache":{"hits":10,"misses":4,"plans":5,"evictions":1,"resident_bytes":123456,"budget_bytes":1048576,"hit_rate":0.7143},"serve":{"requests_total":20,"completed":17,"shed":2,"deadline_expired":3,"in_flight":6},"latency_us":{"count":18,"p50":1024,"p99":16384,"max":15000},"sched":{"workers":8,"steals":42,"spawns":19,"park_wakeups":131},"spans":{"sched":11,"pipeline":12,"cache":13,"dram":14,"collective":15,"serve":16,"sweep":17}}}}"#,
        ),
        (
            SimResponse::Trace(TraceBody {
                enabled: true,
                events: 12,
                trace: "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}".into(),
            }),
            r#"{"api":1,"id":"p","ok":{"trace":{"enabled":true,"events":12,"trace":"{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}"}}}"#,
        ),
    ];
    for (response, pinned) in cases {
        assert_eq!(wire::encode_response(Some("p"), &Ok(response)), pinned);
        assert!(wire::decode_response(pinned).1.is_ok(), "{pinned}");
    }
    assert_eq!(
        wire::encode_response(None, &Err(SimError::Busy("queue \"full\"".into()))),
        r#"{"api":1,"error":{"kind":"busy","exit_code":75,"message":"queue \"full\""}}"#
    );
}
