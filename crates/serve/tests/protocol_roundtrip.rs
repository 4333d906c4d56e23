//! Wire-protocol property tests: every encodable frame decodes back to
//! itself, and every malformed frame is rejected with a typed error —
//! truncation at *any* byte, a flipped byte anywhere, oversized length
//! prefixes, wrong version bytes, trailing garbage. One fixed value of
//! every frame kind is pinned as a hex body.

use proptest::prelude::*;
use proptest::test_runner::TestRunner;
use revet_core::{PassOptions, ProgramId};
use revet_serve::protocol::{
    decode_request, decode_response, encode_request, encode_response, read_frame, write_frame,
    CloseReply, ErrorCode, ErrorFrame, ExecuteReply, ExecuteRequest, FrameError, InstanceOutcome,
    MetricsInfo, OpenStreamRequest, PollReply, Request, Response, StatusInfo, WireDiagnostic,
    WireError, WireReport, WireTok, MAX_FRAME_BYTES, WIRE_VERSION,
};

// ---------------------------------------------------------------------------
// Strategies (manual composites over the stand-in's primitives)

fn gen_options(r: &mut TestRunner) -> PassOptions {
    let flag = |r: &mut TestRunner| (0u8..2).generate(r) == 1;
    PassOptions {
        if_to_select: flag(r),
        fuse_allocators: flag(r),
        hoist_allocators: flag(r),
        bufferize_replicate: flag(r),
        pack_subwords: flag(r),
        eliminate_hierarchy: flag(r),
        opt_level: (0u8..3).generate(r),
        dram_bytes: (64usize..(1 << 24)).generate(r),
    }
}

fn gen_status(r: &mut TestRunner) -> StatusInfo {
    StatusInfo {
        programs_cached: any::<u64>().generate(r),
        cache_capacity: any::<u64>().generate(r),
        cache_hits: any::<u64>().generate(r),
        cache_misses: any::<u64>().generate(r),
        cache_evictions: any::<u64>().generate(r),
        queued_jobs: any::<u64>().generate(r),
        inflight_jobs: any::<u64>().generate(r),
        executed_instances: any::<u64>().generate(r),
        failed_instances: any::<u64>().generate(r),
        open_sessions: any::<u64>().generate(r),
        evicted_sessions: any::<u64>().generate(r),
        session_resident_bytes: any::<u64>().generate(r),
        draining: (0u8..2).generate(r) == 1,
    }
}

fn gen_report(r: &mut TestRunner) -> WireReport {
    WireReport {
        rounds: any::<u64>().generate(r),
        productive_steps: any::<u64>().generate(r),
        steps: any::<u64>().generate(r),
        peak_ready: any::<u64>().generate(r),
    }
}

fn gen_toks(r: &mut TestRunner) -> Vec<WireTok> {
    (0..(0usize..6).generate(r))
        .map(|_| {
            if (0u8..2).generate(r) == 0 {
                WireTok::Data(prop::collection::vec(any::<u32>(), 0..4).generate(r))
            } else {
                WireTok::Barrier((1u8..=15).generate(r))
            }
        })
        .collect()
}

fn gen_id(r: &mut TestRunner) -> ProgramId {
    let mut bytes = [0u8; 16];
    for b in &mut bytes {
        *b = (0u8..=255).generate(r);
    }
    ProgramId(bytes)
}

fn gen_blob(r: &mut TestRunner, max: usize) -> Vec<u8> {
    prop::collection::vec(0u8..=255, 0..max).generate(r)
}

fn gen_string(r: &mut TestRunner, max: usize) -> String {
    // Printable ASCII keeps this a valid utf-8 wire string.
    prop::collection::vec(0x20u8..0x7F, 0..max)
        .generate(r)
        .into_iter()
        .map(char::from)
        .collect()
}

/// Full-domain random requests.
struct ArbRequest;

impl Strategy for ArbRequest {
    type Value = Request;
    fn generate(&self, r: &mut TestRunner) -> Request {
        match (0u8..9).generate(r) {
            0 => Request::Compile {
                source: gen_string(r, 200),
                options: gen_options(r),
            },
            1 => Request::Execute(ExecuteRequest {
                program_id: gen_id(r),
                argsets: prop::collection::vec(
                    prop::collection::vec(any::<u32>(), 0..5).boxed(),
                    0..6,
                )
                .generate(r),
                dram_inits: (0..(0usize..4).generate(r))
                    .map(|_| ((0u64..1 << 32).generate(r), gen_blob(r, 64)))
                    .collect(),
                window: ((0u64..1 << 32).generate(r), (0u64..1 << 20).generate(r)),
            }),
            2 => Request::Status,
            3 => Request::Metrics,
            4 => Request::OpenStream(OpenStreamRequest {
                program_id: gen_id(r),
                dram_inits: (0..(0usize..4).generate(r))
                    .map(|_| ((0u64..1 << 32).generate(r), gen_blob(r, 64)))
                    .collect(),
                window: ((0u64..1 << 32).generate(r), (0u64..1 << 20).generate(r)),
            }),
            5 => Request::Feed {
                session: any::<u64>().generate(r),
                argsets: prop::collection::vec(
                    prop::collection::vec(any::<u32>(), 0..5).boxed(),
                    0..6,
                )
                .generate(r),
            },
            6 => Request::Poll {
                session: any::<u64>().generate(r),
            },
            7 => Request::CloseStream {
                session: any::<u64>().generate(r),
            },
            _ => Request::Shutdown,
        }
    }
}

/// Full-domain random responses.
struct ArbResponse;

impl Strategy for ArbResponse {
    type Value = Response;
    fn generate(&self, r: &mut TestRunner) -> Response {
        match (0u8..10).generate(r) {
            0 => Response::Compiled {
                program_id: gen_id(r),
                cached: (0u8..2).generate(r) == 1,
                compile_micros: any::<u64>().generate(r),
            },
            1 => Response::Executed(ExecuteReply {
                merged: gen_report(r),
                instances: (0..(0usize..5).generate(r))
                    .map(|_| {
                        if (0u8..2).generate(r) == 0 {
                            InstanceOutcome::Ok {
                                wall_micros: any::<u64>().generate(r),
                                dram: gen_blob(r, 128),
                            }
                        } else {
                            InstanceOutcome::Err {
                                message: gen_string(r, 80),
                            }
                        }
                    })
                    .collect(),
            }),
            2 => Response::Status(gen_status(r)),
            3 => Response::Metrics(MetricsInfo {
                counters: (0..(0usize..6).generate(r))
                    .map(|_| (gen_string(r, 24), any::<u64>().generate(r)))
                    .collect(),
                status: gen_status(r),
            }),
            4 => Response::StreamOpened {
                session: any::<u64>().generate(r),
            },
            5 => Response::Fed {
                accepted: any::<u64>().generate(r),
            },
            6 => Response::Polled(PollReply {
                tokens: gen_toks(r),
                finished: (0u8..2).generate(r) == 1,
                resident_bytes: any::<u64>().generate(r),
            }),
            7 => Response::StreamClosed(CloseReply {
                merged: gen_report(r),
                tokens: gen_toks(r),
                dram: gen_blob(r, 128),
            }),
            8 => Response::Error(
                ErrorFrame::new(
                    match (0u8..10).generate(r) {
                        0 => ErrorCode::Malformed,
                        1 => ErrorCode::UnsupportedVersion,
                        2 => ErrorCode::FrameTooLarge,
                        3 => ErrorCode::CompileFailed,
                        4 => ErrorCode::UnknownProgram,
                        5 => ErrorCode::Busy,
                        6 => ErrorCode::BadRequest,
                        7 => ErrorCode::UnknownSession,
                        8 => ErrorCode::SessionExpired,
                        _ => ErrorCode::ShuttingDown,
                    },
                    gen_string(r, 80),
                )
                .with_details(
                    (0..(0usize..4).generate(r))
                        .map(|_| WireDiagnostic {
                            code: gen_string(r, 8),
                            severity: (0u8..3).generate(r),
                            line: any::<u32>().generate(r),
                            col: any::<u32>().generate(r),
                            message: gen_string(r, 60),
                        })
                        .collect(),
                ),
            ),
            _ => Response::ShutdownAck,
        }
    }
}

// ---------------------------------------------------------------------------
// Round-trip properties

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn request_encode_decode_round_trips(req in ArbRequest) {
        let body = encode_request(&req);
        prop_assert_eq!(decode_request(&body).unwrap(), req);
    }

    #[test]
    fn response_encode_decode_round_trips(resp in ArbResponse) {
        let body = encode_response(&resp);
        prop_assert_eq!(decode_response(&body).unwrap(), resp);
    }

    #[test]
    fn any_truncation_of_a_request_is_rejected(req in ArbRequest) {
        let body = encode_request(&req);
        for cut in 0..body.len() {
            let res = decode_request(&body[..cut]);
            prop_assert!(
                res.is_err(),
                "decoding the first {} of {} bytes should fail, got {:?}",
                cut, body.len(), res
            );
        }
    }

    #[test]
    fn any_truncation_of_a_response_is_rejected(resp in ArbResponse) {
        let body = encode_response(&resp);
        for cut in 0..body.len() {
            let res = decode_response(&body[..cut]);
            prop_assert!(
                res.is_err(),
                "decoding the first {} of {} bytes should fail, got {:?}",
                cut, body.len(), res
            );
        }
    }

    /// Corruption, in both directions: one flipped byte anywhere in a frame
    /// either still decodes or fails with a typed `WireError` (returning at
    /// all is the no-panic half). A value that does decode re-encodes to
    /// exactly the frame's length, so no corrupt count made the decoder
    /// build more than the frame holds.
    #[test]
    fn a_flipped_byte_decodes_or_is_rejected_typed(
        req in ArbRequest,
        resp in ArbResponse,
        mask in 1u8..=255,
    ) {
        let mut body = encode_request(&req);
        for at in 0..body.len() {
            body[at] ^= mask;
            let res: Result<Request, WireError> = decode_request(&body);
            if let Ok(got) = res {
                prop_assert_eq!(encode_request(&got).len(), body.len(), "byte {}", at);
            }
            body[at] ^= mask;
        }
        let mut body = encode_response(&resp);
        for at in 0..body.len() {
            body[at] ^= mask;
            let res: Result<Response, WireError> = decode_response(&body);
            if let Ok(got) = res {
                prop_assert_eq!(encode_response(&got).len(), body.len(), "byte {}", at);
            }
            body[at] ^= mask;
        }
    }

    #[test]
    fn trailing_garbage_is_rejected(req in ArbRequest, extra in 1usize..5) {
        let mut body = encode_request(&req);
        body.extend(std::iter::repeat_n(0xAAu8, extra));
        prop_assert_eq!(decode_request(&body), Err(WireError::TrailingBytes(extra)));
    }

    #[test]
    fn frame_io_round_trips(req in ArbRequest) {
        let body = encode_request(&req);
        let mut wire = Vec::new();
        write_frame(&mut wire, &body).unwrap();
        let mut cursor = std::io::Cursor::new(&wire);
        prop_assert_eq!(read_frame(&mut cursor).unwrap(), body);
        // Cutting the stream anywhere mid-frame is an io error, never a
        // bogus successful frame.
        for cut in 0..wire.len() {
            let mut cursor = std::io::Cursor::new(&wire[..cut]);
            prop_assert!(matches!(
                read_frame(&mut cursor),
                Err(FrameError::Io(_)) | Err(FrameError::TooShort(_))
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// Fixed rejection cases

#[test]
fn oversized_length_prefix_is_rejected_before_allocation() {
    for len in [MAX_FRAME_BYTES + 1, u32::MAX] {
        let mut wire = len.to_le_bytes().to_vec();
        wire.extend_from_slice(&[0u8; 16]);
        match read_frame(&mut std::io::Cursor::new(wire)) {
            Err(FrameError::TooLarge(got)) => assert_eq!(got, len),
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }
}

#[test]
fn undersized_length_prefix_is_rejected() {
    for len in [0u32, 1] {
        let wire = len.to_le_bytes().to_vec();
        match read_frame(&mut std::io::Cursor::new(wire)) {
            Err(FrameError::TooShort(got)) => assert_eq!(got, len),
            other => panic!("expected TooShort, got {other:?}"),
        }
    }
}

#[test]
fn wrong_version_byte_is_rejected_with_the_version() {
    let mut body = encode_request(&Request::Status);
    for bad in [0u8, WIRE_VERSION + 1, 0xFF] {
        body[0] = bad;
        assert_eq!(
            decode_request(&body),
            Err(WireError::UnsupportedVersion(bad))
        );
        assert_eq!(
            decode_response(&body),
            Err(WireError::UnsupportedVersion(bad))
        );
    }
}

#[test]
fn unknown_kind_bytes_are_rejected() {
    let body = vec![WIRE_VERSION, 0x60];
    assert_eq!(decode_request(&body), Err(WireError::UnknownKind(0x60)));
    assert_eq!(decode_response(&body), Err(WireError::UnknownKind(0x60)));
}

#[test]
fn dram_bytes_past_the_32_bit_address_space_is_rejected() {
    let compile = |dram_bytes| Request::Compile {
        source: String::new(),
        options: PassOptions {
            dram_bytes,
            ..PassOptions::none()
        },
    };
    let whole = compile(1 << 32);
    assert_eq!(decode_request(&encode_request(&whole)), Ok(whole));
    for over in [(1 << 32) + 1, 1 << 33, usize::MAX] {
        assert_eq!(
            decode_request(&encode_request(&compile(over))),
            Err(WireError::BadField("dram bytes")),
            "{over}"
        );
    }
}

#[test]
fn oversized_body_refused_at_write_time() {
    let body = vec![0u8; MAX_FRAME_BYTES as usize + 1];
    let mut wire = Vec::new();
    assert!(write_frame(&mut wire, &body).is_err());
    assert!(wire.is_empty(), "nothing may reach the stream");
}

// ---------------------------------------------------------------------------
// Golden wire vectors

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
        .collect()
}

const GOLDEN_STATUS: StatusInfo = StatusInfo {
    programs_cached: 1,
    cache_capacity: 2,
    cache_hits: 3,
    cache_misses: 4,
    cache_evictions: 5,
    queued_jobs: 6,
    inflight_jobs: 7,
    executed_instances: 8,
    failed_instances: 9,
    open_sessions: 10,
    evicted_sessions: 11,
    session_resident_bytes: 12,
    draining: true,
};

const GOLDEN_REPORT: WireReport = WireReport {
    rounds: 1,
    productive_steps: 2,
    steps: 3,
    peak_ready: 4,
};

fn golden_requests() -> Vec<(Request, &'static str)> {
    vec![
        (
            Request::Compile {
                source: "void main() {}".into(),
                options: PassOptions {
                    if_to_select: true,
                    fuse_allocators: false,
                    hoist_allocators: true,
                    bufferize_replicate: false,
                    pack_subwords: false,
                    eliminate_hierarchy: true,
                    opt_level: 1,
                    dram_bytes: 4096,
                },
            },
            "06010e000000766f6964206d61696e2829207b7d25010010000000000000",
        ),
        (
            Request::Compile {
                source: String::new(),
                options: PassOptions::none(),
            },
            "06010000000000000000100000000000",
        ),
        (
            Request::Execute(ExecuteRequest {
                program_id: ProgramId(*b"0123456789abcdef"),
                argsets: vec![vec![1, 2], vec![], vec![0xDEAD_BEEF]],
                dram_inits: vec![(16, vec![0xAA, 0xBB, 0xCC]), (1 << 33, vec![])],
                window: (128, 24),
            }),
            "060230313233343536373839616263646566030000000200000001000000020000000000000001000000efbeadde02000000100000000000000003000000aabbcc00000000020000000000000080000000000000001800000000000000",
        ),
        (Request::Status, "0603"),
        (Request::Shutdown, "0604"),
        (Request::Metrics, "0605"),
        (
            Request::OpenStream(OpenStreamRequest {
                program_id: ProgramId([9; 16]),
                dram_inits: vec![(8, vec![0xAB])],
                window: (0, 64),
            }),
            "06060909090909090909090909090909090901000000080000000000000001000000ab00000000000000004000000000000000",
        ),
        (
            Request::Feed {
                session: 3,
                argsets: vec![vec![4, 5], vec![6]],
            },
            "06070300000000000000020000000200000004000000050000000100000006000000",
        ),
        (Request::Poll { session: 0x0102 }, "06080201000000000000"),
        (Request::CloseStream { session: u64::MAX }, "0609ffffffffffffffff"),
    ]
}

fn golden_responses() -> Vec<(Response, &'static str)> {
    let mut vectors = vec![
        (
            Response::Compiled {
                program_id: ProgramId([3; 16]),
                cached: true,
                compile_micros: 1234,
            },
            "06810303030303030303030303030303030301d204000000000000",
        ),
        (
            Response::Executed(ExecuteReply {
                merged: GOLDEN_REPORT,
                instances: vec![
                    InstanceOutcome::Ok {
                        wall_micros: 55,
                        dram: vec![9, 8, 7],
                    },
                    InstanceOutcome::Err {
                        message: "deadlock".into(),
                    },
                ],
            }),
            "0682010000000000000002000000000000000300000000000000040000000000000002000000003700000000000000030000000908070108000000646561646c6f636b",
        ),
        (Response::Status(GOLDEN_STATUS), "06830100000000000000020000000000000003000000000000000400000000000000050000000000000006000000000000000700000000000000080000000000000009000000000000000a000000000000000b000000000000000c0000000000000001"),
        (
            Response::Metrics(MetricsInfo {
                counters: vec![("exec.dispatches".into(), 12345), ("x".into(), 0)],
                status: GOLDEN_STATUS,
            }),
            "0685020000000f000000657865632e646973706174636865733930000000000000010000007800000000000000000100000000000000020000000000000003000000000000000400000000000000050000000000000006000000000000000700000000000000080000000000000009000000000000000a000000000000000b000000000000000c0000000000000001",
        ),
        (Response::ShutdownAck, "0684"),
        (Response::StreamOpened { session: 17 }, "06861100000000000000"),
        (Response::Fed { accepted: 2 }, "06870200000000000000"),
        (
            Response::Polled(PollReply {
                tokens: vec![
                    WireTok::Data(vec![1, 2, 3]),
                    WireTok::Barrier(1),
                    WireTok::Data(vec![]),
                    WireTok::Barrier(15),
                ],
                finished: true,
                resident_bytes: 4096,
            }),
            "068804000000000300000001000000020000000300000001010000000000010f010010000000000000",
        ),
        (
            Response::StreamClosed(CloseReply {
                merged: GOLDEN_REPORT,
                tokens: vec![WireTok::Barrier(2), WireTok::Data(vec![7])],
                dram: vec![0, 1, 2, 3],
            }),
            "068901000000000000000200000000000000030000000000000004000000000000000200000001020001000000070000000400000000010203",
        ),
        (
            Response::Error(
                ErrorFrame::new(ErrorCode::CompileFailed, "rendered").with_details(vec![
                    WireDiagnostic {
                        code: "E0103".into(),
                        severity: WireDiagnostic::SEVERITY_ERROR,
                        line: 2,
                        col: 11,
                        message: "expected expression".into(),
                    },
                    WireDiagnostic {
                        code: "E0301".into(),
                        severity: WireDiagnostic::SEVERITY_NOTE,
                        line: 0,
                        col: 0,
                        message: String::new(),
                    },
                ]),
            ),
            "06ff04000800000072656e64657265640200000005000000453031303300020000000b0000001300000065787065637465642065787072657373696f6e05000000453033303102000000000000000000000000",
        ),
    ];
    // Every error code, as the bare frame a transport-level refusal sends.
    vectors.extend(
        [
            (ErrorCode::Malformed, "06ff0100020000006e6f00000000"),
            (
                ErrorCode::UnsupportedVersion,
                "06ff0200020000006e6f00000000",
            ),
            (ErrorCode::FrameTooLarge, "06ff0300020000006e6f00000000"),
            (ErrorCode::CompileFailed, "06ff0400020000006e6f00000000"),
            (ErrorCode::UnknownProgram, "06ff0500020000006e6f00000000"),
            (ErrorCode::Busy, "06ff0600020000006e6f00000000"),
            (ErrorCode::BadRequest, "06ff0700020000006e6f00000000"),
            (ErrorCode::ShuttingDown, "06ff0800020000006e6f00000000"),
            (ErrorCode::UnknownSession, "06ff0900020000006e6f00000000"),
            (ErrorCode::SessionExpired, "06ff0a00020000006e6f00000000"),
        ]
        .map(|(code, body)| (Response::Error(ErrorFrame::new(code, "no")), body)),
    );
    vectors
}

/// One fixed value of every frame kind and every error code, pinned byte
/// for byte: a codec change that moves a byte of wire v6 fails here.
#[test]
fn golden_wire_vectors_are_byte_stable() {
    assert_eq!(WIRE_VERSION, 6);
    for (req, golden) in golden_requests() {
        assert_eq!(hex(&encode_request(&req)), golden, "{req:?}");
        assert_eq!(decode_request(&unhex(golden)).unwrap(), req);
    }
    for (resp, golden) in golden_responses() {
        assert_eq!(hex(&encode_response(&resp)), golden, "{resp:?}");
        assert_eq!(decode_response(&unhex(golden)).unwrap(), resp);
    }
}
