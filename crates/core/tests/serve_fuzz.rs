//! Wire-framing fuzz harness for `scalesim serve --stdio`.
//!
//! Streams thousands of seeded hostile lines — byte soup, truncated
//! and corrupted requests, wrong-shape JSON, bracket bombs, CRLF
//! endings, an oversized line, concatenated frames, bad deadlines —
//! into one serve process, interleaved with valid requests, and holds
//! the protocol contract: **exactly one response line per non-blank
//! request line, then a clean EOF exit**. No panic, no hang (a
//! watchdog kills the process if it wedges), no short output.
//!
//! The generator is deterministic (vendored SplitMix64), so a failure
//! reproduces from the seed in the panic message.

use std::io::{Read, Write};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const SEED: u64 = 0xF422_FA11;

struct SplitMix64(u64);

impl SplitMix64 {
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
}

/// One fuzz line (no terminator) plus whether the server owes a
/// response for it (blank lines are skipped by the protocol).
struct FuzzLine {
    bytes: Vec<u8>,
    expects_response: bool,
    crlf: bool,
}

fn line(bytes: impl Into<Vec<u8>>, expects_response: bool) -> FuzzLine {
    FuzzLine {
        bytes: bytes.into(),
        expects_response,
        crlf: false,
    }
}

fn valid_run_line(id: u64) -> String {
    format!(
        "{{\"api\": 1, \"id\": \"run-{id}\", \"run\": {{\"topology\": \
         {{\"name\": \"t\", \"inline\": \"a, 8, 8, 8,\\n\"}}}}}}"
    )
}

fn gen_line(rng: &mut SplitMix64, i: usize) -> FuzzLine {
    match rng.below(12) {
        // Raw byte soup (newline-free so framing stays per-line; \r is
        // excluded too to keep response accounting exact).
        0 => {
            let len = 1 + rng.below(120) as usize;
            let bytes: Vec<u8> = (0..len)
                .map(|_| loop {
                    let b = rng.next() as u8;
                    if b != b'\n' && b != b'\r' {
                        break b;
                    }
                })
                .collect();
            // Whitespace-only soup would be skipped as a blank line.
            let blank = std::str::from_utf8(&bytes)
                .map(|s| s.trim().is_empty())
                .unwrap_or(false);
            line(bytes, !blank)
        }
        // Truncated valid request.
        1 => {
            let full = valid_run_line(i as u64);
            let cut = 1 + rng.below(full.len() as u64 - 1) as usize;
            line(full.as_bytes()[..cut].to_vec(), true)
        }
        // Single/multi-byte corruption of a valid request.
        2 => {
            let mut bytes = valid_run_line(i as u64).into_bytes();
            for _ in 0..=rng.below(3) {
                let at = rng.below(bytes.len() as u64) as usize;
                let b = loop {
                    let b = rng.next() as u8;
                    if b != b'\n' && b != b'\r' {
                        break b;
                    }
                };
                bytes[at] = b;
            }
            line(bytes, true)
        }
        // Wrong-shape but valid JSON.
        3 => {
            let shapes: [&[u8]; 6] = [
                b"[1, 2, 3]",
                b"42",
                b"\"just a string\"",
                b"{\"api\": 99, \"version\": {}}",
                b"{\"run\": \"not an object\"}",
                b"{\"api\": 1, \"frobnicate\": {}}",
            ];
            line(shapes[rng.below(6) as usize].to_vec(), true)
        }
        // Bracket bombs (deep nesting must be a typed error).
        4 => {
            let depth = 130 + rng.below(2000) as usize;
            let open = if rng.below(2) == 0 { "[" } else { "{\"k\":" };
            line(open.repeat(depth).into_bytes(), true)
        }
        // Bad deadline field values.
        5 => {
            let bads = ["-5", "1.5", "\"soon\"", "null", "true", "1e300"];
            line(
                format!(
                    "{{\"api\": 1, \"id\": \"d{i}\", \"deadline_ms\": {}, \"version\": {{}}}}",
                    bads[rng.below(6) as usize]
                )
                .into_bytes(),
                true,
            )
        }
        // Expired deadline on a real request: typed deadline error.
        6 => line(
            format!(
                "{{\"api\": 1, \"id\": \"late{i}\", \"deadline_ms\": 0, \"run\": \
                 {{\"topology\": {{\"inline\": \"a, 8, 8, 8,\\n\"}}}}}}"
            )
            .into_bytes(),
            true,
        ),
        // Two frames concatenated on one line: trailing-characters
        // parse error, exactly one response.
        7 => line(
            format!(
                "{} {}",
                valid_run_line(i as u64),
                "{\"api\": 1, \"version\": {}}"
            )
            .into_bytes(),
            true,
        ),
        // Blank-ish lines: skipped, no response owed.
        8 => {
            let blanks: [&[u8]; 4] = [b"", b"   ", b"\t\t", b" \t "];
            line(blanks[rng.below(4) as usize].to_vec(), false)
        }
        // CRLF termination on a valid request.
        9 => {
            let mut l = line(
                format!("{{\"api\": 1, \"id\": \"crlf{i}\", \"stats\": {{}}}}").into_bytes(),
                true,
            );
            l.crlf = true;
            l
        }
        // Valid cheap requests keep the session demonstrably healthy.
        10 => line(b"{\"api\": 1, \"version\": {}}".to_vec(), true),
        _ => {
            if rng.below(50) == 0 {
                // Occasionally a real simulation request.
                line(valid_run_line(i as u64).into_bytes(), true)
            } else {
                line(
                    format!("{{\"api\": 1, \"id\": \"s{i}\", \"stats\": {{}}}}").into_bytes(),
                    true,
                )
            }
        }
    }
}

#[test]
fn ten_thousand_hostile_lines_one_response_each_then_clean_exit() {
    const LINES: usize = 10_000;
    let mut rng = SplitMix64(SEED);
    let mut lines: Vec<FuzzLine> = (0..LINES).map(|i| gen_line(&mut rng, i)).collect();
    // One oversized line (> MAX_REQUEST_BYTES) somewhere in the middle:
    // drained in O(1) memory, answered with a typed config error.
    let oversized = vec![b'{'; scalesim::MAX_REQUEST_BYTES + 1];
    lines.insert(LINES / 2, line(oversized, true));
    let expected: usize = lines.iter().filter(|l| l.expects_response).count();

    let mut child = Command::new(env!("CARGO_BIN_EXE_scalesim"))
        .args(["serve", "--stdio"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn scalesim serve");

    // Watchdog: a wedged server fails the test instead of hanging CI.
    let done = Arc::new(AtomicBool::new(false));
    let pid = child.id();
    let watchdog = {
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            for _ in 0..240 {
                std::thread::sleep(std::time::Duration::from_secs(1));
                if done.load(Ordering::Relaxed) {
                    return;
                }
            }
            // Timed out: kill the serve process so the reader unblocks.
            let _ = Command::new("kill").arg(pid.to_string()).status();
        })
    };

    // Feed stdin from its own thread while the main thread drains
    // stdout — without concurrent reads a full pipe would deadlock.
    let mut stdin = child.stdin.take().expect("stdin piped");
    let writer = std::thread::spawn(move || {
        for l in &lines {
            stdin.write_all(&l.bytes).unwrap();
            stdin
                .write_all(if l.crlf { b"\r\n" } else { b"\n" })
                .unwrap();
        }
        drop(stdin); // EOF ends the session.
    });

    let mut stdout = String::new();
    child
        .stdout
        .take()
        .expect("stdout piped")
        .read_to_string(&mut stdout)
        .unwrap();
    writer.join().unwrap();
    let status = child.wait().unwrap();
    done.store(true, Ordering::Relaxed);
    watchdog.join().unwrap();

    assert!(
        status.success(),
        "serve must survive the fuzz tape and exit 0 on EOF (seed {SEED:#x}), got {status:?}"
    );
    let responses: Vec<&str> = stdout.lines().collect();
    assert_eq!(
        responses.len(),
        expected,
        "exactly one response per non-blank line (seed {SEED:#x})"
    );
    // Every response is a decodable frame: either a body or a typed
    // error with a known kind.
    for (n, response) in responses.iter().enumerate() {
        let (_, result) = scalesim::api::wire::decode_response(response);
        if let Err(e) = result {
            assert!(
                ["config", "topology", "io", "internal", "busy", "deadline"].contains(&e.kind()),
                "response {n} has unknown kind {:?} (seed {SEED:#x})",
                e.kind()
            );
            assert_ne!(
                e.kind(),
                "internal",
                "response {n}: an internal error means a caught panic — \
                 a bug even when survived (seed {SEED:#x}): {e}"
            );
        }
    }
}
