//! Golden wire bytes for SPDY header compression.
//!
//! 250 requests and their 250 replies (500 SYN_STREAM/SYN_REPLY header
//! blocks) pass through one client/server session pair. The requests are
//! shaped like the testbed's SPDY requests: `:method`/`:host`/`:path`/`:scheme`
//! plus the browser's per-host headers, over the Table 1 domain layout
//! (`siteN.example`, `cdnK.siteN.example`, `thirdpartyK-sN.example`).
//! Every emitted frame is hashed, and the digest and both compression
//! counters are pinned: any change to the compressor's output, however
//! small, moves simulated transfer times and every downstream golden.

use spdyier_spdy::{Role, SpdyConfig, SpdyEvent, SpdySession};
use std::fmt::Write;

/// Table 1 mean domain counts, rounded, for sites 1..=20.
const DOMAINS: [usize; 20] = [
    38, 36, 16, 28, 3, 9, 52, 13, 26, 15, 22, 9, 21, 18, 85, 27, 8, 5, 32, 4,
];

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The browser's per-host request headers (user agent, accept lists and
/// a host-derived session cookie), as the testbed's browser sends them.
fn browser_headers(host: &str) -> Vec<(String, String)> {
    let h = host
        .as_bytes()
        .iter()
        .fold(0u64, |a, &b| a.wrapping_mul(131).wrapping_add(b as u64));
    let mut cookie = String::from("sid=");
    for i in 0..10u64 {
        let _ = write!(
            cookie,
            "{:016x}",
            h.wrapping_add(i.wrapping_mul(0x9E3779B97F4A7C15))
        );
    }
    vec![
        (
            "user-agent".to_string(),
            "Mozilla/5.0 (Windows NT 6.1) AppleWebKit/537.11 (KHTML, like Gecko) Chrome/23.0.1271.97 Safari/537.11".to_string(),
        ),
        (
            "accept".to_string(),
            "text/html,application/xhtml+xml,application/xml;q=0.9,*/*;q=0.8".to_string(),
        ),
        ("accept-encoding".to_string(), "gzip,deflate,sdch".to_string()),
        ("accept-language".to_string(), "en-US,en;q=0.8".to_string()),
        ("cookie".to_string(), cookie),
    ]
}

/// Host and path of request `i`: visits walk the 20 sites in turn, each
/// fetching from its primary host, CDN shards and third parties.
fn request_target(i: u64) -> (String, String, u8) {
    let site = (i / 12) % 20 + 1;
    let k = (i.wrapping_mul(0x9E37_79B9) >> 7) as usize % DOMAINS[site as usize - 1];
    let host = match k % 3 {
        0 if k == 0 => format!("site{site}.example"),
        0 | 1 => format!("cdn{k}.site{site}.example"),
        _ => format!("thirdparty{k}-s{site}.example"),
    };
    let (ext, priority) = match i % 7 {
        0 => ("html", 0),
        1 | 2 => ("js", 1),
        3 => ("css", 1),
        4 | 5 => ("png", 3),
        _ => ("bin", 4),
    };
    (host, format!("/o{i}.{ext}"), priority)
}

#[test]
fn header_block_wire_bytes_are_pinned() {
    let mut client = SpdySession::new(Role::Client, SpdyConfig::default());
    let mut server = SpdySession::new(Role::Server, SpdyConfig::default());
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut frames = 0u32;
    for i in 0..250u64 {
        let (host, path, priority) = request_target(i);
        let mut headers = vec![
            (":method".to_string(), "GET".to_string()),
            (":host".to_string(), host.clone()),
            (":path".to_string(), path),
            (":scheme".to_string(), "https".to_string()),
        ];
        headers.extend(browser_headers(&host));
        let sid = client.open_stream(headers, priority, true);
        let mut opened = Vec::new();
        while let Some(wire) = client.poll_wire() {
            digest = fnv1a(digest, &wire.to_vec());
            frames += 1;
            for ev in server.on_bytes(wire).expect("server decodes") {
                if let SpdyEvent::StreamOpened { stream_id, .. } = ev {
                    opened.push(stream_id);
                }
            }
        }
        assert_eq!(opened, [sid]);
        let status = ["200", "200", "200", "304", "404"][(i % 5) as usize];
        server.reply(
            sid,
            vec![
                (":status".to_string(), status.to_string()),
                (":version".to_string(), "HTTP/1.1".to_string()),
            ],
            true,
        );
        let mut replied = false;
        while let Some(wire) = server.poll_wire() {
            digest = fnv1a(digest, &wire.to_vec());
            frames += 1;
            for ev in client.on_bytes(wire).expect("client decodes") {
                replied |= matches!(ev, SpdyEvent::Reply { stream_id, .. } if stream_id == sid);
            }
        }
        assert!(replied, "request {i} got its reply");
    }
    assert_eq!(frames, 500);
    assert_eq!(client.compression_counters(), (136753, 36829));
    assert_eq!(server.compression_counters(), (11500, 1030));
    assert_eq!(digest, 0xef7a_1a92_63a9_6c0c, "{digest:#018x}");
}
