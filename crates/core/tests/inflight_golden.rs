//! Golden pins for the Fig. 10 series: total proxy→device bytes in
//! flight, sampled on change after every servicing pass.
//!
//! The driver keeps the total as a running sum that servicing and pipe
//! harvest maintain; debug builds cross-check it against a scan of every
//! live access pipe at each sample. Release builds compile that check
//! out, so these pins are the only guard on the optimised path: the point
//! count and an FNV-1a digest of every `(time, value)` sample must not
//! move.

use spdyier_core::{
    run_experiment, run_experiment_traced, ExperimentConfig, ProtocolMode, RunResult, TraceLevel,
};
use spdyier_sim::{SimDuration, SimTime};
use spdyier_trace::TraceEvent;
use std::collections::HashSet;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// `(point count, digest)` of a run's in-flight series. Each sample
/// hashes its time in microseconds and its value's bit pattern.
fn inflight_pin(result: &RunResult) -> (usize, u64) {
    let mut digest = 0xcbf2_9ce4_8422_2325;
    for (t, v) in result.inflight_bytes.iter() {
        digest = fnv1a(digest, &t.as_micros().to_le_bytes());
        digest = fnv1a(digest, &v.to_bits().to_le_bytes());
    }
    (result.inflight_bytes.len(), digest)
}

#[test]
fn http_3g_table1_series_is_pinned() {
    let result = run_experiment(ExperimentConfig::paper_3g(ProtocolMode::Http, 1));
    assert_eq!(inflight_pin(&result), (21_617, 0x3a73_f4ca_4416_7fa2));
}

#[test]
fn spdy_3g_table1_series_is_pinned() {
    let result = run_experiment(ExperimentConfig::paper_3g(ProtocolMode::spdy(), 1));
    assert_eq!(inflight_pin(&result), (11_595, 0xe1ef_94ad_decd_0cd9));
}

/// A short idle-close timeout retires access pipes throughout the run,
/// so the running total must give back each closed pipe's bytes.
#[test]
fn series_with_mid_run_closes_is_pinned() {
    let mut cfg =
        ExperimentConfig::paper_3g(ProtocolMode::Http, 1).with_trace_level(TraceLevel::Lifecycle);
    cfg.http_idle_close = Some(SimDuration::from_secs(2));
    let (result, log) = run_experiment_traced(cfg);

    let end = log.events.last().map_or(SimTime::ZERO, |r| r.t);
    let mut access = HashSet::new();
    let mut closed_mid_run = 0;
    for record in &log.events {
        match &record.event {
            TraceEvent::ConnOpened {
                conn,
                over_access: true,
                ..
            } => {
                access.insert(*conn);
            }
            TraceEvent::ConnClosed { conn } if record.t < end && access.contains(conn) => {
                closed_mid_run += 1;
            }
            _ => {}
        }
    }
    assert!(
        closed_mid_run >= 10,
        "only {closed_mid_run} access pipes closed before the run ended"
    );
    assert_eq!(inflight_pin(&result), (21_686, 0xf4a3_73ad_4440_e74a));
}
