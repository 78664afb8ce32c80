//! The event model: one linear scan of a trace's records into the typed
//! lookup tables the critical-path extractor and the stall table read.
//! This is the only place trace records become time intervals.
//!
//! Everything is keyed the way the flight recorder already keys it —
//! visit index, object tag, connection (pipe) index — and every time is
//! an integer microsecond, so downstream arithmetic is exact. Ordering
//! is deterministic throughout: objects live in `BTreeMap`s and every
//! interval list preserves the stream's own order.

use spdyier_trace::{TraceEvent, TraceRecord};
use std::collections::BTreeMap;

/// Object tags at or above this value are control traffic (the §5.7
/// beacon sentinel is `u64::MAX`; its HTTP framing masks to
/// `u32::MAX`), never page objects.
const CONTROL_TAG_FLOOR: u64 = u32::MAX as u64;

/// One page visit's `[start, start + plt]` window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VisitWindow {
    /// Visit index in the schedule.
    pub visit: usize,
    /// Site index the visit loaded.
    pub site: usize,
    /// Whether the visit reached onload before its deadline.
    pub completed: bool,
    /// Window start, µs (the `VisitStart` instant).
    pub start_us: u64,
    /// Window end, µs (`start + plt_us` from the `VisitEnd` record).
    pub end_us: u64,
    /// Whether a `VisitEnd` record closed the window (an unclosed window
    /// keeps `end_us == start_us`).
    pub ended: bool,
}

/// Boundary instants of one object fetch inside a visit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ObjectInstants {
    /// First `ObjectRequested` instant, µs.
    pub requested_us: Option<u64>,
    /// First `ObjectFirstByte` instant, µs.
    pub first_byte_us: Option<u64>,
    /// First `ObjectComplete` instant, µs.
    pub complete_us: Option<u64>,
}

/// The connection an object's request was written to, learned from the
/// `HttpRequestSent` / `SpdyStreamOpen` record inside the visit window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConnBinding {
    /// Connection (pipe) index.
    pub conn: usize,
    /// SPDY stream id, when the binding came from a stream open.
    pub stream: Option<u32>,
}

/// A half-open time interval `[a, b)` in µs, tagged with the connection
/// it belongs to (`None` for connection-agnostic intervals).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Interval start, µs.
    pub a: u64,
    /// Interval end, µs.
    pub b: u64,
    /// Owning connection, when the source event names one.
    pub conn: Option<usize>,
}

impl Interval {
    fn new(a: u64, b: u64, conn: Option<usize>) -> Option<Interval> {
        (a < b).then_some(Interval { a, b, conn })
    }
}

/// Every table the critical-path extractor needs, built in one pass.
#[derive(Debug, Clone, Default)]
pub struct EventModel {
    /// Visit windows, in stream order.
    pub windows: Vec<VisitWindow>,
    /// Per-visit object boundary instants.
    pub objects: BTreeMap<usize, BTreeMap<u32, ObjectInstants>>,
    /// Per-(visit, object) connection bindings (first one wins).
    pub bindings: BTreeMap<(usize, u32), ConnBinding>,
    /// TCP RTO silences `[silent_since, fire)`.
    pub rto: Vec<Interval>,
    /// RRC promotion waits `[start, done)`.
    pub promotions: Vec<Interval>,
    /// Link serialization shares `[deliver - ser, deliver)`.
    pub serialization: Vec<Interval>,
    /// Queueing + propagation shares `[sent, deliver - ser)`.
    pub queueing: Vec<Interval>,
    /// Origin think intervals `[dispatch, reply)`.
    pub think: Vec<Interval>,
    /// Connection setup `[opened, ssl ready)` per connection.
    pub setup: Vec<Interval>,
}

impl EventModel {
    /// Build the model from a record stream (one linear scan).
    pub fn from_records(records: &[TraceRecord]) -> EventModel {
        let mut m = EventModel::default();
        // The visit whose window is currently open, for binding the
        // visit-less HttpRequestSent / SpdyStreamOpen records.
        let mut open_visit: Option<usize> = None;
        // Connections opened but not yet SSL-ready: conn -> open instant.
        let mut pending_setup: BTreeMap<usize, u64> = BTreeMap::new();
        for rec in records {
            let t = rec.t.as_micros();
            match &rec.event {
                TraceEvent::VisitStart { visit, site } => {
                    open_visit = Some(*visit);
                    m.windows.push(VisitWindow {
                        visit: *visit,
                        site: *site,
                        completed: false,
                        start_us: t,
                        end_us: t,
                        ended: false,
                    });
                }
                TraceEvent::VisitEnd {
                    visit,
                    completed,
                    plt_us,
                } => {
                    if open_visit == Some(*visit) {
                        open_visit = None;
                    }
                    if let Some(w) = m.windows.iter_mut().rev().find(|w| w.visit == *visit) {
                        w.completed = *completed;
                        w.end_us = w.start_us + plt_us;
                        w.ended = true;
                    }
                }
                TraceEvent::ObjectRequested { visit, object } => {
                    let o = m
                        .objects
                        .entry(*visit)
                        .or_default()
                        .entry(*object)
                        .or_default();
                    o.requested_us.get_or_insert(t);
                }
                TraceEvent::ObjectFirstByte { visit, object } => {
                    let o = m
                        .objects
                        .entry(*visit)
                        .or_default()
                        .entry(*object)
                        .or_default();
                    o.first_byte_us.get_or_insert(t);
                }
                TraceEvent::ObjectComplete { visit, object } => {
                    let o = m
                        .objects
                        .entry(*visit)
                        .or_default()
                        .entry(*object)
                        .or_default();
                    o.complete_us.get_or_insert(t);
                }
                TraceEvent::HttpRequestSent { conn, tag, .. } => {
                    if let Some(visit) = open_visit {
                        if *tag < CONTROL_TAG_FLOOR {
                            m.bindings
                                .entry((visit, *tag as u32))
                                .or_insert(ConnBinding {
                                    conn: *conn,
                                    stream: None,
                                });
                        }
                    }
                }
                TraceEvent::SpdyStreamOpen {
                    conn, stream, tag, ..
                } => {
                    if let Some(visit) = open_visit {
                        if *tag < CONTROL_TAG_FLOOR {
                            m.bindings
                                .entry((visit, *tag as u32))
                                .or_insert(ConnBinding {
                                    conn: *conn,
                                    stream: Some(*stream),
                                });
                        }
                    }
                }
                TraceEvent::ConnOpened { conn, .. } => {
                    pending_setup.insert(*conn, t);
                }
                TraceEvent::SslReady { conn } => {
                    if let Some(opened) = pending_setup.remove(conn) {
                        m.setup.extend(Interval::new(opened, t, Some(*conn)));
                    }
                }
                TraceEvent::TcpRto {
                    conn, silent_since, ..
                } => {
                    m.rto
                        .extend(Interval::new(silent_since.as_micros(), t, Some(*conn)));
                }
                TraceEvent::RrcPromotion { start, done, .. } => {
                    m.promotions
                        .extend(Interval::new(start.as_micros(), done.as_micros(), None));
                }
                TraceEvent::SegmentSent {
                    conn,
                    deliver,
                    ser_us,
                    ..
                } => {
                    let deliver = deliver.as_micros();
                    let ser_start = deliver.saturating_sub(*ser_us);
                    m.serialization
                        .extend(Interval::new(ser_start, deliver, Some(*conn)));
                    m.queueing.extend(Interval::new(t, ser_start, Some(*conn)));
                }
                TraceEvent::OriginThink { until, .. } => {
                    m.think.extend(Interval::new(t, until.as_micros(), None));
                }
                _ => {}
            }
        }
        m
    }

    /// The connection binding for one object of one visit.
    pub fn binding(&self, visit: usize, object: u32) -> Option<ConnBinding> {
        self.bindings.get(&(visit, object)).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spdyier_sim::SimTime;
    use spdyier_trace::{TraceLevel, Tracer};

    fn log(events: Vec<(u64, TraceEvent)>) -> Vec<TraceRecord> {
        let mut tr = Tracer::for_level(TraceLevel::Full);
        for (at, ev) in events {
            tr.emit(SimTime::from_micros(at), ev);
        }
        tr.finish().events
    }

    #[test]
    fn windows_objects_and_bindings_are_extracted() {
        let records = log(vec![
            (0, TraceEvent::VisitStart { visit: 0, site: 9 }),
            (
                10,
                TraceEvent::ObjectRequested {
                    visit: 0,
                    object: 0,
                },
            ),
            (
                12,
                TraceEvent::HttpRequestSent {
                    conn: 3,
                    gen: 1,
                    tag: 0,
                },
            ),
            (
                80,
                TraceEvent::ObjectFirstByte {
                    visit: 0,
                    object: 0,
                },
            ),
            (
                100,
                TraceEvent::ObjectComplete {
                    visit: 0,
                    object: 0,
                },
            ),
            (
                200,
                TraceEvent::VisitEnd {
                    visit: 0,
                    completed: true,
                    plt_us: 200,
                },
            ),
            // Beacon traffic between visits must not bind.
            (
                250,
                TraceEvent::HttpRequestSent {
                    conn: 4,
                    gen: 1,
                    tag: u64::MAX,
                },
            ),
        ]);
        let m = EventModel::from_records(&records);
        assert_eq!(m.windows.len(), 1);
        assert_eq!(m.windows[0].end_us, 200);
        assert!(m.windows[0].completed);
        let o = m.objects[&0][&0];
        assert_eq!(o.requested_us, Some(10));
        assert_eq!(o.first_byte_us, Some(80));
        assert_eq!(o.complete_us, Some(100));
        assert_eq!(m.binding(0, 0).unwrap().conn, 3);
        assert_eq!(m.bindings.len(), 1, "beacon tag must not bind");
    }

    #[test]
    fn transport_intervals_keep_their_connections() {
        let records = log(vec![
            (
                5,
                TraceEvent::ConnOpened {
                    conn: 2,
                    over_access: true,
                    label: "dev[2]".into(),
                },
            ),
            (55, TraceEvent::SslReady { conn: 2 }),
            (
                100,
                TraceEvent::TcpRto {
                    conn: 2,
                    b_side: false,
                    silent_since: SimTime::from_micros(40),
                },
            ),
            (
                120,
                TraceEvent::SegmentSent {
                    conn: 2,
                    down: true,
                    bytes: 1400,
                    deliver: SimTime::from_micros(200),
                    ser_us: 30,
                    retransmit: false,
                },
            ),
        ]);
        let m = EventModel::from_records(&records);
        assert_eq!(
            m.setup,
            vec![Interval {
                a: 5,
                b: 55,
                conn: Some(2)
            }]
        );
        assert_eq!(
            m.rto,
            vec![Interval {
                a: 40,
                b: 100,
                conn: Some(2)
            }]
        );
        assert_eq!(
            m.serialization,
            vec![Interval {
                a: 170,
                b: 200,
                conn: Some(2)
            }]
        );
        assert_eq!(
            m.queueing,
            vec![Interval {
                a: 120,
                b: 170,
                conn: Some(2)
            }]
        );
    }
}
