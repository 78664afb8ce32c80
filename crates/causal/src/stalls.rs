//! The stall table: each visit's page-load time decomposed into the
//! intervals the flight recorder saw — radio promotion waits, RTO
//! silences, link queueing, serialization, and origin think time.
//!
//! It is the window-wide projection of the [`EventModel`]: per visit
//! window, the model's interval sets are clipped to
//! `[VisitStart, VisitStart + plt_us]` with no connection filter and
//! run through the same boundary `sweep` the critical-path extractor
//! uses. Every microsecond of the window lands in exactly one category
//! (overlaps resolve by a fixed priority), so the categories sum to the
//! PLT *exactly* — conservation is by construction, not by rounding luck.
//!
//! Category priority when intervals overlap (highest wins):
//! RTO stall > promotion > serialization > queueing > server think.
//! RTO silences rank first because they are the pathology the paper
//! chases (§5.5, §5.7): a spurious timeout that fires *while* the
//! radio is promoting is exactly the cross-layer interaction worth
//! surfacing, so the table must not let the promotion swallow it — the
//! promotion's remainder is still counted. A promotion stalls
//! everything behind it, so it subsumes overlapping transmissions;
//! serialization is "the link is genuinely busy with this byte", so it
//! beats the softer queueing share. Note the queueing share of a
//! segment's journey (`[sent, deliver - ser]`) includes propagation
//! delay — the recorder cannot split the two without a per-hop model,
//! and for stall hunting "waiting on the path" is the useful aggregate
//! anyway.

use crate::model::EventModel;
use crate::path::{clipped, sweep, EdgeCtx, EdgeKind, EDGE_KINDS};
use serde::Serialize;
use spdyier_sim::SimTime;

/// One visit's PLT decomposed into attributed stall categories.
///
/// Invariant: the six `*_us` fields sum to `end - start` exactly.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct StallBreakdown {
    /// Visit index in the schedule.
    pub visit: usize,
    /// Site index loaded by the visit.
    pub site: usize,
    /// Visit start (the `VisitStart` record's timestamp).
    pub start: SimTime,
    /// Visit end (`start + plt_us` from the `VisitEnd` record).
    pub end: SimTime,
    /// Time under an RRC promotion (IDLE/FACH -> DCH and similar).
    pub promotion_us: u64,
    /// Time the access link spent clocking bytes out (transmission).
    pub serialization_us: u64,
    /// Time segments waited in queues / propagated, link not promoting.
    pub queueing_us: u64,
    /// Silent time ended by a TCP retransmission timeout.
    pub rto_stall_us: u64,
    /// Time an origin server spent "thinking" before replying.
    pub server_think_us: u64,
    /// Remainder: browser parse/execute, handshakes, overlap slack.
    pub other_us: u64,
}

impl StallBreakdown {
    /// The visit's page-load time in microseconds.
    pub fn plt_us(&self) -> u64 {
        self.end.saturating_since(self.start).as_micros()
    }

    /// Sum of every attributed category (equals [`Self::plt_us`]).
    pub fn attributed_us(&self) -> u64 {
        self.promotion_us
            + self.serialization_us
            + self.queueing_us
            + self.rto_stall_us
            + self.server_think_us
            + self.other_us
    }
}

/// Decompose every visit window a `VisitEnd` closed into a
/// [`StallBreakdown`], in window order.
///
/// Needs at least `Transport`-level records for promotions and RTO
/// stalls; serialization and queueing shares additionally need the
/// `Full`-level `SegmentSent` records (they are zero otherwise).
pub fn stall_breakdowns(model: &EventModel) -> Vec<StallBreakdown> {
    // Priority p is kinds[p]; uncovered time is "other".
    let kinds = [
        EdgeKind::RtoRecovery,
        EdgeKind::Promotion,
        EdgeKind::Serialization,
        EdgeKind::Queueing,
        EdgeKind::ServerThink,
    ];
    let ctx = EdgeCtx {
        object: None,
        conn: None,
    };
    let mut ivs = Vec::new();
    let mut edges = Vec::new();
    let mut out = Vec::new();
    for w in model.windows.iter().filter(|w| w.ended) {
        let (a, b) = (w.start_us, w.end_us);
        ivs.clear();
        clipped(&mut ivs, &model.rto, a, b, None, 0);
        clipped(&mut ivs, &model.promotions, a, b, None, 1);
        clipped(&mut ivs, &model.serialization, a, b, None, 2);
        clipped(&mut ivs, &model.queueing, a, b, None, 3);
        clipped(&mut ivs, &model.think, a, b, None, 4);
        edges.clear();
        sweep(&mut edges, a, b, &ivs, &kinds, ctx, |_, _| EdgeKind::Parse);
        let mut sums = [0u64; EDGE_KINDS.len()];
        for e in &edges {
            sums[e.kind.index()] += e.duration_us();
        }
        out.push(StallBreakdown {
            visit: w.visit,
            site: w.site,
            start: SimTime::from_micros(a),
            end: SimTime::from_micros(b),
            promotion_us: sums[EdgeKind::Promotion.index()],
            serialization_us: sums[EdgeKind::Serialization.index()],
            queueing_us: sums[EdgeKind::Queueing.index()],
            rto_stall_us: sums[EdgeKind::RtoRecovery.index()],
            server_think_us: sums[EdgeKind::ServerThink.index()],
            other_us: sums[EdgeKind::Parse.index()],
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::critical_paths;
    use spdyier_trace::{TraceEvent, TraceLevel, Tracer};

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    fn stalls_of(events: Vec<(u64, TraceEvent)>) -> (EventModel, Vec<StallBreakdown>) {
        let mut tr = Tracer::for_level(TraceLevel::Full);
        for (at, ev) in events {
            tr.emit(t(at), ev);
        }
        let model = EventModel::from_records(&tr.finish().events);
        let stalls = stall_breakdowns(&model);
        (model, stalls)
    }

    #[test]
    fn categories_conserve_plt_exactly() {
        let (_, stalls) = stalls_of(vec![
            (0, TraceEvent::VisitStart { visit: 0, site: 1 }),
            (
                100,
                TraceEvent::RrcPromotion {
                    kind: "IdleToDch".into(),
                    start: t(100),
                    done: t(2_100),
                },
            ),
            // Overlaps the promotion tail: promotion wins the overlap.
            (
                2_000,
                TraceEvent::SegmentSent {
                    conn: 0,
                    down: true,
                    bytes: 1400,
                    deliver: t(2_600),
                    ser_us: 200,
                    retransmit: false,
                },
            ),
            (
                3_000,
                TraceEvent::TcpRto {
                    conn: 0,
                    b_side: true,
                    silent_since: t(2_600),
                },
            ),
            (
                3_500,
                TraceEvent::OriginThink {
                    conn: 1,
                    until: t(4_000),
                },
            ),
            (
                5_000,
                TraceEvent::VisitEnd {
                    visit: 0,
                    completed: true,
                    plt_us: 5_000,
                },
            ),
        ]);
        assert_eq!(stalls.len(), 1);
        let b = &stalls[0];
        assert_eq!(b.plt_us(), 5_000);
        assert_eq!(b.attributed_us(), b.plt_us(), "conservation is exact");
        assert_eq!(b.promotion_us, 2_000);
        // Segment journey [2000,2600]: [2000,2100] lost to promotion,
        // queueing share [2100,2400], serialization share [2400,2600].
        assert_eq!(b.queueing_us, 300);
        assert_eq!(b.serialization_us, 200);
        // RTO silence [2600,3000].
        assert_eq!(b.rto_stall_us, 400);
        assert_eq!(b.server_think_us, 500);
        assert_eq!(b.other_us, 5_000 - 2_000 - 300 - 200 - 400 - 500);
    }

    #[test]
    fn rto_silence_is_not_swallowed_by_an_overlapping_promotion() {
        let (_, stalls) = stalls_of(vec![
            (0, TraceEvent::VisitStart { visit: 0, site: 1 }),
            (
                0,
                TraceEvent::RrcPromotion {
                    kind: "IdleToDch".into(),
                    start: t(0),
                    done: t(2_000),
                },
            ),
            // Spurious RTO mid-promotion — the paper's §5.5 interaction.
            (
                1_000,
                TraceEvent::TcpRto {
                    conn: 0,
                    b_side: false,
                    silent_since: t(0),
                },
            ),
            (
                3_000,
                TraceEvent::VisitEnd {
                    visit: 0,
                    completed: true,
                    plt_us: 3_000,
                },
            ),
        ]);
        let b = &stalls[0];
        assert_eq!(b.rto_stall_us, 1_000, "the RTO silence wins the overlap");
        assert_eq!(b.promotion_us, 1_000, "the promotion keeps its remainder");
        assert_eq!(b.attributed_us(), 3_000);
    }

    #[test]
    fn intervals_clip_to_the_visit_window() {
        let (_, stalls) = stalls_of(vec![
            (
                0,
                TraceEvent::RrcPromotion {
                    kind: "IdleToDch".into(),
                    start: t(0),
                    done: t(1_500),
                },
            ),
            (1_000, TraceEvent::VisitStart { visit: 0, site: 2 }),
            (
                2_000,
                TraceEvent::VisitEnd {
                    visit: 0,
                    completed: true,
                    plt_us: 1_000,
                },
            ),
        ]);
        assert_eq!(stalls[0].promotion_us, 500, "only the in-window tail");
        assert_eq!(stalls[0].attributed_us(), 1_000);
    }

    #[test]
    fn an_unclosed_window_has_no_stall_row_but_keeps_its_path() {
        let (model, stalls) = stalls_of(vec![
            (0, TraceEvent::VisitStart { visit: 0, site: 1 }),
            (
                1_000,
                TraceEvent::VisitEnd {
                    visit: 0,
                    completed: true,
                    plt_us: 1_000,
                },
            ),
            // The run stopped before this visit's VisitEnd.
            (2_000, TraceEvent::VisitStart { visit: 1, site: 4 }),
        ]);
        assert_eq!(stalls.len(), 1);
        assert_eq!(stalls[0].visit, 0);
        let paths = critical_paths(&model);
        assert_eq!(paths.len(), 2, "the critical path keeps every window");
        assert_eq!((paths[1].visit, paths[1].plt_us()), (1, 0));
    }
}
