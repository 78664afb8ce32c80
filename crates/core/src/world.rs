//! The simulated world: clock, event queue, RNG hierarchy, the access and
//! wired network paths, and the TCP pipe plumbing every higher layer rides
//! on.
//!
//! A [`World`] knows nothing about protocols or pages. It owns the
//! [`Pipe`]s (sans-IO TCP pairs), moves staged application bytes into
//! send buffers, drains segments onto the links, schedules delivery and
//! timer events, and harvests per-connection metrics. What a pipe is *for*
//! is recorded in its [`PipeRole`], which the session layer defines and
//! interprets.

use crate::config::{AccessPath, ExperimentConfig};
use crate::results::RunResult;
use crate::session::PipeRole;
use spdyier_bytes::Payload;
use spdyier_http::{HttpClientConn, HttpServerConn, Request};
use spdyier_net::{presets as net_presets, Direction, DuplexPath, LinkVerdict};
use spdyier_proxy::FetchId;
use spdyier_sim::{DetRng, EventId, EventQueue, SimTime};
use spdyier_tcp::{Segment, TcpConfig, TcpConnection, TcpMetricsCache};
use spdyier_trace::{TraceEvent, TraceLevel, Tracer};
use std::collections::VecDeque;

/// Origin pipes per domain before fetches queue on the least-loaded one.
const MAX_ORIGIN_PIPES_PER_DOMAIN: usize = 6;

/// A discrete event in the run.
#[derive(Debug)]
pub(crate) enum Event {
    /// A segment arrives at one end of a pipe.
    Deliver {
        /// Pipe index.
        pipe: usize,
        /// Deliver to the b side (else the a side).
        to_b: bool,
        /// The segment.
        seg: Segment,
    },
    /// A TCP timer fires on one side of a pipe.
    Timer {
        /// Pipe index.
        pipe: usize,
        /// The b side's timer (else the a side's).
        b_side: bool,
    },
    /// The browser's parse/execute timer fires.
    BrowserTimer,
    /// A scheduled page visit starts.
    Visit(usize),
    /// A visit hits its abandon deadline.
    VisitDeadline {
        /// Visit index.
        visit: usize,
        /// Generation the deadline was armed for (stale ones are ignored).
        generation: u64,
    },
    /// An origin server's response becomes ready.
    OriginReply {
        /// The proxy↔origin pipe.
        pipe: usize,
        /// Encoded response bytes.
        bytes: Payload,
    },
    /// A SPDY session's SSL setup completes.
    SslReady {
        /// The device↔proxy pipe.
        pipe: usize,
    },
    /// The Fig. 14 keepalive ping fires.
    PingTick,
    /// The next inter-visit beacon fires.
    Beacon,
    /// The periodic idle-connection sweep fires.
    IdleSweep,
    /// The run's horizon is reached.
    EndRun,
}

/// One sans-IO TCP pair and its staging queues.
pub(crate) struct Pipe {
    /// Client-side connection (device for access pipes; proxy for origin
    /// pipes).
    pub a: TcpConnection,
    /// Server-side connection (proxy for access pipes; origin for origin
    /// pipes).
    pub b: TcpConnection,
    /// True: device↔proxy over the access path; false: proxy↔origin over
    /// the wired path.
    pub over_access: bool,
    /// What the pipe is used for (protocol attachment).
    pub role: PipeRole,
    /// Scheduled a-side TCP timer, if armed.
    pub a_timer: Option<EventId>,
    /// Scheduled b-side TCP timer, if armed.
    pub b_timer: Option<EventId>,
    /// Staged application bytes awaiting TCP send-buffer space, a side.
    pub out_a: VecDeque<Payload>,
    /// Staged application bytes awaiting TCP send-buffer space, b side.
    pub out_b: VecDeque<Payload>,
    /// When the pipe was opened.
    pub opened: SimTime,
    /// Report label (`"http-3"`, `"spdy-0"`, `"origin-cdn.example"`).
    pub label: String,
    /// Both sides fully closed and metrics harvested.
    pub closed: bool,
    /// Last instant a segment left or arrived on this pipe (the start of
    /// the silence an RTO stall is attributed to).
    pub last_activity: SimTime,
    /// Last `(cwnd, ssthresh, inflight)` sample emitted to the flight
    /// recorder (so `TcpCwnd` events fire only on change).
    pub last_cwnd_sample: Option<(u64, u64, u64)>,
    /// The b side's bytes in flight as last folded into
    /// [`World::inflight`] (access pipes only; zero once harvested).
    inflight_seen: u64,
}

/// Clock, queue, RNGs, links, and pipes for one run.
pub(crate) struct World {
    /// Current simulation instant.
    pub now: SimTime,
    /// The event queue driving the run.
    pub queue: EventQueue<Event>,
    /// Network-level randomness (loss, jitter).
    pub rng_net: DetRng,
    /// Page-synthesis randomness.
    pub rng_pages: DetRng,
    /// Origin service-time randomness.
    pub rng_origin: DetRng,
    /// Device↔proxy access path (3G/LTE/WiFi).
    pub access: AccessPath,
    /// Proxy↔origin wired path.
    pub wired: DuplexPath,
    /// All pipes ever opened this run (index-stable).
    pub pipes: Vec<Pipe>,
    /// Indices of not-yet-closed pipes, ascending. Maintained by
    /// [`World::new_pipe`]/[`World::harvest_pipe`] so per-event sweeps
    /// (origin fetch routing) skip the ever-growing tail of closed pipes.
    pub live: Vec<usize>,
    /// Running total of unacknowledged proxy→device bytes across open
    /// access pipes: the sum of their [`Pipe::inflight_seen`].
    inflight: u64,
    /// Pipes with pending service work, in discovery order.
    pub dirty: VecDeque<usize>,
    /// Cross-connection ssthresh/RTT cache (§6.2.4).
    pub metrics_cache: TcpMetricsCache,
    /// The flight recorder every layer emits into.
    pub tracer: Tracer,
    /// Device↔proxy TCP configuration.
    tcp: TcpConfig,
    /// Whether to seed/harvest the metrics cache.
    cache_metrics: bool,
    /// Whether access pipes record full cwnd traces.
    record_traces: bool,
    /// Radio promotions already forwarded to the flight recorder.
    promos_emitted: usize,
}

impl World {
    /// Build the world for `cfg`: RNG hierarchy forked from the root seed,
    /// the access path with its overrides applied, and the wired path.
    pub fn new(cfg: &ExperimentConfig) -> World {
        let root = DetRng::new(cfg.seed);
        let mut access = cfg.network.build();
        if let Some(promotion) = cfg.rrc_promotion_override {
            if let Some(radio) = access.radio_mut() {
                radio.set_promotion(promotion);
            }
        }
        if let Some(loss) = cfg.access_loss {
            access.set_loss(loss);
        }
        World {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            rng_net: root.fork("net"),
            rng_pages: root.fork("pages"),
            rng_origin: root.fork("origin"),
            access,
            wired: net_presets::cloud_wired(2),
            pipes: Vec::new(),
            live: Vec::new(),
            inflight: 0,
            dirty: VecDeque::new(),
            metrics_cache: TcpMetricsCache::new(),
            tracer: Tracer::for_level(cfg.trace_level),
            tcp: cfg.tcp,
            cache_metrics: cfg.cache_metrics,
            record_traces: cfg.record_traces,
            promos_emitted: 0,
        }
    }

    fn wired_tcp_config(&self) -> TcpConfig {
        TcpConfig {
            mss: 1460,
            recv_buffer: 1024 * 1024,
            send_buffer: 256 * 1024,
            trace: false,
            ..self.tcp
        }
    }

    /// Open a new pipe and start its client-side handshake. Counts
    /// access-path pipes in `result.connections_opened`.
    pub fn new_pipe(
        &mut self,
        result: &mut RunResult,
        over_access: bool,
        role: PipeRole,
        label: String,
    ) -> usize {
        let tcp_cfg = if over_access {
            TcpConfig {
                trace: self.record_traces,
                ..self.tcp
            }
        } else {
            self.wired_tcp_config()
        };
        let mut a = TcpConnection::client(tcp_cfg);
        let mut b = TcpConnection::server(tcp_cfg);
        if self.cache_metrics {
            let (a_key, b_key) = role.cache_keys(over_access);
            if let Some(m) = self.metrics_cache.lookup(&a_key) {
                a.apply_cached_metrics(m);
            }
            if let Some(m) = self.metrics_cache.lookup(&b_key) {
                b.apply_cached_metrics(m);
            }
        }
        a.connect(self.now);
        let idx = self.pipes.len();
        if self.tracer.active(TraceLevel::Lifecycle) {
            self.tracer.emit(
                self.now,
                TraceEvent::ConnOpened {
                    conn: idx,
                    over_access,
                    label: label.clone(),
                },
            );
            self.tracer.count("conn.opened", 1);
        }
        self.pipes.push(Pipe {
            a,
            b,
            over_access,
            role,
            a_timer: None,
            b_timer: None,
            out_a: VecDeque::new(),
            out_b: VecDeque::new(),
            opened: self.now,
            label,
            closed: false,
            last_activity: self.now,
            last_cwnd_sample: None,
            inflight_seen: 0,
        });
        if over_access {
            result.connections_opened += 1;
        }
        self.live.push(idx);
        self.mark_dirty(idx);
        idx
    }

    /// Queue a pipe for servicing if it is not already queued.
    pub fn mark_dirty(&mut self, idx: usize) {
        if !self.dirty.contains(&idx) {
            self.dirty.push_back(idx);
        }
    }

    /// Detach a pipe's role for processing (leaves [`PipeRole::Detached`]).
    pub fn take_role(&mut self, idx: usize) -> PipeRole {
        std::mem::replace(&mut self.pipes[idx].role, PipeRole::Detached)
    }

    /// Reattach a pipe's role after processing.
    pub fn put_role(&mut self, idx: usize, role: PipeRole) {
        self.pipes[idx].role = role;
    }

    /// Move staged application bytes into TCP send buffers on both sides.
    /// When the b-side staging queue runs dry with buffer space left,
    /// `refill` is consulted (the SPDY proxy keeps frames unscheduled until
    /// the last moment so priority decisions stay late).
    pub fn flush_staged(
        &mut self,
        idx: usize,
        refill: &mut dyn FnMut(&PipeRole) -> Option<Payload>,
    ) {
        // a side
        loop {
            let space = self.pipes[idx].a.send_space();
            if space == 0 {
                break;
            }
            let Some(mut front) = self.pipes[idx].out_a.pop_front() else {
                break;
            };
            if front.len() <= space {
                self.pipes[idx].a.write(front);
            } else {
                let part = front.split_to(space);
                self.pipes[idx].a.write(part);
                self.pipes[idx].out_a.push_front(front);
            }
        }
        // b side
        loop {
            let space = self.pipes[idx].b.send_space();
            if space == 0 {
                break;
            }
            let Some(mut front) = self.pipes[idx].out_b.pop_front() else {
                if let Some(wire) = refill(&self.pipes[idx].role) {
                    self.pipes[idx].out_b.push_back(wire);
                    continue;
                }
                break;
            };
            if front.len() <= space {
                self.pipes[idx].b.write(front);
            } else {
                let part = front.split_to(space);
                self.pipes[idx].b.write(part);
                self.pipes[idx].out_b.push_front(front);
            }
        }
    }

    /// Drain transmittable segments from both sides onto the links,
    /// scheduling deliveries (or dropping, per link verdict).
    pub fn drain_tx(&mut self, idx: usize, result: &mut RunResult) {
        let transport = self.tracer.active(TraceLevel::Transport);
        for b_side in [false, true] {
            let idle_restarts_before = if transport {
                let conn = if b_side {
                    &self.pipes[idx].b
                } else {
                    &self.pipes[idx].a
                };
                conn.stats().idle_restarts
            } else {
                0
            };
            loop {
                let seg = {
                    let conn = if b_side {
                        &mut self.pipes[idx].b
                    } else {
                        &mut self.pipes[idx].a
                    };
                    conn.poll_transmit(self.now)
                };
                let Some(seg) = seg else { break };
                self.pipes[idx].last_activity = self.now;
                let over_access = self.pipes[idx].over_access;
                // Record retransmissions on the access path (the paper's
                // tcpdump vantage point). Pure-FIN retransmissions from
                // idle-socket teardown are tracked in per-connection stats
                // but excluded from the headline series: connection
                // teardown is not on any measured path.
                if over_access && seg.retransmit && (!seg.payload.is_empty() || seg.flags.syn) {
                    result.retransmissions.mark(self.now);
                    if transport {
                        self.tracer.emit(
                            self.now,
                            TraceEvent::TcpRetransmit {
                                conn: idx,
                                down: b_side,
                            },
                        );
                        self.tracer.count("tcp.retransmissions", 1);
                    }
                }
                let dir = match (over_access, b_side) {
                    // access: a = device (sends Up), b = proxy (sends Down)
                    (true, false) => Direction::Up,
                    (true, true) => Direction::Down,
                    // wired: a = proxy, b = origin; direction naming is
                    // arbitrary on the symmetric wired path.
                    (false, false) => Direction::Up,
                    (false, true) => Direction::Down,
                };
                let drops_before = if transport && over_access {
                    self.access.drops(dir)
                } else {
                    (0, 0)
                };
                let verdict = if over_access {
                    self.access
                        .send(dir, self.now, seg.wire_size(), &mut self.rng_net)
                } else {
                    self.wired
                        .send(dir, self.now, seg.wire_size(), &mut self.rng_net)
                };
                if transport && over_access {
                    self.tracer.count("link.access.segments", 1);
                }
                match verdict {
                    LinkVerdict::Deliver(at) => {
                        if over_access && self.tracer.active(TraceLevel::Full) {
                            let ser = self.access.serialization_time(dir, seg.wire_size());
                            self.tracer.emit(
                                self.now,
                                TraceEvent::SegmentSent {
                                    conn: idx,
                                    down: b_side,
                                    bytes: seg.wire_size(),
                                    deliver: at,
                                    ser_us: ser.as_micros(),
                                    retransmit: seg.retransmit,
                                },
                            );
                        }
                        self.queue.schedule(
                            at,
                            Event::Deliver {
                                pipe: idx,
                                to_b: !b_side,
                                seg,
                            },
                        );
                    }
                    LinkVerdict::Drop => {
                        // The packet evaporates; TCP recovery handles it.
                        if transport && over_access {
                            let after = self.access.drops(dir);
                            self.tracer.emit(
                                self.now,
                                TraceEvent::LinkDrop {
                                    conn: idx,
                                    down: b_side,
                                    queue_overflow: after.0 > drops_before.0,
                                },
                            );
                            self.tracer.count("link.access.drops", 1);
                        }
                    }
                }
            }
            if transport {
                let conn = if b_side {
                    &self.pipes[idx].b
                } else {
                    &self.pipes[idx].a
                };
                let restarts = conn.stats().idle_restarts;
                for _ in idle_restarts_before..restarts {
                    self.tracer
                        .emit(self.now, TraceEvent::TcpIdleRestart { conn: idx, b_side });
                    self.tracer.count("tcp.idle_restarts", 1);
                }
            }
        }
        if transport {
            self.sync_promotions();
        }
        if self.pipes[idx].over_access && self.tracer.active(TraceLevel::Full) {
            self.sample_cwnd(idx);
        }
    }

    /// Forward radio promotions taken since the last sync to the flight
    /// recorder (each as one `[start, done]` interval, stamped at its
    /// start).
    pub fn sync_promotions(&mut self) {
        let promotions = self.access.promotions();
        for p in promotions.iter().skip(self.promos_emitted) {
            self.tracer.emit(
                p.start,
                TraceEvent::RrcPromotion {
                    kind: format!("{:?}", p.kind),
                    start: p.start,
                    done: p.done,
                },
            );
            self.tracer.count("rrc.promotions", 1);
            self.tracer.observe(
                "rrc.promotion_us",
                p.done.saturating_since(p.start).as_micros(),
            );
        }
        self.promos_emitted = promotions.len();
    }

    /// Emit a `TcpCwnd` sample for the proxy (bulk-sender) side of an
    /// access pipe when the window tuple changed.
    fn sample_cwnd(&mut self, idx: usize) {
        let b = &self.pipes[idx].b;
        let sample = (b.cwnd(), b.ssthresh(), b.bytes_in_flight());
        if self.pipes[idx].last_cwnd_sample == Some(sample) {
            return;
        }
        self.pipes[idx].last_cwnd_sample = Some(sample);
        let (cwnd, ssthresh, inflight) = sample;
        self.tracer.emit(
            self.now,
            TraceEvent::TcpCwnd {
                conn: idx,
                cwnd,
                ssthresh: (ssthresh != u64::MAX).then_some(ssthresh),
                inflight,
            },
        );
    }

    /// Re-arm both sides' TCP timers from their current deadlines.
    pub fn resched_timers(&mut self, idx: usize) {
        for b_side in [false, true] {
            let next = if b_side {
                self.pipes[idx].b.next_timer()
            } else {
                self.pipes[idx].a.next_timer()
            };
            let slot = if b_side {
                &mut self.pipes[idx].b_timer
            } else {
                &mut self.pipes[idx].a_timer
            };
            if let Some(old) = slot.take() {
                self.queue.cancel(old);
            }
            if let Some(at) = next {
                let id = self
                    .queue
                    .schedule(at.max(self.now), Event::Timer { pipe: idx, b_side });
                *slot = Some(id);
            }
        }
    }

    /// Mark a pipe closed (and harvest it) once both sides are done.
    pub fn maybe_mark_closed(&mut self, idx: usize) {
        use spdyier_tcp::TcpState;
        let a_done = matches!(
            self.pipes[idx].a.state(),
            TcpState::Closed | TcpState::TimeWait
        );
        let b_done = matches!(
            self.pipes[idx].b.state(),
            TcpState::Closed | TcpState::TimeWait
        );
        if a_done && b_done && !self.pipes[idx].closed {
            self.harvest_pipe(idx);
        }
    }

    /// Cancel a pipe's timers and bank its TCP metrics in the cache.
    pub fn harvest_pipe(&mut self, idx: usize) {
        if self.pipes[idx].closed {
            return;
        }
        self.pipes[idx].closed = true;
        self.inflight -= std::mem::take(&mut self.pipes[idx].inflight_seen);
        // Ordered remove keeps `live` ascending so position-based scans
        // over it find the same first match as a scan over `pipes`.
        if let Ok(i) = self.live.binary_search(&idx) {
            self.live.remove(i);
        }
        self.tracer
            .emit(self.now, TraceEvent::ConnClosed { conn: idx });
        if let Some(t) = self.pipes[idx].a_timer.take() {
            self.queue.cancel(t);
        }
        if let Some(t) = self.pipes[idx].b_timer.take() {
            self.queue.cancel(t);
        }
        if self.cache_metrics {
            let over = self.pipes[idx].over_access;
            let role_keys = self.pipes[idx].role.cache_keys(over);
            if let Some(m) = self.pipes[idx].a.snapshot_metrics() {
                self.metrics_cache.store(&role_keys.0, m);
            }
            if let Some(m) = self.pipes[idx].b.snapshot_metrics() {
                self.metrics_cache.store(&role_keys.1, m);
            }
        }
    }

    /// Fold an open access pipe's current proxy→device bytes in flight
    /// into the running total.
    ///
    /// A pipe's `snd_nxt − snd_una` moves only in
    /// `TcpConnection::on_segment` and in the transmit path under
    /// `poll_transmit`. The driver calls the first only for
    /// `Event::Deliver`, which marks the pipe dirty before servicing, and
    /// the second only from [`World::drain_tx`] inside servicing. So
    /// folding every serviced pipe after [`World::maybe_mark_closed`], and
    /// giving a pipe's share back in [`World::harvest_pipe`], keeps the
    /// total exact at the end of every servicing pass.
    pub fn fold_inflight(&mut self, idx: usize) {
        let p = &mut self.pipes[idx];
        if !p.over_access || p.closed {
            return;
        }
        let now = p.b.bytes_in_flight();
        self.inflight = self.inflight - p.inflight_seen + now;
        p.inflight_seen = now;
    }

    /// Total unacknowledged proxy→device bytes across open access pipes.
    pub fn inflight_total(&self) -> u64 {
        self.inflight
    }

    /// Debug cross-check of the running in-flight total against a scan
    /// of every live access pipe.
    #[cfg(debug_assertions)]
    pub fn check_inflight(&self) {
        let scan: u64 = self
            .live
            .iter()
            .map(|&i| &self.pipes[i])
            .filter(|p| p.over_access)
            .map(|p| p.b.bytes_in_flight())
            .sum();
        assert_eq!(self.inflight, scan, "running in-flight total");
    }

    // ------------------------------------------------------------------
    // Proxy↔origin leg
    // ------------------------------------------------------------------

    /// Route an origin fetch to a pipe for its domain: an idle established
    /// pipe if one exists, a fresh pipe while under the per-domain cap,
    /// else the least-loaded existing one.
    pub fn dispatch_fetch(&mut self, result: &mut RunResult, fetch: FetchId, request: Request) {
        let domain = request.host.clone();
        let mut idle: Option<usize> = None;
        let mut count = 0usize;
        let mut least_loaded: Option<(usize, usize)> = None;
        for &i in &self.live {
            let p = &self.pipes[i];
            if let PipeRole::Origin {
                domain: d,
                current,
                pending,
                ..
            } = &p.role
            {
                if *d == domain {
                    count += 1;
                    let backlog = pending.len() + usize::from(current.is_some());
                    if backlog == 0 && idle.is_none() {
                        idle = Some(i);
                    }
                    if least_loaded.is_none_or(|(_, b)| backlog < b) {
                        least_loaded = Some((i, backlog));
                    }
                }
            }
        }
        let mut fresh_pipe = false;
        let target = if let Some(i) = idle {
            i
        } else if count < MAX_ORIGIN_PIPES_PER_DOMAIN {
            fresh_pipe = true;
            self.new_pipe(
                result,
                false,
                PipeRole::Origin {
                    domain: domain.clone(),
                    http: HttpClientConn::new(),
                    server: HttpServerConn::new(),
                    current: None,
                    pending: VecDeque::new(),
                    got_first_byte: false,
                },
                format!("origin-{domain}"),
            )
        } else {
            least_loaded
                .expect("at the cap implies at least one pipe")
                .0
        };
        if self.tracer.active(TraceLevel::Lifecycle) {
            self.tracer.emit(
                self.now,
                TraceEvent::ProxyFetchDispatch {
                    fetch: fetch.0,
                    conn: target,
                    fresh_pipe,
                    domain: domain.clone(),
                },
            );
            self.tracer.count("proxy.fetches", 1);
        }
        if let PipeRole::Origin { pending, .. } = &mut self.pipes[target].role {
            pending.push_back((fetch, request));
        }
        self.issue_next_origin_fetch(target);
        self.mark_dirty(target);
    }

    /// If the origin pipe is established and idle, issue its next pending
    /// fetch request.
    pub fn issue_next_origin_fetch(&mut self, idx: usize) {
        let established = self.pipes[idx].a.is_established();
        if !established {
            return;
        }
        let mut to_write: Option<Payload> = None;
        if let PipeRole::Origin {
            http,
            current,
            pending,
            got_first_byte,
            ..
        } = &mut self.pipes[idx].role
        {
            if current.is_none() {
                if let Some((fetch, request)) = pending.pop_front() {
                    *current = Some(fetch);
                    *got_first_byte = false;
                    to_write = Some(http.send_request(fetch.0, &request));
                }
            }
        }
        if let Some(bytes) = to_write {
            self.pipes[idx].out_a.push_back(bytes);
            self.mark_dirty(idx);
        }
    }
}
