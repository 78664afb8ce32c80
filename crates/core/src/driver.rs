//! The testbed driver: a thin dispatcher wiring the layered harness
//! together — the [`World`](crate::world::World) (clock, event queue,
//! links, TCP pipes), the active protocol [`Side`] behind the
//! [`AppSession`] contract, the [`Visits`] lifecycle, and the origin
//! servers.
//!
//! Topology (paper Fig. 2):
//!
//! ```text
//! device (browser) ══ access path (3G/LTE/WiFi) ══ proxy ══ wired ══ origins
//! ```
//!
//! The driver owns only event dispatch and the cross-layer call order;
//! everything protocol-specific lives in [`crate::session`], everything
//! transport-specific in [`crate::world`], and everything
//! page/visit-specific in [`crate::visits`].

use crate::config::{ExperimentConfig, ProtocolMode};
use crate::results::{ConnTraceResult, RunResult};
use crate::session::{AppSession, PipeRole, SessionAction, SessionCtx, Side};
use crate::visits::Visits;
use crate::world::{Event, World};
use spdyier_bytes::Payload;
use spdyier_net::Direction;
use spdyier_origin::{OriginConfig, OriginServers};
use spdyier_proxy::{ClientConnId, FetchId};
use spdyier_sim::{SimDuration, SimTime};
use spdyier_trace::{FlightLog, TraceEvent, TraceLevel};

/// A run failed in a structured, reportable way.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// The configured [`ExperimentConfig::event_budget`] was exhausted
    /// before the run reached its horizon — almost always a livelock.
    EventBudgetExhausted {
        /// Events dispatched before giving up.
        events: u64,
    },
    /// A servicing loop ran past its iteration guard without going
    /// quiescent.
    Livelock {
        /// The loop that spun: `"pipe servicing"` or `"read loop"`.
        stage: &'static str,
        /// The pipe being serviced when the guard tripped.
        pipe: usize,
        /// Simulated time of the event being handled.
        at: SimTime,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::EventBudgetExhausted { events } => {
                write!(f, "event budget exhausted after {events} events")
            }
            RunError::Livelock { stage, pipe, at } => {
                write!(f, "{stage} livelock on pipe {pipe} at {at}")
            }
        }
    }
}

impl std::error::Error for RunError {}

/// Dirty-queue pops one servicing pass may take before it is declared a
/// livelock.
const SERVICE_GUARD: u32 = 1_000_000;

/// Reads one pipe's servicing may take before it is declared a livelock.
const READ_GUARD: u32 = 100_000;

/// Split-borrow `$self` into the active [`Side`] (bound to `$side`) plus
/// a [`SessionCtx`] over the remaining harness layers (bound to `$ctx`),
/// then evaluate `$body` with both in scope.
macro_rules! with_side {
    ($self:expr, $side:ident, $ctx:ident, $body:expr) => {{
        let Testbed {
            world,
            visits,
            result,
            cfg,
            side: $side,
            ..
        } = $self;
        #[allow(unused_mut)]
        let mut $ctx = SessionCtx {
            world,
            visits,
            result,
            cfg,
        };
        $body
    }};
}

/// The assembled testbed for one run.
pub struct Testbed {
    cfg: ExperimentConfig,
    world: World,
    visits: Visits,
    side: Side,
    origin: OriginServers,
    /// The last in-flight total pushed to the Fig. 10 series.
    last_inflight: Option<u64>,
    result: RunResult,
    ended: bool,
}

impl Testbed {
    /// Build a testbed for `cfg`.
    pub fn new(cfg: ExperimentConfig) -> Testbed {
        let world = World::new(&cfg);
        let side = Side::for_cfg(&cfg);
        let result = RunResult::new(cfg.protocol.label(), cfg.network.label(), cfg.seed);
        Testbed {
            world,
            visits: Visits::new(),
            side,
            origin: OriginServers::new(OriginConfig::default()),
            last_inflight: None,
            result,
            ended: false,
            cfg,
        }
    }

    /// Execute the run to completion, panicking if the event budget is
    /// exhausted or servicing livelocks (see [`Testbed::try_run`] for the
    /// structured form).
    pub fn run(self) -> RunResult {
        self.try_run().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Execute the run to completion, or report a structured error if the
    /// configured event budget runs out first or servicing livelocks.
    pub fn try_run(self) -> Result<RunResult, RunError> {
        self.try_run_traced().map(|(result, _)| result)
    }

    /// Execute the run to completion, returning both the results and the
    /// flight recorder's log. With tracing off the log is empty.
    pub fn try_run_traced(mut self) -> Result<(RunResult, FlightLog), RunError> {
        self.start()?;
        let mut events: u64 = 0;
        while let Some((t, ev)) = self.world.queue.pop() {
            debug_assert!(t >= self.world.now, "time went backwards");
            self.world.now = t;
            self.dispatch(ev)?;
            if self.ended {
                break;
            }
            events += 1;
            if events > self.cfg.event_budget {
                return Err(RunError::EventBudgetExhausted { events });
            }
        }
        Ok(self.finalize())
    }

    fn start(&mut self) -> Result<(), RunError> {
        let _span = spdyier_prof::scope("driver.start");
        for (i, (t, _)) in self.cfg.schedule.visits().enumerate() {
            self.world.queue.schedule(t, Event::Visit(i));
        }
        let end = self.cfg.schedule.horizon() + self.cfg.visit_timeout;
        self.world.queue.schedule(end, Event::EndRun);
        if let Some(interval) = self.cfg.keepalive_ping {
            self.world
                .queue
                .schedule(SimTime::ZERO + interval, Event::PingTick);
        }
        if self.cfg.http_idle_close.is_some() && matches!(self.cfg.protocol, ProtocolMode::Http) {
            self.world
                .queue
                .schedule(SimTime::from_secs(5), Event::IdleSweep);
        }
        if let ProtocolMode::Spdy { connections, .. } = self.cfg.protocol {
            for _ in 0..connections {
                with_side!(self, side, ctx, {
                    if let Side::Spdy(spdy) = side {
                        spdy.open_session(&mut ctx);
                    }
                });
                self.service_all()?;
            }
        }
        Ok(())
    }

    // ----- Pipe servicing -----

    fn livelock(&self, stage: &'static str, pipe: usize) -> RunError {
        RunError::Livelock {
            stage,
            pipe,
            at: self.world.now,
        }
    }

    /// Service all dirty pipes to quiescence.
    fn service_all(&mut self) -> Result<(), RunError> {
        let _span = spdyier_prof::scope("world.service");
        let mut guard = 0;
        while let Some(idx) = self.world.dirty.pop_front() {
            guard += 1;
            if guard >= SERVICE_GUARD {
                return Err(self.livelock("pipe servicing", idx));
            }
            if self.world.pipes[idx].closed {
                continue;
            }
            self.service_reads(idx)?;
            {
                let Testbed { world, side, .. } = self;
                world.flush_staged(idx, &mut |role| side.refill(role));
            }
            self.world.drain_tx(idx, &mut self.result);
            self.world.resched_timers(idx);
            self.world.maybe_mark_closed(idx);
            self.world.fold_inflight(idx);
            self.side.sync_pipe(&mut self.world, idx);
        }
        self.sample_inflight();
        self.check_visit_complete();
        Ok(())
    }

    fn service_reads(&mut self, idx: usize) -> Result<(), RunError> {
        let mut guard = 0;
        loop {
            guard += 1;
            if guard >= READ_GUARD {
                return Err(self.livelock("read loop", idx));
            }
            if let Some(data) = self.world.pipes[idx].a.read() {
                self.handle_a_read(idx, data);
                continue;
            }
            if let Some(data) = self.world.pipes[idx].b.read() {
                self.handle_b_read(idx, data);
                continue;
            }
            break;
        }
        // Establishment-driven work: flush requests pending on this pipe,
        // then (for origin pipes) issue the first queued fetch.
        if self.world.pipes[idx].a.is_established() {
            let issued = with_side!(self, side, ctx, side.flush_pending(&mut ctx, idx));
            if issued {
                // A completed handshake may unblock throttled opens.
                self.assign_ready_objects();
            }
            self.world.issue_next_origin_fetch(idx);
        }
        // SPDY SSL-ready detection / retired-HTTP-pipe close handshakes.
        with_side!(self, side, ctx, side.post_read(&mut ctx, idx));
        Ok(())
    }

    // ----- a-side reads (device for access pipes; proxy for origin pipes) -----

    fn handle_a_read(&mut self, idx: usize, data: Payload) {
        match self.world.take_role(idx) {
            PipeRole::SpdyClient { idx: sidx } => {
                self.world.put_role(idx, PipeRole::SpdyClient { idx: sidx });
                with_side!(self, side, ctx, {
                    if let Side::Spdy(spdy) = side {
                        spdy.handle_client_bytes(&mut ctx, sidx, data);
                    }
                });
            }
            mut role @ PipeRole::HttpClient { .. } => {
                with_side!(self, side, ctx, {
                    if let Side::Http(http) = side {
                        http.on_device_bytes(&mut ctx, idx, &mut role, data);
                    }
                });
                self.world.put_role(idx, role);
            }
            mut role @ PipeRole::Origin { .. } => {
                // Completions route through the side while the role is
                // detached — the origin pipe is invisible to fetch
                // dispatch for the duration, exactly as before the split.
                self.read_origin_bytes(&mut role, data);
                self.world.put_role(idx, role);
            }
            PipeRole::Detached => {
                self.world.put_role(idx, PipeRole::Detached);
            }
        }
        // Completion may unblock new requests / the next pending fetch.
        self.world.issue_next_origin_fetch(idx);
        self.assign_ready_objects();
        self.visits.reschedule_browser_timer(&mut self.world);
    }

    fn read_origin_bytes(&mut self, role: &mut PipeRole, data: Payload) {
        let PipeRole::Origin {
            http,
            current,
            got_first_byte,
            ..
        } = role
        else {
            return;
        };
        if let Some(fetch) = *current {
            if !*got_first_byte && !data.is_empty() {
                *got_first_byte = true;
                with_side!(self, side, ctx, side.on_fetch_first_byte(&mut ctx, fetch));
            }
        }
        let done = http.on_bytes(data).unwrap_or_default();
        for (tag, resp) in done {
            *current = None;
            *got_first_byte = false;
            with_side!(
                self,
                side,
                ctx,
                side.on_fetch_complete(&mut ctx, FetchId(tag), resp)
            );
            self.pump_session();
        }
    }

    // ----- b-side reads (proxy for access pipes; origin server for wired pipes) -----

    fn handle_b_read(&mut self, idx: usize, data: Payload) {
        match self.world.take_role(idx) {
            role @ PipeRole::HttpClient { .. } => {
                self.world.put_role(idx, role);
                if let Side::Http(http) = &mut self.side {
                    http.proxy
                        .on_client_bytes(ClientConnId(idx as u64), data, self.world.now);
                }
                self.pump_session();
            }
            PipeRole::SpdyClient { idx: sidx } => {
                self.world.put_role(idx, PipeRole::SpdyClient { idx: sidx });
                if let Side::Spdy(spdy) = &mut self.side {
                    spdy.on_client_bytes(sidx, data, self.world.now);
                }
                self.pump_session();
            }
            mut role @ PipeRole::Origin { .. } => {
                let mut requests = Vec::new();
                if let PipeRole::Origin { server, .. } = &mut role {
                    requests = server.on_bytes(data).unwrap_or_default();
                }
                self.world.put_role(idx, role);
                for req in requests {
                    let (latency, resp) = self.origin.handle(&req, &mut self.world.rng_origin);
                    if self.world.tracer.active(TraceLevel::Lifecycle) {
                        self.world.tracer.emit(
                            self.world.now,
                            TraceEvent::OriginThink {
                                conn: idx,
                                until: self.world.now + latency,
                            },
                        );
                        self.world
                            .tracer
                            .observe("origin.think_us", latency.as_micros());
                    }
                    self.world.queue.schedule(
                        self.world.now + latency,
                        Event::OriginReply {
                            pipe: idx,
                            bytes: resp.encode(),
                        },
                    );
                }
            }
            PipeRole::Detached => {
                self.world.put_role(idx, PipeRole::Detached);
            }
        }
    }

    // ----- Session action pumping -----

    /// Drain the side's pending actions and execute them in order, until
    /// quiescent.
    fn pump_session(&mut self) {
        let _span = spdyier_prof::scope("session.pump");
        loop {
            let actions = with_side!(self, side, ctx, side.poll_actions(&mut ctx));
            if actions.is_empty() {
                return;
            }
            for action in actions {
                match action {
                    SessionAction::OriginFetch { fetch, request } => {
                        self.world.dispatch_fetch(&mut self.result, fetch, request);
                    }
                    SessionAction::ClientBytes { pipe, bytes, fetch } => {
                        if pipe < self.world.pipes.len() && !self.world.pipes[pipe].closed {
                            if let PipeRole::HttpClient { fetch_queue, .. } =
                                &mut self.world.pipes[pipe].role
                            {
                                fetch_queue.push_back(fetch);
                            }
                            self.world.pipes[pipe].out_b.push_back(bytes);
                            self.world.mark_dirty(pipe);
                        }
                    }
                    SessionAction::PumpProxyWire { session } => {
                        if let Side::Spdy(spdy) = &mut self.side {
                            spdy.pump_proxy_wire(&mut self.world, session);
                        }
                    }
                }
            }
        }
    }

    // ----- Browser-side request assignment -----

    /// Run an assignment pass if some domain with ready objects is awake
    /// (it gained objects or capacity since it was last found blocked).
    fn assign_ready_objects(&mut self) {
        if !with_side!(self, side, ctx, side.should_assign(&mut ctx)) {
            return;
        }
        let _span = spdyier_prof::scope("session.assign");
        with_side!(self, side, ctx, side.assign_ready(&mut ctx));
    }

    // ----- Visit lifecycle and sampling -----

    fn check_visit_complete(&mut self) {
        if self.visits.load_complete() {
            self.visits
                .finish_visit(&mut self.world, &self.cfg, &mut self.result, true);
        }
    }

    fn sample_inflight(&mut self) {
        #[cfg(debug_assertions)]
        self.world.check_inflight();
        let total = self.world.inflight_total();
        if self.last_inflight != Some(total) {
            self.last_inflight = Some(total);
            self.result
                .inflight_bytes
                .push(self.world.now, total as f64);
        }
    }

    // ----- Event dispatch -----

    /// The self-profiler span name for an event kind. Names are
    /// `subsystem.detail`; the prefix before the first `.` is the row
    /// the profile report rolls the span into.
    fn event_scope(ev: &Event) -> &'static str {
        match ev {
            Event::Deliver { .. } => "driver.deliver",
            Event::Timer { .. } => "driver.tcp_timer",
            Event::BrowserTimer => "browser.timer",
            Event::Visit(_) => "visit.start",
            Event::VisitDeadline { .. } => "visit.deadline",
            Event::OriginReply { .. } => "origin.reply",
            Event::SslReady { .. } => "driver.ssl_ready",
            Event::PingTick => "driver.ping",
            Event::Beacon => "driver.beacon",
            Event::IdleSweep => "driver.idle_sweep",
            Event::EndRun => "driver.end_run",
        }
    }

    fn dispatch(&mut self, ev: Event) -> Result<(), RunError> {
        let _span = spdyier_prof::scope(Self::event_scope(&ev));
        match ev {
            Event::Deliver { pipe, to_b, seg } => {
                if self.world.pipes[pipe].closed {
                    return Ok(());
                }
                let now = self.world.now;
                if self.world.pipes[pipe].over_access && !to_b && !seg.is_empty() {
                    // Downlink payload delivered to the device (Fig. 9).
                    self.result
                        .client_downlink_bytes
                        .push(now, seg.len() as f64);
                }
                let p = &mut self.world.pipes[pipe];
                p.last_activity = now;
                let conn = if to_b { &mut p.b } else { &mut p.a };
                conn.on_segment(now, seg);
                // A handshake may have completed: the attempt count must
                // be exact before any assignment pass in servicing.
                self.side.sync_pipe(&mut self.world, pipe);
                self.world.mark_dirty(pipe);
                self.service_all()?;
            }
            Event::Timer { pipe, b_side } => {
                if self.world.pipes[pipe].closed {
                    return Ok(());
                }
                let now = self.world.now;
                let transport = self.world.tracer.active(TraceLevel::Transport);
                let silent_since = self.world.pipes[pipe].last_activity;
                let p = &mut self.world.pipes[pipe];
                let (conn, timer) = if b_side {
                    (&mut p.b, &mut p.b_timer)
                } else {
                    (&mut p.a, &mut p.a_timer)
                };
                *timer = None;
                let timeouts_before = if transport { conn.stats().timeouts } else { 0 };
                conn.on_timer(now);
                let timeouts_after = if transport { conn.stats().timeouts } else { 0 };
                for _ in timeouts_before..timeouts_after {
                    self.world.tracer.emit(
                        now,
                        TraceEvent::TcpRto {
                            conn: pipe,
                            b_side,
                            silent_since,
                        },
                    );
                    self.world.tracer.count("tcp.rto_fires", 1);
                    self.world.tracer.observe(
                        "tcp.rto_silence_us",
                        now.saturating_since(silent_since).as_micros(),
                    );
                }
                self.world.mark_dirty(pipe);
                self.service_all()?;
            }
            Event::BrowserTimer => {
                self.visits.browser_timer = None;
                if let Some(load) = self.visits.load.as_mut() {
                    load.on_timer(self.world.now);
                }
                self.assign_ready_objects();
                self.visits.reschedule_browser_timer(&mut self.world);
                self.service_all()?;
            }
            Event::Visit(v) => {
                {
                    let Testbed {
                        world,
                        visits,
                        result,
                        cfg,
                        origin,
                        ..
                    } = self;
                    visits.start_visit(world, cfg, origin, result, v);
                }
                self.assign_ready_objects();
                self.visits.reschedule_browser_timer(&mut self.world);
                self.service_all()?;
            }
            Event::VisitDeadline { visit, generation } => {
                if self.visits.current_visit == Some(visit) && self.visits.visit_gen == generation {
                    self.visits
                        .finish_visit(&mut self.world, &self.cfg, &mut self.result, false);
                }
            }
            Event::OriginReply { pipe, bytes } => {
                if !self.world.pipes[pipe].closed {
                    self.world.pipes[pipe].out_b.push_back(bytes);
                    self.world.mark_dirty(pipe);
                    self.service_all()?;
                }
            }
            Event::SslReady { pipe } => {
                if let PipeRole::SpdyClient { idx: sidx } = self.world.pipes[pipe].role {
                    self.world
                        .tracer
                        .emit(self.world.now, TraceEvent::SslReady { conn: pipe });
                    if let Side::Spdy(spdy) = &mut self.side {
                        spdy.on_ssl_ready(&mut self.world, sidx);
                    }
                    self.assign_ready_objects();
                    self.service_all()?;
                }
            }
            Event::PingTick => {
                // A device-side ping large enough to hold DCH (Fig. 14).
                for dir in [Direction::Up, Direction::Down] {
                    let _ =
                        self.world
                            .access
                            .send(dir, self.world.now, 1380, &mut self.world.rng_net);
                }
                if self.world.tracer.active(TraceLevel::Transport) {
                    self.world.sync_promotions();
                }
                if let Some(interval) = self.cfg.keepalive_ping {
                    self.world
                        .queue
                        .schedule(self.world.now + interval, Event::PingTick);
                }
            }
            Event::Beacon => {
                // Only between visits, and only while the run continues.
                if self.visits.load.is_none() && self.world.now < self.visits.next_visit_start {
                    let issued = with_side!(self, side, ctx, side.issue_beacon(&mut ctx));
                    if issued {
                        self.assign_ready_objects();
                    }
                    with_side!(self, side, ctx, side.push_beacon(&mut ctx));
                    self.visits.beacons_fired += 1;
                    if let Some(next) = self.visits.next_beacon_at(&self.cfg, self.world.now) {
                        self.world.queue.schedule(next, Event::Beacon);
                    }
                    self.service_all()?;
                }
            }
            Event::IdleSweep => {
                if let Some(max_idle) = self.cfg.http_idle_close {
                    // next_timeout gates the sweep: scan only when some
                    // pipe's idle deadline has actually passed.
                    let due = with_side!(self, side, ctx, {
                        let now = ctx.world.now;
                        side.next_timeout(&ctx).is_some_and(|t| t <= now)
                    });
                    if due {
                        if let Side::Http(http) = &mut self.side {
                            http.idle_sweep(&mut self.world, max_idle);
                        }
                    }
                    self.world
                        .queue
                        .schedule(self.world.now + SimDuration::from_secs(5), Event::IdleSweep);
                    self.service_all()?;
                }
            }
            Event::EndRun => {
                if self.visits.load.is_some() {
                    self.visits
                        .finish_visit(&mut self.world, &self.cfg, &mut self.result, false);
                }
                self.ended = true;
            }
        }
        Ok(())
    }

    fn finalize(mut self) -> (RunResult, FlightLog) {
        let _span = spdyier_prof::scope("driver.finalize");
        // Make sure every promotion taken this run reaches the recorder,
        // even ones after the last access-pipe drain.
        if self.world.tracer.active(TraceLevel::Transport) {
            self.world.sync_promotions();
        }
        // Harvest every pipe's stats/traces.
        for idx in 0..self.world.pipes.len() {
            self.world.harvest_pipe(idx);
        }
        for pipe in &mut self.world.pipes {
            if !pipe.over_access {
                continue;
            }
            let stats_a = pipe.a.stats();
            let stats_b = pipe.b.stats();
            self.result.total_timeouts += stats_a.timeouts + stats_b.timeouts;
            self.result.total_idle_restarts += stats_a.idle_restarts + stats_b.idle_restarts;
            // The proxy side is the bulk sender; keep its trace.
            let trace = if self.cfg.record_traces {
                pipe.b.take_trace()
            } else {
                None
            };
            self.result.conn_traces.push(ConnTraceResult {
                label: pipe.label.clone(),
                opened: pipe.opened,
                stats: stats_b,
                trace,
            });
        }
        self.result.total_retransmissions = self.result.retransmissions.count() as u64;
        self.result.promotions = self.world.access.promotions();
        self.result.downlink_drops = self.world.access.down_drops();
        self.result.energy_mj = self.world.access.energy_mj(self.world.now);
        self.result.proxy_records = self.side.proxy_records();
        // Publish run-level aggregates into the metrics registry (no-ops
        // when tracing is off).
        self.world
            .tracer
            .count("tcp.timeouts_total", self.result.total_timeouts);
        self.world
            .tracer
            .count("run.visits", self.result.visits.len() as u64);
        let log = std::mem::take(&mut self.world.tracer).finish();
        (self.result, log)
    }
}

/// Run one experiment configuration to completion.
pub fn run_experiment(cfg: ExperimentConfig) -> RunResult {
    Testbed::new(cfg).run()
}

/// Run one experiment configuration, reporting a structured error if the
/// event budget is exhausted or servicing livelocks.
pub fn try_run_experiment(cfg: ExperimentConfig) -> Result<RunResult, RunError> {
    Testbed::new(cfg).try_run()
}

/// Run one experiment configuration and return the flight recorder's log
/// alongside the results (empty when `cfg.trace_level` is `Off`).
pub fn run_experiment_traced(cfg: ExperimentConfig) -> (RunResult, FlightLog) {
    Testbed::new(cfg)
        .try_run_traced()
        .unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible form of [`run_experiment_traced`].
pub fn try_run_experiment_traced(
    cfg: ExperimentConfig,
) -> Result<(RunResult, FlightLog), RunError> {
    Testbed::new(cfg).try_run_traced()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The parallel executor in `spdyier-experiments` moves whole
    /// testbeds across threads; the harness must stay `Send` end to end.
    #[test]
    fn testbed_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Testbed>();
        assert_send::<RunResult>();
        assert_send::<RunError>();
    }

    /// A servicing pass that never drains its dirty queue ends the run
    /// with a structured error naming the pipe and the instant, not a
    /// panic.
    #[test]
    fn servicing_livelock_is_a_run_error() {
        let cfg = ExperimentConfig::paper_3g(ProtocolMode::Http, 1).with_schedule(
            spdyier_workload::VisitSchedule::sequential(vec![9], SimDuration::from_secs(60)),
        );
        let first_visit = cfg.schedule.visits().next().expect("one visit").0;
        let mut tb = Testbed::new(cfg);
        let pipe = tb.world.new_pipe(
            &mut tb.result,
            true,
            PipeRole::Detached,
            "stuck".to_string(),
        );
        tb.world.harvest_pipe(pipe);
        // The first pass pops this pipe once per guard step and never
        // runs dry.
        tb.world.dirty.clear();
        tb.world
            .dirty
            .extend(std::iter::repeat_n(pipe, SERVICE_GUARD as usize));
        let err = tb.try_run_traced().expect_err("livelock must be reported");
        assert_eq!(
            err,
            RunError::Livelock {
                stage: "pipe servicing",
                pipe,
                at: first_visit,
            }
        );
        assert_eq!(
            err.to_string(),
            format!("pipe servicing livelock on pipe {pipe} at {first_visit}")
        );
    }
}
