//! The protocol layer: a transport-agnostic [`AppSession`] contract and
//! its two implementations — [`HttpSide`] (HTTP/1.1 connection pool plus
//! HTTP proxy core) and [`SpdySide`] (SPDY/3 sessions with §6.1 late
//! binding and multi-connection support).
//!
//! Both sides are sans-IO: they never touch sockets or the event queue
//! directly for wire work. They parse bytes handed to them, record
//! progress through the [`Visits`] tag helpers, stage output bytes into
//! the [`World`]'s pipes, and surface origin work as [`SessionAction`]s
//! for the driver to execute.

use crate::config::{ExperimentConfig, ProtocolMode};
use crate::results::RunResult;
use crate::visits::{Visits, BEACON_TAG};
use crate::world::{Event, World};
use spdyier_bytes::Payload;
use spdyier_http::{
    Acquire, ConnectionPool, HttpClientConn, HttpServerConn, PoolConfig, PoolConnId, Request,
    Response, Wake,
};
use spdyier_proxy::{
    ClientConnId, FetchId, HttpProxyCore, HttpProxyOutput, ProxyObjectRecord, SpdyProxyCore,
    SpdyProxyOutput,
};
use spdyier_sim::{SimDuration, SimTime};
use spdyier_spdy::{Role, SpdyConfig, SpdyEvent, SpdySession};
use spdyier_trace::{TraceEvent, TraceLevel};
use spdyier_workload::ObjectId;
use std::collections::{HashMap, VecDeque};

/// What a client↔proxy or proxy↔origin pipe is used for.
pub(crate) enum PipeRole {
    /// One HTTP persistent connection, device↔proxy.
    HttpClient {
        /// Slot in the browser's connection pool.
        pool_id: PoolConnId,
        /// The device-side HTTP/1.1 state machine.
        http: HttpClientConn,
        /// `(generation, object-or-beacon)` requests in flight, FIFO
        /// (length 1 without pipelining).
        outstanding: VecDeque<(u64, u64)>,
        /// Requests awaiting connection establishment / a pipeline slot.
        pending: VecDeque<(u64, u64)>,
        /// First response byte of the current exchange seen.
        got_first_byte: bool,
        /// Fetch ids owed by the proxy on this connection, FIFO.
        fetch_queue: VecDeque<FetchId>,
        /// Last instant a request was issued or a response completed.
        last_use: SimTime,
        /// Evicted from the pool; closing.
        retired: bool,
        /// Counted in [`HttpSide`]'s connection attempts in progress.
        connecting: bool,
    },
    /// One SPDY session, device↔proxy. Session state lives in
    /// [`SpdySide::clients`] / [`SpdySide::proxies`] at `idx`.
    SpdyClient {
        /// Session index.
        idx: usize,
    },
    /// One HTTP persistent connection, proxy↔origin.
    Origin {
        /// Origin domain this pipe serves.
        domain: String,
        /// Proxy-side HTTP/1.1 client state machine.
        http: HttpClientConn,
        /// Origin-side HTTP/1.1 server state machine.
        server: HttpServerConn,
        /// Fetch currently on the wire.
        current: Option<FetchId>,
        /// Fetches queued behind it.
        pending: VecDeque<(FetchId, Request)>,
        /// First response byte of the current fetch seen.
        got_first_byte: bool,
    },
    /// Placeholder while a role is temporarily detached for processing.
    Detached,
}

impl PipeRole {
    /// Metrics-cache keys for the (a, b) sides of a pipe with this role
    /// (§6.2.4 cross-connection ssthresh/RTT sharing).
    pub fn cache_keys(&self, over_access: bool) -> (String, String) {
        if over_access {
            ("proxy".to_string(), "device".to_string())
        } else if let PipeRole::Origin { domain, .. } = self {
            (format!("origin:{domain}"), "proxy".to_string())
        } else {
            ("wired".to_string(), "wired".to_string())
        }
    }
}

/// Device-side state of one SPDY session.
pub(crate) struct SpdyClientState {
    /// The client SPDY/3 framing state machine.
    pub session: SpdySession,
    /// Pipe carrying this session.
    pub pipe: usize,
    /// SSL setup finished; streams may open.
    pub usable: bool,
    /// SSL-setup completion event scheduled (so we only schedule once).
    pub ssl_scheduled: bool,
    /// stream → (generation, object-or-beacon, first_byte_seen)
    pub streams: HashMap<u32, (u64, u64, bool)>,
}

/// Everything outside the protocol side that a session callback may need:
/// the world (pipes/clock/queue), the visit tracker, the run's results,
/// and the configuration.
pub(crate) struct SessionCtx<'a> {
    /// Clock, queue, links, pipes.
    pub world: &'a mut World,
    /// Visit/page-load state and tag helpers.
    pub visits: &'a mut Visits,
    /// Accumulating run results.
    pub result: &'a mut RunResult,
    /// The experiment configuration.
    pub cfg: &'a ExperimentConfig,
}

/// Work a session surfaces for the driver to execute, in order.
pub(crate) enum SessionAction {
    /// Fetch an object from its origin (routed over the wired leg).
    OriginFetch {
        /// Proxy-assigned fetch id.
        fetch: FetchId,
        /// The origin-bound request.
        request: Request,
    },
    /// Stage response bytes toward the device on an HTTP client pipe.
    ClientBytes {
        /// Destination pipe index.
        pipe: usize,
        /// Encoded response bytes.
        bytes: Payload,
        /// Fetch the bytes answer (for proxy bookkeeping on delivery).
        fetch: FetchId,
    },
    /// Pump a SPDY proxy's scheduler output onto its pipe.
    PumpProxyWire {
        /// Session index.
        session: usize,
    },
}

/// A protocol side of the testbed, sans-IO. The driver feeds it parsed
/// byte streams and fetch completions; it responds by mutating pipe
/// staging queues and returning [`SessionAction`]s from
/// [`AppSession::poll_actions`].
pub(crate) trait AppSession {
    /// The first response byte for `fetch` arrived from an origin.
    fn on_fetch_first_byte(&mut self, ctx: &mut SessionCtx<'_>, fetch: FetchId);
    /// An origin fetch completed with `resp`.
    fn on_fetch_complete(&mut self, ctx: &mut SessionCtx<'_>, fetch: FetchId, resp: Response);
    /// Drain pending work (origin fetches, client-bound bytes, wire
    /// pumps) for the driver to execute in order.
    fn poll_actions(&mut self, ctx: &mut SessionCtx<'_>) -> Vec<SessionAction>;
    /// The earliest instant this side needs a maintenance wake-up
    /// (idle-connection close), if any.
    fn next_timeout(&self, ctx: &SessionCtx<'_>) -> Option<SimTime>;
}

// ======================================================================
// HTTP/1.1 side
// ======================================================================

/// Chrome's cap on simultaneous connection attempts: without it a
/// discovery wave would fire 30+ handshakes and synchronized slow-starts
/// into the access queue.
const MAX_CONNECTING: usize = 8;

/// The HTTP/1.1 protocol side: the browser's connection pool plus the
/// proxy's HTTP core.
///
/// Request assignment is demand-driven: the page load keeps one ready
/// queue per domain, and a domain whose next object found no connection
/// sleeps until the pool (a release, removal or eviction) or the
/// handshake path (an attempt finishing while attempts were throttled)
/// wakes it. DESIGN.md lists the wake conditions.
pub(crate) struct HttpSide {
    /// Browser connection pool (per-domain and global caps).
    pub pool: ConnectionPool,
    /// Proxy-side HTTP core (request parsing, fetch bookkeeping).
    pub proxy: HttpProxyCore,
    /// Live (not yet closed) device↔proxy HTTP pipes, ascending: pipe
    /// indices only grow, so opening appends.
    pipes: Vec<usize>,
    /// Pool connection → its live, unretired pipe.
    pool_pipes: Vec<(PoolConnId, usize)>,
    /// Live HTTP pipes whose device side is not established: connection
    /// attempts in flight, plus retired pipes whose FIN has gone out.
    connecting: usize,
}

impl HttpSide {
    /// Fresh side with default pool limits.
    pub fn new() -> HttpSide {
        HttpSide {
            pool: ConnectionPool::new(PoolConfig::default()),
            proxy: HttpProxyCore::new(),
            pipes: Vec::new(),
            pool_pipes: Vec::new(),
            connecting: 0,
        }
    }

    /// Open a device↔proxy pipe for pool connection `pid` with `first`
    /// (`(generation, object-or-beacon)`) pending, and register it with
    /// the proxy core and the indexes.
    fn open_client_pipe(&mut self, ctx: &mut SessionCtx<'_>, pid: PoolConnId, first: (u64, u64)) {
        let role = PipeRole::HttpClient {
            pool_id: pid,
            http: HttpClientConn::with_pipelining(ctx.cfg.http_pipelining),
            outstanding: VecDeque::new(),
            pending: VecDeque::from([first]),
            got_first_byte: false,
            fetch_queue: VecDeque::new(),
            last_use: ctx.world.now,
            retired: false,
            connecting: true,
        };
        let idx = ctx
            .world
            .new_pipe(ctx.result, true, role, format!("http-{}", pid.0));
        self.proxy.on_client_connected(ClientConnId(idx as u64));
        self.pipes.push(idx);
        self.pool_pipes.push((pid, idx));
        self.connecting += 1;
    }

    /// The live, unretired pipe of pool connection `pid`.
    fn pipe_for(&self, pid: PoolConnId) -> Option<usize> {
        self.pool_pipes
            .iter()
            .find(|&&(p, _)| p == pid)
            .map(|&(_, i)| i)
    }

    /// Re-read pipe `idx` after the transport changed its TCP state: keep
    /// the attempt count exact and forget the pipe once it is closed. An
    /// attempt finishing while attempts were throttled wakes every
    /// domain.
    pub fn sync_pipe(&mut self, world: &mut World, idx: usize) {
        let p = &mut world.pipes[idx];
        let PipeRole::HttpClient { connecting, .. } = &mut p.role else {
            return;
        };
        let now_connecting = !p.closed && !p.a.is_established();
        if *connecting != now_connecting {
            *connecting = now_connecting;
            if now_connecting {
                self.connecting += 1;
            } else {
                self.connecting -= 1;
                if self.connecting + 1 == MAX_CONNECTING {
                    self.pool.wake_all();
                }
            }
        }
        if p.closed {
            if let Ok(i) = self.pipes.binary_search(&idx) {
                self.pipes.remove(i);
            }
            self.pool_pipes.retain(|&(_, i)| i != idx);
        }
    }

    /// Move the pool's wakes onto the current load's domain queues.
    fn forward_wakes(&mut self, visits: &mut Visits) {
        match visits.load.as_mut() {
            Some(load) => self.pool.drain_wakes(|w| match w {
                Wake::All => load.wake_all(),
                Wake::Domain(d) => load.wake_domain(d),
            }),
            None => self.pool.drain_wakes(|_| {}),
        }
    }

    /// Device-side bytes arrived on HTTP client pipe `idx` (its role is
    /// detached into `role` by the driver).
    pub fn on_device_bytes(
        &mut self,
        ctx: &mut SessionCtx<'_>,
        idx: usize,
        role: &mut PipeRole,
        data: Payload,
    ) {
        let PipeRole::HttpClient {
            http,
            outstanding,
            got_first_byte,
            fetch_queue,
            pool_id,
            last_use,
            ..
        } = role
        else {
            return;
        };
        if let Some(&(generation, tag)) = outstanding.front() {
            if !*got_first_byte && !data.is_empty() {
                *got_first_byte = true;
                ctx.visits
                    .note_first_byte_tagged(ctx.world, generation, tag);
            }
        }
        let done = http.on_bytes(data).unwrap_or_default();
        let pool_id = *pool_id;
        for (tag, _resp) in done {
            outstanding.pop_front();
            *got_first_byte = false;
            *last_use = ctx.world.now;
            let generation = tag >> 32;
            let obj = tag & 0xFFFF_FFFF;
            if let Some(fetch) = fetch_queue.pop_front() {
                self.proxy.on_client_received(fetch, ctx.world.now);
            }
            if outstanding.is_empty() {
                self.pool.release(pool_id);
            } else {
                // A pipeline slot freed.
                self.pool.wake(pool_id);
            }
            ctx.world.tracer.emit(
                ctx.world.now,
                TraceEvent::HttpResponseDone {
                    conn: idx,
                    gen: generation,
                    tag: obj,
                },
            );
            ctx.visits.note_complete_tagged(ctx.world, generation, obj);
        }
    }

    /// Issue a pipe's pending requests while the HTTP state machine can
    /// accept them. Returns whether any request was issued (a completed
    /// handshake may unblock throttled opens — the driver re-assigns).
    pub fn flush_pending(&mut self, ctx: &mut SessionCtx<'_>, idx: usize) -> bool {
        if !ctx.world.pipes[idx].a.is_established() {
            return false;
        }
        let mut issued_any = false;
        loop {
            let mut issue: Option<(u64, u64)> = None;
            if let PipeRole::HttpClient { http, pending, .. } = &mut ctx.world.pipes[idx].role {
                if http.can_send() {
                    if let Some(next) = pending.pop_front() {
                        issue = Some(next);
                    }
                }
            }
            let Some((generation, tag)) = issue else {
                break;
            };
            let request = ctx.visits.request_for(generation, tag);
            if let Some(request) = request {
                let tagged = (generation << 32) | (tag & 0xFFFF_FFFF);
                let mut wire = None;
                if let PipeRole::HttpClient {
                    http,
                    outstanding,
                    got_first_byte,
                    last_use,
                    ..
                } = &mut ctx.world.pipes[idx].role
                {
                    if outstanding.is_empty() {
                        *got_first_byte = false;
                    }
                    outstanding.push_back((generation, tag));
                    *last_use = ctx.world.now;
                    wire = Some(http.send_request(tagged, &request));
                }
                if let Some(bytes) = wire {
                    ctx.world.pipes[idx].out_a.push_back(bytes);
                }
                ctx.world.tracer.emit(
                    ctx.world.now,
                    TraceEvent::HttpRequestSent {
                        conn: idx,
                        gen: generation,
                        tag: tag & 0xFFFF_FFFF,
                    },
                );
                ctx.world.tracer.count("http.requests", 1);
                if generation == ctx.visits.visit_gen && tag != BEACON_TAG {
                    ctx.visits.note_requested(ctx.world, ObjectId(tag as u32));
                }
                issued_any = true;
            } else {
                // Stale request from an abandoned visit: skip it (freeing
                // a pipeline slot); release the pool slot if nothing is
                // in flight.
                if let PipeRole::HttpClient {
                    outstanding,
                    pool_id,
                    ..
                } = &ctx.world.pipes[idx].role
                {
                    if outstanding.is_empty() {
                        self.pool.release(*pool_id);
                    } else {
                        self.pool.wake(*pool_id);
                    }
                }
            }
        }
        if issued_any {
            ctx.world.mark_dirty(idx);
        }
        issued_any
    }

    /// Assign ready page objects to pooled connections (Chrome-style
    /// per-domain reuse, the connection-attempt throttle, optional
    /// pipelining). Visits the awake domains' objects in discovery order;
    /// a domain whose object finds no connection sleeps, since its later
    /// objects would find none either.
    pub fn assign_ready(&mut self, ctx: &mut SessionCtx<'_>) {
        // Shared handle so each object borrows its domain instead of
        // cloning it.
        let Some(page) = ctx.visits.current_page.clone() else {
            return;
        };
        #[cfg(debug_assertions)]
        let connecting_before = self.connecting;
        let mut after = None;
        loop {
            // Wakes raised by earlier objects (an eviction frees global
            // room) apply to the objects after them in this pass.
            self.forward_wakes(ctx.visits);
            let Some(next) = ctx
                .visits
                .load
                .as_ref()
                .and_then(|l| l.next_awake_ready(after))
            else {
                break;
            };
            after = Some(next.seq);
            let domain = page.object(next.id).domain.as_str();
            if !self.assign_object(ctx, next.id, domain) {
                self.forward_wakes(ctx.visits);
                if let Some(load) = ctx.visits.load.as_mut() {
                    load.sleep_domain(next.domain);
                }
            }
        }
        #[cfg(debug_assertions)]
        self.check_indexes(ctx.world, connecting_before);
    }

    /// Put ready object `obj` (on `domain`) on a connection; false if the
    /// domain is blocked.
    fn assign_object(&mut self, ctx: &mut SessionCtx<'_>, obj: ObjectId, domain: &str) -> bool {
        // With pipelining enabled, stack further requests onto a
        // connection to this domain that still has pipeline slots.
        if ctx.cfg.http_pipelining > 1 {
            if let Some(pipe) = self.pipeline_slot(ctx.world, domain, ctx.cfg.http_pipelining) {
                self.enqueue(ctx, pipe, obj);
                return true;
            }
        }
        loop {
            match self.pool.acquire(domain, self.connecting < MAX_CONNECTING) {
                Acquire::Reuse(pid) => {
                    let Some(pipe) = self.pipe_for(pid) else {
                        self.pool.remove(pid);
                        continue;
                    };
                    self.enqueue(ctx, pipe, obj);
                    return true;
                }
                Acquire::Open(pid) => {
                    if let Some(load) = ctx.visits.load.as_mut() {
                        load.take_ready(obj);
                    }
                    let first = (ctx.visits.visit_gen, u64::from(obj.0));
                    self.open_client_pipe(ctx, pid, first);
                    return true;
                }
                Acquire::Throttled => return false,
                Acquire::Blocked => {
                    // At the global cap, evict the LRU idle connection —
                    // even when this domain's own cap is what blocks (a
                    // known deviation from Chrome; see DESIGN.md).
                    if self.pool.at_global_cap() {
                        if let Some(evicted) = self.pool.evict_idle() {
                            if let Some(pipe) = self.pipe_for(evicted) {
                                self.retire_http_pipe(ctx.world, pipe);
                            }
                            continue;
                        }
                    }
                    return false;
                }
            }
        }
    }

    /// The first unretired pipe to `domain` with requests queued and a
    /// free pipeline slot.
    fn pipeline_slot(&self, world: &World, domain: &str, depth: usize) -> Option<usize> {
        self.pipes.iter().copied().find(|&i| {
            matches!(&world.pipes[i].role,
                PipeRole::HttpClient { outstanding, pending, retired: false, pool_id, .. }
                    if outstanding.len() + pending.len() < depth
                        && (!outstanding.is_empty() || !pending.is_empty())
                        && self.pool.domain_of(*pool_id) == Some(domain))
        })
    }

    /// Queue `obj`'s request on `pipe` and issue what the pipe can send.
    fn enqueue(&mut self, ctx: &mut SessionCtx<'_>, pipe: usize, obj: ObjectId) {
        if let Some(load) = ctx.visits.load.as_mut() {
            load.take_ready(obj);
        }
        if let PipeRole::HttpClient { pending, .. } = &mut ctx.world.pipes[pipe].role {
            pending.push_back((ctx.visits.visit_gen, u64::from(obj.0)));
        }
        self.flush_pending(ctx, pipe);
        ctx.world.mark_dirty(pipe);
    }

    /// Forward the pool's wakes; true when an assignment pass may move
    /// some ready object.
    pub fn should_assign(&mut self, ctx: &mut SessionCtx<'_>) -> bool {
        self.forward_wakes(ctx.visits);
        let Some(load) = ctx.visits.load.as_ref() else {
            return false;
        };
        if load.is_complete() {
            return false;
        }
        let wanted = load.has_awake_ready();
        #[cfg(debug_assertions)]
        if !wanted {
            self.check_asleep(ctx);
        }
        wanted
    }

    /// Debug cross-check: every domain left asleep with ready objects is
    /// truly blocked, so skipping it changes nothing.
    #[cfg(debug_assertions)]
    fn check_asleep(&self, ctx: &SessionCtx<'_>) {
        let Some(load) = ctx.visits.load.as_ref() else {
            return;
        };
        let caps = self.pool.config();
        let idle_anywhere = self.pool.busy() < self.pool.total();
        for d in 0..load.domain_count() {
            if load.is_awake(d) || load.ready_in(d) == 0 {
                continue;
            }
            let name = load.domain_name(d);
            let can_open = self.pool.count_for_domain(name) < caps.per_domain
                && self.pool.total() < caps.total
                && self.connecting < MAX_CONNECTING;
            let can_evict = self.pool.at_global_cap() && idle_anywhere;
            let slot = ctx.cfg.http_pipelining > 1
                && self
                    .pipeline_slot(ctx.world, name, ctx.cfg.http_pipelining)
                    .is_some();
            assert!(
                !(self.pool.has_idle(name) || can_open || can_evict || slot),
                "domain {name} sleeps but could make progress"
            );
        }
    }

    /// Debug cross-check of the maintained indexes against a scan of
    /// every live pipe, and of the 6/32/8 caps.
    #[cfg(debug_assertions)]
    fn check_indexes(&self, world: &World, connecting_before: usize) {
        let mut pipes = Vec::new();
        let mut pool_pipes = Vec::new();
        let mut connecting = 0;
        for &i in &world.live {
            let p = &world.pipes[i];
            if let PipeRole::HttpClient {
                pool_id, retired, ..
            } = &p.role
            {
                pipes.push(i);
                if !retired {
                    pool_pipes.push((*pool_id, i));
                }
                if p.over_access && !p.a.is_established() {
                    connecting += 1;
                }
            }
        }
        let mut indexed = self.pool_pipes.clone();
        indexed.sort_unstable();
        pool_pipes.sort_unstable();
        assert_eq!(self.pipes, pipes, "HTTP pipe index");
        assert_eq!(indexed, pool_pipes, "pool-id → pipe index");
        assert_eq!(self.connecting, connecting, "connection attempts");
        let caps = self.pool.config();
        assert!(self.pool.total() <= caps.total, "global cap");
        for &(pid, _) in &pool_pipes {
            let domain = self.pool.domain_of(pid).expect("indexed pipes are pooled");
            assert!(
                self.pool.count_for_domain(domain) <= caps.per_domain,
                "domain cap"
            );
        }
        assert!(
            self.connecting <= connecting_before.max(MAX_CONNECTING),
            "attempt throttle"
        );
    }

    /// Evict a pipe from the pool and start closing its device side.
    pub fn retire_http_pipe(&mut self, world: &mut World, idx: usize) {
        if let PipeRole::HttpClient {
            retired, pool_id, ..
        } = &mut world.pipes[idx].role
        {
            if !*retired {
                *retired = true;
                let pid = *pool_id;
                self.pool.remove(pid);
                self.pool_pipes.retain(|&(p, _)| p != pid);
            }
        }
        world.pipes[idx].a.close(world.now);
        world.mark_dirty(idx);
    }

    /// Fire a §5.7 beacon request on a pooled (or fresh) connection.
    /// Returns whether a request was issued immediately.
    pub fn issue_beacon(&mut self, ctx: &mut SessionCtx<'_>) -> bool {
        let Some(domain) = ctx.visits.beacon_domain.clone() else {
            return false;
        };
        match self.pool.acquire(&domain, true) {
            Acquire::Reuse(pid) => {
                if let Some(pipe) = self.pipe_for(pid) {
                    if let PipeRole::HttpClient { pending, .. } = &mut ctx.world.pipes[pipe].role {
                        pending.push_back((ctx.visits.visit_gen, BEACON_TAG));
                    }
                    let issued = self.flush_pending(ctx, pipe);
                    ctx.world.mark_dirty(pipe);
                    issued
                } else {
                    self.pool.remove(pid);
                    false
                }
            }
            Acquire::Open(pid) => {
                self.open_client_pipe(ctx, pid, (ctx.visits.visit_gen, BEACON_TAG));
                false
            }
            Acquire::Blocked | Acquire::Throttled => false,
        }
    }

    /// Server-initiated periodic data (§5.7): a pending long-poll
    /// completes on one idle persistent connection; the client discards
    /// the unsolicited body.
    pub fn push_beacon(&mut self, ctx: &mut SessionCtx<'_>) {
        let Some(size) = ctx.cfg.beacon.map(|b| b.size) else {
            return;
        };
        let target = self.pipes.iter().copied().find(|&i| {
            let p = &ctx.world.pipes[i];
            p.b.is_established()
                && matches!(
                    &p.role,
                    PipeRole::HttpClient { outstanding, pending, retired: false, .. }
                        if outstanding.is_empty() && pending.is_empty()
                )
        });
        if let Some(idx) = target {
            let resp = Response::ok(Payload::body(size)).with_header("X-Pushed", "1");
            ctx.world.pipes[idx].out_b.push_back(resp.encode());
            ctx.world.mark_dirty(idx);
        }
    }

    /// Complete the FIN handshake on a retired pipe once the device side
    /// has closed, and tell the proxy core the client is gone.
    pub fn handle_close_handshake(&mut self, world: &mut World, idx: usize) {
        let retired = matches!(
            world.pipes[idx].role,
            PipeRole::HttpClient { retired: true, .. }
        );
        if retired && world.pipes[idx].b.peer_closed() {
            world.pipes[idx].b.close(world.now);
            self.proxy.on_client_closed(ClientConnId(idx as u64));
        }
    }

    /// Retire every idle unretired pipe whose idle time reached
    /// `max_idle`.
    pub fn idle_sweep(&mut self, world: &mut World, max_idle: SimDuration) {
        let stale: Vec<usize> = self
            .pipes
            .iter()
            .copied()
            .filter(|&i| {
                matches!(
                    &world.pipes[i].role,
                    PipeRole::HttpClient {
                        outstanding,
                        pending,
                        retired: false,
                        last_use,
                        ..
                    } if outstanding.is_empty()
                        && pending.is_empty()
                        && world.now.saturating_since(*last_use) >= max_idle
                )
            })
            .collect();
        for i in stale {
            self.retire_http_pipe(world, i);
        }
    }
}

impl AppSession for HttpSide {
    fn on_fetch_first_byte(&mut self, ctx: &mut SessionCtx<'_>, fetch: FetchId) {
        self.proxy.on_fetch_first_byte(fetch, ctx.world.now);
    }

    fn on_fetch_complete(&mut self, ctx: &mut SessionCtx<'_>, fetch: FetchId, resp: Response) {
        self.proxy.on_fetch_complete(fetch, resp, ctx.world.now);
    }

    fn poll_actions(&mut self, _ctx: &mut SessionCtx<'_>) -> Vec<SessionAction> {
        let mut actions = Vec::new();
        while let Some(out) = self.proxy.poll_output() {
            match out {
                HttpProxyOutput::Fetch { fetch, request } => {
                    actions.push(SessionAction::OriginFetch { fetch, request });
                }
                HttpProxyOutput::ToClient { conn, bytes, fetch } => {
                    actions.push(SessionAction::ClientBytes {
                        pipe: conn.0 as usize,
                        bytes,
                        fetch,
                    });
                }
            }
        }
        actions
    }

    fn next_timeout(&self, ctx: &SessionCtx<'_>) -> Option<SimTime> {
        let max_idle = ctx.cfg.http_idle_close?;
        self.pipes
            .iter()
            .filter_map(|&i| match &ctx.world.pipes[i].role {
                PipeRole::HttpClient {
                    outstanding,
                    pending,
                    retired: false,
                    last_use,
                    ..
                } if outstanding.is_empty() && pending.is_empty() => Some(*last_use + max_idle),
                _ => None,
            })
            .min()
    }
}

// ======================================================================
// SPDY/3 side
// ======================================================================

/// The SPDY/3 protocol side: client sessions, per-session proxy cores,
/// and the §6.1 late-binding response routing.
pub(crate) struct SpdySide {
    /// Device-side session state, one per configured connection.
    pub clients: Vec<SpdyClientState>,
    /// Proxy-side SPDY cores, one per session.
    pub proxies: Vec<SpdyProxyCore>,
    /// fetch → owning session index.
    pub fetch_owner: HashMap<FetchId, usize>,
    /// fetch → `(generation, object-or-beacon)` for late-binding delivery.
    pub fetch_tag: HashMap<FetchId, (u64, u64)>,
    /// `(session, stream)` of a late-bound response → `(owner, fetch)`.
    pub late_stream_fetch: HashMap<(usize, u32), (usize, FetchId)>,
    /// Round-robin cursor over usable sessions.
    pub rr: usize,
    /// Sessions whose proxy scheduler needs a wire pump, in touch order.
    pending_pump: Vec<usize>,
}

impl SpdySide {
    /// Fresh side with no sessions yet.
    pub fn new() -> SpdySide {
        SpdySide {
            clients: Vec::new(),
            proxies: Vec::new(),
            fetch_owner: HashMap::new(),
            fetch_tag: HashMap::new(),
            late_stream_fetch: HashMap::new(),
            rr: 0,
            pending_pump: Vec::new(),
        }
    }

    /// Open one SPDY session (pipe + client state + proxy core). The
    /// driver services pipes afterwards.
    pub fn open_session(&mut self, ctx: &mut SessionCtx<'_>) {
        let sidx = self.clients.len();
        let pipe = ctx.world.new_pipe(
            ctx.result,
            true,
            PipeRole::SpdyClient { idx: sidx },
            format!("spdy-{sidx}"),
        );
        self.clients.push(SpdyClientState {
            session: SpdySession::new(Role::Client, SpdyConfig::default()),
            pipe,
            usable: false,
            streams: HashMap::new(),
            ssl_scheduled: false,
        });
        // Distinct fetch-id spaces per session (shared owner map).
        self.proxies.push(SpdyProxyCore::with_fetch_offset(
            SpdyConfig::default(),
            sidx as u64 * 1_000_000,
        ));
        ctx.world.mark_dirty(pipe);
    }

    /// Device-side bytes arrived on a session's pipe: parse frames,
    /// record object progress, credit flow-control windows.
    pub fn handle_client_bytes(&mut self, ctx: &mut SessionCtx<'_>, sidx: usize, data: Payload) {
        let events = match self.clients[sidx].session.on_bytes(data) {
            Ok(ev) => ev,
            Err(e) => {
                debug_assert!(false, "client session {sidx} frame error: {e}");
                return;
            }
        };
        let pipe = self.clients[sidx].pipe;
        for ev in events {
            if ctx.world.tracer.active(TraceLevel::Full) {
                let (kind, stream, fin) = match &ev {
                    SpdyEvent::Reply { stream_id, fin, .. } => ("Reply", *stream_id, *fin),
                    SpdyEvent::Data { stream_id, fin, .. } => ("Data", *stream_id, *fin),
                    SpdyEvent::StreamOpened { stream_id, .. } => {
                        ("StreamOpened", *stream_id, false)
                    }
                    SpdyEvent::Ping(_) => ("Ping", 0, false),
                    SpdyEvent::Reset { .. } => ("Reset", 0, false),
                    SpdyEvent::Goaway => ("Goaway", 0, false),
                };
                ctx.world.tracer.emit(
                    ctx.world.now,
                    TraceEvent::SpdyFrameRecv {
                        conn: pipe,
                        stream,
                        kind: kind.to_string(),
                        fin,
                    },
                );
            }
            match ev {
                SpdyEvent::Reply { stream_id, fin, .. } => {
                    if let Some(&(generation, tag, _)) = self.clients[sidx].streams.get(&stream_id)
                    {
                        ctx.visits
                            .note_first_byte_tagged(ctx.world, generation, tag);
                        if let Some(e) = self.clients[sidx].streams.get_mut(&stream_id) {
                            e.2 = true;
                        }
                        if fin {
                            self.stream_done(ctx, sidx, stream_id);
                        }
                    }
                }
                SpdyEvent::Data {
                    stream_id,
                    payload,
                    fin,
                } => {
                    // Credit every stream (including server-pushed ones).
                    self.clients[sidx]
                        .session
                        .consume(stream_id, payload.len() as u32);
                    if let Some(&(generation, tag, first_seen)) =
                        self.clients[sidx].streams.get(&stream_id)
                    {
                        if !first_seen {
                            ctx.visits
                                .note_first_byte_tagged(ctx.world, generation, tag);
                            if let Some(e) = self.clients[sidx].streams.get_mut(&stream_id) {
                                e.2 = true;
                            }
                        }
                        if fin {
                            self.stream_done(ctx, sidx, stream_id);
                        }
                    }
                }
                SpdyEvent::StreamOpened {
                    stream_id, headers, ..
                } => {
                    // A late-bound response arrives on a server-initiated
                    // stream tagged with the original request identity.
                    let get = |k: &str| {
                        headers
                            .iter()
                            .find(|(n, _)| n == k)
                            .and_then(|(_, v)| v.parse::<u64>().ok())
                    };
                    if let (Some(generation), Some(tag)) = (get("x-late-gen"), get("x-late-tag")) {
                        if tag != BEACON_TAG {
                            ctx.visits
                                .note_first_byte_tagged(ctx.world, generation, tag);
                            self.clients[sidx]
                                .streams
                                .insert(stream_id, (generation, tag, true));
                        }
                    }
                }
                SpdyEvent::Ping(_) | SpdyEvent::Reset { .. } | SpdyEvent::Goaway => {}
            }
        }
        // consume() may have queued WINDOW_UPDATEs on the client session.
        self.pump_client_wire(ctx.world, sidx);
        ctx.world.mark_dirty(pipe);
    }

    fn stream_done(&mut self, ctx: &mut SessionCtx<'_>, sidx: usize, stream_id: u32) {
        let Some((generation, tag, _)) = self.clients[sidx].streams.remove(&stream_id) else {
            return;
        };
        if let Some((owner, fetch)) = self.late_stream_fetch.remove(&(sidx, stream_id)) {
            self.proxies[owner].on_client_received(fetch, ctx.world.now);
        } else if let Some(fetch) = self.proxies[sidx].fetch_for_stream(stream_id) {
            self.proxies[sidx].on_client_received(fetch, ctx.world.now);
        }
        ctx.visits.note_complete_tagged(ctx.world, generation, tag);
    }

    /// Proxy-side bytes arrived from the device on session `sidx`.
    pub fn on_client_bytes(&mut self, sidx: usize, data: Payload, now: SimTime) {
        self.proxies[sidx].on_client_bytes(data, now);
        self.pending_pump.push(sidx);
    }

    /// Move SPDY proxy wire bytes into the pipe's staging queue while the
    /// staging queue is shallow — keeping priority decisions late.
    pub fn pump_proxy_wire(&mut self, world: &mut World, sidx: usize) {
        let pipe = self.clients[sidx].pipe;
        if world.pipes[pipe].closed {
            return;
        }
        let mut staged: u64 = world.pipes[pipe].out_b.iter().map(|b| b.len()).sum();
        let space = world.pipes[pipe].b.send_space();
        while staged < space.max(8 * 1024) {
            match self.proxies[sidx].poll_wire() {
                Some(wire) => {
                    staged += wire.len();
                    world.pipes[pipe].out_b.push_back(wire);
                }
                None => break,
            }
        }
        world.mark_dirty(pipe);
    }

    /// Move client-session frames into the pipe's device-side staging
    /// queue (once SSL setup has finished).
    pub fn pump_client_wire(&mut self, world: &mut World, sidx: usize) {
        let pipe = self.clients[sidx].pipe;
        if world.pipes[pipe].closed || !self.clients[sidx].usable {
            return;
        }
        while let Some(wire) = self.clients[sidx].session.poll_wire() {
            world.pipes[pipe].out_a.push_back(wire);
        }
        world.mark_dirty(pipe);
    }

    /// Once a session's pipe is established, schedule its SSL-setup
    /// completion (a configured number of RTTs away), exactly once.
    pub fn detect_ssl_ready(&mut self, ctx: &mut SessionCtx<'_>, idx: usize) {
        if let PipeRole::SpdyClient { idx: sidx } = ctx.world.pipes[idx].role {
            if !self.clients[sidx].usable
                && ctx.world.pipes[idx].a.is_established()
                && !self.clients[sidx].ssl_scheduled
            {
                let delay = ctx
                    .world
                    .access
                    .base_rtt()
                    .saturating_mul(u64::from(ctx.cfg.ssl_setup_rtts));
                let at = ctx.world.now + delay;
                ctx.world.queue.schedule(at, Event::SslReady { pipe: idx });
                self.clients[sidx].ssl_scheduled = true;
            }
        }
    }

    /// SSL setup finished: the session becomes usable and any queued
    /// frames go out.
    pub fn on_ssl_ready(&mut self, world: &mut World, sidx: usize) {
        self.clients[sidx].usable = true;
        self.pump_client_wire(world, sidx);
    }

    /// Assign ready page objects, in discovery order, round-robin over
    /// usable sessions. SPDY never puts a domain to sleep, so every ready
    /// object is awake.
    pub fn assign_ready(&mut self, ctx: &mut SessionCtx<'_>) {
        if self.clients.is_empty() {
            return;
        }
        let mut after = None;
        while let Some(next) = ctx
            .visits
            .load
            .as_ref()
            .and_then(|l| l.next_awake_ready(after))
        {
            after = Some(next.seq);
            let obj = next.id;
            // Round-robin over usable sessions.
            let n = self.clients.len();
            let mut chosen = None;
            for k in 0..n {
                let s = (self.rr + k) % n;
                if self.clients[s].usable {
                    chosen = Some(s);
                    break;
                }
            }
            let Some(sidx) = chosen else {
                return; // no session ready yet (SSL still setting up)
            };
            self.rr = (sidx + 1) % n;
            let (domain, path, priority) = {
                let Some(page) = ctx.visits.current_page.as_ref() else {
                    return;
                };
                let o = page.object(obj);
                (o.domain.clone(), o.path.clone(), o.kind.spdy_priority())
            };
            let mut headers = vec![
                (":method".to_string(), "GET".to_string()),
                (":host".to_string(), domain.clone()),
                (":path".to_string(), path),
                (":scheme".to_string(), "https".to_string()),
            ];
            headers.extend(ctx.visits.cached_headers(&domain).iter().cloned());
            let stream = {
                self.clients[sidx]
                    .session
                    .open_stream(headers, priority, true)
            };
            self.clients[sidx]
                .streams
                .insert(stream, (ctx.visits.visit_gen, u64::from(obj.0), false));
            ctx.world.tracer.emit(
                ctx.world.now,
                TraceEvent::SpdyStreamOpen {
                    conn: self.clients[sidx].pipe,
                    stream,
                    gen: ctx.visits.visit_gen,
                    tag: u64::from(obj.0),
                },
            );
            ctx.world.tracer.count("spdy.streams_opened", 1);
            ctx.visits.note_requested(ctx.world, obj);
            self.pump_client_wire(ctx.world, sidx);
        }
    }

    /// Fire a §5.7 beacon request on the first usable session.
    pub fn issue_beacon(&mut self, ctx: &mut SessionCtx<'_>) -> bool {
        let Some(domain) = ctx.visits.beacon_domain.clone() else {
            return false;
        };
        if let Some(sidx) = (0..self.clients.len()).find(|&s| self.clients[s].usable) {
            let mut headers = vec![
                (":method".to_string(), "GET".to_string()),
                (":host".to_string(), domain.clone()),
                (":path".to_string(), "/beacon.gif".to_string()),
            ];
            headers.extend(ctx.visits.cached_headers(&domain).iter().cloned());
            let stream = self.clients[sidx].session.open_stream(headers, 4, true);
            self.clients[sidx]
                .streams
                .insert(stream, (ctx.visits.visit_gen, BEACON_TAG, false));
            self.pump_client_wire(ctx.world, sidx);
        }
        false
    }

    /// Server-initiated periodic data (§5.7): the proxy pushes unsolicited
    /// bytes (a completed long-poll, a refreshed ad) into what may be an
    /// idle radio — the transfer pattern whose spurious timeouts collapse
    /// the sender's window with no request to pre-pay the promotion.
    pub fn push_beacon(&mut self, ctx: &mut SessionCtx<'_>) {
        let Some(size) = ctx.cfg.beacon.map(|b| b.size) else {
            return;
        };
        if let Some(sidx) = (0..self.clients.len()).find(|&s| self.clients[s].usable) {
            self.proxies[sidx].push_data("/push/refresh", Payload::body(size));
            self.pump_proxy_wire(ctx.world, sidx);
        }
    }
}

impl AppSession for SpdySide {
    fn on_fetch_first_byte(&mut self, ctx: &mut SessionCtx<'_>, fetch: FetchId) {
        if let Some(&sidx) = self.fetch_owner.get(&fetch) {
            self.proxies[sidx].on_fetch_first_byte(fetch, ctx.world.now);
        }
    }

    fn on_fetch_complete(&mut self, ctx: &mut SessionCtx<'_>, fetch: FetchId, resp: Response) {
        let Some(&sidx) = self.fetch_owner.get(&fetch) else {
            return;
        };
        let late = matches!(
            ctx.cfg.protocol,
            ProtocolMode::Spdy {
                late_binding: true,
                ..
            }
        );
        if !late {
            self.proxies[sidx].on_fetch_complete(fetch, resp, ctx.world.now);
            self.pending_pump.push(sidx);
            return;
        }
        // §6.1 late binding: deliver on whichever session's connection can
        // transmit soonest (least send backlog), on a tagged
        // server-initiated stream.
        self.proxies[sidx].stamp_complete(fetch, ctx.world.now);
        let best = {
            let world = &*ctx.world;
            (0..self.clients.len())
                .filter(|&s| self.clients[s].usable)
                .min_by_key(|&s| {
                    let pipe = self.clients[s].pipe;
                    let staged: u64 = world.pipes[pipe].out_b.iter().map(|b| b.len()).sum();
                    world.pipes[pipe].b.send_queue_len()
                        + world.pipes[pipe].b.bytes_in_flight()
                        + staged
                        + self.proxies[s].session().pending_bytes()
                })
                .unwrap_or(sidx)
        };
        ctx.world.tracer.emit(
            ctx.world.now,
            TraceEvent::ProxyLateBind {
                fetch: fetch.0,
                owner_session: sidx,
                chosen_session: best,
            },
        );
        let (generation, tag) = self
            .fetch_tag
            .get(&fetch)
            .copied()
            .unwrap_or((0, BEACON_TAG));
        let headers = vec![
            (":status".to_string(), resp.status.to_string()),
            ("x-late-gen".to_string(), generation.to_string()),
            ("x-late-tag".to_string(), tag.to_string()),
        ];
        let stream = self.proxies[best].push_with_headers(headers, resp.body, 2);
        self.late_stream_fetch.insert((best, stream), (sidx, fetch));
        self.pending_pump.push(best);
    }

    fn poll_actions(&mut self, _ctx: &mut SessionCtx<'_>) -> Vec<SessionAction> {
        let mut actions = Vec::new();
        for sidx in 0..self.proxies.len() {
            while let Some(out) = self.proxies[sidx].poll_output() {
                match out {
                    SpdyProxyOutput::Fetch { fetch, request } => {
                        self.fetch_owner.insert(fetch, sidx);
                        if let Some(stream) = self.proxies[sidx].stream_of(fetch) {
                            if let Some(&(generation, tag, _)) =
                                self.clients[sidx].streams.get(&stream)
                            {
                                self.fetch_tag.insert(fetch, (generation, tag));
                            }
                        }
                        actions.push(SessionAction::OriginFetch { fetch, request });
                    }
                }
            }
        }
        for sidx in std::mem::take(&mut self.pending_pump) {
            actions.push(SessionAction::PumpProxyWire { session: sidx });
        }
        actions
    }

    fn next_timeout(&self, _ctx: &SessionCtx<'_>) -> Option<SimTime> {
        None
    }
}

// ======================================================================
// Protocol dispatch
// ======================================================================

/// The active protocol side for one run.
pub(crate) enum Side {
    /// HTTP/1.1 with a browser connection pool.
    Http(HttpSide),
    /// SPDY/3 sessions (optionally late-binding, multi-connection).
    Spdy(SpdySide),
}

impl Side {
    /// Build the side matching the configured protocol.
    pub fn for_cfg(cfg: &ExperimentConfig) -> Side {
        match cfg.protocol {
            ProtocolMode::Http => Side::Http(HttpSide::new()),
            ProtocolMode::Spdy { .. } => Side::Spdy(SpdySide::new()),
        }
    }

    /// Refill callback for [`World::flush_staged`]: the SPDY proxy keeps
    /// frames unscheduled until send-buffer space exists.
    pub fn refill(&mut self, role: &PipeRole) -> Option<Payload> {
        if let (Side::Spdy(spdy), PipeRole::SpdyClient { idx }) = (self, role) {
            spdy.proxies[*idx].poll_wire()
        } else {
            None
        }
    }

    /// Issue pending requests unblocked by connection establishment.
    pub fn flush_pending(&mut self, ctx: &mut SessionCtx<'_>, idx: usize) -> bool {
        match self {
            Side::Http(h) => h.flush_pending(ctx, idx),
            Side::Spdy(_) => false,
        }
    }

    /// Side-specific post-read hook: FIN handshakes on retired HTTP
    /// pipes; SSL-ready detection on SPDY pipes.
    pub fn post_read(&mut self, ctx: &mut SessionCtx<'_>, idx: usize) {
        match self {
            Side::Http(h) => h.handle_close_handshake(ctx.world, idx),
            Side::Spdy(s) => s.detect_ssl_ready(ctx, idx),
        }
    }

    /// Re-read pipe `idx` after the transport changed its TCP state.
    pub fn sync_pipe(&mut self, world: &mut World, idx: usize) {
        if let Side::Http(h) = self {
            h.sync_pipe(world, idx);
        }
    }

    /// True when an assignment pass may move some ready object.
    pub fn should_assign(&mut self, ctx: &mut SessionCtx<'_>) -> bool {
        match self {
            Side::Http(h) => h.should_assign(ctx),
            Side::Spdy(_) => ctx
                .visits
                .load
                .as_ref()
                .is_some_and(|l| !l.is_complete() && l.ready_count() > 0),
        }
    }

    /// Assign ready page objects to connections/streams.
    pub fn assign_ready(&mut self, ctx: &mut SessionCtx<'_>) {
        match self {
            Side::Http(h) => h.assign_ready(ctx),
            Side::Spdy(s) => s.assign_ready(ctx),
        }
    }

    /// Fire a beacon request; returns whether one was issued immediately.
    pub fn issue_beacon(&mut self, ctx: &mut SessionCtx<'_>) -> bool {
        match self {
            Side::Http(h) => h.issue_beacon(ctx),
            Side::Spdy(s) => s.issue_beacon(ctx),
        }
    }

    /// Push server-initiated beacon data toward the device.
    pub fn push_beacon(&mut self, ctx: &mut SessionCtx<'_>) {
        match self {
            Side::Http(h) => h.push_beacon(ctx),
            Side::Spdy(s) => s.push_beacon(ctx),
        }
    }

    /// All per-object proxy records accumulated this run.
    pub fn proxy_records(&self) -> Vec<ProxyObjectRecord> {
        match self {
            Side::Http(h) => h.proxy.records().into_iter().cloned().collect(),
            Side::Spdy(s) => {
                let mut records = Vec::new();
                for p in &s.proxies {
                    for r in p.records() {
                        records.push(r.clone());
                    }
                }
                records
            }
        }
    }
}

impl AppSession for Side {
    fn on_fetch_first_byte(&mut self, ctx: &mut SessionCtx<'_>, fetch: FetchId) {
        match self {
            Side::Http(h) => h.on_fetch_first_byte(ctx, fetch),
            Side::Spdy(s) => s.on_fetch_first_byte(ctx, fetch),
        }
    }

    fn on_fetch_complete(&mut self, ctx: &mut SessionCtx<'_>, fetch: FetchId, resp: Response) {
        match self {
            Side::Http(h) => h.on_fetch_complete(ctx, fetch, resp),
            Side::Spdy(s) => s.on_fetch_complete(ctx, fetch, resp),
        }
    }

    fn poll_actions(&mut self, ctx: &mut SessionCtx<'_>) -> Vec<SessionAction> {
        match self {
            Side::Http(h) => h.poll_actions(ctx),
            Side::Spdy(s) => s.poll_actions(ctx),
        }
    }

    fn next_timeout(&self, ctx: &SessionCtx<'_>) -> Option<SimTime> {
        match self {
            Side::Http(h) => h.next_timeout(ctx),
            Side::Spdy(s) => s.next_timeout(ctx),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spdyier_browser::PageLoad;
    use spdyier_workload::test_page;
    use std::sync::Arc;

    /// Pins a known deviation from Chrome (DESIGN.md, "HTTP request
    /// assignment"): at the 32-connection cap, a ready object whose own
    /// domain is at its 6-connection cap still evicts another domain's
    /// idle connection, though the eviction cannot let it open one.
    #[test]
    fn domain_capped_object_still_evicts_at_global_cap() {
        let cfg = ExperimentConfig::paper_3g(ProtocolMode::Http, 1);
        let mut world = World::new(&cfg);
        let mut visits = Visits::new();
        let mut result = RunResult::new(cfg.protocol.label(), cfg.network.label(), cfg.seed);
        let page = Arc::new(test_page(0, 500, true));
        let domain = page.root().domain.clone();
        visits.current_page = Some(Arc::clone(&page));
        visits.load = Some(PageLoad::new(page, SimTime::ZERO));
        let mut side = HttpSide::new();
        // The root's domain holds its 6 connections, 25 other domains one
        // each, all busy; one more domain's connection is idle.
        for _ in 0..6 {
            assert!(matches!(side.pool.acquire(&domain, true), Acquire::Open(_)));
        }
        for d in 0..25 {
            let other = format!("busy{d}.example");
            assert!(matches!(side.pool.acquire(&other, true), Acquire::Open(_)));
        }
        let Acquire::Open(idle) = side.pool.acquire("idle.example", true) else {
            panic!("room for the 32nd connection");
        };
        side.pool.release(idle);
        assert!(side.pool.at_global_cap());
        let mut ctx = SessionCtx {
            world: &mut world,
            visits: &mut visits,
            result: &mut result,
            cfg: &cfg,
        };
        assert!(side.should_assign(&mut ctx));
        side.assign_ready(&mut ctx);
        assert_eq!(side.pool.count_for_domain("idle.example"), 0, "evicted");
        assert_eq!(side.pool.total(), 31);
        let load = ctx.visits.load.as_ref().expect("load in progress");
        assert_eq!(load.ready_count(), 1, "the root still waits for its domain");
        // Its domain now sleeps: no pass until capacity changes.
        assert!(!side.should_assign(&mut ctx));
    }
}
