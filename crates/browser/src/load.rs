//! The page-load state machine.
//!
//! Drives one page through discovery → request → download → evaluation,
//! with the two browser behaviours §5.2 shows to matter:
//!
//! 1. an object becomes *requestable* only after the object referencing it
//!    has been downloaded **and evaluated**, and
//! 2. evaluation (HTML parse, script execution) is **sequential** — one
//!    evaluator, a queue — since scripts can mutate the page.
//!
//! The machine is sans-IO: the protocol driver pops ready objects, issues
//! requests its own way (6-connection HTTP pool or one SPDY session), and
//! reports the transfer boundaries back.

use crate::timing::ObjectTiming;
use spdyier_sim::{SimDuration, SimTime};
use spdyier_workload::{ObjectId, WebPage};
use std::collections::VecDeque;
use std::sync::Arc;

/// Lifecycle phase of one object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Referenced by an object that has not been evaluated yet.
    Hidden,
    /// Known to the browser, not yet requested.
    Ready,
    /// Request issued, transfer in progress.
    InFlight,
    /// Fully downloaded (and queued for / undergoing evaluation if it is
    /// an evaluated kind).
    Downloaded,
    /// Downloaded and (if applicable) evaluated.
    Done,
}

/// A requestable object as a fetcher sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadyObject {
    /// Discovery sequence number: ready objects across all domains, in
    /// increasing `seq`, are in discovery order.
    pub seq: u64,
    /// The object.
    pub id: ObjectId,
    /// Page-local index of the object's domain (see
    /// [`PageLoad::domain_name`]).
    pub domain: usize,
}

/// The ready objects of one domain.
#[derive(Debug)]
struct DomainQueue {
    /// An object of the page on this domain (names the domain).
    rep: ObjectId,
    /// `(seq, object)` in discovery order.
    ready: VecDeque<(u64, ObjectId)>,
    /// The fetcher may make progress on this domain: it gained a ready
    /// object, or capacity, since the fetcher last found it blocked.
    awake: bool,
}

/// One page load in progress.
///
/// The page is held behind an [`Arc`] so the driver can share it with
/// its own per-visit state without cloning the object table, and the
/// per-object bookkeeping vectors can be recycled across visits via
/// [`PageLoad::reset`] — a sweep cell loads thousands of pages, and
/// re-allocating phase/timing tables per visit dominated the
/// control-plane allocation profile.
///
/// Ready objects wait in one queue per domain, each entry tagged with
/// its discovery sequence number, so a fetcher whose capacity is
/// per-domain (the HTTP connection pool) can look at only the domains
/// that can move, and still visit them in discovery order.
#[derive(Debug)]
pub struct PageLoad {
    page: Arc<WebPage>,
    start: SimTime,
    phases: Vec<Phase>,
    timings: Vec<ObjectTiming>,
    /// Discovery sequence number per discovered object.
    seqs: Vec<u64>,
    /// Page-local domain index per discovered object.
    domain_of: Vec<u32>,
    /// Per-domain ready queues. The first `domain_count` belong to this
    /// page; the rest are spare buffers kept across [`PageLoad::reset`].
    domains: Vec<DomainQueue>,
    domain_count: usize,
    /// Objects waiting in the ready queues.
    ready_len: usize,
    next_seq: u64,
    /// Downloaded evaluated-kind objects awaiting the single evaluator.
    eval_queue: VecDeque<ObjectId>,
    /// `(object, finish_time)` of the evaluation in progress.
    evaluating: Option<(ObjectId, SimTime)>,
    onload: Option<SimTime>,
}

impl PageLoad {
    /// Begin loading `page` at `now`; the root document is immediately
    /// ready to request.
    pub fn new(page: impl Into<Arc<WebPage>>, now: SimTime) -> PageLoad {
        let page = page.into();
        let n = page.object_count();
        let mut load = PageLoad {
            page,
            start: now,
            phases: vec![Phase::Hidden; n],
            timings: vec![ObjectTiming::default(); n],
            seqs: vec![0; n],
            domain_of: vec![0; n],
            domains: Vec::new(),
            domain_count: 0,
            ready_len: 0,
            next_seq: 0,
            eval_queue: VecDeque::new(),
            evaluating: None,
            onload: None,
        };
        load.discover(ObjectId(0), now);
        load
    }

    /// Rebind this load to a fresh `page` starting at `now`, reusing the
    /// already-allocated phase/timing/queue buffers. Equivalent to
    /// [`PageLoad::new`] in every observable way.
    pub fn reset(&mut self, page: impl Into<Arc<WebPage>>, now: SimTime) {
        self.page = page.into();
        let n = self.page.object_count();
        self.start = now;
        self.phases.clear();
        self.phases.resize(n, Phase::Hidden);
        self.timings.clear();
        self.timings.resize(n, ObjectTiming::default());
        self.seqs.clear();
        self.seqs.resize(n, 0);
        self.domain_of.clear();
        self.domain_of.resize(n, 0);
        for q in &mut self.domains[..self.domain_count] {
            q.ready.clear();
        }
        self.domain_count = 0;
        self.ready_len = 0;
        self.next_seq = 0;
        self.eval_queue.clear();
        self.evaluating = None;
        self.onload = None;
        self.discover(ObjectId(0), now);
    }

    /// The page being loaded.
    pub fn page(&self) -> &WebPage {
        &self.page
    }

    /// Shared handle to the page being loaded.
    pub fn page_arc(&self) -> &Arc<WebPage> {
        &self.page
    }

    /// Load start instant.
    pub fn start_time(&self) -> SimTime {
        self.start
    }

    /// Objects currently requestable, in discovery order.
    pub fn ready_objects(&self) -> impl Iterator<Item = ObjectId> + '_ {
        std::iter::successors(self.next_ready(None, false), |r| {
            self.next_ready(Some(r.seq), false)
        })
        .map(|r| r.id)
    }

    /// Number of requestable objects.
    pub fn ready_count(&self) -> usize {
        self.ready_len
    }

    /// The first ready object, in discovery order, discovered after
    /// sequence number `after` (from the start if `None`) on an awake
    /// domain. Entries a fetcher skipped stay queued.
    pub fn next_awake_ready(&self, after: Option<u64>) -> Option<ReadyObject> {
        self.next_ready(after, true)
    }

    fn next_ready(&self, after: Option<u64>, awake_only: bool) -> Option<ReadyObject> {
        let mut best: Option<ReadyObject> = None;
        for (domain, q) in self.domains[..self.domain_count].iter().enumerate() {
            if awake_only && !q.awake {
                continue;
            }
            let Some(&(front, _)) = q.ready.front() else {
                continue;
            };
            let i = match after {
                Some(a) if front <= a => q.ready.partition_point(|&(s, _)| s <= a),
                _ => 0,
            };
            if let Some(&(seq, id)) = q.ready.get(i) {
                if best.is_none_or(|b| seq < b.seq) {
                    best = Some(ReadyObject { seq, id, domain });
                }
            }
        }
        best
    }

    /// True when some awake domain has a ready object.
    pub fn has_awake_ready(&self) -> bool {
        self.domains[..self.domain_count]
            .iter()
            .any(|q| q.awake && !q.ready.is_empty())
    }

    /// Whether page-local domain `domain` is awake.
    pub fn is_awake(&self, domain: usize) -> bool {
        self.domains[domain].awake
    }

    /// The fetcher found `domain` blocked: skip it until it is woken.
    pub fn sleep_domain(&mut self, domain: usize) {
        self.domains[domain].awake = false;
    }

    /// Capacity for the domain named `name` changed: wake it (no-op if
    /// this page has no object there).
    pub fn wake_domain(&mut self, name: &str) {
        let page = &self.page;
        if let Some(q) = self.domains[..self.domain_count]
            .iter_mut()
            .find(|q| page.objects[q.rep.0 as usize].domain == name)
        {
            q.awake = true;
        }
    }

    /// Capacity changed for every domain: wake them all.
    pub fn wake_all(&mut self) {
        for q in &mut self.domains[..self.domain_count] {
            q.awake = true;
        }
    }

    /// Ready objects on page-local domain `domain`.
    pub fn ready_in(&self, domain: usize) -> usize {
        self.domains[domain].ready.len()
    }

    /// Number of distinct domains among the objects discovered so far.
    pub fn domain_count(&self) -> usize {
        self.domain_count
    }

    /// Name of page-local domain `domain`.
    pub fn domain_name(&self, domain: usize) -> &str {
        &self.page.objects[self.domains[domain].rep.0 as usize].domain
    }

    /// Phase of an object.
    pub fn phase(&self, id: ObjectId) -> Phase {
        self.phases[id.0 as usize]
    }

    /// Reserve a ready object for a fetcher without issuing its request
    /// yet (e.g. while a fresh connection completes its handshake). The
    /// object leaves the ready queue but stays in phase `Ready` so
    /// [`PageLoad::note_requested`] still applies when the request goes
    /// out.
    pub fn take_ready(&mut self, id: ObjectId) {
        let i = id.0 as usize;
        let q = &mut self.domains[self.domain_of[i] as usize].ready;
        if let Ok(pos) = q.binary_search_by_key(&self.seqs[i], |&(s, _)| s) {
            q.remove(pos);
            self.ready_len -= 1;
        }
    }

    /// The driver issued the request for `id` at `now` (after any pool
    /// wait / handshake). Also records the send completion at the same
    /// instant unless [`PageLoad::note_sent`] refines it.
    pub fn note_requested(&mut self, id: ObjectId, now: SimTime) {
        let i = id.0 as usize;
        debug_assert_eq!(
            self.phases[i],
            Phase::Ready,
            "request of non-ready object {id:?}"
        );
        self.phases[i] = Phase::InFlight;
        self.take_ready(id);
        self.timings[i].requested = Some(now);
        self.timings[i].sent = Some(now);
    }

    /// Refine the instant the request was fully written to the transport.
    pub fn note_sent(&mut self, id: ObjectId, now: SimTime) {
        self.timings[id.0 as usize].sent = Some(now);
    }

    /// First response byte for `id` arrived.
    pub fn note_first_byte(&mut self, id: ObjectId, now: SimTime) {
        let t = &mut self.timings[id.0 as usize];
        if t.first_byte.is_none() {
            t.first_byte = Some(now);
        }
    }

    /// The object fully downloaded at `now`. Evaluated kinds enter the
    /// (sequential) evaluation queue; others are immediately done.
    pub fn note_complete(&mut self, id: ObjectId, now: SimTime) {
        let i = id.0 as usize;
        if self.phases[i] != Phase::InFlight {
            return; // duplicate completion
        }
        self.timings[i].complete = Some(now);
        if self.timings[i].first_byte.is_none() {
            self.timings[i].first_byte = Some(now);
        }
        if self.page.objects[i].kind.is_evaluated() {
            self.phases[i] = Phase::Downloaded;
            self.eval_queue.push_back(id);
            self.maybe_start_eval(now);
        } else {
            self.phases[i] = Phase::Done;
            self.maybe_onload(now);
        }
    }

    /// The next instant the evaluator needs a callback, if any.
    pub fn next_timer(&self) -> Option<SimTime> {
        self.evaluating.map(|(_, finish)| finish)
    }

    /// Run the evaluator up to `now`. Returns objects newly discovered by
    /// completed evaluations.
    pub fn on_timer(&mut self, now: SimTime) -> Vec<ObjectId> {
        let mut discovered = Vec::new();
        while let Some((id, finish)) = self.evaluating {
            if finish > now {
                break;
            }
            self.evaluating = None;
            self.phases[id.0 as usize] = Phase::Done;
            // Cheap handle clone so the child walk can run while
            // `discover` mutates the bookkeeping (no per-call id Vec).
            let page = Arc::clone(&self.page);
            for child in page.children_iter(id) {
                if self.phases[child.0 as usize] == Phase::Hidden {
                    self.discover(child, finish);
                    discovered.push(child);
                }
            }
            self.maybe_start_eval(finish);
            self.maybe_onload(finish);
        }
        discovered
    }

    /// True once every object is done and the evaluator is idle.
    pub fn is_complete(&self) -> bool {
        self.onload.is_some()
    }

    /// The onLoad instant, once fired.
    pub fn onload_time(&self) -> Option<SimTime> {
        self.onload
    }

    /// Page load time (onLoad − start), once complete.
    pub fn page_load_time(&self) -> Option<SimDuration> {
        Some(self.onload?.saturating_since(self.start))
    }

    /// Per-object timing records (index = object id).
    pub fn timings(&self) -> &[ObjectTiming] {
        &self.timings
    }

    /// Objects still not `Done` (diagnostics for stalled loads).
    pub fn unfinished(&self) -> Vec<ObjectId> {
        self.phases
            .iter()
            .enumerate()
            .filter(|(_, &p)| p != Phase::Done)
            .map(|(i, _)| ObjectId(i as u32))
            .collect()
    }

    fn discover(&mut self, id: ObjectId, now: SimTime) {
        let i = id.0 as usize;
        self.phases[i] = Phase::Ready;
        self.timings[i].discovered = Some(now);
        let name = &self.page.objects[i].domain;
        let page = &self.page;
        let found = self.domains[..self.domain_count]
            .iter()
            .position(|q| page.objects[q.rep.0 as usize].domain == *name);
        let d = found.unwrap_or_else(|| {
            let d = self.domain_count;
            if d == self.domains.len() {
                self.domains.push(DomainQueue {
                    rep: id,
                    ready: VecDeque::new(),
                    awake: true,
                });
            }
            self.domains[d].rep = id;
            self.domain_count += 1;
            d
        });
        let seq = self.next_seq;
        self.next_seq += 1;
        self.seqs[i] = seq;
        self.domain_of[i] = d as u32;
        let q = &mut self.domains[d];
        q.ready.push_back((seq, id));
        q.awake = true;
        self.ready_len += 1;
    }

    fn maybe_start_eval(&mut self, now: SimTime) {
        if self.evaluating.is_none() {
            if let Some(id) = self.eval_queue.pop_front() {
                let eval = self.page.objects[id.0 as usize].eval_time;
                self.evaluating = Some((id, now + eval));
            }
        }
    }

    fn maybe_onload(&mut self, now: SimTime) {
        if self.onload.is_some() {
            return;
        }
        let all_done = self.phases.iter().all(|&p| p == Phase::Done);
        if all_done && self.evaluating.is_none() && self.eval_queue.is_empty() {
            self.onload = Some(now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spdyier_sim::DetRng;
    use spdyier_workload::{synthesize, test_page, ObjectKind, SiteSpec};

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    /// Drive a load to completion with a fixed per-object fetch latency.
    fn drive(mut load: PageLoad, fetch_ms: u64) -> PageLoad {
        let mut now = load.start_time();
        let mut guard = 0;
        while !load.is_complete() {
            guard += 1;
            assert!(
                guard < 100_000,
                "load stuck; unfinished: {:?}",
                load.unfinished()
            );
            let ready: Vec<ObjectId> = load.ready_objects().collect();
            for id in ready {
                load.note_requested(id, now);
                load.note_first_byte(id, now + SimDuration::from_millis(fetch_ms / 2));
                load.note_complete(id, now + SimDuration::from_millis(fetch_ms));
            }
            now = match load.next_timer() {
                Some(timer) => timer.max(now + SimDuration::from_millis(fetch_ms)),
                None => now + SimDuration::from_millis(fetch_ms),
            };
            load.on_timer(now);
        }
        load
    }

    #[test]
    fn root_is_immediately_ready() {
        let page = test_page(5, 1000, true);
        let load = PageLoad::new(page, t(0));
        let ready: Vec<ObjectId> = load.ready_objects().collect();
        assert_eq!(ready, vec![ObjectId(0)]);
        assert_eq!(load.phase(ObjectId(0)), Phase::Ready);
        assert_eq!(load.phase(ObjectId(1)), Phase::Hidden);
    }

    #[test]
    fn images_appear_after_root_evaluation() {
        let page = test_page(3, 1000, true);
        let mut load = PageLoad::new(page, t(0));
        load.note_requested(ObjectId(0), t(10));
        load.note_first_byte(ObjectId(0), t(100));
        load.note_complete(ObjectId(0), t(150));
        // Root parse takes 20 ms → children hidden until t=170.
        assert_eq!(load.ready_count(), 0);
        let timer = load.next_timer().expect("evaluator running");
        assert_eq!(timer, t(170));
        let discovered = load.on_timer(timer);
        assert_eq!(discovered.len(), 3);
        assert_eq!(load.ready_count(), 3);
    }

    #[test]
    fn full_load_of_test_page() {
        let page = test_page(10, 1000, true);
        let load = drive(PageLoad::new(page, t(0)), 100);
        assert!(load.is_complete());
        let plt = load.page_load_time().unwrap();
        // Root fetch (100) + parse (20) + images fetch (100) ≈ 220 ms.
        assert!(plt >= SimDuration::from_millis(200));
        assert!(plt < SimDuration::from_millis(400), "plt {plt}");
    }

    #[test]
    fn evaluation_is_sequential() {
        // Two scripts completing together evaluate one after the other.
        let spec = SiteSpec::by_index(14).unwrap(); // 94 JS/CSS objects
        let page = synthesize(spec, &mut DetRng::new(2));
        let scripts: Vec<ObjectId> = page
            .objects
            .iter()
            .filter(|o| o.kind == ObjectKind::Script && o.discovered_by == Some(ObjectId(0)))
            .map(|o| o.id)
            .take(2)
            .collect();
        assert!(scripts.len() == 2, "need two root-level scripts");
        let mut load = PageLoad::new(page.clone(), t(0));
        load.note_requested(ObjectId(0), t(0));
        load.note_complete(ObjectId(0), t(10));
        let root_done = load.next_timer().unwrap();
        load.on_timer(root_done);
        // Request and complete both scripts at the same instant.
        for &s in &scripts {
            load.note_requested(s, root_done);
        }
        for &s in &scripts {
            load.note_complete(s, root_done + SimDuration::from_millis(50));
        }
        let first_finish = load.next_timer().unwrap();
        load.on_timer(first_finish);
        let second_finish = load.next_timer().unwrap();
        assert!(
            second_finish > first_finish,
            "second script waits for the evaluator"
        );
    }

    #[test]
    fn stepped_discovery_on_synthesized_site() {
        // Deep pages discover objects in waves, not all at once (Fig. 6).
        let spec = SiteSpec::by_index(7).unwrap();
        let page = synthesize(spec, &mut DetRng::new(3));
        let mut load = PageLoad::new(page, t(0));
        load.note_requested(ObjectId(0), t(0));
        load.note_complete(ObjectId(0), t(100));
        let timer = load.next_timer().unwrap();
        let wave1 = load.on_timer(timer).len();
        let total = load.page().object_count();
        assert!(wave1 > 0);
        assert!(
            wave1 < total - 1,
            "not everything discovered at once: {wave1} of {total}"
        );
    }

    #[test]
    fn full_load_of_all_table1_sites() {
        for idx in 1..=20u32 {
            let spec = SiteSpec::by_index(idx).unwrap();
            let page = synthesize(spec, &mut DetRng::new(u64::from(idx)));
            let load = drive(PageLoad::new(page, t(0)), 50);
            assert!(load.is_complete(), "site {idx} completed");
            assert!(load.timings().iter().all(|t| t.complete.is_some()));
        }
    }

    #[test]
    fn timings_capture_all_boundaries() {
        let page = test_page(2, 500, true);
        let load = drive(PageLoad::new(page, t(0)), 80);
        for timing in load.timings() {
            assert!(timing.discovered.is_some());
            assert!(timing.requested.is_some());
            assert!(timing.first_byte.is_some());
            assert!(timing.complete.is_some());
            assert!(timing.init_time().is_some());
        }
    }

    #[test]
    fn duplicate_completion_is_ignored() {
        let page = test_page(1, 500, true);
        let mut load = PageLoad::new(page, t(0));
        load.note_requested(ObjectId(0), t(0));
        load.note_complete(ObjectId(0), t(10));
        load.note_complete(ObjectId(0), t(20)); // duplicate
        assert_eq!(load.timings()[0].complete, Some(t(10)));
    }

    #[test]
    fn reset_reuses_buffers_and_matches_fresh_load() {
        // A load recycled with `reset` must behave identically to a
        // freshly constructed one on a different page.
        let first = synthesize(SiteSpec::by_index(3).unwrap(), &mut DetRng::new(7));
        let second = synthesize(SiteSpec::by_index(9).unwrap(), &mut DetRng::new(8));
        let mut recycled = drive(PageLoad::new(first, t(0)), 60);
        assert!(recycled.is_complete());
        recycled.reset(second.clone(), t(5));
        let recycled = drive(recycled, 60);
        let fresh = drive(PageLoad::new(second, t(5)), 60);
        assert_eq!(recycled.start_time(), fresh.start_time());
        assert_eq!(recycled.onload_time(), fresh.onload_time());
        assert_eq!(recycled.timings(), fresh.timings());
    }

    #[test]
    fn onload_waits_for_final_evaluation() {
        let page = test_page(0, 500, true); // just the root
        let mut load = PageLoad::new(page, t(0));
        load.note_requested(ObjectId(0), t(0));
        load.note_complete(ObjectId(0), t(10));
        assert!(!load.is_complete(), "parse still pending");
        load.on_timer(t(30));
        assert!(load.is_complete());
        assert_eq!(load.onload_time(), Some(t(30)));
    }

    /// The single discovery-order queue the per-domain queues replace.
    struct Reference(VecDeque<ObjectId>);

    impl Reference {
        fn remove(&mut self, id: ObjectId) {
            self.0.retain(|&r| r != id);
        }
    }

    /// Drive `load` while taking ready objects out of discovery order,
    /// checking the merged queues against the single reference queue
    /// after every step.
    fn drive_against_reference(mut load: PageLoad, fetch_ms: u64) -> PageLoad {
        let mut reference = Reference(load.ready_objects().collect());
        assert_eq!(reference.0, [ObjectId(0)]);
        let mut now = load.start_time();
        let mut step = 0usize;
        while !load.is_complete() {
            step += 1;
            assert!(step < 100_000, "load stuck");
            let ready: Vec<ObjectId> = load.ready_objects().collect();
            assert_eq!(ready, Vec::from(reference.0.clone()), "step {step}");
            assert_eq!(load.ready_count(), ready.len());
            // Reserve every other object (as a fetcher waiting for a
            // handshake would), request the rest directly.
            for (k, &id) in ready.iter().enumerate().rev() {
                if (k + step).is_multiple_of(2) {
                    load.take_ready(id);
                    reference.remove(id);
                    assert!(load.ready_objects().eq(reference.0.iter().copied()));
                }
                load.note_requested(id, now);
                reference.remove(id);
                assert!(load.ready_objects().eq(reference.0.iter().copied()));
                load.note_complete(id, now + SimDuration::from_millis(fetch_ms));
            }
            now = match load.next_timer() {
                Some(timer) => timer.max(now + SimDuration::from_millis(fetch_ms)),
                None => now + SimDuration::from_millis(fetch_ms),
            };
            reference.0.extend(load.on_timer(now));
        }
        assert_eq!(load.ready_count(), 0);
        load
    }

    #[test]
    fn per_domain_queues_merge_to_discovery_order() {
        let multi = synthesize(SiteSpec::by_index(12).unwrap(), &mut DetRng::new(4));
        assert!(multi.domains().len() > 3, "needs a multi-domain page");
        let mut load = drive_against_reference(PageLoad::new(multi, t(0)), 40);
        for idx in [3u32, 20, 7] {
            let page = synthesize(SiteSpec::by_index(idx).unwrap(), &mut DetRng::new(9));
            load.reset(page, t(1_000));
            load = drive_against_reference(load, 40);
        }
    }

    #[test]
    fn awake_iteration_skips_sleeping_domains() {
        let page = synthesize(SiteSpec::by_index(12).unwrap(), &mut DetRng::new(4));
        let mut load = PageLoad::new(page, t(0));
        load.note_requested(ObjectId(0), t(0));
        load.note_complete(ObjectId(0), t(10));
        let parse = load.next_timer().unwrap();
        load.on_timer(parse);
        let all: Vec<ObjectId> = load.ready_objects().collect();
        let first = load.next_awake_ready(None).unwrap();
        assert_eq!(first.id, all[0]);
        load.sleep_domain(first.domain);
        let awake: Vec<ObjectId> = std::iter::successors(load.next_awake_ready(None), |r| {
            load.next_awake_ready(Some(r.seq))
        })
        .map(|r| r.id)
        .collect();
        let expected: Vec<ObjectId> = all
            .iter()
            .copied()
            .filter(|&id| load.page().object(id).domain != load.domain_name(first.domain))
            .collect();
        assert_eq!(awake, expected);
        assert_eq!(
            load.ready_count(),
            all.len(),
            "sleeping keeps objects queued"
        );
        let name = load.domain_name(first.domain).to_string();
        load.wake_domain(&name);
        assert_eq!(load.next_awake_ready(None), Some(first));
    }

    /// Buffer capacities a load holds: the domain-queue table and every
    /// queue in it.
    fn footprint(load: &PageLoad) -> (usize, Vec<usize>) {
        (
            load.domains.capacity(),
            load.domains.iter().map(|q| q.ready.capacity()).collect(),
        )
    }

    #[test]
    fn reset_reuses_queue_buffers() {
        let page = synthesize(SiteSpec::by_index(12).unwrap(), &mut DetRng::new(4));
        let small = test_page(4, 500, true);
        let mut load = drive(PageLoad::new(page.clone(), t(0)), 60);
        let mut warm = None;
        for visit in 1..6u64 {
            // A smaller page in between must not shed the buffers.
            load.reset(small.clone(), t(visit * 1_000));
            load = drive(load, 60);
            load.reset(page.clone(), t(visit * 1_000 + 500));
            load = drive(load, 60);
            let warm = warm.get_or_insert_with(|| footprint(&load));
            assert_eq!(&footprint(&load), warm, "visit {visit}");
        }
    }
}
