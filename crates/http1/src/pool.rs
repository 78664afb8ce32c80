//! The browser's HTTP connection-pool policy.
//!
//! Chrome 23 — the paper's client — opens up to **6 parallel persistent
//! connections per domain** with a cap of **32 across all domains**; a
//! request waits when its domain is saturated. This module is the pure
//! bookkeeping: which connection serves which domain, which are idle, and
//! when a new one may be opened.

use serde::Serialize;

/// Pool limits (Chrome defaults from the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct PoolConfig {
    /// Maximum concurrent connections per domain.
    pub per_domain: usize,
    /// Maximum concurrent connections across all domains.
    pub total: usize,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            per_domain: 6,
            total: 32,
        }
    }
}

/// Pool-assigned connection identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct PoolConnId(pub u64);

/// The outcome of asking for a connection slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Acquire {
    /// Reuse this idle persistent connection (now marked busy).
    Reuse(PoolConnId),
    /// Open a new connection with this id (now counted and busy).
    Open(PoolConnId),
    /// Domain and/or global limits are saturated; try again on release.
    Blocked,
    /// A new connection is within limits but the caller may not open one
    /// now (Chrome's connection-attempt throttle); no id is used up.
    Throttled,
}

#[derive(Debug)]
struct ConnInfo {
    /// Index into [`ConnectionPool::domains`].
    domain_ix: u32,
    busy: bool,
    /// Monotone counter value at last use (for LRU eviction).
    last_used: u64,
}

/// A capacity change the pool raised since the last
/// [`ConnectionPool::drain_wakes`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wake<'a> {
    /// Capacity changed for every domain.
    All,
    /// Capacity changed for this domain only.
    Domain(&'a str),
}

/// Connection pool bookkeeping.
///
/// Storage is a flat `Vec` rather than a map: the pool holds at most
/// [`PoolConfig::total`] (32) entries, so a cache-friendly linear scan
/// beats hashing. Selection by `last_used` is order-independent because
/// the use counter is strictly monotone (no ties), so scan order cannot
/// change which connection is reused or evicted.
///
/// The pool also raises *wakes*: a request that `acquire` refused can
/// only succeed after one of them, so the browser retries a domain only
/// when it was woken. A release wakes its domain (an idle connection to
/// reuse); a removal or eviction wakes every domain (global room); and
/// reaching the global cap with an idle connection, or releasing one at
/// the cap, wakes every domain (any domain may now evict it).
#[derive(Debug)]
pub struct ConnectionPool {
    cfg: PoolConfig,
    conns: Vec<(PoolConnId, ConnInfo)>,
    /// Interned domain names. Connections store an index so acquiring
    /// never copies the domain string; the workload only has a handful
    /// of distinct domains, so the linear intern scan is cheap.
    domains: Vec<String>,
    /// Open-connection count per interned domain (index-aligned with
    /// `domains`), maintained on insert/remove so `acquire` need not
    /// rescan.
    domain_counts: Vec<usize>,
    next_id: u64,
    use_counter: u64,
    /// Domains woken since the last drain (interned indices).
    woken: Vec<u32>,
    /// Every domain woken since the last drain.
    woken_all: bool,
}

impl ConnectionPool {
    /// An empty pool.
    pub fn new(cfg: PoolConfig) -> ConnectionPool {
        ConnectionPool {
            cfg,
            conns: Vec::new(),
            domains: Vec::new(),
            domain_counts: Vec::new(),
            next_id: 0,
            use_counter: 0,
            woken: Vec::new(),
            woken_all: false,
        }
    }

    fn intern(&mut self, domain: &str) -> u32 {
        match self.domains.iter().position(|d| d == domain) {
            Some(i) => i as u32,
            None => {
                self.domains.push(domain.to_owned());
                self.domain_counts.push(0);
                (self.domains.len() - 1) as u32
            }
        }
    }

    /// Ask for a slot to `domain`. Prefers an idle persistent connection;
    /// opens a new one within limits if `may_open` (else reports
    /// `Throttled`); otherwise reports `Blocked` (the caller may
    /// [`ConnectionPool::evict_idle`] to make room globally).
    pub fn acquire(&mut self, domain: &str, may_open: bool) -> Acquire {
        self.use_counter += 1;
        let ix = self.intern(domain);
        // Reuse the most-recently-used idle connection to this domain
        // (warm cwnd beats cold).
        let mut best = None;
        let mut best_used = 0;
        for (i, (_, c)) in self.conns.iter().enumerate() {
            if c.domain_ix == ix && !c.busy && (best.is_none() || c.last_used > best_used) {
                best = Some(i);
                best_used = c.last_used;
            }
        }
        if let Some(i) = best {
            let (id, info) = &mut self.conns[i];
            info.busy = true;
            info.last_used = self.use_counter;
            return Acquire::Reuse(*id);
        }
        if self.domain_counts[ix as usize] >= self.cfg.per_domain
            || self.conns.len() >= self.cfg.total
        {
            return Acquire::Blocked;
        }
        if !may_open {
            return Acquire::Throttled;
        }
        let id = PoolConnId(self.next_id);
        self.next_id += 1;
        self.domain_counts[ix as usize] += 1;
        self.conns.push((
            id,
            ConnInfo {
                domain_ix: ix,
                busy: true,
                last_used: self.use_counter,
            },
        ));
        if self.at_global_cap() && self.conns.iter().any(|(_, c)| !c.busy) {
            self.woken_all = true;
        }
        Acquire::Open(id)
    }

    /// A request on `id` completed; the connection is idle and reusable.
    pub fn release(&mut self, id: PoolConnId) {
        if let Some((_, c)) = self.conns.iter_mut().find(|(cid, _)| *cid == id) {
            c.busy = false;
            self.woken.push(c.domain_ix);
            if self.conns.len() >= self.cfg.total {
                self.woken_all = true;
            }
        }
    }

    /// Capacity on `id` changed outside the pool's own bookkeeping (a
    /// pipelined request finished, freeing a slot): wake its domain.
    pub fn wake(&mut self, id: PoolConnId) {
        if let Some((_, c)) = self.conns.iter().find(|(cid, _)| *cid == id) {
            self.woken.push(c.domain_ix);
        }
    }

    /// Wake every domain (capacity outside the pool changed, e.g. a
    /// connection attempt finished while attempts were throttled).
    pub fn wake_all(&mut self) {
        self.woken_all = true;
    }

    /// Report and clear the wakes raised since the last drain: `All`
    /// alone if every domain was woken, else each woken domain (possibly
    /// repeated).
    pub fn drain_wakes(&mut self, mut on_wake: impl FnMut(Wake<'_>)) {
        if std::mem::take(&mut self.woken_all) {
            on_wake(Wake::All);
        } else {
            for &ix in &self.woken {
                on_wake(Wake::Domain(&self.domains[ix as usize]));
            }
        }
        self.woken.clear();
    }

    /// The connection was closed (by either side); forget it.
    pub fn remove(&mut self, id: PoolConnId) {
        if let Some(i) = self.conns.iter().position(|(cid, _)| *cid == id) {
            let (_, c) = self.conns.remove(i);
            self.domain_counts[c.domain_ix as usize] -= 1;
            self.woken_all = true;
        }
    }

    /// Least-recently-used idle connection across all domains, for
    /// eviction when the global cap blocks a new domain.
    pub fn evict_idle(&mut self) -> Option<PoolConnId> {
        let mut best = None;
        let mut best_used = u64::MAX;
        for (i, (_, c)) in self.conns.iter().enumerate() {
            if !c.busy && c.last_used < best_used {
                best = Some(i);
                best_used = c.last_used;
            }
        }
        let i = best?;
        let (id, c) = self.conns.remove(i);
        self.domain_counts[c.domain_ix as usize] -= 1;
        self.woken_all = true;
        Some(id)
    }

    /// The pool's limits.
    pub fn config(&self) -> PoolConfig {
        self.cfg
    }

    /// True when the global cap is reached.
    pub fn at_global_cap(&self) -> bool {
        self.conns.len() >= self.cfg.total
    }

    /// Open + busy connections to `domain`.
    pub fn count_for_domain(&self, domain: &str) -> usize {
        match self.domains.iter().position(|d| d == domain) {
            Some(ix) => self.domain_counts[ix],
            None => 0,
        }
    }

    /// All connections currently open.
    pub fn total(&self) -> usize {
        self.conns.len()
    }

    /// Busy connections currently serving requests.
    pub fn busy(&self) -> usize {
        self.conns.iter().filter(|(_, c)| c.busy).count()
    }

    /// True when some connection to `domain` is idle (reusable).
    pub fn has_idle(&self, domain: &str) -> bool {
        self.domains
            .iter()
            .position(|d| d == domain)
            .is_some_and(|ix| {
                self.conns
                    .iter()
                    .any(|(_, c)| c.domain_ix == ix as u32 && !c.busy)
            })
    }

    /// The domain a connection serves.
    pub fn domain_of(&self, id: PoolConnId) -> Option<&str> {
        self.conns
            .iter()
            .find(|(cid, _)| *cid == id)
            .map(|(_, c)| self.domains[c.domain_ix as usize].as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> ConnectionPool {
        ConnectionPool::new(PoolConfig::default())
    }

    #[test]
    fn opens_up_to_six_per_domain() {
        let mut p = pool();
        for i in 0..6 {
            match p.acquire("a.com", true) {
                Acquire::Open(id) => assert_eq!(id.0, i),
                other => panic!("expected Open, got {other:?}"),
            }
        }
        assert_eq!(p.acquire("a.com", true), Acquire::Blocked);
        assert_eq!(p.count_for_domain("a.com"), 6);
    }

    #[test]
    fn release_enables_reuse() {
        let mut p = pool();
        let id = match p.acquire("a.com", true) {
            Acquire::Open(id) => id,
            _ => unreachable!(),
        };
        p.release(id);
        assert_eq!(p.acquire("a.com", true), Acquire::Reuse(id));
    }

    #[test]
    fn global_cap_of_32() {
        let mut p = pool();
        // 6 domains × 5 connections = 30, then 2 more on a 7th domain.
        for d in 0..6 {
            for _ in 0..5 {
                assert!(matches!(
                    p.acquire(&format!("d{d}.com"), true),
                    Acquire::Open(_)
                ));
            }
        }
        assert!(matches!(p.acquire("late.com", true), Acquire::Open(_)));
        assert!(matches!(p.acquire("late.com", true), Acquire::Open(_)));
        assert_eq!(p.total(), 32);
        assert!(p.at_global_cap());
        assert_eq!(p.acquire("another.com", true), Acquire::Blocked);
    }

    #[test]
    fn eviction_frees_global_capacity() {
        let mut p = pool();
        let mut first = None;
        for d in 0..32 {
            match p.acquire(&format!("d{d}.com"), true) {
                Acquire::Open(id) => {
                    if first.is_none() {
                        first = Some(id);
                    }
                }
                _ => unreachable!(),
            }
        }
        assert_eq!(p.acquire("x.com", true), Acquire::Blocked);
        // Nothing idle yet → no eviction possible.
        assert_eq!(p.evict_idle(), None);
        p.release(first.unwrap());
        assert_eq!(p.evict_idle(), Some(first.unwrap()));
        assert!(matches!(p.acquire("x.com", true), Acquire::Open(_)));
    }

    #[test]
    fn removal_forgets_connection() {
        let mut p = pool();
        let id = match p.acquire("a.com", true) {
            Acquire::Open(id) => id,
            _ => unreachable!(),
        };
        p.remove(id);
        assert_eq!(p.total(), 0);
        assert!(matches!(p.acquire("a.com", true), Acquire::Open(_)));
    }

    #[test]
    fn reuse_prefers_most_recently_used() {
        let mut p = pool();
        let a = match p.acquire("a.com", true) {
            Acquire::Open(id) => id,
            _ => unreachable!(),
        };
        let b = match p.acquire("a.com", true) {
            Acquire::Open(id) => id,
            _ => unreachable!(),
        };
        p.release(a);
        p.release(b); // b used more recently
        assert_eq!(p.acquire("a.com", true), Acquire::Reuse(b));
    }

    #[test]
    fn domains_do_not_interfere_below_cap() {
        let mut p = pool();
        for _ in 0..6 {
            p.acquire("a.com", true);
        }
        assert!(matches!(p.acquire("b.com", true), Acquire::Open(_)));
    }

    #[test]
    fn domain_of_reports() {
        let mut p = pool();
        let id = match p.acquire("a.com", true) {
            Acquire::Open(id) => id,
            _ => unreachable!(),
        };
        assert_eq!(p.domain_of(id), Some("a.com"));
        assert_eq!(p.busy(), 1);
    }

    #[test]
    fn throttled_attempts_use_no_ids() {
        let mut p = pool();
        assert_eq!(p.acquire("a.com", false), Acquire::Throttled);
        assert_eq!(p.acquire("a.com", false), Acquire::Throttled);
        assert_eq!(p.total(), 0);
        // Ids count real connections only.
        assert_eq!(p.acquire("a.com", true), Acquire::Open(PoolConnId(0)));
        // Reuse does not need permission to open.
        p.release(PoolConnId(0));
        assert_eq!(p.acquire("a.com", false), Acquire::Reuse(PoolConnId(0)));
    }

    fn drained(p: &mut ConnectionPool) -> Vec<String> {
        let mut out = Vec::new();
        p.drain_wakes(|w| {
            out.push(match w {
                Wake::All => "*".to_string(),
                Wake::Domain(d) => d.to_string(),
            })
        });
        out
    }

    #[test]
    fn wakes_follow_capacity_changes() {
        let mut p = pool();
        let a = match p.acquire("a.com", true) {
            Acquire::Open(id) => id,
            _ => unreachable!(),
        };
        assert!(
            drained(&mut p).is_empty(),
            "opening below the cap wakes nobody"
        );
        p.release(a);
        assert_eq!(drained(&mut p), ["a.com"]);
        assert!(drained(&mut p).is_empty(), "draining clears");
        p.remove(a);
        assert_eq!(drained(&mut p), ["*"]);
        p.remove(a);
        assert!(
            drained(&mut p).is_empty(),
            "removing a stranger is no change"
        );
    }

    #[test]
    fn reaching_the_cap_with_an_idle_connection_wakes_all() {
        let mut p = pool();
        let mut first = None;
        for d in 0..31 {
            if let Acquire::Open(id) = p.acquire(&format!("d{d}.com"), true) {
                first.get_or_insert(id);
            }
        }
        p.release(first.unwrap());
        assert_eq!(drained(&mut p), ["d0.com"], "below the cap");
        assert!(matches!(p.acquire("x.com", true), Acquire::Open(_)));
        assert_eq!(drained(&mut p), ["*"], "at the cap, d0 may be evicted");
        assert_eq!(p.evict_idle(), first);
        assert_eq!(drained(&mut p), ["*"]);
    }
}
