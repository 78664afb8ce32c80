//! Header-block compression.
//!
//! Real SPDY/3 compresses name/value blocks with a zlib stream that stays
//! open for the whole session, primed with a protocol dictionary — so the
//! second request's headers compress against the first's. zlib itself is
//! out of scope for this workspace, so this module implements an
//! equivalent-in-spirit scheme from scratch: LZ77 over a **rolling shared
//! history window** primed with a static dictionary of common header text.
//! Compressor and decompressor evolve their windows in lockstep, giving the
//! same cross-request redundancy elimination the paper credits SPDY with.
//!
//! Token format (all integers LEB128 varints):
//! * `0x00, len, <len raw bytes>` — literal run;
//! * `0x01, dist, len` — copy `len` bytes from `dist` bytes back in the
//!   window (which includes previously processed blocks).

use bytes::{BufMut, Bytes, BytesMut};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;
use std::sync::OnceLock;

/// Static dictionary: common header names/values, as in the SPDY/3 spec's
/// compression dictionary (abbreviated but representative).
pub const STATIC_DICTIONARY: &[u8] = b"optionsgetheadpostputdeletetraceacceptaccept-charsetaccept-encodingaccept-languageaccept-rangesageallowauthorizationcache-controlconnectioncontent-basecontent-encodingcontent-languagecontent-lengthcontent-locationcontent-md5content-rangecontent-typedateetagexpectexpiresfromhostif-matchif-modified-sinceif-none-matchif-rangeif-unmodified-sincelast-modifiedlocationmax-forwardspragmaproxy-authenticateproxy-authorizationrangerefererretry-afterserverteuser-agent100101200201202203204205206300301302303304305306307400401402403404405406407408409410411412413414415416417500501502503504505accept-rangesageetaglocationproxy-authenticatepublicretry-afterservervarywarningwww-authenticateallowcontent-basecontent-encodingcache-controlconnectiondatetrailertransfer-encodingupgradeviawarningcontent-languagecontent-lengthcontent-locationcontent-md5content-rangecontent-typeetagexpireslast-modifiedset-cookieMondayTuesdayWednesdayThursdayFridaySaturdaySundayJanFebMarAprMayJunJulAugSepOctNovDecchunkedtext/htmlimage/pngimage/jpgimage/gifapplication/xmlapplication/xhtmltext/plainpublicmax-agecharset=iso-8859-1utf-8gzipdeflateHTTP/1.1statusversionurl:method:path:host:scheme:statushttphttps200 OKGET";

/// Maximum rolling-history bytes retained beyond the static dictionary.
const MAX_HISTORY: usize = 16 * 1024;
const MIN_MATCH: usize = 4;
const MAX_MATCH: usize = 1024;

fn put_varint(out: &mut BytesMut, mut v: u64) {
    loop {
        let b = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.put_u8(b);
            break;
        }
        out.put_u8(b | 0x80);
    }
}

/// Emit a literal-run token for `lit`, if it is not empty.
fn put_literal(out: &mut BytesMut, lit: &[u8]) {
    if !lit.is_empty() {
        out.put_u8(0x00);
        put_varint(out, lit.len() as u64);
        out.put_slice(lit);
    }
}

fn get_varint(data: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v: u64 = 0;
    let mut shift = 0;
    loop {
        let b = *data.get(*pos)?;
        *pos += 1;
        v |= u64::from(b & 0x7F) << shift;
        if b & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
        if shift > 63 {
            return None;
        }
    }
}

/// The shared rolling window, identical on both sides.
///
/// Each side appends a block to `buf` *before* working on it, so the
/// block's own earlier bytes and the window form one contiguous search
/// space, and calls [`Window::trim`] once the block is done.
#[derive(Debug, Clone)]
struct Window {
    /// Static dictionary followed by session history.
    buf: Vec<u8>,
}

impl Window {
    fn new() -> Window {
        Window {
            buf: STATIC_DICTIONARY.to_vec(),
        }
    }

    /// Drop the oldest history beyond [`MAX_HISTORY`] (the static
    /// dictionary stays intact); returns the number of bytes dropped.
    fn trim(&mut self) -> usize {
        let s_len = STATIC_DICTIONARY.len();
        let overflow = self.buf.len().saturating_sub(s_len + MAX_HISTORY);
        if overflow > 0 {
            self.buf.drain(s_len..s_len + overflow);
        }
        overflow
    }
}

/// Per-key candidate cap: a key offers at most this many positions,
/// oldest first (matching the original per-call index rebuild, which
/// stopped inserting once a slot was full).
const MAX_CANDIDATES: usize = 32;

/// The 4-gram starting at `at`, as a little-endian `u32` key.
fn gram(buf: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([buf[at], buf[at + 1], buf[at + 2], buf[at + 3]])
}

/// Hasher for gram keys: one multiply, with the high half folded into
/// the low half so both the table's bucket bits (low) and tag bits
/// (high) depend on all four bytes. Grams are not attacker-chosen, so
/// SipHash's flood resistance buys nothing here.
#[derive(Default)]
struct GramHasher(u64);

impl Hasher for GramHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u32(u32::from(b));
        }
    }

    fn write_u32(&mut self, key: u32) {
        let h = (self.0 ^ u64::from(key)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type GramMap<V> = HashMap<u32, V, BuildHasherDefault<GramHasher>>;

/// Positions of every 4-gram fully inside the static dictionary,
/// ascending, capped at [`MAX_CANDIDATES`] per key. The dictionary is a
/// constant, so this is computed once per process and shared.
fn static_index() -> &'static GramMap<Vec<u32>> {
    static INDEX: OnceLock<GramMap<Vec<u32>>> = OnceLock::new();
    INDEX.get_or_init(|| {
        let d = STATIC_DICTIONARY;
        let mut index = GramMap::<Vec<u32>>::default();
        for i in 0..=d.len() - MIN_MATCH {
            let slot = index.entry(gram(d, i)).or_default();
            if slot.len() < MAX_CANDIDATES {
                slot.push(i as u32);
            }
        }
        index
    })
}

/// Length of the common prefix of `a` and `b`.
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    let n = a.len().min(b.len());
    let mut i = 0;
    while i + 8 <= n {
        let x = u64::from_le_bytes(a[i..i + 8].try_into().expect("8 bytes"))
            ^ u64::from_le_bytes(b[i..i + 8].try_into().expect("8 bytes"));
        if x != 0 {
            return i + (x.trailing_zeros() / 8) as usize;
        }
        i += 8;
    }
    while i < n && a[i] == b[i] {
        i += 1;
    }
    i
}

/// One stream position's links to the previous and next positions of
/// the same gram, as distances (0: none).
#[derive(Debug, Clone, Copy, Default)]
struct Link {
    prev: u32,
    next: u32,
}

/// A gram's oldest and newest registered stream positions. `head` may
/// have fallen out of the window; it is moved up when the key is next
/// searched.
#[derive(Debug, Clone, Copy)]
struct Chain {
    head: u64,
    tail: u64,
}

/// Every history and input gram by stream position: per key a chain
/// from its oldest to its newest position, linked through a ring indexed
/// by stream position. A position's ring slot is reused once the stream
/// has moved a full ring length past it, so expired positions cost
/// nothing to free; only keys whose newest position expired are dropped,
/// by [`GramIndex::sweep`].
#[derive(Debug, Default)]
struct GramIndex {
    chains: GramMap<Chain>,
    /// Slot `s & (len - 1)` holds position `s`'s links; the length is a
    /// power of two no shorter than the live span.
    ring: Vec<Link>,
    /// One past the newest registered position.
    end: u64,
    /// Positions below this lost their slots when the ring last grew.
    valid_from: u64,
}

impl GramIndex {
    /// Make room for `span` live positions from `live_from`, carrying
    /// their links over when the ring grows.
    fn reserve(&mut self, live_from: u64, span: u64) {
        let len = span.next_power_of_two().max(1024) as usize;
        if len <= self.ring.len() {
            return;
        }
        let mut ring = vec![Link::default(); len];
        for s in live_from..self.end {
            ring[s as usize & (len - 1)] = self.ring[s as usize & (self.ring.len() - 1)];
        }
        self.ring = ring;
        self.valid_from = live_from;
    }

    /// Register position `s` (above every earlier one) under `key`; a
    /// chain whose newest position is below `live_from` starts afresh.
    fn push(&mut self, key: u32, s: u64, live_from: u64) {
        debug_assert!(s >= self.end, "positions register in stream order");
        self.end = s + 1;
        let mask = self.ring.len() - 1;
        let fresh = Chain { head: s, tail: s };
        let mut link = Link::default();
        match self.chains.entry(key) {
            Entry::Occupied(mut e) if e.get().tail >= live_from => {
                let chain = e.get_mut();
                let gap = u32::try_from(s - chain.tail).expect("live span fits in u32");
                self.ring[chain.tail as usize & mask].next = gap;
                link.prev = gap;
                chain.tail = s;
            }
            Entry::Occupied(mut e) => *e.get_mut() = fresh,
            Entry::Vacant(e) => {
                e.insert(fresh);
            }
        }
        self.ring[s as usize & mask] = link;
    }

    /// Append `key`'s positions from `live_from` on, oldest first and as
    /// window positions (stream position minus `drained`), to `out`
    /// while it holds fewer than [`MAX_CANDIDATES`], skipping `skip`.
    fn collect(
        &mut self,
        key: u32,
        live_from: u64,
        skip: &Range<u64>,
        drained: u64,
        out: &mut Vec<usize>,
    ) {
        let GramIndex {
            chains,
            ring,
            end,
            valid_from,
        } = self;
        let Some(chain) = chains.get_mut(&key) else {
            return;
        };
        if chain.tail < live_from {
            return;
        }
        let link = |s: u64| ring[s as usize & (ring.len() - 1)];
        let next = |s: u64| {
            let gap = link(s).next;
            debug_assert!(gap > 0, "chain broken before its tail at {s}");
            s + u64::from(gap)
        };
        if chain.head < live_from {
            // A slot is reused once the stream is a ring length past it.
            if chain.head >= *valid_from && chain.head + ring.len() as u64 >= *end {
                while chain.head < live_from {
                    chain.head = next(chain.head);
                }
            } else {
                // The expired prefix lost its slots: walk back from the
                // newest position instead (live slots are always intact).
                chain.head = chain.tail;
                loop {
                    let prev = u64::from(link(chain.head).prev);
                    if prev == 0 || chain.head - prev < live_from {
                        break;
                    }
                    chain.head -= prev;
                }
            }
        }
        let mut s = chain.head;
        while out.len() < MAX_CANDIDATES {
            if !skip.contains(&s) {
                out.push((s - drained) as usize);
            }
            if s == chain.tail {
                break;
            }
            s = next(s);
        }
    }

    /// Drop the keys whose newest position is below `live_from`.
    fn sweep(&mut self, live_from: u64) {
        self.chains.retain(|_, chain| chain.tail >= live_from);
    }
}

/// The compressing half of a session's header codec.
///
/// One gram index serves the whole stream: static-dictionary grams are
/// computed once per process, and every later gram is registered in a
/// [`GramIndex`] by *stream* position (stable as the window drains), in
/// stream order, as the compressor's cursor passes it. The three grams
/// spanning the static/history boundary — whose bytes change every time
/// the history head shifts — are recomputed per call. The candidate list
/// for a key is byte-for-byte the list the original per-call index
/// rebuild produced, so compressed output is unchanged (DESIGN.md, "SPDY
/// header compression").
#[derive(Debug)]
pub struct Compressor {
    window: Window,
    /// History bytes dropped from the window so far; stream position `s`
    /// of a retained history byte maps to window position `s - drained`.
    drained: u64,
    /// History and input grams.
    index: GramIndex,
    /// `drained` at the last sweep of `index`.
    pruned_at: u64,
    /// Reusable candidate-assembly buffer.
    scratch: Vec<usize>,
    stats_in: u64,
    stats_out: u64,
}

impl Default for Compressor {
    fn default() -> Self {
        Self::new()
    }
}

impl Compressor {
    /// A compressor primed with the static dictionary.
    pub fn new() -> Compressor {
        Compressor {
            window: Window::new(),
            drained: 0,
            index: GramIndex::default(),
            pruned_at: 0,
            scratch: Vec::new(),
            stats_in: 0,
            stats_out: 0,
        }
    }

    /// `(plaintext_bytes, compressed_bytes)` totals so far.
    pub fn ratio_counters(&self) -> (u64, u64) {
        (self.stats_in, self.stats_out)
    }

    /// Compress one header block, updating the shared window.
    pub fn compress(&mut self, input: &[u8]) -> Bytes {
        let s_len = STATIC_DICTIONARY.len();
        let base = self.window.buf.len();
        let drained = self.drained;
        let hist_start = s_len as u64 + drained; // stream pos of history head
        let stream_len = drained + base as u64; // stream pos of input[0]
        let Compressor {
            window,
            index,
            scratch,
            ..
        } = &mut *self;
        index.reserve(hist_start, stream_len + input.len() as u64 - hist_start);

        // Grams straddling the static/history boundary, over the window
        // as it stands before this input; their bytes change whenever
        // the history head moves, so they are not in the index.
        let mut boundary = [(0, 0); MIN_MATCH - 1];
        let mut boundary_len = 0;
        for i in (s_len - (MIN_MATCH - 1))..s_len {
            if i + MIN_MATCH <= base {
                boundary[boundary_len] = (gram(&window.buf, i), i);
                boundary_len += 1;
            }
        }

        // One search space: window ++ input.
        window.buf.extend_from_slice(input);
        let buf: &[u8] = &window.buf;
        let end = buf.len();

        // Grams spanning the window/input boundary belong to the history
        // the next call sees; register them now, in stream order, but
        // never offer them during this call.
        let skip = stream_len
            .saturating_sub(MIN_MATCH as u64 - 1)
            .max(s_len as u64)..stream_len;
        for s in skip.clone() {
            let p = (s - drained) as usize;
            if p + MIN_MATCH <= end {
                index.push(gram(buf, p), s, hist_start);
            }
        }

        let mut out = BytesMut::with_capacity(input.len() / 2 + 16);
        let gram_end = end.saturating_sub(MIN_MATCH - 1); // last gram start + 1
        let mut literal_start = base;
        let mut pos = base;
        while pos < end {
            let (mut src, mut len) = (0, 0);
            if pos < gram_end {
                // Candidates: static-interior positions, the boundary
                // grams, then history and passed input ascending — the
                // first MAX_CANDIDATES of them.
                let key = gram(buf, pos);
                let s = pos as u64 + drained;
                scratch.clear();
                if let Some(stat) = static_index().get(&key) {
                    scratch.extend(stat.iter().map(|&p| p as usize));
                }
                for &(k, i) in &boundary[..boundary_len] {
                    if k == key && scratch.len() < MAX_CANDIDATES {
                        scratch.push(i);
                    }
                }
                index.collect(key, hist_start, &skip, drained, scratch);
                index.push(key, s, hist_start);
                // Newest first; a later candidate must be strictly longer.
                for &cand in scratch.iter().rev() {
                    // The source must end before `pos`: no overlapping copies.
                    let limit = MAX_MATCH.min(end - pos).min(pos - cand);
                    if limit <= len || buf[cand + len] != buf[pos + len] {
                        continue;
                    }
                    let l = common_prefix(&buf[cand..cand + limit], &buf[pos..pos + limit]);
                    if l > len {
                        (src, len) = (cand, l);
                    }
                }
            }
            let next = if len >= MIN_MATCH {
                put_literal(&mut out, &buf[literal_start..pos]);
                out.put_u8(0x01);
                put_varint(&mut out, (pos - src) as u64);
                put_varint(&mut out, len as u64);
                literal_start = pos + len;
                pos + len
            } else {
                pos + 1
            };
            // The rest of a match becomes searchable too.
            for p in pos + 1..next.min(gram_end) {
                index.push(gram(buf, p), p as u64 + drained, hist_start);
            }
            pos = next;
        }
        put_literal(&mut out, &buf[literal_start..]);

        self.drained += self.window.trim() as u64;
        // Memory bound: whenever another full window's worth of history
        // has drained, drop the keys that left it.
        if self.drained - self.pruned_at >= MAX_HISTORY as u64 {
            self.index.sweep(s_len as u64 + self.drained);
            self.pruned_at = self.drained;
        }

        self.stats_in += input.len() as u64;
        self.stats_out += out.len() as u64;
        out.freeze()
    }
}

/// Error raised on a malformed compressed block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecompressError(pub String);

impl std::fmt::Display for DecompressError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "decompress error: {}", self.0)
    }
}

impl std::error::Error for DecompressError {}

/// The decompressing half; must see blocks in the order they were
/// compressed (like SPDY's session-long zlib stream).
#[derive(Debug)]
pub struct Decompressor {
    window: Window,
}

impl Default for Decompressor {
    fn default() -> Self {
        Self::new()
    }
}

/// Decode `data`, appending the plaintext to `buf` (the window), whose
/// whole contents are the match-source space.
fn decode_into(buf: &mut Vec<u8>, data: &[u8]) -> Result<(), DecompressError> {
    let mut pos = 0usize;
    while pos < data.len() {
        let tag = data[pos];
        pos += 1;
        match tag {
            0x00 => {
                let len = get_varint(data, &mut pos)
                    .ok_or_else(|| DecompressError("truncated literal len".into()))?;
                let body = usize::try_from(len)
                    .ok()
                    .and_then(|len| data.get(pos..pos.checked_add(len)?))
                    .ok_or_else(|| DecompressError("truncated literal body".into()))?;
                buf.extend_from_slice(body);
                pos += body.len();
            }
            0x01 => {
                let dist = get_varint(data, &mut pos)
                    .ok_or_else(|| DecompressError("truncated match dist".into()))?;
                let len = get_varint(data, &mut pos)
                    .ok_or_else(|| DecompressError("truncated match len".into()))?;
                if dist == 0 || dist > buf.len() as u64 || len > MAX_MATCH as u64 {
                    return Err(DecompressError(format!("bad match dist={dist} len={len}")));
                }
                let (dist, len) = (dist as usize, len as usize);
                let start = buf.len() - dist;
                if len <= dist {
                    buf.extend_from_within(start..start + len);
                } else {
                    // An overlapping match repeats its own output.
                    for i in start..start + len {
                        buf.push(buf[i]);
                    }
                }
            }
            other => return Err(DecompressError(format!("bad token {other}"))),
        }
    }
    Ok(())
}

impl Decompressor {
    /// A decompressor primed with the static dictionary.
    pub fn new() -> Decompressor {
        Decompressor {
            window: Window::new(),
        }
    }

    /// Decompress one block, updating the shared window. A rejected block
    /// leaves the window as it was.
    pub fn decompress(&mut self, data: &[u8]) -> Result<Bytes, DecompressError> {
        let base = self.window.buf.len();
        if let Err(e) = decode_into(&mut self.window.buf, data) {
            self.window.buf.truncate(base);
            return Err(e);
        }
        let plain = Bytes::copy_from_slice(&self.window.buf[base..]);
        self.window.trim();
        Ok(plain)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip(blocks: &[&[u8]]) {
        let mut c = Compressor::new();
        let mut d = Decompressor::new();
        for b in blocks {
            let comp = c.compress(b);
            let plain = d.decompress(&comp).expect("valid stream");
            assert_eq!(&plain[..], *b);
        }
    }

    #[test]
    fn roundtrip_simple() {
        roundtrip(&[b"hello world, hello world, hello world"]);
    }

    #[test]
    fn roundtrip_empty_and_tiny() {
        roundtrip(&[b"", b"a", b"ab", b"abc"]);
    }

    #[test]
    fn dictionary_helps_header_text() {
        let mut c = Compressor::new();
        let headers =
            b"accept-encoding: gzipdeflate\r\ncontent-type: text/html\r\nuser-agent: test\r\n";
        let comp = c.compress(headers);
        assert!(
            comp.len() < headers.len(),
            "dictionary text should compress: {} vs {}",
            comp.len(),
            headers.len()
        );
    }

    #[test]
    fn cross_block_history_compresses_repeats() {
        let mut c = Compressor::new();
        let block = b"x-custom-nonsense-header-zzqy: 1234567890abcdefgh\r\nanother-weird-one-qqq: value-value-value\r\n";
        let first = c.compress(block);
        let second = c.compress(block);
        assert!(
            second.len() < first.len() / 2,
            "second identical block must compress against history: {} vs {}",
            second.len(),
            first.len()
        );
        // And the decompressor tracks it.
        let mut d = Decompressor::new();
        assert_eq!(&d.decompress(&first).unwrap()[..], &block[..]);
        assert_eq!(&d.decompress(&second).unwrap()[..], &block[..]);
    }

    #[test]
    fn overlapping_match_roundtrip() {
        // "aaaa..." triggers overlapping copies.
        let data = vec![b'a'; 500];
        roundtrip(&[&data]);
    }

    #[test]
    fn incompressible_data_roundtrips() {
        // Pseudo-random bytes with no 4-gram repeats.
        let data: Vec<u8> = (0..1000u32)
            .map(|i| ((i.wrapping_mul(2654435761)) >> 13) as u8)
            .collect();
        roundtrip(&[&data]);
    }

    #[test]
    fn long_session_stays_in_sync_despite_window_cap() {
        let mut c = Compressor::new();
        let mut d = Decompressor::new();
        for i in 0..200 {
            let block = format!(
                "get /object/{i} http/1.1\r\nhost: site-{}.example\r\ncookie: session=abcdef{i}\r\n",
                i % 7
            );
            let comp = c.compress(block.as_bytes());
            let plain = d.decompress(&comp).expect("in sync");
            assert_eq!(&plain[..], block.as_bytes());
        }
        let (inb, outb) = c.ratio_counters();
        assert!(outb < inb / 2, "sustained compression: {outb}/{inb}");
    }

    #[test]
    fn corrupt_input_is_rejected_not_panicking() {
        let mut d = Decompressor::new();
        assert!(d.decompress(&[0x01, 0x00, 0x05]).is_err(), "zero distance");
        assert!(d.decompress(&[0x00, 0xFF]).is_err(), "truncated literal");
        assert!(d.decompress(&[0x07]).is_err(), "unknown token");
        // A literal length near u64::MAX must not overflow `pos + len`.
        let mut huge = vec![0x00];
        huge.extend([0xFF; 9]);
        huge.push(0x01);
        assert!(d.decompress(&huge).is_err(), "literal len u64::MAX");
        huge[1] = 0xFD;
        huge.extend([b'x'; 8]);
        assert!(d.decompress(&huge).is_err(), "literal len u64::MAX - 2");
        // Match lengths and distances near u64::MAX are refused too.
        let mut far = vec![0x01];
        far.extend([0xFF; 9]);
        far.extend([0x01, 0x04]);
        assert!(d.decompress(&far).is_err(), "match dist u64::MAX");
        // Rejected blocks leave the window untouched, even when they
        // decoded some plaintext before the bad token.
        assert!(d.decompress(&[0x00, 0x02, b'a', b'b', 0x07]).is_err());
        let mut c = Compressor::new();
        let block = b"accept-encoding: gzip, accept-encoding: gzip";
        assert_eq!(&d.decompress(&c.compress(block)).unwrap()[..], &block[..]);
    }

    /// The original clone-and-rebuild compressor, kept verbatim as an
    /// oracle: the incremental index must reproduce its output byte for
    /// byte (golden traces depend on exact wire bytes).
    struct ReferenceCompressor {
        window: Window,
    }

    impl ReferenceCompressor {
        fn new() -> ReferenceCompressor {
            ReferenceCompressor {
                window: Window::new(),
            }
        }

        fn compress(&mut self, input: &[u8]) -> Bytes {
            let mut space = self.window.buf.clone();
            let base = space.len();
            space.extend_from_slice(input);

            let mut index: HashMap<[u8; 4], Vec<usize>> = HashMap::new();
            for i in 0..base.saturating_sub(MIN_MATCH - 1) {
                let key = [space[i], space[i + 1], space[i + 2], space[i + 3]];
                let slot = index.entry(key).or_default();
                if slot.len() < 32 {
                    slot.push(i);
                }
            }

            let mut out = BytesMut::with_capacity(input.len() / 2 + 16);
            let mut literal_start = 0usize;
            let mut pos = 0usize;
            while pos < input.len() {
                let abs = base + pos;
                let mut best: Option<(usize, usize)> = None;
                if pos + MIN_MATCH <= input.len() {
                    let key = [input[pos], input[pos + 1], input[pos + 2], input[pos + 3]];
                    if let Some(cands) = index.get(&key) {
                        for &src in cands.iter().rev() {
                            let mut l = 0usize;
                            while l < MAX_MATCH
                                && pos + l < input.len()
                                && space[src + l] == input[pos + l]
                                && src + l < abs
                            {
                                l += 1;
                            }
                            if l >= MIN_MATCH && best.is_none_or(|(_, bl)| l > bl) {
                                best = Some((src, l));
                            }
                        }
                    }
                }
                match best {
                    Some((src, len)) => {
                        if literal_start < pos {
                            let lit = &input[literal_start..pos];
                            out.put_u8(0x00);
                            put_varint(&mut out, lit.len() as u64);
                            out.put_slice(lit);
                        }
                        out.put_u8(0x01);
                        put_varint(&mut out, (abs - src) as u64);
                        put_varint(&mut out, len as u64);
                        for i in pos..(pos + len).min(input.len().saturating_sub(MIN_MATCH - 1)) {
                            let a = base + i;
                            if a + MIN_MATCH <= space.len() {
                                let key = [space[a], space[a + 1], space[a + 2], space[a + 3]];
                                let slot = index.entry(key).or_default();
                                if slot.len() < 32 {
                                    slot.push(a);
                                }
                            }
                        }
                        pos += len;
                        literal_start = pos;
                    }
                    None => {
                        let a = abs;
                        if a + MIN_MATCH <= space.len() {
                            let key = [space[a], space[a + 1], space[a + 2], space[a + 3]];
                            let slot = index.entry(key).or_default();
                            if slot.len() < 32 {
                                slot.push(a);
                            }
                        }
                        pos += 1;
                    }
                }
            }
            if literal_start < input.len() {
                let lit = &input[literal_start..];
                out.put_u8(0x00);
                put_varint(&mut out, lit.len() as u64);
                out.put_slice(lit);
            }
            self.window.buf.extend_from_slice(input);
            self.window.trim();
            out.freeze()
        }
    }

    /// Deterministic pseudo-random byte for adversarial block content.
    fn mix(i: u64) -> u8 {
        ((i.wrapping_mul(0x9E37_79B9_7F4A_7C15)) >> 33) as u8
    }

    #[test]
    fn incremental_compressor_matches_reference_across_window_churn() {
        let mut inc = Compressor::new();
        let mut reference = ReferenceCompressor::new();
        let mut total = 0usize;
        // Far past MAX_HISTORY so the boundary grams and stream-position
        // remapping are exercised through many drains; block shapes mix
        // header-like text, high-repetition runs, tiny blocks, and noise.
        for i in 0u64..400 {
            let block: Vec<u8> = match i % 5 {
                0 => format!(
                    "get /object/{i} http/1.1\r\nhost: site-{}.example\r\ncookie: s=tok{}{}\r\n",
                    i % 7,
                    i,
                    "x".repeat((i % 13) as usize)
                )
                .into_bytes(),
                1 => vec![b'a' + (i % 3) as u8; 40 + (i % 200) as usize],
                2 => (0..(i % 9)).map(mix).collect(),
                3 => {
                    let mut b =
                        b"accept-encoding: gzipdeflate\r\ncontent-type: text/html\r\n".to_vec();
                    b.extend((0..(60 + i % 300)).map(|j| mix(i * 1000 + j)));
                    b
                }
                _ => format!("x-churn-{}: {}\r\n", i % 11, "v".repeat((i % 97) as usize))
                    .into_bytes(),
            };
            total += block.len();
            let a = inc.compress(&block);
            let b = reference.compress(&block);
            assert_eq!(a, b, "block {i} diverged (len {})", block.len());
        }
        assert!(
            total > 2 * MAX_HISTORY,
            "session must overflow the window: {total}"
        );
        // And the real decompressor still tracks the incremental side.
        let mut c = Compressor::new();
        let mut d = Decompressor::new();
        for i in 0u64..50 {
            let block = format!("host: h{}.example\r\ncookie: c={}\r\n", i % 3, i);
            let comp = c.compress(block.as_bytes());
            assert_eq!(&d.decompress(&comp).unwrap()[..], block.as_bytes());
        }
    }

    #[test]
    fn desync_produces_wrong_output_demonstrating_statefulness() {
        let mut c = Compressor::new();
        let block = b"some repeated header value 12345 some repeated header value 12345";
        let _skipped = c.compress(block);
        let second = c.compress(block);
        let mut d = Decompressor::new();
        // Decoding the second block without the first either errors or
        // yields different text — proof the codec is genuinely stateful.
        match d.decompress(&second) {
            Err(_) => {}
            Ok(plain) => assert_ne!(&plain[..], &block[..]),
        }
    }

    /// The ring-linked index offers exactly the live positions a plain
    /// list would, oldest 32 first, whether a stale head's slot is still
    /// intact (forward walk), was reused (backward walk from the tail) or
    /// was dropped when the ring grew.
    #[test]
    fn gram_index_matches_a_plain_position_list() {
        let mut rng = TestRng::from_seed(0x5eed);
        let mut index = GramIndex::default();
        let mut plain: Vec<(u32, u64)> = Vec::new();
        let mut live_from = 0u64;
        for s in 0..60_000u64 {
            // The live span breathes between 1 Ki and 12 Ki positions, so
            // the ring both grows and laps stale heads.
            let span = 1024 + (s / 7_000 % 4) * 3_700;
            live_from = live_from.max((s + 1).saturating_sub(span));
            index.reserve(live_from, s + 1 - live_from);
            // Key 0 recurs often, key 1 now and then, the rest rarely.
            let key = match rng.below(100) {
                0..=29 => 0,
                30 => 1,
                _ => 2 + rng.below(5_000) as u32,
            };
            index.push(key, s, live_from);
            plain.push((key, s));
            // Key 1 is searched so rarely that its head's slot is reused.
            let probe = match (s % 20_000, rng.below(50)) {
                (19_999, _) => Some(1),
                (_, 0) => Some(rng.below(3) as u32 * 2),
                _ => None,
            };
            if let Some(key) = probe {
                let mut got = Vec::new();
                index.collect(key, live_from, &(0..0), 0, &mut got);
                let want: Vec<usize> = plain
                    .iter()
                    .filter(|&&(k, p)| k == key && p >= live_from)
                    .map(|&(_, p)| p as usize)
                    .take(MAX_CANDIDATES)
                    .collect();
                assert_eq!(got, want, "key {key} at {s}, live from {live_from}");
            }
            if s % 16_384 == 0 {
                index.sweep(live_from);
            }
        }
    }

    // ------------------------------------------------------------------
    // Oracle property suite: generated header-like sessions must compress
    // byte-for-byte as the reference does, and round-trip.
    // ------------------------------------------------------------------

    /// Cases per property: the full count in release builds, fewer where
    /// debug assertions make the rebuild-per-block reference slow.
    fn cases() -> u32 {
        if cfg!(debug_assertions) {
            32
        } else {
            256
        }
    }

    fn pick<'a>(rng: &mut TestRng, items: &[&'a str]) -> &'a str {
        items[rng.below(items.len() as u64) as usize]
    }

    /// `name: value` lines shaped like a browser request or a reply.
    fn header_lines(rng: &mut TestRng, out: &mut Vec<u8>) {
        const NAMES: [&str; 9] = [
            ":method",
            ":host",
            ":path",
            ":scheme",
            ":status",
            "user-agent",
            "accept-encoding",
            "cookie",
            "content-type",
        ];
        const VALUES: [&str; 7] = [
            "GET",
            "https",
            "gzip,deflate,sdch",
            "text/html,application/xhtml+xml",
            "200 OK",
            "Mozilla/5.0 (Windows NT 6.1) AppleWebKit/537.11",
            "HTTP/1.1",
        ];
        for _ in 0..1 + rng.below(8) {
            out.extend_from_slice(pick(rng, &NAMES).as_bytes());
            out.extend_from_slice(b": ");
            match rng.below(3) {
                0 => out.extend_from_slice(pick(rng, &VALUES).as_bytes()),
                1 => out.extend_from_slice(
                    format!("cdn{}.site{}.example", rng.below(4), rng.below(20)).as_bytes(),
                ),
                _ => out.extend_from_slice(
                    format!("/o{}.png?sid={:x}", rng.below(500), rng.next_u64()).as_bytes(),
                ),
            }
            out.extend_from_slice(b"\r\n");
        }
    }

    /// One generated block. Besides header text the shapes cover the
    /// index's edge cases: blocks shorter than `MIN_MATCH`, blocks larger
    /// than `MAX_HISTORY`, a gram repeated past the 32-candidate cap, and
    /// runs reaching `MAX_MATCH`.
    fn gen_block(rng: &mut TestRng) -> Vec<u8> {
        let mut b = Vec::new();
        match rng.below(8) {
            0..=2 => header_lines(rng, &mut b),
            3 => b.extend((0..rng.below(MIN_MATCH as u64)).map(|_| b'a' + rng.below(3) as u8)),
            4 => {
                while b.len() < MAX_HISTORY + rng.below(4096) as usize {
                    header_lines(rng, &mut b);
                    b.extend((0..rng.below(64)).map(|_| rng.next_u64() as u8));
                }
            }
            5 => {
                let stem = pick(rng, &["xyzw", "cookie: sid=", "aaaa"]);
                for _ in 0..MAX_CANDIDATES as u64 + 1 + rng.below(48) {
                    b.extend_from_slice(stem.as_bytes());
                    b.extend_from_slice(format!("{}", rng.below(100)).as_bytes());
                }
            }
            6 => {
                let run = MAX_MATCH + rng.below(2 * MAX_MATCH as u64) as usize;
                if rng.below(2) == 0 {
                    b.resize(run, b'a' + rng.below(3) as u8);
                } else {
                    let seg: Vec<u8> = (0..run).map(|_| b'a' + rng.below(4) as u8).collect();
                    b.extend_from_slice(&seg);
                    b.extend_from_slice(&seg);
                }
            }
            _ => {
                let alphabet = 2 + rng.below(254);
                b.extend((0..rng.below(600)).map(|_| rng.below(alphabet) as u8));
            }
        }
        b
    }

    /// A session's blocks; half start with fewer than three history
    /// bytes, so the boundary grams of a fresh window are exercised.
    fn gen_session(seed: u64) -> Vec<Vec<u8>> {
        let mut rng = TestRng::from_seed(seed);
        let mut blocks = Vec::new();
        if rng.below(2) == 0 {
            blocks.push((0..rng.below(3)).map(|_| rng.next_u64() as u8).collect());
        }
        for _ in 0..1 + rng.below(10) {
            blocks.push(gen_block(&mut rng));
        }
        blocks
    }

    fn assert_matches_reference(blocks: &[Vec<u8>]) {
        let mut c = Compressor::new();
        let mut reference = ReferenceCompressor::new();
        let mut d = Decompressor::new();
        for (i, block) in blocks.iter().enumerate() {
            let z = c.compress(block);
            assert_eq!(
                z,
                reference.compress(block),
                "block {i} (len {})",
                block.len()
            );
            assert_eq!(&d.decompress(&z).expect("in sync")[..], &block[..]);
        }
    }

    #[test]
    fn reference_oracle_edge_cases() {
        let header = b"get /o1.png\r\nhost: site1.example\r\naccept-encoding: gzip\r\n".to_vec();
        // A fresh session whose history is 0, 1 or 2 bytes long.
        for n in 0..3 {
            assert_matches_reference(&[vec![b'g'; n], header.clone(), header.clone()]);
        }
        // Blocks shorter than MIN_MATCH between real ones.
        assert_matches_reference(&[
            header.clone(),
            b"ge".to_vec(),
            b"t /".to_vec(),
            header.clone(),
        ]);
        // One gram at more than 32 positions with distinct continuations:
        // the newest occurrence is outside the oldest-32 cap.
        let mut repeated = Vec::new();
        for i in 0..60 {
            repeated.extend_from_slice(format!("xyzw{i:03};").as_bytes());
        }
        assert_matches_reference(&[repeated.clone(), b"xyzw059;xyzw000;".to_vec(), repeated]);
        // Runs at and past MAX_MATCH, within and across blocks.
        let run = vec![b'r'; 3 * MAX_MATCH + 7];
        assert_matches_reference(&[run.clone(), run[..MAX_MATCH].to_vec(), run]);
        // Blocks larger than MAX_HISTORY drain the whole history at once.
        let big: Vec<u8> = (0..MAX_HISTORY as u64 + 999)
            .map(|i| {
                if i % 97 < 60 {
                    header[i as usize % header.len()]
                } else {
                    mix(i)
                }
            })
            .collect();
        assert_matches_reference(&[header.clone(), big.clone(), header, big]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(cases()))]

        /// Generated sessions compress exactly as the reference does.
        #[test]
        fn compressor_matches_reference_oracle(seed in any::<u64>()) {
            assert_matches_reference(&gen_session(seed));
        }

        /// Bit-flipped or truncated blocks never panic the decompressor,
        /// and a rejected block leaves the window in sync.
        #[test]
        fn corrupt_blocks_never_panic(seed in any::<u64>(), pick_at in any::<u64>()) {
            let blocks = gen_session(seed);
            let mut c = Compressor::new();
            let wire: Vec<Bytes> = blocks.iter().map(|b| c.compress(b)).collect();
            let k = (pick_at % blocks.len() as u64) as usize;
            let mut d = Decompressor::new();
            for z in &wire[..k] {
                d.decompress(z).expect("in sync");
            }
            let mut rng = TestRng::from_seed(seed ^ pick_at);
            let mut bad = wire[k].to_vec();
            if !bad.is_empty() {
                for _ in 0..1 + rng.below(3) {
                    let bit = rng.below(8 * bad.len() as u64);
                    bad[(bit / 8) as usize] ^= 1 << (bit % 8);
                }
                if rng.below(2) == 0 {
                    bad.truncate(rng.below(bad.len() as u64) as usize);
                }
            }
            if d.decompress(&bad).is_err() {
                prop_assert_eq!(&d.decompress(&wire[k]).expect("window untouched")[..], &blocks[k][..]);
            }
        }
    }
}
