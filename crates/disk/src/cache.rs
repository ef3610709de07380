//! The disk controller cache with read-ahead prefetching.
//!
//! After servicing a read, the controller keeps reading the remainder of
//! the current track into a cache segment, so a sequential stream hits the
//! cache for every page until the track boundary. The cache holds a small
//! number of segments (one by default, as on era-appropriate controllers);
//! a competing stream reading elsewhere claims a segment, which is how
//! interleaved sequential streams degrade each other.
//!
//! Writes bypass and invalidate the cache (no write caching — the paper's
//! model charges full media time for writes).

use crate::geometry::{DiskAddr, Geometry};

/// One read-ahead segment: the tail of a track, `[from, track_end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Segment {
    track: u64,
    from: DiskAddr,
    /// LRU stamp.
    used: u64,
}

/// The controller cache.
#[derive(Debug)]
pub struct ControllerCache {
    segments: Vec<Segment>,
    max_segments: usize,
    clock: u64,
    hits: u64,
    misses: u64,
}

impl ControllerCache {
    /// A cache with `max_segments` read-ahead segments.
    pub fn new(max_segments: usize) -> ControllerCache {
        assert!(max_segments >= 1, "need at least one cache segment");
        ControllerCache {
            segments: Vec::with_capacity(max_segments),
            max_segments,
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Look up a read. Returns true on a cache hit. On a miss the caller
    /// services the request from media and then calls [`Self::fill`].
    #[inline]
    pub fn lookup(&mut self, geo: &Geometry, addr: DiskAddr) -> bool {
        self.clock += 1;
        let track = geo.track_index(addr);
        for seg in &mut self.segments {
            if seg.track == track && addr >= seg.from {
                seg.used = self.clock;
                self.hits += 1;
                return true;
            }
        }
        self.misses += 1;
        false
    }

    /// Install the read-ahead segment after a media read at `addr`: the
    /// rest of `addr`'s track, starting just past `addr`. Evicts the LRU
    /// segment when full.
    // Invariant panic: the eviction scan runs only when `segments.len()`
    // equals `max_segments`, which is at least one, so a minimum exists.
    #[allow(clippy::expect_used)]
    #[inline]
    pub fn fill(&mut self, geo: &Geometry, addr: DiskAddr) {
        let track = geo.track_index(addr);
        let from = DiskAddr(addr.0 + 1);
        // End of track: nothing left to prefetch; drop any stale segment
        // for this track instead.
        let track_end = geo.track_start(track + 1);
        self.segments.retain(|s| s.track != track);
        if from >= track_end {
            return;
        }
        let seg = Segment {
            track,
            from,
            used: self.clock,
        };
        if self.segments.len() == self.max_segments {
            let lru = self
                .segments
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| s.used)
                .map(|(i, _)| i)
                .expect("cache is non-empty when full");
            self.segments.swap_remove(lru);
        }
        self.segments.push(seg);
    }

    /// Invalidate any segment covering `addr`'s track (called on writes).
    #[inline]
    pub fn invalidate(&mut self, geo: &Geometry, addr: DiskAddr) {
        let track = geo.track_index(addr);
        self.segments.retain(|s| s.track != track);
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geo() -> Geometry {
        Geometry {
            cylinders: 100,
            tracks_per_cyl: 2,
            pages_per_track: 4,
        }
    }

    #[test]
    fn sequential_stream_hits_after_first_page() {
        let g = geo();
        let mut c = ControllerCache::new(1);
        // Track 0 = pages 0..4.
        assert!(!c.lookup(&g, DiskAddr(0)));
        c.fill(&g, DiskAddr(0));
        assert!(c.lookup(&g, DiskAddr(1)));
        assert!(c.lookup(&g, DiskAddr(2)));
        assert!(c.lookup(&g, DiskAddr(3)));
        // Next track: miss again.
        assert!(!c.lookup(&g, DiskAddr(4)));
        c.fill(&g, DiskAddr(4));
        assert!(c.lookup(&g, DiskAddr(5)));
        assert_eq!(c.hits(), 4);
        assert_eq!(c.misses(), 2);
    }

    #[test]
    fn interleaved_streams_evict_each_other() {
        let g = geo();
        let mut c = ControllerCache::new(1);
        // Stream A on track 0, stream B on track 10: strict interleave.
        let a = [0u64, 1, 2];
        let b = [40u64, 41, 42];
        let mut hits = 0;
        for i in 0..3 {
            if c.lookup(&g, DiskAddr(a[i])) {
                hits += 1;
            } else {
                c.fill(&g, DiskAddr(a[i]));
            }
            if c.lookup(&g, DiskAddr(b[i])) {
                hits += 1;
            } else {
                c.fill(&g, DiskAddr(b[i]));
            }
        }
        assert_eq!(hits, 0, "single-segment cache cannot hold both streams");
    }

    #[test]
    fn two_segments_keep_two_streams() {
        let g = geo();
        let mut c = ControllerCache::new(2);
        let a = [0u64, 1, 2];
        let b = [40u64, 41, 42];
        let mut hits = 0;
        for i in 0..3 {
            for s in [a[i], b[i]] {
                if c.lookup(&g, DiskAddr(s)) {
                    hits += 1;
                } else {
                    c.fill(&g, DiskAddr(s));
                }
            }
        }
        assert_eq!(hits, 4, "both streams hit after their first page");
    }

    #[test]
    fn backwards_read_misses() {
        let g = geo();
        let mut c = ControllerCache::new(1);
        c.fill(&g, DiskAddr(2));
        assert!(c.lookup(&g, DiskAddr(3)));
        assert!(!c.lookup(&g, DiskAddr(1)), "read-ahead is forward only");
    }

    #[test]
    fn write_invalidates_track() {
        let g = geo();
        let mut c = ControllerCache::new(1);
        c.fill(&g, DiskAddr(0));
        c.invalidate(&g, DiskAddr(2));
        assert!(!c.lookup(&g, DiskAddr(1)));
    }

    #[test]
    fn fill_at_track_end_caches_nothing() {
        let g = geo();
        let mut c = ControllerCache::new(1);
        c.fill(&g, DiskAddr(3)); // last page of track 0
        assert!(!c.lookup(&g, DiskAddr(4)));
    }
}
