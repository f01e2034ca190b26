//! Set-associative cache model with LRU replacement.
//!
//! Used for the per-core L1 data caches and the shared L2 cache. The model
//! tracks tags only (contents are irrelevant to timing) and uses last-access
//! cycle stamps for LRU.

/// A set-associative cache with LRU replacement.
///
/// # Examples
///
/// ```
/// use optassign_sim::cache::Cache;
///
/// // 8 KB, 4-way, 16-byte lines (the T2 L1 data cache).
/// let mut c = Cache::new(8 * 1024, 4, 16);
/// assert!(!c.access(0x1000, 1)); // cold miss
/// assert!(c.access(0x1008, 2));  // same 16-byte line: hit
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    sets: usize,
    ways: usize,
    line_shift: u32,
    /// `tags[set * ways + way]`; `u64::MAX` marks an invalid way.
    tags: Vec<u64>,
    /// Last-access stamp per way, for LRU selection.
    stamps: Vec<u64>,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Creates a cache of `size_bytes` with `ways` associativity and
    /// `line_bytes` line size.
    ///
    /// # Panics
    ///
    /// Panics unless `line_bytes` is a power of two and the geometry yields
    /// at least one set.
    pub fn new(size_bytes: usize, ways: usize, line_bytes: usize) -> Self {
        assert!(line_bytes.is_power_of_two(), "line size must be 2^k");
        assert!(ways > 0, "ways must be non-zero");
        let sets = size_bytes / (ways * line_bytes);
        assert!(sets > 0, "cache too small for its geometry");
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        Cache {
            sets,
            ways,
            line_shift: line_bytes.trailing_zeros(),
            tags: vec![u64::MAX; sets * ways],
            stamps: vec![0; sets * ways],
            hits: 0,
            misses: 0,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Accesses `addr` at time `now`; returns `true` on a hit. On a miss the
    /// line is filled, evicting the LRU way of its set.
    #[inline]
    pub fn access(&mut self, addr: u64, now: u64) -> bool {
        let line = addr >> self.line_shift;
        let set = (line as usize) & (self.sets - 1);
        let base = set * self.ways;
        let slots = &mut self.tags[base..base + self.ways];
        // Hit path.
        for (w, tag) in slots.iter().enumerate() {
            if *tag == line {
                self.stamps[base + w] = now;
                self.hits += 1;
                return true;
            }
        }
        // Miss: evict LRU.
        self.misses += 1;
        let mut victim = 0;
        let mut oldest = u64::MAX;
        for w in 0..self.ways {
            let idx = base + w;
            if self.tags[idx] == u64::MAX {
                victim = w;
                break;
            }
            if self.stamps[idx] < oldest {
                oldest = self.stamps[idx];
                victim = w;
            }
        }
        self.tags[base + victim] = line;
        self.stamps[base + victim] = now;
        false
    }

    /// Probes without filling; returns `true` if `addr` is resident.
    pub fn probe(&self, addr: u64) -> bool {
        let line = addr >> self.line_shift;
        let set = (line as usize) & (self.sets - 1);
        let base = set * self.ways;
        self.tags[base..base + self.ways].contains(&line)
    }

    /// Resets the hit/miss counters (content is preserved). Used after
    /// warm-up so reported hit rates describe the measurement window.
    pub fn reset_stats(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }

    /// Total hits since construction (or the last [`Cache::reset_stats`]).
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Total misses since construction.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Invalidates every line and zeroes the stats — equivalent to a
    /// freshly constructed cache of the same geometry, without the
    /// allocation.
    pub fn clear(&mut self) {
        self.tags.fill(u64::MAX);
        self.stamps.fill(0);
        self.hits = 0;
        self.misses = 0;
    }

    /// Hit rate over all accesses so far (0 when never accessed).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry() {
        let c = Cache::new(8 * 1024, 4, 16);
        assert_eq!(c.sets(), 128);
        let l2 = Cache::new(4 * 1024 * 1024, 16, 64);
        assert_eq!(l2.sets(), 4096);
    }

    #[test]
    fn hit_after_fill_same_line() {
        let mut c = Cache::new(1024, 2, 16);
        assert!(!c.access(0x100, 1));
        assert!(c.access(0x10F, 2)); // same line
        assert!(!c.access(0x110, 3)); // next line
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 2);
    }

    #[test]
    fn lru_evicts_oldest() {
        // 2-way cache: lines A, B fill a set; touching A then adding C must
        // evict B.
        let mut c = Cache::new(2 * 16, 2, 16); // 1 set, 2 ways
        let (a, b, x) = (0x000, 0x010, 0x020);
        assert!(!c.access(a, 1));
        assert!(!c.access(b, 2));
        assert!(c.access(a, 3)); // refresh A
        assert!(!c.access(x, 4)); // evicts B (LRU)
        assert!(c.access(a, 5));
        assert!(!c.access(b, 6)); // B was evicted
    }

    #[test]
    fn working_set_behavior() {
        // A working set that fits has ~100% steady-state hit rate; one that
        // is 4x the cache size thrashes.
        let mut small = Cache::new(4096, 4, 16);
        for round in 0..8u64 {
            for addr in (0..4096u64).step_by(16) {
                small.access(addr, round * 1000 + addr);
            }
        }
        assert!(small.hit_rate() > 0.85, "rate = {}", small.hit_rate());

        let mut thrash = Cache::new(4096, 4, 16);
        for round in 0..8u64 {
            for addr in (0..4 * 4096u64).step_by(16) {
                thrash.access(addr, round * 100_000 + addr);
            }
        }
        assert!(thrash.hit_rate() < 0.2, "rate = {}", thrash.hit_rate());
    }

    #[test]
    fn probe_does_not_fill() {
        let mut c = Cache::new(1024, 2, 16);
        assert!(!c.probe(0x40));
        c.access(0x40, 1);
        assert!(c.probe(0x40));
        assert!(!c.probe(0x80));
    }

    #[test]
    #[should_panic(expected = "2^k")]
    fn rejects_non_power_of_two_lines() {
        Cache::new(1024, 2, 24);
    }
}
