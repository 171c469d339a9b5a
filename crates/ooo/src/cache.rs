//! Set-associative LRU cache hierarchy (Table 5: 32 kB L1D → 2 MB LLC →
//! DDR4-2400 DRAM).

/// One set-associative cache level with true-LRU replacement.
#[derive(Debug, Clone)]
pub struct Cache {
    sets: Vec<Vec<u64>>, // per-set tag stack, most-recently-used first
    ways: usize,
    set_shift: u32,
    set_mask: u64,
    hit_latency: u32,
    accesses: u64,
    misses: u64,
}

/// Cache line size, bytes (64 B, as everywhere on x86).
pub const LINE_BYTES: u64 = 64;

impl Cache {
    /// Builds a cache of `size_bytes` with `ways`-way associativity and
    /// the given hit latency.
    ///
    /// # Panics
    ///
    /// Panics unless `size_bytes` is a power of two multiple of
    /// `ways × 64`.
    pub fn new(size_bytes: usize, ways: usize, hit_latency: u32) -> Self {
        assert!(ways >= 1);
        let lines = size_bytes / LINE_BYTES as usize;
        assert!(lines % ways == 0, "size must divide into whole sets");
        let n_sets = lines / ways;
        assert!(n_sets.is_power_of_two(), "set count must be a power of two");
        Cache {
            sets: vec![Vec::with_capacity(ways); n_sets],
            ways,
            set_shift: LINE_BYTES.trailing_zeros(),
            set_mask: (n_sets as u64) - 1,
            hit_latency,
            accesses: 0,
            misses: 0,
        }
    }

    /// Accesses `addr`; returns `true` on hit. Fills on miss.
    pub fn access(&mut self, addr: u64) -> bool {
        self.accesses += 1;
        let line = addr >> self.set_shift;
        let set = (line & self.set_mask) as usize;
        let tag = line >> self.set_mask.count_ones();
        let stack = &mut self.sets[set];
        if let Some(pos) = stack.iter().position(|&t| t == tag) {
            let t = stack.remove(pos);
            stack.insert(0, t);
            true
        } else {
            self.misses += 1;
            if stack.len() == self.ways {
                stack.pop();
            }
            stack.insert(0, tag);
            false
        }
    }

    /// This level's hit latency, cycles.
    pub fn hit_latency(&self) -> u32 {
        self.hit_latency
    }

    /// Miss ratio so far (0 when never accessed).
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// The Table 5 data-side hierarchy: L1D → LLC → DRAM.
#[derive(Debug, Clone)]
pub struct Hierarchy {
    /// Level-1 data cache.
    pub l1d: Cache,
    /// Last-level cache.
    pub llc: Cache,
    dram_latency: u32,
}

impl Hierarchy {
    /// Builds the hierarchy from the machine config.
    pub fn new(cfg: &crate::config::O3Config) -> Self {
        Hierarchy {
            l1d: Cache::new(cfg.l1d_bytes, 8, cfg.l1d_latency),
            llc: Cache::new(cfg.llc_bytes, 16, cfg.llc_latency),
            dram_latency: cfg.dram_latency,
        }
    }

    /// Load latency for `addr` in cycles, walking the hierarchy.
    pub fn load_latency(&mut self, addr: u64) -> u32 {
        if self.l1d.access(addr) {
            self.l1d.hit_latency()
        } else if self.llc.access(addr) {
            self.llc.hit_latency()
        } else {
            self.dram_latency
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_access_hits() {
        let mut c = Cache::new(32 * 1024, 8, 4);
        assert!(!c.access(0x1000), "cold miss");
        assert!(c.access(0x1000), "warm hit");
        assert!(c.access(0x1008), "same line");
        assert!((c.miss_ratio() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn lru_evicts_oldest() {
        // 8-way set: touch 9 distinct lines mapping to the same set.
        let mut c = Cache::new(32 * 1024, 8, 4);
        let set_stride = 64 * (32 * 1024 / 64 / 8) as u64; // one full wrap
        for i in 0..9u64 {
            c.access(i * set_stride);
        }
        assert!(!c.access(0), "line 0 was LRU and must be evicted");
        assert!(c.access(8 * set_stride), "newest line survives");
    }

    #[test]
    fn streaming_larger_than_cache_always_misses() {
        let mut c = Cache::new(32 * 1024, 8, 4);
        let mut misses = 0;
        // Two passes over a 4 MB stream: no reuse fits.
        for pass in 0..2 {
            for addr in (0..4 * 1024 * 1024u64).step_by(64) {
                if !c.access(addr) {
                    misses += 1;
                }
            }
            if pass == 0 {
                misses = 0; // only measure the second pass
            }
        }
        assert_eq!(misses, 4 * 1024 * 1024 / 64);
    }

    #[test]
    fn hierarchy_latencies_order() {
        let cfg = crate::config::O3Config::default();
        let mut h = Hierarchy::new(&cfg);
        let cold = h.load_latency(0x4000);
        let warm = h.load_latency(0x4000);
        assert_eq!(cold, cfg.dram_latency);
        assert_eq!(warm, cfg.l1d_latency);
    }

    #[test]
    fn llc_catches_l1_overflow() {
        let cfg = crate::config::O3Config::default();
        let mut h = Hierarchy::new(&cfg);
        // Touch 256 kB (8× L1D, well within 2 MB LLC), then re-touch.
        for addr in (0..256 * 1024u64).step_by(64) {
            h.load_latency(addr);
        }
        let lat = h.load_latency(0);
        assert_eq!(lat, cfg.llc_latency, "L1 evicted, LLC holds it");
    }

    #[test]
    #[should_panic(expected = "whole sets")]
    fn rejects_odd_geometry() {
        let _ = Cache::new(3000, 8, 4);
    }
}
