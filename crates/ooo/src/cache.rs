//! Set-associative cache models and the two-level hierarchy.
//!
//! The timing model only needs *latencies* and hit/miss statistics — data
//! always lives in the committed [`SparseMemory`](dmdc_isa::SparseMemory) —
//! so the caches track tags and LRU state only. Misses are non-blocking:
//! each access returns its completion latency and the pipeline overlaps them
//! freely (an ideal-MSHR assumption, documented in DESIGN.md).

use dmdc_types::Addr;

use crate::config::CacheConfig;
use crate::stats::CacheStats;

/// One level of set-associative cache (tags + true-LRU replacement).
#[derive(Debug, Clone)]
pub struct Cache {
    line_shift: u32,
    sets: u64,
    ways: usize,
    // tag per (set, way); u64::MAX = invalid.
    tags: Vec<u64>,
    lru: Vec<u64>,
    tick: u64,
    /// Access latency of this level.
    pub latency: u64,
    /// Hit/miss counters.
    pub stats: CacheStats,
}

impl Cache {
    /// Builds a cache from its configuration.
    pub fn new(config: CacheConfig) -> Cache {
        let sets = config.sets();
        let ways = config.ways as usize;
        Cache {
            line_shift: config.line_bytes.trailing_zeros(),
            sets,
            ways,
            tags: vec![u64::MAX; sets as usize * ways],
            lru: vec![0; sets as usize * ways],
            tick: 0,
            latency: config.latency,
            stats: CacheStats::default(),
        }
    }

    #[inline]
    fn set_and_tag(&self, addr: Addr) -> (usize, u64) {
        let line = addr.0 >> self.line_shift;
        (
            (line & (self.sets - 1)) as usize,
            line >> self.sets.trailing_zeros(),
        )
    }

    /// Probes the cache; on miss, fills the line (evicting LRU). Returns
    /// `true` on hit. `#[inline]` (and the slice-at-once way scan, which
    /// replaces per-way bounds checks with one) because the functional
    /// warmer drives this once or twice per retired instruction over
    /// tens of millions of instructions per sampled cell.
    #[inline]
    pub fn access(&mut self, addr: Addr) -> bool {
        self.tick += 1;
        let (set, tag) = self.set_and_tag(addr);
        let base = set * self.ways;
        let tags = &mut self.tags[base..base + self.ways];
        match tags.iter().position(|&t| t == tag) {
            Some(w) => {
                self.lru[base + w] = self.tick;
                self.stats.hits += 1;
                true
            }
            None => {
                self.stats.misses += 1;
                let lru = &mut self.lru[base..base + self.ways];
                let victim = lru
                    .iter()
                    .enumerate()
                    .min_by_key(|&(_, &stamp)| stamp)
                    .expect("ways > 0")
                    .0;
                tags[victim] = tag;
                lru[victim] = self.tick;
                false
            }
        }
    }

    /// Probes without filling (used by tests and diagnostics).
    pub fn probe(&self, addr: Addr) -> bool {
        let (set, tag) = self.set_and_tag(addr);
        let base = set * self.ways;
        (0..self.ways).any(|w| self.tags[base + w] == tag)
    }

    /// Words in [`Cache::export_state`] for a cache of `config`'s
    /// geometry: three counters plus a tag and an LRU stamp per line.
    pub fn state_len(config: &CacheConfig) -> usize {
        3 + 2 * (config.sets() * u64::from(config.ways)) as usize
    }

    /// Flattens the warm state (LRU clock, counters, tags, recency) into a
    /// fixed-order word vector for checkpoint serialization.
    /// [`Cache::import_state`] is the exact inverse for a cache of the
    /// same geometry.
    pub fn export_state(&self) -> Vec<u64> {
        let mut v = Vec::with_capacity(3 + self.tags.len() + self.lru.len());
        v.push(self.tick);
        v.push(self.stats.hits);
        v.push(self.stats.misses);
        v.extend_from_slice(&self.tags);
        v.extend_from_slice(&self.lru);
        v
    }

    /// Restores warm state captured by [`Cache::export_state`]. Returns
    /// `None` (leaving the cache untouched) if `words` does not match this
    /// cache's geometry.
    pub fn import_state(&mut self, words: &[u64]) -> Option<()> {
        let n = self.tags.len();
        if words.len() != 3 + 2 * n {
            return None;
        }
        self.tick = words[0];
        self.stats.hits = words[1];
        self.stats.misses = words[2];
        self.tags.copy_from_slice(&words[3..3 + n]);
        self.lru.copy_from_slice(&words[3 + n..]);
        Some(())
    }
}

/// The L1I / L1D / unified-L2 / memory hierarchy.
///
/// # Examples
///
/// ```
/// use dmdc_ooo::{CoreConfig, MemoryHierarchy};
/// use dmdc_types::Addr;
///
/// let cfg = CoreConfig::config2();
/// let mut mh = MemoryHierarchy::new(&cfg);
/// let cold = mh.data_access(Addr(0x1000));
/// let warm = mh.data_access(Addr(0x1000));
/// assert!(cold > warm, "first touch misses all the way to memory");
/// assert_eq!(warm, cfg.l1d.latency);
/// ```
#[derive(Debug, Clone)]
pub struct MemoryHierarchy {
    /// L1 instruction cache.
    pub l1i: Cache,
    /// L1 data cache.
    pub l1d: Cache,
    /// Unified L2.
    pub l2: Cache,
    memory_latency: u64,
}

impl MemoryHierarchy {
    /// Builds the hierarchy from a core configuration.
    pub fn new(config: &crate::config::CoreConfig) -> MemoryHierarchy {
        MemoryHierarchy {
            l1i: Cache::new(config.l1i),
            l1d: Cache::new(config.l1d),
            l2: Cache::new(config.l2),
            memory_latency: config.memory_latency,
        }
    }

    /// An instruction-fetch access: returns total latency in cycles.
    #[inline]
    pub fn inst_access(&mut self, addr: Addr) -> u64 {
        if self.l1i.access(addr) {
            self.l1i.latency
        } else if self.l2.access(addr) {
            self.l1i.latency + self.l2.latency
        } else {
            self.l1i.latency + self.l2.latency + self.memory_latency
        }
    }

    /// A data access (load timing or store commit): returns total latency.
    #[inline]
    pub fn data_access(&mut self, addr: Addr) -> u64 {
        if self.l1d.access(addr) {
            self.l1d.latency
        } else if self.l2.access(addr) {
            self.l1d.latency + self.l2.latency
        } else {
            self.l1d.latency + self.l2.latency + self.memory_latency
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CoreConfig;

    fn small_cache() -> Cache {
        // 4 sets x 2 ways x 64B lines = 512B.
        Cache::new(CacheConfig {
            size_bytes: 512,
            ways: 2,
            line_bytes: 64,
            latency: 2,
        })
    }

    #[test]
    fn geometry_matches_the_exported_tables() {
        use crate::bpred::{BranchPredictor, Btb};
        for config in CoreConfig::all() {
            for cache in [config.l1i, config.l1d, config.l2] {
                let exported = Cache::new(cache).export_state().len();
                assert_eq!(Cache::state_len(&cache), exported, "{}", config.name);
            }
            let (bimodal, gshare, meta) = (
                config.bimodal_entries,
                config.gshare_entries,
                config.meta_entries,
            );
            let bpred = BranchPredictor::new(bimodal, gshare, config.gshare_history_bits, meta);
            assert_eq!(
                BranchPredictor::state_len(bimodal, gshare, meta),
                bpred.export_state().len(),
                "{}",
                config.name
            );
            let btb = Btb::new(config.btb_entries);
            assert_eq!(
                Btb::state_len(config.btb_entries),
                btb.export_state().len(),
                "{}",
                config.name
            );
        }
    }

    #[test]
    fn hit_after_fill() {
        let mut c = small_cache();
        assert!(!c.access(Addr(0x1000)));
        assert!(c.access(Addr(0x1000)));
        assert!(c.access(Addr(0x1004)), "same line hits");
        assert_eq!(c.stats.hits, 2);
        assert_eq!(c.stats.misses, 1);
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut c = small_cache();
        // Three lines mapping to the same set (set stride = 4 lines * 64B = 256B).
        let a = Addr(0);
        let b = Addr(256);
        let d = Addr(512);
        c.access(a);
        c.access(b);
        c.access(a); // a is now MRU
        c.access(d); // evicts b
        assert!(c.probe(a));
        assert!(!c.probe(b));
        assert!(c.probe(d));
    }

    #[test]
    fn different_sets_do_not_conflict() {
        let mut c = small_cache();
        c.access(Addr(0));
        c.access(Addr(64));
        c.access(Addr(128));
        c.access(Addr(192));
        assert!(c.probe(Addr(0)));
        assert!(c.probe(Addr(192)));
    }

    #[test]
    fn hierarchy_latencies_stack() {
        let cfg = CoreConfig::config2();
        let mut mh = MemoryHierarchy::new(&cfg);
        let cold = mh.data_access(Addr(0x4_0000));
        assert_eq!(cold, cfg.l1d.latency + cfg.l2.latency + cfg.memory_latency);
        let warm = mh.data_access(Addr(0x4_0000));
        assert_eq!(warm, cfg.l1d.latency);
        // Evict from L1 but not L2: touch enough conflicting lines.
        // L1D is 32KB 2-way with 64B lines -> 256 sets, stride 16KB.
        let victim = Addr(0x4_0000);
        for i in 1..=2u64 {
            mh.data_access(Addr(0x4_0000 + i * 16 * 1024));
        }
        let l2_hit = mh.data_access(victim);
        assert_eq!(l2_hit, cfg.l1d.latency + cfg.l2.latency);
    }

    #[test]
    fn export_import_roundtrips_warm_state() {
        let mut warm = small_cache();
        for i in 0..40u64 {
            warm.access(Addr(i * 96));
        }
        let words = warm.export_state();
        let mut fresh = small_cache();
        fresh.import_state(&words).expect("same geometry");
        assert_eq!(fresh.stats, warm.stats);
        for i in 0..40u64 {
            assert_eq!(fresh.probe(Addr(i * 96)), warm.probe(Addr(i * 96)));
        }
        // Identical behaviour from here on, not just identical probes.
        assert_eq!(fresh.access(Addr(0x5000)), warm.access(Addr(0x5000)));
        assert_eq!(fresh.export_state(), warm.export_state());
        // A geometry mismatch refuses rather than corrupts.
        let mut other = Cache::new(CacheConfig {
            size_bytes: 1024,
            ways: 2,
            line_bytes: 64,
            latency: 2,
        });
        assert!(other.import_state(&words).is_none());
        assert_eq!(other.stats, CacheStats::default());
    }

    #[test]
    fn inst_and_data_paths_share_l2() {
        let cfg = CoreConfig::config2();
        let mut mh = MemoryHierarchy::new(&cfg);
        mh.data_access(Addr(0x8000));
        // Instruction access to the same line: misses L1I but hits L2.
        let lat = mh.inst_access(Addr(0x8000));
        assert_eq!(lat, cfg.l1i.latency + cfg.l2.latency);
    }
}
