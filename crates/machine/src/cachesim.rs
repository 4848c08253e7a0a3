//! Set-associative LRU cache simulation over address traces.
//!
//! Used to validate the analytical locality model in [`crate::cost`]: on
//! small nests, schedules the model ranks as more cache-friendly must also
//! produce fewer simulated misses (the `cachesim_vs_model` bench in
//! `pte-bench`).

use crate::CacheLevel;
use pte_exec::trace::MemoryEvent;

/// One simulated cache level: LRU, set-associative, write-allocate.
#[derive(Debug, Clone)]
pub struct Cache {
    line_bytes: u64,
    sets: Vec<Vec<u64>>, // per-set tag stack, most recent first
    assoc: usize,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Builds a cache from a level descriptor.
    ///
    /// # Panics
    /// Panics if the geometry is degenerate (zero size/line/assoc).
    pub fn new(level: &CacheLevel) -> Self {
        assert!(level.size_bytes > 0 && level.line_bytes > 0 && level.assoc > 0);
        let lines = (level.size_bytes / level.line_bytes).max(1);
        let sets = (lines / u64::from(level.assoc)).max(1) as usize;
        Cache {
            line_bytes: level.line_bytes,
            sets: vec![Vec::new(); sets],
            assoc: level.assoc as usize,
            hits: 0,
            misses: 0,
        }
    }

    /// Accesses an address; returns `true` on hit.
    pub fn access(&mut self, address: u64) -> bool {
        let line = address / self.line_bytes;
        let set = (line % self.sets.len() as u64) as usize;
        let tags = &mut self.sets[set];
        if let Some(pos) = tags.iter().position(|&t| t == line) {
            tags.remove(pos);
            tags.insert(0, line);
            self.hits += 1;
            true
        } else {
            tags.insert(0, line);
            tags.truncate(self.assoc);
            self.misses += 1;
            false
        }
    }

    /// Hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Miss ratio over all accesses (0 if none).
    pub fn miss_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

/// Aggregate statistics from a hierarchy simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct HierarchyStats {
    /// Total accesses fed to L1.
    pub accesses: u64,
    /// Per-level miss counts, innermost first.
    pub misses: Vec<u64>,
    /// Accesses that fell through every level to memory.
    pub dram_accesses: u64,
}

/// Simulates an inclusive hierarchy: each level's misses access the next.
pub fn simulate_hierarchy(levels: &[CacheLevel], trace: &[MemoryEvent]) -> HierarchyStats {
    let mut caches: Vec<Cache> = levels.iter().map(Cache::new).collect();
    let mut dram = 0u64;
    for event in trace {
        let mut satisfied = false;
        for cache in caches.iter_mut() {
            if cache.access(event.address) {
                satisfied = true;
                break;
            }
        }
        if !satisfied {
            dram += 1;
        }
    }
    HierarchyStats {
        accesses: trace.len() as u64,
        misses: caches.iter().map(Cache::misses).collect(),
        dram_accesses: dram,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pte_exec::trace::address_trace;
    use pte_ir::{ConvShape, LoopNest};
    use pte_transform::Schedule;

    fn tiny_l1() -> CacheLevel {
        CacheLevel { size_bytes: 1024, line_bytes: 64, assoc: 2, latency_cycles: 4 }
    }

    #[test]
    fn repeated_access_hits() {
        let mut c = Cache::new(&tiny_l1());
        assert!(!c.access(0));
        assert!(c.access(0));
        assert!(c.access(4)); // same line
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn capacity_eviction() {
        // 1 KiB, 64 B lines, 2-way: 8 sets. Touch 3 lines mapping to one set.
        let mut c = Cache::new(&tiny_l1());
        let set_stride = 8 * 64;
        c.access(0);
        c.access(set_stride);
        c.access(2 * set_stride); // evicts line 0 (LRU)
        assert!(!c.access(0));
    }

    #[test]
    fn lru_order_respected() {
        let mut c = Cache::new(&tiny_l1());
        let set_stride = 8 * 64;
        c.access(0);
        c.access(set_stride);
        c.access(0); // refresh 0
        c.access(2 * set_stride); // evicts set_stride, not 0
        assert!(c.access(0));
        assert!(!c.access(set_stride));
    }

    #[test]
    fn streaming_misses_every_line() {
        let mut c = Cache::new(&tiny_l1());
        for i in 0..64u64 {
            c.access(i * 64 * 9); // distinct lines, conflict-heavy stride
        }
        assert_eq!(c.misses(), 64);
    }

    #[test]
    fn tiled_schedule_misses_less_than_streaming() {
        // A conv whose weight tensor exceeds a tiny L1: tiling ci improves
        // weight reuse, so simulated misses must drop.
        let shape = ConvShape::standard(32, 32, 3, 12, 12);
        let baseline = LoopNest::conv2d(&shape);
        let mut tiled = Schedule::new(LoopNest::conv2d(&shape));
        tiled.tile("ci", 8).unwrap();
        tiled.tile("oh", 5).unwrap();

        let l1 = CacheLevel { size_bytes: 8 << 10, line_bytes: 64, assoc: 4, latency_cycles: 4 };
        let limit = 400_000;
        let (t_base, _) = address_trace(&baseline, limit).unwrap();
        let (t_tiled, _) = address_trace(tiled.nest(), limit).unwrap();
        let base_stats = simulate_hierarchy(&[l1], &t_base);
        let tiled_stats = simulate_hierarchy(&[l1], &t_tiled);
        assert!(
            tiled_stats.dram_accesses < base_stats.dram_accesses,
            "tiled {} vs baseline {}",
            tiled_stats.dram_accesses,
            base_stats.dram_accesses
        );
    }

    #[test]
    fn hierarchy_filters_accesses() {
        let levels = [
            tiny_l1(),
            CacheLevel { size_bytes: 64 << 10, line_bytes: 64, assoc: 8, latency_cycles: 12 },
        ];
        let nest = LoopNest::conv2d(&ConvShape::pointwise(8, 8, 8, 8));
        let (trace, _) = address_trace(&nest, 100_000).unwrap();
        let stats = simulate_hierarchy(&levels, &trace);
        assert!(stats.dram_accesses <= stats.misses[0]);
        assert!(stats.misses[1] <= stats.misses[0]);
        assert_eq!(stats.accesses, trace.len() as u64);
    }
}
