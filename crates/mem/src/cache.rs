//! A set-associative, presence-only cache model.
//!
//! Tracks only presence (u32 tags in recency order), not data or dirty
//! state: the simulator needs hit/miss outcomes and latencies, not values,
//! and charges no write-back traffic. Lines are 64 bytes.

use nocstar_stats::counter::HitMiss;
use nocstar_types::time::Cycles;
use nocstar_types::PhysAddr;

/// Cache line size in bytes (all levels).
pub const LINE_BYTES: u64 = 64;

/// Geometry and latency of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity: u64,
    /// Associativity.
    pub ways: usize,
    /// Hit latency.
    pub latency: Cycles,
}

impl CacheConfig {
    /// Haswell L1D: 32 KiB, 8-way, 4 cycles (paper §IV).
    pub fn haswell_l1d() -> Self {
        Self {
            capacity: 32 << 10,
            ways: 8,
            latency: Cycles::new(4),
        }
    }

    /// Haswell L2: 256 KiB, 8-way, 12 cycles (paper §IV).
    pub fn haswell_l2() -> Self {
        Self {
            capacity: 256 << 10,
            ways: 8,
            latency: Cycles::new(12),
        }
    }

    /// Haswell LLC: 2.5 MiB per core, 16-way, 50 cycles.
    ///
    /// The paper states 8 MiB per core; shipping Haswell server parts have
    /// 2.5 MiB/core. We use the real ratio because the simulator runs
    /// footprint-scaled workloads: an oversized LLC would keep every page-
    /// table leaf resident and hide the DRAM component of page walks that
    /// the paper's 2 TB footprints exhibit (see DESIGN.md).
    pub fn haswell_llc(cores: usize) -> Self {
        Self {
            capacity: (2 << 20) * cores as u64 + (cores as u64) * (512 << 10),
            ways: 16,
            latency: Cycles::new(50),
        }
    }

    /// Whether a [`Cache`] of this geometry gives every line of a
    /// `phys_capacity`-byte physical memory its own u32 tag.
    ///
    /// # Panics
    ///
    /// Panics on a geometry with no ways or no whole set.
    pub fn tags_fit(&self, phys_capacity: u64) -> bool {
        self.max_tag(phys_capacity) <= u64::from(u32::MAX)
    }

    /// The largest tag a line of a `phys_capacity`-byte physical memory
    /// gets (see [`Cache`]).
    fn max_tag(&self, phys_capacity: u64) -> u64 {
        let sets = self.capacity / LINE_BYTES / self.ways as u64;
        phys_capacity.saturating_sub(1) / LINE_BYTES / sets + 1
    }
}

/// One level of cache: per set, `ways` tags in move-to-front order.
///
/// A line's tag is `line / num_sets + 1`, so `0` marks an invalid way.
/// Each set keeps its valid tags most-recently-used first and its invalid
/// ways last; a hit moves its tag to the front and a miss pushes the new
/// tag on the front, dropping the last way (an invalid one, else the LRU
/// line). That holds exactly the contents a per-line LRU stamp would. A
/// tag takes 2 host bytes when every line of the physical memory gets a
/// distinct u16 one (the LLC from 7 cores up), else 4 bytes. The tag
/// array starts as one zeroed allocation, which the OS backs lazily, so
/// sets no access reaches cost no memory.
///
/// # Examples
///
/// ```
/// use nocstar_mem::cache::{Cache, CacheConfig};
/// use nocstar_types::PhysAddr;
///
/// let mut l1 = Cache::new(CacheConfig::haswell_l1d(), 1 << 30);
/// let pa = PhysAddr::new(0x1000);
/// assert!(!l1.access(pa)); // cold miss (fills the line)
/// assert!(l1.access(pa));  // now hits
/// assert!(l1.access(PhysAddr::new(0x1020))); // same 64B line
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    num_sets: u64,
    tags: Tags,
    stats: HitMiss,
}

/// Per set, `ways` tags, MRU first; `0` is an invalid way.
#[derive(Debug, Clone)]
enum Tags {
    Narrow(Vec<u16>),
    Wide(Vec<u32>),
}

impl Cache {
    /// Builds a cache level for addresses below `phys_capacity`, which
    /// picks the narrowest tag width that tells every line apart.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero ways, capacity smaller
    /// than one way of lines, or capacity not a multiple of `ways *
    /// LINE_BYTES`).
    pub fn new(config: CacheConfig, phys_capacity: u64) -> Self {
        assert!(config.ways > 0, "cache needs at least one way");
        let lines = config.capacity / LINE_BYTES;
        assert!(
            lines >= config.ways as u64 && lines.is_multiple_of(config.ways as u64),
            "capacity must be a whole number of {}-way sets of {LINE_BYTES}B lines",
            config.ways
        );
        let tags = if config.max_tag(phys_capacity) <= u64::from(u16::MAX) {
            Tags::Narrow(vec![0; lines as usize])
        } else {
            Tags::Wide(vec![0; lines as usize])
        };
        Self {
            config,
            num_sets: lines / config.ways as u64,
            tags,
            stats: HitMiss::new(),
        }
    }

    /// Hit latency of this level.
    pub fn latency(&self) -> Cycles {
        self.config.latency
    }

    /// Accesses one physical address; returns whether it hit. A miss fills
    /// the line, evicting the set's LRU line when the set is full.
    pub fn access(&mut self, pa: PhysAddr) -> bool {
        let hit = self.touch(pa);
        if hit {
            self.stats.hit();
        } else {
            self.stats.miss();
        }
        hit
    }

    /// [`access`](Self::access) without statistics: fills, evicts and
    /// updates recency identically but records no hit or miss — the
    /// functional-warming entry point for sampled fast-forward replay
    /// (`SAMPLING.md §2`).
    pub fn touch(&mut self, pa: PhysAddr) -> bool {
        let (set, tag) = self.locate(pa);
        match &mut self.tags {
            Tags::Narrow(tags) => move_to_front(tags, set, narrow(tag)),
            Tags::Wide(tags) => move_to_front(tags, set, tag),
        }
    }

    /// Checks for presence without filling or updating recency.
    pub fn probe(&self, pa: PhysAddr) -> bool {
        let (set, tag) = self.locate(pa);
        match &self.tags {
            Tags::Narrow(tags) => holds(tags, set, narrow(tag)),
            Tags::Wide(tags) => holds(tags, set, tag),
        }
    }

    /// The tag range of `pa`'s set and its tag.
    fn locate(&self, pa: PhysAddr) -> (std::ops::Range<usize>, u32) {
        let line = pa.value() / LINE_BYTES;
        let base = (line % self.num_sets) as usize * self.config.ways;
        let tag = (line / self.num_sets + 1) as u32;
        (base..base + self.config.ways, tag)
    }

    /// Hit/miss statistics.
    pub fn stats(&self) -> HitMiss {
        self.stats
    }

    /// Clears statistics (e.g. after warmup).
    pub fn reset_stats(&mut self) {
        self.stats = HitMiss::new();
    }

    /// Number of valid lines.
    pub fn occupancy(&self) -> usize {
        match &self.tags {
            Tags::Narrow(tags) => tags.iter().filter(|&&t| t != 0).count(),
            Tags::Wide(tags) => tags.iter().filter(|&&t| t != 0).count(),
        }
    }
}

/// A u32 tag of a cache that chose u16 tags: it fits, because the address
/// lies in the physical memory the width was chosen for.
fn narrow(tag: u32) -> u16 {
    debug_assert!(tag <= u32::from(u16::MAX), "tag {tag} beyond u16");
    tag as u16
}

/// Looks `tag` up in the set `tags[set]`, MRU first: a hit moves it to the
/// front, a miss pushes it on the front and drops the last way. Returns
/// whether it hit.
fn move_to_front<T: Copy + PartialEq>(tags: &mut [T], set: std::ops::Range<usize>, tag: T) -> bool {
    let ways = &mut tags[set];
    match ways.iter().position(|&t| t == tag) {
        Some(p) => {
            ways[..=p].rotate_right(1);
            true
        }
        None => {
            ways.rotate_right(1);
            ways[0] = tag;
            false
        }
    }
}

/// Whether the set `tags[set]` holds `tag`.
fn holds<T: PartialEq>(tags: &[T], set: std::ops::Range<usize>, tag: T) -> bool {
    tags[set].contains(&tag)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Physical memory of the test caches: 1 MiB, so they take u16 tags.
    const PHYS: u64 = 1 << 20;

    fn tiny() -> Cache {
        // 8 lines, 2 ways => 4 sets.
        Cache::new(
            CacheConfig {
                capacity: 8 * LINE_BYTES,
                ways: 2,
                latency: Cycles::new(4),
            },
            PHYS,
        )
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        let pa = PhysAddr::new(0x40);
        assert!(!c.access(pa));
        assert!(c.access(pa));
        assert_eq!(c.stats().hits(), 1);
        assert_eq!(c.stats().misses(), 1);
    }

    #[test]
    fn same_line_different_offsets_share_one_line() {
        let mut c = tiny();
        c.access(PhysAddr::new(0x100));
        assert!(c.access(PhysAddr::new(0x13f)));
        assert_eq!(c.occupancy(), 1);
    }

    #[test]
    fn lru_eviction_within_a_set() {
        let mut c = tiny(); // 4 sets; lines 0,4,8 map to set 0
        let line = |n: u64| PhysAddr::new(n * 4 * LINE_BYTES);
        c.access(line(0));
        c.access(line(1));
        c.access(line(0)); // line 1 is now LRU
        c.access(line(2)); // evicts line 1
        assert!(c.probe(line(0)));
        assert!(!c.probe(line(1)));
        assert!(c.probe(line(2)));
    }

    #[test]
    fn probe_does_not_fill() {
        let mut c = tiny();
        assert!(!c.probe(PhysAddr::new(0)));
        assert_eq!(c.occupancy(), 0);
        assert_eq!(c.stats().accesses(), 0);
        c.access(PhysAddr::new(0));
        assert!(c.probe(PhysAddr::new(0)));
    }

    #[test]
    fn touch_fills_and_promotes_without_statistics() {
        let mut c = tiny();
        let pa = PhysAddr::new(0x40);
        assert!(!c.touch(pa)); // cold: fills the line
        assert!(c.touch(pa));
        assert_eq!(c.stats().accesses(), 0);
        // The touched line is genuinely resident for later timed accesses.
        assert!(c.access(pa));
        assert_eq!(c.stats().hits(), 1);
    }

    #[test]
    fn touch_and_access_share_one_recency_order() {
        let mut c = tiny(); // 4 sets; lines 0,4,8 map to set 0
        let line = |n: u64| PhysAddr::new(n * 4 * LINE_BYTES);
        c.access(line(0));
        c.access(line(1));
        c.touch(line(0)); // line 1 is now LRU
        c.access(line(2)); // evicts line 1
        assert!(c.probe(line(0)));
        assert!(!c.probe(line(1)));
    }

    #[test]
    fn haswell_configs_have_paper_latencies() {
        assert_eq!(
            Cache::new(CacheConfig::haswell_l1d(), PHYS).latency(),
            Cycles::new(4)
        );
        assert_eq!(
            Cache::new(CacheConfig::haswell_l2(), PHYS).latency(),
            Cycles::new(12)
        );
        assert_eq!(
            Cache::new(CacheConfig::haswell_llc(32), PHYS).latency(),
            Cycles::new(50)
        );
    }

    #[test]
    fn the_llc_takes_u16_tags_from_seven_cores_and_private_levels_u32() {
        let phys = 64 << 30;
        let narrow = |config| matches!(Cache::new(config, phys).tags, Tags::Narrow(_));
        assert!(narrow(CacheConfig::haswell_llc(7)));
        assert!(narrow(CacheConfig::haswell_llc(1024)));
        assert!(!narrow(CacheConfig::haswell_llc(6)));
        assert!(!narrow(CacheConfig::haswell_l1d()));
        assert!(!narrow(CacheConfig::haswell_l2()));
        assert_eq!(CacheConfig::haswell_llc(1024).max_tag(phys), 410);
    }

    #[test]
    #[should_panic(expected = "whole number")]
    fn ragged_geometry_rejected() {
        let _ = Cache::new(
            CacheConfig {
                capacity: 3 * LINE_BYTES,
                ways: 2,
                latency: Cycles::new(1),
            },
            PHYS,
        );
    }

    proptest! {
        /// Occupancy never exceeds capacity and a just-accessed line is
        /// always resident.
        #[test]
        fn prop_capacity_respected(addrs in prop::collection::vec(0u64..0x10_0000, 1..300)) {
            let mut c = Cache::new(
                CacheConfig {
                    capacity: 64 * LINE_BYTES,
                    ways: 4,
                    latency: Cycles::new(1),
                },
                PHYS,
            );
            for &a in &addrs {
                let pa = PhysAddr::new(a);
                c.access(pa);
                prop_assert!(c.probe(pa));
                prop_assert!(c.occupancy() <= 64);
            }
            prop_assert_eq!(c.stats().accesses(), addrs.len() as u64);
        }

        /// A working set that fits in one set's ways never misses after warmup.
        #[test]
        fn prop_resident_set_never_misses(seed in 0u64..1000) {
            let mut c = tiny(); // 4 sets, 2 ways
            let a = PhysAddr::new(seed * 4 * LINE_BYTES);
            let b = PhysAddr::new((seed + 1000) * 4 * LINE_BYTES); // same set
            c.access(a);
            c.access(b);
            c.reset_stats();
            for _ in 0..10 {
                c.access(a);
                c.access(b);
            }
            prop_assert_eq!(c.stats().misses(), 0);
        }
    }
}
