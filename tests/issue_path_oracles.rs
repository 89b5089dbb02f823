//! Equivalence oracles for the flat issue-path structures.
//!
//! `SetAssocTlb` keeps every set in one flat array in move-to-front order,
//! `PageTable` keeps every node as a dense array of packed PTE words, and
//! `Cache` keeps every set's 2- or 4-byte tags in move-to-front order.
//! Each is checked here against an independent model of the layout it
//! replaced, which keeps the behaviour the simulator's reports were pinned
//! with:
//!
//! * [`StampTlb`]: one `Vec` of ways per set, each way stamped with the
//!   clock tick it was inserted and last used at, victims chosen by the
//!   minimum stamp (LRU, FIFO) or the same xorshift64* stream (Random);
//! * [`RefPageTable`]: radix nodes as `BTreeMap<u16, Slot>`;
//! * [`StampLru`]: a whole-line u64 tag and a last-use stamp per way.
//!
//! Random operation sequences drive the model and the real structure side
//! by side, and every returned value must agree.

use nocstar::mem::cache::{Cache, CacheConfig, LINE_BYTES};
use nocstar::mem::page_table::PageTable;
use nocstar::mem::phys::PhysMemory;
use nocstar::tlb::{ReplacementPolicy, SetAssocTlb, TlbEntry};
use nocstar::types::{Asid, PageSize, PhysAddr, PhysPageNum, VirtAddr, VirtPageNum};
use proptest::prelude::*;
use std::collections::BTreeMap;

const SIZES: [PageSize; 3] = [PageSize::Size4K, PageSize::Size2M, PageSize::Size1G];
const POLICIES: [ReplacementPolicy; 3] = [
    ReplacementPolicy::Lru,
    ReplacementPolicy::Fifo,
    ReplacementPolicy::Random,
];

// ---------------------------------------------------------------------------
// TLB array model: per-set vectors of stamped ways.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
struct Way {
    entry: TlbEntry,
    inserted: u64,
    used: u64,
}

/// The per-set-`Vec`, per-way-stamp array with the public surface of
/// [`SetAssocTlb`].
#[derive(Debug)]
struct StampTlb {
    sets: Vec<Vec<Way>>,
    ways: usize,
    policy: ReplacementPolicy,
    clock: u64,
    rng: u64,
    hits: u64,
    misses: u64,
    index_divisor: u64,
}

impl StampTlb {
    fn new(entries: usize, ways: usize, policy: ReplacementPolicy) -> Self {
        Self {
            sets: vec![Vec::new(); entries / ways],
            ways,
            policy,
            clock: 0,
            rng: 0x9e37_79b9_7f4a_7c15,
            hits: 0,
            misses: 0,
            index_divisor: 1,
        }
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    fn set_index(&self, vpn: VirtPageNum) -> usize {
        ((vpn.number() / self.index_divisor) % self.sets.len() as u64) as usize
    }

    fn touch(&mut self, asid: Asid, vpn: VirtPageNum) -> Option<TlbEntry> {
        let set = self.set_index(vpn);
        let stamp = self.tick();
        let way = self.sets[set]
            .iter_mut()
            .find(|w| w.entry.matches(asid, vpn))?;
        way.used = stamp;
        Some(way.entry)
    }

    fn lookup(&mut self, asid: Asid, vpn: VirtPageNum) -> Option<TlbEntry> {
        let found = self.touch(asid, vpn);
        match found {
            Some(_) => self.hits += 1,
            None => self.misses += 1,
        }
        found
    }

    fn probe(&self, asid: Asid, vpn: VirtPageNum) -> Option<TlbEntry> {
        self.sets[self.set_index(vpn)]
            .iter()
            .find(|w| w.entry.matches(asid, vpn))
            .map(|w| w.entry)
    }

    fn victim(&mut self, set: usize) -> usize {
        let ways = &self.sets[set];
        let oldest = |key: fn(&Way) -> u64| {
            (0..ways.len())
                .min_by_key(|&i| key(&ways[i]))
                .unwrap_or_default()
        };
        match self.policy {
            ReplacementPolicy::Lru => oldest(|w| w.used),
            ReplacementPolicy::Fifo => oldest(|w| w.inserted),
            ReplacementPolicy::Random => {
                self.rng ^= self.rng >> 12;
                self.rng ^= self.rng << 25;
                self.rng ^= self.rng >> 27;
                (self.rng.wrapping_mul(0x2545_f491_4f6c_dd1d) % ways.len() as u64) as usize
            }
        }
    }

    fn insert(&mut self, entry: TlbEntry) -> Option<TlbEntry> {
        let set = self.set_index(entry.vpn());
        let stamp = self.tick();
        if let Some(way) = self.sets[set]
            .iter_mut()
            .find(|w| w.entry.matches(entry.asid(), entry.vpn()))
        {
            way.entry = entry;
            way.used = stamp;
            return None;
        }
        let fresh = Way {
            entry,
            inserted: stamp,
            used: stamp,
        };
        if self.sets[set].len() < self.ways {
            self.sets[set].push(fresh);
            return None;
        }
        let victim = self.victim(set);
        Some(std::mem::replace(&mut self.sets[set][victim], fresh).entry)
    }

    fn retain(&mut self, keep: impl Fn(&TlbEntry) -> bool) -> usize {
        let mut dropped = 0;
        for set in &mut self.sets {
            let before = set.len();
            set.retain(|w| keep(&w.entry));
            dropped += before - set.len();
        }
        dropped
    }

    fn invalidate(&mut self, asid: Asid, vpn: VirtPageNum) -> bool {
        let set = self.set_index(vpn);
        let before = self.sets[set].len();
        self.sets[set].retain(|w| !w.entry.matches(asid, vpn));
        self.sets[set].len() != before
    }

    fn occupancy(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }
}

/// Globals live at VPNs from here up and non-global entries below it, so
/// no set ever holds two entries that match one `(asid, vpn)` key — a
/// state the simulator never creates and the two layouts resolve by
/// different ways.
const GLOBAL_VPN: u64 = 20;

/// An operation `(kind, asid, vpn, size)`; `kind` picks the method.
type TlbOp = (u8, u16, u64, usize);

fn tlb_key((_, asid, vpn, size): TlbOp) -> (Asid, VirtPageNum) {
    (Asid::new(asid), VirtPageNum::new(vpn, SIZES[size]))
}

fn tlb_entry(op: TlbOp) -> TlbEntry {
    let (asid, vpn) = tlb_key(op);
    let ppn = PhysPageNum::new(vpn.number() * 7 + u64::from(op.1), vpn.page_size());
    if vpn.number() >= GLOBAL_VPN {
        TlbEntry::new_global(vpn, ppn)
    } else {
        TlbEntry::new(asid, vpn, ppn)
    }
}

/// Applies one operation to both arrays and checks that they agree.
fn check_tlb_op(
    tlb: &mut SetAssocTlb,
    model: &mut StampTlb,
    op: TlbOp,
) -> Result<(), TestCaseError> {
    let (asid, vpn) = tlb_key(op);
    match op.0 {
        0..=5 => prop_assert_eq!(tlb.lookup(asid, vpn), model.lookup(asid, vpn), "lookup"),
        6..=8 => prop_assert_eq!(tlb.touch(asid, vpn), model.touch(asid, vpn), "touch"),
        9..=10 => prop_assert_eq!(tlb.probe(asid, vpn), model.probe(asid, vpn), "probe"),
        11..=19 => {
            let entry = tlb_entry(op);
            prop_assert_eq!(tlb.insert(entry), model.insert(entry), "insert {}", entry);
        }
        20..=21 => prop_assert_eq!(
            tlb.invalidate(asid, vpn),
            model.invalidate(asid, vpn),
            "invalidate"
        ),
        22 => prop_assert_eq!(
            tlb.invalidate_asid(asid),
            model.retain(|e| e.is_global() || e.asid() != asid),
            "invalidate_asid"
        ),
        23 => prop_assert_eq!(
            tlb.flush_non_global(),
            model.retain(|e| e.is_global()),
            "flush_non_global"
        ),
        _ => prop_assert_eq!(tlb.flush_all(), model.retain(|_| false), "flush_all"),
    }
    prop_assert_eq!(tlb.occupancy(), model.occupancy());
    prop_assert_eq!(
        (tlb.stats().hits(), tlb.stats().misses()),
        (model.hits, model.misses)
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The flat move-to-front array returns, evicts and counts exactly
    /// what the stamped per-set model does, under every policy.
    #[test]
    fn flat_tlb_matches_the_stamp_model(
        policy in 0usize..3,
        sets in 1usize..5,
        ways in 1usize..6,
        divisor in 1u64..4,
        ops in prop::collection::vec((0u8..25, 1u16..4, 0u64..30, 0usize..3), 1..400),
    ) {
        let policy = POLICIES[policy];
        let mut tlb = SetAssocTlb::new(sets * ways, ways, policy);
        let mut model = StampTlb::new(sets * ways, ways, policy);
        tlb.set_index_divisor(divisor);
        model.index_divisor = divisor;
        for &op in &ops {
            check_tlb_op(&mut tlb, &mut model, op)?;
        }
        // The arrays end with the same contents.
        for vpn in 0..30 {
            for size in 0..3 {
                for asid in 1..4 {
                    let (asid, vpn) = tlb_key((0, asid, vpn, size));
                    prop_assert_eq!(tlb.probe(asid, vpn), model.probe(asid, vpn));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Page-table model: radix nodes as sparse B-tree maps.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum Slot {
    Table(usize),
    Leaf(PhysPageNum),
}

#[derive(Debug)]
struct RefNode {
    frame: PhysPageNum,
    entries: BTreeMap<u16, Slot>,
}

/// The `BTreeMap`-node page table with the public surface of
/// [`PageTable`]; it allocates frames in the same order.
#[derive(Debug)]
struct RefPageTable {
    nodes: Vec<RefNode>,
    mapped_pages: u64,
}

impl RefPageTable {
    fn new(phys: &mut PhysMemory) -> Self {
        Self {
            nodes: vec![RefNode {
                frame: phys.alloc(PageSize::Size4K),
                entries: BTreeMap::new(),
            }],
            mapped_pages: 0,
        }
    }

    fn indices(va: VirtAddr) -> [u16; 4] {
        std::array::from_fn(|level| ((va.value() >> (12 + 9 * (3 - level))) & 511) as u16)
    }

    fn depth(size: PageSize) -> usize {
        size.walk_levels() - 1
    }

    /// `walk`'s PTE addresses and mapping.
    fn walk(&self, va: VirtAddr) -> (Vec<PhysAddr>, Option<(VirtPageNum, PhysPageNum)>) {
        let mut addrs = Vec::new();
        let mut node = 0;
        for (depth, i) in Self::indices(va).into_iter().enumerate() {
            addrs.push(self.nodes[node].frame.base().offset(u64::from(i) * 8));
            match self.nodes[node].entries.get(&i) {
                Some(Slot::Table(child)) => node = *child,
                Some(Slot::Leaf(ppn)) => {
                    let size = SIZES[3 - depth];
                    return (addrs, Some((va.page_number(size), *ppn)));
                }
                None => return (addrs, None),
            }
        }
        (addrs, None)
    }

    /// The node `depth` levels down `va`'s path, if it exists.
    fn node_at(&self, va: VirtAddr, depth: usize) -> Option<usize> {
        let mut node = 0;
        for i in Self::indices(va).into_iter().take(depth) {
            match self.nodes[node].entries.get(&i) {
                Some(Slot::Table(child)) => node = *child,
                _ => return None,
            }
        }
        Some(node)
    }

    /// Whether `map(vpn)` would meet a mapping of another size (and
    /// panic in either table).
    fn map_conflicts(&self, vpn: VirtPageNum) -> bool {
        let depth = Self::depth(vpn.page_size());
        let idx = Self::indices(vpn.base());
        let mut node = 0;
        for (level, i) in idx.into_iter().enumerate() {
            match self.nodes[node].entries.get(&i) {
                Some(Slot::Table(child)) if level < depth => node = *child,
                Some(Slot::Table(_)) => return true,
                Some(Slot::Leaf(_)) => return level < depth,
                None => return false,
            }
        }
        false
    }

    fn map(&mut self, vpn: VirtPageNum, phys: &mut PhysMemory) -> PhysPageNum {
        let depth = Self::depth(vpn.page_size());
        let idx = Self::indices(vpn.base());
        let mut node = 0;
        for &i in idx.iter().take(depth) {
            node = match self.nodes[node].entries.get(&i) {
                Some(Slot::Table(child)) => *child,
                Some(Slot::Leaf(_)) => panic!("mapping {vpn} conflicts with a superpage"),
                None => {
                    let child = self.nodes.len();
                    self.nodes.push(RefNode {
                        frame: phys.alloc(PageSize::Size4K),
                        entries: BTreeMap::new(),
                    });
                    self.nodes[node].entries.insert(i, Slot::Table(child));
                    child
                }
            };
        }
        match self.nodes[node].entries.get(&idx[depth]) {
            Some(Slot::Leaf(existing)) => return *existing,
            Some(Slot::Table(_)) => panic!("mapping {vpn} conflicts with smaller pages"),
            None => {}
        }
        let frame = phys.alloc(vpn.page_size());
        self.nodes[node]
            .entries
            .insert(idx[depth], Slot::Leaf(frame));
        self.mapped_pages += 1;
        frame
    }

    fn leaf_slot(&self, vpn: VirtPageNum) -> Option<(usize, u16)> {
        let depth = Self::depth(vpn.page_size());
        let node = self.node_at(vpn.base(), depth)?;
        let i = Self::indices(vpn.base())[depth];
        match self.nodes[node].entries.get(&i) {
            Some(Slot::Leaf(_)) => Some((node, i)),
            _ => None,
        }
    }

    fn remap(&mut self, vpn: VirtPageNum, phys: &mut PhysMemory) -> Option<PhysPageNum> {
        let (node, i) = self.leaf_slot(vpn)?;
        let frame = phys.alloc(vpn.page_size());
        self.nodes[node].entries.insert(i, Slot::Leaf(frame));
        Some(frame)
    }

    fn unmap(&mut self, vpn: VirtPageNum) -> bool {
        let Some((node, i)) = self.leaf_slot(vpn) else {
            return false;
        };
        self.nodes[node].entries.remove(&i);
        self.mapped_pages -= 1;
        true
    }

    fn promote(&mut self, vpn_2m: VirtPageNum, phys: &mut PhysMemory) -> Option<Vec<VirtPageNum>> {
        let node = self.node_at(vpn_2m.base(), 2)?;
        let pd_index = Self::indices(vpn_2m.base())[2];
        let Some(Slot::Table(pt)) = self.nodes[node].entries.get(&pd_index) else {
            return None;
        };
        let base = vpn_2m.to_base_pages();
        let stale: Vec<VirtPageNum> = self.nodes[*pt]
            .entries
            .keys()
            .map(|&i| VirtPageNum::new(base + u64::from(i), PageSize::Size4K))
            .collect();
        self.mapped_pages -= stale.len() as u64;
        let frame = phys.alloc(PageSize::Size2M);
        self.nodes[node].entries.insert(pd_index, Slot::Leaf(frame));
        self.mapped_pages += 1;
        Some(stale)
    }

    fn demote(&mut self, vpn_2m: VirtPageNum, phys: &mut PhysMemory) -> Option<VirtPageNum> {
        let (node, i) = self.leaf_slot(vpn_2m)?;
        let frame = phys.alloc(PageSize::Size4K);
        let base = phys.alloc(PageSize::Size2M).to_base_pages();
        let entries = (0..512u16)
            .map(|k| {
                let ppn = PhysPageNum::new(base + u64::from(k), PageSize::Size4K);
                (k, Slot::Leaf(ppn))
            })
            .collect();
        self.nodes.push(RefNode { frame, entries });
        let pt = self.nodes.len() - 1;
        self.nodes[node].entries.insert(i, Slot::Table(pt));
        self.mapped_pages += 511;
        Some(vpn_2m)
    }
}

/// An operation `(kind, gib, (region_2m, page_4k), size)` over a small
/// address space: two 1 GiB regions, four 2 MiB regions in each, eight
/// 4 KiB pages at the start of each 2 MiB region.
type PtOp = (u8, u64, (u64, u64), usize);

fn pt_vpn((_, gib, (m2, k4), size): PtOp) -> VirtPageNum {
    VirtAddr::new((gib << 30) | (m2 << 21) | (k4 << 12)).page_number(SIZES[size])
}

/// Applies one operation to both tables and checks that they agree.
fn check_pt_op(
    pt: &mut PageTable,
    model: &mut RefPageTable,
    phys: &mut PhysMemory,
    model_phys: &mut PhysMemory,
    op: PtOp,
) -> Result<(), TestCaseError> {
    let vpn = pt_vpn(op);
    let vpn_2m = vpn.base().page_number(PageSize::Size2M);
    match op.0 {
        0..=5 => {
            if !model.map_conflicts(vpn) {
                prop_assert_eq!(pt.map(vpn, phys), model.map(vpn, model_phys), "map {}", vpn);
            }
        }
        6 => prop_assert_eq!(pt.remap(vpn, phys), model.remap(vpn, model_phys), "remap"),
        7 => prop_assert_eq!(pt.unmap(vpn), model.unmap(vpn), "unmap"),
        8 => prop_assert_eq!(
            pt.promote(vpn_2m, phys),
            model.promote(vpn_2m, model_phys),
            "promote {}",
            vpn_2m
        ),
        _ => prop_assert_eq!(
            pt.demote(vpn_2m, phys),
            model.demote(vpn_2m, model_phys),
            "demote {}",
            vpn_2m
        ),
    }
    prop_assert_eq!(pt.mapped_pages(), model.mapped_pages);
    prop_assert_eq!(pt.node_count(), model.nodes.len());
    Ok(())
}

/// Checks `walk` and `translate` of one address against the model.
fn check_pt_address(
    pt: &PageTable,
    model: &RefPageTable,
    va: VirtAddr,
) -> Result<(), TestCaseError> {
    let walk = pt.walk(va);
    let (addrs, mapping) = model.walk(va);
    prop_assert_eq!(&walk.pte_addrs[..], &addrs[..], "PTE addresses of {}", va);
    prop_assert_eq!(walk.mapping, mapping, "walk of {}", va);
    prop_assert_eq!(pt.translate(va), mapping, "translate of {}", va);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The dense packed-node table maps, walks, translates, promotes and
    /// demotes exactly as the sparse B-tree-node table does.
    #[test]
    fn dense_page_table_matches_the_btree_model(
        ops in prop::collection::vec((0u8..10, 0u64..2, (0u64..4, 0u64..8), 0usize..3), 1..80),
        probes in prop::collection::vec((0u64..2, 0u64..4, 0u64..8, 0u64..4096), 8..9),
    ) {
        let mut phys = PhysMemory::new(1 << 40);
        let mut model_phys = PhysMemory::new(1 << 40);
        let mut pt = PageTable::new(&mut phys);
        let mut model = RefPageTable::new(&mut model_phys);
        for &op in &ops {
            check_pt_op(&mut pt, &mut model, &mut phys, &mut model_phys, op)?;
            check_pt_address(&pt, &model, pt_vpn(op).base())?;
        }
        for &(gib, m2, k4, offset) in &probes {
            let va = VirtAddr::new((gib << 30) | (m2 << 21) | (k4 << 12) | offset);
            check_pt_address(&pt, &model, va)?;
        }
        // An address past every mapped region stops at a hole.
        check_pt_address(&pt, &model, VirtAddr::new(7 << 39))?;
    }
}

// ---------------------------------------------------------------------------
// Data-cache model: whole-line tags with per-way LRU stamps.
// ---------------------------------------------------------------------------

/// The stamp-based LRU cache level the move-to-front tags replaced: per
/// way a whole-line u64 tag and a last-use stamp, the victim chosen by a
/// scan for an invalid way, else the oldest stamp.
struct StampLru {
    ways: usize,
    num_sets: u64,
    tags: Vec<u64>,
    stamps: Vec<u64>,
    clock: u64,
    hits: u64,
    misses: u64,
}

impl StampLru {
    fn new(config: CacheConfig) -> Self {
        let lines = (config.capacity / LINE_BYTES) as usize;
        Self {
            ways: config.ways,
            num_sets: (lines / config.ways) as u64,
            tags: vec![u64::MAX; lines],
            stamps: vec![0; lines],
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    fn set(&self, pa: PhysAddr) -> (std::ops::Range<usize>, u64) {
        let line = pa.value() / LINE_BYTES;
        let base = (line % self.num_sets) as usize * self.ways;
        (base..base + self.ways, line)
    }

    fn touch(&mut self, pa: PhysAddr) -> bool {
        let (set, line) = self.set(pa);
        self.clock += 1;
        if let Some(w) = set.clone().find(|&w| self.tags[w] == line) {
            self.stamps[w] = self.clock;
            return true;
        }
        // A set has at least one way, so the minimum exists.
        let victim = set
            .clone()
            .min_by_key(|&w| {
                if self.tags[w] == u64::MAX {
                    0
                } else {
                    self.stamps[w]
                }
            })
            .unwrap_or(set.start);
        self.tags[victim] = line;
        self.stamps[victim] = self.clock;
        false
    }

    fn access(&mut self, pa: PhysAddr) -> bool {
        let hit = self.touch(pa);
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        hit
    }

    fn probe(&self, pa: PhysAddr) -> bool {
        let (set, line) = self.set(pa);
        self.tags[set].contains(&line)
    }

    fn occupancy(&self) -> usize {
        self.tags.iter().filter(|&&t| t != u64::MAX).count()
    }
}

/// One operation of a cache oracle stream: 0 = access, 1 = touch,
/// 2 = probe, on a physical address.
type CacheOp = (u8, u64);

/// Replays `ops` on a `Cache` built for `phys` bytes of physical memory,
/// as `MemorySystem::new` builds its levels, and on the stamp model, and
/// fails on the first disagreement.
fn cache_agrees_with_stamp_lru(
    config: CacheConfig,
    phys: u64,
    ops: &[CacheOp],
) -> Result<(), TestCaseError> {
    let mut cache = Cache::new(config, phys);
    let mut model = StampLru::new(config);
    for (i, &(op, addr)) in ops.iter().enumerate() {
        prop_assert!(addr < phys, "op {} leaves physical memory", i);
        let pa = PhysAddr::new(addr);
        let (got, want) = match op {
            0 => (cache.access(pa), model.access(pa)),
            1 => (cache.touch(pa), model.touch(pa)),
            _ => (cache.probe(pa), model.probe(pa)),
        };
        prop_assert_eq!(got, want, "op {} ({}) on {:#x}", i, op, addr);
        prop_assert_eq!(cache.occupancy(), model.occupancy(), "after op {}", i);
        prop_assert_eq!(cache.stats().hits(), model.hits, "after op {}", i);
        prop_assert_eq!(cache.stats().misses(), model.misses, "after op {}", i);
    }
    Ok(())
}

fn cache_geometry(ways: usize, sets: u64) -> CacheConfig {
    CacheConfig {
        capacity: sets * ways as u64 * LINE_BYTES,
        ways,
        latency: nocstar::types::time::Cycles::new(1),
    }
}

/// The physical memory whose top line gets tag `max_tag` in a cache of
/// `sets` sets (a line's tag is `line / sets + 1`).
fn phys_with_max_tag(sets: u64, max_tag: u64) -> u64 {
    max_tag * sets * LINE_BYTES
}

#[test]
fn rehitting_the_lru_way_of_a_full_set_matches_the_stamp_model() {
    for ways in [1usize, 2, 4, 16] {
        // One set: lines 0..ways fill it, line 0 is then the LRU way.
        let line = |n: u64| n * LINE_BYTES;
        let mut ops: Vec<CacheOp> = (0..ways as u64).map(|n| (0, line(n))).collect();
        ops.push((0, line(0))); // hit at the last position
        ops.push((0, line(ways as u64))); // evicts line 1, not line 0
        ops.extend((0..=ways as u64).map(|n| (2, line(n))));
        cache_agrees_with_stamp_lru(cache_geometry(ways, 1), 1 << 20, &ops).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Move-to-front tags of either width agree with stamp-based LRU on
    /// every return value, on occupancy and on statistics. The physical
    /// memory picks the width: 1 MiB gives u16 tags, 1 GiB over one set
    /// needs u32.
    #[test]
    fn cache_matches_the_stamp_model(
        ways in prop::sample::select(vec![1usize, 2, 4, 16]),
        sets in prop::sample::select(vec![1u64, 2, 4]),
        phys in prop::sample::select(vec![1u64 << 20, 1 << 30]),
        ops in prop::collection::vec((0u8..3, 0u64..3 * 4 * 16, 0u64..LINE_BYTES), 1..400),
    ) {
        // At most three times as many distinct lines as the largest
        // cache holds, so sets overflow and evict; a high bit spreads
        // some of them to the top of physical memory.
        let span = 3 * sets * ways as u64;
        let ops: Vec<CacheOp> = ops
            .iter()
            .map(|&(op, line, offset)| {
                let top = if line % 2 == 0 { phys / 2 } else { 0 };
                (op, top + (line % span) * LINE_BYTES + offset)
            })
            .collect();
        cache_agrees_with_stamp_lru(cache_geometry(ways, sets), phys, &ops)?;
    }

    /// Tags at the u16 boundary: a physical memory whose top tag is
    /// exactly `u16::MAX` keeps u16 tags, one line more needs u32, and
    /// either way the largest tags, tag 1 and everything between agree
    /// with the model.
    #[test]
    fn cache_tags_at_the_u16_boundary_match_the_stamp_model(
        ways in prop::sample::select(vec![1usize, 2, 4]),
        sets in prop::sample::select(vec![1u64, 2, 3]),
        past in 0u64..2,
        ops in prop::collection::vec((0u8..3, 0u64..6, 0u64..3), 1..300),
    ) {
        let max_tag = u64::from(u16::MAX) + past;
        let phys = phys_with_max_tag(sets, max_tag);
        let tags = [1, 2, 3, max_tag - 2, max_tag - 1, max_tag];
        let ops: Vec<CacheOp> = ops
            .iter()
            .map(|&(op, t, set)| {
                let line = (tags[t as usize] - 1) * sets + set % sets;
                (op, line * LINE_BYTES)
            })
            .collect();
        cache_agrees_with_stamp_lru(cache_geometry(ways, sets), phys, &ops)?;
    }
}
