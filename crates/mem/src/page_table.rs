//! A 4-level x86-64-style radix page table, built in simulated physical
//! memory.
//!
//! Each table node occupies a real (simulated) 4 KiB frame, so every PTE
//! the walker reads has a physical address to send through the cache
//! hierarchy — this is what makes the paper's "variable" page-walk latency
//! emerge from cache behaviour rather than being a constant.
//!
//! Leaves may sit at three depths: PT (4 KiB pages), PD (2 MiB), or PDPT
//! (1 GiB). [`PageTable::promote`] and [`PageTable::demote`] convert
//! between 4 KiB and 2 MiB mappings, as the transparent-huge-page storm
//! microbenchmark (paper §V) does continuously.

use crate::phys::PhysMemory;
use nocstar_types::{PageSize, PhysAddr, PhysPageNum, VirtAddr, VirtPageNum};
use std::collections::BTreeMap;

const FANOUT_BITS: u32 = 9;
const FANOUT_MASK: u64 = (1 << FANOUT_BITS) - 1;
const PTE_BYTES: u64 = 8;
/// Levels of the radix tree (PML4, PDPT, PD, PT).
pub const LEVELS: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    /// Pointer to a lower-level table node.
    Table(usize),
    /// Terminal mapping to a physical frame (page size implied by depth).
    Leaf(PhysPageNum),
}

#[derive(Debug, Clone)]
struct Node {
    frame: PhysPageNum,
    entries: BTreeMap<u16, Slot>,
}

/// The outcome of walking one virtual address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalkOutcome {
    /// Physical addresses of the PTEs read, in walk order. Populated even
    /// for failed walks (the walker reads until it finds a hole).
    pub pte_addrs: Vec<PhysAddr>,
    /// The translation found, if the address is mapped.
    pub mapping: Option<(VirtPageNum, PhysPageNum)>,
}

/// One address space's page table.
///
/// # Examples
///
/// ```
/// use nocstar_mem::page_table::PageTable;
/// use nocstar_mem::phys::PhysMemory;
/// use nocstar_types::{PageSize, VirtAddr};
///
/// let mut phys = PhysMemory::new(1 << 30);
/// let mut pt = PageTable::new(&mut phys);
/// let vpn = VirtAddr::new(0x20_0000).page_number(PageSize::Size2M);
/// pt.map(vpn, &mut phys);
/// let walk = pt.walk(VirtAddr::new(0x20_1234));
/// assert_eq!(walk.pte_addrs.len(), 3); // superpage leaf at the PD level
/// assert_eq!(walk.mapping.unwrap().0, vpn);
/// ```
#[derive(Debug, Clone)]
pub struct PageTable {
    nodes: Vec<Node>,
    root: usize,
    mapped_pages: u64,
}

impl PageTable {
    /// Creates an empty table, allocating its root node.
    pub fn new(phys: &mut PhysMemory) -> Self {
        let root_frame = phys.alloc(PageSize::Size4K);
        Self {
            nodes: vec![Node {
                frame: root_frame,
                entries: BTreeMap::new(),
            }],
            root: 0,
            mapped_pages: 0,
        }
    }

    /// The radix index at each level for a virtual address.
    fn indices(va: VirtAddr) -> [u16; LEVELS] {
        let mut idx = [0u16; LEVELS];
        for (level, slot) in idx.iter_mut().enumerate() {
            let shift = 12 + FANOUT_BITS * (LEVELS - 1 - level) as u32;
            *slot = ((va.value() >> shift) & FANOUT_MASK) as u16;
        }
        idx
    }

    /// The depth (0-based level index) at which a leaf of `size` lives.
    fn leaf_depth(size: PageSize) -> usize {
        size.walk_levels() - 1
    }

    fn pte_addr(&self, node: usize, index: u16) -> PhysAddr {
        self.nodes[node]
            .frame
            .base()
            .offset(u64::from(index) * PTE_BYTES)
    }

    /// Walks `va`, recording the PTE reads a hardware walker would issue.
    pub fn walk(&self, va: VirtAddr) -> WalkOutcome {
        let idx = Self::indices(va);
        let mut pte_addrs = Vec::with_capacity(LEVELS);
        let mut node = self.root;
        for (depth, &i) in idx.iter().enumerate() {
            pte_addrs.push(self.pte_addr(node, i));
            match self.nodes[node].entries.get(&i) {
                Some(Slot::Table(child)) => node = *child,
                Some(Slot::Leaf(ppn)) => {
                    let size = match depth {
                        1 => PageSize::Size1G,
                        2 => PageSize::Size2M,
                        3 => PageSize::Size4K,
                        _ => unreachable!("no leaves at the PML4 level"),
                    };
                    return WalkOutcome {
                        pte_addrs,
                        mapping: Some((va.page_number(size), *ppn)),
                    };
                }
                None => {
                    return WalkOutcome {
                        pte_addrs,
                        mapping: None,
                    }
                }
            }
        }
        unreachable!("PT-level entries are always leaves")
    }

    /// Maps `vpn` to a freshly allocated frame, creating intermediate
    /// nodes as needed. Returns the frame (the existing one if `vpn` was
    /// already mapped at the same size).
    ///
    /// # Panics
    ///
    /// Panics if the region is already mapped at a *different* page size —
    /// overlapping mixed-size mappings are an OS bug the simulator refuses
    /// to model.
    pub fn map(&mut self, vpn: VirtPageNum, phys: &mut PhysMemory) -> PhysPageNum {
        let size = vpn.page_size();
        let depth = Self::leaf_depth(size);
        let idx = Self::indices(vpn.base());
        let mut node = self.root;
        for &i in idx.iter().take(depth) {
            node = match self.nodes[node].entries.get(&i) {
                Some(Slot::Table(child)) => *child,
                Some(Slot::Leaf(_)) => {
                    panic!("mapping {vpn} conflicts with an existing superpage leaf")
                }
                None => {
                    let frame = phys.alloc(PageSize::Size4K);
                    let child = self.nodes.len();
                    self.nodes.push(Node {
                        frame,
                        entries: BTreeMap::new(),
                    });
                    self.nodes[node].entries.insert(i, Slot::Table(child));
                    child
                }
            };
        }
        match self.nodes[node].entries.get(&idx[depth]) {
            Some(Slot::Leaf(existing)) => *existing,
            Some(Slot::Table(_)) => {
                panic!("mapping {vpn} conflicts with finer-grained existing mappings")
            }
            None => {
                let frame = phys.alloc(size);
                self.nodes[node]
                    .entries
                    .insert(idx[depth], Slot::Leaf(frame));
                self.mapped_pages += 1;
                frame
            }
        }
    }

    /// Points an existing mapping at a fresh frame (an OS page migration /
    /// copy-on-write-style remap). Returns the new frame, or `None` if the
    /// page was not mapped.
    pub fn remap(&mut self, vpn: VirtPageNum, phys: &mut PhysMemory) -> Option<PhysPageNum> {
        let (node, index) = self.leaf_slot(vpn)?;
        let frame = phys.alloc(vpn.page_size());
        self.nodes[node].entries.insert(index, Slot::Leaf(frame));
        Some(frame)
    }

    /// Removes a mapping; returns whether it existed.
    pub fn unmap(&mut self, vpn: VirtPageNum) -> bool {
        match self.leaf_slot(vpn) {
            Some((node, index)) => {
                self.nodes[node].entries.remove(&index);
                self.mapped_pages -= 1;
                true
            }
            None => false,
        }
    }

    fn leaf_slot(&self, vpn: VirtPageNum) -> Option<(usize, u16)> {
        let depth = Self::leaf_depth(vpn.page_size());
        let idx = Self::indices(vpn.base());
        let mut node = self.root;
        for &i in idx.iter().take(depth) {
            match self.nodes[node].entries.get(&i) {
                Some(Slot::Table(child)) => node = *child,
                _ => return None,
            }
        }
        match self.nodes[node].entries.get(&idx[depth]) {
            Some(Slot::Leaf(_)) => Some((node, idx[depth])),
            _ => None,
        }
    }

    /// Promotes the 512 4 KiB pages under `vpn_2m` into one 2 MiB mapping,
    /// allocating a fresh superpage frame. Returns the 4 KiB pages whose
    /// translations became stale (the OS must shoot these down), or `None`
    /// if no PT node existed there.
    pub fn promote(
        &mut self,
        vpn_2m: VirtPageNum,
        phys: &mut PhysMemory,
    ) -> Option<Vec<VirtPageNum>> {
        assert_eq!(
            vpn_2m.page_size(),
            PageSize::Size2M,
            "promote takes a 2M page"
        );
        let idx = Self::indices(vpn_2m.base());
        let mut node = self.root;
        for &i in idx.iter().take(2) {
            match self.nodes[node].entries.get(&i) {
                Some(Slot::Table(child)) => node = *child,
                _ => return None,
            }
        }
        let pd_index = idx[2];
        let pt_node = match self.nodes[node].entries.get(&pd_index) {
            Some(Slot::Table(pt)) => *pt,
            _ => return None,
        };
        let base_4k = vpn_2m.to_base_pages();
        let stale: Vec<VirtPageNum> = self.nodes[pt_node]
            .entries
            .keys()
            .map(|&i| VirtPageNum::new(base_4k + u64::from(i), PageSize::Size4K))
            .collect();
        self.mapped_pages -= stale.len() as u64;
        let frame = phys.alloc(PageSize::Size2M);
        self.nodes[node].entries.insert(pd_index, Slot::Leaf(frame));
        self.mapped_pages += 1;
        // The PT node's frame leaks in simulated memory, exactly like an OS
        // that defers freeing page-table pages; the simulator never reuses it.
        Some(stale)
    }

    /// Demotes a 2 MiB mapping back into 512 4 KiB mappings with fresh
    /// frames. Returns the stale 2 MiB page to shoot down, or `None` if
    /// `vpn_2m` was not a 2 MiB leaf.
    pub fn demote(&mut self, vpn_2m: VirtPageNum, phys: &mut PhysMemory) -> Option<VirtPageNum> {
        assert_eq!(
            vpn_2m.page_size(),
            PageSize::Size2M,
            "demote takes a 2M page"
        );
        let (node, index) = self.leaf_slot(vpn_2m)?;
        let pt_frame = phys.alloc(PageSize::Size4K);
        let pt_node = self.nodes.len();
        let base_frame = phys.alloc(PageSize::Size2M); // 512 contiguous 4K frames
        let entries: BTreeMap<u16, Slot> = (0..512u16)
            .map(|i| {
                (
                    i,
                    Slot::Leaf(PhysPageNum::new(
                        base_frame.to_base_pages() + u64::from(i),
                        PageSize::Size4K,
                    )),
                )
            })
            .collect();
        self.nodes.push(Node {
            frame: pt_frame,
            entries,
        });
        self.nodes[node].entries.insert(index, Slot::Table(pt_node));
        self.mapped_pages += 511; // -1 superpage, +512 base pages
        Some(vpn_2m)
    }

    /// Number of leaf mappings currently present.
    pub fn mapped_pages(&self) -> u64 {
        self.mapped_pages
    }

    /// Number of table nodes (root + interior + PT nodes).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn setup() -> (PhysMemory, PageTable) {
        let mut phys = PhysMemory::new(8 << 30);
        let pt = PageTable::new(&mut phys);
        (phys, pt)
    }

    #[test]
    fn walk_of_unmapped_address_fails_at_the_root() {
        let (_, pt) = setup();
        let walk = pt.walk(VirtAddr::new(0x1234));
        assert!(walk.mapping.is_none());
        assert_eq!(walk.pte_addrs.len(), 1); // read the PML4 entry, found hole
    }

    #[test]
    fn mapping_a_4k_page_yields_a_four_level_walk() {
        let (mut phys, mut pt) = setup();
        let vpn = VirtAddr::new(0x7654_3210).page_number(PageSize::Size4K);
        let frame = pt.map(vpn, &mut phys);
        let walk = pt.walk(VirtAddr::new(0x7654_3213));
        assert_eq!(walk.pte_addrs.len(), 4);
        assert_eq!(walk.mapping, Some((vpn, frame)));
        // Four nodes: PML4 + PDPT + PD + PT.
        assert_eq!(pt.node_count(), 4);
    }

    #[test]
    fn superpage_walks_stop_early() {
        let (mut phys, mut pt) = setup();
        let v2m = VirtAddr::new(0x4000_0000).page_number(PageSize::Size2M);
        pt.map(v2m, &mut phys);
        assert_eq!(pt.walk(VirtAddr::new(0x4000_1000)).pte_addrs.len(), 3);

        let v1g = VirtAddr::new(0x1_0000_0000).page_number(PageSize::Size1G);
        pt.map(v1g, &mut phys);
        assert_eq!(pt.walk(VirtAddr::new(0x1_2345_6789)).pte_addrs.len(), 2);
    }

    #[test]
    fn mapping_is_idempotent() {
        let (mut phys, mut pt) = setup();
        let vpn = VirtAddr::new(0x1000).page_number(PageSize::Size4K);
        let a = pt.map(vpn, &mut phys);
        let b = pt.map(vpn, &mut phys);
        assert_eq!(a, b);
        assert_eq!(pt.mapped_pages(), 1);
    }

    #[test]
    fn adjacent_pages_share_interior_nodes() {
        let (mut phys, mut pt) = setup();
        pt.map(
            VirtAddr::new(0x1000).page_number(PageSize::Size4K),
            &mut phys,
        );
        pt.map(
            VirtAddr::new(0x2000).page_number(PageSize::Size4K),
            &mut phys,
        );
        assert_eq!(pt.node_count(), 4); // same PML4/PDPT/PD/PT path
                                        // Their PTEs sit in the same PT frame, 8 bytes apart.
        let w1 = pt.walk(VirtAddr::new(0x1000));
        let w2 = pt.walk(VirtAddr::new(0x2000));
        assert_eq!(w2.pte_addrs[3].value() - w1.pte_addrs[3].value(), PTE_BYTES);
    }

    #[test]
    fn remap_changes_the_frame() {
        let (mut phys, mut pt) = setup();
        let vpn = VirtAddr::new(0x5000).page_number(PageSize::Size4K);
        let old = pt.map(vpn, &mut phys);
        let new = pt.remap(vpn, &mut phys).unwrap();
        assert_ne!(old, new);
        assert_eq!(pt.walk(VirtAddr::new(0x5000)).mapping.unwrap().1, new);
        assert!(pt
            .remap(
                VirtAddr::new(0x9000).page_number(PageSize::Size4K),
                &mut phys
            )
            .is_none());
    }

    #[test]
    fn unmap_removes_the_leaf() {
        let (mut phys, mut pt) = setup();
        let vpn = VirtAddr::new(0x5000).page_number(PageSize::Size4K);
        pt.map(vpn, &mut phys);
        assert!(pt.unmap(vpn));
        assert!(!pt.unmap(vpn));
        assert!(pt.walk(VirtAddr::new(0x5000)).mapping.is_none());
    }

    #[test]
    fn promote_collapses_4k_pages_into_a_superpage() {
        let (mut phys, mut pt) = setup();
        let v2m = VirtAddr::new(0x20_0000).page_number(PageSize::Size2M);
        // Map 512 base pages underneath it.
        for i in 0..512u64 {
            pt.map(
                VirtPageNum::new(v2m.to_base_pages() + i, PageSize::Size4K),
                &mut phys,
            );
        }
        let stale = pt.promote(v2m, &mut phys).unwrap();
        assert_eq!(stale.len(), 512);
        assert_eq!(pt.mapped_pages(), 1);
        let walk = pt.walk(VirtAddr::new(0x20_0000));
        assert_eq!(walk.mapping.unwrap().0, v2m);
        assert_eq!(walk.pte_addrs.len(), 3);
    }

    #[test]
    fn demote_splits_a_superpage() {
        let (mut phys, mut pt) = setup();
        let v2m = VirtAddr::new(0x20_0000).page_number(PageSize::Size2M);
        pt.map(v2m, &mut phys);
        let stale = pt.demote(v2m, &mut phys).unwrap();
        assert_eq!(stale, v2m);
        assert_eq!(pt.mapped_pages(), 512);
        let walk = pt.walk(VirtAddr::new(0x20_3000));
        assert_eq!(walk.pte_addrs.len(), 4);
        assert_eq!(walk.mapping.unwrap().0.page_size(), PageSize::Size4K);
    }

    #[test]
    fn promote_then_demote_round_trips_structure() {
        let (mut phys, mut pt) = setup();
        let v2m = VirtAddr::new(0x20_0000).page_number(PageSize::Size2M);
        for i in 0..512u64 {
            pt.map(
                VirtPageNum::new(v2m.to_base_pages() + i, PageSize::Size4K),
                &mut phys,
            );
        }
        pt.promote(v2m, &mut phys).unwrap();
        pt.demote(v2m, &mut phys).unwrap();
        assert_eq!(pt.mapped_pages(), 512);
        assert!(pt.walk(VirtAddr::new(0x20_0000)).mapping.is_some());
    }

    #[test]
    #[should_panic(expected = "conflicts")]
    fn mixed_size_overlap_panics() {
        let (mut phys, mut pt) = setup();
        pt.map(
            VirtAddr::new(0x20_0000).page_number(PageSize::Size2M),
            &mut phys,
        );
        pt.map(
            VirtAddr::new(0x20_0000).page_number(PageSize::Size4K),
            &mut phys,
        );
    }

    proptest! {
        /// Every mapped page walks back to the frame map() returned, and
        /// PTE addresses are frame-aligned reads within table nodes.
        #[test]
        fn prop_map_walk_round_trip(pages in prop::collection::vec(0u64..1_000_000, 1..100)) {
            let mut phys = PhysMemory::new(32 << 30);
            let mut pt = PageTable::new(&mut phys);
            let mut expect = std::collections::BTreeMap::new();
            for &p in &pages {
                let vpn = VirtPageNum::new(p, PageSize::Size4K);
                let frame = pt.map(vpn, &mut phys);
                expect.insert(p, frame);
            }
            for (&p, &frame) in &expect {
                let walk = pt.walk(VirtAddr::new(p << 12));
                let (vpn, got) = walk.mapping.expect("mapped page must walk");
                prop_assert_eq!(got, frame);
                prop_assert_eq!(vpn.number(), p);
                prop_assert_eq!(walk.pte_addrs.len(), 4);
                for pa in &walk.pte_addrs {
                    prop_assert_eq!(pa.value() % PTE_BYTES, 0);
                }
            }
            prop_assert_eq!(pt.mapped_pages(), expect.len() as u64);
        }
    }
}
