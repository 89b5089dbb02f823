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
//!
//! A node is stored as the hardware stores it: a dense array of 512 PTE
//! words. A word packs a present bit, a leaf bit and a payload — the
//! child's node index for a table pointer, the frame number for a leaf.

use crate::phys::PhysMemory;
use nocstar_types::{PageSize, PhysAddr, PhysPageNum, VirtAddr, VirtPageNum};
use std::ops::Deref;

const FANOUT_BITS: u32 = 9;
const FANOUT: usize = 1 << FANOUT_BITS;
const FANOUT_MASK: u64 = (1 << FANOUT_BITS) - 1;
const PTE_BYTES: u64 = 8;
/// Levels of the radix tree (PML4, PDPT, PD, PT).
pub const LEVELS: usize = 4;

/// PTE word bit: the entry is valid.
const PRESENT: u64 = 1;
/// PTE word bit: the entry maps a frame (else it points to a table).
const LEAF: u64 = 2;
/// The payload sits above the two flag bits.
const PAYLOAD_SHIFT: u32 = 2;
/// The root (PML4) node's index.
const ROOT: usize = 0;

/// One node: 512 packed PTE words; `0` is a hole.
type Node = [u64; FANOUT];

/// A decoded PTE word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    Hole,
    /// Pointer to a lower-level table node.
    Table(usize),
    /// Terminal mapping to a frame number (page size implied by depth).
    Leaf(u64),
}

impl Slot {
    #[inline]
    fn decode(pte: u64) -> Self {
        let payload = pte >> PAYLOAD_SHIFT;
        match pte & (PRESENT | LEAF) {
            0 => Slot::Hole,
            PRESENT => Slot::Table(payload as usize),
            _ => Slot::Leaf(payload),
        }
    }

    fn table(child: usize) -> u64 {
        (child as u64) << PAYLOAD_SHIFT | PRESENT
    }

    fn leaf(frame: PhysPageNum) -> u64 {
        frame.number() << PAYLOAD_SHIFT | LEAF | PRESENT
    }
}

/// Up to [`LEVELS`] values, one per radix level a walk read, stored
/// inline. Dereferences to the slice of the levels read.
#[derive(Debug, Clone, Copy)]
pub struct PerLevel<T> {
    items: [T; LEVELS],
    len: u8,
}

impl<T: Copy> PerLevel<T> {
    /// An empty list whose unused slots hold `fill`.
    pub(crate) fn empty(fill: T) -> Self {
        Self {
            items: [fill; LEVELS],
            len: 0,
        }
    }

    /// Appends the next level's value.
    ///
    /// # Panics
    ///
    /// Panics past [`LEVELS`] values.
    pub(crate) fn push(&mut self, value: T) {
        self.items[usize::from(self.len)] = value;
        self.len += 1;
    }
}

impl<T> Deref for PerLevel<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.items[..usize::from(self.len)]
    }
}

impl<'a, T> IntoIterator for &'a PerLevel<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<T: PartialEq> PartialEq for PerLevel<T> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<T: Eq> Eq for PerLevel<T> {}

/// The outcome of walking one virtual address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalkOutcome {
    /// Physical addresses of the PTEs read, in walk order. Populated even
    /// for failed walks (the walker reads until it finds a hole).
    pub pte_addrs: PerLevel<PhysAddr>,
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
/// assert_eq!(pt.translate(VirtAddr::new(0x20_1234)), walk.mapping);
/// ```
#[derive(Debug, Clone)]
pub struct PageTable {
    /// Node `n`'s PTE words.
    nodes: Vec<Node>,
    /// Node `n`'s frame in simulated physical memory.
    frames: Vec<PhysPageNum>,
    mapped_pages: u64,
}

impl PageTable {
    /// Creates an empty table, allocating its root node.
    pub fn new(phys: &mut PhysMemory) -> Self {
        let mut table = Self {
            nodes: Vec::new(),
            frames: Vec::new(),
            mapped_pages: 0,
        };
        table.push_node(phys.alloc(PageSize::Size4K), [0; FANOUT]);
        table
    }

    /// Appends a node backed by `frame`; returns its index.
    fn push_node(&mut self, frame: PhysPageNum, ptes: Node) -> usize {
        self.nodes.push(ptes);
        self.frames.push(frame);
        self.nodes.len() - 1
    }

    /// The radix index of `va` at `level` (0 is the PML4).
    #[inline]
    fn index(va: VirtAddr, level: usize) -> usize {
        let shift = 12 + FANOUT_BITS * (LEVELS - 1 - level) as u32;
        ((va.value() >> shift) & FANOUT_MASK) as usize
    }

    /// The depth (0-based level index) at which a leaf of `size` lives.
    fn leaf_depth(size: PageSize) -> usize {
        size.walk_levels() - 1
    }

    /// The page size of a leaf at `depth`.
    #[inline]
    fn leaf_size(depth: usize) -> PageSize {
        match depth {
            1 => PageSize::Size1G,
            2 => PageSize::Size2M,
            3 => PageSize::Size4K,
            _ => unreachable!("no leaves at the PML4 level"),
        }
    }

    #[inline]
    fn slot(&self, node: usize, index: usize) -> Slot {
        Slot::decode(self.nodes[node][index])
    }

    fn pte_addr(&self, node: usize, index: usize) -> PhysAddr {
        self.frames[node].base().offset(index as u64 * PTE_BYTES)
    }

    /// Walks `va`, recording the PTE reads a hardware walker would issue.
    pub fn walk(&self, va: VirtAddr) -> WalkOutcome {
        let mut pte_addrs = PerLevel::empty(PhysAddr::default());
        let mapping = self.resolve(va, |node, i| pte_addrs.push(self.pte_addr(node, i)));
        WalkOutcome { pte_addrs, mapping }
    }

    /// The translation [`walk`](Self::walk) finds, without computing the
    /// PTE addresses; `None` if `va` is unmapped.
    pub fn translate(&self, va: VirtAddr) -> Option<(VirtPageNum, PhysPageNum)> {
        self.resolve(va, |_, _| {})
    }

    /// Follows `va` down the tree, calling `read(node, index)` for each
    /// PTE read, until it reaches a leaf or a hole.
    #[inline]
    fn resolve(
        &self,
        va: VirtAddr,
        mut read: impl FnMut(usize, usize),
    ) -> Option<(VirtPageNum, PhysPageNum)> {
        let mut node = ROOT;
        for depth in 0..LEVELS {
            let i = Self::index(va, depth);
            read(node, i);
            match self.slot(node, i) {
                Slot::Table(child) => node = child,
                Slot::Leaf(frame) => {
                    let size = Self::leaf_size(depth);
                    return Some((va.page_number(size), PhysPageNum::new(frame, size)));
                }
                Slot::Hole => return None,
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
        let va = vpn.base();
        let mut node = ROOT;
        for level in 0..depth {
            let i = Self::index(va, level);
            node = match self.slot(node, i) {
                Slot::Table(child) => child,
                Slot::Leaf(_) => {
                    panic!("mapping {vpn} conflicts with an existing superpage leaf")
                }
                Slot::Hole => {
                    let child = self.push_node(phys.alloc(PageSize::Size4K), [0; FANOUT]);
                    self.nodes[node][i] = Slot::table(child);
                    child
                }
            };
        }
        let i = Self::index(va, depth);
        match self.slot(node, i) {
            Slot::Leaf(existing) => PhysPageNum::new(existing, size),
            Slot::Table(_) => {
                panic!("mapping {vpn} conflicts with finer-grained existing mappings")
            }
            Slot::Hole => {
                let frame = phys.alloc(size);
                self.nodes[node][i] = Slot::leaf(frame);
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
        self.nodes[node][index] = Slot::leaf(frame);
        Some(frame)
    }

    /// Removes a mapping; returns whether it existed.
    pub fn unmap(&mut self, vpn: VirtPageNum) -> bool {
        match self.leaf_slot(vpn) {
            Some((node, index)) => {
                self.nodes[node][index] = 0;
                self.mapped_pages -= 1;
                true
            }
            None => false,
        }
    }

    /// The table node at `depth` on `va`'s path, if every pointer above
    /// it is present.
    fn node_at(&self, va: VirtAddr, depth: usize) -> Option<usize> {
        let mut node = ROOT;
        for level in 0..depth {
            match self.slot(node, Self::index(va, level)) {
                Slot::Table(child) => node = child,
                _ => return None,
            }
        }
        Some(node)
    }

    fn leaf_slot(&self, vpn: VirtPageNum) -> Option<(usize, usize)> {
        let depth = Self::leaf_depth(vpn.page_size());
        let va = vpn.base();
        let node = self.node_at(va, depth)?;
        let index = Self::index(va, depth);
        match self.slot(node, index) {
            Slot::Leaf(_) => Some((node, index)),
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
        let va = vpn_2m.base();
        let node = self.node_at(va, 2)?;
        let pd_index = Self::index(va, 2);
        let Slot::Table(pt_node) = self.slot(node, pd_index) else {
            return None;
        };
        let base_4k = vpn_2m.to_base_pages();
        let stale: Vec<VirtPageNum> = (0..FANOUT)
            .filter(|&i| self.nodes[pt_node][i] != 0)
            .map(|i| VirtPageNum::new(base_4k + i as u64, PageSize::Size4K))
            .collect();
        self.mapped_pages -= stale.len() as u64;
        let frame = phys.alloc(PageSize::Size2M);
        self.nodes[node][pd_index] = Slot::leaf(frame);
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
        let base_frame = phys.alloc(PageSize::Size2M).to_base_pages(); // 512 contiguous 4K frames
        let ptes: Node = std::array::from_fn(|i| {
            Slot::leaf(PhysPageNum::new(base_frame + i as u64, PageSize::Size4K))
        });
        let pt_node = self.push_node(pt_frame, ptes);
        self.nodes[node][index] = Slot::table(pt_node);
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
