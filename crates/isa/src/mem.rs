use std::cell::Cell;
use std::fmt;

use dmdc_types::{AccessSize, Addr};

const PAGE_SHIFT: u64 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;

/// Sentinel page number for an empty map slot / invalid cache entry.
/// Real page numbers never reach it (it would need an address ≥ 2^64+12).
const NO_PAGE: u64 = u64::MAX;

type Page = Box<[u8; PAGE_SIZE]>;

/// A sparse, page-granular byte-addressable memory.
///
/// Pages materialize on first touch and read as zero before that. Values are
/// little-endian. Both the functional emulator and the timing simulator's
/// committed memory use this type, so the golden-state comparison can simply
/// compare [`SparseMemory::checksum`] values.
///
/// Internally pages live in an open-addressed hash table with linear
/// probing (power-of-two capacity, ≤ 50% load), and a one-entry
/// *last-page cache* remembers the slot of the most recent lookup. Loads
/// and stores overwhelmingly hit the same page as their predecessor, so
/// the hot path is a tag compare plus an indexed slice access — no tree
/// walk, no hashing. Wide accesses that stay within one page (all
/// naturally aligned accesses do) are resolved to the page once and
/// copied as a slice instead of byte-by-byte.
///
/// # Examples
///
/// ```
/// use dmdc_isa::SparseMemory;
/// use dmdc_types::{AccessSize, Addr};
///
/// let mut m = SparseMemory::new();
/// m.write(Addr(0x1000), AccessSize::B4, 0xDEAD_BEEF);
/// assert_eq!(m.read(Addr(0x1000), AccessSize::B4), 0xDEAD_BEEF);
/// assert_eq!(m.read(Addr(0x1002), AccessSize::B2), 0xDEAD);
/// assert_eq!(m.read(Addr(0x2000), AccessSize::B8), 0, "untouched memory is zero");
/// ```
#[derive(Clone)]
pub struct SparseMemory {
    /// Open-addressed (page number, page) slots; `NO_PAGE` tags empties.
    slots: Vec<(u64, Option<Page>)>,
    /// Number of occupied slots.
    len: usize,
    /// Last-lookup cache: (page number, slot index). Interior mutability
    /// lets read paths refresh it; it is pure acceleration state — a clone
    /// copies it, which stays valid because slot layout is copied too.
    last: Cell<(u64, usize)>,
}

impl Default for SparseMemory {
    fn default() -> SparseMemory {
        SparseMemory::new()
    }
}

impl SparseMemory {
    /// Creates an empty (all-zero) memory.
    pub fn new() -> SparseMemory {
        SparseMemory {
            slots: Vec::new(),
            len: 0,
            last: Cell::new((NO_PAGE, 0)),
        }
    }

    #[inline]
    fn hash(page_no: u64, mask: usize) -> usize {
        // Fibonacci hashing spreads consecutive page numbers across slots.
        (page_no.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) as usize & mask
    }

    /// Finds the slot holding `page_no`, if present, via the last-page
    /// cache and then linear probing.
    #[inline]
    fn find(&self, page_no: u64) -> Option<usize> {
        let (cached_no, cached_slot) = self.last.get();
        if cached_no == page_no {
            return Some(cached_slot);
        }
        if self.len == 0 {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = Self::hash(page_no, mask);
        loop {
            let (tag, _) = self.slots[i];
            if tag == page_no {
                self.last.set((page_no, i));
                return Some(i);
            }
            if tag == NO_PAGE {
                return None;
            }
            i = (i + 1) & mask;
        }
    }

    /// Returns the slot index for `page_no`, allocating (and possibly
    /// rehashing) if the page does not exist yet.
    fn find_or_insert(&mut self, page_no: u64) -> usize {
        if let Some(i) = self.find(page_no) {
            return i;
        }
        // Grow at 50% load so probe chains stay short. Rehashing moves
        // every slot, so the cache is invalidated.
        if self.slots.is_empty() || (self.len + 1) * 2 > self.slots.len() {
            let new_cap = (self.slots.len() * 2).max(16);
            let old = std::mem::replace(&mut self.slots, vec![(NO_PAGE, None); new_cap]);
            self.last.set((NO_PAGE, 0));
            let mask = new_cap - 1;
            for (tag, page) in old {
                if tag != NO_PAGE {
                    let mut i = Self::hash(tag, mask);
                    while self.slots[i].0 != NO_PAGE {
                        i = (i + 1) & mask;
                    }
                    self.slots[i] = (tag, page);
                }
            }
        }
        let mask = self.slots.len() - 1;
        let mut i = Self::hash(page_no, mask);
        while self.slots[i].0 != NO_PAGE {
            i = (i + 1) & mask;
        }
        self.slots[i] = (page_no, Some(Box::new([0; PAGE_SIZE])));
        self.len += 1;
        self.last.set((page_no, i));
        i
    }

    #[inline]
    fn page(&self, page_no: u64) -> Option<&[u8; PAGE_SIZE]> {
        self.find(page_no).map(|i| {
            self.slots[i]
                .1
                .as_deref()
                .expect("occupied slot holds a page")
        })
    }

    #[inline]
    fn page_mut(&mut self, addr: Addr) -> &mut [u8; PAGE_SIZE] {
        let i = self.find_or_insert(addr.0 >> PAGE_SHIFT);
        self.slots[i]
            .1
            .as_deref_mut()
            .expect("occupied slot holds a page")
    }

    /// Reads one byte.
    #[inline]
    pub fn read_byte(&self, addr: Addr) -> u8 {
        match self.page(addr.0 >> PAGE_SHIFT) {
            Some(p) => p[(addr.0 as usize) & (PAGE_SIZE - 1)],
            None => 0,
        }
    }

    /// Writes one byte.
    #[inline]
    pub fn write_byte(&mut self, addr: Addr, value: u8) {
        let off = (addr.0 as usize) & (PAGE_SIZE - 1);
        self.page_mut(addr)[off] = value;
    }

    /// Reads a little-endian value of the given width, zero-extended to 64
    /// bits.
    #[inline]
    pub fn read(&self, addr: Addr, size: AccessSize) -> u64 {
        let bytes = size.bytes() as usize;
        let off = (addr.0 as usize) & (PAGE_SIZE - 1);
        if off + bytes <= PAGE_SIZE {
            // Single-page fast path: resolve the page once, then a
            // fixed-width little-endian load (a dynamic-length slice copy
            // would lower to a libc memcpy call per access).
            match self.page(addr.0 >> PAGE_SHIFT) {
                Some(p) => match size {
                    AccessSize::B1 => p[off] as u64,
                    AccessSize::B2 => {
                        u16::from_le_bytes(p[off..off + 2].try_into().unwrap()) as u64
                    }
                    AccessSize::B4 => {
                        u32::from_le_bytes(p[off..off + 4].try_into().unwrap()) as u64
                    }
                    AccessSize::B8 => u64::from_le_bytes(p[off..off + 8].try_into().unwrap()),
                },
                None => 0,
            }
        } else {
            let mut v = 0u64;
            for i in 0..size.bytes() {
                v |= (self.read_byte(addr + i) as u64) << (8 * i);
            }
            v
        }
    }

    /// Writes the low `size` bytes of `value`, little-endian.
    #[inline]
    pub fn write(&mut self, addr: Addr, size: AccessSize, value: u64) {
        let bytes = size.bytes() as usize;
        let off = (addr.0 as usize) & (PAGE_SIZE - 1);
        if off + bytes <= PAGE_SIZE {
            // Single-page fast path: resolve the page once, then a
            // fixed-width little-endian store (see `read` on why not a
            // dynamic-length slice copy).
            let p = self.page_mut(addr);
            match size {
                AccessSize::B1 => p[off] = value as u8,
                AccessSize::B2 => p[off..off + 2].copy_from_slice(&(value as u16).to_le_bytes()),
                AccessSize::B4 => p[off..off + 4].copy_from_slice(&(value as u32).to_le_bytes()),
                AccessSize::B8 => p[off..off + 8].copy_from_slice(&value.to_le_bytes()),
            }
        } else {
            for i in 0..size.bytes() {
                self.write_byte(addr + i, (value >> (8 * i)) as u8);
            }
        }
    }

    /// Copies a byte slice into memory starting at `addr`, page by page.
    pub fn write_bytes(&mut self, addr: Addr, bytes: &[u8]) {
        let mut addr = addr;
        let mut rest = bytes;
        while !rest.is_empty() {
            let off = (addr.0 as usize) & (PAGE_SIZE - 1);
            let chunk = rest.len().min(PAGE_SIZE - off);
            let p = self.page_mut(addr);
            p[off..off + chunk].copy_from_slice(&rest[..chunk]);
            addr = addr + chunk as u64;
            rest = &rest[chunk..];
        }
    }

    /// Number of pages that have been touched.
    pub fn page_count(&self) -> usize {
        self.len
    }

    /// All (page number, page) pairs sorted by page number. Checksums and
    /// footprint reports need a canonical order; the hot path does not.
    fn sorted_pages(&self) -> Vec<(u64, &[u8; PAGE_SIZE])> {
        let mut pages: Vec<(u64, &[u8; PAGE_SIZE])> = self
            .slots
            .iter()
            .filter(|(tag, _)| *tag != NO_PAGE)
            .map(|(tag, page)| (*tag, &**page.as_ref().expect("occupied slot holds a page")))
            .collect();
        pages.sort_unstable_by_key(|&(no, _)| no);
        pages
    }

    /// An order-independent FNV-1a checksum over all touched, non-zero
    /// content. Two memories with the same logical contents (regardless of
    /// which zero pages were materialized) produce the same checksum.
    pub fn checksum(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x1000_0000_01b3;
        let mut h = FNV_OFFSET;
        for (page_no, page) in self.sorted_pages() {
            if page.iter().all(|&b| b == 0) {
                continue; // a touched-but-zero page is indistinguishable from absent
            }
            for b in page_no.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
            }
            for &b in page.iter() {
                h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
            }
        }
        h
    }

    /// The page-aligned base addresses of all touched pages, in order.
    /// Invalidation injection samples target addresses from this footprint.
    pub fn touched_pages(&self) -> Vec<Addr> {
        self.sorted_pages()
            .into_iter()
            .map(|(no, _)| Addr(no << PAGE_SHIFT))
            .collect()
    }

    /// The raw bytes of the page containing `addr`, if it has been
    /// touched. Bulk consumers (checkpoint capture) read whole pages
    /// through this instead of issuing thousands of word-sized `read`s.
    pub fn page_bytes(&self, addr: Addr) -> Option<&[u8]> {
        self.page(addr.0 >> PAGE_SHIFT).map(|p| &p[..])
    }
}

impl fmt::Debug for SparseMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SparseMemory")
            .field("pages", &self.len)
            .field("checksum", &format_args!("{:#x}", self.checksum()))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_before_touch() {
        let m = SparseMemory::new();
        assert_eq!(m.read(Addr(0), AccessSize::B8), 0);
        assert_eq!(m.read_byte(Addr(12345)), 0);
        assert_eq!(m.page_count(), 0);
    }

    #[test]
    fn little_endian_roundtrip() {
        let mut m = SparseMemory::new();
        m.write(Addr(0x100), AccessSize::B8, 0x0102_0304_0506_0708);
        assert_eq!(m.read_byte(Addr(0x100)), 0x08);
        assert_eq!(m.read_byte(Addr(0x107)), 0x01);
        assert_eq!(m.read(Addr(0x100), AccessSize::B8), 0x0102_0304_0506_0708);
        assert_eq!(m.read(Addr(0x100), AccessSize::B4), 0x0506_0708);
    }

    #[test]
    fn narrow_write_preserves_neighbors() {
        let mut m = SparseMemory::new();
        m.write(Addr(0x200), AccessSize::B8, u64::MAX);
        m.write(Addr(0x202), AccessSize::B2, 0);
        assert_eq!(m.read(Addr(0x200), AccessSize::B8), 0xFFFF_FFFF_0000_FFFF);
    }

    #[test]
    fn cross_page_access() {
        let mut m = SparseMemory::new();
        let addr = Addr((1 << PAGE_SHIFT) - 4);
        m.write(addr, AccessSize::B8, 0xAABB_CCDD_EEFF_1122);
        assert_eq!(m.read(addr, AccessSize::B8), 0xAABB_CCDD_EEFF_1122);
        assert_eq!(m.page_count(), 2);
    }

    #[test]
    fn write_truncates_to_size() {
        let mut m = SparseMemory::new();
        m.write(Addr(0), AccessSize::B1, 0x1234);
        assert_eq!(m.read(Addr(0), AccessSize::B8), 0x34);
    }

    #[test]
    fn checksum_ignores_zero_pages() {
        let mut a = SparseMemory::new();
        let mut b = SparseMemory::new();
        a.write(Addr(0x1000), AccessSize::B4, 77);
        b.write(Addr(0x1000), AccessSize::B4, 77);
        b.write(Addr(0x9000), AccessSize::B1, 0); // touches a page with zero
        assert_eq!(a.checksum(), b.checksum());
    }

    #[test]
    fn checksum_distinguishes_content_and_location() {
        let mut a = SparseMemory::new();
        let mut b = SparseMemory::new();
        a.write(Addr(0x1000), AccessSize::B4, 77);
        b.write(Addr(0x1000), AccessSize::B4, 78);
        assert_ne!(a.checksum(), b.checksum());

        let mut c = SparseMemory::new();
        c.write(Addr(0x2000), AccessSize::B4, 77);
        assert_ne!(a.checksum(), c.checksum());
    }

    #[test]
    fn write_bytes_bulk() {
        let mut m = SparseMemory::new();
        m.write_bytes(Addr(0x10), &[1, 2, 3, 4]);
        assert_eq!(m.read(Addr(0x10), AccessSize::B4), 0x0403_0201);
    }

    #[test]
    fn write_bytes_straddles_pages() {
        let mut m = SparseMemory::new();
        let base = Addr((1 << PAGE_SHIFT) - 3);
        let data: Vec<u8> = (1..=10).collect();
        m.write_bytes(base, &data);
        for (i, &b) in data.iter().enumerate() {
            assert_eq!(m.read_byte(base + i as u64), b);
        }
        assert_eq!(m.page_count(), 2);
    }

    #[test]
    fn touched_pages_reports_footprint() {
        let mut m = SparseMemory::new();
        m.write_byte(Addr(0x1000), 1);
        m.write_byte(Addr(0x5000), 1);
        assert_eq!(m.touched_pages(), vec![Addr(0x1000), Addr(0x5000)]);
    }

    #[test]
    fn touched_pages_sorted_regardless_of_touch_order() {
        let mut m = SparseMemory::new();
        for page in [9u64, 2, 7, 1, 30, 4] {
            m.write_byte(Addr(page << PAGE_SHIFT), 1);
        }
        let pages = m.touched_pages();
        let mut sorted = pages.clone();
        sorted.sort_by_key(|a| a.0);
        assert_eq!(pages, sorted);
        assert_eq!(pages.len(), 6);
    }

    // --- fast-path-specific tests -----------------------------------------

    #[test]
    fn page_straddling_reads_and_writes_match_per_byte_path() {
        let mut m = SparseMemory::new();
        // An unaligned span crossing the page boundary exercises the
        // per-byte fallback; the bytes must land exactly where the
        // fast path would put them within each page.
        let boundary = 3u64 << PAGE_SHIFT;
        for delta in 1..8u64 {
            let addr = Addr(boundary - delta);
            let value = 0x1122_3344_5566_7788u64 ^ delta;
            m.write(addr, AccessSize::B8, value);
            assert_eq!(m.read(addr, AccessSize::B8), value, "delta {delta}");
            for i in 0..8u64 {
                assert_eq!(
                    m.read_byte(addr + i),
                    (value >> (8 * i)) as u8,
                    "delta {delta} byte {i}"
                );
            }
        }
    }

    #[test]
    fn access_ending_exactly_at_page_boundary_stays_on_fast_path() {
        // `off + bytes == PAGE_SIZE` is the fast path's edge: the access
        // touches the page's final bytes but does not straddle.
        let mut m = SparseMemory::new();
        for size in [
            AccessSize::B1,
            AccessSize::B2,
            AccessSize::B4,
            AccessSize::B8,
        ] {
            let addr = Addr((5 << PAGE_SHIFT) - size.bytes());
            let value = 0xF0E1_D2C3_B4A5_9687u64 & ((1u128 << (8 * size.bytes())) - 1) as u64;
            m.write(addr, size, value);
            assert_eq!(m.read(addr, size), value, "{size:?}");
        }
        assert_eq!(m.page_count(), 1, "boundary-ending accesses never spill");
    }

    #[test]
    fn straddling_read_zero_fills_the_unmaterialized_page() {
        let mut m = SparseMemory::new();
        // Write only the first page's half of a straddling span; the tail
        // falls on a page that never materializes and must read as zero.
        let boundary = 7u64 << PAGE_SHIFT;
        let addr = Addr(boundary - 2);
        m.write(addr, AccessSize::B2, 0xBEEF);
        assert_eq!(m.page_count(), 1);
        assert_eq!(m.read(addr, AccessSize::B8), 0xBEEF);
        assert_eq!(m.page_count(), 1, "straddling reads must not materialize");

        // And the mirror image: only the second page exists.
        let mut m = SparseMemory::new();
        m.write(Addr(boundary), AccessSize::B2, 0xCAFE);
        assert_eq!(m.read(addr, AccessSize::B4), 0xCAFE_0000);
    }

    #[test]
    fn straddling_write_then_narrow_reads_on_both_sides() {
        let mut m = SparseMemory::new();
        let boundary = 9u64 << PAGE_SHIFT;
        m.write(Addr(boundary - 4), AccessSize::B8, 0x1122_3344_5566_7788);
        // Narrow fast-path reads on each side see their half.
        assert_eq!(m.read(Addr(boundary - 4), AccessSize::B4), 0x5566_7788);
        assert_eq!(m.read(Addr(boundary), AccessSize::B4), 0x1122_3344);
        // Overwriting one side through the fast path updates the wide view.
        m.write(Addr(boundary), AccessSize::B4, 0xAABB_CCDD);
        assert_eq!(
            m.read(Addr(boundary - 4), AccessSize::B8),
            0xAABB_CCDD_5566_7788
        );
    }

    #[test]
    fn last_page_cache_survives_alternating_pages() {
        let mut m = SparseMemory::new();
        // Ping-pong between two pages: every access flips the cache, and
        // every value must still come back intact.
        for round in 0..64u64 {
            m.write(Addr(0x1000 + round * 8), AccessSize::B8, round);
            m.write(Addr(0x8000 + round * 8), AccessSize::B8, !round);
        }
        for round in 0..64u64 {
            assert_eq!(m.read(Addr(0x1000 + round * 8), AccessSize::B8), round);
            assert_eq!(m.read(Addr(0x8000 + round * 8), AccessSize::B8), !round);
        }
    }

    #[test]
    fn cache_invalidated_by_rehash_on_new_page_allocation() {
        let mut m = SparseMemory::new();
        // Fill enough pages to force several grows/rehashes; interleave
        // reads of the very first page so a stale cached slot (pointing at
        // a pre-rehash position) would be caught immediately.
        m.write(Addr(0), AccessSize::B8, 0xA5A5);
        for page in 1..200u64 {
            m.write(Addr(page << PAGE_SHIFT), AccessSize::B8, page);
            assert_eq!(m.read(Addr(0), AccessSize::B8), 0xA5A5, "after page {page}");
        }
        assert_eq!(m.page_count(), 200);
        for page in 1..200u64 {
            assert_eq!(m.read(Addr(page << PAGE_SHIFT), AccessSize::B8), page);
        }
    }

    #[test]
    fn zero_fill_semantics_preserved_on_fresh_and_partial_pages() {
        let mut m = SparseMemory::new();
        // A fresh page reads zero everywhere except the written span.
        m.write(Addr(0x2008), AccessSize::B4, 0xFFFF_FFFF);
        assert_eq!(m.read(Addr(0x2000), AccessSize::B8), 0);
        assert_eq!(m.read(Addr(0x200C), AccessSize::B4), 0);
        assert_eq!(m.read(Addr(0x2008), AccessSize::B8), 0xFFFF_FFFF);
        // Reading a never-touched page allocates nothing.
        let before = m.page_count();
        assert_eq!(m.read(Addr(0xFFFF_0000), AccessSize::B8), 0);
        assert_eq!(m.page_count(), before, "reads must not materialize pages");
    }

    #[test]
    fn clone_does_not_alias() {
        let mut a = SparseMemory::new();
        a.write(Addr(0x4000), AccessSize::B8, 42);
        let b = a.clone();
        // Divergent writes after the clone must not alias.
        a.write(Addr(0x4000), AccessSize::B8, 43);
        assert_eq!(b.read(Addr(0x4000), AccessSize::B8), 42);
        assert_eq!(a.read(Addr(0x4000), AccessSize::B8), 43);
        assert_ne!(a.checksum(), b.checksum());
    }

    #[test]
    fn many_pages_random_order_roundtrip() {
        let mut m = SparseMemory::new();
        // A multiplicative-stride page walk exercises hash collisions and
        // probe chains across several growth generations.
        let mut page = 1u64;
        for i in 0..500u64 {
            page = page
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let addr = Addr(((page >> 20) & 0xFFFFF) << PAGE_SHIFT) + (i % 512) * 8;
            m.write(addr, AccessSize::B8, i);
            assert_eq!(m.read(addr, AccessSize::B8), i);
        }
    }
}
