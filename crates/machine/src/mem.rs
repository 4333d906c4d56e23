//! Memory state shared by all contexts of one machine instance.
//!
//! Three kinds of state back the machine's memory instructions:
//!
//! - **DRAM**: one flat byte-addressed space reached through address
//!   generators (AGs). Applications place their inputs/outputs here.
//! - **SRAM regions**: on-chip scratchpads held in memory units (MUs). A
//!   region is a word array; Revet's allocator optimization (§V-B a) divides
//!   it into fixed-size thread-local buffers addressed as `ptr*stride + off`.
//! - **Allocator queues** (§V-B a): "Revet loads these pointers into a queue
//!   stored in a memory unit, so allocation pops a pointer from this queue
//!   and deallocation pushes it back". Pops block when empty, which is what
//!   produces the throughput-balanced work distribution of Fig. 14.

use crate::dram::Dram;
use crate::node::MachineError;
use revet_sltf::Word;
use std::collections::VecDeque;

/// Identifies an SRAM region.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct SramId(pub u32);

/// Identifies an allocator queue.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct AllocId(pub u32);

/// An on-chip SRAM region (one or more MUs' worth of scratchpad).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SramRegion {
    /// Backing words, zero-initialized.
    pub words: Vec<Word>,
    /// Human-readable name for reports.
    pub name: String,
}

/// An allocator queue of free buffer pointers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllocQueue {
    /// Free pointers; initialized to `0..max`.
    pub free: VecDeque<u32>,
    /// The initial pointer count (`max`); used by reports.
    pub max: u32,
    /// Name for reports.
    pub name: String,
}

/// All memory state of a running machine.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemoryState {
    /// Flat DRAM image (byte addressed). Reads like a `[u8]`; host-side
    /// writes go through [`MemoryState::write_dram`] or range indexing so
    /// the image tracks the pages it dirties (see [`Dram`]).
    pub dram: Dram,
    srams: Vec<SramRegion>,
    allocs: Vec<AllocQueue>,
    /// DRAM bytes read through AGs (statistics).
    pub dram_read_bytes: u64,
    /// DRAM bytes written through AGs (statistics).
    pub dram_written_bytes: u64,
    /// Monotonic count of allocator-queue pushes; event-driven executors
    /// compare it across a node step to detect pointer releases (the only
    /// progress-enabling state change invisible on the channel network).
    alloc_pushes: u64,
}

impl MemoryState {
    /// Creates empty memory state with a DRAM of `dram_bytes` zeroes. The
    /// image allocates nothing until something writes or borrows its bytes
    /// ([`Dram::zeroed`]), so a compile whose program is only ever
    /// instantiated never pays for it.
    pub fn with_dram_size(dram_bytes: usize) -> Self {
        MemoryState {
            dram: Dram::zeroed(dram_bytes),
            ..Default::default()
        }
    }

    /// The memory of a fresh instance of the graph that owns `self`: SRAM
    /// regions, allocator queues and statistics are copied; the DRAM image
    /// is checked out of this template's pool ([`Dram::checkout`]) — a
    /// recycled image with only its dirty pages restored when one is idle,
    /// a full copy otherwise (zeros, without backing the template, when
    /// nothing has written or borrowed the template's image) — and returns
    /// to the pool when the instance's memory is dropped.
    pub fn fresh_instance(&self) -> MemoryState {
        MemoryState {
            dram: self.dram.checkout(),
            srams: self.srams.clone(),
            allocs: self.allocs.clone(),
            dram_read_bytes: self.dram_read_bytes,
            dram_written_bytes: self.dram_written_bytes,
            alloc_pushes: self.alloc_pushes,
        }
    }

    /// Copies `bytes` into DRAM at `offset` — the one host-side overlay
    /// writer (workload inputs, per-instance `dram_inits`). Not an AG
    /// access: the read/write statistics do not move. The bounds check
    /// reads [`Dram::len`], so a rejected write leaves an unbacked image
    /// unbacked.
    ///
    /// # Errors
    ///
    /// `offset + bytes.len()` overflows or passes the end of the image;
    /// nothing is written.
    pub fn write_dram(&mut self, offset: usize, bytes: &[u8]) -> Result<(), MachineError> {
        let len = self.dram.len();
        let Some(end) = offset.checked_add(bytes.len()).filter(|&e| e <= len) else {
            return Err(MachineError::new(format!(
                "dram init [{offset}, {offset}+{}) exceeds the {len}-byte DRAM image",
                bytes.len()
            )));
        };
        self.dram[offset..end].copy_from_slice(bytes);
        Ok(())
    }

    /// Adds an SRAM region of `words` zeroed words; returns its id.
    pub fn add_sram(&mut self, name: impl Into<String>, words: usize) -> SramId {
        let id = SramId(self.srams.len() as u32);
        self.srams.push(SramRegion {
            words: vec![Word::ZERO; words],
            name: name.into(),
        });
        id
    }

    /// Adds an allocator queue initialized with pointers `0..max`.
    pub fn add_alloc(&mut self, name: impl Into<String>, max: u32) -> AllocId {
        let id = AllocId(self.allocs.len() as u32);
        self.allocs.push(AllocQueue {
            free: (0..max).collect(),
            max,
            name: name.into(),
        });
        id
    }

    /// Number of SRAM regions.
    pub fn sram_count(&self) -> usize {
        self.srams.len()
    }

    /// Number of allocator queues.
    pub fn alloc_count(&self) -> usize {
        self.allocs.len()
    }

    /// Shared view of an SRAM region.
    ///
    /// # Panics
    ///
    /// Panics on an invalid id.
    pub fn sram(&self, id: SramId) -> &SramRegion {
        &self.srams[id.0 as usize]
    }

    /// Reads an SRAM word; out-of-range reads return zero (hardware wraps;
    /// we choose the safer semantics and let the verifier catch bad sizes).
    #[inline(always)]
    pub fn sram_read(&self, id: SramId, addr: u32) -> Word {
        self.srams[id.0 as usize]
            .words
            .get(addr as usize)
            .copied()
            .unwrap_or(Word::ZERO)
    }

    /// Writes an SRAM word.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is outside the region (a compiler bug, not a program
    /// input condition).
    #[inline(always)]
    pub fn sram_write(&mut self, id: SramId, addr: u32, val: Word) {
        let region = &mut self.srams[id.0 as usize];
        let len = region.words.len();
        match region.words.get_mut(addr as usize) {
            Some(w) => *w = val,
            None => panic!(
                "SRAM write out of range: region '{}' has {} words, address {}",
                region.name, len, addr
            ),
        }
    }

    /// The allocator queue for `id`.
    ///
    /// # Panics
    ///
    /// Panics on an invalid id.
    pub fn alloc(&self, id: AllocId) -> &AllocQueue {
        &self.allocs[id.0 as usize]
    }

    /// Free-pointer count of an allocator (0 = a pop would block).
    pub fn alloc_available(&self, id: AllocId) -> usize {
        self.allocs[id.0 as usize].free.len()
    }

    /// Pops a free pointer (returns `None` when the queue is empty; callers
    /// stall rather than fail).
    pub fn alloc_pop(&mut self, id: AllocId) -> Option<u32> {
        self.allocs[id.0 as usize].free.pop_front()
    }

    /// Returns a pointer to the free queue.
    pub fn alloc_push(&mut self, id: AllocId, ptr: u32) {
        self.allocs[id.0 as usize].free.push_back(ptr);
        self.alloc_pushes += 1;
    }

    /// Lifetime count of allocator pushes (scheduler wake-up detection).
    pub fn alloc_push_ops(&self) -> u64 {
        self.alloc_pushes
    }

    // The four DRAM accessors and the two SRAM ones are
    // `#[inline(always)]`: `exec_instrs` (the simulator's and the plan's
    // thread-at-a-time path) and `exec_lanes`' column kernels call them on
    // every memory access, and whether a plain `#[inline]` is honoured
    // depends on the codegen unit: one build that added the write kernels
    // with plain `#[inline]` read `sim_timed` 2–5% slower in 4 of 5 pairs.

    /// Reads one little-endian word from DRAM (unaligned allowed). Reads past
    /// the end return zero bytes.
    #[inline(always)]
    pub fn dram_read_word(&mut self, addr: u32) -> Word {
        let a = addr as usize;
        let dram: &[u8] = &self.dram;
        let bytes = match dram.get(a..a + 4) {
            Some(&[b0, b1, b2, b3]) => [b0, b1, b2, b3],
            // Straddles the end: the missing bytes read as zero.
            _ => std::array::from_fn(|i| dram.get(a + i).copied().unwrap_or(0)),
        };
        self.dram_read_bytes += 4;
        Word(u32::from_le_bytes(bytes))
    }

    /// Writes one little-endian word to DRAM.
    ///
    /// # Panics
    ///
    /// Panics if the write goes past the end of DRAM.
    #[inline(always)]
    pub fn dram_write_word(&mut self, addr: u32, val: Word) {
        let a = addr as usize;
        assert!(
            a + 4 <= self.dram.len(),
            "DRAM word write at {} past end ({} bytes)",
            addr,
            self.dram.len()
        );
        self.dram[a..a + 4].copy_from_slice(&val.as_u32().to_le_bytes());
        self.dram_written_bytes += 4;
    }

    /// Reads one byte from DRAM (zero past the end).
    #[inline(always)]
    pub fn dram_read_byte(&mut self, addr: u32) -> Word {
        self.dram_read_bytes += 1;
        Word(self.dram.get(addr as usize).copied().unwrap_or(0) as u32)
    }

    /// Writes one byte to DRAM.
    ///
    /// # Panics
    ///
    /// Panics if the address is past the end of DRAM.
    #[inline(always)]
    pub fn dram_write_byte(&mut self, addr: u32, val: Word) {
        let a = addr as usize;
        assert!(
            a < self.dram.len(),
            "DRAM byte write at {addr} past end ({} bytes)",
            self.dram.len()
        );
        // A one-byte range, so only this byte's page is marked dirty.
        self.dram[a..=a].copy_from_slice(&[val.as_u32() as u8]);
        self.dram_written_bytes += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sram_rw() {
        let mut m = MemoryState::default();
        let s = m.add_sram("buf", 8);
        m.sram_write(s, 3, Word(42));
        assert_eq!(m.sram_read(s, 3), Word(42));
        assert_eq!(m.sram_read(s, 100), Word::ZERO);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn sram_write_oob_panics() {
        let mut m = MemoryState::default();
        let s = m.add_sram("buf", 2);
        m.sram_write(s, 2, Word(1));
    }

    #[test]
    fn alloc_queue_fifo() {
        let mut m = MemoryState::default();
        let a = m.add_alloc("ptrs", 2);
        assert_eq!(m.alloc_pop(a), Some(0));
        assert_eq!(m.alloc_pop(a), Some(1));
        assert_eq!(m.alloc_pop(a), None);
        m.alloc_push(a, 1);
        assert_eq!(m.alloc_pop(a), Some(1));
    }

    #[test]
    fn dram_word_roundtrip_and_stats() {
        let mut m = MemoryState::with_dram_size(16);
        m.dram_write_word(4, Word(0xDEADBEEF));
        assert_eq!(m.dram_read_word(4), Word(0xDEADBEEF));
        assert_eq!(m.dram_written_bytes, 4);
        assert_eq!(m.dram_read_bytes, 4);
    }

    #[test]
    fn dram_bytes() {
        let mut m = MemoryState::with_dram_size(4);
        m.dram_write_byte(1, Word(0xAB));
        assert_eq!(m.dram_read_byte(1), Word(0xAB));
        assert_eq!(m.dram_read_byte(100), Word(0)); // past end reads zero
    }

    #[test]
    fn unaligned_word_read() {
        let mut m = MemoryState::with_dram_size(8);
        m.dram_write_word(0, Word(0x04030201));
        assert_eq!(m.dram_read_word(1).as_u32() & 0xFFFFFF, 0x040302);
    }
}
