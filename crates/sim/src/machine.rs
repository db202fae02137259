//! Machine state: register file, memory, and the fault-injection hook.

use bec_ir::program::{DATA_BASE, STACK_TOP};
use bec_ir::{MachineConfig, Program, Reg};

/// A single-event upset: flip `bit` of `reg` immediately before the
/// instruction at `cycle` executes.
///
/// Cycle numbering counts executed instructions (unconditional jumps are
/// zero-cost fallthroughs and do not consume cycles — DESIGN.md §2). The
/// fault-site window "after point `p`" therefore corresponds to
/// `cycle = cycle_of(p) + 1`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct FaultSpec {
    /// Cycle before which the bit flips.
    pub cycle: u64,
    /// Target register.
    pub reg: Reg,
    /// Bit position (LSB = 0).
    pub bit: u32,
}

/// Byte-addressed flat memory with bounds checking.
#[derive(Clone, Debug)]
pub struct Memory {
    bytes: Vec<u8>,
}

impl Memory {
    /// Memory initialized from the program's global data segment.
    pub fn for_program(program: &Program) -> Memory {
        let limit = if program.config.xlen >= 20 {
            STACK_TOP as usize
        } else {
            1usize << program.config.xlen
        };
        let mut bytes = vec![0u8; limit];
        let mut addr = DATA_BASE as usize;
        for g in &program.globals {
            if addr + g.size as usize <= bytes.len() {
                bytes[addr..addr + g.init.len()].copy_from_slice(&g.init);
            }
            addr += ((g.size + 3) & !3) as usize;
        }
        Memory { bytes }
    }

    /// Size in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the memory has zero size.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Little-endian load of `size` bytes (1, 2 or 4). `None` on a bounds
    /// violation.
    #[inline]
    pub fn load(&self, addr: u64, size: u64) -> Option<u64> {
        let addr = addr as usize;
        let bytes = self.bytes.get(addr..addr.checked_add(size as usize)?)?;
        Some(match *bytes {
            [b] => u64::from(b),
            [b0, b1] => u64::from(u16::from_le_bytes([b0, b1])),
            [b0, b1, b2, b3] => u64::from(u32::from_le_bytes([b0, b1, b2, b3])),
            // Widths no instruction issues go byte by byte.
            _ => bytes.iter().rev().fold(0, |v, &b| v << 8 | u64::from(b)),
        })
    }

    /// The aligned 32-bit word at word index `widx` (little-endian). Bytes
    /// past the end of a tiny memory read as zero, so word-granular
    /// checkpoint deltas work on machines whose memory is smaller than one
    /// word.
    #[inline]
    pub fn word(&self, widx: u32) -> u32 {
        let base = widx as usize * 4;
        let mut le = [0u8; 4];
        match self.bytes.get(base..base + 4) {
            Some(bytes) => le.copy_from_slice(bytes),
            None => {
                let tail = self.bytes.get(base..).unwrap_or(&[]);
                le[..tail.len()].copy_from_slice(tail);
            }
        }
        u32::from_le_bytes(le)
    }

    /// Overwrites the aligned 32-bit word at word index `widx`, ignoring
    /// bytes past the end of the memory (mirror of [`Memory::word`]).
    #[inline]
    pub fn set_word(&mut self, widx: u32, value: u32) {
        let base = widx as usize * 4;
        let le = value.to_le_bytes();
        if let Some(bytes) = self.bytes.get_mut(base..base + 4) {
            bytes.copy_from_slice(&le);
        } else if let Some(tail) = self.bytes.get_mut(base..) {
            tail.copy_from_slice(&le[..tail.len()]);
        }
    }

    /// Little-endian store of `size` bytes. `false` on a bounds violation.
    #[inline]
    pub fn store(&mut self, addr: u64, size: u64, value: u64) -> bool {
        let addr = addr as usize;
        let end = addr.checked_add(size as usize);
        let Some(bytes) = end.and_then(|end| self.bytes.get_mut(addr..end)) else {
            return false;
        };
        match bytes.len() {
            1 => bytes[0] = value as u8,
            2 => bytes.copy_from_slice(&(value as u16).to_le_bytes()),
            4 => bytes.copy_from_slice(&(value as u32).to_le_bytes()),
            // Widths no instruction issues go byte by byte.
            _ => {
                for (i, b) in bytes.iter_mut().enumerate() {
                    *b = (value >> (8 * i)) as u8;
                }
            }
        }
        true
    }
}

/// The architectural machine state.
#[derive(Clone, Debug)]
pub struct Machine {
    config: MachineConfig,
    regs: Vec<u64>,
    /// Byte-addressed memory.
    pub memory: Memory,
}

impl Machine {
    /// Fresh state for `program`: registers zeroed, memory holding the
    /// global data, `sp` at the stack top on 32-register machines.
    pub fn new(program: &Program) -> Machine {
        let config = program.config;
        let mut m = Machine {
            config,
            regs: vec![0; config.num_regs as usize],
            memory: Memory::for_program(program),
        };
        if config.num_regs == 32 {
            m.write(Reg::SP, config.truncate(STACK_TOP));
        }
        m
    }

    /// Reads a register (the hardwired zero register reads 0).
    #[inline]
    pub fn read(&self, r: Reg) -> u64 {
        if self.config.is_zero_reg(r) {
            return 0;
        }
        self.regs[r.index() as usize]
    }

    /// Writes a register (writes to the hardwired zero register vanish).
    #[inline]
    pub fn write(&mut self, r: Reg, v: u64) {
        if self.config.is_zero_reg(r) {
            return;
        }
        self.regs[r.index() as usize] = self.config.truncate(v);
    }

    /// Injects a fault: flips `bit` of `reg`. Flips into the hardwired zero
    /// register are physically impossible and ignored.
    #[inline]
    pub fn flip(&mut self, reg: Reg, bit: u32) {
        if self.config.is_zero_reg(reg) || bit >= self.config.xlen {
            return;
        }
        let i = reg.index() as usize;
        self.regs[i] ^= 1 << bit;
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// The full register file, for checkpoint capture and state comparison.
    pub fn regs(&self) -> &[u64] {
        &self.regs
    }

    /// Restores the register file from a checkpoint snapshot.
    ///
    /// # Panics
    ///
    /// Panics if `regs` was captured on a machine with a different register
    /// count.
    pub fn restore_regs(&mut self, regs: &[u64]) {
        assert_eq!(regs.len(), self.regs.len(), "register snapshot from a different machine");
        self.regs.copy_from_slice(regs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bec_ir::program::Global;

    fn program_with_global() -> Program {
        let mut p = Program::new(MachineConfig::rv32());
        p.globals.push(Global::words("g", &[0xdead_beef]));
        p.functions.push(bec_ir::Function::new("main", bec_ir::Signature::void(0)));
        p
    }

    #[test]
    fn memory_initializes_globals() {
        let m = Memory::for_program(&program_with_global());
        assert_eq!(m.load(DATA_BASE, 4), Some(0xdead_beef));
        assert_eq!(m.load(DATA_BASE, 1), Some(0xef));
        assert_eq!(m.load(DATA_BASE + 2, 2), Some(0xdead));
    }

    #[test]
    fn memory_bounds_are_checked() {
        let mut m = Memory::for_program(&program_with_global());
        let end = m.len() as u64;
        assert_eq!(m.load(end - 4, 4), Some(0));
        assert_eq!(m.load(end - 3, 4), None);
        assert!(!m.store(end, 1, 1));
        assert!(m.store(end - 4, 4, 7));
        assert_eq!(m.load(end - 4, 4), Some(7));
    }

    #[test]
    fn zero_register_semantics() {
        let p = program_with_global();
        let mut m = Machine::new(&p);
        m.write(Reg::ZERO, 99);
        assert_eq!(m.read(Reg::ZERO), 0);
        m.flip(Reg::ZERO, 3);
        assert_eq!(m.read(Reg::ZERO), 0);
        m.write(Reg::T0, 5);
        m.flip(Reg::T0, 1);
        assert_eq!(m.read(Reg::T0), 7);
    }

    #[test]
    fn writes_truncate_to_xlen() {
        let mut p = program_with_global();
        p.config = MachineConfig::example4();
        p.globals.clear();
        let mut m = Machine::new(&p);
        m.write(Reg::phys(1), 0x13);
        assert_eq!(m.read(Reg::phys(1)), 3);
    }

    /// The byte-wise definition of a little-endian load.
    fn load_bytewise(bytes: &[u8], addr: usize, size: usize) -> Option<u64> {
        if addr.checked_add(size)? > bytes.len() {
            return None;
        }
        Some((0..size).rev().fold(0, |v, i| v << 8 | u64::from(bytes[addr + i])))
    }

    /// The byte-wise definition of [`Memory::word`]: bytes past the end
    /// read as zero.
    fn word_bytewise(bytes: &[u8], widx: usize) -> u32 {
        (0..4)
            .rev()
            .fold(0, |v, i| v << 8 | u32::from(bytes.get(widx * 4 + i).copied().unwrap_or(0)))
    }

    /// The word-wide accessors agree with the byte-wise definitions at
    /// every offset near both ends of memory, for every access width, on
    /// memories whose size is a word multiple (including the 16-byte
    /// `example4` memory) and on ones ending in a partial word.
    #[test]
    fn word_wide_accessors_match_bytewise_definition() {
        let mut ex4 = program_with_global();
        ex4.config = MachineConfig::example4();
        ex4.globals.clear();
        let mut small = Memory::for_program(&ex4);
        assert_eq!(small.len(), 16);
        for (i, b) in small.bytes.iter_mut().enumerate() {
            *b = (i * 37 + 11) as u8;
        }
        let patterned =
            |len: usize| Memory { bytes: (0..len).map(|i| (i * 37 + 11) as u8).collect() };
        let value = 0x8765_4321_fedc_ba98u64;
        for m in [small, patterned(64), patterned(6), patterned(3)] {
            let len = m.len();
            for addr in (0..len.min(12)).chain(len.saturating_sub(12)..len + 8) {
                for size in [1, 2, 4] {
                    let load = m.load(addr as u64, size as u64);
                    assert_eq!(
                        load,
                        load_bytewise(&m.bytes, addr, size),
                        "load {addr}+{size} of {len}"
                    );
                    let mut stored = m.clone();
                    let mut want = m.bytes.clone();
                    let fits = addr + size <= len;
                    if fits {
                        for i in 0..size {
                            want[addr + i] = (value >> (8 * i)) as u8;
                        }
                    }
                    assert_eq!(stored.store(addr as u64, size as u64, value), fits);
                    assert_eq!(stored.bytes, want, "store {addr}+{size} of {len}");
                }
            }
            for widx in 0..len / 4 + 3 {
                assert_eq!(
                    m.word(widx as u32),
                    word_bytewise(&m.bytes, widx),
                    "word {widx} of {len}"
                );
                let mut set = m.clone();
                set.set_word(widx as u32, value as u32);
                let mut want = m.bytes.clone();
                for i in 0..4 {
                    if let Some(b) = want.get_mut(widx * 4 + i) {
                        *b = (value >> (8 * i)) as u8;
                    }
                }
                assert_eq!(set.bytes, want, "set_word {widx} of {len}");
            }
        }
        // On the 16-byte machine the word past the end reads as zero and
        // writes to it vanish.
        let mut m = Memory::for_program(&ex4);
        m.set_word(4, u32::MAX);
        assert_eq!(m.word(4), 0);
        assert!(m.bytes.iter().all(|&b| b == 0));
    }

    #[test]
    fn small_machines_get_small_memory() {
        let mut p = program_with_global();
        p.config = MachineConfig::example4();
        p.globals.clear();
        let m = Memory::for_program(&p);
        assert_eq!(m.len(), 16);
    }
}
