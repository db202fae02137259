//! Machine configuration: register-file geometry and word width.

use crate::reg::Reg;

/// Geometry of the machine the program runs on.
///
/// The BEC analysis and the simulator are parametric in the word width
/// (`xlen`) and the number of registers, so the paper's 4-bit motivating
/// example (Figs. 1–2) and the RV32 evaluation machine are both expressible.
///
/// ```
/// use bec_ir::MachineConfig;
/// let rv = MachineConfig::rv32();
/// assert_eq!(rv.xlen, 32);
/// assert_eq!(rv.mask(), 0xffff_ffff);
/// let toy = MachineConfig::example4();
/// assert_eq!(toy.mask(), 0xf);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct MachineConfig {
    /// Word width in bits (1..=64).
    pub xlen: u32,
    /// Number of registers in the register file.
    pub num_regs: u32,
    /// The hardwired-zero register, if the machine has one. Reads yield 0,
    /// writes are discarded, and it is excluded from the fault space.
    pub zero_reg: Option<Reg>,
}

impl MachineConfig {
    /// The RV32 configuration used for the paper's evaluation:
    /// 32-bit words, 32 registers, `x0` hardwired to zero.
    pub fn rv32() -> MachineConfig {
        MachineConfig { xlen: 32, num_regs: 32, zero_reg: Some(Reg::ZERO) }
    }

    /// The 4-bit, 4-register machine of the paper's motivating example
    /// (Figs. 1, 2 and 4). It has no hardwired zero register.
    pub fn example4() -> MachineConfig {
        MachineConfig { xlen: 4, num_regs: 4, zero_reg: None }
    }

    /// Bit mask selecting the `xlen` low bits of a `u64`.
    #[inline]
    pub fn mask(&self) -> u64 {
        if self.xlen >= 64 {
            u64::MAX
        } else {
            (1u64 << self.xlen) - 1
        }
    }

    /// Truncates a value to the machine word width.
    #[inline]
    pub fn truncate(&self, value: u64) -> u64 {
        value & self.mask()
    }

    /// Sign-extends the `xlen`-bit value `v` to a signed 64-bit integer.
    #[inline]
    pub fn sign_extend(&self, v: u64) -> i64 {
        let v = self.truncate(v);
        if self.xlen >= 64 {
            return v as i64;
        }
        let sign = 1u64 << (self.xlen - 1);
        if v & sign != 0 {
            (v | !self.mask()) as i64
        } else {
            v as i64
        }
    }

    /// Mask applied to shift amounts (RISC-V masks shifts to `log2(xlen)`
    /// bits; for non-power-of-two toy widths we mask by `xlen` via modulo).
    #[inline]
    pub fn shamt(&self, raw: u64) -> u32 {
        if self.xlen.is_power_of_two() {
            (raw as u32) & (self.xlen - 1)
        } else {
            (raw % self.xlen as u64) as u32
        }
    }

    /// Whether `r` is the hardwired zero register.
    #[inline]
    pub fn is_zero_reg(&self, r: Reg) -> bool {
        self.zero_reg == Some(r)
    }

    /// Registers that constitute the fault space `V` (all registers except a
    /// hardwired zero, which has no storage element to corrupt).
    pub fn fault_regs(&self) -> impl Iterator<Item = Reg> + '_ {
        (0..self.num_regs).map(Reg::phys).filter(|r| !self.is_zero_reg(*r))
    }

    /// Size of the spatial fault space in bits: `|V| * xlen`.
    pub fn fault_bits(&self) -> u64 {
        let regs = self.num_regs as u64 - u64::from(self.zero_reg.is_some());
        regs * self.xlen as u64
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig::rv32()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_extension_4bit() {
        let c = MachineConfig::example4();
        assert_eq!(c.sign_extend(0b0111), 7);
        assert_eq!(c.sign_extend(0b1000), -8);
        assert_eq!(c.sign_extend(0b1111), -1);
    }

    #[test]
    fn sign_extension_32bit() {
        let c = MachineConfig::rv32();
        assert_eq!(c.sign_extend(0x7fff_ffff), 0x7fff_ffff);
        assert_eq!(c.sign_extend(0x8000_0000), -(0x8000_0000i64));
        assert_eq!(c.sign_extend(0xffff_ffff), -1);
    }

    #[test]
    fn fault_space_excludes_zero_reg() {
        assert_eq!(MachineConfig::rv32().fault_bits(), 31 * 32);
        assert_eq!(MachineConfig::example4().fault_bits(), 4 * 4);
        assert_eq!(MachineConfig::rv32().fault_regs().count(), 31);
    }

    #[test]
    fn shamt_masks_power_of_two() {
        let c = MachineConfig::rv32();
        assert_eq!(c.shamt(33), 1);
        assert_eq!(c.shamt(31), 31);
        let t = MachineConfig::example4();
        assert_eq!(t.shamt(5), 1);
    }
}
