//! Execution-trace hashing and fault-outcome classification.
//!
//! Following §V of the paper, an execution trace comprises the sequence of
//! executed instructions, the side effects on memory, and the observable
//! outcomes. Register contents are architectural state, not trace events —
//! a corrupted value that never influences control flow, memory or output
//! leaves the trace unchanged (that is exactly what "masked" means).

/// A 128-bit running hash of an execution trace (two FNV-style multiply
/// streams over whole event words).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceHash {
    a: u64,
    b: u64,
}

impl Default for TraceHash {
    fn default() -> Self {
        TraceHash::new()
    }
}

const FNV_OFFSET_A: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_OFFSET_B: u64 = 0x6c62_272e_07bb_0142;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// Per-word tweak of the second stream (the byte-wise predecessor XORed
/// each byte with `0x5a`; this is the word-wide equivalent).
const B_TWEAK: u64 = 0x5a5a_5a5a_5a5a_5a5a;

impl TraceHash {
    /// The hash of the empty trace.
    pub fn new() -> TraceHash {
        TraceHash { a: FNV_OFFSET_A, b: FNV_OFFSET_B }
    }

    /// Absorbs one event word: one multiply per stream instead of the
    /// byte-wise predecessor's eight. `state ← (state ⊕ w) · p` with odd
    /// `p` is a permutation in both operands, so a single absorption is
    /// collision-free per stream; the second stream absorbs the word
    /// rotated by 32 bits so cross-word collisions would have to survive
    /// two differently-aligned carry chains.
    #[inline]
    pub fn update(&mut self, word: u64) {
        self.a = (self.a ^ word).wrapping_mul(FNV_PRIME);
        self.b = (self.b ^ word.rotate_left(32) ^ B_TWEAK).wrapping_mul(FNV_PRIME);
    }

    /// The 128-bit digest.
    pub fn digest(&self) -> u128 {
        (self.a as u128) << 64 | self.b as u128
    }

    /// The two raw stream states, for persisting a mid-trace hash state
    /// (checkpoints carry resumable hash states, not digests).
    pub(crate) fn parts(&self) -> (u64, u64) {
        (self.a, self.b)
    }

    /// Rebuilds a hash state from its persisted stream states.
    pub(crate) fn from_parts(a: u64, b: u64) -> TraceHash {
        TraceHash { a, b }
    }
}

impl std::fmt::Debug for TraceHash {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TraceHash({:016x}{:016x})", self.a, self.b)
    }
}

/// Classification of a fault-injection run against the golden run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultClass {
    /// Trace identical to the golden run: the fault was masked.
    Benign,
    /// Run completed, output matches, but the trace deviated (e.g. a
    /// different path produced the same result).
    Deviation,
    /// Run completed with wrong output: silent data corruption.
    Sdc,
    /// The machine trapped (bad memory access, wild return, …).
    Crash,
    /// The run exceeded the cycle budget.
    Hang,
}

impl FaultClass {
    /// Every class, in severity order (the campaign reports tabulate in this
    /// order).
    pub const ALL: [FaultClass; 5] = [
        FaultClass::Benign,
        FaultClass::Deviation,
        FaultClass::Sdc,
        FaultClass::Crash,
        FaultClass::Hang,
    ];

    /// Stable lowercase name used in campaign-report JSON.
    pub fn name(self) -> &'static str {
        match self {
            FaultClass::Benign => "benign",
            FaultClass::Deviation => "deviation",
            FaultClass::Sdc => "sdc",
            FaultClass::Crash => "crash",
            FaultClass::Hang => "hang",
        }
    }

    /// Inverse of [`FaultClass::name`].
    pub fn parse(name: &str) -> Option<FaultClass> {
        FaultClass::ALL.into_iter().find(|c| c.name() == name)
    }

    /// Dense index into `[u64; 5]` outcome counters (same order as `ALL`).
    pub fn index(self) -> usize {
        self as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_traces_hash_equal() {
        let mut h1 = TraceHash::new();
        let mut h2 = TraceHash::new();
        for v in [1u64, 99, 0xdead_beef] {
            h1.update(v);
            h2.update(v);
        }
        assert_eq!(h1, h2);
        assert_eq!(h1.digest(), h2.digest());
    }

    #[test]
    fn different_traces_hash_differently() {
        let mut h1 = TraceHash::new();
        let mut h2 = TraceHash::new();
        h1.update(1);
        h2.update(2);
        assert_ne!(h1, h2);
        // Order matters.
        let mut h3 = TraceHash::new();
        let mut h4 = TraceHash::new();
        h3.update(1);
        h3.update(2);
        h4.update(2);
        h4.update(1);
        assert_ne!(h3, h4);
    }

    #[test]
    fn empty_prefix_differs_from_any_update() {
        let empty = TraceHash::new();
        let mut h = TraceHash::new();
        h.update(0);
        assert_ne!(empty, h);
    }
}
