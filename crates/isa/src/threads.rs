//! Shared-memory multi-threaded execution over per-core [`Emulator`]s, and
//! the operational memory-model reference executor.
//!
//! Two pieces live here:
//!
//! * [`SharedSystem`] — N emulators (one per core, each running its own
//!   [`Program`]) stepping against one shared [`SparseMemory`]. A core
//!   executes by swapping the shared image into its emulator, stepping, and
//!   swapping it back out, so every core's loads and stores hit the same
//!   bytes with exact single-core semantics. This is both the functional
//!   substrate the multi-core timing simulator checks against and the state
//!   the reference enumerator explores.
//! * [`enumerate_outcomes`] — an *operational* sequential-consistency
//!   reference in the spirit of Zhang et al.'s instantaneous-instruction
//!   framework: instructions execute atomically in some interleaving of the
//!   per-core program orders, and the executor enumerates every reachable
//!   final state by depth-first search over core choices. Memoization on the
//!   full architectural state (QED-style pruned enumeration) collapses the
//!   exponential schedule space onto the much smaller state space, and also
//!   terminates exploration of spinning schedules (a repeated state proves
//!   the branch adds nothing new).
//!
//! The timing simulator's litmus harness asserts that every outcome it
//! observes is a member of the set this module computes; a non-member is a
//! sequential-consistency violation in the timing model.

use std::collections::BTreeSet;
use std::collections::HashSet;

use crate::emu::{EmuError, Emulator};
use crate::mem::SparseMemory;
use crate::program::Program;

/// N cores stepping their own programs against one shared memory.
///
/// # Examples
///
/// ```
/// use dmdc_isa::{Assembler, SharedSystem};
///
/// let p0 = Assembler::new().assemble("li x1, 0x2000\nli x2, 7\nsw x2, 0(x1)\nhalt").unwrap();
/// let p1 = Assembler::new().assemble("li x1, 0x2000\nlw x20, 0(x1)\nhalt").unwrap();
/// let mut sys = SharedSystem::new(&[&p0, &p1]);
/// // Writer first, then reader: the reader observes the store.
/// while !sys.core(0).halted() { sys.step_core(0).unwrap(); }
/// while !sys.core(1).halted() { sys.step_core(1).unwrap(); }
/// assert_eq!(sys.core(1).int_reg(20), 7);
/// ```
#[derive(Clone)]
pub struct SharedSystem<'p> {
    cores: Vec<Emulator<'p>>,
    mem: SparseMemory,
}

impl<'p> SharedSystem<'p> {
    /// Builds a system with one core per program. The shared memory is the
    /// union of every program's initial data segments (later programs win on
    /// overlap, byte-wise); each core's private image is left empty so all
    /// data accesses see the shared bytes.
    pub fn new(programs: &[&'p Program]) -> SharedSystem<'p> {
        let mut mem = SparseMemory::new();
        for p in programs {
            for (base, bytes) in p.data_segments() {
                mem.write_bytes(*base, bytes);
            }
        }
        let cores = programs
            .iter()
            .map(|p| {
                let mut e = Emulator::new(p);
                // Drop the private copy of the data segments: shared memory
                // is the single source of truth.
                e.mem = SparseMemory::new();
                e
            })
            .collect();
        SharedSystem { cores, mem }
    }

    /// Number of cores.
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    /// Read-only view of core `i`'s architectural state.
    pub fn core(&self, i: usize) -> &Emulator<'p> {
        &self.cores[i]
    }

    /// The shared memory image.
    pub fn memory(&self) -> &SparseMemory {
        &self.mem
    }

    /// Whether every core has halted.
    pub fn all_halted(&self) -> bool {
        self.cores.iter().all(|c| c.halted())
    }

    /// Executes one instruction on core `i` against the shared memory.
    /// Stepping a halted core is a no-op (mirroring [`Emulator::step`]'s
    /// post-halt behaviour).
    ///
    /// # Errors
    ///
    /// Propagates [`EmuError`] from the underlying emulator. The shared
    /// memory is restored even on error.
    pub fn step_core(&mut self, i: usize) -> Result<(), EmuError> {
        self.cores[i].swap_memory(&mut self.mem);
        let r = self.cores[i].step();
        self.cores[i].swap_memory(&mut self.mem);
        r.map(|_| ())
    }

    /// FNV-1a hash of the complete system state: per-core pc / halt flag /
    /// register files plus the shared memory checksum. Two systems with
    /// equal keys behave identically from here on, which is what makes the
    /// enumeration memo sound.
    fn state_key(&self) -> u64 {
        const FNV_PRIME: u64 = 0x1000_0000_01b3;
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |v: u64| {
            for b in v.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
            }
        };
        for c in &self.cores {
            mix(c.pc as u64);
            mix(c.halted as u64);
            for &r in &c.int_regs {
                mix(r);
            }
            for &r in &c.fp_regs {
                mix(r.to_bits());
            }
        }
        mix(self.mem.checksum());
        h
    }

    /// The observer vector: the named integer registers read out of the
    /// named cores, in order.
    pub fn observe(&self, observers: &[(usize, u8)]) -> Vec<u64> {
        observers
            .iter()
            .map(|&(core, reg)| self.cores[core].int_reg(reg))
            .collect()
    }
}

/// Resource caps for [`enumerate_outcomes`]. Litmus kernels are tiny, so the
/// defaults are generous; hitting either cap is an error (a truncated
/// allowed-set would make the litmus subset check vacuously unsound).
#[derive(Debug, Clone, Copy)]
pub struct EnumLimits {
    /// Maximum distinct states to expand before giving up.
    pub max_states: usize,
    /// Maximum instructions along any single schedule (guards against
    /// non-halting programs the memo cannot collapse).
    pub max_insts_per_path: u64,
}

impl Default for EnumLimits {
    fn default() -> EnumLimits {
        EnumLimits {
            max_states: 1 << 20,
            max_insts_per_path: 100_000,
        }
    }
}

/// Errors from [`enumerate_outcomes`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EnumError {
    /// A schedule faulted in the emulator (bad kernel, not a model issue).
    Emu(EmuError),
    /// `EnumLimits::max_states` distinct states were expanded.
    StateLimit,
    /// Some schedule exceeded `EnumLimits::max_insts_per_path`.
    PathLimit,
}

impl std::fmt::Display for EnumError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EnumError::Emu(e) => write!(f, "emulator fault during enumeration: {e}"),
            EnumError::StateLimit => write!(f, "state limit exceeded during enumeration"),
            EnumError::PathLimit => write!(f, "instruction path limit exceeded during enumeration"),
        }
    }
}

impl std::error::Error for EnumError {}

/// Enumerates every sequentially-consistent outcome of running `programs`
/// concurrently against shared memory, projected through `observers`
/// (`(core, register)` pairs read at the end of each complete execution).
///
/// Instructions execute atomically and in program order per core; the
/// search branches on which non-halted core steps next and collects the
/// observer vector at every all-halted leaf. States already expanded are
/// pruned via a full-state memo, which both keeps the search polynomial in
/// the reachable state count and guarantees termination for kernels whose
/// only loops re-enter earlier states.
///
/// # Errors
///
/// See [`EnumError`]; any error means the result would be untrustworthy and
/// no partial set is returned.
///
/// # Examples
///
/// ```
/// use dmdc_isa::{enumerate_outcomes, Assembler, EnumLimits};
///
/// // Store buffering: in every SC interleaving at least one of the two
/// // stores precedes both loads, so (0,0) — the classic TSO-visible
/// // outcome — must be absent from the allowed set.
/// let p0 = Assembler::new()
///     .assemble("li x1, 0x2000\nli x2, 0x2100\nli x3, 1\nsw x3, 0(x1)\nlw x20, 0(x2)\nhalt")
///     .unwrap();
/// let p1 = Assembler::new()
///     .assemble("li x1, 0x2000\nli x2, 0x2100\nli x3, 1\nsw x3, 0(x2)\nlw x20, 0(x1)\nhalt")
///     .unwrap();
/// let allowed = enumerate_outcomes(&[&p0, &p1], &[(0, 20), (1, 20)], EnumLimits::default())
///     .unwrap();
/// assert!(!allowed.contains(&vec![0, 0]), "SB (0,0) is not SC");
/// assert!(allowed.contains(&vec![1, 1]));
/// ```
pub fn enumerate_outcomes(
    programs: &[&Program],
    observers: &[(usize, u8)],
    limits: EnumLimits,
) -> Result<BTreeSet<Vec<u64>>, EnumError> {
    let root = SharedSystem::new(programs);
    let mut outcomes = BTreeSet::new();
    let mut memo: HashSet<u64> = HashSet::new();
    // Depth-first over (state, instructions-executed-so-far).
    let mut stack: Vec<(SharedSystem, u64)> = vec![(root, 0)];
    while let Some((sys, depth)) = stack.pop() {
        if !memo.insert(sys.state_key()) {
            continue;
        }
        if memo.len() > limits.max_states {
            return Err(EnumError::StateLimit);
        }
        if sys.all_halted() {
            outcomes.insert(sys.observe(observers));
            continue;
        }
        if depth >= limits.max_insts_per_path {
            return Err(EnumError::PathLimit);
        }
        for i in 0..sys.num_cores() {
            if sys.core(i).halted() {
                continue;
            }
            let mut next = sys.clone();
            next.step_core(i).map_err(EnumError::Emu)?;
            stack.push((next, depth + 1));
        }
    }
    Ok(outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Assembler;

    fn asm(src: &str) -> Program {
        Assembler::new().assemble(src).expect("assembles")
    }

    #[test]
    fn shared_memory_is_visible_across_cores() {
        let p0 = asm("li x1, 0x2000\nli x2, 41\nsw x2, 0(x1)\nhalt");
        let p1 = asm("li x1, 0x2000\nlw x20, 0(x1)\naddi x20, x20, 1\nhalt");
        let mut sys = SharedSystem::new(&[&p0, &p1]);
        while !sys.core(0).halted() {
            sys.step_core(0).unwrap();
        }
        while !sys.core(1).halted() {
            sys.step_core(1).unwrap();
        }
        assert_eq!(sys.core(1).int_reg(20), 42);
        assert_eq!(sys.observe(&[(1, 20)]), vec![42]);
    }

    #[test]
    fn step_after_halt_is_noop() {
        let p = asm("halt");
        let mut sys = SharedSystem::new(&[&p]);
        sys.step_core(0).unwrap();
        let retired = sys.core(0).retired();
        sys.step_core(0).unwrap();
        assert_eq!(sys.core(0).retired(), retired);
        assert!(sys.all_halted());
    }

    #[test]
    fn message_passing_forbids_stale_data_after_flag() {
        // MP: P0 stores data then flag; P1 reads flag then data. Under SC,
        // flag=1 implies data=1.
        let p0 = asm("li x1, 0x2000\nli x2, 0x2100\nli x3, 1\nsw x3, 0(x1)\nsw x3, 0(x2)\nhalt");
        let p1 = asm("li x1, 0x2000\nli x2, 0x2100\nlw x20, 0(x2)\nlw x21, 0(x1)\nhalt");
        let allowed =
            enumerate_outcomes(&[&p0, &p1], &[(1, 20), (1, 21)], EnumLimits::default()).unwrap();
        assert!(allowed.contains(&vec![0, 0]));
        assert!(allowed.contains(&vec![0, 1]));
        assert!(allowed.contains(&vec![1, 1]));
        assert!(!allowed.contains(&vec![1, 0]), "MP (1,0) violates SC");
    }

    #[test]
    fn spin_loop_terminates_via_memoization() {
        // P1 spins until the flag flips. The spin re-enters the same state,
        // so memoization prunes the infinite branch and only the productive
        // schedules survive.
        let p0 = asm("li x1, 0x2000\nli x2, 1\nsw x2, 0(x1)\nhalt");
        let p1 = asm("li x1, 0x2000\nspin: lw x20, 0(x1)\nbeq x20, x0, spin\nhalt");
        let allowed = enumerate_outcomes(&[&p0, &p1], &[(1, 20)], EnumLimits::default()).unwrap();
        assert_eq!(allowed, BTreeSet::from([vec![1]]));
    }

    #[test]
    fn path_limit_rejects_runaway_single_core() {
        // A core that never halts and never repeats state (a counter) must
        // hit the path cap rather than loop forever.
        let p = asm("loop: addi x1, x1, 1\nj loop");
        let err = enumerate_outcomes(
            &[&p],
            &[],
            EnumLimits {
                max_states: 1 << 20,
                max_insts_per_path: 500,
            },
        )
        .unwrap_err();
        // Every state is fresh, so either cap can fire depending on order;
        // with one core the path cap fires first.
        assert_eq!(err, EnumError::PathLimit);
    }
}
