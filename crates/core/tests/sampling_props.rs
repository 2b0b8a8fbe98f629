//! Property tests for the sampling engine's checkpoint machinery: the
//! run-length word codec must be the identity on any table, a
//! [`Checkpoint`] must survive serialize → deserialize with every field
//! intact, and a detailed window driven from the decoded checkpoint —
//! including the warmup-then-resume two-phase protocol the sampling
//! driver uses — must reproduce the original window's stats exactly.

use dmdc_core::experiments::PolicyKind;
use dmdc_core::sampling::{Checkpoint, Warmer, WordRuns};
use dmdc_ooo::{CoreConfig, SimOptions, Simulator};
use dmdc_workloads::SyntheticKernel;
use proptest::prelude::*;

/// Fast-forwards a fresh emulator + warmer through `position` retired
/// instructions of `kernel_size`'s synthetic workload and captures the
/// checkpoint.
fn capture_at(kernel_size: u32, position: u64, config: &CoreConfig) -> Checkpoint {
    let workload = SyntheticKernel::new(kernel_size).branch_noise(true).build();
    let mut emu = dmdc_isa::Emulator::new(&workload.program);
    let mut warm = Warmer::new(config);
    while emu.retired() < position {
        let r = emu.step().expect("synthetic kernel must emulate");
        warm.observe(&r);
    }
    Checkpoint::capture(0, &emu, &warm)
}

/// Restores `ck` into a fresh simulator and runs it to `max_commits`
/// committed instructions, returning the exported stats and the final
/// architectural checksum.
fn window_from(
    ck: &Checkpoint,
    kernel_size: u32,
    config: &CoreConfig,
    max_commits: u64,
    two_phase: Option<u64>,
) -> (Vec<u64>, u64) {
    let workload = SyntheticKernel::new(kernel_size).branch_noise(true).build();
    let (hier, bpred, btb) = ck.warm_state(config).expect("geometry matches");
    let mut fp_regs = [0.0f64; 32];
    for (slot, &bits) in fp_regs.iter_mut().zip(&ck.fp_bits) {
        *slot = f64::from_bits(bits);
    }
    let kind = PolicyKind::DmdcGlobal;
    let mut sim = Simulator::new(&workload.program, config.clone(), kind.build(config));
    sim.restore_checkpoint(ck.pc, &ck.int_regs, &fp_regs, ck.memory(), hier, bpred, btb);
    let opts = |commits: u64| SimOptions {
        max_commits: Some(commits),
        ..SimOptions::default()
    };
    let result = match two_phase {
        // The sampling driver's protocol: a discarded warmup phase, then
        // a resume to the measured horizon.
        Some(warmup) => {
            let a = sim.run(opts(warmup)).expect("warmup phase runs");
            assert_eq!(a.stats.committed, warmup);
            sim.resume(opts(max_commits))
                .expect("measure phase resumes")
        }
        None => sim.run(opts(max_commits)).expect("window runs"),
    };
    (result.stats.export_values(), result.checksum)
}

/// A word table shaped like exported warm state: `(kind, length, word)`
/// segments laid end to end — long runs of `0` and of `u64::MAX`, runs
/// of an arbitrary word, and single arbitrary words. Zero segments give
/// the empty table.
fn table(segments: &[(u8, usize, u64)]) -> Vec<u64> {
    let mut words = Vec::new();
    for &(kind, len, word) in segments {
        match kind {
            0 => words.resize(words.len() + len, 0),
            1 => words.resize(words.len() + len, u64::MAX),
            2 => words.resize(words.len() + len % 8, word),
            _ => words.push(word),
        }
    }
    words
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Text → runs → words is the identity on any table, the text holds
    /// only maximal runs (so it is the one text of that table), and any
    /// other length rejects it.
    #[test]
    fn word_runs_roundtrip_any_table(
        segments in proptest::collection::vec((0u8..4, 0usize..3_000, any::<u64>()), 0..12),
    ) {
        let words = table(&segments);
        let runs = WordRuns::from_words(&words);
        let text = runs.to_string();
        let parsed = WordRuns::parse(&text, words.len()).expect("parses at its own length");
        prop_assert_eq!(&parsed, &runs);
        prop_assert_eq!(parsed.expand(words.len()), Some(words.clone()));
        prop_assert_eq!(parsed.to_string(), text.clone());
        let maximal = words.windows(2).filter(|w| w[0] != w[1]).count() + 1;
        prop_assert_eq!(runs.runs(), if words.is_empty() { 0 } else { maximal });
        prop_assert!(WordRuns::parse(&text, words.len() + 1).is_none());
        prop_assert!(runs.expand(words.len() + 1).is_none());
        if !words.is_empty() {
            prop_assert!(WordRuns::parse(&text, words.len() - 1).is_none());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Serialize → deserialize is the identity on every checkpoint field,
    /// and re-encoding the decoded checkpoint reproduces the same bytes.
    #[test]
    fn checkpoint_roundtrips_exactly(
        kernel_size in 1_000u32..6_000,
        frac in 1u64..8,
    ) {
        let config = CoreConfig::config2();
        let ck = capture_at(kernel_size, frac * 500, &config);
        let encoded = ck.encode();
        let decoded = Checkpoint::decode(&mut encoded.lines(), &config).expect("decodes");
        prop_assert_eq!(decoded.window, ck.window);
        prop_assert_eq!(decoded.pc, ck.pc);
        prop_assert_eq!(decoded.retired, ck.retired);
        prop_assert_eq!(decoded.int_regs, ck.int_regs);
        prop_assert_eq!(decoded.fp_bits, ck.fp_bits);
        prop_assert_eq!(&decoded.pages, &ck.pages);
        prop_assert_eq!(&decoded.l1i, &ck.l1i);
        prop_assert_eq!(&decoded.l1d, &ck.l1d);
        prop_assert_eq!(&decoded.l2, &ck.l2);
        prop_assert_eq!(&decoded.bpred, &ck.bpred);
        prop_assert_eq!(&decoded.btb, &ck.btb);
        prop_assert_eq!(decoded.encode(), encoded);
    }

    /// A detailed window run from the decoded checkpoint — with the
    /// driver's warmup-then-resume split — reproduces, stat for stat, the
    /// same two-phase window run from the original live checkpoint. The
    /// final *architectural* checksum additionally matches a single-phase
    /// run to the same commit horizon: the phase split may cost a
    /// pipeline boundary cycle, but never changes architectural state.
    #[test]
    fn decoded_checkpoint_resumes_to_identical_window_stats(
        kernel_size in 1_000u32..6_000,
        frac in 1u64..8,
        warmup in 100u64..400,
        measure in 100u64..400,
    ) {
        let config = CoreConfig::config2();
        let ck = capture_at(kernel_size, frac * 500, &config);
        let encoded = ck.encode();
        let decoded = Checkpoint::decode(&mut encoded.lines(), &config).expect("decodes");
        let horizon = warmup + measure;
        let (live, live_sum) = window_from(&ck, kernel_size, &config, horizon, Some(warmup));
        let (resumed, resumed_sum) =
            window_from(&decoded, kernel_size, &config, horizon, Some(warmup));
        prop_assert_eq!(resumed, live, "window stats must match");
        prop_assert_eq!(resumed_sum, live_sum, "window end state must match");
        let (_, single_sum) = window_from(&ck, kernel_size, &config, horizon, None);
        prop_assert_eq!(resumed_sum, single_sum, "architectural state is split-invariant");
    }
}
