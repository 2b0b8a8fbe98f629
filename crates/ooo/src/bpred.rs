//! Combined branch predictor (bimodal + gshare with a meta chooser) and a
//! set-associative branch target buffer, per the paper's Table 1.

/// A table of 2-bit saturating counters.
#[derive(Debug, Clone)]
struct CounterTable {
    counters: Vec<u8>,
}

impl CounterTable {
    fn new(entries: u32, init: u8) -> CounterTable {
        assert!(
            entries.is_power_of_two(),
            "predictor table size must be a power of two"
        );
        CounterTable {
            counters: vec![init; entries as usize],
        }
    }

    #[inline]
    fn index(&self, key: u64) -> usize {
        (key as usize) & (self.counters.len() - 1)
    }

    #[inline]
    fn predict(&self, key: u64) -> bool {
        self.counters[self.index(key)] >= 2
    }

    #[inline]
    fn update(&mut self, key: u64, taken: bool) {
        let idx = self.index(key);
        let c = &mut self.counters[idx];
        if taken {
            *c = (*c + 1).min(3);
        } else {
            *c = c.saturating_sub(1);
        }
    }
}

/// The combined direction predictor: bimodal and gshare components with a
/// per-branch meta chooser, plus a speculative global history register that
/// callers snapshot and restore across squashes.
///
/// # Examples
///
/// ```
/// use dmdc_ooo::BranchPredictor;
///
/// let mut bp = BranchPredictor::new(4096, 8192, 13, 8192);
/// // A branch that is always taken trains quickly.
/// for _ in 0..8 {
///     let (pred, snapshot) = bp.predict(100);
///     bp.speculate(100, pred);
///     bp.update(100, true, snapshot);
///     if !pred { bp.restore(snapshot); bp.speculate(100, true); }
/// }
/// assert!(bp.predict(100).0);
/// ```
#[derive(Debug, Clone)]
pub struct BranchPredictor {
    bimodal: CounterTable,
    gshare: CounterTable,
    meta: CounterTable,
    history: u64,
    history_mask: u64,
}

/// Opaque snapshot of the speculative global history, taken at prediction
/// time and used both to update the right gshare row later and to repair
/// history after a squash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistorySnapshot(u64);

impl BranchPredictor {
    /// Creates a predictor with the given table sizes (powers of two) and
    /// history length.
    ///
    /// # Panics
    ///
    /// Panics if any table size is not a power of two.
    pub fn new(
        bimodal_entries: u32,
        gshare_entries: u32,
        history_bits: u32,
        meta_entries: u32,
    ) -> BranchPredictor {
        BranchPredictor {
            bimodal: CounterTable::new(bimodal_entries, 2),
            gshare: CounterTable::new(gshare_entries, 2),
            meta: CounterTable::new(meta_entries, 2),
            history: 0,
            history_mask: (1u64 << history_bits) - 1,
        }
    }

    /// The current speculative history, for instructions that do not predict
    /// (their squash-recovery restore point).
    pub fn snapshot(&self) -> HistorySnapshot {
        HistorySnapshot(self.history)
    }

    /// Predicts the direction of the conditional branch at instruction index
    /// `pc`. Returns the prediction and a history snapshot the caller must
    /// keep for [`BranchPredictor::update`]/[`BranchPredictor::restore`].
    pub fn predict(&self, pc: u32) -> (bool, HistorySnapshot) {
        let snapshot = HistorySnapshot(self.history);
        let g = self.gshare.predict(self.gshare_key(pc, self.history));
        let b = self.bimodal.predict(pc as u64);
        let use_gshare = self.meta.predict(pc as u64);
        (if use_gshare { g } else { b }, snapshot)
    }

    /// Pushes a *speculative* outcome into the global history (called at
    /// fetch with the predicted direction).
    pub fn speculate(&mut self, _pc: u32, taken: bool) {
        self.history = ((self.history << 1) | taken as u64) & self.history_mask;
    }

    /// Restores the history to a snapshot (squash recovery). The caller then
    /// re-speculates the surviving branch's actual outcome if appropriate.
    pub fn restore(&mut self, snapshot: HistorySnapshot) {
        self.history = snapshot.0;
    }

    /// Trains the predictor with the architecturally resolved outcome.
    /// `snapshot` is the history that was current when the branch predicted.
    pub fn update(&mut self, pc: u32, taken: bool, snapshot: HistorySnapshot) {
        let g_key = self.gshare_key(pc, snapshot.0);
        let g_correct = self.gshare.predict(g_key) == taken;
        let b_correct = self.bimodal.predict(pc as u64) == taken;
        self.gshare.update(g_key, taken);
        self.bimodal.update(pc as u64, taken);
        if g_correct != b_correct {
            self.meta.update(pc as u64, g_correct);
        }
    }

    #[inline]
    fn gshare_key(&self, pc: u32, history: u64) -> u64 {
        (pc as u64) ^ (history & self.history_mask)
    }

    /// Words in [`BranchPredictor::export_state`] for tables of these
    /// sizes: the history register plus each table's 2-bit counters
    /// packed eight to a word.
    pub fn state_len(bimodal_entries: u32, gshare_entries: u32, meta_entries: u32) -> usize {
        let packed = |entries: u32| (entries as usize).div_ceil(8);
        1 + packed(bimodal_entries) + packed(gshare_entries) + packed(meta_entries)
    }

    /// Flattens the trained state (history register + the three counter
    /// tables, eight 2-bit counters packed per word) into a fixed-order
    /// word vector for checkpoint serialization.
    pub fn export_state(&self) -> Vec<u64> {
        let mut v = vec![self.history];
        for table in [&self.bimodal, &self.gshare, &self.meta] {
            v.extend(pack_counters(&table.counters));
        }
        v
    }

    /// Restores state captured by [`BranchPredictor::export_state`].
    /// Returns `None` (leaving the predictor untouched) on a geometry
    /// mismatch.
    pub fn import_state(&mut self, words: &[u64]) -> Option<()> {
        let lens = [
            self.bimodal.counters.len(),
            self.gshare.counters.len(),
            self.meta.counters.len(),
        ];
        let [bimodal, gshare, meta] = lens.map(|n| n as u32);
        if words.len() != BranchPredictor::state_len(bimodal, gshare, meta) {
            return None;
        }
        let mut at = 1;
        let mut unpacked = Vec::with_capacity(3);
        for n in lens {
            let w = n.div_ceil(8);
            unpacked.push(unpack_counters(&words[at..at + w], n));
            at += w;
        }
        self.history = words[0];
        self.meta.counters = unpacked.pop().expect("three tables");
        self.gshare.counters = unpacked.pop().expect("three tables");
        self.bimodal.counters = unpacked.pop().expect("three tables");
        Some(())
    }
}

/// Packs byte-sized counters eight to a `u64`, little-end first.
fn pack_counters(counters: &[u8]) -> Vec<u64> {
    counters
        .chunks(8)
        .map(|chunk| {
            chunk
                .iter()
                .enumerate()
                .fold(0u64, |w, (i, &c)| w | (c as u64) << (8 * i))
        })
        .collect()
}

/// Inverse of [`pack_counters`] for a table of `n` counters.
fn unpack_counters(words: &[u64], n: usize) -> Vec<u8> {
    (0..n)
        .map(|i| (words[i / 8] >> (8 * (i % 8))) as u8)
        .collect()
}

/// A 4-way set-associative branch target buffer mapping instruction indices
/// to predicted target indices. Used for indirect jumps (`jalr`) and to
/// remember taken-branch targets.
#[derive(Debug, Clone)]
pub struct Btb {
    ways: usize,
    sets: usize,
    // (tag, target, lru tick) per way.
    entries: Vec<Option<(u32, u32, u64)>>,
    tick: u64,
}

impl Btb {
    /// Creates a BTB with `entries` total entries, 4-way set-associative.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two or smaller than 4.
    pub fn new(entries: u32) -> Btb {
        assert!(
            entries.is_power_of_two() && entries >= 4,
            "BTB entries must be a power of two >= 4"
        );
        let ways = 4;
        let sets = entries as usize / ways;
        Btb {
            ways,
            sets,
            entries: vec![None; entries as usize],
            tick: 0,
        }
    }

    fn set_of(&self, pc: u32) -> usize {
        (pc as usize) & (self.sets - 1)
    }

    /// Looks up the predicted target for `pc`.
    pub fn lookup(&mut self, pc: u32) -> Option<u32> {
        self.tick += 1;
        let set = self.set_of(pc);
        for w in 0..self.ways {
            if let Some((tag, target, ref mut lru)) = self.entries[set * self.ways + w] {
                if tag == pc {
                    *lru = self.tick;
                    return Some(target);
                }
            }
        }
        None
    }

    /// Installs or updates the target for `pc`, evicting LRU on conflict.
    pub fn insert(&mut self, pc: u32, target: u32) {
        self.tick += 1;
        let set = self.set_of(pc);
        let base = set * self.ways;
        // Hit update.
        for w in 0..self.ways {
            if let Some((tag, ref mut t, ref mut lru)) = self.entries[base + w] {
                if tag == pc {
                    *t = target;
                    *lru = self.tick;
                    return;
                }
            }
        }
        // Empty way.
        for w in 0..self.ways {
            if self.entries[base + w].is_none() {
                self.entries[base + w] = Some((pc, target, self.tick));
                return;
            }
        }
        // Evict LRU.
        let victim = (0..self.ways)
            .min_by_key(|&w| self.entries[base + w].map(|(_, _, lru)| lru).unwrap_or(0))
            .expect("ways > 0");
        self.entries[base + victim] = Some((pc, target, self.tick));
    }

    /// Words in [`Btb::export_state`] for a BTB of `entries` entries: the
    /// LRU clock plus three words per entry.
    pub fn state_len(entries: u32) -> usize {
        1 + 3 * entries as usize
    }

    /// Flattens the BTB (LRU clock + three words per entry: valid flag,
    /// packed tag/target, recency) into a fixed-order word vector for
    /// checkpoint serialization.
    pub fn export_state(&self) -> Vec<u64> {
        let mut v = Vec::with_capacity(Btb::state_len(self.entries.len() as u32));
        v.push(self.tick);
        for e in &self.entries {
            match e {
                Some((tag, target, lru)) => {
                    v.push(1);
                    v.push((*tag as u64) << 32 | *target as u64);
                    v.push(*lru);
                }
                None => v.extend([0, 0, 0]),
            }
        }
        v
    }

    /// Restores state captured by [`Btb::export_state`]. Returns `None`
    /// (leaving the BTB untouched) on a geometry mismatch.
    pub fn import_state(&mut self, words: &[u64]) -> Option<()> {
        if words.len() != Btb::state_len(self.entries.len() as u32) {
            return None;
        }
        self.tick = words[0];
        for (i, e) in self.entries.iter_mut().enumerate() {
            let triple = &words[1 + 3 * i..4 + 3 * i];
            *e = (triple[0] != 0).then(|| ((triple[1] >> 32) as u32, triple[1] as u32, triple[2]));
        }
        Some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_table_saturates() {
        let mut t = CounterTable::new(4, 0);
        for _ in 0..10 {
            t.update(1, true);
        }
        assert!(t.predict(1));
        for _ in 0..10 {
            t.update(1, false);
        }
        assert!(!t.predict(1));
    }

    #[test]
    fn predictor_learns_biased_branch() {
        let mut bp = BranchPredictor::new(64, 64, 8, 64);
        for _ in 0..20 {
            let (pred, snap) = bp.predict(5);
            bp.speculate(5, pred);
            if !pred {
                bp.restore(snap);
                bp.speculate(5, true);
            }
            bp.update(5, true, snap);
        }
        assert!(bp.predict(5).0);
    }

    #[test]
    fn predictor_learns_alternating_pattern_via_gshare() {
        let mut bp = BranchPredictor::new(64, 1024, 10, 1024);
        // Alternating T/N is history-predictable, bimodal-hostile.
        let mut correct = 0;
        let mut outcome = false;
        for i in 0..400 {
            outcome = !outcome;
            let (pred, snap) = bp.predict(9);
            bp.speculate(9, pred);
            if pred != outcome {
                bp.restore(snap);
                bp.speculate(9, outcome);
            }
            bp.update(9, outcome, snap);
            if i >= 200 && pred == outcome {
                correct += 1;
            }
        }
        assert!(
            correct > 180,
            "gshare should lock onto alternation, got {correct}/200"
        );
    }

    #[test]
    fn history_restore_roundtrip() {
        let mut bp = BranchPredictor::new(16, 16, 4, 16);
        let (_, snap) = bp.predict(1);
        bp.speculate(1, true);
        bp.speculate(2, true);
        bp.restore(snap);
        let (_, snap2) = bp.predict(1);
        assert_eq!(snap, snap2);
    }

    #[test]
    fn btb_lookup_insert_evict() {
        let mut btb = Btb::new(16); // 4 sets x 4 ways
        assert_eq!(btb.lookup(8), None);
        btb.insert(8, 100);
        assert_eq!(btb.lookup(8), Some(100));
        btb.insert(8, 200);
        assert_eq!(btb.lookup(8), Some(200));
        // Fill one set (pcs congruent mod 4) beyond capacity.
        for pc in [4u32, 8, 12, 16, 20] {
            btb.insert(pc, pc + 1);
        }
        let present = [4u32, 8, 12, 16, 20]
            .iter()
            .filter(|&&pc| btb.lookup(pc).is_some())
            .count();
        assert_eq!(present, 4, "one entry must have been evicted");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_table_size_panics() {
        BranchPredictor::new(100, 64, 4, 64);
    }

    #[test]
    fn predictor_export_import_roundtrips_trained_state() {
        let mut trained = BranchPredictor::new(64, 1024, 10, 1024);
        let mut outcome = false;
        for pc in 0..200u32 {
            outcome = !outcome;
            let (pred, snap) = trained.predict(pc % 17);
            trained.speculate(pc % 17, pred);
            trained.update(pc % 17, outcome, snap);
        }
        let words = trained.export_state();
        let mut fresh = BranchPredictor::new(64, 1024, 10, 1024);
        fresh.import_state(&words).expect("same geometry");
        for pc in 0..32u32 {
            assert_eq!(fresh.predict(pc), trained.predict(pc));
        }
        assert_eq!(fresh.export_state(), words);
        let mut other = BranchPredictor::new(64, 512, 9, 1024);
        assert!(other.import_state(&words).is_none());
    }

    #[test]
    fn btb_export_import_roundtrips() {
        let mut warm = Btb::new(16);
        for pc in [4u32, 8, 12, 16, 20, 33, 77] {
            warm.insert(pc, pc * 3);
        }
        let words = warm.export_state();
        let mut fresh = Btb::new(16);
        fresh.import_state(&words).expect("same geometry");
        for pc in [4u32, 8, 12, 16, 20, 33, 77, 99] {
            assert_eq!(fresh.lookup(pc), warm.lookup(pc), "pc {pc}");
        }
        assert_eq!(fresh.export_state(), warm.export_state());
        let mut other = Btb::new(32);
        assert!(other.import_state(&words).is_none());
    }
}
