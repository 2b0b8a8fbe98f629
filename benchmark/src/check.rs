//! The output checks. Each compares the program's bytes with an expected
//! document; a mismatch is a hard failure that counts into the workload's
//! `failed` operations and its error rate.

use std::fmt;

/// Which contract an output is held to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Check {
    /// Exact smoke output equals the `tests/golden/<id>.txt` snapshot(s).
    Golden,
    /// A cache-warm read equals the cold output of the same work.
    WarmCold,
    /// A daemon result payload equals what the CLI prints for the same
    /// work (`--format json`), or an earlier payload of the same job.
    ServePayload,
    /// A worker fleet's report equals the single-process report.
    FleetSingle,
    /// The traced replay of a CLI invocation renders what the CLI printed.
    Traced,
}

impl Check {
    /// Stable label used in failure messages.
    pub fn label(self) -> &'static str {
        match self {
            Check::Golden => "golden",
            Check::WarmCold => "warm-equals-cold",
            Check::ServePayload => "serve-equals-cli",
            Check::FleetSingle => "fleet-equals-single",
            Check::Traced => "traced-equals-cli",
        }
    }
}

/// A failed check: where the two outputs first differ.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mismatch {
    /// The contract that failed.
    pub check: Check,
    /// What was compared (an experiment id, a job, a policy...).
    pub subject: String,
    /// First differing byte offset.
    pub offset: usize,
    /// Expected length in bytes.
    pub expected_len: usize,
    /// Actual length in bytes.
    pub actual_len: usize,
}

impl fmt::Display for Mismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} check failed for {}: outputs differ at byte {} (expected {} bytes, got {})",
            self.check.label(),
            self.subject,
            self.offset,
            self.expected_len,
            self.actual_len
        )
    }
}

/// Holds `actual` to `expected` byte for byte.
pub fn same(check: Check, subject: &str, expected: &[u8], actual: &[u8]) -> Result<(), Mismatch> {
    if expected == actual {
        return Ok(());
    }
    let offset = expected
        .iter()
        .zip(actual)
        .position(|(e, a)| e != a)
        .unwrap_or(expected.len().min(actual.len()));
    Err(Mismatch {
        check,
        subject: subject.to_string(),
        offset,
        expected_len: expected.len(),
        actual_len: actual.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `expected` with one byte flipped, as a damaged reference would be.
    fn corrupt(expected: &[u8], at: usize) -> Vec<u8> {
        let mut v = expected.to_vec();
        v[at] ^= 0x01;
        v
    }

    fn fails_on_one_corrupted_byte(check: Check, output: &[u8]) {
        assert_eq!(same(check, "x", output, output), Ok(()));
        for at in [0, output.len() / 2, output.len() - 1] {
            let err = same(check, "x", &corrupt(output, at), output).unwrap_err();
            assert_eq!((err.check, err.offset), (check, at), "{err}");
        }
    }

    #[test]
    fn golden_check_fails_on_a_corrupted_snapshot() {
        fails_on_one_corrupted_byte(
            Check::Golden,
            b"# Table 2: checking-window statistics (global DMDC)\nINT 21.0\nFP 24.9\n",
        );
    }

    #[test]
    fn warm_cold_check_fails_on_a_corrupted_cold_output() {
        fails_on_one_corrupted_byte(Check::WarmCold, b"group,IPC\nINT,1.52\nFP,1.61\n");
    }

    #[test]
    fn serve_check_fails_on_a_corrupted_cli_document() {
        fails_on_one_corrupted_byte(
            Check::ServePayload,
            b"{\n  \"experiment\": \"table3\",\n  \"tables\": []\n}\n",
        );
    }

    #[test]
    fn fleet_check_fails_on_a_corrupted_single_process_report() {
        fails_on_one_corrupted_byte(
            Check::FleetSingle,
            b"# suite under Baseline on config2\nhash INT 1.93\n",
        );
    }

    #[test]
    fn traced_check_fails_on_a_corrupted_cli_report() {
        fails_on_one_corrupted_byte(
            Check::Traced,
            b"# suite under DmdcLocal on config2\nmm FP 2.10 \xc2\xb10.01\n",
        );
    }

    #[test]
    fn truncation_reports_the_shorter_length() {
        let err = same(Check::Golden, "t", b"abcdef", b"abc").unwrap_err();
        assert_eq!((err.offset, err.expected_len, err.actual_len), (3, 6, 3));
    }
}
