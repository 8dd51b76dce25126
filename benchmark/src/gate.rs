//! The correctness gate.
//!
//! Each item's serialized output (`RunResult` per cell, `CutVerdict`
//! per cut) is hashed. An item counts as failed when its own
//! invariants fail (a chaos cut that fails `judge`, a fault-storm cell
//! with silent reads or false positives), when its digest differs from
//! the same item in the run's first pass, or when its group's digest
//! differs from the one recorded in `digests.tsv` for this workload and
//! seed.

use crate::workload::ItemOutcome;

/// The recorded digests, one line per (workload, seed): the workload
/// name, the seed and the comma-separated group digests in hex.
const RECORDED: &str = include_str!("../digests.tsv");

/// 64-bit FNV-1a: stable across builds and platforms, unlike the
/// standard library's randomly keyed hasher.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Folds the item digests of each group, in item order.
pub fn group_digests(pass: &[ItemOutcome], groups: usize) -> Vec<u64> {
    let mut bytes: Vec<Vec<u8>> = vec![Vec::new(); groups];
    for o in pass {
        bytes[o.group].extend_from_slice(&o.digest.to_le_bytes());
    }
    bytes.iter().map(|b| fnv64(b)).collect()
}

/// Formats group digests as they appear in `digests.tsv`.
pub fn format_digests(workload: &str, seed: u64, digests: &[u64]) -> String {
    let hex: Vec<String> = digests.iter().map(|d| format!("{d:016x}")).collect();
    format!("{workload}\t{seed}\t{}", hex.join(","))
}

/// The recorded group digests for `workload` at `seed`, if that seed
/// was recorded.
pub fn recorded(workload: &str, seed: u64) -> Option<Vec<u64>> {
    parse_recorded(RECORDED, workload, seed)
}

fn parse_recorded(text: &str, workload: &str, seed: u64) -> Option<Vec<u64>> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|line| {
            let mut fields = line.split('\t');
            let (w, s, d) = (fields.next()?, fields.next()?, fields.next()?);
            if w != workload || s.parse::<u64>().ok()? != seed {
                return None;
            }
            d.split(',')
                .map(|h| u64::from_str_radix(h, 16).ok())
                .collect()
        })
}

/// Gate state across the passes of one run.
pub struct Gate {
    groups: usize,
    recorded: Option<Vec<u64>>,
    first: Option<Vec<u64>>,
}

impl Gate {
    /// A gate for a workload with `groups` groups, checking against
    /// `recorded` group digests when the seed has them.
    pub fn new(groups: usize, recorded: Option<Vec<u64>>) -> Gate {
        Gate {
            groups,
            recorded,
            first: None,
        }
    }

    /// True when this run is checked against recorded digests.
    pub fn has_recorded(&self) -> bool {
        self.recorded.is_some()
    }

    /// Checks one pass and returns how many of its items failed.
    pub fn check(&mut self, pass: &[ItemOutcome]) -> usize {
        let groups = group_digests(pass, self.groups);
        let bad_group: Vec<bool> = match &self.recorded {
            Some(rec) => (0..self.groups)
                .map(|g| rec.get(g) != groups.get(g))
                .collect(),
            None => vec![false; self.groups],
        };
        let first = self
            .first
            .get_or_insert_with(|| pass.iter().map(|o| o.digest).collect());
        pass.iter()
            .enumerate()
            .filter(|(i, o)| !o.ok || bad_group[o.group] || first.get(*i) != Some(&o.digest))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(group: usize, digest: u64) -> ItemOutcome {
        ItemOutcome {
            group,
            digest,
            events: 1,
            ok: true,
        }
    }

    #[test]
    fn recorded_lines_round_trip() {
        let line = format_digests("paper-grid", 7, &[1, u64::MAX]);
        let text = format!("# comment\n{line}\n");
        assert_eq!(
            parse_recorded(&text, "paper-grid", 7),
            Some(vec![1, u64::MAX])
        );
        assert_eq!(parse_recorded(&text, "paper-grid", 8), None);
        assert_eq!(parse_recorded(&text, "fault-storm", 7), None);
    }

    #[test]
    fn a_changed_digest_fails_only_its_item_within_a_run() {
        let pass = vec![item(0, 1), item(0, 2), item(1, 3)];
        let mut gate = Gate::new(2, None);
        assert_eq!(gate.check(&pass), 0);
        let mut changed = pass.clone();
        changed[1].digest = 99;
        assert_eq!(gate.check(&changed), 1);
    }

    #[test]
    fn a_recorded_mismatch_fails_the_whole_group() {
        let pass = vec![item(0, 1), item(0, 2), item(1, 3)];
        let mut rec = group_digests(&pass, 2);
        rec[0] ^= 1;
        let mut gate = Gate::new(2, Some(rec));
        assert_eq!(gate.check(&pass), 2);
    }

    #[test]
    fn a_failed_invariant_fails_its_item() {
        let mut pass = vec![item(0, 1), item(1, 2)];
        let mut gate = Gate::new(2, Some(group_digests(&pass, 2)));
        pass[1].ok = false;
        assert_eq!(gate.check(&pass), 1);
    }
}
