//! Trace metadata and event-list import — record once, replay exactly.
//!
//! The paper's pipeline records QEMU traces once and replays them through
//! the simulator many times (every CPU × strategy × offset combination).
//! [`TraceMeta`] is the workload metadata a replay needs (name, IPC,
//! virtual length); `suit-store`'s `SUITTRC3` container stores it ahead
//! of the bursts, so expensive generation or an external import happens
//! once. [`import_events`] turns a QEMU-plugin event list into bursts.

use std::io;

use suit_isa::Opcode;

use crate::event::Burst;

/// Metadata carried alongside the bursts.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceMeta {
    /// Workload name.
    pub name: String,
    /// Instructions per cycle for time conversion.
    pub ipc: f64,
    /// Virtual trace length in instructions.
    pub total_insts: u64,
}

/// Event-list import failures.
#[derive(Debug)]
pub enum TraceIoError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A line does not parse as `<instruction-index> <mnemonic>`, or the
    /// indices do not increase.
    Corrupt(&'static str),
}

impl From<io::Error> for TraceIoError {
    fn from(e: io::Error) -> Self {
        TraceIoError::Io(e)
    }
}

impl core::fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TraceIoError::Io(e) => write!(f, "trace I/O error: {e}"),
            TraceIoError::Corrupt(what) => write!(f, "corrupt trace: {what}"),
        }
    }
}

impl std::error::Error for TraceIoError {}

/// Imports an *event list* — the raw format a QEMU-plugin recording
/// produces: one faultable instruction per line as
/// `<instruction-index> <mnemonic>` — and clusters it into [`Burst`]s
/// using `cluster_gap` (events closer than the gap join the current
/// burst; within-burst spacing is averaged).
///
/// Example input:
///
/// ```text
/// 425000000 AESENC
/// 425000040 AESENC
/// 425000080 VPCLMULQDQ
/// 900000000 VOR
/// ```
pub fn import_events<R: std::io::BufRead>(
    reader: R,
    cluster_gap: u64,
) -> Result<Vec<Burst>, TraceIoError> {
    fn mnemonic_to_opcode(m: &str) -> Option<Opcode> {
        let m = m.trim().to_ascii_uppercase();
        Opcode::ALL
            .into_iter()
            .filter(|o| o.is_faultable())
            .find(|o| {
                let name = o.mnemonic().trim_end_matches('*');
                m == name || (m.starts_with(name) && !name.is_empty())
            })
    }

    let mut events: Vec<(u64, Opcode)> = Vec::new();
    for line in reader.lines() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let idx: u64 = parts
            .next()
            .ok_or(TraceIoError::Corrupt("missing instruction index"))?
            .parse()
            .map_err(|_| TraceIoError::Corrupt("bad instruction index"))?;
        let op = parts
            .next()
            .and_then(mnemonic_to_opcode)
            .ok_or(TraceIoError::Corrupt("unknown mnemonic"))?;
        events.push((idx, op));
    }
    if events.windows(2).any(|w| w[1].0 <= w[0].0) {
        return Err(TraceIoError::Corrupt("indices must be strictly increasing"));
    }

    let mut bursts = Vec::new();
    let mut i = 0;
    let mut prev_end: u64 = 0;
    while i < events.len() {
        let start = events[i].0;
        let opcode = events[i].1;
        let mut j = i + 1;
        while j < events.len() && events[j].0 - events[j - 1].0 <= cluster_gap {
            j += 1;
        }
        let count = (j - i) as u32;
        let span = events[j - 1].0 - start;
        let within = if count > 1 {
            (span / u64::from(count - 1)).max(1) as u32
        } else {
            0
        };
        bursts.push(Burst::new(start - prev_end, count, within, opcode));
        prev_end = events[j - 1].0 + 1;
        i = j;
    }
    Ok(bursts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn import_clusters_events_into_bursts() {
        let text = "\
# a recorded AES burst followed by a lone VOR
1000 AESENC
1040 AESENC
1080 VPCLMULQDQ
900000 VOR
";
        let bursts = import_events(text.as_bytes(), 1_000).unwrap();
        assert_eq!(bursts.len(), 2);
        assert_eq!(bursts[0].gap_insts, 1000);
        assert_eq!(bursts[0].events, 3);
        assert_eq!(bursts[0].within_gap_insts, 40);
        assert_eq!(bursts[0].opcode, Opcode::Aesenc);
        assert_eq!(bursts[1].events, 1);
        assert_eq!(bursts[1].opcode, Opcode::Vor);
        assert_eq!(bursts[1].gap_insts, 900_000 - 1081);
    }

    #[test]
    fn import_accepts_family_mnemonics() {
        // Concrete family members (VPCMPEQD, VPMAXSD) map onto the Table 1
        // families via their canonical prefixes.
        let ok = import_events(
            "10 VOR\n2000000 VPCMPEQD\n4000000 VPMAXSD\n".as_bytes(),
            100,
        )
        .unwrap();
        assert_eq!(ok.len(), 3);
        assert_eq!(ok[1].opcode, Opcode::Vpcmp);
        assert_eq!(ok[2].opcode, Opcode::Vpmax);
    }

    #[test]
    fn import_rejects_garbage() {
        assert!(matches!(
            import_events("abc AESENC\n".as_bytes(), 10),
            Err(TraceIoError::Corrupt(_))
        ));
        assert!(matches!(
            import_events("10 FNORD\n".as_bytes(), 10),
            Err(TraceIoError::Corrupt(_))
        ));
        assert!(matches!(
            import_events("10 AESENC\n5 AESENC\n".as_bytes(), 10),
            Err(TraceIoError::Corrupt(_))
        ));
    }
}
