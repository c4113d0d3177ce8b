//! Binary trace files: persist synthetic traces and replay them, the way
//! the paper's artifact replays ChampSim traces.
//!
//! The format is deliberately simple and self-describing:
//!
//! ```text
//! [8 bytes]  magic "MAYATRC1"
//! [8 bytes]  record count (little-endian u64)
//! repeated records, 16 bytes each:
//!   [8 bytes] byte address (LE u64)
//!   [8 bytes] packed metadata (LE u64):
//!             bits 0..48  pc
//!             bits 48..60 gap (instructions before this access, 0..4095)
//!             bit  60     is_write
//!             bit  61     dependent
//! ```
//!
//! Replay wraps around at the end, so a finite file still provides the
//! infinite stream the simulator expects (document the wrap in experiment
//! setups — steady-state statistics are insensitive to it).

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read as _, Write as _};
use std::path::Path;

use crate::{Access, TraceGenerator};

const MAGIC: &[u8; 8] = b"MAYATRC1";
const PC_MASK: u64 = (1 << 48) - 1;
const GAP_MAX: u32 = (1 << 12) - 1;

fn pack(a: &Access) -> [u8; 16] {
    let meta = (a.pc & PC_MASK)
        | (u64::from(a.gap.min(GAP_MAX)) << 48)
        | (u64::from(a.is_write) << 60)
        | (u64::from(a.dependent) << 61);
    let mut out = [0u8; 16];
    out[..8].copy_from_slice(&a.addr.to_le_bytes());
    out[8..].copy_from_slice(&meta.to_le_bytes());
    out
}

fn unpack(buf: &[u8; 16]) -> Access {
    let addr = u64::from_le_bytes(buf[..8].try_into().expect("8 bytes"));
    let meta = u64::from_le_bytes(buf[8..].try_into().expect("8 bytes"));
    Access {
        addr,
        pc: meta & PC_MASK,
        gap: ((meta >> 48) & u64::from(GAP_MAX)) as u32,
        is_write: (meta >> 60) & 1 == 1,
        dependent: (meta >> 61) & 1 == 1,
    }
}

/// Writes `count` accesses from `gen` to `path`.
///
/// # Errors
///
/// Returns any I/O error from creating or writing the file.
pub fn write_trace(path: &Path, gen: &mut dyn TraceGenerator, count: u64) -> io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    w.write_all(MAGIC)?;
    w.write_all(&count.to_le_bytes())?;
    for _ in 0..count {
        w.write_all(&pack(&gen.next_access()))?;
    }
    w.flush()
}

/// A trace file loaded into memory, replayed as an infinite (wrapping)
/// access stream.
#[derive(Debug, Clone)]
pub struct TraceFile {
    name: String,
    records: Vec<Access>,
    cursor: usize,
}

impl TraceFile {
    /// Loads a trace file.
    ///
    /// # Errors
    ///
    /// Returns an error for I/O failures, a bad magic value, or a header
    /// record count that disagrees with the file's length (a truncated
    /// file among them).
    pub fn open(path: &Path) -> io::Result<Self> {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        let mut r = BufReader::new(file);
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "not a MAYATRC1 trace",
            ));
        }
        let mut count_buf = [0u8; 8];
        r.read_exact(&mut count_buf)?;
        let count = u64::from_le_bytes(count_buf);
        if count == 0 {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "empty trace"));
        }
        // The header's count sizes the allocation below, so it must match
        // the records the file actually holds before anything is reserved.
        if count.checked_mul(16).and_then(|b| b.checked_add(16)) != Some(len) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("header claims {count} records but the file is {len} bytes"),
            ));
        }
        let mut records = Vec::with_capacity(count as usize);
        let mut rec = [0u8; 16];
        for _ in 0..count {
            r.read_exact(&mut rec)?;
            records.push(unpack(&rec));
        }
        Ok(Self {
            name: path
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_default(),
            records,
            cursor: 0,
        })
    }

    /// Number of records in the file.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Always false: empty traces are rejected at open.
    pub fn is_empty(&self) -> bool {
        false
    }
}

impl TraceGenerator for TraceFile {
    fn next_access(&mut self) -> Access {
        let a = self.records[self.cursor];
        self.cursor = (self.cursor + 1) % self.records.len();
        a
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::benchmark;

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("maya_trace_test_{tag}_{}.trc", std::process::id()))
    }

    #[test]
    fn roundtrip_preserves_every_field() {
        let path = temp_path("roundtrip");
        let mut gen = benchmark("mcf").expect("known").generator(0, 42);
        write_trace(&path, &mut gen, 5_000).expect("write");
        let mut replay = TraceFile::open(&path).expect("open");
        let mut reference = benchmark("mcf").expect("known").generator(0, 42);
        for _ in 0..5_000 {
            let (a, b) = (reference.next_access(), replay.next_access());
            assert_eq!(a.addr, b.addr);
            assert_eq!(a.pc & PC_MASK, b.pc);
            assert_eq!(a.is_write, b.is_write);
            assert_eq!(a.dependent, b.dependent);
            assert_eq!(a.gap.min(GAP_MAX), b.gap);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn replay_wraps_at_the_end() {
        let path = temp_path("wrap");
        let mut gen = benchmark("lbm").expect("known").generator(0, 1);
        write_trace(&path, &mut gen, 10).expect("write");
        let mut replay = TraceFile::open(&path).expect("open");
        let first: Vec<Access> = (0..10).map(|_| replay.next_access()).collect();
        let second: Vec<Access> = (0..10).map(|_| replay.next_access()).collect();
        assert_eq!(first, second, "wrap must replay identically");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_magic_is_rejected() {
        let path = temp_path("badmagic");
        std::fs::write(&path, b"NOTATRACEFILE___").expect("write");
        assert!(TraceFile::open(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn record_count_the_file_cannot_hold_is_rejected() {
        for (tag, count) in [("countmax", u64::MAX), ("count2p40", 1u64 << 40)] {
            let path = temp_path(tag);
            let mut header = MAGIC.to_vec();
            header.extend_from_slice(&count.to_le_bytes());
            std::fs::write(&path, &header).expect("write");
            let err = TraceFile::open(&path).expect_err("count exceeds the file");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "count {count}");
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn pack_unpack_inverse_on_edge_values() {
        let a = Access {
            addr: u64::MAX,
            pc: PC_MASK,
            gap: GAP_MAX,
            is_write: true,
            dependent: true,
        };
        assert_eq!(unpack(&pack(&a)), a);
        let b = Access {
            addr: 0,
            pc: 0,
            gap: 0,
            is_write: false,
            dependent: false,
        };
        assert_eq!(unpack(&pack(&b)), b);
    }
}
