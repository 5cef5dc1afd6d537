//! Generation manifests: the atomic publish point of a checkpoint.
//!
//! A manifest names every segment of one generation, with per-segment
//! byte counts and CRCs, and records whether the generation is delta
//! encoded against an earlier one. It is written *after* all segments —
//! under FanStore's write-once model an object only becomes visible when
//! it is finalised, so the manifest's appearance is the commit: a crash
//! anywhere before it leaves the generation invisible, never torn.
//!
//! Layout (little-endian):
//!
//! ```text
//! "FSCK" | version u16 | generation u64 | base u64 (u64::MAX = full)
//! | chunk_size u32 | raw_bytes u64 | stored_bytes u64 | seg_count u32
//! | seg_count × ([u16 name_len][name][u32 chunks][u64 bytes][u32 crc])
//! | crc32 u32 over everything above
//! ```

use crate::envelope::{self, Reader};
use crate::FsError;

/// Manifest magic bytes.
pub const MAGIC: [u8; 4] = *b"FSCK";

/// Current manifest format version.
pub const VERSION: u16 = 1;

/// `base` sentinel for a full (non-delta) generation.
const FULL: u64 = u64::MAX;

/// One segment as named by a manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentMeta {
    /// File name of the segment inside the generation directory.
    pub name: String,
    /// Number of chunk frames in the segment.
    pub chunks: u32,
    /// Segment length in bytes.
    pub bytes: u64,
    /// CRC32 of the whole segment blob (cheap pre-parse integrity check).
    pub crc: u32,
}

/// A generation manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Generation number.
    pub generation: u64,
    /// Base generation for delta frames (`None` = full generation).
    pub base: Option<u64>,
    /// Chunk size the payload was split with.
    pub chunk_size: u32,
    /// Uncompressed payload length.
    pub raw_bytes: u64,
    /// Total stored segment bytes.
    pub stored_bytes: u64,
    /// Segments, in chunk order.
    pub segments: Vec<SegmentMeta>,
}

impl Manifest {
    /// Serialise, appending the trailing CRC32.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = envelope::begin(MAGIC, VERSION);
        out.extend_from_slice(&self.generation.to_le_bytes());
        out.extend_from_slice(&self.base.unwrap_or(FULL).to_le_bytes());
        out.extend_from_slice(&self.chunk_size.to_le_bytes());
        out.extend_from_slice(&self.raw_bytes.to_le_bytes());
        out.extend_from_slice(&self.stored_bytes.to_le_bytes());
        out.extend_from_slice(&(self.segments.len() as u32).to_le_bytes());
        for s in &self.segments {
            envelope::put_name(&mut out, &s.name);
            out.extend_from_slice(&s.chunks.to_le_bytes());
            out.extend_from_slice(&s.bytes.to_le_bytes());
            out.extend_from_slice(&s.crc.to_le_bytes());
        }
        envelope::seal(out)
    }

    /// Decode and CRC-verify a manifest.
    pub fn decode(buf: &[u8]) -> Result<Manifest, FsError> {
        let mut r = Reader::open(buf, MAGIC, VERSION, "manifest")?;
        let manifest = Manifest {
            generation: u64::from_le_bytes(r.take()?),
            base: Some(u64::from_le_bytes(r.take()?)).filter(|&b| b != FULL),
            chunk_size: u32::from_le_bytes(r.take()?),
            raw_bytes: u64::from_le_bytes(r.take()?),
            stored_bytes: u64::from_le_bytes(r.take()?),
            segments: r.list(|r| {
                Ok(SegmentMeta {
                    name: r.name()?,
                    chunks: u32::from_le_bytes(r.take()?),
                    bytes: u64::from_le_bytes(r.take()?),
                    crc: u32::from_le_bytes(r.take()?),
                })
            })?,
        };
        r.finish()?;
        Ok(manifest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Manifest {
        Manifest {
            generation: 7,
            base: Some(4),
            chunk_size: 65536,
            raw_bytes: 1_000_000,
            stored_bytes: 123_456,
            segments: vec![
                SegmentMeta { name: "seg0000".into(), chunks: 16, bytes: 60_000, crc: 0xDEAD },
                SegmentMeta { name: "seg0001".into(), chunks: 3, bytes: 63_456, crc: 0xBEEF },
            ],
        }
    }

    #[test]
    fn roundtrip() {
        let m = sample();
        assert_eq!(Manifest::decode(&m.encode()).unwrap(), m);
        let full = Manifest { base: None, segments: Vec::new(), ..sample() };
        assert_eq!(Manifest::decode(&full.encode()).unwrap(), full);
    }

    #[test]
    fn every_flipped_bit_is_detected() {
        let buf = sample().encode();
        for i in (0..buf.len()).step_by(7) {
            let mut bad = buf.clone();
            bad[i] ^= 0x01;
            assert!(Manifest::decode(&bad).is_err(), "flip at byte {i} must be caught");
        }
    }

    #[test]
    fn truncation_is_detected() {
        let buf = sample().encode();
        for cut in 1..buf.len() {
            assert!(Manifest::decode(&buf[..cut]).is_err(), "cut at {cut}");
        }
    }
}
