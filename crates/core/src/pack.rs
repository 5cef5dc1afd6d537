//! The compressed data representation (paper §IV-B, Table I).
//!
//! A partition is a flat byte stream:
//!
//! ```text
//! | num_files: u32 |
//! | path: 256 B | compressor: u16 | stat: 144 B | size: u64 | data: size B |  (x num_files)
//! ```
//!
//! Paths are NUL-padded to exactly 256 bytes; `compressor` is a
//! [`CodecId`]; `size` is the *compressed* byte count; `stat.size` holds
//! the original file size the decoder needs.

use std::sync::Arc;

use fanstore_compress::crc32::crc32;
use fanstore_compress::{progressive, CodecId};

use crate::stat::{FileStat, STAT_SIZE};
use crate::FsError;

/// Fixed width of the path field.
pub const PATH_SIZE: usize = 256;
/// Per-entry fixed overhead: path + compressor + stat + size.
pub const ENTRY_OVERHEAD: usize = PATH_SIZE + 2 + STAT_SIZE + 8;

/// One packed file entry (borrowing the data from the partition buffer
/// when parsing).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackEntry {
    /// File path relative to the FanStore mount point.
    pub path: String,
    /// Codec the data was compressed with.
    pub codec: CodecId,
    /// File attributes; `stat.size` is the uncompressed length.
    pub stat: FileStat,
    /// Compressed payload.
    pub data: Vec<u8>,
}

/// Incrementally build a partition in the Table I layout.
pub struct PartitionBuilder {
    buf: Vec<u8>,
    count: u32,
}

impl PartitionBuilder {
    /// Start an empty partition.
    pub fn new() -> Self {
        let mut buf = Vec::new();
        buf.extend_from_slice(&0u32.to_le_bytes());
        PartitionBuilder { buf, count: 0 }
    }

    /// Append one compressed file.
    ///
    /// # Panics
    /// If `path` exceeds 255 bytes (the fixed field must keep a NUL).
    pub fn push(&mut self, path: &str, codec: CodecId, stat: &FileStat, data: &[u8]) {
        assert!(path.len() < PATH_SIZE, "path too long for pack format: {path}");
        let mut path_field = [0u8; PATH_SIZE];
        path_field[..path.len()].copy_from_slice(path.as_bytes());
        self.buf.extend_from_slice(&path_field);
        self.buf.extend_from_slice(&codec.0.to_le_bytes());
        stat.encode(&mut self.buf);
        self.buf.extend_from_slice(&(data.len() as u64).to_le_bytes());
        self.buf.extend_from_slice(data);
        self.count += 1;
    }

    /// Number of files added so far.
    pub fn len(&self) -> u32 {
        self.count
    }

    /// True if no files were added.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Current partition size in bytes.
    pub fn byte_len(&self) -> usize {
        self.buf.len()
    }

    /// Finish: patch the header count and return the partition bytes.
    pub fn finish(mut self) -> Vec<u8> {
        self.buf[..4].copy_from_slice(&self.count.to_le_bytes());
        self.buf
    }
}

impl Default for PartitionBuilder {
    fn default() -> Self {
        Self::new()
    }
}

/// Parse a partition produced by [`PartitionBuilder`]. The whole stream is
/// scanned once, as the loading step of §IV-C1 does.
pub fn parse_partition(buf: &[u8]) -> Result<Vec<PackEntry>, FsError> {
    if buf.len() < 4 {
        return Err(FsError::Corrupt("partition header truncated".into()));
    }
    let count = u32::from_le_bytes(buf[..4].try_into().expect("4 bytes")) as usize;
    // The count is untrusted wire data: cap the pre-allocation by what the
    // buffer could possibly hold (each entry needs ENTRY_OVERHEAD bytes).
    let max_plausible = buf.len() / ENTRY_OVERHEAD + 1;
    let mut entries = Vec::with_capacity(count.min(max_plausible));
    let mut pos = 4usize;
    for i in 0..count {
        if pos + ENTRY_OVERHEAD > buf.len() {
            return Err(FsError::Corrupt(format!("entry {i} header truncated")));
        }
        let path_field = &buf[pos..pos + PATH_SIZE];
        let path_end = path_field.iter().position(|&b| b == 0).unwrap_or(PATH_SIZE);
        let path = std::str::from_utf8(&path_field[..path_end])
            .map_err(|_| FsError::Corrupt(format!("entry {i} path not utf-8")))?
            .to_string();
        pos += PATH_SIZE;
        let codec = CodecId(u16::from_le_bytes(buf[pos..pos + 2].try_into().expect("2 bytes")));
        pos += 2;
        let stat = FileStat::decode(&buf[pos..pos + STAT_SIZE])?;
        pos += STAT_SIZE;
        let size = u64::from_le_bytes(buf[pos..pos + 8].try_into().expect("8 bytes")) as usize;
        pos += 8;
        if pos + size > buf.len() {
            return Err(FsError::Corrupt(format!("entry {i} data truncated")));
        }
        let data = buf[pos..pos + size].to_vec();
        pos += size;
        entries.push(PackEntry { path, codec, stat, data });
    }
    Ok(entries)
}

// ---------------------------------------------------------------------------
// Chunked / progressive container (the "FCHK" format)
// ---------------------------------------------------------------------------
//
// A pack entry's payload is normally one opaque compressed blob; range
// reads then have to fetch and decode the whole file. Entries whose
// `compressor` field is the [`CHUNKED`] sentinel instead carry this
// container:
//
// ```text
// | "FCHK" | version u8 | kind u8 | inner_codec u16 | chunk_size u32 |
// | raw_len u64 | count u32 |
// | offset u64 | raw_len u32 | stored_len u32 | crc32 u32 | tier u8 |  (x count)
// | table_crc u32 |
// | payload 0 | payload 1 | ...
// ```
//
// * `kind` 0 (range): chunk `i` covers raw bytes `[offset, offset+raw_len)`;
//   `stored_len == raw_len` means the chunk is stored raw, otherwise it is
//   compressed with `inner_codec`. A reader fetches only the chunks
//   covering a byte range.
// * `kind` 1 (progressive): chunk `i` is fidelity tier `i` from
//   [`fanstore_compress::progressive`]; `tier` is the refinement index and
//   a prefix of chunks decodes to a coarse approximation of the file.
//
// Each chunk's `crc32` covers its *stored* bytes, so a single corrupted
// chunk is detectable without touching its neighbours; `table_crc` covers
// everything before it so a damaged table never yields bogus offsets.

/// Sentinel `compressor` value marking an FCHK container payload. The
/// family byte (0x10) is outside the codec-family range, so any
/// non-container-aware path that tries to decode it through the registry
/// fails loudly with `UnknownCodec` instead of mis-decoding.
pub const CHUNKED: CodecId = CodecId(0x1000);

/// `min_tier` value requesting full fidelity (every tier).
pub const TIER_FULL: u8 = 255;

const CHUNK_MAGIC: [u8; 4] = *b"FCHK";
const CHUNK_VERSION: u8 = 1;
/// Serialized size of one chunk-table row.
pub const CHUNK_ROW: usize = 8 + 4 + 4 + 4 + 1;
/// Serialized size of the fixed container header (before the rows).
pub const CHUNK_HEADER: usize = 4 + 1 + 1 + 2 + 4 + 8 + 4;

/// What the chunks of a container mean.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkKind {
    /// Chunks cover disjoint byte ranges of the raw file.
    Range,
    /// Chunks are progressive fidelity tiers of the whole file.
    Progressive,
}

/// One row of the chunk table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkMeta {
    /// First raw byte this chunk covers (0 for progressive tiers).
    pub offset: u64,
    /// Raw bytes this chunk decodes to (tier payload length for
    /// progressive chunks, which manage their own framing).
    pub raw_len: u32,
    /// Stored bytes in the container; for range chunks,
    /// `stored_len == raw_len` means the chunk is stored raw.
    pub stored_len: u32,
    /// CRC-32 of the stored bytes.
    pub crc32: u32,
    /// Fidelity tier (0 = base; always 0 for range chunks).
    pub tier: u8,
}

/// Parsed chunk table of an FCHK container.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkTable {
    /// Container flavour.
    pub kind: ChunkKind,
    /// Codec range-chunk payloads are compressed with.
    pub inner_codec: CodecId,
    /// Nominal chunk size for range containers (0 for progressive).
    pub chunk_size: u32,
    /// Total raw file length.
    pub raw_len: u64,
    /// Per-chunk rows, in payload order.
    pub chunks: Vec<ChunkMeta>,
}

impl ChunkTable {
    /// Byte offset of chunk `idx`'s stored payload *within the container*
    /// (header + table + preceding payloads).
    pub fn payload_offset(&self, idx: usize) -> usize {
        let table_end = CHUNK_HEADER + self.chunks.len() * CHUNK_ROW + 4;
        table_end + self.chunks[..idx].iter().map(|c| c.stored_len as usize).sum::<usize>()
    }

    /// Indices of the range chunks covering raw bytes `[start, end)`.
    /// Meaningful for [`ChunkKind::Range`] containers; chunks are stored
    /// in offset order so the result is a contiguous run.
    pub fn covering(&self, start: u64, end: u64) -> Vec<usize> {
        self.chunks
            .iter()
            .enumerate()
            .filter(|(_, c)| c.offset < end && c.offset + u64::from(c.raw_len) > start)
            .map(|(i, _)| i)
            .collect()
    }

    /// Indices of the progressive tiers with `tier <= min_tier`, i.e. the
    /// decodable prefix a fidelity-bounded read should fetch.
    pub fn tiers_up_to(&self, min_tier: u8) -> Vec<usize> {
        self.chunks.iter().enumerate().filter(|(_, c)| c.tier <= min_tier).map(|(i, _)| i).collect()
    }
}

/// True if `data` looks like an FCHK container (magic check only).
pub fn is_chunked(data: &[u8]) -> bool {
    data.len() >= 4 && data[..4] == CHUNK_MAGIC
}

/// The one FCHK writer: append a container to `out` with `table`'s header
/// fields, the rows `rows` and their stored bytes `payloads` (one per
/// row, in row order). The table CRC covers the bytes this call wrote.
fn write_container<P: AsRef<[u8]>>(
    out: &mut Vec<u8>,
    table: &ChunkTable,
    rows: &[ChunkMeta],
    payloads: &[P],
) {
    let start = out.len();
    let body: usize = payloads.iter().map(|p| p.as_ref().len()).sum();
    out.reserve(CHUNK_HEADER + rows.len() * CHUNK_ROW + 4 + body);
    out.extend_from_slice(&CHUNK_MAGIC);
    out.push(CHUNK_VERSION);
    out.push(match table.kind {
        ChunkKind::Range => 0,
        ChunkKind::Progressive => 1,
    });
    out.extend_from_slice(&table.inner_codec.0.to_le_bytes());
    out.extend_from_slice(&table.chunk_size.to_le_bytes());
    out.extend_from_slice(&table.raw_len.to_le_bytes());
    out.extend_from_slice(&(rows.len() as u32).to_le_bytes());
    for c in rows {
        out.extend_from_slice(&c.offset.to_le_bytes());
        out.extend_from_slice(&c.raw_len.to_le_bytes());
        out.extend_from_slice(&c.stored_len.to_le_bytes());
        out.extend_from_slice(&c.crc32.to_le_bytes());
        out.push(c.tier);
    }
    let table_crc = crc32(&out[start..]);
    out.extend_from_slice(&table_crc.to_le_bytes());
    for p in payloads {
        out.extend_from_slice(p.as_ref());
    }
}

/// Append to `out` an FCHK sub-container of `data` (parsed as `table`)
/// holding only rows `idxs` — ascending, as [`ChunkTable::covering`] and
/// [`ChunkTable::tiers_up_to`] return them — with their stored bytes
/// unchanged, so each row's at-rest CRC still holds. A ranged or tiered
/// read ships this instead of the whole object; when `idxs` is every
/// row, it is `data` itself.
pub fn write_rows(out: &mut Vec<u8>, data: &[u8], table: &ChunkTable, idxs: &[usize]) {
    if idxs.len() == table.chunks.len() {
        out.extend_from_slice(data);
        return;
    }
    let rows: Vec<ChunkMeta> = idxs.iter().map(|&i| table.chunks[i]).collect();
    let payloads: Vec<&[u8]> = idxs
        .iter()
        .map(|&i| &data[table.payload_offset(i)..][..table.chunks[i].stored_len as usize])
        .collect();
    write_container(out, table, &rows, &payloads);
}

/// Build a range-chunked container: split `data` into `chunk_size` slices
/// and compress each with `inner` (storing a chunk raw when compression
/// does not shrink it, mirroring the pack-level store fallback).
pub fn build_chunked(data: &[u8], chunk_size: usize, inner: CodecId) -> Vec<u8> {
    let chunk_size = chunk_size.max(1);
    let codec = fanstore_compress::registry::create(inner).expect("valid inner codec id");
    let mut chunks = Vec::new();
    let mut payloads = Vec::new();
    for (i, raw) in data.chunks(chunk_size).enumerate() {
        let mut packed = Vec::with_capacity(raw.len() / 2 + 64);
        codec.compress(raw, &mut packed);
        let stored = if packed.len() < raw.len() { packed } else { raw.to_vec() };
        chunks.push(ChunkMeta {
            offset: (i * chunk_size) as u64,
            raw_len: raw.len() as u32,
            stored_len: stored.len() as u32,
            crc32: crc32(&stored),
            tier: 0,
        });
        payloads.push(stored);
    }
    let table = ChunkTable {
        kind: ChunkKind::Range,
        inner_codec: inner,
        chunk_size: chunk_size as u32,
        raw_len: data.len() as u64,
        chunks,
    };
    let mut out = Vec::new();
    write_container(&mut out, &table, &table.chunks, &payloads);
    out
}

/// Build a progressive container: `tiers` fidelity tiers (clamped to
/// 1..=32) from [`fanstore_compress::progressive::encode_tiers`].
pub fn build_progressive(data: &[u8], tiers: u8) -> Vec<u8> {
    let payloads = progressive::encode_tiers(data, tiers);
    let chunks = payloads
        .iter()
        .enumerate()
        .map(|(i, p)| ChunkMeta {
            offset: 0,
            raw_len: p.len() as u32,
            stored_len: p.len() as u32,
            crc32: crc32(p),
            tier: i as u8,
        })
        .collect();
    let table = ChunkTable {
        kind: ChunkKind::Progressive,
        inner_codec: CodecId(0),
        chunk_size: 0,
        raw_len: data.len() as u64,
        chunks,
    };
    let mut out = Vec::new();
    write_container(&mut out, &table, &table.chunks, &payloads);
    out
}

/// Parse an FCHK container's header and chunk table (payloads stay in
/// place; use [`ChunkTable::payload_offset`] to slice them). Besides the
/// table CRC, the geometry is checked: range rows are aligned to
/// `chunk_size`, strictly increasing, start below `raw_len` and are
/// exactly `min(chunk_size, raw_len - offset)` wide; progressive row `i`
/// is tier `i`; and the container ends exactly after its payloads. A
/// sub-container ([`write_rows`]) passes the same checks.
pub fn parse_chunk_table(data: &[u8]) -> Result<ChunkTable, FsError> {
    if !is_chunked(data) || data.len() < CHUNK_HEADER + 4 {
        return Err(FsError::Corrupt("not an FCHK container".into()));
    }
    if data[4] != CHUNK_VERSION {
        return Err(FsError::Corrupt(format!("unknown FCHK version {}", data[4])));
    }
    let kind = match data[5] {
        0 => ChunkKind::Range,
        1 => ChunkKind::Progressive,
        k => return Err(FsError::Corrupt(format!("unknown FCHK kind {k}"))),
    };
    let inner_codec = CodecId(u16::from_le_bytes(data[6..8].try_into().expect("2 bytes")));
    let chunk_size = u32::from_le_bytes(data[8..12].try_into().expect("4 bytes"));
    let raw_len = u64::from_le_bytes(data[12..20].try_into().expect("8 bytes"));
    let count = u32::from_le_bytes(data[20..24].try_into().expect("4 bytes")) as usize;
    if kind == ChunkKind::Range && chunk_size == 0 {
        return Err(FsError::Corrupt("FCHK range container with chunk size 0".into()));
    }
    let table_end = CHUNK_HEADER + count.saturating_mul(CHUNK_ROW);
    if data.len() < table_end + 4 {
        return Err(FsError::Corrupt("FCHK table truncated".into()));
    }
    let want = u32::from_le_bytes(data[table_end..table_end + 4].try_into().expect("4 bytes"));
    if crc32(&data[..table_end]) != want {
        return Err(FsError::Corrupt("FCHK table checksum mismatch".into()));
    }
    let cs = u64::from(chunk_size);
    let mut chunks: Vec<ChunkMeta> = Vec::with_capacity(count);
    let mut payload_bytes = 0usize;
    for (i, row) in data[CHUNK_HEADER..table_end].chunks_exact(CHUNK_ROW).enumerate() {
        let field = |at: usize| u32::from_le_bytes(row[at..at + 4].try_into().expect("4 bytes"));
        let offset = u64::from_le_bytes(row[..8].try_into().expect("8 bytes"));
        let c = ChunkMeta {
            offset,
            raw_len: field(8),
            stored_len: field(12),
            crc32: field(16),
            tier: row[20],
        };
        let fits = match kind {
            ChunkKind::Progressive => usize::from(c.tier) == i,
            ChunkKind::Range => {
                offset < raw_len
                    && offset % cs == 0
                    && chunks.last().is_none_or(|p| p.offset < offset)
                    && u64::from(c.raw_len) == cs.min(raw_len - offset)
            }
        };
        if !fits {
            return Err(FsError::Corrupt(format!("FCHK row {i} geometry")));
        }
        payload_bytes += c.stored_len as usize;
        chunks.push(c);
    }
    if data.len() != table_end + 4 + payload_bytes {
        return Err(FsError::Corrupt(format!(
            "FCHK length {} != {} (table + payloads)",
            data.len(),
            table_end + 4 + payload_bytes
        )));
    }
    Ok(ChunkTable { kind, inner_codec, chunk_size, raw_len, chunks })
}

/// Slice chunk `idx`'s stored payload out of the container and verify its
/// CRC.
pub fn chunk_payload<'a>(
    data: &'a [u8],
    table: &ChunkTable,
    idx: usize,
) -> Result<&'a [u8], FsError> {
    let c = table.chunks[idx];
    let at = table.payload_offset(idx);
    let end = at + c.stored_len as usize;
    if data.len() < end {
        return Err(FsError::Corrupt(format!("chunk {idx} payload truncated")));
    }
    let payload = &data[at..end];
    if crc32(payload) != c.crc32 {
        return Err(FsError::Corrupt(format!("chunk {idx} checksum mismatch")));
    }
    Ok(payload)
}

/// Verify and decode one *range* chunk to its raw bytes.
fn decode_chunk(data: &[u8], table: &ChunkTable, idx: usize) -> Result<Vec<u8>, FsError> {
    let payload = chunk_payload(data, table, idx)?;
    let c = table.chunks[idx];
    if c.stored_len == c.raw_len {
        return Ok(payload.to_vec());
    }
    let codec = fanstore_compress::registry::create(table.inner_codec)
        .map_err(|e| FsError::Corrupt(format!("chunk {idx}: {e}")))?;
    fanstore_compress::decompress_to_vec(codec.as_ref(), payload, c.raw_len as usize)
        .map_err(|e| FsError::Corrupt(format!("chunk {idx}: {e}")))
}

/// The decoded range chunks covering one byte window, plus the file
/// geometry a cache needs to track partial residency.
#[derive(Debug, Clone)]
pub struct RangePieces {
    /// Nominal chunk size of the file; chunk `offset / chunk_size` is the
    /// cache's chunk index.
    pub chunk_size: u32,
    /// Total raw file length.
    pub total_len: u64,
    /// `(first raw byte, raw bytes)` of each covering chunk, in offset
    /// order.
    pub chunks: Vec<(u64, Arc<Vec<u8>>)>,
}

impl RangePieces {
    /// Assemble the bytes of `[start, end)` from the covering chunks.
    /// Errors if the chunks do not cover the range contiguously.
    pub fn assemble(&self, start: u64, end: u64) -> Result<Vec<u8>, FsError> {
        let mut out = Vec::with_capacity((end - start) as usize);
        let mut at = start;
        for (offset, data) in &self.chunks {
            let c_end = offset + data.len() as u64;
            if at < *offset || at >= c_end {
                continue;
            }
            let take_end = c_end.min(end);
            out.extend_from_slice(&data[(at - offset) as usize..(take_end - offset) as usize]);
            at = take_end;
            if at == end {
                break;
            }
        }
        if at != end {
            return Err(FsError::Corrupt(format!("range [{start}, {end}) not covered by chunks")));
        }
        Ok(out)
    }
}

/// Verify and decode the rows of a range container (or sub-container)
/// covering raw bytes `[start, end)` — the one range decoder, for local
/// objects and served sub-containers alike.
pub fn decode_covering(
    data: &[u8],
    table: &ChunkTable,
    start: u64,
    end: u64,
) -> Result<RangePieces, FsError> {
    let chunks = table
        .covering(start, end)
        .into_iter()
        .map(|i| Ok((table.chunks[i].offset, Arc::new(decode_chunk(data, table, i)?))))
        .collect::<Result<_, FsError>>()?;
    Ok(RangePieces { chunk_size: table.chunk_size, total_len: table.raw_len, chunks })
}

/// Decode a whole FCHK container back to the raw file bytes.
pub fn decode_chunked(data: &[u8]) -> Result<Vec<u8>, FsError> {
    let table = parse_chunk_table(data)?;
    match table.kind {
        ChunkKind::Range => {
            // Checked rows that number exactly the chunk slots tile
            // [0, raw_len): only then is raw_len worth allocating.
            if table.chunks.len() as u64 != table.raw_len.div_ceil(u64::from(table.chunk_size)) {
                return Err(FsError::Corrupt("FCHK rows do not tile the file".into()));
            }
            let mut out = Vec::with_capacity(table.raw_len as usize);
            for idx in 0..table.chunks.len() {
                out.extend_from_slice(&decode_chunk(data, &table, idx)?);
            }
            Ok(out)
        }
        ChunkKind::Progressive => decode_tiers(data, &table, TIER_FULL),
    }
}

/// Decode a *prefix* of a progressive container's tiers (those with
/// `tier <= min_tier`) into an approximation of the file; a range
/// container decodes whole.
pub fn decode_progressive_prefix(data: &[u8], min_tier: u8) -> Result<Vec<u8>, FsError> {
    let table = parse_chunk_table(data)?;
    if table.kind != ChunkKind::Progressive {
        return decode_chunked(data);
    }
    decode_tiers(data, &table, min_tier)
}

/// Verify and decode the progressive tiers `<= min_tier` of `data`
/// (parsed as the progressive `table`).
pub fn decode_tiers(data: &[u8], table: &ChunkTable, min_tier: u8) -> Result<Vec<u8>, FsError> {
    let payloads: Result<Vec<&[u8]>, FsError> =
        table.tiers_up_to(min_tier).into_iter().map(|i| chunk_payload(data, table, i)).collect();
    progressive::decode_prefix(&payloads?, table.raw_len as usize)
        .map_err(|e| FsError::Corrupt(format!("progressive decode: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fanstore_compress::CodecFamily;

    fn codec() -> CodecId {
        CodecId::new(CodecFamily::Lz4Hc, 9)
    }

    #[test]
    fn empty_partition_roundtrip() {
        let p = PartitionBuilder::new().finish();
        assert_eq!(p.len(), 4);
        assert!(parse_partition(&p).unwrap().is_empty());
    }

    #[test]
    fn multi_entry_roundtrip() {
        let mut b = PartitionBuilder::new();
        let s1 = FileStat::regular(1, 100);
        let s2 = FileStat::regular(2, 5);
        b.push("dir/a.bin", codec(), &s1, &[9u8; 37]);
        b.push("dir/sub/b.bin", codec(), &s2, &[]);
        assert_eq!(b.len(), 2);
        let bytes = b.finish();
        let entries = parse_partition(&bytes).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].path, "dir/a.bin");
        assert_eq!(entries[0].data, vec![9u8; 37]);
        assert_eq!(entries[0].stat, s1);
        assert_eq!(entries[1].path, "dir/sub/b.bin");
        assert!(entries[1].data.is_empty());
    }

    #[test]
    fn layout_matches_table1_widths() {
        let mut b = PartitionBuilder::new();
        b.push("x", codec(), &FileStat::regular(1, 3), b"abc");
        let bytes = b.finish();
        // 4 (count) + 256 (path) + 2 (compressor) + 144 (stat) + 8 (size) + 3 (data)
        assert_eq!(bytes.len(), 4 + 256 + 2 + 144 + 8 + 3);
        // Path field is NUL-padded.
        assert_eq!(bytes[4], b'x');
        assert!(bytes[5..4 + 256].iter().all(|&b| b == 0));
    }

    #[test]
    #[should_panic(expected = "path too long")]
    fn overlong_path_panics() {
        let mut b = PartitionBuilder::new();
        let long = "p".repeat(256);
        b.push(&long, codec(), &FileStat::regular(1, 0), &[]);
    }

    #[test]
    fn truncated_partition_rejected() {
        let mut b = PartitionBuilder::new();
        b.push("f", codec(), &FileStat::regular(1, 10), &[0u8; 10]);
        let bytes = b.finish();
        for cut in [2usize, 100, bytes.len() - 1] {
            assert!(parse_partition(&bytes[..cut]).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn count_mismatch_rejected() {
        let mut b = PartitionBuilder::new();
        b.push("f", codec(), &FileStat::regular(1, 4), &[1, 2, 3, 4]);
        let mut bytes = b.finish();
        bytes[..4].copy_from_slice(&5u32.to_le_bytes()); // claim 5 entries
        assert!(parse_partition(&bytes).is_err());
    }

    #[test]
    fn max_length_path_ok() {
        let mut b = PartitionBuilder::new();
        let path = "p".repeat(255);
        b.push(&path, codec(), &FileStat::regular(1, 0), &[]);
        let entries = parse_partition(&b.finish()).unwrap();
        assert_eq!(entries[0].path, path);
    }

    fn sample(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i % 251) as u8).collect()
    }

    #[test]
    fn chunked_sentinel_is_not_a_registry_codec() {
        assert!(CHUNKED.family().is_none());
        assert!(fanstore_compress::registry::create(CHUNKED).is_err());
    }

    #[test]
    fn chunked_container_roundtrip() {
        for (len, chunk) in [(0usize, 64usize), (1, 64), (64, 64), (65, 64), (10_000, 777)] {
            let data = sample(len);
            let packed = build_chunked(&data, chunk, codec());
            assert!(is_chunked(&packed));
            assert_eq!(decode_chunked(&packed).unwrap(), data, "len={len} chunk={chunk}");
        }
    }

    #[test]
    fn covering_chunks_are_minimal() {
        let data = sample(1000);
        let packed = build_chunked(&data, 100, codec());
        let table = parse_chunk_table(&packed).unwrap();
        assert_eq!(table.chunks.len(), 10);
        assert_eq!(table.covering(0, 1), vec![0]);
        assert_eq!(table.covering(250, 251), vec![2]);
        assert_eq!(table.covering(250, 450), vec![2, 3, 4]);
        assert_eq!(table.covering(999, 1000), vec![9]);
        assert!(table.covering(1000, 1001).is_empty());
    }

    #[test]
    fn progressive_container_roundtrip_and_prefix() {
        let vals: Vec<u8> =
            (0..800u32).flat_map(|i| ((i as f32) * 0.25).sin().to_le_bytes()).collect();
        let packed = build_progressive(&vals, 4);
        let table = parse_chunk_table(&packed).unwrap();
        assert_eq!(table.kind, ChunkKind::Progressive);
        assert_eq!(table.chunks.len(), 4);
        assert_eq!(decode_chunked(&packed).unwrap(), vals);
        let coarse = decode_progressive_prefix(&packed, 0).unwrap();
        assert_eq!(coarse.len(), vals.len());
        let err0 = fanstore_compress::progressive::max_abs_error(&vals, &coarse);
        let err_full = fanstore_compress::progressive::max_abs_error(
            &vals,
            &decode_progressive_prefix(&packed, TIER_FULL).unwrap(),
        );
        assert!(err_full <= err0);
        assert_eq!(err_full, 0.0);
    }

    #[test]
    fn corrupt_chunk_detected_by_crc() {
        let data = sample(1000);
        let mut packed = build_chunked(&data, 100, codec());
        let table = parse_chunk_table(&packed).unwrap();
        let at = table.payload_offset(3);
        packed[at] ^= 0xff;
        assert!(chunk_payload(&packed, &table, 3).is_err());
        // Neighbouring chunks are untouched.
        assert!(chunk_payload(&packed, &table, 2).is_ok());
        assert!(chunk_payload(&packed, &table, 4).is_ok());
        assert!(decode_chunked(&packed).is_err());
    }

    /// `packed` with `edit` applied to its header and chunk table and the
    /// table CRC recomputed: a crafted table that only geometry checks
    /// can reject.
    fn reseal(mut packed: Vec<u8>, edit: impl FnOnce(&mut [u8])) -> Vec<u8> {
        let rows = u32::from_le_bytes(packed[20..24].try_into().unwrap()) as usize;
        let table_end = CHUNK_HEADER + rows * CHUNK_ROW;
        edit(&mut packed[..table_end]);
        let crc = crc32(&packed[..table_end]);
        packed[table_end..table_end + 4].copy_from_slice(&crc.to_le_bytes());
        packed
    }

    /// Overwrite `bytes` at `at` (header fields and row fields alike).
    fn put(table: &mut [u8], at: usize, bytes: &[u8]) {
        table[at..at + bytes.len()].copy_from_slice(bytes);
    }

    /// Byte offset of field `field` of row `row` in a container.
    fn row_at(row: usize, field: usize) -> usize {
        CHUNK_HEADER + row * CHUNK_ROW + field
    }

    #[test]
    fn rows_wider_than_chunk_size_rejected() {
        // Three 20-byte rows under a header claiming 10-byte chunks.
        let packed =
            reseal(build_chunked(&sample(60), 20, codec()), |t| put(t, 8, &10u32.to_le_bytes()));
        assert!(parse_chunk_table(&packed).is_err());
    }

    #[test]
    fn short_middle_chunk_rejected() {
        // Row 1 of a 30-byte file in 10-byte chunks claims 2 raw bytes: a
        // cache holding it would mis-slice every window past it.
        let packed = reseal(build_chunked(&sample(30), 10, codec()), |t| {
            put(t, row_at(1, 8), &2u32.to_le_bytes())
        });
        assert!(parse_chunk_table(&packed).is_err());
    }

    #[test]
    fn misaligned_unordered_or_out_of_file_rows_rejected() {
        let packed = build_chunked(&sample(60), 20, codec());
        let misaligned = reseal(packed.clone(), |t| put(t, row_at(1, 0), &25u64.to_le_bytes()));
        assert!(parse_chunk_table(&misaligned).is_err());
        let repeated = reseal(packed.clone(), |t| put(t, row_at(2, 0), &20u64.to_le_bytes()));
        assert!(parse_chunk_table(&repeated).is_err());
        // raw_len 40 leaves row 2 (offset 40) outside the file.
        let outside = reseal(packed, |t| put(t, 12, &40u64.to_le_bytes()));
        assert!(parse_chunk_table(&outside).is_err());
    }

    #[test]
    fn huge_raw_len_rejected_before_allocating() {
        // One valid 64-byte row under a header claiming 2^36 raw bytes:
        // the row fits, but the rows do not tile the file.
        let packed = reseal(build_chunked(&sample(64), 64, codec()), |t| {
            put(t, 12, &(1u64 << 36).to_le_bytes())
        });
        assert!(parse_chunk_table(&packed).is_ok(), "a sub-container may skip rows");
        assert!(decode_chunked(&packed).is_err());
    }

    #[test]
    fn progressive_rows_must_be_tiers_in_order() {
        let vals: Vec<u8> = (0..64u32).flat_map(|i| (i as f32).to_le_bytes()).collect();
        let packed = reseal(build_progressive(&vals, 3), |t| t[row_at(1, 20)] = 2);
        assert!(parse_chunk_table(&packed).is_err());
    }

    #[test]
    fn trailing_bytes_after_payloads_rejected() {
        let mut packed = build_chunked(&sample(100), 40, codec());
        packed.push(0);
        assert!(parse_chunk_table(&packed).is_err());
    }

    #[test]
    fn sub_container_holds_only_the_selected_rows() {
        let data = sample(1000);
        let packed = build_chunked(&data, 100, codec());
        let table = parse_chunk_table(&packed).unwrap();
        let mut sub = Vec::new();
        write_rows(&mut sub, &packed, &table, &table.covering(250, 450));
        let sub_table = parse_chunk_table(&sub).unwrap();
        assert_eq!(sub_table.chunks, table.chunks[2..5]);
        let pieces = decode_covering(&sub, &sub_table, 250, 450).unwrap();
        assert_eq!(pieces.assemble(250, 450).unwrap(), &data[250..450]);
        // Every row: the stored container as it is.
        let mut all = Vec::new();
        write_rows(&mut all, &packed, &table, &(0..table.chunks.len()).collect::<Vec<_>>());
        assert_eq!(all, packed);
    }

    #[test]
    fn corrupt_table_detected_by_crc() {
        let data = sample(500);
        let mut packed = build_chunked(&data, 100, codec());
        packed[CHUNK_HEADER + 2] ^= 1; // flip a bit inside a table row
        assert!(parse_chunk_table(&packed).is_err());
        packed[CHUNK_HEADER + 2] ^= 1;
        assert!(parse_chunk_table(&packed).is_ok());
        for cut in [3usize, CHUNK_HEADER, CHUNK_HEADER + 10, packed.len() - 1] {
            assert!(parse_chunk_table(&packed[..cut]).is_err(), "cut={cut}");
        }
    }
}
