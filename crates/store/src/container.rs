//! The `SUITTRC3` chunked container: pack, index, seek, stream.
//!
//! Layout (all integers little-endian, every varint minimal LEB128):
//!
//! ```text
//! header   magic "SUITTRC3"                                  8 bytes
//!          name varint len + UTF-8 bytes (≤ 4096)
//!          ipc f64 bits                                      8 bytes
//!          total varint (virtual instructions)
//!          chunk_bursts varint (bursts per full chunk)
//! chunks   chunk_count × columnar body, back to back:
//!            gaps_len, events_len, within_len varints (column bytes)
//!            gaps     one varint per burst
//!            events   one varint per burst
//!            within   (value, run) varint pairs, runs summing to bursts
//!            opcodes  ⌈bursts/2⌉ bytes: a 4-bit opcode index per burst,
//!                     low nibble first, an odd chunk's last nibble 0
//! index    chunk_count × 32-byte record:
//!          { offset u64, body_len u32, zero u32,
//!            bursts u32, crc32 u32, first_vtime u64 }
//! trailer  index_offset u64, index_crc32 u32,
//!          chunk_count u32, tail magic "3CRTTIUS"            24 bytes
//! ```
//!
//! Bodies are stored as written. Gaps are independent lognormal draws
//! and opcodes independent picks from Table 1's twelve, so neither delta
//! coding nor opcode runs pay; a generated trace has one `within` value,
//! so that column costs a few bytes per chunk. The length prefixes let
//! the decoder walk the four columns with four cursors in one pass,
//! building each burst once.
//!
//! Each chunk is independent, so decoding one costs O(chunk) memory
//! regardless of trace size, and the fixed-size index footer supports
//! O(log n) seeks by virtual time (`first_vtime` is the cumulative
//! instruction count at the chunk's first burst). Decoding a chunk checks
//! its CRC over the stored body, and that its bursts end at the next
//! record's `first_vtime`, so a fully decodable container seeks where a
//! skip from the start lands.
//!
//! The reader accepts exactly what [`pack`] writes: minimal varints,
//! every chunk but the last full, adjacent `within` runs with distinct
//! values, a zero padding nibble and a zero reserved index word. One
//! trace thus has one encoding, and the content hash that names an
//! uploaded trace names the trace, not one of its spellings.
//!
//! Every length field read from a container is validated against the
//! physically available bytes before any allocation — a hostile header
//! can make the reader return `Corrupt`, never balloon memory.

use std::io::{self, Read, Seek, SeekFrom, Write};

use suit_isa::Opcode;
use suit_trace::io::TraceMeta;
use suit_trace::Burst;

use crate::crc::crc32;

const MAGIC: &[u8; 8] = b"SUITTRC3";
/// Tail magic (the header magic reversed) closing the trailer.
const TAIL_MAGIC: &[u8; 8] = b"3CRTTIUS";
const INDEX_RECORD_BYTES: u64 = 32;
const TRAILER_BYTES: u64 = 24;
/// Shortest possible container: magic + empty name + ipc + two varints
/// + trailer.
const MIN_FILE_BYTES: u64 = 8 + 1 + 8 + 1 + 1 + TRAILER_BYTES;
const MAX_NAME_BYTES: usize = 4096;

/// Default bursts per chunk: ~24 KiB of body per chunk for typical traces.
pub const DEFAULT_CHUNK_BURSTS: usize = 4096;
/// Upper bound on bursts per chunk, capping per-chunk decode memory.
pub const MAX_CHUNK_BURSTS: usize = 1 << 20;

/// Container failures: I/O, foreign bytes, or structural corruption.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The stream does not carry the `SUITTRC3` magic.
    BadMagic,
    /// A structural invariant does not hold (truncation, checksum
    /// mismatch, over-declared length, invalid burst, a spelling `pack`
    /// never writes, …).
    Corrupt(&'static str),
    /// Invalid arguments to a pack call (caller bug, not data corruption).
    Invalid(&'static str),
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl core::fmt::Display for StoreError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "container I/O error: {e}"),
            StoreError::BadMagic => write!(f, "not a SUITTRC3 container (bad magic)"),
            StoreError::Corrupt(what) => write!(f, "corrupt container: {what}"),
            StoreError::Invalid(what) => write!(f, "invalid pack request: {what}"),
        }
    }
}

impl std::error::Error for StoreError {}

// ---------------------------------------------------------------- varints

/// Appends `v` as a minimal LEB128 varint.
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Reads a minimal LEB128 varint at `*pos`, advancing it.
fn read_varint(buf: &[u8], pos: &mut usize) -> Result<u64, StoreError> {
    let mut v: u64 = 0;
    let mut shift = 0;
    loop {
        let b = *buf
            .get(*pos)
            .ok_or(StoreError::Corrupt("varint truncated"))?;
        *pos += 1;
        if shift == 63 && b > 1 {
            return Err(StoreError::Corrupt("varint overflow"));
        }
        v |= u64::from(b & 0x7F) << shift;
        if b < 0x80 {
            // A zero last byte adds nothing: `put_varint` never writes one.
            if b == 0 && shift > 0 {
                return Err(StoreError::Corrupt("overlong varint"));
            }
            return Ok(v);
        }
        shift += 7;
    }
}

/// The vtime at which `b` ends when it starts at `start`, or `None` past
/// `u64::MAX`: `gap + (span + 1)` is `total_insts` without its overflow.
fn burst_end(start: u64, b: &Burst) -> Option<u64> {
    start
        .checked_add(b.gap_insts)?
        .checked_add(b.span_insts() + 1)
}

// ---------------------------------------------------------------- packing

/// What a pack produced — the numbers `trace record` reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackStats {
    /// Bursts written.
    pub bursts: u64,
    /// Chunks written.
    pub chunks: u64,
    /// Total container size including header, index and trailer.
    pub packed_bytes: u64,
}

/// Writes `chunk`'s columnar body (see the module layout) into `body`.
fn encode_body(chunk: &[Burst], body: &mut Vec<u8>) {
    let mut cols = [Vec::new(), Vec::new(), Vec::new()];
    let [gaps, events, within] = &mut cols;
    let mut run_start = 0;
    for (i, b) in chunk.iter().enumerate() {
        put_varint(gaps, b.gap_insts);
        put_varint(events, u64::from(b.events));
        if chunk
            .get(i + 1)
            .map_or(true, |next| next.within_gap_insts != b.within_gap_insts)
        {
            put_varint(within, u64::from(b.within_gap_insts));
            put_varint(within, (i + 1 - run_start) as u64);
            run_start = i + 1;
        }
    }
    body.clear();
    for col in &cols {
        put_varint(body, col.len() as u64);
    }
    for col in &cols {
        body.extend_from_slice(col);
    }
    body.extend(chunk.chunks(2).map(|pair| {
        let high = pair.get(1).map_or(0, |b| b.opcode.index() as u8);
        high << 4 | pair[0].opcode.index() as u8
    }));
}

/// Encodes `chunk` into `body`, writes it at `*pos` and returns its
/// index record.
fn write_chunk<W: Write>(
    w: &mut W,
    pos: &mut u64,
    chunk: &[Burst],
    first_vtime: u64,
    body: &mut Vec<u8>,
) -> Result<ChunkRecord, StoreError> {
    encode_body(chunk, body);
    w.write_all(body)?;
    let rec = ChunkRecord {
        offset: *pos,
        body_len: body.len() as u32,
        bursts: chunk.len() as u32,
        crc32: crc32(body),
        first_vtime,
    };
    *pos += body.len() as u64;
    Ok(rec)
}

/// Packs `bursts` into a `SUITTRC3` container on `w`, `chunk_bursts`
/// bursts per chunk (the last chunk may be short).
///
/// Packing is streaming: memory stays O(chunk) however long the input
/// iterator runs, and `w` only needs `Write` — offsets are tracked, not
/// sought. The output is a pure function of `(meta, bursts, chunk_bursts)`.
pub fn pack<W: Write, I: IntoIterator<Item = Burst>>(
    w: &mut W,
    meta: &TraceMeta,
    bursts: I,
    chunk_bursts: usize,
) -> Result<PackStats, StoreError> {
    if chunk_bursts == 0 || chunk_bursts > MAX_CHUNK_BURSTS {
        return Err(StoreError::Invalid("chunk_bursts out of range"));
    }
    if meta.name.len() > MAX_NAME_BYTES {
        return Err(StoreError::Invalid("name too long"));
    }
    if !meta.ipc.is_finite() || meta.ipc <= 0.0 {
        return Err(StoreError::Invalid("non-positive IPC"));
    }

    // Header.
    let mut head = MAGIC.to_vec();
    put_varint(&mut head, meta.name.len() as u64);
    head.extend_from_slice(meta.name.as_bytes());
    head.extend_from_slice(&meta.ipc.to_bits().to_le_bytes());
    put_varint(&mut head, meta.total_insts);
    put_varint(&mut head, chunk_bursts as u64);
    w.write_all(&head)?;
    let mut pos = head.len() as u64;

    // Chunks.
    let mut index: Vec<ChunkRecord> = Vec::new();
    let mut chunk = Vec::new();
    let mut body = Vec::new();
    let mut vtime: u64 = 0;
    let mut chunk_vtime: u64 = 0; // first_vtime of the chunk being filled
    for b in bursts {
        if chunk.is_empty() {
            chunk_vtime = vtime;
        }
        vtime = burst_end(vtime, &b).ok_or(StoreError::Invalid("virtual time overflows u64"))?;
        chunk.push(b);
        if chunk.len() == chunk_bursts {
            index.push(write_chunk(w, &mut pos, &chunk, chunk_vtime, &mut body)?);
            chunk.clear();
        }
    }
    if !chunk.is_empty() {
        index.push(write_chunk(w, &mut pos, &chunk, chunk_vtime, &mut body)?);
    }

    // Index + trailer.
    let index_offset = pos;
    let mut index_bytes = Vec::with_capacity(index.len() * INDEX_RECORD_BYTES as usize);
    for rec in &index {
        rec.encode(&mut index_bytes);
    }
    w.write_all(&index_bytes)?;
    w.write_all(&index_offset.to_le_bytes())?;
    w.write_all(&crc32(&index_bytes).to_le_bytes())?;
    w.write_all(&(index.len() as u32).to_le_bytes())?;
    w.write_all(TAIL_MAGIC)?;
    Ok(PackStats {
        bursts: index.iter().map(|r| u64::from(r.bursts)).sum(),
        chunks: index.len() as u64,
        packed_bytes: index_offset + index_bytes.len() as u64 + TRAILER_BYTES,
    })
}

/// [`pack`] into a fresh byte vector.
pub fn pack_to_vec<I: IntoIterator<Item = Burst>>(
    meta: &TraceMeta,
    bursts: I,
    chunk_bursts: usize,
) -> Result<Vec<u8>, StoreError> {
    let mut out = Vec::new();
    pack(&mut out, meta, bursts, chunk_bursts)?;
    Ok(out)
}

// ----------------------------------------------------------------- index

/// One chunk's entry in the index footer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkRecord {
    /// Byte offset of the chunk's body from container start.
    pub offset: u64,
    /// Body length in bytes.
    pub body_len: u32,
    /// Bursts in the chunk.
    pub bursts: u32,
    /// CRC-32 of the stored body.
    pub crc32: u32,
    /// Cumulative virtual instructions before the chunk's first burst.
    pub first_vtime: u64,
}

impl ChunkRecord {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.offset.to_le_bytes());
        out.extend_from_slice(&self.body_len.to_le_bytes());
        out.extend_from_slice(&0u32.to_le_bytes());
        out.extend_from_slice(&self.bursts.to_le_bytes());
        out.extend_from_slice(&self.crc32.to_le_bytes());
        out.extend_from_slice(&self.first_vtime.to_le_bytes());
    }

    fn decode(buf: &[u8]) -> Result<Self, StoreError> {
        let u32_at = |i: usize| u32::from_le_bytes(buf[i..i + 4].try_into().unwrap());
        let u64_at = |i: usize| u64::from_le_bytes(buf[i..i + 8].try_into().unwrap());
        if u32_at(12) != 0 {
            return Err(StoreError::Corrupt("reserved index word is not zero"));
        }
        Ok(ChunkRecord {
            offset: u64_at(0),
            body_len: u32_at(8),
            bursts: u32_at(16),
            crc32: u32_at(20),
            first_vtime: u64_at(24),
        })
    }
}

/// Summary of an opened container (the `trace info` payload).
#[derive(Debug, Clone, PartialEq)]
pub struct ContainerInfo {
    /// Trace metadata from the header.
    pub meta: TraceMeta,
    /// Chunk count.
    pub chunks: u64,
    /// Total bursts across all chunks.
    pub bursts: u64,
    /// Bursts per full chunk.
    pub chunk_bursts: u64,
    /// Total container size in bytes.
    pub packed_bytes: u64,
}

// --------------------------------------------------------------- reading

/// A bounded-memory, seekable reader over a `SUITTRC3` container.
///
/// Opening validates the trailer, the index checksum, and every index
/// record against the physical file size; bursts then stream out of the
/// one decoded chunk the reader holds, so peak memory is O(chunk), never
/// O(trace). [`Self::peak_resident_bursts`] reports the high-water mark
/// so tests can pin the bound.
pub struct StreamingReader<R: Read + Seek> {
    src: R,
    meta: TraceMeta,
    chunk_bursts: u64,
    index: Vec<ChunkRecord>,
    packed_bytes: u64,
    /// The stored body of the chunk last read, reused across chunks.
    body: Vec<u8>,
    /// The decoded chunk: `bursts` holds `index[i]`'s bursts when
    /// `loaded == Some(i)`.
    loaded: Option<usize>,
    bursts: Vec<Burst>,
    /// Cursor: next burst is `index[cur_chunk]`'s burst `cur_burst`
    /// (`cur_chunk == index.len()` ⇒ end of trace).
    cur_chunk: usize,
    cur_burst: usize,
    peak_resident: usize,
    decodes: u64,
}

impl<R: Read + Seek> StreamingReader<R> {
    /// Opens and validates a container.
    pub fn open(mut src: R) -> Result<Self, StoreError> {
        let file_len = src.seek(SeekFrom::End(0))?;
        if file_len < MIN_FILE_BYTES {
            // Too short even for an empty container — check the magic so
            // foreign files still report `BadMagic` over `Corrupt`.
            src.seek(SeekFrom::Start(0))?;
            let mut magic = [0u8; 8];
            if src.read_exact(&mut magic).is_err() || &magic != MAGIC {
                return Err(StoreError::BadMagic);
            }
            return Err(StoreError::Corrupt("container shorter than trailer"));
        }

        // Trailer.
        src.seek(SeekFrom::End(-(TRAILER_BYTES as i64)))?;
        let mut trailer = [0u8; TRAILER_BYTES as usize];
        src.read_exact(&mut trailer)?;
        if &trailer[16..24] != TAIL_MAGIC {
            // Distinguish "not ours at all" from "ours but damaged".
            src.seek(SeekFrom::Start(0))?;
            let mut magic = [0u8; 8];
            src.read_exact(&mut magic)?;
            if &magic != MAGIC {
                return Err(StoreError::BadMagic);
            }
            return Err(StoreError::Corrupt("bad trailer magic"));
        }
        let index_offset = u64::from_le_bytes(trailer[0..8].try_into().unwrap());
        let index_crc = u32::from_le_bytes(trailer[8..12].try_into().unwrap());
        let chunk_count = u32::from_le_bytes(trailer[12..16].try_into().unwrap());
        // The index must sit exactly between the chunks and the trailer:
        // this single equation bounds the index allocation by the
        // physical file size before any `Vec` is sized from it.
        let index_bytes_len = u64::from(chunk_count)
            .checked_mul(INDEX_RECORD_BYTES)
            .ok_or(StoreError::Corrupt("index size overflows"))?;
        if index_offset
            .checked_add(index_bytes_len)
            .and_then(|v| v.checked_add(TRAILER_BYTES))
            != Some(file_len)
        {
            return Err(StoreError::Corrupt("index does not fit the file"));
        }

        // Index.
        src.seek(SeekFrom::Start(index_offset))?;
        let mut index_bytes = vec![0u8; index_bytes_len as usize];
        src.read_exact(&mut index_bytes)?;
        if crc32(&index_bytes) != index_crc {
            return Err(StoreError::Corrupt("index checksum mismatch"));
        }

        // Header.
        src.seek(SeekFrom::Start(0))?;
        let head_budget = index_offset.min(8 + 1 + MAX_NAME_BYTES as u64 + 8 + 10 + 10);
        let mut head = vec![0u8; head_budget as usize];
        src.read_exact(&mut head)?;
        if head.len() < 8 || head[..8] != MAGIC[..] {
            return Err(StoreError::BadMagic);
        }
        let mut pos = 8usize;
        let name_len = read_varint(&head, &mut pos)? as usize;
        if name_len > MAX_NAME_BYTES {
            return Err(StoreError::Corrupt("name too long"));
        }
        let name_bytes = head
            .get(pos..pos + name_len)
            .ok_or(StoreError::Corrupt("name truncated"))?;
        let name = String::from_utf8(name_bytes.to_vec())
            .map_err(|_| StoreError::Corrupt("name not UTF-8"))?;
        pos += name_len;
        let ipc_bytes = head
            .get(pos..pos + 8)
            .ok_or(StoreError::Corrupt("header truncated"))?;
        let ipc = f64::from_bits(u64::from_le_bytes(ipc_bytes.try_into().unwrap()));
        if !ipc.is_finite() || ipc <= 0.0 {
            return Err(StoreError::Corrupt("non-positive IPC"));
        }
        pos += 8;
        let total_insts = read_varint(&head, &mut pos)?;
        let chunk_bursts = read_varint(&head, &mut pos)?;
        if chunk_bursts == 0 || chunk_bursts > MAX_CHUNK_BURSTS as u64 {
            return Err(StoreError::Corrupt("chunk_bursts out of range"));
        }
        let header_len = pos as u64;

        // Validate every index record against the physical layout before
        // trusting any of its lengths.
        let mut index: Vec<ChunkRecord> = Vec::with_capacity(chunk_count as usize);
        let mut expect_offset = header_len;
        for (i, raw) in index_bytes
            .chunks_exact(INDEX_RECORD_BYTES as usize)
            .enumerate()
        {
            let rec = ChunkRecord::decode(raw)?;
            let bursts = u64::from(rec.bursts);
            if rec.offset != expect_offset {
                return Err(StoreError::Corrupt("chunks are not contiguous"));
            }
            if bursts == 0 {
                return Err(StoreError::Corrupt("empty chunk"));
            }
            if bursts > chunk_bursts {
                return Err(StoreError::Corrupt("chunk over-declares bursts"));
            }
            if bursts < chunk_bursts && i + 1 < chunk_count as usize {
                return Err(StoreError::Corrupt("short chunk before the last"));
            }
            // Every burst takes at least 2.5 body bytes (a gap byte, an
            // events byte, an opcode nibble): a count the body cannot
            // hold is hostile, and it sizes the decode buffer.
            if bursts * 5 > u64::from(rec.body_len) * 2 {
                return Err(StoreError::Corrupt("chunk body too short for its bursts"));
            }
            match index.last() {
                None if rec.first_vtime != 0 => {
                    return Err(StoreError::Corrupt("first chunk must start at vtime 0"))
                }
                Some(prev) if rec.first_vtime <= prev.first_vtime => {
                    return Err(StoreError::Corrupt("chunk vtimes must increase"))
                }
                _ => {}
            }
            expect_offset += u64::from(rec.body_len);
            index.push(rec);
        }
        if expect_offset != index_offset {
            return Err(StoreError::Corrupt("chunk region does not reach the index"));
        }

        Ok(StreamingReader {
            src,
            meta: TraceMeta {
                name,
                ipc,
                total_insts,
            },
            chunk_bursts,
            index,
            packed_bytes: file_len,
            body: Vec::new(),
            loaded: None,
            bursts: Vec::new(),
            cur_chunk: 0,
            cur_burst: 0,
            peak_resident: 0,
            decodes: 0,
        })
    }

    /// The trace metadata from the header.
    pub fn meta(&self) -> &TraceMeta {
        &self.meta
    }

    /// Container summary (chunk/burst counts, size).
    pub fn info(&self) -> ContainerInfo {
        ContainerInfo {
            meta: self.meta.clone(),
            chunks: self.index.len() as u64,
            bursts: self.index.iter().map(|r| u64::from(r.bursts)).sum(),
            chunk_bursts: self.chunk_bursts,
            packed_bytes: self.packed_bytes,
        }
    }

    /// The validated per-chunk index.
    pub fn index(&self) -> &[ChunkRecord] {
        &self.index
    }

    /// High-water mark of decoded bursts resident — at most one chunk's
    /// worth, the memory bound the container exists to enforce.
    pub fn peak_resident_bursts(&self) -> usize {
        self.peak_resident
    }

    /// Chunk decodes performed so far (sequential replay decodes each
    /// chunk exactly once).
    pub fn chunk_decodes(&self) -> u64 {
        self.decodes
    }

    /// Makes chunk `ci` the decoded one (a no-op when it already is) and
    /// returns its bursts. Decoding checks the chunk CRC, every burst,
    /// and that the bursts end exactly where the next index record's
    /// `first_vtime` says the next chunk starts.
    fn chunk(&mut self, ci: usize) -> Result<&[Burst], StoreError> {
        if self.loaded != Some(ci) {
            // Decoding overwrites `bursts`: a failed decode leaves no
            // chunk loaded.
            self.loaded = None;
            let rec = self.index[ci];
            self.src.seek(SeekFrom::Start(rec.offset))?;
            self.body.resize(rec.body_len as usize, 0);
            self.src.read_exact(&mut self.body)?;
            if crc32(&self.body) != rec.crc32 {
                return Err(StoreError::Corrupt("chunk checksum mismatch"));
            }
            let end = decode_body(&self.body, &rec, &mut self.bursts)?;
            if self
                .index
                .get(ci + 1)
                .is_some_and(|next| next.first_vtime != end)
            {
                return Err(StoreError::Corrupt("index vtime disagrees with the bursts"));
            }
            self.decodes += 1;
            self.loaded = Some(ci);
            self.peak_resident = self.peak_resident.max(self.bursts.len());
        }
        Ok(&self.bursts)
    }

    /// Decodes every chunk once, in order: the chunk CRCs, every burst,
    /// the canonical form and the index vtimes, exactly the checks a
    /// full drain of [`Self::next_burst`] makes, with the same first
    /// error, in O(chunk) memory and without yielding a burst. The cursor
    /// does not move.
    pub fn validate(&mut self) -> Result<(), StoreError> {
        for ci in 0..self.index.len() {
            self.chunk(ci)?;
        }
        Ok(())
    }

    /// Yields the next burst, or `None` at end of trace.
    pub fn next_burst(&mut self) -> Result<Option<Burst>, StoreError> {
        while self.cur_chunk < self.index.len() {
            let at = self.cur_burst;
            if at < self.index[self.cur_chunk].bursts as usize {
                let b = self.chunk(self.cur_chunk)?[at];
                self.cur_burst += 1;
                return Ok(Some(b));
            }
            self.cur_chunk += 1;
            self.cur_burst = 0;
        }
        Ok(None)
    }

    /// Positions the cursor on the burst covering virtual instruction
    /// `target` — the same burst a skip-from-start would stop at — via a
    /// binary search of the index, decoding at most one chunk. Returns
    /// the start vtime of the burst now at the cursor (the cumulative
    /// `total_insts` of everything before it); for a `target` at or past
    /// the end of the trace the cursor lands on end-of-trace and the
    /// trace's total burst time is returned.
    pub fn seek_to_vtime(&mut self, target: u64) -> Result<u64, StoreError> {
        // Chunks before `ci` start at or before `target`; chunk 0 starts
        // at 0, so `ci == 0` only for an empty trace.
        let ci = self.index.partition_point(|r| r.first_vtime <= target);
        let Some(ci) = ci.checked_sub(1) else {
            (self.cur_chunk, self.cur_burst) = (0, 0);
            return Ok(0);
        };
        let mut v = self.index[ci].first_vtime;
        let mut hit = None;
        for (j, b) in self.chunk(ci)?.iter().enumerate() {
            let end = v + b.total_insts();
            if end > target {
                hit = Some(j);
                break;
            }
            v = end;
        }
        // Decoding checked that chunk `ci` ends where chunk `ci + 1`
        // starts, after `target`: only the last chunk can miss it, and
        // then the cursor parks at end of trace.
        (self.cur_chunk, self.cur_burst) = match hit {
            Some(j) => (ci, j),
            None => (self.index.len(), 0),
        };
        Ok(v)
    }

    /// Converts into a plain `Iterator<Item = Burst>` for the engine's
    /// streaming entry points; a decode error ends the iteration and is
    /// retrievable from [`Bursts::error`] / [`Bursts::finish`].
    pub fn bursts(self) -> Bursts<R> {
        Bursts {
            reader: self,
            error: None,
        }
    }
}

/// Table 1's opcodes by their 4-bit index; the other nibbles are corrupt.
const NIBBLE_OPCODES: [Option<Opcode>; 16] = {
    let mut t = [None; 16];
    let mut i = 0;
    while i < 16 {
        if Opcode::ALL[i].is_faultable() {
            t[i] = Some(Opcode::ALL[i]);
        }
        i += 1;
    }
    t
};

/// Splits a `len`-byte column off the front of `rest`.
fn split_column(rest: &[u8], len: u64) -> Result<(&[u8], &[u8]), StoreError> {
    if len > rest.len() as u64 {
        return Err(StoreError::Corrupt("column overruns the chunk"));
    }
    Ok(rest.split_at(len as usize))
}

/// Decodes chunk `rec`'s stored body into `bursts`, consuming every
/// column exactly, and returns the vtime at which the chunk's last burst
/// ends.
fn decode_body(body: &[u8], rec: &ChunkRecord, bursts: &mut Vec<Burst>) -> Result<u64, StoreError> {
    let n = rec.bursts as usize;
    let mut pos = 0;
    let gaps_len = read_varint(body, &mut pos)?;
    let events_len = read_varint(body, &mut pos)?;
    let within_len = read_varint(body, &mut pos)?;
    let (gaps, rest) = split_column(&body[pos..], gaps_len)?;
    let (events, rest) = split_column(rest, events_len)?;
    let (within, opcodes) = split_column(rest, within_len)?;
    if opcodes.len() != n.div_ceil(2) {
        return Err(StoreError::Corrupt(
            "opcode column length disagrees with bursts",
        ));
    }
    if n % 2 == 1 && opcodes[n / 2] >> 4 != 0 {
        return Err(StoreError::Corrupt("non-zero padding nibble"));
    }

    bursts.clear();
    bursts.reserve(n); // n ≤ body_len × 2/5, validated at open
    let (mut gp, mut ep, mut wp) = (0, 0, 0);
    // The current `within` run: its value and the bursts it has left.
    let mut run: Option<(u64, u64)> = None;
    let mut vtime = rec.first_vtime;
    for i in 0..n {
        let gap = read_varint(gaps, &mut gp)?;
        let ev = read_varint(events, &mut ep)?;
        let w = match run {
            Some((value, left)) if left > 0 => {
                run = Some((value, left - 1));
                value
            }
            prev => {
                let value = read_varint(within, &mut wp)?;
                let len = read_varint(within, &mut wp)?;
                // `pack` merges equal neighbours into one non-empty run.
                if len == 0 || prev.is_some_and(|(p, _)| p == value) {
                    return Err(StoreError::Corrupt("within runs are not minimal"));
                }
                run = Some((value, len - 1));
                value
            }
        };
        let nibble = (opcodes[i / 2] >> (i % 2 * 4)) & 0xF;
        let opcode = NIBBLE_OPCODES[usize::from(nibble)]
            .ok_or(StoreError::Corrupt("non-faultable burst opcode"))?;
        if ev == 0 || ev > u64::from(u32::MAX) || w > u64::from(u32::MAX) {
            return Err(StoreError::Corrupt("invalid burst"));
        }
        // `Burst::new`'s invariants, checked just above.
        let b = Burst {
            gap_insts: gap,
            events: ev as u32,
            within_gap_insts: w as u32,
            opcode,
        };
        vtime = burst_end(vtime, &b).ok_or(StoreError::Corrupt("virtual time overflows u64"))?;
        bursts.push(b);
    }
    if run.is_some_and(|(_, left)| left > 0) {
        return Err(StoreError::Corrupt("within run overruns the chunk"));
    }
    if gp != gaps.len() || ep != events.len() || wp != within.len() {
        return Err(StoreError::Corrupt("column not consumed exactly"));
    }
    Ok(vtime)
}

/// Iterator adapter over a [`StreamingReader`].
pub struct Bursts<R: Read + Seek> {
    reader: StreamingReader<R>,
    error: Option<StoreError>,
}

impl<R: Read + Seek> Bursts<R> {
    /// The decode error that ended iteration early, if any.
    pub fn error(&self) -> Option<&StoreError> {
        self.error.as_ref()
    }

    /// Finishes the iteration: `Ok` if the stream ended cleanly, the
    /// decode error otherwise.
    pub fn finish(self) -> Result<StreamingReader<R>, StoreError> {
        match self.error {
            None => Ok(self.reader),
            Some(e) => Err(e),
        }
    }

    /// The underlying reader (for residency introspection mid-stream).
    pub fn reader(&self) -> &StreamingReader<R> {
        &self.reader
    }
}

impl<R: Read + Seek> Iterator for Bursts<R> {
    type Item = Burst;

    fn next(&mut self) -> Option<Burst> {
        if self.error.is_some() {
            return None;
        }
        match self.reader.next_burst() {
            Ok(b) => b,
            Err(e) => {
                self.error = Some(e);
                None
            }
        }
    }
}

/// Opens a container over an in-memory byte slice.
pub fn open_bytes(bytes: &[u8]) -> Result<StreamingReader<io::Cursor<&[u8]>>, StoreError> {
    StreamingReader::open(io::Cursor::new(bytes))
}

/// Fully decodes a container: metadata plus every burst. Memory is
/// O(trace) — this is the full-load path, not the streaming path.
pub fn read_all(bytes: &[u8]) -> Result<(TraceMeta, Vec<Burst>), StoreError> {
    let mut reader = open_bytes(bytes)?;
    let mut bursts = Vec::new();
    while let Some(b) = reader.next_burst()? {
        bursts.push(b);
    }
    Ok((reader.meta().clone(), bursts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use suit_trace::profile;
    use suit_trace::TraceGen;

    fn meta() -> TraceMeta {
        TraceMeta {
            name: "502.gcc".into(),
            ipc: 1.2,
            total_insts: 1_000_000_000,
        }
    }

    fn sample(n: usize) -> Vec<Burst> {
        // One generator run is finite (it stops at the profile's virtual
        // length); chain seeds so any requested count is available.
        let p = profile::by_name("502.gcc").unwrap();
        (0u64..)
            .flat_map(|s| TraceGen::new(p, 42 + s).collect::<Vec<_>>())
            .take(n)
            .collect()
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let bursts = sample(10_000);
        let bytes = pack_to_vec(&meta(), bursts.iter().copied(), 512).unwrap();
        let (m, back) = read_all(&bytes).unwrap();
        assert_eq!(m, meta());
        assert_eq!(back, bursts);
    }

    #[test]
    fn pack_is_deterministic_and_compresses() {
        let bursts = sample(20_000);
        let mut a = Vec::new();
        let stats = pack(&mut a, &meta(), bursts.iter().copied(), 1024).unwrap();
        let b = pack_to_vec(&meta(), bursts.iter().copied(), 1024).unwrap();
        assert_eq!(a, b);
        assert_eq!(stats.packed_bytes, a.len() as u64);
        // The columns hold a 502.gcc burst in under 52 bits, header and
        // index included (a `Burst` in memory takes 192).
        let bits = a.len() as f64 * 8.0 / bursts.len() as f64;
        assert!(bits < 52.0, "{bits:.2} bits per burst");
    }

    #[test]
    fn every_profile_roundtrips_at_every_chunk_size() {
        for p in profile::all() {
            for seed in 1..=3 {
                let bursts: Vec<Burst> = TraceGen::new(p, seed).take(20_000).collect();
                for chunk_bursts in [1, 7, 4096] {
                    let bytes = pack_to_vec(&meta(), bursts.iter().copied(), chunk_bursts).unwrap();
                    let (_, back) = read_all(&bytes).unwrap();
                    assert!(back == bursts, "{} seed {seed} at {chunk_bursts}", p.name);
                }
            }
        }
    }

    #[test]
    fn imported_bursts_roundtrip_through_the_container() {
        let bursts = suit_trace::io::import_events(
            "100 AESENC\n120 AESENC\n500000 VXOR\n".as_bytes(),
            1_000,
        )
        .unwrap();
        let bytes = pack_to_vec(&meta(), bursts.iter().copied(), 64).unwrap();
        let (_, back) = read_all(&bytes).unwrap();
        assert_eq!(back, bursts);
    }

    #[test]
    fn empty_trace_roundtrips() {
        let bytes = pack_to_vec(&meta(), Vec::new(), 64).unwrap();
        let (m, back) = read_all(&bytes).unwrap();
        assert_eq!(m, meta());
        assert!(back.is_empty());
        let mut r = open_bytes(&bytes).unwrap();
        assert_eq!(r.seek_to_vtime(12345).unwrap(), 0);
        assert!(r.next_burst().unwrap().is_none());
    }

    #[test]
    fn window_bounds_resident_memory() {
        let bursts = sample(64 * 32);
        let bytes = pack_to_vec(&meta(), bursts.iter().copied(), 32).unwrap();
        let mut r = open_bytes(&bytes).unwrap();
        assert_eq!(r.info().chunks, 64);
        let mut n = 0;
        while let Some(b) = r.next_burst().unwrap() {
            assert_eq!(b, bursts[n]);
            n += 1;
        }
        assert_eq!(n, bursts.len());
        assert!(
            r.peak_resident_bursts() <= 32,
            "peak {} bursts",
            r.peak_resident_bursts()
        );
        // Sequential replay decodes each chunk exactly once.
        assert_eq!(r.chunk_decodes(), 64);
    }

    #[test]
    fn seek_matches_skip_from_start() {
        let bursts = sample(3_000);
        let bytes = pack_to_vec(&meta(), bursts.iter().copied(), 64).unwrap();
        let total: u64 = bursts.iter().map(|b| b.total_insts()).sum();
        // Start vtime of each burst, by definition of skip-from-start.
        let mut starts = Vec::with_capacity(bursts.len());
        let mut v = 0u64;
        for b in &bursts {
            starts.push(v);
            v += b.total_insts();
        }
        for target in [
            0u64,
            1,
            starts[1],
            starts[1] - 1,
            starts[1500],
            starts[1500] + 1,
            starts[2999],
            total - 1,
        ] {
            // Reference: linear scan for the burst covering `target`.
            let want = starts.partition_point(|&s| s <= target) - 1;
            let mut r = open_bytes(&bytes).unwrap();
            let v0 = r.seek_to_vtime(target).unwrap();
            assert_eq!(v0, starts[want], "target {target}");
            assert_eq!(
                r.next_burst().unwrap(),
                Some(bursts[want]),
                "target {target}"
            );
            // The remainder of the stream matches too.
            for b in &bursts[want + 1..want + 1 + 5.min(bursts.len() - want - 1)] {
                assert_eq!(r.next_burst().unwrap(), Some(*b));
            }
        }
        // Seeking at or past the end parks at end-of-trace.
        let mut r = open_bytes(&bytes).unwrap();
        assert_eq!(r.seek_to_vtime(total).unwrap(), total);
        assert!(r.next_burst().unwrap().is_none());
    }

    #[test]
    fn seek_then_rewind_still_works() {
        let bursts = sample(500);
        let bytes = pack_to_vec(&meta(), bursts.iter().copied(), 32).unwrap();
        let mut r = open_bytes(&bytes).unwrap();
        r.seek_to_vtime(u64::MAX).unwrap();
        assert_eq!(r.seek_to_vtime(0).unwrap(), 0);
        assert_eq!(r.next_burst().unwrap(), Some(bursts[0]));
    }

    #[test]
    fn rejects_bad_magic_and_truncation() {
        let bytes = pack_to_vec(&meta(), sample(100), 16).unwrap();
        let mut broken = bytes.clone();
        broken[0] = b'X';
        assert!(matches!(open_bytes(&broken), Err(StoreError::BadMagic)));
        for cut in [0, 7, 12, bytes.len() / 2, bytes.len() - 1] {
            assert!(open_bytes(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn rejects_chunk_corruption_via_crc() {
        let bytes = pack_to_vec(&meta(), sample(1_000), 64).unwrap();
        let r = open_bytes(&bytes).unwrap();
        let first = r.index()[0];
        let mut broken = bytes.clone();
        broken[first.offset as usize] ^= 0x40;
        let mut r = open_bytes(&broken).unwrap(); // index still validates
        let err = loop {
            match r.next_burst() {
                Ok(Some(_)) => {}
                Ok(None) => panic!("corrupt chunk must not decode cleanly"),
                Err(e) => break e,
            }
        };
        assert!(matches!(err, StoreError::Corrupt(_)), "{err}");
    }

    #[test]
    fn rejects_over_declared_counts_without_allocating() {
        // A hostile trailer claiming 2^31 chunks in a tiny file must be
        // rejected by the size equation before any allocation.
        let bytes = pack_to_vec(&meta(), sample(10), 4).unwrap();
        let mut broken = bytes.clone();
        let cc_at = bytes.len() - 12; // chunk_count field in the trailer
        broken[cc_at..cc_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(open_bytes(&broken), Err(StoreError::Corrupt(_))));
    }

    #[test]
    fn rejects_index_bit_flips() {
        let bytes = pack_to_vec(&meta(), sample(200), 16).unwrap();
        let r = open_bytes(&bytes).unwrap();
        let index_start = bytes.len() - 24 - r.index().len() * 32;
        drop(r);
        for at in (index_start..bytes.len() - 24).step_by(5) {
            let mut broken = bytes.clone();
            broken[at] ^= 0x01;
            assert!(
                open_bytes(&broken).is_err(),
                "index flip at {at} must be caught by the index CRC"
            );
        }
    }

    #[test]
    fn rejects_index_vtimes_that_disagree_with_the_bursts() {
        let p = profile::by_name("502.gcc").unwrap();
        let bytes = pack_to_vec(&meta(), TraceGen::new(p, 1).take(256), 64).unwrap();
        let index = open_bytes(&bytes).unwrap().index().to_vec();
        assert_eq!(index.len(), 4);
        // Move chunk 2's first_vtime halfway to chunk 3's and re-seal the
        // index CRC: the index alone stays well-formed.
        let moved = index[2].first_vtime + (index[3].first_vtime - index[2].first_vtime) / 2;
        let index_start = bytes.len() - 24 - 4 * 32;
        let mut broken = bytes.clone();
        let at = index_start + 2 * 32 + 24;
        broken[at..at + 8].copy_from_slice(&moved.to_le_bytes());
        let crc = crc32(&broken[index_start..bytes.len() - 24]);
        let crc_at = bytes.len() - 16;
        broken[crc_at..crc_at + 4].copy_from_slice(&crc.to_le_bytes());

        let mut r = open_bytes(&broken).unwrap();
        assert!(matches!(
            r.seek_to_vtime(moved + 1),
            Err(StoreError::Corrupt(_))
        ));
        assert!(matches!(read_all(&broken), Err(StoreError::Corrupt(_))));
    }

    #[test]
    fn pack_rejects_bad_arguments() {
        assert!(matches!(
            pack_to_vec(&meta(), Vec::new(), 0),
            Err(StoreError::Invalid(_))
        ));
        let mut m = meta();
        m.ipc = f64::NAN;
        assert!(matches!(
            pack_to_vec(&m, Vec::new(), 64),
            Err(StoreError::Invalid(_))
        ));
        let mut m = meta();
        m.name = "x".repeat(5000);
        assert!(matches!(
            pack_to_vec(&m, Vec::new(), 64),
            Err(StoreError::Invalid(_))
        ));
        // Its `total_insts` would overflow before any vtime check ran.
        let huge = Burst::new(u64::MAX - 5, 2, 10, Opcode::Imul);
        assert!(matches!(
            pack_to_vec(&meta(), [huge], 64),
            Err(StoreError::Invalid("virtual time overflows u64"))
        ));
    }

    /// Fixes up the index offsets, the index CRC and the trailer of a
    /// `chunks`-chunk container after `extra` bytes went into its header.
    fn shift_past_header(bytes: &mut [u8], extra: u64, chunks: usize) {
        let len = bytes.len();
        let index = len - 24 - chunks * 32;
        for rec in bytes[index..len - 24].chunks_exact_mut(32) {
            let off = u64::from_le_bytes(rec[..8].try_into().unwrap()) + extra;
            rec[..8].copy_from_slice(&off.to_le_bytes());
        }
        let crc = crc32(&bytes[index..len - 24]);
        bytes[len - 16..len - 12].copy_from_slice(&crc.to_le_bytes());
        let at = (index as u64).to_le_bytes();
        bytes[len - 24..len - 16].copy_from_slice(&at);
    }

    #[test]
    fn rejects_spellings_pack_never_writes() {
        // Each spelling decodes to the bursts `pack` was given, so a
        // reader accepting it would store one trace under two IDs.
        let bursts = sample(8);
        let canonical = pack_to_vec(&meta(), bursts.iter().copied(), 4).unwrap();
        assert_eq!(read_all(&canonical).unwrap(), (meta(), bursts.clone()));

        // Chunks of 2 under a header that claims 4 per chunk.
        let mut short = pack_to_vec(&meta(), bursts.iter().copied(), 2).unwrap();
        let cb_at = 8 + 1 + meta().name.len() + 8 + 5; // after a 5-byte total
        assert_eq!(short[cb_at], 2);
        short[cb_at] = 4;
        assert!(matches!(
            read_all(&short),
            Err(StoreError::Corrupt("short chunk before the last"))
        ));

        // The name length 7 as the two bytes 0x87 0x00.
        let mut overlong = canonical.clone();
        assert_eq!(overlong[8], 7);
        overlong[8] = 0x87;
        overlong.insert(9, 0x00);
        shift_past_header(&mut overlong, 1, 2);
        assert!(matches!(
            read_all(&overlong),
            Err(StoreError::Corrupt("overlong varint"))
        ));
    }

    #[test]
    fn bursts_iterator_reports_errors() {
        let bytes = pack_to_vec(&meta(), sample(1_000), 64).unwrap();
        let r = open_bytes(&bytes).unwrap();
        let last = *r.index().last().unwrap();
        let mut broken = bytes.clone();
        broken[(last.offset + u64::from(last.body_len) - 1) as usize] ^= 0x10;
        let mut it = open_bytes(&broken).unwrap().bursts();
        let n = it.by_ref().count();
        assert!(n < 1_000, "corruption must cut the stream short");
        assert!(it.error().is_some());
        assert!(it.finish().is_err());
    }
}
