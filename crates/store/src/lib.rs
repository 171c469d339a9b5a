//! # suit-store
//!
//! Out-of-core trace storage: the `SUITTRC3` chunked, columnar,
//! seekable container and its bounded-memory streaming reader.
//!
//! `SUITTRC3` is the one trace file format: `suit-cli trace record`
//! writes it, and `POST /v1/trace` and every replay read it. Real
//! trace-driven studies operate at 10¹¹-instruction / GiB scale (§5.1
//! records 25 applications once and replays them across every CPU ×
//! strategy × offset configuration), so the container is built for
//! out-of-core replay:
//!
//! * [`container::pack`] — streams bursts into fixed-size chunks, each
//!   stored as one column per burst field (varint gaps, varint events,
//!   run-length `within` values, 4-bit opcodes) and checksummed with the
//!   slice-by-8 [`crc`] CRC-32, then appends a fixed-size per-chunk index
//!   footer (byte offset, burst count, first-burst virtual time, CRC) and
//!   a trailer. Packing is a pure function of its inputs, and the reader
//!   accepts no other spelling of the same trace.
//! * [`container::StreamingReader`] — validates the trailer, index
//!   checksum and every index record against the physical file size
//!   before trusting any length field, then yields [`suit_trace::Burst`]s
//!   out of the one chunk it holds decoded: replay memory is O(chunk),
//!   not O(trace), with the high-water mark observable via
//!   [`container::StreamingReader::peak_resident_bursts`]. Decoding a
//!   chunk also checks that its bursts end where the index says the next
//!   chunk starts.
//! * [`container::StreamingReader::seek_to_vtime`] — O(log chunks)
//!   binary search of the index to the burst covering any virtual
//!   instruction offset, decoding at most one chunk, with semantics
//!   identical to skipping from the start.
//!
//! Everything is deterministic and total: same bytes in, same bursts
//! out; corrupt or hostile input returns [`container::StoreError`],
//! never panics, and never allocates more than the physical input could
//! justify.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod container;
pub mod crc;

pub use container::{
    open_bytes, pack, pack_to_vec, read_all, Bursts, ChunkRecord, ContainerInfo, PackStats,
    StoreError, StreamingReader, DEFAULT_CHUNK_BURSTS, MAX_CHUNK_BURSTS,
};
