//! Structure-aware fuzz targets for the `SUITTRC3` container decoder.
//!
//! The decoder sits on the service's unauthenticated upload path
//! (`POST /v1/trace`), so its totality contract is load-bearing: any byte
//! stream — raw soup, a valid container, a truncation, a bit flip, a
//! container whose trailing index/trailer region was overwritten, or one
//! spelled differently from `pack` — must come back as a typed
//! [`suit::store::StoreError`], never a panic, and never an allocation
//! the physical input size cannot justify.
//!
//! Five properties pin this:
//!
//! 1. `total` — full-load ([`suit::store::read_all`]) and streaming
//!    ([`suit::store::open_bytes`] + drain) decoding are total over the
//!    structured input stream, and *agree*: both accept with identical
//!    metadata and bursts, or both reject. The upload path's chunk check
//!    ([`suit::store::StreamingReader::validate`]) accepts exactly what a
//!    full drain accepts, and rejects the rest with the same error. What
//!    they accept re-packs, from its metadata, bursts and
//!    `chunk_bursts`, to the same bytes: trace IDs hash containers, so
//!    one trace must have one encoding;
//! 2. `roundtrip` — every constructed (meta, bursts, chunk size) triple
//!    packs deterministically, to the bytes an independent writer of the
//!    documented layout produces, and decodes back to exactly the input;
//! 3. `seek` — on a valid container, seeking to any virtual time lands on
//!    the same burst boundary that skipping burst-by-burst from the start
//!    reaches;
//! 4. `reindexed` — a valid container with one index field edited and the
//!    index CRC recomputed either fails to decode, or keeps properties 1
//!    and 3 at every chunk start its index declares (decoding checks each
//!    chunk's bursts against the next record's `first_vtime`);
//! 5. `crc` — the slice-by-8 CRC-32 equals the bit-at-a-time definition
//!    at every length and start offset.
//!
//! CI drives the file with `SUIT_CHECK_CASES=100000` as the fuzz-smoke
//! gate. Committed corpus seeds in `tests/corpus/` pin the interesting
//! shapes (a rejected corruption, a surviving valid container, an index
//! edit only the per-chunk vtime check catches) and are replayed before
//! random exploration on every run.

use suit::check::gen::{self, Gen};
use suit::check::{corpus_dir, Checker, Source};
use suit::isa::Opcode;
use suit::rng::SplitMix64;
use suit::store;
use suit::store::crc::crc32;
use suit::trace::event::Burst;
use suit::trace::io::TraceMeta;

/// Every opcode the trace format can carry (bursts are built over the
/// faultable set only — `Burst::new` enforces it).
fn faultable() -> Vec<Opcode> {
    Opcode::ALL
        .iter()
        .copied()
        .filter(|o| o.is_faultable())
        .collect()
}

/// A value drawn log-uniformly below 2^`max_bits`, so every varint
/// width up to the cap is as likely as every other.
fn log_uniform(max_bits: u64) -> Gen<u64> {
    gen::u64_in(0..=max_bits).bind(|bits| gen::u64_in(0..=(1u64 << bits) - 1))
}

/// A `within` gap: small, as generated traces have it, or any `u32`.
fn within() -> Gen<u32> {
    gen::one_of(vec![gen::u32_in(0..=64), log_uniform(32).map(|w| w as u32)])
}

/// One structurally valid burst with its `within` gap from `within`.
/// Gaps reach 2⁵⁶ (8-byte varints; real traces reach 6.8·10⁸) and
/// events sometimes reach `u32::MAX`, but a burst with a `within` over
/// 2²⁰ keeps at most 2²⁰ events: `total_insts` stays below 2⁵⁷, so 64
/// bursts cannot overflow the virtual time and `pack` cannot fail.
fn burst(within: Gen<u32>) -> Gen<Burst> {
    let ops = faultable();
    let n = ops.len();
    let events = gen::one_of(vec![
        gen::u32_in(1..=500),
        log_uniform(32).map(|e| e.max(1) as u32),
    ]);
    gen::pair(
        &gen::pair(&log_uniform(56), &events),
        &gen::pair(&within, &gen::usize_in(0..=n - 1)),
    )
    .map(move |((gap, events), (within, oi))| {
        let events = if within > 1 << 20 {
            events.min(1 << 20)
        } else {
            events
        };
        Burst::new(gap, events, within, ops[oi])
    })
}

/// Up to 64 bursts sharing one `within` gap, as a generated trace does,
/// or each with its own.
fn bursts() -> Gen<Vec<Burst>> {
    gen::bool_any().bind(|per_burst| {
        if per_burst {
            burst(within()).vec_up_to(64)
        } else {
            within().bind(|w| burst(gen::constant(w)).vec_up_to(64))
        }
    })
}

/// A full construction triple: metadata, burst list, chunk size. Chunk
/// sizes stay tiny so short burst lists still span several chunks and a
/// non-trivial index.
fn construction() -> Gen<(TraceMeta, Vec<Burst>, usize)> {
    let meta = gen::pair(
        &gen::from_slice(&["502.gcc", "aes-ni", ""]),
        &gen::pair(&gen::f64_in(0.2, 4.0), &gen::u64_in(1..=u64::MAX / 2)),
    )
    .map(|(name, (ipc, total))| TraceMeta {
        name: name.into(),
        ipc,
        total_insts: total,
    });
    gen::pair(&gen::pair(&meta, &bursts()), &gen::usize_in(1..=8))
        .map(|((meta, bursts), chunk_bursts)| (meta, bursts, chunk_bursts))
}

/// A spelling of a trace that `pack` never writes.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Respelling {
    /// The `k`-th varint written carries a redundant zero byte.
    Overlong(usize),
    /// The chunk holding burst `k` ends after it, short of
    /// `chunk_bursts` though a chunk follows.
    ShortChunk(usize),
    /// The `within` run holding burst `k` splits in two before it.
    SplitRun(usize),
    /// An odd chunk's padding nibble is this (non-zero) value.
    PadNibble(u8),
    /// Chunk `k`'s reserved index word is non-zero.
    Reserved(usize),
    /// Varint column `k % 3` of chunk `k / 3` has one trailing zero byte.
    TrailingByte(usize),
}

fn respelling() -> Gen<Respelling> {
    gen::pair(&gen::usize_in(0..=5), &gen::usize_in(0..=255)).map(|(which, k)| match which {
        0 => Respelling::Overlong(k),
        1 => Respelling::ShortChunk(k % 64),
        2 => Respelling::SplitRun(k % 64),
        3 => Respelling::PadNibble(k as u8 % 15 + 1),
        4 => Respelling::Reserved(k % 64),
        _ => Respelling::TrailingByte(k % 192),
    })
}

/// Appends `v` as LEB128, one byte too long when `overlong` counts down
/// to it.
fn put(out: &mut Vec<u8>, mut v: u64, overlong: &mut Option<usize>) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    if *overlong == Some(0) {
        out.extend_from_slice(&[v as u8 | 0x80, 0]);
    } else {
        out.push(v as u8);
    }
    *overlong = overlong.and_then(|k| k.checked_sub(1));
}

/// An independent writer of the `SUITTRC3` layout documented in
/// `suit_store::container`: with no respelling it must write what
/// `pack` writes, byte for byte.
fn spelled(
    meta: &TraceMeta,
    bursts: &[Burst],
    chunk_bursts: usize,
    how: Option<Respelling>,
) -> Vec<u8> {
    let mut overlong = match how {
        Some(Respelling::Overlong(k)) => Some(k),
        _ => None,
    };
    let mut out = b"SUITTRC3".to_vec();
    put(&mut out, meta.name.len() as u64, &mut overlong);
    out.extend_from_slice(meta.name.as_bytes());
    out.extend_from_slice(&meta.ipc.to_bits().to_le_bytes());
    put(&mut out, meta.total_insts, &mut overlong);
    put(&mut out, chunk_bursts as u64, &mut overlong);

    // Chunk boundaries, as (first burst, burst count).
    let mut chunks: Vec<(usize, usize)> = (0..bursts.len())
        .step_by(chunk_bursts)
        .map(|s| (s, chunk_bursts.min(bursts.len() - s)))
        .collect();
    if let Some(Respelling::ShortChunk(k)) = how {
        let c = k / chunk_bursts;
        if let Some(&(s, n)) = chunks.get(c) {
            if k + 1 < s + n {
                chunks[c] = (s, k + 1 - s);
                chunks.insert(c + 1, (k + 1, s + n - k - 1));
            }
        }
    }

    let mut index = Vec::new();
    let mut vtime = 0u64;
    for (ci, &(start, n)) in chunks.iter().enumerate() {
        let chunk = &bursts[start..start + n];
        let mut cols = [Vec::new(), Vec::new(), Vec::new()];
        let mut runs: Vec<(u32, u64)> = Vec::new();
        for (j, b) in chunk.iter().enumerate() {
            put(&mut cols[0], b.gap_insts, &mut overlong);
            put(&mut cols[1], u64::from(b.events), &mut overlong);
            let split = how == Some(Respelling::SplitRun(start + j));
            match runs.last_mut() {
                Some((w, len)) if *w == b.within_gap_insts && !split => *len += 1,
                _ => runs.push((b.within_gap_insts, 1)),
            }
        }
        for (w, len) in runs {
            put(&mut cols[2], u64::from(w), &mut overlong);
            put(&mut cols[2], len, &mut overlong);
        }
        if let Some(Respelling::TrailingByte(k)) = how {
            if k / 3 == ci {
                cols[k % 3].push(0);
            }
        }
        let mut body = Vec::new();
        for col in &cols {
            put(&mut body, col.len() as u64, &mut overlong);
        }
        for col in &cols {
            body.extend_from_slice(col);
        }
        let pad = match how {
            Some(Respelling::PadNibble(v)) => v,
            _ => 0,
        };
        for pair in chunk.chunks(2) {
            let high = pair.get(1).map_or(pad, |b| b.opcode.index() as u8);
            body.push(high << 4 | pair[0].opcode.index() as u8);
        }
        let reserved = u32::from(how == Some(Respelling::Reserved(ci)));
        index.extend_from_slice(&(out.len() as u64).to_le_bytes());
        index.extend_from_slice(&(body.len() as u32).to_le_bytes());
        index.extend_from_slice(&reserved.to_le_bytes());
        index.extend_from_slice(&(n as u32).to_le_bytes());
        index.extend_from_slice(&crc32(&body).to_le_bytes());
        index.extend_from_slice(&vtime.to_le_bytes());
        vtime += chunk.iter().map(Burst::total_insts).sum::<u64>();
        out.extend_from_slice(&body);
    }
    let index_offset = out.len() as u64;
    out.extend_from_slice(&index);
    out.extend_from_slice(&index_offset.to_le_bytes());
    out.extend_from_slice(&crc32(&index).to_le_bytes());
    out.extend_from_slice(&(chunks.len() as u32).to_le_bytes());
    out.extend_from_slice(b"3CRTTIUS");
    out
}

/// A trace spelled in one way `pack` never spells it (or, where the
/// respelling finds nothing to change, exactly as `pack` does).
fn respelled_container() -> Gen<Vec<u8>> {
    gen::pair(&construction(), &respelling())
        .map(|((meta, bursts, chunk_bursts), how)| spelled(&meta, &bursts, chunk_bursts, Some(how)))
}

/// A valid container's bytes.
fn valid_container() -> Gen<Vec<u8>> {
    construction().map(|(meta, bursts, chunk_bursts)| {
        store::pack_to_vec(&meta, bursts, chunk_bursts).expect("constructed pack cannot fail")
    })
}

/// A valid container cut off at an arbitrary byte.
fn truncated_container() -> Gen<Vec<u8>> {
    gen::pair(&valid_container(), &gen::usize_in(0..=4095)).map(|(mut bytes, cut)| {
        bytes.truncate(cut % (bytes.len() + 1));
        bytes
    })
}

/// A valid container with one byte overwritten — hits chunk payloads,
/// the index records, the trailer and the header alike.
fn flipped_container() -> Gen<Vec<u8>> {
    gen::pair(
        &valid_container(),
        &gen::pair(&gen::usize_in(0..=4095), &gen::byte()),
    )
    .map(|(mut bytes, (pos, b))| {
        let at = pos % bytes.len();
        bytes[at] ^= b | 1; // always changes the byte
        bytes
    })
}

/// A valid container whose index/trailer region (the last up-to-64
/// bytes) is overwritten wholesale — the shape that exercises the
/// open-time size-equation and index-CRC validation hardest.
fn smashed_tail_container() -> Gen<Vec<u8>> {
    gen::pair(&valid_container(), &gen::bytes_up_to(64)).map(|(mut bytes, tail)| {
        let len = bytes.len();
        let start = len.saturating_sub(tail.len());
        bytes[start..].copy_from_slice(&tail[..len - start]);
        bytes
    })
}

/// A valid container with one field of one index record moved by up to
/// ±2²⁰ and the index CRC recomputed, so the edit gets past the checksum
/// to the per-record checks: offsets, lengths, burst counts and the
/// vtimes a seek trusts.
fn reindexed_container() -> Gen<Vec<u8>> {
    gen::pair(
        &valid_container(),
        &gen::pair(&gen::usize_in(0..=4095), &gen::u64_in(0..=1 << 21)),
    )
    .map(|(mut bytes, (pick, delta))| {
        let len = bytes.len();
        let chunks = u32::from_le_bytes(bytes[len - 12..len - 8].try_into().unwrap()) as usize;
        if chunks == 0 {
            return bytes;
        }
        let index = len - 24 - 32 * chunks;
        // offset, body_len, reserved zero, bursts, crc32, first_vtime.
        let (at, width) = [(0, 8), (8, 4), (12, 4), (16, 4), (20, 4), (24, 8)][pick % 6];
        let field = index + 32 * (pick / 6 % chunks) + at;
        let mut word = [0u8; 8];
        word[..width].copy_from_slice(&bytes[field..field + width]);
        let moved = u64::from_le_bytes(word)
            .wrapping_add(delta)
            .wrapping_sub(1 << 20);
        bytes[field..field + width].copy_from_slice(&moved.to_le_bytes()[..width]);
        let crc = crc32(&bytes[index..len - 24]);
        bytes[len - 16..len - 12].copy_from_slice(&crc.to_le_bytes());
        bytes
    })
}

/// The full decoder input stream: raw soup first (shrinks toward the
/// simplest), then the structured shapes.
fn container_stream() -> Gen<Vec<u8>> {
    gen::one_of(vec![
        gen::bytes_up_to(300),
        valid_container(),
        truncated_container(),
        flipped_container(),
        smashed_tail_container(),
        respelled_container(),
    ])
}

/// Streaming decode: drain the iterator, then surface any deferred error
/// through `finish`.
fn decode_streaming(input: &[u8]) -> Result<(TraceMeta, Vec<Burst>), store::StoreError> {
    let reader = store::open_bytes(input)?;
    let mut it = reader.bursts();
    let out: Vec<Burst> = it.by_ref().collect();
    let reader = it.finish()?;
    Ok((reader.meta().clone(), out))
}

/// The upload check: open, then decode every chunk once in place.
fn validate(input: &[u8]) -> Result<(), store::StoreError> {
    store::open_bytes(input)?.validate()
}

/// An accepted container is the one `pack` writes for what it holds.
fn repacks_to_itself(input: &[u8], meta: &TraceMeta, bursts: &[Burst]) -> Result<(), String> {
    let chunk_bursts = store::open_bytes(input)
        .map_err(|e| format!("reopen failed: {e}"))?
        .info()
        .chunk_bursts as usize;
    let again = store::pack_to_vec(meta, bursts.iter().copied(), chunk_bursts)
        .map_err(|e| format!("re-pack failed: {e}"))?;
    if again != input {
        return Err(format!(
            "accepted a {}-byte spelling of a trace pack writes in {} bytes",
            input.len(),
            again.len()
        ));
    }
    Ok(())
}

/// Property 1: both decode paths are total and agree, and accept only
/// what `pack` writes.
fn decoder_is_total_and_consistent(input: &[u8]) -> Result<(), String> {
    let full = store::read_all(input);
    let streamed = decode_streaming(input);
    let checked = validate(input).err().map(|e| e.to_string());
    let drained = streamed.as_ref().err().map(|e| e.to_string());
    if checked != drained {
        return Err(format!(
            "the chunk check and a full drain disagree: {checked:?} vs {drained:?}"
        ));
    }
    match (full, streamed) {
        (Ok(f), Ok(s)) if f == s => repacks_to_itself(input, &f.0, &f.1),
        (Ok(f), Ok(s)) => Err(format!(
            "full-load and streaming decode disagree: {} vs {} bursts",
            f.1.len(),
            s.1.len()
        )),
        (Err(_), Err(_)) => Ok(()),
        (f, s) => Err(format!(
            "one decode path accepted what the other rejected: full={:?} streamed={:?}",
            f.map(|(_, b)| b.len()),
            s.map(|(_, b)| b.len())
        )),
    }
}

#[test]
fn decoder_is_total_over_container_streams() {
    Checker::new("store_fuzz::total")
        .cases_from_env_or(20_000)
        .corpus(corpus_dir!())
        .check(&container_stream(), |input: &Vec<u8>| {
            decoder_is_total_and_consistent(input)
        });
}

/// Property 2: pack ∘ decode is the identity, and packing is
/// deterministic and follows the documented layout.
#[test]
fn constructed_containers_roundtrip_exactly() {
    Checker::new("store_fuzz::roundtrip")
        .cases_from_env_or(5_000)
        .corpus(corpus_dir!())
        .check(
            &construction(),
            |(meta, bursts, chunk_bursts): &(TraceMeta, Vec<Burst>, usize)| {
                let bytes = store::pack_to_vec(meta, bursts.iter().copied(), *chunk_bursts)
                    .map_err(|e| format!("pack failed: {e}"))?;
                let again = store::pack_to_vec(meta, bursts.iter().copied(), *chunk_bursts)
                    .map_err(|e| format!("re-pack failed: {e}"))?;
                if bytes != again {
                    return Err("packing is not deterministic".into());
                }
                if bytes != spelled(meta, bursts, *chunk_bursts, None) {
                    return Err("pack disagrees with the documented layout".into());
                }
                let (m, b) = store::read_all(&bytes).map_err(|e| format!("decode failed: {e}"))?;
                if &m != meta {
                    return Err(format!("metadata drifted: {m:?} != {meta:?}"));
                }
                if &b != bursts {
                    return Err(format!(
                        "bursts drifted: {} decoded vs {} packed",
                        b.len(),
                        bursts.len()
                    ));
                }
                Ok(())
            },
        );
}

/// Skip-from-start oracle: the index and start vtime of the first burst
/// whose end passes `target`, or `None` past the end.
fn skip_to(bursts: &[Burst], target: u64) -> Option<(usize, u64)> {
    let mut vtime = 0u64;
    for (i, b) in bursts.iter().enumerate() {
        let end = vtime + b.total_insts();
        if end > target {
            return Some((i, vtime));
        }
        vtime = end;
    }
    None
}

/// Seeks a fresh reader over `bytes` to `target` and checks that it
/// lands on the burst and start vtime a skip from the start reaches.
fn seek_lands_like_skip(bytes: &[u8], bursts: &[Burst], target: u64) -> Result<(), String> {
    let total: u64 = bursts.iter().map(Burst::total_insts).sum();
    let mut reader = store::open_bytes(bytes).map_err(|e| format!("open failed: {e}"))?;
    let start = reader
        .seek_to_vtime(target)
        .map_err(|e| format!("seek failed: {e}"))?;
    let landed = reader
        .next_burst()
        .map_err(|e| format!("read failed: {e}"))?;
    match (skip_to(bursts, target), landed) {
        (Some((i, s)), Some(b)) if b == bursts[i] && start == s => Ok(()),
        (None, None) if start == total => Ok(()),
        (want, got) => Err(format!(
            "seek({target}) landed at vtime {start} / burst {got:?}, expected \
             {want:?} of {} bursts (total {total})",
            bursts.len()
        )),
    }
}

/// Property 3: seeking lands where skipping from the start lands.
#[test]
fn seek_agrees_with_skip_from_start() {
    let case = gen::pair(&construction(), &gen::u64_in(0..=u64::MAX));
    Checker::new("store_fuzz::seek")
        .cases_from_env_or(2_000)
        .corpus(corpus_dir!())
        .check(
            &case,
            |((meta, bursts, chunk_bursts), raw_target): &((TraceMeta, Vec<Burst>, usize), u64)| {
                let bytes = store::pack_to_vec(meta, bursts.iter().copied(), *chunk_bursts)
                    .map_err(|e| format!("pack failed: {e}"))?;
                // Keep targets inside (and slightly past) the trace.
                let total: u64 = bursts.iter().map(Burst::total_insts).sum();
                seek_lands_like_skip(&bytes, bursts, raw_target % (total + 2))
            },
        );
}

/// Property 4: a container whose index was edited and re-sealed is
/// decoded totally, and if it decodes at all, it is canonical and a seek
/// to any chunk start its index declares lands where skipping from the
/// start lands.
#[test]
fn reindexed_containers_decode_only_if_their_index_is_true() {
    Checker::new("store_fuzz::reindexed")
        .cases_from_env_or(5_000)
        .corpus(corpus_dir!())
        .check(&reindexed_container(), |input: &Vec<u8>| {
            decoder_is_total_and_consistent(input)?;
            let Ok((_, bursts)) = store::read_all(input) else {
                return Ok(());
            };
            let reader = store::open_bytes(input).map_err(|e| format!("open failed: {e}"))?;
            reader
                .index()
                .iter()
                .try_for_each(|r| seek_lands_like_skip(input, &bursts, r.first_vtime))
        });
}

/// The CRC-32 definition, one bit at a time.
fn crc32_bitwise(data: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in data {
        c ^= u32::from(b);
        for _ in 0..8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
        }
    }
    !c
}

/// Property 5: slice-by-8 agrees with the bitwise definition over
/// lengths 0–4096 at start offsets 0–7 (the 8-byte steps and the
/// bytewise tail both see every alignment).
#[test]
fn crc32_matches_the_bitwise_definition() {
    let case = gen::triple(
        &gen::usize_in(0..=4096),
        &gen::usize_in(0..=7),
        &gen::u64_any(),
    );
    Checker::new("store_fuzz::crc")
        .cases_from_env_or(2_000)
        .corpus(corpus_dir!())
        .check(&case, |&(len, offset, seed): &(usize, usize, u64)| {
            let mut rng = SplitMix64::new(seed);
            let buf: Vec<u8> = (0..len + offset).map(|_| rng.next_u64() as u8).collect();
            let data = &buf[offset..];
            let (fast, slow) = (crc32(data), crc32_bitwise(data));
            if fast != slow {
                return Err(format!("slice-by-8 {fast:#010x} != bitwise {slow:#010x}"));
            }
            Ok(())
        });
}

/// The committed corpus seeds must keep generating the shapes they were
/// committed to pin — if the generator drifts, this fails loudly instead
/// of the seeds silently degenerating into byte soup.
#[test]
fn committed_corpus_seeds_cover_the_advertised_shapes() {
    let sample = |seed: u64| container_stream().sample(&mut Source::fresh(seed));

    let valid = sample(VALID_CONTAINER_SEED);
    assert!(
        store::read_all(&valid).is_ok(),
        "seed {VALID_CONTAINER_SEED:#x} no longer generates a decodable container"
    );

    let corrupt = sample(CORRUPT_CONTAINER_SEED);
    assert!(
        corrupt.len() >= 8 && &corrupt[..8] == b"SUITTRC3" && store::read_all(&corrupt).is_err(),
        "seed {CORRUPT_CONTAINER_SEED:#x} no longer generates a well-magicked corrupt container"
    );
}

/// Seeds committed under `tests/corpus/` for the shapes above.
const VALID_CONTAINER_SEED: u64 = 0x0;
const CORRUPT_CONTAINER_SEED: u64 = 0x2;

/// Maintenance tool, not part of the suite: scans seeds and prints the
/// first one generating each corpus shape. Run with
/// `cargo test -p suit --test store_fuzz find_corpus_seeds -- --ignored --nocapture`
/// after changing the generator, then update the constants and the
/// committed `.seed` files.
#[test]
#[ignore]
fn find_corpus_seeds() {
    let g = container_stream();
    let mut valid = None;
    let mut corrupt = None;
    for seed in 0..200_000u64 {
        let input = g.sample(&mut Source::fresh(seed));
        if valid.is_none() && store::read_all(&input).is_ok() {
            valid = Some(seed);
        }
        if corrupt.is_none()
            && input.len() >= 8
            && &input[..8] == b"SUITTRC3"
            && store::read_all(&input).is_err()
        {
            corrupt = Some(seed);
        }
        if valid.is_some() && corrupt.is_some() {
            break;
        }
    }
    println!("valid container seed:   {valid:?}");
    println!("corrupt container seed: {corrupt:?}");
}
