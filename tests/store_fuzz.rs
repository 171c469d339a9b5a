//! Structure-aware fuzz targets for the `SUITTRC2` container decoder.
//!
//! The decoder sits on the service's unauthenticated upload path
//! (`POST /v1/trace`), so its totality contract is load-bearing: any byte
//! stream — raw soup, a valid container, a truncation, a bit flip, or a
//! container whose trailing index/trailer region was overwritten — must
//! come back as a typed [`suit::store::StoreError`], never a panic, and
//! never an allocation the physical input size cannot justify.
//!
//! Four properties pin this:
//!
//! 1. `total` — full-load ([`suit::store::read_all`]) and streaming
//!    ([`suit::store::open_bytes`] + drain) decoding are total over the
//!    structured input stream, and *agree*: both accept with identical
//!    metadata and bursts, or both reject;
//! 2. `roundtrip` — every constructed (meta, bursts, chunk size) triple
//!    packs deterministically and decodes back to exactly the input;
//! 3. `seek` — on a valid container, seeking to any virtual time lands on
//!    the same burst boundary that skipping burst-by-burst from the start
//!    reaches;
//! 4. `reindexed` — a valid container with one index field edited and the
//!    index CRC recomputed either fails to decode, or keeps property 3 at
//!    every chunk start its index declares (decoding checks each chunk's
//!    bursts against the next record's `first_vtime`).
//!
//! CI drives property 1 with `SUIT_CHECK_CASES=100000` as the fuzz-smoke
//! gate. Committed corpus seeds in `tests/corpus/` pin the interesting
//! shapes (a rejected corruption, a surviving valid container) and are
//! replayed before random exploration on every run.

use suit::check::gen::{self, Gen};
use suit::check::{corpus_dir, Checker, Source};
use suit::isa::Opcode;
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

/// One structurally valid burst.
fn burst() -> Gen<Burst> {
    let ops = faultable();
    let n = ops.len();
    gen::pair(
        &gen::pair(&gen::u64_in(0..=1_000_000), &gen::u32_in(1..=500)),
        &gen::pair(&gen::u32_in(0..=64), &gen::usize_in(0..=n - 1)),
    )
    .map(move |((gap, events), (within, oi))| Burst::new(gap, events, within, ops[oi]))
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
    gen::pair(
        &gen::pair(&meta, &burst().vec_up_to(64)),
        &gen::usize_in(1..=8),
    )
    .map(|((meta, bursts), chunk_bursts)| (meta, bursts, chunk_bursts))
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
        // offset, comp_len, raw_len, bursts, crc32, first_vtime.
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

/// Property 1: both decode paths are total and agree.
fn decoder_is_total_and_consistent(input: &[u8]) -> Result<(), String> {
    let full = store::read_all(input);
    let streamed = decode_streaming(input);
    match (full, streamed) {
        (Ok(f), Ok(s)) if f == s => Ok(()),
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

/// Property 2: pack ∘ decode is the identity and packing is
/// deterministic.
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
/// decoded totally, and if it decodes at all, a seek to any chunk start
/// its index declares lands where skipping from the start lands.
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
        corrupt.len() >= 8 && &corrupt[..8] == b"SUITTRC2" && store::read_all(&corrupt).is_err(),
        "seed {CORRUPT_CONTAINER_SEED:#x} no longer generates a well-magicked corrupt container"
    );
}

/// Seeds committed under `tests/corpus/` for the shapes above.
const VALID_CONTAINER_SEED: u64 = 0x5;
const CORRUPT_CONTAINER_SEED: u64 = 0x0;

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
            && &input[..8] == b"SUITTRC2"
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
