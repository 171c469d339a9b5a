//! Structure-aware fuzz targets for the `suit-serve` request path.
//!
//! Two totality properties pin the service's "never a panic" contract:
//!
//! 1. the HTTP/1.1 request parser is total over raw, valid, mutated,
//!    over-long-header and truncated-body byte streams, and every
//!    `Complete` parse is prefix-stable (re-parsing exactly the consumed
//!    bytes reproduces the identical request);
//! 2. the endpoint body validators (`parse_simulate` / `parse_batch` /
//!    `parse_faults`) are total over raw and near-valid JSON — a bad
//!    body is always a structured 400, never a crash.
//!
//! Two construction-based oracle properties pin the header semantics
//! fixed in the conformance sweep:
//!
//! 3. `Request::wants_close` honours `Connection` as a comma-separated
//!    token list (RFC 9112 §9.6) — the expectation is carried alongside
//!    each generated token, so a `close` buried in `TE, close, upgrade`
//!    (the pre-fix bug shape) or a near-miss like `closet` can never be
//!    misread;
//! 4. `Request::if_none_match` implements the RFC 9110 §13.1.2 weak
//!    comparison over `If-None-Match` lists — `W/` prefixes, the `*`
//!    wildcard, and non-matching/unquoted members all carry their
//!    ground-truth match bit from the generator.
//!
//! CI drives property 1 with `SUIT_CHECK_CASES=100000` as the fuzz-smoke
//! gate. The committed corpus seeds in `tests/corpus/` pin the
//! interesting shapes (over-long header, truncated body, close-in-list
//! `Connection`, matching tag in an `If-None-Match` list) and are
//! replayed before random exploration on every run.

use suit::check::gen::{self, Gen};
use suit::check::{corpus_dir, Checker, Source};
use suit::serve::api;
use suit::serve::http::{parse_request, Limits, Parse};

#[path = "config_gen.rs"]
mod config_gen;

/// Small limits so the generator can reach every rejection branch with
/// short inputs.
fn limits() -> Limits {
    Limits {
        max_head: 256,
        max_body: 512,
    }
}

/// A syntactically valid request with a correct `content-length`.
fn valid_request() -> Gen<Vec<u8>> {
    let method = gen::from_slice(&["GET", "POST"]);
    let path = gen::from_slice(&["/v1/simulate", "/v1/batch", "/v1/healthz", "/"]);
    let body = gen::bytes_up_to(64);
    let keep = gen::bool_any();
    gen::pair(&gen::pair(&method, &path), &gen::pair(&body, &keep)).map(
        |((method, path), (body, keep))| {
            let mut req = format!("{method} {path} HTTP/1.1\r\nhost: fuzz\r\n");
            if keep {
                req.push_str("connection: keep-alive\r\n");
            }
            req.push_str(&format!("content-length: {}\r\n\r\n", body.len()));
            let mut bytes = req.into_bytes();
            bytes.extend_from_slice(&body);
            bytes
        },
    )
}

/// A valid request with one byte overwritten.
fn mutated_request() -> Gen<Vec<u8>> {
    gen::pair(
        &valid_request(),
        &gen::pair(&gen::usize_in(0..=511), &gen::byte()),
    )
    .map(|(mut bytes, (pos, b))| {
        let at = pos % bytes.len();
        bytes[at] = b;
        bytes
    })
}

/// A request whose header block alone exceeds `max_head` (256 here).
fn overlong_header_request() -> Gen<Vec<u8>> {
    gen::usize_in(260..=400).map(|n| {
        let mut req = String::from("GET / HTTP/1.1\r\nx-pad: ");
        req.extend(std::iter::repeat('a').take(n));
        req.push_str("\r\n\r\n");
        req.into_bytes()
    })
}

/// A request whose `content-length` promises more bytes than follow.
fn truncated_body_request() -> Gen<Vec<u8>> {
    gen::pair(&gen::usize_in(1..=200), &gen::usize_in(0..=100)).map(|(claim, have)| {
        let mut bytes =
            format!("POST /v1/simulate HTTP/1.1\r\ncontent-length: {claim}\r\n\r\n").into_bytes();
        bytes.extend(std::iter::repeat(0x7Bu8).take(have.min(claim.saturating_sub(1))));
        bytes
    })
}

/// The full request-stream generator: raw soup first (shrinks toward
/// simplest), then the structured shapes.
fn request_stream() -> Gen<Vec<u8>> {
    gen::one_of(vec![
        gen::bytes_up_to(400),
        valid_request(),
        mutated_request(),
        overlong_header_request(),
        truncated_body_request(),
    ])
}

/// Property 1: the parser is total and `Complete` parses are
/// prefix-stable and within limits.
fn parser_is_total(input: &[u8]) -> Result<(), String> {
    match parse_request(input, &limits()) {
        Err(_) | Ok(Parse::Partial) => Ok(()),
        Ok(Parse::Complete(req, consumed)) => {
            if consumed > input.len() {
                return Err(format!(
                    "consumed {consumed} of a {}-byte input",
                    input.len()
                ));
            }
            if req.body.len() > limits().max_body {
                return Err(format!("body {} exceeds max_body", req.body.len()));
            }
            match parse_request(&input[..consumed], &limits()) {
                Ok(Parse::Complete(req2, consumed2)) if req2 == req && consumed2 == consumed => {
                    Ok(())
                }
                other => Err(format!("prefix re-parse diverged: {other:?}")),
            }
        }
    }
}

#[test]
fn http_parser_is_total_over_request_streams() {
    Checker::new("serve_fuzz::http_parser")
        .cases_from_env_or(20_000)
        .corpus(corpus_dir!())
        .check(&request_stream(), |input: &Vec<u8>| parser_is_total(input));
}

/// The committed corpus seeds must keep generating the shapes they were
/// committed to pin — if the generator drifts, this fails loudly instead
/// of the seeds silently degenerating into byte soup.
#[test]
fn committed_corpus_seeds_cover_the_advertised_shapes() {
    let sample = |seed: u64| request_stream().sample(&mut Source::fresh(seed));

    let overlong = sample(OVERLONG_HEADER_SEED);
    assert!(
        matches!(
            parse_request(&overlong, &limits()),
            Err(ref e) if e.status() == 431
        ),
        "seed {OVERLONG_HEADER_SEED:#x} no longer generates an over-long header: {:?}",
        parse_request(&overlong, &limits())
    );

    let truncated = sample(TRUNCATED_BODY_SEED);
    let parsed = parse_request(&truncated, &limits());
    assert!(
        matches!(parsed, Ok(Parse::Partial)),
        "seed {TRUNCATED_BODY_SEED:#x} no longer generates a truncated body: {parsed:?}"
    );
    assert!(
        truncated.windows(16).any(|w| w == b"content-length: "),
        "truncated-body seed lost its content-length header"
    );
}

/// Seeds committed under `tests/corpus/` for the shapes above.
const OVERLONG_HEADER_SEED: u64 = 0x0;
const TRUNCATED_BODY_SEED: u64 = 0xc;

/// Seeds committed under `tests/corpus/` for the conformance shapes.
const CLOSE_IN_LIST_SEED: u64 = 0x9;
const TAG_IN_LIST_SEED: u64 = 0x9;

/// Same drift alarm for the conformance-sweep corpus: the committed
/// seeds must keep generating a `close` buried in a multi-token
/// `Connection` list and a matching tag inside an `If-None-Match` list.
#[test]
fn conformance_corpus_seeds_cover_the_advertised_shapes() {
    let (bytes, expect) = connection_case().sample(&mut Source::fresh(CLOSE_IN_LIST_SEED));
    let value = connection_value(&bytes).expect("generated request has a connection header");
    assert!(
        expect && close_buried_in_list(&value),
        "seed {CLOSE_IN_LIST_SEED:#x} no longer buries close in a token list: {value:?}"
    );

    let (bytes, expect) = if_none_match_case().sample(&mut Source::fresh(TAG_IN_LIST_SEED));
    let text = String::from_utf8_lossy(&bytes).into_owned();
    assert!(
        expect && text.contains(','),
        "seed {TAG_IN_LIST_SEED:#x} no longer puts a matching tag in a list: {text:?}"
    );
}

/// Maintenance tool, not part of the suite: scans seeds and prints the
/// first one generating each corpus shape. Run with
/// `cargo test -p suit --test serve_fuzz find_corpus_seeds -- --ignored --nocapture`
/// after changing the generator, then update the constants and the
/// committed `.seed` files.
#[test]
#[ignore]
fn find_corpus_seeds() {
    let g = request_stream();
    let mut overlong = None;
    let mut truncated = None;
    for seed in 0..200_000u64 {
        let input = g.sample(&mut Source::fresh(seed));
        let parsed = parse_request(&input, &limits());
        if overlong.is_none() && matches!(parsed, Err(ref e) if e.status() == 431) {
            overlong = Some(seed);
        }
        if truncated.is_none()
            && matches!(parsed, Ok(Parse::Partial))
            && input.windows(16).any(|w| w == b"content-length: ")
        {
            truncated = Some(seed);
        }
        if overlong.is_some() && truncated.is_some() {
            break;
        }
    }
    println!("over-long header seed: {overlong:?}");
    println!("truncated body seed:   {truncated:?}");

    // The conformance shapes: a `close` token inside a multi-token list
    // (the pre-fix wants_close bug), and a matching tag inside an
    // `If-None-Match` list with at least one non-matching member.
    let conn = connection_case();
    let mut close_in_list = None;
    for seed in 0..200_000u64 {
        let (bytes, expect) = conn.sample(&mut Source::fresh(seed));
        if expect && connection_value(&bytes).is_some_and(|v| close_buried_in_list(&v)) {
            close_in_list = Some(seed);
            break;
        }
    }
    let inm = if_none_match_case();
    let mut tag_in_list = None;
    for seed in 0..200_000u64 {
        let (bytes, expect) = inm.sample(&mut Source::fresh(seed));
        if expect && bytes.windows(1).any(|w| w == b",") {
            tag_in_list = Some(seed);
            break;
        }
    }
    println!("close-in-list seed:    {close_in_list:?}");
    println!("tag-in-list seed:      {tag_in_list:?}");
}

/// Extracts the generated `connection:` header value.
fn connection_value(bytes: &[u8]) -> Option<String> {
    String::from_utf8_lossy(bytes)
        .lines()
        .find_map(|l| l.strip_prefix("connection: ").map(str::to_string))
}

/// The pre-fix bug shape: a `close` token inside a multi-token list,
/// which the old literal `value == "close"` comparison misread as
/// keep-alive.
fn close_buried_in_list(value: &str) -> bool {
    let tokens: Vec<&str> = value
        .split(',')
        .map(|t| t.trim_matches([' ', '\t']))
        .collect();
    tokens.len() >= 2
        && tokens.iter().any(|t| t.eq_ignore_ascii_case("close"))
        && !value.trim().eq_ignore_ascii_case("close")
}

/// What a `Connection` token means for connection lifetime. Carried
/// alongside the spelled form so the property's expectation is ground
/// truth by construction, not a re-implementation of the parser.
#[derive(Debug, Clone, Copy, PartialEq)]
enum ConnToken {
    Close,
    KeepAlive,
    Other,
}

/// One spelled `Connection` token: mixed case, unrelated tokens, and
/// near-miss spellings that contain `close` as a substring.
fn connection_token() -> Gen<(&'static str, ConnToken)> {
    gen::from_slice(&[
        ("close", ConnToken::Close),
        ("CLOSE", ConnToken::Close),
        ("ClOsE", ConnToken::Close),
        ("keep-alive", ConnToken::KeepAlive),
        ("Keep-Alive", ConnToken::KeepAlive),
        ("TE", ConnToken::Other),
        ("upgrade", ConnToken::Other),
        ("closet", ConnToken::Other),
        ("disclose", ConnToken::Other),
        ("keep-alives", ConnToken::Other),
        ("", ConnToken::Other),
    ])
}

/// A parseable request carrying a token-list `Connection` header, plus
/// the by-construction expectation of whether the server must close:
/// a `close` token always wins, `keep-alive` holds an HTTP/1.0
/// connection open, and a list of neither falls back to the version
/// default.
fn connection_case() -> Gen<(Vec<u8>, bool)> {
    let tokens = connection_token().vec_up_to(4);
    let sep = gen::from_slice(&[",", ", ", " ,", ",\t", "\t,\t", " , "]);
    gen::pair(&gen::pair(&tokens, &sep), &gen::bool_any()).map(|((tokens, sep), http11)| {
        let value = tokens.iter().map(|(s, _)| *s).collect::<Vec<_>>().join(sep);
        let version = if http11 { "HTTP/1.1" } else { "HTTP/1.0" };
        let req = format!("GET / {version}\r\nhost: f\r\nconnection: {value}\r\n\r\n");
        let close = tokens.iter().any(|(_, t)| *t == ConnToken::Close);
        let keep = tokens.iter().any(|(_, t)| *t == ConnToken::KeepAlive);
        (req.into_bytes(), close || (!keep && !http11))
    })
}

/// Property 3: `wants_close` agrees with the constructed token list.
#[test]
fn wants_close_honours_token_list_connection_headers() {
    Checker::new("serve_fuzz::connection_tokens")
        .cases_from_env_or(20_000)
        .corpus(corpus_dir!())
        .check(
            &connection_case(),
            |(bytes, expect): &(Vec<u8>, bool)| match parse_request(bytes, &limits()) {
                Ok(Parse::Complete(req, _)) => {
                    if req.wants_close() == *expect {
                        Ok(())
                    } else {
                        Err(format!(
                            "wants_close() = {} for {:?}, expected {expect}",
                            req.wants_close(),
                            String::from_utf8_lossy(bytes)
                        ))
                    }
                }
                other => Err(format!("constructed request failed to parse: {other:?}")),
            },
        );
}

/// The tag every `If-None-Match` case revalidates against.
const TARGET_ETAG: &str = "\"suit-00112233445566778899aabbccddeeff\"";

/// One `If-None-Match` list member plus whether the weak comparison
/// must match [`TARGET_ETAG`]: the tag itself, its `W/` form and the
/// `*` wildcard match; other tags, weak other tags, the unquoted
/// spelling, and the empty member must not.
fn etag_member() -> Gen<(&'static str, bool)> {
    gen::from_slice(&[
        ("\"suit-00112233445566778899aabbccddeeff\"", true),
        ("W/\"suit-00112233445566778899aabbccddeeff\"", true),
        ("*", true),
        ("\"suit-ffffffffffffffffffffffffffffffff\"", false),
        ("\"etag\"", false),
        ("W/\"etag\"", false),
        ("suit-00112233445566778899aabbccddeeff", false),
        ("", false),
    ])
}

/// A parseable request carrying an `If-None-Match` list, plus whether
/// any member matches [`TARGET_ETAG`].
fn if_none_match_case() -> Gen<(Vec<u8>, bool)> {
    let members = etag_member().vec_up_to(3);
    let sep = gen::from_slice(&[",", ", ", " ,\t", " , "]);
    gen::pair(&members, &sep).map(|(members, sep)| {
        let value = members
            .iter()
            .map(|(s, _)| *s)
            .collect::<Vec<_>>()
            .join(sep);
        let req = format!(
            "POST /v1/simulate HTTP/1.1\r\nhost: f\r\nif-none-match: {value}\r\n\
             content-length: 0\r\n\r\n"
        );
        (req.into_bytes(), members.iter().any(|(_, m)| *m))
    })
}

/// Property 4: `if_none_match` agrees with the constructed member list.
#[test]
fn if_none_match_honours_etag_lists_weak_tags_and_star() {
    Checker::new("serve_fuzz::etag_lists")
        .cases_from_env_or(20_000)
        .corpus(corpus_dir!())
        .check(
            &if_none_match_case(),
            |(bytes, expect): &(Vec<u8>, bool)| match parse_request(bytes, &limits()) {
                Ok(Parse::Complete(req, _)) => {
                    if req.if_none_match(TARGET_ETAG) == *expect {
                        Ok(())
                    } else {
                        Err(format!(
                            "if_none_match() = {} for {:?}, expected {expect}",
                            req.if_none_match(TARGET_ETAG),
                            String::from_utf8_lossy(bytes)
                        ))
                    }
                }
                other => Err(format!("constructed request failed to parse: {other:?}")),
            },
        );
}

/// A JSON-ish body: raw text, documents drawn from the request field
/// tables, valid endpoint bodies, and those truncated or with one byte
/// flipped.
fn jsonish_body() -> Gen<String> {
    let valid = gen::from_slice(&[
        "{\"workload\":\"557.xz\",\"insts\":1000000}",
        "{\"sweep\":\"table6\",\"max_insts\":1000000}",
        "{\"workloads\":[\"Nginx\",\"VLC\"],\"cpu\":\"a\",\"offset\":70}",
        "{\"workloads\":\"all\",\"strategy\":\"adaptive\",\"deadline_ms\":1000}",
        "{\"executions\":100,\"sigma_mv\":5.5,\"cores\":8}",
        "{}",
    ]);
    let keys = [
        config_gen::keys(api::SimPoint::FIELDS),
        config_gen::keys(api::FaultsSpec::FIELDS),
        config_gen::keys(api::Table6Spec::FIELDS),
        vec!["sweep", "workloads", "deadline_ms"],
        config_gen::TYPOS.to_vec(),
    ]
    .concat();
    config_gen::doc_stream(keys, valid.map(String::from))
}

/// Property 2: every endpoint validator is total — any outcome is fine,
/// panicking is the only failure.
#[test]
fn endpoint_validators_are_total_over_jsonish_bodies() {
    Checker::new("serve_fuzz::validators")
        .cases_from_env_or(20_000)
        .corpus(corpus_dir!())
        .check(&jsonish_body(), |body: &String| {
            let _ = api::parse_simulate(body);
            let _ = api::parse_batch(body);
            let _ = api::parse_faults(body);
            Ok::<(), String>(())
        });
}
