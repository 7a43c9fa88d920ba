//! Parse-totality property tests: `Request::parse` must be *total* —
//! every byte string, however malformed, yields `Ok` or `Err`, never a
//! panic. The doctor's wire-fault injector (truncation, corruption)
//! relies on this, as does the TCP listener, which feeds whatever a
//! client sends straight into the parser.
//!
//! The generators are a hand-rolled property harness (seeded xorshift,
//! no external fuzzing dependency): random byte soup, every-prefix
//! truncations of valid requests, single-byte flips of valid requests,
//! and a corpus of targeted nasty inputs.

use constraint_db::core::{FaultPlan, Structure, VocabularyBuilder};
use constraint_db::service::storage::{
    decode_cache_payload, decode_db_payload, decode_delta_payload, decode_records,
    encode_cache_payload, encode_db_payload, encode_delta_payload, encode_record,
    structure_to_facts,
};
use constraint_db::service::{PersistedDelta, PersistedEntry, Request};

struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> Self {
        XorShift(seed | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// Parse must not panic; the result itself is irrelevant.
fn total(input: &str) {
    let _ = Request::parse(input);
}

/// A pool of valid requests covering every body shape, used as mutation
/// seeds.
fn valid_corpus() -> Vec<String> {
    vec![
        r#"{"id":1,"op":"put","db":"g","facts":"E 0 1\nE 1 2"}"#.into(),
        r#"{"id":2,"op":"cq","db":"g","query":"Q(X,Y) :- E(X,Z), E(Z,Y)"}"#.into(),
        r#"{"id":3,"op":"cq","db":"g","query":"Q(X) :- E(X,Y)","deadline_ms":250}"#.into(),
        r#"{"id":4,"op":"contain","q1":"Q(X) :- E(X,Y)","q2":"Q(X) :- E(X,X)"}"#.into(),
        r#"{"id":5,"op":"solve","a":"g","b":"h"}"#.into(),
        r#"{"id":6,"op":"stats"}"#.into(),
        r#"{"id":7,"v":2,"op":"insert","db":"g","fact":"E 0 1"}"#.into(),
        r#"{"id":8,"v":2,"op":"delete","db":"g","fact":"E 0 1"}"#.into(),
    ]
}

#[test]
fn parse_survives_random_byte_soup() {
    let mut rng = XorShift::new(0x5eed_1111_c0ff_ee00);
    for _ in 0..20_000 {
        let len = (rng.next() % 120) as usize;
        let bytes: Vec<u8> = (0..len).map(|_| (rng.next() & 0xff) as u8).collect();
        total(&String::from_utf8_lossy(&bytes));
    }
}

#[test]
fn parse_survives_random_json_ish_soup() {
    // Soup biased toward JSON structure: braces, quotes, colons,
    // digits, backslashes — much likelier to get deep into the parser
    // than uniform bytes.
    const ALPHABET: &[u8] = br#"{}[]":,\0123456789.eE+-truefalsn "id"op"cq"#;
    let mut rng = XorShift::new(0x5eed_2222_dead_beef);
    for _ in 0..20_000 {
        let len = (rng.next() % 160) as usize;
        let bytes: Vec<u8> = (0..len)
            .map(|_| ALPHABET[(rng.next() as usize) % ALPHABET.len()])
            .collect();
        total(&String::from_utf8_lossy(&bytes));
    }
}

#[test]
fn parse_survives_every_truncation_of_valid_requests() {
    for line in valid_corpus() {
        for cut in 0..=line.len() {
            if line.is_char_boundary(cut) {
                total(&line[..cut]);
            }
        }
    }
}

#[test]
fn parse_survives_single_byte_flips_of_valid_requests() {
    let mut rng = XorShift::new(0x5eed_3333_0000_0001);
    for line in valid_corpus() {
        let bytes = line.as_bytes();
        for i in 0..bytes.len() {
            let mut mutated = bytes.to_vec();
            mutated[i] ^= 1 << (rng.next() % 8);
            total(&String::from_utf8_lossy(&mutated));
        }
    }
}

#[test]
fn parse_survives_targeted_nasty_inputs() {
    let huge = "9".repeat(400);
    let deep_open = "[".repeat(10_000);
    let deep_obj = "{\"a\":".repeat(5_000);
    let long_string = format!("{{\"id\":1,\"op\":\"{}\"", "a".repeat(100_000));
    let nasty: Vec<String> = vec![
        String::new(),
        " ".into(),
        "\n".into(),
        "\u{0}".into(),
        "{".into(),
        "}".into(),
        "{}".into(),
        "[]".into(),
        "null".into(),
        "true".into(),
        "\"\"".into(),
        "{\"id\"}".into(),
        "{\"id\":}".into(),
        "{\"id\":1".into(),
        "{\"id\":1,}".into(),
        "{\"id\":-1,\"op\":\"stats\"}".into(),
        "{\"id\":1.5,\"op\":\"stats\"}".into(),
        format!("{{\"id\":{huge},\"op\":\"stats\"}}"),
        format!("{{\"id\":1,\"op\":\"cq\",\"db\":\"g\",\"query\":\"Q\",\"deadline_ms\":{huge}}}"),
        "{\"id\":1,\"op\":\"stats\",\"id\":2}".into(),
        "{\"id\":1,\"id\":1,\"op\":\"stats\",\"op\":\"cq\"}".into(),
        "{\"id\":1,\"op\":\"cq\",\"db\":1,\"query\":true}".into(),
        "{\"id\":\"1\",\"op\":\"stats\"}".into(),
        "{\"id\":1,\"op\":\"solve\",\"a\":-2,\"b\":99999999999999999999}".into(),
        "{\"id\":1,\"op\":\"put\",\"db\":\"\\".into(),
        "{\"id\":1,\"op\":\"put\",\"db\":\"\\u\"}".into(),
        "{\"id\":1,\"op\":\"put\",\"db\":\"\\u00\"}".into(),
        "{\"id\":1,\"op\":\"put\",\"db\":\"\\ud800\"}".into(),
        "{\"id\":1,\"op\":\"put\",\"db\":\"\\q\"}".into(),
        "{\"id\":1,\"op\":\"put\",\"db\":\"g\",\"facts\":\"\\n\\t\\r\\f\"}".into(),
        deep_open,
        deep_obj,
        long_string,
        "{\"op\":\"cq\"}".into(),
        "{\"id\":1}".into(),
        "{\"id\":1,\"op\":\"no-such-op\"}".into(),
        "\u{feff}{\"id\":1,\"op\":\"stats\"}".into(),
        "{\"id\":1,\"op\":\"stats\"}{\"id\":2,\"op\":\"stats\"}".into(),
        "{\"id\" :\t1 ,\n\"op\" : \"stats\" }".into(),
    ];
    for input in &nasty {
        total(input);
    }
}

#[test]
fn fault_spec_parse_is_total_and_rejects_duplicates() {
    // Totality over key/value soup built from the real vocabulary plus
    // junk: FaultPlan::parse must answer Ok or Err, never panic.
    const KEYS: &[&str] = &[
        "seed",
        "slow-ms",
        "panic",
        "poison",
        "slow",
        "truncate",
        "corrupt",
        "queue-full",
        "frobnicate",
        "",
        " seed ",
        "=",
    ];
    const VALUES: &[&str] = &["0", "1", "7", "99999999999999999999", "x", "", " 3 ", "-1"];
    let mut rng = XorShift::new(0x5eed_4444_fa07_01aa);
    for _ in 0..5_000 {
        let parts = (rng.next() % 6) as usize;
        let spec: Vec<String> = (0..parts)
            .map(|_| {
                let k = KEYS[(rng.next() as usize) % KEYS.len()];
                let v = VALUES[(rng.next() as usize) % VALUES.len()];
                if rng.next().is_multiple_of(8) {
                    k.to_string()
                } else {
                    format!("{k}={v}")
                }
            })
            .collect();
        let spec = spec.join(",");
        let result = FaultPlan::parse(&spec);
        // A spec that names the same (trimmed) key twice must be a
        // typed duplicate error, never a silent last-wins parse.
        let mut keys: Vec<&str> = spec
            .split(',')
            .filter_map(|p| p.trim().split_once('=').map(|(k, _)| k.trim()))
            .collect();
        keys.sort_unstable();
        let had_duplicate = keys.windows(2).any(|w| w[0] == w[1]);
        if had_duplicate && result.is_ok() {
            panic!("duplicate key accepted: `{spec}`");
        }
        if let Err(e) = &result {
            assert!(!e.is_empty(), "error for `{spec}` must carry a message");
        }
    }
}

#[test]
fn parse_accepts_the_valid_corpus() {
    for line in valid_corpus() {
        assert!(
            Request::parse(&line).is_ok(),
            "corpus line should parse: {line}"
        );
    }
}

// ---------------------------------------------------------------------
// Storage-record properties: the snapshot/log codec must round-trip
// exactly, and a damaged stream must never decode to *wrong* data —
// only to a (possibly shorter) committed prefix.
// ---------------------------------------------------------------------

/// A random structure over a random vocabulary, plus a name and version
/// for framing it as a database record.
fn random_db(rng: &mut XorShift) -> (String, u64, Structure) {
    let name = format!("db-{}", rng.next() % 1000);
    let version = rng.next() % 100;
    let domain = 1 + (rng.next() % 8) as usize;
    let nrels = 1 + (rng.next() % 3) as usize;
    let mut builder = VocabularyBuilder::new();
    let mut specs = Vec::new();
    for r in 0..nrels {
        let rel = format!("R{r}");
        let arity = 1 + (rng.next() % 3) as usize;
        builder.add_or_get(&rel, arity).unwrap();
        specs.push((rel, arity));
    }
    let mut s = Structure::new(builder.finish(), domain);
    for (rel, arity) in &specs {
        for _ in 0..rng.next() % 6 {
            let row: Vec<u32> = (0..*arity)
                .map(|_| (rng.next() % domain as u64) as u32)
                .collect();
            s.insert_by_name(rel, &row).unwrap();
        }
    }
    (name, version, s)
}

/// A random persisted cache entry.
fn random_entry(rng: &mut XorShift) -> PersistedEntry {
    let arity = 1 + (rng.next() % 3) as usize;
    let nrows = (rng.next() % 5) as usize;
    PersistedEntry {
        db: format!("db-{}", rng.next() % 1000),
        version: rng.next() % 100,
        query: "Q(X,Y) :- E(X,Z), E(Z,Y)".into(),
        arity,
        rows: (0..nrows)
            .map(|_| (0..arity).map(|_| (rng.next() % 16) as u32).collect())
            .collect(),
    }
}

/// Database payloads round-trip exactly on arbitrary random structures:
/// name, version, domain size, and the full canonical fact listing.
#[test]
fn storage_db_payloads_round_trip_on_random_structures() {
    let mut rng = XorShift::new(0xD0C5);
    for _ in 0..200 {
        let (name, version, s) = random_db(&mut rng);
        let payload = encode_db_payload(&name, version, &s);
        let (got_name, got_version, got) =
            decode_db_payload(&payload).expect("fresh payload must decode");
        assert_eq!(got_name, name);
        assert_eq!(got_version, version);
        assert_eq!(got.domain_size(), s.domain_size());
        assert_eq!(structure_to_facts(&got), structure_to_facts(&s));
    }
}

/// Cache payloads round-trip exactly on arbitrary random entries.
#[test]
fn storage_cache_payloads_round_trip_on_random_entries() {
    let mut rng = XorShift::new(0xCAC4E);
    for _ in 0..200 {
        let entry = random_entry(&mut rng);
        let payload = encode_cache_payload(&entry);
        let got = decode_cache_payload(&payload).expect("fresh payload must decode");
        assert_eq!(got, entry);
    }
}

/// Every truncation of a framed record stream yields exactly the
/// committed prefix: payloads match the originals index-for-index,
/// `valid_len` lands on a record boundary, and `torn` is set iff the
/// cut fell strictly inside a record.
#[test]
fn storage_record_streams_survive_every_truncation() {
    let mut rng = XorShift::new(0x7259);
    let mut stream = Vec::new();
    let mut payloads = Vec::new();
    let mut boundaries = vec![0usize];
    for _ in 0..5 {
        let (name, version, s) = random_db(&mut rng);
        let payload = encode_db_payload(&name, version, &s);
        stream.extend_from_slice(&encode_record(&payload));
        payloads.push(payload);
        boundaries.push(stream.len());
    }
    for cut in 0..=stream.len() {
        let replay = decode_records(&stream[..cut]);
        let committed = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
        assert_eq!(replay.payloads.len(), committed, "cut at {cut}");
        assert_eq!(replay.payloads, payloads[..committed], "cut at {cut}");
        assert_eq!(replay.valid_len, boundaries[committed], "cut at {cut}");
        assert_eq!(replay.torn, cut != boundaries[committed], "cut at {cut}");
    }
}

/// Every single-bit flip of a record stream decodes to *some prefix of
/// the original payloads* — a flip may tear the stream early, but must
/// never surface a payload that differs from what was written.
#[test]
fn storage_record_streams_survive_single_bit_flips() {
    let mut rng = XorShift::new(0xF11B);
    let mut stream = Vec::new();
    let mut payloads = Vec::new();
    for _ in 0..3 {
        let (name, version, s) = random_db(&mut rng);
        let payload = encode_db_payload(&name, version, &s);
        stream.extend_from_slice(&encode_record(&payload));
        payloads.push(payload);
    }
    for i in 0..stream.len() {
        let mut mutated = stream.clone();
        mutated[i] ^= 1 << (rng.next() % 8);
        let replay = decode_records(&mutated);
        assert!(
            replay.payloads.len() <= payloads.len(),
            "flip at {i} invented records"
        );
        for (j, got) in replay.payloads.iter().enumerate() {
            assert_eq!(got, &payloads[j], "flip at {i} corrupted record {j}");
        }
    }
}

/// The payload decoders are total over random byte soup: arbitrary
/// bytes yield `Err`, never a panic, and `decode_records` always
/// returns a well-formed `Replay`.
#[test]
fn storage_decoders_are_total_on_byte_soup() {
    let mut rng = XorShift::new(0x50FA);
    for _ in 0..2_000 {
        let len = (rng.next() % 64) as usize;
        let bytes: Vec<u8> = (0..len).map(|_| (rng.next() % 256) as u8).collect();
        let _ = decode_db_payload(&bytes);
        let _ = decode_cache_payload(&bytes);
        let _ = decode_delta_payload(&bytes);
        let replay = decode_records(&bytes);
        assert!(replay.valid_len <= bytes.len());
    }
}

// ---------------------------------------------------------------------
// Delta log-record properties: same contract as the snapshot codec —
// exact round-trip, committed-prefix recovery under truncation, never
// wrong data under bit flips, total decoding on soup.
// ---------------------------------------------------------------------

/// A random single-tuple delta record.
fn random_delta(rng: &mut XorShift) -> PersistedDelta {
    let arity = 1 + (rng.next() % 4) as usize;
    PersistedDelta {
        db: format!("db-{}", rng.next() % 1000),
        version: rng.next() % 1000,
        rel: format!("R{}", rng.next() % 4),
        insert: rng.next().is_multiple_of(2),
        tuple: (0..arity).map(|_| (rng.next() % 16) as u32).collect(),
    }
}

/// Delta payloads round-trip exactly: db, version, relation, direction,
/// and the full tuple.
#[test]
fn storage_delta_payloads_round_trip() {
    let mut rng = XorShift::new(0xDE17A);
    for _ in 0..300 {
        let delta = random_delta(&mut rng);
        let payload = encode_delta_payload(&delta);
        let got = decode_delta_payload(&payload).expect("fresh payload must decode");
        assert_eq!(got, delta);
    }
}

/// Every truncation of a delta-record stream recovers exactly the
/// committed prefix — a torn delta is dropped whole, never half-read.
#[test]
fn storage_delta_streams_survive_every_truncation() {
    let mut rng = XorShift::new(0xDE17B);
    let mut stream = Vec::new();
    let mut payloads = Vec::new();
    let mut boundaries = vec![0usize];
    for _ in 0..6 {
        let payload = encode_delta_payload(&random_delta(&mut rng));
        stream.extend_from_slice(&encode_record(&payload));
        payloads.push(payload);
        boundaries.push(stream.len());
    }
    for cut in 0..=stream.len() {
        let replay = decode_records(&stream[..cut]);
        let committed = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
        assert_eq!(replay.payloads, payloads[..committed], "cut at {cut}");
        assert_eq!(replay.valid_len, boundaries[committed], "cut at {cut}");
        assert_eq!(replay.torn, cut != boundaries[committed], "cut at {cut}");
        for payload in &replay.payloads {
            decode_delta_payload(payload).expect("committed delta must decode");
        }
    }
}

/// Single-bit flips of a delta stream never surface a record that
/// differs from what was written, and any payload that still decodes
/// decodes to the original delta (the checksum catches the rest).
#[test]
fn storage_delta_streams_survive_single_bit_flips() {
    let mut rng = XorShift::new(0xDE17C);
    let mut stream = Vec::new();
    let mut deltas = Vec::new();
    for _ in 0..4 {
        let delta = random_delta(&mut rng);
        stream.extend_from_slice(&encode_record(&encode_delta_payload(&delta)));
        deltas.push(delta);
    }
    for i in 0..stream.len() {
        let mut mutated = stream.clone();
        mutated[i] ^= 1 << (rng.next() % 8);
        let replay = decode_records(&mutated);
        assert!(
            replay.payloads.len() <= deltas.len(),
            "flip at {i} invented records"
        );
        for (j, payload) in replay.payloads.iter().enumerate() {
            let got = decode_delta_payload(payload).expect("surviving record must decode");
            assert_eq!(got, deltas[j], "flip at {i} corrupted record {j}");
        }
    }
}

/// The fixed structure behind the golden-bytes test: a binary relation
/// given out of order, an empty unary relation, and both nullary
/// relations (`{()}` and the empty one).
fn golden_structure() -> Structure {
    let mut b = VocabularyBuilder::new();
    for (name, arity) in [("E", 2), ("P", 1), ("T", 0), ("F", 0)] {
        b.add_or_get(name, arity).unwrap();
    }
    let mut s = Structure::new(b.finish(), 3);
    for t in [[2, 0], [0, 1], [1, 2]] {
        s.insert_by_name("E", &t).unwrap();
    }
    s.insert_by_name("T", &[]).unwrap();
    s
}

/// Database payloads are byte-stable: the golden structure encodes to
/// the bytes the codec has always written, so data directories written
/// by earlier builds still replay, and the bytes decode back to it.
#[test]
fn storage_db_payload_bytes_are_stable() {
    let s = golden_structure();
    let payload = encode_db_payload("g", 7, &s);
    #[rustfmt::skip]
    let golden: &[u8] = &[
        1, // database record tag
        7, 0, 0, 0, 0, 0, 0, 0, // version
        1, 0, 0, 0, b'g', // name
        3, 0, 0, 0, 0, 0, 0, 0, // domain size
        4, 0, 0, 0, // relation count
        1, 0, 0, 0, b'E', 2, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, // E: arity 2, 3 rows
        0, 0, 0, 0, 1, 0, 0, 0, // (0,1)
        1, 0, 0, 0, 2, 0, 0, 0, // (1,2)
        2, 0, 0, 0, 0, 0, 0, 0, // (2,0)
        1, 0, 0, 0, b'P', 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, // P: arity 1, no rows
        1, 0, 0, 0, b'T', 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, // T: {()}
        1, 0, 0, 0, b'F', 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, // F: empty
    ];
    assert_eq!(payload, golden);
    let (name, version, got) = decode_db_payload(&payload).expect("golden payload decodes");
    assert_eq!((name.as_str(), version), ("g", 7));
    assert_eq!(got, s);
}
