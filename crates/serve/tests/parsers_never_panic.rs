//! Never-panic mutation property for every flat-JSON trust boundary.
//!
//! Starting from valid inputs — one checked-in line of each record kind, a
//! journal header and entry, a snapshot, and a wire request — every single
//! bit flip, every truncation, and random splices of two inputs are fed to
//! the record, journal, snapshot and wire parsers. Each must answer `Ok` or
//! `Err` without panicking, and a record line that parses must survive
//! encode → parse unchanged.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use population::record::{from_jsonl_lenient, RecordLine};
use population::SnapshotDoc;
use proptest::prelude::*;
use ssle_serve::journal::{Entry, Header, JournalDoc, Op};
use ssle_serve::wire::Request;

/// The valid starting inputs.
fn seeds() -> &'static [String] {
    static SEEDS: OnceLock<Vec<String>> = OnceLock::new();
    SEEDS.get_or_init(build_seeds)
}

fn build_seeds() -> Vec<String> {
    let results = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let mut first_of_kind = BTreeMap::new();
    for entry in std::fs::read_dir(results).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|ext| ext == "jsonl") {
            for line in std::fs::read_to_string(&path).unwrap().lines() {
                let kind = line.split("\"kind\":\"").nth(1).unwrap().split('"').next().unwrap();
                first_of_kind.entry(kind.to_string()).or_insert_with(|| line.to_string());
            }
        }
    }
    assert_eq!(first_of_kind.len(), 8, "{:?}", first_of_kind.keys());
    let header = Header {
        name: "a".to_string(),
        protocol: "ciw".to_string(),
        backend: "counts".to_string(),
        n: 16,
        seed: 7,
        base_seq: 0,
        ids: vec!["c-1".to_string()],
        churn: Some(("2.0".to_string(), 9)),
    };
    let entry = Entry { seq: 1, op: Op::Churn("join:4@8".to_string(), 3), id: Some("c-2".into()) };
    let snapshot = SnapshotDoc {
        protocol: "ciw".to_string(),
        backend: "agents".to_string(),
        param: 4,
        live: 4,
        interactions: 1234,
        seq: 2,
        rng: [1, 2, 3, 4],
        runs: vec![("0".to_string(), 3), ("1".to_string(), 1)],
    };
    let mut seeds: Vec<String> = first_of_kind.into_values().collect();
    seeds.push(format!("{}\n{}\n", header.to_json(), entry.to_json()));
    seeds.push(snapshot.to_jsonl());
    seeds.push(
        r#"{"cmd":"create","name":"a","protocol":"ciw","backend":"agents","n":64,"seed":7,"id":"c-3"}"#
            .to_string(),
    );
    seeds
}

/// Feeds `text` to every parser; only a panic fails.
fn feed(text: &str) {
    for line in text.lines() {
        if let Ok(record) = RecordLine::from_json(line) {
            assert_eq!(RecordLine::from_json(&record.to_json()), Ok(record), "{line}");
        }
        if let Ok(request) = Request::parse(line) {
            for key in ["name", "n", "seed", "id"] {
                let _ = (request.str_arg(key), request.u64_arg(key), request.bool_arg(key));
            }
        }
    }
    let _ = from_jsonl_lenient(text);
    let _ = JournalDoc::parse(text);
    let _ = SnapshotDoc::from_jsonl(text);
}

fn mutate(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

#[test]
fn seeds_are_valid() {
    for seed in seeds() {
        let parsed = RecordLine::from_json(seed).is_ok()
            || JournalDoc::parse(seed).is_ok()
            || SnapshotDoc::from_jsonl(seed).is_ok()
            || Request::parse(seed).is_ok();
        assert!(parsed, "{seed}");
    }
}

#[test]
fn every_bit_flip_and_truncation_parses_or_errors() {
    for seed in seeds() {
        let bytes = seed.as_bytes();
        for at in 0..bytes.len() {
            feed(&mutate(&bytes[..at]));
            for bit in 0..8 {
                let mut flipped = bytes.to_vec();
                flipped[at] ^= 1 << bit;
                feed(&mutate(&flipped));
            }
        }
    }
}

proptest! {
    #[test]
    fn splices_of_two_inputs_parse_or_error(
        picks in prop::collection::vec((any::<usize>(), any::<usize>(), any::<usize>(), any::<usize>()), 64),
    ) {
        let seeds = seeds();
        for (a, b, i, j) in picks {
            let (a, b) = (seeds[a % seeds.len()].as_bytes(), seeds[b % seeds.len()].as_bytes());
            let spliced = [&a[..i % (a.len() + 1)], &b[j % (b.len() + 1)..]].concat();
            feed(&mutate(&spliced));
        }
    }
}
