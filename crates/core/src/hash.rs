//! Stable content hashing for run descriptors.
//!
//! The serve layer keys its result cache and run registry on the *content*
//! of a submission — (scenario, machine config, seed) — so identical
//! submissions from different users resolve to the same record. That only
//! works if the hash is a pure function of the value: byte-stable across
//! processes and runs (no `RandomState`), and independent of any container
//! iteration order. Both properties come from hashing a *canonical*
//! serialization: the value is lowered to a [`Value`] tree, every object's
//! fields are sorted by key recursively, the tree is written as compact
//! JSON, and the bytes go through FNV-1a (64-bit) — a dependency-free,
//! well-specified hash with published test vectors.
//!
//! FNV-1a is not collision-resistant against adversaries; the registry
//! stores the full spec next to the hash, so a (vanishingly unlikely)
//! collision is detectable by comparing specs. For a cache of simulation
//! results that trade-off is right: the hash is an index, not a proof.

use serde::json::Value;
use serde::Serialize;

/// The workspace's one FNV-1a, beside the engine's keyed indexes.
pub use fem2_machine::index::fnv1a_64;

/// Return `v` with every object's fields sorted by key, recursively.
/// Arrays keep their order (position is meaning); duplicate keys keep
/// their relative order after the sort (first occurrence wins on lookup,
/// and both occurrences still contribute to the hash).
pub fn canonicalize(v: &Value) -> Value {
    match v {
        Value::Arr(items) => Value::Arr(items.iter().map(canonicalize).collect()),
        Value::Obj(pairs) => {
            let mut sorted: Vec<(String, Value)> = pairs
                .iter()
                .map(|(k, v)| (k.clone(), canonicalize(v)))
                .collect();
            sorted.sort_by(|a, b| a.0.cmp(&b.0));
            Value::Obj(sorted)
        }
        scalar => scalar.clone(),
    }
}

/// The canonical serialization of a value: compact JSON of the
/// key-sorted tree. Two values that differ only in object field order
/// canonicalize to identical bytes.
pub fn canonical_json(v: &Value) -> String {
    let canon = canonicalize(v);
    serde_json::to_string(&canon).expect("canonical tree has no non-finite floats")
}

/// Content hash of a JSON tree: FNV-1a over its canonical serialization.
pub fn content_hash_value(v: &Value) -> u64 {
    fnv1a_64(canonical_json(v).as_bytes())
}

/// Content hash of any serializable value; see [`content_hash_value`].
pub fn content_hash<T: Serialize>(value: &T) -> u64 {
    content_hash_value(&value.to_value())
}

/// The 16-hex-digit rendering used wherever a hash is shown or stored.
pub fn hash_hex(h: u64) -> String {
    format!("{h:016x}")
}

#[cfg(test)]
#[expect(
    clippy::disallowed_types,
    reason = "tests hash a HashMap's sorted entries to prove order-independence of content_hash"
)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn fnv1a_matches_published_test_vectors() {
        // From the FNV reference implementation's vector set.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn content_hash_is_byte_stable_across_runs() {
        // A pinned value must hash to a pinned digest in every process on
        // every platform; this constant is the contract the registry and
        // cache rely on. If it ever changes, the on-disk registry format
        // changed with it.
        let v = Value::Obj(vec![
            ("nx".into(), Value::UInt(32)),
            ("seed".into(), Value::UInt(7)),
            ("tol".into(), Value::Float(1e-6)),
        ]);
        assert_eq!(hash_hex(content_hash_value(&v)), "48568c4ad4ea20a6");
        // And it is reproducible within the process, trivially.
        assert_eq!(content_hash_value(&v), content_hash_value(&v));
    }

    #[test]
    fn object_key_order_is_irrelevant() {
        let a = Value::Obj(vec![
            ("x".into(), Value::UInt(1)),
            ("y".into(), Value::UInt(2)),
            (
                "nested".into(),
                Value::Obj(vec![
                    ("p".into(), Value::Bool(true)),
                    ("q".into(), Value::Str("s".into())),
                ]),
            ),
        ]);
        let b = Value::Obj(vec![
            (
                "nested".into(),
                Value::Obj(vec![
                    ("q".into(), Value::Str("s".into())),
                    ("p".into(), Value::Bool(true)),
                ]),
            ),
            ("y".into(), Value::UInt(2)),
            ("x".into(), Value::UInt(1)),
        ]);
        assert_eq!(canonical_json(&a), canonical_json(&b));
        assert_eq!(content_hash_value(&a), content_hash_value(&b));
    }

    #[test]
    fn hashmap_iteration_order_cannot_leak_into_the_hash() {
        // Build the same logical object through HashMaps with different
        // insertion histories: RandomState makes iteration order
        // process-random, which is exactly what canonicalization must
        // erase.
        let mut m1: HashMap<String, u64> = HashMap::new();
        for (k, v) in [("alpha", 1u64), ("beta", 2), ("gamma", 3), ("delta", 4)] {
            m1.insert(k.into(), v);
        }
        let mut m2: HashMap<String, u64> = HashMap::new();
        for (k, v) in [("delta", 4u64), ("gamma", 3), ("beta", 2), ("alpha", 1)] {
            m2.insert(k.into(), v);
        }
        let as_value = |m: &HashMap<String, u64>| {
            Value::Obj(
                m.iter()
                    .map(|(k, v)| (k.clone(), Value::UInt(*v)))
                    .collect(),
            )
        };
        assert_eq!(
            content_hash_value(&as_value(&m1)),
            content_hash_value(&as_value(&m2))
        );
    }

    #[test]
    fn array_order_still_matters() {
        let a = Value::Arr(vec![Value::UInt(1), Value::UInt(2)]);
        let b = Value::Arr(vec![Value::UInt(2), Value::UInt(1)]);
        assert_ne!(content_hash_value(&a), content_hash_value(&b));
    }

    #[test]
    fn distinct_values_get_distinct_hashes() {
        let base = Value::Obj(vec![("n".into(), Value::UInt(32))]);
        let other = Value::Obj(vec![("n".into(), Value::UInt(33))]);
        assert_ne!(content_hash_value(&base), content_hash_value(&other));
    }

    #[test]
    fn machine_configs_hash_through_serialize() {
        let a = fem2_machine::MachineConfig::fem2_default();
        let mut b = a.clone();
        assert_eq!(content_hash(&a), content_hash(&b));
        b.clusters = 8;
        assert_ne!(content_hash(&a), content_hash(&b));
    }

    #[test]
    fn hex_rendering_is_fixed_width() {
        assert_eq!(hash_hex(0), "0000000000000000");
        assert_eq!(hash_hex(u64::MAX), "ffffffffffffffff");
        assert_eq!(hash_hex(0xabc), "0000000000000abc");
    }
}
