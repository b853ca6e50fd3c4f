//! Property suite for the workspace's one JSON module: every value
//! survives both renderings, the record layout is a fixed point, and no
//! input makes the parser panic. Values are decoded from drawn `u64`
//! words so the vendored proptest (ranges and vectors only) can reach
//! every variant.

use egm_server::json::Json;
use proptest::prelude::*;

/// Characters a decoded string draws from: JSON escapes, a control
/// character, and one-, two-, three- and four-byte UTF-8.
const ALPHABET: [char; 16] = [
    'a', 'Z', ' ', '"', '\\', '/', '\n', '\t', '\r', '\u{1}', '\u{7f}', 'é', '×', '€', '\u{fffd}',
    '𝄞',
];

/// Up to seven characters picked by the bits of `word`.
fn decode_str(word: u64) -> String {
    (0..word % 8)
        .map(|i| ALPHABET[((word >> (3 + 4 * i)) & 15) as usize])
        .collect()
}

/// Decodes one value from `words`, consuming as many as it needs; an
/// exhausted stream yields `null`. Below depth 4 only scalars are drawn,
/// so every value is finite.
fn decode(words: &mut std::slice::Iter<'_, u64>, depth: usize) -> Json {
    let Some(&word) = words.next() else {
        return Json::Null;
    };
    let (kind, payload) = (word % 8, word >> 3);
    let kind = if depth >= 4 { kind % 5 } else { kind };
    match kind {
        0 => Json::Null,
        1 => Json::Bool(payload & 1 == 1),
        // Integers, negatives included.
        2 => Json::Num((payload % 2_000_001) as f64 - 1_000_000.0),
        // Decimal fractions at up to nine places, and finite doubles of
        // any exponent (subnormals included).
        3 => {
            let x = if payload & 1 == 0 {
                ((payload >> 1) % 20_000_001) as f64 / 10f64.powi((payload % 10) as i32) - 1e6
            } else {
                f64::from_bits(payload.rotate_left(7))
            };
            Json::Num(if x.is_finite() { x } else { 0.5 })
        }
        4 => Json::Str(decode_str(payload)),
        5 => Json::Arr((0..payload % 5).map(|_| decode(words, depth + 1)).collect()),
        _ => Json::Obj(
            (0..payload % 5)
                .map(|i| (decode_str(payload >> (8 * i)), decode(words, depth + 1)))
                .collect(),
        ),
    }
}

/// Fragments of JSON, so lossy inputs get past the first token and into
/// strings, escapes, numbers and nesting before they go wrong.
const FRAGMENTS: [&[u8]; 16] = [
    b"[", b"{", b"\"", b"]", b"}", b",", b":", b"\\", b"\\u00", b"\\ud834", b"0", b"-1.5e3",
    b"true", b"null", b" ", b"\"k\":",
];

proptest! {
    #[test]
    fn both_renderings_round_trip_and_pretty_is_a_fixed_point(
        words in prop::collection::vec(0u64..u64::MAX, 1..40),
    ) {
        let value = decode(&mut words.iter(), 0);
        prop_assert_eq!(Json::parse(&value.render()), Ok(value.clone()));
        let pretty = value.render_pretty();
        prop_assert_eq!(Json::parse(&pretty), Ok(value));
        let again = Json::parse(&pretty).map(|v| v.render_pretty());
        prop_assert_eq!(again, Ok(pretty));
    }

    #[test]
    fn parse_returns_on_arbitrary_lossy_utf8(
        draws in prop::collection::vec(0u64..u64::MAX, 0..300),
    ) {
        // A quarter of the draws are raw bytes; the lossy conversion
        // turns invalid sequences into U+FFFD.
        let bytes: Vec<u8> = draws
            .iter()
            .flat_map(|&d| match d % 4 {
                0 => vec![(d >> 8) as u8],
                _ => FRAGMENTS[(d >> 8) as usize % FRAGMENTS.len()].to_vec(),
            })
            .collect();
        let text = String::from_utf8_lossy(&bytes);
        // Returning at all is the property; what parses must re-render.
        if let Ok(value) = Json::parse(&text) {
            prop_assert_eq!(Json::parse(&value.render()), Ok(value));
        }
    }
}
