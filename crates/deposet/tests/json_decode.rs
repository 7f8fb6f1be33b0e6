//! The JSON reader's fast paths decode what the text says. Whitespace is
//! skipped in runs, the per-process arrays are read through one reused
//! buffer, and numbers and strings are scanned in one pass. So the
//! pretty, compact and randomly re-whitespaced encodings of one trace
//! must decode to that trace, and an integer text must decode exactly as
//! `str::parse` and the RFC 8259 number grammar together say.

use pctl_deposet::generator::{
    cs_workload, pipelined_workload, random_deposet, CsConfig, RandomConfig,
};
use pctl_deposet::scenarios::replicated_servers;
use pctl_deposet::trace::Trace;
use pctl_deposet::{EventKind, LocalState, Message};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde_json::Value;

/// Labels and message tags: escapes, control characters (which the
/// writer escapes) and multi-byte UTF-8, borrowed and owned alike.
const TEXTS: &[&str] = &[
    "ring",
    "a\"b",
    "back\\slash",
    "tab\there",
    "é",
    "中文",
    "𝄞 clef",
    "\u{1}\u{1f}",
    "/",
];

/// A trace of one generator family, or Figure 4, with the rare shapes
/// mixed in: labels, states with several variables, and odd tags.
fn arb_trace() -> impl Strategy<Value = Trace> {
    (0usize..4, 1usize..6, 1usize..5, 0u64..1_000_000).prop_map(|(family, n, size, seed)| {
        let cs = CsConfig {
            processes: n,
            sections_per_process: size,
            max_cs_len: 3,
            max_gap_len: 3,
        };
        let dep = match family {
            0 => random_deposet(
                &RandomConfig {
                    processes: n,
                    events: 6 * size,
                    ..RandomConfig::default()
                },
                seed,
            ),
            1 => cs_workload(&cs, seed),
            2 => pipelined_workload(&cs, seed),
            _ => replicated_servers().deposet,
        };
        let mut trace = Trace::from_deposet(&dep);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut text = || TEXTS[rng.gen_range(0..TEXTS.len())];
        for (k, state) in trace.states.iter_mut().flatten().enumerate() {
            match k % 5 {
                0 => state.label = Some(text().into()),
                1 => {
                    state.vars.set("zeta", k as i64 - 7);
                    state.vars.set("alpha", i64::MIN);
                }
                2 => {
                    state.vars.set(text(), i64::MAX);
                }
                _ => {}
            }
        }
        for m in &mut trace.messages {
            m.tag = text().into();
        }
        trace
    })
}

type Parts<'a> = (
    u32,
    &'a [Vec<LocalState>],
    &'a [Vec<EventKind>],
    &'a [Message],
);

fn parts(t: &Trace) -> Parts<'_> {
    (t.version, &t.states, &t.events, &t.messages)
}

/// A run of 0–20 JSON whitespace bytes: spaces only, a newline and an
/// indent, or any mix of the four.
fn whitespace(out: &mut String, rng: &mut StdRng) {
    let len = rng.gen_range(0..21usize);
    match rng.gen_range(0..3) {
        0 => out.extend(std::iter::repeat_n(' ', len)),
        1 if len > 0 => {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', len - 1));
        }
        _ => out.extend((0..len).map(|_| [' ', '\t', '\r', '\n'][rng.gen_range(0..4usize)])),
    }
}

/// `compact` with a random whitespace run at every place the grammar
/// allows one: both ends of the document and around each structural
/// character outside strings.
fn rewhitespace(compact: &str, rng: &mut StdRng) -> String {
    let mut out = String::new();
    let (mut in_string, mut escaped) = (false, false);
    whitespace(&mut out, rng);
    for c in compact.chars() {
        if in_string {
            out.push(c);
            match c {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => in_string = false,
                _ => {}
            }
            continue;
        }
        match c {
            '{' | '}' | '[' | ']' | ',' | ':' => {
                whitespace(&mut out, rng);
                out.push(c);
                whitespace(&mut out, rng);
            }
            '"' => {
                in_string = true;
                out.push(c);
            }
            _ => out.push(c),
        }
    }
    whitespace(&mut out, rng);
    out
}

/// Integer texts at the edges of the three number kinds, which also
/// break the grammar in each way an integer can.
const EDGES: &[&str] = &[
    "0",
    "-0",
    "00",
    "-00",
    "-",
    "+1",
    "9223372036854775807",
    "9223372036854775808",
    "-9223372036854775808",
    "-9223372036854775809",
    "18446744073709551615",
    "18446744073709551616",
    "-18446744073709551615",
    "99999999999999999999",
];

/// An edge, a random `u64` or negated `i64`, or a random digit string of
/// 0–23 digits with a sign and leading zeros now and then.
fn arb_integer_text() -> impl Strategy<Value = String> {
    (0usize..4, 0u64..u64::MAX, 0usize..24, 0u64..u64::MAX).prop_map(|(kind, x, len, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        match kind {
            0 => EDGES[x as usize % EDGES.len()].to_string(),
            1 => (x >> rng.gen_range(0..64u32)).to_string(),
            2 => format!("-{}", x >> rng.gen_range(0..64u32)),
            _ => {
                let sign = if rng.gen_range(0..2) == 0 { "-" } else { "" };
                let digits: String = (0..len)
                    .map(|_| char::from(b'0' + rng.gen_range(0..10u8)))
                    .collect();
                format!("{sign}{digits}")
            }
        }
    })
}

/// Whether `text` is an integer by RFC 8259: `-`? (`0` | `[1-9][0-9]*`).
fn grammatical(text: &str) -> bool {
    let digits = text.strip_prefix('-').unwrap_or(text);
    !digits.is_empty()
        && digits.bytes().all(|b| b.is_ascii_digit())
        && (digits == "0" || !digits.starts_with('0'))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn pretty_compact_and_rewhitespaced_texts_decode_alike(
        (trace, ws_seed) in (arb_trace(), 0u64..u64::MAX)
    ) {
        let pretty = serde_json::to_string_pretty(&trace).unwrap();
        let compact = serde_json::to_string(&trace).unwrap();
        let spaced = rewhitespace(&compact, &mut StdRng::seed_from_u64(ws_seed));
        for text in [&pretty, &compact, &spaced] {
            let fail = |e: serde_json::Error| TestCaseError::fail(format!("{e} in {text:?}"));
            let read: Trace = serde_json::from_str(text).map_err(fail)?;
            prop_assert!(parts(&read) == parts(&trace), "from_str of {text:?}");
            let read: Trace = serde_json::from_slice(text.as_bytes()).map_err(fail)?;
            prop_assert!(parts(&read) == parts(&trace), "from_slice of {text:?}");
        }
    }

    #[test]
    fn integer_texts_decode_as_parse_and_the_grammar_say(text in arb_integer_text()) {
        let ok = grammatical(&text);
        let value = match text.strip_prefix('-') {
            Some(_) => text.parse::<i64>().ok().map(Value::Int),
            None => text.parse::<u64>().ok().map(Value::UInt),
        };
        prop_assert_eq!(serde_json::from_str::<Value>(&text).ok(), value.filter(|_| ok), "{}", text);
        let wide = text.parse::<i128>().ok().filter(|_| ok);
        let as_u64 = wide.and_then(|w| u64::try_from(w).ok());
        let as_i64 = wide.and_then(|w| i64::try_from(w).ok());
        prop_assert_eq!(serde_json::from_str::<u64>(&text).ok(), as_u64, "{}", text);
        prop_assert_eq!(serde_json::from_str::<i64>(&text).ok(), as_i64, "{}", text);
        let array = format!("[ {text}\n,{text}]");
        let read = serde_json::from_slice::<Vec<i64>>(array.as_bytes()).ok();
        prop_assert_eq!(read, as_i64.map(|i| vec![i, i]), "{}", array);
    }
}
