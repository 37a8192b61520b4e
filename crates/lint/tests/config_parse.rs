//! `Config::parse` must never panic, whatever the input: a damaged
//! `lint.toml` is a typed `(line, message)` error, never a crash of the
//! lint pass.  The inputs are derived from the repository's own `lint.toml`:
//! every char-boundary truncation of it, and the file with each
//! TOML-significant (or merely odd) character substituted at every
//! position.

use optima_lint::Config;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

/// Characters substituted at every position of the file.
const SUBSTITUTES: [char; 10] = ['"', '[', ']', '=', ',', '\n', '#', '\\', 'x', '0'];

fn repository_lint_toml() -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../lint.toml");
    std::fs::read_to_string(&path)
        .unwrap_or_else(|err| panic!("{} unreadable: {err}", path.display()))
}

/// Parses `input`, failing the test with `case` when `parse` panics.  The
/// result itself is irrelevant: accepting or rejecting are both fine.
fn parse_returns(input: &str, case: impl FnOnce() -> String) {
    if catch_unwind(AssertUnwindSafe(|| Config::parse(input))).is_err() {
        panic!("Config::parse panicked on {}:\n{input}", case());
    }
}

#[test]
fn parse_never_panics_on_truncated_or_substituted_lint_toml() {
    let text = repository_lint_toml();
    assert!(
        Config::parse(&text).is_ok(),
        "the repository's lint.toml must parse"
    );

    for end in text.char_indices().map(|(at, _)| at).chain([text.len()]) {
        parse_returns(&text[..end], || format!("the first {end} bytes"));
    }

    let mut mutated = String::with_capacity(text.len() + 4);
    for (at, original) in text.char_indices() {
        for substitute in SUBSTITUTES {
            if substitute == original {
                continue;
            }
            mutated.clear();
            mutated.push_str(&text[..at]);
            mutated.push(substitute);
            mutated.push_str(&text[at + original.len_utf8()..]);
            parse_returns(&mutated, || format!("{substitute:?} at byte {at}"));
        }
    }
}
