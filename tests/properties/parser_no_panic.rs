//! The parser must never panic: arbitrary byte soup either parses or
//! returns a positioned `ParseError`.

use crate::common::{cases, Gen};
use polyview_parser::{parse_expr, parse_program};
use std::panic::catch_unwind;

/// Tokens of the surface language, for soup that gets past the lexer.
const TOKENS: &[&str] = &[
    "val", "fun", "let", "in", "end", "class", "include", "as", "where", "fn", "=>", "=", ":=",
    "(", ")", "[", "]", "{", "}", ",", ";", ".", "x", "42", "\"s\"", "query", "IDView", "fuse",
    "insert", "+", "-", "*", "if", "then", "else", "and",
];

/// Up to 63 random chars: ASCII letters, digits and punctuation, the
/// lexer's delimiters (quotes, comment brackets), keywords and multi-byte
/// chars.
fn soup(g: &mut Gen) -> String {
    const ASCII: &[u8] = b"aZ_09 \t\n.,;:=<>+-*/()[]{}\"'#@!~|&^%$?\\";
    const WIDE: &[char] = &[
        'é', 'λ', '→', '∪', '中', '🦀', '\u{0}', '\u{7f}', '\u{feff}',
    ];
    let mut s = String::new();
    for _ in 0..g.pick(64) {
        match g.pick(4) {
            0 | 1 => s.push(ASCII[g.pick(ASCII.len())] as char),
            2 => s.push_str(TOKENS[g.pick(TOKENS.len())]),
            _ => s.push(WIDE[g.pick(WIDE.len())]),
        }
    }
    s
}

/// Runs `parse` on `src`, naming the input if it panics.
fn total(src: &str, parse: impl Fn(&str) + std::panic::RefUnwindSafe) {
    if catch_unwind(|| parse(src)).is_err() {
        panic!("parser panicked on {src:?}");
    }
}

#[test]
fn parse_expr_total_on_arbitrary_strings() {
    cases(512, |g| {
        total(&soup(g), |src| drop(parse_expr(src)));
    });
}

#[test]
fn parse_program_total_on_arbitrary_strings() {
    cases(512, |g| {
        total(&soup(g), |src| drop(parse_program(src)));
    });
}

#[test]
fn parse_total_on_token_soup() {
    cases(512, |g| {
        let parts: Vec<&str> = (0..g.pick(30))
            .map(|_| TOKENS[g.pick(TOKENS.len())])
            .collect();
        total(&parts.join(" "), |src| drop(parse_program(src)));
    });
}

#[test]
#[rustfmt::skip]
fn adversarial_fragments_error_cleanly() {
    for src in [
        "", ";", "(", ")", "[", "]", "{", "}", "let", "let x", "let x =",
        "let x = 1 in", "fn", "fn =>", "class", "class end", "include",
        "val x = ", "fun f = 1", "x.", "x.1.2.", "extract(", "update(x,)",
        "1 +", "- -", "((((", "\"unterminated", "(* unterminated",
        ":=", "=>", "val class = 1", "let class A = 1 in A end",
        "relation [x = 1] from where true",
        "query(a, b, c)", "hom(a)", "IDView()",
    ] {
        total(src, |src| drop(parse_program(src))); // must simply not panic
    }
}

#[test]
fn deeply_nested_input_is_handled() {
    // Reasonable nesting parses; adversarial nesting is *rejected* with a
    // clean error instead of recursing unboundedly. (The depth guard is
    // sized for ordinary stacks; debug-mode test threads are small, so the
    // deep case runs on a dedicated thread the size of a typical main
    // stack.)
    std::thread::Builder::new()
        .stack_size(8 * 1024 * 1024)
        .spawn(|| {
            let src = format!("{}1{}", "(".repeat(64), ")".repeat(64));
            assert!(parse_expr(&src).is_ok());
            let deep = format!("{}1{}", "(".repeat(100_000), ")".repeat(100_000));
            let err = parse_expr(&deep).expect_err("guarded");
            assert!(err.message.contains("nesting"), "got: {}", err.message);
        })
        .expect("spawn")
        .join()
        .expect("no panic");
}
