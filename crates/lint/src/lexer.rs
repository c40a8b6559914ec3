//! A minimal Rust token scanner: string-, char- and comment-aware.
//!
//! The lint rules match on *token* sequences, never on raw text, so a
//! `HashMap` inside a doc comment, a string literal or a `#[cfg(test)]`
//! module can never trip a rule. The scanner understands exactly the
//! surface it needs to get that right:
//!
//! * line comments (`//`, `///`, `//!`) and **nested** block comments
//!   (`/* /* */ */`), preserved as [`Comment`]s — the `// SAFETY:` audit
//!   of D5 reads them;
//! * string literals with escapes, byte strings (`b"…"`), and raw
//!   (byte) strings with any hash depth (`r"…"`, `r#"…"#`, `br##"…"##`);
//! * char literals (including escapes) versus lifetimes (`'a'` vs `'a`);
//! * identifiers/keywords, numbers, and punctuation (with `::` fused into
//!   one token so path rules can match `std :: thread` directly).
//!
//! It is deliberately *not* a parser: no expression grammar, no macro
//! expansion. That keeps it a few hundred lines, auditable, and — like
//! the mini JSON reader in `fba-bench` — free of registry dependencies.

/// What a [`Token`] is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (`HashMap`, `unsafe`, `std`).
    Ident,
    /// Punctuation; `::` is fused, everything else is one char.
    Punct,
    /// A string/char/number literal (content not interpreted).
    Literal,
    /// A lifetime such as `'a` or `'static`.
    Lifetime,
}

/// One lexed token with its 1-based source line.
#[derive(Clone, Debug)]
pub struct Token {
    /// 1-based line the token starts on.
    pub line: u32,
    /// Token class.
    pub kind: TokenKind,
    /// Token text (for [`TokenKind::Literal`], the raw source slice).
    pub text: String,
}

/// One comment (line or block) with its source extent.
#[derive(Clone, Debug)]
pub struct Comment {
    /// 1-based line the comment starts on.
    pub line: u32,
    /// 1-based line the comment ends on (== `line` for line comments).
    pub end_line: u32,
    /// Comment text without the `//` / `/*` markers, trimmed.
    pub text: String,
}

/// The result of scanning one source file.
#[derive(Clone, Debug, Default)]
pub struct Lexed {
    /// Code tokens in source order.
    pub tokens: Vec<Token>,
    /// Comments in source order.
    pub comments: Vec<Comment>,
}

/// Scans `source` into tokens and comments. Never fails: unterminated
/// constructs simply end at end-of-file (the compiler is the authority on
/// well-formedness; the linter only needs to never misclassify).
#[must_use]
pub fn lex(source: &str) -> Lexed {
    Lexer {
        bytes: source.as_bytes(),
        pos: 0,
        line: 1,
        out: Lexed::default(),
    }
    .run()
}

struct Lexer<'a> {
    bytes: &'a [u8],
    pos: usize,
    line: u32,
    out: Lexed,
}

impl Lexer<'_> {
    fn run(mut self) -> Lexed {
        while self.pos < self.bytes.len() {
            let b = self.bytes[self.pos];
            match b {
                b'\n' => {
                    self.line += 1;
                    self.pos += 1;
                }
                _ if b.is_ascii_whitespace() => self.pos += 1,
                b'/' if self.peek(1) == Some(b'/') => self.line_comment(),
                b'/' if self.peek(1) == Some(b'*') => self.block_comment(),
                b'r' | b'b' if self.raw_or_byte_string() => {}
                b'"' => self.string(false),
                b'\'' => self.quote(),
                _ if b == b'_' || b.is_ascii_alphabetic() => self.ident(),
                _ if b.is_ascii_digit() => self.number(),
                _ => self.punct(),
            }
        }
        self.out
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.bytes.get(self.pos + ahead).copied()
    }

    fn push_token(&mut self, line: u32, kind: TokenKind, text: &str) {
        self.out.tokens.push(Token {
            line,
            kind,
            text: text.to_owned(),
        });
    }

    fn line_comment(&mut self) {
        let start = self.pos;
        while self.pos < self.bytes.len() && self.bytes[self.pos] != b'\n' {
            self.pos += 1;
        }
        let raw = String::from_utf8_lossy(&self.bytes[start..self.pos]);
        self.out.comments.push(Comment {
            line: self.line,
            end_line: self.line,
            text: raw
                .trim_start_matches('/')
                .trim_start_matches('!')
                .trim()
                .to_owned(),
        });
    }

    fn block_comment(&mut self) {
        let start_line = self.line;
        let start = self.pos;
        self.pos += 2;
        let mut depth = 1u32;
        while self.pos < self.bytes.len() && depth > 0 {
            match (self.bytes[self.pos], self.peek(1)) {
                (b'/', Some(b'*')) => {
                    depth += 1;
                    self.pos += 2;
                }
                (b'*', Some(b'/')) => {
                    depth -= 1;
                    self.pos += 2;
                }
                (b'\n', _) => {
                    self.line += 1;
                    self.pos += 1;
                }
                _ => self.pos += 1,
            }
        }
        let raw = String::from_utf8_lossy(&self.bytes[start..self.pos]);
        let text = raw
            .trim_start_matches('/')
            .trim_start_matches('*')
            .trim_end_matches('/')
            .trim_end_matches('*')
            .trim()
            .to_owned();
        self.out.comments.push(Comment {
            line: start_line,
            end_line: self.line,
            text,
        });
    }

    /// Handles `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#` when the cursor sits on
    /// the `r`/`b` prefix. Returns `false` (consuming nothing) if what
    /// follows is not a string prefix — the caller then lexes an ident.
    fn raw_or_byte_string(&mut self) -> bool {
        let mut i = self.pos;
        let mut raw = false;
        if self.bytes[i] == b'b' {
            i += 1;
        }
        if i < self.bytes.len() && self.bytes[i] == b'r' {
            raw = true;
            i += 1;
        }
        let hash_start = i;
        while raw && i < self.bytes.len() && self.bytes[i] == b'#' {
            i += 1;
        }
        let hashes = i - hash_start;
        if i >= self.bytes.len() || self.bytes[i] != b'"' || (!raw && hashes > 0) {
            return false; // plain ident starting with r/b
        }
        if !raw {
            // b"…": normal escape rules.
            self.pos = i;
            self.string(true);
            return true;
        }
        // Raw string: no escapes; ends at `"` followed by `hashes` hashes.
        let line = self.line;
        let start = self.pos;
        self.pos = i + 1;
        while self.pos < self.bytes.len() {
            if self.bytes[self.pos] == b'\n' {
                self.line += 1;
                self.pos += 1;
                continue;
            }
            if self.bytes[self.pos] == b'"'
                && self.bytes[self.pos + 1..]
                    .iter()
                    .take(hashes)
                    .filter(|&&b| b == b'#')
                    .count()
                    == hashes
            {
                self.pos += 1 + hashes;
                break;
            }
            self.pos += 1;
        }
        let text = String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned();
        self.push_token(line, TokenKind::Literal, &text);
        true
    }

    /// Scans a `"…"` string (cursor on the opening quote; `byte` marks a
    /// `b"…"` prefix already consumed).
    fn string(&mut self, byte: bool) {
        let line = self.line;
        let start = if byte { self.pos - 1 } else { self.pos };
        self.pos += 1;
        while self.pos < self.bytes.len() {
            match self.bytes[self.pos] {
                b'\\' => {
                    // Escapes, including the line-continuation `\<newline>`.
                    if self.peek(1) == Some(b'\n') {
                        self.line += 1;
                    }
                    self.pos += 2;
                }
                b'\n' => {
                    self.line += 1;
                    self.pos += 1;
                }
                b'"' => {
                    self.pos += 1;
                    break;
                }
                _ => self.pos += 1,
            }
        }
        let text = String::from_utf8_lossy(&self.bytes[start..self.pos.min(self.bytes.len())]);
        self.push_token(line, TokenKind::Literal, &text);
    }

    /// Disambiguates char literals from lifetimes at a `'`.
    fn quote(&mut self) {
        let next = self.peek(1);
        let after = self.peek(2);
        let is_lifetime = match (next, after) {
            // 'x' / '_' followed by a closing quote: a char literal.
            (Some(n), Some(b'\'')) if n != b'\\' => false,
            // 'ident… with no closing quote right after: a lifetime.
            (Some(n), _) if n == b'_' || n.is_ascii_alphabetic() => true,
            _ => false,
        };
        if is_lifetime {
            let start = self.pos;
            self.pos += 1;
            while self
                .peek(0)
                .is_some_and(|b| b == b'_' || b.is_ascii_alphanumeric())
            {
                self.pos += 1;
            }
            let text = String::from_utf8_lossy(&self.bytes[start..self.pos]);
            self.push_token(self.line, TokenKind::Lifetime, &text);
            return;
        }
        // Char literal: consume until the closing quote, honouring escapes.
        let start = self.pos;
        self.pos += 1;
        while self.pos < self.bytes.len() {
            match self.bytes[self.pos] {
                b'\\' => self.pos += 2,
                b'\'' => {
                    self.pos += 1;
                    break;
                }
                _ => self.pos += 1,
            }
        }
        let text = String::from_utf8_lossy(&self.bytes[start..self.pos.min(self.bytes.len())]);
        self.push_token(self.line, TokenKind::Literal, &text);
    }

    fn ident(&mut self) {
        let start = self.pos;
        while self
            .peek(0)
            .is_some_and(|b| b == b'_' || b.is_ascii_alphanumeric())
        {
            self.pos += 1;
        }
        let text = String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned();
        self.push_token(self.line, TokenKind::Ident, &text);
    }

    fn number(&mut self) {
        let start = self.pos;
        // Good enough for matching purposes: digits plus the usual number
        // body characters (hex, underscores, exponents, suffixes, dots).
        while self
            .peek(0)
            .is_some_and(|b| b == b'_' || b == b'.' || b.is_ascii_alphanumeric())
        {
            // Don't swallow `..` range punctuation or method calls on ints.
            if self.bytes[self.pos] == b'.'
                && self
                    .peek(1)
                    .is_some_and(|b| b == b'.' || b.is_ascii_alphabetic())
            {
                break;
            }
            self.pos += 1;
        }
        let text = String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned();
        self.push_token(self.line, TokenKind::Literal, &text);
    }

    fn punct(&mut self) {
        if self.bytes[self.pos] == b':' && self.peek(1) == Some(b':') {
            self.push_token(self.line, TokenKind::Punct, "::");
            self.pos += 2;
            return;
        }
        let text = (self.bytes[self.pos] as char).to_string();
        self.push_token(self.line, TokenKind::Punct, &text);
        self.pos += 1;
    }
}

/// Computes, per token, whether it sits inside a `#[cfg(test)]` item
/// (`true` = masked). The static contract binds *shipped* code; in-file
/// test modules are the test suite's own territory and are skipped, the
/// same boundary `cargo build` draws.
///
/// Recognized shape: a `#[cfg(test)]` attribute, optionally followed by
/// further attributes, then one item — masked through its closing `}` (or
/// terminating `;`).
#[must_use]
pub fn cfg_test_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0;
    while i < tokens.len() {
        if let Some(after_attr) = match_cfg_test_attr(tokens, i) {
            let mut j = after_attr;
            // Skip any further attributes on the same item.
            while j < tokens.len() && tokens[j].text == "#" {
                j = skip_balanced(tokens, j + 1, "[", "]");
            }
            // Mask through the item body: to the matching `}` of the first
            // `{` at depth 0, or to a top-level `;` (e.g. `#[cfg(test)] use …;`).
            let mut k = j;
            while k < tokens.len() {
                match tokens[k].text.as_str() {
                    "{" => {
                        k = skip_balanced(tokens, k, "{", "}");
                        break;
                    }
                    ";" => {
                        k += 1;
                        break;
                    }
                    _ => k += 1,
                }
            }
            for m in mask.iter_mut().take(k).skip(i) {
                *m = true;
            }
            i = k;
        } else {
            i += 1;
        }
    }
    mask
}

/// If tokens at `i` spell `#[cfg(test)]`, returns the index just past `]`.
fn match_cfg_test_attr(tokens: &[Token], i: usize) -> Option<usize> {
    let texts = ["#", "[", "cfg", "(", "test", ")", "]"];
    for (off, want) in texts.iter().enumerate() {
        if tokens.get(i + off)?.text != *want {
            return None;
        }
    }
    Some(i + texts.len())
}

/// From `open` at or after `start`, returns the index just past its
/// matching `close` (or `tokens.len()` if unbalanced).
fn skip_balanced(tokens: &[Token], start: usize, open: &str, close: &str) -> usize {
    let mut depth = 0usize;
    let mut i = start;
    while i < tokens.len() {
        if tokens[i].text == open {
            depth += 1;
        } else if tokens[i].text == close {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    tokens.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn comments_never_yield_tokens() {
        let src = "// HashMap here\n/* Mutex /* nested Instant */ still */ let x = 1;";
        let l = lex(src);
        assert!(idents(src)
            .iter()
            .all(|t| t != "HashMap" && t != "Mutex" && t != "Instant"));
        assert_eq!(l.comments.len(), 2);
        assert_eq!(l.comments[0].text, "HashMap here");
        assert!(l.comments[1].text.contains("nested Instant"));
    }

    #[test]
    fn strings_never_yield_tokens() {
        let src =
            r####"let a = "HashMap"; let b = r#"Mutex "quoted" Instant"#; let c = b"unsafe";"####;
        assert!(idents(src)
            .iter()
            .all(|t| t != "HashMap" && t != "Mutex" && t != "unsafe"));
    }

    #[test]
    fn raw_string_with_backslash_does_not_derail() {
        let src = r#"let a = r"back\"; let unsafe_thing = 1;"#;
        // The raw string ends at the first quote; `unsafe_thing` must be
        // lexed as an ident (and as `unsafe_thing`, not `unsafe`).
        assert!(idents(src).contains(&"unsafe_thing".to_owned()));
        assert!(!idents(src).contains(&"unsafe".to_owned()));
    }

    #[test]
    fn char_literals_and_lifetimes_are_distinguished() {
        let src = "fn f<'a>(x: &'a str) -> char { 'x' } let q = '\\''; let s: &'static str = \"\";";
        let l = lex(src);
        let lifetimes: Vec<_> = l
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .map(|t| t.text.clone())
            .collect();
        assert_eq!(lifetimes, vec!["'a", "'a", "'static"]);
        assert!(l
            .tokens
            .iter()
            .any(|t| t.kind == TokenKind::Literal && t.text == "'x'"));
    }

    #[test]
    fn path_separator_is_fused() {
        let l = lex("std::collections::HashMap");
        let texts: Vec<_> = l.tokens.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(texts, vec!["std", "::", "collections", "::", "HashMap"]);
    }

    #[test]
    fn line_numbers_are_one_based_and_track_newlines() {
        let l = lex("a\nb\n\nc");
        let lines: Vec<_> = l.tokens.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 4]);
    }

    #[test]
    fn multiline_block_comment_spans_are_recorded() {
        let l = lex("/* one\ntwo\nthree */ x");
        assert_eq!(l.comments[0].line, 1);
        assert_eq!(l.comments[0].end_line, 3);
        assert_eq!(l.tokens[0].line, 3);
    }

    #[test]
    fn cfg_test_mod_is_masked() {
        let src = "use a::B;\n#[cfg(test)]\nmod tests {\n  use std::collections::HashMap;\n}\nfn live() {}";
        let l = lex(src);
        let mask = cfg_test_mask(&l.tokens);
        for (t, m) in l.tokens.iter().zip(&mask) {
            if t.text == "HashMap" {
                assert!(m, "test-mod token must be masked");
            }
            if t.text == "live" {
                assert!(!m, "code after the test mod must be live");
            }
        }
    }

    #[test]
    fn cfg_test_with_extra_attribute_and_semicolon_item() {
        let src = "#[cfg(test)]\n#[allow(dead_code)]\nuse std::sync::Mutex;\nfn live() {}";
        let l = lex(src);
        let mask = cfg_test_mask(&l.tokens);
        for (t, m) in l.tokens.iter().zip(&mask) {
            if t.text == "Mutex" {
                assert!(m);
            }
            if t.text == "live" {
                assert!(!m);
            }
        }
    }

    #[test]
    fn cfg_not_test_is_not_masked() {
        let src = "#[cfg(feature = \"x\")]\nmod m { use std::sync::Mutex; }";
        let l = lex(src);
        let mask = cfg_test_mask(&l.tokens);
        assert!(mask.iter().all(|&m| !m));
    }
}
