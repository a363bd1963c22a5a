//! A hand-rolled Rust lexer.
//!
//! Produces a flat token stream with line numbers — enough structure for
//! token-pattern lint rules without building an AST. The tricky parts of
//! Rust's lexical grammar that would otherwise cause false positives are
//! handled faithfully:
//!
//! * line (`//`) and nested block (`/* /* */ */`) comments, kept as
//!   tokens so comment-scanning rules (TODO tracking) can see them;
//! * string literals with escapes, raw strings `r#"…"#` with arbitrary
//!   hash fences, byte and byte-raw strings;
//! * char literals vs. lifetimes (`'a'` vs. `'a`), including escaped
//!   chars like `'\''` and `'\u{1F600}'`;
//! * numeric literals with underscores, base prefixes, exponents and
//!   type suffixes, distinguishing floats from ints (and from ranges:
//!   `0..10` is two int-adjacent dots, not a float).

/// One lexical token with the 1-indexed line it starts on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// What the token is.
    pub kind: TokenKind,
    /// 1-indexed line the token starts on.
    pub line: u32,
}

/// Token classification. Identifiers and keywords are not distinguished —
/// rules match on the text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword, e.g. `fn`, `unwrap`, `f64`.
    Ident(String),
    /// Lifetime, without the leading quote, e.g. `a` for `'a`.
    Lifetime(String),
    /// Integer literal (any base), original text preserved.
    Int(String),
    /// Float literal, original text preserved.
    Float(String),
    /// String / raw string / byte-string literal (contents dropped).
    Str,
    /// Char or byte literal (contents dropped).
    Char,
    /// Punctuation — single char or one of the recognised two-char
    /// operators (e.g. `==`, `->`, `::`).
    Punct(&'static str),
    /// A comment, with its full text (including delimiters).
    Comment(String),
}

impl TokenKind {
    /// The identifier text, if this token is an identifier.
    pub fn ident(&self) -> Option<&str> {
        match self {
            TokenKind::Ident(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// Whether this token is the given punctuation.
    pub fn is_punct(&self, p: &str) -> bool {
        matches!(self, TokenKind::Punct(q) if *q == p)
    }

    /// Whether this token is the given identifier/keyword.
    pub fn is_ident(&self, name: &str) -> bool {
        matches!(self, TokenKind::Ident(s) if s == name)
    }
}

/// Two-character operators recognised as single punctuation tokens.
/// Longest-match first is unnecessary because all entries are length 2.
const TWO_CHAR_OPS: &[&str] = &[
    "==", "!=", "<=", ">=", "->", "=>", "::", "..", "&&", "||", "<<", ">>", "+=", "-=", "*=", "/=",
    "%=", "^=", "&=", "|=",
];

/// Lexes `source` into tokens. Comments are included as [`TokenKind::Comment`].
///
/// The lexer is total: malformed input (e.g. an unterminated string at
/// EOF) never panics — it consumes to the end of input and stops.
pub fn lex(source: &str) -> Vec<Token> {
    Lexer {
        src: source.as_bytes(),
        pos: 0,
        line: 1,
        tokens: Vec::new(),
    }
    .run()
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
    tokens: Vec<Token>,
}

impl Lexer<'_> {
    fn run(mut self) -> Vec<Token> {
        while self.pos < self.src.len() {
            let start_line = self.line;
            let c = self.src[self.pos];
            match c {
                b'\n' => {
                    self.line += 1;
                    self.pos += 1;
                }
                _ if c.is_ascii_whitespace() => self.pos += 1,
                b'/' if self.peek(1) == Some(b'/') => {
                    let text = self.take_line_comment();
                    self.push(TokenKind::Comment(text), start_line);
                }
                b'/' if self.peek(1) == Some(b'*') => {
                    let text = self.take_block_comment();
                    self.push(TokenKind::Comment(text), start_line);
                }
                b'r' | b'b' if self.raw_string_ahead() => {
                    self.take_raw_string();
                    self.push(TokenKind::Str, start_line);
                }
                b'b' if self.peek(1) == Some(b'"') => {
                    self.pos += 1;
                    self.take_quoted_string();
                    self.push(TokenKind::Str, start_line);
                }
                b'b' if self.peek(1) == Some(b'\'') => {
                    self.pos += 1;
                    self.take_char_literal();
                    self.push(TokenKind::Char, start_line);
                }
                b'"' => {
                    self.take_quoted_string();
                    self.push(TokenKind::Str, start_line);
                }
                b'\'' => {
                    if self.lifetime_ahead() {
                        let name = self.take_lifetime();
                        self.push(TokenKind::Lifetime(name), start_line);
                    } else {
                        self.take_char_literal();
                        self.push(TokenKind::Char, start_line);
                    }
                }
                _ if c.is_ascii_digit() => {
                    let kind = self.take_number();
                    self.push(kind, start_line);
                }
                _ if c.is_ascii_alphabetic() || c == b'_' => {
                    let name = self.take_ident();
                    self.push(TokenKind::Ident(name), start_line);
                }
                _ => {
                    let op = self.take_punct();
                    self.push(TokenKind::Punct(op), start_line);
                }
            }
        }
        self.tokens
    }

    fn push(&mut self, kind: TokenKind, line: u32) {
        self.tokens.push(Token { kind, line });
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.src.get(self.pos + ahead).copied()
    }

    fn bump_tracking_newlines(&mut self) -> u8 {
        let c = self.src[self.pos];
        if c == b'\n' {
            self.line += 1;
        }
        self.pos += 1;
        c
    }

    fn take_line_comment(&mut self) -> String {
        let start = self.pos;
        while self.pos < self.src.len() && self.src[self.pos] != b'\n' {
            self.pos += 1;
        }
        String::from_utf8_lossy(&self.src[start..self.pos]).into_owned()
    }

    fn take_block_comment(&mut self) -> String {
        let start = self.pos;
        self.pos += 2; // consume "/*"
        let mut depth = 1usize;
        while self.pos < self.src.len() && depth > 0 {
            if self.src[self.pos] == b'/' && self.peek(1) == Some(b'*') {
                depth += 1;
                self.pos += 2;
            } else if self.src[self.pos] == b'*' && self.peek(1) == Some(b'/') {
                depth -= 1;
                self.pos += 2;
            } else {
                self.bump_tracking_newlines();
            }
        }
        String::from_utf8_lossy(&self.src[start..self.pos]).into_owned()
    }

    /// Is a raw-string opener (`r"`, `r#`, `br"`, `br#`) at the cursor?
    fn raw_string_ahead(&self) -> bool {
        let mut i = self.pos;
        if self.src[i] == b'b' {
            i += 1;
        }
        if self.src.get(i) != Some(&b'r') {
            return false;
        }
        i += 1;
        while self.src.get(i) == Some(&b'#') {
            i += 1;
        }
        self.src.get(i) == Some(&b'"')
    }

    fn take_raw_string(&mut self) {
        if self.src[self.pos] == b'b' {
            self.pos += 1;
        }
        self.pos += 1; // 'r'
        let mut hashes = 0usize;
        while self.peek(0) == Some(b'#') {
            hashes += 1;
            self.pos += 1;
        }
        self.pos += 1; // opening quote
        while self.pos < self.src.len() {
            if self.src[self.pos] == b'"' {
                // Need `hashes` '#' after the quote to close.
                let mut ok = true;
                for k in 0..hashes {
                    if self.peek(1 + k) != Some(b'#') {
                        ok = false;
                        break;
                    }
                }
                if ok {
                    self.pos += 1 + hashes;
                    return;
                }
            }
            self.bump_tracking_newlines();
        }
    }

    fn take_quoted_string(&mut self) {
        self.pos += 1; // opening quote
        while self.pos < self.src.len() {
            match self.src[self.pos] {
                b'\\' => {
                    self.pos += 1; // skip the backslash …
                    if self.pos < self.src.len() {
                        self.bump_tracking_newlines(); // … and the escaped char
                    }
                }
                b'"' => {
                    self.pos += 1;
                    return;
                }
                _ => {
                    self.bump_tracking_newlines();
                }
            }
        }
    }

    /// After a `'`: lifetime if followed by ident-start NOT closed by a
    /// quote (i.e. `'a` but not `'a'`).
    fn lifetime_ahead(&self) -> bool {
        match self.peek(1) {
            Some(c) if c.is_ascii_alphabetic() || c == b'_' => {
                // Scan the ident; a closing quote right after means char.
                let mut i = self.pos + 2;
                while self
                    .src
                    .get(i)
                    .is_some_and(|c| c.is_ascii_alphanumeric() || *c == b'_')
                {
                    i += 1;
                }
                self.src.get(i) != Some(&b'\'')
            }
            _ => false,
        }
    }

    fn take_lifetime(&mut self) -> String {
        self.pos += 1; // quote
        let start = self.pos;
        while self
            .peek(0)
            .is_some_and(|c| c.is_ascii_alphanumeric() || c == b'_')
        {
            self.pos += 1;
        }
        String::from_utf8_lossy(&self.src[start..self.pos]).into_owned()
    }

    fn take_char_literal(&mut self) {
        self.pos += 1; // opening quote
        while self.pos < self.src.len() {
            match self.src[self.pos] {
                b'\\' => {
                    self.pos += 1;
                    if self.pos < self.src.len() {
                        self.pos += 1;
                    }
                }
                b'\'' => {
                    self.pos += 1;
                    return;
                }
                _ => {
                    self.bump_tracking_newlines();
                }
            }
        }
    }

    fn take_number(&mut self) -> TokenKind {
        let start = self.pos;
        let mut is_float = false;
        // Base prefixes never contain '.' or exponents.
        if self.src[self.pos] == b'0'
            && matches!(self.peek(1), Some(b'x' | b'o' | b'b' | b'X' | b'O' | b'B'))
        {
            self.pos += 2;
            while self
                .peek(0)
                .is_some_and(|c| c.is_ascii_alphanumeric() || c == b'_')
            {
                self.pos += 1;
            }
            return TokenKind::Int(self.text_from(start));
        }
        while self
            .peek(0)
            .is_some_and(|c| c.is_ascii_digit() || c == b'_')
        {
            self.pos += 1;
        }
        // Fractional part: a '.' belongs to the number unless it begins a
        // range (`0..`) or a method call / field access (`1.max(2)`).
        if self.peek(0) == Some(b'.') {
            let part_of_number = match self.peek(1) {
                Some(b'.') => false,
                Some(c) if c.is_ascii_alphabetic() || c == b'_' => false,
                _ => true,
            };
            if part_of_number {
                is_float = true;
                self.pos += 1;
                while self
                    .peek(0)
                    .is_some_and(|c| c.is_ascii_digit() || c == b'_')
                {
                    self.pos += 1;
                }
            }
        }
        // Exponent.
        if matches!(self.peek(0), Some(b'e' | b'E')) {
            let mut i = 1;
            if matches!(self.peek(1), Some(b'+' | b'-')) {
                i = 2;
            }
            if self.peek(i).is_some_and(|c| c.is_ascii_digit()) {
                is_float = true;
                self.pos += i;
                while self
                    .peek(0)
                    .is_some_and(|c| c.is_ascii_digit() || c == b'_')
                {
                    self.pos += 1;
                }
            }
        }
        // Type suffix (f64, u32, usize, …).
        let suffix_start = self.pos;
        while self
            .peek(0)
            .is_some_and(|c| c.is_ascii_alphanumeric() || c == b'_')
        {
            self.pos += 1;
        }
        let suffix = self.text_from(suffix_start);
        if suffix.starts_with('f') {
            is_float = true;
        }
        if is_float {
            TokenKind::Float(self.text_from(start))
        } else {
            TokenKind::Int(self.text_from(start))
        }
    }

    fn take_ident(&mut self) -> String {
        let start = self.pos;
        while self
            .peek(0)
            .is_some_and(|c| c.is_ascii_alphanumeric() || c == b'_')
        {
            self.pos += 1;
        }
        self.text_from(start)
    }

    fn take_punct(&mut self) -> &'static str {
        if self.pos + 1 < self.src.len() {
            let pair = [self.src[self.pos], self.src[self.pos + 1]];
            for op in TWO_CHAR_OPS {
                if op.as_bytes() == pair {
                    self.pos += 2;
                    return op;
                }
            }
        }
        let c = self.src[self.pos];
        self.pos += 1;
        single_char_punct(c)
    }

    fn text_from(&self, start: usize) -> String {
        String::from_utf8_lossy(&self.src[start..self.pos]).into_owned()
    }
}

/// Interns single-char punctuation as static strings so `Punct` can hold
/// `&'static str` for both one- and two-char operators.
fn single_char_punct(c: u8) -> &'static str {
    match c {
        b'(' => "(",
        b')' => ")",
        b'[' => "[",
        b']' => "]",
        b'{' => "{",
        b'}' => "}",
        b'<' => "<",
        b'>' => ">",
        b'.' => ".",
        b',' => ",",
        b';' => ";",
        b':' => ":",
        b'#' => "#",
        b'!' => "!",
        b'?' => "?",
        b'=' => "=",
        b'+' => "+",
        b'-' => "-",
        b'*' => "*",
        b'/' => "/",
        b'%' => "%",
        b'&' => "&",
        b'|' => "|",
        b'^' => "^",
        b'~' => "~",
        b'@' => "@",
        b'$' => "$",
        _ => "<?>",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(src).into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn idents_and_puncts() {
        let k = kinds("fn f(x: f64) -> f64 { x == 0.0 }");
        assert!(k.contains(&TokenKind::Ident("fn".into())));
        assert!(k.contains(&TokenKind::Punct("->")));
        assert!(k.contains(&TokenKind::Punct("==")));
        assert!(k.contains(&TokenKind::Float("0.0".into())));
    }

    #[test]
    fn string_contents_are_not_tokens() {
        let k = kinds(r#"let s = "x.unwrap() == 0.0 // TODO";"#);
        assert!(k.contains(&TokenKind::Str));
        assert!(!k.iter().any(|t| t.is_ident("unwrap")));
        assert!(!k.iter().any(|t| matches!(t, TokenKind::Float(_))));
        assert!(!k.iter().any(|t| matches!(t, TokenKind::Comment(_))));
    }

    #[test]
    fn raw_strings_with_fences() {
        let k = kinds(r####"let s = r#"contains "quotes" and unwrap()"#; x"####);
        assert!(k.contains(&TokenKind::Str));
        assert!(!k.iter().any(|t| t.is_ident("unwrap")));
        assert!(k.iter().any(|t| t.is_ident("x")), "lexing continued");
    }

    #[test]
    fn char_vs_lifetime() {
        let k = kinds("fn f<'a>(x: &'a str) { let c = 'x'; let nl = '\\n'; }");
        assert_eq!(
            k.iter()
                .filter(|t| matches!(t, TokenKind::Lifetime(l) if l == "a"))
                .count(),
            2
        );
        assert_eq!(k.iter().filter(|t| **t == TokenKind::Char).count(), 2);
    }

    #[test]
    fn comments_are_kept_with_text() {
        let k = kinds("// TODO: fix\n/* FIXME /* nested */ done */ let x = 1;");
        let comments: Vec<_> = k
            .iter()
            .filter_map(|t| match t {
                TokenKind::Comment(c) => Some(c.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(comments.len(), 2);
        assert!(comments[0].contains("TODO"));
        assert!(comments[1].contains("nested"));
        assert!(k.iter().any(|t| t.is_ident("x")));
    }

    #[test]
    fn numbers_ints_floats_ranges() {
        let k = kinds("let a = 0..10; let b = 1.5e-3; let c = 0xFF_u32; let d = 2f64;");
        assert!(k.contains(&TokenKind::Int("0".into())));
        assert!(k.contains(&TokenKind::Punct("..")));
        assert!(k.contains(&TokenKind::Int("10".into())));
        assert!(k.contains(&TokenKind::Float("1.5e-3".into())));
        assert!(k.contains(&TokenKind::Int("0xFF_u32".into())));
        assert!(k.contains(&TokenKind::Float("2f64".into())));
    }

    #[test]
    fn method_call_on_int_is_not_a_float() {
        let k = kinds("let m = 1.max(2);");
        assert!(k.contains(&TokenKind::Int("1".into())));
        assert!(k.iter().any(|t| t.is_ident("max")));
        assert!(!k.iter().any(|t| matches!(t, TokenKind::Float(_))));
    }

    #[test]
    fn line_numbers_track_all_literal_forms() {
        let src = "let a = 1;\nlet s = \"two\nlines\";\nlet b = 2;\n";
        let toks = lex(src);
        let b_line = toks.iter().find(|t| t.kind.is_ident("b")).map(|t| t.line);
        assert_eq!(b_line, Some(4));
    }

    #[test]
    fn unterminated_string_does_not_panic() {
        let k = kinds("let s = \"never closed");
        assert!(k.contains(&TokenKind::Str));
    }
}
