//! Hand-written SQL lexer.
//!
//! Keywords are case-insensitive; identifiers keep their case. String
//! literals use single quotes with `''` as the escape. Numbers are i64 or
//! f64; hex blobs are `x'AB01'`.
//!
//! Tokens borrow from the statement: a word is a slice of the input, and
//! so is a string literal unless it contains a `''` escape, the one case
//! that needs an owned, unescaped copy.

use std::borrow::Cow;

use crate::error::{QueryError, QueryResult};

/// A lexical token, borrowing from the statement it was read from.
#[derive(Debug, Clone, PartialEq)]
pub enum Token<'a> {
    /// Keyword or identifier, in its original case — the parser tells
    /// them apart by comparing case-insensitively.
    Word(&'a str),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// String literal, unescaped (owned only when it held a `''`).
    Str(Cow<'a, str>),
    /// Hex blob literal.
    Blob(Vec<u8>),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `;`
    Semi,
    /// `*`
    Star,
    /// `=`
    Eq,
    /// `!=` or `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

/// Tokenize a statement.
pub fn lex(input: &str) -> QueryResult<Vec<Token<'_>>> {
    let bytes = input.as_bytes();
    // A token with the space after it mostly takes three bytes or more
    // (`id = 42`), so one allocation usually holds them all.
    let mut out = Vec::with_capacity(input.len() / 3 + 1);
    let mut i = 0;
    let err = |at: usize, msg: &str| QueryError::Lex {
        at,
        msg: msg.to_string(),
    };

    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\r' | '\n' => i += 1,
            '(' => {
                out.push(Token::LParen);
                i += 1;
            }
            ')' => {
                out.push(Token::RParen);
                i += 1;
            }
            ',' => {
                out.push(Token::Comma);
                i += 1;
            }
            ';' => {
                out.push(Token::Semi);
                i += 1;
            }
            '*' => {
                out.push(Token::Star);
                i += 1;
            }
            '=' => {
                out.push(Token::Eq);
                i += 1;
            }
            '!' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push(Token::Ne);
                    i += 2;
                } else {
                    return Err(err(i, "expected `!=`"));
                }
            }
            '<' => match bytes.get(i + 1) {
                Some(b'=') => {
                    out.push(Token::Le);
                    i += 2;
                }
                Some(b'>') => {
                    out.push(Token::Ne);
                    i += 2;
                }
                _ => {
                    out.push(Token::Lt);
                    i += 1;
                }
            },
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push(Token::Ge);
                    i += 2;
                } else {
                    out.push(Token::Gt);
                    i += 1;
                }
            }
            '\'' => {
                // String literal with '' escapes. A quote is one byte and
                // never part of a multi-byte character, so the body is a
                // whole-UTF-8 slice of the input.
                let start = i;
                let mut escaped = false;
                i += 1;
                loop {
                    match bytes.get(i) {
                        None => return Err(err(start, "unterminated string")),
                        Some(b'\'') if bytes.get(i + 1) == Some(&b'\'') => {
                            escaped = true;
                            i += 2;
                        }
                        Some(b'\'') => break,
                        Some(_) => i += 1,
                    }
                }
                let body = &input[start + 1..i];
                i += 1;
                out.push(Token::Str(if escaped {
                    Cow::Owned(body.replace("''", "'"))
                } else {
                    Cow::Borrowed(body)
                }));
            }
            '-' | '0'..='9' => {
                let start = i;
                if c == '-' {
                    i += 1;
                    if !bytes.get(i).map(|b| b.is_ascii_digit()).unwrap_or(false) {
                        return Err(err(start, "expected digits after `-`"));
                    }
                }
                let mut is_float = false;
                while i < bytes.len()
                    && (bytes[i].is_ascii_digit() || (bytes[i] == b'.' && !is_float))
                {
                    if bytes[i] == b'.' {
                        is_float = true;
                    }
                    i += 1;
                }
                let text = &input[start..i];
                if is_float {
                    out.push(Token::Float(
                        text.parse().map_err(|_| err(start, "bad float"))?,
                    ));
                } else {
                    out.push(Token::Int(
                        text.parse().map_err(|_| err(start, "bad integer"))?,
                    ));
                }
            }
            'x' | 'X' if bytes.get(i + 1) == Some(&b'\'') => {
                // Hex blob x'AB01'.
                let start = i;
                i += 2;
                let hex_start = i;
                while i < bytes.len() && bytes[i] != b'\'' {
                    i += 1;
                }
                if i >= bytes.len() {
                    return Err(err(start, "unterminated blob"));
                }
                let hex = &input[hex_start..i];
                i += 1;
                if !hex.len().is_multiple_of(2) {
                    return Err(err(start, "odd-length blob"));
                }
                let mut blob = Vec::with_capacity(hex.len() / 2);
                for pair in hex.as_bytes().chunks(2) {
                    let s = std::str::from_utf8(pair).expect("ascii");
                    blob.push(u8::from_str_radix(s, 16).map_err(|_| err(start, "bad hex"))?);
                }
                out.push(Token::Blob(blob));
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                out.push(Token::Word(&input[start..i]));
            }
            _ => {
                let c = input[i..]
                    .chars()
                    .next()
                    .expect("i is below the input length");
                return Err(err(i, &format!("unexpected character `{c}`")));
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keywords_and_symbols() {
        let t = lex("SELECT * FROM t WHERE a >= 10;").unwrap();
        assert_eq!(
            t,
            vec![
                Token::Word("SELECT"),
                Token::Star,
                Token::Word("FROM"),
                Token::Word("t"),
                Token::Word("WHERE"),
                Token::Word("a"),
                Token::Ge,
                Token::Int(10),
                Token::Semi,
            ]
        );
    }

    #[test]
    fn strings_with_escapes() {
        let t = lex("'it''s'").unwrap();
        assert_eq!(t, vec![Token::Str("it's".into())]);
    }

    #[test]
    fn strings_are_utf8_and_borrowed_unless_escaped() {
        let input = "'café' 'naïve ''ü'' 東京'";
        let t = lex(input).unwrap();
        assert_eq!(
            t,
            vec![
                Token::Str("café".into()),
                Token::Str("naïve 'ü' 東京".into())
            ]
        );
        assert!(matches!(&t[0], Token::Str(Cow::Borrowed(s)) if s.as_ptr() == input[1..].as_ptr()));
        assert!(matches!(&t[1], Token::Str(Cow::Owned(_))));
        match lex("SELECT é") {
            Err(QueryError::Lex { at: 7, msg }) => assert_eq!(msg, "unexpected character `é`"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn numbers() {
        assert_eq!(lex("-42").unwrap(), vec![Token::Int(-42)]);
        assert_eq!(lex("3.5").unwrap(), vec![Token::Float(3.5)]);
        assert_eq!(lex("-0.25").unwrap(), vec![Token::Float(-0.25)]);
    }

    #[test]
    fn blobs() {
        assert_eq!(lex("x'AB01'").unwrap(), vec![Token::Blob(vec![0xAB, 0x01])]);
        assert!(lex("x'AB0'").is_err());
        assert!(lex("x'AB01").is_err());
    }

    #[test]
    fn comparison_operators() {
        let t = lex("a != b <> c <= d < e >= f > g = h").unwrap();
        let ops: Vec<&Token> = t.iter().filter(|t| !matches!(t, Token::Word(_))).collect();
        assert_eq!(
            ops,
            vec![
                &Token::Ne,
                &Token::Ne,
                &Token::Le,
                &Token::Lt,
                &Token::Ge,
                &Token::Gt,
                &Token::Eq
            ]
        );
    }

    #[test]
    fn errors_carry_position() {
        match lex("SELECT @") {
            Err(QueryError::Lex { at: 7, .. }) => {}
            other => panic!("unexpected {other:?}"),
        }
        assert!(lex("'open").is_err());
        assert!(lex("- x").is_err());
    }

    #[test]
    fn identifiers_keep_case_but_x_blob_disambiguates() {
        let t = lex("xval x1 x'00'").unwrap();
        assert_eq!(
            t,
            vec![Token::Word("xval"), Token::Word("x1"), Token::Blob(vec![0]),]
        );
    }
}
