//! Recursive-descent parser for the FAME-DBMS SQL dialect.
//!
//! The parser consumes the lexer's tokens by move: a keyword is compared
//! in place and dropped, and an identifier or string literal is copied
//! once, into the statement's owned AST.

use std::iter::Peekable;

use fame_storage::{DataType, Value};

use crate::error::{QueryError, QueryResult};
use crate::sql::ast::{BinOp, Expr, OrderBy, SelectCols, Stmt};
use crate::sql::lexer::{lex, Token};

/// Parse one statement (a trailing `;` is allowed).
pub fn parse(input: &str) -> QueryResult<Stmt> {
    let mut p = Parser {
        tokens: lex(input)?.into_iter().peekable(),
    };
    let stmt = p.statement()?;
    p.eat_if(&Token::Semi);
    if let Some(t) = p.peek() {
        return Err(QueryError::Parse(format!(
            "trailing input after statement: {t:?}"
        )));
    }
    Ok(stmt)
}

struct Parser<'a> {
    tokens: Peekable<std::vec::IntoIter<Token<'a>>>,
}

impl<'a> Parser<'a> {
    fn peek(&mut self) -> Option<&Token<'a>> {
        self.tokens.peek()
    }

    fn next(&mut self) -> QueryResult<Token<'a>> {
        self.tokens
            .next()
            .ok_or_else(|| QueryError::Parse("unexpected end of input".into()))
    }

    fn eat_if(&mut self, t: &Token) -> bool {
        self.tokens.next_if(|got| got == t).is_some()
    }

    fn expect(&mut self, t: &Token) -> QueryResult<()> {
        let got = self.next()?;
        if &got == t {
            Ok(())
        } else {
            Err(QueryError::Parse(format!("expected {t:?}, got {got:?}")))
        }
    }

    /// Consume a keyword (case-insensitive).
    fn keyword(&mut self, kw: &str) -> QueryResult<()> {
        match self.next()? {
            Token::Word(w) if w.eq_ignore_ascii_case(kw) => Ok(()),
            got => Err(QueryError::Parse(format!("expected {kw}, got {got:?}"))),
        }
    }

    /// Consume `kw` if it comes next.
    fn eat_keyword(&mut self, kw: &str) -> bool {
        self.tokens
            .next_if(|t| matches!(t, Token::Word(w) if w.eq_ignore_ascii_case(kw)))
            .is_some()
    }

    fn identifier(&mut self) -> QueryResult<String> {
        match self.next()? {
            Token::Word(w) => Ok(w.to_string()),
            got => Err(QueryError::Parse(format!(
                "expected identifier, got {got:?}"
            ))),
        }
    }

    fn statement(&mut self) -> QueryResult<Stmt> {
        match self.peek() {
            Some(Token::Word(w)) if w.eq_ignore_ascii_case("EXPLAIN") => {
                self.keyword("EXPLAIN")?;
                let inner = self.statement()?;
                match inner {
                    Stmt::Select { .. } | Stmt::Update { .. } | Stmt::Delete { .. } => {
                        Ok(Stmt::Explain(Box::new(inner)))
                    }
                    other => Err(QueryError::Parse(format!(
                        "EXPLAIN supports SELECT/UPDATE/DELETE, got {other:?}"
                    ))),
                }
            }
            Some(Token::Word(w)) if w.eq_ignore_ascii_case("CREATE") => self.create_table(),
            Some(Token::Word(w)) if w.eq_ignore_ascii_case("DROP") => self.drop_table(),
            Some(Token::Word(w)) if w.eq_ignore_ascii_case("INSERT") => self.insert(),
            Some(Token::Word(w)) if w.eq_ignore_ascii_case("SELECT") => self.select(),
            Some(Token::Word(w)) if w.eq_ignore_ascii_case("UPDATE") => self.update(),
            Some(Token::Word(w)) if w.eq_ignore_ascii_case("DELETE") => self.delete(),
            other => Err(QueryError::Parse(format!(
                "expected a statement, got {other:?}"
            ))),
        }
    }

    fn data_type(&mut self) -> QueryResult<DataType> {
        let w = self.identifier()?;
        Ok(match w.to_ascii_uppercase().as_str() {
            "BOOL" | "BOOLEAN" => DataType::Bool,
            "U32" | "INT" | "INTEGER" => DataType::U32,
            "I64" | "BIGINT" => DataType::I64,
            "F64" | "REAL" | "DOUBLE" => DataType::F64,
            "STR" | "TEXT" | "VARCHAR" => DataType::Str,
            "BYTES" | "BLOB" => DataType::Bytes,
            other => {
                return Err(QueryError::Parse(format!("unknown type `{other}`")));
            }
        })
    }

    fn create_table(&mut self) -> QueryResult<Stmt> {
        self.keyword("CREATE")?;
        self.keyword("TABLE")?;
        let name = self.identifier()?;
        self.expect(&Token::LParen)?;
        let mut columns = Vec::new();
        loop {
            let col = self.identifier()?;
            let ty = self.data_type()?;
            columns.push((col, ty));
            if !self.eat_if(&Token::Comma) {
                break;
            }
        }
        self.expect(&Token::RParen)?;
        Ok(Stmt::CreateTable { name, columns })
    }

    fn drop_table(&mut self) -> QueryResult<Stmt> {
        self.keyword("DROP")?;
        self.keyword("TABLE")?;
        Ok(Stmt::DropTable {
            name: self.identifier()?,
        })
    }

    fn literal(&mut self) -> QueryResult<Value> {
        Ok(match self.next()? {
            Token::Int(i) => {
                if (0..=i64::from(u32::MAX)).contains(&i) {
                    // Prefer U32 (the embedded default); the executor
                    // coerces to the column type.
                    Value::U32(i as u32)
                } else {
                    Value::I64(i)
                }
            }
            Token::Float(f) => Value::F64(f),
            Token::Str(s) => Value::Str(s.into_owned()),
            Token::Blob(b) => Value::Bytes(b),
            Token::Word(w) if w.eq_ignore_ascii_case("NULL") => Value::Null,
            Token::Word(w) if w.eq_ignore_ascii_case("TRUE") => Value::Bool(true),
            Token::Word(w) if w.eq_ignore_ascii_case("FALSE") => Value::Bool(false),
            got => return Err(QueryError::Parse(format!("expected literal, got {got:?}"))),
        })
    }

    fn insert(&mut self) -> QueryResult<Stmt> {
        self.keyword("INSERT")?;
        self.keyword("INTO")?;
        let table = self.identifier()?;
        self.keyword("VALUES")?;
        let mut rows = Vec::new();
        loop {
            self.expect(&Token::LParen)?;
            let mut row = Vec::new();
            loop {
                row.push(self.literal()?);
                if !self.eat_if(&Token::Comma) {
                    break;
                }
            }
            self.expect(&Token::RParen)?;
            rows.push(row);
            if !self.eat_if(&Token::Comma) {
                break;
            }
        }
        Ok(Stmt::Insert { table, rows })
    }

    fn select(&mut self) -> QueryResult<Stmt> {
        self.keyword("SELECT")?;
        let cols = if self.eat_if(&Token::Star) {
            SelectCols::All
        } else if self.eat_keyword("COUNT") {
            self.expect(&Token::LParen)?;
            self.expect(&Token::Star)?;
            self.expect(&Token::RParen)?;
            SelectCols::CountStar
        } else {
            let mut names = vec![self.identifier()?];
            while self.eat_if(&Token::Comma) {
                names.push(self.identifier()?);
            }
            SelectCols::Some(names)
        };
        self.keyword("FROM")?;
        let table = self.identifier()?;
        let predicate = self.opt_where()?;
        let order_by = if self.eat_keyword("ORDER") {
            self.keyword("BY")?;
            let column = self.identifier()?;
            let desc = self.eat_keyword("DESC");
            if !desc {
                self.eat_keyword("ASC");
            }
            Some(OrderBy { column, desc })
        } else {
            None
        };
        let limit = if self.eat_keyword("LIMIT") {
            match self.next()? {
                Token::Int(n) if n >= 0 => Some(n as usize),
                got => {
                    return Err(QueryError::Parse(format!(
                        "expected LIMIT count, got {got:?}"
                    )))
                }
            }
        } else {
            None
        };
        Ok(Stmt::Select {
            cols,
            table,
            predicate,
            order_by,
            limit,
        })
    }

    fn update(&mut self) -> QueryResult<Stmt> {
        self.keyword("UPDATE")?;
        let table = self.identifier()?;
        self.keyword("SET")?;
        let mut sets = Vec::new();
        loop {
            let col = self.identifier()?;
            self.expect(&Token::Eq)?;
            sets.push((col, self.literal()?));
            if !self.eat_if(&Token::Comma) {
                break;
            }
        }
        let predicate = self.opt_where()?;
        Ok(Stmt::Update {
            table,
            sets,
            predicate,
        })
    }

    fn delete(&mut self) -> QueryResult<Stmt> {
        self.keyword("DELETE")?;
        self.keyword("FROM")?;
        let table = self.identifier()?;
        let predicate = self.opt_where()?;
        Ok(Stmt::Delete { table, predicate })
    }

    fn opt_where(&mut self) -> QueryResult<Option<Expr>> {
        if self.eat_keyword("WHERE") {
            Ok(Some(self.expr()?))
        } else {
            Ok(None)
        }
    }

    // Precedence: OR < AND < NOT < comparison < primary.
    fn expr(&mut self) -> QueryResult<Expr> {
        let mut lhs = self.and_expr()?;
        while self.eat_keyword("OR") {
            let rhs = self.and_expr()?;
            lhs = Expr::binary(BinOp::Or, lhs, rhs);
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> QueryResult<Expr> {
        let mut lhs = self.not_expr()?;
        while self.eat_keyword("AND") {
            let rhs = self.not_expr()?;
            lhs = Expr::binary(BinOp::And, lhs, rhs);
        }
        Ok(lhs)
    }

    fn not_expr(&mut self) -> QueryResult<Expr> {
        if self.eat_keyword("NOT") {
            Ok(Expr::Not(Box::new(self.not_expr()?)))
        } else {
            self.comparison()
        }
    }

    fn comparison(&mut self) -> QueryResult<Expr> {
        let lhs = self.primary()?;
        let op = match self.peek() {
            Some(Token::Eq) => BinOp::Eq,
            Some(Token::Ne) => BinOp::Ne,
            Some(Token::Lt) => BinOp::Lt,
            Some(Token::Le) => BinOp::Le,
            Some(Token::Gt) => BinOp::Gt,
            Some(Token::Ge) => BinOp::Ge,
            _ => return Ok(lhs),
        };
        self.tokens.next();
        let rhs = self.primary()?;
        Ok(Expr::binary(op, lhs, rhs))
    }

    fn primary(&mut self) -> QueryResult<Expr> {
        match self.peek() {
            Some(Token::LParen) => {
                self.tokens.next();
                let e = self.expr()?;
                self.expect(&Token::RParen)?;
                Ok(e)
            }
            Some(Token::Word(w))
                if !w.eq_ignore_ascii_case("NULL")
                    && !w.eq_ignore_ascii_case("TRUE")
                    && !w.eq_ignore_ascii_case("FALSE") =>
            {
                let name = self.identifier()?;
                Ok(Expr::Column(name))
            }
            _ => Ok(Expr::Literal(self.literal()?)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_table() {
        let s = parse("CREATE TABLE events (id U32, msg TEXT, level INT)").unwrap();
        assert_eq!(
            s,
            Stmt::CreateTable {
                name: "events".into(),
                columns: vec![
                    ("id".into(), DataType::U32),
                    ("msg".into(), DataType::Str),
                    ("level".into(), DataType::U32),
                ],
            }
        );
    }

    #[test]
    fn insert_multi_row() {
        let s = parse("INSERT INTO t VALUES (1, 'a'), (2, 'b');").unwrap();
        match s {
            Stmt::Insert { table, rows } => {
                assert_eq!(table, "t");
                assert_eq!(rows.len(), 2);
                assert_eq!(rows[0], vec![Value::U32(1), Value::Str("a".into())]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn select_star_with_where() {
        let s = parse("SELECT * FROM t WHERE id >= 10 AND id < 20").unwrap();
        match s {
            Stmt::Select {
                cols: SelectCols::All,
                table,
                predicate: Some(Expr::Binary { op: BinOp::And, .. }),
                order_by: None,
                limit: None,
            } => assert_eq!(table, "t"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn select_columns_order_limit() {
        let s = parse("SELECT a, b FROM t ORDER BY a DESC LIMIT 5").unwrap();
        match s {
            Stmt::Select {
                cols: SelectCols::Some(names),
                order_by: Some(OrderBy { column, desc: true }),
                limit: Some(5),
                ..
            } => {
                assert_eq!(names, vec!["a", "b"]);
                assert_eq!(column, "a");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn count_star() {
        let s = parse("SELECT COUNT(*) FROM t WHERE x = 1").unwrap();
        assert!(matches!(
            s,
            Stmt::Select {
                cols: SelectCols::CountStar,
                ..
            }
        ));
    }

    #[test]
    fn update_and_delete() {
        let s = parse("UPDATE t SET a = 1, b = 'x' WHERE id = 3").unwrap();
        match s {
            Stmt::Update {
                sets,
                predicate: Some(_),
                ..
            } => {
                assert_eq!(sets.len(), 2);
            }
            other => panic!("unexpected {other:?}"),
        }
        let s = parse("DELETE FROM t").unwrap();
        assert!(matches!(
            s,
            Stmt::Delete {
                predicate: None,
                ..
            }
        ));
    }

    #[test]
    fn operator_precedence() {
        // a = 1 OR b = 2 AND c = 3  ==  a=1 OR (b=2 AND c=3)
        let s = parse("SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3").unwrap();
        let Stmt::Select {
            predicate: Some(p), ..
        } = s
        else {
            panic!()
        };
        match p {
            Expr::Binary {
                op: BinOp::Or, rhs, ..
            } => {
                assert!(matches!(*rhs, Expr::Binary { op: BinOp::And, .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn not_and_parens() {
        let s = parse("SELECT * FROM t WHERE NOT (a = 1)").unwrap();
        let Stmt::Select {
            predicate: Some(Expr::Not(_)),
            ..
        } = s
        else {
            panic!("expected NOT")
        };
    }

    #[test]
    fn literals_all_kinds() {
        let s = parse("INSERT INTO t VALUES (NULL, TRUE, FALSE, -7, 2.5, 'txt', x'FF00')").unwrap();
        let Stmt::Insert { rows, .. } = s else {
            panic!()
        };
        assert_eq!(
            rows[0],
            vec![
                Value::Null,
                Value::Bool(true),
                Value::Bool(false),
                Value::I64(-7),
                Value::F64(2.5),
                Value::Str("txt".into()),
                Value::Bytes(vec![0xFF, 0x00]),
            ]
        );
    }

    #[test]
    fn errors() {
        assert!(parse("SELECT").is_err());
        assert!(parse("CREATE TABLE t ()").is_err());
        assert!(parse("CREATE TABLE t (a WEIRDTYPE)").is_err());
        assert!(parse("SELECT * FROM t extra garbage").is_err());
        assert!(parse("INSERT INTO t VALUES 1, 2").is_err());
        assert!(parse("SELECT * FROM t LIMIT x").is_err());
    }

    #[test]
    fn negative_int_literal_is_i64() {
        let s = parse("INSERT INTO t VALUES (-1)").unwrap();
        let Stmt::Insert { rows, .. } = s else {
            panic!()
        };
        assert_eq!(rows[0][0], Value::I64(-1));
    }
}
