//! Recursive-descent parser for the constraint DSL.
//!
//! Grammar (whitespace-insensitive, `#`-to-end-of-line comments):
//!
//! ```text
//! constraints := constraint+
//! constraint  := "constraint" IDENT ":" formula
//! formula     := quant | implies
//! quant       := ("forall" | "exists") IDENT ":" IDENT
//!                ("," IDENT ":" IDENT)* "." formula
//! implies     := or ("implies" implies)?            // right-assoc
//! or          := and ("or" and)*
//! and         := unary ("and" unary)*
//! unary       := "not" unary | atom
//! atom        := "(" formula ")" | "true" | "false" | predicate
//! predicate   := IDENT "(" [term ("," term)*] ")"
//! term        := NUMBER | STRING | "true" | "false"
//!              | IDENT ("." IDENT)?                 // var or var.attr
//! ```
//!
//! Multi-binding quantifiers desugar to nested single-binding ones:
//! `forall a: k, b: k . f` ≡ `forall a: k . forall b: k . f`.
//!
//! No formula nests deeper than [`MAX_FORMULA_DEPTH`] levels, so
//! parsing, compiling, evaluating and dropping a parsed formula all fit
//! a small fixed stack whatever the input.

use crate::ast::{Formula, Quantifier, Term};
use crate::constraint::Constraint;
use crate::error::ParseError;
use ctxres_context::ContextValue;

/// The most levels a parsed formula may nest: a deeper one is a
/// [`ParseError`] at the token that opens the level past the bound.
/// A level is a parenthesis, a `not`, a quantifier binding, or a link
/// of an `and`, `or` or `implies` chain (`and` and `or` chains build
/// left-deep trees, so a chain of n links nests n levels).
pub const MAX_FORMULA_DEPTH: usize = 128;

/// A parsed subformula and its height: the most levels on one path
/// from its root down.
type Sub = (Formula, usize);

/// Parses a single `constraint <name>: <formula>` declaration.
///
/// # Errors
///
/// Returns [`ParseError`] on any syntax error (a formula nesting deeper
/// than [`MAX_FORMULA_DEPTH`] levels is one), with the byte offset of
/// the offending token.
///
/// ```
/// use ctxres_constraint::parse_constraint;
/// let c = parse_constraint(
///     "constraint region: forall a: location . within(a, 0.0, 0.0, 40.0, 30.0)",
/// )?;
/// assert_eq!(c.name(), "region");
/// # Ok::<(), ctxres_constraint::ParseError>(())
/// ```
pub fn parse_constraint(input: &str) -> Result<Constraint, ParseError> {
    let parse = || {
        let mut p = Parser::new(input)?;
        let c = p.constraint()?;
        p.expect_eof()?;
        Ok(c)
    };
    parse().map_err(|e: ParseError| e.locate(input))
}

/// Parses a sequence of constraint declarations.
///
/// # Errors
///
/// Returns [`ParseError`] on any syntax error, as [`parse_constraint`]
/// does.
pub fn parse_constraints(input: &str) -> Result<Vec<Constraint>, ParseError> {
    let parse = || {
        let mut p = Parser::new(input)?;
        let mut out = Vec::new();
        while !p.at_eof() {
            out.push(p.constraint()?);
        }
        Ok(out)
    };
    parse().map_err(|e: ParseError| e.locate(input))
}

/// Parses a bare formula (no `constraint name:` header).
///
/// # Errors
///
/// Returns [`ParseError`] on any syntax error, as [`parse_constraint`]
/// does.
pub fn parse_formula(input: &str) -> Result<Formula, ParseError> {
    let parse = || {
        let mut p = Parser::new(input)?;
        let (f, _) = p.formula()?;
        p.expect_eof()?;
        Ok(f)
    };
    parse().map_err(|e: ParseError| e.locate(input))
}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Number(ContextValue),
    Str(String),
    LParen,
    RParen,
    Comma,
    Colon,
    Dot,
    Eof,
}

impl Tok {
    fn describe(&self) -> String {
        match self {
            Tok::Ident(s) => format!("identifier {s:?}"),
            Tok::Number(v) => format!("number {v}"),
            Tok::Str(s) => format!("string {s:?}"),
            Tok::LParen => "'('".into(),
            Tok::RParen => "')'".into(),
            Tok::Comma => "','".into(),
            Tok::Colon => "':'".into(),
            Tok::Dot => "'.'".into(),
            Tok::Eof => "end of input".into(),
        }
    }
}

struct Parser {
    toks: Vec<(Tok, usize)>,
    pos: usize,
    /// Levels open above the current position.
    depth: usize,
}

impl Parser {
    fn new(input: &str) -> Result<Self, ParseError> {
        Ok(Parser {
            toks: lex(input)?,
            pos: 0,
            depth: 0,
        })
    }

    /// Parses with `levels` more levels open, the first opened by the
    /// token at `at`. Bounding the open levels bounds the recursion.
    fn nested(
        &mut self,
        levels: usize,
        at: usize,
        parse: fn(&mut Self) -> Result<Sub, ParseError>,
    ) -> Result<Sub, ParseError> {
        self.fits(levels, at)?;
        self.depth += levels;
        let sub = parse(self)?;
        self.depth -= levels;
        Ok(sub)
    }

    /// `height`, when a subtree that high fits below the open levels;
    /// otherwise the error at the token at `at`.
    fn fits(&self, height: usize, at: usize) -> Result<usize, ParseError> {
        if self.depth + height > MAX_FORMULA_DEPTH {
            return Err(ParseError::new(
                format!("formula nests deeper than {MAX_FORMULA_DEPTH} levels"),
                at,
            ));
        }
        Ok(height)
    }

    fn peek(&self) -> &Tok {
        &self.toks[self.pos].0
    }

    fn offset(&self) -> usize {
        self.toks[self.pos].1
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.pos].0.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn at_eof(&self) -> bool {
        matches!(self.peek(), Tok::Eof)
    }

    fn expect_eof(&self) -> Result<(), ParseError> {
        if self.at_eof() {
            Ok(())
        } else {
            Err(ParseError::new(
                format!("expected end of input, found {}", self.peek().describe()),
                self.offset(),
            ))
        }
    }

    fn expect(&mut self, want: &Tok) -> Result<(), ParseError> {
        if self.peek() == want {
            self.bump();
            Ok(())
        } else {
            Err(ParseError::new(
                format!(
                    "expected {}, found {}",
                    want.describe(),
                    self.peek().describe()
                ),
                self.offset(),
            ))
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.peek().clone() {
            Tok::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => Err(ParseError::new(
                format!("expected identifier, found {}", other.describe()),
                self.offset(),
            )),
        }
    }

    fn keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        match self.peek() {
            Tok::Ident(s) if s == kw => {
                self.bump();
                Ok(())
            }
            other => Err(ParseError::new(
                format!("expected keyword {kw:?}, found {}", other.describe()),
                self.offset(),
            )),
        }
    }

    fn peek_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Tok::Ident(s) if s == kw)
    }

    fn constraint(&mut self) -> Result<Constraint, ParseError> {
        self.keyword("constraint")?;
        let name = self.ident()?;
        self.expect(&Tok::Colon)?;
        let (f, _) = self.formula()?;
        Ok(Constraint::new(&name, f))
    }

    fn formula(&mut self) -> Result<Sub, ParseError> {
        self.implies()
    }

    fn quant(&mut self) -> Result<Sub, ParseError> {
        let at = self.offset();
        let q = if self.peek_keyword("forall") {
            self.bump();
            Quantifier::Forall
        } else {
            self.keyword("exists")?;
            Quantifier::Exists
        };
        let mut bindings = Vec::new();
        loop {
            let var = self.ident()?;
            self.expect(&Tok::Colon)?;
            let kind = self.ident()?;
            bindings.push((var, kind));
            if matches!(self.peek(), Tok::Comma) {
                self.bump();
            } else {
                break;
            }
        }
        self.expect(&Tok::Dot)?;
        let levels = bindings.len();
        let (mut body, height) = self.nested(levels, at, Self::formula)?;
        for (var, kind) in bindings.into_iter().rev() {
            body = match q {
                Quantifier::Forall => Formula::forall(&var, kind.as_str(), body),
                Quantifier::Exists => Formula::exists(&var, kind.as_str(), body),
            };
        }
        Ok((body, height + levels))
    }

    fn implies(&mut self) -> Result<Sub, ParseError> {
        let (lhs, lhs_height) = self.or()?;
        if !self.peek_keyword("implies") {
            return Ok((lhs, lhs_height));
        }
        let at = self.offset();
        self.bump();
        let (rhs, rhs_height) = self.nested(1, at, Self::implies)?;
        let height = self.fits(lhs_height.max(rhs_height) + 1, at)?;
        Ok((lhs.implies(rhs), height))
    }

    fn or(&mut self) -> Result<Sub, ParseError> {
        self.chain("or", Self::and, Formula::or)
    }

    fn and(&mut self) -> Result<Sub, ParseError> {
        self.chain("and", Self::unary, Formula::and)
    }

    /// A left-deep chain of `operand`s joined by `keyword`: each link
    /// is one level above both of its operands.
    fn chain(
        &mut self,
        keyword: &str,
        operand: fn(&mut Self) -> Result<Sub, ParseError>,
        join: fn(Formula, Formula) -> Formula,
    ) -> Result<Sub, ParseError> {
        let (mut f, mut height) = operand(self)?;
        while self.peek_keyword(keyword) {
            let at = self.offset();
            self.bump();
            let (rhs, rhs_height) = self.nested(1, at, operand)?;
            f = join(f, rhs);
            height = self.fits(height.max(rhs_height) + 1, at)?;
        }
        Ok((f, height))
    }

    fn unary(&mut self) -> Result<Sub, ParseError> {
        if self.peek_keyword("not") {
            let at = self.offset();
            self.bump();
            let (f, height) = self.nested(1, at, Self::unary)?;
            return Ok((f.not(), height + 1));
        }
        if self.peek_keyword("forall") || self.peek_keyword("exists") {
            return self.quant();
        }
        self.atom()
    }

    fn atom(&mut self) -> Result<Sub, ParseError> {
        match self.peek().clone() {
            Tok::LParen => {
                let at = self.offset();
                self.bump();
                let (f, height) = self.nested(1, at, Self::formula)?;
                self.expect(&Tok::RParen)?;
                Ok((f, height + 1))
            }
            Tok::Ident(s) if s == "true" => {
                self.bump();
                Ok((Formula::True, 0))
            }
            Tok::Ident(s) if s == "false" => {
                self.bump();
                Ok((Formula::False, 0))
            }
            Tok::Ident(name) => {
                self.bump();
                self.expect(&Tok::LParen)?;
                let mut args = Vec::new();
                if !matches!(self.peek(), Tok::RParen) {
                    loop {
                        args.push(self.term()?);
                        if matches!(self.peek(), Tok::Comma) {
                            self.bump();
                        } else {
                            break;
                        }
                    }
                }
                self.expect(&Tok::RParen)?;
                Ok((Formula::pred(&name, args), 0))
            }
            other => Err(ParseError::new(
                format!("expected a formula, found {}", other.describe()),
                self.offset(),
            )),
        }
    }

    fn term(&mut self) -> Result<Term, ParseError> {
        match self.peek().clone() {
            Tok::Number(v) => {
                self.bump();
                Ok(Term::Const(v))
            }
            Tok::Str(s) => {
                self.bump();
                Ok(Term::Const(ContextValue::Text(s)))
            }
            Tok::Ident(s) if s == "true" => {
                self.bump();
                Ok(Term::Const(ContextValue::Bool(true)))
            }
            Tok::Ident(s) if s == "false" => {
                self.bump();
                Ok(Term::Const(ContextValue::Bool(false)))
            }
            Tok::Ident(var) => {
                self.bump();
                if matches!(self.peek(), Tok::Dot) {
                    self.bump();
                    let attr = self.ident()?;
                    Ok(Term::Attr(var, attr))
                } else {
                    Ok(Term::Var(var))
                }
            }
            other => Err(ParseError::new(
                format!("expected a term, found {}", other.describe()),
                self.offset(),
            )),
        }
    }
}

fn lex(input: &str) -> Result<Vec<(Tok, usize)>, ParseError> {
    let bytes = input.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        match b {
            b' ' | b'\t' | b'\r' | b'\n' => i += 1,
            b'#' => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b'(' => {
                toks.push((Tok::LParen, i));
                i += 1;
            }
            b')' => {
                toks.push((Tok::RParen, i));
                i += 1;
            }
            b',' => {
                toks.push((Tok::Comma, i));
                i += 1;
            }
            b':' => {
                toks.push((Tok::Colon, i));
                i += 1;
            }
            b'.' => {
                toks.push((Tok::Dot, i));
                i += 1;
            }
            b'"' => {
                let start = i;
                i += 1;
                let mut s = String::new();
                loop {
                    if i >= bytes.len() {
                        return Err(ParseError::new("unterminated string literal", start));
                    }
                    if bytes[i] == b'"' {
                        i += 1;
                        break;
                    }
                    s.push(bytes[i] as char);
                    i += 1;
                }
                toks.push((Tok::Str(s), start));
            }
            b'-' | b'0'..=b'9' => {
                let start = i;
                if b == b'-' && !(i + 1 < bytes.len() && bytes[i + 1].is_ascii_digit()) {
                    return Err(ParseError::new("stray '-'", i));
                }
                if b == b'-' {
                    i += 1;
                }
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                let mut is_float = false;
                if i + 1 < bytes.len() && bytes[i] == b'.' && bytes[i + 1].is_ascii_digit() {
                    is_float = true;
                    i += 1;
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        i += 1;
                    }
                }
                let text = &input[start..i];
                let value =
                    if is_float {
                        ContextValue::Float(text.parse::<f64>().map_err(|e| {
                            ParseError::new(format!("bad number {text:?}: {e}"), start)
                        })?)
                    } else {
                        ContextValue::Int(text.parse::<i64>().map_err(|e| {
                            ParseError::new(format!("bad number {text:?}: {e}"), start)
                        })?)
                    };
                toks.push((Tok::Number(value), start));
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                toks.push((Tok::Ident(input[start..i].to_owned()), start));
            }
            other => {
                return Err(ParseError::new(
                    format!("unexpected character {:?}", other as char),
                    i,
                ));
            }
        }
    }
    toks.push((Tok::Eof, input.len()));
    Ok(toks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctxres_context::ContextKind;

    #[test]
    fn parses_the_paper_velocity_constraint() {
        let c = parse_constraint(
            "constraint max_speed:
               forall a: location, b: location .
                 (same_subject(a, b) and seq_gap(a, b, 1)) implies velocity_le(a, b, 1.5)",
        )
        .unwrap();
        assert_eq!(c.name(), "max_speed");
        assert_eq!(c.quantifier_count(), 2);
        assert!(c.is_universal_positive());
        assert!(c.is_relevant_to(&ContextKind::new("location")));
    }

    #[test]
    fn multi_binding_desugars_to_nested_quantifiers() {
        let a = parse_formula("forall a: k, b: k . eq(a.v, b.v)").unwrap();
        let b = parse_formula("forall a: k . forall b: k . eq(a.v, b.v)").unwrap();
        // qids are assigned by Constraint::new, not the parser, so the
        // formulas compare equal structurally.
        assert_eq!(a, b);
    }

    #[test]
    fn precedence_not_and_or_implies() {
        let f = parse_formula("not p() and q() or r() implies s()").unwrap();
        assert_eq!(f.to_string(), "(((not p() and q()) or r()) implies s())");
    }

    #[test]
    fn implies_is_right_associative() {
        let f = parse_formula("p() implies q() implies r()").unwrap();
        assert_eq!(f.to_string(), "(p() implies (q() implies r()))");
    }

    #[test]
    fn parens_override_precedence() {
        let f = parse_formula("p() and (q() or r())").unwrap();
        assert_eq!(f.to_string(), "(p() and (q() or r()))");
    }

    #[test]
    fn terms_parse_all_shapes() {
        let f = parse_formula("p(a, a.room, 1, -2.5, \"office\", true, false)").unwrap();
        let Formula::Pred(call) = f else {
            panic!("expected pred")
        };
        assert_eq!(call.args.len(), 7);
        assert_eq!(call.args[0], Term::Var("a".into()));
        assert_eq!(call.args[1], Term::Attr("a".into(), "room".into()));
        assert_eq!(call.args[2], Term::Const(ContextValue::Int(1)));
        assert_eq!(call.args[3], Term::Const(ContextValue::Float(-2.5)));
        assert_eq!(
            call.args[4],
            Term::Const(ContextValue::Text("office".into()))
        );
        assert_eq!(call.args[5], Term::Const(ContextValue::Bool(true)));
        assert_eq!(call.args[6], Term::Const(ContextValue::Bool(false)));
    }

    #[test]
    fn comments_are_skipped() {
        let c =
            parse_constraint("# a comment\nconstraint c: # trailing\n forall a: k . true").unwrap();
        assert_eq!(c.name(), "c");
    }

    #[test]
    fn multiple_constraints_parse_in_sequence() {
        let cs = parse_constraints(
            "constraint one: forall a: k . true
             constraint two: exists b: k . p(b)",
        )
        .unwrap();
        assert_eq!(cs.len(), 2);
        assert_eq!(cs[0].name(), "one");
        assert_eq!(cs[1].name(), "two");
    }

    #[test]
    fn nested_quantifier_inside_connective() {
        let f = parse_formula("p() and forall a: k . q(a)").unwrap();
        assert_eq!(f.to_string(), "(p() and (forall a: k . q(a)))");
    }

    #[test]
    fn error_reports_offset() {
        let err = parse_constraint("constraint x forall a: k . true").unwrap_err();
        assert!(err.to_string().contains("':'"), "{err}");
        assert!(err.offset > 0);
    }

    #[test]
    fn unterminated_string_is_an_error() {
        let err = parse_formula("p(\"oops)").unwrap_err();
        assert!(err.to_string().contains("unterminated"));
    }

    #[test]
    fn stray_minus_is_an_error() {
        assert!(parse_formula("p(-)").is_err());
    }

    #[test]
    fn unexpected_character_is_an_error() {
        let err = parse_formula("p() & q()").unwrap_err();
        assert!(err.to_string().contains('&'));
    }

    #[test]
    fn empty_argument_list_allowed() {
        let f = parse_formula("heartbeat()").unwrap();
        assert_eq!(f.to_string(), "heartbeat()");
    }

    #[test]
    fn eof_expected_after_formula() {
        assert!(parse_formula("true true").is_err());
    }

    #[test]
    fn errors_carry_line_and_column() {
        let err = parse_constraints(
            "constraint ok: forall a: k . true\nconstraint broken: forall a k . true",
        )
        .unwrap_err();
        assert_eq!(err.line, 2, "{err}");
        assert!(err.column > 20, "{err}");
        assert!(err.to_string().contains("line 2"));
    }
}

#[cfg(test)]
mod float_roundtrip_tests {
    use super::*;
    use crate::ast::Term;
    use ctxres_context::ContextValue;

    #[test]
    fn integral_floats_round_trip_as_floats() {
        let f = Formula::pred("p", vec![Term::Const(ContextValue::Float(4.0))]);
        let printed = f.to_string();
        assert_eq!(printed, "p(4.0)");
        assert_eq!(parse_formula(&printed).unwrap(), f);
    }
}
