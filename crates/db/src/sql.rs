//! The SQL surface (§6): `TRAIN BY` and `PREDICT BY` queries.
//!
//! ```sql
//! SELECT * FROM forest TRAIN BY svm WITH learning_rate = 0.1,
//!        max_epoch_num = 20, block_size = 10MB, buffer_fraction = 0.1,
//!        strategy = 'corgipile', model_name = 'forest_svm';
//! SELECT f0, f3, label FROM forest WHERE f2 > 0.5 AND label = 1 TRAIN BY svm;
//! SELECT * FROM forest PREDICT BY forest_svm;
//! PREDICT forest_svm ON forest WHERE f2 > 0.5 WITH batch_rows = 512;
//! PREDICT forest_svm VERSION 2 ON forest;
//! LOAD MODEL forest_svm VERSION 1 AS ACTIVE;
//! ```
//!
//! The grammar is a tiny hand-rolled recursive-descent parser: keywords are
//! case-insensitive, parameters are `name = value` pairs where values are
//! numbers, quoted strings, bare identifiers, or byte sizes (`10MB`,
//! `512KB`). The `WHERE` clause is a typed predicate AST over the columns
//! `id`, `label`, and `f<N>` (feature index `N`), with `AND` binding tighter
//! than `OR` and parentheses for grouping.
//!
//! [`parse`] takes one statement and an optional `;`, nothing after them.
//! Tokens are lexed on demand, in ASCII: whitespace and delimiters are ASCII
//! bytes and a non-ASCII character belongs to a word. `INSERT` values go
//! from the text into one row-major buffer ([`InsertRows`]), digits to
//! `f32` as they are scanned: no token vector, no per-row object.

use crate::error::DbError;
pub use corgipile_shuffle::StrategyKind;
use corgipile_storage::{FeatureView, TupleView};
use std::collections::BTreeMap;
use std::fmt;

/// A parsed parameter value.
#[derive(Debug, Clone, PartialEq)]
pub enum ParamValue {
    /// Numeric literal.
    Number(f64),
    /// String or bare identifier.
    Text(String),
    /// Byte size (e.g. `10MB` → 10 485 760).
    Bytes(u64),
}

impl ParamValue {
    /// Interpret as f64 where sensible.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            ParamValue::Number(n) => Some(*n),
            ParamValue::Bytes(b) => Some(*b as f64),
            ParamValue::Text(_) => None,
        }
    }

    /// Interpret as usize where sensible.
    pub fn as_usize(&self) -> Option<usize> {
        let f = self.as_f64()?;
        (f >= 0.0 && f.fract() == 0.0).then_some(f as usize)
    }

    /// Interpret as text.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            ParamValue::Text(s) => Some(s),
            _ => None,
        }
    }
}

/// A column reference in a projection list or predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ColumnRef {
    /// The tuple id (stable storage identifier; useful for exact-selectivity
    /// predicates like `id < 4000`).
    Id,
    /// The training label.
    Label,
    /// Feature at index `N`, written `f<N>`.
    Feature(usize),
}

impl ColumnRef {
    /// Parse a column name. Unknown names are structured
    /// [`DbError::UnknownColumn`] errors, not generic parse errors.
    pub fn parse(name: &str) -> Result<Self, DbError> {
        let lower = name.to_ascii_lowercase();
        match lower.as_str() {
            "id" => Ok(ColumnRef::Id),
            "label" => Ok(ColumnRef::Label),
            s => s
                .strip_prefix('f')
                .filter(|idx| idx.bytes().all(|b| b.is_ascii_digit()))
                .and_then(|idx| idx.parse().ok())
                .map(ColumnRef::Feature)
                .ok_or_else(|| {
                    DbError::UnknownColumn(format!("{name} (expected id, label, or f<N>)"))
                }),
        }
    }

    /// Numeric value of this column for a row, read in place.
    pub fn value_of(self, t: TupleView<'_>) -> f64 {
        match self {
            ColumnRef::Id => t.id as f64,
            ColumnRef::Label => f64::from(t.label),
            ColumnRef::Feature(i) => f64::from(t.features.get(i)),
        }
    }
}

impl fmt::Display for ColumnRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ColumnRef::Id => write!(f, "id"),
            ColumnRef::Label => write!(f, "label"),
            ColumnRef::Feature(i) => write!(f, "f{i}"),
        }
    }
}

/// Comparison operator in a predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `=`
    Eq,
    /// `!=` or `<>`
    Ne,
}

impl CmpOp {
    fn parse(tok: &str) -> Option<Self> {
        match tok {
            "<" => Some(CmpOp::Lt),
            "<=" => Some(CmpOp::Le),
            ">" => Some(CmpOp::Gt),
            ">=" => Some(CmpOp::Ge),
            "=" => Some(CmpOp::Eq),
            "!=" | "<>" => Some(CmpOp::Ne),
            _ => None,
        }
    }

    fn eval(self, lhs: f64, rhs: f64) -> bool {
        match self {
            CmpOp::Lt => lhs < rhs,
            CmpOp::Le => lhs <= rhs,
            CmpOp::Gt => lhs > rhs,
            CmpOp::Ge => lhs >= rhs,
            CmpOp::Eq => lhs == rhs,
            CmpOp::Ne => lhs != rhs,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
        };
        write!(f, "{s}")
    }
}

/// A typed `WHERE` predicate: comparisons on `id` / `label` / `f<N>`
/// combined with `AND` (binds tighter) and `OR`, plus parentheses.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// `<column> <op> <number>`.
    Cmp {
        /// Left-hand column.
        col: ColumnRef,
        /// Comparison operator.
        op: CmpOp,
        /// Right-hand numeric literal.
        value: f64,
    },
    /// Conjunction (binds tighter than `Or`).
    And(Box<Predicate>, Box<Predicate>),
    /// Disjunction.
    Or(Box<Predicate>, Box<Predicate>),
}

impl Predicate {
    /// Evaluate the predicate against one row, read in place.
    pub fn matches(&self, t: TupleView<'_>) -> bool {
        match self {
            Predicate::Cmp { col, op, value } => op.eval(col.value_of(t), *value),
            Predicate::And(a, b) => a.matches(t) && b.matches(t),
            Predicate::Or(a, b) => a.matches(t) || b.matches(t),
        }
    }

    /// Visit every column referenced by the predicate (for validation
    /// against the catalog's feature count at planning time).
    pub fn for_each_column(&self, f: &mut impl FnMut(ColumnRef)) {
        match self {
            Predicate::Cmp { col, .. } => f(*col),
            Predicate::And(a, b) | Predicate::Or(a, b) => {
                a.for_each_column(f);
                b.for_each_column(f);
            }
        }
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // `AND` children that are `OR` nodes need parentheses to round-trip;
        // everything else renders flat.
        fn side(p: &Predicate, under_and: bool, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            if under_and && matches!(p, Predicate::Or(..)) {
                write!(f, "({p})")
            } else {
                write!(f, "{p}")
            }
        }
        match self {
            Predicate::Cmp { col, op, value } => write!(f, "{col} {op} {value}"),
            Predicate::And(a, b) => {
                side(a, true, f)?;
                write!(f, " AND ")?;
                side(b, true, f)
            }
            Predicate::Or(a, b) => {
                side(a, false, f)?;
                write!(f, " OR ")?;
                side(b, false, f)
            }
        }
    }
}

/// The `SELECT` projection list.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum Projection {
    /// `SELECT *`: every feature plus the label.
    #[default]
    All,
    /// Explicit column list (feature columns, optionally `label`; the label
    /// is always retained for training regardless).
    Columns(Vec<ColumnRef>),
}

impl Projection {
    /// True for `SELECT *`.
    pub fn is_all(&self) -> bool {
        matches!(self, Projection::All)
    }

    /// The projected feature indices in declared order, or `None` for `*`.
    pub fn feature_indices(&self) -> Option<Vec<usize>> {
        match self {
            Projection::All => None,
            Projection::Columns(cols) => Some(
                cols.iter()
                    .filter_map(|c| match c {
                        ColumnRef::Feature(i) => Some(*i),
                        _ => None,
                    })
                    .collect(),
            ),
        }
    }
}

impl fmt::Display for Projection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Projection::All => write!(f, "*"),
            Projection::Columns(cols) => {
                for (i, c) in cols.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{c}")?;
                }
                Ok(())
            }
        }
    }
}

/// Parse a `WITH strategy = '<name>'` value into the shared
/// [`StrategyKind`] (the shuffle crate's enum is the single source of
/// truth; this crate re-exports it). Unknown names — and kinds that exist
/// for bench parity but are not plannable in the DB (MRS, sliding-window,
/// epoch shuffle) — are rejected with [`DbError::UnknownStrategy`] at
/// parse time, so the planner matches exhaustively over plannable kinds.
pub fn parse_strategy_name(name: &str) -> Result<StrategyKind, DbError> {
    let lower = name.to_ascii_lowercase();
    match StrategyKind::from_name(&lower) {
        Some(kind) if kind.available_in_db() => Ok(kind),
        _ => Err(DbError::UnknownStrategy(lower)),
    }
}

/// The rows of an `INSERT`, row-major in one buffer: each row's `width`
/// feature values, then its label; `values` holds whole rows only.
#[derive(Debug, Clone, PartialEq)]
pub struct InsertRows {
    width: usize,
    values: Vec<f32>,
}

impl InsertRows {
    /// Feature values per row (the label not counted).
    pub fn width(&self) -> usize {
        self.width
    }

    /// The rows, read in place; ids are the append writer's to assign.
    pub fn views(&self) -> impl ExactSizeIterator<Item = TupleView<'_>> + Clone {
        self.values.chunks_exact(self.width + 1).map(|row| {
            let (label, features) = row.split_last().expect("a row holds its label");
            TupleView {
                id: 0,
                label: *label,
                features: FeatureView::Dense(features),
            }
        })
    }
}

/// A parsed query.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// `SELECT <cols|*> FROM <table> [WHERE <pred>] TRAIN BY <model>
    /// [CONTINUOUS] [WITH k = v, …]`.
    Train {
        /// Source table.
        table: String,
        /// Model kind name (`svm`, `lr`, `linreg`, `softmax`, `mlp`).
        model: String,
        /// Projection list (`*` or explicit columns).
        projection: Projection,
        /// Optional `WHERE` predicate.
        filter: Option<Predicate>,
        /// Shuffle strategy from the `strategy` parameter. `None` means the
        /// query left the choice to the cost-based planner.
        strategy: Option<StrategyKind>,
        /// `TRAIN BY <model> CONTINUOUS`: re-pin the latest table snapshot
        /// every `refresh` epochs so concurrently `INSERT`ed rows join the
        /// stream at epoch boundaries (without it, training pins one
        /// snapshot for its whole run).
        continuous: bool,
        /// Remaining `WITH` parameters.
        params: BTreeMap<String, ParamValue>,
    },
    /// `INSERT INTO <table> VALUES (f0, …, label) [, (…)]*`: append rows
    /// to a table's WAL-backed writer and publish a new snapshot version.
    /// Each row lists the dense feature values followed by the label; the
    /// tuple id is assigned by the writer (next sequence position).
    Insert {
        /// Destination table.
        table: String,
        /// Rows as parsed, features and label already narrowed to `f32`.
        rows: InsertRows,
    },
    /// `RECLUSTER <table> [WITH io_budget = f, seed = n]`: Corgi²-style
    /// bounded-I/O offline partial re-clustering. Rewrites the most
    /// variance-reducing block prefix of a full shuffle, spending at most
    /// `io_budget` × (full-shuffle I/O), and registers the re-clustered
    /// table under `<table>_reclustered`.
    Recluster {
        /// Table to re-cluster.
        table: String,
        /// `WITH` parameters (`io_budget`, `seed`).
        params: BTreeMap<String, ParamValue>,
    },
    /// `SELECT * FROM <table> PREDICT BY <model_name>`.
    Predict {
        /// Source table.
        table: String,
        /// Stored model name.
        model: String,
    },
    /// `PREDICT <model> [VERSION n] ON <table> [WHERE pred] [WITH k = v, …]`:
    /// the serving subsystem's batched inference query. The batch pins one
    /// immutable cached model version for its whole run; without `VERSION`
    /// it pins whatever version is active at dispatch.
    PredictServe {
        /// Served model name.
        model: String,
        /// Explicit version pin (`VERSION n`); `None` pins the active one.
        version: Option<u32>,
        /// Source table.
        table: String,
        /// Optional `WHERE` predicate, evaluated by the scan.
        filter: Option<Predicate>,
        /// `WITH` parameters (`batch_rows`, …).
        params: BTreeMap<String, ParamValue>,
    },
    /// `EXPLAIN <train query>`: show the physical plan without running it.
    Explain(Box<Query>),
    /// `EXPLAIN ANALYZE <query>`: run the query and annotate the plan with
    /// actual per-operator statistics (rows, simulated I/O seconds, cache
    /// hit rate, retries).
    ExplainAnalyze(Box<Query>),
    /// `SHOW TABLES` / `SHOW MODELS` / `SHOW STATS`.
    Show {
        /// What to list.
        what: ShowTarget,
    },
    /// `LOAD MODEL <name> [VERSION n] [AS ACTIVE]`: re-register a durable
    /// model store version of `name` into the in-memory catalog (the latest
    /// without `VERSION`), and with `AS ACTIVE` promote it to the version
    /// the serving cache pins for new `PREDICT` batches.
    LoadModel {
        /// Model name in the store.
        name: String,
        /// Explicit store version; `None` loads the latest.
        version: Option<u32>,
        /// Promote the loaded version to serving-active (`AS ACTIVE`).
        activate: bool,
    },
}

/// The object of a `SHOW` query.
///
/// Replaces the old stringly-typed `Show { what: String }`: unknown targets
/// are rejected at parse time, so the executor matches exhaustively.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShowTarget {
    /// `SHOW TABLES`: registered tables with block/tuple counts.
    Tables,
    /// `SHOW MODELS`: stored models with dimensions and kind.
    Models,
    /// `SHOW STATS`: session telemetry counters.
    Stats,
}

impl ShowTarget {
    fn from_ident(ident: &str) -> Result<Self, DbError> {
        match ident.to_ascii_lowercase().as_str() {
            "tables" => Ok(ShowTarget::Tables),
            "models" => Ok(ShowTarget::Models),
            "stats" => Ok(ShowTarget::Stats),
            other => Err(DbError::Parse(format!("SHOW {other} not supported"))),
        }
    }
}

/// The token stream, produced on demand from the query text. Lexing is
/// ASCII: whitespace separates tokens, `, = * ; ( )` and the comparison
/// operators stand alone, `'…'` is a quoted string (the quotes dropped),
/// and every other run of bytes, non-ASCII ones included, is a word.
struct Tokens<'a> {
    src: &'a str,
    pos: usize,
}

fn is_space(b: u8) -> bool {
    matches!(b, b'\t'..=b'\r' | b' ')
}

fn ends_word(b: u8) -> bool {
    is_space(b)
        || matches!(
            b,
            b',' | b'=' | b'*' | b';' | b'(' | b')' | b'\'' | b'<' | b'>' | b'!'
        )
}

/// `10^k` for `k ≤ 19`, each exact in `f64`.
const POW10: [f64; 20] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17, 1e18, 1e19,
];

impl<'a> Tokens<'a> {
    /// Offset of the next non-space byte, if any.
    fn skip_space(&self) -> Option<usize> {
        (self.pos..self.src.len()).find(|&i| !is_space(self.src.as_bytes()[i]))
    }

    /// The next token and the offset just past it, consuming nothing.
    fn next_token(&self) -> Option<(&'a str, usize)> {
        let bytes = self.src.as_bytes();
        let start = self.skip_space()?;
        let end = match bytes[start] {
            b',' | b'=' | b'*' | b';' | b'(' | b')' => start + 1,
            // Comparison operators, including `<=`, `>=`, `!=` and `<>`.
            c @ (b'<' | b'>' | b'!') => match (c, bytes.get(start + 1)) {
                (_, Some(b'=')) | (b'<', Some(b'>')) => start + 2,
                _ => start + 1,
            },
            b'\'' => {
                let close = (start + 1..bytes.len()).find(|&j| bytes[j] == b'\'');
                let close = close.unwrap_or(bytes.len());
                return Some((&self.src[start + 1..close], bytes.len().min(close + 1)));
            }
            _ => (start..bytes.len())
                .find(|&j| ends_word(bytes[j]))
                .unwrap_or(bytes.len()),
        };
        Some((&self.src[start..end], end))
    }

    fn peek(&self) -> Option<&'a str> {
        self.next_token().map(|(tok, _)| tok)
    }

    fn bump(&mut self) -> Option<&'a str> {
        let (tok, end) = self.next_token()?;
        self.pos = end;
        Some(tok)
    }

    /// Consume the next token if it is `kw` (ASCII case-insensitive).
    fn eat(&mut self, kw: &str) -> bool {
        match self.next_token() {
            Some((tok, end)) if tok.eq_ignore_ascii_case(kw) => {
                self.pos = end;
                true
            }
            _ => false,
        }
    }

    /// The next `INSERT` value as the table stores it: the token's
    /// `str::parse::<f64>()` narrowed to a finite `f32`, by
    /// [`fast_decimal`] where it applies.
    fn value(&mut self) -> Result<f32, DbError> {
        let start = self
            .skip_space()
            .ok_or_else(|| DbError::Parse("expected numeric literal, found end of input".into()))?;
        if let Some((v, len)) = fast_decimal(&self.src.as_bytes()[start..]) {
            self.pos = start + len;
            return Ok(v as f32);
        }
        let tok = self
            .bump()
            .expect("a token starts at the next non-space byte");
        // Finite as stored: `1e39` parses as f64 but is `inf` in f32.
        match tok.parse::<f64>().map(|v| v as f32) {
            Ok(v) if v.is_finite() => Ok(v),
            _ => Err(DbError::Parse(format!(
                "INSERT values must be finite f32 numeric literals, found {tok:?}"
            ))),
        }
    }

    /// The parse error for `what` missing where the next token stands.
    fn expected(&self, what: &str) -> DbError {
        let found = self
            .peek()
            .map_or("end of input".into(), |t| format!("{t:?}"));
        DbError::Parse(format!("expected {what}, found {found}"))
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), DbError> {
        self.eat(kw).then_some(()).ok_or_else(|| self.expected(kw))
    }

    fn ident(&mut self, what: &str) -> Result<String, DbError> {
        match self.peek() {
            Some(t) if !t.is_empty() && t.chars().all(|c| c.is_alphanumeric() || c == '_') => {
                self.bump();
                Ok(t.to_string())
            }
            _ => Err(self.expected(what)),
        }
    }
}

/// Clinger's fast path over the word that starts `bytes`, if it is a plain
/// decimal (`[+-]`, at most 19 digits, one optional `.`): the digits are
/// folded into an integer `m` with `k ≤ 19` fractional digits as they are
/// scanned, and with `m ≤ 2^53` both `m` and `10^k` are exact in `f64`, so
/// `m / 10^k` is one correctly rounded division, the value
/// `str::parse::<f64>` returns. Returns it and the word's length; `None`
/// for any other word (exponents, `inf`, longer literals, …).
fn fast_decimal(bytes: &[u8]) -> Option<(f64, usize)> {
    let neg = bytes.first() == Some(&b'-');
    let start = usize::from(neg || bytes.first() == Some(&b'+'));
    let digit = |i: usize| Some(bytes.get(i)?.wrapping_sub(b'0')).filter(|&d| d < 10);
    let (mut m, mut i) = (0u64, start);
    let mut fold = |i: &mut usize| {
        while let Some(d) = digit(*i) {
            m = m.wrapping_mul(10).wrapping_add(u64::from(d));
            *i += 1;
        }
    };
    fold(&mut i);
    let int_end = i;
    if bytes.get(i) == Some(&b'.') {
        i += 1;
        fold(&mut i);
    }
    // Digits after the point; more than 19 digits in all may have wrapped `m`.
    let frac = (i - int_end).saturating_sub(1);
    let digits = int_end - start + frac;
    let exact = (1..=19).contains(&digits) && m <= 1 << 53;
    (exact && bytes.get(i).is_none_or(|&b| ends_word(b))).then(|| {
        let v = m as f64 / POW10[frac];
        (if neg { -v } else { v }, i)
    })
}

fn parse_value(tok: &str) -> ParamValue {
    if let Ok(n) = tok.parse::<f64>() {
        return ParamValue::Number(n);
    }
    // Byte sizes: <number><KB|MB|GB>.
    let upper = tok.to_ascii_uppercase();
    for (suffix, mult) in [
        ("KB", 1u64 << 10),
        ("MB", 1 << 20),
        ("GB", 1 << 30),
        ("B", 1),
    ] {
        if let Some(num) = upper.strip_suffix(suffix) {
            if let Ok(n) = num.parse::<f64>() {
                return ParamValue::Bytes((n * mult as f64) as u64);
            }
        }
    }
    ParamValue::Text(tok.to_string())
}

/// Parse one statement, optionally followed by a `;`.
pub fn parse(input: &str) -> Result<Query, DbError> {
    let mut t = Tokens { src: input, pos: 0 };
    let query = parse_tokens(&mut t)?;
    t.eat(";");
    match t.peek() {
        None => Ok(query),
        Some(_) => Err(t.expected("end of query")),
    }
}

// Predicate grammar (lowest to highest precedence):
//   pred    := and (OR and)*
//   and     := primary (AND primary)*
//   primary := '(' pred ')' | column cmp number
fn parse_predicate(t: &mut Tokens) -> Result<Predicate, DbError> {
    let mut left = parse_and(t)?;
    while t.eat("OR") {
        let right = parse_and(t)?;
        left = Predicate::Or(Box::new(left), Box::new(right));
    }
    Ok(left)
}

fn parse_and(t: &mut Tokens) -> Result<Predicate, DbError> {
    let mut left = parse_cmp_or_group(t)?;
    while t.eat("AND") {
        let right = parse_cmp_or_group(t)?;
        left = Predicate::And(Box::new(left), Box::new(right));
    }
    Ok(left)
}

fn parse_cmp_or_group(t: &mut Tokens) -> Result<Predicate, DbError> {
    if t.eat("(") {
        let inner = parse_predicate(t)?;
        t.expect_kw(")")?;
        return Ok(inner);
    }
    let col = ColumnRef::parse(&t.ident("predicate column")?)?;
    let op = t.peek().and_then(CmpOp::parse);
    let op = op.ok_or_else(|| t.expected("comparison operator (< <= > >= = != <>)"))?;
    t.bump();
    match t.bump() {
        Some(tok) => match tok.parse::<f64>() {
            Ok(value) if value.is_finite() => Ok(Predicate::Cmp { col, op, value }),
            _ => Err(DbError::Parse(format!(
                "predicate {col} {op} {tok}: right-hand side must be a finite numeric literal"
            ))),
        },
        None => Err(DbError::Parse(
            "expected numeric literal, found end of input".into(),
        )),
    }
}

/// Optional `VERSION <n>` clause (`PREDICT`, `LOAD MODEL`).
fn parse_version(t: &mut Tokens) -> Result<Option<u32>, DbError> {
    if !t.eat("VERSION") {
        return Ok(None);
    }
    match t.peek().map(str::parse::<u32>) {
        Some(Ok(v)) if v >= 1 => {
            t.bump();
            Ok(Some(v))
        }
        _ => Err(t.expected("a positive VERSION number")),
    }
}

/// Optional `WITH k = v, …` tail; what follows it is the statement's end.
fn parse_with_params(t: &mut Tokens) -> Result<BTreeMap<String, ParamValue>, DbError> {
    let mut params = BTreeMap::new();
    if t.eat("WITH") {
        loop {
            let key = t.ident("parameter name")?.to_ascii_lowercase();
            t.expect_kw("=")?;
            let val = t
                .bump()
                .ok_or_else(|| DbError::Parse(format!("missing value for {key}")))?;
            params.insert(key, parse_value(val));
            if !t.eat(",") {
                break;
            }
        }
    }
    Ok(params)
}

fn parse_projection(t: &mut Tokens) -> Result<Projection, DbError> {
    if t.eat("*") {
        return Ok(Projection::All);
    }
    let mut cols = vec![ColumnRef::parse(&t.ident("projection column")?)?];
    while t.eat(",") {
        cols.push(ColumnRef::parse(&t.ident("projection column")?)?);
    }
    Ok(Projection::Columns(cols))
}

/// `INSERT`'s `(v, …, label) [, (…)]*`, scanned straight into one
/// row-major buffer. The first row fixes the width and, from its length in
/// the text, reserves room for the rows after it.
fn parse_rows(t: &mut Tokens) -> Result<InsertRows, DbError> {
    let (mut values, mut width) = (Vec::new(), 0);
    loop {
        let (row_start, text_start) = (values.len(), t.pos);
        t.expect_kw("(")?;
        loop {
            values.push(t.value()?);
            match t.skip_space().map(|i| (i, t.src.as_bytes()[i])) {
                Some((i, b',')) => t.pos = i + 1,
                Some((i, b')')) => {
                    t.pos = i + 1;
                    break;
                }
                _ => return Err(t.expected("',' or ')'")),
            }
        }
        let n = values.len() - row_start;
        if n < 2 {
            return Err(DbError::Parse(
                "INSERT rows need at least one feature value and a label".into(),
            ));
        }
        if width == 0 {
            width = n;
            values.reserve(n * ((t.src.len() - t.pos) / (t.pos - text_start)));
        } else if n != width {
            return Err(DbError::BadParam(format!(
                "INSERT row has {} features, the statement's first row has {}",
                n - 1,
                width - 1
            )));
        }
        if !t.eat(",") {
            return Ok(InsertRows {
                width: width - 1,
                values,
            });
        }
    }
}

/// Parse one query from the remaining token stream. `EXPLAIN [ANALYZE]`
/// recurses over the tokens that follow the keyword rather than re-finding
/// a substring in the raw input.
fn parse_tokens(t: &mut Tokens) -> Result<Query, DbError> {
    if t.eat("EXPLAIN") {
        return Ok(if t.eat("ANALYZE") {
            Query::ExplainAnalyze(Box::new(parse_tokens(t)?))
        } else {
            Query::Explain(Box::new(parse_tokens(t)?))
        });
    }
    if t.eat("SHOW") {
        let what = ShowTarget::from_ident(&t.ident("TABLES, MODELS or STATS")?)?;
        return Ok(Query::Show { what });
    }
    if t.eat("LOAD") {
        t.expect_kw("MODEL")?;
        let name = t.ident("model name")?;
        let version = parse_version(t)?;
        let activate = t.eat("AS");
        if activate {
            t.expect_kw("ACTIVE")?;
        }
        return Ok(Query::LoadModel {
            name,
            version,
            activate,
        });
    }
    if t.eat("INSERT") {
        t.expect_kw("INTO")?;
        let table = t.ident("table name")?;
        t.expect_kw("VALUES")?;
        let rows = parse_rows(t)?;
        return Ok(Query::Insert { table, rows });
    }
    if t.eat("RECLUSTER") {
        let table = t.ident("table name")?;
        let params = parse_with_params(t)?;
        return Ok(Query::Recluster { table, params });
    }
    if t.eat("PREDICT") {
        // The serving query: `PREDICT <model> [VERSION n] ON <table>
        // [WHERE pred] [WITH k = v, …]`.
        let model = t.ident("model name")?;
        let version = parse_version(t)?;
        t.expect_kw("ON")?;
        let table = t.ident("table name")?;
        let filter = t.eat("WHERE").then(|| parse_predicate(t)).transpose()?;
        let params = parse_with_params(t)?;
        return Ok(Query::PredictServe {
            model,
            version,
            table,
            filter,
            params,
        });
    }
    t.expect_kw("SELECT")?;
    let projection = parse_projection(t)?;
    t.expect_kw("FROM")?;
    let table = t.ident("table name")?;
    let filter = t.eat("WHERE").then(|| parse_predicate(t)).transpose()?;
    let verb = t
        .bump()
        .ok_or_else(|| DbError::Parse("expected TRAIN or PREDICT".into()))?;
    if verb.eq_ignore_ascii_case("TRAIN") {
        t.expect_kw("BY")?;
        let model = t.ident("model kind")?.to_ascii_lowercase();
        let continuous = t.eat("CONTINUOUS");
        let mut params = parse_with_params(t)?;
        // Typed at parse time: unknown names never reach the planner.
        let strategy = match params.remove("strategy") {
            None => None,
            Some(ParamValue::Text(name)) => Some(parse_strategy_name(&name)?),
            Some(other) => {
                return Err(DbError::BadParam(format!(
                    "strategy must be a name, got {other:?}"
                )))
            }
        };
        Ok(Query::Train {
            table,
            model,
            projection,
            filter,
            strategy,
            continuous,
            params,
        })
    } else if verb.eq_ignore_ascii_case("PREDICT") {
        if !projection.is_all() {
            return Err(DbError::Parse(
                "PREDICT BY requires SELECT * (projections apply to TRAIN only)".into(),
            ));
        }
        if filter.is_some() {
            return Err(DbError::Parse(
                "PREDICT BY does not support WHERE (filters apply to TRAIN only)".into(),
            ));
        }
        t.expect_kw("BY")?;
        let model = t.ident("model name")?;
        Ok(Query::Predict { table, model })
    } else {
        Err(DbError::Parse(format!(
            "expected TRAIN or PREDICT, found {verb:?}"
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corgipile_storage::Tuple;
    use proptest::prelude::*;

    fn train_parts(
        input: &str,
    ) -> (
        String,
        String,
        Projection,
        Option<Predicate>,
        Option<StrategyKind>,
    ) {
        match parse(input).unwrap() {
            Query::Train {
                table,
                model,
                projection,
                filter,
                strategy,
                ..
            } => (table, model, projection, filter, strategy),
            other => panic!("expected Train, got {other:?}"),
        }
    }

    #[test]
    fn parses_minimal_train() {
        let q = parse("SELECT * FROM forest TRAIN BY svm").unwrap();
        assert_eq!(
            q,
            Query::Train {
                table: "forest".into(),
                model: "svm".into(),
                projection: Projection::All,
                filter: None,
                strategy: None,
                continuous: false,
                params: BTreeMap::new()
            }
        );
    }

    #[test]
    fn parses_train_continuous() {
        match parse(
            "SELECT * FROM stream TRAIN BY svm CONTINUOUS WITH refresh = 2, max_epoch_num = 6;",
        )
        .unwrap()
        {
            Query::Train {
                table,
                continuous,
                params,
                ..
            } => {
                assert_eq!(table, "stream");
                assert!(continuous);
                assert_eq!(params["refresh"].as_usize(), Some(2));
            }
            other => panic!("expected Train, got {other:?}"),
        }
        // Lowercase, and without WITH.
        assert!(matches!(
            parse("select * from t train by lr continuous").unwrap(),
            Query::Train {
                continuous: true,
                ..
            }
        ));
        // CONTINUOUS comes after the model kind, nowhere else.
        assert!(parse("SELECT * FROM t TRAIN CONTINUOUS BY svm").is_err());
    }

    #[test]
    fn parses_insert() {
        assert_eq!(
            parse("INSERT INTO t VALUES (0.5, -1.25, 1)").unwrap(),
            Query::Insert {
                table: "t".into(),
                rows: InsertRows {
                    width: 2,
                    values: vec![0.5, -1.25, 1.0]
                }
            }
        );
        // Multi-row COPY-style append, trailing semicolon, lowercase.
        let q = parse("insert into s values (1, 2, 1), (3, 4, -1);").unwrap();
        assert_eq!(
            q,
            Query::Insert {
                table: "s".into(),
                rows: InsertRows {
                    width: 2,
                    values: vec![1.0, 2.0, 1.0, 3.0, 4.0, -1.0]
                }
            }
        );
        let Query::Insert { rows, .. } = q else {
            unreachable!()
        };
        let views: Vec<TupleView<'_>> = rows.views().collect();
        assert_eq!(views.len(), 2);
        assert_eq!(views[1].to_tuple(), Tuple::dense(0, vec![3.0, 4.0], -1.0));
    }

    #[test]
    fn insert_rejects_malformed_rows() {
        for bad in [
            "INSERT",
            "INSERT INTO",
            "INSERT INTO t",
            "INSERT INTO t VALUES",
            "INSERT INTO t VALUES ()",
            "INSERT INTO t VALUES (1)", // a row is features *and* a label
            "INSERT INTO t VALUES (1, x)",
            "INSERT INTO t VALUES (1, 2",
            "INSERT INTO t VALUES (1, 2) extra",
            "INSERT t VALUES (1, 2)",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn insert_rejects_values_that_are_not_finite_in_f32() {
        // 1e39 is a finite f64 but overflows the f32 the table stores.
        for bad in ["1e39", "-1e39", "1e999", "NaN", "inf"] {
            for sql in [
                format!("INSERT INTO t VALUES ({bad}, 1)"),
                format!("INSERT INTO t VALUES (1, {bad})"),
            ] {
                assert!(
                    matches!(parse(&sql), Err(DbError::Parse(m)) if m.contains("finite")),
                    "{sql:?} should be rejected as non-finite"
                );
            }
        }
        // The largest f32 still goes through.
        assert!(parse("INSERT INTO t VALUES (3.4028234e38, 1)").is_ok());
    }

    #[test]
    fn parses_full_train_with_params() {
        let q = parse(
            "SELECT * FROM t TRAIN BY lr WITH learning_rate = 0.1, \
             max_epoch_num = 20, block_size = 10MB, strategy = 'corgipile', \
             buffer_fraction = 0.1, model_name = m1;",
        )
        .unwrap();
        match q {
            Query::Train {
                table,
                model,
                strategy,
                params,
                ..
            } => {
                assert_eq!(table, "t");
                assert_eq!(model, "lr");
                assert_eq!(params["learning_rate"], ParamValue::Number(0.1));
                assert_eq!(params["max_epoch_num"].as_usize(), Some(20));
                assert_eq!(params["block_size"], ParamValue::Bytes(10 << 20));
                assert_eq!(strategy, Some(StrategyKind::CorgiPile));
                assert!(!params.contains_key("strategy"), "strategy is typed now");
                assert_eq!(params["model_name"].as_text(), Some("m1"));
            }
            _ => panic!("wrong variant"),
        }
    }

    #[test]
    fn parses_predict() {
        let q = parse("SELECT * FROM t PREDICT BY my_model").unwrap();
        assert_eq!(
            q,
            Query::Predict {
                table: "t".into(),
                model: "my_model".into()
            }
        );
    }

    #[test]
    fn keywords_are_case_insensitive() {
        assert!(parse("select * from t train by svm").is_ok());
        assert!(parse("SeLeCt * FrOm t PrEdIcT bY m").is_ok());
    }

    #[test]
    fn byte_sizes_parse() {
        assert_eq!(parse_value("512KB"), ParamValue::Bytes(512 << 10));
        assert_eq!(parse_value("2GB"), ParamValue::Bytes(2 << 30));
        assert_eq!(parse_value("10mb"), ParamValue::Bytes(10 << 20));
        assert_eq!(parse_value("128B"), ParamValue::Bytes(128));
    }

    #[test]
    fn rejects_malformed_queries() {
        for bad in [
            "",
            "SELECT * FROM",
            "SELECT * FROM t",
            "SELECT * FROM t TRAIN svm",
            "SELECT * FROM t LEARN BY svm",
            "SELECT * FROM t TRAIN BY svm WITH",
            "SELECT * FROM t TRAIN BY svm WITH lr 0.1",
            "INSERT INTO t VALUES (1)",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn param_value_coercions() {
        assert_eq!(ParamValue::Number(2.0).as_usize(), Some(2));
        assert_eq!(ParamValue::Number(2.5).as_usize(), None);
        assert_eq!(ParamValue::Number(-1.0).as_usize(), None);
        assert_eq!(ParamValue::Text("x".into()).as_f64(), None);
        assert_eq!(ParamValue::Bytes(8).as_usize(), Some(8));
    }

    #[test]
    fn parses_explain_and_show() {
        let q = parse("EXPLAIN SELECT * FROM t TRAIN BY svm").unwrap();
        assert!(matches!(q, Query::Explain(inner) if matches!(*inner, Query::Train { .. })));
        assert_eq!(
            parse("SHOW TABLES").unwrap(),
            Query::Show {
                what: ShowTarget::Tables
            }
        );
        assert_eq!(
            parse("show models").unwrap(),
            Query::Show {
                what: ShowTarget::Models
            }
        );
        assert!(parse("EXPLAIN").is_err());
    }

    #[test]
    fn parses_explain_analyze_and_show_stats() {
        let q = parse("EXPLAIN ANALYZE SELECT * FROM t TRAIN BY svm WITH strategy = 'corgipile'")
            .unwrap();
        match q {
            Query::ExplainAnalyze(inner) => match *inner {
                Query::Train {
                    ref table,
                    ref model,
                    strategy,
                    ..
                } => {
                    assert_eq!(table, "t");
                    assert_eq!(model, "svm");
                    assert_eq!(strategy, Some(StrategyKind::CorgiPile));
                }
                ref other => panic!("expected Train inside, got {other:?}"),
            },
            other => panic!("expected ExplainAnalyze, got {other:?}"),
        }
        let p = parse("explain analyze SELECT * FROM t PREDICT BY m").unwrap();
        assert!(
            matches!(p, Query::ExplainAnalyze(inner) if matches!(*inner, Query::Predict { .. }))
        );
        assert_eq!(
            parse("SHOW STATS").unwrap(),
            Query::Show {
                what: ShowTarget::Stats
            }
        );
        assert!(parse("EXPLAIN ANALYZE").is_err());
    }

    #[test]
    fn parses_load_model() {
        assert_eq!(
            parse("LOAD MODEL m1").unwrap(),
            Query::LoadModel {
                name: "m1".into(),
                version: None,
                activate: false
            }
        );
        assert_eq!(
            parse("load model forest_svm").unwrap(),
            Query::LoadModel {
                name: "forest_svm".into(),
                version: None,
                activate: false
            }
        );
        assert!(parse("LOAD MODEL").is_err(), "name is required");
        assert!(parse("LOAD m1").is_err(), "MODEL keyword is required");
    }

    #[test]
    fn parses_load_model_version_and_activation() {
        assert_eq!(
            parse("LOAD MODEL m VERSION 3").unwrap(),
            Query::LoadModel {
                name: "m".into(),
                version: Some(3),
                activate: false
            }
        );
        assert_eq!(
            parse("load model m version 2 as active;").unwrap(),
            Query::LoadModel {
                name: "m".into(),
                version: Some(2),
                activate: true
            }
        );
        assert_eq!(
            parse("LOAD MODEL m AS ACTIVE").unwrap(),
            Query::LoadModel {
                name: "m".into(),
                version: None,
                activate: true
            }
        );
        for bad in [
            "LOAD MODEL m VERSION",
            "LOAD MODEL m VERSION 0",
            "LOAD MODEL m VERSION two",
            "LOAD MODEL m AS",
            "LOAD MODEL m AS PASSIVE",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn parses_predict_serve() {
        assert_eq!(
            parse("PREDICT m ON t").unwrap(),
            Query::PredictServe {
                model: "m".into(),
                version: None,
                table: "t".into(),
                filter: None,
                params: BTreeMap::new()
            }
        );
        match parse("predict fsvm version 2 on forest where f1 > 0.5 with batch_rows = 512;")
            .unwrap()
        {
            Query::PredictServe {
                model,
                version,
                table,
                filter,
                params,
            } => {
                assert_eq!(model, "fsvm");
                assert_eq!(version, Some(2));
                assert_eq!(table, "forest");
                assert_eq!(
                    filter,
                    Some(Predicate::Cmp {
                        col: ColumnRef::Feature(1),
                        op: CmpOp::Gt,
                        value: 0.5
                    })
                );
                assert_eq!(params["batch_rows"].as_usize(), Some(512));
            }
            other => panic!("expected PredictServe, got {other:?}"),
        }
        let q = parse("EXPLAIN PREDICT m ON t WHERE label = 1").unwrap();
        assert!(matches!(q, Query::Explain(inner)
            if matches!(*inner, Query::PredictServe { .. })));
        for bad in [
            "PREDICT ON t",
            "PREDICT m t",
            "PREDICT m ON",
            "PREDICT m VERSION x ON t",
            "PREDICT m ON t WITH",
            "PREDICT m ON t WHERE qty > 1",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn unknown_show_targets_are_parse_errors() {
        for bad in ["SHOW SECRETS", "SHOW TABLE", "SHOW statz", "SHOW"] {
            match parse(bad) {
                Err(DbError::Parse(msg)) => {
                    assert!(
                        msg.contains("not supported") || msg.contains("end of input"),
                        "{bad:?}: unexpected message {msg:?}"
                    );
                }
                other => panic!("{bad:?}: expected parse error, got {other:?}"),
            }
        }
    }

    #[test]
    fn explain_recurses_over_tokens_not_substrings() {
        // Nested EXPLAIN parses by recursion over the remaining tokens.
        let q = parse("EXPLAIN EXPLAIN SELECT * FROM t TRAIN BY svm").unwrap();
        match q {
            Query::Explain(inner) => {
                assert!(matches!(*inner, Query::Explain(ref inner2)
                    if matches!(**inner2, Query::Train { .. })));
            }
            other => panic!("expected nested Explain, got {other:?}"),
        }
        // Identifiers containing the keyword must not confuse the parser.
        let q = parse("EXPLAIN SELECT * FROM explained TRAIN BY svm").unwrap();
        assert!(matches!(q, Query::Explain(inner)
            if matches!(*inner, Query::Train { ref table, .. } if table == "explained")));
    }

    #[test]
    fn trailing_semicolon_and_quotes() {
        let q = parse("SELECT * FROM t TRAIN BY svm WITH strategy = 'once';").unwrap();
        match q {
            Query::Train { strategy, .. } => {
                assert_eq!(strategy, Some(StrategyKind::ShuffleOnce));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn unknown_strategy_is_rejected_at_parse_time() {
        // Unknown names and bench-only (non-plannable) kinds alike: MRS and
        // sliding-window exist in the shared enum but are not DB-plannable.
        for bad in ["mrs", "sliding_window", "CORGI", ""] {
            match parse(&format!(
                "SELECT * FROM t TRAIN BY svm WITH strategy = '{bad}'"
            )) {
                Err(DbError::UnknownStrategy(s)) => assert_eq!(s, bad.to_ascii_lowercase()),
                other => panic!("strategy {bad:?}: expected UnknownStrategy, got {other:?}"),
            }
        }
        // Non-text strategy values are parameter errors, not strategies.
        assert!(matches!(
            parse("SELECT * FROM t TRAIN BY svm WITH strategy = 3"),
            Err(DbError::BadParam(_))
        ));
    }

    #[test]
    fn strategy_names_round_trip() {
        for kind in StrategyKind::all() {
            if kind.available_in_db() {
                assert_eq!(parse_strategy_name(kind.name()).unwrap(), kind);
            } else {
                assert!(matches!(
                    parse_strategy_name(kind.name()),
                    Err(DbError::UnknownStrategy(_))
                ));
            }
        }
        // Historical SQL short spellings stay accepted.
        assert_eq!(parse_strategy_name("no").unwrap(), StrategyKind::NoShuffle);
        assert_eq!(
            parse_strategy_name("ONCE").unwrap(),
            StrategyKind::ShuffleOnce
        );
        assert!(StrategyKind::CorgiPile.is_tuple_buffered());
        assert!(StrategyKind::TupleOnly.is_tuple_buffered());
        assert!(StrategyKind::Corgi2.is_tuple_buffered());
        assert!(!StrategyKind::NoShuffle.is_tuple_buffered());
    }

    #[test]
    fn parses_recluster() {
        assert_eq!(
            parse("RECLUSTER forest").unwrap(),
            Query::Recluster {
                table: "forest".into(),
                params: BTreeMap::new()
            }
        );
        match parse("recluster forest with io_budget = 0.3, seed = 7;").unwrap() {
            Query::Recluster { table, params } => {
                assert_eq!(table, "forest");
                assert_eq!(params["io_budget"], ParamValue::Number(0.3));
                assert_eq!(params["seed"].as_usize(), Some(7));
            }
            other => panic!("expected Recluster, got {other:?}"),
        }
        assert!(parse("RECLUSTER").is_err(), "table name is required");
        assert!(parse("RECLUSTER t EXTRA").is_err());
    }

    #[test]
    fn parses_where_predicates_with_all_operators() {
        let (_, _, _, filter, _) = train_parts("SELECT * FROM t WHERE f3 >= 0.5 TRAIN BY svm");
        assert_eq!(
            filter,
            Some(Predicate::Cmp {
                col: ColumnRef::Feature(3),
                op: CmpOp::Ge,
                value: 0.5
            })
        );
        for (text, op) in [
            ("<", CmpOp::Lt),
            ("<=", CmpOp::Le),
            (">", CmpOp::Gt),
            (">=", CmpOp::Ge),
            ("=", CmpOp::Eq),
            ("!=", CmpOp::Ne),
            ("<>", CmpOp::Ne),
        ] {
            let (_, _, _, filter, _) = train_parts(&format!(
                "SELECT * FROM t WHERE label {text} 1 TRAIN BY svm"
            ));
            match filter {
                Some(Predicate::Cmp {
                    col: ColumnRef::Label,
                    op: got,
                    value,
                }) => {
                    assert_eq!(got, op, "{text}");
                    assert_eq!(value, 1.0);
                }
                other => panic!("{text}: {other:?}"),
            }
        }
        // Operators bind without whitespace too.
        let (_, _, _, filter, _) = train_parts("SELECT * FROM t WHERE f0<=-1.5 TRAIN BY svm");
        assert_eq!(
            filter,
            Some(Predicate::Cmp {
                col: ColumnRef::Feature(0),
                op: CmpOp::Le,
                value: -1.5
            })
        );
    }

    #[test]
    fn and_binds_tighter_than_or() {
        let (_, _, _, filter, _) =
            train_parts("SELECT * FROM t WHERE f1 > 0 AND f2 > 0 OR label = 1 TRAIN BY svm");
        // (f1 > 0 AND f2 > 0) OR label = 1
        match filter.unwrap() {
            Predicate::Or(lhs, rhs) => {
                assert!(matches!(*lhs, Predicate::And(..)), "lhs: {lhs:?}");
                assert!(
                    matches!(
                        *rhs,
                        Predicate::Cmp {
                            col: ColumnRef::Label,
                            ..
                        }
                    ),
                    "rhs: {rhs:?}"
                );
            }
            other => panic!("expected OR at root, got {other:?}"),
        }
        // OR then AND: the AND still groups its own operands.
        let (_, _, _, filter, _) =
            train_parts("SELECT * FROM t WHERE label = 1 OR f1 > 0 AND f2 > 0 TRAIN BY svm");
        match filter.unwrap() {
            Predicate::Or(lhs, rhs) => {
                assert!(matches!(*lhs, Predicate::Cmp { .. }));
                assert!(matches!(*rhs, Predicate::And(..)));
            }
            other => panic!("expected OR at root, got {other:?}"),
        }
    }

    #[test]
    fn parentheses_override_precedence() {
        let (_, _, _, filter, _) =
            train_parts("SELECT * FROM t WHERE f1 > 0 AND (f2 > 0 OR label = 1) TRAIN BY svm");
        match filter.unwrap() {
            Predicate::And(lhs, rhs) => {
                assert!(matches!(*lhs, Predicate::Cmp { .. }));
                assert!(matches!(*rhs, Predicate::Or(..)), "rhs: {rhs:?}");
            }
            other => panic!("expected AND at root, got {other:?}"),
        }
    }

    #[test]
    fn predicate_display_round_trips_precedence() {
        let (_, _, _, filter, _) =
            train_parts("SELECT * FROM t WHERE f1 > 0 AND (f2 > 0 OR label = 1) TRAIN BY svm");
        let rendered = filter.clone().unwrap().to_string();
        assert_eq!(rendered, "f1 > 0 AND (f2 > 0 OR label = 1)");
        let (_, _, _, reparsed, _) =
            train_parts(&format!("SELECT * FROM t WHERE {rendered} TRAIN BY svm"));
        assert_eq!(reparsed, filter);
    }

    #[test]
    fn predicate_matches_tuples() {
        let t = Tuple::dense(7, vec![0.5, -2.0, 3.0], 1.0);
        let (_, _, _, filter, _) =
            train_parts("SELECT * FROM x WHERE f0 >= 0.5 AND f1 < 0 AND label = 1 TRAIN BY svm");
        assert!(filter.as_ref().unwrap().matches(t.view()));
        let (_, _, _, filter, _) =
            train_parts("SELECT * FROM x WHERE id < 7 OR f2 > 2.5 TRAIN BY svm");
        assert!(filter.as_ref().unwrap().matches(t.view()));
        let (_, _, _, filter, _) =
            train_parts("SELECT * FROM x WHERE id < 7 AND f2 > 2.5 TRAIN BY svm");
        assert!(!filter.as_ref().unwrap().matches(t.view()));
    }

    #[test]
    fn parses_projection_lists() {
        let (_, _, projection, _, _) = train_parts("SELECT f0, f3, label FROM t TRAIN BY svm");
        assert_eq!(
            projection,
            Projection::Columns(vec![
                ColumnRef::Feature(0),
                ColumnRef::Feature(3),
                ColumnRef::Label
            ])
        );
        assert_eq!(projection.feature_indices(), Some(vec![0, 3]));
        assert_eq!(projection.to_string(), "f0, f3, label");
        assert_eq!(Projection::All.feature_indices(), None);
    }

    #[test]
    fn unknown_columns_are_structured_errors() {
        for bad in [
            "SELECT qty FROM t TRAIN BY svm",
            "SELECT * FROM t WHERE qty > 1 TRAIN BY svm",
            "SELECT f FROM t TRAIN BY svm",
            "SELECT fx1 FROM t TRAIN BY svm",
        ] {
            assert!(
                matches!(parse(bad), Err(DbError::UnknownColumn(_))),
                "{bad:?} should be UnknownColumn, got {:?}",
                parse(bad)
            );
        }
    }

    #[test]
    fn malformed_predicates_are_parse_errors() {
        for bad in [
            "SELECT * FROM t WHERE TRAIN BY svm",
            "SELECT * FROM t WHERE f1 TRAIN BY svm",
            "SELECT * FROM t WHERE f1 > TRAIN BY svm",
            "SELECT * FROM t WHERE f1 > abc TRAIN BY svm",
            "SELECT * FROM t WHERE (f1 > 1 TRAIN BY svm",
            "SELECT * FROM t WHERE f1 > 1 AND TRAIN BY svm",
        ] {
            match parse(bad) {
                Err(DbError::Parse(_)) | Err(DbError::UnknownColumn(_)) => {}
                other => panic!("{bad:?}: expected parse error, got {other:?}"),
            }
        }
    }

    #[test]
    fn predict_rejects_projection_and_where() {
        assert!(matches!(
            parse("SELECT f0 FROM t PREDICT BY m"),
            Err(DbError::Parse(_))
        ));
        assert!(matches!(
            parse("SELECT * FROM t WHERE f0 > 1 PREDICT BY m"),
            Err(DbError::Parse(_))
        ));
    }

    #[test]
    fn non_ascii_text_is_a_parse_error_not_a_panic() {
        // UTF-8 continuation bytes such as 0x85 and 0xA0 are whitespace
        // when read as `char`s; a lexer that splits there cuts a character.
        for bad in [
            "SHOW tą",
            "INSERT INTO t VALUES (1ą, 2)",
            "PREDICT m ON t WHERE f0 > 1\u{a0}",
        ] {
            assert!(
                matches!(parse(bad), Err(DbError::Parse(_))),
                "{bad:?}: {:?}",
                parse(bad)
            );
        }
        // A non-ASCII identifier is one word.
        assert!(matches!(
            parse("SELECT * FROM tą TRAIN BY svm"),
            Ok(Query::Train { table, .. }) if table == "tą"
        ));
    }

    #[test]
    fn text_after_a_statement_is_rejected() {
        for bad in [
            "INSERT INTO t VALUES (1, 2); INSERT INTO t VALUES (3, 4)",
            "INSERT INTO t VALUES (1, 2);;",
            "LOAD MODEL m; x",
            "SHOW TABLES; garbage",
            "RECLUSTER t; y",
            "SELECT * FROM t TRAIN BY svm; SHOW TABLES",
            "PREDICT m ON t;;",
            "SELECT * FROM t PREDICT BY m m",
            "EXPLAIN SHOW STATS extra",
        ] {
            match parse(bad) {
                Err(DbError::Parse(m)) => assert!(m.contains("expected"), "{bad:?}: {m}"),
                other => panic!("{bad:?}: expected a parse error, got {other:?}"),
            }
        }
        for good in ["SHOW TABLES;", "SHOW TABLES ; ", "LOAD MODEL m\n;\n"] {
            assert!(parse(good).is_ok(), "{good:?}");
        }
    }

    #[test]
    fn ragged_insert_rows_are_bad_parameters() {
        match parse("INSERT INTO t VALUES (1, 2, 1), (3, -1)") {
            Err(DbError::BadParam(m)) => assert!(m.contains("features"), "{m}"),
            other => panic!("expected BadParam, got {other:?}"),
        }
        // A row without a feature is a syntax error, before any width check.
        assert!(matches!(
            parse("INSERT INTO t VALUES (1, 2, 1), (3)"),
            Err(DbError::Parse(_))
        ));
    }

    /// The eager tokenizer the lexer replaced, kept as the reference it must
    /// match on ASCII text (on other text it could slice inside a character).
    fn tokenize(input: &str) -> Vec<&str> {
        let mut toks = Vec::new();
        let bytes = input.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            let c = bytes[i] as char;
            if c.is_whitespace() {
                i += 1;
            } else if c == ',' || c == '=' || c == '*' || c == ';' || c == '(' || c == ')' {
                toks.push(&input[i..i + 1]);
                i += 1;
            } else if c == '<' || c == '>' || c == '!' {
                let next = bytes.get(i + 1).map(|&b| b as char);
                let len = match (c, next) {
                    (_, Some('=')) | ('<', Some('>')) => 2,
                    _ => 1,
                };
                toks.push(&input[i..i + len]);
                i += len;
            } else if c == '\'' {
                let start = i + 1;
                let mut j = start;
                while j < bytes.len() && bytes[j] as char != '\'' {
                    j += 1;
                }
                toks.push(&input[start..j]);
                i = j + 1;
            } else {
                let start = i;
                while i < bytes.len() {
                    let c = bytes[i] as char;
                    if c.is_whitespace()
                        || matches!(
                            c,
                            ',' | '=' | '*' | ';' | '(' | ')' | '\'' | '<' | '>' | '!'
                        )
                    {
                        break;
                    }
                    i += 1;
                }
                toks.push(&input[start..i]);
            }
        }
        toks
    }

    fn lexed(input: &str) -> Vec<&str> {
        let mut t = Tokens { src: input, pos: 0 };
        std::iter::from_fn(|| t.bump()).collect()
    }

    /// Pieces random SQL text is made of: every lexical class, and
    /// characters whose UTF-8 bytes once read as whitespace.
    const PIECES: [&str; 30] = [
        " ", "\t", "\n", "\x0b", "\x0c", "\r", ",", "=", "*", ";", "(", ")", "'", "<", ">", "!",
        ".", "-", "+", "e", "0", "7", "19", "f3", "INSERT", "VALUES", "inf", "ą", "\u{a0}",
        "\u{85}",
    ];

    const STATEMENTS: [&str; 6] = [
        "INSERT INTO t VALUES (0.5, -1.25, 1), (3, 4e-2, -1);",
        "SELECT f0, label FROM t WHERE f1 > 0.5 AND (f2 <= 1 OR id <> 3) TRAIN BY svm \
         CONTINUOUS WITH strategy = 'corgipile', block_size = 10MB",
        "EXPLAIN ANALYZE SELECT * FROM t PREDICT BY m",
        "PREDICT m VERSION 2 ON t WHERE f0 != -1 WITH batch_rows = 64",
        "LOAD MODEL m VERSION 1 AS ACTIVE",
        "RECLUSTER t WITH io_budget = 0.25, seed = 7",
    ];

    /// What `INSERT` must store for the literal `tok`: `str::parse`'s f64
    /// narrowed to f32, if that is finite.
    fn stored(tok: &str) -> Option<f32> {
        tok.parse::<f64>()
            .ok()
            .map(|v| v as f32)
            .filter(|v| v.is_finite())
    }

    fn check_value(tok: &str) {
        if let Some((v, len)) = fast_decimal(tok.as_bytes()) {
            assert_eq!(len, tok.len(), "{tok:?}");
            assert_eq!(
                v.to_bits(),
                tok.parse::<f64>().unwrap().to_bits(),
                "{tok:?}"
            );
        }
        let sql = format!("INSERT INTO t VALUES ({tok}, {tok})");
        match (parse(&sql), stored(tok)) {
            (Ok(Query::Insert { rows, .. }), Some(v)) => {
                let bits: Vec<u32> = rows.values.iter().map(|x| x.to_bits()).collect();
                assert_eq!(bits, [v.to_bits(); 2], "{tok:?}");
            }
            (Err(DbError::Parse(m)), None) => assert!(m.contains("finite"), "{tok:?}: {m}"),
            (got, want) => panic!("{tok:?}: parsed {got:?}, str::parse gives {want:?}"),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        #[test]
        fn prop_arbitrary_text_never_panics(
            bytes in proptest::collection::vec(any::<u8>(), 0..40),
            pieces in proptest::collection::vec(0..PIECES.len(), 0..24),
        ) {
            let _ = parse(&String::from_utf8_lossy(&bytes));
            let text: String = pieces.iter().map(|&i| PIECES[i]).collect();
            let _ = parse(&text);
            if text.is_ascii() {
                prop_assert_eq!(lexed(&text), tokenize(&text));
            }
        }

        #[test]
        fn prop_mutated_statements_never_panic(
            which in 0..STATEMENTS.len(),
            edits in proptest::collection::vec((any::<usize>(), 0usize..3, 0..PIECES.len()), 1..6),
        ) {
            let mut text: Vec<char> = STATEMENTS[which].chars().collect();
            for (at, op, piece) in edits {
                let at = at % (text.len() + 1);
                match op {
                    0 if at < text.len() => {
                        text.remove(at);
                    }
                    1 => text.truncate(at),
                    _ => text.splice(at..at, PIECES[piece].chars()).for_each(drop),
                }
            }
            let text: String = text.into_iter().collect();
            let _ = parse(&text);
            if text.is_ascii() {
                prop_assert_eq!(lexed(&text), tokenize(&text));
            }
        }

        #[test]
        fn prop_insert_values_store_what_str_parse_gives(
            bits in any::<u32>(),
            form in 0usize..8,
            digits in any::<u64>(),
            shape in (1u32..22, 0usize..26),
        ) {
            let (len, point) = shape;
            let x = f32::from_bits(bits);
            let sign = if x.is_sign_negative() { "-" } else { "+" };
            let tok = match form {
                0 => format!("{x}"),
                1 => format!("{x:e}"),
                2 => format!("{x:.40}"),
                3 => format!("{sign}{}", x.abs()),
                4 => format!("{}", x.fract()).replacen("0.", ".", 1),
                5 => format!("{:.0}.", x.trunc()),
                6 => ["-0", "1e39", "-1e39", "inf", "nan", "+.5", "5.", ".", "-", "1e"][len as usize % 10].to_string(),
                // Plain decimals on both sides of the fast path's limits:
                // up to 21 digits, up to 25 of them fractional.
                _ => {
                    let mut d = (digits % 10u64.pow(len.min(19))).to_string();
                    if len > 19 {
                        d.push_str(&"9".repeat(len as usize - 19));
                    }
                    let point = point.min(d.len());
                    d.insert(d.len() - point, '.');
                    d
                }
            };
            check_value(&tok);
        }
    }

    #[test]
    fn insert_values_at_the_fast_paths_edges() {
        for tok in [
            "9007199254740992",
            "9007199254740993",
            "0.9007199254740993",
            "1234567890123456789",
            "12345678901234567890",
            "18446744073709551616",
            "1844674407370955161.6",
            "0.0000000000000000000001",
            "0.00000000000000000000001",
            "-0.0",
            "+0",
            "00000000000000000001.5",
            "3.4028234e38",
            "340282350000000000000000000000000000000",
            "340282370000000000000000000000000000000",
            "1.17549435e-38",
            "1e-46",
        ] {
            check_value(tok);
        }
    }
}
