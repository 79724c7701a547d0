//! Typed `WITH`-option registry.
//!
//! One declarative table ([`OPTIONS`]) lists every option the SQL surface
//! accepts — name, value type, rendered default, and which statements it
//! applies to (`TRAIN`, `PREDICT … ON`, `RECLUSTER`). Sessions validate
//! incoming parameter maps against the registry, so an unknown key fails
//! with the nearest valid name suggested, and `EXPLAIN` renders the
//! effective (post-default) option set from the same table — the parser,
//! the executor and the docs cannot drift apart.

use crate::error::DbError;
use crate::sql::ParamValue;
use std::collections::BTreeMap;

/// Value type of an option, used for documentation and EXPLAIN rendering.
/// Range/shape validation stays with the typed accessors on
/// [`QueryOptions`], which own the exact error strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OptionType {
    /// Non-negative integer.
    Int,
    /// 0/1 switch.
    Flag,
    /// Floating point.
    Float,
    /// Quoted or bare text.
    Text,
}

/// Which statement a `WITH` clause belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Statement {
    /// `SELECT … TRAIN BY …`.
    Train,
    /// `PREDICT <model> ON <table>`.
    Predict,
    /// `RECLUSTER <table>`.
    Recluster,
}

impl Statement {
    fn applies(self, opt: &OptionSpec) -> bool {
        match self {
            Statement::Train => opt.train,
            Statement::Predict => opt.predict,
            Statement::Recluster => opt.recluster,
        }
    }
}

/// One registered option.
#[derive(Debug, Clone, Copy)]
pub struct OptionSpec {
    /// Key as written in the `WITH` clause.
    pub name: &'static str,
    /// Value type.
    pub ty: OptionType,
    /// Default as rendered in `EXPLAIN`; `None` means unset-by-default
    /// (the option only shows up when the query supplies it).
    pub default: Option<&'static str>,
    /// Accepted on `TRAIN`.
    pub train: bool,
    /// Accepted on `PREDICT … ON`.
    pub predict: bool,
    /// Accepted on `RECLUSTER`.
    pub recluster: bool,
}

const fn opt(
    name: &'static str,
    ty: OptionType,
    default: Option<&'static str>,
    train: bool,
    predict: bool,
    recluster: bool,
) -> OptionSpec {
    OptionSpec {
        name,
        ty,
        default,
        train,
        predict,
        recluster,
    }
}

/// The full registry, sorted by name so EXPLAIN output is deterministic.
pub const OPTIONS: &[OptionSpec] = &[
    opt(
        "batch_rows",
        OptionType::Int,
        Some("256"),
        false,
        true,
        false,
    ),
    opt("batch_size", OptionType::Int, Some("1"), true, false, false),
    opt("block_size", OptionType::Int, None, true, false, false),
    opt(
        "buffer_fraction",
        OptionType::Float,
        Some("0.10"),
        true,
        false,
        false,
    ),
    opt("decay", OptionType::Float, Some("0.95"), true, false, false),
    opt(
        "double_buffer",
        OptionType::Flag,
        Some("1"),
        true,
        false,
        false,
    ),
    opt("durable", OptionType::Flag, Some("0"), true, false, false),
    opt("fuse", OptionType::Flag, Some("1"), true, true, false),
    opt(
        "halt_after_epoch",
        OptionType::Int,
        None,
        true,
        false,
        false,
    ),
    opt(
        "io_budget",
        OptionType::Float,
        Some("0.25"),
        true,
        false,
        true,
    ),
    opt("l2", OptionType::Float, Some("0"), true, false, false),
    opt(
        "learning_rate",
        OptionType::Float,
        Some("0.1"),
        true,
        false,
        false,
    ),
    opt(
        "max_epoch_num",
        OptionType::Int,
        Some("10"),
        true,
        false,
        false,
    ),
    opt(
        "max_retries",
        OptionType::Int,
        Some("4"),
        true,
        false,
        false,
    ),
    opt("model_name", OptionType::Text, None, true, false, false),
    opt(
        "on_fault",
        OptionType::Text,
        Some("fail"),
        true,
        false,
        false,
    ),
    // `TRAIN … CONTINUOUS` only: re-pin the latest snapshot every this
    // many epochs. Unset defaults to max_epoch_num (one pin per run).
    opt("refresh", OptionType::Int, None, true, false, false),
    opt(
        "report_metrics",
        OptionType::Flag,
        Some("0"),
        true,
        false,
        false,
    ),
    opt("seed", OptionType::Int, Some("42"), true, false, true),
    opt("strategy", OptionType::Text, None, true, false, false),
];

/// Keys valid for a statement, in registry (alphabetical) order.
pub fn known_keys(stmt: Statement) -> Vec<&'static str> {
    OPTIONS
        .iter()
        .filter(|o| stmt.applies(o))
        .map(|o| o.name)
        .collect()
}

fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// Build the error for an unknown key, suggesting the nearest valid key
/// when one is plausibly close (edit distance ≤ 3).
pub fn unknown_key(stmt: Statement, key: &str) -> DbError {
    let nearest = known_keys(stmt)
        .into_iter()
        .map(|k| (edit_distance(key, k), k))
        .min()
        .filter(|(d, _)| *d <= 3);
    DbError::BadParam(match nearest {
        Some((_, k)) => format!("unknown parameter {key} (did you mean {k}?)"),
        None => format!("unknown parameter {key}"),
    })
}

fn render(v: &ParamValue) -> String {
    match v {
        ParamValue::Number(n) => format!("{n}"),
        ParamValue::Text(s) => s.clone(),
        ParamValue::Bytes(b) => format!("{b}"),
    }
}

/// The `Options: …` line for EXPLAIN: every applicable option with its
/// effective value — explicit values win over defaults, unset-by-default
/// options are omitted unless the query supplies them.
pub fn effective_line(stmt: Statement, params: &BTreeMap<String, ParamValue>) -> String {
    let mut parts = Vec::new();
    for o in OPTIONS.iter().filter(|o| stmt.applies(o)) {
        let value = match params.get(o.name) {
            Some(v) => Some(render(v)),
            None => o.default.map(str::to_string),
        };
        if let Some(v) = value {
            parts.push(format!("{}={v}", o.name));
        }
    }
    format!("Options: {}", parts.join(" "))
}

/// A validated, typed view over a statement's `WITH` parameter map.
///
/// Construction rejects unknown keys; the accessors enforce value shapes
/// and own the user-facing error strings.
#[derive(Debug)]
pub struct QueryOptions<'a> {
    params: &'a BTreeMap<String, ParamValue>,
}

impl<'a> QueryOptions<'a> {
    /// Validate `params` against the registry for `stmt`.
    pub fn parse(
        stmt: Statement,
        params: &'a BTreeMap<String, ParamValue>,
    ) -> Result<Self, DbError> {
        for key in params.keys() {
            if !OPTIONS.iter().any(|o| stmt.applies(o) && o.name == key) {
                return Err(unknown_key(stmt, key));
            }
        }
        Ok(QueryOptions { params })
    }

    /// 0/1 switch.
    pub fn flag(&self, key: &str, default: bool) -> Result<bool, DbError> {
        match self.params.get(key) {
            None => Ok(default),
            Some(v) => match v.as_usize() {
                Some(0) => Ok(false),
                Some(1) => Ok(true),
                _ => Err(DbError::BadParam(format!("{key} must be 0 or 1"))),
            },
        }
    }

    /// Non-negative integer.
    pub fn nonneg_int(&self, key: &str, default: usize) -> Result<usize, DbError> {
        match self.params.get(key) {
            None => Ok(default),
            Some(v) => v
                .as_usize()
                .ok_or_else(|| DbError::BadParam(format!("{key} must be a non-negative integer"))),
        }
    }

    /// Strictly positive integer.
    pub fn positive_int(&self, key: &str, default: usize) -> Result<usize, DbError> {
        match self.params.get(key) {
            None => Ok(default),
            Some(v) => match v.as_usize() {
                Some(n) if n > 0 => Ok(n),
                _ => Err(DbError::BadParam(format!(
                    "{key} must be a positive integer"
                ))),
            },
        }
    }

    /// Any numeric value.
    pub fn float(&self, key: &str, default: f64) -> Result<f64, DbError> {
        match self.params.get(key) {
            None => Ok(default),
            Some(v) => v
                .as_f64()
                .ok_or_else(|| DbError::BadParam(format!("{key} must be numeric"))),
        }
    }

    /// Numeric value in `(0, 1]` — buffer and I/O-budget fractions.
    pub fn fraction(&self, key: &str, default: f64) -> Result<f64, DbError> {
        let v = self.float(key, default)?;
        if v > 0.0 && v <= 1.0 {
            Ok(v)
        } else {
            Err(DbError::BadParam(format!("{key} must be in (0, 1]")))
        }
    }

    /// Text value, if present.
    pub fn text(&self, key: &str) -> Option<&'a str> {
        self.params.get(key).and_then(|v| v.as_text())
    }

    /// Whether the query set the key explicitly.
    pub fn is_set(&self, key: &str) -> bool {
        self.params.contains_key(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(pairs: &[(&str, ParamValue)]) -> BTreeMap<String, ParamValue> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect()
    }

    #[test]
    fn registry_is_sorted_and_statement_scoped() {
        for pair in OPTIONS.windows(2) {
            assert!(pair[0].name < pair[1].name, "registry must stay sorted");
        }
        assert_eq!(OPTIONS.len(), 20);
        assert!(known_keys(Statement::Train).contains(&"strategy"));
        assert!(known_keys(Statement::Predict).contains(&"batch_rows"));
        assert!(!known_keys(Statement::Predict).contains(&"strategy"));
        assert_eq!(known_keys(Statement::Recluster), vec!["io_budget", "seed"]);
    }

    #[test]
    fn unknown_key_suggests_nearest() {
        let p = params(&[("buffer_fractoin", ParamValue::Number(0.2))]);
        let err = QueryOptions::parse(Statement::Train, &p).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("unknown parameter buffer_fractoin")
                && msg.contains("did you mean buffer_fraction?"),
            "got: {msg}"
        );
        // Far-away garbage gets no suggestion.
        let msg = unknown_key(Statement::Recluster, "zzzzqqqq").to_string();
        assert!(!msg.contains("did you mean"), "got: {msg}");
    }

    #[test]
    fn typed_accessors_enforce_shapes() {
        let p = params(&[
            ("fuse", ParamValue::Number(2.0)),
            ("seed", ParamValue::Number(7.0)),
            ("io_budget", ParamValue::Number(1.5)),
        ]);
        let opts = QueryOptions::parse(Statement::Train, &p).unwrap();
        assert_eq!(
            opts.flag("fuse", true).unwrap_err().to_string(),
            "bad parameter: fuse must be 0 or 1"
        );
        assert_eq!(opts.nonneg_int("seed", 42).unwrap(), 7);
        assert_eq!(
            opts.fraction("io_budget", 0.25).unwrap_err().to_string(),
            "bad parameter: io_budget must be in (0, 1]"
        );
        assert!(opts.is_set("seed") && !opts.is_set("decay"));
    }

    #[test]
    fn effective_line_merges_defaults_and_overrides() {
        let p = params(&[("batch_rows", ParamValue::Number(64.0))]);
        let line = effective_line(Statement::Predict, &p);
        assert_eq!(line, "Options: batch_rows=64 fuse=1");
    }
}
