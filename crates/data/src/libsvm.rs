//! LIBSVM text format I/O.
//!
//! Four of the paper's datasets (higgs, susy, epsilon, criteo) ship in
//! LIBSVM format (`label idx:val idx:val …`, 1-based indices). This module
//! parses and writes that format so real data can replace the synthetic
//! generators without touching anything downstream.

use corgipile_storage::{FeatureVec, Table, TableConfig, Tuple};
use std::io::{self, BufRead, Write};
use std::path::Path;

/// Errors from LIBSVM parsing.
#[derive(Debug)]
pub enum LibsvmError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A malformed line, with its 1-based line number.
    Parse { line: usize, message: String },
}

impl std::fmt::Display for LibsvmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LibsvmError::Io(e) => write!(f, "io error: {e}"),
            LibsvmError::Parse { line, message } => write!(f, "line {line}: {message}"),
        }
    }
}

impl std::error::Error for LibsvmError {}

impl From<io::Error> for LibsvmError {
    fn from(e: io::Error) -> Self {
        LibsvmError::Io(e)
    }
}

/// Parse a LIBSVM stream into tuples.
///
/// * `dim` — logical dimensionality; pass `None` to infer it as the maximum
///   index seen.
/// * `dense_threshold` — vectors whose nnz/dim ratio exceeds this are stored
///   densely.
pub fn read_libsvm<R: BufRead>(
    reader: R,
    dim: Option<u32>,
    dense_threshold: f64,
) -> Result<Vec<Tuple>, LibsvmError> {
    let mut rows: Vec<(f32, Vec<u32>, Vec<f32>)> = Vec::new();
    let mut max_idx = 0u32;
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_ascii_whitespace();
        let label: f32 = parts
            .next()
            .ok_or_else(|| LibsvmError::Parse {
                line: lineno + 1,
                message: "empty line".into(),
            })?
            .parse()
            .map_err(|e| LibsvmError::Parse {
                line: lineno + 1,
                message: format!("bad label: {e}"),
            })?;
        let mut indices = Vec::new();
        let mut values = Vec::new();
        for tok in parts {
            let (i, v) = tok.split_once(':').ok_or_else(|| LibsvmError::Parse {
                line: lineno + 1,
                message: format!("expected idx:val, got {tok:?}"),
            })?;
            let i: u32 = i.parse().map_err(|e| LibsvmError::Parse {
                line: lineno + 1,
                message: format!("bad index {i:?}: {e}"),
            })?;
            if i == 0 {
                return Err(LibsvmError::Parse {
                    line: lineno + 1,
                    message: "LIBSVM indices are 1-based; got 0".into(),
                });
            }
            let v: f32 = v.parse().map_err(|e| LibsvmError::Parse {
                line: lineno + 1,
                message: format!("bad value {v:?}: {e}"),
            })?;
            let zero_based = i - 1;
            if let Some(&last) = indices.last() {
                if zero_based <= last {
                    return Err(LibsvmError::Parse {
                        line: lineno + 1,
                        message: "indices must be strictly increasing".into(),
                    });
                }
            }
            max_idx = max_idx.max(zero_based);
            indices.push(zero_based);
            values.push(v);
        }
        rows.push((label, indices, values));
    }
    let dim = dim.unwrap_or(if rows.iter().all(|r| r.1.is_empty()) {
        0
    } else {
        max_idx + 1
    });
    Ok(rows
        .into_iter()
        .enumerate()
        .map(|(id, (label, indices, values))| {
            let nnz = indices.len();
            let features = if dim > 0 && nnz as f64 / dim as f64 >= dense_threshold {
                let mut d = vec![0.0f32; dim as usize];
                for (i, v) in indices.iter().zip(&values) {
                    d[*i as usize] = *v;
                }
                FeatureVec::Dense(d)
            } else {
                FeatureVec::sparse(dim, indices, values)
            };
            Tuple {
                id: id as u64,
                features,
                label,
            }
        })
        .collect())
}

/// Read a LIBSVM file from disk.
pub fn read_libsvm_file(
    path: &Path,
    dim: Option<u32>,
    dense_threshold: f64,
) -> Result<Vec<Tuple>, LibsvmError> {
    let f = std::fs::File::open(path)?;
    read_libsvm(io::BufReader::new(f), dim, dense_threshold)
}

/// Write a LIBSVM file to disk.
pub fn write_libsvm_file(path: &Path, tuples: &[Tuple]) -> io::Result<()> {
    let mut f = io::BufWriter::new(std::fs::File::create(path)?);
    write_libsvm(&mut f, tuples)
}

/// Load a LIBSVM file straight into a heap table (tuple ids = line
/// numbers, i.e. storage positions).
pub fn load_libsvm_table(
    path: &Path,
    config: TableConfig,
    dim: Option<u32>,
    dense_threshold: f64,
) -> Result<Table, LibsvmError> {
    let mut tuples = read_libsvm_file(path, dim, dense_threshold)?;
    for (i, t) in tuples.iter_mut().enumerate() {
        t.id = i as u64;
    }
    Table::from_tuples(config, tuples).map_err(|e| LibsvmError::Parse {
        line: 0,
        message: format!("table build failed: {e}"),
    })
}

/// Write tuples in LIBSVM format (1-based indices, zeros omitted).
pub fn write_libsvm<W: Write>(writer: &mut W, tuples: &[Tuple]) -> io::Result<()> {
    for t in tuples {
        write!(writer, "{}", t.label)?;
        for (i, v) in t.features.iter() {
            if v != 0.0 {
                write!(writer, " {}:{}", i + 1, v)?;
            }
        }
        writeln!(writer)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn parse_basic_sparse() {
        let text = "1 3:0.5 7:1.5\n-1 1:2.0\n";
        let tuples = read_libsvm(BufReader::new(text.as_bytes()), None, 0.9).unwrap();
        assert_eq!(tuples.len(), 2);
        assert_eq!(tuples[0].label, 1.0);
        assert_eq!(tuples[0].features.get(2), 0.5);
        assert_eq!(tuples[0].features.get(6), 1.5);
        assert_eq!(tuples[1].features.get(0), 2.0);
        assert_eq!(tuples[0].features.dim(), 7);
        assert_eq!(tuples[0].id, 0);
        assert_eq!(tuples[1].id, 1);
    }

    #[test]
    fn explicit_dim_and_densification() {
        let text = "1 1:1 2:2 3:3\n";
        let tuples = read_libsvm(BufReader::new(text.as_bytes()), Some(3), 0.5).unwrap();
        assert!(matches!(tuples[0].features, FeatureVec::Dense(_)));
        assert_eq!(tuples[0].features.get(1), 2.0);
    }

    #[test]
    fn skips_blank_and_comment_lines() {
        let text = "# header\n\n1 1:1\n";
        let tuples = read_libsvm(BufReader::new(text.as_bytes()), None, 0.9).unwrap();
        assert_eq!(tuples.len(), 1);
    }

    #[test]
    fn rejects_zero_index() {
        let text = "1 0:1\n";
        assert!(read_libsvm(BufReader::new(text.as_bytes()), None, 0.9).is_err());
    }

    #[test]
    fn rejects_unordered_indices() {
        let text = "1 5:1 2:1\n";
        let err = read_libsvm(BufReader::new(text.as_bytes()), None, 0.9).unwrap_err();
        assert!(err.to_string().contains("increasing"));
    }

    #[test]
    fn rejects_garbage() {
        for bad in ["x 1:1\n", "1 a:1\n", "1 1:z\n", "1 11\n"] {
            assert!(
                read_libsvm(BufReader::new(bad.as_bytes()), None, 0.9).is_err(),
                "{bad:?} should fail"
            );
        }
    }

    #[test]
    fn roundtrip_write_then_read() {
        let tuples = vec![
            Tuple::sparse(0, 10, vec![1, 4], vec![0.5, -2.0], 1.0),
            Tuple::sparse(1, 10, vec![0, 9], vec![1.0, 3.0], -1.0),
        ];
        let mut buf = Vec::new();
        write_libsvm(&mut buf, &tuples).unwrap();
        let back = read_libsvm(BufReader::new(&buf[..]), Some(10), 0.9).unwrap();
        assert_eq!(back.len(), 2);
        for (a, b) in tuples.iter().zip(&back) {
            assert_eq!(a.label, b.label);
            for i in 0..10 {
                assert_eq!(a.features.get(i), b.features.get(i), "feature {i}");
            }
        }
    }

    #[test]
    fn dense_tuple_writes_nonzero_only() {
        let t = Tuple::dense(0, vec![0.0, 2.0, 0.0], 1.0);
        let mut buf = Vec::new();
        write_libsvm(&mut buf, &[t]).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert_eq!(s.trim(), "1 2:2");
    }

    #[test]
    fn file_roundtrip_and_table_load() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("corgi_libsvm_{}.txt", std::process::id()));
        let tuples = vec![
            Tuple::sparse(0, 50, vec![0, 7], vec![1.0, 2.0], 1.0),
            Tuple::sparse(1, 50, vec![3, 49], vec![-1.0, 0.5], -1.0),
            Tuple::sparse(2, 50, vec![10], vec![3.0], 1.0),
        ];
        write_libsvm_file(&path, &tuples).unwrap();
        let back = read_libsvm_file(&path, Some(50), 0.9).unwrap();
        assert_eq!(back.len(), 3);
        assert_eq!(back[1].label, -1.0);

        let table =
            load_libsvm_table(&path, TableConfig::new("imported", 3), Some(50), 0.9).unwrap();
        assert_eq!(table.num_tuples(), 3);
        assert_eq!(table.row(2).unwrap().features.get(10), 3.0);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn missing_file_errors() {
        let path = std::env::temp_dir().join("corgi_libsvm_missing_file.txt");
        assert!(read_libsvm_file(&path, None, 0.9).is_err());
    }

    #[test]
    fn empty_input_is_empty_output() {
        let tuples = read_libsvm(BufReader::new("".as_bytes()), None, 0.9).unwrap();
        assert!(tuples.is_empty());
    }
}
