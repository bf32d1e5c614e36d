//! MatrixMarket (`.mtx`) coordinate-format I/O.
//!
//! Supports the subset that covers the SuiteSparse collection the paper
//! trains on: `coordinate` storage with `real`, `integer` or `pattern`
//! values and `general`, `symmetric` or `skew-symmetric` symmetry.
//! Pattern entries get value 1. Symmetric inputs are expanded to full
//! storage (both triangles), matching how SpMV libraries consume them.

use crate::coo::{CooBuilder, CooMatrix};
use crate::error::SparseError;
use crate::scalar::Scalar;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ValueKind {
    Real,
    Integer,
    Pattern,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Symmetry {
    General,
    Symmetric,
    SkewSymmetric,
}

/// Reads a MatrixMarket coordinate matrix from any reader.
pub fn read_matrix_market<S: Scalar, R: Read>(reader: R) -> Result<CooMatrix<S>, SparseError> {
    let mut lines = BufReader::new(reader).lines();
    let mut lineno = 0usize;

    // Header line.
    let header = loop {
        match lines.next() {
            Some(l) => {
                lineno += 1;
                let l = l?;
                if !l.trim().is_empty() {
                    break l;
                }
            }
            None => {
                return Err(SparseError::Parse {
                    line: lineno,
                    message: "empty file".into(),
                })
            }
        }
    };
    let toks: Vec<String> = header
        .split_whitespace()
        .map(|t| t.to_ascii_lowercase())
        .collect();
    if toks.len() < 5 || toks[0] != "%%matrixmarket" || toks[1] != "matrix" {
        return Err(SparseError::Parse {
            line: lineno,
            message: format!("bad header '{header}'"),
        });
    }
    if toks[2] != "coordinate" {
        return Err(SparseError::Parse {
            line: lineno,
            message: format!("unsupported storage '{}' (only coordinate)", toks[2]),
        });
    }
    let kind = match toks[3].as_str() {
        "real" => ValueKind::Real,
        "integer" => ValueKind::Integer,
        "pattern" => ValueKind::Pattern,
        other => {
            return Err(SparseError::Parse {
                line: lineno,
                message: format!("unsupported value kind '{other}'"),
            })
        }
    };
    let sym = match toks[4].as_str() {
        "general" => Symmetry::General,
        "symmetric" => Symmetry::Symmetric,
        "skew-symmetric" => Symmetry::SkewSymmetric,
        other => {
            return Err(SparseError::Parse {
                line: lineno,
                message: format!("unsupported symmetry '{other}'"),
            })
        }
    };

    // Size line (after comments).
    let size_line = loop {
        match lines.next() {
            Some(l) => {
                lineno += 1;
                let l = l?;
                let t = l.trim();
                if t.is_empty() || t.starts_with('%') {
                    continue;
                }
                break l;
            }
            None => {
                return Err(SparseError::Parse {
                    line: lineno,
                    message: "missing size line".into(),
                })
            }
        }
    };
    let dims: Vec<&str> = size_line.split_whitespace().collect();
    if dims.len() != 3 {
        return Err(SparseError::Parse {
            line: lineno,
            message: format!("size line must be 'm n nnz', got '{size_line}'"),
        });
    }
    let parse_dim = |s: &str, lineno: usize| {
        s.parse::<usize>().map_err(|_| SparseError::Parse {
            line: lineno,
            message: format!("bad integer '{s}'"),
        })
    };
    let nrows = parse_dim(dims[0], lineno)?;
    let ncols = parse_dim(dims[1], lineno)?;
    let nnz = parse_dim(dims[2], lineno)?;

    let mut b = CooBuilder::new(nrows, ncols)?;
    // The declared nnz is untrusted input: a hostile size line could
    // otherwise request an enormous (or, for symmetric files, an
    // overflowing `2 * nnz`) up-front allocation before a single entry
    // is parsed. Cap the hint; the builder still grows to any real size.
    const RESERVE_CAP: usize = 1 << 22;
    b.reserve(
        if sym == Symmetry::General {
            nnz
        } else {
            nnz.saturating_mul(2)
        }
        .min(RESERVE_CAP),
    );
    let mut seen = 0usize;
    for l in lines {
        lineno += 1;
        let l = l?;
        let t = l.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        let mut it = t.split_whitespace();
        let r = parse_dim(it.next().unwrap_or(""), lineno)?;
        let c = parse_dim(
            it.next().ok_or(SparseError::Parse {
                line: lineno,
                message: "missing column index".into(),
            })?,
            lineno,
        )?;
        if r == 0 || c == 0 {
            return Err(SparseError::Parse {
                line: lineno,
                message: "indices are 1-based".into(),
            });
        }
        let v = match kind {
            ValueKind::Pattern => S::ONE,
            _ => {
                let vs = it.next().ok_or(SparseError::Parse {
                    line: lineno,
                    message: "missing value".into(),
                })?;
                let parsed = vs.parse::<f64>().map_err(|_| SparseError::Parse {
                    line: lineno,
                    message: format!("bad value '{vs}'"),
                })?;
                // `parse::<f64>` happily accepts "NaN"/"inf" (and
                // overflows out-of-range literals to infinity), and
                // narrowing can overflow too (`1e39` is a finite f64
                // but an f32 infinity); a non-finite entry would
                // silently poison every SpMV and representation built
                // from this matrix. So the check is on the narrowed value.
                let v = S::from_f64(parsed);
                if !v.to_f64().is_finite() {
                    return Err(SparseError::Parse {
                        line: lineno,
                        message: format!("non-finite value '{vs}'"),
                    });
                }
                v
            }
        };
        b.push(r - 1, c - 1, v)?;
        match sym {
            Symmetry::General => {}
            Symmetry::Symmetric => {
                if r != c {
                    b.push(c - 1, r - 1, v)?;
                }
            }
            Symmetry::SkewSymmetric => {
                if r != c {
                    b.push(c - 1, r - 1, -v)?;
                }
            }
        }
        seen += 1;
    }
    if seen != nnz {
        return Err(SparseError::Parse {
            line: lineno,
            message: format!("declared {nnz} entries but found {seen}"),
        });
    }
    // Duplicate entries are summed, and a sum of finite values can
    // still overflow the scalar type.
    let m = b.build();
    if let Some((r, c, _)) = m.iter().find(|&(_, _, v)| !v.to_f64().is_finite()) {
        return Err(SparseError::Parse {
            line: lineno,
            message: format!(
                "entries at ({}, {}) sum to a non-finite value",
                r + 1,
                c + 1
            ),
        });
    }
    Ok(m)
}

/// Reads a MatrixMarket file from disk.
pub fn read_matrix_market_path<S: Scalar, P: AsRef<Path>>(
    path: P,
) -> Result<CooMatrix<S>, SparseError> {
    let f = std::fs::File::open(path)?;
    read_matrix_market(f)
}

/// Writes a matrix in `coordinate real general` form.
pub fn write_matrix_market<S: Scalar, W: Write>(
    matrix: &CooMatrix<S>,
    mut w: W,
) -> Result<(), SparseError> {
    writeln!(w, "%%MatrixMarket matrix coordinate real general")?;
    writeln!(w, "% written by dnnspmv-sparse")?;
    writeln!(w, "{} {} {}", matrix.nrows(), matrix.ncols(), matrix.nnz())?;
    for (r, c, v) in matrix.iter() {
        writeln!(w, "{} {} {}", r + 1, c + 1, v.to_f64())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_general_real() {
        let src = "%%MatrixMarket matrix coordinate real general\n\
                   % a comment\n\
                   3 3 2\n\
                   1 1 1.5\n\
                   3 2 -2.0\n";
        let m: CooMatrix<f64> = read_matrix_market(src.as_bytes()).unwrap();
        assert_eq!((m.nrows(), m.ncols(), m.nnz()), (3, 3, 2));
        assert_eq!(m.get(0, 0), 1.5);
        assert_eq!(m.get(2, 1), -2.0);
    }

    #[test]
    fn parses_pattern_as_ones() {
        let src = "%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 2\n2 1\n";
        let m: CooMatrix<f32> = read_matrix_market(src.as_bytes()).unwrap();
        assert_eq!(m.get(0, 1), 1.0);
        assert_eq!(m.get(1, 0), 1.0);
    }

    #[test]
    fn expands_symmetric() {
        let src =
            "%%MatrixMarket matrix coordinate real symmetric\n3 3 3\n1 1 4.0\n2 1 1.0\n3 2 2.0\n";
        let m: CooMatrix<f64> = read_matrix_market(src.as_bytes()).unwrap();
        assert_eq!(m.nnz(), 5); // diagonal entry not duplicated
        assert_eq!(m.get(0, 1), 1.0);
        assert_eq!(m.get(1, 0), 1.0);
        assert_eq!(m.get(1, 2), 2.0);
    }

    #[test]
    fn expands_skew_symmetric_with_negation() {
        let src = "%%MatrixMarket matrix coordinate real skew-symmetric\n2 2 1\n2 1 3.0\n";
        let m: CooMatrix<f64> = read_matrix_market(src.as_bytes()).unwrap();
        assert_eq!(m.get(1, 0), 3.0);
        assert_eq!(m.get(0, 1), -3.0);
    }

    #[test]
    fn rejects_zero_based_indices() {
        let src = "%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1.0\n";
        let e = read_matrix_market::<f64, _>(src.as_bytes()).unwrap_err();
        assert!(matches!(e, SparseError::Parse { .. }));
    }

    #[test]
    fn rejects_wrong_entry_count() {
        let src = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n";
        let e = read_matrix_market::<f64, _>(src.as_bytes()).unwrap_err();
        assert!(e.to_string().contains("declared 2"));
    }

    #[test]
    fn rejects_bad_header() {
        let e = read_matrix_market::<f64, _>("hello\n".as_bytes()).unwrap_err();
        assert!(matches!(e, SparseError::Parse { line: 1, .. }));
    }

    #[test]
    fn rejects_array_storage() {
        let src = "%%MatrixMarket matrix array real general\n2 2\n1.0\n";
        let e = read_matrix_market::<f64, _>(src.as_bytes()).unwrap_err();
        assert!(e.to_string().contains("coordinate"));
    }

    #[test]
    fn rejects_empty_file_and_truncated_header() {
        let e = read_matrix_market::<f64, _>("".as_bytes()).unwrap_err();
        assert!(e.to_string().contains("empty file"), "{e}");
        // Header with too few tokens.
        let e = read_matrix_market::<f64, _>("%%MatrixMarket matrix\n".as_bytes()).unwrap_err();
        assert!(matches!(e, SparseError::Parse { line: 1, .. }), "{e}");
        // Header but no size line.
        let src = "%%MatrixMarket matrix coordinate real general\n% only comments\n";
        let e = read_matrix_market::<f64, _>(src.as_bytes()).unwrap_err();
        assert!(e.to_string().contains("missing size line"), "{e}");
    }

    #[test]
    fn rejects_out_of_range_indices() {
        // Row index past the declared dimensions: typed error from the
        // builder's bounds check, not a later panic.
        let src = "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n";
        let e = read_matrix_market::<f64, _>(src.as_bytes()).unwrap_err();
        assert!(matches!(e, SparseError::IndexOutOfBounds { .. }), "{e}");
    }

    #[test]
    fn rejects_overflowing_index_literals() {
        let src = "%%MatrixMarket matrix coordinate real general\n2 2 1\n\
                   99999999999999999999999999 1 1.0\n";
        let e = read_matrix_market::<f64, _>(src.as_bytes()).unwrap_err();
        assert!(e.to_string().contains("bad integer"), "{e}");
    }

    #[test]
    fn rejects_non_numeric_and_non_finite_values() {
        let src = "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 abc\n";
        let e = read_matrix_market::<f64, _>(src.as_bytes()).unwrap_err();
        assert!(e.to_string().contains("bad value"), "{e}");
        for v in ["NaN", "inf", "-inf", "1e999"] {
            let src = format!("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 {v}\n");
            let e = read_matrix_market::<f64, _>(src.as_bytes()).unwrap_err();
            assert!(e.to_string().contains("non-finite"), "{v}: {e}");
        }
    }

    #[test]
    fn rejects_values_that_overflow_the_target_scalar() {
        // Finite as f64, infinite once narrowed to f32.
        let src = "%%MatrixMarket matrix coordinate real general\n2 2 1\n\n1 1 1e39\n";
        let e = read_matrix_market::<f32, _>(src.as_bytes()).unwrap_err();
        assert!(matches!(e, SparseError::Parse { line: 4, .. }), "{e}");
        assert!(e.to_string().contains("non-finite value '1e39'"), "{e}");
        // The same literal is fine in f64.
        assert!(read_matrix_market::<f64, _>(src.as_bytes()).is_ok());
    }

    #[test]
    fn rejects_duplicate_entries_whose_sum_overflows() {
        // Each entry fits in f32; their sum does not.
        let src = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 3e38\n1 1 3e38\n";
        let e = read_matrix_market::<f32, _>(src.as_bytes()).unwrap_err();
        assert!(matches!(e, SparseError::Parse { .. }), "{e}");
        assert!(e.to_string().contains("(1, 1) sum to a non-finite"), "{e}");
        let m = read_matrix_market::<f64, _>(src.as_bytes()).unwrap();
        assert_eq!(m.get(0, 0), 2.0 * 3e38);
    }

    #[test]
    fn hostile_nnz_declaration_does_not_preallocate() {
        // usize::MAX entries declared; the reserve hint must be capped
        // (and `2 * nnz` for symmetric files must not overflow). The
        // parse still fails cleanly on the entry-count mismatch.
        for sym in ["general", "symmetric"] {
            let src = format!(
                "%%MatrixMarket matrix coordinate real {sym}\n2 2 {}\n1 1 1.0\n",
                usize::MAX
            );
            let e = read_matrix_market::<f64, _>(src.as_bytes()).unwrap_err();
            assert!(e.to_string().contains("declared"), "{sym}: {e}");
        }
    }

    #[test]
    fn write_read_round_trip() {
        let m = CooMatrix::from_triplets(4, 3, &[(0, 0, 1.25), (1, 2, -0.5), (3, 1, 1e6)]).unwrap();
        let mut buf = Vec::new();
        write_matrix_market(&m, &mut buf).unwrap();
        let back: CooMatrix<f64> = read_matrix_market(buf.as_slice()).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn path_round_trip() {
        let m = CooMatrix::from_triplets(2, 2, &[(0, 1, 2.0)]).unwrap();
        let dir = std::env::temp_dir().join("dnnspmv_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("t.mtx");
        write_matrix_market(&m, std::fs::File::create(&p).unwrap()).unwrap();
        let back: CooMatrix<f64> = read_matrix_market_path(&p).unwrap();
        assert_eq!(back, m);
        std::fs::remove_file(&p).ok();
    }
}
