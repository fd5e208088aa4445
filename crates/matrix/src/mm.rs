//! Matrix Market (`.mtx`) reader/writer.
//!
//! Supports the `matrix coordinate (real|integer|pattern) (general|symmetric)`
//! subset, which covers every matrix in the paper's evaluation set. Pattern
//! entries are materialized with value `1.0` (the adjacency-matrix
//! convention the paper uses).

use crate::coo::CooMatrix;
use crate::csr::CsrMatrix;
use spmm_common::{Result, SpmmError};
use std::io::{BufRead, BufWriter, Write};
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Field {
    Real,
    Integer,
    Pattern,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Symmetry {
    General,
    Symmetric,
}

/// Parse a Matrix Market stream into COO form.
pub fn read_coo<R: BufRead>(reader: R) -> Result<CooMatrix> {
    let mut lines = reader.lines().enumerate();

    // Header line.
    let (_, header) = lines
        .next()
        .ok_or_else(|| SpmmError::Parse {
            line: 1,
            detail: "empty file".into(),
        })
        .and_then(|(i, l)| l.map(|l| (i, l)).map_err(SpmmError::from))?;
    let tokens: Vec<String> = header
        .split_whitespace()
        .map(|t| t.to_lowercase())
        .collect();
    if tokens.len() < 5 || tokens[0] != "%%matrixmarket" || tokens[1] != "matrix" {
        return Err(SpmmError::Parse {
            line: 1,
            detail: format!("bad MatrixMarket header: {header}"),
        });
    }
    if tokens[2] != "coordinate" {
        return Err(SpmmError::Parse {
            line: 1,
            detail: "only coordinate format is supported".into(),
        });
    }
    let field = match tokens[3].as_str() {
        "real" => Field::Real,
        "integer" => Field::Integer,
        "pattern" => Field::Pattern,
        other => {
            return Err(SpmmError::Parse {
                line: 1,
                detail: format!("unsupported field type: {other}"),
            })
        }
    };
    let symmetry = match tokens[4].as_str() {
        "general" => Symmetry::General,
        "symmetric" => Symmetry::Symmetric,
        other => {
            return Err(SpmmError::Parse {
                line: 1,
                detail: format!("unsupported symmetry: {other}"),
            })
        }
    };

    // Size line (after comments).
    let mut size: Option<(usize, usize, usize)> = None;
    let mut coo: Option<CooMatrix> = None;
    let mut declared_nnz = 0usize;
    let mut seen = 0usize;
    for (idx, line) in lines {
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('%') {
            continue;
        }
        let lineno = idx + 1;
        if size.is_none() {
            let mut it = line.split_whitespace();
            let parse = |t: Option<&str>| -> Result<usize> {
                t.ok_or(SpmmError::Parse {
                    line: lineno,
                    detail: "short size line".into(),
                })?
                .parse()
                .map_err(|_| SpmmError::Parse {
                    line: lineno,
                    detail: "bad size integer".into(),
                })
            };
            let m = parse(it.next())?;
            let n = parse(it.next())?;
            let nz = parse(it.next())?;
            // Indices are stored as u32: a larger dimension would wrap
            // entries onto the wrong rows/columns.
            if m > u32::MAX as usize || n > u32::MAX as usize {
                return Err(SpmmError::Parse {
                    line: lineno,
                    detail: format!("matrix size {m}x{n} exceeds the u32 index range"),
                });
            }
            // A symmetric file stores one triangle and the reader
            // mirrors it, which only stays inside a square matrix.
            if symmetry == Symmetry::Symmetric && m != n {
                return Err(SpmmError::Parse {
                    line: lineno,
                    detail: format!("symmetric matrix must be square, got {m}x{n}"),
                });
            }
            size = Some((m, n, nz));
            declared_nnz = nz;
            coo = Some(CooMatrix::new(m, n));
            continue;
        }
        let coo = coo.as_mut().unwrap();
        let mut it = line.split_whitespace();
        let r: usize = it
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or(SpmmError::Parse {
                line: lineno,
                detail: "bad row index".into(),
            })?;
        let c: usize = it
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or(SpmmError::Parse {
                line: lineno,
                detail: "bad column index".into(),
            })?;
        if r == 0 || c == 0 || r > coo.nrows() || c > coo.ncols() {
            return Err(SpmmError::Parse {
                line: lineno,
                detail: format!("coordinate ({r},{c}) out of bounds (1-based)"),
            });
        }
        let v: f32 = match field {
            Field::Pattern => 1.0,
            Field::Real | Field::Integer => {
                it.next()
                    .and_then(|t| t.parse().ok())
                    .ok_or(SpmmError::Parse {
                        line: lineno,
                        detail: "bad value".into(),
                    })?
            }
        };
        let (r0, c0) = ((r - 1) as u32, (c - 1) as u32);
        coo.push(r0, c0, v);
        if symmetry == Symmetry::Symmetric && r0 != c0 {
            coo.push(c0, r0, v);
        }
        seen += 1;
    }
    let mut coo = coo.ok_or(SpmmError::Parse {
        line: 0,
        detail: "missing size line".into(),
    })?;
    if seen != declared_nnz {
        return Err(SpmmError::Parse {
            line: 0,
            detail: format!("declared {declared_nnz} entries but found {seen}"),
        });
    }
    coo.dedup_sum(false);
    Ok(coo)
}

/// Read a `.mtx` file into CSR.
pub fn read_csr_file(path: impl AsRef<Path>) -> Result<CsrMatrix> {
    let f = std::fs::File::open(path)?;
    let coo = read_coo(std::io::BufReader::new(f))?;
    Ok(CsrMatrix::from_coo(&coo))
}

/// Write a CSR matrix as `matrix coordinate real general`.
pub fn write_csr<W: Write>(w: W, m: &CsrMatrix) -> Result<()> {
    let mut w = BufWriter::new(w);
    writeln!(w, "%%MatrixMarket matrix coordinate real general")?;
    writeln!(w, "{} {} {}", m.nrows(), m.ncols(), m.nnz())?;
    for r in 0..m.nrows() {
        let (cols, vals) = m.row(r);
        for (&c, &v) in cols.iter().zip(vals.iter()) {
            writeln!(w, "{} {} {}", r + 1, c + 1, v)?;
        }
    }
    w.flush()?;
    Ok(())
}

/// Write a CSR matrix to a `.mtx` file.
pub fn write_csr_file(path: impl AsRef<Path>, m: &CsrMatrix) -> Result<()> {
    let f = std::fs::File::create(path)?;
    write_csr(f, m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn parse_real_general() {
        let text = "%%MatrixMarket matrix coordinate real general\n\
                    % a comment\n\
                    2 3 3\n\
                    1 1 1.5\n\
                    2 3 -2\n\
                    1 2 0.25\n";
        let coo = read_coo(Cursor::new(text)).unwrap();
        let m = CsrMatrix::from_coo(&coo);
        assert_eq!(m.nrows(), 2);
        assert_eq!(m.ncols(), 3);
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.to_dense().get(0, 0), 1.5);
        assert_eq!(m.to_dense().get(1, 2), -2.0);
    }

    #[test]
    fn parse_pattern_symmetric() {
        let text = "%%MatrixMarket matrix coordinate pattern symmetric\n\
                    3 3 2\n\
                    2 1\n\
                    3 3\n";
        let coo = read_coo(Cursor::new(text)).unwrap();
        let m = CsrMatrix::from_coo(&coo);
        assert_eq!(m.nnz(), 3, "off-diagonal mirrored, diagonal not");
        let d = m.to_dense();
        assert_eq!(d.get(1, 0), 1.0);
        assert_eq!(d.get(0, 1), 1.0);
        assert_eq!(d.get(2, 2), 1.0);
    }

    #[test]
    fn rejects_bad_header_and_bounds() {
        assert!(read_coo(Cursor::new("%%NotMM\n1 1 0\n")).is_err());
        assert!(read_coo(Cursor::new(
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n"
        ))
        .is_err());
        assert!(read_coo(Cursor::new(
            "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n"
        ))
        .is_err());
    }

    #[test]
    fn rejects_a_symmetric_header_over_a_non_square_size() {
        // Mirroring (5, 1) would store column 4 in a 5x2 matrix.
        let err = read_coo(Cursor::new(
            "%%MatrixMarket matrix coordinate real symmetric\n5 2 1\n5 1 1.0\n",
        ))
        .unwrap_err();
        assert!(matches!(err, SpmmError::Parse { line: 2, .. }), "{err:?}");
    }

    #[test]
    fn rejects_sizes_beyond_the_u32_index_range() {
        // 2^32 + 1 rows would otherwise load entry 4294967297 as row 0.
        let err = read_coo(Cursor::new(
            "%%MatrixMarket matrix coordinate real general\n4294967297 1 1\n4294967297 1 2.5\n",
        ))
        .unwrap_err();
        assert!(
            matches!(err, SpmmError::Parse { line: 2, .. }),
            "expected a parse error on the size line, got {err:?}"
        );
        let err = read_coo(Cursor::new(
            "%%MatrixMarket matrix coordinate real general\n1 4294967296 0\n",
        ))
        .unwrap_err();
        assert!(matches!(err, SpmmError::Parse { line: 2, .. }), "{err:?}");
        // The largest representable size still parses.
        let ok = read_coo(Cursor::new(
            "%%MatrixMarket matrix coordinate real general\n4294967295 1 0\n",
        ));
        assert!(ok.is_ok(), "{ok:?}");
    }

    #[test]
    fn roundtrip_through_text() {
        let mut coo = CooMatrix::new(4, 4);
        coo.push(0, 3, 2.0);
        coo.push(2, 1, -1.0);
        coo.push(3, 3, 0.5);
        let m = CsrMatrix::from_coo(&coo);
        let mut buf = Vec::new();
        write_csr(&mut buf, &m).unwrap();
        let rt = CsrMatrix::from_coo(&read_coo(Cursor::new(buf)).unwrap());
        assert_eq!(m, rt);
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("spmm_mm_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.mtx");
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0);
        let m = CsrMatrix::from_coo(&coo);
        write_csr_file(&path, &m).unwrap();
        let rt = read_csr_file(&path).unwrap();
        assert_eq!(m, rt);
    }
}
