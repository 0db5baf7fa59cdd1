//! CSV I/O for signals and anomaly label files.
//!
//! The public Sintel datasets ship as two-column `timestamp,value` CSV
//! files plus label files of `start,end` anomaly intervals; this module
//! reads and writes both formats (extended to multiple value columns for
//! multivariate signals) without external dependencies.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;

use crate::{Interval, Result, Signal, TimeSeriesError};

fn io_err(e: impl std::fmt::Display) -> TimeSeriesError {
    TimeSeriesError::Io(e.to_string())
}

/// Serialize a signal as `timestamp,value[,value…]` with a header row.
pub fn write_signal_csv(signal: &Signal, path: &Path) -> Result<()> {
    let file = std::fs::File::create(path).map_err(io_err)?;
    let mut out = BufWriter::new(file);
    let mut header = String::from("timestamp");
    for c in 0..signal.num_channels() {
        header.push_str(&format!(",value_{c}"));
    }
    writeln!(out, "{header}").map_err(io_err)?;
    for (t, &ts) in signal.timestamps().iter().enumerate() {
        let mut line = ts.to_string();
        for c in 0..signal.num_channels() {
            line.push(',');
            let v = signal.channel(c)[t];
            if v.is_nan() {
                // Empty field encodes a missing value.
            } else {
                line.push_str(&format!("{v}"));
            }
        }
        writeln!(out, "{line}").map_err(io_err)?;
    }
    out.flush().map_err(io_err)
}

/// Parse a signal CSV produced by [`write_signal_csv`] (or any
/// `timestamp,value…` file with a header row). Empty numeric fields
/// become `NaN`.
pub fn read_signal_csv(name: &str, path: &Path) -> Result<Signal> {
    let file = std::fs::File::open(path).map_err(io_err)?;
    let reader = BufReader::new(file);
    let mut timestamps = Vec::new();
    let mut channels: Vec<Vec<f64>> = Vec::new();
    let mut line_buf = String::new();
    let mut lines = reader.lines();

    // Header row defines the channel count.
    let header = match lines.next() {
        Some(h) => h.map_err(io_err)?,
        None => return Err(TimeSeriesError::Io("empty csv".into())),
    };
    let n_channels = header.split(',').count().saturating_sub(1);
    if n_channels == 0 {
        return Err(TimeSeriesError::Io("csv needs at least one value column".into()));
    }
    channels.resize(n_channels, Vec::new());

    for (lineno, line) in lines.enumerate() {
        line_buf.clear();
        line_buf.push_str(&line.map_err(io_err)?);
        if line_buf.trim().is_empty() {
            continue;
        }
        let mut fields = line_buf.split(',');
        let ts_field = fields.next().ok_or_else(|| io_err("missing timestamp"))?;
        let ts: i64 = ts_field
            .trim()
            .parse()
            .map_err(|e| io_err(format!("line {}: bad timestamp: {e}", lineno + 2)))?;
        timestamps.push(ts);
        for (c, ch) in channels.iter_mut().enumerate() {
            let field = fields.next().unwrap_or("").trim();
            let v = if field.is_empty() {
                f64::NAN
            } else {
                field.parse().map_err(|e| {
                    io_err(format!("line {}: bad value in column {c}: {e}", lineno + 2))
                })?
            };
            ch.push(v);
        }
    }
    Signal::multivariate(name, timestamps, channels)
}

/// Write anomaly labels as `start,end` rows with a header.
pub fn write_labels_csv(labels: &[Interval], path: &Path) -> Result<()> {
    let file = std::fs::File::create(path).map_err(io_err)?;
    let mut out = BufWriter::new(file);
    writeln!(out, "start,end").map_err(io_err)?;
    for iv in labels {
        writeln!(out, "{},{}", iv.start, iv.end).map_err(io_err)?;
    }
    out.flush().map_err(io_err)
}

/// Read anomaly labels written by [`write_labels_csv`].
pub fn read_labels_csv(path: &Path) -> Result<Vec<Interval>> {
    let file = std::fs::File::open(path).map_err(io_err)?;
    let reader = BufReader::new(file);
    let mut out = Vec::new();
    for (lineno, line) in reader.lines().enumerate() {
        let line = line.map_err(io_err)?;
        if lineno == 0 || line.trim().is_empty() {
            continue; // header
        }
        let mut fields = line.split(',');
        let start: i64 = fields
            .next()
            .ok_or_else(|| io_err("missing start"))?
            .trim()
            .parse()
            .map_err(|e| io_err(format!("line {}: {e}", lineno + 1)))?;
        let end: i64 = fields
            .next()
            .ok_or_else(|| io_err("missing end"))?
            .trim()
            .parse()
            .map_err(|e| io_err(format!("line {}: {e}", lineno + 1)))?;
        out.push(Interval::new(start, end)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A per-test scratch directory, removed when the test ends (also
    /// when it fails).
    struct TmpDir(std::path::PathBuf);

    impl TmpDir {
        fn join(&self, name: &str) -> std::path::PathBuf {
            self.0.join(name)
        }
    }

    impl Drop for TmpDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn tmpdir() -> TmpDir {
        let dir = std::env::temp_dir().join(format!(
            "sintel-csv-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        TmpDir(dir)
    }

    #[test]
    fn signal_roundtrip_univariate() {
        let dir = tmpdir();
        let path = dir.join("uni.csv");
        let s = Signal::univariate("s", vec![10, 20, 30], vec![1.5, -2.0, 0.0]).unwrap();
        write_signal_csv(&s, &path).unwrap();
        let back = read_signal_csv("s", &path).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn signal_roundtrip_multivariate_with_nan() {
        let dir = tmpdir();
        let path = dir.join("multi.csv");
        let s = Signal::multivariate(
            "m",
            vec![0, 1],
            vec![vec![1.0, f64::NAN], vec![f64::NAN, 4.0]],
        )
        .unwrap();
        write_signal_csv(&s, &path).unwrap();
        let back = read_signal_csv("m", &path).unwrap();
        assert_eq!(back.timestamps(), s.timestamps());
        assert_eq!(back.channel(0)[0], 1.0);
        assert!(back.channel(0)[1].is_nan());
        assert!(back.channel(1)[0].is_nan());
        assert_eq!(back.channel(1)[1], 4.0);
    }

    #[test]
    fn labels_roundtrip() {
        let dir = tmpdir();
        let path = dir.join("labels.csv");
        let labels =
            vec![Interval::new(5, 10).unwrap(), Interval::new(100, 250).unwrap()];
        write_labels_csv(&labels, &path).unwrap();
        assert_eq!(read_labels_csv(&path).unwrap(), labels);
    }

    #[test]
    fn read_missing_file_is_io_error() {
        let err = read_signal_csv("x", Path::new("/nonexistent/file.csv")).unwrap_err();
        assert!(matches!(err, TimeSeriesError::Io(_)));
    }

    #[test]
    fn read_rejects_garbage() {
        let dir = tmpdir();
        let path = dir.join("bad.csv");
        std::fs::write(&path, "timestamp,value_0\nnot_a_number,1.0\n").unwrap();
        assert!(matches!(read_signal_csv("b", &path), Err(TimeSeriesError::Io(_))));
    }

    #[test]
    fn empty_file_rejected() {
        let dir = tmpdir();
        let path = dir.join("empty.csv");
        std::fs::write(&path, "").unwrap();
        assert!(read_signal_csv("e", &path).is_err());
    }
}
