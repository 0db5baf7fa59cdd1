//! CSV I/O for signals (`timestamp,value…` tables) and anomaly label
//! files (`start,end` rows). Every CSV format in the workspace decodes
//! through one row reader, [`Rows`], and every rejection is a
//! [`CsvError`] naming its physical line.

use std::fmt::Display;
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, ErrorKind, Write};
use std::path::Path;
use std::str::FromStr;

use crate::{Interval, Result, Signal, TimeSeriesError};

/// Longest line [`Rows`] buffers, in bytes, newline excluded.
pub const MAX_LINE: usize = 1 << 20;

/// A rejected CSV input: what is wrong, and on which line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsvError {
    /// Physical line number, counting from 1.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl Display for CsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "csv parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for CsvError {}

impl From<CsvError> for TimeSeriesError {
    fn from(e: CsvError) -> Self {
        TimeSeriesError::Csv(e)
    }
}

/// A line that is neither blank nor a `#` comment, trimmed.
#[derive(Debug, Clone, Copy)]
pub struct Row<'a> {
    /// Physical line number, counting from 1.
    pub line: usize,
    /// The line without surrounding whitespace.
    text: &'a str,
}

impl<'a> Row<'a> {
    /// The row's fields: its text split on `,`, each trimmed.
    pub fn fields(&self) -> impl Iterator<Item = &'a str> {
        self.text.split(',').map(str::trim)
    }

    /// An error on this row's line.
    pub fn error(&self, message: impl Into<String>) -> CsvError {
        CsvError { line: self.line, message: message.into() }
    }

    /// Parse `field` (`None`: the row ended first) as the row's `what`.
    pub fn parse<T: FromStr<Err: Display>>(
        &self,
        what: &str,
        field: Option<&str>,
    ) -> std::result::Result<T, CsvError> {
        let field = field.ok_or_else(|| self.error(format!("missing {what}")))?;
        field.parse().map_err(|e| self.error(format!("bad {what} '{field}': {e}")))
    }
}

/// The row reader: the [`Row`]s of any [`BufRead`], buffering at most
/// [`MAX_LINE`] bytes of a line.
#[derive(Debug)]
pub struct Rows<R> {
    reader: R,
    text: String,
    line: usize,
}

impl<R: BufRead> Rows<R> {
    /// Read rows from `reader`.
    pub fn new(reader: R) -> Self {
        Rows { reader, text: String::new(), line: 0 }
    }

    /// Physical lines read so far.
    pub fn line(&self) -> usize {
        self.line
    }

    /// The next row, or `None` at the end of the input.
    pub fn next_row(&mut self) -> std::result::Result<Option<Row<'_>>, CsvError> {
        while self.read_line()? {
            let text = self.text.trim();
            if !text.is_empty() && !text.starts_with('#') {
                return Ok(Some(Row { line: self.line, text: self.text.trim() }));
            }
        }
        Ok(None)
    }

    /// The first row, read as a header: as [`Rows::next_row`], except
    /// that a `#` line 1 holding a `,` is the header, not a comment
    /// (`numpy.savetxt(…, delimiter=',', header=…)` writes its header
    /// so).
    fn header_row(&mut self) -> std::result::Result<Option<Row<'_>>, CsvError> {
        if self.line == 0 && self.read_line()? {
            let text = self.text.trim();
            if text.contains(',') || !(text.is_empty() || text.starts_with('#')) {
                return Ok(Some(Row { line: self.line, text: self.text.trim() }));
            }
        }
        self.next_row()
    }

    /// Read the next line into `self.text`; `false` at the end of the input.
    fn read_line(&mut self) -> std::result::Result<bool, CsvError> {
        let error = |message: String| CsvError { line: self.line + 1, message };
        let mut bytes = std::mem::take(&mut self.text).into_bytes();
        bytes.clear();
        let mut read = false;
        loop {
            let chunk = match self.reader.fill_buf() {
                Ok([]) => break,
                Ok(chunk) => chunk,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(error(format!("read failed: {e}"))),
            };
            read = true;
            let end = chunk.iter().position(|&b| b == b'\n');
            let take = end.unwrap_or(chunk.len());
            let need = bytes.len() + take;
            if need > MAX_LINE {
                return Err(error(format!("line longer than {MAX_LINE} bytes")));
            }
            if need > bytes.capacity() {
                // Grow geometrically, but never past the cap.
                bytes.reserve_exact(need.max(2 * bytes.capacity()).min(MAX_LINE) - bytes.len());
            }
            bytes.extend_from_slice(&chunk[..take]);
            self.reader.consume(take + usize::from(end.is_some()));
            if end.is_some() {
                break;
            }
        }
        let valid = String::from_utf8(bytes);
        self.text = valid.map_err(|e| error(format!("invalid UTF-8: {}", e.utf8_error())))?;
        self.line += usize::from(read);
        Ok(read)
    }
}

fn io_err(e: impl Display) -> TimeSeriesError {
    TimeSeriesError::Io(e.to_string())
}

/// Create `path` and write it through `encode`.
fn write_file(
    path: &Path,
    encode: impl FnOnce(&mut BufWriter<File>) -> std::io::Result<()>,
) -> Result<()> {
    let mut out = BufWriter::new(File::create(path).map_err(io_err)?);
    encode(&mut out).and_then(|()| out.flush()).map_err(io_err)
}

/// Write a signal as `timestamp,value_0…` rows under a header; a
/// missing value is an empty field.
pub fn encode_signal(signal: &Signal, out: &mut impl Write) -> std::io::Result<()> {
    write!(out, "timestamp")?;
    for c in 0..signal.num_channels() {
        write!(out, ",value_{c}")?;
    }
    for (t, ts) in signal.timestamps().iter().enumerate() {
        write!(out, "\n{ts}")?;
        for c in 0..signal.num_channels() {
            match signal.channel(c)[t] {
                v if v.is_nan() => write!(out, ",")?,
                v => write!(out, ",{v}")?,
            }
        }
    }
    writeln!(out)
}

/// Write a signal file with [`encode_signal`].
pub fn write_signal_csv(signal: &Signal, path: &Path) -> Result<()> {
    write_file(path, |out| encode_signal(signal, out))
}

/// Decode a signal table: a header row (a `#` line 1 holding a `,`
/// included), whose field count fixes the value columns, then rows of a strictly increasing integer timestamp
/// and its values. An empty or absent value is `NaN`; extra fields are
/// ignored.
pub fn decode_signal(name: &str, reader: impl BufRead) -> Result<Signal> {
    let mut rows = Rows::new(reader);
    let Some(header) = rows.header_row()? else {
        return Err(CsvError { line: rows.line() + 1, message: "empty csv".into() }.into());
    };
    let n_channels = header.fields().count() - 1;
    if n_channels == 0 {
        return Err(header.error("csv needs at least one value column").into());
    }
    let mut timestamps: Vec<i64> = Vec::new();
    let mut channels = vec![Vec::new(); n_channels];
    while let Some(row) = rows.next_row()? {
        let mut fields = row.fields();
        let ts = row.parse("timestamp", fields.next())?;
        if let Some(&prev) = timestamps.last().filter(|&&prev| ts <= prev) {
            return Err(row.error(format!("timestamp {ts} is not after {prev}")).into());
        }
        timestamps.push(ts);
        for (c, channel) in channels.iter_mut().enumerate() {
            channel.push(match fields.next().filter(|f| !f.is_empty()) {
                None => f64::NAN,
                Some(f) => f
                    .parse()
                    .map_err(|e| row.error(format!("bad value in column {c} '{f}': {e}")))?,
            });
        }
    }
    Signal::multivariate(name, timestamps, channels)
}

/// Read a signal file with [`decode_signal`].
pub fn read_signal_csv(name: &str, path: &Path) -> Result<Signal> {
    decode_signal(name, BufReader::new(File::open(path).map_err(io_err)?))
}

/// Write anomaly labels as `start,end` rows under a header.
pub fn write_labels_csv(labels: &[Interval], path: &Path) -> Result<()> {
    write_file(path, |out| {
        writeln!(out, "start,end")?;
        labels.iter().try_for_each(|iv| writeln!(out, "{},{}", iv.start, iv.end))
    })
}

/// Decode `start,end` label rows. The first row is a header when it is
/// on line 1 or its start is not an integer; extra fields are ignored.
pub fn decode_labels(reader: impl BufRead) -> Result<Vec<Interval>> {
    let mut rows = Rows::new(reader);
    let mut out = Vec::new();
    let mut first = true;
    while let Some(row) = rows.next_row()? {
        let mut fields = row.fields();
        let start = row.parse("start", fields.next());
        if std::mem::take(&mut first) && (row.line == 1 || start.is_err()) {
            continue;
        }
        let end = row.parse("end", fields.next())?;
        out.push(Interval::new(start?, end).map_err(|e| row.error(e.to_string()))?);
    }
    Ok(out)
}

/// Read a label file with [`decode_labels`].
pub fn read_labels_csv(path: &Path) -> Result<Vec<Interval>> {
    decode_labels(BufReader::new(File::open(path).map_err(io_err)?))
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
        let s =
            Signal::multivariate("m", vec![0, 1], vec![vec![1.0, f64::NAN], vec![f64::NAN, 4.0]])
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
        let labels = vec![Interval::new(5, 10).unwrap(), Interval::new(100, 250).unwrap()];
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
        let err = read_signal_csv("b", &path).unwrap_err();
        assert!(matches!(err, TimeSeriesError::Csv(CsvError { line: 2, .. })), "{err}");
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let text = "\n# exported\ntimestamp,value_0\n1,0.5\n  # gap\n\n2,\n";
        let s = decode_signal("c", text.as_bytes()).unwrap();
        assert_eq!(s.timestamps(), &[1, 2]);
        assert_eq!(s.channel(0)[0], 0.5);
        assert!(s.channel(0)[1].is_nan());
        let labels = decode_labels("# labels\nstart,end\n5,10\n# done\n".as_bytes()).unwrap();
        assert_eq!(labels, vec![Interval::new(5, 10).unwrap()]);
        // With a comment on line 1, an integer first row is data, as it
        // was when line 1 was always the header.
        let labels = decode_labels("#\n5,10\n".as_bytes()).unwrap();
        assert_eq!(labels, vec![Interval::new(5, 10).unwrap()]);
    }

    #[test]
    fn a_commented_header_on_line_1_is_the_header() {
        // `numpy.savetxt(…, delimiter=',', header='timestamp,value')`.
        let s = decode_signal("h", "# timestamp,value\n0,1.5\n1,2.5\n".as_bytes()).unwrap();
        assert_eq!((s.timestamps(), s.num_channels()), (&[0, 1][..], 1));
        assert_eq!(s.channel(0), &[1.5, 2.5]);
        // Anywhere else, or without a `,`, a `#` line is a comment.
        let s = decode_signal("h", "# exported\nt,a,b\n# x,y\n0,1,2\n".as_bytes()).unwrap();
        assert_eq!((s.timestamps(), s.num_channels()), (&[0][..], 2));
        let s = decode_signal("h", "\n# t,v\nt,v\n0,1\n".as_bytes()).unwrap();
        assert_eq!((s.timestamps(), s.num_channels()), (&[0][..], 1));
    }

    #[test]
    fn rejections_carry_their_physical_line() {
        let line = |result: Result<Signal>| match result {
            Err(TimeSeriesError::Csv(e)) => (e.line, e.message),
            other => panic!("expected a CsvError, got {other:?}"),
        };
        let signal = |text: &[u8]| line(decode_signal("r", text));
        assert_eq!(signal(b"").0, 1);
        assert_eq!(signal(b"timestamp\n").0, 1);
        assert_eq!(signal(b"t,v\n1,1\n\n1,2\n"), (4, "timestamp 1 is not after 1".into()));
        assert!(signal(b"t,v\n1,1\n# c\n2,x\n").1.starts_with("bad value in column 0 'x'"));
        assert!(signal(b"t,v\n1,\xff\n").1.starts_with("invalid UTF-8: "));
        let labels = |text: &str| match decode_labels(text.as_bytes()) {
            Err(TimeSeriesError::Csv(e)) => (e.line, e.message),
            other => panic!("expected a CsvError, got {other:?}"),
        };
        assert_eq!(labels("start,end\n5\n"), (2, "missing end".into()));
        assert_eq!(
            labels("start,end\n\n9,5\n"),
            (3, "invalid interval: end 5 before start 9".into())
        );
    }

    #[test]
    fn empty_file_rejected() {
        let dir = tmpdir();
        let path = dir.join("empty.csv");
        std::fs::write(&path, "").unwrap();
        assert!(read_signal_csv("e", &path).is_err());
    }
}
