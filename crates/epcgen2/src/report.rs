//! LLRP-style low-level tag reports.
//!
//! The Impinj R420, driven through the LLRP Toolkit as in the paper's
//! prototype, reports for every successful tag identification: the EPC, a
//! timestamp, the RF phase, the RSSI, the Doppler estimate, the channel
//! index and the antenna port. [`TagReport`] is that record; a `Vec` of them
//! is the interface between the reader (real or simulated) and the
//! TagBreathe pipeline. CSV import/export allows captured traces to be
//! replayed.

use crate::epc::Epc96;
use std::io::{BufRead, Write};

/// One low-level read report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TagReport {
    /// Timestamp of the read, seconds since the start of the trace.
    pub time_s: f64,
    /// The tag's (possibly overwritten) EPC.
    pub epc: Epc96,
    /// Antenna port that performed the read (1-based, as LLRP reports it).
    pub antenna_port: u8,
    /// Frequency-channel index active during the read.
    pub channel_index: u16,
    /// RF phase in `[0, 2π)` radians.
    pub phase_rad: f64,
    /// Received signal strength, dBm.
    pub rssi_dbm: f64,
    /// Doppler frequency estimate, Hz.
    pub doppler_hz: f64,
}

/// Error reading a trace from CSV.
#[derive(Debug)]
pub enum TraceError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A malformed line (1-based line number and description).
    Parse(usize, String),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace I/O error: {e}"),
            TraceError::Parse(line, what) => write!(f, "trace parse error at line {line}: {what}"),
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            TraceError::Parse(..) => None,
        }
    }
}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> Self {
        TraceError::Io(e)
    }
}

const CSV_HEADER: &str = "time_s,epc,antenna_port,channel_index,phase_rad,rssi_dbm,doppler_hz";

/// Writes a trace as CSV (with header). Pass `&mut` writers per C-RW-VALUE.
///
/// # Errors
///
/// Returns any I/O error from the writer.
pub fn write_csv<W: Write>(mut w: W, reports: &[TagReport]) -> Result<(), TraceError> {
    writeln!(w, "{CSV_HEADER}")?;
    for r in reports {
        writeln!(
            w,
            "{:.6},{},{},{},{:.6},{:.2},{:.4}",
            r.time_s, r.epc, r.antenna_port, r.channel_index, r.phase_rad, r.rssi_dbm, r.doppler_hz
        )?;
    }
    Ok(())
}

/// Reads a trace from CSV produced by [`write_csv`].
///
/// # Errors
///
/// Returns [`TraceError::Parse`] on any malformed line and
/// [`TraceError::Io`] on read failures.
pub fn read_csv<R: BufRead>(r: R) -> Result<Vec<TagReport>, TraceError> {
    let mut out = Vec::new();
    for (i, line) in r.lines().enumerate() {
        let line = line?;
        let lineno = i + 1;
        if i == 0 {
            if line.trim() != CSV_HEADER {
                return Err(TraceError::Parse(lineno, "unexpected header".into()));
            }
            continue;
        }
        if line.trim().is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() != 7 {
            return Err(TraceError::Parse(
                lineno,
                format!("expected 7 fields, found {}", fields.len()),
            ));
        }
        let parse_f = |s: &str, what: &str| {
            s.trim()
                .parse::<f64>()
                .map_err(|_| TraceError::Parse(lineno, format!("bad {what}: {s:?}")))
        };
        out.push(TagReport {
            time_s: parse_f(fields[0], "time")?,
            epc: fields[1]
                .trim()
                .parse()
                .map_err(|e| TraceError::Parse(lineno, format!("bad EPC: {e}")))?,
            antenna_port: fields[2].trim().parse().map_err(|_| {
                TraceError::Parse(lineno, format!("bad antenna port: {:?}", fields[2]))
            })?,
            channel_index: fields[3]
                .trim()
                .parse()
                .map_err(|_| TraceError::Parse(lineno, format!("bad channel: {:?}", fields[3])))?,
            phase_rad: parse_f(fields[4], "phase")?,
            rssi_dbm: parse_f(fields[5], "rssi")?,
            doppler_hz: parse_f(fields[6], "doppler")?,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_reports() -> Vec<TagReport> {
        vec![
            TagReport {
                time_s: 0.015625,
                epc: Epc96::monitor(1, 0),
                antenna_port: 1,
                channel_index: 3,
                phase_rad: 1.234567,
                rssi_dbm: -48.5,
                doppler_hz: 0.1234,
            },
            TagReport {
                time_s: 0.031250,
                epc: Epc96::monitor(1, 1),
                antenna_port: 1,
                channel_index: 3,
                phase_rad: 5.9,
                rssi_dbm: -50.0,
                doppler_hz: -2.5,
            },
        ]
    }

    #[test]
    fn csv_round_trip() -> Result<(), Box<dyn std::error::Error>> {
        let reports = sample_reports();
        let mut buf = Vec::new();
        write_csv(&mut buf, &reports)?;
        let parsed = read_csv(buf.as_slice())?;
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].epc, reports[0].epc);
        assert!((parsed[0].phase_rad - reports[0].phase_rad).abs() < 1e-6);
        assert!((parsed[1].rssi_dbm - reports[1].rssi_dbm).abs() < 1e-2);
        assert_eq!(parsed[1].channel_index, 3);
        Ok(())
    }

    #[test]
    fn csv_has_header() -> Result<(), Box<dyn std::error::Error>> {
        let mut buf = Vec::new();
        write_csv(&mut buf, &[])?;
        let s = String::from_utf8(buf)?;
        assert!(s.starts_with("time_s,epc,"));
        Ok(())
    }

    #[test]
    fn read_rejects_bad_header() {
        let err = read_csv("nope\n".as_bytes()).err();
        assert!(matches!(err, Some(TraceError::Parse(1, _))));
    }

    #[test]
    fn read_rejects_wrong_field_count() {
        let data = format!("{CSV_HEADER}\n1.0,abc\n");
        let err = read_csv(data.as_bytes()).err();
        assert!(matches!(err, Some(TraceError::Parse(2, _))));
    }

    #[test]
    fn read_rejects_bad_epc() {
        let data = format!("{CSV_HEADER}\n1.0,XYZ,1,3,1.0,-50.0,0.0\n");
        let msg = read_csv(data.as_bytes()).err().map(|e| e.to_string());
        assert!(
            msg.as_ref().is_some_and(|m| m.contains("line 2")),
            "{msg:?}"
        );
    }

    #[test]
    fn read_skips_blank_lines() -> Result<(), Box<dyn std::error::Error>> {
        let data = format!(
            "{CSV_HEADER}\n\n0.5,{},1,0,0.5,-40.0,0.0\n\n",
            Epc96::monitor(2, 1)
        );
        let parsed = read_csv(data.as_bytes())?;
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].epc.user_id(), 2);
        Ok(())
    }

    #[test]
    fn trace_error_displays() {
        let e = TraceError::Parse(3, "oops".into());
        assert_eq!(e.to_string(), "trace parse error at line 3: oops");
    }
}
