//! Length-prefixed binary wire encoding for campaign results.
//!
//! JSON (via [`crate::json::JsonWriter`] / [`crate::jsonval`]) is the
//! debug and interop form of every result — readable, greppable, and
//! the byte-stable format the committed `BENCH_*.json` trajectory
//! depends on. But a quick-matrix shard is dominated by per-cell latency
//! arrays, and formatting/parsing tens of thousands of decimal `u64`s
//! costs far more than moving their raw bytes.
//!
//! This module is the compact twin: a little-endian, length-prefixed
//! binary encoding for [`Report`], `CampaignShard` and `CampaignResult`
//! (the campaign types implement their codecs in
//! [`crate::campaign`] on top of the [`BinWriter`]/[`BinReader`]
//! primitives here). Every document opens with the one-byte [`MAGIC`]
//! — a UTF-8 continuation byte no JSON document can start with — so
//! readers tell the forms apart by looking at the first byte
//! ([`is_binary`]). The dispatcher sends its bulk frames (shard,
//! checkpoint, result) in this form and its control frames as JSON.
//!
//! The decode side is a trust boundary exactly like [`crate::jsonval`]:
//! truncated buffers, bad magic/kind bytes, over-long length prefixes
//! and invalid UTF-8 are all typed [`WireError`]s — never panics, and
//! never unbounded allocations (length prefixes are checked against the
//! bytes actually present before anything is reserved). Round trips are
//! pinned to the JSON path by proptests in `tests/binwire_roundtrip.rs`:
//! decode(encode(x)) re-serializes to JSON byte-identically to `x`.

use crate::jsonval::WireError;
use crate::report::{intern_scheduler_name, Report};

/// First byte of every binary document. `0xB1` is a UTF-8 continuation
/// byte: no JSON text (which starts with `{`, whitespace or another
/// ASCII scalar) can begin with it, so one byte settles the format.
pub const MAGIC: u8 = 0xB1;

/// Document kind byte for a [`Report`].
pub const KIND_REPORT: u8 = b'R';
/// Document kind byte for a `CampaignShard`.
pub const KIND_SHARD: u8 = b'S';
/// Document kind byte for a `CampaignResult`.
pub const KIND_RESULT: u8 = b'C';
/// Document kind byte for a `ShardCheckpoint`.
pub const KIND_CHECKPOINT: u8 = b'K';

/// `true` when a payload starting with `first` is binwire (vs JSON).
#[inline]
pub fn is_binary(first: u8) -> bool {
    first == MAGIC
}

/// Appends binwire primitives to a growing byte buffer. All integers are
/// little-endian; strings and sequences carry a `u32` length prefix.
pub struct BinWriter {
    buf: Vec<u8>,
}

impl BinWriter {
    /// A writer whose document opens with [`MAGIC`] and `kind`.
    pub fn new(kind: u8) -> BinWriter {
        BinWriter {
            buf: vec![MAGIC, kind],
        }
    }

    /// One raw byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// A `u32`, little-endian — the length-prefix form.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// A `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// An `f64` as its exact IEEE-754 bits (no decimal round trip).
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// A length prefix for `len` following items.
    pub fn len(&mut self, len: usize) {
        debug_assert!(len <= u32::MAX as usize);
        self.u32(len as u32);
    }

    /// A UTF-8 string: `u32` byte length + bytes.
    pub fn str(&mut self, s: &str) {
        self.len(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// An optional string: presence byte + string when present.
    pub fn opt_str(&mut self, s: Option<&str>) {
        match s {
            Some(s) => {
                self.u8(1);
                self.str(s);
            }
            None => self.u8(0),
        }
    }

    /// Pre-encoded bytes, appended verbatim — used to nest a complete
    /// binwire document (its own `[MAGIC, kind]` header included) inside
    /// an enclosing one.
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// The finished document bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Bounds-checked cursor over a binwire document. Every read that would
/// pass the end of the buffer is a typed [`WireError`] naming the
/// offset; length prefixes are validated against the bytes actually
/// remaining before any allocation.
pub struct BinReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> BinReader<'a> {
    /// A reader positioned after the `[MAGIC, kind]` header, or an error
    /// if the document doesn't open with exactly that header.
    pub fn new(buf: &'a [u8], kind: u8) -> Result<BinReader<'a>, WireError> {
        if buf.first() != Some(&MAGIC) {
            return Err(WireError::new(format!(
                "binwire: document does not start with magic 0x{MAGIC:02x}"
            )));
        }
        if buf.get(1) != Some(&kind) {
            return Err(WireError::new(format!(
                "binwire: expected document kind {:?}, found {:?}",
                kind as char,
                buf.get(1).map(|&b| b as char)
            )));
        }
        Ok(BinReader { buf, pos: 2 })
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        match end {
            Some(end) => {
                let slice = &self.buf[self.pos..end];
                self.pos = end;
                Ok(slice)
            }
            None => Err(WireError::new(format!(
                "binwire: truncated document ({} bytes needed at offset {}, {} present)",
                n,
                self.pos,
                self.buf.len()
            ))),
        }
    }

    /// One raw byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes taken")))
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes taken")))
    }

    /// An `f64` from its IEEE-754 bits.
    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A length prefix for items of at least `item_bytes` bytes each,
    /// rejected if the declared count cannot fit in the remaining buffer
    /// — so a garbage prefix can never drive an unbounded allocation.
    pub fn len(&mut self, item_bytes: usize) -> Result<usize, WireError> {
        let n = self.u32()? as usize;
        let remaining = self.buf.len() - self.pos;
        if n.saturating_mul(item_bytes.max(1)) > remaining {
            return Err(WireError::new(format!(
                "binwire: length prefix {n} at offset {} exceeds the {remaining} bytes remaining",
                self.pos - 4,
            )));
        }
        Ok(n)
    }

    /// A UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, WireError> {
        let n = self.len(1)?;
        let bytes = self.take(n)?;
        std::str::from_utf8(bytes)
            .map_err(|e| WireError::new(format!("binwire: invalid UTF-8 in string: {e}")))
    }

    /// An optional string.
    pub fn opt_str(&mut self) -> Result<Option<&'a str>, WireError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.str()?)),
            other => Err(WireError::new(format!(
                "binwire: invalid option tag {other} at offset {}",
                self.pos - 1
            ))),
        }
    }

    /// Everything from the cursor to the end of the buffer, consumed —
    /// the counterpart of [`BinWriter::raw`] for a trailing nested
    /// document whose own codec enforces its framing.
    pub fn rest(&mut self) -> &'a [u8] {
        let slice = &self.buf[self.pos..];
        self.pos = self.buf.len();
        slice
    }

    /// Asserts the document ends here — trailing bytes are corruption.
    pub fn finish(self) -> Result<(), WireError> {
        if self.pos != self.buf.len() {
            return Err(WireError::new(format!(
                "binwire: {} trailing bytes after the document",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

/// Writes a [`Report`]'s raw measurement fields (the same set
/// [`Report::from_json`] reads — derived metrics are recomputed, never
/// shipped) into an open writer.
pub(crate) fn write_report(w: &mut BinWriter, r: &Report) {
    w.str(r.scheduler);
    w.str(&r.workload);
    w.u64(r.n_cores as u64);
    w.u64(r.makespan);
    w.u64(r.transactions as u64);
    w.u64(r.context_switches);
    w.u64(r.migrations);
    w.opt_str(r.hybrid_choice);
    w.len(r.latencies.len());
    for &l in &r.latencies {
        w.u64(l);
    }
    w.len(r.stats.cores.len());
    for c in &r.stats.cores {
        w.u64(c.instructions);
        w.u64(c.i_accesses);
        w.u64(c.i_misses);
        w.u64(c.i_misses_hidden);
        w.u64(c.prefetches);
        w.u64(c.useful_prefetches);
        w.u64(c.d_accesses);
        w.u64(c.d_misses);
        w.u64(c.d_coherence_misses);
        w.u64(c.upgrade_invalidations);
        w.u64(c.i_stall_cycles);
        w.u64(c.d_stall_cycles);
    }
    w.u64(r.stats.shared.l2_accesses);
    w.u64(r.stats.shared.l2_misses);
    w.u64(r.stats.shared.writebacks);
}

/// Reads a [`Report`] written by [`write_report`]. Scheduler names are
/// interned against the same capped table the JSON parser uses.
pub(crate) fn read_report(r: &mut BinReader<'_>) -> Result<Report, WireError> {
    use strex_sim::stats::{CoreStats, SharedStats, SystemStats};
    let scheduler = intern_scheduler_name(r.str()?)?;
    let workload = r.str()?.to_string();
    let n_cores = r.u64()? as usize;
    let makespan = r.u64()?;
    let transactions = r.u64()? as usize;
    let context_switches = r.u64()?;
    let migrations = r.u64()?;
    let hybrid_choice = match r.opt_str()? {
        Some(name) => Some(intern_scheduler_name(name)?),
        None => None,
    };
    let n_lat = r.len(8)?;
    let mut latencies = Vec::with_capacity(n_lat);
    for _ in 0..n_lat {
        latencies.push(r.u64()?);
    }
    let n_cores_stats = r.len(12 * 8)?;
    let mut cores = Vec::with_capacity(n_cores_stats);
    for _ in 0..n_cores_stats {
        cores.push(CoreStats {
            instructions: r.u64()?,
            i_accesses: r.u64()?,
            i_misses: r.u64()?,
            i_misses_hidden: r.u64()?,
            prefetches: r.u64()?,
            useful_prefetches: r.u64()?,
            d_accesses: r.u64()?,
            d_misses: r.u64()?,
            d_coherence_misses: r.u64()?,
            upgrade_invalidations: r.u64()?,
            i_stall_cycles: r.u64()?,
            d_stall_cycles: r.u64()?,
        });
    }
    let shared = SharedStats {
        l2_accesses: r.u64()?,
        l2_misses: r.u64()?,
        writebacks: r.u64()?,
    };
    Ok(Report {
        scheduler,
        workload,
        n_cores,
        makespan,
        transactions,
        latencies,
        stats: SystemStats { cores, shared },
        context_switches,
        migrations,
        hybrid_choice,
    })
}

impl Report {
    /// Serializes the report as a standalone binwire document — the
    /// binary twin of [`Report::to_json`].
    pub fn to_bin(&self) -> Vec<u8> {
        let mut w = BinWriter::new(KIND_REPORT);
        write_report(&mut w, self);
        w.finish()
    }

    /// Parses a report from its [`to_bin`](Report::to_bin) form.
    pub fn from_bin(bytes: &[u8]) -> Result<Report, WireError> {
        let mut r = BinReader::new(bytes, KIND_REPORT)?;
        let report = read_report(&mut r)?;
        r.finish()?;
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn negotiation_distinguishes_json_from_binary() {
        assert!(is_binary(MAGIC));
        assert!(!is_binary(b'{'));
        assert!(!is_binary(b' '));
        // MAGIC is a UTF-8 continuation byte: no valid JSON text starts
        // with it.
        assert!(std::str::from_utf8(&[MAGIC]).is_err());
    }

    #[test]
    fn primitives_round_trip() {
        let mut w = BinWriter::new(b'T');
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 1);
        w.f64(0.1 + 0.2);
        w.str("hé\u{1F600}");
        w.opt_str(None);
        w.opt_str(Some("x"));
        let bytes = w.finish();

        let mut r = BinReader::new(&bytes, b'T').expect("header");
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.f64().unwrap(), 0.1 + 0.2);
        assert_eq!(r.str().unwrap(), "hé\u{1F600}");
        assert_eq!(r.opt_str().unwrap(), None);
        assert_eq!(r.opt_str().unwrap(), Some("x"));
        r.finish().expect("fully consumed");
    }

    #[test]
    fn corrupt_headers_lengths_and_tails_are_typed_errors() {
        assert!(BinReader::new(b"", b'T').is_err(), "empty");
        assert!(BinReader::new(b"{\"a\":1}", b'T').is_err(), "JSON bytes");
        assert!(BinReader::new(&[MAGIC, b'X'], b'T').is_err(), "wrong kind");

        // A length prefix larger than the remaining buffer must fail
        // before allocating.
        let mut w = BinWriter::new(b'T');
        w.u32(u32::MAX);
        let bytes = w.finish();
        let mut r = BinReader::new(&bytes, b'T').expect("header");
        assert!(r.str().is_err(), "oversized length prefix");

        // Trailing bytes are corruption, not silently ignored.
        let mut w = BinWriter::new(b'T');
        w.u8(1);
        let mut bytes = w.finish();
        bytes.push(0xFF);
        let mut r = BinReader::new(&bytes, b'T').expect("header");
        r.u8().expect("payload byte");
        assert!(r.finish().is_err(), "trailing byte");
    }
}
