//! Opening trace files and replaying their per-core streams.

use crate::format::{OpDecoder, TraceHeader};
use cmpleak_cpu::{TraceOp, Workload};
use std::io;
use std::path::Path;

/// An opened trace file: parsed header plus the whole image, held in
/// memory. Opening validates every byte of it (see
/// [`TraceFile::from_bytes`]), so nothing read from the file can fail
/// later, halfway through a simulation.
#[derive(Clone)]
pub struct TraceFile {
    header: TraceHeader,
    image: Vec<u8>,
}

impl std::fmt::Debug for TraceFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceFile")
            .field("header", &self.header)
            .field("image_bytes", &self.image.len())
            .finish()
    }
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Check that the header's claimed stream lengths fit the actual image
/// size, so corrupt length fields fail here with an error instead of
/// reaching a giant buffer allocation later.
fn validate_size(header: &TraceHeader, available: u64) -> io::Result<()> {
    let mut expected = header.byte_len();
    for c in &header.cores {
        expected = expected
            .checked_add(c.len)
            .ok_or_else(|| invalid("trace stream lengths overflow".into()))?;
    }
    if expected != available {
        return Err(invalid(format!(
            "trace header claims {expected} bytes but the image has {available}"
        )));
    }
    Ok(())
}

/// Decode every core's stream in full: it must yield exactly the
/// header's op count, consume exactly its byte length, and sum to the
/// header's instruction count. A stream truncated or mutated behind a
/// valid header fails here, not when a replay reaches the bad op.
fn validate_streams(header: &TraceHeader, image: &[u8]) -> io::Result<()> {
    let mut start = header.byte_len() as usize;
    for (core, info) in header.cores.iter().enumerate() {
        let stream = &image[start..start + info.len as usize];
        start += info.len as usize;
        let mut dec = OpDecoder::new();
        let (mut pos, mut ops, mut instructions) = (0usize, 0u64, 0u64);
        while ops < info.ops {
            let Some(op) = dec.decode(stream, &mut pos) else {
                return Err(invalid(format!(
                    "trace stream of core {core} ('{}') breaks off after {ops} of {} ops",
                    info.name, info.ops
                )));
            };
            ops += 1;
            instructions += op.instructions();
        }
        if pos != stream.len() {
            return Err(invalid(format!(
                "trace stream of core {core} ('{}') has {} bytes past its {} ops",
                info.name,
                stream.len() - pos,
                info.ops
            )));
        }
        if instructions != info.instructions {
            return Err(invalid(format!(
                "trace stream of core {core} ('{}') holds {instructions} instructions, \
                 its header claims {}",
                info.name, info.instructions
            )));
        }
    }
    Ok(())
}

impl TraceFile {
    /// Open `path`: read the image and validate it as
    /// [`TraceFile::from_bytes`] does.
    pub fn open(path: impl AsRef<Path>) -> io::Result<Self> {
        Self::from_bytes(std::fs::read(path.as_ref())?)
    }

    /// Parse an in-memory trace image, validating the header, that the
    /// per-core stream lengths add up to the image size, and that every
    /// stream decodes to exactly its recorded op and instruction counts.
    /// Any damaged image returns an error.
    pub fn from_bytes(bytes: Vec<u8>) -> io::Result<Self> {
        let header = TraceHeader::read(&mut bytes.as_slice())?;
        validate_size(&header, bytes.len() as u64)?;
        validate_streams(&header, &bytes)?;
        Ok(Self { header, image: bytes })
    }

    /// The parsed header.
    pub fn header(&self) -> &TraceHeader {
        &self.header
    }

    /// The raw file image (the exact bytes, for content addressing).
    pub fn image(&self) -> &[u8] {
        &self.image
    }

    /// Scenario label recorded in the header.
    pub fn label(&self) -> &str {
        &self.header.label
    }

    /// Seed the recorded streams were generated with.
    pub fn seed(&self) -> u64 {
        self.header.seed
    }

    /// Number of per-core streams.
    pub fn n_cores(&self) -> usize {
        self.header.n_cores()
    }

    /// Smallest per-core instruction coverage — the largest
    /// `instructions_per_core` this trace can drive without exhausting a
    /// stream.
    pub fn min_core_instructions(&self) -> u64 {
        self.header.cores.iter().map(|c| c.instructions).min().unwrap_or(0)
    }

    /// `core`'s stream as a replayable [`Workload`], or `None` if the
    /// trace has no such core.
    pub fn core_workload(&self, core: usize) -> Option<TraceWorkload> {
        let info = self.header.cores.get(core)?;
        let offset = self.header.stream_offset(core) as usize;
        Some(TraceWorkload {
            name: info.name.clone(),
            total_ops: info.ops,
            total_instructions: info.instructions,
            buf: self.image[offset..offset + info.len as usize].to_vec(),
            pos: 0,
            ops_read: 0,
            dec: OpDecoder::new(),
        })
    }

    /// Every core's stream as a replayable [`Workload`], core order.
    pub fn workloads(&self) -> Vec<TraceWorkload> {
        (0..self.n_cores()).filter_map(|c| self.core_workload(c)).collect()
    }
}

/// Replays one recorded core stream as a [`Workload`].
///
/// The stream is finite; it covers at least the instruction budget it
/// was recorded for ([`TraceWorkload::total_instructions`]). Driving it
/// past the end is a configuration error and panics with a diagnostic —
/// silently looping would diverge from the live stream and defeat the
/// bit-identical replay contract.
#[derive(Debug, Clone)]
pub struct TraceWorkload {
    name: String,
    total_ops: u64,
    total_instructions: u64,
    buf: Vec<u8>,
    pos: usize,
    ops_read: u64,
    dec: OpDecoder,
}

impl TraceWorkload {
    /// Ops in the stream.
    pub fn total_ops(&self) -> u64 {
        self.total_ops
    }

    /// Σ `op.instructions()` over the stream — the largest simulation
    /// budget this stream can drive.
    pub fn total_instructions(&self) -> u64 {
        self.total_instructions
    }

    /// Ops decoded so far.
    pub fn ops_read(&self) -> u64 {
        self.ops_read
    }

    /// Decode the next op, or `None` at end of stream.
    pub fn try_next_op(&mut self) -> Option<TraceOp> {
        if self.ops_read >= self.total_ops {
            return None;
        }
        let op = self.dec.decode(&self.buf, &mut self.pos)?;
        self.ops_read += 1;
        Some(op)
    }
}

impl Workload for TraceWorkload {
    fn next_op(&mut self) -> TraceOp {
        self.try_next_op().unwrap_or_else(|| {
            // audit:allow(unwrap-in-lib, contract violation: the recording covered the requested budget by construction, so exhaustion is a caller bug worth aborting on)
            panic!(
                "trace stream '{}' exhausted after {} ops / {} instructions — it was recorded \
                 for a smaller instruction budget than this simulation requests",
                self.name, self.total_ops, self.total_instructions
            )
        })
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn ops_remaining(&self) -> Option<u64> {
        Some(self.total_ops - self.ops_read)
    }

    /// Batch refill (see [`Workload::fill_ops`]): decode straight into
    /// `out` through the batch decoder instead of one op at a time.
    fn fill_ops(&mut self, out: &mut Vec<TraceOp>, max: usize) -> usize {
        let take = (self.total_ops - self.ops_read).min(max as u64) as usize;
        let before = out.len();
        out.resize(before + take, TraceOp::Exec(0));
        let got = self.dec.decode_batch(&self.buf, &mut self.pos, &mut out[before..]);
        assert_eq!(got, take, "stream shorter than its recorded op count");
        self.ops_read += take as u64;
        take
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::TraceRecorder;
    use cmpleak_cpu::ReplayWorkload;

    fn two_core_trace() -> TraceRecorder {
        let mut a = ReplayWorkload::named(
            "alpha",
            vec![TraceOp::Exec(2), TraceOp::Load(0x40), TraceOp::Store(0x80)],
        );
        let mut b = ReplayWorkload::named("beta", vec![TraceOp::Load(0x1000), TraceOp::Exec(5)]);
        let mut rec = TraceRecorder::new("pair", 3);
        rec.record_core(&mut a, 16);
        rec.record_core(&mut b, 12);
        rec
    }

    #[test]
    fn roundtrip_through_bytes_preserves_streams() {
        let rec = two_core_trace();
        let tf = TraceFile::from_bytes(rec.to_bytes()).unwrap();
        assert_eq!(tf.label(), "pair");
        assert_eq!(tf.seed(), 3);
        assert_eq!(tf.n_cores(), 2);

        let mut replay = tf.core_workload(0).unwrap();
        assert_eq!(replay.name(), "alpha");
        let mut live = ReplayWorkload::named(
            "alpha",
            vec![TraceOp::Exec(2), TraceOp::Load(0x40), TraceOp::Store(0x80)],
        );
        for _ in 0..replay.total_ops() {
            assert_eq!(replay.next_op(), live.next_op());
        }
        assert!(replay.try_next_op().is_none());
    }

    #[test]
    fn roundtrip_through_a_real_file_with_seek() {
        let rec = two_core_trace();
        let path = std::env::temp_dir().join("cmpleak_trace_reader_test.cmpt");
        rec.save(&path).unwrap();
        let tf = TraceFile::open(&path).unwrap();
        let mut w1 = tf.core_workload(1).unwrap();
        assert_eq!(w1.name(), "beta");
        assert_eq!(w1.next_op(), TraceOp::Load(0x1000));
        assert_eq!(w1.next_op(), TraceOp::Exec(5));
        assert!(tf.core_workload(2).is_none(), "out-of-range core is rejected");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_stream_length_is_rejected_at_open() {
        let rec = two_core_trace();
        let mut bytes = rec.to_bytes();
        // Truncate the payload: header now claims more bytes than exist.
        bytes.truncate(bytes.len() - 3);
        assert!(TraceFile::from_bytes(bytes).is_err());
        // Same through a real file, where an unchecked length would
        // otherwise size a buffer allocation.
        let path = std::env::temp_dir().join("cmpleak_trace_corrupt_test.cmpt");
        let mut good = rec.to_bytes();
        good.extend_from_slice(b"junk");
        std::fs::write(&path, &good).unwrap();
        assert!(TraceFile::open(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_op_stream_behind_a_valid_header_is_rejected_at_open() {
        let rec = two_core_trace();
        let bytes = rec.to_bytes();
        let mut header = TraceHeader::read(&mut bytes.as_slice()).unwrap();
        let streams = &bytes[header.byte_len() as usize..];
        // Drop core 1's last op byte and shrink its length field to
        // match: the sizes agree, the op count does not.
        header.cores[1].len -= 1;
        let mut image = header.encode();
        image.extend_from_slice(&streams[..streams.len() - 1]);
        let err = TraceFile::from_bytes(image.clone()).unwrap_err();
        assert!(err.to_string().contains("breaks off"), "{err}");
        let path = std::env::temp_dir().join("cmpleak_trace_truncated_test.cmpt");
        std::fs::write(&path, &image).unwrap();
        assert!(TraceFile::open(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stream_claiming_wrong_instruction_count_is_rejected_at_open() {
        let rec = two_core_trace();
        let bytes = rec.to_bytes();
        let mut header = TraceHeader::read(&mut bytes.as_slice()).unwrap();
        let streams = bytes[header.byte_len() as usize..].to_vec();
        header.cores[0].instructions += 1;
        let mut image = header.encode();
        image.extend_from_slice(&streams);
        assert!(TraceFile::from_bytes(image).is_err());
    }

    #[test]
    fn min_core_instructions_is_the_weakest_stream() {
        let tf = TraceFile::from_bytes(two_core_trace().to_bytes()).unwrap();
        assert_eq!(
            tf.min_core_instructions(),
            tf.header().cores.iter().map(|c| c.instructions).min().unwrap()
        );
    }

    #[test]
    fn fill_ops_decodes_batches_identically_to_next_op() {
        let rec = two_core_trace();
        let tf = TraceFile::from_bytes(rec.to_bytes()).unwrap();
        let mut a = tf.core_workload(0).unwrap();
        let mut b = tf.core_workload(0).unwrap();
        let mut got = Vec::new();
        assert_eq!(a.fill_ops(&mut got, 3), 3);
        while a.fill_ops(&mut got, 5) == 5 {}
        let want: Vec<TraceOp> = (0..b.total_ops()).map(|_| b.next_op()).collect();
        assert_eq!(got, want);
        assert_eq!(a.ops_remaining(), Some(0));
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn exhaustion_panics_with_diagnostic() {
        let tf = TraceFile::from_bytes(two_core_trace().to_bytes()).unwrap();
        let mut w = tf.core_workload(0).unwrap();
        for _ in 0..=w.total_ops() {
            w.next_op();
        }
    }
}
