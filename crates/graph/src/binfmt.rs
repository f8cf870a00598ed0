//! Versioned little-endian binary container for [`Graph`] — the zero-copy
//! data plane.
//!
//! The text edge-list format of [`crate::io`] pays a per-edge cost on load:
//! tokenise, parse two ids and a float, validate, then rebuild both CSR
//! indexes and re-derive every transition probability.  This module instead
//! persists the finished product — the forward and reverse [`Csr`] arrays
//! exactly as the walk kernels consume them — so a load is a handful of
//! header checks, then a little-endian decode that streams each flat array
//! through one 64 KiB buffer straight into its final vector, and structural
//! bounds validation.  The load's peak is the graph plus 64 KiB: no
//! whole-file image, which would double it and, once freed, can stay mapped
//! as a hole below the arrays.  No per-edge parsing, no probability
//! re-derivation, no re-sorting.
//!
//! ## Layout (format version 1, all integers little-endian)
//!
//! ```text
//! offset  size  field
//! 0       4     magic            b"DHTG"
//! 4       4     version          u32 (currently 1)
//! 8       8     node_count       u64
//! 16      8     edge_count       u64
//! 24      8     labels_len       u64   byte length of the labels blob
//! 32      8     header_checksum  u64   FNV-1a over bytes 0..32
//! 40      ...   forward offsets  (node_count + 1) × u32
//!         ...   forward targets  edge_count × u32
//!         ...   forward weights  edge_count × f64
//!         ...   forward probs    edge_count × f64
//!         ...   reverse offsets  (node_count + 1) × u32
//!         ...   reverse sources  edge_count × u32
//!         ...   reverse weights  edge_count × f64
//!         ...   reverse probs    edge_count × f64
//!         ...   labels blob      labels_len bytes (see below)
//! ```
//!
//! The labels blob is `labeled_count: u64` followed by
//! `(node: u32, len: u32, utf-8 bytes)` per labeled node, in ascending node
//! order; unlabeled graphs carry an 8-byte blob.
//!
//! ## Versioning rules
//!
//! The version is bumped whenever the byte layout changes; readers accept
//! exactly one version and return
//! [`GraphError::VersionMismatch`] otherwise — there is no silent
//! best-effort decoding.  The header checksum (FNV-1a, dependency-free)
//! guards the five fields that size the rest of the file, so a corrupted
//! length can never cause a huge allocation or a misaligned decode; the
//! payload is guarded by structural validation instead (monotone offsets
//! ending at `edge_count`, every neighbour id `< node_count`), which a
//! sequential scan verifies at memory speed.

use std::fs::File;
use std::io::{BufWriter, ErrorKind, Read, Write};
use std::path::Path;

use crate::csr::Csr;
use crate::graph::Graph;
use crate::{fnv1a, GraphError, Result};

/// File magic: the first four bytes of every binary graph container.
pub const MAGIC: [u8; 4] = *b"DHTG";

/// Current (and only supported) format version.
pub const VERSION: u32 = 1;

/// Conventional file extension for the binary container.
pub const FILE_EXTENSION: &str = "dht";

/// Fixed prelude + header size in bytes (magic .. header_checksum).
pub const HEADER_LEN: usize = 40;

/// The checksum the header stores over its first 32 bytes — exposed so
/// external tooling (and tests) can re-stamp a hand-edited header.
pub fn header_checksum(prefix: &[u8]) -> u64 {
    fnv1a(prefix)
}

fn corrupt(message: impl Into<String>) -> GraphError {
    GraphError::Corrupt {
        message: message.into(),
    }
}

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

fn push_u32s(out: &mut impl Write, values: &[u32]) -> std::io::Result<()> {
    // Bulk-encode through a reused byte buffer so the writer sees large
    // writes instead of 4-byte ones.
    let mut buf = Vec::with_capacity(values.len().min(1 << 16) * 4);
    for chunk in values.chunks(1 << 14) {
        buf.clear();
        for v in chunk {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        out.write_all(&buf)?;
    }
    Ok(())
}

fn push_f64s(out: &mut impl Write, values: &[f64]) -> std::io::Result<()> {
    let mut buf = Vec::with_capacity(values.len().min(1 << 16) * 8);
    for chunk in values.chunks(1 << 13) {
        buf.clear();
        for v in chunk {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        out.write_all(&buf)?;
    }
    Ok(())
}

fn encode_labels(labels: &[Option<String>]) -> Vec<u8> {
    let labeled: Vec<(u32, &str)> = labels
        .iter()
        .enumerate()
        .filter_map(|(i, l)| l.as_deref().map(|s| (i as u32, s)))
        .collect();
    let mut blob = Vec::with_capacity(8 + labeled.iter().map(|(_, s)| 8 + s.len()).sum::<usize>());
    blob.extend_from_slice(&(labeled.len() as u64).to_le_bytes());
    for (node, label) in labeled {
        blob.extend_from_slice(&node.to_le_bytes());
        blob.extend_from_slice(&(label.len() as u32).to_le_bytes());
        blob.extend_from_slice(label.as_bytes());
    }
    blob
}

fn write_csr(out: &mut impl Write, csr: &Csr) -> std::io::Result<()> {
    push_u32s(out, csr.raw_offsets())?;
    push_u32s(out, csr.raw_targets())?;
    push_f64s(out, csr.raw_weights())?;
    push_f64s(out, csr.raw_probs())
}

/// Serialises `graph` into the binary container format.
pub fn write_graph<W: Write>(graph: &Graph, mut out: W) -> Result<()> {
    let labels_blob = encode_labels(graph.labels());

    let mut header = [0u8; HEADER_LEN];
    header[0..4].copy_from_slice(&MAGIC);
    header[4..8].copy_from_slice(&VERSION.to_le_bytes());
    header[8..16].copy_from_slice(&(graph.node_count() as u64).to_le_bytes());
    header[16..24].copy_from_slice(&(graph.edge_count() as u64).to_le_bytes());
    header[24..32].copy_from_slice(&(labels_blob.len() as u64).to_le_bytes());
    let checksum = fnv1a(&header[0..32]);
    header[32..40].copy_from_slice(&checksum.to_le_bytes());
    out.write_all(&header)?;

    write_csr(&mut out, graph.forward_csr())?;
    write_csr(&mut out, graph.reverse_csr())?;
    out.write_all(&labels_blob)?;
    out.flush()?;
    Ok(())
}

/// Serialises `graph` into a binary container file at `path`.
pub fn write_graph_file<P: AsRef<Path>>(graph: &Graph, path: P) -> Result<()> {
    let file = File::create(path)?;
    write_graph(graph, BufWriter::new(file))
}

// ---------------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------------

/// Bytes of the one buffer every array is decoded through.
const CHUNK_LEN: usize = 64 << 10;

fn truncated_at(expected: usize, actual: usize) -> GraphError {
    GraphError::Truncated { expected, actual }
}

/// Sequential reader over a container of known total length `len`.  The
/// arrays are decoded chunk by chunk from one fixed buffer straight into
/// their final `Vec`s, so a load holds the graph plus [`CHUNK_LEN`] bytes —
/// never a whole-file image.  A source that ends before `len` bytes (a file
/// that shrank mid-read) surfaces as [`GraphError::Truncated`].
struct Decoder<R> {
    input: R,
    len: usize,
    pos: usize,
    chunk: Vec<u8>,
}

impl<R: Read> Decoder<R> {
    /// Reads the next `buf.len()` bytes into `buf`.
    fn read_into(&mut self, buf: &mut [u8]) -> Result<()> {
        self.input.read_exact(buf).map_err(|e| match e.kind() {
            ErrorKind::UnexpectedEof => truncated_at(self.len, self.pos),
            _ => GraphError::Io(e),
        })?;
        self.pos += buf.len();
        Ok(())
    }

    /// Decodes `count` little-endian values of `width` bytes each into a
    /// vector sized exactly once.
    fn read_array<T>(
        &mut self,
        count: usize,
        width: usize,
        decode: impl Fn(&[u8]) -> T,
    ) -> Result<Vec<T>> {
        let mut values = Vec::with_capacity(count);
        let mut chunk = std::mem::take(&mut self.chunk);
        let mut left = count;
        while left > 0 {
            let n = left.min(CHUNK_LEN / width);
            let raw = &mut chunk[..n * width];
            self.read_into(raw)?;
            values.extend(raw.chunks_exact(width).map(&decode));
            left -= n;
        }
        self.chunk = chunk;
        Ok(values)
    }

    /// Bulk little-endian decode of a `u32` array.  `chunks_exact` +
    /// `from_le_bytes` compiles to a straight memcpy-like loop on
    /// little-endian targets — no per-element parsing.
    fn read_u32s(&mut self, count: usize) -> Result<Vec<u32>> {
        self.read_array(count, 4, |c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
    }

    /// Bulk little-endian decode of an `f64` array (bit-preserving).
    fn read_f64s(&mut self, count: usize) -> Result<Vec<f64>> {
        self.read_array(count, 8, |c| {
            f64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]])
        })
    }
}

/// Cursor over an in-memory byte range that starts `base` bytes into the
/// container; every take is bounds-checked so a short range surfaces as
/// [`GraphError::Truncated`] (in container offsets), never a panic.
struct Cursor<'a> {
    bytes: &'a [u8],
    base: usize,
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, len: usize) -> Result<&'a [u8]> {
        let actual = self.base + self.bytes.len();
        let end = self
            .pos
            .checked_add(len)
            .ok_or(truncated_at(usize::MAX, actual))?;
        if end > self.bytes.len() {
            return Err(truncated_at(self.base + end, actual));
        }
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn take_u32(&mut self) -> Result<u32> {
        let raw = self.take(4)?;
        Ok(u32::from_le_bytes([raw[0], raw[1], raw[2], raw[3]]))
    }

    fn take_u64(&mut self) -> Result<u64> {
        let raw = self.take(8)?;
        Ok(u64::from_le_bytes([
            raw[0], raw[1], raw[2], raw[3], raw[4], raw[5], raw[6], raw[7],
        ]))
    }
}

/// Validates one CSR's structural invariants and assembles it.
///
/// `offsets` must be monotone non-decreasing from 0 to `edge_count`, and
/// every stored neighbour id must be `< node_count` — the properties the
/// walk kernels rely on for unchecked-feeling flat iteration.
fn decode_csr(dec: &mut Decoder<impl Read>, node_count: usize, edge_count: usize) -> Result<Csr> {
    let offsets = dec.read_u32s(node_count + 1)?;
    if offsets.first() != Some(&0) {
        return Err(corrupt("csr offsets do not start at 0"));
    }
    if offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(corrupt("csr offsets are not monotone non-decreasing"));
    }
    if *offsets.last().expect("offsets non-empty") as usize != edge_count {
        return Err(corrupt(format!(
            "csr offsets end at {} but the header declares {edge_count} edges",
            offsets.last().expect("offsets non-empty")
        )));
    }
    let targets = dec.read_u32s(edge_count)?;
    if let Some(&bad) = targets.iter().find(|&&t| t as usize >= node_count) {
        return Err(corrupt(format!(
            "neighbour id {bad} is out of range for {node_count} nodes"
        )));
    }
    let weights = dec.read_f64s(edge_count)?;
    let probs = dec.read_f64s(edge_count)?;
    Ok(Csr::from_raw_parts(offsets, targets, weights, probs))
}

/// Decodes the labels blob, the container's last `blob.len()` bytes, which
/// start `base` bytes into it.
fn decode_labels(blob: &[u8], base: usize, node_count: usize) -> Result<Vec<Option<String>>> {
    let mut labels: Vec<Option<String>> = vec![None; node_count];
    if blob.is_empty() {
        // Permit a zero-length blob (a graph with no labels at all).
        return Ok(labels);
    }
    let mut dec = Cursor {
        bytes: blob,
        base,
        pos: 0,
    };
    let labeled = dec.take_u64()? as usize;
    if labeled > node_count {
        return Err(corrupt(format!(
            "labels blob declares {labeled} labeled nodes but the graph has {node_count}"
        )));
    }
    for _ in 0..labeled {
        let node = dec.take_u32()? as usize;
        if node >= node_count {
            return Err(corrupt(format!(
                "labels blob references node {node} out of {node_count}"
            )));
        }
        let len = dec.take_u32()? as usize;
        if dec.pos + len > blob.len() {
            return Err(corrupt("labels blob overruns its declared length"));
        }
        let raw = dec.take(len)?;
        let label = std::str::from_utf8(raw)
            .map_err(|_| corrupt(format!("label for node {node} is not valid utf-8")))?;
        labels[node] = Some(label.to_string());
    }
    if dec.pos != blob.len() {
        return Err(corrupt("labels blob shorter than its declared length"));
    }
    Ok(labels)
}

/// Decodes a graph from `input`, which holds exactly `len` bytes.
///
/// Everything that sizes an allocation is checked first, in order: the
/// header is present, its magic, version and checksum, and the payload it
/// describes is exactly `len - HEADER_LEN` bytes — so a header that lies
/// cannot cause a large allocation.  Then each CSR array is decoded into a
/// vector of its final size, and the labels blob is read last.
fn decode_from<R: Read>(input: R, len: usize) -> Result<Graph> {
    if len < HEADER_LEN {
        return Err(truncated_at(HEADER_LEN, len));
    }
    let mut dec = Decoder {
        input,
        len,
        pos: 0,
        chunk: Vec::new(),
    };
    let mut header = [0u8; HEADER_LEN];
    dec.read_into(&mut header)?;
    let mut fields = Cursor {
        bytes: &header,
        base: 0,
        pos: 0,
    };

    let magic = fields.take(4)?;
    if magic != MAGIC {
        return Err(corrupt(format!(
            "bad magic {magic:?}; expected {MAGIC:?} — not a binary graph file"
        )));
    }
    let version = fields.take_u32()?;
    if version != VERSION {
        return Err(GraphError::VersionMismatch {
            found: version,
            supported: VERSION,
        });
    }
    let node_count = fields.take_u64()? as usize;
    let edge_count = fields.take_u64()? as usize;
    let labels_len = fields.take_u64()? as usize;
    let stored_checksum = fields.take_u64()?;
    let computed = fnv1a(&header[0..32]);
    if stored_checksum != computed {
        return Err(corrupt(format!(
            "header checksum mismatch: stored {stored_checksum:#018x}, computed {computed:#018x}"
        )));
    }

    // Size sanity before any allocation: the header fully determines the
    // payload length, so a lying header is caught here, not mid-decode.
    let csr_bytes = node_count
        .checked_add(1)
        .and_then(|n| n.checked_mul(4))
        .and_then(|o| {
            edge_count
                .checked_mul(4 + 8 + 8)
                .and_then(|e| o.checked_add(e))
        })
        .ok_or_else(|| corrupt("header sizes overflow"))?;
    let expected_len = csr_bytes
        .checked_mul(2)
        .and_then(|p| p.checked_add(HEADER_LEN))
        .and_then(|p| p.checked_add(labels_len))
        .ok_or_else(|| corrupt("header sizes overflow"))?;
    if len < expected_len {
        return Err(truncated_at(expected_len, len));
    }
    if len > expected_len {
        return Err(corrupt(format!(
            "trailing garbage: file is {len} bytes but the header describes {expected_len}"
        )));
    }

    dec.chunk = vec![0; CHUNK_LEN];
    let forward = decode_csr(&mut dec, node_count, edge_count)?;
    let reverse = decode_csr(&mut dec, node_count, edge_count)?;
    if reverse.edge_count() != forward.edge_count() {
        return Err(corrupt("forward and reverse edge counts disagree"));
    }
    let base = dec.pos;
    let mut blob = vec![0; labels_len];
    dec.read_into(&mut blob)?;
    let labels = decode_labels(&blob, base, node_count)?;

    Ok(Graph::from_csr_parts(node_count, forward, reverse, labels))
}

/// Decodes a graph from a complete in-memory container.
pub fn decode_graph(bytes: &[u8]) -> Result<Graph> {
    decode_from(bytes, bytes.len())
}

/// Loads a graph from a binary container file, streaming each array
/// straight into its final vector: the load's peak is the graph plus
/// 64 KiB.  A whole-file image would double that, and once glibc's mmap
/// threshold has risen past its size it lands on the heap below the arrays
/// and stays mapped as a hole after it is freed.
pub fn read_graph_file<P: AsRef<Path>>(path: P) -> Result<Graph> {
    let file = File::open(path)?;
    let len = file.metadata()?.len() as usize;
    decode_from(file, len)
}

/// Whether `bytes` begin with the binary container magic.
pub fn sniff_magic(bytes: &[u8]) -> bool {
    bytes.len() >= 4 && bytes[0..4] == MAGIC
}

/// Whether the file at `path` starts with the binary container magic.
/// Returns `false` (rather than an error) for unreadable or short files so
/// callers can fall back to the text path, which will produce the real
/// error message.
pub fn is_binary_graph_file<P: AsRef<Path>>(path: P) -> bool {
    let mut prefix = [0u8; 4];
    match File::open(path) {
        Ok(mut f) => match f.read_exact(&mut prefix) {
            Ok(()) => prefix == MAGIC,
            Err(_) => false,
        },
        Err(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::node::NodeId;

    fn sample_graph() -> Graph {
        let mut b = GraphBuilder::new();
        let a = b.add_labeled_node("alice");
        let c = b.add_labeled_node("carol");
        let d = b.add_node();
        b.ensure_nodes(5);
        b.add_edge(a, c, 2.0).unwrap();
        b.add_edge(a, d, 1.0).unwrap();
        b.add_edge(c, d, 4.0).unwrap();
        b.add_edge(d, a, 1.5).unwrap();
        b.build().unwrap()
    }

    fn encode(graph: &Graph) -> Vec<u8> {
        let mut out = Vec::new();
        write_graph(graph, &mut out).unwrap();
        out
    }

    fn graphs_identical(a: &Graph, b: &Graph) -> bool {
        a.node_count() == b.node_count()
            && a.edge_count() == b.edge_count()
            && a.forward_csr() == b.forward_csr()
            && a.reverse_csr() == b.reverse_csr()
            && a.labels() == b.labels()
    }

    #[test]
    fn round_trip_is_bit_identical() {
        let graph = sample_graph();
        let bytes = encode(&graph);
        let loaded = decode_graph(&bytes).unwrap();
        assert!(graphs_identical(&graph, &loaded));
        assert!(loaded.validate());
        // Fresh identity: caches keyed by uid must not alias across loads.
        assert_ne!(graph.uid(), loaded.uid());
        assert_eq!(loaded.label(NodeId(0)), Some("alice"));
        assert_eq!(loaded.label(NodeId(2)), None);
    }

    #[test]
    fn round_trip_preserves_probability_bits() {
        let graph = sample_graph();
        let loaded = decode_graph(&encode(&graph)).unwrap();
        for u in graph.nodes() {
            let before = graph.out_probs(u);
            let after = loaded.out_probs(u);
            assert_eq!(before.len(), after.len());
            for (x, y) in before.iter().zip(after.iter()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn empty_graph_round_trips() {
        let graph = GraphBuilder::with_nodes(0).build().unwrap();
        let loaded = decode_graph(&encode(&graph)).unwrap();
        assert_eq!(loaded.node_count(), 0);
        assert_eq!(loaded.edge_count(), 0);
    }

    #[test]
    fn bad_magic_is_corrupt() {
        let mut bytes = encode(&sample_graph());
        bytes[0] = b'X';
        match decode_graph(&bytes) {
            Err(GraphError::Corrupt { message }) => assert!(message.contains("magic")),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn wrong_version_is_version_mismatch() {
        let mut bytes = encode(&sample_graph());
        bytes[4..8].copy_from_slice(&99u32.to_le_bytes());
        // Re-stamp the checksum so the version check (which runs before the
        // checksum check) is what fires.
        let checksum = fnv1a(&bytes[0..32]);
        bytes[32..40].copy_from_slice(&checksum.to_le_bytes());
        match decode_graph(&bytes) {
            Err(GraphError::VersionMismatch { found, supported }) => {
                assert_eq!(found, 99);
                assert_eq!(supported, VERSION);
            }
            other => panic!("expected VersionMismatch, got {other:?}"),
        }
    }

    #[test]
    fn corrupted_header_checksum_is_detected() {
        let mut bytes = encode(&sample_graph());
        // Flip a bit in the node_count field without restamping.
        bytes[8] ^= 0x01;
        match decode_graph(&bytes) {
            Err(GraphError::Corrupt { message }) => assert!(message.contains("checksum")),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn a_node_count_at_the_top_of_the_range_is_an_overflow_not_a_panic() {
        let mut bytes = encode(&sample_graph());
        bytes[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        let checksum = fnv1a(&bytes[0..32]);
        bytes[32..40].copy_from_slice(&checksum.to_le_bytes());
        match decode_graph(&bytes) {
            Err(GraphError::Corrupt { message }) => assert!(message.contains("overflow")),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn truncated_payload_is_truncated_error() {
        let bytes = encode(&sample_graph());
        for cut in [HEADER_LEN - 1, HEADER_LEN + 3, bytes.len() - 1] {
            match decode_graph(&bytes[..cut]) {
                Err(GraphError::Truncated { expected, actual }) => {
                    assert!(expected > actual, "expected {expected} > actual {actual}");
                }
                other => panic!("expected Truncated at cut {cut}, got {other:?}"),
            }
        }
    }

    #[test]
    fn a_source_shorter_than_its_length_is_truncated() {
        // A file that shrinks between `metadata` and the read: every cut,
        // header or payload, ends the read early.
        let bytes = encode(&sample_graph());
        for cut in [HEADER_LEN - 1, HEADER_LEN + 3, bytes.len() - 1] {
            match decode_from(&bytes[..cut], bytes.len()) {
                Err(GraphError::Truncated { expected, actual }) => {
                    assert_eq!(expected, bytes.len());
                    assert!(actual <= cut, "actual {actual} > cut {cut}");
                }
                other => panic!("expected Truncated at cut {cut}, got {other:?}"),
            }
        }
    }

    #[test]
    fn trailing_garbage_is_corrupt() {
        let mut bytes = encode(&sample_graph());
        bytes.push(0);
        assert!(matches!(
            decode_graph(&bytes),
            Err(GraphError::Corrupt { .. })
        ));
    }

    #[test]
    fn out_of_range_target_is_corrupt() {
        let graph = sample_graph();
        let mut bytes = encode(&graph);
        // First forward target lives right after the offsets array.
        let target_pos = HEADER_LEN + (graph.node_count() + 1) * 4;
        bytes[target_pos..target_pos + 4]
            .copy_from_slice(&(graph.node_count() as u32).to_le_bytes());
        match decode_graph(&bytes) {
            Err(GraphError::Corrupt { message }) => assert!(message.contains("out of range")),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn non_monotone_offsets_are_corrupt() {
        let graph = sample_graph();
        let mut bytes = encode(&graph);
        // Overwrite offsets[1] with something larger than edge_count.
        let pos = HEADER_LEN + 4;
        bytes[pos..pos + 4].copy_from_slice(&(graph.edge_count() as u32 + 7).to_le_bytes());
        assert!(matches!(
            decode_graph(&bytes),
            Err(GraphError::Corrupt { .. })
        ));
    }

    #[test]
    fn file_round_trip_and_sniffing() {
        let dir = std::env::temp_dir().join(format!("dht-binfmt-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.dht");
        let graph = sample_graph();
        write_graph_file(&graph, &path).unwrap();
        assert!(is_binary_graph_file(&path));
        let loaded = read_graph_file(&path).unwrap();
        assert!(graphs_identical(&graph, &loaded));

        let text_path = dir.join("sample.tsv");
        crate::io::write_edge_list_file(&graph, &text_path).unwrap();
        assert!(!is_binary_graph_file(&text_path));
        assert!(!is_binary_graph_file(dir.join("missing.dht")));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sniff_magic_on_slices() {
        assert!(sniff_magic(&MAGIC));
        assert!(!sniff_magic(b"DHT"));
        assert!(!sniff_magic(b"nodes 5\n"));
    }
}
