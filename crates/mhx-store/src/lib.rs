//! Persistent document store: columnar snapshots of a [`Goddag`].
//!
//! One snapshot file per document, containing the sections produced by
//! [`mhx_goddag::columns::dissect`] inside a small self-describing frame:
//!
//! ```text
//! ┌──────────────────────────────────────────────────────────────┐
//! │ magic "MHXSNAP1"                                     8 bytes │
//! │ format version (u32 LE, currently 3)                 4 bytes │
//! │ document id (u32 length + UTF-8 bytes)                       │
//! │ section count (u32 LE)                                       │
//! │ section table: kind u32 · len u64 · FNV-1a-64 checksum u64   │
//! │ section payloads, in table order                             │
//! └──────────────────────────────────────────────────────────────┘
//! ```
//!
//! Everything is little-endian and hand-rolled on `std` alone (the
//! `mhx-json` discipline — no serde). Writes are atomic and durable: the
//! frame goes to a `.tmp` sibling, is fsynced, then renamed over the
//! target, and the directory is fsynced so the rename survives power
//! loss. A crash mid-write leaves at worst a `.tmp` leftover that
//! [`DocStore::list`] ignores. Every load verifies the magic, version,
//! stored id and per-section checksums before any decoding happens;
//! failures surface as typed [`StoreError::Corrupt`] values, never
//! panics.
//!
//! Format version 3 stores the document alone — its text and its
//! hierarchies (see [`mhx_goddag::columns`]) — and a load rebuilds the
//! structural index with [`StructIndex::build`], the function an upload
//! runs, which costs about what decoding a stored copy of the index did.
//! There is one decoder: a version-1 or version-2 file (which stored the
//! index too) loads as [`CorruptKind::BadVersion`] until its document is
//! uploaded again.

use mhx_goddag::columns::{assemble, dissect, Section};
use mhx_goddag::{Goddag, StructIndex};
use std::fmt;
use std::fs;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 8] = b"MHXSNAP1";
const FORMAT_VERSION: u32 = 3;
const SNAPSHOT_EXT: &str = "mhx";

/// What exactly was wrong with a snapshot file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptKind {
    /// File ends before the frame says it should.
    Truncated,
    /// The magic bytes are not `MHXSNAP1`.
    BadMagic,
    /// A format version this build does not understand.
    BadVersion,
    /// A section's checksum does not match its payload.
    Checksum,
    /// Framing or section payload malformed (bad table, wrong stored id,
    /// undecodable columns).
    Section,
}

impl fmt::Display for CorruptKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CorruptKind::Truncated => "truncated",
            CorruptKind::BadMagic => "bad magic",
            CorruptKind::BadVersion => "unsupported version",
            CorruptKind::Checksum => "checksum mismatch",
            CorruptKind::Section => "malformed section",
        })
    }
}

/// Store failure: an I/O error or a corrupt snapshot.
#[derive(Debug)]
pub enum StoreError {
    Io(io::Error),
    Corrupt { kind: CorruptKind, detail: String },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "i/o error: {e}"),
            StoreError::Corrupt { kind, detail } => {
                write!(f, "corrupt snapshot ({kind}): {detail}")
            }
        }
    }
}

impl std::error::Error for StoreError {}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> StoreError {
        StoreError::Io(e)
    }
}

fn corrupt(kind: CorruptKind, detail: impl Into<String>) -> StoreError {
    StoreError::Corrupt { kind, detail: detail.into() }
}

/// FNV-1a 64-bit — the workspace's standard cheap content hash.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Document id → filename stem: URL-style percent encoding keeps arbitrary
/// ids (slashes, spaces, unicode) on one flat directory level, reversibly.
fn encode_id(id: &str) -> String {
    let mut out = String::with_capacity(id.len());
    for b in id.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char)
            }
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

fn decode_id(stem: &str) -> Option<String> {
    let mut bytes = Vec::with_capacity(stem.len());
    let mut it = stem.bytes();
    while let Some(b) = it.next() {
        if b == b'%' {
            let hi = it.next()?;
            let lo = it.next()?;
            let hex = |c: u8| match c {
                b'0'..=b'9' => Some(c - b'0'),
                b'A'..=b'F' => Some(c - b'A' + 10),
                b'a'..=b'f' => Some(c - b'a' + 10),
                _ => None,
            };
            bytes.push(hex(hi)? << 4 | hex(lo)?);
        } else {
            bytes.push(b);
        }
    }
    String::from_utf8(bytes).ok()
}

/// Directory of snapshot files, one per document id.
#[derive(Debug)]
pub struct DocStore {
    dir: PathBuf,
}

impl DocStore {
    /// Open (creating if needed) a data directory.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<DocStore> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(DocStore { dir })
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Snapshot file path for a document id.
    pub fn path_for(&self, id: &str) -> PathBuf {
        self.dir.join(format!("{}.{SNAPSHOT_EXT}", encode_id(id)))
    }

    /// Serialize and atomically persist one document. Returns the snapshot
    /// size in bytes. The index is not stored (a load rebuilds it); the
    /// parameter stays so that callers written against the pair compile.
    pub fn save(&self, id: &str, g: &Goddag, _idx: &StructIndex) -> Result<u64, StoreError> {
        let sections = dissect(g);
        let mut frame = Vec::new();
        frame.extend_from_slice(MAGIC);
        frame.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        frame.extend_from_slice(&(id.len() as u32).to_le_bytes());
        frame.extend_from_slice(id.as_bytes());
        frame.extend_from_slice(&(sections.len() as u32).to_le_bytes());
        for s in &sections {
            frame.extend_from_slice(&s.kind.to_le_bytes());
            frame.extend_from_slice(&(s.bytes.len() as u64).to_le_bytes());
            frame.extend_from_slice(&fnv1a(&s.bytes).to_le_bytes());
        }
        for s in &sections {
            frame.extend_from_slice(&s.bytes);
        }

        let target = self.path_for(id);
        let tmp = target.with_extension("tmp");
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(&frame)?;
            f.sync_all()?;
        }
        fs::rename(&tmp, &target)?;
        sync_dir(&self.dir)?;
        Ok(frame.len() as u64)
    }

    /// Load a document's snapshot and build its index. `Ok(None)` when no
    /// snapshot exists; framing or payload problems are typed
    /// [`StoreError::Corrupt`]s.
    pub fn load(&self, id: &str) -> Result<Option<(Goddag, StructIndex)>, StoreError> {
        let path = self.path_for(id);
        let mut raw = Vec::new();
        match fs::File::open(&path) {
            Ok(mut f) => {
                f.read_to_end(&mut raw)?;
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        }
        let (stored_id, sections) = decode_frame(&raw)?;
        if stored_id != id {
            return Err(corrupt(
                CorruptKind::Section,
                format!("snapshot carries id {stored_id:?}, expected {id:?}"),
            ));
        }
        let g = assemble(&sections).map_err(|e| corrupt(CorruptKind::Section, e.detail))?;
        let idx = StructIndex::build(&g);
        Ok(Some((g, idx)))
    }

    /// Size in bytes of a document's snapshot file, if one exists.
    pub fn snapshot_size(&self, id: &str) -> Option<u64> {
        fs::metadata(self.path_for(id)).ok().map(|m| m.len())
    }

    /// All persisted documents as `(id, snapshot_bytes)`. Leftover `.tmp`
    /// files from interrupted writes (and anything else that is not a
    /// snapshot) are skipped.
    pub fn list(&self) -> io::Result<Vec<(String, u64)>> {
        let mut out = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) != Some(SNAPSHOT_EXT) {
                continue;
            }
            let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else { continue };
            let Some(id) = decode_id(stem) else { continue };
            let len = entry.metadata()?.len();
            out.push((id, len));
        }
        out.sort();
        Ok(out)
    }

    /// Delete a document's snapshot. Returns whether one existed.
    pub fn remove(&self, id: &str) -> io::Result<bool> {
        match fs::remove_file(self.path_for(id)) {
            Ok(()) => Ok(true),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// Total bytes across all snapshot files.
    pub fn bytes_on_disk(&self) -> u64 {
        self.list().map(|v| v.iter().map(|(_, n)| n).sum()).unwrap_or(0)
    }
}

/// Fsync a directory, making a rename inside it durable. Only Unix can
/// open a directory as a file; elsewhere the rename is left as is.
fn sync_dir(dir: &Path) -> io::Result<()> {
    #[cfg(unix)]
    fs::File::open(dir)?.sync_all()?;
    #[cfg(not(unix))]
    let _ = dir;
    Ok(())
}

/// Parse and verify the frame: magic, version, id, section table,
/// checksums. Returns the stored id and the checksum-verified sections.
fn decode_frame(raw: &[u8]) -> Result<(String, Vec<Section>), StoreError> {
    let mut pos = 0usize;
    let take = |pos: &mut usize, n: usize| -> Result<&[u8], StoreError> {
        if raw.len() - *pos < n {
            return Err(corrupt(
                CorruptKind::Truncated,
                format!("need {n} bytes at offset {}, file has {}", *pos, raw.len()),
            ));
        }
        let s = &raw[*pos..*pos + n];
        *pos += n;
        Ok(s)
    };
    let magic = take(&mut pos, MAGIC.len())?;
    if magic != MAGIC {
        return Err(corrupt(CorruptKind::BadMagic, format!("got {magic:02X?}")));
    }
    let version = u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("4 bytes"));
    if version != FORMAT_VERSION {
        return Err(corrupt(
            CorruptKind::BadVersion,
            format!("snapshot version {version}, this build reads {FORMAT_VERSION}"),
        ));
    }
    let id_len = u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("4 bytes")) as usize;
    let id_bytes = take(&mut pos, id_len)?;
    let stored_id = String::from_utf8(id_bytes.to_vec())
        .map_err(|_| corrupt(CorruptKind::Section, "stored id is not UTF-8"))?;
    let count = u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("4 bytes")) as usize;
    // Each table row is 20 bytes; reject counts the file cannot hold.
    if count.saturating_mul(20) > raw.len() - pos {
        return Err(corrupt(CorruptKind::Truncated, format!("section table claims {count} rows")));
    }
    let mut table = Vec::with_capacity(count);
    for _ in 0..count {
        let kind = u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("4 bytes"));
        let len = u64::from_le_bytes(take(&mut pos, 8)?.try_into().expect("8 bytes"));
        let sum = u64::from_le_bytes(take(&mut pos, 8)?.try_into().expect("8 bytes"));
        table.push((kind, len, sum));
    }
    let mut sections = Vec::with_capacity(count);
    for (kind, len, sum) in table {
        let len = usize::try_from(len)
            .map_err(|_| corrupt(CorruptKind::Section, "section length overflows"))?;
        let bytes = take(&mut pos, len)?;
        if fnv1a(bytes) != sum {
            return Err(corrupt(
                CorruptKind::Checksum,
                format!("section kind {kind}: payload does not match its checksum"),
            ));
        }
        sections.push(Section { kind, bytes: bytes.to_vec() });
    }
    if pos != raw.len() {
        return Err(corrupt(
            CorruptKind::Section,
            format!("{} trailing bytes after last section", raw.len() - pos),
        ));
    }
    Ok((stored_id, sections))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhx_goddag::GoddagBuilder;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tmp_store() -> DocStore {
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "mhx-store-test-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        DocStore::open(dir).unwrap()
    }

    fn sample() -> (Goddag, StructIndex) {
        let g = GoddagBuilder::new()
            .hierarchy("lines", "<r><line>gesceaftum una</line><line>wendendne</line></r>")
            .hierarchy("words", "<r><w>gesceaftum</w> <w>unawendendne</w></r>")
            .build()
            .unwrap();
        let idx = StructIndex::build(&g);
        (g, idx)
    }

    fn kind_of(e: StoreError) -> CorruptKind {
        match e {
            StoreError::Corrupt { kind, .. } => kind,
            StoreError::Io(e) => panic!("expected corruption, got i/o: {e}"),
        }
    }

    #[test]
    fn save_load_round_trip() {
        let store = tmp_store();
        let (g, idx) = sample();
        let bytes = store.save("doc/1 þ", &g, &idx).unwrap();
        assert!(bytes > 0);
        assert_eq!(store.snapshot_size("doc/1 þ"), Some(bytes));
        let (g2, idx2) = store.load("doc/1 þ").unwrap().expect("snapshot exists");
        assert!(idx2.is_current(&g2));
        assert_eq!(g.text(), g2.text());
        assert_eq!(g.all_nodes(), g2.all_nodes());
        assert_eq!(store.list().unwrap(), vec![("doc/1 þ".to_string(), bytes)]);
        assert_eq!(store.bytes_on_disk(), bytes);
    }

    /// The deepest document a hierarchy may hold saves, loads and drops
    /// on a thread with the 2 MiB stack a server's workers get.
    #[test]
    fn deepest_document_round_trips_within_a_worker_stack() {
        std::thread::Builder::new()
            .stack_size(2 * 1024 * 1024)
            .spawn(|| {
                let levels = mhx_goddag::hierarchy::MAX_DEPTH;
                let xml = format!("<r>{}x{}</r>", "<e>".repeat(levels), "</e>".repeat(levels));
                let g = GoddagBuilder::new().hierarchy("deep", xml).build().unwrap();
                let idx = StructIndex::build(&g);
                let store = tmp_store();
                store.save("deep", &g, &idx).unwrap();
                let (g2, idx2) = store.load("deep").unwrap().expect("snapshot exists");
                assert!(idx2.is_current(&g2));
                assert_eq!(g.all_nodes(), g2.all_nodes());
                drop((g, idx, g2, idx2));
                let _ = fs::remove_dir_all(store.dir());
            })
            .unwrap()
            .join()
            .unwrap();
    }

    #[test]
    fn absent_doc_loads_as_none() {
        let store = tmp_store();
        assert!(store.load("nope").unwrap().is_none());
        assert_eq!(store.snapshot_size("nope"), None);
        assert!(!store.remove("nope").unwrap());
    }

    #[test]
    fn truncated_file_is_typed_corruption() {
        let store = tmp_store();
        let (g, idx) = sample();
        store.save("d", &g, &idx).unwrap();
        let path = store.path_for("d");
        let full = fs::read(&path).unwrap();
        // Truncate at several depths: header, table, payload.
        for keep in [4, 20, full.len() / 2, full.len() - 1] {
            fs::write(&path, &full[..keep]).unwrap();
            let e = store.load("d").unwrap_err();
            assert_eq!(kind_of(e), CorruptKind::Truncated, "truncated at {keep}");
        }
    }

    #[test]
    fn bad_magic_and_version_are_typed() {
        let store = tmp_store();
        let (g, idx) = sample();
        store.save("d", &g, &idx).unwrap();
        let path = store.path_for("d");
        let full = fs::read(&path).unwrap();

        let mut bad_magic = full.clone();
        bad_magic[0] ^= 0xFF;
        fs::write(&path, &bad_magic).unwrap();
        assert_eq!(kind_of(store.load("d").unwrap_err()), CorruptKind::BadMagic);

        // The version lives right after the magic. Versions 1 and 2 stored
        // the index beside the document; this build reads only 3.
        for version in [1u32, 2, 0xEE] {
            let mut bad_version = full.clone();
            bad_version[8..12].copy_from_slice(&version.to_le_bytes());
            fs::write(&path, &bad_version).unwrap();
            let kind = kind_of(store.load("d").unwrap_err());
            assert_eq!(kind, CorruptKind::BadVersion, "version {version}");
        }
    }

    #[test]
    fn flipped_payload_byte_fails_checksum() {
        let store = tmp_store();
        let (g, idx) = sample();
        store.save("d", &g, &idx).unwrap();
        let path = store.path_for("d");
        let mut full = fs::read(&path).unwrap();
        let last = full.len() - 1; // deep inside the final payload
        full[last] ^= 0x01;
        fs::write(&path, &full).unwrap();
        assert_eq!(kind_of(store.load("d").unwrap_err()), CorruptKind::Checksum);
    }

    #[test]
    fn renamed_snapshot_is_rejected() {
        let store = tmp_store();
        let (g, idx) = sample();
        store.save("original", &g, &idx).unwrap();
        fs::rename(store.path_for("original"), store.path_for("impostor")).unwrap();
        let e = store.load("impostor").unwrap_err();
        assert_eq!(kind_of(e), CorruptKind::Section);
    }

    #[test]
    fn crash_leftover_tmp_is_ignored() {
        let store = tmp_store();
        let (g, idx) = sample();
        store.save("good", &g, &idx).unwrap();
        // Simulate a crash mid-write: partial frame under the tmp name.
        fs::write(store.dir().join("half-written.tmp"), b"MHXSNAP1 partial").unwrap();
        let ids: Vec<String> = store.list().unwrap().into_iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec!["good".to_string()]);
    }

    #[test]
    fn remove_deletes_the_file() {
        let store = tmp_store();
        let (g, idx) = sample();
        store.save("d", &g, &idx).unwrap();
        assert!(store.remove("d").unwrap());
        assert!(store.load("d").unwrap().is_none());
        assert_eq!(store.bytes_on_disk(), 0);
    }

    #[test]
    fn id_encoding_round_trips() {
        for id in ["plain", "with/slash", "sp ace", "þorn%", "..", "a.b-c_d~e"] {
            assert_eq!(decode_id(&encode_id(id)).as_deref(), Some(id), "{id}");
        }
    }
}
