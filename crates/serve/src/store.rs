//! Persistent plan store: an append-only log of canonical request/payload
//! byte pairs, replayed on boot to warm-start the plan cache.
//!
//! A restarted daemon forgets nothing it already searched: every
//! single-flight leader that publishes a payload also appends one record
//! here, and `open` replays the log into [`StoreRecord`]s the server seeds
//! the cache from — so the working set answers as cache hits from hour
//! zero, bit-identical to what the previous incarnation served.
//!
//! Record framing (all little-endian):
//!
//! ```text
//! [len: u32][crc: u32][body: len bytes]
//!   body = varint(request_len) request_bytes varint(payload_len) payload_bytes
//! ```
//!
//! `crc` is CRC-32 (IEEE polynomial) over the body. Crash tolerance is the
//! log's core contract: a torn tail — a record cut mid-header, mid-body, or
//! with a CRC mismatch (a write that never finished) — is *truncated away*
//! on open, never a fatal error, and the log keeps appending from the last
//! good record. A record that frames and checksums correctly but fails
//! content validation (a foreign or hand-edited entry) is skipped without
//! truncating what follows. `tests/chaos.rs` pins both behaviours plus the
//! bit-identity of recovered payloads.
//!
//! Open also **compacts**: duplicate keys (re-appended after eviction) are
//! deduplicated to the last record, and once the superseded bytes cross a
//! threshold the log is rewritten in place (atomic rename), so boot cost
//! tracks the working set rather than total churn. Skipped and reclaimed
//! volumes surface in the server's `store.skipped` / `store.compacted`
//! stats instead of vanishing silently.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{LazyLock, Mutex};

use pte_telemetry::Counter;

use crate::codec::SearchRequest;

/// Total bytes appended to the plan log (framing included), process-wide.
static APPEND_BYTES: LazyLock<Counter> =
    LazyLock::new(|| pte_telemetry::global().counter("pte_store_append_bytes_total"));

/// Hard bound on one record's body. Requests and payloads are each under
/// the wire's 1 MiB line cap; a larger declared length is corruption.
const MAX_RECORD_BYTES: usize = 4 << 20;

/// Boot-time compaction triggers once the bytes held by superseded
/// duplicate records reach this floor…
const COMPACT_MIN_SAVED_BYTES: u64 = 4096;

/// …or this fraction of the (post-truncation) log — saved × denominator ≥
/// log size, i.e. a quarter of the log is dead weight. Below both bounds
/// the rewrite is not worth the I/O; replay dedupes in memory either way.
const COMPACT_FRACTION_DENOM: u64 = 4;

/// CRC-32 (IEEE 802.3 polynomial, reflected), table-driven.
pub fn crc32(bytes: &[u8]) -> u32 {
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, slot) in table.iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            }
            *slot = crc;
        }
        table
    });
    let mut crc = !0u32;
    for &byte in bytes {
        crc = (crc >> 8) ^ table[((crc ^ u32::from(byte)) & 0xFF) as usize];
    }
    !crc
}

/// One replayed log record: the canonical request bytes and the canonical
/// payload bytes the daemon once served for them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreRecord {
    /// Canonical request bytes (the cache key substrate).
    pub canonical: String,
    /// Canonical payload bytes, served verbatim on a warm hit.
    pub payload: String,
}

/// The outcome of replaying a log on open.
#[derive(Debug, Default)]
pub struct Replay {
    /// Valid records, deduplicated to one per canonical key with the
    /// **last** appended record winning (a key re-appended after eviction
    /// carries the freshest — and byte-identical — payload), ordered by
    /// each key's final appearance in the log.
    pub records: Vec<StoreRecord>,
    /// Bytes dropped from a torn tail (0 on a clean log).
    pub truncated_bytes: u64,
    /// Well-framed records rejected by content validation and skipped.
    pub rejected: u64,
    /// Valid records superseded by a later record with the same canonical
    /// key (they arise from eviction + recompute) and dropped from
    /// [`Replay::records`].
    pub duplicates: u64,
    /// Bytes reclaimed by the boot-time compaction rewrite (0 when the
    /// duplicate savings stayed under the rewrite threshold).
    pub compacted_bytes: u64,
}

impl Replay {
    /// Records present in the log but absent from [`Replay::records`]:
    /// foreign/invalid entries plus superseded duplicates. Surfaced as the
    /// server's `store.skipped` stat instead of vanishing silently.
    pub fn skipped(&self) -> u64 {
        self.rejected + self.duplicates
    }
}

fn varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

fn read_varint(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let mut value = 0u64;
    for shift in 0..10u32 {
        let byte = *buf.get(*pos)?;
        *pos += 1;
        value |= u64::from(byte & 0x7F) << (7 * shift);
        if byte & 0x80 == 0 {
            return Some(value);
        }
    }
    None
}

fn decode_body(body: &[u8]) -> Option<StoreRecord> {
    let mut pos = 0usize;
    let take_str = |pos: &mut usize| -> Option<String> {
        let len = read_varint(body, pos)? as usize;
        let end = pos.checked_add(len).filter(|&e| e <= body.len())?;
        let text = std::str::from_utf8(&body[*pos..end]).ok()?.to_string();
        *pos = end;
        Some(text)
    };
    let canonical = take_str(&mut pos)?;
    let payload = take_str(&mut pos)?;
    if pos != body.len() {
        return None;
    }
    Some(StoreRecord { canonical, payload })
}

fn encode_body(canonical: &str, payload: &str) -> Vec<u8> {
    let mut body = Vec::with_capacity(canonical.len() + payload.len() + 8);
    varint(&mut body, canonical.len() as u64);
    body.extend_from_slice(canonical.as_bytes());
    varint(&mut body, payload.len() as u64);
    body.extend_from_slice(payload.as_bytes());
    body
}

/// One complete framed record (`[len][crc][body]`), shared by the append
/// path and the compaction rewrite so both emit identical bytes.
fn frame_record(canonical: &str, payload: &str) -> Vec<u8> {
    let body = encode_body(canonical, payload);
    let mut record = Vec::with_capacity(8 + body.len());
    record.extend_from_slice(&(body.len() as u32).to_le_bytes());
    record.extend_from_slice(&crc32(&body).to_le_bytes());
    record.extend_from_slice(&body);
    record
}

/// Content validation on replay: the canonical bytes must parse as a
/// request whose re-encoding is byte-identical (so a seeded key really is a
/// canonical content hash), and the payload must be non-empty JSON-shaped
/// bytes. Payloads are *not* deep-parsed here — they were canonical when
/// appended, the CRC vouches for the bytes, and boot-time replay of a large
/// log should be cheap.
fn validate(record: &StoreRecord) -> bool {
    if record.payload.is_empty() || !record.payload.starts_with('{') {
        return false;
    }
    match SearchRequest::parse_canonical(&record.canonical) {
        Ok((_, canonical, _)) => canonical == record.canonical,
        Err(_) => false,
    }
}

/// The append-only plan log. Appends are serialised through a mutex (one
/// `write_all` per record keeps records contiguous); replay happens once,
/// on open, before the daemon accepts connections.
pub struct PlanStore {
    file: Mutex<File>,
    path: PathBuf,
}

impl PlanStore {
    /// Opens (creating if absent) the log at `path`, replays every valid
    /// record, truncates a torn tail in place, and returns the store ready
    /// for appends.
    ///
    /// # Errors
    /// Propagates filesystem failures (open/read/truncate) — but never
    /// treats log *content* as fatal.
    pub fn open(path: impl AsRef<Path>) -> io::Result<(PlanStore, Replay)> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new().read(true).append(true).create(true).open(&path)?;
        let mut bytes = Vec::new();
        file.seek(SeekFrom::Start(0))?;
        file.read_to_end(&mut bytes)?;

        let mut replay = Replay::default();
        let mut framed_sizes: Vec<u64> = Vec::new();
        let mut pos = 0usize;
        let mut good_end = 0usize;
        while pos < bytes.len() {
            let Some(header) = bytes.get(pos..pos + 8) else { break };
            let len = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes")) as usize;
            let crc = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
            if len == 0 || len > MAX_RECORD_BYTES {
                break; // corrupt header: everything from here is untrustworthy
            }
            let Some(body) = bytes.get(pos + 8..pos + 8 + len) else { break };
            if crc32(body) != crc {
                break; // torn write: the record never finished
            }
            match decode_body(body) {
                Some(record) if validate(&record) => {
                    replay.records.push(record);
                    framed_sizes.push(8 + len as u64);
                }
                _ => replay.rejected += 1, // framed + checksummed, but foreign
            }
            pos += 8 + len;
            good_end = pos;
        }
        replay.truncated_bytes = (bytes.len() - good_end) as u64;
        if replay.truncated_bytes > 0 {
            file.set_len(good_end as u64)?;
            file.seek(SeekFrom::End(0))?;
        }

        // Deduplicate to one record per canonical key, last appended wins.
        // Duplicates arise from eviction + recompute, so the superseded
        // bytes are dead weight; when enough of the log is dead, rewrite it
        // (atomically, via rename) so boot cost stops growing with churn.
        let mut last_index: std::collections::HashMap<String, usize> =
            std::collections::HashMap::new();
        for (index, record) in replay.records.iter().enumerate() {
            last_index.insert(record.canonical.clone(), index);
        }
        let mut saved_bytes = 0u64;
        if last_index.len() < replay.records.len() {
            let mut kept = Vec::with_capacity(last_index.len());
            for (index, record) in replay.records.drain(..).enumerate() {
                if last_index.get(&record.canonical) == Some(&index) {
                    kept.push(record);
                } else {
                    replay.duplicates += 1;
                    saved_bytes += framed_sizes[index];
                }
            }
            replay.records = kept;
        }
        let log_len = good_end as u64;
        let compact = saved_bytes >= COMPACT_MIN_SAVED_BYTES
            || (saved_bytes > 0 && saved_bytes * COMPACT_FRACTION_DENOM >= log_len);
        if compact {
            let mut rebuilt = Vec::new();
            for record in &replay.records {
                rebuilt.extend_from_slice(&frame_record(&record.canonical, &record.payload));
            }
            let tmp = path.with_extension("compact");
            std::fs::write(&tmp, &rebuilt)?;
            std::fs::rename(&tmp, &path)?;
            file = OpenOptions::new().read(true).append(true).create(true).open(&path)?;
            file.seek(SeekFrom::End(0))?;
            replay.compacted_bytes = log_len.saturating_sub(rebuilt.len() as u64);
        }
        Ok((PlanStore { file: Mutex::new(file), path }, replay))
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one record. A crash mid-append leaves a torn tail the next
    /// open truncates; it can never corrupt earlier records.
    ///
    /// # Errors
    /// Propagates write failures.
    pub fn append(&self, canonical: &str, payload: &str) -> io::Result<()> {
        let record = frame_record(canonical, payload);
        let mut file = self.file.lock().expect("plan store file");
        file.write_all(&record)?;
        file.flush()?;
        APPEND_BYTES.add(record.len() as u64);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec;
    use crate::workload::bench_request;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_log(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("pte-store-{tag}-{}-{seq}.log", std::process::id()))
    }

    fn sample(seed: u64) -> (String, String) {
        let request = bench_request(seed);
        let canonical = request.encode().unwrap();
        // A structurally valid payload stand-in is enough for store tests
        // (the e2e suite replays real search payloads).
        let payload = format!("{{\"plan\":{seed}}}");
        (canonical, payload)
    }

    #[test]
    fn crc32_matches_reference_vectors() {
        // Classic check values for the IEEE polynomial.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn append_then_replay_round_trips() {
        let path = temp_log("roundtrip");
        let (canonical_a, payload_a) = sample(1);
        let (canonical_b, payload_b) = sample(2);
        {
            let (store, replay) = PlanStore::open(&path).unwrap();
            assert!(replay.records.is_empty());
            store.append(&canonical_a, &payload_a).unwrap();
            store.append(&canonical_b, &payload_b).unwrap();
        }
        let (_store, replay) = PlanStore::open(&path).unwrap();
        assert_eq!(replay.truncated_bytes, 0);
        assert_eq!(replay.rejected, 0);
        assert_eq!(
            replay.records,
            vec![
                StoreRecord { canonical: canonical_a, payload: payload_a },
                StoreRecord { canonical: canonical_b, payload: payload_b },
            ]
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_truncated_and_log_keeps_appending() {
        let path = temp_log("torn");
        let (canonical_a, payload_a) = sample(3);
        let (canonical_b, payload_b) = sample(4);
        {
            let (store, _) = PlanStore::open(&path).unwrap();
            store.append(&canonical_a, &payload_a).unwrap();
            store.append(&canonical_b, &payload_b).unwrap();
        }
        // Tear the second record mid-body (a crash mid-write).
        let clean_len = std::fs::metadata(&path).unwrap().len();
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(clean_len - 7).unwrap();
        drop(file);

        let (store, replay) = PlanStore::open(&path).unwrap();
        assert_eq!(replay.records.len(), 1, "only the intact record survives");
        assert_eq!(replay.records[0].payload, payload_a);
        assert!(replay.truncated_bytes > 0);
        // The tail is gone from disk and appends continue cleanly.
        store.append(&canonical_b, &payload_b).unwrap();
        drop(store);
        let (_store, replay) = PlanStore::open(&path).unwrap();
        assert_eq!(replay.truncated_bytes, 0);
        assert_eq!(replay.records.len(), 2);
        assert_eq!(replay.records[1].canonical, canonical_b);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn crc_mismatch_cuts_the_log_there() {
        let path = temp_log("crc");
        let (canonical_a, payload_a) = sample(5);
        let (canonical_b, payload_b) = sample(6);
        {
            let (store, _) = PlanStore::open(&path).unwrap();
            store.append(&canonical_a, &payload_a).unwrap();
            store.append(&canonical_b, &payload_b).unwrap();
        }
        // Flip one byte inside the second record's body.
        let mut bytes = std::fs::read(&path).unwrap();
        let flip = bytes.len() - 3;
        bytes[flip] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();

        let (_store, replay) = PlanStore::open(&path).unwrap();
        assert_eq!(replay.records.len(), 1);
        assert!(replay.truncated_bytes > 0, "the corrupt record and tail are dropped");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn foreign_records_are_skipped_not_fatal() {
        let path = temp_log("foreign");
        let (canonical_a, payload_a) = sample(7);
        {
            let (store, _) = PlanStore::open(&path).unwrap();
            // Well-framed record whose canonical bytes are not a request.
            store.append("not a canonical request", "{\"x\":1}").unwrap();
            store.append(&canonical_a, &payload_a).unwrap();
        }
        let (_store, replay) = PlanStore::open(&path).unwrap();
        assert_eq!(replay.rejected, 1);
        assert_eq!(replay.records.len(), 1);
        assert_eq!(replay.records[0].canonical, canonical_a);
        assert_eq!(replay.truncated_bytes, 0, "a skip is not a truncation");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn duplicates_dedupe_to_last_without_rewriting_small_logs() {
        let path = temp_log("dedupe");
        let mut uniques = Vec::new();
        {
            let (store, _) = PlanStore::open(&path).unwrap();
            // Five distinct keys, then one key re-appended with a fresh
            // payload: dead weight well under both rewrite thresholds.
            for seed in 10..15 {
                let (canonical, payload) = sample(seed);
                store.append(&canonical, &payload).unwrap();
                uniques.push((canonical, payload));
            }
            store.append(&uniques[0].0, &uniques[0].1).unwrap();
        }
        let len_before = std::fs::metadata(&path).unwrap().len();
        let (_store, replay) = PlanStore::open(&path).unwrap();
        assert_eq!(replay.duplicates, 1);
        assert_eq!(replay.skipped(), 1);
        assert_eq!(replay.compacted_bytes, 0, "small savings must not trigger a rewrite");
        assert_eq!(std::fs::metadata(&path).unwrap().len(), len_before, "log untouched");
        assert_eq!(replay.records.len(), 5, "one record per key");
        let keys: Vec<&str> = replay.records.iter().map(|r| r.canonical.as_str()).collect();
        // The duplicated key's surviving record sits at its *last* position.
        assert_eq!(keys.last().copied(), Some(uniques[0].0.as_str()));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn heavy_duplication_triggers_a_compacting_rewrite() {
        let path = temp_log("compact");
        let (canonical, _) = sample(20);
        let (other, other_payload) = sample(21);
        let last_payload = "{\"plan\":\"last\"}";
        {
            let (store, _) = PlanStore::open(&path).unwrap();
            store.append(&other, &other_payload).unwrap();
            // One key re-appended 40 times: ≥75% of the log is dead weight.
            for round in 0..40 {
                let payload = if round == 39 {
                    last_payload.to_string()
                } else {
                    format!("{{\"plan\":{round}}}")
                };
                store.append(&canonical, &payload).unwrap();
            }
        }
        let len_before = std::fs::metadata(&path).unwrap().len();
        let (store, replay) = PlanStore::open(&path).unwrap();
        assert_eq!(replay.duplicates, 39);
        assert!(replay.compacted_bytes > 0, "rewrite must reclaim the dead records");
        let len_after = std::fs::metadata(&path).unwrap().len();
        assert!(len_after < len_before, "log must shrink: {len_before} -> {len_after}");
        assert_eq!(replay.records.len(), 2);
        let surviving = replay.records.iter().find(|r| r.canonical == canonical).expect("key kept");
        assert_eq!(surviving.payload, last_payload, "the last record must win");

        // The compacted log replays cleanly and keeps appending.
        let (fresh, fresh_payload) = sample(22);
        store.append(&fresh, &fresh_payload).unwrap();
        drop(store);
        let (_store, replay) = PlanStore::open(&path).unwrap();
        assert_eq!(replay.truncated_bytes, 0);
        assert_eq!(replay.duplicates, 0);
        assert_eq!(replay.compacted_bytes, 0, "nothing left to reclaim");
        assert_eq!(replay.records.len(), 3);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn real_payload_bytes_survive_replay_bit_identically() {
        let path = temp_log("bits");
        let request = bench_request(8);
        let canonical = request.encode().unwrap();
        let payload = codec::execute(&request).unwrap();
        {
            let (store, _) = PlanStore::open(&path).unwrap();
            store.append(&canonical, &payload).unwrap();
        }
        let (_store, replay) = PlanStore::open(&path).unwrap();
        assert_eq!(replay.records.len(), 1);
        assert_eq!(replay.records[0].payload, payload, "replayed payload bytes diverged");
        std::fs::remove_file(&path).ok();
    }
}
