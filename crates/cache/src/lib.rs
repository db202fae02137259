//! Content-addressed artifact cache — the persistence layer under
//! `bec --cache-dir`.
//!
//! Analyses and golden substrates are pure functions of the program bytes
//! and the toolchain version, so the cache is keyed by content: a 128-bit
//! hash over `(artifact kind, version salt, input bytes)`. A warm entry is
//! trusted only after three independent checks — the key matched (the
//! inputs are byte-identical), the header's format version matched, and
//! the payload checksum matched — and any failure *evicts* the entry and
//! falls back to recomputation, so a corrupt or stale cache can cost time
//! but never correctness.
//!
//! Writes are atomic: the entry is written to a process-unique temp file in
//! the store directory and `rename`d into place, so concurrent processes
//! (e.g. two `bec campaign` runs sharing one `--cache-dir`) never
//! observe a half-written entry — they either miss and recompute, or hit a
//! complete one. Last writer wins, and since every writer of a key encodes
//! the same bytes, the race is benign.
//!
//! Telemetry: [`Cache::load`] ticks `cache.hits` / `cache.misses` (and
//! `cache.evictions` on corruption), [`Cache::store`] ticks
//! `cache.bytes_written` — all worker-count-independent for a
//! fixed command sequence.

pub mod wire;

use bec_telemetry::Telemetry;
use std::path::{Path, PathBuf};

/// The analysis/engine version salt folded into every cache key and
/// recorded in campaign reports. Bump it whenever the analysis verdicts,
/// the golden-run semantics, or a persisted artifact layout change: old
/// entries then simply never hit (their keys differ), and stale campaign
/// reports are rejected on `--resume` instead of silently mixing artifacts
/// produced by different binaries.
pub const VERSION_SALT: &str = "bec-artifacts-v1";

/// Magic prefix of every cache entry file.
const MAGIC: [u8; 4] = *b"BECC";

/// On-disk header format version (the *container* layout; artifact payload
/// layouts are versioned through [`VERSION_SALT`] in the key).
const FORMAT: u32 = 1;

/// Header size: magic + format + payload length + FNV-1a checksum.
const HEADER_LEN: usize = 4 + 4 + 8 + 8;

/// A 128-bit content-hash cache key.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CacheKey(u128);

impl CacheKey {
    /// The key as a fixed-width lowercase hex string (the entry's file
    /// stem).
    pub fn hex(self) -> String {
        format!("{:032x}", self.0)
    }
}

/// FNV-1a over a byte slice, seeded; the two differently-seeded streams of
/// [`content_key`] together form the 128-bit key.
fn fnv1a(seed: u64, bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = seed;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(PRIME);
    }
    h
}

/// Builds the content key of one artifact: a 128-bit hash over the kind
/// tag, [`VERSION_SALT`], any extra salts (rule-set name, limits, …) and
/// the input parts, each length-prefixed so adjacent parts cannot alias.
pub fn content_key(kind: &str, salts: &[&str], parts: &[&[u8]]) -> CacheKey {
    let mut a = 0xcbf2_9ce4_8422_2325u64;
    let mut b = 0x6c62_272e_07bb_0142u64;
    let mut absorb = |bytes: &[u8]| {
        let len = (bytes.len() as u64).to_le_bytes();
        a = fnv1a(fnv1a(a, &len), bytes);
        b = fnv1a(fnv1a(b, bytes), &len);
    };
    absorb(kind.as_bytes());
    absorb(VERSION_SALT.as_bytes());
    for s in salts {
        absorb(s.as_bytes());
    }
    for p in parts {
        absorb(p);
    }
    CacheKey((a as u128) << 64 | b as u128)
}

/// A directory-backed content-addressed store.
pub struct Cache {
    dir: PathBuf,
}

impl Cache {
    /// Opens (creating if needed) the store at `dir`.
    ///
    /// # Errors
    ///
    /// Fails when the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Cache, String> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create cache dir `{}`: {e}", dir.display()))?;
        Ok(Cache { dir })
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn entry_path(&self, key: CacheKey) -> PathBuf {
        self.dir.join(format!("{}.bec", key.hex()))
    }

    /// Loads the payload stored under `key`, verifying the header and
    /// checksum. A missing entry is a miss; a malformed one (truncated,
    /// wrong magic/format, checksum mismatch) is evicted and reported as a
    /// miss — the caller recomputes either way.
    pub fn load(&self, key: CacheKey, tel: &Telemetry) -> Option<Vec<u8>> {
        let path = self.entry_path(key);
        let data = match std::fs::read(&path) {
            Ok(d) => d,
            Err(_) => {
                tel.add("cache.misses", 1);
                return None;
            }
        };
        match Cache::decode_entry(&data) {
            Ok(payload) => {
                tel.add("cache.hits", 1);
                Some(payload.to_vec())
            }
            Err(_) => {
                self.evict(key, tel);
                tel.add("cache.misses", 1);
                None
            }
        }
    }

    fn decode_entry(data: &[u8]) -> Result<&[u8], String> {
        if data.len() < HEADER_LEN {
            return Err("entry shorter than header".into());
        }
        let (header, payload) = data.split_at(HEADER_LEN);
        if header[0..4] != MAGIC {
            return Err("bad magic".into());
        }
        let format = u32::from_le_bytes(header[4..8].try_into().unwrap());
        if format != FORMAT {
            return Err(format!("unsupported container format {format}"));
        }
        let len = u64::from_le_bytes(header[8..16].try_into().unwrap());
        if len != payload.len() as u64 {
            return Err("payload length mismatch".into());
        }
        let checksum = u64::from_le_bytes(header[16..24].try_into().unwrap());
        if checksum != fnv1a(0xcbf2_9ce4_8422_2325, payload) {
            return Err("payload checksum mismatch".into());
        }
        Ok(payload)
    }

    /// Stores `payload` under `key`: header + payload to a process-unique
    /// temp file, then an atomic rename into place.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors; callers treat a failed store as best-effort
    /// (the artifact was computed either way).
    pub fn store(&self, key: CacheKey, payload: &[u8], tel: &Telemetry) -> Result<(), String> {
        let mut data = Vec::with_capacity(HEADER_LEN + payload.len());
        data.extend_from_slice(&MAGIC);
        data.extend_from_slice(&FORMAT.to_le_bytes());
        data.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        data.extend_from_slice(&fnv1a(0xcbf2_9ce4_8422_2325, payload).to_le_bytes());
        data.extend_from_slice(payload);
        let tmp = self.dir.join(format!("{}.tmp.{}", key.hex(), std::process::id()));
        std::fs::write(&tmp, &data)
            .map_err(|e| format!("cannot write cache entry `{}`: {e}", tmp.display()))?;
        std::fs::rename(&tmp, self.entry_path(key)).map_err(|e| {
            let _ = std::fs::remove_file(&tmp);
            format!("cannot publish cache entry for {}: {e}", key.hex())
        })?;
        tel.add("cache.bytes_written", data.len() as u64);
        Ok(())
    }

    /// Removes the entry under `key` (best-effort) and ticks
    /// `cache.evictions`. Called on any corruption — container-level by
    /// [`Cache::load`], payload-level by the artifact decoders upstream.
    pub fn evict(&self, key: CacheKey, tel: &Telemetry) {
        let _ = std::fs::remove_file(self.entry_path(key));
        tel.add("cache.evictions", 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bec-cache-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn content_keys_separate_kind_salt_and_content() {
        let k = content_key("verdicts", &["paper"], &[b"prog"]);
        assert_eq!(k, content_key("verdicts", &["paper"], &[b"prog"]));
        assert_ne!(k, content_key("golden", &["paper"], &[b"prog"]));
        assert_ne!(k, content_key("verdicts", &["extended"], &[b"prog"]));
        assert_ne!(k, content_key("verdicts", &["paper"], &[b"prog2"]));
        // Length prefixing: moving a boundary between parts changes the key.
        assert_ne!(content_key("k", &[], &[b"ab", b"c"]), content_key("k", &[], &[b"a", b"bc"]));
        assert_eq!(k.hex().len(), 32);
    }

    #[test]
    fn store_load_roundtrip_counts_hits() {
        let dir = scratch_dir("roundtrip");
        let cache = Cache::open(&dir).unwrap();
        let tel = Telemetry::enabled();
        let key = content_key("t", &[], &[b"x"]);
        assert_eq!(cache.load(key, &tel), None);
        cache.store(key, b"payload bytes", &tel).unwrap();
        assert_eq!(cache.load(key, &tel).as_deref(), Some(&b"payload bytes"[..]));
        let snap = tel.snapshot();
        assert_eq!(snap.counter("cache.misses"), Some(1));
        assert_eq!(snap.counter("cache.hits"), Some(1));
        assert!(snap.counter("cache.bytes_written").unwrap() > 13);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entries_are_evicted_not_trusted() {
        let dir = scratch_dir("corrupt");
        let cache = Cache::open(&dir).unwrap();
        let tel = Telemetry::enabled();
        let key = content_key("t", &[], &[b"y"]);
        cache.store(key, b"some payload", &tel).unwrap();
        let path = cache.entry_path(key);

        // Bit flip inside the payload: checksum mismatch.
        let mut data = std::fs::read(&path).unwrap();
        *data.last_mut().unwrap() ^= 1;
        std::fs::write(&path, &data).unwrap();
        assert_eq!(cache.load(key, &tel), None);
        assert!(!path.exists(), "corrupt entry must be evicted");

        // Truncation mid-header.
        cache.store(key, b"some payload", &tel).unwrap();
        let data = std::fs::read(&path).unwrap();
        std::fs::write(&path, &data[..HEADER_LEN - 3]).unwrap();
        assert_eq!(cache.load(key, &tel), None);
        assert!(!path.exists());

        assert_eq!(tel.snapshot().counter("cache.evictions"), Some(2));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
