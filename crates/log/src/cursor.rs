//! Persisted consumer-group cursors.
//!
//! A cursor records, per `(group, shard)`, the next sequence number the
//! group has *not yet acknowledged* — the resume point after a crash.
//! Each cursor lives in its own small file under `<log dir>/cursors/`
//! and is rewritten via tmp-file + rename, so a `kill -9` at any instant
//! leaves either the old or the new value on disk, never a torn one.
//!
//! A file is 16 bytes, little-endian: the cursor value, then
//! `check_word(value)`. **The check word's meaning changed once**, on
//! purpose, and this is the format it stays at. Three facts decide it:
//!
//! * **An xor check cannot work at this size.** The old word was
//!   `value ^ "TSCURS01"`. Any 16-byte `(v, v ^ s)` pair validates again
//!   after one flip pattern `e` is laid over both words:
//!   `(v ^ e) ^ s == (v ^ s) ^ e`. So the damage it exists to catch is the
//!   damage it cannot see. The word is now splitmix64's finalizer over
//!   `value ^ "TSCURS02"`, in which every input bit reaches every output
//!   bit.
//! * **A file that fails the check loads as "no cursor".** Its group then
//!   replays from the oldest retained record: it may see batches again,
//!   and it never skips one. A cursor that validated wrongly could sit
//!   ahead of the real one, skip batches and let retention delete them.
//! * **Nothing migrates.** A file written with the old check word fails
//!   validation like any damaged one and reads as "no cursor"
//!   (`a_cursor_file_with_the_old_check_word_loads_as_no_cursor` pins
//!   this); the group's next advance replaces it. Layout, file names and
//!   the tmp + rename protocol did not change.
//!
//! Writes come in two flavours: [`CursorStore::advance`] persists
//! immediately (used for registration, which is rare), while
//! [`CursorStore::advance_mem`] only updates memory and marks the entry
//! dirty for a later [`CursorStore::flush`] — the per-ack path, where a
//! caller batching acks at a bounded cadence trades two syscalls per ack
//! for "a crash re-delivers at most one flush interval of acked
//! batches", which cursor semantics already tolerate (advances below the
//! stored value are ignored as regressions).

use crate::{LogError, Result};
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

/// Folded into the check word. Not the `TSCURS01` of files whose check
/// word was `value ^ salt`: those must fail validation ("no cursor").
const CURSOR_SALT: u64 = u64::from_le_bytes(*b"TSCURS02");

/// The check word stored beside a cursor value. It must not commute with
/// damage: were it `value ^ salt`, one flip laid over both words of the
/// file would validate as a cursor nobody wrote — possibly ahead of the
/// real one, which skips batches and lets retention delete them. This is
/// splitmix64's finalizer, a bijection in which every input bit reaches
/// every output bit.
fn check_word(value: u64) -> u64 {
    let mut z = value ^ CURSOR_SALT;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Durable store of per-`(group, shard)` resume cursors.
pub struct CursorStore {
    dir: PathBuf,
    cursors: BTreeMap<(String, u32), u64>,
    /// Entries advanced in memory but not yet written to disk.
    dirty: BTreeSet<(String, u32)>,
}

impl CursorStore {
    /// Opens (creating if needed) the cursor directory under `log_dir`
    /// and loads every stored cursor. Files that fail validation are
    /// ignored — a damaged cursor degrades to "no cursor", which replays
    /// from the oldest retained record rather than losing data.
    pub fn open(log_dir: &Path) -> Result<CursorStore> {
        let dir = log_dir.join("cursors");
        fs::create_dir_all(&dir)
            .map_err(|e| LogError::Io(format!("create {}: {e}", dir.display())))?;
        let mut cursors = BTreeMap::new();
        let entries =
            fs::read_dir(&dir).map_err(|e| LogError::Io(format!("read {}: {e}", dir.display())))?;
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some((group, shard)) = Self::parse_file_name(name) else {
                continue;
            };
            let Ok(bytes) = fs::read(entry.path()) else {
                continue;
            };
            if bytes.len() != 16 {
                continue;
            }
            let value = u64::from_le_bytes(bytes[..8].try_into().unwrap());
            let check = u64::from_le_bytes(bytes[8..].try_into().unwrap());
            if check_word(value) != check {
                continue;
            }
            cursors.insert((group, shard), value);
        }
        Ok(CursorStore {
            dir,
            cursors,
            dirty: BTreeSet::new(),
        })
    }

    /// The stored cursor for `(group, shard)`: the next sequence number
    /// the group still needs.
    pub fn load(&self, group: &str, shard: u32) -> Option<u64> {
        self.cursors.get(&(group.to_string(), shard)).copied()
    }

    /// Advances `(group, shard)` to `next_seq` and writes it through to
    /// disk. Regressions are ignored — acks can arrive out of order but a
    /// cursor only moves forward. Returns whether the cursor moved.
    pub fn advance(&mut self, group: &str, shard: u32, next_seq: u64) -> Result<bool> {
        if !self.advance_mem(group, shard, next_seq) {
            return Ok(false);
        }
        let key = (group.to_string(), shard);
        self.write_through(group, shard, next_seq)?;
        self.dirty.remove(&key);
        Ok(true)
    }

    /// Advances `(group, shard)` in memory only, marking it dirty for the
    /// next [`CursorStore::flush`]. Regressions are ignored, as in
    /// [`CursorStore::advance`]. Returns whether the cursor moved.
    pub fn advance_mem(&mut self, group: &str, shard: u32, next_seq: u64) -> bool {
        let key = (group.to_string(), shard);
        if self.cursors.get(&key).is_some_and(|&cur| next_seq <= cur) {
            return false;
        }
        self.cursors.insert(key.clone(), next_seq);
        self.dirty.insert(key);
        true
    }

    /// Writes every dirty cursor through to disk (tmp + rename each).
    /// Entries that fail to write stay dirty for the next flush; the
    /// first error is returned after attempting the rest. Returns how
    /// many cursors were persisted.
    pub fn flush(&mut self) -> Result<usize> {
        let dirty: Vec<(String, u32)> = self.dirty.iter().cloned().collect();
        let mut flushed = 0;
        let mut first_err = None;
        for key in dirty {
            let value = self.cursors[&key];
            match self.write_through(&key.0, key.1, value) {
                Ok(()) => {
                    self.dirty.remove(&key);
                    flushed += 1;
                }
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        match first_err {
            None => Ok(flushed),
            Some(e) => Err(e),
        }
    }

    /// Whether any advance is still waiting for a [`CursorStore::flush`].
    pub fn has_dirty(&self) -> bool {
        !self.dirty.is_empty()
    }

    fn write_through(&self, group: &str, shard: u32, next_seq: u64) -> Result<()> {
        let path = self.dir.join(Self::file_name(group, shard));
        let tmp = self
            .dir
            .join(format!(".{}.tmp", Self::file_name(group, shard)));
        let mut bytes = [0u8; 16];
        bytes[..8].copy_from_slice(&next_seq.to_le_bytes());
        bytes[8..].copy_from_slice(&check_word(next_seq).to_le_bytes());
        fs::write(&tmp, bytes)
            .map_err(|e| LogError::Io(format!("write {}: {e}", tmp.display())))?;
        fs::rename(&tmp, &path)
            .map_err(|e| LogError::Io(format!("rename {}: {e}", path.display())))?;
        Ok(())
    }

    /// Registers a group without moving its cursor (so retention starts
    /// protecting its range immediately, before the first ack). A group
    /// that already has a cursor is left untouched.
    pub fn register(&mut self, group: &str, shard: u32, floor: u64) -> Result<()> {
        let key = (group.to_string(), shard);
        if self.cursors.contains_key(&key) {
            return Ok(());
        }
        self.advance(group, shard, floor).map(|_| ())
    }

    /// The lowest cursor across all registered groups for `shard` —
    /// retention must keep every record at or above this.
    pub fn min_cursor(&self, shard: u32) -> Option<u64> {
        self.cursors
            .iter()
            .filter(|((_, s), _)| *s == shard)
            .map(|(_, &v)| v)
            .min()
    }

    /// Registered group names (all shards, deduplicated, sorted).
    pub fn groups(&self) -> Vec<String> {
        let mut names: Vec<String> = self.cursors.keys().map(|(g, _)| g.clone()).collect();
        names.sort();
        names.dedup();
        names
    }

    fn file_name(group: &str, shard: u32) -> String {
        format!("{}.s{shard}.cursor", encode_group(group))
    }

    fn parse_file_name(name: &str) -> Option<(String, u32)> {
        let stem = name.strip_suffix(".cursor")?;
        let dot = stem.rfind(".s")?;
        let shard: u32 = stem[dot + 2..].parse().ok()?;
        let group = decode_group(&stem[..dot])?;
        Some((group, shard))
    }
}

/// Escapes a group name into a path-safe file stem: `[A-Za-z0-9_-]`
/// bytes pass through, everything else becomes `%XX`.
fn encode_group(group: &str) -> String {
    let mut out = String::with_capacity(group.len());
    for &b in group.as_bytes() {
        if b.is_ascii_alphanumeric() || b == b'_' || b == b'-' {
            out.push(b as char);
        } else {
            out.push_str(&format!("%{b:02X}"));
        }
    }
    out
}

fn decode_group(stem: &str) -> Option<String> {
    let bytes = stem.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            if i + 3 > bytes.len() {
                return None;
            }
            let hex = std::str::from_utf8(&bytes[i + 1..i + 3]).ok()?;
            out.push(u8::from_str_radix(hex, 16).ok()?);
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_names_round_trip_through_file_names() {
        for group in ["trial-7", "hp search/лаб", "a.b.c", "%", ""] {
            let name = CursorStore::file_name(group, 3);
            let (back, shard) = CursorStore::parse_file_name(&name).unwrap();
            assert_eq!(back, group);
            assert_eq!(shard, 3);
        }
    }
}
