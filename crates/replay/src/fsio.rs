//! Crash-safe checkpoint file I/O.
//!
//! A daemon that checkpoints on a cadence must never leave a torn JSON
//! file where a loader expects a snapshot: a crash mid-`write` would
//! otherwise truncate the newest checkpoint and take the whole state dir
//! down with it. [`atomic_write`] therefore writes through a temp file in
//! the same directory, fsyncs it, and atomically renames it over the
//! destination — a reader either sees the old complete file or the new
//! complete file, never a prefix.
//!
//! The module also owns the naming convention of slot-stamped checkpoint
//! files (`checkpoint_<slot>.json`, fixed-width so lexicographic order is
//! slot order) plus the retention sweep ([`gc_checkpoint_dir`]) and the
//! resume scan ([`list_checkpoint_slots`]) over a directory of them.
//! Orphaned `*.tmp` files from an interrupted write are treated as garbage
//! by both.

use std::fs::{self, File};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Writes `contents` to `path` crash-safely: temp file in the same
/// directory, `fsync`, atomic rename. After a crash at any point the
/// destination holds either its previous contents or the new contents in
/// full — never a torn prefix (the interrupted attempt leaves at most a
/// `.tmp` orphan, which [`gc_checkpoint_dir`] sweeps).
pub fn atomic_write(path: impl AsRef<Path>, contents: &str) -> Result<(), String> {
    let path = path.as_ref();
    let file_name = path
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| format!("cannot atomic-write {}: no file name", path.display()))?;
    let tmp = path.with_file_name(format!("{file_name}.tmp"));
    let mut file =
        File::create(&tmp).map_err(|e| format!("cannot create {}: {e}", tmp.display()))?;
    file.write_all(contents.as_bytes())
        .map_err(|e| format!("cannot write {}: {e}", tmp.display()))?;
    file.sync_all()
        .map_err(|e| format!("cannot fsync {}: {e}", tmp.display()))?;
    drop(file);
    fs::rename(&tmp, path)
        .map_err(|e| format!("cannot rename {} -> {}: {e}", tmp.display(), path.display()))
}

/// Width the slot number is zero-padded to in checkpoint file names, so
/// lexicographic directory order equals slot order.
const SLOT_WIDTH: usize = 10;

/// The canonical file name of the checkpoint taken at slot boundary `slot`.
pub fn checkpoint_file_name(slot: usize) -> String {
    format!("checkpoint_{slot:0SLOT_WIDTH$}.json")
}

/// Parses the slot number out of a canonical checkpoint file name; `None`
/// for anything else (temp orphans, foreign files).
pub fn parse_checkpoint_slot(file_name: &str) -> Option<usize> {
    let digits = file_name
        .strip_prefix("checkpoint_")?
        .strip_suffix(".json")?;
    if digits.len() != SLOT_WIDTH || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// The slots of every canonically named checkpoint in `dir`, ascending.
/// A missing directory is an empty list, not an error (a fresh state dir
/// simply has no checkpoints yet).
pub fn list_checkpoint_slots(dir: impl AsRef<Path>) -> Result<Vec<usize>, String> {
    let dir = dir.as_ref();
    let entries = match fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(format!("cannot read {}: {e}", dir.display())),
    };
    let mut slots = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
        if let Some(slot) = entry.file_name().to_str().and_then(parse_checkpoint_slot) {
            slots.push(slot);
        }
    }
    slots.sort_unstable();
    Ok(slots)
}

/// Retention sweep over a checkpoint directory: keeps the newest `keep`
/// canonically named checkpoints, deletes the older ones and every `*.tmp`
/// orphan an interrupted [`atomic_write`] left behind. Returns the deleted
/// paths. `keep == 0` is rejected — a daemon must never GC away its own
/// resume point.
pub fn gc_checkpoint_dir(dir: impl AsRef<Path>, keep: usize) -> Result<Vec<PathBuf>, String> {
    if keep == 0 {
        return Err("checkpoint retention must keep at least one file".to_string());
    }
    let dir = dir.as_ref();
    let mut removed = Vec::new();
    let entries = match fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(removed),
        Err(e) => return Err(format!("cannot read {}: {e}", dir.display())),
    };
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
        let name = entry.file_name();
        if name.to_str().is_some_and(|n| n.ends_with(".tmp")) {
            let path = entry.path();
            fs::remove_file(&path).map_err(|e| format!("cannot remove {}: {e}", path.display()))?;
            removed.push(path);
        }
    }
    let slots = list_checkpoint_slots(dir)?;
    let expendable = slots.len().saturating_sub(keep);
    for slot in &slots[..expendable] {
        let path = dir.join(checkpoint_file_name(*slot));
        fs::remove_file(&path).map_err(|e| format!("cannot remove {}: {e}", path.display()))?;
        removed.push(path);
    }
    Ok(removed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "onslicing-fsio-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn atomic_write_replaces_the_destination_and_leaves_no_temp() {
        let dir = temp_dir("atomic");
        let path = dir.join("file.json");
        atomic_write(&path, "first").unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "first");
        atomic_write(&path, "second").unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "second");
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|n| n.ends_with(".tmp"))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files must not survive: {leftovers:?}"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_write_whose_reader_leaves_fails_names_the_temp_file_and_leaves_an_orphan_gc_sweeps() {
        use std::io::Read as _;
        // A FIFO where the temp file goes: `File::create` opens it and
        // blocks until a reader comes, and the write stalls once the pipe
        // is full — a crash point held open for as long as the test likes.
        let dir = temp_dir("fifo");
        let path = dir.join(checkpoint_file_name(6));
        let tmp = dir.join(format!("{}.tmp", checkpoint_file_name(6)));
        let made = std::process::Command::new("mkfifo")
            .arg(&tmp)
            .status()
            .unwrap();
        assert!(made.success(), "mkfifo {}", tmp.display());
        let reader = {
            let tmp = tmp.clone();
            std::thread::spawn(move || {
                let mut head = vec![0u8; 64 * 1024];
                File::open(&tmp).unwrap().read_exact(&mut head).unwrap();
                head
            })
        };
        let contents = "x".repeat(1 << 20);
        let err = atomic_write(&path, &contents).unwrap_err();
        assert!(
            err.starts_with(&format!("cannot write {}: ", tmp.display())),
            "{err}"
        );
        assert!(reader.join().unwrap().iter().all(|b| *b == b'x'));
        assert!(!path.exists(), "the destination appeared mid-write");
        assert_eq!(gc_checkpoint_dir(&dir, 1).unwrap(), vec![tmp.clone()]);
        assert!(!tmp.exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_names_round_trip_and_sort_by_slot() {
        assert_eq!(checkpoint_file_name(7), "checkpoint_0000000007.json");
        assert_eq!(parse_checkpoint_slot("checkpoint_0000000007.json"), Some(7));
        for set_aside in ["tmp", "rejected"] {
            let name = format!("checkpoint_0000000007.json.{set_aside}");
            assert_eq!(parse_checkpoint_slot(&name), None, "{name}");
        }
        assert_eq!(parse_checkpoint_slot("checkpoint_7.json"), None);
        assert_eq!(parse_checkpoint_slot("other.json"), None);
        assert!(checkpoint_file_name(9) < checkpoint_file_name(10));
    }

    #[test]
    fn gc_keeps_the_newest_n_and_sweeps_orphans() {
        let dir = temp_dir("gc");
        for slot in [4usize, 8, 12, 16] {
            fs::write(dir.join(checkpoint_file_name(slot)), "{}").unwrap();
        }
        fs::write(dir.join("checkpoint_0000000020.json.tmp"), "torn").unwrap();
        fs::write(dir.join("unrelated.txt"), "keep me").unwrap();
        let removed = gc_checkpoint_dir(&dir, 2).unwrap();
        assert_eq!(
            removed.len(),
            3,
            "two old checkpoints + one orphan: {removed:?}"
        );
        assert_eq!(list_checkpoint_slots(&dir).unwrap(), vec![12, 16]);
        assert!(dir.join("unrelated.txt").exists());
        assert!(gc_checkpoint_dir(&dir, 0).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn listing_a_missing_directory_is_empty_not_an_error() {
        let dir = std::env::temp_dir().join("onslicing-fsio-never-created");
        assert_eq!(list_checkpoint_slots(&dir).unwrap(), Vec::<usize>::new());
        assert_eq!(gc_checkpoint_dir(&dir, 3).unwrap(), Vec::<PathBuf>::new());
    }
}
