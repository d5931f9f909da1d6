//! The state-directory lock: one daemon per state dir, held as the
//! kernel's exclusive file lock on `fleetd.lock`.
//!
//! Two daemons sharing a state directory would interleave checkpoints and
//! race on the control socket. The daemon holds the lock through an open
//! file for its whole lifetime, and the kernel releases it however the
//! process ends, so a crash leaves no lock to reclaim. The file holds the
//! owner's PID for the refusal message only. It is never deleted: after
//! an unlink, one acquirer could lock the old inode and another a new one.

use std::fs::{File, OpenOptions, TryLockError};
use std::io::Write as _;
use std::path::Path;

/// Name of the lock file inside the state directory.
pub const LOCK_FILE_NAME: &str = "fleetd.lock";

/// An acquired state-directory lock; the kernel releases it when the file
/// closes — on drop, on exit or on a crash.
#[derive(Debug)]
pub struct StateLock {
    _file: File,
}

impl StateLock {
    /// Acquires the lock for `state_dir`, or names the fleetd that holds it.
    pub fn acquire(state_dir: &Path) -> Result<Self, String> {
        let path = state_dir.join(LOCK_FILE_NAME);
        let failed =
            |what: &str, e: std::io::Error| format!("cannot {what} {}: {e}", path.display());
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)
            .map_err(|e| failed("open", e))?;
        match file.try_lock() {
            Ok(()) => {}
            Err(TryLockError::WouldBlock) => {
                let owner = std::fs::read_to_string(&path).unwrap_or_default();
                return Err(format!(
                    "state dir {} is locked by a running fleetd (pid {})",
                    state_dir.display(),
                    owner.trim()
                ));
            }
            Err(TryLockError::Error(e)) => return Err(failed("lock", e)),
        }
        file.set_len(0)
            .and_then(|()| file.write_all(std::process::id().to_string().as_bytes()))
            .map_err(|e| failed("write", e))?;
        Ok(Self { _file: file })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::{Arc, Barrier};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fleetd-lock-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn second_acquisition_is_refused_while_owner_lives() {
        let dir = temp_dir("double");
        let lock = StateLock::acquire(&dir).unwrap();
        // The first lock is held, so a second acquire must fail and name
        // the holder…
        let err = StateLock::acquire(&dir).unwrap_err();
        let pid = std::process::id();
        assert!(
            err.contains(&format!("locked by a running fleetd (pid {pid})")),
            "{err}"
        );
        drop(lock);
        // …and releasing the lock frees the dir.
        let _lock = StateLock::acquire(&dir).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_and_garbage_locks_are_reclaimed() {
        let dir = temp_dir("stale");
        // A PID that cannot exist (pid_max on Linux caps at 2^22), then a
        // file that names no PID at all: neither is a held lock.
        for leftover in ["4194999", "not-a-pid"] {
            std::fs::write(dir.join(LOCK_FILE_NAME), leftover).unwrap();
            let lock = StateLock::acquire(&dir).unwrap();
            assert_eq!(
                std::fs::read_to_string(dir.join(LOCK_FILE_NAME)).unwrap(),
                std::process::id().to_string()
            );
            drop(lock);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_acquirers_of_a_stale_lock_never_both_win() {
        let dir = temp_dir("race");
        for trial in 0..300 {
            std::fs::write(dir.join(LOCK_FILE_NAME), "4194999").unwrap();
            let start = Arc::new(Barrier::new(2));
            let racers: Vec<_> = (0..2)
                .map(|_| {
                    let (dir, start) = (dir.clone(), Arc::clone(&start));
                    std::thread::spawn(move || {
                        start.wait();
                        StateLock::acquire(&dir)
                    })
                })
                .collect();
            // Each winner keeps its lock until both racers are done.
            let won: Vec<_> = racers
                .into_iter()
                .filter_map(|racer| racer.join().unwrap().ok())
                .collect();
            assert_eq!(won.len(), 1, "trial {trial}: {} acquirers won", won.len());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
