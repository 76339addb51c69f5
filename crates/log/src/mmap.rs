//! A tiny `MAP_SHARED` file mapping for log segments.
//!
//! The build environment has no `memmap2`/`libc` crates available, so the
//! two mmap calls this crate needs are declared directly against the
//! platform C library (which every Rust binary on Linux links anyway) —
//! the same approach `ts-shm` takes for its arena. The mapping is
//! deliberately minimal: segments are single-writer, and all read-side
//! consistency comes from the segment's committed-count protocol, not
//! from the mapping. A segment shares its mapping (`Arc`) with the record
//! handles it gives out, so the pages stay mapped — even after the file
//! is unlinked by retention — until the last handle is gone.

use std::fs::OpenOptions;
use std::io;
use std::path::Path;

#[cfg(unix)]
mod sys {
    use std::os::raw::{c_int, c_void};

    pub const PROT_READ: c_int = 1;
    pub const PROT_WRITE: c_int = 2;
    pub const MAP_SHARED: c_int = 1;
    pub const MS_SYNC: c_int = 4;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
        pub fn msync(addr: *mut c_void, len: usize, flags: c_int) -> c_int;
    }

    pub fn map_failed() -> *mut c_void {
        usize::MAX as *mut c_void
    }
}

/// A read-write `MAP_SHARED` mapping of a whole file.
pub struct SharedMapping {
    ptr: *mut u8,
    len: usize,
}

// SAFETY: the mapping is plain shared memory with no thread affinity (the
// two fields are an address and a length). It is shared through an `Arc`
// between the owning `Segment` — the one writer, which only ever stores
// past the committed records — and the `Record` handles `Segment::read`
// gives out, which may sit on any thread and outlive the segment but look
// only at committed bytes, and those are never rewritten. The last of
// them to drop unmaps.
unsafe impl Send for SharedMapping {}
unsafe impl Sync for SharedMapping {}

impl SharedMapping {
    /// Creates/truncates `path` to `len` bytes and maps it read-write.
    #[cfg(unix)]
    pub fn create(path: &Path, len: usize) -> io::Result<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        file.set_len(len as u64)?;
        Self::map(&file, len)
    }

    /// Maps an existing file read-write over its current length.
    #[cfg(unix)]
    pub fn open(path: &Path) -> io::Result<Self> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let len = file.metadata()?.len() as usize;
        if len == 0 {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "empty file"));
        }
        Self::map(&file, len)
    }

    #[cfg(unix)]
    fn map(file: &std::fs::File, len: usize) -> io::Result<Self> {
        use std::os::fd::AsRawFd;
        // Safety: standard mmap of an owned fd; length is non-zero and the
        // fd is valid for the duration of the call.
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ | sys::PROT_WRITE,
                sys::MAP_SHARED,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr == sys::map_failed() || ptr.is_null() {
            return Err(io::Error::last_os_error());
        }
        Ok(Self {
            ptr: ptr as *mut u8,
            len,
        })
    }

    /// Creating shared mappings is only supported on unix in this
    /// reproduction.
    #[cfg(not(unix))]
    pub fn create(_path: &Path, _len: usize) -> io::Result<Self> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "ts-log requires a unix platform",
        ))
    }

    /// See [`SharedMapping::create`].
    #[cfg(not(unix))]
    pub fn open(_path: &Path) -> io::Result<Self> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "ts-log requires a unix platform",
        ))
    }

    /// Synchronously flushes the whole mapping to its backing file
    /// (`msync(MS_SYNC)`). The in-memory write ordering the segment
    /// protocol relies on says nothing about writeback order on host
    /// power loss — this is the opt-in barrier for power-fail safety.
    #[cfg(unix)]
    pub fn sync(&self) -> io::Result<()> {
        // Safety: ptr/len come from a successful mmap and the mapping is
        // alive for &self's lifetime.
        let rc = unsafe {
            sys::msync(
                self.ptr as *mut std::os::raw::c_void,
                self.len,
                sys::MS_SYNC,
            )
        };
        if rc != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// See [`SharedMapping::sync`].
    #[cfg(not(unix))]
    pub fn sync(&self) -> io::Result<()> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "ts-log requires a unix platform",
        ))
    }

    /// Base pointer of the mapping.
    pub fn ptr(&self) -> *mut u8 {
        self.ptr
    }

    /// Mapped length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the mapping is empty (never true for a valid segment).
    #[allow(dead_code)]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl Drop for SharedMapping {
    fn drop(&mut self) {
        #[cfg(unix)]
        // Safety: ptr/len come from a successful mmap and are unmapped
        // exactly once.
        unsafe {
            sys::munmap(self.ptr as *mut std::os::raw::c_void, self.len);
        }
    }
}
