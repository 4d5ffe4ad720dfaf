//! The bytes of a table image: a read-only file mapping or a heap buffer.
//!
//! A persisted table is a mapped `.sac` file; a table built in memory is the
//! same page image in a heap buffer (see [`crate::format`]). The reader
//! sees one `&[u8]` either way. The file mapping goes through a two-symbol
//! `libc` FFI surface (`mmap`/`munmap` — std already links libc), so the
//! read path drags in no platform crate; where that surface does not exist
//! the file is read into a heap buffer instead, at the cost of residency.

use std::fs::File;
use std::ops::Deref;
use std::path::Path;

use crate::error::StorageError;
use crate::Result;

fn io_err(path: &Path, op: &str, message: impl std::fmt::Display) -> StorageError {
    StorageError::Io {
        path: path.display().to_string(),
        message: format!("{op}: {message}"),
    }
}

/// An immutable byte view of a whole table image.
///
/// A file image is a `PROT_READ`/`MAP_SHARED` mapping: pages are faulted
/// in on access and the kernel may evict them again, so a mapped table
/// larger than RAM (or than an rlimit on the heap) still scans. Dropping
/// the value unmaps the region; every reader copies the bytes it needs out
/// of the image before returning, so no gathered batch borrows from it.
pub struct Mmap {
    inner: Inner,
}

enum Inner {
    Heap(Vec<u8>),
    #[cfg(unix)]
    File(sys::Map),
}

impl Mmap {
    /// Map the file at `path` read-only.
    pub fn open(path: &Path) -> Result<Mmap> {
        let file = File::open(path).map_err(|e| io_err(path, "open", e))?;
        let len = file
            .metadata()
            .map_err(|e| io_err(path, "metadata", e))?
            .len();
        if len == 0 {
            return Err(StorageError::BadFormat {
                path: path.display().to_string(),
                message: "empty file".into(),
            });
        }
        let len = usize::try_from(len).map_err(|_| io_err(path, "map", "file exceeds usize"))?;
        #[cfg(unix)]
        let inner = Inner::File(sys::Map::new(&file, len, path)?);
        #[cfg(not(unix))]
        let inner = {
            use std::io::Read;
            let mut buf = Vec::with_capacity(len);
            (&file)
                .read_to_end(&mut buf)
                .map_err(|e| io_err(path, "read", e))?;
            Inner::Heap(buf)
        };
        Ok(Mmap { inner })
    }

    /// An image held in a heap buffer.
    pub fn heap(bytes: Vec<u8>) -> Mmap {
        Mmap {
            inner: Inner::Heap(bytes),
        }
    }

    /// The image's length in bytes.
    pub fn len(&self) -> usize {
        self.deref().len()
    }

    /// True when the image is empty (never the case for a table image).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Deref for Mmap {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        match &self.inner {
            Inner::Heap(buf) => buf,
            #[cfg(unix)]
            Inner::File(map) => map.bytes(),
        }
    }
}

impl std::fmt::Debug for Mmap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mmap").field("len", &self.len()).finish()
    }
}

#[cfg(unix)]
mod sys {
    use super::*;
    use std::os::unix::io::AsRawFd;

    use core::ffi::c_void;

    const PROT_READ: i32 = 1;
    const MAP_SHARED: i32 = 1;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> i32;
    }

    pub struct Map {
        ptr: *mut c_void,
        len: usize,
    }

    // SAFETY: `ptr`/`len` describe a PROT_READ mapping this value owns for
    // its whole lifetime and never mutates; unmapping happens only in `Drop`,
    // so moving it to or reading it from any thread is sound.
    unsafe impl Send for Map {}
    unsafe impl Sync for Map {}

    impl Map {
        pub fn new(file: &File, len: usize, path: &Path) -> Result<Map> {
            // SAFETY: fd is valid for the duration of the call; the kernel
            // keeps the mapping alive after the fd is closed.
            let ptr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_SHARED,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr as usize == usize::MAX {
                return Err(super::io_err(path, "mmap", "mapping failed"));
            }
            Ok(Map { ptr, len })
        }

        pub fn bytes(&self) -> &[u8] {
            // SAFETY: ptr/len describe a live PROT_READ mapping we own.
            unsafe { std::slice::from_raw_parts(self.ptr as *const u8, self.len) }
        }
    }

    impl Drop for Map {
        fn drop(&mut self) {
            // SAFETY: exactly the region returned by mmap in `new`.
            unsafe {
                munmap(self.ptr, self.len);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    #[test]
    fn maps_file_bytes() {
        let path = std::env::temp_dir().join(format!("sa-mmap-test-{}", std::process::id()));
        {
            let mut f = File::create(&path).unwrap();
            f.write_all(b"hello mapped world").unwrap();
        }
        let m = Mmap::open(&path).unwrap();
        assert_eq!(&m[..5], b"hello");
        assert_eq!(m.len(), 18);
        drop(m);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_file_rejected() {
        let path = std::env::temp_dir().join(format!("sa-mmap-empty-{}", std::process::id()));
        File::create(&path).unwrap();
        assert!(matches!(
            Mmap::open(&path),
            Err(StorageError::BadFormat { .. })
        ));
        std::fs::remove_file(&path).unwrap();
    }
}
