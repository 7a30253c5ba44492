// Package fsutil holds the durability primitives the persistent-state
// packages (checkpoint, telemetry) share: parent-directory fsync after
// atomic renames, and the full tmp+fsync+rename+dirsync atomic write,
// streamed or from memory.
//
// POSIX only guarantees a rename is durable once the containing
// directory has been fsynced; without it a crash shortly after the
// rename can resurrect the old file — or neither file. Every atomic
// rename in this repository therefore goes through this package.
package fsutil

import (
	"io"
	"os"
	"path/filepath"
)

// SyncDir fsyncs the directory containing path-level changes (renames,
// creates, removes) so they survive a power failure. Filesystems that
// do not support fsync on directories make this a no-op rather than an
// error — durability is then the platform's best effort, which is all
// it offered before.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		// EINVAL/ENOTSUP from fsync on a directory handle: the platform
		// cannot do better. Propagating it would fail writes that in
		// fact succeeded.
		return nil
	}
	return cerr
}

// WriteAtomic streams a file to path atomically and durably: fill
// writes the content into path+".tmp", which is fsynced, closed and
// renamed over path, and then the parent directory is fsynced. A reader
// never observes a partial file; a crash at any point leaves either the
// previous content or the new one. If fill or any later step fails, the
// temporary file is removed and path keeps its previous content.
func WriteAtomic(path string, perm os.FileMode, fill func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, perm)
	if err != nil {
		return err
	}
	err = fill(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return SyncDir(filepath.Dir(path))
}

// WriteFileAtomic is WriteAtomic for content already in memory.
func WriteFileAtomic(path string, data []byte, perm os.FileMode) error {
	return WriteAtomic(path, perm, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// SyncFile fsyncs an existing file's contents (used when sealing an
// append-mode file whose writes went through a different descriptor).
func SyncFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	serr := f.Sync()
	cerr := f.Close()
	if serr != nil {
		return serr
	}
	return cerr
}
