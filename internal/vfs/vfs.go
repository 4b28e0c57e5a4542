// Package vfs is the one filesystem seam the durability stack
// (internal/wal, internal/snap, disc.OpenUpdater, internal/manager)
// writes and recovers through. Production code uses the OS
// implementation; the fault-injection suites substitute
// faultio.DirFS to schedule EIO, ENOSPC, torn writes and rename
// failures on exactly the calls a real disk can fail, or
// faultio.CrashFS to cut the log's byte stream at any point — which is
// what lets the crash and chaos properties prove recovery and
// per-dataset fault isolation without a real bad disk or power cut.
//
// The interface is deliberately minimal: only the operations the
// durability code actually performs. Paths are ordinary OS paths (the
// package does not virtualise a root); an implementation may rewrite
// or gate them, but the OS implementation passes them straight
// through, so vfs.OS behaves byte-for-byte like the os package calls
// it replaces.
package vfs

import (
	"io"
	"os"
)

// File is the writable-file surface the write-ahead log appends
// through; *os.File satisfies it.
type File interface {
	io.Writer
	Sync() error
	Close() error
}

// TempFile is a File that knows its own name, as returned by
// CreateTemp; the atomic-save protocol renames it into place.
type TempFile interface {
	File
	Name() string
}

// FS is the filesystem surface of the durability stack. All methods
// must be safe for concurrent use.
type FS interface {
	// OpenAppend opens name for appending; with create true the file
	// is created (or truncated) instead. Mirrors the WAL's two open
	// modes.
	OpenAppend(name string, create bool) (File, error)
	// CreateTemp creates a new temporary file in dir with a name built
	// from pattern, as os.CreateTemp does.
	CreateTemp(dir, pattern string) (TempFile, error)
	// ReadFile returns the full content of name.
	ReadFile(name string) ([]byte, error)
	// WriteFile writes data to name, creating or truncating it.
	WriteFile(name string, data []byte, perm os.FileMode) error
	// ReadDir lists the directory entries of name.
	ReadDir(name string) ([]os.DirEntry, error)
	// Stat describes name.
	Stat(name string) (os.FileInfo, error)
	// Rename atomically moves oldpath over newpath.
	Rename(oldpath, newpath string) error
	// Remove deletes name.
	Remove(name string) error
	// Truncate cuts name to size bytes.
	Truncate(name string, size int64) error
	// MkdirAll creates name and any missing parents.
	MkdirAll(name string, perm os.FileMode) error
	// SyncDir fsyncs a directory so its entries (a just-created,
	// just-renamed or just-removed file) survive a power loss.
	SyncDir(dir string) error
}

// OS is the production implementation: every method is the
// corresponding os-package call.
var OS FS = osFS{}

type osFS struct{}

func (osFS) OpenAppend(name string, create bool) (File, error) {
	if create {
		return os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	}
	return os.OpenFile(name, os.O_WRONLY|os.O_APPEND, 0o644)
}

func (osFS) CreateTemp(dir, pattern string) (TempFile, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

func (osFS) WriteFile(name string, data []byte, perm os.FileMode) error {
	return os.WriteFile(name, data, perm)
}

func (osFS) ReadDir(name string) ([]os.DirEntry, error) { return os.ReadDir(name) }

func (osFS) Stat(name string) (os.FileInfo, error) { return os.Stat(name) }

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) Remove(name string) error { return os.Remove(name) }

func (osFS) Truncate(name string, size int64) error { return os.Truncate(name, size) }

func (osFS) MkdirAll(name string, perm os.FileMode) error { return os.MkdirAll(name, perm) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
