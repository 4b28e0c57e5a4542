// Package faultio provides vfs.FS implementations that inject storage
// failures, so the durability and fault-isolation property tests can
// prove recovery correct without a real bad disk or a real power cut.
//
// Both injectors are handed to the code under test through the one
// storage seam (disc.WithStorageFS, manager.Config.FS,
// server.WithStorageFS):
//
//   - DirFS schedules EIO, ENOSPC, failed syncs and torn writes on
//     exactly the calls a real disk can fail, matched by operation and
//     path (see Rule).
//   - CrashFS models a crash: a crash preserves an arbitrary prefix of
//     the bytes written since the last sync. CrashFS realises it
//     literally, letting only the first N bytes appended across all
//     files ever reach the disk while the writer keeps seeing success.
package faultio

import (
	"errors"
	"sync"

	"github.com/discdiversity/disc/internal/vfs"
)

// ErrInjectedSync is returned by a Sync scheduled to fail.
var ErrInjectedSync = errors.New("faultio: injected sync failure")

// ErrInjectedWrite is returned by a write scheduled to fail outright.
var ErrInjectedWrite = errors.New("faultio: injected write failure")

// ErrCrashed is returned by CrashFS.OpenAppend once its byte budget is
// exhausted: the simulated process is dead and cannot create files.
var ErrCrashed = errors.New("faultio: crashed (byte budget exhausted)")

// CrashFS is a vfs.FS whose appended files draw on one cumulative byte
// budget, in creation order: only the first limit bytes written
// through OpenAppend files reach the disk, and the rest are silently
// swallowed while the writer sees success — the image an instant power
// cut at byte limit of the log's linear byte stream leaves behind,
// rotation included. Every other call goes to the embedded FS
// unchanged. Safe for concurrent use.
type CrashFS struct {
	vfs.FS

	mu        sync.Mutex
	budget    int64
	attempted int64
}

// NewCrashFS wraps fsys with a crash at byte limit.
func NewCrashFS(fsys vfs.FS, limit int64) *CrashFS {
	return &CrashFS{FS: fsys, budget: limit}
}

// Attempted reports the total bytes the writer has (logically) written
// so far, including bytes past the crash point — run with an
// unreachable limit to learn the full uncrashed length.
func (c *CrashFS) Attempted() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.attempted
}

// OpenAppend implements vfs.FS. Creating a file is itself an act the
// crashed process cannot perform: once the budget is gone it refuses —
// otherwise the model could leave empty later segments next to a torn
// earlier one, an image the log's sync-before-roll protocol rules out.
func (c *CrashFS) OpenAppend(name string, create bool) (vfs.File, error) {
	if c.crashed() {
		return nil, ErrCrashed
	}
	f, err := c.FS.OpenAppend(name, create)
	if err != nil {
		return nil, err
	}
	return &crashFile{f: f, fs: c}, nil
}

// crashed reports whether the byte budget is exhausted.
func (c *CrashFS) crashed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.budget <= 0
}

// crashFile admits writes only while its CrashFS's budget lasts.
type crashFile struct {
	f  vfs.File
	fs *CrashFS
}

func (cf *crashFile) Write(p []byte) (int, error) {
	c := cf.fs
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted += int64(len(p))
	admit := min(c.budget, int64(len(p)))
	if admit > 0 {
		n, err := cf.f.Write(p[:admit])
		c.budget -= int64(n)
		if err != nil {
			return n, err
		}
	}
	return len(p), nil
}

func (cf *crashFile) Sync() error {
	if cf.fs.crashed() {
		return nil
	}
	return cf.f.Sync()
}

func (cf *crashFile) Close() error { return cf.f.Close() }
