package faultio

import (
	"fmt"
	"os"
	"strings"
	"sync"

	"github.com/discdiversity/disc/internal/vfs"
)

// FaultOp names one filesystem operation a DirFS rule can target.
type FaultOp string

const (
	// OpOpen targets OpenAppend calls (both append and create modes).
	OpOpen FaultOp = "open"
	// OpCreateTemp targets CreateTemp calls (the atomic-save temp file).
	OpCreateTemp FaultOp = "create-temp"
	// OpRead targets ReadFile calls (snapshot loads, WAL replay).
	OpRead FaultOp = "read"
	// OpReadDir targets ReadDir calls (segment listing, boot scans).
	OpReadDir FaultOp = "readdir"
	// OpWrite targets Write calls on files the DirFS handed out.
	OpWrite FaultOp = "write"
	// OpSync targets Sync calls on files the DirFS handed out.
	OpSync FaultOp = "sync"
	// OpRename targets Rename calls (the atomic-save commit point).
	// The rule matches against the destination path.
	OpRename FaultOp = "rename"
	// OpRemove targets Remove calls (segment GC, sidecar cleanup).
	OpRemove FaultOp = "remove"
	// OpTruncate targets Truncate calls (torn-tail cleanup).
	OpTruncate FaultOp = "truncate"
	// OpSyncDir targets SyncDir calls. The rule matches the directory.
	OpSyncDir FaultOp = "syncdir"
)

// Rule schedules one injected fault: the At-th call (1-based) of Op
// whose path contains PathContains fails with Err. A Rule fires on
// every matching call when At is 0, and never again once Remaining
// hits zero (see Times). For OpWrite, a non-zero Partial admits that
// many bytes of the failing write to the backing file first — the torn
// write a power cut mid-append leaves behind.
type Rule struct {
	Op           FaultOp
	PathContains string
	// At makes the rule fire only on the At-th matching call (1-based);
	// 0 fires on every matching call (bounded by Times).
	At int
	// Times bounds how often the rule fires (0 = unlimited). Combined
	// with At: the rule arms at call At and fires Times times.
	Times int
	// Err is the injected error; nil defaults to a *os.PathError
	// wrapping ErrInjectedWrite/ErrInjectedSync as appropriate.
	Err error
	// Partial (OpWrite only): bytes of the failing write admitted to
	// the backing file before the error — a torn write.
	Partial int

	calls int // matching calls observed
	fired int // faults injected
}

// DirFS implements vfs.FS over the real filesystem with scheduled
// fault injection: every operation first consults the rule table, and
// a matching armed rule makes the call fail (after admitting Partial
// bytes, for torn writes) exactly as a failing disk would — with a
// *os.PathError carrying the scheduled errno. Files handed out by
// OpenAppend and CreateTemp route their Write/Sync calls back through
// the same table, so write-path faults are scheduled by path too.
//
// A DirFS is safe for concurrent use; the chaos properties drive it
// from many goroutines under -race.
type DirFS struct {
	mu    sync.Mutex
	rules []*Rule
}

// NewDirFS builds a DirFS with an initial rule set (which may be
// empty; rules can be added later with AddRule).
func NewDirFS(rules ...*Rule) *DirFS {
	return &DirFS{rules: rules}
}

// AddRule arms an additional rule.
func (d *DirFS) AddRule(r *Rule) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.rules = append(d.rules, r)
}

// ClearRules disarms every rule (in-flight state is discarded): the
// DirFS becomes a transparent passthrough — the "space came back" /
// "disk healed" transition in the recovery tests.
func (d *DirFS) ClearRules() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.rules = nil
}

// Fired reports how many faults have been injected in total — the
// chaos sweep uses it to assert a scheduled fault actually landed.
func (d *DirFS) Fired() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	for _, r := range d.rules {
		n += r.fired
	}
	return n
}

// check consults the rule table for (op, path); a firing rule returns
// its error (never nil) plus, for writes, the partial byte count.
func (d *DirFS) check(op FaultOp, path string) (error, int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, r := range d.rules {
		if r.Op != op || !strings.Contains(path, r.PathContains) {
			continue
		}
		r.calls++
		if r.At != 0 && r.calls < r.At {
			continue
		}
		if r.Times != 0 && r.fired >= r.Times {
			continue
		}
		r.fired++
		err := r.Err
		if err == nil {
			if op == OpSync || op == OpSyncDir {
				err = ErrInjectedSync
			} else {
				err = ErrInjectedWrite
			}
		}
		return &os.PathError{Op: string(op), Path: path, Err: err}, r.Partial
	}
	return nil, 0
}

// OpenAppend implements vfs.FS.
func (d *DirFS) OpenAppend(name string, create bool) (vfs.File, error) {
	if err, _ := d.check(OpOpen, name); err != nil {
		return nil, err
	}
	f, err := vfs.OS.OpenAppend(name, create)
	if err != nil {
		return nil, err
	}
	return &dirFile{fs: d, f: f, name: name}, nil
}

// CreateTemp implements vfs.FS.
func (d *DirFS) CreateTemp(dir, pattern string) (vfs.TempFile, error) {
	if err, _ := d.check(OpCreateTemp, dir+"/"+pattern); err != nil {
		return nil, err
	}
	f, err := vfs.OS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &dirTempFile{dirFile{fs: d, f: f, name: f.Name()}, f.Name()}, nil
}

// ReadFile implements vfs.FS.
func (d *DirFS) ReadFile(name string) ([]byte, error) {
	if err, _ := d.check(OpRead, name); err != nil {
		return nil, err
	}
	return vfs.OS.ReadFile(name)
}

// WriteFile implements vfs.FS. Faults schedule under OpWrite; Partial
// leaves a torn file behind, as a crash mid-write would.
func (d *DirFS) WriteFile(name string, data []byte, perm os.FileMode) error {
	if err, partial := d.check(OpWrite, name); err != nil {
		if partial > 0 {
			if partial > len(data) {
				partial = len(data)
			}
			_ = vfs.OS.WriteFile(name, data[:partial], perm)
		}
		return err
	}
	return vfs.OS.WriteFile(name, data, perm)
}

// ReadDir implements vfs.FS.
func (d *DirFS) ReadDir(name string) ([]os.DirEntry, error) {
	if err, _ := d.check(OpReadDir, name); err != nil {
		return nil, err
	}
	return vfs.OS.ReadDir(name)
}

// Stat implements vfs.FS (never faulted: existence probes are not a
// useful fault surface — the interesting failures are on the data
// path).
func (d *DirFS) Stat(name string) (os.FileInfo, error) { return vfs.OS.Stat(name) }

// Rename implements vfs.FS; rules match the destination path.
func (d *DirFS) Rename(oldpath, newpath string) error {
	if err, _ := d.check(OpRename, newpath); err != nil {
		return err
	}
	return vfs.OS.Rename(oldpath, newpath)
}

// Remove implements vfs.FS.
func (d *DirFS) Remove(name string) error {
	if err, _ := d.check(OpRemove, name); err != nil {
		return err
	}
	return vfs.OS.Remove(name)
}

// Truncate implements vfs.FS.
func (d *DirFS) Truncate(name string, size int64) error {
	if err, _ := d.check(OpTruncate, name); err != nil {
		return err
	}
	return vfs.OS.Truncate(name, size)
}

// MkdirAll implements vfs.FS (never faulted; directory creation
// happens before any state exists to lose).
func (d *DirFS) MkdirAll(name string, perm os.FileMode) error {
	return vfs.OS.MkdirAll(name, perm)
}

// SyncDir implements vfs.FS.
func (d *DirFS) SyncDir(dir string) error {
	if err, _ := d.check(OpSyncDir, dir); err != nil {
		return err
	}
	return vfs.OS.SyncDir(dir)
}

// dirFile routes Write and Sync back through the owning DirFS's rule
// table, keyed by the file's path.
type dirFile struct {
	fs   *DirFS
	f    vfs.File
	name string
}

func (df *dirFile) Write(p []byte) (int, error) {
	if err, partial := df.fs.check(OpWrite, df.name); err != nil {
		if partial > 0 {
			if partial > len(p) {
				partial = len(p)
			}
			if n, werr := df.f.Write(p[:partial]); werr != nil {
				return n, werr
			}
		}
		return 0, err
	}
	return df.f.Write(p)
}

func (df *dirFile) Sync() error {
	if err, _ := df.fs.check(OpSync, df.name); err != nil {
		return err
	}
	return df.f.Sync()
}

func (df *dirFile) Close() error { return df.f.Close() }

// dirTempFile adds the Name method vfs.TempFile requires.
type dirTempFile struct {
	dirFile
	tmpName string
}

func (dt *dirTempFile) Name() string { return dt.tmpName }

// String renders a rule for logs ("write@3 on *wal* -> input/output
// error"), so chaos sweeps can name the scenario that failed.
func (r *Rule) String() string {
	s := fmt.Sprintf("%s on %q", r.Op, "*"+r.PathContains+"*")
	if r.At != 0 {
		s = fmt.Sprintf("%s@%d", r.Op, r.At) + fmt.Sprintf(" on %q", "*"+r.PathContains+"*")
	}
	if r.Err != nil {
		s += " -> " + r.Err.Error()
	}
	if r.Partial > 0 {
		s += fmt.Sprintf(" (torn after %d bytes)", r.Partial)
	}
	return s
}
