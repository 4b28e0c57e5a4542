package faultio

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"github.com/discdiversity/disc/internal/vfs"
)

// TestCrashFSSharedBudget: the files one CrashFS hands out share one
// byte budget in creation order, the writer sees success throughout,
// and a dead process can create no further file.
func TestCrashFSSharedBudget(t *testing.T) {
	dir := t.TempDir()
	fsys := NewCrashFS(vfs.OS, 7)
	for _, name := range []string{"a", "b"} {
		f, err := fsys.OpenAppend(filepath.Join(dir, name), true)
		if err != nil {
			t.Fatal(err)
		}
		if n, err := f.Write([]byte(name + name + name + name)); err != nil || n != 4 {
			t.Fatalf("write %s = (%d, %v); the writer must see success", name, n, err)
		}
		if err := f.Sync(); err != nil {
			t.Fatalf("sync %s: %v", name, err)
		}
		f.Close()
	}
	if got := fsys.Attempted(); got != 8 {
		t.Fatalf("Attempted() = %d, want 8", got)
	}
	da, _ := os.ReadFile(filepath.Join(dir, "a"))
	db, _ := os.ReadFile(filepath.Join(dir, "b"))
	if string(da) != "aaaa" || string(db) != "bbb" {
		t.Fatalf("crash images %q / %q, want \"aaaa\" / \"bbb\" (7-byte budget)", da, db)
	}
	if _, err := fsys.OpenAppend(filepath.Join(dir, "c"), true); !errors.Is(err, ErrCrashed) {
		t.Fatalf("open after the crash = %v, want ErrCrashed", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "c")); !os.IsNotExist(err) {
		t.Fatalf("a crashed process created a file: %v", err)
	}
}
