package wal

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/discdiversity/disc/internal/vfs"
)

func openEmpty(t *testing.T, dir string, opts Options) (*Log, string) {
	t.Helper()
	path := filepath.Join(dir, "t.wal")
	l, ops, err := Open(path, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if len(ops) != 0 {
		t.Fatalf("fresh log replayed %d ops", len(ops))
	}
	return l, path
}

func apnd(t *testing.T, l *Log, ops ...Op) {
	t.Helper()
	for _, op := range ops {
		if err := l.Append(op); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
}

func replay(t *testing.T, path string, opts Options) []Op {
	t.Helper()
	l, ops, err := Open(path, opts)
	if err != nil {
		t.Fatalf("Open (replay): %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return ops
}

func sampleOps() []Op {
	return []Op{
		{Kind: OpInsert, ID: 0, Point: []float64{0, 0}},
		{Kind: OpInsert, ID: 1, Point: []float64{1.5, -2.25}},
		{Kind: OpDelete, ID: 0},
		{Kind: OpInsert, ID: 2, Point: []float64{3, 4}},
	}
}

func opsEqual(a, b []Op) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Kind != b[i].Kind || a[i].ID != b[i].ID || len(a[i].Point) != len(b[i].Point) {
			return false
		}
		for j := range a[i].Point {
			if a[i].Point[j] != b[i].Point[j] {
				return false
			}
		}
	}
	return true
}

func TestRoundTrip(t *testing.T) {
	opts := Options{Radius: 0.25, Metric: "euclidean", Sync: SyncNone}
	l, path := openEmpty(t, t.TempDir(), opts)
	want := sampleOps()
	apnd(t, l, want...)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := replay(t, path, opts); !opsEqual(got, want) {
		t.Fatalf("replayed %v, want %v", got, want)
	}
}

func TestHeaderMismatches(t *testing.T) {
	opts := Options{Radius: 0.25, Metric: "euclidean"}
	l, path := openEmpty(t, t.TempDir(), opts)
	apnd(t, l, sampleOps()...)
	l.Close()

	for _, tc := range []struct {
		name string
		opts Options
		want string
	}{
		{"metric", Options{Radius: 0.25, Metric: "manhattan"}, "metric"},
		{"radius", Options{Radius: 0.5, Metric: "euclidean"}, "radius"},
	} {
		_, _, err := Open(path, tc.opts)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: Open = %v, want error mentioning %q", tc.name, err, tc.want)
		}
	}
}

func TestFutureEpochRefused(t *testing.T) {
	opts := Options{Radius: 0.25, Metric: "euclidean", Epoch: 3}
	_, path := openEmpty(t, t.TempDir(), opts)
	_, _, err := Open(path, Options{Radius: 0.25, Metric: "euclidean", Epoch: 1})
	if err == nil || !strings.Contains(err.Error(), "epoch") {
		t.Fatalf("Open with stale snapshot epoch = %v, want epoch error", err)
	}
}

func TestStaleEpochCleanup(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Radius: 0.25, Metric: "euclidean"}
	l, path := openEmpty(t, dir, opts)
	apnd(t, l, sampleOps()...)
	l.Close()

	// A snapshot at epoch 2 makes the epoch-0 segment stale: its ops are
	// covered. Open must delete it and recover nothing.
	ops := replay(t, path, Options{Radius: 0.25, Metric: "euclidean", Epoch: 2})
	if len(ops) != 0 {
		t.Fatalf("stale segments replayed %d ops", len(ops))
	}
	if _, err := os.Stat(segmentName(path, 0, 1)); !os.IsNotExist(err) {
		t.Fatalf("stale segment still present: %v", err)
	}
	if _, err := os.Stat(segmentName(path, 2, 1)); err != nil {
		t.Fatalf("no fresh segment for epoch 2: %v", err)
	}
}

func TestRotate(t *testing.T) {
	opts := Options{Radius: 0.25, Metric: "euclidean"}
	l, path := openEmpty(t, t.TempDir(), opts)
	apnd(t, l, sampleOps()...)
	if err := l.Rotate(1); err != nil {
		t.Fatalf("Rotate: %v", err)
	}
	post := Op{Kind: OpInsert, ID: 3, Point: []float64{9, 9}}
	apnd(t, l, post)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(segmentName(path, 0, 1)); !os.IsNotExist(err) {
		t.Fatalf("rotated-away segment still present: %v", err)
	}
	got := replay(t, path, Options{Radius: 0.25, Metric: "euclidean", Epoch: 1})
	if !opsEqual(got, []Op{post}) {
		t.Fatalf("post-rotate replay = %v, want %v", got, []Op{post})
	}
}

func TestSegmentRollAndGap(t *testing.T) {
	// Tiny segments force a roll every record or two.
	opts := Options{Radius: 0.25, Metric: "euclidean", SegmentBytes: 100, Sync: SyncNone}
	l, path := openEmpty(t, t.TempDir(), opts)
	var want []Op
	for i := 0; i < 10; i++ {
		op := Op{Kind: OpInsert, ID: int64(i), Point: []float64{float64(i), 1}}
		want = append(want, op)
		apnd(t, l, op)
	}
	l.Close()
	segs, err := listSegments(vfs.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("expected several segments, got %d", len(segs))
	}
	if got := replay(t, path, opts); !opsEqual(got, want) {
		t.Fatalf("multi-segment replay = %v, want %v", got, want)
	}

	// Removing a middle segment is lost acknowledged data: loud error.
	if err := os.Remove(segs[1].name); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(path, opts); err == nil || !strings.Contains(err.Error(), "gap") {
		t.Fatalf("Open with missing middle segment = %v, want gap error", err)
	}
}

// writeSample creates a single-segment log holding sampleOps and
// returns (path, segment file name, clean byte size, record offsets).
func writeSample(t *testing.T, opts Options) (string, string, []int64) {
	t.Helper()
	l, path := openEmpty(t, t.TempDir(), opts)
	name := segmentName(path, opts.Epoch, 1)
	offsets := []int64{l.Size()}
	for _, op := range sampleOps() {
		apnd(t, l, op)
		offsets = append(offsets, l.Size())
	}
	l.Close()
	return path, name, offsets
}

func TestTornTailTruncated(t *testing.T) {
	opts := Options{Radius: 0.25, Metric: "euclidean"}
	path, name, offsets := writeSample(t, opts)
	want := sampleOps()
	clean := offsets[len(offsets)-1]
	// Every truncation point between the last two record boundaries
	// loses exactly the final record; the file must come back truncated
	// to the previous boundary.
	for cut := offsets[len(offsets)-2] + 1; cut < clean; cut++ {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(name, cut); err != nil {
			t.Fatal(err)
		}
		got := replay(t, path, opts)
		if !opsEqual(got, want[:len(want)-1]) {
			t.Fatalf("cut=%d: replay = %v, want %v", cut, got, want[:len(want)-1])
		}
		st, err := os.Stat(name)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() != offsets[len(offsets)-2] {
			t.Fatalf("cut=%d: torn tail not truncated: size %d, want %d", cut, st.Size(), offsets[len(offsets)-2])
		}
		if err := os.WriteFile(name, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestZeroedTailTruncated(t *testing.T) {
	opts := Options{Radius: 0.25, Metric: "euclidean"}
	path, name, offsets := writeSample(t, opts)
	// Preallocated-but-unwritten blocks read as zeroes; a zeroed frame
	// at the tail is torn, not corrupt.
	f, err := os.OpenFile(name, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	got := replay(t, path, opts)
	if !opsEqual(got, sampleOps()) {
		t.Fatalf("replay with zeroed tail = %v, want full ops", got)
	}
	st, _ := os.Stat(name)
	if st.Size() != offsets[len(offsets)-1] {
		t.Fatalf("zeroed tail not truncated: size %d, want %d", st.Size(), offsets[len(offsets)-1])
	}
}

func TestBitFlipNeverFabricates(t *testing.T) {
	opts := Options{Radius: 0.25, Metric: "euclidean"}
	path, name, offsets := writeSample(t, opts)
	want := sampleOps()
	data, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one bit in every byte of the segment — header, frames,
	// payloads. Each flip must either fail loudly or (for the few
	// positions a flip is indistinguishable from a torn tail, e.g. a
	// high bit of a length field) recover a strict prefix of the
	// original ops with the damage truncated away. What recovery must
	// never do is succeed with fabricated, reordered or altered ops.
	for off := int64(0); off < int64(len(data)); off++ {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0x40
		if err := os.WriteFile(name, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		l, got, err := Open(path, opts)
		if err != nil {
			continue // loud rejection: good
		}
		l.Close()
		if len(got) >= len(want) || !opsEqual(got, want[:len(got)]) {
			t.Fatalf("bit flip at %d: recovered %v, which is not a strict prefix of %v", off, got, want)
		}
		// Restore the original segment for the next position (recovery
		// may have truncated or recreated it).
		if err := os.WriteFile(name, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// The flips that matter most — CRC fields and payload bytes — must
	// reject, not truncate: spot-check the CRC word and a payload byte
	// of the first (interior) record.
	for _, off := range []int64{offsets[0] + 4, offsets[0] + 8, offsets[1] - 1} {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0x40
		if err := os.WriteFile(name, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := Open(path, opts); err == nil {
			t.Fatalf("bit flip at %d (CRC/payload of an interior record): Open succeeded", off)
		}
	}
}

func TestUnknownRecordKindFailsLoudly(t *testing.T) {
	opts := Options{Radius: 0.25, Metric: "euclidean"}
	path, name, _ := writeSample(t, opts)
	// Craft a checksummed frame with an unknown kind: valid CRC, so
	// only the kind check can reject it — and it must.
	payload := make([]byte, 9)
	payload[0] = 99
	frame := make([]byte, frameHeader+len(payload))
	binary.LittleEndian.PutUint32(frame, uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(payload, castagnoli))
	copy(frame[frameHeader:], payload)
	f, err := os.OpenFile(name, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(frame); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, _, err := Open(path, opts); err == nil || !strings.Contains(err.Error(), "unknown record kind") {
		t.Fatalf("Open = %v, want unknown-record-kind error", err)
	}
}

func TestCorruptLengthFailsLoudly(t *testing.T) {
	opts := Options{Radius: 0.25, Metric: "euclidean"}
	path, name, offsets := writeSample(t, opts)
	data, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(data[offsets[0]:], maxRecordLen+1)
	if err := os.WriteFile(name, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(path, opts); err == nil || !strings.Contains(err.Error(), "implausible record length") {
		t.Fatalf("Open = %v, want implausible-length error", err)
	}
}

func TestTornFinalHeaderDiscarded(t *testing.T) {
	opts := Options{Radius: 0.25, Metric: "euclidean"}
	path, _, _ := writeSample(t, opts)
	// Simulate a crash during the creation of the next segment: a
	// partial header. Open must discard it and keep the prior records.
	name2 := segmentName(path, 0, 2)
	if err := os.WriteFile(name2, []byte(magic+"trunc"), 0o644); err != nil {
		t.Fatal(err)
	}
	got := replay(t, path, opts)
	if !opsEqual(got, sampleOps()) {
		t.Fatalf("replay = %v, want full sample", got)
	}
	if _, err := os.Stat(name2); !os.IsNotExist(err) {
		t.Fatalf("torn header segment still present: %v", err)
	}
	// The surviving segment must be intact on disk too — a second
	// recovery sees the same records (guards against the append path
	// re-creating and truncating it).
	if got := replay(t, path, opts); !opsEqual(got, sampleOps()) {
		t.Fatalf("second replay = %v; the recovery wrote over the surviving segment", got)
	}
}

// TestRefusedLogLeftAsFound: Open runs every check before it changes a
// file. A log holding a stale-epoch segment, a torn tail, a trailing
// torn-header segment and an interior bit flip is refused with every
// file name and byte as found; without the flip the same directory is
// cleaned up and replayed.
func TestRefusedLogLeftAsFound(t *testing.T) {
	opts := Options{Radius: 0.25, Metric: "euclidean", Epoch: 1}
	ops := sampleOps()
	segment := func(epoch, seq uint64, ops ...Op) []byte {
		buf := encodeHeader(epoch, seq, opts.Radius, opts.Metric)
		for _, op := range ops {
			var err error
			if buf, err = encodeOp(buf, op); err != nil {
				t.Fatal(err)
			}
		}
		return buf
	}
	final := segment(1, 2, ops[2:]...)
	torn, err := encodeOp(append([]byte(nil), final...), Op{Kind: OpInsert, ID: 3, Point: []float64{5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	interior := segment(1, 1, ops[:2]...)
	headerLen := len(encodeHeader(1, 1, opts.Radius, opts.Metric))
	layout := func(interior []byte) (string, map[string]string) {
		dir := t.TempDir()
		path := filepath.Join(dir, "t.wal")
		for name, data := range map[string][]byte{
			segmentName(path, 0, 1): segment(0, 1, ops[:2]...),
			segmentName(path, 1, 1): interior,
			segmentName(path, 1, 2): torn[:len(torn)-3],
			segmentName(path, 1, 3): encodeHeader(1, 3, opts.Radius, opts.Metric)[:10],
		} {
			if err := os.WriteFile(name, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return path, readDir(t, dir)
	}

	flipped := append([]byte(nil), interior...)
	flipped[headerLen+frameHeader+1] ^= 0x40
	path, before := layout(flipped)
	if _, _, err := Open(path, opts); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open over an interior bit flip = %v, want ErrCorrupt", err)
	}
	if after := readDir(t, filepath.Dir(path)); !reflect.DeepEqual(after, before) {
		t.Fatalf("refused Open changed the log: before %d files, after %d", len(before), len(after))
	}

	path, _ = layout(interior)
	if got := replay(t, path, opts); !opsEqual(got, ops) {
		t.Fatalf("replay = %v, want %v", got, ops)
	}
	want := map[string]string{
		filepath.Base(segmentName(path, 1, 1)): string(interior),
		filepath.Base(segmentName(path, 1, 2)): string(final),
	}
	if got := readDir(t, filepath.Dir(path)); !reflect.DeepEqual(got, want) {
		t.Fatalf("cleaned log holds %d files, want the two current segments with the torn tail cut", len(got))
	}
}

// readDir maps every file name in dir to its bytes.
func readDir(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(data)
	}
	return out
}

func TestDescribe(t *testing.T) {
	opts := Options{Radius: 0.125, Metric: "chebyshev"}
	l, path := openEmpty(t, t.TempDir(), opts)
	apnd(t, l, sampleOps()...)
	if err := l.Rotate(1); err != nil {
		t.Fatal(err)
	}
	l.Close()
	info, err := DescribeFS(vfs.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Epoch != 1 || info.Radius != 0.125 || info.Metric != "chebyshev" {
		t.Fatalf("Describe = %+v", info)
	}
	if _, err := DescribeFS(vfs.OS, filepath.Join(t.TempDir(), "absent.wal")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("Describe(absent) = %v, want ErrNotExist", err)
	}
}
