package snap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"runtime"
	"testing"
)

// FuzzDecode: Decode must never panic, and any input either fails with
// an error matching ErrCorrupt or decodes into a snapshot that Write
// accepts and re-encodes canonically — decoding that encoding and
// writing it again reproduces it byte for byte. (The input itself may
// differ from its encoding only where the format leaves the writer free:
// section order, padding bytes, skipped unknown kinds, and a retired
// occupancy section re-encoded as its radius.) Decode must
// also allocate no more than a small multiple of the input, however
// large the counts the input declares. Each input is also decoded with
// its checksums recomputed, so mutations reach the section decoders
// instead of stopping at a CRC mismatch. The committed corpus under
// testdata/fuzz/FuzzDecode holds Write's output — dataset-only,
// labels-only, float32-cosine-graph (id-ordered rows and the squared
// norms Write then stored), gridradius (a graph joined at 0.5 over a
// grid bucketed at 0), and graph-dist-order (a static graph with rows
// by (distance, id), as Write now stores them) — plus three files
// written while Write still emitted the grid occupancy (kind 3, now
// retired), which the reader must keep accepting: walepoch (a durable
// checkpoint),
// grid-retired (the retired grid backend's meta index "grid" with an
// occupancy and no graph), and graph-components-labels (with the
// retired components section, kind 5, too).
func FuzzDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecode(t, data)
		checkDecode(t, resealed(data))
	})
}

func checkDecode(t *testing.T, data []byte) {
	t.Helper()
	// A fresh allocation is 8-aligned, as a file read is, so Decode
	// aliases the arrays instead of copying them.
	buf := append([]byte(nil), data...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s, err := Decode(buf)
	runtime.ReadMemStats(&after)
	if err != nil {
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("decode error does not match ErrCorrupt: %v", err)
		}
		return
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > uint64(2*len(data))+64<<10 {
		t.Fatalf("decoding %d bytes allocated %d", len(data), alloc)
	}
	var first bytes.Buffer
	if err := Write(&first, s); err != nil {
		t.Fatalf("decoded snapshot does not re-encode: %v", err)
	}
	s2, err := Decode(first.Bytes())
	if err != nil {
		t.Fatalf("re-encoded snapshot does not decode: %v", err)
	}
	var second bytes.Buffer
	if err := Write(&second, s2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("re-encoding is not stable (%d vs %d bytes)", first.Len(), second.Len())
	}
}

// resealed returns a copy of data with the checksum of every in-bounds
// section and of the section table recomputed.
func resealed(data []byte) []byte {
	out := append([]byte(nil), data...)
	if len(out) < headerSize {
		return out
	}
	nsec := int(binary.LittleEndian.Uint32(out[12:]))
	if nsec < 0 || nsec > (len(out)-headerSize)/entrySize {
		return out
	}
	for i := 0; i < nsec; i++ {
		entry := headerSize + entrySize*i
		off, length := binary.LittleEndian.Uint64(out[entry+8:]), binary.LittleEndian.Uint64(out[entry+16:])
		if off <= uint64(len(out)) && length <= uint64(len(out))-off {
			binary.LittleEndian.PutUint32(out[entry+4:], crc32.Checksum(out[off:off+length], castagnoli))
		}
	}
	retable(out)
	return out
}
