// Package wal implements the append-only write-ahead log that makes the
// live-update path (disc.Updater) crash-safe: every acknowledged insert
// or delete is framed, checksummed and appended to a segment file before
// the acknowledgement, so a process that dies between checkpoints can
// replay the log over the last snapshot and recover the exact selection
// it had acknowledged.
//
// # Wire format
//
// A log is a sequence of segment files named <path>.<epoch>-<seq>
// (both zero-padded decimal). Each segment starts with a header:
//
//	[0:8)    magic "DISCWAL1" (the trailing 1 is the format version)
//	[8:16)   uint64 epoch   — checkpoint generation (see below)
//	[16:24)  uint64 seq     — segment sequence within the epoch, from 1
//	[24:32)  float64 radius — the maintained diversification radius
//	[32:36)  uint32 metric name length M
//	[36:36+M) metric name bytes
//	next 4   uint32 CRC-32C of every header byte before it
//
// Records follow immediately, each framed as
//
//	uint32 payload length L
//	uint32 CRC-32C of the payload
//	payload:
//	  byte  kind (1 = insert, 2 = delete)
//	  uint64 id — the op's id in the log id space (see disc.OpenUpdater)
//	  insert only: uint32 dim, dim × float64 coordinates
//
// Every multi-byte value is little-endian; floats are IEEE 754 bit
// patterns.
//
// # Epochs and checkpoints
//
// A checkpoint writes the full compacted state to a snapshot and then
// starts a fresh log: the epoch counter increments, a new segment
// (epoch+1, seq 1) is created, and all older segments are deleted. The
// snapshot records the epoch it begins (snap.Snapshot.WALEpoch), so
// recovery replays exactly the segments whose epoch matches the
// snapshot — segments from an older epoch are leftovers of a checkpoint
// that crashed between snapshot rename and log rotation; every op they
// hold is already in the snapshot, so Open deletes them. Segments from
// a future epoch cannot legitimately exist (the snapshot is renamed
// into place before the new segment is created) and are rejected as
// corruption.
//
// # Torn tails and corruption
//
// Crash recovery distinguishes two kinds of damage:
//
//   - A torn tail — the final segment ends mid-record because the
//     process died mid-append (or the record was never flushed). The
//     surviving prefix is replayed, the tail is physically truncated
//     away, and the log is reopened for appending. Only the op being
//     written (necessarily unacknowledged under SyncAlways) is lost.
//   - Interior corruption — a complete frame whose checksum does not
//     match, an implausible length, an unknown record kind, or damage
//     in any segment other than the final one. These cannot result from
//     a crash mid-append; Open fails loudly rather than silently
//     dropping acknowledged operations.
//
// One ambiguity is fundamental: damage to a length field that makes the
// final frame appear to run past end-of-file is byte-for-byte
// indistinguishable from a genuine torn append, and is truncated as
// one. Recovery therefore guarantees that what it returns is a prefix
// of what was logged — never fabricated or reordered records — and the
// tamper tests assert exactly that.
//
// A Log is not safe for concurrent use; disc.Updater serialises access
// under its mutation lock.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"github.com/discdiversity/disc/internal/telemetry"
	"github.com/discdiversity/disc/internal/vfs"
)

const (
	magic = "DISCWAL1"

	// fixedHeader is the byte length of the header before the metric
	// name and trailing CRC.
	fixedHeader = 36

	// frameHeader is the per-record frame: length + payload CRC.
	frameHeader = 8

	// maxRecordLen bounds a single record payload; anything larger in a
	// length field is corruption, not data.
	maxRecordLen = 1 << 26

	// DefaultSegmentBytes is the rotation threshold when Options leaves
	// SegmentBytes zero.
	DefaultSegmentBytes = 64 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt marks damage recovery must not repair silently: interior
// checksum mismatches, impossible epochs, sequence gaps, unparseable
// segment names — anything that cannot be explained by a crash
// mid-append. Test with errors.Is; transient I/O errors (EIO on a
// read, ENOSPC on a write) deliberately do NOT match, which is how the
// dataset manager separates "quarantine" from "retry with backoff".
var ErrCorrupt = errors.New("unrecoverable corruption")

// corruptf builds an ErrCorrupt-classified error with the wal: prefix.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("wal: %s (%w)", fmt.Sprintf(format, args...), ErrCorrupt)
}

// SyncMode selects the fsync policy applied to acknowledged appends.
type SyncMode int

const (
	// SyncAlways fsyncs after every append: an acknowledged op survives
	// any crash, at one fsync per op.
	SyncAlways SyncMode = iota
	// SyncBatched fsyncs when Options.Interval has elapsed since the
	// last sync: a crash loses at most the ops acknowledged in the last
	// interval.
	SyncBatched
	// SyncNone never fsyncs on append (the OS flushes when it pleases):
	// a process crash loses nothing — the kernel holds the writes — but
	// a machine crash can lose any op since the last checkpoint.
	SyncNone
)

// String implements fmt.Stringer ("always", "interval", "none" — the
// names the discserve -fsync flag accepts).
func (m SyncMode) String() string {
	switch m {
	case SyncAlways:
		return "always"
	case SyncBatched:
		return "interval"
	case SyncNone:
		return "none"
	default:
		return fmt.Sprintf("sync-mode(%d)", int(m))
	}
}

// Options configures Open.
type Options struct {
	// Epoch is the checkpoint generation to recover and append under —
	// the WALEpoch of the snapshot the log extends (0 when no snapshot
	// exists yet).
	Epoch uint64
	// Radius and Metric identify the maintained state; they are written
	// into every segment header and validated against existing segments
	// on Open, so a log can never silently extend state it does not
	// describe.
	Radius float64
	Metric string
	// Sync is the fsync policy (default SyncAlways); Interval is the
	// batching window for SyncBatched (default 100ms).
	Sync     SyncMode
	Interval time.Duration
	// SegmentBytes rotates to a fresh segment once the current one
	// exceeds it (default DefaultSegmentBytes). Records are never split.
	SegmentBytes int64
	// FS, when non-nil, replaces every filesystem call the log makes —
	// listing, reading and truncating segments, removing rotated ones,
	// syncing directories, and opening the append file. The
	// fault-injection suites pass a faultio.DirFS or faultio.CrashFS
	// here; nil means the real filesystem (vfs.OS).
	FS vfs.FS
}

func (o *Options) fs() vfs.FS {
	if o.FS != nil {
		return o.FS
	}
	return vfs.OS
}

func (o *Options) segmentBytes() int64 {
	if o.SegmentBytes <= 0 {
		return DefaultSegmentBytes
	}
	return o.SegmentBytes
}

func (o *Options) interval() time.Duration {
	if o.Interval <= 0 {
		return 100 * time.Millisecond
	}
	return o.Interval
}

// OpKind discriminates log records.
type OpKind uint8

const (
	// OpInsert records an insert: the assigned log id and the point.
	OpInsert OpKind = 1
	// OpDelete records a delete of a log id.
	OpDelete OpKind = 2
)

// Op is one recovered (or to-be-appended) operation.
type Op struct {
	Kind  OpKind
	ID    int64
	Point []float64
}

// Info describes an existing log without replaying it (see DescribeFS).
type Info struct {
	// Epoch is the newest epoch any segment carries.
	Epoch  uint64
	Radius float64
	Metric string
	// Segments counts the segment files present (all epochs).
	Segments int
}

// Log is an open write-ahead log positioned after the last recovered
// record. Create one with Open.
type Log struct {
	path string
	opts Options

	f        vfs.File
	name     string
	size     int64
	epoch    uint64
	seq      uint64
	lastSync time.Time
	buf      []byte
	broken   error
}

// segment is one parsed segment file name.
type segment struct {
	name  string
	epoch uint64
	seq   uint64
}

// segmentName renders the file name of (epoch, seq) under the log path.
func segmentName(path string, epoch, seq uint64) string {
	return fmt.Sprintf("%s.%08d-%08d", path, epoch, seq)
}

// listSegments parses every segment file of path, sorted by (epoch,
// seq). File names carrying the path prefix that do not parse are
// corruption — a damaged name must not silently hide its records.
func listSegments(fsys vfs.FS, path string) ([]segment, error) {
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("wal: %w", err)
	}
	var segs []segment
	prefix := base + "."
	for _, e := range entries {
		if e.IsDir() || !strings.HasPrefix(e.Name(), prefix) {
			continue
		}
		var epoch, seq uint64
		suffix := e.Name()[len(prefix):]
		if _, err := fmt.Sscanf(suffix, "%d-%d", &epoch, &seq); err != nil || len(suffix) != 17 {
			return nil, corruptf("unrecognised segment file name %q", e.Name())
		}
		segs = append(segs, segment{name: filepath.Join(dir, e.Name()), epoch: epoch, seq: seq})
	}
	sort.Slice(segs, func(i, j int) bool {
		if segs[i].epoch != segs[j].epoch {
			return segs[i].epoch < segs[j].epoch
		}
		return segs[i].seq < segs[j].seq
	})
	return segs, nil
}

// header is a parsed segment header.
type header struct {
	epoch  uint64
	seq    uint64
	radius float64
	metric string
	// size is the header's byte length (records start here).
	size int
}

// parseHeader decodes and checksums a segment header. A file too short
// to hold the full header returns errTornHeader — distinguishable from
// corruption because a crash during segment creation legitimately
// leaves a prefix.
var errTornHeader = fmt.Errorf("wal: torn segment header")

func parseHeader(data []byte) (header, error) {
	var h header
	if len(data) < fixedHeader {
		return h, errTornHeader
	}
	if string(data[:8]) != magic {
		return h, corruptf("bad magic (not a wal segment, or an unsupported version)")
	}
	h.epoch = binary.LittleEndian.Uint64(data[8:])
	h.seq = binary.LittleEndian.Uint64(data[16:])
	h.radius = math.Float64frombits(binary.LittleEndian.Uint64(data[24:]))
	mlen := int(binary.LittleEndian.Uint32(data[32:]))
	if mlen < 0 || mlen > 1<<16 {
		return h, corruptf("implausible metric name length %d", mlen)
	}
	if len(data) < fixedHeader+mlen+4 {
		return h, errTornHeader
	}
	h.metric = string(data[fixedHeader : fixedHeader+mlen])
	h.size = fixedHeader + mlen + 4
	crc := binary.LittleEndian.Uint32(data[fixedHeader+mlen:])
	if crc32.Checksum(data[:fixedHeader+mlen], castagnoli) != crc {
		return h, corruptf("segment header checksum mismatch")
	}
	return h, nil
}

// encodeHeader renders a segment header.
func encodeHeader(epoch, seq uint64, radius float64, metric string) []byte {
	buf := make([]byte, fixedHeader+len(metric)+4)
	copy(buf, magic)
	binary.LittleEndian.PutUint64(buf[8:], epoch)
	binary.LittleEndian.PutUint64(buf[16:], seq)
	binary.LittleEndian.PutUint64(buf[24:], math.Float64bits(radius))
	binary.LittleEndian.PutUint32(buf[32:], uint32(len(metric)))
	copy(buf[fixedHeader:], metric)
	binary.LittleEndian.PutUint32(buf[fixedHeader+len(metric):], crc32.Checksum(buf[:fixedHeader+len(metric)], castagnoli))
	return buf
}

// parseRecords replays the records of one segment. final marks the last
// segment of the epoch — the only place a torn tail is legal. It
// returns the recovered ops and the byte offset of the clean end; when
// that offset is short of len(data), the caller truncates the file.
func parseRecords(data []byte, start int, final bool, name string) ([]Op, int, error) {
	var ops []Op
	off := start
	for {
		rem := len(data) - off
		if rem == 0 {
			return ops, off, nil
		}
		torn := func(what string) ([]Op, int, error) {
			if final {
				return ops, off, nil
			}
			return nil, 0, corruptf("%s: %s in a non-final segment (acknowledged records lost)", name, what)
		}
		if rem < frameHeader {
			return torn("torn record frame")
		}
		length := int(binary.LittleEndian.Uint32(data[off:]))
		if length == 0 {
			// A zeroed tail: blocks allocated but never persisted
			// (possible under SyncNone). Only legal as a tail.
			return torn("zeroed record frame")
		}
		if length > maxRecordLen {
			return nil, 0, corruptf("%s: implausible record length %d at offset %d", name, length, off)
		}
		if rem-frameHeader < length {
			return torn("torn record payload")
		}
		payload := data[off+frameHeader : off+frameHeader+length]
		crc := binary.LittleEndian.Uint32(data[off+4:])
		if crc32.Checksum(payload, castagnoli) != crc {
			return nil, 0, corruptf("%s: record checksum mismatch at offset %d", name, off)
		}
		op, err := decodeOp(payload)
		if err != nil {
			return nil, 0, corruptf("%s: offset %d: %v", name, off, err)
		}
		ops = append(ops, op)
		off += frameHeader + length
	}
}

// decodeOp parses one checksummed record payload.
func decodeOp(p []byte) (Op, error) {
	if len(p) < 9 {
		return Op{}, fmt.Errorf("record payload of %d bytes is below the 9-byte minimum", len(p))
	}
	op := Op{Kind: OpKind(p[0]), ID: int64(binary.LittleEndian.Uint64(p[1:]))}
	switch op.Kind {
	case OpInsert:
		if len(p) < 13 {
			return Op{}, fmt.Errorf("insert record payload of %d bytes is truncated", len(p))
		}
		dim := int(binary.LittleEndian.Uint32(p[9:]))
		if dim <= 0 || dim > 1<<20 {
			return Op{}, fmt.Errorf("insert record with implausible dimensionality %d", dim)
		}
		if len(p) != 13+8*dim {
			return Op{}, fmt.Errorf("insert record payload of %d bytes does not match dimensionality %d", len(p), dim)
		}
		op.Point = make([]float64, dim)
		for i := range op.Point {
			op.Point[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[13+8*i:]))
		}
	case OpDelete:
		if len(p) != 9 {
			return Op{}, fmt.Errorf("delete record payload of %d bytes, want 9", len(p))
		}
	default:
		return Op{}, fmt.Errorf("unknown record kind %d", p[0])
	}
	return op, nil
}

// encodeOp appends op's framed record to buf and returns the extended
// slice.
func encodeOp(buf []byte, op Op) ([]byte, error) {
	var plen int
	switch op.Kind {
	case OpInsert:
		if len(op.Point) == 0 {
			return nil, fmt.Errorf("wal: insert op without a point")
		}
		plen = 13 + 8*len(op.Point)
	case OpDelete:
		plen = 9
	default:
		return nil, fmt.Errorf("wal: unknown op kind %d", op.Kind)
	}
	if op.ID < 0 {
		return nil, fmt.Errorf("wal: negative op id %d", op.ID)
	}
	start := len(buf)
	buf = append(buf, make([]byte, frameHeader+plen)...)
	p := buf[start+frameHeader:]
	p[0] = byte(op.Kind)
	binary.LittleEndian.PutUint64(p[1:], uint64(op.ID))
	if op.Kind == OpInsert {
		binary.LittleEndian.PutUint32(p[9:], uint32(len(op.Point)))
		for i, x := range op.Point {
			binary.LittleEndian.PutUint64(p[13+8*i:], math.Float64bits(x))
		}
	}
	binary.LittleEndian.PutUint32(buf[start:], uint32(plen))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.Checksum(p, castagnoli))
	return buf, nil
}

// DescribeFS reads the segment headers of an existing log through fsys
// without replaying it: the newest epoch present plus the radius and
// metric the log maintains. It returns os.ErrNotExist (wrapped) when no
// segment exists — the caller's signal to treat the state as absent.
func DescribeFS(fsys vfs.FS, path string) (*Info, error) {
	segs, err := listSegments(fsys, path)
	if err != nil {
		return nil, err
	}
	if len(segs) == 0 {
		return nil, fmt.Errorf("wal: %s: %w", path, os.ErrNotExist)
	}
	// The newest segment describes the current state; its header is
	// validated like Open would.
	last := segs[len(segs)-1]
	data, err := fsys.ReadFile(last.name)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	h, err := parseHeader(data)
	if err != nil {
		if err == errTornHeader && len(segs) > 1 {
			// A torn final header is a crashed segment creation; the
			// previous segment still describes the state.
			if data, err = fsys.ReadFile(segs[len(segs)-2].name); err != nil {
				return nil, fmt.Errorf("wal: %w", err)
			}
			if h, err = parseHeader(data); err != nil {
				return nil, err
			}
		} else {
			return nil, err
		}
	}
	return &Info{Epoch: h.epoch, Radius: h.radius, Metric: h.metric, Segments: len(segs)}, nil
}

// Open recovers the log at path for epoch opts.Epoch and opens it for
// appending, returning the recovered operations in append order.
// Segments from older epochs (leftovers of a checkpoint that crashed
// before rotation finished — their ops are all in the snapshot) are
// deleted; segments from a newer epoch are corruption. A torn tail in
// the final segment is truncated away; any other damage fails loudly.
// Every check runs before any file changes, so a refused log is left
// byte for byte as found. When no current-epoch segment exists, a
// fresh one is created.
func Open(path string, opts Options) (*Log, []Op, error) {
	defer telemetry.Since(metReplay, time.Now())
	fsys := opts.fs()
	segs, err := listSegments(fsys, path)
	if err != nil {
		return nil, nil, err
	}
	var drop, current []segment
	for _, sg := range segs {
		switch {
		case sg.epoch < opts.Epoch:
			drop = append(drop, sg)
		case sg.epoch > opts.Epoch:
			return nil, nil, corruptf("segment %s is from epoch %d, but the snapshot is at epoch %d — refusing to guess which is authoritative", sg.name, sg.epoch, opts.Epoch)
		default:
			current = append(current, sg)
		}
	}

	// Trailing segments whose header never became complete are crashed
	// segment creations: short (possibly empty) files that hold no
	// records. Only trailing segments qualify — the roll protocol syncs
	// a segment before creating its successor, so a torn header with a
	// healthy successor is corruption, which the parse loop rejects.
	// The final complete segment's bytes are kept for that loop.
	var finalData []byte
	torn := len(current)
	for torn > 0 {
		data, err := fsys.ReadFile(current[torn-1].name)
		if err != nil {
			return nil, nil, fmt.Errorf("wal: %w", err)
		}
		if _, err := parseHeader(data); err != errTornHeader {
			finalData = data
			break
		}
		torn--
	}
	drop = append(drop, current[torn:]...)
	current = current[:torn]

	l := &Log{path: path, opts: opts, epoch: opts.Epoch}
	var ops []Op
	for i, sg := range current {
		if want := current[0].seq + uint64(i); sg.seq != want {
			return nil, nil, corruptf("segment sequence gap: have %s, want seq %d (acknowledged records lost)", sg.name, want)
		}
		final := i == len(current)-1
		data := finalData
		if !final {
			if data, err = fsys.ReadFile(sg.name); err != nil {
				return nil, nil, fmt.Errorf("wal: %w", err)
			}
		}
		h, err := parseHeader(data)
		if err != nil {
			return nil, nil, fmt.Errorf("wal: %s: %w", sg.name, err)
		}
		if h.epoch != sg.epoch || h.seq != sg.seq {
			return nil, nil, corruptf("%s: header says epoch %d seq %d", sg.name, h.epoch, h.seq)
		}
		if h.metric != opts.Metric {
			return nil, nil, corruptf("%s was written for metric %q, not %q", sg.name, h.metric, opts.Metric)
		}
		if h.radius != opts.Radius {
			return nil, nil, corruptf("%s was written for radius %g, not %g", sg.name, h.radius, opts.Radius)
		}
		segOps, end, err := parseRecords(data, h.size, final, sg.name)
		if err != nil {
			return nil, nil, err
		}
		ops = append(ops, segOps...)
		if final {
			l.name, l.seq, l.size = sg.name, sg.seq, int64(end)
		}
	}

	// The log is sound: drop stale and torn-header segments, and cut a
	// torn tail so the next append continues from the clean end.
	for _, sg := range drop {
		if err := fsys.Remove(sg.name); err != nil {
			return nil, nil, fmt.Errorf("wal: removing segment: %w", err)
		}
	}
	if len(drop) > 0 {
		if err := fsys.SyncDir(filepath.Dir(path)); err != nil {
			return nil, nil, fmt.Errorf("wal: %w", err)
		}
	}
	if l.name != "" && l.size < int64(len(finalData)) {
		if err := fsys.Truncate(l.name, l.size); err != nil {
			return nil, nil, fmt.Errorf("wal: truncating torn tail: %w", err)
		}
	}

	if l.name == "" {
		if err := l.createSegment(1); err != nil {
			return nil, nil, err
		}
	} else {
		f, err := opts.fs().OpenAppend(l.name, false)
		if err != nil {
			return nil, nil, fmt.Errorf("wal: %w", err)
		}
		l.f = f
	}
	l.lastSync = time.Now()
	metReplayed.Add(uint64(len(ops)))
	return l, ops, nil
}

// createSegment makes (l.epoch, seq) the active segment: header written
// and synced, directory entry synced.
func (l *Log) createSegment(seq uint64) error {
	name := segmentName(l.path, l.epoch, seq)
	f, err := l.opts.fs().OpenAppend(name, true)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	hdr := encodeHeader(l.epoch, seq, l.opts.Radius, l.opts.Metric)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	if err := l.opts.fs().SyncDir(filepath.Dir(name)); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	l.f, l.name, l.seq, l.size = f, name, seq, int64(len(hdr))
	return nil
}

// Append frames, checksums and writes op, applying the configured fsync
// policy before acknowledging. Any write or sync failure poisons the
// log — the file may hold a partial frame, so further appends would
// corrupt it; recovery treats the partial frame as a torn tail.
func (l *Log) Append(op Op) error {
	defer telemetry.Since(metAppend, time.Now())
	if l.broken != nil {
		return fmt.Errorf("wal: log is poisoned by an earlier failure: %w", l.broken)
	}
	metAppends.Inc()
	buf, err := encodeOp(l.buf[:0], op)
	if err != nil {
		return err
	}
	l.buf = buf
	if l.size+int64(len(buf)) > l.opts.segmentBytes() && l.size > 0 {
		if err := l.rollSegment(); err != nil {
			return err
		}
	}
	n, err := l.f.Write(buf)
	if err == nil && n < len(buf) {
		err = io.ErrShortWrite
	}
	if err != nil {
		l.broken = err
		return fmt.Errorf("wal: append: %w", err)
	}
	l.size += int64(len(buf))
	switch l.opts.Sync {
	case SyncAlways:
		if err := l.fsync(); err != nil {
			l.broken = err
			return fmt.Errorf("wal: sync: %w", err)
		}
		l.lastSync = time.Now()
	case SyncBatched:
		if time.Since(l.lastSync) >= l.opts.interval() {
			if err := l.fsync(); err != nil {
				l.broken = err
				return fmt.Errorf("wal: sync: %w", err)
			}
			l.lastSync = time.Now()
		}
	}
	return nil
}

// rollSegment closes the active segment and starts the next sequence
// number in the same epoch.
func (l *Log) rollSegment() error {
	if err := l.fsync(); err != nil {
		l.broken = err
		return fmt.Errorf("wal: sync before roll: %w", err)
	}
	if err := l.f.Close(); err != nil {
		l.broken = err
		return fmt.Errorf("wal: close before roll: %w", err)
	}
	if err := l.createSegment(l.seq + 1); err != nil {
		l.broken = err
		return err
	}
	return nil
}

// Sync forces an fsync of the active segment regardless of policy.
func (l *Log) Sync() error {
	if l.broken != nil {
		return fmt.Errorf("wal: log is poisoned by an earlier failure: %w", l.broken)
	}
	if err := l.fsync(); err != nil {
		l.broken = err
		return fmt.Errorf("wal: sync: %w", err)
	}
	l.lastSync = time.Now()
	return nil
}

// Rotate completes a checkpoint: it opens a fresh segment (newEpoch,
// seq 1) and deletes every older segment. The caller must already have
// renamed the epoch-stamped snapshot into place — crash-ordering
// correctness depends on snapshot-then-rotate. Failure poisons the log:
// the snapshot on disk is then newer than the log's epoch, and
// appending more records to the old epoch would lose them at the next
// recovery.
func (l *Log) Rotate(newEpoch uint64) error {
	if l.broken != nil {
		return fmt.Errorf("wal: log is poisoned by an earlier failure: %w", l.broken)
	}
	if newEpoch <= l.epoch {
		return fmt.Errorf("wal: rotate to epoch %d from %d (epochs must advance)", newEpoch, l.epoch)
	}
	if err := l.fsync(); err != nil {
		l.broken = err
		return fmt.Errorf("wal: sync before rotate: %w", err)
	}
	if err := l.f.Close(); err != nil {
		l.broken = err
		return fmt.Errorf("wal: close before rotate: %w", err)
	}
	oldEpoch := l.epoch
	l.epoch = newEpoch
	if err := l.createSegment(1); err != nil {
		l.broken = err
		return err
	}
	// Old segments go last: until the new segment is durable they are
	// harmless (recovery for the new snapshot epoch ignores them), and
	// removing them first would risk a window with no log at all.
	fsys := l.opts.fs()
	segs, err := listSegments(fsys, l.path)
	if err != nil {
		l.broken = err
		return err
	}
	for _, sg := range segs {
		if sg.epoch <= oldEpoch {
			if err := fsys.Remove(sg.name); err != nil {
				l.broken = err
				return fmt.Errorf("wal: removing rotated segment: %w", err)
			}
		}
	}
	if err := fsys.SyncDir(filepath.Dir(l.path)); err != nil {
		l.broken = err
		return fmt.Errorf("wal: %w", err)
	}
	l.lastSync = time.Now()
	metRotations.Inc()
	return nil
}

// Epoch returns the epoch the log is appending under.
func (l *Log) Epoch() uint64 { return l.epoch }

// Broken returns the error that poisoned the log, or nil while it is
// healthy. A poisoned log refuses every further append; the owner
// should close it and re-open from disk (recovery truncates the
// possibly-torn tail back to the acknowledged prefix).
func (l *Log) Broken() error { return l.broken }

// Path returns the log's path prefix (segment files append .epoch-seq).
func (l *Log) Path() string { return l.path }

// Size returns the byte size of the active segment.
func (l *Log) Size() int64 { return l.size }

// Close syncs and closes the active segment. The log cannot be used
// afterwards.
func (l *Log) Close() error {
	if l.f == nil {
		return nil
	}
	var err error
	if l.broken == nil {
		err = l.fsync()
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	if err != nil {
		return fmt.Errorf("wal: close: %w", err)
	}
	return nil
}
