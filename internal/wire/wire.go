// Package wire is the versioned binary encoding for everything the
// distributed sweep fleet ships between processes and commits to its
// write-ahead log: device checkpoints (kernel.Checkpoint), shard
// descriptors and shard results (aggregator fold states, check
// outcomes).
//
// Design rules:
//
//   - Every message starts with the 4-byte header 'E' 'W' version kind.
//     Version bumps whenever any message layout changes; decoders reject
//     versions they do not know instead of guessing.
//   - Every shard task and shard result (sweep and subtree, kinds 2, 4,
//     8 and 9) opens its body with the same prefix: the job as a uvarint,
//     then the shard as a varint. PeekShard relies on it, so a new shard
//     or result kind must keep it.
//   - Integers are varints (zigzag for signed), strings and word slices
//     are length-prefixed — no reflection, no struct tags, no JSON.
//     Encoders are append-based (zero-alloc when the caller recycles
//     buffers); decoders never panic on any input (the fuzz targets pin
//     this) and bound every length they read by the bytes that remain,
//     so hostile lengths cannot OOM the process.
//   - Transport and log framing is the same for both consumers: a
//     little-endian u32 payload length, a u32 IEEE CRC of the payload,
//     then the payload. A frame is committed if and only if it is fully
//     present with a matching CRC — the WAL's torn-tail truncation and
//     the TCP stream's corruption detection both fall out of that rule.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Version is the current encoding version, stamped into every message
// header. Version 2 added the freshness record to run encodings and the
// nested-failure fields (depth, per-depth stats, divergence schedules)
// to check shard/report encodings. Version 3 made the subtree messages
// the only check work unit: a unit's root may be boot, every unit carries
// a cut range, and the cut-range check shard/result kinds were retired.
// Version 4 dropped the memory access counters from each checkpoint bank
// and the per-site I/O counts from run encodings. Retiring kinds 6 and 7
// changed no remaining message, so it kept version 4. Version 5 carries a
// subtree shard's check parameters through AppendCheckConfig and drops
// its off-time, which a shipped check always leaves at the default.
// Version 6 drops each checkpoint bank's high-water mark: the bank's
// prefix now ends at the mark, so its length carries it. Version 7 drops
// the checkpoint's supply state (its presence byte, name and fields):
// whoever restores a checkpoint positions the supply. Version 8 moves the
// runtime half into the checkpoint message, so a unit root is that one
// message, and drops the runtime's copy of the task pointer: a boot
// re-reads the FRAM word.
const Version = 8

// Kind tags a message's type in its header.
type Kind uint8

// The message kinds.
const (
	KindInvalid     Kind = 0
	KindCheckpoint  Kind = 1
	KindSweepShard  Kind = 2
	KindSweepResult Kind = 4
	// KindSubtreeShard and KindSubtreeResult carry the checker's work
	// unit: a group of units to grow, and the exploration they produced.
	// (Kinds 3 and 5, the version-2 cut-range check shard and result, and
	// kinds 6 and 7, the merged summary and report, are retired and never
	// reused.)
	KindSubtreeShard  Kind = 8
	KindSubtreeResult Kind = 9
)

// String names the kind for diagnostics.
func (k Kind) String() string {
	switch k {
	case KindCheckpoint:
		return "checkpoint"
	case KindSweepShard:
		return "sweep-shard"
	case KindSweepResult:
		return "sweep-result"
	case KindSubtreeShard:
		return "subtree-shard"
	case KindSubtreeResult:
		return "subtree-result"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// The two header magic bytes ("EW": EaseIO wire).
const (
	magic0 = 'E'
	magic1 = 'W'
)

// headerSize is the fixed message header: magic0 magic1 version kind.
const headerSize = 4

// appendHeader starts a message of the given kind.
func appendHeader(b []byte, k Kind) []byte {
	return append(b, magic0, magic1, Version, byte(k))
}

// PeekKind returns the message kind of an encoded buffer without
// decoding the body (KindInvalid if the header is malformed).
func PeekKind(b []byte) Kind {
	if len(b) < headerSize || b[0] != magic0 || b[1] != magic1 {
		return KindInvalid
	}
	return Kind(b[3])
}

// PeekShard returns the job and shard IDs of a shard task or result
// (KindSweepShard, KindSweepResult, KindSubtreeShard, KindSubtreeResult)
// without decoding the rest of the message: all four kinds open their
// body with the job as a uvarint and the shard as a varint.
func PeekShard(b []byte) (job uint64, shard int, err error) {
	d := &dec{b: b}
	switch k := PeekKind(b); k {
	case KindSweepShard, KindSweepResult, KindSubtreeShard, KindSubtreeResult:
		d.header(k)
	default:
		return 0, 0, fmt.Errorf("wire: message is %v, want a shard task or result", k)
	}
	job, shard = d.uvarint(), int(d.varint())
	return job, shard, d.err
}

// dec is a bounds-checked cursor over an encoded message. The first
// failed read latches err; subsequent reads return zero values, so
// decode functions can read a whole message and check the error once.
type dec struct {
	b   []byte
	off int
	err error
}

func (d *dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("wire: "+format, args...)
	}
}

// remaining returns the bytes not yet consumed.
func (d *dec) remaining() int { return len(d.b) - d.off }

// header validates the message header and returns its kind.
func (d *dec) header(want Kind) {
	if d.remaining() < headerSize {
		d.fail("short header: %d bytes", d.remaining())
		return
	}
	h := d.b[d.off:]
	if h[0] != magic0 || h[1] != magic1 {
		d.fail("bad magic %q", h[:2])
		return
	}
	if h[2] != Version {
		d.fail("unsupported version %d (have %d)", h[2], Version)
		return
	}
	if Kind(h[3]) != want {
		d.fail("message kind %v, want %v", Kind(h[3]), want)
		return
	}
	d.off += headerSize
}

func (d *dec) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.remaining() < 1 {
		d.fail("truncated byte")
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *dec) bool() bool { return d.byte() != 0 }

func (d *dec) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail("bad uvarint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *dec) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.fail("bad varint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

// count reads a length prefix for elements of at least elemSize bytes
// each, rejecting counts the remaining input cannot possibly hold (the
// anti-OOM bound for all slice allocations).
func (d *dec) count(elemSize int) int {
	n := d.uvarint()
	if d.err != nil {
		return 0
	}
	if n > uint64(d.remaining()/elemSize) {
		d.fail("length %d exceeds %d remaining bytes", n, d.remaining())
		return 0
	}
	return int(n)
}

func (d *dec) string() string {
	n := d.count(1)
	if d.err != nil {
		return ""
	}
	s := string(d.b[d.off : d.off+n])
	d.off += n
	return s
}

func (d *dec) words() []uint16 {
	n := d.count(2)
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]uint16, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint16(d.b[d.off:])
		d.off += 2
	}
	return out
}

// Append primitives (the encoder side).

func appendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

func appendVarint(b []byte, v int64) []byte { return binary.AppendVarint(b, v) }

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendString(b []byte, s string) []byte {
	b = appendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// appendWords appends the words alone; a caller writes their count
// first (dec.words reads both).
func appendWords(b []byte, w []uint16) []byte {
	for _, v := range w {
		b = binary.LittleEndian.AppendUint16(b, v)
	}
	return b
}

// Framing.

// ErrCorruptFrame reports a frame whose payload does not match its CRC
// or whose length field is implausible.
var ErrCorruptFrame = errors.New("wire: corrupt frame")

// ErrTornFrame reports a frame cut off mid-write: the stream ended
// after the frame started but before its declared payload arrived. A
// WAL replay treats a torn (or corrupt) tail as the crash point and
// truncates; a transport treats it as a fatal stream error.
var ErrTornFrame = errors.New("wire: torn frame")

// MaxFramePayload bounds a single frame. Checkpoints of the modeled
// 256 KB-FRAM device fit in well under 1 MB; 64 MB leaves room for
// batched messages while keeping a corrupt length field from
// allocating gigabytes.
const MaxFramePayload = 64 << 20

// FrameOverhead is the fixed per-frame header size (length + CRC).
const FrameOverhead = 8

// AppendFrame appends payload framed as u32 length, u32 IEEE CRC,
// payload.
func AppendFrame(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
	return append(dst, payload...)
}

// ReadFrame reads one frame from r. It returns io.EOF only at a clean
// frame boundary with zero bytes read; a stream that ends inside a
// frame yields ErrTornFrame, and a frame whose CRC or length is wrong
// yields ErrCorruptFrame.
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [FrameOverhead]byte
	if _, err := io.ReadFull(r, hdr[:1]); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("%w: %v", ErrTornFrame, err)
	}
	if _, err := io.ReadFull(r, hdr[1:]); err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrTornFrame, err)
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	if n > MaxFramePayload {
		return nil, fmt.Errorf("%w: payload length %d exceeds %d", ErrCorruptFrame, n, MaxFramePayload)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("%w: payload: %v", ErrTornFrame, err)
	}
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(hdr[4:]) {
		return nil, fmt.Errorf("%w: crc mismatch", ErrCorruptFrame)
	}
	return payload, nil
}

// WriteFrame writes payload as one frame to w.
func WriteFrame(w io.Writer, payload []byte) error {
	buf := make([]byte, 0, FrameOverhead+len(payload))
	_, err := w.Write(AppendFrame(buf, payload))
	return err
}
