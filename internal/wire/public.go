// The exported encoding primitives. The fleet's write-ahead log defines
// record layouts of its own (job records, shard transitions) on top of
// the same varint/string/bool vocabulary the fixed messages use; these
// wrappers expose that vocabulary without opening up the internals, along
// with the one codec of a check's parameters.

package wire

import "easeio/internal/check"

// AppendCheckConfig appends the check parameters a fleet job carries:
// Seed, Failures, Exhaustive and Grid. A shipped check runs at the
// default off-time, checkpointed, with its carrier's worker count.
func AppendCheckConfig(b []byte, c check.Config) []byte {
	b = appendVarint(b, c.Seed)
	b = appendVarint(b, int64(c.Failures))
	b = appendBool(b, c.Exhaustive)
	return appendVarint(b, int64(c.Grid))
}

// CheckConfig reads AppendCheckConfig's encoding.
func (x *Decoder) CheckConfig() check.Config { return x.d.checkConfig() }

func (d *dec) checkConfig() check.Config {
	return check.Config{
		Seed:       d.varint(),
		Failures:   int(d.varint()),
		Exhaustive: d.bool(),
		Grid:       int(d.varint()),
	}
}

// Append primitives, re-exported for callers composing their own record
// layouts on the wire vocabulary.

// AppendUvarint appends v as an unsigned varint.
func AppendUvarint(b []byte, v uint64) []byte { return appendUvarint(b, v) }

// AppendVarint appends v as a zigzag varint.
func AppendVarint(b []byte, v int64) []byte { return appendVarint(b, v) }

// AppendString appends s length-prefixed.
func AppendString(b []byte, s string) []byte { return appendString(b, s) }

// AppendBool appends v as one byte.
func AppendBool(b []byte, v bool) []byte { return appendBool(b, v) }

// Decoder is the exported bounds-checked cursor: the first failed read
// latches the error and every subsequent read returns a zero value, so
// callers read a whole record and check Err once. Like the message
// decoders, it never panics and never allocates more than the input
// could hold.
type Decoder struct{ d dec }

// NewDecoder returns a decoder over b. The decoder reads b directly;
// decoded strings are copies, so b may be recycled afterwards.
func NewDecoder(b []byte) *Decoder { return &Decoder{d: dec{b: b}} }

// Uvarint reads an unsigned varint.
func (x *Decoder) Uvarint() uint64 { return x.d.uvarint() }

// Varint reads a zigzag varint.
func (x *Decoder) Varint() int64 { return x.d.varint() }

// String reads a length-prefixed string.
func (x *Decoder) String() string { return x.d.string() }

// Bool reads one byte as a bool.
func (x *Decoder) Bool() bool { return x.d.bool() }

// Byte reads one raw byte.
func (x *Decoder) Byte() byte { return x.d.byte() }

// Bytes reads a length-prefixed byte string as a fresh copy.
func (x *Decoder) Bytes() []byte {
	n := x.d.count(1)
	if x.d.err != nil || n == 0 {
		return nil
	}
	out := make([]byte, n)
	copy(out, x.d.b[x.d.off:x.d.off+n])
	x.d.off += n
	return out
}

// AppendBytes appends p length-prefixed (the encoder for Decoder.Bytes).
func AppendBytes(b, p []byte) []byte {
	b = appendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

// Remaining returns the bytes not yet consumed.
func (x *Decoder) Remaining() int { return x.d.remaining() }

// Err returns the first read failure, or nil.
func (x *Decoder) Err() error { return x.d.err }

// Fail latches a caller-level decode error (e.g. an unknown record
// type), unless a read error is already latched.
func (x *Decoder) Fail(format string, args ...any) { x.d.fail(format, args...) }
