// The crash-consistent job store: an append-only log of the inputs a
// restart cannot reproduce — a job (its spec and plan in one record,
// appended once planning has succeeded), each shard result and each
// failed shard attempt — one CRC-framed record each, fsynced before the
// in-memory transition it describes takes effect. Scheduling state
// (leases) and derived state (merged results, job failures) are never
// journaled, and neither is a job whose plan failed. A coordinator
// restart replays the log from the start; the fold in coordinator.go is
// idempotent, so replaying any prefix twice reaches the same state.
//
// Torn tails are expected — a crash mid-append leaves a frame with a
// length but not all its bytes — and are truncated away on open, which
// is exactly the write-ahead contract: a transition whose record did not
// fully reach the disk never happened. A CRC mismatch on a *complete*
// frame is different: that is corruption inside the retained log, and
// open refuses it rather than silently dropping committed transitions.
//
// One header frame opens every log: the record layout's format
// (walFormat) and the payloads' wire version. Open refuses any other
// header, so a layout change is one walFormat bump, never a retired slot
// or record type. The header is fsynced before the first record, so a
// log with no complete first frame holds nothing and starts afresh.

package fleet

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"easeio/internal/check"
	"easeio/internal/wire"
)

// recType discriminates WAL records. The numbering is part of the
// on-disk format that walFormat names.
type recType byte

const (
	recJob       recType = 1 // a job was accepted with its plan
	recShardDone recType = 2 // a shard completed with a result payload
	recShardFail recType = 3 // a shard attempt failed
)

func (t recType) String() string {
	switch t {
	case recJob:
		return "job"
	case recShardDone:
		return "shard-done"
	case recShardFail:
		return "shard-fail"
	}
	return fmt.Sprintf("recType(%d)", byte(t))
}

// record is one WAL entry. Only the fields its type uses are set.
type record struct {
	Type recType
	Job  uint64

	// recJob: the spec and its plan, committed together so a durable job
	// is always a planned one. Tasks holds every shard's encoded task (a
	// wire.SweepShard or wire.SubtreeShard per shard). A check job also
	// carries its golden header and level-1 result (an encoded
	// wire.SubtreeResult); a sweep job carries neither. The check fields
	// must be durable — the level-1 outcomes and root checkpoints they
	// embed are consumed state, not replayable from the spec without
	// re-running the exploration. The header keeps only what the golden
	// pass found (the app name too: "fir-op" builds "fir"); install
	// fills in the rest from the spec.
	Spec   Spec
	Plan   check.Header
	Level1 []byte
	Tasks  [][]byte

	Shard int   // recShardDone, recShardFail
	At    int64 // recShardFail: coordinator clock, unix nanos

	Payload []byte // recShardDone: the shard result
	Err     string // recShardFail
}

// encode renders the record as a frame payload: the type byte followed
// by the type's body, built from the wire vocabulary.
func (r record) encode() []byte {
	b := []byte{byte(r.Type)}
	b = wire.AppendUvarint(b, r.Job)
	switch r.Type {
	case recJob:
		s := r.Spec
		b = wire.AppendString(b, s.Mode)
		b = wire.AppendString(b, s.App)
		b = wire.AppendString(b, s.Runtime)
		b = wire.AppendVarint(b, int64(s.Runs))
		b = wire.AppendVarint(b, s.BaseSeed)
		b = wire.AppendCheckConfig(b, s.Check)
		b = wire.AppendVarint(b, int64(s.Shards))
		b = wire.AppendVarint(b, int64(s.ShardWorkers))
		if s.Mode == ModeCheck {
			b = wire.AppendString(b, r.Plan.App)
			b = wire.AppendVarint(b, int64(r.Plan.GoldenOnTime))
			b = wire.AppendBool(b, r.Plan.GoldenCorrect)
			b = wire.AppendVarint(b, int64(r.Plan.Candidates))
			b = wire.AppendString(b, r.Plan.Note)
			b = wire.AppendBytes(b, r.Level1)
		}
		b = wire.AppendUvarint(b, uint64(len(r.Tasks)))
		for _, t := range r.Tasks {
			b = wire.AppendBytes(b, t)
		}
	case recShardDone:
		b = wire.AppendUvarint(b, uint64(r.Shard))
		b = wire.AppendBytes(b, r.Payload)
	case recShardFail:
		b = wire.AppendUvarint(b, uint64(r.Shard))
		b = wire.AppendString(b, r.Err)
		// The failure time anchors the retry backoff across a restart:
		// without it, replay could only bump the attempt counter and the
		// re-leased shard would skip the backoff the live coordinator had
		// imposed.
		b = wire.AppendVarint(b, r.At)
	default:
		panic("fleet: encoding WAL record of unknown type " + r.Type.String())
	}
	return b
}

// decodeRecord parses one frame payload.
func decodeRecord(b []byte) (record, error) {
	d := wire.NewDecoder(b)
	r := record{Type: recType(d.Byte()), Job: d.Uvarint()}
	switch r.Type {
	case recJob:
		r.Spec = Spec{
			Mode:         d.String(),
			App:          d.String(),
			Runtime:      d.String(),
			Runs:         int(d.Varint()),
			BaseSeed:     d.Varint(),
			Check:        d.CheckConfig(),
			Shards:       int(d.Varint()),
			ShardWorkers: int(d.Varint()),
		}
		if r.Spec.Mode == ModeCheck {
			r.Plan = check.Header{
				App:           d.String(),
				GoldenOnTime:  time.Duration(d.Varint()),
				GoldenCorrect: d.Bool(),
				Candidates:    int(d.Varint()),
				Note:          d.String(),
			}
			r.Level1 = d.Bytes()
		}
		n := d.Uvarint()
		if d.Err() == nil && n > uint64(d.Remaining()) {
			d.Fail("fleet: job record claims %d tasks with %d bytes left", n, d.Remaining())
		}
		if d.Err() == nil && n > 0 {
			r.Tasks = make([][]byte, n)
			for i := range r.Tasks {
				r.Tasks[i] = d.Bytes()
			}
		}
	case recShardDone:
		r.Shard = int(d.Uvarint())
		r.Payload = d.Bytes()
	case recShardFail:
		r.Shard = int(d.Uvarint())
		r.Err = d.String()
		r.At = d.Varint()
	default:
		d.Fail("fleet: unknown WAL record type %d", byte(r.Type))
	}
	if err := d.Err(); err != nil {
		return record{}, err
	}
	if n := d.Remaining(); n != 0 {
		return record{}, fmt.Errorf("fleet: %s record has %d trailing bytes", r.Type, n)
	}
	// The log holds only what encode wrote: anything else is foreign.
	if !bytes.Equal(r.encode(), b) {
		return record{}, fmt.Errorf("fleet: %s record of job %d is not in canonical form", r.Type, r.Job)
	}
	return r, nil
}

// walFormat numbers the record layouts above (format 0: the headerless
// logs of earlier builds; format 1: a job's spec and plan in two
// records; format 2: four check fields and a fuller header); walHeader
// is the frame that opens every log.
const walFormat = 3

var walHeader = []byte{'E', 'W', 'A', 'L', walFormat, wire.Version}

// wal is the open log. Appends serialize under the coordinator lock;
// every append is fsynced before it returns, so a record the caller saw
// succeed survives any later crash.
type wal struct {
	f      *os.File
	end    int64                     // end of the last committed frame
	broken error                     // latched when a failed append could not be cut away
	obs    func(fsync time.Duration) // nil ok; receives each append's fsync latency
}

// openWAL opens (creating if absent) the log at path and returns its
// records: every fully-committed transition in append order. It
// truncates a torn tail, starts a log with no complete first frame
// afresh under the header, and refuses any other header.
func openWAL(path string, obs func(time.Duration)) (_ *wal, recs []record, err error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("fleet: open WAL: %w", err)
	}
	defer func() {
		if err != nil {
			f.Close()
		}
	}()
	data, err := io.ReadAll(f)
	if err != nil {
		return nil, nil, fmt.Errorf("fleet: read WAL: %w", err)
	}
	w := &wal{f: f}
	for rd := bytes.NewReader(data); ; {
		payload, err := wire.ReadFrame(rd)
		if err == io.EOF || errors.Is(err, wire.ErrTornFrame) {
			// The end of the log, or the tail of an append the crash
			// interrupted: that transition never committed.
			break
		}
		if err != nil {
			return nil, nil, fmt.Errorf("fleet: WAL at byte %d: %w", w.end, err)
		}
		if w.end > 0 {
			rec, err := decodeRecord(payload)
			if err != nil {
				return nil, nil, fmt.Errorf("fleet: WAL record at byte %d: %w", w.end, err)
			}
			recs = append(recs, rec)
		} else if !bytes.Equal(payload, walHeader) {
			var format, version byte // format 0: no header
			if len(payload) == len(walHeader) && bytes.HasPrefix(payload, walHeader[:4]) {
				format, version = payload[4], payload[5]
			}
			return nil, nil, fmt.Errorf("fleet: WAL %s was written by another build (format %d, wire version %d; "+
				"this build writes %d/%d): finish or drop its jobs with that build",
				path, format, version, walFormat, wire.Version)
		}
		w.end = int64(len(data) - rd.Len())
	}
	if err := w.cut(); err != nil {
		return nil, nil, fmt.Errorf("fleet: truncate WAL tail: %w", err)
	}
	if w.end == 0 {
		if err := w.commit(wire.AppendFrame(nil, walHeader)); err != nil {
			return nil, nil, fmt.Errorf("fleet: write WAL header: %w", err)
		}
	}
	w.obs = obs // appends only, not the header
	return w, recs, nil
}

// append frames, writes and fsyncs one record. The caller must hold the
// coordinator lock (the WAL has no lock of its own: record order on disk
// must match transition order in memory).
func (w *wal) append(r record) error {
	if err := w.commit(wire.AppendFrame(nil, r.encode())); err != nil {
		return fmt.Errorf("fleet: append WAL %s record: %w", r.Type, err)
	}
	return nil
}

// commit writes frame at the end of the log and fsyncs it. A failed
// write or fsync cuts the file back to the end of the last committed
// frame: bytes left behind would sit under the next frame and make the
// whole log unreadable. If the cut fails too, every later commit is
// refused until the log is reopened.
func (w *wal) commit(frame []byte) error {
	if w.broken != nil {
		return w.broken
	}
	_, err := w.f.Write(frame)
	start := time.Now()
	if err == nil {
		err = w.f.Sync()
	}
	if err == nil {
		if w.obs != nil {
			w.obs(time.Since(start))
		}
		w.end += int64(len(frame))
		return nil
	}
	if cerr := w.cut(); cerr != nil {
		w.broken = fmt.Errorf("%w; cutting it back failed, WAL unusable until reopened: %w", err, cerr)
		return w.broken
	}
	return err
}

// cut truncates the file to the end of the last committed frame and
// moves the write offset there.
func (w *wal) cut() error {
	if err := w.f.Truncate(w.end); err != nil {
		return err
	}
	_, err := w.f.Seek(w.end, io.SeekStart)
	return err
}

func (w *wal) close() error { return w.f.Close() }
