// The crash-consistent job store: an append-only log of the inputs a
// restart cannot reproduce — a job's spec, its plan, each shard result
// and each failed shard attempt — one CRC-framed record each, fsynced
// before the in-memory transition it describes takes effect. Scheduling
// state (leases) and derived state (merged results, job failures) are
// never journaled. A coordinator restart replays the log from the start;
// the fold in coordinator.go is idempotent, so replaying any prefix twice
// reaches the same state.
//
// Torn tails are expected — a crash mid-append leaves a frame with a
// length but not all its bytes — and are truncated away on open, which
// is exactly the write-ahead contract: a transition whose record did not
// fully reach the disk never happened. A CRC mismatch on a *complete*
// frame is different: that is corruption inside the retained log, and
// open refuses it rather than silently dropping committed transitions.

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
// on-disk format: append only.
type recType byte

const (
	recSubmit    recType = 1 // a job was accepted
	recPlan      recType = 2 // its shards were planned
	recShardDone recType = 4 // a shard completed with a result payload
	recShardFail recType = 5 // a shard attempt failed
)

// Retired record types, never reused. Older logs hold them, and openWAL
// skips them: no build decodes them. A lease (3) is scheduling state a
// restart drops anyway; a job's merged result (6) is merged again from
// its shard results; a job failure (7) is derived again from its
// shard-fail records or by re-planning its submit record.
const (
	recLease   recType = 3
	recMerged  recType = 6
	recJobFail recType = 7
)

func (t recType) retired() bool { return t == recLease || t == recMerged || t == recJobFail }

func (t recType) String() string {
	switch t {
	case recSubmit:
		return "submit"
	case recPlan:
		return "plan"
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

	Spec Spec // recSubmit

	// recPlan: every shard's encoded task (a wire.SweepShard or
	// wire.SubtreeShard per shard), plus a check plan's golden header and
	// level-1 result (an encoded wire.SubtreeResult, empty for k=1). The
	// check fields must be durable — the level-1 outcomes and root
	// checkpoints they embed are consumed state, not replayable from the
	// spec without re-running the exploration. The header omits Seed and
	// Failures, which the spec determines.
	HasPlan bool
	Plan    check.Header
	Level1  []byte
	Tasks   [][]byte

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
	case recSubmit:
		s := r.Spec
		b = wire.AppendString(b, s.Mode)
		b = wire.AppendString(b, s.App)
		b = wire.AppendString(b, s.Runtime)
		b = wire.AppendVarint(b, int64(s.Runs))
		b = wire.AppendVarint(b, s.BaseSeed)
		b = wire.AppendVarint(b, s.Seed)
		// The retired replay off-duration, always zero: a log that set it
		// is refused on decode.
		b = wire.AppendVarint(b, 0)
		b = wire.AppendVarint(b, int64(s.Grid))
		b = wire.AppendBool(b, s.Exhaustive)
		b = wire.AppendVarint(b, int64(s.Failures))
		b = wire.AppendVarint(b, int64(s.Shards))
		b = wire.AppendVarint(b, int64(s.ShardWorkers))
	case recPlan:
		b = wire.AppendBool(b, r.HasPlan)
		if r.HasPlan {
			b = wire.AppendString(b, r.Plan.App)
			b = wire.AppendString(b, r.Plan.Runtime)
			b = wire.AppendVarint(b, int64(r.Plan.Off))
			b = wire.AppendVarint(b, int64(r.Plan.GoldenOnTime))
			b = wire.AppendBool(b, r.Plan.GoldenCorrect)
			b = wire.AppendVarint(b, int64(r.Plan.Candidates))
			b = wire.AppendString(b, r.Plan.Note)
		}
		// The retired seed-range count, always zero: plans that listed
		// sweep shards as seed ranges are refused on decode.
		b = wire.AppendUvarint(b, 0)
		b = wire.AppendBytes(b, r.Level1)
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

// decodeRecord parses one frame payload. A retired type is refused like
// an unknown one.
func decodeRecord(b []byte) (record, error) {
	d := wire.NewDecoder(b)
	r := record{Type: recType(d.Byte()), Job: d.Uvarint()}
	switch r.Type {
	case recSubmit:
		r.Spec = Spec{
			Mode:     d.String(),
			App:      d.String(),
			Runtime:  d.String(),
			Runs:     int(d.Varint()),
			BaseSeed: d.Varint(),
			Seed:     d.Varint(),
		}
		if off := d.Varint(); d.Err() == nil && off != 0 {
			return record{}, fmt.Errorf("submit record of job %d sets a replay off-duration of %v: "+
				"the field is retired, every fleet check runs with the checker's default; "+
				"finish or drop its jobs with the build that wrote it", r.Job, time.Duration(off))
		}
		r.Spec.Grid = int(d.Varint())
		r.Spec.Exhaustive = d.Bool()
		r.Spec.Failures = int(d.Varint())
		r.Spec.Shards = int(d.Varint())
		r.Spec.ShardWorkers = int(d.Varint())
	case recPlan:
		r.HasPlan = d.Bool()
		if r.HasPlan {
			r.Plan = check.Header{
				App:           d.String(),
				Runtime:       d.String(),
				Off:           time.Duration(d.Varint()),
				GoldenOnTime:  time.Duration(d.Varint()),
				GoldenCorrect: d.Bool(),
				Candidates:    int(d.Varint()),
				Note:          d.String(),
			}
		}
		if n := d.Uvarint(); d.Err() == nil && n != 0 {
			return record{}, fmt.Errorf("plan record of job %d lists %d seed ranges: "+
				"the log predates plans that hold every shard as a task; "+
				"finish or drop its jobs with the build that wrote it", r.Job, n)
		}
		r.Level1 = d.Bytes()
		n := d.Uvarint()
		if d.Err() == nil && n > uint64(d.Remaining()) {
			d.Fail("fleet: plan record claims %d tasks with %d bytes left", n, d.Remaining())
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

// checkVersion refuses records written with an older wire encoding:
// every embedded wire payload must carry the current wire.Version, and a
// check plan must carry its level-1 result (version-2 check plans held
// cut ranges instead of encoded units). Resuming such a log could
// silently re-run or mis-merge its jobs, so the coordinator refuses to
// open it; finish or drop those jobs with the build that wrote them.
func (r record) checkVersion() error {
	if r.Type == recPlan && r.HasPlan && len(r.Level1) == 0 {
		return fmt.Errorf("check plan of job %d has no level-1 result: written before wire version %d", r.Job, wire.Version)
	}
	for _, b := range append([][]byte{r.Payload, r.Level1}, r.Tasks...) {
		if len(b) == 0 {
			continue
		}
		if err := wire.CheckVersion(b); err != nil {
			return fmt.Errorf("%s record of job %d: %w", r.Type, r.Job, err)
		}
	}
	return nil
}

// wal is the open log. Appends serialize under mu; every append is
// fsynced before it returns, so a record the caller saw succeed survives
// any later crash.
type wal struct {
	f   *os.File
	obs func(fsync time.Duration) // nil ok; receives each fsync's latency
}

// openWAL opens (creating if absent) the log at path, replays its
// records, and truncates a torn tail. The returned records are every
// fully-committed transition in append order.
func openWAL(path string, obs func(time.Duration)) (*wal, []record, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("fleet: open WAL: %w", err)
	}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("fleet: read WAL: %w", err)
	}

	var recs []record
	rd := bytes.NewReader(data)
	goodEnd := 0
	for {
		payload, err := wire.ReadFrame(rd)
		if err == io.EOF {
			break
		}
		if errors.Is(err, wire.ErrTornFrame) {
			// The tail of an append the crash interrupted: the transition
			// never committed. Drop it.
			if err := f.Truncate(int64(goodEnd)); err != nil {
				f.Close()
				return nil, nil, fmt.Errorf("fleet: truncate torn WAL tail: %w", err)
			}
			break
		}
		if err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("fleet: WAL at byte %d: %w", goodEnd, err)
		}
		if len(payload) == 0 || !recType(payload[0]).retired() {
			rec, err := decodeRecord(payload)
			if err == nil {
				err = rec.checkVersion()
			}
			if err != nil {
				f.Close()
				return nil, nil, fmt.Errorf("fleet: WAL record at byte %d: %w", goodEnd, err)
			}
			recs = append(recs, rec)
		}
		goodEnd = len(data) - rd.Len()
	}
	if _, err := f.Seek(int64(goodEnd), io.SeekStart); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("fleet: seek WAL tail: %w", err)
	}
	return &wal{f: f, obs: obs}, recs, nil
}

// append frames, writes and fsyncs one record. The caller must hold the
// coordinator lock (the WAL has no lock of its own: record order on disk
// must match transition order in memory).
func (w *wal) append(r record) error {
	frame := wire.AppendFrame(nil, r.encode())
	if _, err := w.f.Write(frame); err != nil {
		return fmt.Errorf("fleet: append WAL %s record: %w", r.Type, err)
	}
	start := time.Now()
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("fleet: fsync WAL: %w", err)
	}
	if w.obs != nil {
		w.obs(time.Since(start))
	}
	return nil
}

func (w *wal) close() error { return w.f.Close() }
