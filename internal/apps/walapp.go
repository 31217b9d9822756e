// The WAL-recovery scenario: a model of the fleet coordinator's
// crash-consistent job journal (internal/fleet) as an intermittent
// application, so the journal's append/replay protocol can be
// model-checked by the failure-point checker the same way the paper's
// benchmarks are.
//
// The protocol under check mirrors the coordinator's WAL:
//
//   - the header is durable before the first record, and replay reads
//     the log only under it (the fleet WAL refuses any other header);
//   - a record commits atomically or not at all: its payload words, its
//     decoded type, and the commit-pointer advance become durable
//     together (in the fleet WAL the frame CRC plays this role — a torn
//     frame is truncated on replay, never half-decoded);
//   - append is at-most-once: a replayed append must reuse the recorded
//     payload, never re-observe the world (Single semantics on the
//     sample, the annotation EaseIO honors);
//   - recovery is a pure, idempotent fold over committed records — the
//     digest is derived from the log alone, never from state that could
//     disagree with it.
//
// The model check certifies the protocol under every failure point on
// runtimes whose task commits buffer writes (InK, EaseIO, JustDo) — and
// rediscovers exactly the corruption the frame CRC exists to prevent on
// a runtime that re-executes appends over directly-written slots
// (Alpaca): the replayed append can observe a different world, take the
// other record-type branch, and leave one slot flagged as both record
// types — a torn, double-decoded journal entry.

package apps

import (
	"easeio/internal/periph"
	"easeio/internal/task"
)

// WALHeaderWord is the header the model journals: the fleet WAL's
// format byte over its wire-version byte (format 3, wire version 8). The
// fleet's tests hold it to the real header.
const WALHeaderWord = 0x0308

// WALConfig parameterizes the WAL-recovery scenario.
type WALConfig struct {
	// Records is how many journal appends the run commits.
	Records int
	// Threshold classifies each record by its sampled payload: below is
	// an "ok" record, at or above an "alert" record. Exactly one type per
	// slot is the log-consistency invariant.
	Threshold uint16
	// TailCycles is computation between a record's payload stores and its
	// commit — the window in which a power failure forces the append to
	// replay.
	TailCycles int64
	// Semantics is the annotation on the append's sample. Single models
	// the fleet WAL's at-most-once externalization (EaseIO skips the
	// replayed sample and restores the privatized value); Always re-runs
	// the sample on every replay.
	Semantics task.Semantic
}

// DefaultWALConfig commits four records with the threshold inside the
// band the sensor sweeps while the run is alive, so a replayed append can
// genuinely reclassify a record.
func DefaultWALConfig() WALConfig {
	return WALConfig{Records: 4, Threshold: 10, TailCycles: 6000, Semantics: task.Single}
}

// NewWALApp builds the WAL-recovery scenario.
func NewWALApp(cfg WALConfig) (*Bench, error) {
	a := task.NewApp("wal")
	p := periph.StandardSet(0x3a1)

	// The journal: payloads are sensor-derived (time-sensitive), the
	// commit pointer is not — head must reach Records on every safe
	// execution regardless of where failures land.
	head := a.NVInt("head")
	log := a.NVBuf("log", cfg.Records).Sensed()
	okRec := a.NVBuf("ok_rec", cfg.Records).Sensed()
	alertRec := a.NVBuf("alert_rec", cfg.Records).Sensed()
	digest := a.NVInt("digest").Sensed()
	header := a.NVInt("header")
	refused := a.NVInt("refused")

	appendSite := a.IO("Append", cfg.Semantics, true, func(e task.Exec, _ int) uint16 {
		return p.Temp.Sample(e)
	}).Loop(cfg.Records)

	var tAppend, tReplay, tFin *task.Task
	a.AddTask("init", func(e task.Exec) {
		e.Store(header, WALHeaderWord)
		e.Compute(600)
		e.Next(tAppend)
	})
	// One task per committed record: payload and type flag land in the
	// slot head points at, then head advances with the task commit.
	// Which type flag is written depends on the sampled payload, so a
	// replayed append with a fresh sample can take the other branch —
	// Touches widens the region sets to both flag arrays, as a
	// conservative static analysis would.
	tAppend = a.AddTask("append", func(e task.Exec) {
		h := int(e.Load(head))
		val := e.CallIOAt(appendSite, h)
		e.StoreAt(log, h, val)
		if val < cfg.Threshold {
			e.StoreAt(okRec, h, 1)
		} else {
			e.StoreAt(alertRec, h, 1)
		}
		e.Compute(cfg.TailCycles)
		e.Store(head, uint16(h+1))
		if h+1 < cfg.Records {
			e.Next(tAppend)
			return
		}
		e.Next(tReplay)
	}).Touches(okRec, alertRec)
	// Recovery: under the header, rebuild the digest as a pure fold over
	// the committed log, exactly how the fleet coordinator's replay
	// rebuilds job state from WAL records alone; refuse any other header.
	// The analysis run sees no header: Touches declares the fold's vars.
	tReplay = a.AddTask("replay", func(e task.Exec) {
		if e.Load(header) != WALHeaderWord {
			e.Store(refused, 1)
		} else {
			var d uint16
			for i := 0; i < cfg.Records; i++ {
				d = d*31 + e.LoadAt(log, i)
			}
			e.Store(digest, d)
		}
		e.Compute(400)
		e.Next(tFin)
	}).Touches(log, digest)
	tFin = a.AddTask("finish", func(e task.Exec) {
		e.Compute(200)
		e.Done()
	})

	// Log consistency, independent of failure placement: the header
	// written and nothing refused, every record committed, each slot
	// decodes as exactly one record type, the type agrees with the
	// payload, and the recovered digest is the fold of the log.
	a.CheckOutput = func(m task.CheckMem) bool {
		if m.Read(header, 0) != WALHeaderWord || m.Read(refused, 0) != 0 || m.Read(head, 0) != uint16(cfg.Records) {
			return false
		}
		var d uint16
		for i := 0; i < cfg.Records; i++ {
			val := m.Read(log, i)
			ok, alert := m.Read(okRec, i), m.Read(alertRec, i)
			if ok+alert != 1 {
				return false
			}
			if (val < cfg.Threshold) != (ok == 1) {
				return false
			}
			d = d*31 + val
		}
		return m.Read(digest, 0) == d
	}
	return finalize(a, p)
}
