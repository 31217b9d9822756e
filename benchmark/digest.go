package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"

	"easeio/internal/check"
	"easeio/internal/experiments"
	"easeio/internal/service"
)

// canonical re-encodes a JSON value with sorted object keys, no
// insignificant whitespace and every number kept as its original text, so
// two encodings of the same result compare byte for byte.
func canonical(raw []byte) ([]byte, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return nil, err
	}
	return json.Marshal(v)
}

func digestOf(raw []byte) (string, error) {
	c, err := canonical(raw)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(c)
	return hex.EncodeToString(sum[:]), nil
}

// digestResult digests a job's terminal summary or check object and reads
// the work it did out of it.
func digestResult(j job, raw json.RawMessage) (string, int, checkCounts, error) {
	var cc checkCounts
	if len(raw) == 0 || string(raw) == "null" {
		return "", 0, cc, fmt.Errorf("job %s: no result object", j.key())
	}
	d, err := digestOf(raw)
	if err != nil {
		return "", 0, cc, fmt.Errorf("job %s: %w", j.key(), err)
	}
	if j.Mode != "check" {
		var sum struct{ Runs int }
		if err := json.Unmarshal(raw, &sum); err != nil {
			return "", 0, cc, fmt.Errorf("job %s: %w", j.key(), err)
		}
		if sum.Runs != j.Runs {
			return "", 0, cc, fmt.Errorf("job %s: summary has %d runs", j.key(), sum.Runs)
		}
		return d, sum.Runs, cc, nil
	}
	var rep struct {
		Explored int
		Depths   []struct {
			Depth, Expanded, Collapsed, Explored int
		}
		Divergences []json.RawMessage
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		return "", 0, cc, fmt.Errorf("job %s: %w", j.key(), err)
	}
	cc.pointsD1 = rep.Explored
	cc.divergences = len(rep.Divergences)
	work := rep.Explored
	for _, ds := range rep.Depths {
		work += ds.Explored
		if ds.Depth == 2 {
			cc.pointsD2 += ds.Explored
			cc.expandedD2 += ds.Expanded
			cc.collapsed += ds.Collapsed
		}
	}
	return d, work, cc, nil
}

// pinnedJSON holds the SHA-256 of every job's canonical result for the
// pinned benchmark seeds, keyed by seed, then by job key. Regenerate it
// with -pin after an intended change to the simulation (see README.md).
//
//go:embed testdata/digests.json
var pinnedJSON []byte

// pins returns the pinned digests for a seed, or nil when the seed has
// none.
func pins(seed int64) (map[string]string, error) {
	var all map[string]map[string]string
	if err := json.Unmarshal(pinnedJSON, &all); err != nil {
		return nil, fmt.Errorf("testdata/digests.json: %w", err)
	}
	return all[strconv.FormatInt(seed, 10)], nil
}

// reference computes a job's result digest by calling the engines
// directly, outside the service and the fleet: the oracle every served
// result must equal.
func reference(ctx context.Context, reg *service.Registry, j job, seed int64) (string, error) {
	factory, ok := reg.LookupFactory(j.App)
	if !ok {
		return "", fmt.Errorf("reference %s: unknown app", j.key())
	}
	kind, err := experiments.ParseRuntimeKind(j.Runtime)
	if err != nil {
		return "", err
	}
	var result any
	if j.Mode == "check" {
		rep, err := check.Run(ctx, factory, kind, check.Config{
			Seed: jobSeed(seed), Failures: j.K, Exhaustive: true,
		})
		if err != nil {
			return "", fmt.Errorf("reference %s: %w", j.key(), err)
		}
		result = rep
	} else {
		sum, err := experiments.RunManyCtx(ctx, experiments.Config{Runs: j.Runs, BaseSeed: jobSeed(seed)}, factory, kind)
		if err != nil {
			return "", fmt.Errorf("reference %s: %w", j.key(), err)
		}
		result = sum
	}
	raw, err := json.Marshal(result)
	if err != nil {
		return "", err
	}
	return digestOf(raw)
}
