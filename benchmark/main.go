// Command easeio-benchmark is the repository's benchmark: closed-loop
// clients submit sweep and check jobs over HTTP to the real service stack
// (registry, job manager, HTTP server and, for fleet-mix, the WAL-backed
// fleet coordinator with loopback workers), wait for each result, check it
// against pinned digests or direct engine calls, and report end-to-end
// metrics, or with tracing per-layer metrics from a CPU profile.
//
// From the repository root:
//
//	bash benchmark/run.sh --workload check-inproc --seed 1 --seconds 10 --trace 0
//	bash benchmark/run.sh --seed 1                  # every workload, one child process each
//	bash benchmark/run.sh -compare parent.jsonl change.jsonl
//	bash benchmark/run.sh -pin benchmark/testdata/digests.json
//
// The last line of a workload run's standard output is one JSON object
// with the keys correct, attempted, failed and metrics. See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "easeio-benchmark:", err)
		os.Exit(1)
	}
}

// workdir holds the fleet WAL files, relative to the checkout root the
// benchmark runs from.
const workdir = ".bench_build/work"

// setupReps is how often a run sets up; setup_s is the median.
const setupReps = 9

// errIncorrect reports a run whose results failed verification; the
// result line is printed first.
var errIncorrect = errors.New("some results failed verification")

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("easeio-benchmark", flag.ContinueOnError)
	var (
		name     = fs.String("workload", "", "workload to run (default: every workload, each in a child process)")
		seed     = fs.Int64("seed", 1, "workload seed; seeds with pinned digests: 1, 2")
		seconds  = fs.Int("seconds", 15, "length of the timed phase")
		trace    = fs.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
		traceDir = fs.String("trace-dir", ".bench_build/trace", "where a traced run writes layers-<workload>.json and trace-<workload>.json")
		record   = fs.String("record", "", "append the result, tagged with workload, seed and trace, to this JSON-lines file")
		compare  = fs.Bool("compare", false, "compare two recorded files: -compare PARENT CHANGE")
		pin      = fs.String("pin", "", "compute the digests of every job for seeds 1 and 2 by direct engine calls and write them to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	switch {
	case *compare:
		if fs.NArg() != 2 {
			return errors.New("-compare takes two files: PARENT CHANGE")
		}
		return compareFiles(stdout, "BENCHMARK.json", fs.Arg(0), fs.Arg(1))
	case *pin != "":
		return writePins(ctx, *pin, []int64{1, 2})
	case *trace != 0 && *trace != 1:
		return fmt.Errorf("-trace is 0 or 1, not %d", *trace)
	case *seconds < 1:
		return fmt.Errorf("-seconds must be positive, not %d", *seconds)
	case *name == "":
		return runAll(ctx, args, stdout)
	}

	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	p, err := pins(*seed)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return err
	}
	res, err := runWorkload(ctx, options{
		w: w, seed: *seed, measure: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, traceDir: *traceDir, workdir: workdir, setups: setupReps,
		pins: p, out: stdout,
	})
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	if *record != "" {
		if err := appendRecord(*record, recorded{Workload: w.Name, Seed: *seed, Trace: *trace, Result: res}); err != nil {
			return err
		}
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return errIncorrect
	}
	return nil
}

// runAll runs every workload in its own child process (this binary again
// with -workload), one after another, so each has a fresh heap and its own
// peak RSS.
func runAll(ctx context.Context, args []string, stdout io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var errs []error
	for _, w := range workloads {
		cmd := exec.CommandContext(ctx, self, append([]string{"-workload", w.Name}, args...)...)
		cmd.Stdout, cmd.Stderr = stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			errs = append(errs, fmt.Errorf("workload %s: %w", w.Name, err))
		}
	}
	return errors.Join(errs...)
}

// writePins computes every job's digest for the given seeds by direct
// engine calls and writes them as testdata/digests.json's format.
func writePins(ctx context.Context, path string, seeds []int64) error {
	reg, err := newRegistry(nil)
	if err != nil {
		return err
	}
	all := map[string]map[string]string{}
	for _, seed := range seeds {
		m := map[string]string{}
		for _, w := range workloads {
			for _, j := range w.Jobs {
				if _, ok := m[j.key()]; ok {
					continue
				}
				if m[j.key()], err = reference(ctx, reg, j, seed); err != nil {
					return err
				}
			}
		}
		all[strconv.FormatInt(seed, 10)] = m
	}
	return writeJSON(path, all)
}
