// Command easeio-worker is the fleet execution half of the distributed
// sweep service: it dials a coordinator's fleet listener (easeio-served
// -fleet -fleet-listen), leases sweep and check shards, executes them
// over the paper's registered benchmark blueprints, and ships the binary
// results back. Workers are stateless — all durability lives in the
// coordinator's WAL — so killing and restarting one (or pointing ten at
// the same coordinator) never changes a merged result, only how fast it
// arrives.
//
// Usage:
//
//	easeio-worker -addr host:8341 [-name NAME] [-poll 50ms] [-smoke]
//
// -name defaults to host-pid and labels this worker's leases in the
// coordinator's metrics. -smoke boots an in-process coordinator with a
// TCP fleet listener, runs two workers against it, kills and restarts
// one mid-sweep, and verifies that a merged sweep summary and merged k=1
// and k=2 check reports (one of them fig6's divergent report) are
// identical to the single-process engines' — the self-test the
// Makefile's fleet-smoke target runs.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"reflect"
	"syscall"
	"time"

	"easeio/internal/check"
	"easeio/internal/experiments"
	"easeio/internal/fleet"
	"easeio/internal/service"
)

func main() {
	var (
		addr  = flag.String("addr", "", "coordinator fleet listener address (host:port)")
		name  = flag.String("name", defaultName(), "worker name reported to the coordinator")
		poll  = flag.Duration("poll", 50*time.Millisecond, "idle poll interval: how soon an idle worker sees a newly submitted shard, a retry whose backoff ran out or an expired lease (TCP workers get no wake-up on submit)")
		smoke = flag.Bool("smoke", false, "run the in-process fleet self-test and exit")
	)
	flag.Parse()

	reg := service.NewRegistry()
	if err := service.RegisterBenches(reg); err != nil {
		log.Fatal(err)
	}

	if *smoke {
		if err := runSmoke(reg); err != nil {
			log.Fatalf("fleet-smoke: FAIL: %v", err)
		}
		fmt.Println("fleet-smoke: PASS")
		return
	}
	if *addr == "" {
		log.Fatal("easeio-worker: -addr is required (or use -smoke)")
	}

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	logger.Info("easeio-worker dialing", "addr", *addr, "name", *name)
	if err := fleet.RunTCPWorker(ctx, *addr, *name, reg, *poll); err != nil {
		log.Fatal(err)
	}
	logger.Info("easeio-worker stopped")
}

// defaultName labels this process's leases: host-pid is unique enough
// per coordinator and readable in the per-worker metric series.
func defaultName() string {
	host, err := os.Hostname()
	if err != nil {
		host = "worker"
	}
	return fmt.Sprintf("%s-%d", host, os.Getpid())
}

// runSmoke is the end-to-end fleet self-test: a real coordinator with a
// real WAL and TCP listener, two TCP workers, one of which is killed
// while holding leases and then restarted. The lease TTL must recycle
// the dead worker's shards and the merged summary must equal the
// in-process engine's, byte for byte.
func runSmoke(reg *service.Registry) error {
	dir, err := os.MkdirTemp("", "easeio-fleet-smoke")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	coord, err := fleet.New(fleet.CoordinatorConfig{
		WALPath:  filepath.Join(dir, "smoke.wal"),
		Source:   reg,
		LeaseTTL: 250 * time.Millisecond,
		Metrics:  fleet.NewMetrics(),
	})
	if err != nil {
		return err
	}
	defer coord.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	go fleet.ServeFleet(ln, coord)
	addr := ln.Addr().String()

	startWorker := func(name string) context.CancelFunc {
		ctx, cancel := context.WithCancel(context.Background())
		go fleet.RunTCPWorker(ctx, addr, name, reg, time.Millisecond)
		return cancel
	}
	stable := startWorker("smoke-stable")
	defer stable()
	victim := startWorker("smoke-victim")

	id, err := coord.Submit(fleet.Spec{
		Mode: fleet.ModeSweep, App: "fir", Runtime: "EaseIO",
		Runs: 48, BaseSeed: 3, Shards: 8,
	})
	if err != nil {
		return err
	}

	// Kill the victim once the sweep is visibly under way, then restart
	// it under a new name: the restarted process must pick up recycled
	// leases like any fresh worker.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if done, _, _ := coord.Progress(id); done >= 2 {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("sweep made no progress")
		}
		time.Sleep(time.Millisecond)
	}
	victim()
	restarted := startWorker("smoke-restarted")
	defer restarted()

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	res, err := coord.Wait(ctx, id)
	if err != nil {
		return err
	}
	if len(res.Errs) > 0 {
		return fmt.Errorf("sweep shards reported errors: %v", res.Errs)
	}

	factory, _ := reg.LookupFactory("fir")
	want, err := experiments.RunMany(
		experiments.Config{Runs: 48, BaseSeed: 3, Workers: 2}, factory, experiments.EaseIO)
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(res.Summary, want) {
		return fmt.Errorf("fleet summary differs from in-process engine:\n%+v\nvs\n%+v",
			res.Summary, want)
	}

	// Check legs over the same fleet, both through the one check work
	// unit: a k=1 exhaustive job whose boot-rooted unit is split by cut
	// range, and a k=2 job whose level-1 frontier ships as
	// checkpoint-rooted units. The fig6 leg's report diverges (Alpaca's
	// WAR bug), so divergence merging crosses the wire too. Each merged
	// report must equal the in-process checker's.
	for _, leg := range []struct {
		app      string
		kind     experiments.RuntimeKind
		failures int
		diverges bool // the report must hold divergences
	}{
		{"temp", experiments.Alpaca, 1, false},
		{"sensor", experiments.EaseIO, 2, false},
		{"fig6", experiments.Alpaca, 1, true},
	} {
		cid, err := coord.Submit(fleet.Spec{
			Mode: fleet.ModeCheck, App: leg.app, Runtime: leg.kind.String(),
			Check: check.Config{Exhaustive: true, Failures: leg.failures}, Shards: 4,
		})
		if err != nil {
			return err
		}
		cctx, ccancel := context.WithTimeout(context.Background(), time.Minute)
		cres, err := coord.Wait(cctx, cid)
		ccancel()
		if err != nil {
			return err
		}
		factory, _ := reg.LookupFactory(leg.app)
		wantRep, err := check.Run(context.Background(), factory, leg.kind,
			check.Config{Exhaustive: true, Failures: leg.failures, Workers: 2})
		if err != nil {
			return err
		}
		if leg.diverges && wantRep.Passed() {
			return fmt.Errorf("k=%d %s under %v passed; want a divergent report",
				leg.failures, leg.app, leg.kind)
		}
		if !reflect.DeepEqual(cres.Report, wantRep) {
			return fmt.Errorf("fleet k=%d %s report differs from in-process checker:\n--- fleet ---\n%s--- direct ---\n%s",
				leg.failures, leg.app, cres.Report.Render(), wantRep.Render())
		}
	}
	return nil
}
