// Command easeio-served fronts the simulation sweep service over
// HTTP/JSON: named application blueprints, a bounded job queue with
// configurable worker concurrency, per-job cancellation, and a
// Prometheus-style metrics endpoint.
//
// Usage:
//
//	easeio-served [-addr :8340] [-queue 64] [-jobs N] [-pprof] [-log text|json] [-smoke]
//	              [-fleet] [-wal PATH] [-fleet-workers N] [-fleet-listen ADDR]
//
// -pprof mounts the Go profiling endpoints under /debug/pprof/ (off by
// default). Logs are structured (log/slog) on stderr; every record about
// a job carries its "job" ID.
//
// -fleet switches job execution to the distributed coordinator: every
// submitted job is sharded, journaled to the -wal file (crash-consistent;
// restarting the server resumes in-flight jobs), and executed by fleet
// workers. -fleet-workers starts that many in-process loopback workers;
// -fleet-listen additionally accepts remote easeio-worker processes over
// TCP. Results are byte-identical to the in-process path — the fleet
// changes scheduling and durability, never results.
//
// Submit a sweep and watch it:
//
//	curl -s -X POST localhost:8340/jobs \
//	    -d '{"app":"fir","runtime":"EaseIO","runs":1000,"base_seed":1}'
//	curl -s localhost:8340/jobs/1
//	curl -s localhost:8340/metrics
//
// SIGINT/SIGTERM shut the server down gracefully: the listener closes,
// in-flight sweeps drain, queued jobs are cancelled. -smoke boots the
// full stack on a loopback port, pushes one job through the HTTP API,
// checks the result and the metrics, and exits — the self-test the
// Makefile's serve-smoke target runs.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"easeio/internal/fleet"
	"easeio/internal/service"
)

func main() {
	var (
		addr    = flag.String("addr", ":8340", "HTTP listen address")
		queue   = flag.Int("queue", 64, "job queue capacity (backpressure bound)")
		jobs    = flag.Int("jobs", max(2, runtime.GOMAXPROCS(0)/2), "concurrent sweep jobs")
		pprofOn = flag.Bool("pprof", false, "mount the Go profiling endpoints under /debug/pprof/")
		logFmt  = flag.String("log", "text", "structured log format on stderr: text or json")
		smoke   = flag.Bool("smoke", false, "boot on a loopback port, run one job through the HTTP API, verify, exit")

		fleetOn      = flag.Bool("fleet", false, "execute jobs through the distributed fleet coordinator")
		walPath      = flag.String("wal", "easeio-fleet.wal", "fleet job journal path (crash-consistent; reopened on restart; a log written by another build is refused)")
		fleetWorkers = flag.Int("fleet-workers", 2, "in-process loopback fleet workers (with -fleet)")
		fleetListen  = flag.String("fleet-listen", "", "TCP address accepting remote easeio-worker processes (with -fleet)")
	)
	flag.Parse()

	logger, err := buildLogger(*logFmt)
	if err != nil {
		log.Fatal(err)
	}

	reg := service.NewRegistry()
	reg.SetLogger(logger)
	if err := service.RegisterBenches(reg); err != nil {
		log.Fatal(err)
	}
	metrics := service.NewMetrics()
	mgrOpts := []service.ManagerOption{service.WithManagerLogger(logger)}
	srvOpts := []service.ServerOption{service.WithAccessLog(logger)}

	var coord *fleet.Coordinator
	var stopFleet func()
	if *fleetOn {
		fm := fleet.NewMetrics()
		coord, err = fleet.New(fleet.CoordinatorConfig{
			WALPath: *walPath, Source: reg, Metrics: fm,
		})
		if err != nil {
			log.Fatal(err)
		}
		mgrOpts = append(mgrOpts, service.WithFleet(coord))
		srvOpts = append(srvOpts, service.WithFleetMetrics(fm))
		stopFleet, err = startFleetWorkers(logger, coord, reg, *fleetWorkers, *fleetListen)
		if err != nil {
			log.Fatal(err)
		}
		logger.Info("fleet mode", "wal", *walPath, "loopback_workers", *fleetWorkers,
			"listen", *fleetListen)
	}

	mgr := service.NewManager(reg, metrics, *queue, *jobs, mgrOpts...)
	if *pprofOn {
		srvOpts = append(srvOpts, service.WithPprof())
	}
	handler := service.NewServer(mgr, reg, metrics, srvOpts...).Handler()

	if *smoke {
		err := runSmoke(handler, mgr)
		if stopFleet != nil {
			stopFleet()
			coord.Close()
		}
		if err != nil {
			log.Fatalf("smoke: FAIL: %v", err)
		}
		fmt.Println("smoke: PASS")
		return
	}

	srv := &http.Server{Addr: *addr, Handler: handler}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	logger.Info("easeio-served listening", "addr", *addr, "workers", *jobs,
		"queue", *queue, "pprof", *pprofOn, "blueprints", strings.Join(reg.Names(), " "))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errCh:
		log.Fatal(err)
	case <-ctx.Done():
	}
	logger.Info("shutting down: draining in-flight sweeps")
	sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		logger.Error("http shutdown", "error", err)
	}
	if err := mgr.Shutdown(sctx); err != nil {
		logger.Error("job manager shutdown", "error", err)
	}
	if stopFleet != nil {
		stopFleet()
		if err := coord.Close(); err != nil {
			logger.Error("fleet coordinator shutdown", "error", err)
		}
	}
}

// startFleetWorkers launches the in-process loopback workers and, when
// listen is non-empty, the TCP listener for remote easeio-worker
// processes. The returned stop joins the loopback workers and closes
// the listener.
func startFleetWorkers(logger *slog.Logger, coord *fleet.Coordinator,
	reg *service.Registry, workers int, listen string) (func(), error) {
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		name := fmt.Sprintf("local-%d", i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Loopback workers wake on submit; the 10ms poll only finds
			// retries whose backoff ran out and expired leases.
			if err := fleet.RunLoopback(ctx, coord, name, reg, 10*time.Millisecond); err != nil {
				logger.Error("loopback worker failed", "worker", name, "error", err)
			}
		}()
	}
	var ln net.Listener
	if listen != "" {
		var err error
		ln, err = net.Listen("tcp", listen)
		if err != nil {
			cancel()
			wg.Wait()
			return nil, err
		}
		go func() {
			if err := fleet.ServeFleet(ln, coord); err != nil {
				logger.Error("fleet listener failed", "error", err)
			}
		}()
	}
	return func() {
		if ln != nil {
			ln.Close()
		}
		cancel()
		wg.Wait()
	}, nil
}

// buildLogger returns a slog logger writing to stderr in the requested
// format.
func buildLogger(format string) (*slog.Logger, error) {
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, nil)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, nil)), nil
	default:
		return nil, fmt.Errorf("easeio-served: unknown log format %q (want text or json)", format)
	}
}

// runSmoke exercises the full service loop over a real TCP socket: boot,
// health, submit, poll to completion, verify the summary and the metrics.
func runSmoke(handler http.Handler, mgr *service.Manager) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: handler}
	go srv.Serve(ln)
	defer srv.Close()
	base := "http://" + ln.Addr().String()
	client := &http.Client{Timeout: 10 * time.Second}

	// Health.
	resp, err := client.Get(base + "/healthz")
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: status %d", resp.StatusCode)
	}

	// Submit one modest sweep.
	body := strings.NewReader(`{"app":"dma","runtime":"EaseIO","runs":32,"base_seed":1,"workers":2}`)
	resp, err = client.Post(base+"/jobs", "application/json", body)
	if err != nil {
		return err
	}
	var st service.Status
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("submit: status %d", resp.StatusCode)
	}

	// Poll to completion.
	deadline := time.Now().Add(60 * time.Second)
	for {
		if time.Now().After(deadline) {
			return fmt.Errorf("job %d did not finish in time (state %s, %d/%d runs)",
				st.ID, st.State, st.DoneRuns, st.TotalRuns)
		}
		resp, err = client.Get(fmt.Sprintf("%s/jobs/%d", base, st.ID))
		if err != nil {
			return err
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			return err
		}
		if st.State == "succeeded" || st.State == "failed" || st.State == "cancelled" {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if st.State != "succeeded" {
		return fmt.Errorf("job ended %s: %s", st.State, st.Error)
	}
	if st.Summary == nil || st.Summary.Runs != 32 {
		return fmt.Errorf("summary missing or wrong run count: %+v", st.Summary)
	}
	if st.Summary.CorrectRuns != 32 {
		return fmt.Errorf("only %d/32 correct runs", st.Summary.CorrectRuns)
	}

	// Metrics must reflect the completed job.
	resp, err = client.Get(base + "/metrics")
	if err != nil {
		return err
	}
	raw := make([]byte, 1<<16)
	n, _ := resp.Body.Read(raw)
	resp.Body.Close()
	text := string(raw[:n])
	for _, want := range []string{
		"easeio_jobs_completed_total 1",
		"easeio_runs_completed_total 32",
		"easeio_wasted_work_ratio",
	} {
		if !strings.Contains(text, want) {
			return fmt.Errorf("metrics missing %q:\n%s", want, text)
		}
	}

	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return mgr.Shutdown(sctx)
}
