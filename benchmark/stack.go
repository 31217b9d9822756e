package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"easeio/internal/apps"
	"easeio/internal/check"
	"easeio/internal/experiments"
	"easeio/internal/fleet"
	"easeio/internal/service"
)

// fleetPoll is the loopback workers' idle poll, the one easeio-served uses.
const fleetPoll = 10 * time.Millisecond

// buildLog counts app builds through the registry's factories, which the
// benchmark wraps: one build is one frontend analysis of a blueprint. While
// spans are on it also keeps each build's interval for the Chrome trace.
type buildLog struct {
	count atomic.Int64
	nanos atomic.Int64

	spansOn atomic.Bool
	mu      sync.Mutex
	spans   []span
}

func (b *buildLog) wrap(name string, f experiments.AppFactory) experiments.AppFactory {
	return func() (*apps.Bench, error) {
		start := time.Now()
		bench, err := f()
		d := time.Since(start)
		b.count.Add(1)
		b.nanos.Add(int64(d))
		if b.spansOn.Load() {
			b.mu.Lock()
			b.spans = append(b.spans, span{name: "build " + name, track: "app builds", start: start, dur: d})
			b.mu.Unlock()
		}
		return bench, err
	}
}

// newRegistry registers the paper's benchmark apps plus the checker's fig6
// scenario. With a non-nil log every factory is wrapped to count builds.
func newRegistry(log *buildLog) (*service.Registry, error) {
	plain := service.NewRegistry()
	if err := service.RegisterPaperBenches(plain); err != nil {
		return nil, err
	}
	if err := plain.Register("fig6", check.Fig6Bench); err != nil {
		return nil, err
	}
	if log == nil {
		return plain, nil
	}
	reg := service.NewRegistry()
	for _, name := range plain.Names() {
		f, _ := plain.LookupFactory(name)
		if err := reg.Register(name, log.wrap(name, f)); err != nil {
			return nil, err
		}
	}
	return reg, nil
}

// stack is the service as a user runs it: registry, job manager, HTTP
// server on a loopback listener and, for fleet workloads, a coordinator
// with a real fsync'd WAL and in-process loopback workers. Every goroutine
// root it starts carries a pprof "role" label that its children inherit,
// so a CPU profile splits by component.
type stack struct {
	metrics *service.Metrics
	mgr     *service.Manager
	srv     *http.Server
	base    string
	client  *http.Client
	served  chan error

	coord     *fleet.Coordinator
	walPath   string
	stopFleet context.CancelFunc
	fleetWG   sync.WaitGroup
	fleetErrs []error // one slot per loopback worker
}

// managerWorkers is the job manager's concurrency: easeio-served's default
// on a 2-core host.
const managerWorkers = 2

func labeled(ctx context.Context, role string, f func(context.Context)) {
	pprof.Do(ctx, pprof.Labels("role", role), f)
}

func newStack(w workload, workdir string, builds *buildLog, id int) (*stack, error) {
	reg, err := newRegistry(builds)
	if err != nil {
		return nil, err
	}
	s := &stack{metrics: service.NewMetrics(), served: make(chan error, 1)}
	var mgrOpts []service.ManagerOption
	var srvOpts []service.ServerOption
	if w.Fleet {
		s.walPath = filepath.Join(workdir, fmt.Sprintf("fleet-%d.wal", id))
		fm := fleet.NewMetrics()
		s.coord, err = fleet.New(fleet.CoordinatorConfig{WALPath: s.walPath, Source: reg, Metrics: fm})
		if err != nil {
			return nil, err
		}
		mgrOpts = append(mgrOpts, service.WithFleet(s.coord))
		srvOpts = append(srvOpts, service.WithFleetMetrics(fm))
		ctx, cancel := context.WithCancel(context.Background())
		s.stopFleet = cancel
		s.fleetErrs = make([]error, managerWorkers)
		for i := range s.fleetErrs {
			name := fmt.Sprintf("local-%d", i)
			s.fleetWG.Add(1)
			go labeled(ctx, "fleet_worker", func(ctx context.Context) {
				defer s.fleetWG.Done()
				if err := fleet.RunLoopback(ctx, s.coord, name, reg, fleetPoll); err != nil {
					s.fleetErrs[i] = fmt.Errorf("fleet worker %s: %w", name, err)
				}
			})
		}
	}
	labeled(context.Background(), "job_worker", func(context.Context) {
		s.mgr = service.NewManager(reg, s.metrics, 64, managerWorkers, mgrOpts...)
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.close()
		return nil, err
	}
	s.base = "http://" + ln.Addr().String()
	s.srv = &http.Server{Handler: service.NewServer(s.mgr, reg, s.metrics, srvOpts...).Handler()}
	go labeled(context.Background(), "http_server", func(context.Context) { s.served <- s.srv.Serve(ln) })
	// One keep-alive connection per client; the load never exceeds nproc
	// connections.
	s.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: w.Clients, MaxConnsPerHost: w.Clients}}
	return s, nil
}

// close stops the server, drains the manager, stops the fleet workers and
// removes the WAL, waiting for every goroutine the stack started.
func (s *stack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var errs []error
	if s.srv != nil {
		if err := s.srv.Shutdown(ctx); err != nil {
			errs = append(errs, fmt.Errorf("http shutdown: %w", err))
		}
		if err := <-s.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, fmt.Errorf("http serve: %w", err))
		}
		s.client.CloseIdleConnections()
	}
	if s.mgr != nil {
		if err := s.mgr.Shutdown(ctx); err != nil {
			errs = append(errs, fmt.Errorf("manager shutdown: %w", err))
		}
	}
	if s.coord != nil {
		s.stopFleet()
		s.fleetWG.Wait()
		errs = append(errs, s.fleetErrs...)
		if err := s.coord.Close(); err != nil {
			errs = append(errs, fmt.Errorf("fleet close: %w", err))
		}
		if err := os.Remove(s.walPath); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}
