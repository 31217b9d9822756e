// Package service turns the sweep engine into a long-running simulation
// server: a registry of named application blueprints, a job manager with
// a bounded queue, worker concurrency, per-job cancellation and panic
// isolation, an observability surface (health, Prometheus-style metrics,
// per-job progress), and an HTTP/JSON front end (see Server).
//
// The execution path of a job is exactly experiments.RunManyCtx over the
// registered factory, so an HTTP-submitted sweep's Summary is
// byte-identical to the in-process result for the same configuration —
// the service adds scheduling and observability, never a different
// engine.
package service

import (
	"fmt"
	"log/slog"
	"sort"
	"sync"

	"easeio/internal/apps"
	"easeio/internal/check"
	"easeio/internal/experiments"
)

// Blueprint is one named, registered application. The factory builds a
// fresh analyzed instance per sweep worker; the prototype is one cached
// instance, analyzed exactly once under a single-flight gate, that
// serves every job's validation and description needs without
// re-running the front-end. Peripheral models are read-only, so
// concurrent sessions, each on its own device, may share one analyzed
// instance (task.App.AnalyzeOnce; the root package's
// TestConcurrentSessionsShareBuiltApp runs two on one weather app).
type Blueprint struct {
	// Name is the registry key.
	Name string
	// Factory builds a fresh analyzed app instance (one per sweep worker).
	Factory experiments.AppFactory

	once  sync.Once
	proto *apps.Bench
	err   error
}

// Prototype returns the blueprint's cached analyzed instance, building it
// on first use. Concurrent first calls are single-flight: the factory —
// and therefore frontend.Analyze, which mutates the app it analyzes —
// runs exactly once per blueprint, and every caller observes the same
// analyzed app.
func (b *Blueprint) Prototype() (*apps.Bench, error) {
	b.once.Do(func() { b.proto, b.err = b.Factory() })
	return b.proto, b.err
}

// Info describes a registered blueprint for the HTTP surface.
type Info struct {
	Name    string `json:"name"`
	App     string `json:"app"`
	Tasks   int    `json:"tasks"`
	Vars    int    `json:"vars"`
	IOSites int    `json:"io_sites"`
	DMAs    int    `json:"dma_sites"`
}

// Describe analyzes the blueprint (once) and reports its structure.
func (b *Blueprint) Describe() (Info, error) {
	bench, err := b.Prototype()
	if err != nil {
		return Info{}, err
	}
	app := bench.App
	return Info{
		Name:    b.Name,
		App:     app.Name,
		Tasks:   len(app.Tasks),
		Vars:    len(app.Vars),
		IOSites: len(app.Sites),
		DMAs:    len(app.DMAs),
	}, nil
}

// Registry maps blueprint names to registered applications. It is safe
// for concurrent use.
type Registry struct {
	mu  sync.RWMutex
	m   map[string]*Blueprint
	log *slog.Logger
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{m: make(map[string]*Blueprint)} }

// SetLogger installs a structured logger for registration events. A nil
// logger (the default) discards them.
func (r *Registry) SetLogger(l *slog.Logger) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.log = l
}

// Register adds a named blueprint. Registering a duplicate name is an
// error — jobs refer to blueprints by name, and silently swapping the
// factory under running jobs would make results unreproducible.
func (r *Registry) Register(name string, factory experiments.AppFactory) error {
	if name == "" || factory == nil {
		return fmt.Errorf("service: blueprint needs a name and a factory")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.m[name]; dup {
		return fmt.Errorf("service: blueprint %q already registered", name)
	}
	r.m[name] = &Blueprint{Name: name, Factory: factory}
	if r.log != nil {
		r.log.Info("blueprint registered", "name", name, "count", len(r.m))
	}
	return nil
}

// Lookup returns the named blueprint.
func (r *Registry) Lookup(name string) (*Blueprint, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	b, ok := r.m[name]
	return b, ok
}

// LookupFactory returns the named blueprint's factory. It is the
// fleet.BlueprintSource adapter: a registry-backed coordinator or worker
// resolves job app names through the same table the job manager uses.
func (r *Registry) LookupFactory(name string) (experiments.AppFactory, bool) {
	b, ok := r.Lookup(name)
	if !ok {
		return nil, false
	}
	return b.Factory, true
}

// Names returns the registered blueprint names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.m))
	for name := range r.m {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// RegisterPaperBenches registers the paper's prebuilt benchmark
// applications (§5, Table 3) under their conventional names: the three
// uni-task apps, the FIR filter with and without the Exclude annotation,
// the DNN weather classifier in both buffering modes, and the Figure 2c
// branch scenario.
func RegisterPaperBenches(r *Registry) error {
	benches := []struct {
		name    string
		factory experiments.AppFactory
	}{
		{"dma", func() (*apps.Bench, error) { return apps.NewDMAApp(apps.DefaultDMAConfig()) }},
		{"temp", func() (*apps.Bench, error) { return apps.NewTempApp(apps.DefaultTempConfig()) }},
		{"sensor", func() (*apps.Bench, error) { return apps.NewSensorApp(apps.DefaultSensorConfig()) }},
		{"lea", func() (*apps.Bench, error) { return apps.NewLEAApp(apps.DefaultLEAConfig()) }},
		{"fir", func() (*apps.Bench, error) { return apps.NewFIRApp(apps.DefaultFIRConfig()) }},
		{"fir-op", func() (*apps.Bench, error) {
			cfg := apps.DefaultFIRConfig()
			cfg.ExcludeCoef = true
			return apps.NewFIRApp(cfg)
		}},
		{"weather", func() (*apps.Bench, error) { return apps.NewWeatherApp(apps.DefaultWeatherConfig()) }},
		{"weather-db", func() (*apps.Bench, error) {
			cfg := apps.DefaultWeatherConfig()
			cfg.Buffers = apps.DoubleBuffer
			return apps.NewWeatherApp(cfg)
		}},
		{"branch", func() (*apps.Bench, error) { return apps.NewBranchApp(apps.DefaultBranchConfig()) }},
	}
	for _, b := range benches {
		if err := r.Register(b.name, b.factory); err != nil {
			return err
		}
	}
	return nil
}

// RegisterBenches registers the paper benches (RegisterPaperBenches)
// plus the checker's Figure 6 WAR-via-DMA scenario as "fig6": the app
// set the command-line tools and the fleet resolve names against.
func RegisterBenches(r *Registry) error {
	if err := RegisterPaperBenches(r); err != nil {
		return err
	}
	return r.Register("fig6", check.Fig6Bench)
}
