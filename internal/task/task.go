// Package task defines the blueprint of a task-based intermittent
// application: atomic tasks, task-shared non-volatile variables, I/O call
// sites with re-execution semantics, I/O blocks, and DMA sites.
//
// A blueprint is immutable and runtime-agnostic: the same App runs under
// Alpaca, InK and EaseIO. Per-run state (variable addresses, lock flags,
// private copies) belongs to the runtime that instantiates the app on a
// device. This mirrors the paper's setup, where each benchmark is the same
// C program built against three runtime libraries (§5.2, Table 3).
package task

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"easeio/internal/units"
)

// Semantic is an I/O re-execution semantic (§3.1 of the paper).
type Semantic uint8

const (
	// Always re-executes the operation after every power failure — the
	// default behaviour of task-based systems.
	Always Semantic = iota
	// Single executes the operation at most once: if it completed in a
	// previous energy cycle it is never repeated.
	Single
	// Timely re-executes the operation only if more than Window has
	// elapsed since its last successful execution.
	Timely
)

// String returns the paper's name for the semantic.
func (s Semantic) String() string {
	switch s {
	case Always:
		return "Always"
	case Single:
		return "Single"
	case Timely:
		return "Timely"
	default:
		return fmt.Sprintf("Semantic(%d)", uint8(s))
	}
}

// App is an immutable application blueprint.
type App struct {
	Name  string
	Tasks []*Task
	Vars  []*NVVar
	Sites []*IOSite
	Blks  []*IOBlock
	DMAs  []*DMASite

	// CheckOutput, if non-nil, verifies the final non-volatile memory
	// against the result a continuous-power execution would produce,
	// reading each variable's committed master copy through m.
	CheckOutput func(m CheckMem) bool

	entry *Task
	// analyzeOnce serializes the front-end's single analysis pass across
	// concurrent sessions (see AnalyzeOnce).
	analyzeOnce sync.Once
	analyzeErr  error
}

// AnalyzeOnce runs analyze(a) at most once across all concurrent callers
// and returns that one call's error to every caller, then and later. The
// compiler front-end mutates the blueprint while analyzing, and an
// analyzed blueprint — its peripheral models included, which no
// operation writes — is then read-only and shared lock-free: concurrent
// sessions of one built app each run on their own device (the root
// package's TestConcurrentSessionsShareBuiltApp runs two on one weather
// app under the race detector). Sessions racing to analyze the same app
// must funnel through this gate; sync.Once also publishes the analysis
// results (happens-before) to every caller that returns.
func (a *App) AnalyzeOnce(analyze func(*App) error) error {
	a.analyzeOnce.Do(func() { a.analyzeErr = analyze(a) })
	return a.analyzeErr
}

// Analyzed reports whether every task carries front-end metadata
// (TaskMeta.Analyzed) — set by the front-end, or by hand in tests. It is
// the one "is this app analyzed" test; runtimes refuse to attach to an
// app that fails it.
func (a *App) Analyzed() bool {
	for _, t := range a.Tasks {
		if t.Meta == nil || !t.Meta.Analyzed {
			return false
		}
	}
	return true
}

// CheckMem is the read surface CheckOutput verifies against: both
// methods see the committed master copy of each variable. Checking is
// outside the simulation's cost model, so Equal may compare a whole
// range in one call.
type CheckMem interface {
	// Read returns word i of v's committed master copy.
	Read(v *NVVar, i int) uint16
	// Equal reports whether words [off, off+len(want)) of v's committed
	// master copy equal want.
	Equal(v *NVVar, off int, want []uint16) bool
}

// NewApp returns an empty application blueprint.
func NewApp(name string) *App { return &App{Name: name} }

// Entry returns the first task executed after the initial boot.
func (a *App) Entry() *Task { return a.entry }

// Task is one atomic, all-or-nothing unit of execution.
type Task struct {
	ID   int
	Name string
	// Body is the task's code. It must end by calling Exec.Next or
	// Exec.Done.
	Body Body
	// Meta holds the metadata the compiler front-end computes.
	Meta *TaskMeta
	// Hints lists variables the front-end must treat as accessed by this
	// task even if its analysis run did not observe the access (variables
	// touched only on data-dependent branches). A static analysis would
	// find these conservatively; the trace-based front-end needs the
	// declaration.
	Hints []*NVVar
}

// Touches declares front-end hint variables for the task (see Hints).
func (t *Task) Touches(vars ...*NVVar) *Task {
	t.Hints = append(t.Hints, vars...)
	return t
}

// Body is the signature of a task body. The concrete execution context is
// defined by the kernel package; tasks receive it through the Exec
// interface to keep this package dependency-free.
type Body func(Exec)

// Exec is the capability surface a task body needs. The kernel's Ctx
// implements it for real execution; the compiler front-end implements it
// with a recorder for analysis runs. Keeping it here (consumer-side
// interface) lets blueprints stay independent of the execution engine.
type Exec interface {
	// Compute charges n cycles of useful CPU work.
	Compute(n int64)
	// Load/Store access word 0 of a task-shared variable.
	Load(v *NVVar) uint16
	Store(v *NVVar, val uint16)
	// LoadAt/StoreAt access word i of a task-shared variable.
	LoadAt(v *NVVar, i int) uint16
	StoreAt(v *NVVar, i int, val uint16)
	// LoadSum returns the uint16 sum of words [off, off+n) of v. It
	// behaves exactly as n successive LoadAt(v, off+j) calls — same
	// charges, same failure word if power gives out mid-run, same
	// analysis record — but lets the engine charge the run in bulk.
	LoadSum(v *NVVar, off, n int) uint16
	// CallIO executes (or skips) an I/O site and returns its value. For
	// void sites the value is meaningless.
	CallIO(s *IOSite) uint16
	// CallIOAt is CallIO for a site invoked in a loop: idx distinguishes
	// dynamic instances so that each loop iteration gets its own lock
	// flag (paper §6, "Re-execution Semantics in Loops").
	CallIOAt(s *IOSite, idx int) uint16
	// IOBlock runs body within the given I/O block's atomic scope.
	IOBlock(b *IOBlock, body func())
	// DMACopy performs a DMA transfer described by site d.
	DMACopy(d *DMASite, src, dst Loc, words int)

	// LEAFir runs the LEA FIR kernel over LEA-RAM word offsets:
	// out[i] = Σ_j coef[j]·in[i+j] for i in [0, inLen−taps], on int16
	// samples with saturation.
	LEAFir(inOff, coefOff, outOff, inLen, taps int)
	// LEARelu clamps n int16 words at LEA-RAM offset off to ≥ 0.
	LEARelu(off, n int)
	// LEADot returns the int32 dot product of two n-word int16 vectors in
	// LEA-RAM.
	LEADot(aOff, bOff, n int) int32
	// LEAMacs charges a raw LEA vector operation of n multiply-
	// accumulates without touching memory (used by synthetic workloads).
	LEAMacs(n int64)
	// ReadLEA/WriteLEA are CPU accesses to LEA-RAM.
	ReadLEA(off int) uint16
	WriteLEA(off int, val uint16)

	// Op charges a peripheral operation of the given duration and energy
	// (used by the peripheral models in internal/periph).
	Op(dt time.Duration, e units.Energy)
	// Now returns persistent wall-clock time from the timekeeper.
	Now() time.Duration
	// Rand is the measurement-world randomness driving physical value
	// processes; sampling it costs nothing.
	Rand() *rand.Rand

	// Next transitions to task t (commits this task's state).
	Next(t *Task)
	// Done ends the application (commits this task's state).
	Done()
}

// NVVar is a task-shared variable living in non-volatile memory.
type NVVar struct {
	ID    int
	Name  string
	Words int
	// Init holds initial contents (len ≤ Words); missing words are zero.
	Init []uint16
	// Const marks variables that the application never writes after
	// initialization (e.g. filter coefficients). The front-end uses this
	// to validate Exclude annotations.
	Const bool
	// TimeSensitive marks variables whose final value legitimately depends
	// on *when* the run's I/O executed: sensor readings and values derived
	// from them. Injecting a power failure shifts wall-clock time, so a
	// replay's re-sampled peripherals produce different (but still
	// correct) values. Differential checkers skip these variables when
	// comparing final memory word-for-word against a golden run and rely
	// on the app's CheckOutput invariant instead.
	TimeSensitive bool
}

// IOSite is a static I/O call site: one _call_IO in the paper's API.
type IOSite struct {
	ID   int
	Name string
	// Sem is the programmer-annotated re-execution semantic.
	Sem Semantic
	// Window is the freshness window for Timely sites.
	Window time.Duration
	// Returns reports whether the operation produces a value that EaseIO
	// must privatize and restore on skipped re-executions.
	Returns bool
	// Instances is the number of dynamic instances the site has when
	// invoked in a loop (1 for straight-line code). EaseIO allocates one
	// lock flag and one private value slot per instance.
	Instances int
	// Freshness, when positive, bounds how stale the site's value may be
	// when a task consuming it commits: if more than Freshness of
	// wall-clock time (on-time plus off-time) has passed since the value
	// was last physically sampled, the consuming commit is a staleness
	// violation. It is a *specification* the checker's freshness oracle
	// enforces, orthogonal to Window: Window tells the runtime when to
	// re-execute, Freshness tells the checker what the application can
	// tolerate. Only meaningful on value-returning sites.
	Freshness time.Duration
	// Exec performs the actual peripheral operation. It runs with the
	// task's execution context and the dynamic loop instance index (0 for
	// straight-line sites), returning the operation's value (0 for void
	// operations).
	Exec func(e Exec, idx int) uint16
	// DependsOn lists I/O sites whose re-execution forces this site to
	// re-execute too (data dependence, §3.3.2). In the paper the compiler
	// front-end derives these from the AST; here the application builder
	// declares them and the front-end completes the transitive closure.
	DependsOn []*IOSite
}

// IOBlock groups multiple I/O operations that must execute atomically
// under a shared re-execution semantic (_IO_block_begin/_IO_block_end).
type IOBlock struct {
	ID   int
	Name string
	Sem  Semantic
	// Window is the block's freshness window for Timely blocks.
	Window time.Duration
	// Members and SubBlocks are filled by the front-end from an analysis
	// run; they define the block's scope for semantic precedence.
	Members   []*IOSite
	SubBlocks []*IOBlock
}

// DMAKind classifies a DMA copy by the volatility of its endpoints, which
// determines the runtime semantic EaseIO assigns (§4.3).
type DMAKind uint8

const (
	// DMAToNonVolatile covers volatile→NV and NV→NV copies, handled as
	// Single.
	DMAToNonVolatile DMAKind = iota
	// DMANonVolatileToVolatile covers NV→volatile copies, handled as
	// Private (two-phase copy through a privatization buffer).
	DMANonVolatileToVolatile
	// DMAVolatileToVolatile covers volatile→volatile copies, handled as
	// Always.
	DMAVolatileToVolatile
)

// String returns the paper's name for the DMA classification.
func (k DMAKind) String() string {
	switch k {
	case DMAToNonVolatile:
		return "Single"
	case DMANonVolatileToVolatile:
		return "Private"
	case DMAVolatileToVolatile:
		return "Always"
	default:
		return fmt.Sprintf("DMAKind(%d)", uint8(k))
	}
}

// DMASite is a static _DMA_copy call site.
type DMASite struct {
	ID   int
	Name string
	// Exclude marks DMAs the programmer excluded from privatization
	// (constant source data, §4.3); the runtime then treats the copy as
	// Always and skips the two-phase commit.
	Exclude bool
	// DependsOn lists I/O sites whose output feeds this DMA
	// (RelatedConstFlag, §4.3.1).
	DependsOn []*IOSite
}

// Loc names one endpoint of a DMA transfer: either a word range of a
// task-shared variable (resolved by the runtime to its master non-volatile
// address) or a raw volatile address such as LEA-RAM.
type Loc struct {
	Var *NVVar
	Off int
	// RawBank/RawWord address a raw location when Var is nil.
	RawBank uint8
	RawWord int
}

// VarLoc returns a Loc for word off of variable v.
func VarLoc(v *NVVar, off int) Loc { return Loc{Var: v, Off: off} }

// RawLoc returns a Loc for a raw bank/word address.
func RawLoc(bank uint8, word int) Loc { return Loc{RawBank: bank, RawWord: word} }

// String renders the location.
func (l Loc) String() string {
	if l.Var != nil {
		return fmt.Sprintf("%s+%d", l.Var.Name, l.Off)
	}
	return fmt.Sprintf("raw(%d)+%d", l.RawBank, l.RawWord)
}
