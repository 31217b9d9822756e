// Table 6 (§5.4.5): memory and code-size requirements per application per
// runtime.
//
// FRAM and RAM columns are *measured* from the simulator: FRAM is the
// allocator watermark (application master data plus runtime metadata —
// lock flags, timestamps, private copies, shadow buffers, the DMA
// privatization buffer), RAM is the written footprint of the volatile
// banks plus a fixed stack allowance. The .text column is a documented
// model (this reproduction has no MSP430 linker): a per-runtime base plus
// per-feature increments calibrated against the magnitudes the paper
// reports. The quantity Table 6 demonstrates — EaseIO costs ≈1 KB more
// code and a configurable privatization buffer, with zero DMA buffer for
// DMA-free apps — is preserved.

package experiments

import (
	"fmt"

	"easeio/internal/apps"
	"easeio/internal/kernel"
	"easeio/internal/mem"
	"easeio/internal/power"
	"easeio/internal/task"
)

// Table6Kinds are the compared runtimes.
var Table6Kinds = []RuntimeKind{Alpaca, InK, EaseIO}

// Table6Cell is one (app, runtime) measurement, in bytes.
type Table6Cell struct {
	Text, RAM, FRAM int
}

// Table6Data holds the table: [app][runtime].
type Table6Data struct {
	Apps  []string
	Cells [][]Table6Cell
}

// table6Apps returns the measured applications in the paper's row order.
func table6Apps() []struct {
	label string
	build AppFactory
} {
	return []struct {
		label string
		build AppFactory
	}{
		{"LEA", func() (*apps.Bench, error) { return apps.NewLEAApp(apps.DefaultLEAConfig()) }},
		{"DMA", func() (*apps.Bench, error) { return apps.NewDMAApp(apps.DefaultDMAConfig()) }},
		{"Temp.", func() (*apps.Bench, error) { return apps.NewTempApp(apps.DefaultTempConfig()) }},
		{"FIR Filter", func() (*apps.Bench, error) { return apps.NewFIRApp(apps.DefaultFIRConfig()) }},
		{"Weather App.", func() (*apps.Bench, error) { return apps.NewWeatherApp(apps.DefaultWeatherConfig()) }},
	}
}

// stackAllowance is the fixed SRAM stack/locals estimate added to the RAM
// column (every runtime needs a working stack).
const stackAllowance = 16

// Table6 measures the memory footprint of every app under every runtime
// by executing one continuous-power run and reading the allocator.
func Table6() (*Table6Data, error) {
	cases := table6Apps()
	out := &Table6Data{Cells: make([][]Table6Cell, len(cases))}
	for ai, c := range cases {
		out.Apps = append(out.Apps, c.label)
		out.Cells[ai] = make([]Table6Cell, len(Table6Kinds))
		for ki, k := range Table6Kinds {
			bench, err := c.build()
			if err != nil {
				return nil, err
			}
			sess := kernel.NewSession(NewRuntime(k), bench.App, power.Continuous{})
			if _, err := sess.Run(0); err != nil {
				return nil, fmt.Errorf("table6 %s/%s: %w", c.label, k, err)
			}
			dev := sess.Device()
			cell := Table6Cell{
				Text: codeSize(k, bench.App),
				RAM: 2*(dev.Mem.HighWater(mem.SRAM)+dev.Mem.HighWater(mem.LEARAM)) +
					stackAllowance,
				FRAM: 2 * dev.Mem.Allocated(mem.FRAM),
			}
			out.Cells[ai][ki] = cell
		}
	}
	return out, nil
}

// Code-size model parameters (bytes). Bases reflect each runtime's kernel
// complexity; increments reflect the code the compiler emits per task, per
// I/O control block, and per DMA handler.
const (
	textBaseAlpaca = 760
	textBaseInK    = 2100 // InK ships a reactive scheduler kernel
	textBaseEaseIO = 980

	textPerTask      = 64
	textPerIOAlways  = 18
	textPerIOControl = 140 // EaseIO if-structure per _call_IO (Fig 5)
	textPerBlock     = 96
	textPerDMAPlain  = 48
	textPerDMAEaseIO = 210 // classification + two-phase privatization
	textPerRegion    = 72  // regional privatization/recovery pair
	textPerWARVar    = 26
	textPerShadowVar = 22
)

// codeSize evaluates the .text model for one app under one runtime.
func codeSize(k RuntimeKind, app *task.App) int {
	nTasks := len(app.Tasks)
	nSites := len(app.Sites)
	nDMA := len(app.DMAs)
	switch k {
	case Alpaca:
		war := 0
		for _, t := range app.Tasks {
			war += len(t.Meta.WAR)
		}
		return textBaseAlpaca + nTasks*textPerTask + nSites*textPerIOAlways +
			nDMA*textPerDMAPlain + war*textPerWARVar
	case InK:
		return textBaseInK + nTasks*textPerTask + nSites*textPerIOAlways +
			nDMA*textPerDMAPlain + len(app.Vars)*textPerShadowVar
	default: // EaseIO and EaseIO/Op share the code
		regions := 0
		for _, t := range app.Tasks {
			regions += len(t.Meta.Regions)
		}
		return textBaseEaseIO + nTasks*textPerTask + nSites*textPerIOControl +
			len(app.Blks)*textPerBlock + nDMA*textPerDMAEaseIO + regions*textPerRegion
	}
}

// Render prints the table.
func (d *Table6Data) Render() string {
	header := []string{"App"}
	for _, k := range Table6Kinds {
		header = append(header, k.String()+" .text", k.String()+" RAM", k.String()+" FRAM")
	}
	rows := make([][]string, len(d.Apps))
	for ai, label := range d.Apps {
		row := []string{label}
		for ki := range Table6Kinds {
			c := d.Cells[ai][ki]
			row = append(row, fmt.Sprintf("%d", c.Text), fmt.Sprintf("%d", c.RAM),
				fmt.Sprintf("%d", c.FRAM))
		}
		rows[ai] = row
	}
	return "Table 6 — memory and code size requirements (bytes)\n" + Table(header, rows)
}
