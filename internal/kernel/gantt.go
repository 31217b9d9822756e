// Gantt: an ASCII timeline of a traced run — task attempts, I/O
// decisions and outages on a shared wall-clock axis, for easeio-sim's
// -gantt flag. Like Figure 1's energy trace, but of the execution.

package kernel

import (
	"fmt"
	"io"
	"time"
)

// RenderGantt draws the trace buffer's timeline with the given width in
// character cells. Each task gets a lane; the power lane shows on/off.
func RenderGantt(buf *TraceBuffer, width int, w io.Writer) {
	if len(buf.Events) == 0 {
		fmt.Fprintln(w, "(no events)")
		return
	}
	if width < 20 {
		width = 20
	}
	end := buf.Events[len(buf.Events)-1].Wall
	if end <= 0 {
		end = time.Millisecond
	}
	cell := func(t time.Duration) int {
		c := int(int64(t) * int64(width-1) / int64(end))
		if c < 0 {
			c = 0
		}
		if c >= width {
			c = width - 1
		}
		return c
	}

	// Power lane: '#' while on, '.' while off. Off intervals start at a
	// power-failure event and end at the next boot.
	power := make([]byte, width)
	for i := range power {
		power[i] = '#'
	}
	var offFrom time.Duration
	inOff := false
	mark := func(from, to time.Duration) {
		for c := cell(from); c <= cell(to); c++ {
			power[c] = '.'
		}
	}
	for _, e := range buf.Events {
		switch e.Kind {
		case EvPowerFailure:
			offFrom, inOff = e.Wall, true
		case EvBoot:
			if inOff {
				mark(offFrom, e.Wall)
				inOff = false
			}
		}
	}
	if inOff {
		mark(offFrom, end)
	}

	// Task lanes: '=' spans an attempt; 'X' marks an interrupted attempt,
	// 'C' a commit.
	type span struct {
		from time.Duration
		to   time.Duration
		mark byte
	}
	lanes := map[string][]span{}
	var order []string
	open := map[string]time.Duration{}
	closeOpen := func(at time.Duration, mark byte) {
		for name, from := range open {
			lanes[name] = append(lanes[name], span{from, at, mark})
			delete(open, name)
		}
	}
	for _, e := range buf.Events {
		switch e.Kind {
		case EvTaskBegin:
			name := taskOf(e.Detail)
			if _, seen := lanes[name]; !seen {
				lanes[name] = nil
				order = append(order, name)
			}
			closeOpen(e.Wall, 'X') // a new begin implies the old attempt died
			open[name] = e.Wall
		case EvTaskCommit:
			name := taskOf(e.Detail)
			if from, ok := open[name]; ok {
				lanes[name] = append(lanes[name], span{from, e.Wall, 'C'})
				delete(open, name)
			}
		case EvPowerFailure:
			closeOpen(e.Wall, 'X')
		}
	}
	closeOpen(end, 'X')

	fmt.Fprintf(w, "%-10s |%s| 0 .. %v\n", "power", string(power), end.Round(time.Microsecond))
	for _, name := range order {
		lane := make([]byte, width)
		for i := range lane {
			lane[i] = ' '
		}
		for _, s := range lanes[name] {
			from, to := cell(s.from), cell(s.to)
			for c := from; c <= to; c++ {
				lane[c] = '='
			}
			lane[to] = s.mark
		}
		fmt.Fprintf(w, "%-10s |%s|\n", name, string(lane))
	}
	fmt.Fprintln(w, "legend: '='=attempt  C=commit  X=interrupted  '.'=recharging")
}
