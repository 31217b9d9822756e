package main

import (
	"testing"
	"time"

	"easeio/internal/check"
	"easeio/internal/experiments"
)

func TestValidateDefaults(t *testing.T) {
	easeio := []experiments.RuntimeKind{experiments.EaseIO}
	all, err := resolveKinds("all")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		grid    int
		off     time.Duration
		workers int
		broken  bool
		kinds   []experiments.RuntimeKind
		ok      bool
	}{
		{0, 0, 0, false, easeio, true},
		{128, time.Millisecond, 4, false, all, true},
		{-1, 0, 0, false, easeio, false},
		{0, -time.Microsecond, 0, false, easeio, false},
		{0, 0, -2, false, easeio, false},
		{0, 0, 0, true, easeio, true},
		{0, 0, 0, true, all, false},
		{0, 0, 0, true, []experiments.RuntimeKind{experiments.Alpaca}, false},
	} {
		cfg := check.Config{Grid: c.grid, Off: c.off, Workers: c.workers}
		err := validateFlags(cfg, c.broken, c.kinds)
		if (err == nil) != c.ok {
			t.Errorf("validateFlags(%+v, %v, %v) = %v, want ok=%v",
				cfg, c.broken, c.kinds, err, c.ok)
		}
	}
}
