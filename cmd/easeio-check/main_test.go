package main

import (
	"testing"
	"time"
)

func TestValidateDefaults(t *testing.T) {
	for _, c := range []struct {
		grid    int
		off     time.Duration
		workers int
		ok      bool
	}{
		{0, 0, 0, true},
		{128, time.Millisecond, 4, true},
		{-1, 0, 0, false},
		{0, -time.Microsecond, 0, false},
		{0, 0, -2, false},
	} {
		err := validateDefaults(c.grid, c.off, c.workers)
		if (err == nil) != c.ok {
			t.Errorf("validateDefaults(%d, %v, %d) = %v, want ok=%v", c.grid, c.off, c.workers, err, c.ok)
		}
	}
}
