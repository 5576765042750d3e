package bench

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/cpu"
)

// TestBracketReturnsOpError: an op that fails on its k-th call, in the
// warm phase or in the measured one, makes bracket return that error and
// no count; the calls stop at the failure, and the window opens only for
// the measured phase and closes even when that phase fails.
func TestBracketReturnsOpError(t *testing.T) {
	const warm, n = 5, 10
	for _, tc := range []struct {
		name   string
		failAt int // 1-based call that fails
	}{{"warm", 3}, {"measured", warm + 4}} {
		t.Run(tc.name, func(t *testing.T) {
			eng := cpu.NewEngine(cpu.Pentium133())
			boom := fmt.Errorf("call %d failed", tc.failAt)
			calls, opened, closed := 0, false, false
			d, err := bracket(eng, warm, n, func() error {
				calls++
				eng.Stall(100) // a measured call costs cycles
				if calls == tc.failAt {
					return boom
				}
				return nil
			}, func() func() {
				opened = true
				return func() { closed = true }
			})
			if !errors.Is(err, boom) {
				t.Fatalf("bracket = %+v, %v; want the op's error", d, err)
			}
			if d != (cpu.Counters{}) {
				t.Errorf("bracket returned a count with the error: %+v", d)
			}
			if calls != tc.failAt {
				t.Errorf("op ran %d times, want it stopped at call %d", calls, tc.failAt)
			}
			if measured := tc.failAt > warm; opened != measured || closed != measured {
				t.Errorf("window opened=%v closed=%v, want both %v", opened, closed, measured)
			}
		})
	}
}

// TestClientsFirstErrorByIndex: every client runs, and the error returned
// is the lowest-numbered failing client's.
func TestClientsFirstErrorByIndex(t *testing.T) {
	ran := make([]bool, 4)
	err := Clients(len(ran), func(i int) error {
		ran[i] = true
		if i%2 == 1 {
			return fmt.Errorf("client %d", i)
		}
		return nil
	})
	if err == nil || err.Error() != "client 1" {
		t.Errorf("Clients = %v, want client 1's error", err)
	}
	for i, r := range ran {
		if !r {
			t.Errorf("client %d never ran", i)
		}
	}
}
