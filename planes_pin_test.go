package repro_test

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/kflight"
	"repro/internal/klat"
	"repro/internal/kstat"
	"repro/internal/workload"
)

// TestPlanesOutputPinned pins what the three planes a default boot
// attaches report after File Intensive 1 and Graphics Low: the SHA-256 of
// the JSON encoding of the kstat Snapshot, the klat Dump and the kflight
// EngineDumps.  A change to how the planes record (handles, record
// allocation, hop layout) must leave every byte of their output alone.
func TestPlanesOutputPinned(t *testing.T) {
	s, err := core.Boot(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range []workload.Row{workload.FileIntensive1, workload.GraphicsLow} {
		if _, err := workload.Run(row, s.WorkloadEnv()); err != nil {
			t.Fatal(err)
		}
	}
	eng := s.Kernel.CPU
	for _, c := range []struct {
		plane string
		out   any
		want  string
	}{
		{"kstat", kstat.For(eng).Snapshot(), "4fbd3e7d9716c8ea3ac6ac2035de0610d066834dacfc4aa075b74af755cde51d"},
		{"klat", klat.For(eng).Dump(), "4ccc28d6d17066411306dd15be6086aa6f3f60324ab2b5f81880154216861f80"},
		{"kflight", kflight.For(eng).EngineDumps(), "3b949aa7e4fd2b013a600c2670085670b604fa31fdd4e3ebebd8a5ae46855224"},
	} {
		b, err := json.Marshal(c.out)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(b)); got != c.want {
			t.Errorf("%s output hashes to %s, pinned %s (%d bytes)", c.plane, got, c.want, len(b))
		}
	}
}
