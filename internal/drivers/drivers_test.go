package drivers

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"

	"repro/internal/cpu"
	"repro/internal/iosys"
	"repro/internal/mach"
	"repro/internal/vfs"
)

type rig struct {
	k    *mach.Kernel
	intr *iosys.InterruptController
	dma  *iosys.DMAController
	hrm  *iosys.HRM
	disk *Disk
}

func newRig(t testing.TB) *rig {
	t.Helper()
	k := mach.New(cpu.Pentium133())
	l := k.Layout()
	intr := iosys.NewInterruptController(k.CPU, l, 32)
	dma := iosys.NewDMAController(k.CPU, l, 4)
	hrm := iosys.NewHRM(k.CPU, l)
	disk, err := NewDisk(k.CPU, dma, intr, 14, 4096)
	if err != nil {
		t.Fatalf("NewDisk: %v", err)
	}
	return &rig{k: k, intr: intr, dma: dma, hrm: hrm, disk: disk}
}

func TestDiskReadWriteRoundTrip(t *testing.T) {
	r := newRig(t)
	data := bytes.Repeat([]byte{0xAB}, 2*SectorSize)
	if err := r.disk.WriteSectors(10, data); err != nil {
		t.Fatalf("WriteSectors: %v", err)
	}
	buf := make([]byte, 2*SectorSize)
	if err := r.disk.ReadSectors(10, buf); err != nil {
		t.Fatalf("ReadSectors: %v", err)
	}
	if !bytes.Equal(buf, data) {
		t.Fatal("round trip mismatch")
	}
	// Unwritten sectors read as zeros.
	if err := r.disk.ReadSectors(100, buf); err != nil {
		t.Fatalf("read unwritten: %v", err)
	}
	if buf[0] != 0 {
		t.Fatal("unwritten sector not zero")
	}
	reads, writes := r.disk.Counts()
	if reads != 4 || writes != 2 {
		t.Fatalf("counts: %d %d", reads, writes)
	}
	if r.intr.Count(14) != 3 {
		t.Fatalf("interrupts = %d, want 3", r.intr.Count(14))
	}
}

// TestRewriteOwnsItsSectors: on both sector stores, a rewrite copies
// into the sector's storage, so changing the caller's buffer afterwards,
// or the buffer a read filled, changes nothing the device returns.
func TestRewriteOwnsItsSectors(t *testing.T) {
	for name, dev := range map[string]vfs.BlockDev{"disk": newRig(t).disk, "ramdisk": vfs.NewRAMDisk(16)} {
		t.Run(name, func(t *testing.T) {
			data := make([]byte, 2*SectorSize)
			buf := make([]byte, 2*SectorSize)
			for _, b := range []byte{1, 2} {
				for i := range data {
					data[i] = b
				}
				if err := dev.WriteSectors(7, data); err != nil {
					t.Fatalf("WriteSectors: %v", err)
				}
				if err := dev.ReadSectors(7, buf); err != nil {
					t.Fatalf("ReadSectors: %v", err)
				}
				data[0], data[SectorSize], buf[1] = 9, 9, 9
				if err := dev.ReadSectors(7, buf); err != nil {
					t.Fatalf("ReadSectors: %v", err)
				}
				if want := bytes.Repeat([]byte{b}, 2*SectorSize); !bytes.Equal(buf, want) {
					t.Fatalf("write %d: read back %v..., want all %d", b, buf[:4], b)
				}
			}
		})
	}
}

func TestDiskErrors(t *testing.T) {
	r := newRig(t)
	if err := r.disk.ReadSectors(0, make([]byte, 100)); err != ErrBadSize {
		t.Fatalf("bad size err = %v", err)
	}
	if err := r.disk.ReadSectors(4095, make([]byte, 2*SectorSize)); err != ErrBadSector {
		t.Fatalf("overflow err = %v", err)
	}
	if err := r.disk.WriteSectors(9999, make([]byte, SectorSize)); err != ErrBadSector {
		t.Fatalf("write overflow err = %v", err)
	}
	// sector+n would wrap past 2^64 and pass a naive bound check.
	if err := r.disk.ReadSectors(1<<64-1, make([]byte, 2*SectorSize)); err != ErrBadSector {
		t.Fatalf("wrapping read err = %v", err)
	}
	if err := r.disk.WriteSectors(1<<64-1, make([]byte, 2*SectorSize)); err != ErrBadSector {
		t.Fatalf("wrapping write err = %v", err)
	}
}

func TestConsole(t *testing.T) {
	eng := cpu.NewEngine(cpu.Pentium133())
	c := NewConsole(eng)
	c.WriteString("hello ")
	c.WriteString("wpos")
	if c.Contents() != "hello wpos" {
		t.Fatalf("contents = %q", c.Contents())
	}
	if eng.Counters().Instructions == 0 {
		t.Fatal("console output should cost instructions")
	}
}

func TestFramebufferFill(t *testing.T) {
	eng := cpu.NewEngine(cpu.Pentium133())
	fb := NewFramebuffer(eng, 0xA0000, 64, 48)
	fb.Fill(10, 10, 20, 5, 7)
	if fb.Pixel(10, 10) != 7 || fb.Pixel(29, 14) != 7 {
		t.Fatal("fill did not paint")
	}
	if fb.Pixel(9, 10) != 0 || fb.Pixel(30, 10) != 0 {
		t.Fatal("fill painted outside the rect")
	}
	w, h := fb.Bounds()
	if w != 64 || h != 48 {
		t.Fatalf("bounds %dx%d", w, h)
	}
	// Clipping at the right edge must not panic.
	fb.Fill(60, 47, 100, 100, 9)
	if fb.Pixel(63, 47) != 9 {
		t.Fatal("clipped fill missing")
	}

	// A rectangle partly or wholly outside the buffer paints exactly its
	// part inside it, wraps into no neighbouring row, and is charged
	// exactly the stores of that part: a Write and an Instr per painted
	// row, nothing for pixels it does not store.
	const W, H = 64, 8
	for _, tc := range []struct {
		name       string
		x, y, w, h int
	}{
		{"inside", 10, 2, 20, 3},
		{"off right", 70, 0, 4, 2},
		{"across right", 60, 1, 10, 2},
		{"off left", -10, 0, 4, 2},
		{"across left", -4, 2, 8, 1},
		{"above", 5, -3, 4, 2},
		{"across top", 5, -1, 4, 3},
		{"below", 5, 8, 4, 2},
		{"across bottom", 5, 6, 4, 5},
		{"over all", -5, -5, 100, 100},
		{"zero width", 5, 2, 0, 3},
		{"zero height", 5, 2, 3, 0},
		{"negative width", 5, 2, -3, 2},
		{"negative height", 5, 2, 2, -3},
	} {
		eng, ref := cpu.NewEngine(cpu.Pentium133()), cpu.NewEngine(cpu.Pentium133())
		fb := NewFramebuffer(eng, 0xA0000, W, H)
		fb.Fill(tc.x, tc.y, tc.w, tc.h, 5)
		for py := 0; py < H; py++ {
			inY := py >= tc.y && py < tc.y+tc.h
			var stored uint64
			for px := 0; px < W; px++ {
				in := inY && px >= tc.x && px < tc.x+tc.w
				if got := fb.Pixel(px, py) == 5; got != in {
					t.Errorf("%s: pixel (%d, %d) painted=%v, inside=%v", tc.name, px, py, got, in)
				}
				if in {
					stored++
				}
			}
			if stored > 0 {
				ref.Write(0xA0000+uint64(py*W+max(tc.x, 0)), stored)
				ref.Instr(stored / 4)
			}
		}
		if got, want := eng.Counters(), ref.Counters(); got != want {
			t.Errorf("%s: charged %v, the painted rows' stores are %v", tc.name, got, want)
		}
	}
}

func TestNICLink(t *testing.T) {
	eng := cpu.NewEngine(cpu.Pentium133())
	l := cpu.NewLayout(0xA00000)
	intr := iosys.NewInterruptController(eng, l, 8)
	a := NewNIC(eng, intr, 3, "en0")
	b := NewNIC(eng, intr, 4, "en1")
	if err := a.Send(Frame{Payload: []byte("x")}); err != ErrNICDown {
		t.Fatalf("unconnected err = %v", err)
	}
	Connect(a, b)
	got := 0
	intr.Load(4, func(int) { got++ }, false)
	if err := a.Send(Frame{Src: "a", Dst: "b", Payload: []byte("ping")}); err != nil {
		t.Fatalf("Send: %v", err)
	}
	f, ok := b.Recv()
	if !ok || string(f.Payload) != "ping" {
		t.Fatalf("recv: %v %v", f, ok)
	}
	if got != 1 {
		t.Fatal("receive interrupt not raised")
	}
	if _, ok := b.Recv(); ok {
		t.Fatal("queue should be empty")
	}
	sent, _ := a.Stats()
	_, rcvd := b.Stats()
	if sent != 1 || rcvd != 1 {
		t.Fatalf("stats %d %d", sent, rcvd)
	}
}

func TestNICQueueLimit(t *testing.T) {
	eng := cpu.NewEngine(cpu.Pentium133())
	l := cpu.NewLayout(0xA00000)
	intr := iosys.NewInterruptController(eng, l, 8)
	a := NewNIC(eng, intr, 3, "en0")
	b := NewNIC(eng, intr, 4, "en1")
	Connect(a, b)
	var err error
	for i := 0; i < 100; i++ {
		if err = a.Send(Frame{}); err != nil {
			break
		}
	}
	if err != ErrQueueFull {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
}

// driverFixture builds one of the three driver models over a fresh rig.
func driverFixture(t testing.TB, model string) (*rig, BlockDriver, *mach.Thread) {
	r := newRig(t)
	var d BlockDriver
	var err error
	switch model {
	case "kernel":
		d, err = NewKernelBlockDriver(r.k, r.k.Layout(), r.disk, r.intr)
	case "user":
		d, err = NewUserBlockDriver(r.k, r.k.Layout(), r.disk, r.hrm, r.intr, 1)
	case "ooddm":
		d, err = NewOODDMBlockDriver(r.k, r.k.Layout(), r.disk, r.intr)
	}
	if err != nil {
		t.Fatalf("driver %s: %v", model, err)
	}
	app := r.k.NewTask("app")
	th, err := app.NewBoundThread("main")
	if err != nil {
		t.Fatal(err)
	}
	return r, d, th
}

func TestAllDriverModelsMoveData(t *testing.T) {
	for _, model := range []string{"kernel", "user", "ooddm"} {
		t.Run(model, func(t *testing.T) {
			_, d, th := driverFixture(t, model)
			data := bytes.Repeat([]byte{0xC3}, SectorSize)
			if err := d.WriteSectors(th, 7, data); err != nil {
				t.Fatalf("write: %v", err)
			}
			got, err := d.ReadSectors(th, 7, 1)
			if err != nil {
				t.Fatalf("read: %v", err)
			}
			if !bytes.Equal(got, data) {
				t.Fatal("data mismatch")
			}
			if d.Model() == "" {
				t.Fatal("model name empty")
			}
		})
	}
}

// TestDriverModelCostOrdering is experiment E9: the user-level task
// driver costs the most per operation (RPC + reflected interrupts), the
// in-kernel BSD driver the least, with OODDM in between (in-kernel but
// paying the fine-grained dispatch chain).
func TestDriverModelCostOrdering(t *testing.T) {
	cost := func(model string) uint64 {
		r, d, th := driverFixture(t, model)
		buf := make([]byte, SectorSize)
		for i := 0; i < 10; i++ { // warm
			d.WriteSectors(th, 0, buf)
		}
		const N = 50
		base := r.k.CPU.Counters()
		for i := 0; i < N; i++ {
			d.WriteSectors(th, 0, buf)
		}
		return r.k.CPU.Counters().Sub(base).Cycles / N
	}
	kernel := cost("kernel")
	user := cost("user")
	ooddm := cost("ooddm")
	t.Logf("cycles/op: kernel=%d ooddm=%d user=%d", kernel, ooddm, user)
	if !(kernel < ooddm && ooddm < user) {
		t.Fatalf("expected kernel < ooddm < user, got %d %d %d", kernel, ooddm, user)
	}
}

func TestUserDriverDeadTask(t *testing.T) {
	r, d, th := driverFixture(t, "user")
	ud := d.(*UserBlockDriver)
	_ = r
	if err := d.WriteSectors(th, 0, make([]byte, SectorSize)); err != nil {
		t.Fatalf("warm write: %v", err)
	}
	ud.Task().Terminate()
	if err := d.WriteSectors(th, 0, make([]byte, SectorSize)); err == nil {
		t.Fatal("write to dead driver should fail")
	}
}

// TestUserDriverSurvivesMalformedRequests: any task holding a send right
// can put raw bytes on the driver's port, and no serve loop recovers a
// panic.  A short body, a count past the disk (which must be refused
// before it sizes an allocation) and a sector whose run would wrap 2^64
// each get an error reply, and the driver keeps serving.
func TestUserDriverSurvivesMalformedRequests(t *testing.T) {
	_, d, th := driverFixture(t, "user")
	ud := d.(*UserBlockDriver)
	n, err := ud.portFor(th)
	if err != nil {
		t.Fatal(err)
	}
	req := func(sector, count uint64) []byte {
		b := make([]byte, 16)
		binary.BigEndian.PutUint64(b[0:8], sector)
		binary.BigEndian.PutUint64(b[8:16], count)
		return b
	}
	for _, tc := range []struct {
		name string
		m    *mach.Message
	}{
		{"empty read", &mach.Message{ID: msgRead}},
		{"short read", &mach.Message{ID: msgRead, Body: req(0, 1)[:12]}},
		{"short write", &mach.Message{ID: msgWrite, Body: []byte{1, 2, 3}, OOL: make([]byte, SectorSize)}},
		{"huge count", &mach.Message{ID: msgRead, Body: req(0, 1<<60)}},
		{"count past disk", &mach.Message{ID: msgRead, Body: req(0, 4097)}},
		{"read wraps 2^64", &mach.Message{ID: msgRead, Body: req(1<<64-1, 2)}},
		{"write wraps 2^64", &mach.Message{ID: msgWrite, Body: req(1<<64-1, 0), OOL: make([]byte, 2*SectorSize)}},
		{"unknown op", &mach.Message{ID: 0x0DFF}},
	} {
		reply, err := th.Call(n, tc.m, mach.CallOpts{})
		if err != nil {
			t.Fatalf("%s: RPC died (driver crashed?): %v", tc.name, err)
		}
		if reply.ID == 0 {
			t.Fatalf("%s: accepted", tc.name)
		}
	}
	data := bytes.Repeat([]byte{0x5A}, SectorSize)
	if err := d.WriteSectors(th, 4095, data); err != nil {
		t.Fatalf("driver wedged after malformed requests: %v", err)
	}
	if got, err := d.ReadSectors(th, 4095, 1); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read back after malformed requests: %v", err)
	}
}

func TestOODDMHierarchyMetadata(t *testing.T) {
	_, d, _ := driverFixture(t, "ooddm")
	od := d.(*OODDMBlockDriver)
	if od.Hierarchy().Classes() != 8 {
		t.Fatalf("classes = %d", od.Hierarchy().Classes())
	}
	if od.Hierarchy().MetadataFootprint() == 0 {
		t.Fatal("no metadata accounted")
	}
}

// Property: disk contents equal the last write at every sector, for any
// write sequence through any driver model.
func TestPropertyDriverConsistency(t *testing.T) {
	f := func(ops []uint16, modelSel uint8) bool {
		models := []string{"kernel", "user", "ooddm"}
		_, d, th := driverFixture(quickT{}, models[int(modelSel)%3])
		want := make(map[uint64]byte)
		for i, op := range ops {
			if i > 12 {
				break
			}
			sector := uint64(op % 64)
			val := byte(op>>8) | 1
			data := bytes.Repeat([]byte{val}, SectorSize)
			if err := d.WriteSectors(th, sector, data); err != nil {
				return false
			}
			want[sector] = val
		}
		for sector, val := range want {
			got, err := d.ReadSectors(th, sector, 1)
			if err != nil || got[0] != val || got[SectorSize-1] != val {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// quickT satisfies testing.TB minimally for fixtures inside quick.Check.
type quickT struct{ testing.TB }

func (quickT) Helper()                           {}
func (quickT) Fatalf(format string, args ...any) { panic(format) }
func (quickT) Fatal(args ...any)                 { panic("fatal") }
