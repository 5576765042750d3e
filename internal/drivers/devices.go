// Package drivers implements the simulated devices and the three device
// driver architectures the project used:
//
//   - the user-level driver model of Golub/Sotomayor/Rawson: almost all
//     driver code in a user task, interrupts reflected up, resources
//     assigned by the hardware resource manager;
//   - in-kernel BSD-style drivers (kept especially for networking);
//   - Taligent's Object-Oriented Device Driver Management (OODDM):
//     mostly-in-kernel drivers built from fine-grained objects, where a
//     new driver is a subclass with a few lines of unique code.
//
// Experiment E9 runs the same block workload through all three.
package drivers

import (
	"errors"
	"sync"

	"repro/internal/cpu"
	"repro/internal/iosys"
)

// SectorSize is the disk sector granularity.
const SectorSize = 512

// Errors returned by devices.
var (
	ErrBadSector = errors.New("drivers: sector out of range")
	ErrBadSize   = errors.New("drivers: buffer must be a whole number of sectors")
	ErrNICDown   = errors.New("drivers: nic not attached")
	ErrQueueFull = errors.New("drivers: device queue full")
)

// Disk is a simulated fixed disk with seek cost, DMA transfers and a
// completion interrupt.
type Disk struct {
	eng    *cpu.Engine
	dma    *iosys.DMAController
	intr   *iosys.InterruptController
	vector int
	owner  iosys.Owner
	dmaCh  int

	// mu serializes the one head: held for the seek charge and the
	// sector copies, released before the DMA transfer and the interrupt,
	// so it is held across no call.
	mu      sync.Mutex
	sectors [][]byte
	pos     uint64
	reads   uint64
	writes  uint64

	// SeekCycles is the average positioning cost charged per operation
	// when the head moves; sequential access is cheap.
	SeekCycles uint64
}

// NewDisk creates a disk of n sectors wired to the interrupt vector.
func NewDisk(eng *cpu.Engine, dma *iosys.DMAController, intr *iosys.InterruptController, vector int, n uint64) (*Disk, error) {
	d := &Disk{
		eng: eng, dma: dma, intr: intr, vector: vector,
		owner:      "disk0",
		sectors:    make([][]byte, n),
		SeekCycles: 5000,
	}
	ch, err := dma.Allocate(d.owner)
	if err != nil {
		return nil, err
	}
	d.dmaCh = ch
	return d, nil
}

// Sectors reports the disk size in sectors.
func (d *Disk) Sectors() uint64 { return uint64(len(d.sectors)) }

// Vector reports the completion interrupt vector.
func (d *Disk) Vector() int { return d.vector }

// ReadSectors fills buf (a whole number of sectors) starting at sector,
// charging seek, DMA and raising the completion interrupt.
func (d *Disk) ReadSectors(sector uint64, buf []byte) error {
	if len(buf)%SectorSize != 0 {
		return ErrBadSize
	}
	// Physical device time (seek, DMA) lands in its own "disk" bucket so
	// attribution can separate it from driver-crossing machinery — the
	// native system pays this part too.
	defer d.eng.Planes().Open(cpu.Event{Type: cpu.EvDriverIO, Subsystem: "disk", Name: "disk:read"}, nil).End()
	n := uint64(len(buf) / SectorSize)
	d.mu.Lock()
	if !d.inRange(sector, n) {
		d.mu.Unlock()
		return ErrBadSector
	}
	if d.pos != sector {
		d.eng.Stall(d.SeekCycles)
	}
	for i := uint64(0); i < n; i++ {
		s := d.sectors[sector+i]
		dst := buf[i*SectorSize : (i+1)*SectorSize]
		if s == nil {
			for j := range dst {
				dst[j] = 0
			}
		} else {
			copy(dst, s)
		}
	}
	d.pos = sector + n
	d.reads += n
	d.mu.Unlock()
	if err := d.dma.Transfer(d.dmaCh, d.owner, uint64(len(buf))); err != nil {
		return err
	}
	return d.intr.Raise(d.vector)
}

// WriteSectors stores data (a whole number of sectors) at sector.
func (d *Disk) WriteSectors(sector uint64, data []byte) error {
	if len(data)%SectorSize != 0 {
		return ErrBadSize
	}
	defer d.eng.Planes().Open(cpu.Event{Type: cpu.EvDriverIO, Subsystem: "disk", Name: "disk:write"}, nil).End()
	n := uint64(len(data) / SectorSize)
	d.mu.Lock()
	if !d.inRange(sector, n) {
		d.mu.Unlock()
		return ErrBadSector
	}
	if d.pos != sector {
		d.eng.Stall(d.SeekCycles)
	}
	for i := uint64(0); i < n; i++ {
		src := data[i*SectorSize : (i+1)*SectorSize]
		if s := d.sectors[sector+i]; s != nil {
			copy(s, src) // a read copies out, so no caller holds s
		} else {
			d.sectors[sector+i] = append([]byte(nil), src...)
		}
	}
	d.pos = sector + n
	d.writes += n
	d.mu.Unlock()
	if err := d.dma.Transfer(d.dmaCh, d.owner, uint64(len(data))); err != nil {
		return err
	}
	return d.intr.Raise(d.vector)
}

// inRange reports whether the n sectors from sector lie on the disk,
// without forming sector+n (a sector near 2^64 would wrap it).
func (d *Disk) inRange(sector, n uint64) bool {
	size := uint64(len(d.sectors))
	return n <= size && sector <= size-n
}

// Counts reports sectors read and written.
func (d *Disk) Counts() (reads, writes uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.reads, d.writes
}

// Console is a simulated character output device.
type Console struct {
	eng *cpu.Engine

	mu  sync.Mutex
	buf []byte
}

// NewConsole creates a console.
func NewConsole(eng *cpu.Engine) *Console {
	return &Console{eng: eng}
}

// WriteString emits s, charging per-character device time.
func (c *Console) WriteString(s string) {
	c.eng.Instr(uint64(8 * len(s)))
	c.eng.Overhead(uint64(20*len(s)), uint64(4*len(s)))
	c.mu.Lock()
	c.buf = append(c.buf, s...)
	c.mu.Unlock()
}

// Contents returns everything written so far.
func (c *Console) Contents() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return string(c.buf)
}

// Framebuffer is the display memory that graphics code drives directly
// from user-level shared libraries — the reason the paper's graphics
// workloads ran at near-native speed.
type Framebuffer struct {
	eng  *cpu.Engine
	base uint64

	mu   sync.Mutex
	w, h int
	pix  []byte
}

// NewFramebuffer creates a w x h 8-bpp framebuffer at the given simulated
// physical address.
func NewFramebuffer(eng *cpu.Engine, base uint64, w, h int) *Framebuffer {
	return &Framebuffer{eng: eng, base: base, w: w, h: h, pix: make([]byte, w*h)}
}

// Bounds reports the dimensions.
func (f *Framebuffer) Bounds() (w, h int) { return f.w, f.h }

// Fill paints a rectangle clipped to the buffer: pure user-level stores,
// no kernel involvement, charged as one strided loop of rows.
func (f *Framebuffer) Fill(x, y, w, h int, color byte) {
	x0, y0, x1, y1 := max(x, 0), max(y, 0), min(x+w, f.w), min(y+h, f.h)
	if x0 >= x1 || y0 >= y1 {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	first := f.pix[y0*f.w+x0 : y0*f.w+x1]
	for i := range first {
		first[i] = color
	}
	for row := y0 + 1; row < y1; row++ {
		copy(f.pix[row*f.w+x0:], first)
	}
	width := uint64(x1 - x0)
	f.eng.StoreRows(f.base+uint64(y0*f.w+x0), width, uint64(f.w), y1-y0, width/4)
}

// Pixel returns the color at (x, y).
func (f *Framebuffer) Pixel(x, y int) byte {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.pix[y*f.w+x]
}

// Frame is a network frame.
type Frame struct {
	Src, Dst string
	Payload  []byte
}

// NIC is a simulated network interface; two NICs can be cross-connected
// to form a link.  Receipt raises an interrupt.
type NIC struct {
	eng    *cpu.Engine
	intr   *iosys.InterruptController
	vector int
	name   string

	mu    sync.Mutex
	peer  *NIC
	rxq   []Frame
	limit int
	sent  uint64
	rcvd  uint64
}

// NewNIC creates a NIC raising the given vector on receive.
func NewNIC(eng *cpu.Engine, intr *iosys.InterruptController, vector int, name string) *NIC {
	return &NIC{eng: eng, intr: intr, vector: vector, name: name, limit: 64}
}

// Connect cross-wires two NICs.
func Connect(a, b *NIC) {
	a.mu.Lock()
	a.peer = b
	a.mu.Unlock()
	b.mu.Lock()
	b.peer = a
	b.mu.Unlock()
}

// Send transmits a frame to the peer, charging wire time, and raises the
// peer's receive interrupt.
func (n *NIC) Send(f Frame) error {
	n.mu.Lock()
	peer := n.peer
	n.mu.Unlock()
	if peer == nil {
		return ErrNICDown
	}
	n.mu.Lock()
	n.sent++
	n.mu.Unlock()
	n.eng.Overhead(uint64(len(f.Payload))/4+40, uint64(len(f.Payload))/8+8)
	peer.mu.Lock()
	if len(peer.rxq) >= peer.limit {
		peer.mu.Unlock()
		return ErrQueueFull
	}
	peer.rxq = append(peer.rxq, f)
	peer.rcvd++
	vector := peer.vector
	intr := peer.intr
	peer.mu.Unlock()
	return intr.Raise(vector)
}

// Recv pops the next received frame, if any.
func (n *NIC) Recv() (Frame, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if len(n.rxq) == 0 {
		return Frame{}, false
	}
	f := n.rxq[0]
	n.rxq = n.rxq[1:]
	return f, true
}

// Stats reports frames sent and received.
func (n *NIC) Stats() (sent, rcvd uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.sent, n.rcvd
}
