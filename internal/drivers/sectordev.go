package drivers

import (
	"repro/internal/mach"
	"repro/internal/vfs"
)

// SectorDev adapts a BlockDriver (whose operations need a calling
// thread) to the thread-less sector-device interface the file systems
// and the buffer cache consume (vfs.BlockDev).
//
// Every caller leaves on the adapter's one private thread, so only the
// handler holding the request message knows whose driver call it is, and
// says so with Begin/End (vfs.RequestDev).  The adapter keeps no lock:
// the file server calls it only under the volume's kernel lock, which
// admits one request at a time.  Driven with no request named (boot, the
// native baseline's nil thread) it works the same and its driver calls
// are roots.
type SectorDev struct {
	drv     BlockDriver
	th      *mach.Thread
	sectors uint64
}

// NewSectorDev binds a driver to a calling thread and a disk size.
func NewSectorDev(drv BlockDriver, th *mach.Thread, sectors uint64) *SectorDev {
	return &SectorDev{drv: drv, th: th, sectors: sectors}
}

// Begin implements vfs.RequestDev: it points the private thread at req,
// so the driver calls made until End are req's children in the latency
// ledger.
func (d *SectorDev) Begin(req *mach.Message) { d.th.ActFor(req) }

// End implements vfs.RequestDev.
func (d *SectorDev) End() { d.th.ActFor(nil) }

// ReadSectors reads len(buf)/SectorSize sectors starting at sector.
func (d *SectorDev) ReadSectors(sector uint64, buf []byte) error {
	b, err := d.drv.ReadSectors(d.th, sector, len(buf)/SectorSize)
	if err != nil {
		return err
	}
	copy(buf, b)
	return nil
}

// WriteSectors writes data (whole sectors) starting at sector.
func (d *SectorDev) WriteSectors(sector uint64, data []byte) error {
	return d.drv.WriteSectors(d.th, sector, data)
}

// Sectors returns the device size.
func (d *SectorDev) Sectors() uint64 { return d.sectors }

// BatchDriver is a BlockDriver whose implementation can commit several
// sector runs in one vectored RPC crossing (the user-level driver).
type BatchDriver interface {
	BlockDriver
	WriteSectorsV(caller *mach.Thread, runs []vfs.SectorRun) (int, error)
}

// NewDev binds drv to th as the file server's device under the boot's
// transfer agreement x: the vectored adapter when x batches and the
// driver can, a plain SectorDev otherwise.
func NewDev(drv BlockDriver, th *mach.Thread, sectors uint64, x mach.Transfer) vfs.BlockDev {
	d := NewSectorDev(drv, th, sectors)
	if bd, ok := drv.(BatchDriver); ok && x.Batch {
		return &batchSectorDev{SectorDev: d, bdrv: bd}
	}
	return d
}

// batchSectorDev is a SectorDev that also satisfies vfs.BatchDev, which
// the buffer cache type-asserts to flush its dirty runs in one driver
// crossing.  It stays a second type, not a method on SectorDev, because
// the cache stages every run's copy-out before a vectored write but
// writes each run right after its copy-out on a plain device.  Measured:
// making every SectorDev a vfs.BatchDev (looping per run under drivers
// that cannot vector) moved 12 of the 36 pinned file-matrix
// configurations — every cached ooddm one and every cached user-level
// one with copy transfer (cache 64, pool 4, FI1: 7,301,626 -> 7,299,846
// cycles).
type batchSectorDev struct {
	*SectorDev
	bdrv BatchDriver
}

// WriteSectorsV implements vfs.BatchDev.
func (d *batchSectorDev) WriteSectorsV(runs []vfs.SectorRun) (int, error) {
	return d.bdrv.WriteSectorsV(d.th, runs)
}

var (
	_ vfs.RequestDev = (*SectorDev)(nil)
	_ vfs.BatchDev   = (*batchSectorDev)(nil)
	_ vfs.RequestDev = (*batchSectorDev)(nil)
)
