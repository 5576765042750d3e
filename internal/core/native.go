package core

import (
	"repro/internal/cpu"
	"repro/internal/drivers"
	"repro/internal/fat"
	"repro/internal/iosys"
	"repro/internal/mach"
	"repro/internal/mono"
	"repro/internal/workload"
)

// NativeSystem is the booted monolithic baseline: the same CPU model,
// the same FAT format and the same disk, but the file system and driver
// are in-kernel and every service is one trap away.
type NativeSystem struct {
	Kernel *mach.Kernel
	Sys    *mono.System
	FB     *drivers.Framebuffer
	Disk   *drivers.Disk
	Mem    int
}

// BootNative brings up the native OS/2 baseline.  memoryMB defaults to
// the paper's 16 MB Pentium when zero.
func BootNative(cfg cpu.Config, memoryMB int, diskSectors uint64) (*NativeSystem, error) {
	if memoryMB <= 0 {
		memoryMB = 16
	}
	if diskSectors < 128 {
		diskSectors = 16384
	}
	k := mach.New(cfg)
	layout := k.Layout()
	intr := iosys.NewInterruptController(k.CPU, layout, 32)
	dma := iosys.NewDMAController(k.CPU, layout, 4)
	disk, err := drivers.NewDisk(k.CPU, dma, intr, 14, diskSectors)
	if err != nil {
		return nil, err
	}
	drv, err := drivers.NewKernelBlockDriver(k, layout, disk, intr)
	if err != nil {
		return nil, err
	}
	fb := drivers.NewFramebuffer(k.CPU, 0xA0000, 640, 480)
	sys := mono.New(k, uint64(memoryMB)<<20, fb)

	dev := drivers.NewSectorDev(drv, nil, diskSectors)
	if err := fat.Format(dev); err != nil {
		return nil, err
	}
	fatFS := fat.New()
	if err := fatFS.Mount(dev); err != nil {
		return nil, err
	}
	if err := sys.Mount("/", fatFS); err != nil {
		return nil, err
	}
	return &NativeSystem{Kernel: k, Sys: sys, FB: fb, Disk: disk, Mem: memoryMB}, nil
}

// WorkloadEnv exposes the native system for the Table 1 suite.
func (n *NativeSystem) WorkloadEnv() workload.Env {
	return workload.Env{
		Name: "native OS/2",
		NewProcess: func(name string) (workload.OS2Process, error) {
			return n.Sys.CreateProcess(name)
		},
		Eng:      n.Kernel.CPU,
		FB:       n.FB,
		MemoryMB: n.Mem,
	}
}
