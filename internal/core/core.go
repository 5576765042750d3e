// Package core assembles Workplace OS: it boots the IBM Microkernel and
// the Microkernel Services (name service, loader, default pager), brings
// up device drivers through the hardware resource manager, starts the
// shared services (file server over the block driver, networking), and
// finally the operating-system personalities (OS/2, UNIX, MVM) — the
// structure of the paper's Figure 1.
package core

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/bcache"
	"repro/internal/cpu"
	"repro/internal/drivers"
	"repro/internal/fat"
	"repro/internal/hpfs"
	"repro/internal/iosys"
	"repro/internal/jfs"
	"repro/internal/kflight"
	"repro/internal/klat"
	"repro/internal/kstat"
	"repro/internal/ksync"
	"repro/internal/ktime"
	"repro/internal/loader"
	"repro/internal/mach"
	"repro/internal/monitor"
	"repro/internal/mvm"
	"repro/internal/names"
	"repro/internal/netsvc"
	"repro/internal/os2"
	"repro/internal/pager"
	"repro/internal/posix"
	"repro/internal/registry"
	"repro/internal/talos"
	"repro/internal/vfs"
	"repro/internal/vm"
	"repro/internal/workload"
)

// DriverModel selects the block-driver architecture for the boot disk.
type DriverModel string

// Driver models.
const (
	DriverUser   DriverModel = "user-level"
	DriverKernel DriverModel = "in-kernel"
	DriverOODDM  DriverModel = "ooddm"
)

// IOConfig groups the I/O-path knobs: the boot disk, the driver model
// sitting under the file server, and the file server's buffer cache.
type IOConfig struct {
	DiskSectors uint64
	Driver      DriverModel
	// CacheSectors sizes the file server's unified buffer cache in
	// 512-byte sectors.  0 (the default) disables the cache entirely:
	// every file operation crosses to the block driver exactly as in the
	// seed reproduction.
	CacheSectors int
	// ZeroCopy moves bulk payloads of at least a page on the file and
	// driver protocols by shared-memory region descriptor — per-page map
	// cost, zero per-byte copy cycles — instead of copied out-of-line
	// memory.  Off (the default) keeps the seed's copy semantics, cycle
	// for cycle.
	ZeroCopy bool
	// BatchRPC enables one-crossing vectored write-behind flushes from
	// the buffer cache to the user-level driver.  Off keeps the classic
	// one-crossing-per-op flush.
	BatchRPC bool
}

// Config parameterizes a boot.  The I/O knobs live in an embedded
// sub-config; field promotion keeps flat access (cfg.DiskSectors, ...)
// working for existing callers.
type Config struct {
	CPU      cpu.Config
	MemoryMB int
	// CPUs is the number of processing engines.  0 or 1 boots the classic
	// single-engine system — cycle-for-cycle identical to the seed
	// reproduction; N > 1 boots an N-engine Complex with real processor
	// sets and the SMP dispatcher.
	CPUs int
	IOConfig
	// ServerPool is the number of server threads each multi-threaded
	// server (file server, OS/2 personality, registry, user-level block
	// driver) runs per receive right.  0 or 1 keeps the classic
	// single-threaded loops of the seed reproduction.
	ServerPool int
	// Personalities to start: "os2", "posix", "mvm" (default all).
	Personalities []string
}

// DefaultConfig returns the configuration of the paper's PowerPC machine.
func DefaultConfig() Config {
	return Config{
		CPU:           cpu.Pentium133(),
		MemoryMB:      64,
		IOConfig:      IOConfig{DiskSectors: 16384, Driver: DriverUser},
		Personalities: []string{"os2", "posix", "mvm", "talos"},
	}
}

// System is a booted Workplace OS.
type System struct {
	Config Config

	// Microkernel.
	Kernel *mach.Kernel
	VM     *vm.System
	Clock  *ktime.Clock
	Sync   *ksync.Factory

	// Microkernel Services.
	Names  *names.Service
	Loader *loader.Loader
	Pager  *pager.DefaultPager

	// I/O support and devices.
	HRM     *iosys.HRM
	Intr    *iosys.InterruptController
	DMA     *iosys.DMAController
	IOSpace *iosys.IOSpace
	Disk    *drivers.Disk
	Console *drivers.Console
	FB      *drivers.Framebuffer
	NICs    [2]*drivers.NIC

	// Shared services.
	Block    drivers.BlockDriver
	Files    *vfs.Server
	Net      *netsvc.Stack
	Registry *registry.Server
	Monitor  *monitor.Server

	// Stats is the system-wide kstat metric set, attached to the
	// kernel's engine for the system's whole life (boot included).
	Stats *kstat.Set

	// Personalities.
	OS2   *os2.Server
	POSIX *posix.Server
	MVM   *mvm.Server
	TalOS *talos.Server

	bootLog []string
}

// ErrBadConfig reports an unusable configuration.
var ErrBadConfig = errors.New("core: bad configuration")

// Boot brings the system up in the canonical order.
func Boot(cfg Config) (*System, error) {
	if cfg.MemoryMB <= 0 || cfg.DiskSectors < 128 {
		return nil, ErrBadConfig
	}
	if err := cfg.CPU.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	s := &System{Config: cfg}
	log := func(f string, a ...any) { s.bootLog = append(s.bootLog, fmt.Sprintf(f, a...)) }

	// 1. Microkernel (privileged state).
	ncpu := cfg.CPUs
	if ncpu < 1 {
		ncpu = 1
	}
	s.Kernel = mach.NewSMP(cfg.CPU, ncpu)
	layout := s.Kernel.Layout()
	// Metrics fabric: attached before anything else runs, so boot itself
	// is counted.  Observation hooks throughout the system find this set
	// via kstat.For and never charge the cost model.
	s.Stats = kstat.Attach(s.Kernel.CPU)
	// Flight recorder: always-on bounded rings of the last K events per
	// engine, the raw material of postmortem dumps.  Like kstat it is
	// observation-only — a boot with it detached is cycle-identical.
	kflight.Attach(s.Kernel.CPU)
	// Tail-latency ledger: every Call mints a request hop, the RPC path
	// stamps it, the slowest requests keep their full hop-by-hop
	// timelines for the monitor's tail view.  Observation-only like the
	// planes above — a detached boot models bit-identical cycles.
	klat.Attach(s.Kernel.CPU)
	// On a multi-engine boot, register the per-engine kstat families —
	// reads of the dispatcher's own counters — so every exposition lists
	// all engines from the first frame.
	s.Kernel.PublishCPUStats()
	if ncpu > 1 {
		log("smp: %d engines, processor sets, affinity dispatch with idle stealing", ncpu)
	}
	s.VM = vm.NewSystem(uint64(cfg.MemoryMB) << 20)
	// VM fault observation: one record per fault, consumed by whichever
	// planes are attached to this kernel's engine; it never charges the
	// model.
	eng := s.Kernel.CPU
	s.VM.SetFaultObserver(func(asid, addr uint64, write bool) {
		kind := "fault:read"
		if write {
			kind = "fault:write"
		}
		eng.Planes().Emit(cpu.Event{Type: cpu.EvVMFault, Subsystem: "vm", Name: kind, Arg: addr | asid<<48})
	})
	s.Clock = ktime.NewClock(s.Kernel.CPU, layout, 133)
	s.Sync = ksync.NewFactory(s.Kernel.CPU, layout)
	log("microkernel: IPC/RPC, VM, tasks/threads, hosts, I/O, clocks, synchronizers")

	// 2. I/O support and the hardware complement.
	s.HRM = iosys.NewHRM(s.Kernel.CPU, layout)
	s.Intr = iosys.NewInterruptController(s.Kernel.CPU, layout, 32)
	s.DMA = iosys.NewDMAController(s.Kernel.CPU, layout, 4)
	s.IOSpace = iosys.NewIOSpace(s.Kernel.CPU)
	var err error
	s.Disk, err = drivers.NewDisk(s.Kernel.CPU, s.DMA, s.Intr, 14, cfg.DiskSectors)
	if err != nil {
		return nil, err
	}
	s.Console = drivers.NewConsole(s.Kernel.CPU)
	s.FB = drivers.NewFramebuffer(s.Kernel.CPU, 0xA0000, 640, 480)
	s.NICs[0] = drivers.NewNIC(s.Kernel.CPU, s.Intr, 10, "en0")
	s.NICs[1] = drivers.NewNIC(s.Kernel.CPU, s.Intr, 11, "en1")
	drivers.Connect(s.NICs[0], s.NICs[1])
	s.HRM.Register(iosys.Resource{Name: "disk0", Kind: iosys.ResIOPorts, Base: 0x1F0, Size: 8})
	s.HRM.Register(iosys.Resource{Name: "fb0", Kind: iosys.ResMemory, Base: 0xA0000, Size: 640 * 480})
	log("i/o support: HRM, interrupts, DMA; devices: disk, console, framebuffer, 2x nic")

	// 3. Microkernel Services: bootstrap task, naming, loader, pager.
	s.Names = names.NewService(s.Kernel.CPU, layout)
	s.Loader = loader.New(s.Kernel.CPU, layout, s.VM)
	s.Pager = pager.New(s.Kernel.CPU, layout, pager.NewRAMStore(4096))
	s.VM.SetDefaultPager(s.Pager)
	log("microkernel services: name service (X.500), loader, default pager")

	// 4. Device driver for the boot disk, per the configured model.
	switch cfg.Driver {
	case DriverKernel:
		s.Block, err = drivers.NewKernelBlockDriver(s.Kernel, layout, s.Disk, s.Intr)
	case DriverOODDM:
		s.Block, err = drivers.NewOODDMBlockDriver(s.Kernel, layout, s.Disk, s.Intr)
	default:
		s.Block, err = drivers.NewUserBlockDriver(s.Kernel, layout, s.Disk, s.HRM, s.Intr, cfg.ServerPool)
	}
	if err != nil {
		return nil, err
	}
	// One transfer agreement for the boot: the file server, its clients,
	// the driver and the device adapter below all place payloads and
	// batch by this value.
	xfer := mach.Transfer{ZeroCopy: cfg.ZeroCopy, Batch: cfg.BatchRPC}
	if ub, ok := s.Block.(*drivers.UserBlockDriver); ok {
		ub.SetTransfer(xfer)
	}
	if cfg.ZeroCopy || cfg.BatchRPC {
		log("transfer: zero-copy=%v vectored-batch=%v", cfg.ZeroCopy, cfg.BatchRPC)
	}
	log("block driver: %s", s.Block.Model())

	// 5. Shared services: the file server over the driver, networking.
	s.Files, err = vfs.NewServer(s.Kernel, cfg.ServerPool)
	if err != nil {
		return nil, err
	}
	s.Files.SetTransfer(xfer)
	// Unified buffer cache: when configured, every device-backed volume
	// mounted below gets a write-behind sector cache interposed inside
	// the file-server task, so hot file operations stop crossing into the
	// block driver.  CacheSectors == 0 installs nothing — the seed's
	// direct-to-driver path, cycle for cycle.
	if cfg.CacheSectors > 0 {
		hrm := s.HRM
		s.Files.SetDevCache(func(dev vfs.BlockDev) vfs.CachedDev {
			return bcache.New(s.Kernel.CPU, layout, dev, bcache.Config{
				CapacitySectors: cfg.CacheSectors,
				HRM:             hrm,
			})
		})
	}
	// FAT boot volume over the real block driver (every file op crosses
	// into the driver unless cached); HPFS and JFS volumes on secondary
	// RAM disks.  All three attach through MountVolume, which threads the
	// device through the cache.
	diskTh, err := s.Files.Task().NewBoundThread("diskio")
	if err != nil {
		return nil, err
	}
	bootDev := drivers.NewDev(s.Block, diskTh, cfg.DiskSectors, xfer)
	if err := fat.Format(bootDev); err != nil {
		return nil, err
	}
	if err := s.Files.MountVolume("/", fat.New(), bootDev); err != nil {
		return nil, err
	}
	hdev := vfs.NewRAMDisk(8192)
	if err := hpfs.Format(hdev); err != nil {
		return nil, err
	}
	if err := s.Files.MountVolume("/hpfs", hpfs.New(), hdev); err != nil {
		return nil, err
	}
	jdev := vfs.NewRAMDisk(8192)
	if err := jfs.Format(jdev); err != nil {
		return nil, err
	}
	if err := s.Files.MountVolume("/jfs", jfs.New(), jdev); err != nil {
		return nil, err
	}
	// The booted stack is always the fine-grained one; E6 and the
	// multiserver example build the coarse stack directly.
	s.Net, err = netsvc.NewStack(s.Kernel.CPU, layout, s.NICs[0], "wpos", netsvc.FineGrained)
	if err != nil {
		return nil, err
	}
	s.Registry, err = registry.NewServer(s.Kernel, s.Files, "/hpfs/OS2SYS.INI", cfg.ServerPool)
	if err != nil {
		return nil, err
	}
	log("shared services: file server (fat on %s driver, hpfs, jfs), networking (%v objects), registry",
		cfg.Driver, netsvc.FineGrained)

	// Bind the servers into the single rooted name tree.
	bind := func(path string, task *mach.Task, attrs ...names.Attr) {
		s.Names.Bind(path, names.Binding{Task: task, Attrs: attrs})
	}
	bind("/servers/files", s.Files.Task(), names.Attr{Key: "class", Value: "shared-service"})
	bind("/servers/registry", s.Registry.Task(), names.Attr{Key: "class", Value: "shared-service"})
	// "The file server ... was designed to work with the name service so
	// that all file systems could appear as a part of WPOS's single
	// rooted tree of names."
	mountInfo := []struct{ mount, fsname string }{
		{"/", "fat"}, {"/hpfs", "hpfs"}, {"/jfs", "jfs"},
	}
	for _, mi := range mountInfo {
		label := strings.TrimPrefix(mi.mount, "/")
		if label == "" {
			label = "root"
		}
		bind("/filesystems/"+label, s.Files.Task(),
			names.Attr{Key: "class", Value: "filesystem"},
			names.Attr{Key: "format", Value: mi.fsname},
			names.Attr{Key: "mount", Value: mi.mount})
	}

	// 6. Personalities.
	for _, p := range cfg.Personalities {
		switch p {
		case "os2":
			s.OS2, err = os2.NewServer(s.Kernel, s.VM, s.Files, s.Clock, s.Sync, cfg.ServerPool)
			if err != nil {
				return nil, err
			}
			bind("/servers/personality/os2", s.OS2.Task(), names.Attr{Key: "class", Value: "personality"})
		case "posix":
			s.POSIX, err = posix.NewServer(s.Kernel, s.VM, s.Files)
			if err != nil {
				return nil, err
			}
			s.Names.Bind("/servers/personality/posix", names.Binding{Attrs: []names.Attr{{Key: "class", Value: "personality"}}})
		case "mvm":
			s.MVM = mvm.NewServer(s.Kernel, s.Files, s.Console)
			s.Names.Bind("/servers/personality/mvm", names.Binding{Attrs: []names.Attr{{Key: "class", Value: "personality"}}})
		case "talos":
			s.TalOS, err = talos.NewServer(s.Kernel, s.VM, s.Files)
			if err != nil {
				return nil, err
			}
			bind("/servers/personality/talos", s.TalOS.Task(), names.Attr{Key: "class", Value: "personality"})
		default:
			return nil, fmt.Errorf("%w: unknown personality %q", ErrBadConfig, p)
		}
		log("personality: %s", p)
	}
	// The Microkernel Services loader only loads programs prior to the
	// initialization of the first personality.
	if len(cfg.Personalities) > 0 {
		s.Loader.Seal()
	}

	// 7. Monitor server: the metrics fabric exported as a shared service
	// over the system's own RPC, last so it can observe everything above.
	s.Monitor, err = monitor.NewServer(s.Kernel, cfg.ServerPool)
	if err != nil {
		return nil, err
	}
	// Published with its service port so any task can connect through the
	// name service alone (monitor.Connect on the looked-up binding).
	s.Names.Bind("/servers/monitor", names.Binding{
		Task: s.Monitor.Task(), Port: s.Monitor.Port(),
		Attrs: []names.Attr{{Key: "class", Value: "shared-service"}},
	})
	log("monitor: kstat fabric exported at /servers/monitor")
	return s, nil
}

// BootLog returns the boot transcript.
func (s *System) BootLog() []string {
	return append([]string(nil), s.bootLog...)
}

// Component is one box of the Figure 1 inventory.
type Component struct {
	Layer string // "microkernel", "services", "shared", "personality"
	Name  string
}

// Inventory enumerates the running structure — experiment E4's data.
func (s *System) Inventory() []Component {
	out := []Component{
		{"microkernel", "IPC/RPC"},
		{"microkernel", "Virtual Memory"},
		{"microkernel", "Tasks and Threads"},
		{"microkernel", "Hosts and Processors"},
		{"microkernel", "I/O Support"},
		{"microkernel", "Clocks and Timers"},
		{"microkernel", "Kernel Synchronizers"},
		{"services", "Bootstrap Task"},
		{"services", "Loading"},
		{"services", "Naming"},
		{"services", "Default Pager"},
		{"services", "Memory Synchronizers"},
		{"shared", "File Server"},
		{"shared", "Networking"},
		{"shared", "Registry"},
		{"shared", "Device Drivers (" + s.Block.Model() + ")"},
		{"shared", "Monitor"},
	}
	if s.OS2 != nil {
		out = append(out, Component{"personality", "OS/2 Server"})
	}
	if s.POSIX != nil {
		out = append(out, Component{"personality", "UNIX Server"})
	}
	if s.MVM != nil {
		out = append(out, Component{"personality", "MVM Server"})
	}
	if s.TalOS != nil {
		out = append(out, Component{"personality", "TalOS Server"})
	}
	return out
}

// RenderFigure1 draws the layer diagram of the running system.
func (s *System) RenderFigure1() string {
	byLayer := map[string][]string{}
	for _, c := range s.Inventory() {
		byLayer[c.Layer] = append(byLayer[c.Layer], c.Name)
	}
	for _, v := range byLayer {
		sort.Strings(v)
	}
	titles := []string{
		"PERSONALITY SERVERS AND APPLICATIONS",
		"SHARED SERVICES (personality-neutral)",
		"MICROKERNEL SERVICES",
		"IBM MICROKERNEL (privileged state)",
	}
	layers := []string{"personality", "shared", "services", "microkernel"}
	width := 0
	for i, l := range layers {
		if n := len(strings.Join(byLayer[l], " | ")) + 4; n > width {
			width = n
		}
		if n := len(titles[i]) + 2; n > width {
			width = n
		}
	}
	var b strings.Builder
	line := strings.Repeat("-", width)
	for i, l := range layers {
		b.WriteString("+" + line + "+\n")
		b.WriteString(fmt.Sprintf("| %-*s |\n", width-2, titles[i]))
		b.WriteString(fmt.Sprintf("|   %-*s |\n", width-4, strings.Join(byLayer[l], " | ")))
	}
	b.WriteString("+" + line + "+\n")
	return b.String()
}

// WorkloadEnv exposes the booted system for the Table 1 suite.
func (s *System) WorkloadEnv() workload.Env {
	return workload.Env{
		Name: "WPOS OS/2",
		NewProcess: func(name string) (workload.OS2Process, error) {
			return s.OS2.CreateProcess(name)
		},
		Eng:      s.Kernel.CPU,
		FB:       s.FB,
		MemoryMB: s.Config.MemoryMB,
	}
}
