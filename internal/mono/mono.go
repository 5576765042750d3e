// Package mono implements the monolithic baseline: "native OS/2", where
// the same file-system code, the same physical formats and the same
// devices are reached by a single kernel trap and direct function calls
// instead of RPC to user-level servers.  It is the denominator of the
// paper's Table 1: identical workload code runs against this system and
// against the multi-server Workplace OS stack, so the measured difference
// is the transport architecture, not the services.
package mono

import (
	"sync"

	"repro/internal/cpu"
	"repro/internal/drivers"
	"repro/internal/ktime"
	"repro/internal/mach"
	"repro/internal/os2"
	"repro/internal/vfs"
	"repro/internal/vm"
)

// System is the native OS/2 kernel: dispatcher, drivers and devices all
// behind one trap boundary.  It is driven from one goroutine (the native
// Table 1 runs), which is the only exclusion its volumes get: the file
// systems keep no lock of their own, and nothing here serializes calls
// into Disp the way the file server's volume locks do.
type System struct {
	K     *mach.Kernel
	VM    *vm.System
	Disp  *vfs.Dispatcher
	Clock *ktime.Clock
	FB    *drivers.Framebuffer

	fsPath  cpu.Region // in-kernel file system entry
	mmPath  cpu.Region // in-kernel memory manager
	pmPath  cpu.Region // in-kernel PM queue service
	gfxStub cpu.Region // user-level graphics library (same as WPOS's)

	mu    sync.Mutex
	nextP os2.PID
	procs map[os2.PID]*Process
}

// New creates a native system.  physBytes sizes physical memory — the
// paper's Pentium box had 16 MB against the PowerPC's 64 MB.
func New(k *mach.Kernel, physBytes uint64, fb *drivers.Framebuffer) *System {
	return &System{
		K:       k,
		VM:      vm.NewSystem(physBytes),
		Disp:    vfs.NewDispatcher(),
		Clock:   ktime.NewClock(k.CPU, k.Layout(), 133),
		FB:      fb,
		fsPath:  k.Layout().PlaceInstr("native_fs_entry", 1200),
		mmPath:  k.Layout().PlaceInstr("native_memman", 380),
		pmPath:  k.Layout().PlaceInstr("native_pm_queue", 420),
		gfxStub: k.Layout().PlaceInstr("gre_library", 300),
		nextP:   1,
		procs:   make(map[os2.PID]*Process),
	}
}

// Mount attaches a file system (same physical formats as WPOS).
func (s *System) Mount(path string, fs vfs.FileSystem) error {
	return s.Disp.Mount(path, fs)
}

// Process is a native OS/2 process.
type Process struct {
	sys  *System
	pid  os2.PID
	task *mach.Task
	m    *vm.Map

	mu     sync.Mutex
	nextFH uint32
	files  map[uint32]*monoFile
	allocs map[vm.VAddr]uint64
	queue  []os2.PMMsg
	qcond  *sync.Cond
}

type monoFile struct {
	fd  uint32
	pos int64
}

// CreateProcess builds a native process.
func (s *System) CreateProcess(name string) (*Process, error) {
	task := s.K.NewTask("native:" + name)
	m := s.VM.NewMap(task.ASID())
	task.AS = m
	p := &Process{
		sys: s, task: task, m: m,
		nextFH: 1,
		files:  make(map[uint32]*monoFile),
		allocs: make(map[vm.VAddr]uint64),
	}
	p.qcond = sync.NewCond(&p.mu)
	s.mu.Lock()
	p.pid = s.nextP
	s.nextP++
	s.procs[p.pid] = p
	s.mu.Unlock()
	return p, nil
}

// PID returns the process id.
func (p *Process) PID() os2.PID { return p.pid }

func mapVFSErr(err error) os2.Error {
	switch err {
	case nil:
		return os2.NoError
	case vfs.ErrNotFound, vfs.ErrNotMounted:
		return os2.ErrFileNotFound
	case vfs.ErrNameTooLong:
		return os2.ErrFilenameTooLong
	case vfs.ErrReadOnly, vfs.ErrIsDir:
		return os2.ErrAccessDenied
	case vfs.ErrBadHandle:
		return os2.ErrInvalidHandle
	case vfs.ErrNoSpace:
		return os2.ErrNotEnoughMemory
	default:
		return os2.ErrInvalidParameter
	}
}

// DosOpen opens a file with one trap into the in-kernel file system.
func (p *Process) DosOpen(path string, write, create bool) (uint32, os2.Error) {
	p.sys.K.Trap(p.sys.fsPath)
	fd, err := p.sys.Disp.Open(vfs.ProfileOS2, path, write, create)
	if err != nil {
		return 0, mapVFSErr(err)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	h := p.nextFH
	p.nextFH++
	p.files[h] = &monoFile{fd: fd}
	return h, os2.NoError
}

func (p *Process) file(h uint32) (*monoFile, os2.Error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	f, ok := p.files[h]
	if !ok {
		return nil, os2.ErrInvalidHandle
	}
	return f, os2.NoError
}

// DosRead reads sequentially.
func (p *Process) DosRead(h uint32, buf []byte) (int, os2.Error) {
	p.sys.K.Trap(p.sys.fsPath)
	f, e := p.file(h)
	if e != os2.NoError {
		return 0, e
	}
	n, err := p.sys.Disp.ReadAt(f.fd, buf, f.pos)
	if err != nil {
		return 0, mapVFSErr(err)
	}
	f.pos += int64(n)
	return n, os2.NoError
}

// DosWrite writes sequentially.
func (p *Process) DosWrite(h uint32, data []byte) (int, os2.Error) {
	p.sys.K.Trap(p.sys.fsPath)
	f, e := p.file(h)
	if e != os2.NoError {
		return 0, e
	}
	n, err := p.sys.Disp.WriteAt(f.fd, data, f.pos)
	if err != nil {
		return 0, mapVFSErr(err)
	}
	f.pos += int64(n)
	return n, os2.NoError
}

// DosSetFilePtr seeks.
func (p *Process) DosSetFilePtr(h uint32, pos int64) os2.Error {
	p.sys.K.Trap(cpu.Region{})
	f, e := p.file(h)
	if e != os2.NoError {
		return e
	}
	if pos < 0 {
		return os2.ErrInvalidParameter
	}
	f.pos = pos
	return os2.NoError
}

// DosClose closes the handle.
func (p *Process) DosClose(h uint32) os2.Error {
	p.sys.K.Trap(p.sys.fsPath)
	p.mu.Lock()
	f, ok := p.files[h]
	delete(p.files, h)
	p.mu.Unlock()
	if !ok {
		return os2.ErrInvalidHandle
	}
	if err := p.sys.Disp.Close(f.fd); err != nil {
		return mapVFSErr(err)
	}
	return os2.NoError
}

// DosDelete removes a file.
func (p *Process) DosDelete(path string) os2.Error {
	p.sys.K.Trap(p.sys.fsPath)
	return mapVFSErr(p.sys.Disp.Remove(path))
}

// DosMkdir creates a directory.
func (p *Process) DosMkdir(path string) os2.Error {
	p.sys.K.Trap(p.sys.fsPath)
	return mapVFSErr(p.sys.Disp.Mkdir(vfs.ProfileOS2, path))
}

// DosQueryPathInfo stats a path.
func (p *Process) DosQueryPathInfo(path string) (vfs.Attr, os2.Error) {
	p.sys.K.Trap(p.sys.fsPath)
	a, err := p.sys.Disp.Stat(path)
	return a, mapVFSErr(err)
}

// DosAllocMem is the native single-level commitment allocator: one trap,
// one set of bookkeeping.
func (p *Process) DosAllocMem(bytes uint64, commit bool) (vm.VAddr, os2.Error) {
	p.sys.K.Trap(p.sys.mmPath)
	if bytes == 0 {
		return 0, os2.ErrInvalidParameter
	}
	pages := (bytes + vm.PageSize - 1) / vm.PageSize
	base, err := p.m.Allocate(0x2000_0000, pages*vm.PageSize, true)
	if err != nil {
		return 0, os2.ErrNotEnoughMemory
	}
	if commit {
		for i := uint64(0); i < pages; i++ {
			if _, err := p.m.Fault(base+vm.VAddr(i*vm.PageSize), vm.ProtWrite); err != nil {
				p.m.Deallocate(base, pages*vm.PageSize)
				return 0, os2.ErrNotEnoughMemory
			}
		}
	}
	p.mu.Lock()
	p.allocs[base] = pages
	p.mu.Unlock()
	return base, os2.NoError
}

// DosFreeMem frees a native allocation.
func (p *Process) DosFreeMem(base vm.VAddr) os2.Error {
	p.sys.K.Trap(p.sys.mmPath)
	p.mu.Lock()
	pages, ok := p.allocs[base]
	delete(p.allocs, base)
	p.mu.Unlock()
	if !ok {
		return os2.ErrInvalidParameter
	}
	p.m.Deallocate(base, pages*vm.PageSize)
	return os2.NoError
}

// WriteMem / ReadMem access the process space.
func (p *Process) WriteMem(addr vm.VAddr, data []byte) os2.Error {
	if err := p.m.Write(addr, data); err != nil {
		return os2.ErrInvalidParameter
	}
	return os2.NoError
}

// ReadMem reads the process space.
func (p *Process) ReadMem(addr vm.VAddr, n uint64) ([]byte, os2.Error) {
	b, err := p.m.Read(addr, n)
	if err != nil {
		return nil, os2.ErrInvalidParameter
	}
	return b, os2.NoError
}

// WinPostMsg posts a PM message: one trap, direct queue insertion.
func (p *Process) WinPostMsg(dst os2.PID, msg, arg uint32) os2.Error {
	p.sys.K.Trap(p.sys.pmPath)
	p.sys.mu.Lock()
	q, ok := p.sys.procs[dst]
	p.sys.mu.Unlock()
	if !ok {
		return os2.ErrProcNotFound
	}
	q.mu.Lock()
	q.queue = append(q.queue, os2.PMMsg{Msg: msg, Arg: arg})
	q.qcond.Signal()
	q.mu.Unlock()
	return os2.NoError
}

// WinGetMsg pops the next PM message.
func (p *Process) WinGetMsg(wait bool) (os2.PMMsg, os2.Error) {
	p.sys.K.Trap(p.sys.pmPath)
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.queue) == 0 {
		if !wait {
			return os2.PMMsg{}, os2.ErrQueueEmpty
		}
		p.qcond.Wait()
	}
	m := p.queue[0]
	p.queue = p.queue[1:]
	return m, os2.NoError
}

// GfxLibCall charges one pass of the user-level graphics library — the
// code that is identical on both systems because it never enters any
// kernel.
func (p *Process) GfxLibCall(instr uint64) {
	p.sys.K.CPU.Exec(p.sys.gfxStub)
	p.sys.K.CPU.Instr(instr)
}

// Exit terminates the process.
func (p *Process) Exit() {
	p.sys.mu.Lock()
	delete(p.sys.procs, p.pid)
	p.sys.mu.Unlock()
	p.task.Terminate()
}
