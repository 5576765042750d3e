// Package os2 implements the OS/2 personality: a personality server plus
// per-process shared libraries over the personality-neutral services.
// As in the paper's design: each OS/2 process receives a microkernel task,
// each OS/2 thread becomes a microkernel thread, programs are loaded with
// RPC-stub shared libraries, and wherever possible function is implemented
// in the libraries themselves to reduce interaction with the servers.
// File API calls go straight to the file server under the OS/2 semantic
// profile; memory API calls run in the in-process commitment memory
// manager (mem.go); process, shared-memory and PM-queue operations RPC to
// the personality server.
package os2

import (
	"encoding/binary"
	"sync"

	"repro/internal/cpu"
	"repro/internal/kstat"
	"repro/internal/ksync"
	"repro/internal/ktime"
	"repro/internal/mach"
	"repro/internal/vfs"
	"repro/internal/vm"
)

// Error is an OS/2 API return code.
type Error uint16

// OS/2 error codes (the classic values).
const (
	NoError             Error = 0
	ErrFileNotFound     Error = 2
	ErrTooManyOpenFiles Error = 4
	ErrAccessDenied     Error = 5
	ErrInvalidHandle    Error = 6
	ErrNotEnoughMemory  Error = 8
	ErrInvalidParameter Error = 87
	ErrFilenameTooLong  Error = 206
	ErrSemNotFound      Error = 187
	ErrQueueEmpty       Error = 342
	ErrProcNotFound     Error = 303
)

func (e Error) Error() string {
	switch e {
	case NoError:
		return "NO_ERROR"
	case ErrFileNotFound:
		return "ERROR_FILE_NOT_FOUND"
	case ErrAccessDenied:
		return "ERROR_ACCESS_DENIED"
	case ErrInvalidHandle:
		return "ERROR_INVALID_HANDLE"
	case ErrNotEnoughMemory:
		return "ERROR_NOT_ENOUGH_MEMORY"
	case ErrInvalidParameter:
		return "ERROR_INVALID_PARAMETER"
	case ErrFilenameTooLong:
		return "ERROR_FILENAME_EXCED_RANGE"
	default:
		return "OS2_ERROR"
	}
}

// PID identifies an OS/2 process.
type PID uint32

// Server message IDs.
const (
	msgSharedAlloc mach.MsgID = 0x0520 + iota
	msgSharedGet
	msgPostMsg
	msgProcExit
)

// Server is the OS/2 personality server.
type Server struct {
	k      *mach.Kernel
	vmsys  *vm.System
	files  *vfs.Server
	clock  *ktime.Clock
	syncf  *ksync.Factory
	task   *mach.Task
	port   mach.PortName
	path   cpu.Region
	stub   cpu.Region
	gfx    cpu.Region
	layout *cpu.Layout

	mu     sync.Mutex
	nextP  PID
	procs  map[PID]*Process
	shared map[string]*vm.CoercedRegion
}

// NewServer starts the OS/2 personality server with pool API threads
// (pool <= 1 keeps the classic single server loop).
//
// Handler concurrency contract: with pool > 1 handle runs on up to pool
// threads at once.  The process table, shared-memory map and PID counter
// are guarded by s.mu; per-process state (open files, mutexes, message
// queue) is guarded by each Process's own mu/cond; the file server client
// calls go over per-process threads.  handle must take s.mu for any access
// to procs/shared/nextP.
func NewServer(k *mach.Kernel, vmsys *vm.System, files *vfs.Server, clock *ktime.Clock, syncf *ksync.Factory, pool int) (*Server, error) {
	s := &Server{
		k: k, vmsys: vmsys, files: files, clock: clock, syncf: syncf,
		task:   k.NewTask("os2server"),
		path:   k.Layout().PlaceInstr("os2_server_op", 950),
		stub:   k.Layout().PlaceInstr("os2_api_stub", 160),
		gfx:    k.Layout().PlaceInstr("gre_library", 300),
		layout: k.Layout(),
		nextP:  1,
		procs:  make(map[PID]*Process),
		shared: make(map[string]*vm.CoercedRegion),
	}
	port, err := s.task.AllocatePort()
	if err != nil {
		return nil, err
	}
	s.port = port
	if _, err := s.task.ServePool("api", port, pool, s.handle); err != nil {
		return nil, err
	}
	return s, nil
}

// Task returns the server task.
func (s *Server) Task() *mach.Task { return s.task }

func (s *Server) handle(req *mach.Message) *mach.Message {
	s.k.CPU.Exec(s.path)
	switch req.ID {
	case msgSharedAlloc:
		if len(req.Body) < 8 {
			return &mach.Message{ID: uint32ID(ErrInvalidParameter)}
		}
		name := string(req.OOL)
		size := binary.LittleEndian.Uint64(req.Body[0:8])
		s.mu.Lock()
		defer s.mu.Unlock()
		if _, ok := s.shared[name]; ok {
			return &mach.Message{ID: uint32ID(ErrInvalidParameter)}
		}
		r, err := s.vmsys.AllocateCoerced((size+vm.PageSize-1)&^uint64(vm.PageSize-1), "os2:"+name)
		if err != nil {
			return &mach.Message{ID: uint32ID(ErrNotEnoughMemory)}
		}
		s.shared[name] = r
		var body [16]byte
		binary.LittleEndian.PutUint64(body[0:8], uint64(r.Start))
		binary.LittleEndian.PutUint64(body[8:16], r.Size)
		return &mach.Message{ID: 0, Body: body[:]}
	case msgSharedGet:
		name := string(req.OOL)
		s.mu.Lock()
		r, ok := s.shared[name]
		s.mu.Unlock()
		if !ok {
			return &mach.Message{ID: uint32ID(ErrFileNotFound)}
		}
		var body [16]byte
		binary.LittleEndian.PutUint64(body[0:8], uint64(r.Start))
		binary.LittleEndian.PutUint64(body[8:16], r.Size)
		return &mach.Message{ID: 0, Body: body[:]}
	case msgPostMsg:
		if len(req.Body) < 12 {
			return &mach.Message{ID: uint32ID(ErrInvalidParameter)}
		}
		dst := PID(binary.LittleEndian.Uint32(req.Body[0:4]))
		msg := binary.LittleEndian.Uint32(req.Body[4:8])
		arg := binary.LittleEndian.Uint32(req.Body[8:12])
		s.mu.Lock()
		p, ok := s.procs[dst]
		s.mu.Unlock()
		if !ok {
			return &mach.Message{ID: uint32ID(ErrProcNotFound)}
		}
		p.queue.post(PMMsg{Msg: msg, Arg: arg})
		return &mach.Message{ID: 0}
	case msgProcExit:
		if len(req.Body) < 4 {
			return &mach.Message{ID: uint32ID(ErrInvalidParameter)}
		}
		pid := PID(binary.LittleEndian.Uint32(req.Body[0:4]))
		s.mu.Lock()
		delete(s.procs, pid)
		s.mu.Unlock()
		return &mach.Message{ID: 0}
	default:
		return &mach.Message{ID: uint32ID(ErrInvalidParameter)}
	}
}

func uint32ID(e Error) mach.MsgID { return mach.MsgID(e) }

// sharedRegion finds the coerced region backing a shared-memory name.
func (s *Server) sharedRegion(start vm.VAddr) *vm.CoercedRegion {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range s.shared {
		if r.Start == start {
			return r
		}
	}
	return nil
}

// PMMsg is a Presentation Manager window message.
type PMMsg struct {
	Msg uint32
	Arg uint32
}

// pmQueue is a process's PM message queue.
type pmQueue struct {
	mu   sync.Mutex
	cond *sync.Cond
	msgs []PMMsg
}

func newPMQueue() *pmQueue {
	q := &pmQueue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *pmQueue) post(m PMMsg) {
	q.mu.Lock()
	q.msgs = append(q.msgs, m)
	q.cond.Signal()
	q.mu.Unlock()
}

func (q *pmQueue) get(wait bool) (PMMsg, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.msgs) == 0 {
		if !wait {
			return PMMsg{}, false
		}
		q.cond.Wait()
	}
	m := q.msgs[0]
	q.msgs = q.msgs[1:]
	return m, true
}

// Process is one OS/2 process: a microkernel task, its address map, the
// in-process memory manager, open files and a PM queue.
type Process struct {
	srv  *Server
	pid  PID
	task *mach.Task
	th   *mach.Thread
	m    *vm.Map
	Mem  *MemoryManager
	fs   *vfs.Client

	srvPort mach.PortName
	queue   *pmQueue

	mu      sync.Mutex
	nextFH  uint32
	files   map[uint32]*os2File
	mutexes map[string]*ksync.KMutex
}

type os2File struct {
	f   *vfs.File
	pos int64
}

// CreateProcess builds a process ("loading" a program is the caller's
// affair via the loader; the personality wiring happens here).
func (s *Server) CreateProcess(name string) (*Process, error) {
	task := s.k.NewTask("os2:" + name)
	th, err := task.NewBoundThread("thread1")
	if err != nil {
		return nil, err
	}
	m := s.vmsys.NewMap(task.ASID())
	task.AS = m
	client, err := s.files.NewClient(th, vfs.ProfileOS2)
	if err != nil {
		return nil, err
	}
	srvPort, err := task.InsertRight(s.task, s.port, mach.DispMakeSend)
	if err != nil {
		return nil, err
	}
	p := &Process{
		srv: s, task: task, th: th, m: m,
		Mem:     NewMemoryManager(s.k.CPU, s.layout, m),
		fs:      client,
		srvPort: srvPort,
		queue:   newPMQueue(),
		files:   make(map[uint32]*os2File),
		mutexes: make(map[string]*ksync.KMutex),
		nextFH:  1,
	}
	s.mu.Lock()
	p.pid = s.nextP
	s.nextP++
	s.procs[p.pid] = p
	s.mu.Unlock()
	return p, nil
}

// PID returns the process ID.
func (p *Process) PID() PID { return p.pid }

// Task returns the underlying microkernel task.
func (p *Process) Task() *mach.Task { return p.task }

// Thread returns the process's initial thread.
func (p *Process) Thread() *mach.Thread { return p.th }

// stubCall charges the per-API shared-library stub.
func (p *Process) stubCall() { p.srv.k.CPU.Exec(p.srv.stub) }

// api names one OS/2 API entry: the name of its record and its kstat
// family, "os2.api.<name>", declared once so no call builds it.
type api struct {
	name string
	key  *kstat.Key
}

func newAPI(name string) api { return api{name: name, key: kstat.NewKey("os2.api." + name)} }

// The API entries traceAPI counts.
var (
	apiDosOpen           = newAPI("DosOpen")
	apiDosRead           = newAPI("DosRead")
	apiDosWrite          = newAPI("DosWrite")
	apiDosClose          = newAPI("DosClose")
	apiDosDelete         = newAPI("DosDelete")
	apiDosMkdir          = newAPI("DosMkdir")
	apiDosQueryPathInfo  = newAPI("DosQueryPathInfo")
	apiDosAllocMem       = newAPI("DosAllocMem")
	apiDosAllocSharedMem = newAPI("DosAllocSharedMem")
	apiWinPostMsg        = newAPI("WinPostMsg")
	apiGfxLibCall        = newAPI("GfxLibCall")
)

// traceAPI opens a span covering one OS/2 API call.  Top-level calls root
// a new trace; everything the call causes downstream (file-server RPCs,
// driver I/O, faults) hangs off it in the causal tree.
func (p *Process) traceAPI(a api) *cpu.Span {
	ps := p.srv.k.CPU.Planes()
	kstat.From(ps).Count(a.key).Inc()
	return ps.Open(cpu.Event{Type: cpu.EvAPI, Subsystem: "os2", Name: a.name}, nil)
}

// rpc sends a request to the personality server.
func (p *Process) rpc(id mach.MsgID, body, ool []byte) (*mach.Message, Error) {
	reply, err := p.th.Call(p.srvPort, &mach.Message{ID: id, Body: body, OOL: ool}, mach.CallOpts{})
	if err != nil {
		return nil, ErrInvalidHandle
	}
	if reply.ID != 0 {
		return nil, Error(reply.ID)
	}
	return reply, NoError
}

// --- Dos file API (library -> file server RPC, OS/2 profile) --------------

func mapVFSErr(err error) Error {
	switch err {
	case nil:
		return NoError
	case vfs.ErrNotFound, vfs.ErrNotMounted:
		return ErrFileNotFound
	case vfs.ErrNameTooLong:
		return ErrFilenameTooLong
	case vfs.ErrReadOnly, vfs.ErrIsDir:
		return ErrAccessDenied
	case vfs.ErrBadHandle:
		return ErrInvalidHandle
	case vfs.ErrNoSpace:
		return ErrNotEnoughMemory
	default:
		return ErrInvalidParameter
	}
}

// DosOpen opens (optionally creating) a file and returns its handle.
func (p *Process) DosOpen(path string, write, create bool) (uint32, Error) {
	defer p.traceAPI(apiDosOpen).End()
	p.stubCall()
	f, err := p.fs.Open(path, write, create)
	if err != nil {
		return 0, mapVFSErr(err)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	h := p.nextFH
	p.nextFH++
	p.files[h] = &os2File{f: f}
	return h, NoError
}

func (p *Process) file(h uint32) (*os2File, Error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	f, ok := p.files[h]
	if !ok {
		return nil, ErrInvalidHandle
	}
	return f, NoError
}

// DosRead reads sequentially from the handle's position.
func (p *Process) DosRead(h uint32, buf []byte) (int, Error) {
	defer p.traceAPI(apiDosRead).End()
	p.stubCall()
	f, e := p.file(h)
	if e != NoError {
		return 0, e
	}
	n, err := f.f.ReadAt(buf, f.pos)
	if err != nil {
		return 0, mapVFSErr(err)
	}
	f.pos += int64(n)
	return n, NoError
}

// DosWrite writes sequentially at the handle's position.
func (p *Process) DosWrite(h uint32, data []byte) (int, Error) {
	defer p.traceAPI(apiDosWrite).End()
	p.stubCall()
	f, e := p.file(h)
	if e != NoError {
		return 0, e
	}
	n, err := f.f.WriteAt(data, f.pos)
	if err != nil {
		return 0, mapVFSErr(err)
	}
	f.pos += int64(n)
	return n, NoError
}

// DosSetFilePtr seeks the handle.
func (p *Process) DosSetFilePtr(h uint32, pos int64) Error {
	p.stubCall()
	f, e := p.file(h)
	if e != NoError {
		return e
	}
	if pos < 0 {
		return ErrInvalidParameter
	}
	f.pos = pos
	return NoError
}

// DosClose closes the handle.
func (p *Process) DosClose(h uint32) Error {
	defer p.traceAPI(apiDosClose).End()
	p.stubCall()
	p.mu.Lock()
	f, ok := p.files[h]
	delete(p.files, h)
	p.mu.Unlock()
	if !ok {
		return ErrInvalidHandle
	}
	if err := f.f.Close(); err != nil {
		return mapVFSErr(err)
	}
	return NoError
}

// DosDelete removes a file.
func (p *Process) DosDelete(path string) Error {
	defer p.traceAPI(apiDosDelete).End()
	p.stubCall()
	return mapVFSErr(p.fs.Remove(path))
}

// DosMkdir creates a directory.
func (p *Process) DosMkdir(path string) Error {
	defer p.traceAPI(apiDosMkdir).End()
	p.stubCall()
	return mapVFSErr(p.fs.Mkdir(path))
}

// DosQueryPathInfo stats a path.
func (p *Process) DosQueryPathInfo(path string) (vfs.Attr, Error) {
	defer p.traceAPI(apiDosQueryPathInfo).End()
	p.stubCall()
	a, err := p.fs.Stat(path)
	return a, mapVFSErr(err)
}

// --- Dos memory API (in-process library over the commitment manager) -------

// DosAllocMem allocates byte-granular committed or reserved memory.
func (p *Process) DosAllocMem(bytes uint64, commit bool) (vm.VAddr, Error) {
	defer p.traceAPI(apiDosAllocMem).End()
	p.stubCall()
	return p.Mem.Alloc(bytes, commit)
}

// DosFreeMem frees an allocation (size retained by the system).
func (p *Process) DosFreeMem(base vm.VAddr) Error {
	p.stubCall()
	return p.Mem.Free(base)
}

// DosSetMem commits a reserved range.
func (p *Process) DosSetMem(base vm.VAddr) Error {
	p.stubCall()
	return p.Mem.Commit(base)
}

// DosQueryMem returns the retained allocation size.
func (p *Process) DosQueryMem(base vm.VAddr) (uint64, Error) {
	p.stubCall()
	return p.Mem.Size(base)
}

// --- shared memory (server RPC + coerced attach) ----------------------------

// DosAllocSharedMem allocates named shared memory that every process sees
// at the same address — the coerced-memory requirement.
func (p *Process) DosAllocSharedMem(name string, bytes uint64) (vm.VAddr, Error) {
	defer p.traceAPI(apiDosAllocSharedMem).End()
	p.stubCall()
	var body [8]byte
	binary.LittleEndian.PutUint64(body[:], bytes)
	reply, e := p.rpc(msgSharedAlloc, body[:], []byte(name))
	if e != NoError {
		return 0, e
	}
	start := vm.VAddr(binary.LittleEndian.Uint64(reply.Body[0:8]))
	r := p.srv.sharedRegion(start)
	if r == nil {
		return 0, ErrInvalidParameter
	}
	if err := p.m.AttachCoerced(r); err != nil {
		return 0, ErrNotEnoughMemory
	}
	return start, NoError
}

// DosGetNamedSharedMem attaches existing named shared memory, at the
// identical address.
func (p *Process) DosGetNamedSharedMem(name string) (vm.VAddr, Error) {
	p.stubCall()
	reply, e := p.rpc(msgSharedGet, nil, []byte(name))
	if e != NoError {
		return 0, e
	}
	start := vm.VAddr(binary.LittleEndian.Uint64(reply.Body[0:8]))
	r := p.srv.sharedRegion(start)
	if r == nil {
		return 0, ErrInvalidParameter
	}
	if err := p.m.AttachCoerced(r); err != nil {
		return 0, ErrNotEnoughMemory
	}
	return start, NoError
}

// ReadMem / WriteMem access the process's address space (what compiled
// code would do directly).
func (p *Process) ReadMem(addr vm.VAddr, n uint64) ([]byte, Error) {
	b, err := p.m.Read(addr, n)
	if err != nil {
		return nil, ErrInvalidParameter
	}
	return b, NoError
}

// WriteMem stores into the process's space.
func (p *Process) WriteMem(addr vm.VAddr, data []byte) Error {
	if err := p.m.Write(addr, data); err != nil {
		return ErrInvalidParameter
	}
	return NoError
}

// --- threads, sync, time ------------------------------------------------------

// DosCreateThread starts a second thread in the process.
func (p *Process) DosCreateThread(name string, fn func(*mach.Thread)) (*mach.Thread, Error) {
	p.stubCall()
	th, err := p.task.Spawn(name, fn)
	if err != nil {
		return nil, ErrNotEnoughMemory
	}
	return th, NoError
}

// DosCreateMutexSem creates (or opens) a named mutex.
func (p *Process) DosCreateMutexSem(name string) Error {
	p.stubCall()
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.mutexes[name]; ok {
		return ErrInvalidParameter
	}
	p.mutexes[name] = p.srv.syncf.NewKMutex()
	return NoError
}

// DosRequestMutexSem acquires the named mutex.
func (p *Process) DosRequestMutexSem(name string) Error {
	p.stubCall()
	p.mu.Lock()
	m, ok := p.mutexes[name]
	p.mu.Unlock()
	if !ok {
		return ErrSemNotFound
	}
	m.Lock()
	return NoError
}

// DosReleaseMutexSem releases the named mutex.
func (p *Process) DosReleaseMutexSem(name string) Error {
	p.stubCall()
	p.mu.Lock()
	m, ok := p.mutexes[name]
	p.mu.Unlock()
	if !ok {
		return ErrSemNotFound
	}
	m.Unlock()
	return NoError
}

// DosSleep advances simulated time.
func (p *Process) DosSleep(d ktime.Duration) Error {
	p.stubCall()
	p.srv.clock.Advance(d)
	return NoError
}

// --- PM message queue -----------------------------------------------------------

// WinPostMsg posts a window message to another process's queue through
// the personality server (the PM tasking path of Table 1).
func (p *Process) WinPostMsg(dst PID, msg, arg uint32) Error {
	defer p.traceAPI(apiWinPostMsg).End()
	p.stubCall()
	var body [12]byte
	binary.LittleEndian.PutUint32(body[0:4], uint32(dst))
	binary.LittleEndian.PutUint32(body[4:8], msg)
	binary.LittleEndian.PutUint32(body[8:12], arg)
	_, e := p.rpc(msgPostMsg, body[:], nil)
	return e
}

// WinGetMsg pops the next message, blocking if wait is set.
func (p *Process) WinGetMsg(wait bool) (PMMsg, Error) {
	p.stubCall()
	m, ok := p.queue.get(wait)
	if !ok {
		return PMMsg{}, ErrQueueEmpty
	}
	return m, NoError
}

// GfxLibCall charges one pass of the user-level graphics library: the
// converted 32-bit Presentation Manager code that runs entirely in shared
// libraries and drives the screen buffer directly — the reason graphics
// performance "was comparable or better with the microkernel-based
// system".
func (p *Process) GfxLibCall(instr uint64) {
	defer p.traceAPI(apiGfxLibCall).End()
	p.srv.k.CPU.Exec(p.srv.gfx)
	p.srv.k.CPU.Instr(instr)
}

// Exit terminates the process.
func (p *Process) Exit() {
	var body [4]byte
	binary.LittleEndian.PutUint32(body[:], uint32(p.pid))
	p.rpc(msgProcExit, body[:], nil)
	p.task.Terminate()
}
