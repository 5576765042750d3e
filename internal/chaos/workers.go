package chaos

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"

	"repro/internal/mach"
	"repro/internal/mvm"
	"repro/internal/os2"
	"repro/internal/posix"
)

// The traffic workers.  Each owns a deterministic rng (seeded from the run
// seed and its id) and a set of files it alone mutates, so a read-back
// mismatch on a file whose last write was acknowledged is unambiguously a
// lost write — invariant 2's oracle.
//
// Taint semantics: the file servers run write-behind, so an errored write
// may have been partially applied before the error surfaced.  A file whose
// last mutation errored is "tainted": the oracle only requires it to be
// readable, not to match.  The next fully-acknowledged rewrite clears the
// taint and re-arms the exact check.

// shadowFile is the oracle's model of one worker-owned file.
type shadowFile struct {
	path  string
	size  int
	known []byte // content of the last fully acknowledged rewrite
	taint bool   // last mutation errored; content is indeterminate
}

// stamp fills buf with a diagnosable deterministic pattern: an op serial
// in the first 8 bytes, a file-identity tag in the next 8, seeded noise
// after — so a mismatch report can say whose bytes actually came back.
func stamp(rng *rand.Rand, buf []byte, serial, tag uint64) {
	binary.LittleEndian.PutUint64(buf, serial)
	if len(buf) >= 16 {
		binary.LittleEndian.PutUint64(buf[8:], tag)
	}
	for i := 16; i < len(buf); i++ {
		buf[i] = byte(rng.Intn(256))
	}
}

// fnv64 is FNV-1a over s: a path's stamp tag, and a step of an op
// stream's digest.
func fnv64(s string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

// describeStamp decodes a read-back buffer's stamp for mismatch reports.
func describeStamp(got, want []byte) string {
	if len(got) < 16 || len(want) < 16 {
		return fmt.Sprintf("first diff at %d", firstDiff(got, want))
	}
	return fmt.Sprintf("got serial=%d tag=%#x, want serial=%d tag=%#x, first diff at %d",
		binary.LittleEndian.Uint64(got), binary.LittleEndian.Uint64(got[8:]),
		binary.LittleEndian.Uint64(want), binary.LittleEndian.Uint64(want[8:]),
		firstDiff(got, want))
}

// opStream digests the ops a worker's setup and op draw — kind, path,
// size and serial — so a test can pin each worker's stream to its seed.
// verify is left out: its rewrites depend on which writes faulted.
type opStream uint64

func (s *opStream) note(kind, path string, size int, serial uint64) {
	*s = opStream(fnv64(fmt.Sprintf("%x %s %s %d %d", uint64(*s), kind, path, size, serial)))
}

func (s *opStream) digest() uint64 { return uint64(*s) }

func wrng(seed int64, id int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000003 + int64(id)))
}

// ---------------------------------------------------------- OS/2, POSIX --

// fileWorker is an OS/2 or POSIX process rewriting, reading back and
// statting four files of its own.  The oracle is the same for both
// personalities; only the calls under it differ.
type fileWorker struct {
	id     int
	kind   string // "os2" or "posix"
	h      *harness
	rng    *rand.Rand
	fs     fileCalls
	files  []*shadowFile
	mix    []fileOp
	serial uint64
	opStream
}

// fileCalls is one personality's file API as a file worker drives it:
// the personality's success code is a nil error.
type fileCalls interface {
	start(h *harness, name string) error              // the worker's process (and directory)
	open(path string, write bool) (fd int, err error) // write creates or truncates
	read(fd int, buf []byte) (int, error)
	write(fd int, buf []byte) (int, error)
	close(fd int) error
	stat(path string) (size int64, err error)
	remove(path string) error
}

// fileOp is one bucket of a worker's op mix: it runs when the worker's
// 0–99 draw falls below cutoff.
type fileOp struct {
	cutoff int
	kind   string
	run    func(w *fileWorker, f *shadowFile) error
}

func newOS2Worker(id int) *fileWorker {
	w := &fileWorker{id: id, kind: "os2", fs: &os2Calls{}, mix: []fileOp{
		{35, "rewrite", rewriteOp},
		{75, "read", (*fileWorker).readVerify},
		{90, "stat", (*fileWorker).statCheck},
		{100, "recreate", (*fileWorker).recreate},
	}}
	for j := 0; j < 4; j++ {
		w.files = append(w.files, &shadowFile{path: fmt.Sprintf("/chaos/o%d_%d.dat", id, j), size: 256 + 128*j})
	}
	return w
}

func newPosixWorker(id int) *fileWorker {
	c := &posixCalls{dir: fmt.Sprintf("/chaos/p%d", id)}
	w := &fileWorker{id: id, kind: "posix", fs: c, mix: []fileOp{
		{35, "rewrite", rewriteOp},
		{70, "read", (*fileWorker).readVerify},
		{80, "readdir", c.readdir},
		{88, "stat", (*fileWorker).statCheck},
		{100, "rename", c.renameShuffle},
	}}
	for j := 0; j < 4; j++ {
		w.files = append(w.files, &shadowFile{path: fmt.Sprintf("%s/f%d.dat", c.dir, j), size: 192 + 96*j})
	}
	return w
}

func (w *fileWorker) name() string { return fmt.Sprintf("%s-%d", w.kind, w.id) }

func (w *fileWorker) setup(h *harness) error {
	w.h, w.rng = h, wrng(h.cfg.Seed, w.id)
	if err := w.fs.start(h, "chaos-"+w.name()); err != nil {
		return err
	}
	for _, f := range w.files {
		// Initial population happens before any fault is armed, so a
		// failure here is a harness error, not a taint.
		w.rewrite(f)
		if f.taint {
			return fmt.Errorf("initial rewrite of %s errored with no fault armed", f.path)
		}
		w.note("setup", f.path, f.size, w.serial)
	}
	return nil
}

func (w *fileWorker) op() error {
	f := w.files[w.rng.Intn(len(w.files))]
	r := w.rng.Intn(100)
	i := 0
	for r >= w.mix[i].cutoff {
		i++
	}
	w.note(w.mix[i].kind, f.path, f.size, w.serial)
	return w.mix[i].run(w, f)
}

// rewrite replaces f's content in full: open(create) + write + close.  The
// write is acknowledged only when every step succeeds — then the shadow
// copy becomes the new expected content.  Any error taints the file.
func (w *fileWorker) rewrite(f *shadowFile) {
	w.serial++
	buf := make([]byte, f.size)
	stamp(w.rng, buf, w.serial, fnv64(f.path))
	fd, err := w.fs.open(f.path, true)
	if err != nil {
		w.h.opErrs.Add(1)
		f.taint = true
		return
	}
	n, err := w.fs.write(fd, buf)
	cerr := w.fs.close(fd)
	if err != nil || n != f.size || cerr != nil {
		w.h.opErrs.Add(1)
		f.taint = true
		return
	}
	f.known, f.taint = buf, false
}

// rewriteOp is rewrite in the op mix: a failed rewrite taints its file,
// which violates no invariant.
func rewriteOp(w *fileWorker, f *shadowFile) error {
	w.rewrite(f)
	return nil
}

// readVerify reads f back in full and, when untainted, requires an exact
// match against the last acknowledged content.
func (w *fileWorker) readVerify(f *shadowFile) error {
	fd, err := w.fs.open(f.path, false)
	if err != nil {
		w.h.opErrs.Add(1)
		if !f.taint {
			return fmt.Errorf("lost file: %s acknowledged but open failed: %v", f.path, err)
		}
		return nil
	}
	defer w.fs.close(fd)
	got := make([]byte, 0, f.size)
	tmp := make([]byte, f.size)
	for len(got) < f.size {
		n, err := w.fs.read(fd, tmp[:f.size-len(got)])
		if err != nil {
			w.h.opErrs.Add(1)
			if !f.taint {
				return fmt.Errorf("lost data: %s read failed mid-file: %v", f.path, err)
			}
			return nil
		}
		if n == 0 {
			break
		}
		got = append(got, tmp[:n]...)
	}
	if !f.taint && !bytes.Equal(got, f.known) {
		return fmt.Errorf("lost write: %s acknowledged %d bytes, read back %d (%s)",
			f.path, len(f.known), len(got), describeStamp(got, f.known))
	}
	return nil
}

// statCheck is the stat oracle: an untainted file's size is exactly what
// was acknowledged.
func (w *fileWorker) statCheck(f *shadowFile) error {
	size, err := w.fs.stat(f.path)
	if err != nil {
		w.h.opErrs.Add(1)
		if !f.taint {
			return fmt.Errorf("lost file: %s acknowledged but stat failed: %v", f.path, err)
		}
		return nil
	}
	if !f.taint && size != int64(f.size) {
		return fmt.Errorf("lost write: %s acknowledged size %d, stat says %d", f.path, f.size, size)
	}
	return nil
}

// recreate deletes f and rewrites it: the hostile path for the cache's
// invalidation accounting.
func (w *fileWorker) recreate(f *shadowFile) error {
	if err := w.fs.remove(f.path); err != nil {
		w.h.opErrs.Add(1)
	}
	f.taint = true // gone, or in an unknown state, until the rewrite lands
	w.rewrite(f)
	return nil
}

// verify is the post-heal oracle: every file ends untainted and exact.
func (w *fileWorker) verify() (clean, tainted int, err error) {
	for _, f := range w.files {
		// The device is healed by now, so one clean rewrite must land —
		// the fail/heal/retry convergence the cache retry path promises.
		// That clears the taint and re-arms the exact check.
		if f.taint {
			w.rewrite(f)
			if f.taint {
				return 0, 0, fmt.Errorf("no recovery: rewrite of %s still failing after heal", f.path)
			}
		}
		if err := w.readVerify(f); err != nil {
			return 0, 0, err
		}
	}
	return len(w.files), 0, nil
}

// asError maps a personality's success code, its zero (os2.NoError,
// posix.OK), to a nil error: a typed zero stored in an error is not nil.
func asError[E interface {
	comparable
	error
}](e E) error {
	var ok E
	if e == ok {
		return nil
	}
	return e
}

// os2Calls drives an OS/2 process.
type os2Calls struct{ p *os2.Process }

func (c *os2Calls) start(h *harness, name string) (err error) {
	c.p, err = h.sys.OS2.CreateProcess(name)
	return err
}

func (c *os2Calls) open(path string, write bool) (int, error) {
	fd, e := c.p.DosOpen(path, write, write)
	return int(fd), asError(e)
}

func (c *os2Calls) read(fd int, buf []byte) (int, error) {
	n, e := c.p.DosRead(uint32(fd), buf)
	return n, asError(e)
}

func (c *os2Calls) write(fd int, buf []byte) (int, error) {
	n, e := c.p.DosWrite(uint32(fd), buf)
	return n, asError(e)
}

func (c *os2Calls) close(fd int) error { return asError(c.p.DosClose(uint32(fd))) }

func (c *os2Calls) stat(path string) (int64, error) {
	a, e := c.p.DosQueryPathInfo(path)
	return a.Size, asError(e)
}

func (c *os2Calls) remove(path string) error { return asError(c.p.DosDelete(path)) }

// posixCalls drives a POSIX process working in its own directory.
type posixCalls struct {
	dir string
	p   *posix.Process
}

func (c *posixCalls) start(h *harness, name string) error {
	p, err := h.sys.POSIX.Spawn(name)
	if err != nil {
		return err
	}
	c.p = p
	if e := p.Mkdir(c.dir); e != posix.OK {
		return fmt.Errorf("mkdir %s: %v", c.dir, e)
	}
	return nil
}

func (c *posixCalls) open(path string, write bool) (int, error) {
	flags := posix.ORdonly
	if write {
		flags = posix.OWronly | posix.OCreat
	}
	fd, e := c.p.Open(path, flags)
	return fd, asError(e)
}

func (c *posixCalls) read(fd int, buf []byte) (int, error) {
	n, e := c.p.Read(fd, buf)
	return n, asError(e)
}

func (c *posixCalls) write(fd int, buf []byte) (int, error) {
	n, e := c.p.Write(fd, buf)
	return n, asError(e)
}

func (c *posixCalls) close(fd int) error { return asError(c.p.Close(fd)) }

func (c *posixCalls) stat(path string) (int64, error) {
	a, e := c.p.Stat(path)
	return a.Size, asError(e)
}

func (c *posixCalls) remove(path string) error { return asError(c.p.Unlink(path)) }

// readdir lists the worker's directory.
func (c *posixCalls) readdir(w *fileWorker, _ *shadowFile) error {
	if _, e := c.p.Readdir(c.dir); e != posix.OK {
		w.h.opErrs.Add(1)
	}
	return nil
}

// renameShuffle writes, renames and unlinks an untracked scratch file:
// namespace churn without oracle bookkeeping.
func (c *posixCalls) renameShuffle(w *fileWorker, _ *shadowFile) error {
	scratch := c.dir + "/scratch"
	if fd, err := c.open(scratch, true); err == nil {
		c.write(fd, []byte("scratch"))
		c.close(fd)
	} else {
		w.h.opErrs.Add(1)
	}
	if e := c.p.Rename(scratch, scratch+".2"); e != posix.OK {
		w.h.opErrs.Add(1)
		return nil
	}
	if err := c.remove(scratch + ".2"); err != nil {
		w.h.opErrs.Add(1)
	}
	return nil
}

// ----------------------------------------------------------------- MVM --

// mvmWorker drives a DOS guest through INT 21h file I/O.  The MVM write
// call appends at EOF (as the real VDD did), so the oracle verifies a
// stable prefix: each slot's expected content is its first fully
// acknowledged 64-byte write, which later appends cannot disturb.  Guest
// programs store each call's AX at a result trail (0x400+) so the host can
// tell exactly which steps the guest saw acknowledged.
type mvmWorker struct {
	id     int
	h      *harness
	rng    *rand.Rand
	vm     *mvm.VM
	slots  []*mvmSlot
	wrProg []byte
	rdProg []byte
	serial uint64
	opStream
}

type mvmSlot struct {
	dosName string // guest-visible name; resolves to /<name> on the root volume
	prefix  []byte // first acknowledged 64-byte write; nil until one lands
	taint   bool   // first write errored; prefix indeterminate
	wrote   bool   // a write round has run for this slot
}

const (
	mvmNameAddr   = 0x100 // NUL-terminated filename
	mvmDataAddr   = 0x200 // 64-byte write payload
	mvmReadAddr   = 0x280 // 64-byte read-back buffer
	mvmTrailAddr  = 0x400 // AX result trail: open, io (2 bytes each)
	mvmChunk      = 64
	mvmFuelPerRun = 10_000
)

func newMVMWorker(id int) *mvmWorker { return &mvmWorker{id: id} }

func (w *mvmWorker) name() string { return fmt.Sprintf("mvm-%d", w.id) }

func (w *mvmWorker) setup(h *harness) error {
	w.h, w.rng = h, wrng(h.cfg.Seed, w.id)
	v, err := h.sys.MVM.NewVM(fmt.Sprintf("chaos-vm-%d", w.id), mvm.Interpret)
	if err != nil {
		return err
	}
	w.vm = v
	for j := 0; j < 6; j++ {
		w.slots = append(w.slots, &mvmSlot{dosName: fmt.Sprintf("CH%d_%d.DAT", w.id, j)})
	}
	// Write program: create (AX -> trail), append 64 bytes (AX -> trail),
	// close, halt.
	w.wrProg, err = mvm.NewAsm().
		MovImm(mvm.AX, 0x3C00).MovImm(mvm.DX, mvmNameAddr).Int(mvm.IntDOS).
		Store(mvmTrailAddr, mvm.AX).MovReg(mvm.BX, mvm.AX).
		MovImm(mvm.AX, 0x4000).MovImm(mvm.CX, mvmChunk).MovImm(mvm.DX, mvmDataAddr).Int(mvm.IntDOS).
		Store(mvmTrailAddr+2, mvm.AX).
		MovImm(mvm.AX, 0x3E00).Int(mvm.IntDOS).
		Hlt().Assemble()
	if err != nil {
		return err
	}
	// Read program: open, read 64 bytes from offset 0, close, halt.
	w.rdProg, err = mvm.NewAsm().
		MovImm(mvm.AX, 0x3D00).MovImm(mvm.DX, mvmNameAddr).Int(mvm.IntDOS).
		Store(mvmTrailAddr, mvm.AX).MovReg(mvm.BX, mvm.AX).
		MovImm(mvm.AX, 0x3F00).MovImm(mvm.CX, mvmChunk).MovImm(mvm.DX, mvmReadAddr).Int(mvm.IntDOS).
		Store(mvmTrailAddr+2, mvm.AX).
		MovImm(mvm.AX, 0x3E00).Int(mvm.IntDOS).
		Hlt().Assemble()
	if err != nil {
		return err
	}
	// Seed every slot's prefix before faults are armed.
	for _, s := range w.slots {
		if err := w.writeRound(s); err != nil {
			return err
		}
		if s.taint {
			return fmt.Errorf("initial MVM write of %s errored with no fault armed", s.dosName)
		}
		w.note("setup", s.dosName, mvmChunk, w.serial)
	}
	return nil
}

// run loads prog, plants the filename and payload after Load zeroes guest
// memory, runs to halt, and returns the two trail words (open AX, io AX).
func (w *mvmWorker) run(prog []byte, s *mvmSlot, payload []byte) (openAX, ioAX uint16, err error) {
	if err := w.vm.Load(prog); err != nil {
		return 0, 0, err
	}
	copy(w.vm.Mem[mvmNameAddr:], append([]byte(s.dosName), 0))
	if payload != nil {
		copy(w.vm.Mem[mvmDataAddr:], payload)
	}
	if err := w.vm.Run(mvmFuelPerRun); err != nil {
		return 0, 0, err
	}
	if !w.vm.Halted() {
		return 0, 0, fmt.Errorf("guest did not halt within %d fuel", mvmFuelPerRun)
	}
	openAX = binary.LittleEndian.Uint16(w.vm.Mem[mvmTrailAddr:])
	ioAX = binary.LittleEndian.Uint16(w.vm.Mem[mvmTrailAddr+2:])
	return openAX, ioAX, nil
}

func (w *mvmWorker) writeRound(s *mvmSlot) error {
	w.serial++
	payload := make([]byte, mvmChunk)
	stamp(w.rng, payload, w.serial, fnv64(s.dosName))
	openAX, ioAX, err := w.run(w.wrProg, s, payload)
	if err != nil {
		return err
	}
	acked := openAX != 0xFFFF && ioAX == mvmChunk
	if !acked {
		w.h.opErrs.Add(1)
		if s.prefix == nil {
			s.taint = true
		}
		// A failed append cannot disturb an already-acknowledged prefix.
	} else if s.prefix == nil && !s.taint {
		s.prefix = payload
	}
	s.wrote = true
	return nil
}

func (w *mvmWorker) readRound(s *mvmSlot) error {
	if !s.wrote {
		return nil
	}
	openAX, ioAX, err := w.run(w.rdProg, s, nil)
	if err != nil {
		return err
	}
	if openAX == 0xFFFF || ioAX == 0xFFFF {
		w.h.opErrs.Add(1)
		if s.prefix != nil {
			return fmt.Errorf("lost file: guest %s acknowledged but open/read failed (open=%#x io=%#x)",
				s.dosName, openAX, ioAX)
		}
		return nil
	}
	if s.prefix == nil {
		return nil
	}
	if int(ioAX) < mvmChunk {
		return fmt.Errorf("lost data: guest %s read %d of %d acknowledged bytes", s.dosName, ioAX, mvmChunk)
	}
	got := w.vm.Mem[mvmReadAddr : mvmReadAddr+mvmChunk]
	if !bytes.Equal(got, s.prefix) {
		return fmt.Errorf("lost write: guest %s prefix mismatch (%s)",
			s.dosName, describeStamp(got, s.prefix))
	}
	return nil
}

func (w *mvmWorker) op() error {
	s := w.slots[w.rng.Intn(len(w.slots))]
	if w.rng.Intn(2) == 0 {
		w.note("write", s.dosName, mvmChunk, w.serial)
		return w.writeRound(s)
	}
	w.note("read", s.dosName, mvmChunk, w.serial)
	return w.readRound(s)
}

func (w *mvmWorker) verify() (clean, tainted int, err error) {
	for _, s := range w.slots {
		if err := w.readRound(s); err != nil {
			return clean, tainted, err
		}
		if s.taint {
			tainted++
		} else {
			clean++
		}
	}
	return clean, tainted, nil
}

// ---------------------------------------------------------------- echo --

// echoWorker hammers the sacrificial echo service with raw RPC.  The port
// under it is destroyed mid-epoch by the port-destruction fault, so this
// worker is the one that must see ErrDeadPort — never a hang — and must
// re-acquire a send right when the service is rebuilt.
type echoWorker struct {
	id     int
	h      *harness
	rng    *rand.Rand
	task   *mach.Task
	th     *mach.Thread
	dest   mach.PortName
	gen    uint64
	serial uint64
	opStream
}

func newEchoWorker(id int) *echoWorker { return &echoWorker{id: id} }

func (w *echoWorker) name() string { return fmt.Sprintf("echo-%d", w.id) }

func (w *echoWorker) setup(h *harness) error {
	w.h, w.rng = h, wrng(h.cfg.Seed, w.id)
	w.task = h.sys.Kernel.NewTask(fmt.Sprintf("chaos-echo-client-%d", w.id))
	th, err := w.task.NewBoundThread("main")
	if err != nil {
		return err
	}
	w.th = th
	return w.refresh()
}

// refresh re-acquires a send right to the echo service's current port.
func (w *echoWorker) refresh() error {
	gen, srvTask, recv := w.h.echo.current()
	name, err := w.task.InsertRight(srvTask, recv, mach.DispMakeSend)
	if err != nil {
		// The port died between the generation read and the insert; the
		// next op retries.
		w.h.opErrs.Add(1)
		return nil
	}
	w.dest, w.gen = name, gen
	return nil
}

func (w *echoWorker) op() error {
	if gen, _, _ := w.h.echo.current(); gen != w.gen {
		if err := w.refresh(); err != nil {
			return err
		}
	}
	w.serial++
	payload := make([]byte, 48)
	stamp(w.rng, payload, w.serial, uint64(w.id))
	w.note("echo", "", len(payload), w.serial)
	reply, err := w.th.Call(w.dest, &mach.Message{ID: echoMsgID, Body: payload},
		mach.CallOpts{Timeout: echoCallTimeout})
	if err != nil {
		// Dead port or timeout during a destruction window: expected,
		// counted, and the invariant checks catch any leak it leaves.
		w.h.opErrs.Add(1)
		return nil
	}
	if !bytes.Equal(reply.Body, payload) {
		return fmt.Errorf("echo corruption: sent serial %d, reply differs at %d",
			w.serial, firstDiff(reply.Body, payload))
	}
	return nil
}

func (w *echoWorker) verify() (clean, tainted int, err error) {
	// Liveness oracle: after the final repair the echo service must
	// answer a fresh call.
	if err := w.refresh(); err != nil {
		return 0, 0, err
	}
	payload := []byte("final-echo-probe")
	reply, cerr := w.th.Call(w.dest, &mach.Message{ID: echoMsgID, Body: payload},
		mach.CallOpts{Timeout: echoCallTimeout})
	if cerr != nil {
		return 0, 0, fmt.Errorf("echo service dead after final repair: %w", cerr)
	}
	if !bytes.Equal(reply.Body, payload) {
		return 0, 0, fmt.Errorf("echo corruption on final probe")
	}
	return 1, 0, nil
}

func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
