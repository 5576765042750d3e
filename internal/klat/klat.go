// Package klat is the request-level tail-latency plane: where kstat
// aggregates and kprof attributes cycles to code, klat follows ONE
// request end to end and decomposes its latency into a hop-by-hop
// ledger — send, queue-wait, handler service, resume — so a p99 outlier
// has a named causal timeline instead of a bucket count.
//
// # The clock
//
// Every stamp reads the machine-wide cycle counter (on SMP, the Complex
// router's sum across engines).  That clock is monotonic under the
// happens-before edges the RPC path already establishes (a call runs
// its server side on its own goroutine, after taking a free server slot
// from a channel), so the five stamps of a hop always telescope:
//
//	P0 client entry   ─┐ Send    = P1-P0  (client stub, copy, charge)
//	P1 slot wait      ─┤ Queue   = P2-P1  (waiting for a server slot)
//	P2 server pickup  ─┤ Service = P3-P2  (receive path + handler + reply)
//	P3 reply commit   ─┤ Resume  = P4-P3  (client resume, AS switch back)
//	P4 client return  ─┘ E2E     = P4-P0  = Send+Queue+Service+Resume
//
// The identity is exact BY CONSTRUCTION — the segments are differences
// of the same stamps that define the end-to-end figure, not samples —
// which is what lets the E-TAIL gate demand that exemplar ledgers sum
// to the measured latency cycle for cycle.  Under concurrency a
// segment's cycles include every engine's concurrent charges; that is
// the point: while a request waits on the disk arm, the cycles its
// competitors burn ARE its queueing delay, exactly as wall time is on
// real hardware.
//
// # Propagation
//
// klat consumes the engine's observation records: a call's Begin opens
// its hop (P0), its send, pickup and reply-commit stamps are P1–P3, and
// its End is P4.  The call's record rides in the mach message header and
// holds the hop (cpu.Span.Lat), so the server side of a crossing stamps
// the same ledger the client opened, and the message a handler is
// serving IS its request context: whoever works for a request names it.
// A nested Call names its parent (its record's Req), and the waits and
// counts a subsystem wants on the ledger are recorded on the hop of the
// request it is working for.
// Nothing is discovered at run time: a call that names no request is a
// root, never somebody else's child.  A child's window nests inside its
// parent's service window (the chain is synchronous), so OwnService =
// Service − Σ child E2E never underflows and the tree sums exactly.
//
// Vectored carriers get one hop for the crossing plus a sub-hop per
// demultiplexed sub-request (service window only — subs share the
// carrier's queue and crossing).  The critical-path reduction descends
// into the slowest sub: the carrier's latency is that sub's path, and
// the dump annotates it.
//
// # Recording
//
// Every successful hop lands in its (server, op) family: log-bucketed
// e2e/queue/service/cross histograms, plus a bounded top-K exemplar
// reservoir of ROOT hops — the slowest complete requests, full ledger
// retained.  Failed or abandoned hops stay out of the histograms: their
// server-side stamps may still be in flight, and a tail story built from
// half-measured requests would lie.  A failed nested hop stays in its
// parent's ledger as one failed window, so the parent still sums.
//
// Like kstat/ktrace/kprof/kflight, klat is observation-only: every hook
// is a counter read plus private bookkeeping, no modeled charge, so a
// detached boot models bit-identical cycles
// (TestWorkloadObservationOnly/klat).
package klat

import (
	"sync"
	"sync/atomic"

	"repro/internal/cpu"
	"repro/internal/kstat"
)

// Of returns the ledger entry a request record holds, or nil: for a nil
// record, and for one opened while the plane was detached.
func Of(rec *cpu.Span) *Hop {
	if rec == nil {
		return nil
	}
	h, _ := rec.Lat.(*Hop)
	return h
}

// Stamp indices of a hop, in causal order.
const (
	pEntry  = iota // P0: client entry (Begin)
	pSend          // P1: send burst done, entering the slot wait
	pRecv          // P2: the call took a server slot
	pServed        // P3: reply committed (service end)
	pReturn        // P4: client back in user mode
	numStamps
)

// ExemplarK bounds each family's exemplar reservoir: the K slowest root
// requests keep their full ledgers, everything else is histogram-only.
const ExemplarK = 8

// stamp is one captured clock point: the cycle counter, and whether the
// point was reached.  Fields are atomics because client and server
// goroutines write different stamps of the same hop; the happens-before
// edges of the RPC path order them, the atomics keep the race detector
// satisfied.
type stamp struct {
	done   atomic.Bool
	cycles atomic.Uint64
}

func (s *stamp) set(cycles uint64) {
	s.cycles.Store(cycles)
	s.done.Store(true)
}

// Hop is one crossing's ledger entry.  A request's ledger is the tree
// of hops rooted at the client entry point: nested Calls made while
// serving it are children, carrier sub-requests are Sub children.
type Hop struct {
	// ID is the request ID minted at Begin — unique per tracker, so an
	// exemplar can be named across dumps.
	ID uint64
	// Server is the destination server's task name ("?" when the port
	// could not be resolved charge-free).
	Server string
	// Op is the operation selector of the request message.
	Op uint32
	// Width is the sub-request count of a vectored carrier (0 = plain).
	Width int
	// Sub marks a demultiplexed carrier sub-request: service window
	// only, no queue or crossing segments of its own.
	Sub bool
	// Root marks a hop opened with no parent named — a client entry
	// point.  Only root hops enter the exemplar reservoir.
	Root bool

	t      *Tracker
	stamps [numStamps]stamp
	sealed atomic.Bool
	failed atomic.Bool

	mu       sync.Mutex
	children []*Hop
	kids     [2]*Hop // children's first backing: one nested call grows nothing
	marks    map[string]uint64
	notes    map[string]uint64
	// Modeled schedule of the hop's server burst, attached at reply
	// delivery on SMP boots (zero on single-CPU, where the wall clock
	// and the model clock coincide): the burst's charged length, its
	// wait on the destination pool's virtual capacity (the block
	// driver's single slot = the disk arm), and its wait on engine
	// capacity — virtual cycles, outside the wall-segment partition.
	schedBurst    uint64
	schedPoolWait uint64
	schedCPUWait  uint64
}

func (h *Hop) stampNow(i int) {
	h.stamps[i].set(h.t.eng.Counters().Cycles)
}

// seg returns the cycle width of [a, b], or 0 when either end was never
// reached (failed hops are discarded before anyone asks).
func (h *Hop) seg(a, b int) uint64 {
	if !h.stamps[a].done.Load() || !h.stamps[b].done.Load() {
		return 0
	}
	return h.stamps[b].cycles.Load() - h.stamps[a].cycles.Load()
}

func (h *Hop) start() int {
	if h.Sub {
		return pRecv
	}
	return pEntry
}

func (h *Hop) end() int {
	if h.Sub {
		return pServed
	}
	return pReturn
}

// E2E is the hop's end-to-end cycles: P4−P0, or the service window for
// a carrier sub.
func (h *Hop) E2E() uint64 { return h.seg(h.start(), h.end()) }

func (h *Hop) addChild(c *Hop) {
	h.mu.Lock()
	if h.children == nil {
		h.children = h.kids[:0]
	}
	h.children = append(h.children, c)
	h.mu.Unlock()
}

func (h *Hop) addMark(name string, cycles uint64) {
	h.mu.Lock()
	if h.marks == nil {
		h.marks = make(map[string]uint64)
	}
	h.marks[name] += cycles
	h.mu.Unlock()
}

// NoteSched attaches the modeled schedule of the hop's settled server
// burst: burst length (pure handler charges), pool-capacity wait, and
// engine wait, in virtual cycles.  Called from the mach reply path
// right after the burst releases; nil-receiver-safe like the stamps.
func (h *Hop) NoteSched(burst, poolWait, cpuWait uint64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.schedBurst += burst
	h.schedPoolWait += poolWait
	h.schedCPUWait += cpuWait
	h.mu.Unlock()
}

// --- tracker ---------------------------------------------------------------

// famKey identifies a latency family: one destination server × one
// operation selector.
type famKey struct {
	server string
	op     uint32
}

// family holds one (server, op) pair's histograms and exemplars.
type family struct {
	e2e, queue, service, cross kstat.Histogram

	mu        sync.Mutex
	exemplars []*Hop // root hops, the K largest E2Es, unsorted
}

// Tracker is the per-engine tail-latency plane.  One is attached to the
// system's router engine at boot; detaching restores the zero-cost path.
type Tracker struct {
	eng *cpu.Engine
	seq atomic.Uint64

	mu   sync.Mutex
	fams map[famKey]*family
}

// Attach returns the engine's tracker, attaching a fresh one if none is
// (Detach first for a fresh one).
func Attach(eng *cpu.Engine) *Tracker {
	return eng.AttachPlane(cpu.PlaneLat, func() any {
		return &Tracker{eng: eng, fams: make(map[famKey]*family)}
	}).(*Tracker)
}

// Detach removes the engine's tracker; hooks become no-ops again.
func Detach(eng *cpu.Engine) { eng.DetachPlane(cpu.PlaneLat, nil) }

// For returns the engine's tracker, or nil when the plane is detached.
func For(eng *cpu.Engine) *Tracker { return cpu.PlaneOf[*Tracker](eng.Planes(), cpu.PlaneLat) }

// record is a call's record and its hop, allocated together.
type record struct {
	rec cpu.Span
	hop Hop
}

func (t *Tracker) newRecord() *record {
	r := &record{hop: Hop{t: t}}
	r.rec.Lat = &r.hop
	return r
}

// NewRecord implements cpu.RecordMaker: a call's record holds its hop,
// which the Begin fills.
func (t *Tracker) NewRecord() *cpu.Span { return &t.newRecord().rec }

// Observe implements cpu.Observer: a call's five stamps, and the cache
// outcomes noted on the request they served.
func (t *Tracker) Observe(e cpu.Event) {
	switch e.Phase {
	case cpu.PhaseBegin:
		t.begin(Of(e.Span), Of(e.Req), &e)
	case cpu.PhaseEnd:
		t.finish(Of(e.Span), &e)
	case cpu.PhaseInstant:
		Of(e.Req).Note(cacheNotes[e.Name], e.Arg)
	default:
		// PhaseSent, PhasePicked and PhaseServed are P1, P2 and P3.
		if h := Of(e.Req); h != nil {
			h.stamps[pSend+int(e.Phase-cpu.PhaseSent)].set(e.Ctr.Cycles)
		}
	}
}

// cacheNotes names the exemplar annotation of each cache outcome.
var cacheNotes = map[string]string{
	"hit": "bcache.hit", "miss": "bcache.miss",
	"readahead": "bcache.readahead", "writeback": "bcache.writeback",
}

// begin opens h, the hop of one outgoing call, at P0.  A call made for a
// request being served names that request's hop as parent and attaches
// to its ledger as a child; with no parent (or one already sealed — its
// client gave up) the hop is a root, a fresh request ID minted at a
// client entry point.
func (t *Tracker) begin(h, parent *Hop, e *cpu.Event) {
	h.ID, h.Server, h.Op, h.Width = t.seq.Add(1), e.Name, uint32(e.Arg), e.Width
	if h.Server == "" {
		h.Server = "?"
	}
	if parent != nil && !parent.sealed.Load() {
		parent.addChild(h)
	} else {
		h.Root = true
	}
	h.stamps[pEntry].set(e.Ctr.Cycles)
}

// BeginSub opens a sub-hop under a carrier hop for one demultiplexed
// sub-request, stamps its service-window start and returns the request
// record that carries it to the handler.  Subs inherit the carrier's
// server (same crossing) and record only a service window: queueing and
// crossing were paid once, by the carrier.  Nil-safe.
func (h *Hop) BeginSub(op uint32) *cpu.Span {
	if h == nil {
		return nil
	}
	t := h.t
	sub := t.newRecord()
	sub.hop.ID, sub.hop.Server, sub.hop.Op, sub.hop.Sub = t.seq.Add(1), h.Server, op, true
	h.addChild(&sub.hop)
	sub.hop.stampNow(pRecv)
	return &sub.rec
}

// EndSub seals a sub-hop at its service-window end and records it.
func (sh *Hop) EndSub() {
	if sh == nil {
		return
	}
	sh.stampNow(pServed)
	sh.sealed.Store(true)
	sh.t.record(sh)
}

// finish stamps P4, seals the hop, and records it — or, when the call
// failed, marks it failed: an abandoned exchange's server-side stamps may
// still be in flight, so the hop stays out of the histograms and, nested,
// counts in its parent's ledger as one failed window.
func (t *Tracker) finish(h *Hop, e *cpu.Event) {
	if h == nil {
		return
	}
	h.stamps[pReturn].set(e.Ctr.Cycles)
	h.failed.Store(e.Err != "")
	h.sealed.Store(true)
	if e.Err == "" {
		t.record(h)
	}
}

// Wait runs wait — a blocking acquire, such as a contended kernel lock —
// and names the global cycles it took on the hop as a mark under name.
// Marks lie inside the hop's own service window and outside its
// children's, so the rollup can subtract them from own-service without
// double counting.  A nil hop just waits.
func (h *Hop) Wait(name string, wait func()) {
	if h == nil {
		wait()
		return
	}
	start := h.t.eng.Counters().Cycles
	wait()
	h.addMark(name, h.t.eng.Counters().Cycles-start)
}

// Note annotates the hop with a named count (cache hits, sectors
// flushed) for exemplar drill-downs.  Nil-safe.
func (h *Hop) Note(name string, n uint64) {
	if h == nil || n == 0 {
		return
	}
	h.mu.Lock()
	if h.notes == nil {
		h.notes = make(map[string]uint64)
	}
	h.notes[name] += n
	h.mu.Unlock()
}

// record lands one sealed, successful hop in its family: histograms
// always, the exemplar reservoir for roots.
func (t *Tracker) record(h *Hop) {
	f := t.family(h.Server, h.Op)
	e2e := h.E2E()
	f.e2e.Observe(e2e)
	f.service.Observe(h.seg(pRecv, pServed))
	if !h.Sub {
		f.queue.Observe(h.seg(pSend, pRecv))
		f.cross.Observe(h.seg(pEntry, pSend) + h.seg(pServed, pReturn))
	}
	if !h.Root {
		return
	}
	f.mu.Lock()
	if len(f.exemplars) < ExemplarK {
		f.exemplars = append(f.exemplars, h)
	} else {
		min, at := e2e, -1
		for i, ex := range f.exemplars {
			if v := ex.E2E(); v < min {
				min, at = v, i
			}
		}
		if at >= 0 {
			f.exemplars[at] = h
		}
	}
	f.mu.Unlock()
}

func (t *Tracker) family(server string, op uint32) *family {
	k := famKey{server, op}
	t.mu.Lock()
	defer t.mu.Unlock()
	if f, ok := t.fams[k]; ok {
		return f
	}
	f := new(family)
	t.fams[k] = f
	return f
}
