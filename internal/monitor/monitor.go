// Package monitor implements the monitor server: a shared service in the
// Figure 1 sense that exports the system's observation planes over the
// system's own RPC.  Like the file server or the registry, it is an
// ordinary multi-threaded server found through the name service — the
// observability plane dogfoods the IPC path it observes.
//
// The protocol is one message, MsgQuery, naming a view: metric snapshots,
// deltas and family filters, the profile window, the flight dump and the
// tail dump.  Every answer travels as JSON in the reply's out-of-line
// region, so arbitrarily large answers cross the same virtual-copy path
// any large payload would.
package monitor

import (
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"repro/internal/cpu"
	"repro/internal/kflight"
	"repro/internal/klat"
	"repro/internal/kprof"
	"repro/internal/kstat"
	"repro/internal/mach"
)

// MsgQuery is the monitor's one message.  Its body names a view and, after
// a space, the view's argument:
//
//	stat            full snapshot; retains it as a delta baseline
//	delta <id>      change since baseline id; retains a fresh baseline
//	family <prefix> snapshot of the families named with prefix
//	prof.start      attach the profiler, clear it, open a window
//	prof.stop       close the window (the profile stays readable)
//	prof            the profile recorded so far
//	flight          postmortem dump of the flight recorder
//	tail            the tail-latency plane's histograms and exemplars
//
// Every answer travels one way: JSON in the reply's out-of-line region.
const MsgQuery mach.MsgID = 0x1100

// Errors returned by the monitor.  A view of a plane the system runs
// without answers ErrDetached, wrapped with the plane's name.
var (
	ErrUnknownBaseline = errors.New("monitor: unknown or evicted snapshot id")
	ErrBadRequest      = errors.New("monitor: malformed request")
	ErrDetached        = errors.New("monitor: plane not attached")
)

// detached names the missing plane on the ErrDetached sentinel.
func detached(plane string) error { return fmt.Errorf("%w: %s", ErrDetached, plane) }

// statAnswer is the answer of the stat, delta and family views: a
// snapshot and the baseline the server retained for it (0 for family).
type statAnswer struct {
	Baseline uint64         `json:"baseline"`
	Snapshot kstat.Snapshot `json:"snapshot"`
}

// maxBaselines bounds the server's retained delta baselines; the oldest
// is evicted first, so a client polling DeltaSince always has its most
// recent baseline available while an abandoned one ages out.
const maxBaselines = 16

// Server is the monitor service task.
type Server struct {
	k    *mach.Kernel
	set  *kstat.Set
	path cpu.Region
	task *mach.Task
	port mach.PortName

	mu        sync.Mutex
	baselines map[uint64]kstat.Snapshot
	order     []uint64
	nextID    uint64
}

// NewServer starts the monitor over the given metric set with pool
// service threads (pool <= 1 keeps a single server loop).
//
// Handler concurrency contract: with pool > 1 handle runs on up to pool
// threads at once; the baseline store is guarded by s.mu and kstat
// snapshots are safe to take concurrently.
func NewServer(k *mach.Kernel, set *kstat.Set, pool int) (*Server, error) {
	s := &Server{
		k:         k,
		set:       set,
		path:      k.Layout().PlaceInstr("monitor_op", 520),
		task:      k.NewTask("monitor"),
		baselines: make(map[uint64]kstat.Snapshot),
	}
	port, err := s.task.AllocatePort()
	if err != nil {
		return nil, err
	}
	s.port = port
	if _, err := s.task.ServePool("service", port, pool, s.handle); err != nil {
		return nil, err
	}
	return s, nil
}

// Task returns the monitor task.
func (s *Server) Task() *mach.Task { return s.task }

// Port returns the monitor's service port, for publication in the name
// service so clients can connect without holding the *Server.
func (s *Server) Port() mach.PortName { return s.port }

func (s *Server) handle(req *mach.Message) *mach.Message {
	s.k.CPU.Exec(s.path)
	if req.ID != MsgQuery {
		return toWire(ErrBadRequest)
	}
	view, arg, _ := strings.Cut(string(req.Body), " ")
	v, err := s.view(view, arg)
	if err != nil {
		return toWire(err)
	}
	b, err := json.Marshal(v)
	if err != nil {
		return toWire(err)
	}
	return &mach.Message{ID: 0, OOL: b}
}

// view answers one query.  A nil answer with no error is a bare
// acknowledgement (the profile window controls).
func (s *Server) view(view, arg string) (any, error) {
	switch view {
	case "stat":
		snap := s.set.Snapshot()
		return statAnswer{Baseline: s.saveBaseline(snap), Snapshot: snap}, nil
	case "delta":
		id, err := strconv.ParseUint(arg, 10, 64)
		if err != nil {
			return nil, ErrBadRequest
		}
		base, ok := s.takeBaseline(id)
		if !ok {
			return nil, ErrUnknownBaseline
		}
		cur := s.set.Snapshot()
		return statAnswer{Baseline: s.saveBaseline(cur), Snapshot: cur.Delta(base)}, nil
	case "family":
		return statAnswer{Snapshot: s.set.Snapshot().Filter(arg)}, nil
	case "prof.start":
		// Open an attribution window: attach the profiler on demand (a
		// no-op when already attached), clear any previous window, and
		// enable.  Attachment is observation-only, so flipping it over
		// RPC never perturbs the cycles being profiled — beyond the
		// charges of this very call, which land before Enable runs.
		p := kprof.Attach(s.k.CPU)
		p.Reset()
		p.Enable()
		return nil, nil
	case "prof.stop", "prof":
		p := kprof.For(s.k.CPU)
		if p == nil {
			return nil, detached("kprof")
		}
		if view == "prof" {
			return p.Snapshot(), nil
		}
		p.Disable()
		return nil, nil
	case "flight":
		// The dump is assembled by the kernel (flight rings, wait-for
		// graph, scheduler state, kstat fabric).  The handling thread
		// itself shows up in it — the client of this very query appears
		// as a reply wait on the monitor port.
		if d := s.k.FlightDump("monitor query"); d != nil {
			return d, nil
		}
		return nil, detached("kflight")
	case "tail":
		// Histogram state plus the sealed exemplar ledgers.  The
		// reservoir keeps being written while this very query runs —
		// Dump orders itself against live recorders with the family
		// locks, which the pooled query-storm test exercises.
		if lt := klat.For(s.k.CPU); lt != nil {
			return lt.Dump(), nil
		}
		return nil, detached("klat")
	}
	return nil, ErrBadRequest
}

// saveBaseline stores a snapshot for later delta queries, evicting the
// oldest baseline past the cap, and returns its id.
func (s *Server) saveBaseline(snap kstat.Snapshot) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	id := s.nextID
	s.baselines[id] = snap
	s.order = append(s.order, id)
	for len(s.order) > maxBaselines {
		delete(s.baselines, s.order[0])
		s.order = s.order[1:]
	}
	return id
}

func (s *Server) takeBaseline(id uint64) (kstat.Snapshot, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap, ok := s.baselines[id]
	return snap, ok
}

var wireErrs = []error{ErrUnknownBaseline, ErrBadRequest}

func toWire(err error) *mach.Message {
	return &mach.Message{ID: 1, Body: []byte(err.Error())}
}

func fromWire(msg string) error {
	for _, e := range wireErrs {
		if e.Error() == msg {
			return e
		}
	}
	if plane, ok := strings.CutPrefix(msg, ErrDetached.Error()+": "); ok {
		return detached(plane)
	}
	return errors.New(msg)
}

// --- client ------------------------------------------------------------------

// Client is the caller-side library for the monitor.
type Client struct {
	th   *mach.Thread
	port mach.PortName
}

// NewClient connects a thread's task to the monitor.
func (s *Server) NewClient(th *mach.Thread) (*Client, error) {
	return Connect(th, s.task, s.port)
}

// Connect builds a client from a name-service binding: the monitor task
// and its service port, as published at /servers/monitor.
func Connect(th *mach.Thread, srv *mach.Task, port mach.PortName) (*Client, error) {
	n, err := th.Task().InsertRight(srv, port, mach.DispMakeSend)
	if err != nil {
		return nil, err
	}
	return &Client{th: th, port: n}, nil
}

// query asks the monitor for one view and decodes the JSON answer into
// out (nil for the bare acknowledgements).
func (c *Client) query(view, arg string, out any) error {
	if arg != "" {
		view += " " + arg
	}
	reply, err := c.th.Call(c.port, &mach.Message{ID: MsgQuery, Body: []byte(view)}, mach.CallOpts{})
	if err != nil {
		return err
	}
	if reply.ID != 0 {
		return fromWire(string(reply.Body))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(reply.OOL, out)
}

// Snapshot fetches the full metric set and returns the baseline id the
// server retained for a later DeltaSince.
func (c *Client) Snapshot() (kstat.Snapshot, uint64, error) {
	var r statAnswer
	err := c.query("stat", "", &r)
	return r.Snapshot, r.Baseline, err
}

// DeltaSince fetches the change since the given baseline and returns the
// fresh baseline id for the next poll — the top-style repeated query.
func (c *Client) DeltaSince(baseline uint64) (kstat.Snapshot, uint64, error) {
	var r statAnswer
	err := c.query("delta", strconv.FormatUint(baseline, 10), &r)
	return r.Snapshot, r.Baseline, err
}

// Family fetches only the metrics whose names start with prefix.
func (c *Client) Family(prefix string) (kstat.Snapshot, error) {
	var r statAnswer
	err := c.query("family", prefix, &r)
	return r.Snapshot, err
}

// ProfStart opens a profile attribution window: the server attaches the
// kprof profiler to the system engine (observation-only), clears any
// previous window, and enables attribution.
func (c *Client) ProfStart() error { return c.query("prof.start", "", nil) }

// ProfStop closes the window; the accumulated profile stays readable.
func (c *Client) ProfStop() error { return c.query("prof.stop", "", nil) }

// Profile fetches the current profile as recorded so far in the window.
func (c *Client) Profile() (p kprof.Profile, err error) {
	err = c.query("prof", "", &p)
	return p, err
}

// FlightDump fetches a live postmortem dump from the flight recorder:
// per-engine event rings, the wait-for graph with any cycles named,
// scheduler state and the full kstat snapshot.
func (c *Client) FlightDump() (d *kflight.Dump, err error) {
	err = c.query("flight", "", &d)
	return d, err
}

// TailDump fetches the tail-latency plane's snapshot: per-(server, op)
// latency histograms and the exemplar ledgers of the slowest requests.
func (c *Client) TailDump() (d *klat.Dump, err error) {
	err = c.query("tail", "", &d)
	return d, err
}
