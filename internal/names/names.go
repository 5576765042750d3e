// Package names implements the Microkernel Services name service.  Since
// port rights have meaning only within a port space and the microkernel
// offers no name-to-port resolution, clients and servers find each other
// here.  The full service follows a subset of the X.500 architecture:
// hierarchical names, attributes stored with entries, search over
// attributes, and notifications on name-space alteration.  That design
// proved expensive enough that Release 2 added the much simplified
// service in simple.go for embedded configurations; both are provided so
// the cost difference is measurable (experiment E5).
package names

import (
	"errors"
	"sort"
	"strings"
	"sync"

	"repro/internal/cpu"
	"repro/internal/kstat"
	"repro/internal/mach"
)

// Errors returned by the name services.
var (
	ErrNotFound   = errors.New("names: no such name")
	ErrExists     = errors.New("names: name already bound")
	ErrNotContext = errors.New("names: path component is not a context")
	ErrIsContext  = errors.New("names: name denotes a context, not a binding")
	ErrBadName    = errors.New("names: malformed name")
)

// Attr is an attribute stored with an entry, X.500-style.
type Attr struct {
	Key   string
	Value string
}

// Binding is what a lookup returns: the bound server task and port name
// are enough for a client to have a send right fabricated by the service
// (which holds task handles, standing in for the bootstrap privilege).
type Binding struct {
	Task  *mach.Task
	Port  mach.PortName
	Attrs []Attr
}

// EventKind labels a notification.
type EventKind uint8

// Notification kinds.
const (
	EventBind EventKind = iota
	EventUnbind
	EventModify
)

// Event is a name-space alteration notification.
type Event struct {
	Kind EventKind
	Path string
}

// entry is a node in the directory tree: a context (directory) or a leaf.
type entry struct {
	name     string
	binding  *Binding
	children map[string]*entry
	attrs    []Attr
}

func (e *entry) isContext() bool { return e.children != nil }

// Service is the full X.500-style name service.
type Service struct {
	eng *cpu.Engine

	// Code paths: the full service's resolve path is deliberately fat
	// (schema checks, attribute handling, access control hooks), per
	// the paper's cost complaint.
	resolveStep cpu.Region
	bindOp      cpu.Region
	searchStep  cpu.Region
	notifyOp    cpu.Region

	mu       sync.Mutex
	root     *entry
	watchers []chan Event
}

// NewService creates an empty directory with a root context.
func NewService(eng *cpu.Engine, layout *cpu.Layout) *Service {
	return &Service{
		eng:         eng,
		resolveStep: layout.PlaceInstr("ns_resolve_step", 540),
		bindOp:      layout.PlaceInstr("ns_bind", 900),
		searchStep:  layout.PlaceInstr("ns_search_step", 310),
		notifyOp:    layout.PlaceInstr("ns_notify", 260),
		root:        &entry{name: "/", children: make(map[string]*entry)},
	}
}

// split validates and splits a path like /servers/files.
func split(path string) ([]string, error) {
	if path == "" || path[0] != '/' {
		return nil, ErrBadName
	}
	if path == "/" {
		return nil, nil
	}
	parts := strings.Split(path[1:], "/")
	for _, p := range parts {
		if p == "" {
			return nil, ErrBadName
		}
	}
	return parts, nil
}

// resolve walks the tree, charging one resolve step per component.
func (s *Service) resolve(parts []string) (*entry, error) {
	e := s.root
	for _, p := range parts {
		s.eng.Exec(s.resolveStep)
		if !e.isContext() {
			return nil, ErrNotContext
		}
		next, ok := e.children[p]
		if !ok {
			return nil, ErrNotFound
		}
		e = next
	}
	return e, nil
}

// Bind binds a name to a server port, creating intermediate contexts.
func (s *Service) Bind(path string, b Binding) error {
	parts, err := split(path)
	if err != nil {
		return err
	}
	if len(parts) == 0 {
		return ErrBadName
	}
	s.eng.Exec(s.bindOp)
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.root
	for _, p := range parts[:len(parts)-1] {
		s.eng.Exec(s.resolveStep)
		if !e.isContext() {
			return ErrNotContext
		}
		next, ok := e.children[p]
		if !ok {
			next = &entry{name: p, children: make(map[string]*entry)}
			e.children[p] = next
		}
		e = next
	}
	leaf := parts[len(parts)-1]
	if !e.isContext() {
		return ErrNotContext
	}
	if _, ok := e.children[leaf]; ok {
		return ErrExists
	}
	bcopy := b
	e.children[leaf] = &entry{name: leaf, binding: &bcopy, attrs: b.Attrs}
	s.notifyLocked(Event{Kind: EventBind, Path: path})
	return nil
}

// lookups counts name resolutions.
var lookups = kstat.NewKey("names.lookups")

// Lookup resolves a path to its binding.
func (s *Service) Lookup(path string) (Binding, error) {
	kstat.For(s.eng).Count(lookups).Inc()
	var sp *cpu.Span
	if ps := s.eng.Planes(); ps.Wants(cpu.EvNameLookup) {
		sp = ps.Open(cpu.Event{Type: cpu.EvNameLookup, Subsystem: "names", Name: "lookup:" + path}, nil)
	}
	defer sp.End()
	parts, err := split(path)
	if err != nil {
		return Binding{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e, err := s.resolve(parts)
	if err != nil {
		return Binding{}, err
	}
	if e.binding == nil {
		return Binding{}, ErrIsContext
	}
	return *e.binding, nil
}

// Unbind removes a leaf binding.
func (s *Service) Unbind(path string) error {
	parts, err := split(path)
	if err != nil {
		return err
	}
	if len(parts) == 0 {
		return ErrBadName
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	parent, err := s.resolve(parts[:len(parts)-1])
	if err != nil {
		return err
	}
	if !parent.isContext() {
		return ErrNotContext
	}
	leaf, ok := parent.children[parts[len(parts)-1]]
	if !ok {
		return ErrNotFound
	}
	if leaf.isContext() {
		return ErrIsContext
	}
	delete(parent.children, parts[len(parts)-1])
	s.notifyLocked(Event{Kind: EventUnbind, Path: path})
	return nil
}

// SetAttr adds or replaces an attribute on a bound name.
func (s *Service) SetAttr(path, key, value string) error {
	parts, err := split(path)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e, err := s.resolve(parts)
	if err != nil {
		return err
	}
	for i := range e.attrs {
		if e.attrs[i].Key == key {
			e.attrs[i].Value = value
			s.notifyLocked(Event{Kind: EventModify, Path: path})
			return nil
		}
	}
	e.attrs = append(e.attrs, Attr{key, value})
	if e.binding != nil {
		e.binding.Attrs = e.attrs
	}
	s.notifyLocked(Event{Kind: EventModify, Path: path})
	return nil
}

// List returns the sorted child names of a context.
func (s *Service) List(path string) ([]string, error) {
	parts, err := split(path)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e, err := s.resolve(parts)
	if err != nil {
		return nil, err
	}
	if !e.isContext() {
		return nil, ErrNotContext
	}
	out := make([]string, 0, len(e.children))
	for n := range e.children {
		s.eng.Exec(s.searchStep)
		out = append(out, n)
	}
	sort.Strings(out)
	return out, nil
}

// Search walks the whole subtree under path returning every bound name
// carrying the given attribute key/value.  This is the sophisticated
// search mechanism that made the service so useful to the loader, the
// OS/2 personality and the device drivers — and so expensive.
func (s *Service) Search(path, key, value string) ([]string, error) {
	parts, err := split(path)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e, err := s.resolve(parts)
	if err != nil {
		return nil, err
	}
	var out []string
	var walk func(prefix string, e *entry)
	walk = func(prefix string, e *entry) {
		s.eng.Exec(s.searchStep)
		for _, a := range e.attrs {
			if a.Key == key && (value == "" || a.Value == value) {
				out = append(out, prefix)
				break
			}
		}
		if e.isContext() {
			kids := make([]string, 0, len(e.children))
			for n := range e.children {
				kids = append(kids, n)
			}
			sort.Strings(kids)
			for _, n := range kids {
				p := prefix + "/" + n
				if prefix == "/" {
					p = "/" + n
				}
				walk(p, e.children[n])
			}
		}
	}
	base := path
	if base == "/" {
		base = "/"
	}
	walk(base, e)
	return out, nil
}

// Watch registers for name-space alteration notifications.  The returned
// channel is buffered; slow consumers drop events rather than block the
// service.
func (s *Service) Watch() <-chan Event {
	ch := make(chan Event, 64)
	s.mu.Lock()
	s.watchers = append(s.watchers, ch)
	s.mu.Unlock()
	return ch
}

func (s *Service) notifyLocked(ev Event) {
	for _, ch := range s.watchers {
		s.eng.Exec(s.notifyOp)
		select {
		case ch <- ev:
		default:
		}
	}
}
