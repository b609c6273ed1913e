// Package fragops provides window-scheduled communication primitives on
// MST-fragment trees: convergecast, argmin with winner pointers,
// broadcast, winner-path downcast, and single-path upcast. They are
// shared by the Controlled-GHS construction (internal/forest) and the
// Boruvka-over-τ stage of the main algorithm (internal/core).
//
// All primitives are driven by absolute round deadlines: every vertex
// of the graph calls the same primitive in the same round with a common
// `end`, and its continuation runs exactly at round `end`. A vertex
// whose fragment is not active simply drains its (empty) window, so
// global alignment is preserved without any coordination traffic.
//
// The primitives are methods on a per-vertex Frame, written once in
// resumable Step form: each returns a congest.Window whose handler and
// end continuation are the Frame's own, bound once by Init, so running
// a primitive and parking in its window allocates nothing. A vertex runs
// one primitive at a time; the continuation it hands a primitive
// receives the result and may start the next one on the same Frame.
// Every engine (the blocking ones through congest.RunSteps, the fiber
// engine through congest.StepFiber) executes this single copy of each
// message handler, so statistics are bit-identical across engines.
// Handlers and continuations take the live congest.Context as a
// parameter and must not capture one across parks (fiber engines
// re-point a shared per-shard Context between wakes).
package fragops

import (
	"fmt"

	"congestmst/internal/congest"
)

// Message kinds used on fragment trees (range 20-23, shared with the
// forest package's historical numbering).
const (
	KindConv   uint8 = 20 // convergecast payload: A,B,C
	KindBcast  uint8 = 21 // broadcast payload: A,B,C
	KindWinner uint8 = 22 // downcast along argmin winner pointers: A,B,C
	KindUpPath uint8 = 23 // single-path upcast to the fragment root: A,B,C
)

// Sentinel is an impossible argmin key, larger than any real
// (weight, id, id) key.
var Sentinel = [3]int64{1<<63 - 1, 1<<63 - 1, 1<<63 - 1}

// KeyLess compares two 3-word keys lexicographically.
func KeyLess(a, b [3]int64) bool {
	if a[0] != b[0] {
		return a[0] < b[0]
	}
	if a[1] != b[1] {
		return a[1] < b[1]
	}
	return a[2] < b[2]
}

// Then is the continuation a primitive hands its result to at round
// end: a 3-word value and a flag whose meaning each primitive documents.
type Then func(c congest.Context, v [3]int64, ok bool) congest.Step

// op is the primitive a Frame is currently running.
type op uint8

const (
	opDrain op = iota
	opConverge
	opArgmin
	opBroadcast
	opWinner
	opUpPath
)

var opNames = [...]string{"drain", "convergecast", "argmin", "broadcast", "winner downcast", "UpPath"}

// Frame is one vertex's fragment-tree position plus the state of the
// primitive it is running. The zero Frame is unusable; call Init once
// per vertex, and update Parent/Children in place as the tree changes.
type Frame struct {
	Parent   int   // fragment-tree parent port, -1 at the fragment root
	Children []int // fragment-tree child ports

	op      op
	active  bool
	val     [3]int64 // accumulator, received payload or drained result
	flag    bool     // sent (converge/argmin), received, or target
	pend    int      // children still to report (converge/argmin)
	combine func(acc, child [3]int64) [3]int64
	winner  *int // argmin: pointer being written; downcast: pointer being followed
	then    Then

	// The window handler and end continuation, bound once by Init.
	handle func(c congest.Context, in congest.Inbound)
	finish func(c congest.Context) congest.Step
}

// Init places the vertex in its fragment tree and binds the Frame's
// window callbacks.
func (f *Frame) Init(parent int, children []int) {
	f.Parent, f.Children = parent, children
	f.handle, f.finish = f.onMsg, f.onEnd
}

// start arms the Frame for one primitive and returns its window.
func (f *Frame) start(o op, end int64, val [3]int64, then Then) congest.Step {
	f.op, f.val, f.flag, f.then = o, val, false, then
	return congest.Window(end, f.handle, f.finish)
}

// Drain asserts that nothing arrives until end, then hands then
// (zero, false).
func (f *Frame) Drain(end int64, then Then) congest.Step {
	return f.start(opDrain, end, [3]int64{}, then)
}

// Converge runs one fragment-internal convergecast inside [now, end):
// every vertex of an active fragment contributes own; combine folds a
// child's reported value into the accumulator. The fragment root is
// handed (combined, true); everyone else (partial, false). An inactive
// vertex drains the window and is handed (own, false).
func (f *Frame) Converge(c congest.Context, end int64, active bool, own [3]int64,
	combine func(acc, child [3]int64) [3]int64, then Then) congest.Step {
	if !active {
		return f.start(opDrain, end, own, then)
	}
	s := f.start(opConverge, end, own, then)
	f.combine = combine
	f.pend = len(f.Children)
	f.upcast(c)
	return s
}

// Argmin is Converge specialised to lexicographic minimisation. It
// records a winner pointer into *winner: -2 if this vertex's own key
// won locally, -1 if no candidate reached here, or the child port whose
// subtree supplied the local minimum. A vertex with no candidate passes
// the Sentinel; an inactive vertex is handed (Sentinel, false).
func (f *Frame) Argmin(c congest.Context, end int64, active bool, own [3]int64,
	winner *int, then Then) congest.Step {
	*winner = -1
	if own != Sentinel {
		*winner = -2
	}
	if !active {
		return f.start(opDrain, end, Sentinel, then)
	}
	s := f.start(opArgmin, end, own, then)
	f.winner = winner
	f.pend = len(f.Children)
	f.upcast(c)
	return s
}

// upcast sends the accumulator to the parent once every child has
// reported (converge and argmin).
func (f *Frame) upcast(c congest.Context) {
	if f.pend == 0 && f.Parent >= 0 && !f.flag {
		f.flag = true
		c.Send(f.Parent, congest.Message{Kind: KindConv, A: f.val[0], B: f.val[1], C: f.val[2]})
	}
}

// Broadcast distributes a 3-word payload from the fragment root inside
// [now, end), handing then the payload and whether one was received
// (true everywhere in active fragments).
func (f *Frame) Broadcast(c congest.Context, end int64, active bool, own [3]int64, then Then) congest.Step {
	if active && f.Parent < 0 {
		for _, ch := range f.Children {
			c.Send(ch, congest.Message{Kind: KindBcast, A: own[0], B: own[1], C: own[2]})
		}
		s := f.start(opDrain, end, own, then)
		f.flag = true
		return s
	}
	s := f.start(opBroadcast, end, [3]int64{}, then)
	f.active = active
	return s
}

// WinnerDowncast follows argmin winner pointers from the fragment root
// to the winning vertex inside [now, end). initiate must hold only at
// roots of fragments that start a downcast; winner points at this
// vertex's recorded pointer and is read when the downcast passes. then
// is handed the payload and whether this vertex is the target.
func (f *Frame) WinnerDowncast(c congest.Context, end int64, initiate bool, winner *int,
	payload [3]int64, then Then) congest.Step {
	s := f.start(opWinner, end, [3]int64{}, then)
	f.winner = winner
	if initiate {
		switch w := *winner; {
		case w == -2:
			f.flag, f.val = true, payload
		case w >= 0:
			c.Send(w, congest.Message{Kind: KindWinner, A: payload[0], B: payload[1], C: payload[2]})
		default:
			failf("vertex %d: downcast initiated with no winner", c.ID())
		}
	}
	return s
}

// UpPath sends a 3-word payload from one origin vertex up the fragment
// tree to the root inside [now, end). The root is handed (payload,
// true) if an origin existed in its fragment.
func (f *Frame) UpPath(c congest.Context, end int64, origin bool, payload [3]int64, then Then) congest.Step {
	s := f.start(opUpPath, end, [3]int64{}, then)
	if origin {
		f.deliverUp(c, payload)
	}
	return s
}

// deliverUp passes one UpPath payload toward the root, or keeps it at
// the root.
func (f *Frame) deliverUp(c congest.Context, m [3]int64) {
	if f.Parent < 0 {
		if f.flag {
			failf("vertex %d: two UpPath payloads in one fragment", c.ID())
		}
		f.flag, f.val = true, m
		return
	}
	c.Send(f.Parent, congest.Message{Kind: KindUpPath, A: m[0], B: m[1], C: m[2]})
}

// onMsg is the window handler of every primitive.
func (f *Frame) onMsg(c congest.Context, in congest.Inbound) {
	m := in.Msg
	got := [3]int64{m.A, m.B, m.C}
	switch f.op {
	case opConverge, opArgmin:
		if m.Kind != KindConv || !isChild(f.Children, in.Port) {
			f.unexpected(c, in)
		}
		if f.op == opConverge {
			f.val = f.combine(f.val, got)
		} else if KeyLess(got, f.val) {
			f.val = got
			*f.winner = in.Port
		}
		f.pend--
		f.upcast(c)
	case opBroadcast:
		if m.Kind != KindBcast || in.Port != f.Parent || f.flag {
			f.unexpected(c, in)
		}
		f.flag, f.val = true, got
		for _, ch := range f.Children {
			c.Send(ch, congest.Message{Kind: KindBcast, A: m.A, B: m.B, C: m.C})
		}
	case opWinner:
		if m.Kind != KindWinner || in.Port != f.Parent {
			f.unexpected(c, in)
		}
		switch w := *f.winner; {
		case w == -2:
			f.flag, f.val = true, got
		case w >= 0:
			c.Send(w, m)
		default:
			failf("vertex %d: winner downcast hit a dead end", c.ID())
		}
	case opUpPath:
		if m.Kind != KindUpPath || !isChild(f.Children, in.Port) {
			f.unexpected(c, in)
		}
		f.deliverUp(c, got)
	default:
		f.unexpected(c, in)
	}
}

func (f *Frame) unexpected(c congest.Context, in congest.Inbound) {
	failf("vertex %d: kind %d from port %d during %s at round %d",
		c.ID(), in.Msg.Kind, in.Port, opNames[f.op], c.Round())
}

// onEnd is the window end continuation of every primitive: it checks
// the primitive's completion invariant and hands the result on.
func (f *Frame) onEnd(c congest.Context) congest.Step {
	switch f.op {
	case opConverge, opArgmin:
		if f.pend != 0 {
			failf("vertex %d: %s missed %d children (window too small)", c.ID(), opNames[f.op], f.pend)
		}
		f.flag = f.Parent < 0
	case opBroadcast:
		if f.active && !f.flag {
			failf("vertex %d: broadcast never arrived", c.ID())
		}
	}
	then := f.then
	f.then, f.combine, f.winner = nil, nil, nil
	return then(c, f.val, f.flag)
}

func isChild(children []int, p int) bool {
	for _, c := range children {
		if c == p {
			return true
		}
	}
	return false
}

func failf(format string, args ...any) {
	panic(fmt.Sprintf("fragops: "+format, args...))
}
