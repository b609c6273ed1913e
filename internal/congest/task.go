package congest

// This file is the resumable-program kit: a continuation-passing
// representation of vertex programs that runs unchanged under both the
// blocking Context API (RunSteps) and the Fiber engine (StepFiber).
// Algorithms written once in Step form therefore produce bit-identical
// Rounds/Messages/ByKind statistics in every execution mode by
// construction — there is a single copy of each message handler, and
// the two drivers differ only in who owns the scheduling loop.
//
// The translation from a blocking program is mechanical:
//
//	msgs := c.Recv()        →  return Await(k)       // k receives msgs
//	msgs := c.RecvUntil(t)  →  return Until(t, k)
//	msgs := c.Step()        →  return Until(c.Round()+1, k)
//	return                  →  return Done()
//
// Step() and RecvUntil(Round()+1) are equivalent on every Context
// implementation in this repository (lockstep, parsim goroutine,
// cluster), so the kit needs only two park shapes plus Done. The
// fixed-length window every phase algorithm is built from — drain
// deliveries until an absolute round, then go on — has a form of its
// own, driven by the drivers rather than by a continuation:
//
//	for c.Round() < end {        →  return Window(end, handle, then)
//		for _, in := range c.RecvUntil(end) { handle(c, in) }
//	}
//	then(c)
//
// Continuations receive the live Context as a parameter and must use
// that value, never one captured before a park: fiber engines hand out
// a per-shard Context that is re-pointed between wakes, so a captured
// Context silently aliases another vertex. Capturing plain data
// (counters, buffers, the algorithm's own state) across parks is the
// whole point and is always safe.

// Resume is one continuation of a resumable program: it is handed the
// live Context and the messages that woke the program (nil on a bare
// deadline expiry) and returns the next Step.
type Resume func(c Context, msgs []Inbound) Step

// Step is a park decision paired with what to run when the program
// next wakes: either a Resume continuation (Await, Until, Quiesce) or a
// window's handler and end continuation (Window). The zero Step is
// invalid; construct one with Done, Await, Until, Quiesce or Window.
type Step struct {
	park Park
	next Resume
	// Window form (next == nil): handle sees every delivery until the
	// round in park, then then runs.
	handle func(c Context, in Inbound)
	then   func(c Context) Step
}

// Done retires the program: the algorithm finished.
func Done() Step { return Step{park: ParkDone} }

// Await parks until some future round delivers a message (Recv).
func Await(next Resume) Step { return Step{park: ParkAwait, next: next} }

// Until parks until round r, or until the first earlier round that
// delivers a message (RecvUntil). r must exceed the current round;
// Until(c.Round()+1, k) is Step.
func Until(r int64, next Resume) Step { return Step{park: ParkUntil(r), next: next} }

// Quiesce parks until the synchronizer next advances past a quiescent
// point (ParkQuiesce): the close of the current delivery window on the
// Async engine, the next round on every round-clock engine. It is the
// engine-neutral spelling of "one tick" for programs that do not need
// an absolute deadline.
func Quiesce(next Resume) Step { return Step{park: ParkQuiesce, next: next} }

// Window drains deliveries until the absolute round end, dispatching
// each inbound message to handle, then continues with then. If the
// vertex is already at or past end when the window is settled, then
// runs at once. The drivers (RunSteps, StepFiber) own the
// drain-until-end loop, so a window costs no continuation of its own:
// a program that binds handle and then once per vertex parks in
// windows without allocating.
func Window(end int64, handle func(c Context, in Inbound), then func(c Context) Step) Step {
	return Step{park: ParkUntil(end), handle: handle, then: then}
}

// resume feeds one wake to s. A window dispatches msgs to its handler
// and stays the current step; settle decides whether it is over.
func (s Step) resume(c Context, msgs []Inbound) Step {
	if s.next != nil {
		return s.next(c, msgs)
	}
	for _, in := range msgs {
		s.handle(c, in)
	}
	return s
}

// settle runs the end continuation of every window whose end round
// has been reached, returning the first step that really parks.
func settle(c Context, s Step) Step {
	for s.then != nil && c.Round() >= int64(s.park) {
		s = s.then(c)
	}
	return s
}

// RunSteps drives a Step program to completion over the blocking
// Context API. It is the compatibility shim that lets one Step-form
// algorithm serve as both the blocking program (goroutine, lockstep
// and cluster engines) and the fiber program (via StepFiber).
func RunSteps(c Context, s Step) {
	for s = settle(c, s); s.park != ParkDone; {
		var msgs []Inbound
		switch s.park {
		case ParkAwait:
			msgs = c.Recv()
		case ParkQuiesce:
			msgs = c.Step()
		default:
			msgs = c.RecvUntil(int64(s.park))
		}
		s = settle(c, s.resume(c, msgs))
	}
}

// StepFiber adapts a Step program to the Fiber interface: Boot runs the
// round-0 prologue and each engine wake feeds the stored Step. Windows
// are driven here, not by a continuation: a wake that leaves a window
// open re-parks to the same end without calling into the program's
// continuations at all.
type StepFiber struct {
	// Boot builds the program's first Step (what a blocking program
	// does before its first Recv/RecvUntil). It may read the vertex's
	// identity and degree from the Context it is handed, so one shared
	// closure serves every vertex in a slab.
	Boot func(c Context) Step
	cur  Step
}

func (f *StepFiber) Start(c Context) Park {
	f.cur = settle(c, f.Boot(c))
	f.Boot = nil
	return f.cur.park
}

func (f *StepFiber) Resume(c Context, msgs []Inbound) Park {
	f.cur = settle(c, f.cur.resume(c, msgs))
	return f.cur.park
}

// StepFiberFactory returns a fiber factory (the shape engines and the
// facade consume) over a slab of n StepFibers sharing one boot
// closure. The per-vertex cost at rest is one StepFiber struct in the
// slab plus whatever state the program keeps: a program that holds its
// state in a per-vertex struct and binds its continuations once (as
// the forest and fragops frames do) parks without allocating.
func StepFiberFactory(n int, boot func(c Context) Step) func(id int) Fiber {
	slab := make([]StepFiber, n)
	return func(id int) Fiber {
		f := &slab[id]
		f.Boot = boot
		return f
	}
}
