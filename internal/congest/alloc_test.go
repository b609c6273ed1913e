//go:build !race

package congest

import "testing"

// stubCtx is a Context with a settable round, for driving a fiber by
// hand. Sends are counted and dropped.
type stubCtx struct {
	round int64
	sent  int
}

func (c *stubCtx) ID() int                   { return 0 }
func (c *stubCtx) Degree() int               { return 1 }
func (c *stubCtx) Weight(int) int64          { return 1 }
func (c *stubCtx) Round() int64              { return c.round }
func (c *stubCtx) Bandwidth() int            { return 1 }
func (c *stubCtx) Send(int, Message)         { c.sent++ }
func (c *stubCtx) Step() []Inbound           { panic("stub: blocking call") }
func (c *stubCtx) Recv() []Inbound           { panic("stub: blocking call") }
func (c *stubCtx) RecvUntil(int64) []Inbound { panic("stub: blocking call") }

// windowChain re-opens a window of fixed length each time the last one
// ends, with its handler and continuation bound once.
type windowChain struct {
	length  int64
	handled int
	handle  func(c Context, in Inbound)
	then    func(c Context) Step
}

func newWindowChain(length int64) *windowChain {
	w := &windowChain{length: length}
	w.handle = func(c Context, in Inbound) { w.handled++ }
	w.then = func(c Context) Step { return Window(c.Round()+w.length, w.handle, w.then) }
	return w
}

// TestStepFiberWindowParksWithoutAllocating pins the Step kit's
// steady state: a StepFiber parked in a congest.Window re-parks on
// empty wakes, dispatches deliveries and rolls into the next window
// without a single allocation.
func TestStepFiberWindowParksWithoutAllocating(t *testing.T) {
	c := &stubCtx{}
	w := newWindowChain(4)
	f := &StepFiber{Boot: func(c Context) Step { return Window(c.Round()+w.length, w.handle, w.then) }}
	if p := f.Start(c); p != ParkUntil(4) {
		t.Fatalf("Start parked at %d, want 4", p)
	}
	msgs := []Inbound{{Port: 0, Msg: Message{Kind: 1}}}
	empty := testing.AllocsPerRun(100, func() {
		c.round++
		if p := f.Resume(c, nil); int64(p) <= c.round {
			t.Fatalf("round %d: parked at %d", c.round, p)
		}
	})
	if empty != 0 {
		t.Errorf("empty wakes in a window: %v allocs per wake, want 0", empty)
	}
	full := testing.AllocsPerRun(100, func() {
		c.round++
		f.Resume(c, msgs)
	})
	if full != 0 {
		t.Errorf("delivering wakes in a window: %v allocs per wake, want 0", full)
	}
	if w.handled != 101 {
		t.Errorf("handler ran %d times, want 101", w.handled)
	}
}
