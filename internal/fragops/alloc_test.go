//go:build !race

package fragops

import (
	"testing"

	"congestmst/internal/congest"
)

// stubCtx is a Context with a settable round, for driving a Frame by
// hand. Sends are counted and dropped.
type stubCtx struct {
	round int64
	sent  int
}

func (c *stubCtx) ID() int                           { return 1 }
func (c *stubCtx) Degree() int                       { return 2 }
func (c *stubCtx) Weight(int) int64                  { return 1 }
func (c *stubCtx) Round() int64                      { return c.round }
func (c *stubCtx) Bandwidth() int                    { return 1 }
func (c *stubCtx) Send(int, congest.Message)         { c.sent++ }
func (c *stubCtx) Step() []congest.Inbound           { panic("stub: blocking call") }
func (c *stubCtx) Recv() []congest.Inbound           { panic("stub: blocking call") }
func (c *stubCtx) RecvUntil(int64) []congest.Inbound { panic("stub: blocking call") }

// roundTrip alternates a Converge and a Broadcast forever on a middle
// vertex of a fragment path (parent on port 0, child on port 1), with
// both continuations bound once.
type roundTrip struct {
	f                  Frame
	sum                int64
	converged, bcasted Then
}

func newRoundTrip() *roundTrip {
	rt := &roundTrip{}
	rt.f.Init(0, []int{1})
	rt.converged = func(c congest.Context, acc [3]int64, _ bool) congest.Step {
		return rt.f.Broadcast(c, c.Round()+2, true, [3]int64{}, rt.bcasted)
	}
	rt.bcasted = func(c congest.Context, got [3]int64, _ bool) congest.Step {
		rt.sum += got[0]
		return rt.f.Converge(c, c.Round()+2, true, [3]int64{1, 0, 0}, addFirst, rt.converged)
	}
	return rt
}

func addFirst(acc, child [3]int64) [3]int64 {
	acc[0] += child[0]
	return acc
}

// TestFrameRoundTripAllocatesNothing runs Converge→Broadcast round
// trips (four windows each: a delivery and the window's end for both
// primitives) and requires zero allocations per round trip.
func TestFrameRoundTripAllocatesNothing(t *testing.T) {
	c := &stubCtx{}
	rt := newRoundTrip()
	fib := &congest.StepFiber{Boot: func(c congest.Context) congest.Step {
		return rt.f.Converge(c, c.Round()+2, true, [3]int64{1, 0, 0}, addFirst, rt.converged)
	}}
	fib.Start(c)
	conv := []congest.Inbound{{Port: 1, Msg: congest.Message{Kind: KindConv, A: 5}}}
	bcast := []congest.Inbound{{Port: 0, Msg: congest.Message{Kind: KindBcast, A: 7}}}
	allocs := testing.AllocsPerRun(100, func() {
		for _, msgs := range [][]congest.Inbound{conv, nil, bcast, nil} {
			c.round++
			fib.Resume(c, msgs)
		}
	})
	if allocs != 0 {
		t.Errorf("Converge→Broadcast round trip: %v allocs, want 0", allocs)
	}
	// 101 round trips: each sends one convergecast up and one broadcast
	// down, and hands 7 to the broadcast continuation.
	if c.sent != 2*101 || rt.sum != 7*101 {
		t.Errorf("sent %d messages, summed %d; want %d and %d", c.sent, rt.sum, 2*101, 7*101)
	}
}
