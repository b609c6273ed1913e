package fragops

import (
	"testing"

	"congestmst/internal/congest"
	"congestmst/internal/graph"
)

// result returns a Then that stores its result and retires the
// program, for driving one primitive to completion with RunSteps.
func result(v *[3]int64, ok *bool) Then {
	return func(c congest.Context, got [3]int64, flag bool) congest.Step {
		*v, *ok = got, flag
		return congest.Done()
	}
}

// frameAt returns a Frame placed at the given tree position.
func frameAt(parent int, children []int) *Frame {
	f := new(Frame)
	f.Init(parent, children)
	return f
}

// starTree runs a program on a star graph where vertex 0 is the
// fragment root and every leaf is its child; all vertices share one
// fragment spanning the graph.
func starTree(t *testing.T, n int, prog func(ctx *congest.Ctx, f *Frame)) *congest.Stats {
	t.Helper()
	g := graph.Star(n, graph.GenOptions{})
	e := congest.NewEngine(g, congest.Config{})
	stats, err := e.Run(func(ctx *congest.Ctx) {
		if ctx.ID() == 0 {
			children := make([]int, ctx.Degree())
			for i := range children {
				children[i] = i
			}
			prog(ctx, frameAt(-1, children))
			return
		}
		prog(ctx, frameAt(0, nil))
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return stats
}

// pathTree runs a program on a path where vertex 0 is the root and
// each vertex's child is the next one.
func pathTree(t *testing.T, n int, prog func(ctx *congest.Ctx, f *Frame)) {
	t.Helper()
	g := graph.Path(n, graph.GenOptions{})
	e := congest.NewEngine(g, congest.Config{})
	_, err := e.Run(func(ctx *congest.Ctx) {
		var parent int
		var children []int
		switch {
		case ctx.ID() == 0:
			parent = -1
			children = []int{0} // port 0 leads to vertex 1
		case ctx.ID() == n-1:
			parent = 0
		default:
			parent = 0          // port 0 leads to the smaller neighbor
			children = []int{1} // port 1 leads to the larger neighbor
		}
		prog(ctx, frameAt(parent, children))
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestConvergeSumsOverStar(t *testing.T) {
	const n = 12
	starTree(t, n, func(ctx *congest.Ctx, f *Frame) {
		var got [3]int64
		var isRoot bool
		congest.RunSteps(ctx, f.Converge(ctx, ctx.Round()+4, true,
			[3]int64{int64(ctx.ID()), 1, 0},
			func(acc, child [3]int64) [3]int64 {
				return [3]int64{acc[0] + child[0], acc[1] + child[1], 0}
			}, result(&got, &isRoot)))
		if isRoot != (ctx.ID() == 0) {
			t.Errorf("vertex %d isRoot=%v", ctx.ID(), isRoot)
		}
		if isRoot {
			wantSum := int64(n * (n - 1) / 2)
			if got[0] != wantSum || got[1] != n {
				t.Errorf("root got %v, want sum=%d count=%d", got, wantSum, n)
			}
		}
	})
}

func TestConvergeInactiveDrains(t *testing.T) {
	starTree(t, 6, func(ctx *congest.Ctx, f *Frame) {
		var got [3]int64
		var isRoot bool
		congest.RunSteps(ctx, f.Converge(ctx, ctx.Round()+3, false, [3]int64{}, nil, result(&got, &isRoot)))
		if ctx.Round() == 0 {
			t.Error("inactive Converge did not consume the window")
		}
	})
}

func TestArgminFindsMinAndWinnerPath(t *testing.T) {
	const n = 9
	pathTree(t, n, func(ctx *congest.Ctx, f *Frame) {
		// Vertex i bids (100-i, i, 0); the tail vertex n-1 wins.
		var winner int
		var got [3]int64
		var isRoot bool
		own := [3]int64{int64(100 - ctx.ID()), int64(ctx.ID()), 0}
		congest.RunSteps(ctx, f.Argmin(ctx, ctx.Round()+int64(n+4), true, own, &winner, result(&got, &isRoot)))
		if isRoot {
			if got != [3]int64{int64(100 - (n - 1)), int64(n - 1), 0} {
				t.Errorf("root argmin %v", got)
			}
		}
		// Winner pointers: tail says self, everyone else points down.
		if ctx.ID() == n-1 {
			if winner != -2 {
				t.Errorf("tail winner = %d, want -2", winner)
			}
		} else if winner != 1 && !(ctx.ID() == 0 && winner == 0) {
			t.Errorf("vertex %d winner = %d, want child port", ctx.ID(), winner)
		}
		// Downcast to the winner.
		var target bool
		congest.RunSteps(ctx, f.WinnerDowncast(ctx, ctx.Round()+int64(n+4), isRoot,
			&winner, [3]int64{7, 0, 0}, result(&got, &target)))
		if target != (ctx.ID() == n-1) {
			t.Errorf("vertex %d target=%v", ctx.ID(), target)
		}
	})
}

func TestArgminAllSentinel(t *testing.T) {
	starTree(t, 5, func(ctx *congest.Ctx, f *Frame) {
		var winner int
		var got [3]int64
		var isRoot bool
		congest.RunSteps(ctx, f.Argmin(ctx, ctx.Round()+4, true, Sentinel, &winner, result(&got, &isRoot)))
		if isRoot && got != Sentinel {
			t.Errorf("root got %v, want sentinel", got)
		}
		if winner != -1 {
			t.Errorf("winner = %d, want -1", winner)
		}
	})
}

func TestBroadcastReachesAll(t *testing.T) {
	const n = 9
	pathTree(t, n, func(ctx *congest.Ctx, f *Frame) {
		var got [3]int64
		var ok bool
		congest.RunSteps(ctx, f.Broadcast(ctx, ctx.Round()+int64(n+4), true, [3]int64{42, 43, 44}, result(&got, &ok)))
		if !ok {
			t.Errorf("vertex %d did not receive the broadcast", ctx.ID())
		}
		if got != [3]int64{42, 43, 44} {
			t.Errorf("vertex %d got %v", ctx.ID(), got)
		}
	})
}

func TestUpPathFromDeepVertex(t *testing.T) {
	const n = 7
	pathTree(t, n, func(ctx *congest.Ctx, f *Frame) {
		origin := ctx.ID() == n-1
		var got [3]int64
		var received bool
		congest.RunSteps(ctx, f.UpPath(ctx, ctx.Round()+int64(n+4), origin, [3]int64{9, 8, 7}, result(&got, &received)))
		if ctx.ID() == 0 {
			if !received || got != [3]int64{9, 8, 7} {
				t.Errorf("root got %v received=%v", got, received)
			}
		} else if received {
			t.Errorf("non-root %d claims receipt", ctx.ID())
		}
	})
}

func TestKeyLess(t *testing.T) {
	tests := []struct {
		a, b [3]int64
		want bool
	}{
		{[3]int64{1, 0, 0}, [3]int64{2, 0, 0}, true},
		{[3]int64{1, 1, 0}, [3]int64{1, 2, 0}, true},
		{[3]int64{1, 1, 1}, [3]int64{1, 1, 2}, true},
		{[3]int64{1, 1, 1}, [3]int64{1, 1, 1}, false},
		{[3]int64{2, 0, 0}, [3]int64{1, 9, 9}, false},
	}
	for _, tt := range tests {
		if got := KeyLess(tt.a, tt.b); got != tt.want {
			t.Errorf("KeyLess(%v,%v) = %v", tt.a, tt.b, got)
		}
	}
}

func TestWindowDeadlineExact(t *testing.T) {
	starTree(t, 3, func(ctx *congest.Ctx, f *Frame) {
		start := ctx.Round()
		var got [3]int64
		var ok bool
		congest.RunSteps(ctx, f.Drain(start+5, result(&got, &ok)))
		if ctx.Round() != start+5 {
			t.Errorf("vertex %d at round %d after Drain, want %d", ctx.ID(), ctx.Round(), start+5)
		}
	})
}
