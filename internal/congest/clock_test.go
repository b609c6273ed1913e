package congest

import (
	"errors"
	"math/rand/v2"
	"slices"
	"testing"
)

func TestCalendarPopsInRoundOrder(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 200; trial++ {
		var h Calendar
		var want []int64
		for i := rng.IntN(64); i > 0; i-- {
			r := rng.Int64N(16)
			h.Push(TimerEntry{Round: r, ID: i})
			want = append(want, r)
		}
		slices.Sort(want)
		for i, w := range want {
			if h.Min().Round != w {
				t.Fatalf("trial %d: Min %d = %d, want %d", trial, i, h.Min().Round, w)
			}
			if got := h.Pop().Round; got != w {
				t.Fatalf("trial %d: pop %d = %d, want %d", trial, i, got, w)
			}
		}
		if h.Len() != 0 {
			t.Fatalf("trial %d: %d entries left", trial, h.Len())
		}
	}
}

// refClock is the specification Clock is checked against: the calendar
// as an unordered slice, scanned in full by every operation.
type refClock struct {
	now, max int64
	entries  []TimerEntry
}

func (r *refClock) advance(due bool, live func(TimerEntry) bool) error {
	if due {
		r.now++
		if r.now > r.max {
			return ErrMaxRounds
		}
		return nil
	}
	next, found := int64(0), false
	for _, e := range r.entries {
		if live(e) && (!found || e.Round < next) {
			next, found = e.Round, true
		}
	}
	switch {
	case !found:
		return ErrDeadlock
	case next > r.max:
		return ErrMaxRounds
	}
	r.now = next
	return nil
}

func (r *refClock) popDue(live func(TimerEntry) bool) []TimerEntry {
	var out []TimerEntry
	kept := r.entries[:0]
	for _, e := range r.entries {
		switch {
		case e.Round > r.now:
			kept = append(kept, e)
		case live(e):
			out = append(out, e)
		}
	}
	r.entries = kept
	return out
}

func byEntry(a, b TimerEntry) int {
	if a.ID != b.ID {
		return a.ID - b.ID
	}
	return int(a.Round - b.Round)
}

// TestClockMatchesReference drives Clock and a sorted-slice reference
// with the same random Schedule/Advance/PopDue sequences, including
// entries made stale by a Gen bump (a vertex woken early and
// re-parked), until each sequence ends in ErrMaxRounds or ErrDeadlock.
func TestClockMatchesReference(t *testing.T) {
	const verts = 8
	outcomes := map[error]int{}
	fastForwards := 0
	for seed := uint64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewPCG(seed, 7))
		maxRounds := int64(20 + rng.IntN(200))
		clk := NewClock(maxRounds)
		ref := &refClock{max: maxRounds}
		gen := make([]int64, verts)
		live := func(e TimerEntry) bool { return gen[e.ID] == e.Gen }
		for step := 0; ; step++ {
			for i := rng.IntN(4); i > 0; i-- {
				id := rng.IntN(verts)
				gen[id]++ // any older entry of id is now stale
				if rng.IntN(4) == 0 {
					continue // woken early, parked on Await: no new entry
				}
				e := TimerEntry{Round: clk.Now() + 1 + rng.Int64N(12), ID: id, Gen: gen[id]}
				clk.Schedule(e)
				ref.entries = append(ref.entries, e)
			}
			due := rng.IntN(3) == 0
			prev := clk.Now()
			err, refErr := clk.Advance(due, live), ref.advance(due, live)
			if !errors.Is(err, refErr) || (err == nil) != (refErr == nil) {
				t.Fatalf("seed %d step %d: Advance(%v) = %v, reference %v", seed, step, due, err, refErr)
			}
			if err != nil {
				outcomes[refErr]++
				break
			}
			if clk.Now() != ref.now {
				t.Fatalf("seed %d step %d: Now = %d, reference %d", seed, step, clk.Now(), ref.now)
			}
			if clk.Now() > prev+1 {
				fastForwards++
			}
			// Every Schedule bumps its vertex's Gen, so a vertex has at
			// most one live entry and the reference may judge liveness
			// against the Gens from before the pop.
			before := slices.Clone(gen)
			want := ref.popDue(func(e TimerEntry) bool { return before[e.ID] == e.Gen })
			var got []TimerEntry
			clk.PopDue(live, func(e TimerEntry) {
				gen[e.ID]++ // released: the vertex runs and its entry is spent
				got = append(got, e)
			})
			slices.SortFunc(got, byEntry)
			slices.SortFunc(want, byEntry)
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d: PopDue released %v, reference %v", seed, step, got, want)
			}
		}
	}
	if outcomes[ErrMaxRounds] == 0 || outcomes[ErrDeadlock] == 0 || fastForwards == 0 {
		t.Fatalf("sequences did not cover every outcome: %v, %d fast-forwards", outcomes, fastForwards)
	}
}
