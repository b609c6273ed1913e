package congest

import "fmt"

// Clock is the logical clock every engine in this repository advances,
// split out of the engines so the round counter and the park calendar
// are one shared synchronizer rather than a per-engine copy.
//
// Under the synchronizer-driven engines (lockstep, parallel, fiber,
// cluster) the clock is the round index: Advance(due) moves it by one
// when any vertex owes an immediate wake, and fast-forwards over idle
// stretches to the earliest live calendar entry otherwise. Under the
// Async engine the same value is the α-synchronizer's logical time: a
// tick happens only when the quiescence detector has seen every
// in-flight message acknowledged, so "round r+1" means "the causal
// frontier after window r", not "the barrier after round r". Both
// interpretations share this one implementation, which is what keeps
// the blocking Step/Recv API an exact compatibility shim over the
// async code path.
//
// A Clock is owned by a single coordinator goroutine; it is not safe
// for concurrent use. MaxRounds violations and deadlock (no due work
// and no live calendar entry) surface as ErrMaxRounds / ErrDeadlock
// from Advance, with the same error text every engine has always
// reported.
type Clock struct {
	now    int64
	max    int64
	timers Calendar
}

// NewClock returns a clock at time 0 that refuses to advance past
// maxRounds.
func NewClock(maxRounds int64) *Clock { return &Clock{max: maxRounds} }

// Now returns the current logical time (the round number, starting
// at 0).
func (c *Clock) Now() int64 { return c.now }

// Schedule files a parked vertex's wake deadline in the calendar.
// Entries are invalidated, not removed: a stale entry (the vertex
// woke early and re-parked, bumping its Gen) is dropped when it
// surfaces.
func (c *Clock) Schedule(t TimerEntry) { c.timers.Push(t) }

// Advance moves the clock to the next moment with work: now+1 when
// due (some vertex owes an immediate wake — fresh deliveries or an
// explicit next-tick park), otherwise a fast-forward to the earliest
// live calendar entry. live reports whether an entry still represents
// a parked vertex; stale entries are discarded as they surface.
// Returns ErrMaxRounds past the horizon and ErrDeadlock when nothing
// is due and no live entry remains.
func (c *Clock) Advance(due bool, live func(TimerEntry) bool) error {
	if due {
		c.now++
		if c.now > c.max {
			return fmt.Errorf("%w (%d)", ErrMaxRounds, c.max)
		}
		return nil
	}
	for c.timers.Len() > 0 {
		top := c.timers.Min()
		if !live(top) {
			c.timers.Pop() // stale
			continue
		}
		if top.Round > c.max {
			return fmt.Errorf("%w (%d)", ErrMaxRounds, c.max)
		}
		c.now = top.Round
		return nil
	}
	return ErrDeadlock
}

// PopDue hands every live calendar entry with deadline <= Now() to
// release, dropping stale ones. release typically marks the vertex
// queued (so duplicate entries for the same vertex die at their live
// check) and appends it to a wake set.
func (c *Clock) PopDue(live func(TimerEntry) bool, release func(TimerEntry)) {
	for c.timers.Len() > 0 && c.timers.Min().Round <= c.now {
		if entry := c.timers.Pop(); live(entry) {
			release(entry)
		}
	}
}

// TimerEntry is one parked deadline in a Clock's calendar: vertex ID
// wakes at Round unless its Gen no longer matches (the vertex woke
// early and re-parked, so this entry is stale).
type TimerEntry struct {
	Round int64
	ID    int
	Gen   int64
}

// Calendar is a binary min-heap of TimerEntry ordered by Round: the
// park calendar behind Clock and the cluster engine's per-shard
// deadlines. It is written out over the concrete slice rather than
// through container/heap, whose any-typed Push/Pop box every entry.
// Entries with equal Round pop in an unspecified order; every engine
// sorts the wake set it builds from them, so the order never reaches a
// schedule. The zero Calendar is empty and ready to use.
type Calendar struct {
	items []TimerEntry
}

// Len returns the number of entries, stale ones included.
func (h *Calendar) Len() int { return len(h.items) }

// Min returns the entry with the earliest Round. The calendar must not
// be empty.
func (h *Calendar) Min() TimerEntry { return h.items[0] }

// Push files one entry.
func (h *Calendar) Push(t TimerEntry) {
	h.items = append(h.items, t)
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h.items[parent].Round <= h.items[i].Round {
			break
		}
		h.items[parent], h.items[i] = h.items[i], h.items[parent]
		i = parent
	}
}

// Pop removes and returns the entry with the earliest Round. The
// calendar must not be empty.
func (h *Calendar) Pop() TimerEntry {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	for i := 0; ; {
		least := i
		if l := 2*i + 1; l < last && h.items[l].Round < h.items[least].Round {
			least = l
		}
		if r := 2*i + 2; r < last && h.items[r].Round < h.items[least].Round {
			least = r
		}
		if least == i {
			return top
		}
		h.items[i], h.items[least] = h.items[least], h.items[i]
		i = least
	}
}
