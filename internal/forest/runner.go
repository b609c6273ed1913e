package forest

import (
	"slices"

	"congestmst/internal/congest"
	"congestmst/internal/fragops"
)

// sentinel is an impossible convergecast key: larger than every real
// (weight, id, id) key.
var sentinel = fragops.Sentinel

// runner is one vertex's state machine for the Controlled-GHS phases.
// It is plain data shared by the blocking and fiber drivers; every
// message handler lives in the stage methods of phase.go. The embedded
// Frame holds the fragment-tree position (Parent, Children) and runs
// the fragment primitives.
//
// The phase program is a fixed sequence of windows, so the runner
// keeps its place in it as a stage and every window continues through
// the same three callbacks, bound once in newRunner: parking never
// allocates. The live Context is always a parameter, never a field
// (fiber engines re-point a shared per-shard Context between wakes).
type runner struct {
	fragops.Frame

	t     int // number of phases
	trace *Trace
	done  func(c congest.Context, st *State) congest.Step

	// Persistent fragment state.
	fragID int64
	nbrVid []int64

	// Per-phase neighbor knowledge (refreshed each phase).
	nbrFrag []int64
	nbrPart []bool

	// Position in the phase program.
	phase int   // current phase i
	h     int64 // heightBound(phase): the fragment-tree window length
	stage stage // the window in flight
	cvIdx int   // colouring: index of the current colour exchange
	cc    int64 // matching: the colour class being matched
	heard int   // neighbor update: ports heard from
	argOK bool  // matching: the candidate argmin's root report
	ports []int // merge: this vertex's tree ports for the re-rooting

	// Root-only knowledge for the current phase.
	size, height int64
	participate  bool
	hasMWOE      bool
	parentPart   bool // the MWOE target fragment participates
	mutualWinner bool
	color        int64
	matched      bool
	roleSelector bool
	candExists   bool

	// Border-vertex state for the current phase. The port lists are
	// kept sorted and reused from phase to phase, so every loop whose
	// effects escape (message sends, the re-rooting tree ports) runs in
	// port order without a per-use sort or allocation.
	isOwner      bool // this vertex holds the fragment's MWOE
	ownerPort    int
	bestPort     int           // this vertex's best local outgoing port
	foreign      []foreignPort // announce ports: participating child fragments
	treeCross    []int         // cross ports that became tree edges this phase
	parentCol    int64         // colour received from the parent fragment
	mutual       bool          // the announce came back over our own MWOE
	selectedHere bool          // a match proposal arrived at this owner

	// Argmin winner pointers: -2 self, -1 none, >=0 child port.
	winTmp  int
	winMWOE int

	fragSelecting bool
	fragStatus    int64
	newFragSeen   bool

	// The callbacks every window of the phase program continues
	// through, bound once per runner.
	next   fragops.Then
	onMsg  func(c congest.Context, in congest.Inbound)
	endWin func(c congest.Context) congest.Step
}

// foreignPort is one announce port: a participating child fragment
// across a fragment-graph edge.
type foreignPort struct {
	port    int
	matched bool  // the child fragment is matched
	col     int64 // its colour in the current exchange, if colSeen
	colSeen bool
}

// Fragment statuses broadcast at the end of the matching stage.
const (
	statusUnmatched int64 = 0 // merge out along the MWOE
	statusSelector  int64 = 1 // centre of a matched pair: initiator
	statusSelected  int64 = 2 // absorbed by the selecting parent
	statusIsolated  int64 = 3 // no outgoing edge: initiator, no merge
)

func newRunner(c congest.Context, k int, trace *Trace) *runner {
	deg := c.Degree()
	r := &runner{
		t:       Phases(k),
		trace:   trace,
		fragID:  int64(c.ID()),
		nbrVid:  make([]int64, deg),
		nbrFrag: make([]int64, deg),
		nbrPart: make([]bool, deg),
	}
	for p := range r.nbrVid {
		r.nbrVid[p] = -1
	}
	r.Init(-1, nil)
	r.next, r.onMsg, r.endWin = r.advance, r.windowMsg, r.windowEnd
	return r
}

func (r *runner) isRoot() bool { return r.Parent == -1 }

// window opens a stage window ending at the absolute round end.
func (r *runner) window(s stage, end int64) congest.Step {
	r.stage = s
	return congest.Window(end, r.onMsg, r.endWin)
}

// findForeign returns the index of port p in the sorted announce list.
func (r *runner) findForeign(p int) (int, bool) {
	return slices.BinarySearchFunc(r.foreign, p, func(f foreignPort, p int) int { return f.port - p })
}

// addForeign records p as an announce port (idempotent).
func (r *runner) addForeign(p int) {
	if i, ok := r.findForeign(p); !ok {
		r.foreign = slices.Insert(r.foreign, i, foreignPort{port: p})
	}
}

// addTreeCross records p as a cross port that became a tree edge
// (idempotent).
func (r *runner) addTreeCross(p int) {
	if i, ok := slices.BinarySearch(r.treeCross, p); !ok {
		r.treeCross = slices.Insert(r.treeCross, i, p)
	}
}

// participateThreshold is the size bound for phase i: fragments of at
// most 2^i vertices join F'_i. Size bounds diameter from above, so the
// paper's diameter criterion and Lemmas 4.1/4.2 carry over (a fragment
// smaller than 2^i has diameter below 2^i and must participate).
func participateThreshold(i int) int64 { return int64(1) << uint(i) }
