package forest

import (
	"congestmst/internal/congest"
	"congestmst/internal/fragops"
)

// This file is the Controlled-GHS phase program in resumable Step form
// (see internal/congest/task.go). The blocking Run and the fiber
// factory both drive exactly this code, so rounds, messages and
// per-kind counts are bit-identical across engines by construction.
//
// A phase is a fixed sequence of windows: fragment primitives (run by
// the runner's embedded fragops.Frame) and two-round cross windows
// between neighbouring fragments. The runner records which window is
// in flight as a stage; every primitive hands its result to advance,
// every cross window delivers to windowMsg and ends in windowEnd, and
// those dispatch on the stage to the methods below. Each method is one
// step of Section 4, named after the window whose result it consumes.

// stage names the window a runner is waiting on.
type stage uint8

const (
	stMeasure       stage = iota // (1) Converge: fragment size and height
	stParticipation              // (2) Broadcast: F'_i membership
	stNbrUpdate                  // (3) cross window: neighbor fragment ids
	stMWOE                       // (4) Argmin: the fragment's MWOE
	stOwner                      //     WinnerDowncast: the MWOE owner
	stAnnounce                   // (5) cross window: MWOE announcements
	stOwnerReport                //     UpPath: the owner's findings
	stColourBcast                // (6) Broadcast: the root's colour
	stColourCross                //     cross window: colours to neighbours
	stColourConv                 //     Converge: parent and child colours
	stSelect                     // (7) Broadcast: this class selects
	stCandidate                  //     Argmin: a border with an unmatched child
	stMatchOrder                 //     WinnerDowncast: the selection order
	stMatchCross                 //     cross window: the match proposal
	stMatchReport                //     UpPath: MATCHED to the selected root
	stUpdOrder                   //     WinnerDowncast: matched-update order
	stMatchedUp                  //     cross window: the matched update
	stStatus                     // (8) Broadcast: the fragment's fate
	stMergeIn                    //     cross window: merge-in crossings
	stReroot                     //     re-rooting broadcast window
)

// run starts phase r.phase, or hands the finished forest to r.done
// once every phase has run. All vertices enter each phase aligned and
// leave aligned; the window schedule is a deterministic function of
// the phase number alone, so no global coordination is needed.
func (r *runner) run(c congest.Context) congest.Step {
	if r.phase >= r.t {
		return r.done(c, &State{
			FragID:      r.fragID,
			ParentPort:  r.Parent,
			ChildPorts:  append([]int(nil), r.Children...),
			Phases:      r.t,
			NbrVertexID: r.nbrVid,
		})
	}
	i := r.phase
	r.h = heightBound(i)
	r.resetPhase()
	if r.trace != nil {
		r.trace.StartFrag[i][c.ID()] = r.fragID
	}
	// (1) Measure: the root learns the exact fragment size and tree
	// height, validating the Lemma 4.1 window budget as a side effect.
	r.stage = stMeasure
	return r.Converge(c, c.Round()+r.h, true, [3]int64{1, 0, 0}, sizeHeight, r.next)
}

// advance continues the phase program with the result of the fragment
// primitive that just ended.
func (r *runner) advance(c congest.Context, v [3]int64, ok bool) congest.Step {
	switch r.stage {
	case stMeasure:
		return r.measured(c, v, ok)
	case stParticipation:
		return r.participation(c, v)
	case stMWOE:
		return r.mwoeFound(c, v, ok)
	case stOwner:
		return r.ownerFound(c, ok)
	case stOwnerReport:
		return r.ownerReported(c, v, ok)
	case stColourBcast:
		return r.colourCross(c, v)
	case stColourConv:
		return r.colourConverged(c, v, ok)
	case stSelect:
		return r.selection(c, v)
	case stCandidate:
		return r.candidate(c, v, ok)
	case stMatchOrder:
		return r.matchOrder(c, ok)
	case stMatchReport:
		return r.matchReported(c, ok)
	case stUpdOrder:
		return r.updOrder(c, ok)
	case stStatus:
		return r.status(c, v)
	}
	failf("vertex %d: primitive ended in cross-window stage %d", c.ID(), r.stage)
	return congest.Done()
}

// windowMsg handles one delivery inside a cross window.
func (r *runner) windowMsg(c congest.Context, in congest.Inbound) {
	switch r.stage {
	case stNbrUpdate:
		r.nbrMsg(c, in)
	case stAnnounce:
		r.announceMsg(c, in)
	case stColourCross:
		r.colourMsg(c, in)
	case stMatchCross:
		r.matchMsg(c, in)
	case stMatchedUp:
		r.matchedUpMsg(c, in)
	case stMergeIn:
		r.mergeInMsg(c, in)
	case stReroot:
		r.newFragMsg(c, in)
	default:
		failf("vertex %d: delivery in primitive stage %d", c.ID(), r.stage)
	}
}

// windowEnd continues the phase program when a cross window closes.
func (r *runner) windowEnd(c congest.Context) congest.Step {
	switch r.stage {
	case stNbrUpdate:
		return r.nbrUpdated(c)
	case stAnnounce:
		return r.announced(c)
	case stColourCross:
		return r.colourCrossed(c)
	case stMatchCross:
		return r.matchCrossed(c)
	case stMatchedUp:
		r.cc++
		return r.matchStep(c)
	case stMergeIn:
		return r.reroot(c)
	case stReroot:
		return r.rerooted(c)
	}
	failf("vertex %d: cross window ended in primitive stage %d", c.ID(), r.stage)
	return congest.Done()
}

func (r *runner) resetPhase() {
	r.size, r.height = 0, 0
	r.participate, r.hasMWOE, r.parentPart, r.mutualWinner = false, false, false, false
	r.color = r.fragID
	r.matched, r.roleSelector, r.candExists = false, false, false
	r.isOwner, r.ownerPort, r.bestPort = false, -1, -1
	r.foreign = r.foreign[:0]
	r.treeCross = r.treeCross[:0]
	r.parentCol = cvNoParent
	r.winTmp, r.winMWOE = -1, -1
	r.fragSelecting, r.newFragSeen = false, false
	r.fragStatus = statusIsolated
}

func (r *runner) measured(c congest.Context, meas [3]int64, isRoot bool) congest.Step {
	i := r.phase
	if isRoot {
		r.size, r.height = meas[0], meas[1]
		if r.height+2 > r.h {
			failf("fragment %d height %d exceeds the Lemma 4.1 budget %d at phase %d",
				r.fragID, r.height, r.h, i)
		}
		if r.trace != nil {
			r.trace.Size[i][c.ID()] = r.size
			r.trace.Part[i][c.ID()] = r.size <= participateThreshold(i)
		}
	}
	// (2) Participation broadcast: F'_i membership (size <= 2^i).
	r.stage = stParticipation
	return r.Broadcast(c, c.Round()+r.h, true,
		[3]int64{boolWord(r.size <= participateThreshold(i)), 0, 0}, r.next)
}

// participation records F'_i membership, then runs (3) the neighbor
// update: fragment id, vertex id and participation bit to every
// neighbor (the paper's per-phase O(|E|) step).
func (r *runner) participation(c congest.Context, part [3]int64) congest.Step {
	r.participate = part[0] == 1
	for p := 0; p < c.Degree(); p++ {
		c.Send(p, congest.Message{Kind: KindNbr, A: r.fragID, B: int64(c.ID()), C: boolWord(r.participate)})
	}
	r.heard = 0
	return r.window(stNbrUpdate, c.Round()+2)
}

func (r *runner) nbrMsg(c congest.Context, in congest.Inbound) {
	if in.Msg.Kind != KindNbr {
		failf("vertex %d: kind %d during neighbor update", c.ID(), in.Msg.Kind)
	}
	r.nbrFrag[in.Port] = in.Msg.A
	r.nbrVid[in.Port] = in.Msg.B
	r.nbrPart[in.Port] = in.Msg.C == 1
	r.heard++
}

// nbrUpdated runs (4) the MWOE search inside participating fragments.
func (r *runner) nbrUpdated(c congest.Context) congest.Step {
	if r.heard != c.Degree() {
		failf("vertex %d: neighbor update heard %d of %d ports", c.ID(), r.heard, c.Degree())
	}
	own := sentinel
	if r.participate {
		own = r.localMWOE(c)
	}
	r.stage = stMWOE
	return r.Argmin(c, c.Round()+r.h, r.participate, own, &r.winTmp, r.next)
}

// localMWOE returns this vertex's lightest outgoing edge as a
// (weight, minId, maxId) key, or the sentinel if none exists.
func (r *runner) localMWOE(c congest.Context) [3]int64 {
	best := sentinel
	r.bestPort = -1
	for p := 0; p < c.Degree(); p++ {
		if r.nbrFrag[p] == r.fragID {
			continue
		}
		a, b := int64(c.ID()), r.nbrVid[p]
		if a > b {
			a, b = b, a
		}
		key := [3]int64{c.Weight(p), a, b}
		if keyLess(key, best) {
			best = key
			r.bestPort = p
		}
	}
	return best
}

// mwoeFound downcasts an execution order to the winning vertex.
func (r *runner) mwoeFound(c congest.Context, best [3]int64, isRoot bool) congest.Step {
	r.winMWOE = r.winTmp
	if isRoot {
		r.hasMWOE = best != sentinel
	}
	r.stage = stOwner
	return r.WinnerDowncast(c, c.Round()+r.h, isRoot && r.hasMWOE, &r.winMWOE, [3]int64{}, r.next)
}

// ownerFound runs (5): announce the MWOE across the chosen edge and
// detect mutual choices.
func (r *runner) ownerFound(c congest.Context, target bool) congest.Step {
	if target {
		r.isOwner = true
		r.ownerPort = r.bestPort
		if r.ownerPort < 0 {
			failf("vertex %d: MWOE owner without a local candidate", c.ID())
		}
	}
	if r.isOwner {
		c.Send(r.ownerPort, congest.Message{Kind: KindAnnounce})
	}
	r.mutual = false
	return r.window(stAnnounce, c.Round()+2)
}

func (r *runner) announceMsg(c congest.Context, in congest.Inbound) {
	if in.Msg.Kind != KindAnnounce {
		failf("vertex %d: kind %d during announce", c.ID(), in.Msg.Kind)
	}
	if !r.participate {
		return // large fragments ignore announces; merge-in marks edges later
	}
	if r.isOwner && in.Port == r.ownerPort {
		// Mutual MWOE: the higher-identity fragment becomes the parent.
		r.mutual = true
		if r.fragID > r.nbrFrag[in.Port] {
			r.addForeign(in.Port)
		}
		return
	}
	r.addForeign(in.Port)
}

// announced reports (mutualWinner, parentParticipates) from the owner
// to the root.
func (r *runner) announced(c congest.Context) congest.Step {
	r.stage = stOwnerReport
	return r.UpPath(c, c.Round()+r.h, r.isOwner,
		[3]int64{boolWord(r.mutual && r.fragID > r.nbrFragSafe()), boolWord(r.isOwner && r.nbrPart[max(r.ownerPort, 0)]), 0},
		r.next)
}

// ownerReported runs (6): the Cole-Vishkin 3-colouring of the
// candidate fragment forest.
func (r *runner) ownerReported(c congest.Context, rep [3]int64, got bool) congest.Step {
	if r.isRoot() && r.participate && r.hasMWOE {
		if !got {
			failf("fragment %d: owner report missing", r.fragID)
		}
		r.mutualWinner = rep[0] == 1
		r.parentPart = rep[1] == 1
	}
	r.cvIdx = 0
	return r.colourExchange(c)
}

func (r *runner) nbrFragSafe() int64 {
	if r.ownerPort < 0 {
		return -1
	}
	return r.nbrFrag[r.ownerPort]
}

// hasCVParent reports (at the root) whether this fragment has a parent
// in the candidate fragment forest G'_i.
func (r *runner) hasCVParent() bool {
	return r.hasMWOE && r.parentPart && !r.mutualWinner
}

// colourExchange starts one synchronous colour-communication step of
// the 3-colouring of G'_i: the root floods its colour through the
// fragment, border vertices carry it across fragment-graph edges, and a
// convergecast returns the parent fragment's colour and the minimum
// child colour to the root. Cost: 2h+2 rounds, O(n) messages over all
// fragments.
//
// cvIterations Cole-Vishkin halvings bring 64-bit identifiers to 6
// colours, then shift-down + eliminate removes colours 5, 4 and 3. One
// extra exchange verifies properness. The schedule is flattened to
// indexed exchanges: cvIdx < cvIterations are halvings, the next six
// alternate shift-down and eliminate for bad = 5, 4, 3, and the final
// exchange verifies.
func (r *runner) colourExchange(c congest.Context) congest.Step {
	r.stage = stColourBcast
	return r.Broadcast(c, c.Round()+r.h, r.participate, [3]int64{r.color, 0, 0}, r.next)
}

// colourCross is the cross step: the MWOE owner pushes our colour up to
// the parent fragment; border vertices holding announce edges push our
// colour down to each child fragment.
func (r *runner) colourCross(c congest.Context, col [3]int64) congest.Step {
	if r.participate {
		if r.isOwner && r.nbrPart[r.ownerPort] && !r.isMutualWinnerBorder() {
			c.Send(r.ownerPort, congest.Message{Kind: KindColor, A: col[0]})
		}
		for _, f := range r.foreign {
			c.Send(f.port, congest.Message{Kind: KindColor, A: col[0]})
		}
	}
	r.parentCol = cvNoParent
	for i := range r.foreign {
		r.foreign[i].colSeen = false
	}
	return r.window(stColourCross, c.Round()+2)
}

func (r *runner) colourMsg(c congest.Context, in congest.Inbound) {
	if in.Msg.Kind != KindColor {
		failf("vertex %d: kind %d during colour exchange", c.ID(), in.Msg.Kind)
	}
	if i, ok := r.findForeign(in.Port); ok {
		r.foreign[i].col, r.foreign[i].colSeen = in.Msg.A, true
		return
	}
	if r.isOwner && in.Port == r.ownerPort {
		r.parentCol = in.Msg.A
		return
	}
	failf("vertex %d: colour from unrelated port %d", c.ID(), in.Port)
}

func (r *runner) colourCrossed(c congest.Context) congest.Step {
	ownParent := int64cvOrSentinel(r.parentCol)
	ownChild := sentinel[0]
	for _, f := range r.foreign {
		if f.colSeen && f.col < ownChild {
			ownChild = f.col
		}
	}
	r.stage = stColourConv
	return r.Converge(c, c.Round()+r.h, r.participate, [3]int64{ownParent, ownChild, 0}, minPair, r.next)
}

// colourConverged applies exchange cvIdx at the root, then starts the
// next exchange or, after the verifying one, the matching.
func (r *runner) colourConverged(c congest.Context, acc [3]int64, isRoot bool) congest.Step {
	parent, childCommon := cvNoParent, cvNoParent
	if isRoot {
		if acc[0] != sentinel[0] {
			parent = acc[0]
		}
		if acc[1] != sentinel[0] {
			childCommon = acc[1]
		}
	}
	atRoot := r.isRoot() && r.participate
	switch idx := r.cvIdx; {
	case idx < cvIterations:
		if atRoot {
			r.color = cvReduceStep(r.color, parent)
		}
	case idx < cvIterations+6:
		step := idx - cvIterations
		bad := int64(5 - step/2)
		if step%2 == 0 {
			if atRoot {
				r.color = cvShiftDown(r.color, parent)
			}
		} else if atRoot {
			r.color = cvEliminate(r.color, bad, parent, childCommon)
		}
	default:
		if atRoot {
			if r.color < 0 || r.color > 2 {
				failf("fragment %d: colour %d outside {0,1,2} after CV", r.fragID, r.color)
			}
			if r.color == parent || (r.color == childCommon && childCommon != cvNoParent) {
				failf("fragment %d: improper colouring (own %d, parent %d, children %d)",
					r.fragID, r.color, parent, childCommon)
			}
			if r.trace != nil {
				r.trace.Color[r.phase][c.ID()] = r.color
			}
		}
		// (7) Maximal matching in three colour steps, then (8) merge.
		r.cc = 0
		return r.matchStep(c)
	}
	r.cvIdx++
	return r.colourExchange(c)
}

// isMutualWinnerBorder reports whether this owner vertex won a mutual
// MWOE tie (its fragment has no CV parent through this edge).
func (r *runner) isMutualWinnerBorder() bool {
	if !r.isOwner {
		return false
	}
	_, ok := r.findForeign(r.ownerPort)
	return ok
}

// matchStep runs colour class r.cc of the maximal matching (the three
// classes in sequence, then the merge): fragments of that colour that
// are still unmatched select one unmatched child, matched fragments
// notify their parents. It starts with (a) the selection broadcast.
func (r *runner) matchStep(c congest.Context) congest.Step {
	if r.cc >= 3 {
		return r.merge(c)
	}
	r.stage = stSelect
	return r.Broadcast(c, c.Round()+r.h, r.participate,
		[3]int64{boolWord(r.participate && r.color == r.cc && !r.matched), 0, 0}, r.next)
}

// unmatchedChild returns the lowest announce port whose child fragment
// is unmatched, or -1.
func (r *runner) unmatchedChild() int {
	for i := range r.foreign {
		if !r.foreign[i].matched {
			return i
		}
	}
	return -1
}

// selection runs (b) the candidate argmin: borders holding an
// unmatched child bid with their vertex id.
func (r *runner) selection(c congest.Context, sel [3]int64) congest.Step {
	r.fragSelecting = r.participate && sel[0] == 1
	own := sentinel
	if r.fragSelecting && r.unmatchedChild() >= 0 {
		own = [3]int64{0, int64(c.ID()), 0}
	}
	r.stage = stCandidate
	return r.Argmin(c, c.Round()+r.h, r.fragSelecting, own, &r.winTmp, r.next)
}

// candidate runs (c): downcast the selection order to the winning
// border vertex. isRoot is the argmin's report, which is false at
// non-selecting fragments; (f) reuses it.
func (r *runner) candidate(c congest.Context, best [3]int64, isRoot bool) congest.Step {
	if isRoot && r.fragSelecting {
		r.candExists = best != sentinel
		if r.candExists {
			r.matched = true
			r.roleSelector = true
		}
	}
	r.argOK = isRoot
	r.stage = stMatchOrder
	return r.WinnerDowncast(c, c.Round()+r.h, isRoot && r.fragSelecting && r.candExists,
		&r.winTmp, [3]int64{}, r.next)
}

// matchOrder runs (d) the cross: propose the match over the lowest
// unmatched child port.
func (r *runner) matchOrder(c congest.Context, target bool) congest.Step {
	if target {
		i := r.unmatchedChild()
		if i < 0 {
			failf("vertex %d: selected as match border with no unmatched child", c.ID())
		}
		q := r.foreign[i].port
		r.foreign[i].matched = true
		r.addTreeCross(q)
		c.Send(q, congest.Message{Kind: KindMatch})
	}
	r.selectedHere = false
	return r.window(stMatchCross, c.Round()+2)
}

func (r *runner) matchMsg(c congest.Context, in congest.Inbound) {
	if in.Msg.Kind != KindMatch {
		failf("vertex %d: kind %d during match cross", c.ID(), in.Msg.Kind)
	}
	if !r.isOwner || in.Port != r.ownerPort {
		failf("vertex %d: match proposal on non-MWOE port %d", c.ID(), in.Port)
	}
	r.selectedHere = true
	r.addTreeCross(in.Port)
}

// matchCrossed runs (e): the selected fragment's owner reports MATCHED
// to its root.
func (r *runner) matchCrossed(c congest.Context) congest.Step {
	r.stage = stMatchReport
	return r.UpPath(c, c.Round()+r.h, r.selectedHere, [3]int64{1, 0, 0}, r.next)
}

// matchReported runs (f): fragments matched in this step tell their own
// parent border to send a matched-update cross (so the parent stops
// selecting them).
func (r *runner) matchReported(c congest.Context, gotSel bool) congest.Step {
	if r.isRoot() && gotSel {
		if r.matched {
			failf("fragment %d: selected while already matched", r.fragID)
		}
		r.matched = true
		r.fragStatus = statusSelected
	}
	if r.isRoot() && r.roleSelector {
		r.fragStatus = statusSelector
	}
	initiate := r.argOK && ((r.roleSelector && r.fragSelecting) || gotSel) && r.hasCVParent()
	r.stage = stUpdOrder
	return r.WinnerDowncast(c, c.Round()+r.h, initiate, &r.winMWOE, [3]int64{}, r.next)
}

// updOrder runs (g) the matched-update cross.
func (r *runner) updOrder(c congest.Context, updTarget bool) congest.Step {
	if updTarget {
		c.Send(r.ownerPort, congest.Message{Kind: KindMatchedUp})
	}
	return r.window(stMatchedUp, c.Round()+2)
}

func (r *runner) matchedUpMsg(c congest.Context, in congest.Inbound) {
	if in.Msg.Kind != KindMatchedUp {
		failf("vertex %d: kind %d during matched update", c.ID(), in.Msg.Kind)
	}
	i, ok := r.findForeign(in.Port)
	if !ok {
		failf("vertex %d: matched update on non-child port %d", c.ID(), in.Port)
	}
	r.foreign[i].matched = true
}

// merge finishes the phase: every participating fragment learns its
// fate, unmatched fragments send merge-in crossings over their MWOE,
// and the new fragments are installed by a re-rooting broadcast from
// the component centres.
func (r *runner) merge(c congest.Context) congest.Step {
	status := statusIsolated
	if r.isRoot() && r.participate {
		switch {
		case r.fragStatus == statusSelector || r.fragStatus == statusSelected:
			status = r.fragStatus
		case r.hasMWOE:
			status = statusUnmatched
		}
	}
	r.stage = stStatus
	return r.Broadcast(c, c.Round()+r.h, r.participate, [3]int64{status, 0, 0}, r.next)
}

// status sends the merge-in crossings from unmatched fragments.
func (r *runner) status(c congest.Context, st [3]int64) congest.Step {
	if r.participate {
		r.fragStatus = st[0]
	}
	if r.participate && r.fragStatus == statusUnmatched && r.isOwner {
		r.addTreeCross(r.ownerPort)
		c.Send(r.ownerPort, congest.Message{Kind: KindMergeIn})
	}
	return r.window(stMergeIn, c.Round()+2)
}

func (r *runner) mergeInMsg(c congest.Context, in congest.Inbound) {
	if in.Msg.Kind != KindMergeIn {
		failf("vertex %d: kind %d during merge-in", c.ID(), in.Msg.Kind)
	}
	r.addTreeCross(in.Port)
}

// reroot starts the re-rooting broadcast from the component centres.
// Window: the new fragment diameter is at most 6·2^(i+1) (Lemma 4.1).
// r.ports never shares a backing array with r.Children (an initiator
// swaps the two), so rebuilding the children from r.ports in
// newFragMsg cannot clobber it.
func (r *runner) reroot(c congest.Context) congest.Step {
	end := c.Round() + 2*r.h + 4
	initiator := r.isRoot() && (!r.participate || r.fragStatus == statusSelector || r.fragStatus == statusIsolated)
	ports := append(r.ports[:0], r.Children...)
	if r.Parent >= 0 {
		ports = append(ports, r.Parent)
	}
	ports = append(ports, r.treeCross...)
	r.ports = ports
	if initiator {
		r.newFragSeen = true
		r.Parent = -1
		r.Children, r.ports = ports, r.Children[:0]
		for _, p := range ports {
			c.Send(p, congest.Message{Kind: KindNewFrag, A: r.fragID})
		}
	}
	return r.window(stReroot, end)
}

func (r *runner) newFragMsg(c congest.Context, in congest.Inbound) {
	if in.Msg.Kind != KindNewFrag {
		failf("vertex %d: kind %d during re-rooting", c.ID(), in.Msg.Kind)
	}
	if r.newFragSeen {
		failf("vertex %d: second NewFrag broadcast (cycle in merge graph)", c.ID())
	}
	r.newFragSeen = true
	r.fragID = in.Msg.A
	arrival := false
	for _, p := range r.ports {
		if p == in.Port {
			arrival = true
		}
	}
	if !arrival {
		failf("vertex %d: NewFrag arrived on non-tree port %d", c.ID(), in.Port)
	}
	r.Parent = in.Port
	r.Children = r.Children[:0]
	for _, p := range r.ports {
		if p != in.Port {
			r.Children = append(r.Children, p)
			c.Send(p, in.Msg)
		}
	}
}

// rerooted closes the phase and starts the next one.
func (r *runner) rerooted(c congest.Context) congest.Step {
	if !r.newFragSeen {
		failf("vertex %d: never received the re-rooting broadcast", c.ID())
	}
	if r.trace != nil {
		r.trace.Frag[r.phase][c.ID()] = r.fragID
		r.trace.Parent[r.phase][c.ID()] = r.Parent
	}
	r.phase++
	return r.run(c)
}

// sizeHeight folds a child's (size, height) report: sizes add, the
// height is one more than the tallest child's.
func sizeHeight(acc, child [3]int64) [3]int64 {
	acc[0] += child[0]
	if child[1]+1 > acc[1] {
		acc[1] = child[1] + 1
	}
	return acc
}

// minPair folds the (parent colour, minimum child colour) convergecast.
func minPair(acc, child [3]int64) [3]int64 {
	acc[0] = min(acc[0], child[0])
	acc[1] = min(acc[1], child[1])
	return acc
}

func keyLess(a, b [3]int64) bool { return fragops.KeyLess(a, b) }

func boolWord(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func int64cvOrSentinel(c int64) int64 {
	if c == cvNoParent {
		return sentinel[0]
	}
	return c
}
