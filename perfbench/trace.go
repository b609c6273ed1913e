package main

import (
	"slices"
	"sync"
	"time"

	"congestmst"
)

// span is one timed call across a layer boundary, recorded from the
// harness's side: the call into the library or the HTTP request, and
// the sub-intervals the library's observer events mark inside a run.
// Spans of one job share Job; Parent is the enclosing span (0 = none).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Job    int64  `json:"job,omitempty"`
	Name   string `json:"name"`
	// Start and End are nanoseconds since the run began.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, which is how untraced runs pay nothing for it.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// add records a span and returns its ID (0 on a nil tracer).
func (t *tracer) add(parent, job int64, name string, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Job: job, Name: name,
		Start: start.Sub(t.origin).Nanoseconds(), End: end.Sub(t.origin).Nanoseconds()})
	return id
}

// finish sets the end of a span opened by add before its end was known.
func (t *tracer) finish(id int64, end time.Time) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = end.Sub(t.origin).Nanoseconds()
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans)
}

// selfTime is one layer's total time minus the time its child spans
// cover, summed over every span with that name.
type selfTime struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"self_s"`
	Count   int     `json:"spans"`
}

// selfTimes computes each span name's self time: its duration minus the
// union of its children's intervals, clipped to the parent.
func (t *tracer) selfTimes() []selfTime {
	spans := t.snapshot()
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	index := make(map[string]int)
	var out []selfTime
	for _, s := range spans {
		covered := int64(0)
		kids := children[s.ID]
		slices.SortFunc(kids, func(a, b span) int { return int(a.Start - b.Start) })
		cur := s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, cur), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		i, ok := index[s.Name]
		if !ok {
			i = len(out)
			index[s.Name] = i
			out = append(out, selfTime{Name: s.Name})
		}
		out[i].Seconds += float64(s.End-s.Start-covered) / 1e9
		out[i].Count++
	}
	return out
}

// phaseMark is one Elkin stage boundary as the observer saw it.
type phaseMark struct {
	name     string
	at       time.Time
	round    int64
	messages int64 // cumulative messages of the last round event seen
}

// probe is the observer a traced job attaches: it timestamps the first
// and final round events and every phase event, and keeps the engine's
// per-shard and socket accounts. Callbacks may arrive concurrently
// (round events from the coordinator, phase events from a vertex).
type probe struct {
	mu         sync.Mutex
	first      time.Time
	last       time.Time
	played     int64 // round events carrying wall time (not the final summary)
	roundNanos int64
	messages   int64
	phases     []phaseMark
	shards     []congestmst.ShardSample
	net        *congestmst.NetSample
}

func (p *probe) OnRound(ev congestmst.RoundEvent) {
	now := time.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.first.IsZero() {
		p.first = now
	}
	p.last = now
	if ev.WallNanos > 0 {
		p.played++
		p.roundNanos += ev.WallNanos
	}
	p.messages = ev.Messages
}

func (p *probe) OnPhase(ev congestmst.PhaseEvent) {
	now := time.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.phases = append(p.phases, phaseMark{name: ev.Name, at: now, round: ev.Round, messages: p.messages})
}

func (p *probe) OnShardSample(s congestmst.ShardSample) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.shards = append(p.shards, s)
}

func (p *probe) OnNet(ns congestmst.NetSample) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.net = &ns
}

// stageSpan is one Elkin stage between two observer timestamps.
type stageSpan struct {
	name             string
	start, end       time.Time
	rounds, messages int64
}

// elkinStages splits a finished traced run into the paper's stages:
// BFS build from the first round event to the "bfs-build" phase event,
// then base forest, register, and Borůvka up to the final round event.
// It returns nil when the run emitted no phase events (GHS).
func (p *probe) elkinStages(rounds, messages int64) []stageSpan {
	bounds := map[string]phaseMark{}
	for _, ph := range p.phases {
		bounds[ph.name] = ph
	}
	bfs, ok1 := bounds["bfs-build"]
	forest, ok2 := bounds["base-forest"]
	reg, ok3 := bounds["register"]
	if !ok1 || !ok2 || !ok3 {
		return nil
	}
	return []stageSpan{
		{"bfs_build", p.first, bfs.at, bfs.round, bfs.messages},
		{"base_forest", bfs.at, forest.at, forest.round - bfs.round, forest.messages - bfs.messages},
		{"register", forest.at, reg.at, reg.round - forest.round, reg.messages - forest.messages},
		{"boruvka", reg.at, p.last, rounds - reg.round, messages - reg.messages},
	}
}
